"""Every registered experiment against its committed table and its claims.

For each entry of :data:`repro.bench.EXPERIMENTS` the test regenerates
the table, compares it byte for byte with
``benchmarks/results/<stem>.txt`` and checks the entry's paper claims
on the regenerated rows.  Test ids start with the CI group, so
``pytest benchmarks/test_figures.py -k memory`` runs one group.  The
test writes nothing: ``repro figure KEY > benchmarks/results/STEM.txt``
is the one writer of the committed tables.
"""

import difflib
from pathlib import Path

import pytest

from repro.bench import EXPERIMENTS
from repro.core.report import format_table

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.mark.parametrize(
    "entry", EXPERIMENTS.values(), ids=lambda e: f"{e.group}-{e.key}"
)
def test_figure(entry):
    rows = entry.run()
    failures = []
    committed = (RESULTS_DIR / f"{entry.stem}.txt").read_text()
    regenerated = format_table(rows) + "\n"
    if regenerated != committed:
        diff = "".join(difflib.unified_diff(
            committed.splitlines(keepends=True),
            regenerated.splitlines(keepends=True),
            f"committed {entry.stem}.txt", "regenerated",
        ))
        failures.append(
            f"{entry.stem}.txt is stale; if the change is intended, run\n"
            f"  repro figure {entry.key} > benchmarks/results/"
            f"{entry.stem}.txt\n{diff}"
        )
    for claim in entry.claims:
        try:
            claim.check(rows)
        except AssertionError as exc:
            failures.append(f"claim not met: {claim.quote!r}\n{exc}")
    if failures:
        pytest.fail("\n\n".join(failures), pytrace=False)
