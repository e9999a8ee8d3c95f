"""Synthetic sequence generators.

All generators are deterministic given a seed (or an explicit
``random.Random``), so every experiment in the suite is reproducible
bit-for-bit.  The mutation model applies substitutions, insertions and
deletions at independent per-base rates — the standard way to dial in a
target divergence/identity for alignment and clustering workloads.
"""

from __future__ import annotations

import random

from repro.data.fastq import FastqRecord
from repro.genomics.sequence import DNA, PROTEIN, Sequence


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_dna(length: int, seed=0, gc: float = 0.5) -> str:
    """Random DNA of ``length`` residues with the given GC fraction."""
    if length < 0:
        raise ValueError("length must be non-negative")
    if not 0.0 <= gc <= 1.0:
        raise ValueError("gc must be in [0, 1]")
    rng = _rng(seed)
    weights = [(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2]  # A C G T
    return "".join(rng.choices("ACGT", weights=weights, k=length))


def random_protein(length: int, seed=0) -> str:
    """Random protein of ``length`` residues, uniform over 20 amino acids."""
    if length < 0:
        raise ValueError("length must be non-negative")
    rng = _rng(seed)
    return "".join(rng.choices(PROTEIN.letters, k=length))


def mutate(
    residues: str,
    seed=0,
    substitution_rate: float = 0.01,
    insertion_rate: float = 0.0,
    deletion_rate: float = 0.0,
    alphabet_letters: str = "ACGT",
) -> str:
    """Apply independent per-base substitutions / insertions / deletions."""
    for name, rate in (
        ("substitution_rate", substitution_rate),
        ("insertion_rate", insertion_rate),
        ("deletion_rate", deletion_rate),
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    rng = _rng(seed)
    out: list[str] = []
    for ch in residues:
        if rng.random() < deletion_rate:
            continue
        if rng.random() < substitution_rate:
            choices = [c for c in alphabet_letters if c != ch]
            ch = rng.choice(choices) if choices else ch
        out.append(ch)
        if rng.random() < insertion_rate:
            out.append(rng.choice(alphabet_letters))
    return "".join(out)


def sequence_family(
    count: int,
    ancestor_length: int,
    divergence: float = 0.05,
    seed=0,
    protein: bool = False,
    name_prefix: str = "seq",
    indel_fraction: float = 0.2,
) -> list[Sequence]:
    """``count`` sequences descended from one random ancestor.

    ``divergence`` is the total per-base mutation rate applied to each
    descendant; ``indel_fraction`` of it is spent on indels (split
    evenly between insertions and deletions).  This produces the kind
    of related-family input the STAR and CLUSTER workloads need.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = _rng(seed)
    alphabet = PROTEIN if protein else DNA
    letters = alphabet.letters
    if protein:
        ancestor = random_protein(ancestor_length, rng)
    else:
        ancestor = random_dna(ancestor_length, rng)
    indel_each = divergence * indel_fraction / 2.0
    sub = divergence * (1.0 - indel_fraction)
    family = []
    for i in range(count):
        if i == 0:
            residues = ancestor
        else:
            residues = mutate(
                ancestor,
                rng,
                substitution_rate=sub,
                insertion_rate=indel_each,
                deletion_rate=indel_each,
                alphabet_letters=letters,
            )
        family.append(Sequence(f"{name_prefix}{i}", residues, alphabet))
    return family


def sample_reads(
    reference: Sequence,
    count: int,
    read_length: int,
    seed=0,
    error_rate: float = 0.005,
    reverse_fraction: float = 0.5,
    base_quality: int = 30,
    name_prefix: str = "read",
) -> list[FastqRecord]:
    """Sample error-injected reads from a reference (Illumina-style).

    Reads are drawn uniformly over valid start positions; a
    ``reverse_fraction`` of them come from the reverse strand.
    """
    if read_length <= 0:
        raise ValueError("read_length must be positive")
    if read_length > len(reference):
        raise ValueError("read_length exceeds reference length")
    rng = _rng(seed)
    records: list[FastqRecord] = []
    max_start = len(reference) - read_length
    for i in range(count):
        start = rng.randint(0, max_start)
        fragment = reference.residues[start : start + read_length]
        strand = "-" if rng.random() < reverse_fraction else "+"
        seq = Sequence(f"{name_prefix}{i}", fragment)
        if strand == "-":
            seq = seq.reverse_complement()
        residues = mutate(seq.residues, rng, substitution_rate=error_rate)
        records.append(
            FastqRecord(
                Sequence(
                    f"{name_prefix}{i}",
                    residues,
                    DNA,
                    description=f"pos={start} strand={strand}",
                ),
                tuple([base_quality] * len(residues)),
            )
        )
    return records
