"""Package metadata.

Kept in setup.py (legacy path) rather than a ``[project]`` table: the
target environment is offline and lacks the ``wheel`` package, so PEP
517 editable installs fail while ``setup.py develop`` works.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Genomics-GPU: a GPU-accelerated genome-analysis benchmark suite "
        "on a cycle-level GPU timing model"
    ),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={"dev": ["pytest", "hypothesis"]},
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": ["genomics-gpu=repro.cli:main"],
    },
)
