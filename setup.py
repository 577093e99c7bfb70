"""Packaging shim for ``pip install -e .`` — the supported install path.

Metadata lives here (``pyproject.toml`` carries only the build-system
pin and tool config).  When the index is unreachable, run
``pip install -e . --no-build-isolation``; it builds with the installed
setuptools *and* ``wheel``, so ``wheel`` must already be installed
(without it pip stops with ``invalid command 'bdist_wheel'``).

Floors declared here are the single source of truth: Python >= 3.10
(CI exercises 3.10–3.12) and numpy >= 1.23 (the only runtime
dependency).  The test and benchmark suites also need pytest and
hypothesis: every CI job that runs pytest installs ``.[test]``.
"""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.4.0",
    description=(
        "HeteFedRec reproduction: heterogeneous federated recommendation "
        "with a vectorized round engine (NCF / MF / LightGCN)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.23"],
    extras_require={"test": ["pytest", "hypothesis"]},
    python_requires=">=3.10",
)
