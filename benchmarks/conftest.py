"""Benchmark suite configuration.

Each ``test_<artefact>`` file regenerates paper artefacts at the
``bench`` profile through :func:`repro.experiments.run_all.render` — the
one code path that writes ``results/<name>.txt``, from the artefact's one
declaration in ``run_all.ARTEFACTS`` — and then only asserts on the
results tree it returns.  ``python -m repro experiments --profile bench
--out results`` writes the same files byte for byte.  Run the suite from
the repository root: ``render`` writes under ``./results``.

Training runs are cached in ``.repro_cache/`` and *shared across
artefacts* (Table II, Fig. 6 and Fig. 7 reuse the same jobs; Table V
reuses Table IV's), so the full suite costs far less than the sum of its
parts and re-runs are nearly free.

The ``test_bench_*`` files are smoke tests of the single-layer bench
harnesses driven by ``benchmarks/suite.py``.
"""
