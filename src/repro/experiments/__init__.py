"""Experiment harness: one module per table / figure of the paper.

Every module exposes

* ``run(...)`` — compute the experiment's rows programmatically (used by the
  benchmark suite and the tests), and
* ``main()`` — a command-line entry point printing the formatted table, e.g.
  ``python -m repro.experiments.table2 --scale 0.5``.

The mapping from paper artefact to module:

==============================  =======================================
Paper artefact                  Module
==============================  =======================================
Table I (dataset statistics)    :mod:`repro.experiments.table1`
Table II (join times)           :mod:`repro.experiments.table2`
Figure 2 (speedup over ALL)     :mod:`repro.experiments.figure2`
Figure 3a/3b/3c (parameters)    :mod:`repro.experiments.figure3`
Table IV (candidate counts)     :mod:`repro.experiments.table4`
TOKENS scaling discussion       :mod:`repro.experiments.tokens_scaling`
Stopping-strategy argument      :mod:`repro.experiments.ablation_stopping`
Sketching design choice         :mod:`repro.experiments.ablation_sketches`
Backend micro-benchmark         :mod:`repro.experiments.backend_bench`
R ⋈ S extension (Section IV)    :mod:`repro.experiments.rs_bench`
Index serving extension         :mod:`repro.experiments.index_bench`
Parallel executors (V-A.5)      :mod:`repro.experiments.parallel_bench`
Online serving extension        :mod:`repro.experiments.serve_bench`
==============================  =======================================
"""

__all__ = [
    "table1",
    "table2",
    "figure2",
    "figure3",
    "table4",
    "tokens_scaling",
    "ablation_stopping",
    "ablation_sketches",
    "backend_bench",
    "rs_bench",
    "index_bench",
    "parallel_bench",
    "serve_bench",
]
