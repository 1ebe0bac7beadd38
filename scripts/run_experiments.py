"""Run every experiment of the reproduction and write the results to files.

This is the script used to produce the measured numbers quoted in
EXPERIMENTS.md.  It runs each experiment module at the requested scale and
writes

* the formatted tables to ``results/experiments_<scale>.txt`` (and stdout),
  exactly as before, and
* one machine-readable ``BENCH_<experiment>.json`` per experiment (under
  ``--json-dir``, default ``results/``), so the perf trajectory is tracked
  across PRs by artifact rather than by eyeballing printed tables.  Each
  artifact records the raw row dicts plus the environment (CPU count,
  Python, platform) via :func:`repro.experiments.common.write_bench_json`.

Join and serving speed per layer is measured by the repository benchmark
(``perfbench/``); ``scripts/bench_ledger.py`` records its rows.

Usage::

    python scripts/run_experiments.py --scale 0.3 --out results/experiments.txt
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import (
    ablation_sketches,
    ablation_stopping,
    figure2,
    figure3,
    rs_bench,
    table1,
    table2,
    table4,
    tokens_scaling,
)
from repro.experiments.common import ALL_DATASET_NAMES, format_table, write_bench_json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--thresholds", nargs="*", type=float, default=[0.5, 0.7, 0.9])
    parser.add_argument("--out", type=str, default="results/experiments.txt")
    parser.add_argument(
        "--json-dir",
        type=str,
        default=None,
        help="directory for the BENCH_<experiment>.json artifacts "
        "(default: the directory of --out)",
    )
    args = parser.parse_args()

    output_path = Path(args.out)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    json_dir = Path(args.json_dir) if args.json_dir else output_path.parent
    sections = []

    def section(title: str, name: str, rows, scale: float = None) -> None:
        """Record one experiment: formatted table to the report, rows to JSON.

        ``scale`` records the scale the experiment *actually ran at* when it
        differs from ``--scale`` (the tokens experiment clamps upward).
        """
        body = format_table(rows) if isinstance(rows, list) else str(rows)
        text = f"\n## {title}\n\n{body}\n"
        sections.append(text)
        print(text)
        sys.stdout.flush()
        output_path.write_text("".join(sections))
        # name=None: a text-only section (the wall-clock total).
        if name is not None and isinstance(rows, list) and rows:
            write_bench_json(
                name,
                rows,
                json_dir / f"BENCH_{name}.json",
                scale=args.scale if scale is None else scale,
                seed=args.seed,
            )

    start = time.time()
    section(
        "Table I — dataset statistics (paper vs surrogate)",
        "table1",
        table1.run(names=ALL_DATASET_NAMES, scale=args.scale, seed=args.seed),
    )
    section(
        "Table II — join time in seconds at >=90% recall (CP / MH / ALL)",
        "table2",
        table2.run(
            names=ALL_DATASET_NAMES,
            thresholds=tuple(args.thresholds),
            scale=args.scale,
            seed=args.seed,
        ),
    )
    section(
        "Figure 2 — CPSJOIN speedup over ALLPAIRS",
        "figure2",
        figure2.run(names=ALL_DATASET_NAMES, thresholds=tuple(args.thresholds), scale=args.scale, seed=args.seed),
    )
    figure3_results = figure3.run(scale=args.scale, seed=args.seed)
    for key in ("3a", "3b", "3c"):
        section(
            f"Figure {key} — CPSJOIN parameter sweep (relative join time)",
            f"figure{key}",
            figure3_results[key],
        )
    section(
        "Table IV — pre-candidates / candidates / results (ALL vs CP)",
        "table4",
        table4.run(names=ALL_DATASET_NAMES, scale=args.scale, seed=args.seed),
    )
    tokens_scale = max(args.scale, 0.5)
    section(
        "TOKENS scaling",
        "tokens",
        tokens_scaling.run(scale=tokens_scale, seed=args.seed),
        scale=tokens_scale,
    )
    section(
        "Ablation — stopping strategies",
        "ablation-stopping",
        ablation_stopping.run(scale=args.scale, seed=args.seed),
    )
    section(
        "Ablation — sketch filter",
        "ablation-sketches",
        ablation_sketches.run(scale=args.scale, seed=args.seed),
    )
    section(
        "R ⋈ S benchmark — native side-aware path vs union self-join fallback",
        "rs-bench",
        rs_bench.run(scale=args.scale, seed=args.seed),
    )
    section(
        "Total wall-clock time",
        None,
        f"{time.time() - start:.1f} seconds at scale {args.scale}",
    )


if __name__ == "__main__":
    main()
