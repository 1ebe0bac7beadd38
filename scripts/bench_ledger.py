"""Record the repository benchmark's rows, and check a change against them.

``BENCH_perfbench.json`` is the committed ledger of ``perfbench/run.py``
(see ``perfbench/README.md``): one row per workload and trace mode, each
holding perfbench's own ``# env`` record, ``correct``, ``attempted``,
``failed`` and every metric it printed, plus the commit the rows were
measured at (``dirty`` when ``src/`` or ``perfbench/`` had uncommitted
changes).

Record every workload, untraced (end-to-end metrics) and traced
(per-layer metrics)::

    python scripts/bench_ledger.py --seconds 20 --out BENCH_perfbench.json

Check a change against the committed rows::

    python scripts/bench_ledger.py --check BENCH_perfbench.json \\
        --workloads join-uniform join-netflix --seconds 2

The check re-runs the traced join workloads at the committed seed.  It
fails only if a run is not ``correct`` or if a deterministic counter
(``COUNTERS``) differs from its committed value: at a pinned seed the join
does the same work however long it runs and whatever the machine.  Timed
metrics are printed as ratios to the committed values and never fail the
check; they depend on the machine and on ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

from common import WORKLOADS  # noqa: E402  (perfbench's workload table)

SEED = 1
"""perfbench's ``--seed`` for recorded rows (the data and traffic draw)."""

COUNTERS = (
    "candidate.tasks",
    "candidate.tree_nodes",
    "filter.pairs_in",
    "filter.pairs_out",
    "verify.pairs_in",
    "verify.pairs_out",
    "engine.flushes",
)
"""Per-join counters of a traced join run that a correct change keeps exactly."""


def run_perfbench(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """One ``perfbench/run.py`` run as a ledger row (its stderr passes through)."""
    command = [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    completed = subprocess.run(command, cwd=REPO, stdout=subprocess.PIPE, text=True, check=False)
    lines = completed.stdout.splitlines()
    env = [line[len("# env "):] for line in lines if line.startswith("# env ")]
    if completed.returncode != 0 or not env:
        raise SystemExit(f"{' '.join(command[1:])} exited with status {completed.returncode}")
    result = json.loads(lines[-1])
    return {"workload": workload, "trace": trace, "seconds": seconds, "env": json.loads(env[0]),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def _git(*args: str) -> Optional[str]:
    try:
        completed = subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True,
                                   check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return completed.stdout.strip()


def record(workloads: List[str], seconds: float, out: Path) -> int:
    rows = []
    for workload in workloads:
        for trace in (0, 1):
            rows.append(run_perfbench(workload, SEED, seconds, trace))
            print(f"{workload} --trace {trace}: correct={rows[-1]['correct']}", flush=True)
    status = _git("status", "--porcelain", "--", "src", "perfbench")
    ledger = {"commit": _git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status),
              "rows": rows}
    out.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {out}")
    return 0 if all(row["correct"] for row in rows) else 1


def check(ledger_path: Path, workloads: List[str], seconds: float) -> int:
    ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    committed = {row["workload"]: row for row in ledger["rows"] if row["trace"] == 1}
    failures = []
    for workload in workloads:
        if workload not in committed:
            failures.append(f"{workload}: no traced row in {ledger_path}")
            continue
        before = committed[workload]
        now = run_perfbench(workload, before["env"]["seed"], seconds, trace=1)
        print(f"== {workload} (seed {before['env']['seed']}, {seconds:g} s; committed at "
              f"{before['seconds']:g} s, commit {str(ledger.get('commit'))[:12]})")
        if not now["correct"]:
            failures.append(f"{workload}: the run is not correct")
        for name, metric in now["metrics"].items():
            value = metric["value"]
            old = before["metrics"].get(name, {}).get("value")
            if name in COUNTERS:
                same = value == old
                print(f"  {name:30s} {value:>16,.1f}  {'==' if same else f'!= {old}'}")
                if not same:
                    failures.append(f"{workload}: {name} is {value}, committed {old}")
            elif old:
                print(f"  {name:30s} {value:>16.6g}  x{value / old:.2f} of committed")
    for failure in failures:
        print(f"# LEDGER CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path, default=None, metavar="LEDGER",
                        help="re-run the traced join workloads and compare with this ledger")
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=None,
                        help="workloads to run (default: all when recording, the join "
                        "workloads when checking)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="perfbench --seconds per run (default 20)")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_perfbench.json",
                        help="ledger written when recording (default BENCH_perfbench.json)")
    args = parser.parse_args(argv)
    if args.check is None:
        return record(args.workloads or list(WORKLOADS), args.seconds, args.out)
    joins = [name for name, workload in WORKLOADS.items() if workload.kind == "join"]
    workloads = args.workloads or joins
    if not set(workloads) <= set(joins):
        parser.error(f"--check runs join workloads only ({', '.join(joins)})")
    return check(args.check, workloads, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
