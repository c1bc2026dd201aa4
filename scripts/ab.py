"""Paired perfbench A/B of two commits.

Usage: python scripts/ab.py PARENT CHANGE --workload W --seeds S [S ...] [--dir /tmp]

``PARENT`` and ``CHANGE`` are any git tree-ish of this repository (a
commit, a branch, or the tree id ``git write-tree`` prints for the staged
work). Each is extracted with ``git archive`` into its own fresh
directory under ``--dir``; then, for each seed, one ``perfbench/run.py
--trace 0`` run per tree for ``BENCHMARK.json``'s ``run_seconds``, one run
at a time, the tree that runs first alternating from pair to pair (run
order alone moves some rates on a shared host). The checkouts are
removed at the end.

Per end-to-end metric of ``BENCHMARK.json`` it prints each side's median
[quartiles], the pairs the change won (by the metric's better direction),
and the median change/parent ratio split by which side ran first; then
the range of ``host.steal_pct`` per side and every failed run. Each run's
record is appended to ``ab-<workload>.jsonl`` in the work directory as it
finishes, so a cut-short A/B keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def checkout(treeish: str, dst: Path) -> None:
    dst.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", treeish],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dst)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"correct": False, "failed": 1, "metrics": {}, "stderr": p.stderr[-2000:]}
    last = tree / "perfbench" / "out" / f"last-{workload}-trace0.json"
    steal = json.loads(last.read_text())["host"]["steal_pct"] if last.exists() else None
    return {"exit": p.returncode, "correct": out.get("correct"), "failed": out.get("failed"),
            "metrics": {k: v["value"] for k, v in out.get("metrics", {}).items()},
            "steal_pct": steal, **({"stderr": out["stderr"]} if "stderr" in out else {})}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(runs: list[dict], better: dict[str, str]) -> list[str]:
    pairs: dict[int, dict[str, dict]] = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r
    full = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    out = [f"{len(full)} complete pairs"]
    for name, direction in better.items():
        ok = [p for p in full if name in p["P"]["metrics"] and name in p["C"]["metrics"]]
        if not ok:
            continue
        a = [p["P"]["metrics"][name] for p in ok]
        b = [p["C"]["metrics"][name] for p in ok]
        wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
        by_order = {}
        for first in ("P", "C"):
            ratios = [p["C"]["metrics"][name] / p["P"]["metrics"][name] for p in ok
                      if p[first]["position"] == 0 and p["P"]["metrics"][name]]
            by_order[first] = f"{statistics.median(ratios):.3f} (n={len(ratios)})" if ratios else "-"
        qa, qb = quartiles(a), quartiles(b)
        out.append(f"{name:22s} parent {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                   f"change {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                   f"wins {wins}/{len(ok)} ({direction} is better)  "
                   f"change/parent: parent first {by_order['P']}, change first {by_order['C']}")
    for side in ("P", "C"):
        steal = [p[side]["steal_pct"] for p in full if p[side]["steal_pct"] is not None]
        if steal:
            out.append(f"steal_pct {'parent' if side == 'P' else 'change'}: "
                       f"{min(steal):.2f}..{max(steal):.2f}")
    for r in runs:
        if not r["correct"] or r["failed"] or r["exit"]:
            out.append(f"FAILED run: side {r['side']} seed {r['seed']} exit {r['exit']} "
                       f"correct {r['correct']} failed {r['failed']}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, choices=["search", "ingest"])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--dir", default=tempfile.gettempdir(),
                    help="where the two checkouts go (keep the path short: "
                         "perfbench puts Ray's sockets under the checkout)")
    args = ap.parse_args()

    work = Path(tempfile.mkdtemp(prefix="ab-", dir=args.dir))
    trees = {"P": work / "P", "C": work / "C"}
    checkout(args.parent, trees["P"])
    checkout(args.change, trees["C"])
    spec = json.loads((trees["C"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    log = work / f"ab-{args.workload}.jsonl"
    print(f"checkouts in {work}; runs logged to {log}", file=sys.stderr)
    runs = []
    try:
        for i, seed in enumerate(args.seeds):
            order = ("P", "C") if i % 2 == 0 else ("C", "P")
            for pos, side in enumerate(order):
                r = run_once(trees[side], args.workload, seed, spec["run_seconds"])
                r.update(pair=i, seed=seed, side=side, position=pos)
                runs.append(r)
                with open(log, "a") as f:
                    f.write(json.dumps(r) + "\n")
                print(f"pair {i} seed {seed} {side} (run {pos + 1} of 2): correct "
                      f"{r['correct']} steal {r['steal_pct']}", file=sys.stderr)
    finally:
        print("\n".join(report(runs, better)))
        for t in trees.values():
            shutil.rmtree(t, ignore_errors=True)
    return 0 if all(r["correct"] and not r["failed"] and not r["exit"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
