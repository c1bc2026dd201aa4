#!/usr/bin/env python3
"""The repo benchmark: one command, two seeded workloads, oracle-checked.

    python3 perfbench/run.py --workload {search,ingest} --seed N \\
        --seconds S --trace {0,1} [--perturb]

Runs one workload in a fresh Ray session with one CPU and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1`` runs the same
workload with timing wrappers installed, replays the build layers in
process, and reports the per-layer metrics, writing its spans to
``perfbench/out/``. Answers are compared with ``oracle.engine.OracleIndex``
after the measured phase; a mismatch, or a failed or hung operation, makes
the exit code non-zero. ``--perturb`` alters one answer before the check,
to show that the check catches it.

The script runs the workload in a child process and waits for it. It is the
child subreaper of everything below it, so every process the run leaves
behind, Ray's orphaned agents and workers included, is reparented to it,
killed and reaped before it exits: no process, not even a zombie, outlives
the benchmark.

See ``perfbench/README.md`` for the workloads, metrics and layer table.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
WORK = HERE / ".work"
# Ray puts unix sockets under its temp dir, and a socket path may not exceed
# 107 bytes; the session dir name and socket name add about 65.
RAY_TMP = REPO / ".rt"
RAY_TMP_MAX_LEN = 40
# Ray gets one CPU whatever the host has: per-layer single-process costs
# compare across boxes, whole-cluster numbers do not.
NUM_CPUS = 1
OBJECT_STORE_BYTES = 300 << 20
WALL_LIMIT_S = 150  # the workload is abandoned after this, counted as failed
RUN_LIMIT_S = 172   # the child is killed after this; the contract allows 180
CHILD_ENV = "PERFBENCH_CHILD"
PR_SET_CHILD_SUBREAPER = 36


def cpu_jiffies() -> dict[str, int]:
    """Host CPU counters from /proc/stat (as in bench.py's _HostMonitor)."""
    with open("/proc/stat") as f:
        parts = f.readline().split()
    names = ["user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal"]
    return dict(zip(names, (int(x) for x in parts[1:9])))


def host_facts(j0: dict[str, int]) -> dict:
    j1 = cpu_jiffies()
    d = {k: j1[k] - j0[k] for k in j1}
    total = max(1, sum(d.values()))
    return {"cpus": len(os.sched_getaffinity(0)), "ray_num_cpus": NUM_CPUS,
            "steal_pct": 100 * d["steal"] / total, "system_pct": 100 * d["system"] / total,
            "user_pct": 100 * (d["user"] + d["nice"]) / total}


def start_ray() -> None:
    import logging

    # Ray workers start from a fresh interpreter: the package must be on
    # their path, not only on this script's
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(REPO)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import ray

    # the object store's backing files too, instead of /dev/shm
    plasma = RAY_TMP / "plasma"
    plasma.mkdir(parents=True, exist_ok=True)
    kw = {"_plasma_directory": str(plasma)}
    if len(str(RAY_TMP)) <= RAY_TMP_MAX_LEN:
        kw["_temp_dir"] = str(RAY_TMP)
    else:
        print("checkout path too long for Ray's sockets; Ray uses its default temp dir",
              file=sys.stderr)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def descendants(root: int) -> set[int]:
    """Pids of every process below ``root``, zombies too, from /proc."""
    children: dict[int, list[int]] = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                ppid = int((d / "stat").read_text().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # the process ended while we looked
            children.setdefault(ppid, []).append(int(d.name))
    out, todo = set(), [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.add(c)
            todo.append(c)
    return out


def stop_ray() -> None:
    """Shut Ray down. Its agents and workers outlive ``ray.shutdown`` for a
    second or so; the parent process (``supervise``) kills and reaps them."""
    import ray

    ray.shutdown()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["search", "ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="alter one answer before the oracle check (self-test)")
    args = ap.parse_args()
    started = time.monotonic()

    if not (REPO / "gxdindexer_ray" / "__init__.py").is_file():
        print(f"no gxdindexer_ray package beside {HERE}", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(REPO))
    j0 = cpu_jiffies()

    # inputs are prepared in a child process, outside every measurement
    inputs = Path(subprocess.run(
        [sys.executable, str(HERE / "corpus.py"), "--seed", str(args.seed)],
        check=True, capture_output=True, text=True, timeout=120).stdout.strip())

    import spans
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    run = workloads.Run(args.workload, args.seed, inputs, work, args.seconds, tracer)
    result: dict = {}

    phases = run.extra.setdefault("phase_s", {})

    def mark(name: str, t0: float) -> float:
        t1 = time.monotonic()
        phases[name] = t1 - t0
        return t1

    def body() -> None:
        t = mark("inputs", started)
        start_ray()
        t = mark("ray_init", t)
        run.setup()
        t = mark("setup", t)
        if tracer:
            with tracer.patched():
                run.measure()
            t = mark("measure", t)
            result["extras"] = run.traced_extras()
            t = mark("traced_extras", t)
        else:
            run.measure()
            t = mark("measure", t)
        result["mismatches"] = run.check(perturb=args.perturb)
        mark("check", t)
        result["metrics"] = (run.per_layer(result["extras"]) if tracer
                             else run.end_to_end())

    def guarded() -> None:
        try:
            body()
        except Exception as e:  # reported as a failed run below
            import traceback

            traceback.print_exc(file=sys.stderr)
            result["error"] = repr(e)

    th = threading.Thread(target=guarded, daemon=True)
    th.start()
    th.join(max(1.0, WALL_LIMIT_S - (time.monotonic() - started)))
    hung = th.is_alive()
    if hung:
        print(f"workload still running after {WALL_LIMIT_S} s; abandoned", file=sys.stderr)
        run.failed += 1
    stopper = threading.Thread(target=stop_ray, daemon=True)
    stopper.start()
    stopper.join(20)
    phases["total"] = time.monotonic() - started

    mismatches = result.get("mismatches", [])
    for m in mismatches[:20]:
        print("MISMATCH", m, file=sys.stderr)
    got = result.get("metrics", {})
    missing = [m["name"] for m in wanted if m["name"] not in got]
    ok = not (hung or mismatches or missing or run.failed or "error" in result)
    if tracer:
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host_facts(j0), "extra": run.extra,
              "counts": {"builds": len(run.builds), "appends": len(run.delta_rows),
                         "head": len(run.lat["head"]), "tail": len(run.lat["tail"])},
              "all_metrics": got, "latencies": run.lat, "missing": missing, "mismatches": mismatches[:20]}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"host": record["host"], "counts": record["counts"],
                      "extra": run.extra}), file=sys.stderr)
    if not hung:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": ok,
        "attempted": max(1, run.attempted),
        "failed": run.failed + len(mismatches),
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in got},
    }))
    sys.stdout.flush()
    if hung:
        os._exit(1)  # the abandoned thread may hold the interpreter at exit
    return 0 if ok else 1


def reap_all() -> None:
    """Kill every process below this one and reap each until none is left.
    A process orphaned by a dying parent is reparented here (this process
    is a child subreaper), so the next pass finds it."""
    while True:
        for p in descendants(os.getpid()):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def supervise() -> int:
    """Run this script as a child process and clean up after it."""
    started = time.monotonic()
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        child = subprocess.Popen([sys.executable, __file__, *sys.argv[1:]],
                                 env=dict(os.environ, **{CHILD_ENV: "1"}))
        try:
            return child.wait(timeout=RUN_LIMIT_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            print(f"run still going after {RUN_LIMIT_S} s; killed", file=sys.stderr)
            return 1
    finally:
        reap_all()
        shutil.rmtree(RAY_TMP, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(CHILD_ENV) else supervise())
