#!/usr/bin/env python3
"""omegalab benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload absorb --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all       # absorb, content, campaign

Run from the repository root. The workloads (absorb, content, campaign)
are defined in ``workloads.py``; the metrics and why each workload exists
are described in ``README.md`` beside this file.

This process only orchestrates. It starts a few fresh interpreters that
set up and exit, to time set-up, then one fresh interpreter that runs the
workload: whole passes over its units, for as long as ``--seconds``
allows, checking every unit's output. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 1`` runs one untraced pass and then one pass with spans around
omegalab's entry points, and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_DIR = HERE / "expected"
OUT_DIR = HERE / "out"

WORKLOAD_NAMES = ("absorb", "content", "campaign")
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10
# The reference time that corrected timings are scaled to: about the
# fastest seen on the 2-core host the benchmark was built on. A fixed
# scale, rather than the fastest time of each run, keeps a run that never
# saw a quiet moment comparable with one that did.
REFERENCE_S = 140e-6
REFERENCE_RUNS = 31


# ---------------------------------------------------------------------------
# machine speed


def reference_loop() -> int:
    acc, seen = 0, {}
    for i in range(1500):
        seen[i & 127] = acc
        acc = (acc * 31 + i) % 1000003
    return acc


def reference_time() -> float:
    """Seconds for the reference loop, which does not touch omegalab: the
    median of ``REFERENCE_RUNS`` runs in a row (5 to 10 ms), because single
    runs spread by 20% either way. Called only while the program is idle,
    so that the program's own load on the machine is never taken for a
    slow machine."""
    times = []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference_speed(raw_s: float, before: float, after: float) -> float:
    """A time taken between two reference times, rescaled to a machine on
    which the reference loop takes ``REFERENCE_S``."""
    return raw_s * REFERENCE_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by nearest rank: the smallest value with at least
    p percent of the values at or below it."""
    ordered = sorted(values)
    k = math.ceil(p * len(ordered) / 100)
    return ordered[max(k, 1) - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten of n units
    beyond it; 100 (the slowest unit) when n is too small for any."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return 100


# ---------------------------------------------------------------------------
# the workload process


def _import_program():
    sys.path.insert(0, str(SRC))
    import omegalab

    where = Path(omegalab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"omegalab imported from {where}, not from {SRC}")


def _setup(workload: str, seed: int):
    """Everything before the first timed unit: import, inputs, expected."""
    _import_program()
    import workloads

    units = workloads.WORKLOADS[workload](seed)
    path = EXPECTED_DIR / f"{workload}.json"
    expected = workloads.load_expected(path) if path.exists() else None
    return workloads, units, expected


def _run_pass(wl, units, expected, exact: bool, tracer=None):
    """One closed-loop pass: each unit starts when the previous returns.

    Returns ({unit key: (raw seconds, reference time before, reference
    time after)}, attempted, failed, problems).
    """
    spans, attempted, failed, problems = {}, 0, 0, []
    after = reference_time()
    for unit in units:
        want = expected.get(unit.key) if expected is not None else None
        count = wl.unit_count(unit, want) if want is not None else 1
        attempted += count
        before = after
        if tracer is not None:
            tracer.unit = unit.key
            tracer.activate()
        start = time.perf_counter()
        try:
            result = unit.run()
            error = None
        except Exception as exc:  # a unit that raises is a failed unit
            result, error = None, f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - start
        if tracer is not None:
            tracer.deactivate()
        after = reference_time()
        spans[unit.key] = (raw, before, after)
        if error is not None:
            failed += count
            problems.append(f"{unit.key}: raised {error}")
            continue
        if want is None:
            bad, why = 1, ["no expected record"]
        else:
            bad = wl.mismatches(unit, unit.record(result), want, exact)
            why = [f"{bad} item(s) differ from expected"] if bad else []
        oracle = unit.oracle(result)
        if oracle:
            bad = max(bad, 1)
        problems.extend(f"{unit.key}: {p}" for p in why + oracle)
        failed += min(bad, count)
    return spans, attempted, failed, problems


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _corrected(spans: dict) -> dict:
    """Unit latencies in seconds at the reference machine speed."""
    return {k: at_reference_speed(*span) for k, span in spans.items()}


def child_main(args) -> int:
    wl, units, expected = _setup(args.workload, args.seed)
    if args.phase == "setup":
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    if expected is None:
        raise SystemExit(f"missing {EXPECTED_DIR / (args.workload + '.json')}")
    exact = args.seed == wl.DEFAULT_SEED
    if args.trace:
        out = _traced(wl, units, expected, exact, args)
    else:
        out = _passes(wl, units, expected, exact, args.seconds)
        raw = out.pop("spans")
        out["passes"] = [_corrected(p) for p in raw]
        out["raw_walls"] = [sum(r for r, _, _ in p.values()) for p in raw]
    print(json.dumps(out))
    return 0


def _passes(wl, units, expected, exact, seconds) -> dict:
    """Whole passes, while the pass just run would still fit in ``seconds``."""
    spans, attempted, failed, problems = [], 0, 0, []
    began = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        s, a, f, p = _run_pass(wl, units, expected, exact)
        spans.append(s)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
        now = time.perf_counter()
        if now - began + (now - start) > seconds:
            break
    return {"spans": spans, "attempted": attempted, "failed": failed,
            "problems": problems[:20], "peak_rss_mb": _peak_rss_mb()}


def _traced(wl, units, expected, exact, args) -> dict:
    import tracing

    gc.collect()
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    plain, attempted, failed, problems = _run_pass(wl, units, expected, exact)
    cpu_per_wall = (_cpu_seconds() - cpu0) / (time.perf_counter() - wall0)

    if args.workload == "campaign":  # every call stays on traced threads
        units = wl.campaign_units(args.seed, jobs=1)
    tracer = tracing.Tracer()
    tracer.install()
    gc.collect()
    traced, a, f, p = _run_pass(wl, units, expected, exact, tracer)
    tracer.uninstall()

    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.cpu_per_wall"] = cpu_per_wall
    metrics["bench.trace_overhead_ratio"] = (
        sum(_corrected(traced).values()) / sum(_corrected(plain).values()))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {"layers": metrics, "attempted": attempted + a, "failed": failed + f,
            "problems": (problems + p)[:20]}


# ---------------------------------------------------------------------------
# the orchestrating process


def _spawn(args, phase: str) -> tuple[dict, float]:
    """Run this script in a fresh interpreter; return its JSON and start time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{phase} process exceeded {CHILD_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"{phase} process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), started


def end_to_end(passes: list[dict], setups: list[float], peak_rss_mb: float):
    """Metrics from the passes of one run. Unit latencies are pooled over
    every unit of every pass; the tail percentile is chosen from the number
    of units, so that at least ten units lie beyond it. With too few units
    for that, the tail is the slowest unit's median over the passes, which
    is steadier than the slowest single latency."""
    latencies = [t for p in passes for t in p.values()]
    pct = tail_percentile(len(passes[0]))
    if pct < 100:
        tail = nearest_rank(latencies, pct)
    else:
        tail = max(statistics.median(p[k] for p in passes) for k in passes[0])
    metrics = {
        "wall_s": (statistics.median(sum(p.values()) for p in passes), "s"),
        "unit_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "unit_ms_tail": (1000 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, pct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "work"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.phase:
        sys.path.insert(0, str(HERE))
        return child_main(args)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    return 0


def run_workload(args) -> None:
    """Set up, run and report one workload, each part in fresh interpreters."""
    setups = []  # (raw seconds, reference times before and after)
    if not args.trace:
        for _ in range(SETUP_PROBES):
            before = reference_time()
            child, started = _spawn(args, "setup")
            setups.append((child["ready"] - started, before, reference_time()))
    result, _ = _spawn(args, "work")

    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    notes = {}
    if args.trace:
        metrics = {name: (value, _layer_unit(name))
                   for name, value in result["layers"].items()}
    else:
        corrected = [at_reference_speed(*s) for s in setups]
        passes = result["passes"]
        metrics, pct = end_to_end(passes, corrected, result["peak_rss_mb"])
        runs = f"{len(passes[0])} units x {len(passes)} passes"
        notes = {"unit_ms_p50": f"  ({runs})", "unit_ms_tail": f"  (p{pct} of {runs})"}
        walls = " ".join(f"{w:.3f}" for w in result["raw_walls"])
        print(f"  {len(passes)} passes, raw seconds each: {walls}; "
              f"raw set-up median {statistics.median(r for r, _, _ in setups):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}{notes.get(name, '')}")
    print(f"  {'failed_ratio':42s} {failed / max(attempted, 1):14.6g} "
          f"ratio  ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_wall")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
