"""super-scrambler benchmark: end-to-end throughput and a traced per-module breakdown.

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 10 --trace 0

Run from anywhere; the package is imported from the `src/` tree next to
this directory, never from an installed copy.  One process, one worker.

--trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 alternates untraced rounds and rounds with the package's public
functions wrapped (tracer.py), then runs the process-pool pass; it reports
the per-layer metrics.

Round times are normalized by a reference kernel timed around each round
(speed.py), because the machine's speed drifts; see README.md.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it is a JSON record with everything else measured (the
environment, load average, input-generation time, items that failed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "super_scrambler"
WORKDIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 11
POOL_N, POOL_STEPS, POOL_SAMPLE_EVERY, POOL_REALS = 120, 30000, 200, 2
LAYER_MODULES = ("cli", "experiments", "model", "tableau", "gf2", "oracle", "__init__")

# A fresh interpreter imports the package and applies one gate and one
# entropy.  It prints its own elapsed time and the file it imported.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import super_scrambler
from super_scrambler import Region, SuperStabilizerTableau
tab = SuperStabilizerTableau.new_all_x(3)
tab.apply_t(1)
tab.entropy(Region.prefix(1))
print(time.perf_counter() - t0, super_scrambler.__file__)
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "entropies_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(workload, seconds: float, tracer=None):
    """Closed loop, one round at a time, until `seconds` have passed.

    The reference kernel is timed between rounds; each round's times are
    scaled by REFERENCE_S over the mean reference time on its two sides.
    With a tracer, rounds alternate untraced and traced, so both kinds see
    the same machine; the result is then a pair (untraced, traced).
    """
    samples = {False: [], True: []}
    traced = False
    ref = speed.reference_seconds()
    start = time.perf_counter()
    while not samples[False] or time.perf_counter() - start < seconds:
        with tracer if traced else contextlib.nullcontext():
            c0, w0 = cpu_seconds(), time.perf_counter()
            result = workload.run_round()
            wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        ref_after = speed.reference_seconds()
        scale = 2 * speed.REFERENCE_S / (ref + ref_after)
        samples[traced].append((wall, cpu, scale, result))
        ref = ref_after
        traced = tracer is not None and not traced
    if tracer is None:
        return summarize_rounds(samples[False])
    return summarize_rounds(samples[False]), summarize_rounds(samples[True] or samples[False])


def summarize_rounds(samples) -> dict:
    walls, cpus, scales, rounds = (list(column) for column in zip(*samples))
    per_round = {
        k: sum(getattr(r, k) for r in rounds) / len(rounds)
        for k in ("items", "gates", "entropies")
    }
    wall = statistics.median(w * s for w, s in zip(walls, scales))
    return {
        "rounds": len(rounds),
        "attempted": sum(r.items for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": [p for r in rounds for p in r.problems][:20],
        "wall_s": wall,
        "cpu_s": statistics.median(c * s for c, s in zip(cpus, scales)),
        "items_per_s": per_round["items"] / wall,
        "gates_per_s": per_round["gates"] / wall,
        "entropies_per_s": per_round["entropies"] / wall,
        "raw_wall_s": statistics.median(walls),
        "raw_cpu_s": statistics.median(cpus),
        "speed_scale": statistics.median(scales),
        "elapsed_s": sum(walls),
        "round_walls_s": walls,
        "round_scales": scales,
    }


def measure_setup() -> tuple:
    """Import plus a one-gate warm-up in fresh interpreters, alternating with
    the import reference (speed.IMPORT_REFERENCE); each sample is scaled by
    IMPORT_REFERENCE_S over the mean reference time on its two sides.
    Returns the normalized and the raw median."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SUPER_SCRAMBLER_THREADS", None)

    def child(code: str) -> list:
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return done.stdout.split()

    times, scaled = [], []
    ref = float(child(speed.IMPORT_REFERENCE)[0])
    for _ in range(SETUP_REPEATS):
        elapsed, imported = child(SETUP_PROBE)
        if not Path(imported).resolve().is_relative_to(PACKAGE_DIR):
            raise RuntimeError(f"setup probe imported {imported}")
        ref_after = float(child(speed.IMPORT_REFERENCE)[0])
        times.append(float(elapsed))
        scaled.append(float(elapsed) * 2 * speed.IMPORT_REFERENCE_S / (ref + ref_after))
        ref = ref_after
    return statistics.median(scaled), statistics.median(times)


def pool_pass(seed: int) -> dict:
    """Process-pool spin-up and the 1- over 2-worker speed-up on fig1 realizations."""
    from super_scrambler import experiments

    def timed(config, workers):
        ref = speed.reference_seconds()
        t0 = time.perf_counter()
        series = experiments.run_random_ensemble(config, max_workers=workers)
        elapsed = time.perf_counter() - t0
        scale = 2 * speed.REFERENCE_S / (ref + speed.reference_seconds())
        return elapsed * scale, series

    spinup, _ = timed(experiments.ExperimentConfig(POOL_N, 0, POOL_REALS, seed), 2)
    if (os.cpu_count() or 1) < 2:
        return {"spinup_s": spinup, "speedup": 0.0, "agree": True}
    config = experiments.ExperimentConfig(
        POOL_N, POOL_STEPS, POOL_REALS, seed, sample_every=POOL_SAMPLE_EVERY
    )
    one, series_1 = timed(config, 1)
    two, series_2 = timed(config, 2)
    return {
        "spinup_s": spinup,
        "speedup": one / two,
        "agree": bool((series_1.values == series_2.values).all()),
    }


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines() -> dict:
    counts = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        with open(path) as f:
            counts[path.stem] = sum(1 for _ in f)
    out = {f"src_lines.{m}": counts.get(m, 0) for m in LAYER_MODULES}
    out["src_lines.total"] = sum(counts.values())
    return out


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **git_state(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    for suffix, unit in (("gates_per_s", "1/s"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_frac", "ratio"), ("speedup", "ratio"), ("scale", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def traced_metrics(workload, seconds: float, seed: int, record: dict) -> dict:
    """Alternating untraced and traced rounds, then the pool pass; the
    per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = run_pass(workload, seconds, tracer)
    pool = pool_pass(seed)
    record.update(untraced=untraced, traced=traced, pool=pool, absent=tracer.absent)
    record["attempted"] = untraced["attempted"] + traced["attempted"] + 1
    record["failed"] = untraced["failed"] + traced["failed"] + (not pool["agree"])
    return {
        **tracer.metrics(),
        "experiments.pool.spinup_s": pool["spinup_s"],
        "experiments.pool.speedup": pool["speedup"],
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1,
        "trace.remainder_frac": 1 - tracer.hot_path_self_s() / traced["elapsed_s"],
        "trace.absent": len(tracer.absent),
        "gates_per_s": untraced["gates_per_s"],
        "failed_frac": untraced["failed"] / untraced["attempted"],
        "raw.wall_s": untraced["raw_wall_s"],
        "raw.cpu_s": untraced["raw_cpu_s"],
        "raw.setup_s": record["raw_setup_s"],
        "speed.scale": untraced["speed_scale"],
        **src_lines(),
    }


def end_to_end_metrics(workload, seconds: float, record: dict) -> dict:
    untraced = run_pass(workload, seconds)
    record.update(untraced=untraced, attempted=untraced["attempted"], failed=untraced["failed"])
    record["gates_per_s"] = untraced["gates_per_s"]
    record["failed_frac"] = untraced["failed"] / untraced["attempted"]
    return {
        "wall_s": untraced["wall_s"],
        "cpu_s": untraced["cpu_s"],
        "items_per_s": untraced["items_per_s"],
        "entropies_per_s": untraced["entropies_per_s"],
        "setup_s": record["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SUPER_SCRAMBLER_THREADS", None)  # one worker
    import super_scrambler
    from workloads import WORKLOADS

    if not Path(super_scrambler.__file__).resolve().is_relative_to(PACKAGE_DIR):
        print(f"error: imported {super_scrambler.__file__}, not {PACKAGE_DIR}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "loadavg_start": os.getloadavg()}
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record["setup_s"], record["raw_setup_s"] = measure_setup()
        workload = WORKLOADS[args.workload](args.seed)
        t0 = time.perf_counter()
        workload.prepare(str(workdir))
        record["bench.inputgen_s"] = time.perf_counter() - t0
        if args.trace:
            values = traced_metrics(workload, args.seconds, args.seed, record)
            metrics = {k: metric(v, layer_unit(k)) for k, v in values.items()}
        else:
            values = end_to_end_metrics(workload, args.seconds, record)
            metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
        record["loadavg_end"] = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
