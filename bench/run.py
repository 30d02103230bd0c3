"""Run one treefam benchmark workload and print its metrics.

    python3 bench/run.py --workload ie-count --seed 1 --seconds 25 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
same rounds untraced and traced, then the fixed per-layer inputs, and prints
the per-layer metrics.  The last line of stdout is the JSON result; spans and
the environment record go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import faulthandler
import gc
import importlib
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
RUN_LIMIT_S = 170

# ROADMAP / sizing figures the traced run is compared against: (low, high, source)
REFERENCE = {
    "baseline:count_at_least(30,|S|=12)": (0.02, 0.03, "ROADMAP, sizing"),
    "baseline:count_at_least(30,|S|=16)": (0.44, 0.57, "ROADMAP, sizing"),
    "baseline:count_at_least(30,|S|=18)": (1.85, 2.3, "ROADMAP, sizing"),
    "baseline:verify_rt_spread(7,7/2,6)": (1.2, 1.2, "sizing"),
    "baseline:blocked_Dt(7,1)": (3.2, 3.2, "ROADMAP"),
    "baseline:treefam dt --n 7 --t 1": (4.6, 4.7, "sizing"),
    "Gamma_2(K6) node rate (1/s)": (2000, 3000, "ROADMAP, 200k-node runs"),
}
AGREE = 1.25  # a figure agrees when within this factor of the reference range


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def require_sources() -> Path:
    package = ROOT / "src" / "treefam"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no treefam sources under {package.parent}; run from a full checkout")
    return package


def import_treefam():
    """Import treefam from this checkout's src/, refusing any other copy."""
    src = require_sources().parent
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "treefam" or m.startswith("treefam.")]:
        del sys.modules[name]
    module = importlib.import_module("treefam")
    if Path(module.__file__).resolve().parent != (src / "treefam").resolve():
        raise SystemExit(f"error: imported treefam from {module.__file__}, not {src}")
    return module


def setup_once(workload, seed: int, ctx):
    """One full set-up: fresh import (or bytecode compile), inputs, cache warm-up.

    Returns (seconds at reference speed, first round's jobs).
    """
    from harness import REFERENCE_KERNEL_S, calibration_kernel

    kernel_before = calibration_kernel()
    t0 = time.perf_counter()
    if workload.children:
        ok = compileall.compile_dir(str(ROOT / "src" / "treefam"), force=True, quiet=1)
        if not ok:
            raise SystemExit("error: treefam does not compile")
    else:
        import_treefam()
        trees = sys.modules["treefam.trees"]
        for n in workload.warm:
            trees.tree_masks(n)
            trees.tree_mask_array(n)
    jobs = workload.make_jobs(round_rng(workload, seed, 0), ctx)
    seconds = time.perf_counter() - t0
    speed = 2 * REFERENCE_KERNEL_S / (kernel_before + calibration_kernel())
    return seconds * speed, jobs


def round_rng(workload, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload.name}:{seed}:{index}")


def run(args) -> dict:
    from harness import Launcher

    require_sources()
    # started before numpy and the oracles are imported, while this process is small
    launcher = Launcher(ROOT)
    try:
        return measure(args, launcher)
    finally:
        launcher.close()


def measure(args, launcher) -> dict:
    from harness import Library, Tracer, environment, bytecode_state, layer_metrics
    from harness import p90, peak_rss_mib, run_round
    from workloads import WORKLOADS, Context, baseline_jobs

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in declared["workloads"]}[workload.name]
    load_before = os.getloadavg()[0]
    package = require_sources()
    bytecode = {"before_run": bytecode_state(package)}
    # every workload starts from warm bytecode, whichever ran before it
    if not compileall.compile_dir(str(package), quiet=1):
        raise SystemExit("error: treefam does not compile")

    import_treefam()
    plain = Library(launcher)
    ctx = Context(plain)

    setups = [setup_once(workload, args.seed, ctx) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s for s, _ in setups)
    jobs = setups[-1][1]
    bytecode["during_jobs"] = bytecode_state(package)
    # oracle caches the checks read; not part of the program's set-up
    for n in (5, 6, 7):
        ctx.array(n)
    # the benchmark's own long-lived objects stay out of the collector's scans
    gc.collect()
    gc.freeze()

    tracer = Tracer() if args.trace else None
    traced = Library(launcher, tracer) if tracer else None
    # Rounds run back to back; another starts only if one as long as the
    # longest so far still ends within --seconds.  A traced run repeats each
    # round traced, on the same inputs, for the tracing overhead.
    rounds, traced_rounds = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        order = [(plain, rounds)] + ([(traced, traced_rounds)] if traced else [])
        if len(rounds) % 2:
            order.reverse()  # traced and untraced take turns going first
        for lib, sink in order:
            gc.collect()
            sink.append(run_round(jobs, lib, log))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > args.seconds:
            break
        jobs = workload.make_jobs(round_rng(workload, args.seed, len(rounds)), ctx)
    walls = [sum(r.normalized for r in rnd) for rnd in rounds]
    walls_traced = [sum(r.normalized for r in rnd) for rnd in traced_rounds]

    results = [r for rnd in rounds + traced_rounds for r in rnd]
    baseline = []
    if traced is not None:
        baseline = run_round(baseline_jobs(ctx), traced, log)
        results += baseline

    failed = sum(1 for r in results if r.error is not None)
    keys = [r.job.key for rnd in rounds for r in rnd]
    times = [r.normalized for rnd in rounds for r in rnd]
    solved = statistics.median(sum(r.solved for r in rnd) for rnd in rounds)
    report = {
        "workload": workload.name,
        "why": why,
        "rounds": len(rounds),
        "jobs_timed": len(times),
        "jobs_attempted": len(results),
        "jobs_failed": failed,
        "failed_ratio": failed / len(results),
        "repeated_query_share": 1 - len(set(keys)) / len(keys),
        "round_walls_s": walls,
        "round_walls_raw_s": [sum(r.seconds for r in rnd) for rnd in rounds],
        "job_seconds": [[r.job.name, r.seconds, r.speed] for rnd in rounds for r in rnd],
        "setup_repeats_s": [s for s, _ in setups],
    }
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(times),
            "job_p90_s": p90(times),
            "solved": solved,
            "peak_rss_mib": launcher.peak_rss_kib / 1024 if workload.children else peak_rss_mib(),
        }
    else:
        metrics = layer_metrics(tracer, sum(walls_traced) / sum(walls))
        report["traced_round_walls_s"] = walls_traced
        report["baseline"] = compare_baseline(baseline)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    report["environment"] = environment(ROOT, workload.name, args.seed, load_before, bytecode)
    write_out(args, report, tracer)
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def compare_baseline(results) -> list:
    """Measured fixed-input figures beside the ROADMAP ones, disagreements flagged."""
    from workloads import RATE_BUDGETS

    rows = [(r.job.name, r.normalized, r.seconds) for r in results if r.job.name.startswith("baseline:")]
    # the two Gamma_2(K6) searches differ only in their node budget
    by_name = {name: value for name, value, _ in rows}
    low, high = (by_name[f"baseline:Gamma_2(K6) b={b}"] for b in RATE_BUDGETS)
    rows.append(("Gamma_2(K6) node rate (1/s)", (RATE_BUDGETS[1] - RATE_BUDGETS[0]) / (high - low), None))
    out = []
    for name, value, raw in rows:
        row = {"input": name, "measured": value, "raw": raw}
        ref = REFERENCE.get(name)
        if ref is not None:
            low, high, source = ref
            row.update(reference=[low, high], source=source)
            row["agrees"] = low / AGREE <= value <= high * AGREE
        out.append(row)
    return out


def write_out(args, report, tracer) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    body = dict(report)
    if tracer is not None:
        body["jobs"] = {str(k): v for k, v in tracer.jobs.items()}
        body["spans"] = [s.to_dict() for s in tracer.spans]
    (out / f"{stem}.json").write_text(json.dumps(body, indent=1, default=str) + "\n")


def print_report(report: dict, result: dict) -> None:
    env = report["environment"]
    print(f"# treefam benchmark: {report['workload']} (seed {env['seed']})")
    print(f"# why: {report['why']}")
    print(
        f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"cpu {env['cpu_model']}, load1 {env['load1_before']:.2f} -> {env['load1_after']:.2f}, "
        f"git {env['git_sha']}, bytecode {env['bytecode_cache']}"
    )
    print(
        f"# rounds {report['rounds']}, timed jobs {report['jobs_timed']} (percentile samples), "
        f"attempted {report['jobs_attempted']}, failed {report['jobs_failed']}, "
        f"failed_ratio {report['failed_ratio']:.4f}, repeated queries {report['repeated_query_share']:.4f}"
    )
    for row in report.get("baseline", ()):
        ref = row.get("reference")
        verdict = "" if ref is None else (
            f"  vs {ref[0]:g}-{ref[1]:g} ({row['source']}): {'agrees' if row['agrees'] else 'DISAGREES'}"
        )
        raw = "" if row["raw"] is None else f" (as measured {row['raw']:.6g})"
        print(f"# baseline {row['input']}: {row['measured']:.6g}{raw}{verdict}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread, as the load shape says: numpy's BLAS would otherwise start a
    # thread pool at import, in this process and in every CLI child.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # a hung job must not outlive the run's time limit: dump stacks and exit 1
    faulthandler.dump_traceback_later(RUN_LIMIT_S, exit=True)
    sys.path.insert(0, str(HERE))
    out = run(args)
    print_report(out["report"], out["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
