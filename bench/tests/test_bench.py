"""Self-test of the benchmark at smoke length.

    python3 -O -m pytest bench/tests -q

Every check is an explicit raise, so the file means the same under -O.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

# jobs kept at smoke length: the cheap members of each workload's list
SMOKE = {
    "ie-count": lambda j: not any(f"|S|={k}]" in j.name for k in range(11, 19)),
    "exhaust": lambda j: "[7," not in j.name and "[8," not in j.name,
    "alpha-search": lambda j: j.name in ("alpha[K5,t=2]", "alpha[C12+3,t=8]"),
    "cli-cold": lambda j: j.name in ("cli[count matching]", "cli[dt]", "cli[gamma alpha]"),
}
SMOKE_BASELINE = (
    "baseline:count_trees_containing(64)",
    "baseline:count_at_least(30,|S|=12)",
    "baseline:build_gamma(K6,2)",
    "baseline:Gamma_2(K6) b=1000",
    "baseline:Gamma_2(K6) b=4000",
    "baseline:alpha(Gamma_2(K5))",
    "baseline:count_avoiding(12)",
    "baseline:FamilySpec.verify(6)",
    "baseline:spawn",
    "baseline:import",
)


def check(ok, message):
    if not ok:
        raise AssertionError(message)


@contextlib.contextmanager
def smoke_length():
    saved = {name: w.make_jobs for name, w in W.WORKLOADS.items()}
    saved_baseline = W.baseline_jobs
    for name, w in W.WORKLOADS.items():
        w.make_jobs = lambda rng, ctx, make=saved[name], keep=SMOKE[name]: [
            j for j in make(rng, ctx) if keep(j)
        ]
    W.baseline_jobs = lambda ctx: [j for j in saved_baseline(ctx) if j.name in SMOKE_BASELINE]
    try:
        yield
    finally:
        for name, w in W.WORKLOADS.items():
            w.make_jobs = saved[name]
        W.baseline_jobs = saved_baseline


def run_smoke(workload, trace):
    args = Namespace(workload=workload, seed=7, seconds=0.01, trace=trace)
    with smoke_length():
        out = run.run(args)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        run.print_report(out["report"], out["result"])
    return out, text.getvalue()


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_printed(result, printed, metrics):
    lines = printed.strip().splitlines()
    check(json.loads(lines[-1]) == result, "last stdout line is not the result")
    names = [m["name"] for m in metrics]
    check(sorted(result["metrics"]) == sorted(names), f"metric names {sorted(result['metrics'])}")
    for m in metrics:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float)), f"{m['name']} is not a number")
        check(any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines),
              f"{m['name']} not printed with its unit")


def test_every_workload_runs_and_prints_every_end_to_end_metric():
    spec = declared()
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(W.WORKLOADS), "workload names")
    for name in W.WORKLOADS:
        out, printed = run_smoke(name, 0)
        result = out["result"]
        check(result["correct"] and result["failed"] == 0, f"{name}: {result}")
        check(result["attempted"] >= 1, f"{name}: nothing attempted")
        check_printed(result, printed, spec["end_to_end"])
        check("failed_ratio 0.0000" in printed, f"{name}: failed_ratio not printed")


def test_traced_run_prints_every_per_layer_metric():
    out, printed = run_smoke("alpha-search", 1)
    result = out["result"]
    check(result["correct"], f"traced run failed: {result}")
    check_printed(result, printed, declared()["per_layer"])
    check(result["metrics"]["gamma.search_calls"]["value"] >= 2, "searches not traced")
    check(result["metrics"]["counting.calls"]["value"] >= 1, "baseline inputs not traced")
    trace = json.loads((BENCH / "out" / "alpha-search-seed7-trace1.json").read_text())
    spans = trace["spans"]
    check(any(s["name"] == "gamma.build_gamma" for s in spans), "no build_gamma span")
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"].startswith("gamma."):
            parent = by_id[s["parent"]]
            check(parent["name"].startswith("job.") and parent["job"] == s["job"], "span parent")


def test_wrong_expected_answer_is_counted_as_failed():
    saved = W.PINNED_DT[(6, 1)]
    W.PINNED_DT[(6, 1)] = saved + 1
    try:
        out, printed = run_smoke("exhaust", 0)
    finally:
        W.PINNED_DT[(6, 1)] = saved
    result = out["result"]
    check(not result["correct"], "a wrong answer passed")
    check(result["failed"] >= 1, "failure not counted")
    check(out["report"]["failed_ratio"] > 0, "failed_ratio stayed 0")
    check(result["metrics"]["solved"]["value"] < out["report"]["jobs_timed"], "failed job counted as solved")


def test_matrix_tree_reference_agrees_with_inclusion_exclusion():
    treefam = run.import_treefam()
    counting, extremal = treefam.counting, treefam.extremal
    s = W.relabel(W.balanced_paths(13, 6), {v: (v * 5) % 13 + 1 for v in range(1, 14)})
    poly = O.overlap_polynomial(13, s)
    for k in range(len(s) + 1):
        check(poly[k] == counting.count_exactly(13, s, k), f"exactly {k}")
    t0 = [(i, i + 1) for i in range(1, 10)]
    check(O.trees_avoiding(10, t0, [(1, 5)]) == extremal.count_avoiding(10, t0, [(1, 5)]), "avoid")


def test_fails_without_program_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ie-count", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "ran without treefam sources")
    check('"metrics"' not in proc.stdout, "printed a result without treefam sources")
