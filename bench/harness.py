"""Timing, tracing and metric reduction for the treefam benchmark.

Jobs call treefam only through a ``Library``: with tracing off it is a plain
function call, with tracing on it records one span per call into a treefam
public function (plus one per job and per CLI child) and attaches the work
counts the call returned.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path


class Job:
    """One question the benchmark asks and the independent check of its answer.

    run(lib) returns the answer and is the only timed part; check(answer)
    raises on a wrong answer; solved(answer) says whether the answer is a
    certified exact one (a search that ran out of budget is not).
    """

    __slots__ = ("name", "key", "group", "run", "check", "solved")

    def __init__(self, name, run, check, key=None, group=None, solved=None):
        self.name = name
        self.key = key if key is not None else name
        self.group = group
        self.run = run
        self.check = check
        self.solved = solved or (lambda answer: True)


class JobResult:
    """seconds as measured; speed is REFERENCE_KERNEL_S over the calibration
    kernel's time around the job, so seconds * speed is the time the job
    would take with the machine at its reference speed."""

    __slots__ = ("job", "seconds", "speed", "error", "solved")

    def __init__(self, job, seconds, speed, error, solved):
        self.job = job
        self.seconds = seconds
        self.speed = speed
        self.error = error
        self.solved = solved

    @property
    def normalized(self) -> float:
        return self.seconds * self.speed


# The machine's speed drifts by +-20% for tens of seconds at a time under
# load from outside.  A fixed pure-Python loop timed next to each job tracks
# that drift; job times are scaled by REFERENCE_KERNEL_S / (its time), the
# loop's time at this machine's usual speed (2-core Intel Xeon, Python 3.11).
CALIBRATION_LOOPS = 40_000
REFERENCE_KERNEL_S = 0.005
KERNEL_SHARE = 0.05  # after a long job, calibrate for this share of its time


def calibration_kernel() -> float:
    """Seconds for a fixed loop of small-int arithmetic and dict stores.

    It allocates no containers, so it triggers no garbage collection and does
    not depend on what the program left in memory.
    """
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - t0


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "job", "counts")

    def __init__(self, sid, name, start, parent, job):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.counts = {}

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "counts": self.counts,
        }


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    def __init__(self):
        self.spans = []
        self.jobs = {}  # job id -> (job name, group)
        self._stack = []
        self._job = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self._job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job: Job) -> Span:
        self._job = len(self.jobs)
        self.jobs[self._job] = (job.name, job.group)
        return self.open("job." + job.name)

    def end_job(self, span: Span) -> None:
        self.close(span)
        self._job = None


def work_counts(qualname: str, args, result) -> dict:
    """Work counts read off a treefam return value (or computed from the inputs)."""
    counts = {}
    if qualname in ("counting.count_at_least", "counting.count_exactly"):
        n, s, level = args[:3]
        size = len(getattr(s, "edges", s))
        low = 1 if qualname.endswith("at_least") else 0
        if low <= level <= size:
            counts["ie_subsets"] = 2 ** size
    elif qualname.startswith("cli."):
        counts["exit"] = result[0]
    elif qualname == "trees.tree_masks":
        counts["trees"] = len(result)
    elif qualname == "extremal.FamilySpec.verify":
        counts["family_size"] = result[2]
    elif hasattr(result, "pairs_checked"):
        counts["pairs_checked"] = result.pairs_checked
    elif hasattr(result, "checked"):
        counts["checked"] = result.checked
    elif hasattr(result, "nodes") and hasattr(result, "optimal"):
        counts.update(nodes=result.nodes, optimal=bool(result.optimal), family_size=result.size)
    elif hasattr(result, "vertex_count"):
        counts["vertex_count"] = result.vertex_count
    return counts


class Launcher:
    """A small helper process (launch.py) that runs child commands one at a time.

    Children are spawned from it rather than from the benchmark, so their
    peak RSS is their own and not the benchmark's.
    """

    def __init__(self, root: Path):
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.peak_rss_kib = 0

    def run(self, argv) -> tuple:
        """Run python with argv; returns (exit code, stdout)."""
        self.proc.stdin.write(json.dumps([sys.executable, *argv]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child launcher exited")
        reply = json.loads(line)
        self.peak_rss_kib = max(self.peak_rss_kib, reply["maxrss_kib"])
        return reply["code"], reply["stdout"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=90)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Library:
    """Calls treefam functions by qualified name ("module.function[.method]").

    Names are resolved against the treefam modules currently imported, so a
    fresh re-import during set-up is picked up.  "cli.<anything>" runs a child
    python through the launcher and returns (exit code, stdout).
    """

    def __init__(self, launcher: Launcher, tracer: Tracer | None = None):
        self.launcher = launcher
        self.tracer = tracer
        self._cache = {}

    def get(self, qualname: str):
        fn = self._cache.get(qualname)
        if fn is None:
            if qualname.startswith("cli."):
                fn = self.launcher.run
            else:
                module, _, rest = qualname.partition(".")
                fn = sys.modules["treefam." + module]
                for part in rest.split("."):
                    fn = getattr(fn, part)
            self._cache[qualname] = fn
        return fn

    def __call__(self, qualname: str, *args, **kwargs):
        fn = self.get(qualname)
        if self.tracer is None:
            return fn(*args, **kwargs)
        span = self.tracer.open(qualname)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.tracer.close(span)
        span.counts = work_counts(qualname, args, result)
        return result


def run_round(jobs, lib: Library, log) -> list:
    """Run jobs one after another; time each run, then check it untimed."""
    tracer = lib.tracer
    out = []
    kernel_before = [calibration_kernel()]
    for job in jobs:
        span = tracer.begin_job(job) if tracer else None
        error = None
        answer = None
        t0 = time.perf_counter()
        try:
            answer = job.run(lib)
        except Exception:  # a failing job is counted, the run goes on
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        if span is not None:
            tracer.end_job(span)
        repeats = max(1, round(KERNEL_SHARE * seconds / REFERENCE_KERNEL_S))
        kernel_after = [calibration_kernel() for _ in range(repeats)]
        kernels = kernel_before + kernel_after
        speed = REFERENCE_KERNEL_S * len(kernels) / sum(kernels)
        kernel_before = kernel_after
        solved = False
        if error is None:
            try:
                job.check(answer)
                solved = bool(job.solved(answer))
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            log(f"FAILED {job.name}: {error.strip().splitlines()[-1]}")
        out.append(JobResult(job, seconds, speed, error, solved))
    return out


# -- reductions ----------------------------------------------------------------


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def self_times(spans) -> dict:
    """Span id -> span time minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out[s.sid] = s.seconds - covered
    return out


def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """The per-layer metrics, all read from the spans of one traced run."""
    spans = tracer.spans
    own = self_times(spans)

    def select(*names):
        return [s for s in spans if s.name in names]

    def module(name):
        return [s for s in spans if s.module == name]

    def busy(group):
        return sum(own[s.sid] for s in group)

    def total(group, key):
        return sum(s.counts.get(key, 0) for s in group)

    m = {}
    masks = select("trees.tree_masks", "trees.tree_mask_array")
    m["trees.masks_s"] = sum(s.seconds for s in masks)
    m["trees.masks_per_s"] = _rate(total(masks, "trees"), m["trees.masks_s"])

    counting = module("counting")
    ie = [s for s in counting if "ie_subsets" in s.counts]
    m["counting.calls"] = len(counting)
    m["counting.busy_s"] = busy(counting)
    m["counting.max_call_s"] = max((s.seconds for s in counting), default=0.0)
    m["counting.ie_subsets"] = total(ie, "ie_subsets")
    m["counting.ie_subsets_per_s"] = _rate(m["counting.ie_subsets"], busy(ie))

    spread = module("spread")
    m["spread.calls"] = len(spread)
    m["spread.busy_s"] = busy(spread)
    m["spread.pairs_checked"] = total(spread, "checked")
    m["spread.pairs_per_s"] = _rate(m["spread.pairs_checked"], m["spread.busy_s"])

    builds = select("gamma.build_gamma")
    m["gamma.build_calls"] = len(builds)
    m["gamma.build_s"] = busy(builds)
    m["gamma.vertices"] = total(builds, "vertex_count")
    pairs = sum(s.counts.get("vertex_count", 0) ** 2 / 2 for s in builds)
    m["gamma.build_pairs_per_s"] = _rate(pairs, m["gamma.build_s"])

    searches = select("gamma.max_independent_set", "gamma.max_clique")
    m["gamma.search_calls"] = len(searches)
    m["gamma.search_s"] = busy(searches)
    m["gamma.nodes"] = total(searches, "nodes")
    rate, fixed = node_rate(tracer, searches)
    m["gamma.node_rate"] = rate
    m["gamma.search_fixed_s"] = fixed
    m["gamma.solved_ratio"] = _rate(sum(1 for s in searches if s.counts.get("optimal")), len(searches))
    m["gamma.family_size_total"] = total(searches, "family_size")

    dt = select("extremal.blocked_Dt")
    m["extremal.dt_calls"] = len(dt)
    m["extremal.dt_s"] = busy(dt)
    m["extremal.dt_pairs"] = total(dt, "pairs_checked")
    m["extremal.dt_pairs_per_s"] = _rate(m["extremal.dt_pairs"], m["extremal.dt_s"])

    avoid = select("extremal.count_avoiding")
    m["extremal.avoid_calls"] = len(avoid)
    m["extremal.avoid_s"] = busy(avoid)

    fam = select("extremal.FamilySpec.verify")
    m["extremal.family_s"] = busy(fam)
    m["extremal.family_members"] = total(fam, "family_size")
    pair_work = sum(s.counts["family_size"] * (s.counts["family_size"] - 1) / 2 for s in fam)
    m["extremal.pairwise_per_s"] = _rate(pair_work, m["extremal.family_s"])

    cli = module("cli")
    m["cli.spawn_s"] = _median([s.seconds for s in select("cli.spawn")])
    m["cli.import_s"] = _median([s.seconds for s in select("cli.import")])
    m["cli.nonzero_exits"] = sum(1 for s in cli if s.counts.get("exit", 0) != 0)
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def node_rate(tracer: Tracer, searches) -> tuple:
    """(marginal nodes/s, per-search seconds before the first node).

    Jobs in a group "rate:<graph>" run the same search at two node budgets;
    the node difference over the time difference is the marginal rate, and
    the smaller search's time minus its nodes at that rate is the fixed cost.
    """
    by_group = {}
    for s in searches:
        name, group = tracer.jobs.get(s.job, (None, None))
        if group and group.startswith("rate:"):
            by_group.setdefault(group, []).append(s)
    rates, fixed = [], []
    for group in by_group.values():
        group.sort(key=lambda s: s.start)
        # consecutive (small budget, large budget) pairs of the same graph
        for a, b in zip(group[::2], group[1::2]):
            lo, hi = sorted((a, b), key=lambda s: s.counts["nodes"])
            dn = hi.counts["nodes"] - lo.counts["nodes"]
            ds = hi.seconds - lo.seconds
            if dn > 0 and ds > 0:
                r = dn / ds
                rates.append(r)
                fixed.append(lo.seconds - lo.counts["nodes"] / r)
    return _median(rates), _median(fixed)


# -- environment record ------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def bytecode_state(package: Path) -> str:
    """'warm' when every module has a bytecode file for this interpreter."""
    tag = sys.implementation.cache_tag
    sources = sorted(package.glob("*.py"))
    cached = [
        (package / "__pycache__" / f"{p.stem}.{tag}.pyc").exists() for p in sources
    ]
    if all(cached):
        return "warm"
    return "cold" if not any(cached) else "partial"


def environment(root: Path, workload: str, seed: int, load_before: float, bytecode: dict) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "load1_before": load_before,
        "load1_after": os.getloadavg()[0],
        "git_sha": git_sha(root),
        "workload": workload,
        "seed": seed,
        "bytecode_cache": bytecode,
    }
