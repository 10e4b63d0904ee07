"""Run one benchmark workload against the monorank sources in ./src.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  All work runs in this one process on one
thread, closed loop: each item starts when the previous one has finished.
Inputs are generated from the seed during set-up, which is timed but not
part of any item.  A run makes whole passes over the item pool, as many
as come closest to --seconds, so every run measures the same mix.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run makes its passes untraced, then the same passes again with a span
around every layer call, and reports the per-layer table per pass.  The
line before the result holds what a reader needs to interpret it (tail
percentile and sample count, failures, bound gap, output digest, raw
times, environment); the same record is written to perfbench/out/, with
the spans of a traced run.

Times are reported at a reference host speed.  The host this was built on
shares its cores with other tenants, and identical work there takes up to
40 % longer from one second, or minute, to the next.  Between items the
run times a fixed calibration kernel (interpreter, numpy and HiGHS work,
none of it from monorank) and scales each item's time by
REFERENCE_KERNEL_S over the mean of the kernel samples nearest to it.  A
change that slows this whole process, say by starting a busy thread,
slows the kernel too and is hidden by the scaling; the unscaled times
are in the details line for that reason.
"""

from __future__ import annotations

import os

# pinned before numpy loads so BLAS and OpenMP start one thread each
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import bisect
import hashlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
TAIL_ABOVE = 10
# one calibration sample per this much item time; the kernel time that
# reported times refer to
CALIBRATE_EVERY_S = 0.05
REFERENCE_KERNEL_S = 0.006


def tail(samples: list[float], pool_size: int) -> tuple[float, float]:
    """The highest percentile that leaves TAIL_ABOVE samples above it within
    one pass of `pool_size` items, 100 * (pool_size - TAIL_ABOVE) / pool_size,
    and the samples' value there (linear interpolation between ranks).

    Fixing the percentile by the pool, not by the sample count, keeps it
    the same however many passes a run makes; each pass adds TAIL_ABOVE
    more samples above it.
    """
    if pool_size <= TAIL_ABOVE or len(samples) < pool_size:
        raise ValueError(
            f"need a pool of more than {TAIL_ABOVE} items and a full pass, "
            f"got pool {pool_size} and {len(samples)} samples"
        )
    pct = 100.0 * (pool_size - TAIL_ABOVE) / pool_size
    ordered = sorted(samples)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), pct


class Speedometer:
    """Times a fixed kernel between items, one sample per CALIBRATE_EVERY_S
    of item time, so the host's speed is sampled evenly across the run.

    The kernel mixes the kinds of work the workloads do: interpreter
    arithmetic, set comprehensions over bit masks, small numpy products and
    a HiGHS linear program.  Its inputs are fixed constants.
    """

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        self._np = np
        self._linprog = linprog
        self._masks = [int(x) for x in rng.integers(0, 1 << 20, 400)]
        self._mat = np.eye(8) * 0.5
        rows = rng.standard_normal((12, 4))
        self._lp = dict(
            c=np.ones(5),
            A_ub=np.hstack([rows, -np.ones((12, 1))]),
            b_ub=np.zeros(12),
            bounds=[(-1.0, 1.0)] * 5,
            method="highs",
        )
        self.samples: list[float] = []
        self.taken_at: list[float] = []
        self._owed = 0.0

    def kernel(self) -> None:
        s = 0
        for i in range(5_000):
            s += i * i % 7
        for t in range(15):
            len({p & (t * 2654435761 & 0xFFFFF) for p in self._masks})
        v = self._np.ones(8)
        for _ in range(400):
            v = self._mat @ v + 1.0
        self._linprog(**self._lp)

    def sample(self) -> float:
        t0 = perf_counter()
        self.kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.taken_at.append(t0)
        return dt

    def after(self, item_seconds: float) -> float:
        """Take the samples owed after an item; returns the time they took."""
        spent = 0.0
        self._owed += item_seconds
        while self._owed >= CALIBRATE_EVERY_S:
            self._owed -= CALIBRATE_EVERY_S
            spent += self.sample()
        return spent

    def factor(self) -> float:
        """Multiplier taking a time measured here to the reference speed."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)

    def factor_at(self, t: float) -> float:
        """The same multiplier from the four samples nearest to time t."""
        i = bisect.bisect(self.taken_at, t)
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples[max(0, i - 2) : i + 2])

    def scaled(self, outcome: "Outcome") -> list[float]:
        """Each item time of an outcome at the reference speed."""
        return [dt * self.factor_at(t) for t, dt in zip(outcome.started, outcome.seconds)]


class Outcome:
    """Results of a sequence of item calls, in call order."""

    def __init__(self):
        self.index: list[int] = []  # pool position of each call
        self.started: list[float] = []
        self.seconds: list[float] = []
        self.outputs: list[object] = []  # output, or the exception raised
        self.elapsed = 0.0  # wall time of the calls, calibration left out

    def record(self, index: int, started: float, seconds: float, output: object) -> None:
        self.index.append(index)
        self.started.append(started)
        self.seconds.append(seconds)
        self.outputs.append(output)

    def extend(self, other: "Outcome") -> None:
        self.index += other.index
        self.started += other.started
        self.seconds += other.seconds
        self.outputs += other.outputs
        self.elapsed += other.elapsed


def closed_loop(items, call, order, speed: Speedometer) -> Outcome:
    """Call `call(item)` on the pool items at positions `order`, one after
    another.  An exception is recorded as the item's output and the loop
    goes on."""
    out = Outcome()
    start = perf_counter()
    calibrating = 0.0
    for idx in order:
        t0 = perf_counter()
        try:
            result = call(items[idx])
        except Exception as exc:  # counted as a failed item, not fatal
            result = exc
        dt = perf_counter() - t0
        out.record(idx, t0, dt, result)
        calibrating += speed.after(dt)
    out.elapsed = perf_counter() - start - calibrating
    return out


def run_passes(items, call, seconds: float, speed: Speedometer) -> Outcome:
    """Whole passes over the pool, as many as come closest to `seconds`
    (at least one), judged from the first pass."""
    pass_order = range(len(items))
    out = closed_loop(items, call, pass_order, speed)
    passes = max(1, round(seconds / out.elapsed))
    for _ in range(passes - 1):
        out.extend(closed_loop(items, call, pass_order, speed))
    return out


def gate(items, outcome: Outcome, workloads) -> tuple[list[str], list[object | None]]:
    """Check every recorded output.  Returns the failure messages and the
    canonical output of each pool item (None where it never ran cleanly).

    An item fails when it raised, when its check fails, or when a repeat of
    a pool item answers differently from its first run.
    """
    failures: list[str] = []
    first: list[object | None] = [None] * len(items)
    for idx, out in zip(outcome.index, outcome.outputs):
        item = items[idx]
        if isinstance(out, Exception):
            failures.append(f"item {idx}: {type(out).__name__}: {out}")
            continue
        problem = workloads.KINDS[item.kind].check(item, out)
        if problem is not None:
            failures.append(f"item {idx}: {problem}")
            continue
        canon = workloads.canonical(item, out)
        if first[idx] is None:
            first[idx] = canon
        elif canon != first[idx]:
            failures.append(f"item {idx}: repeat answered differently")
    return failures, first


def digest(canon: list[object | None]) -> str:
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), ""
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monorank" / "__init__.py").is_file():
        print(f"monorank sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from spans import Tracer, per_layer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    import_s = perf_counter() - t_start

    def run(item):
        return workloads.KINDS[item.kind].run(item)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        items = workload.make_items(args.seed)
        run(workload.warmup_item(args.seed))  # lazy imports and first-call paths
        setup_times.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    speed = Speedometer()
    for _ in range(10):
        speed.sample()
    setup_factor = speed.factor()

    outcome = run_passes(items, run, args.seconds if args.trace == 0 else args.seconds / 2, speed)
    passes = len(outcome.index) // len(items)
    attempted = len(outcome.outputs)
    failures, canon = gate(items, outcome, workloads)
    if args.trace == 1:
        tracer = Tracer()

        def traced(item):
            tracer.begin_item(item.id)
            try:
                return workloads.KINDS[item.kind].traced(item, tracer)
            finally:
                tracer.end_item()

        traced_outcome = closed_loop(items, traced, outcome.index, speed)
        attempted += len(traced_outcome.outputs)
        traced_failures, traced_canon = gate(items, traced_outcome, workloads)
        failures += [f"traced {msg}" for msg in traced_failures]
        failures += [
            f"item {i}: traced assembly differs from the program's result"
            for i, (a, b) in enumerate(zip(canon, traced_canon))
            if a != b
        ]

    gaps = [workloads.bound_gap(it, out)
            for it, out in zip(items, outcome.outputs[: len(items)])
            if not isinstance(out, Exception)]
    gaps = [g for g in gaps if g is not None]
    times = outcome.seconds
    details: dict = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, threads=1",
        "pool_items": len(items),
        "passes": passes,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "bound_gap_mean": statistics.fmean(gaps) if gaps else None,
        "digest": digest(canon),
        "speed_factor": speed.factor(),
        "calibration_samples": len(speed.samples),
        "env": environment(),
    }
    if args.trace == 0:
        scaled = speed.scaled(outcome)
        tail_s, tail_pct = tail(scaled, len(items))
        raw = {
            "items_per_s": len(times) / outcome.elapsed,
            "item_p50_ms": 1000.0 * statistics.median(times),
            "item_tail_ms": 1000.0 * tail(times, len(items))[0],
            "setup_s": setup_s,
        }
        details.update(tail_percentile=tail_pct, tail_samples=len(times),
                       measured_s=outcome.elapsed, import_s=import_s,
                       setup_runs_s=setup_times, raw=raw)
        metrics = {
            "items_per_s": (raw["items_per_s"] * sum(times) / sum(scaled), "1/s"),
            "item_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
            "item_tail_ms": (1000.0 * tail_s, "ms"),
            "setup_s": (setup_s * setup_factor, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        table = per_layer(tracer, passes, speed.factor_at)
        table["trace.overhead_frac"] = (
            sum(speed.scaled(traced_outcome)) / sum(speed.scaled(outcome)) - 1.0
        )
        details.update(spans=len(tracer.spans), raw=per_layer(tracer, passes))
        metrics = {name: (value, _unit(name)) for name, value in table.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace == 1:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("share", "ratio", "yield", "frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
