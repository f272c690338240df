"""resonance-lab benchmark: four seeded closed-loop workloads in one process.

Run from the repository root:

    python3 perfbench/run.py --workload averaging --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, items_per_s,
item_p50_ms, item_tail_ms, peak_rss_mb, plus fail_ratio in the table) and
``--trace 1`` the per-layer metrics of a separate traced run.  Every item is
checked against the battery's own reference; an exception or a failed check
counts as a failed item.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The library is
imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 before measuring anything.

Times are scaled to a reference machine speed.  On a shared machine the
speed of one core changes by up to 2x within seconds, for every kind of work
alike.  While a run measures, a SIGALRM handler times a short pure-Python
reference kernel every CAL_EVERY seconds, also in the middle of an item, and
the reference clock advances at REF_KERNEL_NS over the kernel's latest time;
it stands still while the kernel runs.  The table also prints the unscaled
throughput and the median speed factor.

BLAS pools are pinned to one thread before numpy loads, so the 4x4
``np.linalg.solve`` calls of the chart layer never start pool threads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402

REF_KERNEL_NS = 150_000.0   # reference kernel time that defines the unit machine speed
CAL_EVERY = 0.03            # seconds between speed samples


def _reference_kernel() -> float:
    # scalar float work and small-tuple churn, like the library's inner loops
    acc = 0.0
    for k in range(150):
        e = 0.1 + 0.004 * k
        E = 1.0 + e
        for _ in range(4):
            E -= (E - e * math.sin(E) - 1.0) / (1.0 - e * math.cos(E))
        t = (E, e, math.sqrt(1.0 - e * e))
        acc += t[0] * t[2]
    return acc


def kernel_ns(reps: int = 2) -> float:
    """Best-of-``reps`` time of the reference kernel: the machine's current speed."""
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        _reference_kernel()
        best = min(best, time.perf_counter_ns() - t0)
    return best


class ReferenceClock:
    """Converts wall-clock times to seconds at the reference machine speed.

    Between ``start`` and ``stop`` a SIGALRM handler times the reference
    kernel every CAL_EVERY seconds, also in the middle of an item.  The speed
    factor REF_KERNEL_NS / kernel time is interpolated linearly between
    samples, and the time the kernel itself runs counts as zero.  With no
    samples, reference time is wall time.
    """

    def __init__(self):
        self.begin: list[float] = []   # wall time at which each kernel sample started
        self.end: list[float] = []     # ... and ended
        self.factor: list[float] = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        factor = REF_KERNEL_NS / kernel_ns()
        self.begin.append(t0)
        self.end.append(time.perf_counter())
        self.factor.append(factor)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY, CAL_EVERY)

    def stop(self) -> None:
        if signal.getsignal(signal.SIGALRM) != self._sample:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def reference(self, wall):
        """Reference seconds elapsed from the end of the first sample to each wall time."""
        import numpy as np

        t = np.asarray(wall, dtype=float)
        if not self.end:
            return t
        b, e, f = (np.asarray(x) for x in (self.begin, self.end, self.factor))
        # segment j runs from e[j] to b[j+1]; its factor goes linearly from f[j] to f[j+1]
        length = b[1:] - e[:-1]
        cum = np.concatenate([[0.0], np.cumsum(length * 0.5 * (f[:-1] + f[1:]))])
        n = len(e)
        j = np.clip(np.searchsorted(e, t, side="right") - 1, 0, n - 1)
        seg = np.append(length, np.inf)[j]
        x = np.minimum(t - e[j], seg)   # time into the segment; a kernel run adds nothing
        slope = np.where(x > 0, (f[np.minimum(j + 1, n - 1)] - f[j]) / seg, 0.0)
        return cum[j] + x * f[j] + 0.5 * slope * x * x


CLOCK = ReferenceClock()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"          # scratch outputs and span files, git-ignored
NAMES = ("averaging", "sweep", "trajectory", "cli")
# highest percentile with at least ten items beyond it at 20 s per run, as far
# as the run lengths allow; BENCH_0.json records the shortfalls of trajectory
# and cli, and why cli's percentile stays inside one config's group
TAIL_PCT = {"averaging": 98, "sweep": 99, "trajectory": 55, "cli": 85}
SETUP_PROBES = 4          # fresh processes besides this one; setup_s is the median
TRACED_SHARE = 2.0 / 3.0  # of --seconds; the rest re-runs the traced items untraced


def load_workloads():
    """Import the library from ROOT/src and the workload module; exit 2 if absent."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import resonance_lab
    except ImportError as exc:
        print(f"perfbench: cannot import resonance_lab from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(resonance_lab.__file__).resolve().parent.parent != src:
        print(f"perfbench: resonance_lab resolved outside {src}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


def run_phase(wl, seconds: float, tracer=None, max_items: int | None = None) -> dict:
    """Closed loop: the next item starts when the previous one returns.

    Stops at the first item boundary after ``seconds`` of wall time (at a
    round boundary for workloads that cycle through a fixed round of items)
    or after ``max_items``.  An item's span covers its library work only;
    input generation and checks run between items.  Times are wall times;
    ``in_reference`` converts them.
    """
    step = getattr(wl, "round_size", 1)
    starts, ends, failures = [], [], []
    w_start = time.perf_counter()
    deadline = w_start + seconds
    i = 0
    while True:
        inp = wl.make(i)
        if tracer:
            tracer.set_item(i)
        starts.append(time.perf_counter())
        try:
            out = wl.run(inp)
            error = None
        except Exception as exc:  # a failing item is a measured outcome, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        ends.append(time.perf_counter())
        if tracer:
            if error is None and hasattr(wl, "bytes_written"):
                tracer.add_count("cli.bytes_written", wl.bytes_written(out))
            tracer.set_item(-1)
        bad = [error] if error else wl.check(inp, out)
        if bad:
            failures.append((i, bad))
        i += 1
        if i % step == 0 and (time.perf_counter() >= deadline or (max_items and i >= max_items)):
            break
    return {"starts": starts, "ends": ends, "failures": failures,
            "w_start": w_start, "w_end": time.perf_counter()}


def in_reference(phase: dict) -> dict:
    """Item latencies and phase length in reference seconds; per-item reference/wall."""
    starts, ends = CLOCK.reference(phase["starts"]), CLOCK.reference(phase["ends"])
    t_start, t_end = CLOCK.reference([phase["w_start"], phase["w_end"]])
    walls = [b - a for a, b in zip(phase["starts"], phase["ends"])]
    latencies = (ends - starts).tolist()
    return {"latencies": latencies, "scale": [r / w for r, w in zip(latencies, walls)],
            "elapsed": float(t_end - t_start), "wall": phase["w_end"] - phase["w_start"]}


def warm_up(wl) -> None:
    """Item 0, untimed, so that first-call work lands in set-up."""
    out = wl.run(wl.make(0))
    wl.check(wl.make(0), out)


def setup_probe(name: str, seed: int) -> float:
    """Import, input generation and warm-up in a fresh process; its scaled seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(name: str, wl, seed: int, seconds: float, ready: float) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics, then the extra set-up samples.

    ``ready`` is the wall time at which this process finished its set-up.
    """
    import numpy as np

    phase = run_phase(wl, seconds)
    CLOCK.stop()
    setup_s = float(CLOCK.reference([ready])[0])
    phase = {**phase, **in_reference(phase)}
    samples = [setup_s] + [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    lat_ms = [x * 1e3 for x in phase["latencies"]]
    n = len(lat_ms)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "items_per_s": (n / phase["elapsed"], "items/s"),
        "item_p50_ms": (statistics.median(lat_ms), "ms"),
        "item_tail_ms": (float(np.percentile(lat_ms, TAIL_PCT[name])), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = n - math.ceil(n * TAIL_PCT[name] / 100)
    info = {"attempted": n, "failed": len(phase["failures"]), "failures": phase["failures"],
            "note": [f"{n} items in {phase['wall']:.2f} s wall, {n / phase['wall']:.4g} items/s unscaled, "
                     f"median speed factor {statistics.median(phase['scale']):.3f}",
                     f"item_tail_ms is p{TAIL_PCT[name]}, items beyond it: {beyond}; "
                     f"setup samples {', '.join(f'{s:.3f}' for s in samples)} s"]}
    return metrics, info


def traced(name: str, wl, seconds: float) -> tuple[dict, dict]:
    """The traced run: per-layer metrics, and the overhead over an untraced re-run."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        w0 = time.perf_counter()
        span_ns = tracer.calibrate()
        w1 = time.perf_counter()
        traced_phase = run_phase(wl, seconds * TRACED_SHARE, tracer=tracer)
    finally:
        tracer.uninstall()
    n = len(traced_phase["starts"])
    plain = run_phase(wl, seconds * (1.0 - TRACED_SHARE), max_items=n)
    CLOCK.stop()
    r0, r1 = CLOCK.reference([w0, w1])
    span_ns *= (r1 - r0) / (w1 - w0)
    tracer.overhead_ns = span_ns
    traced_phase = {**traced_phase, **in_reference(traced_phase)}
    plain = {**plain, **in_reference(plain)}
    m = len(plain["latencies"])
    overhead = sum(traced_phase["latencies"][:m]) / sum(plain["latencies"][:m])
    summary = tracer.summary(traced_phase["scale"])
    STATE.mkdir(exist_ok=True)
    span_file = STATE / f"spans-{name}.npz"
    tracer.save(span_file)
    metrics = {key: (value, unit_of(key)) for key, value in spans.layer_metrics(summary, n).items()}
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.span_overhead_us"] = (span_ns / 1e3, "us")
    failures = traced_phase["failures"] + plain["failures"]
    info = {"attempted": n + m, "failed": len(failures), "failures": failures,
            "note": [f"{n} traced items, {summary['spans']} spans written to "
                     f"{span_file.relative_to(ROOT)}; overhead over {m} re-run items, "
                     f"median speed factor {statistics.median(traced_phase['scale']):.3f}"]}
    return metrics, info


def unit_of(key: str) -> str:
    if key.endswith(".us_per_call") or key.endswith(".us_per_nfev"):
        return "us"
    if key.endswith(".ms_per_call"):
        return "ms"
    if key.endswith(".self_s"):
        return "s"
    if key.endswith("_ratio") or key.endswith("_share"):
        return "ratio"
    if key == "cli.bytes_written":
        return "bytes/item"
    return "count/item"


def run_one(args) -> int:
    workloads = load_workloads()
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm_up(wl)
        ready = time.perf_counter()
        if args.setup_probe:
            CLOCK.stop()
            print(repr(float(CLOCK.reference([ready])[0])))
            return 0
        if args.trace:
            metrics, info = traced(args.workload, wl, args.seconds)
        else:
            metrics, info = end_to_end(args.workload, wl, args.seed, args.seconds, ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, bad in info["failures"][:5]:
        print(f"perfbench: {args.workload} item {i} failed: {'; '.join(bad)}", file=sys.stderr)
    attempted, failed = info["attempted"], info["failed"]
    print(f"workload {args.workload}, seed {args.seed}")
    for line in info["note"]:
        print(f"  {line}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<46} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<46} {failed / attempted:>14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    CLOCK.start()
    try:
        return run_one(args)
    finally:
        CLOCK.stop()


if __name__ == "__main__":
    sys.exit(main())
