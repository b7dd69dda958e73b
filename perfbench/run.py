"""Benchmark of the gpcn pipeline: simulate, train and coarsen workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {simulate,train,coarsen} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run times the workload's set-up several times, then
repeats rounds of the workload's operations (at least two, and as many more
as fit in ``--seconds``) and reports the end-to-end metrics of BENCHMARK.json.
Between set-ups and between operations it times a fixed kernel, and the
set-up time and leg throughputs it reports are corrected by the host factors
of set-up and rounds (see hostspeed.py).
With ``--trace 1`` it repeats the set-up with the layer boundaries patched
(see spans.py), runs one untraced round, then blocks of untraced, traced,
traced and untraced rounds for ``--seconds`` (at least one block), and
reports the per-layer metrics. Both modes check the program's outputs;
every round must reproduce the first bit for bit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller report (the
environment block, every named metric, the checks) goes to
``.perfbench_out/`` in the checkout, with the spans of a traced run.

BLAS runs on one thread: the thread variables are set before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_ROUNDS = 2
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("simulate", "train", "coarsen"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


class Tally:
    """Operations attempted and failed, output checks, and errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.errors = []

    def check(self, name, ok):
        self.attempted += 1
        self.failed += not ok
        self.checks.append((name, bool(ok)))


def run_round(wl, state, tr, index, tally, times, check, clock=None):
    """One pass over the workload's operations; returns (digests, op seconds).
    With a host clock, its kernel is timed before every operation."""
    digests, busy = [], 0.0
    for part, fn in wl.ops(state, tr, check):
        if clock is not None:
            clock.before(part)
        t0 = time.perf_counter()
        try:
            out = tr.op(part, index, fn)
        except Exception:  # the run goes on; the operation counts as failed
            tally.attempted += 1
            tally.failed += 1
            tally.errors.append(f"{part}: {traceback.format_exc()}")
            digests.append("error")
            continue
        dt = time.perf_counter() - t0
        if clock is not None:
            clock.after(part, dt)
        times.setdefault(part, []).append(dt)
        busy += dt
        digest, attempted, failed = wl.summarize(part, out)
        tally.attempted += attempted
        tally.failed += failed
        digests.append(digest)
        if check:
            for name, ok in wl.check(state, part, out):
                tally.check(name, ok)
    return digests, busy


def run_rounds(wl, state, tr, tally, times, seconds, clock):
    """Rounds until ``seconds`` would be exceeded, and at least MIN_ROUNDS.
    The first round runs the output checks. Returns per-round digests."""
    digests, walls = [], []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or (
        time.perf_counter() - start + statistics.mean(walls) <= seconds
    ):
        t0 = time.perf_counter()
        d, _ = run_round(wl, state, tr, len(walls), tally, times, not walls, clock)
        walls.append(time.perf_counter() - t0)
        digests.append(d)
    return digests


@contextlib.contextmanager
def tracing(tracer):
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def leg_metrics(wl, state, times):
    """Named per-part throughputs and the two leg values.

    A part's throughput is its work over its time, summed over the run's
    operations of that part; a leg is the geometric mean of its parts, so
    every model of the train legs weighs the same.
    """
    named, logs = {}, {"leg1": [], "leg2": []}
    for part, leg in wl.legs.items():
        ts = times.get(part)
        rate = wl.work(part, state) * len(ts) / sum(ts) if ts else 0.0
        named[part + wl.suffix] = rate
        logs[leg].append(math.log(rate) if rate > 0 else -math.inf)
    legs = {
        f"{leg}.work_per_s": math.exp(sum(v) / len(v)) if v else 0.0 for leg, v in logs.items()
    }
    return named, legs


def environment(caller_threads, load_start):
    import ctypes

    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    caches = {}
    try:  # glibc sysconf codes for _SC_LEVEL2/3_CACHE_SIZE
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        caches = {"l2_bytes": libc.sysconf(191), "l3_bytes": libc.sysconf(194)}
    except (OSError, AttributeError):
        pass
    threads = {v: os.environ.get(v) for v in THREAD_VARS}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": threads,
        "threads_from_caller": caller_threads,
        "threads_pinned": all(v == "1" for v in threads.values()),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **caches,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def main(argv=None):
    args = parse_args(argv)
    caller_threads = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ[v] = "1"
    load_start = list(os.getloadavg())
    if not (ROOT / "src" / "gpcn" / "__init__.py").is_file():
        print(f"error: no gpcn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    import_s = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    tally = Tally()
    wl = workloads.WORKLOADS[args.workload]()
    try:
        if args.trace:
            report = measure_traced(args, wl, str(scratch), tally, spans, workloads.WORKLOADS)
        else:
            report = measure(args, wl, str(scratch), tally, spans.NullTracer(), import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["env"] = environment(caller_threads, load_start)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    metrics = report.pop("metrics")
    if set(metrics) != set(units):
        print(f"error: metrics differ from BENCHMARK.json {kind}: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 3
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }
    failed_frac = tally.failed / max(1, tally.attempted)
    report.update(
        failed_frac=failed_frac, checks=tally.checks, errors=tally.errors, result=result
    )
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in report:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(report.pop("spans"), fh)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={report['rounds']} env={json.dumps(report['env'])}")
    if not report["env"]["threads_pinned"]:
        print("warning: BLAS thread variables are not pinned to 1")
    for name, (value, unit) in sorted(report["named"].items()):
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {failed_frac:.6g} ({tally.failed} of {tally.attempted} attempted)")
    for name, ok in tally.checks:
        if not ok:
            print(f"  CHECK FAILED: {name}")
    for err in tally.errors:
        print(f"  ERROR: {err}")
    print(json.dumps(result))
    return 0


def measure(args, wl, scratch, tally, null, import_s):
    """Untraced run: set-up repeated, then rounds for ``--seconds``. The host
    clock's kernel is timed after the imports, between the set-ups and
    between the operations, for the host factors of set-up and rounds."""
    import hostspeed

    clock = hostspeed.HostClock(wl.kernel)
    setups, digests = [], set()
    for _ in range(SETUP_REPEATS):
        clock.sample()
        t0 = time.perf_counter()
        state = wl.setup(args.seed, scratch)
        setups.append(time.perf_counter() - t0)
        digests.add(wl.setup_digest(state))
    clock.sample()
    tally.check("set-up is deterministic", len(digests) == 1)
    n_setup = len(clock.samples)
    times = {}
    rounds = run_rounds(wl, state, null, tally, times, args.seconds, clock)
    tally.check("every round is bit-identical to the first", all(r == rounds[0] for r in rounds))
    named, legs = leg_metrics(wl, state, times)
    setup_factor, factor = clock.factor(0, n_setup), clock.factor(n_setup)
    setup_s = import_s + statistics.median(setups)
    metrics = {"setup_s": setup_s / setup_factor, **{k: v * factor for k, v in legs.items()}}
    named = {k: (v, wl.unit) for k, v in named.items()}
    named["setup_s.measured"] = (setup_s, "s")
    named.update({k + ".measured": (v, "1/s") for k, v in legs.items()})
    named.update({k: (v, "s" if k == "setup_s" else "1/s") for k, v in metrics.items()})
    named["host_factor.setup"] = (setup_factor, "ratio")
    named["host_factor"] = (factor, "ratio")
    return {"rounds": len(rounds), "named": named, "metrics": metrics, "op_seconds": times,
            "import_s": import_s, "setup_repeats_s": setups, "kernel_s": clock.samples,
            "kernel_setup_samples": n_setup}


def measure_traced(args, wl, scratch, tally, spans, all_workloads):
    """Traced run: per-layer metrics from the spans of traced rounds, which
    must reproduce the untraced rounds bit for bit."""
    null = spans.NullTracer()
    state = wl.setup(args.seed, scratch)
    tracer = spans.Tracer()
    with tracing(tracer):
        traced_state = tracer.op("setup", -1, wl.setup, args.seed, scratch)
    tally.check("traced set-up is bit-identical to untraced",
                wl.setup_digest(traced_state) == wl.setup_digest(state))
    # a first untraced round runs the checks and warms up; then blocks of
    # untraced, traced, traced, untraced rounds, so that a slow drift of the
    # machine cancels out of the overhead
    times = {}
    start = time.perf_counter()
    plain = [run_round(wl, state, null, 0, tally, times, True)[0]]
    plain_busy, traced, traced_busy = [], [], []
    block_s = 0.0
    while not traced or time.perf_counter() - start + block_s <= args.seconds:
        t0 = time.perf_counter()
        for is_traced in (False, True, True, False):
            if is_traced:
                with tracing(tracer):
                    d, b = run_round(wl, traced_state, tracer, len(traced), tally, {}, False)
                traced.append(d)
                traced_busy.append(b)
            else:
                d, b = run_round(wl, state, null, len(plain), tally, times, False)
                plain.append(d)
                plain_busy.append(b)
        block_s = time.perf_counter() - t0
    tally.check("traced rounds are bit-identical to untraced",
                all(r == plain[0] for r in plain + traced))

    ledgers = {p: wl.ledger(state, p) for p in wl.legs if p.startswith("train.")}
    layer, count_checks = spans.layer_metrics(tracer, ledgers)
    for name, ok in count_checks:
        tally.check(name, ok)
    for other in all_workloads.values():  # parts this workload does not run read 0
        layer.update({p + other.suffix: 0.0 for p in other.legs})
    named, _ = leg_metrics(wl, state, times)
    layer.update(named)
    layer["trace.overhead_frac"] = statistics.median(traced_busy) / statistics.median(plain_busy) - 1
    layer["failed_frac"] = tally.failed / max(1, tally.attempted)
    return {"rounds": [len(plain), len(traced)], "named": {k: (v, wl.unit) for k, v in named.items()},
            "metrics": layer, "op_seconds": times, "spans": tracer.dump()}


if __name__ == "__main__":
    sys.exit(main())
