"""flipdist benchmark: seeded workloads driven through `flipdist.cli.main`.

Run from the root of a checkout:

    python3 bench/run.py --workload pool --seed 1 --seconds 50 --trace 0

One process, one closed-loop client: each request is an in-process call of
`flipdist.cli.main(argv)` on an instance file of the seeded corpus, started
when the previous one returns, and every answer is checked against the
corpus reference.  `--trace 0` reports the end-to-end metrics listed in
BENCHMARK.json, request times in units of a reference kernel timed beside
each request; `--trace 1` runs each request untraced and traced and
reports the per-layer metrics (see bench/README.md).

The second-to-last line of stdout is a full report (environment, corpus
digest and strata, tail percentile, error rate, wall times, units and
directions); the last line is the result:
{"correct", "attempted", "failed", "metrics"}.
Exits 0 when every answer is right, 1 when one is wrong, 2 on bad usage
or a missing checkout, 3 when setup cannot build the corpus.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
REFERENCE_SPAN = 2  # kernel times on each side of a request that set its divisor


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="flipdist benchmark")
    p.add_argument("--workload", required=True, help="pool, tight, gap or large")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def call(main, argv: list[str], tracer=None) -> tuple[float, object, str]:
    """One request: (seconds, exit code or exception text, stdout).  With a
    tracer, the request is wrapped in its root span."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        started = perf_counter()
        try:
            if tracer is None:
                rc = main(argv)
            else:
                with tracer.span(tracer.ROOT):
                    rc = main(argv)
        except (Exception, SystemExit) as exc:  # a crashed request is a wrong answer
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - started
    return elapsed, rc, out.getvalue()


def reference_kernel() -> int:
    """Fixed interpreter work that owes nothing to flipdist, about 0.15-0.4 ms
    on a 2 vCPU Xeon guest.  Its time, taken right before every request,
    says how fast the host runs Python at that moment.  Two parts: tuple
    building with dict lookups and stores, which a busy host slows more than
    it slows flipdist's requests, and integer arithmetic, which it slows
    less.  With about a third of the time in the second part, the kernel's
    time moved in step with the requests' (slope 1.0 in log-log over 5 s
    windows of a five-minute `pool` run; 0.86 for the first part alone)."""
    seen: dict = {}
    for i in range(400):
        key = (i, i * 7 % 13, (i, i + 1))
        seen[key] = seen.get(key[1], 0) + len(key)
    acc = 0
    for i in range(800):
        acc = (acc * 31 + i) & 0xFFFF
    return len(seen) + acc


def run_requests(main, corpus, paths: list[str], seconds: float):
    """Closed loop in passes over corpus.requests until `seconds` have
    passed.  Pass p starts at request p * (m // 2) mod m, so repetitions of
    one request lie at least m // 2 requests apart.  The reference kernel
    runs right before every request.  Returns
    ([(request, index, seconds, rc, stdout)], [kernel seconds], wall seconds)."""
    m = len(corpus.requests)
    results, kernel = [], []
    started = perf_counter()
    while not results or perf_counter() - started < seconds:
        k = len(results)
        i = (k + (k // m) * (m // 2)) % m
        req = corpus.requests[i]
        t0 = perf_counter()
        reference_kernel()
        kernel.append(perf_counter() - t0)
        results.append((req, i, *call(main, req.argv(paths))))
    return results, kernel, perf_counter() - started


def settle() -> None:
    """Collect what setup left behind and freeze the survivors (the corpus),
    so that collections during the timed loop scan only what requests
    allocate, whatever the corpus size."""
    gc.collect()
    gc.freeze()


def per_request(results, costs: list[float]) -> dict[int, float]:
    """Each request's median cost over its repetitions, by request index."""
    reps: dict[int, list[float]] = {}
    for (_, i, *_), cost in zip(results, costs):
        reps.setdefault(i, []).append(cost)
    return {i: statistics.median(xs) for i, xs in reps.items()}


def in_reference_units(results, kernel: list[float]) -> list[float]:
    """Each repetition's time divided by the median of the kernel times
    taken around it (REFERENCE_SPAN before and after), so that a slower
    spell of the host slows the divisor as much as the request."""
    h = REFERENCE_SPAN
    return [
        seconds / statistics.median(kernel[max(0, j - h) : j + h + 1])
        for j, (_, _, seconds, _, _) in enumerate(results)
    ]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples above its nearest-rank position."""
    xs = sorted(latencies)
    for p in TAIL_LADDER:
        rank = max(math.ceil(len(xs) * p / 100), 1)
        if len(xs) - rank >= TAIL_MIN_BEYOND or p == TAIL_LADDER[-1]:
            return p, xs[rank - 1]
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "flipdist" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no flipdist sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from flipdist import cli

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            corpus, values, extra, results = traced_run(args, cli.main, workloads, tracing, workdir)
        else:
            corpus, values, extra, results = untraced_run(args, cli.main, workloads, workdir)
    except workloads.StratumError as exc:
        print(f"bench: setup failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [
        reason
        for req, _, _, rc, out in results
        if (reason := workloads.check(req, corpus.pairs[req.pair], rc, out)) is not None
    ]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "corpus": {
            "digest": corpus.digest,
            "pairs": len(corpus.pairs),
            "requests": len(corpus.requests),
            "strata": corpus.strata(),
        },
        "attempted": len(results),
        "failed": len(errors),
        "error_rate": len(errors) / len(results),
        "errors": errors[:5],
        **extra,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"], "better": m["better"]}
            for m in wanted
        },
    }
    result = {
        "correct": not errors,
        "attempted": len(results),
        "failed": len(errors),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if not errors else 1


def untraced_run(args, main, workloads, workdir):
    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        corpus = None  # one corpus alive at a time, so peak_rss_mb counts one
        started = perf_counter()
        corpus = workloads.build_corpus(args.workload, args.seed)
        paths = corpus.write(workdir)
        setup_times.append(perf_counter() - started)
        digests.add(corpus.digest)
    if len(digests) != 1:
        raise RuntimeError(f"corpus differs between setups of one seed: {sorted(digests)}")
    settle()
    results, kernel, wall = run_requests(main, corpus, paths, seconds=args.seconds)
    cost = per_request(results, in_reference_units(results, kernel))
    wall_ms = per_request(results, [1000 * seconds for _, _, seconds, _, _ in results])
    counts = Counter(i for _, i, _, _, _ in results).values()
    costs = list(cost.values())
    percentile, tail_cost = tail(costs)
    values = {
        "setup_s": statistics.median(setup_times),
        "pairs_per_kref": 1000 * len(costs) / sum(costs),
        "request_ref.p50": statistics.median(costs),
        "request_ref.tail": tail_cost,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "setup_s_runs": setup_times,
        "tail": {"percentile": percentile, "samples": len(costs)},
        "repetitions": {"min": min(counts), "max": max(counts)},
        "reference_kernel_ms": {
            "min": 1000 * min(kernel),
            "median": 1000 * statistics.median(kernel),
            "max": 1000 * max(kernel),
        },
        "wall": {
            "pairs_per_s": 1000 * len(wall_ms) / sum(wall_ms.values()),
            "request_ms.p50": statistics.median(wall_ms.values()),
            "request_ms.tail": tail(list(wall_ms.values()))[1],
            "completed_per_s": len(results) / wall,
        },
    }
    return corpus, values, extra, results


def traced_run(args, main, workloads, tracing, workdir):
    """Setup once with generation traced; then each request untraced and
    traced back to back (alternating which goes first, so drift in machine
    speed cancels) until `seconds` have passed; then microbenchmarks."""
    tracer = tracing.Tracer()
    with tracing.Patches(tracer, tracing.SETUP_TARGETS).applied(), tracer.span("setup"):
        corpus = workloads.build_corpus(args.workload, args.seed)
        paths = corpus.write(workdir)
    patches = tracing.Patches(tracer, tracing.REQUEST_TARGETS)
    settle()
    plain, traced = [], []
    started = perf_counter()
    while not traced or perf_counter() - started < args.seconds:
        k = len(traced)
        i = k % len(corpus.requests)
        req = corpus.requests[i]
        argv = req.argv(paths)
        for traced_now in (k % 2 == 1, k % 2 == 0):
            if traced_now:
                tracer.request = k
                with patches.applied():
                    traced.append((req, i, *call(main, argv, tracer)))
            else:
                plain.append((req, i, *call(main, argv)))
    changed = [corpus.pairs[req.pair].changed for req, *_ in traced]
    values = tracing.layer_metrics(tracer.spans, changed, setups=1)
    plain_s = sum(seconds for _, _, seconds, _, _ in plain)
    traced_s = sum(seconds for _, _, seconds, _, _ in traced)
    values["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    starts = list({id(p.start): p.start for p in corpus.pairs}.values())[:24]
    values.update(tracing.microbench(starts))

    span_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracing.write_spans(span_file, tracer.spans)
    extra = {
        "traced_requests": len(traced),
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "accounting": {
            "trace.request_ms": values["trace.request_ms"],
            "sum_of_layers_ms": sum(values[k] for k in tracing.ACCOUNTING),
        },
        "request_s": {"untraced": plain_s, "traced": traced_s},
    }
    return corpus, values, extra, plain + traced


if __name__ == "__main__":
    sys.exit(main())
