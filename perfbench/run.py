"""Closed-loop benchmark of the quasigrid library.

    python3 perfbench/run.py --workload generate|chains|analyze \
        --seed N --seconds S --trace 0|1

One client in one process and one thread serves a seeded, fixed round of
requests (see mixes.py) again and again until the requests have taken
--seconds of service time, always finishing the round it is in.  Each
request calls the library in-process.  A request's latency is the upper
quartile of its service times over the run's rounds; the latency
percentiles and the throughput are taken over the requests of the mix at
those latencies, so the host's fast and slow spells, which change the
share of a request's servings that run fast, hardly move them.  Later
rounds must return exactly the first round's results, and once serving
ends (after peak memory is read) the independent checkers in checkers.py
check the first round's results, so checking neither times nor allocates
inside the measurement.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the library is wrapped by tracing.py
between an untraced round before and one after, and the metrics are the
per-layer ones, per round of the mix, plus the tracing overhead: the mean
traced round minus the mean of the two untraced rounds.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("generate", "chains", "analyze")
WALL_LIMIT_S = 150  # stop starting rounds after this much wall time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_library():
    """Import the library from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quasigrid" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'quasigrid'} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(src))


def build_mix(workload, seed):
    import mixes

    if workload == "generate":
        return mixes.generate_mix(seed), None
    if workload == "chains":
        return mixes.chains_mix(seed), None
    patches = mixes.build_patches()
    return mixes.analyze_mix(seed, patches), patches


class Loop:
    """Serves rounds of the mix and keeps latencies, failures and verdicts."""

    def __init__(self, requests):
        self.requests = requests
        self.first = [None] * len(requests)
        self.served = [False] * len(requests)
        self.latencies = [[] for _ in requests]  # service times per request
        self.attempted = 0
        self.failed = 0
        self.failures = []    # tracebacks of requests that raised
        self.mismatches = []  # results the checkers rejected

    def round(self, tracer=None) -> float:
        """One pass over the mix; returns its service time in seconds."""
        busy = 0.0
        for i, req in enumerate(self.requests):
            self.attempted += 1
            run = req.run
            if tracer is not None:
                tracer.request = self.attempted
                run = tracer.wrap_request(run, req.kind)
            start = time.perf_counter()
            try:
                out = run()
            except Exception:  # a failed request is counted, not fatal
                self.failed += 1
                self.failures.append(f"{req.kind}: {traceback.format_exc()}")
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            self.latencies[i].append(elapsed)
            if not self.served[i]:
                self.first[i], self.served[i] = out, True
            elif out != self.first[i]:
                self.mismatches.append(f"{req.kind}: result changed between rounds")
        return busy

    def check_first_round(self) -> None:
        for req, out, served in zip(self.requests, self.first, self.served):
            if not served:
                continue
            try:
                req.check(out)
            except AssertionError as exc:
                self.mismatches.append(f"{req.kind}: {exc}")


def serve(loop, seconds, wall_start, tracer=None):
    """Rounds until the service time reaches `seconds`; returns the
    service time of each round."""
    rounds = []
    while not rounds or (sum(rounds) < seconds
                         and time.perf_counter() - wall_start < WALL_LIMIT_S):
        rounds.append(loop.round(tracer))
    return rounds


def upper_quartile(times):
    # quantiles() extrapolates past the largest of two values
    return statistics.quantiles(times, n=4)[2] if len(times) > 2 else max(times)


def end_to_end(loop, setup_s):
    """Each request of the mix counts once, at the upper quartile of its
    service times; throughput is the round's requests over the sum of
    those latencies, the rate of the one-client closed loop."""
    lat = [upper_quartile(times) for times in loop.latencies if times]
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(lat) / sum(lat), "req/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    requests, patches = build_mix(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    wall_start = time.perf_counter()
    loop = Loop(requests)
    if args.trace:
        import tracing

        before = loop.round()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds = serve(loop, args.seconds, wall_start, tracer)
        finally:
            tracer.uninstall()
        after = loop.round()
        metrics = tracer.layer_metrics(len(rounds))
        traced = statistics.mean(rounds)
        metrics["trace.overhead_s"] = (traced - (before + after) / 2, "s")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        for name, (value, unit) in metrics.items():
            print(f"{name:40s} {value:16.6f} {unit}")
    else:
        serve(loop, args.seconds, wall_start)
        metrics = end_to_end(loop, setup_s)
    if patches is not None:
        import mixes

        try:
            mixes.check_patches(patches)
        except AssertionError as exc:
            loop.mismatches.append(f"analysed patches: {exc}")
    loop.check_first_round()
    for line in loop.failures + loop.mismatches:
        print(line, file=sys.stderr)
    correct = not loop.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
