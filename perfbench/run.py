"""Benchmark for coapprox: time to an exact verdict on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

With --workload, one workload runs in this process: set-up, then a closed
loop of seeded questions for S seconds of timed work, each verdict checked
outside its timed interval.  The last stdout line is one JSON object with
"correct", "attempted", "failed" and "metrics" (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  The exit code is 1 on any
wrong verdict.  Without --workload, every workload runs in its own process
and a table of every metric, by name and unit, is printed.

Times are scaled to a reference machine speed (see speed.py); the raw wall
times are printed next to them.  Run it from the repository root; the
library is imported from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("point_queries", "classify_generic", "classify_fast", "cli_requests")
SETUP_SAMPLES = 5  # set-up is timed in fresh processes; the median is reported
# The verdict digest and the peak memory cover the first questions of a run:
# a fixed amount of work, so a faster program does not read as a bigger one.
DIGEST_PREFIX = 100
MIN_QUESTIONS = 150  # a p90 needs ten samples beyond it; this gives fifteen


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _digest(verdicts: list[str]) -> str:
    return hashlib.sha256("\n".join(verdicts[:DIGEST_PREFIX]).encode()).hexdigest()[:16]


def _setup_seconds(workload: str, seed: int, probe) -> float:
    """Median scaled wall time, from process start to ready, of fresh set-up processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        k = probe.sample()
        start = time.perf_counter()
        # no timeout: Popen.wait polls in 50 ms steps when given one
        subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                        "--seed", str(seed), "--setup-only"], check=True, cwd=ROOT)
        elapsed = time.perf_counter() - start
        probe.sample()
        samples.append(elapsed * probe.scale(k))
    return statistics.median(samples)


def _peak_kb(wl) -> int:
    if wl.name == "cli_requests":
        # the user-facing memory is the CLI process's, not this benchmark process's
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Loop:
    """The closed loop: ask, time, record, check, until the time is spent."""

    def __init__(self, wl, probe, tracer=None, keep=False):
        self.wl = wl
        self.probe = probe
        self.tracer = tracer
        self.keep = keep  # keep every question and verdict, for a replay
        self.asked: list = []
        self.raw: list[float] = []
        self.probes: list[int] = []
        self.verdicts: list[str] = []
        self.strata: list[str] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.peak_kb = 0

    def one(self, index: int, q, check: bool = True) -> None:
        wl, tracer = self.wl, self.tracer
        self.probes.append(self.probe.tick())
        if tracer:
            tracer.question_id = index
        start = time.perf_counter()
        try:
            answer, error = wl.ask(q), None
        except Exception as exc:  # a failed question, counted and reported
            answer, error = None, exc
        self.raw.append(time.perf_counter() - start)
        if self.keep:
            self.asked.append(q)
        self.strata.append(wl.stratum(q))
        if tracer:
            tracer.paused = True
        if error is not None:
            self.failed += 1
            verdict = f"error {type(error).__name__}"
        else:
            verdict = wl.verdict(q, answer)
            self.failed += "undecided" in verdict
            if check:
                try:
                    problem = wl.check(q, answer)
                except Exception as exc:
                    problem = f"check raised {exc!r}"
                if problem:
                    self.wrong.append(f"question {index} ({self.strata[-1]}): {problem}")
        if self.keep or len(self.verdicts) < DIGEST_PREFIX:
            self.verdicts.append(verdict)
        if len(self.raw) <= DIGEST_PREFIX:
            self.peak_kb = _peak_kb(wl)
        if tracer:
            tracer.paused = False

    def run_for(self, seconds: float, at_least: int = 1) -> None:
        """Ask until ``seconds`` of timed work are spent, at least ``at_least``
        questions were asked and a mix cycle is complete.

        Ending on a cycle boundary gives every run the same mix of question
        kinds, however many cycles the machine's speed allowed.
        """
        spent = 0.0
        for index, q in enumerate(self.wl.questions):
            self.one(index, q)
            spent += self.raw[-1]
            if spent >= seconds and index + 1 >= at_least and (index + 1) % self.wl.cycle == 0:
                break
        self.probe.sample()

    def replay(self, questions: list) -> None:
        for index, q in enumerate(questions):
            self.one(index, q, check=False)
        self.probe.sample()

    @property
    def scales(self) -> list[float]:
        return [self.probe.scale(k) for k in self.probes]

    @property
    def latency(self) -> list[float]:
        """Per-question seconds at the reference speed."""
        return [t * s for t, s in zip(self.raw, self.scales)]


def _end_to_end(loop: Loop, setup_s: float) -> dict:
    lat = loop.latency
    return {
        "questions_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "verdict_p50_ms": {"value": _percentile(lat, 50) * 1e3, "unit": "ms"},
        "verdict_p90_ms": {"value": _percentile(lat, 90) * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": loop.peak_kb / 1024, "unit": "MB"},
    }


def _report(name: str, loop: Loop) -> None:
    """Human-readable lines: sample counts, tails, failures, per-stratum medians."""
    lat, raw = loop.latency, loop.raw
    n = len(lat)
    print(f"{name}: {n} questions, closed loop, 1 client, {sum(raw):.3f} s timed wall")
    print(f"  latency samples={n} p50={_percentile(lat, 50) * 1e3:.3f} ms "
          f"p90={_percentile(lat, 90) * 1e3:.3f} ms at reference speed; raw wall "
          f"p50={_percentile(raw, 50) * 1e3:.3f} ms p90={_percentile(raw, 90) * 1e3:.3f} ms; "
          f"speed scale median={statistics.median(loop.scales):.3f}")
    if n >= 1000:
        print(f"  verdict_p99_ms={_percentile(lat, 99) * 1e3:.3f} ms (samples={n})")
    print(f"  failed_share={loop.failed / n:.6f} ({loop.failed}/{n})")
    print(f"  verdict digest (first {min(n, DIGEST_PREFIX)} questions): {_digest(loop.verdicts)}")
    rows: dict[str, list[float]] = {}
    for stratum, t in zip(loop.strata, lat):
        rows.setdefault(stratum, []).append(t)
    for stratum in sorted(rows):
        t = rows[stratum]
        print(f"  {stratum:<16} count={len(t):<6} p50={statistics.median(t) * 1e3:.3f} ms")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from speed import Probe
    from tracer import Tracer

    wl = workloads.WORKLOADS[name]()
    wl.trace = trace
    probe = Probe()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    wl.setup(seed)
    loop = Loop(wl, probe, tracer, keep=trace)
    if trace:
        loop.run_for(seconds / 2)
    else:
        loop.run_for(seconds, at_least=MIN_QUESTIONS)
    _report(name, loop)

    if not trace:
        metrics = _end_to_end(loop, _setup_seconds(name, seed, probe))
    else:
        tracer.restore()
        wl.trace = False
        wl.reset()
        plain = Loop(wl, probe, keep=True)
        plain.replay(loop.asked)
        if plain.verdicts != loop.verdicts:
            loop.wrong.append("traced and untraced runs gave different verdicts")
        metrics = _per_layer(name, seed, loop, plain, tracer, wl)

    for problem in loop.wrong[:20]:
        print(f"  WRONG {problem}")
    print(json.dumps({"correct": not loop.wrong, "attempted": len(loop.raw),
                      "failed": loop.failed, "metrics": metrics}))
    return 1 if loop.wrong else 0


def _per_layer(name, seed, traced: Loop, plain: Loop, tracer, wl) -> dict:
    from tracer import FUNCTIONS

    k = len(traced.raw)
    scales = traced.scales
    overhead = 0.0
    if name == "cli_requests":
        for index, path in sorted(wl.child_spans.items()):
            if index >= 0:
                tracer.merge(path, index)
            path.unlink()
        mains = tracer.main_spans_s()
        overhead = sum((traced.raw[i] - mains[i]) * scales[i] for i in mains)
    raw = tracer.layer_metrics(k, scales)
    raw["cli.process_overhead_s"] = overhead / k
    busy, plain_busy = sum(traced.latency), sum(plain.latency)
    raw["trace.overhead_share"] = busy / plain_busy - 1
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.tsv")

    print(f"  traced {k} questions in {busy:.3f} s, replayed untraced in {plain_busy:.3f} s "
          f"(reference speed)")
    shares = sorted(((raw[f"{f}.self_s"] * k / busy, f) for f in FUNCTIONS), reverse=True)
    for share, fn in shares[:12]:
        if share > 0:
            print(f"  self-time share {fn:<48} {share:7.2%}")
    setup = tracer.layer_metrics(1, None, timed=False)
    top = [(s, f) for s, f in sorted(((setup[f"{f}.self_s"], f) for f in FUNCTIONS), reverse=True)[:5] if s > 0]
    if top:
        print("  set-up self time (raw): " + ", ".join(f"{f} {s:.3f} s" for s, f in top))

    units = _layer_units()
    return {key: {"value": value, "unit": units[key]} for key, value in raw.items()}


def _layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; a table of every metric by name and unit."""
    results, status = {}, 0
    for name in NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print()
    print(f"{'workload':<18} {'metric':<56} {'value':>14} unit")
    for name, result in results.items():
        print(f"{name:<18} {'attempted / failed':<56} {result['attempted']:>7} / {result['failed']:<4}")
        for metric, m in result["metrics"].items():
            print(f"{name:<18} {metric:<56} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"seed": seed, "seconds": seconds, "trace": int(trace), "workloads": results}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "coapprox" / "__init__.py").is_file():
        print(f"coapprox sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        import workloads
        workloads.WORKLOADS[args.workload]().setup(args.seed)
        return 0
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
