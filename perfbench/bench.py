"""The juntatester benchmark: seeded `run_trials` workloads, timed trial by trial.

Each experiment of a run mirrors the stream layout of `harness.run_trials`:
its fixture comes from stream 0 of its master seed and its trial i runs
`tester.run_tester` on stream i+1. Every `run_tester` call is timed on its
own, every result is checked, and the report of the workload seed's first
trials is compared byte for byte with `run_trials` itself. `cli` is not
measured: it is a thin JSON wrapper around `run_trials` and adds only
interpreter start-up.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from math import ceil, sqrt
from pathlib import Path
from time import perf_counter

import numpy as np

from juntatester import harness, tester
from juntatester.harness import ExperimentConfig, TrialReport, derive_rng, wilson_interval
from juntatester.oracles import MembershipOracle, QueryLedger, SampleOracle
from juntatester.tester import Decision, Variant

from spans import Tracer, layer_stats

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
MIN_TRIALS = 110         # so that more than 10 timed trials lie beyond p90
LOOP_LIMIT_S = 100.0     # stop timing here even below MIN_TRIALS
CHANNELS = ("classical_queries", "classical_samples", "quantum_queries")


@dataclass(frozen=True)
class Workload:
    """The parameters are the workload's identity. `checked_trials` is fixed so
    that the fidelity report and the traced run's counts repeat exactly;
    `experiments` is how many fixtures a run pools, so that one unusual
    fixture moves a seed's figures little and `setup_s` is a median of that
    many builds. Both are fixed so that every run of a workload measures the
    same population, however fast the host or the code is."""

    name: str
    n: int
    k: int
    eps: float
    variant: Variant
    fixture: dict
    checked_trials: int
    experiments: int

    def config(self, seed: int, trials: int) -> ExperimentConfig:
        return ExperimentConfig(
            n=self.n, k=self.k, eps=self.eps, trials=trials, master_seed=seed,
            variant=self.variant, fixture=self.fixture,
        )

    @property
    def is_junta(self) -> bool:
        return self.fixture.get("kind", "junta") == "junta"


WORKLOADS = {
    w.name: w
    for w in (
        # Dense uniform D; every trial runs all 18k iterations, most of them
        # failed generate_cube calls after S is complete. Set-up is the
        # Distribution duplicate check on 2^20 points.
        Workload("completeness-classical", 20, 4, 0.1, Variant.CLASSICAL,
                 {"kind": "junta"}, 100, 6),
        # Never calls generate_cube; nearly all time is the exact attempt
        # probability, recomputed each iteration for at most k+1 distinct S.
        Workload("completeness-amplified", 16, 4, 0.1, Variant.AMPLIFIED,
                 {"kind": "junta"}, 20, 20),
        # Certified 0.5-far; trials exit by overflow after a few iterations,
        # D has 2^8 support points, set-up is the exact distance certificate.
        Workload("soundness-planted", 16, 4, 0.1, Variant.CLASSICAL,
                 {"kind": "far", "family": "planted"}, 200, 5),
    )
}


def budgets(k: int, eps: float, variant: Variant) -> dict:
    """The README's per-run budget table, one bound per ledger channel."""
    iterations = 18 * k
    attempts = ceil(2 / eps)
    quantum = iterations * (ceil(4 / sqrt(eps)) if variant is Variant.AMPLIFIED else 1)
    return {
        "classical_queries": iterations * (2 * attempts + 2),
        "classical_samples": iterations * attempts,
        "quantum_queries": quantum,
    }


@dataclass
class Trial:
    """What the gate and the report need from one trial; the verdict is dropped."""

    ms: float
    decision: Decision | None
    ledger: QueryLedger
    growth_events: int
    growth_iterations: int
    failure: str | None


def run_trial(w: Workload, fixture, seed: int, i: int) -> Trial:
    """Trial i on stream i+1, exactly as `run_trials` runs it; only the
    `run_tester` call is timed. A raise, a rejected junta or a ledger over
    budget marks the trial failed."""
    f, dist, _ = fixture
    rng = derive_rng(seed, i + 1)
    ledger = QueryLedger()
    oracle, samples = MembershipOracle(f, ledger), SampleOracle(dist, ledger)
    start = perf_counter()
    try:
        verdict = tester.run_tester(oracle, samples, w.k, w.eps, rng, w.variant)
    except Exception:  # a raising trial is counted, reported and the run goes on
        ms = (perf_counter() - start) * 1e3
        return Trial(ms, None, ledger, 0, 0, "raised: " + traceback.format_exc(limit=3))
    ms = (perf_counter() - start) * 1e3
    events = prev = 0
    for rec in verdict.final_state.trace:
        events += rec.potential > prev
        prev = rec.potential
    failures = ["junta rejected"] if w.is_junta and verdict.decision is Decision.REJECT else []
    for channel, bound in budgets(w.k, w.eps, w.variant).items():
        if getattr(ledger, channel) > bound:
            failures.append(f"{channel} {getattr(ledger, channel)} > budget {bound}")
    return Trial(ms, verdict.decision, ledger, events, len(verdict.final_state.trace),
                 "; ".join(failures) or None)


def report_of(trials: list[Trial], cert) -> TrialReport:
    """The report `run_trials` would build from these trials."""
    count = len(trials)
    rejections = sum(t.decision is Decision.REJECT for t in trials)
    iterations = sum(t.growth_iterations for t in trials)
    return TrialReport(
        trials=count,
        acceptances=count - rejections,
        rejections=rejections,
        acceptance_rate=(count - rejections) / count,
        rejection_rate=rejections / count,
        confidence_interval=wilson_interval(rejections, count),
        ledger_aggregates=harness._aggregate_ledgers([t.ledger for t in trials]),
        potential_growth_rate=(
            sum(t.growth_events for t in trials) / iterations if iterations else None
        ),
        fixture_distance=cert.distance if cert is not None else None,
    )


def check_fidelity(w: Workload, seed: int, trials: list[Trial], cert, problems: list) -> str:
    """Compare the loop's report on the checked trials with `run_trials`."""
    ours = report_of(trials[: w.checked_trials], cert).to_json_str()
    theirs = harness.run_trials(w.config(seed, w.checked_trials)).to_json_str()
    if ours != theirs:
        problems.append(f"report differs from run_trials: {ours} != {theirs}")
    return hashlib.sha256(theirs.encode()).hexdigest()


@dataclass
class Tally:
    """Running counts over gated trials; a run keeps only one time per trial."""

    times: list = field(default_factory=list)  # ms of the timed trials
    count: int = 0
    rejections: int = 0
    failed: int = 0
    first_failure: str | None = None

    def add(self, t: Trial, timed: bool = True) -> None:
        if timed:
            self.times.append(t.ms)
        self.count += 1
        self.rejections += t.decision is Decision.REJECT
        if t.failure is not None:
            self.failed += 1
            self.first_failure = self.first_failure or t.failure


def check_run(w: Workload, tally: Tally, certs: list, problems: list) -> None:
    """Run-level correctness gate; per-trial failures are already marked."""
    if tally.failed:
        problems.append(f"{tally.failed} failed trials; the first: {tally.first_failure}")
    if not w.is_junta:
        for cert in certs:
            if cert is None or cert.distance < w.eps:
                problems.append(f"certificate distance {cert and cert.distance} < eps {w.eps}")
        low = wilson_interval(tally.rejections, tally.count)[0]
        if low < 0.5:
            problems.append(f"Wilson 99% lower bound on rejection rate {low:.4f} < 1/2")


def experiment_seed(seed: int, j: int) -> int:
    """Master seed of a run's experiment j; experiment 0 is the workload seed."""
    return seed + (j << 32)


def percentile_tail(values: list[float], q: float) -> tuple[float, int]:
    """The q-th percentile and how many samples lie strictly beyond it."""
    p = float(np.percentile(values, q))
    return p, sum(v > p for v in values)


def untraced_run(w: Workload, seed: int, seconds: float, problems: list, meta: dict) -> dict:
    """Run the experiments one after another: build the fixture (timed), then
    time its trials for an equal share of `seconds`. Building between the
    timed blocks spreads both kinds of sample over the whole run, and keeps
    one fixture alive at a time, as `run_trials` does."""
    setup_times, certs, seeds, checked = [], [], [], []
    tally = Tally()
    measured = 0.0
    for j in range(w.experiments):
        s = experiment_seed(seed, j)
        start = perf_counter()
        fixture = harness.build_fixture(w.config(s, 1), derive_rng(s, 0))
        setup_times.append(perf_counter() - start)
        if j == 0:
            run_trial(w, fixture, s, 0)  # warm-up, not timed; trial 0 is timed below
        seeds.append(s)
        certs.append(fixture[2])
        i = 0
        start = perf_counter()
        while True:
            t = run_trial(w, fixture, s, i)
            tally.add(t)
            if j == 0 and i < w.checked_trials:
                checked.append(t)
            i += 1
            elapsed = measured + perf_counter() - start
            if elapsed >= LOOP_LIMIT_S or (
                elapsed >= seconds * (j + 1) / w.experiments
                and i >= ceil(MIN_TRIALS / w.experiments)
            ):
                break
        measured = elapsed
        for i in range(len(checked), w.checked_trials if j == 0 else 0):
            checked.append(run_trial(w, fixture, s, i))  # untimed
            tally.add(checked[-1], timed=False)
        del fixture
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_run(w, tally, certs, problems)
    meta["report_sha256"] = check_fidelity(w, seed, checked, certs[0], problems)
    times = tally.times
    p90, beyond = percentile_tail(times, 90)
    failed = tally.failed
    meta.update(
        experiment_seeds=seeds, trials=len(times), trials_beyond_p90=beyond,
        trials_failed_frac=failed / tally.count,
        fixture_distances=[c and c.distance for c in certs],
    )
    return {
        "attempted": tally.count,  # timed trials plus any untimed checked ones
        "failed": failed,
        "metrics": {
            "setup_s": (statistics.median(setup_times), "s"),
            "trial_ms_p50": (statistics.median(times), "ms"),
            "trial_ms_p90": (p90, "ms"),
            "trials_per_s": (len(times) / (sum(times) / 1e3), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "trials_ok_frac": (1.0 - failed / tally.count, "ratio"),
        },
    }


def traced_run(w: Workload, seed: int, trials: int | None = None):
    """Trace the fixture build and the checked trials.

    Each trial also runs untraced, in alternating order, so that the tracing
    overhead compares the same trials at nearly the same time. Returns the
    tracer, the fixture and the (traced, untraced) trials.
    """
    count = w.checked_trials if trials is None else trials
    tracer = Tracer()
    with tracer.installed():
        tracer.trial = "setup"
        fixture = harness.build_fixture(w.config(seed, count), derive_rng(seed, 0))
    traced, untraced = [], []
    for i in range(count):
        for run_traced in ((True, False) if i % 2 else (False, True)):
            if run_traced:
                tracer.trial = i
                with tracer.installed():
                    traced.append(run_trial(w, fixture, seed, i))
            else:
                untraced.append(run_trial(w, fixture, seed, i))
    return tracer, fixture, traced, untraced


# Per-layer metrics: (name, span name, statistic, unit).
LAYER_METRICS = (
    ("distribution.Distribution.s", "distribution.Distribution", "s", "s"),
    ("distribution.distance_to_k_junta.s", "distribution.distance_to_k_junta", "s", "s"),
    ("distribution.best_junta_on.calls", "distribution.best_junta_on", "calls", "count"),
    ("boolfn.from_junta.calls", "boolfn.from_junta", "calls", "count"),
    ("boolfn.from_junta.s", "boolfn.from_junta", "s", "s"),
    ("distribution.sample_indices.calls", "distribution.sample_indices", "calls", "count"),
    ("distribution.sample_indices.points", "distribution.sample_indices", "points", "count"),
    ("tester.generate_cube.calls", "tester.generate_cube", "calls", "count"),
    ("tester.generate_cube.s", "tester.generate_cube", "s", "s"),
    ("tester.generate_cube.hit_ratio", "tester.generate_cube", "hits", "ratio"),
    ("tester.step.calls", "tester.step", "calls", "count"),
    ("tester.step.self_s", "tester.step", "self_s", "s"),
    ("quantum.attempt_success_probability.calls", "quantum.attempt_success_probability", "calls", "count"),
    ("quantum.attempt_success_probability.s", "quantum.attempt_success_probability", "s", "s"),
    ("quantum.attempt_success_probability.distinct_sets", "quantum.attempt_success_probability", "distinct", "count"),
    ("quantum.amplified_generate_cube.calls", "quantum.amplified_generate_cube", "calls", "count"),
    ("quantum.amplified_generate_cube.s", "quantum.amplified_generate_cube", "s", "s"),
    ("quantum.amplified_generate_cube.hit_ratio", "quantum.amplified_generate_cube", "hits", "ratio"),
    ("quantum.fourier_sample.calls", "quantum.fourier_sample", "calls", "count"),
    ("quantum.fourier_sample.s", "quantum.fourier_sample", "s", "s"),
    ("quantum.fourier_sample.nonempty_ratio", "quantum.fourier_sample", "nonempty", "ratio"),
    ("boolfn.restricted_spectrum.calls", "boolfn.restricted_spectrum", "calls", "count"),
    ("boolfn.restricted_spectrum.s", "boolfn.restricted_spectrum", "s", "s"),
    ("boolfn.restricted_spectrum.points", "boolfn.restricted_spectrum", "points", "count"),
    ("boolfn.walsh_hadamard.s", "boolfn.walsh_hadamard", "s", "s"),
    ("harness.build_fixture.s", "harness.build_fixture", "s", "s"),
)
EMPTY_STATS = {"calls": 0, "s": 0.0, "self_s": 0.0, "hits": 0, "points": 0,
               "nonempty": 0, "distinct": 0}


def layer_metrics(stats: dict) -> dict:
    """The declared per-layer metrics; a ratio over zero calls reads 0."""
    out = {}
    for metric, span, stat, unit in LAYER_METRICS:
        s = stats.get(span, EMPTY_STATS)
        value = s[stat]
        if unit == "ratio":
            value = value / s["calls"] if s["calls"] else 0.0
        out[metric] = (value, unit)
    return out


def guard_metrics(w: Workload, trials: list[Trial]) -> dict:
    """Ledger sums over the checked trials and the largest share of a budget used."""
    limits = budgets(w.k, w.eps, w.variant)
    out = {f"oracles.{c}": (sum(getattr(t.ledger, c) for t in trials), "count") for c in CHANNELS}
    out["oracles.budget_frac_max"] = (
        max(getattr(t.ledger, c) / limits[c] for t in trials for c in CHANNELS), "ratio",
    )
    return out


def trace_run(w: Workload, seed: int, problems: list, meta: dict) -> dict:
    tracer, fixture, traced, untraced = traced_run(w, seed)
    cert = fixture[2]
    del fixture
    tally = Tally()
    for t in traced:
        tally.add(t)
    check_run(w, tally, [cert], problems)
    if report_of(traced, cert).to_json_str() != report_of(untraced, cert).to_json_str():
        problems.append("tracing changed the trials' results")
    meta["report_sha256"] = check_fidelity(w, seed, untraced, cert, problems)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{w.name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_path)
    p50_traced = statistics.median(t.ms for t in traced)
    p50_untraced = statistics.median(t.ms for t in untraced)
    meta.update(trials=len(traced), spans=len(tracer.spans), spans_file=str(spans_path.name),
                trial_ms_p50_traced=p50_traced, trial_ms_p50_untraced=p50_untraced)
    metrics = layer_metrics(layer_stats(tracer.spans))
    metrics.update(guard_metrics(w, traced))
    metrics["trace.overhead_ms_p50"] = (p50_traced - p50_untraced, "ms")
    return {"attempted": tally.count, "failed": tally.failed, "metrics": metrics}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, metadata)."""
    w = WORKLOADS[workload]
    problems: list[str] = []
    meta = {"workload": workload, "seed": seed, "trace": int(trace),
            "seconds": seconds, **environment()}
    if trace:
        body = trace_run(w, seed, problems, meta)
    else:
        body = untraced_run(w, seed, seconds, problems, meta)
    meta["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in body["metrics"].items()},
    }
    return result, meta
