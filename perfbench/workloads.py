"""The benchmark's three workloads.

Each is a closed loop with one caller, like a TE controller that waits
for every decision. Inputs come only from the workload seed: the traffic
matrices, the failures, the training seed and the event schedule derive
from it (see ``SCENARIO_SEED`` for what stays fixed). Nothing is read from or
written to a cache: every scenario is built and every model trained in
this process, with the harness caches cleared around each set-up.

A run warms up untimed on a few of its inputs (first calls into the
solver and the kernels), then alternates *passes* over the workload's
fixed inputs until ``seconds`` have elapsed (and a minimum number of
passes and decisions is met). With tracing on, every second pass (and
the middle set-up) runs with the entry points of :mod:`perfbench.layers` patched, so the
traced and untraced numbers of the same run give the tracing overhead.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import harness
from repro.baselines import LpAll
from repro.config import TE_INTERVAL_SECONDS, TrainingConfig
from repro.simulation.evaluator import evaluate_allocations_batch
from repro.simulation.streaming import (
    EventSchedule,
    LinkFailure,
    LinkRecovery,
    StreamingEngine,
    TrafficUpdate,
)
from repro.sweep import ScenarioSuite, run_scenario_grid
from repro.sweep.cellbatch import chunk_level_keys
from repro.topology.failures import sample_link_failures

from . import layers
from .checks import Outcome, above_optimum, overload_problems, ratio_problems
from .tracer import Tracer

#: Quality reported when every pass raised (the failures are counted).
NO_QUALITY = {"teal_satisfied_pct": 0.0, "lp_all_satisfied_pct": 0.0}
#: Modules a fresh interpreter imports for the import part of set-up.
IMPORTS = "import repro.harness, repro.sweep, repro.simulation.streaming"
#: Set-ups per run; setup_s reports their median.
SETUPS = 3
FAILURE_LEVELS = (0, 1, 2)
#: Inputs (offline-te) or stream intervals (stream-te) of the untimed
#: warm-up before the first pass.
WARMUP = 20
#: Passes a run makes at least, however long they take: every input gets
#: a median of at least three repeats.
MIN_PASSES = 3

#: Small fixed training budget of the single-topology workloads.
TRAINING = TrainingConfig(
    steps=20, warm_start_steps=60, batch_matrices=4, failure_rate=0.25,
    log_every=1000,
)
#: Smaller budget per ladder rung: the grid trains five models per pass.
GRID_TRAINING = replace(TRAINING, steps=10, warm_start_steps=40)

#: The seed of what the run seed does not draw. Topologies, demand pairs
#: and provisioning stay fixed, as the paper's named WANs are, and so does
#: the model offline-te and stream-te train in set-up: a controller
#: deploys one trained model. Their run seed draws what the measured
#: phase consumes: the traffic matrices (from the scenario's calibrated
#: test pool) and the failures. cold-grid trains inside its measured
#: phase, so its run seed is the training seed; its grid derives traffic
#: and failures from this seed. (A topology or model per seed would make
#: run-to-run spread mostly a comparison of different networks or models:
#: Teal's satisfied demand ranged 62-75% over five training seeds.)
SCENARIO_SEED = 0

OFFLINE_TOPOLOGY = "ASN"
OFFLINE_BUILD = {"max_pairs": 300, "train": 16, "validation": 2, "test": 400}
#: Traffic matrices per offline pass, drawn from the 400-TM test pool:
#: 210 inputs, so decision_ms_p95 has ten inputs beyond it.
OFFLINE_TMS = 70
#: LP-all solves every LP_EVERY-th input of a pass, right after Teal.
LP_EVERY = 4
#: Untraced Teal decisions a latency run needs.
MIN_DECISIONS = 1000

STREAM_TOPOLOGY = "Kdl"
#: Stream intervals: the whole test trace, rotated to a seeded start.
STREAM_INTERVALS = 1000
STREAM_BUILD = {"max_pairs": 300, "train": 16, "validation": 2, "test": STREAM_INTERVALS}
#: Mean spacing of link failures in the event stream, in intervals.
FAILURE_SPACING = 100
#: LP-all oracle on every ORACLE_EVERY-th stream interval.
ORACLE_EVERY = 25

LADDER = ("B4", "SWAN", "UsCarrier", "Kdl", "ASN")
GRID_SCHEMES = ("LP-all", "Teal")
GRID_MAX_PAIRS = 300


@dataclass
class Run:
    """One benchmark run of one workload."""

    seed: int
    seconds: float
    trace: bool
    root: Path
    outcome: Outcome = field(default_factory=Outcome)
    tracer: Tracer = field(default_factory=lambda: Tracer(scope_roots=(layers.TRAIN,)))
    #: Pass wall times, keyed by whether the pass was traced.
    pass_s: dict = field(default_factory=lambda: {False: [], True: []})
    facts: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @contextmanager
    def tracing(self, on: bool):
        """Patch the entry points for the duration of the block if ``on``."""
        if not on:
            yield
            return
        layers.install(self.tracer)
        try:
            yield
        finally:
            layers.uninstall(self.tracer)

    def passes(self, min_passes: int, enough=lambda: True):
        """Yield (index, traced) until time is up and the minimums are met.

        Peak RSS is read when the first ``min_passes`` passes are done, so
        that it does not grow with the number of passes a host fits in.
        """
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index < min_passes or time.perf_counter() < deadline or not enough():
            if index == min_passes:
                self.peak_rss_mb = _peak_rss_mb()
            yield index, self.trace and index % 2 == 1
            index += 1
        if index == min_passes:
            self.peak_rss_mb = _peak_rss_mb()


def _import_seconds(root: Path) -> float:
    """Median wall time of a fresh interpreter importing the library."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    samples = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, cwd=root, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _setup(run: Run, topology: str, build: dict):
    """Build and train SETUPS times; returns the last (scenario, teal) and
    the median set-up seconds."""
    seconds = []
    for index in range(SETUPS):
        harness.clear_caches()
        with run.tracing(run.trace and index == SETUPS // 2):
            start = time.perf_counter()
            scenario = harness.build_scenario(
                topology, seed=SCENARIO_SEED, use_cache=False, **build
            )
            teal = harness.trained_teal(
                scenario,
                config=replace(TRAINING, seed=SCENARIO_SEED),
                seed=SCENARIO_SEED,
                use_cache=False,
            )
            seconds.append(time.perf_counter() - start)
    harness.clear_caches()
    return scenario, teal, statistics.median(seconds)


def _input_capacities(scenario, seed: int, inputs: list) -> np.ndarray:
    """(len(inputs), E) capacities of the (failure level, TM) inputs.

    Every input with failures gets its own sample of failed links, drawn
    from the run seed: one sample per level would make a run's latencies
    mostly a property of the one or two links that sample happened to
    pick.
    """
    rng = np.random.default_rng([seed, 5])
    rows = np.repeat(scenario.capacities[None, :], len(inputs), axis=0)
    for row, (count, _) in zip(rows, inputs):
        if count:
            row[
                sample_link_failures(
                    scenario.topology, count, seed=int(rng.integers(2**31))
                )
            ] = 0.0
    return rows


def _capture(target: str) -> tuple[Tracer, list]:
    """Record the arguments and result of every call to ``target``.

    The streaming engine and the grid score allocations internally and
    return only summaries; the benchmark checks their outputs from the
    stacks they hand to the evaluator. The capture stores references
    only, so it adds no measurable time inside a pass.
    """
    sink: list = []
    capture = Tracer()
    capture.wrap(
        target, "capture",
        after=lambda tracer, args, kwargs, result: sink.append((args, kwargs, result)),
    )
    return capture, sink


def _evaluator_inputs(args, kwargs):
    names = ("pathset", "split_ratios", "demands", "capacities")
    values = dict(zip(names, args))
    values.update(kwargs)
    return values["split_ratios"], values["demands"], values["capacities"]


def _score_lp(ps, allocations: dict, rows: list[int], demands, caps):
    """Stack LP-all's ratios for ``rows`` (zeros where it raised) and score
    them in one evaluator pass."""
    empty = np.zeros((ps.num_demands, ps.max_paths))
    ratios = np.stack(
        [allocations[i].split_ratios if i in allocations else empty for i in rows]
    )
    return ratios, evaluate_allocations_batch(ps, ratios, demands[rows], caps[rows])


def _p(passes: list[np.ndarray], q: float) -> float:
    """q-th percentile in ms over the workload's distinct inputs of each
    input's median time across the passes.

    Every pass replays the same inputs, one time per input (NaN where it
    raised), so the median across passes takes a slow stretch of the
    shared host out of each input's time, and the percentile over inputs
    is the spread of the work itself.
    """
    if not passes:
        return 0.0
    per_input = np.nanmedian(np.vstack(passes), axis=0)
    return 1000.0 * float(np.nanpercentile(per_input, q))


def _rate(cells: int, run: Run) -> float:
    """Median over the untraced passes of cells completed per second."""
    return statistics.median(cells / s for s in run.pass_s[False])


def _overhead(run: Run, untraced: list, traced: list) -> None:
    """Tracing overhead: traced minus untraced numbers of the same run."""
    plain, patched = run.pass_s[False], run.pass_s[True]
    if plain and patched:
        run.facts["trace.overhead_pct"] = 100.0 * (
            statistics.median(patched) / statistics.median(plain) - 1.0
        )
    run.facts["trace.overhead_decision_ms_p50"] = _p(traced, 50) - _p(untraced, 50)
    run.facts["traced_passes"] = len(patched)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# offline-te
# ----------------------------------------------------------------------
def offline_te(run: Run) -> dict:
    import_s = _import_seconds(run.root)
    scenario, teal, setup_s = _setup(run, OFFLINE_TOPOLOGY, OFFLINE_BUILD)
    ps = scenario.pathset
    lp = LpAll()
    pool = scenario.split.test
    chosen = np.sort(
        np.random.default_rng([run.seed, 3]).choice(len(pool), OFFLINE_TMS, replace=False)
    )
    demands = ps.demand_volumes_batch(np.stack([pool[i].values for i in chosen]))
    inputs = [(level, t) for level in FAILURE_LEVELS for t in range(demands.shape[0])]
    demand_rows = np.stack([demands[t] for _, t in inputs])
    caps_rows = _input_capacities(scenario, run.seed, inputs)
    lp_rows = list(range(0, len(inputs), LP_EVERY))
    for i in range(0, len(inputs), len(inputs) // WARMUP):
        teal.allocate(ps, demand_rows[i], caps_rows[i])
        lp.allocate(ps, demand_rows[i], caps_rows[i])

    latency = {False: [], True: []}
    lp_latency = {False: [], True: []}
    quality = None
    for index, traced in run.passes(
        min_passes=MIN_PASSES,
        enough=lambda: run.trace or len(inputs) * len(latency[False]) >= MIN_DECISIONS,
    ):
        ratios = np.zeros((len(inputs), ps.num_demands, ps.max_paths))
        raised = np.zeros(len(inputs), dtype=bool)
        lp_allocations = {}
        lp_raised = np.zeros(len(lp_rows), dtype=bool)
        took = np.full(len(inputs), np.nan)
        lp_took = np.full(len(lp_rows), np.nan)
        with run.tracing(traced):
            start = time.perf_counter()
            for i in range(len(inputs)):
                try:
                    begin = time.perf_counter()
                    allocation = teal.allocate(ps, demand_rows[i], caps_rows[i])
                    took[i] = time.perf_counter() - begin
                    ratios[i] = allocation.split_ratios
                except Exception as error:  # a raising decision is a failed op
                    raised[i] = True
                    run.outcome.note(error)
                if i % LP_EVERY == 0:
                    try:
                        begin = time.perf_counter()
                        lp_allocations[i] = lp.allocate(ps, demand_rows[i], caps_rows[i])
                        lp_took[i // LP_EVERY] = time.perf_counter() - begin
                    except Exception as error:
                        lp_raised[i // LP_EVERY] = True
                        run.outcome.note(error)
            report = evaluate_allocations_batch(ps, ratios, demand_rows, caps_rows)
            lp_ratios, lp_report = _score_lp(
                ps, lp_allocations, lp_rows, demand_rows, caps_rows
            )
            run.pass_s[traced].append(time.perf_counter() - start)
        latency[traced].append(took)
        lp_latency[traced].append(lp_took)

        beyond = np.zeros(len(inputs), dtype=bool)
        for i, allocation in lp_allocations.items():
            beyond[i] = above_optimum(
                report.delivered_total[i], allocation.extras["lp_objective"]
            )
        run.outcome.check(
            "Teal",
            raised=raised,
            ratios=ratio_problems(ratios),
            overload=overload_problems(report.edge_loads, caps_rows),
            above_lp_optimum=beyond,
        )
        run.outcome.check(
            "LP-all",
            raised=lp_raised,
            ratios=ratio_problems(lp_ratios),
            overload=overload_problems(lp_report.edge_loads, caps_rows[lp_rows]),
        )
        if index == 0:
            quality = {
                "teal_satisfied_pct": 100.0
                * float(np.mean(report.satisfied_fraction[~raised])),
                "lp_all_satisfied_pct": 100.0
                * float(np.mean(lp_report.satisfied_fraction[~lp_raised])),
            }
    _overhead(run, latency[False], latency[True])
    return {
        "setup_s": import_s + setup_s,
        "decision_ms_p50": _p(latency[False], 50),
        "decision_ms_p95": _p(latency[False], 95),
        "lp_all_ms_p50": _p(lp_latency[False], 50),
        "cells_per_s": _rate(len(inputs), run),
        **(quality or NO_QUALITY),
        "peak_rss_mb": run.peak_rss_mb,
        "samples": {
            "decision_ms_p99": _p(latency[False], 99),
            "decisions": len(inputs) * len(latency[False]),
            "lp_solves": len(lp_rows) * len(lp_latency[False]),
            "passes": len(run.pass_s[False]),
        },
    }


# ----------------------------------------------------------------------
# stream-te
# ----------------------------------------------------------------------
def _event_schedule(scenario, seed: int) -> EventSchedule:
    """The scenario's test trace from a seeded start, wrapping around,
    with seeded link failures and recoveries.

    Every seed replays every traffic regime of the trace once (a window of
    a longer trace made one seed's stream a different load from the
    next's), so the seed varies the phase and the failures.
    """
    rng = np.random.default_rng([seed, 7])
    trace = scenario.split.test
    start = int(rng.integers(len(trace)))
    matrices = trace[start:] + trace[:start]
    interval = TE_INTERVAL_SECONDS
    events: list = [
        TrafficUpdate(time=t * interval, matrix=m) for t, m in enumerate(matrices)
    ]
    # Jitter +-15 and repair after 30-60 intervals: consecutive failure
    # windows never overlap, so every recovery restores nominal capacity.
    for k in range(1, len(matrices) // FAILURE_SPACING):
        at = k * FAILURE_SPACING + int(rng.integers(-15, 16))
        edges = tuple(
            sample_link_failures(
                scenario.topology, int(rng.integers(1, 3)),
                seed=int(rng.integers(2**31)),
            )
        )
        events.append(LinkFailure(time=at * interval, edges=edges))
        events.append(
            LinkRecovery(time=(at + int(rng.integers(30, 61))) * interval, edges=edges)
        )
    return EventSchedule(events=tuple(events), interval_seconds=interval)


def stream_te(run: Run) -> dict:
    import_s = _import_seconds(run.root)
    scenario, teal, setup_s = _setup(run, STREAM_TOPOLOGY, STREAM_BUILD)
    ps = scenario.pathset
    lp = LpAll()
    schedule = _event_schedule(scenario, run.seed)
    num = schedule.num_intervals
    oracle_rows = list(range(ORACLE_EVERY // 2, num, ORACLE_EVERY))
    warmup = EventSchedule(
        events=[e for e in schedule.events if e.time < WARMUP * schedule.interval_seconds],
        interval_seconds=schedule.interval_seconds,
    )
    StreamingEngine(ps, teal, warm_start=True).run(warmup, capacities=scenario.capacities)
    lp.allocate(ps, ps.demand_volumes(schedule.events[0].matrix.values), scenario.capacities)
    capture, sink = _capture("repro.simulation.streaming:evaluate_allocations_batch")

    latency = {False: [], True: []}
    lp_latency = {False: [], True: []}
    quality = None
    warm = []
    try:
        for index, traced in run.passes(min_passes=MIN_PASSES):
            sink.clear()
            with run.tracing(traced):
                start = time.perf_counter()
                try:
                    result = StreamingEngine(ps, teal, warm_start=True).run(
                        schedule, capacities=scenario.capacities
                    )
                except Exception as error:
                    run.outcome.add(num, num, f"stream pass raised {error!r}")
                    continue
                finally:
                    run.pass_s[traced].append(time.perf_counter() - start)
                latency[traced].append(np.array([d.latency for d in result.decisions]))
                warm.append(result.warm_fraction)
                args, kwargs, report = sink[-1]
                ratios, demands, caps = _evaluator_inputs(args, kwargs)

                lp_allocations = {}
                lp_raised = np.zeros(len(oracle_rows), dtype=bool)
                lp_took = np.full(len(oracle_rows), np.nan)
                for j, i in enumerate(oracle_rows):
                    try:
                        begin = time.perf_counter()
                        lp_allocations[i] = lp.allocate(ps, demands[i], caps[i])
                        lp_took[j] = time.perf_counter() - begin
                    except Exception as error:
                        lp_raised[j] = True
                        run.outcome.note(error)
                lp_latency[traced].append(lp_took)
                lp_ratios, lp_report = _score_lp(
                    ps, lp_allocations, oracle_rows, demands, caps
                )

            beyond = np.zeros(num, dtype=bool)
            for i, allocation in lp_allocations.items():
                beyond[i] = above_optimum(
                    report.delivered_total[i], allocation.extras["lp_objective"]
                )
            run.outcome.check(
                "Teal stream decision",
                ratios=ratio_problems(ratios),
                overload=overload_problems(report.edge_loads, caps),
                above_lp_optimum=beyond,
            )
            run.outcome.check(
                "LP-all oracle",
                raised=lp_raised,
                ratios=ratio_problems(lp_ratios),
                overload=overload_problems(lp_report.edge_loads, caps[oracle_rows]),
            )
            if quality is None:
                quality = {
                    "teal_satisfied_pct": 100.0 * result.mean_satisfied,
                    "lp_all_satisfied_pct": 100.0
                    * float(np.mean(lp_report.satisfied_fraction[~lp_raised])),
                }
    finally:
        capture.uninstall()

    _overhead(run, latency[False], latency[True])
    if run.trace:
        traced_latency = float(np.sum(latency[True]))
        admm = run.tracer.get("core.admm").inclusive_s
        scoring = run.tracer.get("lp.objectives.reward").inclusive_s
        run.facts["simulation.warm_frac"] = statistics.mean(warm)
        run.facts["simulation.stream_overhead_ms"] = (
            1000.0 * (traced_latency - admm - scoring) / (num * len(latency[True]))
        )
    return {
        "setup_s": import_s + setup_s,
        "decision_ms_p50": _p(latency[False], 50),
        "decision_ms_p95": _p(latency[False], 95),
        "lp_all_ms_p50": _p(lp_latency[False], 50),
        "cells_per_s": _rate(num, run),
        **(quality or NO_QUALITY),
        "peak_rss_mb": run.peak_rss_mb,
        "samples": {
            "decision_ms_p99": _p(latency[False], 99),
            "decisions": num * len(latency[False]),
            "lp_solves": len(oracle_rows) * len(lp_latency[False]),
            "passes": len(run.pass_s[False]),
        },
    }


# ----------------------------------------------------------------------
# cold-grid
# ----------------------------------------------------------------------
def _grid_rows(suite: ScenarioSuite, cell_batch: int, calls: list) -> dict:
    """Split the grid's evaluator calls into per-cell row blocks.

    ``run_failure_sweep`` scores each job chunk by chunk and, within a
    chunk, scheme by scheme, stacking the chunk's failure levels TM-major
    per level. A different call count means that order changed, which
    must fail loudly rather than attribute rows to the wrong cells.
    """
    chunks = chunk_level_keys(list(suite.failure_counts), cell_batch)
    expected = len(suite.topologies) * len(chunks) * len(suite.schemes)
    if len(calls) != expected:
        raise RuntimeError(
            f"grid made {len(calls)} evaluator calls, expected {expected}; "
            "the sweep's scoring order changed"
        )
    rows = {}
    calls = iter(calls)
    for topology in suite.topologies:
        for chunk in chunks:
            for scheme in suite.schemes:
                args, kwargs, report = next(calls)
                ratios, demands, caps = _evaluator_inputs(args, kwargs)
                per_level = demands.shape[0] // len(chunk)
                for c, level in enumerate(chunk):
                    block = slice(c * per_level, (c + 1) * per_level)
                    rows[topology, level, scheme] = (
                        ratios[block], report.edge_loads[block],
                        np.broadcast_to(caps, report.edge_loads.shape)[block],
                        report.delivered_total[block],
                    )
    return rows


def cold_grid(run: Run) -> dict:
    import_s = _import_seconds(run.root)
    suite = ScenarioSuite(
        topologies=LADDER,
        failure_counts=FAILURE_LEVELS,
        seeds=(SCENARIO_SEED,),
        schemes=GRID_SCHEMES,
        training=replace(GRID_TRAINING, seed=run.seed),
        max_pairs=GRID_MAX_PAIRS,
    )
    ops_per_pass = suite.num_cells * suite.test
    # Warm-up: the smallest cell pair of the ladder, then every cache cleared.
    run_scenario_grid(
        replace(suite, topologies=LADDER[:1], failure_counts=(0,)), executor="serial"
    )
    harness.clear_caches()
    capture, sink = _capture("repro.harness:evaluate_allocations_batch")

    teal_ms = {False: [], True: []}
    lp_ms = {False: [], True: []}
    quality = None
    job_timings = []
    cell_batches = []
    try:
        for index, traced in run.passes(min_passes=MIN_PASSES):
            sink.clear()
            harness.clear_caches()
            with run.tracing(traced):
                start = time.perf_counter()
                try:
                    grid = run_scenario_grid(suite, executor="serial")
                except Exception as error:
                    run.outcome.add(
                        ops_per_pass, ops_per_pass, f"grid pass raised {error!r}"
                    )
                    continue
                finally:
                    run.pass_s[traced].append(time.perf_counter() - start)
                    harness.clear_caches()
            if traced:
                job_timings.extend(grid.timings)
                cell_batches.append(grid.metadata["cell_batching"]["num_invocations"])
            rows = _grid_rows(suite, grid.metadata["cell_batch"], sink)
            teal_times, lp_times = [], []
            for cell in grid.cells:
                times = np.asarray(cell.run.compute_times)
                if cell.scheme == "Teal":
                    teal_times.append(times)
                else:
                    build = [extra["model_build_time"] for extra in cell.run.extras]
                    lp_times.append(times + np.asarray(build))
                ratios, loads, caps, delivered = rows[
                    cell.topology, cell.failure_count, cell.scheme
                ]
                beyond = np.zeros(len(delivered), dtype=bool)
                if cell.scheme == "Teal":
                    lp_cell = grid.cell(cell.topology, cell.seed, cell.failure_count, "LP-all")
                    beyond = np.array(
                        [
                            above_optimum(d, extra["lp_objective"])
                            for d, extra in zip(delivered, lp_cell.run.extras)
                        ]
                    )
                run.outcome.check(
                    f"{cell.scheme} on {cell.topology} with {cell.failure_count} failures",
                    ratios=ratio_problems(ratios),
                    overload=overload_problems(loads, caps),
                    above_lp_optimum=beyond,
                )
            teal_ms[traced].append(np.concatenate(teal_times))
            lp_ms[traced].append(np.concatenate(lp_times))
            if quality is None:
                quality = {
                    f"{key}_satisfied_pct": 100.0
                    * statistics.mean(
                        c.run.mean_satisfied for c in grid.cells if c.scheme == scheme
                    )
                    for key, scheme in (("teal", "Teal"), ("lp_all", "LP-all"))
                }
    finally:
        capture.uninstall()

    _overhead(run, teal_ms[False], teal_ms[True])
    if job_timings:
        for name in ("build", "train", "sweep"):
            run.facts[f"sweep.job_{name}_s"] = statistics.mean(
                t[f"{name}_seconds"] for t in job_timings
            )
        run.facts["sweep.cell_batches"] = statistics.mean(cell_batches)
    return {
        "setup_s": import_s,
        "decision_ms_p50": _p(teal_ms[False], 50),
        "decision_ms_p95": _p(teal_ms[False], 95),
        "lp_all_ms_p50": _p(lp_ms[False], 50),
        "cells_per_s": _rate(suite.num_cells, run),
        **(quality or NO_QUALITY),
        "peak_rss_mb": run.peak_rss_mb,
        "samples": {
            "teal_tms": int(sum(map(len, teal_ms[False]))),
            "lp_solves": int(sum(map(len, lp_ms[False]))),
            "passes": len(run.pass_s[False]),
        },
    }


WORKLOADS = {
    layers.OFFLINE: offline_te,
    layers.STREAM: stream_te,
    layers.COLD: cold_grid,
}
