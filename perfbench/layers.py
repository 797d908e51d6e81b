"""The entry points the traced run patches, and the per-layer metrics.

:data:`ENTRY_POINTS` is the single table of what is traced: each entry
names the import site or class attribute, the span it records, and the
workloads on which it must fire. :func:`check_fired` turns a moved call
site into a loud error instead of a per-layer metric that reads zero.

The metric names, units and the predictions of which end-to-end metric
each should move live in ``layer_map.json`` next to this file;
:func:`per_layer_metrics` computes exactly those names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tracer import Tracer

OFFLINE, STREAM, COLD = "offline-te", "stream-te", "cold-grid"
ALL = (OFFLINE, STREAM, COLD)

#: Span that opens the training scope: spans under it are recorded as
#: ``<name>@core.train`` (training's own scoring and forwards).
TRAIN = "core.train"

LAYER_MAP = json.loads(
    (Path(__file__).with_name("layer_map.json")).read_text()
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _rows(index: int, name: str):
    """``units`` callback: leading-axis length of one array argument."""

    def units(args, kwargs, result) -> float:
        return float(np.shape(_arg(args, kwargs, index, name))[0])

    return units


def _one(args, kwargs, result) -> float:
    return 1.0


# ADMM acceptance: the deployment pipeline (``TealScheme`` and the
# streaming warm path) scores the ADMM output first and its warm start
# second, and keeps the ADMM output iff its score is at least as high.
# ``_after_admm`` opens ``tracer.state["acceptance"]`` and the next two
# decision-path scoring calls fill it, so the verdict is read from the
# two observed scores, not recomputed.
ACCEPTANCE = "acceptance"


def _after_admm(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.in_scope() is not None:
        return
    tuner = args[0]
    ratios = np.asarray(_arg(args, kwargs, 1, "split_ratios"))
    demands = np.asarray(_arg(args, kwargs, 2, "demands"))
    capacities = _arg(args, kwargs, 3, "capacities")
    iterations = _arg(args, kwargs, 4, "iterations")
    if iterations is None:
        iterations = tuner.iterations
    rows = demands.shape[0]
    if capacities is None:
        capacities = tuner.pathset.topology.capacities
    caps = np.broadcast_to(
        np.asarray(capacities, dtype=float), (rows, tuner.pathset.topology.num_edges)
    )
    before = after = 0.0
    for t in range(rows):
        before += tuner.constraint_violation(ratios[t], demands[t], caps[t])
        after += tuner.constraint_violation(result[t], demands[t], caps[t])
    tracer.count("admm.tms", rows)
    tracer.count("admm.tm_iterations", rows * iterations)
    tracer.count("admm.overshoot_before", before)
    tracer.count("admm.overshoot_after", after)
    if tracer.state.get(ACCEPTANCE) is not None:
        raise RuntimeError(
            "an ADMM run was not followed by its two acceptance scores; "
            "the deployment pipeline's call order changed"
        )
    tracer.state[ACCEPTANCE] = []


def _after_reward(tracer: Tracer, args, kwargs, result) -> None:
    pending = tracer.state.get(ACCEPTANCE)
    if tracer.in_scope() is not None or pending is None:
        return
    pending.append(np.asarray(result, dtype=float))
    if len(pending) == 2:
        tuned, warm = pending
        tracer.state[ACCEPTANCE] = None
        tracer.count("admm.verdicts", tuned.size)
        tracer.count("admm.accepted", float(np.sum(tuned >= warm)))


def _after_solve(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("lp.iterations", result.iterations)


@dataclass(frozen=True)
class Entry:
    """One patched entry point."""

    target: str
    span: str
    fires_on: tuple[str, ...]
    units: object = None
    after: object = None


ENTRY_POINTS = (
    # Scenario build: setup on offline-te / stream-te, per job on cold-grid.
    Entry("repro.harness:build_scenario", "harness.build_scenario", ALL),
    Entry("repro.harness:get_topology", "topology.get_topology", ALL),
    Entry("repro.paths.pathset:PathSet.from_topology", "paths.from_topology", ALL),
    Entry("repro.traffic.trace:TrafficTrace.generate", "traffic.generate", ALL),
    # Training.
    Entry("repro.core.teal:TealScheme.train", TRAIN, ALL),
    Entry("repro.core.direct_loss:DirectLossTrainer.train", "core.direct_loss", ALL),
    Entry("repro.core.coma:ComaTrainer.train", "core.coma", ALL),
    Entry("repro.core.model:TealModel.logits_batch", "nn.forward_batch", ALL),
    Entry("repro.nn.tensor:Tensor.backward", "nn.backward", ALL),
    Entry("repro.nn.optim:Adam.step", "nn.adam_step", ALL),
    # Teal inference: per-TM on offline-te / stream-te, batched on cold-grid.
    Entry("repro.core.teal:TealScheme.allocate", "core.allocate", (OFFLINE, STREAM)),
    Entry(
        "repro.core.teal:TealScheme.allocate_batch", "core.allocate_batch", (COLD,)
    ),
    Entry("repro.core.model:TealModel.split_ratios", "core.forward", (OFFLINE, STREAM)),
    Entry(
        "repro.core.model:TealModel.split_ratios_batch",
        "core.forward_batch",
        (COLD,),
        units=_rows(1, "demands"),
    ),
    Entry(
        "repro.core.admm:AdmmFineTuner.fine_tune_batch",
        "core.admm",
        ALL,
        units=_rows(2, "demands"),
        after=_after_admm,
    ),
    Entry(
        "repro.lp.objectives:Objective.reward",
        "lp.objectives.reward",
        (OFFLINE, STREAM),
        units=_one,
        after=_after_reward,
    ),
    Entry(
        "repro.lp.objectives:Objective.reward_batch",
        "lp.objectives.reward",
        (COLD,),
        units=_rows(3, "demands"),
        after=_after_reward,
    ),
    # LP-all: interleaved on offline-te, the oracle on stream-te, cells on
    # cold-grid.
    Entry("repro.baselines.lp_all:LpAll.allocate", "baselines.lp_all", ALL),
    Entry("repro.baselines.lp_all:build_lp", "lp.build", ALL),
    Entry("repro.baselines.lp_all:solve_lp", "lp.solve", ALL, after=_after_solve),
    # Evaluation, at each import site that scores allocations.
    Entry(
        "repro.harness:evaluate_allocations_batch",
        "simulation.evaluate",
        (COLD,),
        units=_rows(2, "demands"),
    ),
    Entry(
        "repro.simulation.streaming:evaluate_allocations_batch",
        "simulation.evaluate",
        (STREAM,),
        units=_rows(2, "demands"),
    ),
    Entry(
        "perfbench.workloads:evaluate_allocations_batch",
        "simulation.evaluate",
        (OFFLINE, STREAM),
        units=_rows(2, "demands"),
    ),
    # The top-level calls the workloads make.
    Entry(
        "repro.simulation.streaming:StreamingEngine.run",
        "simulation.stream_run",
        (STREAM,),
    ),
    Entry("perfbench.workloads:run_scenario_grid", "sweep.grid", (COLD,)),
)


def install(tracer: Tracer) -> None:
    """Patch every entry point into ``tracer``."""
    for entry in ENTRY_POINTS:
        tracer.wrap(entry.target, entry.span, units=entry.units, after=entry.after)


def uninstall(tracer: Tracer) -> None:
    """Restore every entry point; a half-open acceptance pair is an error."""
    tracer.uninstall()
    if tracer.state.pop(ACCEPTANCE, None) is not None:
        raise RuntimeError("an ADMM run ended without its acceptance scores")


def check_fired(tracer: Tracer, workload: str) -> None:
    """Raise if an entry point the map names did not fire on ``workload``."""
    silent = [
        e.target
        for e in ENTRY_POINTS
        if workload in e.fires_on and not tracer.site_calls.get(e.target)
    ]
    if silent:
        raise RuntimeError(
            f"entry points that must fire on {workload} did not: "
            + ", ".join(silent)
        )
    counters = tracer.counters
    if counters.get("admm.verdicts", 0.0) != counters.get("admm.tms", 0.0):
        raise RuntimeError(
            "ADMM acceptance verdicts do not cover every ADMM-tuned TM: "
            f"{counters.get('admm.verdicts')} verdicts for "
            f"{counters.get('admm.tms')} TMs"
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, facts: dict) -> dict[str, float]:
    """Every per-layer metric of ``layer_map.json`` from one traced run.

    ``facts`` carries what the workload measured from outside the spans:
    ``traced_passes``, ``warm_frac``, ``stream_overhead_ms``, the grid's
    job timings and cell batches, and the tracing overhead. A layer that
    is not on a workload's path reads 0 (see ``applies_to`` in the map).
    """
    t = tracer
    c = t.counters

    def per_call_s(name: str) -> float:
        return t.per_call_ms(name) / 1000.0

    train = f"@{TRAIN}"
    admm = t.get("core.admm")
    values = {
        "harness.build_scenario_s": per_call_s("harness.build_scenario"),
        "paths.from_topology_s": per_call_s("paths.from_topology"),
        "topology.get_topology_s": per_call_s("topology.get_topology"),
        "traffic.generate_s": per_call_s("traffic.generate"),
        "core.train_s": per_call_s(TRAIN),
        "core.direct_loss_s": per_call_s("core.direct_loss" + train),
        "core.coma_s": per_call_s("core.coma" + train),
        "core.train_steps": _ratio(
            t.get("nn.adam_step" + train).calls, t.get(TRAIN).calls
        ),
        "nn.forward_batch_ms": t.per_call_ms("nn.forward_batch" + train),
        "nn.backward_ms": t.per_call_ms("nn.backward" + train),
        "nn.adam_step_ms": t.per_call_ms("nn.adam_step" + train),
        "core.forward_ms": t.per_call_ms("core.forward"),
        "core.forward_batch_ms_per_tm": t.per_unit_ms("core.forward_batch"),
        "core.admm_ms": t.per_unit_ms("core.admm"),
        "core.admm_iter_ms": 1000.0
        * _ratio(admm.inclusive_s, c.get("admm.tm_iterations", 0.0)),
        "core.admm_calls": _ratio(admm.calls, facts["traced_passes"]),
        "core.admm_accept_frac": _ratio(
            c.get("admm.accepted", 0.0), c.get("admm.verdicts", 0.0)
        ),
        "core.admm_overshoot_removed_frac": _ratio(
            c.get("admm.overshoot_before", 0.0) - c.get("admm.overshoot_after", 0.0),
            c.get("admm.overshoot_before", 0.0),
        ),
        "lp.objectives.reward_ms": t.per_unit_ms("lp.objectives.reward"),
        "lp.build_ms": t.per_call_ms("lp.build"),
        "lp.solve_ms": t.per_call_ms("lp.solve"),
        "lp.iterations": _ratio(c.get("lp.iterations", 0.0), t.get("lp.solve").calls),
        "simulation.evaluate_ms_per_tm": t.per_unit_ms("simulation.evaluate"),
    }
    for name in (
        "simulation.warm_frac",
        "simulation.stream_overhead_ms",
        "sweep.job_build_s",
        "sweep.job_train_s",
        "sweep.job_sweep_s",
        "sweep.cell_batches",
        "trace.overhead_pct",
        "trace.overhead_decision_ms_p50",
    ):
        values[name] = float(facts.get(name, 0.0))
    missing = set(LAYER_MAP["per_layer"]) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics out of sync with the map: {missing}")
    return values
