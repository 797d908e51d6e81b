"""The repo benchmark: one workload per fresh process, seeded.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline-te --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a run whose every second pass is traced (see
``perfbench/layers.py``). ``--workload all`` runs each workload in its
own child process. Every run prints its metrics by name with units, a
``record`` line (environment fingerprint, sample counts, failures and,
when traced, every span's calls, inclusive and self time), and as its
last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("offline-te", "stream-te", "cold-grid")
#: BLAS threads: one, as for a controller with a single caller; never
#: more than ``nproc``.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPRO_VARS = ("REPRO_BACKEND", "REPRO_SANITIZE", "REPRO_CELL_BATCH")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_probe_ms() -> float:
    """Median time of a fixed batch of 200x200 matrix products.

    Recorded next to every result so that a run taken during a slow
    episode of a shared host can be told apart from a slow program.
    """
    import numpy as np

    a = np.random.default_rng(0).random((200, 200))
    samples = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(20):
            a @ a
        samples.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(samples)


def fingerprint() -> dict:
    """The environment a record was measured in."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "env": {var: os.environ.get(var) for var in REPRO_VARS},
        "host_probe_ms": host_probe_ms(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # The library comes from this checkout's src/ and nowhere else; without
    # it the imports below fail and no result is printed.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")
    from perfbench import layers, workloads

    run = workloads.Run(seed=seed, seconds=seconds, trace=trace, root=ROOT)
    measured = workloads.WORKLOADS[workload](run)
    samples = measured.pop("samples")
    if trace:
        layers.check_fired(run.tracer, workload)
        values = layers.per_layer_metrics(run.tracer, run.facts)
        units = {k: v["unit"] for k, v in layers.LAYER_MAP["per_layer"].items()}
    else:
        values = measured
        units = {k: v["unit"] for k, v in layers.LAYER_MAP["end_to_end"].items()}
        if set(values) != set(units):
            raise RuntimeError(f"end-to-end metrics out of sync: {set(values) ^ set(units)}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}

    outcome = run.outcome
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"{'failed_frac':36s} {outcome.failed / max(outcome.attempted, 1):>14.6g} "
        f"({outcome.failed} of {outcome.attempted} operations)"
    )
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": fingerprint(),
        "samples": samples,
        "end_to_end": measured,
        "errors": outcome.errors,
    }
    if trace:
        record["layers"] = run.tracer.to_dict()
    print("record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh child process; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        print(f"== {workload}", flush=True)
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
