"""Benchmark of the SEO reproduction's CLI, end to end and layer by layer.

Run from the root of a checkout::

    python3 seobench/run.py --workload paper-batch --seed 0 --seconds 20 --trace 0

``--trace 0`` times real CLI commands as subprocesses for ``--seconds``
seconds, interleaving three invocations per round — the command at minimal
size (``setup_s``), the command itself (``wall_s``, ``frames_per_s``,
``cpu_s``, ``peak_rss_mb``) and its re-render from a ledger with
``--resume`` (``resume_s``) — and reports each metric's median over the
rounds.  ``--trace 1`` instead runs the command (and its resume) in process,
once untraced and once under :class:`tracer.Tracer`, and reports the
per-layer metrics.  Every output is checked against the other engine's
rendering of the same command and seed; a mismatch or non-zero exit counts
as a failed operation.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the full record
(per-invocation timings, quartiles, load averages, machine fingerprint) is
written under ``.seobench/results/`` and the trace under ``.seobench/trace/``.
Self-tests: ``python3 seobench/selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any

from harness import (
    Checkout,
    ReferenceFailed,
    fingerprint,
    host_probe_ms,
    invoke,
    reference,
    summarize,
)
from tracer import (
    BATCH_PHASES,
    Tracer,
    bindings_snapshot,
    import_package,
    percentile,
    tail_percentile,
)
from workloads import WORKLOADS, Workload

#: Everything a run (including its reference) must finish within.
RUN_BUDGET_S = 170.0

#: Resumes per round.  A resume takes about half a second, mostly
#: interpreter start and imports, so one sample per round left its median
#: noisier than the multi-second command's.
RESUMES_PER_ROUND = 3

#: End-to-end metrics and their units, reported with ``--trace 0``.
END_TO_END = {
    "wall_s": "s",
    "frames_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "resume_s": "s",
}

#: Every ``@kernel_contract`` kernel, by contract name.  The self-tests fail
#: when the package's kernel set drifts from this list.
KERNELS = (
    "BrakingDistanceBarrier.evaluate_batch",
    "BrakingDistanceBarrier.required_clearance_batch",
    "Centerline.curvature_at_batch",
    "Centerline.heading_at_batch",
    "Centerline.project_batch",
    "DeadlineLookupTable.query_batch",
    "DetectorModel.detect_batch",
    "ObstacleAvoidanceController.act_batch",
    "PurePursuitController.act_batch",
    "SafeIntervalEstimator.estimate_batch",
    "SteeringShield.filter_batch",
    "World.nearest_obstacle_view_batch",
    "begin_interval_kernel",
    "deadline_done_kernel",
    "discretized_deadline_kernel",
    "finish_period_kernel",
    "full_slot_kernel",
    "group_scan_rows",
    "natural_slot_kernel",
    "nearest_per_row",
    "rk4_plant_batch",
)


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics and their units, reported with ``--trace 1``."""
    units = {
        "sweep.units_declared": "count",
        "sweep.units_unique": "count",
        "sweep.units_executed": "count",
        "sweep.units_resumed": "count",
        "sweep.pools_created": "count",
        "sweep.self_s": "s",
        "batch.calls": "count",
        "batch.wall_s": "s",
        **{f"batch.{phase}_s": "s" for phase in BATCH_PHASES},
        "batch.unattributed_s": "s",
        "batch.lane_occupancy": "ratio",
    }
    for kernel in KERNELS:
        units[f"kernel.{kernel}.calls"] = "count"
        units[f"kernel.{kernel}.s"] = "s"
    units.update({
        "framework.init_s": "s",
        "framework.episode_s": "s",
        "sim.scan_calls": "count",
        "sim.scan_s": "s",
        "comm.offload_sample_calls": "count",
        "comm.offload_sample_s": "s",
        "cache.hits": "count",
        "cache.disk_hits": "count",
        "cache.misses": "count",
        "cache.build_s": "s",
        "remote.pool_start_s": "s",
        "remote.episodes_dispatched": "count",
        "remote.roundtrip_samples": "count",
        "remote.roundtrip_p50_s": "s",
        "remote.roundtrip_tail_pct": "pct",
        "remote.roundtrip_tail_s": "s",
        "workunit.key_calls": "count",
        "workunit.key_s": "s",
        "ledger.put_s": "s",
        "ledger.bytes_written": "bytes",
        "ledger.get_s": "s",
        "ledger.hit_ratio": "ratio",
        "experiments.aggregate_s": "s",
        "experiments.render_s": "s",
        "trace.wall_s": "s",
        "trace.unattributed_s": "s",
        "trace_overhead_s": "s",
    })
    return units


class Tally:
    """Operations attempted and failed, with a record of each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []

    def check(self, ok: bool, record: dict) -> bool:
        self.attempted += 1
        self.failed += not ok
        self.records.append({**record, "ok": ok})
        return ok


# ----------------------------------------------------------------------
# End-to-end run (--trace 0)
# ----------------------------------------------------------------------
def timed_run(
    checkout: Checkout, digest: str, workload: Workload, seed: int, seconds: float,
    deadline: float,
) -> tuple[dict, Tally, dict]:
    """Interleave setup / timed / resume invocations for ``seconds``."""
    ref = reference(checkout, digest, workload.reference_argv(seed), deadline - time.perf_counter())
    setup_ref = reference(
        checkout, digest, workload.reference_argv(seed, minimal=True),
        deadline - time.perf_counter(),
    )
    tally = Tally()

    def own_ledger(name: str) -> Path | None:
        return checkout.fresh_dir(name) if workload.own_ledger else None

    def run(argv: list[str], expected: str, phase: str) -> Any:
        result = invoke(checkout, argv, max(1.0, deadline - time.perf_counter()))
        ok = result.returncode == 0 and result.stdout == expected
        tally.check(ok, {"phase": phase, **result.record()})
        return result if ok else None

    # The reference run (now or when it was cached) has already compiled the
    # package's bytecode, which a user pays once per installation.
    samples: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    rounds: list[float] = []
    while True:
        round_start = time.perf_counter()
        setup = run(
            workload.argv(seed, minimal=True, ledger=own_ledger("setup-ledger")),
            setup_ref.stdout, "setup",
        )
        if setup is not None:
            samples["setup_s"].append(setup.wall_s)
        ledger = own_ledger("ledger")
        timed = run(workload.argv(seed, ledger=ledger), ref.stdout, "timed")
        if timed is not None:
            samples["wall_s"].append(timed.wall_s)
            samples["frames_per_s"].append(ref.frames / timed.wall_s)
            samples["cpu_s"].append(timed.cpu_s)
            samples["peak_rss_mb"].append(timed.peak_rss_mb)
        for _ in range(RESUMES_PER_ROUND):
            resume = run(
                workload.resume_argv(seed, ledger if ledger is not None else ref.ledger),
                ref.stdout, "resume",
            )
            if resume is not None:
                samples["resume_s"].append(resume.wall_s)
        now = time.perf_counter()
        rounds.append(now - round_start)
        # Stop at the round boundary closest to --seconds, and well inside
        # the run's budget.
        mean_round = sum(rounds) / len(rounds)
        if now - start + mean_round / 2 >= seconds or deadline - now < 1.5 * max(rounds):
            break

    stats = {name: summarize(values) for name, values in samples.items() if values}
    metrics = {
        name: {"value": stats[name]["median"] if name in stats else 0.0, "unit": unit}
        for name, unit in END_TO_END.items()
    }
    record = {
        "reference": {"frames": ref.frames, "wall_s": ref.wall_s, "cached": ref.cached},
        "stats": stats,
        "samples": samples,
    }
    return metrics, tally, record


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------
def in_process(argv: list[str]) -> tuple[str | None, float, Any]:
    """Run the CLI in this process with a fresh lookup-table cache.

    Returns the captured stdout (``None`` when the command failed), the wall
    time and the cache (its hit and miss counters belong to this invocation
    alone).
    """
    from repro import cli
    from repro.runtime.cache import LookupTableCache, set_default_cache

    cache = LookupTableCache()
    previous = set_default_cache(cache)
    buffer = io.StringIO()
    stdout: str | None = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            cli.run(argv)
        stdout = buffer.getvalue()
    except (Exception, SystemExit):
        # A failing command is a failed operation of the run, not a crash
        # of the benchmark.
        traceback.print_exc()
    finally:
        set_default_cache(previous)
    return stdout, time.perf_counter() - start, cache


def layer_metrics(tracer: Tracer, caches: list[Any], traced_s: float, plain_s: float) -> dict:
    """Per-layer metric values from a finished trace."""
    self_s = tracer.self_times()

    def self_total(name: str) -> float:
        return sum(self_s[span.id] for span in tracer.spans if span.name == name)

    values: dict[str, float] = {
        "sweep.units_declared": tracer.units_declared,
        "sweep.units_unique": len(tracer.unit_keys),
        "sweep.units_executed": sum(runner.units_executed for runner in tracer.runners),
        "sweep.units_resumed": sum(runner.units_resumed for runner in tracer.runners),
        "sweep.pools_created": sum(runner.pools_created for runner in tracer.runners),
        "sweep.self_s": self_total("sweep.run"),
        "batch.calls": tracer.count("batch.run_batch"),
        "batch.wall_s": tracer.total("batch.run_batch"),
    }
    for phase in BATCH_PHASES:
        values[f"batch.{phase}_s"] = tracer.batch_timings.get(phase, 0.0)
    values["batch.unattributed_s"] = values["batch.wall_s"] - sum(
        values[f"batch.{phase}_s"] for phase in BATCH_PHASES
    )
    values["batch.lane_occupancy"] = (
        tracer.batch_frames / tracer.batch_lanes if tracer.batch_lanes else 0.0
    )
    for kernel in KERNELS:
        calls, seconds = tracer.counter(f"kernel.{kernel}")
        values[f"kernel.{kernel}.calls"] = calls
        values[f"kernel.{kernel}.s"] = seconds
    scan_calls, scan_s = tracer.counter("sim.scan")
    offload_calls, offload_s = tracer.counter("comm.offload_sample")
    key_calls, key_s = tracer.counter("workunit.key")
    roundtrips = tracer.roundtrips_s
    tail = tail_percentile(len(roundtrips))
    values.update({
        "framework.init_s": tracer.total("framework.init"),
        "framework.episode_s": tracer.total("framework.episode"),
        "sim.scan_calls": scan_calls,
        "sim.scan_s": scan_s,
        "comm.offload_sample_calls": offload_calls,
        "comm.offload_sample_s": offload_s,
        "cache.hits": sum(cache.hits for cache in caches),
        "cache.disk_hits": sum(cache.disk_hits for cache in caches),
        "cache.misses": sum(cache.misses for cache in caches),
        "cache.build_s": tracer.total("cache.build"),
        "remote.pool_start_s": tracer.total("remote.pool_init") + sum(tracer.pool_start_s.values()),
        "remote.episodes_dispatched": tracer.counter("remote.submit")[0],
        "remote.roundtrip_samples": len(roundtrips),
        "remote.roundtrip_p50_s": percentile(roundtrips, 50.0) if roundtrips else 0.0,
        "remote.roundtrip_tail_pct": tail or 0.0,
        "remote.roundtrip_tail_s": percentile(roundtrips, tail) if tail else 0.0,
        "workunit.key_calls": key_calls,
        "workunit.key_s": key_s,
        "ledger.put_s": tracer.total("ledger.put"),
        "ledger.bytes_written": tracer.ledger_bytes,
        "ledger.get_s": tracer.total("ledger.get"),
        "ledger.hit_ratio": (
            tracer.ledger_hits / tracer.ledger_gets if tracer.ledger_gets else 0.0
        ),
        "experiments.aggregate_s": tracer.total("experiments.aggregate"),
        "experiments.render_s": tracer.total("experiments.render"),
        "trace.wall_s": traced_s,
        "trace.unattributed_s": self_total("cli.run"),
        "trace_overhead_s": traced_s - plain_s,
    })
    units = per_layer_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def traced_run(
    checkout: Checkout, digest: str, workload: Workload, seed: int, deadline: float,
    trace_path: Path,
) -> tuple[dict, Tally, dict]:
    """Run the command and its resume untraced, then traced, in process."""
    ref = reference(checkout, digest, workload.reference_argv(seed), deadline - time.perf_counter())
    import_package()
    tally = Tally()

    def invocations(tag: str) -> list[list[str]]:
        ledger = checkout.fresh_dir(f"ledger-{tag}") if workload.own_ledger else None
        return [
            workload.argv(seed, ledger=ledger),
            workload.resume_argv(seed, ledger if ledger is not None else ref.ledger),
        ]

    plain_s = 0.0
    plain_outputs = []
    for argv in invocations("plain"):
        stdout, wall_s, _ = in_process(argv)
        plain_s += wall_s
        plain_outputs.append(stdout)
        tally.check(stdout == ref.stdout, {"phase": "untraced", "argv": argv, "wall_s": wall_s})

    before = bindings_snapshot()
    tracer = Tracer()
    caches = []
    traced_s = 0.0
    with tracer.installed():
        for argv, plain in zip(invocations("traced"), plain_outputs, strict=True):
            with tracer.span("cli.run"):
                stdout, wall_s, cache = in_process(argv)
            traced_s += wall_s
            caches.append(cache)
            tally.check(
                stdout == ref.stdout and stdout == plain,
                {"phase": "traced", "argv": argv, "wall_s": wall_s},
            )
    restored = bindings_snapshot() == before
    tally.check(restored, {"phase": "restore"})

    metrics = layer_metrics(tracer, caches, traced_s, plain_s)
    summary = {name: metric["value"] for name, metric in metrics.items()}
    tracer.write_jsonl(trace_path, summary)
    record = {
        "reference": {"frames": ref.frames, "wall_s": ref.wall_s, "cached": ref.cached},
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "wrappers_restored": restored,
        "trace_file": str(trace_path.relative_to(checkout.root)),
    }
    return metrics, tally, record


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Termination unwinds through the cleanup that stops every child.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    checkout = Checkout(Path.cwd())
    if not checkout.is_complete():
        print(
            f"seobench: no program to benchmark under {checkout.src} "
            "(run from the root of a checkout holding src/repro)",
            file=sys.stderr,
        )
        return 2
    checkout.prepare()
    workload = WORKLOADS[args.workload]
    digest = checkout.source_digest()
    machine = fingerprint(checkout, digest)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, tally, record = traced_run(
                checkout, digest, workload, args.seed, deadline,
                checkout.scratch / "trace" / f"{tag}.jsonl",
            )
        else:
            metrics, tally, record = timed_run(
                checkout, digest, workload, args.seed, args.seconds, deadline
            )
    except ReferenceFailed as error:
        print(f"seobench: {error}", file=sys.stderr)
        return 1
    machine["loadavg_after"] = list(os.getloadavg())
    machine["host_probe_ms_after"] = host_probe_ms()

    results = checkout.scratch / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": workload.argv(args.seed),
        "fingerprint": machine,
        "invocations": tally.records,
        "metrics": metrics,
        "elapsed_s": time.perf_counter() - started,
        **record,
    }, indent=1))

    print(f"fingerprint {json.dumps(machine)}")
    for name, stat in record.get("stats", {}).items():
        print(
            f"{name:14s} median {stat['median']:.4f}  q1 {stat['q1']:.4f}  "
            f"q3 {stat['q3']:.4f}  n={stat['n']}"
        )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
