"""Measurement passes, correctness pins and metric assembly.

Untraced run (``--trace 0``): until ``--seconds`` have passed (and at
least :data:`MIN_CAMPAIGNS` times), one *round* of

1. a *cold* campaign: the whole grid in one ``Session.run_grid`` on a
   fresh cache directory and a pool of ``nproc`` forked workers;
2. a block of *warm* reruns of the same grid against the filled cache,
   at least :data:`WARM_BLOCK_S` of ``run_grid`` time (every shard must
   be a cache hit);
3. a block of replays of every shard's deployment in this process
   (``setup_s``), at least :data:`SETUP_BLOCK_S`;

then the peak resident set of client and workers.  The three kinds of
sample alternate for the whole run, so each sees the same mix of quiet
and busy moments of the host.  Every piece's wall time is scaled to a
host of nominal speed by :mod:`perfbench.hostspeed`, which times a fixed
reference loop where the piece runs.  Throughputs are total work over
total scaled time; ``setup_s`` is the median scaled replay.  The
unscaled wall-clock figures are printed above the result line.

Traced run (``--trace 1``): one cold + warm pool campaign (runner
counters, pool time), an inline warm-up campaign, one traced inline
cold + warm campaign with wrappers around every layer, and one untraced
inline campaign (the base of ``trace.overhead`` and
``runner.pool_efficiency``).

Every pass's results are hashed shard by shard.  At the default seed
the hashes must equal the pins in ``digests.json``; at any other seed
all passes must agree with the first.  A failed shard or a mismatch is
counted in ``failed`` and makes the command exit nonzero.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from perfbench import THREAD_VARS
from perfbench.hostspeed import HostSpeed
from perfbench.tracing import UNATTRIBUTED, Instrumentation, Tracer
from perfbench.workloads import WORKLOADS, build_deployment, policy_payload, shape_table, spec_rounds

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
#: Untracked output directory (caches of the campaigns, traces, results).
OUT_DIR = BENCH_DIR / "out"
DIGESTS_PATH = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
MIN_CAMPAIGNS = 3
WARM_BLOCK_S = 1.0
SETUP_BLOCK_S = 1.0

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("rounds_per_s", "1/s"),
    ("warm_shards_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("shard_success_rate", "ratio"),
)

#: (name, unit) of the per-layer metrics of the traced run.
PER_LAYER = (
    ("setup.topology_s", "s"),
    ("setup.link_model_s", "s"),
    ("setup.prr_matrix_s", "s"),
    ("setup.simulator_s", "s"),
    ("setup.protocol_s", "s"),
    ("glossy.run_calls", "count"),
    ("glossy.run_s", "s"),
    ("glossy.run_batch_calls", "count"),
    ("glossy.floods_batched", "count"),
    ("glossy.run_batch_s", "s"),
    ("glossy.us_per_batched_flood", "us"),
    ("interference.windows_calls", "count"),
    ("interference.windows_s", "s"),
    ("lwb.rounds", "count"),
    ("lwb.round_self_s", "s"),
    ("simulator.round_self_s", "s"),
    ("core.build_view_s", "s"),
    ("core.observe_s", "s"),
    ("core.decide_s", "s"),
    ("core.protocol_round_s", "s"),
    ("rl.forward_calls", "count"),
    ("rl.forward_s", "s"),
    ("baselines.pid_s", "s"),
    ("baselines.static_lwb_s", "s"),
    ("baselines.crystal_epochs", "count"),
    ("baselines.crystal_epoch_s", "s"),
    ("runner.executed", "count"),
    ("runner.cache_hits", "count"),
    ("runner.retries", "count"),
    ("runner.pool_restarts", "count"),
    ("runner.shard_p50_s", "s"),
    ("runner.shard_p95_s", "s"),
    ("runner.pool_efficiency", "ratio"),
    ("runner.seal_s", "s"),
    ("runner.open_s", "s"),
    ("runner.cache_load_s", "s"),
    ("runner.cache_store_s", "s"),
    ("runner.task_bytes", "B"),
    ("runner.result_bytes", "B"),
    ("api.prepare_key_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.other_share", "ratio"),
)


# ----------------------------------------------------------------------
# Correctness pins
# ----------------------------------------------------------------------
def result_digest(result: Any) -> Optional[str]:
    """SHA-256 of one typed shard result (``None`` for a failed shard)."""
    from repro.experiments.runner import FAILURE_KEY

    if isinstance(result, dict) and result.get(FAILURE_KEY):
        return None
    payload = dataclasses.asdict(result) if dataclasses.is_dataclass(result) else result
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins(workload: str) -> Optional[Dict[str, Any]]:
    if not DIGESTS_PATH.exists():
        return None
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8")).get(workload)


class ShardCheck:
    """Counts shards attempted and failed across every pass of a run.

    ``reference`` holds the expected digest per shard: the pinned ones
    at the default seed, otherwise those of the first pass.
    """

    def __init__(self, workload: str, seed: int, specs: Sequence[Any], tiny: bool) -> None:
        self.specs = list(specs)
        self.reference: Optional[List[Optional[str]]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        pins = None if tiny or seed != DEFAULT_SEED else load_pins(workload)
        if pins is not None:
            keys = [spec.key() for spec in self.specs]
            if [shard["key"] for shard in pins["shards"]] != keys:
                self.problems.append("pinned digests describe a different grid")
            self.reference = [shard["sha256"] for shard in pins["shards"]]
        elif not tiny and seed == DEFAULT_SEED:
            self.problems.append(f"no pinned digests for {workload} in {DIGESTS_PATH.name}")

    def check(self, name: str, results: Sequence[Any]) -> None:
        digests = [result_digest(result) for result in results]
        if self.reference is None:
            self.reference = digests
        for spec, digest, expected in zip(self.specs, digests, self.reference):
            self.attempted += 1
            if digest is None or digest != expected:
                self.failed += 1
                what = "failed" if digest is None else "digest mismatch"
                self.problems.append(f"{name} pass: {spec.describe()}: {what}")

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def pin_digests(workload_name: str) -> Path:
    """Record the default-seed digests of one workload (inline run)."""
    from repro.api import Session

    workload = WORKLOADS[workload_name]
    specs = workload.specs(DEFAULT_SEED, policy_payload())
    with campaign_dir() as cache:
        results = Session(max_workers=1, cache_dir=cache).run_grid(specs)
    pins = json.loads(DIGESTS_PATH.read_text(encoding="utf-8")) if DIGESTS_PATH.exists() else {}
    pins[workload_name] = {
        "seed": DEFAULT_SEED,
        "shards": [
            {"label": spec.label, "key": spec.key(), "sha256": result_digest(result)}
            for spec, result in zip(specs, results)
        ],
    }
    DIGESTS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return DIGESTS_PATH


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def worker_count() -> int:
    """``nproc``: CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextmanager
def campaign_dir() -> Iterator[Path]:
    """A fresh, untracked result-cache directory, removed afterwards."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def timed_grid(session: Any, specs: Sequence[Any]) -> tuple:
    started = time.perf_counter()
    results = session.run_grid(specs, collect_errors=True)
    return time.perf_counter() - started, results


def warm_block(
    session: Any, specs: Sequence[Any], check: ShardCheck, host: HostSpeed
) -> tuple:
    """Rerun the grid against the filled cache; every shard must be a hit.

    Reruns until their ``run_grid`` calls add up to :data:`WARM_BLOCK_S`
    (one rerun takes tens of milliseconds).  The result checks, and a
    host-speed probe in this thread, run between the timed calls.
    Returns ``(shards served, wall seconds, scaled seconds)``.
    """
    shards, busy, scaled = 0, 0.0, 0.0
    rate = host.probe()
    while shards == 0 or busy < WARM_BLOCK_S:
        hits, executed = session.stats.cache_hits, session.stats.executed
        elapsed, results = timed_grid(session, specs)
        after = host.probe()
        shards += len(specs)
        busy += elapsed
        scaled += host.scale(elapsed, rate, after)
        rate = after
        check.check("warm", results)
        check.expect(
            session.stats.cache_hits - hits == len(specs) and session.stats.executed == executed,
            "warm pass was not served entirely from the cache",
        )
    return shards, busy, scaled


def warm_up(workload_name: str, seed: int, payload: Dict[str, Any]) -> None:
    """Run the tiny grid of the workload once, untimed and uncached.

    Imports every module the shards need and fills the parent's lazy
    state before the first timed campaign, so forked workers start from
    the same state in every campaign.
    """
    from repro.api import Session

    Session(max_workers=1).run_grid(WORKLOADS[workload_name].specs(seed, payload, tiny=True))


def setup_block(specs: Sequence[Any], host: HostSpeed) -> List[tuple]:
    """Build every shard's deployment, one after the other, for at least
    :data:`SETUP_BLOCK_S`.  One ``(wall seconds, scaled seconds)`` per
    replay of the whole grid, scaled by host-speed probes in this thread
    before and after it."""
    replays: List[tuple] = []
    rate = host.probe()
    started = time.perf_counter()
    while not replays or time.perf_counter() - started < SETUP_BLOCK_S:
        total = 0.0
        for spec in specs:
            clock = time.perf_counter()
            deployment = build_deployment(spec)
            total += time.perf_counter() - clock
            del deployment
        after = host.probe()
        replays.append((total, host.scale(total, rate, after)))
        rate = after
        # Free the deployments' reference cycles now, not whenever the
        # collector next runs, so the peak resident set is repeatable.
        gc.collect()
    return replays


def peak_rss_mb() -> Dict[str, float]:
    """Peak resident set of this process and of the largest reaped child, in MB."""
    return {
        "client": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def fingerprint(seed: int, workers: int) -> Dict[str, Any]:
    """Machine and build facts recorded with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (REPO_ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": worker_count(),
        "workers": workers,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def measure(workload_name: str, seed: int, seconds: float, tiny: bool = False) -> Dict[str, Any]:
    from repro.api import Session

    workers = worker_count()
    payload = policy_payload()
    specs = WORKLOADS[workload_name].specs(seed, payload, tiny)
    check = ShardCheck(workload_name, seed, specs, tiny)
    warm_up(workload_name, seed, payload)
    total_rounds = sum(spec_rounds(spec) for spec in specs)
    # Cold campaigns as (wall seconds, start mark, end mark); warm blocks
    # and setup replays as (wall seconds, scaled seconds).
    cold: List[tuple] = []
    warm: List[tuple] = []
    setups: List[tuple] = []
    warm_shards = 0
    results: List[Any] = []
    with HostSpeed() as host:
        started = time.perf_counter()
        while len(cold) < MIN_CAMPAIGNS or time.perf_counter() - started < seconds:
            # Every campaign forks its workers from the same clean heap.
            gc.collect()
            with campaign_dir() as cache:
                session = Session(max_workers=workers, cache_dir=cache)
                begun = host.mark()
                elapsed, results = timed_grid(session, specs)
                cold.append((elapsed, begun, host.mark()))
                check.check("cold", results)
                shards, busy, scaled = warm_block(session, specs, check, host)
                warm.append((busy, scaled))
                warm_shards += shards
            setups.extend(setup_block(specs, host))
        # Before the sidecar is reaped: its peak must not count as a worker's.
        rss = peak_rss_mb()
    cold_scaled = [host.nominal(*piece) for piece in cold]

    def column(pieces: List[tuple], index: int) -> List[float]:
        return [piece[index] for piece in pieces]

    values = {
        "rounds_per_s": total_rounds * len(cold) / sum(cold_scaled),
        "warm_shards_per_s": warm_shards / sum(column(warm, 1)),
        "setup_s": statistics.median(column(setups, 1)),
        "peak_rss_mb": max(rss.values()),
        "shard_success_rate": 1.0 - check.failed / max(check.attempted, 1),
    }
    wall_clock = {
        "rounds_per_s": total_rounds * len(cold) / sum(column(cold, 0)),
        "warm_shards_per_s": warm_shards / sum(column(warm, 0)),
        "setup_s": statistics.median(column(setups, 0)),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    return {
        "workload": workload_name,
        "check": check,
        "metrics": metrics,
        "wall": wall_clock,
        "host_factor": host.factor(),
        "samples": {
            "cold_s": column(cold, 0),
            "cold_nominal_s": cold_scaled,
            "warm_shards": warm_shards,
            "warm_s": column(warm, 0),
            "warm_nominal_s": column(warm, 1),
            "setup_s": column(setups, 0),
            "setup_nominal_s": column(setups, 1),
            "host_rates": host.samples,
            "rss_mb": rss,
        },
        "shape": shape_table(specs, results),
        "fingerprint": fingerprint(seed, workers),
    }


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    traced_cold_s: float,
    untraced_inline_s: float,
    pool_s: float,
    workers: int,
    stats: Dict[str, int],
    task_bytes: int,
    result_bytes: int,
) -> Dict[str, float]:
    """Assemble :data:`PER_LAYER` from the spans and the untraced timings.

    ``trace.overhead`` compares like with like: the traced cold pass
    against the untraced inline cold pass.
    """
    totals = tracer.aggregate()

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    floods = int(totals.get("glossy.run_batch", {}).get("amount", 0))
    shards = tracer.durations("runner.shard")
    attributed = sum(entry["self_s"] for name, entry in totals.items() if name not in UNATTRIBUTED)
    values = {
        "setup.topology_s": self_s("setup.topology"),
        "setup.link_model_s": self_s("setup.link_model"),
        "setup.prr_matrix_s": self_s("setup.prr_matrix"),
        "setup.simulator_s": self_s("setup.simulator"),
        "setup.protocol_s": self_s("setup.protocol"),
        "glossy.run_calls": calls("glossy.run"),
        "glossy.run_s": self_s("glossy.run"),
        "glossy.run_batch_calls": calls("glossy.run_batch"),
        "glossy.floods_batched": floods,
        "glossy.run_batch_s": self_s("glossy.run_batch"),
        "glossy.us_per_batched_flood": 1e6 * self_s("glossy.run_batch") / floods if floods else 0.0,
        "interference.windows_calls": calls("interference.windows"),
        "interference.windows_s": self_s("interference.windows"),
        "lwb.rounds": calls("lwb.round"),
        "lwb.round_self_s": self_s("lwb.round"),
        "simulator.round_self_s": self_s("simulator.round"),
        "core.build_view_s": self_s("core.build_view"),
        "core.observe_s": self_s("core.observe"),
        "core.decide_s": self_s("core.decide"),
        "core.protocol_round_s": self_s("core.protocol_round"),
        "rl.forward_calls": calls("rl.forward"),
        "rl.forward_s": self_s("rl.forward"),
        "baselines.pid_s": self_s("baselines.pid"),
        "baselines.static_lwb_s": self_s("baselines.static_lwb"),
        "baselines.crystal_epochs": calls("baselines.crystal_epoch"),
        "baselines.crystal_epoch_s": self_s("baselines.crystal_epoch"),
        "runner.executed": stats["executed"],
        "runner.cache_hits": stats["cache_hits"],
        "runner.retries": stats["retries"],
        "runner.pool_restarts": stats["pool_restarts"],
        "runner.shard_p50_s": float(np.percentile(shards, 50)) if shards else 0.0,
        "runner.shard_p95_s": float(np.percentile(shards, 95)) if shards else 0.0,
        "runner.pool_efficiency": untraced_inline_s / (workers * pool_s),
        "runner.seal_s": self_s("runner.seal"),
        "runner.open_s": self_s("runner.open"),
        "runner.cache_load_s": self_s("runner.cache_load"),
        "runner.cache_store_s": self_s("runner.cache_store"),
        "runner.task_bytes": task_bytes,
        "runner.result_bytes": result_bytes,
        "api.prepare_key_s": self_s("api.prepare_key"),
        "trace.overhead": traced_cold_s / untraced_inline_s - 1.0,
        "trace.other_share": 1.0 - attributed / traced_wall_s,
    }
    return values


def trace(workload_name: str, seed: int, tiny: bool = False) -> Dict[str, Any]:
    from repro.api import Session
    from repro.experiments.resilience import seal_result

    workers = worker_count()
    payload = policy_payload()
    specs = WORKLOADS[workload_name].specs(seed, payload, tiny)
    check = ShardCheck(workload_name, seed, specs, tiny)
    warm_up(workload_name, seed, payload)

    with campaign_dir() as cache:
        session = Session(max_workers=workers, cache_dir=cache)
        pool_s, results = timed_grid(session, specs)
        check.check("cold", results)
        _, results = timed_grid(session, specs)
        check.check("warm", results)
        stats = session.stats.as_dict()
        task_bytes = sum(len(pickle.dumps(session.prepare(spec).task())) for spec in specs)
        entries = session.run_entries(specs)
        result_bytes = sum(len(pickle.dumps(seal_result(entry))) for entry in entries)

    def inline_pass(name: str) -> float:
        with campaign_dir() as cache:
            elapsed, results = timed_grid(Session(max_workers=1, cache_dir=cache), specs)
        check.check(name, results)
        return elapsed

    # The first inline pass only warms this process (imports, heap) so
    # that the traced and untraced passes after it start alike.
    inline_pass("inline warm-up")
    tracer = Tracer()
    with campaign_dir() as cache:
        session = Session(max_workers=1, cache_dir=cache)
        with Instrumentation(tracer):
            traced_cold_s, cold_results = timed_grid(session, specs)
            traced_warm_s, warm_results = timed_grid(session, specs)
    check.check("traced cold", cold_results)
    check.check("traced warm", warm_results)
    inline_s = inline_pass("inline")

    values = layer_metrics(
        tracer,
        traced_wall_s=traced_cold_s + traced_warm_s,
        traced_cold_s=traced_cold_s,
        untraced_inline_s=inline_s,
        pool_s=pool_s,
        workers=workers,
        stats=stats,
        task_bytes=task_bytes,
        result_bytes=result_bytes,
    )
    return {
        "workload": workload_name,
        "check": check,
        "metrics": {name: _metric(values[name], unit) for name, unit in PER_LAYER},
        "spans": tracer.columns(),
        "samples": {
            "pool_s": pool_s,
            "inline_s": inline_s,
            "traced_cold_s": traced_cold_s,
            "traced_warm_s": traced_warm_s,
        },
        "shape": shape_table(specs, cold_results),
        "fingerprint": fingerprint(seed, workers),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report(run: Dict[str, Any], traced: bool, out=sys.stdout) -> Dict[str, Any]:
    """Print the human-readable block and return the result line object."""
    check: ShardCheck = run["check"]
    print(f"== {run['workload']} ({'traced' if traced else 'untraced'})", file=out)
    print("fingerprint: " + json.dumps(run["fingerprint"], sort_keys=True), file=out)
    for row in run["shape"]:
        print(
            "shape: {protocol:>8} @ {interference:<5} reliability={reliability:.4f} "
            "radio_on_ms={radio_on_ms:.3f} energy_j={energy_j:.4f}".format(**row),
            file=out,
        )
    for name, metric in run["metrics"].items():
        print(f"metric: {name} = {metric['value']:.6g} {metric['unit']}", file=out)
    if "wall" in run:
        print(f"host: speed {run['host_factor']:.3f} of nominal; wall-clock figures: "
              + ", ".join(f"{name} = {value:.6g}" for name, value in run["wall"].items()), file=out)
    error_rate = check.failed / max(check.attempted, 1)
    print(f"metric: shard_error_rate = {error_rate:.6g} ratio "
          f"({check.failed} of {check.attempted} shards)", file=out)
    for problem in check.problems[:20]:
        print(f"problem: {problem}", file=out)
    return {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": run["metrics"],
    }


def write_record(run: Dict[str, Any], line: Dict[str, Any], seed: int, traced: bool) -> Path:
    """Keep the full result (and the spans of a traced run) under ``out/``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{run['workload']}-seed{seed}-trace{int(traced)}"
    record = {
        "result": line,
        "fingerprint": run["fingerprint"],
        "shape": run["shape"],
        "samples": run["samples"],
        "problems": run["check"].problems,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if traced:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(run["spans"]) + "\n", encoding="utf-8")
    return OUT_DIR / f"{stem}.json"
