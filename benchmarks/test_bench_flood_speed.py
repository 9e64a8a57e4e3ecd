"""Throughput benchmark: flood path and round path across engine generations.

Measures, on 50- to 500-node topologies under the controlled-jamming
environment of the interference sweep:

* **flood path** — floods/sec of the scalar reference vs the vectorized
  engine (clean and interfered), plus LWB rounds/sec on the historic
  8-source workload tracked since PR 1;
* **round path** — rounds/sec of the struct-of-arrays round path
  (``NodeStateArray`` + batched data-slot floods, PR 3) vs the PR 2
  per-slot round kept here as :func:`_reference_round` (per-flood
  floods, per-node Python bookkeeping), executed back to back over the
  *same* engine so the comparison is robust against machine-speed
  fluctuations.  The
  workload schedules 32 data slots per round — the broadcast-style
  round shape the paper's ``N`` sources produce at scale.  Since PR 4
  the section also times the round path with the PR 3-style *per-flood
  product loop* re-selected (``reception_kernel = "per-flood"``) and
  with the log-matmul engine (``"vectorized-log"``), all interleaved,
  so the batched reception kernel's in-run ratios are recorded next to
  the measured max deviation of the log kernel from the exact one;
* **round path at scale** — 1000- and 2000-node round-path-only points
  (no scalar flood path, no per-node reference nodes — both would take
  minutes there): exact batched kernel vs the per-flood product loop
  vs the log-matmul engine over a shared ``LinkModel``.

Results are printed as tables and recorded in
``benchmarks/out/BENCH_flood_speed.json`` (git-ignored, so test runs
never touch tracked files; the committed ``BENCH_flood_speed.json`` at
the repository root is the reference record of the trajectory).  Enforced bars (ratios, not absolute rates — this VM shows ~2x
CPU-steal swings, so only in-run comparisons are trustworthy):

* vectorized >= 5x the scalar reference on the interfered flood
  workload at every size (relative, in-run);
* PR 2's array-backed engine >= 2x the PR 1 vectorized engine on the
  100-node interfered flood workload (absolute baseline from the
  reference machine; skipped with ``REPRO_BENCH_SKIP_PR1_BAR=1``);
* the array round path vs the PR 2 round path at 200 nodes on the
  32-slot round workload — >= 2x against the in-run reference path
  (the CI bench-ratio gate runs exactly this size), plus >= 1.8x at
  100 and >= 1.2x at 500 in-run;
* **PR 4**: the batched reception kernel must never fall behind the
  per-flood product loop it replaced (in-run floors per size), the
  log-matmul round path must be >= 2x the product loop at 500+ nodes,
  and the log kernel's measured max probability deviation from the
  exact kernel must stay under 1e-9.

``REPRO_BENCH_SIZES`` (comma-separated node counts) restricts the sweep
— CI's smoke step runs ``REPRO_BENCH_SIZES=50``, the bench-ratio gate
``REPRO_BENCH_SIZES=200`` and the log-mode smoke
``REPRO_BENCH_SIZES=1000`` — and the JSON is only rewritten when the
full default size set ran.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import jamming_interference
from repro.net.channels import ChannelHopper
from repro.net.energy import RadioOnTracker
from repro.net.glossy import FloodResult, GlossyFlood
from repro.net.link import LinkModel
from repro.net.lwb import LWBRoundEngine, RoundResult, Schedule, SlotResult
from repro.net.node import NodeRole, NodeStateArray
from repro.net.packet import DataPacket, DimmerFeedbackHeader
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import kiel_testbed, random_topology


class _ReferenceNodeStatistics:
    """PR 2's plain-attribute ``NodeStatistics`` (benchmark reference).

    The reference round path must pay PR 2's actual per-node
    bookkeeping cost, not the cost of PR 3's array-backed views, so the
    reference nodes mirror the original dataclasses with plain Python
    attributes."""

    __slots__ = ("packets_expected", "packets_received", "radio_on")

    def __init__(self):
        self.packets_expected = 0
        self.packets_received = 0
        self.radio_on = RadioOnTracker()

    @property
    def reliability(self):
        if self.packets_expected == 0:
            return 1.0
        return self.packets_received / self.packets_expected

    def to_feedback(self):
        return DimmerFeedbackHeader(
            radio_on_ms=self.radio_on.recent_average_ms,
            reliability=self.reliability,
        )


class _ReferenceNode:
    """PR 2's plain-attribute ``Node`` (benchmark reference)."""

    __slots__ = (
        "node_id", "position", "role", "n_tx", "synchronized",
        "statistics", "neighbor_feedback",
    )

    def __init__(self, node_id, position, role):
        self.node_id = node_id
        self.position = position
        self.role = role
        self.n_tx = 3
        self.synchronized = True
        self.statistics = _ReferenceNodeStatistics()
        self.neighbor_feedback = {}

    @property
    def is_passive(self):
        return self.role is NodeRole.PASSIVE

    @property
    def effective_n_tx(self):
        return 0 if self.is_passive else self.n_tx

    def apply_n_tx(self, n_tx):
        self.n_tx = n_tx

    def observe_feedback(self, source, feedback):
        self.neighbor_feedback[source] = feedback


def _reference_round(engine, nodes, schedule, start_ms, interference):
    """PR 2's per-slot LWB round (benchmark reference).

    Runs ``schedule`` over a dict of :class:`_ReferenceNode` in topology
    order through ``engine``'s flood engine, hopper and slot timing the
    way PR 2's round did: one ``GlossyFlood.run`` per data slot and
    per-node attribute updates for sync flags, ``n_tx``, overheard
    feedback and statistics (broadcast semantics, feedback on).  It is
    the in-run reference of the round-path speedup bars.
    """
    coordinator = engine.topology.coordinator
    flood_engine = engine.flood
    all_ids = list(nodes.keys())
    if tuple(all_ids) != flood_engine.node_ids:
        raise ValueError("reference nodes must be in topology order")
    n = len(all_ids)
    ids_arr = np.array(all_ids, dtype=np.int64)
    pos = {node: i for i, node in enumerate(all_ids)}
    slot_stride = engine.slot_ms + engine.slot_gap_ms

    # Control slot: flood the schedule from the coordinator.
    control_flood = flood_engine.run(
        initiator=coordinator,
        n_tx=max(schedule.n_tx, 1),
        packet_bytes=schedule.to_packet(coordinator).total_bytes,
        channel=engine.hopper.control_channel(),
        start_ms=start_ms,
        interference=interference,
        participants=None,
        max_slot_ms=engine.slot_ms,
    )
    synchronized = control_flood.received_array.copy()
    radio_on = control_flood.radio_on_array.copy()
    synchronized[pos[coordinator]] = True

    sync_list = synchronized.tolist()
    for i, node_id in enumerate(all_ids):
        nodes[node_id].synchronized = sync_list[i]
    for node_id in ids_arr[synchronized].tolist():
        nodes[node_id].apply_n_tx(schedule.n_tx)
    effective_n_tx = np.fromiter(
        (nodes[node_id].effective_n_tx for node_id in all_ids), dtype=np.int64, count=n
    )

    packets_expected = np.zeros(n, dtype=np.int64)
    packets_received = np.zeros(n, dtype=np.int64)
    destination_mask = np.ones(n, dtype=bool)

    # Data slots, one flood at a time.
    slot_results = []
    sync_rows = np.flatnonzero(synchronized)
    for slot_index, source in enumerate(schedule.slots):
        channel = engine.hopper.data_channel(slot_index)
        source_pos = pos[source]
        slot_destinations = destination_mask.copy()
        slot_destinations[source_pos] = False

        if not synchronized[source_pos]:
            radio_on += engine.slot_ms
            packets_expected[slot_destinations] += 1
            empty = FloodResult.empty(
                initiator=source,
                node_ids=all_ids,
                slot_duration_ms=engine.slot_ms,
                channel=channel,
                radio_on_ms=engine.slot_ms,
            )
            slot_results.append(
                SlotResult(slot_index=slot_index, source=source, channel=channel, flood=empty)
            )
            continue

        flood = flood_engine.run(
            initiator=source,
            n_tx=effective_n_tx,
            packet_bytes=DataPacket(source=source).total_bytes,
            channel=channel,
            start_ms=start_ms + (slot_index + 1) * slot_stride,
            interference=interference,
            participants=synchronized,
            max_slot_ms=engine.slot_ms,
        )
        feedback = nodes[source].statistics.to_feedback()
        slot_radio = np.full(n, engine.slot_ms)
        received_full = np.zeros(n, dtype=bool)
        slot_radio[sync_rows] = flood.radio_on_array
        received_full[sync_rows] = flood.received_array
        radio_on += slot_radio
        packets_expected[slot_destinations] += 1
        packets_received[slot_destinations & received_full] += 1
        for node_id in ids_arr[received_full].tolist():
            nodes[node_id].observe_feedback(source, feedback)
        slot_results.append(
            SlotResult(
                slot_index=slot_index,
                source=source,
                channel=channel,
                flood=flood,
                feedback=feedback,
            )
        )

    num_slots = len(schedule.slots) + 1
    expected_list = packets_expected.tolist()
    received_list = packets_received.tolist()
    per_slot_list = (radio_on / num_slots).tolist()
    for i, node_id in enumerate(all_ids):
        statistics = nodes[node_id].statistics
        statistics.packets_expected = expected_list[i]
        statistics.packets_received = received_list[i]
        statistics.radio_on.record_slot(per_slot_list[i])

    engine.hopper.advance_round(len(schedule.slots))

    return RoundResult(
        round_index=schedule.round_index,
        schedule=schedule,
        start_ms=start_ms,
        control_flood=control_flood,
        slots=slot_results,
        synchronized=synchronized,
        radio_on_ms=radio_on,
        packets_expected=packets_expected,
        packets_received=packets_received,
        node_ids=all_ids,
    )

#: Engines of the flood-path comparison tables (the log engine only
#: differs on the batched round path, so it is measured there instead).
ENGINE_COMPARISON = ("scalar", "vectorized")

#: Per-size workload: the scalar reference is O(N^2)-ish per flood, so
#: larger topologies run fewer floods to keep the benchmark quick.
SIZES = {
    50: {"floods": 150, "rounds": 10},
    100: {"floods": 120, "rounds": 8},
    200: {"floods": 60, "rounds": 6},
    500: {"floods": 20, "rounds": 2},
}
ROUND_SOURCES = 8
REPEATS = 3

#: Round-path workload: data slots per round and timed rounds per size.
ROUND_PATH_SLOTS = 32
ROUND_PATH_ROUNDS = {50: 10, 100: 8, 200: 6, 500: 4, 1000: 2, 2000: 1}
#: The enforced bars ride on the best-of ratio, so the round path takes
#: extra repeats to keep the measurement tight on noisy machines.
ROUND_PATH_REPEATS = 7

#: Round-path-only points at 1000/2000 nodes: the scalar flood path and
#: the per-node PR 2 reference nodes would take minutes there, so these
#: sizes time only the store round path under the three kernels (exact
#: batched, PR 3 per-flood product loop, log-matmul), over one shared
#: LinkModel.
XL_ROUND_PATH_SIZES = (1000, 2000)
XL_ROUND_PATH_REPEATS = 2

#: In-run bars: array round path vs the PR 2 reference round path.  The
#: reference shares this PR's engine-level gains (closed-form penalty
#: windows etc.), so the in-run ratio *understates* the full speedup vs
#: the true PR 2 engine; the 200-node bar is what CI's bench-ratio gate
#: enforces on every push.
ROUND_PATH_BARS = {100: 1.8, 200: 2.0, 500: 1.2}

#: In-run floors: the batched reception kernel vs the PR 3-style
#: per-flood product loop it replaced (same store orchestration, same
#: draws, bit-identical results).  At small sizes the shared round
#: bookkeeping dominates and the two kernels tie; at scale the batched
#: kernel must win outright.
KERNEL_FLOOR_VS_PRODUCT_LOOP = {50: 0.8, 100: 0.85, 200: 0.85, 500: 0.9, 1000: 1.2, 2000: 1.3}

#: In-run bars: the log-matmul round path vs the per-flood product
#: loop; this is the ">= 2x at 500+ nodes" acceptance multiple of the
#: one-shot reception kernel (measured 2.6x/4.2x/3.5x at 500/1000/2000
#: in this PR's session).
LOG_BARS_VS_PRODUCT_LOOP = {500: 2.0, 1000: 2.0, 2000: 2.0}

#: Upper bound on the log kernel's probability deviation from the exact
#: masked product (measured values sit around 1e-13).
LOG_DEVIATION_BOUND = 1e-9

#: Throughput of the PR 1 vectorized engine (per-node dict materialization
#: at every flood, penalty_batch re-evaluated per phase), measured on the
#: same machine right before the PR 2 array-backed refactor.  The 2x bar
#: below compares against these numbers.
PR1_VECTORIZED_BASELINE = {
    100: {
        "floods_per_sec_clean": 2787.8,
        "floods_per_sec_interfered": 956.6,
        "rounds_per_sec_interfered": 105.8,
    },
    200: {
        "floods_per_sec_clean": 2208.2,
        "floods_per_sec_interfered": 911.3,
        "rounds_per_sec_interfered": 95.8,
    },
}

#: Rounds/sec of the PR 2 engine (commit 9cb1548) on the 32-slot round
#: workload, measured on the reference machine right before the PR 3
#: node-state refactor.  Informational trajectory record; the enforced
#: round-path bars compare against the in-run reference path instead.
PR2_ROUND_PATH_BASELINE = {100: 84.0, 200: 62.3, 500: 22.3}

BENCH_PATH = Path(__file__).resolve().parent / "out" / "BENCH_flood_speed.json"


def _selected_sizes():
    """Benchmark sizes, optionally filtered via ``REPRO_BENCH_SIZES``.

    Returns ``(sizes, xl_sizes)``: the full-comparison sizes (flood
    path + round path) and the round-path-only 1000/2000-node points.
    """
    override = os.environ.get("REPRO_BENCH_SIZES")
    if not override:
        return dict(SIZES), list(XL_ROUND_PATH_SIZES)
    wanted = {int(token) for token in override.split(",") if token.strip()}
    selected = {size: workload for size, workload in SIZES.items() if size in wanted}
    xl_selected = [size for size in XL_ROUND_PATH_SIZES if size in wanted]
    if not selected and not xl_selected:
        raise ValueError(f"REPRO_BENCH_SIZES={override!r} selects no known size")
    return selected, xl_selected


def _time_floods(topology, engine, interference, floods):
    """Best-of-REPEATS floods/sec for one engine."""
    link_model = LinkModel(topology, seed=1)
    flood = GlossyFlood(
        topology, link_model, rng=np.random.default_rng(0), engine=engine
    )
    flood.run(initiator=0, n_tx=3, interference=interference)  # warm caches
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for index in range(floods):
            flood.run(
                initiator=topology.node_ids[index % topology.num_nodes],
                n_tx=3,
                interference=interference,
                start_ms=index * 22.0,
            )
        best = min(best, time.perf_counter() - start)
    return floods / best


def _time_rounds(topology, engine, interference, rounds):
    """Best-of-REPEATS LWB rounds/sec for one engine (8-source workload)."""
    best = float("inf")
    sources = topology.node_ids[:ROUND_SOURCES]
    for repeat in range(REPEATS):
        simulator = NetworkSimulator(
            topology,
            SimulatorConfig(
                round_period_s=1.0, channel_hopping=False, engine=engine, seed=7
            ),
            sources=sources,
        )
        simulator.set_interference(interference)
        simulator.run_round(n_tx=3)  # warm caches
        start = time.perf_counter()
        for _ in range(rounds):
            simulator.run_round(n_tx=3)
        best = min(best, time.perf_counter() - start)
    return rounds / best


def _store_simulator(topology, interference, engine, kernel):
    """A fresh 32-slot round-path simulator with the given kernel."""
    simulator = NetworkSimulator(
        topology,
        SimulatorConfig(
            round_period_s=1.0, channel_hopping=False, engine=engine, seed=7
        ),
        sources=list(topology.node_ids[:ROUND_PATH_SLOTS]),
    )
    simulator.set_interference(interference)
    simulator.engine.flood.reception_kernel = kernel
    return simulator


#: Round-path configurations timed back to back: the store path under
#: the exact batched kernel (what every simulator runs), under the PR 3
#: per-flood product loop, and under the log-matmul engine.
ROUND_PATH_KERNELS = {
    "rounds_per_sec": ("vectorized", "batched"),
    "rounds_per_sec_product_loop": ("vectorized", "per-flood"),
    "rounds_per_sec_log": ("vectorized-log", "batched"),
}


def _time_round_path(topology, interference, rounds):
    """Best-of-REPEATS rounds/sec of the round-path configurations.

    Times, interleaved within every repeat so machine-speed drift
    cancels out of the ratios:

    * the **store path** (``NodeStateArray`` + one batched phase loop
      for all data slots) under the exact batched reception kernel,
      the PR 3-style per-flood product loop, and the log-matmul engine;
    * the **PR 2 reference path**: :func:`_reference_round` over a dict
      of PR 2-style plain-attribute nodes and the same engine (one flood
      at a time, per-node attribute updates) — i.e. it pays PR 2's
      actual bookkeeping cost.
    """
    slots = tuple(topology.node_ids[:ROUND_PATH_SLOTS])
    best = {name: float("inf") for name in ROUND_PATH_KERNELS}
    best_reference = float("inf")
    for repeat in range(ROUND_PATH_REPEATS):
        for name, (engine_name, kernel) in ROUND_PATH_KERNELS.items():
            simulator = _store_simulator(topology, interference, engine_name, kernel)
            simulator.run_round(n_tx=3)  # warm caches
            start = time.perf_counter()
            for _ in range(rounds):
                simulator.run_round(n_tx=3)
            best[name] = min(best[name], time.perf_counter() - start)

        engine = LWBRoundEngine(
            topology,
            hopper=ChannelHopper(enabled=False),
            rng=np.random.default_rng(7),
            engine="vectorized",
        )
        nodes = {
            node_id: _ReferenceNode(
                node_id,
                topology.positions[node_id],
                (
                    NodeRole.COORDINATOR
                    if node_id == topology.coordinator
                    else NodeRole.FORWARDER
                ),
            )
            for node_id in topology.node_ids
        }
        _reference_round(
            engine, nodes, Schedule(round_index=0, n_tx=3, slots=slots), 0.0, interference
        )
        start = time.perf_counter()
        for index in range(rounds):
            _reference_round(
                engine,
                nodes,
                Schedule(round_index=index + 1, n_tx=3, slots=slots),
                (index + 1) * 1000.0,
                interference,
            )
        best_reference = min(best_reference, time.perf_counter() - start)
    rates = {name: rounds / value for name, value in best.items()}
    rates["rounds_per_sec_reference"] = rounds / best_reference
    return rates


def _log_kernel_deviation(link_model, samples=20, seed=0):
    """Measured max |exact - log| probability deviation on one topology.

    Samples transmitter sets of several densities and compares the
    exact failure products against the log-matmul back-transform —
    the recorded number documents how "approximate-but-close" the
    ``vectorized-log`` engine actually is on this deployment.
    """
    prr = link_model.prr_matrix()
    failure = 1.0 - prr
    log_failure = link_model.log_failure_matrix()
    n = prr.shape[0]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for num_tx in (2, max(2, n // 20), max(2, n // 4), max(2, n // 2)):
        for _ in range(samples):
            tx = np.sort(rng.choice(n, size=min(num_tx, n), replace=False))
            exact = 1.0 - failure[tx].prod(axis=0)
            mask = np.zeros(n)
            mask[tx] = 1.0
            approximate = -np.expm1(mask @ log_failure)
            worst = max(worst, float(np.abs(exact - approximate).max()))
    return worst


def _round_path_entry(rates, num_nodes, deviation):
    """Assemble the recorded ``round_path`` section from timed rates."""
    entry = {
        "slots": ROUND_PATH_SLOTS,
        "log_max_abs_deviation": deviation,
        **rates,
    }
    entry["kernel_speedup_vs_product_loop"] = (
        rates["rounds_per_sec"] / rates["rounds_per_sec_product_loop"]
    )
    entry["log_speedup_vs_product_loop"] = (
        rates["rounds_per_sec_log"] / rates["rounds_per_sec_product_loop"]
    )
    if "rounds_per_sec_reference" in rates:
        entry["speedup_vs_reference"] = (
            rates["rounds_per_sec"] / rates["rounds_per_sec_reference"]
        )
    if num_nodes in PR2_ROUND_PATH_BASELINE:
        entry["pr2_session_baseline"] = PR2_ROUND_PATH_BASELINE[num_nodes]
        entry["improvement_vs_pr2_session"] = (
            rates["rounds_per_sec"] / PR2_ROUND_PATH_BASELINE[num_nodes]
        )
    return entry


def _benchmark_xl_round_path(num_nodes):
    """Round-path-only point at 1000/2000 nodes.

    One shared ``LinkModel`` serves the three kernel configurations
    (its O(N^2) construction dominates setup at these sizes), and every
    configuration drives a fresh ``NodeStateArray`` store through the
    same 32-slot round workload, interleaved per repeat.
    """
    topology = random_topology(num_nodes, seed=3)
    link_model = LinkModel(topology, seed=1)
    link_model.prr_matrix()  # build once, shared below
    interference = jamming_interference(topology, 0.2)
    slots = tuple(topology.node_ids[:ROUND_PATH_SLOTS])
    rounds = ROUND_PATH_ROUNDS[num_nodes]
    best = {name: float("inf") for name in ROUND_PATH_KERNELS}
    for repeat in range(XL_ROUND_PATH_REPEATS):
        for name, (engine_name, kernel) in ROUND_PATH_KERNELS.items():
            engine = LWBRoundEngine(
                topology,
                link_model=link_model,
                hopper=ChannelHopper(enabled=False),
                rng=np.random.default_rng(7),
                engine=engine_name,
            )
            engine.flood.reception_kernel = kernel
            store = NodeStateArray(
                topology.node_ids,
                positions=topology.positions,
                coordinator=topology.coordinator,
            )
            engine.run_round(
                store,
                Schedule(round_index=0, n_tx=3, slots=slots),
                interference=interference,
            )
            start = time.perf_counter()
            for index in range(rounds):
                engine.run_round(
                    store,
                    Schedule(round_index=index + 1, n_tx=3, slots=slots),
                    start_ms=(index + 1) * 1000.0,
                    interference=interference,
                )
            best[name] = min(best[name], time.perf_counter() - start)
    rates = {name: rounds / value for name, value in best.items()}
    deviation = _log_kernel_deviation(link_model, samples=8)
    return _round_path_entry(rates, num_nodes, deviation)


def _benchmark_size(num_nodes, workload):
    topology = random_topology(num_nodes, seed=3)
    interference = jamming_interference(topology, 0.2)
    results = {}
    for engine in ENGINE_COMPARISON:
        results[engine] = {
            "floods_per_sec_clean": _time_floods(
                topology, engine, None, workload["floods"]
            ),
            "floods_per_sec_interfered": _time_floods(
                topology, engine, interference, workload["floods"]
            ),
            "rounds_per_sec_interfered": _time_rounds(
                topology, engine, interference, workload["rounds"]
            ),
        }
    speedups = {
        metric: results["vectorized"][metric] / results["scalar"][metric]
        for metric in results["scalar"]
    }
    rates = _time_round_path(
        topology, interference, ROUND_PATH_ROUNDS.get(num_nodes, workload["rounds"])
    )
    deviation = _log_kernel_deviation(LinkModel(topology, seed=1), samples=10)
    round_path = _round_path_entry(rates, num_nodes, deviation)
    return results, speedups, round_path


def _print_round_path(num_nodes, round_path):
    rows = [[
        f"{ROUND_PATH_SLOTS}-slot round",
        round_path.get("rounds_per_sec_reference", float("nan")),
        round_path["rounds_per_sec_product_loop"],
        round_path["rounds_per_sec"],
        round_path["rounds_per_sec_log"],
        round_path["kernel_speedup_vs_product_loop"],
        round_path["log_speedup_vs_product_loop"],
    ]]
    print(
        format_table(
            [
                "workload", "PR 2 ref", "product loop", "batched kernel",
                "log matmul", "kernel ratio", "log ratio",
            ],
            rows,
            title=f"Round path ({num_nodes} nodes, "
                  f"log dev {round_path['log_max_abs_deviation']:.2e})",
        )
    )


@pytest.mark.parametrize("ratio", [0.0, 0.25])
def test_reference_round_matches_store_path(ratio):
    """The PR 2 reference round is an oracle of the store round path:
    under one seed both produce identical rounds, node statistics and
    overheard feedback, so the speedup bars compare equal work."""
    topology = kiel_testbed()
    interference = jamming_interference(topology, ratio) if ratio else None

    def engine():
        return LWBRoundEngine(
            topology,
            hopper=ChannelHopper(enabled=False),
            rng=np.random.default_rng(42),
            engine="vectorized",
        )

    store_engine, reference_engine = engine(), engine()
    store = NodeStateArray(
        topology.node_ids, positions=topology.positions, coordinator=topology.coordinator
    )
    nodes = {
        node_id: _ReferenceNode(
            node_id,
            topology.positions[node_id],
            NodeRole.COORDINATOR if node_id == topology.coordinator else NodeRole.FORWARDER,
        )
        for node_id in topology.node_ids
    }
    for index in range(4):
        schedule = Schedule(round_index=index, n_tx=2, slots=tuple(topology.node_ids))
        a = store_engine.run_round(
            store, schedule, start_ms=index * 1000.0, interference=interference
        )
        b = _reference_round(reference_engine, nodes, schedule, index * 1000.0, interference)
        assert (a.synchronized_array == b.synchronized_array).all()
        assert (a.radio_on_array == b.radio_on_array).all()
        assert (a.packets_expected_array == b.packets_expected_array).all()
        assert (a.packets_received_array == b.packets_received_array).all()
        for slot_a, slot_b in zip(a.slots, b.slots):
            assert (slot_a.flood.received_array == slot_b.flood.received_array).all()
            assert (slot_a.flood.radio_on_array == slot_b.flood.radio_on_array).all()
            assert slot_a.feedback == slot_b.feedback
    for node_id in topology.node_ids:
        view, reference = store[node_id], nodes[node_id]
        assert view.n_tx == reference.n_tx
        assert view.synchronized == reference.synchronized
        assert view.statistics.packets_received == reference.statistics.packets_received
        assert view.statistics.to_feedback() == reference.statistics.to_feedback()
        assert dict(view.neighbor_feedback) == reference.neighbor_feedback


def test_flood_engine_throughput():
    sizes, xl_sizes = _selected_sizes()
    sizes_payload = {}
    all_speedups = {}
    round_paths = {}
    for num_nodes, workload in sizes.items():
        results, speedups, round_path = _benchmark_size(num_nodes, workload)
        entry = {
            "floods": workload["floods"],
            "rounds": workload["rounds"],
            "results": results,
            "speedups": speedups,
            "round_path": round_path,
        }
        if num_nodes in PR1_VECTORIZED_BASELINE:
            entry["improvement_vs_pr1_vectorized"] = {
                metric: results["vectorized"][metric] / baseline
                for metric, baseline in PR1_VECTORIZED_BASELINE[num_nodes].items()
            }
        sizes_payload[num_nodes] = entry
        all_speedups[num_nodes] = speedups
        round_paths[num_nodes] = round_path

        rows = [
            [
                metric,
                results["scalar"][metric],
                results["vectorized"][metric],
                speedups[metric],
            ]
            for metric in sorted(speedups)
        ]
        print()
        print(
            format_table(
                ["metric", "scalar", "vectorized", "speedup"],
                rows,
                title=f"Flood engine throughput ({num_nodes} nodes)",
            )
        )
        _print_round_path(num_nodes, round_path)

    for num_nodes in xl_sizes:
        round_path = _benchmark_xl_round_path(num_nodes)
        sizes_payload[num_nodes] = {
            "round_path_only": True,
            "round_path": round_path,
        }
        round_paths[num_nodes] = round_path
        print()
        _print_round_path(num_nodes, round_path)

    full_run = set(sizes) == set(SIZES) and set(xl_sizes) == set(XL_ROUND_PATH_SIZES)
    if full_run:
        headline = sizes_payload[100]["improvement_vs_pr1_vectorized"][
            "floods_per_sec_interfered"
        ]
        BENCH_PATH.parent.mkdir(exist_ok=True)
        BENCH_PATH.write_text(
            json.dumps(
                {
                    # 50-node numbers stay at the top level so the trajectory
                    # recorded since PR 1 remains comparable.
                    "num_nodes": 50,
                    "floods": SIZES[50]["floods"],
                    "rounds": SIZES[50]["rounds"],
                    "results": sizes_payload[50]["results"],
                    "speedups": sizes_payload[50]["speedups"],
                    "sizes": sizes_payload,
                    "pr1_vectorized_baseline": PR1_VECTORIZED_BASELINE,
                    "pr2_round_path_baseline": PR2_ROUND_PATH_BASELINE,
                    # >= 2x over the PR 1 vectorized engine on the 100-node
                    # interfered flood workload (the sweep/training inner loop).
                    "improvement_vs_pr1_100_nodes": headline,
                    # >= 2x over the PR 2 round path at 200 nodes on the
                    # 32-slot round workload (in-run reference ratio; the
                    # CI bench-ratio gate re-measures this on every push).
                    "round_path_speedup_200_nodes": round_paths[200][
                        "speedup_vs_reference"
                    ],
                    # The one-shot reception kernel at the 500-node
                    # acceptance size: exact batched kernel and log-matmul
                    # mode vs the PR 3 per-flood product loop, in-run.
                    "kernel_speedup_500_nodes": round_paths[500][
                        "kernel_speedup_vs_product_loop"
                    ],
                    "log_speedup_500_nodes": round_paths[500][
                        "log_speedup_vs_product_loop"
                    ],
                },
                indent=2,
            )
            + "\n"
        )

    # The engines must be statistically interchangeable AND the
    # vectorized one must pay for itself at every size: >= 5x on the
    # interfered flood workload, and never slower than the reference
    # anywhere.
    for num_nodes, speedups in all_speedups.items():
        assert speedups["floods_per_sec_interfered"] >= 5.0, num_nodes
        assert speedups["floods_per_sec_clean"] >= 2.0, num_nodes
        assert speedups["rounds_per_sec_interfered"] >= 2.0, num_nodes

    # The struct-of-arrays round path must beat the PR 2 per-slot
    # reference path in the same run (ratio, so machine speed cancels).
    for num_nodes, bar in ROUND_PATH_BARS.items():
        if num_nodes in round_paths:
            assert round_paths[num_nodes]["speedup_vs_reference"] >= bar, (
                num_nodes,
                round_paths[num_nodes],
            )

    # PR 4 bars: the batched reception kernel must never fall behind
    # the per-flood product loop it replaced, the log-matmul mode must
    # buy >= 2x at 500+ nodes, and the log kernel must stay within its
    # documented deviation envelope (all in-run / machine-independent).
    for num_nodes, round_path in round_paths.items():
        floor = KERNEL_FLOOR_VS_PRODUCT_LOOP.get(num_nodes)
        if floor is not None:
            assert round_path["kernel_speedup_vs_product_loop"] >= floor, (
                num_nodes,
                round_path,
            )
        log_bar = LOG_BARS_VS_PRODUCT_LOOP.get(num_nodes)
        if log_bar is not None:
            assert round_path["log_speedup_vs_product_loop"] >= log_bar, (
                num_nodes,
                round_path,
            )
        assert round_path["log_max_abs_deviation"] < LOG_DEVIATION_BOUND, (
            num_nodes,
            round_path,
        )

    # The PR 2 session baselines are recorded in the JSON as a
    # trajectory reference but deliberately NOT asserted: they are
    # absolute rates, and this machine's ~2x CPU-steal swings make any
    # absolute bar flaky (observed 1.4x-2.4x for the same build within
    # minutes).  The >= 2x round-path contract is enforced by the
    # in-run speedup_vs_reference ratio above, whose two sides run
    # interleaved in the same process so machine speed cancels.

    # The array-backed FloodResult + per-slot interference timeline of
    # PR 2 must buy >= 2x over the PR 1 vectorized engine at 100 nodes.
    # Absolute baseline -> only enforceable on comparable hardware.
    if full_run and os.environ.get("REPRO_BENCH_SKIP_PR1_BAR") != "1":
        headline = sizes_payload[100]["improvement_vs_pr1_vectorized"][
            "floods_per_sec_interfered"
        ]
        assert headline >= 2.0
        assert (
            sizes_payload[100]["improvement_vs_pr1_vectorized"][
                "rounds_per_sec_interfered"
            ]
            >= 1.5
        )
