"""Tests for the batched reception kernel and the log-matmul engine.

Three layers of guarantees:

* **Kernel parity** — the batched masked-product kernel (default) is
  bit-for-bit identical to the per-flood ``failure[tx].prod(axis=0)``
  reference loop (``reception_kernel = "per-flood"``) and to sequential
  :meth:`~repro.net.glossy.GlossyFlood.run` calls, including the
  flood-level early exit's closed-form tail.
* **Edge cases** — K=0 slots, a single-node network, an all-links-zero
  PRR matrix, and a flood whose initiator was churned out mid-round all
  behave exactly like the sequential path.
* **Log mode** — ``engine="vectorized-log"`` runs end to end, and its
  probability kernel deviates from the exact product by less than
  ``1e-9`` (documented approximate-but-close).
"""

import numpy as np
import pytest

from repro.experiments.scenarios import jamming_interference
from repro.net.glossy import FLOOD_ENGINES, RECEPTION_KERNELS, GlossyFlood
from repro.net.link import LinkModel
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import grid_topology, random_topology


def make_flood(topology, engine="vectorized", kernel="batched", seed=9, link_seed=1):
    flood = GlossyFlood(
        topology,
        LinkModel(topology, seed=link_seed),
        rng=np.random.default_rng(seed),
        engine=engine,
    )
    flood.reception_kernel = kernel
    return flood


def assert_results_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.node_ids == b.node_ids
        assert (a.received_array == b.received_array).all()
        assert (a.reception_phase_array == b.reception_phase_array).all()
        assert (a.transmissions_array == b.transmissions_array).all()
        assert (a.radio_on_array == b.radio_on_array).all()


def run_batch_under(flood, initiators, **kwargs):
    kwargs.setdefault("n_tx", 2)
    kwargs.setdefault("start_times", [22.0 * k for k in range(len(initiators))])
    kwargs.setdefault("max_slot_ms", 20.0)
    return flood.run_batch(initiators=initiators, **kwargs)


class TestKernelParity:
    @pytest.mark.parametrize("ratio", [0.0, 0.25])
    def test_batched_equals_per_flood_reference(self, ratio):
        topology = random_topology(40, seed=5)
        interference = jamming_interference(topology, ratio) if ratio else None
        initiators = list(topology.node_ids[:12])
        results = {}
        for kernel in RECEPTION_KERNELS:
            results[kernel] = run_batch_under(
                make_flood(topology, kernel=kernel),
                initiators,
                interference=interference,
            )
        assert_results_identical(results["batched"], results["per-flood"])

    def test_batched_equals_sequential_runs(self):
        topology = random_topology(30, seed=7)
        interference = jamming_interference(topology, 0.2)
        initiators = [0, 4, 9, 15, 21]
        # Per-flood start times, and one start shared by every flood
        # given as a NumPy integer (accepted like ``channels``).
        for start_times in ([100.0 + 22.0 * k for k in range(len(initiators))], np.int64(5)):
            starts = np.broadcast_to(start_times, len(initiators)).tolist()
            # One generator drives all sequential floods, like run_batch does.
            flood = make_flood(topology)
            sequential = [
                flood.run(
                    initiator=initiator,
                    n_tx=2,
                    start_ms=start,
                    interference=interference,
                    max_slot_ms=20.0,
                )
                for initiator, start in zip(initiators, starts)
            ]
            batched = run_batch_under(
                make_flood(topology), initiators, start_times=start_times,
                interference=interference,
            )
            assert_results_identical(sequential, batched)

    def test_per_node_budgets_and_participants(self):
        topology = random_topology(25, seed=3)
        n_tx = np.zeros(25, dtype=np.int64)
        n_tx[:10] = 3  # forwarders; the rest are passive receivers
        mask = np.ones(25, dtype=bool)
        mask[[7, 19]] = False
        results = {}
        for kernel in RECEPTION_KERNELS:
            results[kernel] = run_batch_under(
                make_flood(topology, kernel=kernel),
                [0, 1, 2, 3],
                n_tx=n_tx,
                participants=mask,
            )
        assert_results_identical(results["batched"], results["per-flood"])


class TestRunBatchEdgeCases:
    @pytest.mark.parametrize("engine", ["scalar", "vectorized", "vectorized-log"])
    def test_zero_slots(self, engine):
        topology = random_topology(10, seed=2)
        flood = make_flood(topology, engine=engine)
        assert flood.run_batch(initiators=[], n_tx=2) == []

    @pytest.mark.parametrize("engine", ["vectorized", "vectorized-log"])
    def test_single_node_network(self, engine):
        topology = grid_topology(rows=1, cols=1)
        batched = run_batch_under(
            make_flood(topology, engine=engine), [0, 0], n_tx=3
        )
        # One shared generator drives the sequential comparison floods.
        flood = make_flood(topology)
        sequential = [
            flood.run(initiator=0, n_tx=3, start_ms=s, max_slot_ms=20.0)
            for s in (0.0, 22.0)
        ]
        assert_results_identical(sequential, batched)
        # The lone node floods into the void: it transmits, nobody else
        # exists, reliability is vacuously perfect.
        assert batched[0].received_array.all()
        assert batched[0].transmissions_array[0] == 3
        assert batched[0].reliability == 1.0

    @pytest.mark.parametrize("engine", ["vectorized", "vectorized-log"])
    def test_all_links_zero_prr(self, engine):
        # Nodes spaced far beyond communication range: every off-diagonal
        # PRR is exactly zero, so only initiators ever receive.
        topology = grid_topology(rows=2, cols=3, spacing_m=50.0, comm_range_m=10.0)
        initiators = [0, 1, 2]
        flood_a = make_flood(topology, engine=engine)
        batched = run_batch_under(flood_a, initiators, n_tx=2)
        flood_b = make_flood(topology)
        sequential = [
            flood_b.run(initiator=i, n_tx=2, start_ms=22.0 * k, max_slot_ms=20.0)
            for k, i in enumerate(initiators)
        ]
        assert_results_identical(sequential, batched)
        for result, initiator in zip(batched, initiators):
            assert result.receivers() == [initiator]
            # Non-initiators listen through every phase of the slot
            # (nothing to decode, so they never switch off early); the
            # initiator spends its budget and switches off.
            others = [result.radio_on_ms[n] for n in result.node_ids if n != initiator]
            assert len(set(others)) == 1
            assert others[0] > result.radio_on_ms[initiator]

    @pytest.mark.parametrize("engine", ["vectorized", "vectorized-log"])
    def test_initiator_churned_out_mid_round(self, engine):
        """A source whose links were severed (node churn) still owns its
        slot: its flood executes but nobody can decode it."""
        topology = random_topology(20, seed=4)
        victim = 5

        def churned_flood(eng):
            flood = make_flood(topology, engine=eng)
            for other in topology.node_ids:
                if other != victim:
                    flood.link_model.set_link_quality(victim, other, 0.0)
            return flood

        initiators = [0, victim, 11]
        batched = run_batch_under(churned_flood(engine), initiators, n_tx=2)
        flood = churned_flood("vectorized")
        sequential = [
            flood.run(initiator=i, n_tx=2, start_ms=22.0 * k, max_slot_ms=20.0)
            for k, i in enumerate(initiators)
        ]
        assert_results_identical(sequential, batched)
        assert batched[1].receivers() == [victim]
        assert batched[1].reliability == 0.0
        # The healthy slots still flood normally.
        assert batched[0].reliability > 0.5


class TestLogMode:
    def test_engine_is_registered_and_validated(self):
        assert "vectorized-log" in FLOOD_ENGINES
        config = SimulatorConfig(engine="vectorized-log", seed=3, channel_hopping=False)
        simulator = NetworkSimulator(random_topology(15, seed=1), config)
        result = simulator.run_round(n_tx=2)
        assert result.reliability > 0.5

    def test_unknown_reception_kernel_values_listed(self):
        assert RECEPTION_KERNELS == ("batched", "per-flood")

    def test_log_kernel_probability_deviation_bound(self):
        """The log-domain matmul reproduces the exact failure products to
        well under 1e-9, including intermediate PRRs and severed links."""
        topology = random_topology(60, seed=6)
        link = LinkModel(topology, seed=1)
        # Intermediate PRRs exercise the log/exp round-trip error; a
        # severed link exercises the -inf clamp.
        link.set_link_quality(0, 1, 0.37, symmetric=True)
        link.set_link_quality(2, 3, 1.0, symmetric=True)
        link.set_link_quality(4, 5, 0.0, symmetric=True)
        prr = link.prr_matrix()
        failure = 1.0 - prr
        log_failure = link.log_failure_matrix()
        rng = np.random.default_rng(0)
        worst = 0.0
        for num_tx in (2, 5, 15, 30, 59):
            for _ in range(20):
                tx = np.sort(rng.choice(60, size=num_tx, replace=False))
                exact = 1.0 - failure[tx].prod(axis=0)
                mask = np.zeros(60)
                mask[tx] = 1.0
                approximate = -np.expm1(mask @ log_failure)
                worst = max(worst, float(np.abs(exact - approximate).max()))
        assert worst < 1e-9

    def test_log_mode_statistics_match_exact_mode(self):
        """Aggregate flood statistics under the log kernel match the
        exact kernel closely (draw flips are rare)."""
        topology = random_topology(40, seed=8)
        interference = jamming_interference(topology, 0.15)
        reliabilities = {}
        for engine in ("vectorized", "vectorized-log"):
            flood = make_flood(topology, engine=engine, seed=11)
            totals = []
            for start in range(12):
                results = run_batch_under(
                    flood,
                    list(topology.node_ids[:8]),
                    start_times=[start * 200.0 + 22.0 * k for k in range(8)],
                    interference=interference,
                )
                totals.extend(r.reliability for r in results)
            reliabilities[engine] = float(np.mean(totals))
        assert reliabilities["vectorized-log"] == pytest.approx(
            reliabilities["vectorized"], abs=0.02
        )

    def test_log_failure_matrix_invalidated_by_churn(self):
        topology = random_topology(12, seed=2)
        link = LinkModel(topology, seed=1)
        before = link.log_failure_matrix()
        link.set_link_quality(0, 1, 0.0)
        after = link.log_failure_matrix()
        assert after is not before
        index = link.node_index
        assert after[index[0], index[1]] == 0.0  # log(1 - 0.0) == 0


class TestKernelBranchCoverage:
    """Both exact-kernel variants must be bit-identical to the
    per-flood reference — including the streaming-accumulator branch,
    which only engages naturally at production sizes."""

    def test_streaming_branch_forced_parity(self, monkeypatch):
        """Force the streaming accumulator (and tiny chunks for the
        gather+reduce residue) on a small jammed workload."""
        import repro.net.glossy as glossy_module

        monkeypatch.setattr(glossy_module, "KERNEL_STREAM_MIN_ROW", 1)
        monkeypatch.setattr(glossy_module, "KERNEL_CHUNK_ELEMENTS", 64)
        topology = random_topology(40, seed=5)
        interference = jamming_interference(topology, 0.25)
        results = {
            kernel: run_batch_under(
                make_flood(topology, kernel=kernel),
                list(topology.node_ids[:12]),
                interference=interference,
            )
            for kernel in RECEPTION_KERNELS
        }
        assert_results_identical(results["batched"], results["per-flood"])

    def test_streaming_branch_natural_parity_at_scale(self):
        """A 120-node, 40-flood workload crosses KERNEL_STREAM_MIN_ROW
        on its own (floods x listeners >= 3072), exercising the branch
        the 200-2000-node round paths take in production."""
        import repro.net.glossy as glossy_module

        topology = random_topology(120, seed=9)
        interference = jamming_interference(topology, 0.2)
        streaming_min = glossy_module.KERNEL_STREAM_MIN_ROW

        spy_hits = []
        original_kernel = glossy_module.GlossyFlood._phase_success_batched

        def spy(self, transmit, tx_counts, active, columns, *args, **kwargs):
            counts = tx_counts[active]
            num_multi = int((counts >= 2).sum())
            if num_multi * len(columns) >= streaming_min:
                spy_hits.append(True)
            return original_kernel(
                self, transmit, tx_counts, active, columns, *args, **kwargs
            )

        glossy_module.GlossyFlood._phase_success_batched = spy
        try:
            results = {
                kernel: run_batch_under(
                    make_flood(topology, kernel=kernel),
                    list(topology.node_ids[:40]),
                    n_tx=3,
                    interference=interference,
                )
                for kernel in RECEPTION_KERNELS
            }
        finally:
            glossy_module.GlossyFlood._phase_success_batched = original_kernel
        assert spy_hits, "workload never crossed the streaming threshold"
        assert_results_identical(results["batched"], results["per-flood"])
