"""Tests of the benchmark's own machinery (tracer, wrappers, passes, pins).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import bench, hostspeed  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.tracing import Instrumentation, Tracer, installed_wrappers  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _clean_env():
    """The caller's environment minus the variables the benchmark refuses."""
    return {
        name: value
        for name, value in os.environ.items()
        if name not in ("REPRO_ENGINE", "REPRO_FAULT_PLAN") and not name.startswith("REPRO_BENCH_")
    }


@pytest.fixture
def quick(monkeypatch):
    """Shortest legal measurement loops, so a tiny pass takes about a second."""
    monkeypatch.setattr(bench, "WARM_BLOCK_S", 0.0)
    monkeypatch.setattr(bench, "SETUP_BLOCK_S", 0.0)
    monkeypatch.setattr(bench, "MIN_CAMPAIGNS", 1)


class TestSelfTime:
    def test_nested_spans(self):
        ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 10.0, 12.0])
        tracer = Tracer(clock=lambda: next(ticks))

        def leaf():
            return None

        leaf_traced = tracer.wrap(leaf, "leaf")

        def inner():
            leaf_traced()

        inner_traced = tracer.wrap(inner, "inner")

        def outer():
            inner_traced()   # inner 1..5, leaf 2..4
            leaf_traced()    # leaf 6..10

        tracer.wrap(outer, "outer", amount=lambda: 3)()  # outer 0..12
        totals = tracer.aggregate()
        assert totals["outer"] == {"calls": 1, "amount": 3, "total_s": 12.0, "self_s": 4.0}
        assert totals["inner"]["total_s"] == 4.0 and totals["inner"]["self_s"] == 2.0
        assert totals["leaf"]["calls"] == 2
        assert totals["leaf"]["total_s"] == totals["leaf"]["self_s"] == 6.0
        # Self times partition the outermost span.
        assert sum(entry["self_s"] for entry in totals.values()) == 12.0
        assert tracer.durations("leaf") == [2.0, 4.0]

    def test_skipped_span_when_predicate_false(self):
        tracer = Tracer()
        traced = tracer.wrap(lambda flag: flag, "maybe", when=lambda flag: flag)
        traced(False)
        traced(True)
        assert tracer.aggregate()["maybe"]["calls"] == 1

    def test_span_closes_when_call_raises(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap(boom, "boom")()
        assert tracer.aggregate()["boom"]["calls"] == 1
        assert tracer._stack == []


class TestInstrumentation:
    def test_wrappers_removed_after_traced_run(self, quick):
        from repro.net.glossy import GlossyFlood

        original = vars(GlossyFlood)["run_batch"]
        tracer = Tracer()
        with Instrumentation(tracer):
            assert len(installed_wrappers()) > 20
            assert vars(GlossyFlood)["run_batch"] is not original
        assert installed_wrappers() == []
        assert vars(GlossyFlood)["run_batch"] is original

        bench.trace("kiel18-sweep", seed=7, tiny=True)
        assert installed_wrappers() == []

    def test_wrappers_removed_when_traced_code_raises(self):
        with pytest.raises(RuntimeError):
            with Instrumentation(Tracer()):
                raise RuntimeError("traced run failed")
        assert installed_wrappers() == []


class TestShardCheck:
    def test_mismatch_counts_as_failed(self):
        specs = WORKLOADS["kiel18-sweep"].specs(7, {"kind": "unused"}, tiny=True)[:2]
        check = bench.ShardCheck("kiel18-sweep", 7, specs, tiny=True)
        check.check("cold", [{"a": 1}, {"a": 2}])
        assert check.correct and check.failed == 0
        check.check("warm", [{"a": 1}, {"a": 3}])
        check.check("warm", [{"a": 1}, {"__failed__": True}])
        assert check.attempted == 6 and check.failed == 2 and not check.correct

    def test_default_seed_uses_pins(self):
        payload = {"kind": "unused"}
        specs = WORKLOADS["kiel18-sweep"].specs(bench.DEFAULT_SEED, payload)
        check = bench.ShardCheck("kiel18-sweep", bench.DEFAULT_SEED, specs, tiny=False)
        # The payload differs from the shipped policy, so the grid keys
        # differ from the pinned ones and the check must say so.
        assert "pinned digests describe a different grid" in check.problems


def test_host_speed_sidecar_is_reaped_and_scales():
    with HostSpeed() as host:
        process = host._process
        begun = host.mark()
        rate = host.probe()
        ended = host.mark()
    assert process.returncode == 0 and host._process is None
    assert host.samples and all(sample_rate > 0 for _, sample_rate in host.samples)
    assert rate > 0
    # A piece measured at twice the nominal rate took half as long on a nominal host.
    double = 2.0 * hostspeed.REFERENCE_RATE
    assert HostSpeed.scale(1.0, double, double) == pytest.approx(2.0)
    assert host.nominal(1.0, begun, ended) == pytest.approx(host.rate(begun, ended) / hostspeed.REFERENCE_RATE)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pass_emits_every_metric(workload, quick):
    run = bench.measure(workload, seed=11, seconds=0.0, tiny=True)
    line = bench.report(run, traced=False, out=io.StringIO())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert [name for name, _ in bench.END_TO_END] == list(line["metrics"])
    assert line["metrics"]["shard_success_rate"]["value"] == 1.0

    run = bench.trace(workload, seed=11, tiny=True)
    line = bench.report(run, traced=True, out=io.StringIO())
    assert line["correct"] and line["failed"] == 0
    assert [name for name, _ in bench.PER_LAYER] == list(line["metrics"])
    assert line["metrics"]["runner.executed"]["value"] == len(run["check"].specs)
    assert line["metrics"]["lwb.rounds"]["value"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _git_status():
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    return done.stdout


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(), reason="needs a git checkout"
)
def test_run_leaves_git_status_unchanged():
    before = _git_status()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kiel18-sweep", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, env=_clean_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and set(line) == {"correct", "attempted", "failed", "metrics"}
    assert _git_status() == before


def test_refuses_inherited_engine_override():
    env = dict(_clean_env(), REPRO_ENGINE="scalar")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kiel18-sweep"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "REPRO_ENGINE" in done.stderr
