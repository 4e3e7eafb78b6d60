"""Tests of the benchmark itself, on small configurations.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.batch import ClientRequest
from repro.crypto.keys import KeyChain
from repro.storage.redis_sim import RedisSim
from repro.workloads.trace import Operation

from perfbench import run as bench_run
from perfbench.checks import ReferenceModel
from perfbench.phases import RATES, WORKLOADS, PhaseLog, Workload, \
    run_workload
from perfbench.metrics import _latencies_s, end_to_end, per_layer
from perfbench.speed import NEAREST, REF_UNIT_S, SpeedReference
from perfbench.tracing import MeteredStore, TimedCipher, TimedPrf, Tracer

#: N=1024 under paper_defaults: B=10, R=4, f_D=2, D=512, one epoch is
#: 256 rounds, so a whole run takes a few seconds.
TINY = Workload("tiny", n=1024, value_size=64, read_proportion=0.5,
                uniform=False, tcp=False, setups=2, reference_rounds=20)
TINY_TCP = replace(TINY, name="tiny-tcp", uniform=True, tcp=True)


@pytest.fixture(scope="module", params=[TINY, TINY_TCP],
                ids=lambda w: w.name)
def twin_runs(request):
    workload = request.param
    plain = run_workload(workload, seed=5, seconds=1, trace=False)
    traced = run_workload(workload, seed=5, seconds=1, trace=True)
    return plain, traced


class TestTwinRuns:
    def test_runs_are_correct(self, twin_runs):
        for res in twin_runs:
            assert res.failures == []
            assert res.attempted > 0

    def test_traced_run_changes_no_response_or_trace(self, twin_runs):
        plain, traced = twin_runs
        assert traced.response_digest == plain.response_digest
        assert traced.trace_digest == plain.trace_digest

    def test_closed_windows_hold_one_epoch_reset(self, twin_runs):
        for res in twin_runs:
            for name in ("closed", "sat"):
                assert res.phases[name].resets == 1
                assert len(res.phases[name].round_numbers()) == res.epoch

    def test_open_loop_phases_hold_no_reset(self, twin_runs):
        for res in twin_runs:
            assert [res.phases[f"r{rate}"].resets for rate in RATES] == \
                [0] * len(RATES)

    def test_every_metric_is_declared_with_its_unit(self, twin_runs):
        plain, traced = twin_runs
        for res, values in ((plain, end_to_end(plain)),
                            (traced, per_layer(traced))):
            units = bench_run.declared_units(res.traced)
            printed = bench_run.with_units(values, res.traced)
            assert set(printed) == set(units)
            for name, metric in printed.items():
                assert metric["unit"] == units[name]

    def test_timings_are_scaled_by_the_host_speed(self, twin_runs):
        res = twin_runs[0]
        raw, scaled = end_to_end(res, scaled=False), end_to_end(res)
        for name in ("peak_rss_mb", "storage_amp", "ok_ratio"):
            assert scaled[name] == raw[name]
        # A host twice as slow as the reference halves the scaled times.
        slow = copy.copy(res)
        slow.speed = SpeedReference()
        slow.speed.samples = [(start, 2 * REF_UNIT_S)
                              for start, _ in res.speed.samples]
        halved = end_to_end(slow)
        for name in ("setup_s", "round_p50_ms"):
            assert halved[name] == pytest.approx(raw[name] / 2)
        for name in ("req_per_s", "served_rps.sat"):
            assert halved[name] == pytest.approx(raw[name] * 2)
        # Only the CPU part of a latency is scaled.
        for rate in RATES:
            name = f"lat_p50_ms.r{rate}"
            assert raw[name] / 2 < halved[name] < raw[name]

    def test_layer_counts_match_the_protocol(self, twin_runs):
        _, traced = twin_runs
        layers = per_layer(traced)
        b = traced.config.b
        assert layers["storage.reads_per_round"] == b
        assert layers["storage.writes_per_round"] == b
        expected_trips = 2.0 if traced.workload.tcp else 0.0
        assert layers["net.round_trips_per_round"] == expected_trips
        assert layers["serve.shed"] == 0


class TestWrappersPassThrough:
    def test_prf(self):
        keychain = KeyChain.from_seed(3)
        tracer = Tracer()
        timed = TimedPrf(keychain.prf, tracer)
        pairs = [(f"k{i}", i) for i in range(20)]
        assert timed.derive_many(pairs) == keychain.prf.derive_many(pairs)
        assert timed.derive("k1", 4) == keychain.prf.derive("k1", 4)
        assert [span[5]["items"] for span in tracer.spans] == [20, 1]

    def test_cipher(self):
        bare = KeyChain.from_seed(3, rng=random.Random(7)).cipher
        timed = TimedCipher(
            KeyChain.from_seed(3, rng=random.Random(7)).cipher, Tracer())
        values = [bytes([i]) * 40 for i in range(8)]
        sealed = timed.encrypt_many(values)
        assert sealed == bare.encrypt_many(values)
        assert timed.decrypt_many(sealed) == values
        assert timed.encrypt(b"x") == bare.encrypt(b"x")
        assert timed.decrypt(sealed[0]) == values[0]

    @pytest.mark.parametrize("tracer", [None, Tracer()])
    def test_store(self, tracer):
        bare = RedisSim(write_once=True)
        metered = MeteredStore(RedisSim(write_once=True), b=3, tracer=tracer)
        for store in (bare, metered):
            store.multi_put([("a", b"1"), ("b", b"2"), ("c", b"3")])
            store.put("d", b"4")
        assert metered.multi_get(["a", "b", "c"]) == \
            bare.multi_get(["a", "b", "c"])
        assert metered.get("d") == bare.get("d")
        for store in (bare, metered):
            store.commit_round(["a", "b", "c"],
                               [("e", b"5"), ("f", b"6"), ("g", b"7")])
            store.delete("d")
        assert len(metered) == len(bare) == 3
        assert ("e" in metered) and ("a" not in metered)
        assert metered.multi_get(["e", "f", "g"]) == \
            bare.multi_get(["e", "f", "g"])
        assert metered.violations == []

    def test_store_flags_a_short_or_repeating_round(self):
        store = MeteredStore(RedisSim(), b=3)
        store.multi_put([("a", b"1"), ("b", b"2")])
        store.checking = True
        store.multi_get(["a", "a", "b"])
        store.commit_round(["a", "b"], [("c", b"3")])
        assert len(store.violations) == 2


def test_speed_factor_comes_from_the_nearest_units():
    speed = SpeedReference()
    # Units at t=0..99: the host is at reference speed until t=50, then
    # twice as slow.
    speed.samples = [(float(t), REF_UNIT_S * (1 if t < 50 else 2))
                     for t in range(100)]
    assert speed.factor_over(10.0, 10.0) == 1.0
    assert speed.factor_over(90.0, 90.0) == 0.5
    assert speed.factor_over(-5.0, -4.0) == 1.0
    assert speed.factor_over(500.0, 501.0) == 0.5
    # A long interval uses every unit timed in it: mostly slow ones here.
    assert speed.factor_over(20.0, 99.0) == 0.5
    assert speed.scale([(10.0, 0.004), (90.0, 0.004)]) == [0.004, 0.002]
    assert NEAREST < 40


def test_only_cpu_time_of_a_latency_is_scaled():
    speed = SpeedReference()
    speed.samples = [(0.0, 2 * REF_UNIT_S)]
    log = PhaseLog("r300")
    # Due at 4 ms, while round 1 ran until 10 ms; carried by round 2 from
    # 12 to 20 ms; resumed at 21 ms.  Idle wait: 10-12 ms.
    log.rounds = [(0.000, 0.010, [1]), (0.012, 0.020, [2])]
    log.latency = [(2, 0.004, 0.021)]
    res = SimpleNamespace(speed=speed)
    assert _latencies_s(res, log, scaled=False) == [pytest.approx(0.017)]
    assert _latencies_s(res, log, scaled=True) == [
        pytest.approx(0.002 + 0.015 / 2)]


def test_reference_model_catches_a_stale_read():
    model = ReferenceModel({"k": b"old"})
    write = ClientRequest(op=Operation.WRITE, key="k", value=b"new",
                          request_id=1)
    read = ClientRequest(op=Operation.READ, key="k", request_id=2)
    assert model.submit(write) == b"new"
    expected = model.submit(read)
    assert model.check(read, expected, b"new")
    assert not model.check(read, expected, b"old")
    assert len(model.wrong) == 1


def test_benchmark_json_names_every_workload():
    spec = json.loads(bench_run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench_run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench_run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-tcp-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
