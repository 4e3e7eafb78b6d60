"""End-to-end observability: instrumentation wiring and exporters.

Covers the per-round metrics emitted by the Waffle proxy, the kernel
profiling hooks, the net/closed-loop/HA instrumentation, the trace-
neutrality oracle across all four systems, and the three exporters
(Prometheus text, JSONL traces, terminal dashboard) plus the CLI
``obs`` subcommand.
"""

import json

from repro import obs
from repro.core.config import WaffleConfig
from repro.crypto.keys import KeyChain
from repro.obs.registry import MetricsRegistry
from repro.sim.perf import _build_proxy, _request_stream


class TestProxyInstrumentation:
    def test_round_counters_match_proxy_totals(self):
        config = WaffleConfig.paper_defaults(n=256, seed=11)
        rounds = 5
        with obs.capture() as handle:
            proxy = _build_proxy(config, KeyChain.from_seed(11))
            for batch in _request_stream(config, rounds, 11):
                proxy.handle_batch(batch)
        snap = handle.registry.snapshot()
        counters = snap["counters"]
        w = "{system=waffle}"
        assert counters["rounds.total" + w] == rounds
        assert counters["requests.total" + w] == rounds * config.r
        # Every round reads exactly B ids, split real/fake-real/fake-dummy.
        assert counters["server.reads.total" + w] == rounds * config.b
        assert (counters["batch.real.total" + w]
                + counters["batch.fake_real.total" + w]
                + counters["batch.fake_dummy.total" + w]) == rounds * config.b
        assert counters["server.writes.total" + w] == rounds * config.b
        assert counters["rounds.total" + w] == proxy.totals.rounds

    def test_phase_spans_cover_every_round(self):
        config = WaffleConfig.paper_defaults(n=256, seed=11)
        rounds = 4
        with obs.capture() as handle:
            proxy = _build_proxy(config, KeyChain.from_seed(11))
            for batch in _request_stream(config, rounds, 11):
                proxy.handle_batch(batch)
        hists = handle.registry.snapshot()["histograms"]
        w = "{system=waffle}"
        assert hists["round.seconds" + w]["count"] == rounds
        for phase in ("plan", "decrypt", "cache", "evict", "seal"):
            assert hists[f"phase.{phase}.seconds" + w]["count"] == rounds
        for direction in ("read", "write"):
            key = "phase.server_io.seconds{dir=%s,system=waffle}" % direction
            assert hists[key]["count"] == rounds
        # The trace stream carries the same spans with attributes.
        round_spans = handle.tracer.spans("round")
        assert len(round_spans) == rounds
        assert all(s["attrs"]["system"] == "waffle" for s in round_spans)
        assert all(s["attrs"]["requests"] == config.r for s in round_spans)

    def test_kernel_profiling_hooks(self):
        from repro.crypto.aead import AuthenticatedCipher
        from repro.crypto.prf import Prf
        from repro.ds.heap_index import HeapIndex

        with obs.capture() as handle:
            prf = Prf(b"kernel-test-secret")
            prf.derive_many([("k", 1), ("j", 2)])
            cipher = AuthenticatedCipher(b"kernel-test-key".ljust(32, b"."))
            blobs = cipher.encrypt_many([b"a", b"b", b"c"])
            cipher.decrypt_many(blobs)
            index = HeapIndex((i, i, f"k{i}") for i in range(8))
            index.pop_min_many(4)
        counters = handle.registry.snapshot()["counters"]
        assert counters["kernel.prf.derive_many.calls.total"] == 1
        assert counters["kernel.prf.derive_many.items.total"] == 2
        assert counters["kernel.aead.encrypt_many.items.total"] == 3
        assert counters["kernel.aead.decrypt_many.items.total"] == 3
        assert counters["kernel.index.pop_min_many.items.total"] == 4
        hists = handle.registry.snapshot()["histograms"]
        assert hists["kernel.aead.encrypt_many.seconds"]["count"] == 1

    def test_initialize_encrypts_in_round_sized_calls(self):
        """The one-off bulk load reaches the cipher in B-sized calls, so
        no call in the steady-state kernel histogram exceeds B items."""

        class CallSizes:
            def __init__(self, inner):
                self.inner = inner
                self.sizes = []

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def encrypt_many(self, plaintexts):
                items = list(plaintexts)
                self.sizes.append(len(items))
                return self.inner.encrypt_many(items)

        config = WaffleConfig.paper_defaults(n=256, seed=11)
        rounds = 3
        chain = KeyChain.from_seed(11)
        spy = chain.cipher = CallSizes(chain.cipher)
        with obs.capture() as handle:
            proxy = _build_proxy(config, chain)
            for batch in _request_stream(config, rounds, 11):
                proxy.handle_batch(batch)
        loaded = config.n - config.c + config.d
        assert len(spy.sizes) > rounds + 1, "load was not split"
        assert max(spy.sizes) <= config.b
        snap = handle.registry.snapshot()
        calls = snap["counters"]["kernel.aead.encrypt_many.calls.total"]
        items = snap["counters"]["kernel.aead.encrypt_many.items.total"]
        assert calls == len(spy.sizes)
        assert items == loaded + rounds * config.b
        assert items <= config.b * calls
        assert snap["histograms"][
            "kernel.aead.encrypt_many.seconds"]["count"] == calls

    def test_storage_access_events_stream(self):
        from repro.storage.memory import InMemoryStore
        from repro.storage.recording import RecordingStore

        with obs.capture() as handle:
            store = RecordingStore(InMemoryStore())
            store.put("a", b"1")
            store.get("a")
            store.delete("a")
        events = handle.tracer.events("storage.access")
        assert [e["attrs"]["op"] for e in events] == \
            ["write", "read", "delete"]
        counters = handle.registry.snapshot()["counters"]
        assert counters["storage.accesses.total{op=read}"] == 1


class TestTraceNeutrality:
    def test_all_four_systems_identical_with_obs_on(self):
        """ISSUE acceptance: fixed-seed adversary-visible digests are
        byte-identical with observability fully enabled, for Waffle and
        all three baselines."""
        from repro.sim.perf import compare_obs_traces

        out = compare_obs_traces(n=64, rounds=3, seed=5)
        for system in ("waffle", "pancake", "pathoram", "taostore"):
            assert out[system]["identical"], f"{system} trace diverged"
        assert out["identical"]
        assert not obs.OBS.enabled  # leaves observability off


class TestOtherLayers:
    def test_net_server_dispatch_metrics(self):
        from repro.net.server import StorageServer

        server = StorageServer()
        try:
            with obs.capture() as handle:
                server._dispatch(["DBSIZE"])
                server._dispatch(["PIPELINE", ["SET", "k", b"v"],
                                  ["GET", "k"]])
            counters = handle.registry.snapshot()["counters"]
            assert counters["net.requests.total{command=DBSIZE}"] == 1
            assert counters["net.requests.total{command=PIPELINE}"] == 1
            # The RedisSim behind the server counts per-command too.
            assert counters[
                "storage.commands.total{backend=redis_sim,command=SET}"] == 1
            spans = handle.tracer.spans("net.request")
            assert len(spans) == 2
            assert spans[1]["attrs"]["commands"] == 2
        finally:
            server.stop()

    def test_closedloop_sim_metrics(self):
        from repro.sim.closedloop import simulate_closed_loop

        with obs.capture() as handle:
            result = simulate_closed_loop(round_time_s=0.01,
                                          batch_capacity=4, clients=8,
                                          duration_s=1.0)
        snap = handle.registry.snapshot()
        counters = snap["counters"]
        assert counters["closedloop.rounds.total{clock=sim}"] == result.rounds
        assert counters["closedloop.requests.total{clock=sim}"] == \
            result.requests
        hist = snap["histograms"]["closedloop.latency.seconds{clock=sim}"]
        assert hist["count"] == result.requests
        assert handle.tracer.events("closedloop.done")

    def test_ha_checkpoint_and_failover_metrics(self):
        from repro.ha.replicated import HighlyAvailableProxy

        config = WaffleConfig.paper_defaults(n=128, seed=5)
        proxy = _build_proxy(config, KeyChain.from_seed(5))
        with obs.capture() as handle:
            ha = HighlyAvailableProxy(proxy)
            for batch in _request_stream(config, 2, 5):
                ha.handle_batch(batch)
            ha.fail_over()
        counters = handle.registry.snapshot()["counters"]
        assert counters["ha.snapshots.total"] == 2
        assert counters["ha.failovers.total"] == 1
        assert len(handle.tracer.spans("ha.checkpoint")) == 2
        assert len(handle.tracer.events("ha.failover")) == 1


class TestExporters:
    def _populated_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("requests.total", system="waffle").inc(7)
        registry.gauge("cache.size").set(3)
        registry.histogram("round.seconds").observe(0.25)
        registry.histogram("lat", mode="buckets",
                           buckets=(0.1, 1.0)).observe(0.5)
        return registry

    def test_prometheus_rendering(self, tmp_path):
        from repro.obs.export import render_prometheus, write_prometheus

        registry = self._populated_registry()
        text = render_prometheus(registry)
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{system="waffle"} 7' in text
        assert "# TYPE cache_size gauge" in text
        assert "# TYPE round_seconds summary" in text
        assert 'round_seconds{quantile="0.5"} 0.25' in text
        assert "round_seconds_count 1" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        path = tmp_path / "metrics.prom"
        write_prometheus(registry, path)
        assert path.read_text() == text

    def test_write_trace_jsonl(self, tmp_path):
        from repro.obs.export import write_trace_jsonl

        records = [{"kind": "event", "name": "x", "attrs": {}, "seq": 0},
                   {"kind": "span", "name": "round", "dur": 0.1,
                    "attrs": {}, "seq": 1}]
        path = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(records, path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == records

    def test_dashboard_renders_all_sections(self):
        from repro.analysis.monitor import AlphaMonitor
        from repro.obs.dashboard import render_dashboard

        config = WaffleConfig.paper_defaults(n=128, seed=3)
        with obs.capture() as handle:
            proxy = _build_proxy(config, KeyChain.from_seed(3))
            for batch in _request_stream(config, 3, 3):
                proxy.handle_batch(batch)
            monitor = AlphaMonitor(alpha_budget=50, window_rounds=2)
            text = render_dashboard(handle.registry, monitor=monitor)
        assert "waffle" in text
        assert "throughput / latency" in text
        assert "batch composition" in text
        assert "kernel profile" in text
        assert "alpha-budget status" in text
        assert "OK" in text


class TestCli:
    def test_cli_obs_smoke(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        rc = main(["obs", "--n", "128", "--rounds", "4", "--window", "2",
                   "--trace-out", str(trace), "--prom-out", str(prom)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro observability" in out
        assert "alpha-budget status" in out
        assert prom.read_text().startswith("# TYPE")
        assert sum(1 for _ in trace.open()) > 0
        assert not obs.OBS.enabled
