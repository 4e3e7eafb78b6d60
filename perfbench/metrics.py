"""Turn a :class:`~perfbench.phases.RunResult` into named metrics.

:func:`end_to_end` gives what a user of the datastore sees, measured with
tracing off.  Its set-up and round times, latencies and rates are scaled
to the reference host speed of :mod:`perfbench.speed`; memory and the
ratios are not.  :func:`per_layer` gives the layer numbers of a traced run,
as measured, folded from its spans, the proxy's ``RoundStats`` and the
storage wrapper's counters.  The names and units of both sets are declared
in ``BENCHMARK.json``; ``run.py`` refuses to print a metric not declared
there or to leave out one that is.

Layer metrics cover the rounds of the ``closed`` phase (the steady-state
window of exactly one dummy epoch) unless named otherwise: ``serve.*`` and
``gen.*`` cover the open-loop phases, ``*.setup_s`` the kept set-up.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from perfbench.phases import RATES, PhaseLog, RunResult, median, percentile

__all__ = ["end_to_end", "per_layer", "tails"]


def _latencies_s(res: RunResult, log: PhaseLog, scaled: bool
                 ) -> list[float]:
    """Request latencies of a frontend phase, in seconds.

    Scaled, only the part of a latency spent on CPU work is scaled: the
    rounds that ran while the request waited, its own round and the hop
    back to the waiting task.  The rest, while the round executor was
    idle, is the batching deadline of the release policy: wall-clock time
    that no host speed changes.
    """
    if not scaled:
        return [done - due for _, due, done in log.latency]
    starts = [start for start, _, _ in log.rounds]
    carrier = {request_id: index
               for index, (_, _, ids) in enumerate(log.rounds)
               for request_id in ids}
    out = []
    for request_id, due, done in log.latency:
        own = carrier[request_id]
        busy = 0.0
        for start, end, _ in log.rounds[
                max(bisect.bisect_right(starts, due) - 1, 0):own]:
            busy += max(0.0, end - max(start, due))
        idle = starts[own] - due - busy
        out.append(idle + (busy + done - starts[own])
                   * res.speed.factor_over(due, done))
    return out


def _timings_s(res: RunResult, scaled: bool) -> dict[str, list[float]]:
    """Set-up, closed-loop round, ``sat`` segment and request times.

    Scaled, each of the first three is multiplied by the speed factor
    over it.
    """
    closed, sat = res.phases["closed"], res.phases["sat"]
    series = {"setup": res.setup_s,
              "round": list(zip(closed.round_at, closed.round_s)),
              "sat": sat.windows}
    if scaled:
        out = {name: res.speed.scale(timed)
               for name, timed in series.items()}
    else:
        out = {name: [seconds for _, seconds in timed]
               for name, timed in series.items()}
    for rate in RATES:
        out[f"lat.r{rate}"] = _latencies_s(res, res.phases[f"r{rate}"],
                                           scaled)
    return out


def end_to_end(res: RunResult, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; ``scaled=False`` leaves timings as measured."""
    closed, sat = res.phases["closed"], res.phases["sat"]
    timings = _timings_s(res, scaled)
    rounds_ms = [s * 1e3 for s in timings["round"]]
    out = {
        "setup_s": median(timings["setup"]),
        "peak_rss_mb": res.peak_rss_mb,
        "storage_amp": res.storage_amp,
        "ok_ratio": (res.attempted - res.failed) / res.attempted,
        "req_per_s": closed.requests / sum(timings["round"]),
        "round_p50_ms": percentile(rounds_ms, 50),
        "served_rps.sat": sat.requests / sum(timings["sat"]),
    }
    for rate in RATES:
        lat_ms = [s * 1e3 for s in timings[f"lat.r{rate}"]]
        out[f"lat_p50_ms.r{rate}"] = percentile(lat_ms, 50)
    return out


def tails(res: RunResult) -> dict[str, dict]:
    """p95, p99 and sample count of the round times and latencies.

    They are printed, not bounded: slow stretches of a shared host shorter
    than the spacing of the speed-reference units land in the tail
    unscaled, and over 5-run sets the quartile spread of a p95 reached
    0.14-0.27 of its median, against 0.02-0.13 for the p50s.
    """
    return {name: {"p95_ms": percentile(values, 95) * 1e3,
                   "p99_ms": percentile(values, 99) * 1e3,
                   "samples": len(values)}
            for name, values in _timings_s(res, scaled=True).items()
            if name not in ("setup", "sat")}


def _duration(span: tuple) -> float:
    return span[3] - span[2]


def per_layer(res: RunResult) -> dict[str, float]:
    cfg = res.config
    phases = res.phases
    closed = phases["closed"]
    window = closed.round_numbers()
    n_rounds = len(window)

    rounds: dict[int, tuple] = {}
    children: dict[int, list[tuple]] = defaultdict(list)
    requests: list[tuple] = []
    setup_id = None
    for span in res.tracer.spans:
        name, parent = span[1], span[4]
        if name == "core.round":
            rounds[span[5]["ts"]] = span
        elif name == "serve.request":
            requests.append(span)
        elif name == "setup":
            setup_id = span[0]
        if parent is not None:
            children[parent].append(span)

    # -- crypto and storage, inside the window's rounds --------------------
    busy: dict[str, float] = defaultdict(float)
    items: dict[str, int] = defaultdict(int)
    round_ms, self_ms = [], []
    for ts in window:
        span = rounds[ts]
        inner = 0.0
        for child in children[span[0]]:
            busy[child[1]] += _duration(child)
            items[child[1]] += child[5].get("items", 0)
            inner += _duration(child)
        round_ms.append(_duration(span) * 1e3)
        self_ms.append((_duration(span) - inner) * 1e3)
    crypto_s = sum(v for k, v in busy.items() if k.startswith("crypto."))
    storage_s = sum(v for k, v in busy.items() if k.startswith("storage."))
    setup_busy: dict[str, float] = defaultdict(float)
    for child in children[setup_id]:
        setup_busy[child[1].split(".")[0]] += _duration(child)

    def us_per_item(kind: str) -> float:
        return busy[kind] * 1e6 / items[kind] if items[kind] else 0.0

    # -- proxy round statistics ------------------------------------------
    in_window = set(window)
    stats = [s for s in res.ds.proxy.totals.stats_by_round
             if s.round in in_window]
    total = defaultdict(int)
    for s in stats:
        for attr in ("requests", "cache_hits", "unique_real_reads",
                     "server_reads", "index_ops", "cache_ops"):
            total[attr] += getattr(s, attr)

    epoch_ms = [_duration(span) * 1e3 for ts, span in rounds.items()
                if ts % res.epoch == 0]

    # -- storage counters and the network split --------------------------
    calls, reads, writes, moved = res.window_counts["store"]
    storage_ms = storage_s * 1e3 / n_rounds
    if res.workload.tcp:
        server_ms = res.window_counts["server_ns"] / 1e6 / n_rounds
        net = {"net.ms_per_round": storage_ms - server_ms,
               "net.server_ms_per_round": server_ms,
               "net.round_trips_per_round": calls / n_rounds}
    else:  # in-process storage: no network by construction
        net = {"net.ms_per_round": 0.0, "net.server_ms_per_round": 0.0,
               "net.round_trips_per_round": 0.0}

    # -- serving, over the open-loop phases ------------------------------
    open_loop = [phases[f"r{rate}"] for rate in RATES]
    served_rounds = {}
    for log in open_loop:
        for ts in log.round_numbers():
            for request_id in rounds[ts][5]["request_ids"]:
                served_rounds[request_id] = rounds[ts]
    wait_ms, hop_ms = [], []
    for span in requests:
        carrier = served_rounds.get(span[5]["request_id"])
        if carrier is not None:
            wait_ms.append((carrier[2] - span[2]) * 1e3)
            hop_ms.append((span[3] - carrier[3]) * 1e3)
    sizes = [len(ids) for log in open_loop for _, _, ids in log.rounds]
    late_ms = [s * 1e3 for log in open_loop for s in log.late_s]

    # -- tracing overhead: alternate traced and untraced rounds ----------
    reference = phases["reference"]
    paired: tuple[list, list] = ([], [])
    for index, (ts, seconds) in enumerate(zip(reference.round_numbers(),
                                              reference.round_s)):
        if ts % res.epoch:  # skip a reset round
            paired[index % 2].append(seconds)
    overhead = (median(paired[0]) / median(paired[1]) - 1) * 100

    return {
        "serve.wait_ms.p50": percentile(wait_ms, 50),
        "serve.wait_ms.p99": percentile(wait_ms, 99),
        "serve.hop_ms.p50": percentile(hop_ms, 50),
        "serve.fill": sum(sizes) / len(sizes) / cfg.r if sizes else 0.0,
        "serve.shed": sum(log.frontend["shed"] for log in phases.values()
                          if log.frontend),
        "serve.high_water": max(log.frontend["high_water"]
                                for log in open_loop),
        "core.round_ms.p50": percentile(round_ms, 50),
        "core.round_ms.p99": percentile(round_ms, 99),
        "core.self_ms_per_round": sum(self_ms) / n_rounds,
        "core.epoch_round_ms": median(epoch_ms),
        "core.epoch_resets": closed.resets,
        "core.cache_hit_ratio": total["cache_hits"] / total["requests"],
        "core.real_read_ratio":
            total["unique_real_reads"] / total["server_reads"],
        "ds.index_ops_per_round": total["index_ops"] / n_rounds,
        "ds.cache_ops_per_round": total["cache_ops"] / n_rounds,
        "crypto.prf.us_per_item": us_per_item("crypto.prf"),
        "crypto.encrypt.us_per_item": us_per_item("crypto.encrypt"),
        "crypto.decrypt.us_per_item": us_per_item("crypto.decrypt"),
        "crypto.ms_per_round": crypto_s * 1e3 / n_rounds,
        "crypto.setup_s": setup_busy["crypto"],
        "storage.ms_per_round": storage_ms,
        "storage.setup_s": setup_busy["storage"],
        "storage.reads_per_round": reads / n_rounds,
        "storage.writes_per_round": writes / n_rounds,
        "storage.bytes_per_round": moved / n_rounds,
        **net,
        "gen.late_ms.p99": percentile(late_ms, 99),
        "trace.overhead_pct": overhead,
    }
