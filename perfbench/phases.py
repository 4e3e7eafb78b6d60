"""Workloads, phases and metrics of one benchmark run.

A run builds the datastore ``setups`` times (``setup_s`` is the median)
and keeps the last one.  It then runs these phases in order:

1. ``warmup``: a few closed-loop rounds.  The adversary trace of set-up
   plus these rounds is the seeded prefix whose sha256 the run prints.
2. ``r300``, then ``r600``: open-loop Poisson arrivals through
   ``AsyncFrontend`` with ``MaxWaitPolicy(R, 5 ms)``, each for
   ``OPEN_LOOP_SHARE`` of ``--seconds``.  One scheduler task
   starts each request at its due time; latency counts from that time.
   Arrivals run in segments of ``SEGMENT_S`` seconds; between two, the
   frontend drains and the run times a few speed-reference units.
3. ``closed``: one client calls ``execute_batch`` with full R-request
   batches for exactly one dummy epoch, ceil(D/f_D) rounds, so the
   window holds exactly one epoch reset and ``req_per_s`` and ``round_*``
   do not depend on where it falls.  Its rounds run in two parts, before
   and after ``r600``; the first part ends on a reset round.
4. ``sat``: the same number of full rounds through ``AsyncFrontend``,
   fed by 4R outstanding requests (64 at R=16), in ``SAT_SEGMENTS``
   segments with speed-reference units between them; it gives
   ``served_rps.sat``.

Speed-reference units (:mod:`perfbench.speed`) are also timed between
set-ups, before and after every phase and every ``REF_EVERY`` closed-loop
rounds, always outside the timed rounds and requests.

Each open-loop phase starts a fresh epoch (``r300`` right after the
warm-up, ``r600`` right after a reset), so it holds no reset as long as
it takes fewer rounds than an epoch; the run reports the resets each
phase held.  Every request of every phase is
checked against a :class:`~perfbench.checks.ReferenceModel` kept in
submit order, and the storage wrapper checks every round's id counts.

A traced run (``trace=True``) wraps the keychain's ``prf``/``cipher``,
the store and the frontend's ``execute=`` callable with the timed
wrappers of :mod:`perfbench.tracing`.  After the phases it runs rounds
with the tracer switched on and off in turn to measure its overhead.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import resource
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from importlib import metadata
from pathlib import Path

from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.datastore import WaffleDatastore
from repro.crypto.keys import KeyChain
from repro.errors import OverloadedError
from repro.net.client import RemoteStore
from repro.net.protocol import decode_message, encode_message, read_frame, \
    write_frame
from repro.serve.frontend import AsyncFrontend
from repro.serve.policy import MaxWaitPolicy
from repro.storage.redis_sim import RedisSim
from repro.workloads.openloop import PoissonArrivals
from repro.workloads.trace import Operation
from repro.workloads.ycsb import YcsbWorkload

from perfbench.checks import ReferenceModel, ResponseLog, trace_digest
from perfbench.speed import SpeedReference
from perfbench.tracing import MeteredStore, TimedCipher, TimedPrf, Tracer

__all__ = ["RATES", "WORKLOADS", "RunResult", "Workload", "run_workload"]

HERE = Path(__file__).resolve().parent
_clock = time.perf_counter

#: The value header ``pad_value`` adds; user values are this much
#: smaller than ``WaffleConfig.value_size``.
_PAD_HEADER = 4

#: Open-loop arrival rates, req/s: about 20% and 40% of the measured
#: saturation of ``serve-tcp-1k`` (1.6k req/s on 2 cores).
RATES = (300, 600)
#: ``MaxWaitPolicy`` deadline of a partial batch.
MAX_WAIT_S = 0.005
#: Outstanding requests in the ``sat`` phase, in batches of R: with fewer
#: than 2R a round would start before the next batch is queued.
OUTSTANDING_BATCHES = 4
WARMUP_ROUNDS = 32
#: Each open-loop rate runs for this share of ``--seconds``.
OPEN_LOOP_SHARE = 1 / 4
#: Units of speed-reference work timed before and after every phase and
#: set-up, and in every pause: between two segments of a frontend phase
#: and every ``REF_EVERY`` closed-loop rounds.
REF_BURST = 25
REF_PAUSE = 4
REF_EVERY = 8
#: Open-loop phases run in segments of this many seconds of arrivals, the
#: ``sat`` phase in this many segments, with a pause for speed-reference
#: units between two segments.  The frontend is idle in a pause.
SEGMENT_S = 0.5
SAT_SEGMENTS = 32


@dataclass(frozen=True)
class Workload:
    """One named input set of the benchmark."""

    name: str
    n: int
    value_size: int
    read_proportion: float
    uniform: bool
    tcp: bool
    setups: int = 3
    #: Rounds a traced run adds, alternately traced and untraced, to
    #: measure the tracing overhead under the same machine load.
    reference_rounds: int = 400

    def config(self, seed: int) -> WaffleConfig:
        return replace(WaffleConfig.paper_defaults(self.n, seed=seed),
                       value_size=self.value_size)


WORKLOADS: dict[str, Workload] = {
    # Index-heavy; read-only uniform keys, working set far above C.
    "ycsb-c-64k": Workload("ycsb-c-64k", n=2**16, value_size=64,
                           read_proportion=1.0, uniform=True, tcp=False),
    # The paper's deployment: storage in its own process over loopback TCP.
    "serve-tcp-1k": Workload("serve-tcp-1k", n=2**14, value_size=1024,
                             read_proportion=0.5, uniform=True, tcp=True),
}


def epoch_rounds(config: WaffleConfig) -> int:
    """Rounds between dummy-index epoch resets: ceil(D / f_D)."""
    return math.ceil(config.d / config.f_d)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, interpolated between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class RequestSource:
    """The seeded request stream of a workload, in phase order.

    Keys and operations come from ``YcsbWorkload``; every write carries a
    value unique to its request (its id, then seeded filler), so a wrong
    response can never match by accident.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.user_size = workload.value_size - _PAD_HEADER
        self._ycsb = YcsbWorkload(workload.n, workload.read_proportion,
                                  uniform=workload.uniform,
                                  value_size=self.user_size, seed=seed)
        self._filler = random.Random(f"perfbench-values-{seed}")
        self._next_id = 1

    def initial_items(self) -> dict[str, bytes]:
        return dict(self._ycsb.initial_records())

    def take(self, count: int) -> list[ClientRequest]:
        out = []
        for drawn in self._ycsb.requests(count):
            request_id = self._next_id
            self._next_id += 1
            value = None
            if drawn.op is Operation.WRITE:
                value = request_id.to_bytes(8, "big") + \
                    self._filler.randbytes(self.user_size - 8)
            out.append(ClientRequest(op=drawn.op, key=drawn.key, value=value,
                                     request_id=request_id))
        return out


# ----------------------------------------------------------------------
# deployment
# ----------------------------------------------------------------------
def _start_storage_server(trace: bool, cpu: int | None
                          ) -> tuple[subprocess.Popen, int]:
    command = [sys.executable, str(HERE / "storage_server.py"),
               "--trace", str(int(trace))]
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    proc = subprocess.Popen(
        command,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"storage server did not start: {line!r}")
    return proc, int(line.split()[1])


def _stop_process(proc: subprocess.Popen) -> None:
    proc.stdin.close()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


class Deployment:
    """A built datastore with its store wrapper and storage process."""

    def __init__(self, workload: Workload, config: WaffleConfig,
                 items: dict[str, bytes], seed: int,
                 tracer: Tracer | None,
                 storage_cpu: int | None = None) -> None:
        self.tracer = tracer
        self.server: subprocess.Popen | None = None
        self.port: int | None = None
        self.remote: RemoteStore | None = None
        start = _clock()
        try:
            if workload.tcp:
                self.server, self.port = _start_storage_server(
                    tracer is not None, storage_cpu)
                self.remote = RemoteStore(("127.0.0.1", self.port))
                inner = self.remote
            else:
                inner = RedisSim(write_once=True)
            self.store = MeteredStore(inner, config.b, tracer)
            self.keychain = KeyChain.from_seed(seed)
            if tracer is not None:
                self.keychain.prf = TimedPrf(self.keychain.prf, tracer)
                self.keychain.cipher = TimedCipher(self.keychain.cipher,
                                                   tracer)
                token = tracer.open("setup")
            self.ds = WaffleDatastore(config, items, store=self.store,
                                      keychain=self.keychain)
            if tracer is not None:
                tracer.close(token)
        except BaseException:
            self.close()
            raise
        self.setup_at = start
        self.setup_s = _clock() - start
        self.store.checking = True

    def server_stats(self) -> tuple[int, int]:
        """``(busy_ns, commands)`` of the traced storage process."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=10) as sock:
            write_frame(sock, encode_message(["BENCHSTATS"]))
            busy_ns, commands = decode_message(read_frame(sock))
        return busy_ns, commands

    def close(self) -> None:
        if self.remote is not None:
            self.remote.close()
            self.remote = None
        if self.server is not None:
            _stop_process(self.server)
            self.server = None


def crypto_backend(keychain: KeyChain) -> str:
    cipher = getattr(keychain.cipher, "_inner", keychain.cipher)
    return getattr(cipher, "backend_name", type(cipher).__name__)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
@dataclass
class PhaseLog:
    """What one phase did: rounds, resets and client-side timings."""

    name: str
    #: ``(first, last)`` round numbers of each stretch the phase ran.
    segments: list[tuple[int, int]] = field(default_factory=list)
    resets: int = 0
    requests: int = 0
    elapsed_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    #: When each closed-loop round started.
    round_at: list[float] = field(default_factory=list)
    #: ``(request_id, due, done)`` of every request served by the frontend.
    latency: list[tuple[int, float, float]] = field(default_factory=list)
    #: ``(start, end, request_ids)`` of every round the frontend ran.
    rounds: list[tuple[float, float, list[int]]] = field(
        default_factory=list)
    #: ``(start, seconds)`` of each segment of the ``sat`` phase.
    windows: list[tuple[float, float]] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    frontend: dict = field(default_factory=dict)

    def round_numbers(self) -> list[int]:
        return [ts for first, last in self.segments
                for ts in range(first, last + 1)]

    def summary(self) -> dict:
        return {"rounds": len(self.round_numbers()), "resets": self.resets,
                "requests": self.requests,
                "elapsed_s": round(self.elapsed_s, 4), **self.frontend}


class Run:
    """Executes the phases of one workload on one deployment."""

    def __init__(self, workload: Workload, dep: Deployment,
                 source: RequestSource, model: ReferenceModel,
                 epoch: int, speed: SpeedReference) -> None:
        self.workload = workload
        self.speed = speed
        self.dep = dep
        self.ds = dep.ds
        self.source = source
        self.model = model
        self.epoch = epoch
        self.responses = ResponseLog()
        self.errors: list[str] = []
        self.shed = 0
        self.attempted = 0
        tracer = dep.tracer
        if tracer is None:
            self.execute = self.ds.execute_batch
        else:
            proxy = self.ds.proxy

            def execute(requests: list[ClientRequest]):
                if not tracer.enabled:
                    return self.ds.execute_batch(requests)
                token = tracer.open("core.round")
                try:
                    return self.ds.execute_batch(requests)
                finally:
                    tracer.close(token, ts=proxy.ts,
                                 request_ids=[r.request_id for r in requests])
            self.execute = execute

    def _begin(self) -> int:
        # Collect, then freeze what survives: a full collection scans the
        # whole index and cache (160 ms at N=2^16) and would otherwise land
        # at a random point of the window.  Garbage made during the phase
        # is still collected.
        gc.collect()
        gc.freeze()
        self.speed.burst(REF_BURST)
        return self.ds.proxy.ts

    def _end(self, log: PhaseLog, ts0: int) -> PhaseLog:
        self.speed.burst(REF_BURST)
        ts1 = self.ds.proxy.ts
        if ts1 > ts0:
            log.segments.append((ts0 + 1, ts1))
        # Resets fire at the end of every multiple of ceil(D/f_D) rounds.
        log.resets += ts1 // self.epoch - ts0 // self.epoch
        return log

    # -- closed loop -----------------------------------------------------
    def closed_loop(self, log: PhaseLog, rounds: int, record: bool = True,
                    alternate: Tracer | None = None) -> PhaseLog:
        """Run ``rounds`` full batches back to back, adding them to ``log``.

        With ``alternate``, the tracer is on for even rounds and off for
        odd ones.
        """
        name = log.name
        r = self.ds.config.r
        batches = [self.source.take(r) for _ in range(rounds)]
        ts0 = self._begin()
        execute = self.execute
        for index, batch in enumerate(batches):
            if index % REF_EVERY == 0:
                self.speed.burst(REF_PAUSE)
            if alternate is not None:
                alternate.enabled = index % 2 == 0
            expected = [self.model.submit(req) for req in batch]
            self.attempted += len(batch)
            start = _clock()
            try:
                responses = execute(batch)
            except Exception as error:  # noqa: BLE001 - counted, reported
                self.errors.append(f"{name}: {error!r}")
                continue
            log.round_s.append(_clock() - start)
            log.round_at.append(start)
            by_id = {resp.request_id: resp.value for resp in responses}
            for req, want in zip(batch, expected):
                got = by_id.get(req.request_id)
                if got is None:
                    self.errors.append(f"{name}: no response to "
                                       f"request {req.request_id}")
                    continue
                self.model.check(req, want, got)
                if record:
                    self.responses.add(req.request_id, got)
        log.requests += rounds * r
        log.elapsed_s = sum(log.round_s)
        return self._end(log, ts0)

    # -- frontend --------------------------------------------------------
    async def _request(self, frontend: AsyncFrontend, req: ClientRequest,
                       due: float, log: PhaseLog) -> None:
        expected = self.model.submit(req)
        submitted = _clock()
        try:
            got = await frontend.submit(req)
        except OverloadedError:
            self.shed += 1
            return
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.errors.append(f"{log.name}: {error!r}")
            return
        done = _clock()
        self.model.check(req, expected, got)
        self.responses.add(req.request_id, got)
        log.latency.append((req.request_id, due, done))
        if self.dep.tracer is not None:
            self.dep.tracer.add("serve.request", submitted, done,
                                request_id=req.request_id, due=due)

    def _frontend(self, log: PhaseLog) -> AsyncFrontend:
        cfg = self.ds.config
        inner = self.execute

        def execute(requests: list[ClientRequest]):
            start = _clock()
            try:
                return inner(requests)
            finally:
                log.rounds.append((start, _clock(),
                                   [r.request_id for r in requests]))
        return AsyncFrontend(
            self.ds, policy=MaxWaitPolicy(cfg.r, MAX_WAIT_S),
            execute=execute)

    def _frontend_done(self, frontend: AsyncFrontend, log: PhaseLog) -> None:
        stats = frontend.stats()
        log.frontend = {key: stats[key] for key in
                        ("admitted", "shed", "high_water", "rounds")}

    def open_loop(self, rate: int, seconds: float, seed: int) -> PhaseLog:
        arrivals = PoissonArrivals(rate, self.workload.n,
                                   seed=seed * 1000 + rate).generate(seconds)
        requests = self.source.take(len(arrivals))
        log = PhaseLog(f"r{rate}")
        ts0 = self._begin()

        async def body() -> None:
            frontend = self._frontend(log)
            async with frontend:
                tasks = []
                segment = 0
                t0 = _clock() + 0.01
                start = t0
                for req, arrival in zip(requests, arrivals):
                    if arrival.at >= (segment + 1) * SEGMENT_S:
                        # Pause: let the segment drain, time the host.
                        await asyncio.gather(*tasks)
                        self.speed.burst(REF_PAUSE)
                        segment = int(arrival.at // SEGMENT_S)
                        t0 = _clock() + 0.001 - segment * SEGMENT_S
                    due = t0 + arrival.at
                    delay = due - _clock()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    log.late_s.append(max(0.0, _clock() - due))
                    self.attempted += 1
                    tasks.append(asyncio.ensure_future(
                        self._request(frontend, req, due, log)))
                await asyncio.gather(*tasks)
                log.elapsed_s = _clock() - start
            self._frontend_done(frontend, log)

        asyncio.run(body())
        log.requests = len(requests)
        return self._end(log, ts0)

    def saturate(self, rounds: int) -> PhaseLog:
        r = self.ds.config.r
        requests = self.source.take(rounds * r)
        log = PhaseLog("sat")
        ts0 = self._begin()

        async def body() -> None:
            frontend = self._frontend(log)

            async def client(pending) -> None:
                for req in pending:
                    self.attempted += 1
                    await self._request(frontend, req, _clock(), log)

            async with frontend:
                first = 0
                for index in range(SAT_SEGMENTS):
                    if index:
                        self.speed.burst(REF_PAUSE)
                    last = first + r * (rounds // SAT_SEGMENTS + (
                        index < rounds % SAT_SEGMENTS))
                    pending = iter(requests[first:last])
                    first = last
                    start = _clock()
                    await asyncio.gather(*(
                        client(pending)
                        for _ in range(OUTSTANDING_BATCHES * r)))
                    log.windows.append((start, _clock() - start))
                log.elapsed_s = sum(seconds for _, seconds in log.windows)
            self._frontend_done(frontend, log)

        asyncio.run(body())
        log.requests = len(requests)
        return self._end(log, ts0)


# ----------------------------------------------------------------------
# the whole run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Everything a run measured; :mod:`perfbench.metrics` reads it."""

    workload: Workload
    config: WaffleConfig
    seed: int
    traced: bool
    fingerprint: dict
    #: ``(start, seconds)`` of each set-up.
    setup_s: list[tuple[float, float]]
    peak_rss_mb: float
    storage_amp: float
    attempted: int
    failures: list[str]
    trace_digest: str
    response_digest: str
    phases: dict[str, PhaseLog]
    epoch: int
    speed: SpeedReference | None = None
    tracer: Tracer | None = None
    ds: WaffleDatastore | None = None
    window_counts: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _fingerprint(workload: Workload, config: WaffleConfig, seed: int,
                 keychain: KeyChain) -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "cryptography": version("cryptography"),
        "crypto_backend": crypto_backend(keychain),
        "workload": workload.name,
        "config": asdict(config),
        "seed": seed,
    }


def _store_counts(store: MeteredStore) -> list[int]:
    return [store.calls, store.reads, store.writes, store.bytes]


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, storage_cpu: int | None = None) -> RunResult:
    """Run every phase of ``workload`` once and collect the results.

    ``storage_cpu`` pins the storage process of a TCP workload to that
    CPU; ``None`` leaves it unpinned.
    """
    config = workload.config(seed)
    epoch = epoch_rounds(config)
    source = RequestSource(workload, seed)
    items = source.initial_items()
    user_bytes = sum(len(value) for value in items.values())

    setup_times = []
    speed = SpeedReference(seed)
    dep: Deployment | None = None
    try:
        for _ in range(workload.setups):
            speed.burst(REF_BURST)
            if dep is not None:
                dep.close()
                dep = None
                gc.collect()
            dep = Deployment(workload, config, items, seed,
                             Tracer() if trace else None, storage_cpu)
            setup_times.append((dep.setup_at, dep.setup_s))
        storage_amp = dep.store.bytes / user_bytes
        model = ReferenceModel(items)
        del items
        run = Run(workload, dep, source, model, epoch, speed)
        phases: dict[str, PhaseLog] = {}

        phases["warmup"] = run.closed_loop(PhaseLog("warmup"), WARMUP_ROUNDS)
        recorder = dep.ds.recorder
        prefix_digest = trace_digest(recorder.records)
        recorder.enabled = False
        recorder.clear_records()

        closed = PhaseLog("closed")
        window = {"store": [0, 0, 0, 0], "server_ns": 0}

        def closed_segment(rounds: int) -> None:
            store0 = _store_counts(dep.store)
            if trace and workload.tcp:
                busy0 = dep.server_stats()[0]
            run.closed_loop(closed, rounds)
            window["store"] = [total + after - before for total, after, before
                               in zip(window["store"],
                                      _store_counts(dep.store), store0)]
            if trace and workload.tcp:
                window["server_ns"] += dep.server_stats()[0] - busy0

        # The closed window is one epoch of rounds, split so that its first
        # part ends on a reset round: every open-loop phase after the first
        # then starts a fresh epoch and ends before the next reset.
        for index, rate in enumerate(RATES):
            if index:
                closed_segment(-dep.ds.proxy.ts % epoch)
            log = run.open_loop(rate, seconds * OPEN_LOOP_SHARE, seed)
            phases[log.name] = log
        if len(closed.round_s) > epoch:
            raise RuntimeError("open-loop phases outran one dummy epoch")
        closed_segment(epoch - len(closed.round_s))
        phases["closed"] = closed

        phases["sat"] = run.saturate(epoch)
        if trace:
            phases["reference"] = run.closed_loop(
                PhaseLog("reference"), workload.reference_rounds,
                record=False, alternate=dep.tracer)
            dep.tracer.enabled = True

        failures = list(run.errors) + model.wrong + dep.store.violations
        failures += ["request shed"] * run.shed
        return RunResult(
            workload=workload, config=config, seed=seed, traced=trace,
            fingerprint=_fingerprint(workload, config, seed, dep.keychain),
            setup_s=setup_times,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            storage_amp=storage_amp, attempted=run.attempted,
            failures=failures, trace_digest=prefix_digest,
            response_digest=run.responses.digest(), phases=phases,
            epoch=epoch, speed=speed, tracer=dep.tracer, ds=dep.ds,
            window_counts=window)
    finally:
        if dep is not None:
            dep.close()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
