"""Golden digests of the adversary trace and the client responses.

Each case drives a :class:`WaffleProxy` on a :class:`RecordingStore` with
a fixed seed and compares two sha256 digests with pinned values: one of
the ``(op, storage_id)`` sequence the server observes (initial load
included) and one of every response's key and value, in the order
returned (request ids come from a process-wide counter, so they stay
out).  Any change to the fake-query
order, the rng draw sequence or the id schedule moves a digest, so an
internal rewrite that claims "same behaviour" is held to it here.

The pinned values were recorded with the treap-backed index that the
heap index replaced; the heap must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from repro.core.batch import ClientRequest
from repro.core.config import WaffleConfig
from repro.core.proxy import WaffleProxy
from repro.crypto.keys import KeyChain
from repro.ds.heap_index import HeapIndex
from repro.storage.memory import InMemoryStore
from repro.storage.recording import RecordingStore
from repro.workloads.trace import Operation

VALUE_SIZE = 32
WRITE_SHARE = 0.4


def _value(tag: str) -> bytes:
    return tag.encode().ljust(VALUE_SIZE, b".")[:VALUE_SIZE]


def _run(config: WaffleConfig, rounds: int,
         mutate_every: int = 0) -> tuple[str, str]:
    """Run ``rounds`` full batches; return (trace, responses) digests.

    With ``mutate_every`` set, every that many rounds two live keys are
    queued for deletion and two new keys for insertion; requests only
    name keys the proxy already serves.
    """
    store = RecordingStore(InMemoryStore(write_once=True))
    proxy = WaffleProxy(config, store, keychain=KeyChain.from_seed(config.seed),
                        keep_round_stats=False)
    live = [f"user{i:06d}" for i in range(config.n)]
    proxy.initialize({key: _value(key) for key in live})
    rng = random.Random(config.seed + 1)
    responses = hashlib.sha256()
    arriving: list[str] = []
    serial = 0
    for rnd in range(1, rounds + 1):
        batch = []
        for _ in range(config.r):
            key = live[rng.randrange(len(live))]
            if rng.random() < WRITE_SHARE:
                serial += 1
                batch.append(ClientRequest(op=Operation.WRITE, key=key,
                                           value=_value(f"w{serial}")))
            else:
                batch.append(ClientRequest(op=Operation.READ, key=key))
        for resp in proxy.handle_batch(batch):
            responses.update(b"%s:%s\n" % (resp.key.encode(), resp.value))
        live.extend(arriving)
        arriving = []
        if mutate_every and rnd % mutate_every == 0:
            for _ in range(2):
                proxy.mutations.enqueue_delete(
                    live.pop(rng.randrange(len(live))))
                serial += 1
                key = f"new{serial:06d}"
                proxy.mutations.enqueue_insert(key, _value(key))
                arriving.append(key)
    trace = hashlib.sha256()
    for rec in store.records:
        trace.update(f"{rec.op}:{rec.storage_id}\n".encode())
    return trace.hexdigest(), responses.hexdigest()


def _config(seed: int, **overrides) -> WaffleConfig:
    shape = dict(n=600, b=40, r=12, f_d=8, d=48, c=24,
                 value_size=VALUE_SIZE, seed=seed)
    shape.update(overrides)
    return WaffleConfig(**shape)


def _epochs(config: WaffleConfig, rounds: int) -> int:
    return rounds // math.ceil(config.d / config.f_d)


POLICY_ROUNDS = 80
POLICY_TRACES = {
    ("reshuffle", "least_recent"):
        "be2e5f2a958543b6d47d371676f1d12a34abf1eef8ce35efee138e8b5701a121",
    ("reshuffle", "uniform"):
        "a399c26ed0f7e6a89cd71fe6ecc9773707be164efcaf90911c0b12fa8ba50dc4",
    ("round_robin", "least_recent"):
        "9505e00deb942a82850029d3749fd6d7464009a5bfbbbb148b84f5162451c942",
    ("round_robin", "uniform"):
        "07236791b292e2a7c7c0af505f160a88a14ad7b7aeb1dd02c8a624513bba8bf0",
}
#: Responses are the same under every policy: the client sees values only.
POLICY_RESPONSES = (
    "b4220eb26a720916a3d61be1897ac75191ca8c359a70c5b1e68b882bd6852508")


@pytest.mark.parametrize("policies", sorted(POLICY_TRACES))
def test_policy_combinations(policies):
    dummy_policy, fake_real_policy = policies
    config = _config(seed=7, dummy_policy=dummy_policy,
                     fake_real_policy=fake_real_policy)
    assert _epochs(config, POLICY_ROUNDS) >= 2
    assert _run(config, POLICY_ROUNDS) == (POLICY_TRACES[policies],
                                           POLICY_RESPONSES)


MUTATION_GOLDEN = (
    "11ff659455109045ae8736d0ef345dca340d01a38d64957775b767c609377197",
    "0eb03af2afcaa07f12d01238c1ee521e1f99474195d0105c660d740c7b06279c")


def test_inserts_and_deletes():
    """Inserts retire dummies and add real keys; deletes force-read the
    key, drop it and swap a newborn dummy in."""
    config = _config(seed=13)
    assert _run(config, 90, mutate_every=3) == MUTATION_GOLDEN


EPOCH_GOLDEN = (
    "e905b7a63223afa591c1fcbd7f3978fa50e4967de25b9d269742db219d5e7325",
    "4e4c58855d718aac3ed956445967742bde391053b63fdc155e403c3ec2de3f4b")


def test_many_dummy_epoch_resets():
    """A small D with a large f_D resets the dummy order every 2 rounds."""
    config = _config(seed=21, d=20, f_d=10, r=10)
    rounds = 60
    assert _epochs(config, rounds) >= 2
    assert _run(config, rounds) == EPOCH_GOLDEN


COMPACTION_GOLDEN = (
    "8cb0e5e3a6272fcf5d1b837c27239a993fbb53e7877300517d59ea9af8b65042",
    "ff06632e3d1fe5dab2998dba75c124facc5ffec22d179f7135f38d0aa9598c2d")


def test_many_stale_index_entries(monkeypatch):
    """R far above f_R: client reads pull resident keys out of the real
    index much faster than fake queries sweep past their old positions,
    so stale heap tuples pile up until the index compacts."""
    compactions = []
    compact = HeapIndex._compact

    def counting(index):
        compactions.append(index.heap_size)
        compact(index)

    monkeypatch.setattr(HeapIndex, "_compact", counting)
    config = _config(seed=34, n=400, b=40, r=30, f_d=4, d=16, c=8)
    assert _run(config, 120) == COMPACTION_GOLDEN
    assert compactions
