"""Determinism under parallelism: chaos episodes with the worker pool.

The chaos harness already pins that a fixed episode is deterministic
(same faults, same trace, same responses) when run twice.  This suite
pins the stronger property DESIGN.md §10 claims for the parallel
engine: the *worker count* is not an input — the same episodes, run
with the batched crypto routed through pools of different sizes
(``min_batch=1``, so even chaos-sized batches cross the process
boundary), must produce identical oracles, identical collapsed traces,
and identical fault/failover accounting.  Failovers matter here:
promotion restores a checkpoint whose unpickling reduced the pooled
kernels to plain ones, and the runner re-attaches the pool — byte
equality across worker counts proves that round trip is lossless.

A small deterministic slice runs in tier-1; the 50-episode sweep
carries the ``chaos`` marker for CI's dedicated step (or locally via
``pytest -m chaos tests/test_chaos_parallel.py``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.parallel import WorkerPool
from repro.testing import generate_episode, run_episode

ADVERSE = {"fault_rate": 0.1, "crash_rate": 0.1, "mutation_rate": 0.15}


def _signature(result):
    return {
        "trace": [(r.op, r.storage_id, r.round)
                  for r in result.collapsed_records],
        "rounds": result.rounds_committed,
        "failovers": result.failovers,
        "aborted": result.aborted_attempts,
        "faults": result.faults_injected,
        "violations": [str(v) for v in result.violations],
    }


def _run_with_workers(episodes, worker_counts=(1, 4)):
    """Each episode once per worker count; returns signatures per count."""
    signatures = {}
    for workers in worker_counts:
        with WorkerPool(workers, min_batch=1) as pool:
            signatures[workers] = [
                _signature(run_episode(episode, parallel_pool=pool))
                for episode in episodes
            ]
    return signatures


# ---------------------------------------------------------------------------
# Tier-1 slice
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("ha_mode", ["replicated", "quorum"])
def test_pooled_episode_matches_inline(ha_mode):
    episode = generate_episode(seed=77, ha_mode=ha_mode, **ADVERSE)
    signatures = _run_with_workers([episode], worker_counts=(1, 2))
    inline, pooled = signatures[1][0], signatures[2][0]
    assert inline["violations"] == []
    assert pooled == inline


def test_pooled_failover_episode_is_clean():
    """A known crashy script: the pool survives promotion re-attachment."""
    episode = generate_episode(seed=2, ha_mode="replicated",
                               fault_rate=0.15, crash_rate=0.1)
    with WorkerPool(2, min_batch=1) as pool:
        result = run_episode(episode, parallel_pool=pool)
    assert result.ok, "; ".join(str(v) for v in result.violations[:5])
    assert result.failovers > 0


def test_pooled_episodes_leave_no_shm():
    """Chaos traffic rides shared-memory segments; after the pool closes
    nothing may remain under /dev/shm (checkpoint/failover churn must
    not strand a segment)."""
    shm_dir = pathlib.Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-POSIX-shm host
        pytest.skip("/dev/shm not available on this platform")
    episode = generate_episode(seed=2, ha_mode="replicated",
                               fault_rate=0.15, crash_rate=0.1)
    with WorkerPool(2, min_batch=1) as pool:
        prefix = pool._segments.prefix
        run_episode(episode, parallel_pool=pool)
        assert list(shm_dir.glob(prefix + "*")), \
            "episode was expected to move chunks through shared memory"
    assert list(shm_dir.glob(prefix + "*")) == []


# ---------------------------------------------------------------------------
# The 50-episode sweep (CI's dedicated chaos step)
# ---------------------------------------------------------------------------
@pytest.mark.chaos
def test_sweep_50_episodes_identical_across_worker_counts():
    episodes = [
        generate_episode(seed=3000 + index,
                         ha_mode="quorum" if index % 3 == 0 else "replicated",
                         **ADVERSE)
        for index in range(50)
    ]
    signatures = _run_with_workers(episodes, worker_counts=(1, 4))
    clean = sum(1 for sig in signatures[1] if not sig["violations"])
    assert clean == len(episodes), \
        f"only {clean}/{len(episodes)} episodes clean inline"
    assert signatures[4] == signatures[1]
    # The sweep is only meaningful if adversity fired while pooled.
    assert sum(sig["failovers"] for sig in signatures[4]) > 0
    assert sum(sum(sig["faults"].values()) for sig in signatures[4]) > 0
