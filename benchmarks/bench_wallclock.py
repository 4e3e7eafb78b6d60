"""Wall-clock fast-path benchmark: batched kernels vs the scalar seed path.

Unlike the figure benchmarks (simulated time), this measures what the
hardware actually does: real rounds/sec and µs/request through the full
proxy, plus per-kernel microbenchmarks (PRF, AEAD, cache).  The scalar baseline is the pre-optimization implementation kept
in :mod:`repro.sim.perf`; both kernel sets are bit-compatible, which the
trace-equivalence section proves on a fixed-seed workload.

Results are published to ``benchmarks/results/wallclock.txt`` and, as
machine-readable JSON, to ``BENCH_wallclock.json`` at the repo root so
successive PRs accumulate a performance trajectory.
"""

from __future__ import annotations

import json
import pathlib

from conftest import emit_result

from repro.sim.perf import run_wallclock_benchmark

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_wallclock.json"


def _render(report: dict) -> str:
    kernels = report["kernels"]
    e2e = report["end_to_end"]
    lines = [
        "Wall-clock fast path — batched kernels vs scalar seed path",
        "",
        f"{'kernel':<8} {'scalar ops/s':>14} {'batched ops/s':>14} {'speedup':>8}",
    ]
    for name, row in kernels.items():
        if name == "aead":
            lines.append(
                f"{'aead-enc':<8} {row['scalar_encrypt_ops_per_sec']:>14.0f} "
                f"{row['batched_encrypt_ops_per_sec']:>14.0f} "
                f"{row['encrypt_speedup']:>7.2f}x")
            lines.append(
                f"{'aead-dec':<8} {row['scalar_decrypt_ops_per_sec']:>14.0f} "
                f"{row['batched_decrypt_ops_per_sec']:>14.0f} "
                f"{row['decrypt_speedup']:>7.2f}x")
        else:
            lines.append(
                f"{name:<8} {row['scalar_ops_per_sec']:>14.0f} "
                f"{row['batched_ops_per_sec']:>14.0f} {row['speedup']:>7.2f}x")
    scalar, batched = e2e["scalar"], e2e["batched"]
    lines += [
        "",
        f"end-to-end (N={scalar['n']}, B={scalar['b']}, R={scalar['r']}, "
        f"value={scalar['value_size']}B, {scalar['rounds']} rounds):",
        f"  scalar : {scalar['rounds_per_sec']:>8.1f} rounds/s  "
        f"{scalar['us_per_request']:>8.1f} us/req",
        f"  batched: {batched['rounds_per_sec']:>8.1f} rounds/s  "
        f"{batched['us_per_request']:>8.1f} us/req",
        f"  speedup: {e2e['rounds_per_sec_speedup']:.2f}x",
        "",
        "batched round breakdown (seconds): " + ", ".join(
            f"{k}={v:.3f}" for k, v in batched["breakdown_seconds"].items()),
        "",
        "trace equivalence (fixed seed, scalar vs batched kernels): "
        + ("IDENTICAL" if report["trace_equivalence"]["identical"] else
           "DIVERGED"),
    ]
    return "\n".join(lines)


def run() -> dict:
    return run_wallclock_benchmark()


def test_wallclock_fastpath(benchmark):
    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_result("wallclock", _render(report), data=report)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    # The optimization contract: identical adversary-visible behaviour...
    assert report["trace_equivalence"]["identical"]
    # ...and the wall-clock targets of the batching work.
    kernels = report["kernels"]
    assert kernels["aead"]["encrypt_speedup"] >= 3.0
    assert kernels["aead"]["decrypt_speedup"] >= 3.0
    assert kernels["prf"]["speedup"] > 1.0
    assert report["end_to_end"]["rounds_per_sec_speedup"] >= 1.5
