"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-tcp-1k --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same phases with timed wrappers around each layer
and prints the per-layer metrics.  The second-to-last line of output,
``info {...}``, carries the machine fingerprint, the adversary-trace and
response digests, the per-phase round and epoch-reset counts, the p95
and p99 of round times and latencies, and the host speed: the median
time of the reference unit of :mod:`perfbench.speed` and the end-to-end
metrics before scaling by it.  The last line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (each
``{"value", "unit"}``).  The run also writes that
detail, and for traced runs every span, under ``.perfbench/``.

Exit status: 0 when every response and round check passed, 1 when any
failed, 2 when the program's sources are not found next to this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"


def declared_units(trace: bool) -> dict[str, str]:
    """``{metric: unit}`` that ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads(SPEC.read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def with_units(values: dict[str, float], trace: bool) -> dict[str, dict]:
    units = declared_units(trace)
    if set(values) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: undeclared "
            f"{sorted(set(values) - set(units))}, missing "
            f"{sorted(set(units) - set(values))}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def write_detail(res, info: dict, result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{res.workload.name}-seed{res.seed}-trace{int(res.traced)}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"info": info, "result": result}, indent=1, default=str))
    if res.tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as out:
            for span_id, name, start, end, parent, attrs in res.tracer.spans:
                out.write(json.dumps({"id": span_id, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent, **attrs}) + "\n")


def pin_cpus() -> int | None:
    """Pin this process to its first CPU; return the CPU for storage.

    The proxy's event-loop and round threads share one interpreter lock.
    Unpinned, the scheduler spreads them over CPUs and every hand-over
    crosses cores: on a 2-core box, 5 alternating pairs of ycsb-c-64k runs
    gave a p95 latency at 600 req/s of 23-27 ms pinned against 31-50 ms
    unpinned, and a quartile spread of 0.15 against 0.38.  The storage
    process of a TCP workload gets the last CPU, as if on its own machine.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.phases import WORKLOADS, run_workload
    from perfbench.metrics import end_to_end, per_layer, tails
    from perfbench.speed import REF_UNIT_S

    parser = argparse.ArgumentParser(description="Waffle proxy benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), storage_cpu=pin_cpus())
    values = per_layer(res) if args.trace else end_to_end(res)
    info = {
        "fingerprint": res.fingerprint,
        "trace_digest": res.trace_digest,
        "response_digest": res.response_digest,
        "setup_s": [seconds for _, seconds in res.setup_s],
        "speed": {"unit_ms": res.speed.unit_s * 1e3,
                  "ref_unit_ms": REF_UNIT_S * 1e3,
                  "units": len(res.speed.samples)},
        "unscaled": end_to_end(res, scaled=False),
        "epoch_rounds": res.epoch,
        "phases": {name: log.summary() for name, log in res.phases.items()},
        "tails": tails(res),
        "failures": res.failures[:20],
    }
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": with_units(values, bool(args.trace)),
    }
    write_detail(res, info, result)
    print("info " + json.dumps(info, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
