"""Storage server process for the ``serve-tcp-1k`` workload.

Runs ``StorageServer(RedisSim(write_once=True))`` on loopback in its own
process, so its threads never take the interpreter lock from the proxy.
Prints ``PORT <n>`` once listening, then serves until its standard input
closes (the parent exits or closes the pipe), and stops.

With ``--trace 1`` the backend times every command it executes and
answers the extra command ``BENCHSTATS`` with ``[busy_ns, commands]``,
the server-side half of the ``net.*`` per-layer metrics.

Usage: ``python3 perfbench/storage_server.py --trace 0 [--cpu N]``
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.net.server import StorageServer  # noqa: E402
from repro.storage.redis_sim import RedisSim  # noqa: E402


class TimedRedisSim(RedisSim):
    """A write-once ``RedisSim`` that accumulates its own busy time."""

    __slots__ = ("busy_ns", "commands")

    def __init__(self) -> None:
        super().__init__(write_once=True)
        self.busy_ns = 0
        self.commands = 0

    def execute(self, command: tuple):
        if command and command[0] == "BENCHSTATS":
            return [self.busy_ns, self.commands]
        start = time.perf_counter_ns()
        try:
            return super().execute(command)
        finally:
            self.busy_ns += time.perf_counter_ns() - start
            self.commands += 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    backend = TimedRedisSim() if args.trace else RedisSim(write_once=True)
    with StorageServer(backend) as server:
        print(f"PORT {server.address[1]}", flush=True)
        sys.stdin.read()  # returns at EOF: the parent is done with us
    return 0


if __name__ == "__main__":
    sys.exit(main())
