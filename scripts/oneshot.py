#!/usr/bin/env python3
"""Run the CLI one process at a time and report what each run cost.

Each run starts one ``python -m hyperforman.cli`` child, under an
address-space limit (``RLIMIT_AS``) and a wall timeout set on that child
alone, with the checkout's ``src`` first on its ``PYTHONPATH``. Its
stdout is read as it comes and hashed, not kept, so an output of
gigabytes costs this process nothing. For each run it prints one line:

    exit=0 seconds=0.83 peak_rss_mb=30.1 stdout_bytes=183000000 sha256=... traceback=no

The peak RSS is the child's own, from the resource usage ``wait4``
returns for it: what ``getrusage(RUSAGE_CHILDREN)`` reports in a parent
that has waited for that one child. ``exit`` is ``timeout`` when the
wall timeout killed the child.

    python scripts/oneshot.py [--as-mb 2048] [--timeout 600] [--runs 2] \\
        -- curvature tower.hnet --skeleton 2

Importable: :func:`run_once` returns the same figures as a
:class:`Run`, so a scale audit can drive the same runner.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import selectors
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
READ_SIZE = 1 << 20


@dataclass(frozen=True)
class Run:
    exit: int | str  # the exit code, or "timeout"
    seconds: float
    peak_rss_mb: float
    stdout_bytes: int
    sha256: str
    traceback: bool  # whether stderr holds a Python traceback
    stderr: str

    def line(self) -> str:
        return (
            f"exit={self.exit} seconds={self.seconds:.2f} "
            f"peak_rss_mb={self.peak_rss_mb:.1f} stdout_bytes={self.stdout_bytes} "
            f"sha256={self.sha256} traceback={'yes' if self.traceback else 'no'}"
        )


def run_once(argv: list[str], as_mb: int = 2048, timeout: float = 600.0) -> Run:
    """One ``python -m hyperforman.cli *argv`` child under an address
    space of ``as_mb`` MB and a wall timeout of ``timeout`` seconds."""
    limit = as_mb << 20

    def limit_child() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    digest, size, timed_out = hashlib.sha256(), 0, False
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyperforman.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            preexec_fn=limit_child,
        )
        deadline = start + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not sel.select(left):
                    proc.kill()
                    timed_out = True
                    break
                chunk = os.read(proc.stdout.fileno(), READ_SIZE)
                if not chunk:
                    break
                digest.update(chunk)
                size += len(chunk)
        proc.stdout.close()
        # reap the child here, for its own resource usage
        while not timed_out:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                timed_out = True
            time.sleep(0.01)
        if timed_out:
            _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Run(
        exit="timeout" if timed_out else proc.returncode,
        seconds=seconds,
        peak_rss_mb=usage.ru_maxrss / 1024,  # kilobytes on Linux
        stdout_bytes=size,
        sha256=digest.hexdigest(),
        traceback="Traceback (most recent call last)" in stderr,
        stderr=stderr,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--as-mb", type=int, default=2048, help="child's RLIMIT_AS in MB")
    ap.add_argument("--timeout", type=float, default=600.0, help="wall seconds per run")
    ap.add_argument("--runs", type=int, default=1, help="runs, one after another")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv:
        ap.error("give the CLI arguments after --")
    for _ in range(args.runs):
        run = run_once(argv, args.as_mb, args.timeout)
        print(run.line(), flush=True)
        if run.exit != 0:
            print(run.stderr.rstrip()[-400:], file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
