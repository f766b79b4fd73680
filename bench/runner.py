"""The two front ends, as a client sees them: one ``python -m repro.cm``
process per build, and the ``--serve`` stdio daemon.

Every child runs from the checkout root with ``src/`` on its path, in a
session of its own so a timeout can kill it together with any pool
workers it started.  Given a ``spans_path``, the same argv runs under
``python -m bench.shim`` instead, which writes its spans there.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from bench import ROOT, SRC

#: One unit outcome line of the CLI: ``  [  loaded] u001  (reason)``.
_OUTCOME = re.compile(r"^\s*\[\s*(\w+)\]\s+(\S+)", re.MULTILINE)
_POOL = re.compile(r"^parallel build: \d+ jobs \((\w+) pool\)", re.MULTILINE)
_PRINTED = re.compile(r"^(\S+) = (.*)$", re.MULTILINE)


def _spawn(argv: list[str], spans_path: str | None, **streams):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("BENCH_SHIM_OUT", None)
    module = "repro.cm"
    if spans_path is not None:
        env["BENCH_SHIM_OUT"] = spans_path
        module = "bench.shim"
    return subprocess.Popen([sys.executable, "-m", module, *argv], cwd=ROOT,
                            env=env, start_new_session=True, **streams)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class CliRun:
    """One finished CLI process."""

    returncode: int
    output: str
    #: Seconds from just before spawn until the process was reaped.
    wall: float
    #: ``perf_counter`` just before spawn (the shim's clock domain).
    spawned: float
    #: Peak resident set of the process (``os.wait4`` ``ru_maxrss``).
    rss_mb: float
    timed_out: bool = False

    @property
    def outcomes(self) -> dict[str, str]:
        """unit -> action, from the per-unit lines the CLI prints."""
        return {name: action
                for action, name in _OUTCOME.findall(self.output)}

    @property
    def pool(self) -> str:
        found = _POOL.search(self.output)
        return found.group(1) if found else "serial"

    def printed(self, path: str) -> str | None:
        for name, value in _PRINTED.findall(self.output):
            if name == path:
                return value.strip()
        return None


def run_cli(argv: list[str], log_path: str, timeout: float,
            spans_path: str | None = None) -> CliRun:
    """Run ``python -m repro.cm argv`` to completion (or kill it after
    ``timeout`` seconds)."""
    with open(log_path, "w+b") as log:
        spawned = time.perf_counter()
        proc = _spawn(argv, spans_path, stdin=subprocess.DEVNULL,
                      stdout=log, stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                _kill_group(proc)
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        output = log.read().decode("utf-8", "replace")
    return CliRun(proc.returncode, output, wall, spawned,
                  usage.ru_maxrss / 1024.0, timed_out=not ready)


class DaemonError(Exception):
    """The daemon timed out, died, or sent something unreadable."""


@dataclass
class Daemon:
    """A ``python -m repro.cm DIR --serve`` process and its client end."""

    srcdir: str
    log_path: str
    spans_path: str | None = None
    proc: subprocess.Popen | None = None
    _buffer: bytes = field(default=b"", repr=False)
    _log: object = field(default=None, repr=False)

    def start(self) -> None:
        self._log = open(self.log_path, "wb")
        self.proc = _spawn([self.srcdir, "--serve", "--jobs", "1"],
                           self.spans_path, stdin=subprocess.PIPE,
                           stdout=subprocess.PIPE, stderr=self._log)

    def call(self, request: dict, timeout: float) -> tuple[dict, float]:
        """Send one request line; returns (response, round-trip
        seconds)."""
        line = (json.dumps(request) + "\n").encode("utf-8")
        sent = time.perf_counter()
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
        except OSError as err:
            raise DaemonError(f"cannot send to daemon: {err}") from err
        response = self._readline(sent + timeout)
        return response, time.perf_counter() - sent

    def _readline(self, deadline: float) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            ready = select.select([fd], [], [], max(0.0, remaining))[0]
            if not ready:
                raise DaemonError("daemon request timed out")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise DaemonError("daemon closed its output")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        try:
            return json.loads(line)
        except ValueError as err:
            raise DaemonError(f"unreadable daemon reply: {err}") from err

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) so far."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")

    def close(self, timeout: float) -> int | None:
        """Ask the daemon to shut down and reap it, killing it if it does
        not exit in time.  Returns its exit code (None if killed)."""
        if self.proc is None:
            return None
        try:
            if self.proc.poll() is None:
                try:
                    self.call({"op": "shutdown"}, timeout)
                except DaemonError:
                    pass
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            _kill_group(self.proc)
            self.proc.wait()
            return None
        finally:
            for stream in (self.proc.stdin, self.proc.stdout, self._log):
                try:
                    stream.close()
                except OSError:
                    pass
