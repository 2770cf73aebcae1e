"""Child processes under test: ``repro fit`` and ``repro serve``.

Each child runs from the checkout's ``src`` with a scrubbed environment (no
inherited ``REPRO_*`` settings, so caches and tracing are only what the
benchmark asks for).  Its stdout is read line by line on a thread, each line
stamped with ``time.perf_counter()`` when it arrived, so start-up and
completion times are taken from the lines the program prints.  Peak memory
is ``ru_maxrss`` from ``os.wait4`` when the child is reaped.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")
_FIT_SCORES = re.compile(r"test accuracy = ([0-9.]+)\s+test F1 = ([0-9.]+)")


class ChildError(RuntimeError):
    """A child process failed, timed out, or printed something unexpected."""


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One ``python -m repro ...`` process with timestamped stdout lines."""

    def __init__(self, root: Path, args: List[str]) -> None:
        self.args = args
        self.lines: "queue.Queue[Tuple[float, Optional[str]]]" = queue.Queue()
        self.log: List[str] = []
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *args],
            cwd=str(root),
            env=child_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.max_rss_mb: Optional[float] = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def wait_for(self, pattern: re.Pattern, timeout: float) -> Tuple[float, re.Match]:
        """Seconds from spawn until a line matches ``pattern``, and the match."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"repro {self.args[0]}: no {pattern.pattern!r} "
                                 f"within {timeout:.0f}s; output: {self.tail()}")
            try:
                stamp, line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise ChildError(f"repro {self.args[0]} exited before {pattern.pattern!r}; "
                                 f"output: {self.tail()}")
            self.log.append(line)
            match = pattern.search(line)
            if match:
                return stamp - self.started, match

    def tail(self, lines: int = 8) -> str:
        return " | ".join(self.log[-lines:])

    def reap(self, timeout: float) -> int:
        """Wait for exit (SIGKILL after ``timeout``); records peak RSS."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()
        while True:  # keep the lines printed after the last wait_for
            try:
                _, line = self.lines.get_nowait()
            except queue.Empty:
                break
            if line is not None:
                self.log.append(line)
        return self.proc.returncode

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT (the server's clean shutdown), then reap."""
        if self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
            return self.reap(timeout)
        return self.proc.returncode


class Fit:
    """Result of one ``repro fit --dataset`` run."""

    def __init__(self, child: Child, fit_s: float, accuracy: float, f1: float) -> None:
        self.fit_s = fit_s
        self.accuracy = accuracy
        self.f1 = f1
        self.rss_mb = child.max_rss_mb
        self.log = child.log


def run_fit(root: Path, spec: Path, output: Path, seed: int, overrides: dict,
            trace_file: Optional[Path] = None, timeout: float = 150.0) -> Fit:
    """``fit_s`` is spawn until the 'artifact saved' line."""
    args = ["fit", "--dataset", str(spec), "--output", str(output), "--seed", str(seed)]
    for key, value in overrides.items():
        args += ["--override", f"{key}={value}"]
    if trace_file is not None:
        args += ["--trace", str(trace_file)]
    child = Child(root, args)
    try:
        _, scores = child.wait_for(_FIT_SCORES, timeout)
        fit_s, _ = child.wait_for(re.compile(r"^artifact saved to "), timeout)
        code = child.reap(timeout)
    finally:
        if child.proc.returncode is None:
            child.proc.kill()
            child.reap(10.0)
    if code != 0:
        raise ChildError(f"repro fit exited {code}: {child.tail()}")
    return Fit(child, fit_s, float(scores.group(1)), float(scores.group(2)))


class Server:
    """A running ``repro serve``; ``setup_s`` is spawn until 'listening on'."""

    def __init__(self, root: Path, artifact: Path, num_shards: int, traced: bool,
                 timeout: float = 120.0) -> None:
        args = ["serve", str(artifact), "--port", "0", "--num-shards", str(num_shards)]
        if traced:
            args += ["--trace-sample", "1.0", "--trace-buffer", "100000"]
        self.child = Child(root, args)
        try:
            self.setup_s, match = self.child.wait_for(_LISTENING, timeout)
        except BaseException:
            self.child.proc.kill()
            self.child.reap(10.0)
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> float:
        """Shut down cleanly; returns peak RSS in MiB."""
        code = self.child.stop()
        if code != 0:
            raise ChildError(f"repro serve exited {code}: {self.child.tail()}")
        return self.child.max_rss_mb

    def kill(self) -> None:
        if self.child.proc.returncode is None:
            self.child.proc.kill()
            self.child.reap(10.0)
