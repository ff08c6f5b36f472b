"""Child processes the benchmark starts, and the HTTP client it drives them with.

Every child runs ``python -m repro`` from the checkout's ``src/`` with
unbuffered output redirected to a file (a pipe nobody drains can block
the child).  :class:`Server` owns one ``repro serve`` process: it waits
for the announce line and ``/readyz``, and :meth:`Server.stop` sends
SIGTERM (drain), then SIGKILL, and always reaps.  Use it as a context
manager so a failed check never leaves a server running.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def repro_cmd(*args: str) -> list[str]:
    return [sys.executable, "-u", "-m", "repro", *args]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int, marker: str) -> list[int]:
    """Direct children of ``pid`` whose command line contains ``marker``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            # the ppid is the 2nd field after the parenthesised comm
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid != pid:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, IndexError, ValueError):
            continue
        if marker in cmdline:
            out.append(int(entry))
    return out


def run_job(args: list[str], log_path: Path, timeout_s: float = 150.0) -> tuple[float, float]:
    """Run a ``repro`` command to completion: (wall seconds, peak RSS MB).

    Reaps with ``wait4`` to read the child's own peak RSS.  A non-zero
    exit raises with the tail of the child's output.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            repro_cmd(*args), stdout=log, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
        try:
            deadline = t0 + timeout_s
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"{args[0]} exceeded {timeout_s}s")
                time.sleep(0.002)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        tail = Path(log_path).read_text(errors="replace")[-2000:]
        raise RuntimeError(f"repro {args[0]} exited {proc.returncode}:\n{tail}")
    return wall, usage.ru_maxrss / 1024


_ANNOUNCE = re.compile(r"on http://([0-9.]+):(\d+)")


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, args: list[str], log_path: Path, ready_timeout_s: float = 90.0):
        self.log_path = Path(log_path)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            repro_cmd("serve", "--port", "0", "--drain-timeout", "5", *args),
            stdout=self._log, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
        self.host = "127.0.0.1"
        self.port = None
        try:
            self._wait_ready(ready_timeout_s)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.proc.returncode}:\n"
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            if self.port is None:
                m = _ANNOUNCE.search(self.log_path.read_text(errors="replace"))
                if m:
                    self.host, self.port = m.group(1), int(m.group(2))
            if self.port is not None:
                try:
                    status, _ = request(self.host, self.port, "GET", "/readyz")
                    if status == 200:
                        return
                except OSError:
                    pass
            time.sleep(0.02)
        raise RuntimeError(f"repro serve not ready within {timeout_s}s")

    def connect(self) -> "Client":
        return Client(self.host, self.port)

    def peak_rss_mb(self, worker_marker: str | None = None) -> float:
        """VmHWM of the front process, plus its workers when named."""
        total = vm_hwm_mb(self.proc.pid)
        if worker_marker:
            total += sum(vm_hwm_mb(p) for p in child_pids(self.proc.pid, worker_marker))
        return total

    def stop(self) -> None:
        """SIGTERM (drain), then SIGKILL after a grace period; always reap."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=10)
        finally:
            self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def request(host: str, port: int, method: str, path: str, body=None):
    """One request on a fresh connection: (status, decoded body)."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
        ctype = resp.getheader("Content-Type", "")
        return resp.status, json.loads(raw) if "json" in ctype else raw.decode()
    finally:
        conn.close()


class Client:
    """A keep-alive connection sending JSON ``POST /score`` requests."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def score(self, body: bytes) -> tuple[int, dict, float]:
        """Send one pre-encoded body: (status, reply, seconds)."""
        t0 = time.perf_counter()
        self.conn.request("POST", "/score", body=body,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        raw = resp.read()
        seconds = time.perf_counter() - t0
        return resp.status, json.loads(raw), seconds

    def close(self) -> None:
        self.conn.close()
