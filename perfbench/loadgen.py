"""The serve workload's server process and its open-loop load generator.

The server is ``python3 -m repro serve`` with default settings, started
in its own process so the generator does not share its interpreter
lock.  The generator is a single asyncio loop that sends each request
at a fixed due time, with at most two connections in flight; a request
that finds both in use waits, and its latency is timed from when it
was due, so a stall is charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmath import CpuTime, Step

HOST = "127.0.0.1"
MAX_IN_FLIGHT = 2
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0


class ServerProcess:
    """One ``repro-mc serve`` process on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path, *, traced_out: Optional[Path] = None) -> None:
        self.root = root
        self.workdir = workdir
        self.traced_out = traced_out
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        self._log = workdir / f"server-{time.monotonic_ns()}.log"

    def start(self) -> int:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        if self.traced_out is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            bootstrap = Path(__file__).resolve().parent / "traced_server.py"
            cmd = [sys.executable, str(bootstrap), str(self.traced_out)]
        cmd += ["serve", "--host", HOST, "--port", "0"]
        with self._log.open("wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=str(self.root), env=env, stdout=log, stderr=subprocess.STDOUT
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {self._log.read_text()[-2000:]}")
            text = self._log.read_text(errors="replace")
            marker = f"listening on http://{HOST}:"
            if marker in text:
                self.port = int(text.split(marker, 1)[1].split(" ", 1)[0])
            else:
                time.sleep(0.01)
        while True:
            try:
                status, _ = self.get("/readyz")
                if status == 200:
                    return self.port
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def get(self, path: str) -> Tuple[int, Dict]:
        return asyncio.run(_get(self.port, path))

    def post_many(self, bodies: Sequence[bytes]) -> List[Tuple[int, bytes]]:
        """Post bodies one after another (closed loop; used for warm-up)."""
        return asyncio.run(_post_sequential(self.port, bodies))

    def signal(self, signum: int) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signum)

    def peak_rss_mb(self) -> float:
        """High-water resident set of the server process (VmHWM)."""
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu(self) -> CpuTime:
        """User and system CPU seconds of the server process so far."""
        assert self.proc is not None
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return CpuTime(int(fields[11]) / ticks, int(fields[12]) / ticks)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        code = self.proc.returncode
        self.proc = None
        return code


def _post_head(port: int, body: bytes) -> bytes:
    return (
        f"POST /analyze HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii") + body


async def _exchange(port: int, raw: bytes) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(raw)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
    head, _, payload = data.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        status = 0
    return status, payload


async def _get(port: int, path: str) -> Tuple[int, Dict]:
    raw = f"GET {path} HTTP/1.1\r\nHost: {HOST}:{port}\r\nConnection: close\r\n\r\n".encode("ascii")
    status, payload = await _exchange(port, raw)
    return status, json.loads(payload) if payload else {}


async def _post_sequential(port: int, bodies: Sequence[bytes]) -> List[Tuple[int, bytes]]:
    return [await _exchange(port, _post_head(port, body)) for body in bodies]


def answered_ok(status: int, payload: bytes) -> bool:
    """A 200 whose job settled with no failure report in its results."""
    return (
        status == 200
        and b'"status": "done"' in payload
        and b'"failure": {' not in payload
    )


@dataclass
class Request:
    body: bytes
    sets: int


@dataclass
class PhaseRun:
    """One phase's outcome plus the sampled exchanges kept for checking."""

    step: Step
    seconds: float  # from the first due time to the last answer
    send_latency_ms: List[float] = field(default_factory=list)  # from the actual send
    failed: int = 0
    kept: List[Tuple[bytes, bytes]] = field(default_factory=list)


async def _phase(port: int, rate: float, requests: Sequence[Request], keep: frozenset) -> PhaseRun:
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(MAX_IN_FLIGHT)
    n = len(requests)
    latencies = [0.0] * n
    lateness = [0.0] * n
    from_send = [0.0] * n
    ok = [False] * n
    kept: List[Tuple[bytes, bytes]] = []

    async def one(i: int, due: float, sent: float) -> None:
        try:
            status, payload = await asyncio.wait_for(
                _exchange(port, _post_head(port, requests[i].body)), REQUEST_TIMEOUT_S
            )
            ok[i] = answered_ok(status, payload)
            if ok[i] and i in keep:
                kept.append((requests[i].body, payload))
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            ok[i] = False
        finally:
            done = loop.time()
            slots.release()
            latencies[i] = (done - due) * 1000.0 if ok[i] else float("inf")
            from_send[i] = (done - sent) * 1000.0
            lateness[i] = (sent - due) * 1000.0

    tasks = []
    start = loop.time() + 0.02
    for i in range(n):
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        tasks.append(loop.create_task(one(i, due, loop.time())))
    await asyncio.gather(*tasks)
    seconds = loop.time() - start
    sets = sum(r.sets for r, good in zip(requests, ok) if good)
    step = Step(rate=rate, latencies_ms=latencies, lateness_ms=lateness, sets=sets)
    return PhaseRun(
        step=step,
        seconds=seconds,
        send_latency_ms=[v for v, good in zip(from_send, ok) if good],
        failed=ok.count(False),
        kept=kept,
    )


def run_phase(port: int, rate: float, requests: Sequence[Request], keep: Sequence[int] = ()) -> PhaseRun:
    """Send ``requests`` at ``rate`` per second on the open loop."""
    return asyncio.run(_phase(port, rate, requests, frozenset(keep)))
