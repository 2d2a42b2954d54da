"""Load-generate the analysis service and commit p50/p99 + throughput.

Starts the real :class:`repro.service.AnalysisService` (stdlib asyncio
HTTP, in-process on an ephemeral port) over a ``jobs=1`` work-queue
core, then fires ``--requests`` fully concurrent seeded ``/analyze``
requests (``"wait": true``) from an asyncio client: every socket is
open at once, which is exactly the many-small-requests workload the
service front-end exists for.

Only ``--unique`` of the requests carry distinct task sets; the rest
are byte-identical duplicates, so the run also *proves* the dedup
contract: duplicates must coalesce onto the in-flight or completed job
(``jobs_coalesced``), the core must compute each unique job exactly
once (zero recompute), and the exactly-once accounting invariant must
reconcile globally.  The run ends with a graceful drain and asserts a
clean exit.

Results land in ``BENCH_service.json`` (see ``--out``); CI runs the
``--quick`` shape as the ``service-smoke`` job.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # paper scale
    PYTHONPATH=src python benchmarks/bench_service.py --quick --requests 50
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.generator.taskgen import GeneratorConfig, generate_taskset  # noqa: E402
from repro.io import taskset_to_json  # noqa: E402
from repro.pipeline.core import WorkQueueCore  # noqa: E402
from repro.service.schema import WIRE_VERSION  # noqa: E402
from repro.service.server import AnalysisService  # noqa: E402

SCHEMA_VERSION = 1


class ServiceUnderTest:
    """The service on its own event loop in a background thread."""

    def __init__(self, core: WorkQueueCore) -> None:
        self.core = core
        self.service = AnalysisService(core, port=0)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        await self.service.start()
        self.loop = asyncio.get_running_loop()
        self._started.set()
        await self.service.serve_forever(install_signal_handlers=False)

    def start(self) -> None:
        self.thread.start()
        if not self._started.wait(30):
            raise RuntimeError("service failed to start")

    def shutdown(self) -> None:
        assert self.loop is not None
        self.loop.call_soon_threadsafe(self.service.request_shutdown)
        self.thread.join(120)
        if self.thread.is_alive():
            raise RuntimeError("service failed to drain within 120 s")


def build_request_bodies(unique: int, total: int) -> List[bytes]:
    """``total`` POST bodies over ``unique`` distinct seeded task sets.

    Bodies cycle through the unique task sets, so request ``i`` and
    request ``i + unique`` are byte-identical duplicates — the dedup
    fodder.  Every request waits for its result server-side.
    """
    rng = np.random.default_rng(2015)
    documents = []
    for i in range(unique):
        ts = generate_taskset(0.6, rng, GeneratorConfig(), name=f"load{i}")
        documents.append(json.loads(taskset_to_json(ts)))
    bodies = []
    for i in range(total):
        payload = {
            "wire_version": WIRE_VERSION,
            "taskset": documents[i % unique],
            "options": {"speedup": 2.0},
            "wait": True,
        }
        bodies.append(json.dumps(payload).encode("utf-8"))
    return bodies


async def _post_analyze(
    host: str, port: int, body: bytes
) -> Tuple[int, Dict[str, Any], float]:
    """One raw concurrent POST /analyze; returns (status, payload, secs)."""
    start = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"POST /analyze HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    elapsed = time.perf_counter() - start
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ", 2)[1])
    return status, json.loads(body_blob), elapsed


async def fire_load(
    host: str, port: int, bodies: Sequence[bytes]
) -> Tuple[List[Tuple[int, Dict[str, Any], float]], float]:
    """All requests at once: every socket concurrently open."""
    start = time.perf_counter()
    results = await asyncio.gather(
        *(_post_analyze(host, port, body) for body in bodies)
    )
    return list(results), time.perf_counter() - start


def run_bench(unique: int, total: int, quick: bool) -> Dict[str, Any]:
    core = WorkQueueCore(jobs=1)
    under_test = ServiceUnderTest(core)
    under_test.start()
    port = under_test.service.port
    bodies = build_request_bodies(unique, total)

    results, wall_s = asyncio.run(fire_load("127.0.0.1", port, bodies))

    # Every request must have succeeded with its results inline.
    statuses = [status for status, _, _ in results]
    assert statuses == [200] * total, (
        f"non-200 responses: {sorted(set(statuses))}"
    )
    job_ids = set()
    for _, payload, _ in results:
        assert payload["status"] == "done", payload
        assert payload["results"] and len(payload["results"]) == 1
        job_ids.add(payload["job_id"])
    assert len(job_ids) == unique, (
        f"expected {unique} distinct jobs, saw {len(job_ids)}"
    )

    # Dedup contract: each unique job computed exactly once, duplicates
    # coalesced with zero recompute, global accounting exactly-once.
    stats = core.stats
    assert stats.reconciles(), stats.to_dict()
    assert core.jobs_executed == unique, (
        f"{core.jobs_executed} jobs executed for {unique} unique"
    )
    assert stats.computed == unique, stats.to_dict()
    assert core.jobs_coalesced == total - unique, (
        f"{core.jobs_coalesced} coalesced, expected {total - unique}"
    )

    # Clean shutdown: graceful drain, dispatcher joined, pool closed.
    under_test.shutdown()
    assert not core.alive()

    latencies_ms = sorted(elapsed * 1e3 for _, _, elapsed in results)

    def percentile(p: float) -> float:
        index = min(len(latencies_ms) - 1, round(p * (len(latencies_ms) - 1)))
        return latencies_ms[int(index)]

    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jobs": core.runner.jobs,
        "requests": total,
        "unique_jobs": unique,
        "concurrency": total,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(total / wall_s, 1),
        "latency_ms": {
            "p50": round(percentile(0.50), 2),
            "p90": round(percentile(0.90), 2),
            "p99": round(percentile(0.99), 2),
            "max": round(latencies_ms[-1], 2),
            "mean": round(statistics.fmean(latencies_ms), 2),
        },
        "stats": stats.to_dict(),
        "jobs_executed": core.jobs_executed,
        "jobs_coalesced": core.jobs_coalesced,
        "duplicates_recomputed": stats.computed - unique,
        "invariant_ok": stats.reconciles(),
        "clean_shutdown": True,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small load for CI smoke (does not overwrite the committed "
        "paper-scale numbers unless --out says so)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="total concurrent requests (default: 1000, or 50 with --quick)",
    )
    parser.add_argument(
        "--unique", type=int, default=None,
        help="distinct task sets among the requests (default: requests/4)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_service.json",
        help="result JSON path (default: committed BENCH_service.json)",
    )
    args = parser.parse_args(argv)

    total = args.requests or (50 if args.quick else 1000)
    unique = args.unique or max(1, total // 4)
    if unique > total:
        parser.error("--unique cannot exceed --requests")

    document = run_bench(unique, total, args.quick)
    args.out.write_text(json.dumps(document, indent=2) + "\n")

    latency = document["latency_ms"]
    print(
        f"service load: {total} concurrent requests ({unique} unique jobs) "
        f"in {document['wall_s']} s -> {document['throughput_rps']} req/s"
    )
    print(
        f"  latency p50={latency['p50']} ms  p90={latency['p90']} ms  "
        f"p99={latency['p99']} ms  max={latency['max']} ms"
    )
    print(
        f"  computed={document['stats']['computed']} "
        f"coalesced={document['jobs_coalesced']} "
        f"(zero recompute: {document['duplicates_recomputed'] == 0}) "
        f"invariant_ok={document['invariant_ok']} "
        f"clean_shutdown={document['clean_shutdown']}"
    )
    print(f"  written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
