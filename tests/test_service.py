"""Analysis-as-a-service: wire schema, HTTP endpoints, dedup, drain.

End-to-end coverage runs the real :class:`AnalysisService` (asyncio,
stdlib HTTP) on an ephemeral port in a background thread and talks to
it through :class:`AnalysisClient` / raw ``http.client`` sockets:

* a single request returns the same report as the local facade;
* duplicate submissions return the same job id with zero recompute,
  both for completed jobs (registry) and queued/running jobs
  (in-flight coalescing);
* graceful drain answers 503 on ``/readyz`` while in-flight work
  settles, then exits cleanly;
* protocol violations (malformed JSON, unknown wire version, unknown
  job, wrong method) come back as structured 4xx payloads, never
  tracebacks.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import threading
import time

import numpy as np
import pytest

from repro.api import analyze
from repro.generator.taskgen import GeneratorConfig, generate_taskset
from repro.pipeline.core import WorkQueueCore, job_fingerprint
from repro.pipeline.request import AnalysisRequest
from repro.service import (
    AnalysisClient,
    AnalysisService,
    ServiceError,
    WIRE_VERSION,
    WireError,
    parse_analyze_payload,
)
from repro.service.schema import job_payload


@pytest.fixture(scope="module")
def tasksets():
    """Small seeded population (kept tiny: every test pays per analysis)."""
    rng = np.random.default_rng(1234)
    return [
        generate_taskset(0.6, rng, GeneratorConfig(), name=f"svc{i}")
        for i in range(6)
    ]


class ServiceThread:
    """Run an :class:`AnalysisService` on its own loop in a thread."""

    def __init__(self, core: WorkQueueCore) -> None:
        self.core = core
        self.service = AnalysisService(core, port=0)
        self.loop = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        await self.service.start()
        self.loop = asyncio.get_running_loop()
        self._started.set()
        await self.service.serve_forever(install_signal_handlers=False)

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        assert self._started.wait(10), "service failed to start"
        return self

    def __exit__(self, *exc) -> None:
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.service.request_shutdown)
            self._thread.join(30)
        assert not self._thread.is_alive(), "service thread failed to drain"

    @property
    def port(self) -> int:
        return self.service.port

    def client(self, timeout: float = 30.0) -> AnalysisClient:
        return AnalysisClient(port=self.port, timeout=timeout)

    def raw(
        self, method: str, path: str, body: bytes = b"", headers=None
    ):
        """One raw HTTP round trip; returns (status, parsed JSON body)."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            raw = response.read()
            return response.status, (json.loads(raw) if raw else {})
        finally:
            connection.close()


# ---------------------------------------------------------------------------
# Wire schema (no sockets)
# ---------------------------------------------------------------------------


class TestSchema:
    def test_round_trip_single(self, tasksets):
        from repro.io import taskset_to_json

        body = json.dumps({
            "wire_version": WIRE_VERSION,
            "taskset": json.loads(taskset_to_json(tasksets[0])),
            "options": {"speedup": 2.0},
            "wait": True,
        }).encode()
        requests, wait = parse_analyze_payload(body)
        assert wait is True
        assert len(requests) == 1
        assert requests[0].speedup == 2.0
        assert requests[0].taskset.name == tasksets[0].name

    def test_malformed_json_rejected(self):
        with pytest.raises(WireError):
            parse_analyze_payload(b"{not json")

    def test_missing_wire_version_rejected(self):
        with pytest.raises(WireError, match="missing wire_version"):
            parse_analyze_payload(json.dumps({"tasksets": []}).encode())

    def test_unknown_wire_version_rejected(self):
        with pytest.raises(WireError, match="unsupported wire_version 99"):
            parse_analyze_payload(
                json.dumps({"wire_version": 99, "tasksets": []}).encode()
            )

    def test_unknown_option_rejected(self, tasksets):
        from repro.io import taskset_to_json

        body = json.dumps({
            "wire_version": WIRE_VERSION,
            "taskset": json.loads(taskset_to_json(tasksets[0])),
            "options": {"warp_factor": 9},
        }).encode()
        with pytest.raises(WireError, match="unknown option.*warp_factor"):
            parse_analyze_payload(body)

    def test_invalid_option_value_rejected(self, tasksets):
        from repro.io import taskset_to_json

        body = json.dumps({
            "wire_version": WIRE_VERSION,
            "taskset": json.loads(taskset_to_json(tasksets[0])),
            "options": {"speedup": -1.0},
        }).encode()
        with pytest.raises(WireError, match="rejected"):
            parse_analyze_payload(body)

    def test_bad_taskset_document_rejected(self):
        body = json.dumps({
            "wire_version": WIRE_VERSION,
            "taskset": {"format": "something-else"},
        }).encode()
        with pytest.raises(WireError, match="task set #0 invalid"):
            parse_analyze_payload(body)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.update(format="something-else"),
            lambda doc: doc.update(schema_version=99),
            lambda doc: doc["tasks"][0].pop("c_hi"),
            lambda doc: doc["tasks"][0].update(criticality="MEDIUM"),
            lambda doc: doc["tasks"][0].update(c_lo=-1.0),
            lambda doc: doc["tasks"][0].update(c_lo=True),
            lambda doc: doc["tasks"][0].update(t_lo="10"),
            lambda doc: doc["tasks"][0].update(c_hi=None),
            lambda doc: doc["tasks"][0].update(name=7),
        ],
        ids=[
            "format", "version", "missing_field", "criticality", "negative_c_lo",
            "bool_c_lo", "string_t_lo", "null_c_hi", "int_name",
        ],
    )
    def test_invalid_taskset_message_matches_the_document_parser(
        self, tasksets, mutate
    ):
        """A posted document is parsed without a JSON round trip, and
        fails with the message the task-set file parser gives."""
        from repro.io import taskset_from_json, taskset_to_json

        doc = json.loads(taskset_to_json(tasksets[0]))
        mutate(doc)
        with pytest.raises((ValueError, TypeError, KeyError)) as parsed:
            taskset_from_json(json.dumps(doc))
        body = json.dumps({"wire_version": WIRE_VERSION, "taskset": doc}).encode()
        with pytest.raises(WireError) as wire:
            parse_analyze_payload(body)
        assert str(wire.value) == f"task set #0 invalid: {parsed.value}"

    def test_empty_submission_rejected(self):
        body = json.dumps({"wire_version": WIRE_VERSION, "tasksets": []}).encode()
        with pytest.raises(WireError, match="empty submission"):
            parse_analyze_payload(body)

    def test_job_payload_shape(self, tasksets):
        core = WorkQueueCore(jobs=1)
        try:
            request = AnalysisRequest(taskset=tasksets[0], speedup=2.0)
            handle, coalesced = core.submit([request])
            assert coalesced is False
            assert handle.wait(60)
            payload = job_payload(handle)
            assert payload["wire_version"] == WIRE_VERSION
            assert payload["job_id"] == job_fingerprint([request])
            assert payload["status"] == "done"
            assert payload["total"] == 1 and payload["done"] == 1
            assert payload["stats"]["total"] == 1
            assert len(payload["results"]) == 1
            assert payload["error"] is None
        finally:
            core.close()


# ---------------------------------------------------------------------------
# End-to-end HTTP
# ---------------------------------------------------------------------------


class TestServiceEndToEnd:
    def test_single_request_matches_local_analysis(self, tasksets):
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            remote = svc.client().analyze(tasksets[0], speedup=2.0)
            local = analyze(tasksets[0], speedup=2.0)
            assert remote.to_dict() == local.to_dict()

    def test_probes_and_metrics(self, tasksets):
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            client = svc.client()
            assert client.healthy()
            assert client.ready()
            client.analyze_many(tasksets[:2], speedup=2.0)
            metrics = client.metrics()
            service = metrics["service"]
            assert service["jobs_executed"] == 1
            assert service["stats"]["total"] == 2
            stats = service["stats"]
            assert (
                stats["computed"] + stats["cache_hits"] + stats["resumed"]
                + stats["deduplicated"] + stats["quarantined"]
            ) == stats["total"]

    def test_duplicate_submission_same_job_id_zero_recompute(self, tasksets):
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            client = svc.client()
            first = client.submit(tasksets[:3], speedup=2.0)
            reports = client.result(first)
            assert len(reports) == 3
            executed = svc.core.jobs_executed
            total = svc.core.stats.total
            second = client.submit(tasksets[:3], speedup=2.0)
            assert second == first
            assert svc.core.jobs_executed == executed  # nothing re-ran
            assert svc.core.stats.total == total  # nothing re-counted
            assert svc.core.jobs_coalesced == 1
            assert client.poll(first)["coalesced"] == 1

    def test_in_flight_coalescing(self, tasksets):
        """A duplicate of a queued job coalesces before it ever runs."""
        core = WorkQueueCore(jobs=1)
        with ServiceThread(core) as svc:
            client = svc.client()
            gate = threading.Event()
            release = threading.Event()

            def blocking_progress(done: int, total: int) -> None:
                gate.set()
                assert release.wait(30)

            # Job A occupies the dispatcher thread mid-run...
            blocker = [
                AnalysisRequest(taskset=ts, speedup=3.0) for ts in tasksets[3:5]
            ]
            handle_a, _ = core.submit(blocker, progress=blocking_progress)
            assert gate.wait(30)
            # ...so job B sits queued; its duplicate must coalesce.
            first = client.submit(tasksets[:3], speedup=2.0)
            second = client.submit(tasksets[:3], speedup=2.0)
            assert second == first
            assert client.poll(first)["status"] == "queued"
            assert core.jobs_coalesced == 1
            release.set()
            assert handle_a.wait(60)
            reports = client.result(first)
            assert len(reports) == 3

    def test_wait_submission_returns_results_inline(self, tasksets):
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            from repro.io import taskset_to_json

            body = json.dumps({
                "wire_version": WIRE_VERSION,
                "taskset": json.loads(taskset_to_json(tasksets[1])),
                "options": {"speedup": 2.0},
                "wait": True,
            }).encode()
            status, payload = svc.raw("POST", "/analyze", body)
            assert status == 200
            assert payload["status"] == "done"
            assert len(payload["results"]) == 1
            stats = payload["stats"]
            assert (
                stats["computed"] + stats["cache_hits"] + stats["resumed"]
                + stats["deduplicated"] + stats["quarantined"]
            ) == stats["total"] == 1

    def test_sse_progress_stream_ends_with_done(self, tasksets):
        core = WorkQueueCore(jobs=1)
        with ServiceThread(core) as svc:
            gate = threading.Event()
            release = threading.Event()

            def blocking_progress(done: int, total: int) -> None:
                gate.set()
                if done < total:
                    assert release.wait(30)

            requests = [
                AnalysisRequest(taskset=ts, speedup=2.0) for ts in tasksets[:3]
            ]
            handle, _ = core.submit(requests, progress=blocking_progress)
            assert gate.wait(30)  # running, blocked mid-job
            connection = http.client.HTTPConnection(
                "127.0.0.1", svc.port, timeout=30
            )
            try:
                connection.request("GET", f"/jobs/{handle.job_id}/events")
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type") == "text/event-stream"
                # Read the first full frame (the running job's progress
                # event) before unblocking the job, then drain the rest.
                first = b""
                while not first.endswith(b"\n\n"):
                    first += response.read(1)
                release.set()
                stream = (first + response.read()).decode()
            finally:
                connection.close()
            assert "event: progress" in stream
            assert "event: done" in stream
            final = json.loads(stream.rsplit("data: ", 1)[1].split("\n")[0])
            assert final["status"] == "done"
            assert final["done"] == final["total"] == 3

    def test_malformed_json_is_structured_400(self):
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            status, payload = svc.raw("POST", "/analyze", b"{not json")
            assert status == 400
            assert payload["wire_version"] == WIRE_VERSION
            assert "malformed JSON" in payload["error"]

    def test_nan_or_bool_option_is_structured_400(self, tasksets):
        from repro.io import taskset_to_json

        document = json.loads(taskset_to_json(tasksets[0]))
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            for options in (
                {"speedup": math.nan},
                {"x": 0.5, "y": math.nan},
                {"speedup": True},
            ):
                body = json.dumps({
                    "wire_version": WIRE_VERSION,
                    "taskset": document,
                    "options": options,
                }).encode()
                status, payload = svc.raw("POST", "/analyze", body)
                assert status == 400
                assert payload["wire_version"] == WIRE_VERSION
                assert "rejected" in payload["error"]

    def test_uncoerced_task_field_is_structured_400(self, tasksets):
        # A bool where a number belongs fails with the model's message,
        # as MCTask(c_lo=True) does, rather than loading as 1.0.
        from repro.io import taskset_to_json

        document = json.loads(taskset_to_json(tasksets[0]))
        document["tasks"][0]["c_lo"] = True
        name = document["tasks"][0]["name"]
        body = json.dumps({"wire_version": WIRE_VERSION, "taskset": document}).encode()
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            status, payload = svc.raw("POST", "/analyze", body)
        assert status == 400
        assert payload["error"] == (
            f"task set #0 invalid: {name}: C(LO) must be a real number, got True "
            "(bool); pass a float (math.inf is only legal for D(HI)/T(HI) of LO tasks)"
        )

    def test_unknown_wire_version_is_structured_400(self):
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            body = json.dumps({"wire_version": 99, "tasksets": []}).encode()
            status, payload = svc.raw("POST", "/analyze", body)
            assert status == 400
            assert "unsupported wire_version 99" in payload["error"]

    def test_unknown_job_404(self):
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            status, payload = svc.raw("GET", "/jobs/deadbeef")
            assert status == 404
            assert "unknown job" in payload["error"]
            with pytest.raises(ServiceError) as err:
                svc.client().poll("deadbeef")
            assert err.value.status == 404

    def test_wrong_method_405_and_unknown_route_404(self):
        with ServiceThread(WorkQueueCore(jobs=1)) as svc:
            status, payload = svc.raw("GET", "/analyze")
            assert status == 405
            status, payload = svc.raw("POST", "/nope", b"{}")
            assert status == 404

    def test_graceful_drain_readyz_503_before_exit(self, tasksets):
        """Shutdown flips /readyz to 503 while in-flight work settles."""
        core = WorkQueueCore(jobs=1)
        svc = ServiceThread(core)
        with svc:
            client = svc.client()
            gate = threading.Event()
            release = threading.Event()

            def blocking_progress(done: int, total: int) -> None:
                gate.set()
                assert release.wait(30)

            requests = [
                AnalysisRequest(taskset=ts, speedup=2.0) for ts in tasksets[:2]
            ]
            handle, _ = core.submit(requests, progress=blocking_progress)
            assert gate.wait(30)
            assert client.ready()
            svc.loop.call_soon_threadsafe(svc.service.request_shutdown)
            deadline = time.monotonic() + 10
            while not svc.service.draining and time.monotonic() < deadline:
                time.sleep(0.01)
            assert svc.service.draining
            # Draining: not ready, but still alive and answering.
            status, payload = svc.raw("GET", "/readyz")
            assert status == 503
            assert payload["status"] == "draining"
            assert client.healthy()
            # New submissions are refused while draining.
            with pytest.raises(ServiceError) as err:
                client.submit(tasksets[:1], speedup=2.0)
            assert err.value.status == 503
            release.set()
            assert handle.wait(60)
            svc._thread.join(30)
            assert not svc._thread.is_alive()
        # After drain the core is closed and the port is released.
        assert not core.alive()
        with pytest.raises(ServiceError):
            svc.client(timeout=2).metrics()
