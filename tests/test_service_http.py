"""End-to-end tests for the compile service HTTP surface.

One ephemeral-port :class:`CompileServer` with a persistent store per
test class; clients talk real HTTP through :class:`repro.service.Client`
and the ``remote`` executor, so these tests cover the full wire path the
CLI uses (submit → poll → decode).
"""

import threading

import pytest

from repro import ScheduleOptions, Session, paper_case_study
from repro.core import SetGranularity
from repro.exec import EvaluateJob, SweepJob
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import BenchmarkSpec, tiny_sequential
from repro.service import Client, CompileServer, RemoteError, RemoteExecutor

COARSE = SetGranularity(rows_per_set=4)
COARSE_OPTIONS = ScheduleOptions(granularity=COARSE)


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


@pytest.fixture(scope="module")
def min_pes(canonical):
    return minimum_pe_requirement(canonical, paper_case_study(1).crossbar)


@pytest.fixture(scope="module")
def arch(min_pes):
    return paper_case_study(min_pes + 4)


@pytest.fixture(scope="module")
def spec(canonical, min_pes):
    return BenchmarkSpec(
        "tiny_sequential",
        canonical.shape_of(canonical.input_names()[0]).hwc,
        base_layers=len(canonical.base_layers()),
        min_pes=min_pes,
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store_root = tmp_path_factory.mktemp("service-store")
    with CompileServer(
        port=0, jobs=2, store_path=str(store_root / "store")
    ) as srv:
        srv.start()
        yield srv


@pytest.fixture()
def client(server):
    return Client(server.url)


def sweep_job(spec, canonical, key=None):
    return SweepJob(
        (spec,), xs=(2,),
        options_overrides={"granularity": COARSE},
        graphs={spec.name: canonical},
        key=key,
    )


class TestRoutes:
    def test_health(self, client):
        assert client.health() == {"status": "ok"}

    def test_unknown_route_and_job_404(self, client):
        with pytest.raises(RemoteError, match="no such route") as excinfo:
            client._request("GET", "/v2/everything")
        assert excinfo.value.status == 404
        with pytest.raises(RemoteError, match="unknown job"):
            client.status("not-a-job")
        with pytest.raises(RemoteError, match="unknown job"):
            client.cancel("not-a-job")

    def test_malformed_submission_rejected(self, client):
        with pytest.raises(RemoteError, match="bad job payload") as excinfo:
            client._request(
                "POST", "/v1/jobs", {"job": {"version": 1, "kind": "teleport"}},
                accept=(201,),
            )
        assert excinfo.value.status == 400
        assert client.health() == {"status": "ok"}  # service survived

    def test_evaluate_roundtrip_matches_local(self, client, canonical, arch):
        handle = client.evaluate(
            canonical, COARSE_OPTIONS, arch=arch, assume_canonical=True
        )
        remote = handle.result(timeout=120).unwrap()
        local = (
            Session(arch)
            .submit(EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True))
            .result()
            .unwrap()
        )
        assert remote.metrics == local.metrics
        assert remote.energy == local.energy
        assert handle.status()["state"] == "done"

    def test_job_listing_and_stats(self, client, canonical, arch):
        handle = client.evaluate(
            canonical, COARSE_OPTIONS, arch=arch, assume_canonical=True
        )
        handle.result(timeout=120)
        assert handle.id in [job["id"] for job in client.jobs()]
        stats = client.stats()
        assert stats["executor"]["name"] == "thread"
        assert stats["jobs"]["done"] >= 1
        assert "store" in stats and "session" in stats["store"]

    def test_request_timeout_surfaces_as_failed_envelope(self, client, spec,
                                                         canonical):
        handle = client.submit_job(sweep_job(spec, canonical), timeout=1e-9)
        envelope = handle.result(timeout=120)
        assert not envelope.ok
        assert envelope.error.kind == "JobTimeoutError"
        assert handle.status()["state"] == "failed"
        assert client.health() == {"status": "ok"}  # service survived


class TestConcurrentClients:
    def test_second_client_served_from_shared_store(self, server, spec,
                                                    canonical):
        """S4: two clients, one server — the second sweep never recompiles."""
        cold = Client(server.url).submit_job(
            sweep_job(spec, canonical, key="cold")
        ).result(timeout=300)
        (cold_sweep,) = cold.unwrap()
        assert any(p.cache_misses > 0 for p in cold_sweep.points)

        results = {}
        errors = []

        def run(name):
            try:
                handle = Client(server.url).submit_job(
                    sweep_job(spec, canonical, key=name)
                )
                results[name] = handle.result(timeout=300)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(f"warm{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        assert set(results) == {"warm0", "warm1"}
        for envelope in results.values():
            (sweep,) = envelope.unwrap()
            assert sweep.points == cold_sweep.points or all(
                p.cache_store_hits > 0 for p in sweep.points
            )
            assert all(p.cache_misses == 0 for p in sweep.points)
            assert any(p.cache_store_hits > 0 for p in sweep.points)
            assert sweep.baseline_cache is not None
            assert sweep.baseline_cache[2] == 0  # baseline: zero misses too

    def test_warm_results_identical_to_cold(self, client, spec, canonical):
        first = client.submit_job(sweep_job(spec, canonical)).result(timeout=300)
        second = client.submit_job(sweep_job(spec, canonical)).result(timeout=300)
        (a,) = first.unwrap()
        (b,) = second.unwrap()
        assert a.baseline == b.baseline
        assert [(p.config, p.speedup, p.energy_uj) for p in a.points] == [
            (p.config, p.speedup, p.energy_uj) for p in b.points
        ]


class TestCancellation:
    def test_delete_cancels_queued_job(self, server, spec, canonical):
        client = Client(server.url)
        # Saturate both slots, then cancel a third (still-queued) job.
        blockers = [
            client.submit_job(sweep_job(spec, canonical)) for _ in range(2)
        ]
        victim = client.submit_job(sweep_job(spec, canonical))
        victim_status = client.cancel(victim.id)
        assert victim_status["state"] in ("cancelled", "running", "done")
        for handle in blockers:
            assert handle.result(timeout=300).ok
        final = victim.status()
        if final["state"] == "cancelled":
            envelope = client.result(victim.id)
            assert envelope.error.kind == "Cancelled"
        assert client.health() == {"status": "ok"}  # service survived


class TestRemoteExecutor:
    def test_session_remote_sweep_matches_local(self, server, spec, canonical):
        job = sweep_job(spec, canonical)
        with Session(paper_case_study(1)) as local_session:
            (local,) = local_session.submit(job).result().unwrap()
        executor = RemoteExecutor(server.url)
        try:
            with Session(paper_case_study(1), executor=executor) as session:
                result = session.submit(job).result()
        finally:
            executor.shutdown()
        (remote,) = result.unwrap()
        assert remote.benchmark == local.benchmark
        assert remote.baseline == local.baseline
        assert [(p.config, p.extra_pes, p.speedup, p.energy_uj)
                for p in remote.points] == [
            (p.config, p.extra_pes, p.speedup, p.energy_uj)
            for p in local.points
        ]

    def test_remote_executor_requires_url(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVER_URL", raising=False)
        with pytest.raises(ValueError, match="REPRO_SERVER_URL"):
            RemoteExecutor()

    def test_remote_executor_resolves_url_from_env(self, server, monkeypatch):
        monkeypatch.setenv("REPRO_SERVER_URL", server.url)
        executor = RemoteExecutor()
        try:
            assert executor.client.base_url == server.url
        finally:
            executor.shutdown()


class TestServerLifecycle:
    def test_shutdown_idempotent_and_rejects_submissions(self, spec, canonical,
                                                         tmp_path):
        server = CompileServer(port=0, jobs=1).start()
        client = Client(server.url)
        handle = client.submit_job(sweep_job(spec, canonical))
        assert handle.result(timeout=300).ok
        server.shutdown_service()
        server.shutdown_service()  # no-op
        with pytest.raises(OSError):
            Client(server.url, timeout=2.0).health()
