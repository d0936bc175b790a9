"""Session facade: open_session forms, run/run_grid/serve, lazy imports."""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import AgentSpec, ExperimentSpec, GridSpec, ServingSpec, SuiteSpec, \
    TenantSpec, open_session
from repro.session import Session

MODEL = dict(model="hermes2-pro-8b", quant="q4_K_M")


class TestOpenSessionForms:
    def test_from_suite_name(self):
        session = open_session("edgehome", n_queries=4)
        assert session.suite.name == "edgehome"
        assert len(session.suite.queries) == 4

    def test_from_suite_spec(self):
        session = open_session(SuiteSpec(name="bfcl", n_queries=3))
        assert session.suite.name == "bfcl"

    def test_from_experiment_spec(self):
        spec = ExperimentSpec(suite=SuiteSpec(name="edgehome", n_queries=3),
                              agent=AgentSpec(scheme="default", **MODEL))
        run = open_session(spec).run()
        assert [e.scheme for e in run.episodes] == ["default"] * 3

    def test_from_dict(self):
        session = open_session({"suite": {"name": "edgehome", "n_queries": 2,
                                          "seed": None}})
        assert len(session.suite.queries) == 2

    def test_from_suite_object(self):
        from repro.suites import load_suite

        suite = load_suite("edgehome", n_queries=3)
        session = open_session(suite=suite)
        assert session.suite is suite

    def test_from_serving_spec(self):
        spec = ServingSpec(tenants=(TenantSpec("home", "edgehome"),))
        session = open_session(spec)
        assert session.spec.serving is spec

    def test_rejects_nothing(self):
        with pytest.raises(ValueError, match="open_session needs"):
            open_session()

    def test_rejects_n_queries_with_non_string_spec(self):
        """n_queries/seed must not be silently dropped for spec inputs."""
        with pytest.raises(ValueError, match="n_queries/seed only apply"):
            open_session(SuiteSpec(name="bfcl"), n_queries=20)
        with pytest.raises(ValueError, match="n_queries/seed only apply"):
            open_session(ExperimentSpec(suite=SuiteSpec(name="bfcl")), seed=7)

    def test_session_rejects_non_spec(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            Session("edgehome")

    def test_suiteless_session_explains(self):
        session = open_session(ServingSpec(
            tenants=(TenantSpec("home", "edgehome"),)))
        with pytest.raises(ValueError, match="no suite"):
            _ = session.suite


class TestSessionRuns:
    @pytest.fixture(scope="class")
    def session(self):
        return open_session("edgehome", n_queries=4)

    def test_run_with_explicit_spec(self, session):
        run = session.run(AgentSpec(scheme="lis-k3", **MODEL))
        assert run.scheme == "lis-k3"
        assert len(run.episodes) == 4

    def test_run_scheme_shorthand_uses_spec_defaults(self):
        spec = ExperimentSpec(suite=SuiteSpec(name="edgehome", n_queries=2),
                              agent=AgentSpec(scheme="lis-k3", **MODEL))
        session = open_session(spec)
        run = session.run("default")
        assert run.scheme == "default"
        assert run.model == "hermes2-pro-8b"

    def test_run_without_agent_spec_explains(self, session):
        with pytest.raises(ValueError, match="AgentSpec"):
            session.run()

    def test_run_grid_matches_individual_runs(self, session):
        grid = GridSpec(schemes=("default", "lis-k3"),
                        models=("hermes2-pro-8b",), quants=("q4_K_M",),
                        n_queries=3)
        results = session.run_grid(grid)
        assert set(results) == {("default", "hermes2-pro-8b", "q4_K_M"),
                                ("lis-k3", "hermes2-pro-8b", "q4_K_M")}
        solo = session.run(AgentSpec(scheme="lis-k3", **MODEL), n_queries=3)
        assert results[("lis-k3", "hermes2-pro-8b", "q4_K_M")].episodes \
            == solo.episodes

    def test_run_grid_without_spec_explains(self, session):
        with pytest.raises(ValueError, match="GridSpec"):
            session.run_grid()

    def test_shared_levels_across_agents(self, session):
        lis_a = session.build_agent(AgentSpec(scheme="lis-k3", **MODEL))
        lis_b = session.build_agent(AgentSpec(scheme="lis-k5", **MODEL))
        assert lis_a.levels is lis_b.levels

    def test_agent_knobs_from_spec(self, session):
        agent = session.build_agent(AgentSpec(
            scheme="lis-k3", confidence_threshold=0.4, force_level=2, **MODEL))
        assert agent.controller.force_level == 2


class TestSessionServe:
    def test_serve_from_tenant_specs(self):
        spec = ServingSpec(
            tenants=(TenantSpec("home", SuiteSpec("edgehome", n_queries=4)),),
            max_batch_size=4, max_wait_ms=1.0)
        session = open_session(spec)

        async def scenario():
            async with session.serve() as gateway:
                query = gateway.sessions.get("home").suite.queries[0]
                return await gateway.submit("home", query)

        response = asyncio.run(scenario())
        assert response.tenant == "home"
        assert response.episode.qid.startswith("edge")

    def test_serve_defaults_to_session_suite(self):
        session = open_session("edgehome", n_queries=4)

        async def scenario():
            async with session.serve(ServingSpec(max_batch_size=2,
                                                 max_wait_ms=1.0)) as gateway:
                query = session.suite.queries[0]
                return await gateway.submit("edgehome", query)

        response = asyncio.run(scenario())
        assert response.tenant == "edgehome"

    def test_serve_shares_session_embedder(self):
        session = open_session("edgehome", n_queries=4)
        gateway = session.serve()
        assert gateway.sessions.embedder is session.embedder


class TestLazyPackageImport:
    def test_import_repro_is_cheap(self):
        """`import repro` must not drag in any heavy submodule."""
        code = (
            "import sys; import repro; "
            "heavy = sorted(m for m in sys.modules if m.startswith('repro.')); "
            "print(','.join(heavy))"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        loaded = [m for m in out.stdout.strip().split(",") if m]
        assert loaded == [], f"import repro loaded: {loaded}"

    def test_public_names_import_from_package_root(self):
        code = (
            "from repro import open_session, AgentSpec, load_suite; "
            "print('ok')"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "ok"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist
