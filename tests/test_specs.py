"""Spec dataclasses: validation, dict round-trip, pickle round-trip."""

import pickle

import pytest

from repro.specs import (
    AgentSpec,
    BudgetSpec,
    CatalogSpec,
    EngineSpec,
    ExperimentSpec,
    GridSpec,
    HttpSpec,
    ObsSpec,
    ServingSpec,
    SuiteSpec,
    TenantSpec,
)

ALL_SPECS = [
    SuiteSpec(name="edgehome", n_queries=12, seed=3),
    SuiteSpec(name="edgehome", n_queries=12,
              catalog=CatalogSpec(name="edgehome", variant="compressed")),
    CatalogSpec(name="bfcl", variant="minimal",
                include=("calculate_expression", "web_search")),
    TenantSpec(name="home", suite=SuiteSpec(name="edgehome", n_queries=6),
               catalog=CatalogSpec(name="edgehome", variant="minimal")),
    AgentSpec(scheme="lis-k3", model="hermes2-pro-8b", quant="q4_K_M",
              k=4, confidence_threshold=0.2, force_level=2,
              context_window=8192),
    GridSpec(schemes=("default", "lis-k3"), models=("llama3.1-8b",),
             quants=("q4_K_M", "q8_0"), n_queries=8),
    TenantSpec(name="home", suite=SuiteSpec(name="edgehome", n_queries=6)),
    BudgetSpec(energy_budget_j=120.0, carbon_budget_g=0.02,
               window_requests=8, recovery_ticks=2, signal="sinusoid",
               intensity_g_per_kwh=380.0, intensity_amplitude=120.0,
               intensity_high=480.0, min_power_mode="30W"),
    ServingSpec(
        tenants=(TenantSpec(name="home", suite=SuiteSpec(name="edgehome")),),
        plan_cache_size=16,
        budget=BudgetSpec(energy_budget_j=90.0, window_requests=4)),
    ServingSpec(
        tenants=(TenantSpec(name="home", suite=SuiteSpec(name="edgehome")),
                 TenantSpec(name="assist", suite=SuiteSpec(name="bfcl"))),
        max_batch_size=16, max_wait_ms=1.5, queue_capacity=64,
        default_scheme="lis-k5", execution_backend="process",
        execution_workers=2, plan_cache_size=256),
    ExperimentSpec(
        suite=SuiteSpec(name="bfcl", n_queries=4),
        agent=AgentSpec(scheme="gorilla", model="qwen2-7b", quant="q4_0"),
        grid=GridSpec(schemes=("default",), models=("qwen2-7b",),
                      quants=("q4_0",)),
        serving=ServingSpec(plan_cache_size=8)),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
class TestRoundTrips:
    def test_dict_round_trip(self, spec):
        data = spec.to_dict()
        assert type(spec).from_dict(data) == spec

    def test_dict_is_json_plain(self, spec):
        import json

        json.dumps(spec.to_dict())  # no custom types leak through

    def test_pickle_round_trip(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestNormalization:
    def test_grid_axes_accept_comma_strings(self):
        grid = GridSpec(schemes="default,lis-k3", models="llama3.1-8b",
                        quants="q4_K_M,q8_0")
        assert grid.schemes == ("default", "lis-k3")
        assert grid.quants == ("q4_K_M", "q8_0")

    def test_grid_axes_accept_lists(self):
        grid = GridSpec(schemes=["default"], models=["m"], quants=["q"])
        assert grid.schemes == ("default",)

    def test_grid_cells_order(self):
        grid = GridSpec(schemes=("a", "b"), models=("m",), quants=("q1", "q2"))
        assert grid.cells == (("a", "m", "q1"), ("b", "m", "q1"),
                              ("a", "m", "q2"), ("b", "m", "q2"))

    def test_tenant_accepts_suite_name_string(self):
        tenant = TenantSpec(name="home", suite="edgehome")
        assert tenant.suite == SuiteSpec(name="edgehome")

    def test_suite_accepts_catalog_name_string(self):
        suite = SuiteSpec(name="edgehome", catalog="edgehome")
        assert suite.catalog == CatalogSpec(name="edgehome")

    def test_tenant_accepts_catalog_string_and_dict(self):
        tenant = TenantSpec(name="home", suite="edgehome", catalog="edgehome")
        assert tenant.catalog == CatalogSpec(name="edgehome")
        tenant = TenantSpec(name="home", suite="edgehome",
                            catalog={"name": "edgehome", "variant": "minimal",
                                     "include": None})
        assert tenant.catalog.variant == "minimal"

    def test_tenant_effective_suite_applies_catalog_override(self):
        catalog = CatalogSpec(name="edgehome", variant="compressed")
        tenant = TenantSpec(name="home", suite=SuiteSpec(name="edgehome"),
                            catalog=catalog)
        assert tenant.effective_suite().catalog == catalog
        # no override: the suite spec passes through untouched
        plain = TenantSpec(name="home", suite=SuiteSpec(name="edgehome"))
        assert plain.effective_suite() is plain.suite

    def test_catalog_include_accepts_comma_string(self):
        spec = CatalogSpec(name="edgehome", include="set_alarm,turn_on_light")
        assert spec.include == ("set_alarm", "turn_on_light")

    def test_experiment_accepts_suite_name_string(self):
        spec = ExperimentSpec(suite="bfcl")
        assert spec.suite == SuiteSpec(name="bfcl")

    def test_nested_dicts_decode(self):
        spec = ExperimentSpec.from_dict({
            "suite": {"name": "edgehome", "n_queries": 4, "seed": None},
            "agent": {"scheme": "lis-k3", "model": "m", "quant": "q",
                      "k": None, "confidence_threshold": None,
                      "force_level": None, "context_window": None},
            "grid": None,
            "serving": {"tenants": [{"name": "t",
                                     "suite": {"name": "bfcl",
                                               "n_queries": None,
                                               "seed": None}}],
                        "max_batch_size": 4, "max_wait_ms": 1.0,
                        "queue_capacity": 8, "default_scheme": "lis-k3",
                        "default_model": "m", "default_quant": "q",
                        "execution_backend": "thread",
                        "execution_workers": None, "plan_cache_size": 2},
        })
        assert spec.suite.n_queries == 4
        assert spec.serving.tenants[0].suite.name == "bfcl"


class TestValidation:
    def test_suite_name_required(self):
        with pytest.raises(ValueError, match="non-empty"):
            SuiteSpec(name="")

    def test_catalog_name_required(self):
        with pytest.raises(ValueError, match="non-empty"):
            CatalogSpec(name="")

    def test_catalog_variant_domain(self):
        with pytest.raises(ValueError, match="full, compressed, minimal"):
            CatalogSpec(name="edgehome", variant="tiny")

    def test_catalog_variants_match_schema_constant(self):
        # specs.py mirrors the tools-layer constant to stay import-free;
        # this is the keep-in-sync check
        from repro.specs import CATALOG_VARIANTS
        from repro.tools.schema import DESCRIPTION_VARIANTS

        assert CATALOG_VARIANTS == DESCRIPTION_VARIANTS

    def test_catalog_empty_include_rejected(self):
        with pytest.raises(ValueError, match="at least one tool"):
            CatalogSpec(name="edgehome", include=())

    def test_catalog_spec_load_builds_variant_catalog(self):
        catalog = CatalogSpec(name="edgehome", variant="compressed").load()
        assert catalog.variant == "compressed"
        assert catalog.name == "edgehome"

    def test_suite_spec_load_retools_suite(self):
        spec = SuiteSpec(name="edgehome", n_queries=2,
                         catalog=CatalogSpec(name="edgehome",
                                             variant="minimal"))
        suite = spec.load()
        assert suite.catalog.variant == "minimal"

    def test_suite_n_queries_positive(self):
        with pytest.raises(ValueError, match="n_queries"):
            SuiteSpec(name="bfcl", n_queries=0)

    def test_agent_k_positive(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            AgentSpec(k=0)

    def test_agent_force_level_domain(self):
        with pytest.raises(ValueError, match="force_level"):
            AgentSpec(force_level=4)

    def test_agent_window_floor(self):
        with pytest.raises(ValueError, match="context_window"):
            AgentSpec(context_window=100)

    def test_grid_needs_axes(self):
        with pytest.raises(ValueError, match="schemes"):
            GridSpec(schemes=())

    def test_grid_n_queries_positive(self):
        with pytest.raises(ValueError, match="n_queries"):
            GridSpec(n_queries=0)

    def test_grid_stale_backend_key_fails_loudly(self):
        """A dict serialized before the grid lost its worker pools still
        carries ``backend``: ``from_dict`` must refuse it, not drop it."""
        stale = dict(GridSpec().to_dict(), backend="process")
        with pytest.raises(TypeError, match="backend"):
            GridSpec.from_dict(stale)
        assert set(GridSpec().to_dict()) == {
            "schemes", "models", "quants", "n_queries"}

    def test_serving_duplicate_tenants(self):
        with pytest.raises(ValueError, match="unique"):
            ServingSpec(tenants=(TenantSpec("t", "bfcl"),
                                 TenantSpec("t", "edgehome")))

    def test_serving_unknown_backend_lists_names(self):
        with pytest.raises(ValueError, match="thread.*process|process.*thread"):
            ServingSpec(execution_backend="gpu")

    def test_serving_plan_cache_nonnegative(self):
        with pytest.raises(ValueError, match="plan_cache_size"):
            ServingSpec(plan_cache_size=-1)

    def test_budget_needs_a_control(self):
        with pytest.raises(ValueError, match="at least one control"):
            BudgetSpec()

    def test_budget_trace_requires_path(self):
        with pytest.raises(ValueError, match="requires trace_path"):
            BudgetSpec(energy_budget_j=1.0, signal="trace")

    def test_budget_unknown_signal_lists_names(self):
        with pytest.raises(ValueError, match="sinusoid.*static.*trace"):
            BudgetSpec(energy_budget_j=1.0, signal="lunar")

    def test_budget_power_mode_domain(self):
        with pytest.raises(ValueError, match="MAXN, 30W, 15W"):
            BudgetSpec(energy_budget_j=1.0, min_power_mode="5W")

    def test_budget_intensity_low_requires_high(self):
        with pytest.raises(ValueError, match="requires intensity_high"):
            BudgetSpec(energy_budget_j=1.0, intensity_low=200.0)

    def test_power_mode_names_match_hardware_ladder(self):
        from repro.hardware.power_modes import POWER_MODES
        from repro.power import MODE_LADDER
        from repro.specs import POWER_MODE_NAMES

        assert POWER_MODE_NAMES == MODE_LADDER
        assert set(POWER_MODE_NAMES) == set(POWER_MODES)

    def test_experiment_needs_suite_or_serving(self):
        with pytest.raises(ValueError, match="suite.*serving"):
            ExperimentSpec()

    def test_experiment_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="AgentSpec"):
            ExperimentSpec(suite=SuiteSpec(name="bfcl"), agent="lis-k3")


class TestSpecImportsStayCheap:
    def test_constructing_specs_imports_nothing_heavy(self):
        """Spec construction (ServingSpec included) must not pull in the
        serving/evaluation stack — specs are the cheap layer."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys; "
            "from repro.specs import AgentSpec, BudgetSpec, GridSpec, "
            "ObsSpec, ServingSpec, SuiteSpec, TenantSpec; "
            "ServingSpec(tenants=(TenantSpec('t', SuiteSpec('edgehome')),), "
            "plan_cache_size=8, execution_backend='process', "
            "budget=BudgetSpec(energy_budget_j=50.0, signal='sinusoid'), "
            "obs=ObsSpec(), default_engine='simulated'); "
            "AgentSpec(); GridSpec(); "
            "heavy = sorted(m for m in sys.modules if m.startswith("
            "('repro.serving', 'repro.evaluation', 'repro.core', "
            "'repro.power', 'repro.obs', 'repro.engines', 'numpy'))); "
            "print(','.join(heavy))"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        loaded = [m for m in out.stdout.strip().split(",") if m]
        assert loaded == [], f"spec construction loaded: {loaded}"


class TestConversions:
    def test_replace_produces_new_frozen_spec(self):
        spec = AgentSpec(scheme="lis-k3")
        other = spec.replace(scheme="default")
        assert spec.scheme == "lis-k3"
        assert other.scheme == "default"
        with pytest.raises(Exception):
            spec.scheme = "x"  # frozen

    def test_serving_spec_threads_budget_to_config(self):
        from repro.serving import Gateway, SessionManager

        budget = BudgetSpec(energy_budget_j=50.0, window_requests=8)
        spec = ServingSpec(budget=budget, plan_cache_size=8)
        # the gateway's config *is* the spec: nothing to convert or drop
        gateway = Gateway(SessionManager(), config=spec)
        assert gateway.config is spec
        assert gateway.config.budget == budget
        # dict coercion mirrors the other nested specs
        coerced = ServingSpec(
            budget={"energy_budget_j": 50.0, "window_requests": 8},
            plan_cache_size=8)
        assert coerced.budget == budget
        with pytest.raises(ValueError, match="BudgetSpec"):
            ServingSpec(budget="tight")

    def test_budget_spec_resolves_late_defaults(self):
        spec = BudgetSpec(energy_budget_j=5.0, intensity_high=500.0,
                          recovery_margin=0.9)
        assert spec.effective_intensity_low == pytest.approx(450.0)
        assert spec.effective_settle_requests == spec.window_requests == 32
        # resolved on read, so a replaced window re-resolves the default
        assert spec.replace(window_requests=64).effective_settle_requests == 64
        assert spec.replace(intensity_high=None).effective_intensity_low is None

    def test_agent_kwargs_only_set_fields(self):
        assert AgentSpec().agent_kwargs() == {}
        assert AgentSpec(k=5, force_level=1).agent_kwargs() == {
            "k": 5, "force_level": 1}


class TestWireCompat:
    """Spec JSON is an interface (``repro serve --spec``, ``bench_e2e``'s
    generated spec): the key sets below are the PR 12 wire form."""

    SERVING_KEYS = {
        "tenants", "default_engine", "max_batch_size", "max_wait_ms",
        "queue_capacity", "default_scheme", "default_model", "default_quant",
        "execution_backend", "execution_workers", "plan_cache_size",
        "timeout_ms", "worker_init_timeout_s", "execution_retries",
        "retry_backoff_ms", "slice_timeout_s", "obs", "http", "budget"}
    BUDGET_KEYS = {
        "energy_budget_j", "carbon_budget_g", "window_requests",
        "settle_requests", "recovery_ticks", "recovery_margin", "signal",
        "intensity_g_per_kwh", "intensity_amplitude", "period_s", "phase_s",
        "trace_path", "intensity_high", "intensity_low", "min_power_mode",
        "interval_ms"}

    def test_key_sets_unchanged(self):
        assert set(ServingSpec().to_dict()) == self.SERVING_KEYS
        assert set(BudgetSpec(energy_budget_j=1).to_dict()) == self.BUDGET_KEYS

    def test_max_wait_defaults_to_work_conserving(self):
        # the key stays on the wire; only its default moved (2.0 -> 0.0),
        # so a spec written without it now means "no idle-time window"
        assert ServingSpec().max_wait_ms == 0.0
        assert ServingSpec().to_dict()["max_wait_ms"] == 0.0
        assert ServingSpec.from_dict({"max_batch_size": 4}).max_wait_ms == 0.0
        assert ServingSpec.from_dict({"max_wait_ms": 1.5}).max_wait_ms == 1.5

    def test_parent_written_serving_spec_round_trips(self):
        import json
        from pathlib import Path

        # written by the PR 12 commit's ServingSpec.to_dict()
        data = json.loads((Path(__file__).parent / "data"
                           / "serving_spec_parent.json").read_text())
        spec = ServingSpec.from_dict(data)
        assert spec == ServingSpec(
            tenants=(
                TenantSpec("home", SuiteSpec("edgehome", n_queries=6, seed=1),
                           catalog=CatalogSpec("edgehome", variant="compressed"),
                           engine=EngineSpec("simulated")),
                TenantSpec("assist", "bfcl")),
            default_engine="simulated", max_batch_size=16, max_wait_ms=1.5,
            queue_capacity=64, default_scheme="lis-k5",
            execution_backend="process", execution_workers=2,
            plan_cache_size=256, timeout_ms=500.0,
            obs=ObsSpec(sink="null", sample_rate=0.5, slow_span_ms=20.0),
            http=HttpSpec(port=0, api_key="k", rate_limit_rps=5.0),
            budget=BudgetSpec(energy_budget_j=90.0, window_requests=4,
                              intensity_high=450.0))
        assert spec.to_dict() == data
