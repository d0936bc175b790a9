"""Spec dataclasses: validation, dict round-trip, pickle round-trip."""

import pickle
import re

import pytest

from repro.specs import (
    AgentSpec,
    BudgetSpec,
    CatalogSpec,
    EngineSpec,
    ExperimentSpec,
    FaultPlan,
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
    CatalogSpec(name="bfcl", variant="minimal"),
    TenantSpec(name="home", suite=SuiteSpec(
        name="edgehome", n_queries=6,
        catalog=CatalogSpec(name="edgehome", variant="minimal"))),
    AgentSpec(scheme="lis-k4", model="hermes2-pro-8b", quant="q4_K_M",
              confidence_threshold=0.2, force_level=2),
    GridSpec(schemes=("default", "lis-k3"), models=("llama3.1-8b",),
             quants=("q4_K_M", "q8_0")),
    TenantSpec(name="home", suite=SuiteSpec(name="edgehome", n_queries=6)),
    BudgetSpec(energy_budget_j=120.0,
               window_requests=8, recovery_ticks=2,
               intensity_g_per_kwh=380.0),
    ServingSpec(
        tenants=(TenantSpec(name="home", suite=SuiteSpec(name="edgehome")),),
        plan_cache_size=16,
        budget=BudgetSpec(energy_budget_j=90.0, window_requests=4)),
    ServingSpec(
        tenants=(TenantSpec(name="home", suite=SuiteSpec(name="edgehome")),
                 TenantSpec(name="assist", suite=SuiteSpec(name="bfcl"))),
        max_batch_size=16, queue_capacity=64,
        default_scheme="lis-k5", plan_cache_size=256),
    ExperimentSpec(
        suite=SuiteSpec(name="bfcl", n_queries=4),
        agent=AgentSpec(scheme="gorilla", model="qwen2-7b", quant="q4_0"),
        grid=GridSpec(schemes=("default",), models=("qwen2-7b",),
                      quants=("q4_0",)),
        serving=ServingSpec(plan_cache_size=8)),
    FaultPlan(seed=3, slow_batch_rate=0.25, slow_batch_ms=250.0,
              exception_rate=0.3),
    ServingSpec(
        tenants=(TenantSpec(name="home", suite=SuiteSpec(name="edgehome")),),
        timeout_ms=100.0,
        faults=FaultPlan(seed=1, slow_batch_rate=0.5, slow_batch_ms=20.0)),
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
        grid = GridSpec(schemes=["default"], models=["qwen2-7b"],
                        quants=["q4_0"])
        assert grid.schemes == ("default",)
        assert grid.models == ("qwen2-7b",)

    def test_tenant_accepts_suite_name_string(self):
        tenant = TenantSpec(name="home", suite="edgehome")
        assert tenant.suite == SuiteSpec(name="edgehome")

    def test_suite_accepts_catalog_name_string(self):
        suite = SuiteSpec(name="edgehome", catalog="edgehome")
        assert suite.catalog == CatalogSpec(name="edgehome")

    def test_tenant_accepts_catalog_string_and_dict(self):
        """A tenant's tooling is its suite's catalog, named or spelled out."""
        tenant = TenantSpec(name="home",
                            suite={"name": "edgehome", "catalog": "edgehome"})
        assert tenant.suite.catalog == CatalogSpec(name="edgehome")
        tenant = TenantSpec(name="home", suite={
            "name": "edgehome",
            "catalog": {"name": "edgehome", "variant": "minimal"}})
        assert tenant.suite.catalog.variant == "minimal"

    def test_experiment_accepts_suite_name_string(self):
        spec = ExperimentSpec(suite="bfcl")
        assert spec.suite == SuiteSpec(name="bfcl")

    def test_nested_dicts_decode(self):
        spec = ExperimentSpec.from_dict({
            "suite": {"name": "edgehome", "n_queries": 4, "seed": None},
            "agent": {"scheme": "lis-k3", "model": "qwen2-7b", "quant": "q4_0",
                      "confidence_threshold": None, "force_level": None},
            "grid": None,
            "serving": {"tenants": [{"name": "t",
                                     "suite": {"name": "bfcl",
                                               "n_queries": None,
                                               "seed": None}}],
                        "max_batch_size": 4,
                        "queue_capacity": 8, "default_scheme": "lis-k3",
                        "default_model": "qwen2-7b", "default_quant": "q4_0",
                        "plan_cache_size": 2},
        })
        assert spec.suite.n_queries == 4
        assert spec.serving.tenants[0].suite.name == "bfcl"


class TestValidation:
    @pytest.mark.parametrize("spec_cls,field,value", [
        (ServingSpec, "default_scheme", 5),
        (ServingSpec, "default_model", ["x"]),
        (ServingSpec, "default_quant", 3.0),
        (ServingSpec, "default_scheme", ""),
        (HttpSpec, "api_key", 7),
        (HttpSpec, "api_key", ""),
    ])
    def test_name_fields_must_be_non_empty_strings(self, spec_cls, field,
                                                   value):
        """A non-string name fails at construction, not at warm-up (a
        scheme) or on every request (a key no bearer string equals)."""
        message = (f"{spec_cls.__name__}.{field} must be a non-empty "
                   f"string, got {value!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec_cls(**{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            spec_cls.from_dict({field: value})

    @pytest.mark.parametrize("spec_cls,field,value,kind", [
        (AgentSpec, "model", "gpt-4", "model"),
        (AgentSpec, "quant", "Q4_0", "quantization"),
        (ServingSpec, "default_model", "gpt-4", "model"),
        (ServingSpec, "default_quant", "q2_K", "quantization"),
    ])
    def test_model_and_quant_names_need_a_profile(self, spec_cls, field,
                                                  value, kind):
        """Vetted at construction, before numpy or a suite loads."""
        message = f"{spec_cls.__name__}.{field}: unknown {kind} {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            spec_cls(**{field: value})

    def test_suite_name_required(self):
        with pytest.raises(ValueError, match="non-empty"):
            SuiteSpec(name="")

    def test_catalog_name_required(self):
        with pytest.raises(ValueError, match="non-empty"):
            CatalogSpec(name="")

    def test_catalog_name_resolves_through_the_registry(self):
        with pytest.raises(ValueError, match="CatalogSpec.name: unknown "
                                             "catalog 'nosuch'; registered "
                                             "catalogs: .*edgehome"):
            CatalogSpec(name="nosuch")

    def test_catalog_variant_domain(self):
        with pytest.raises(ValueError, match="full, compressed, minimal"):
            CatalogSpec(name="edgehome", variant="tiny")

    def test_catalog_variants_match_schema_constant(self):
        # specs.py mirrors the tools-layer constant to stay import-free;
        # this is the keep-in-sync check
        from repro.specs import CATALOG_VARIANTS
        from repro.tools.schema import DESCRIPTION_VARIANTS

        assert CATALOG_VARIANTS == DESCRIPTION_VARIANTS

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
        """k is said by the scheme name alone, and checked with it."""
        with pytest.raises(ValueError, match="-k<N> suffix must be >= 1"):
            AgentSpec("lis-k0")
        assert AgentSpec("lis-k1").scheme == "lis-k1"

    def test_agent_scheme_is_registered(self):
        with pytest.raises(ValueError,
                           match="AgentSpec.scheme: unknown scheme 'nosuch'"):
            AgentSpec("nosuch")
        with pytest.raises(ValueError, match="unknown scheme 'nosuch'"):
            AgentSpec("nosuch-k3")
        with pytest.raises(ValueError,
                           match="GridSpec.schemes: unknown scheme 'nosuch'"):
            GridSpec(schemes="default,nosuch")
        with pytest.raises(ValueError, match="GridSpec.schemes -k<N> suffix"):
            GridSpec(schemes="lis-k0")

    def test_agent_force_level_domain(self):
        with pytest.raises(ValueError, match="force_level"):
            AgentSpec(force_level=4)

    def test_grid_needs_axes(self):
        with pytest.raises(ValueError, match="schemes"):
            GridSpec(schemes=())

    def test_grid_stale_backend_key_fails_loudly(self):
        """A dict serialized before the grid lost its worker pools still
        carries ``backend``: ``from_dict`` must refuse it, not drop it."""
        stale = dict(GridSpec().to_dict(), backend="process")
        with pytest.raises(TypeError, match="backend"):
            GridSpec.from_dict(stale)
        assert set(GridSpec().to_dict()) == {"schemes", "models", "quants"}

    def test_serving_duplicate_tenants(self):
        with pytest.raises(ValueError, match="unique"):
            ServingSpec(tenants=(TenantSpec("t", "bfcl"),
                                 TenantSpec("t", "edgehome")))

    def test_serving_stale_backend_key_fails_loudly(self):
        """Episodes run on the gateway's batch worker: neither a backend
        name nor a worker count is a key any more."""
        with pytest.raises(TypeError, match="execution_backend"):
            ServingSpec(execution_backend="gpu")
        with pytest.raises(TypeError, match="execution_workers"):
            ServingSpec(execution_workers=2)

    def test_serving_plan_cache_nonnegative(self):
        with pytest.raises(ValueError, match="plan_cache_size"):
            ServingSpec(plan_cache_size=-1)

    def test_budget_needs_a_control(self):
        with pytest.raises(TypeError, match="energy_budget_j"):
            BudgetSpec()
        with pytest.raises(TypeError, match="energy_budget_j"):
            BudgetSpec.from_dict({"window_requests": 4})
        with pytest.raises(ValueError, match="energy_budget_j is required"):
            BudgetSpec.from_dict({"energy_budget_j": None})

    def test_power_mode_names_match_hardware_ladder(self):
        from repro.hardware.power_modes import POWER_MODES
        from repro.specs import POWER_MODE_NAMES

        assert POWER_MODE_NAMES == tuple(POWER_MODES)

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
            "from repro.specs import AgentSpec, BudgetSpec, CatalogSpec, "
            "FaultPlan, "
            "GridSpec, ObsSpec, ServingSpec, SuiteSpec, TenantSpec; "
            "ServingSpec(tenants=(TenantSpec('t', SuiteSpec('edgehome'), "
            "engine='simulated'),), "
            "plan_cache_size=8, "
            "budget=BudgetSpec(energy_budget_j=50.0, "
            "intensity_g_per_kwh=380.0), "
            "obs=ObsSpec(), "
            "faults=FaultPlan(seed=3, slow_batch_rate=0.25, "
            "slow_batch_ms=250.0, exception_rate=0.3)); "
            "AgentSpec(); GridSpec(); CatalogSpec('edgehome', 'compressed'); "
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
        spec = BudgetSpec(energy_budget_j=5.0)
        assert spec.effective_settle_requests == spec.window_requests == 32
        # resolved on read, so a replaced window re-resolves the default
        assert spec.replace(window_requests=64).effective_settle_requests == 64

    def test_agent_kwargs_only_set_fields(self):
        assert AgentSpec().agent_kwargs() == {}
        assert AgentSpec(confidence_threshold=0.3,
                         force_level=1).agent_kwargs() == {
            "confidence_threshold": 0.3, "force_level": 1}


#: every spec class's fields, in declaration order: a new knob is a
#: visible one-line edit here
FIELDS = {
    EngineSpec: ("name", "base_url", "wire_model", "api_key"),
    CatalogSpec: ("name", "variant"),
    SuiteSpec: ("name", "n_queries", "seed", "catalog"),
    AgentSpec: ("scheme", "model", "quant", "confidence_threshold",
                "force_level", "engine"),
    GridSpec: ("schemes", "models", "quants"),
    TenantSpec: ("name", "suite", "engine"),
    ObsSpec: ("sink", "sink_path", "sample_rate", "slow_span_ms"),
    BudgetSpec: ("energy_budget_j", "window_requests", "settle_requests",
                 "recovery_ticks", "intensity_g_per_kwh", "interval_ms"),
    HttpSpec: ("host", "port", "api_key", "rate_limit_rps",
               "rate_limit_burst"),
    FaultPlan: ("seed", "slow_batch_rate", "slow_batch_ms", "exception_rate"),
    ServingSpec: ("tenants", "max_batch_size", "queue_capacity",
                  "default_scheme", "default_model", "default_quant",
                  "plan_cache_size", "timeout_ms", "obs", "http", "budget",
                  "faults"),
    ExperimentSpec: ("suite", "agent", "grid", "serving"),
}

#: the parameter names (``self`` aside) of every constructor and
#: function whose settable surface the constructor cut decided, as
#: ``module:qualname``: like :data:`FIELDS`, a new knob is a visible
#: one-line edit here.  Each value a shipped path never set is a named
#: constant at its one reader.
SIGNATURES = {
    "repro.core.controller:ToolController": (
        "levels", "k", "confidence_threshold", "force_level"),
    "repro.core.levels:SearchLevelBuilder": ("embedder",),
    "repro.suites.augmentation:AugmentationEngine": ("suite",),
    "repro.core.agent_base:FunctionCallingAgent": (
        "llm", "suite", "device", "skill_multiplier"),
    "repro.baselines.gorilla:GorillaAgent": (
        "llm", "suite", "k", "context_window", "embedder", "kwargs"),
    "repro.baselines.toolllm:ToolLLMAgent": (
        "llm", "suite", "n_branches", "context_window", "embedder",
        "enforce_memory", "kwargs"),
    "repro.embedding.sentence:SentenceEmbedder": ("dim", "seed_namespace"),
    "repro.embedding.lexicon:ConceptLexicon": (),
    "repro.clustering.agglomerative:AgglomerativeClustering": (
        "n_clusters", "linkage", "metric"),
    "repro.clustering.agglomerative:Dendrogram.cut": ("n_clusters",),
    "repro.serving.gateway:Gateway": ("sessions", "config"),
    "repro.serving.http.app:GatewayHTTPApp": ("gateway",),
    "repro.serving.http.app:create_app": ("gateway",),
    "repro.serving.http.server:serve_gateway": (
        "gateway", "ready", "shutdown"),
    "repro.serving.http.server:AsgiServer": ("app", "http"),
    "repro.serving.telemetry:Telemetry": (),
    "repro.serving.batcher:_SingleWorker.shutdown": (),
    "repro.obs.sinks:MemorySink": (),
    "repro.power.budget:BudgetController": (
        "sessions", "spec", "meter", "telemetry", "tracer"),
    "repro.registry:resolve_scheme": ("name",),
    "repro.registry:split_scheme": ("name",),
    "repro.suites.edgehome:generate_edgehome_queries": (
        "n_queries", "seed", "split"),
}


@pytest.mark.parametrize("target", sorted(SIGNATURES))
def test_constructor_parameters_are_pinned(target):
    import importlib
    import inspect

    module, _, qualname = target.partition(":")
    obj = importlib.import_module(module)
    for name in qualname.split("."):
        obj = getattr(obj, name)
    assert tuple(name for name in inspect.signature(obj).parameters
                 if name != "self") == SIGNATURES[target]


#: the keys the one-knob-per-idea cuts removed, by class (a second way to
#: say what another field says, a single-value tuning knob, a capability
#: no shipped path used, the power-mode axis, which did not save the
#: joules it was stepped for, or the time-varying carbon signal, which
#: steered nothing: gCO₂ is joules times one intensity)
REMOVED = {
    EngineSpec: ("timeout_s", "retries", "retry_backoff_ms", "max_tokens",
                 "temperature"),
    CatalogSpec: ("include",),
    AgentSpec: ("k", "context_window"),
    GridSpec: ("n_queries",),
    TenantSpec: ("catalog",),
    ObsSpec: ("ring_capacity",),
    BudgetSpec: ("carbon_budget_g", "recovery_margin", "intensity_high",
                 "intensity_low", "min_power_mode", "signal", "trace_path"),
    HttpSpec: ("backlog",),
    ServingSpec: ("default_engine",),
}

#: a valid dict form of each class that has required fields or a
#: cross-field rule, for the removed-key checks below
_VALID = {
    CatalogSpec: {"name": "edgehome"},
    TenantSpec: {"name": "t", "suite": "edgehome"},
    BudgetSpec: {"energy_budget_j": 1.0},
}


class TestWireCompat:
    """Spec JSON is an interface (``repro serve --spec``, ``bench_e2e``'s
    generated spec): :data:`FIELDS` pins every class's keys, and each key
    a PR removes fails ``from_dict`` by name."""

    def test_key_sets_unchanged(self):
        import dataclasses
        import repro.specs

        assert set(FIELDS) == {getattr(repro.specs, name)
                               for name in repro.specs.__all__}
        for spec_cls, names in FIELDS.items():
            assert tuple(field.name for field in
                         dataclasses.fields(spec_cls)) == names, spec_cls
        assert sum(map(len, FIELDS.values())) == 57

    @pytest.mark.parametrize(
        "spec_cls,key", [(spec_cls, key) for spec_cls, keys in REMOVED.items()
                         for key in keys],
        ids=lambda value: getattr(value, "__name__", value))
    def test_removed_key_fails_by_name(self, spec_cls, key):
        assert key not in FIELDS[spec_cls]
        with pytest.raises(TypeError, match=rf"\b{key}\b"):
            spec_cls.from_dict({**_VALID.get(spec_cls, {}), key: None})

    def test_parent_written_serving_spec_round_trips(self):
        import json
        from pathlib import Path

        # written by the PR 12 commit's ServingSpec.to_dict(): each
        # removed key — top-level, in the budget, the obs and http
        # sections, a tenant or a tenant's engine — fails loudly by name;
        # without them it is the same spec
        data = json.loads((Path(__file__).parent / "data"
                           / "serving_spec_parent.json").read_text())
        sections = {"obs": ObsSpec, "http": HttpSpec, "budget": BudgetSpec}
        removed = set(data) - set(FIELDS[ServingSpec])
        removed_in = {name: set(data[name]) - set(FIELDS[spec_cls])
                      for name, spec_cls in sections.items()}
        home = data["tenants"][0]
        removed_tenant = set(home) - set(FIELDS[TenantSpec])
        removed_engine = set(home["engine"]) - set(FIELDS[EngineSpec])
        assert (len(removed), {name: len(keys) for name, keys
                               in removed_in.items()},
                removed_tenant, len(removed_engine)) == (
            8, {"obs": 1, "http": 1, "budget": 10}, {"catalog"}, 5)
        clean = {key: value for key, value in data.items()
                 if key not in removed}
        for name in sections:
            clean[name] = {key: value for key, value in data[name].items()
                           if key not in removed_in[name]}
        clean["tenants"] = [
            {key: value for key, value in tenant.items()
             if key not in removed_tenant}
            for tenant in data["tenants"]]
        clean["tenants"][0]["engine"] = {
            key: value for key, value in home["engine"].items()
            if key not in removed_engine}
        for key in removed:
            with pytest.raises(TypeError, match=key):
                ServingSpec.from_dict({**clean, key: data[key]})
        for name, keys in removed_in.items():
            for key in keys:
                with pytest.raises(TypeError, match=key):
                    ServingSpec.from_dict({**clean, name: {
                        **clean[name], key: data[name][key]}})
        for key in removed_tenant:
            with pytest.raises(TypeError, match=key):
                ServingSpec.from_dict({**clean, "tenants": [
                    {**clean["tenants"][0], key: home[key]}]})
        for key in removed_engine:
            with pytest.raises(TypeError, match=key):
                ServingSpec.from_dict({**clean, "tenants": [
                    {**clean["tenants"][0], "engine": {
                        **clean["tenants"][0]["engine"],
                        key: home["engine"][key]}}]})
        data = clean
        spec = ServingSpec.from_dict(data)
        assert spec == ServingSpec(
            tenants=(
                TenantSpec("home", SuiteSpec("edgehome", n_queries=6, seed=1),
                           engine=EngineSpec("simulated")),
                TenantSpec("assist", "bfcl")),
            max_batch_size=16,
            queue_capacity=64, default_scheme="lis-k5",
            plan_cache_size=256, timeout_ms=500.0,
            obs=ObsSpec(sink="null", sample_rate=0.5, slow_span_ms=20.0),
            http=HttpSpec(port=0, api_key="k", rate_limit_rps=5.0),
            budget=BudgetSpec(energy_budget_j=90.0, window_requests=4))
        assert spec.to_dict() == {**data, "faults": None}


def test_fault_plan_threads_through_serving_spec_json():
    import json

    plan = FaultPlan(seed=3, slow_batch_rate=0.25, slow_batch_ms=250.0,
                     exception_rate=0.3)
    spec = ServingSpec.from_dict(json.loads(json.dumps(
        ServingSpec(faults=plan).to_dict())))
    assert spec.faults == plan
    assert ServingSpec(faults=plan.to_dict()).faults == plan
    with pytest.raises(ValueError, match="must be a FaultPlan"):
        ServingSpec(faults="chaos")
    with pytest.raises(ValueError, match=r"exception_rate must be in \[0, 1\]"):
        ServingSpec(faults={"exception_rate": 1.5})


def _example_specs():
    from pathlib import Path

    specs = sorted((Path(__file__).resolve().parent.parent / "examples"
                    / "specs").glob("*.json"))
    assert specs, "examples/specs/ holds no spec files"
    return specs


@pytest.mark.parametrize("path", _example_specs(), ids=lambda path: path.name)
def test_example_specs_round_trip(path):
    """Every committed ``examples/specs/*.json`` loads as a ServingSpec
    and is written exactly as ``to_dict()`` writes it."""
    import json

    data = json.loads(path.read_text())
    assert ServingSpec.from_dict(data).to_dict() == data
