"""Tests for repro.tools.catalog: the first-class ToolCatalog API."""

import json
import pickle
import random

import pytest
from test_tools_schema import spec_from_dict

from repro.registry import CATALOGS, register_catalog
from repro.tools.catalog import CatalogDiff, ToolCatalog, load_catalog
from repro.tools.schema import ToolParameter as P
from repro.tools.schema import ToolSpec as T


def make_tools(n=4):
    return tuple(
        T(f"tool_{index}", f"Tool number {index} does useful thing {index}.",
          (P("x", "integer", "The x argument."),
           P("tags", "array", "Some tags.", required=False, item_type="string")),
          category="even" if index % 2 == 0 else "odd")
        for index in range(n)
    )


def catalog_from_dict(data):
    """A catalog rebuilt from its ``to_dict`` form with the constructors."""
    return ToolCatalog(data["name"], tuple(map(spec_from_dict, data["tools"])),
                       data["variant"])


@pytest.fixture
def catalog():
    return ToolCatalog("demo", make_tools())


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ToolCatalog("", make_tools())

    def test_duplicate_tool_names_rejected(self):
        tools = make_tools(2) + make_tools(1)
        with pytest.raises(ValueError, match="duplicate tool names.*tool_0"):
            ToolCatalog("demo", tools)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="full, compressed, minimal"):
            ToolCatalog("demo", make_tools(), variant="tiny")

    def test_tools_normalized_to_tuple(self):
        catalog = ToolCatalog("demo", list(make_tools()))
        assert isinstance(catalog.tools, tuple)


class TestLookup:
    def test_len_iter_contains(self, catalog):
        assert len(catalog) == 4
        assert [t.name for t in catalog] == ["tool_0", "tool_1", "tool_2", "tool_3"]
        assert "tool_1" in catalog
        assert "nope" not in catalog

    def test_get_unknown_suggests_near_misses(self, catalog):
        with pytest.raises(KeyError, match="did you mean.*tool_1"):
            catalog.get("tool1")

    def test_get_unknown_lists_names(self, catalog):
        with pytest.raises(KeyError, match="known names: tool_0"):
            catalog.get("zzz")

    def test_names_and_categories(self, catalog):
        assert catalog.names == ["tool_0", "tool_1", "tool_2", "tool_3"]
        assert catalog.categories == ["even", "odd"]
        assert [t.name for t in catalog.by_category("odd")] == ["tool_1", "tool_3"]

    def test_select_preserves_given_order(self, catalog):
        assert [t.name for t in catalog.select(["tool_2", "tool_0"])] == \
            ["tool_2", "tool_0"]

    def test_descriptions_and_prompt_text(self, catalog):
        assert catalog.descriptions()[0].startswith("Tool number 0")
        # a presented tool reaches the prompt as its json_text
        prompt = "\n".join(tool.json_text() for tool in catalog.select(["tool_0"]))
        assert "tool_0" in prompt and "tool_3" not in prompt


class TestAlgebra:
    def test_subset_preserves_registration_order(self, catalog):
        subset = catalog.subset(["tool_3", "tool_0"])  # reversed on purpose
        assert subset.names == ["tool_0", "tool_3"]
        assert subset.name == catalog.name
        assert subset.variant == catalog.variant

    def test_subset_unknown_name_suggests(self, catalog):
        with pytest.raises(KeyError, match="did you mean"):
            catalog.subset(["tool_O"])

    def test_diff(self, catalog):
        changed = catalog.tools[1].at_variant("minimal")
        other = ToolCatalog("demo", (catalog.tools[0], changed,
                                     T("brand_new", "A new tool entirely.")))
        diff = catalog.diff(other)
        assert diff.added == ("brand_new",)
        assert diff.removed == ("tool_2", "tool_3")
        assert diff.changed == ("tool_1",)
        assert not diff.is_empty
        assert "added: brand_new" in diff.summary()

    def test_diff_identical_is_empty(self, catalog):
        diff = catalog.diff(ToolCatalog("demo", catalog.tools))
        assert diff.is_empty
        assert diff.summary() == "identical"
        assert isinstance(diff, CatalogDiff)

    def test_subset_merge_order_stress(self):
        """Random subset/diff sequences never reorder surviving tools.

        Prompt layouts and embedding-index ids key off registration
        order, so any algebra that reshuffled tools would silently
        change every downstream episode.
        """
        rng = random.Random(1234)
        base = ToolCatalog("stress", make_tools(12))
        order = {name: position for position, name in enumerate(base.names)}
        for _ in range(50):
            picked = rng.sample(base.names, rng.randint(1, len(base)))
            rng.shuffle(picked)
            subset = base.subset(picked)
            assert subset.names == sorted(picked, key=order.__getitem__)
            # what the subset lacks comes back in registration order
            diff = subset.diff(base)
            assert diff.added == tuple(n for n in base.names if n not in picked)
            assert diff.removed == diff.changed == ()


class TestVariants:
    def test_at_full_is_identity(self, catalog):
        assert catalog.at("full") is catalog

    def test_variant_descriptions_shrink(self, catalog):
        compressed = catalog.at("compressed")
        minimal = catalog.at("minimal")
        assert compressed.variant == "compressed"
        for full_tool, min_tool in zip(catalog, minimal):
            assert len(min_tool.json_text()) < len(full_tool.json_text())
            assert min_tool.name == full_tool.name
            assert [p.name for p in min_tool.parameters] == \
                [p.name for p in full_tool.parameters]
        total = lambda c: sum(len(t.json_text()) for t in c)  # noqa: E731
        assert total(minimal) < total(compressed) < total(catalog)

    def test_variant_changes_version(self, catalog):
        versions = {catalog.version, catalog.at("compressed").version,
                    catalog.at("minimal").version}
        assert len(versions) == 3

    def test_cannot_reexpand_derived_variant(self, catalog):
        with pytest.raises(ValueError, match="reload the full catalog"):
            catalog.at("minimal").at("full")

    def test_validation_unchanged_across_variants(self, catalog):
        arguments = {"x": 3, "tags": ["a"]}
        for variant in ("full", "compressed", "minimal"):
            spec = catalog.at(variant).get("tool_0")
            assert spec.validate_arguments(arguments) == []
            assert spec.validate_arguments({"x": "three"}) != []


class TestVersion:
    def test_version_is_content_hash(self, catalog):
        clone = ToolCatalog("demo", make_tools())
        assert clone.version == catalog.version

    def test_version_changes_with_content(self, catalog):
        assert catalog.subset(["tool_0"]).version != catalog.version
        renamed = ToolCatalog("other", catalog.tools)
        assert renamed.version != catalog.version

    def test_version_stable_across_pickle(self, catalog):
        _ = catalog.version  # memoize before pickling
        clone = pickle.loads(pickle.dumps(catalog))
        assert clone.version == catalog.version
        assert clone == catalog


class TestRoundTrip:
    @pytest.mark.parametrize("variant", ["full", "compressed", "minimal"])
    def test_dict_json_pickle_round_trip(self, catalog, variant):
        original = catalog.at(variant)
        from_dict = catalog_from_dict(original.to_dict())
        from_json = catalog_from_dict(json.loads(json.dumps(original.to_dict())))
        from_pickle = pickle.loads(pickle.dumps(original))
        assert from_dict == original
        assert from_json == original
        assert from_pickle == original
        assert from_dict.version == original.version


class TestLoadCatalog:
    def test_builtin_catalogs_registered(self):
        for name in ("bfcl", "geoengine", "edgehome"):
            assert name in CATALOGS
            catalog = load_catalog(name)
            assert isinstance(catalog, ToolCatalog)
            assert catalog.name == name
            assert catalog.variant == "full"

    def test_unknown_catalog_lists_registered(self):
        with pytest.raises(ValueError, match="registered catalogs"):
            load_catalog("nope")

    def test_builtin_variant_token_totals(self):
        """The description-variant lever in exact numbers: summed
        ``tool_prompt_tokens`` per builtin catalog at full / compressed /
        minimal.  The values are the ``catalog.*`` rows of the perf
        baseline that was retired at c15e7b3 (see CHANGES.md, PR 16),
        where only the two ratios were guarded, at 25%."""
        from repro.llm.tokens import tool_prompt_tokens

        committed = {
            "bfcl": (6796, 6263, 5922),
            "browser": (1531, 1460, 1412),
            "edgehome": (3447, 3344, 3245),
            "geoengine": (5390, 5196, 4753),
        }
        # exactly the shipped catalogs (plugins unregister after themselves)
        assert CATALOGS.names() == sorted(committed)
        measured = {}
        for name in committed:
            catalog = load_catalog(name)
            measured[name] = tuple(
                sum(tool_prompt_tokens(tool) for tool in catalog.at(variant))
                for variant in ("full", "compressed", "minimal"))
            full, compressed, minimal = measured[name]
            assert full > compressed > minimal, name
        assert measured == committed
        totals = [sum(column) for column in zip(*measured.values())]
        assert totals == [17164, 16263, 15332]
        assert round(totals[1] / totals[0], 4) == 0.9475
        assert round(totals[2] / totals[0], 4) == 0.8933

    def test_variant_and_include(self):
        catalog = load_catalog("edgehome", variant="minimal",
                               include=["set_alarm", "turn_on_light"])
        assert catalog.names == ["turn_on_light", "set_alarm"]  # registration order
        assert catalog.variant == "minimal"

    def test_register_catalog_plugin_and_suite_retooling(self):
        from repro.suites import load_suite

        @register_catalog("edgehome-mini")
        def _build():
            return load_catalog("edgehome")  # same pool under a new name

        try:
            assert "edgehome-mini" in CATALOGS
            suite = load_suite("edgehome", n_queries=2,
                               catalog=load_catalog("edgehome-mini"))
            assert suite.catalog.name == "edgehome"
        finally:
            CATALOGS.unregister("edgehome-mini")

    def test_builder_must_return_catalog(self):
        CATALOGS.register("broken-catalog", lambda: "oops")
        try:
            with pytest.raises(TypeError, match="expected ToolCatalog"):
                load_catalog("broken-catalog")
        finally:
            CATALOGS.unregister("broken-catalog")


# ----------------------------------------------------------------------
# property-based round trips (hypothesis, skipped cleanly when absent)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

names = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)
texts = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "Zs")),
    min_size=1, max_size=80).map(lambda s: s.strip() or "x")


@st.composite
def tool_parameters(draw):
    ptype = draw(st.sampled_from(["string", "integer", "number", "boolean",
                                  "array"]))
    enum = None
    if ptype == "string" and draw(st.booleans()):
        enum = tuple(draw(st.lists(names, min_size=1, max_size=3, unique=True)))
    return P(name=draw(names), type=ptype, description=draw(texts),
             required=draw(st.booleans()), enum=enum,
             item_type=draw(st.sampled_from(["string", "number", "array"])))


@st.composite
def tool_specs(draw):
    parameters = draw(st.lists(tool_parameters(), max_size=4,
                               unique_by=lambda p: p.name))
    return T(name=draw(names), description=draw(texts),
             parameters=tuple(parameters),
             category=draw(names),
             compressed_description=draw(st.none() | texts),
             minimal_description=draw(st.none() | texts))


@st.composite
def tool_catalogs(draw):
    tools = draw(st.lists(tool_specs(), max_size=6,
                          unique_by=lambda t: t.name))
    return ToolCatalog(name=draw(names), tools=tuple(tools))


class TestPropertyRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(spec=tool_specs())
    def test_tool_spec_round_trips(self, spec):
        assert spec_from_dict(spec.to_dict()) == spec
        assert spec_from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    @settings(max_examples=40, deadline=None)
    @given(catalog=tool_catalogs(),
           variant=st.sampled_from(["full", "compressed", "minimal"]))
    def test_catalog_round_trips_across_variants(self, catalog, variant):
        original = catalog.at(variant)
        assert catalog_from_dict(original.to_dict()) == original
        decoded = catalog_from_dict(json.loads(json.dumps(original.to_dict())))
        assert decoded == original
        assert decoded.version == original.version
        assert pickle.loads(pickle.dumps(original)) == original

    @settings(max_examples=40, deadline=None)
    @given(catalog=tool_catalogs(), data=st.data())
    def test_subset_preserves_order_property(self, catalog, data):
        if not len(catalog):
            return
        picked = data.draw(st.lists(st.sampled_from(catalog.names),
                                    min_size=1, unique=True))
        subset = catalog.subset(picked)
        order = {name: position for position, name in enumerate(catalog.names)}
        assert subset.names == sorted(set(picked), key=order.__getitem__)
