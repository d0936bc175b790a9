"""Tests for repro.tools.schema."""

import dataclasses
import json
import pickle

import pytest

from repro.tools.schema import ToolCall, ToolParameter, ToolSpec


@pytest.fixture
def weather_tool():
    return ToolSpec(
        name="get_weather",
        description="Get the weather for a city.",
        parameters=(
            ToolParameter("city", "string", "City name."),
            ToolParameter("days", "integer", "Days ahead.", required=False),
            ToolParameter("units", "string", "Unit system.", required=False,
                          enum=("metric", "imperial")),
        ),
        category="weather",
    )


class TestToolParameter:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            ToolParameter("x", "object")

    def test_enum_requires_string(self):
        with pytest.raises(ValueError):
            ToolParameter("x", "integer", enum=("a",))

    @pytest.mark.parametrize("ptype,good,bad", [
        ("string", "hi", 3),
        ("integer", 4, 4.5),
        ("number", 4.5, "4.5"),
        ("boolean", True, 1),
    ])
    def test_accepts_scalar_types(self, ptype, good, bad):
        parameter = ToolParameter("x", ptype)
        assert parameter.accepts(good)
        assert not parameter.accepts(bad)

    def test_boolean_is_not_integer(self):
        assert not ToolParameter("x", "integer").accepts(True)

    def test_integer_is_a_number(self):
        assert ToolParameter("x", "number").accepts(3)

    def test_enum_membership(self):
        parameter = ToolParameter("x", "string", enum=("a", "b"))
        assert parameter.accepts("a")
        assert not parameter.accepts("c")

    def test_array_item_types(self):
        parameter = ToolParameter("xs", "array", item_type="number")
        assert parameter.accepts([1, 2.5])
        assert not parameter.accepts([1, "two"])
        assert not parameter.accepts("not a list")

    def test_nested_array(self):
        parameter = ToolParameter("m", "array", item_type="array")
        assert parameter.accepts([[1.0], [2.0]])

    def test_array_rejects_strings_as_sequences(self):
        """Regression: tuple coercion turned strings into fake arrays.

        ``tuple("abc")`` is ``('a', 'b', 'c')`` — it used to satisfy
        array-of-string checks, and a coerced row satisfied the
        one-level ``item_type="array"`` nesting check.  JSON arrays
        decode to lists, so only lists count as arrays now.
        """
        arr_of_str = ToolParameter("xs", "array", item_type="string")
        assert not arr_of_str.accepts("abc")
        assert not arr_of_str.accepts(tuple("abc"))
        assert not arr_of_str.accepts(("a", "b"))
        assert arr_of_str.accepts(["a", "b"])

        matrix = ToolParameter("m", "array", item_type="array")
        assert not matrix.accepts("abc")
        assert not matrix.accepts(["abc"])          # row is a string
        assert not matrix.accepts([tuple("ab")])    # row is a coerced string
        assert not matrix.accepts((["a"],))         # outer tuple
        assert matrix.accepts([["ab", "cd"]])       # list rows stay fine

    def test_json_schema_shape(self):
        schema = ToolParameter("xs", "array", "numbers", item_type="number").to_json_schema()
        assert schema["type"] == "array"
        assert schema["items"] == {"type": "number"}


class TestToolSpec:
    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError):
            ToolSpec("t", "d", (ToolParameter("a", "string"), ToolParameter("a", "string")))

    def test_required_parameters(self, weather_tool):
        assert [p.name for p in weather_tool.required_parameters] == ["city"]

    def test_parameter_lookup(self, weather_tool):
        assert weather_tool.parameter("days").type == "integer"
        assert weather_tool.parameter("nope") is None

    def test_validate_ok(self, weather_tool):
        assert weather_tool.validate_arguments({"city": "Paris"}) == []

    def test_validate_missing_required(self, weather_tool):
        issues = weather_tool.validate_arguments({})
        assert any("missing" in issue.reason for issue in issues)

    def test_validate_unexpected(self, weather_tool):
        issues = weather_tool.validate_arguments({"city": "Paris", "zipcode": "75"})
        assert any(issue.parameter == "zipcode" for issue in issues)

    def test_validate_wrong_type(self, weather_tool):
        issues = weather_tool.validate_arguments({"city": 42})
        assert any("expected string" in issue.reason for issue in issues)

    def test_validate_bad_enum(self, weather_tool):
        issues = weather_tool.validate_arguments({"city": "Paris", "units": "kelvin"})
        assert len(issues) == 1

    def test_json_schema_round_trips(self, weather_tool):
        parsed = json.loads(weather_tool.json_text())
        assert parsed["function"]["name"] == "get_weather"
        assert parsed["function"]["parameters"]["required"] == ["city"]

    def test_issue_str(self, weather_tool):
        issue = weather_tool.validate_arguments({})[0]
        assert "city" in str(issue)


class TestDescriptionVariants:
    def test_describe_full_is_identity(self, weather_tool):
        assert weather_tool.describe("full") == weather_tool.description
        assert weather_tool.describe() == weather_tool.description

    def test_derive_description_first_sentence(self):
        spec = ToolSpec("t", "Get the weather. Includes wind and humidity.")
        assert spec.describe("compressed") == "Get the weather."

    def test_derive_description_drops_trailing_example(self):
        spec = ToolSpec(
            "t", "Filter scenes acquired during a season, like Fall 2009.")
        assert spec.describe("compressed") == \
            "Filter scenes acquired during a season."

    def test_derive_minimal_truncates(self):
        spec = ToolSpec(
            "t", "Compute the monthly payment of an amortized loan from "
                 "principal, rate and term.")
        assert spec.describe("minimal") == "Compute the monthly payment of an"

    def test_authored_overrides_win(self):
        spec = ToolSpec("t", "A long full description of the tool.",
                        compressed_description="Short form.",
                        minimal_description="Tiny")
        assert spec.describe("compressed") == "Short form."
        assert spec.describe("minimal") == "Tiny"

    def test_unknown_variant_rejected(self, weather_tool):
        with pytest.raises(ValueError, match="unknown description variant"):
            weather_tool.describe("huge")

    def test_at_variant_full_is_same_object(self, weather_tool):
        assert weather_tool.at_variant("full") is weather_tool

    def test_at_variant_shrinks_json(self, weather_tool):
        minimal = weather_tool.at_variant("minimal")
        assert minimal.name == weather_tool.name
        assert len(minimal.json_text()) < len(weather_tool.json_text())
        # parameter names/types/enums survive, only prose is dropped
        assert [p.name for p in minimal.parameters] == \
            [p.name for p in weather_tool.parameters]
        assert minimal.parameter("units").enum == ("metric", "imperial")
        assert minimal.parameter("city").description == ""

    def test_at_variant_validation_identical(self, weather_tool):
        for variant in ("compressed", "minimal"):
            shrunk = weather_tool.at_variant(variant)
            assert shrunk.validate_arguments({"city": "Paris"}) == []
            assert shrunk.validate_arguments({"city": 42}) != []


class TestDictRoundTrip:
    def test_parameter_round_trip(self):
        parameter = ToolParameter("units", "string", "Unit system.",
                                  required=False, enum=("metric", "imperial"))
        assert ToolParameter.from_dict(parameter.to_dict()) == parameter

    def test_spec_round_trip(self, weather_tool):
        decoded = ToolSpec.from_dict(weather_tool.to_dict())
        assert decoded == weather_tool
        assert decoded.json_text() == weather_tool.json_text()

    def test_spec_round_trip_is_json_safe(self, weather_tool):
        payload = json.dumps(weather_tool.to_dict())
        assert ToolSpec.from_dict(json.loads(payload)) == weather_tool


class TestSpecHash:
    """``ToolSpec.__hash__`` is memoized; equality and wire forms are not."""

    def test_equal_specs_hash_equal_and_differ_by_any_field(self, weather_tool):
        twin = ToolSpec.from_dict(weather_tool.to_dict())
        assert twin is not weather_tool
        assert hash(twin) == hash(weather_tool)
        assert len({weather_tool, twin}) == 1
        for change in ({"name": "other"}, {"description": "Other."},
                       {"parameters": weather_tool.parameters[:1]},
                       {"category": "x"}, {"returns": "y"},
                       {"minimal_description": "Weather"}):
            changed = dataclasses.replace(weather_tool, **change)
            assert changed != weather_tool
            assert hash(changed) != hash(weather_tool)

    def test_cached_hash_is_invisible_to_eq_dict_and_pickle(self, weather_tool):
        fresh = ToolSpec.from_dict(weather_tool.to_dict())
        before = weather_tool.to_dict()
        hash(weather_tool)
        assert "_hash" in vars(weather_tool)
        assert weather_tool == fresh              # fresh was never hashed
        assert weather_tool.to_dict() == before
        # str hashes are salted per process: the memo must not travel
        clone = pickle.loads(pickle.dumps(weather_tool))
        assert "_hash" not in vars(clone)
        assert clone == weather_tool and hash(clone) == hash(weather_tool)


class TestToolCall:
    def test_arguments_are_copied(self):
        arguments = {"a": 1}
        call = ToolCall("t", arguments)
        arguments["a"] = 2
        assert call.arguments["a"] == 1

    def test_matches_tool(self):
        assert ToolCall("t", {"a": 1}).matches_tool(ToolCall("t", {"b": 2}))
        assert not ToolCall("t").matches_tool(ToolCall("u"))

    def test_to_json_stable_ordering(self):
        a = ToolCall("t", {"b": 1, "a": 2}).to_json()
        b = ToolCall("t", {"a": 2, "b": 1}).to_json()
        assert a == b
