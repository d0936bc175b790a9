"""Tool schema objects (OpenAI function-calling style)."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any

#: JSON-schema-ish parameter types supported by the catalogs.
PARAMETER_TYPES = ("string", "integer", "number", "boolean", "array")

#: Description variants a catalog can present (paper Section III: fewer
#: tools *and* shorter descriptions fit the edge context budget).
DESCRIPTION_VARIANTS = ("full", "compressed", "minimal")

_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s")
_TRAILING_EXAMPLE = re.compile(r",\s*(?:like|such as|e\.g\.)\s[^.]*", re.IGNORECASE)


def derive_description(text: str, variant: str) -> str:
    """Deterministically shrink a full description to a variant.

    ``compressed`` keeps the first sentence and drops trailing example
    clauses (", like Fall 2009"); ``minimal`` keeps the first six words.
    Both are pure functions of the input text, so a catalog rebuilt from
    the same specs always produces the same variant corpus (and the same
    content hash).  Explicit per-tool overrides on :class:`ToolSpec`
    take precedence over this derivation.
    """
    if variant == "full":
        return text
    if variant not in DESCRIPTION_VARIANTS:
        raise ValueError(
            f"unknown description variant {variant!r}; "
            f"expected one of {', '.join(DESCRIPTION_VARIANTS)}")
    match = _SENTENCE_BREAK.search(text)
    sentence = text[:match.start()] if match else text
    compressed = _TRAILING_EXAMPLE.sub("", sentence).strip()
    if compressed and compressed[-1] not in ".!?":
        compressed += "."
    if variant == "compressed":
        return compressed or text
    words = compressed.split()[:6]
    minimal = " ".join(words).rstrip(".,;:!?")
    return minimal or compressed or text


@dataclass(frozen=True)
class ToolParameter:
    """One named parameter of a tool.

    ``enum`` restricts string parameters to a closed set; ``item_type``
    gives the element type for ``array`` parameters.
    """

    name: str
    type: str
    description: str = ""
    required: bool = True
    enum: tuple[str, ...] | None = None
    item_type: str = "string"

    def __post_init__(self):
        if self.type not in PARAMETER_TYPES:
            raise ValueError(f"parameter {self.name!r}: unknown type {self.type!r}")
        if self.enum is not None and self.type != "string":
            raise ValueError(f"parameter {self.name!r}: enum requires type 'string'")

    def accepts(self, value: Any) -> bool:
        """Whether ``value`` satisfies this parameter's type constraint.

        Array values must be ``list``s, as decoded JSON arrays are.
        Tuples are rejected on purpose: Python-side coercion turns a
        string into a tuple of its characters (``tuple("abc")``), which
        used to slip through array-of-string checks, and the same
        coercion produced fake matrix rows for ``item_type="array"``.
        """
        if self.type == "string":
            if not isinstance(value, str):
                return False
            return self.enum is None or value in self.enum
        if self.type == "integer":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.type == "number":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self.type == "boolean":
            return isinstance(value, bool)
        # array
        if not isinstance(value, list):
            return False
        if self.item_type == "array":
            # one level of nesting is enough for the catalogs (matrix rows);
            # inner element types are not constrained further, but a row
            # must itself be a real JSON array, never a string-as-sequence
            return all(isinstance(item, list) for item in value)
        element = ToolParameter(name=f"{self.name}[]", type=self.item_type)
        return all(element.accepts(item) for item in value)

    def to_json_schema(self) -> dict[str, Any]:
        """Render the parameter as a JSON-schema property."""
        schema: dict[str, Any] = {"type": self.type, "description": self.description}
        if self.enum is not None:
            schema["enum"] = list(self.enum)
        if self.type == "array":
            schema["items"] = {"type": self.item_type}
        return schema

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (what a catalog's content hash covers)."""
        return {
            "name": self.name,
            "type": self.type,
            "description": self.description,
            "required": self.required,
            "enum": list(self.enum) if self.enum is not None else None,
            "item_type": self.item_type,
        }


@dataclass(frozen=True)
class ValidationIssue:
    """A single argument-validation failure."""

    parameter: str
    reason: str

    def __str__(self) -> str:
        return f"{self.parameter}: {self.reason}"


@dataclass(frozen=True)
class ToolSpec:
    """A callable API tool: name, natural-language description, parameters.

    ``compressed_description`` / ``minimal_description`` are optional
    authored overrides for the catalog description variants; when left
    ``None`` the variant text is derived deterministically from the full
    description (:func:`derive_description`).
    """

    name: str
    description: str
    parameters: tuple[ToolParameter, ...] = ()
    category: str = "general"
    returns: str = "result payload"
    compressed_description: str | None = None
    minimal_description: str | None = None

    def __post_init__(self):
        names = [parameter.name for parameter in self.parameters]
        if len(names) != len(set(names)):
            raise ValueError(f"tool {self.name!r}: duplicate parameter names")

    def __hash__(self) -> int:
        """Field-wise hash, computed once per (frozen) spec.

        Prompt layout is memoized on ``tuple[ToolSpec, ...]`` keys, which
        hashes every presented spec — nested parameters included — on
        every LLM turn.  Memoized like :meth:`json_text`; string hashes
        are salted per process, so the cached value never leaves one
        (:meth:`__getstate__`).
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.name, self.description, self.parameters,
                           self.category, self.returns,
                           self.compressed_description,
                           self.minimal_description))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    @property
    def required_parameters(self) -> tuple[ToolParameter, ...]:
        return tuple(parameter for parameter in self.parameters if parameter.required)

    def parameter(self, name: str) -> ToolParameter | None:
        """Return the parameter called ``name`` (None when absent)."""
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        return None

    def validate_arguments(self, arguments: dict[str, Any]) -> list[ValidationIssue]:
        """Validate a call's arguments; empty list means the call is well-formed."""
        issues: list[ValidationIssue] = []
        for parameter in self.required_parameters:
            if parameter.name not in arguments:
                issues.append(ValidationIssue(parameter.name, "missing required argument"))
        for name, value in arguments.items():
            parameter = self.parameter(name)
            if parameter is None:
                issues.append(ValidationIssue(name, "unexpected argument"))
            elif not parameter.accepts(value):
                issues.append(ValidationIssue(
                    name, f"expected {parameter.type}, got {type(value).__name__}"
                ))
        return issues

    def describe(self, variant: str = "full") -> str:
        """The description presented under ``variant``.

        Authored overrides win; otherwise the text is derived from the
        full description.
        """
        if variant == "compressed" and self.compressed_description is not None:
            return self.compressed_description
        if variant == "minimal" and self.minimal_description is not None:
            return self.minimal_description
        return derive_description(self.description, variant)

    def at_variant(self, variant: str) -> "ToolSpec":
        """This tool as presented under ``variant``.

        ``full`` returns ``self`` unchanged (same object, so memoized
        JSON/token caches keep working — the bitwise-identity guarantee
        of the default path).  Both shrunken variants drop parameter
        descriptions (argument names and types stay, and validation is
        unchanged); ``compressed`` keeps the description's retrieval-
        bearing first sentence while ``minimal`` truncates it to a terse
        label.  Every step strictly reduces the tool's prompt cost.
        """
        if variant == "full":
            return self
        parameters = tuple(
            ToolParameter(name=p.name, type=p.type, description="",
                          required=p.required, enum=p.enum,
                          item_type=p.item_type)
            for p in self.parameters)
        return ToolSpec(
            name=self.name, description=self.describe(variant),
            parameters=parameters,
            category=self.category, returns=self.returns,
            compressed_description=self.compressed_description,
            minimal_description=self.minimal_description,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (what a catalog's content hash covers)."""
        return {
            "name": self.name,
            "description": self.description,
            "parameters": [parameter.to_dict() for parameter in self.parameters],
            "category": self.category,
            "returns": self.returns,
            "compressed_description": self.compressed_description,
            "minimal_description": self.minimal_description,
        }

    def to_json_schema(self) -> dict[str, Any]:
        """OpenAI-style function schema (what gets appended to prompts)."""
        return {
            "type": "function",
            "function": {
                "name": self.name,
                "description": self.description,
                "parameters": {
                    "type": "object",
                    "properties": {
                        parameter.name: parameter.to_json_schema()
                        for parameter in self.parameters
                    },
                    "required": [parameter.name for parameter in self.required_parameters],
                },
            },
        }

    def json_text(self) -> str:
        """The JSON string form included in the LLM prompt.

        Memoized on the (frozen) instance: the schema is serialized for
        every presented tool on every LLM turn, which makes this one of
        the hottest strings in a serving workload.
        """
        cached = self.__dict__.get("_json_text")
        if cached is None:
            cached = json.dumps(self.to_json_schema(), separators=(",", ":"))
            object.__setattr__(self, "_json_text", cached)
        return cached


@dataclass(frozen=True)
class ToolCall:
    """A concrete invocation: tool name plus JSON-compatible arguments."""

    tool: str
    arguments: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        # dataclass is frozen but the dict is shared; freeze a private copy
        object.__setattr__(self, "arguments", dict(self.arguments))

    def to_json(self) -> str:
        # memoized: the executor serializes the call several times per
        # execution (RNG stream naming + result fabrication)
        cached = self.__dict__.get("_to_json")
        if cached is None:
            cached = json.dumps({"name": self.tool, "arguments": self.arguments},
                                separators=(",", ":"), sort_keys=True)
            object.__setattr__(self, "_to_json", cached)
        return cached
