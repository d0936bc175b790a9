"""Model and quantization registries.

The six models and four Ollama quantization variants evaluated in the
paper (Section IV).  Skill scalars are behavioural calibration constants,
anchored on the paper's reported numbers:

* Table I fixes the quantization ladder for Llama3.1-8b on both suites —
  including the *non-monotone* GeoEngine ordering (q4_1 > q4_K_M > q8_0),
  which we model as ``long_context_retention``: the larger q8_0 footprint
  pressures the 16K KV budget on the 32 GB board and hurts long
  sequential chains before it helps single-call precision.
* Figures 2/3 fix the per-model levels (e.g. Hermes2's strong
  function-calling fine-tune, Llama3.1's weak argument formatting,
  Mistral's weak compressed reasoning, Phi3/Qwen2-1.5b collapsing on
  sequential GeoEngine chains).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.specs import MODEL_NAMES, QUANT_NAMES


@dataclass(frozen=True)
class QuantSpec:
    """One precision variant of a deployed checkpoint.

    Attributes
    ----------
    bits_per_weight:
        Effective GGUF bits per weight (drives memory/bandwidth costs).
    reasoning_retention:
        Fraction of the full-precision model's selection/reasoning skill
        retained at this precision.
    format_stability:
        Retention of structured-output (JSON argument) discipline.
    long_context_retention:
        Retention of multi-step/long-context coherence; deliberately not
        monotone in bits (see module docstring).
    """

    name: str
    bits_per_weight: float
    reasoning_retention: float
    format_stability: float
    long_context_retention: float


#: the QuantSpec fields after ``name``, per :data:`repro.specs.QUANT_NAMES`
_QUANT_PROFILES = {
    "full": (16.0, 1.00, 1.00, 1.00),
    "q8_0": (8.5, 0.90, 0.95, 0.84),
    "q4_K_M": (4.85, 0.85, 0.92, 0.92),
    "q4_1": (5.0, 0.81, 0.93, 0.96),
    "q4_0": (4.5, 0.71, 0.82, 0.80),
}
QUANT_REGISTRY = {name: QuantSpec(name, *_QUANT_PROFILES[name]) for name in QUANT_NAMES}


@dataclass(frozen=True)
class ModelSpec:
    """Behavioural profile of one base model.

    Attributes
    ----------
    params_b:
        Parameter count in billions (drives hardware costs).
    fc_skill:
        Tool-selection competence in [0, 1].
    arg_skill:
        Argument-formatting competence in [0, 1].
    reasoning:
        Recommender-quality scalar: how faithfully the model can describe
        the tools it needs when given none.
    seq_skill:
        Multi-step chain competence (GeoEngine-style tasks).
    verbosity:
        How much the model rambles when confused (drives decode tokens).
    """

    name: str
    params_b: float
    fc_skill: float
    arg_skill: float
    reasoning: float
    seq_skill: float
    verbosity: float


#: the ModelSpec fields after ``name``, per :data:`repro.specs.MODEL_NAMES`
_MODEL_PROFILES = {
    # advanced LLaMA variant optimized for function calling
    "hermes2-pro-8b": (8.0, 0.82, 0.80, 0.82, 0.68, 0.7),
    # state-of-the-art, strong selection but weak argument formatting
    "llama3.1-8b": (8.0, 0.74, 0.68, 0.80, 0.76, 0.8),
    # decent native selection but weak compressed reasoning; paper:
    # Gorilla worst, LiS no success/accuracy gain (only time/power)
    "mistral-8b": (7.2, 0.70, 0.70, 0.30, 0.52, 1.0),
    # task-specialised; collapses on sequential chains (excluded in Fig. 3)
    "phi3-8b": (7.6, 0.66, 0.72, 0.70, 0.16, 0.9),
    # small edge model
    "qwen2-1.5b": (1.5, 0.48, 0.58, 0.55, 0.26, 1.2),
    # larger sibling
    "qwen2-7b": (7.6, 0.76, 0.78, 0.78, 0.34, 0.8),
}
MODEL_REGISTRY = {name: ModelSpec(name, *_MODEL_PROFILES[name]) for name in MODEL_NAMES}


def get_model_spec(name: str) -> ModelSpec:
    """Look up a model profile by (case-insensitive) name."""
    try:
        return MODEL_REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {sorted(MODEL_REGISTRY)}"
        ) from None


def get_quant_spec(name: str) -> QuantSpec:
    """Look up a quantization variant by name (case-sensitive GGUF names)."""
    try:
        return QUANT_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown quantization {name!r}; choose from {sorted(QUANT_REGISTRY)}"
        ) from None
