"""Probability models behind the simulated LLM.

Every behavioural effect the paper measures is produced by the small set
of mechanisms in this module:

* **tool-space confusion** — the log-odds of selecting the gold tool
  fall with ``ln(1 + n_tools)``, with the semantic closeness of the
  distractors to the query, and with context pressure; they rise with
  the model's effective skill (base skill x quantization retention).
  This is the paper's core insight ("selectively reducing the number of
  tools ... significantly improves function-calling performance").
* **argument-formatting errors** — an independent channel whose rate
  grows with parameter count and context pressure; it separates Tool
  Accuracy from Success Rate.
* **sequential decay** — chained calls (GeoEngine) lose skill per step,
  scaled by the model's ``seq_skill`` and the quantization variant's
  long-context retention.
* **verbosity** — confused models emit more tokens, which the hardware
  model converts into time and energy.

Constants are grouped in :class:`BehaviorCalibration`; the defaults were
fitted against the paper's Tables I/II and the Figure 2/3 narratives
(see EXPERIMENTS.md for paper-vs-measured values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.llm.registry import ModelSpec, QuantSpec


@dataclass(frozen=True)
class BehaviorCalibration:
    """Tunable constants of the behaviour model (defaults = paper fit)."""

    # tool selection ---------------------------------------------------
    select_base: float = -0.25
    select_skill_gain: float = 8.3
    confusion_coef: float = 1.36
    distractor_coef: float = 2.1
    pressure_coef: float = 1.1
    #: context pressure only hurts once the prompt approaches the window
    #: (paper: growing the window beyond 16K does not help accuracy)
    pressure_knee: float = 0.45
    #: how strongly the query's semantic match to the gold tool guides
    #: selection (benchmark queries name their task domain)
    gold_similarity_gain: float = 2.6
    #: chained steps are guided by the previous call's result (the next
    #: tool is strongly implied), offsetting part of the sequential decay
    history_guidance: float = 3.4
    # sequential decay ---------------------------------------------------
    seq_step_coef: float = 0.60
    # argument formatting --------------------------------------------------
    arg_base_penalty: float = 0.28
    arg_per_param_penalty: float = 0.18
    arg_pressure_penalty: float = 0.40
    #: schema confusion: similar presented tools have similar-but-wrong
    #: parameter names, so argument fidelity drops when the presented
    #: set is semantically tight (retrieved sets are)
    arg_distractor_penalty: float = 0.75
    # recommender ---------------------------------------------------------
    recommender_miss_base: float = 0.12
    recommender_spurious_base: float = 0.22
    recommender_noise_base: float = 0.85
    #: probability of fusing adjacent multi-tool needs into one blended
    #: description (higher for workflow-style sequential tasks)
    recommender_merge_p: float = 0.5
    recommender_merge_p_sequential: float = 0.75
    # error signalling ------------------------------------------------------
    error_signal_base: float = 0.06
    # decode verbosity ---------------------------------------------------
    decode_base_tokens: float = 26.0
    decode_tokens_per_arg: float = 7.0
    decode_confusion_tokens: float = 80.0


DEFAULT_CALIBRATION = BehaviorCalibration()


def effective_skill(model: ModelSpec, quant: QuantSpec,
                    sequential: bool = False) -> float:
    """Tool-selection skill after quantization.

    Single-call selection tracks the variant's reasoning retention.  On
    sequential chains the binding constraint shifts to *long-context
    coherence* (keeping the workflow state straight across turns), which
    is not monotone in bits — this is how the paper's Table I GeoEngine
    ordering (q4_1 > q4_K_M > q8_0 > q4_0) arises.
    """
    if sequential:
        retention = (0.25 * quant.reasoning_retention
                     + 0.75 * quant.long_context_retention)
    else:
        retention = quant.reasoning_retention
    return model.fc_skill * retention


def sequential_retention(model: ModelSpec, quant: QuantSpec, step_index: int,
                         calibration: BehaviorCalibration = DEFAULT_CALIBRATION) -> float:
    """Logit penalty applied at chain step ``step_index`` (0 = free)."""
    if step_index <= 0:
        return 0.0
    chain_quality = model.seq_skill * quant.long_context_retention
    return calibration.seq_step_coef * step_index * (1.0 - chain_quality)


def selection_logit(
    model: ModelSpec,
    quant: QuantSpec,
    n_tools: int,
    distractor_similarity: float,
    pressure: float,
    gold_similarity: float = 0.0,
    step_index: int = 0,
    sequential: bool = False,
    skill_multiplier: float = 1.0,
    calibration: BehaviorCalibration = DEFAULT_CALIBRATION,
) -> float:
    """Log-odds that the gold tool wins the selection competition.

    ``gold_similarity`` is the semantic match between the live task
    context and the gold tool's description.  ``sequential`` chains get
    structural guidance at every step (copilot workflows are strongly
    conventionalised: load, filter, analyse, render), while
    ``step_index`` drives the per-step retention decay.
    """
    if n_tools < 1:
        raise ValueError("n_tools must be >= 1")
    skill = effective_skill(model, quant, sequential=sequential) * skill_multiplier
    guidance = calibration.gold_similarity_gain * max(0.0, gold_similarity)
    if sequential:
        # exploiting the previous result is itself a chain skill: models
        # that lose the workflow thread (Phi3, Qwen2-1.5b in Fig. 3)
        # extract far less guidance from the conversation history
        guidance += calibration.history_guidance * (0.5 + 0.5 * model.seq_skill)
    pressure_excess = max(0.0, pressure - calibration.pressure_knee)
    return (
        calibration.select_base
        + calibration.select_skill_gain * skill
        + guidance
        - calibration.confusion_coef * math.log1p(n_tools)
        - calibration.distractor_coef * max(0.0, distractor_similarity)
        - calibration.pressure_coef * pressure_excess
        - sequential_retention(model, quant, step_index, calibration)
    )


def sigmoid(x: float) -> float:
    """Numerically safe logistic function."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def argument_success_probability(
    model: ModelSpec,
    quant: QuantSpec,
    n_required_params: int,
    pressure: float,
    distractor_similarity: float = 0.0,
    skill_multiplier: float = 1.0,
    calibration: BehaviorCalibration = DEFAULT_CALIBRATION,
) -> float:
    """P(well-formed arguments | correct tool chosen).

    ``distractor_similarity`` models *schema confusion*: when the
    presented tools are semantically tight (as retrieved subsets are),
    their parameter schemas are similar-but-different and models leak
    fields across them.  This is what separates Llama3.1's very high
    retrieved-tool accuracy from its much lower success rate (Fig. 2).
    """
    arg_quality = model.arg_skill * quant.format_stability * skill_multiplier
    difficulty = (
        calibration.arg_base_penalty
        + calibration.arg_per_param_penalty * n_required_params
        + calibration.arg_pressure_penalty * pressure
        + calibration.arg_distractor_penalty * max(0.0, distractor_similarity)
    )
    probability = 1.0 - (1.0 - arg_quality) * difficulty
    return min(max(probability, 0.02), 0.995)


def error_signal_probability(
    model: ModelSpec,
    quant: QuantSpec,
    pressure: float,
    calibration: BehaviorCalibration = DEFAULT_CALIBRATION,
) -> float:
    """P(the model gives up and signals failure instead of calling)."""
    skill = effective_skill(model, quant)
    probability = (calibration.error_signal_base * (1.0 - skill)
                   * (1.0 + 2.0 * pressure))
    return min(max(probability, 0.0), 0.35)


def completion_tokens(
    model: ModelSpec,
    quant: QuantSpec,
    n_tools: int,
    n_args: int,
    rng: np.random.Generator,
    calibration: BehaviorCalibration = DEFAULT_CALIBRATION,
) -> int:
    """Decode length of one function-calling turn.

    Confused models ramble: the confusion term grows with the presented
    tool count and shrinks with effective skill — the paper's "fewer
    options enables the LLM to make ... faster decisions".
    """
    skill = effective_skill(model, quant)
    confusion = (
        calibration.decode_confusion_tokens
        * model.verbosity
        * (1.0 - skill)
        * math.log1p(n_tools) / math.log1p(50)
    )
    base = calibration.decode_base_tokens + calibration.decode_tokens_per_arg * n_args
    jitter = float(rng.uniform(0.85, 1.15))
    return max(8, int(round((base + confusion) * jitter)))


def recommender_quality(model: ModelSpec, quant: QuantSpec) -> float:
    """How faithfully the model describes its ideal tools in [0, 1]."""
    return model.reasoning * quant.reasoning_retention
