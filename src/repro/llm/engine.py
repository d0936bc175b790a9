"""The simulated LLM engine: recommender + function-calling turns."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.embedding.cache import CachedEmbedder, shared_embedder
from repro.embedding.lexicon import default_lexicon
from repro.embedding.tokenizer import Tokenizer, stem
from repro.llm import behavior
from repro.llm.behavior import DEFAULT_CALIBRATION, BehaviorCalibration
from repro.llm.registry import ModelSpec, QuantSpec, get_model_spec, get_quant_spec
from repro.llm.responses import AgentTurn, RecommenderOutput, TokenUsage
from repro.llm.tokens import (
    HISTORY_TOKENS_PER_STEP,
    RECOMMENDER_SYSTEM_TOKENS,
    context_pressure,
    estimate_tokens,
    plan_agent_prompt,
)
from repro.suites.base import Query
from repro.tools.schema import ToolCall, ToolSpec
from repro.utils.rng import DEFAULT_ROOT_SEED, derive_rng
from repro.utils.text import truncate_words

#: Wrong-typed stand-ins used when the model fumbles an argument.
_CORRUPTION_VALUES = {
    "string": 42,
    "integer": "forty-two",
    "number": "a lot",
    "boolean": "yes",
    "array": "not-a-list",
}

#: Type-correct placeholders used when the model calls the *wrong* tool
#: (the call is well-formed, just not the right API for the task).
_PLACEHOLDER_VALUES = {
    "string": "auto",
    "integer": 1,
    "number": 1.0,
    "boolean": True,
}

#: Generic filler words weak recommenders substitute for domain terms
#: ("a tool to process the data and return results") — these carry no
#: concept signal, so retrieval quality degrades with reasoning skill.
_GENERIC_WORDS = ("data", "information", "process", "handle", "task",
                  "result", "item", "request", "thing", "general")

#: Splits a description into the raw words the paraphraser rewrites.
_WORD_TOKENIZER = Tokenizer(remove_stopwords=False, apply_stem=False)

#: Entries kept by :meth:`SimulatedLLM._similarities`.  An episode uses
#: one to three presented sets and a gateway runs at most a few dozen
#: episodes at once, so this covers every live episode with room for
#: repeated queries; at ~3 KB an entry the memo stays under 1 MB.
_SIMILARITY_MEMO_ENTRIES = 256


class PresentedView(np.ndarray):
    """One query's similarity to each presented tool — the read-only
    vector :meth:`SimulatedLLM._similarities` answers with, hence a
    subclass — plus what a turn reads off it, as plain Python values.
    Only :meth:`of` fills them in: a slice or a copy carries ``None``.
    """

    values: tuple[float, ...] | None = None   #: the vector as floats, per row
    names: tuple[str, ...] | None = None      #: presented tool names, per row
    order: tuple[int, ...] | None = None      #: rows by descending similarity
    first_row: dict[str, int] | None = None   #: first row carrying each name

    @classmethod
    def of(cls, sims: np.ndarray, names: tuple[str, ...]) -> "PresentedView":
        sims.flags.writeable = False
        view = sims.view(cls)
        view.values = tuple(sims.tolist())
        view.names = names
        view.order = tuple(sorted(range(len(names)), reverse=True,
                                  key=view.values.__getitem__))
        view.first_row = {names[row]: row for row in reversed(range(len(names)))}
        return view

    def distractor_similarity(self, gold: str) -> tuple[float, bool]:
        """Mean of the (up to) three highest similarities among rows not
        named ``gold``, and whether there is such a row.  Added left to
        right, bit for bit ``np.mean(np.sort(x)[::-1][:3])``; ``sum()``
        is compensated from Python 3.12 on and differs in the last ulp.
        """
        names, values = self.names, self.values
        total, count = 0.0, 0
        for row in self.order:
            if names[row] != gold:
                total = total + values[row] if count else values[row]
                count += 1
                if count == 3:
                    break
        return (total / count, True) if count else (0.0, False)


@dataclass
class SimulatedLLM:
    """Behavioural simulator of one (model, quantization) deployment."""

    model: ModelSpec
    quant: QuantSpec
    embedder: CachedEmbedder = field(default_factory=shared_embedder)
    calibration: BehaviorCalibration = DEFAULT_CALIBRATION
    root_seed: int = DEFAULT_ROOT_SEED
    #: (projection generation, query text, presented names, presented
    #: descriptions) -> :class:`PresentedView`; see :meth:`_similarities`
    _similarity_memo: dict = field(default_factory=dict, init=False,
                                   repr=False, compare=False)
    _similarity_lock: threading.Lock = field(default_factory=threading.Lock,
                                             init=False, repr=False,
                                             compare=False)

    @classmethod
    def from_registry(cls, model: str, quant: str = "q4_K_M", **kwargs) -> "SimulatedLLM":
        """Build from registry names, e.g. ``("llama3.1-8b", "q4_K_M")``."""
        return cls(model=get_model_spec(model), quant=get_quant_spec(quant), **kwargs)

    @property
    def name(self) -> str:
        return f"{self.model.name}-{self.quant.name}"

    # ------------------------------------------------------------------
    # RNG plumbing
    # ------------------------------------------------------------------
    def _rng(self, *parts) -> np.random.Generator:
        return derive_rng("llm", self.model.name, self.quant.name, *parts,
                          root_seed=self.root_seed)

    # ------------------------------------------------------------------
    # Tool Recommender (paper Section III-B)
    # ------------------------------------------------------------------
    def recommend_tools(self, query: Query, catalog=None,
                        corpus_descriptions: list[str] | None = None) -> RecommenderOutput:
        """Describe the "ideal tools" for ``query`` without seeing any tools.

        The simulator grounds the output in the query's gold tools — the
        model "understands" the task to the extent its reasoning skill
        allows — then corrupts it: paraphrase noise, dropped tools (weak
        planners under-enumerate chains) and spurious extras.  ``catalog``
        (a :class:`~repro.tools.ToolCatalog`) supplies the reference tool
        descriptions; without it, descriptions are derived from tool names.
        """
        rng = self._rng(query.qid, "recommend")
        quality = behavior.recommender_quality(self.model, self.quant)
        gold_descriptions = self._gold_descriptions(query, catalog)
        merge_p = (self.calibration.recommender_merge_p_sequential
                   if query.sequential else self.calibration.recommender_merge_p)
        gold_descriptions = self._merge_related_needs(gold_descriptions, rng, merge_p)

        descriptions: list[str] = []
        for index, text in enumerate(gold_descriptions):
            miss_p = (self.calibration.recommender_miss_base
                      * (1.0 - quality) * (1.0 + 0.35 * index))
            if index > 0 and rng.random() < miss_p:
                continue
            noise = self.calibration.recommender_noise_base * (1.0 - quality)
            # genericisation collapses quadratically with reasoning skill:
            # strong reasoners keep domain terms, weak ones write filler
            generic_p = 0.55 * (1.0 - quality) ** 2
            # recommenders write short functional blurbs, not documentation
            descriptions.append(truncate_words(
                self._paraphrase(text, noise, rng, generic_p=generic_p), 18))
        if not descriptions:
            # even the weakest model emits *something* for the first need
            descriptions.append(self._paraphrase(gold_descriptions[0], 0.9, rng))

        spurious_p = self.calibration.recommender_spurious_base * (1.0 - quality)
        if corpus_descriptions and rng.random() < spurious_p:
            extra = corpus_descriptions[int(rng.integers(len(corpus_descriptions)))]
            descriptions.append(self._paraphrase(extra, 0.5, rng))

        completion = sum(estimate_tokens(text) + 12 for text in descriptions)
        usage = TokenUsage(
            prompt_tokens=RECOMMENDER_SYSTEM_TOKENS + estimate_tokens(query.text),
            completion_tokens=completion,
        )
        return RecommenderOutput(descriptions=tuple(descriptions), usage=usage)

    def _merge_related_needs(self, descriptions: list[str],
                             rng: np.random.Generator,
                             merge_p: float = 0.6) -> list[str]:
        """Blend adjacent needs of a multi-tool task into joint descriptions.

        LLMs asked to enumerate the tools for a workflow routinely fuse
        consecutive steps into one sentence ("a tool that loads the
        archive and filters scenes by region").  These blended
        descriptions are exactly what makes complex tasks match tool
        *clusters* better than individual tools (paper Section III-C:
        "recommendations involving multiple tools are more likely to
        match a tool cluster").
        """
        if len(descriptions) < 2:
            return descriptions
        merged: list[str] = []
        index = 0
        while index < len(descriptions):
            text = descriptions[index]
            if index + 1 < len(descriptions) and rng.random() < merge_p:
                follower = truncate_words(descriptions[index + 1].rstrip("."), 9)
                text = f"{text.rstrip('.')} and {follower.lower()}."
                index += 1
            merged.append(text)
            index += 1
        return merged

    def _gold_descriptions(self, query: Query, catalog=None) -> list[str]:
        """Reference "ideal tool" texts: one per distinct gold tool."""
        texts: list[str] = []
        seen: set[str] = set()
        for call in query.gold_calls:
            if call.tool in seen:
                continue
            seen.add(call.tool)
            if catalog is not None and call.tool in catalog:
                texts.append(catalog.get(call.tool).description)
            else:
                # fall back to a name-derived description
                texts.append(f"A tool to {call.tool.replace('_', ' ')}.")
        return texts

    # ------------------------------------------------------------------
    # Function-calling turn (agent)
    # ------------------------------------------------------------------
    def execute_step(
        self,
        query: Query,
        step_index: int,
        presented_tools: list[ToolSpec],
        context_window: int,
        attempt: int = 0,
        skill_multiplier: float = 1.0,
        arg_multiplier: float = 1.0,
    ) -> AgentTurn:
        """Run one function-calling turn for chain step ``step_index``.

        ``skill_multiplier``/``arg_multiplier`` let baselines model
        non-native calling styles (e.g. Gorilla's docs-to-call
        generation); the Less-is-More pipeline uses 1.0.
        """
        if not presented_tools:
            raise ValueError("at least one tool must be presented")
        gold_call = query.gold_calls[min(step_index, query.n_steps - 1)]
        rng = self._rng(query.qid, "step", step_index, "attempt", attempt)

        plan = plan_agent_prompt(query.text, presented_tools, context_window,
                                 step_index=step_index)
        included = presented_tools
        if plan.tools_truncated:
            included_names = set(plan.tools_included)
            included = [tool for tool in presented_tools
                        if tool.name in included_names]
        pressure = context_pressure(plan.prompt_tokens, context_window)
        usage = self._turn_usage(plan.prompt_tokens, step_index, len(included),
                                 gold_call, rng)

        # model gives up (error-signal channel used by the LiS fallback)
        if rng.random() < behavior.error_signal_probability(
                self.model, self.quant, pressure, self.calibration):
            return AgentTurn(call=None, usage=usage, signalled_error=True,
                             tools_seen=plan.tools_included)

        # everything similarity-shaped below is read off the one view of
        # the query-vs-presented-tools vector this episode already has
        view = self._similarities(query.text, included)
        # mean query-similarity of the 3 closest non-gold presented tools
        distractor_sim, has_distractor = view.distractor_similarity(
            gold_call.tool)
        gold_row = view.first_row.get(gold_call.tool)
        if gold_row is not None:
            logit = behavior.selection_logit(
                self.model, self.quant, len(included), distractor_sim, pressure,
                gold_similarity=view.values[gold_row],
                step_index=step_index if query.sequential else 0,
                sequential=query.sequential,
                skill_multiplier=skill_multiplier,
                calibration=self.calibration,
            )
            correct = rng.random() < behavior.sigmoid(logit)
        else:
            correct = False

        if correct:
            call = self._format_gold_call(gold_call, pressure, distractor_sim,
                                          arg_multiplier, rng)
            return AgentTurn(call=call, usage=usage, correct_tool=True,
                             tools_seen=plan.tools_included)

        if not has_distractor:
            # nothing plausible to call: behave like an error signal
            return AgentTurn(call=None, usage=usage, signalled_error=True,
                             tools_seen=plan.tools_included)
        # a wrong tool, biased towards the most query-similar ones
        is_gold = np.array([name == gold_call.tool for name in view.names],
                           dtype=bool)
        distractor_rows = np.flatnonzero(~is_gold)
        distractor_sims = np.asarray(view)[distractor_rows]
        weights = np.exp((distractor_sims - distractor_sims.max()) / 0.08)
        weights /= weights.sum()
        distractor = included[distractor_rows[
            int(rng.choice(distractor_rows.size, p=weights))]]
        call = ToolCall(distractor.name, self._placeholder_arguments(distractor))
        return AgentTurn(call=call, usage=usage, correct_tool=False,
                         tools_seen=plan.tools_included)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _turn_usage(self, prompt_tokens: int, step_index: int, n_tools: int,
                    gold_call: ToolCall, rng: np.random.Generator) -> TokenUsage:
        completion = behavior.completion_tokens(
            self.model, self.quant, n_tools, len(gold_call.arguments), rng,
            self.calibration,
        )
        kv_cached = 0
        if step_index > 0:
            # the system/tool/query prefix is resident from the previous turn
            kv_cached = max(0, prompt_tokens - HISTORY_TOKENS_PER_STEP)
        return TokenUsage(prompt_tokens=prompt_tokens, completion_tokens=completion,
                          kv_cached_tokens=kv_cached)

    def _similarities(self, query_text: str,
                      included: list[ToolSpec]) -> PresentedView:
        """Query-vs-description dot products, one per tool in ``included``.

        A pure function of the query text, the presented tools and the
        embedder's projection, so every step and retry of an episode —
        which present the same tools — shares one batched encode, one
        matvec and one :class:`PresentedView` of the result.  Keyed on
        the names and the description *texts*: a renamed tool never reads
        another set's rows, catalog variants of one tool name never share
        an entry, and a reseeded projection (another LLM may share the
        embedder) starts over.  The memo is bounded (oldest entry out)
        and lock-protected, since a gateway runs episodes on one LLM from
        several threads; the returned view is shared and read-only.
        """
        names = tuple([tool.name for tool in included])
        descriptions = tuple([tool.description for tool in included])
        key = (self.embedder.projection_generation, query_text, names,
               descriptions)
        with self._similarity_lock:
            view = self._similarity_memo.get(key)
        if view is None:
            vectors = self.embedder.encode((query_text,) + descriptions)
            view = PresentedView.of(vectors[1:] @ vectors[0], names)
            with self._similarity_lock:
                memo = self._similarity_memo
                memo[key] = view
                if len(memo) > _SIMILARITY_MEMO_ENTRIES:
                    del memo[next(iter(memo))]
        return view

    def _format_gold_call(self, gold_call: ToolCall, pressure: float,
                          distractor_sim: float, arg_multiplier: float,
                          rng: np.random.Generator) -> ToolCall:
        """Reproduce the gold call, possibly fumbling the arguments."""
        n_required = len(gold_call.arguments)
        p_ok = behavior.argument_success_probability(
            self.model, self.quant, n_required, pressure,
            distractor_similarity=distractor_sim,
            skill_multiplier=arg_multiplier, calibration=self.calibration,
        )
        if not gold_call.arguments or rng.random() < p_ok:
            return ToolCall(gold_call.tool, gold_call.arguments)
        return ToolCall(gold_call.tool, self._corrupt_arguments(gold_call.arguments, rng))

    def _corrupt_arguments(self, arguments: dict, rng: np.random.Generator) -> dict:
        """Break one argument: wrong type, or drop it entirely."""
        corrupted = dict(arguments)
        victim = sorted(corrupted)[int(rng.integers(len(corrupted)))]
        if rng.random() < 0.5:
            del corrupted[victim]
        else:
            value = corrupted[victim]
            if isinstance(value, bool):
                corrupted[victim] = "yes"
            elif isinstance(value, (int, float)):
                corrupted[victim] = _CORRUPTION_VALUES["integer"]
            elif isinstance(value, str):
                corrupted[victim] = _CORRUPTION_VALUES["string"]
            else:
                corrupted[victim] = _CORRUPTION_VALUES["array"]
        return corrupted

    def _placeholder_arguments(self, tool: ToolSpec) -> dict:
        """Type-correct arguments for a wrong-tool call."""
        arguments = {}
        for parameter in tool.required_parameters:
            if parameter.enum:
                arguments[parameter.name] = parameter.enum[0]
            elif parameter.type == "array":
                arguments[parameter.name] = []
            else:
                arguments[parameter.name] = _PLACEHOLDER_VALUES[parameter.type]
        return arguments

    def _paraphrase(self, text: str, noise: float, rng: np.random.Generator,
                    generic_p: float | None = None) -> str:
        """Degrade a description the way a weak reasoner would.

        Three channels: synonym substitution (harmless — synonyms share
        concepts), *genericisation* (domain terms replaced by filler like
        "data"/"process", which destroys the retrieval signal; rate
        ``generic_p``, default derived from ``noise``) and word dropping.
        """
        if generic_p is None:
            generic_p = noise * 0.30
        lexicon = default_lexicon()
        words = _WORD_TOKENIZER.words(text)
        output: list[str] = []
        for word in words:
            roll = rng.random()
            concepts = lexicon.lookup(stem(word))
            if concepts and roll < generic_p:
                output.append(_GENERIC_WORDS[int(rng.integers(len(_GENERIC_WORDS)))])
                continue
            if concepts and roll < generic_p + noise * 0.45:
                concept = concepts[int(rng.integers(len(concepts)))]
                terms = [term for term in lexicon.concepts[concept]
                         if " " not in term and term != word]
                if terms:
                    output.append(terms[int(rng.integers(len(terms)))])
                    continue
            if roll > 1.0 - noise * 0.18 and len(words) > 4:
                continue  # drop the word
            output.append(word)
        return " ".join(output) if output else text
