"""GPT-4-substitute benchmark augmentation (ToolQA-style).

Paper Section III-A: GPT-4 is prompted with ~10 training queries per
category to generate "contextually proximate" task permutations; factual
correctness is explicitly *not* required — the outputs only serve as
noisy co-usage samples for Level-2 clustering, quality-checked with a
ROUGE score.

Offline we reproduce the same distribution with three deterministic
generators:

* **paraphrase** — synonym substitution through the concept lexicon
  (same task, different wording; same tool set);
* **permutation** — one chain step swapped for a same-category tool
  ("open the document" -> "print it instead"), wording spliced from the
  substitute tool's description;
* **combination** — two same-category tasks fused into one query whose
  tool set is the union (the multi-tool synergy signal clustering needs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embedding.lexicon import default_lexicon
from repro.embedding.tokenizer import Tokenizer, stem
from repro.suites.base import BenchmarkSuite, Query
from repro.suites.rouge import rouge_l
from repro.utils.rng import derive_rng
from repro.utils.text import normalize_whitespace, truncate_words

#: the paper's "~10 training queries per category" prompted per category
QUERIES_PER_CATEGORY = 10
#: one paraphrase, one permutation and one combination per picked query
VARIANTS_PER_QUERY = 3
#: ROUGE-L to the source query a kept sample must fall within: near-1
#: scores are redundant copies, near-0 scores lost the task context
ROUGE_BAND = (0.05, 0.95)


@dataclass(frozen=True)
class AugmentedQuery:
    """A clustering sample: synthetic text plus the tools it exercises."""

    text: str
    tools: tuple[str, ...]
    kind: str
    source_qids: tuple[str, ...]
    rouge_to_source: float


class AugmentationEngine:
    """Deterministic generator of contextually-proximate query variants."""

    def __init__(self, suite: BenchmarkSuite):
        self.suite = suite
        self.lexicon = default_lexicon()
        self._tokenizer = Tokenizer(remove_stopwords=False, apply_stem=False)
        # reverse map: concept -> terms, for synonym substitution
        self._terms_of: dict[str, tuple[str, ...]] = {
            concept: tuple(term for term in terms if " " not in term)
            for concept, terms in self.lexicon.concepts.items()
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self) -> list[AugmentedQuery]:
        """Produce the augmented pool from the suite's *train* split.

        Output is filtered to :data:`ROUGE_BAND` (the paper's "diverse
        tool combinations without redundancy").
        """
        rng = derive_rng("augment", self.suite.name, 0)
        samples: list[AugmentedQuery] = []
        for category in self._categories():
            pool = self.suite.queries_by_category(category, split="train")
            if not pool:
                continue
            picks = rng.permutation(len(pool))[:QUERIES_PER_CATEGORY]
            chosen = [pool[int(i)] for i in picks]
            for query in chosen:
                for variant_idx in range(VARIANTS_PER_QUERY):
                    sample = self._one_variant(query, chosen, variant_idx, rng)
                    if sample is not None and self._in_band(sample):
                        samples.append(sample)
        return samples

    # ------------------------------------------------------------------
    # variant generators
    # ------------------------------------------------------------------
    def _one_variant(self, query: Query, pool: list[Query], variant_idx: int,
                     rng: np.random.Generator) -> AugmentedQuery | None:
        kind = ("paraphrase", "permutation", "combination")[variant_idx % 3]
        if kind == "paraphrase":
            return self._paraphrase(query, rng)
        if kind == "permutation":
            return self._permutation(query, rng)
        return self._combination(query, pool, rng)

    def _paraphrase(self, query: Query, rng: np.random.Generator) -> AugmentedQuery:
        text = self.paraphrase_text(query.text, rng, substitution_rate=0.45)
        return AugmentedQuery(
            text=text,
            tools=tuple(dict.fromkeys(query.gold_tools)),
            kind="paraphrase",
            source_qids=(query.qid,),
            rouge_to_source=rouge_l(text, query.text),
        )

    def _permutation(self, query: Query, rng: np.random.Generator) -> AugmentedQuery | None:
        """Swap one gold step for a sibling tool of the same catalog category."""
        catalog = self.suite.catalog
        swappable = [
            (idx, call) for idx, call in enumerate(query.gold_calls)
            if len(catalog.by_category(catalog.get(call.tool).category)) > 1
        ]
        if not swappable:
            return None
        idx, call = swappable[int(rng.integers(len(swappable)))]
        chain_tools = set(query.gold_tools)
        siblings = [
            tool for tool in catalog.by_category(catalog.get(call.tool).category)
            if tool.name != call.tool and tool.name not in chain_tools
        ]
        if not siblings:
            return None
        substitute = siblings[int(rng.integers(len(siblings)))]
        hint = truncate_words(substitute.description, 8)
        text = normalize_whitespace(f"{query.text} Instead, {hint.lower()}")
        tools = list(dict.fromkeys(query.gold_tools))
        tools[tools.index(call.tool)] = substitute.name
        return AugmentedQuery(
            text=self.paraphrase_text(text, rng, substitution_rate=0.2),
            tools=tuple(dict.fromkeys(tools)),
            kind="permutation",
            source_qids=(query.qid,),
            rouge_to_source=rouge_l(text, query.text),
        )

    def _combination(self, query: Query, pool: list[Query],
                     rng: np.random.Generator) -> AugmentedQuery | None:
        partners = [other for other in pool if other.qid != query.qid]
        if not partners:
            return None
        partner = partners[int(rng.integers(len(partners)))]
        text = normalize_whitespace(f"{query.text} Then also {partner.text.lower()}")
        tools = tuple(dict.fromkeys(query.gold_tools + partner.gold_tools))
        return AugmentedQuery(
            text=self.paraphrase_text(text, rng, substitution_rate=0.15),
            tools=tools,
            kind="combination",
            source_qids=(query.qid, partner.qid),
            rouge_to_source=rouge_l(text, query.text),
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def paraphrase_text(self, text: str, rng: np.random.Generator,
                        substitution_rate: float) -> str:
        """Replace words with same-concept synonyms at the given rate."""
        words = self._tokenizer.words(text)
        replaced: list[str] = []
        for word in words:
            concepts = self.lexicon.lookup(stem(word))
            if concepts and rng.random() < substitution_rate:
                concept = concepts[int(rng.integers(len(concepts)))]
                candidates = [term for term in self._terms_of.get(concept, ())
                              if term != word]
                if candidates:
                    replaced.append(candidates[int(rng.integers(len(candidates)))])
                    continue
            replaced.append(word)
        return " ".join(replaced)

    def _categories(self) -> list[str]:
        seen: dict[str, None] = {}
        for query in self.suite.train_queries:
            seen.setdefault(query.category, None)
        return list(seen)

    def _in_band(self, sample: AugmentedQuery) -> bool:
        low, high = ROUGE_BAND
        return low <= sample.rouge_to_source <= high
