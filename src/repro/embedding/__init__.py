"""Deterministic sentence-embedding substrate (MPNet substitute).

The paper embeds tool descriptions and LLM-recommended "ideal tool"
descriptions with a pretrained MPNet model into a 768-d latent space.
Offline reproduction cannot ship MPNet weights, so this package provides a
deterministic lexical-semantic embedder with the one property Less-is-More
actually relies on: *semantically similar text maps to nearby vectors*.

Three feature families are combined:

* **concept features** — a curated synonym lexicon collapses domain terms
  ("weather", "forecast", "temperature") onto shared concept ids, giving
  true synonym-level similarity for the tool/query domains;
* **token features** — hashed stemmed unigrams and bigrams, providing
  graceful degradation for text outside the lexicon;
* **character trigrams** — robustness against morphological variation.

Each feature id is mapped to a fixed pseudo-random Gaussian direction in
R^768 (seeded by a stable hash), features are summed with family weights
and the result is L2-normalised — i.e. a random-projection bag-of-features
model, fully deterministic across processes and platforms.
"""

from repro.embedding.directions import DirectionBank
from repro.embedding.lexicon import ConceptLexicon, default_lexicon
from repro.embedding.sentence import SentenceEmbedder

__all__ = [
    "ConceptLexicon",
    "DirectionBank",
    "SentenceEmbedder",
    "default_lexicon",
]

#: Dimensionality used throughout the paper (Section III-A).
EMBEDDING_DIM = 768
