"""Vector-index substrate (FAISS substitute).

The Tool Controller in the paper runs FAISS k-NN searches against the
Search Level latent spaces.  This package provides the same capability in
pure numpy with one index, :class:`FlatIndex`: exact search with the
semantics of ``faiss.IndexFlatIP`` / ``IndexFlatL2``.  Tool catalogs are
tens of vectors; an inverted-file index first drew level with exact
search at about 1000 (README, "Layout").

``add`` vectors with integer ids, ``search`` returns ``(scores, ids)``
sorted best-first.
"""

from repro.vectorstore.base import SearchResult, VectorIndex
from repro.vectorstore.flat import FlatIndex
from repro.vectorstore.metrics import METRICS, Metric

__all__ = [
    "METRICS",
    "FlatIndex",
    "Metric",
    "SearchResult",
    "VectorIndex",
]
