"""Vector-index substrate (FAISS substitute).

The Tool Controller in the paper runs FAISS k-NN searches against the
Search Level latent spaces.  This package provides the same capability in
pure numpy with one index, :class:`VectorIndex`: exact cosine search with
the semantics of ``faiss.IndexFlatIP`` over unit-norm vectors.  Tool
catalogs are tens of vectors; an inverted-file index first drew level
with exact search at about 1000 (README, "Layout").

``add`` vectors with integer ids, ``search`` returns ``(scores, ids)``
sorted best-first.
"""

from repro.vectorstore.base import SearchResult, VectorIndex

__all__ = [
    "SearchResult",
    "VectorIndex",
]
