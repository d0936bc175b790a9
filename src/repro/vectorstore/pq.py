"""Product-quantization index (``faiss.IndexPQ`` equivalent).

On a memory-constrained edge device even the vector store competes with
the model weights for DRAM.  PQ compresses each vector into ``m`` one-
byte codes (one per sub-space) — a 768-d float64 vector (6 KB) becomes
``m`` bytes — at a small recall cost.  Used by the embedding-memory
ablation; the main pipeline keeps exact Flat search (tool pools are
tiny).
"""

from __future__ import annotations

import numpy as np

from repro.vectorstore.base import Ranked, VectorIndex
from repro.vectorstore.ivf import kmeans
from repro.vectorstore.metrics import l2_expansion


class PQIndex(VectorIndex):
    """Asymmetric-distance product quantizer.

    Parameters
    ----------
    m:
        Number of sub-spaces (must divide ``dim``).
    n_centroids:
        Codebook size per sub-space (<= 256 so codes fit one byte).
    """

    def __init__(self, dim: int, metric="l2", m: int = 8, n_centroids: int = 256):
        if metric not in ("l2",):
            raise ValueError("PQIndex supports the 'l2' metric only")
        # read by _refresh_operand while the base class constructs
        self._codebooks: np.ndarray | None = None  # (m, n_centroids, sub_dim)
        super().__init__(dim=dim, metric=metric)
        if m <= 0 or dim % m != 0:
            raise ValueError(f"m must divide dim ({dim}), got {m}")
        if not 2 <= n_centroids <= 256:
            raise ValueError(f"n_centroids must be in [2, 256], got {n_centroids}")
        self.m = m
        self.n_centroids = n_centroids
        self.sub_dim = dim // m
        self._codes: np.ndarray | None = None      # (n, m) uint8
        self._code_columns: np.ndarray | None = None  # (1, m, n) intp

    # ------------------------------------------------------------------
    # training / encoding
    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        return self._codebooks is not None

    def train(self, vectors: np.ndarray | None = None) -> None:
        """Fit one k-means codebook per sub-space."""
        data = self._vectors if vectors is None else np.atleast_2d(np.asarray(vectors, float))
        if data.shape[0] == 0:
            raise ValueError("cannot train PQ index without vectors")
        n_centroids = min(self.n_centroids, data.shape[0])
        books = []
        for sub in range(self.m):
            block = data[:, sub * self.sub_dim:(sub + 1) * self.sub_dim]
            centroids, _ = kmeans(block, n_centroids,
                                  seed_stream=f"pq-train-{sub}")
            books.append(centroids)
        self._codebooks = np.stack(books)
        self._refresh_operand()
        self._encode_all()

    def _refresh_operand(self) -> None:
        # search never touches the raw vectors: what it reuses across
        # calls is each sub-space codebook in the L2 metric's prepared form
        self._operand = None if self._codebooks is None else [
            self.metric.prepare(book) for book in self._codebooks]

    def _encode_all(self) -> None:
        assert self._operand is not None
        n = len(self)
        codes = np.zeros((n, self.m), dtype=np.uint8)
        for sub in range(self.m):
            block = self._vectors[:, sub * self.sub_dim:(sub + 1) * self.sub_dim]
            # the fixed-shape matmul inside keeps codes (and per-query
            # LUTs below) bitwise independent of the batch composition
            codes[:, sub] = np.argmin(
                l2_expansion(block, self._operand[sub]), axis=1)
        self._codes = codes
        # (1, m, n) gather indices reused by every batched search
        self._code_columns = codes.T.astype(np.intp)[None, :, :]

    def _on_add(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        if self.is_trained:
            self._encode_all()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _search_arrays_impl(self, queries: np.ndarray, k: int) -> Ranked:
        if not self.is_trained:
            self.train()
        assert self._operand is not None and self._codes is not None
        # asymmetric distance: queries stay exact, database is coded.
        # One LUT per sub-space covers the whole query batch, and one
        # gather+sum scores every (query, vector) pair — the only Python
        # loop is over the m sub-spaces, never over queries.
        sub_queries = queries.reshape(queries.shape[0], self.m, self.sub_dim)
        luts = np.stack([
            l2_expansion(sub_queries[:, sub, :], self._operand[sub])
            for sub in range(self.m)
        ], axis=1)  # (q, m, n_centroids)
        dists = np.take_along_axis(luts, self._code_columns, axis=2).sum(axis=1)
        return (*self._rank_batch(dists, self._rows, k), None)

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def code_bytes(self) -> int:
        """Resident bytes of the compressed database (codes + codebooks)."""
        codebook_bytes = 0 if self._codebooks is None else self._codebooks.nbytes
        code_bytes = 0 if self._codes is None else self._codes.nbytes
        return codebook_bytes + code_bytes

    def raw_bytes(self) -> int:
        """Bytes the uncompressed float64 vectors would occupy."""
        return self._vectors.nbytes

    def compression_ratio(self) -> float:
        """raw / compressed size including codebooks.

        On small databases the fixed codebooks dominate; see
        :meth:`marginal_compression_ratio` for the per-vector ratio that
        governs large stores.
        """
        compressed = self.code_bytes()
        if compressed == 0:
            return 1.0
        return self.raw_bytes() / compressed

    def marginal_compression_ratio(self) -> float:
        """Per-vector raw/code byte ratio (codebooks amortised away)."""
        if self._codes is None or self._codes.size == 0:
            return 1.0
        return self.raw_bytes() / self._codes.nbytes
