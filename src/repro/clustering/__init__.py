"""Hierarchical clustering substrate (scikit-learn substitute).

Search Level 2 groups the augmented query latent space with agglomerative
clustering (paper Section III-A).  This package implements the algorithm
from scratch: pairwise distances, Lance-Williams linkage updates
(single/complete/average/ward) and dendrogram cuts by cluster count or
distance threshold.
"""

from repro.clustering.agglomerative import AgglomerativeClustering, Dendrogram, Merge
from repro.clustering.distances import pairwise_distances

__all__ = [
    "AgglomerativeClustering",
    "Dendrogram",
    "Merge",
    "pairwise_distances",
]
