"""Huang's k-modes for categorical tuples (matching dissimilarity)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.table import Dataset, grouped_histogram
from ..privacy.rng import ensure_rng
from .base import ModeBasedClustering, nearest_mode


@dataclass(frozen=True)
class KModes:
    """Fit categorical modes; assignment minimises attribute mismatches."""

    n_clusters: int
    max_iter: int = 20

    def fit(
        self, dataset: Dataset, rng: np.random.Generator | int | None = None
    ) -> ModeBasedClustering:
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        gen = ensure_rng(rng)
        names = dataset.schema.names
        columns = [dataset.column(nm) for nm in names]
        n = len(dataset)
        if n < self.n_clusters:
            # Row count redacted: raw-data-derived, can reach envelopes.
            raise ValueError(
                f"dataset has fewer rows than {self.n_clusters} clusters"
            )
        domain_sizes = [dataset.schema.attribute(nm).domain_size for nm in names]

        # Seed with distinct random rows (retrying to avoid duplicate modes).
        seen: set[tuple[int, ...]] = set()
        modes: list[tuple[int, ...]] = []
        for _ in range(50 * self.n_clusters):
            key = dataset.row_codes(int(gen.integers(n)))
            if key not in seen:
                seen.add(key)
                modes.append(key)
            if len(modes) == self.n_clusters:
                break
        while len(modes) < self.n_clusters:  # fewer distinct rows than clusters
            modes.append(dataset.row_codes(int(gen.integers(n))))
        mode_mat = np.array(modes, dtype=np.int64)

        labels = nearest_mode(columns, mode_mat)
        for _ in range(self.max_iter):
            hist, offsets = grouped_histogram(
                columns, domain_sizes, labels, self.n_clusters
            )
            # Per attribute, each cluster's most frequent code.
            new_modes = np.stack(
                [
                    hist[:, offsets[j] : offsets[j + 1]].argmax(axis=1)
                    for j in range(len(names))
                ],
                axis=1,
            )
            # Every row lands in the first attribute's block exactly once,
            # so its row sums are the cluster sizes; empty clusters re-seed.
            sizes = hist[:, : offsets[1]].sum(axis=1)
            for c in np.flatnonzero(sizes == 0):
                new_modes[c] = dataset.row_codes(int(gen.integers(n)))
            new_labels = nearest_mode(columns, new_modes)
            mode_mat = new_modes
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
        return ModeBasedClustering(tuple(names), mode_mat)
