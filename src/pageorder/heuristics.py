"""Zero-parameter ordering baselines over embedding similarity."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DomainError
from .numcore import RngStream

__all__ = ["order_random", "order_greedy_nn", "order_tsp_nn", "cosine_similarity_matrix"]


def _require_pages(n: int) -> None:
    if n < 2:
        raise DomainError(f"ordering needs at least 2 pages, got {n}")


def order_random(n: int, seed: int | RngStream) -> np.ndarray:
    """Uniformly random permutation of slot indices."""
    _require_pages(n)
    stream = seed if isinstance(seed, RngStream) else RngStream(seed).split("random-order")
    return stream.permutation(n).astype(np.int64)


def cosine_similarity_matrix(pages: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity; zero-norm rows fall back to -1 with a warning."""
    pages = np.asarray(pages, dtype=np.float64)
    norms = np.linalg.norm(pages, axis=1)
    zero = norms == 0.0
    if zero.any():
        warnings.warn("zero-norm embedding: treating its similarities as -1", stacklevel=3)
    safe = np.where(zero, 1.0, norms)
    unit = pages / safe[:, None]
    sim = unit @ unit.T
    sim[zero, :] = -1.0
    sim[:, zero] = -1.0
    return sim


def _nearest_neighbour_walks(sim: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbour chains from every page in ``starts`` at once; ties go to the lowest slot.

    Returns the chains ``(len(starts), n)`` and each one's total distance, the sum of ``1 - sim`` along it.
    """
    walks = np.arange(len(starts))
    orders = np.empty((len(starts), sim.shape[0]), dtype=np.int64)
    orders[:, 0] = starts
    visited = np.zeros(orders.shape, dtype=bool)
    visited[walks, starts] = True
    total_distance = np.zeros(len(starts))
    for step in range(1, orders.shape[1]):
        current = orders[:, step - 1]
        nxt = orders[:, step] = np.argmax(np.where(visited, -np.inf, sim[current]), axis=1)  # lowest index on ties
        total_distance += 1.0 - sim[current, nxt]
        visited[walks, nxt] = True
    return orders, total_distance


def order_greedy_nn(pages: np.ndarray, seed: int | RngStream) -> np.ndarray:
    """Start from a seeded-random page, repeatedly append the most similar unvisited page."""
    pages = np.asarray(pages)
    _require_pages(pages.shape[0])
    stream = seed if isinstance(seed, RngStream) else RngStream(seed).split("greedy-start")
    start = int(stream.integers(0, pages.shape[0]))
    orders, _ = _nearest_neighbour_walks(cosine_similarity_matrix(pages), np.array([start]))
    return orders[0]


def order_tsp_nn(pages: np.ndarray) -> np.ndarray:
    """Open nearest-neighbor tour, best over all start pages.

    Distance is 1 - cosine similarity; ties between tours break toward
    the lowest start index.
    """
    pages = np.asarray(pages)
    n = pages.shape[0]
    _require_pages(n)
    orders, total_distance = _nearest_neighbour_walks(cosine_similarity_matrix(pages), np.arange(n))
    return orders[int(np.argmin(total_distance))]  # the first minimum, so the lowest start on ties
