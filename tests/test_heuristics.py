import itertools
import warnings

import numpy as np
import pytest

from pageorder.errors import DomainError
from pageorder.heuristics import cosine_similarity_matrix, order_greedy_nn, order_random, order_tsp_nn
from pageorder.metrics import kendall_tau, require_permutation
from pageorder.numcore import RngStream


THREE_VECTORS = np.array([[1.0, 0.0], [0.9, 0.436], [0.0, 1.0]], dtype=np.float32)


class TestOrderRandom:
    def test_reproducible(self):
        assert np.array_equal(order_random(10, 7), order_random(10, 7))

    def test_two_pages_roughly_balanced(self):
        flips = sum(order_random(2, seed)[0] for seed in range(10000))
        assert 0.45 < flips / 10000 < 0.55

    def test_mean_tau_near_zero(self):
        rng = np.random.default_rng(0)
        taus = []
        for seed in range(2000):
            n = int(rng.integers(2, 26))
            truth = rng.permutation(n)
            taus.append(kendall_tau(order_random(n, seed), truth))
        assert abs(np.mean(taus)) < 0.05

    def test_rejects_single_page(self):
        with pytest.raises(DomainError):
            order_random(1, 0)


class TestGreedyNn:
    def test_three_vector_chain_from_start_zero(self):
        # cosine(e0,e1) > cosine(e0,e2), then only e2 remains
        for seed in range(50):
            order = order_greedy_nn(THREE_VECTORS, seed)
            start = order[0]
            if start == 0:
                assert order.tolist() == [0, 1, 2]
                break
        else:
            pytest.fail("no seed started from page 0")

    def test_identical_embeddings_follow_slot_order(self):
        pages = np.ones((5, 3), dtype=np.float32)
        for seed in range(20):
            order = order_greedy_nn(pages, seed)
            start = order[0]
            rest = [i for i in range(5) if i != start]
            assert order.tolist() == [start] + rest

    def test_always_valid_permutation(self):
        rng = np.random.default_rng(1)
        for seed in range(100):
            n = int(rng.integers(2, 26))
            pages = rng.normal(size=(n, 8)).astype(np.float32)
            require_permutation(order_greedy_nn(pages, seed), n)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        pages = rng.normal(size=(9, 6)).astype(np.float32)
        a = order_greedy_nn(pages, 3)
        b = order_greedy_nn(pages * 17.0, 3)
        assert np.array_equal(a, b)

    def test_zero_norm_warns(self):
        pages = np.zeros((3, 4), dtype=np.float32)
        pages[0, 0] = 1.0
        with pytest.warns(UserWarning):
            order_greedy_nn(pages, 0)


class TestTspNn:
    def test_two_pages_tie_break(self):
        pages = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        assert order_tsp_nn(pages).tolist() == [0, 1]

    def test_three_vector_example(self):
        assert order_tsp_nn(THREE_VECTORS).tolist() == [0, 1, 2]

    def test_tour_is_minimum_over_starts(self):
        rng = np.random.default_rng(3)
        pages = rng.normal(size=(6, 4)).astype(np.float32)
        sim = cosine_similarity_matrix(pages)
        chosen = order_tsp_nn(pages)

        def nn_cost(start):
            visited = {start}
            cur, cost = start, 0.0
            for _ in range(5):
                cands = [(1.0 - sim[cur, j], j) for j in range(6) if j not in visited]
                d, j = min(cands)
                cost += d
                visited.add(j)
                cur = j
            return cost

        best = min(nn_cost(s) for s in range(6))
        cost_chosen = sum(1.0 - sim[chosen[i], chosen[i + 1]] for i in range(5))
        assert cost_chosen == pytest.approx(best)

    def test_chain_recovered_up_to_reversal(self):
        # noiseless points along a smooth curve: brute force says the
        # best open tour is the chain itself (or its reversal)
        t = np.linspace(0.0, 1.0, 5)
        pages = np.stack([np.cos(1.2 * t), np.sin(1.9 * t + 0.3), 0.5 + 0.5 * t], axis=1).astype(np.float32)
        sim = cosine_similarity_matrix(pages)

        def tour_cost(order):
            return sum(1.0 - sim[order[i], order[i + 1]] for i in range(len(order) - 1))

        best = min(itertools.permutations(range(5)), key=tour_cost)
        assert tour_cost(best) == pytest.approx(tour_cost(list(range(5))), abs=1e-9) or best in (
            tuple(range(5)),
            tuple(reversed(range(5))),
        )
        order = order_tsp_nn(pages).tolist()
        assert order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        pages = rng.normal(size=(7, 5)).astype(np.float32)
        assert np.array_equal(order_tsp_nn(pages), order_tsp_nn(pages * 0.01))

    def test_always_valid_permutation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 26))
            pages = rng.normal(size=(n, 8)).astype(np.float32)
            require_permutation(order_tsp_nn(pages), n)


def _reference_walk(sim: np.ndarray, start: int) -> tuple[np.ndarray, float]:
    """One nearest-neighbour chain at a time in a Python loop, the form the batched walk replaced."""
    n = sim.shape[0]
    visited = np.zeros(n, dtype=bool)
    order = [start]
    visited[start] = True
    total_distance = 0.0
    current = start
    for _ in range(n - 1):
        nxt = int(np.argmax(np.where(~visited, sim[current], -np.inf)))
        total_distance += 1.0 - sim[current, nxt]
        order.append(nxt)
        visited[nxt] = True
        current = nxt
    return np.asarray(order, dtype=np.int64), total_distance


def _reference_tsp(pages: np.ndarray) -> np.ndarray:
    sim = cosine_similarity_matrix(pages)
    best_order, best_cost = None, np.inf
    for start in range(pages.shape[0]):
        order, cost = _reference_walk(sim, start)
        if cost < best_cost:
            best_order, best_cost = order, cost
    return best_order


def _reference_greedy(pages: np.ndarray, seed: int) -> np.ndarray:
    start = int(RngStream(seed).split("greedy-start").integers(0, pages.shape[0]))
    return _reference_walk(cosine_similarity_matrix(pages), start)[0]


def _oracle_pages(rng, n: int, kind: str) -> np.ndarray:
    pages = rng.normal(size=(n, 6)).astype(np.float32)
    if kind == "duplicated":
        # few distinct, coarsely rounded pages: equal similarities and equal tour lengths
        distinct = np.round(pages[: int(rng.integers(1, n + 1))], 1)
        pages = distinct[rng.integers(0, distinct.shape[0], size=n)]
    elif kind == "zero_norm":
        pages[rng.random(n) < 0.3] = 0.0
        pages[int(rng.integers(0, n))] = 0.0
    return pages


class TestNearestNeighbourOracle:
    @pytest.mark.parametrize("kind", ["random", "duplicated", "zero_norm"])
    def test_bitwise_the_per_start_loop(self, kind):
        rng = np.random.default_rng(["random", "duplicated", "zero_norm"].index(kind))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-norm pages warn
            for n in range(2, 26):
                for trial in range(6):
                    pages = _oracle_pages(rng, n, kind)
                    assert np.array_equal(order_tsp_nn(pages), _reference_tsp(pages)), (n, trial)
                    seed = int(rng.integers(0, 1000))
                    assert np.array_equal(order_greedy_nn(pages, seed), _reference_greedy(pages, seed)), (n, trial)
