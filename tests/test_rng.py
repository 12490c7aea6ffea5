import numpy as np

from pageorder.numcore import RngStream


def test_same_seed_and_path_reproduce():
    a = RngStream(5).split("init").split(2)
    b = RngStream(5).split("init").split(2)
    assert np.array_equal(a.normal((4, 3)), b.normal((4, 3)))
    assert np.array_equal(a.permutation(9), b.permutation(9))


def test_child_ignores_draws_from_its_parent():
    fresh = RngStream(3).split("child").uniform(6)
    parent = RngStream(3)
    parent.normal(100)
    parent.integers(0, 10, size=50)
    assert np.array_equal(parent.split("child").uniform(6), fresh)


def test_names_and_seeds_select_different_streams():
    base = RngStream(1).split("a").normal(8)
    assert not np.array_equal(RngStream(1).split("b").normal(8), base)
    assert not np.array_equal(RngStream(2).split("a").normal(8), base)


def test_int_name_equals_its_string_form():
    assert np.array_equal(RngStream(0).split(7).permutation(12), RngStream(0).split("7").permutation(12))


def test_choice_weighted_skips_zero_weights():
    rng = RngStream(11)
    picks = {rng.choice_weighted(np.array([0.0, 2.0, 0.0, 1.0])) for _ in range(200)}
    assert picks == {1, 3}


def test_draws_have_requested_shape_and_dtype():
    rng = RngStream(4)
    assert rng.normal((2, 3)).dtype == np.float32
    assert rng.uniform(5, dtype=np.float64).dtype == np.float64
    assert rng.normal((2, 3), std=0.0).tolist() == [[0.0] * 3] * 2
