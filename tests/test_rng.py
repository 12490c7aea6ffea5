import zlib

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


def test_split_chain_draws_from_the_seed_sequence_of_its_path():
    want = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(9, spawn_key=(zlib.crc32(b"shuffle"), zlib.crc32(b"doc-3"))))
    )
    rng = RngStream(9).split("shuffle").split("doc-3")
    assert np.array_equal(rng.permutation(25), want.permutation(25))
    assert np.array_equal(rng.integers(0, 1000, size=8), want.integers(0, 1000, size=8))


def test_split_builds_no_generator_until_a_draw():
    root = RngStream(9)
    child = root.split("a").split("b")
    assert "_gen" not in vars(root) and "_gen" not in vars(child)
    child.normal(3)
    assert "_gen" in vars(child) and "_gen" not in vars(root)
