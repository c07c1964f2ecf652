import numpy as np
import pytest

from mlop.rng import Rng, STREAMS


def test_equal_seeds_equal_streams():
    a = Rng(42).random(100)
    b = Rng(42).random(100)
    assert np.array_equal(a, b)


def test_named_streams_are_independent():
    root = Rng(7)
    noise = root.stream("noise").random(50)
    sketch = root.stream("sketch").random(50)
    assert not np.array_equal(noise, sketch)
    # child streams do not depend on how much the root was consumed
    root2 = Rng(7)
    root2.random(10)
    assert np.array_equal(root2.stream("noise").random(50), noise)


def test_standard_normal_box_muller_properties():
    z = Rng(3).standard_normal(20000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03
    assert Rng(3).standard_normal((10, 4)).shape == (10, 4)
    assert np.array_equal(Rng(5).standard_normal(7), Rng(5).standard_normal(7))


def test_subsample_distinct_sorted():
    idx = Rng(1).subsample(100, 17)
    assert len(idx) == 17
    assert len(set(idx.tolist())) == 17
    assert np.all(np.diff(idx) > 0)
    assert np.array_equal(idx, Rng(1).subsample(100, 17))
    with pytest.raises(ValueError):
        Rng(1).subsample(5, 6)


def test_uniform_range():
    u = Rng(2).uniform(-0.2, 0.2, 1000)
    assert u.min() >= -0.2 and u.max() < 0.2


def test_seed_bounds():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)


def test_stream_table_stable():
    # renumbering the table would silently change every derived dataset
    assert STREAMS["structure"] == 0
    assert STREAMS["noise"] == 1
    assert STREAMS["sketch"] == 3


def test_component_stream_has_no_children():
    # a nested call would alias the root's stream of the same name
    with pytest.raises(ValueError, match="root"):
        Rng(5).stream("structure").stream("reference")
