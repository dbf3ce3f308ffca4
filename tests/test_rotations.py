import itertools

import numpy as np

from tiltwing.rotations import cross3


def test_cross3_matches_np_cross_bytes():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        a = rng.standard_normal(3) * 10.0 ** rng.uniform(-8.0, 8.0, 3)
        b = rng.standard_normal(3) * 10.0 ** rng.uniform(-8.0, 8.0, 3)
        assert cross3(a, b).tobytes() == np.cross(a, b).tobytes()
        assert cross3(a.tolist(), b.tolist()).tobytes() == np.cross(a, b).tobytes()


def test_cross3_matches_np_cross_on_signed_zeros_inf_and_nan():
    values = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.5)
    with np.errstate(invalid="ignore"):
        for a in itertools.product(values, repeat=3):
            for b in itertools.product(values, repeat=3):
                a_, b_ = np.array(a), np.array(b)
                assert cross3(a_, b_).tobytes() == np.cross(a_, b_).tobytes(), (a, b)
