import numpy as np
import pytest
import scipy.special
import scipy.stats

from gradecast.special import betainc_regularized, f_survival


def test_betainc_matches_scipy_on_grid():
    rng = np.random.default_rng(7)
    for _ in range(400):
        a = float(rng.uniform(0.2, 60.0))
        b = float(rng.uniform(0.2, 60.0))
        x = float(rng.uniform(0.0, 1.0))
        ours = betainc_regularized(a, b, x)
        ref = scipy.special.betainc(a, b, x)
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_betainc_boundaries():
    assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
    assert betainc_regularized(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        betainc_regularized(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        betainc_regularized(1.0, 2.0, 1.5)


def test_f_survival_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d1 = int(rng.integers(1, 40))
        d2 = int(rng.integers(2, 200))
        f = float(rng.uniform(0.01, 30.0))
        assert f_survival(f, d1, d2) == pytest.approx(
            scipy.stats.f.sf(f, d1, d2), rel=1e-9, abs=1e-13
        )


def test_f_survival_edge_cases():
    assert f_survival(0.0, 3, 10) == 1.0
    assert f_survival(-1.0, 3, 10) == 1.0
    with pytest.raises(ValueError):
        f_survival(1.0, 0, 10)
