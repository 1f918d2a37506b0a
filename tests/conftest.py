"""Shared helpers for the test suite."""
import numpy as np
import pytest

from newton_strata import empirics, kernel
from newton_strata.series import INF, TruncatedSeries
from newton_strata.isocrystal import IsoMatrix
from newton_strata.affine_weyl import AffineWeylElt, coset_pattern
from newton_strata.empirics import SampleConfig, sample_pattern

P = 11


@pytest.fixture(autouse=True)
def fresh_windows_and_campaign_grids():
    """Each test starts with the kernel's per-window caches, the campaign's
    per-bound tables and its plans empty, so a test that patches what a
    window is made of (kernel._horizons) draws anew, one that patches a
    pair's tests (empirics._predicate_tests) builds its tables from the
    patch, and no patched table or plan reaches a later test."""
    kernel._sample_windows.cache_clear()
    kernel._block_layout.cache_clear()
    empirics._campaign_grid.cache_clear()
    empirics._campaign_plan.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def rand_series(rng, p=P, lo=-3, hi=3, prec=40, unit=False, nonzero=False):
    """A random truncated series with offset in [lo, hi) and given prec."""
    off = int(rng.integers(lo, hi))
    coeffs = rng.integers(0, p, size=prec - off)
    if unit or nonzero:
        coeffs[0] = int(rng.integers(1, p))
        if unit:
            off = 0
    return TruncatedSeries(p, off, coeffs, prec)


def rand_iwahori(rng, p=P, prec=40, index=None):
    """A random element of the Iwahori pattern (invertible by construction)."""
    if index is None:
        index = int(rng.integers(0, 2**31))
    cfg = SampleConfig(
        pattern=coset_pattern(AffineWeylElt.identity(), "xI"),
        p=p,
        prec=prec,
        trials=1,
        seed=7,
    )
    return sample_pattern(cfg, index)


_PERMS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]


def rand_matrix(rng, p=P, prec=40):
    """A random unit-determinant matrix: g1 * (pi^mu permutation) * g2.

    Both factors g are Iwahori samples, so the determinant valuation is the
    exponent sum, which is forced to zero.
    """
    a, b = (int(rng.integers(-2, 3)) for _ in range(2))
    exps = (a, b, -a - b)
    perm = _PERMS[int(rng.integers(0, 6))]
    rows = [
        [
            TruncatedSeries.pi_power(p, exps[i]) if perm[i] == j else TruncatedSeries.zero(p)
            for j in range(3)
        ]
        for i in range(3)
    ]
    core = IsoMatrix(rows)
    g1 = rand_iwahori(rng, p=p, prec=prec)
    g2 = rand_iwahori(rng, p=p, prec=prec)
    return g1 @ core @ g2
