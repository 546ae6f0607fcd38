"""Shared fixtures: the three worked systems with their published values, and
a record of the SVDs and linear solves a test makes."""

from types import SimpleNamespace

import numpy as np
import pytest

from fuzzylinsys import FlsProblem, build_associated
from fuzzylinsys.fuzzy import AffineFn, FuzzyNumber


def fz(l0, l1, u0, u1):
    return FuzzyNumber(AffineFn(l0, l1), AffineFn(u0, u1))


def _worked(a, y, **expected):
    problem = FlsProblem(a=np.array(a, dtype=float), y=y)
    system = build_associated(problem)
    return SimpleNamespace(
        problem=problem,
        system=system,
        **{key: np.array(val, dtype=float) if isinstance(val, list) else val
           for key, val in expected.items()},
    )


@pytest.fixture
def consistent_2x2():
    """2x2 system; associated matrix singular of index 1, solvable exactly."""
    return _worked(
        a=[[-2, 1], [4, -2]],
        y=[fz(-1, 3, 3, -1), fz(-6, 2, 2, -6)],
        s=[[0, 1, 2, 0], [4, 0, 0, 2], [2, 0, 0, 1], [0, 2, 4, 0]],
        y0=[-1, -6, -3, -2],
        y1=[3, 2, 1, 6],
        core_inverse=[
            [0.00, 0.10, 0.05, 0.00],
            [0.10, 0.00, 0.00, 0.20],
            [0.05, 0.00, 0.00, 0.10],
            [0.00, 0.20, 0.10, 0.00],
        ],
        crisp_x0=[-0.75, -0.5, -0.25, -1.5],
        crisp_x1=[0.25, 1.5, 0.75, 0.5],
        fuzzy=[(-0.75, 0.25, 0.25, -0.75), (-0.5, 1.5, 1.5, -0.5)],
        rank_s=2,
        rank_aug=2,
        index=1,
    )


@pytest.fixture
def consistent_3x3():
    """3x3 system; index-2 associated matrix, exact but weak solution."""
    return _worked(
        a=[[2, 0, 0], [-1, 1, 1], [-1, -1, -1]],
        y=[fz(0, 4, -8, 0), fz(12, -1, -4, -3), fz(8, 1, -8, -1)],
        s=[
            [2, 0, 0, 0, 0, 0],
            [0, 1, 1, 1, 0, 0],
            [0, 0, 0, 1, 1, 1],
            [0, 0, 0, 2, 0, 0],
            [1, 0, 0, 0, 1, 1],
            [1, 1, 1, 0, 0, 0],
        ],
        y0=[0, 12, 8, 8, 4, 8],
        y1=[4, -1, 1, 0, 3, 1],
        s_squared=[
            [4, 0, 0, 0, 0, 0],
            [0, 1, 1, 4, 1, 1],
            [2, 1, 1, 2, 1, 1],
            [0, 0, 0, 4, 0, 0],
            [4, 1, 1, 0, 1, 1],
            [2, 1, 1, 2, 1, 1],
        ],
        core_ep=[
            [0.375, -0.125, 0.000, 0.125, 0.125, 0.000],
            [-0.250, 0.250, 0.125, 0.000, 0.000, 0.125],
            [-0.125, 0.125, 0.125, -0.125, 0.125, 0.125],
            [0.125, 0.125, 0.000, 0.375, -0.125, 0.000],
            [0.000, 0.000, 0.125, -0.250, 0.250, 0.125],
            [-0.125, 0.125, 0.125, -0.125, 0.125, 0.125],
        ],
        crisp_x0=[0, 5, 3, 4, 1, 3],
        crisp_x1=[2, -1, 0, 0, 1, 0],
        fuzzy=[(0, 2, -4, 0), (5, -1, -1, -1), (3, 0, -3, 0)],
        index=2,
    )


@pytest.fixture
def inconsistent_2x2():
    """2x2 inconsistent system; only a generalized solution exists."""
    return _worked(
        a=[[-1, 1], [-1, 1]],
        y=[fz(3, 0, 2, 1), fz(4, 0, 0, 8)],
        s=[[0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1]],
        y0=[3, 4, -2, 0],
        y1=[0, 0, -1, -8],
        core_ep=[[0.125] * 4] * 4,
        crisp_x0=[0.625] * 4,
        crisp_x1=[-1.125] * 4,
        fuzzy=[(0.625, -1.125, -0.625, 1.125)] * 2,
        rank_s=2,
        rank_aug=4,
        index=2,
    )


def assert_fuzzy_matches(fuzzy_x, expected, tol=1e-9):
    """Compare a list of fuzzy numbers against (l0, l1, u0, u1) tuples."""
    assert len(fuzzy_x) == len(expected)
    for fn, (l0, l1, u0, u1) in zip(fuzzy_x, expected):
        assert abs(fn.lower.c0 - l0) <= tol
        assert abs(fn.lower.c1 - l1) <= tol
        assert abs(fn.upper.c0 - u0) <= tol
        assert abs(fn.upper.c1 - u1) <= tol


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shape of each matrix given to ``np.linalg.svd`` while the test runs."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


@pytest.fixture
def solve_shapes(monkeypatch):
    """The shape of each matrix given to ``np.linalg.solve`` while the test runs."""
    shapes = []
    solve = np.linalg.solve

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return shapes
