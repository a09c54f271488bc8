"""Tests for metrics, index gymnastics, null geodesics and the wave operator."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

import diamondwave
from diamondwave import fermi
from diamondwave import geometry as geo
from diamondwave.exprs import ScalarField, parse_expression, ExpressionError


def split_beta2():
    n = 2
    return geo.SplitMetric(
        n,
        beta=lambda x: np.full(np.asarray(x).shape[:-1], 2.0),
        gmat=lambda x: np.broadcast_to(np.eye(n), np.asarray(x).shape[:-1] + (n, n)).copy(),
    )


def split_linear_t(n=2):
    """beta = 1, g = (1 + 0.1 t) I."""
    def gmat(x):
        x = np.asarray(x, dtype=float)
        fac = 1.0 + 0.1 * x[..., 0]
        return fac[..., None, None] * np.eye(n)
    return geo.SplitMetric(n, beta=lambda x: np.ones(np.asarray(x).shape[:-1]),
                           gmat=gmat)


# ---------------------------------------------------------------------------
# sharp / flat


def test_sharp_minkowski():
    m = geo.minkowski(2)
    out = geo.sharp(m, np.zeros(3), [-1.0, 1.0, 0.0])
    assert np.allclose(out, [1.0, 1.0, 0.0], atol=1e-14)


def test_sharp_zero_covector():
    m = split_linear_t()
    assert np.allclose(geo.sharp(m, [0.3, 0.1, 0.2], np.zeros(3)), 0.0)


def test_sharp_split_beta2():
    m = split_beta2()
    out = geo.sharp(m, np.zeros(3), [-1.0, 1.0, 0.0])
    assert np.allclose(out, [0.5, 1.0, 0.0], atol=1e-14)


@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_flat_sharp_roundtrip(xi, p):
    m = geo.SplitMetric(
        2,
        beta=lambda x: 1.0 + 0.2 * np.sin(np.asarray(x)[..., 0]),
        gmat=lambda x: (1.0 + 0.1 * np.asarray(x)[..., 1] ** 2)[..., None, None] * np.eye(2),
    )
    xi = np.array(xi)
    back = geo.flat(m, p, geo.sharp(m, p, xi))
    assert np.allclose(back, xi, atol=1e-12)


# ---------------------------------------------------------------------------
# Christoffel symbols: the bilinear form Gamma^k_ij v^i w^j


def contract(gam, v, w):
    """Gamma^k_ij v^i w^j of a tensor (..., k, i, j)."""
    return np.einsum("...kij,...i,...j->...k", gam, v, w)


def test_christoffel_minkowski_zero():
    m = geo.minkowski(2)
    rng = np.random.default_rng(0)
    v, w = rng.normal(size=(2, 5, 3))
    out = m.christoffel(np.array([0.4, -0.2, 1.0]), v, w[:, None])
    assert out.shape == (5, 5, 3)
    assert np.array_equal(out, np.zeros((5, 5, 3)))


def test_christoffel_linear_t_oracle():
    # beta=1, g=(1+0.1t)I: Gamma^0_11 = Gamma^0_22 = 0.05 and
    # Gamma^a_0a = Gamma^a_a0 = 0.05/(1+0.1t), every other symbol zero
    m = split_linear_t()
    rng = np.random.default_rng(5)
    for t in (0.0, 1.3):
        gam = np.zeros((3, 3, 3))
        gam[0, 1, 1] = gam[0, 2, 2] = 0.05
        for a in (1, 2):
            gam[a, 0, a] = gam[a, a, 0] = 0.05 / (1 + 0.1 * t)
        v, w = rng.normal(size=(2, 6, 3))
        out = m.christoffel(np.array([t, 0.2, -0.1]), v, w)
        assert np.allclose(out, contract(gam, v, w), rtol=0, atol=1e-8)


def test_christoffel_symbolic_oracle():
    # cross-check the finite-difference path against sympy on a curvy metric
    t, x1, x2 = sp.symbols("t x1 x2")
    beta = 1 + sp.Rational(1, 10) * sp.sin(t + x1)
    gfac = 1 + sp.Rational(1, 20) * x2**2
    gm = sp.diag(-beta, gfac, gfac)
    ginv = gm.inv()
    syms = (t, x1, x2)
    p = (0.3, -0.4, 0.7)
    subs = dict(zip(syms, p))
    expected = np.empty((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                val = sum(sp.Rational(1, 2) * ginv[k, l]
                          * (sp.diff(gm[l, j], syms[i]) + sp.diff(gm[l, i], syms[j])
                             - sp.diff(gm[i, j], syms[l]))
                          for l in range(3))
                expected[k, i, j] = float(val.subs(subs))

    m = geo.SplitMetric(
        2,
        beta=lambda x: 1 + 0.1 * np.sin(np.asarray(x)[..., 0] + np.asarray(x)[..., 1]),
        gmat=lambda x: (1 + 0.05 * np.asarray(x)[..., 2] ** 2)[..., None, None] * np.eye(2),
    )
    v, w = np.random.default_rng(6).normal(size=(2, 8, 3))
    assert np.allclose(m.christoffel(np.array(p), v, w),
                       contract(expected, v, w), atol=1e-7)


def test_christoffel_symmetry_random():
    rng = np.random.default_rng(7)
    m = geo.SplitMetric(
        2,
        beta=lambda x: 1 + 0.1 * np.cos(np.asarray(x)[..., 0]),
        gmat=lambda x: (1 + 0.1 * np.sin(np.asarray(x)[..., 1]))[..., None, None] * np.eye(2),
    )
    for _ in range(5):
        p = rng.uniform(-1, 1, size=3)
        v, w = rng.normal(size=(2, 4, 3))
        assert np.allclose(m.christoffel(p, v, w), m.christoffel(p, w, v),
                           rtol=0, atol=1e-10)


def curvy_split(n):
    """Split metric with every Christoffel block nonzero."""
    def beta(x):
        x = np.asarray(x, dtype=float)
        return 1 + 0.1 * np.sin(x[..., 0] + x[..., 1])

    def gmat(x):
        x = np.asarray(x, dtype=float)
        t = x[..., 0]
        out = np.empty(x.shape[:-1] + (n, n))
        for i in range(n):
            for j in range(n):
                out[..., i, j] = (
                    1 + 0.1 * np.cos(x[..., i + 1] + 0.5 * t) if i == j
                    else 0.05 * np.sin(x[..., min(i, j) + 1] + (i + j) * t))
        return out
    return geo.SplitMetric(n, beta, gmat)


def first_kind_christoffel(m, x):
    """The tensor (..., k, i, j) by the generic formula, from central
    differences of `m.matrix` at step `H_G` and a LAPACK inverse of the full
    matrix."""
    ginv = np.linalg.inv(m.matrix(x))
    e = geo.H_G * np.eye(m.dim)
    dg = np.stack([m.matrix(x + e[k]) - m.matrix(x - e[k])
                   for k in range(m.dim)], axis=-3) / (2 * geo.H_G)
    term = (np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg)
            - dg)
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, term)


def rel_dev(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_split_kernels_match_generic(n):
    m = curvy_split(n)
    x = np.random.default_rng(n).uniform(-1.5, 1.5, size=(40, n + 1))
    assert rel_dev(m.inverse(x), np.linalg.inv(m.matrix(x))) < 1e-13
    v, w = np.random.default_rng(40 + n).normal(size=(2, 40, n + 1))
    form = m.christoffel(x, v, w)
    assert form.shape == (40, n + 1)
    assert rel_dev(form, contract(first_kind_christoffel(m, x), v, w)) < 1e-13
    # single points go through the same kernels
    assert rel_dev(m.christoffel(x[3], v[3], w[3]), form[3]) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_christoffel_is_the_spray_bilinear_form(n):
    # Gamma(v, w) is -1/2 the derivative of the spray along w at fixed x,
    # and -Gamma(v, v) is the spray, both bit for bit; w stacks fields
    m = curvy_split(n)
    rng = np.random.default_rng(50 + n)
    x = rng.uniform(-1.5, 1.5, size=(40, n + 1))
    v = rng.normal(size=(40, n + 1))
    w = rng.normal(size=(3, 40, n + 1))
    form = m.christoffel(x, v, w)
    assert form.shape == (3, 40, n + 1)
    dacc = m.linearized_spray(x, v, np.zeros_like(w), w)[1]
    assert np.array_equal(form, -0.5 * dacc)
    assert np.array_equal(-m.christoffel(x, v, v),
                          m.geodesic_acceleration(x, v))
    # symmetric in (v, w): each product pairs with its swap in one sum
    assert np.array_equal(m.christoffel(x, w, v), form)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_christoffel_evaluates_one_first_difference_stencil(n):
    # beta and g once at x and once at each x +- H_G e_k, whatever the
    # number of points and fields: no second differences
    m = curvy_split(n)
    calls = {"beta": 0, "gmat": 0}

    def counted(name, f):
        def wrapped(x):
            calls[name] += 1
            return f(x)
        return wrapped
    m.beta, m.gmat = counted("beta", m.beta), counted("gmat", m.gmat)
    rng = np.random.default_rng(60 + n)
    m.christoffel(rng.uniform(-1, 1, size=(7, n + 1)),
                  rng.normal(size=(7, n + 1)), rng.normal(size=(2, 7, n + 1)))
    stencil = 1 + 2 * (1 + n)
    assert calls == {"beta": stencil, "gmat": stencil}


def test_split_kernels_reject_degenerate_metric():
    ones = lambda x: np.ones(np.asarray(x).shape[:-1])
    singular = geo.SplitMetric(
        2, beta=ones,
        gmat=lambda x: np.ones(np.asarray(x).shape[:-1] + (2, 2)))
    no_lapse = geo.SplitMetric(
        2, beta=lambda x: 0.0 * ones(x),
        gmat=lambda x: np.broadcast_to(np.eye(2),
                                       np.asarray(x).shape[:-1] + (2, 2)))
    for m in (singular, no_lapse):
        spray = lambda x: m.geodesic_acceleration(x, np.ones_like(x))
        linearized = lambda x: m.linearized_spray(x, np.ones_like(x),
                                                  x[None], x[None])
        form = lambda x: m.christoffel(x, np.ones_like(x), np.ones_like(x))
        for kernel in (m.inverse, form, spray, linearized):
            with pytest.raises(geo.GeometryError, match="degenerate"):
                kernel(np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# geodesic spray


@pytest.mark.parametrize("n", [1, 2, 3])
def test_split_spray_matches_generic(n):
    m = curvy_split(n)
    rng = np.random.default_rng(10 + n)
    x = rng.uniform(-1.5, 1.5, size=(40, n + 1))
    v = rng.normal(size=(40, n + 1))
    acc = m.geodesic_acceleration(x, v)
    assert acc.shape == (40, n + 1)
    assert rel_dev(acc, -contract(first_kind_christoffel(m, x), v, v)) < 1e-13
    # single points and extra leading axes go through the same kernel
    assert rel_dev(m.geodesic_acceleration(x[3], v[3]), acc[3]) < 1e-13
    lead = m.geodesic_acceleration(x.reshape(4, 10, n + 1),
                                   v.reshape(4, 10, n + 1))
    assert rel_dev(lead.reshape(40, n + 1), acc) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minkowski_spray_is_exact_zero(n):
    m = geo.minkowski(n)
    rng = np.random.default_rng(n)
    acc = m.geodesic_acceleration(rng.normal(size=(5, n + 1)),
                                  rng.normal(size=(5, n + 1)))
    assert acc.shape == (5, n + 1)
    assert np.array_equal(acc, np.zeros((5, n + 1)))


@given(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
       st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       st.floats(-4, 4))
@settings(max_examples=40, deadline=None)
def test_split_spray_is_quadratic_in_velocity(x, v, c):
    m = curvy_split(2)
    x, v = np.array(x), np.array(v)
    acc = m.geodesic_acceleration(x, v)
    scaled = m.geodesic_acceleration(x, c * v)
    # the absolute floor keeps subnormal products out of the comparison
    scale = c * c * float(np.max(np.abs(v))) ** 2
    assert np.max(np.abs(scaled - c * c * acc)) <= 1e-13 * scale + 1e-300


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_split_spray_rejects_non_finite_points_and_derivatives():
    # as christoffel does: a NaN point, and a beta that is finite at the
    # point but infinite one difference step along x1, so that its central
    # difference is infinite
    steep = geo.SplitMetric(
        2, beta=lambda x: np.where(np.asarray(x)[..., 1] > 0.5 * geo.H_G,
                                   np.inf, 1.0),
        gmat=lambda x: np.broadcast_to(np.eye(2),
                                       np.asarray(x).shape[:-1] + (2, 2)))
    nan_point = np.array([[0.1, np.nan, 0.2], [0.0, 0.0, 0.0]])
    cases = [(curvy_split(2), nan_point, "degenerate"),
             (steep, np.zeros((4, 3)), "non-finite")]
    for m, x, match in cases:
        with pytest.raises(geo.GeometryError, match=match):
            m.christoffel(x, np.ones_like(x), np.ones_like(x))
        with pytest.raises(geo.GeometryError, match=match):
            m.geodesic_acceleration(x, np.ones_like(x))
        with pytest.raises(geo.GeometryError, match=match):
            m.linearized_spray(x, np.ones_like(x), x[None], x[None])
    # infinite only beyond the first differences' step: the second
    # differences see it
    far = geo.SplitMetric(
        2, beta=lambda x: np.where(np.asarray(x)[..., 1] > 0.5 * geo.H_G2,
                                   np.inf, 1.0),
        gmat=steep.gmat)
    x = np.zeros((4, 3))
    far.geodesic_acceleration(x, np.ones_like(x))
    with pytest.raises(geo.GeometryError, match="non-finite"):
        far.linearized_spray(x, np.ones_like(x), x[None], x[None])


@pytest.mark.parametrize("n", [2, 3])
def test_linearized_spray_base_rows_are_the_spray(n):
    m = curvy_split(n)
    rng = np.random.default_rng(20 + n)
    x = rng.uniform(-1.5, 1.5, size=(50, n + 1))
    v = rng.normal(size=(50, n + 1))
    xi, eta = rng.normal(size=(2, 3, 50, n + 1))
    acc, dacc = m.linearized_spray(x, v, xi, eta)
    assert np.array_equal(acc, m.geodesic_acceleration(x, v))
    assert dacc.shape == (3, 50, n + 1)
    # each field is linearized on its own: stacking changes no bit
    one = m.linearized_spray(x, v, xi[1:2], eta[1:2])[1]
    assert np.array_equal(one[0], dacc[1])


def curvy_split_symbolic(n):
    """`curvy_split(n)` as a sympy matrix in the symbols x0 (= t) .. xn."""
    X = sp.symbols(f"x0:{n + 1}")
    t = X[0]
    G = sp.zeros(n + 1, n + 1)
    G[0, 0] = -(1 + sp.sin(t + X[1]) / 10)
    for i in range(n):
        for j in range(n):
            G[1 + i, 1 + j] = (
                1 + sp.cos(X[i + 1] + t / 2) / 10 if i == j
                else sp.sin(X[min(i, j) + 1] + (i + j) * t) / 20)
    return X, G


@pytest.mark.parametrize("n", [2, 3])
def test_linearized_spray_symbolic_oracle(n):
    # d/de acc(x + e xi, v + e eta) at e = 0 from exact sympy derivatives,
    # through the generic formula acc = -G^{-1} [v, v] with the first-kind
    # symbols [a, b]_m = 1/2 (d_a G_mb + d_b G_ma - d_m G_ab) and
    # d G^{-1} = -G^{-1} dG G^{-1}.  The bound covers the rounding of the
    # metric's second differences, about eps / H_G2^2 = 2e-8 of its scale
    # (measured 3.4e-8 for n = 2 and 4.0e-8 for n = 3 here, up to 2.4e-7
    # on other draws)
    X, G = curvy_split_symbolic(n)
    dG = [G.diff(s) for s in X]
    at = sp.lambdify(X, [G, dG, [[d.diff(s) for s in X] for d in dG]],
                     "numpy")

    def first_kind(D, a, b):
        return 0.5 * (np.einsum("amb,a,b->m", D, a, b)
                      + np.einsum("bma,a,b->m", D, a, b)
                      - np.einsum("mab,a,b->m", D, a, b))

    rng = np.random.default_rng(30 + n)
    x = rng.uniform(-1.0, 1.0, size=(8, n + 1))
    v, xi, eta = rng.normal(size=(3, 8, n + 1))
    expected = np.empty((8, n + 1))
    for i in range(8):
        G0, D, DD = (np.array(a, dtype=float) for a in at(*x[i]))
        Gi = np.linalg.inv(G0)
        dGi = -Gi @ np.einsum("lab,l->ab", D, xi[i]) @ Gi
        dD = np.einsum("lmab,m->lab", DD, xi[i])
        expected[i] = -(dGi @ first_kind(D, v[i], v[i])
                        + Gi @ first_kind(dD, v[i], v[i])
                        + 2 * Gi @ first_kind(D, v[i], eta[i]))
    dacc = curvy_split(n).linearized_spray(x, v, xi[None], eta[None])[1][0]
    assert rel_dev(dacc, expected) < 2e-6


def test_split_exp_map_builds_no_christoffel_tensor(monkeypatch):
    # the exponential map runs on the spray alone; frame transport, which
    # is built with the chart, is the only user of the Christoffel form
    m = curvy_split(2)
    p = np.zeros(3)
    v = np.array([np.sqrt(float(m.gmat(p)[0, 0]) / float(m.beta(p))),
                  1.0, 0.0])
    g = geo.integrate_null_geodesic(m, p, v, (0.0, 0.6), steps_per_unit=100)
    chart = fermi.FermiChart(g, exp_steps=8)
    s = np.linspace(0.1, 0.5, 5)
    z = np.random.default_rng(3).uniform(-0.05, 0.05, size=(5, 2))
    expect = chart.forward(s, z)
    calls = {"christoffel": 0, "spray": 0}
    spray = m.geodesic_acceleration

    def refuse(*args):
        calls["christoffel"] += 1
        raise AssertionError("the exponential map called christoffel")

    def counting(x, vel):
        calls["spray"] += 1
        return spray(x, vel)

    monkeypatch.setattr(m, "christoffel", refuse)
    monkeypatch.setattr(m, "geodesic_acceleration", counting)
    assert np.array_equal(chart.forward(s, z), expect)
    assert np.array_equal(chart.forward(s[2], z[2]), expect[2])
    assert calls == {"christoffel": 0, "spray": 2 * 4 * 8}


def test_signature_check_rejects_wrong_sign():
    m = geo.SplitMetric(2, beta=lambda x: -np.ones(np.asarray(x).shape[:-1]),
                        gmat=lambda x: np.broadcast_to(np.eye(2), np.asarray(x).shape[:-1] + (2, 2)))
    with pytest.raises(geo.GeometryError):
        m.check_signature(np.zeros(3))


# ---------------------------------------------------------------------------
# geodesics


def test_null_geodesic_minkowski_straight():
    m = geo.minkowski(2)
    g = geo.integrate_null_geodesic(m, [0, 0, 0], [1, 1, 0], (0.0, 2.0))
    s = np.linspace(0, 2, 17)
    pts = g.point(s)
    expect = np.stack([s, s, np.zeros_like(s)], axis=-1)
    assert np.max(np.abs(pts - expect)) < 1e-12


def test_null_geodesic_minkowski_offset():
    m = geo.minkowski(2)
    g = geo.integrate_null_geodesic(m, [1, 0, 0], [1, -1, 0], (0.0, 1.5))
    assert np.allclose(g.point(1.0), [2, -1, 0], atol=1e-12)


def test_null_geodesic_rejects_non_null():
    m = geo.minkowski(2)
    with pytest.raises(geo.GeometryError, match="not light-like"):
        geo.integrate_null_geodesic(m, [0, 0, 0], [1, 0.5, 0], (0, 1))


def test_null_geodesic_split_self_convergence():
    n = 2
    m = geo.SplitMetric(
        n,
        beta=lambda x: np.ones(np.asarray(x).shape[:-1]),
        gmat=lambda x: (1 + 0.05 * np.sin(np.asarray(x)[..., 0]))[..., None, None] * np.eye(n),
    )
    p = np.array([0.0, 0.0, 0.0])
    gfac = 1.05 ** -0.5  # not needed exactly; normalize numerically
    v = np.array([1.0, 1.0, 0.0])
    # make v null: -v0^2 + g11 v1^2 = 0 at t=0 where g11 = 1
    g1 = geo.integrate_null_geodesic(m, p, v, (0.0, 1.0), steps_per_unit=200)
    g2 = geo.integrate_null_geodesic(m, p, v, (0.0, 1.0), steps_per_unit=400)
    assert np.max(np.abs(g1.point(1.0) - g2.point(1.0))) < 1e-7
    assert g1.null_defect < 1e-8
    assert geo.geodesic_residual(g1) < 1e-6


def test_geodesic_residual_samples_the_curve_three_times():
    # the samples at mid +- h serve both the velocity and the acceleration:
    # three point calls, and the value of the five-call formula bit for bit
    g = geo.integrate_null_geodesic(split_linear_t(), [0.0, 0.0, 0.0],
                                    [1.0, 1.0, 0.0], (0.0, 1.0))
    s = g.s
    mid = 0.5 * (s[:-1] + s[1:])
    h = np.minimum(np.diff(s), 1e-3) * 0.5
    xm = g.point(mid)
    vm = (g.point(mid + h) - g.point(mid - h)) / (2 * h[:, None])
    am = (g.point(mid + h) - 2 * xm + g.point(mid - h)) / (h[:, None] ** 2)
    ref = float(np.max(np.abs(am - g.metric.geodesic_acceleration(xm, vm))))
    calls = []
    point = g.point
    g.point = lambda sq: calls.append(1) or point(sq)
    assert geo.geodesic_residual(g) == ref
    assert len(calls) == 3


def test_null_geodesic_rejects_non_finite_sample(monkeypatch):
    # a spray that overflows makes the samples on both sides of p infinite
    m = split_linear_t()
    monkeypatch.setattr(m, "geodesic_acceleration",
                        lambda x, v: np.full(np.shape(v), 1e308))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(geo.GeometryError, match="non-finite geodesic"):
        geo.integrate_null_geodesic(m, np.zeros(3), np.array([1.0, 1.0, 0.0]),
                                    (-0.5, 0.5))


def test_null_geodesic_negative_range():
    m = geo.minkowski(2)
    g = geo.integrate_null_geodesic(m, [1, 1, 0], [1, 1, 0], (-1.0, 1.0))
    assert np.allclose(g.point(-1.0), [0, 0, 0], atol=1e-12)
    assert np.allclose(g.velocity(-0.3), [1, 1, 0], atol=1e-10)


# ---------------------------------------------------------------------------
# causal structure


def test_diamond_membership_examples():
    assert geo.causal_diamond_contains(1, 4, [2, 2.9, 0])
    assert not geo.causal_diamond_contains(1, 4, [2, 3.1, 0])
    for t in (0.5, 1.7, 3.9):
        assert geo.causal_diamond_contains(1, 4, [t, 0, 0])


def test_diamond_agrees_with_causal_reachability():
    # D = J+(mho) cap J-(mho): p in D iff some point of mho-bar reaches p and
    # p reaches some point of mho-bar. Checked with causal membership on the
    # closed Minkowski cone.
    m = geo.minkowski(2)
    rng = np.random.default_rng(3)
    r, T = 1.0, 4.0

    def causal(a, b):
        dt = b[0] - a[0]
        return dt >= 0 and dt >= np.linalg.norm(np.asarray(b[1:]) - np.asarray(a[1:])) - 1e-12

    # sample boundary+interior points of mho on a grid
    ts = np.linspace(0, T, 9)
    xs = np.linspace(-r, r, 9)
    mho_pts = [(t, x1, x2) for t in ts for x1 in xs for x2 in xs
               if np.hypot(x1, x2) <= r]
    for _ in range(100):
        p = np.array([rng.uniform(0.01, T - 0.01), rng.uniform(-4, 4), rng.uniform(-4, 4)])
        inside = geo.causal_diamond_contains(r, T, p)
        reach_from = any(causal(q, p) for q in mho_pts)
        reach_to = any(causal(p, q) for q in mho_pts)
        # grid sampling of mho slightly under-covers the boundary; allow margin
        if inside and not (reach_from and reach_to):
            # must be within one grid cell of the boundary
            slack = min(r + p[0] - np.linalg.norm(p[1:]),
                        r + T - p[0] - np.linalg.norm(p[1:]))
            assert slack < 0.3
        if (reach_from and reach_to):
            assert inside


# ---------------------------------------------------------------------------
# expression grammar


def test_parse_expression_rejects_unknown_symbol():
    with pytest.raises(ExpressionError):
        parse_expression("t + y", 2)


def test_scalar_field_value():
    f = ScalarField.from_text("sin(t) * x1 + x2^2", 2)
    x = np.array([0.5, 2.0, 3.0])
    assert f(x) == pytest.approx(np.sin(0.5) * 2 + 9.0)
    assert f.time_dependent


@pytest.mark.parametrize("text", [
    "__import__('os').getcwd()", "x1.real", "x1[0]", "(lambda: 7)()",
    "log(x1)", "pi*x1", "E", "Abs(x1)", "gamma(x1)", "x1!", "sin(x=x1)",
    "sin(x1, x2)", "sin(x1)(x2)", "sin(*x1)", "sin", "'a'", "1j", "True",
    "x1 // 2", "x1 % 2", "x1 @ x2", "x1 < x2", "x1 if t else x2", "x3",
    "not x1", "[x1]", "x1 +", "",
    # constant arithmetic fails at every evaluation, so it fails here
    "1/0 + x1", "10.0^400",
    pytest.param("x1 + " + "9" * 400, id="huge-int"),
    # nesting deeper than the compiler or the parser allows
    pytest.param("x1" + " + x1" * 2000, id="long-sum"),
    pytest.param("-" * 100000 + "x1", id="long-minus"),
    pytest.param("(" * 300 + "x1" + ")" * 300, id="deep-parentheses"),
])
def test_parse_expression_rejects_outside_grammar(text):
    with pytest.raises(ExpressionError):
        parse_expression(text, 2)


@pytest.mark.parametrize("text, ref", [
    ("x1^2 + x2**3 - t^-1", lambda t, x1, x2: x1**2 + x2**3 - t**-1),
    ("-x1^2 + +x2 - -t", lambda t, x1, x2: -x1**2 + +x2 - -t),
    ("2.5e-1*exp(-((x1-1.1)^2 + x2^2)/0.16)",
     lambda t, x1, x2: 2.5e-1 * np.exp(-((x1 - 1.1)**2 + x2**2) / 0.16)),
    ("sqrt(1 + cos(sin(x1*t))^2) / 1.5E+2",
     lambda t, x1, x2: np.sqrt(1 + np.cos(np.sin(x1 * t))**2) / 1.5E+2),
    ("7", lambda t, x1, x2: np.full(np.shape(t), 7.0)),
    # the benchmark's potential and the README's
    ("exp(-((x1-1.1)^2 + x2^2)/0.16)",
     lambda t, x1, x2: np.exp(-((x1 - 1.1)**2 + x2**2) / 0.16)),
    ("exp(-((x1-1.0)^2 + x2^2) / 0.16)",
     lambda t, x1, x2: np.exp(-((x1 - 1.0)**2 + x2**2) / 0.16)),
])
def test_scalar_field_evaluates_as_written(text, ref):
    f = ScalarField.from_text(text, 2)
    x = np.random.default_rng(1).uniform(0.5, 2.0, (4, 5, 3))
    assert np.array_equal(f(x), ref(*np.moveaxis(x, -1, 0)))
    # a single point takes the values of a one-point batch: the reference
    # runs on arrays too, since numpy scalars' ** can differ from the
    # arrays' in the last bit
    point = x[1, 2]
    assert np.array_equal(f(point), ref(*point[:, None])[0])
    assert f.time_dependent == ("t" in text)


def _expressions():
    # the grammar's pieces, with the exponents numpy's ** treats apart
    # (2, -1 and 0.5: square, reciprocal and sqrt) beside ones it does not,
    # and constant subtrees that Python folds or evaluates itself
    leaves = st.sampled_from(["t", "x1", "x2", "1.1", "0.16", "3", "-2.5",
                              "(1/3)", "sqrt(0.25)", "sin(1)", "2^0.5"])
    exponents = st.sampled_from(["2", "-1", "0.5", "(1/2)", "2.0", "-0.5",
                                 "3", "0", "1", "sqrt(0.25)", "(1+1)"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
                lambda a: f"({a[0]} {a[1]} {a[2]})"),
            st.tuples(inner, exponents).map(lambda a: f"({a[0]})^{a[1]}"),
            st.tuples(st.sampled_from("-+"), inner).map("".join),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt"]),
                      inner).map(lambda a: f"{a[0]}({a[1]})"))
    return st.recursive(leaves, extend, max_leaves=10)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(text=_expressions(), seed=st.integers(0, 2**16))
@example(text="x1^0.5 + (x2 - t)^-1 * -x2^2 - (1/3)", seed=0)
@example(text="(2*x1)^(1/2) + x2^3 + 2^t", seed=1)
def test_scalar_field_tape_is_eval_bit_for_bit(text, seed):
    # the tape replays the ufuncs that eval of the compiled code calls on
    # arrays, with or without out=, and its registers carry nothing from
    # call to call; a single point takes the values of a one-point batch
    # (eval on a single point would do its arithmetic on numpy scalars,
    # whose ** differs from the arrays' in the last bit)
    try:
        code = parse_expression(text, 2)
    except ExpressionError:
        return
    f = ScalarField(code, 2)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (3, 5, 3))
    # signed zeros and infinities, where the sign bits and NaNs show
    x[0, :3] = [[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [np.inf, -np.inf, 0.5]]
    namespace = {"__builtins__": {}, "sin": np.sin, "cos": np.cos,
                 "exp": np.exp, "sqrt": np.sqrt}
    with np.errstate(all="ignore"):
        for pts in (x, x[1], x[0, 0], x):
            batch = pts.reshape(-1, 3)
            cols = {name: batch[:, i] for i, name in
                    enumerate(["t", "x1", "x2"])}
            ref = np.broadcast_to(
                np.asarray(eval(code, namespace, cols), dtype=float),
                batch.shape[:-1]).reshape(pts.shape[:-1])
            out = np.full(pts.shape[:-1], 7.0)
            assert f(pts, out=out) is out
            assert _bits(out) == _bits(ref)
            assert _bits(f(pts)) == _bits(ref)


def test_parse_expression_rejects_a_complex_constant():
    # (-8)^(1/3) is complex in Python; its real part is not the potential
    with pytest.raises(ExpressionError, match="complex"):
        ScalarField.from_text("x1 * (-8)^(1/3)", 2)


def test_parse_expression_power_tower_fails_fast():
    # 9^9^9 must overflow in floating point, not build 9**387420489
    # exactly; a subprocess with a timeout turns a hang into a failure
    src = str(Path(diamondwave.__file__).resolve().parents[1])
    code = (f"import sys, time; sys.path.insert(0, {src!r})\n"
            "from diamondwave.exprs import parse_expression, ExpressionError\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            "    parse_expression('9^9^9', 2)\n"
            "except ExpressionError:\n"
            "    print(time.perf_counter() - t0)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert float(out.stdout) < 1.0


def test_import_loads_no_sympy():
    src = str(Path(diamondwave.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import diamondwave; "
            "print('sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_recovery_routes_load_no_scipy():
    # scipy is imported where it is used (the beam's splines, go's
    # cumulative Simpson and interpolators); the package, the CLI and both
    # recovery routes run on numpy alone
    src = str(Path(diamondwave.__file__).resolve().parents[1])
    code = f"""
import sys
sys.path.insert(0, {src!r})
import numpy as np

def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

import diamondwave
seen = [scipy_loaded()]
import diamondwave.cli
seen.append(scipy_loaded())
from diamondwave import exprs, recovery
from diamondwave import geometry as geo
m = geo.minkowski(2)
V = exprs.ScalarField.from_text("exp(-((x1-1.1)^2 + x2^2)/0.16)", 2)
recovery.recover_point(m, V, np.array([2.5, 1.05, 0.0]), 1.0, 5.0)
seen.append(scipy_loaded())
recovery.full_path_interaction(m, None, p=(1.0, 0.9, 0.0), r=0.8, T=2.0,
                               tau=10.0, sigma=0.6, delta=0.1, h=0.04,
                               rho=0.06, check=True)
seen.append(scipy_loaded())
print(seen)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == str([False] * 4)
