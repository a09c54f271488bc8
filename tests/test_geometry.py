"""Tests for metrics, index gymnastics, null geodesics and the wave operator."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

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
# Christoffel symbols


def test_christoffel_minkowski_zero():
    m = geo.minkowski(2)
    assert np.allclose(m.christoffel([0.4, -0.2, 1.0]), 0.0)


def test_christoffel_linear_t_oracle():
    # beta=1, g=(1+0.1t)I: Gamma^0_11 = 0.05, Gamma^1_01 = 0.05/(1+0.1t)
    m = split_linear_t()
    for t in (0.0, 1.3):
        gam = m.christoffel([t, 0.2, -0.1])
        assert gam[0, 1, 1] == pytest.approx(0.05, abs=1e-8)
        assert gam[1, 0, 1] == pytest.approx(0.05 / (1 + 0.1 * t), abs=1e-8)
        assert gam[2, 0, 2] == pytest.approx(0.05 / (1 + 0.1 * t), abs=1e-8)


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
    assert np.allclose(m.christoffel(np.array(p)), expected, atol=1e-7)


def test_christoffel_symmetry_random():
    rng = np.random.default_rng(7)
    m = geo.SplitMetric(
        2,
        beta=lambda x: 1 + 0.1 * np.cos(np.asarray(x)[..., 0]),
        gmat=lambda x: (1 + 0.1 * np.sin(np.asarray(x)[..., 1]))[..., None, None] * np.eye(2),
    )
    for _ in range(5):
        p = rng.uniform(-1, 1, size=3)
        gam = m.christoffel(p)
        assert np.allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-10)


def curvy_split(n, analytic):
    """Split metric with every Christoffel block nonzero; the analytic one
    carries the sympy derivatives, the other one finite differences."""
    g_texts = [[f"1 + 0.1*cos(x{i + 1} + 0.5*t)" if i == j
                else f"0.05*sin(x{min(i, j) + 1} + {i + j}*t)"
                for j in range(n)] for i in range(n)]
    m = geo.SplitMetric.from_expressions(n, "1 + 0.1*sin(t + x1)", g_texts)
    return m if analytic else geo.SplitMetric(n, m.beta, m.gmat)


def first_kind_christoffel(m, x):
    """The generic formula, with a LAPACK inverse of the full matrix."""
    ginv = np.linalg.inv(m.matrix(x))
    dg = m.dmatrix(x)
    term = (np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg)
            - dg)
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, term)


def rel_dev(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("analytic", [True, False])
def test_split_kernels_match_generic(n, analytic):
    m = curvy_split(n, analytic)
    x = np.random.default_rng(n).uniform(-1.5, 1.5, size=(40, n + 1))
    assert rel_dev(m.inverse(x), np.linalg.inv(m.matrix(x))) < 1e-13
    gam = m.christoffel(x)
    assert gam.shape == (40,) + (n + 1,) * 3
    assert rel_dev(gam, first_kind_christoffel(m, x)) < 1e-13
    assert rel_dev(gam, geo.Metric.christoffel(m, x)) < 1e-13
    # single points go through the same kernels
    assert rel_dev(m.christoffel(x[3]), gam[3]) < 1e-13


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
        for kernel in (m.inverse, m.christoffel, spray):
            with pytest.raises(geo.GeometryError, match="degenerate"):
                kernel(np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# geodesic spray


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("analytic", [True, False])
def test_split_spray_matches_generic(n, analytic):
    m = curvy_split(n, analytic)
    rng = np.random.default_rng(10 + n)
    x = rng.uniform(-1.5, 1.5, size=(40, n + 1))
    v = rng.normal(size=(40, n + 1))
    acc = m.geodesic_acceleration(x, v)
    assert acc.shape == (40, n + 1)
    assert rel_dev(acc, geo.Metric.geodesic_acceleration(m, x, v)) < 1e-13
    first_kind = -np.einsum("...kij,...i,...j->...k",
                            first_kind_christoffel(m, x), v, v)
    assert rel_dev(acc, first_kind) < 1e-13
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
    m = curvy_split(2, analytic=False)
    x, v = np.array(x), np.array(v)
    acc = m.geodesic_acceleration(x, v)
    scaled = m.geodesic_acceleration(x, c * v)
    # the absolute floor keeps subnormal products out of the comparison
    scale = c * c * float(np.max(np.abs(v))) ** 2
    assert np.max(np.abs(scaled - c * c * acc)) <= 1e-13 * scale + 1e-300


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_split_spray_rejects_non_finite_points_and_derivatives():
    # as christoffel does: a NaN point, and infinite analytic derivatives
    steep = geo.SplitMetric(
        2, beta=lambda x: np.ones(np.asarray(x).shape[:-1]),
        gmat=lambda x: np.broadcast_to(np.eye(2),
                                       np.asarray(x).shape[:-1] + (2, 2)),
        dbeta=lambda x: np.full(np.asarray(x).shape[:-1] + (3,), np.inf),
        dgmat=lambda x: np.zeros(np.asarray(x).shape[:-1] + (3, 2, 2)))
    nan_point = np.array([[0.1, np.nan, 0.2], [0.0, 0.0, 0.0]])
    cases = [(curvy_split(2, analytic=False), nan_point, "degenerate"),
             (steep, np.zeros((4, 3)), "non-finite")]
    for m, x, match in cases:
        with pytest.raises(geo.GeometryError, match=match):
            m.christoffel(x)
        with pytest.raises(geo.GeometryError, match=match):
            m.geodesic_acceleration(x, np.ones_like(x))


def test_split_exp_map_builds_no_christoffel_tensor(monkeypatch):
    # the exponential map runs on the spray alone; frame transport, which
    # is built with the chart, is the only user of the tensor left
    m = curvy_split(2, analytic=False)
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

    def refuse(x):
        calls["christoffel"] += 1
        raise AssertionError("the exponential map built the tensor")

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


def test_null_geodesic_negative_range():
    m = geo.minkowski(2)
    g = geo.integrate_null_geodesic(m, [1, 1, 0], [1, 1, 0], (-1.0, 1.0))
    assert np.allclose(g.point(-1.0), [0, 0, 0], atol=1e-12)
    assert np.allclose(g.velocity(-0.3), [1, 1, 0], atol=1e-10)


# ---------------------------------------------------------------------------
# d'Alembertian


def test_dalembertian_t_squared():
    m = geo.minkowski(2)
    val = geo.dalembertian(m, lambda x: np.asarray(x)[..., 0] ** 2, [0.5, 0.1, 0.2])
    assert val == pytest.approx(2.0, abs=1e-8)


def test_dalembertian_wave_kernel_zero():
    m = geo.minkowski(2)

    def u(x):
        x = np.asarray(x)
        return x[..., 0] ** 2 + 0.5 * (x[..., 1] ** 2 + x[..., 2] ** 2)

    # box u = d_t^2 u - Lap u = 2 - 2 = 0
    assert geo.dalembertian(m, u, [0.3, -0.2, 0.4]) == pytest.approx(0.0, abs=1e-8)


def test_dalembertian_split_symbolic_oracle():
    # beta=1, g=e^{0.1 t} I, u=t; oracle via sympy on the divergence-form formula
    t, x1, x2 = sp.symbols("t x1 x2")
    gm = sp.diag(-1, sp.exp(t / 10), sp.exp(t / 10))
    ginv = gm.inv()
    det = sp.sqrt(-gm.det())  # Lorentzian: det < 0
    u_sym = t
    syms = (t, x1, x2)
    box = -sum(sp.diff(det * ginv[i, j] * sp.diff(u_sym, syms[j]), syms[i])
               for i in range(3) for j in range(3)) / det
    p = (0.4, 0.1, -0.3)
    expected = float(box.subs(dict(zip(syms, p))))

    m = geo.SplitMetric(
        2,
        beta=lambda x: np.ones(np.asarray(x).shape[:-1]),
        gmat=lambda x: np.exp(0.1 * np.asarray(x)[..., 0])[..., None, None] * np.eye(2),
    )
    val = geo.dalembertian(m, lambda x: np.asarray(x)[..., 0], np.array(p))
    assert val == pytest.approx(expected, abs=1e-6)


def test_dalembertian_order_of_accuracy():
    m = geo.minkowski(2)

    def u(x):
        x = np.asarray(x)
        return np.sin(x[..., 0] + 0.5 * x[..., 1]) * np.cos(x[..., 2])

    # exact: (-1 + 0.25 + 1) * u = 0.25 sin(..)cos(..) -> box = d_t^2 - Lap
    p = np.array([0.2, 0.3, -0.1])
    exact = (-1 + 0.25 + 1) * np.sin(p[0] + 0.5 * p[1]) * np.cos(p[2])
    e1 = abs(geo.dalembertian(m, u, p, h_op=0.08) - exact)
    e2 = abs(geo.dalembertian(m, u, p, h_op=0.04) - exact)
    order = np.log2(e1 / e2)
    assert order > 3.5


# ---------------------------------------------------------------------------
# causal structure


def test_diamond_membership_examples():
    assert geo.causal_diamond_contains(1, 4, [2, 2.9, 0])
    assert not geo.causal_diamond_contains(1, 4, [2, 3.1, 0])
    for t in (0.5, 1.7, 3.9):
        assert geo.causal_diamond_contains(1, 4, [t, 0, 0])


def test_time_separation_minkowski():
    m = geo.minkowski(2)
    assert geo.time_separation(m, [0, 0, 0], [2, 1, 0]) == pytest.approx(np.sqrt(3))
    assert geo.time_separation(m, [1, 2, 0], [1, 2, 0]) == 0.0
    assert geo.time_separation(m, [0, 0, 0], [1, 2, 0]) == 0.0
    # past-directed
    assert geo.time_separation(m, [2, 0, 0], [0, 0, 0]) == 0.0


def test_diamond_agrees_with_time_separation():
    # D = J+(mho) cap J-(mho): p in D iff some point of mho-bar reaches p and
    # p reaches some point of mho-bar. Checked with causal membership via
    # time_separation >= 0 on the closed cone.
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


def test_time_separation_split_matches_minkowski_limit():
    # tiny perturbation: shooting should land near the closed form
    m = geo.SplitMetric(
        2,
        beta=lambda x: np.ones(np.asarray(x).shape[:-1]),
        gmat=lambda x: (1 + 0.02 * np.sin(np.asarray(x)[..., 0]))[..., None, None] * np.eye(2),
    )
    p = np.array([0.0, 0.0, 0.0])
    q = np.array([2.0, 1.0, 0.0])
    tau = geo.time_separation(m, p, q)
    assert tau == pytest.approx(np.sqrt(3), rel=0.05)


# ---------------------------------------------------------------------------
# expression grammar


def test_parse_expression_rejects_unknown_symbol():
    with pytest.raises(ExpressionError):
        parse_expression("t + y", 2)


def test_scalar_field_value_and_gradient():
    f = ScalarField.from_text("sin(t) * x1 + x2^2", 2)
    x = np.array([0.5, 2.0, 3.0])
    assert f(x) == pytest.approx(np.sin(0.5) * 2 + 9.0)
    assert np.allclose(f.gradient(x), [np.cos(0.5) * 2, np.sin(0.5), 6.0])


def test_split_metric_from_expressions():
    m = geo.SplitMetric.from_expressions(2, "1", [["1 + 0.1*t", "0"], ["0", "1 + 0.1*t"]])
    gam = m.christoffel(np.array([1.0, 0.0, 0.0]))
    assert gam[0, 1, 1] == pytest.approx(0.05, abs=1e-12)
    assert gam[1, 0, 1] == pytest.approx(0.05 / 1.1, abs=1e-12)
