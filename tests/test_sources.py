"""Cutoff surgery, covector dependence, and returning-geodesic tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from diamondwave import go, solver, sources
from diamondwave import geometry as geo
from diamondwave.recovery import LinePacket


# -- cutoffs -----------------------------------------------------------------

def test_cutoff_profiles():
    cut = sources.CutoffPair(t0=1.0, rho=0.25)
    t = np.linspace(0.0, 2.0, 401)
    zm, zp = cut.zminus(t), cut.zplus(t)
    assert np.all(zm[t < 0.75 - 1e-12] == 0)
    assert np.all(zm[t > 1.0 + 1e-12] == 1)
    assert np.all(zp[t < 1.0 - 1e-12] == 1)
    assert np.all(zp[t > 1.25 + 1e-12] == 0)
    # zeta_- = 1 wherever 1 - zeta_+ is nonzero
    assert np.all(zm[zp < 1] == 1)
    assert np.all(np.diff(zm) >= 0) and np.all(np.diff(zp) <= 0)


def test_smoothstep_is_c1_at_ends():
    h = 1e-6
    assert sources.smoothstep7(h) < 1e-20
    assert 1 - sources.smoothstep7(1 - h) < 1e-20


# -- covector algebra --------------------------------------------------------

def test_kappa_closed_form_sigma_06():
    k1, k2 = sources.kappa_closed_form(0.6)
    assert k1 == pytest.approx(3.24, abs=1e-14)
    assert k2 == pytest.approx(-1.8, abs=1e-14)


def test_symmetric_quad_matches_closed_form():
    m = geo.minkowski(2)
    p = np.array([2.0, 0.3, -0.1])
    quad = sources.perturb_covectors(
        m, p, xi0_sharp=[1.0, -1.0, 0.0], xi1_sharp=[1.0, 1.0, 0.0],
        sigma_tilde=0.6)
    k1, k2 = sources.kappa_closed_form(0.6)
    assert quad.kappa == pytest.approx([0.36, k1, k2, k2], abs=1e-12)
    assert quad.residual() < 1e-12
    for v in quad.sharp:
        assert abs(geo.sharp(m, p, geo.flat(m, p, v)) @ quad.xi[0]) < np.inf
        assert abs(v[0] ** 2 - v[1:] @ v[1:]) < 1e-12


def test_kappa1_tends_to_four():
    m = geo.minkowski(2)
    quad = sources.perturb_covectors(
        m, np.zeros(3), [1.0, -1.0, 0.0], [1.0, 1.0, 0.0], 1e-4)
    assert quad.kappa[1] == pytest.approx(4.0, abs=1e-6)


def test_general_route_split_metric():
    m = geo.SplitMetric(
        2,
        beta=lambda x: 1 + 0.05 * np.sin(np.asarray(x)[..., 1]),
        gmat=lambda x: (1 + 0.05 * np.asarray(x)[..., 0])[..., None, None]
        * np.eye(2),
    )
    p = np.array([1.0, 0.4, 0.2])
    G = m.matrix(p)

    def null_dir(u):
        a, b = G[0, 0], 2 * G[0, 1:] @ u
        c = u @ G[1:, 1:] @ u
        s = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
        return np.concatenate([[s], u]) / s

    v0 = null_dir(np.array([np.cos(2.5), np.sin(2.5)]))
    v1 = null_dir(np.array([1.0, 0.0]))
    kappas = {}
    for st in (0.1, 0.05):
        quad = sources.perturb_covectors(m, p, v0, v1, st)
        assert quad.residual() < 1e-12
        for v in quad.sharp:
            assert abs(v @ G @ v) < 1e-12
        kappas[st] = quad.kappa
    # kappa_0 -> 0 while the others stay bounded away from zero
    assert kappas[0.05][0] == pytest.approx(0.0025)
    for j in (1, 2, 3):
        assert abs(kappas[0.1][j]) > 0.05
        assert abs(kappas[0.05][j]) > 0.05
        assert kappas[0.1][j] * kappas[0.05][j] > 0


def test_degenerate_pair_rejected():
    m = geo.minkowski(2)
    with pytest.raises(sources.SourceError, match="degenerate"):
        sources.perturb_covectors(m, np.zeros(3), [1.0, 1.0, 0.0],
                                  [1.0, 1.0, 0.0], 0.1)


def test_both_branch_signs():
    # xi0 on the same side as xi1: the small b(sigma) = 1 - sqrt(1-sigma^2)
    # branch, with sigma set by the angle between the two null directions
    m = geo.minkowski(2)
    st = 0.02
    quad = sources.perturb_covectors(
        m, np.zeros(3), [1.0, np.cos(0.2), np.sin(0.2)], [1.0, 1.0, 0.0], st)
    assert quad.residual() < 1e-12
    sig = np.sin(0.2)
    b = 1 - np.sqrt(1 - sig**2)
    assert quad.kappa[1] == pytest.approx(2 * b, rel=0.1)
    assert quad.kappa[2] < 0 and quad.kappa[3] < 0


# -- returning geodesics -----------------------------------------------------

def test_minkowski_returning_closed_form():
    m = geo.minkowski(2)
    p = np.array([2.0, 2.0, 0.0])
    ret = sources.find_returning_geodesics(m, p, r=1.0, T=5.0)
    assert np.allclose(ret.q_minus, [0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ret.q_plus, [4.0, 0.0, 0.0], atol=1e-12)
    for g in (ret.geod_minus, ret.geod_plus):
        assert np.min(np.linalg.norm(g.x - p, axis=-1)) < 1e-9
    assert ret.margin > 0.1


def test_returning_tangents_independent():
    m = geo.minkowski(2)
    ret = sources.find_returning_geodesics(m, np.array([2.0, 2.0, 0.0]),
                                           r=1.0, T=5.0)
    im = np.argmin(np.linalg.norm(ret.geod_minus.x - ret.p, axis=-1))
    ip = np.argmin(np.linalg.norm(ret.geod_plus.x - ret.p, axis=-1))
    tm = ret.geod_minus.xdot[im]
    tp = ret.geod_plus.xdot[ip]
    assert abs(tm[1] * tp[2] - tm[2] * tp[1]) + abs(
        tm[0] * tp[1] - tm[1] * tp[0]) > 0.1


@pytest.mark.parametrize("p, anchor", [
    ([2.0, 2.0, 0.0], [0.0, 0.0]),
    ([2.5, 1.05, 0.2], [0.0, 0.0]),
    ([2.2, -0.6, 1.3], [0.3, -0.2]),
])
def test_closed_form_margin_matches_sampled(p, anchor):
    # the sampled margin of the same lines is the closed form up to the
    # node spacing: at least it, and at most one step along each line more
    m = geo.minkowski(2)
    p = np.array(p)
    ret = sources.find_returning_geodesics(m, p, r=1.0, T=5.0,
                                           anchors=[np.array(anchor)])
    exclude = 0.1 * (ret.q_plus[0] - ret.q_minus[0])
    sampled = sources._intersection_margin(ret.geod_minus, ret.geod_plus,
                                           p, exclude)
    step = max(np.max(np.linalg.norm(np.diff(g.x, axis=0), axis=-1))
               for g in (ret.geod_minus, ret.geod_plus))
    assert ret.margin - 1e-12 <= sampled <= ret.margin + 2 * step
    assert ret.margin == pytest.approx(np.sqrt(2) * exclude, rel=1e-12)


@pytest.mark.parametrize("p", [[2.0, -1.5], [2.5, 1.0, 0.5, 0.3]])
def test_flat_returning_lines_in_one_and_three_dimensions(p):
    # the closed form aims along p - anchor in any dimension, also to the
    # left of the anchor in 1+1
    m = geo.minkowski(len(p) - 1)
    p = np.array(p)
    ret = sources.find_returning_geodesics(m, p, r=1.0, T=5.0)
    d = np.linalg.norm(p[1:])
    assert np.allclose(ret.q_minus, np.r_[p[0] - d, 0 * p[1:]], atol=1e-12)
    assert np.allclose(ret.q_plus, np.r_[p[0] + d, 0 * p[1:]], atol=1e-12)
    for g in (ret.geod_minus, ret.geod_plus):
        assert np.min(np.linalg.norm(g.x - p, axis=-1)) == 0.0
        assert np.allclose(g.x, g.x[0] + (g.s - g.s[0])[:, None] * g.xdot)


@pytest.mark.parametrize("na, nb", [(1, 1), (37, 128), (50, 300), (300, 7)])
def test_intersection_margin_matches_dense(na, nb):
    # blockwise over the second curve, the margin is the dense minimum bit
    # for bit wherever the closest pair sits, with the ball around p
    # excluded from both curves
    rng = np.random.default_rng(na + nb)
    p = np.zeros(3)
    gm = SimpleNamespace(x=rng.normal(size=(na, 3)))
    b0 = rng.normal(size=(nb, 3))
    for j in range(nb):
        gp = SimpleNamespace(x=b0.copy())
        gp.x[j] = gm.x[j % na] + 1e-3
        for exclude in (0.0, 0.8):
            a = gm.x[np.linalg.norm(gm.x - p, axis=-1) > exclude]
            b = gp.x[np.linalg.norm(gp.x - p, axis=-1) > exclude]
            dense = (float(np.linalg.norm(a[:, None] - b[None, :],
                                          axis=-1).min())
                     if len(a) and len(b) else 0.0)
            assert sources._intersection_margin(gm, gp, p, exclude) == dense


def test_point_inside_cylinder_rejected():
    m = geo.minkowski(2)
    with pytest.raises(sources.SourceError, match="outside"):
        sources.find_returning_geodesics(m, np.array([2.0, 0.2, 0.0]),
                                         r=1.0, T=5.0)


def test_split_metric_shooting_hits_endpoint():
    m = geo.SplitMetric(
        2,
        beta=lambda x: np.ones(np.asarray(x).shape[:-1]),
        gmat=lambda x: (1 + 0.03 * np.sin(np.asarray(x)[..., 0]))[..., None, None]
        * np.eye(2),
    )
    p = np.array([2.0, 1.8, 0.1])
    ret = sources.find_returning_geodesics(m, p, r=1.0, T=5.0)
    for g in (ret.geod_minus, ret.geod_plus):
        assert np.min(np.linalg.norm(g.x - p, axis=-1)) < 1e-6
    assert ret.margin > 0.05


# -- source surgery ----------------------------------------------------------

def packet_1d(V=None, N=4, delta=0.2, chi="bump"):
    return go.GOPacket(1, np.array([0.5, 0.0]), np.array([-1.0, 1.0]),
                       delta=delta, V=V, N=N, chi=chi, s_range=(-1.0, 1.5))


@pytest.fixture(scope="module")
def surgery_setup():
    m = geo.minkowski(1)
    grid = solver.Grid.for_ball(1, 1.0, 1.5, h=0.005, dt=0.002, pad=0.5)
    return m, grid, packet_1d()


def test_source_time_support(surgery_setup):
    m, grid, p = surgery_setup
    src, zu = sources.make_source(p, m, grid, tau=30.0, r=1.0)
    cut = src.cutoffs
    times = grid.times()
    sup_t = np.max(np.abs(src.field), axis=1)
    # the wave-operator time stencil widens the window by one step
    assert np.all(sup_t[times < cut.t0 - cut.rho - grid.dt - 1e-12] == 0)
    assert np.all(sup_t[times > cut.t0 + cut.rho + grid.dt + 1e-12] == 0)


def test_source_spatial_support(surgery_setup):
    m, grid, p = surgery_setup
    src, _ = sources.make_source(p, m, grid, tau=30.0, r=1.0)
    x = grid.axis(0)
    assert np.max(np.abs(src.field[:, np.abs(x) >= 1.0])) == 0


def test_surgery_identity(surgery_setup):
    # (box+V)(zeta_- u) - f = (1 - zeta_+)(box+V)u wherever zeta_- == 1
    m, grid, p = surgery_setup
    src, zu = sources.make_source(p, m, grid, tau=30.0, r=1.0)
    cut = src.cutoffs
    Pzu = solver.apply_wave_operator(m, grid, None, zu)
    u = solver.GridField.from_closure(
        grid, lambda pts: p.eval(30.0, pts), dtype=complex)
    Pu = solver.apply_wave_operator(m, grid, None, u)
    times = grid.times()
    sel = times > cut.t0 + 2 * grid.dt
    lhs = Pzu.data[sel] - src.field[sel]
    rhs = (1 - cut.zplus(times[sel]))[:, None] * Pu.data[sel]
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(Pu.data))


def test_forward_solution_tracks_cut_packet(surgery_setup):
    m, grid, p = surgery_setup
    for tau in (15.0, 30.0):
        src, zu = sources.make_source(p, m, grid, tau=tau, r=1.0)
        U = solver.solve_forward(m, grid, None, src)
        err = float(np.max(np.abs(U.data - zu.data)))
        assert err < 0.02 * zu.sup_norm()


def test_test_function_mirrors_source(surgery_setup):
    m, grid, p = surgery_setup
    fplus, zpu = sources.make_test_function(p, m, grid, tau=30.0, r=1.0)
    cut = fplus.cutoffs
    times = grid.times()
    sup_t = np.max(np.abs(fplus.field), axis=1)
    assert np.all(sup_t[times < cut.t0 - cut.rho - grid.dt - 1e-12] == 0)
    assert np.all(sup_t[times > cut.t0 + cut.rho + grid.dt + 1e-12] == 0)
    # backward solution approximates zeta_+ u
    U = solver.solve_backward(m, grid, None, fplus)
    assert float(np.max(np.abs(U.data - zpu.data))) < 0.02 * zpu.sup_norm()


@pytest.mark.parametrize("which", ["1d", "2d"])
def test_default_rho_line_packet_matches_grid_packet(surgery_setup, which):
    # the support tube is read through q, flow_point, delta and n, which
    # both packet types expose
    if which == "1d":
        _, grid, gp = surgery_setup
    else:
        grid = solver.Grid.for_ball(2, 1.0, 1.5, h=0.05, dt=0.02, pad=0.2)
        gp = go.GOPacket(2, np.array([0.5, 0.1, -0.1]),
                         np.array([-1.0, 0.6, 0.8]), delta=0.15, N=0,
                         s_range=(-1.0, 1.0), ns=41, nw=9)
    lp = LinePacket(gp.q, gp.xi, gp.delta)
    rho = sources.default_rho(gp, grid, 1.0, gp.q[0])
    assert rho > grid.dt
    assert sources.default_rho(lp, grid, 1.0, gp.q[0]) == rho


def test_aperture_leak_rejected(surgery_setup):
    m, grid, _ = surgery_setup
    fat = packet_1d(N=1, delta=0.9, chi=("indicator", 4))
    with pytest.raises(sources.SourceError, match="aperture"):
        sources.make_source(fat, m, grid, tau=40.0, r=1.0)


def test_three_family_linearity(surgery_setup):
    m, grid, p = surgery_setup
    src, _ = sources.make_source(p, m, grid, tau=30.0, r=1.0)
    fam = sources.build_three_family(src, src * 2.0, src * -1.0)
    zero = fam((0.0, 0.0, 0.0))
    assert np.max(np.abs(zero.field)) == 0
    one = fam((1.0, 0.0, 0.0))
    assert np.array_equal(one.field, src.field)
    a = fam((0.2, 0.3, -0.4))
    b = fam((0.1, -0.3, 0.5))
    c = fam((0.3, 0.0, 0.1))
    assert np.allclose(a.field + b.field, c.field, atol=1e-14)


def test_three_family_grid_mismatch(surgery_setup):
    m, grid, p = surgery_setup
    other = solver.Grid.for_ball(1, 1.0, 1.5, h=0.01, dt=0.004, pad=0.5)
    src, _ = sources.make_source(p, m, grid, tau=30.0, r=1.0)
    src2, _ = sources.make_source(p, m, other, tau=30.0, r=1.0)
    with pytest.raises(sources.SourceError, match="grid"):
        sources.build_three_family(src, src, src2)
