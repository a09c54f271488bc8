"""Cutoff surgery, covector dependence, and returning-geodesic tests."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from diamondwave import exprs, go, solver, sources
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
    assert ret.margin > 0.1


def test_returning_tangents_independent():
    m = geo.minkowski(2)
    ret = sources.find_returning_geodesics(m, np.array([2.0, 2.0, 0.0]),
                                           r=1.0, T=5.0)
    tm = ret.p - ret.q_minus
    tp = ret.q_plus - ret.p
    assert abs(tm[1] * tp[2] - tm[2] * tp[1]) + abs(
        tm[0] * tp[1] - tm[1] * tp[0]) > 0.1


def sampled_line(p, v, lo, hi):
    """p + sig v for sig in [lo, hi] (lo < 0 < hi), nodes at most 1/400
    apart, p itself a node."""
    k_lo, k_hi = (max(1, int(np.ceil(400 * w))) for w in (-lo, hi))
    sig = np.concatenate([np.linspace(lo, 0.0, k_lo + 1),
                          np.linspace(0.0, hi, k_hi + 1)[1:]])
    return p + sig[:, None] * v


@pytest.mark.parametrize("p", [
    [2.0, 2.0, 0.0], [2.5, 1.05, 0.2], [2.2, -0.9, 1.5]])
def test_closed_form_margin_matches_sampled(p):
    # the sampled margin of the same lines is the closed form up to the
    # node spacing: at least it, and at most one step along each line more
    m = geo.minkowski(2)
    p = np.array(p)
    ret = sources.find_returning_geodesics(m, p, r=1.0, T=5.0)
    exclude = 0.1 * (ret.q_plus[0] - ret.q_minus[0])
    # gamma_- from q_minus through p and on, gamma_+ from before p to q_plus
    d = p[0] - ret.q_minus[0]
    gm = sampled_line(p, (p - ret.q_minus) / d, -d, 2 * d)
    gp = sampled_line(p, (ret.q_plus - p) / d, -2 * d, d)
    a = gm[np.linalg.norm(gm - p, axis=-1) > exclude]
    b = gp[np.linalg.norm(gp - p, axis=-1) > exclude]
    sampled = float(cdist(a, b).min())
    step = max(np.max(np.linalg.norm(np.diff(x, axis=0), axis=-1))
               for x in (gm, gp))
    assert ret.margin - 1e-12 <= sampled <= ret.margin + 2 * step
    assert ret.margin == pytest.approx(np.sqrt(2) * exclude, rel=1e-12)


@pytest.mark.parametrize("p", [[2.0, -1.5], [2.5, 1.0, 0.5, 0.3]])
def test_flat_returning_lines_in_one_and_three_dimensions(p):
    # the closed form aims along p's spatial part in any dimension, also to
    # the left of the cylinder's axis in 1+1
    m = geo.minkowski(len(p) - 1)
    p = np.array(p)
    ret = sources.find_returning_geodesics(m, p, r=1.0, T=5.0)
    d = np.linalg.norm(p[1:])
    assert np.allclose(ret.q_minus, np.r_[p[0] - d, 0 * p[1:]], atol=1e-12)
    assert np.allclose(ret.q_plus, np.r_[p[0] + d, 0 * p[1:]], atol=1e-12)


def test_point_inside_cylinder_rejected():
    m = geo.minkowski(2)
    with pytest.raises(sources.SourceError, match="outside"):
        sources.find_returning_geodesics(m, np.array([2.0, 0.2, 0.0]),
                                         r=1.0, T=5.0)


def test_split_metric_rejected():
    # returning geodesics are closed-form null lines; a curved background
    # fails up front instead of running the flat formula
    m = geo.SplitMetric(
        2,
        beta=lambda x: np.ones(np.asarray(x).shape[:-1]),
        gmat=lambda x: (1 + 0.03 * np.sin(np.asarray(x)[..., 0]))[..., None, None]
        * np.eye(2),
    )
    with pytest.raises(sources.SourceError, match="flat background"):
        sources.find_returning_geodesics(m, np.array([2.0, 1.8, 0.1]),
                                         r=1.0, T=5.0)


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
    assert np.max(np.abs(src.dense()[:, np.abs(x) >= 1.0])) == 0


def test_surgery_identity(surgery_setup):
    # (box+V)(zeta_- u) - f = (1 - zeta_+)(box+V)u wherever zeta_- == 1
    m, grid, p = surgery_setup
    src, zu = sources.make_source(p, m, grid, tau=30.0, r=1.0)
    cut = src.cutoffs
    Pzu = solver.apply_wave_operator(m, grid, None,
                                     solver.GridField(grid, zu.dense()))
    u = solver.GridField.from_closure(
        grid, lambda pts: p.eval(30.0, pts), dtype=complex)
    Pu = solver.apply_wave_operator(m, grid, None, u)
    times = grid.times()
    sel = times > cut.t0 + 2 * grid.dt
    lhs = Pzu.data[sel] - src.dense()[sel]
    rhs = (1 - cut.zplus(times[sel]))[:, None] * Pu.data[sel]
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(Pu.data))


def test_forward_solution_tracks_cut_packet(surgery_setup):
    m, grid, p = surgery_setup
    for tau in (15.0, 30.0):
        src, zu = sources.make_source(p, m, grid, tau=tau, r=1.0)
        U = solver.solve_forward(m, grid, None, src)
        err = float(np.max(np.abs(U.data - zu.dense())))
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
    assert float(np.max(np.abs(U.data - zpu.dense()))) < 0.02 * zpu.sup_norm()


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


# -- support boxes -----------------------------------------------------------

def dense_surgery(obj, m, grid, tau, V, r, test):
    """The surgery on every cell of the grid, as (f, cut packet) arrays: the
    reference for the cropped one, which must equal it bit for bit (up to
    the sign of zeros)."""
    t0 = float(obj.q[0])
    cut = sources.CutoffPair(t0, sources.default_rho(obj, grid, r, t0))
    u = solver.GridField.from_closure(grid, lambda pts: obj.eval(tau, pts),
                                      dtype=complex)
    times = grid.times()
    inner, outer = (cut.zplus, cut.zminus) if test else (cut.zminus, cut.zplus)
    shape = (-1,) + (1,) * grid.n
    zu = solver.GridField(grid, u.data * inner(times).reshape(shape))
    f = solver.apply_wave_operator(m, grid, V, zu).data * \
        outer(times).reshape(shape)
    X = grid.spacetime_slice(0)[..., 1:]
    f[:, np.linalg.norm(X, axis=-1) >= r] = 0.0
    return f, zu.data


def line_setup(V=None, q=(0.5, 0.1, -0.1)):
    grid = solver.Grid.for_ball(2, 1.0, 1.5, h=0.05, dt=0.02, pad=0.2)
    return geo.minkowski(2), grid, LinePacket(q, [-1.0, 0.6, 0.8], 0.15, V=V)


@pytest.mark.parametrize("test", [False, True])
@pytest.mark.parametrize("case", ["1d", "2d", "2d with V"])
def test_cropped_surgery_equals_dense_surgery(surgery_setup, case, test):
    if case == "1d":
        (m, grid, pk), V, tau = surgery_setup, None, 30.0
    else:
        V = (exprs.ScalarField.from_text("0.3*exp(-(x1^2 + x2^2))", 2)
             if case == "2d with V" else None)
        (m, grid, pk), tau = line_setup(V), 10.0
    make = sources.make_test_function if test else sources.make_source
    src, zu = make(pk, m, grid, tau, V=V, r=1.0)
    f, z = dense_surgery(pk, m, grid, tau, V, 1.0, test)
    assert src.field.size < f.size
    assert zu.data.shape == src.field.shape
    assert np.array_equal(src.dense(), f)
    assert np.array_equal(zu.dense(), z)


def test_surgery_of_a_packet_missing_the_grid_is_zero():
    # no nonzero cell: the box is empty and the source marches to zero
    m = geo.minkowski(2)
    grid = solver.Grid.for_ball(2, 0.5, 0.6, h=0.1, dt=0.03)
    pk = LinePacket([0.3, 5.0, 5.0], [-1.0, 0.6, 0.8], 0.15)
    src, zu = sources.make_source(pk, m, grid, 10.0, t0=0.3, rho=0.1)
    assert src.field.size == 0 and src.scale() == 0.0
    assert not np.any(src.dense()) and not np.any(zu.dense())
    assert solver.solve_forward(m, grid, None, src).sup_norm() == 0.0


def test_three_family_sums_on_the_union_box():
    srcs = []
    for q in [(0.5, 0.1, -0.1), (0.5, -0.3, 0.2), (0.6, 0.2, 0.3)]:
        m, grid, pk = line_setup(q=q)
        srcs.append(sources.make_source(pk, m, grid, 10.0, r=1.0)[0])
    b0, b1, b2 = (s.box for s in srcs)
    assert b0 != b1 and b1 != b2 and b0 != b2
    fam = sources.build_three_family(*srcs)
    eps = (0.2, -0.3, 0.5)
    got = fam(eps)
    assert got.field.size < got.dense().size
    dense = [s.dense() for s in srcs]
    ref = dense[0] * eps[0] + dense[1] * eps[1] + dense[2] * eps[2]
    assert np.array_equal(got.dense(), ref)
    assert got.scale() == float(np.max(np.abs(ref)))


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
