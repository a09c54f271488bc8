"""Cross-difference, pairing, quadrature pipeline, and recovery tests."""

import itertools
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diamondwave import exprs, go, recovery as rc, solver, sources
from diamondwave import geometry as geo


def gaussian_V(center, amp=0.8, width=0.3):
    center = np.asarray(center, dtype=float)

    def V(pts):
        pts = np.asarray(pts, dtype=float)
        return amp * np.exp(-np.sum((pts - center) ** 2, axis=-1) / width)
    return V


# -- epsilon stencil ---------------------------------------------------------

def test_cross_derivative_cubic_monomial():
    g = np.arange(12.0).reshape(3, 4)
    cross = rc.cross_derivative(lambda e: e[0] * e[1] * e[2] * g, h_eps=0.1)
    assert np.allclose(cross, g, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(coef=st.lists(st.floats(-5.0, 5.0), min_size=13, max_size=13),
       h_eps=st.floats(0.01, 0.5))
def test_cross_derivative_exact_on_cubics(coef, h_eps):
    # the stencil takes odd maps only; every odd monomial of degree <= 3
    # other than e1 e2 e3 is even in some eps_k, so the cross difference
    # reads the e1 e2 e3 coefficient exactly, and the epsilon gate against
    # that coefficient passes
    monos = [m for m in np.ndindex(4, 4, 4) if sum(m) in (1, 3)]
    assert len(monos) == len(coef)
    g = np.array([1.0, -2.0, 0.5])

    def solve(e):
        return sum(c * e[0] ** a * e[1] ** b * e[2] ** k
                   for c, (a, b, k) in zip(coef, monos)) * g
    c123 = coef[monos.index((1, 1, 1))]
    cross = rc.cross_derivative(solve, h_eps, limit=lambda: c123 * g)
    tol = 1e-12 * sum(abs(c) for c in coef) / h_eps**3 + 1e-12
    assert np.allclose(cross, c123 * g, rtol=0, atol=tol)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cross_derivative_is_the_eight_corner_stencil_of_an_odd_map(seed):
    # on an odd map, the four marched corners give the general stencil
    # sum over all eight sign corners of s1 s2 s3 u(h s) / (8 h^3)
    rng = np.random.default_rng(seed)
    monos = [m for m in np.ndindex(6, 6, 6) if sum(m) in (1, 3, 5)]
    coef = rng.standard_normal(len(monos))
    fields = rng.standard_normal((len(monos), 5, 4)) \
        + 1j * rng.standard_normal((len(monos), 5, 4))

    def solve(e):
        return sum(c * e[0] ** a * e[1] ** b * e[2] ** k * u
                   for c, (a, b, k), u in zip(coef, monos, fields))
    h = 0.1
    ref = sum(s[0] * s[1] * s[2] * solve(tuple(h * x for x in s))
              for s in itertools.product((-1, 1), repeat=3)) / (8 * h**3)
    cross = rc.cross_derivative(solve, h)
    assert np.max(np.abs(cross - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_cross_derivative_holds_few_window_arrays():
    # corners are added as they arrive and dropped: with the epsilon gate
    # the stencil holds at most three window arrays at once
    g = np.exp(1j * np.linspace(0.0, 3.0, 200_000))

    def solve(e):
        return np.multiply(g, e[0] * e[1] * e[2] + e[0] + e[1] ** 3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cross = rc.cross_derivative(solve, 0.1, limit=g.copy)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.allclose(cross, g, rtol=0, atol=1e-10)
    assert peak <= 3 * g.nbytes


def test_cross_derivative_epsilon_gate():
    # a strong epsilon^5 contamination puts the stencil off its limit, the
    # e1 e2 e3 coefficient; the limit is asked for once, after the corners
    def u(e):
        return np.array([e[0] * e[1] * e[2] + 100.0 * e[0] ** 3 * e[1] * e[2]])
    asked = []

    def limit():
        asked.append(True)
        return np.array([1.0])
    with pytest.raises(rc.RecoveryError, match="asymptotic window"):
        rc.cross_derivative(u, h_eps=0.05, limit=limit)
    cross = rc.cross_derivative(u, h_eps=0.002, limit=limit)
    assert cross[0] == pytest.approx(1.0, abs=1e-3)
    assert asked == [True, True]


def test_cross_derivative_gate_passes_a_limit_at_rounding_level():
    # a zero coefficient next to a stencil at rounding level of the corners
    # has nothing to disagree about
    g = np.array([1.0, -2.0, 0.5])

    def u(e):
        return (e[0] + e[1] + e[2]) * g
    cross = rc.cross_derivative(u, 0.1, limit=lambda: np.zeros(3))
    assert 0 < np.max(np.abs(cross)) < 1e-13
    # a stencil at that level against a limit above it is gated
    with pytest.raises(rc.RecoveryError, match="asymptotic window"):
        rc.cross_derivative(u, 0.1, limit=lambda: 1e-6 * g)


# -- pairing -----------------------------------------------------------------

@pytest.fixture(scope="module")
def pair_setup():
    m = geo.minkowski(1)
    grid = solver.Grid.for_ball(1, 1.0, 1.0, h=0.02, dt=0.008, pad=0.5)

    def Vfun(pts):
        return 0.5 * np.exp(-pts[..., 1] ** 2 / 0.1)

    def bump(pts, t0, x0):
        r2 = ((pts[..., 0] - t0) / 0.3) ** 2 + ((pts[..., 1] - x0) / 0.3) ** 2
        out = np.zeros(pts.shape[:-1])
        inside = r2 < 1
        out[inside] = np.exp(1 - 1 / (1 - r2[inside]))
        return out
    return m, grid, Vfun, bump


def test_discrete_adjoint_identity(pair_setup):
    m, grid, Vfun, bump = pair_setup
    a = solver.GridField.from_closure(grid, lambda p: bump(p, 0.5, -0.2))
    b = solver.GridField.from_closure(grid, lambda p: bump(p, 0.5, 0.3))
    Pa = solver.apply_wave_operator(m, grid, Vfun, a)
    Pb = solver.apply_wave_operator(m, grid, Vfun, b)
    lhs = solver.spacetime_integral(grid, a, Pb)
    rhs = solver.spacetime_integral(grid, b, Pa)
    scale = abs(solver.spacetime_integral(grid, a, Pa)) + abs(rhs)
    assert abs(lhs - rhs) < 1e-3 * scale


def test_pairing_routes_agree(pair_setup):
    m, grid, Vfun, bump = pair_setup
    # backward solve against a compact test source, paired with a bump field
    fplus = solver.SourceTerm(grid, solver.GridField.from_closure(
        grid, lambda p: bump(p, 0.5, 0.2)).data)
    U = solver.solve_backward(m, grid, Vfun, fplus)
    v = solver.GridField.from_closure(grid, lambda p: bump(p, 0.45, -0.1))
    data_side = rc.pairing_integral(grid, v, fplus)
    # Green's identity: the same integral from the volume side, the
    # backward solution against (box + V) v
    Pv = solver.apply_wave_operator(m, grid, Vfun, v)
    volume = solver.spacetime_integral(grid, U, Pv)
    discrepancy = abs(data_side - volume) / abs(volume)
    assert discrepancy < 0.02


# -- quadrature --------------------------------------------------------------

def test_gaussian_quadrature_closed_form():
    tau = 50.0
    pts, w, _ = rc.tensor_quadrature(np.zeros(3), 0.7, 101)
    val = np.sum(w * np.exp(-tau * np.sum(pts**2, axis=-1)))
    assert val == pytest.approx((np.pi / tau) ** 1.5, rel=1e-6)


# -- closed-form packets -----------------------------------------------------

def test_line_packet_matches_grid_packet():
    V = gaussian_V([0.6, 0.5, 0.1], amp=0.5, width=0.2)
    q = np.array([0.1, -0.1, 0.0])
    xi = np.array([-1.0, 0.6, 0.8])
    gp = go.GOPacket(2, q, xi, delta=0.2, V=V, N=1, s_range=(-0.2, 1.2),
                     ns=701)
    lp = rc.LinePacket(q, xi, delta=0.2, V=V)
    rng = np.random.default_rng(3)
    # sample points inside the tube around s ~ 0.7
    base = q + 0.7 * lp.xi_sharp
    pts = base + 0.15 * rng.standard_normal((40, 3))
    a0g = gp.amplitude(0, pts)
    a1g = gp.amplitude(1, pts)
    a0l, a1l, _ = lp.amplitudes(pts)
    # the grid packet interpolates its profile and differences its
    # laplacian, so it is the less accurate side near the tube edge
    assert np.max(np.abs(a0g - a0l)) < 5e-3
    assert np.max(np.abs(a1g - a1l)) < 0.05 * np.max(np.abs(a1l))
    # potential parts (transport integrals of V a0) agree much closer
    gp0 = go.GOPacket(2, q, xi, delta=0.2, V=None, N=1, s_range=(-0.2, 1.2),
                      ns=701)
    lp0 = rc.LinePacket(q, xi, delta=0.2, V=None)
    cg = a1g - gp0.amplitude(1, pts)
    cl = a1l - lp0.amplitudes(pts)[1]
    assert np.max(np.abs(cg - cl)) < 0.01 * np.max(np.abs(cl))


def test_line_packet_axis_oracles():
    from scipy.integrate import quad
    V = gaussian_V([0.6, 0.5, 0.1], amp=0.5, width=0.2)
    q = np.array([0.1, -0.1, 0.0])
    xi = np.array([-1.0, 0.6, 0.8])
    lp = rc.LinePacket(q, xi, delta=0.2, V=V)
    lp0 = rc.LinePacket(q, xi, delta=0.2, V=None)
    s = 0.7
    x = q + s * lp.xi_sharp
    # one transverse direction at n = 2, with chi''(0) = -2 on the axis
    _, b1, c0 = lp0.amplitudes(x[None])
    expected_b1 = s * (-2.0 / 0.2**2) / 2j
    assert b1[0] == pytest.approx(expected_b1, rel=1e-12)
    assert c0[0] == 0.0
    # the potential part is the 1-D line integral of V (a0 = 1 on the axis)
    _, a1, c = lp.amplitudes(x[None])
    iv, _ = quad(lambda t: V((q + t * lp.xi_sharp)[None])[0], 0.0, s,
                 epsabs=1e-12)
    assert (a1 - b1)[0] == pytest.approx(iv / 2j, rel=1e-9)
    assert c[0] == pytest.approx(iv / 2j, rel=1e-9)


def test_line_and_grid_packets_share_the_flow_frame():
    q = np.array([0.1, -0.1, 0.0, 0.2])
    xi = np.array([-1.3, 0.6 * 1.3, 0.0, 0.8 * 1.3])
    lp = rc.LinePacket(q, xi, delta=0.2)
    gp = go.GOPacket(3, q, xi, delta=0.2, N=0, ns=11, nw=5)
    frame = go.flow_frame(xi)
    assert np.array_equal(gp.L, frame)
    assert np.array_equal(lp._s_row, frame[0])
    assert np.array_equal(lp._w0_row, frame[1])
    assert np.array_equal(lp._omegas, frame[2:])
    # rows s and w0 pair to 1/|xi0| under eta^{-1}, the w rows are
    # orthonormal and orthogonal to both
    M = frame @ np.diag([-1.0, 1.0, 1.0, 1.0]) @ frame.T
    assert M[0, 1] == pytest.approx(1 / 1.3, rel=1e-14)
    assert np.allclose(M[2:, 2:], np.eye(2), atol=1e-14)
    assert np.allclose(M[:2, 2:], 0.0, atol=1e-14)


def test_line_packet_rejects_non_null():
    with pytest.raises(rc.RecoveryError, match="light-like"):
        rc.LinePacket(np.zeros(3), np.array([-1.0, 0.5, 0.0]), 0.1)


def test_packet_quad_geometry():
    p = np.array([1.1, 0.9, 0.0])
    quad = rc.PacketQuad(p, 0.9, [1.0, 0.0], sigma=0.3)
    # the linear dependence holds bitwise
    assert np.all(sum(quad.xi) == 0.0)
    for xi in quad.xi:
        assert abs(xi[0] ** 2 - xi[1:] @ xi[1:]) < 1e-12
    k1, k2 = sources.kappa_closed_form(0.3)
    assert quad.kappa[1] == pytest.approx(k1, abs=1e-14)
    assert quad.kappa[2] == pytest.approx(k2, abs=1e-14)
    # anchors: reversal ends s0 up the reversed ray, incoming starts s0 below
    assert np.allclose(quad.anchors[0], [2.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(quad.anchors[1], [0.2, 0.0, 0.0], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(direction=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3)
       .filter(lambda d: np.linalg.norm(d) > 0.1),
       sigma=st.floats(1e-6, 0.5))
def test_packet_quad_dependence_bitwise(direction, sigma):
    # the exact 1/tau coefficients need a phase-free quadrature
    p = np.concatenate([[2.0], np.full(len(direction), 0.1)])
    quad = rc.PacketQuad(p, 0.9, direction, sigma)
    assert np.all(sum(quad.xi) == 0.0)


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(0.0, 2 * np.pi), scale=st.floats(0.01, 5.0),
       delta=st.floats(0.05, 0.3), seed=st.integers(0, 2**16),
       tau=st.floats(1.0, 200.0))
# two nonzero bumps whose product a0 underflows to zero
@example(theta=0.15029693507263944, scale=1.0, delta=0.25, seed=3890,
         tau=1.0)
def test_line_packet_a1_inside_a0_support(theta, scale, delta, seed, tau):
    # what makes the joint-support restriction of the quadrature exact
    q = np.array([0.1, -0.1, 0.0])
    xi = scale * np.array([-1.0, np.cos(theta), np.sin(theta)])
    lp = rc.LinePacket(q, xi, delta, V=gaussian_V([0.6, 0.5, 0.1]))
    rng = np.random.default_rng(seed)
    pts = q + 0.5 * lp.xi_sharp / scale \
        + rng.uniform(-2 * delta, 2 * delta, (400, 3))
    a0, a1, _ = lp.amplitudes(pts)
    off = a0 == 0
    assert off.any() and not off.all()
    assert np.all(a1[off] == 0)
    assert np.array_equal(lp.support(pts), ~off)
    # so eval, which computes on that support only, is the plain formula
    plain = np.exp(1j * tau * (pts @ lp.xi)) * (a0 + a1 / tau)
    assert np.array_equal(lp.eval(tau, pts), plain)


def _per_node_potential_integral(lp, x, s):
    # the potential integral with one call of V per Gauss node, the
    # reference of the blocked one
    x = np.asarray(x, dtype=float)
    out = np.zeros(s.shape)
    for ti, wi in zip(rc._GL_NODES, rc._GL_WEIGHTS):
        off = s * ((ti + 1.0) / 2.0 - 1.0)
        pts = x + off[..., None] * lp.xi_sharp
        out = out + wi * np.asarray(lp.V(pts))
    return out * s / 2.0


@pytest.mark.parametrize("V", [
    exprs.ScalarField.from_text("0.8*exp(-((x1-1)^2 + x2^2)/0.3) + 0.1*t", 2),
    gaussian_V([1.1, 0.9, 0.0]),
    lambda x: 0.25])
@pytest.mark.parametrize("shape", [(7,), (3, 4), (0,), ()])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_potential_integral_in_blocks_is_the_per_node_sum(V, shape, j):
    # packet 0 is the reversal, with s < 0 near p; q itself has s = 0
    quad = rc.PacketQuad(np.array([1.1, 0.9, 0.0]), 0.9, [1.0, 0.0],
                         sigma=0.3, delta=0.1)
    pk = quad.packets[j]
    lp = rc.LinePacket(pk.q, pk.xi, pk.delta, V=V)
    rng = np.random.default_rng(j)
    x = quad.p + 0.1 * rng.standard_normal(shape + (3,))
    flat = x.reshape(-1, 3)         # a view of x
    k = int(len(flat) > 1)          # batches of 2+ start at q, where s = 0
    flat[:k] = lp.q
    s = lp.coords(x)[0]
    if j == 0:
        assert np.all(np.reshape(s, -1)[k:] < 0)
    got = lp._potential_integral(x, s)
    assert got.shape == np.shape(s)
    assert np.array_equal(got, _per_node_potential_integral(lp, x, s))
    assert np.all(np.reshape(s, -1)[:k] == 0)
    assert np.all(np.reshape(got, -1)[:k] == 0)


def test_potential_integral_reuses_its_buffers():
    # a second call on as many nodes, here from another packet, allocates
    # no block-sized array: points, offsets, V's values and V's own
    # intermediates are buffers kept from the first call
    V = exprs.ScalarField.from_text("exp(-((x1-1.1)^2 + x2^2)/0.16)", 2)
    quad = rc.PacketQuad(np.array([1.1, 0.9, 0.0]), 0.9, [1.0, 0.0],
                         sigma=0.3, V=V, delta=0.1)
    x = quad.p + 0.05 * np.random.default_rng(0).standard_normal((1100, 3))
    first, second = quad.packets[1], quad.packets[2]
    first._potential_integral(x, first.coords(x)[0])
    s = second.coords(x)[0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = second._potential_integral(x, s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _per_node_potential_integral(second, x, s))
    assert peak < rc._GL_BLOCK * len(x) * 8


def test_dense_box_quadrature_keeps_no_large_buffer():
    # on a dense 61^3 box the evaluated waves ask for about 29 MB of the
    # integral's buffer and 11 MB of V's registers; above the cap each
    # request gets an array of its own, so at most one capped buffer each
    # outlives the call
    V = exprs.ScalarField.from_text("exp(-((x1-1.1)^2 + x2^2)/0.16)", 2)
    p = np.array([2.5, 1.05, 0.0])
    quad = rc.PacketQuad(p, 0.9, [1.0, 0.0], sigma=0.1, V=V, delta=0.1)
    nodes = rc.tensor_quadrature(p, 0.3, 61)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rc.asymptotic_I(quad.packets, 400.0, nodes)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 2 * exprs.BUFFER_CAP * 8


def test_potential_integral_buffers_are_per_thread():
    # each thread keeps its own buffers (the integral's and V's registers):
    # threads integrating different packets at once, switching as often as
    # the interpreter allows, get the serial results bit for bit
    V = exprs.ScalarField.from_text("exp(-((x1-1.1)^2 + x2^2)/0.16)", 2)
    quad = rc.PacketQuad(np.array([1.1, 0.9, 0.0]), 0.9, [1.0, 0.0],
                         sigma=0.3, V=V, delta=0.1)
    rng = np.random.default_rng(3)
    jobs = []
    for j in range(4):
        x = quad.p + 0.05 * rng.standard_normal((200 + 50 * j, 3))
        s = quad.packets[j].coords(x)[0]
        jobs.append((quad.packets[j], x, s))
    serial = [pk._potential_integral(x, s) for pk, x, s in jobs]
    results = [[] for _ in jobs]

    def work(k):
        pk, x, s = jobs[k]
        for _ in range(100):
            results[k].append(pk._potential_integral(x, s))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for ref, got in zip(serial, results):
        assert len(got) == 100
        assert all(np.array_equal(g, ref) for g in got)


def test_potential_integral_calls_V_once_per_block():
    calls = []
    V = gaussian_V([1.1, 0.9, 0.0])

    def counting(pts):
        calls.append(pts.shape)
        return V(pts)
    lp = rc.LinePacket(np.array([0.1, -0.1, 0.0]),
                       np.array([-1.0, 0.6, 0.8]), 0.2, V=counting)
    lp.amplitudes(np.random.default_rng(0).uniform(0, 1, (50, 3)))
    assert len(calls) == -(-64 // rc._GL_BLOCK) < 64
    assert sum(shape[0] for shape in calls) == 64


def test_packet_quad_needs_transverse_direction():
    with pytest.raises(rc.RecoveryError, match="n >= 2"):
        rc.PacketQuad(np.array([1.0, 0.5]), 0.5, [1.0], sigma=0.1)


@pytest.mark.parametrize("sigma", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_packet_quad_rejects_sigma_outside_unit_interval(sigma):
    with pytest.raises(rc.RecoveryError, match="sigma"):
        rc.PacketQuad(np.array([1.1, 0.9, 0.0]), 0.9, [1.0, 0.0], sigma)


# -- interaction integral ----------------------------------------------------

@pytest.fixture(scope="module")
def go_quad():
    p = np.array([1.1, 0.9, 0.0])
    V = gaussian_V(p)
    quad = rc.PacketQuad(p, 0.9, [1.0, 0.0], sigma=0.1, V=V, delta=0.1)
    cal = rc.PacketQuad(p, 0.9, [1.0, 0.0], sigma=0.1, V=None, delta=0.1)
    return p, V, quad, cal


def test_phase_cancellation_real_integrand(go_quad):
    p, V, quad, cal = go_quad
    val = rc.asymptotic_I(cal.packets, 500.0,
                          rc.tensor_quadrature(p, 0.3, 33))
    # V = 0 amplitudes are a0 + (s lap a0)/(2i tau): the quartic product's
    # imaginary part integrates to the odd-order terms only
    assert abs(val) > 0
    valc = rc.asymptotic_I(cal.packets, -500.0,
                           rc.tensor_quadrature(p, 0.3, 33))
    assert valc == pytest.approx(np.conj(val), rel=1e-12)


def test_localization_gate():
    p = np.array([1.1, 0.9, 0.0])
    cal = rc.PacketQuad(p, 0.9, [1.0, 0.0], sigma=0.1, delta=0.1)
    with pytest.raises(rc.RecoveryError, match="not localized"):
        rc.asymptotic_I(cal.packets, 100.0,
                        rc.tensor_quadrature(p, 0.04, 21))
    with pytest.raises(rc.RecoveryError, match="not localized"):
        rc.interaction_series(cal.packets,
                              rc.tensor_quadrature(p, 0.04, 21))


def test_interaction_series_needs_dependence(go_quad):
    p, V, quad, cal = go_quad
    with pytest.raises(rc.RecoveryError, match="summing to zero"):
        rc.interaction_series(quad.packets[:3] + quad.packets[:1],
                              rc.tensor_quadrature(p, 0.3, 41))


def test_interaction_series_matches_asymptotic_I(go_quad):
    # I(tau) is a polynomial in 1/tau: past the two exact coefficients the
    # remainder shrinks like tau^-2
    p, V, quad, cal = go_quad
    nodes = rc.tensor_quadrature(p, 0.3, 25)
    (I0, Im1, *_), _ = rc.interaction_series(quad.packets, nodes)
    taus = np.array([400.0, 800.0, 1600.0, 3200.0])
    rest = [abs(rc.asymptotic_I(quad.packets, t, nodes)
                - I0 - Im1 / t) for t in taus]
    slope = np.polyfit(np.log(taus), np.log(rest), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.1)
    assert rest[-1] < 0.1 * abs(Im1 / taus[-1])


@pytest.mark.parametrize("with_V", [True, False])
def test_interaction_series_orders_are_the_subset_sums(go_quad, with_V):
    # orders[k] = sum w sum_{|S| = k} prod_{j in S} a1_j prod_{j not in S}
    # a0_j, written out over the 16 subsets S on the whole box
    p, V, quad, cal = go_quad
    packets = (quad if with_V else cal).packets
    nodes = rc.tensor_quadrature(p, 0.3, 25)
    pts, w, _ = nodes
    levels = [pk.amplitudes(pts)[:2] for pk in packets]
    ref = np.zeros(len(packets) + 1, dtype=complex)
    for S in itertools.product((0, 1), repeat=len(packets)):
        ref[sum(S)] += np.sum(w * np.prod(
            [lv[s] for lv, s in zip(levels, S)], axis=0))
    orders, _ = rc.interaction_series(packets, nodes)
    assert len(orders) == len(ref)
    assert np.all(np.abs(np.array(orders) - ref) <= 1e-14 * np.abs(ref))


def test_interaction_series_sums_to_the_evaluated_waves(go_quad):
    # sum_k orders[k] tau^-k is I(tau) of the packets' own `eval`; the gap
    # is the rounding of the four phases, which grows like tau (measured
    # 4.5e-16 tau relative at tau = 400 to 3200)
    p, V, quad, cal = go_quad
    nodes = rc.tensor_quadrature(p, 0.3, 25)
    orders, _ = rc.interaction_series(quad.packets, nodes)
    for tau in (400.0, 800.0, 1600.0, 3200.0):
        series = sum(I_k / tau**k for k, I_k in enumerate(orders))
        waves = rc.asymptotic_I(quad.packets, tau, nodes)
        assert abs(series - waves) <= 2e-15 * tau * abs(waves)


def test_interaction_series_evaluates_the_joint_support_in_box_order(
        go_quad, monkeypatch):
    # the progressive support filter hands every packet exactly the box
    # nodes where all four supports hold, in box order
    p, V, quad, cal = go_quad
    nodes = rc.tensor_quadrature(p, 0.3, 33)
    pts = nodes[0]
    joint = np.logical_and.reduce([pk.support(pts) for pk in quad.packets])
    seen = []
    amplitudes = rc.LinePacket.amplitudes

    def recording(self, x):
        seen.append(np.array(x))
        return amplitudes(self, x)
    monkeypatch.setattr(rc.LinePacket, "amplitudes", recording)
    rc.interaction_series(quad.packets, nodes)
    assert len(seen) == 4
    for x in seen:
        assert np.array_equal(x, pts[joint])


# -- extraction --------------------------------------------------------------

def test_extraction_matches_c_oracle(go_quad):
    p, V, quad, cal = go_quad
    _, csum = rc.interaction_series(quad.packets,
                                    rc.tensor_quadrature(p, 0.3, 41))
    oracle = np.sum(quad.c_values(V))
    assert abs(csum - oracle) < 0.01 * abs(oracle)


def test_extraction_zero_potential_is_exact(go_quad):
    p, V, quad, cal = go_quad
    _, csum = rc.interaction_series(cal.packets,
                                    rc.tensor_quadrature(p, 0.3, 33))
    assert csum == 0.0


def test_extraction_shift_by_constant(go_quad):
    # c-parts are linear in V
    p, V, quad, cal = go_quad
    def Vshift(pts):
        return np.asarray(V(pts)) + 1.0
    quad1 = rc.PacketQuad(p, 0.9, [1.0, 0.0], sigma=0.1, V=Vshift, delta=0.1)
    quadc = rc.PacketQuad(p, 0.9, [1.0, 0.0], sigma=0.1,
                          V=lambda pts: np.ones(np.asarray(pts).shape[:-1]),
                          delta=0.1)
    nodes = rc.tensor_quadrature(p, 0.3, 33)
    c_v, c_v1, c_one = (rc.interaction_series(q.packets, nodes)[1]
                        for q in (quad, quad1, quadc))
    assert abs((c_v1 - c_v) - c_one) < 1e-3 * abs(c_one)


# -- sigma limit and differentiation ----------------------------------------

def test_richardson_sigma_exact_quadratic():
    sigmas = np.array([0.2, 0.1, 0.05])
    vals = 3.0 + 2.0 * sigmas**2 + 5.0 * sigmas**4
    lim, flags = rc.richardson_sigma(sigmas, vals)
    assert lim == pytest.approx(3.0, abs=1e-12)
    assert not flags


@settings(max_examples=60, deadline=None)
@given(coef=st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
       size=st.integers(3, 5), sigma0=st.floats(0.02, 0.4))
def test_richardson_sigma_exact_on_polynomials(coef, size, sigma0):
    # a polynomial in sigma^2 of degree <= len - 1 extrapolates to its
    # constant term exactly (up to rounding)
    coef = np.array(coef[:size])
    sigmas = sigma0 / 2.0 ** np.arange(size)
    vals = np.polynomial.polynomial.polyval(sigmas**2, coef)
    lim, _ = rc.richardson_sigma(sigmas, vals)
    assert abs(lim - coef[0]) <= 1e-12 * (1 + np.sum(np.abs(coef)))


def test_richardson_sigma_schedule_checks():
    with pytest.raises(rc.RecoveryError, match="halve"):
        rc.richardson_sigma([0.2, 0.1, 0.07], [1.0, 1.0, 1.0])
    with pytest.raises(rc.RecoveryError, match="at least 3"):
        rc.richardson_sigma([0.2, 0.1], [1.0, 1.0])
    _, flags = rc.richardson_sigma([0.2, 0.1, 0.05], [1.0, 1.001, 1.1])
    assert "sigma extrapolation non-monotone" in flags


def test_differentiate_line_integral():
    s = np.array([0.8, 0.9, 1.0])
    assert rc.differentiate_line_integral(s, 2.0 * s) == pytest.approx(2.0)


# -- region driver -----------------------------------------------------------

def test_recover_point_zero_potential_control():
    m = geo.minkowski(2)
    v, flags, _ = rc.recover_point(m, None, np.array([1.8, 1.1, 0.0]),
                                   r=1.0, T=5.0)
    assert abs(v) < 5e-3


def test_flat_route_shoots_no_geodesic(monkeypatch):
    # on a flat metric the returning geodesics are lines in closed form
    def refuse(*args, **kwargs):
        raise AssertionError("null geodesic integrated")
    monkeypatch.setattr(geo, "integrate_null_geodesic", refuse)
    m = geo.minkowski(2)
    p = np.array([1.8, 1.1, 0.0])
    ret = sources.find_returning_geodesics(m, p, r=1.0, T=5.0)
    assert ret.q_minus[0] == pytest.approx(0.7)
    v, _, _ = rc.recover_point(m, None, p, r=1.0, T=5.0)
    assert abs(v) < 5e-3


def _series_or_error(packets, nodes):
    try:
        orders, csum = rc.interaction_series(packets, nodes)
        return np.array(orders + [csum]).tobytes()
    except rc.RecoveryError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(p=st.tuples(st.floats(1.0, 3.0), st.floats(-1.0, 1.0),
                   st.floats(-1.0, 1.0)),
       angle=st.floats(0.0, 2 * np.pi), sigma=st.floats(0.01, 0.6),
       s0=st.floats(0.3, 1.5), nq=st.sampled_from([17, 25, 41]))
def test_tube_nodes_are_the_dense_box_nodes_inside_it(p, angle, sigma, s0,
                                                      nq):
    # packet 0's tube holds its support; its nodes, weights and boundary
    # are the dense box's own entries, in box order, so the series reads
    # the same numbers from both
    p = np.array(p)
    quad = rc.PacketQuad(p, s0, [np.cos(angle), np.sin(angle)], sigma,
                         V=gaussian_V(p), delta=0.1)
    box = rc.quadrature_box(p, 0.3, nq)
    dense = rc.tensor_quadrature(p, 0.3, nq)
    tube = quad.packets[0].tube(box)
    nodes = rc.box_nodes(box, tube)
    assert np.all(np.diff(tube) > 0)
    for got, full in zip(nodes, dense):
        assert got.tobytes() == full[tube].tobytes()
    support = np.flatnonzero(quad.packets[0].support(dense[0]))
    assert np.all(np.isin(support, tube))
    assert _series_or_error(quad.packets, nodes) \
        == _series_or_error(quad.packets, dense)


def test_recover_point_builds_one_box_per_segment_length(monkeypatch):
    # the three sigmas of one s0 share its quadrature box: each sigma takes
    # its nodes from the one box object of its s0
    calls, used = [], []
    build, nodes = rc.quadrature_box, rc.box_nodes

    def counting(*args):
        calls.append(args)
        return build(*args)

    def recording(box, index):
        used.append(box)
        return nodes(box, index)
    monkeypatch.setattr(rc, "quadrature_box", counting)
    monkeypatch.setattr(rc, "box_nodes", recording)
    rc.recover_point(geo.minkowski(2), None, np.array([1.8, 1.1, 0.0]),
                     r=1.0, T=5.0)
    assert len(calls) == 3
    assert len({args[0].tobytes() for args in calls}) == 3
    assert len(used) == 9
    assert [len({id(b) for b in used[k:k + 3]}) for k in (0, 3, 6)] \
        == [1, 1, 1]
    assert len({id(b) for b in used}) == 3


def test_recover_point_gaussian_bump():
    m = geo.minkowski(2)
    p = np.array([1.8, 1.1, 0.0])
    V = gaussian_V(p, amp=0.8, width=0.3)
    v, flags, report = rc.recover_point(m, V, p, r=1.0, T=5.0, V_true=V)
    vt = float(V(p[None])[0])
    assert abs(v - vt) < 0.05 * vt
    rows = report.summary_rows()
    assert len(rows) == 1
    assert float(rows[0]["rel_err"]) < 0.05


@pytest.mark.parametrize("error", [solver.SolverError("left smallness"),
                                   np.linalg.LinAlgError("singular")])
def test_recover_region_isolates_solver_and_linalg_errors(monkeypatch, error):
    good = rc.recover_point

    def flaky(metric, V, p, *args, **kwargs):
        if p[2] != 0.0:
            raise error
        return good(metric, V, p, *args, **kwargs)
    monkeypatch.setattr(rc, "recover_point", flaky)
    pts = [np.array([1.8, 1.1, 0.1]), np.array([1.8, 1.1, 0.0])]
    rep = rc.recover_region(geo.minkowski(2), None, pts, r=1.0, T=5.0)
    rows = rep.point_rows()
    assert [r["p_x2"] for r in rows] == [0.1, 0.0]
    assert rows[0]["flags"] == f"failed: {error}"
    assert rows[1]["V_recovered"] != ""


def test_recover_region_report_csv(tmp_path):
    m = geo.minkowski(2)
    # one valid point and one inside the cylinder (recorded failure)
    pts = [np.array([1.8, 1.1, 0.0]), np.array([1.0, 0.2, 0.0])]
    rep = rc.recover_region(m, None, pts, r=1.0, T=5.0)
    flagged = [r for r in rep.rows if r["flags"].startswith("failed")]
    assert len(flagged) == 1
    path = tmp_path / "report.csv"
    rep.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == rc.REPORT_COLUMNS
    assert len(lines) == len(rep.rows) + 1


# -- full route ----------------------------------------------------------------

COARSE_FULL_ROUTE = dict(p=(1.0, 0.9, 0.0), r=0.8, T=2.0, tau=10.0,
                         sigma=0.6, delta=0.1, h=0.04, rho=0.06)


def _counting_marches(monkeypatch):
    """The marches made in this process: `nonlinear` of each forward
    march, and "coefficient" for each coefficient march."""
    calls = []
    forward = solver.solve_forward
    coefficient = solver.solve_cross_coefficient

    def counting(*args, **kwargs):
        calls.append(kwargs.get("nonlinear"))
        return forward(*args, **kwargs)

    def counting_coefficient(*args, **kwargs):
        calls.append("coefficient")
        return coefficient(*args, **kwargs)
    monkeypatch.setattr(solver, "solve_forward", counting)
    monkeypatch.setattr(solver, "solve_cross_coefficient",
                        counting_coefficient)
    return calls


@pytest.mark.parametrize("check, marches", [(False, 4), (True, 4)])
def test_full_route_marches_one_corner_per_sign_pair(monkeypatch, cpus,
                                                      check, marches):
    # with one CPU the epsilon gate adds one coefficient march after the
    # corners
    cpus(1)
    calls = _counting_marches(monkeypatch)
    res = rc.full_path_interaction(geo.minkowski(2), None, check=check,
                                   **COARSE_FULL_ROUTE)
    assert calls == [True] * marches + ["coefficient"] * check
    assert (res.I_check is not None) == check


def test_full_route_forked_gate_leaves_the_corners_to_the_parent(
        monkeypatch, cpus, forks):
    # with two CPUs the coefficient march runs in one forked child: the
    # parent marches the four corners and receives I_check
    cpus(2)
    calls = _counting_marches(monkeypatch)
    res = rc.full_path_interaction(geo.minkowski(2), None, check=True,
                                   **COARSE_FULL_ROUTE)
    assert calls == [True] * 4 and len(forks) == 1
    assert res.I_check is not None


def test_full_route_forked_gate_is_the_serial_gate_bit_for_bit(
        cpus, forks):
    # the child marches the same sources on the same grid as the serial
    # gate, and the corners stay in the parent in their order
    results = []
    for count in (2, 1):
        cpus(count)
        res = rc.full_path_interaction(geo.minkowski(2), None, check=True,
                                       **COARSE_FULL_ROUTE)
        results.append([repr(v) for v in
                        (res.I_full, res.I_check, *res.I_orders)])
    assert len(forks) == 1
    assert results[0] == results[1]


@pytest.mark.parametrize("count, check", [(2, False)])
def test_full_route_serial_gate_starts_no_process(monkeypatch, cpus, count,
                                                  check):
    # without the gate nothing is forked, even with two CPUs
    def refuse(self):
        raise AssertionError("process started")
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        refuse)
    cpus(count)
    res = rc.full_path_interaction(geo.minkowski(2), None, check=check,
                                   **COARSE_FULL_ROUTE)
    assert (res.I_check is not None) == check


def test_full_route_child_that_dies_is_a_recovery_error(monkeypatch, cpus):
    parent = os.getpid()

    def die(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("coefficient marched in the parent")
        os._exit(3)
    monkeypatch.setattr(solver, "solve_cross_coefficient", die)
    cpus(2)
    with pytest.raises(rc.RecoveryError,
                       match=r"forked process ended early \(exit code 3\)"):
        rc.full_path_interaction(geo.minkowski(2), None, check=True,
                                 **COARSE_FULL_ROUTE)


@pytest.mark.parametrize("factor, fails", [(1.1, True), (1.01, False)])
def test_full_route_epsilon_gate(monkeypatch, factor, fails):
    # the stencil must lie within 5% of the coefficient march's field
    coefficient = solver.solve_cross_coefficient

    def off(*args, **kwargs):
        w = coefficient(*args, **kwargs)
        return solver.GridField(w.grid, w.data * factor)
    monkeypatch.setattr(solver, "solve_cross_coefficient", off)
    m = geo.minkowski(2)
    if fails:
        with pytest.raises(rc.RecoveryError, match="asymptotic window"):
            rc.full_path_interaction(m, None, check=True, **COARSE_FULL_ROUTE)
    else:
        res = rc.full_path_interaction(m, None, check=True,
                                       **COARSE_FULL_ROUTE)
        assert res.I_check is not None


def test_full_route_outputs_are_pinned():
    # the coarse route's outputs to the last digit: a solver or stencil
    # change that moves them has to state by how much
    res = rc.full_path_interaction(geo.minkowski(2), None, check=True,
                                   **COARSE_FULL_ROUTE)
    assert res.I_full == -5.605382049278151e-07 + 3.9259568277524104e-07j
    assert res.I_check == -5.60539094276904e-07 + 3.926116862574251e-07j
    assert res.I_fast == 52.20632528042957 + 2.8693860949536845j


def test_full_route_quadrature_reads_packet_0s_tube(monkeypatch):
    # I_fast is the series on packet 0's tube: no dense box is built, and no
    # packet is evaluated on more nodes than the tube holds (the surgery
    # samples the packets on slices of the grid)
    def refuse(*args, **kwargs):
        raise AssertionError("dense-box quadrature")
    monkeypatch.setattr(rc, "asymptotic_I", refuse)
    monkeypatch.setattr(rc, "tensor_quadrature", refuse)
    tubes, batches = [], []
    tube, amplitudes = rc.LinePacket.tube, rc.LinePacket.amplitudes

    def recording_tube(self, box):
        tubes.append(tube(self, box))
        return tubes[-1]

    def recording_amplitudes(self, x):
        batches.append(len(x))
        return amplitudes(self, x)
    monkeypatch.setattr(rc.LinePacket, "tube", recording_tube)
    monkeypatch.setattr(rc.LinePacket, "amplitudes", recording_amplitudes)
    res = rc.full_path_interaction(geo.minkowski(2), None, check=False,
                                   **COARSE_FULL_ROUTE)
    assert len(tubes) == 1
    assert 0 < max(batches) <= len(tubes[0]) < rc.BOX_NQ**3 / 10
    # the series' four packets, last, on the joint support
    assert len(set(batches[-4:])) == 1 and batches[-1] > 0
    assert len(res.I_orders) == 5


def test_full_route_eps_stencil_converges_to_the_coefficient(monkeypatch):
    # I_check is the eps -> 0 limit of I_full on the same grid: the
    # stencil's gap to it falls by 4 each time its step h_eps halves
    m = geo.minkowski(2)
    res = rc.full_path_interaction(m, None, check=True, **COARSE_FULL_ROUTE)
    assert rc._H_EPS == 0.1
    gaps = [res.eps_truncation]
    for h_eps in (0.05, 0.025):
        monkeypatch.setattr(rc, "_H_EPS", h_eps)
        I_full = rc.full_path_interaction(m, None, check=False,
                                          **COARSE_FULL_ROUTE).I_full
        gaps.append(abs(I_full - res.I_check) / abs(res.I_check))
    assert gaps[0] == pytest.approx(2.342e-5, rel=1e-3)
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.05)


def test_full_route_sources_live_on_small_boxes(monkeypatch):
    # every surgery source, and the family they sum to, is stored on its
    # support box: a small part of the grid
    made, marched = [], []
    for name in ("make_source", "make_test_function"):
        def keep(*args, _surgery=getattr(sources, name), **kwargs):
            made.append(_surgery(*args, **kwargs)[0])
            return made[-1], None
        monkeypatch.setattr(sources, name, keep)
    forward = solver.solve_forward

    def keep_family(metric, grid, V, f, **kwargs):
        marched.append(f)
        return forward(metric, grid, V, f, **kwargs)
    monkeypatch.setattr(solver, "solve_forward", keep_family)
    rc.full_path_interaction(geo.minkowski(2), None, check=False,
                             **COARSE_FULL_ROUTE)

    def share(f):
        return f.field[0].size / np.prod(f.grid.shape)
    assert len(made) == 4 and len(marched) == 4
    assert max(share(f) for f in made) < 0.1
    assert max(share(f) for f in marched) < 0.3


def _coarse_route_surgeries(monkeypatch):
    """The four surgery sources of the coarse route, and the shapes of the
    grids their packets were sampled on."""
    made, sampled = [], []
    for name in ("make_source", "make_test_function"):
        def keep(*args, _surgery=getattr(sources, name), **kwargs):
            made.append(_surgery(*args, **kwargs)[0])
            return made[-1], None
        monkeypatch.setattr(sources, name, keep)
    from_closure = solver.GridField.from_closure.__func__

    def sampling(cls, grid, *args, **kwargs):
        sampled.append(grid.shape)
        return from_closure(cls, grid, *args, **kwargs)
    monkeypatch.setattr(solver.GridField, "from_closure",
                        classmethod(sampling))
    rc.full_path_interaction(geo.minkowski(2), None, check=False,
                             **COARSE_FULL_ROUTE)
    return made, sampled


@pytest.mark.parametrize("tube", ["whole grid", "too thin"])
def test_full_route_surgery_samples_the_tube_box(monkeypatch, tube):
    # each packet is sampled on its tube's box only, and its source keeps
    # the box and field of the whole-grid sampling bit for bit; a tube
    # bound that does not hold falls back to the whole grid
    with monkeypatch.context() as mp:
        made, sampled = _coarse_route_surgeries(mp)
    grid = made[0].grid.shape
    assert len(sampled) == 4
    assert all(np.prod(s) < 0.3 * np.prod(grid) for s in sampled)
    if tube == "whole grid":
        monkeypatch.setattr(sources, "_tube_box", lambda obj, g: tuple(
            slice(0, size) for size in g.shape))
    else:
        center_radius = sources._tube_center_radius

        def thin(obj):
            center, rad = center_radius(obj)
            return center, 0.1 * rad
        monkeypatch.setattr(sources, "_tube_center_radius", thin)
    ref, ref_sampled = _coarse_route_surgeries(monkeypatch)
    if tube == "whole grid":
        assert ref_sampled == 4 * [grid]
    else:
        assert len(ref_sampled) == 8 and ref_sampled[1::2] == 4 * [grid]
    for f, g in zip(made, ref):
        assert f.box == g.box
        assert np.array_equal(f.field, g.field)


def test_full_route_surgery_builds_no_grid_packet(monkeypatch):
    # the surgery cuts the closed-form packets of the quadrature
    def refuse(*args, **kwargs):
        raise AssertionError("grid packet built")
    monkeypatch.setattr(go, "GOPacket", refuse)
    res = rc.full_path_interaction(geo.minkowski(2), None, check=False,
                                   **COARSE_FULL_ROUTE)
    assert np.isfinite(res.I_full)


def test_full_route_regime_diagnostics():
    # every packet travels 0.9 between its slab and p, so the GO ratio is
    # 0.9 / (|kappa_j| tau delta^2); the top carrier is kappa_1 tau
    res = rc.full_path_interaction(geo.minkowski(2), None, check=False,
                                   **COARSE_FULL_ROUTE)
    tau, delta, h = (COARSE_FULL_ROUTE[k] for k in ("tau", "delta", "h"))
    kappa = np.abs(res.quad.kappa)
    assert np.allclose(res.go_ratios, 0.9 / (kappa * tau * delta**2),
                       rtol=1e-12)
    assert res.kh == pytest.approx(kappa[1] * tau * h, rel=1e-12)
    assert res.group_velocity == solver.stencil_group_velocity(res.kh)
    assert 0.9 < res.group_velocity < 1.0
    assert res.delta_over_h == pytest.approx(delta / h, rel=1e-12)
    assert res.envelope_error == rc.bump_d2_error(res.delta_over_h)


def test_bump_d2_error_is_the_stencils_error_on_the_bump():
    # the pooled error of the 4th-order stencil on the bump, against a
    # direct per-offset sum: ~28 % at the full route's delta/h of 8.3,
    # then falling as (h/delta)^4
    def direct(r):
        err = ref = 0.0
        for k in range(8):
            u = (np.arange(-60, 61) + k / 8) / r
            exact = rc._chi_bump_d2(u)
            d2 = solver.laplacian_4th(go.chi_bump(u), 1 / r, 1)
            err += np.sum((d2 - exact) ** 2)
            ref += np.sum(exact ** 2)
        return np.sqrt(err / ref)
    for r in (2.5, 0.1 / 0.012, 50.0):
        assert rc.bump_d2_error(r) == pytest.approx(direct(r), rel=1e-12)
    assert rc.bump_d2_error(0.1 / 0.012) == pytest.approx(0.2766, abs=1e-4)
    assert rc.bump_d2_error(200.0) / rc.bump_d2_error(400.0) == \
        pytest.approx(16.0, rel=0.05)


def test_differentiate_line_integral_rejects_degenerate_samples():
    with pytest.raises(rc.RecoveryError, match="coincide"):
        rc.differentiate_line_integral([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
    with pytest.raises(rc.RecoveryError, match="not finite"):
        rc.differentiate_line_integral([0.8, 0.9, 1.0], [0.1, 0.2, np.nan])


def test_recover_region_zero_ds0_is_a_failed_row():
    rep = rc.recover_region(geo.minkowski(2), None, [np.array([1.8, 1.1, 0.0])],
                            r=1.0, T=5.0, ds0=0.0)
    (row,) = rep.point_rows()
    assert row["V_recovered"] == ""
    assert row["flags"].startswith("failed: segment lengths coincide")
