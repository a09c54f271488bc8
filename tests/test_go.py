"""Geometric-optics packet tests: support, transport recursion, residual rates."""

import numpy as np
import pytest

from diamondwave import go


def gaussian_V(center=(0.0, 0.0, 0.0), amp=1.0, width=0.5):
    c = np.asarray(center, dtype=float)

    def V(x):
        x = np.asarray(x, dtype=float)
        d2 = np.sum((x - c) ** 2, axis=-1)
        return amp * np.exp(-d2 / width**2)
    return V


def make_packet(N=2, V=None, chi="bump", n=2, delta=0.3):
    xi = np.array([-1.0, 1.0, 0.0])[: n + 1]
    if n == 1:
        xi = np.array([-1.0, 1.0])
    return go.GOPacket(n, np.zeros(n + 1), xi, delta, V=V, N=N, chi=chi,
                       s_range=(-1.0, 1.0))


def test_non_null_covector_rejected():
    with pytest.raises(go.GOError, match="light-like"):
        go.GOPacket(2, np.zeros(3), [-1.0, 0.5, 0.0], 0.3)


def test_a0_at_center_is_one():
    p = make_packet(N=0)
    assert p.amplitude(0, np.zeros(3)) == pytest.approx(1.0)


def test_a0_constant_along_flow():
    p = make_packet(N=0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.uniform(-0.25, 0.25, size=2)
        base = p.from_flow(np.array([0.0, w[0], w[1]]))
        vals = [p.amplitude(0, p.from_flow(np.array([s, w[0], w[1]])))
                for s in np.linspace(-0.9, 0.9, 7)]
        assert np.max(np.abs(np.diff(vals))) < 1e-12


def test_a0_vanishes_outside_tube():
    p = make_packet(N=0)
    # point with omega-coordinate 1.1*delta
    y = np.array([0.2, 0.0, 1.1 * p.delta])
    assert abs(p.amplitude(0, p.from_flow(y))) < 1e-15


def test_flow_point_is_straight_line():
    p = make_packet(N=0)
    s = np.array([0.0, 0.5, 1.0])
    pts = p.flow_point(s)
    # xi = (-1,1,0) -> xi_sharp = (1,1,0)
    assert np.allclose(pts, np.outer(s, [1, 1, 0]), atol=1e-14)


def test_a1_constant_potential_central_line():
    # with a plateau cutoff, box a0 = 0 near the axis, so
    # a1(s xi_sharp + q) = c s / (2i)
    c = 0.7
    p = make_packet(N=1, V=lambda x: np.full(np.asarray(x).shape[:-1], c),
                    chi=("indicator", 4))
    for s in (-0.5, 0.3, 0.8):
        a1 = p.amplitude(1, p.flow_point(np.array([s]))[0])
        assert a1 == pytest.approx(c * s / 2j, abs=5e-7)


def test_a1_zero_when_V_zero_plateau():
    p = make_packet(N=1, V=None, chi=("indicator", 4))
    for s in (-0.5, 0.4):
        a1 = p.amplitude(1, p.flow_point(np.array([s]))[0])
        assert abs(a1) < 1e-10


def test_transport_identity_random_points():
    V = gaussian_V(amp=0.8)
    p = make_packet(N=2, V=V)
    defects = p.transport_defect_grids(V)
    for k in (1, 2):
        inner = defects[k][4:-4, 4:-4, 4:-4]
        assert np.max(np.abs(inner)) < 1e-6


def test_eval_modulus_equals_amplitude_sum():
    p = make_packet(N=2, V=gaussian_V())
    x = np.array([0.1, 0.12, -0.05])
    tau = 37.0
    assert abs(p.eval(tau, x)) == pytest.approx(abs(p.amplitude_sum(tau, x)), rel=1e-12)


def test_large_tau_limit_recovers_a0():
    p = make_packet(N=2, V=gaussian_V())
    x = np.array([0.2, 0.21, 0.1])
    val = p.eval(1e3, x) * np.exp(-1j * 1e3 * p.phase(x))
    assert abs(val - p.amplitude(0, x)) < 1e-2


def test_support_containment_full_packet():
    p = make_packet(N=2, V=gaussian_V())
    # outside the hypercube in w0
    y = np.array([0.3, 1.2 * p.delta, 0.0])
    assert abs(p.eval(50.0, p.from_flow(y))) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 3])
def test_residual_scaling(N):
    V = gaussian_V(amp=1.0, width=0.5)
    p = make_packet(N=N, V=V)
    taus = [10, 20, 40, 80, 160]
    slope, fitres, sups = go.residual_scaling(p, V, taus)
    assert slope <= -N + 0.3
    assert fitres < 0.2


def test_residual_doubling_rate():
    V = gaussian_V()
    p = make_packet(N=2, V=V)
    r40 = p.residual_sup(40.0, V)
    r80 = p.residual_sup(80.0, V)
    assert r40 / r80 == pytest.approx(4.0, rel=0.3)


def test_residual_sup_evaluates_V_once_per_cache_fill():
    # one V grid serves the defects and the top-level box term; the sups
    # equal those of the formula with V evaluated for each apart
    V = gaussian_V()
    p = make_packet(N=2, V=V)
    calls = []

    def counting(x):
        calls.append(1)
        return V(x)
    taus = (40.0, 80.0)
    sups = [p.residual_sup(tau, counting) for tau in taus]
    assert len(calls) == 1
    defects = p.transport_defect_grids(V)
    boxN = p._box_amp(p.amps[p.N]) + np.asarray(V(p._grid_points())) \
        * p.amps[p.N]
    for tau, sup in zip(taus, sups):
        total = tau * defects[0]
        for k in range(1, p.N + 1):
            total = total + tau ** (1 - k) * defects[k]
        total = total + tau ** (-p.N) * boxN
        assert sup == float(np.max(np.abs(total[(slice(4, -4),) * 3])))
    # another potential refills the cache with one more evaluation
    p.residual_sup(40.0, lambda x: counting(x))
    assert len(calls) == 2


def test_n1_packet_transport():
    # one spatial dimension: no transverse Laplacian at all
    c = 0.5
    p = make_packet(N=1, n=1, V=lambda x: np.full(np.asarray(x).shape[:-1], c))
    a1 = p.amplitude(1, p.flow_point(np.array([0.6]))[0])
    assert a1 == pytest.approx(c * 0.6 / 2j, abs=1e-7)


@pytest.mark.parametrize("n, tau", [(1, 8.0), (2, -3.0)])
def test_amplitude_sum_on_box_points_equals_whole_sum(n, tau):
    # only points inside the amplitude grid's box are interpolated; the sum
    # over all points, the interpolators' fill value outside, is the
    # reference, byte for byte (signs of zeros included)
    p = make_packet(N=2, V=gaussian_V(center=np.zeros(n + 1), amp=0.3), n=n,
                    delta=0.2)
    x = np.random.default_rng(4).uniform(-1.4, 1.4, size=(30, 40, n + 1))
    y = p.to_flow(x)
    ref = 0.0
    for k, interp in enumerate(p._interps):
        ref = ref + interp(y) * tau ** (-k)
    out = p.amplitude_sum(tau, x)
    assert out.tobytes() == ref.tobytes()
    assert np.any(out != 0) and np.any(out == 0)
    whole = np.exp(1j * tau * p.phase(x)) * ref
    assert p.eval(tau, x).tobytes() == whole.tobytes()
    assert p.amplitude_sum(tau, x[3, 5]) == ref[3, 5]
