"""Fermi chart tests: frame recipe, parallel transport, forward/inverse map."""

import numpy as np
import pytest

from diamondwave import fermi
from diamondwave import geometry as geo


def flat_chart(n=2, span=(0.0, 2.0)):
    m = geo.minkowski(n)
    v = np.zeros(n + 1)
    v[0] = v[1] = 1.0
    g = geo.integrate_null_geodesic(m, np.zeros(n + 1), v, span)
    return fermi.FermiChart(g)


def perturbed_chart(amp=0.05, span=(0.0, 1.5), steps=400):
    """The perturbed chart of the curved-beam benchmark."""
    n = 2
    m = geo.SplitMetric(
        n,
        beta=lambda x: 1 + amp * np.sin(np.asarray(x)[..., 1]),
        gmat=lambda x: (1 + amp * np.cos(np.asarray(x)[..., 0]
                                         + 0.5 * np.asarray(x)[..., 2]))[..., None, None]
        * np.eye(n),
    )
    p = np.zeros(3)
    # make the initial direction null numerically: -beta v0^2 + g11 v1^2 = 0
    beta0 = float(m.beta(p))
    g11 = float(m.gmat(p)[0, 0])
    v = np.array([1.0, np.sqrt(beta0 / g11), 0.0])
    g = geo.integrate_null_geodesic(m, p, v, span, steps_per_unit=steps)
    return fermi.FermiChart(g)


def test_flat_frame_recipe():
    ch = flat_chart()
    E = ch.frame.E[0]
    assert np.allclose(E[0], [1, 1, 0], atol=1e-12)
    assert np.allclose(E[1], [-1, 1, 0], atol=1e-12)
    assert np.allclose(np.abs(E[2]), [0, 0, 1], atol=1e-12)
    eta = np.diag([-1.0, 1, 1])
    assert E[0] @ eta @ E[1] == pytest.approx(2.0)


def test_flat_transport_constant():
    ch = flat_chart()
    assert np.max(np.abs(ch.frame.E - ch.frame.E[0])) < 1e-12


def test_frame_pairings_conserved_split():
    n = 2
    m = geo.SplitMetric(
        n,
        beta=lambda x: np.ones(np.asarray(x).shape[:-1]),
        gmat=lambda x: (1 + 0.05 * np.asarray(x)[..., 0])[..., None, None] * np.eye(n),
    )
    p = np.zeros(3)
    v = np.array([1.0, 1.0, 0.0])  # null at t=0 where g = I
    g = geo.integrate_null_geodesic(m, p, v, (0.0, 1.5), steps_per_unit=400)
    fr = fermi.build_frame(g)
    assert fr.pairing_defect() < 1e-8
    assert np.max(np.abs(fr.E[:, 0] - g.xdot)) < 1e-10  # E0 = gammadot


def test_frame_equals_per_stage_transport():
    # build_frame evaluates the curve and the transport matrices
    # A[j] = Gamma(v, e_j) once over every RK4 stage parameter and once over
    # the samples; its frame equals a transport that evaluates them at each
    # stage, one point at a time, bit for bit
    ch = perturbed_chart()
    geod, metric = ch.geodesic, ch.metric

    def transport(x, v, E):
        return -E @ metric.christoffel(x, v, np.eye(3))

    def rhs(s, E):
        x = geod.point(np.array([s]))[0]
        v = geod.velocity(np.array([s]))[0]
        return transport(x, v, E)

    E = [ch.frame.E[0]]
    for s, sn in zip(geod.s[:-1], geod.s[1:]):
        h, y = sn - s, E[-1]
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(s + h, y + h * k3)
        E.append(y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
    E = np.array(E)
    Edot = np.array([transport(x, v, e)
                     for x, v, e in zip(geod.x, geod.xdot, E)])
    assert np.array_equal(ch.frame.E, E)
    assert np.array_equal(ch.frame.Edot, Edot)


def test_flat_forward_closed_form():
    ch = flat_chart()
    for s, z1, z2 in [(0.3, 0.1, -0.2), (1.2, -0.05, 0.07)]:
        F = ch.forward(s, [z1, z2])
        assert np.allclose(F, [s - z1, s + z1, z2], atol=1e-12)


def test_forward_axis_is_geodesic():
    ch = perturbed_chart()
    ss = np.linspace(0.1, 1.4, 7)
    F = ch.forward(ss, np.zeros((7, 2)))
    assert np.max(np.abs(F - ch.geodesic.point(ss))) < 1e-10


def test_forward_symmetric_average_flat():
    ch = flat_chart()
    z = np.array([0.08, -0.11])
    avg = 0.5 * (ch.forward(0.7, z) + ch.forward(0.7, -z))
    assert np.allclose(avg, ch.geodesic.point(np.array([0.7]))[0], atol=1e-12)


def test_inverse_flat_closed_form():
    ch = flat_chart()
    s, z = ch.inverse(np.array([0.9 - 0.12, 0.9 + 0.12, 0.05]))
    assert s == pytest.approx(0.9, abs=1e-9)
    assert np.allclose(z, [0.12, 0.05], atol=1e-9)


def test_inverse_on_axis():
    ch = perturbed_chart()
    p = ch.geodesic.point(np.array([0.8]))[0]
    s, z = ch.inverse(p)
    assert s == pytest.approx(0.8, abs=1e-8)
    assert np.linalg.norm(z) < 1e-8


def test_roundtrip_random():
    ch = perturbed_chart()
    rng = np.random.default_rng(5)
    draws = [(rng.uniform(0.2, 1.3), rng.uniform(-0.5, 0.5, size=2))
             for _ in range(25)]
    s = np.array([d[0] for d in draws])
    z = np.array([d[1] for d in draws]) * ch.delta_prime
    p = ch.forward(s, z)
    s2, z2, inside = ch.inverse_many(p)
    assert inside.all()
    assert np.max(np.abs(s2 - s)) < 1e-8
    assert np.max(np.abs(z2 - z)) < 1e-8
    # the scalar inverse of one point
    s1, z1 = ch.inverse(p[0])
    assert abs(s1 - s[0]) < 1e-8
    assert np.max(np.abs(z1 - z[0])) < 1e-8


def test_block_seed_equals_dense_seed():
    # the Newton seed searches the geodesic samples in blocks; it must pick
    # the same (first) nearest sample as one dense argmin over all of them
    ch = perturbed_chart()
    x = ch.geodesic.x
    assert len(x) > 4 * fermi._SEED_BLOCK
    rng = np.random.default_rng(3)
    near = x[::5] + rng.normal(scale=0.2, size=x[::5].shape)
    pts = np.concatenate([x[::7], near, rng.uniform(-1.0, 2.0, (200, 3))])
    d2 = np.sum((x[None, :, :] - pts[:, None, :]) ** 2, axis=-1)
    dense = ch.geodesic.s[np.argmin(d2, axis=1)]
    assert np.array_equal(ch._seed(pts), dense)


def test_inverse_rejects_far_point():
    ch = flat_chart()
    with pytest.raises(fermi.FermiError, match="outside"):
        ch.inverse(np.array([1.0, -5.0, 0.0]))


def test_axis_normal_form_flat():
    ch = flat_chart()
    mdef, ddef = ch.axis_defects(nsamp=5)
    assert mdef < 1e-9
    assert ddef < 1e-8


def test_axis_normal_form_perturbed():
    ch = perturbed_chart()
    mdef, ddef = ch.axis_defects(nsamp=5)
    assert mdef < 1e-6
    assert ddef < 1e-5


def test_chart_injective_on_samples():
    ch = perturbed_chart()
    ss = np.linspace(0.1, 1.4, 12)
    zs = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, -0.05], [-0.04, 0.04]])
    pts = np.array([ch.forward(s, z) for s in ss for z in zs])
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    np.fill_diagonal(d, 1.0)
    assert d.min() > 1e-9


def test_batched_jacobian_equals_per_point():
    ch = perturbed_chart()
    rng = np.random.default_rng(5)
    s = rng.uniform(0.2, 1.3, 6)
    z = rng.uniform(-0.04, 0.04, (6, 2))
    F, J = ch.jacobian(s, z)
    assert J.shape == (6, 3, 3)
    # the points are the exponential map's, bit for bit
    assert np.array_equal(F, ch.forward(s, z))
    for i in range(6):
        Fi, Ji = ch.jacobian(s[i], z[i])
        assert np.array_equal(Fi, F[i])
        assert np.array_equal(Ji, J[i])


def stencil_reference(ch, s, z, h=2e-3):
    """Reference dF/d(s, z'): 4th-order central differences of `forward`."""
    J = np.empty(s.shape + (ch.n + 1, ch.n + 1))
    c1, c2 = 8.0 / (12 * h), 1.0 / (12 * h)
    steps = np.eye(ch.n + 1) * h
    for i, e in enumerate(steps):
        def f(k):
            return ch.forward(s + k * e[0], z + k * e[1:])
        J[..., i] = c1 * (f(1) - f(-1)) - c2 * (f(2) - f(-2))
    return J


def test_jacobi_fields_match_stencil():
    # the Jacobi fields linearize the spray in closed form from the metric's
    # second differences (step geometry.H_G2); the tolerance covers their
    # rounding and the stencil's own h^4 error
    ch = perturbed_chart()
    rng = np.random.default_rng(11)
    s = rng.uniform(0.2, 1.3, 1000)
    z = rng.uniform(-0.5, 0.5, (1000, 2)) * ch.delta_prime
    J = ch.jacobian(s, z)[1]
    ref = stencil_reference(ch, s, z)
    assert np.max(np.abs(J - ref)) / np.max(np.abs(ref)) < 1e-8


def test_jacobian_evaluates_one_metric_stencil_per_stage():
    # every RK4 stage of the Jacobi pass calls beta and g once per point of
    # one stencil: x, x +- H_G e_k and the 18 points of the second
    # differences, 25 for n = 2 (seven finite-difference sprays took 49)
    steps = 3
    ch = fermi.FermiChart(perturbed_chart().geodesic, exp_steps=steps)
    m = ch.metric
    calls = {"beta": 0, "gmat": 0}

    def counted(name, f):
        def wrapped(x):
            calls[name] += 1
            return f(x)
        return wrapped
    m.beta, m.gmat = counted("beta", m.beta), counted("gmat", m.gmat)
    rng = np.random.default_rng(4)
    ch.jacobian(rng.uniform(0.2, 1.3, 20),
                rng.uniform(-0.05, 0.05, (20, 2)))
    assert calls == {"beta": 25 * 4 * steps, "gmat": 25 * 4 * steps}


def test_flat_jacobi_fields_closed_form():
    ch = flat_chart()
    rng = np.random.default_rng(2)
    s = rng.uniform(0.1, 1.9, 50)
    z = rng.uniform(-0.2, 0.2, (50, 2))
    F, J = ch.jacobian(s, z)
    E = ch.frame.E[0]
    expect = np.stack([[1.0, 1.0, 0.0], E[1], E[2]], axis=-1)
    assert np.max(np.abs(J - expect)) <= 1e-12
    assert np.max(np.abs(F - ch.forward(s, z))) <= 1e-12


def newton_reference(ch, pts):
    """The Newton inverse with a `forward` call for the residual and a
    `jacobian` call on the unconverged rest; returns (s, z, inside) and the
    number of Newton iterations."""
    m = len(pts)
    s = ch._seed(pts)
    z = np.zeros((m, ch.n))
    alive = np.ones(m, dtype=bool)
    converged = np.zeros(m, dtype=bool)
    iters = 0
    for _ in range(fermi._NEWTON_MAXITER):
        act = alive & ~converged
        if not act.any():
            break
        iters += 1
        sa, za, pa = s[act], z[act], pts[act]
        r = ch.forward(sa, za) - pa
        done = np.max(np.abs(r), axis=-1) < fermi._NEWTON_TOL
        idx = np.flatnonzero(act)
        converged[idx[done]] = True
        if done.all():
            continue
        sa, za, r, idx = sa[~done], za[~done], r[~done], idx[~done]
        J = ch.jacobian(sa, za)[1]
        step = np.linalg.solve(J, r[..., None])[..., 0]
        sa = sa - step[:, 0]
        za = za - step[:, 1:]
        bad = (~np.isfinite(sa)) | (np.linalg.norm(za, axis=-1)
                                    > 4 * ch.delta_prime)
        alive[idx[bad]] = False
        s[idx[~bad]] = sa[~bad]
        z[idx[~bad]] = za[~bad]
    inside = (converged & alive
              & (np.linalg.norm(z, axis=-1) < ch.delta_prime))
    return (s, z, inside), iters


@pytest.mark.parametrize("make_chart", [flat_chart, perturbed_chart])
def test_newton_inverse_takes_residual_from_jacobian(monkeypatch, make_chart):
    # one `jacobian` call per Newton step gives both the residual and the
    # matrix; the result is the forward-residual loop's, bit for bit
    ch = make_chart()
    rng = np.random.default_rng(8)
    pts = (ch.geodesic.point(rng.uniform(0.1, 1.4, 200))
           + rng.normal(scale=0.6 * ch.delta_prime, size=(200, ch.n + 1)))
    ref, iters = newton_reference(ch, pts)
    calls = {"forward": 0, "jacobian": 0}

    def counting(name):
        original = getattr(fermi.FermiChart, name)

        def wrapped(self, s, z):
            calls[name] += 1
            return original(self, s, z)
        return wrapped

    for name in calls:
        monkeypatch.setattr(fermi.FermiChart, name, counting(name))
    got = ch.inverse_many(pts)
    assert calls == {"forward": 0, "jacobian": iters}
    # points inside and outside the tube
    assert 0 < ref[2].sum() < len(pts)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
