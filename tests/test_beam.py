"""Gaussian beam tests: Riccati closed forms, jet residuals, residual decay.

The flat-chart oracles below are frozen analytic values.  With H0 = i*I on
the standard null geodesic the matrix system has the closed form
Y = diag(1, 1 + 2i(s - s0)), H = diag(i, i / (1 + 2i(s - s0))), the leading
amplitude is det(Y)^{-1/2}, and the only nonzero degree-3 phase coefficient
is the y1*(y2)^2 one with value -4i(s - s0) / (1 + 2i(s - s0))^2.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from diamondwave import beam, fermi
from diamondwave import geometry as geo


def flat_chart(n=2, span=(0.0, 2.0)):
    m = geo.minkowski(n)
    v = np.zeros(n + 1)
    v[0] = v[1] = 1.0
    g = geo.integrate_null_geodesic(m, np.zeros(n + 1), v, span)
    return fermi.FermiChart(g)


def perturbed_chart(amp=0.05, span=(0.0, 1.5), steps=400):
    n = 2
    m = geo.SplitMetric(
        n,
        beta=lambda x: 1 + amp * np.sin(np.asarray(x)[..., 1]),
        gmat=lambda x: (1 + amp * np.cos(np.asarray(x)[..., 0]
                                         + 0.5 * np.asarray(x)[..., 2]))[..., None, None]
        * np.eye(n),
    )
    p = np.zeros(3)
    beta0 = float(m.beta(p))
    g11 = float(m.gmat(p)[0, 0])
    v = np.array([1.0, np.sqrt(beta0 / g11), 0.0])
    g = geo.integrate_null_geodesic(m, p, v, span, steps_per_unit=steps)
    return fermi.FermiChart(g)


def gaussian_V(center=(0.75, 0.75, 0.0), amp=1.0, width=0.5):
    c = np.asarray(center, dtype=float)

    def V(x):
        x = np.asarray(x, dtype=float)
        return amp * np.exp(-np.sum((x - c) ** 2, axis=-1) / width**2)
    return V


@pytest.fixture(scope="module")
def flat_phase():
    ch = flat_chart()
    jet = beam.solve_riccati(ch, 1.0)
    return ch, beam.solve_phase_higher(jet, 6)


@pytest.fixture(scope="module")
def flat_beam(flat_phase):
    ch, jet = flat_phase
    V = gaussian_V(center=(1.0, 1.0, 0.0))
    amp = beam.solve_amplitudes(jet, V, 4)
    return beam.GaussianBeam(ch, jet, amp), V


@pytest.fixture(scope="module")
def pert_beam():
    ch = perturbed_chart()
    V = gaussian_V()
    return beam.make_beam(ch, V=V, N=4), V


# -- Riccati / phase ---------------------------------------------------------

def test_flat_Y_closed_form(flat_phase):
    _, jet = flat_phase
    ds = jet.s - jet.s0
    Y = np.zeros((len(ds), 2, 2), dtype=complex)
    Y[:, 0, 0] = 1.0
    Y[:, 1, 1] = 1 + 2j * ds
    assert np.max(np.abs(jet.Y - Y)) < 1e-9


def test_flat_H_closed_form(flat_phase):
    _, jet = flat_phase
    H = jet.Z @ np.linalg.inv(jet.Y)
    ds = jet.s - jet.s0
    ref = np.zeros_like(H)
    ref[:, 0, 0] = 1j
    ref[:, 1, 1] = 1j / (1 + 2j * ds)
    assert np.max(np.abs(H - ref)) < 1e-9


def test_flat_conservation_exact(flat_phase):
    _, jet = flat_phase
    assert jet.conservation_drift() < 1e-12


def test_flat_phi3_closed_form(flat_phase):
    # the transverse Hessian of ginv^11 vanishes, but the eikonal still
    # forces a cubic correction through the H y.y self-interaction
    _, jet = flat_phase
    for s in (0.4, 1.3, 1.9):
        cube = jet.phi_cube_at(s)
        ds = s - jet.s0
        ref = -4j * ds / (1 + 2j * ds) ** 2
        assert abs(cube.get((1, 2)) - ref) < 1e-6
        for a in ((3, 0), (0, 3), (2, 1), (1, 1)):
            if a != (1, 2):
                assert abs(cube.get(a)) < 1e-6


def test_conservation_random_H0(pert_beam):
    b, _ = pert_beam
    jets = b.phase.jets
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        H0 = (A + A.T) * 0.3 + 1j * (B @ B.T + 0.3 * np.eye(2))
        jet = beam.solve_riccati(b.chart, 0.75, H0, jets=jets)
        assert jet.conservation_drift() < 1e-8
        for i in range(0, len(jet.s), 7):
            assert np.linalg.eigvalsh(jet.H_at(jet.s[i]).imag).min() > 0


def test_H0_validation():
    ch = flat_chart()
    with pytest.raises(beam.BeamError, match="symmetric"):
        beam.solve_riccati(ch, 1.0, np.array([[1j, 0.5], [0.0, 1j]]))
    with pytest.raises(beam.BeamError, match="positive definite"):
        beam.solve_riccati(ch, 1.0, np.diag([1j, -1j]))
    with pytest.raises(beam.BeamError, match="outside"):
        beam.solve_riccati(ch, 5.0)


def test_phase_order_capped_by_jet_degree(flat_phase):
    _, jet = flat_phase
    with pytest.raises(beam.BeamError, match="degree"):
        beam.solve_phase_higher(jet, 7)


def test_eikonal_defects_small(flat_phase, pert_beam):
    _, jet = flat_phase
    assert max(jet.eikonal_defects.values()) < 1e-8
    b, _ = pert_beam
    assert max(b.phase.eikonal_defects.values()) < 1e-8


def test_eikonal_residual_against_true_metric(pert_beam):
    # independent check: residual from the finite-difference pullback metric
    # (no polynomial fit) drops like r^7 off-axis
    b, _ = pert_beam
    jet = b.phase
    bch = jet.bchart
    rng = np.random.default_rng(3)
    worst = {}
    for r in (0.1, 0.05):
        m = 0.0
        for _ in range(12):
            s = rng.uniform(0.2, 1.3)
            y = rng.uniform(-1, 1, size=2) * r
            phi = jet.phi_cube_at(s)
            grad = np.array([complex(jet.dsphi_cube_at(s).eval(y))]
                            + [complex(phi.diff(k).eval(y)) for k in (1, 2)])
            ginv = np.linalg.inv(bch.pullback(s, y))[0]
            m = max(m, abs(grad @ ginv @ grad))
        worst[r] = m
    assert worst[0.1] < 5e-5
    assert worst[0.1] / worst[0.05] > 30


# -- amplitudes --------------------------------------------------------------

def test_flat_v00_determinant_formula(flat_beam):
    b, _ = flat_beam
    ds = b.amp.s - b.phase.s0
    ref = (1 + 2j * ds) ** (-0.5)
    assert np.max(np.abs(b.amp.v[0].axis() - ref)) < 1e-10


def test_amp_anchor_value(flat_beam):
    b, _ = flat_beam
    assert complex(b.amp.v_cube_at(0, b.phase.s0).axis()) == pytest.approx(1.0)
    for k in (1, 2, 3, 4):
        assert abs(complex(b.amp.v_cube_at(k, b.phase.s0).axis())) < 1e-10


def test_c10_zero_without_potential(flat_phase):
    _, jet = flat_phase
    amp = beam.solve_amplitudes(jet, None, 1)
    assert np.max(np.abs(amp.c10)) < 1e-12


def test_c10_constant_potential(flat_phase):
    _, jet = flat_phase
    amp = beam.solve_amplitudes(
        jet, lambda x: np.ones(np.asarray(x).shape[:-1]), 1)
    ds = amp.s - jet.s0
    ref = -0.5j * ds / np.sqrt(1 + 2j * ds)
    assert np.max(np.abs(amp.c10 - ref)) < 1e-10


def test_b10_independent_of_potential(flat_phase, flat_beam):
    _, jet = flat_phase
    amp0 = beam.solve_amplitudes(jet, None, 4)
    b, _ = flat_beam
    # the two runs differ only by RK4-vs-Simpson discretization in the split
    assert np.max(np.abs(b.amp.b10 - amp0.b10)) < 1e-6


def test_transport_defects_small(flat_beam, pert_beam):
    for (b, _) in (flat_beam, pert_beam):
        assert max(b.amp.transport_defects.values()) < 1e-10


def test_amplitudes_require_phase_order():
    ch = flat_chart()
    jet = beam.solve_riccati(ch, 1.0)   # order 2 only
    with pytest.raises(beam.BeamError, match="order"):
        beam.solve_amplitudes(jet, None, 4)


# -- curvature-term cross-check ---------------------------------------------

def test_D_matches_second_differences(pert_beam):
    b, _ = pert_beam
    jets = b.phase.jets
    bch = b.phase.bchart
    h = b.chart.delta_prime / 32
    for s in (0.4, 1.1):
        hess = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei = np.eye(2)[i] * h
                ej = np.eye(2)[j] * h

                def g11(y):
                    return np.linalg.inv(bch.pullback(s, y))[0, 1, 1]
                hess[i, j] = (g11(ei + ej) - g11(ei - ej)
                              - g11(-ei + ej) + g11(-ei - ej)) / (4 * h * h)
        assert np.max(np.abs(jets.D_at(s) - 0.25 * hess)) < 2e-4


# -- evaluation --------------------------------------------------------------

def test_eval_outside_tube_is_zero(pert_beam):
    b, _ = pert_beam
    assert b.eval(40.0, np.array([0.7, -3.0, 0.0])) == 0
    far = b.chart.forward(0.7, np.array([0.0, 0.9 * b.delta_prime]))
    assert b.eval(40.0, far) == 0  # cutoff kills |z| > delta'/2


def test_batched_eval_matches_pointwise_eval(pert_beam):
    # eval is batched over the leading axes; one point is the 0-d case
    b, _ = pert_beam
    rng = np.random.default_rng(8)
    pts = np.array([b.chart.forward(rng.uniform(0.3, 1.2),
                                    rng.uniform(-0.2, 0.2, size=2)
                                    * b.delta_prime)
                    for _ in range(10)]).reshape(2, 5, 3)
    vals = b.eval(35.0, pts)
    assert vals.shape == (2, 5)
    for p, v in zip(pts.reshape(-1, 3), vals.reshape(-1)):
        one = b.eval(35.0, p)
        assert one.shape == () and abs(one - v) < 1e-10


def test_conjugate_beam_is_conjugate(pert_beam):
    b, _ = pert_beam
    bc = beam.GaussianBeam(b.chart, b.phase, b.amp, conjugate=True)
    p = b.chart.forward(0.8, np.array([0.02, -0.03]))
    assert bc.eval(50.0, p) == pytest.approx(np.conj(b.eval(50.0, p)))


def test_transverse_decay_matches_imH(pert_beam):
    # |u| ~ exp(-tau (Im H y).y) in beam coordinates; sample along an
    # eigendirection and average the +/- offsets to cancel cubic phase terms
    b, _ = pert_beam
    s, tau, r = 0.9, 2000.0, 0.05
    imH = b.phase.H_at(s).imag
    lam, vecs = np.linalg.eigh(imH)
    y = r * vecs[:, 0]
    z = y * b.phase.bchart.scale
    u0 = abs(b.eval(tau, b.chart.forward(s, np.zeros(2))))
    up = abs(b.eval(tau, b.chart.forward(s, z)))
    um = abs(b.eval(tau, b.chart.forward(s, -z)))
    c_meas = -np.log(np.sqrt(up * um) / u0) / (tau * r * r)
    assert abs(c_meas - lam[0]) / lam[0] < 0.2


def test_manifest_mentions_key_fields(pert_beam):
    b, _ = pert_beam
    text = b.manifest()
    for key in ("geodesic endpoints", "order N", "delta_prime", "measured C"):
        assert key in text


# -- residual scaling --------------------------------------------------------

def test_residual_scaling_flat(flat_beam):
    b, V = flat_beam
    res = beam.beam_residual_scaling(b, V, [10, 20, 40, 80, 160])
    assert res["slope"] <= -1.2
    assert res["fit_residual"] < 0.2
    assert max(res["sup_u"]) / min(res["sup_u"]) < 1.5


# ---------------------------------------------------------------------------
# polynomial cubes and metric jets


def monomial_product(a, b):
    """Truncated product by brute force over dicts {alpha: coefficient}."""
    n, deg = a.n, a.deg
    alphas = [al for al in itertools.product(range(deg + 1), repeat=n)
              if sum(al) <= deg]
    out = {}
    for al in alphas:
        for be in alphas:
            if sum(al) + sum(be) <= deg:
                ga = tuple(x + y for x, y in zip(al, be))
                out[ga] = out.get(ga, 0) + a.get(al) * b.get(be)
    return out


@given(n=st.integers(1, 3), deg=st.integers(0, 8),
       leads=st.sampled_from([((), ()), ((3,), ()), ((), (3,)),
                              ((2, 1), (3,)), ((4,), (4,))]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mulp_matches_monomial_product(n, deg, leads, seed):
    rng = np.random.default_rng(seed)

    def cube(lead):
        shape = lead + (deg + 1,) * n
        # the slots with |alpha| > deg hold junk that must be ignored
        return beam.PolyCube(n, deg, rng.normal(size=shape)
                             + 1j * rng.normal(size=shape))

    a, b = cube(leads[0]), cube(leads[1])
    out = a.mulp(b)
    lead = np.broadcast_shapes(*leads)
    assert out.c.shape == lead + (deg + 1,) * n
    ref = monomial_product(a, b)
    for ga in itertools.product(range(deg + 1), repeat=n):
        if sum(ga) > deg:
            assert np.all(out.get(ga) == 0)
        else:
            assert np.allclose(out.get(ga), ref[ga], rtol=1e-12, atol=1e-12)


@given(n=st.integers(1, 3), deg=st.integers(0, 8), nodes=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mulp_on_lattice_equals_per_node(n, deg, nodes, seed):
    # the segment sum of a product over a lattice runs each slot's sum in
    # the same order at every node, so it equals the products at the nodes
    # bit for bit
    rng = np.random.default_rng(seed)
    shape = (nodes,) + (deg + 1,) * n
    a, b = (beam.PolyCube(n, deg, rng.normal(size=shape)
                          + 1j * rng.normal(size=shape)) for _ in range(2))
    out = a.mulp(b)
    for i in range(nodes):
        assert np.array_equal(out.c[i], a.node(i).mulp(b.node(i)).c)


def test_chart_jets_map_the_lattice_once(monkeypatch):
    calls = {"forward": 0, "jacobian": 0}

    def counting(name):
        original = getattr(fermi.FermiChart, name)

        def wrapped(self, s, z):
            calls[name] += 1
            return original(self, s, z)
        return wrapped

    for name in calls:
        monkeypatch.setattr(fermi.FermiChart, name, counting(name))
    bch = beam.BeamChart(flat_chart(2))
    V = gaussian_V()
    jets = beam.ChartJets(bch, np.linspace(0.0, 2.0, 8), deg=4)
    # one Jacobian call gives the lattice points and the chart metric
    assert calls == {"forward": 0, "jacobian": 1}
    s = np.linspace(0.0, 2.0, 13)
    one = jets.potential_at(V, s)
    two = jets.potential_at(lambda x: 2.0 * V(x), s)
    # potentials are fitted on the stored lattice points
    assert calls == {"forward": 0, "jacobian": 1}
    assert np.array_equal(two.c, 2.0 * one.c)
    assert not np.any(jets.potential_at(None, s).c)


def jets_state(jets):
    """Every attribute of chart jets, with arrays and spline data copied."""
    def snap(v):
        if isinstance(v, np.ndarray):
            return v.copy()
        if isinstance(v, dict):
            return {k: snap(x) for k, x in v.items()}
        if isinstance(v, CubicSpline):
            return (v.x.copy(), v.c.copy())
        return v
    return {k: snap(v) for k, v in vars(jets).items()}


def assert_same_state(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            assert_same_state(a[k], b[k])
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_state(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a is b or a == b


def test_amplitudes_leave_the_phase_jets_unchanged(flat_phase):
    _, jet = flat_phase
    before = jets_state(jet.jets)
    beam.solve_amplitudes(jet, gaussian_V(center=(1.0, 1.0, 0.0)), 2)
    assert_same_state(jets_state(jet.jets), before)


def test_amplitudes_from_one_phase_equal_separate_phases():
    # two potentials built one after the other on one phase give the
    # amplitudes of two phases built apart, bit for bit
    ch = flat_chart()

    def phase():
        return beam.solve_phase_higher(beam.solve_riccati(ch, 1.0), 4)

    Vs = (gaussian_V(center=(1.0, 1.0, 0.0)),
          gaussian_V(center=(0.5, 0.7, 0.1), amp=2.0, width=0.3))
    shared = phase()
    amps = [beam.solve_amplitudes(shared, V, 2) for V in Vs]
    for amp, V in zip(amps, Vs):
        alone = beam.solve_amplitudes(phase(), V, 2)
        for k in range(amp.N + 1):
            assert np.array_equal(amp.v[k].c, alone.v[k].c)
            assert np.array_equal(amp._forcing[k].c, alone._forcing[k].c)
        assert np.array_equal(amp.c10, alone.c10)
        assert np.array_equal(amp.b10, alone.b10)


@given(n=st.integers(1, 3), deg=st.integers(0, 6),
       lead=st.sampled_from([(), (2,), (3, 2)]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_graded_round_trip(n, deg, lead, data):
    lo = data.draw(st.integers(0, deg))
    hi = data.draw(st.integers(lo, deg))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = lead + (deg + 1,) * n
    a = beam.PolyCube(n, deg, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    vec = a.graded(lo, hi)
    alphas = [al for al in beam.multi_indices(n, deg) if lo <= sum(al) <= hi]
    assert vec.shape == lead + (beam.nmono(n, lo, hi),)
    for j, al in enumerate(alphas):
        assert np.array_equal(vec[..., j], a.get(al))
    # writing the vectors into a zero cube fills exactly those slots
    b = beam.PolyCube.zeros(n, deg, lead=lead).set_graded(lo, hi, vec)
    for al in itertools.product(range(deg + 1), repeat=n):
        want = a.get(al) if lo <= sum(al) <= hi else 0
        assert np.array_equal(b.get(al), np.broadcast_to(want, lead))


def fill_reference(pieces, v, forcing, mdeg):
    """`_TransportPieces.fill` with all of T v formed again at every degree,
    as E_0 ds v + sum_l E_l d_l v - (box phi) v in that order."""
    dsv = beam.PolyCube.zeros(v.n, v.deg)
    for j in range(mdeg + 1):
        Tv = pieces.E[0].mulp(dsv)
        for l in range(1, v.n + 1):
            Tv = Tv + pieces.E[l].mulp(v.diff(l))
        R = Tv - pieces.boxphi.mulp(v) - forcing
        dsv.set_graded(j, j, dsv.graded(j, j) - R.graded(j, j) / pieces.e0ax)
    return dsv


def test_transport_pieces_on_lattice_equal_per_node(pert_beam):
    # the transport solve reads its pieces and each level's forcing at an
    # RK4 stage from one lattice construction over the stage parameters
    # (nodes and midpoints); each equals the construction at that stage
    # alone, and so does the residual's construction over the nodes
    b, V = pert_beam
    jet, amp = b.phase, b.amp
    s, n, deg, jets = jet.s, jet.n, jet.phi_c.deg, jet.jets
    levels = (amp._v_sp, amp._dsv_sp, amp._ddsv_sp)

    def lattice(sp, t):
        return beam.PolyCube(n, deg, sp(t))

    def pieces_at(t):
        return beam._TransportPieces(
            jets.ginv_at(t), jets.w_at(t),
            *(lattice(jet._sp[k], t) for k in ("phi", "dsphi", "ddsphi")))

    params = jet.stages.params
    assert len(params) == 2 * len(s) - 1
    for j, t in enumerate(params):
        one, stage = pieces_at(float(t)), amp._stage[j]
        for w, c in zip(stage.E + [stage.boxphi], one.E + [one.boxphi]):
            assert np.array_equal(w.c, c.c)
        Vt = jets.potential_at(V, float(t))
        for k in range(1, amp.N + 1):
            v, dsv, ddsv = (lattice(sp[k - 1], float(t)) for sp in levels)
            F = (one.box(v, dsv, ddsv) + Vt.mulp(v)).scaled(-1j)
            assert np.array_equal(amp._forcing[k].c[j], F.c)

    whole = pieces_at(s)
    v, dsv, ddsv = (lattice(sp[1], s) for sp in levels)
    T, P = whole.apply_T(v, dsv), whole.box(v, dsv, ddsv)
    for i, j in enumerate(jet.stages.nodes):
        node = amp._stage[j]
        for w, c in zip(whole.E + [whole.boxphi], node.E + [node.boxphi]):
            assert np.array_equal(w.c[i], c.c)
        vi, dsvi, ddsvi = (x.node(i) for x in (v, dsv, ddsv))
        assert np.array_equal(T.c[i], node.apply_T(vi, dsvi).c)
        assert np.array_equal(P.c[i], node.box(vi, dsvi, ddsvi).c)
        F = amp._forcing[1].node(j)
        assert np.array_equal(node.fill(vi, F, amp._mdeg(1)).c,
                              fill_reference(node, vi, F, amp._mdeg(1)).c)
