"""Wave solver tests: exactness identities, convergence, causality, I/O."""

import tracemalloc

import numpy as np
import pytest

from diamondwave import exprs
from diamondwave import geometry as geo
from diamondwave import recovery
from diamondwave import solver as slv


def bump_source(grid, t0=0.3, width=0.2, rad=0.4):
    """Smooth space-time bump supported in |x|<rad, |t-t0|<width."""
    def f(t, pts):
        s2 = ((t - t0) / width) ** 2
        out = np.zeros(pts.shape[:-1])
        if s2 >= 1:
            return out
        r2 = np.sum(pts[..., 1:] ** 2, axis=-1) / rad**2
        mask = r2 < 1
        out[mask] = np.exp(-1 / (1 - r2[mask])) * np.exp(-1 / (1 - s2))
        return out
    return slv.SourceTerm.from_closure(grid, f, name="bump")


def small_grid(n=2, h=0.1, dt=0.03, T=0.9, radius=0.5):
    return slv.Grid.for_ball(n, radius, T, h, dt)


def test_zero_source_zero_solution():
    g = small_grid()
    m = geo.minkowski(2)
    u = slv.solve_forward(m, g, None, slv.SourceTerm.zero(g))
    assert u.sup_norm() == 0.0


def test_manufactured_cubic_space_constant():
    # u*(t)=t^2 solves box u + u^3 = 2 + t^6 with zero data; exact in the
    # interior until boundary effects arrive
    g = slv.Grid.for_ball(2, 0.3, 0.6, 0.1, 0.025)
    m = geo.minkowski(2)
    f = slv.SourceTerm.from_closure(g, lambda t, pts: 2.0 + t**6)
    u = slv.solve_forward(m, g, None, f, nonlinear=True)
    c = tuple(s // 2 for s in g.shape)
    # time index where light from the boundary has not yet reached center
    m_idx = g.nt // 2
    t = m_idx * g.dt
    assert u.data[(m_idx,) + c] == pytest.approx(t * t, abs=1e-10)


def test_apply_operator_inverts_linear_solve():
    g = small_grid()
    m = geo.minkowski(2)
    V = lambda pts: 0.5 * np.exp(-np.sum(pts[..., 1:] ** 2, axis=-1))
    f = bump_source(g)
    u = slv.solve_forward(m, g, V, f)
    back = slv.apply_wave_operator(m, g, V, u)
    for mm in range(1, g.nt - 1):
        assert np.allclose(back.data[mm], f.slice(mm), atol=1e-11)


def test_apply_operator_inverts_nonlinear_solve():
    g = slv.Grid.for_ball(2, 0.4, 0.6, 0.1, 0.02)
    m = geo.minkowski(2)
    f = bump_source(g, t0=0.25, width=0.15, rad=0.3)
    u = slv.solve_forward(m, g, 0.3, f, nonlinear=True)
    back = slv.apply_wave_operator(m, g, 0.3, u, nonlinear=True)
    for mm in range(1, g.nt - 1):
        assert np.allclose(back.data[mm], f.slice(mm), atol=1e-10)


def test_split_metric_rejected():
    # curved backgrounds are Gaussian-beam territory: the march and the
    # discrete operator refuse them before any work
    n = 2
    metric = geo.SplitMetric(
        n,
        beta=lambda x: 1 + 0.1 * np.exp(-np.sum(np.asarray(x)[..., 1:] ** 2, axis=-1)),
        gmat=lambda x: (1 + 0.05 * np.sin(np.asarray(x)[..., 0]))[..., None, None] * np.eye(n),
    )
    g = slv.Grid.for_ball(n, 0.4, 0.6, 0.1, 0.02)
    f = bump_source(g, t0=0.25, width=0.15, rad=0.3)
    with pytest.raises(slv.SolverError, match="flat background"):
        slv.solve_forward(metric, g, 0.3, f)
    with pytest.raises(slv.SolverError, match="flat background"):
        slv.solve_backward(metric, g, 0.3, f)
    with pytest.raises(slv.SolverError, match="flat background"):
        slv.apply_wave_operator(metric, g, 0.3, slv.GridField.zeros(g))


def test_constant_field_operator_zero_interior():
    g = small_grid()
    m = geo.minkowski(2)
    u = slv.GridField(g, np.ones((g.nt,) + g.shape))
    out = slv.apply_wave_operator(m, g, None, u)
    inner = out.data[1:-1, 3:-3, 3:-3]
    assert np.max(np.abs(inner)) < 1e-12


@pytest.mark.parametrize("nonlinear", [False, True])
def test_self_convergence_order(nonlinear):
    m = geo.minkowski(2)
    sols = []
    for lvl in range(3):
        h = 0.08 / 2**lvl
        dt = 0.02 / 2**lvl
        g = slv.Grid.for_ball(2, 0.5, 0.8, h, dt, pad=1.1)  # nested grids
        f = bump_source(g)
        u = slv.solve_forward(m, g, None, f, nonlinear=nonlinear)
        sols.append((g, u))
    vals = [u.data[-1][(slice(None, None, 2**lvl),) * 2]
            for lvl, (g, u) in enumerate(sols)]
    e1 = np.max(np.abs(vals[0] - vals[1]))
    e2 = np.max(np.abs(vals[1] - vals[2]))
    order = np.log2(e1 / e2)
    assert order >= 1.8


def _laplacian_by_shifts(u, h, n):
    # the zero-extension formula with one shifted copy per stencil term
    out = np.zeros_like(u)
    c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    for ax in range(n):
        for k, off in zip(c, (-2, -1, 0, 1, 2)):
            out += k * slv._shift(u, off, ax)
    return out


@pytest.mark.parametrize("n, size", [(1, 40), (2, 23), (3, 9)])
@pytest.mark.parametrize("cplx", [False, True])
def test_laplacian_matches_shift_formula_bitwise(n, size, cplx):
    rng = np.random.default_rng(n)
    u = rng.standard_normal((size,) * n)
    if cplx:
        u = u + 1j * rng.standard_normal((size,) * n)
    lap = slv.laplacian_4th(u, 0.07, n)
    assert lap.shape == u.shape
    assert np.array_equal(lap, _laplacian_by_shifts(u, 0.07, n))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("potential", ["none", "scalar", "static", "closure"])
@pytest.mark.parametrize("nonlinear", [False, True])
@pytest.mark.parametrize("crop", [False, True])
def test_wave_operator_is_its_slice_formula(n, cplx, potential, nonlinear,
                                            crop):
    # per interior slice ((u+ - 2u + u-)/dt^2 - lap u) + V u (+ u (u u)),
    # with lap the zero-extension formula and V read at the slice's time;
    # the first and last slices are zero
    g = slv.Grid(n, -0.6 * np.ones(n), (13,) * n, 0.1, 0.04, 0.4, t0=0.7)
    if crop:
        g = slv.CropGrid(g, (slice(2, 11), slice(3, 10))[:n])
    rng = np.random.default_rng(n)
    u = rng.standard_normal((g.nt,) + g.shape)
    if cplx:
        u = u + 1j * rng.standard_normal(u.shape)
    V = {"none": None, "scalar": 0.3,
         "static": exprs.ScalarField.from_text("0.5*exp(-x1^2)", n),
         "closure": lambda pts: 0.5 + pts[..., 0] * np.cos(pts[..., 1]),
         }[potential]
    out = slv.apply_wave_operator(geo.minkowski(n), g, V,
                                  slv.GridField(g, u), nonlinear=nonlinear)
    ref = np.zeros_like(u)
    for m in range(1, g.nt - 1):
        v = (0.0 if V is None else V if np.isscalar(V)
             else np.asarray(V(g.spacetime_slice(m))))
        val = (u[m + 1] - 2 * u[m] + u[m - 1]) / (g.dt * g.dt) \
            - _laplacian_by_shifts(u[m], g.h, n) + v * u[m]
        if nonlinear:
            val = val + u[m] * (u[m] * u[m])
        ref[m] = val
    assert out.grid is g
    assert np.array_equal(out.data, ref)


def _neighbour_sums(u, n):
    """(N, F): the sums of the 2n near (offset +-1) and far (+-2) zero-filled
    neighbours, axis by axis and offset - before +."""
    return [sum(slv._shift(u, sign * k, ax) for ax in range(n)
                for sign in (-1, 1)) for k in (1, 2)]


@pytest.mark.parametrize("potential", [False, True])
@pytest.mark.parametrize("source", [False, True])
def test_leapfrog_step_is_its_array_formula(potential, source):
    # the buffered step on the band equals the fused array formula,
    # dt^2 folded into the stencil weights
    g = slv.Grid.for_ball(2, 0.3, 0.5, 0.05, 0.0125)
    rng = np.random.default_rng(11)

    def cplx():
        return rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    u_prev, u = cplx(), cplx()
    v = rng.standard_normal(g.shape) if potential else None
    f = cplx() if source else None
    leapfrog = slv._Leapfrog(g, complex, u, nonlinear=True)
    leapfrog.inner[0][...] = u_prev
    new = leapfrog.step(v, f)
    dt2 = g.dt * g.dt
    c = np.array([-30.0, 16.0, -1.0]) / (12.0 * g.h * g.h)
    near, far = _neighbour_sums(u, g.n)
    ref = (((2 + dt2 * g.n * c[0]) * u - u_prev) + (dt2 * c[1]) * near) \
        + (dt2 * c[2]) * far
    if v is not None:
        ref = ref - dt2 * (v * u)
    if f is not None:
        ref = ref + dt2 * f
    ref = ref - dt2 * (u * (u * u))
    assert np.array_equal(new, ref)


@pytest.mark.parametrize("potential", ["array", "scalar"])
def test_leapfrog_step_with_a_potential_allocates_no_grid_buffer(potential):
    # the V term runs on the contiguous band, so numpy needs no casting
    # buffer for the real v against the complex level
    g = slv.Grid.for_ball(2, 0.3, 0.5, 0.05, 0.0125)
    rng = np.random.default_rng(2)
    u = 1e-3 * (rng.standard_normal(g.shape)
                + 1j * rng.standard_normal(g.shape))
    v = rng.standard_normal(g.shape) if potential == "array" else 0.7
    leapfrog = slv._Leapfrog(g, complex, u, nonlinear=True)
    leapfrog.step(v, None)
    tracemalloc.start()
    try:
        for _ in range(5):
            leapfrog.step(v, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 < u.nbytes


@pytest.mark.parametrize("n, size", [(1, 40), (2, 20), (3, 9)])
@pytest.mark.parametrize("potential", [False, True])
@pytest.mark.parametrize("source", [False, True])
@pytest.mark.parametrize("nonlinear", [False, True])
def test_fused_march_matches_the_plain_formula(n, size, potential, source,
                                               nonlinear):
    # 100 fused steps against a march of the plain step
    # (2u - u-) + dt^2 (lap u - V u + f - u^3): they differ by rounding only
    h, dt = 0.1, 0.05 / np.sqrt(n)
    g = slv.Grid(n, np.zeros(n), (size,) * n, h, dt, 100 * dt)
    rng = np.random.default_rng(n)

    def cplx():
        # small enough that the cube does not blow the march up
        return 0.1 * (rng.standard_normal(g.shape)
                      + 1j * rng.standard_normal(g.shape))
    u_prev, u = cplx(), cplx()
    v = rng.uniform(0.0, 2.0, g.shape) if potential else None
    f = cplx() if source else None
    leapfrog = slv._Leapfrog(g, complex, u, nonlinear=nonlinear)
    leapfrog.inner[0][...] = u_prev
    dt2 = g.dt * g.dt
    for _ in range(100):
        fused = leapfrog.step(v, f)
        rhs = slv.laplacian_4th(u, h, n)
        if v is not None:
            rhs = rhs - v * u
        if f is not None:
            rhs = rhs + f
        if nonlinear:
            rhs = rhs - u * (u * u)
        u_prev, u = u, (2 * u - u_prev) + dt2 * rhs
    scale = np.max(np.abs(u))
    assert 0 < scale < 10
    assert np.max(np.abs(fused - u)) <= 1e-12 * scale


def _smallness_raises(u, parts, bound):
    try:
        slv._check_smallness(u, parts, bound)
    except slv.SolverError:
        return True
    return False


def test_smallness_check_decides_as_the_exact_modulus():
    # the part bound max(|Re u|, |Im u|) only short-cuts a "no": the check
    # raises exactly when max|u| is not finite or exceeds the bound
    rng = np.random.default_rng(5)
    u = 1e-3 * (rng.standard_normal((9, 8)) + 1j * rng.standard_normal((9, 8)))
    cases = []
    for z in (0.7 * (1 + 1j), 0.7 + 0.2j, -0.7j, 0.7):
        w = u.copy()
        w[4, 3] = z
        amax = float(np.max(np.abs(w)))
        # max|u| just below, at and just above the bound, with the parts
        # below it; and a bound the part bound settles
        for bound in (np.nextafter(amax, 0), amax, np.nextafter(amax, 2),
                      1.2 * amax, 0.99 * amax, 2 * amax):
            cases.append((w, bound))
    for bad in (np.nan, complex(0.0, np.nan), np.inf, complex(0.0, -np.inf),
                complex(np.inf, np.nan)):
        w = u.copy()
        w[0, 7] = bad
        cases += [(w, 1.0), (w, 1e300)]
    for _ in range(200):
        w = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        cases.append((w, np.max(np.abs(w)) * rng.uniform(0.4, 1.6)))
    for w, bound in cases:
        for v, parts in ((w, w.view(float)), (w.real.copy(), None)):
            amax = np.max(np.abs(v))
            expect = not np.isfinite(amax) or amax > bound
            assert _smallness_raises(v, parts, bound) == expect


@pytest.mark.parametrize("potential", [None, "closure"])
def test_nonlinear_solve_is_odd_bitwise(potential):
    # zero data, cubic term: the source-to-solution map is odd in floating
    # point too, which lets the full route march one corner per sign pair
    g = slv.Grid.for_ball(2, 0.3, 0.5, 0.05, 0.0125)
    m = geo.minkowski(2)
    V = None if potential is None else \
        (lambda pts: 0.5 + np.exp(-np.sum(pts[..., 1:] ** 2, axis=-1)))
    bump = bump_source(g, t0=0.2, width=0.15, rad=0.25)
    data = 300.0 * np.exp(9j * g.meshgrid()[0]) * np.stack(
        [bump.slice(mm) for mm in range(g.nt)])
    u_plus = slv.solve_forward(m, g, V, slv.SourceTerm(g, field=data),
                               nonlinear=True)
    u_minus = slv.solve_forward(m, g, V, slv.SourceTerm(g, field=-data),
                                nonlinear=True)
    assert np.max(np.abs(u_plus.data)) > 0.3
    assert np.array_equal(u_minus.data, -u_plus.data)


def test_finite_speed_of_propagation():
    # the source must be well resolved for spectral containment of the
    # superluminal stencil tail below 1e-10
    g = slv.Grid.for_ball(2, 0.3, 0.8, 0.03, 0.008)
    m = geo.minkowski(2)
    f = bump_source(g, t0=0.25, width=0.2, rad=0.3)
    u = slv.solve_forward(m, g, None, f)
    X = g.meshgrid()
    r = np.sqrt(X[0] ** 2 + X[1] ** 2)
    for mm in range(g.nt):
        t = mm * g.dt
        outside = r > 0.3 + t + 2 * g.h
        assert np.max(np.abs(u.data[mm][outside])) < 1e-10


def test_backward_zero_source():
    g = small_grid()
    m = geo.minkowski(2)
    u = slv.solve_backward(m, g, None, slv.SourceTerm.zero(g))
    assert u.sup_norm() == 0.0


def test_backward_is_time_mirror_of_forward():
    g = small_grid(T=0.6, dt=0.03)
    m = geo.minkowski(2)
    f = bump_source(g, t0=0.35)
    mirrored = slv.SourceTerm.from_closure(g, lambda t, pts: f.slice(round((g.T - t) / g.dt)))
    u_fwd = slv.solve_forward(m, g, None, mirrored)
    u_bwd = slv.solve_backward(m, g, None, f)
    assert np.allclose(u_bwd.data, u_fwd.data[::-1], atol=1e-12)


def test_discrete_adjoint_identity():
    g = slv.Grid.for_ball(2, 0.4, 0.8, 0.08, 0.02)
    m = geo.minkowski(2)
    V = 0.4
    f1 = bump_source(g, t0=0.25, width=0.15, rad=0.3)
    f2 = bump_source(g, t0=0.55, width=0.15, rad=0.3)
    u1 = slv.solve_forward(m, g, V, f1)
    u2 = slv.solve_backward(m, g, V, f2)
    f1d = slv.GridField.from_closure(g, lambda pts: f1.slice(round(pts[0, 0, 0] / g.dt)))
    f2d = slv.GridField.from_closure(g, lambda pts: f2.slice(round(pts[0, 0, 0] / g.dt)))
    lhs = slv.spacetime_integral(g, u1, f2d)
    rhs = slv.spacetime_integral(g, f1d, u2)
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_blowup_detector(monkeypatch):
    g = slv.Grid.for_ball(1, 0.4, 2.0, 0.1, 0.04)
    m = geo.minkowski(1)
    f = slv.SourceTerm.from_closure(
        g, lambda t, pts: 50.0 * np.exp(-np.sum(pts[..., 1:] ** 2, axis=-1) / 0.01))
    slv.solve_forward(m, g, None, f, nonlinear=True)
    monkeypatch.setattr(slv, "BLOWUP_FACTOR", 1e-3)
    with pytest.raises(slv.SolverError, match="smallness"):
        slv.solve_forward(m, g, None, f, nonlinear=True)


@pytest.mark.parametrize("k, nw", [(0, 1), (0, None), (6, 9), (12, None)])
def test_window_march_keeps_the_whole_march_slices(monkeypatch, k, nw):
    # a march returns the slices of its time window, bit for bit those of
    # the whole-grid march; here nonlinear, with a boxed window source.
    # Slice m + 1 comes from step m, so the march stops after step
    # k + nw - 2, the window's last slice
    g = small_grid()
    m = geo.minkowski(2)
    dense = bump_source(g, rad=0.3).field * (30.0 + 15.0j)
    box = slv.support_box(dense)
    sw = slv.Grid(2, g.lo, g.shape, g.h, g.dt, 20 * g.dt, t0=g.time(2))
    f = slv.SourceTerm(sw, dense[2:23][(slice(None),) + box], box=box)
    nw = g.nt - k if nw is None else nw
    win = slv.Grid(2, g.lo, g.shape, g.h, g.dt, (nw - 1) * g.dt,
                   t0=g.time(k))
    whole = slv.solve_forward(m, g, 0.3, f, nonlinear=True)
    steps = []
    step = slv._Leapfrog.step

    def counting(self, v, src):
        steps.append(1)
        return step(self, v, src)
    monkeypatch.setattr(slv._Leapfrog, "step", counting)
    u = slv.solve_forward(m, g, 0.3, f, nonlinear=True, window=win)
    assert len(steps) == max(k + nw - 2, 0)
    assert u.grid is win
    assert np.array_equal(u.data, whole.data[k:k + nw])
    assert whole.grid is g and np.any(whole.data[6:15] != 0)


def test_grid_time_origin():
    # a window grid over a late time slab keeps physical times
    g = slv.Grid(1, [-0.5], (11,), 0.1, 0.05, 0.5, t0=1.25)
    times = g.times()
    assert times[0] == 1.25 and times[-1] == pytest.approx(1.75)
    assert np.all(g.spacetime_slice(3)[..., 0] == times[3])
    seen = []
    f = slv.SourceTerm.from_closure(
        g, lambda t, pts: seen.append(t) or np.full(pts.shape[:-1], t))
    # a closure is sampled once per slice, at the slice's physical time
    assert np.array_equal(seen, times)
    assert np.array_equal(f.field[:, 0], times)
    # a march on it returns its slices on it, at the same times
    u = slv.solve_forward(geo.minkowski(1), g, None, f)
    assert u.grid is g and np.array_equal(u.grid.times(), times)


def test_snapshot_roundtrip(tmp_path):
    g = small_grid(n=1, h=0.1, dt=0.05, T=0.5)
    rng = np.random.default_rng(0)
    data = rng.standard_normal((g.nt,) + g.shape)
    fld = slv.GridField(g, data)
    path = tmp_path / "snap.blwv"
    slv.write_snapshot(path, fld)
    back = slv.read_snapshot(path)
    assert back.data.tobytes() == data.tobytes()
    assert back.grid.same_layout(g)


def test_snapshot_roundtrip_complex(tmp_path):
    g = small_grid(n=1, h=0.1, dt=0.05, T=0.5)
    rng = np.random.default_rng(1)
    data = rng.standard_normal((g.nt,) + g.shape) + 1j * rng.standard_normal((g.nt,) + g.shape)
    path = tmp_path / "snap.blwv"
    slv.write_snapshot(path, slv.GridField(g, data))
    back = slv.read_snapshot(path)
    assert np.array_equal(back.data, data)


def test_snapshot_roundtrip_time_origin(tmp_path):
    g = slv.Grid(1, [0.0], (3,), 0.1, 0.05, 0.1, t0=1.0)
    data = np.arange(9.0).reshape(3, 3)
    path = tmp_path / "snap.blwv"
    slv.write_snapshot(path, slv.GridField(g, data))
    back = slv.read_snapshot(path)
    assert back.grid.t0 == 1.0
    assert np.array_equal(back.grid.times(), g.times())
    assert back.grid.same_layout(g)
    assert np.array_equal(back.data, data)


def test_snapshot_version1_reads_zero_time_origin_and_rejects_unknown(tmp_path):
    import struct
    data = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "snap_v1.blwv"
    path.write_bytes(b"BLWV" + struct.pack("<II2Idd1d", 1, 1, 2, 3, 0.1, 0.05,
                                           -0.1) + data.astype("<f8").tobytes())
    back = slv.read_snapshot(path)
    assert back.grid.t0 == 0.0
    assert np.array_equal(back.grid.times(), [0.0, 0.05])
    assert np.array_equal(back.grid.lo, [-0.1])
    assert np.array_equal(back.data, data)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 3)
    path.write_bytes(bytes(raw))
    with pytest.raises(slv.SolverError, match="unsupported snapshot version"):
        slv.read_snapshot(path)


@pytest.mark.parametrize("cut", [8, 100, 150])
def test_snapshot_truncated_raises(tmp_path, cut):
    g = slv.Grid(1, [0.0], (3,), 0.1, 0.05, 0.1, t0=1.0)
    path = tmp_path / "snap.blwv"
    slv.write_snapshot(path, slv.GridField(g, np.ones((3, 3)) + 0j))
    raw = path.read_bytes()
    path.write_bytes(raw[:-cut])
    with pytest.raises(slv.SolverError, match="truncated"):
        slv.read_snapshot(path)


def test_cfl_guard():
    with pytest.raises(slv.SolverError, match="CFL"):
        g = slv.Grid(2, [-1, -1], (21, 21), 0.1, 0.09, 0.9)
        g.check_cfl()


# -- potentials and dispersion -------------------------------------------------

class CountingField(exprs.ScalarField):
    """A parsed potential that counts its evaluations."""

    def __init__(self, text, n):
        super().__init__(exprs.parse_expression(text, n), n)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)


@pytest.mark.parametrize("text, static", [
    ("0.5*exp(-(x1^2 + x2^2))", True),
    ("0.5*exp(-(x1^2 + x2^2))*(1 + 0.3*t)", False),
])
def test_static_potential_evaluated_once_per_march(text, static):
    g = small_grid()
    m = geo.minkowski(2)
    f = bump_source(g)
    V = CountingField(text, 2)
    assert V.time_dependent is not static
    u = slv.solve_forward(m, g, V, f, nonlinear=True)
    assert V.calls == (1 if static else g.nt - 2)
    # a plain closure takes the per-slice path: the same solution bit for bit
    ref = slv.solve_forward(m, g, lambda pts: V(pts), f, nonlinear=True)
    assert np.array_equal(u.data, ref.data)
    # the coefficient march's four fields share each slice it reads
    V.calls = 0
    slv.solve_cross_coefficient(m, g, V, three_boxed_sources(g))
    assert V.calls == (1 if static else g.nt - 2)


def test_stencil_group_velocity():
    # the 4th-order Laplacian's group velocity: 1 as kh -> 0, 0.876 at four
    # points per wavelength (kh = 1.56)
    assert slv.stencil_group_velocity(0.0) == 1.0
    assert slv.stencil_group_velocity(1e-4) == pytest.approx(1.0, abs=1e-12)
    th = 1.56
    formula = (32 * np.sin(th) - 4 * np.sin(2 * th)) / (
        24 * np.sqrt((30 - 32 * np.cos(th) + 2 * np.cos(2 * th)) / 12))
    assert slv.stencil_group_velocity(th) == pytest.approx(formula, rel=1e-12)
    assert round(float(slv.stencil_group_velocity(th)), 3) == 0.876


@pytest.mark.parametrize("backward", [False, True])
def test_window_field_source_is_read_by_time(backward):
    # a field source on a time window of the march grid is read at the slice
    # with the same time and is zero outside the window
    g = small_grid(n=1)
    m = geo.minkowski(1)
    bump = bump_source(g, rad=0.3)
    data = np.array([bump.slice(i) for i in range(g.nt)])
    k, nw = 6, 14
    wg = slv.Grid(1, g.lo, g.shape, g.h, g.dt, (nw - 1) * g.dt, t0=g.time(k))
    lifted = np.zeros_like(data)
    lifted[k:k + nw] = data[k:k + nw]
    solve = slv.solve_backward if backward else slv.solve_forward
    u = solve(m, g, None, slv.SourceTerm(wg, field=data[k:k + nw]))
    ref = solve(m, g, None, slv.SourceTerm(g, field=lifted))
    assert np.array_equal(u.data, ref.data)
    assert np.any(u.data != 0)


@pytest.mark.parametrize("backward", [False, True])
def test_boxed_source_march_equals_dense_march(backward):
    # a source stored on its support box marches as its whole-grid embedding
    g = small_grid()
    m = geo.minkowski(2)
    dense = bump_source(g, rad=0.3).field * (1.0 + 0.5j)
    box = slv.support_box(dense)
    boxed = slv.SourceTerm(g, dense[(slice(None),) + box], box=box)
    assert boxed.field.size < dense.size
    assert np.array_equal(boxed.dense(), dense)
    assert boxed.scale() == slv.SourceTerm(g, dense).scale()
    if backward:
        u = slv.solve_backward(m, g, 0.3, boxed)
        ref = slv.solve_backward(m, g, 0.3, slv.SourceTerm(g, dense))
    else:
        u = slv.solve_forward(m, g, 0.3, boxed, nonlinear=True)
        ref = slv.solve_forward(m, g, 0.3, slv.SourceTerm(g, dense),
                                nonlinear=True)
    assert np.array_equal(u.data, ref.data)
    assert np.any(u.data != 0)


def test_source_box_must_fit_field_and_grid():
    g = small_grid(n=1)
    for box, width in (((slice(0, 4),), 3), ((slice(-1, 2),), 3),
                       ((slice(g.shape[0] - 2, g.shape[0] + 1),), 3)):
        f = slv.SourceTerm(g, np.zeros((g.nt, width)), box=box)
        with pytest.raises(slv.SolverError, match="box"):
            slv.solve_forward(geo.minkowski(1), g, None, f)


def test_support_box_is_the_widened_bounding_box():
    data = np.zeros((3, 20, 30))
    data[1, 5, 7] = data[2, 9, 28] = 1.0
    assert slv.support_box(data) == (slice(3, 12), slice(5, 30))
    assert slv.support_box(np.zeros((3, 4))) == (slice(0, 0),)


def test_window_source_must_share_the_march_layout():
    g = small_grid(n=1)
    T = 4 * g.dt
    for wg in (slv.Grid(1, g.lo, g.shape, g.h, 2 * g.dt, 2 * T),
               slv.Grid(1, g.lo, g.shape, g.h, g.dt, T, t0=0.5 * g.dt),
               slv.Grid(1, g.lo + g.h, g.shape, g.h, g.dt, T)):
        f = slv.SourceTerm(wg, field=np.zeros((wg.nt,) + wg.shape))
        with pytest.raises(slv.SolverError, match="time window"):
            slv.solve_forward(geo.minkowski(1), g, None, f)
    # the same holds for the window a march returns, which must also lie
    # inside the march grid
    f = slv.SourceTerm.zero(g)
    for wg in (slv.Grid(1, g.lo, g.shape, g.h, 2 * g.dt, 2 * T),
               slv.Grid(1, g.lo, g.shape, g.h, g.dt, T, t0=0.5 * g.dt),
               slv.Grid(1, g.lo + g.h, g.shape, g.h, g.dt, T),
               slv.Grid(1, g.lo, g.shape, g.h, g.dt, T, t0=-g.dt),
               slv.Grid(1, g.lo, g.shape, g.h, g.dt, T, t0=g.T - T + g.dt)):
        with pytest.raises(slv.SolverError, match="time window"):
            slv.solve_forward(geo.minkowski(1), g, None, f, window=wg)


def three_boxed_sources(g, scale=1.0):
    """Three complex bumps at staggered times, each stored on its box."""
    fs = []
    for t0, phase in ((0.25, 1.0), (0.3, 1j), (0.35, -0.5 + 0.5j)):
        dense = bump_source(g, t0=t0, rad=0.3).field * (scale * phase)
        box = slv.support_box(dense)
        fs.append(slv.SourceTerm(g, dense[(slice(None),) + box], box=box))
    return fs


@pytest.mark.parametrize("V", [None, 0.3])
def test_cross_coefficient_is_the_march_of_the_triple_product(V, monkeypatch):
    # -c/6 is the linear march whose source is the product of the three
    # linear marches, slice by slice
    g = small_grid()
    m = geo.minkowski(2)
    fs = three_boxed_sources(g)
    w = slv.solve_cross_coefficient(m, g, V, fs)
    us = [slv.solve_forward(m, g, V, f).data for f in fs]
    ref = slv.solve_forward(m, g, V, slv.SourceTerm(g, us[0] * us[1] * us[2]))
    assert np.array_equal(w.data, ref.data)
    assert np.any(w.data != 0)
    assert not np.any(w.data[:2])
    # on a time window it is the same field's slices, and each of the four
    # fields steps up to the window's last slice and no further
    k, nw = 20, 6
    wg = slv.Grid(2, g.lo, g.shape, g.h, g.dt, (nw - 1) * g.dt, t0=g.time(k))
    steps = []
    step = slv._Leapfrog.step

    def counted(self, v, f):
        steps.append(self)
        return step(self, v, f)

    monkeypatch.setattr(slv._Leapfrog, "step", counted)
    part = slv.solve_cross_coefficient(m, g, V, fs, window=wg)
    assert part.grid is wg
    assert np.array_equal(part.data, w.data[k:k + nw])
    assert len(steps) == 4 * (k + nw - 2)
    assert len(set(steps)) == 4


def test_cross_coefficient_is_the_eps_limit_of_the_cross_derivative():
    # the eps-stencil of the nonlinear march converges to the coefficient
    # as h_eps^2
    g = small_grid()
    m = geo.minkowski(2)
    fs = three_boxed_sources(g, scale=30.0)
    w = slv.solve_cross_coefficient(m, g, None, fs).data

    def solve(eps):
        f = fs[0] * eps[0] + fs[1] * eps[1] + fs[2] * eps[2]
        return slv.solve_forward(m, g, None, f, nonlinear=True).data

    gaps = [np.max(np.abs(-recovery.cross_derivative(solve, h) / 6 - w))
            / np.max(np.abs(w)) for h in (0.2, 0.1)]
    assert 1e-7 < gaps[1] < gaps[0] < 1e-3
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.1)


def test_cross_coefficient_guards(monkeypatch):
    g = small_grid()
    m = geo.minkowski(2)
    # each linear field keeps the smallness guard of its own march
    with monkeypatch.context() as mp:
        mp.setattr(slv, "BLOWUP_FACTOR", 1e-3)
        with pytest.raises(slv.SolverError, match="smallness"):
            slv.solve_cross_coefficient(m, g, None, three_boxed_sources(g))
    # a product that overflows leaves the coefficient infinite
    huge = three_boxed_sources(g, scale=1e110)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(slv.SolverError, match="not finite"):
            slv.solve_cross_coefficient(m, g, None, huge)
