"""Gaussian beams along a null geodesic.

The beam lives on a rescaled copy of the Fermi chart.  On the Fermi axis the
pulled-back metric is 2 ds dz^1 + sum (dz^a)^2; with y^1 = 2 z^1 the cross
term becomes ds dy^1, so the (s, y^1) block is exactly [[0,1],[1,0]] (and the
identity in the remaining directions).  The phase hierarchy then takes its
simplest form: phi = y^1 + H(s) y.y + higher orders, with H solving
dH/ds + HCH + D = 0, C = diag(0, 2, ..., 2), D = (1/4) Hess(g^11).

All jet equations (eikonal and transport, order by order in the transverse
variables) are enforced against polynomial fits of the actual pulled-back
metric, so a wrong convention or a chart defect shows up directly in the
on-axis residual checks rather than being silently absorbed.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .fermi import FermiChart, chart_metric
from .geometry import _rk4_span, _rk4_stages
from .go import cumint, loglog_fit, smoothstep7


class BeamError(RuntimeError):
    pass


_HS = 0.015       # node step of the jet ODE lattice in s
_HS_JET = 0.02    # spacing of the s-nodes of the fitted metric jets
# the residual's measurement jets and transverse window: fit degree and
# cloud radius, window points per axis and window half-width in units of
# the beam's decay length 1/sqrt(C tau)
_MEAS_DEG, _MEAS_R_FIT, _MEAS_NW, _MEAS_KW = 8, 0.10, 17, 6.0


def _spline(s, values):
    """Cubic spline of `values` over the nodes s along axis 0.  scipy is
    imported here, so the flat routes, which build no beam, never load it."""
    from scipy.interpolate import CubicSpline
    return CubicSpline(s, values, axis=0)


# ---------------------------------------------------------------------------
# dense polynomial cubes in the transverse variables
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def multi_indices(n, deg):
    """All transverse multi-indices with |alpha| <= deg, graded order."""
    out = []
    for total in range(deg + 1):
        for alpha in itertools.product(range(total + 1), repeat=n):
            if sum(alpha) == total:
                out.append(alpha)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _degree_grid(n, D):
    """|alpha| for every slot of a (D,)*n coefficient cube."""
    grids = np.meshgrid(*([np.arange(D)] * n), indexing="ij")
    return sum(grids)


@functools.lru_cache(maxsize=None)
def _graded_slots(n, deg, lo, hi):
    """Cube index arrays of the monomials lo <= |alpha| <= hi, graded order."""
    alphas = [a for a in multi_indices(n, deg) if lo <= sum(a) <= hi]
    return tuple(np.array(ax) for ax in zip(*alphas))


def _monomials(y, D, n):
    """Monomial tensor y^alpha, shape y.shape[:-1] + (D,)*n, alpha < D."""
    mono = np.ones(y.shape[:-1] + (D,) * n, dtype=y.dtype)
    for k in range(n):
        powers = np.cumprod(
            np.concatenate([np.ones(y.shape[:-1] + (1,)),
                            np.repeat(y[..., k:k + 1], D - 1, axis=-1)],
                           axis=-1), axis=-1)
        shape = y.shape[:-1] + (1,) * k + (D,) + (1,) * (n - 1 - k)
        mono = mono * powers.reshape(shape)
    return mono


class PolyCube:
    """Polynomial in n transverse variables with a leading batch shape.

    coeffs[..., a1, ..., an] multiplies y1^a1 * ... * yn^an; coefficients with
    |alpha| > deg are kept identically zero (products truncate).
    """

    __slots__ = ("n", "deg", "c")

    def __init__(self, n, deg, c):
        self.n = n
        self.deg = deg
        self.c = c

    @classmethod
    def zeros(cls, n, deg, lead=(), dtype=complex):
        return cls(n, deg, np.zeros(tuple(lead) + (deg + 1,) * n, dtype=dtype))

    @property
    def lead(self):
        return self.c.shape[: self.c.ndim - self.n]

    def get(self, alpha):
        return self.c[(Ellipsis,) + tuple(alpha)]

    def __add__(self, other):
        return PolyCube(self.n, self.deg, self.c + other.c)

    def __sub__(self, other):
        return PolyCube(self.n, self.deg, self.c - other.c)

    def scaled(self, fac):
        """Multiply by a scalar or an array broadcast over the lead axes."""
        fac = np.asarray(fac)
        return PolyCube(self.n, self.deg,
                        self.c * fac.reshape(fac.shape + (1,) * self.n))

    def mulp(self, other):
        """Truncated polynomial product (lead axes broadcast).

        One pass over the pair plan of `_product_plan`: gather the factor
        coefficients of every pair (alpha, beta) with |alpha|+|beta| <= deg,
        multiply, and sum each run of products that lands in one slot
        alpha+beta (a segment sum).  Slots with |gamma| > deg are never
        written.  Each slot's sum runs over its own pairs in plan order
        whatever the lead shape, so a product of two cubes over a lattice
        equals the products at its nodes bit for bit.  That holds for
        lattice x lattice products only: one node's cube broadcast across a
        lattice may differ in the last bit (hypothesis found n=1, deg=0),
        since numpy's complex multiply takes another inner loop for a
        stride-0 factor.
        """
        D, n = self.deg + 1, self.n
        ia, ib, starts, slots = _product_plan(n, self.deg)
        a = self.c.reshape(self.lead + (D**n,))[..., ia]
        b = other.c.reshape(other.lead + (D**n,))[..., ib]
        prod = a * b
        out = np.zeros(prod.shape[:-1] + (D**n,), dtype=complex)
        out[..., slots] = np.add.reduceat(prod, starts, axis=-1)
        return PolyCube(n, self.deg, out.reshape(out.shape[:-1] + (D,) * n))

    def diff(self, k):
        """Derivative with respect to y_{k} (k in 1..n, chart numbering)."""
        ax = self.c.ndim - self.n + (k - 1)
        D = self.deg + 1
        out = np.zeros_like(self.c)
        sl_src = [slice(None)] * self.c.ndim
        sl_dst = [slice(None)] * self.c.ndim
        sl_src[ax] = slice(1, D)
        sl_dst[ax] = slice(0, D - 1)
        powers = np.arange(1, D).reshape(
            (D - 1,) + (1,) * (self.c.ndim - 1 - ax))
        out[tuple(sl_dst)] = self.c[tuple(sl_src)] * powers
        return PolyCube(self.n, self.deg, out)

    def graded(self, lo, hi):
        """Coefficients with lo <= |alpha| <= hi as flat vectors (lead...,
        nmono), in the graded order of `multi_indices`."""
        return self.c[(Ellipsis,) + _graded_slots(self.n, self.deg, lo, hi)]

    def set_graded(self, lo, hi, vec):
        """Inverse of `graded`: write the vectors back into their slots."""
        self.c[(Ellipsis,) + _graded_slots(self.n, self.deg, lo, hi)] = vec
        return self

    def max_degree_abs(self, m):
        mask = _degree_grid(self.n, self.deg + 1) == m
        vals = self.c[..., mask]
        return float(np.max(np.abs(vals))) if vals.size else 0.0

    def eval(self, y):
        """Evaluate at points y (..., n); lead axes broadcast against y's."""
        mono = _monomials(np.asarray(y), self.deg + 1, self.n)
        return np.sum(self.c * mono, axis=tuple(range(-self.n, 0)))

    def eval_grid(self, ypts):
        """Evaluate at a batch of points (m, n) -> (lead..., m)."""
        mono = _monomials(np.asarray(ypts, dtype=float), self.deg + 1, self.n)
        return np.tensordot(self.c, mono, axes=(tuple(range(-self.n, 0)),
                                                tuple(range(1, self.n + 1))))

    def axis(self):
        return self.c[(Ellipsis,) + (0,) * self.n]

    def node(self, i):
        """The cube at lead index i (a view)."""
        return PolyCube(self.n, self.deg, self.c[i])


@functools.lru_cache(maxsize=None)
def _product_plan(n, deg):
    """Pair plan of the truncated product of two (deg+1,)*n cubes.

    Returns flat cube offsets (ia, ib) of every pair (alpha, beta) with
    |alpha| + |beta| <= deg, sorted by the flat offset of alpha + beta, and
    the segments of that order: `starts` indexes the first pair of each
    destination slot and `slots` the slot itself.  Read-only: the arrays are
    shared by every caller.
    """
    shape = (deg + 1,) * n
    alphas = multi_indices(n, deg)
    pairs = [(a, b) for a in alphas for b in alphas if sum(a) + sum(b) <= deg]
    dst = np.array([np.ravel_multi_index(tuple(map(sum, zip(a, b))), shape)
                    for a, b in pairs])
    order = np.argsort(dst, kind="stable")
    ia = np.array([np.ravel_multi_index(pairs[i][0], shape) for i in order])
    ib = np.array([np.ravel_multi_index(pairs[i][1], shape) for i in order])
    slots, starts = np.unique(dst[order], return_index=True)
    for arr in (ia, ib, starts, slots):
        arr.flags.writeable = False
    return ia, ib, starts, slots


def nmono(n, deg_lo, deg_hi):
    """Number of monomials with deg_lo <= |alpha| <= deg_hi."""
    return sum(1 for a in multi_indices(n, deg_hi) if sum(a) >= deg_lo)


# ---------------------------------------------------------------------------
# rescaled chart
# ---------------------------------------------------------------------------

class BeamChart:
    """Fermi chart with y^1 = 2 z^1, so the axis metric pairing is 1.

    In these coordinates the eikonal cross-term coefficient is exactly 2 and
    the Riccati curvature term is D = (1/4) Hess_transverse(ginv^11).
    """

    def __init__(self, chart: FermiChart):
        self.chart = chart
        self.n = chart.n
        self.scale = np.ones(self.n)
        self.scale[0] = 0.5           # z^1 = y^1 / 2
        self.metric = chart.metric

    def to_beam(self, zprime):
        return np.asarray(zprime) / self.scale

    def jacobian(self, s, y):
        """(F(s, y), dF/d(s, y)): `FermiChart.jacobian` through z' = y*scale."""
        F, J = self.chart.jacobian(s, np.asarray(y, dtype=float) * self.scale)
        return F, J * np.concatenate([[1.0], self.scale])

    def pullback(self, s, y):
        """Chart metric g_ij(s, y) = J^T G(F) J, batched over s (at least
        one axis) and y (..., n)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        y = np.asarray(y, dtype=float).reshape(s.shape + (self.n,))
        return chart_metric(self.metric, *self.jacobian(s, y))


# ---------------------------------------------------------------------------
# metric jets on an s-lattice
# ---------------------------------------------------------------------------

class ChartJets:
    """Polynomial jets of the inverse chart metric (and friends) in s.

    Components fitted per s-node over a transverse cloud and accessed through
    cubic splines: ginv^{kl}, the density rho = |det g|^{1/2}, the
    first-order wave-operator coefficients w^l and the Riccati matrix D.  A
    potential is fitted on the same lattice by the caller (`potential_at`);
    the jets are never changed after the fit.
    """

    def __init__(self, bchart: BeamChart, s_grid, deg=6, r_fit=0.12):
        self.bchart = bchart
        self.n = bchart.n
        self.deg = deg
        self.s = np.asarray(s_grid, dtype=float)
        self.r_fit = r_fit
        self._fit()

    # -- fitting ------------------------------------------------------------

    def _vandermonde(self, pts):
        alphas = multi_indices(self.n, self.deg)
        M = np.empty((len(pts), len(alphas)))
        for j, a in enumerate(alphas):
            M[:, j] = np.prod(pts ** np.array(a), axis=-1)
        return M

    def _cubes(self, coefvecs):
        """(..., nmono) graded coefficient vectors -> dense cube array."""
        cube = PolyCube.zeros(self.n, self.deg, lead=coefvecs.shape[:-1],
                              dtype=float)
        return cube.set_graded(0, self.deg, coefvecs).c

    def _fit(self):
        n, dim = self.n, self.n + 1
        cloud = _tensor_grid([self.r_fit] * n, self.deg + 3)[0]
        self._pinv = pinv = np.linalg.pinv(self._vandermonde(cloud))
        ns, nc = len(self.s), len(cloud)
        S = np.repeat(self.s, nc)
        Y = np.tile(cloud, (ns, 1))
        # the lattice points in spacetime, kept for `potential_at`
        self._pts, J = self.bchart.jacobian(S, Y)
        g = chart_metric(self.bchart.metric, self._pts,
                         J).reshape(ns, nc, dim, dim)
        ginv = np.linalg.inv(g)
        det = np.linalg.det(g)
        rho = np.sqrt(np.abs(det))

        def fit(vals):
            # vals (ns, nc, ...) -> cube coefficients (ns, ..., D^n)
            vals = np.moveaxis(vals, 1, -1)
            return self._cubes(vals @ pinv.T)

        self.ginv_c = fit(ginv)                       # (ns, dim, dim, D^n)
        self.rho_c = fit(rho)                         # (ns, D^n)
        self.rho_inv_c = fit(1.0 / rho)

        # Riccati curvature D_ij = (1/4) d^2_ij ginv^11
        g11 = self.ginv_c[:, 1, 1]
        Dmat = np.empty((ns, n, n))
        for i in range(n):
            for j in range(n):
                a = [0] * n
                a[i] += 1
                a[j] += 1
                coef = g11[(slice(None),) + tuple(a)]
                Dmat[:, i, j] = (2.0 * coef if i == j else coef)
        self.D = 0.25 * Dmat

        # w^l = rho^{-1} [ d_s(rho ginv^{0l}) + sum_k d_k(rho ginv^{kl}) ]
        rho_cube = PolyCube(n, self.deg, self.rho_c + 0j)
        rinv_cube = PolyCube(n, self.deg, self.rho_inv_c + 0j)
        P = [[rho_cube.mulp(PolyCube(n, self.deg, self.ginv_c[:, k, l] + 0j))
              for l in range(dim)] for k in range(dim)]
        w_c = np.zeros((ns, dim) + (self.deg + 1,) * n, dtype=float)
        for l in range(dim):
            acc = PolyCube.zeros(n, self.deg, lead=(ns,))
            # time-slot derivative of the coefficient series
            dP0 = _spline(self.s, P[0][l].c.real).derivative()(self.s)
            acc.c += dP0
            for k in range(1, dim):
                acc = acc + P[k][l].diff(k)
            w_c[:, l] = rinv_cube.mulp(acc).c.real
        self.w_c = w_c

        # splines for everything (real data; complex never enters the fits)
        self._sp = {
            "ginv": _spline(self.s, self.ginv_c),
            "rho": _spline(self.s, self.rho_c),
            "w": _spline(self.s, self.w_c),
            "D": _spline(self.s, self.D),
        }

    def potential_at(self, V, s):
        """The cube of a potential closure V pulled back to the chart, at s.

        V is called once on the lattice points of the fit, fitted with the
        metric's pseudo-inverse and splined over the s-nodes; a zero cube for
        V=None.  The jets are not changed.
        """
        if V is None:
            return PolyCube.zeros(self.n, self.deg)
        vals = np.asarray(V(self._pts), dtype=float).reshape(len(self.s), -1)
        sp = _spline(self.s, self._cubes(vals @ self._pinv.T))
        return PolyCube(self.n, self.deg, sp(np.asarray(s, dtype=float)) + 0j)

    # -- access -------------------------------------------------------------

    def _arr(self, name, s):
        return self._sp[name](np.asarray(s, dtype=float)) + 0j

    def ginv_at(self, s):
        """List-of-lists of PolyCube, indexed [k][l] over chart coords.

        s is a scalar or an array of lattice values (the cubes' lead axes).
        """
        arr, cube = self._arr("ginv", s), (slice(None),) * self.n
        dim = self.n + 1
        return [[PolyCube(self.n, self.deg, arr[(Ellipsis, k, l) + cube])
                 for l in range(dim)] for k in range(dim)]

    def cube_at(self, name, s):
        return PolyCube(self.n, self.deg, self._arr(name, s))

    def w_at(self, s):
        arr, cube = self._arr("w", s), (slice(None),) * self.n
        return [PolyCube(self.n, self.deg, arr[(Ellipsis, l) + cube])
                for l in range(self.n + 1)]

    def D_at(self, s):
        return self._sp["D"](s)


# ---------------------------------------------------------------------------
# phase jets
# ---------------------------------------------------------------------------

def _c_matrix(n):
    C = 2.0 * np.eye(n)
    C[0, 0] = 0.0
    return C


class PhaseJet:
    """Phase polynomial phi = y^1 + H(s) y.y + higher orders on an s-lattice.

    Degree-2 data is carried through the linear (Y, Z) system so the
    conservation law det(Im H) |det Y|^2 = const is available as a check.
    `stages` are the RK4 stages of the lattice from the node at s0, which
    every jet ODE of the beam integrates over.
    """

    def __init__(self, chart, bchart, jets, s0, H0, stages, Y, Z):
        self.chart = chart
        self.bchart = bchart
        self.jets = jets
        self.n = bchart.n
        self.s0 = float(s0)
        self.H0 = np.asarray(H0, dtype=complex)
        self.stages = stages
        self.s = stages.params[stages.nodes]
        self.Y = Y
        self.Z = Z
        detY = np.linalg.det(Y)
        if np.min(np.abs(detY)) < 1e-12:
            raise BeamError("Y degenerated")
        H = np.einsum("sij,sjk->sik", Z, np.linalg.inv(Y))
        self.H = 0.5 * (H + np.swapaxes(H, 1, 2))
        self.order = 2
        self.eikonal_defects = {}
        self._build_base_cubes()
        self._splines()

    # degree <= 2 phase and its s-derivative on the lattice
    def _build_base_cubes(self):
        n, ns = self.n, len(self.s)
        deg = max(self.order, self.jets.deg)
        phi = PolyCube.zeros(n, deg, lead=(ns,))
        e1 = tuple(1 if k == 0 else 0 for k in range(n))
        phi.c[(slice(None),) + e1] = 1.0
        dsphi = PolyCube.zeros(n, deg, lead=(ns,))
        C = _c_matrix(n)
        D = self.jets.D_at(self.s)
        Hdot = -(np.einsum("sij,jk,skl->sil", self.H, C, self.H) + D)
        for i in range(n):
            for j in range(i, n):
                a = [0] * n
                a[i] += 1
                a[j] += 1
                fac = 1.0 if i == j else 2.0
                phi.c[(slice(None),) + tuple(a)] = fac * self.H[:, i, j]
                dsphi.c[(slice(None),) + tuple(a)] = fac * Hdot[:, i, j]
        self.phi_c = phi
        self.dsphi_c = dsphi

    def _splines(self):
        self._sp = {
            "H": _spline(self.s, self.H),
            "phi": _spline(self.s, self.phi_c.c),
            "dsphi": _spline(self.s, self.dsphi_c.c),
        }
        self._sp["ddsphi"] = self._sp["dsphi"].derivative()

    def H_at(self, s):
        return self._sp["H"](s)

    def phi_cube_at(self, s):
        return PolyCube(self.n, self.phi_c.deg, self._sp["phi"](float(s)))

    def dsphi_cube_at(self, s):
        return PolyCube(self.n, self.phi_c.deg, self._sp["dsphi"](float(s)))

    def phase_eval(self, s, y):
        """phi(s, y) for matching point arrays s (m,), y (m, n)."""
        coeffs = self._sp["phi"](np.asarray(s, dtype=float))
        return PolyCube(self.n, self.phi_c.deg, coeffs).eval(np.asarray(y))

    def im_H_min(self):
        return float(min(np.linalg.eigvalsh(h.imag).min() for h in self.H))

    def conservation_drift(self):
        """Relative drift of det(Im H) |det Y|^2 along the lattice."""
        q = np.linalg.det(self.H.imag) * np.abs(np.linalg.det(self.Y)) ** 2
        q0 = np.linalg.det(self.H0.imag)
        return float(np.max(np.abs(q - q0)) / abs(q0))

    def detY_sqrt(self):
        """Branch-continuous sqrt(det Y) on the lattice, positive at s0."""
        detY = np.linalg.det(self.Y)
        # guard against a branch flip between neighbouring samples
        dphase = np.abs(np.diff(np.unwrap(np.angle(detY))))
        if np.max(dphase, initial=0.0) > 0.5 * np.pi:
            raise BeamError("branch jump detected in det Y^{-1/2}")
        r = np.sqrt(detY)
        i0 = self.stages.i0
        for i in range(i0 + 1, len(r)):
            if abs(r[i] - r[i - 1]) > abs(r[i] + r[i - 1]):
                r[i] = -r[i]
        for i in range(i0 - 1, -1, -1):
            if abs(r[i] - r[i + 1]) > abs(r[i] + r[i + 1]):
                r[i] = -r[i]
        return r


def _node_lattice(s0, lo, hi, hs):
    kneg = int(np.floor((s0 - lo) / hs + 1e-9))
    kpos = int(np.floor((hi - s0) / hs + 1e-9))
    return s0 + hs * np.arange(-kneg, kpos + 1), kneg


def _jets_lattice(chart: FermiChart):
    """The s-nodes of the metric jets: spacing about `_HS_JET`, at least 8."""
    lo, hi = chart.geodesic.s_range
    return np.linspace(lo, hi, max(int(round((hi - lo) / _HS_JET)) + 1, 8))


def solve_riccati(chart: FermiChart, s0, H0=None, *, jets=None):
    """Degree-2 phase via dY/ds = CZ, dZ/ds = -DY with Y(s0)=I, Z(s0)=H0,
    on the node lattice of step `_HS` through s0; the metric jets default
    to degree-6 fits over `_jets_lattice`."""
    bchart = BeamChart(chart)
    n = bchart.n
    if H0 is None:
        H0 = 1j * np.eye(n)
    H0 = np.asarray(H0, dtype=complex)
    if np.max(np.abs(H0 - H0.T)) > 1e-12:
        raise BeamError("H0 must be symmetric")
    if np.linalg.eigvalsh(H0.imag).min() <= 0:
        raise BeamError("Im H0 must be positive definite")
    lo, hi = chart.geodesic.s_range
    if not (lo <= s0 <= hi):
        raise BeamError("anchor s0 outside the geodesic range")
    if jets is None:
        jets = ChartJets(bchart, _jets_lattice(chart))
    C = _c_matrix(n)
    stages = _rk4_stages(*_node_lattice(s0, lo, hi, _HS))
    D = jets.D_at(stages.params)

    def rhs(j, state):
        Y = state[:n * n].reshape(n, n)
        Z = state[n * n:].reshape(n, n)
        return np.concatenate([(C @ Z).ravel(), (-D[j] @ Y).ravel()])

    state0 = np.concatenate([np.eye(n).ravel() + 0j, H0.ravel()])
    vals = _rk4_span(rhs, stages, state0)
    Y = vals[:, :n * n].reshape(-1, n, n)
    Z = vals[:, n * n:].reshape(-1, n, n)
    return PhaseJet(chart, bchart, jets, s0, H0, stages, Y, Z)


def _eikonal_pieces(G, phi):
    """(B0, B1, B2) with  g^{kl} d_k phi d_l phi = B0 + B1*dsphi + B2*dsphi^2.

    G is the [k][l] list of inverse-metric cubes; any common lead shape.
    """
    n = phi.n
    dphi = [None] + [phi.diff(l) for l in range(1, n + 1)]
    B0 = PolyCube.zeros(n, phi.deg)
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            fac = 1.0 if k == l else 2.0
            B0 = B0 + G[k][l].mulp(dphi[k]).mulp(dphi[l]).scaled(fac)
    B1 = PolyCube.zeros(n, phi.deg)
    for l in range(1, n + 1):
        B1 = B1 + G[0][l].mulp(dphi[l]).scaled(2.0)
    return B0, B1, G[0][0]


def _eikonal(B, dsphi):
    B0, B1, B2 = B
    return B0 + B1.mulp(dsphi) + B2.mulp(dsphi).mulp(dsphi)


def _fill_dsphi(G, phi, dsphi, order):
    """Complete dsphi degree by degree so the eikonal vanishes to `order`;
    returns the eikonal pieces of phi."""
    B = _eikonal_pieces(G, phi)
    b0 = B[1].axis()
    for m in range(3, order + 1):
        Rm = _eikonal(B, dsphi).graded(m, m)
        dsphi.set_graded(m, m, -Rm / b0)
    return B


def solve_phase_higher(jet: PhaseJet, order: int):
    """Extend the phase jet with |alpha| = 3..order coefficients.

    The degree-m coefficients satisfy linear ODEs in s; they are integrated
    simultaneously, with the forcing evaluated by polynomial arithmetic on
    the fitted metric jets.  Zero initial data at s0.
    """
    n, deg, stages = jet.n, jet.phi_c.deg, jet.stages
    if order > jet.jets.deg:
        raise BeamError("phase order exceeds the metric jet degree")
    if order <= 2:
        return jet
    # the metric and the degree <= 2 phase at every stage parameter
    G = jet.jets.ginv_at(stages.params)
    phis, dsphis = (jet._sp[key](stages.params) for key in ("phi", "dsphi"))

    def G_at(j):
        return [[g.node(j) for g in row] for row in G]

    def rhs(j, vec):
        phi = PolyCube(n, deg, phis[j].copy()).set_graded(3, order, vec)
        dsphi = PolyCube(n, deg, dsphis[j].copy())
        _fill_dsphi(G_at(j), phi, dsphi, order)
        return dsphi.graded(3, order)

    state0 = np.zeros(nmono(n, 3, order), dtype=complex)
    vals = _rk4_span(rhs, stages, state0)

    # write the solved coefficients (and their s-derivatives) into the cubes
    jet.phi_c.set_graded(3, order, vals)
    defects = {m: 0.0 for m in range(order + 1)}
    for i, j in enumerate(stages.nodes):
        phi, dsphi = jet.phi_c.node(i), jet.dsphi_c.node(i)
        total = _eikonal(_fill_dsphi(G_at(j), phi, dsphi, order), dsphi)
        for m in range(order + 1):
            defects[m] = max(defects[m], total.max_degree_abs(m))
    jet.order = order
    jet.eikonal_defects = defects
    jet._splines()
    worst = max(defects.values())
    if worst > 1e-6:
        raise BeamError(
            f"on-axis eikonal residual {worst:.2e} exceeds 1e-6 after solve")
    return jet


# ---------------------------------------------------------------------------
# amplitude jets
# ---------------------------------------------------------------------------

class _TransportPieces:
    """The jet wave operator box v = -(g^{kl} d_k d_l v + w^l d_l v) and the
    transport operator T of a phase, on cubes of any common lead shape: one
    s-stage of the construction, or the whole lattice of the residual.

    G is the [k][l] list of inverse-metric cubes, w the list of first-order
    coefficients, and (phi, ds, dds) the phase with its s-derivatives.
    """

    def __init__(self, G, w, phi, ds, dds):
        n = phi.n
        dphi = [ds] + [phi.diff(l) for l in range(1, n + 1)]
        self.G, self.w, self.n = G, w, n
        self.E = []
        for l in range(n + 1):
            acc = PolyCube.zeros(n, phi.deg)
            for k in range(n + 1):
                acc = acc + G[k][l].mulp(dphi[k])
            self.E.append(acc.scaled(2.0))
        self.boxphi = self.box(phi, ds, dds)
        self.e0ax = self.E[0].axis()

    def node(self, i):
        """The pieces at lead index i of a lattice construction (views)."""
        out = object.__new__(_TransportPieces)
        out.n, out.e0ax = self.n, self.e0ax[i]
        out.G = [[g.node(i) for g in row] for row in self.G]
        out.w, out.E = ([c.node(i) for c in cubes] for cubes in (self.w, self.E))
        out.boxphi = self.boxphi.node(i)
        return out

    def _v_terms(self, v):
        """The terms of T v that do not involve ds v: E_l d_l v, l >= 1,
        and (box phi) v."""
        return ([self.E[l].mulp(v.diff(l)) for l in range(1, self.n + 1)],
                self.boxphi.mulp(v))

    def _T_with(self, dsv, terms):
        out = self.E[0].mulp(dsv)
        for t in terms[0]:
            out = out + t
        return out - terms[1]

    def apply_T(self, v, dsv):
        """T a = 2 <dphi, da> - (box phi) a with the s-slot supplied."""
        return self._T_with(dsv, self._v_terms(v))

    def box(self, v, dsv, ddsv):
        """box v with its s-derivatives dsv, ddsv supplied."""
        G, w, n = self.G, self.w, self.n
        out = G[0][0].mulp(ddsv)
        for l in range(1, n + 1):
            out = out + G[0][l].mulp(dsv.diff(l)).scaled(2.0)
        for k in range(1, n + 1):
            for l in range(k, n + 1):
                fac = 1.0 if k == l else 2.0
                out = out + G[k][l].mulp(v.diff(k).diff(l)).scaled(fac)
        out = out + w[0].mulp(dsv)
        for l in range(1, n + 1):
            out = out + w[l].mulp(v.diff(l))
        return out.scaled(-1.0)

    def fill(self, v, forcing, mdeg):
        """Solve [T v - forcing]_j = 0 for ds v, degrees j = 0..mdeg; the
        terms of T v in v alone are formed once, not once per degree."""
        dsv = PolyCube.zeros(self.n, v.deg)
        terms = self._v_terms(v)
        for j in range(mdeg + 1):
            R = self._T_with(dsv, terms) - forcing
            dsv.set_graded(j, j, dsv.graded(j, j) - R.graded(j, j) / self.e0ax)
        return dsv


class AmplitudeJet:
    """Amplitude hierarchy v_{k,j} along the beam, anchored at s0.

    Level k is solved to transverse degree max(N-2k, 0).  On the beam's
    support y is of size tau^{-1/2}, so a degree-m coefficient of level k
    weighs tau^{-k-m/2}: the grading drops only terms of weight
    tau^{-(N+1)/2} or smaller, while the forcing P_V v_{k-1} never needs
    coefficients beyond the previous level's solved degree.

    What the transport solve reads at an RK4 stage and that does not depend
    on the solution, the transport pieces and each level's forcing, is built
    once as one lattice over the phase's stage parameters.
    """

    def __init__(self, phase: PhaseJet, V, N):
        self.phase = phase
        self.N = int(N)
        self.s0 = phase.s0
        self.s = phase.s
        self.n = phase.n
        self.V = V
        if self.N + 2 > phase.order:
            raise BeamError("phase must be solved to order N+2 before "
                            "amplitudes")
        self._i0 = phase.stages.i0
        st, jets = phase.stages.params, phase.jets
        self._V_stages = jets.potential_at(V, st)
        self._pieces = _TransportPieces(
            jets.ginv_at(st), jets.w_at(st),
            *(PolyCube(self.n, phase.phi_c.deg, phase._sp[key](st))
              for key in ("phi", "dsphi", "ddsphi")))
        self._stage = [self._pieces.node(j) for j in range(len(st))]
        self._forcing = []
        self.detY_root = phase.detY_sqrt()
        self.v = []
        self._v_sp = []
        self._dsv_sp = []
        self._ddsv_sp = []
        self.transport_defects = {}
        for k in range(self.N + 1):
            self._solve_level(k)
        self._split_v1()

    def _mdeg(self, k):
        return max(self.N - 2 * k, 0)

    def _level_forcing(self, k):
        """-i P_V v_{k-1} on the stage lattice (zero cubes for k=0)."""
        st, deg = self.phase.stages.params, self.phase.phi_c.deg
        if k == 0:
            return PolyCube.zeros(self.n, deg, lead=st.shape)
        vprev, dsprev, ddsprev = (PolyCube(self.n, deg, sp[k - 1](st)) for sp in
                                  (self._v_sp, self._dsv_sp, self._ddsv_sp))
        P = self._pieces.box(vprev, dsprev, ddsprev)
        P = P + self._V_stages.mulp(vprev)
        return P.scaled(-1j)

    def _solve_level(self, k):
        phase = self.phase
        n, deg = self.n, phase.phi_c.deg
        mdeg = self._mdeg(k)
        F = self._level_forcing(k)
        self._forcing.append(F)

        def rhs(j, vec):
            v = PolyCube.zeros(n, deg).set_graded(0, mdeg, vec)
            dsv = self._stage[j].fill(v, F.node(j), mdeg)
            return dsv.graded(0, mdeg)

        state0 = np.zeros(nmono(n, 0, mdeg), dtype=complex)
        if k == 0:
            state0[0] = 1.0          # v_{0,0}(s0) = det Y(s0)^{-1/2} = 1
        vals = _rk4_span(rhs, phase.stages, state0)

        vk = PolyCube.zeros(n, deg, lead=(len(self.s),))
        vk.set_graded(0, mdeg, vals)
        if k == 0:
            # determinant formula, with the ODE solution as a cross-check
            vf = 1.0 / self.detY_root
            if np.max(np.abs(vk.axis() - vf)) > 1e-6 * np.max(np.abs(vf)):
                raise BeamError("quadrature disagreement: v_{0,0} ODE vs "
                                "det Y^{-1/2}")
            vk.c[(slice(None),) + (0,) * n] = vf
        dsvk = PolyCube.zeros(n, deg, lead=(len(self.s),))
        defect = 0.0
        for i, j in enumerate(phase.stages.nodes):
            pieces, vi, Fj = self._stage[j], vk.node(i), F.node(j)
            dsi = pieces.fill(vi, Fj, mdeg)
            dsvk.c[i] = dsi.c
            R = pieces.apply_T(vi, dsi) - Fj
            for m in range(mdeg + 1):
                defect = max(defect, R.max_degree_abs(m))
        self.transport_defects[k] = defect
        if defect > 1e-6:
            raise BeamError(
                f"on-axis transport residual {defect:.2e} at level {k}")
        self.v.append(vk)
        self._v_sp.append(_spline(self.s, vk.c))
        sp = _spline(self.s, dsvk.c)
        self._dsv_sp.append(sp)
        self._ddsv_sp.append(sp.derivative())

    def _split_v1(self):
        """v_{1,0} = b_{1,0} + c_{1,0}; c depends on V only through the axis
        quadrature of V, per the transport equation on the axis."""
        if self.N < 1:
            self.b10 = self.c10 = None
            return
        if self.V is None:
            Vax = np.zeros(len(self.s))
        else:
            axis_pts = self.phase.chart.geodesic.point(self.s)
            Vax = np.asarray(self.V(axis_pts), dtype=float)
        root_inv = 1.0 / self.detY_root
        self.c10 = -0.5j * root_inv * cumint(self.s, Vax + 0j, self._i0)
        v10 = self.v[1].axis()
        self.b10 = v10 - self.c10
        # independent quadrature for v_{1,0} via the integrating factor
        P0 = 1j * self._forcing[1].axis()[self.phase.stages.nodes]
        quad = root_inv * cumint(self.s, -0.5j * self.detY_root * P0,
                                 self._i0)
        scale = max(np.max(np.abs(v10)), 1e-30)
        # RK4 vs Simpson cross-check; both are O(h^4) with different constants
        if np.max(np.abs(quad - v10)) > 1e-4 * max(scale, 1.0):
            raise BeamError("quadrature disagreement: v_{1,0} ODE vs "
                            "integrating-factor quadrature")

    def v_cube_at(self, k, s):
        return PolyCube(self.n, self.phase.phi_c.deg,
                        self._v_sp[k](np.asarray(s, dtype=float)))

    def amp_eval(self, tau, s, y):
        """sum_k tau^{-k} v_k at matching point arrays s (m,), y (m, n)."""
        out = 0.0
        for k in range(self.N + 1):
            out = out + self.v_cube_at(k, s).eval(np.asarray(y)) / tau**k
        return out


def solve_amplitudes(jet: PhaseJet, V, N: int) -> AmplitudeJet:
    return AmplitudeJet(jet, V, N)


# ---------------------------------------------------------------------------
# assembled beams
# ---------------------------------------------------------------------------

def chi_plateau(u):
    """C^3 cutoff: 1 for |u| <= 1/4, 0 for |u| >= 1/2, smoothstep between."""
    return smoothstep7((0.5 - np.abs(np.asarray(u, dtype=float))) * 4.0)


class GaussianBeam:
    """e^{i tau phi} chi(|z'|/delta') sum_k tau^{-k} v_k along the geodesic,
    with chi = `chi_plateau`.

    With the conjugation flag set the beam is e^{-i tau conj(phi)} conj(a),
    which solves the same equation family with the opposite phase sign.
    """

    def __init__(self, chart: FermiChart, phase: PhaseJet,
                 amplitude: AmplitudeJet, conjugate=False):
        self.chart = chart
        self.bchart = phase.bchart
        self.phase = phase
        self.amp = amplitude
        self.N = amplitude.N
        self.conjugate = bool(conjugate)
        self.delta_prime = chart.delta_prime

    def measured_C(self):
        """Transverse decay constant: min eigenvalue of Im H on the lattice."""
        return self.phase.im_H_min()

    def _value(self, tau, s, y, znorm):
        phi = self.phase.phase_eval(s, y)
        a = self.amp.amp_eval(tau, s, y)
        cut = chi_plateau(znorm / self.delta_prime)
        if self.conjugate:
            return np.exp(-1j * tau * np.conj(phi)) * np.conj(a) * cut
        return np.exp(1j * tau * phi) * a * cut

    def eval(self, tau, pts):
        """Beam values at ambient points (..., 1+n), batched over the leading
        axes (a single point is the 0-d case); 0 outside the tube."""
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, pts.shape[-1])
        out = np.zeros(len(flat), dtype=complex)
        s, z, inside = self.chart.inverse_many(flat)
        inside &= (s >= self.phase.s[0]) & (s <= self.phase.s[-1])
        if inside.any():
            y = self.bchart.to_beam(z[inside])
            out[inside] = self._value(tau, s[inside], y,
                                      np.linalg.norm(z[inside], axis=-1))
        return out.reshape(pts.shape[:-1])

    def manifest(self):
        geod = self.chart.geodesic
        lines = [
            "gaussian beam manifest",
            f"geodesic endpoints: {geod.x[0].tolist()} -> {geod.x[-1].tolist()}",
            f"order N: {self.N}",
            f"anchor s0: {self.phase.s0}",
            f"H0: {self.phase.H0.tolist()}",
            f"delta_prime: {self.delta_prime}",
            f"conjugated: {self.conjugate}",
            f"measured C constant: {self.measured_C():.6f}",
            f"Riccati conservation drift: {self.phase.conservation_drift():.3e}",
        ]
        return "\n".join(lines)


def make_beam(chart: FermiChart, V=None, N=4, s0=None, conjugate=False):
    """Full pipeline: Riccati from H0 = i I, higher phase orders (N+2),
    amplitudes."""
    if s0 is None:
        lo, hi = chart.geodesic.s_range
        s0 = 0.5 * (lo + hi)
    jet = solve_riccati(chart, s0)
    jet = solve_phase_higher(jet, N + 2)
    amp = solve_amplitudes(jet, V, N)
    return GaussianBeam(chart, jet, amp, conjugate=conjugate)


# ---------------------------------------------------------------------------
# residual measurement
# ---------------------------------------------------------------------------

def _embed(arr, n, deg_from, deg_to):
    """Pad cube coefficient arrays (..., (deg_from+1)^n) to a larger degree."""
    pad = [(0, 0)] * (arr.ndim - n) + [(0, deg_to - deg_from)] * n
    return np.pad(arr, pad)


class _ResidualData:
    """tau-independent cubes of the conjugated residual on measurement jets.

    P_V(e^{i tau phi} a) = e^{i tau phi} [tau^2 (Hphi) a - i tau (T a) + P_V a]
    and with a = sum tau^{-k} v_k each bracket term splits by level, so the
    tau-dependence reduces to scalar weights on precomputed cubes.
    """

    def __init__(self, beam: GaussianBeam, jets_m: ChartJets, V):
        phase, amp = beam.phase, beam.amp
        n, deg, s = phase.n, jets_m.deg, phase.s
        self.s, self.n, self.deg = s, n, deg

        def lattice(sp):
            # construction cubes on the lattice, padded to the measurement
            # degree
            return PolyCube(n, deg, _embed(sp(s), n, phase.phi_c.deg, deg))

        G = jets_m.ginv_at(s)
        phi, ds, dds = (lattice(phase._sp[key])
                        for key in ("phi", "dsphi", "ddsphi"))
        self.phi = phi
        self.rho = jets_m.cube_at("rho", s)
        pieces = _TransportPieces(G, jets_m.w_at(s), phi, ds, dds)
        Hphi = _eikonal(_eikonal_pieces(G, phi), ds)
        Vc = jets_m.potential_at(V, s)
        self.levels = []
        for k in range(amp.N + 1):
            vk, dsvk, ddsvk = (lattice(sp[k]) for sp in (
                amp._v_sp, amp._dsv_sp, amp._ddsv_sp))
            self.levels.append((Hphi.mulp(vk), pieces.apply_T(vk, dsvk),
                                pieces.box(vk, dsvk, ddsvk) + Vc.mulp(vk),
                                vk))

    def bracket(self, tau):
        """Residual bracket as a PolyCube (lead = s-lattice)."""
        acc = PolyCube.zeros(self.n, self.deg, lead=(len(self.s),))
        for k, (Hk, Tk, Pk, _) in enumerate(self.levels):
            acc = (acc + Hk.scaled(tau**(2 - k)) + Tk.scaled(-1j * tau**(1 - k))
                   + Pk.scaled(tau**(-k)))
        return acc

    def amp_cube(self, tau):
        acc = PolyCube.zeros(self.n, self.deg, lead=(len(self.s),))
        for k, (_, _, _, vk) in enumerate(self.levels):
            acc = acc + vk.scaled(tau**(-k))
        return acc


def _tensor_grid(half_widths, nw):
    axes = [np.linspace(-w, w, nw) for w in half_widths]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return pts.reshape(-1, len(half_widths)), axes


def beam_residual_scaling(beam: GaussianBeam, V, tau_list):
    """Grid norms of P_V u_tau over the cutoff plateau, with a log-log fit.

    The residual is evaluated through the conjugation identity on metric jets
    fitted independently of the construction: they differ from the
    construction jets in degree and cloud radius only, since both take the
    same chart Jacobian.  The norm runs over a tau-adapted transverse window
    inside the chi = 1 plateau.  The cutoff shell itself only contributes
    terms of size exp(-C tau (delta'/4)^2), which are excluded from the norm
    and documented rather than measured.  The H^k surrogate of the residual
    is tau^k times the returned L2 norm (each derivative of the oscillatory
    factor costs one power of tau).
    """
    phase, amp = beam.phase, beam.amp
    n = phase.n
    bchart = phase.bchart
    jets_m = ChartJets(bchart, _jets_lattice(beam.chart), deg=_MEAS_DEG,
                       r_fit=_MEAS_R_FIT)
    data = _ResidualData(beam, jets_m, V)
    C = beam.measured_C()
    dprime = beam.delta_prime
    # plateau box in beam coordinates: |z'| <= delta'/4 at the corners
    a0 = dprime / (4 * np.sqrt(n))
    plateau = np.array([2 * a0] + [a0] * (n - 1))
    ds_w = np.gradient(phase.s)
    # the full tube for the C^0 size of the beam, its cutoff and Im phi
    yfull, _ = _tensor_grid([dprime] * n, _MEAS_NW)
    imf = data.phi.eval_grid(yfull).imag
    cut = chi_plateau(np.linalg.norm(yfull * bchart.scale, axis=-1) / dprime)
    norms, sups = [], []
    for tau in tau_list:
        half = np.minimum(plateau, _MEAS_KW / np.sqrt(C * tau))
        ypts, axes = _tensor_grid(half, _MEAS_NW)
        cellw = [np.gradient(ax) for ax in axes]
        wy = cellw[0]
        for cw in cellw[1:]:
            wy = np.multiply.outer(wy, cw)
        wy = wy.reshape(-1)
        br = data.bracket(tau).eval_grid(ypts)          # (ns, m)
        imphi = data.phi.eval_grid(ypts).imag
        rho = data.rho.eval_grid(ypts).real
        dens = np.abs(br) ** 2 * np.exp(-2 * tau * imphi) * rho
        l2 = np.sqrt(np.sum(dens * wy[None, :] * ds_w[:, None]))
        norms.append(float(l2))
        # C^0 size of the beam itself over the full tube
        af = data.amp_cube(tau).eval_grid(yfull)
        sups.append(float(np.max(np.abs(af) * np.exp(-tau * imf)
                                 * cut[None, :])))
    slope, fitres = loglog_fit(tau_list, norms)
    return {
        "slope": slope,
        "fit_residual": fitres,
        "tau": list(tau_list),
        "norms": norms,
        "sup_u": sups,
    }
