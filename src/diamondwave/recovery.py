"""Potential recovery from three-fold wave interactions.

The pipeline: a three-parameter source family produces, through the third
cross derivative in the family parameters, an effective source that is the
product of three wave packets.  Pairing the resulting field with a test
packet gives the interaction integral I(tau).  In its tau-expansion
I = I0 + I_{-1}/tau + O(tau^-2) the potential enters I_{-1} only through
line integrals along light-like segments, weighted by I0.  A limit in the
covector-perturbation parameter sigma and a derivative in the segment
length s0 then yield V pointwise.

Two routes are implemented.  The full route drives the PDE solver: four
corner solves of the epsilon stencil (`cross_derivative`; with zero data
the source-to-solution map is odd, so the other four corners are exact
negatives), gated against the exact eps1 eps2 eps3 coefficient
(`solver.solve_cross_coefficient`), and a data-side pairing
(`pairing_integral`).  The fast route
skips the solver entirely.  Both read the quadrature of the closed-form
packets off `interaction_series`, every coefficient of their polynomial in
1/tau: `recover_region` uses the two leading ones, and the full route's
`I_fast` is its value at tau.  `asymptotic_I` evaluates I(tau) from the
waves' own `eval`, for any wave type.
"""

import csv
import itertools
import math
import threading

import numpy as np

from . import exprs, go, solver, sources
from . import geometry as geo


class RecoveryError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# third cross derivative in the source family parameters
# ---------------------------------------------------------------------------

# the sign corners with eps1 < 0, in march order; their partners -s are
# the other four
_CORNERS = [s for s in itertools.product((-1, 1), repeat=3) if s[0] < 0]


def cross_derivative(solve, h_eps, limit=None):
    """Third mixed central difference of solve(eps) at eps = 0, an array.

    Precondition: `solve` is odd, solve(-eps) = -solve(eps), and returns
    an array.  (With zero data the source-to-solution map of the cubic
    equation is odd, in floating point too.)  Only the four corners with
    eps1 < 0 are solved: an odd map's partner corner -s enters the
    eight-corner stencil as (-s1 s2 s3)(-u_s) = s1 s2 s3 u_s, the same term
    again, so the stencil is sum_s s1 s2 s3 u_s / (4 h^3) over the four
    corners.  Each is added or subtracted in place into one accumulator as
    it is solved and then dropped.

    With `limit`, the epsilon gate runs: limit() is called once the
    corners are dropped and returns the stencil's h_eps -> 0 value (the
    eps1 eps2 eps3 coefficient) as an array the gate may overwrite, and
    max |stencil - limit| must be at most 5% of max |limit|.  A limit at
    rounding level against the corners passes.
    """
    h = float(h_eps)
    total, umax = None, 0.0
    for s in _CORNERS:
        sign = s[0] * s[1] * s[2]
        u = solve(tuple(h * si for si in s))
        if limit is not None:
            umax = max(umax, float(np.max(np.abs(u))))
        if total is None:
            total = np.empty(u.shape, np.result_type(u, 1.0))
            np.multiply(sign, u, out=total)
        elif sign > 0:
            np.add(total, u, out=total)
        else:
            np.subtract(total, u, out=total)
        del u
    cross = np.divide(total, 4.0 * h**3, out=total)
    if limit is not None:
        # a limit at pure rounding level has nothing to disagree about
        corner_scale = umax / (8.0 * h**3)
        exact = limit()
        scale = float(np.max(np.abs(exact)))
        if scale > 1e-9 * corner_scale:
            # |exact - cross|, formed in place: exact is not read again
            np.subtract(exact, cross, out=exact)
            disagree = float(np.max(np.abs(exact))) / scale
            if disagree > 0.05:
                raise RecoveryError(
                    f"epsilon-step outside asymptotic window "
                    f"(stencil off its limit by {disagree:.1%})")
    return cross


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def pairing_integral(grid, vtau, test_source):
    """I = integral of vtau * f+ over spacetime (the data-side pairing)."""
    return complex(solver.spacetime_integral(grid, vtau, test_source.dense()))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def quadrature_box(center, half_widths, nq):
    """Trapezoid rule on a box around `center`, kept as per-axis factors.

    Returns (axes, weights, edges): per axis its nq nodes, their trapezoid
    weights and a mask of its two end nodes.  The box's nodes are the
    tensor product of the axes in C order (`box_nodes`).
    """
    center = np.asarray(center, dtype=float)
    half_widths = np.broadcast_to(np.asarray(half_widths, dtype=float),
                                  center.shape)
    axes, wts, edges = [], [], []
    for c, hw in zip(center, half_widths):
        ax = np.linspace(c - hw, c + hw, nq)
        w = np.full(nq, ax[1] - ax[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        axes.append(ax)
        wts.append(w)
        e = np.zeros(nq, dtype=bool)
        e[0] = e[-1] = True
        edges.append(e)
    return axes, wts, edges


def box_nodes(box, numbers):
    """(points (M, dim), weights (M,), boundary mask (M,)) of the nodes of a
    `quadrature_box` with the given C-order `numbers`.  The weight of node
    (i, j, ...) is ((1 w0[i]) w1[j]) ... and its mask e0[i] | e1[j] | ...,
    marking nodes on the box faces for the localization checks."""
    axes, wts, edges = box
    index = np.unravel_index(numbers, [len(ax) for ax in axes])
    pts = np.stack([ax[i] for ax, i in zip(axes, index)], axis=-1)
    weight, boundary = 1.0, False
    for w, e, i in zip(wts, edges, index):
        weight = weight * w[i]
        boundary = boundary | e[i]
    return pts, weight, boundary


def tensor_quadrature(center, half_widths, nq):
    """Every node of the `quadrature_box` around `center`, in box order:
    (points (M, dim), weights (M,), boundary mask (M,))."""
    box = quadrature_box(center, half_widths, nq)
    return box_nodes(box, np.arange(nq ** len(box[0])))


# ---------------------------------------------------------------------------
# closed-form packets for the quadrature-only route
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes and weights on [-1, 1] of the potential integral
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_FRACTIONS = (_GL_NODES + 1.0) / 2.0 - 1.0
_GL_BLOCK = 32          # Gauss nodes per call of V in the potential integral
_ORACLE_NODES = 4001    # Simpson nodes of the line-integral oracles
# this thread's buffer of the potential integral (`_scratch`)
_SCRATCH = threading.local()


def _scratch(size):
    """`size` floats of this thread's buffer, grown when too small and
    reused across calls: block-sized arrays allocated afresh on every call
    cost more in the allocator (freed heap returned to the system and
    faulted back) than the arithmetic on them."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or len(buf) < size:
        buf = _SCRATCH.buf = np.empty(size)
    return buf[:size]


def _writer(V):
    """V as a function `write(x, out)` that stores its values at the points
    x in `out`: a parsed `ScalarField` writes them itself, any other
    callable's values are copied in."""
    if isinstance(V, exprs.ScalarField):
        return V

    def write(x, out):
        np.copyto(out, V(x))
        return out
    return write


def _simpson(y, length):
    """Composite Simpson rule of the samples y at an odd number of
    equispaced nodes on [0, length] (a negative length integrates
    backwards)."""
    h = length / (len(y) - 1)
    return h / 3.0 * (y[0] + 4.0 * np.sum(y[1:-1:2])
                      + 2.0 * np.sum(y[2:-1:2]) + y[-1])


def _chi_bump_d2(u):
    """Second derivative of the bump `go.chi_bump`, in closed form."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    us = np.where(inside, u, 0.0)
    one = 1.0 - us**2
    g1 = -2.0 * us / one**2
    g2 = -2.0 * (1.0 + 3.0 * us**2) / one**3
    return np.where(inside, go.chi_bump(us) * (g1 * g1 + g2), 0.0)


def bump_d2_error(delta_over_h):
    """How well a grid of step h resolves a packet envelope of width delta:
    the relative L2 error of the 4th-order second difference of the bump
    `go.chi_bump` sampled at spacing 1/delta_over_h, against its closed
    form `_chi_bump_d2`, pooled over eight equispaced grid offsets so that
    it does not hinge on where the nodes fall."""
    hu = 1.0 / delta_over_h
    m = int(np.ceil(delta_over_h)) + 2
    # one row per offset, each ending in two zeros past the support (the
    # stencil's reach), so the rows difference apart in one line
    u = hu * (np.arange(-m, m + 1) + np.arange(8)[:, None] / 8).ravel()
    exact = _chi_bump_d2(u)
    d2 = solver.laplacian_4th(go.chi_bump(u), hu, 1)
    return float(np.linalg.norm(d2 - exact) / np.linalg.norm(exact))


class LinePacket:
    """Geometric-optics packet in closed form (flat background).

    The leading amplitude a0 is a product of bumps (`go.chi_bump`) across
    the flow and constant along it, so the first transport integral
    collapses to
        a1 = (1/2i) (s * lap_perp a0 + a0 * int_0^s V(gamma) ds~),
    with no grid construction needed.  The potential integral runs along the
    characteristic through the evaluation point back to the anchoring
    hyperplane s = 0; it is computed by Gauss-Legendre nodes on the segment,
    whose physical length stays O(1) even for rescaled covectors.  The
    bump's chi'' is zero outside (-1, 1), and lap_perp a0 is cleared where
    the product a0 underflows, so a1 vanishes wherever a0 does.
    """

    def __init__(self, q, xi, delta, V=None):
        self.q = np.asarray(q, dtype=float)
        self.xi = np.asarray(xi, dtype=float)
        self.n = len(self.q) - 1
        xi0, xip = self.xi[0], self.xi[1:]
        if abs(xi0**2 - xip @ xip) > 1e-10 * max(self.xi @ self.xi, 1e-30):
            raise RecoveryError("covector is not light-like")
        self.delta = float(delta)
        self.V = V
        self.xi_sharp = np.concatenate([[-xi0], xip])
        # flow coordinates: s along gamma, w0 phase direction, w transverse
        L = go.flow_frame(self.xi)
        self._s_row, self._w0_row, self._omegas = L[0], L[1], L[2:]

    def coords(self, x):
        """(s, w0, transverse array) of spacetime points x (..., 1+n)."""
        dx = np.asarray(x, dtype=float) - self.q
        return (dx @ self._s_row,) + self._cross_coords(dx)

    def _cross_coords(self, dx):
        """(w0, transverse array) of offsets dx from q."""
        wt = dx @ self._omegas.T if len(self._omegas) else \
            np.zeros(dx.shape[:-1] + (0,))
        return dx @ self._w0_row, wt

    def _profiles(self, w0, wt):
        """(a0, lap_perp a0) from the cutoff profiles.  lap_perp a0 is set
        to zero where the product a0 underflows to zero although no factor
        is zero, so a1 vanishes wherever a0 does."""
        d = self.delta
        f0 = go.chi_bump(w0 / d)
        ft = [go.chi_bump(wt[..., i] / d) for i in range(wt.shape[-1])]
        a0 = f0
        for f in ft:
            a0 = a0 * f
        lap = np.zeros_like(a0)
        for i in range(wt.shape[-1]):
            term = f0 * _chi_bump_d2(wt[..., i] / d) / d**2
            for j, f in enumerate(ft):
                if j != i:
                    term = term * f
            lap = lap + term
        return a0, np.where(a0 != 0, lap, 0.0)

    def _potential_integral(self, x, s):
        """int_0^{s(x)} V along the characteristic through x.

        V is called once per block of `_GL_BLOCK` Gauss nodes.  The block's
        points are stored component-first, (1+n, B, ...), and passed to V
        as the (B, ..., 1+n) view, so each coordinate V reads is one
        contiguous plane; V writes its values into a block-sized buffer
        (`_writer`).  Points, offsets and values live in this thread's
        `_scratch`.  The nodes are summed one by one in Gauss-Legendre
        order.
        """
        if self.V is None:
            return np.zeros_like(s)
        write = _writer(self.V)
        xs = np.moveaxis(np.asarray(x, dtype=float), -1, 0)[:, None]
        ks = self.xi_sharp.reshape((-1,) + (1,) * (s.ndim + 1))
        block = (_GL_BLOCK,) + s.shape
        m = math.prod(block)
        buf = _scratch(s.size + (2 + len(ks)) * m)
        term = buf[:s.size].reshape(s.shape)
        off, vals = buf[s.size:s.size + 2 * m].reshape((2,) + block)
        pts = buf[s.size + 2 * m:].reshape((len(ks),) + block)
        out = np.zeros(s.shape)
        for fr, wts in zip(_GL_FRACTIONS.reshape(-1, _GL_BLOCK),
                           _GL_WEIGHTS.reshape(-1, _GL_BLOCK)):
            # node s~ = s (t+1)/2 on [0, s], offset from x by (s~ - s) xi^#
            np.multiply(s, fr.reshape(fr.shape + (1,) * s.ndim), out=off)
            np.multiply(ks, off, out=pts)
            np.add(xs, pts, out=pts)
            write(np.moveaxis(pts, 0, -1), out=vals)
            for wi, vi in zip(wts, vals):
                out += np.multiply(wi, vi, out=term)
        return out * s / 2.0

    def flow_point(self, s):
        """The flow line through q: s maps to q + s * xi_sharp."""
        return np.asarray(s)[..., None] * self.xi_sharp + self.q

    def tube(self, box):
        """Numbers (C order, ascending) of the `quadrature_box` nodes where
        |w0| and every |w_t| are below 1.01 delta: the support of a0 (the
        bump vanishes outside (-1, 1)) with a margin for rounding.

        A flow coordinate is the sum of its term along axis 0, monotone in
        the node's index there, and its term across.  So on each line of
        nodes along axis 0 the tube is one run of nodes, found by bisection
        per coordinate; no bump is evaluated and no array spans the whole
        lattice.
        """
        axes = box[0]
        rows = np.vstack([self._w0_row, self._omegas])
        # flip coordinates that fall along axis 0, so every term rises
        sign = np.where(rows[:, 0] < 0, -1.0, 1.0)
        along = np.outer(sign * rows[:, 0], axes[0] - self.q[0])
        lines = np.stack(np.meshgrid(*axes[1:], indexing="ij"), axis=-1)
        across = (lines.reshape(-1, len(axes) - 1) - self.q[1:]) \
            @ (rows[:, 1:].T * sign)
        bound = 1.01 * self.delta
        lo = np.max([np.searchsorted(a, -bound - c, side="right")
                     for a, c in zip(along, across.T)], axis=0)
        hi = np.min([np.searchsorted(a, bound - c, side="left")
                     for a, c in zip(along, across.T)], axis=0)
        # the run lo..hi-1 of each line, numbered in C order
        count = np.maximum(hi - lo, 0)
        line = np.repeat(np.arange(len(count)), count)
        first = np.repeat(lo - np.cumsum(count) + count, count)
        return np.sort((first + np.arange(len(line))) * len(count) + line)

    def support(self, x):
        """Mask of the spacetime points x where a0 is nonzero: the product
        of `_profiles`, in its order, formed in place."""
        w0, wt = self._cross_coords(np.asarray(x, dtype=float) - self.q)
        a0 = go.chi_bump(w0 / self.delta)
        for i in range(wt.shape[-1]):
            a0 *= go.chi_bump(wt[..., i] / self.delta)
        return a0 != 0

    def amplitudes(self, x):
        """(a0, a1, c) at spacetime points x.

        c = (1/2i) int_0^s V is the potential part of a1, which enters it
        as a0 c.
        """
        s, w0, wt = self.coords(x)
        a0, lap = self._profiles(w0, wt)
        vint = self._potential_integral(x, s)
        a1 = (s * lap + a0 * vint) / 2j
        return a0, a1, vint / 2j

    def phase(self, x):
        return np.asarray(x, dtype=float) @ self.xi

    def eval(self, tau, x):
        """e^{i tau xi.x} (a0 + a1/tau), evaluated on the support of a0 only
        (a1 vanishes wherever a0 does) and zero elsewhere."""
        x = np.asarray(x, dtype=float)
        inside = self.support(x)
        out = np.zeros(x.shape[:-1], dtype=complex)
        xin = x[inside]
        a0, a1, _ = self.amplitudes(xin)
        out[inside] = np.exp(1j * tau * self.phase(xin)) * (a0 + a1 / tau)
        return out


class PacketQuad:
    """Four packets with an exact light-like linear dependence.

    Built at a point p reached from the cylinder axis along the spatial
    direction `direction` after parameter length s0.  Covector 0 is the
    sigma^2-rescaled reversal; covectors 2, 3 are sigma-perturbations of the
    incoming one, with weights kappa chosen so the four covectors sum to
    zero bitwise (the last one is defined by the dependence).
    """

    def __init__(self, p, s0, direction, sigma, V=None, delta=0.1):
        p = np.asarray(p, dtype=float)
        n = len(p) - 1
        if n < 2:
            raise RecoveryError("covector perturbations need n >= 2")
        if not 0 < sigma < 1:
            raise RecoveryError(f"sigma must lie in (0, 1), got {sigma!r}")
        self.p = p
        self.s0 = float(s0)
        self.sigma = float(sigma)
        xp = np.asarray(direction, dtype=float)
        xp = xp / np.linalg.norm(xp)
        cand = np.eye(n)[int(np.argmin(np.abs(xp)))]
        e2 = cand - (cand @ xp) * xp
        e2 = e2 / np.linalg.norm(e2)
        root = np.sqrt(1.0 - sigma**2)
        k1, k2 = sources.kappa_closed_form(sigma)
        tilde = [np.concatenate([[-1.0], -xp]),
                 np.concatenate([[-1.0], xp]),
                 np.concatenate([[-1.0], root * xp + sigma * e2]),
                 np.concatenate([[-1.0], root * xp - sigma * e2])]
        xi = [sigma**2 * tilde[0], k1 * tilde[1], k2 * tilde[2], None]
        xi[3] = -(xi[0] + xi[1] + xi[2])     # dependence exact by construction
        self.xi = xi
        self.kappa = np.array([sigma**2, k1, k2, k2])
        # anchor parameters: p = gamma_{q_j, xi_j}(s_p_j)
        self.s_at_p = np.array([-s0 / sigma**2, s0 / k1, s0 / k2, s0 / k2])
        self.anchors = []
        self.packets = []
        for j in range(4):
            sharp = np.concatenate([[-xi[j][0]], xi[j][1:]])
            qj = p - self.s_at_p[j] * sharp
            self.anchors.append(qj)
            self.packets.append(LinePacket(qj, xi[j], delta, V=V))

    def c_values(self, V):
        """Quadrature oracle for the segment weights: 2i c^{(j)} = int V."""
        out = []
        for j in range(4):
            pk = self.packets[j]
            s = np.linspace(0.0, self.s_at_p[j], _ORACLE_NODES)
            vals = np.asarray(V(pk.flow_point(s)))
            out.append(_simpson(vals, self.s_at_p[j]) / 2j)
        return np.array(out)

    def target_line_integral(self, V):
        """Oracle for the sigma -> 0 limit: int_0^{s0} V down from anchor 0."""
        s = np.linspace(0.0, self.s0, _ORACLE_NODES)
        seg = self.anchors[0] + s[:, None] * np.concatenate(
            [[-1.0], self.xi[1][1:] / self.kappa[1]])
        return float(_simpson(np.asarray(V(seg)), self.s0))


# ---------------------------------------------------------------------------
# interaction integral by quadrature
# ---------------------------------------------------------------------------

# largest integrand on the box boundary, relative to its peak, that still
# counts as localized
_LOC_TOL = 1e-3
# trapezoid nodes per axis of the routes' interaction boxes
BOX_NQ = 41


def _require_localized(values, boundary, tol):
    """Raise unless max |values| on the box boundary is at most `tol` times
    its peak (a vanishing integrand passes)."""
    peak = float(np.max(np.abs(values), initial=0.0))
    if peak > 0:
        leak = float(np.max(np.abs(values[boundary]), initial=0.0)) / peak
        if leak > tol:
            raise RecoveryError(
                f"tube intersection not localized (boundary level {leak:.1e})")


def asymptotic_I(waves, tau, nodes, loc_tol=_LOC_TOL):
    """Quadrature of the product of the given waves on the box `nodes`.

    `nodes` is a `tensor_quadrature` result, and each wave is evaluated
    there by its own `eval(tau, x)`, so this is the reference for waves of
    any type.  A localization check requires the integrand to be negligible
    on the box boundary.
    """
    pts, w, boundary = nodes
    integrand = np.ones(len(pts), dtype=complex)
    for wv in waves:
        integrand = integrand * wv.eval(tau, pts)
    _require_localized(integrand, boundary, loc_tol)
    return complex(np.sum(w * integrand))


def interaction_series(packets, nodes):
    """Every coefficient of I(tau) in 1/tau for line packets: (orders, csum).

    With covectors summing to zero the quadrature of I(tau) on `nodes`
    (a `box_nodes` result: the whole box, or any part of it that holds the
    joint support) carries no phase, so it is the polynomial in 1/tau
        sum w prod_j (a0_j + a1_j / tau) = sum_k orders[k] tau^-k,
    k = 0..len(packets), formed per node in one pass over the packets, with
        I0 = orders[0] = sum w prod_j a0_j,   Im1 = orders[1].
    The potential enters a1_j only as a0_j c_j, so the V-dependent part of
    Im1 over I0 is the weighted c-sum
        csum = sum w prod_j a0_j sum_j c_j / I0,
    which carries the line integrals.  Every term vanishes unless all a0
    are nonzero (a1 vanishes where a0 does), so the packets are evaluated
    on that joint support only.  It is found progressively: each packet's
    support is tested only on the nodes inside the supports of the packets
    before it, and the nodes keep their box order.  A localization check
    requires prod a0 to be negligible on the box boundary.
    """
    if np.any(sum(pk.xi for pk in packets)):
        raise RecoveryError("interaction coefficients need covectors "
                            "summing to zero")
    pts, w, boundary = nodes
    joint = np.flatnonzero(packets[0].support(pts))
    for pk in packets[1:]:
        joint = joint[pk.support(pts[joint])]
    levels = [pk.amplitudes(pts[joint]) for pk in packets]
    w, boundary = w[joint], boundary[joint]
    poly = list(levels[0][:2])      # per node, the coefficients of tau^-k
    for a0, a1, _ in levels[1:]:
        poly = [poly[0] * a0] + [hi * a0 + lo * a1 for hi, lo in
                                 zip(poly[1:], poly)] + [poly[-1] * a1]
    _require_localized(poly[0], boundary, _LOC_TOL)
    orders = [complex(np.sum(w * term)) for term in poly]
    if abs(orders[0]) < 1e-300:
        raise RecoveryError("vanishing interaction weight I0")
    csum = complex(np.sum(w * poly[0] * sum(c for _, _, c in levels))) \
        / orders[0]
    return orders, csum


# ---------------------------------------------------------------------------
# sigma limit, differentiation
# ---------------------------------------------------------------------------

def richardson_sigma(sigmas, values):
    """sigma -> 0 limit of values sampled on a halving sigma schedule.

    The error is O(sigma^2), so successive pairs eliminate sigma^2 then
    sigma^4.  Returns (limit, flags); a flag is raised when the last
    difference of successive values is more than half the one before it
    (extrapolation not in its asymptotic regime).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    values = np.asarray(values, dtype=complex)
    if len(sigmas) < 3:
        raise RecoveryError("sigma schedule needs at least 3 values")
    if not np.allclose(sigmas[:-1] / sigmas[1:], 2.0, rtol=1e-12):
        raise RecoveryError("sigma schedule must halve at each step")
    flags = []
    first = np.abs(np.diff(values))
    if len(first) >= 2 and first[-1] > 0.5 * first[-2] and \
            first[-2] > 1e-14 * max(np.abs(values)):
        flags.append("sigma extrapolation non-monotone")
    level = values
    factor = 4.0
    while len(level) > 1:
        level = (factor * level[1:] - level[:-1]) / (factor - 1.0)
        factor *= 4.0
    return complex(level[0]), flags


def differentiate_line_integral(s0s, Ls):
    """Central difference dL/ds0 on three samples along the segment family."""
    s0s = np.asarray(s0s, dtype=float)
    Ls = np.asarray(Ls, dtype=float)
    if len(s0s) < 3:
        raise RecoveryError("need 3 segment lengths for the derivative")
    span = s0s[-1] - s0s[0]
    if span == 0:
        raise RecoveryError("segment lengths coincide (ds0 = 0)")
    slope = float((Ls[-1] - Ls[0]) / span)
    if not np.isfinite(slope):
        raise RecoveryError(f"line-integral slope is not finite ({slope})")
    return slope


# ---------------------------------------------------------------------------
# region driver (fast route)
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ["p_t", "p_x1", "p_x2", "sigma", "s0", "I0_re", "I0_im",
                  "Im1_re", "Im1_im", "line_integral", "V_recovered",
                  "V_true", "rel_err", "flags"]


class RecoveryReport:
    """Row-per-(sigma, s0) table plus one summary row per recovered point."""

    def __init__(self):
        self.rows = []

    def add(self, **kw):
        row = {c: kw.get(c, "") for c in REPORT_COLUMNS}
        self.rows.append(row)

    def summary_rows(self):
        return [r for r in self.rows if r["V_recovered"] != ""]

    def point_rows(self):
        """One row per point: its summary row, or its failure row."""
        return [r for r in self.rows if r["V_recovered"] != ""
                or r["flags"].startswith("failed")]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            w.writeheader()
            w.writerows(self.rows)

    def median_rel_err(self):
        errs = [float(r["rel_err"]) for r in self.summary_rows()
                if r["rel_err"] != ""]
        if not errs:
            raise RecoveryError("no recovered points with truth comparison")
        return float(np.median(errs))


def recover_point(metric, V, p, r, T, sigma0=0.1, delta=0.1, ds0=0.05,
                  V_true=None, report=None):
    """Recover V(p) by the quadrature route; returns (value, flags, report).

    Pipeline: returning geodesics fix the segment geometry; for three
    segment lengths s0 (sharing the upper anchor) and a halving sigma
    schedule, the exact 1/tau coefficients of the packet quadrature give
    weighted c-sums; Richardson extrapolation in sigma^2 gives the line
    integral L(s0) and a central difference in s0 gives V(p).
    """
    p = np.asarray(p, dtype=float)
    if not geo.is_flat(metric):
        raise RecoveryError("fast-route recovery supports flat backgrounds")
    ret = sources.find_returning_geodesics(metric, p, r, T)
    s0c = p[0] - ret.q_minus[0]
    direction = (p[1:] - ret.q_minus[1:]) / s0c
    q_plus = ret.q_plus
    if report is None:
        report = RecoveryReport()
    all_flags = []
    Ls = []
    s0_grid = [s0c - ds0, s0c, s0c + ds0]
    for s0 in s0_grid:
        # the upper anchor stays fixed; p slides down its null geodesic
        pp = np.concatenate([[q_plus[0] - s0], q_plus[1:] + s0 * direction])
        # one box per s0 serves its three sigmas
        box = quadrature_box(pp, 3.0 * delta, BOX_NQ)
        sig_vals = []
        sigmas = [sigma0, sigma0 / 2, sigma0 / 4]
        for sig in sigmas:
            quad = PacketQuad(pp, s0, direction, sig, V=V, delta=delta)
            # the joint support lies in packet 0's tube: the series reads
            # the same nodes, in the same order, as on the whole box
            nodes = box_nodes(box, quad.packets[0].tube(box))
            (I0, Im1, *_), csum = interaction_series(quad.packets, nodes)
            # the reversal packet integrates from its anchor backwards along
            # the flow (its parameter at p is negative), so the rescaled
            # c-sum carries a minus sign relative to the down-segment
            # parametrization of the line integral
            Lsig = -2j * sig**2 * csum
            sig_vals.append(Lsig)
            report.add(p_t=pp[0], p_x1=pp[1],
                       p_x2=pp[2] if len(pp) > 2 else "",
                       sigma=sig, s0=s0, I0_re=I0.real, I0_im=I0.imag,
                       Im1_re=Im1.real, Im1_im=Im1.imag,
                       line_integral=Lsig.real)
        L, rflags = richardson_sigma(sigmas, sig_vals)
        all_flags.extend(rflags)
        if abs(L.imag) > 0.05 * max(abs(L.real), 1e-6):
            all_flags.append("line integral not real")
        Ls.append(L.real)
    v_rec = differentiate_line_integral(s0_grid, Ls)
    row = dict(p_t=p[0], p_x1=p[1], p_x2=p[2] if len(p) > 2 else "",
               sigma=0.0, s0=s0c, line_integral=Ls[1], V_recovered=v_rec,
               flags=";".join(sorted(set(all_flags))))
    if V_true is not None:
        vt = float(np.asarray(V_true(p[None]))[0])
        row["V_true"] = vt
        row["rel_err"] = abs(v_rec - vt) / max(abs(vt), 1e-12)
    report.add(**row)
    return v_rec, all_flags, report


# ---------------------------------------------------------------------------
# full route: PDE pipeline for the interaction integral
# ---------------------------------------------------------------------------

class FullPathResult:
    """PDE-route interaction integral next to its quadrature prediction.

    Regime diagnostics: `go_ratios[j] = t_j / (|kappa_j| tau delta^2)` is
    |a1 / (tau a0)| at the bump centre after packet j's travel time t_j to
    p, small only where the geometric-optics expansion holds; `kh` is the
    top carrier's wavenumber times h, and `group_velocity` the stencil's
    group velocity there (1 for a resolved carrier).  `delta_over_h` is
    the envelope's resolution, the packet width delta over h, and
    `envelope_error` the stencil's error on the bump at that resolution
    (`bump_d2_error`; small for a resolved envelope).

    `I_orders[k]` is the term I_k tau^-k of the quadrature's polynomial in
    1/tau (`interaction_series`), k = 0..4, and `I_fast` their sum.

    `I_check`, computed whenever the epsilon gate runs (`check`), is the
    eps -> 0 limit of `I_full` on the same grid (the coefficient march),
    and `eps_truncation` = |I_full - I_check| / |I_check| the measured
    truncation of the eps-stencil; both are None without the gate.
    """

    def __init__(self, I_full, I_orders, quad, grid, go_ratios, kh,
                 delta_over_h, I_check=None):
        self.I_full = complex(I_full)
        self.I_orders = [complex(term) for term in I_orders]
        self.I_fast = sum(self.I_orders)
        self.rel_diff = abs(self.I_full - self.I_fast) / \
            max(abs(self.I_fast), 1e-300)
        self.quad = quad
        self.grid = grid
        self.I_check = None if I_check is None else complex(I_check)
        self.eps_truncation = None if I_check is None else \
            abs(self.I_full - self.I_check) / max(abs(self.I_check), 1e-300)
        self.go_ratios = go_ratios
        self.kh = kh
        self.group_velocity = float(solver.stencil_group_velocity(kh))
        self.delta_over_h = float(delta_over_h)
        self.envelope_error = bump_d2_error(self.delta_over_h)


_H_EPS = 0.1    # family-parameter step of the full route's epsilon stencil


def full_path_interaction(metric, V, p, r, T, tau, sigma=0.6, delta=0.1,
                          h=0.012, dt=None, pad=0.25, rho=0.06, check=True):
    """Interaction integral I(tau) through the nonlinear solver.

    The eight corners of the three-parameter source family yield the third
    cross derivative; its data-side pairing with the surgery test function
    is the PDE-route value of I, returned next to the quadrature of the
    same four packets.  The source-to-solution map is odd in the family
    parameters, so only four corners are marched (`cross_derivative`).

    Memory is kept at desk scale by confining the surgery and the pairing
    to short time windows around the two anchor slabs, storing the sources
    and the family on their support boxes (`solver.SourceTerm`), and
    keeping of each forward march only the pairing window.
    The surgery cuts the closed-form packets of the quadrature itself; the
    upper window grid carries its time origin, so packets, cutoffs and V
    are evaluated at physical times.

    With `check`, the exact eps1 eps2 eps3 coefficient of the same
    family's solution (`solver.solve_cross_coefficient`, one linear march
    of four fields, after the corners) is the stencil's epsilon gate: the
    stencil must agree with it to 5% on the pairing window, or
    RecoveryError is raised.  Its pairing with the same test function is
    `I_check`, so `I_full` and `I_check` differ only in how the
    coefficient is taken: by the eps-stencil at step _H_EPS, or in the
    limit eps -> 0; the result's `eps_truncation` is their relative gap.
    """
    p = np.asarray(p, dtype=float)
    n = len(p) - 1
    if not geo.is_flat(metric):
        raise RecoveryError("full-route driver supports flat backgrounds")
    ret = sources.find_returning_geodesics(metric, p, r, T)
    s0 = p[0] - ret.q_minus[0]
    direction = (p[1:] - ret.q_minus[1:]) / s0
    quad = PacketQuad(p, s0, direction, sigma, V=V, delta=delta)
    t_minus = ret.q_minus[0]
    t_plus = ret.q_plus[0]

    k_top = float(np.max(np.abs(quad.kappa))) * tau
    # packets 1..3 travel from the lower slab to p, the test packet from p
    # to the upper slab
    travel = np.array([t_plus - p[0]] + 3 * [p[0] - t_minus])
    go_ratios = travel / (np.abs(quad.kappa) * tau * delta**2)
    if dt is None:
        # leapfrog/4th-order dispersion roughly cancels near
        # dt ~ 0.365 k h^2 for the stiffest carrier k
        dt = min(0.365 * k_top * h * h, 0.4 * h / np.sqrt(n))
    nsteps = max(int(np.ceil(T / dt)), 8)
    dt = T / nsteps
    grid = solver.Grid.for_ball(n, r, T, h, dt, pad=pad)

    if t_minus - rho - 3 * dt <= 0 or t_plus + rho + 3 * dt >= T:
        raise RecoveryError("surgery windows do not fit inside [0, T]")

    # sources for families 1..3 on a window grid starting at t = 0
    mw = int(np.ceil((t_minus + rho + 3 * dt) / dt))
    wgrid = solver.Grid(n, grid.lo, grid.shape, grid.h, dt, mw * dt)
    srcs = [sources.make_source(quad.packets[j], metric, wgrid, tau, V=V,
                                r=r, t0=t_minus, rho=rho)[0]
            for j in (1, 2, 3)]
    fam = sources.build_three_family(*srcs)

    # test function on a window grid around the upper anchor slab
    m0 = int(np.floor((t_plus - rho) / dt)) - 3
    mt = int(np.ceil((t_plus + rho + 3 * dt) / dt)) - m0
    if m0 + mt > grid.nt - 1:
        raise RecoveryError("pairing window leaves the grid")
    tgrid = solver.Grid(n, grid.lo, grid.shape, grid.h, dt, mt * dt,
                        t0=m0 * dt)
    fplus, _ = sources.make_test_function(quad.packets[0], metric, tgrid,
                                          tau, V=V, r=r, t0=t_plus, rho=rho)

    # the window sources are marched on `grid` and read as zero outside
    # their windows
    def solve(eps):
        return solver.solve_forward(metric, grid, V, fam(eps), nonlinear=True,
                                    window=tgrid).data

    I_check = None

    def coefficient():
        # marched after the corners, so its fields never sit beside them
        nonlocal I_check
        wfield = solver.solve_cross_coefficient(metric, grid, V, srcs,
                                                window=tgrid)
        I_check = pairing_integral(tgrid, wfield, fplus)
        return np.multiply(wfield.data, -6.0, out=wfield.data)

    vtau = -cross_derivative(solve, _H_EPS,
                             limit=coefficient if check else None) / 6.0
    vfield = solver.GridField(tgrid, vtau)
    I_full = pairing_integral(tgrid, vfield, fplus)
    box = quadrature_box(p, 3.0 * delta, BOX_NQ)
    orders, _ = interaction_series(
        quad.packets, box_nodes(box, quad.packets[0].tube(box)))
    I_orders = [I_k / tau**k for k, I_k in enumerate(orders)]
    return FullPathResult(I_full, I_orders, quad, grid, go_ratios, k_top * h,
                          delta / h, I_check=I_check)


def recover_region(metric, V, points, r, T, V_true=None, sigma0=0.1,
                   delta=0.1, ds0=0.05):
    """Run `recover_point` over a point list; failures are recorded rows."""
    report = RecoveryReport()
    for p in points:
        p = np.asarray(p, dtype=float)
        try:
            recover_point(metric, V, p, r, T, sigma0=sigma0, delta=delta,
                          ds0=ds0, V_true=V_true, report=report)
        except (RecoveryError, sources.SourceError, geo.GeometryError,
                solver.SolverError, np.linalg.LinAlgError) as exc:
            report.add(p_t=p[0], p_x1=p[1],
                       p_x2=p[2] if len(p) > 2 else "",
                       flags=f"failed: {exc}")
    return report
