"""Cutoff surgery, light-like covector algebra, and returning geodesics.

A wave-packet ansatz only solves the equation approximately, so it cannot be
fed to the solver directly.  Instead we cut it off in time with a ramp pair
(zeta_-, zeta_+) and emit the source f = zeta_+ (box + V)(zeta_- u_tau), whose
forward solution tracks zeta_- u_tau up to the ansatz truncation error.  The
test function reverses the roles of the ramps and pairs with the backward
solve.  The covector algebra builds the four-fold light-like dependence
sigma^2 xi0 + k1 xi1 + k2 xi2 + k3 xi3 = 0 used to aim the packets, and the
returning-geodesic search supplies the two transversal null geodesics through
a target point with endpoints on the measurement cylinder.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from . import geometry as geo
from .solver import GridField, SourceTerm, apply_wave_operator


class SourceError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# time cutoffs
# ---------------------------------------------------------------------------

def smoothstep7(t):
    """C^3 ramp: 0 for t <= 0, 1 for t >= 1 (degree-7 polynomial between)."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**4 * (35 - 84 * t + 70 * t**2 - 20 * t**3)


class CutoffPair:
    """Monotone time profiles around t0 with ramp width rho.

    zeta_- is 0 for t < t0 - rho and 1 for t > t0; zeta_+ is 1 for t < t0
    and 0 for t > t0 + rho.  By construction zeta_- = 1 wherever 1 - zeta_+
    is nonzero.
    """

    def __init__(self, t0, rho):
        if rho <= 0:
            raise SourceError("cutoff ramp width must be positive")
        self.t0 = float(t0)
        self.rho = float(rho)

    def zminus(self, t):
        return smoothstep7((np.asarray(t) - (self.t0 - self.rho)) / self.rho)

    def zplus(self, t):
        return smoothstep7(((self.t0 + self.rho) - np.asarray(t)) / self.rho)


def _tube_center_radius(obj):
    """(center(t), radius) description of the packet/beam support tube."""
    if hasattr(obj, "flow_point"):          # geometric-optics packet
        speed = obj.flow_point(1.0)[0] - obj.q[0]     # dt/ds along the flow

        def center(t):
            s = (np.asarray(t) - obj.q[0]) / speed
            return obj.flow_point(s)[..., 1:]
        return center, 1.26 * obj.delta * np.sqrt(obj.n)
    if hasattr(obj, "chart"):               # gaussian beam
        g = obj.chart.geodesic
        ts = g.x[:, 0]

        def center(t):
            t = np.asarray(t)
            out = np.empty(t.shape + (g.x.shape[1] - 1,))
            for i in range(out.shape[-1]):
                out[..., i] = np.interp(t, ts, g.x[:, 1 + i])
            return out
        return center, obj.delta_prime
    raise SourceError("object has no recognised support tube")


def default_rho(obj, grid, r, t0):
    """Half the time-thickness for which the tube stays inside B(0, r)."""
    center, rad = _tube_center_radius(obj)
    times = grid.times()
    ok = np.linalg.norm(center(times), axis=-1) + rad < r
    i0 = int(np.argmin(np.abs(times - t0)))
    if not ok[i0]:
        raise SourceError("delta/delta' too large for aperture")
    lo = i0
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    hi = i0
    while hi < len(times) - 1 and ok[hi + 1]:
        hi += 1
    rho = 0.5 * min(t0 - times[lo], times[hi] - t0)
    if rho <= grid.dt:
        raise SourceError("delta/delta' too large for aperture")
    return float(rho)


def eval_wave(wave, tau, pts):
    """u_tau of a packet or beam at points (..., 1+n); a wave with a batched
    `eval_many` gets them as one (M, 1+n) array."""
    if hasattr(wave, "eval_many"):
        return wave.eval_many(tau, pts.reshape(-1, pts.shape[-1])
                              ).reshape(pts.shape[:-1])
    return wave.eval(tau, pts)


def _surgery(obj, metric, grid, tau, V, r, t0, rho, test):
    if t0 is None:
        if hasattr(obj, "q"):
            t0 = float(obj.q[0])
        else:
            t0 = float(obj.chart.forward(obj.phase.s0, np.zeros(obj.chart.n))[0])
    if rho is None:
        rho = default_rho(obj, grid, r, t0)
    cut = CutoffPair(t0, rho)
    u = GridField.from_closure(grid, lambda pts: eval_wave(obj, tau, pts),
                               dtype=complex, name="packet")
    times = grid.times()
    inner, outer = (cut.zplus, cut.zminus) if test else (cut.zminus, cut.zplus)
    zu = GridField(grid, u.data * inner(times).reshape(-1, *([1] * grid.n)),
                   name="cut packet")
    Pzu = apply_wave_operator(metric, grid, V, zu)
    fdata = Pzu.data * outer(times).reshape(-1, *([1] * grid.n))
    # grid-exact support check against the measurement cylinder
    X = grid.spacetime_slice(0)[..., 1:]
    outside = np.linalg.norm(X, axis=-1) >= r
    if np.max(np.abs(fdata[:, outside])) > 1e-12 * max(np.max(np.abs(fdata)), 1e-300):
        raise SourceError("delta/delta' too large for aperture")
    fdata[:, outside] = 0.0
    src = SourceTerm(grid, field=fdata,
                     name="test function" if test else "packet source")
    src.cutoffs = cut
    return src, zu


def make_source(obj, metric, grid, tau, V=None, r=np.inf, t0=None, rho=None):
    """f = zeta_+ (box + V)(zeta_- u_tau) plus the reference field zeta_- u."""
    return _surgery(obj, metric, grid, tau, V, r, t0, rho, test=False)


def make_test_function(obj, metric, grid, tau, V=None, r=np.inf, t0=None,
                       rho=None):
    """f+ = zeta_- (box + V)(zeta_+ u_tau); pairs with the backward solve."""
    return _surgery(obj, metric, grid, tau, V, r, t0, rho, test=True)


# ---------------------------------------------------------------------------
# covector algebra
# ---------------------------------------------------------------------------

def kappa_closed_form(sigma):
    """(kappa_1, kappa_2 = kappa_3) in the symmetric flat configuration."""
    root = np.sqrt(1 - sigma**2)
    return 2 * (1 + root) - sigma**2, -(1 + root)


class CovectorQuad:
    """Four light-like covectors at p with an exact linear dependence.

    sharp holds the vector versions normalized to unit time component;
    kappa = (sigma~^2, k1, k2, k3) satisfies sum_j kappa_j sharp_j = 0.
    """

    def __init__(self, p, sharp, xi, kappa, sigma, frame):
        self.p = np.asarray(p, dtype=float)
        self.sharp = np.asarray(sharp)
        self.xi = np.asarray(xi)
        self.kappa = np.asarray(kappa, dtype=float)
        self.sigma = float(sigma)
        self.frame = frame

    def residual(self):
        return float(np.linalg.norm(self.kappa @ self.sharp))

    def manifest(self):
        lines = [f"covector quad at p = {self.p.tolist()}",
                 f"sigma~ = {self.sigma}",
                 f"dependence residual = {self.residual():.3e}"]
        for j in range(4):
            lines.append(f"  kappa_{j} = {self.kappa[j]:+.12f}   "
                         f"xi^sharp = {np.round(self.sharp[j], 12).tolist()}")
        return "\n".join(lines)


def _normal_frame(metric, p):
    """Columns E with E^T g(p) E = diag(-1, 1, ..., 1), timelike first."""
    G = metric.matrix(np.asarray(p, dtype=float))
    lam, Q = np.linalg.eigh(G)
    order = np.argsort(lam)        # single negative eigenvalue first
    lam, Q = lam[order], Q[:, order]
    if lam[0] >= 0 or np.any(lam[1:] <= 0):
        raise SourceError("metric at p is not Lorentzian")
    E = Q / np.sqrt(np.abs(lam))
    if E[0, 0] < 0:
        E[:, 0] = -E[:, 0]         # keep the frame future-pointing
    return E


def perturb_covectors(metric, p, xi0_sharp, xi1_sharp, sigma_tilde):
    """Two perturbations of xi1 making the four directions linearly dependent.

    In a frame where the metric at p is Minkowski and all four vectors have
    unit time component, xi2/xi3 tilt xi1 by +/- sigma_tilde in the plane
    spanned with xi0.  The coefficients (k1, k2, k3) then solve the exact
    3x3 system with kappa_0 = sigma_tilde^2, reproducing the closed-form
    kappas in the symmetric configuration.
    """
    p = np.asarray(p, dtype=float)
    E = _normal_frame(metric, p)
    Einv = np.linalg.inv(E)
    w0 = Einv @ np.asarray(xi0_sharp, dtype=float)
    w1 = Einv @ np.asarray(xi1_sharp, dtype=float)
    if abs(w0[0]) < 1e-14 or abs(w1[0]) < 1e-14:
        raise SourceError("covector has vanishing time component")
    w0, w1 = w0 / w0[0], w1 / w1[0]
    n = len(p) - 1
    e1 = w1[1:] / np.linalg.norm(w1[1:])
    res = w0[1:] - (w0[1:] @ e1) * e1
    if np.linalg.norm(res) > 1e-12:
        e2 = res / np.linalg.norm(res)
    else:
        # symmetric case: any unit direction orthogonal to e1
        cand = np.eye(n)[np.argmin(np.abs(e1))]
        e2 = cand - (cand @ e1) * e1
        e2 /= np.linalg.norm(e2)
    if np.linalg.norm(w0[1:] - w1[1:]) < 1e-8:
        # same null direction: the dependence collapses (b(sigma) = 0)
        raise SourceError("degenerate covector configuration")
    st = float(sigma_tilde)
    root = np.sqrt(1 - st**2)
    w2 = np.concatenate([[1.0], root * e1 + st * e2])
    w3 = np.concatenate([[1.0], root * e1 - st * e2])
    # project the dependence onto the (time, e1, e2) components
    def comp(w):
        return np.array([w[0], w[1:] @ e1, w[1:] @ e2])
    A = np.stack([comp(w1), comp(w2), comp(w3)], axis=1)
    if abs(np.linalg.det(A)) < 1e-30:
        raise SourceError("degenerate covector configuration")
    k = np.linalg.solve(A, -st**2 * comp(w0))
    # components of w0 outside the (e1, e2) plane are not representable
    leftover = w0[1:] - (w0[1:] @ e1) * e1 - (w0[1:] @ e2) * e2
    if np.linalg.norm(leftover) > 1e-12:
        raise SourceError("degenerate covector configuration")
    sharp_w = np.stack([w0, w1, w2, w3])
    sharp = sharp_w @ E.T
    kappa = np.concatenate([[st**2], k])
    xi = np.stack([geo.flat(metric, p, v) for v in sharp])
    return CovectorQuad(p, sharp, xi, kappa, st, E)


# ---------------------------------------------------------------------------
# returning geodesics
# ---------------------------------------------------------------------------

class ReturningGeodesics:
    """Two null geodesics through p with endpoints on the cylinder.

    gamma_minus runs from q_minus up through p, gamma_plus from p up to
    q_plus; margin is the minimal distance between the two curves outside
    B(p, 0.1 (t_plus - t_minus)), certifying that they meet only at p.  On a
    flat metric the curves are straight lines sampled exactly and the margin
    is in closed form; on a split metric they are shot and the margin is
    sampled.
    """

    def __init__(self, p, q_minus, q_plus, geod_minus, geod_plus, margin):
        self.p = np.asarray(p, dtype=float)
        self.q_minus = np.asarray(q_minus, dtype=float)
        self.q_plus = np.asarray(q_plus, dtype=float)
        self.geod_minus = geod_minus
        self.geod_plus = geod_plus
        self.margin = float(margin)


def _intersection_margin(gm, gp, p, exclude):
    """Min distance between the two sampled curves outside B(p, exclude).

    The pairwise distances are taken against blocks of 128 samples of the
    second curve, so memory stays O(len(a)) rather than O(len(a) len(b)).
    """
    a = gm.x[np.linalg.norm(gm.x - p, axis=-1) > exclude]
    b = gp.x[np.linalg.norm(gp.x - p, axis=-1) > exclude]
    if len(a) == 0 or len(b) == 0:
        return 0.0
    return min(float(np.linalg.norm(a[:, None] - b[None, i:i + 128],
                                    axis=-1).min())
               for i in range(0, len(b), 128))


def _line_margin(vm, vp, exclude):
    """Min distance between two lines through p outside B(p, exclude).

    With Euclidean unit tangents u_-, u_+ in R^{1+n} the closest pair lies
    on the sphere, one point on each of the two half-lines that make the
    acute angle: exclude * sqrt(2 - 2 |u_- . u_+|).
    """
    cos = abs(vm @ vp) / (np.linalg.norm(vm) * np.linalg.norm(vp))
    return float(exclude * np.sqrt(max(2.0 - 2.0 * cos, 0.0)))


def _null_line(metric, p, q, v, s_nodes):
    """The flat null geodesic x = q + s v sampled on [s_lo, s_hi].

    `s_nodes` is (s_lo, s_p, s_hi) with q + s_p v = p; s_p is a node and its
    sample is p itself.  Nodes are as dense as the shot geodesics' steps
    (400 per unit).
    """
    s_lo, s_p, s_hi = s_nodes
    k_lo = max(1, int(np.ceil((s_p - s_lo) * 400)))
    k_hi = max(1, int(np.ceil((s_hi - s_p) * 400)))
    s = np.concatenate([np.linspace(s_lo, s_p, k_lo + 1),
                        np.linspace(s_p, s_hi, k_hi + 1)[1:]])
    x = q + s[:, None] * v
    x[k_lo] = p
    xdot = np.broadcast_to(v, x.shape).copy()
    return geo.NullGeodesic(metric, s, x, xdot, np.zeros_like(x), 0.0)


def _null_direction(metric, q, u):
    """Future null vector (c, u) at q with unit spatial part u."""
    G = metric.matrix(np.asarray(q, dtype=float))
    # solve g00 c^2 + 2 c g0.u + u.g.u = 0 for c > 0
    a = G[0, 0]
    b = 2 * G[0, 1:] @ u
    cc = u @ G[1:, 1:] @ u
    disc = b * b - 4 * a * cc
    c = (-b + np.sqrt(disc)) / (2 * a)
    if c < 0:
        c = (-b - np.sqrt(disc)) / (2 * a)
    return np.concatenate([[c], u])


def _shoot_to_axis(metric, p, anchor, T, future, steps=400):
    """Null geodesic from p meeting the anchor's world line; returns (g, q).

    Shoots over the initial angle, minimizing the closest spatial approach
    of the curve to the anchor position.  The future tangent is kept and the
    parameter range runs backwards for a past-directed shot.
    """
    d = anchor - p[1:]
    theta0 = float(np.arctan2(d[1], d[0])) if len(d) > 1 else 0.0
    span = (0.0, 1.5 * T)
    if not future:
        span = (-span[1], 0.0)
        theta0 += np.pi

    def miss(theta):
        u = np.array([np.cos(theta), np.sin(theta)])[: len(d)]
        v = _null_direction(metric, p, u)
        g = geo.integrate_null_geodesic(metric, p, v / abs(v[0]), span,
                                        steps_per_unit=steps)
        dist = np.linalg.norm(g.x[:, 1:] - anchor, axis=-1)
        i = int(np.argmin(dist))
        q = g.x[i]
        best = float(dist[i])
        if 0 < i < len(dist) - 1:
            # parabolic refinement of the sampled closest approach
            d2 = dist**2
            denom = d2[i - 1] - 2 * d2[i] + d2[i + 1]
            if denom > 0:
                frac = 0.5 * (d2[i - 1] - d2[i + 1]) / denom
                frac = float(np.clip(frac, -1.0, 1.0))
                j = i + 1 if frac >= 0 else i - 1
                q = g.x[i] + abs(frac) * (g.x[j] - g.x[i])
                best = float(np.linalg.norm(q[1:] - anchor))
        return best, g, q

    r = minimize_scalar(lambda th: miss(th)[0],
                        bounds=(theta0 - 0.5, theta0 + 0.5), method="bounded",
                        options={"xatol": 1e-12})
    err, g, q = miss(float(r.x))
    if err > 1e-6:
        raise SourceError(
            f"no null geodesic reaches the anchor line (miss {err:.2e})")
    return g, q


def find_returning_geodesics(metric, p, r, T, anchors=None, margin_min=1e-3):
    """Null geodesics gamma_-/gamma_+ through p returning to the cylinder."""
    p = np.asarray(p, dtype=float)
    n = len(p) - 1
    if np.linalg.norm(p[1:]) < r and 0 < p[0] < T:
        raise SourceError("p must lie outside the measurement cylinder")
    if anchors is None:
        anchors = [np.zeros(n)]
    last_err = None
    for a in anchors:
        a = np.asarray(a, dtype=float)
        try:
            if geo.is_flat(metric):
                d = float(np.linalg.norm(p[1:] - a))
                tm, tp = p[0] - d, p[0] + d
                if not (0 <= tm < tp <= T):
                    raise SourceError("anchor cone times leave the slab")
                qm = np.concatenate([[tm], a])
                qp = np.concatenate([[tp], a])
                u = (p[1:] - a) / d
                vm = np.concatenate([[1.0], u])
                vp = np.concatenate([[1.0], -u])
                gm = _null_line(metric, p, qm, vm, (0.0, d, 3 * d))
                # the upper line keeps its future tangent and runs its
                # parameter backwards from q_plus through p
                gp_rev = _null_line(metric, p, qp, vp, (-3 * d, -d, 0.0))
                margin = _line_margin(vm, vp, exclude=0.1 * (tp - tm))
            else:
                gm, qm = _shoot_to_axis(metric, p, a, T, future=False)
                gp_rev, qp = _shoot_to_axis(metric, p, a, T, future=True)
                tm, tp = qm[0], qp[0]
                if not (0 <= tm < tp <= T):
                    raise SourceError("anchor cone times leave the slab")
                margin = _intersection_margin(gm, gp_rev, p,
                                              exclude=0.1 * (tp - tm))
            if margin < margin_min:
                raise SourceError("returning geodesics fail transversality")
            return ReturningGeodesics(p, qm, qp, gm, gp_rev, margin)
        except (SourceError, geo.GeometryError) as exc:
            last_err = exc
    raise SourceError(f"no returning geodesic configuration found: {last_err}")


# ---------------------------------------------------------------------------
# source families
# ---------------------------------------------------------------------------

def build_three_family(f1: SourceTerm, f2: SourceTerm, f3: SourceTerm):
    """eps -> eps1 f1 + eps2 f2 + eps3 f3 on a shared grid."""
    if not (f1.grid.same_layout(f2.grid) and f1.grid.same_layout(f3.grid)):
        raise SourceError("family sources live on different grids")

    def family(eps):
        e1, e2, e3 = eps
        return f1 * e1 + f2 * e2 + f3 * e3
    return family
