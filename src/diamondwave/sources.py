"""Cutoff surgery, light-like covector algebra, and returning geodesics.

A wave-packet ansatz only solves the equation approximately, so it cannot be
fed to the solver directly.  Instead we cut it off in time with a ramp pair
(zeta_-, zeta_+) and emit the source f = zeta_+ (box + V)(zeta_- u_tau), whose
forward solution tracks zeta_- u_tau up to the ansatz truncation error.  The
test function reverses the roles of the ramps and pairs with the backward
solve.  Surgery takes flat packets (`recovery.LinePacket`, `go.GOPacket`) on
the solver's flat background.  The covector algebra builds the four-fold light-like dependence
sigma^2 xi0 + k1 xi1 + k2 xi2 + k3 xi3 = 0 used to aim the packets, and the
returning-geodesic search supplies the two transversal null geodesics through
a target point with endpoints on the measurement cylinder.
"""

import numpy as np

from . import geometry as geo
from .go import smoothstep7
from .solver import (_GHOST, CropGrid, GridField, SourceTerm,
                     apply_wave_operator, support_box)


class SourceError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# time cutoffs
# ---------------------------------------------------------------------------

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
    """(center(t), radius) description of the packet support tube."""
    if not hasattr(obj, "flow_point"):
        raise SourceError("object has no recognised support tube")
    speed = obj.flow_point(1.0)[0] - obj.q[0]     # dt/ds along the flow

    def center(t):
        s = (np.asarray(t) - obj.q[0]) / speed
        return obj.flow_point(s)[..., 1:]
    return center, 1.26 * obj.delta * np.sqrt(obj.n)


def default_rho(obj, grid, r, t0):
    """Half the time-thickness for which the tube stays inside B(0, r)."""
    center, rad = _tube_center_radius(obj)
    times = grid.times()
    ok = np.linalg.norm(center(times), axis=-1) + rad < r
    i0 = int(np.argmin(np.abs(times - t0)))
    if not ok[i0]:
        raise SourceError("packet delta too large for aperture")
    lo = i0
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    hi = i0
    while hi < len(times) - 1 and ok[hi + 1]:
        hi += 1
    rho = 0.5 * min(t0 - times[lo], times[hi] - t0)
    if rho <= grid.dt:
        raise SourceError("packet delta too large for aperture")
    return float(rho)


def _tube_box(obj, grid):
    """The grid box holding the packet's support tube over the grid's
    times, widened by one cell plus the stencil reach and clipped to the
    grid (empty where the tube misses it)."""
    center, rad = _tube_center_radius(obj)
    c = center(grid.times())
    box = []
    for a, b, size in zip((c.min(axis=0) - rad - grid.lo) / grid.h,
                          (c.max(axis=0) + rad - grid.lo) / grid.h,
                          grid.shape):
        start = min(max(int(np.floor(a)) - 1 - _GHOST, 0), size)
        box.append(slice(start, max(min(int(np.ceil(b)) + 2 + _GHOST, size),
                                    start)))
    return tuple(box)


def _packet_on_support(obj, grid, tau):
    """(values, box): the packet sampled on `grid`, kept on its support box
    (`support_box`).

    It is sampled on its tube's box (`_tube_box`) only.  The support box
    found there is the whole grid's when it stays off every edge of the
    tube box that is not an edge of the grid; otherwise the tube bound did
    not hold, and the packet is sampled on the whole grid instead.
    """
    for tube in (_tube_box(obj, grid),
                 tuple(slice(0, size) for size in grid.shape)):
        u = GridField.from_closure(CropGrid(grid, tube),
                                   lambda pts: obj.eval(tau, pts),
                                   dtype=complex).data
        box = support_box(u)
        if all((b.start > 0 or t.start == 0)
               and (b.stop < t.stop - t.start or t.stop == size)
               for b, t, size in zip(box, tube, grid.shape)):
            break
    return u[(slice(None),) + box], tuple(
        slice(t.start + b.start, t.start + b.stop) for b, t in zip(box, tube))


def _surgery(obj, metric, grid, tau, V, r, t0, rho, test):
    if t0 is None:
        t0 = float(obj.q[0])
    if rho is None:
        rho = default_rho(obj, grid, r, t0)
    cut = CutoffPair(t0, rho)
    # outside the box the packet is zero, and so is the wave operator of its
    # cut: the stencils reach _GHOST cells
    u, box = _packet_on_support(obj, grid, tau)
    crop = CropGrid(grid, box)
    times = grid.times()
    inner, outer = (cut.zplus, cut.zminus) if test else (cut.zminus, cut.zplus)
    zu = GridField(crop, u * inner(times).reshape(-1, *([1] * grid.n)))
    del u
    Pzu = apply_wave_operator(metric, crop, V, zu)
    fdata = Pzu.data * outer(times).reshape(-1, *([1] * grid.n))
    # grid-exact support check against the measurement cylinder
    X = crop.spacetime_slice(0)[..., 1:]
    outside = np.linalg.norm(X, axis=-1) >= r
    if np.max(np.abs(fdata[:, outside]), initial=0.0) > 1e-12 * max(
            np.max(np.abs(fdata), initial=0.0), 1e-300):
        raise SourceError("packet delta too large for aperture")
    fdata[:, outside] = 0.0
    src = SourceTerm(grid, field=fdata, box=box)
    src.cutoffs = cut
    return src, zu


def make_source(obj, metric, grid, tau, V=None, r=np.inf, t0=None, rho=None):
    """f = zeta_+ (box + V)(zeta_- u_tau) plus the reference field zeta_- u.

    Both live on the support box of u_tau: f is a SourceTerm with that box
    and zeta_- u a GridField on the box's CropGrid (`dense()` embeds them).
    """
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

    def __init__(self, p, sharp, xi, kappa, sigma):
        self.p = np.asarray(p, dtype=float)
        self.sharp = np.asarray(sharp)
        self.xi = np.asarray(xi)
        self.kappa = np.asarray(kappa, dtype=float)
        self.sigma = float(sigma)

    def residual(self):
        return float(np.linalg.norm(self.kappa @ self.sharp))


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
    return CovectorQuad(p, sharp, xi, kappa, st)


# ---------------------------------------------------------------------------
# returning geodesics
# ---------------------------------------------------------------------------

class ReturningGeodesics:
    """Two null geodesics through p with endpoints on the cylinder.

    gamma_minus runs from q_minus up through p, gamma_plus from p up to
    q_plus; margin is the minimal distance between the two curves outside
    B(p, 0.1 (t_plus - t_minus)), certifying that they meet only at p.  The
    background is flat, so the curves are the null lines through q_minus and
    p and through p and q_plus, and the margin is in closed form.
    """

    def __init__(self, p, q_minus, q_plus, margin):
        self.p = np.asarray(p, dtype=float)
        self.q_minus = np.asarray(q_minus, dtype=float)
        self.q_plus = np.asarray(q_plus, dtype=float)
        self.margin = float(margin)


def _line_margin(vm, vp, exclude):
    """Min distance between two lines through p outside B(p, exclude).

    With Euclidean unit tangents u_-, u_+ in R^{1+n} the closest pair lies
    on the sphere, one point on each of the two half-lines that make the
    acute angle: exclude * sqrt(2 - 2 |u_- . u_+|).
    """
    cos = abs(vm @ vp) / (np.linalg.norm(vm) * np.linalg.norm(vp))
    return float(exclude * np.sqrt(max(2.0 - 2.0 * cos, 0.0)))


def find_returning_geodesics(metric, p, r, T):
    """Null geodesics gamma_-/gamma_+ through p returning to the cylinder.

    Only flat backgrounds are supported: there the geodesics are the null
    lines from p to the world line of the cylinder's axis, in closed form.
    They qualify when their margin is at least 1e-3.
    """
    if not geo.is_flat(metric):
        raise SourceError("returning geodesics need a flat background")
    p = np.asarray(p, dtype=float)
    n = len(p) - 1
    if np.linalg.norm(p[1:]) < r and 0 < p[0] < T:
        raise SourceError("p must lie outside the measurement cylinder")
    none = "no returning geodesic configuration found: "
    d = float(np.linalg.norm(p[1:]))
    tm, tp = p[0] - d, p[0] + d
    if not (0 <= tm < tp <= T):
        raise SourceError(none + "anchor cone times leave the slab")
    u = p[1:] / d
    vm = np.concatenate([[1.0], u])
    vp = np.concatenate([[1.0], -u])
    margin = _line_margin(vm, vp, exclude=0.1 * (tp - tm))
    if margin < 1e-3:
        raise SourceError(none + "returning geodesics fail transversality")
    return ReturningGeodesics(p, np.concatenate([[tm], np.zeros(n)]),
                              np.concatenate([[tp], np.zeros(n)]), margin)


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
