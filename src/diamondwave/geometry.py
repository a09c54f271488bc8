"""Lorentzian metrics in 1+n split form, causal structure and null geodesics.

Points are numpy arrays (t, x1..xn); covectors and vectors are plain arrays
whose index position is tracked by the caller (`sharp`/`flat` convert).
All metric evaluations are batched: x may have shape (..., 1+n).
"""

from __future__ import annotations

import numpy as np

from .exprs import ScalarField


class GeometryError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# metrics


class Metric:
    """Base class: pseudo-Riemannian metric with signature (-,+,...,+)."""

    kind = "abstract"

    def __init__(self, n: int):
        if n not in (1, 2, 3):
            raise GeometryError(f"spatial dimension n={n} unsupported")
        self.n = n
        self.dim = n + 1

    def matrix(self, x):
        raise NotImplementedError

    def dmatrix(self, x):
        """Partial derivatives d_k g_ij, shape (..., 1+n, 1+n, 1+n), index [k,i,j]."""
        raise NotImplementedError

    def inverse(self, x):
        g = self.matrix(x)
        try:
            return np.linalg.inv(g)
        except np.linalg.LinAlgError:
            raise GeometryError("degenerate metric at point") from None

    def inner(self, x, v, w):
        g = self.matrix(x)
        return np.einsum("...ij,...i,...j->...", g, v, w)

    def sqrt_abs_det(self, x):
        return np.sqrt(np.abs(np.linalg.det(self.matrix(x))))

    def christoffel(self, x):
        """Christoffel symbols of the second kind, shape (..., k, i, j)."""
        ginv = self.inverse(x)
        dg = self.dmatrix(x)
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij); the
        # first-kind term [l, i, j] is contracted as a (dim, dim^2) matrix
        dim = self.dim
        term = (np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1)) - dg
        lead = term.shape[:-3]
        gam = 0.5 * np.matmul(ginv, term.reshape(lead + (dim, dim * dim)))
        gam = gam.reshape(lead + (dim,) * 3)
        if not np.all(np.isfinite(gam)):
            raise GeometryError("non-finite metric derivatives")
        return gam

    def geodesic_acceleration(self, x, v):
        """-Gamma^k_ij v^i v^j, the right-hand side of the geodesic equation
        x'' = acc(x, x'), batched over leading axes; shape (..., k)."""
        return -np.einsum("...kij,...i,...j->...k", self.christoffel(x), v, v)

    def check_signature(self, x):
        w = np.linalg.eigvalsh(self.matrix(x))
        neg = np.sum(w < 0, axis=-1)
        pos = np.sum(w > 0, axis=-1)
        if not (np.all(neg == 1) and np.all(pos == self.n)):
            raise GeometryError("metric signature is not (-,+,...,+)")


class MinkowskiMetric(Metric):
    kind = "minkowski"

    def __init__(self, n: int = 2):
        super().__init__(n)
        self._eta = np.diag([-1.0] + [1.0] * n)

    def matrix(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self._eta, x.shape[:-1] + (self.dim, self.dim)).copy()

    def inverse(self, x):
        return self.matrix(x)

    def dmatrix(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.dim,) * 3)

    def christoffel(self, x):
        return self.dmatrix(x)

    def geodesic_acceleration(self, x, v):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v)))


class SplitMetric(Metric):
    """Metric of the form -beta(t,x') dt^2 + g(t,x') on R x R^n.

    `beta` maps (...,1+n) -> (...); `gmat` maps (...,1+n) -> (...,n,n).
    Analytic derivative closures may be supplied; otherwise central finite
    differences of beta and g with step `h_g` are used.

    The kernels use the block structure: the inverse is -1/beta (+) g^{-1}
    with the n x n inverse by cofactors, and `christoffel` is the block
    closed form, equal to the generic `Metric.christoffel` up to rounding.
    `geodesic_acceleration` contracts the same blocks with the velocity
    without building the Christoffel tensor.
    """

    kind = "split"

    def __init__(self, n, beta, gmat, dbeta=None, dgmat=None, h_g=1e-5):
        super().__init__(n)
        self.beta = beta
        self.gmat = gmat
        self._dbeta = dbeta
        self._dgmat = dgmat
        self.h_g = h_g

    @classmethod
    def from_expressions(cls, n, beta_text, g_texts):
        """Build from the config expression grammar.

        g_texts is an n x n nested list of expression strings.
        """
        beta_f = ScalarField.from_text(beta_text, n)
        g_f = [[ScalarField.from_text(g_texts[i][j], n) for j in range(n)]
               for i in range(n)]

        def beta(x):
            return beta_f(x)

        def gmat(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape[:-1] + (n, n))
            for i in range(n):
                for j in range(n):
                    out[..., i, j] = g_f[i][j](x)
            return out

        def dbeta(x):
            return beta_f.gradient(x)

        def dgmat(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape[:-1] + (n + 1, n, n))
            for i in range(n):
                for j in range(n):
                    out[..., :, i, j] = g_f[i][j].gradient(x)
            return out

        return cls(n, beta, gmat, dbeta=dbeta, dgmat=dgmat)

    def matrix(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        out[..., 0, 0] = -self.beta(x)
        out[..., 1:, 1:] = self.gmat(x)
        return out

    def _inverse_blocks(self, x):
        """(1/beta, g^{-1}) at x; the spatial inverse by cofactors."""
        beta = np.empty(x.shape[:-1])
        beta[...] = self.beta(x)
        ginv, det = _cofactor_inverse(self.gmat(x))
        ok = np.isfinite(beta) & (beta != 0) & np.isfinite(det) & (det != 0)
        if not ok.all():
            raise GeometryError("degenerate metric at point")
        return 1.0 / beta, ginv

    def _derivatives(self, x):
        """(d_k beta, d_k g_ij), shapes (..., 1+n) and (..., 1+n, n, n)."""
        if self._dbeta is not None and self._dgmat is not None:
            return self._dbeta(x), self._dgmat(x)
        h = self.h_g
        e = h * np.eye(self.dim)
        db = np.empty(x.shape[:-1] + (self.dim,))
        dg = np.empty(x.shape[:-1] + (self.dim, self.n, self.n))
        for k in range(self.dim):
            xp, xm = x + e[k], x - e[k]
            np.subtract(self.beta(xp), self.beta(xm), out=db[..., k])
            np.subtract(self.gmat(xp), self.gmat(xm), out=dg[..., k, :, :])
        db /= 2 * h
        dg /= 2 * h
        return db, dg

    def inverse(self, x):
        """Block inverse -1/beta (+) g^{-1}; raises GeometryError where beta
        or det g is zero or non-finite."""
        x = np.asarray(x, dtype=float)
        binv, ginv = self._inverse_blocks(x)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        out[..., 0, 0] = -binv
        out[..., 1:, 1:] = ginv
        return out

    def dmatrix(self, x):
        x = np.asarray(x, dtype=float)
        db, dg = self._derivatives(x)
        out = np.zeros(x.shape[:-1] + (self.dim,) * 3)
        out[..., :, 0, 0] = -db
        out[..., :, 1:, 1:] = dg
        return out

    def christoffel(self, x):
        """Christoffel symbols in block closed form, shape (..., k, i, j).

        With w = 1/(2 beta), spatial indices a, b, c and d_0 = d_t:
        G^0_00 = w d_0 beta, G^0_0a = w d_a beta, G^0_ab = w d_0 g_ab,
        G^a_00 = 1/2 g^{ac} d_c beta, G^a_0b = 1/2 g^{ac} d_0 g_cb, and
        G^a_bc is the Christoffel symbol of g at frozen t.
        """
        x = np.asarray(x, dtype=float)
        n, lead = self.n, x.shape[:-1]
        binv, ginv = self._inverse_blocks(x)
        db, dg = self._derivatives(x)
        w = (0.5 * binv)[..., None]
        hg = 0.5 * ginv
        gam = np.empty(lead + (self.dim,) * 3)
        gam[..., 0, 0, :] = w * db
        gam[..., 0, 1:, 0] = gam[..., 0, 0, 1:]
        gam[..., 0, 1:, 1:] = w[..., None] * dg[..., 0, :, :]
        gam[..., 1:, 0, 0] = np.matmul(hg, db[..., 1:, None])[..., 0]
        gam[..., 1:, 0, 1:] = np.matmul(hg, dg[..., 0, :, :])
        gam[..., 1:, 1:, 0] = gam[..., 1:, 0, 1:]
        ds = dg[..., 1:, :, :]
        term = (np.swapaxes(ds, -3, -2) + np.moveaxis(ds, -3, -1)) - ds
        gam[..., 1:, 1:, 1:] = np.matmul(
            hg, term.reshape(lead + (n, n * n))).reshape(lead + (n,) * 3)
        if not np.all(np.isfinite(gam)):
            raise GeometryError("non-finite metric derivatives")
        return gam

    def geodesic_acceleration(self, x, v):
        """-Gamma^k_ij v^i v^j in block closed form, never building Gamma.

        With w = 1/(2 beta), spatial indices a, b, c, d, d_0 = d_t and
        (v.dg)_cb = v^k d_k g_cb summed over all 1+n indices k:
        acc^0 = -w (d_0 beta v0^2 + 2 v0 d_a beta v^a + d_0 g_ab v^a v^b),
        acc^a = -1/2 g^{ac} (d_c beta v0^2 + 2 (v.dg)_cb v^b
                             - d_c g_bd v^b v^d),
        one component at a time: arrays over the leading axes, or plain
        scalars at a single point.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        n, dim = self.n, self.dim
        binv, ginv = self._inverse_blocks(x)
        db, dg = self._derivatives(x)
        if not (np.isfinite(db).all() and np.isfinite(dg).all()):
            raise GeometryError("non-finite metric derivatives")
        vk = _components_first(v, 1)
        dbk = _components_first(db, 1)
        dgk = _components_first(dg, 3)
        gik = _components_first(ginv, 2)
        vs = vk[1:]
        # gv[k][c] = d_k g_cb v^b and q[k] = d_k g_bd v^b v^d
        gv = [[_dot(dgk[k, c], vs) for c in range(n)] for k in range(dim)]
        q = [_dot(gvk, vs) for gvk in gv]
        v0sq = vk[0] * vk[0]
        acc0 = (-0.5 * binv) * (dbk[0] * v0sq + 2.0 * vk[0] * _dot(dbk[1:], vs)
                                + q[0])
        r = [dbk[1 + c] * v0sq
             + 2.0 * _dot([gv[k][c] for k in range(dim)], vk) - q[1 + c]
             for c in range(n)]
        acc = np.empty(np.shape(acc0) + (dim,))
        acc[..., 0] = acc0
        for a in range(n):
            acc[..., 1 + a] = -0.5 * _dot(gik[a], r)
        return acc

    def max_wavespeed(self, points):
        """sup over sample points of the coordinate light speed, for CFL."""
        beta = np.asarray(self.beta(points))
        g = self.gmat(points)
        lam_min = np.linalg.eigvalsh(g)[..., 0]
        return float(np.sqrt(np.max(beta / lam_min)))


def _components_first(a, k):
    """View of `a` with its last k (component) axes moved to the front."""
    nd = a.ndim
    return a.transpose(tuple(range(nd - k, nd)) + tuple(range(nd - k)))


def _dot(a, b):
    """sum_i a[i] * b[i] over two equally long sequences of arrays."""
    out = a[0] * b[0]
    for i in range(1, len(a)):
        out = out + a[i] * b[i]
    return out


def _cofactor_inverse(g):
    """Inverse and determinant of a batch of n x n matrices (n <= 3) by
    cofactors; entries are inf/nan where the determinant vanishes."""
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    adj = np.empty_like(g)
    if n == 1:
        det = g[..., 0, 0]
        adj[...] = 1.0
    elif n == 2:
        det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
        adj[..., 0, 0] = g[..., 1, 1]
        adj[..., 1, 1] = g[..., 0, 0]
        adj[..., 0, 1] = -g[..., 0, 1]
        adj[..., 1, 0] = -g[..., 1, 0]
    else:
        # adj[j, i] = cofactor C_ij, from cyclic index shifts
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                adj[..., j, i] = (g[..., i1, j1] * g[..., i2, j2]
                                  - g[..., i1, j2] * g[..., i2, j1])
        det = (g[..., 0, 0] * adj[..., 0, 0] + g[..., 0, 1] * adj[..., 1, 0]
               + g[..., 0, 2] * adj[..., 2, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        return adj / det[..., None, None], det


def minkowski(n: int = 2) -> MinkowskiMetric:
    return MinkowskiMetric(n)


def is_flat(metric: Metric) -> bool:
    """True for the flat Minkowski metric, where null geodesics are lines."""
    return metric.kind == "minkowski"


# ---------------------------------------------------------------------------
# index gymnastics


def sharp(metric: Metric, p, xi):
    """Raise the index of a covector: result^i = g^{ij} xi_j."""
    return np.einsum("...ij,...j->...i", metric.inverse(p), np.asarray(xi, dtype=float))


def flat(metric: Metric, p, v):
    """Lower the index of a vector: result_i = g_{ij} v^j."""
    return np.einsum("...ij,...j->...i", metric.matrix(p), np.asarray(v, dtype=float))


def is_null(metric: Metric, p, v, tol=1e-10):
    v = np.asarray(v, dtype=float)
    scale = max(np.max(np.abs(v)) ** 2, 1e-300)
    return abs(float(metric.inner(p, v, v))) <= tol * scale


# ---------------------------------------------------------------------------
# geodesics


class NullGeodesic:
    """Sampled null geodesic with cubic Hermite interpolation.

    Samples are (s_i, gamma(s_i), gammadot(s_i)); accelerations are stored to
    interpolate the velocity smoothly as well.
    """

    def __init__(self, metric, s, x, xdot, xddot, null_defect, truncated=False):
        self.metric = metric
        self.s = s
        self.x = x
        self.xdot = xdot
        self.xddot = xddot
        self.null_defect = null_defect
        self.truncated = truncated

    @property
    def s_range(self):
        return (self.s[0], self.s[-1])

    def _locate(self, sq):
        sq = np.asarray(sq, dtype=float)
        idx = np.clip(np.searchsorted(self.s, sq) - 1, 0, len(self.s) - 2)
        h = self.s[idx + 1] - self.s[idx]
        u = (sq - self.s[idx]) / h
        return idx, h, u

    @staticmethod
    def _hermite(u, h, f0, f1, d0, d1):
        u = u[..., None]
        h00 = 2 * u**3 - 3 * u**2 + 1
        h10 = u**3 - 2 * u**2 + u
        h01 = -2 * u**3 + 3 * u**2
        h11 = u**3 - u**2
        return h00 * f0 + h10 * h[..., None] * d0 + h01 * f1 + h11 * h[..., None] * d1

    def point(self, sq):
        idx, h, u = self._locate(sq)
        return self._hermite(u, h, self.x[idx], self.x[idx + 1],
                             self.xdot[idx], self.xdot[idx + 1])

    def velocity(self, sq):
        idx, h, u = self._locate(sq)
        return self._hermite(u, h, self.xdot[idx], self.xdot[idx + 1],
                             self.xddot[idx], self.xddot[idx + 1])

    def __call__(self, sq):
        return self.point(sq)


def _rk4_step(metric, x, v, h):
    """One classical RK4 step of the geodesic equation x'' = acc(x, x')."""
    a1 = metric.geodesic_acceleration(x, v)
    k2x = v + 0.5 * h * a1
    a2 = metric.geodesic_acceleration(x + 0.5 * h * v, k2x)
    k3x = v + 0.5 * h * a2
    a3 = metric.geodesic_acceleration(x + 0.5 * h * k2x, k3x)
    k4x = v + h * a3
    a4 = metric.geodesic_acceleration(x + h * k3x, k4x)
    return (x + (h / 6) * (v + 2 * k2x + 2 * k3x + k4x),
            v + (h / 6) * (a1 + 2 * a2 + 2 * a3 + a4))


def _rk4_geodesic(metric, x0, v0, span, nsteps):
    """End point (x, v) of `nsteps` fixed RK4 steps over the parameter
    span from (x0, v0); batched over leading axes of x0, v0: (..., 1+n)."""
    h = span / nsteps
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    for _ in range(nsteps):
        x, v = _rk4_step(metric, x, v, h)
    return x, v


def _rk4_geodesic_path(metric, x0, v0, span, nsteps):
    """Every state of `_rk4_geodesic`: (xs, vs), each (nsteps + 1, ..., 1+n)."""
    h = span / nsteps
    xs = np.empty((nsteps + 1,) + np.shape(x0))
    vs = np.empty_like(xs)
    xs[0], vs[0] = x0, v0
    for i in range(nsteps):
        xs[i + 1], vs[i + 1] = _rk4_step(metric, xs[i], vs[i], h)
    return xs, vs


def integrate_null_geodesic(metric, p, v, s_range, steps_per_unit=200,
                            max_refine=4):
    """Integrate the null geodesic through (p, v) over s in [a, b].

    Classical RK4 with a fixed step; the step is halved (up to `max_refine`
    times) while the null defect sup |<gdot,gdot>| exceeds 1e-9.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not is_null(metric, p, v):
        raise GeometryError("initial direction not light-like")
    if v[0] <= 0:
        raise GeometryError("initial direction not future-pointing (v^0 <= 0)")
    a, b = float(s_range[0]), float(s_range[1])
    span = b - a
    if span <= 0:
        raise GeometryError("empty parameter range")

    nsteps = max(8, int(np.ceil(span * steps_per_unit)))
    for _ in range(max_refine + 1):
        # integrate forward from s=0 towards both ends (p sits at s=0)
        nf = max(1, int(round(nsteps * max(b, 0) / span))) if b > 0 else 0
        nb = max(1, int(round(nsteps * max(-a, 0) / span))) if a < 0 else 0
        xs_f, vs_f = (_rk4_geodesic_path(metric, p, v, b, nf)
                      if nf else (p[None], v[None]))
        xs_b, vs_b = (_rk4_geodesic_path(metric, p, -v, -a, nb)
                      if nb else (p[None], v[None]))
        s_f = np.linspace(0.0, b, nf + 1) if nf else np.array([0.0])
        s_b = -np.linspace(0.0, -a, nb + 1) if nb else np.array([0.0])
        s = np.concatenate([s_b[::-1][:-1], s_f])
        x = np.concatenate([xs_b[::-1][:-1], xs_f])
        xdot = np.concatenate([-vs_b[::-1][:-1], vs_f])
        defect = np.abs(np.einsum("...ij,...i,...j->...",
                                  metric.matrix(x), xdot, xdot))
        defect = float(np.max(defect)) / max(float(np.max(np.abs(xdot))) ** 2, 1e-300)
        if defect <= 1e-9 or is_flat(metric):
            break
        nsteps *= 2

    if not np.all(np.isfinite(x)):
        good = np.all(np.isfinite(x), axis=-1) & np.all(np.isfinite(xdot), axis=-1)
        last = np.argmin(good) if not np.all(good) else len(s)
        s, x, xdot = s[:last], x[:last], xdot[:last]
        truncated = True
    else:
        truncated = False

    xddot = metric.geodesic_acceleration(x, xdot)
    return NullGeodesic(metric, s, x, xdot, xddot, defect, truncated=truncated)


def geodesic_residual(geo: NullGeodesic):
    """Max geodesic-equation residual at sample midpoints (central differences)."""
    s = geo.s
    mid = 0.5 * (s[:-1] + s[1:])
    h = np.minimum(np.diff(s), 1e-3) * 0.5
    xm = geo.point(mid)
    vm = (geo.point(mid + h) - geo.point(mid - h)) / (2 * h[:, None])
    am = (geo.point(mid + h) - 2 * xm + geo.point(mid - h)) / (h[:, None] ** 2)
    gam = geo.metric.christoffel(xm)
    res = am + np.einsum("...kij,...i,...j->...k", gam, vm, vm)
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# wave operator


_D1_4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # 4th order first derivative
_OFF = np.array([-2, -1, 0, 1, 2])


def dalembertian(metric: Metric, u, p, h_op=1e-2):
    """Coordinate d'Alembertian -|g|^{-1/2} d_i (|g|^{1/2} g^{ij} d_j u) at p.

    `u` is a scalar closure on (1+n)-points; derivatives are 4th-order
    central differences with step h_op.
    """
    p = np.asarray(p, dtype=float)
    dim = metric.dim

    def flux(xpts):
        # F_i(x) = |g|^{1/2} g^{ij} d_j u(x), batched over leading axes
        xpts = np.asarray(xpts, dtype=float)
        du = np.empty(xpts.shape)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h_op
            vals = np.stack([u(xpts + k * e) for k in _OFF], axis=-1)
            du[..., j] = vals @ _D1_4 / h_op
        ginv = metric.inverse(xpts)
        sq = metric.sqrt_abs_det(xpts)[..., None]
        return sq * np.einsum("...ij,...j->...i", ginv, du)

    total = 0.0
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h_op
        pts = p[None, :] + _OFF[:, None] * e[None, :]
        fi = flux(pts)[:, i]
        total += float(fi @ _D1_4) / h_op
    val = -total / float(metric.sqrt_abs_det(p))
    if not np.isfinite(val):
        raise GeometryError("non-finite derivative samples in dalembertian")
    return val


# ---------------------------------------------------------------------------
# causal structure (Minkowski helpers + desk-scale split shooting)


def causal_diamond_contains(r, T, p):
    """Membership in D = J+(mho) cap J-(mho) for mho = (0,T) x B(0,r), Minkowski."""
    p = np.asarray(p, dtype=float)
    t = p[0]
    rad = float(np.linalg.norm(p[1:]))
    if not (0.0 < t < T):
        return False
    return rad <= r + t and rad <= r + T - t


def in_mho(r, T, p):
    p = np.asarray(p, dtype=float)
    return (0.0 < p[0] < T) and float(np.linalg.norm(p[1:])) < r


def time_separation(metric: Metric, p, q, shoot_kwargs=None):
    """Time separation tau(p, q) = sup length of future causal curves p -> q.

    Minkowski: closed form. Split metrics: desk-scale geodesic shooting
    (coarse polar screening + Nelder-Mead refinement); no caustic handling.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if is_flat(metric):
        dt = q[0] - p[0]
        dx = float(np.linalg.norm(q[1:] - p[1:]))
        if dt < dx:  # not causally related (or past-directed)
            return 0.0
        return float(np.sqrt(max(dt * dt - dx * dx, 0.0)))
    return _time_separation_split(metric, p, q, **(shoot_kwargs or {}))


def _propagate_to_time(metric, p, u, t_target, nsteps=160):
    """Integrate a geodesic from (p,u) until coordinate time t_target."""
    # parameter duration estimate: dt/ds = u^0 approx constant at desk scale
    span = (t_target - p[0]) / u[0]
    for _ in range(3):
        x, v = _rk4_geodesic(metric, p, u, span, nsteps)
        if abs(x[0] - t_target) < 1e-10:
            break
        span += (t_target - x[0]) / v[0]
    return x, v, span


def _time_separation_split(metric, p, q, nsteps=160, polar=16, xtol=1e-8):
    from scipy import optimize

    if q[0] <= p[0]:
        return 0.0
    n = metric.n
    beta_p = float(metric.beta(p))
    g_p = metric.gmat(p)

    def initial_u(w):
        w = np.asarray(w, dtype=float)
        u0 = np.sqrt((1.0 + w @ g_p @ w) / beta_p)
        return np.concatenate([[u0], w])

    def endpoint_miss(w):
        x_end, _, span = _propagate_to_time(metric, p, initial_u(w), q[0], nsteps)
        return x_end[1:] - q[1:], span

    # Minkowski-style initial guess
    dt = q[0] - p[0]
    dxv = q[1:] - p[1:]
    dx = float(np.linalg.norm(dxv))
    if dt * dt - dx * dx <= 0:
        # desk scale: mildly perturbed metrics do not open the light cone wide
        margin = 0.05 * (dt * dt + dx * dx)
        if dx * dx - dt * dt > margin:
            return 0.0
    tau0 = np.sqrt(max(dt * dt - dx * dx, 1e-6))
    w0 = dxv / tau0

    candidates = [w0]
    if n >= 2:
        # coarse polar screen around the straight-line guess
        for ang in np.linspace(0, 2 * np.pi, polar, endpoint=False):
            d = np.zeros(n)
            d[0], d[1] = np.cos(ang), np.sin(ang)
            candidates.append(w0 + 0.2 * np.linalg.norm(w0 + 1e-9) * d)

    best = None
    for w in candidates:
        sol = optimize.least_squares(lambda ww: endpoint_miss(ww)[0], w,
                                     xtol=xtol, ftol=1e-12, gtol=1e-12)
        if best is None or sol.cost < best.cost:
            best = sol
        if sol.cost < 1e-16:
            break
    miss, span = endpoint_miss(best.x)
    if np.linalg.norm(miss) > 1e-5 * max(1.0, dx):
        raise GeometryError(
            f"time_separation shooting failed to bracket (miss={np.linalg.norm(miss):.2e})")
    # refine span via Nelder-Mead on the proper time? proper time = span for
    # unit-normalized velocity; negative norm drift is below desk tolerance.
    return max(float(span), 0.0)
