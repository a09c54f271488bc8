"""Lorentzian metrics in 1+n split form, causal structure and null geodesics.

Points are numpy arrays (t, x1..xn); covectors and vectors are plain arrays
whose index position is tracked by the caller (`sharp`/`flat` convert).
All metric evaluations are batched: x may have shape (..., 1+n).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class GeometryError(RuntimeError):
    pass


H_G = 1e-5  # step of the central differences of split-metric coefficients
H_G2 = 1e-4  # step of their second differences (`linearized_spray`)


# ---------------------------------------------------------------------------
# metrics


class Metric:
    """Base class: pseudo-Riemannian metric with signature (-,+,...,+).

    Subclasses give `matrix`, `inverse`, the spray `geodesic_acceleration`
    and the Christoffel bilinear form `christoffel(x, v, w)`.
    """

    kind = "abstract"

    def __init__(self, n: int):
        if n not in (1, 2, 3):
            raise GeometryError(f"spatial dimension n={n} unsupported")
        self.n = n
        self.dim = n + 1

    def matrix(self, x):
        raise NotImplementedError

    def inner(self, x, v, w):
        g = self.matrix(x)
        return np.einsum("...ij,...i,...j->...", g, v, w)

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

    def christoffel(self, x, v, w):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v),
                                            np.shape(w)))

    def geodesic_acceleration(self, x, v):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v)))


class SplitMetric(Metric):
    """Metric of the form -beta(t,x') dt^2 + g(t,x') on R x R^n.

    `beta` maps (...,1+n) -> (...); `gmat` maps (...,1+n) -> (...,n,n).
    Their derivatives are central finite differences with step `H_G`.

    The kernels use the block structure: the inverse is -1/beta (+) g^{-1}
    with the n x n inverse by cofactors.  `geodesic_acceleration`,
    `christoffel` and `linearized_spray` contract the blocks of the metric
    derivatives with vectors and never build the Christoffel tensor.
    """

    kind = "split"

    def __init__(self, n, beta, gmat):
        super().__init__(n)
        self.beta = beta
        self.gmat = gmat

    def matrix(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        out[..., 0, 0] = -self.beta(x)
        out[..., 1:, 1:] = self.gmat(x)
        return out

    def _values(self, x):
        """(beta, g) at x, beta broadcast over the leading axes of x."""
        beta = np.empty(x.shape[:-1])
        beta[...] = self.beta(x)
        return beta, self.gmat(x)

    @staticmethod
    def _inverse_blocks(beta, g):
        """(1/beta, g^{-1}) from the values at a point; the spatial inverse
        by cofactors."""
        ginv, det = _cofactor_inverse(g)
        ok = np.isfinite(beta) & (beta != 0) & np.isfinite(det) & (det != 0)
        if not ok.all():
            raise GeometryError("degenerate metric at point")
        return 1.0 / beta, ginv

    def _derivatives(self, x):
        """(d_k beta, d_k g_ij), shapes (..., 1+n) and (..., 1+n, n, n)."""
        h = H_G
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

    def _second_derivatives(self, x, beta, g):
        """(d_k d_l beta, d_k d_l g_ij): nested lists over k and l of arrays
        (...) and (..., n, n), whose (l, k) entry is the (k, l) one.  Second
        differences of step `H_G2` around the values beta and g at x, from
        x +- H e_k and the corners x +- H e_k +- H e_l."""
        dim, h2 = self.dim, H_G2 * H_G2
        e = H_G2 * np.eye(dim)
        hb = [[None] * dim for _ in range(dim)]
        hg = [[None] * dim for _ in range(dim)]
        for k in range(dim):
            xp, xm = x + e[k], x - e[k]
            hb[k][k] = ((self.beta(xp) - 2.0 * beta) + self.beta(xm)) / h2
            hg[k][k] = ((self.gmat(xp) - 2.0 * g) + self.gmat(xm)) / h2
            for l in range(k + 1, dim):
                # the corners ++, +-, -+, -- of the (k, l) square; each
                # difference is formed as soon as its two corners exist
                pp, pm = e[k] + e[l], e[k] - e[l]
                for f, out in ((self.beta, hb), (self.gmat, hg)):
                    out[k][l] = out[l][k] = (
                        (f(x + pp) - f(x + pm)) - (f(x - pm) - f(x - pp))
                    ) / (4 * h2)
        return hb, hg

    def inverse(self, x):
        """Block inverse -1/beta (+) g^{-1}; raises GeometryError where beta
        or det g is zero or non-finite."""
        x = np.asarray(x, dtype=float)
        binv, ginv = self._inverse_blocks(*self._values(x))
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        out[..., 0, 0] = -binv
        out[..., 1:, 1:] = ginv
        return out

    def geodesic_acceleration(self, x, v):
        """-Gamma^k_ij v^i v^j in block closed form, never building Gamma
        (`_spray_lowered`, `_raise`); batched over leading axes, or plain
        scalars at a single point."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        binv, ginv = self._inverse_blocks(*self._values(x))
        db, dg = self._derivatives(x)
        _check_finite(db, dg)
        vk = _components_first(v, 1)
        gv = [_matvec(dgk, vk[1:]) for dgk in _components_first(dg, 3)]
        return _raise(binv, _components_first(ginv, 2),
                      *_spray_lowered(_components_first(db, 1), gv, vk))

    def christoffel(self, x, v, w):
        """Gamma^k_ij v^i w^j, the bilinear form of the spray: symmetric in
        v and w, and -christoffel(x, v, v) is `geodesic_acceleration(x, v)`,
        both bit for bit.

        w may stack fields on a leading axis, (m, ..., 1+n), as in
        `linearized_spray`.  The form is -1/2 the derivative of the spray
        along w at fixed x (`_add_spray_lowered_dv`), from the spray's own
        stencil of first differences.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        binv, ginv = self._inverse_blocks(*self._values(x))
        db, dg = self._derivatives(x)
        _check_finite(db, dg)
        vk = _components_first(v, 1)
        dgk = _components_first(dg, 3)
        gv = [_matvec(dgk_k, vk[1:]) for dgk_k in dgk]
        lead = np.broadcast_shapes(x.shape[:-1], v.shape[:-1], w.shape[:-1])
        l0, r = np.zeros(lead), [np.zeros(lead) for _ in range(self.n)]
        _add_spray_lowered_dv(l0, r, _components_first(db, 1), dgk, gv, vk,
                              _components_first(w, 1))
        return -0.5 * _raise(binv, _components_first(ginv, 2), l0, r)

    def linearized_spray(self, x, v, xi, eta):
        """(acc(x, v), d/de acc(x + e xi, v + e eta) at e = 0).

        xi and eta stack fields on a leading axis, (m, ..., 1+n), and so
        does the second result; acc is `geodesic_acceleration(x, v)` bit
        for bit.  The linearization is in closed form from one stencil of
        the metric (`_derivatives`, `_second_derivatives`).  In lowered
        components (`_raise`) it sums
        - the spray of the derivatives along xi, (d^2 beta . xi, d^2 g . xi);
        - the derivatives of 1/beta and g^{-1} along xi, which add
          2 (d beta . xi) acc^0 to the time and 2 (d g . xi)_cb acc^b to
          the spatial components;
        - the derivative along eta, 2 B(v, eta) with B the symmetric
          bilinear form of the spray (`_add_spray_lowered_dv`).
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        n, dim = self.n, self.dim
        beta, g = self._values(x)
        binv, ginv = self._inverse_blocks(beta, g)
        db, dg = self._derivatives(x)
        _check_finite(db, dg)
        hb, hg = self._second_derivatives(x, beta, g)
        # the (l, k) entries are the (k, l) ones: each is checked once
        _check_finite(*(h[k][l] for h in (hb, hg) for k in range(dim)
                        for l in range(k, dim)))
        vk = _components_first(v, 1)
        dbk = _components_first(db, 1)
        dgk = _components_first(dg, 3)
        gik = _components_first(ginv, 2)
        gv = [_matvec(dgk_k, vk[1:]) for dgk_k in dgk]
        acc = _raise(binv, gik, *_spray_lowered(dbk, gv, vk))
        ak = _components_first(acc, 1)
        xk = _components_first(np.asarray(xi, dtype=float), 1)
        ek = _components_first(np.asarray(eta, dtype=float), 1)
        # hgv[k][l][c] = d_k d_l g_cb v^b, symmetric in k and l
        hgv = [[None] * dim for _ in range(dim)]
        for k in range(dim):
            for l in range(k, dim):
                hgv[k][l] = hgv[l][k] = _matvec(
                    _components_first(hg[k][l], 2), vk[1:])
        del hg  # lowers the peak memory of the (fields, ...) terms below
        l0, r = _spray_lowered(
            [_dot(hb_k, xk) for hb_k in hb],
            ([_dot([hgv_kl[c] for hgv_kl in hgv_k], xk) for c in range(n)]
             for hgv_k in hgv), vk)
        del hgv
        # the other terms are added into (l0, r) in place as each is formed,
        # in the order of l0 + l0v + (2 d beta . xi) acc^0
        _add_spray_lowered_dv(l0, r, dbk, dgk, gv, vk, ek)
        ga = [_matvec(dgk_k, ak[1:]) for dgk_k in dgk]
        l0 += 2.0 * _dot(dbk, xk) * ak[0]
        for c in range(n):
            r[c] += 2.0 * _dot([ga_k[c] for ga_k in ga], xk)
        return acc, _raise(binv, gik, l0, r)


def _check_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise GeometryError("non-finite metric derivatives")


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


def _matvec(a, w):
    """[_dot(a[c], w) for every row c of a]."""
    return [_dot(row, w) for row in a]


def _add_scaled_row(sums, row, w):
    """One step of `_dot` over rows: sums[c] + row[c] w for every c, in
    place, or [row[c] w] when sums is None."""
    if sums is None:
        return [a * w for a in row]
    for c, a in enumerate(row):
        sums[c] += a * w
    return sums


def _spray_lowered(dbk, gv, vk):
    """(l0, r): the split spray at velocity vk with the index of each
    component still down, components first.

    dbk[k] = d_k beta and gv[k][c] = d_k g_cb v^b.  With q_k = gv[k][c] v^c,
    l0 = d_0 beta v0^2 + 2 v0 d_a beta v^a + q_0 and
    r_c = d_c beta v0^2 + 2 v^k gv[k][c] - q_c, summed over all 1+n k;
    `_raise` turns them into acc.  gv may be any iterable of its rows: each
    row is used once, as it comes, so a generator holds one at a time.
    """
    vs = vk[1:]
    q, gvv = [], None
    for gv_k, w in zip(gv, vk):
        q.append(_dot(gv_k, vs))
        gvv = _add_scaled_row(gvv, gv_k, w)
    v0sq = vk[0] * vk[0]
    l0 = dbk[0] * v0sq + 2.0 * vk[0] * _dot(dbk[1:], vs) + q[0]
    r = [dbk[1 + c] * v0sq + 2.0 * gvv[c] - q[1 + c]
         for c in range(len(gvv))]
    return l0, r


def _add_spray_lowered_dv(l0, r, dbk, dgk, gv, vk, ek):
    """Add to (l0, r), in place, the derivative of
    `_spray_lowered(dbk, gv, vk)` along ek at fixed x; dgk[k][c][b] =
    d_k g_cb, and gv is formed from it at vk."""
    vs, es = vk[1:], ek[1:]
    # ge[k][c] = d_k g_cb eta^b, one row at a time
    dq, gev = [], None
    for gv_k, dgk_k, w in zip(gv, dgk, vk):
        ge_k = _matvec(dgk_k, es)
        dq.append(_dot(gv_k, es) + _dot(ge_k, vs))
        gev = _add_scaled_row(gev, ge_k, w)
    dv0sq = 2.0 * (vk[0] * ek[0])
    l0 += (dbk[0] * dv0sq
           + 2.0 * (ek[0] * _dot(dbk[1:], vs) + vk[0] * _dot(dbk[1:], es))
           + dq[0])
    for c in range(len(r)):
        r[c] += (dbk[1 + c] * dv0sq
                 + 2.0 * (_dot([gv_k[c] for gv_k in gv], ek) + gev[c])
                 - dq[1 + c])


def _raise(binv, gik, l0, r):
    """acc from `_spray_lowered`'s (l0, r): acc^0 = -1/(2 beta) l0 and
    acc^a = -1/2 g^{ac} r_c, stacked on a last axis."""
    acc0 = (-0.5 * binv) * l0
    acc = np.empty(np.shape(acc0) + (1 + len(r),))
    acc[..., 0] = acc0
    for a in range(len(r)):
        acc[..., 1 + a] = -0.5 * _dot(gik[a], r)
    return acc


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


def is_null(metric: Metric, p, v):
    """Whether |<v, v>| <= 1e-10 max_i |v^i|^2 at p."""
    v = np.asarray(v, dtype=float)
    scale = max(np.max(np.abs(v)) ** 2, 1e-300)
    return abs(float(metric.inner(p, v, v))) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# geodesics


class NullGeodesic:
    """Sampled null geodesic with cubic Hermite interpolation.

    Samples are (s_i, gamma(s_i), gammadot(s_i)); accelerations are stored to
    interpolate the velocity smoothly as well.
    """

    def __init__(self, metric, s, x, xdot, xddot, null_defect):
        self.metric = metric
        self.s = s
        self.x = x
        self.xdot = xdot
        self.xddot = xddot
        self.null_defect = null_defect

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
        """Cubic Hermite blend; u and h broadcast over the trailing axes of
        the sample arrays f0, f1, d0, d1."""
        tail = (1,) * (np.ndim(f0) - np.ndim(u))
        u = np.reshape(u, np.shape(u) + tail)
        h = np.reshape(h, np.shape(h) + tail)
        h00 = 2 * u**3 - 3 * u**2 + 1
        h10 = u**3 - 2 * u**2 + u
        h01 = -2 * u**3 + 3 * u**2
        h11 = u**3 - u**2
        return h00 * f0 + h10 * h * d0 + h01 * f1 + h11 * h * d1

    @staticmethod
    def _hermite_ds(u, h, f0, f1, d0, d1):
        """Derivative of `_hermite` in the parameter s = s_i + u h."""
        tail = (1,) * (np.ndim(f0) - np.ndim(u))
        u = np.reshape(u, np.shape(u) + tail)
        h = np.reshape(h, np.shape(h) + tail)
        h00 = (6 * u**2 - 6 * u) / h
        h10 = 3 * u**2 - 4 * u + 1
        h11 = 3 * u**2 - 2 * u
        return h00 * (f0 - f1) + h10 * d0 + h11 * d1

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


class _RK4Stages(NamedTuple):
    """The stages of `_rk4_span` over a node lattice, from `_rk4_stages`."""

    params: np.ndarray  # sorted distinct stage parameters, the nodes included
    nodes: np.ndarray   # index into params of every node
    i0: int             # the node the integration starts from
    steps: list         # (i, i', h, (j1, j2, j4)) in integration order


def _rk4_stages(s_nodes, i0):
    """List the stages of the RK4 span over `s_nodes` outward from node i0.

    A step from node i to its neighbour i' = i +- 1 has h = s_i' - s_i and
    evaluates the right-hand side at s_i, s_i + 0.5*h (twice) and s_i + h,
    formed with exactly these float expressions; j1, j2 and j4 index them in
    `params`.  A caller evaluates what the right-hand side needs that does
    not depend on the state once over `params` and reads stage j from it.
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    raw = []
    for direction in (+1, -1):
        i = i0
        while 0 <= i + direction < len(s_nodes):
            s = s_nodes[i]
            h = s_nodes[i + direction] - s
            raw.append((i, i + direction, h, (s, s + 0.5 * h, s + h)))
            i += direction
    params = np.unique(np.concatenate([s_nodes] + [st for *_, st in raw]))
    steps = [(i, i2, h, tuple(np.searchsorted(params, st).tolist()))
             for i, i2, h, st in raw]
    return _RK4Stages(params, np.searchsorted(params, s_nodes), i0, steps)


def _rk4_span(rhs, stages, state0):
    """Integrate dstate/ds = rhs(j, state) from node `stages.i0` outward,
    both ways, one classical RK4 step per node interval; j is the index of
    the stage parameter in `stages.params` (`_rk4_stages`).  Returns the
    states at every node, (len(stages.nodes), *state0.shape), in the dtype
    of state0."""
    vals = [None] * len(stages.nodes)
    vals[stages.i0] = np.asarray(state0)
    for i, i2, h, (j1, j2, j4) in stages.steps:
        y = vals[i]
        k1 = rhs(j1, y)
        k2 = rhs(j2, y + 0.5 * h * k1)
        k3 = rhs(j2, y + 0.5 * h * k2)
        k4 = rhs(j4, y + h * k3)
        vals[i2] = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.array(vals)


def _rk4_step(acc, x, v, h):
    """One classical RK4 step of the second-order system x'' = acc(x, x').

    The weighted stage sums v + 2 k2 + 2 k3 + k4 and a1 + 2 a2 + 2 a3 + a4
    are accumulated in that order while the stages run, so that no more
    than two stages are held at once.
    """
    a1 = acc(x, v)
    k = v + 0.5 * h * a1                      # k2
    a = acc(x + 0.5 * h * v, k)               # a2
    sx, sv = v + 2 * k, a1 + 2 * a
    del a1
    p = x + 0.5 * h * k
    k = v + 0.5 * h * a                       # k3
    a = acc(p, k)                             # a3
    sx += 2 * k
    sv += 2 * a
    p = x + h * k
    k = v + h * a                             # k4
    a = acc(p, k)                             # a4
    sx += k
    sv += a
    return x + (h / 6) * sx, v + (h / 6) * sv


def _rk4_geodesic(acc, x0, v0, span, nsteps):
    """End point (x, v) of `nsteps` fixed RK4 steps of x'' = acc(x, x') over
    the parameter span from (x0, v0); batched over leading axes of x0, v0.
    For geodesics acc is `Metric.geodesic_acceleration`."""
    h = span / nsteps
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    for _ in range(nsteps):
        x, v = _rk4_step(acc, x, v, h)
    return x, v


def _rk4_geodesic_path(metric, x0, v0, span, nsteps):
    """Every state of `_rk4_geodesic` on the geodesic equation of `metric`:
    (xs, vs), each (nsteps + 1, ..., 1+n)."""
    h = span / nsteps
    xs = np.empty((nsteps + 1,) + np.shape(x0))
    vs = np.empty_like(xs)
    xs[0], vs[0] = x0, v0
    for i in range(nsteps):
        xs[i + 1], vs[i + 1] = _rk4_step(metric.geodesic_acceleration,
                                         xs[i], vs[i], h)
    return xs, vs


_MAX_REFINE = 4     # step halvings of `integrate_null_geodesic`


def integrate_null_geodesic(metric, p, v, s_range, steps_per_unit=200):
    """Integrate the null geodesic through (p, v) over s in [a, b].

    Classical RK4 with a fixed step; the step is halved (up to `_MAX_REFINE`
    times) while the null defect sup |<gdot,gdot>| exceeds 1e-9.  Raises
    GeometryError on a non-finite sample.
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
    for _ in range(_MAX_REFINE + 1):
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
        if not (np.isfinite(x).all() and np.isfinite(xdot).all()):
            raise GeometryError("non-finite geodesic sample")
        defect = np.abs(np.einsum("...ij,...i,...j->...",
                                  metric.matrix(x), xdot, xdot))
        defect = float(np.max(defect)) / max(float(np.max(np.abs(xdot))) ** 2, 1e-300)
        if defect <= 1e-9 or is_flat(metric):
            break
        nsteps *= 2

    xddot = metric.geodesic_acceleration(x, xdot)
    return NullGeodesic(metric, s, x, xdot, xddot, defect)


def geodesic_residual(geo: NullGeodesic):
    """Max geodesic-equation residual at sample midpoints (central differences)."""
    s = geo.s
    mid = 0.5 * (s[:-1] + s[1:])
    h = np.minimum(np.diff(s), 1e-3) * 0.5
    xm, xp, xn = geo.point(mid), geo.point(mid + h), geo.point(mid - h)
    vm = (xp - xn) / (2 * h[:, None])
    am = (xp - 2 * xm + xn) / (h[:, None] ** 2)
    res = am - geo.metric.geodesic_acceleration(xm, vm)
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# causal structure (Minkowski helpers)


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
