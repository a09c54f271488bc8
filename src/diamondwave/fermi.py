"""Fermi coordinates along a null geodesic.

A pseudo-orthonormal frame (E0 = gammadot, <E0,E1> = 2, E2..En orthonormal
spacelike, all other pairings zero) is parallel-transported along the curve;
the chart is F(s, z') = exp_{gamma(s)}(sum_k z^k E_k(s)) with a Newton inverse.
On the axis the pulled-back metric is 2 ds dz^1 + sum (dz^alpha)^2 with
vanishing first derivatives.
"""

from __future__ import annotations

import numpy as np

from .geometry import (NullGeodesic, _rk4_geodesic, _rk4_span, _rk4_stages,
                       is_flat)


class FermiError(RuntimeError):
    pass


_SEED_BLOCK = 32    # geodesic samples per block of the Newton seed search
# a Newton inverse has converged at this sup-norm residual, and gives up
# after this many steps
_NEWTON_TOL, _NEWTON_MAXITER = 1e-9, 30


def _jacobi_spray(metric):
    """Right-hand side x'' = acc(x, x') of a geodesic with its Jacobi fields.

    x and x' stack the geodesic at index 0 and the fields after it on a
    leading axis.  A field's acceleration is the linearized spray along the
    field, in closed form from one metric stencil per call
    (`SplitMetric.linearized_spray`).
    """
    def acc(x, v):
        out = np.empty_like(x)
        out[0], out[1:] = metric.linearized_spray(x[0], v[0], x[1:], v[1:])
        return out
    return acc


def chart_metric(metric, F, J):
    """J^T G(F) J: the metric pulled back through chart points F (..., 1+n)
    and their Jacobian J (..., 1+n, 1+n)."""
    return np.einsum("...ai,...ab,...bj->...ij", J, metric.matrix(F), J)


# target frame pairing matrix: <E_i, E_j>
def frame_pairing_target(n):
    P = np.zeros((n + 1, n + 1))
    P[0, 1] = P[1, 0] = 2.0
    for a in range(2, n + 1):
        P[a, a] = 1.0
    return P


class PseudoFrame:
    """Parallel frame samples E_k(s_i) with Hermite interpolation."""

    def __init__(self, geodesic: NullGeodesic, E, Edot):
        self.geodesic = geodesic
        self.E = E          # (nsamp, n+1 frame index, n+1 components)
        self.Edot = Edot
        self.n = E.shape[1] - 1

    def at(self, s):
        geo = self.geodesic
        idx, h, u = geo._locate(np.atleast_1d(np.asarray(s, dtype=float)))
        out = geo._hermite(u, h, self.E[idx], self.E[idx + 1],
                           self.Edot[idx], self.Edot[idx + 1])
        if np.isscalar(s) or np.asarray(s).ndim == 0:
            return out[0]
        return out

    def pairing_defect(self):
        """Sup over samples of |<E_i,E_j> - target|."""
        G = self.geodesic.metric.matrix(self.geodesic.x)
        M = np.einsum("sia,sab,sjb->sij", self.E, G, self.E)
        return float(np.max(np.abs(M - frame_pairing_target(self.n))))


def build_frame(geodesic: NullGeodesic) -> PseudoFrame:
    """Initial frame by the lightlike-decomposition recipe, then parallel
    transport with RK4 along the sampled geodesic.

    With A[j, k] = Gamma^k(gammadot, e_j), the transport is
    dE/ds = -E A.  The curve, its velocity and A do not depend on the frame,
    so each is evaluated in one batched call: at the stage parameters of
    the RK4 span (`_rk4_stages`) for the transport, and at the geodesic
    samples for Edot.  Each stage and sample forms A as a single point
    would.
    """
    metric = geodesic.metric
    n = metric.n
    x0 = geodesic.x[0]
    v0 = geodesic.xdot[0]
    c0 = v0[0]
    if abs(c0) < 1e-12:
        raise FermiError("geodesic not future-parametrizable")
    # e0 = c0 * d_t + e0'; beta = -<d_t, d_t>
    G = metric.matrix(x0)
    beta = -G[0, 0]
    e0 = v0.copy()
    e0p = np.concatenate([[0.0], v0[1:]])
    dt_vec = np.zeros(n + 1)
    dt_vec[0] = 1.0
    e1 = (1.0 / (beta * c0 * c0)) * (-c0 * dt_vec + e0p)

    def ip(a, b):
        return float(a @ G @ b)

    # Gram-Schmidt on the gbar-orthocomplement of span(e0, e1)
    frame = [e0, e1]
    spat = []
    cands = [np.eye(n + 1)[j] for j in range(1, n + 1)]
    for w in cands:
        w = w - 0.5 * ip(w, e1) * e0 - 0.5 * ip(w, e0) * e1
        for u in spat:
            w = w - ip(w, u) * u
        nrm2 = ip(w, w)
        if nrm2 > 1e-12:
            spat.append(w / np.sqrt(nrm2))
        if len(spat) == n - 1:
            break
    if len(spat) != n - 1:
        raise FermiError("failed to complete spacelike frame")
    frame.extend(spat)
    E0 = np.array(frame)

    # the basis vectors e_j as fields on a leading axis of `christoffel`
    basis = np.eye(n + 1)[:, None, :]

    def transport_matrices(x, v):
        return np.moveaxis(metric.christoffel(x, v, basis), 0, -2)

    stages = _rk4_stages(geodesic.s, 0)
    A = transport_matrices(geodesic.point(stages.params),
                           geodesic.velocity(stages.params))
    E = _rk4_span(lambda j, Ej: -Ej @ A[j], stages, E0)
    Edot = -E @ transport_matrices(geodesic.x, geodesic.xdot)
    return PseudoFrame(geodesic, E, Edot)


class FermiChart:
    """Exponential-map chart (s, z') -> spacetime around a null geodesic."""

    def __init__(self, geodesic: NullGeodesic, delta_prime=None,
                 exp_steps=16):
        self.geodesic = geodesic
        self.metric = geodesic.metric
        self.n = self.metric.n
        self.frame = build_frame(geodesic)
        length = geodesic.s[-1] - geodesic.s[0]
        self.delta_prime = delta_prime if delta_prime is not None else 0.15 * length
        self.exp_steps = exp_steps
        self._flat = is_flat(self.metric)

    def _batch(self, s, zprime):
        """(s with at least one axis, zprime shaped (*s.shape, n), whether
        s was a scalar)."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        zprime = np.asarray(zprime, dtype=float).reshape(s.shape + (self.n,))
        return s, zprime, scalar

    def _jacobi_start(self, s, zprime):
        """Initial positions and velocities, each (n+2, ..., 1+n), of the
        exponential map and its Jacobi fields: the geodesic first, then the
        s-field, then one field per z'_k.

        The s-field starts at the s-derivatives of the curve and frame
        blends, (gammadot, z'.Edot); the z'_k field starts at (0, E_k).
        """
        geo, fr = self.geodesic, self.frame
        idx, h, u = geo._locate(s)
        blends = []
        for f, d in ((geo.x, geo.xdot), (fr.E, fr.Edot)):
            args = (u, h, f[idx], f[idx + 1], d[idx], d[idx + 1])
            blends += [geo._hermite(*args), geo._hermite_ds(*args)]
        base, dbase, E, dE = blends
        x0 = np.zeros((self.n + 2,) + base.shape)
        x0[0], x0[1] = base, dbase
        v0 = np.empty_like(x0)
        v0[0] = np.einsum("...k,...kc->...c", zprime, E[..., 1:, :])
        v0[1] = np.einsum("...k,...kc->...c", zprime, dE[..., 1:, :])
        v0[2:] = np.moveaxis(E[..., 1:, :], -2, 0)
        return x0, v0

    def forward(self, s, zprime):
        """F(s, z'); batched over leading axes of s (...,) and zprime (..., n)."""
        s, zprime, scalar = self._batch(s, zprime)
        base = self.geodesic.point(s)
        E = self.frame.at(s)           # (..., n+1, n+1)
        v = np.einsum("...k,...kc->...c", zprime, E[..., 1:, :])
        if self._flat:
            out = base + v
        else:
            out, _ = _rk4_geodesic(self.metric.geodesic_acceleration, base, v,
                                   1.0, self.exp_steps)
        if not np.all(np.isfinite(out)):
            raise FermiError("exponential map left the metric domain")
        return out[0] if scalar else out

    def jacobian(self, s, zprime):
        """(F(s, z'), dF/d(s, z')), batched like `forward`; the Jacobian is
        (..., 1+n, 1+n) with J[..., a, i] = dF^a / d(chart coordinate i).

        The columns are Jacobi fields (`_jacobi_start`) carried through the
        same RK4 steps that map the points (`_jacobi_spray`).  On flat
        metrics the exponential map is x + v, so J = [gammadot + z'.Edot,
        E_1 .. E_n] in closed form.
        """
        s, zprime, scalar = self._batch(s, zprime)
        x0, v0 = self._jacobi_start(s, zprime)
        if self._flat:
            X = x0 + v0
        else:
            X, _ = _rk4_geodesic(_jacobi_spray(self.metric), x0, v0,
                                 1.0, self.exp_steps)
        if not np.all(np.isfinite(X)):
            raise FermiError("exponential map left the metric domain")
        F, J = X[0], np.moveaxis(X[1:], 0, -1)
        return (F[0], J[0]) if scalar else (F, J)

    def inverse(self, p):
        """(s, z') of one point by `inverse_many`; raises FermiError outside
        the tube."""
        s, z, inside = self.inverse_many(np.asarray(p, dtype=float)[None])
        if not inside[0]:
            raise FermiError("point outside Fermi tube")
        return float(s[0]), z[0]

    def _seed(self, pts):
        """Parameter of the nearest geodesic sample to each point (m, 1+n).

        The distances are taken against blocks of `_SEED_BLOCK` samples, so
        memory stays O(m) rather than O(m samples); a later block wins only
        on a strictly smaller distance, which keeps the first minimum as a
        dense `argmin` does.
        """
        x, block = self.geodesic.x, _SEED_BLOCK
        best = np.full(len(pts), np.inf)
        idx = np.zeros(len(pts), dtype=int)
        for i in range(0, len(x), block):
            d2 = np.sum((x[None, i:i + block] - pts[:, None]) ** 2, axis=-1)
            j = np.argmin(d2, axis=1)
            dj = d2[np.arange(len(pts)), j]
            closer = dj < best
            best[closer] = dj[closer]
            idx[closer] = i + j[closer]
        return self.geodesic.s[idx].astype(float)

    def inverse_many(self, pts):
        """Vectorized Newton inversion of the forward map, (m, 1+n) points.

        Returns (s, z, inside) where points that diverge or land outside the
        tube radius are flagged inside=False (their s, z entries are not
        meaningful); never raises.  Each step makes one `jacobian` call on the
        unconverged points, which gives the residual and the Newton matrix.
        """
        pts = np.asarray(pts, dtype=float)
        m = pts.shape[0]
        s = self._seed(pts)
        z = np.zeros((m, self.n))
        alive = np.ones(m, dtype=bool)
        converged = np.zeros(m, dtype=bool)
        for _ in range(_NEWTON_MAXITER):
            act = alive & ~converged
            if not act.any():
                break
            sa, za = s[act], z[act]
            F, J = self.jacobian(sa, za)
            r = F - pts[act]
            done = np.max(np.abs(r), axis=-1) < _NEWTON_TOL
            idx = np.flatnonzero(act)
            converged[idx[done]] = True
            if done.all():
                continue
            sa, za, r, J = sa[~done], za[~done], r[~done], J[~done]
            idx = idx[~done]
            try:
                step = np.linalg.solve(J, r[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = np.einsum("mij,mj->mi", np.linalg.pinv(J), r)
            sa = sa - step[:, 0]
            za = za - step[:, 1:]
            bad = (~np.isfinite(sa)) | (np.linalg.norm(za, axis=-1)
                                        > 4 * self.delta_prime)
            alive[idx[bad]] = False
            keep = ~bad
            s[idx[keep]] = sa[keep]
            z[idx[keep]] = za[keep]
        inside = (converged & alive
                  & (np.linalg.norm(z, axis=-1) < self.delta_prime))
        return s, z, inside

    def pullback_metric(self, s, zprime):
        """Chart-coordinate metric gbar_chart = J^T G(F) J, batched."""
        return chart_metric(self.metric, *self.jacobian(s, zprime))

    def axis_defects(self, nsamp=9):
        """(metric defect, first-derivative defect) on the axis.

        The first derivatives are central differences of step
        max(delta'/64, 1e-4) in every chart direction; the metric at all
        nsamp (3 + 2n) points is one batched `pullback_metric` call.
        """
        a, b = self.geodesic.s_range
        ss = np.linspace(a, b, nsamp)
        h = max(self.delta_prime / 64.0, 1e-4)
        n = self.n
        # per sample: the axis point, then each +- pair of shifted points
        s = np.repeat(ss[:, None], 3 + 2 * n, axis=1)
        s[:, 1], s[:, 2] = ss + h, ss - h
        z = np.zeros((nsamp, 3 + 2 * n, n))
        for k in range(n):
            z[:, 3 + 2 * k, k], z[:, 4 + 2 * k, k] = h, -h
        g = self.pullback_metric(s, z)
        # g(d_s, d_z1) = <E0, E1> = 2 on the axis; spatial block identity
        mdef = float(np.max(np.abs(g[:, 0] - frame_pairing_target(n))))
        ddef = float(np.max(np.abs(g[:, 1::2] - g[:, 2::2]))) / (2 * h)
        return mdef, ddef
