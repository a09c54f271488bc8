"""Fermi coordinates along a null geodesic.

A pseudo-orthonormal frame (E0 = gammadot, <E0,E1> = 2, E2..En orthonormal
spacelike, all other pairings zero) is parallel-transported along the curve;
the chart is F(s, z') = exp_{gamma(s)}(sum_k z^k E_k(s)) with a Newton inverse.
On the axis the pulled-back metric is 2 ds dz^1 + sum (dz^alpha)^2 with
vanishing first derivatives.
"""

from __future__ import annotations

import numpy as np

from .geometry import Metric, NullGeodesic, _rk4_geodesic, is_flat


class FermiError(RuntimeError):
    pass


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
        u = u[..., None, None]
        h = h[..., None, None]
        f0, f1 = self.E[idx], self.E[idx + 1]
        d0, d1 = self.Edot[idx], self.Edot[idx + 1]
        h00 = 2 * u**3 - 3 * u**2 + 1
        h10 = u**3 - 2 * u**2 + u
        h01 = -2 * u**3 + 3 * u**2
        h11 = u**3 - u**2
        out = h00 * f0 + h10 * h * d0 + h01 * f1 + h11 * h * d1
        if np.isscalar(s) or np.asarray(s).ndim == 0:
            return out[0]
        return out

    def pairing_defect(self):
        """Sup over samples of |<E_i,E_j> - target|."""
        metric = self.geodesic.metric
        P = frame_pairing_target(self.n)
        worst = 0.0
        for x, E in zip(self.geodesic.x, self.E):
            G = metric.matrix(x)
            M = E @ G @ E.T
            worst = max(worst, float(np.max(np.abs(M - P))))
        return worst


def build_frame(geodesic: NullGeodesic, metric: Metric = None) -> PseudoFrame:
    """Initial frame by the lightlike-decomposition recipe, then parallel
    transport with RK4 along the sampled geodesic."""
    metric = metric or geodesic.metric
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

    # parallel transport dE/ds = -Gamma(gammadot, E) along the curve
    s = geodesic.s
    E = np.empty((len(s), n + 1, n + 1))
    E[0] = E0
    for i in range(len(s) - 1):
        h = s[i + 1] - s[i]
        E[i + 1] = _transport_rk4(geodesic, s[i], E[i], h)
    Edot = np.empty_like(E)
    for i in range(len(s)):
        gam = metric.christoffel(geodesic.x[i])
        Edot[i] = -np.einsum("kij,i,mj->mk", gam, geodesic.xdot[i], E[i])
    return PseudoFrame(geodesic, E, Edot)


def _transport_rk4(geodesic, s, E, h):
    metric = geodesic.metric

    def rhs(si, Ei):
        x = geodesic.point(np.array([si]))[0]
        v = geodesic.velocity(np.array([si]))[0]
        gam = metric.christoffel(x)
        return -np.einsum("kij,i,mj->mk", gam, v, Ei)

    k1 = rhs(s, E)
    k2 = rhs(s + 0.5 * h, E + 0.5 * h * k1)
    k3 = rhs(s + 0.5 * h, E + 0.5 * h * k2)
    k4 = rhs(s + h, E + h * k3)
    return E + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


class FermiChart:
    """Exponential-map chart (s, z') -> spacetime around a null geodesic."""

    def __init__(self, geodesic: NullGeodesic, frame: PseudoFrame = None,
                 delta_prime=None, exp_steps=16):
        self.geodesic = geodesic
        self.metric = geodesic.metric
        self.n = self.metric.n
        self.frame = frame or build_frame(geodesic)
        length = geodesic.s[-1] - geodesic.s[0]
        self.delta_prime = delta_prime if delta_prime is not None else 0.15 * length
        self.exp_steps = exp_steps
        self._flat = is_flat(self.metric)

    def forward(self, s, zprime):
        """F(s, z'); batched over leading axes of s (...,) and zprime (..., n)."""
        s = np.asarray(s, dtype=float)
        zprime = np.asarray(zprime, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        zprime = zprime.reshape(s.shape + (self.n,))
        base = self.geodesic.point(s)
        E = self.frame.at(s)           # (..., n+1, n+1)
        v = np.einsum("...k,...kc->...c", zprime, E[..., 1:, :])
        if self._flat:
            out = base + v
        else:
            out, _ = _rk4_geodesic(self.metric, base, v, 1.0, self.exp_steps)
        if not np.all(np.isfinite(out)):
            raise FermiError("exponential map left the metric domain")
        return out[0] if scalar else out

    def inverse(self, p, tol=1e-9, maxiter=25):
        """Newton inversion of the forward map; raises outside the tube."""
        p = np.asarray(p, dtype=float)
        # seed from the nearest geodesic sample + frame projection
        d2 = np.sum((self.geodesic.x - p) ** 2, axis=-1)
        i0 = int(np.argmin(d2))
        s = float(self.geodesic.s[i0])
        z = np.zeros(self.n)
        for it in range(maxiter):
            F = self.forward(s, z)
            r = F - p
            if np.max(np.abs(r)) < tol:
                break
            J = self._jacobian(s, z)
            try:
                step = np.linalg.solve(J, r)
            except np.linalg.LinAlgError:
                raise FermiError("point outside Fermi tube") from None
            s -= step[0]
            z -= step[1:]
            if not np.isfinite(s) or np.linalg.norm(z) > 4 * self.delta_prime:
                raise FermiError("point outside Fermi tube")
        else:
            raise FermiError("point outside Fermi tube")
        if np.linalg.norm(z) >= self.delta_prime:
            raise FermiError("point outside Fermi tube")
        return s, z

    def inverse_many(self, pts, tol=1e-9, maxiter=30):
        """Vectorized Newton inversion.

        Returns (s, z, inside) where points that diverge or land outside the
        tube radius are flagged inside=False (their s, z entries are not
        meaningful).  Unlike `inverse`, never raises.
        """
        pts = np.asarray(pts, dtype=float)
        m = pts.shape[0]
        # seed each point from the nearest geodesic sample
        d2 = np.sum((self.geodesic.x[None, :, :] - pts[:, None, :]) ** 2, axis=-1)
        s = self.geodesic.s[np.argmin(d2, axis=1)].astype(float)
        z = np.zeros((m, self.n))
        alive = np.ones(m, dtype=bool)
        converged = np.zeros(m, dtype=bool)
        hj = 1e-6
        for _ in range(maxiter):
            act = alive & ~converged
            if not act.any():
                break
            sa, za, pa = s[act], z[act], pts[act]
            r = self.forward(sa, za) - pa
            done = np.max(np.abs(r), axis=-1) < tol
            idx = np.flatnonzero(act)
            converged[idx[done]] = True
            if done.all():
                continue
            sa, za, pa, r = sa[~done], za[~done], pa[~done], r[~done]
            idx = idx[~done]
            J = np.empty((len(sa), self.n + 1, self.n + 1))
            J[..., 0] = (self.forward(sa + hj, za)
                         - self.forward(sa - hj, za)) / (2 * hj)
            for k in range(self.n):
                e = np.zeros(self.n)
                e[k] = hj
                J[..., 1 + k] = (self.forward(sa, za + e)
                                 - self.forward(sa, za - e)) / (2 * hj)
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

    def _jacobian(self, s, z, h=1e-6):
        J = np.empty((self.n + 1, self.n + 1))
        J[:, 0] = (self.forward(s + h, z) - self.forward(s - h, z)) / (2 * h)
        for k in range(self.n):
            e = np.zeros(self.n)
            e[k] = h
            J[:, 1 + k] = (self.forward(s, z + e) - self.forward(s, z - e)) / (2 * h)
        return J

    def pullback_metric(self, s, zprime, h=None):
        """Chart-coordinate metric gbar_chart = J^T G(F) J, batched."""
        s = np.asarray(s, dtype=float)
        zprime = np.asarray(zprime, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        zprime = zprime.reshape(s.shape + (self.n,))
        if h is None:
            h = max(self.delta_prime / 64.0, 1e-4)
        dim = self.n + 1
        J = np.empty(s.shape + (dim, dim))
        J[..., 0] = (self.forward(s + h, zprime) - self.forward(s - h, zprime)) / (2 * h)
        for k in range(self.n):
            e = np.zeros(self.n)
            e[k] = h
            J[..., 1 + k] = (self.forward(s, zprime + e)
                             - self.forward(s, zprime - e)) / (2 * h)
        # J[..., a, i] = dF^a / d(chart direction i)
        G = self.metric.matrix(self.forward(s, zprime))
        gchart = np.einsum("...ai,...ab,...bj->...ij", J, G, J)
        return gchart[0] if scalar else gchart

    def axis_metric_target(self):
        # g(d_s, d_z1) = <E0, E1> = 2 on the axis; spatial block identity
        return frame_pairing_target(self.n)

    def axis_defects(self, nsamp=9, h=None):
        """(metric defect, first-derivative defect) on the axis."""
        a, b = self.geodesic.s_range
        ss = np.linspace(a, b, nsamp)
        if h is None:
            h = max(self.delta_prime / 64.0, 1e-4)
        target = self.axis_metric_target()
        mdef = 0.0
        ddef = 0.0
        for s in ss:
            g0 = self.pullback_metric(s, np.zeros(self.n), h=h)
            mdef = max(mdef, float(np.max(np.abs(g0 - target))))
            # chart-direction first derivatives by central differences
            gp = self.pullback_metric(s + h, np.zeros(self.n), h=h)
            gm = self.pullback_metric(s - h, np.zeros(self.n), h=h)
            ddef = max(ddef, float(np.max(np.abs(gp - gm))) / (2 * h))
            for k in range(self.n):
                e = np.zeros(self.n)
                e[k] = h
                gp = self.pullback_metric(s, e, h=h)
                gm = self.pullback_metric(s, -e, h=h)
                ddef = max(ddef, float(np.max(np.abs(gp - gm))) / (2 * h))
        return mdef, ddef

    def dump_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            dim = self.n + 1
            header = (["s"] + [f"gamma{i}" for i in range(dim)]
                      + [f"E{k}_{i}" for k in range(dim) for i in range(dim)])
            w.writerow(header)
            for s, x, E in zip(self.geodesic.s, self.geodesic.x, self.frame.E):
                w.writerow([s, *x, *E.reshape(-1)])


def build_chart(metric, p, v, s_range, delta_prime=None, **kw):
    from .geometry import integrate_null_geodesic
    geod = integrate_null_geodesic(metric, p, v, s_range, **kw)
    chart = FermiChart(geod, delta_prime=delta_prime)
    # auto-halve the tube radius while the axis normal form fails
    for _ in range(3):
        mdef, ddef = chart.axis_defects(nsamp=5)
        if mdef < 1e-6 and ddef < 1e-4:
            break
        chart.delta_prime *= 0.5
    return chart
