"""Geometric-optics wave packets on Minkowski space.

The packet is u_tau = e^{i tau xi.x} sum_k a_k tau^{-k} with a light-like
covector xi and amplitudes supported in a hypercube tube around the flow of
T_xi = -xi_0 d_t + xi' . d_x'.  Amplitudes are built on a flow-adapted grid
(s, w0, w_transverse) where T_xi = d_s exactly and the wave operator becomes
(2/|xi_0|) d_s d_w0 + Lap_w, so the transport recursion

    a_k(s) = (1/2i) int_0^s ((box + V) a_{k-1}) ds~

is a cumulative quadrature plus transverse stencils — no oscillatory
finite differences anywhere.
"""

from __future__ import annotations

import numpy as np

from .solver import _shift


class GOError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# cutoff profiles


def chi_bump(u):
    """exp(1 - 1/(1-u^2)) on (-1,1); equals 1 at 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = np.abs(u) < 1
    out[m] = np.exp(1.0 - 1.0 / (1.0 - u[m] ** 2))
    return out


def smoothstep7(t):
    """C^3 ramp: 0 for t <= 0, 1 for t >= 1 (degree-7 polynomial between)."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**4 * (35 - 84 * t + 70 * t**2 - 20 * t**3)


def chi_indicator(m):
    """Mollified-indicator family: C^3 smoothstep shoulder of width ~1/m.

    chi^(m) -> 1_(-1,1) pointwise as m -> infinity; chi^(m)(0)=1 for m >= 1.
    """
    def chi(u):
        return smoothstep7((1.0 - np.abs(np.asarray(u, dtype=float))) * m + 0.5)
    return chi


def resolve_chi(spec):
    """The cutoff profile named "bump" or ("indicator", m)."""
    if spec == "bump":
        return chi_bump
    if isinstance(spec, tuple) and spec[0] == "indicator":
        return chi_indicator(spec[1])
    raise GOError(f"unknown cutoff profile {spec!r}")


def cumint(s, f, i0):
    """int_{s[i0]}^{s} f ds~ along the first axis by cumulative Simpson
    (complex ok)."""
    from scipy.integrate import cumulative_simpson
    out = (cumulative_simpson(f.real, x=s, axis=0, initial=0.0)
           + 1j * cumulative_simpson(f.imag, x=s, axis=0, initial=0.0))
    return out - np.take(out, [i0], axis=0)


# ---------------------------------------------------------------------------
# stencils (6th order, zero extension — amplitudes vanish near grid edges)


_D1_6 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2_6 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_OFF_6 = np.arange(-3, 4)


def _deriv(u, h, axis, order):
    coef = _D1_6 if order == 1 else _D2_6
    out = np.zeros_like(u)
    for c, off in zip(coef, _OFF_6):
        if c == 0.0:
            continue
        out += c * _shift(u, off, axis)
    return out / h**order


# ---------------------------------------------------------------------------
# packet


def flow_frame(xi):
    """Rows L = (s, w0, w_1..w_{n-1}) of the flow coordinates (x - q) @ L.T
    of a light-like covector xi; the w rows are orthonormal and orthogonal
    to xi' (Gram-Schmidt against the unit axes)."""
    xi = np.asarray(xi, dtype=float)
    xi0, xip = xi[0], xi[1:]
    n = len(xip)
    basis = [xip / np.linalg.norm(xip)]
    for cand in np.eye(n):
        w = cand - sum((cand @ b) * b for b in basis)
        nrm = np.linalg.norm(w)
        if nrm > 1e-8:
            basis.append(w / nrm)
        if len(basis) == n:
            break
    L = np.zeros((n + 1, n + 1))
    L[0] = np.concatenate([[-xi0], xip]) / (2 * xi0 * xi0)
    L[1] = xi / abs(xi0)
    for j, om in enumerate(basis[1:]):
        L[2 + j, 1:] = om
    return L


class GOPacket:
    """Hypercube-supported geometric-optics packet of depth N."""

    def __init__(self, n, q, xi, delta, V=None, N=2, chi="bump",
                 s_range=(-1.0, 1.0), ns=601, nw=49):
        self.n = int(n)
        self.q = np.asarray(q, dtype=float)
        self.xi = np.asarray(xi, dtype=float)
        if abs(self.xi[0] ** 2 - np.sum(self.xi[1:] ** 2)) > 1e-12 * max(self.xi @ self.xi, 1e-30):
            raise GOError("covector is not light-like")
        if abs(self.xi[0]) < 1e-14:
            raise GOError("xi_0 must be nonzero")
        self.delta = float(delta)
        self.N = int(N)
        self.chi = resolve_chi(chi)

        self._build_frames()
        self._build_grid(s_range, ns, nw)
        self._build_amplitudes(V)

    # -- coordinates ------------------------------------------------------

    def _build_frames(self):
        self.L = L = flow_frame(self.xi)
        self.Linv = np.linalg.inv(L)
        # wave operator in flow coordinates: M = L eta^{-1} L^T
        eta_inv = np.diag([-1.0] + [1.0] * self.n)
        M = L @ eta_inv @ L.T
        self.c_mixed = M[0, 1]          # = 1/|xi0|
        # sanity: the flow-coordinate operator must be 2c d_s d_w0 + Lap_w
        check = M.copy()
        check[0, 1] = check[1, 0] = 0.0
        check[2:, 2:] -= np.eye(self.n - 1)
        if np.max(np.abs(check)) > 1e-10:
            raise GOError("flow-coordinate reduction failed (non-null covector?)")

    def to_flow(self, x):
        """Map spacetime points (..., 1+n) to flow coordinates (s, w0, w...)."""
        x = np.asarray(x, dtype=float)
        return (x - self.q) @ self.L.T

    def from_flow(self, y):
        y = np.asarray(y, dtype=float)
        return y @ self.Linv.T + self.q

    def flow_point(self, s):
        """The flow line through q: s maps to q + s * (flow direction)."""
        return np.asarray(s)[..., None] * self.Linv[:, 0] + self.q

    # -- amplitude grid ---------------------------------------------------

    def _build_grid(self, s_range, ns, nw):
        ext = 1.25 * self.delta
        self.s_grid = np.linspace(s_range[0], s_range[1], ns)
        self.w_grid = np.linspace(-ext, ext, nw)
        self._axes = (self.s_grid,) + (self.w_grid,) * self.n
        self.hs = self.s_grid[1] - self.s_grid[0]
        self.hw = self.w_grid[1] - self.w_grid[0]
        # index of s=0 (anchor hyperplane Sigma_{q,xi}); require it on-grid
        i0 = np.argmin(np.abs(self.s_grid))
        if abs(self.s_grid[i0]) > 1e-9:
            raise GOError("s-grid must contain s=0 (vanishing data hyperplane)")
        self.i_s0 = int(i0)

    def _build_amplitudes(self, V):
        from scipy.interpolate import RegularGridInterpolator
        shape = (len(self.s_grid),) + (len(self.w_grid),) * self.n
        W = np.meshgrid(*self._axes[1:], indexing="ij")
        a0_slice = np.ones(W[0].shape)
        for wj in W:
            a0_slice = a0_slice * self.chi(wj / self.delta)
        a0 = np.broadcast_to(a0_slice, shape).copy()
        self.amps = [a0.astype(complex)]

        if self.N > 0:
            Vgrid = self._potential_grid(V)
            for k in range(1, self.N + 1):
                self.amps.append(self._transport(self.amps[-1], Vgrid))

        self._interps = [
            RegularGridInterpolator(self._axes, a, bounds_error=False,
                                    fill_value=0.0)
            for a in self.amps
        ]

    def _grid_points(self):
        mesh = np.meshgrid(*self._axes, indexing="ij")
        y = np.stack(mesh, axis=-1)
        return self.from_flow(y)

    def _potential_grid(self, V):
        """V on the amplitude grid's points; 0.0 for no potential."""
        return 0.0 if V is None else np.asarray(V(self._grid_points()))

    def _transport(self, a_prev, Vgrid):
        """a_k from a_{k-1} per the integrated transport recursion."""
        # mixed term integrates exactly: int d_s d_w0 a = d_w0 a(s) - d_w0 a(0)
        dw0 = _deriv(a_prev, self.hw, 1, order=1)
        mixed = 2.0 * self.c_mixed * (dw0 - dw0[self.i_s0])
        lap = np.zeros_like(a_prev)
        for ax in range(2, self.n + 1):
            lap += _deriv(a_prev, self.hw, ax, order=2)
        rest = cumint(self.s_grid, lap + Vgrid * a_prev, self.i_s0)
        return (mixed + rest) / 2j

    # -- evaluation -------------------------------------------------------

    def amplitude(self, k, x):
        """a_k at spacetime points x (..., 1+n); scalar in, scalar out."""
        x = np.asarray(x, dtype=float)
        out = self._interps[k](self.to_flow(x))
        return out[0] if x.ndim == 1 else out

    def amplitude_sum(self, tau, x):
        """sum_k a_k / tau^k at spacetime points x (..., 1+n).

        The interpolators run only on the points whose flow coordinates lie
        in the amplitude grid's box (`_axes`, bounds included, as the
        interpolators test them); outside it they return their fill value,
        so the sum there is 0j, which the output already holds.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.amplitude_sum(tau, x[None])[0]
        y = self.to_flow(x)
        outside = np.zeros(y.shape[:-1], dtype=bool)
        for i, ax in enumerate(self._axes):
            outside |= (y[..., i] < ax[0]) | (y[..., i] > ax[-1])
        inside = ~outside
        out = np.zeros(y.shape[:-1], dtype=complex)
        if np.any(inside):
            y = y[inside]
            total = 0.0
            for k, interp in enumerate(self._interps):
                total = total + interp(y) * tau ** (-k)
            out[inside] = total
        return out

    def phase(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.xi

    def eval(self, tau, x):
        """The full ansatz e^{i tau xi.x} sum_k a_k / tau^k."""
        return np.exp(1j * tau * self.phase(x)) * self.amplitude_sum(tau, x)

    # -- diagnostics ------------------------------------------------------

    def transport_defect_grids(self, V=None):
        """Per-level defect fields d_k = -2i d_s a_k + (box + V) a_{k-1}.

        d_0 = -2i d_s a_0 (zero in exact arithmetic).  Derivatives by the
        build stencils on the amplitude grid; used for honest residuals.
        """
        return self._defects(self._potential_grid(V))

    def _defects(self, Vgrid):
        """`transport_defect_grids` with V given on the amplitude grid."""
        defects = [-2j * _deriv(self.amps[0], self.hs, 0, order=1)]
        for k in range(1, self.N + 1):
            ds = _deriv(self.amps[k], self.hs, 0, order=1)
            box = self._box_amp(self.amps[k - 1])
            defects.append(-2j * ds + box + Vgrid * self.amps[k - 1])
        return defects

    def _box_amp(self, a):
        dsw0 = _deriv(_deriv(a, self.hs, 0, order=1), self.hw, 1, order=1)
        out = 2.0 * self.c_mixed * dsw0
        for ax in range(2, self.n + 1):
            out += _deriv(a, self.hw, ax, order=2)
        return out

    def residual_sup(self, tau, V=None):
        """sup_grid |(box + V) u_tau| via the conjugation identity."""
        cached = getattr(self, "_res_cache", None)
        if cached is None or cached[0] is not V:
            Vgrid = self._potential_grid(V)
            defects = self._defects(Vgrid)
            boxN = self._box_amp(self.amps[self.N]) + Vgrid * self.amps[self.N]
            cached = (V, defects, boxN)
            self._res_cache = cached
        _, defects, boxN = cached
        total = tau * defects[0]
        for k in range(1, self.N + 1):
            total = total + tau ** (1 - k) * defects[k]
        total = total + tau ** (-self.N) * boxN
        # trim the stencil-width margin where zero-fill pollutes derivatives
        sl = (slice(4, -4),) * total.ndim
        return float(np.max(np.abs(total[sl])))


def loglog_fit(tau_list, values):
    """Least-squares line through (log tau, log value): (slope, RMS fit
    residual)."""
    logt = np.log(np.asarray(tau_list, dtype=float))
    logv = np.log(np.asarray(values))
    A = np.stack([logt, np.ones_like(logt)], axis=1)
    coef, *_ = np.linalg.lstsq(A, logv, rcond=None)
    return float(coef[0]), float(np.sqrt(np.mean((A @ coef - logv) ** 2)))


def residual_scaling(packet: GOPacket, V, tau_list):
    """Log-log slope fit of sup |(box+V)u_tau| over tau; returns (slope,
    fit residual, sup values)."""
    sups = np.array([packet.residual_sup(t, V) for t in tau_list])
    return (*loglog_fit(tau_list, sups), sups)
