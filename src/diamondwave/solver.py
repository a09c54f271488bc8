"""Finite-difference solver for box u + V u + u^3 = f on Minkowski space.

Leapfrog in time (second order) with a 4th-order spatial Laplacian.  A step
is one fused update (`_Leapfrog`): dt^2 is folded into the stencil weights
and the like-weighted neighbours are summed from the level itself, so it
differs from the plain step (2u - u-) + dt^2 (lap u - V u + f - u^3) by
rounding only.  Only flat backgrounds are supported: a curved metric is
rejected with SolverError (curved backgrounds are handled by Gaussian beams,
without a PDE march).  The discrete wave operator (`apply_wave_operator`)
uses `laplacian_4th`, the zero-extension formula of the same stencil, which
the fused step equals up to rounding; so applying it to a computed solution
returns the source to rounding error.  Boundaries are
handled by padding the domain so that the light cone of the source never
reaches the edge (free space up to machine precision inside the causal
diamond).

One loop (`_march_fields`) marches every field: one for `solve_forward`
and `solve_backward`, four for the eps1 eps2 eps3 coefficient
(`solve_cross_coefficient`), sharing each potential slice.
"""

from __future__ import annotations

import struct

import numpy as np

from .exprs import ScalarField
from .geometry import is_flat


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# grid


def cfl_limit(h, n):
    """Largest time step the leapfrog accepts on spacing h in n dimensions:
    0.5 h / sqrt(n), with a relative slack of 1e-12 for rounding."""
    return 0.5 * h / np.sqrt(n) * (1 + 1e-12)


class Grid:
    """Uniform space-time grid: t_m = t0 + m*dt on [t0, t0+T], x_i = lo + j*h.

    The time origin t0 plays for time the part `lo` plays for space: a
    window grid over a late time slab keeps physical times, so packets,
    cutoffs and potentials are evaluated where they live.
    """

    def __init__(self, n, lo, shape, h, dt, T, t0=0.0):
        self.n = int(n)
        self.lo = np.asarray(lo, dtype=float)
        self.t0 = float(t0)
        self.shape = tuple(int(s) for s in shape)
        if len(self.shape) != self.n or len(self.lo) != self.n:
            raise SolverError("grid shape/origin rank mismatch")
        self.h = float(h)
        self.dt = float(dt)
        self.T = float(T)
        self.nt = int(round(self.T / self.dt)) + 1
        if abs((self.nt - 1) * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise SolverError("T is not an integer number of time steps")
        self._mesh = None

    @classmethod
    def for_ball(cls, n, radius, T, h, dt, pad=None):
        """Grid covering B(0, radius) plus finite-speed padding out to time T."""
        if pad is None:
            pad = T + 2 * h
        half = radius + pad
        m = int(np.ceil(half / h))
        lo = -m * h * np.ones(n)
        return cls(n, lo, (2 * m + 1,) * n, h, dt, T)

    def axis(self, i):
        return self.lo[i] + self.h * np.arange(self.shape[i])

    def time(self, m):
        """Time of slice m."""
        return self.t0 + m * self.dt

    def times(self):
        return self.t0 + self.dt * np.arange(self.nt)

    def meshgrid(self):
        """Spatial coordinate arrays, built once per grid and read-only."""
        if self._mesh is None:
            self._mesh = np.meshgrid(*[self.axis(i) for i in range(self.n)],
                                     indexing="ij")
            for X in self._mesh:
                X.flags.writeable = False
        return self._mesh

    def spacetime_slice(self, m):
        """Points (t_m, x') of slice m, shape (*shape, 1+n)."""
        X = self.meshgrid()
        out = np.empty(self.shape + (self.n + 1,))
        out[..., 0] = self.time(m)
        for i in range(self.n):
            out[..., 1 + i] = X[i]
        return out

    def check_cfl(self):
        limit = cfl_limit(self.h, self.n)
        if self.dt > limit:
            raise SolverError(
                f"CFL violated: dt={self.dt:g} > {limit:g}")

    def cell_volume(self):
        return self.h ** self.n

    def same_steps(self, other):
        """Same cells and time step: rank, shape, spatial origin, spacing
        and dt agree, whatever the time origins."""
        return (self.n == other.n and self.shape == other.shape
                and np.allclose(self.lo, other.lo)
                and abs(self.h - other.h) < 1e-14
                and abs(self.dt - other.dt) < 1e-14)

    def same_layout(self, other):
        return self.same_steps(other) and abs(self.t0 - other.t0) < 1e-14

    def embed(self, data):
        """`data` on this grid; a crop grid embeds it in its parent."""
        return data


def _box_shape(box):
    return tuple(s.stop - s.start for s in box)


def _embed(data, shape, box):
    """(nt, *box shape) data placed on box of (nt, *shape) zeros."""
    out = np.zeros(data.shape[:1] + tuple(shape), dtype=data.dtype)
    out[(slice(None),) + tuple(box)] = data
    return out


class CropGrid(Grid):
    """The cells of a spatial box (a tuple of slices) of a parent grid, on
    the parent's times.

    Its coordinates are the parent's own values, sliced, so anything
    evaluated on them (packets, cutoffs, potentials) equals its value on
    the parent bit for bit.
    """

    def __init__(self, parent, box):
        self.parent, self.box = parent, tuple(box)
        start = np.array([s.start for s in self.box])
        super().__init__(parent.n, parent.lo + parent.h * start,
                         _box_shape(self.box), parent.h, parent.dt,
                         parent.T, t0=parent.t0)

    def axis(self, i):
        return self.parent.axis(i)[self.box[i]]

    def embed(self, data):
        return self.parent.embed(_embed(data, self.parent.shape, self.box))


class GridField:
    """Time-sliced field on a Grid; array shape (nt, *grid.shape)."""

    def __init__(self, grid: Grid, data):
        self.grid = grid
        self.data = np.asarray(data)
        if self.data.shape != (grid.nt,) + grid.shape:
            raise SolverError(f"field shape {self.data.shape} does not match grid")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.nt,) + grid.shape))

    @classmethod
    def from_closure(cls, grid, func, dtype=float):
        """Sample a closure u(points) with points of shape (*shape, 1+n)."""
        data = np.empty((grid.nt,) + grid.shape, dtype=dtype)
        for m in range(grid.nt):
            data[m] = func(grid.spacetime_slice(m))
        return cls(grid, data)

    def dense(self):
        """The data on the uncropped grid, zero outside a crop."""
        return self.grid.embed(self.data)

    def sup_norm(self):
        return float(np.max(np.abs(self.data)))


# ---------------------------------------------------------------------------
# spatial operators


_LAP4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
_GHOST = 2      # ghost cells per side: the reach of the 4th-order stencil


class _PaddedLayout:
    """Zero-ghosted arrays for one grid shape, _GHOST cells per side.

    The band is the flat index range from the first to the last interior
    cell, and a stencil offset `off` along axis `ax` moves it by
    off * strides[ax].  Elementwise work on the band runs over one
    contiguous range; it also fills the ghost cells lying between interior
    rows, which `clear_ghosts` resets to zero.
    """

    def __init__(self, shape):
        self.padded = tuple(s + 2 * _GHOST for s in shape)
        self.strides = [int(np.prod(self.padded[ax + 1:]))
                        for ax in range(len(shape))]
        self.start = _GHOST * sum(self.strides)
        # an empty shape has an empty band
        self.stop = max(self.start, self.start + sum(
            (s - 1) * st for s, st in zip(shape, self.strides)) + 1)

    def zeros(self, dtype):
        return np.zeros(self.padded, dtype=dtype)

    @staticmethod
    def interior(P):
        return P[(slice(_GHOST, -_GHOST),) * P.ndim]

    def band(self, P, shift=0):
        return P.reshape(-1)[self.start + shift:self.stop + shift]

    @staticmethod
    def clear_ghosts(P):
        """Zero the ghost cells that band writes reach (axes 1..n-1)."""
        for ax in range(1, P.ndim):
            for side in (slice(None, _GHOST), slice(-_GHOST, None)):
                view = [slice(None)] * P.ndim
                view[ax] = side
                P[tuple(view)] = 0


def stencil_group_velocity(kh):
    """Group velocity of the 4th-order Laplacian's semi-discrete waves.

    The stencil turns k^2 into K^2 = (30 - 32 cos kh + 2 cos 2kh) / (12 h^2),
    so dw/dk = (32 sin kh - 4 sin 2kh) / (24 sqrt(K^2 h^2)); in the half
    angle c = cos(kh/2) this is c (4 - cos kh) / sqrt(3 (4 - c^2)), which is
    1 at kh = 0 and falls to 0.876 at kh = 1.56 (4 points per wavelength).
    """
    c = np.cos(0.5 * np.asarray(kh, dtype=float))
    return c * (4.0 - np.cos(kh)) / np.sqrt(3.0 * (4.0 - c * c))


def _shift(u, off, ax):
    """Shift with zero fill: result[i] = u[i+off]."""
    if off == 0:
        return u
    out = np.zeros_like(u)
    src = [slice(None)] * u.ndim
    dst = [slice(None)] * u.ndim
    if off > 0:
        src[ax] = slice(off, None)
        dst[ax] = slice(None, -off)
    else:
        src[ax] = slice(None, off)
        dst[ax] = slice(-off, None)
    out[tuple(dst)] = u[tuple(src)]
    return out


def laplacian_4th(u, h, n):
    """4th-order Laplacian with zero extension outside the array: the 5n
    stencil terms summed axis by axis, offset -2..2."""
    u = np.asarray(u)
    out = np.zeros_like(u)
    c = _LAP4 / (12.0 * h * h)
    for ax in range(n):
        for k, off in zip(c, (-2, -1, 0, 1, 2)):
            out += k * _shift(u, off, ax)
    return out


# ---------------------------------------------------------------------------
# sources


class SourceTerm:
    """Source f on a grid, stored on a spatial box (a tuple of slices of
    grid.shape) outside which it is zero: `field` has shape
    (nt, *box shape).  The default box is the whole grid."""

    def __init__(self, grid, field, box=None):
        self.grid = grid
        self.field = field
        self.box = (tuple(slice(0, s) for s in grid.shape) if box is None
                    else tuple(box))

    def dense(self):
        """The field on the whole grid, zero outside the box."""
        if self.field.shape[1:] == self.grid.shape:
            return self.field
        return _embed(self.field, self.grid.shape, self.box)

    @classmethod
    def from_closure(cls, grid, func):
        """Sample f(t, points) once per slice, points of shape (*shape, 1+n);
        a scalar value fills the slice."""
        return cls(grid, np.stack([
            np.broadcast_to(func(grid.time(m), grid.spacetime_slice(m)),
                            grid.shape) for m in range(grid.nt)]))

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros((grid.nt,) + grid.shape))

    def slice(self, m):
        return self.field[m]

    def scale(self):
        """max |f|; zero outside the box, so 0 on an empty one."""
        return float(np.max(np.abs(self.field), initial=0.0))

    def __mul__(self, c):
        return SourceTerm(self.grid, self.field * c, box=self.box)

    __rmul__ = __mul__

    def __add__(self, other):
        """The sum on the union of the two boxes.  Each term is added into
        zeros, so every cell holds the value of the whole-grid sum."""
        box = tuple(slice(min(a.start, b.start), max(a.stop, b.stop))
                    for a, b in zip(self.box, other.box))
        out = np.zeros(self.field.shape[:1] + _box_shape(box),
                       dtype=np.result_type(self.field, other.field))
        for term in (self, other):
            view = out[(slice(None),) + tuple(
                slice(a.start - u.start, a.stop - u.start)
                for a, u in zip(term.box, box))]
            np.add(view, term.field, out=view)
        return SourceTerm(self.grid, out, box=box)


def support_box(data):
    """Bounding box of the nonzero cells of (nt, *shape) data over all
    slices, widened by the stencil reach and clipped to the grid; empty
    when every cell is zero."""
    mask = np.any(data != 0, axis=0)
    box = []
    for ax, size in enumerate(mask.shape):
        rest = tuple(a for a in range(mask.ndim) if a != ax)
        idx = np.flatnonzero(np.any(mask, axis=rest))
        if idx.size == 0:
            return tuple(slice(0, 0) for _ in mask.shape)
        box.append(slice(max(int(idx[0]) - _GHOST, 0),
                         min(int(idx[-1]) + 1 + _GHOST, size)))
    return tuple(box)


# ---------------------------------------------------------------------------
# solver


def _as_potential_slices(V, grid):
    """Normalize V input (None | scalar | closure) to slice lookup."""
    if V is None:
        return lambda m: 0.0
    if np.isscalar(V):
        v = float(V)
        return lambda m: v
    if isinstance(V, ScalarField) and not V.time_dependent:
        # a static expression takes the same values on every slice
        v = np.asarray(V(grid.spacetime_slice(0)))
        v.flags.writeable = False
        return lambda m: v
    # closure on space-time points, which may depend on t: each reader of
    # the slices (a march, the wave operator) reads each slice once
    return lambda m: np.asarray(V(grid.spacetime_slice(m)))


def _window_offset(window, grid, what):
    """Steps from the march grid's first slice to that of `window`, which
    must be a time window of it: same spatial layout and dt, origin a whole
    number of steps from the grid's."""
    offset = (window.t0 - grid.t0) / grid.dt
    k = int(round(offset))
    if not (window.same_steps(grid) and abs(offset - k) < 1e-9):
        raise SolverError(f"{what} is not a time window of the march grid")
    return k


def _source_slices(f, grid):
    """Slice reader m -> f at the time of the march grid's slice m.

    The source may live on a time window of the march grid
    (`_window_offset`): it is read at the slice with the same time, and is
    None (zero) outside the window, so the march skips the add.  A slice
    holds the source's box.
    """
    fg = f.grid
    k = _window_offset(fg, grid, "source grid")
    if not (len(f.box) == grid.n
            and all(0 <= s.start <= s.stop <= size and s.step is None
                    for s, size in zip(f.box, grid.shape))
            and f.field.shape == (fg.nt,) + _box_shape(f.box)):
        raise SolverError("source box does not match its field and grid")

    def read(m):
        j = m - k
        return f.field[j] if 0 <= j < fg.nt else None
    return read


# a march whose max |u| exceeds this factor times max |f| has left the
# smallness regime
BLOWUP_FACTOR = 1e6


def solve_forward(metric, grid, V, f: SourceTerm, nonlinear=False,
                  window=None):
    """March box u + V u (+ u^3) = f forward from zero data at the first slice.

    The source `f` may live on a time window of `grid` and is zero outside
    it (`_source_slices`).  Returns the solution on `window`, a time window
    of `grid` inside it (default: `grid`); the march keeps no other slice
    and stops at the window's last one.
    """
    window, k = _checked_window(metric, grid, window)
    order, dtype = range(grid.nt), _dtype([f])
    u = _field(grid, f, order[0], dtype, nonlinear, _smallness_bound(f))
    out = _march_fields(grid, V, window, k, order, dtype, [u])
    return GridField(window, out)


def solve_backward(metric, grid, V, f: SourceTerm):
    """Solve the linear backward problem with zero data at the last slice,
    keeping every slice."""
    window, k = _checked_window(metric, grid, None)
    order, dtype = range(grid.nt - 1, -1, -1), _dtype([f])
    u = _field(grid, f, order[0], dtype, False, _smallness_bound(f))
    out = _march_fields(grid, V, window, k, order, dtype, [u])
    return GridField(window, out)


class _Leapfrog:
    """Minkowski leapfrog step with the 4th-order Laplacian, fused:

        u+ = ((a_c u - u-) + a_1 N) + a_2 F - dt^2 (v u) + dt^2 f
             - dt^2 u (u u)

    N and F sum the 2n near (offset +-1 per axis) and far (+-2) neighbours,
    and the weights fold dt^2 into the stencil: a_c = 2 + dt^2 n c_0,
    a_1 = dt^2 c_1 and a_2 = dt^2 c_2 for the stencil weights c_k of offset
    k.  This is the plain step (2u - u-) + dt^2 (lap u - V u + f - u^3)
    with the floating-point terms grouped differently.

    The three time levels live in rotating zero-ghosted buffers, each with
    its 4n shifted band views, so N and F are read from the level itself
    and every intermediate goes to a buffer made once.  Every term but f
    runs over the contiguous band, an array v copied first into a
    zero-ghosted buffer (made on the first step with one), and f is added
    on the source's box (slices; () is the whole grid).  That add writes
    into a non-contiguous view, for which numpy takes a temporary of the
    box's size each step: the only array a step allocates.  The result
    equals its array formula above bit for bit (up to the sign of zeros).
    """

    def __init__(self, grid, dtype, u1, nonlinear, box=()):
        lay = _PaddedLayout(grid.shape)
        self.layout = lay
        self.levels = [lay.zeros(dtype) for _ in range(3)]     # u-, u, u+
        self.inner = [lay.interior(P) for P in self.levels]
        self.bands = [lay.band(P) for P in self.levels]
        self.boxes = [P[box] for P in self.inner]
        # per level: the near bands, then the far bands, axis by axis and
        # offset - before +
        self.shifted = [[[lay.band(P, sign * k * st) for st in lay.strides
                          for sign in (-1, 1)] for k in (1, 2)]
                        for P in self.levels]
        self.inner[1][...] = u1
        self.tmp_band = lay.band(lay.zeros(dtype))
        self.f_dt2 = np.empty(self.boxes[0].shape, dtype=dtype)
        self.v_pad = None       # zero-ghosted copy of an array v, on first use
        self.dt2 = grid.dt * grid.dt
        c = _LAP4[2::-1] / (12.0 * grid.h * grid.h)     # c_0, c_1, c_2
        self.a_c = 2 + self.dt2 * grid.n * c[0]
        self.a_1, self.a_2 = self.dt2 * c[1], self.dt2 * c[2]
        self.nonlinear = nonlinear

    def step(self, v, f):
        """Advance by one step with potential slice v and source slice f
        on the source box (None for no potential or no source).  Returns
        the new slice as a view of a buffer that the step after next
        overwrites."""
        u_prev, u, u_next = self.bands
        tmp, dt2 = self.tmp_band, self.dt2
        np.multiply(self.a_c, u, out=u_next)
        np.subtract(u_next, u_prev, out=u_next)
        for bands, a in zip(self.shifted[1], (self.a_1, self.a_2)):
            np.add(bands[0], bands[1], out=tmp)
            for band in bands[2:]:
                np.add(tmp, band, out=tmp)
            np.multiply(a, tmp, out=tmp)
            np.add(u_next, tmp, out=u_next)
        if v is not None:
            if np.ndim(v):
                # v u on the band: its ghost cells, like those of u, are
                # zero.  In the levels' dtype its imaginary part stays
                # zero, as in the cast a real-by-complex product makes
                if self.v_pad is None:
                    self.v_pad = self.layout.zeros(u.dtype)
                self.layout.interior(self.v_pad).real[...] = v
                v = self.layout.band(self.v_pad)
            np.multiply(v, u, out=tmp)
            np.multiply(dt2, tmp, out=tmp)
            np.subtract(u_next, tmp, out=u_next)
        if f is not None:
            np.multiply(dt2, f, out=self.f_dt2)
            np.add(self.boxes[2], self.f_dt2, out=self.boxes[2])
        if self.nonlinear:
            np.multiply(u, u, out=tmp)
            np.multiply(u, tmp, out=tmp)
            np.multiply(dt2, tmp, out=tmp)
            np.subtract(u_next, tmp, out=u_next)
        self.layout.clear_ghosts(self.levels[2])
        new = self.inner[2]
        for lst in (self.levels, self.inner, self.bands, self.boxes,
                    self.shifted):
            lst.append(lst.pop(0))
        return new


def _check_smallness(u, parts, bound, absbuf=None):
    """Raise SolverError unless max|u| is finite and at most `bound`.

    `parts`, for a complex u, is a float array holding the real and
    imaginary parts of u and otherwise zeros.  Since |u| <= sqrt(2) m for
    m = max(|Re u|, |Im u|), a finite m with 1.5 m <= bound settles the
    test without the complex modulus; any other m falls through to the
    exact test, so the decision is that of the exact test on every input.
    """
    if parts is not None:
        m = max(parts.max(), -parts.min())      # nan if any part is nan
        if np.isfinite(m) and 1.5 * m <= bound:
            return
    amax = np.max(np.abs(u, out=absbuf))
    if not np.isfinite(amax) or amax > bound:
        raise SolverError("nonlinear solution left smallness regime")


def _require_flat(metric):
    if not is_flat(metric):
        raise SolverError("the wave solver needs a flat background")


def _checked_window(metric, grid, window):
    """The checks every march makes first; returns (window, the steps from
    the grid's first slice to the window's)."""
    _require_flat(metric)
    grid.check_cfl()
    window = grid if window is None else window
    k = _window_offset(window, grid, "window")
    if k < 0 or k + window.nt > grid.nt:
        raise SolverError("time window leaves the march grid")
    return window, k


def _smallness_bound(f):
    """BLOWUP_FACTOR max|f|, the largest max|u| a march of f may reach.
    Taken before a march allocates, so its temporary |f| does not add to
    the march's peak memory."""
    return BLOWUP_FACTOR * max(f.scale(), 1e-300)


def _dtype(fs):
    """The dtype of a march of the sources fs: complex if any of them is."""
    return complex if any(np.iscomplexobj(f.field) for f in fs) else float


def _field(grid, f, i0, dtype, nonlinear, bound):
    """A march of f from zero data on slice i0: (leapfrog, read, check).

    read(i) is f on slice i (`_source_slices`), and check(u) guards a new
    level u with `_check_smallness` against `bound`.  The first marched
    level is u(+-dt) = dt^2/2 u_tt, where u_tt = f on slice i0.
    """
    read = _source_slices(f, grid)
    first = np.zeros(grid.shape, dtype=dtype)
    f0 = read(i0)
    if f0 is not None:
        first[f.box] = 0.5 * grid.dt * grid.dt * f0.astype(dtype)
    leapfrog = _Leapfrog(grid, dtype, first, nonlinear, f.box)
    cplx = np.iscomplexobj(first)
    absbuf = np.empty(grid.shape)

    def check(u):
        # the new level's band: its ghost cells are zero
        parts = leapfrog.bands[1].view(float) if cplx else None
        _check_smallness(u, parts, bound, absbuf)
    return leapfrog, read, check


def _march_fields(grid, V, window, k, order, dtype, fields):
    """March `fields`, each (leapfrog, read, check) with check None for no
    guard, up to the last slice of `window`, k steps into the march grid,
    and return the first field's slices on the window.  Marching step m is
    slice order[m].  Each step reads the potential slice once for all the
    fields and steps them in list order, each reading its source slice
    just before its own step.
    """
    Vs = _as_potential_slices(V, grid)
    out = np.zeros((window.nt,) + window.shape, dtype=dtype)

    def emit(m, sl):
        j = order[m] - k
        if 0 <= j < window.nt:
            out[j] = sl

    lead = fields[0][0]
    emit(1, lead.inner[1])
    for m in range(1, k + window.nt - 1):
        i = order[m]
        v = None if V is None else Vs(i)
        for leapfrog, read, check in fields:
            u = leapfrog.step(v, read(i))
            if check is not None:
                check(u)
        emit(m + 1, lead.inner[1])
    return out


def solve_cross_coefficient(metric, grid, V, fs, window=None):
    """-1/6 times the eps1 eps2 eps3 coefficient c of the solution of
    box u + V u + u^3 = eps1 f1 + eps2 f2 + eps3 f3, on `window`.

    With zero data the leapfrog's solution is a polynomial in eps.  Its
    eps_j coefficient u_j is the linear march of f_j, and c obeys the same
    linear march with the source -6 u1 u2 u3 (the eps1 eps2 eps3 part of
    u^3) and zero first two slices.  So w = -c/6 is marched here, with the
    source u1 u2 u3 of each slice, next to the three u_j: the eps -> 0
    limit of the third cross derivative on the same grid, with no eps step.
    w marches first, so its source is the product of the u_j's levels
    before they advance.

    `fs` holds the three sources, each on its box and possibly on a time
    window of `grid` (`_source_slices`).  Each u_j keeps the guard of its
    linear solve (`_check_smallness` against BLOWUP_FACTOR max|f_j|), and
    the returned w must be finite.  The march stops at the window's last
    slice.
    """
    window, k = _checked_window(metric, grid, window)
    order, dtype = range(grid.nt), _dtype(fs)
    bounds = [_smallness_bound(f) for f in fs]
    us = [_field(grid, f, order[0], dtype, False, bound)
          for f, bound in zip(fs, bounds)]
    product = np.empty(grid.shape, dtype=dtype)

    def read_product(i):
        u1, u2, u3 = (leapfrog.inner[1] for leapfrog, _, _ in us)
        np.multiply(u1, u2, out=product)
        return np.multiply(product, u3, out=product)

    # w is zero on the first two slices
    w = _Leapfrog(grid, dtype, np.zeros(grid.shape, dtype), False)
    out = _march_fields(grid, V, window, k, order, dtype,
                        [(w, read_product, None)] + us)
    if not np.all(np.isfinite(out)):
        raise SolverError("eps1 eps2 eps3 coefficient is not finite")
    return GridField(window, out)


def apply_wave_operator(metric, grid, V, u: GridField, nonlinear=False):
    """(box + V)u (+u^3 if nonlinear) with the solver's own stencils: per
    interior slice, (u+ - 2u + u-)/dt^2 - laplacian_4th(u) + V u (+ u (u u)).

    Defined on interior time slices 1..nt-2; the first and last slices of the
    result are zero.
    """
    _require_flat(metric)
    Vs = _as_potential_slices(V, grid)
    dt = grid.dt
    out = np.zeros_like(u.data)
    for m in range(1, grid.nt - 1):
        um, up, un = u.data[m], u.data[m - 1], u.data[m + 1]
        dtt = (un - 2 * um + up) / (dt * dt)
        val = dtt - laplacian_4th(um, grid.h, grid.n) + Vs(m) * um
        if nonlinear:
            val = val + um * (um * um)
        out[m] = val
    return GridField(grid, out)


# ---------------------------------------------------------------------------
# integration helpers


def spacetime_integral(grid, *fields):
    """trapezoid-in-t, midpoint-in-x integral of a product of slice arrays."""
    wts = np.ones(grid.nt)
    wts[0] = wts[-1] = 0.5
    total = 0.0
    for m in range(grid.nt):
        prod = wts[m]
        for fld in fields:
            data = fld.data if isinstance(fld, GridField) else fld
            prod = prod * data[m]
        total = total + np.sum(prod)
    return total * grid.dt * grid.cell_volume()


# ---------------------------------------------------------------------------
# snapshot format


_MAGIC = b"BLWV"
_VERSION = 2
_COMPLEX = 0x80000000


def write_snapshot(path, field: GridField):
    """Binary snapshot: header {magic, version u32, n u32, dims u32 x (1+n),
    h f64, dt f64, lo f64 x n, t0 f64}, f64 payload in t-major order.
    Complex fields store re/im as two payloads, flagged in the version high
    bit.  Version-1 files (no t0 field) read back with t0 = 0."""
    g = field.grid
    cplx = np.iscomplexobj(field.data)
    version = _VERSION | (_COMPLEX if cplx else 0)
    dims = (g.nt,) + g.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", version, g.n))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(struct.pack("<dd", g.h, g.dt))
        fh.write(struct.pack(f"<{g.n}d", *g.lo))
        fh.write(struct.pack("<d", g.t0))
        if cplx:
            np.ascontiguousarray(field.data.real, dtype="<f8").tofile(fh)
            np.ascontiguousarray(field.data.imag, dtype="<f8").tofile(fh)
        else:
            np.ascontiguousarray(field.data, dtype="<f8").tofile(fh)


def _read_struct(fh, fmt):
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise SolverError("truncated snapshot header")
    return struct.unpack(fmt, raw)


def _read_payload(fh, dims):
    count = int(np.prod(dims))
    data = np.fromfile(fh, dtype="<f8", count=count)
    if data.size != count:
        raise SolverError(f"truncated snapshot payload: {data.size} of "
                          f"{count} values")
    return data.reshape(dims)


def read_snapshot(path):
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise SolverError("bad snapshot magic")
        version, n = _read_struct(fh, "<II")
        cplx = bool(version & _COMPLEX)
        version &= ~_COMPLEX
        if version not in (1, 2):
            raise SolverError(f"unsupported snapshot version {version}")
        dims = _read_struct(fh, f"<{1 + n}I")
        h, dt = _read_struct(fh, "<dd")
        lo = _read_struct(fh, f"<{n}d")
        t0 = _read_struct(fh, "<d")[0] if version >= 2 else 0.0
        data = _read_payload(fh, dims)
        if cplx:
            data = data + 1j * _read_payload(fh, dims)
    grid = Grid(n, lo, dims[1:], h, dt, (dims[0] - 1) * dt, t0=t0)
    return GridField(grid, data)
