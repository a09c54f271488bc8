"""Experiment runner behind the ``diamondwave`` console script.

Subcommands:
    verify <suite>     run a small deterministic check suite, write a CSV
    recover <config>   run the recovery pipeline described by a config file
    dump <what> <id>   materialize a named object (manifest / CSV / snapshot)
    bench              time a few representative kernels

Exit codes: 0 success, 1 I/O or config problems, 2 usage, 3 numerical gate.
Config files are flat sectioned ``key = value`` text; the potential uses the
expression grammar from :mod:`diamondwave.exprs`.
"""

import argparse
import csv
import os
import sys
import tempfile
import time

import numpy as np

from . import beam, exprs, fermi, go, recovery, solver, sources
from . import geometry as geo

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class UsageError(ValueError):
    """Bad command-line arguments beyond what argparse catches."""


_NUMERICAL_ERRORS = (solver.SolverError, recovery.RecoveryError,
                     sources.SourceError, go.GOError, beam.BeamError,
                     fermi.FermiError, geo.GeometryError)
# a failing stage of `recover` becomes a failed check; a singular system is
# numerical failure there too
_STAGE_ERRORS = _NUMERICAL_ERRORS + (np.linalg.LinAlgError,)


# ---------------------------------------------------------------------------
# config files


def parse_config(path):
    """Parse a flat sectioned key=value file into {section: {key: value}}.

    Values stay strings; ``#`` starts a comment; no nesting, no quoting.
    Duplicate keys within a section are rejected.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = val
    return sections


def _number(text, what, kind=float):
    """`text` as a finite number of type `kind`; ConfigError naming the
    entry `what` otherwise."""
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{what}: expected a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{what}: expected a finite number, got {text!r}")
    return value


class ExperimentConfig:
    """Validated recovery-run description built from a parsed config."""

    # the keys each section may hold; any other section or key is an error
    KNOWN_KEYS = {
        "metric": {"kind", "n"},
        "aperture": {"r", "T"},
        "potential": {"V"},
        "packets": {"delta"},
        "pipeline": {"mode", "sigma0", "ds0", "points"},
        "grid": {"h", "dt", "pad"},
        "full": {"tau"},
    }

    def __init__(self, sections):
        self.sections = sections
        met = self._sec("metric")
        self.n = self._num("metric", "n", "2", int)
        if self.n not in (2, 3):
            # the covector quads of both routes need n >= 2; the geometry
            # supports n <= 3
            raise ConfigError(f"metric.n must be 2 or 3, got {self.n}")
        self.metric = self._build_metric(met)
        self.r = self._positive("aperture", "r")
        self.T = self._positive("aperture", "T")
        pot = self.sections.get("potential", {})
        self.V = (exprs.ScalarField.from_text(pot["V"], self.n)
                  if "V" in pot else None)
        self.delta = self._positive("packets", "delta", "0.1")
        pipe = self.sections.get("pipeline", {})
        self.mode = pipe.get("mode", "fast")
        if self.mode not in ("fast", "full"):
            raise ConfigError(f"pipeline.mode must be fast|full, got {self.mode!r}")
        self.sigma0 = self._num("pipeline", "sigma0", "0.1")
        if not 0 < self.sigma0 < 1:
            raise ConfigError(
                f"pipeline.sigma0 must lie in (0, 1), got {self.sigma0:g}")
        self.ds0 = self._positive("pipeline", "ds0", "0.05")
        self.points = self._parse_points(pipe.get("points", ""))
        for p in self.points:
            if not geo.in_mho(self.r + self.T, 2 * self.T, p):
                raise ConfigError(
                    f"point {p.tolist()} outside the measurement region")
        self.grid_params = None
        if "grid" in self.sections:
            h = self._positive("grid", "h")
            dt = self._positive("grid", "dt")
            pad = self._num("grid", "pad", "0.25")
            if pad < 0:
                raise ConfigError(
                    f"grid.pad must be non-negative, got {pad:g}")
            limit = solver.cfl_limit(h, self.n)
            if dt > limit:
                raise ConfigError(
                    f"grid dt={dt:g} violates the CFL bound {limit:g}")
            self.grid_params = {"h": h, "dt": dt, "pad": pad}
        self.tau = self._positive("full", "tau", "40")
        self._reject_unknown()

    def _reject_unknown(self):
        for name, sec in self.sections.items():
            if name not in self.KNOWN_KEYS:
                raise ConfigError(f"unknown section [{name}]")
            for key in sec:
                if key not in self.KNOWN_KEYS[name]:
                    raise ConfigError(f"unknown key {name}.{key}")

    def _sec(self, name):
        if name not in self.sections:
            raise ConfigError(f"missing required [{name}] section")
        return self.sections[name]

    def _num(self, section, key, default=None, kind=float):
        """The number `key` of [section] as `kind`, named section.key in
        errors; without a `default` the section and the key are required."""
        if default is None:
            sec = self._sec(section)
            if key not in sec:
                raise ConfigError(f"missing key {section}.{key}")
            text = sec[key]
        else:
            text = self.sections.get(section, {}).get(key, default)
        return _number(text, f"{section}.{key}", kind)

    def _positive(self, section, key, default=None):
        """`_num` of a float that must be positive."""
        value = self._num(section, key, default)
        if value <= 0:
            raise ConfigError(
                f"{section}.{key} must be positive, got {value:g}")
        return value

    def _build_metric(self, met):
        # both recovery routes and the wave solver need a flat background
        kind = met.get("kind", "minkowski")
        if kind != "minkowski":
            raise ConfigError(f"metric.kind must be minkowski, got {kind!r}")
        return geo.minkowski(self.n)

    def _parse_points(self, text):
        pts = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            vals = [_number(v, "pipeline.points") for v in chunk.split()]
            if len(vals) != self.n + 1:
                raise ConfigError(
                    f"point {chunk!r} needs {self.n + 1} coordinates")
            pts.append(np.array(vals))
        return pts


# ---------------------------------------------------------------------------
# run report


class RunReport:
    """Per-stage timings, deduplicated warning flags, pass/fail table."""

    def __init__(self):
        self.stages = []
        self._flags = []
        self.table = []
        self.diagnostics = []

    def stage(self, name, seconds):
        self.stages.append((name, seconds))

    def flag(self, text):
        if text and text not in self._flags:
            self._flags.append(text)

    def check(self, name, ok, detail=""):
        self.table.append((name, bool(ok), detail))

    def diagnostic(self, name, text):
        self.diagnostics.append((name, text))

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("stage timings (s)\n")
            for name, sec in self.stages:
                fh.write(f"  {name}: {sec:.3f}\n")
            fh.write("flags\n")
            for f in self._flags:
                fh.write(f"  {f}\n")
            if self.diagnostics:
                fh.write("diagnostics\n")
                for name, text in self.diagnostics:
                    fh.write(f"  {name}: {text}\n")
            fh.write("checks\n")
            for name, ok, detail in self.table:
                status = "pass" if ok else "FAIL"
                fh.write(f"  {name}: {status}"
                         + (f" ({detail})" if detail else "") + "\n")

    def all_pass(self):
        return all(ok for _, ok, _ in self.table)


def _fmt(x):
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# verify suites


def _run_checks(checks):
    """Evaluate (name, thunk) pairs; thunks return (ok, detail)."""
    rows = []
    for name, thunk in checks:
        try:
            ok, detail = thunk()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        rows.append((name, "pass" if ok else "fail", detail))
    return rows


def _split_test_metric(amp=0.05):
    return geo.SplitMetric(
        2,
        beta=lambda x: 1 + amp * np.sin(np.asarray(x)[..., 1]),
        gmat=lambda x: (1 + amp * np.asarray(x)[..., 0])[..., None, None]
        * np.eye(2),
    )


def _suite_geometry(rng):
    m = geo.minkowski(2)

    def straight_line():
        v = np.array([1.0, 0.6, 0.8])
        g = geo.integrate_null_geodesic(m, np.zeros(3), v, (0.0, 2.0))
        err = float(np.max(np.abs(g.x - np.outer(g.s, v))))
        return err < 1e-10, f"max dev {err:.2e}"

    def split_residual():
        ms = _split_test_metric()
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        G = ms.matrix(np.zeros(3))
        v = np.concatenate([[np.sqrt((u @ G[1:, 1:] @ u) / -G[0, 0])], u])
        g = geo.integrate_null_geodesic(ms, np.zeros(3), v, (0.0, 1.0),
                                        steps_per_unit=400)
        res = geo.geodesic_residual(g)
        return res < 1e-7, f"residual {res:.2e}"

    def flat_sharp_roundtrip():
        ms = _split_test_metric()
        p = np.array([0.5, 0.2, -0.1])
        v = rng.normal(size=3)
        w = geo.sharp(ms, p, geo.flat(ms, p, v))
        err = float(np.max(np.abs(w - v)))
        return err < 1e-10, f"roundtrip dev {err:.2e}"

    def curvy_metric():
        # every block of the closed forms is nonzero for this metric
        def gmat(x):
            t, x1, x2 = np.moveaxis(np.asarray(x), -1, 0)
            off = 0.05 * np.sin(x1 + t)
            return np.stack([np.stack([1 + 0.1 * np.cos(t + x2), off], -1),
                             np.stack([off, 1 + 0.1 * x1 * x2], -1)], -2)

        return geo.SplitMetric(
            2, beta=lambda x: 1 + 0.1 * np.sin(x[..., 1] + 0.3 * x[..., 0]),
            gmat=gmat)

    def split_christoffel_spray():
        # -Gamma(v, v) is the spray and Gamma(v, w) = Gamma(w, v), bit for bit
        ms = curvy_metric()
        x = rng.uniform(-1.0, 1.0, size=(64, 3))
        v, w = rng.normal(size=(2, 64, 3))
        acc = ms.geodesic_acceleration(x, v)
        spray = float(np.max(np.abs(ms.christoffel(x, v, v) + acc)))
        sym = float(np.max(np.abs(ms.christoffel(x, v, w)
                                  - ms.christoffel(x, w, v))))
        return (spray == 0.0 and sym == 0.0,
                f"spray dev {spray:.2e}, symmetry dev {sym:.2e}")

    def diamond_membership():
        ok = (geo.causal_diamond_contains(1.0, 2.0, [1.0, 1.5, 0.0])
              and not geo.causal_diamond_contains(1.0, 2.0, [0.1, 1.5, 0.0]))
        return ok, ""

    return [("null_geodesic_straight", straight_line),
            ("split_geodesic_residual", split_residual),
            ("flat_sharp_roundtrip", flat_sharp_roundtrip),
            ("split_christoffel_spray", split_christoffel_spray),
            ("diamond_membership", diamond_membership)]


def _flat_chart(span=(0.0, 2.0)):
    m = geo.minkowski(2)
    v = np.array([1.0, 1.0, 0.0])
    g = geo.integrate_null_geodesic(m, np.zeros(3), v, span)
    return fermi.FermiChart(g)


def _split_chart(amp):
    """Fermi chart along the null geodesic of `_split_test_metric(amp=amp)`
    from the origin, over s in [0, 1.2]."""
    ms = _split_test_metric(amp=amp)
    beta0 = float(ms.beta(np.zeros(3)))
    g11 = float(ms.gmat(np.zeros(3))[0, 0])
    v = np.array([1.0, np.sqrt(beta0 / g11), 0.0])
    g = geo.integrate_null_geodesic(ms, np.zeros(3), v, (0.0, 1.2),
                                    steps_per_unit=400)
    return fermi.FermiChart(g)


def _suite_fermi(rng):
    def flat_forward():
        ch = _flat_chart()
        F = ch.forward(0.7, [0.1, -0.2])
        err = float(np.max(np.abs(F - [0.6, 0.8, -0.2])))
        return err < 1e-12, f"dev {err:.2e}"

    def perturbed_axis():
        mdef, ddef = _split_chart(amp=0.03).axis_defects(nsamp=5)
        return mdef < 1e-6 and ddef < 1e-5, f"mdef {mdef:.2e} ddef {ddef:.2e}"

    def frame_pairings():
        d = _split_chart(amp=0.04).frame.pairing_defect()
        return d < 1e-8, f"pairing defect {d:.2e}"

    def jacobian_vs_stencil():
        # the Jacobi-field Jacobian against 4th-order central differences
        # of the exponential map, step 2e-3, at random points of the tube
        ch, h, m = _split_chart(amp=0.05), 2e-3, 200
        s = rng.uniform(0.1, 1.1, m)
        z = rng.uniform(-0.5, 0.5, (m, 2)) * ch.delta_prime
        ref = np.empty((m, 3, 3))
        for i, e in enumerate(np.eye(3) * h):
            def f(k):
                return ch.forward(s + k * e[0], z + k * e[1:])
            ref[..., i] = (8 * (f(1) - f(-1)) - (f(2) - f(-2))) / (12 * h)
        J = ch.jacobian(s, z)[1]
        dev = float(np.max(np.abs(J - ref)) / np.max(np.abs(ref)))
        return dev < 1e-8, f"rel dev {dev:.2e}"

    def jacobi_spray_vs_difference():
        # the closed-form linearized spray against a Richardson-extrapolated
        # central difference of the spray along (xi, eta), steps 1e-2 and
        # 5e-3; the bound covers the rounding of the metric's second
        # differences (step geometry.H_G2)
        ms, m = _split_test_metric(), 64
        x = rng.uniform(-1.0, 1.0, (m, 3))
        v, xi, eta = rng.normal(size=(3, m, 3))
        dacc = ms.linearized_spray(x, v, xi[None], eta[None])[1][0]

        def diff(h):
            acc = ms.geodesic_acceleration
            return (acc(x + h * xi, v + h * eta)
                    - acc(x - h * xi, v - h * eta)) / (2 * h)
        ref = (4 * diff(5e-3) - diff(1e-2)) / 3
        dev = float(np.max(np.abs(dacc - ref)) / np.max(np.abs(ref)))
        return dev < 2e-6, f"rel dev {dev:.2e}"

    return [("flat_forward_closed_form", flat_forward),
            ("perturbed_axis_defects", perturbed_axis),
            ("frame_pairings_conserved", frame_pairings),
            ("chart_jacobian_vs_stencil", jacobian_vs_stencil),
            ("split_jacobi_spray_vs_difference", jacobi_spray_vs_difference)]


def _suite_go(rng):
    def V(x):
        return np.exp(-np.sum(np.asarray(x) ** 2, axis=-1) / 0.25)

    def packet(N):
        return go.GOPacket(2, np.zeros(3), np.array([-1.0, 1.0, 0.0]),
                           delta=0.3, V=V, N=N, s_range=(-1.0, 1.0))

    def residual_order():
        slope, fitres, _ = go.residual_scaling(packet(2), V,
                                               [20.0, 40.0, 80.0])
        return slope <= -1.7 and fitres < 0.2, \
            f"slope {slope:.2f} fitres {fitres:.2e}"

    def tube_support():
        p = packet(1)
        y = np.array([0.3, 1.2 * p.delta, 0.0])
        sup = abs(p.eval(30.0, p.from_flow(y)))
        return sup < 1e-12, f"off-tube sup {sup:.2e}"

    return [("residual_scaling_order", residual_order),
            ("tube_support", tube_support)]


def _suite_beam(rng):
    ch = _flat_chart(span=(0.0, 1.5))

    def riccati_drift():
        worst = 0.0
        for _ in range(3):
            A = rng.normal(size=(2, 2))
            B = rng.normal(size=(2, 2))
            H0 = (A + A.T) + 1j * (B @ B.T + 0.3 * np.eye(2))
            jet = beam.solve_riccati(ch, 0.5, H0=H0)
            worst = max(worst, jet.conservation_drift())
            if jet.im_H_min() <= 0:
                return False, "Im H lost positivity"
        return worst < 1e-8, f"max drift {worst:.2e}"

    def decay_constant():
        b = beam.make_beam(ch, V=None, N=2, s0=0.5)
        C = b.measured_C()
        return C > 0, f"C = {C:.4f}"

    return [("riccati_conservation", riccati_drift),
            ("transverse_decay_positive", decay_constant)]


def _suite_solver(rng):
    m = geo.minkowski(1)
    grid = solver.Grid.for_ball(1, 0.5, 1.0, h=0.01, dt=0.004)

    def zero_source():
        f = solver.SourceTerm(grid, field=np.zeros((grid.nt,) + grid.shape))
        U = solver.solve_forward(m, grid, None, f)
        return U.sup_norm() == 0.0, ""

    def finite_speed():
        g = solver.Grid.for_ball(1, 0.3, 0.8, h=0.02, dt=0.008)

        def f(t, pts):
            s2 = ((t - 0.25) / 0.2) ** 2
            out = np.zeros(pts.shape[:-1])
            if s2 >= 1:
                return out
            r2 = pts[..., 1] ** 2 / 0.3**2
            mask = r2 < 1
            out[mask] = np.exp(-1 / (1 - r2[mask]) - 1 / (1 - s2))
            return out

        U = solver.solve_forward(m, g, None,
                                 solver.SourceTerm.from_closure(g, f))
        x = g.axis(0)
        leak = 0.0
        for mstep in range(g.nt):
            outside = np.abs(x) > 0.3 + mstep * g.dt + 2 * g.h
            if outside.any():
                leak = max(leak, float(np.max(np.abs(U.data[mstep][outside]))))
        return leak < 1e-10, f"cone leak {leak:.2e}"

    def snapshot_roundtrip():
        fld = solver.GridField(grid, rng.normal(size=(grid.nt,) + grid.shape))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.bin")
            solver.write_snapshot(path, fld)
            back = solver.read_snapshot(path)
        ok = np.array_equal(back.data, fld.data)
        return ok, "bit-identical" if ok else "payload mismatch"

    return [("zero_source_zero_solution", zero_source),
            ("finite_speed_support", finite_speed),
            ("snapshot_roundtrip", snapshot_roundtrip)]


def _suite_sources(rng):
    def kappa_closed():
        k1, k2 = sources.kappa_closed_form(0.6)
        ok = abs(k1 - 3.24) < 1e-12 and abs(k2 + 1.8) < 1e-12
        return ok, f"kappa1 {k1:.6f} kappa2 {k2:.6f}"

    def covector_dependence():
        m = geo.minkowski(2)
        th = rng.uniform(0.5, 2.5)
        v0 = np.array([1.0, np.cos(th), np.sin(th)])
        quad = sources.perturb_covectors(m, np.zeros(3), v0,
                                         [1.0, 1.0, 0.0], 0.1)
        res = quad.residual()
        return res < 1e-12, f"dependence residual {res:.2e}"

    def returning_closed_form():
        m = geo.minkowski(2)
        ret = sources.find_returning_geodesics(m, np.array([2.0, 2.0, 0.0]),
                                               r=1.0, T=5.0)
        err = max(float(np.max(np.abs(ret.q_minus))),
                  float(np.max(np.abs(ret.q_plus - [4.0, 0.0, 0.0]))))
        return err < 1e-9, f"anchor dev {err:.2e}"

    return [("kappa_closed_form", kappa_closed),
            ("covector_dependence", covector_dependence),
            ("returning_geodesics", returning_closed_form)]


def _suite_recovery(rng):
    def c_sum_oracle():
        p = np.array([1.1, 0.9, 0.0])

        def V(pts):
            return 0.8 * np.exp(-np.sum((np.asarray(pts) - p) ** 2, axis=-1)
                                / 0.3)

        quad = recovery.PacketQuad(p, 0.9, [1.0, 0.0], sigma=0.1, V=V)
        _, csum = recovery.interaction_series(
            quad.packets, recovery.tensor_quadrature(p, 0.3, recovery.BOX_NQ))
        oracle = np.sum(quad.c_values(V))
        err = abs(csum - oracle) / abs(oracle)
        return err < 0.01, f"rel dev {err:.2e}"

    def richardson_exact():
        sig = np.array([0.2, 0.1, 0.05])
        vals = 1.5 + 0.3 * sig**2 + 0.02 * sig**4
        lim, flags = recovery.richardson_sigma(sig, vals)
        return abs(lim - 1.5) < 1e-10, f"limit dev {abs(lim - 1.5):.2e}"

    def cross_derivative_exact():
        def solve(eps):     # odd, as the stencil requires
            e1, e2, e3 = eps
            return np.array([6.0 * e1 * e2 * e3 + e1 + e2**3])

        # gated against the exact eps1 eps2 eps3 coefficient
        cross = recovery.cross_derivative(solve, 0.1,
                                          limit=lambda: np.array([6.0]))
        err = abs(float(cross[0]) - 6.0)
        return err < 1e-10, f"dev {err:.2e}"

    return [("c_sum_oracle", c_sum_oracle),
            ("sigma_richardson", richardson_exact),
            ("cross_derivative", cross_derivative_exact)]


SUITES = {
    "geometry": _suite_geometry,
    "fermi": _suite_fermi,
    "go": _suite_go,
    "beam": _suite_beam,
    "solver": _suite_solver,
    "sources": _suite_sources,
    "recovery": _suite_recovery,
}


def cmd_verify(args):
    rng = np.random.default_rng(args.seed)
    rows = _run_checks(SUITES[args.suite](rng))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"verify_{args.suite}.csv")
    _write_csv(path, ["check", "status", "detail"], rows)
    failed = [r for r in rows if r[1] != "pass"]
    for name, _, detail in failed:
        print(f"verify {args.suite}: {name} failed: {detail}", file=sys.stderr)
    print(path)
    return EXIT_NUMERICAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# recover


def cmd_recover(args):
    cfg = ExperimentConfig(parse_config(args.config))
    if not cfg.points:
        raise ConfigError("pipeline.points is empty")
    os.makedirs(args.out, exist_ok=True)
    report = RunReport()
    mode = cfg.mode
    if args.fast_only:
        mode = "fast"
    if args.full:
        mode = "full"

    t0 = time.perf_counter()
    rec = recovery.recover_region(cfg.metric, cfg.V, cfg.points, cfg.r, cfg.T,
                                  V_true=cfg.V, sigma0=cfg.sigma0,
                                  delta=cfg.delta, ds0=cfg.ds0)
    report.stage("fast recovery", time.perf_counter() - t0)
    rec.to_csv(os.path.join(args.out, "report.csv"))
    prof = []
    for row in rec.point_rows():
        flags = row["flags"]
        if flags and not flags.startswith("failed"):
            for f in flags.split(";"):
                report.flag(f)
        ok = row["V_recovered"] != "" and not str(flags).startswith("failed")
        name = f"point ({row['p_t']}, {row['p_x1']}, {row['p_x2']})"
        report.check(name, ok, str(flags))
        if ok:
            prof.append((row["p_t"], row["p_x1"], row["p_x2"],
                         row["V_recovered"], row["V_true"], row["rel_err"]))
        else:
            report.flag(str(flags))
    _write_csv(os.path.join(args.out, "recovered_profile.csv"),
               ["p_t", "p_x1", "p_x2", "V_recovered", "V_true", "rel_err"],
               prof)

    if mode == "full":
        # without a [grid] section the library's grid defaults apply
        gp = cfg.grid_params or {}
        tau = cfg.tau
        t0 = time.perf_counter()
        try:
            res = recovery.full_path_interaction(
                cfg.metric, cfg.V, cfg.points[0], cfg.r, cfg.T, tau,
                delta=cfg.delta, **gp)
        except _STAGE_ERRORS as exc:
            res = None
            report.check("full vs fast interaction", False,
                         f"{type(exc).__name__}: {exc}")
        report.stage("full-route interaction", time.perf_counter() - t0)
        if res is not None:
            _write_csv(os.path.join(args.out, "full_path.csv"),
                       ["tau", "I_full", "I_fast", "rel_diff", "I_check",
                        "eps_truncation"],
                       [(tau, res.I_full, res.I_fast, res.rel_diff,
                         res.I_check, res.eps_truncation)])
            report.check("full vs fast interaction", res.rel_diff < 0.15,
                         f"rel diff {res.rel_diff:.3g}")
            report.diagnostic(
                "GO ratio t_j/(kappa_j tau delta^2) per packet",
                " ".join(f"{x:.3g}" for x in res.go_ratios))
            report.diagnostic("kappa_top tau h", f"{res.kh:.3g}")
            report.diagnostic("stencil group velocity at kappa_top tau h",
                              f"{res.group_velocity:.3g}")
            report.diagnostic("envelope resolution delta/h",
                              f"{res.delta_over_h:.3g}")
            report.diagnostic("stencil error on the bump at delta/h",
                              f"{res.envelope_error:.3g}")
            report.diagnostic("I_check (eps -> 0 coefficient march)",
                              f"{res.I_check:.6g}")
            report.diagnostic("eps truncation |I_full - I_check|/|I_check|",
                              f"{res.eps_truncation:.3g}")
            report.diagnostic("|I_k tau^-k| of I_fast, k = 0..4",
                              " ".join(f"{abs(x):.3g}" for x in res.I_orders))

    report.write(os.path.join(args.out, "run_report.txt"))
    print(os.path.join(args.out, "report.csv"))
    return EXIT_OK if report.all_pass() else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# dump


def _dump_beam(ident, outdir):
    if ident == "flat":
        ch = _flat_chart(span=(0.0, 1.5))
    else:
        ch = _split_chart(amp=0.03)
    b = beam.make_beam(ch, V=None, N=2, s0=0.5)
    path = os.path.join(outdir, f"beam_{ident}.txt")
    with open(path, "w") as fh:
        fh.write(b.manifest() + "\n")
    return path


def _dump_packet(ident, outdir):
    if ident == "free":
        V = None
    else:
        def V(pts):
            return 0.3 * np.exp(-np.asarray(pts)[..., 1] ** 2 / 0.1)
    p = go.GOPacket(1, np.array([0.5, 0.0]), np.array([-1.0, 1.0]),
                    delta=0.2, V=V, N=2, s_range=(-1.0, 1.5))
    ss = np.linspace(-1.0, 1.5, 251)
    pts = p.flow_point(ss)
    vals = p.eval(30.0, pts)
    path = os.path.join(outdir, f"packet_{ident}.csv")
    _write_csv(path, ["s", "t", "x1", "re_u", "im_u"],
               [(s, pt[0], pt[1], v.real, v.imag)
                for s, pt, v in zip(ss, pts, vals)])
    return path


def _dump_source(ident, outdir):
    m = geo.minkowski(1)
    grid = solver.Grid.for_ball(1, 1.0, 1.5, h=0.01, dt=0.004, pad=0.5)
    p = go.GOPacket(1, np.array([0.5, 0.0]), np.array([-1.0, 1.0]),
                    delta=0.2, V=None, N=2, s_range=(-1.0, 1.5))
    src, _ = sources.make_source(p, m, grid, tau=30.0, r=1.0)
    path = os.path.join(outdir, "source_surgery.snap")
    solver.write_snapshot(path, solver.GridField(grid, src.dense()))
    return path


def _dump_solution(ident, outdir):
    m = geo.minkowski(1)
    grid = solver.Grid.for_ball(1, 0.5, 1.0, h=0.01, dt=0.004)
    if ident == "zero":
        U = solver.GridField.zeros(grid)
    else:
        x = grid.axis(0)
        fld = np.zeros((grid.nt,) + grid.shape)
        fld[: grid.nt // 4] = np.exp(-x**2 / 0.01) * (np.abs(x) < 0.2)
        U = solver.solve_forward(m, grid, None,
                                 solver.SourceTerm(grid, field=fld))
    path = os.path.join(outdir, f"solution_{ident}.snap")
    solver.write_snapshot(path, U)
    back = solver.read_snapshot(path)
    if not np.array_equal(back.data, U.data):
        raise solver.SolverError("snapshot round-trip mismatch")
    return path


# each kind of object: its writer and the ids it takes
_DUMPS = {"beam": (_dump_beam, ("flat", "perturbed")),
          "packet": (_dump_packet, ("free", "potential")),
          "source": (_dump_source, ("surgery",)),
          "solution": (_dump_solution, ("zero", "forced"))}


def cmd_dump(args):
    handler, ids = _DUMPS[args.what]
    if args.ident not in ids:
        raise UsageError(
            f"unknown {args.what} id {args.ident!r} ({'|'.join(ids)})")
    os.makedirs(args.out, exist_ok=True)
    path = handler(args.ident, args.out)
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args):
    rows = []

    def timed(name, thunk, reps=1):
        t0 = time.perf_counter()
        for _ in range(reps):
            thunk()
        rows.append((name, (time.perf_counter() - t0) / reps))

    m1 = geo.minkowski(1)
    ms = _split_test_metric()
    timed("null_geodesic_split",
          lambda: geo.integrate_null_geodesic(
              ms, np.zeros(3), [1.0, 1.0, 0.0], (0.0, 1.5),
              steps_per_unit=400), reps=3)
    grid = solver.Grid.for_ball(1, 0.5, 1.0, h=0.005, dt=0.002)
    fld = np.zeros((grid.nt,) + grid.shape)
    fld[: grid.nt // 4] = np.exp(-grid.axis(0) ** 2 / 0.01)
    src = solver.SourceTerm(grid, field=fld)
    timed("forward_solve_1d",
          lambda: solver.solve_forward(m1, grid, None, src), reps=3)
    ch = _flat_chart(span=(0.0, 1.5))
    timed("riccati_solve", lambda: beam.solve_riccati(ch, 0.5), reps=3)
    pk = recovery.LinePacket(np.array([1.0, 0.5, 0.0]),
                             np.array([1.0, -1.0, 0.0]), 0.1)
    pts = np.zeros((10000, 3))
    pts[:, 0] = 1.0
    pts[:, 1] = np.linspace(0.3, 0.7, 10000)
    timed("line_packet_eval", lambda: pk.eval(60.0, pts), reps=5)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bench.csv")
    _write_csv(path, ["kernel", "seconds"], rows)
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    ap = argparse.ArgumentParser(
        prog="diamondwave", parents=[common],
        description="wave-packet probing of a potential on the causal diamond")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common],
                       help="run a deterministic check suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--seed", type=int, default=0,
                   help="seed of the checks' random inputs")

    r = sub.add_parser("recover", parents=[common],
                       help="run the recovery pipeline")
    r.add_argument("config", help="experiment config file")
    route = r.add_mutually_exclusive_group()
    route.add_argument("--fast-only", action="store_true",
                       help="force the quadrature route")
    route.add_argument("--full", action="store_true",
                       help="force the PDE route for the interaction integral")

    d = sub.add_parser("dump", parents=[common],
                       help="materialize a named object")
    d.add_argument("what", choices=list(_DUMPS))
    d.add_argument("ident")

    sub.add_parser("bench", parents=[common],
                   help="time representative kernels")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {"verify": cmd_verify, "recover": cmd_recover,
               "dump": cmd_dump, "bench": cmd_bench}[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, exprs.ExpressionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical gate: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
