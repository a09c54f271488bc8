"""Experiment runner behind the ``diamondwave`` console script.

Subcommands:
    verify <suite>     run a small deterministic check suite, write a CSV
    recover <config>   run the recovery pipeline described by a config file
    dump <what> <id>   materialize a named object (manifest / CSV / snapshot)
    bench              time a few representative kernels

Exit codes: 0 success, 1 I/O or config problems, 2 usage, 3 numerical gate.
Config files are flat sectioned ``key = value`` text; field-valued entries
(metric coefficients, the potential) use the expression grammar from
:mod:`diamondwave.exprs`.
"""

import argparse
import csv
import os
import sys
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


class ExperimentConfig:
    """Validated recovery-run description built from a parsed config."""

    def __init__(self, sections):
        self.sections = sections
        met = self._sec("metric")
        self.n = int(met.get("n", "2"))
        if self.n < 1:
            raise ConfigError("metric.n must be >= 1")
        self.metric = self._build_metric(met)
        ap = self._sec("aperture")
        self.r = self._flt(ap, "r")
        self.T = self._flt(ap, "T")
        if self.r <= 0 or self.T <= 0:
            raise ConfigError("aperture r and T must be positive")
        pot = self.sections.get("potential", {})
        self.V = (exprs.ScalarField.from_text(pot["V"], self.n)
                  if "V" in pot else None)
        pk = self.sections.get("packets", {})
        self.delta = float(pk.get("delta", "0.1"))
        pipe = self.sections.get("pipeline", {})
        self.mode = pipe.get("mode", "fast")
        if self.mode not in ("fast", "full"):
            raise ConfigError(f"pipeline.mode must be fast|full, got {self.mode!r}")
        self.sigma0 = float(pipe.get("sigma0", "0.1"))
        if not 0 < self.sigma0 < 1:
            raise ConfigError(
                f"pipeline.sigma0 must lie in (0, 1), got {self.sigma0:g}")
        self.ds0 = float(pipe.get("ds0", "0.05"))
        self.points = self._parse_points(pipe.get("points", ""))
        for p in self.points:
            if not geo.in_mho(self.r + self.T, 2 * self.T, p):
                raise ConfigError(
                    f"point {p.tolist()} outside the measurement region")
        gr = self.sections.get("grid", None)
        self.grid_params = None
        if gr is not None:
            h = self._flt(gr, "h")
            dt = self._flt(gr, "dt")
            pad = float(gr.get("pad", "0.25"))
            if dt > 0.5 * h / np.sqrt(self.n) * (1 + 1e-12):
                raise ConfigError(
                    f"grid dt={dt:g} violates the CFL bound "
                    f"{0.5 * h / np.sqrt(self.n):g}")
            self.grid_params = {"h": h, "dt": dt, "pad": pad}
        out = self.sections.get("output", {})
        self.outdir = out.get("dir", None)

    def _sec(self, name):
        if name not in self.sections:
            raise ConfigError(f"missing required [{name}] section")
        return self.sections[name]

    @staticmethod
    def _flt(sec, key):
        if key not in sec:
            raise ConfigError(f"missing key {key!r}")
        try:
            return float(sec[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc

    def _build_metric(self, met):
        kind = met.get("kind", "minkowski")
        if kind == "minkowski":
            return geo.minkowski(self.n)
        if kind != "split":
            raise ConfigError(f"metric.kind must be minkowski|split, got {kind!r}")
        n = self.n
        beta = exprs.ScalarField.from_text(met.get("beta", "1"), n)
        conf = exprs.ScalarField.from_text(met.get("conformal", "1"), n)
        eye = np.eye(n)

        def gmat(x):
            return conf(np.asarray(x, dtype=float))[..., None, None] * eye

        return geo.SplitMetric(n, beta=beta, gmat=gmat)

    def _parse_points(self, text):
        pts = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            vals = [float(v) for v in chunk.split()]
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


def _split_test_metric(n=2, amp=0.05):
    return geo.SplitMetric(
        n,
        beta=lambda x: 1 + amp * np.sin(np.asarray(x)[..., 1]),
        gmat=lambda x: (1 + amp * np.asarray(x)[..., 0])[..., None, None]
        * np.eye(n),
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

    def rel_dev(value, ref):
        dev = float(np.max(np.abs(value - ref)) / np.max(np.abs(ref)))
        return dev < 1e-12, f"rel dev {dev:.2e}"

    def split_christoffel_generic():
        ms = curvy_metric()
        x = rng.uniform(-1.0, 1.0, size=(64, 3))
        return rel_dev(ms.christoffel(x), geo.Metric.christoffel(ms, x))

    def split_spray_generic():
        ms = curvy_metric()
        x = rng.uniform(-1.0, 1.0, size=(64, 3))
        v = rng.normal(size=(64, 3))
        return rel_dev(ms.geodesic_acceleration(x, v),
                       geo.Metric.geodesic_acceleration(ms, x, v))

    def diamond_membership():
        ok = (geo.causal_diamond_contains(1.0, 2.0, [1.0, 1.5, 0.0])
              and not geo.causal_diamond_contains(1.0, 2.0, [0.1, 1.5, 0.0]))
        return ok, ""

    return [("null_geodesic_straight", straight_line),
            ("split_geodesic_residual", split_residual),
            ("flat_sharp_roundtrip", flat_sharp_roundtrip),
            ("split_christoffel_generic", split_christoffel_generic),
            ("split_spray_generic", split_spray_generic),
            ("diamond_membership", diamond_membership)]


def _flat_chart(n=2, span=(0.0, 2.0)):
    m = geo.minkowski(n)
    v = np.zeros(n + 1)
    v[0] = v[1] = 1.0
    g = geo.integrate_null_geodesic(m, np.zeros(n + 1), v, span)
    return fermi.FermiChart(g)


def _suite_fermi(rng):
    def flat_forward():
        ch = _flat_chart()
        F = ch.forward(0.7, [0.1, -0.2])
        err = float(np.max(np.abs(F - [0.6, 0.8, -0.2])))
        return err < 1e-12, f"dev {err:.2e}"

    def perturbed_axis():
        ms = _split_test_metric(amp=0.03)
        beta0 = float(ms.beta(np.zeros(3)))
        g11 = float(ms.gmat(np.zeros(3))[0, 0])
        v = np.array([1.0, np.sqrt(beta0 / g11), 0.0])
        g = geo.integrate_null_geodesic(ms, np.zeros(3), v, (0.0, 1.2),
                                        steps_per_unit=400)
        ch = fermi.FermiChart(g)
        mdef, ddef = ch.axis_defects(nsamp=5)
        return mdef < 1e-6 and ddef < 1e-5, f"mdef {mdef:.2e} ddef {ddef:.2e}"

    def frame_pairings():
        ms = _split_test_metric(amp=0.04)
        beta0 = float(ms.beta(np.zeros(3)))
        g11 = float(ms.gmat(np.zeros(3))[0, 0])
        v = np.array([1.0, np.sqrt(beta0 / g11), 0.0])
        g = geo.integrate_null_geodesic(ms, np.zeros(3), v, (0.0, 1.2),
                                        steps_per_unit=400)
        fr = fermi.build_frame(g)
        d = fr.pairing_defect()
        return d < 1e-8, f"pairing defect {d:.2e}"

    return [("flat_forward_closed_form", flat_forward),
            ("perturbed_axis_defects", perturbed_axis),
            ("frame_pairings_conserved", frame_pairings)]


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

    def snapshot_roundtrip(tmpname="__verify_snap.bin"):
        fld = solver.GridField(grid, rng.normal(size=(grid.nt,) + grid.shape))
        solver.write_snapshot(tmpname, fld)
        back = solver.read_snapshot(tmpname)
        os.remove(tmpname)
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
        _, _, csum = recovery.interaction_series(quad.packets, p, 0.3)
        oracle = np.sum(quad.c_values(V))
        err = abs(csum - oracle) / abs(oracle)
        return err < 0.01, f"rel dev {err:.2e}"

    def richardson_exact():
        sig = np.array([0.2, 0.1, 0.05])
        vals = 1.5 + 0.3 * sig**2 + 0.02 * sig**4
        lim, flags = recovery.richardson_sigma(sig, vals)
        return abs(lim - 1.5) < 1e-10, f"limit dev {abs(lim - 1.5):.2e}"

    def cross_derivative_exact():
        def solve(eps_vec):
            e1, e2, e3 = eps_vec
            return np.array([6.0 * e1 * e2 * e3 + e1 + e2**2])

        def family(eps):
            return np.asarray(eps, dtype=float)

        st = recovery.cross_derivative(family, solve, 0.1)
        err = abs(float(st.vtau[0]) + 1.0)  # -(1/6) * 6 = -1
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
    outdir = args.out if args.out != "out" or cfg.outdir is None else cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    report = RunReport()
    mode = cfg.mode
    if args.fast_only:
        mode = "fast"
    if args.full:
        mode = "full"
    if not cfg.points:
        raise ConfigError("pipeline.points is empty")
    if cfg.metric.kind != "minkowski":
        # both routes need a flat background
        raise ConfigError(
            f"recover supports metric.kind = minkowski, got {cfg.metric.kind!r}")

    t0 = time.perf_counter()
    rec = recovery.recover_region(cfg.metric, cfg.V, cfg.points, cfg.r, cfg.T,
                                  V_true=cfg.V, sigma0=cfg.sigma0,
                                  delta=cfg.delta, ds0=cfg.ds0)
    report.stage("fast recovery", time.perf_counter() - t0)
    rec.to_csv(os.path.join(outdir, "report.csv"))
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
    _write_csv(os.path.join(outdir, "recovered_profile.csv"),
               ["p_t", "p_x1", "p_x2", "V_recovered", "V_true", "rel_err"],
               prof)

    if mode == "full":
        gp = cfg.grid_params or {"h": 0.012, "dt": None, "pad": 0.25}
        full = cfg.sections.get("full", {})
        tau = float(full.get("tau", "40"))
        t0 = time.perf_counter()
        try:
            res = recovery.full_path_interaction(
                cfg.metric, cfg.V, cfg.points[0], cfg.r, cfg.T, tau,
                delta=cfg.delta, h=gp["h"], dt=gp["dt"], pad=gp["pad"])
        except _STAGE_ERRORS as exc:
            res = None
            report.check("full vs fast interaction", False,
                         f"{type(exc).__name__}: {exc}")
        report.stage("full-route interaction", time.perf_counter() - t0)
        if res is not None:
            _write_csv(os.path.join(outdir, "full_path.csv"),
                       ["tau", "I_full", "I_fast", "rel_diff"],
                       [(tau, res.I_full, res.I_fast, res.rel_diff)])
            report.check("full vs fast interaction", res.rel_diff < 0.15,
                         f"rel diff {res.rel_diff:.3g}")
            report.diagnostic(
                "GO ratio t_j/(kappa_j tau delta^2) per packet",
                " ".join(f"{x:.3g}" for x in res.go_ratios))
            report.diagnostic("kappa_top tau h", f"{res.kh:.3g}")
            report.diagnostic("stencil group velocity at kappa_top tau h",
                              f"{res.group_velocity:.3g}")

    report.write(os.path.join(outdir, "run_report.txt"))
    print(os.path.join(outdir, "report.csv"))
    return EXIT_OK if report.all_pass() else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# dump


def _dump_beam(ident, outdir):
    if ident == "flat":
        ch = _flat_chart(span=(0.0, 1.5))
    elif ident == "perturbed":
        ms = _split_test_metric(amp=0.03)
        v = np.array([1.0, 1.0, 0.0])
        g = geo.integrate_null_geodesic(ms, np.zeros(3), v, (0.0, 1.2),
                                        steps_per_unit=400)
        ch = fermi.FermiChart(g)
    else:
        raise UsageError(f"unknown beam id {ident!r} (flat|perturbed)")
    b = beam.make_beam(ch, V=None, N=2, s0=0.5)
    path = os.path.join(outdir, f"beam_{ident}.txt")
    with open(path, "w") as fh:
        fh.write(b.manifest() + "\n")
    return path


def _dump_packet(ident, outdir):
    if ident == "free":
        V = None
    elif ident == "potential":
        def V(pts):
            return 0.3 * np.exp(-np.asarray(pts)[..., 1] ** 2 / 0.1)
    else:
        raise UsageError(f"unknown packet id {ident!r} (free|potential)")
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
    if ident != "surgery":
        raise UsageError(f"unknown source id {ident!r} (surgery)")
    m = geo.minkowski(1)
    grid = solver.Grid.for_ball(1, 1.0, 1.5, h=0.01, dt=0.004, pad=0.5)
    p = go.GOPacket(1, np.array([0.5, 0.0]), np.array([-1.0, 1.0]),
                    delta=0.2, V=None, N=2, s_range=(-1.0, 1.5))
    src, _ = sources.make_source(p, m, grid, tau=30.0, r=1.0)
    path = os.path.join(outdir, "source_surgery.snap")
    solver.write_snapshot(path, solver.GridField(grid, src.field))
    return path


def _dump_solution(ident, outdir):
    m = geo.minkowski(1)
    grid = solver.Grid.for_ball(1, 0.5, 1.0, h=0.01, dt=0.004)
    if ident == "zero":
        U = solver.GridField.zeros(grid)
    elif ident == "forced":
        x = grid.axis(0)
        fld = np.zeros((grid.nt,) + grid.shape)
        fld[: grid.nt // 4] = np.exp(-x**2 / 0.01) * (np.abs(x) < 0.2)
        U = solver.solve_forward(m, grid, None,
                                 solver.SourceTerm(grid, field=fld))
    else:
        raise UsageError(f"unknown solution id {ident!r} (zero|forced)")
    path = os.path.join(outdir, f"solution_{ident}.snap")
    solver.write_snapshot(path, U)
    back = solver.read_snapshot(path)
    if not np.array_equal(back.data, U.data):
        raise solver.SolverError("snapshot round-trip mismatch")
    return path


def cmd_dump(args):
    os.makedirs(args.out, exist_ok=True)
    handler = {"beam": _dump_beam, "packet": _dump_packet,
               "source": _dump_source, "solution": _dump_solution}[args.what]
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
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    ap = argparse.ArgumentParser(
        prog="diamondwave", parents=[common],
        description="wave-packet probing of a potential on the causal diamond")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common],
                       help="run a deterministic check suite")
    v.add_argument("suite", choices=sorted(SUITES))

    r = sub.add_parser("recover", parents=[common],
                       help="run the recovery pipeline")
    r.add_argument("config", help="experiment config file")
    r.add_argument("--fast-only", action="store_true",
                   help="force the quadrature route")
    r.add_argument("--full", action="store_true",
                   help="force the PDE route for the interaction integral")

    d = sub.add_parser("dump", parents=[common],
                       help="materialize a named object")
    d.add_argument("what", choices=["beam", "packet", "source", "solution"])
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
