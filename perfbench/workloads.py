"""The three benchmark workloads: inputs from a seed, one operation, checks.

Each workload is a closed loop with one client: `items` lists the inputs
of its operations, which the runner cycles through, starting the next
operation when the previous one returns.  The inputs mirror the
acceptance configurations of the test suite and are copied here so the
benchmark stays fixed while the tests evolve.

Operations call the library through module attributes (`recovery.X`,
`beam.X`) so that traced runs see the wrapped entry points.
"""

import csv
import io

import numpy as np

from diamondwave import beam, exprs, fermi, recovery, sources
from diamondwave import geometry as geo

R, T = 1.0, 5.0
V_TEXT = "exp(-((x1-1.1)^2 + x2^2)/0.16)"
RECOVERY_POINTS = [
    (2.5, 1.05, 0.0),
    (2.5, 1.15, 0.0),
    (2.5, 1.05, 0.2),
    (2.4, 1.10, -0.1),
    (2.6, 1.10, 0.1),
]
FULL_ROUTE_ARGS = dict(p=(1.0, 0.9, 0.0), r=0.8, T=2.0, sigma=0.6,
                       delta=0.10, h=0.012, rho=0.06)
FULL_ROUTE_TAU = 40.0
BEAM_TAUS = [10, 20, 40, 80, 160]


def fmt(x):
    """A float to 17 significant digits, enough to round-trip exactly."""
    return format(float(x), ".17g")


class FastRecovery:
    """Fast-route point recovery: quadrature and expression evaluation."""

    name = "fast_recovery"

    def __init__(self, seed):
        self.metric = geo.minkowski(2)
        # parsed the way `diamondwave recover` parses a config potential
        self.V = exprs.ScalarField.from_text(V_TEXT, 2)
        if seed == 0:
            self.items = [tuple(p) for p in RECOVERY_POINTS]
        else:
            pts = np.array(RECOVERY_POINTS)
            rng = np.random.default_rng(seed)
            draw = rng.uniform(pts.min(axis=0), pts.max(axis=0),
                               size=pts.shape)
            self.items = [tuple(float(c) for c in p) for p in draw]

    def key(self, p):
        return "p=" + ",".join(fmt(c) for c in p)

    def warm_up(self):
        """Zero-potential control at the first point; |V| must be < 5e-3."""
        v0, _, _ = recovery.recover_point(self.metric, None,
                                          np.array(self.items[0]), R, T)
        return {"zero_control": abs(v0), "zero_control_ok": abs(v0) < 5e-3}

    def run(self, p):
        return recovery.recover_region(self.metric, self.V, [p], R, T,
                                       V_true=self.V)

    def outputs(self, report):
        """Summary values of the point; raises when the point failed."""
        rows = report.summary_rows()
        if len(rows) != 1:
            raise RuntimeError(f"point failed: {report.rows[-1]['flags']}")
        row = rows[0]
        out = {k: float(row[k]) for k in ("V_recovered", "line_integral",
                                          "rel_err")}
        if not all(np.isfinite(v) for v in out.values()):
            raise RuntimeError("non-finite recovery output")
        return out

    def fingerprint(self, report):
        out = self.outputs(report)
        return {"V_recovered": fmt(out["V_recovered"]),
                "line_integral": fmt(out["line_integral"])}

    @staticmethod
    def rows_text(report):
        """The report rows exactly as `RecoveryReport.to_csv` writes them."""
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=recovery.REPORT_COLUMNS)
        w.writerows(report.rows)
        return buf.getvalue()

    def check(self, done, warm):
        """Gates of the acceptance test over the points run.

        `done` is [(p, report)] of the successful operations.  Each line
        integral must lie within 5 % of the quadrature oracle, and the
        median relative error must stay below 0.10.  A second pass over the
        first point must reproduce its report rows bit for bit.
        """
        worst = 0.0
        for p, report in done:
            p = np.asarray(p, dtype=float)
            ret = sources.find_returning_geodesics(self.metric, p, R, T)
            s0 = p[0] - ret.q_minus[0]
            direction = (p[1:] - ret.q_minus[1:]) / s0
            oracle = recovery.PacketQuad(p, s0, direction, 0.1, V=self.V) \
                .target_line_integral(self.V)
            got = self.outputs(report)["line_integral"]
            worst = max(worst, abs(got - oracle) / abs(oracle))
        errs = [self.outputs(r)["rel_err"] for _, r in done]
        med = float(np.median(errs)) if errs else np.nan
        checks = dict(warm)
        checks.update({
            "median_rel_err": med, "median_rel_err_ok": med < 0.10,
            "line_integral_max_rel_dev": worst,
            "line_integrals_ok": worst <= 0.05,
        })
        if done:
            p, first = done[0]
            again = self.run(p)
            checks["repeat_identical_ok"] = \
                self.rows_text(again) == self.rows_text(first)
        return checks


class FullRoute:
    """PDE route at the acceptance configuration: marches and surgery."""

    name = "full_route"

    def __init__(self, seed):
        # the acceptance configuration is fixed; the seed changes nothing
        self.metric = geo.minkowski(2)
        self.items = [FULL_ROUTE_TAU]

    def key(self, tau):
        return f"tau={fmt(tau)}"

    def warm_up(self):
        return {}

    def run(self, tau):
        # check=True runs the epsilon-Richardson gate, which raises on failure
        return recovery.full_path_interaction(self.metric, None, tau=tau,
                                              check=True, **FULL_ROUTE_ARGS)

    def outputs(self, res):
        out = {"I_full": complex(res.I_full), "I_fast": complex(res.I_fast),
               "rel_diff": float(res.rel_diff)}
        if not (np.isfinite(out["I_full"]) and np.isfinite(out["I_fast"])):
            raise RuntimeError("non-finite interaction integral")
        return out

    def fingerprint(self, res):
        out = self.outputs(res)
        return {"I_full_re": fmt(out["I_full"].real),
                "I_full_im": fmt(out["I_full"].imag),
                "I_fast_re": fmt(out["I_fast"].real),
                "I_fast_im": fmt(out["I_fast"].imag)}

    def check(self, done, warm):
        """The epsilon gate ran and I_full is finite (both enforced by
        `outputs`).  The full-vs-fast gate (< 0.15) is reported under its
        own name and does not enter `correct`: it fails at the acceptance
        configuration, a known open defect of the full route."""
        diffs = [self.outputs(res)["rel_diff"] for _, res in done]
        rel = max(diffs) if diffs else np.nan
        return {"epsilon_gate_ran_ok": bool(done),
                "full_rel_diff": rel,
                "full_vs_fast_gate": "PASS" if rel < 0.15 else "FAIL"}


class CurvedBeam:
    """Gaussian beam on a perturbed split metric: geometry, fermi, beam."""

    name = "curved_beam"

    def __init__(self, seed):
        # fixed inputs: the perturbed chart of the acceptance tests
        amp = 0.05
        self.metric = geo.SplitMetric(
            2,
            beta=lambda x: 1 + amp * np.sin(np.asarray(x)[..., 1]),
            gmat=lambda x: (1 + amp * np.cos(np.asarray(x)[..., 0]
                                             + 0.5 * np.asarray(x)[..., 2]))
            [..., None, None] * np.eye(2),
        )
        center = np.array([1.0, 1.0, 0.0])

        def V(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-np.sum((x - center) ** 2, axis=-1) / 0.5**2)
        self.V = V
        self.items = [4]

    def key(self, N):
        return f"N={N}"

    def warm_up(self):
        return {}

    def run(self, N):
        """Chart along the null geodesic, beam of order N, residual fit."""
        p = np.zeros(3)
        v = np.array([1.0, np.sqrt(float(self.metric.beta(p))
                                   / float(self.metric.gmat(p)[0, 0])), 0.0])
        g = geo.integrate_null_geodesic(self.metric, p, v, (0.0, 1.5),
                                        steps_per_unit=400)
        chart = fermi.FermiChart(g)
        b = beam.make_beam(chart, V=self.V, N=N)
        return beam.beam_residual_scaling(b, self.V, BEAM_TAUS)

    def outputs(self, res):
        out = {"slope": res["slope"], "fit_residual": res["fit_residual"],
               "sup_ratio": max(res["sup_u"]) / min(res["sup_u"])}
        if not all(np.isfinite(v) for v in out.values()):
            raise RuntimeError("non-finite residual fit")
        return out

    def fingerprint(self, res):
        return {k: fmt(v) for k, v in self.outputs(res).items()}

    def check(self, done, warm):
        outs = [self.outputs(res) for _, res in done]
        slope = max(o["slope"] for o in outs) if outs else np.nan
        fitres = max(o["fit_residual"] for o in outs) if outs else np.nan
        ratio = max(o["sup_ratio"] for o in outs) if outs else np.nan
        return {"beam_residual_slope": slope, "slope_ok": slope <= -1.2,
                "fit_residual": fitres, "fit_residual_ok": fitres < 0.2,
                "sup_ratio": ratio, "sup_ratio_ok": ratio < 1.5}


WORKLOADS = {w.name: w for w in (FastRecovery, FullRoute, CurvedBeam)}
