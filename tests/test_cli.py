"""Command-line runner tests: config parsing, exit codes, artifacts."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diamondwave import cli, recovery, solver


# -- config parsing ----------------------------------------------------------

GOOD_CFG = """\
# comment line
[metric]
kind = minkowski
n = 2

[aperture]
r = 1.0        # trailing comment
T = 5.0

[pipeline]
points = 2.5 1.0 0.0 ; 2.4 0.9 0.1
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_sections(tmp_path):
    sec = cli.parse_config(write_cfg(tmp_path, GOOD_CFG))
    assert sec["metric"]["kind"] == "minkowski"
    assert sec["aperture"]["r"] == "1.0"
    assert "points" in sec["pipeline"]


def test_parse_config_rejects_key_outside_section(tmp_path):
    with pytest.raises(cli.ConfigError, match="outside"):
        cli.parse_config(write_cfg(tmp_path, "a = 1\n"))


def test_parse_config_rejects_duplicate_key(tmp_path):
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config(write_cfg(tmp_path, "[s]\na = 1\na = 2\n"))


def test_parse_config_rejects_bare_line(tmp_path):
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config(write_cfg(tmp_path, "[s]\nnonsense\n"))


def test_experiment_config_builds_fields(tmp_path):
    text = """\
[metric]
kind = minkowski
n = 2
[potential]
V = exp(-(x1^2 + x2^2)/0.2)
[aperture]
r = 1.0
T = 5.0
[pipeline]
points = 2.5 1.0 0.0
"""
    cfg = cli.ExperimentConfig(cli.parse_config(write_cfg(tmp_path, text)))
    assert cfg.metric.kind == "minkowski"
    p = np.array([0.3, 0.1, -0.2])
    assert cfg.V(p) == pytest.approx(np.exp(-(0.1**2 + 0.2**2) / 0.2))
    assert len(cfg.points) == 1
    with pytest.raises(cli.ConfigError, match="minkowski"):
        cli.ExperimentConfig(cli.parse_config(write_cfg(
            tmp_path, text.replace("kind = minkowski", "kind = split"))))


def test_experiment_config_cfl_gate(tmp_path):
    with pytest.raises(cli.ConfigError, match="CFL"):
        cli.ExperimentConfig(cli.parse_config(write_cfg(tmp_path, """\
[metric]
n = 2
[aperture]
r = 1.0
T = 5.0
[grid]
h = 0.01
dt = 0.009
""")))


@pytest.mark.parametrize("edit, name", [
    (lambda t: t.replace("T = 5.0\n", ""), "aperture.T"),
    (lambda t: t + "[grid]\nh = abc\ndt = 0.001\n", "grid.h"),
])
def test_experiment_config_errors_name_their_section(tmp_path, edit, name):
    with pytest.raises(cli.ConfigError, match=re.escape(name)):
        cli.ExperimentConfig(cli.parse_config(write_cfg(
            tmp_path, edit(GOOD_CFG))))


def test_experiment_config_bad_point_arity(tmp_path):
    with pytest.raises(cli.ConfigError, match="coordinates"):
        cli.ExperimentConfig(cli.parse_config(write_cfg(tmp_path, """\
[metric]
n = 2
[aperture]
r = 1.0
T = 5.0
[pipeline]
points = 2.5 1.0
""")))


@pytest.mark.parametrize("sigma0", ["0", "1.5"])
def test_experiment_config_sigma0_range(tmp_path, sigma0):
    with pytest.raises(cli.ConfigError, match="sigma0"):
        cli.ExperimentConfig(cli.parse_config(write_cfg(
            tmp_path, GOOD_CFG + f"sigma0 = {sigma0}\n")))


# -- exit codes --------------------------------------------------------------

def test_unknown_suite_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_missing_config_is_io_error(tmp_path, capsys):
    assert cli.main(["recover", str(tmp_path / "absent.cfg")]) == cli.EXIT_IO
    assert "error" in capsys.readouterr().err


def test_unknown_dump_id_is_usage_error(tmp_path, capsys):
    # a rejected id leaves no output directory behind
    out = tmp_path / "out"
    for what in ("solution", "beam"):
        code = cli.main(["dump", what, "nosuch", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert f"unknown {what} id 'nosuch'" in capsys.readouterr().err
        assert not out.exists()


# -- verify ------------------------------------------------------------------

def test_verify_writes_csv_and_passes(tmp_path, capsys):
    code = cli.main(["verify", "recovery", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    text = (tmp_path / "verify_recovery.csv").read_text()
    assert text.splitlines()[0] == "check,status,detail"
    assert "fail" not in text
    assert cli.main(["verify", "fermi", "--out", str(tmp_path)]) == cli.EXIT_OK
    rows = (tmp_path / "verify_fermi.csv").read_text().splitlines()
    assert any(r.startswith("split_jacobi_spray_vs_difference,pass,")
               for r in rows)


def test_verify_deterministic(tmp_path, capsys):
    cli.main(["verify", "recovery", "--out", str(tmp_path / "a"),
              "--seed", "7"])
    cli.main(["verify", "recovery", "--out", str(tmp_path / "b"),
              "--seed", "7"])
    a = (tmp_path / "a" / "verify_recovery.csv").read_bytes()
    b = (tmp_path / "b" / "verify_recovery.csv").read_bytes()
    assert a == b


# -- dump --------------------------------------------------------------------

def test_dump_beam_manifest_has_decay_constant(tmp_path, capsys):
    assert cli.main(["dump", "beam", "flat", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "beam_flat.txt").read_text()
    assert "measured C constant" in text


def test_dump_zero_solution_roundtrip(tmp_path, capsys):
    assert cli.main(["dump", "solution", "zero", "--out", str(tmp_path)]) == 0
    back = solver.read_snapshot(str(tmp_path / "solution_zero.snap"))
    assert back.sup_norm() == 0.0


def test_dump_packet_csv(tmp_path, capsys):
    assert cli.main(["dump", "packet", "free", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "packet_free.csv").read_text().splitlines()
    assert lines[0] == "s,t,x1,re_u,im_u"
    assert len(lines) == 252


@pytest.mark.parametrize("what, ident, name", [
    ("beam", "perturbed", "beam_perturbed.txt"),
    ("packet", "potential", "packet_potential.csv"),
    ("source", "surgery", "source_surgery.snap"),
    ("solution", "forced", "solution_forced.snap")])
def test_dump_writes_each_object(tmp_path, capsys, what, ident, name):
    assert cli.main(["dump", what, ident, "--out", str(tmp_path)]) == 0
    path = tmp_path / name
    assert capsys.readouterr().out.strip() == str(path)
    if name.endswith(".snap"):
        assert solver.read_snapshot(str(path)).sup_norm() > 0
    elif what == "beam":
        assert "measured C constant" in path.read_text()
    else:
        lines = path.read_text().splitlines()
        assert lines[0] == "s,t,x1,re_u,im_u" and len(lines) == 252


@pytest.mark.parametrize("suite", ["geometry", "go", "beam", "solver",
                                   "sources"])
def test_verify_suite_passes_and_writes_only_under_out(tmp_path, suite):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "diamondwave.cli", "verify", suite,
         "--out", "out"], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=120)
    assert run.returncode == cli.EXIT_OK, run.stderr
    rows = (tmp_path / "out" / f"verify_{suite}.csv").read_text() \
        .splitlines()[1:]
    assert rows and all(r.split(",")[1] == "pass" for r in rows)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert [p.name for p in (tmp_path / "out").iterdir()] == \
        [f"verify_{suite}.csv"]


def test_verify_solver_snapshot_is_not_written_to_cwd(tmp_path, monkeypatch,
                                                     capsys):
    written = []
    write = solver.write_snapshot

    def recording(path, field):
        written.append(os.path.abspath(path))
        return write(path, field)
    monkeypatch.setattr(solver, "write_snapshot", recording)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert cli.main(["verify", "solver", "--out",
                     str(tmp_path / "out")]) == cli.EXIT_OK
    assert written
    assert all(not p.startswith(str(cwd)) for p in written)


# -- recover -----------------------------------------------------------------

RECOVER_CFG = """\
[metric]
kind = minkowski
n = 2
[potential]
V = exp(-((x1-1.0)^2 + x2^2)/0.16)
[aperture]
r = 1.0
T = 5.0
[pipeline]
mode = fast
points = 2.5 1.0 0.0
"""


def test_recover_smoke(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, RECOVER_CFG)
    code = cli.main(["recover", cfgp, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    report = (tmp_path / "out" / "report.csv").read_text()
    assert "V_recovered" in report.splitlines()[0]
    prof = (tmp_path / "out" / "recovered_profile.csv").read_text().splitlines()
    assert len(prof) == 2
    rel_err = float(prof[1].split(",")[-1])
    assert rel_err < 0.10
    rr = (tmp_path / "out" / "run_report.txt").read_text()
    assert "stage timings" in rr and "pass" in rr


def test_recover_deterministic(tmp_path, capsys):
    # the README's promise, end to end: identical configs give
    # bit-identical CSV output
    cfgp = write_cfg(tmp_path, RECOVER_CFG)
    for run in ("a", "b"):
        assert cli.main(["recover", cfgp,
                         "--out", str(tmp_path / run)]) == cli.EXIT_OK
    for name in ("report.csv", "recovered_profile.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_recover_rejects_split_metric(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, RECOVER_CFG.replace(
        "kind = minkowski", "kind = split\nbeta = 1 + 0.05*sin(x1)"))
    assert cli.main(["recover", cfgp, "--out", str(tmp_path / "out")]) \
        == cli.EXIT_IO
    assert "minkowski" in capsys.readouterr().err


def test_recover_rejects_code_in_potential(tmp_path, capsys):
    # the grammar is checked on the syntax tree before anything runs
    target = tmp_path / "created"
    cfgp = write_cfg(tmp_path, RECOVER_CFG.replace(
        "V = ", f"V = __import__('pathlib').Path('{target}').touch() or "))
    assert cli.main(["recover", cfgp, "--out", str(tmp_path / "out")]) \
        == cli.EXIT_IO
    assert not target.exists()
    assert "__import__" in capsys.readouterr().err


def test_recover_sigma0_out_of_range_is_config_error(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, RECOVER_CFG + "sigma0 = 0\n")
    assert cli.main(["recover", cfgp, "--out", str(tmp_path / "out")]) \
        == cli.EXIT_IO


def test_recover_every_point_failing_exits_numerical(tmp_path, monkeypatch,
                                                     capsys):
    def fail(*args, **kwargs):
        raise recovery.RecoveryError("vanishing interaction weight I0")
    monkeypatch.setattr(recovery, "recover_point", fail)
    cfgp = write_cfg(tmp_path, RECOVER_CFG)
    out = tmp_path / "out"
    assert cli.main(["recover", cfgp, "--out", str(out)]) \
        == cli.EXIT_NUMERICAL
    assert "failed: vanishing" in (out / "report.csv").read_text()
    assert "point (2.5, 1.0, 0.0): FAIL" in (out / "run_report.txt").read_text()


def test_recover_full_stage_failure_keeps_reports(tmp_path, monkeypatch,
                                                  capsys):
    def blow_up(*args, **kwargs):
        raise solver.SolverError("nonlinear solution left smallness regime")
    monkeypatch.setattr(recovery, "full_path_interaction", blow_up)
    cfgp = write_cfg(tmp_path, RECOVER_CFG.replace("mode = fast",
                                                   "mode = full"))
    out = tmp_path / "out"
    assert cli.main(["recover", cfgp, "--out", str(out)]) \
        == cli.EXIT_NUMERICAL
    rr = (out / "run_report.txt").read_text()
    assert "point (2.5, 1.0, 0.0): pass" in rr
    assert "full vs fast interaction: FAIL (SolverError: nonlinear" in rr
    assert "V_recovered" in (out / "report.csv").read_text()
    assert not (out / "full_path.csv").exists()


def test_recover_full_writes_regime_diagnostics(tmp_path, monkeypatch,
                                                capsys):
    # the full-route stage reports the GO ratios, kh, the stencil's group
    # velocity and I_fast order by order in 1/tau next to its failing gate
    def fake(*args, **kwargs):
        return recovery.FullPathResult(
            4.1e-6 + 0j, [3.8e-4, 4.2e-3j, -7.2e-3, 4.5e-2j, 0.2], None, None,
            np.array([6.25, 0.694, 1.25, 1.25]), 1.56, 0.1 / 0.012,
            I_check=4e-6 + 0j)
    monkeypatch.setattr(recovery, "full_path_interaction", fake)
    cfgp = write_cfg(tmp_path, RECOVER_CFG.replace("mode = fast",
                                                   "mode = full"))
    out = tmp_path / "out"
    assert cli.main(["recover", cfgp, "--out", str(out)]) \
        == cli.EXIT_NUMERICAL
    rr = (out / "run_report.txt").read_text()
    assert "GO ratio t_j/(kappa_j tau delta^2) per packet: " \
        "6.25 0.694 1.25 1.25" in rr
    assert "kappa_top tau h: 1.56" in rr
    assert "stencil group velocity at kappa_top tau h: 0.876" in rr
    assert "envelope resolution delta/h: 8.33" in rr
    assert "stencil error on the bump at delta/h: 0.277" in rr
    assert "full vs fast interaction: FAIL (rel diff 1)" in rr
    assert "I_check (eps -> 0 coefficient march): 4e-06+0j" in rr
    assert "eps truncation |I_full - I_check|/|I_check|: 0.025\n" \
        "  |I_k tau^-k| of I_fast, k = 0..4: " \
        "0.00038 0.0042 0.0072 0.045 0.2\n" in rr


def test_recover_full_without_grid_section_uses_library_defaults(
        tmp_path, monkeypatch, capsys):
    # a bare full run passes no grid keywords, so the grid step and padding
    # are those of recovery.full_path_interaction
    seen = {}

    def fake(*args, **kwargs):
        seen.update(kwargs)
        raise solver.SolverError("stop")
    defaults = inspect.signature(recovery.full_path_interaction).parameters
    monkeypatch.setattr(recovery, "full_path_interaction", fake)
    cfgp = write_cfg(tmp_path, RECOVER_CFG.replace("mode = fast",
                                                   "mode = full"))
    cli.main(["recover", cfgp, "--out", str(tmp_path / "out")])
    assert seen and not {"h", "dt", "pad"} & set(seen)
    assert [defaults[k].default for k in ("h", "dt", "pad")] == \
        [0.012, None, 0.25]


def set_entry(text, section, key, value):
    """`text` with `key = value` in [section] (replaced when present)."""
    line = re.search(rf"^{key} = .*$", text, re.M)
    if line:
        return text.replace(line.group(0), f"{key} = {value}")
    return text + f"[{section}]\n{key} = {value}\n"


GRID_CFG = "[grid]\nh = 0.012\ndt = 0.004\n"


@pytest.mark.parametrize("section, key, value", [
    ("metric", "n", "two"), ("metric", "n", "2.5"),
    ("packets", "delta", "abc"), ("pipeline", "sigma0", "0.1x"),
    ("pipeline", "ds0", "small"), ("pipeline", "points", "2.5 x 0.0"),
    ("grid", "pad", "wide"), ("full", "tau", "forty")])
def test_recover_non_numeric_value_is_config_error(tmp_path, capsys, section,
                                                   key, value):
    base = RECOVER_CFG + (GRID_CFG if section == "grid" else "")
    cfgp = write_cfg(tmp_path, set_entry(base, section, key, value))
    assert cli.main(["recover", cfgp, "--out", str(tmp_path / "out")]) \
        == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{section}.{key}" in err


@pytest.mark.parametrize("section, key, value", [
    ("pipeline", "ds0", "0"), ("pipeline", "ds0", "-0.05"),
    ("pipeline", "ds0", "nan"), ("packets", "delta", "-0.1"),
    ("packets", "delta", "0"), ("grid", "dt", "0"), ("grid", "dt", "-0.004"),
    ("grid", "h", "0"), ("grid", "h", "-0.012"), ("grid", "pad", "-0.1"),
    ("full", "tau", "0"), ("pipeline", "points", "")])
def test_recover_degenerate_step_is_config_error(tmp_path, capsys, section,
                                                 key, value):
    base = RECOVER_CFG + (GRID_CFG if section == "grid" else "")
    cfgp = write_cfg(tmp_path, set_entry(base, section, key, value))
    out = tmp_path / "out"
    assert cli.main(["recover", cfgp, "--out", str(out)]) == cli.EXIT_IO
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("r", "0"), ("T", "-1")])
def test_recover_aperture_must_be_positive(tmp_path, capsys, key, value):
    cfgp = write_cfg(tmp_path, set_entry(RECOVER_CFG, "aperture", key, value))
    out = tmp_path / "out"
    assert cli.main(["recover", cfgp, "--out", str(out)]) == cli.EXIT_IO
    assert f"aperture.{key} must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_recover_writes_only_to_out(tmp_path, monkeypatch, capsys):
    # `--out` is the only output directory, also when it is given as its
    # default
    cfgp = write_cfg(tmp_path, RECOVER_CFG)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["recover", cfgp, "--out", "out"]) == cli.EXIT_OK
    assert (tmp_path / "out" / "report.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "out"]


@pytest.mark.parametrize("extra, name", [
    ("sigma_0 = 0.5\n", "unknown key pipeline.sigma_0"),
    ("[pipline]\nsigma0 = 0.5\n", "unknown section [pipline]"),
    ("[output]\ndir = elsewhere\n", "unknown section [output]"),
    ("[grid]\nh = 0.04\ndt = 0.004\nstep = 2\n", "unknown key grid.step")])
def test_recover_unknown_entry_is_config_error(tmp_path, monkeypatch, capsys,
                                               extra, name):
    # an entry that no reader takes would otherwise run with the defaults
    cfgp = write_cfg(tmp_path, RECOVER_CFG + extra)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["recover", cfgp, "--out", "out"]) == cli.EXIT_IO
    assert name in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


FULL_CFG = """\
[metric]
n = 2
[potential]
V = 0.5*exp(-((x1-0.9)^2 + x2^2)/0.16)
[aperture]
r = 0.8
T = 2.0
[pipeline]
points = 1.0 0.9 0.0
[grid]
h = 0.04
dt = 0.004
[full]
tau = 10
"""


def test_recover_full_end_to_end_is_deterministic(tmp_path, capsys):
    # a real coarse `recover --full`, run twice: its CSVs are bit-identical
    # and its report differs only in the stage timings.  The full vs fast
    # gate fails at this coarse configuration (exit 3).
    cfgp = write_cfg(tmp_path, FULL_CFG)
    for run in ("a", "b"):
        assert cli.main(["recover", cfgp, "--full",
                         "--out", str(tmp_path / run)]) == cli.EXIT_NUMERICAL
    for name in ("full_path.csv", "report.csv", "recovered_profile.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    reports = []
    for run in ("a", "b"):
        stages, rest = (tmp_path / run / "run_report.txt").read_text() \
            .split("flags\n", 1)
        assert [line.split(":")[0] for line in stages.splitlines()] == \
            ["stage timings (s)", "  fast recovery",
             "  full-route interaction"]
        reports.append(rest)
    assert reports[0] == reports[1]
    rr = reports[0]
    assert "GO ratio t_j/(kappa_j tau delta^2) per packet: " in rr
    # delta = 0.1 on h = 0.04
    assert "envelope resolution delta/h: 2.5\n" in rr
    assert "stencil error on the bump at delta/h: 0.735\n" in rr
    assert "I_check (eps -> 0 coefficient march): " in rr
    trunc = re.search(r"eps truncation \|I_full - I_check\|/\|I_check\|: "
                      r"(\S+)", rr)
    assert 0 < float(trunc.group(1)) < 1e-3
    # each order's term, on the line after the eps truncation
    orders = re.search(r"eps truncation .*\n  \|I_k tau\^-k\| of I_fast, "
                       r"k = 0\.\.4: (.*)\n", rr)
    assert len(orders.group(1).split()) == 5
    assert "full vs fast interaction: FAIL (rel diff 1)" in rr
    header, row = (tmp_path / "a" / "full_path.csv").read_text().splitlines()
    assert header == "tau,I_full,I_fast,rel_diff,I_check,eps_truncation"
    assert float(row.split(",")[-1]) == pytest.approx(float(trunc.group(1)),
                                                      rel=1e-2)


@pytest.mark.parametrize("n", ["1", "4"])
def test_recover_unsupported_dimension_is_config_error(tmp_path, capsys, n):
    # both routes need n >= 2 and the geometry stops at n = 3
    cfgp = write_cfg(tmp_path, set_entry(RECOVER_CFG, "metric", "n", n))
    out = tmp_path / "out"
    assert cli.main(["recover", cfgp, "--out", str(out)]) == cli.EXIT_IO
    assert "metric.n must be 2 or 3" in capsys.readouterr().err
    assert not out.exists()


def test_recover_route_flags_are_exclusive(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, RECOVER_CFG)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["recover", cfgp, "--fast-only", "--full", "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()
