import dataclasses
import errno
import io
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls
from finslerkit import cli, geodesic
from finslerkit.classifier import ClassifierConsistencyError, classify
from finslerkit.cli import build_parser, cmd_classify, main
from finslerkit.config import ConfigError, load_config
from finslerkit.expr import DomainError, ExprSyntaxError
from finslerkit.geodesic import SegmentDomainError
from finslerkit.hypersurface import OffSurfaceError
from finslerkit.metric import DegenerateMetricError, FamilyDomainError, SpaceSpec
from finslerkit.tensors import AuditParams, SingularCoefficientError, audit_sweep

PLANE_CFG = """
[space]
family = generalized-square
k = 1
a_row = 1, 0, 0
a_row = 0, 1, 0
a_row = 0, 0, 1
b_potential = 0.1*x3

[hypersurface]
potential = 0.1*x3
level = 0

[audit]
samples = 30
seed = 7

[classify]
points = 6
directions = 3
seed = 11
tol = 1e-8

[tensors]
flag = 0, 0, 0 ; 1, 0, 0
"""

RADIAL_CFG = """
[space]
family = generalized-square
k = 1
a_row = 1, 0, 0
a_row = 0, 1, 0
a_row = 0, 0, 1
b_potential = (x1^2 + x2^2 + x3^2)/2

[hypersurface]
potential = (x1^2 + x2^2 + x3^2)/2
level = 0.5

[classify]
points = 6
directions = 3
seed = 11
"""

GEO_CFG = """
[space]
family = randers
k = 1
a_row = 1, 0
a_row = 0, 1
b = 0.1, 0

[geodesic]
start = 0, 0
end = 1, 0
segments = 6
iters = 400
tol = 1e-6
seed = 1
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _e5_with(tmp_path, **settings):
    """configs/e5.cfg with the line of each key in ``settings`` set to its value."""
    text = (Path(__file__).resolve().parents[1] / "configs" / "e5.cfg").read_text()
    for key, value in settings.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    return _write(tmp_path, text)


def test_classify_plane_exits_zero(tmp_path, capsys):
    code = main(["classify", "--config", _write(tmp_path, PLANE_CFG)])
    out = capsys.readouterr().out
    assert code == 0
    assert "first kind : PASS" in out
    assert "second kind: PASS" in out
    assert "third kind : IMPOSSIBLE" in out


def test_classify_radial_exits_one(tmp_path, capsys):
    code = main(["classify", "--config", _write(tmp_path, RADIAL_CFG)])
    out = capsys.readouterr().out
    assert code == 1
    assert "first kind : FAIL" in out


LOG_CFG = """
[space]
family = generalized-square
k = 2
a_row = 1, 0, 0
a_row = 0, 1, 0
a_row = 0, 0, 1
b_potential = log(x1 + 1.2) + 0.1*x2

[hypersurface]
level = -1.386294
"""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classify_rejects_seeds_whose_newton_steps_leave_the_domain(tmp_path, capsys, seed):
    # the level set lies inside the sample box, but Newton steps from some
    # seeds reach x1 + 1.2 <= 0: those seeds are failed tries, not an error
    out = tmp_path / "rows.csv"
    code = main(["classify", "--config", _write(tmp_path, LOG_CFG), "--seed", str(seed),
                 "--out", str(out)])
    assert code in (0, 1), capsys.readouterr().err
    assert "25 surface points" in capsys.readouterr().out
    rows = out.read_text().splitlines()[2:]
    assert sorted({int(r.split(",")[0]) for r in rows}) == list(range(1, 26))
    cfg = load_config(_write(tmp_path, LOG_CFG))
    report = classify(cfg.surface, cfg.space, dataclasses.replace(cfg.classify_options, seed=seed))
    assert len(report.points) == 25
    assert np.abs(cfg.surface.value(report.points) - cfg.surface.level).max() <= 1e-12


def test_audit_exits_zero_with_single_informational_row(tmp_path, capsys):
    code = main(["audit", "--config", _write(tmp_path, PLANE_CFG)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("FAIL-known-misprint-informational") == 1
    assert out.count(" PASS") >= 5
    assert "overall: PASS" in out


def test_tensors_rejects_zero_direction(tmp_path, capsys):
    bad = PLANE_CFG.replace("flag = 0, 0, 0 ; 1, 0, 0", "flag = 0, 0, 0 ; 0, 0, 0")
    code = main(["tensors", "--config", _write(tmp_path, bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "nonzero" in err


@pytest.mark.parametrize("family, potential, flag, failed", [
    ("generalized-square", "(10*x3)^400", "0.2, -0.1, 0.4 ; 0.3, 1, -0.2", "g positive definite"),
    # Randers' family domain is alpha + beta > 0, that is F > 0
    ("randers", "2*x3", "0, 0, 0 ; 0, 0, -1", "family domain"),
    ("randers", "x3", "0, 0, 0 ; 0, 0, -1", "family domain"),
    ("matsumoto", "2*x3", "0, 0, 0 ; 0, 0, 1", "family domain"),
], ids=["b2-overflows", "randers-F-negative", "randers-F-zero", "matsumoto-beta-above-alpha"])
def test_tensors_refuses_a_flag_that_fails_the_validity_check(tmp_path, capsys, family,
                                                               potential, flag, failed):
    # before: b^2 = inf printed NaN fields with exit 0, a Randers flag with F <= 0 its
    # tensors, and a flag outside the Matsumoto domain named only the family; the valid
    # flag1 is not printed either
    cfg = PLANE_CFG.replace("family = generalized-square", f"family = {family}").replace(
        "b_potential = 0.1*x3", f"b_potential = {potential}").replace(
        "flag = 0, 0, 0 ; 1, 0, 0", f"flag = 0, 0, 0 ; 1, 0, 0\nflag = {flag}")
    assert main(["tensors", "--config", _write(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    line = cfg.splitlines().index(f"flag = {flag}") + 1  # the failing flag's config line
    assert captured.err == f"error: line {line}: flag2 fails the validity check: {failed}\n"
    assert captured.out == ""


def test_tensors_writes_fixed_columns(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code = main(["tensors", "--config", _write(tmp_path, PLANE_CFG), "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "context,quantity,i,j,k,value"
    assert any(line.startswith("flag1,g,1,1,,") for line in lines)
    assert any(line.startswith("flag1,C,1,1,1,") for line in lines)


def test_geodesic_command(tmp_path, capsys):
    code = main(["geodesic", "--config", _write(tmp_path, GEO_CFG)])
    out = capsys.readouterr().out
    assert code == 0
    assert "length = 1.1" in out
    assert "converged = True" in out


def test_geodesic_out_of_iterations_is_not_converged(tmp_path, capsys):
    # one Newton step on the curved e5 space leaves the gradient above tol
    code = main(["geodesic", "--config", _e5_with(tmp_path, iters=1)])
    out = capsys.readouterr().out
    assert code == 1
    assert "  converged = False (iteration budget exhausted)\n" in out
    assert " after 1 iterations\n" in out


def test_geodesic_whose_every_trial_fails_stalls(tmp_path, capsys, monkeypatch):
    # the start polyline's jet passes; every trial after it leaves the domain, so the
    # damping grows past its bound without an accepted step
    real, calls = geodesic._length_derivatives, []

    def failing(spec, nodes, across):
        calls.append(nodes)
        if len(calls) > 1:
            raise ArithmeticError("trial outside the domain")
        return real(spec, nodes, across)

    monkeypatch.setattr(geodesic, "_length_derivatives", failing)
    code = main(["geodesic", "--config", _e5_with(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "  converged = False (line search stalled: persistent step rejection)\n" in out
    assert " after 1 iterations\n" in out and len(calls) > 2


def test_geodesic_whose_initial_polyline_leaves_the_domain_is_an_error(tmp_path, capsys):
    # the chord to (-1, 0.2) has beta = x-component < 0 from its first segment on
    cfg = GEO_CFG.replace("family = randers", "family = kropina").replace(
        "b = 0.1, 0", "b = 1, 0").replace("end = 1, 0", "end = -1, 0.2")
    out_file = tmp_path / "out.csv"
    code = main(["geodesic", "--config", _write(tmp_path, cfg), "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: segment 0: ")
    assert not re.search(r"\b(nan|inf)\b", captured.out, re.IGNORECASE)
    assert not out_file.exists()


def test_machine_output_is_byte_identical_across_runs(tmp_path, capsys):
    cfg = _write(tmp_path, PLANE_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["classify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["classify", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "# seed=11"
    assert out1.read_text().splitlines()[1] == "point-index,test,residual,verdict"


@pytest.mark.parametrize("command, config, status", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in (
        ("tensors", "e1", 0), ("audit", "e1", 0), ("classify", "e2", 0),
        ("classify", "e4", 1),  # first kind with c orthogonal to b; second kind fails
        ("geodesic", "geodesic_randers", 0),
        ("classify", "e5", 1),  # first kind on a curved a; second kind fails
        ("geodesic", "e5", 0),
    )
])
def test_shipped_config_output_is_byte_identical_across_runs(
    tmp_path, capsys, command, config, status
):
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.cfg")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([command, "--config", cfg, "--out", str(out1)]) == status
    assert main([command, "--config", cfg, "--out", str(out2)]) == status
    capsys.readouterr()
    assert out1.stat().st_size > 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_is_recorded(tmp_path, capsys):
    cfg = _write(tmp_path, PLANE_CFG)
    out_file = tmp_path / "rows.csv"
    assert main(["classify", "--config", cfg, "--seed", "99", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text().splitlines()[0] == "# seed=99"


def test_overrides_leave_the_loaded_config_unchanged(tmp_path, capsys):
    cfg = load_config(_write(tmp_path, PLANE_CFG))
    args = build_parser().parse_args(
        ["classify", "--config", "unused.cfg", "--seed", "99", "--tol", "1e-6"])
    assert cmd_classify(cfg, args) == 0
    assert "seed=99, tol=1.0e-06" in capsys.readouterr().out
    assert (cfg.classify_options.seed, cfg.classify_options.tol) == (11, 1e-8)


def test_main_parses_with_the_one_parser_of_the_process(tmp_path, capsys, monkeypatch):
    # an override given on one call does not carry over to the next
    monkeypatch.setattr(cli, "build_parser", None)  # main must not build another
    cfg = _write(tmp_path, PLANE_CFG)
    assert main(["classify", "--config", cfg, "--seed", "99"]) == 0
    assert "seed=99" in capsys.readouterr().out
    assert main(["classify", "--config", cfg]) == 0
    assert "seed=11" in capsys.readouterr().out


def test_audit_sweep_default_seed_is_the_cli_default(tmp_path, capsys):
    cfg = PLANE_CFG.replace("seed = 7\n", "")
    assert main(["audit", "--config", _write(tmp_path, cfg)]) == 0
    assert "seed=2024" in capsys.readouterr().out
    assert audit_sweep(load_config(_write(tmp_path, cfg)).space, AuditParams()).seed == 2024


@pytest.mark.parametrize("command, flag", [
    ("audit", "--tol"), ("tensors", "--tol"), ("tensors", "--seed"),
])
def test_override_a_command_ignores_is_refused(tmp_path, capsys, command, flag):
    out_file = tmp_path / "rows.csv"
    argv = [command, "--config", _write(tmp_path, PLANE_CFG), flag, "5", "--out", str(out_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} does not apply to {command}\n"
    assert captured.out == "" and not out_file.exists()


def test_override_help_names_the_commands_it_applies_to():
    text = build_parser().format_help()
    assert "override the seed (audit, classify, geodesic)" in text
    assert "override the tolerance (classify, geodesic)" in text


@pytest.mark.parametrize("error", [
    ConfigError, DomainError, ExprSyntaxError, DegenerateMetricError, FamilyDomainError,
    SingularCoefficientError, SegmentDomainError, ClassifierConsistencyError, OffSurfaceError,
])
def test_library_errors_exit_with_status_two(error):
    assert issubclass(error, cli._ERRORS)


def test_missing_config_is_an_error(tmp_path, capsys):
    code = main(["classify", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "no such config" in capsys.readouterr().err


def test_version_is_the_pyproject_version(capsys):
    # the version lives in pyproject.toml and in the package root; they must agree
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text())["project"]["version"]
    with pytest.raises(SystemExit) as done:
        main(["--version"])
    assert done.value.code == 0
    assert capsys.readouterr().out == f"finslerkit {version}\n"


def test_classify_prints_a_small_witness_as_nonzero(tmp_path, capsys):
    # configs/e5.cfg with a steeper 1-form: its witness is below 5e-7, which a
    # fixed-point format would print as 0.000000 beside IMPOSSIBLE
    path = Path(__file__).resolve().parents[1] / "configs" / "e5.cfg"
    text = re.sub(r"(?m)^b_potential = .*$", "b_potential = 0.2*x3*exp(20*x1)",
                  path.read_text())
    assert main(["classify", "--config", _write(tmp_path, text)]) == 1
    printed = re.search(r"third kind : IMPOSSIBLE \(witness min \|\|M_ab\|\| = (\S+)\)\n",
                        capsys.readouterr().out).group(1)
    assert re.fullmatch(r"\d\.\d{3}e[+-]\d\d", printed) and 0.0 < float(printed) < 5e-7


@pytest.mark.filterwarnings("error")
def test_geodesic_whose_start_polyline_overflows_is_an_error(tmp_path, capsys):
    # before: exit 1, "length = inf" and "gradient max-norm = nan" after 11 RuntimeWarnings
    out_file = tmp_path / "out.csv"
    code = main(["geodesic", "--config", _e5_with(tmp_path, b_potential="0.2*x3*exp(500*x1)"),
                 "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out_file.exists()
    assert re.fullmatch(r"error: segment \d+: F or its jet is not finite\n", captured.err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("potential", ["1000*x3*exp(300*x1)", "0.2*x3*exp(500*x1)"])
def test_classify_whose_second_kind_fit_overflows_is_an_error(tmp_path, capsys, potential):
    # before: RuntimeWarnings, a fitted e of 0 where (b^2)^2 overflowed, then
    # "error: degenerate fundamental tensor" with no point
    code = main(["classify", "--config", _e5_with(tmp_path, b_potential=potential)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    named = re.fullmatch(r"error: the second-kind fit overflows at x=\[(.*)\]: b\^2 = (\S+)\n",
                         captured.err)
    x = [float(c) for c in named.group(1).split(",")]
    assert abs(x[2]) < 1e-12 and float(named.group(2)) > 1e150  # on the surface x3 = 0


@pytest.mark.filterwarnings("error")
def test_classify_whose_normal_cannot_be_normalized_names_the_point(tmp_path, capsys):
    # before: "error: degenerate fundamental tensor: cannot normalize the normal", no point
    code = main(["classify", "--config", _e5_with(tmp_path, b_potential="0.2*x3*exp(25*x1)")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    named = re.fullmatch(r"error: degenerate fundamental tensor: cannot normalize the normal "
                         r"at x=\[(.*)\]: b\^2 = (\S+)\n", captured.err)
    x = [float(c) for c in named.group(1).split(",")]
    assert abs(x[2]) < 1e-12 and float(named.group(2)) > 1e10  # on the surface x3 = 0


@pytest.mark.filterwarnings("error")
def test_classify_whose_first_kind_factor_deviates_names_the_worst_flag(tmp_path, capsys):
    # K = 22: before, the deviation (1.387e+01) with no point, where b^2 is about 3e14
    code = main(["classify", "--config", _e5_with(tmp_path, b_potential="0.2*x3*exp(22*x1)")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    named = re.fullmatch(r"error: first kind holds, but H_ab deviates from the first-kind "
                         r"multiple of h_ab by (\S+) at x=\[(.*)\]: b\^2 = (\S+)\n", captured.err)
    x = [float(c) for c in named.group(2).split(",")]
    assert float(named.group(1)) > 1.0 and abs(x[2]) < 1e-12 and float(named.group(3)) > 1e10


@pytest.mark.filterwarnings("error")
def test_a_numpy_warning_raised_as_an_error_exits_two(monkeypatch, capsys):
    # python -W error (as pytest runs here): a RuntimeWarning raised out of main was a
    # traceback with exit 1, which is also a FAIL verdict's status; no shipped input
    # warns now, so a stand-in for minimize overflows
    monkeypatch.setattr(cli, "minimize", lambda spec, params: np.float64(1e308) * 10.0)
    path = Path(__file__).resolve().parents[1] / "configs" / "geodesic_randers.cfg"
    code = main(["geodesic", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert re.fullmatch(r"error: overflow encountered in \w+( \w+)?\n", captured.err)


def test_a_far_endpoint_is_one_error_and_no_warning(tmp_path, capsys):
    # the start offsets scale with math.hypot of q - p: np.linalg.norm overflowed at
    # 1e300 and warned twice, and the error then blamed the metric's domain
    path = Path(__file__).resolve().parents[1] / "configs" / "geodesic_randers.cfg"
    text = re.sub(r"(?m)^end = .*$", "end = 1e300, 0", path.read_text())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["geodesic", "--config", _write(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and caught == []
    assert captured.err == "error: segment 0: F or its jet is not finite\n"


def test_endpoints_whose_difference_overflows_are_one_error_and_no_warning(tmp_path, capsys):
    # end - start overflowed to inf, which warned five times before the error blamed
    # the Randers domain; warnings are recorded, not raised, as without -W error
    path = Path(__file__).resolve().parents[1] / "configs" / "geodesic_randers.cfg"
    text = re.sub(r"(?m)^start = .*$", "start = -1e308, 0", path.read_text())
    text = re.sub(r"(?m)^end = .*$", "end = 1e308, 0", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["geodesic", "--config", _write(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and caught == []
    assert captured.err == ("error: end - start is not finite: start = [-1e+308, 0.0], "
                            "end = [1e+308, 0.0]\n")


class _ClosedPipe(io.StringIO):
    """An output stream whose reader is gone (`| head`): each write raises
    BrokenPipeError; its descriptor ``fd`` is the one the command may redirect."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("command, config, verdict", [("geodesic", "geodesic_randers", 0),
                                                      ("classify", "e3", 1)])
def test_a_closed_pipe_ends_the_text_quietly_and_keeps_out_and_status(
        tmp_path, capsys, monkeypatch, command, config, verdict):
    path = str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.cfg")
    assert main([command, "--config", path, "--out", str(tmp_path / "solo.csv")]) == verdict
    capsys.readouterr()
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        status = main([command, "--config", path, "--out", str(tmp_path / "piped.csv")])
        os.write(fd, b"flushed at exit")  # the descriptor now leads to the null device
    finally:
        os.close(fd)
    assert status == verdict and capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""
    assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()


def test_a_refusal_into_a_closed_pipe_still_exits_two(tmp_path, capsys, monkeypatch):
    # `2>&1 | true`: the error line raised BrokenPipeError out of main, exit 1,
    # which is a FAIL verdict's status
    path = str(Path(__file__).resolve().parents[1] / "configs" / "geodesic_randers.cfg")
    fd = os.open(tmp_path / "stderr", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stderr", _ClosedPipe(fd))
        assert main(["geodesic", "--config", path, "--tol", "nan"]) == 2
        assert main(["tensors", "--config", path, "--seed", "1"]) == 2
    finally:
        os.close(fd)
    assert capsys.readouterr().out == "" and (tmp_path / "stderr").read_bytes() == b""


# -- config validation

SPACE_CFG = """
[space]
family = generalized-square
k = 1
a_row = 1, 0
a_row = 0, 1
b = 0.1, 0
"""


@pytest.mark.parametrize("command, message", [
    ("tensors", "no [tensors] flag lines in the config"),
    ("classify", "classify needs a [hypersurface] section"),
    ("geodesic", "geodesic needs 'start' and 'end' in [geodesic]"),
])
def test_command_without_its_section_is_refused(tmp_path, capsys, command, message):
    out_file = tmp_path / "out.csv"
    code = main([command, "--config", _write(tmp_path, SPACE_CFG), "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out_file.exists()


# (section, RunConfig attribute, key, valid text, parsed value, message for "x")
OPTION_KEYS = [
    ("audit", "audit", "samples", "7", 7, "expected an integer for samples"),
    ("audit", "audit", "seed", "8", 8, "expected an integer for seed"),
    ("classify", "classify_options", "points", "9", 9, "expected an integer for points"),
    ("classify", "classify_options", "directions", "2", 2,
     "expected an integer for directions"),
    ("classify", "classify_options", "seed", "12", 12, "expected an integer for seed"),
    ("classify", "classify_options", "tol", "1e-6", 1e-6, "expected a number for tol"),
    ("geodesic", "geodesic", "start", "0.5, 1", [0.5, 1.0], "expected comma-separated numbers"),
    ("geodesic", "geodesic", "end", "2, 3", [2.0, 3.0], "expected comma-separated numbers"),
    ("geodesic", "geodesic", "segments", "4", 4, "expected an integer for segments"),
    ("geodesic", "geodesic", "iters", "30", 30, "expected an integer for iters"),
    ("geodesic", "geodesic", "tol", "1e-5", 1e-5, "expected a number for tol"),
    ("geodesic", "geodesic", "seed", "6", 6, "expected an integer for seed"),
]
OPTION_IDS = [f"{case[0]}-{case[2]}" for case in OPTION_KEYS]


def _option_cfg(tmp_path, section, key, text):
    """A config setting one option key, and the line number of that key."""
    cfg = SPACE_CFG + f"[{section}]\n{key} = {text}\n"
    return _write(tmp_path, cfg), cfg.count("\n")


@pytest.mark.parametrize("section, attr, key, text, value, message", OPTION_KEYS,
                         ids=OPTION_IDS)
def test_config_option_value_lands_in_its_record(
    tmp_path, section, attr, key, text, value, message
):
    path, _ = _option_cfg(tmp_path, section, key, text)
    got = getattr(getattr(load_config(path), attr), key)
    assert type(got) is (np.ndarray if isinstance(value, list) else type(value))
    assert np.array_equal(got, value)


@pytest.mark.parametrize("section, attr, key, text, value, message", OPTION_KEYS,
                         ids=OPTION_IDS)
def test_config_option_rejects_a_non_number(tmp_path, section, attr, key, text, value, message):
    path, line = _option_cfg(tmp_path, section, key, "x")
    with pytest.raises(ConfigError, match=f"^line {line}: {message}"):
        load_config(path)


@pytest.mark.parametrize("section, key", [
    ("audit", "samples"), ("classify", "points"), ("classify", "directions"),
    ("geodesic", "segments"), ("geodesic", "iters"),
])
def test_config_option_count_must_be_positive(tmp_path, section, key):
    path, line = _option_cfg(tmp_path, section, key, "0")
    with pytest.raises(ConfigError, match=f"^line {line}: {key} must be >= 1$"):
        load_config(path)


@pytest.mark.parametrize("text", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command, cfg", [("classify", PLANE_CFG), ("geodesic", GEO_CFG)],
                         ids=["classify", "geodesic"])
@pytest.mark.parametrize("given", ["config", "flag"])
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, given, command, cfg, text):
    # from a config line or from --tol: exit 2 before any report, naming tol
    argv = ["--tol", text]
    message = "tol must be finite and >= 0.0"
    if given == "config":
        cfg, argv = re.sub(r"^tol = .*$", f"tol = {text}", cfg, flags=re.M), []
        line = cfg.splitlines().index(f"tol = {text}") + 1
        message = f"line {line}: {message}"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_config(_write(tmp_path, cfg))
    out_file = tmp_path / "rows.csv"
    assert main([command, "--config", _write(tmp_path, cfg), *argv, "--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out_file.exists()


def test_zero_tolerance_is_accepted(tmp_path, capsys):
    cfg = _write(tmp_path, PLANE_CFG.replace("tol = 1e-8", "tol = 0"))
    assert load_config(cfg).classify_options.tol == 0.0
    main(["classify", "--config", cfg, "--tol", "0"])
    assert "tol=0.0e+00" in capsys.readouterr().out


# every key read as a plain number, and what its error names
ALL_NUMBERS_CFG = PLANE_CFG.replace(
    "b_potential = 0.1*x3", "constant = q 0.1\nb_potential = q*x3"
) + "\n[geodesic]\nstart = 0, 0, 0\nend = 1, 0, 0\n"
NUMBER_KEYS = [
    ("tensors", "constant = q 0.1", "constant = q {}", "constant value must be finite"),
    ("classify", "level = 0", "level = {}", "level must be finite"),
    ("geodesic", "start = 0, 0, 0", "start = 0, {}, 0", "start must be finite"),
    ("geodesic", "end = 1, 0, 0", "end = 1, 0, {}", "end must be finite"),
    ("tensors", "flag = 0, 0, 0 ; 1, 0, 0", "flag = {}, 0, 0 ; 1, 0, 0",
     "flag base point must be finite"),
    ("tensors", "flag = 0, 0, 0 ; 1, 0, 0", "flag = 0, 0, 0 ; 1, {}, 0",
     "flag direction must be finite"),
    ("classify", "tol = 1e-8", "tol = {}", "tol must be finite and >= 0.0"),
]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, old, new, message", NUMBER_KEYS,
                         ids=["constant", "level", "start", "end", "flag-x", "flag-y", "tol"])
def test_config_number_must_be_finite(tmp_path, capsys, command, old, new, message, text):
    # before, a NaN flag or constant printed a NaN report with exit 0, and a NaN level,
    # start or constant ended in an error that named no line (the tol cases held already)
    new = new.format(text)
    bad = ALL_NUMBERS_CFG.replace(old, new)
    line = bad.splitlines().index(new) + 1
    with pytest.raises(ConfigError, match=f"^line {line}: {message}$"):
        load_config(_write(tmp_path, bad))
    assert main([command, "--config", _write(tmp_path, bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line {line}: {message}\n"
    assert captured.out == ""


def test_config_integer_beyond_float_range_loads(tmp_path):
    # ints skip the finite test: math.isfinite would raise OverflowError on this one
    cfg = PLANE_CFG.replace("seed = 7", "seed = 1" + "0" * 400)
    assert load_config(_write(tmp_path, cfg)).audit.seed == 10 ** 400


def test_config_expression_literal_must_be_finite(tmp_path, capsys):
    # 1e400 parsed to inf, and `tensors` printed beta = nan with exit 0
    bad = PLANE_CFG.replace("b_potential = 0.1*x3", "b_potential = 1e400*x3")
    line = bad.splitlines().index("b_potential = 1e400*x3") + 1
    message = f"line {line}: bad expression: number 1e400 is not finite at offset 0"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config(_write(tmp_path, bad))
    assert main(["tensors", "--config", _write(tmp_path, bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_expression_overflow_is_a_domain_error(tmp_path, capsys):
    # before: exit 2 with only "error: math range error"
    cfg = PLANE_CFG.replace("b_potential = 0.1*x3", "b_potential = exp(1000*x3)").replace(
        "flag = 0, 0, 0 ; 1, 0, 0", "flag = 0, 0, 1 ; 1, 0, 0")
    assert main(["tensors", "--config", _write(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: math range error in 'exp(1000.0*x3)'\n"
    assert captured.out == ""


def test_power_overflow_at_a_flag_is_a_domain_error(tmp_path, capsys):
    # before: b = grad (10 x3)^400 at x3 = 1 was inf at one point, and tensors printed
    # NaN fields with exit 0
    cfg = PLANE_CFG.replace("b_potential = 0.1*x3", "b_potential = (10*x3)^400").replace(
        "flag = 0, 0, 0 ; 1, 0, 0", "flag = 0, 0, 1 ; 1, 0, 0")
    assert main(["tensors", "--config", _write(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: power overflows in '(10.0*x3)^399.0'\n"
    assert captured.out == ""


def test_config_dimension_mismatch(tmp_path):
    bad = PLANE_CFG.replace("a_row = 0, 0, 1\n", "")
    with pytest.raises(ConfigError, match="dimension mismatch"):
        load_config(_write(tmp_path, bad))


@pytest.mark.parametrize("old, new", [("start = 0, 0", "start = 0, 0, 0"),
                                      ("end = 1, 0", "end = 1")])
def test_config_geodesic_endpoint_dimension_checked_at_load(tmp_path, capsys, old, new):
    bad = GEO_CFG.replace(old, new)
    key = new.split()[0]
    line = bad.splitlines().index(new) + 1
    with pytest.raises(ConfigError, match=rf"^line {line}: {key} must have dimension 2$"):
        load_config(_write(tmp_path, bad))
    assert main(["geodesic", "--config", _write(tmp_path, bad)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {key} must have dimension 2\n"


@pytest.mark.parametrize("old, new", [
    ("a_row = 0, 1", "a_row = 0, 1 + 0.1*x3"),
    ("b = 0.1, 0", "b = 0.1, 0.2*x3"),
    ("b = 0.1, 0", "b_potential = 0.1*x1 + x3^2"),
    ("seed = 1", "seed = 1\n\n[hypersurface]\npotential = x1 + x3\nlevel = 0"),
])
def test_config_rejects_a_coordinate_beyond_the_dimension(tmp_path, capsys, old, new):
    # accepted before, a 2-D space with x3 stalled `audit` and gave `geodesic` length = nan
    bad = GEO_CFG.replace(old, new)
    line = next(n for n, text in enumerate(bad.splitlines(), 1) if "x3" in text)
    with pytest.raises(ConfigError, match=rf"^line {line}: bad expression: coordinate x3 is "
                                          r"beyond dimension 2 at offset \d+$") as err:
        load_config(_write(tmp_path, bad))
    for command in ("audit", "geodesic"):
        assert main([command, "--config", _write(tmp_path, bad)]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"


def test_config_rejects_a_that_is_not_symmetric_at_sampled_points(tmp_path):
    bad = GEO_CFG.replace("a_row = 1, 0", "a_row = 1, 0.1*x1").replace(
        "a_row = 0, 1", "a_row = 0.1*x2, 1")
    with pytest.raises(ConfigError, match=r"^a\(x\) is not symmetric at sampled points$"):
        load_config(_write(tmp_path, bad))


def test_symmetry_probe_skips_a_point_where_a_cannot_be_evaluated(tmp_path):
    cfg = GEO_CFG.replace("a_row = 1, 0", "a_row = 1 + sqrt(x1), 0")
    loaded = load_config(_write(tmp_path, cfg))
    probe = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 2))  # as _probe_symmetry draws
    assert probe[1, 0] == pytest.approx(-0.918, abs=1e-3)
    with pytest.raises(DomainError, match="sqrt of negative value"):
        loaded.space.a_at(probe[1])
    assert all(np.array_equal(a, a.T) for a in loaded.space.a_at(probe[[0, 2, 3]]))


def test_rows_that_mirror_as_expressions_are_not_sampled(monkeypatch):
    # a_ij and a_ji are the same Expr for i < j: symmetric at every x, so no a(x) is drawn
    a_calls = count_calls(monkeypatch, SpaceSpec, "a_at")
    load_config(Path(__file__).resolve().parents[1] / "configs" / "e1.cfg")
    assert a_calls == []


@pytest.mark.parametrize("config", ["e1", "e2", "e3", "e4", "e5"])
def test_a_surface_of_the_space_potential_reads_the_space_tables(config):
    # e1-e4 repeat b_potential as the surface potential, e5 defaults to it
    loaded = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{config}.cfg")
    assert loaded.surface.table.diff(3) is loaded.space.b_table


def test_rows_equal_only_in_value_are_still_sampled(tmp_path, monkeypatch):
    # x1*x2 and x2*x1 differ as expressions, so a(x) is sampled at the four
    # points, and the one where sqrt(x1) fails is skipped
    cfg = GEO_CFG.replace("a_row = 1, 0", "a_row = 1 + sqrt(x1), 0.1*x1*x2").replace(
        "a_row = 0, 1", "a_row = 0.1*x2*x1, 1")
    a_calls = count_calls(monkeypatch, SpaceSpec, "a_at")
    load_config(_write(tmp_path, cfg))
    assert len(a_calls) == 4


def test_config_rejects_k_zero(tmp_path):
    bad = PLANE_CFG.replace("k = 1", "k = 0")
    with pytest.raises(ConfigError, match="k must be >= 1"):
        load_config(_write(tmp_path, bad))


def test_config_rejects_unknown_key_with_line_number(tmp_path):
    bad = PLANE_CFG.replace("k = 1", "k = 1\nexponent = 2")
    with pytest.raises(ConfigError, match=r"line \d+: unknown key 'exponent'"):
        load_config(_write(tmp_path, bad))


def test_config_rejects_unknown_section_and_family(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(_write(tmp_path, PLANE_CFG + "\n[misc]\nx = 1\n"))
    with pytest.raises(ConfigError, match="unknown family"):
        load_config(_write(tmp_path, PLANE_CFG.replace("generalized-square", "euclid")))


def test_config_rejects_duplicate_scalar_key(tmp_path):
    bad = PLANE_CFG.replace("k = 1", "k = 1\nk = 2")
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(_write(tmp_path, bad))


def test_config_requires_exactly_one_b_source(tmp_path):
    bad = PLANE_CFG.replace("b_potential = 0.1*x3", "b_potential = 0.1*x3\nb = 0, 0, 0.1")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(_write(tmp_path, bad))
    bad2 = PLANE_CFG.replace("b_potential = 0.1*x3\n", "")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(_write(tmp_path, bad2))


def test_config_expression_errors_carry_line_numbers(tmp_path):
    bad = PLANE_CFG.replace("b_potential = 0.1*x3", "b_potential = 0.1*")
    with pytest.raises(ConfigError, match=r"line \d+: bad expression"):
        load_config(_write(tmp_path, bad))


@pytest.mark.parametrize("lines", ["constant = q 0.1\nb_potential = q*x3",
                                   "b_potential = q*x3\nconstant = q 0.1"],
                         ids=["defined-first", "defined-after-its-use"])
def test_config_constants_are_usable_in_expressions(tmp_path, lines):
    cfg = PLANE_CFG.replace("b_potential = 0.1*x3", lines)
    loaded = load_config(_write(tmp_path, cfg))
    assert loaded.constants == {"q": 0.1}
    assert np.allclose(loaded.space.b_at([0.0, 0.0, 0.0]), [0, 0, 0.1])


@pytest.mark.parametrize("constants, message", [
    ("constant = x2 0.5", "constant name 'x2' is not an identifier other than a coordinate"),
    ("constant = q 0.1\nconstant = q 0.3", "duplicate constant 'q'"),
    ("constant = 2q 0.1", "constant name '2q' is not an identifier other than a coordinate"),
], ids=["coordinate", "set-twice", "not-an-identifier"])
def test_config_rejects_a_constant_that_would_do_nothing(tmp_path, capsys, constants, message):
    # each loaded before: x2 parsed as the coordinate, the last q won, 2q was unusable
    bad = PLANE_CFG.replace("b_potential = 0.1*x3", f"{constants}\nb_potential = 0.1*x3")
    line = bad.splitlines().index(constants.splitlines()[-1]) + 1
    with pytest.raises(ConfigError, match=f"^line {line}: {message}$"):
        load_config(_write(tmp_path, bad))
    assert main(["tensors", "--config", _write(tmp_path, bad)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


def test_config_surface_defaults_to_space_potential(tmp_path):
    cfg = PLANE_CFG.replace("\npotential = 0.1*x3\n", "\n")
    loaded = load_config(_write(tmp_path, cfg))
    assert loaded.surface is not None
    assert loaded.surface.value([0.0, 0.0, 2.0]) == pytest.approx(0.2)


def test_classify_rows_carry_each_points_residuals(tmp_path, capsys):
    # configs/e4.cfg: each point's row carries that point's residual; the
    # third-kind witness (min over its directions of max |M_ab|) varies by point
    path = Path(__file__).resolve().parents[1] / "configs" / "e4.cfg"
    out_file = tmp_path / "rows.csv"
    assert main(["classify", "--config", str(path), "--out", str(out_file)]) == 1
    capsys.readouterr()
    rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
    by_test = {test: [float(r[2]) for r in rows if r[1] == test]
               for test in ("first-kind", "second-kind", "third-kind")}
    cfg = load_config(path)
    report = classify(cfg.surface, cfg.space, cfg.classify_options)
    assert len(by_test["third-kind"]) == len(report.points) == 25
    assert len(set(by_test["third-kind"])) > 1
    assert min(by_test["third-kind"]) == report.third_kind.witness
    assert by_test["third-kind"] == report.third_kind.per_point
    assert max(by_test["first-kind"]) == report.first_kind.residual
    assert max(by_test["second-kind"]) == report.second_kind.residual


def _line_of(text: str, start: str) -> int:
    """The 1-based number of the first line of ``text`` that starts with ``start``."""
    return next(n for n, line in enumerate(text.splitlines(), 1) if line.startswith(start))


_FLAG_NO_SEMICOLON = PLANE_CFG.replace("0, 0, 0 ; 1, 0, 0", "0, 0, 0, 1, 0, 0")
_B_TWO_ENTRIES = PLANE_CFG.replace("b_potential = 0.1*x3", "b = 0, 0.1")


@pytest.mark.parametrize("text, message", [
    ("family = randers\n", "line 1: key outside of any section"),
    ("[space]\nfamily randers\n", "line 2: expected 'key = value'"),
    ("[space]\nconstant = c\n", "line 2: constant needs 'name value'"),
    (_FLAG_NO_SEMICOLON, f"line {_line_of(_FLAG_NO_SEMICOLON, 'flag')}: "
                         "flag needs 'x1, ..., xd ; y1, ..., yd'"),
    (PLANE_CFG.replace("family = generalized-square\n", ""), "[space] must set 'family'"),
    ("[space]\nfamily = randers\n", "[space] must give the a-matrix via a_row lines"),
    (_B_TWO_ENTRIES, f"line {_line_of(_B_TWO_ENTRIES, 'b =')}: "
                     "dimension mismatch: b has 2 entries for dimension 3"),
    # SpaceSpec's own refusal, wrapped with no line
    ("[space]\nfamily = randers\na_row = 1\nb = 0\n", "dimension must be at least 2"),
    (GEO_CFG + "\n[hypersurface]\nlevel = 0\n",
     "[hypersurface] needs 'potential' when the space has none"),
], ids=["outside-section", "no-equals", "constant", "flag", "no-family", "no-a-rows",
        "b-entries", "one-dimensional", "no-potential"])
def test_config_refusals_name_their_fault_and_line(tmp_path, text, message):
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, text))
    assert str(err.value) == message
