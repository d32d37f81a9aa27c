from pathlib import Path

import numpy as np
import pytest

from finslerkit.cli import main
from finslerkit.config import ConfigError, load_config

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


def test_machine_output_is_byte_identical_across_runs(tmp_path, capsys):
    cfg = _write(tmp_path, PLANE_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["classify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["classify", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "# seed=11"
    assert out1.read_text().splitlines()[1] == "point-index,test,residual,verdict"


@pytest.mark.parametrize("command, config", [
    ("tensors", "e1"), ("audit", "e1"), ("classify", "e2"), ("geodesic", "geodesic_randers"),
])
def test_shipped_config_output_is_byte_identical_across_runs(tmp_path, capsys, command, config):
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.cfg")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([command, "--config", cfg, "--out", str(out1)]) == 0
    assert main([command, "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.stat().st_size > 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_is_recorded(tmp_path, capsys):
    cfg = _write(tmp_path, PLANE_CFG)
    out_file = tmp_path / "rows.csv"
    assert main(["classify", "--config", cfg, "--seed", "99", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text().splitlines()[0] == "# seed=99"


def test_format_text_writes_report_to_file(tmp_path, capsys):
    cfg = _write(tmp_path, PLANE_CFG)
    out_file = tmp_path / "report.txt"
    assert main(["classify", "--config", cfg, "--out", str(out_file), "--format", "text"]) == 0
    capsys.readouterr()
    assert "first kind : PASS" in out_file.read_text()


def test_missing_config_is_an_error(tmp_path, capsys):
    code = main(["classify", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "no such config" in capsys.readouterr().err


# -- config validation

def test_config_dimension_mismatch(tmp_path):
    bad = PLANE_CFG.replace("a_row = 0, 0, 1\n", "")
    with pytest.raises(ConfigError, match="dimension mismatch"):
        load_config(_write(tmp_path, bad))


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


def test_config_constants_are_usable_in_expressions(tmp_path):
    cfg = PLANE_CFG.replace("b_potential = 0.1*x3", "constant = q 0.1\nb_potential = q*x3")
    loaded = load_config(_write(tmp_path, cfg))
    assert loaded.constants == {"q": 0.1}
    assert np.allclose(loaded.space.b_at([0.0, 0.0, 0.0]), [0, 0, 0.1])


def test_config_surface_defaults_to_space_potential(tmp_path):
    cfg = PLANE_CFG.replace("\npotential = 0.1*x3\n", "\n")
    loaded = load_config(_write(tmp_path, cfg))
    assert loaded.surface is not None
    assert loaded.surface.value([0.0, 0.0, 2.0]) == pytest.approx(0.2)
