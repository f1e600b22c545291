import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import resdiv
from resdiv.cli import main
from resdiv.families import FamilyReport, standalone_instance
from resdiv.rings import RING_ZX
from resdiv.syntax import parse_element

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_find_table(capsys):
    code, out = run_cli(capsys, "find", "--ring", "z", "-N", "12", "-S", "5", "-r", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["divisor", "x", "y", "found"]
    assert {"-4", "1", "6"} <= {ln.split()[0] for ln in lines[1:-1]}
    assert "alpha=" in lines[-1] and "t=" in lines[-1]


def test_find_defaults_to_rational(capsys):
    code, out = run_cli(capsys, "find", "-N", "12", "-S", "5", "-r", "1",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["ring"] == "z"


def test_find_json_shape(capsys):
    code, out = run_cli(capsys, "find", "--ring", "z", "-N", "320320", "-S", "69",
                        "-r", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"instance", "divisors", "stats", "alpha"}
    assert doc["instance"] == {"ring": "z", "N": "320320", "S": "69", "r": "1"}
    assert set(doc["stats"]) == {"t", "quad_rows", "linear_rows", "candidates", "roots",
                                 "solves", "seconds"}
    positives = [int(d) for d in doc["divisors"] if int(d) > 0]
    assert positives == [1, 70, 208, 2002, 3520, 14560]


def test_find_quadratic_json(capsys):
    code, out = run_cli(capsys, "find", "--ring", "zi", "-N", "5", "-S", "3+2*w",
                        "-r", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["ring"] == "zi"
    assert "alpha" not in doc
    assert "1" in doc["divisors"]


def test_find_lines_roundtrip(capsys):
    code, out = run_cli(capsys, "find", "--ring", "z", "-N", "104254876089000",
                        "-S", "105787", "-r", "1", "--format", "lines")
    assert code == 0
    lines = out.splitlines()
    divisors = []
    trailer = {}
    for ln in lines:
        if "=" in ln:
            k, v = ln.split("=", 1)
            trailer[k] = v
        else:
            divisors.append(int(ln))
    for d in divisors:
        assert 104254876089000 % d == 0
        assert (d - 1) % 105787 == 0
    assert len([d for d in divisors if d > 0]) == 6
    assert abs(float(trailer["alpha"]) - 0.3584) < 1e-4
    assert set(trailer) == {"t", "quad_rows", "linear_rows", "candidates", "roots",
                            "solves", "seconds", "alpha"}


def test_find_poly(capsys):
    code, out = run_cli(capsys, "find", "--ring", "zx", "-N", "2*x^2+3*x^3+x^4",
                        "-S", "1+x^2", "-r", "x", "--format", "lines")
    assert code == 0
    body = [ln for ln in out.splitlines() if "=" not in ln]
    for text in body:
        dv = parse_element(text, RING_ZX)
        assert dv  # parses back as a nonzero polynomial
    assert "x" in body


def test_find_poly_lead_list(capsys):
    code, out = run_cli(capsys, "find", "--ring", "zx", "-N", "2*x^2+3*x^3+x^4",
                        "-S", "1+x^2", "-r", "x", "--lead-list", "1,-1,2,-2",
                        "--format", "lines")
    assert code == 0
    assert "x" in out.splitlines()


def test_find_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "find", "-N", "12", "-S", "5", "-r", "1",
                      "--format", "json", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["divisors"] == ["-4", "1", "6"]


def test_exit_code_parse_error(capsys):
    code, _ = run_cli(capsys, "find", "--ring", "zi", "-N", "5+3i", "-S", "2", "-r", "1")
    assert code == 1


def test_exit_code_lead_list_wrong_ring(capsys):
    code, _ = run_cli(capsys, "find", "--ring", "z", "-N", "12", "-S", "5",
                      "-r", "1", "--lead-list", "1,2")
    assert code == 1


def test_exit_code_invalid_instance(capsys):
    code, _ = run_cli(capsys, "find", "--ring", "z", "-N", "10", "-S", "5", "-r", "1")
    assert code == 2


def test_exit_code_bad_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["find", "--ring", "nope", "-N", "1", "-S", "2", "-r", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["find", "-S", "2", "-r", "1"])  # missing -N
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_verify_standalone(capsys):
    code, out = run_cli(capsys, "verify", "--family", "standalone",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "standalone"
    assert doc["ok"] is True
    assert doc["positive"] == 6
    assert abs(doc["alpha"] - 0.3584) < 1e-4


def test_verify_range_json_list(capsys):
    code, out = run_cli(capsys, "verify", "--family", "cohen", "--param", "3..4",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 2
    assert [d["S"] for d in doc] == [69, 152]
    assert all(d["ok"] for d in doc)


def test_verify_seven_table(capsys):
    code, out = run_cli(capsys, "verify", "--family", "seven", "--param", "2")
    assert code == 0
    assert "positive=5" in out
    assert "ok=True" in out
    assert "divisor" in out and "cofactor" in out


def test_verify_param_errors(capsys):
    code, _ = run_cli(capsys, "verify", "--family", "cohen")
    assert code == 1
    code, _ = run_cli(capsys, "verify", "--family", "cohen", "--param", "xx")
    assert code == 1
    code, _ = run_cli(capsys, "verify", "--family", "cohen", "--param", "9..3")
    assert code == 1


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_verify(fi):
        return FamilyReport(fi, (1,), (1,), False, True)

    monkeypatch.setattr("resdiv.cli.verify_family", fake_verify)
    code, out = run_cli(capsys, "verify", "--family", "standalone")
    assert code == 3
    assert "ok=False" in out


def test_bench_stdout(capsys):
    code, out = run_cli(capsys, "bench", "--ks", "5..6,8", "--samples", "2",
                        "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,mean_s,min_s,max_s,samples"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["5", "6", "8"]


def test_bench_out_twin_files(tmp_path, capsys):
    path = tmp_path / "scaling.csv"
    code, _ = run_cli(capsys, "bench", "--ks", "5", "--samples", "2",
                      "--seed", "3", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("k,mean_s")
    twin = tmp_path / "scaling.dat"
    assert twin.read_text().startswith("# k mean_s")


def test_search_table(capsys):
    code, out = run_cli(capsys, "search", "--s-start", "5", "--s-stop", "5",
                        "--target", "4")
    assert code == 0
    assert "checked=" in out and "exhausted=False" in out
    assert any(ln.split()[:2] == ["66", "5"] for ln in out.splitlines()[1:-1])


def test_search_json(capsys):
    code, out = run_cli(capsys, "search", "--s-start", "5", "--s-stop", "6",
                        "--target", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"hits", "checked", "exhausted"}
    assert {"N": 66, "S": 5, "r": 1, "positive": 4} in doc["hits"]


def _declared_script(name):
    """Target of `name` in the checkout's [project.scripts] table.

    A line scan rather than tomllib, which Python 3.10 lacks.
    """
    section = None
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line.strip("[]").strip()
        elif section == "project.scripts" and "=" in line:
            key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
            if key == name:
                return value
    raise AssertionError(f"no {name!r} in [project.scripts] of {PYPROJECT}")


# What an installer's generated wrapper does: load the entry point, then
# hand main()'s return value to sys.exit as the process exit status.
_ENTRY_POINT_WRAPPER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "name, value, *args = sys.argv[1:]\n"
    "main = EntryPoint(name=name, value=value, group='console_scripts').load()\n"
    "sys.argv = [name, *args]\n"
    "sys.exit(main())\n"
)


def _script_commands():
    """Ways to start `resdiv`: the declared entry point run from the same
    source tree as this process, plus the installed script when on PATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(resdiv.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p)
    entry = [sys.executable, "-c", _ENTRY_POINT_WRAPPER,
             "resdiv", _declared_script("resdiv")]
    commands = [(entry, env)]
    exe = shutil.which("resdiv")
    if exe:
        commands.append(([exe], None))
    return commands


def test_console_script():
    for cmd, env in _script_commands():
        proc = subprocess.run([*cmd, "find", "-N", "12", "-S", "5", "-r", "1",
                               "--format", "json"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["divisors"] == ["-4", "1", "6"]

        proc = subprocess.run([*cmd, "find", "-N", "10", "-S", "5", "-r", "1"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
