import json
import os
import subprocess
import sys

import pytest

from ffpoisson.cli import build_parser, main, parse_mpoly, parse_place, parse_tpoly
from ffpoisson.cli import ParseError
from ffpoisson.scalars import make_field

F2 = make_field(2)
F3 = make_field(3)


def run_cli(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_bytes()


def test_parse_mpoly_examples():
    h = parse_mpoly("x0^2+x0*x1+1", F3, 2)
    assert h.terms == {(2, 0): 1, (1, 1): 1, (0, 0): 1}
    assert parse_mpoly("2*x0", F3, 1).terms == {(1,): 2}
    assert parse_mpoly("-x0+x0", F3, 1).is_zero()


def test_parse_error_reports_column():
    with pytest.raises(ParseError) as err:
        parse_mpoly("x0 + $", F3, 1)
    assert "column 6" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_mpoly("x3", F3, 2)
    assert "out of range" in str(err.value)


def test_parse_tpoly_and_place():
    f = parse_tpoly("t^2+t+1", F2)
    assert f.coeffs == (1, 1, 1)
    u = parse_place("inf", F2)
    assert u.is_infinite
    assert parse_place("t+1", F2).degree == 1


def test_charsum_command(tmp_path):
    code, text = run_cli(
        ["charsum", "--p", "3", "--h", "x0^2", "--degrees", "1"], tmp_path
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["rows"][0]["value"]["zeta_coeffs"] == [[1, 1], [2, 1]]


def test_charsum_identity_vanishes(tmp_path):
    code, text = run_cli(["charsum", "--p", "2", "--h", "x0"], tmp_path)
    rep = json.loads(text)
    for row in rep["rows"]:
        assert row["value"]["zeta_coeffs"] == [[0, 1]]


def test_euler_command(tmp_path):
    code, text = run_cli(
        ["euler", "--p", "2", "--set", "gm", "--precision", "3"], tmp_path
    )
    assert code == 0
    assert json.loads(text)["all_equal"] is True


def test_local_fourier_command(tmp_path):
    code, text = run_cli(
        ["local-fourier", "--p", "2", "--window", "1,1", "--check-inversion"],
        tmp_path,
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["inversion_exact"] is True


def test_poisson_command(tmp_path):
    code, text = run_cli(
        ["poisson", "--p", "2", "--places", "t;inf", "--window", "1,1"], tmp_path
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["all_equal"] is True and len(rep["rows"]) == 36


def test_alg_check_command(tmp_path):
    code, text = run_cli(
        ["alg-check", "--p", "2", "--n", "3", "--samples", "100", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["all_equal"] is True


def test_alg_check_reduced_norm_of_s_at_n2(tmp_path):
    # s^2 = t: charpoly X^2 - t, so Nrd(s) = (-1)^2 c_0 = -t
    code, text = run_cli(
        ["alg-check", "--p", "3", "--n", "2", "--samples", "100", "--seed", "1"], tmp_path
    )
    assert code == 0
    rows = json.loads(text)["rows"]
    assert rows[2] == {"check": "Nrd(s) = -t", "equal": True}
    assert rows[1] == {"check": "charpoly(s) = X^n - t", "equal": True}


def test_theorem_a_command_small(tmp_path):
    code, text = run_cli(
        [
            "theorem-a",
            "--window",
            "0,1",
            "--pairs",
            "8",
            "--recipes",
            "const,psi_trace",
        ],
        tmp_path,
    )
    assert code == 0
    assert json.loads(text)["all_equal"] is True


def test_theorem_a_p3_compares_regular_pairs(tmp_path):
    # the b s pairs are inseparable in characteristic 3; the 20 pairs are
    # all regular L-common elements, each compared under every recipe
    code, text = run_cli(
        ["theorem-a", "--p", "3", "--n", "3", "--exponents", "1,2", "--window", "0,1",
         "--pairs", "20"],
        tmp_path,
    )
    assert code == 0
    report = json.loads(text)
    assert len(report["rows"]) == 60
    assert all(row["status"] == "ok" and row["equal"] for row in report["rows"])
    assert report["all_equal"] is True


def test_theorem_a_nothing_compared_exits_4(tmp_path):
    code, text = run_cli(["theorem-a", "--window", "0,1", "--pairs", "0"], tmp_path)
    assert code == 4
    report = json.loads(text)
    assert report["rows"] == [] and report["all_equal"] is None


def test_alg_check_without_pairs_keeps_its_other_checks(tmp_path):
    code, text = run_cli(["alg-check", "--samples", "0"], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["rows"][0]["pairs_checked"] == 0
    assert report["rows"][0]["equal"] is None
    assert report["all_equal"] is True


def test_reports_are_deterministic(tmp_path):
    argv = ["poisson", "--p", "2", "--places", "t;inf", "--window", "1,1"]
    _, a = run_cli(argv, tmp_path, "a.json")
    _, b = run_cli(argv, tmp_path, "b.json")
    assert a == b
    argv2 = ["alg-check", "--samples", "50", "--seed", "9"]
    _, c = run_cli(argv2, tmp_path, "c.json")
    _, d = run_cli(argv2, tmp_path, "d.json")
    assert c == d


def test_csv_summary(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["euler", "--p", "2", "--precision", "2", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    csv_text = (tmp_path / "r.json.csv").read_text()
    assert csv_text.splitlines()[0].startswith("equal")


def test_bad_command_errors():
    assert main(["poisson", "--p", "2", "--places", "t^2+t", "--window", "1,1"]) == 2


def test_reports_embed_config_and_version(tmp_path):
    code, text = run_cli(["charsum", "--p", "2", "--h", "0"], tmp_path)
    rep = json.loads(text)
    assert rep["version"]
    assert rep["config"]["command"] == "charsum"
    assert rep["config"]["p"] == 2


def test_local_fourier_file_roundtrip(tmp_path):
    from ffpoisson.cli import local_fn_from_json, local_fn_to_json
    from ffpoisson.localfield import LocalTestFunction, Window, fourier1
    from ffpoisson.place import PlaceData
    from ffpoisson.scalars import CycScalar

    pd = PlaceData.synthetic(F3, 1, 0)
    phi = LocalTestFunction.delta(pd, Window(1, 1), 4)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(local_fn_to_json(phi)))
    out = tmp_path / "out.json"
    code = main(
        [
            "local-fourier",
            "--p",
            "3",
            "--window",
            "1,1",
            "--in",
            str(path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    expected = fourier1(phi)
    got = local_fn_from_json(rep["result"])
    assert got.table_equal(expected)


def test_timeout_budget_fails_loudly():
    code = main(
        ["poisson", "--p", "2", "--places", "t;t+1;inf", "--window", "1,1",
         "--timeout", "0.0", "--out", "/dev/null"]
    )
    assert code == 3


def test_recipe_depth_validation():
    from ffpoisson.cyclic_algebra import (
        AlgebraDescriptor,
        RecipeCharPolyCoset,
        invariant_fn,
        target_s_charpoly,
    )
    from ffpoisson.localfield import Window

    D = AlgebraDescriptor(F2, 3, 1)
    bad = RecipeCharPolyCoset(target_s_charpoly(D, 2))
    with pytest.raises(ValueError):
        invariant_fn(D, bad, Window(0, 1))


def test_budget_exceeded_exits_3_with_one_line(capsys):
    code = main(
        ["poisson", "--p", "2", "--places", "t;inf", "--max-enum", "3", "--out", "/dev/null"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "exc,line",
    [
        (MemoryError("Unable to allocate 3.00 TiB for an array"),
         "error: out of memory: Unable to allocate 3.00 TiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
)
def test_out_of_memory_exits_3_with_one_line(monkeypatch, capsys, exc, line):
    # the jet digits are where an oversized theorem-a run first allocates;
    # no real allocation is attempted
    from ffpoisson import cyclic_algebra

    def no_memory(*args):
        raise exc

    monkeypatch.setattr(cyclic_algebra, "_digit_matrix", no_memory)
    code = main(["theorem-a", "--p", "2", "--n", "3", "--window", "0,1", "--pairs", "2",
                 "--out", "/dev/null"])
    assert code == 3
    assert capsys.readouterr().err == line


def _global_fn_json():
    return {
        "q": 2,
        "places": [{"poly": [0, 1], "N": 1, "M": 1}],
        "arity": 1,
        "table": [[[1, 1]]] * 4,
    }


def test_poisson_input_file_roundtrip(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(_global_fn_json()))
    code, text = run_cli(["poisson", "--p", "2", "--in", str(path)], tmp_path)
    assert code == 0
    assert json.loads(text)["rows"][0]["function"] == "input"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.pop("places"), "missing key 'places'"),
        (lambda d: d.update(arity="1"), "'arity' must be an integer"),
        (lambda d: d["places"][0].update(poly="t"), "'poly' must be"),
        (lambda d: d.update(table=[[[1, 0]]] * 4), "table[0]"),
        (lambda d: d.update(table=[[1]] * 4), "table[0]"),
        (lambda d: d.update(arity=0, table=[[[1, 1]]]), "arity must be at least 1"),
    ],
)
def test_poisson_input_schema_errors_exit_2(tmp_path, capsys, edit, message):
    data = _global_fn_json()
    edit(data)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(data))
    code = main(["poisson", "--p", "2", "--in", str(path), "--out", "/dev/null"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_input_file_bad_json_or_missing_exits_2(tmp_path, capsys):
    path = tmp_path / "fn.json"
    path.write_text('{"q": 2,')
    assert main(["poisson", "--p", "2", "--in", str(path)]) == 2
    assert "bad JSON" in capsys.readouterr().err
    missing = str(tmp_path / "absent.json")
    assert main(["local-fourier", "--p", "2", "--in", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_local_fourier_config_describes_the_input_file(tmp_path):
    from ffpoisson.cli import local_fn_to_json
    from ffpoisson.localfield import LocalTestFunction, Window
    from ffpoisson.place import PlaceData

    pd = PlaceData.synthetic(F3, 1, 0)
    phi = LocalTestFunction.indicator_integral(pd, Window(0, 1), 2)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(local_fn_to_json(phi)))
    code, text = run_cli(["local-fourier", "--p", "2", "--in", str(path)], tmp_path)
    assert code == 0
    report = json.loads(text)
    config = report["config"]
    assert (config["p"], config["e"], config["d"], config["nu"]) == (3, 1, 1, 0)
    assert (config["window"], config["arity"]) == ("0,1", 2)
    assert (report["result"]["q"], report["result"]["arity"]) == (3, 2)


def test_local_fourier_input_file_reports_no_delta(tmp_path):
    # --delta selects a built-in function; with --in the file's table is
    # transformed, so the config must not claim the delta
    from ffpoisson.cli import local_fn_to_json
    from ffpoisson.localfield import LocalTestFunction, Window
    from ffpoisson.place import PlaceData

    pd = PlaceData.synthetic(F3, 1, 0)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(local_fn_to_json(LocalTestFunction.indicator_integral(pd, Window(1, 1)))))
    code, text = run_cli(["local-fourier", "--p", "3", "--in", str(path), "--delta", "2"], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["config"]["delta"] is None
    code, plain = run_cli(["local-fourier", "--p", "3", "--in", str(path)], tmp_path, "plain.json")
    assert code == 0 and plain == text


def test_theorem_a_at_n2_names_the_missing_second_form(tmp_path, capsys):
    argv = ["theorem-a", "--p", "3", "--n", "2", "--window", "0,1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "n = 2" in err and "one form" in err
    assert not (tmp_path / "r.json").exists()


def test_poisson_input_field_mismatch_names_both_sizes(tmp_path, capsys):
    data = dict(_global_fn_json(), q=3, table=[[[1, 1], [0, 1]]] * 9)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(data))
    assert main(["poisson", "--p", "2", "--in", str(path), "--out", "/dev/null"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "q = 3" in err and "q = 2" in err


def test_local_input_schema_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"q": 3, "d": 1, "nu": 0, "window": [1], "arity": 1}))
    assert main(["local-fourier", "--p", "3", "--in", str(path)]) == 2
    assert "'window' must be" in capsys.readouterr().err


def test_local_input_arity_below_one_exits_2(tmp_path, capsys):
    # a table of arity 0 has one cell, which the file can supply
    data = {"q": 2, "d": 1, "nu": 0, "window": [1, 1], "arity": 0, "table": [[[1, 1]]]}
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(data))
    assert main(["local-fourier", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "arity must be at least 1" in err


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--delta", "99"], "delta jet index 99 outside [0, 4)"),
        (["--delta", "-1"], "delta jet index -1 outside [0, 4)"),
        (["--arity", "-1"], "arity must be at least 1, got -1"),
        (["--arity", "0"], "arity must be at least 1, got 0"),
        (["--delta", "1", "--arity", "2"], "--arity must be 1"),
    ],
)
def test_local_fourier_rejects_parameters_it_cannot_honour(tmp_path, capsys, extra, message):
    out = tmp_path / "r.json"
    argv = ["local-fourier", "--p", "2", "--d", "1", "--nu", "0", "--window", "1,1"]
    assert main(argv + extra + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("cell", [None, 0, -1])
@pytest.mark.parametrize(
    "function",
    [["--arity", "2"], ["--delta", "1"]],  # an even function, and one with phi(-x) != phi(x)
)
def test_local_fourier_inversion_check_at_p3(tmp_path, monkeypatch, function, cell):
    # the check reads the double transform: one corrupt cell of it must
    # turn the verdict
    from ffpoisson import localfield
    from ffpoisson.scalars import CycScalar

    transform = localfield.fourier_multi
    outputs = []

    def second_corrupt(phi):
        out = transform(phi)
        outputs.append(out)
        if len(outputs) < 2 or cell is None:
            return out
        values = list(out.values)
        values[cell] = values[cell] + CycScalar.one(3)
        return localfield.LocalTestFunction(out.pd, out.window, out.arity, values)

    monkeypatch.setattr(localfield, "fourier_multi", second_corrupt)
    argv = ["local-fourier", "--p", "3", "--window", "1,1", "--check-inversion"]
    code, text = run_cli(argv + function, tmp_path)
    assert len(outputs) == 2
    report = json.loads(text)
    assert report["inversion_exact"] is (cell is None)
    assert code == (0 if cell is None else 1)


IMPORT_PROBE = """
import sys
from ffpoisson import cli

heavy = ("numpy", "ffpoisson.globalfield", "ffpoisson.cyclic_algebra")
print(",".join(m for m in heavy if m in sys.modules))
for argv in (["euler", "--p", "2", "--set", "gm", "--precision", "2"],
             ["charsum", "--p", "3", "--h", "x0^2", "--degrees", "1"]):
    assert cli.main(argv + ["--out", sys.argv[1]]) == 0
print(",".join(m for m in heavy if m in sys.modules))
"""


def test_cli_imports_only_what_a_subcommand_runs(tmp_path):
    # a fresh interpreter: importing the CLI loads neither numpy nor the
    # transform modules, and euler and charsum finish without numpy
    import ffpoisson

    src = os.path.dirname(os.path.dirname(os.path.abspath(ffpoisson.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["", ""]


POISSON_PROBE = """
import sys
from ffpoisson import cli

assert cli.main(["poisson", "--p", "2", "--places", "t;inf", "--window", "1,1",
                 "--out", sys.argv[1]]) == 0
print("ffpoisson.motivic" in sys.modules)
"""


def test_poisson_does_not_load_motivic(tmp_path):
    # the place parser reads polynomials through poly.MPoly, not motivic
    import ffpoisson

    src = os.path.dirname(os.path.dirname(os.path.abspath(ffpoisson.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", POISSON_PROBE, str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["False"]
