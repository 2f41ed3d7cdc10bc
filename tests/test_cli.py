import json

import pytest

import jensengap.cli as cli
from jensengap.errors import InvalidParameterError
from jensengap.oracle import VerifyResult

COS = '{"kind": "cos", "mu": 0}'
PAIR = '{"variant": "two_point", "mu": 0, "sigma": 1}'
AVG = '{"variant": "mean_of_n", "base": {"variant": "uniform", "lo": -1, "hi": 1}, "n": 4}'


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_bound_upper_passes(capsys):
    code, out = run(["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
                     "--function", COS, "--dist", PAIR], capsys)
    assert code == 0
    assert "pass" in out
    assert "0.500000001" in out


def test_bound_json_structure(capsys):
    code, out = run(["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
                     "--function", COS, "--dist", PAIR,
                     "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verify"]["verdict"] == "pass"
    assert doc["report"]["kind"] == "upper"
    assert doc["gap"]["value"] == pytest.approx(-0.459697694)


SQUARE = '{"kind": "polynomial", "mu": 0, "coeffs": [0, 0, 1]}'
LAPLACE = '{"variant": "laplace", "mean": 0, "scale": 0.5}'


@pytest.mark.parametrize("kind, function, label, extra", [
    ("upper", COS, "cos", ["--alpha", "2", "--n", "2"]),
    ("lower", SQUARE, "poly[0, 0, 1]", ["--alpha", "2", "--beta", "2"]),
    ("holder", SQUARE, "poly[0, 0, 1]",
     ["--alpha", "2", "--beta", "2", "--k", "1", "--q", "2"]),
    ("holder_single", SQUARE, "poly[0, 0, 1]",
     ["--alpha", "2", "--beta", "2", "--k", "1"]),
], ids=["upper", "lower", "holder", "holder_single"])
def test_bound_json_carries_function_label(capsys, kind, function, label, extra):
    code, out = run(["bound", "--kind", kind, *extra, "--function", function,
                     "--dist", LAPLACE, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["f_label"] == label
    assert doc["gap"]["f_label"] == label
    assert doc["report"]["dist_label"] == "laplace"


def test_bound_csv_has_stable_header(capsys):
    code, out = run(["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
                     "--function", COS, "--dist", PAIR,
                     "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "kind,value,value_hi,mu,gap,gap_error,verdict,margin"


def test_bound_mismatched_mean_is_input_error(capsys):
    code, _ = run(["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
                   "--function", COS,
                   "--dist", '{"variant": "two_point", "mu": 0.4, "sigma": 1}'],
                  capsys)
    assert code == 1


def test_bound_missing_parameter_is_input_error(capsys):
    code, _ = run(["bound", "--kind", "upper", "--function", COS,
                   "--dist", PAIR], capsys)
    assert code == 1


def test_malformed_json_is_input_error(capsys):
    code, _ = run(["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
                   "--function", '{"kind": "cos",', "--dist", PAIR], capsys)
    assert code == 1


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--no-such-flag"])
    assert exc.value.code == 1


def test_sweep_rejects_nodes_flag():
    # neither sweep mode integrates, so --nodes is not one of its flags
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--mode", "two_point", "--nodes", "100"])
    assert exc.value.code == 1


def test_violation_exit_code(capsys, monkeypatch):
    # force a failing verdict to check the exit mapping; real bounds hold
    monkeypatch.setattr(
        cli, "verify",
        lambda report, gap: VerifyResult("fail", -1.0, "forced for the test"))
    code, _ = run(["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
                   "--function", COS, "--dist", PAIR], capsys)
    assert code == 2


def test_output_is_byte_identical(capsys):
    argv = ["oracle", "--function", COS, "--dist", AVG,
            "--samples", "5000", "--seed", "9", "--format", "json"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second


def test_env_seed_matches_flag_seed(capsys, monkeypatch):
    argv = ["oracle", "--function", COS, "--dist", AVG, "--samples", "5000",
            "--format", "json"]
    monkeypatch.setenv("JGB_SEED", "31")
    _, via_env = run(argv, capsys)
    monkeypatch.delenv("JGB_SEED")
    _, via_flag = run(argv + ["--seed", "31"], capsys)
    assert via_env == via_flag


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["examples", "--format", "csv"]
    code, stdout_text = run(argv, capsys)
    assert code == 0
    target = tmp_path / "rows.csv"
    code = cli.main(argv + ["--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == stdout_text


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "upper", "alpha": 2.0, "n": 2.0,
        "function": COS, "dist": PAIR, "format": "csv",
    }))
    code, out = run(["bound", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("upper,0.500000001")
    code, out = run(["bound", "--config", str(cfg), "--alpha", "1", "--n", "1"],
                    capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("upper,0.724611354")


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "upper", "alhpa": 2.0}))
    code, _ = run(["bound", "--config", str(cfg)], capsys)
    assert code == 1


def test_examples_succeeds(capsys):
    code, out = run(["examples"], capsys)
    assert code == 0
    assert "max relative error" in out


def test_examples_csv_rows(capsys):
    code, out = run(["examples", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,")
    assert len(lines) == 11


def test_tightness_constructions_pass(capsys):
    code, _ = run(["tightness", "--construction", "two_point"], capsys)
    assert code == 0
    code, _ = run(["tightness", "--construction", "three_point",
                   "--p", "0.0001"], capsys)
    assert code == 0
    code, out = run(["tightness", "--construction", "outlier",
                     "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "j,sigma_q,gap,ratio"


def test_tightness_bad_threshold_is_input_error(capsys):
    code, _ = run(["tightness", "--construction", "outlier", "--q", "1.0"],
                  capsys)
    assert code == 1


def test_sweep_two_point(capsys):
    code, out = run(["sweep", "--mode", "two_point", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sigma,gap,upper,ratio,gap_slope"
    assert len(lines) == 5


def test_sweep_small_grid_rejected(capsys):
    code, _ = run(["sweep", "--mode", "two_point", "--grid", "0.4,0.2,0.1"],
                  capsys)
    assert code == 1


def test_sweep_non_integral_grid_rejected(capsys):
    for grid in ("4.5,16,64,256", "4,16,x,256"):
        with pytest.raises(InvalidParameterError):
            cli.cmd_sweep(cli.build_parser().parse_args(
                ["sweep", "--mode", "mean_of_n", "--grid", grid]))
        code, _ = run(["sweep", "--mode", "mean_of_n", "--grid", grid], capsys)
        assert code == 1
        assert "int()" not in capsys.readouterr().err


def test_sweep_mean_of_n_slope(capsys):
    code, out = run(["sweep", "--mode", "mean_of_n", "--format", "json",
                     "--samples", "20000", "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert -1.1 <= doc["gap_slope"] <= -0.9
