import json
import math

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


def test_bound_law_outside_the_domain_is_input_error(capsys):
    # the bound refuses the law before the gap is taken, so the message names
    # the shifted f that the envelope was solved for
    code = cli.main(["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
                     "--function", '{"kind": "log", "mu": 1, "domain": [0.5, null]}',
                     "--dist", '{"variant": "gaussian", "mean": 1, "stddev": 1}'])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == ("error: support [None, None] of gaussian escapes the domain "
                   "[0.5, None] of log - 1*(x-1)\n")


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


@pytest.mark.parametrize("function, dist, message", [
    ('{"kind": "abs_power", "mu": 0}', PAIR, "'abs_power' is missing 'alpha'"),
    ('{"kind": "abs_power_sum", "mu": 0, "alpha": 1}', PAIR,
     "'abs_power_sum' is missing 'n'"),
    ('{"kind": "polynomial", "mu": 0}', PAIR, "'polynomial' is missing 'coeffs'"),
    ('{"kind": "shifted", "base": {"kind": "sin", "mu": 0}}', PAIR,
     "'shifted' is missing 'slope'"),
    ('{"kind": "abs_power", "mu": 0, "alpha": null}', PAIR,
     "'alpha' must be a number, got None"),
    ('{"kind": "polynomial", "mu": 0, "coeffs": 5}', PAIR,
     "'coeffs' must be a list of numbers, got 5"),
    (COS, '{"variant": "uniform", "lo": null, "hi": 1}',
     "'lo' must be a number, got None"),
    (COS, '{"variant": "discrete", "points": 5}',
     "'points' must be a list of [x, p] pairs, got 5"),
    ('{"kind": "cos", "mu": 0, "domain": [0.5]}', PAIR,
     "'domain' must be a [lo, hi] pair, got [0.5]"),
    ('{"kind": "cos", "mu": 0, "domain": 5}', PAIR,
     "'domain' must be a [lo, hi] pair, got 5"),
    ('{"kind": "cos", "alpha": 3}', PAIR, "'cos' has keys it does not take: ['alpha']"),
    (COS, '{"variant": "gaussian", "mean": 0, "stddev": 1, "extra": 5}',
     "'gaussian' has keys it does not take: ['extra']"),
    ('{"kind": "abs_power", "mu": 0, "alpha": NaN}', PAIR, "finite alpha > 0"),
    ('{"kind": "abs_power", "mu": 0, "alpha": Infinity}', PAIR, "finite alpha > 0"),
    ('{"kind": "abs_power", "mu": 0, "alpha": true}', PAIR,
     "'alpha' must be a number, got True"),
    ('{"kind": "cos", "mu": 0, "domain": [false, null]}', PAIR,
     "'domain' must be a [lo, hi] pair, got [False, None]"),
    (COS, '{"variant": "gaussian", "mean": 0, "stddev": true}',
     "'stddev' must be a number, got True"),
    (COS, '{"variant": "empirical", "samples": [true, 0.5]}',
     "'samples' must be a list of numbers, got [True, 0.5]"),
    (COS, '{"variant": "discrete", "points": [[true, 1]]}',
     "'points' must be a list of [x, p] pairs, got [[True, 1]]"),
    ('{"kind": "cos", "mu": 1e400}', PAIR, "'mu' must be a finite number, got inf"),
    ('{"kind": "shifted", "base": {"kind": "sin", "mu": 0}, "slope": 1e400}', PAIR,
     "'slope' must be a finite number, got inf"),
    # text is not a list, though Python would iterate it
    ('{"kind": "polynomial", "mu": 0, "coeffs": "12"}', PAIR,
     "'coeffs' must be a list of numbers, got '12'"),
    (COS, '{"variant": "empirical", "samples": "123"}',
     "'samples' must be a list of numbers, got '123'"),
    ('{"kind": "cos", "mu": 0, "domain": "12"}', PAIR,
     "'domain' must be a [lo, hi] pair, got '12'"),
    (COS, '{"variant": "discrete", "points": ["01"]}',
     "'points' must be a list of [x, p] pairs, got ['01']"),
])
def test_malformed_descriptor_is_input_error(capsys, function, dist, message):
    code = cli.main(["oracle", "--function", function, "--dist", dist])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err


# text and objects iterate into pairs, and JSON true is not the weight 1
@pytest.mark.parametrize("terms", ['["24"]', '{"24": 1}', '[[2, 1], [4, true]]'])
def test_terms_read_as_descriptor_numbers(capsys, terms):
    code = cli.main(["bound", "--kind", "general_upper", "--function", COS,
                     "--dist", '{"variant": "gaussian", "mean": 0, "stddev": 1}',
                     "--terms", terms])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: --terms must be a JSON list of [exponent, weight] pairs\n"


TINY_GAUSSIAN = '{"variant": "gaussian", "mean": 0, "stddev": 1e-320}'


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--dist", TINY_GAUSSIAN], "gaussian stddev 1e-320 does not fit a double"),
    (["bound", "--kind", "variance", "--dist", TINY_GAUSSIAN],
     "gaussian stddev 1e-320 does not fit a double"),
    (["oracle", "--dist", '{"variant": "laplace", "mean": 0, "scale": 1e-320}'],
     "laplace scale 1e-320 does not fit a double"),
    (["oracle", "--dist", '{"variant": "uniform", "lo": 0, "hi": 5e-324}'],
     "uniform width 5e-324 does not fit a double"),
    (["oracle", "--dist", '{"variant": "mean_of_n", "n": 16, "base": '
      '{"variant": "uniform", "lo": 0, "hi": 1e-306}}'],
     "uniform draws of half-width 5e-307 has frequencies that do not fit a double"),
    (["oracle", "--dist", '{"variant": "gaussian", "mean": 0, "stddev": 1e303}'],
     "the expectation of cos on this gaussian distribution does not fit a double"),
    (["oracle", "--dist", '{"variant": "mean_of_n", "n": 16, "base": '
      '{"variant": "uniform", "lo": -1e308, "hi": 1e308}}'],
     "uniform on [-1e+308, 1e+308] does not fit a double"),
    (["oracle", "--dist", '{"variant": "mean_of_n", "n": 10000, "base": '
      '{"variant": "gaussian", "mean": 0, "stddev": 1e-307}}'],
     "the mean of 10000 draws has gaussian stddev 1e-309 does not fit a double"),
    # the quadrature's nodes near the mean would round onto it
    (["oracle", "--dist", '{"variant": "gaussian", "mean": 1e20, "stddev": 1}'],
     "the quadrature nodes of this gaussian distribution round onto its mean 1e+20"),
    (["oracle", "--dist", '{"variant": "laplace", "mean": 1e17, "scale": 1}'],
     "the quadrature nodes of this laplace distribution round onto its mean 1e+17"),
    (["oracle", "--dist", f'{{"variant": "uniform", "lo": {2 ** 50 - 1}, "hi": {2 ** 50 + 1}}}'],
     "the quadrature nodes of this uniform distribution round onto its mean 1125899906842624.0"),
], ids=["gaussian", "variance_bound", "laplace", "uniform", "mean_of_narrow_uniform",
        "wide_gaussian", "mean_of_overflowing_uniform", "mean_of_narrow_gaussian",
        "far_gaussian", "far_laplace", "far_uniform"])
def test_law_past_a_double_is_input_error(capsys, argv, message):
    code = cli.main([*argv, "--function", COS])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["bound"], "--kind"),
    (["tightness"], "--construction"),
    (["sweep"], "--mode"),
])
def test_missing_required_choice_is_input_error(capsys, argv, flag):
    code = cli.main(argv)
    assert code == 1
    assert capsys.readouterr().err == f"error: this command needs {flag}\n"


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


def test_render_json_writes_non_finite_numbers_as_text():
    payload = {"a": math.inf, "b": [-math.inf, (math.nan, 1.0)],
               "c": {"d": (math.inf,)}}
    assert json.loads(cli.render_json(payload)) == {
        "a": "inf", "b": ["-inf", ["nan", 1.0]], "c": {"d": ["inf"]}}


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


def test_descriptor_file_path_matches_inline(tmp_path, capsys):
    fn, dist = tmp_path / "f.json", tmp_path / "d.json"
    fn.write_text(COS)
    dist.write_text(PAIR)
    base = ["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
            "--format", "json"]
    _, inline = run([*base, "--function", COS, "--dist", PAIR], capsys)
    code, from_file = run([*base, "--function", str(fn), "--dist", str(dist)],
                          capsys)
    assert code == 0
    assert from_file == inline


SINE = '{"kind": "sin", "mu": 0}'


def test_shift_number_and_none(capsys):
    base = ["bound", "--kind", "upper", "--n", "2", "--function", SINE,
            "--dist", PAIR, "--format", "json"]
    # sin declares slope 1 at 0, so --shift 1 is what auto removes
    _, auto = run([*base, "--alpha", "2"], capsys)
    code, one = run([*base, "--alpha", "2", "--shift", "1"], capsys)
    assert code == 0
    assert one == auto
    # unshifted, sin is linear at the mean: no alpha = 2 constant exists
    code, _ = run([*base, "--alpha", "2", "--shift", "none"], capsys)
    assert code == 1
    # slope 0 removes nothing, so it is the same as none
    _, none = run([*base, "--alpha", "1", "--shift", "none"], capsys)
    code, zero = run([*base, "--alpha", "1", "--shift", "0"], capsys)
    assert code == 0
    assert zero == none
    assert json.loads(none)["report"]["f_label"] == "sin"


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
            cli.cmd_sweep(cli.merged_options(cli.build_parser().parse_args(
                ["sweep", "--mode", "mean_of_n", "--grid", grid])))
        code, _ = run(["sweep", "--mode", "mean_of_n", "--grid", grid], capsys)
        assert code == 1
        assert "int()" not in capsys.readouterr().err


def test_sweep_mean_of_n_slope(capsys):
    code, out = run(["sweep", "--mode", "mean_of_n", "--format", "json",
                     "--samples", "20000", "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert -1.1 <= doc["gap_slope"] <= -0.9
