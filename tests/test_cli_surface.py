"""The CLI's surface: help texts, and config files read like flags.

The help goldens in ``tests/golden/help_*.txt`` pin every flag, metavar,
choice list and help line of ``jensengap`` and its subcommands, at a fixed
80-column width.  The config cases check that a config file holding every
option of a subcommand prints the same bytes as the same flags.
"""

import json
import pathlib

import pytest

import jensengap.cli as cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

COS = '{"kind": "cos", "mu": 0}'
SQUARE = '{"kind": "polynomial", "mu": 0, "coeffs": [0, 0, 1]}'
LAPLACE = '{"variant": "laplace", "mean": 0, "scale": 0.5}'
UNIFORM = '{"variant": "uniform", "lo": -1, "hi": 1}'
MEAN_OF_3 = ('{"variant": "mean_of_n", "n": 3, '
             '"base": {"variant": "two_point", "mu": 0, "sigma": 1}}')

COMMANDS = ("bound", "oracle", "examples", "tightness", "sweep")


@pytest.mark.parametrize("command", ("", *COMMANDS))
def test_help_matches_golden(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    name = f"help_{command}" if command else "help"
    assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.txt").read_text()


# every option of each subcommand, with the types its flag produces
EVERY_OPTION = {
    "bound": {"function": SQUARE, "dist": LAPLACE, "seed": 11, "samples": 5000,
              "kind": "holder", "alpha": 2.0, "n": 2.0, "beta": 2.0, "k": 1,
              "q": 2, "terms": "[[2, 1]]", "sign": "gap_above",
              "shift": "auto", "nodes": 500, "format": "json"},
    "oracle": {"function": COS, "dist": LAPLACE, "seed": 11, "samples": 5000,
               "nodes": 500, "format": "csv"},
    "examples": {"format": "csv"},
    "tightness": {"construction": "outlier", "alpha": 2.0, "n": 2.0,
                  "beta": 1.0, "sigma": 0.5, "p": 0.01, "sigma_n": 1.0,
                  "k": 1, "q": 1.5, "j_max": 512, "format": "json"},
    "sweep": {"mode": "mean_of_n", "grid": "4,8,16,32", "alpha": 2.0,
              "n": 2.0, "function": COS, "dist": UNIFORM, "seed": 3,
              "samples": 1000, "format": "table"},
}


def as_flags(options):
    argv = []
    for key, value in options.items():
        text = value if isinstance(value, str) else json.dumps(value)
        argv += ["--" + key.replace("_", "-"), text]
    return argv


@pytest.mark.parametrize("command", COMMANDS)
def test_config_with_every_option_matches_flags(tmp_path, capsys, command):
    options = EVERY_OPTION[command]
    by_flags, by_config = tmp_path / "flags.out", tmp_path / "config.out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**options, "out": str(by_config)}))
    code_flags = cli.main([command, *as_flags(options), "--out", str(by_flags)])
    code_config = cli.main([command, "--config", str(cfg)])
    assert capsys.readouterr().out == ""
    assert code_flags == code_config == 0
    assert by_config.read_text() == by_flags.read_text()


@pytest.mark.parametrize("command, config, flag", [
    ("examples", {"format": "xml"}, "--format"),
    ("oracle", {"function": COS, "dist": LAPLACE, "samples": 2.5}, "--samples"),
    ("tightness", {"construction": "outlier", "k": 1.5}, "--k"),
    ("bound", {"kind": "bogus"}, "--kind"),
])
def test_config_value_outside_its_flag_is_input_error(tmp_path, capsys,
                                                      command, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = cli.main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("command, as_text, as_value", [
    ("oracle", {"function": COS, "dist": LAPLACE},
     {"function": json.loads(COS), "dist": json.loads(LAPLACE)}),
    ("bound", {"kind": "general_upper", "terms": "[[2, 1], [4, 0.5]]"},
     {"kind": "general_upper", "terms": [[2, 1], [4, 0.5]]}),
    # a whole-number float reads as the int its flag takes
    ("bound", {"kind": "holder", "alpha": 2, "beta": 2, "k": 1, "q": 2},
     {"kind": "holder", "alpha": 2.0, "beta": 2.0, "k": 1.0, "q": 2.0}),
])
def test_config_json_values_match_their_text(tmp_path, capsys, command,
                                             as_text, as_value):
    data = {"function": SQUARE, "dist": LAPLACE, "seed": 11, "format": "json"}
    outputs = []
    for config in (as_text, as_value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**data, **config}))
        code = cli.main([command, "--config", str(cfg)])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, config", [
    ("oracle", {"function": COS, "dist": LAPLACE, "seed": None,
                "samples": None, "format": "json"}),
    ("sweep", {"mode": "two_point", "alpha": None, "n": None,
               "format": "json"}),
])
def test_config_null_means_unset(tmp_path, capsys, monkeypatch, command,
                                 config):
    monkeypatch.setenv("JGB_SEED", "7")
    outputs = []
    for cfg_doc in (config, {k: v for k, v in config.items() if v is not None}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_doc))
        code = cli.main([command, "--config", str(cfg)])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, words", [
    # the second moment of stddev 1e300 overflows a double
    (["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
      "--function", COS,
      "--dist", '{"variant": "gaussian", "mean": 0, "stddev": 1e300}'],
     "order-2"),
    (["bound", "--kind", "holder", "--alpha", "2", "--beta", "2", "--k", "1",
      "--q", "2.5", "--function", SQUARE, "--dist", LAPLACE], "q must be"),
    # m_1 = 1e160 is a finite moment, but the bound's m_1^2 overflows
    (["bound", "--kind", "lower", "--alpha", "2", "--beta", "2",
      "--function", SQUARE,
      "--dist", '{"variant": "two_point", "mu": 0, "sigma": 1e160}'],
     "lower_cauchy_schwarz bound"),
    # a Monte Carlo mean needs a count of draws, and its error bar two of them
    (["oracle", "--function", COS, "--dist", MEAN_OF_3, "--samples", "0"],
     "samples must be a positive integer"),
    # order 1 of this mean takes the shared Monte Carlo batch of the moments
    (["bound", "--kind", "upper", "--alpha", "1", "--n", "2", "--function", COS,
      "--dist", MEAN_OF_3, "--samples", "1"], "samples must be at least 2"),
    # the rule overflows; only the error line reaches stderr, no numpy warning
    (["bound", "--kind", "variance",
      "--function", '{"kind": "polynomial", "mu": 0, "coeffs": [0, 0, 1e10]}',
      "--dist", '{"variant": "two_point", "mu": 0, "sigma": 1e150}'],
     "returned a non-finite value"),
    # the gap's rule overflows: on the whole-line map at the outermost node
    # where the density is not 0, and inside the quadrature of a bounded
    # support, where the polynomial's closed form overflows too
    (["oracle", "--function", '{"kind": "abs_power", "mu": 0, "alpha": 300}',
      "--dist", '{"variant": "gaussian", "mean": 0, "stddev": 1}'],
     "error: |x-0|^300 returned a non-finite value near x = [-34.59293557]"),
    (["oracle", "--function", '{"kind": "polynomial", "mu": 0, "coeffs": [0, 0, 1e307]}',
      "--dist", '{"variant": "mean_of_n", "n": 3, '
      '"base": {"variant": "uniform", "lo": -1e200, "hi": 1e200}}'],
     "error: poly[0, 0, 1e+307] returned a non-finite value near x = ["),
    (["bound", "--kind", "upper", "--alpha", "2", "--n", "2", "--function", COS,
      "--dist", MEAN_OF_3, "--shift", "inf"], "'slope' must be a finite number, got inf"),
    # each slope fits a double, but the shifted slope at mu does not
    (["bound", "--kind", "upper", "--alpha", "2", "--n", "2", "--function",
      '{"kind": "shifted", "base": {"kind": "polynomial", "mu": 0, "coeffs": [0, 1e308]},'
      ' "slope": -1e308}', "--dist", '{"variant": "two_point", "mu": 0, "sigma": 1}'],
     "linear shift of poly[0, 1e+308]: slope at mu 1e+308 less the shift -1e+308 "
     "does not fit a double"),
    # a kind or variant that is not text cannot be looked up
    (["oracle", "--function", '{"kind": []}', "--dist", LAPLACE],
     "unknown function kind []"),
    (["oracle", "--function", COS, "--dist", '{"variant": {}}'],
     "unknown distribution variant {}"),
    # 4 mu^3 overflows a double
    (["oracle", "--function", '{"kind": "pow4", "mu": 1e200}',
      "--dist", '{"variant": "two_point", "mu": 1e200, "sigma": 1}'],
     "pow4 has no finite slope at mu = 1e+200"),
    (["bound", "--kind", "upper", "--alpha", "2", "--n", "2", "--function", COS,
      "--dist", MEAN_OF_3, "--shift", "abc"],
     "--shift must be 'auto', 'none', or a number, got 'abc'"),
    (["bound", "--kind", "general_upper", "--terms", "[1,2]", "--function", COS,
      "--dist", MEAN_OF_3], "--terms must be a JSON list of [exponent, weight] pairs"),
    (["bound", "--kind", "holder", "--alpha", "2", "--beta", "2", "--k", "1",
      "--function", SQUARE, "--dist", LAPLACE],
     "--kind holder needs --q; valid choices for k=1: [2]"),
    (["oracle", "--dist", LAPLACE], "--function is required for this command"),
], ids=["overflowing_moment", "fractional_q", "overflowing_bound",
        "zero_samples", "one_sample", "overflowing_rule", "overflowing_gap_probe",
        "overflowing_gap_quadrature", "infinite_shift",
        "overflowing_shifted_slope", "list_kind", "object_variant", "overflowing_slope",
        "text_shift", "flat_terms", "holder_without_q", "oracle_without_function"])
def test_typed_error_without_traceback(capsys, argv, words):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert words in captured.err


def test_config_that_is_not_an_object_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = cli.main(["oracle", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: config file must hold a JSON object\n"


def test_polynomial_gap_past_its_rule_is_closed_form(capsys):
    # 1e307 x^2 overflows at the quadrature's outer nodes, but its gap on
    # N(0, 1) is 1e307 E X^2 = 1e307, from the central moments alone
    code = cli.main(["oracle", "--function",
                     '{"kind": "polynomial", "mu": 0, "coeffs": [0, 0, 1e307]}',
                     "--dist", '{"variant": "gaussian", "mean": 0, "stddev": 1}',
                     "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["value"], out["method"], out["abs_error"], out["count"]) == (
        1e307, "closed_form", 0.0, 0)


def test_lower_bound_fits_though_its_product_overflows(capsys):
    # M = 2e10 and m_1^2 = 1e298 are finite and M m_1^2 is not, but the
    # bound M m_1^2 / (1 + m_0) = 1e308 fits a double
    code = cli.main(["bound", "--kind", "lower", "--alpha", "2", "--beta", "2",
                     "--function", '{"kind": "polynomial", "mu": 0, "coeffs": [0, 0, 1e10]}',
                     "--dist", '{"variant": "two_point", "mu": 0, "sigma": 1e149}',
                     "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["report"]["value"] == pytest.approx(1e308, rel=1e-15)
    assert out["verify"]["verdict"] == "pass"
