"""Byte-for-byte CLI output against stored goldens.

Each case runs one CLI call with a fixed seed and compares stdout with
``tests/golden/<name>.json``; a few cases are also compared in their CSV
(``<name>.csv``) and table (``<name>.txt``) renderings.  A change that moves
any printed digit, key or diagnostic fails here; the goldens are only
regenerated on purpose, for a change whose output is meant to differ:
``PYTHONPATH=src python tests/test_golden.py`` rewrites every file of
``CASES`` and ``RENDERED_CASES``.
"""

import contextlib
import io
import pathlib

import pytest

import jensengap.cli as cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

COS = '{"kind": "cos", "mu": 0}'
SQUARE = '{"kind": "polynomial", "mu": 0, "coeffs": [0, 0, 1]}'
POW4_AT_1 = '{"kind": "pow4", "mu": 1}'
LAPLACE = '{"variant": "laplace", "mean": 0, "scale": 0.5}'
GAUSS_AT_1 = '{"variant": "gaussian", "mean": 1, "stddev": 0.3}'
UNIFORM = '{"variant": "uniform", "lo": -1, "hi": 1}'
WIDE_LAPLACE = '{"variant": "laplace", "mean": 0, "scale": 8}'
ABS_POWER_15 = '{"kind": "abs_power", "mu": 0, "alpha": 1.5}'
AVG = ('{"variant": "mean_of_n", "base": {"variant": "uniform", '
       '"lo": -1, "hi": 1}, "n": 4}')
AVG_256 = ('{"variant": "mean_of_n", "base": {"variant": "uniform", '
           '"lo": -1, "hi": 1}, "n": 256}')

NEG_SQUARE = '{"kind": "polynomial", "mu": 0, "coeffs": [0, 0, -1]}'
COS_AT_02 = '{"kind": "cos", "mu": 0.2}'
# the value 0.1 is drawn twice: five draws, four distinct atoms
EMPIRICAL = '{"variant": "empirical", "samples": [0.1, -0.4, 0.1, 0.9, 0.3]}'

SEED = ["--seed", "11"]

CASES = {
    "bound_upper": ["bound", "--kind", "upper", "--alpha", "2", "--n", "2",
                    "--function", COS, "--dist", LAPLACE, *SEED],
    "bound_lower": ["bound", "--kind", "lower", "--alpha", "2", "--beta", "2",
                    "--function", SQUARE, "--dist", LAPLACE, *SEED],
    "bound_holder": ["bound", "--kind", "holder", "--alpha", "2", "--beta", "2",
                     "--k", "1", "--q", "2",
                     "--function", SQUARE, "--dist", LAPLACE, *SEED],
    "bound_holder_single": ["bound", "--kind", "holder_single", "--alpha", "2",
                            "--beta", "2", "--k", "1",
                            "--function", SQUARE, "--dist", LAPLACE, *SEED],
    # q = k+1 = 6 through holder_single, and a proper divisor q = 3 of 6
    "bound_holder_single_k5": ["bound", "--kind", "holder_single",
                               "--alpha", "2", "--beta", "1.5", "--k", "5",
                               "--function", SQUARE, "--dist", LAPLACE, *SEED],
    "bound_holder_k5_q3": ["bound", "--kind", "holder", "--alpha", "2",
                           "--beta", "1.5", "--k", "5", "--q", "3",
                           "--function", SQUARE, "--dist", LAPLACE, *SEED],
    "oracle_empirical": ["oracle", "--function", COS_AT_02,
                         "--dist", EMPIRICAL, *SEED],
    "bound_upper_empirical": ["bound", "--kind", "upper", "--alpha", "2",
                              "--n", "2", "--function", COS_AT_02,
                              "--dist", EMPIRICAL, *SEED],
    "bound_variance": ["bound", "--kind", "variance",
                       "--function", COS, "--dist", UNIFORM, *SEED],
    "bound_variance_pow4": ["bound", "--kind", "variance",
                            "--function", POW4_AT_1, "--dist", GAUSS_AT_1,
                            *SEED],
    "bound_general_upper": ["bound", "--kind", "general_upper",
                            "--terms", "[[2, 1], [4, 0.5]]",
                            "--function", COS, "--dist", LAPLACE, *SEED],
    "bound_general_lower": ["bound", "--kind", "general_lower",
                            "--terms", "[[2, 1], [4, 1]]",
                            "--function", POW4_AT_1, "--dist", GAUSS_AT_1,
                            *SEED],
    # the exact routes ignore --samples: the gap is the Irwin-Hall quadrature
    "oracle_mean_of_n": ["oracle", "--function", COS, "--dist", AVG,
                         "--samples", "4000", *SEED],
    # the bound sits 0.03% above |J|: a pass only with exact moments and gap
    "bound_upper_mean_of_n_256": ["bound", "--kind", "upper", "--alpha", "2",
                                  "--n", "2", "--function", COS,
                                  "--dist", AVG_256, *SEED],
    "oracle_cos_laplace": ["oracle", "--function", COS, "--dist", LAPLACE,
                           *SEED],
    "oracle_pow4_gaussian": ["oracle", "--function", POW4_AT_1,
                             "--dist", GAUSS_AT_1, *SEED],
    "oracle_abs_power_laplace": ["oracle", "--function", ABS_POWER_15,
                                 "--dist", LAPLACE, *SEED],
    "oracle_cos_uniform": ["oracle", "--function", COS, "--dist", UNIFORM,
                           *SEED],
    # 210 evaluations do not reach the tolerance on [-96, 96]: the printed
    # value and error bar are what the exhausted budget gives
    "oracle_cos_wide_laplace_budget": ["oracle", "--function", COS,
                                       "--dist", WIDE_LAPLACE,
                                       "--nodes", "210", *SEED],
    "examples": ["examples"],
    # --sign auto: gap_above is violated, so both fall back to gap_below
    "bound_lower_gap_below": ["bound", "--kind", "lower", "--alpha", "2",
                              "--beta", "2", "--function", NEG_SQUARE,
                              "--dist", LAPLACE, *SEED],
    "bound_general_lower_gap_below": ["bound", "--kind", "general_lower",
                                      "--terms", "[[2, 1]]",
                                      "--function", NEG_SQUARE,
                                      "--dist", LAPLACE, *SEED],
    "sweep_mean_of_n": ["sweep", "--mode", "mean_of_n", "--function", COS,
                        "--dist", LAPLACE, *SEED],
    "sweep_two_point": ["sweep", "--mode", "two_point", *SEED],
    # each sharpness construction at its default parameters
    "tightness_two_point": ["tightness", "--construction", "two_point"],
    "tightness_three_point": ["tightness", "--construction", "three_point"],
    "tightness_outlier": ["tightness", "--construction", "outlier"],
}

RENDERED = {"csv": "csv", "table": "txt"}
RENDERED_CASES = ("bound_upper", "bound_holder", "bound_variance",
                  "sweep_mean_of_n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(capsys, name):
    code = cli.main([*CASES[name], "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


@pytest.mark.parametrize("fmt", sorted(RENDERED))
@pytest.mark.parametrize("name", RENDERED_CASES)
def test_cli_rendering_matches_golden(capsys, name, fmt):
    code = cli.main([*CASES[name], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.{RENDERED[fmt]}").read_text()


if __name__ == "__main__":
    for name, argv in CASES.items():
        formats = {"json": "json", **(RENDERED if name in RENDERED_CASES else {})}
        for fmt, ext in formats.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([*argv, "--format", fmt])
            if code != 0:
                raise SystemExit(f"{name} --format {fmt} exited {code}")
            (GOLDEN_DIR / f"{name}.{ext}").write_text(out.getvalue())
