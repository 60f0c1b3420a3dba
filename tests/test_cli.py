"""End-to-end tests of the command-line interface.

Most cases drive cli.main() in-process for speed; one subprocess test
confirms the ``python -m prabtel`` entry point works.  Exit codes are a
contract: 0 ok, 1 failed verification, 2 input error, 3 non-convergence,
4 regime violation, 5 degenerate reduction.
"""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from prabtel.acceptance import cli_env
from prabtel.cache import TABLES
from prabtel.cli import main

BASE_CONFIG = {
    "params": {"alpha": 1.0, "beta": 0.5, "gamma": 0.5, "delta": -1.0},
    "coeffs": {"a": -1.0, "b": -1.0},
    "domain": {"q": 1.0, "p": 1.0},
    "data": {"phi": "1", "psi": "0.25", "M": "0.5 + 0.5*t"},
    "grid": {"n_t": 8, "n_x": 8},
    "policies": {"quad": {"n_points": 32}},
    "mode": "strict",
}


def write_config(path, **override):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0], body


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSpecialFunctionCommands:
    def test_ml_prints_value(self, capsys):
        assert main(["ml", "--alpha", "1", "--beta", "1",
                     "--gamma", "1", "--z", "1"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line == f"{math.e:.15g}"

    def test_ml_at_origin_is_reciprocal_gamma(self, capsys):
        assert main(["ml", "--alpha", "0.5", "--beta", "3",
                     "--gamma", "2", "--z", "0"]) == 0
        value = float(capsys.readouterr().out.splitlines()[0])
        assert value == pytest.approx(1.0 / math.gamma(3.0), abs=1e-15)

    def test_ml_rejects_nonpositive_alpha(self, capsys):
        assert main(["ml", "--alpha", "0", "--beta", "1",
                     "--gamma", "1", "--z", "1"]) == 2

    def test_ml2_prints_value_and_discriminants(self, capsys):
        code = main(["ml2", "--a1", "0.5", "--b1", "1", "--g1", "0.5",
                     "--a2", "0", "--g2", "1", "--a3", "0.5", "--b2", "1.5",
                     "--d1", "0.5", "--a4", "0.5", "--d2", "0.5",
                     "--b3", "1", "--d3", "1", "--x", "0.25", "--y", "-0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        float(lines[0])
        assert lines[1].startswith("discriminants = ")
        assert len(lines[1].split(" = ")[1].split()) == 2

    def test_ml2_bad_discriminant_is_input_error(self):
        assert main(["ml2", "--a1", "3", "--b1", "1", "--g1", "0.5",
                     "--a2", "0", "--g2", "1", "--a3", "0.5", "--b2", "1.5",
                     "--d1", "0.5", "--a4", "0.5", "--d2", "0.5",
                     "--b3", "1", "--d3", "1", "--x", "0.25", "--y", "-0.5"]) == 2

    def test_ml3_variant_matches_library(self, capsys):
        from prabtel.fracops import PrabhakarParams
        from prabtel.goursat import ml3_tele_variant
        from prabtel.specfun import ml3
        code = main(["ml3", "--variant", "V2", "--alpha", "1",
                     "--beta", "0.5", "--gamma", "0.5", "--delta", "-1",
                     "--x", "0.5", "--y", "-0.25", "--z", "-0.125"])
        assert code == 0
        got = float(capsys.readouterr().out.splitlines()[0])
        packed = ml3_tele_variant("V2", PrabhakarParams(1.0, 0.5, 0.5, -1.0))
        assert got == pytest.approx(ml3(packed, 0.5, -0.25, -0.125), rel=1e-14)

    def test_ml3_rejects_unknown_variant(self):
        with pytest.raises(SystemExit) as err:
            main(["ml3", "--variant", "V9", "--alpha", "1", "--beta", "0.5",
                  "--gamma", "0.5", "--delta", "-1",
                  "--x", "0", "--y", "0", "--z", "0"])
        assert err.value.code == 2


class TestSolveCommand:
    def test_writes_tables_and_report(self, workdir, capsys):
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg)]) == 0
        out = capsys.readouterr().out
        for key in ("A", "divisor", "boundary", "nonlocal", "pde",
                    "compatibility"):
            assert any(line.split("=")[0].strip() == key
                       for line in out.splitlines())
        header, body = read_csv(workdir / "u.csv")
        assert header == "t,x,u"
        assert body.shape == (81, 3)
        header, tau = read_csv(workdir / "tau.csv")
        assert header == "x,tau"
        assert tau.shape == (9, 2)
        # trace row of the table equals the tau table
        np.testing.assert_array_equal(body[:9, 2], tau[:, 1])
        # boundary column equals phi = 1 to solver precision
        np.testing.assert_allclose(body[::9, 2], 1.0, atol=1e-10)

    def test_output_bytes_deterministic(self, workdir):
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg)]) == 0
        first = (workdir / "u.csv").read_bytes()
        assert main(["solve", str(cfg)]) == 0
        assert (workdir / "u.csv").read_bytes() == first

    def test_grid_flags_override_config(self, workdir):
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg), "--n-t", "4", "--n-x", "4"]) == 0
        _, body = read_csv(workdir / "u.csv")
        assert body.shape == (25, 3)

    def test_plot_writes_svg(self, workdir):
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg), "--plot", "out.svg"]) == 0
        text = (workdir / "out.svg").read_text()
        assert text.startswith("<svg") and text.endswith("</svg>\n")

    def test_output_paths_from_config(self, workdir):
        cfg = write_config(workdir / "run.json",
                           outputs={"u_csv": "a.csv", "tau_csv": "b.csv"})
        assert main(["solve", str(cfg)]) == 0
        assert (workdir / "a.csv").exists() and (workdir / "b.csv").exists()

    def test_strict_regime_violation_exits_4(self, workdir):
        cfg = write_config(workdir / "run.json", coeffs={"a": 1.0})
        assert main(["solve", str(cfg)]) == 4

    def test_relaxed_mode_overrides_to_warning(self, workdir):
        cfg = write_config(workdir / "run.json", coeffs={"a": 1.0})
        with pytest.warns(RuntimeWarning):
            assert main(["solve", str(cfg), "--mode", "relaxed"]) == 0

    def test_corner_warning_names_the_caller(self, workdir):
        # psi = 0.5 misses the compatibility identity; relaxed mode warns
        cfg = write_config(workdir / "run.json",
                           params={"delta": 0.5},
                           data={"phi": "1", "psi": "0.5", "M": "0.5 + 0.5*t"},
                           mode="relaxed")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", str(cfg)]) == 0
        corner = [w for w in caught if "misses the corner" in str(w.message)]
        assert corner
        for w in corner:
            assert Path(w.filename).parent.name != "prabtel", w.filename

    def test_degenerate_divisor_exits_5(self, workdir):
        cfg = write_config(workdir / "run.json", coeffs={"a": 0.0, "b": -1.0},
                           data={"phi": "1", "psi": "0", "M": "1"},
                           mode="relaxed")
        with pytest.warns(RuntimeWarning):
            assert main(["solve", str(cfg)]) == 5

    def test_series_overflow_exits_2(self, workdir):
        # u = 1 data whose series majorant overflows float64: an argument
        # out of range, not a degenerate divisor (exit 5)
        cfg = write_config(workdir / "run.json",
                           params={"alpha": 0.928, "beta": 0.103,
                                   "gamma": 1.49, "delta": -2.07},
                           coeffs={"a": -5.06, "b": 2.28},
                           data={"phi": "1", "psi": "0.5", "M": "0.5"},
                           grid={"n_t": 16, "n_x": 16},
                           policies={"quad": {"n_points": 64}},
                           mode="relaxed")
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert main(["solve", str(cfg)]) == 2

    def test_missing_config_file_exits_2(self, workdir):
        assert main(["solve", str(workdir / "absent.json")]) == 2

    def test_malformed_json_exits_2(self, workdir):
        path = workdir / "run.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2

    def test_bad_expression_exits_2(self, workdir):
        cfg = write_config(workdir / "run.json",
                           data={"phi": "1 +", "psi": "0.25", "M": "1"})
        assert main(["solve", str(cfg)]) == 2


class TestConfigValidation:
    @pytest.mark.parametrize("override", [
        {"surplus": 1},
        {"params": {"alpha": 1.0, "extra": 2.0}},
        {"data": {"phi": "1", "psi": "0.25", "M": "1", "rho": "0"}},
        {"policies": {"quad": {"n_points": 32, "order": 4}}},
        {"outputs": {"u_csv": "u.csv", "report": "r.txt"}},
        # QuadPolicy.tol reaches no stage of solve or verify
        {"policies": {"quad": {"n_points": 32, "tol": 1e-8}}},
        # fixed in the solver, no longer policy fields
        {"policies": {"series": {"consecutive_small": 3}}},
        {"policies": {"quad": {"grading": 2.0}}},
    ])
    def test_unknown_keys_rejected(self, workdir, override):
        cfg = write_config(workdir / "run.json", **override)
        assert main(["solve", str(cfg)]) == 2

    def test_missing_section_rejected(self, workdir):
        raw = json.loads(json.dumps(BASE_CONFIG))
        del raw["domain"]
        path = workdir / "run.json"
        path.write_text(json.dumps(raw))
        assert main(["solve", str(path)]) == 2

    def test_wrong_types_rejected(self, workdir):
        for override in ({"grid": {"n_t": 8.5, "n_x": 8}},
                         {"mode": "fast"},
                         {"data": {"phi": 1, "psi": "0.25", "M": "1"}},
                         {"data": {"phi": "1", "psi": "0.25", "M": "1",
                                   "f_smooth": 3}}):
            cfg = write_config(workdir / "run.json", **override)
            assert main(["solve", str(cfg)]) == 2


class TestVerifyCommand:
    def test_fresh_solution_passes_with_identical_report(self, workdir, capsys):
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg)]) == 0
        solve_out = capsys.readouterr().out
        assert main(["verify", str(cfg), "u.csv"]) == 0
        verify_out = capsys.readouterr().out

        def block(text):
            keys = ("boundary", "nonlocal", "pde", "compatibility")
            return [line for line in text.splitlines()
                    if line.split("=")[0].strip() in keys]

        assert block(solve_out) == block(verify_out)

    def test_passes_on_its_own_csv_of_a_non_dyadic_grid(self, workdir):
        # steps of 0.7 / 6 and 1 / 7 are not binary fractions: the grids
        # read back from u.csv must pass the lattice check of every stage
        cfg = write_config(workdir / "run.json",
                           domain={"q": 1.0, "p": 0.7},
                           grid={"n_t": 7, "n_x": 6})
        assert main(["solve", str(cfg)]) == 0
        assert main(["verify", str(cfg), "u.csv"]) == 0

    def test_compatibility_defect_computed_once(self, workdir, monkeypatch):
        import prabtel.cli as cli
        import prabtel.problem as problem
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg)]) == 0
        calls = []
        check = problem.compatibility_check

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(problem, "compatibility_check", counted)
        monkeypatch.setattr(cli, "compatibility_check", counted, raising=False)
        TABLES.clear()  # count a cold verify
        assert main(["verify", str(cfg), "u.csv"]) == 0
        assert len(calls) == 1

    def test_corrupted_cell_fails_thresholds(self, workdir, capsys):
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg)]) == 0
        lines = (workdir / "u.csv").read_text().splitlines()
        t, x, u = lines[40].split(",")
        lines[40] = f"{t},{x},{float(u) + 0.1:.17g}"
        (workdir / "u.csv").write_text("\n".join(lines) + "\n")
        assert main(["verify", str(cfg), "u.csv"]) == 1

    def test_missing_header_exits_2(self, workdir):
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg)]) == 0
        lines = (workdir / "u.csv").read_text().splitlines()
        (workdir / "u.csv").write_text("\n".join(lines[1:]) + "\n")
        assert main(["verify", str(cfg), "u.csv"]) == 2

    def test_shape_mismatch_exits_2(self, workdir):
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg)]) == 0
        lines = (workdir / "u.csv").read_text().splitlines()
        (workdir / "u.csv").write_text("\n".join(lines[:-5]) + "\n")
        assert main(["verify", str(cfg), "u.csv"]) == 2
        # or a grid that disagrees with the config
        assert main(["solve", str(cfg)]) == 0
        assert main(["verify", str(cfg), "u.csv", "--n-t", "4"]) == 2

    def test_mode_flag_is_a_usage_error(self, workdir, capsys):
        # the regime mode reaches solve only; verify rejects the flag
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(cfg), "u.csv", "--mode", "relaxed"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "unrecognized arguments: --mode relaxed" in err

    def test_non_numeric_cell_exits_2(self, workdir):
        cfg = write_config(workdir / "run.json")
        assert main(["solve", str(cfg)]) == 0
        lines = (workdir / "u.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",oops"
        (workdir / "u.csv").write_text("\n".join(lines) + "\n")
        assert main(["verify", str(cfg), "u.csv"]) == 2


class TestSelftestCommand:
    def test_filter_selects_fast_check(self, capsys):
        assert main(["selftest", "--filter", "special-function"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "1/1 checks passed" in out

    def test_unmatched_filter_is_input_error(self, capsys):
        assert main(["selftest", "--filter", "no-such-check"]) == 2


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "prabtel", "ml", "--alpha", "1",
         "--beta", "1", "--gamma", "1", "--z", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "1"
