"""End-to-end tests of the command-line front end.

Covers the documented invocation examples, exit-code discipline
(0 success, 2 validation, 3 numerical), byte-identical determinism,
config-file override semantics, header content, and atomic writes.
"""
import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kreinspec.cli import (COMMANDS, DEFAULT_TOLERANCES, build_parser, main,
                           resolve_config)
from kreinspec.errors import ValidationError


def run_cli(args, tmp_path, sub=None):
    out = tmp_path / (sub or "out")
    code = main(list(args) + ["--output-dir", str(out)])
    return code, out


def read_rows(path):
    header = []
    rows = []
    columns = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


class TestTransversalCommand:
    def test_documented_example(self, tmp_path):
        code, out = run_cli(
            ["transversal", "--a", "1.5707963", "--alpha0", "0.5",
             "--modes", "10"], tmp_path)
        assert code == 0
        header, columns, rows = read_rows(out / "transversal.csv")
        assert columns == ["n", "lambda", "indicator", "type"]
        assert len(rows) == 10
        assert rows[0][0] == "0"
        assert float(rows[0][1]) == 0.25
        assert rows[0][3] == "positive"
        assert rows[1][3] == "negative"

    def test_header_carries_version_hash_and_units(self, tmp_path):
        code, out = run_cli(["transversal"], tmp_path)
        assert code == 0
        header, _, _ = read_rows(out / "transversal.csv")
        assert any(h.startswith("# kreinspec 0.") for h in header)
        hashes = [h for h in header if h.startswith("# config-sha256: ")]
        assert len(hashes) == 1
        assert len(hashes[0].split(": ")[1]) == 64
        assert any(h.startswith("# description: ") for h in header)
        assert any("inverse length squared" in h for h in header)

    def test_rows_match_library_closed_forms(self, tmp_path):
        from kreinspec import transversal_modes
        code, out = run_cli(
            ["transversal", "--a", "2.0", "--alpha0", "0.7",
             "--modes", "6"], tmp_path)
        assert code == 0
        _, _, rows = read_rows(out / "transversal.csv")
        modes = transversal_modes(2.0, 0.7, 6)
        for row, mode in zip(rows, modes):
            assert int(row[0]) == mode.mu_index
            assert float(row[1]) == mode.lam
            assert float(row[2]) == mode.indicator
            assert row[3] == mode.type.value


class TestMsetsCommand:
    def test_documented_example(self, tmp_path):
        code, out = run_cli(
            ["msets", "--a", "1.5707963", "--alpha0", "0.5",
             "--v0", "zero"], tmp_path)
        assert code == 0
        doc = json.loads((out / "msets.json").read_text())
        assert doc["schema"] == "kreinspec/waveguide-decomposition-v1"
        (pp,) = doc["sigma_pp"]
        assert pp["lo"] == 0.25 and pp["lo_closed"] is True
        assert abs(pp["hi"] - 1.0) < 1e-7 and pp["hi_closed"] is False
        assert doc["sigma_mm"] == []
        assert doc["sigma_00"][0]["hi"] == "inf"
        assert doc["meta"]["tool"] == "kreinspec"

    def test_square_well_layers(self, tmp_path):
        code, out = run_cli(
            ["msets", "--v0", "square-well", "--well-depth", "1.0",
             "--well-width", "2.0"], tmp_path)
        assert code == 0
        doc = json.loads((out / "msets.json").read_text())
        lows = [iv["lo"] for iv in doc["sigma_pp"]]
        assert any(abs(lo - (0.25 - 0.45375316586032954)) < 1e-6
                   for lo in lows)

    def test_pinned_mode_count_below_window_is_validation_error(
            self, tmp_path, capsys):
        code, _ = run_cli(["msets", "--n-modes", "1"], tmp_path)
        assert code == 2
        assert "window" in capsys.readouterr().err


class TestSecularCommand:
    def test_conjugate_pair_at_reference_coupling(self, tmp_path):
        code, out = run_cli(["secular"], tmp_path)
        assert code == 0
        header, _, rows = read_rows(out / "secular_roots.csv")
        assert any(h == "# winding: 2" for h in header)
        assert len(rows) == 2
        k0 = complex(float(rows[0][0]), float(rows[0][1]))
        k1 = complex(float(rows[1][0]), float(rows[1][1]))
        assert abs(k0 - k1.conjugate()) < 1e-10
        assert float(rows[0][2]) <= 1e-12

    def test_degenerate_rectangle_rejected(self, tmp_path, capsys):
        code, _ = run_cli(["secular", "--re-min", "1.5", "--re-max", "0.5"],
                          tmp_path)
        assert code == 2
        assert "rectangle" in capsys.readouterr().err


class TestBranchesCommand:
    def test_three_branches_with_symmetry(self, tmp_path):
        code, out = run_cli(["branches", "--samples", "5"], tmp_path)
        assert code == 0
        tables = []
        for i in (1, 2, 3):
            _, columns, rows = read_rows(out / f"branch{i}.csv")
            assert columns == ["beta0", "re_k", "im_k"]
            assert len(rows) == 5
            tables.append(np.array([[float(v) for v in r] for r in rows]))
        ims = sorted(float(t[-1, 2]) for t in tables)
        assert abs(ims[0] + ims[2]) < 1e-10 and abs(ims[1]) <= 1e-10

    def test_collision_is_numerical_failure(self, tmp_path, capsys):
        code, _ = run_cli(
            ["branches", "--beta0-min", "-0.05", "--beta0-max", "0.0",
             "--samples", "3"], tmp_path)
        assert code == 3
        assert "collision" in capsys.readouterr().err


class TestTensorCheckCommand:
    def test_small_campaign_report(self, tmp_path):
        code, out = run_cli(
            ["tensor-check", "--instances", "14", "--seed", "5"], tmp_path)
        assert code == 0
        doc = json.loads((out / "campaign.json").read_text())
        assert doc["ok"] is True and doc["total_violations"] == 0
        assert doc["n_instances"] == 14
        assert sum(doc["kind_counts"].values()) == 14
        assert len(doc["instances"]) == 14
        assert {"index", "kind", "dim", "violations"} <= set(
            doc["instances"][0])


class TestSpectrum2dCommand:
    def test_eigenvalues_and_realness_report(self, tmp_path):
        code, out = run_cli(
            ["spectrum2d", "--nx", "40", "--ny", "12", "--lx", "8",
             "--bump-height", "-0.1", "--target-re", "0.24",
             "--count", "3", "--window-lo", "0.0", "--window-hi", "0.9"],
            tmp_path)
        assert code == 0
        _, columns, rows = read_rows(out / "spectrum2d.csv")
        assert columns == ["re_lambda", "im_lambda", "residual"]
        assert len(rows) == 3
        assert all(float(r[2]) <= 1e-8 for r in rows)
        doc = json.loads((out / "realness.json").read_text())
        assert doc["schema"] == "kreinspec/realness-report-v1"
        assert doc["real_count"] + len(doc["flagged"]) >= doc["real_count"]

    def test_bad_grid_is_validation_error(self, tmp_path, capsys):
        code, _ = run_cli(["spectrum2d", "--ny", "4"], tmp_path)
        assert code == 2
        assert "ny" in capsys.readouterr().err


class TestPseudospectrumCommand:
    def test_map_and_fit(self, tmp_path):
        code, out = run_cli(
            ["pseudospectrum", "--nx", "32", "--ny", "10", "--lx", "6",
             "--mx", "5", "--my", "4", "--fit-window-lo", "0.3",
             "--fit-window-hi", "0.9"], tmp_path)
        assert code == 0
        _, columns, rows = read_rows(out / "pseudospectrum.csv")
        assert columns == ["re_lambda", "im_lambda", "sigma_min", "flagged"]
        assert len(rows) == 20
        assert all(float(r[2]) > 0 and r[3] == "0" for r in rows)
        doc = json.loads((out / "fit.json").read_text())
        assert doc["schema"] == "kreinspec/imag-bound-fit-v1"
        # the default fit band [0.03, 0.12] keeps the two interior im rows
        assert doc["n_samples"] == 10


class TestFiguresCommand:
    def test_fig1_sweep(self, tmp_path):
        code, out = run_cli(
            ["figures", "--which", "fig1", "--alpha0-min", "0.1",
             "--alpha0-max", "0.9", "--alpha0-samples", "4",
             "--modes", "3"], tmp_path)
        assert code == 0
        _, columns, rows = read_rows(out / "fig1.csv")
        assert columns == ["alpha0", "n", "lambda", "type"]
        assert len(rows) == 12

    def test_fig1_sweep_keeps_degenerate_pair_together(self, tmp_path):
        code, out = run_cli(
            ["figures", "--which", "fig1", "--alpha0-min", "1.0",
             "--alpha0-max", "3.0", "--alpha0-samples", "3",
             "--modes", "3"], tmp_path)
        assert code == 0
        _, _, rows = read_rows(out / "fig1.csv")
        exceptional = [r for r in rows if float(r[0]) == 3.0]
        assert len(exceptional) == 4
        assert sum(r[3] == "not-definite" for r in exceptional) == 2

    def test_fig2_intervals_partition(self, tmp_path):
        code, out = run_cli(
            ["figures", "--which", "fig2", "--alpha0-samples", "3",
             "--alpha0-min", "0.2", "--alpha0-max", "0.8"], tmp_path)
        assert code == 0
        _, columns, rows = read_rows(out / "fig2.csv")
        assert columns[:2] == ["alpha0", "set"]
        assert {r[1] for r in rows} <= {"pp", "mm", "00"}
        assert any(r[3] == "inf" for r in rows)

    def test_fig3_documented_example(self, tmp_path):
        code, out = run_cli(
            ["figures", "--which", "fig3", "--beta0-min", "-0.1",
             "--beta0-max", "-0.001", "--samples", "4"], tmp_path)
        assert code == 0
        paths = sorted(out.glob("fig3_branch*.csv"))
        assert len(paths) == 3
        finals = []
        for p in paths:
            _, _, rows = read_rows(p)
            assert float(rows[-1][0]) == -0.001
            finals.append(complex(float(rows[-1][1]), float(rows[-1][2])))
        ims = sorted(z.imag for z in finals)
        assert ims[0] < -1e-3 and ims[2] > 1e-3
        assert abs(ims[0] + ims[2]) < 1e-10 and abs(ims[1]) <= 1e-10

    def test_unknown_figure_rejected(self, tmp_path, capsys):
        code = main(["figures", "--which", "fig9",
                     "--output-dir", str(tmp_path)])
        assert code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        for args, name in (
            (["transversal", "--alpha0", "0.37"], "transversal.csv"),
            (["msets", "--alpha0", "0.37"], "msets.json"),
            (["secular"], "secular_roots.csv"),
            (["tensor-check", "--instances", "6", "--seed", "3"],
             "campaign.json"),
            (["pseudospectrum", "--nx", "32", "--ny", "16", "--mx", "3",
              "--my", "2"], "pseudospectrum.csv"),
        ):
            _, out_a = run_cli(args, tmp_path, sub="a" + name)
            _, out_b = run_cli(args, tmp_path, sub="b" + name)
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_campaign_but_not_schema(self, tmp_path):
        _, out_a = run_cli(["tensor-check", "--instances", "6",
                            "--seed", "3"], tmp_path, sub="s3")
        _, out_b = run_cli(["tensor-check", "--instances", "6",
                            "--seed", "4"], tmp_path, sub="s4")
        doc_a = json.loads((out_a / "campaign.json").read_text())
        doc_b = json.loads((out_b / "campaign.json").read_text())
        assert doc_a["meta"]["config_sha256"] != doc_b["meta"]["config_sha256"]
        assert doc_a["schema"] == doc_b["schema"]


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha0": 0.8}))
        code, out = run_cli(
            ["transversal", "--alpha0", "0.5", "--config", str(cfg)],
            tmp_path)
        assert code == 0
        _, _, rows = read_rows(out / "transversal.csv")
        assert abs(float(rows[0][1]) - 0.64) < 1e-14

    def test_config_sets_seed_and_tolerances(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"seed": 11, "instances": 6, "tolerances": {"gram": 1e-9}}))
        code, out = run_cli(["tensor-check", "--config", str(cfg)], tmp_path)
        assert code == 0
        doc = json.loads((out / "campaign.json").read_text())
        assert doc["seed"] == 11 and doc["n_instances"] == 6

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha_zero": 0.8}))
        code, _ = run_cli(["transversal", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert "alpha_zero" in capsys.readouterr().err

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, _ = run_cli(["transversal", "--config", str(cfg)], tmp_path)
        assert code == 2

    def test_missing_config_rejected(self, tmp_path):
        code, _ = run_cli(
            ["transversal", "--config", str(tmp_path / "absent.json")],
            tmp_path)
        assert code == 2

    def test_default_tolerances_documented_values(self):
        assert DEFAULT_TOLERANCES == {
            "gram": 1e-8, "residual": 1e-8, "set_endpoint": 1e-12}


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_validation_failures_exit_two(self, tmp_path, capsys):
        assert run_cli(["transversal", "--modes", "0"], tmp_path)[0] == 2
        assert run_cli(["transversal", "--a", "-1.0"], tmp_path)[0] == 2
        assert run_cli(["msets", "--v0", "square-well", "--well-depth",
                        "-2.0"], tmp_path)[0] == 2

    @pytest.mark.parametrize("command, doc", [
        ("tensor-check", {"tolerances": {"gram": "abc"}}),
        ("transversal", {"modes": "ten"}),
        ("transversal", {"tolerances": {"grm": 1e-3}}),
        ("spectrum2d", {"seed": "x"}),
        ("spectrum2d", {"bump_height": "tall"}),
        ("spectrum2d", {"imag_tol": "x", "window_lo": 0, "window_hi": 0.9}),
        ("msets", {"n_modes": "x"}),
        ("branches", {"seed_region": [[0.7, "x", -0.4, 0.4]]}),
        ("spectrum2d", {"out": 5}),
        ("spectrum2d", {"x_boundary": "neumann"}),
        ("spectrum2d", {"output_dir": 5}),
        ("spectrum2d", {"count": 2.7}),
        ("spectrum2d", {"window_lo": 0}),
        ("transversal", {"a": True}),
        ("transversal", {"out": ""}),
        ("tensor-check", {"seed": -1, "instances": 1}),
    ])
    def test_malformed_config_values_exit_two(self, tmp_path, command, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "kreinspec", command, "--config", str(cfg),
             "--output-dir", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ["spectrum2d", "--window-lo", "0"],
        ["spectrum2d", "--window-hi", "0.9"],
        ["pseudospectrum", "--fit-window-lo", "0.3"],
    ])
    def test_half_window_flag_exits_two_before_any_output(
            self, tmp_path, capsys, args):
        code, out = run_cli(args, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "together" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["spectrum2d", "--nx", "16", "--ny", "8", "--count", "3",
         "--window-lo", "1", "--window-hi", "0.5"],
        ["pseudospectrum", "--nx", "16", "--ny", "8", "--mx", "3", "--my", "3",
         "--fit-window-lo", "5", "--fit-window-hi", "6"],
    ])
    def test_late_window_failure_writes_nothing(self, tmp_path, capsys, args):
        # an inverted window, and a fit window with no samples in it
        code, out = run_cli(args, tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("args, code", [
        (["spectrum2d", "--nx", "8", "--ny", "8", "--count", "100"], 2),
        (["spectrum2d", "--nx", "8", "--ny", "8", "--alpha0", "1e300"], 3),
        (["transversal", "--alpha0", "1e200"], 2),
        (["transversal", "--a", "1e308", "--alpha0", "1e308"], 2),
        (["secular", "--a", "1e300"], 3),
        (["secular", "--re-min", "1e300", "--re-max", "1e301"], 3),
        (["secular", "--a", "1e300", "--re-max", "1e10"], 3),
        (["spectrum2d", "--nx", "8", "--ny", "8", "--a", "1e-300"], 2),
        (["spectrum2d", "--nx", "8", "--ny", "8", "--lx", "1e-300"], 2),
        (["spectrum2d", "--nx", "8", "--ny", "8", "--bump-width", "1e-300",
          "--bump-height", "1"], 2),
    ])
    def test_extreme_finite_flags_exit_cleanly(self, tmp_path, capsys,
                                               args, code):
        got, out = run_cli(args, tmp_path)
        err = capsys.readouterr().err
        assert got == code
        prefix = "error: " if code == 2 else "numerical failure: "
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_unconverged_sigma_min_exits_three_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.array([]), np.array([]))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        code, out = run_cli(["pseudospectrum", "--nx", "16", "--ny", "8",
                             "--mx", "2", "--my", "2", "--dense-cutoff", "0"],
                            tmp_path)
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not out.exists()

    def test_version_and_help_exit_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "kreinspec" in capsys.readouterr().out
        assert main(["--help"]) == 0

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "kreinspec", "transversal",
             "--output-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "transversal.csv" in proc.stdout


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, tmp_path):
        code, out = run_cli(["transversal"], tmp_path)
        assert code == 0
        assert not list(out.glob("*.tmp"))

    def test_failed_run_leaves_no_partial_output(self, tmp_path):
        code, out = run_cli(
            ["msets", "--v0", "square-well", "--well-depth", "-2.0"],
            tmp_path)
        assert code == 2
        assert not out.exists() or not list(out.iterdir())

    def test_output_dir_created_when_nested(self, tmp_path):
        nested = tmp_path / "deep" / "er"
        code = main(["transversal", "--output-dir", str(nested)])
        assert code == 0
        assert (nested / "transversal.csv").exists()

    def test_rerun_overwrites_in_place(self, tmp_path):
        _, out = run_cli(["transversal", "--alpha0", "0.3"], tmp_path)
        first = (out / "transversal.csv").read_bytes()
        code, _ = run_cli(["transversal", "--alpha0", "0.9"], tmp_path)
        assert code == 0
        second = (out / "transversal.csv").read_bytes()
        assert code == 0 and first != second
        assert not list(out.glob("*.tmp"))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)


class TestParameterTable:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_any_config_resolves_or_is_a_validation_error(self, tmp_path,
                                                          command):
        keys = sorted(COMMANDS[command][2]) + ["seed", "output_dir"]
        tolerances = st.dictionaries(
            st.sampled_from(sorted(DEFAULT_TOLERANCES) + ["grm"]), JSON_VALUES,
            max_size=3)
        docs = st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=6)
        docs = docs | st.builds(lambda d, t: {**d, "tolerances": t},
                                docs, tolerances | JSON_VALUES)
        path = tmp_path / "run.json"
        argv = [command, "--config", str(path)]
        if command == "figures":
            argv[1:1] = ["--which", "fig1"]

        @settings(max_examples=50, derandomize=True, database=None,
                  deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(docs)
        def resolve(doc):
            path.write_text(json.dumps(doc))
            try:
                resolve_config(build_parser().parse_args(argv))
            except ValidationError:
                pass

        resolve()

    def test_defaults_pass_their_own_checks(self):
        for command, (_, _, rows) in COMMANDS.items():
            argv = [command] + (["--which", "fig3"] if command == "figures"
                                else [])
            cfg, p = resolve_config(build_parser().parse_args(argv))
            assert set(p) == set(rows) | {"seed", "output_dir"}
            assert set(cfg.parameters) == set(rows)


class TestRunConfigHash:
    @pytest.mark.parametrize("args, name, digest", [
        (["transversal"], "transversal.csv",
         "5afbda7cfb52a0fdf5d2d51d0b9c3285e3206c48539d3481dc4a9863c23b4e0c"),
        (["figures", "--which", "fig3"], "fig3_branch1.csv",
         "3588f4f99eb3ad1e353ce7f7685fe137df06edc697b4c1b9e192f0cdd766cc80"),
    ])
    def test_default_runs_keep_their_config_hash(self, tmp_path, args, name,
                                                  digest):
        code, out = run_cli(args, tmp_path)
        assert code == 0
        header, _, _ = read_rows(out / name)
        assert f"# config-sha256: {digest}" in header

    def test_hash_depends_on_parameters_only_as_documented(self, tmp_path):
        from kreinspec.cli import RunConfig
        base = dict(command="transversal", parameters={"a": 1.0},
                    output_dir=tmp_path, seed=0,
                    tolerances=dict(DEFAULT_TOLERANCES))
        h0 = RunConfig(**base).sha256()
        assert h0 == RunConfig(**{**base, "output_dir": tmp_path / "x"}
                               ).sha256()
        assert h0 != RunConfig(**{**base, "seed": 1}).sha256()
        assert h0 != RunConfig(
            **{**base, "parameters": {"a": 2.0}}).sha256()
        assert len(h0) == 64 and not math.isnan(float(int(h0, 16)))
