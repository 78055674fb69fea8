"""Configuration loading, command dispatch, manifests, exit codes."""

import hashlib
import json

import numpy as np
import pytest

import robustlift.readout
from robustlift.carleman import lift_state
from robustlift.cli import ConfigError, load_config, main
from robustlift.instances import certify_instance
from robustlift.readout import InfeasibleBudgetError


def run(argv, tmp_path, name="out"):
    outdir = tmp_path / name
    code = main(argv + ["--output-dir", str(outdir)])
    return code, outdir


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["instance"]["t_window"] == 50
        assert cfg["resources"]["dim"] == 1048576
        assert cfg["bench"]["full_scale"] is False

    def test_overlay_preserves_types(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nt_window = 7\n"
                                      "[resources]\nqram = yes\n")
        cfg = load_config(path)
        assert cfg["instance"]["t_window"] == 7
        assert cfg["resources"]["qram"] is True
        assert cfg["instance"]["eps_out"] == 0.05

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[solverx]\nfoo = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nt_windw = 7\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nt_window = soon\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/run.ini")


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_config_error_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "[instance]\nbogus = 1\n")
        code, _ = run(["estimate-resources", "--config", path], tmp_path)
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_is_three(self, tmp_path):
        code, _ = run(["estimate-resources", "--config",
                       str(tmp_path / "absent.ini")], tmp_path)
        assert code == 3

    def test_infeasible_budget_is_four(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise InfeasibleBudgetError("forced for the test")

        monkeypatch.setattr(robustlift.readout,
                            "run_pipeline_certificate", refuse)
        code, _ = run(["certify"], tmp_path)
        assert code == 4

    def test_size_limit_is_four(self, tmp_path, capsys):
        # ~2^41 lifted coordinates: the lift's dimension cap refuses it
        cfg = write_config(tmp_path, "[instance]\nn_levels = 40\n")
        code, _ = run(["build-lift", "--config", cfg], tmp_path)
        assert code == 4
        assert "resource limit:" in capsys.readouterr().err

    def test_flagged_certificate_still_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[instance]\nt_window = 6\n"
                                     "eps_out = 0.3\nmode = state\n")
        code, outdir = run(["certify", "--config", cfg,
                            "--instance", "folded-demo"], tmp_path)
        assert code == 0
        assert "hypotheses-flagged" in capsys.readouterr().out
        cert = json.loads((outdir / "certificate.json").read_text())
        assert cert["passed"] is False


class TestManifest:
    def test_manifest_written_with_versions(self, tmp_path):
        code, outdir = run(["estimate-resources"], tmp_path)
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "estimate-resources"
        assert set(manifest["versions"]) == {"python", "numpy", "scipy",
                                             "robustlift"}
        assert len(manifest["config_sha256"]) == 64
        assert any(a.endswith("resources.json")
                   for a in manifest["artifacts"])

    def test_hash_matches_config_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "[resources]\nkappa = 5\n")
        code, outdir = run(["estimate-resources", "--config", cfg], tmp_path)
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        digest = hashlib.sha256(open(cfg, "rb").read()).hexdigest()
        assert manifest["config_sha256"] == digest
        assert manifest["resolved_config"]["resources"]["kappa"] == 5.0

    def test_folded_demo_records_window_run(self, tmp_path):
        # the default window of 50 asks for more than folded-demo runs
        code, outdir = run(["certify", "--instance", "folded-demo"], tmp_path)
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["resolved_config"]["instance"]["t_window"] == 12

    def test_seed_override_recorded(self, tmp_path):
        code, outdir = run(["estimate-resources", "--seed", "7"], tmp_path)
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seed"] == 7


class TestCommands:
    def test_estimate_resources_defaults(self, tmp_path):
        code, outdir = run(["estimate-resources"], tmp_path)
        assert code == 0
        report = json.loads((outdir / "resources.json").read_text())
        assert report["qubits"] == 42
        assert report["inputs"]["kappa"] == 3.0
        assert "queries" in report["formulas"]

    def test_estimate_resources_overrides(self, tmp_path):
        code, outdir = run(["estimate-resources", "--kappa", "6",
                            "--sm", "4", "--nh", "4096",
                            "--eps-ls", "0.01", "--qram"], tmp_path)
        assert code == 0
        report = json.loads((outdir / "resources.json").read_text())
        assert report["inputs"]["kappa"] == 6.0
        assert report["inputs"]["dim"] == 4096
        assert report["inputs"]["qram"] is True
        assert report["prep_gates"] == pytest.approx(12.0)

    def test_certify_saturated_toy(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[instance]\nt_window = 10\n")
        code, outdir = run(["certify", "--config", cfg], tmp_path)
        assert code == 0
        assert "certificate: pass" in capsys.readouterr().out
        cert = json.loads((outdir / "certificate.json").read_text())
        assert cert["passed"] is True

    def test_pipeline_stage_commands(self, tmp_path):
        cfg = write_config(tmp_path, "[instance]\nt_window = 8\n")
        code, outdir = run(["build-lift", "--config", cfg], tmp_path, "lift")
        assert code == 0
        layout = json.loads((outdir / "lift_layout.json").read_text())
        assert layout["d"] == 2 and layout["n_levels"] == 4
        assert (outdir / "step_matrix.mtx").exists()
        assert np.load(outdir / "step_constant.npy").shape == (layout["dim"],)

        code, outdir = run(["assemble", "--config", cfg], tmp_path, "asm")
        assert code == 0
        layout = json.loads((outdir / "horizon_layout.json").read_text())
        assert layout["t_window"] == 8
        assert layout["dim"] == 9 * layout["block_dim"]

        code, outdir = run(["solve", "--config", cfg], tmp_path, "slv")
        assert code == 0
        report = json.loads((outdir / "solve.json").read_text())
        assert report["residual"] <= 1e-12
        sol = np.load(outdir / "solution.npy")
        assert sol.shape == (report["dim"],)

    def test_empty_window_assemble_and_solve(self, tmp_path):
        # T = 0: the stacked system is the initial lift alone
        cfg = write_config(tmp_path, "[instance]\nt_window = 0\n")
        code, outdir = run(["assemble", "--config", cfg], tmp_path, "asm")
        assert code == 0
        layout = json.loads((outdir / "horizon_layout.json").read_text())
        assert layout["t_window"] == 0
        assert layout["dim"] == layout["block_dim"]

        code, outdir = run(["solve", "--config", cfg], tmp_path, "slv")
        assert code == 0
        inst = certify_instance(0)
        y0 = lift_state((inst.v0.vector - inst.center) * inst.scale, 4)
        np.testing.assert_allclose(np.load(outdir / "solution.npy"), y0,
                                   rtol=1e-15, atol=0.0)

    def test_expand_step_writes_coefficients(self, tmp_path):
        cfg = write_config(tmp_path, "[instance]\nt_window = 5\n")
        code, outdir = run(["expand-step", "--config", cfg], tmp_path)
        assert code == 0
        payload = json.loads((outdir / "step_coefficients.json").read_text())
        assert payload["d"] == 2
        assert "1" in payload["terms"]

    def test_bench_train_tiny(self, tmp_path):
        cfg = write_config(tmp_path, "[bench]\nsteps = 20\nlog_every = 10\n"
                                     "eval_size = 40\nmodes = clean\n")
        code, outdir = run(["bench-train", "--config", cfg], tmp_path)
        assert code == 0
        assert (outdir / "metrics_clean.csv").exists()
        meta = json.loads((outdir / "metadata_clean.json").read_text())
        assert meta["steps"] == 20
        summary = json.loads((outdir / "bench_summary.json").read_text())
        assert "clean" in summary and not summary["clean"]["diverged"]

    def test_bench_compare(self, tmp_path, capsys):
        code, outdir = run(["bench-compare"], tmp_path)
        assert code == 0
        report = json.loads((outdir / "reduction_report.json").read_text())
        assert report["step_ok"] and report["truncation_ok"]
        assert "step ok: True" in capsys.readouterr().out
        # the manifest names the instance that ran, not the configured one
        manifest = json.loads((outdir / "manifest.json").read_text())
        ran = manifest["resolved_config"]["instance"]
        assert ran["name"] == "folded-demo"
        assert ran["t_window"] == report["t_window"] == 6

    def test_design_polys(self, tmp_path):
        cfg = write_config(tmp_path, "[polys]\ndelta_c = 0.05\n")
        code, outdir = run(["design-polys", "--config", cfg], tmp_path)
        assert code == 0
        report = json.loads((outdir / "poly_certificates.json").read_text())
        assert report["sign"]["certificate"]["passed"]
        assert report["clip"]["certificate"]["passed"]
        assert (outdir / "sign_poly.txt").exists()
