"""Configuration loading, command dispatch, manifests, exit codes."""

import hashlib
import json
from pathlib import Path

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

    @pytest.mark.parametrize("text", ["n_levels = 0", "n_levels = -2",
                                      "n_max = 1"])
    def test_lift_sizes_outside_domain_rejected(self, tmp_path, text):
        path = write_config(tmp_path, f"[instance]\n{text}\n")
        with pytest.raises(ConfigError, match=text.split()[0]):
            load_config(path)

    def test_smallest_lift_sizes_accepted(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nn_levels = 1\nn_max = 2\n")
        section = load_config(path)["instance"]
        assert (section["n_levels"], section["n_max"]) == (1, 2)

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
        # C(4002, 2) - 1 ~ 8.0M lifted coordinates at d = 2: the lift's
        # dimension cap refuses it before the 4000 x 4000 majorant is formed
        cfg = write_config(tmp_path, "[instance]\nn_levels = 4000\n")
        code, _ = run(["build-lift", "--config", cfg], tmp_path)
        assert code == 4
        assert "resource limit:" in capsys.readouterr().err

    def test_lift_preflight_is_four(self, tmp_path, capsys):
        # folded-demo's dense degree-15 step at N = 200: 20,300 lifted
        # coordinates fit the dimension cap, but B's entries, bounded
        # before anything is allocated, pass MAX_STACKED_NNZ
        cfg = write_config(tmp_path, "[instance]\nname = folded-demo\n"
                                     "n_levels = 200\n")
        code, _ = run(["build-lift", "--config", cfg], tmp_path)
        assert code == 4
        assert "MAX_STACKED_NNZ" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build-lift", "solve"])
    @pytest.mark.parametrize("n_levels", [0, -2])
    def test_no_lift_levels_is_two(self, tmp_path, capsys, command, n_levels):
        cfg = write_config(tmp_path, f"[instance]\nn_levels = {n_levels}\n")
        code, _ = run([command, "--config", cfg], tmp_path)
        assert code == 2
        assert "n_levels" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("certify", "[instance]\nmode = bogus\n", "mode"),
        ("certify", "[instance]\nt_window = -1\n", "t_window"),
        ("estimate-resources", "[resources]\neps_ls = 2.0\n", "eps_ls"),
        ("design-polys", "[polys]\ndelta_s = 0.0\n", "delta"),
        ("build-lift", "[instance]\nname = folded-demo\n"
                       "[polys]\ndelta_s = 0.0\n", "delta"),
    ], ids=["mode", "t_window", "eps_ls", "delta_s", "delta_s-build-lift"])
    def test_value_outside_domain_is_two(self, tmp_path, capsys, command,
                                         text, key):
        cfg = write_config(tmp_path, text)
        code, outdir = run([command, "--config", cfg], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not outdir.exists()

    def test_override_outside_domain_is_two(self, tmp_path, capsys):
        code, outdir = run(["estimate-resources", "--eps-ls", "2.0"], tmp_path)
        assert code == 2
        assert "eps_ls" in capsys.readouterr().err
        assert not outdir.exists()

    def test_bad_bench_mode_writes_nothing(self, tmp_path, capsys):
        # clean is valid and would run first; the check refuses the list
        # before any mode trains
        cfg = write_config(tmp_path, "[bench]\nsteps = 2\nlog_every = 1\n"
                                     "eval_size = 4\nmodes = clean,bogus\n")
        code, outdir = run(["bench-train", "--config", cfg], tmp_path)
        assert code == 2
        assert "bogus" in capsys.readouterr().err
        assert not outdir.exists()

    def test_single_cutoff_is_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[instance]\nn_max = 1\n")
        code, _ = run(["certify", "--config", cfg], tmp_path)
        assert code == 2
        assert "n_max" in capsys.readouterr().err

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


# sha256 of each stage command's files (manifests aside) for both shipped
# instances at their default configuration, and of bench-compare's report,
# as the code wrote them before the instances shared one window protocol.
# The folded-demo value files were recaptured when the folded step map came
# from running the step closure on MultiPoly coordinates; the layout files
# kept their bytes.  The lift, assemble and solve files of both instances,
# and folded-demo's bench-compare report, were recaptured when the lift
# moved from Kronecker powers to the symmetric monomial basis.
# Recomputed in a child process with every BLAS pool at one thread.
_STAGE_DIGESTS = Path(__file__).parent / "data" / "stage_artifacts_sha256.json"
_STAGE_SCRIPT = """
import contextlib, hashlib, io, json, os, sys, tempfile
from robustlift.cli import main
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for key in json.loads(sys.argv[1]):
        name, command = key.split("/")[:2]
        outdir = os.path.join(tmp, name, command)
        if os.path.isdir(outdir):
            continue
        config = os.path.join(tmp, name + ".ini")
        with open(config, "w") as fh:
            fh.write(f"[instance]\\nname = {name}\\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", config, "--output-dir", outdir]) == 0
        for file in sorted(os.listdir(outdir)):
            if file != "manifest.json":
                with open(os.path.join(outdir, file), "rb") as fh:
                    out[f"{name}/{command}/{file}"] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(out))
"""


class TestStageArtifactOracle:
    def test_stage_outputs_keep_their_bytes(self, pinned_child):
        want = json.loads(_STAGE_DIGESTS.read_text())
        got = json.loads(pinned_child(_STAGE_SCRIPT, json.dumps(sorted(want))))
        assert sorted(got) == sorted(want)
        differing = [key for key in want if got[key] != want[key]]
        assert differing == []
