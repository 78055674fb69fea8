"""Command-line orchestration over configuration files.

One INI file drives every stage.  Sections and keys are schema-checked
before any computation; unknown names are rejected rather than ignored,
since a misspelled tolerance that silently falls back to a default is
worse than an error.  Every run writes a manifest holding the resolved
configuration, its hash, seeds, and library versions.

Exit codes: 2 usage, 3 unreadable files, 4 infeasible budget or a size
request past a resource cap.  A certificate whose hypotheses fail still
exits 0; failed hypotheses are results, not errors.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .readout import InfeasibleBudgetError

# every numeric default in one place; config files override these
DEFAULTS = {
    "run": {"seed": 0, "output_dir": "runs"},
    "polys": {"tau_s": 0.2, "delta_s": 0.05,
              "big_l": 2.0, "tau_c": 0.1, "delta_c": 0.02},
    "instance": {"name": "saturated-toy", "t_window": 50, "eps_out": 0.05,
                 "mode": "terminal", "n_levels": 4, "n_max": 12},
    "resources": {"kappa": 3.0, "s_row": 8, "dim": 1048576, "eps_ls": 1e-3,
                  "qram": False, "c_query": 1.0, "c_gate": 1.0,
                  "c_sparse_access": 1.0, "a_ancilla": 10,
                  "polylog_power": 1.0},
    "bench": {"steps": 10000, "full_scale": False, "modes": "clean,mixed,robust",
              "data_path": "", "log_every": 250, "batch_size": 5,
              "learning_rate": 0.15, "eval_size": 400,
              "pgd_eps": 0.025, "pgd_step": 0.01, "pgd_steps": 10},
}

FULL_SCALE_STEPS = 120_000

_SCHEMA = {
    section: {key: type(value) for key, value in keys.items()}
    for section, keys in DEFAULTS.items()
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    """Defaults overlaid with a validated INI file."""
    resolved = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is None:
        return resolved
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            want = _SCHEMA[section][key]
            try:
                if want is bool:
                    resolved[section][key] = parser.getboolean(section, key)
                elif want is int:
                    resolved[section][key] = parser.getint(section, key)
                elif want is float:
                    resolved[section][key] = parser.getfloat(section, key)
                else:
                    resolved[section][key] = raw
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key} in [{section}]: {raw!r}") from exc
    return resolved


def _config_hash(path: str | None, resolved: dict) -> str:
    if path is not None and os.path.exists(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    blob = json.dumps(resolved, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_manifest(outdir: str, command: str, cfg: dict,
                   config_path: str | None, seed: int,
                   artifacts: list[str]) -> str:
    manifest = {
        "command": command,
        "config_path": config_path,
        "config_sha256": _config_hash(config_path, cfg),
        "resolved_config": cfg,
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "robustlift": __version__,
        },
        "artifacts": artifacts,
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def _instance_from_config(cfg: dict):
    from . import instances

    section = cfg["instance"]
    name = section["name"]
    if name == "saturated-toy":
        return instances.certify_instance(section["t_window"])
    if name == "folded-demo":
        # folded-demo caps its window at 12 steps; the manifest records
        # the window that ran
        section["t_window"] = min(section["t_window"], 12)
        return instances.folded_demo_instance(section["t_window"])
    raise ConfigError(f"unknown instance {name!r}")


def _designed_polys(cfg: dict):
    from .polyapprox import ClipSpec, SignSpec, design_clip_poly, design_sign_poly

    p = cfg["polys"]
    p_s = design_sign_poly(SignSpec(1.0, p["tau_s"], p["delta_s"]))
    p_c = design_clip_poly(ClipSpec(p["big_l"], p["tau_c"], p["delta_c"]))
    return p_s, p_c


def _instance_polys(instance, cfg: dict):
    if not instance.uses_fold:
        return None, None
    p = cfg["polys"]
    return instance.design_polys(p["delta_s"], p["delta_c"])


# ----------------------------------------------------------------------
# commands


def cmd_design_polys(cfg: dict, outdir: str) -> list[str]:
    p_s, p_c = _designed_polys(cfg)
    sign_path = os.path.join(outdir, "sign_poly.txt")
    clip_path = os.path.join(outdir, "clip_poly.txt")
    p_s.save_text(sign_path)
    p_c.save_text(clip_path)
    report = {
        "sign": {"degree": p_s.degree,
                 "certificate": p_s.certificate.to_dict()},
        "clip": {"degree": p_c.degree,
                 "certificate": p_c.certificate.to_dict()},
    }
    cert_path = os.path.join(outdir, "poly_certificates.json")
    with open(cert_path, "w") as fh:
        json.dump(report, fh, indent=2)
    return [sign_path, clip_path, cert_path]


def cmd_expand_step(cfg: dict, outdir: str) -> list[str]:
    instance = _instance_from_config(cfg)
    p_s, p_c = _instance_polys(instance, cfg)
    coeffs = instance.build_expansion(p_s, p_c)
    path = os.path.join(outdir, "step_coefficients.json")
    with open(path, "w") as fh:
        fh.write(coeffs.to_json())
    return [path]


def _lifted_pieces(cfg: dict):
    from . import carleman

    instance = _instance_from_config(cfg)
    p_s, p_c = _instance_polys(instance, cfg)
    n_levels = cfg["instance"]["n_levels"]
    coeffs = instance.build_expansion(p_s, p_c)
    step = carleman.build_lifted_step(coeffs, n_levels)
    states = (instance.folded_states(p_s, p_c) if instance.uses_fold
              else instance.exact_states())
    dev0 = (states[0].vector - instance.center) * instance.scale
    y0 = carleman.lift_state(dev0, n_levels)
    rho = carleman.majorant_and_contractivity(coeffs, n_levels).rho
    return instance, step, y0, rho


def cmd_build_lift(cfg: dict, outdir: str) -> list[str]:
    from scipy.io import mmwrite

    _, step, y0, rho = _lifted_pieces(cfg)
    b_path = os.path.join(outdir, "step_matrix.mtx")
    mmwrite(b_path, step.b_matrix)
    c_path = os.path.join(outdir, "step_constant.npy")
    np.save(c_path, step.c_vector)
    layout = {"d": step.d, "n_levels": step.n_levels, "dim": step.dim,
              "rho_majorant": rho, "y0_norm": float(np.linalg.norm(y0))}
    l_path = os.path.join(outdir, "lift_layout.json")
    with open(l_path, "w") as fh:
        json.dump(layout, fh, indent=2)
    return [b_path, c_path, l_path]


def cmd_assemble(cfg: dict, outdir: str) -> list[str]:
    from . import horizon

    instance, step, y0, rho = _lifted_pieces(cfg)
    system = horizon.assemble_horizon([step] * instance.sched.t_window, y0, rho,
                                      dims=(step.d, step.n_levels))
    m_path = os.path.join(outdir, "horizon_matrix.mtx")
    horizon.save_matrix_market(system, m_path)
    r_path = os.path.join(outdir, "horizon_rhs.npy")
    np.save(r_path, system.rhs_normalized)
    layout = {"t_window": system.t_window, "block_dim": system.block_dim,
              "dim": system.dim, "rho": system.rho}
    l_path = os.path.join(outdir, "horizon_layout.json")
    with open(l_path, "w") as fh:
        json.dump(layout, fh, indent=2)
    return [m_path, r_path, l_path]


def cmd_solve(cfg: dict, outdir: str) -> list[str]:
    from . import horizon, solver

    instance, step, y0, rho = _lifted_pieces(cfg)
    system = horizon.assemble_horizon([step] * instance.sched.t_window, y0, rho,
                                      dims=(step.d, step.n_levels))
    sol = solver.solve_linear_system(system)
    s_path = os.path.join(outdir, "solution.npy")
    np.save(s_path, sol.stacked)
    report = {"residual": sol.residual, "norm": sol.norm,
              "dim": system.dim, "t_window": system.t_window}
    j_path = os.path.join(outdir, "solve.json")
    with open(j_path, "w") as fh:
        json.dump(report, fh, indent=2)
    return [s_path, j_path]


def cmd_certify(cfg: dict, outdir: str) -> list[str]:
    from .readout import run_pipeline_certificate

    instance = _instance_from_config(cfg)
    section = cfg["instance"]
    cert = run_pipeline_certificate(
        instance, section["eps_out"], mode=section["mode"],
        n_max=section["n_max"], seed=cfg["run"]["seed"])
    path = os.path.join(outdir, "certificate.json")
    with open(path, "w") as fh:
        fh.write(cert.to_json())
    status = "pass" if cert.passed else "hypotheses-flagged"
    print(f"certificate: {status} (n_levels={cert.n_levels})")
    return [path]


def cmd_estimate_resources(cfg: dict, outdir: str) -> list[str]:
    from .solver import ResourceModel, qlsa_estimate

    r = cfg["resources"]
    model = ResourceModel(
        s_row=r["s_row"], kappa=r["kappa"], dim=r["dim"], eps_ls=r["eps_ls"],
        c_query=r["c_query"], c_gate=r["c_gate"],
        c_sparse_access=r["c_sparse_access"], a_ancilla=r["a_ancilla"],
        polylog_power=r["polylog_power"], qram=r["qram"])
    estimate = qlsa_estimate(model)
    path = os.path.join(outdir, "resources.json")
    with open(path, "w") as fh:
        json.dump(estimate.to_dict(), fh, indent=2)
    print(json.dumps(estimate.to_dict(), indent=2))
    return [path]


def cmd_bench_train(cfg: dict, outdir: str) -> list[str]:
    from .bench import (ReducedTask, load_mnist_reduced, train_reduced,
                        write_metrics_csv)

    b = cfg["bench"]
    seed = cfg["run"]["seed"]
    steps = FULL_SCALE_STEPS if b["full_scale"] else b["steps"]
    task = ReducedTask(
        n_steps=steps, batch_size=b["batch_size"],
        learning_rate=b["learning_rate"], log_every=b["log_every"],
        eval_size=b["eval_size"], pgd_eps=b["pgd_eps"],
        pgd_step=b["pgd_step"], pgd_steps=b["pgd_steps"])
    dataset = load_mnist_reduced(b["data_path"] or None, seed=seed)
    artifacts = []
    summary = {}
    for mode in [m.strip() for m in b["modes"].split(",") if m.strip()]:
        result = train_reduced(task, mode, dataset, seed=seed)
        csv_path = os.path.join(outdir, f"metrics_{mode}.csv")
        write_metrics_csv(csv_path, result.rows)
        meta_path = os.path.join(outdir, f"metadata_{mode}.json")
        with open(meta_path, "w") as fh:
            json.dump(result.metadata, fh, indent=2)
        artifacts += [csv_path, meta_path]
        last = result.rows[-1]
        summary[mode] = {"clean_acc": last.clean_acc,
                         "robust_acc": last.robust_acc,
                         "diverged": result.diverged}
        print(f"{mode}: clean {last.clean_acc:.3f} robust {last.robust_acc:.3f}")
    s_path = os.path.join(outdir, "bench_summary.json")
    with open(s_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    return artifacts + [s_path]


def cmd_bench_compare(cfg: dict, outdir: str) -> list[str]:
    from .bench import compare_reduction
    from .instances import folded_demo_instance

    instance = folded_demo_instance()
    # the comparison always runs folded-demo at its default window; the
    # manifest records that instance, not the configured one
    cfg["instance"].update(name="folded-demo", t_window=instance.sched.t_window)
    p = cfg["polys"]
    report = compare_reduction(instance, p["delta_s"],
                               p["delta_c"], cfg["instance"]["n_levels"])
    path = os.path.join(outdir, "reduction_report.json")
    with open(path, "w") as fh:
        json.dump({k: getattr(report, k) for k in (
            "t_window", "n_levels", "rho", "gamma_n", "step_error_max",
            "step_error_bound", "stacked_truncation_error",
            "stacked_truncation_bound", "step_ok", "truncation_ok",
            "solve_residual")}, fh, indent=2)
    print(f"step ok: {report.step_ok}  truncation ok: {report.truncation_ok}")
    return [path]


_COMMANDS = {
    "design-polys": cmd_design_polys,
    "expand-step": cmd_expand_step,
    "build-lift": cmd_build_lift,
    "assemble": cmd_assemble,
    "solve": cmd_solve,
    "certify": cmd_certify,
    "estimate-resources": cmd_estimate_resources,
    "bench-train": cmd_bench_train,
    "bench-compare": cmd_bench_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustlift",
        description="window lifting, certification, and the reduced bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="INI configuration file")
        p.add_argument("--output-dir", default=None,
                       help="artifact directory (default runs/<command>)")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides [run] seed")
        if name == "estimate-resources":
            p.add_argument("--kappa", type=float, default=None)
            p.add_argument("--sm", type=int, default=None,
                           help="row sparsity of the stacked matrix")
            p.add_argument("--nh", type=int, default=None,
                           help="stacked dimension")
            p.add_argument("--eps-ls", type=float, default=None)
            p.add_argument("--qram", action="store_true", default=None)
        if name == "certify":
            p.add_argument("--eps-out", type=float, default=None)
            p.add_argument("--instance", default=None,
                           choices=("saturated-toy", "folded-demo"))
        if name == "bench-train":
            p.add_argument("--full-scale", action="store_true", default=None,
                           help=f"train for {FULL_SCALE_STEPS} steps")
    return parser


def _apply_overrides(args, cfg: dict) -> None:
    if args.seed is not None:
        cfg["run"]["seed"] = args.seed
    for attr, section, key in (
            ("kappa", "resources", "kappa"),
            ("sm", "resources", "s_row"),
            ("nh", "resources", "dim"),
            ("eps_ls", "resources", "eps_ls"),
            ("qram", "resources", "qram"),
            ("eps_out", "instance", "eps_out"),
            ("instance", "instance", "name"),
            ("full_scale", "bench", "full_scale")):
        value = getattr(args, attr, None)
        if value is not None:
            cfg[section][key] = value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        _apply_overrides(args, cfg)
        outdir = args.output_dir or os.path.join(cfg["run"]["output_dir"],
                                                 args.command)
        os.makedirs(outdir, exist_ok=True)
        artifacts = _COMMANDS[args.command](cfg, outdir)
        manifest = write_manifest(outdir, args.command, cfg, args.config,
                                  cfg["run"]["seed"], artifacts)
        print(f"manifest: {manifest}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleBudgetError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
