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
import dataclasses
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
    _check_domains(resolved)
    return resolved


def _check_domains(cfg: dict) -> None:
    """Refuse a value outside its domain with ConfigError (exit 2).

    A section whose command builds a self-validating object is checked by
    building it, so each domain is written once.  `main` runs this after
    the command-line overrides, before any command runs or writes a file.
    """
    section = cfg["instance"]
    # a window may be empty; a lift has a level; the cutoff search needs two
    for key, least in (("t_window", 0), ("n_levels", 1), ("n_max", 2)):
        if section[key] < least:
            raise ConfigError(f"{key} in [instance] must be at least {least}")
    if section["mode"] not in ("state", "terminal"):
        raise ConfigError(f"mode in [instance] must be state or terminal, "
                          f"not {section['mode']!r}")
    from .bench import MODE_ALPHA

    bad = [mode for mode in _bench_modes(cfg) if mode not in MODE_ALPHA]
    if bad:
        raise ConfigError(f"unknown mode {bad[0]!r} in [bench] modes")
    for name, build in (("polys", _poly_specs), ("resources", _resource_model)):
        try:
            build(cfg)
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from exc


def _config_hash(path: str | None, resolved: dict) -> str:
    if path is not None and os.path.exists(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    blob = json.dumps(resolved, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write(outdir: str, name: str, payload) -> str:
    """Write one artifact: text as given, anything else as indented JSON."""
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh, indent=2)
    return path


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
    return _write(outdir, "manifest.json", manifest)


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


def _poly_specs(cfg: dict):
    from .polyapprox import ClipSpec, SignSpec

    p = cfg["polys"]
    return (SignSpec(1.0, p["tau_s"], p["delta_s"]),
            ClipSpec(p["big_l"], p["tau_c"], p["delta_c"]))


def _resource_model(cfg: dict):
    from .solver import ResourceModel

    r = cfg["resources"]
    return ResourceModel(
        s_row=r["s_row"], kappa=r["kappa"], dim=r["dim"], eps_ls=r["eps_ls"],
        c_query=r["c_query"], c_gate=r["c_gate"],
        c_sparse_access=r["c_sparse_access"], a_ancilla=r["a_ancilla"],
        polylog_power=r["polylog_power"], qram=r["qram"])


def _bench_modes(cfg: dict) -> list[str]:
    return [m.strip() for m in cfg["bench"]["modes"].split(",") if m.strip()]


def _step_expansion(cfg: dict):
    """The configured instance and its step map under its surrogates."""
    instance = _instance_from_config(cfg)
    p = cfg["polys"]
    p_s, p_c = instance.design_polys(p["delta_s"], p["delta_c"])
    return instance, instance.build_expansion(p_s, p_c)


# ----------------------------------------------------------------------
# commands


def cmd_design_polys(cfg: dict, outdir: str) -> list[str]:
    from .polyapprox import design_clip_poly, design_sign_poly

    sign_spec, clip_spec = _poly_specs(cfg)
    p_s, p_c = design_sign_poly(sign_spec), design_clip_poly(clip_spec)
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
    return [sign_path, clip_path, _write(outdir, "poly_certificates.json", report)]


def cmd_expand_step(cfg: dict, outdir: str) -> list[str]:
    _, coeffs = _step_expansion(cfg)
    return [_write(outdir, "step_coefficients.json", coeffs.to_json())]


def _lifted_window(cfg: dict):
    """The majorant's rho, the lifted step and the stacked window."""
    from . import carleman, horizon

    instance, coeffs = _step_expansion(cfg)
    n_levels = cfg["instance"]["n_levels"]
    carleman.checked_dim(coeffs.d, n_levels)  # before the N x N majorant
    rho = carleman.majorant_and_contractivity(coeffs, n_levels).rho
    step, system = horizon.lift_window(
        coeffs, n_levels, instance.deviations([instance.v0])[0],
        instance.sched.t_window, rho)
    return rho, step, system


def cmd_build_lift(cfg: dict, outdir: str) -> list[str]:
    from scipy.io import mmwrite

    rho, step, system = _lifted_window(cfg)
    b_path = os.path.join(outdir, "step_matrix.mtx")
    mmwrite(b_path, step.b_matrix)
    c_path = os.path.join(outdir, "step_constant.npy")
    np.save(c_path, step.c_vector)
    layout = {"d": step.d, "n_levels": step.n_levels, "dim": step.dim,
              "rho_majorant": rho,
              "y0_norm": float(np.linalg.norm(system.rhs[:step.dim]))}
    return [b_path, c_path, _write(outdir, "lift_layout.json", layout)]


def cmd_assemble(cfg: dict, outdir: str) -> list[str]:
    from . import horizon

    _, _, system = _lifted_window(cfg)
    m_path = os.path.join(outdir, "horizon_matrix.mtx")
    horizon.save_matrix_market(system, m_path)
    r_path = os.path.join(outdir, "horizon_rhs.npy")
    np.save(r_path, system.rhs_normalized)
    layout = {"t_window": system.t_window, "block_dim": system.block_dim,
              "dim": system.dim, "rho": system.rho}
    return [m_path, r_path, _write(outdir, "horizon_layout.json", layout)]


def cmd_solve(cfg: dict, outdir: str) -> list[str]:
    from . import solver

    _, _, system = _lifted_window(cfg)
    sol = solver.solve_linear_system(system)
    s_path = os.path.join(outdir, "solution.npy")
    np.save(s_path, sol.stacked)
    report = {"residual": sol.residual, "norm": sol.norm,
              "dim": system.dim, "t_window": system.t_window}
    return [s_path, _write(outdir, "solve.json", report)]


def cmd_certify(cfg: dict, outdir: str) -> list[str]:
    from .readout import run_pipeline_certificate

    instance = _instance_from_config(cfg)
    section = cfg["instance"]
    cert = run_pipeline_certificate(
        instance, section["eps_out"], mode=section["mode"],
        n_max=section["n_max"], seed=cfg["run"]["seed"])
    path = _write(outdir, "certificate.json", cert.to_json())
    status = "pass" if cert.passed else "hypotheses-flagged"
    print(f"certificate: {status} (n_levels={cert.n_levels})")
    return [path]


def cmd_estimate_resources(cfg: dict, outdir: str) -> list[str]:
    from .solver import qlsa_estimate

    estimate = qlsa_estimate(_resource_model(cfg))
    path = _write(outdir, "resources.json", estimate.to_dict())
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
    for mode in _bench_modes(cfg):
        result = train_reduced(task, mode, dataset, seed=seed)
        csv_path = os.path.join(outdir, f"metrics_{mode}.csv")
        write_metrics_csv(csv_path, result.rows)
        artifacts += [csv_path,
                      _write(outdir, f"metadata_{mode}.json", result.metadata)]
        last = result.rows[-1]
        summary[mode] = {"clean_acc": last.clean_acc,
                         "robust_acc": last.robust_acc,
                         "diverged": result.diverged}
        print(f"{mode}: clean {last.clean_acc:.3f} robust {last.robust_acc:.3f}")
    return artifacts + [_write(outdir, "bench_summary.json", summary)]


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
    path = _write(outdir, "reduction_report.json", dataclasses.asdict(report))
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
        _check_domains(cfg)
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
