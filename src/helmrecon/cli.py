"""Command-line driver: forward data generation, reconstruction, verification,
constants tables, and calibration.

Exit codes: 0 ok, 1 verification failure, 2 admissibility/level-condition
error, 3 I/O error, 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import constants as con
from . import optimizer as opt
from . import textio
from . import verify as ver
from .config import ExperimentConfig, load_config
from .derivative import indicator_probes
from .domain import PwcField, l2_dist, l2_norm, make_uniform_partition
from .errors import (
    AdmissibilityError,
    ConfigurationError,
    HelmreconError,
    LevelConditionError,
    NearEigenfrequencyError,
)
from .forward import build_boundary_weights, dtn_for_field

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_ADMISSIBILITY = 2
EXIT_IO = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _snapshot(cfg: ExperimentConfig, override: str | None) -> str:
    """The output directory (--out, else [run] out), made if missing and given a
    config.ini snapshot: the prelude of every command."""
    out = override or cfg.out
    if not out:
        raise ConfigurationError("no output directory: set [run] out or pass --out")
    os.makedirs(out, exist_ok=True)
    textio.write_text(os.path.join(out, "config.ini"), cfg.raw_text)
    return out


def cmd_forward(cfg: ExperimentConfig, out: str, args: argparse.Namespace) -> int:
    truth = cfg.truth_field()
    dtn = dtn_for_field(truth, cfg.omega2)
    textio.save_dtn(os.path.join(out, "dtn.txt"), dtn)
    textio.save_field(os.path.join(out, "truth_field.txt"), truth)
    nb = dtn.weights.nb
    print(f"wrote DtN ({nb} x {nb}) and truth field to {out}")
    return EXIT_OK


def cmd_reconstruct(cfg: ExperimentConfig, out: str, args: argparse.Namespace) -> int:
    truth = cfg.truth_field()
    schedule = cfg.schedule
    bundle = cfg.bundle()  # refuses a bad analytic bundle before any solve
    data = dtn_for_field(truth, cfg.omega2)
    mid = 0.5 * (cfg.b1 + cfg.b2)
    start = PwcField(schedule[0], np.full(schedule[0].n_regions, mid), (cfg.b1, cfg.b2))
    n_levels = len(schedule)
    etas = None if cfg.eta_override is None else [cfg.eta_override] * n_levels
    taus = None if cfg.discrepancy_threshold is None else [cfg.discrepancy_threshold] * n_levels
    result = opt.run_multilevel(schedule, bundle, data, start, max_iter=cfg.max_iter,
                                eta_overrides=etas, discrepancy_thresholds=taus,
                                override_level_check=args.override_level_check,
                                truth=truth)
    for n, run in enumerate(result.runs):
        textio.write_run_log(os.path.join(out, f"level{n}.csv"), run)
    textio.save_field(os.path.join(out, "final_field.txt"), result.final)
    rel_err = l2_dist(result.final, truth) / l2_norm(truth)
    textio.write_run_metadata(os.path.join(out, "run_metadata.txt"), result, bundle,
                              extra={"relative_error_vs_truth": f"{rel_err:.17g}"})
    print(f"reconstruction finished: levels={n_levels}, "
          f"stop={result.runs[-1].stop_reason}, relative error={rel_err:.3e}, "
          f"exit error bound={result.error_bound:.3e}")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out: str, args: argparse.Namespace) -> int:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid
    weights = build_boundary_weights(grid)
    results: list[tuple[str, bool, str]] = []

    part = make_uniform_partition(grid, 2 if grid.cells_per_side % 2 == 0 else 1)
    c1 = PwcField(part, rng.uniform(cfg.b1, cfg.b2, part.n_regions), (cfg.b1, cfg.b2))
    c2 = PwcField(part, rng.uniform(cfg.b1, cfg.b2, part.n_regions), (cfg.b1, cfg.b2))
    defect = ver.audit_alessandrini(c1, c2, cfg.omega2, trials=cfg.trials, seed=cfg.seed)
    results.append(("alessandrini_identity", defect <= 1e-9, f"max relative defect {defect:.3e}"))

    mid = 0.5 * (cfg.b1 + cfg.b2)
    c = PwcField(part, np.full(part.n_regions, mid), (cfg.b1, cfg.b2))
    deltas = indicator_probes(part)[: min(3, part.n_regions)]
    rows = ver.gradient_check(c, cfg.omega2, deltas)
    ok = all(r.passed for r in rows)
    worst_slope = min(r.slope for r in rows)
    results.append(("gradient_check", ok, f"worst slope {worst_slope:.3f}"))

    wp, wm = weights.w_plus, weights.w_minus
    ident = wp @ wm / weights.h_b ** 2
    wdef = float(np.linalg.norm(ident - np.eye(weights.nb)) / np.sqrt(weights.nb))
    results.append(("boundary_weights_inverse", wdef <= 1e-10, f"defect {wdef:.3e}"))

    textio.write_lines(os.path.join(out, "verify_report.csv"), ["check,passed,detail", *(
        f"{name},{int(passed)},{detail}" for name, passed, detail in results)])
    all_ok = all(p for _, p, _ in results)
    verdicts = [(name, f"{'pass' if passed else 'FAIL'} ({detail})")
                for name, passed, detail in results]
    textio.write_keyvalues(os.path.join(out, "verify_summary.txt"),
                           [("passed", int(all_ok)), *verdicts])
    for name, verdict in verdicts:
        print(f"{name}: {verdict}")
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_constants(cfg: ExperimentConfig, out: str, args: argparse.Namespace) -> int:
    bundle = cfg.bundle()
    big_n = cfg.schedule[min(1, len(cfg.schedule) - 1)].n_regions
    grid_w2 = [cfg.omega2 * 0.5 ** i for i in range(12)]
    rows = con.rho_vs_omega(bundle, big_n, grid_w2)
    w2, rho = con.find_omega_for_rho(bundle, big_n, cfg.target_rho)
    nmax = con.solve_n_max(bundle)
    textio.write_rho_table(os.path.join(out, "rho_vs_omega.csv"), rows)
    textio.write_keyvalues(os.path.join(out, "nmax.txt"), [
        ("status", nmax.status),
        ("n_max", "" if nmax.n_max is None else nmax.n_max),
        ("scan_cap", f"{nmax.cap:.17g}"),
        ("target_rho", f"{cfg.target_rho:.17g}"),
        ("omega2_for_target", f"{w2:.17g}"),
        ("rho_at_target", f"{rho:.17g}"),
    ])
    print(f"constants tables written to {out} (n_max status: {nmax.status})")
    return EXIT_OK


def cmd_calibrate(cfg: ExperimentConfig, out: str, args: argparse.Namespace) -> int:
    bundle = cfg.calibrated_bundle()
    textio.save_bundle(os.path.join(out, "bundle.txt"), bundle)
    print(f"calibrated bundle written to {out}/bundle.txt "
          f"(df_bound0={bundle.df_bound0:.3e}, df_lip0={bundle.df_lip0:.3e}, "
          f"stab_k={bundle.stab_k:.3e})")
    return EXIT_OK


COMMANDS = {
    "forward": cmd_forward,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "constants": cmd_constants,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    parser = _Parser(prog="helmrecon",
                     description="Piecewise-constant squared-slowness reconstruction "
                                 "from Dirichlet-to-Neumann data")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        if name == "reconstruct":
            p.add_argument("--override-level-check", action="store_true",
                           help="downgrade a failed frequency-explicit refinement check "
                                "to a warning")
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigurationError(f"--seed must be at least 0, got {args.seed}")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.bundle_seed = args.seed
        out = _snapshot(cfg, args.out)
        return COMMANDS[args.command](cfg, out, args)
    except (AdmissibilityError, NearEigenfrequencyError, LevelConditionError) as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HelmreconError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
