"""Experiment configuration: INI-style sections of flat key-value pairs.

Schema (sections and keys; * marks required):

    [grid]      m*
    [problem]   omega2*, b1*, b2*
    [truth]     k (regions per side of the truth partition) and values
                (region coefficients, row-major, each in [b1, b2]), or file
                (a pwc field file, a relative path taken from the config
                file's directory, read and checked against the box only by
                the commands that use the truth)
    [schedule]  levels* (space-separated, nondecreasing region counts, each a
                square k^2 with k dividing the cells per side)
    [bundle]    mode (analytic|calibrate), lhat0/l0/k (df_bound0, df_lip0,
                stab_k; required when a command builds an analytic bundle),
                phi_c, phi_beta (power-law compression), eps*,
                n_exponent (optional), seed/samples for calibrate mode
    [run]       max_iter, seed, out, eta_override, discrepancy_threshold,
                trials (verify, at least 1), target_rho (constants)

Integer keys (max_iter, seed, trials, samples) refuse fractional and negative
values. eta_override and discrepancy_threshold must be finite and >= 0,
target_rho finite and > 0.

Unknown keys are rejected so typos fail loudly. Validation happens before any
solve: the frequency guard, the schedule and inline truth partitions, the
inline truth field's box and the compression model are all checked at parse
time, and the parsed config keeps the partitions and the field it built.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_EXPONENT, CompressionModel, ConstantsBundle, calibrate
from .domain import Grid, Partition, PwcField, make_uniform_partition, uniform_partition
from .errors import ConfigurationError
from .forward import spectrum_guard
from .optimizer import _check_level_settings
from .textio import load_pwc_field, open_text, pwc_file_header

__all__ = ["ExperimentConfig", "load_config"]

_KNOWN_KEYS = {
    "grid": {"m"},
    "problem": {"omega2", "b1", "b2"},
    "truth": {"k", "values", "file"},
    "schedule": {"levels"},
    "bundle": {"mode", "lhat0", "l0", "k", "phi_c", "phi_beta", "eps", "n_exponent",
               "seed", "samples"},
    "run": {"max_iter", "seed", "out", "eta_override", "discrepancy_threshold",
            "trials", "target_rho"},
}


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description. schedule holds the
    partitions of [schedule] levels (level n at index n), truth the field of an
    inline [truth] k/values; a [truth] file, whose path truth_file holds as
    resolved against the config file's directory, is read by truth_field()
    alone."""

    grid: Grid
    omega2: float
    b1: float
    b2: float
    truth: PwcField | None
    truth_file: str | None
    schedule: list[Partition]
    bundle_mode: str
    bundle_lhat0: float | None
    bundle_l0: float | None
    bundle_k: float | None
    phi: CompressionModel
    eps: float
    n_exponent: float
    bundle_seed: int
    bundle_samples: int
    max_iter: int
    seed: int
    out: str | None
    eta_override: float | None
    discrepancy_threshold: float | None
    trials: int
    target_rho: float
    raw_text: str = field(repr=False, default="")

    def truth_field(self) -> PwcField:
        if self.truth_file is not None:
            # the file header pins N and the level; rebuild the matching uniform partition
            n, level = pwc_file_header(self.truth_file)
            part = uniform_partition(self.grid, n, level=level)
            return load_pwc_field(self.truth_file, part, (self.b1, self.b2))
        if self.truth is None:
            raise ConfigurationError("config has no [truth] section with k/values or file")
        return self.truth

    def calibrated_bundle(self) -> ConstantsBundle:
        """An empirical calibration at the config's grid, frequency and box."""
        return calibrate(self.grid, self.omega2, self.b1, self.b2, phi=self.phi,
                         eps=self.eps, mode="empirical", seed=self.bundle_seed,
                         samples=self.bundle_samples, n_exponent=self.n_exponent)

    def bundle(self) -> ConstantsBundle:
        """The analytic bundle of lhat0/l0/k, or an empirical calibration."""
        if self.bundle_mode == "calibrate":
            return self.calibrated_bundle()
        if None in (self.bundle_lhat0, self.bundle_l0, self.bundle_k):
            raise ConfigurationError("an analytic [bundle] needs lhat0, l0 and k")
        return ConstantsBundle(df_bound0=self.bundle_lhat0, df_lip0=self.bundle_l0,
                               stab_k=self.bundle_k, b1=self.b1, b2=self.b2,
                               omega2=self.omega2, eps=self.eps, phi=self.phi,
                               n_exponent=self.n_exponent, calibration="analytic")


def _reject_unknown(parser: configparser.ConfigParser) -> None:
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigurationError(f"unknown config section [{section}]")
        unknown = sorted(set(parser[section]) - _KNOWN_KEYS[section])
        if unknown:
            raise ConfigurationError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")


def _get_int(parser: configparser.ConfigParser, section: str, key: str, fallback: int,
             least: int = 0) -> int:
    """An integer key, refusing a fractional value instead of truncating it, and
    a value below least."""
    try:
        value = parser.getint(section, key, fallback=fallback)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key} must be an integer, "
                                 f"got {parser.get(section, key)!r}") from None
    if value < least:
        raise ConfigurationError(f"[{section}] {key} must be at least {least}, got {value}")
    return value


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open_text(path) as fh:
            text = fh.read()
        parser.read_string(text)
        _reject_unknown(parser)
        return _parse(parser, text, os.path.dirname(os.fspath(path)))
    except (configparser.Error, ValueError, OverflowError) as exc:
        # bad INI syntax or a malformed value: a configuration error
        raise ConfigurationError(f"{path}: {exc}") from exc


def _parse(parser: configparser.ConfigParser, text: str, base: str) -> ExperimentConfig:
    """The config of parser (text as read); base is the config file's directory."""
    m = parser.getint("grid", "m")
    omega2 = parser.getfloat("problem", "omega2")
    b1 = parser.getfloat("problem", "b1")
    b2 = parser.getfloat("problem", "b2")
    grid = Grid(m)
    spectrum_guard(omega2, b1, b2)

    truth = None
    truth_file = parser.get("truth", "file", fallback=None)
    if truth_file is not None:
        truth_file = os.path.join(base, truth_file)  # unchanged when absolute
    elif parser.has_section("truth"):
        k = parser.getint("truth", "k")
        values = np.array([float(tok) for tok in parser.get("truth", "values").split()])
        if values.size != k ** 2:
            raise ConfigurationError(f"[truth] k={k} needs {k ** 2} values, got {values.size}")
        truth = PwcField(make_uniform_partition(grid, k), values, (b1, b2))
        if not truth.admissible():
            raise ConfigurationError(f"[truth] values must lie in the box [{b1}, {b2}] that the "
                                     f"frequency guard certifies, got {values.min()} to "
                                     f"{values.max()}")

    schedule = []
    for tok in parser.get("schedule", "levels").split():
        schedule.append(uniform_partition(grid, int(tok), level=len(schedule)))
    if not schedule:
        raise ConfigurationError("[schedule] levels must not be empty")
    if any(b.n_regions < a.n_regions for a, b in zip(schedule, schedule[1:])):
        raise ConfigurationError("schedule region counts must be nondecreasing")

    mode = parser.get("bundle", "mode", fallback="analytic")
    if mode not in ("analytic", "calibrate"):
        raise ConfigurationError(f"bundle mode must be analytic or calibrate, got {mode!r}")
    eps = parser.getfloat("bundle", "eps")
    phi = CompressionModel.power_law(parser.getfloat("bundle", "phi_c", fallback=0.0),
                                     parser.getfloat("bundle", "phi_beta", fallback=1.0))

    max_iter = _get_int(parser, "run", "max_iter", 500)
    eta_override = parser.getfloat("run", "eta_override", fallback=None)
    tau = parser.getfloat("run", "discrepancy_threshold", fallback=None)
    try:  # the rule that run_level applies to every level
        _check_level_settings(max_iter, eta_override, tau)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[run] {exc}") from None
    target_rho = parser.getfloat("run", "target_rho", fallback=1e3)
    if not (math.isfinite(target_rho) and target_rho > 0):
        raise ConfigurationError(f"[run] target_rho must be finite and > 0, got {target_rho}")

    return ExperimentConfig(
        grid=grid,
        omega2=omega2,
        b1=b1,
        b2=b2,
        truth=truth,
        truth_file=truth_file,
        schedule=schedule,
        bundle_mode=mode,
        bundle_lhat0=parser.getfloat("bundle", "lhat0", fallback=None),
        bundle_l0=parser.getfloat("bundle", "l0", fallback=None),
        bundle_k=parser.getfloat("bundle", "k", fallback=None),
        phi=phi,
        eps=eps,
        n_exponent=parser.getfloat("bundle", "n_exponent", fallback=DEFAULT_EXPONENT),
        bundle_seed=_get_int(parser, "bundle", "seed", 0),
        bundle_samples=_get_int(parser, "bundle", "samples", 12),
        max_iter=max_iter,
        seed=_get_int(parser, "run", "seed", 0),
        out=parser.get("run", "out", fallback=None),
        eta_override=eta_override,
        discrepancy_threshold=tau,
        trials=_get_int(parser, "run", "trials", 20, least=1),
        target_rho=target_rho,
        raw_text=text,
    )
