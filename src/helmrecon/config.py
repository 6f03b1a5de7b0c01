"""Experiment configuration: INI-style sections of flat key-value pairs.

Schema (sections and keys; * marks required):

    [grid]      m*
    [problem]   omega2*, b1*, b2*
    [truth]     k (regions per side of the truth partition) and values
                (region coefficients, row-major, each in [b1, b2]), or file
                (a pwc field file, checked against the box when read)
    [schedule]  levels* (space-separated region counts, each a square number)
    [bundle]    mode (analytic|calibrate), lhat0/l0/k (df_bound0, df_lip0,
                stab_k; required when a command builds an analytic bundle),
                phi_c, phi_beta (power-law compression), eps*,
                n_exponent (optional), seed/samples for calibrate mode
    [run]       max_iter, seed, out, eta_override, discrepancy_threshold,
                trials (verify, at least 1), target_rho (constants)

Integer keys (max_iter, seed, trials, samples) refuse fractional and negative
values. eta_override and discrepancy_threshold must be finite and >= 0.

Unknown keys are rejected so typos fail loudly. Validation happens before any
solve: the frequency guard, partition divisibility, and compression model
monotonicity are all checked at parse time.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CompressionModel, ConstantsBundle, calibrate
from .domain import Grid, PwcField, load_pwc_field, make_uniform_partition, pwc_file_header
from .errors import ConfigurationError
from .forward import spectrum_guard

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
    """Parsed and validated experiment description."""

    grid: Grid
    omega2: float
    b1: float
    b2: float
    truth_k: int | None
    truth_values: np.ndarray | None
    truth_file: str | None
    schedule_n: list[int]
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
            # the file header pins N; rebuild the matching uniform partition
            n, level = pwc_file_header(self.truth_file)
            k = int(round(np.sqrt(n)))
            part = make_uniform_partition(self.grid, k, level=level)
            return load_pwc_field(self.truth_file, part, (self.b1, self.b2))
        if self.truth_k is None or self.truth_values is None:
            raise ConfigurationError("config has no [truth] section with k/values or file")
        part = make_uniform_partition(self.grid, self.truth_k)
        return PwcField(part, self.truth_values, (self.b1, self.b2))

    def schedule_partitions(self) -> list:
        parts = []
        for n in self.schedule_n:
            k = int(round(np.sqrt(n)))
            parts.append(make_uniform_partition(self.grid, k, level=len(parts)))
        return parts

    def bundle(self) -> ConstantsBundle:
        """The analytic bundle of lhat0/l0/k, or an empirical calibration."""
        if self.bundle_mode == "calibrate":
            return calibrate(self.grid, self.omega2, self.b1, self.b2, phi=self.phi,
                             eps=self.eps, mode="empirical", seed=self.bundle_seed,
                             samples=self.bundle_samples, n_exponent=self.n_exponent)
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
        unknown = set(parser[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )


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
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text)
        _reject_unknown(parser)
        return _parse(parser, text)
    except (configparser.Error, ValueError, OverflowError) as exc:
        # undecodable bytes, bad INI syntax or a malformed value: a configuration error
        raise ConfigurationError(f"{path}: {exc}") from exc


def _parse(parser: configparser.ConfigParser, text: str) -> ExperimentConfig:
    m = parser.getint("grid", "m")
    omega2 = parser.getfloat("problem", "omega2")
    b1 = parser.getfloat("problem", "b1")
    b2 = parser.getfloat("problem", "b2")
    grid = Grid(m)
    spectrum_guard(omega2, b1, b2)

    truth_k = truth_values = truth_file = None
    if parser.has_section("truth"):
        if parser.has_option("truth", "file"):
            truth_file = parser.get("truth", "file")
        else:
            truth_k = parser.getint("truth", "k")
            truth_values = np.array(
                [float(tok) for tok in parser.get("truth", "values").split()]
            )
            if truth_values.size != truth_k ** 2:
                raise ConfigurationError(
                    f"[truth] expects {truth_k ** 2} values for k={truth_k}, "
                    f"got {truth_values.size}"
                )
            make_uniform_partition(grid, truth_k)  # divisibility check
            if not ((truth_values >= b1) & (truth_values <= b2)).all():
                raise ConfigurationError(
                    f"[truth] values must lie in the box [{b1}, {b2}] that the frequency "
                    f"guard certifies, got {truth_values.min()} to {truth_values.max()}")

    if not parser.has_option("schedule", "levels"):
        raise ConfigurationError("config needs [schedule] levels")
    schedule_n = [int(tok) for tok in parser.get("schedule", "levels").split()]
    if not schedule_n:
        raise ConfigurationError("[schedule] levels must not be empty")
    for n in schedule_n:
        k = math.isqrt(n)
        if k * k != n:
            raise ConfigurationError(f"schedule entry {n} is not a square region count")
        make_uniform_partition(grid, k)
    if any(b < a for a, b in zip(schedule_n, schedule_n[1:])):
        raise ConfigurationError("schedule region counts must be nondecreasing")

    get_b = lambda key, fallback=None: (
        parser.getfloat("bundle", key) if parser.has_option("bundle", key) else fallback
    )
    mode = parser.get("bundle", "mode", fallback="analytic")
    if mode not in ("analytic", "calibrate"):
        raise ConfigurationError(f"bundle mode must be analytic or calibrate, got {mode!r}")
    eps = get_b("eps")
    if eps is None:
        raise ConfigurationError("config needs [bundle] eps")
    phi = CompressionModel.power_law(get_b("phi_c", 0.0), get_b("phi_beta", 1.0))

    get_r = lambda key, fallback=None: (
        parser.getfloat("run", key) if parser.has_option("run", key) else fallback
    )
    out = parser.get("run", "out", fallback=None)
    eta_override, tau = get_r("eta_override"), get_r("discrepancy_threshold")
    for key, value in (("eta_override", eta_override), ("discrepancy_threshold", tau)):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ConfigurationError(f"[run] {key} must be finite and >= 0, got {value}")

    return ExperimentConfig(
        grid=grid,
        omega2=omega2,
        b1=b1,
        b2=b2,
        truth_k=truth_k,
        truth_values=truth_values,
        truth_file=truth_file,
        schedule_n=schedule_n,
        bundle_mode=mode,
        bundle_lhat0=get_b("lhat0"),
        bundle_l0=get_b("l0"),
        bundle_k=get_b("k"),
        phi=phi,
        eps=eps,
        n_exponent=get_b("n_exponent", 4.0 / 7.0),
        bundle_seed=_get_int(parser, "bundle", "seed", 0),
        bundle_samples=_get_int(parser, "bundle", "samples", 12),
        max_iter=_get_int(parser, "run", "max_iter", 500),
        seed=_get_int(parser, "run", "seed", 0),
        out=out,
        eta_override=eta_override,
        discrepancy_threshold=tau,
        trials=_get_int(parser, "run", "trials", 20, least=1),
        target_rho=get_r("target_rho", 1e3),
        raw_text=text,
    )
