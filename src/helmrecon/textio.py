"""Every text file the library and its CLI read or write.

Each file is UTF-8 with LF line endings, written through write_text as a
header plus rows (piecewise-constant field, DtN), 'key = value' lines (bundle,
summaries) or CSV (logs). Data files write floats with repr, so they read back
exactly; the CSV logs write %.17g and leave a missing value blank. No file holds
the boundary weights, which the grid alone fixes: load_dtn takes the grid's
(build_boundary_weights). Loaders refuse what is not UTF-8, not finite, out of
range, malformed or trailing with ConfigurationError (CLI exit 64), and a file
sized for another partition or weights with DiscretizationMismatchError.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .constants import CompressionModel, ConstantsBundle, RhoPoint
from .domain import Partition, PwcField
from .errors import ConfigurationError, DiscretizationMismatchError
from .forward import BoundaryWeights, DtnMatrix
from .optimizer import LevelRun, MultilevelResult

# the bundle file's keys in file order; all but calibration hold a float
_BUNDLE_KEYS = ("df_bound0", "df_lip0", "stab_k", "b1", "b2", "omega2", "eps", "phi_c",
                "phi_beta", "n_exponent", "calibration")


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_lines(path, lines) -> None:
    """Each line followed by LF."""
    write_text(path, "".join(f"{line}\n" for line in lines))


def write_keyvalues(path, items) -> None:
    """'key = value' lines; a float value is written with repr."""
    write_lines(path, (f"{key} = {value}" for key, value in items))


def _g17(value) -> str:
    """A CSV log cell: %.17g, blank for a missing value (None or nan)."""
    return "" if value is None or np.isnan(value) else f"{value:.17g}"


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; other bytes raise ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def parse_number(path, token: str, kind=float):
    """One numeric token of a field or matrix file; anything that is not a
    finite number of the given kind raises ConfigurationError."""
    try:
        value = kind(token)
    except ValueError:
        raise ConfigurationError(f"{path}: {token!r} is not a valid {kind.__name__}") from None
    if kind is int and not -2 ** 63 < value < 2 ** 63:
        raise ConfigurationError(f"{path}: integer {token!r} is out of range")
    if kind is float and not np.isfinite(value):
        raise ConfigurationError(f"{path}: non-finite value {token!r}")
    return value


def read_header(fh, path, layout: str, kinds: tuple) -> list:
    """Parse a header line laid out as '<name> <field> ...' with the given field types."""
    tokens = fh.readline().split()
    name = layout.split()[0]
    if len(tokens) != len(kinds) + 1 or tokens[0] != name:
        raise ConfigurationError(f"{path}: expected '{layout}' header")
    return [parse_number(path, tok, kind) for tok, kind in zip(tokens[1:], kinds)]


def read_rows(fh, path, rows: int, cols: int) -> np.ndarray:
    """Read rows lines of exactly cols finite numbers each."""
    out = np.empty((rows, cols))
    for r in range(rows):
        tokens = fh.readline().split()
        if not tokens:
            raise ConfigurationError(f"{path}: truncated after {r} of {rows} data lines")
        if len(tokens) != cols:
            raise ConfigurationError(
                f"{path}: data line {r + 1} has {len(tokens)} values, expected {cols}")
        out[r] = [parse_number(path, tok) for tok in tokens]
    return out


def expect_end(fh, path) -> None:
    """Reject anything but blank lines after the declared data."""
    if fh.read().strip():
        raise ConfigurationError(f"{path}: unexpected data after the declared entries")


def save_field(path, f: PwcField) -> None:
    """Write a piecewise-constant field in the plain-text exchange format."""
    write_lines(path, [f"pwc {f.partition.n_regions} {f.partition.level}",
                       *(f"{j} {float(v)!r}" for j, v in enumerate(f.coeffs))])


def pwc_file_header(path) -> tuple[int, int]:
    """(N, level) from the header of a piecewise-constant field file."""
    with open_text(path) as fh:
        n, level = read_header(fh, path, "pwc <N> <level>", (int, int))
    if n < 1:
        raise ConfigurationError(f"{path}: region count must be positive, got {n}")
    return n, level


def load_pwc_field(path, partition: Partition, bounds: tuple[float, float]) -> PwcField:
    """Read a pwc file: N lines 'region coeff', each region exactly once, each
    coefficient inside bounds (ConfigurationError otherwise)."""
    with open_text(path) as fh:
        n, level = read_header(fh, path, "pwc <N> <level>", (int, int))
        if n != partition.n_regions:
            raise DiscretizationMismatchError(
                f"{path}: file has {n} regions, partition has {partition.n_regions}"
            )
        if level != partition.level:
            raise DiscretizationMismatchError(
                f"{path}: file level {level} != partition level {partition.level}"
            )
        coeffs = np.empty(n)
        seen = np.zeros(n, dtype=bool)
        for row in read_rows(fh, path, n, 2):
            j = int(row[0])
            if j != row[0] or not 0 <= j < n:
                raise ConfigurationError(f"{path}: region index {row[0]:g} is not in 0..{n - 1}")
            if seen[j]:
                raise ConfigurationError(f"{path}: region {j} is listed twice")
            coeffs[j] = row[1]
            seen[j] = True
        expect_end(fh, path)
    field = PwcField(partition, coeffs, bounds)
    if not field.admissible():
        raise ConfigurationError(
            f"{path}: coefficients {coeffs.min()} to {coeffs.max()} leave the box {field.bounds}")
    return field


def save_dtn(path, dtn: DtnMatrix) -> None:
    """The header, then one line of repr values per row of the matrix."""
    write_lines(path, [f"dtn {dtn.weights.nb} {float(dtn.omega2)!r}",
                       *(" ".join(repr(float(v)) for v in row) for row in dtn.lam)])


def load_dtn(path, weights: BoundaryWeights) -> DtnMatrix:
    with open_text(path) as fh:
        nb, omega2 = read_header(fh, path, "dtn <nb> <omega2>", (int, float))
        if nb != weights.nb:
            raise DiscretizationMismatchError(f"{path}: file nb={nb}, weights nb={weights.nb}")
        lam = read_rows(fh, path, nb, nb)
        expect_end(fh, path)
    return DtnMatrix(lam=lam, weights=weights, omega2=omega2)


def save_bundle(path, bundle: ConstantsBundle) -> None:
    """Persist a bundle as a flat key-value file."""
    flat = {**vars(bundle), "phi_c": bundle.phi.c, "phi_beta": bundle.phi.beta}
    write_keyvalues(path, [*((key, float(flat[key])) for key in _BUNDLE_KEYS[:-1]),
                           ("calibration", bundle.calibration)])


def load_bundle(path) -> ConstantsBundle:
    """Read a bundle file: 'key = value' lines, each known key at most once;
    blank lines and '#' comments are skipped."""
    kv = {}
    with open_text(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _BUNDLE_KEYS:
                raise ConfigurationError(f"{path}: {line!r} is not a 'key = value' line "
                                         "with a bundle key")
            if key in kv:
                raise ConfigurationError(f"{path}: bundle key {key!r} is given twice")
            kv[key] = value.strip()
    try:  # in file order; n_exponent and calibration may be left out
        nums = {key: parse_number(path, kv[key]) for key in _BUNDLE_KEYS[:-1]
                if key != "n_exponent" or key in kv}
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing bundle key {exc}") from exc
    phi = CompressionModel.power_law(nums.pop("phi_c"), nums.pop("phi_beta"))
    return ConstantsBundle(**nums, phi=phi, calibration=kv.get("calibration", "analytic"))


def write_rho_table(path, rows: list[RhoPoint]) -> None:
    write_lines(path, ["omega2,rho,rho_floor,note", *(
        f"{r.omega2:.17g},{_g17(r.rho)},{_g17(r.rho_floor)},{r.note}" for r in rows)])


def write_run_log(path, run: LevelRun) -> None:
    """Per-iteration CSV: k, r_k, t_k, u_k, mu_k, bregman_opt (blank if unknown)."""
    h = run.history
    write_lines(path, ["k,r_k,t_k,u_k,mu_k,bregman_opt", *(
        f"{k},{r:.17g},{t:.17g},{u:.17g},{mu:.17g},{_g17(breg)}"
        for k, r, t, u, mu, breg in zip(h["k"], h["r"], h["t"], h["u"], h["mu"], h["bregman"]))])


def write_run_metadata(path, result: MultilevelResult, bundle: ConstantsBundle,
                       extra: dict | None = None) -> None:
    """Flat key-value run summary."""
    runs = result.runs
    write_keyvalues(path, [
        ("levels", len(runs)),
        ("schedule", " ".join(str(r.partition.n_regions) for r in runs)),
        ("stop_reasons", " ".join(r.stop_reason for r in runs)),
        ("stop_indices", " ".join(str(r.k_stop) for r in runs)),
        ("error_bound", f"{result.error_bound:.17g}"),
        ("omega2", float(bundle.omega2)),
        ("eps", float(bundle.eps)),
        ("calibration", bundle.calibration),
        ("warnings", len(result.warnings)),
        *((f"warning_{i}", w) for i, w in enumerate(result.warnings)),
        *(extra or {}).items(),
    ])
