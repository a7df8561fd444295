"""Empirical first and second moments of signal matrices, and the
sample-size-driven radii that bound how far those estimates can sit from the
population moments.

Signals are columns of an m x n matrix X (m nodes, n observations).  The
empirical covariance uses the 1/n convention, so the plug-in risk identity

    trace(cov @ L) + mean @ L @ mean == (1/n) * trace(X.T @ L @ X)

holds exactly.  The radii come from sub-Gaussian concentration bounds: the
mean estimate lives in an ellipsoid of radius rho1, the covariance estimate
in a Frobenius ball of radius rho2, each shrinking in n at the usual
1/sqrt(n) rate up to logarithmic factors in the confidence level delta.
Absolute constants in those bounds are not identifiable from data, so they
are exposed as parameters c0, c1, c2 defaulting to 1.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

# delta may not exceed exp(-2); beyond that the mean bound's derivation no
# longer applies, so we reject rather than silently extrapolate.
DELTA_MAX = math.exp(-2.0)


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample mean, 1/n sample covariance, and the sample count behind them."""

    mean: np.ndarray
    cov: np.ndarray
    n: int


@dataclass(frozen=True)
class RadiusParams:
    """Knobs of the confidence-radius formulas.

    sigma_norm is the spectral-norm scale of the covariance appearing in the
    covariance bound; None means "plug in the spectral norm of the sample
    covariance at calibration time".
    """

    delta: float = 0.05
    c0: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    sigma_norm: float | None = None

    def __post_init__(self):
        if not (0.0 < self.delta <= DELTA_MAX):
            raise ValueError(
                f"delta must lie in (0, e^-2] ~ (0, {DELTA_MAX:.4f}], got {self.delta}"
            )
        for name in ("c0", "c1", "c2"):
            val = getattr(self, name)
            if not val > 0.0:
                raise ValueError(f"{name} must be positive, got {val}")
        if self.sigma_norm is not None and not self.sigma_norm > 0.0:
            raise ValueError(f"sigma_norm must be positive, got {self.sigma_norm}")


def empirical_moments(X: np.ndarray) -> EmpiricalMoments:
    """Mean and 1/n covariance of the columns of X (m x n)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"signal matrix must be 2-d, got shape {X.shape}")
    m, n = X.shape
    if n < 2:
        raise ValueError(f"need at least 2 observations for a covariance, got n={n}")
    if not np.isfinite(X).all():
        raise ValueError("signal matrix contains non-finite entries")
    mean = X.mean(axis=1)
    centered = X - mean[:, None]
    cov = (centered @ centered.T) / n
    return EmpiricalMoments(mean=mean, cov=cov, n=n)


def rho1_radius(params: RadiusParams, n: int) -> float:
    """Confidence radius for the mean estimate after n observations.

    Square root of the high-probability bound 4 c0 e^2 ln^2(1/delta) / n on
    the squared ellipsoid distance between sample and population mean.
    """
    if n < 1:
        raise ValueError(f"sample count must be positive, got n={n}")
    return math.sqrt(4.0 * params.c0 * math.e**2 * math.log(1.0 / params.delta) ** 2 / n)


def rho2_radius(params: RadiusParams, m: int, n: int) -> float:
    """Confidence radius for the covariance estimate in Frobenius norm.

    Two-term bound: a 1/sqrt(n) term scaled by the covariance spectral norm
    with a log^{3/2}(2 m^{3/2}/delta) factor, plus a faster 1/n term.
    Requires a concrete sigma_norm; calibrate one first if the params carry
    the plug-in sentinel.
    """
    if n < 1:
        raise ValueError(f"sample count must be positive, got n={n}")
    if m < 1:
        raise ValueError(f"node count must be positive, got m={m}")
    if params.sigma_norm is None:
        raise ValueError(
            "sigma_norm unresolved; replace the None sentinel with a concrete "
            "spectral-norm scale before evaluating the covariance radius"
        )
    slow = (
        4.0
        * params.c1
        * (2.0 * math.e / 3.0) ** 1.5
        * math.log(2.0 * m**1.5 / params.delta) ** 1.5
        * params.sigma_norm
        / math.sqrt(n)
    )
    fast = 4.0 * params.c2 * math.e**2 * math.log(2.0 / params.delta) ** 2 / n
    return slow + fast


def calibrated(params: RadiusParams, cov: np.ndarray) -> RadiusParams:
    """Resolve the sigma_norm plug-in against a concrete sample covariance.

    The plug-in is the covariance's largest eigenvalue, floored at the
    smallest positive float so constant signals still give a valid scale.
    """
    if params.sigma_norm is not None:
        return params
    sigma_norm = max(float(np.linalg.eigvalsh(cov)[-1]), np.finfo(float).tiny)
    return replace(params, sigma_norm=sigma_norm)


def write_signals_csv(path, X: np.ndarray) -> None:
    """Write signals as CSV: header node_1..node_m, one row per observation.

    The on-disk layout is the transpose of the in-memory m x n matrix.
    Floats carry 17 significant digits (``%.17g``) for an exact round-trip;
    rows end in CRLF, the csv module's default, and no field needs quoting.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"signal matrix must be 2-d, got shape {X.shape}")
    m = X.shape[0]
    row_format = ",".join(["%.17g"] * m) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_signal_header(m)) + "\r\n")
        # One row at a time: a whole-matrix string would cost megabytes.
        fh.writelines(row_format % tuple(row.tolist()) for row in X.T)


def read_signals_csv(path) -> np.ndarray:
    """Parse a signals CSV back into an m x n matrix.

    The header fixes m; every data row must have exactly m finite fields.
    Errors cite the offending row number.
    """
    try:
        return _load_signals_bulk(path)
    except ValueError:
        # Anything the bulk parser rejects is re-read row by row, which either
        # accepts it or names the failing row.
        return _read_signals_csv_rows(path)


def _signal_header(m: int) -> list[str]:
    return [f"node_{i}" for i in range(1, m + 1)]


def _load_signals_bulk(path) -> np.ndarray:
    """Parse a well-formed signals CSV in one ``np.loadtxt`` call.

    Raises ValueError on every input it cannot vouch for; the values it does
    return are bit-equal to ``_read_signals_csv_rows``'s ``float()`` parse.
    """
    with open(path, newline="") as fh:
        header = next(_csv_rows(path, fh), None)
        if not header or header != _signal_header(len(header)):
            raise ValueError("bad header")
        # loadtxt warns on a body without data, so the first row must have some.
        first = next(fh, "")
        if not first.strip():
            raise ValueError("no first row")
        X = np.loadtxt(
            _refuse_separator_controls(itertools.chain([first], fh)),
            delimiter=",", comments=None, ndmin=2,
        )
    if X.shape[1] != len(header):
        raise ValueError("wrong field count")
    if not np.isfinite(X).all():
        raise ValueError("non-finite value")
    return X.T


def _refuse_separator_controls(lines):
    """Pass lines through, raising ValueError at any with a \\x1c-\\x1f control.

    loadtxt strips those from a field as whitespace; float() rejects them.
    """
    for line in lines:
        if any(c in line for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError("separator control in a field")
        yield line


def _csv_rows(path, fh):
    """csv.reader rows of fh, with the csv module's own errors (such as a
    field longer than csv.field_size_limit()) and undecodable bytes raised
    as ValueError naming the file."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_signals_csv_rows(path) -> np.ndarray:
    """Row-by-row parse of a signals CSV, citing the row of any error."""
    with open(path, newline="") as fh:
        reader = _csv_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty signals file") from None
        expected = _signal_header(len(header))
        if header != expected:
            raise ValueError(
                f"{path}: bad header {header[:4]}..., expected node_1..node_{len(header)}"
            )
        m = len(header)
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != m:
                raise ValueError(
                    f"{path}: row {rownum} has {len(row)} fields, expected {m}"
                )
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise ValueError(f"{path}: row {rownum} has a non-numeric field") from None
            # nan, inf and values that overflow to inf, such as a long run of digits
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: row {rownum} has a non-finite field")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no observation rows")
    return np.array(rows).T
