"""The exponent fit over a simulate result: each horizon's worst-case error
estimate over the messages, and the least-squares slope of -ln(p_hat)
against n."""
import math

import numpy as np

from netexp.errors import NetexpError


class InsufficientData(NetexpError):
    """Fewer than three horizons with errors to fit a slope to."""


def aggregate(result) -> tuple:
    """(n, worst-case p_hat over the messages) per horizon, from the rows."""
    return tuple((n, max(r.p_hat for r in result.rows if r.n == n))
                 for n in result.config.horizons)


def skipped_horizons(result) -> tuple:
    """Horizons without a single error, which the fit leaves out."""
    return tuple(n for n, p in aggregate(result) if p == 0.0)


def fit_exponent(result):
    """OLS slope of -ln(p_hat) against n over horizons with nonzero errors,
    and its standard error.

    Zero-error horizons are excluded (``skipped_horizons``); fewer than 3
    usable horizons raises.
    """
    usable = [(n, p) for n, p in aggregate(result) if p > 0.0]
    if len(usable) < 3:
        raise InsufficientData(
            f"need at least 3 horizons with errors, have {len(usable)}"
        )
    xs = np.array([n for n, _ in usable], dtype=float)
    ys = np.array([-math.log(p) for _, p in usable])
    xbar, ybar = xs.mean(), ys.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (ys - ybar)).sum() / sxx)
    resid = ys - (ybar + slope * (xs - xbar))
    sigma2 = float((resid**2).sum() / (len(xs) - 2))
    stderr = math.sqrt(sigma2 / sxx)
    return slope, stderr
