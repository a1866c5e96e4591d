"""Inter-rater agreement statistics over items x raters rating grids.

ICC3 is the two-way mixed, consistency, single-measure intraclass
correlation and requires a complete design; Krippendorff's alpha uses the
coincidence-matrix formulation and handles missing ratings natively.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IncompleteMatrixError, MalformedInputError, NoPairableValuesError

LIKERT_SCALE = (1, 5)


@dataclass(frozen=True)
class RatingMatrix:
    """Ordinal scores laid out items x raters; None marks a missing cell.

    ``scale`` bounds the legal values (the 1-5 Likert scale by default);
    pass ``scale=None`` to admit arbitrary finite ratings.
    """

    values: tuple[tuple[float | None, ...], ...]
    scale: tuple[int, int] | None = LIKERT_SCALE

    def __post_init__(self):
        if not self.values:
            raise IncompleteMatrixError("rating matrix has no items")
        widths = {len(row) for row in self.values}
        if len(widths) != 1:
            raise IncompleteMatrixError("rating matrix rows have unequal rater counts")
        if self.raters < 2:
            raise IncompleteMatrixError("at least 2 raters required")
        if self.scale is not None:
            lo, hi = self.scale
            for row in self.values:
                for v in row:
                    if v is not None and not (lo <= v <= hi):
                        raise IncompleteMatrixError(
                            f"rating {v} outside scale [{lo}, {hi}]"
                        )

    @property
    def items(self) -> int:
        return len(self.values)

    @property
    def raters(self) -> int:
        return len(self.values[0])

    @classmethod
    def from_rows(cls, rows, scale=LIKERT_SCALE) -> "RatingMatrix":
        return cls(tuple(tuple(row) for row in rows), scale=scale)

    @classmethod
    def from_csv(cls, path: str | Path) -> "RatingMatrix":
        """Plain numeric UTF-8 CSV, one item per row, empty cells for missing,
        checked against the Likert scale. A file that is not one raises
        ``MalformedInputError``."""
        rows = []
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                for record in csv.reader(handle):
                    if not record or all(not cell.strip() for cell in record):
                        continue
                    rows.append(
                        tuple(float(cell) if cell.strip() else None for cell in record)
                    )
        # a cell that is not a number, bytes that are not UTF-8 (also a
        # ValueError) or a field past the csv module's size limit
        except (ValueError, csv.Error) as exc:
            raise MalformedInputError(f"{path} is not a numeric UTF-8 CSV: {exc}") from exc
        return cls.from_rows(rows)


def icc3(ratings: RatingMatrix) -> float:
    """ICC(3,1): (MS_rows - MS_error) / (MS_rows + (k-1) * MS_error).

    Requires a complete matrix with at least two items. A matrix with no
    variance at all is degenerate; by convention it scores 0 and a warning
    flags the condition.
    """
    for i, row in enumerate(ratings.values):
        if any(v is None for v in row):
            raise IncompleteMatrixError(f"item {i} has missing ratings; ICC3 needs a complete design")
    if ratings.items < 2:
        raise IncompleteMatrixError("ICC3 requires at least 2 items")
    x = np.array(ratings.values, dtype=np.float64)
    n, k = x.shape
    grand = x.mean()
    ss_total = float(((x - grand) ** 2).sum())
    if ss_total == 0.0:
        warnings.warn("degenerate rating matrix: zero total variance, ICC3 set to 0")
        return 0.0
    row_means = x.mean(axis=1)
    col_means = x.mean(axis=0)
    ss_rows = float(k * ((row_means - grand) ** 2).sum())
    ss_cols = float(n * ((col_means - grand) ** 2).sum())
    ss_error = ss_total - ss_rows - ss_cols
    ms_rows = ss_rows / (n - 1)
    ms_error = ss_error / ((n - 1) * (k - 1))
    denom = ms_rows + (k - 1) * ms_error
    if denom == 0.0:
        warnings.warn("degenerate rating matrix: zero denominator, ICC3 set to 0")
        return 0.0
    return (ms_rows - ms_error) / denom


def _ordinal_distance_sq(values, marginals, c, k) -> float:
    lo, hi = (c, k) if c <= k else (k, c)
    inner = sum(marginals[g] for g in values if lo <= g <= hi)
    return (inner - (marginals[c] + marginals[k]) / 2.0) ** 2


def krippendorff_alpha(ratings: RatingMatrix, level: str = "ordinal") -> float:
    """Chance-corrected agreement from the coincidence matrix.

    Items with fewer than two ratings are dropped. ``level`` selects the
    distance function: squared difference for interval data, the cumulative
    marginal-frequency distance for ordinal data. Perfect agreement (or a
    degenerate single-value domain) scores 1.
    """
    if level not in ("ordinal", "interval"):
        raise ValueError(f"level must be 'ordinal' or 'interval', got {level!r}")
    units = [
        [v for v in row if v is not None]
        for row in ratings.values
    ]
    units = [u for u in units if len(u) >= 2]
    if not units:
        raise NoPairableValuesError("no item has two or more ratings")

    domain = sorted({v for unit in units for v in unit})
    index = {v: i for i, v in enumerate(domain)}
    size = len(domain)
    coincidence = np.zeros((size, size), dtype=np.float64)
    for unit in units:
        m_u = len(unit)
        counts = {}
        for v in unit:
            counts[v] = counts.get(v, 0) + 1
        for c, n_c in counts.items():
            for k, n_k in counts.items():
                pairs = n_c * (n_c - 1) if c == k else n_c * n_k
                coincidence[index[c], index[k]] += pairs / (m_u - 1)

    marginals = {v: float(coincidence[index[v], :].sum()) for v in domain}
    n_total = float(coincidence.sum())

    if level == "interval":
        def dist_sq(c, k): return (c - k) ** 2
    else:
        def dist_sq(c, k): return _ordinal_distance_sq(domain, marginals, c, k)

    d_observed = 0.0
    d_expected = 0.0
    for c in domain:
        for k in domain:
            if c == k:
                continue
            d2 = dist_sq(c, k)
            d_observed += coincidence[index[c], index[k]] * d2
            d_expected += marginals[c] * marginals[k] * d2
    if d_expected == 0.0:
        return 1.0  # single-value domain: no disagreement is expressible
    d_observed /= n_total
    d_expected /= n_total * (n_total - 1.0)
    return 1.0 - d_observed / d_expected
