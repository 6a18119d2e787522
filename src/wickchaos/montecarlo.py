"""Deterministic chunked Monte Carlo estimation.

Samples are drawn in fixed chunks of 2^16 rows, each from its own
counter-keyed substream, and per-chunk partial sums are combined by a
pairwise tree over the chunk index.  The reduction order is a function of
n alone, so a run with a thread pool is bitwise-identical to a serial run
and to any other worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chaos import ChaosVector, _plan, _values, evaluate
from .errors import MismatchError
from .sampling import chunk_layout, chunk_normals

ZSCORE_THRESHOLD = 3.0


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error."""

    value: float
    std_error: float
    n_samples: int
    seed: int

    def zscore(self, exact: float) -> float:
        return zscore_check(self, exact)


def _pairwise_sum(parts: list[tuple[float, float, int]]) -> tuple[float, float, int]:
    """Reduce per-chunk (sum, sum of squares, count) by adjacent pairing."""
    items = list(parts)
    while len(items) > 1:
        merged = []
        for i in range(0, len(items) - 1, 2):
            a, b = items[i], items[i + 1]
            merged.append((a[0] + b[0], a[1] + b[1], a[2] + b[2]))
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def _mean_rows(fn: Callable[[np.ndarray], np.ndarray], dim: int, n: int,
               seed: int, workers: int | None = None) -> list[Estimate]:
    """Estimate E[fn(X)] row by row for X standard normal in R^dim.

    fn maps an (m, dim) block to k rows of m values (one row may come
    flat) and must be a pure function; it may be called from several
    threads at once when workers is set.  Each chunk is drawn once for all
    k rows, and each row is reduced on its own.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    layout = chunk_layout(n)

    def one_chunk(item: tuple[int, int]) -> list[tuple[float, float, int]]:
        idx, rows = item
        x = chunk_normals(dim, seed, idx, rows)
        v = np.asarray(fn(x), dtype=float).reshape(-1, rows)
        return [(float(np.sum(r)), float(np.sum(r * r)), rows) for r in v]

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one_chunk, layout))
    else:
        parts = [one_chunk(item) for item in layout]

    out = []
    for row in zip(*parts):
        s, ss, count = _pairwise_sum(row)
        mean = s / count
        var = max(0.0, (ss - s * s / count) / (count - 1))
        out.append(Estimate(mean, math.sqrt(var / count), count, seed))
    return out


def mean_estimate(fn: Callable[[np.ndarray], np.ndarray], dim: int, n: int,
                  seed: int, workers: int | None = None) -> Estimate:
    """Estimate E[fn(X)] for X standard normal in R^dim.

    fn maps an (m, dim) block to m values and must be a pure function;
    it may be called from several threads at once when workers is set.
    """
    return _mean_rows(fn, dim, n, seed, workers)[0]


def estimate_expectation(F: ChaosVector, n: int, seed: int,
                         workers: int | None = None) -> Estimate:
    """E[F] by direct sampling of the Gaussian coordinates."""
    return mean_estimate(lambda x: evaluate(F, x), F.dim, n, seed, workers)


def estimate_pair_expectation(F: ChaosVector, G: ChaosVector, n: int, seed: int,
                              workers: int | None = None) -> Estimate:
    """E[FG] from common samples, F and G read by one joint contraction
    per chunk: one Hermite table and one basis serve both."""
    plan = _plan((F, G))

    def product(x: np.ndarray) -> np.ndarray:
        f, g = _values(plan, x)
        return f * g

    return mean_estimate(product, F.dim, n, seed, workers)


def estimate_lp_norm(F: ChaosVector, p: float, n: int, seed: int,
                     workers: int | None = None) -> Estimate:
    """(E |F|^p)^{1/p} with a delta-method standard error.

    For m = mean of |F|^p with SE s, the norm m^{1/p} carries
    SE s * (1/p) * m^{1/p - 1}.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    raw = mean_estimate(lambda x: np.abs(evaluate(F, x)) ** p, F.dim, n, seed, workers)
    if raw.value <= 0.0:
        return Estimate(0.0, 0.0, raw.n_samples, seed)
    value = raw.value ** (1.0 / p)
    se = raw.std_error * (1.0 / p) * raw.value ** (1.0 / p - 1.0)
    return Estimate(value, se, raw.n_samples, seed)


def zscore_check(estimate: Estimate, exact: float) -> float:
    """|value - exact| / std_error; an SE of zero demands exact agreement."""
    if estimate.std_error == 0.0:
        if estimate.value == exact:
            return 0.0
        raise MismatchError(
            f"estimate {estimate.value!r} != {exact!r} with zero standard error")
    return abs(estimate.value - exact) / estimate.std_error
