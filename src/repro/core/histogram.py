"""Quantization-code histogram estimation with bin-transfer correction.

§III-C4 of the paper: the sampled prediction errors (computed against
*original* neighbour values) are quantized at a query error bound to give
the estimated quantization-code histogram.  Under high error bounds the
original-value histogram distorts relative to the real compressor (which
predicts from reconstructed values), so a correction layer transfers a
fraction of each bin's mass to its neighbouring bins:

    N_tran = C2 * (1 - p0) * N        when p0 >= theta2 (= 0.8),

with C2 = 0.2 for Lorenzo and C2 = 0.1 for interpolation (no correction
for regression, whose prediction never uses reconstructed values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizedHistogram",
    "build_code_histogram",
    "histogram_from_codes",
    "histograms_from_codes",
    "replay_lattice_codes",
    "bound_chunks",
    "central_bin_variance",
    "CURVE_BATCH_POINTS",
    "BIN_TRANSFER_C2",
    "BIN_TRANSFER_THRESHOLD",
]

#: Eq. 9 empirical constants per predictor.
BIN_TRANSFER_C2 = {"lorenzo": 0.2, "interpolation": 0.1, "regression": 0.0}
#: theta2 of Eq. 9: apply the correction when p0 exceeds this.
BIN_TRANSFER_THRESHOLD = 0.8

#: Point budget of one batched replay over a grid of error bounds: the
#: bound axis is cut so ``bounds x stencil values`` stays below it, which
#: keeps the float64 lattice temporaries near 1 MB however large the
#: sample is (a sample beyond the budget is replayed one bound at a time).
CURVE_BATCH_POINTS = 1 << 17


@dataclass(frozen=True)
class QuantizedHistogram:
    """Estimated quantization-code histogram at one error bound.

    ``symbols`` are the integer codes (sorted), ``probs`` their estimated
    probabilities (sum to 1), ``p0`` the zero-code probability and
    ``central_var`` the variance of the raw errors inside the central bin
    (needed by the mixed error-distribution model, Eq. 11).

    ``outlier_fraction`` is the probability of a code overflowing the
    quantizer radius: the compressor emits code 0 for such points and
    stores them verbatim, so they appear in the zero bin here *and* carry
    the extra per-point side cost the bit-rate model adds.
    """

    error_bound: float
    symbols: np.ndarray
    probs: np.ndarray
    p0: float
    central_var: float
    outlier_fraction: float = 0.0
    #: number of raw samples behind the histogram (0 = unknown); lets
    #: the encoder model apply the Miller-Madow small-sample correction.
    n_samples: int = 0

    @property
    def n_bins(self) -> int:
        """Number of occupied quantization bins."""
        return int(self.symbols.size)

    def entropy_bits(self) -> float:
        """Shannon entropy of the histogram in bits/symbol."""
        p = self.probs[self.probs > 0]
        return float(-np.sum(p * np.log2(p)))


def central_bin_variance(errors: np.ndarray, error_bound: float) -> float:
    """Variance of the prediction errors inside the central bin.

    Central-bin points keep their prediction error unchanged after
    compression (code 0 reconstructs to the prediction), so this is the
    sigma(B[0]) term of Eq. 11.
    """
    errors = np.asarray(errors, dtype=np.float64)
    inside = errors[np.abs(errors) <= error_bound]
    if inside.size == 0:
        return 0.0
    return float(np.mean(inside**2))


def _apply_bin_transfer(
    symbols: np.ndarray, counts: np.ndarray, c2: float, p0: float
) -> np.ndarray:
    """Eq. 9: move ``c2 * (1 - p0)`` of each bin's mass to its neighbours.

    The transfer simulates the +-1-bin uncertainty between original-value
    and reconstructed-value prediction.  Mass is split evenly between the
    two adjacent codes; the histogram is first densified over the full
    symbol span so neighbours exist.
    """
    if c2 <= 0 or counts.size < 2:
        return counts.astype(np.float64)
    lo, hi = int(symbols[0]), int(symbols[-1])
    dense = np.zeros(hi - lo + 3, dtype=np.float64)  # pad one bin each side
    dense[symbols - lo + 1] = counts
    share = c2 * (1.0 - p0)
    moved = dense * share
    dense = dense - moved
    dense[:-1] += 0.5 * moved[1:]
    dense[1:] += 0.5 * moved[:-1]
    return dense


def bound_chunks(bounds, points_per_bound: int):
    """Cut a sequence of bounds into runs whose batched replay, at
    *points_per_bound* values each, fits :data:`CURVE_BATCH_POINTS`."""
    step = max(1, CURVE_BATCH_POINTS // max(1, points_per_bound))
    for pos in range(0, len(bounds), step):
        yield bounds[pos : pos + step]


def replay_lattice_codes(
    stencils: np.ndarray, signs: np.ndarray, error_bounds
) -> np.ndarray:
    """Exact dual-quantization codes of sampled stencils, per bound.

    *stencils* is ``(..., 2^d)`` (see ``LorenzoPredictor.sample_stencils``)
    and the result ``(len(error_bounds), ...)``: the codes the compressor
    emits at those points under each bound.  Lattice indices are whole
    numbers, so the signed sum is exact in any order.
    """
    widths = 2.0 * np.asarray(error_bounds, dtype=np.float64)
    lattice = stencils / widths.reshape((-1,) + (1,) * stencils.ndim)
    np.rint(lattice, out=lattice)
    # Clamp far beyond any quantizer radius: keeps the cast to int64
    # exact at absurdly small bounds, where these points are outliers
    # regardless.
    np.clip(lattice, -1e15, 1e15, out=lattice)
    return (lattice @ signs).astype(np.int64)


def histograms_from_codes(
    codes: np.ndarray,
    error_bounds,
    radius: int = 32768,
    central_vars=None,
) -> list[QuantizedHistogram]:
    """One histogram per row of *codes*, all rows counted from one sort.

    Row ``g`` holds the quantization codes at ``error_bounds[g]``.
    Overflow handling matches :func:`build_code_histogram`.
    ``central_vars`` gives each histogram's ``central_var``; without it
    the field is NaN — the bit-rate side never reads it.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n_bounds, n = codes.shape
    if n == 0:
        raise ValueError("cannot build a histogram from no codes")
    if any(eb <= 0 for eb in error_bounds):
        raise ValueError("error_bound must be positive")
    overflow = np.abs(codes) > radius
    outliers = overflow.sum(axis=1).tolist()
    ordered = np.where(overflow, 0, codes)
    ordered.sort(axis=1)
    zeros = (ordered == 0).sum(axis=1).tolist()
    # a symbol run starts where the sorted value changes or a row begins
    flat = ordered.ravel()
    first = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first[::n] = True
    starts = np.flatnonzero(first)
    symbols = flat[starts]
    probs = np.diff(starts, append=flat.size) / n
    edges = np.searchsorted(starts, np.arange(n_bounds + 1) * n).tolist()
    return [
        QuantizedHistogram(
            error_bound=float(error_bounds[g]),
            symbols=symbols[edges[g] : edges[g + 1]],
            probs=probs[edges[g] : edges[g + 1]],
            p0=zeros[g] / n,
            central_var=(
                float("nan") if central_vars is None else central_vars[g]
            ),
            outlier_fraction=outliers[g] / n,
            n_samples=n,
        )
        for g in range(n_bounds)
    ]


def histogram_from_codes(
    codes: np.ndarray,
    error_bound: float,
    radius: int = 32768,
    central_var: float = 0.0,
) -> QuantizedHistogram:
    """Package precomputed quantization codes as a histogram.

    Used by the dual-quant Lorenzo path, which replays the *exact*
    lattice codes from sampled stencils instead of approximating them
    by ``rint(err / 2eb)``.
    """
    codes = np.asarray(codes, dtype=np.int64).reshape(1, -1)
    return histograms_from_codes(
        codes, [error_bound], radius, [central_var]
    )[0]


def build_code_histogram(
    errors: np.ndarray,
    error_bound: float,
    radius: int = 32768,
    predictor: str | None = None,
    correction: bool = True,
) -> QuantizedHistogram:
    """Histogram of quantization codes for *errors* at *error_bound*.

    Codes overflowing ``[-radius, radius]`` are mapped to the zero bin —
    exactly what the compressor emits for unpredictable points — and
    their fraction is reported so the bit-rate model can charge the
    verbatim-storage cost.  When *correction* is on and the predictor
    warrants it, the Eq. 9 bin-transfer layer is applied above the p0
    threshold.
    """
    errors = np.asarray(errors, dtype=np.float64).ravel()
    if errors.size == 0:
        raise ValueError("cannot build a histogram from no samples")
    if error_bound <= 0:
        raise ValueError("error_bound must be positive")
    codes = np.rint(errors / (2.0 * error_bound))
    overflow = np.abs(codes) > radius
    outlier_fraction = float(np.count_nonzero(overflow) / codes.size)
    codes = np.where(overflow, 0.0, codes).astype(np.int64)
    symbols, counts = np.unique(codes, return_counts=True)
    p0_raw = float(
        counts[np.searchsorted(symbols, 0)] / codes.size
        if 0 in symbols
        else 0.0
    )

    c2 = BIN_TRANSFER_C2.get(predictor or "", 0.0)
    # A single-bin histogram has p0 = 1 and a zero transfer amount, so
    # the correction is skipped (it would also break the dense-index
    # bookkeeping below).
    if (
        correction
        and c2 > 0
        and p0_raw >= BIN_TRANSFER_THRESHOLD
        and symbols.size >= 2
    ):
        dense = _apply_bin_transfer(symbols, counts, c2, p0_raw)
        lo = int(symbols[0]) - 1
        keep = dense > 0
        new_symbols = (np.arange(dense.size) + lo)[keep]
        weights = dense[keep]
    else:
        new_symbols = symbols
        weights = counts.astype(np.float64)

    probs = weights / weights.sum()
    zero_at = np.searchsorted(new_symbols, 0)
    p0 = (
        float(probs[zero_at])
        if zero_at < new_symbols.size and new_symbols[zero_at] == 0
        else 0.0
    )
    return QuantizedHistogram(
        error_bound=float(error_bound),
        symbols=new_symbols,
        probs=probs,
        p0=p0,
        central_var=central_bin_variance(errors, error_bound),
        outlier_fraction=outlier_fraction,
        n_samples=int(errors.size),
    )
