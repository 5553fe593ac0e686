"""Analytical models of the encoder stages (§III-B).

Huffman (Eq. 1-3): the bit-rate of Huffman-coded quantization codes is
estimated from the code histogram as the entropy with the most frequent
symbol's length clamped to the 1-bit minimum::

    B = sum_i P(s_i) * max(-log2 P(s_i), 1)                   (Eq. 1)

The inverse problem (error bound for a target bit-rate) uses the paper's
halving law ``e* = 2^(B - B*) * e`` (Eq. 2), valid while the entropy
approximation holds; below ~2 bits (p0 > 50%) the model switches to a
monotone interpolation through anchor points profiled at
p0 in {0.5, 0.8, 0.95} (§III-B1).

RLE (Eq. 4-8): after Huffman reaches its 1-bit floor, the remaining
redundancy is zero runs.  With zero probability p0 and zero-code bit
share P0, run-length coding achieves::

    R_rle = 1 / (C1 * (1 - p0) * P0 + (1 - P0))               (Eq. 4)

where C1 is the fixed bit cost of one run token.  The inverse (target
ratio -> p0) solves the quadratic obtained by substituting P0 ~= p0.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PchipInterpolator

from repro.core.histogram import (
    QuantizedHistogram,
    bound_chunks,
    build_code_histogram,
    central_bin_variance,
    histograms_from_codes,
    replay_lattice_codes,
)

__all__ = [
    "huffman_bitrate",
    "differential_entropy_bits",
    "error_bound_for_bitrate_eq2",
    "rle_ratio",
    "p0_for_rle_ratio",
    "combined_bitrate",
    "HuffmanAnchorModel",
    "DEFAULT_RLE_C1",
    "EQ2_P0_LIMIT",
]

#: Default fixed bit cost of one run token (match token in the LZ-style
#: lossless backend: ~4 bytes).  Calibratable per backend.
DEFAULT_RLE_C1 = 32.0

#: Eq. 3 validity limit: above this zero-code share the halving law
#: breaks down and the anchor interpolation takes over.
EQ2_P0_LIMIT = 0.5


def huffman_bitrate(histogram: QuantizedHistogram) -> float:
    """Eq. 1: estimated Huffman bits/symbol for a code histogram.

    Code lengths are ``-log2 P`` with every length clamped to the 1-bit
    minimum (only the most frequent symbol can fall below it).  When the
    histogram records its sample count, the Miller-Madow bias correction
    ``(K - 1) / (2 n ln 2)`` compensates the systematic entropy
    underestimate of small samples.
    """
    p = histogram.probs[histogram.probs > 0]
    lengths = np.maximum(-np.log2(p), 1.0)
    rate = float(np.sum(p * lengths))
    if histogram.n_samples > 0 and p.size > 1:
        rate += (p.size - 1) / (2.0 * histogram.n_samples * np.log(2.0))
    return rate


def differential_entropy_bits(samples: np.ndarray) -> float:
    """Vasicek spacing estimate of differential entropy, in bits.

    Used for the fine-bin regime of the bit-rate model: quantizing a
    continuous error distribution with bin width ``w`` gives discrete
    entropy ``h - log2(w)``, which stays accurate when the sample is far
    smaller than the occupied alphabet (where the histogram estimate
    collapses).  Returns ``-inf`` for degenerate (constant) samples.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = x.size
    if n < 4:
        return float("-inf")
    m = max(1, int(np.sqrt(n)))
    upper = np.minimum(np.arange(n) + m, n - 1)
    lower = np.maximum(np.arange(n) - m, 0)
    spacing = x[upper] - x[lower]
    positive = spacing > 0
    if not positive.any():
        return float("-inf")
    # Ties (zero spacings) mark discrete mass; they contribute -inf in
    # the limit, so we floor them at the smallest positive spacing.
    floor = spacing[positive].min()
    spacing = np.maximum(spacing, floor)
    h_nats = float(np.mean(np.log(spacing * n / (2.0 * m))))
    return h_nats / np.log(2.0)


def error_bound_for_bitrate_eq2(
    profiled_eb: float, profiled_bitrate: float, target_bitrate: float
) -> float:
    """Eq. 2: ``e* = 2^(B - B*) * e``.

    Doubling the error bound halves the number of occupied bins and
    removes one bit from the rate; applying the law iteratively gives the
    closed form.  Only valid in the regime where Eq. 3 holds (p0 < 0.5).
    """
    if profiled_eb <= 0:
        raise ValueError("profiled_eb must be positive")
    if target_bitrate <= 0:
        raise ValueError("target_bitrate must be positive")
    return float(
        2.0 ** (profiled_bitrate - target_bitrate) * profiled_eb
    )


def rle_ratio(
    p0: float,
    share0: float,
    c1: float = DEFAULT_RLE_C1,
    mean_run: float | None = None,
) -> float:
    """Eq. 4: compression ratio of zero-run RLE on the Huffman output.

    Parameters
    ----------
    p0:
        Probability of the zero quantization code.
    share0:
        P0 of the paper — the fraction of Huffman output *bits* spent on
        zero codes (``p0 * L0 / B``).
    c1:
        Fixed bit cost of one run token.
    mean_run:
        Measured mean zero-run length n0.  Defaults to Eq. 7's
        independence value ``1 / (1 - p0)``; pass the replayed-row
        measurement for spatially clustered (sparse) data, where
        independence badly underestimates run lengths.

    The ratio is clamped to >= 1: a real backend stores raw when coding
    would expand (our container has a raw escape).
    """
    if not 0 <= p0 <= 1 or not 0 <= share0 <= 1:
        raise ValueError("p0 and share0 must lie in [0, 1]")
    if mean_run is None:
        if p0 >= 1.0:
            return max(c1, 1.0)
        mean_run = 1.0 / (1.0 - p0)  # Eq. 7
    if mean_run <= 0:
        raise ValueError("mean_run must be positive")
    efficiency = c1 / mean_run  # E0 = C1 / (n0 * l0), l0 = 1 bit
    denominator = efficiency * share0 + (1.0 - share0)
    if denominator <= 0:
        return 1.0
    return max(1.0 / denominator, 1.0)


def p0_for_rle_ratio(target_ratio: float, c1: float = DEFAULT_RLE_C1) -> float:
    """Invert Eq. 4 under the paper's ``P0 ~= p0`` simplification (Eq. 8).

    Substituting P0 = p0 into Eq. 4 gives the quadratic
    ``c1*p0^2 - (c1 - 1)*p0 + (1/R - 1) = 0``; the root approaching 1 as
    R grows is the relevant (high-compression) branch.  We solve the
    quadratic exactly rather than using the paper's printed closed form,
    which drops the 1/c1 normalisation.
    """
    if target_ratio < 1:
        raise ValueError("target_ratio must be at least 1")
    inv_r = 1.0 / target_ratio
    a, b, c = c1, -(c1 - 1.0), inv_r - 1.0
    disc = b * b - 4 * a * c
    if disc < 0:
        # Ratio unreachable by RLE alone; saturate at the vertex.
        return min((c1 - 1.0) / (2.0 * c1), 1.0)
    root = (-b + np.sqrt(disc)) / (2 * a)
    return float(min(max(root, 0.0), 1.0))


def combined_bitrate(
    histogram: QuantizedHistogram,
    c1: float = DEFAULT_RLE_C1,
    continuous_bitrate: float | None = None,
    mean_run: float | None = None,
) -> tuple[float, float, float]:
    """Estimated bit-rate after Huffman + RLE-modelled lossless stage.

    Returns ``(total_bitrate, huffman_bitrate, rle_ratio)``.  The zero
    code's bit share P0 uses its clamped Huffman length.

    ``continuous_bitrate`` is the fine-bin estimate
    ``h(err) - log2(2 eb)``; the Huffman rate takes the max of the two
    branches (the histogram branch under-counts when the alphabet
    out-numbers the sample, the continuous branch goes negative when
    bins are coarse — each regime picks its valid estimator).
    ``mean_run`` forwards a measured zero-run length to :func:`rle_ratio`.
    """
    b_huff = huffman_bitrate(histogram)
    if continuous_bitrate is not None and np.isfinite(continuous_bitrate):
        b_huff = max(b_huff, continuous_bitrate)
    p0 = histogram.p0
    if p0 <= 0 or b_huff <= 0:
        return b_huff, b_huff, 1.0
    length0 = max(-np.log2(p0), 1.0)
    share0 = min(p0 * length0 / b_huff, 1.0)
    ratio = rle_ratio(p0, share0, c1, mean_run=mean_run)
    return b_huff / ratio, b_huff, ratio


class HuffmanAnchorModel:
    """Error bound <-> bit-rate inversion across both regimes (§III-B1).

    Built from the model's sampled prediction errors.  In the Eq. 3
    regime (p0 <= 0.5) the halving law maps bit-rates to bounds from one
    profiled point; below 2 bits the model interpolates through anchor
    histograms profiled at p0 in {0.5, 0.8, 0.95}: the anchor bound for a
    target p0 is the |error| quantile at p0 (the central bin is widened
    until it holds that share), and a monotone PCHIP over (log eb, B)
    links the anchors.
    """

    ANCHOR_P0 = (0.5, 0.8, 0.95)

    def __init__(
        self,
        errors: np.ndarray,
        radius: int = 32768,
        predictor: str | None = None,
        stencils: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """``stencils = (values, signs)`` (the dual-quant Lorenzo stencil
        sample) optionally replaces the ``rint(err / 2eb)``
        approximation with exact replayed codes."""
        self.errors = np.asarray(errors, dtype=np.float64).ravel()
        if self.errors.size == 0:
            raise ValueError("need sampled errors")
        self.radius = radius
        self.predictor = predictor
        self.stencils = stencils
        self._anchors: tuple[np.ndarray, np.ndarray] | None = None
        self._h_bits = differential_entropy_bits(self.errors)

    # -- forward ------------------------------------------------------------

    def continuous_bitrate(self, error_bound: float) -> float:
        """Fine-bin branch: ``h(err) - log2(2 eb)`` (may be -inf)."""
        if not np.isfinite(self._h_bits):
            return float("-inf")
        return self._h_bits - np.log2(2.0 * error_bound)

    def bitrate(self, error_bound: float) -> float:
        """Huffman bits/symbol estimate at *error_bound* (Eq. 1, with
        the continuous fine-bin branch as a lower bound)."""
        rate = huffman_bitrate(self.histogram(error_bound))
        cont = self.continuous_bitrate(error_bound)
        if np.isfinite(cont):
            rate = max(rate, cont)
        return rate

    def histogram(self, error_bound: float) -> QuantizedHistogram:
        """Corrected code histogram at *error_bound*."""
        return self.histograms([error_bound])[0]

    def histograms(
        self, error_bounds, central_var: bool = True
    ) -> list[QuantizedHistogram]:
        """Code histograms over a grid of bounds.

        With a stencil sample every bound of a chunk is replayed and
        counted in one vectorized pass; ``central_var=False`` leaves that
        quality-side field unevaluated (NaN) for rate-only callers.
        """
        bounds = [float(eb) for eb in error_bounds]
        if self.stencils is None:
            return [
                build_code_histogram(
                    self.errors, eb, self.radius, self.predictor
                )
                for eb in bounds
            ]
        values, signs = self.stencils
        out: list[QuantizedHistogram] = []
        for chunk in bound_chunks(bounds, values.size):
            out.extend(
                histograms_from_codes(
                    replay_lattice_codes(values, signs, chunk),
                    chunk,
                    self.radius,
                    [central_bin_variance(self.errors, eb) for eb in chunk]
                    if central_var
                    else None,
                )
            )
        return out

    # -- anchors ------------------------------------------------------------

    def _anchor_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(log-eb, bit-rate) anchor arrays, extended by the Eq. 2 point."""
        if self._anchors is not None:
            return self._anchors
        abs_err = np.abs(self.errors)
        max_abs = float(abs_err.max())
        ebs: list[float] = []
        rates: list[float] = []
        for p0 in self.ANCHOR_P0:
            eb = float(np.quantile(abs_err, p0))
            if eb <= 0:
                eb = max(max_abs * 1e-9, np.finfo(float).tiny * 1e3)
            ebs.append(eb)
            rates.append(huffman_bitrate(self.histogram(eb)))
        # Extreme anchor: bound past the largest error -> everything in
        # the central bin -> 1 bit/symbol floor.
        if max_abs > 0:
            ebs.append(max_abs * 4.0)
            rates.append(1.0)
        log_ebs = np.log(np.asarray(ebs))
        rates_arr = np.asarray(rates)
        order = np.argsort(log_ebs)
        log_ebs, rates_arr = log_ebs[order], rates_arr[order]
        keep = np.concatenate(([True], np.diff(log_ebs) > 1e-12))
        self._anchors = (log_ebs[keep], rates_arr[keep])
        return self._anchors

    # -- inverse ------------------------------------------------------------

    def error_bound_for_bitrate(self, target_bitrate: float) -> float:
        """Error bound achieving *target_bitrate* after Huffman coding.

        Uses Eq. 2 in its validity region, anchor interpolation below it.
        """
        if target_bitrate <= 0:
            raise ValueError("target_bitrate must be positive")
        abs_err = np.abs(self.errors)
        # Profile at the Eq. 3 regime edge: p0 = EQ2_P0_LIMIT.
        eb_edge = float(np.quantile(abs_err, EQ2_P0_LIMIT))
        if eb_edge <= 0:
            eb_edge = max(float(abs_err.max()) * 1e-9, 1e-300)
        rate_edge = self.bitrate(eb_edge)
        if target_bitrate >= rate_edge:
            # High-rate regime: halving law from the profiled edge point.
            return error_bound_for_bitrate_eq2(
                eb_edge, rate_edge, target_bitrate
            )
        log_ebs, rates = self._anchor_curve()
        if target_bitrate <= rates.min():
            return float(np.exp(log_ebs[np.argmin(rates)]))
        # PCHIP through the (decreasing-rate) anchors; interpolate the
        # inverse mapping rate -> log eb.
        order = np.argsort(rates)
        rates_sorted = rates[order]
        logs_sorted = log_ebs[order]
        keep = np.concatenate(([True], np.diff(rates_sorted) > 1e-12))
        interp = PchipInterpolator(
            rates_sorted[keep], logs_sorted[keep], extrapolate=True
        )
        # Extrapolation below the profiled anchors can produce arbitrarily
        # large log bounds; clamp before exponentiating so the result is a
        # (huge but finite) float instead of an overflow warning + inf.
        log_eb = float(np.clip(interp(target_bitrate), -700.0, 700.0))
        return float(np.exp(log_eb))
