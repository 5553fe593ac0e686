"""The ratio-quality model facade (§III-A).

:class:`RatioQualityModel` is the paper's contribution assembled: fit
once per (dataset, predictor) with a single 1% sampling pass, then answer
— for *any* error bound, with no compression run —

* the expected bit-rate / compression ratio (predictor histogram ->
  Huffman model -> RLE-modelled lossless stage, §III-B/C),
* the expected error distribution and post-hoc quality (PSNR, SSIM,
  optional FFT-spectrum degradation, §III-D),

plus the inverse queries the use-cases need: the error bound for a
target bit-rate, ratio, or PSNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.encoder_model import (
    DEFAULT_RLE_C1,
    HuffmanAnchorModel,
    combined_bitrate,
)
from repro.compressor.config import ErrorBoundMode
from repro.compressor.transform import log_transform
from repro.core.error_distribution import ErrorDistributionModel
from repro.core.histogram import (
    QuantizedHistogram,
    bound_chunks,
    replay_lattice_codes,
)
from repro.core.quality import (
    error_variance_for_psnr,
    psnr_model,
    ssim_model,
)
from repro.core.sampling import (
    DEFAULT_SAMPLE_RATE,
    SampleResult,
    iter_tile_batches,
    sample_prediction_errors_stack,
)

__all__ = [
    "RatioQualityModel",
    "RQEstimate",
    "OUTLIER_BITS",
    "batch_residual_curves",
]

#: Per-tile point cap for the batched residual-curve pass — a
#: systematic stride subsample, like the per-model
#: :meth:`RatioQualityModel._residual_table` cap but sized for a
#: whole grid of bounds evaluated over every tile at once.
RESIDUAL_CURVE_POINTS = 1 << 16

#: Container cost of one unpredictable point: 64-bit position + 64-bit
#: verbatim value/lattice code.
OUTLIER_BITS = 128.0

#: Fixed container overhead: JSON header, magic, section lengths and the
#: Huffman coder's own framing (measured on the RQSZ format).
CONTAINER_HEADER_BYTES = 470

#: Huffman code-table cost per occupied symbol: Elias-gamma delta
#: (~2 bits for near-contiguous code alphabets) + 6-bit code length.
HUFFMAN_TABLE_BITS_PER_SYMBOL = 8.0


@dataclass(frozen=True)
class RQEstimate:
    """Model output for one error bound."""

    error_bound: float
    huffman_bitrate: float
    lossless_ratio: float
    bitrate: float
    ratio: float
    p0: float
    error_variance: float
    psnr: float
    ssim: float

    def as_row(self) -> tuple:
        """Tuple form for table printing."""
        return (
            self.error_bound,
            self.bitrate,
            self.ratio,
            self.p0,
            self.psnr,
            self.ssim,
        )


class _Rate(NamedTuple):
    """Bit-rate side of an estimate at one bound."""

    histogram: QuantizedHistogram
    huffman_bitrate: float
    lossless_ratio: float
    bitrate: float


class RatioQualityModel:
    """Analytical ratio/quality estimator for one array + predictor.

    Parameters
    ----------
    predictor:
        ``"lorenzo"``, ``"interpolation"`` or ``"regression"``.
    sample_rate:
        Sampling coverage for the one-time profiling pass (paper: 1%).
    radius:
        Quantization code radius (matches the compressor's).
    use_lossless:
        Model the optional lossless stage (RLE approximation) on top of
        Huffman coding.
    rle_c1:
        Fixed bit cost of a run token (Eq. 4's C1).
    seed:
        Sampling RNG seed.
    mode:
        Error-bound mode the queries are expressed in.  ``ABS`` (default)
        takes absolute bounds; ``REL`` takes value-range-relative bounds;
        ``PW_REL`` takes point-wise relative bounds — the model then fits
        on the log-transformed magnitudes exactly like the compressor,
        and quality estimates (PSNR/SSIM/error variance) refer to the
        log-transformed domain.
    """

    def __init__(
        self,
        predictor: str = "lorenzo",
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        radius: int = 32768,
        use_lossless: bool = True,
        rle_c1: float = DEFAULT_RLE_C1,
        seed: int | None = 0,
        mode: ErrorBoundMode = ErrorBoundMode.ABS,
    ) -> None:
        self.predictor = predictor
        self.sample_rate = sample_rate
        self.radius = radius
        self.use_lossless = use_lossless
        self.rle_c1 = rle_c1
        self.seed = seed
        self.mode = mode
        self._rel_scale = 1.0
        self.sample: SampleResult | None = None
        self._huffman: HuffmanAnchorModel | None = None
        self._overhead_bits: float = 0.0
        #: (log bounds, variances — negative until computed, bounds)
        self._residual_grid: tuple[np.ndarray, ...] | None = None
        #: fitted-domain array entries of the residual table are owed from
        self._residual_source: np.ndarray | None = None

    def __getstate__(self) -> dict:
        """A pickle carries the residual table, never the fitted array."""
        self._residual_table()
        return self.__dict__

    # -- fitting ------------------------------------------------------------

    def fit(self, data: np.ndarray) -> "RatioQualityModel":
        """Run the one-time sampling pass over *data*.

        The Lorenzo quality table (:meth:`_residual_table`, 48 entries
        of one O(N) pass each) is computed from *data* an entry at a
        time: a quality field reads the two entries around its bound,
        and a pickle completes the table.  Rate-only queries
        (:meth:`bitrate`, :meth:`bitrate_curve`) never pay for it.
        Until the table is complete or the model is pickled, the model
        refers to *data*, which must not be modified in between.
        """
        self._fit_stack([self], np.asarray(data)[None])
        return self

    @classmethod
    def fit_stack(
        cls, stack: np.ndarray, **parameters
    ) -> list["RatioQualityModel"]:
        """One fitted model per member of ``(k, *shape)`` *stack*.

        Member *i* is ``cls(**parameters).fit(stack[i])`` to the last
        bit, but the whole stack shares one sampling pass
        (:func:`~repro.core.sampling.sample_prediction_errors_stack`).
        The models refer to *stack* like :meth:`fit` refers to its
        array.
        """
        stack = np.asarray(stack)
        models = [cls(**parameters) for _ in range(len(stack))]
        if models:
            cls._fit_stack(models, stack)
        return models

    @staticmethod
    def _fit_stack(
        models: list["RatioQualityModel"], stack: np.ndarray
    ) -> None:
        """Fit equally parameterized *models*, one per member of *stack*."""
        lead = models[0]
        if lead.mode is ErrorBoundMode.REL:
            for model, member in zip(models, stack):
                flat = member.astype(np.float64, copy=False)
                model._rel_scale = float(flat.max() - flat.min())
        elif lead.mode is ErrorBoundMode.PW_REL:
            # preserve the original storage width for ratio accounting
            stack = np.stack(
                [
                    log_transform(member)[0].astype(stack.dtype, copy=False)
                    for member in stack
                ]
            )
        samples = sample_prediction_errors_stack(
            stack,
            predictor=lead.predictor,
            rate=lead.sample_rate,
            seed=lead.seed,
        )
        for model, sample, work in zip(models, samples, stack):
            model._adopt(sample, work)

    def _adopt(self, sample: SampleResult, work: np.ndarray) -> None:
        """Take *sample*, drawn from the fitted-domain array *work*."""
        self.sample = sample
        # The Eq. 9 bin-transfer correction models prediction from
        # *reconstructed* values.  Our production Lorenzo is the
        # dual-quantization formulation whose codes can be *replayed
        # exactly* from sampled stencils, so it bypasses both the
        # rint(err/2eb) approximation and the correction layer; the
        # correction applies to the interpolation predictor only.
        histogram_predictor = (
            self.predictor if self.predictor != "lorenzo" else None
        )
        stencils = None
        if (
            sample.stencil_values is not None
            and sample.stencil_signs is not None
        ):
            stencils = (sample.stencil_values, sample.stencil_signs)

        self._huffman = HuffmanAnchorModel(
            sample.errors,
            self.radius,
            histogram_predictor,
            stencils=stencils,
        )
        self._overhead_bits = self._side_overhead_bits(sample.shape)
        self._residual_grid = None
        self._residual_source = work if self.predictor == "lorenzo" else None

    def _fit_residual_curve(self, entry: int) -> float:
        """Entry *entry* of the exact value-residual variance curve.

        The dual-quantization reconstruction is ``2 eb * rint(x/2 eb)``
        point-wise, so the error variance at any bound is the second
        moment of the scalar quantization residual of the values — a
        vectorized O(N) reduction per grid point, robust against the
        heavy-tailed value distributions that defeat 1% sampling.
        """
        flat = self._residual_source
        width = 2.0 * self._residual_grid[2][entry]
        residual = flat / width
        np.rint(residual, out=residual)
        residual *= width
        np.subtract(flat, residual, out=residual)
        np.square(residual, out=residual)
        return float(np.mean(residual))

    def _residual_table(
        self, log_eb: float | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(log bounds, variances, bounds)`` of dual-quant Lorenzo.

        48 bounds, geometric over the value range; ``None`` for a
        constant array.  Variances are computed on demand, each by
        :meth:`_fit_residual_curve`: at *log_eb* the two ``np.interp``
        reads there (the end one when it clamps), without it every one
        still owed.  Once all are, the fitted array is let go.  A
        systematic stride subsample caps the cost on huge arrays.
        """
        flat = self._residual_source
        if flat is None:
            return self._residual_grid
        if self._residual_grid is None:
            flat = np.asarray(flat, dtype=np.float64).ravel()
            max_points = 1 << 21
            if flat.size > max_points:
                flat = flat[:: flat.size // max_points + 1]
            vrange = float(flat.max() - flat.min())
            if vrange <= 0:
                self._residual_source = None
                return None
            grid = np.geomspace(vrange * 1e-9, vrange * 4.0, 48)
            self._residual_grid = (np.log(grid), np.full(48, -1.0), grid)
            self._residual_source = flat
        log_grid, variances, _ = self._residual_grid
        entries = range(variances.size)
        if log_eb is not None:
            j = int(np.searchsorted(log_grid, log_eb, "right")) - 1
            j = min(max(j, 0), variances.size - 2)
            entries = (j, j + 1)
        for entry in entries:
            if variances[entry] < 0:  # not computed yet
                variances[entry] = self._fit_residual_curve(entry)
        if not (variances < 0).any():
            self._residual_source = None
        return self._residual_grid

    def _require_fit(self) -> SampleResult:
        if self.sample is None or self._huffman is None:
            raise RuntimeError("call fit(data) before querying the model")
        return self.sample

    @property
    def side_overhead_bits(self) -> float:
        """Predictor side-payload bits per point of the fitted array.

        Bound-independent (anchors/coefficients ship verbatim); used by
        the adaptive planner's cross-predictor comparison.
        """
        self._require_fit()
        return self._overhead_bits

    # -- error-bound mode conversions ------------------------------------------

    def _to_abs(self, error_bound: float) -> float:
        """Query-mode bound -> absolute bound in the fitted domain."""
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        if self.mode is ErrorBoundMode.REL:
            return error_bound * self._rel_scale
        if self.mode is ErrorBoundMode.PW_REL:
            return float(np.log1p(error_bound))
        return error_bound

    def _from_abs(self, abs_eb: float) -> float:
        """Absolute bound in the fitted domain -> query-mode bound."""
        if self.mode is ErrorBoundMode.REL:
            return abs_eb / self._rel_scale if self._rel_scale else abs_eb
        if self.mode is ErrorBoundMode.PW_REL:
            return float(np.expm1(abs_eb))
        return abs_eb

    def _side_overhead_bits(self, shape: tuple[int, ...]) -> float:
        """Predictor side-payload bits per point (anchors/coefficients).

        Analytic, from the array shape: interpolation stores float64
        anchors on the coarsest lattice; regression stores ``ndim + 1``
        float32 coefficients per block.  Lorenzo has no side payload.
        """
        n = int(np.prod(shape))
        if self.predictor == "interpolation":
            from repro.compressor.predictors.interpolation import (
                InterpolationPredictor,
            )

            levels = InterpolationPredictor()._levels(shape)
            stride = 1 << levels
            anchors = int(
                np.prod([(dim + stride - 1) // stride for dim in shape])
            )
            return 64.0 * anchors / n
        if self.predictor == "regression":
            block = 6
            blocks = int(
                np.prod([(dim + block - 1) // block for dim in shape])
            )
            return 32.0 * (len(shape) + 1) * blocks / n
        return 0.0

    def _mean_zero_runs(self, abs_bounds: list[float]) -> list[float | None]:
        """Measured mean zero-run length per bound, from the replayed rows.

        Zeros over run starts, counted for a whole chunk of bounds in
        one boolean pass.  ``None`` where no row replay is available
        (non-Lorenzo predictors fall back to Eq. 7's independence
        assumption) or no zero occurs.
        """
        sample = self._require_fit()
        rows, signs = sample.row_stencils, sample.stencil_signs
        if rows is None or signs is None:
            return [None] * len(abs_bounds)
        out: list[float | None] = []
        for chunk in bound_chunks(abs_bounds, rows.size):
            zero = replay_lattice_codes(rows, signs, chunk) == 0
            zeros = zero.sum(axis=(1, 2))
            starts = zero[:, :, 0].sum(axis=1)
            starts += (zero[:, :, 1:] & ~zero[:, :, :-1]).sum(axis=(1, 2))
            out.extend(
                z / n if n else None
                for z, n in zip(zeros.tolist(), starts.tolist())
            )
        return out

    # -- forward estimates ------------------------------------------------------

    def histogram(self, error_bound: float) -> QuantizedHistogram:
        """Estimated quantization-code histogram at *error_bound*.

        *error_bound* is expressed in the model's ``mode`` (like every
        public query); it is converted to the fitted domain internally.
        """
        self._require_fit()
        assert self._huffman is not None
        return self._huffman.histogram(self._to_abs(error_bound))

    def error_distribution(self, error_bound: float) -> ErrorDistributionModel:
        """Estimated compression-error distribution at *error_bound*.

        The distribution lives in the fitted domain (log domain for
        PW_REL mode).
        """
        return self._distribution(self.histogram(error_bound))

    @staticmethod
    def _distribution(hist: QuantizedHistogram) -> ErrorDistributionModel:
        return ErrorDistributionModel(
            error_bound=hist.error_bound,
            p0=hist.p0,
            central_var=hist.central_var,
        )

    def error_variance(
        self, error_bound: float, refined: bool = True
    ) -> float:
        """Predicted compression-error variance at *error_bound*.

        The refined estimate is predictor-aware:

        * dual-quantization Lorenzo reconstructs exactly
          ``2 eb * rint(x / 2 eb)``, so its error is the scalar
          quantization residual of the *values* — computed exactly from
          the value sample in every regime, including lattice collapse
          at huge bounds;
        * interpolation/regression follow the paper's mixture model
          (Eq. 11), whose central-bin term correctly captures their
          collapse (anchors/coefficients ship verbatim).

        ``refined=False`` gives the uniform-only Eq. 10 baseline.
        """
        return self._error_variance(self._to_abs(error_bound), refined)

    def _error_variance(
        self,
        abs_eb: float,
        refined: bool,
        hist: QuantizedHistogram | None = None,
    ) -> float:
        """:meth:`error_variance` in the fitted domain.

        *hist* is the histogram at *abs_eb* when the caller already
        holds it; it is only built here if the mixture model needs it.
        """
        sample = self._require_fit()
        if refined and self.predictor == "lorenzo":
            log_eb = np.log(abs_eb)
            table = self._residual_table(log_eb)
            if table is not None:
                log_grid, variances, _ = table
                return float(np.interp(log_eb, log_grid, variances))
            if sample.values is not None:
                # fallback: sampled non-zero values, sparsity-weighted
                width = 2.0 * abs_eb
                residual = sample.values - width * np.rint(
                    sample.values / width
                )
                return float(
                    (1.0 - sample.sparsity) * np.mean(residual**2)
                )
        if hist is None:
            assert self._huffman is not None
            hist = self._huffman.histogram(abs_eb)
        return self._distribution(hist).variance(refined=refined)

    def _rates(
        self, abs_bounds: list[float], central_var: bool = False
    ) -> list[_Rate]:
        """The bit-rate side of the estimate at each fitted-domain bound.

        Histograms and zero-run statistics are evaluated for the whole
        grid at once; what remains per bound is scalar arithmetic, in
        one place for the scalar and the batched queries alike.
        """
        sample = self._require_fit()
        assert self._huffman is not None
        hists = self._huffman.histograms(abs_bounds, central_var)
        runs = (
            self._mean_zero_runs(abs_bounds)
            if self.use_lossless
            else [None] * len(abs_bounds)
        )
        rates = []
        for abs_eb, hist, mean_run in zip(abs_bounds, hists, runs):
            bitrate, b_huff, rle = combined_bitrate(
                hist,
                self.rle_c1,
                continuous_bitrate=self._huffman.continuous_bitrate(abs_eb),
                mean_run=mean_run,
            )
            if not self.use_lossless:
                bitrate, rle = b_huff, 1.0
            container_bits = (
                8.0 * CONTAINER_HEADER_BYTES
                + HUFFMAN_TABLE_BITS_PER_SYMBOL * hist.n_bins
            ) / sample.n_total
            if self.mode is ErrorBoundMode.PW_REL:
                # the log transform ships one sign bit and one zero-mask
                # bit per point as side payload
                container_bits += 2.0
            rates.append(
                _Rate(
                    hist,
                    b_huff,
                    rle,
                    bitrate
                    + self._overhead_bits
                    + hist.outlier_fraction * OUTLIER_BITS
                    + container_bits,
                )
            )
        return rates

    def bitrate(self, error_bound: float) -> float:
        """``estimate(error_bound).bitrate`` without the quality side."""
        return self._rates([self._to_abs(error_bound)])[0].bitrate

    def bitrate_curve(self, error_bounds) -> np.ndarray:
        """``[estimate(eb).bitrate for eb in error_bounds]``, batched.

        Equal bit for bit to the scalar loop; a Lorenzo model replays
        its stencil sample against all bounds of a chunk at once (other
        predictors evaluate bound by bound).
        """
        return np.array(
            [
                rate.bitrate
                for rate in self._rates(
                    [self._to_abs(float(eb)) for eb in error_bounds]
                )
            ],
            dtype=np.float64,
        )

    def _quality(
        self, error_bound: float, rate: _Rate, refined_distribution: bool
    ) -> RQEstimate:
        """*rate* (evaluated at *error_bound*) plus the quality side."""
        sample = self._require_fit()
        variance = self._error_variance(
            rate.histogram.error_bound, refined_distribution, rate.histogram
        )
        vrange = sample.value_range
        return RQEstimate(
            error_bound=float(error_bound),
            huffman_bitrate=rate.huffman_bitrate,
            lossless_ratio=rate.lossless_ratio,
            bitrate=rate.bitrate,
            ratio=sample.dtype_bits / rate.bitrate,
            p0=rate.histogram.p0,
            error_variance=variance,
            psnr=psnr_model(vrange, variance) if vrange > 0 else float("inf"),
            ssim=ssim_model(sample.data_variance, variance, vrange)
            if vrange > 0
            else 1.0,
        )

    def _estimate_with_histogram(
        self, error_bound: float, refined_distribution: bool = True
    ) -> tuple[RQEstimate, QuantizedHistogram]:
        """One scalar evaluation: the estimate and the histogram behind it."""
        rate = self._rates([self._to_abs(error_bound)], central_var=True)[0]
        return (
            self._quality(error_bound, rate, refined_distribution),
            rate.histogram,
        )

    def estimate(
        self, error_bound: float, refined_distribution: bool = True
    ) -> RQEstimate:
        """Full ratio + quality estimate at *error_bound*."""
        return self._estimate_with_histogram(
            error_bound, refined_distribution
        )[0]

    def estimate_curve(
        self, error_bounds, refined_distribution: bool = True
    ) -> list[RQEstimate]:
        """Estimates over an error-bound sweep (the rate-distortion curve)."""
        bounds = [float(eb) for eb in error_bounds]
        rates = self._rates(
            [self._to_abs(eb) for eb in bounds], central_var=True
        )
        return [
            self._quality(eb, rate, refined_distribution)
            for eb, rate in zip(bounds, rates)
        ]

    # -- inverse queries ------------------------------------------------------

    def error_bound_for_bitrate(self, target_bitrate: float) -> float:
        """Error bound whose *total* bit-rate estimate hits the target.

        The Huffman-regime inversion (Eq. 2 / anchors) provides the seed;
        a short monotone bisection on the full estimate (including the
        lossless stage and side overhead) refines it.
        """
        sample = self._require_fit()
        assert self._huffman is not None
        if target_bitrate <= self._overhead_bits:
            raise ValueError(
                "target bit-rate is below the predictor side overhead"
            )
        seed_abs = self._huffman.error_bound_for_bitrate(
            max(target_bitrate - self._overhead_bits, 1e-6)
        )
        # a seed past the value range (every code zero; the anchor
        # extrapolation clamps at e^700) overflows the bisection's lo * hi
        seed_abs = min(seed_abs, sample.value_range)
        return self._bisect_bitrate(
            target_bitrate, self._from_abs(seed_abs)
        )

    def _bisect_bitrate(self, target: float, seed_eb: float) -> float:
        lo, hi = seed_eb, seed_eb
        for _ in range(60):
            if self.bitrate(lo) < target:
                lo /= 2.0
            else:
                break
        for _ in range(60):
            if self.bitrate(hi) > target:
                hi *= 2.0
            else:
                break
        if self.bitrate(hi) > target:
            return hi  # saturated: cannot reach so low a rate
        for _ in range(50):
            mid = np.sqrt(lo * hi)
            if self.bitrate(mid) > target:
                lo = mid
            else:
                hi = mid
        return float(np.sqrt(lo * hi))

    def error_bound_for_ratio(self, target_ratio: float) -> float:
        """Error bound for a target compression ratio."""
        sample = self._require_fit()
        if target_ratio <= 0:
            raise ValueError("target_ratio must be positive")
        return self.error_bound_for_bitrate(
            sample.dtype_bits / target_ratio
        )

    def error_bound_for_psnr(
        self, target_psnr: float, refined_distribution: bool = True
    ) -> float:
        """Error bound whose predicted PSNR equals *target_psnr*.

        Uses the uniform-distribution closed form as a seed and bisects
        the refined model (predicted PSNR decreases with eb).
        """
        sample = self._require_fit()
        target_var = error_variance_for_psnr(
            sample.value_range, target_psnr
        )
        seed_eb = self._from_abs(float(np.sqrt(3.0 * target_var)))
        if not refined_distribution:
            return seed_eb
        # Past the value range the lattice has fully collapsed and the
        # predicted PSNR is flat, so the search never needs to go higher.
        eb_cap = max(self._from_abs(sample.value_range), seed_eb)
        vrange = sample.value_range

        def psnr(eb: float) -> float:
            # the quality side of :meth:`estimate` alone: a PSNR search
            # reads no bit-rate, so it builds no histogram it can avoid
            return psnr_model(vrange, self.error_variance(eb))

        lo, hi = seed_eb, seed_eb
        for _ in range(60):
            if psnr(lo) < target_psnr:
                lo /= 2.0
            else:
                break
        for _ in range(60):
            if psnr(hi) > target_psnr and hi < eb_cap:
                hi = min(hi * 2.0, eb_cap)
            else:
                break
        for _ in range(50):
            mid = np.sqrt(lo * hi)
            if psnr(mid) > target_psnr:
                lo = mid
            else:
                hi = mid
        return float(np.sqrt(lo * hi))


# -- batched exact quality curves (adaptive planner fast path) -----------------


def batch_residual_curves(
    data: np.ndarray,
    extents,
    grid: np.ndarray,
    max_points: int = RESIDUAL_CURVE_POINTS,
) -> np.ndarray:
    """Exact dual-quantization residual variances, batched over tiles.

    Returns an ``(n_tiles, n_grid)`` table: entry ``(i, j)`` is the
    value-residual variance tile ``i`` achieves under the dual-quant
    Lorenzo reconstruction ``2 eb * rint(x / 2 eb)`` at ``grid[j]`` —
    the same exact quantity :meth:`RatioQualityModel._residual_table`
    tabulates per model, but computed for *all* tiles of a tiled run in
    one vectorized sweep (the bound-allocation MSE table of the
    adaptive planner).  A systematic stride subsample caps the per-tile
    cost at *max_points*.
    """
    grid = np.asarray(grid, dtype=np.float64)
    out = np.zeros((len(extents), grid.size))
    for indices, stack in iter_tile_batches(data, extents):
        flat = stack.reshape(stack.shape[0], -1)
        if flat.shape[1] > max_points:
            flat = flat[:, :: flat.shape[1] // max_points + 1]
        for j, eb in enumerate(grid):
            width = 2.0 * float(eb)
            residual = flat - width * np.rint(flat / width)
            out[indices, j] = np.mean(residual**2, axis=1)
    return out
