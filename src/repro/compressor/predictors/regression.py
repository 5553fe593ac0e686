"""Block linear-regression predictor (Liang et al., Big Data'18; SZ2).

The array is tiled into small blocks (paper default 6 per axis).  Each
block is fitted with an affine function of the local coordinates,

    f(p) = c0 + sum_a c_a * p_a,

whose coefficients ship as ``float32`` side payload; prediction errors
against the fit are quantized like any other predictor output.  Because
the fit uses the block's *original* values and the decoder re-evaluates
the same stored coefficients, compression is embarrassingly vectorizable
(no reconstructed-neighbour dependency).

The closed-form least squares on a regular grid decouples per axis:
``c_a = cov(p_a, v) / var(p_a)`` with the variance of an integer ramp,
so fitting all blocks is a handful of einsum reductions.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from repro.compressor.predictors.base import Predictor, PredictorOutput
from repro.compressor.quantizer import Dequantizer, Quantizer

__all__ = ["RegressionPredictor"]


class RegressionPredictor(Predictor):
    """SZ2-style blockwise linear regression."""

    name = "regression"

    def __init__(self, block: int = 6) -> None:
        if block < 2:
            raise ValueError("block edge must be at least 2")
        self.block = block

    # -- fitting ---------------------------------------------------------------

    def _fit_block_group(
        self, blocks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fit all blocks in a group of identical shape.

        *blocks* has shape ``(nblocks, b0, b1, ...)``.  Returns
        ``(coeffs, preds)`` where ``coeffs`` is ``(nblocks, ndim + 1)``
        (intercept first) in float32, and ``preds`` the float64
        predictions evaluated from the *float32* coefficients, matching
        what the decoder will compute.
        """
        nblocks = blocks.shape[0]
        bshape = blocks.shape[1:]
        ndim = len(bshape)
        coeffs = np.zeros((nblocks, ndim + 1), dtype=np.float64)
        mean_v = blocks.reshape(nblocks, -1).mean(axis=1)
        intercept = mean_v.copy()
        for axis, b in enumerate(bshape):
            coord = np.arange(b, dtype=np.float64)
            mean_c = coord.mean()
            var_c = float(np.mean((coord - mean_c) ** 2))
            centred = coord - mean_c
            # cov(p_a, v) averaged over the block
            view_shape = [1] * (ndim + 1)
            view_shape[axis + 1] = b
            weights = centred.reshape(view_shape)
            cov = (blocks * weights).reshape(nblocks, -1).mean(axis=1)
            slope = cov / var_c if var_c > 0 else np.zeros(nblocks)
            coeffs[:, axis + 1] = slope
            intercept -= slope * mean_c
        coeffs[:, 0] = intercept
        coeffs32 = coeffs.astype(np.float32)
        return coeffs32, self._evaluate(coeffs32, bshape)

    @staticmethod
    def _evaluate(
        coeffs: np.ndarray, block_shape: tuple[int, ...]
    ) -> np.ndarray:
        """The ``float64`` predictions of ``(nblocks, ndim + 1)`` float32
        *coeffs* over blocks of *block_shape*: what encoder and decoder
        both quantize against."""
        nblocks = coeffs.shape[0]
        ndim = len(block_shape)
        slope_shape = (nblocks,) + (1,) * ndim
        preds = np.broadcast_to(
            coeffs[:, 0].astype(np.float64).reshape(slope_shape),
            (nblocks,) + block_shape,
        ).copy()
        for axis, b in enumerate(block_shape):
            coord = np.arange(b, dtype=np.float64)
            view_shape = [1] * (ndim + 1)
            view_shape[axis + 1] = b
            preds += coeffs[:, axis + 1].astype(np.float64).reshape(
                slope_shape
            ) * coord.reshape(view_shape)
        return preds

    def _iter_groups(self, shape: tuple[int, ...]):
        """Yield ``(region_slices, block_shape)`` groups.

        Full blocks form the bulk group; each combination of remainder
        axes forms a smaller boundary group, so every group's blocks have
        identical shape and can be fitted in one vectorized call.
        """
        b = self.block
        segments_per_axis = []
        for n in shape:
            full = n - n % b
            segs = []
            if full:
                segs.append((0, full, b))
            if n % b:
                segs.append((full, n, n - full))
            segments_per_axis.append(segs)
        for combo in itertools.product(*segments_per_axis):
            slices = tuple(slice(s, e) for s, e, _ in combo)
            block_shape = tuple(bs for _, _, bs in combo)
            yield slices, block_shape

    @staticmethod
    def _to_blocks(region: np.ndarray, block_shape: tuple[int, ...]) -> np.ndarray:
        """Reshape *region* into ``(nblocks, *block_shape)`` tiles."""
        ndim = region.ndim
        counts = tuple(
            region.shape[a] // block_shape[a] for a in range(ndim)
        )
        new_shape: list[int] = []
        for a in range(ndim):
            new_shape.extend((counts[a], block_shape[a]))
        tiled = region.reshape(new_shape)
        # bring the block-count axes to the front
        perm = [2 * a for a in range(ndim)] + [2 * a + 1 for a in range(ndim)]
        tiled = tiled.transpose(perm)
        return tiled.reshape((-1,) + block_shape)

    @staticmethod
    def _from_blocks(
        blocks: np.ndarray,
        region_shape: tuple[int, ...],
        block_shape: tuple[int, ...],
    ) -> np.ndarray:
        """Invert :meth:`_to_blocks`."""
        ndim = len(region_shape)
        counts = tuple(
            region_shape[a] // block_shape[a] for a in range(ndim)
        )
        tiled = blocks.reshape(counts + block_shape)
        perm: list[int] = []
        for a in range(ndim):
            perm.extend((a, ndim + a))
        tiled = tiled.transpose(perm)
        return tiled.reshape(region_shape)

    # -- compression -------------------------------------------------------------

    def decompose_stack(
        self,
        stack: np.ndarray,
        error_bounds: Sequence[float],
        radius: int,
        reconstruct: bool = False,
    ) -> list[PredictorOutput]:
        """Every member's blocks of one group at once: the member axis
        is one more block axis, of blocks of one."""
        stack = self._validate(stack, stacked=True)
        quantizer = Quantizer(error_bounds, radius)
        n = len(stack)
        recon = np.empty_like(stack) if reconstruct else None

        coeff_chunks: list[np.ndarray] = []
        for slices, block_shape in self._iter_groups(stack.shape[1:]):
            region = stack[(slice(None), *slices)]
            blocks = self._to_blocks(region, (1,) + block_shape)[:, 0]
            coeffs, preds = self._fit_block_group(blocks)
            coeff_chunks.append(coeffs.reshape(n, -1))
            value = quantizer.quantize(
                blocks.reshape(n, -1), preds.reshape(n, -1)
            )
            if recon is not None:
                recon[(slice(None), *slices)] = self._from_blocks(
                    value, region.shape, (1,) + block_shape
                )

        coeff_payload = np.concatenate(coeff_chunks, axis=1)
        return [  # each member's streams, side payload, meta, values
            PredictorOutput(
                *streams,
                coeff_payload[i].tobytes(),
                {"block": self.block},
                None if recon is None else recon[i],
            )
            for i, streams in enumerate(quantizer.streams())
        ]

    # -- decompression -------------------------------------------------------------

    def reconstruct_stack(
        self,
        outputs: Sequence[PredictorOutput],
        shape: tuple[int, ...],
        error_bounds: Sequence[float],
    ) -> np.ndarray:
        """Every member's blocks of one group at once, as its encode
        quantized them."""
        if outputs[0].meta.get("block", self.block) != self.block:
            raise ValueError("block size mismatch between encode and decode")
        n, ndim = len(outputs), len(shape)
        recon = np.zeros((n, *shape), dtype=np.float64)
        dequantizer = Dequantizer(
            [(o.codes, o.outlier_positions, o.outlier_values) for o in outputs],
            error_bounds,
        )
        coeffs = np.stack(
            [np.frombuffer(o.side_payload, dtype=np.float32) for o in outputs]
        )
        offset = 0
        for slices, block_shape in self._iter_groups(shape):
            region = recon[(slice(None), *slices)]
            count = region[0].size // math.prod(block_shape) * (ndim + 1)
            group = coeffs[:, offset : offset + count].reshape(-1, ndim + 1)
            offset += count
            preds = self._evaluate(group, block_shape).reshape(n, -1)
            region[...] = self._from_blocks(
                dequantizer.dequantize(preds), region.shape, (1,) + block_shape
            )
        return recon

    # -- model support -------------------------------------------------------------

    def prediction_errors(self, data: np.ndarray) -> np.ndarray:
        """Residuals of the per-block fits over the whole array."""
        data = self._validate(data)
        pieces: list[np.ndarray] = []
        for slices, block_shape in self._iter_groups(data.shape):
            blocks = self._to_blocks(data[slices], block_shape)
            _, preds = self._fit_block_group(blocks)
            pieces.append((blocks - preds).ravel())
        return np.concatenate(pieces)

    def sample_errors(
        self, data: np.ndarray, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Block-unit sampling (§III-C3).

        Regression residuals only make sense per fitted block, so the
        sampler draws whole blocks at the requested coverage from the bulk
        (full-block) region and fits just those.
        """
        data = self._validate(data)
        b = self.block
        full_shape = tuple((n // b) * b for n in data.shape)
        if any(n == 0 for n in full_shape):
            return self.prediction_errors(data)
        region = data[tuple(slice(0, n) for n in full_shape)]
        blocks = self._to_blocks(region, (b,) * data.ndim)
        n_pick = max(1, int(round(blocks.shape[0] * rate)))
        if n_pick >= blocks.shape[0]:
            picked = blocks
        else:
            idx = rng.choice(blocks.shape[0], size=n_pick, replace=False)
            picked = blocks[idx]
        _, preds = self._fit_block_group(picked)
        return (picked - preds).ravel()
