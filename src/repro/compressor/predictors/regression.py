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

import numpy as np

from repro.compressor.predictors.base import Predictor, PredictorOutput

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

        preds = np.broadcast_to(
            coeffs32[:, 0].astype(np.float64).reshape(
                (nblocks,) + (1,) * ndim
            ),
            blocks.shape,
        ).copy()
        for axis, b in enumerate(bshape):
            coord = np.arange(b, dtype=np.float64)
            view_shape = [1] * (ndim + 1)
            view_shape[axis + 1] = b
            slope_shape = (nblocks,) + (1,) * ndim
            preds += coeffs32[:, axis + 1].astype(np.float64).reshape(
                slope_shape
            ) * coord.reshape(view_shape)
        return coeffs32, preds

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

    def decompose(
        self,
        data: np.ndarray,
        error_bound: float,
        radius: int,
        reconstruct: bool = False,
    ) -> PredictorOutput:
        data = self._validate(data)
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        bin_width = 2.0 * error_bound
        recon = np.empty_like(data) if reconstruct else None

        code_blocks: list[np.ndarray] = []
        outlier_positions: list[np.ndarray] = []
        outlier_values: list[np.ndarray] = []
        coeff_chunks: list[np.ndarray] = []
        offset = 0
        for slices, block_shape in self._iter_groups(data.shape):
            region = data[slices]
            blocks = self._to_blocks(region, block_shape)
            coeffs, preds = self._fit_block_group(blocks)
            coeff_chunks.append(coeffs.ravel())
            err = blocks - preds
            # + 0.0 clears -0.0: the decoder multiplies integer codes,
            # and ``value`` must be exactly what it computes
            codes_f = np.rint(err / bin_width) + 0.0
            value = preds + codes_f * bin_width
            bad = (np.abs(codes_f) > radius) | (
                np.abs(blocks - value) > error_bound
            )
            if recon is not None:
                recon[slices] = self._from_blocks(
                    np.where(bad, blocks, value), region.shape, block_shape
                )
            codes_f = np.where(bad, 0.0, codes_f)
            flat_codes = codes_f.astype(np.int64).ravel()
            code_blocks.append(flat_codes)
            bad_flat = np.flatnonzero(bad.ravel())
            if bad_flat.size:
                outlier_positions.append(bad_flat + offset)
                outlier_values.append(blocks.ravel()[bad_flat])
            offset += flat_codes.size

        codes = np.concatenate(code_blocks)
        positions = (
            np.concatenate(outlier_positions)
            if outlier_positions
            else np.zeros(0, dtype=np.int64)
        )
        values = (
            np.concatenate(outlier_values)
            if outlier_values
            else np.zeros(0, dtype=np.float64)
        )
        coeff_payload = np.concatenate(coeff_chunks).astype(np.float32)
        return PredictorOutput(
            codes=codes,
            outlier_positions=positions,
            outlier_values=values,
            side_payload=coeff_payload.tobytes(),
            meta={"block": self.block},
            reconstruction=recon,
        )

    # -- decompression -------------------------------------------------------------

    def reconstruct(
        self,
        output: PredictorOutput,
        shape: tuple[int, ...],
        error_bound: float,
    ) -> np.ndarray:
        bin_width = 2.0 * error_bound
        block = output.meta.get("block", self.block)
        if block != self.block:
            raise ValueError("block size mismatch between encode and decode")
        coeffs_flat = np.frombuffer(output.side_payload, dtype=np.float32)
        recon = np.zeros(shape, dtype=np.float64)

        out_pos = np.asarray(output.outlier_positions, dtype=np.int64)
        out_val = np.asarray(output.outlier_values, dtype=np.float64)
        order = np.argsort(out_pos)
        out_pos, out_val = out_pos[order], out_val[order]

        ndim = len(shape)
        offset = 0
        coeff_offset = 0
        for slices, block_shape in self._iter_groups(shape):
            region_shape = tuple(s.stop - s.start for s in slices)
            nblocks = int(
                np.prod(
                    [region_shape[a] // block_shape[a] for a in range(ndim)]
                )
            )
            ncoef = nblocks * (ndim + 1)
            coeffs = coeffs_flat[
                coeff_offset : coeff_offset + ncoef
            ].reshape(nblocks, ndim + 1)
            coeff_offset += ncoef

            preds = np.broadcast_to(
                coeffs[:, 0].astype(np.float64).reshape(
                    (nblocks,) + (1,) * ndim
                ),
                (nblocks,) + block_shape,
            ).copy()
            for axis, b in enumerate(block_shape):
                coord = np.arange(b, dtype=np.float64)
                view_shape = [1] * (ndim + 1)
                view_shape[axis + 1] = b
                preds += coeffs[:, axis + 1].astype(np.float64).reshape(
                    (nblocks,) + (1,) * ndim
                ) * coord.reshape(view_shape)

            block_size = preds.size
            codes = output.codes[offset : offset + block_size].reshape(
                preds.shape
            )
            value = preds + codes.astype(np.float64) * bin_width
            lo = np.searchsorted(out_pos, offset)
            hi = np.searchsorted(out_pos, offset + block_size)
            if hi > lo:
                local = np.unravel_index(out_pos[lo:hi] - offset, preds.shape)
                value[local] = out_val[lo:hi]
            recon[slices] = self._from_blocks(
                value, region_shape, block_shape
            )
            offset += block_size
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
