"""The per-tile stage codec (SZ3-like prediction-based pipeline).

:class:`SZCompressor` composes the staged pipeline in
:mod:`repro.compressor.stages`::

    transform → predict/quantize → entropy-encode

The predict/quantize stage quantizes through
:mod:`repro.compressor.quantizer` (Lorenzo on its own lattice).
:meth:`SZCompressor.encode_stack` turns a stack of tiles into their
five stage sections each plus the parameters that decode them, and
:meth:`SZCompressor.decode_stack` inverts every stage of a stack of
tiles — by construction within the configured error bound — each
stage a stack at a time but the transform (the entropy stage one
stack, the predictor one per shape and predictor).  None frames
anything: :class:`repro.compressor.tiled.TiledCompressor` is the one
front end, which drives this codec a stack of tiles at a time (a flat
array is one tile) and writes the container of
:mod:`repro.compressor.container`.

Degenerate inputs take no stage bytes: empty arrays round-trip to the
correct shape/dtype, and constant fields under ``REL`` mode (whose
value range — hence absolute bound — collapses to zero) are stored as a
single value and reconstruct exactly.
"""

from __future__ import annotations

import ctypes
import math
import sys
from typing import Sequence

import numpy as np

from repro import obs
from repro.compressor import container
from repro.compressor.config import CompressionConfig, ErrorBoundMode
from repro.compressor.predictors.base import PredictorOutput
from repro.compressor.stages import (
    EncodedCodes,
    HuffmanEntropyStage,
    PredictorStage,
)
from repro.compressor.transform import forward_transform, inverse_transform

__all__ = ["SZCompressor"]

# glibc's adaptive heap thresholds, fixed at their ceiling (mmap 32 MiB,
# trim twice that): a tile's freed MB-sized temporaries then serve the
# next encode, where the heap top was handed back after a 1 MB compress
# (~3 200 page faults, a quarter of its time) or kept, as the hash seed
# had laid out the heap
if sys.platform.startswith("linux"):
    ctypes.CDLL(None).mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

#: the predictor output of a tile without stage bytes
_NO_OUTPUT = PredictorOutput(
    codes=np.zeros(0, dtype=np.int64),
    outlier_positions=np.zeros(0, dtype=np.int64),
    outlier_values=np.zeros(0, dtype=np.float64),
)


class SZCompressor:
    """The transform, prediction and entropy stages of one tile.

    Everything runs on the calling thread.
    """

    def __init__(self) -> None:
        self._prediction = PredictorStage()
        self._entropy = HuffmanEntropyStage()

    # -- public API ------------------------------------------------------------

    def encode_stack(
        self,
        tiles: Sequence[np.ndarray],
        config: CompressionConfig,
        reconstruct: bool = False,
    ) -> list[tuple[dict, list[bytes], np.ndarray | None, dict[str, int]]]:
        """Encode every tile, all of one shape, without a container.

        Returns per tile ``(header, sections, reconstruction,
        measures)``: the fields a flat header would hold, the five stage
        sections in :data:`container.SECTION_NAMES` order, with
        ``reconstruct`` what :meth:`decode_stack` will return for them
        (else ``None``), and the counts
        :class:`~repro.compressor.tiled.TiledResult` totals over tiles —
        the per-tile contract of the tiled compressor.

        Each tile is transformed alone; those with stage bytes are
        predicted and quantized as one ``(n, *shape)`` stack, each under
        its own bound (:meth:`PredictorStage.decompose`), and
        entropy-coded as one stack
        (:meth:`HuffmanEntropyStage.encode_stack`).  What raises is some
        bad tile's error — encode one tile at a time for the first one's.
        """
        tiles = [np.asarray(tile) for tile in tiles]
        # (abs_eb, work, transform meta, signs) of each tile; no work:
        # degenerate input, no stage bytes — an empty array, or a REL
        # bound on a constant field, whose zero value range demands
        # exact reconstruction: the value is stored
        transforms, coded = [], []
        with obs.span("transform"):
            for i, tile in enumerate(tiles):
                # 0-d arrays compress as their single element; the
                # header's empty shape list restores the dimensionality
                core = tile.reshape(1) if tile.ndim == 0 else tile
                abs_eb = config.absolute_bound(core) if core.size else 0.0
                if abs_eb <= 0:
                    transforms.append((0.0, None, {}, b""))
                    continue
                pw_rel = config.mode is ErrorBoundMode.PW_REL
                transforms.append((abs_eb, *forward_transform(core, pw_rel)))
                coded.append(i)
        stages = [(_NO_OUTPUT, EncodedCodes(b"", 0))] * len(tiles)
        if coded:
            works = [transforms[i][1] for i in coded]
            with obs.span("predict_quantize"):
                outputs = self._prediction.decompose(
                    works[0][None] if len(works) == 1 else np.stack(works),
                    config,
                    [transforms[i][0] for i in coded],
                    reconstruct,
                )
            encoded = self._entropy.encode_stack(
                [output.codes for output in outputs], config
            )
            for i, stage in zip(coded, zip(outputs, encoded)):
                stages[i] = stage
        out = []
        for i, data in enumerate(tiles):
            abs_eb, _, transform_meta, signs_payload = transforms[i]
            output, encoded = stages[i]
            extra, reconstruction = {}, None
            if output is _NO_OUTPUT and data.size:
                extra["constant"] = float(data.flat[0])
            if reconstruct and output is _NO_OUTPUT:
                reconstruction = np.full(
                    data.shape, extra.get("constant", 0), dtype=data.dtype
                )
            elif reconstruct:
                # the tail of decode_stack(), on the encoder's own values
                reconstruction = (
                    inverse_transform(
                        output.reconstruction,
                        {"transform": transform_meta, "shape": [*data.shape]},
                        signs_payload,
                    )
                    .reshape(data.shape)
                    .astype(data.dtype)
                )
            header = {
                "predictor": config.predictor,
                "mode": config.mode.value,
                "error_bound": config.error_bound,
                "abs_eb": abs_eb,
                "quant_radius": config.quant_radius,
                "lossless": config.lossless,
                "lorenzo_levels": config.lorenzo_levels,
                "regression_block": config.regression_block,
                # no knob left sets it; dropping the key is a format change
                "chunk_size": None,
                "shape": list(data.shape),
                "dtype": data.dtype.str,
                "predictor_meta": dict(output.meta),  # not _NO_OUTPUT's
                "outlier_kind": (
                    "codes"
                    if output.outlier_values.dtype == np.int64
                    else "values"
                ),
                "transform": transform_meta,
                **extra,
            }
            sections = [
                encoded.payload,
                output.outlier_positions.astype(np.int64).tobytes(),
                output.outlier_values.tobytes(),
                output.side_payload,
                signs_payload,
            ]
            measures = {
                "n_codes": int(output.codes.size),
                "n_zero_codes": int(np.count_nonzero(output.codes == 0)),
                "n_outliers": output.n_outliers,
                "huffman_only": encoded.huffman_only,
            }
            out.append((header, sections, reconstruction, measures))
        return out

    def decode_stack(
        self, tiles: Sequence[tuple[dict, Sequence[bytes]]]
    ) -> list[np.ndarray]:
        """The arrays :meth:`encode_stack` turned into these ``(header,
        sections)`` tiles: a *header* is a tile's resolved parameters +
        the grid's ``shape``/``dtype``, which a payload cannot vouch for,
        so a code stream that is not the one ``shape`` needs is refused
        (``chunked`` in it marks a v3 codes section).

        All codes sections are entropy-decoded as one stack
        (:meth:`HuffmanEntropyStage.decode_stack`), none unwrapping to
        more than a Huffman blob of a code per point, the tiles of one
        shape and predictor reconstructed as one
        (:meth:`PredictorStage.reconstruct`), and each tile inverse
        transformed alone; each stage in a :func:`repro.obs.span` of
        its name.  What raises is some bad tile's error — decode one
        tile at a time for the first one's.
        """
        out: list = [None] * len(tiles)
        coded = []  # the tiles with a code stream
        for i, (header, sections) in enumerate(tiles):
            shape = tuple(header["shape"])
            dtype = np.dtype(header["dtype"])
            if math.prod(shape) == 0:
                out[i] = np.zeros(shape, dtype=dtype)
            elif "constant" in header:
                out[i] = np.full(shape, header["constant"], dtype=dtype)
            else:
                config = self._config_from_header(header)
                # five sections, or the unpacking's error says otherwise
                codes_payload, _, _, _, _ = sections
                coded.append((i, header, config, codes_payload, sections))
        stack = self._entropy.decode_stack(
            [
                (codes_payload, config, bool(header.get("chunked")))
                for _, header, config, codes_payload, _ in coded
            ],
            [math.prod(header["shape"]) for _, header, *_ in coded],
        )
        # each code stream is popped into its group, which alone holds
        # it: a group is the tiles one predictor pass reconstructs
        stack.reverse()
        groups: dict = {}
        for i, header, config, _, sections in coded:
            key = (
                tuple(header["shape"]) or (1,), repr(header["predictor_meta"]),
                config.predictor, config.lorenzo_levels, config.regression_block,
            )
            _, indices, outputs = groups.setdefault(key, (config, [], []))
            indices.append(i)
            outputs.append(self._output(header, sections, stack.pop()))
        for (shape, *_), (config, indices, outputs) in groups.items():
            bounds = [tiles[i][0]["abs_eb"] for i in indices]
            with obs.span("reconstruct"):
                work = self._prediction.reconstruct(
                    outputs, shape, bounds, config
                )
            outputs.clear()  # spent: the group's code streams are freed here
            with obs.span("inverse_transform"):
                for i, member in zip(indices, work):
                    header, sections = tiles[i]
                    data = inverse_transform(member, header, sections[4])
                    out[i] = data.reshape(header["shape"]).astype(
                        header["dtype"], copy=False
                    )
        return out

    @staticmethod
    def _output(
        header: dict, sections: Sequence[bytes], codes: np.ndarray
    ) -> PredictorOutput:
        """The predictor output of the tile of *header* from its decoded
        *codes* and sections, once they prove to fit its shape."""
        shape = tuple(header["shape"])
        dtype = np.dtype(header["dtype"])
        _, pos_b, val_b, side, _ = sections
        # every point has a code but the interpolation predictor's anchors
        anchor_shape = header["predictor_meta"].get("anchor_shape", [0])
        if not isinstance(anchor_shape, list):
            raise container.ContainerFormatError("corrupt anchor_shape")
        n_codes = math.prod(shape) - math.prod(anchor_shape)
        if codes.size != n_codes:
            raise container.ContainerFormatError(
                f"corrupt code stream: {codes.size} codes, {dtype} "
                f"{shape} takes {n_codes}"
            )

        out_dtype = np.int64 if header["outlier_kind"] == "codes" else np.float64
        positions = np.frombuffer(pos_b, dtype=np.int64)
        values = np.frombuffer(val_b, dtype=out_dtype)
        # every writer files each outlier once, in code-stream order
        if positions.size != values.size or positions.size and (
            positions[0] < 0
            or positions[-1] >= n_codes
            or np.any(positions[1:] <= positions[:-1])
        ):
            raise container.ContainerFormatError("corrupt outlier positions")
        return PredictorOutput(
            codes, positions, values, side, header["predictor_meta"]
        )

    @staticmethod
    def _config_from_header(header: dict) -> CompressionConfig:
        return CompressionConfig(
            predictor=header["predictor"],
            mode=ErrorBoundMode(header["mode"]),
            error_bound=header["error_bound"],
            quant_radius=header["quant_radius"],
            lossless=header["lossless"],
            lorenzo_levels=header["lorenzo_levels"],
            regression_block=header["regression_block"],
        )
