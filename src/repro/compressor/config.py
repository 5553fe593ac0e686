"""Compression configuration: error-bound modes and compressor settings.

Prediction-based error-bounded lossy compressors (the SZ family) expose an
*error-bound mode* plus a numeric bound.  The three modes the paper uses:

``ABS``
    Point-wise absolute bound: ``|x - x'| <= eb``.
``REL``
    Value-range relative bound: ``|x - x'| <= eb * (max(D) - min(D))``.
``PW_REL``
    Point-wise relative bound: ``|x - x'| <= eb * |x|``, implemented via a
    logarithmic transform before compression (Liang et al., CLUSTER'18),
    which turns the point-wise relative bound into an absolute bound in
    log space.

A config is spelled here only: :data:`CONFIG_TEXT` as CLI flags and
``PUT`` query text, :meth:`CompressionConfig.to_json` as stored records.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from repro.utils.stats import value_range

__all__ = [
    "ErrorBoundMode",
    "CompressionConfig",
    "CONFIG_TEXT",
    "DEFAULT_QUANT_RADIUS",
    "format_config_text",
    "parse_config_text",
    "parse_flag",
]

# Default half-width of the quantization code alphabet: codes lie in
# [-radius, radius]; values whose code falls outside are stored verbatim
# ("unpredictable" data in SZ terminology).  SZ uses 2^15 by default.
DEFAULT_QUANT_RADIUS = 32768


class ErrorBoundMode(enum.Enum):
    """User-facing error-bound modes."""

    ABS = "abs"
    REL = "rel"
    PW_REL = "pw_rel"


@dataclass(frozen=True)
class CompressionConfig:
    """Immutable settings for one compression run: what the container
    records.  How a run executes — backend, width, plan cache, fit
    reuse — belongs to the compressor and planner that run it.

    Parameters
    ----------
    predictor:
        One of ``"lorenzo"``, ``"interpolation"``, ``"regression"``.
    mode:
        Error-bound mode (see :class:`ErrorBoundMode`).
    error_bound:
        The bound value; its meaning depends on ``mode``.
    quant_radius:
        Half-width of the quantization code alphabet.
    lossless:
        Name of the optional lossless stage applied after Huffman:
        ``"zstd_like"``, ``"gzip_like"``, ``"rle"`` or ``None``.
    lorenzo_levels:
        Order of the Lorenzo predictor (1 or 2).
    regression_block:
        Block edge length for the regression predictor (paper: 6).
    tile_shape:
        The tiles :class:`repro.compressor.tiled.TiledCompressor` splits
        the array into (out-of-core streaming, region-of-interest
        decode); ``None`` makes the whole array one tile.  Either way
        the container is v7.
    adaptive:
        When set (tiled compression only), the model-driven planner
        (:class:`repro.compressor.adaptive.AdaptivePlanner`) assigns
        every tile its own predictor, error bound and quantizer radius
        at the aggregate quality the uniform config would achieve, and
        the TOC palette records the choices per tile.  ``predictor``
        and ``error_bound`` then act as the nominal starting point.
        Requires an ``ABS`` or ``REL`` mode (the planner works in the
        value domain).
    temporal:
        When set (tiled compression only), snapshots compress as
        *temporal deltas*: each tile is predicted from the decoded
        matching tile of a reference snapshot, falling back to spatial
        prediction per tile when the rate-quality model says the
        residual costs more bits (see
        :class:`repro.compressor.temporal.TemporalCompressor`).
        Requires an ``ABS`` or ``REL`` mode and is mutually exclusive
        with ``adaptive``.
    """

    predictor: str = "lorenzo"
    mode: ErrorBoundMode = ErrorBoundMode.ABS
    error_bound: float = 1e-3
    quant_radius: int = DEFAULT_QUANT_RADIUS
    lossless: str | None = "zstd_like"
    lorenzo_levels: int = 1
    regression_block: int = 6
    tile_shape: tuple[int, ...] | None = None
    adaptive: bool = False
    temporal: bool = False

    _KNOWN_PREDICTORS = ("lorenzo", "interpolation", "regression")
    _KNOWN_LOSSLESS = ("zstd_like", "gzip_like", "rle", None)

    def __post_init__(self) -> None:
        if self.predictor not in self._KNOWN_PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; "
                f"expected one of {self._KNOWN_PREDICTORS}"
            )
        if self.lossless not in self._KNOWN_LOSSLESS:
            raise ValueError(
                f"unknown lossless stage {self.lossless!r}; "
                f"expected one of {self._KNOWN_LOSSLESS}"
            )
        if not isinstance(self.mode, ErrorBoundMode):
            raise TypeError("mode must be an ErrorBoundMode")
        if not (math.isfinite(self.error_bound) and self.error_bound > 0):
            raise ValueError(
                "error_bound must be positive and finite, got "
                f"{self.error_bound!r}"
            )
        if self.quant_radius < 2:
            raise ValueError("quant_radius must be at least 2")
        if self.lorenzo_levels not in (1, 2):
            raise ValueError("lorenzo_levels must be 1 or 2")
        if self.regression_block < 2:
            raise ValueError("regression_block must be at least 2")
        if self.tile_shape is not None:
            tile_shape = tuple(int(t) for t in self.tile_shape)
            if not tile_shape or any(t < 1 for t in tile_shape):
                raise ValueError(
                    "tile_shape must be a non-empty tuple of positive "
                    f"ints, got {tile_shape!r}"
                )
            # normalize list/iterable inputs so equality and hashing work
            object.__setattr__(self, "tile_shape", tile_shape)
        if self.adaptive and self.mode is ErrorBoundMode.PW_REL:
            raise ValueError(
                "adaptive tiling supports ABS and REL bounds only"
            )
        if self.temporal:
            if self.mode is ErrorBoundMode.PW_REL:
                raise ValueError(
                    "temporal delta mode supports ABS and REL bounds only"
                )
            if self.adaptive:
                raise ValueError(
                    "temporal delta mode and adaptive tiling are "
                    "mutually exclusive"
                )

    def absolute_bound(self, data: np.ndarray) -> float:
        """Resolve the *absolute* bound this config implies on *data*.

        ``ABS`` returns the bound unchanged; ``REL`` scales it by the value
        range; ``PW_REL`` returns the absolute bound in the log-transformed
        domain, ``log1p(eb)``, which guarantees ``|x'/x - 1| <= eb`` for
        positive values after the inverse transform.
        """
        if self.mode is ErrorBoundMode.ABS:
            return float(self.error_bound)
        if self.mode is ErrorBoundMode.REL:
            return float(self.error_bound) * value_range(data)
        # PW_REL: bound in log space.  |log x' - log x| <= log(1+eb)
        # implies x' / x in [1/(1+eb), 1+eb], i.e. the point-wise relative
        # error is within eb on the upper side and eb/(1+eb) on the lower.
        return float(np.log1p(self.error_bound))

    def per_tile(self, **pinned) -> "CompressionConfig":
        """This config as the stage codec encoding one tile sees it.

        The tiling fields are stripped, or every tile would be tiled,
        or re-planned, again.  *pinned* fields (a resolved bound, a
        tile's planned choice) replace the caller's.
        """
        return replace(
            self,
            tile_shape=None,
            adaptive=False,
            **pinned,
        )

    def with_error_bound(self, error_bound: float) -> "CompressionConfig":
        """Return a copy with a different bound (used by optimizers)."""
        return replace(self, error_bound=error_bound)

    def with_predictor(self, predictor: str) -> "CompressionConfig":
        """Return a copy with a different predictor."""
        return replace(self, predictor=predictor)

    def to_json(self) -> dict:
        """Every field, JSON-spelled: the ``config`` record of a store
        manifest and the ``filter`` record of an RQH5 dataset."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        tile = None if self.tile_shape is None else list(self.tile_shape)
        return {**record, "mode": self.mode.value, "tile_shape": tile}


# -- text spelling -------------------------------------------------------------


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off", "")


def parse_flag(text: str) -> bool:
    """A boolean: ``1``/``true``/``yes``/``on`` or ``0``/``false``/
    ``no``/``off``/empty."""
    raw = text.strip().lower()
    if raw not in _TRUE + _FALSE:
        raise ValueError(f"invalid boolean {text!r}")
    return raw in _TRUE


def _lossless_text(stage: str | None) -> str:
    return "none" if stage is None else str(stage)


class _Spelling(NamedTuple):
    field: str
    parse: Callable[[str], object]
    format: Callable[[object], str | None]  # unvalidated; None: left out
    choices: tuple[str, ...] | None = None  # what a command line offers


#: The names the CLI codec flags and the ``PUT`` query share, one text
#: spelling each: ``eb=0.001``, ``predictor=lorenzo``, ``mode=rel``,
#: ``lossless=none`` (``None``), ``tile=64,64`` (absent: one whole-array
#: tile), ``adaptive=1``.
CONFIG_TEXT: dict[str, _Spelling] = {
    "eb": _Spelling("error_bound", float, lambda eb: repr(float(eb))),
    "predictor": _Spelling(
        "predictor", str, str, CompressionConfig._KNOWN_PREDICTORS
    ),
    "mode": _Spelling(
        "mode", ErrorBoundMode, lambda m: str(getattr(m, "value", m)),
        tuple(m.value for m in ErrorBoundMode),
    ),
    "lossless": _Spelling(
        "lossless", lambda text: None if text == "none" else text,
        _lossless_text,
        tuple(map(_lossless_text, CompressionConfig._KNOWN_LOSSLESS)),
    ),
    "tile": _Spelling(
        "tile_shape", lambda text: tuple(map(int, text.split(","))),
        lambda t: None if t is None else ",".join(str(int(n)) for n in t),
    ),
    "adaptive": _Spelling("adaptive", parse_flag, lambda a: str(int(bool(a)))),
}


def parse_config_text(text: Mapping[str, str | None]) -> CompressionConfig:
    """The config *text* spells by :data:`CONFIG_TEXT` name (other keys
    ignored; absent or ``None``: the default).  A ``ValueError`` names
    the value that does not parse or that the config refuses."""
    values = {}
    for name, (field, parse, _, _) in CONFIG_TEXT.items():
        if text.get(name) is None:
            continue
        try:
            values[field] = parse(text[name])
        except ValueError:
            raise ValueError(f"invalid {name} {text[name]!r}") from None
    return CompressionConfig(**values)


def format_config_text(**values) -> dict[str, str]:
    """Library values, by :data:`CONFIG_TEXT` name, as text — unchecked:
    :func:`parse_config_text` at the other end checks them."""
    text = {name: CONFIG_TEXT[name].format(v) for name, v in values.items()}
    return {name: t for name, t in text.items() if t is not None}
