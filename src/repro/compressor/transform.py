"""Pre-compression transforms for error-bound modes.

The point-wise relative bound (PW_REL) is implemented via a logarithmic
transform (Liang et al., CLUSTER'18): compressing ``log |x|`` under the
absolute bound ``log1p(eb)`` guarantees ``|x'/x - 1| <= eb`` after the
inverse transform.  Signs and exact zeros travel as bit-packed side
information.  Both the compressor pipeline and the ratio-quality model
(when fitted in PW_REL mode) share this module.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_transform",
    "inverse_log_transform",
    "forward_transform",
    "inverse_transform",
]


def log_transform(data: np.ndarray) -> tuple[np.ndarray, dict, bytes]:
    """Map *data* to the log-magnitude domain.

    Returns ``(work, meta, signs_payload)``:

    * ``work`` — ``log |x|`` with exact zeros filled by the median log
      magnitude so they do not distort the predictor;
    * ``meta`` — ``{"pw_rel": True, "fill": <fill value>}``;
    * ``signs_payload`` — bit-packed negative mask followed by the
      bit-packed zero mask.
    """
    flat = np.asarray(data, dtype=np.float64)
    negative = flat < 0
    zero = flat == 0
    magnitude = np.abs(flat)
    log_mag = np.zeros_like(magnitude)
    nonzero = ~zero
    log_mag[nonzero] = np.log(magnitude[nonzero])
    fill = float(np.median(log_mag[nonzero])) if nonzero.any() else 0.0
    log_mag[zero] = fill
    payload = (
        np.packbits(negative.ravel()).tobytes()
        + np.packbits(zero.ravel()).tobytes()
    )
    return log_mag, {"pw_rel": True, "fill": fill}, payload


def inverse_log_transform(
    work: np.ndarray, shape: tuple[int, ...], signs_payload: bytes
) -> np.ndarray:
    """Invert :func:`log_transform` for an array of *shape*."""
    n = int(np.prod(shape))
    nbytes = (n + 7) // 8
    negative = np.unpackbits(
        np.frombuffer(signs_payload[:nbytes], dtype=np.uint8)
    )[:n].astype(bool)
    zero = np.unpackbits(
        np.frombuffer(signs_payload[nbytes : 2 * nbytes], dtype=np.uint8)
    )[:n].astype(bool)
    values = np.exp(np.asarray(work, dtype=np.float64).ravel())
    values[negative] = -values[negative]
    values[zero] = 0.0
    return values.reshape(shape)


def forward_transform(
    data: np.ndarray, pw_rel: bool
) -> tuple[np.ndarray, dict, bytes]:
    """The codec's value-domain transform, as :func:`log_transform`
    returns it: the log transform under a PW_REL bound, else *data* as
    ``float64`` with no ``transform`` record and no signs section."""
    if not pw_rel:
        return np.asarray(data, dtype=np.float64), {}, b""
    return log_transform(data)


def inverse_transform(
    work: np.ndarray, header: dict, signs_payload: bytes
) -> np.ndarray:
    """Invert :func:`forward_transform` as *header* records it: its
    ``transform`` says whether, its ``shape`` sizes the masks."""
    if not header.get("transform", {}).get("pw_rel"):
        return work
    shape = tuple(header["shape"]) or (1,)
    return inverse_log_transform(work, shape, signs_payload)
