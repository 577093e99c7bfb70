"""Compression codecs over numpy arrays.

Communication is accounted in *scalar-equivalents*: one uncompressed
model parameter (32-bit float) costs 1.  A top-k entry costs 2 (value +
index); a b-bit quantised entry costs b/32; codec metadata (scales,
shapes) is charged explicitly.  This keeps compressed and dense payloads
comparable inside :class:`repro.federated.communication.CommunicationMeter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_SCALAR_BITS = 32.0


@dataclass
class CompressionConfig:
    """Which codec uploads pass through, and its parameters.

    ``ratio`` is the kept fraction for the sparsifying codecs (ignored by
    ``quantize``); ``bits`` is the quantiser width (ignored by the
    sparsifiers).  ``error_feedback`` turns on per-client residual
    accumulation, which de-biases repeated lossy compression.
    """

    kind: str = "topk"
    ratio: float = 0.1
    bits: int = 8
    error_feedback: bool = True
    seed: int = 0

    _KINDS = ("topk", "randomk", "quantize", "none")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")


@dataclass
class CompressedTensor:
    """A compressed array: its reconstruction plus its wire cost."""

    reconstruction: np.ndarray
    payload_scalars: float

    def dense(self) -> np.ndarray:
        return self.reconstruction


def topk_sparsify(values: np.ndarray, ratio: float) -> CompressedTensor:
    """Keep the ``ratio`` fraction of largest-|value| entries.

    At least one entry survives on non-empty input.  Wire cost: 2 scalars
    per kept entry (value + flat index).
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        return CompressedTensor(np.zeros_like(values, dtype=np.float64), 0.0)
    k = max(int(round(flat.size * ratio)), 1)
    keep = np.argpartition(np.abs(flat), flat.size - k)[-k:]
    sparse = np.zeros_like(flat)
    sparse[keep] = flat[keep]
    return CompressedTensor(sparse.reshape(values.shape), 2.0 * k)


def randomk_sparsify(
    values: np.ndarray, ratio: float, rng: np.random.Generator
) -> CompressedTensor:
    """Keep a uniform random ``ratio`` fraction, rescaled by 1/ratio.

    The rescaling makes the reconstruction an unbiased estimator of the
    input (E[output] = input), the property the convergence analyses of
    random sparsification rely on.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        return CompressedTensor(np.zeros_like(values, dtype=np.float64), 0.0)
    k = max(int(round(flat.size * ratio)), 1)
    keep = rng.choice(flat.size, size=k, replace=False)
    sparse = np.zeros_like(flat)
    sparse[keep] = flat[keep] / ratio
    return CompressedTensor(sparse.reshape(values.shape), 2.0 * k)


def quantize_uniform(values: np.ndarray, bits: int) -> CompressedTensor:
    """Uniform b-bit quantisation over the tensor's [min, max] range.

    Wire cost: b/32 scalars per entry plus 2 scalars of range metadata.
    A constant tensor round-trips exactly (zero range ⇒ zero error).
    """
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return CompressedTensor(array.copy(), 0.0)
    low = float(array.min())
    high = float(array.max())
    payload = array.size * bits / _SCALAR_BITS + 2.0
    if high == low:
        return CompressedTensor(np.full_like(array, low), payload)
    levels = float(2**bits - 1)
    codes = np.rint((array - low) / (high - low) * levels)
    reconstruction = low + codes / levels * (high - low)
    return CompressedTensor(reconstruction, payload)


class Compressor:
    """Stateless codec dispatch; one instance is shared per trainer."""

    def __init__(self, config: CompressionConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    def compress(self, values: np.ndarray) -> CompressedTensor:
        """The codec's reconstruction, cast back to a float input's dtype
        (the codecs compute in float64)."""
        values = np.asarray(values)
        kind = self.config.kind
        if kind == "topk":
            out = topk_sparsify(values, self.config.ratio)
        elif kind == "randomk":
            out = randomk_sparsify(values, self.config.ratio, self._rng)
        elif kind == "quantize":
            out = quantize_uniform(values, self.config.bits)
        else:
            dense = np.asarray(values, dtype=np.float64)
            out = CompressedTensor(dense.copy(), float(dense.size))
        if values.dtype == np.float32:
            out.reconstruction = out.reconstruction.astype(np.float32)
        return out

    def compression_error(self, values: np.ndarray) -> float:
        """Max absolute reconstruction error on one tensor (diagnostics)."""
        out = self.compress(values).dense()
        return float(np.max(np.abs(out - np.asarray(values, dtype=np.float64)))) if out.size else 0.0


def build_compressor(config: Optional[CompressionConfig]) -> Optional[Compressor]:
    """Factory mirroring the other subsystems' ``build_*`` helpers."""
    if config is None or config.kind == "none":
        return None
    return Compressor(config)
