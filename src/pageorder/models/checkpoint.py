"""Binary checkpoint format.

Layout: magic "PGOR", format version (u16 LE), config digest (32 bytes,
sha256 of the canonical config JSON), length-prefixed config JSON, the
parameter count (u32), then per parameter: name (u16 length + utf-8),
dims (u8 rank + u32 per dim), float32 little-endian data. The file ends
with a sha256 digest of everything before it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from ..fileio import atomic_write
from .base import Model, ModelConfig

__all__ = [
    "CheckpointError",
    "CheckpointVersionError",
    "CheckpointDigestError",
    "ArchMismatchError",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"PGOR"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is unusable."""


class CheckpointVersionError(CheckpointError):
    """Unsupported format version."""


class CheckpointDigestError(CheckpointError):
    """Stored digest does not match file contents."""


class ArchMismatchError(CheckpointError, ConfigError):
    """Checkpoint holds a different architecture than requested: a usage error."""


def _config_bytes(config: ModelConfig) -> bytes:
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Serialize config and parameters; float32 data round-trips bit-exactly."""
    cfg = _config_bytes(model.config)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", FORMAT_VERSION)
    out += hashlib.sha256(cfg).digest()
    out += struct.pack("<I", len(cfg))
    out += cfg
    named = model.named_parameters()
    out += struct.pack("<I", len(named))
    for name, tensor in named:
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        dims = tensor.data.shape
        out += struct.pack("<B", len(dims))
        for d in dims:
            out += struct.pack("<I", d)
        out += np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
    out += hashlib.sha256(bytes(out)).digest()
    atomic_write(path, bytes(out))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint file")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild the model from a checkpoint, verifying integrity end to end."""
    from . import build_model

    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 2 + 32 + 32:
        raise CheckpointError("file too short to be a checkpoint")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointDigestError("integrity digest mismatch")
    reader = _Reader(body)
    if reader.take(4) != MAGIC:
        raise CheckpointError("bad magic bytes")
    (version,) = reader.unpack("<H")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(f"format version {version} unsupported (expected {FORMAT_VERSION})")
    config_digest = reader.take(32)
    (cfg_len,) = reader.unpack("<I")
    cfg_raw = reader.take(cfg_len)
    if hashlib.sha256(cfg_raw).digest() != config_digest:
        raise CheckpointDigestError("config digest mismatch")
    config = ModelConfig.from_dict(json.loads(cfg_raw.decode("utf-8")))

    model = build_model(config)
    (n_params,) = reader.unpack("<I")
    state: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = reader.unpack("<H")
        name = reader.take(name_len).decode("utf-8")
        (rank,) = reader.unpack("<B")
        dims = tuple(reader.unpack("<" + "I" * rank)) if rank else ()
        count = int(np.prod(dims)) if dims else 1
        state[name] = np.frombuffer(reader.take(4 * count), dtype="<f4").reshape(dims)
    model.load_state_arrays(state)  # copies each array into the model's float32
    return model
