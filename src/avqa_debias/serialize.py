"""Binary file formats for synthetic features and toy model parameters.

Both formats are little-endian, fully deterministic, and versioned:

* features sidecar: magic ``AVQF``, u32 version, u32 sample count, three
  u32 per-modality widths, which must be equal, then per sample the audio,
  video and question vectors as float64 (one row-major (n, 3d) matrix);
  in memory, the features are one (3, n, d) array in that modality order;
* model file: magic ``AVQM``, u32 version, u32 parameter count, then per
  parameter a length-prefixed utf-8 name, u8 ndim, u32 dims, float64 data;
  names are unique.

Every fixed-size read goes through ``_read_exact``, so a file cut short
anywhere raises ``FormatError`` naming the file; so does any other
malformed content, bytes after the end included.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

FEATURES_MAGIC = b"AVQF"
MODEL_MAGIC = b"AVQM"
FORMAT_VERSION = 1
_WRITE_ROWS = 256  # rows of the features matrix interleaved per write


class FormatError(ValueError):
    pass


def _read_exact(f, n: int, path: str | Path, what: str) -> bytes:
    """The next ``n`` bytes of ``f``; a short read is a FormatError naming ``path``.

    The size is checked against the file before reading, so a corrupt
    count in a header never allocates a buffer larger than the file.
    """
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"{path}: truncated {what}")
    return f.read(n)


def write_features(path: str | Path, x: np.ndarray) -> None:
    """Write the (3, n, d) feature array; row i of each modality is sample i
    of the corpus file."""
    x = np.asarray(x, dtype="<f8")
    if x.ndim != 3 or x.shape[0] != 3:
        raise FormatError(f"feature array shape {x.shape} != (3, n, d)")
    _, n, d = x.shape
    if n == 0:
        raise FormatError("no feature rows to write")
    with open(path, "wb") as f:
        f.write(FEATURES_MAGIC)
        f.write(struct.pack("<IIIII", FORMAT_VERSION, n, d, d, d))
        # Interleaved a chunk of rows at a time, so that no copy of the whole
        # (n, 3d) matrix is made: that copy set the peak memory of gen-synth.
        for start in range(0, n, _WRITE_ROWS):
            f.write(x[:, start : start + _WRITE_ROWS].transpose(1, 0, 2).tobytes())


def read_features(path: str | Path) -> np.ndarray:
    """The (3, n, d) float64 feature array of a features file; a NaN or an
    infinity in it is a FormatError."""
    with open(path, "rb") as f:
        if f.read(4) != FEATURES_MAGIC:
            raise FormatError(f"{path}: not a features file")
        version, n, da, dv, dq = struct.unpack("<IIIII", _read_exact(f, 20, path, "header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if not da == dv == dq:
            raise FormatError(f"{path}: modality widths {da}, {dv} and {dq} differ")
        buf = _read_exact(f, 24 * n * da, path, "feature data")
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after feature data")
    rows = np.frombuffer(buf, dtype="<f8").reshape(n, 3, da)
    # One copy per modality, stacked once the file's bytes are freed: at the
    # default corpus sizes, this order gave train-toy a peak RSS 0.8 MiB
    # lower than one transposed copy of the whole buffer did.
    mats = [rows[:, i].copy() for i in range(3)]
    del buf, rows
    if not all(np.isfinite(m).all() for m in mats):  # before the stack, so the peak does not rise
        raise FormatError(f"{path}: non-finite feature value")
    return np.stack(mats)


def write_model(path: str | Path, params: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(params)))
        for name, arr in params.items():
            arr = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def read_model(path: str | Path) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        if f.read(4) != MODEL_MAGIC:
            raise FormatError(f"{path}: not a model file")
        version, count = struct.unpack("<II", _read_exact(f, 8, path, "header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, path, "parameter name length"))
            try:
                name = _read_exact(f, name_len, path, "parameter name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: parameter name is not UTF-8: {exc}") from None
            if name in params:
                raise FormatError(f"{path}: parameter {name!r} appears twice")
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, path, f"rank of {name!r}"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, path, f"shape of {name!r}"))
            # math.prod is exact; np.prod would wrap around on large dims
            buf = _read_exact(f, 8 * math.prod(shape), path, f"parameter {name!r}")
            try:
                params[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            except ValueError as exc:  # more dims than numpy supports
                raise FormatError(f"{path}: parameter {name!r}: {exc}") from None
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after the last parameter")
    return params
