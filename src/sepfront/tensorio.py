"""Binary tensor file format for mask exchange.

Layout (little-endian):
    bytes 0..3   magic b"TNS1"
    bytes 4..7   uint32 ndim
    next ndim*4  uint32 dimensions
    rest         float32 data, row-major (C order)
"""

import math
import struct
from pathlib import Path

import numpy as np

from .errors import InputError

MAGIC = b"TNS1"


def save_tensor(path, array):
    """Write a real float tensor to the binary exchange format."""
    arr = np.ascontiguousarray(array, dtype=np.float32)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


def load_tensor(path):
    """Read a tensor written by save_tensor; returns a float32 ndarray.

    The header is checked against the file's size before its dimensions are
    read, and the element count is an exact integer, so no header, however
    corrupt, makes this allocate more than the file holds.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise InputError(f"{path}: not a tensor file (bad magic {blob[:4]!r})")
    if len(blob) < 8:
        raise InputError(f"{path}: truncated tensor header (no ndim)")
    (ndim,) = struct.unpack_from("<I", blob, 4)
    offset = 8 + 4 * ndim
    if len(blob) < offset:
        raise InputError(f"{path}: truncated tensor header ({ndim} dimensions promised)")
    shape = struct.unpack_from(f"<{ndim}I", blob, 8)
    expected = math.prod(shape)
    payload = len(blob) - offset
    if payload != 4 * expected:
        raise InputError(
            f"{path}: payload has {payload} bytes, header promises {expected} float32 values"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=offset)
    try:
        return data.reshape(shape)
    except ValueError as exc:  # an empty shape whose other dimensions numpy cannot index
        raise InputError(f"{path}: unsupported tensor shape {shape} ({exc})") from exc
