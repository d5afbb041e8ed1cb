"""Binary tensor file format for mask and weight exchange.

Layout (little-endian):
    bytes 0..3   magic b"TNS1"
    bytes 4..7   uint32 ndim
    next ndim*4  uint32 dimensions
    rest         float32 data, row-major (C order)

Complex tensors are stored with a trailing axis of size 2 (real, imag).
"""

import struct

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
    """Read a tensor written by save_tensor; returns a float32 ndarray."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise InputError(f"{path}: not a tensor file (bad magic {magic!r})")
        try:
            (ndim,) = struct.unpack("<I", f.read(4))
            shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
        except struct.error as exc:
            raise InputError(f"{path}: truncated tensor header ({exc})") from exc
        data = np.frombuffer(f.read(), dtype="<f4")
    expected = int(np.prod(shape)) if shape else 1
    if data.size != expected:
        raise InputError(
            f"{path}: payload has {data.size} values, header promises {expected}"
        )
    return data.reshape(shape)


def save_complex_tensor(path, array):
    """Write a complex tensor as float32 pairs (trailing axis [real, imag])."""
    arr = np.asarray(array)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    save_tensor(path, stacked)


def load_complex_tensor(path):
    """Read a complex tensor written by save_complex_tensor."""
    stacked = load_tensor(path)
    if stacked.shape[-1] != 2:
        raise InputError(f"{path}: complex tensor needs a trailing axis of size 2")
    return stacked[..., 0].astype(np.complex128) + 1j * stacked[..., 1]
