"""Binary tensor file format used by the CLI pipeline.

Layout, all little-endian:

    magic   4 bytes  b"CARE"
    version u32      1
    dtype   u8       0 = float32, 1 = float64
    ndim    u8       1 to 32
    dims    ndim x u64
    payload product(dims) values, row-major

Values are always returned as float64. A float64 payload comes back as a
writable view of the buffer the file was read into, with no copy; float32
payloads are up-converted on read. Writing the array a reader produced,
with the dtype code the reader reported, reproduces the original bytes
exactly. A header whose shape no float64 array can take (more than 32 dims,
or dims that check_shape refuses) is refused like any other malformed
header.
"""

import contextlib
import hashlib
import math
import os
import struct

import numpy as np

from .errors import ValidationError

MAGIC = b"CARE"
VERSION = 1
DTYPE_F32 = 0
DTYPE_F64 = 1

_HEADER = struct.Struct("<4sIBB")
_DIM = struct.Struct("<Q")
_NP_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_F64: np.dtype("<f8")}
# numpy 1.x's limit on array dimensions (numpy 2 allows 64).
MAX_NDIM = 32
_MAX_BYTES = int(np.iinfo(np.intp).max)
# A payload starts _HEADER.size + 8 * ndim bytes into the file. Reading the
# file this many bytes into a fresh buffer, which malloc aligns to 16 bytes,
# puts every payload on an 8-byte boundary.
_PAYLOAD_SHIFT = -_HEADER.size % 8


def check_shape(shape, where) -> None:
    """Refuse, naming it `where`, a shape no float64 array can take: nonzero
    dims whose byte count overflows the address space, even next to a zero dim."""
    nonzero_bytes = np.dtype(np.float64).itemsize
    for d in shape:
        nonzero_bytes *= max(d, 1)
    if nonzero_bytes > _MAX_BYTES:
        raise ValidationError(f"{where}: dims {tuple(shape)} are too large for an array")


def write_ctf(path, array, dtype_code: int = DTYPE_F64, digest: bool = False) -> str | None:
    """Serialize `array` to `path`; parent directories must already exist.
    The bytes go to a `.partial` sibling that is then renamed over `path`,
    so `path` never holds a half-written tensor, and a file that was there,
    or a hard link to it elsewhere, keeps its bytes. With `digest`, return
    the sha256 of the bytes written, as read_ctf_digest gives it; hashing
    costs about 1 ms per MB, so it is done only on request."""
    if dtype_code not in _NP_DTYPES:
        raise ValidationError(f"unknown dtype code {dtype_code}")
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    if arr.ndim > MAX_NDIM:
        raise ValidationError(f"refusing to serialize {arr.ndim} dims; at most {MAX_NDIM}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("refusing to serialize non-finite values")
    header = _HEADER.pack(MAGIC, VERSION, dtype_code, arr.ndim) + b"".join(
        _DIM.pack(d) for d in arr.shape
    )
    payload = np.ascontiguousarray(arr, dtype=_NP_DTYPES[dtype_code])
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, "wb") as out:
            out.write(header)
            out.write(payload.data)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise
    if not digest:
        return None
    sha256 = hashlib.sha256(header)
    sha256.update(payload.data)
    return sha256.hexdigest()


def read_ctf_ex(path) -> tuple[np.ndarray, int]:
    """Read a tensor and its on-disk dtype code. Values come back as float64."""
    return _decode(_read_file(path), path)


def read_ctf_digest(path) -> tuple[np.ndarray, str]:
    """Read a tensor and the sha256 of the file's bytes, from one read."""
    data = _read_file(path)
    values, _ = _decode(data, path)
    return values, hashlib.sha256(data).hexdigest()


def _read_file(path) -> np.ndarray:
    """The file's bytes as a writable uint8 array, with any float64 payload
    8-byte aligned, so the payload can be viewed in place. numpy's
    allocator, unlike bytearray, neither zero-fills the buffer nor leaves a
    large one on small pages."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        buffer = np.empty(_PAYLOAD_SHIFT + size, dtype=np.uint8)[_PAYLOAD_SHIFT:]
        read = f.readinto(buffer)
    return buffer[:read]


def _decode(data: np.ndarray, path) -> tuple[np.ndarray, int]:
    if len(data) < _HEADER.size:
        raise ValidationError(f"{path}: truncated header")
    magic, version, dtype_code, ndim = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ValidationError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ValidationError(f"{path}: unsupported version {version}")
    if dtype_code not in _NP_DTYPES:
        raise ValidationError(f"{path}: unknown dtype code {dtype_code}")
    if not 1 <= ndim <= MAX_NDIM:
        raise ValidationError(f"{path}: ndim {ndim} outside [1, {MAX_NDIM}]")
    offset = _HEADER.size
    if len(data) < offset + ndim * _DIM.size:
        raise ValidationError(f"{path}: truncated dimension list")
    dims = []
    for _ in range(ndim):
        dims.append(_DIM.unpack_from(data, offset)[0])
        offset += _DIM.size
    check_shape(dims, path)
    dtype = _NP_DTYPES[dtype_code]
    count = math.prod(dims)
    expected = offset + count * dtype.itemsize
    if len(data) != expected:
        raise ValidationError(
            f"{path}: payload length {len(data) - offset} does not match "
            f"dims {tuple(dims)}"
        )
    values = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(dims)
    if values.dtype != np.float64:
        values = values.astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{path}: payload contains non-finite values")
    return values, dtype_code


def read_ctf(path) -> np.ndarray:
    arr, _ = read_ctf_ex(path)
    return arr
