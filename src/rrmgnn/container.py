"""Self-describing binary container for named arrays plus a JSON metadata blob.

Used for both dataset files and checkpoints. Layout (little-endian):

    magic    8 bytes  b"RRMBNDL1"
    version  u32      container format version (currently 1)
    meta_len u64      length of the UTF-8 JSON metadata that follows
    meta     bytes    JSON object (config echo etc.)
    n_arrays u32
    then per array:
        name_len u32, name UTF-8
        dtype    u8   0=float64, 1=int64, 2=uint8 (bools), 3=complex128
        ndim     u8
        dims     u64 * ndim
        payload  raw row-major bytes

Readers must reject unknown magics and versions.
"""

import json
import math
import os
import struct

import numpy as np

MAGIC = b"RRMBNDL1"
VERSION = 1

_DTYPES = {0: np.float64, 1: np.int64, 2: np.uint8, 3: np.complex128}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1,
          np.dtype(np.uint8): 2, np.dtype(np.complex128): 3}


def _coerce(arr):
    arr = np.asarray(arr)
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    if arr.dtype.kind == "i":
        return arr.astype(np.int64)
    if arr.dtype.kind == "c":
        return arr.astype(np.complex128)
    return arr.astype(np.float64)


def write_bundle(path, meta, arrays):
    """Write `arrays` (dict name -> ndarray) with a JSON `meta` dict.

    The bundle goes to a temporary file next to `path` that replaces it only
    once complete, so a failed write leaves any previous file intact.
    """
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + struct.pack("<IQ", VERSION, len(meta_bytes)) + meta_bytes
                    + struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(_coerce(arr))
                name_b = name.encode("utf-8")
                f.write(struct.pack("<I", len(name_b)) + name_b
                        + struct.pack(f"<BB{arr.ndim}Q", _CODES[arr.dtype], arr.ndim, *arr.shape))
                f.write(arr.tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_bundle(path):
    """Read a container written by write_bundle; returns (meta, arrays).

    Every length is checked against the bytes left in the file before it is
    read, so truncated or corrupt input raises ValueError naming the path.
    """
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def take(n, what):
            nonlocal left
            if n > left:
                raise ValueError(f"{path}: truncated container: {what} needs {n} bytes, "
                                 f"{left} left")
            left -= n
            return f.read(n)

        def unpack(fmt, what):
            return struct.unpack(fmt, take(struct.calcsize(fmt), what))

        magic = take(8, "magic")
        if magic != MAGIC:
            raise ValueError(f"{path}: not a recognized container file: bad magic {magic!r}")
        (version,) = unpack("<I", "version")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported container version {version} "
                             f"(expected {VERSION})")
        try:
            (meta_len,) = unpack("<Q", "meta_len")
            meta = json.loads(take(meta_len, "metadata").decode("utf-8"))
            (n_arrays,) = unpack("<I", "array count")
            arrays = {}
            for i in range(n_arrays):
                (name_len,) = unpack("<I", f"array {i} name length")
                name = take(name_len, f"array {i} name").decode("utf-8")
                code, ndim = unpack("<BB", f"array {name!r} header")
                if code not in _DTYPES:
                    raise ValueError(f"{path}: corrupt container: unknown dtype code {code} "
                                     f"for array {name!r}")
                shape = unpack(f"<{ndim}Q", f"array {name!r} dims")
                dtype = np.dtype(_DTYPES[code])
                raw = take(math.prod(shape) * dtype.itemsize, f"array {name!r} payload")
                arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: corrupt container: {exc}") from exc
    return meta, arrays

