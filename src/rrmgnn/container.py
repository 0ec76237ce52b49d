"""Self-describing binary container for a checkpoint: named float64 tensors
plus a JSON metadata blob. Layout (little-endian):

    magic    8 bytes  b"RRMBNDL1"
    version  u32      container format version (currently 2)
    meta_len u64      length of the UTF-8 JSON metadata that follows
    meta     bytes    JSON object (config echo etc.)
    n_arrays u32
    then per array:
        name_len u32, name UTF-8
        ndim     u8
        dims     u64 * ndim
        payload  raw row-major float64 bytes
    crc32    u32      zlib.crc32 of every byte before it

Readers must reject unknown magics and versions.
"""

import json
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"RRMBNDL1"
VERSION = 2


def write_bundle(path, meta, arrays):
    """Write `arrays` (dict name -> float64-convertible array) with a JSON
    `meta` dict.

    The bundle goes to a temporary file next to `path` that replaces it only
    once complete, so a failed write leaves any previous file intact.
    """
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<IQ", VERSION, len(meta_bytes)), meta_bytes,
             struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)  # tobytes() writes C order; keeps 0-d
        name_b = name.encode("utf-8")
        parts += [struct.pack("<I", len(name_b)), name_b,
                  struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape), arr.tobytes()]
    body = b"".join(parts)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(body + struct.pack("<I", zlib.crc32(body)))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_bundle(path):
    """Read a container written by write_bundle; returns (meta, arrays).

    The magic and version are checked first, then the checksum, and every
    length against the bytes left before the trailer; the arrays must have
    distinct names and end at the trailer. So a corrupt, truncated or
    out-of-date file raises ValueError naming the path.
    """
    with open(path, "rb") as f:
        data = memoryview(f.read())
    pos, end = 0, len(data)

    def take(n, what):
        nonlocal pos
        if n > end - pos:
            raise ValueError(f"{path}: truncated container: {what} needs {n} bytes, "
                             f"{end - pos} left")
        pos += n
        return data[pos - n:pos]

    def unpack(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    magic = bytes(take(8, "magic"))
    if magic != MAGIC:
        raise ValueError(f"{path}: not a recognized container file: bad magic {magic!r}")
    (version,) = unpack("<I", "version")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported container version {version} (expected "
                         f"{VERSION}); retrain to write a current one")
    take(4, "checksum")  # the trailer must fit after the header
    pos, end = pos - 4, end - 4
    if zlib.crc32(data[:end]) != int.from_bytes(data[end:], "little"):
        raise ValueError(f"{path}: corrupt or truncated container: checksum mismatch")
    try:
        (meta_len,) = unpack("<Q", "meta_len")
        meta = json.loads(bytes(take(meta_len, "metadata")).decode("utf-8"))
        (n_arrays,) = unpack("<I", "array count")
        arrays = {}
        for i in range(n_arrays):
            (name_len,) = unpack("<I", f"array {i} name length")
            name = bytes(take(name_len, f"array {i} name")).decode("utf-8")
            if name in arrays:
                raise ValueError(f"{path}: corrupt container: duplicate array {name!r}")
            (ndim,) = unpack("<B", f"array {name!r} ndim")
            shape = unpack(f"<{ndim}Q", f"array {name!r} dims")
            raw = take(math.prod(shape) * 8, f"array {name!r} payload")
            arrays[name] = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt container: {exc}") from exc
    if pos != end:
        raise ValueError(f"{path}: corrupt container: {end - pos} bytes left after "
                         f"the last of {n_arrays} arrays")
    return meta, arrays
