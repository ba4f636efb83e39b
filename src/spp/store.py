"""Single-file binary container for named tensors.

Layout, all integers little-endian:

    magic   4 bytes  b"SPPT"
    version u32      currently 1
    count   u32      number of tensors
    then per tensor:
        name_len u32, name bytes (UTF-8),
        ndim u32, dims u64 each,
        dtype u8 (1 = float64, 2 = float32, 3 = uint8),
        payload, row-major.

Entry order is preserved, names are unique.  JSON metadata travels inside the
container as a reserved uint8 tensor named "__meta__" holding UTF-8 JSON, so
a checkpoint is always exactly one file.  Writes go through a temp file and
an atomic rename; readers never observe a half-written store.  Both directions
stream one tensor at a time: a write sends each header and then the array's
own buffer, a read fills a fresh array straight from the file, and neither
holds a whole-file buffer.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import StoreFormatError

MAGIC = b"SPPT"
VERSION = 1
META_NAME = "__meta__"

_CODE_FOR_DTYPE = {
    np.dtype("float64"): 1,
    np.dtype("float32"): 2,
    np.dtype("uint8"): 3,
}
_DTYPE_FOR_CODE = {1: np.dtype("<f8"), 2: np.dtype("<f4"), 3: np.dtype("u1")}


class TensorStore:
    """Ordered mapping of unique tensor names to arrays."""

    def __init__(self):
        self._entries: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        if not name:
            raise ValueError("tensor name must be non-empty")
        if name in self._entries:
            raise ValueError(f"duplicate tensor name: {name!r}")
        arr = np.asarray(array)
        if arr.dtype not in _CODE_FOR_DTYPE:
            raise ValueError(
                f"unsupported dtype {arr.dtype} for tensor {name!r}; "
                "use float64, float32, or uint8"
            )
        if arr.ndim < 1:
            arr = arr.reshape(1)
        self._entries[name] = np.ascontiguousarray(arr)

    def get(self, name: str) -> np.ndarray:
        if name not in self._entries:
            raise KeyError(f"no tensor named {name!r}")
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- JSON sidecar riding as the reserved uint8 tensor ------------------

    def set_meta(self, meta: dict) -> None:
        payload = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ).copy()
        self._entries.pop(META_NAME, None)
        # Meta always sits last so rewriting it never reorders tensors.
        self.add(META_NAME, payload)

    def meta(self) -> dict:
        if META_NAME not in self._entries:
            return {}
        raw = self._entries[META_NAME].tobytes()
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreFormatError(f"invalid {META_NAME} JSON payload: {exc}") from exc


def atomic_write(path, chunks) -> None:
    """Write the bytes-like ``chunks`` to a temp file, then rename it to ``path``.

    Readers see the old file or the whole new one, never a partial write.  On
    any failure the temp file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _raw_bytes(arr: np.ndarray) -> np.ndarray:
    """The payload of a C-contiguous array as a flat uint8 view (no copy)."""
    return arr.reshape(-1).view(np.uint8)


def _encode(store: TensorStore):
    """Yield the file in order: small headers as bytes, payloads as views."""
    yield MAGIC + int(VERSION).to_bytes(4, "little") + len(store).to_bytes(4, "little")
    for name, arr in store.items():
        encoded = name.encode("utf-8")
        yield b"".join([
            len(encoded).to_bytes(4, "little"),
            encoded,
            int(arr.ndim).to_bytes(4, "little"),
            *(int(dim).to_bytes(8, "little") for dim in arr.shape),
            _CODE_FOR_DTYPE[arr.dtype].to_bytes(1, "little"),
        ])
        yield _raw_bytes(arr.astype(arr.dtype.newbyteorder("<"), copy=False))


def store_write(store: TensorStore, path) -> None:
    """Serialize and atomically replace ``path``, streaming one tensor at a time."""
    atomic_write(path, _encode(store))


def store_read(path) -> TensorStore:
    """Parse a store file; raises StoreFormatError with a byte offset on damage.

    Each payload's length is checked against the file size before its array
    is allocated, and the bytes are read straight into that array.
    """
    with open(path, "rb") as fh:
        return _decode(fh, os.fstat(fh.fileno()).st_size)


def _decode(fh, size: int) -> TensorStore:
    pos = 0

    def reserve(count: int, what: str) -> None:
        nonlocal pos
        if pos + count > size:
            raise StoreFormatError(f"truncated while reading {what}", offset=pos)
        pos += count

    def take(count: int, what: str) -> bytes:
        reserve(count, what)
        chunk = fh.read(count)
        if len(chunk) != count:
            raise StoreFormatError(f"file shrank while reading {what}", offset=pos - count)
        return chunk

    if take(4, "magic") != MAGIC:
        raise StoreFormatError("bad magic, not a tensor store", offset=0)
    version = int.from_bytes(take(4, "version"), "little")
    if version != VERSION:
        raise StoreFormatError(f"unsupported version {version}", offset=4)
    count = int.from_bytes(take(4, "tensor count"), "little")

    store = TensorStore()
    for index in range(count):
        name_len = int.from_bytes(take(4, f"name length of tensor {index}"), "little")
        raw_name = take(name_len, f"name of tensor {index}")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StoreFormatError(
                f"tensor {index} name is not valid UTF-8", offset=pos - name_len
            ) from exc
        ndim = int.from_bytes(take(4, f"rank of tensor {name!r}"), "little")
        dims = tuple(
            int.from_bytes(take(8, f"dimension {d} of tensor {name!r}"), "little")
            for d in range(ndim)
        )
        code = int.from_bytes(take(1, f"dtype of tensor {name!r}"), "little")
        if code not in _DTYPE_FOR_CODE:
            raise StoreFormatError(
                f"tensor {name!r} has unknown dtype code {code}", offset=pos - 1
            )
        dtype = _DTYPE_FOR_CODE[code]
        n_items = 1
        for dim in dims:
            n_items *= dim
        start = pos
        reserve(n_items * dtype.itemsize, f"payload of tensor {name!r}")
        try:
            arr = np.empty(dims, dtype=dtype)
        except ValueError as exc:
            raise StoreFormatError(
                f"tensor {name!r} has unusable shape {dims}", offset=start
            ) from exc
        if fh.readinto(_raw_bytes(arr)) != arr.nbytes:
            raise StoreFormatError(
                f"file shrank while reading payload of tensor {name!r}", offset=start
            )
        try:
            store.add(name, arr)
        except ValueError as exc:
            raise StoreFormatError(str(exc), offset=pos) from exc
    if pos != size:
        raise StoreFormatError(
            f"{size - pos} trailing bytes after last tensor", offset=pos
        )
    return store
