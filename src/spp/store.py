"""Single-file binary container for named tensors.

Layout, all integers little-endian:

    magic   4 bytes  b"SPPT"
    version u32      2 (version 1 is still read)
    count   u32      number of tensors
    then per tensor:
        name_len u32, name bytes (UTF-8),
        ndim u32, dims u64 each,
        dtype u8 (1 = float64, 2 = float32, 3 = uint8),
        encoding u8 (version 2 only; 0 = raw, 1 = bits, 2 = kept),
        kept count u64 (kept only),
        payload.

The encoding says how the payload holds the tensor:

    raw   every entry, row-major (the only form in version 1).
    bits  a uint8 0/1 tensor as ``np.packbits`` of its entries, row-major,
          in ceil(size / 8) bytes; the unused low bits of the last byte
          are zero.  Every uint8 "<name>.mask" whose entries are 0 or 1 is
          written this way.
    kept  a float64 "<name>" as its entries where "<name>.mask" is 1,
          row-major: the kept count of them.  The weight it stands for is
          +0.0 wherever the mask is 0, and "<name>.mask" must be in the file,
          bits-encoded, with the same dims.  A pair (name, (values, keep)),
          the 1-D float64 kept values and their bool keep mask, is written
          this way; it is how a pruned layer holds its weight.  At 75%
          sparsity a 1024 x 1024 layer and its mask take 2.1 MiB instead of
          the 9.0 MiB of a raw weight and raw mask.

Readers see none of this: ``get``, ``pop`` and ``items`` return the tensor
as written (a kept tensor as its dense weight, a bits tensor as its uint8
entries), and ``spec`` gives its dtype and dims.  ``pop_kept`` hands over a
kept tensor as the pair (values, keep) it was written from, without making
the dense weight.  The store holds any float64, non-finite included; what a
weight must be is for its readers to check.

Entry order is preserved, names are unique.  JSON metadata travels inside the
container as a reserved uint8 tensor named "__meta__" holding UTF-8 JSON, so
a checkpoint is always exactly one file.  Writes go through a temp file and
an atomic rename; readers never observe a half-written store.

Both directions move one tensor at a time.  A read first indexes the file:
it parses and checks every header and seeks over the payloads, so a damaged
file is rejected, with a byte offset, before any payload is read.  A kept
tensor's count and its mask are checked against each other when it is read.
A payload is read into a fresh array only when its tensor is asked for.  A
write takes (name, array) pairs one at a time and sends each header and then
the array's own buffer, so pairs made as they are asked for (or a store read
from a file) are written holding one tensor.  The writer counts the tensors
as it goes and fills in the header's count last.
"""

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import StoreFormatError

MAGIC = b"SPPT"
VERSION = 2
META_NAME = "__meta__"
RAW, BITS, KEPT = 0, 1, 2  # per-tensor encodings, version 2

_CODE_FOR_DTYPE = {
    np.dtype("float64"): 1,
    np.dtype("float32"): 2,
    np.dtype("uint8"): 3,
}
_DTYPE_FOR_CODE = {1: np.dtype("<f8"), 2: np.dtype("<f4"), 3: np.dtype("u1")}
# The one dtype each encoding other than raw holds.
_DTYPE_FOR_ENCODING = {BITS: np.dtype("u1"), KEPT: np.dtype("<f8")}


def _stamp(path_or_fd) -> tuple:
    """What identifies one version of a file: device, inode, size, mtime."""
    st = os.stat(path_or_fd)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


@dataclass(frozen=True)
class _Payload:
    """Where an indexed tensor's bytes are in its file, and how they hold it.

    ``count`` is the number of entries the payload holds: all of them, or a
    kept tensor's kept values.  ``mask`` is a kept tensor's "<name>.mask".
    """

    path: Path
    stamp: tuple
    name: str
    offset: int
    dtype: np.dtype
    shape: tuple
    encoding: int = RAW
    count: int = 0
    mask: "_Payload | None" = None

    def _fetch(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """A fresh array of ``shape`` read from the start of the payload."""
        arr = np.empty(shape, dtype=dtype)
        with open(self.path, "rb") as fh:
            if _stamp(fh.fileno()) != self.stamp:
                raise StoreFormatError(
                    f"{self.path}: file changed since it was indexed, "
                    f"before reading payload of tensor {self.name!r}",
                    offset=self.offset,
                )
            fh.seek(self.offset)
            if fh.readinto(_raw_bytes(arr)) != arr.nbytes:
                raise StoreFormatError(
                    f"{self.path}: file shrank while reading payload of tensor {self.name!r}",
                    offset=self.offset,
                )
        return arr

    def read(self) -> np.ndarray:
        if self.encoding == KEPT:
            values, keep = self.read_kept()
            out = np.zeros(self.shape)
            out.ravel()[np.flatnonzero(keep)] = values
            return out
        if self.encoding == RAW:
            return self._fetch(self.shape, self.dtype)
        size = self.count
        packed = self._fetch(((size + 7) // 8,), self.dtype)
        if size % 8 and packed[-1] & (0xFF >> size % 8):
            raise StoreFormatError(
                f"{self.path}: packed tensor {self.name!r} has nonzero padding bits",
                offset=self.offset + packed.size - 1,
            )
        out = np.unpackbits(packed, count=size)
        out.shape = self.shape  # in place: a reshape would be a view, not owning its data
        return out

    def read_kept(self) -> tuple[np.ndarray, np.ndarray]:
        """A kept tensor's values and its bool mask, checked against each other."""
        keep = self.mask.read().view(bool)
        values = self._fetch((self.count,), self.dtype)
        ones = int(np.count_nonzero(keep))
        if ones != self.count:
            raise StoreFormatError(
                f"{self.path}: tensor {self.name!r} holds {self.count} kept values, "
                f"but its mask keeps {ones} entries",
                offset=self.offset,
            )
        return values, keep


def _load(entry) -> np.ndarray:
    return entry.read() if isinstance(entry, _Payload) else entry


def _check_name(name: str, names) -> None:
    if not name:
        raise ValueError("tensor name must be non-empty")
    if name in names:
        raise ValueError(f"duplicate tensor name: {name!r}")


def _checked(name: str, array) -> np.ndarray:
    """``array`` as the C-contiguous array of a supported dtype that is stored."""
    arr = np.asarray(array)
    if arr.dtype not in _CODE_FOR_DTYPE:
        raise ValueError(
            f"unsupported dtype {arr.dtype} for tensor {name!r}; "
            "use float64, float32, or uint8"
        )
    if arr.ndim < 1:
        arr = arr.reshape(1)
    return np.ascontiguousarray(arr)


class TensorStore:
    """Ordered mapping of unique tensor names to arrays.

    A store read from a file holds its index until a tensor is asked for.
    ``get`` reads the payload and keeps the array, so later changes to it
    are what a write of the store sends.  ``pop`` reads it and keeps
    nothing, so a caller that walks the store with ``pop`` holds one tensor
    at a time.  ``items()`` reads each payload as it goes and keeps none.
    """

    def __init__(self):
        self._entries: dict[str, np.ndarray | _Payload] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        _check_name(name, self._entries)
        self._entries[name] = _checked(name, array)

    def _entry(self, name: str):
        if name not in self._entries:
            raise KeyError(f"no tensor named {name!r}")
        return self._entries[name]

    def get(self, name: str) -> np.ndarray:
        arr = self._entries[name] = _load(self._entry(name))
        return arr

    def pop(self, name: str) -> np.ndarray:
        entry = self._entry(name)
        del self._entries[name]
        return _load(entry)

    def pop_kept(self, name: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Pop a kept-encoded ``name`` and its mask as the pair (values, keep).

        Reads the kept values and the packed mask, never the dense weight.
        Returns None, and pops nothing, for a tensor held any other way.
        """
        entry = self._entry(name)
        if not (isinstance(entry, _Payload) and entry.mask is not None
                and self._entries.get(entry.mask.name) is entry.mask):
            return None
        del self._entries[name], self._entries[entry.mask.name]
        return entry.read_kept()

    def spec(self, name: str) -> tuple[np.dtype, tuple]:
        """The dtype and shape of a tensor, read from the index alone."""
        entry = self._entry(name)
        return entry.dtype, entry.shape

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        for name, entry in self._entries.items():
            yield name, _load(entry)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # -- JSON sidecar riding as the reserved uint8 tensor ------------------

    def set_meta(self, meta: dict) -> None:
        self._entries.pop(META_NAME, None)
        # Meta always sits last so rewriting it never reorders tensors.
        self.add(META_NAME, encode_meta(meta))

    def meta(self) -> dict:
        entry = self._entries.get(META_NAME)
        if entry is None:
            return {}
        try:
            return json.loads(self.get(META_NAME).tobytes().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            message = f"invalid {META_NAME} JSON payload: {exc}"
            if isinstance(entry, _Payload):
                raise StoreFormatError(f"{entry.path}: {message}", offset=entry.offset) from exc
            raise StoreFormatError(message) from exc


def encode_meta(meta: dict) -> np.ndarray:
    """``meta`` as the uint8 tensor stored under META_NAME."""
    return np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8).copy()


@contextlib.contextmanager
def _replacing(path):
    """A binary file that atomically replaces ``path`` when the block succeeds.

    It is a temp file beside ``path``, renamed over it at the end, so readers
    see the old file or the whole new one, never a partial write.  On any
    failure in the block the temp file is removed and ``path`` is untouched.
    An OSError in making, writing, closing or renaming the temp file names
    ``path``, not the temp file's random name (or no file at all).
    """
    path = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        try:
            with os.fdopen(fd, "wb") as fh:
                yield fh
            os.replace(tmp_name, path)
        except OSError as exc:
            if exc.filename not in (None, tmp_name):  # about another file the block read
                raise
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def atomic_write(path, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` through a temp file and rename.

    A failure raised while ``chunks`` makes its next chunk also leaves ``path``
    untouched.
    """
    with _replacing(path) as fh:
        fh.writelines(chunks)  # drops each chunk before it asks for the next one


def _raw_bytes(arr: np.ndarray) -> np.ndarray:
    """The payload of a C-contiguous array as a flat uint8 view (no copy)."""
    return arr.reshape(-1).view(np.uint8)


def _encoded(name: str, value) -> list[tuple[str, int, tuple, np.ndarray]]:
    """The (name, encoding, dims, payload) of each tensor that a written pair stands for."""
    if isinstance(value, tuple):
        values, keep = value
        if values.dtype != np.float64 or values.ndim != 1 or keep.dtype != bool:
            raise ValueError(f"kept tensor {name!r} needs 1-D float64 values and a bool mask")
        kept = np.count_nonzero(keep)
        if values.size != kept:
            raise ValueError(f"tensor {name!r} has {values.size} kept values for {kept} kept entries")
        return [(name, KEPT, keep.shape, np.ascontiguousarray(values)),
                (f"{name}.mask", BITS, keep.shape, np.packbits(keep.reshape(-1)))]
    arr = _checked(name, value)
    if name.endswith(".mask") and arr.dtype == np.uint8 and not (arr > 1).any():
        return [(name, BITS, arr.shape, np.packbits(arr.reshape(-1)))]
    return [(name, RAW, arr.shape, arr)]


def store_write(store, path) -> None:
    """Write ``store`` to ``path`` atomically, one tensor at a time.

    ``store`` is a TensorStore or any iterable of (name, array) pairs in file
    order, so arrays can be made as they are written.  The array of a pair
    may be the pair (values, keep) of a kept tensor, which writes "<name>"
    kept-encoded and then "<name>.mask".  Each name and array is checked as
    ``TensorStore.add`` checks them, and a kept pair's values against its
    mask, so a duplicate or empty name raises ValueError and nothing is
    published.  The tensors are counted as they are written, and the count
    goes into the header last.
    """
    pairs = store.items() if isinstance(store, TensorStore) else store
    with _replacing(path) as fh:
        fh.write(MAGIC + VERSION.to_bytes(4, "little") + bytes(4))
        written = set()
        for pair in pairs:
            tensors = _encoded(*pair)
            del pair
            for name, encoding, dims, payload in tensors:
                _check_name(name, written)
                written.add(name)
                encoded = name.encode("utf-8")
                fh.write(b"".join([
                    len(encoded).to_bytes(4, "little"),
                    encoded,
                    len(dims).to_bytes(4, "little"),
                    *(int(dim).to_bytes(8, "little") for dim in dims),
                    _CODE_FOR_DTYPE[payload.dtype].to_bytes(1, "little"),
                    encoding.to_bytes(1, "little"),
                    payload.size.to_bytes(8, "little") if encoding == KEPT else b"",
                ]))
                fh.write(_raw_bytes(payload.astype(payload.dtype.newbyteorder("<"), copy=False)))
            del tensors, payload  # so the next array is made without this one still held
        fh.seek(len(MAGIC) + 4)
        fh.write(len(written).to_bytes(4, "little"))


def store_read(path) -> TensorStore:
    """Index a store file; raises StoreFormatError with a byte offset on damage.

    Every header is parsed and checked, every payload is checked to fit in
    the file, and every kept tensor to have its mask, before this returns;
    no payload is read until its tensor is asked for (see TensorStore).
    """
    path = Path(os.path.abspath(path))
    with open(path, "rb") as fh:
        return _index(fh, path, _stamp(fh.fileno()))


def _index(fh, path: Path, stamp: tuple) -> TensorStore:
    size = stamp[2]
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

    def number(count: int, what: str) -> int:
        return int.from_bytes(take(count, what), "little")

    if take(4, "magic") != MAGIC:
        raise StoreFormatError("bad magic, not a tensor store", offset=0)
    version = number(4, "version")
    if version not in (1, VERSION):
        raise StoreFormatError(f"unsupported version {version}", offset=4)
    count = number(4, "tensor count")

    store = TensorStore()
    entries = store._entries
    for index in range(count):
        name_len = number(4, f"name length of tensor {index}")
        raw_name = take(name_len, f"name of tensor {index}")
        try:
            name = raw_name.decode("utf-8")
            _check_name(name, entries)
        except UnicodeDecodeError as exc:
            raise StoreFormatError(
                f"tensor {index} name is not valid UTF-8", offset=pos - name_len
            ) from exc
        except ValueError as exc:
            raise StoreFormatError(str(exc), offset=pos - name_len) from exc
        ndim = number(4, f"rank of tensor {name!r}")
        dims = tuple(number(8, f"dimension {d} of tensor {name!r}") for d in range(ndim))
        code = number(1, f"dtype of tensor {name!r}")
        if code not in _DTYPE_FOR_CODE:
            raise StoreFormatError(
                f"tensor {name!r} has unknown dtype code {code}", offset=pos - 1
            )
        dtype = _DTYPE_FOR_CODE[code]
        encoding = number(1, f"encoding of tensor {name!r}") if version > 1 else RAW
        if encoding not in (RAW, BITS, KEPT):
            raise StoreFormatError(
                f"tensor {name!r} has unknown encoding {encoding}", offset=pos - 1
            )
        if _DTYPE_FOR_ENCODING.get(encoding, dtype) != dtype:
            raise StoreFormatError(
                f"tensor {name!r} of dtype {dtype} cannot take encoding {encoding}",
                offset=pos - 1,
            )
        n_items = 1
        for dim in dims:
            n_items *= dim
        held = n_items
        if encoding == KEPT:
            held = number(8, f"kept count of tensor {name!r}")
            if held > n_items:
                raise StoreFormatError(
                    f"tensor {name!r} keeps {held} of its {n_items} entries", offset=pos - 8
                )
        start = pos
        stored = (n_items + 7) // 8 if encoding == BITS else held * dtype.itemsize
        reserve(stored, f"payload of tensor {name!r}")
        # A payload that fits in the file is small enough for NumPy, so only
        # the rank, or the other dimensions of an empty shape, can be
        # unusable; a zero-size array of the same rank tries both for free.
        try:
            np.empty(dims[:-1] + (0,) if n_items else dims, dtype=dtype)
        except ValueError as exc:
            raise StoreFormatError(
                f"tensor {name!r} has unusable shape {dims}", offset=start
            ) from exc
        entries[name] = _Payload(path, stamp, name, start, dtype, dims or (1,), encoding, held)
        fh.seek(pos)
    if pos != size:
        raise StoreFormatError(
            f"{size - pos} trailing bytes after last tensor", offset=pos
        )
    for name, entry in entries.items():
        if entry.encoding == KEPT:
            mask = entries.get(f"{name}.mask")
            if mask is None or mask.encoding != BITS or mask.shape != entry.shape:
                raise StoreFormatError(
                    f"kept tensor {name!r} has no bit-packed mask of shape {entry.shape}",
                    offset=entry.offset,
                )
            entries[name] = replace(entry, mask=mask)
    return store
