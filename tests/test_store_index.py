"""A store read indexes the file and reads each payload when it is asked for."""

import os
import tracemalloc

import numpy as np
import pytest

import spp.store
from spp import StoreFormatError, TensorStore, store_read, store_write


def big_store(tmp_path, layers=4, size=128):
    store = TensorStore()
    for i in range(layers):
        store.add(f"w{i}", np.full((size, size), float(i)))
    store.set_meta({"pattern": "dense"})
    path = tmp_path / "big.sppt"
    store_write(store, path)
    return path


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_read_indexes_without_reading_payloads(tmp_path):
    path = big_store(tmp_path)
    store, peak = traced_peak(store_read, path)
    assert peak < 64 << 10  # four 128 KiB payloads, none read
    assert store.names() == ["w0", "w1", "w2", "w3", "__meta__"]
    assert store.spec("w2") == (np.dtype(np.float64), (128, 128))
    w2, peak = traced_peak(store.get, "w2")
    assert np.all(w2 == 2.0) and peak >= w2.nbytes


def test_get_keeps_pop_and_items_do_not(tmp_path):
    store = store_read(big_store(tmp_path))
    w0 = store.get("w0")
    assert store.get("w0") is w0  # kept, so edits to it are what a write sends
    w0[0, 0] = -1.0
    w1 = store.pop("w1")
    assert "w1" not in store and np.all(w1 == 1.0)
    with pytest.raises(KeyError):
        store.pop("w1")
    first = dict(store.items())
    assert first["w0"] is w0
    assert first["w2"] is not dict(store.items())["w2"]  # read again, not kept
    out = tmp_path / "out.sppt"
    store_write(store, out)
    back = store_read(out)
    assert back.names() == ["w0", "w2", "w3", "__meta__"]
    assert back.get("w0")[0, 0] == -1.0


def test_a_payload_read_after_the_file_changed_is_rejected(tmp_path):
    path = big_store(tmp_path)
    store = store_read(path)
    replacement = TensorStore()
    replacement.add("w0", np.zeros((128, 128)))
    store_write(replacement, path)
    with pytest.raises(StoreFormatError) as err:
        store.get("w1")
    assert "changed since it was indexed" in str(err.value) and "'w1'" in str(err.value)


class ShortReads:
    """An open file whose reads come back one byte short, as if it shrank."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def read(self, count):
        return self.fh.read(count)[:-1]

    def readinto(self, buf):
        return self.fh.readinto(memoryview(buf)[:-1])


def test_a_file_that_shrinks_during_a_read_is_rejected(tmp_path, monkeypatch):
    # The size checks pass, then a read comes back short: in the index, and
    # in a payload read after the index.
    path = big_store(tmp_path)
    store = store_read(path)
    monkeypatch.setattr(spp.store, "open", lambda *args: ShortReads(open(*args)), raising=False)
    with pytest.raises(StoreFormatError, match="shrank while reading payload of tensor 'w1'"):
        store.get("w1")
    with pytest.raises(StoreFormatError, match="shrank while reading magic"):
        store_read(path)


def test_a_stream_writes_what_the_same_store_writes(tmp_path):
    store = TensorStore()
    store.add("a", np.arange(6.0).reshape(2, 3))
    store.add("b", np.array([1, 0, 1], dtype=np.uint8))
    store_write(store, tmp_path / "store.sppt")
    store_write(iter(list(store.items())), tmp_path / "pairs.sppt")
    assert (tmp_path / "store.sppt").read_bytes() == (tmp_path / "pairs.sppt").read_bytes()
    store_write([], tmp_path / "none.sppt")
    assert store_read(tmp_path / "none.sppt").names() == []


def test_a_stream_array_is_checked_like_an_added_one(tmp_path):
    with pytest.raises(ValueError, match="unsupported dtype"):
        store_write([("a", np.ones(2)), ("ints", np.ones(2, dtype=np.int32))],
                    tmp_path / "out.sppt")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("second, message", [
    ("a", "duplicate tensor name: 'a'"),
    ("", "tensor name must be non-empty"),
], ids=["duplicate", "empty"])
def test_a_stream_name_is_checked_like_an_added_one(tmp_path, second, message):
    path = tmp_path / "out.sppt"
    store_write([("old", np.ones(3))], path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=message):
        store_write([("a", np.ones(2)), (second, np.zeros(2))], path)
    assert path.read_bytes() == before  # nothing was published
    assert os.listdir(tmp_path) == ["out.sppt"]
