import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from spp import StoreFormatError, TensorStore, store_read, store_write
from spp.cli import main


def roundtrip(store, tmp_path):
    path = tmp_path / "t.sppt"
    store_write(store, path)
    return path, store_read(path)


def test_roundtrip_preserves_order_dtypes_and_bytes(tmp_path):
    store = TensorStore()
    store.add("w1", np.arange(6, dtype=np.float64).reshape(2, 3))
    store.add("w1.mask", np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8))
    store.add("small", np.array([1.5, -2.5], dtype=np.float32))
    store.add("cube", np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    store.add("scalar", np.float64(2.5))  # 0-d, stored as shape (1,)
    path, back = roundtrip(store, tmp_path)
    assert back.names() == ["w1", "w1.mask", "small", "cube", "scalar"]
    assert back.get("scalar").shape == (1,) and back.get("scalar")[0] == 2.5
    for name, arr in store.items():
        other = back.get(name)
        assert other.dtype == arr.dtype
        assert other.shape == arr.shape
        assert np.array_equal(other, arr)


def test_write_is_deterministic(tmp_path):
    def build():
        s = TensorStore()
        s.add("a", np.ones((2, 2)))
        s.set_meta({"pattern": "2:4", "ratio": 0.5})
        return s

    p1 = tmp_path / "one.sppt"
    p2 = tmp_path / "two.sppt"
    store_write(build(), p1)
    store_write(build(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_store_is_bare_header(tmp_path):
    # magic (4) + version u32 (4) + tensor count u32 (4)
    path = tmp_path / "empty.sppt"
    store_write(TensorStore(), path)
    raw = path.read_bytes()
    assert len(raw) == 12
    assert raw[:4] == b"SPPT"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 0


def test_meta_roundtrip(tmp_path):
    store = TensorStore()
    store.add("w", np.zeros((1, 1)))
    store.set_meta({"pattern": "unstructured", "ratio": 0.75})
    _, back = roundtrip(store, tmp_path)
    assert back.meta() == {"pattern": "unstructured", "ratio": 0.75}
    # setting meta twice keeps a single trailing entry
    store.set_meta({"pattern": "2:4", "ratio": 0.5})
    assert store.names()[-1] == "__meta__"
    assert store.names().count("__meta__") == 1


def test_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "bad.sppt"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(StoreFormatError) as err:
        store_read(path)
    assert err.value.offset == 0


def test_bad_version_reports_offset(tmp_path):
    path = tmp_path / "bad.sppt"
    path.write_bytes(b"SPPT" + (9).to_bytes(4, "little") + (0).to_bytes(4, "little"))
    with pytest.raises(StoreFormatError) as err:
        store_read(path)
    assert err.value.offset == 4


def test_truncated_header_reports_offset(tmp_path):
    path = tmp_path / "bad.sppt"
    path.write_bytes(b"SPPT" + (1).to_bytes(4, "little"))  # count missing
    with pytest.raises(StoreFormatError) as err:
        store_read(path)
    assert "tensor count" in str(err.value)
    assert err.value.offset == 8


def test_truncated_payload_names_tensor(tmp_path):
    store = TensorStore()
    store.add("weights", np.ones((4, 4)))
    path = tmp_path / "t.sppt"
    store_write(store, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])  # drop one float64
    with pytest.raises(StoreFormatError) as err:
        store_read(path)
    assert "weights" in str(err.value)


def test_trailing_garbage_rejected(tmp_path):
    store = TensorStore()
    store.add("w", np.ones((1, 1)))
    path = tmp_path / "t.sppt"
    store_write(store, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(StoreFormatError) as err:
        store_read(path)
    assert "trailing" in str(err.value)


def test_duplicate_and_bad_dtype_rejected():
    store = TensorStore()
    store.add("w", np.ones((1, 1)))
    with pytest.raises(ValueError):
        store.add("w", np.ones((1, 1)))
    with pytest.raises(ValueError):
        store.add("ints", np.ones((2, 2), dtype=np.int32))


def test_write_leaves_no_temp_files(tmp_path):
    store = TensorStore()
    store.add("w", np.ones((8, 8)))
    path = tmp_path / "out.sppt"
    store_write(store, path)
    store_write(store, path)  # overwrite in place
    assert sorted(os.listdir(tmp_path)) == ["out.sppt"]
    assert store_read(path).names() == ["w"]


def fixed_store():
    store = TensorStore()
    store.add("w", np.arange(12, dtype=np.float64).reshape(3, 4) / 8 - 0.5)
    store.add("w.mask", np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0]], dtype=np.uint8))
    store.add("v", np.array([1.5, -2.25, 0.0], dtype=np.float32))
    store.add("empty", np.zeros((0, 3)))
    store.set_meta({"pattern": "unstructured", "ratio": 0.5})
    return store


# sha256 of fixed_store() as version 2 writes it: "w" raw (it is nonzero off
# its mask), "w.mask" bit-packed, the rest raw.  The on-disk format must not
# move.
FIXED_STORE_SHA256 = "8031222672d4b71d3a133b94dd452ad67afb273504b345a651199190ce01cb11"

# fixed_store() as version 1 wrote it (sha256 a6a62253...), which is still read.
FIXED_STORE_V1 = bytes.fromhex(
    "5350505401000000050000000100000077020000000300000000000000040000000000000001"
    "000000000000e0bf000000000000d8bf000000000000d0bf000000000000c0bf000000000000"
    "0000000000000000c03f000000000000d03f000000000000d83f000000000000e03f00000000"
    "0000e43f000000000000e83f000000000000ec3f06000000772e6d61736b0200000003000000"
    "000000000400000000000000030100010000010100010100000100000076010000000300000000"
    "000000020000c03f000010c00000000005000000656d707479020000000000000000000000030000"
    "000000000001080000005f5f6d6574615f5f010000002900000000000000037b227061747465726e"
    "223a2022756e73747275637475726564222c2022726174696f223a20302e357d"
)
FIXED_STORE_V1_SHA256 = "a6a62253c929abe918414402acaf26cc88ccd60e9529b4e56f7a6e160da44f5f"


def test_on_disk_bytes_are_pinned_and_reads_own_their_arrays(tmp_path):
    path, back = roundtrip(fixed_store(), tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXED_STORE_SHA256
    assert back.names() == fixed_store().names()
    for name, arr in fixed_store().items():
        got = back.get(name)
        assert got.dtype == arr.dtype and np.array_equal(got, arr)
        flags = got.flags
        assert flags.owndata and flags.aligned and flags.c_contiguous and flags.writeable
    assert back.meta() == {"pattern": "unstructured", "ratio": 0.5}


def test_version_1_file_reads_to_the_same_arrays(tmp_path):
    assert hashlib.sha256(FIXED_STORE_V1).hexdigest() == FIXED_STORE_V1_SHA256
    path = tmp_path / "v1.sppt"
    path.write_bytes(FIXED_STORE_V1)
    back = store_read(path)
    assert back.names() == fixed_store().names()
    for name, arr in fixed_store().items():
        assert back.spec(name) == (arr.dtype, arr.shape)
        got = back.get(name)
        assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes()
        assert got.flags.owndata and got.flags.c_contiguous and got.flags.writeable
    assert back.pop_kept("w") is None  # version 1 holds every tensor raw
    # Rewritten, it is version 2 and decodes to the same arrays.
    out = tmp_path / "v2.sppt"
    store_write(back, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXED_STORE_SHA256


# Where a cut of FIXED_STORE_V1 is first reported: (offset, what was being
# read), as version 1's reader reported it.  Each cut from that offset up to
# the next is reported there.
V1_CUTS = [
    (0, "magic"), (4, "version"), (8, "tensor count"),
    (12, "name length of tensor 0"), (16, "name of tensor 0"),
    (17, "rank of tensor 'w'"), (21, "dimension 0 of tensor 'w'"),
    (29, "dimension 1 of tensor 'w'"), (37, "dtype of tensor 'w'"),
    (38, "payload of tensor 'w'"),
    (134, "name length of tensor 1"), (138, "name of tensor 1"),
    (144, "rank of tensor 'w.mask'"), (148, "dimension 0 of tensor 'w.mask'"),
    (156, "dimension 1 of tensor 'w.mask'"), (164, "dtype of tensor 'w.mask'"),
    (165, "payload of tensor 'w.mask'"),
    (177, "name length of tensor 2"), (181, "name of tensor 2"),
    (182, "rank of tensor 'v'"), (186, "dimension 0 of tensor 'v'"),
    (194, "dtype of tensor 'v'"), (195, "payload of tensor 'v'"),
    (207, "name length of tensor 3"), (211, "name of tensor 3"),
    (216, "rank of tensor 'empty'"), (220, "dimension 0 of tensor 'empty'"),
    (228, "dimension 1 of tensor 'empty'"), (236, "dtype of tensor 'empty'"),
    (237, "name length of tensor 4"), (241, "name of tensor 4"),
    (249, "rank of tensor '__meta__'"), (253, "dimension 0 of tensor '__meta__'"),
    (261, "dtype of tensor '__meta__'"), (262, "payload of tensor '__meta__'"),
]


def test_version_1_damage_is_reported_at_the_same_offsets(tmp_path):
    path = tmp_path / "cut.sppt"
    for cut in range(len(FIXED_STORE_V1)):
        path.write_bytes(FIXED_STORE_V1[:cut])
        offset, what = [c for c in V1_CUTS if c[0] <= cut][-1]
        with pytest.raises(StoreFormatError) as err:
            store_read(path)
        assert err.value.offset == offset, cut
        assert str(err.value) == f"truncated while reading {what} (at byte offset {offset})"


def test_a_kept_layer_is_its_values_then_its_packed_mask(tmp_path):
    keep = np.array([[1, 0, 1], [0, 0, 1]], dtype=bool)
    values = np.array([1.5, -0.0, 2.0])
    path = tmp_path / "kept.sppt"
    store_write([("w", (values, keep))], path)
    assert path.read_bytes() == b"".join([
        b"SPPT", (2).to_bytes(4, "little"), (2).to_bytes(4, "little"),
        # "w": rank 2, dims (2, 3), float64, kept, 3 values, then the values
        (1).to_bytes(4, "little"), b"w", (2).to_bytes(4, "little"),
        (2).to_bytes(8, "little"), (3).to_bytes(8, "little"), bytes([1, 2]),
        (3).to_bytes(8, "little"), values.astype("<f8").tobytes(),
        # "w.mask": the same dims, uint8, bits: 101 001 and two zero padding bits
        (6).to_bytes(4, "little"), b"w.mask", (2).to_bytes(4, "little"),
        (2).to_bytes(8, "little"), (3).to_bytes(8, "little"), bytes([3, 1]),
        bytes([0b10100100]),
    ])
    back = store_read(path)
    assert back.get("w").tobytes() == np.array([[1.5, 0.0, -0.0], [0.0, 0.0, 2.0]]).tobytes()
    assert back.get("w.mask").tobytes() == keep.astype(np.uint8).tobytes()
    assert back.pop_kept("w") is None  # get keeps the dense array it read
    back = store_read(path)
    got, got_keep = back.pop_kept("w")
    assert got.tobytes() == values.tobytes() and np.array_equal(got_keep, keep)
    assert back.names() == []


def test_get_of_a_kept_layer_gives_back_the_dense_bytes_written(tmp_path):
    # An odd shape, a kept -0.0 and whole rows pruned: the decode scatters
    # the values in row-major order and leaves +0.0 everywhere else.
    rng = np.random.default_rng(3)
    keep = rng.random((37, 53)) < 0.3
    keep[5] = False
    dense = np.where(keep, rng.standard_normal(keep.shape), 0.0)
    dense[np.nonzero(keep)[0][4], np.nonzero(keep)[1][4]] = -0.0
    path = tmp_path / "kept.sppt"
    store_write([("w", (dense[keep], keep))], path)
    got = store_read(path).get("w")
    assert np.signbit(got).sum() == np.signbit(dense).sum() > 0
    assert got.tobytes() == dense.tobytes()


@pytest.mark.parametrize("values, keep, message", [
    (np.array([1.0, 2.0]), np.array([[True, True, True]]), "has 2 kept values for 3 kept entries"),
    (np.array([1, 2], dtype=np.int64), np.array([[True, True]]), "needs 1-D float64 values"),
    (np.array([1.0, 2.0]), np.array([[1, 1]], dtype=np.uint8), "and a bool mask"),
])
def test_a_malformed_kept_pair_is_refused_and_nothing_published(tmp_path, values, keep, message):
    path = tmp_path / "kept.sppt"
    with pytest.raises(ValueError, match=message):
        store_write([("w", (values, keep))], path)
    assert list(tmp_path.iterdir()) == []


def test_every_proper_prefix_is_rejected_with_offset(tmp_path):
    full_path = tmp_path / "full.sppt"
    store_write(fixed_store(), full_path)
    full = full_path.read_bytes()
    path = tmp_path / "prefix.sppt"
    for cut in range(len(full)):
        path.write_bytes(full[:cut])
        with pytest.raises(StoreFormatError) as err:
            store_read(path)
        assert err.value.offset is not None and err.value.offset <= cut, cut


def header_for(name: bytes, dims, code: int = 1) -> bytes:
    out = b"SPPT" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
    out += len(name).to_bytes(4, "little") + name + len(dims).to_bytes(4, "little")
    out += b"".join(d.to_bytes(8, "little") for d in dims)
    return out + code.to_bytes(1, "little")


def test_huge_declared_payload_is_rejected_before_allocation(tmp_path):
    path = tmp_path / "huge.sppt"
    header = header_for(b"w", (2**40,))
    path.write_bytes(header + b"\x00" * 16)
    tracemalloc.start()
    try:
        with pytest.raises(StoreFormatError) as err:
            store_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "payload of tensor 'w'" in str(err.value)
    assert err.value.offset == len(header)
    assert peak < 1 << 20


def test_impossible_empty_shape_is_a_format_error(tmp_path):
    path = tmp_path / "shape.sppt"
    header = header_for(b"w", (0, 2**63))
    path.write_bytes(header)
    with pytest.raises(StoreFormatError) as err:
        store_read(path)
    assert err.value.offset == len(header)


def store_bytes(*tensors) -> bytes:
    """A file of (name, dtype code) tensors, each (2, 2) with a 32-byte payload."""
    out = b"SPPT" + (1).to_bytes(4, "little") + len(tensors).to_bytes(4, "little")
    for name, code in tensors:
        out += header_for(name, (2, 2), code)[12:] + bytes(32)
    return out


@pytest.mark.parametrize("tensors, offset, message", [
    ([(b"\xff", 1)], 16, "tensor 0 name is not valid UTF-8"),
    ([(b"w", 9)], 37, "tensor 'w' has unknown dtype code 9"),
    ([(b"w", 1), (b"w", 1)], 74, "duplicate tensor name: 'w'"),
    ([(b"w", 1), (b"", 1)], 74, "tensor name must be non-empty"),
], ids=["not-utf8", "unknown-dtype", "duplicate-name", "empty-name"])
def test_bad_header_rejected_at_its_offset(tmp_path, capsys, tensors, offset, message):
    path = tmp_path / "bad.sppt"
    path.write_bytes(store_bytes(*tensors))
    with pytest.raises(StoreFormatError) as err:
        store_read(path)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (at byte offset {offset})"
    assert main(["verify", str(path)]) == 2
    stderr = capsys.readouterr().err
    assert str(path) in stderr and f"(at byte offset {offset})" in stderr


def test_malformed_meta_names_file_and_offset(tmp_path, capsys):
    store = TensorStore()
    store.add("w", np.ones((2, 2)))
    store.add("__meta__", np.frombuffer(b"{not json", dtype=np.uint8))
    path = tmp_path / "meta.sppt"
    store_write(store, path)
    with pytest.raises(StoreFormatError) as err:
        store_read(path).meta()
    assert err.value.offset == 97  # after the 71 bytes of "w" and the meta's header
    assert str(path) in str(err.value)
    assert main(["verify", str(path)]) == 2
    stderr = capsys.readouterr().err
    assert "invalid __meta__ JSON payload" in stderr
    assert str(path) in stderr and "(at byte offset 97)" in stderr
    with pytest.raises(StoreFormatError) as err:
        store.meta()  # held in memory: no file, so no offset
    assert err.value.offset is None
