"""Version 2's per-tensor encodings: raw, bit-packed masks and kept values.

Files from disk are untrusted, so beside the round trips these properties
feed the reader damaged files: every proper prefix, a kept count that does
not match its mask, padding bits set in a packed mask, and a kept tensor
without its mask.  Each must be a StoreFormatError with a byte offset.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from spp import PrunedLayer, SparseMask, StoreFormatError, Unstructured, store_read, store_write
from spp.cli import main

from helpers import keep_masks

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)
FLOATS = hst.floats(width=64) | hst.sampled_from([0.0, -0.0, 1.5, -2.25, 5e-324])


@hst.composite
def kept_layers(draw):
    """The pair (values, keep) of a kept tensor."""
    keep = draw(keep_masks())
    count = int(np.count_nonzero(keep))
    values = np.array(draw(hst.lists(FLOATS, min_size=count, max_size=count)), dtype=np.float64)
    return values, keep


def dense(kept) -> np.ndarray:
    """The weight a kept tensor stands for: its values where it keeps, +0.0 elsewhere."""
    values, keep = kept
    out = np.zeros(keep.shape)
    out[keep] = values
    return out


@hst.composite
def raw_arrays(draw):
    shape = tuple(draw(hst.lists(hst.integers(0, 4), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    dtype = draw(hst.sampled_from(["float64", "float32", "uint8"]))
    if dtype == "uint8":
        items = hst.integers(0, 255)
    else:
        items = FLOATS if dtype == "float64" else hst.floats(width=32)
    return np.array(draw(hst.lists(items, min_size=size, max_size=size)), dtype=dtype).reshape(shape)


@hst.composite
def mixed_stores(draw):
    """(name, array or (values, keep)) pairs of every encoding, with unique names."""
    pairs = []
    for i, kind in enumerate(draw(hst.lists(
            hst.sampled_from(["raw", "bits", "kept", "dense"]), max_size=5))):
        if kind == "raw":
            pairs.append((f"t{i}", draw(raw_arrays())))
        elif kind == "bits":  # a mask on its own
            pairs.append((f"t{i}.mask", draw(keep_masks()).astype(np.uint8)))
        elif kind == "kept":
            pairs.append((f"t{i}", draw(kept_layers())))
        else:  # a pruned weight given dense beside its mask: written raw, then bits
            kept = draw(kept_layers())
            pairs += [(f"t{i}", dense(kept)), (f"t{i}.mask", kept[1].astype(np.uint8))]
    return pairs


def decoded(pairs):
    """What reading a store written from ``pairs`` must give, by name."""
    out = {}
    for name, value in pairs:
        if isinstance(value, tuple):
            out[name] = dense(value)
            out[f"{name}.mask"] = value[1].astype(np.uint8)
        else:
            out[name] = value.reshape(value.shape or (1,))
    return out


def file_size(pairs) -> int:
    """The size version 2 gives: a raw, a bits or a kept payload for each tensor."""
    size = 12
    for name, value in pairs:
        if isinstance(value, tuple):
            values, keep = value
            tensors = [(name, keep.shape, 8 + values.nbytes),
                       (f"{name}.mask", keep.shape, (keep.size + 7) // 8)]
        elif name.endswith(".mask") and value.dtype == np.uint8 and value.max(initial=0) <= 1:
            tensors = [(name, value.shape, (value.size + 7) // 8)]
        else:
            tensors = [(name, value.shape, value.nbytes)]
        for tensor, dims, payload in tensors:
            size += 4 + len(tensor.encode()) + 4 + 8 * len(dims) + 2 + payload
    return size


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(mixed_stores())
def test_any_mix_of_encodings_round_trips(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mixed.sppt"
        store_write(pairs, path)
        assert path.stat().st_size == file_size(pairs)
        want = decoded(pairs)
        back = store_read(path)
        assert back.names() == list(want)
        for name, arr in want.items():
            assert back.spec(name) == (arr.dtype, arr.shape)
            assert same(back.get(name), arr), name
        fresh = store_read(path)
        for name, value in pairs:
            kept = fresh.pop_kept(name)
            if isinstance(value, tuple):
                assert same(kept[0], value[0]) and same(kept[1], value[1])
                assert f"{name}.mask" not in fresh
            else:
                assert kept is None and name in fresh


@PROPERTY
@given(kept_layers(), hst.data())
def test_a_weight_off_its_mask_is_written_raw(kept, data):
    values, keep = kept
    dropped = np.flatnonzero(~keep)
    assume(dropped.size)
    weight = dense(kept)
    at = data.draw(hst.sampled_from(list(dropped)))
    weight.reshape(-1)[at] = data.draw(hst.sampled_from([1.0, -3e-310, np.inf]))
    # It cannot become a pruned layer, which is all a command writes kept...
    mask = SparseMask(keep, Unstructured(0.0))
    message = ("non-finite" if not np.isfinite(weight).all()
               else rf"nonzero off its mask at \({at // keep.shape[1]}, {at % keep.shape[1]}\)")
    with pytest.raises(ValueError, match=message):
        PrunedLayer(weight, mask)
    # ...so it reaches a file only as a raw pair, and reads back as written.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.sppt"
        store_write([("bad", weight), ("bad.mask", keep.view(np.uint8))], path)
        back = store_read(path)
        assert back.pop_kept("bad") is None
        assert same(back.get("bad"), weight)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(mixed_stores())
def test_every_proper_prefix_of_a_v2_file_is_rejected(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "full.sppt"
        store_write(pairs, path)
        full = path.read_bytes()
        for cut in range(len(full)):
            path.write_bytes(full[:cut])
            with pytest.raises(StoreFormatError) as err:
                store_read(path)
            assert err.value.offset is not None and err.value.offset <= cut, cut


def tensor_bytes(name: str, dims, code: int, encoding: int, payload: bytes,
                 count: int | None = None) -> bytes:
    out = len(name).to_bytes(4, "little") + name.encode() + len(dims).to_bytes(4, "little")
    out += b"".join(d.to_bytes(8, "little") for d in dims)
    out += bytes([code, encoding])
    if count is not None:
        out += count.to_bytes(8, "little")
    return out + payload


def v2_file(*tensors: bytes) -> bytes:
    return b"SPPT" + (2).to_bytes(4, "little") + len(tensors).to_bytes(4, "little") + b"".join(tensors)


def kept_file(keep: np.ndarray, count: int, packed: bytes | None = None,
              mask_name: str = "w.mask") -> tuple[bytes, int]:
    """A file of a kept "w" holding ``count`` values and its mask; and the kept payload's offset."""
    kept = tensor_bytes("w", keep.shape, 1, 2, bytes(8 * count), count)
    mask = tensor_bytes(mask_name, keep.shape, 3, 1,
                        np.packbits(keep).tobytes() if packed is None else packed)
    return v2_file(kept, mask), 12 + len(kept) - 8 * count


@PROPERTY
@given(keep_masks(), hst.data())
def test_a_kept_count_off_its_mask_is_rejected_at_read(keep, data):
    ones = int(np.count_nonzero(keep))
    count = data.draw(hst.integers(0, keep.size).filter(lambda c: c != ones))
    raw, offset = kept_file(keep, count)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "count.sppt"
        path.write_bytes(raw)
        store = store_read(path)  # the index cannot see it
        for read in (store.get, store.pop_kept):
            with pytest.raises(StoreFormatError, match=f"holds {count} kept values") as err:
                read("w")
            assert err.value.offset == offset


@PROPERTY
@given(keep_masks(), hst.data())
def test_padding_bits_of_a_packed_mask_are_rejected(keep, data):
    assume(keep.size % 8)
    packed = bytearray(np.packbits(keep).tobytes())
    packed[-1] |= data.draw(hst.integers(1, (1 << (8 - keep.size % 8)) - 1))
    raw, _ = kept_file(keep, int(np.count_nonzero(keep)), bytes(packed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tail.sppt"
        path.write_bytes(raw)
        store = store_read(path)
        for name in ("w.mask", "w"):
            with pytest.raises(StoreFormatError, match="nonzero padding bits") as err:
                store.get(name)
            assert err.value.offset == len(raw) - 1


@PROPERTY
@given(keep_masks(), hst.sampled_from(["missing", "raw", "other shape"]))
def test_a_kept_tensor_without_its_packed_mask_is_rejected(keep, fault):
    count = int(np.count_nonzero(keep))
    kept = tensor_bytes("w", keep.shape, 1, 2, bytes(8 * count), count)
    if fault == "missing":
        raw = v2_file(kept)
    elif fault == "raw":
        raw = v2_file(kept, tensor_bytes("w.mask", keep.shape, 3, 0, keep.astype(np.uint8).tobytes()))
    else:
        dims = (keep.shape[0], keep.shape[1] + 1)
        raw = v2_file(kept, tensor_bytes("w.mask", dims, 3, 1, bytes((dims[0] * dims[1] + 7) // 8)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nomask.sppt"
        path.write_bytes(raw)
        with pytest.raises(StoreFormatError, match="kept tensor 'w' has no bit-packed mask") as err:
            store_read(path)
        assert err.value.offset == 12 + len(kept) - 8 * count


@pytest.mark.parametrize("header, offset, message", [
    (tensor_bytes("w", (2,), 1, 7, bytes(16)), 30, "tensor 'w' has unknown encoding 7"),
    (tensor_bytes("w", (2,), 1, 1, bytes(1)), 30, "tensor 'w' of dtype float64 cannot take encoding 1"),
    (tensor_bytes("w", (2,), 3, 2, bytes(8), 1), 30, "tensor 'w' of dtype uint8 cannot take encoding 2"),
    (tensor_bytes("w", (2,), 1, 2, bytes(24), 3), 31, "tensor 'w' keeps 3 of its 2 entries"),
], ids=["unknown", "bits-f64", "kept-u8", "too-many-kept"])
def test_a_bad_encoding_is_rejected_at_its_offset(tmp_path, header, offset, message):
    path = tmp_path / "bad.sppt"
    path.write_bytes(v2_file(header))
    with pytest.raises(StoreFormatError) as err:
        store_read(path)
    assert str(err.value) == f"{message} (at byte offset {offset})"


def test_verify_reports_a_damaged_kept_layer_with_its_offset(tmp_path, capsys):
    keep = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=bool)
    raw, offset = kept_file(keep, 3)
    path = tmp_path / "damaged.spp"
    path.write_bytes(raw)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "holds 3 kept values, but its mask keeps 4 entries" in err
    assert f"(at byte offset {offset})" in err and str(path) in err
