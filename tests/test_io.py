"""Container validation and on-disk round trips for volumes, PGMs, masks."""

import hashlib
import json
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from drrkit import (FormatError, LabelVolume, Mask2D, Projection, ValidationError,
                    View, Volume, load_label_volume, load_mask, load_projection,
                    load_volume, save_label_volume, save_mask, save_projection,
                    save_volume)
from drrkit import io
from drrkit import _rowruns
from drrkit._rowruns import _component_sizes, _label_runs, _paint_runs, _runs
from drrkit.io import _as_binary, _encode_pgm, _parse_pgm


def test_load_volume_single_voxel(tmp_path):
    (tmp_path / "v.json").write_text(
        '{"dims": [1, 1, 1], "spacing_mm": [1.0, 1.0, 1.0], "dtype": "i16"}')
    (tmp_path / "v.raw").write_bytes(b"\x00\x00")
    vol = load_volume(tmp_path / "v.json")
    assert vol.data.shape == (1, 1, 1)
    assert vol.data[0, 0, 0] == 0
    assert vol.spacing == (1.0, 1.0, 1.0)


def test_load_volume_size_mismatch(tmp_path):
    (tmp_path / "v.json").write_text(
        '{"dims": [2, 2, 2], "spacing_mm": [1, 1, 1], "dtype": "i16"}')
    (tmp_path / "v.raw").write_bytes(b"\x00" * 14)   # 7 elements, 8 expected
    with pytest.raises(FormatError, match="payload"):
        load_volume(tmp_path / "v.json")


def test_oversized_payload_is_refused_before_it_is_read(tmp_path):
    # A sparse 64 MiB payload beside one voxel's sidecar: its size is checked
    # before any of it is read or a buffer for it allocated.
    (tmp_path / "l.json").write_text('{"dims": [1, 1, 1], "dtype": "u8", "label_id": 1}')
    with open(tmp_path / "l.raw", "wb") as f:
        f.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError,
                           match="payload is 67108864 bytes, sidecar dims imply 1$"):
            load_label_volume(tmp_path / "l.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("dtype", ["u8", "i16"])
def test_huge_sidecar_dims_are_a_format_error(tmp_path, dtype):
    # 2^48 voxels beside an 8-byte payload: a format error, not an attempt to
    # allocate the size the dims imply.
    (tmp_path / "v.json").write_text(json.dumps(
        {"dims": [65536] * 3, "spacing_mm": [1, 1, 1], "dtype": dtype, "label_id": 1}))
    (tmp_path / "v.raw").write_bytes(bytes(8))
    load = load_label_volume if dtype == "u8" else load_volume
    with pytest.raises(FormatError, match="payload is 8 bytes, sidecar dims imply"):
        load(tmp_path / "v.json")


@pytest.mark.parametrize("held,message", [(5, "ended after 5 bytes"),
                                          (11, "runs past the 8 bytes")])
def test_payload_unlike_its_reported_size_is_refused(tmp_path, monkeypatch, held, message):
    # fstat reports the 8 bytes the dims imply, but the file holds fewer or
    # more by the time it is read: no partly filled or truncated array.
    (tmp_path / "l.json").write_text('{"dims": [2, 2, 2], "dtype": "u8", "label_id": 1}')
    raw = tmp_path / "l.raw"
    raw.write_bytes(b"\x01" * held)

    def fstat(fd):      # the sidecar's own size stands
        st = os.fstat(fd)
        return types.SimpleNamespace(st_size=8) if os.path.samestat(st, raw.stat()) else st

    monkeypatch.setattr(io, "os", types.SimpleNamespace(fstat=fstat))
    with pytest.raises(FormatError, match=message):
        load_label_volume(tmp_path / "l.json")


def test_payload_read_in_short_pieces_is_read_whole(tmp_path, monkeypatch):
    # readinto may return fewer bytes than asked for; the reader goes on
    # until the payload is complete, and hashes the bytes it parsed.
    data = np.arange(-30, 30, dtype=np.int16).reshape(3, 4, 5)
    save_volume(Volume(data=data, spacing=(1, 2, 3)), tmp_path / "v")
    sizes = []

    class Trickle:
        def __init__(self, f):
            self._f = f

        def readinto(self, buf):
            n = self._f.readinto(memoryview(buf)[:7])
            sizes.append(n)
            return n

        def __getattr__(self, name):
            return getattr(self._f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

    def trickling(file, *args, **kwargs):     # the payload only, not its sidecar
        f = open(file, *args, **kwargs)
        return Trickle(f) if str(file).endswith(".raw") else f

    monkeypatch.setattr(io, "open", trickling, raising=False)
    got = {}
    vol = load_volume(tmp_path / "v.json", _digests=got, _name="v.json")
    assert np.array_equal(vol.data, data)
    assert sizes == [7] * 17 + [1]
    assert got["v.raw"] == hashlib.sha256(data.astype("<i2").tobytes()).hexdigest()


def test_load_volume_records_both_digests_in_a_dict(tmp_path):
    # Each file of the pair is hashed as it is read, under the declared name,
    # or else under the path as given.
    save_volume(Volume(data=np.arange(24, dtype=np.int16).reshape(2, 3, 4), spacing=(1, 2, 3)),
                tmp_path / "v")
    want = {suffix: hashlib.sha256((tmp_path / f"v{suffix}").read_bytes()).hexdigest()
            for suffix in (".json", ".raw")}
    digests = {}
    load_volume(tmp_path / "v.json", _digests=digests, _name="case/v.json")
    assert digests == {"case/v.json": want[".json"], "case/v.raw": want[".raw"]}
    digests = {}
    load_volume(tmp_path / "v", _digests=digests)
    assert digests == {str(tmp_path / "v.json"): want[".json"],
                       str(tmp_path / "v.raw"): want[".raw"]}
    # A label volume is loaded whole and takes no private keyword.
    save_label_volume(LabelVolume(data=np.ones((2, 3, 4), dtype=np.uint8), label_id=1),
                      tmp_path / "l")
    with pytest.raises(TypeError):
        load_label_volume(tmp_path / "l.json", _digests={})


def test_payload_slabs_reuse_one_read_only_buffer_and_hash_the_file(tmp_path):
    # 37 rows in slabs of 16: two full slabs and a partial one, each a
    # read-only view of one buffer, and the digest is the file's.
    data = np.arange(37 * 3 * 2, dtype=np.uint8).reshape(37, 3, 2)
    (tmp_path / "l.raw").write_bytes(data.tobytes())
    digests = {}
    addresses, rows = set(), []
    for slab in io._payload_slabs(tmp_path / "l.raw", [37, 3, 2], "u1", 16, digests, "l.raw"):
        assert not slab.flags.writeable
        with pytest.raises(ValueError):
            slab.setflags(write=True)
        addresses.add(slab.__array_interface__["data"][0])
        rows.append(slab.copy())
        # The digest is recorded once the last slab has been hashed.
        assert ("l.raw" in digests) == (sum(map(len, rows)) == 37)
    assert [len(r) for r in rows] == [16, 16, 5] and len(addresses) == 1
    assert np.array_equal(np.concatenate(rows), data)
    assert digests == {"l.raw": hashlib.sha256(data.tobytes()).hexdigest()}


@pytest.mark.parametrize("change,message", [
    (lambda path: os.truncate(path, 20 * 6), "payload ended after 120 bytes, sidecar dims imply 222"),
    (lambda path: path.write_bytes(bytes(37 * 6 + 1)), "payload runs past the 222 bytes sidecar dims imply"),
], ids=["shrinks", "grows"])
def test_payload_that_changes_after_fstat_is_refused_mid_stream(tmp_path, change, message):
    # The file is 37 rows when its size is checked; it shrinks or grows while
    # the first slab is in use, so the reader finds out only as it reads on.
    raw = tmp_path / "l.raw"
    raw.write_bytes(bytes(37 * 6))
    slabs = io._payload_slabs(raw, [37, 3, 2], "u1", 16, {}, "l.raw")
    assert len(next(slabs)) == 16
    change(raw)
    with pytest.raises(FormatError, match=message):
        list(slabs)


class _BrokenSha256:
    """hashlib.sha256 whose every update fails."""

    def update(self, blob):
        raise MemoryError("simulated")


def test_payload_slab_hash_failure_names_the_file(tmp_path):

    (tmp_path / "l.raw").write_bytes(bytes(8))
    digests = {}
    slabs = io._payload_slabs(tmp_path / "l.raw", [2, 2, 2], "u1", 1, digests, "lab.raw")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hashlib, "sha256", _BrokenSha256)
        with pytest.raises(RuntimeError, match="hashing lab.raw failed") as failed:
            next(slabs)
    assert isinstance(failed.value.__cause__, MemoryError)
    assert digests == {}


def test_load_volume_layout_k_fastest(tmp_path):
    # values 0..7 in file order must land at [i,j,k] with k varying fastest
    (tmp_path / "v.json").write_text(
        '{"dims": [2, 2, 2], "spacing_mm": [1, 1, 1], "dtype": "i16"}')
    (tmp_path / "v.raw").write_bytes(
        np.arange(8, dtype="<i2").tobytes())
    vol = load_volume(tmp_path / "v.json")
    assert vol.data[0, 0, 1] == 1
    assert vol.data[0, 1, 0] == 2
    assert vol.data[1, 0, 0] == 4


def test_volume_round_trip_randomized(tmp_path):
    rng = np.random.default_rng(7)
    for case in range(20):
        dims = tuple(int(d) for d in rng.integers(1, 6, size=3))
        data = rng.integers(-1200, 2000, size=dims).astype(np.int16)
        spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, size=3))
        vol = Volume(data=data, spacing=spacing)
        save_volume(vol, tmp_path / f"a{case}")
        back = load_volume(tmp_path / f"a{case}.json")
        assert np.array_equal(back.data, data)
        assert back.spacing == pytest.approx(spacing)
        # byte-identical second save
        save_volume(back, tmp_path / f"b{case}")
        assert (tmp_path / f"a{case}.raw").read_bytes() == \
               (tmp_path / f"b{case}.raw").read_bytes()
        assert (tmp_path / f"a{case}.json").read_bytes() == \
               (tmp_path / f"b{case}.json").read_bytes()


def test_label_volume_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    for case in range(10):
        dims = tuple(int(d) for d in rng.integers(1, 6, size=3))
        data = (rng.random(size=dims) < 0.4).astype(np.uint8)
        lab = LabelVolume(data=data, label_id=int(rng.integers(0, 40)))
        save_label_volume(lab, tmp_path / f"l{case}")
        back = load_label_volume(tmp_path / f"l{case}.json")
        assert np.array_equal(back.data, data)
        assert back.label_id == lab.label_id


def test_label_volume_load_maps_nonzero_to_one(tmp_path):
    (tmp_path / "l.json").write_text('{"dims": [1, 1, 3], "dtype": "u8", "label_id": 4}')
    (tmp_path / "l.raw").write_bytes(b"\x00\x07\xff")
    lab = load_label_volume(tmp_path / "l.json")
    assert lab.data.dtype == np.uint8
    assert lab.data.tolist() == [[[0, 1, 1]]]


def test_label_volume_of_0_1_payload_is_a_read_only_view(tmp_path):
    (tmp_path / "l.json").write_text('{"dims": [1, 2, 2], "dtype": "u8", "label_id": 4}')
    (tmp_path / "l.raw").write_bytes(b"\x00\x01\x01\x00")
    lab = load_label_volume(tmp_path / "l.json")
    assert lab.data.dtype == np.uint8
    assert lab.data.tolist() == [[[0, 1], [1, 0]]]
    assert not lab.data.flags.writeable
    with pytest.raises(ValueError):
        lab.data[0, 0, 0] = 1
    with pytest.raises(ValueError):
        lab.data.setflags(write=True)


def test_volume_payload_is_a_read_only_view(tmp_path):
    data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    save_volume(Volume(data=data, spacing=(1, 1, 1)), tmp_path / "v")
    vol = load_volume(tmp_path / "v.json")
    assert np.array_equal(vol.data, data)
    assert not vol.data.flags.writeable
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1
    with pytest.raises(ValueError):
        vol.data.setflags(write=True)


def test_sidecar_validation(tmp_path):
    (tmp_path / "v.raw").write_bytes(b"\x00\x00")
    bad = [
        b'{"dims": [1, 1, 1], "spacing_mm": [1, 1, 1], "dtype": "f32"}',
        b'{"dims": [1, 1], "spacing_mm": [1, 1, 1], "dtype": "i16"}',
        b'{"dims": [1, 1, true], "spacing_mm": [1, 1, 1], "dtype": "i16"}',
        b'{"dims": [1, 1, 1], "dtype": "i16"}',
        b'[1, 2, 3]',
        b'not json at all',
        b'{"dims": [1, 1, 1], "spacing_mm": [1, 1, 1], "dtype": "i16", "note": "\xff"}',
        b"[" * 100_000 + b"]" * 100_000,
    ]
    for blob in bad:
        (tmp_path / "v.json").write_bytes(blob)
        with pytest.raises(FormatError):
            load_volume(tmp_path / "v.json")
    for spacing in ([1.0, 0.0, 1.0], "abc", "123", 5, [1, None, 1], [True, 1, 1],
                    [10 ** 400, 1, 1]):
        (tmp_path / "v.json").write_text(json.dumps(
            {"dims": [1, 1, 1], "spacing_mm": spacing, "dtype": "i16"}))
        with pytest.raises(ValidationError, match="spacing"):
            load_volume(tmp_path / "v.json")
    (tmp_path / "l.raw").write_bytes(b"\x01")
    for label_id in (True, -1, 1.0, "1", None):
        (tmp_path / "l.json").write_text(json.dumps(
            {"dims": [1, 1, 1], "dtype": "u8", "label_id": label_id}))
        with pytest.raises(ValidationError, match="label_id"):
            load_label_volume(tmp_path / "l.json")


def test_volume_constructor_validation():
    with pytest.raises(ValidationError):
        Volume(data=np.zeros((2, 2)), spacing=(1, 1, 1))
    for bad in (np.nan, np.inf, -np.inf):
        for dtype in (np.float32, np.float64):
            with pytest.raises(ValidationError, match="non-finite"):
                Volume(data=np.array([0, bad], dtype=dtype).reshape(2, 1, 1),
                       spacing=(1, 1, 1))
    with pytest.raises(ValidationError):
        Volume(data=np.zeros((1, 1, 1)), spacing=(1, -1, 1))
    with pytest.raises(ValidationError):
        LabelVolume(data=np.full((1, 1, 1), 3, dtype=np.uint8), label_id=1)
    with pytest.raises(ValidationError):
        LabelVolume(data=np.zeros((1, 1, 1), dtype=np.uint8), label_id=-2)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.bool_, object, "U1"])
def test_volume_takes_integer_or_real_floating_values(dtype):
    # A complex volume would lose its imaginary part in the attenuation.
    with pytest.raises(ValidationError, match="integer or real floating"):
        Volume(data=np.zeros((2, 1, 1), dtype=dtype), spacing=(1, 1, 1))


@pytest.mark.parametrize("bad", [1.9, 2.7, 1.0, True, np.bool_(True), -3, np.int64(-1), "1",
                                 None],
                         ids=["1.9", "2.7", "1.0", "true", "np-true", "-3", "np-minus-1",
                              "text", "none"])
@pytest.mark.parametrize("container", ["mask", "label"])
def test_containers_take_integer_label_ids_not_casts(container, bad):
    # The one id rule of io._nonneg_int: int() would turn 1.9 into 1 and
    # true into 1, and -3 is no label.
    data = np.zeros((2, 2) if container == "mask" else (2, 2, 2), dtype=np.uint8)
    with pytest.raises(ValidationError, match="label id must be a nonnegative integer"):
        if container == "mask":
            Mask2D(data=data, view=View.PA, spacing=(1, 1), label_id=bad)
        else:
            LabelVolume(data=data, label_id=bad)


def test_containers_keep_numpy_integer_label_ids_as_int():
    lab = LabelVolume(data=np.zeros((1, 1, 1), dtype=np.uint8), label_id=np.int64(7))
    mask = Mask2D(data=np.zeros((1, 1), dtype=np.uint8), view=View.LL, spacing=(1, 1),
                  label_id=np.uint16(3))
    assert (lab.label_id, mask.label_id) == (7, 3)
    assert type(lab.label_id) is int and type(mask.label_id) is int
    assert Mask2D(data=np.zeros((1, 1)), view=View.PA, spacing=(1, 1)).label_id == 0


def test_containers_are_immutable():
    vol = Volume(data=np.zeros((1, 2, 3), dtype=np.int16), spacing=(1, 1, 1))
    with pytest.raises((ValueError, RuntimeError)):
        vol.data[0, 0, 0] = 5
    mask = Mask2D(data=np.zeros((2, 2), dtype=np.uint8), view=View.PA, spacing=(1, 1))
    with pytest.raises((ValueError, RuntimeError)):
        mask.data[0, 0] = 1


def test_containers_leave_the_callers_array_writable():
    arrays = {
        "volume": np.zeros((2, 2, 2), dtype=np.int16),
        "label": np.zeros((2, 2, 2), dtype=np.uint8),
        "projection": np.zeros((2, 2)),
        "mask": np.zeros((2, 2), dtype=np.uint8),
    }
    containers = {
        "volume": Volume(data=arrays["volume"], spacing=(1, 1, 1)),
        "label": LabelVolume(data=arrays["label"], label_id=1),
        "projection": Projection(data=arrays["projection"], view=View.PA, spacing=(1, 1)),
        "mask": Mask2D(data=arrays["mask"], view=View.LL, spacing=(1, 1)),
    }
    for name, arr in arrays.items():
        data = containers[name].data
        assert np.shares_memory(data, arr), name      # frozen without a copy
        assert not data.flags.writeable, name
        with pytest.raises(ValueError):
            data[(0,) * arr.ndim] = 1
        arr[(0,) * arr.ndim] = 1                      # the caller's array is still theirs


_BINARY_CONTAINERS = {"mask": lambda data: Mask2D(data=data, view=View.PA, spacing=(1, 1)),
                      "label": lambda data: LabelVolume(data=data, label_id=1)}


@pytest.mark.parametrize("bad", [256, -255, 2, -1, 0.5, np.nan, np.inf],
                         ids=["256", "-255", "2", "-1", "0.5", "nan", "inf"])
@pytest.mark.parametrize("container", ["mask", "label"])
def test_binary_containers_check_values_before_the_cast(container, bad):
    # Cast to uint8 first, 256 and NaN become 0 and -255 becomes 1.
    shape = (2, 2) if container == "mask" else (2, 2, 2)
    data = np.zeros(shape, dtype=np.asarray(bad).dtype)
    data.flat[1] = bad
    with pytest.raises(ValidationError, match="must be 0 or 1"):
        _BINARY_CONTAINERS[container](data)
    data.flat[1] = 1
    assert _BINARY_CONTAINERS[container](data).data.tolist() == data.tolist()


@pytest.mark.parametrize("container", ["mask", "label"])
def test_binary_containers_view_a_bool_array(container):
    shape = (3, 2) if container == "mask" else (3, 2, 2)
    data = np.zeros(shape, dtype=bool)
    data.flat[[0, 3]] = True
    stored = _BINARY_CONTAINERS[container](data).data
    assert stored.dtype == np.uint8
    assert np.shares_memory(stored, data)
    assert stored.tolist() == data.astype(np.uint8).tolist()


def test_save_volume_range_checks(tmp_path):
    vol = Volume(data=np.full((1, 1, 1), 40000.0), spacing=(1, 1, 1))
    with pytest.raises(ValidationError):
        save_volume(vol, tmp_path / "v")
    vol2 = Volume(data=np.full((1, 1, 1), 0.5), spacing=(1, 1, 1))
    with pytest.raises(ValidationError):
        save_volume(vol2, tmp_path / "v")


def test_pgm_1x1_exact_bytes(tmp_path):
    proj = Projection(data=np.array([[255]], dtype=np.uint8), view=View.PA,
                      spacing=(1, 1), normalized=True)
    save_projection(proj, tmp_path / "p.pgm")
    assert (tmp_path / "p.pgm").read_bytes() == b"P5\n1 1\n255\n\xff"


def test_pgm_2x1_payload_bytes(tmp_path):
    proj = Projection(data=np.array([[0, 128]], dtype=np.uint8), view=View.PA,
                      spacing=(1, 1), normalized=True)
    save_projection(proj, tmp_path / "p.pgm")
    raw = (tmp_path / "p.pgm").read_bytes()
    assert raw == b"P5\n2 1\n255\n" + b"\x00\x80"


def test_projection_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    for case in range(10):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        data = rng.integers(0, 256, size=shape).astype(np.uint8)
        proj = Projection(data=data, view=View.LL, spacing=(1, 1), normalized=True)
        save_projection(proj, tmp_path / "p.pgm")
        back = load_projection(tmp_path / "p.pgm", view=View.LL)
        assert np.array_equal(back.data, data)
        assert back.normalized


def test_save_raw_projection_rejected(tmp_path):
    proj = Projection(data=np.ones((2, 2)), view=View.PA, spacing=(1, 1))
    with pytest.raises(ValidationError, match="normalized"):
        save_projection(proj, tmp_path / "p.pgm")


def test_mask_round_trips(tmp_path):
    zero = Mask2D(data=np.zeros((4, 6), dtype=np.uint8), view=View.PA, spacing=(1, 1))
    save_mask(zero, tmp_path / "z.pgm")
    assert np.array_equal(load_mask(tmp_path / "z.pgm", view=View.PA).data, zero.data)

    single = np.zeros((7, 9), dtype=np.uint8)
    single[3, 5] = 1
    m = Mask2D(data=single, view=View.PA, spacing=(1, 1))
    save_mask(m, tmp_path / "s.pgm")
    back = load_mask(tmp_path / "s.pgm", view=View.PA)
    assert np.array_equal(back.data, single)

    rng = np.random.default_rng(5)
    for case in range(10):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        data = (rng.random(size=shape) < 0.5).astype(np.uint8)
        save_mask(Mask2D(data=data, view=View.LL, spacing=(1, 1)), tmp_path / "r.pgm")
        assert np.array_equal(load_mask(tmp_path / "r.pgm", view=View.LL).data, data)


def test_mask_foreground_stored_as_255(tmp_path):
    m = Mask2D(data=np.array([[0, 1]], dtype=np.uint8), view=View.PA, spacing=(1, 1))
    save_mask(m, tmp_path / "m.pgm")
    assert (tmp_path / "m.pgm").read_bytes().endswith(b"\x00\xff")


def test_mask_load_maps_any_nonzero_to_one(tmp_path):
    (tmp_path / "m.pgm").write_bytes(b"P5\n4 1\n255\n" + bytes([0, 7, 200, 255]))
    back = load_mask(tmp_path / "m.pgm", view=View.PA)
    assert back.data.dtype == np.uint8
    assert back.data.tolist() == [[0, 1, 1, 1]]


@pytest.mark.parametrize("header,values", [
    (b"P5\n4 3\n255\n", (0, 255)),
    (b"P5\n4 3\n255\n", (0, 1)),
    (b"P5 # made by hand\n4\t3\r# rows\n255\n", (0, 9)),
], ids=["0-255", "0-1", "comments"])
def test_load_mask_digest_is_of_the_file_as_read(tmp_path, header, values):
    # The buffer is hashed before it is binarized in place, so the digest is
    # that of the file's bytes, whatever its foreground value.
    pixels = np.array(values, dtype=np.uint8)[np.arange(12).reshape(3, 4) % 3 % 2]
    blob = header + pixels.tobytes()
    (tmp_path / "m.pgm").write_bytes(blob)
    digests = {}
    mask = load_mask(tmp_path / "m.pgm", View.PA, _digests=digests, _name="masks/m.pgm")
    assert digests == {"masks/m.pgm": hashlib.sha256(blob).hexdigest()}
    assert np.array_equal(mask.data, pixels != 0)
    assert (tmp_path / "m.pgm").read_bytes() == blob


def test_load_mask_holds_one_buffer(tmp_path):
    # The file is read into one buffer and binarized in place: no bytes
    # object beside it, and no bool copy.
    rng = np.random.default_rng(0)
    save_mask(Mask2D(data=rng.integers(0, 2, (1024, 1024), dtype=np.uint8), view=View.PA,
                     spacing=(1, 1)), tmp_path / "m.pgm")
    size = (tmp_path / "m.pgm").stat().st_size
    tracemalloc.start()
    try:
        mask = load_mask(tmp_path / "m.pgm", View.PA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * size, (peak, size)
    assert mask.data.sum() > 0


# Three readers of a 27-byte file, each through io's one reader; the mask's
# cases keep their plain ids.
_READ_27 = {
    "load_mask": ("m.pgm", b"P5\n4 4\n255\n" + bytes(16), lambda path: load_mask(path, View.PA)),
    "load_projection": ("p.pgm", b"P5\n4 4\n255\n" + bytes(16),
                        lambda path: load_projection(path, View.PA)),
    "_load_json_file": ("d.json", b'{"a": [1, 2, 3, 4, 5, 678]}', io._load_json_file),
}
_CHANGES = {
    "shrinks": (lambda path: os.truncate(path, 20), "file ended after 20 bytes, fstat reported 27"),
    "grows": (lambda path: path.write_bytes(bytes(28)), "file runs past the 27 bytes fstat reported"),
}


@pytest.mark.parametrize("reader,change", [
    pytest.param(reader, change, id=change if reader == "load_mask" else f"{reader}-{change}")
    for reader in _READ_27 for change in _CHANGES])
def test_pgm_that_changes_after_fstat_is_refused(tmp_path, monkeypatch, reader, change):
    name, blob, load = _READ_27[reader]
    change, message = _CHANGES[change]
    path = tmp_path / name
    path.write_bytes(blob)

    def fstat_then_change(fd):
        st = os.fstat(fd)
        change(path)
        return st

    monkeypatch.setattr(io, "os", types.SimpleNamespace(fstat=fstat_then_change))
    with pytest.raises(FormatError, match=f"{name}: {message}"):
        load(path)


def test_pgm_malformed_headers(tmp_path):
    cases = [
        b"P4\n1 1\n255\n\x00",                  # wrong magic
        b"P5\n1 1\n254\n\x00",                  # wrong maxval
        b"P5\n2 1\n255\n\x00",                  # payload too short
        b"P5\n1 1\n255\n\x00\x00",              # payload too long
        b"P5\n0 1\n255\n",                      # zero dimension
        b"P5\n1\n255\n\x00",                    # missing height
        b"P5\nx 1\n255\n\x00",                  # non-numeric
        b"P5\n1_6 +16\n0_255\n" + bytes(256),    # int() takes these, PGM does not
        b"P5\n16 +16\n255\n" + bytes(256),
        b"P5\n16 16.0\n255\n" + bytes(256),
        b"P5\n16 16\n255#\n" + bytes(256),      # no whitespace byte before the payload
        b"P516 16\n255\n" + bytes(256),         # no separator after the magic
    ]
    for blob in cases:
        (tmp_path / "bad.pgm").write_bytes(blob)
        with pytest.raises(FormatError):
            load_mask(tmp_path / "bad.pgm", view=View.PA)


def test_pgm_comments_in_header(tmp_path):
    (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n2 1\n255\n\x01\x02")
    back = load_projection(tmp_path / "c.pgm", view=View.PA)
    assert back.data.tolist() == [[1, 2]]


_PGM_WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
# A comment runs from # to the end of its line; its text may hold any other byte.
_PGM_COMMENT = st.builds(lambda text, end: b"#" + text.translate(None, b"\r\n") + end,
                         st.binary(max_size=8), st.sampled_from([b"\n", b"\r"]))
_PGM_SEPARATOR = st.lists(_PGM_WHITESPACE | _PGM_COMMENT, min_size=1, max_size=3).map(b"".join)


# Derandomized, so the suite runs the same examples every time.
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(arrays(np.uint8, st.tuples(st.integers(1, 6), st.integers(1, 6))),
       st.lists(_PGM_SEPARATOR, min_size=3, max_size=3), _PGM_WHITESPACE)
def test_pgm_round_trips_with_comments_in_its_header(arr, separators, last):
    blob = _encode_pgm(arr)
    payload = blob[len(blob) - arr.size:]
    tokens = blob[:len(blob) - arr.size].split()
    header = tokens[0] + b"".join(sep + tok for sep, tok in zip(separators, tokens[1:]))
    back = _parse_pgm(header + last + payload, "fuzzed.pgm")
    np.testing.assert_array_equal(back, arr)


def test_sidecar_json_is_valid_json(tmp_path):
    vol = Volume(data=np.zeros((2, 3, 4), dtype=np.int16), spacing=(1, 2, 3))
    save_volume(vol, tmp_path / "v")
    meta = json.loads((tmp_path / "v.json").read_text())
    assert meta["dims"] == [2, 3, 4]
    assert meta["dtype"] == "i16"
    assert meta["spacing_mm"] == [1.0, 2.0, 3.0]


def test_sidecar_repeating_a_key_is_a_format_error(tmp_path):
    # The last "dims" alone would match the 2-byte payload.
    (tmp_path / "v.json").write_text('{"dims": [2, 2, 2], "spacing_mm": [1.0, 1.0, 1.0], '
                                     '"dtype": "i16", "dims": [1, 1, 1]}')
    (tmp_path / "v.raw").write_bytes(b"\x00\x00")
    with pytest.raises(FormatError, match=r"v\.json: invalid JSON: repeated keys \['dims'\]"):
        load_volume(tmp_path / "v.json")


def test_save_volume_dotted_name_keeps_every_dot(tmp_path):
    vol = Volume(data=np.arange(24, dtype=np.int16).reshape(2, 3, 4), spacing=(1, 1, 1))
    save_volume(vol, tmp_path / "s.01.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.01.json", "s.01.raw"]
    np.testing.assert_array_equal(load_volume(tmp_path / "s.01").data, vol.data)


# --- 8-connected labelling ------------------------------------------------------

def _check_label8(fg):
    # The flood-fill oracle lists components in raster order of their first
    # pixel, which is the numbering _label8 promises.
    comps = oracles.flood_components(fg)
    want = np.zeros(fg.shape, dtype=np.int32)
    for k, comp in enumerate(comps, start=1):
        for y, x in comp:
            want[y, x] = k
    first, end = _runs(fg)
    component, n = _label_runs(first, end, fg.shape[1])
    assert n == len(comps)
    # Runs are maximal, nonempty and in raster order: each starts past the
    # previous run's end, with a gap when both lie in the same row.
    assert np.all(first < end) and np.all(first[1:] > end[:-1])
    # Flat indices count one background column before each row.
    row, start = np.divmod(first - 1, fg.shape[1] + 1)
    stop = end - 1 - row * (fg.shape[1] + 1)
    painted = np.zeros(fg.shape, dtype=np.int32)
    for r, s, e, c in zip(row, start, stop, component):
        painted[r, s:e] = c
    np.testing.assert_array_equal(painted, want)
    np.testing.assert_array_equal(_paint_runs(fg, first, end, component), want)
    assert _component_sizes(first, end, component, n).tolist() == [0] + [len(c) for c in comps]


def _serpentine(h, w):
    # One path that fills every other row and turns at alternate ends.
    fg = np.zeros((h, w), dtype=bool)
    fg[::2] = True
    for r in range(1, h, 2):
        fg[r, w - 1 if r % 4 == 1 else 0] = True
    return fg


@pytest.mark.parametrize("fg", [
    np.ones((1, 9), dtype=bool), np.ones((9, 1), dtype=bool),
    np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=bool), np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=bool).T,
    np.ones((7, 5), dtype=bool), np.zeros((7, 5), dtype=bool),
    np.zeros((1, 1), dtype=bool), np.ones((1, 1), dtype=bool),
    _serpentine(15, 9), _serpentine(15, 9)[::-1], _serpentine(15, 9).T,
    np.eye(8, dtype=bool), np.eye(8, dtype=bool)[::-1],
    np.indices((9, 9)).sum(axis=0) % 2 == 0,
], ids=["1xN", "Nx1", "1xN-gaps", "Nx1-gaps", "full", "empty", "one-empty", "one-full",
        "serpentine", "serpentine-flipped", "serpentine-transposed", "diagonal",
        "antidiagonal", "checkerboard"])
def test_label8_matches_flood_fill_on_fixed_masks(fg):
    _check_label8(fg)


# Derandomized, so the suite runs the same examples every time.
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24))))
def test_label8_matches_flood_fill_on_random_masks(fg):
    _check_label8(fg)


# The block size sets only how many rows _runs passes through its buffer at
# once; one row per block and blocks that end mid-row both hold whole rows.
@pytest.mark.parametrize("block", [1, 2, 7, 64])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(fg=arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24))))
def test_label8_run_block_changes_no_result(block, fg):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_rowruns, "_RUN_BLOCK", block)
        _check_label8(fg)


def test_as_binary_views_a_mask_without_copying():
    data = np.zeros((3, 4), dtype=np.uint8)
    data[1, 2] = 1
    mask = Mask2D(data=data, view=View.PA, spacing=(1.0, 1.0))
    fg = _as_binary(mask)
    assert fg.dtype == bool and np.shares_memory(fg, mask.data)
    assert not fg.flags.writeable
    np.testing.assert_array_equal(fg, data != 0)
