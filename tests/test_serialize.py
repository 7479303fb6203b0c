import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avqa_debias.serialize import (
    FEATURES_MAGIC,
    FORMAT_VERSION,
    MODEL_MAGIC,
    FormatError,
    read_features,
    read_model,
    write_features,
    write_model,
)


def three(n, d=3):
    """A (3, n, d) feature array with distinct entries."""
    return np.arange(3 * n * d, dtype=float).reshape(3, n, d) + 0.5


def interleaved(x):
    """The body of a features file, built one vector at a time: per sample,
    its audio, video and question vectors."""
    return b"".join(x[m, i].astype("<f8").tobytes() for i in range(x.shape[1]) for m in range(3))


def test_features_round_trip(tmp_path):
    x = np.random.default_rng(0).standard_normal((3, 5, 4))
    path = tmp_path / "x.features"
    write_features(path, x)
    back = read_features(path)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert np.array_equal(x, back)


def test_features_rows_interleave_on_disk(tmp_path):
    # per sample: audio, video, then question vector, after a 24-byte header
    x = three(2)
    p = tmp_path / "x"
    write_features(p, x)
    body = np.frombuffer(p.read_bytes()[24:], dtype="<f8")
    a, v, q = x
    assert np.array_equal(body, np.concatenate([a[0], v[0], q[0], a[1], v[1], q[1]]))


def test_features_deterministic_bytes(tmp_path):
    x = three(1)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    write_features(p1, x)
    write_features(p2, x)
    assert p1.read_bytes() == p2.read_bytes()


@settings(deadline=None, max_examples=50)
@given(n=st.integers(1, 600), d=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
@example(n=256, d=3, seed=0)
@example(n=257, d=16, seed=0)
def test_features_bytes_are_one_interleaved_matrix(tmp_path_factory, n, d, seed):
    # rows are interleaved a chunk at a time; the file must still be the
    # header followed by each sample's three vectors, and read back as the
    # array that was written
    x = np.random.default_rng(seed).standard_normal((3, n, d))
    path = tmp_path_factory.getbasetemp() / "chunked.features"
    write_features(path, x)
    header = FEATURES_MAGIC + struct.pack("<IIIII", FORMAT_VERSION, n, d, d, d)
    assert path.read_bytes() == header + interleaved(x)
    back = read_features(path)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert np.array_equal(back, x)


def test_features_errors(tmp_path):
    with pytest.raises(FormatError, match="no feature rows"):
        write_features(tmp_path / "x", three(0))
    x = three(2)
    with pytest.raises(FormatError, match="shape"):
        write_features(tmp_path / "x", x[:2])
    with pytest.raises(FormatError, match="shape"):
        write_features(tmp_path / "x", x[0])
    p = tmp_path / "junk"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError, match="not a features file"):
        read_features(p)
    for value in (np.nan, np.inf, -np.inf):
        x[2, 1, 0] = value
        write_features(p, x)
        with pytest.raises(FormatError) as info:
            read_features(p)
        assert str(info.value) == f"{p}: non-finite feature value"


@pytest.mark.parametrize("widths", [(8, 4, 8), (4, 8, 8), (8, 8, 4), (0, 0, 1)])
def test_features_unequal_widths(tmp_path, widths):
    # no writer produces such a header; the three modalities share one width
    p = tmp_path / "x.features"
    header = FEATURES_MAGIC + struct.pack("<IIIII", FORMAT_VERSION, 1, *widths)
    p.write_bytes(header + b"\x00" * 8 * sum(widths))
    da, dv, dq = widths
    with pytest.raises(FormatError) as info:
        read_features(p)
    assert str(info.value) == f"{p}: modality widths {da}, {dv} and {dq} differ"


def test_features_truncation_and_trailing(tmp_path):
    p = tmp_path / "x"
    write_features(p, three(1))
    blob = p.read_bytes()
    p.write_bytes(blob[:-4])
    with pytest.raises(FormatError, match="truncated"):
        read_features(p)
    p.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_features(p)
    # a sample count far beyond the file's size
    p.write_bytes(blob[:8] + b"\xff\xff\xff\xff" + blob[12:])
    with pytest.raises(FormatError, match="truncated feature data"):
        read_features(p)


@pytest.mark.parametrize("cut", [4, 10, 23])
def test_features_short_header(tmp_path, cut):
    p = tmp_path / "x.features"
    write_features(p, three(1))
    p.write_bytes(p.read_bytes()[:cut])
    with pytest.raises(FormatError, match=r"x\.features: truncated header"):
        read_features(p)


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    params = {"enc_W": rng.standard_normal((3, 4)), "enc_b": rng.standard_normal(3)}
    path = tmp_path / "m.bin"
    write_model(path, params)
    back = read_model(path)
    assert set(back) == set(params)
    for k in params:
        assert np.array_equal(params[k], back[k])


@pytest.mark.parametrize("body, what", [
    (struct.pack("<II", FORMAT_VERSION, 2) + struct.pack("<HcBId", 1, b"w", 1, 1, 1.0)
     + struct.pack("<HcBId", 1, b"w", 1, 1, 2.0), "parameter 'w' appears twice"),
    (struct.pack("<II", FORMAT_VERSION, 1) + struct.pack("<HcBId", 1, b"w", 1, 1, 1.0) + b"junk",
     "trailing bytes after the last parameter"),
], ids=["repeated_name", "trailing_bytes"])
def test_model_repeated_name_and_trailing_bytes(tmp_path, body, what):
    p = tmp_path / "m.bin"
    p.write_bytes(MODEL_MAGIC + body)
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: {what}$"):
        read_model(p)


def test_model_bad_magic(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(FormatError, match="not a model file"):
        read_model(p)


# Cut points in a model file holding one parameter "w" of shape (2,):
# magic 0-4, version 4-8, count 8-12, name length 12-14, name 14-15,
# ndim 15-16, shape 16-20, data 20-36.
@pytest.mark.parametrize(
    "cut, what",
    [
        (6, "header"),
        (10, "header"),
        (13, "parameter name length"),
        (14, "parameter name"),
        (15, "rank of 'w'"),
        (18, "shape of 'w'"),
        (30, "parameter 'w'"),
    ],
)
def test_model_short_reads(tmp_path, cut, what):
    p = tmp_path / "m.bin"
    write_model(p, {"w": np.array([1.0, 2.0])})
    assert len(p.read_bytes()) == 36
    p.write_bytes(p.read_bytes()[:cut])
    with pytest.raises(FormatError, match=f"m\\.bin: truncated {re.escape(what)}$"):
        read_model(p)


def model_bytes(*fields: bytes) -> bytes:
    """A current-version model file of one parameter, given its fields after the count."""
    return MODEL_MAGIC + struct.pack("<II", FORMAT_VERSION, 1) + b"".join(fields)


# A file is a known prefix followed by fields of the widths both formats use,
# so that inputs get past the magic and version checks.
_PREFIX = st.sampled_from([
    b"", FEATURES_MAGIC + struct.pack("<I", FORMAT_VERSION),
    MODEL_MAGIC + struct.pack("<I", FORMAT_VERSION),
])
_FIELD = (
    st.binary(max_size=8)
    | st.integers(0, 255).map(lambda v: struct.pack("<B", v))
    | st.integers(0, 2**16 - 1).map(lambda v: struct.pack("<H", v))
    | st.sampled_from([0, 1, 2, 3, 65536, 2**32 - 1]).map(lambda v: struct.pack("<I", v))
)


@pytest.mark.parametrize("read", [read_features, read_model])
@settings(deadline=None)
@given(prefix=_PREFIX, fields=st.lists(_FIELD, max_size=10))
@example(prefix=b"", fields=[model_bytes(struct.pack("<H", 1), b"\xff")])
@example(prefix=b"", fields=[model_bytes(struct.pack("<HcB4I", 1, b"w", 4, *[65536] * 4))])
# a parameter named twice; one parameter followed by junk bytes
@example(prefix=b"", fields=[MODEL_MAGIC + struct.pack("<II", FORMAT_VERSION, 2),
                             *[struct.pack("<HcBId", 1, b"w", 1, 1, v) for v in (1.0, 2.0)]])
@example(prefix=b"", fields=[model_bytes(struct.pack("<HcBId", 1, b"w", 1, 1, 1.0)), b"junk"])
@example(prefix=b"", fields=[model_bytes(struct.pack("<HcB", 1, b"w", 65), b"\x01\0\0\0" * 65,
                                         b"\0" * 8)])
def test_binary_reader_fuzz(tmp_path_factory, read, prefix, fields):
    """Any bytes either parse or raise a FormatError that starts with the path."""
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(prefix + b"".join(fields))
    try:
        read(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
