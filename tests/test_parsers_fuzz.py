"""Fuzzing of the input parsers: any input either parses or raises a MonoPGCError.

Each parser gets arbitrary text or bytes, plus inputs built from its own
grammar (the right keys and field counts, odd numbers and tokens in the
fields), which reach the checks past the first one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monopgc import data
from monopgc.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from monopgc.config import KEYMAP, parse_config_text
from monopgc.errors import MonoPGCError

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

FLOATS = st.one_of(
    st.floats().map(repr),
    st.integers(-10, 10).map(str),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "-0", "1_0"]),
)
NUMBERS = FLOATS | st.sampled_from(["0x10", "", "-", "."]) | st.text(max_size=4)


def _parses_or_typed(parse, arg):
    try:
        parse(arg)
    except MonoPGCError:
        pass


label_lines = st.builds(
    lambda name, fields, sep: sep.join([name] + fields),
    st.sampled_from(["Car", "Pedestrian", "DontCare"]) | st.text(max_size=5),
    st.lists(FLOATS, min_size=14, max_size=15) | st.lists(NUMBERS, min_size=13, max_size=16),
    st.sampled_from([" ", "\t", "  "]))


@FUZZ
@given(st.one_of(st.text(), label_lines))
def test_kitti_label(line):
    _parses_or_typed(data.parse_kitti_label, line)


calib_texts = st.lists(st.builds(
    lambda key, sep, fields: f"{key}{sep}" + " ".join(fields),
    st.sampled_from(["P2", "P0", "R0_rect"]) | st.text(max_size=4),
    st.sampled_from([": ", ":", " "]),
    st.lists(FLOATS, min_size=12, max_size=12) | st.lists(NUMBERS, min_size=10, max_size=13)
)).map("\n".join)


@FUZZ
@given(st.one_of(st.text(), calib_texts))
def test_kitti_calib(text):
    _parses_or_typed(data.parse_kitti_calib, text)


header_ints = st.integers(-2, 6).map(lambda i: str(i).encode()) | st.binary(max_size=3)
ppm_blobs = st.builds(
    lambda magic, sep, w, h, maxval, payload: sep.join([magic, w, h, maxval]) + b"\n" + payload,
    st.sampled_from([b"P6", b"P3", b"P5"]),
    st.sampled_from([b" ", b"\n", b"\n# c\n", b"\t"]),
    header_ints, header_ints,
    st.sampled_from([b"255", b"65535", b"0"]) | st.binary(max_size=3),
    st.binary(max_size=120))


@FUZZ
@given(st.one_of(st.binary(), ppm_blobs))
def test_ppm(raw):
    _parses_or_typed(data.decode_ppm, raw)


config_texts = st.lists(st.builds(
    lambda key, sep, value: f"{key}{sep}{value}",
    st.sampled_from(sorted(KEYMAP)) | st.text(max_size=8),
    st.sampled_from(["=", " = ", ":", ""]),
    NUMBERS | st.sampled_from(["on", "off", "Car,Pedestrian", ",", "dgpe", "kitti"]))
).map("\n".join)


@FUZZ
@given(st.one_of(st.text(), config_texts))
def test_config_text(text):
    _parses_or_typed(parse_config_text, text)


@pytest.fixture(scope="module")
def ckpt_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.ckpt"


@pytest.fixture(scope="module")
def valid_ckpt(ckpt_path):
    params = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "s": np.array(2.0)}
    save_checkpoint(ckpt_path, params, step=3, config_hash="cafe",
                    extra_arrays={"adam_m:a": np.ones((2, 3), np.float32)}, meta={"adam_t": 3})
    return ckpt_path.read_bytes()


tensor_lines = st.builds(
    lambda name, code, shape, offset, nbytes: f"tensor {name} {code} {shape} {offset} {nbytes}",
    st.sampled_from(["param:a", "adam_m:a", "x"]) | st.text(max_size=4),
    st.sampled_from(["f4", "f8", "i4"]),
    st.sampled_from(["()", "2", "2,3", "-1", "0", "", "1,-1"]) | st.text(max_size=3),
    st.integers(-4, 64), st.integers(-4, 64))
manifests = st.builds(
    lambda lines, payload, delta: ("\n".join([MAGIC] + lines)
                                   + f"\nPAYLOAD {len(payload) + delta}\n").encode()
    + payload,
    st.lists(tensor_lines | st.sampled_from(["meta step 3", "meta step x", "meta k v", "junk"])),
    st.binary(max_size=64), st.sampled_from([0, 0, 0, 1, -1]))


def _mutated(blob, at, cut, byte):
    """A valid checkpoint with one byte replaced, then cut short."""
    at %= len(blob)
    return (blob[:at] + bytes([byte]) + blob[at + 1:])[:len(blob) - cut]


@FUZZ
@given(st.one_of(st.binary(), manifests,
                 st.tuples(st.integers(0, 10_000), st.integers(0, 8), st.integers(0, 255))),
       )
def test_checkpoint(ckpt_path, valid_ckpt, blob):
    if isinstance(blob, tuple):
        blob = _mutated(valid_ckpt, *blob)
    ckpt_path.write_bytes(blob)
    _parses_or_typed(load_checkpoint, ckpt_path)
