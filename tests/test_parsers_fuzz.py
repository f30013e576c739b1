"""Fuzzing of the input parsers: any input either parses or raises a MonoPGCError.

Each parser gets arbitrary text or bytes, plus inputs built from its own
grammar (the right keys and field counts, odd numbers and tokens in the
fields), which reach the checks past the first one. The file readers get
the same inputs as file contents, with a byte that is not UTF-8 put in,
and also a missing path and a directory. A config that parses must also
pass `validate()` or raise a MonoPGCError.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monopgc import data
from monopgc.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from monopgc.config import KEYMAP, load_config, parse_config_text
from monopgc.errors import ConfigError, FormatError, MonoPGCError, ParseError

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
@example("grid.stride=0")
def test_config_text(text):
    _parses_or_typed(lambda t: parse_config_text(t).validate(), text)


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


READERS = {"label": data.read_label_file, "calib": data.read_calib_file, "config": load_config,
           "checkpoint": load_checkpoint, "image": data.load_image}


def _with_stray_byte(text, at, byte):
    raw = text.encode()
    at %= len(raw) + 1
    return raw[:at] + bytes([byte]) + raw[at:]


file_contents = st.one_of(
    st.binary(), ppm_blobs, manifests,
    st.builds(_with_stray_byte, st.one_of(st.text(), label_lines, calib_texts, config_texts),
              st.integers(0, 400), st.integers(0x80, 0xFF)))


@pytest.mark.parametrize("reader", sorted(READERS))
@FUZZ
@given(raw=file_contents)
def test_file_reader(tmp_path_factory, reader, raw):
    path = tmp_path_factory.getbasetemp() / f"fuzz.{reader}"
    path.write_bytes(raw)
    _parses_or_typed(READERS[reader], path)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_file_reader_names_a_missing_or_unreadable_path(tmp_path, reader):
    with pytest.raises(MonoPGCError, match="does not exist"):
        READERS[reader](tmp_path / "missing")
    with pytest.raises(MonoPGCError, match=f"cannot read .*{tmp_path.name}"):
        READERS[reader](tmp_path)


CAR = "Car 0 0 0 10 10 40 40 1.5 1.6 3.9 0 1.5 15 0"
MALFORMED = {
    # reader: (what its errors name, contents, error type, the parser's own message)
    "label": ("label file", CAR.replace(" 40 40 ", " 5 40 ").encode(), ParseError,
              "degenerate 2D box"),
    "calib": ("calibration file", b"P0: 1 0 0 0 0 1 0 0 0 0 1 0\n", ParseError, "no P2 line"),
    "config": ("config file", b"optim.steps=2\nmodel.nope=1\n", ConfigError,
               "config line 2: unknown key"),
    "checkpoint": ("checkpoint", None, FormatError, "payload length"),
    "image": ("image", b"P6 2 2 255\n" + bytes(11), FormatError, "truncated PPM payload"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_file_reader_names_a_malformed_file(tmp_path, valid_ckpt, reader):
    what, raw, error, message = MALFORMED[reader]
    path = tmp_path / f"bad.{reader}"
    path.write_bytes(valid_ckpt[:-1] if raw is None else raw)
    with pytest.raises(error) as exc:
        READERS[reader](path)
    assert str(exc.value).startswith(f"{what} {path}: ") and message in str(exc.value)
