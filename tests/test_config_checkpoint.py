from dataclasses import fields, replace

import numpy as np
import pytest

from monopgc import numerics as nm
from monopgc.checkpoint import load_checkpoint, save_checkpoint
from monopgc.config import KEYMAP, RunConfig, load_config, parse_config_text
from monopgc.errors import ConfigError, FormatError
from monopgc.numerics import Tensor


class TestConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.depth_min == 2.0
        assert cfg.depth_max == 46.8
        assert cfg.depth_bins == 64
        assert cfg.grid_stride == 16
        assert cfg.lr_initial == pytest.approx(2.25e-4)
        assert cfg.lr_peak == pytest.approx(2.25e-3)

    def test_parse_and_round_trip(self):
        text = "depth.bins=32\nmodel.pe=sinusoidal\noptim.steps=7\nrun.seed=9\n"
        cfg = parse_config_text(text)
        assert cfg.depth_bins == 32
        assert cfg.pe == "sinusoidal"
        assert cfg.steps == 7
        assert cfg.seed == 9
        again = parse_config_text(cfg.to_text())
        assert again == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\nmodel.channels=16  # inline\n")
        assert cfg.channels == 16

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("nope.nope=1")

    @pytest.mark.parametrize("line", ["optim.checkpoint_every=0", "grid.roi_y=3.0"])
    def test_removed_checkpoint_every_is_unknown(self, line):
        # config.txt files written before these keys were removed carry these lines
        key = line.partition("=")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(line)

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("depth.bins=many")

    def test_fusion_needs_96_pixels_a_side(self):
        # pyramid pooling's 6x6 scale of the 1/16 level
        RunConfig(image_height=96, image_width=96).validate()
        for h, w in ((80, 96), (96, 80)):
            with pytest.raises(ConfigError, match="data.image_height x data.image_width"):
                RunConfig(image_height=h, image_width=w).validate()
            RunConfig(image_height=h, image_width=w, use_dcpm=False, pe="ape").validate()

    def test_depth_pe_requires_dcpm(self):
        cfg = parse_config_text("model.dcpm=off\nmodel.pe=dgpe\n")
        with pytest.raises(ConfigError, match="dcpm"):
            cfg.validate()

    def test_invalid_pe_kind(self):
        cfg = parse_config_text("model.pe=fourier")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_model_hash_tracks_architecture(self):
        a = RunConfig()
        b = parse_config_text("model.channels=16")
        c = parse_config_text("optim.epochs=33")
        assert a.model_hash() != b.model_hash()
        assert a.model_hash() == c.model_hash()  # optimizer settings don't gate loading

    def test_default_model_hash_is_pinned(self):
        # checkpoints written by earlier versions carry this hash
        assert RunConfig().model_hash() == "fefcdc397fc7d090"

    @pytest.mark.parametrize("f", fields(RunConfig), ids=lambda f: f.name)
    def test_model_hash_moves_exactly_for_model_fields(self, f):
        changed = replace(RunConfig(), **{f.name: _other(f.default)})
        assert (changed.model_hash() != RunConfig().model_hash()) == f.metadata["model"]

    @pytest.mark.parametrize("key", sorted(KEYMAP))
    def test_every_key_round_trips_through_text(self, key):
        attr = KEYMAP[key][0]
        cfg = replace(RunConfig(), **{attr: _other(getattr(RunConfig(), attr))})
        assert f"{key}=" in cfg.to_text()
        assert parse_config_text(cfg.to_text()) == cfg

    def test_file_loading(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("synth.scenes=5\n")
        assert load_config(p).scenes == 5

    def test_total_steps(self):
        cfg = parse_config_text("optim.epochs=3\noptim.batch_size=4\n")
        assert cfg.total_steps(10) == 9  # ceil(10/4)=3 batches x 3 epochs
        assert parse_config_text("optim.steps=17").total_steps(10) == 17


def _other(value):
    """A value of the same type as `value` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, tuple):
        return value + ("Pedestrian",)
    return value + (1 if isinstance(value, (int, float)) else "x")


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"a.w": nm.parameter(rng.standard_normal((3, 4))),
                  "b.bias": nm.parameter(rng.standard_normal(5))}
        extra = {"adam_m:a.w": rng.standard_normal((3, 4)).astype(np.float32)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, step=42, config_hash="cafe", extra_arrays=extra,
                        meta={"adam_t": 42})
        loaded = load_checkpoint(path)
        assert loaded["meta"]["step"] == 42
        assert loaded["meta"]["config_hash"] == "cafe"
        assert loaded["meta"]["adam_t"] == "42"
        np.testing.assert_array_equal(loaded["params"]["a.w"], params["a.w"].data)
        np.testing.assert_array_equal(loaded["params"]["b.bias"], params["b.bias"].data)
        np.testing.assert_array_equal(loaded["extra"]["adam_m:a.w"], extra["adam_m:a.w"])
        assert loaded["params"]["a.w"].dtype == params["a.w"].data.dtype

    def test_scalar_and_shapes(self, tmp_path):
        params = {"s": Tensor(np.float32(3.5))}
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded["params"]["s"].reshape(()) == np.float32(3.5)

    def test_zero_d_extra_array_round_trips(self, tmp_path):
        extra = {"t": np.array(7.0), "v": np.array([7.0])}
        path = tmp_path / "z.ckpt"
        save_checkpoint(path, {}, extra_arrays=extra)
        loaded = load_checkpoint(path)["extra"]
        assert loaded["t"].shape == () and loaded["t"] == 7.0
        assert loaded["v"].shape == (1,)

    def test_reads_scalar_written_as_shape_1(self, tmp_path):
        # older files stored a 0-d array with the manifest shape "1"
        raw = np.array(2.5, dtype="<f8").tobytes()
        path = tmp_path / "old.ckpt"
        path.write_bytes(("MONOPGC-CKPT 1\nmeta step 3\nmeta config_hash \n"
                          f"tensor t f8 1 0 {len(raw)}\nPAYLOAD {len(raw)}\n").encode() + raw)
        loaded = load_checkpoint(path)
        assert loaded["meta"]["step"] == 3
        np.testing.assert_array_equal(loaded["extra"]["t"], [2.5])

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(FormatError):
            load_checkpoint(p)

    @pytest.mark.parametrize("good, bad", [
        pytest.param(b" f8 3 0 24\n", b" f8 x 0 24\n", id="shape-token"),
        pytest.param(b" f8 3 0 24\n", b" f8 2 0 24\n", id="shape-vs-bytes"),
        pytest.param(b" f8 3 0 24\n", b" f8 3 0 2x\n", id="length-token"),
        pytest.param(b" f8 3 0 24\n", b" f8 3 8 24\n", id="past-payload"),
        pytest.param(b" f8 3 0 24\n", b" f8 3 0\n", id="missing-field"),
        pytest.param(b"PAYLOAD 24\n", b"PAYLOAD zz\n", id="payload-count"),
        pytest.param(b"meta step 0\n", b"meta step two\n", id="step"),
    ])
    def test_malformed_manifest_is_format_error(self, tmp_path, good, bad):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, {}, extra_arrays={"a": np.arange(3.0)})
        blob = p.read_bytes()
        assert blob.count(good) == 1
        p.write_bytes(blob.replace(good, bad))
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_truncated_payload(self, tmp_path):
        params = {"a": nm.parameter(np.ones(8))}
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, params)
        blob = p.read_bytes()
        p.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="payload"):
            load_checkpoint(p)
