import numpy as np
import pytest

from monopgc import cli, data
from monopgc.checkpoint import load_checkpoint, save_checkpoint
from monopgc.config import load_config
from monopgc.pipeline import MonoPGCModel


def run_cli(*argv):
    return cli.main(list(argv))


SMALL_CFG = (
    "data.image_height=48\ndata.image_width=48\nmodel.channels=8\nmodel.embed=16\n"
    "model.ffn_width=32\ndepth.bins=16\nsynth.scenes=2\noptim.steps=3\n"
    "optim.batch_size=2\nmodel.enc_blocks=1\nmodel.dec_blocks=1\n"
    "model.dcpm=off\nmodel.pe=ape\n")


@pytest.fixture
def small_cfg_file(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text(SMALL_CFG)
    return p


class TestTrainCommand:
    def test_train_writes_log_and_checkpoint(self, tmp_path, small_cfg_file, capsys):
        out = tmp_path / "run"
        code = run_cli("train", "--config", str(small_cfg_file), "--out", str(out))
        assert code == 0
        assert (out / "train.log").exists()
        assert (out / "final.ckpt").exists()
        assert (out / "config.txt").exists()
        log = (out / "train.log").read_text().splitlines()
        assert len(log) == 3

    def test_train_checkpoint_holds_only_parameters(self, tmp_path, small_cfg_file):
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(small_cfg_file), "--out", str(out)) == 0
        loaded = load_checkpoint(out / "final.ckpt")
        assert loaded["extra"] == {}  # no Adam moments
        assert sorted(loaded["meta"]) == ["config_hash", "step"]
        model = MonoPGCModel(load_config(small_cfg_file))
        assert sorted(loaded["params"]) == sorted(model.parameters())

    def test_train_determinism(self, tmp_path, small_cfg_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("train", "--config", str(small_cfg_file), "--out", str(out1)) == 0
        assert run_cli("train", "--config", str(small_cfg_file), "--out", str(out2)) == 0
        assert (out1 / "train.log").read_text() == (out2 / "train.log").read_text()
        assert (out1 / "final.ckpt").read_bytes() == (out2 / "final.ckpt").read_bytes()

    def test_invalid_pe_exits_2_listing_kinds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--pe", "fourier")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "sinusoidal" in err and "dgpe" in err

    def test_kitti_mode_without_path_exits_2(self, tmp_path):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("run.mode=kitti\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_kitti_labels_without_calib_exit_2(self, tmp_path, capsys):
        scene = data.generate_synthetic_scene(3)
        dirs = {name: tmp_path / name for name in ("image", "label", "calib")}
        data.scene_to_files(scene, "000003", dirs["image"], dirs["label"], dirs["calib"])
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"run.mode=kitti\ndata.image_dir={dirs['image']}\n"
                       f"data.label_dir={dirs['label']}\noptim.steps=1\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "data.calib_dir" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_kitti_missing_label_file_exit_2(self, tmp_path, capsys):
        dirs = {name: tmp_path / name for name in ("image", "label", "calib")}
        for seed, stem in ((3, "000003"), (4, "000004")):
            data.scene_to_files(data.generate_synthetic_scene(seed), stem,
                                dirs["image"], dirs["label"], dirs["calib"])
        (dirs["label"] / "000004.txt").unlink()
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"run.mode=kitti\ndata.image_dir={dirs['image']}\n"
                       f"data.label_dir={dirs['label']}\ndata.calib_dir={dirs['calib']}\n"
                       "optim.steps=1\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "000004.txt does not exist" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_kitti_image_size_mismatch_exit_2(self, tmp_path, capsys):
        scene = data.generate_synthetic_scene(3, data.SceneConfig(image_size=(64, 64)))
        dirs = {name: tmp_path / name for name in ("image", "label", "calib")}
        data.scene_to_files(scene, "000003", dirs["image"], dirs["label"], dirs["calib"])
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"run.mode=kitti\ndata.image_dir={dirs['image']}\n"
                       f"data.label_dir={dirs['label']}\ndata.calib_dir={dirs['calib']}\n"
                       "optim.steps=1\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "000003.ppm is 64x64" in err and "96x96" in err
        assert not (tmp_path / "o").exists()

    def test_inconsistent_toggles_exit_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CFG.replace("model.pe=ape", "model.pe=dgpe"))
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


class TestInferCommand:
    def _trained(self, tmp_path, small_cfg_file):
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(small_cfg_file), "--out", str(out)) == 0
        return out / "final.ckpt"

    def _init_checkpoint(self, tmp_path, small_cfg_file):
        cfg = load_config(small_cfg_file)
        ckpt = tmp_path / "init.ckpt"
        save_checkpoint(ckpt, MonoPGCModel(cfg).parameters(), config_hash=cfg.model_hash())
        return ckpt

    def test_empty_image_dir_warns_exit_0(self, tmp_path, small_cfg_file, capsys):
        ckpt = self._trained(tmp_path, small_cfg_file)
        empty = tmp_path / "imgs"
        empty.mkdir()
        code = run_cli("infer", "--config", str(small_cfg_file), "--checkpoint", str(ckpt),
                       "--image-dir", str(empty), "--out", str(tmp_path / "preds"))
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_hash_mismatch_exit_2(self, tmp_path, small_cfg_file):
        ckpt = self._trained(tmp_path, small_cfg_file)
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace("model.channels=8", "model.channels=16"))
        code = run_cli("infer", "--config", str(other), "--checkpoint", str(ckpt),
                       "--image-dir", str(tmp_path), "--out", str(tmp_path / "p"))
        assert code == 2

    def test_malformed_checkpoint_exits_2(self, tmp_path, small_cfg_file, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"MONOPGC-CKPT 1\nmeta step 0\ntensor param:w f8 x 0 8\nPAYLOAD 8\n"
                         + bytes(8))
        code = run_cli("infer", "--config", str(small_cfg_file), "--checkpoint", str(ckpt),
                       "--image-dir", str(tmp_path), "--out", str(tmp_path / "p"))
        assert code == 2
        assert "malformed tensor line" in capsys.readouterr().err

    def test_image_size_mismatch_exits_2(self, tmp_path, small_cfg_file, capsys):
        ckpt = self._init_checkpoint(tmp_path, small_cfg_file)
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        data.save_image(imgs / "000000.ppm", np.zeros((3, 32, 64)))
        code = run_cli("infer", "--config", str(small_cfg_file), "--checkpoint", str(ckpt),
                       "--image-dir", str(imgs), "--out", str(tmp_path / "p"))
        assert code == 2
        assert "000000.ppm is 32x64" in capsys.readouterr().err

    def test_missing_calib_file_exits_2(self, tmp_path, small_cfg_file, capsys):
        ckpt = self._init_checkpoint(tmp_path, small_cfg_file)
        imgs, calib = tmp_path / "imgs", tmp_path / "calib"
        imgs.mkdir()
        calib.mkdir()
        data.save_image(imgs / "000000.ppm", np.zeros((3, 48, 48)))
        code = run_cli("infer", "--config", str(small_cfg_file), "--checkpoint", str(ckpt),
                       "--image-dir", str(imgs), "--calib-dir", str(calib),
                       "--out", str(tmp_path / "p"))
        assert code == 2
        assert "000000.txt does not exist" in capsys.readouterr().err

    def test_bad_image_leaves_no_predictions(self, tmp_path, small_cfg_file, capsys):
        ckpt = self._init_checkpoint(tmp_path, small_cfg_file)
        imgs, out = tmp_path / "imgs", tmp_path / "p"
        imgs.mkdir()
        data.save_image(imgs / "a.ppm", np.zeros((3, 48, 48)))
        data.save_image(imgs / "b.ppm", np.zeros((3, 32, 48)))
        code = run_cli("infer", "--config", str(small_cfg_file), "--checkpoint", str(ckpt),
                       "--image-dir", str(imgs), "--out", str(out))
        assert code == 2
        assert "b.ppm is 32x48" in capsys.readouterr().err
        assert not list(out.glob("*.txt"))

    def test_infer_writes_deterministic_predictions(self, tmp_path, small_cfg_file):
        ckpt = self._trained(tmp_path, small_cfg_file)
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        scene = data.generate_synthetic_scene(0, data.SceneConfig(image_size=(48, 48)))
        data.save_image(imgs / "000000.ppm", scene.image)
        p1, p2 = tmp_path / "p1", tmp_path / "p2"
        for out in (p1, p2):
            code = run_cli("infer", "--config", str(small_cfg_file), "--checkpoint", str(ckpt),
                           "--image-dir", str(imgs), "--out", str(out))
            assert code == 0
            assert (out / "000000.txt").exists()
        assert (p1 / "000000.txt").read_text() == (p2 / "000000.txt").read_text()


    def test_checkpoint_with_adam_arrays_runs(self, tmp_path, small_cfg_file):
        # the layout `monopgc train` wrote before checkpoints dropped Adam's moments
        ckpt = self._trained(tmp_path, small_cfg_file)
        loaded = load_checkpoint(ckpt)
        moments = {f"adam_{kind}:{name}": np.full_like(array, 0.5)
                   for name, array in loaded["params"].items() for kind in "mv"}
        with_adam = tmp_path / "with_adam.ckpt"
        save_checkpoint(with_adam, loaded["params"], step=loaded["meta"]["step"],
                        config_hash=loaded["meta"]["config_hash"], extra_arrays=moments,
                        meta={"adam_t": loaded["meta"]["step"]})
        assert len(load_checkpoint(with_adam)["extra"]) == 2 * len(loaded["params"])
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        scene = data.generate_synthetic_scene(0, data.SceneConfig(image_size=(48, 48)))
        data.save_image(imgs / "000000.ppm", scene.image)
        for name, path in (("plain", ckpt), ("with_adam", with_adam)):
            code = run_cli("infer", "--config", str(small_cfg_file), "--checkpoint", str(path),
                           "--image-dir", str(imgs), "--out", str(tmp_path / name))
            assert code == 0
        assert ((tmp_path / "with_adam" / "000000.txt").read_text()
                == (tmp_path / "plain" / "000000.txt").read_text())


class TestEvalCommand:
    def test_perfect_predictions_all_100(self, tmp_path, capsys):
        from monopgc.head import detection_from_label, detection_to_label

        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        for seed in (1, 2):
            scene = data.generate_synthetic_scene(seed)
            data.write_label_file(gt_dir / f"{seed:06d}.txt", scene.objects)
            preds = [detection_to_label(detection_from_label(o)) for o in scene.objects]
            data.write_label_file(pred_dir / f"{seed:06d}.txt", preds, include_score=True)
        code = run_cli("eval", "--gt", str(gt_dir), "--pred", str(pred_dir),
                       "--out", str(tmp_path / "report"))
        assert code == 0
        kv = (tmp_path / "report" / "metrics.kv").read_text()
        assert "ap3d.Car.overall=100.00" in kv
        assert "apbev.Car.overall=100.00" in kv

    def test_empty_pred_dir_all_zero(self, tmp_path):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        scene = data.generate_synthetic_scene(3)
        data.write_label_file(gt_dir / "000003.txt", scene.objects)
        (pred_dir / "000003.txt").write_text("")
        code = run_cli("eval", "--gt", str(gt_dir), "--pred", str(pred_dir),
                       "--out", str(tmp_path / "report"))
        assert code == 0
        kv = (tmp_path / "report" / "metrics.kv").read_text()
        assert "ap3d.Car.overall=0.00" in kv

    def test_unmatched_stems_exit_1(self, tmp_path, capsys):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        (gt_dir / "a.txt").write_text("")
        code = run_cli("eval", "--gt", str(gt_dir), "--pred", str(pred_dir),
                       "--out", str(tmp_path / "r"))
        assert code == 1
        assert "a" in capsys.readouterr().err


class TestSelfcheckCommand:
    def test_filtered_geometry_passes(self, capsys):
        assert run_cli("selfcheck", "--only", "geometry") == 0
        out = capsys.readouterr().out
        assert "geometry.lid_round_trip" in out
        assert "numerics" not in out

    def test_corrupted_sobel_fails_naming_dgpe(self, capsys):
        code = run_cli("selfcheck", "--only", "dsat", "--corrupt-sobel")
        assert code == 1
        err = capsys.readouterr().err
        assert "dgpe" in err

    def test_unknown_prefix_fails(self):
        assert run_cli("selfcheck", "--only", "nonexistent") == 1
