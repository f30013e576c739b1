import os
import signal

import numpy as np
import pytest

from monopgc import cli, data, errors, evaluation as ev, pipeline, selfcheck
from monopgc.checkpoint import load_checkpoint, save_checkpoint
from monopgc.config import load_config
from monopgc.errors import DimensionError, MonoPGCError
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

    def test_nonfinite_loss_exits_3_naming_the_dump(self, tmp_path, small_cfg_file, monkeypatch,
                                                    capsys):
        def abort(cfg, **kwargs):
            raise errors.TrainingAborted("non-finite loss at step 0", "step 0 diagnostics")

        monkeypatch.setattr(cli, "train", abort)
        out = tmp_path / "o"
        assert run_cli("train", "--config", str(small_cfg_file), "--out", str(out)) == 3
        dump = out / "nan_dump.txt"
        assert dump.read_text() == "step 0 diagnostics\n"
        assert capsys.readouterr().err == f"error: non-finite loss at step 0; diagnostics in {dump}\n"

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

    @staticmethod
    def _kitti_images(tmp_path):
        """Two 48x48 images and a kitti config naming only their directory."""
        images = tmp_path / "image"
        images.mkdir()
        for seed in (4, 3):
            scene = data.generate_synthetic_scene(seed, data.SceneConfig(image_size=(48, 48)))
            data.save_image(images / f"{seed:06d}.ppm", scene.image)
        cfg = tmp_path / "k.cfg"
        cfg.write_text(SMALL_CFG + f"run.mode=kitti\ndata.image_dir={images}\noptim.steps=1\n")
        return images, cfg

    def test_kitti_without_labels_exits_2(self, tmp_path, capsys):
        _, cfg = self._kitti_images(tmp_path)
        out = tmp_path / "o"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        assert "needs data.label_dir" in capsys.readouterr().err
        assert not out.exists()

    def test_load_samples_without_calib_takes_the_synthetic_camera(self, tmp_path):
        images, cfg = self._kitti_images(tmp_path)  # as `infer` without --calib-dir
        samples = cli._load_samples(load_config(cfg), images, "", "")
        assert [s.stem for s in samples] == ["000003", "000004"]
        camera = data.synthetic_calibration(48, 48)
        for sample in samples:
            np.testing.assert_array_equal(sample.calib.k_intrinsic, camera.k_intrinsic)
            np.testing.assert_array_equal(sample.calib.k_extrinsic, camera.k_extrinsic)

    def test_image_too_small_for_fusion_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CFG.replace("model.dcpm=off\nmodel.pe=ape\n", ""))
        out = tmp_path / "o"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "data.image_height" in err and "data.image_width" in err
        assert not out.exists()

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

    def test_wrong_size_message_matches_kitti_train(self, tmp_path, small_cfg_file, capsys):
        ckpt = self._init_checkpoint(tmp_path, small_cfg_file)
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        data.save_image(imgs / "000000.ppm", np.zeros((3, 32, 48)))
        kitti = tmp_path / "k.cfg"
        kitti.write_text(SMALL_CFG + f"run.mode=kitti\ndata.image_dir={imgs}\n"
                         f"data.label_dir={tmp_path}\ndata.calib_dir={tmp_path}\n")
        assert run_cli("train", "--config", str(kitti), "--out", str(tmp_path / "o")) == 2
        train_err = capsys.readouterr().err
        code = run_cli("infer", "--config", str(small_cfg_file), "--checkpoint", str(ckpt),
                       "--image-dir", str(imgs), "--out", str(tmp_path / "p"))
        assert code == 2
        assert "000000.ppm is 32x48" in train_err
        assert capsys.readouterr().err == train_err

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

    def _four_images(self, tmp_path):
        """A fresh checkpoint that decodes boxes, and four images for it."""
        cfg = tmp_path / "low.cfg"
        cfg.write_text(SMALL_CFG + "decode.score_threshold=0.1\n")
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        for i in range(4):
            scene = data.generate_synthetic_scene(i, data.SceneConfig(image_size=(48, 48)))
            data.save_image(imgs / f"{i:06d}.ppm", scene.image)
        return cfg, self._init_checkpoint(tmp_path, cfg), imgs

    def test_split_and_one_process_write_the_same_bytes(self, tmp_path, monkeypatch):
        cfg, ckpt, imgs = self._four_images(tmp_path)
        written = {}
        for shares in (1, 3):  # 3 shares: images 0-1 here, 2 and 3 in two helpers
            monkeypatch.setattr(pipeline, "_step_processes", lambda: shares)
            out = tmp_path / f"p{shares}"
            assert run_cli("infer", "--config", str(cfg), "--checkpoint", str(ckpt),
                           "--image-dir", str(imgs), "--out", str(out)) == 0
            written[shares] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(written[1]) == 4 and all(written[1].values())
        assert written[3] == written[1]

    @pytest.mark.parametrize("failure", ["raise", "kill"])
    def test_helper_failure_leaves_no_output_directory(self, tmp_path, monkeypatch, capsys,
                                                       failure):
        cfg, ckpt, imgs = self._four_images(tmp_path)
        monkeypatch.setattr(pipeline, "_step_processes", lambda: 2)  # 000002-3 in the helper
        real_forward, parent = MonoPGCModel.forward, os.getpid()

        def forward(self, sample):
            if sample.stem == "000003" and os.getpid() != parent:
                if failure == "raise":
                    raise DimensionError("planted in the helper")
                os.kill(os.getpid(), signal.SIGKILL)
            return real_forward(self, sample)

        monkeypatch.setattr(MonoPGCModel, "forward", forward)
        out = tmp_path / "p"
        # an exception a helper sends keeps its own type's exit code; a dead helper is 4
        code = 2 if failure == "raise" else 4
        assert run_cli("infer", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--image-dir", str(imgs), "--out", str(out)) == code
        err = capsys.readouterr().err
        assert ("planted in the helper" if failure == "raise"
                else "without sending its results") in err
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    def test_ground_truth_classes_outside_the_iou_table_are_scored(self, tmp_path, capsys):
        van = GT_LINE.replace("Car", "Van", 1)
        dontcare = "DontCare -1 -1 -10 50.0 50.0 60.0 60.0 -1 -1 -1 -1000 -1000 -1000 -10"
        gt = "\n".join([van, van, GT_LINE.replace("Car", "Truck", 1), dontcare]) + "\n"
        # 1 m along the box's 3.9 m length: IoU 2.9 / 4.9 = 0.59, a match at 0.5 but not at 0.7
        shifted = van.replace(" 0.00 1.50 15.00 ", " 1.00 1.50 15.00 ")
        argv = _eval_argv(tmp_path, gt=gt, pred=shifted + " 0.90\n")
        assert run_cli(*argv, "--out", str(tmp_path / "report")) == 0
        assert capsys.readouterr().err == ""
        kv = (tmp_path / "report" / "metrics.kv").read_text()
        rows = list(dict.fromkeys(line.split(".")[1] for line in kv.splitlines()))
        assert rows == ["Car", "Pedestrian", "Cyclist", "Truck", "Van"]
        assert "ap3d.Car.overall=n/a" in kv
        # one of the two Van boxes found: AP40 at recall 1/2
        assert "ap3d.Van.overall=50.00" in kv and "apbev.Van.overall=50.00" in kv
        assert "ap3d.Truck.overall=0.00" in kv
        table = (tmp_path / "report" / "metrics.txt").read_text()
        assert "Van" in table and "DontCare" not in table

    def test_kitti_run_of_a_class_outside_the_iou_table(self, tmp_path, capsys):
        dirs = {name: tmp_path / name for name in ("image", "label", "calib")}
        scenes = data.SceneConfig(image_size=(48, 48), class_name="Van")
        for seed in range(4):
            data.scene_to_files(data.generate_synthetic_scene(seed, scenes), f"{seed:06d}",
                                dirs["image"], dirs["label"], dirs["calib"])
        cfg = tmp_path / "van.cfg"
        cfg.write_text(SMALL_CFG + f"run.mode=kitti\ndata.image_dir={dirs['image']}\n"
                       f"data.label_dir={dirs['label']}\ndata.calib_dir={dirs['calib']}\n"
                       "data.classes=Van\ndecode.score_threshold=0.05\n")
        run, pred, report = tmp_path / "run", tmp_path / "pred", tmp_path / "report"
        assert run_cli("train", "--config", str(cfg), "--out", str(run)) == 0
        assert run_cli("infer", "--config", str(cfg), "--checkpoint", str(run / "final.ckpt"),
                       "--image-dir", str(dirs["image"]), "--calib-dir", str(dirs["calib"]),
                       "--out", str(pred)) == 0
        assert any(f.read_text() for f in pred.iterdir())
        assert run_cli("eval", "--gt", str(dirs["label"]), "--pred", str(pred),
                       "--out", str(report)) == 0
        assert capsys.readouterr().err == ""
        kv = dict(line.split("=") for line in (report / "metrics.kv").read_text().splitlines())
        van = {key: value for key, value in kv.items() if ".Van." in key}
        assert sorted(van) == sorted(f"ap{metric}.Van.{bucket}"
                                     for metric in ("3d", "bev") for bucket in ev.BUCKETS)
        assert any(value != "n/a" for value in van.values())

    def test_scored_classes_give_no_warning(self, tmp_path, capsys):
        assert run_cli(*_eval_argv(tmp_path), "--out", str(tmp_path / "report")) == 0
        assert capsys.readouterr().err == ""

    def test_unmatched_stems_exit_1(self, tmp_path, capsys):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        (gt_dir / "a.txt").write_text("")
        code = run_cli("eval", "--gt", str(gt_dir), "--pred", str(pred_dir),
                       "--out", str(tmp_path / "r"))
        assert code == 1
        assert "a" in capsys.readouterr().err


GT_LINE = "Car 0.00 0 0.00 10.0 10.0 40.0 40.0 1.50 1.60 3.90 0.00 1.50 15.00 0.00"
PRED_LINE = GT_LINE + " 0.90"


def _eval_argv(tmp_path, gt=GT_LINE, pred=PRED_LINE, pred_stem="000000"):
    """eval over one ground-truth and one prediction file, each given as str or bytes."""
    dirs = tmp_path / "gt", tmp_path / "pred"
    for directory, stem, text in zip(dirs, ("000000", pred_stem), (gt, pred)):
        directory.mkdir()
        (directory / f"{stem}.txt").write_bytes(text if isinstance(text, bytes) else text.encode())
    return ["eval", "--gt", str(dirs[0]), "--pred", str(dirs[1])]


def _infer_argv(tmp_path, cfg_text=SMALL_CFG, checkpoint=True, image_dir=True):
    """infer of a fresh SMALL_CFG checkpoint over one image, under the config `cfg_text`."""
    cfg, ckpt, imgs = tmp_path / "run.cfg", tmp_path / "init.ckpt", tmp_path / "imgs"
    cfg.write_text(SMALL_CFG)
    if checkpoint:
        save_checkpoint(ckpt, MonoPGCModel(load_config(cfg)).parameters(),
                        config_hash=load_config(cfg).model_hash())
    if image_dir:
        imgs.mkdir()
        data.save_image(imgs / "000000.ppm", np.zeros((3, 48, 48)))
    cfg.write_text(cfg_text)
    return ["infer", "--config", str(cfg), "--checkpoint", str(ckpt), "--image-dir", str(imgs)]


def _config_argv(tmp_path, text=None):
    """train under a config file holding `text` (bytes), or a missing one (None)."""
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_bytes(text)
    return ["train", "--config", str(cfg)]


def _bad_value(text):
    """argv builder: train under a config file holding the line(s) `text`."""
    return lambda tmp_path, monkeypatch: _config_argv(tmp_path, text.encode() + b"\n")


def _killed_helper_argv(tmp_path, monkeypatch):
    cfg, ckpt, imgs = TestInferCommand()._four_images(tmp_path)
    monkeypatch.setattr(pipeline, "_step_processes", lambda: 2)  # 000002-3 in the helper
    real_forward, parent = MonoPGCModel.forward, os.getpid()

    def forward(self, sample):
        if sample.stem == "000003" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_forward(self, sample)

    monkeypatch.setattr(MonoPGCModel, "forward", forward)
    return ["infer", "--config", str(cfg), "--checkpoint", str(ckpt), "--image-dir", str(imgs)]


ZERO_LENGTH = GT_LINE.replace(" 3.90 ", " 0.00 ")
BAD_INPUT = {
    # name: (argv builder (tmp_path, monkeypatch), exit code, text in the error line)
    "infer-missing-checkpoint": (lambda t, m: _infer_argv(t, checkpoint=False), 2,
                                 "init.ckpt does not exist"),
    "train-missing-config": (lambda t, m: _config_argv(t), 2, "run.cfg does not exist"),
    "train-directory-as-config": (lambda t, m: ["train", "--config", str(t)], 2, "cannot read"),
    "non-utf8-config": (lambda t, m: _config_argv(t, b"model.pe=dg\xe9pe\n"), 2, "not UTF-8"),
    "non-utf8-gt-label": (lambda t, m: _eval_argv(t, gt=b"Car \xff\n"), 2, "not UTF-8"),
    "eval-malformed-prediction": (lambda t, m: _eval_argv(t, pred=PRED_LINE.replace("1.60", "x")),
                                  2, "unparseable number"),
    "eval-zero-length-prediction": (lambda t, m: _eval_argv(t, pred=ZERO_LENGTH + " 0.90"), 2,
                                    "dimensions must be positive"),
    "eval-zero-length-gt": (lambda t, m: _eval_argv(t, gt=ZERO_LENGTH), 2,
                            "dimensions must be positive"),
    "eval-missing-gt": (lambda t, m: ["eval", "--gt", str(t / "no"), "--pred", str(t)], 2,
                        "ground-truth directory"),
    "eval-missing-pred": (lambda t, m: ["eval", "--gt", str(t), "--pred", str(t / "no")], 2,
                          "prediction directory"),
    "infer-missing-image-dir": (lambda t, m: _infer_argv(t, image_dir=False), 2,
                                "image directory"),
    "eval-unmatched-stems": (lambda t, m: _eval_argv(t, pred_stem="000001"), 1,
                             "unmatched file stems: 000000, 000001"),
    "infer-hash-mismatch": (lambda t, m: _infer_argv(
        t, cfg_text=SMALL_CFG.replace("model.channels=8", "model.channels=16")), 2,
        "config hash does not match"),
    "infer-killed-helper": (_killed_helper_argv, 4, "without sending its results"),
    # out-of-range config values: the error line names the key
    "config-batch-size-0": (_bad_value("optim.batch_size=0"), 2,
                           "optim.batch_size must be at least 1, got 0"),
    "config-batch-size-negative": (_bad_value("optim.batch_size=-2"), 2,
                                  "optim.batch_size must be at least 1"),
    "config-grid-stride-0": (_bad_value("grid.stride=0"), 2, "grid.stride must be at least 1"),
    "config-max-objects-0": (_bad_value("synth.max_objects=0"), 2,
                            "synth.max_objects must be at least 1"),
    "config-min-above-max-objects": (_bad_value("synth.min_objects=2\nsynth.max_objects=1"), 2,
                                    "synth.min_objects=2 exceeds synth.max_objects=1"),
    "config-channels-0": (_bad_value("model.channels=0"), 2, "model.channels must be at least 4"),
    "config-embed-0": (_bad_value("model.embed=0"), 2, "model.embed must be at least 1"),
    "config-ffn-width-0": (_bad_value("model.ffn_width=0"), 2,
                          "model.ffn_width must be at least 1"),
    "config-warmup-nan": (_bad_value("optim.warmup_fraction=nan"), 2,
                         "optim.warmup_fraction must be a finite"),
    "config-lr-peak-nan": (_bad_value("optim.lr_peak=nan"), 2,
                          "optim.lr_peak must be a finite number"),
    "config-lambda-cls-inf": (_bad_value("loss.lambda_cls=inf"), 2,
                             "loss.lambda_cls must be a finite number"),
    "config-lr-initial-negative": (_bad_value("optim.lr_initial=-1"), 2,
                                  "optim.lr_initial must be at least 0"),
    "config-top-k-negative": (_bad_value("decode.top_k=-1"), 2, "decode.top_k must be at least 1"),
    "config-enc-blocks-negative": (_bad_value("model.enc_blocks=-1"), 2,
                                  "model.enc_blocks must be at least 0"),
    "config-min-objects-negative": (_bad_value("synth.min_objects=-1"), 2,
                                   "synth.min_objects must be at least 0"),
    "config-warmup-above-1": (_bad_value("optim.warmup_fraction=2"), 2,
                             "optim.warmup_fraction must be at most 1"),
    # cross-key rules: the error line names every key of the rule
    "config-depth-min-0": (_bad_value("depth.min=0"), 2,
                           "need 0 < depth.min < depth.max, got depth.min=0.0, depth.max=46.8"),
    "config-depth-max-below-min": (_bad_value("depth.min=10\ndepth.max=5"), 2,
                                   "got depth.min=10.0, depth.max=5.0"),
    "config-grid-stride-7": (_bad_value("grid.stride=7"), 2,
                             "data.image_height x data.image_width is 96x96, "
                             "not divisible by grid.stride=7"),
    "config-image-not-multiple-of-16": (_bad_value("data.image_width=200"), 2,
                                        "data.image_height x data.image_width is 96x200; "
                                        "both must be divisible by 16"),
    "config-repeated-class": (_bad_value("data.classes=Car,Pedestrian,Car"), 2,
                              "data.classes repeats Car"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_ends_in_one_error_line_and_its_exit_code(tmp_path, monkeypatch, capsys,
                                                            case):
    build, exit_code, message = BAD_INPUT[case]
    out = tmp_path / "out"
    argv = build(tmp_path, monkeypatch) + ["--out", str(out)]
    capsys.readouterr()
    assert run_cli(*argv) == exit_code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert not out.exists()


# the BAD_INPUT rows whose input file is malformed, and that file under tmp_path
MALFORMED_FILES = {
    "non-utf8-config": "run.cfg",
    "non-utf8-gt-label": "gt/000000.txt",
    "eval-malformed-prediction": "pred/000000.txt",
    "eval-zero-length-prediction": "pred/000000.txt",
    "eval-zero-length-gt": "gt/000000.txt",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_a_malformed_file_is_named_in_its_error_line(tmp_path, monkeypatch, capsys, case):
    build, exit_code, _ = BAD_INPUT[case]
    argv = build(tmp_path, monkeypatch) + ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert run_cli(*argv) == exit_code
    err = capsys.readouterr().err
    assert str(tmp_path / MALFORMED_FILES[case]) in err, err


def test_exit_codes_belong_to_the_error_types():
    codes = {cls.__name__: cls.exit_code for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, MonoPGCError)}
    assert codes.pop("EvaluationError") == 1
    assert codes.pop("TrainingAborted") == 3
    assert codes.pop("HelperError") == 4
    assert set(codes.values()) == {2}
    assert pipeline.TrainingAborted is errors.TrainingAborted


def test_small_cfg_model_hash_is_pinned(small_cfg_file):
    # checkpoints written by earlier versions carry this hash
    assert load_config(small_cfg_file).model_hash() == "464e8c5302015c92"


def test_zero_steps_and_scenes_options_are_not_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("optim.steps=500\n")
    parse = cli.build_parser().parse_args
    assert cli._load_run_config(parse(["train", "--config", str(cfg)])).steps == 500
    assert cli._load_run_config(parse(["train", "--config", str(cfg), "--steps", "0"])).steps == 0
    with pytest.raises(MonoPGCError, match="synth.scenes must be at least 1, got 0"):
        cli._load_run_config(parse(["train", "--scenes", "0"]))


def test_infer_takes_no_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("infer", "--checkpoint", "c", "--image-dir", str(tmp_path), "--seed", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


class TestSelfcheckCommand:
    def test_full_suite_passes(self, capsys):
        assert run_cli("selfcheck") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [f"[PASS] {name}" for name, _ in selfcheck.CHECKS]
        assert lines[-1] == f"selfcheck passed ({len(selfcheck.CHECKS)} checks)"

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
