"""Run configuration: flat key=value files with dotted sections.

Example file:

    run.mode=synthetic
    depth.bins=64
    model.pe=dgpe
    optim.lr_peak=2.25e-3

Every result of the pipeline is determined by the config (plus the seed).
The only environment it reads is OpenBLAS's thread variables, which decide
whether training splits each step across CPUs and never change a result
(see `pipeline._step_processes`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .dsat import PE_KINDS
from .errors import ConfigError
from .geometry import DepthBinSpec


@dataclass
class RunConfig:
    # data
    mode: str = "synthetic"            # synthetic | kitti
    image_dir: str = ""
    label_dir: str = ""
    calib_dir: str = ""
    image_height: int = 96
    image_width: int = 96
    scenes: int = 20
    min_objects: int = 1
    max_objects: int = 3
    classes: tuple = ("Car",)
    # depth discretization and the coordinates grid
    depth_min: float = 2.0
    depth_max: float = 46.8
    depth_bins: int = 64
    grid_stride: int = 16
    roi_y: float = 3.0                 # lateral x roi is +-depth_max, vertical +-roi_y
    # model toggles and sizes
    use_dcpm: bool = True
    use_dsat: bool = True
    pe: str = "dgpe"
    channels: int = 32
    embed: int = 64
    enc_blocks: int = 2
    dec_blocks: int = 2
    ffn_width: int = 128
    dgpe_local_channels: int = 8
    # optimizer
    lr_initial: float = 2.25e-4
    lr_peak: float = 2.25e-3
    warmup_fraction: float = 0.3
    batch_size: int = 4
    epochs: int = 100
    steps: int = 0                     # >0 overrides the epoch-derived count
    # loss weights (total = d*depth + c*cls + r*reg)
    lambda_depth: float = 1.0
    lambda_cls: float = 1.0
    lambda_reg: float = 1.0
    # decoding
    score_threshold: float = 0.25
    top_k: int = 50
    uncertainty_discount: bool = True
    # misc
    seed: int = 0

    # -- derived ----------------------------------------------------------------

    @property
    def image_hw(self):
        return (self.image_height, self.image_width)

    @property
    def feature_hw(self):
        return (self.image_height // 4, self.image_width // 4)

    @property
    def grid_hw(self):
        return (self.image_height // self.grid_stride, self.image_width // self.grid_stride)

    def bin_spec(self):
        return DepthBinSpec(self.depth_min, self.depth_max, self.depth_bins)

    def roi(self):
        return ((-self.depth_max, self.depth_max), (-self.roi_y, self.roi_y),
                (self.depth_min, self.depth_max))

    def validate(self):
        if self.mode not in ("synthetic", "kitti"):
            raise ConfigError(f"run.mode must be synthetic or kitti, got {self.mode!r}")
        if self.pe not in PE_KINDS:
            raise ConfigError(f"model.pe must be one of {PE_KINDS}, got {self.pe!r}")
        if self.pe in ("dpe", "dgpe") and not self.use_dcpm:
            raise ConfigError(f"model.pe={self.pe} needs the depth prediction: enable dcpm")
        if self.image_height % 16 or self.image_width % 16:
            raise ConfigError(f"image size {self.image_hw} must be divisible by 16")
        if self.image_height % self.grid_stride or self.image_width % self.grid_stride:
            raise ConfigError(f"image size {self.image_hw} not divisible by grid stride {self.grid_stride}")
        if self.channels % 4:
            raise ConfigError("model.channels must be divisible by 4 (pyramid pooling and upscaling)")
        if not 0 < self.score_threshold < 1:
            raise ConfigError(f"decode.score_threshold must be in (0,1), got {self.score_threshold}")
        self.bin_spec()  # raises on a bad depth range
        return self

    # -- key=value mapping ---------------------------------------------------------

    def total_steps(self, n_samples):
        if self.steps > 0:
            return self.steps
        batches = max(1, -(-n_samples // self.batch_size))
        return self.epochs * batches

    def to_text(self):
        lines = []
        for key, (attr, conv) in sorted(KEYMAP.items()):
            val = getattr(self, attr)
            if conv is _parse_bool:
                val = "on" if val else "off"
            elif conv is _parse_classes:
                val = ",".join(val)
            lines.append(f"{key}={val}")
        return "\n".join(lines) + "\n"

    def model_hash(self):
        """Hash of the fields a checkpoint must agree on to be loadable."""
        keys = ("image_height", "image_width", "depth_min", "depth_max", "depth_bins",
                "grid_stride", "use_dcpm", "use_dsat", "pe", "channels", "embed",
                "enc_blocks", "dec_blocks", "ffn_width", "dgpe_local_channels", "classes")
        text = ";".join(f"{k}={getattr(self, k)}" for k in keys)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "on", "yes"):
        return True
    if t in ("0", "false", "off", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_classes(text):
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise ConfigError("empty class list")
    return names


KEYMAP = {
    "run.mode": ("mode", str),
    "run.seed": ("seed", int),
    "data.image_dir": ("image_dir", str),
    "data.label_dir": ("label_dir", str),
    "data.calib_dir": ("calib_dir", str),
    "data.image_height": ("image_height", int),
    "data.image_width": ("image_width", int),
    "data.classes": ("classes", _parse_classes),
    "synth.scenes": ("scenes", int),
    "synth.min_objects": ("min_objects", int),
    "synth.max_objects": ("max_objects", int),
    "depth.min": ("depth_min", float),
    "depth.max": ("depth_max", float),
    "depth.bins": ("depth_bins", int),
    "grid.stride": ("grid_stride", int),
    "grid.roi_y": ("roi_y", float),
    "model.dcpm": ("use_dcpm", _parse_bool),
    "model.dsat": ("use_dsat", _parse_bool),
    "model.pe": ("pe", str),
    "model.channels": ("channels", int),
    "model.embed": ("embed", int),
    "model.enc_blocks": ("enc_blocks", int),
    "model.dec_blocks": ("dec_blocks", int),
    "model.ffn_width": ("ffn_width", int),
    "model.dgpe_local_channels": ("dgpe_local_channels", int),
    "optim.lr_initial": ("lr_initial", float),
    "optim.lr_peak": ("lr_peak", float),
    "optim.warmup_fraction": ("warmup_fraction", float),
    "optim.batch_size": ("batch_size", int),
    "optim.epochs": ("epochs", int),
    "optim.steps": ("steps", int),
    "loss.lambda_depth": ("lambda_depth", float),
    "loss.lambda_cls": ("lambda_cls", float),
    "loss.lambda_reg": ("lambda_reg", float),
    "decode.score_threshold": ("score_threshold", float),
    "decode.top_k": ("top_k", int),
    "decode.uncertainty_discount": ("uncertainty_discount", _parse_bool),
}


def parse_config_text(text, base=None):
    cfg = base or RunConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KEYMAP:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        attr, conv = KEYMAP[key]
        try:
            updates[attr] = conv(value.strip())
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key}: {exc}") from None
    return replace(cfg, **updates)


def load_config(path, base=None):
    from pathlib import Path

    return parse_config_text(Path(path).read_text(), base)
