"""Run configuration: flat key=value files with dotted sections.

Example file:

    run.mode=synthetic
    depth.bins=64
    model.pe=dgpe
    optim.lr_peak=2.25e-3

To add a key, declare one RunConfig field with `_key`: nothing else lists keys.

Every result of the pipeline is determined by the config (plus the seed).
The only environment it reads is OpenBLAS's thread variables, which decide
whether training splits each step, and `infer` its images, across CPUs and
never change a result (see `pipeline._step_processes`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .data import _read_input
from .dcpm import FEATURE_STRIDE, PPM_SCALES
from .dsat import PE_KINDS
from .errors import ConfigError
from .geometry import ROI_Y, DepthBinSpec


def _key(key, default, model=False, min=None):
    """A RunConfig field: its dotted config key, whether a checkpoint must
    agree on it (`model`, hashed in declaration order) and its smallest
    accepted value (`min`). The annotation picks the parser."""
    return field(default=default, metadata={"key": key, "model": model, "min": min})


@dataclass
class RunConfig:
    # data
    mode: str = _key("run.mode", "synthetic")          # synthetic | kitti
    image_dir: str = _key("data.image_dir", "")
    label_dir: str = _key("data.label_dir", "")
    calib_dir: str = _key("data.calib_dir", "")
    image_height: int = _key("data.image_height", 96, model=True, min=16)
    image_width: int = _key("data.image_width", 96, model=True, min=16)
    scenes: int = _key("synth.scenes", 20, min=1)
    min_objects: int = _key("synth.min_objects", 1, min=0)
    max_objects: int = _key("synth.max_objects", 3, min=1)
    # depth discretization and the coordinates grid (roi: geometry.ROI_Y)
    depth_min: float = _key("depth.min", 2.0, model=True)
    depth_max: float = _key("depth.max", 46.8, model=True)
    depth_bins: int = _key("depth.bins", 64, model=True, min=2)
    grid_stride: int = _key("grid.stride", 16, model=True, min=1)
    # model toggles and sizes
    use_dcpm: bool = _key("model.dcpm", True, model=True)
    use_dsat: bool = _key("model.dsat", True, model=True)
    pe: str = _key("model.pe", "dgpe", model=True)
    channels: int = _key("model.channels", 32, model=True, min=4)
    embed: int = _key("model.embed", 64, model=True, min=1)
    enc_blocks: int = _key("model.enc_blocks", 2, model=True, min=0)
    dec_blocks: int = _key("model.dec_blocks", 2, model=True, min=0)
    ffn_width: int = _key("model.ffn_width", 128, model=True, min=1)
    dgpe_local_channels: int = _key("model.dgpe_local_channels", 8, model=True, min=0)
    classes: tuple = _key("data.classes", ("Car",), model=True)  # last in the hash text
    # optimizer
    lr_initial: float = _key("optim.lr_initial", 2.25e-4, min=0)
    lr_peak: float = _key("optim.lr_peak", 2.25e-3, min=0)
    warmup_fraction: float = _key("optim.warmup_fraction", 0.3, min=0)
    batch_size: int = _key("optim.batch_size", 4, min=1)
    epochs: int = _key("optim.epochs", 100, min=1)
    steps: int = _key("optim.steps", 0, min=0)     # >0 overrides the epoch-derived count
    # loss weights (total = d*depth + c*cls + r*reg)
    lambda_depth: float = _key("loss.lambda_depth", 1.0, min=0)
    lambda_cls: float = _key("loss.lambda_cls", 1.0, min=0)
    lambda_reg: float = _key("loss.lambda_reg", 1.0, min=0)
    # decoding
    score_threshold: float = _key("decode.score_threshold", 0.25)
    top_k: int = _key("decode.top_k", 50, min=1)
    uncertainty_discount: bool = _key("decode.uncertainty_discount", True)
    # misc
    seed: int = _key("run.seed", 0, min=0)

    # -- derived ----------------------------------------------------------------

    @property
    def image_hw(self):
        return (self.image_height, self.image_width)

    @property
    def feature_hw(self):
        return (self.image_height // FEATURE_STRIDE, self.image_width // FEATURE_STRIDE)

    @property
    def grid_hw(self):
        return (self.image_height // self.grid_stride, self.image_width // self.grid_stride)

    def bin_spec(self):
        return DepthBinSpec(self.depth_min, self.depth_max, self.depth_bins)

    def roi(self):
        return ((-self.depth_max, self.depth_max), ROI_Y, (self.depth_min, self.depth_max))

    def validate(self):
        for f in fields(self):
            key, low, value = f.metadata["key"], f.metadata["min"], getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number, got {value}")
            if low is not None and value < low:
                raise ConfigError(f"{key} must be at least {low}, got {value}")
        if self.mode not in ("synthetic", "kitti"):
            raise ConfigError(f"run.mode must be synthetic or kitti, got {self.mode!r}")
        if self.pe not in PE_KINDS:
            raise ConfigError(f"model.pe must be one of {PE_KINDS}, got {self.pe!r}")
        if self.pe in ("dpe", "dgpe") and not self.use_dcpm:
            raise ConfigError(f"model.pe={self.pe} needs the depth prediction: enable dcpm")
        repeated = sorted({c for c in self.classes if self.classes.count(c) > 1})
        if repeated:
            raise ConfigError(f"data.classes repeats {', '.join(repeated)}: "
                              f"each name is one head channel")
        if not 0 < self.depth_min < self.depth_max:
            raise ConfigError(f"need 0 < depth.min < depth.max, got depth.min={self.depth_min}, "
                              f"depth.max={self.depth_max}")
        if self.image_height % 16 or self.image_width % 16:
            raise ConfigError(f"data.image_height x data.image_width is "
                              f"{self.image_height}x{self.image_width}; both must be divisible by 16")
        min_side = 16 * max(PPM_SCALES)  # pyramid pooling of the 1/16 level
        if self.use_dcpm and min(self.image_hw) < min_side:
            raise ConfigError(
                f"data.image_height x data.image_width is {self.image_height}x{self.image_width}, "
                f"but the fusion module needs at least {min_side}x{min_side} (or model.dcpm=off)")
        if self.image_height % self.grid_stride or self.image_width % self.grid_stride:
            raise ConfigError(f"data.image_height x data.image_width is "
                              f"{self.image_height}x{self.image_width}, not divisible by "
                              f"grid.stride={self.grid_stride}")
        if self.channels % 4:
            raise ConfigError("model.channels must be divisible by 4 (pyramid pooling and upscaling)")
        if self.min_objects > self.max_objects:
            raise ConfigError(f"synth.min_objects={self.min_objects} exceeds "
                              f"synth.max_objects={self.max_objects}")
        if self.warmup_fraction > 1:
            raise ConfigError(f"optim.warmup_fraction must be at most 1, got {self.warmup_fraction}")
        if not 0 < self.score_threshold < 1:
            raise ConfigError(f"decode.score_threshold must be in (0,1), got {self.score_threshold}")
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
        """Hash of the fields a checkpoint must agree on to be loadable: those
        declared with model=True, as `name=value` in declaration order."""
        text = ";".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self)
                        if f.metadata["model"])
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


# the annotations are strings (`from __future__ import annotations`)
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool, "tuple": _parse_classes}
KEYMAP = {f.metadata["key"]: (f.name, _PARSERS[f.type]) for f in fields(RunConfig)}


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
    return _read_input(path, "config file", lambda text: parse_config_text(text, base))
