"""KITTI-format ingestion, PPM image I/O, and the synthetic scene oracle.

Labels follow the 15-field KITTI devkit schema (16th score field optional
for predictions). Images are binary PPM (P6, maxval 255) only, which keeps
decode/encode bit-exact. Synthetic scenes place upright cuboids in the
camera frustum, render them flat shaded over a gradient background, and
rasterize the exact per-pixel depth via ray/box intersection, so they can
serve as ground truth for training and evaluation tests.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, GenerationError, ParseError
from .geometry import CameraCalibration, _wrap_angle, rotation_y
from .numerics import Tensor

DONTCARE = "DontCare"


@dataclass
class LabeledObject:
    """One KITTI label line: class, 2D box, 3D dims/location/yaw."""

    class_name: str
    truncation: float
    occlusion: int
    alpha: float
    bbox2d: tuple          # (left, top, right, bottom) pixels
    dimensions: tuple      # (h, w, l) meters
    location: tuple        # (x, y, z) meters, bottom face center, camera frame
    rotation_y: float
    score: float = None    # populated for prediction files

    @property
    def ignorable(self):
        return self.class_name == DONTCARE

    def center3d(self):
        """Geometric center of the box (location is the bottom face center)."""
        x, y, z = self.location
        h = self.dimensions[0]
        return (x, y - h / 2.0, z)

    def bev_box(self):
        """(cx, cz, l, w, yaw) of the ground-plane rectangle."""
        x, _, z = self.location
        h, w, l = self.dimensions
        return (x, z, l, w, self.rotation_y)

    def corners3d(self):
        """8 box corners [8,3] in the camera frame."""
        h, w, l = self.dimensions
        xs = np.array([l, l, -l, -l, l, l, -l, -l]) / 2.0
        ys = np.array([0.0, 0.0, 0.0, 0.0, -h, -h, -h, -h])
        zs = np.array([w, -w, -w, w, w, -w, -w, w]) / 2.0
        pts = np.stack([xs, ys, zs], axis=1) @ rotation_y(self.rotation_y).T
        return pts + np.asarray(self.location)

    def image_bbox2d(self, calib, image_hw):
        """(left, top, right, bottom) of the projected 3D box, clipped to the image."""
        h, w = image_hw
        upper = (w - 1, h - 1, w - 1, h - 1)
        return tuple(float(np.clip(v, 0, hi)) for v, hi in zip(_projected_bbox(self, calib), upper))


def parse_kitti_label(line, line_number=None):
    """Parse one 15-field (optionally 16-field) KITTI label line."""
    where = f" (line {line_number})" if line_number is not None else ""
    fields = line.split()
    if len(fields) not in (15, 16):
        raise ParseError(f"expected 15 or 16 fields, got {len(fields)}{where}")
    try:
        vals = [float(f) for f in fields[1:]]
        occlusion = int(vals[1])  # "nan" and "inf" parse as floats but not as ints
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"unparseable number in label line{where}: {exc}") from None
    obj = LabeledObject(
        class_name=fields[0],
        truncation=vals[0],
        occlusion=occlusion,
        alpha=vals[2],
        bbox2d=tuple(vals[3:7]),
        dimensions=tuple(vals[7:10]),
        location=tuple(vals[10:13]),
        rotation_y=vals[13],
        score=vals[14] if len(fields) == 16 else None,
    )
    if not obj.ignorable:
        left, top, right, bottom = obj.bbox2d
        if right <= left or bottom <= top:
            raise ParseError(f"degenerate 2D box {obj.bbox2d}{where}")
        if min(obj.dimensions) <= 0:  # as `head.Detection3D` requires
            raise ParseError(f"dimensions must be positive, got {obj.dimensions}{where}")
    return obj


def format_kitti_label(obj, include_score=None):
    """Inverse of parse_kitti_label; numbers keep round-trip precision."""
    parts = [obj.class_name,
             f"{obj.truncation:.6f}", str(int(obj.occlusion)), f"{obj.alpha:.8f}"]
    parts += [f"{v:.8f}" for v in obj.bbox2d]
    parts += [f"{v:.8f}" for v in obj.dimensions]
    parts += [f"{v:.8f}" for v in obj.location]
    parts.append(f"{obj.rotation_y:.8f}")
    if include_score is None:
        include_score = obj.score is not None
    if include_score:
        parts.append(f"{obj.score:.8f}")
    return " ".join(parts)


def _read_input(path, what, parse, text=True):
    """parse(contents) of the input file `path`, a `what` such as "label file";
    the contents are UTF-8 text, or bytes with text=False. Every input file
    is read and parsed here, so every failure is typed and names the file:
    an error `parse` raises gets "<what> <path>: " in front, keeping its type."""
    try:
        raw = Path(path).read_bytes()
        contents = raw.decode("utf-8") if text else raw
    except FileNotFoundError:
        raise ConfigError(f"{what} {path} does not exist") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return parse(contents)
    except (ConfigError, FormatError, ParseError) as exc:
        raise type(exc)(f"{what} {path}: {exc}") from None


def _stem_files(directory, suffix, what):
    """{stem: path} of the `suffix` files in `directory`, in stem order."""
    try:
        paths = [p for p in Path(directory).iterdir() if p.suffix == suffix]
    except FileNotFoundError:
        raise ConfigError(f"{what} directory {directory} does not exist") from None
    except OSError as exc:
        raise ConfigError(f"cannot list {what} directory {directory}: {exc.strerror}") from None
    return {p.stem: p for p in sorted(paths, key=lambda p: p.stem)}


def parse_kitti_labels(text):
    """Every non-blank line of a KITTI label file's text, parsed."""
    return [parse_kitti_label(line, i)
            for i, line in enumerate(text.splitlines(), start=1) if line.strip()]


def read_label_file(path):
    return _read_input(path, "label file", parse_kitti_labels)


def write_label_file(path, objects, include_score=None):
    lines = [format_kitti_label(o, include_score) for o in objects]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def parse_kitti_calib(text):
    """Build a CameraCalibration from KITTI calib text.

    The "P2:" line (12 numbers, row-major 3x4) is embedded into a 4x4
    intrinsic matrix. The extrinsic is the identity: KITTI ground truth
    lives in the rectified camera frame.
    """
    entries = {}
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, rest = line.partition(":")
        try:
            entries[key.strip()] = [float(v) for v in rest.split()]
        except ValueError:
            continue  # unrelated non-numeric line
    if "P2" not in entries:
        raise ParseError("calibration text has no P2 line")
    vals = entries["P2"]
    if len(vals) != 12:
        raise ParseError(f"P2 must carry 12 numbers, got {len(vals)}")
    k_i = np.eye(4)
    k_i[:3, :] = np.asarray(vals).reshape(3, 4)
    return CameraCalibration(k_i, np.eye(4))


def read_calib_file(path):
    return _read_input(path, "calibration file", parse_kitti_calib)


def synthetic_calibration(height, width):
    """The camera of synthetic scenes, and of images without a calibration
    file: focal length 1.1 x width, principal point at the image centre."""
    focal = 1.1 * width
    return CameraCalibration.from_pinhole(focal, focal, width / 2.0, height / 2.0)


def format_kitti_calib(calib):
    p2 = " ".join(f"{v:.12e}" for v in calib.k_intrinsic[:3, :].reshape(-1))
    return f"P2: {p2}\n"


# -- PPM (P6) codec ---------------------------------------------------------------


def _read_token(buf, pos):
    # skip whitespace and '#' comments between header tokens
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("truncated PPM header")
    return buf[start:pos], pos


def decode_ppm(raw):
    """Binary P6 bytes to a float tensor [3, H, W] scaled to [0, 1]."""
    if raw[:2] == b"P3":
        raise FormatError("ASCII PPM (P3) is not supported; convert to binary P6")
    if raw[:2] != b"P6":
        raise FormatError(f"not a P6 PPM (magic {raw[:2]!r})")
    pos = 2
    w_tok, pos = _read_token(raw, pos)
    h_tok, pos = _read_token(raw, pos)
    max_tok, pos = _read_token(raw, pos)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError:
        raise FormatError("non-numeric PPM header fields") from None
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}")
    if width < 0 or height < 0:
        raise FormatError(f"negative PPM size {width}x{height}")
    pos += 1  # exactly one whitespace byte after maxval
    need = width * height * 3
    payload = raw[pos:pos + need]
    if len(payload) != need:
        raise FormatError(f"truncated PPM payload: need {need} bytes, have {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    chw = pixels.astype(np.float64).transpose(2, 0, 1) / 255.0
    return Tensor(chw)


def encode_ppm(image):
    """Float tensor [3, H, W] in [0, 1] to binary P6 bytes."""
    data = image.data if isinstance(image, Tensor) else np.asarray(image)
    if data.ndim != 3 or data.shape[0] != 3:
        raise FormatError(f"expected [3,H,W] image, got {data.shape}")
    _, h, w = data.shape
    pixels = np.clip(np.rint(data * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def load_image(path):
    return _read_input(path, "image", decode_ppm, text=False)


def save_image(path, image):
    Path(path).write_bytes(encode_ppm(image))


# -- synthetic scenes ---------------------------------------------------------------


@dataclass
class SceneConfig:
    """Knobs for the synthetic cuboid generator."""

    image_size: tuple = (96, 96)       # (height, width)
    min_objects: int = 1
    max_objects: int = 3
    depth_range: tuple = (7.0, 30.0)   # object center depths, meters
    lateral_fraction: float = 0.8      # fraction of the frustum used laterally
    dims_range: tuple = ((1.3, 1.9), (1.5, 1.9), (3.2, 4.4))  # (h, w, l) ranges
    ground_y: tuple = (1.1, 1.7)       # bottom-face height band, camera y (down)
    max_attempts: int = 200
    max_overlap: float = 0.15          # projected-box overlap gate (occlusion 0)
    background_depth: float = 46.8     # supervision depth for empty pixels
    class_name: str = "Car"


@dataclass
class SyntheticScene:
    image: Tensor          # [3, H, W] in [0, 1]
    depth_map: Tensor      # [H, W] meters; background_depth where no object
    objects: list
    calib: CameraCalibration
    seed: int
    foreground: np.ndarray = None  # [H, W] bool, pixels covered by a cuboid


def _ray_box_depth(dirs, obj):
    """Depth of the nearest intersection of each pixel ray with one cuboid.

    dirs: [H, W, 3] camera rays with unit z. Returns [H, W] hit depth
    (camera z of the hit point) with +inf where the ray misses. Uses the
    slab method in the box frame; the box frame is the object frame with
    y in [-h, 0] so the location marks the bottom face center.
    """
    h, w, l = obj.dimensions
    rot = rotation_y(obj.rotation_y)
    loc = np.asarray(obj.location)
    # transform rays into the box frame: origin and direction
    origin = -rot.T @ loc
    d = dirs @ rot  # equals (rot.T @ dir) per pixel
    lo = np.array([-l / 2.0, -h, -w / 2.0])
    hi = np.array([l / 2.0, 0.0, w / 2.0])

    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        t0 = (lo[None, None, :] - origin[None, None, :]) * inv
        t1 = (hi[None, None, :] - origin[None, None, :]) * inv
    near = np.minimum(t0, t1)
    tmin = near.max(axis=2)
    tmax = np.maximum(t0, t1).min(axis=2)
    t_hit = np.where((tmax >= tmin) & (tmax > 0), np.maximum(tmin, 0.0), np.inf)
    face_axis = near.argmax(axis=2)  # which slab the ray enters through
    # rays have unit z in the camera frame, so camera depth equals t
    return t_hit, face_axis


_FACE_SHADE = np.array([0.75, 1.0, 0.55])  # entry through x / y / z slab


def generate_synthetic_scene(seed, config=None):
    """Deterministic scene of 1..N upright cuboids with exact depth.

    The projected 3D center of every object is inside the image by
    construction; placement retries a bounded number of times before
    raising GenerationError.
    """
    cfg = config or SceneConfig()
    rng = np.random.default_rng(seed)
    height, width = cfg.image_size
    calib = synthetic_calibration(height, width)

    n_objects = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    objects = []
    attempts = 0
    while len(objects) < n_objects:
        attempts += 1
        if attempts > cfg.max_attempts:
            if len(objects) >= cfg.min_objects:
                break  # crowded draw: settle for what fits, still >= min_objects
            raise GenerationError(
                f"could not place {cfg.min_objects} objects in {cfg.max_attempts} attempts (seed {seed})")
        # inverse-depth sampling: projected sizes spread evenly, so several
        # objects pack into the frame without hiding each other
        z = 1.0 / rng.uniform(1.0 / cfg.depth_range[1], 1.0 / cfg.depth_range[0])
        half_span = cfg.lateral_fraction * z * (width / 2.0) / calib.fx
        x = rng.uniform(-half_span, half_span)
        y = rng.uniform(*cfg.ground_y)
        dims = tuple(rng.uniform(lo, hi) for lo, hi in cfg.dims_range)
        yaw = rng.uniform(-math.pi, math.pi)
        candidate = LabeledObject(
            class_name=cfg.class_name, truncation=0.0, occlusion=0, alpha=0.0,
            bbox2d=(0.0, 0.0, 1.0, 1.0), dimensions=dims,
            location=(x, y, z), rotation_y=yaw)
        if not _placement_ok(candidate, objects, calib, cfg):
            continue
        objects.append(candidate)
    objects.sort(key=lambda o: o.location[2])  # near to far, render order free

    # gradient background
    img = np.empty((3, height, width))
    gy = np.linspace(0.25, 0.6, height)[None, :, None]
    gx = np.linspace(0.0, 0.15, width)[None, None, :]
    base = rng.uniform(0.2, 0.5, size=3)[:, None, None]
    img[:] = base + gy + gx
    img = np.clip(img, 0.0, 1.0)

    # analytic depth + flat shading
    us, vs = np.meshgrid(np.arange(width) + 0.5, np.arange(height) + 0.5)
    dirs = np.stack([(us - calib.cx) / calib.fx, (vs - calib.cy) / calib.fy,
                     np.ones_like(us)], axis=2)
    depth = np.full((height, width), np.inf)
    owner = np.full((height, width), -1, dtype=np.int64)
    faces = np.zeros((height, width), dtype=np.int64)
    for k, obj in enumerate(objects):
        d, face = _ray_box_depth(dirs, obj)
        closer = d < depth
        depth = np.where(closer, d, depth)
        owner = np.where(closer, k, owner)
        faces = np.where(closer, face, faces)

    colors = rng.uniform(0.1, 1.0, size=(len(objects), 3))
    shade = np.take(_FACE_SHADE, faces)
    for k, obj in enumerate(objects):
        mask = owner == k
        if not mask.any():
            continue
        for c in range(3):
            img[c][mask] = np.clip(colors[k, c] * shade[mask], 0.0, 1.0)

    foreground = owner >= 0
    depth_final = np.where(foreground, depth, cfg.background_depth)

    # finalize labels: clipped 2D boxes of the projected corners, alpha from yaw
    final_objects = [dataclasses.replace(
        obj, bbox2d=obj.image_bbox2d(calib, cfg.image_size),
        alpha=_wrap_angle(obj.rotation_y - math.atan2(obj.location[0], obj.location[2])))
        for obj in objects]

    # quantize to the PPM byte lattice so saved scenes reload bit-identically
    img = np.rint(np.clip(img, 0.0, 1.0) * 255.0) / 255.0

    return SyntheticScene(
        image=Tensor(img), depth_map=Tensor(depth_final),
        objects=final_objects, calib=calib, seed=seed, foreground=foreground)


def _placement_ok(candidate, placed, calib, cfg):
    cx, cy, cz = candidate.center3d()
    uv, depth = calib.project(np.array([[cx, cy, cz]]))
    height, width = cfg.image_size
    margin = 3.0
    if not (margin <= uv[0, 0] <= width - margin and margin <= uv[0, 1] <= height - margin):
        return False
    if depth[0] <= 0:
        return False
    box = _projected_bbox(candidate, calib)
    for other in placed:
        dx = candidate.location[0] - other.location[0]
        dz = candidate.location[2] - other.location[2]
        min_sep = 0.6 * (candidate.dimensions[2] + other.dimensions[2])
        if math.hypot(dx, dz) < min_sep:
            return False
        # labels claim occlusion 0, so reject placements hiding each other
        if _bbox_overlap_fraction(box, _projected_bbox(other, calib)) > cfg.max_overlap:
            return False
    return True


def _projected_bbox(obj, calib):
    uv, _ = calib.project(obj.corners3d())
    return (uv[:, 0].min(), uv[:, 1].min(), uv[:, 0].max(), uv[:, 1].max())


def _bbox_overlap_fraction(a, b):
    """Intersection over the smaller box's area."""
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    smaller = min((a[2] - a[0]) * (a[3] - a[1]), (b[2] - b[0]) * (b[3] - b[1]))
    return iw * ih / smaller if smaller > 0 else 0.0


def scene_to_files(scene, stem, image_dir, label_dir, calib_dir):
    """Write a scene as KITTI-style image/label/calib files."""
    for d in (image_dir, label_dir, calib_dir):
        Path(d).mkdir(parents=True, exist_ok=True)
    save_image(Path(image_dir) / f"{stem}.ppm", scene.image)
    write_label_file(Path(label_dir) / f"{stem}.txt", scene.objects)
    (Path(calib_dir) / f"{stem}.txt").write_text(format_kitti_calib(scene.calib))


@dataclass
class Sample:
    """One training/inference record; depth_map is None for real KITTI data."""

    image: Tensor
    calib: CameraCalibration
    objects: list = None
    depth_map: Tensor = None
    foreground: np.ndarray = None
    stem: str = ""


def sample_from_scene(scene, stem=""):
    return Sample(image=scene.image, calib=scene.calib, objects=scene.objects,
                  depth_map=scene.depth_map, foreground=scene.foreground, stem=stem)
