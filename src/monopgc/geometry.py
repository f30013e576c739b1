"""Camera calibration, depth discretization, and the 3D coordinates grid.

Depth is discretized with linear-increasing bins: bin width grows linearly
with the bin index, so near depths get finer resolution. Pixel/bin pairs
form homogeneous frustum points (u*d, v*d, d, 1) that back-project to
world space through the inverse intrinsic and extrinsic matrices, then
normalize into [0,1]^3 over a configurable region of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, ConfigError, DomainError
from .numerics import Tensor

MAX_CONDITION_NUMBER = 1e12


@dataclass(frozen=True)
class CameraCalibration:
    """Intrinsic and extrinsic 4x4 matrices; both validated as invertible."""

    k_intrinsic: np.ndarray
    k_extrinsic: np.ndarray

    def __post_init__(self):
        for name, mat in (("intrinsic", self.k_intrinsic), ("extrinsic", self.k_extrinsic)):
            arr = np.asarray(mat, dtype=np.float64)
            if arr.shape != (4, 4):
                raise CalibrationError(f"{name} matrix must be 4x4, got {arr.shape}")
            cond = np.linalg.cond(arr) if np.isfinite(arr).all() else np.inf  # SVD fails on NaN
            if not np.isfinite(cond) or cond > MAX_CONDITION_NUMBER:
                raise CalibrationError(f"{name} matrix is singular or badly conditioned (cond={cond:.3g})")
            object.__setattr__(self, "k_intrinsic" if name == "intrinsic" else "k_extrinsic", arr)
        if self.k_intrinsic[0, 0] <= 0 or self.k_intrinsic[1, 1] <= 0:
            raise CalibrationError("intrinsic focal lengths must be positive")

    @classmethod
    def from_pinhole(cls, fx, fy, cx, cy, extrinsic=None):
        k = np.array([[fx, 0.0, cx, 0.0],
                      [0.0, fy, cy, 0.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0]])
        return cls(k, np.eye(4) if extrinsic is None else extrinsic)

    @property
    def fx(self):
        return self.k_intrinsic[0, 0]

    @property
    def fy(self):
        return self.k_intrinsic[1, 1]

    @property
    def cx(self):
        return self.k_intrinsic[0, 2]

    @property
    def cy(self):
        return self.k_intrinsic[1, 2]

    def back_projection_matrix(self):
        return np.linalg.inv(self.k_extrinsic) @ np.linalg.inv(self.k_intrinsic)

    def forward_projection_matrix(self):
        return self.k_intrinsic @ self.k_extrinsic

    def project(self, points_xyz):
        """Project camera/world points [N,3] to pixel coordinates [N,2] plus depth [N]."""
        pts = np.asarray(points_xyz, dtype=np.float64)
        hom = np.concatenate([pts, np.ones((pts.shape[0], 1))], axis=1)
        frustum = (self.forward_projection_matrix() @ hom.T).T
        depth = frustum[:, 2]
        uv = frustum[:, :2] / depth[:, None]
        return uv, depth


@dataclass(frozen=True)
class DepthBinSpec:
    """Linear-increasing discretization of [d_min, d_max] into `bins` intervals."""

    d_min: float
    d_max: float
    bins: int

    def __post_init__(self):
        if not (0 < self.d_min < self.d_max):
            raise ConfigError(f"need 0 < d_min < d_max, got ({self.d_min}, {self.d_max})")
        if self.bins < 2:
            raise ConfigError(f"need at least 2 depth bins, got {self.bins}")


def lid_bin_to_depth(spec: DepthBinSpec, i) -> float:
    """Depth of bin edge i, for i in [0, bins]; strictly increasing in i."""
    if not 0 <= i <= spec.bins:
        raise DomainError(f"edge index {i} outside [0, {spec.bins}]")
    return _edges_at(spec, i)


def lid_edges(spec: DepthBinSpec) -> np.ndarray:
    return _edges_at(spec, np.arange(spec.bins + 1, dtype=np.float64))


def lid_centers(spec: DepthBinSpec) -> np.ndarray:
    edges = lid_edges(spec)
    return 0.5 * (edges[:-1] + edges[1:])


def depth_to_lid_bin(spec: DepthBinSpec, depth):
    """Interval index in [0, bins-1] for a metric depth.

    Interval i covers [edge(i), edge(i+1)); the closed-form inverse solves
    i(i+1) = (d - d_min) * D(D+1) / (d_max - d_min). Depths below d_min clamp
    to 0 and depths at or beyond d_max clamp to bins-1.
    """
    d = np.asarray(depth, dtype=np.float64)
    if not np.isfinite(d).all():
        raise DomainError("depth_to_lid_bin: non-finite depth")
    n = spec.bins
    c = (d - spec.d_min) * n * (n + 1) / (spec.d_max - spec.d_min)
    with np.errstate(invalid="ignore"):
        idx = np.floor((-1.0 + np.sqrt(np.maximum(1.0 + 4.0 * c, 0.0))) / 2.0)
    idx = np.clip(idx, 0, n - 1)
    # float roundoff can land the index one interval off near an edge
    idx = np.where(d >= _edges_at(spec, idx + 1), idx + 1, idx)
    idx = np.where(d < _edges_at(spec, idx), idx - 1, idx)
    idx = np.clip(idx, 0, n - 1).astype(np.int64)
    return idx if idx.ndim else int(idx)


def _edges_at(spec, i):
    """Depth of edge i (scalar or array): d_min + (d_max - d_min) i(i+1) / (D(D+1))."""
    return spec.d_min + (spec.d_max - spec.d_min) / (spec.bins * (spec.bins + 1)) * i * (i + 1)


@dataclass
class CoordinateGrid:
    """Normalized world coordinates per (pixel, depth bin), shape (D*4, H, W)."""

    values: Tensor
    roi: tuple
    clamp_fraction: float = 0.0
    grid_hw: tuple = field(default=None)

    @property
    def bins(self):
        return self.values.shape[0] // 4


ROI_Y = (-3.0, 3.0)  # camera-y range of every roi, metres (x is +-depth max)
DEFAULT_ROI = ((-46.8, 46.8), ROI_Y, (2.0, 46.8))


def build_frustum_grid(width, height, spec: DepthBinSpec, stride) -> Tensor:
    """Homogeneous frustum points for every feature cell and depth bin.

    Cell (row, col) at the given stride maps to the full-resolution pixel
    center ((col+0.5)*stride, (row+0.5)*stride). Bin j contributes its lower
    edge depth d_j, giving points (u*d_j, v*d_j, d_j, 1) stacked along the
    leading axis as (D*4, H, W).
    """
    if width % stride or height % stride:
        raise ConfigError(f"image {width}x{height} not divisible by stride {stride}")
    w_cells, h_cells = width // stride, height // stride
    u = (np.arange(w_cells, dtype=np.float64) + 0.5) * stride
    v = (np.arange(h_cells, dtype=np.float64) + 0.5) * stride
    uu, vv = np.meshgrid(u, v)  # [H, W]
    depths = lid_edges(spec)[:spec.bins]  # lower edge of each interval

    grid = np.empty((spec.bins, 4, h_cells, w_cells), dtype=np.float64)
    for j, d in enumerate(depths):
        grid[j, 0] = uu * d
        grid[j, 1] = vv * d
        grid[j, 2] = d
        grid[j, 3] = 1.0
    return Tensor(grid.reshape(spec.bins * 4, h_cells, w_cells))


def frustum_to_world(calib: CameraCalibration, frustum: Tensor) -> Tensor:
    """Back-project homogeneous frustum points through both inverse matrices."""
    dims, h, w = frustum.shape
    if dims % 4:
        raise DomainError(f"frustum leading axis {dims} is not a multiple of 4")
    m = calib.back_projection_matrix().astype(frustum.data.dtype)
    pts = frustum.data.reshape(dims // 4, 4, h, w)
    world = np.einsum("ij,bjhw->bihw", m, pts)
    return Tensor(world.reshape(dims, h, w))


def normalize_grid(world: Tensor, roi=DEFAULT_ROI) -> CoordinateGrid:
    """Affine-map world coordinates into [0,1] per axis, clamping outliers.

    The homogeneous component passes through untouched; the fraction of
    x/y/z entries that needed clamping is recorded on the result.
    """
    for axis, (lo, hi) in enumerate(roi):
        if not hi > lo:
            raise ConfigError(f"degenerate roi on axis {axis}: ({lo}, {hi})")
    dims, h, w = world.shape
    pts = world.data.reshape(dims // 4, 4, h, w).copy()
    clamped = 0
    total = 0
    for axis in range(3):
        lo, hi = roi[axis]
        norm = (pts[:, axis] - lo) / (hi - lo)
        clamped += int((norm < 0).sum() + (norm > 1).sum())
        total += norm.size
        pts[:, axis] = np.clip(norm, 0.0, 1.0)
    grid = Tensor(pts.reshape(dims, h, w))
    return CoordinateGrid(values=grid, roi=tuple(roi),
                          clamp_fraction=clamped / total, grid_hw=(h, w))


def build_normalized_grid(width, height, spec, stride, calib, roi=DEFAULT_ROI) -> CoordinateGrid:
    """Frustum construction, back-projection, and normalization in one call."""
    frustum = build_frustum_grid(width, height, spec, stride)
    world = frustum_to_world(calib, frustum)
    return normalize_grid(world, roi)


def random_calibration(rng) -> CameraCalibration:
    """Random invertible pinhole intrinsics with a random rigid extrinsic."""
    fx = rng.uniform(200.0, 1500.0)
    fy = rng.uniform(200.0, 1500.0)
    cx = rng.uniform(100.0, 1000.0)
    cy = rng.uniform(50.0, 500.0)
    k_i = np.array([[fx, 0, cx, rng.uniform(-100, 100)],
                    [0, fy, cy, rng.uniform(-10, 10)],
                    [0, 0, 1, rng.uniform(-0.1, 0.1)],
                    [0, 0, 0, 1.0]])
    # rigid transform from a random quaternion
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    k_e = np.eye(4)
    k_e[:3, :3] = rot
    k_e[:3, 3] = rng.uniform(-5, 5, size=3)
    return CameraCalibration(k_i, k_e)


def rotation_y(angle):
    """3x3 rotation about the vertical (camera y) axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _wrap_angle(a):
    """Angle in (-pi, pi]."""
    while a <= -math.pi:
        a += 2 * math.pi
    while a > math.pi:
        a -= 2 * math.pi
    return a
