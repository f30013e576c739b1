"""Space-coordinate transformer with depth-gradient positional encoding.

The attention kernel is the linear-transformer form: a positive feature map
phi(x) = elu(x) + 1 replaces the softmax, so attention reduces to one
accumulator pass over keys and one over queries. An encoder lifts the
normalized 3D coordinates grid to tokens; a decoder maps those tokens onto
the depth-aware visual features. The decoder's positional signal can come
from several encodings, the richest being the depth-gradient one: fixed
Sobel/Laplacian responses of the predicted depth map, a learned local
branch, the depth itself, and a learned base embedding, projected together.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .errors import ConfigError, DimensionError
from .geometry import lid_centers
from .numerics import Tensor

if TYPE_CHECKING:
    from .dcpm import DepthDistribution
    from .geometry import CoordinateGrid, DepthBinSpec

PE_KINDS = ("none", "sinusoidal", "ape", "dpe", "dgpe")

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()
LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


@dataclass
class TokenSequence:
    """Flattened spatial tokens [N, E] plus the originating (H, W)."""

    tokens: Tensor
    grid_hw: tuple

    def __post_init__(self):
        n = self.tokens.shape[0]
        if self.grid_hw is not None and n != self.grid_hw[0] * self.grid_hw[1]:
            raise DimensionError(f"{n} tokens cannot come from grid {self.grid_hw}")


@dataclass
class PositionalEncoding:
    kind: str
    values: Tensor  # [N, E]


# -- token/map plumbing ------------------------------------------------------------


def tokens_from_map(x):
    """[C, H, W] -> [H*W, C]."""
    c, h, w = x.shape
    return nm.transpose(nm.reshape(x, (c, h * w)), (1, 0))


def map_from_tokens(t, hw):
    """[H*W, C] -> [C, H, W]."""
    h, w = hw
    n, c = t.shape
    if n != h * w:
        raise DimensionError(f"{n} tokens do not fill a {h}x{w} map")
    return nm.reshape(nm.transpose(t, (1, 0)), (c, h, w))


def _ones(shape):
    """A read-only ones tensor of `shape` that stores one element (zero strides)."""
    return Tensor(_ones_array(tuple(shape), nm.current_dtype()))


@functools.lru_cache(maxsize=None)
def _ones_array(shape, dtype):
    # built once per shape and width: broadcast_to costs more than the
    # product it feeds, and a read-only view is safe to share
    return np.broadcast_to(dtype(1), shape)


def expand_rows(vec, n):
    """[E] -> [n, E] by outer product with a ones column."""
    return nm.matmul(_ones((n, 1)), nm.reshape(vec, (1, vec.size)))


def expand_scalar(t, shape):
    """0-d (or single-element) tensor -> constant-filled tensor of `shape`."""
    total = int(np.prod(shape))
    flat = nm.matmul(nm.reshape(t, (1, 1)), _ones((1, total)))
    return nm.reshape(flat, shape)


def linear(x, w, b=None):
    out = nm.matmul(x, w)
    if b is not None:
        out = out + expand_rows(b, x.shape[0])
    return out


def layer_norm(x, gamma, beta, eps=1e-5):
    """Per-token normalization over the embedding axis.

    The statistics are [N, 1] columns. The inverse deviation is computed on
    its column and only then spread over the embedding axis as a broadcast
    view, so the tape keeps N values per step, not N * E. The mean is
    spread first: `x - mu` against a view keeps the order in which the
    variance is summed, and with it the bits of the output.
    """
    n, e = x.shape
    mu = nm.matmul(x.mean(axis=1, keepdims=True), _ones((1, e)))
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)                # [N, 1]
    rstd = nm.matmul(nm.exp(nm.log(var + eps) * -0.5), _ones((1, e)))
    return (xc * rstd) * expand_rows(gamma, n) + expand_rows(beta, n)


def conv1x1(x, w, b=None):
    """Pointwise channel projection on a [C, H, W] map; w is [Cout, Cin]."""
    c, h, w_ = x.shape
    out = nm.matmul(w, nm.reshape(x, (c, h * w_)))
    if b is not None:
        out = out + nm.matmul(nm.reshape(b, (b.size, 1)), _ones((1, h * w_)))
    return nm.reshape(out, (w.shape[0], h, w_))


def pixel_shuffle(x):
    """Channel-to-space rearrangement: [4C, H, W] -> [C, 2H, 2W]."""
    c4, h, w = x.shape
    if c4 % 4:
        raise DimensionError(f"pixel_shuffle needs channels divisible by 4, got {c4}")
    c = c4 // 4
    t = nm.reshape(x, (c, 2, 2, h, w))
    t = nm.transpose(t, (0, 3, 1, 4, 2))
    return nm.reshape(t, (c, 2 * h, 2 * w))


# -- linear attention ---------------------------------------------------------------


def feature_map(x):
    return nm.elu(x) + 1.0


def linear_attention(q, k, v):
    """Positive-feature attention in accumulator form.

    q: [N, E], k: [M, E], v: [M, Ev]. One pass builds the key-side
    accumulators S = sum_j phi(k_j) v_j^T and z = sum_j phi(k_j); each query
    then reads phi(q_i)^T S / phi(q_i)^T z. The denominator is strictly
    positive because phi > 0.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise DimensionError("linear_attention operands must be 2-d")
    if q.shape[1] != k.shape[1]:
        raise DimensionError(f"query/key width mismatch {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise DimensionError(f"key/value count mismatch {k.shape} vs {v.shape}")
    phi_q = feature_map(q)
    phi_k = feature_map(k)
    s = nm.matmul(nm.transpose(phi_k, (1, 0)), v)              # [E, Ev]
    num = nm.matmul(phi_q, s)                                  # [N, Ev]
    ksum = nm.reduce_sum(phi_k, axis=0, keepdims=True)         # [1, E]
    den = nm.matmul(phi_q, nm.transpose(ksum, (1, 0)))         # [N, 1]
    return num * nm.matmul(nm.reciprocal(den), _ones((1, v.shape[1])))


def linear_attention_reference(q, k, v):
    """Quadratic-cost oracle on raw arrays; independent of the tensor path."""
    q = np.asarray(q.data if isinstance(q, Tensor) else q, dtype=np.float64)
    k = np.asarray(k.data if isinstance(k, Tensor) else k, dtype=np.float64)
    v = np.asarray(v.data if isinstance(v, Tensor) else v, dtype=np.float64)
    phi = lambda x: np.where(x > 0, x, np.exp(x) - 1.0) + 1.0
    pq, pk = phi(q), phi(k)
    weights = pq @ pk.T                     # [N, M], all positive
    weights = weights / weights.sum(axis=1, keepdims=True)
    return weights @ v


# -- transformer blocks ----------------------------------------------------------------


def init_linear(rng, fan_in, fan_out):
    w = nm.randn_param(rng, (fan_in, fan_out), (1.0 / fan_in) ** 0.5)
    b = nm.zeros_param((fan_out,))
    return w, b


def init_attention_block(rng, e, ffn_width, cross=False):
    p = {}
    p["ln1_g"], p["ln1_b"] = nm.parameter(np.ones(e)), nm.zeros_param((e,))
    if cross:
        p["lnkv_g"], p["lnkv_b"] = nm.parameter(np.ones(e)), nm.zeros_param((e,))
    for name in ("q", "k", "v", "o"):
        p[f"{name}_w"], p[f"{name}_b"] = init_linear(rng, e, e)
    p["ln2_g"], p["ln2_b"] = nm.parameter(np.ones(e)), nm.zeros_param((e,))
    p["f1_w"], p["f1_b"] = init_linear(rng, e, ffn_width)
    p["f2_w"], p["f2_b"] = init_linear(rng, ffn_width, e)
    return p


def attention_block(x, p, kv=None, keys_from="kv"):
    """Pre-norm residual block: attention then feed-forward.

    kv=None gives self-attention. With kv set, values always come from kv;
    keys come from kv (decoder-style cross-attention) or from the query
    stream itself (keys_from="x", the multi-scale fusion wiring where the
    finer level supplies query and key and the running fusion the value).
    """
    h = layer_norm(x, p["ln1_g"], p["ln1_b"])
    if kv is None:
        hk = h
    else:
        hk = layer_norm(kv, p["lnkv_g"], p["lnkv_b"])
    q = linear(h, p["q_w"], p["q_b"])
    k = linear(h if keys_from == "x" else hk, p["k_w"], p["k_b"])
    v = linear(hk if kv is not None else h, p["v_w"], p["v_b"])
    x = x + linear(linear_attention(q, k, v), p["o_w"], p["o_b"])
    h2 = layer_norm(x, p["ln2_g"], p["ln2_b"])
    x = x + linear(nm.relu(linear(h2, p["f1_w"], p["f1_b"])), p["f2_w"], p["f2_b"])
    return x


# -- space position encoder --------------------------------------------------------------


def init_encoder_params(rng, bins, embed, n_tokens, blocks=2, ffn_width=128):
    p = {}
    in_width = bins * 4
    p["mlp1_w"], p["mlp1_b"] = init_linear(rng, in_width, embed)
    p["mlp2_w"], p["mlp2_b"] = init_linear(rng, embed, embed)
    p["ape"] = nm.randn_param(rng, (n_tokens, embed), 0.02)
    p["blocks"] = [init_attention_block(rng, embed, ffn_width) for _ in range(blocks)]
    return p


def encode_space_positions(grid, params):
    """Lift the normalized coordinates grid to tokens and self-attend.

    grid values are [(D*4), H, W]; each spatial cell becomes one token whose
    feature is its full depth column. A learned absolute positional table is
    added before the attention blocks.
    """
    vals = grid.values
    d4, h, w = vals.shape
    x = tokens_from_map(vals)                       # [N, D*4]
    x = linear(x, params["mlp1_w"], params["mlp1_b"])
    x = nm.relu(x)
    x = linear(x, params["mlp2_w"], params["mlp2_b"])
    ape = params["ape"]
    if ape.shape[0] != x.shape[0]:
        raise ConfigError(f"encoder positional table covers {ape.shape[0]} tokens, grid has {x.shape[0]}")
    x = x + ape
    for block in params["blocks"]:
        x = attention_block(x, block)
    return TokenSequence(tokens=x, grid_hw=(h, w))


# -- depth-derived positional encodings ----------------------------------------------------


def expected_depth_map(probabilities, spec):
    """Probability-weighted bin-center depth per pixel: [D,H,W] -> [1,H,W]."""
    d, h, w = probabilities.shape
    centers = Tensor(lid_centers(spec).reshape(d, 1))
    cols = nm.transpose(nm.reshape(probabilities, (d, h * w)), (1, 0))  # [N, D]
    expect = nm.matmul(cols, centers)                                   # [N, 1]
    return nm.reshape(nm.transpose(expect, (1, 0)), (1, h, w))


def edge_kernels():
    k = np.stack([SOBEL_X, SOBEL_Y, LAPLACIAN])[:, None, :, :]
    return Tensor(k)


def edge_filter_responses(depth_map):
    """Sobel-X, Sobel-Y and Laplacian responses of a [1,H,W] depth map.

    The corner pixel's value is subtracted first: the filters ignore
    constant offsets in the interior anyway, and anchoring makes the
    zero-padded borders consistent, so a constant map yields exactly zero
    responses everywhere (an exact zero a mean would miss by rounding).
    """
    onehot = np.zeros(depth_map.shape)
    onehot[0, 0, 0] = 1.0
    anchor = (depth_map * Tensor(onehot)).sum()
    centered = depth_map + expand_scalar(anchor, depth_map.shape) * -1.0
    return nm.conv2d(centered, edge_kernels())


def init_dgpe_params(rng, embed, grid_hw, local_channels=8):
    h, w = grid_hw
    p = {}
    p["local_w"] = nm.randn_param(rng, (local_channels, 1, 3, 3), (2.0 / 9.0) ** 0.5)
    p["local_b"] = nm.zeros_param((local_channels,))
    p["init_pe"] = nm.randn_param(rng, (embed, h, w), 0.02)
    in_ch = 3 + 1 + local_channels + embed
    p["proj_w"] = nm.randn_param(rng, (embed, in_ch), (1.0 / in_ch) ** 0.5)
    p["proj_b"] = nm.zeros_param((embed,))
    return p


def depth_gradient_positional_encoding(pred, spec, params, use_edges=True):
    """Positional tokens from the predicted depth distribution.

    Pipeline: expected depth normalized by d_max; fixed edge filters; a
    learned 3x3 branch for local perception; concatenation with the depth
    channel and the learned base embedding; pointwise projection to the
    token width. With use_edges=False the edge channels are zeroed before
    projection, which is exactly the plain depth encoding.
    """
    dbar = expected_depth_map(pred.probabilities, spec) * (1.0 / spec.d_max)
    edges = edge_filter_responses(dbar)
    if not use_edges:
        edges = edges * 0.0
    local = nm.conv2d(dbar, params["local_w"], params["local_b"])
    stack = nm.concat([edges, dbar, local, params["init_pe"]], axis=0)
    out_map = conv1x1(stack, params["proj_w"], params["proj_b"])
    kind = "dgpe" if use_edges else "dpe"
    return PositionalEncoding(kind=kind, values=tokens_from_map(out_map))


def sinusoidal_table(n_tokens, embed):
    pe = np.zeros((n_tokens, embed))
    pos = np.arange(n_tokens, dtype=np.float64)[:, None]
    idx = np.arange(0, embed, 2, dtype=np.float64)
    denom = np.power(10000.0, idx / embed)
    pe[:, 0::2] = np.sin(pos / denom)
    pe[:, 1::2] = np.cos(pos / denom[: pe[:, 1::2].shape[1]])
    return pe


def init_positional_encoding_params(rng, kind, embed, grid_hw, local_channels=8):
    """Learned state for one encoding kind (empty for fixed kinds)."""
    if kind not in PE_KINDS:
        raise ConfigError(f"unknown positional encoding {kind!r}; valid: {PE_KINDS}")
    n_tokens = grid_hw[0] * grid_hw[1]
    if kind == "ape":
        return {"table": nm.randn_param(rng, (n_tokens, embed), 0.02)}
    if kind in ("dpe", "dgpe"):
        return init_dgpe_params(rng, embed, grid_hw, local_channels)
    return {}


def make_positional_encoding(kind, params, embed, grid_hw, pred=None, spec=None):
    """Evaluate one of the supported encodings as [N, E] tokens."""
    if kind not in PE_KINDS:
        raise ConfigError(f"unknown positional encoding {kind!r}; valid: {PE_KINDS}")
    n_tokens = grid_hw[0] * grid_hw[1]
    if kind == "none":
        return PositionalEncoding("none", Tensor(np.zeros((n_tokens, embed))))
    if kind == "sinusoidal":
        return PositionalEncoding("sinusoidal", Tensor(sinusoidal_table(n_tokens, embed)))
    if kind == "ape":
        return PositionalEncoding("ape", params["table"])
    if pred is None or spec is None:
        raise ConfigError(f"{kind} positional encoding needs a depth prediction")
    return depth_gradient_positional_encoding(pred, spec, params, use_edges=kind == "dgpe")


# -- depth-space-aware decoder ---------------------------------------------------------------


def init_decoder_params(rng, channels, embed, blocks=2, ffn_width=128):
    p = {}
    p["in_w"], p["in_b"] = init_linear(rng, channels, embed)
    p["blocks"] = [
        {
            "self": init_attention_block(rng, embed, ffn_width),
            "cross": init_attention_block(rng, embed, ffn_width, cross=True),
        }
        for _ in range(blocks)
    ]
    # zero init: the decoder starts as the identity over its visual input
    p["out_w"] = nm.zeros_param((embed, channels))
    p["out_b"] = nm.zeros_param((channels,))
    return p


def decode_depth_space_aware(f_dcp, f_e, pe, params):
    """Map encoder tokens onto the visual features; residual overall.

    f_dcp [C,H,W] supplies the query stream (with its positional encoding
    added once at the input); f_e are the space-position tokens consumed by
    every cross-attention. The output projection starts at zero, so a fresh
    decoder returns f_dcp unchanged.
    """
    c, h, w = f_dcp.shape
    x = tokens_from_map(f_dcp)
    x = linear(x, params["in_w"], params["in_b"])
    if pe is not None:
        if pe.values.shape != x.shape:
            raise DimensionError(f"positional encoding {pe.values.shape} vs tokens {x.shape}")
        x = x + pe.values
    for block in params["blocks"]:
        x = attention_block(x, block["self"])
        x = attention_block(x, block["cross"], kv=f_e.tokens, keys_from="kv")
    out = linear(x, params["out_w"], params["out_b"])
    return f_dcp + map_from_tokens(out, (h, w))
