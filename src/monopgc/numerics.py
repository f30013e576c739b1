"""Dense tensors with reverse-mode automatic differentiation.

The array backend is numpy; the autodiff graph is built dynamically as
operations run. Two float widths are supported and selected by a global
mode: "run" computes in float32 (training speed), "check" in float64
(finite-difference verification). The kernel set is deliberately closed:
matmul, conv2d, elementwise add/mul/exp/log/elu/relu/sigmoid, softmax,
sum/mean reductions, bilinear resize, max/avg pooling, concatenation,
reshape and transpose. Everything else in the package composes from
these (subtraction and division are provided as compositions).

conv2d is one GEMM, weight[K, 9C] @ im2col(x)[9C, H*W]; its vjp is two
GEMMs and a col2im. The vjp keeps the unpadded input, and only when the
filter needs a gradient: the padded input and its columns are rebuilt in
the backward pass, never kept on the tape, and the input gradient needs
only shapes. Bilinear resize and adaptive average pooling are the same
separable linear map, out[c] = Wy @ x[c] @ Wx^T, with the vjp
Wy^T @ g @ Wx; each kernel only builds its two 1-d weight matrices.

The vjps of mul, matmul and conv2d compute only the gradients of the
operands that require one, decided when the node is made: the image at
the stem, fixed filters and constant operands cost no backward work.

Every GEMM whose inner dimension can be 1 goes through `_product`: the
ones-vector outer products behind layer norms and biases, the gradient of
a [N, 1] matmul output and a single-filter conv2d's input gradient are
broadcast multiplies: the same values as the GEMM, without OpenBLAS's
slow rank-1 case. The ones are zero-stride views (`dsat._ones`), so an
outer product with them is one row or column, computed once and held as
a read-only broadcast view: the tape keeps each repeated vector once.
elu's derivative is exp(min(x, 0)), the exponential its forward already
computes, and relu's mask is read off its output, so neither keeps a
derivative or a mask of its own. relu, elu and sigmoid select with
np.fmax instead of branching np.where: the same bits, NaN and the sign of
zero included.

The tape is a graph of `_Node`s, kept apart from the tensors' values: a
result's node holds its vjp and its parents' nodes (a leaf parent is the
Tensor itself), never an array of its own. A result's array therefore
lives only while its tensor or some vjp holds it; an intermediate the
caller drops and no vjp saved (an add's or a matmul's output, say) is
freed during the forward pass. backward() frees as it goes: each node
drops its parents and vjp as it is visited, so the arrays a node saved
are released during the sweep, and after it no tensor of the graph keeps
a tape.

Broadcasting is restricted to python-scalar against tensor; any other
shape mismatch raises DimensionError. Division by a tensor needs a
strictly positive denominator (DomainError otherwise), because it is
composed as x * exp(-log d).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, DomainError, EvaluationError

_MODE = "run"
_DTYPES = {"run": np.float32, "check": np.float64}


def current_dtype():
    return _DTYPES[_MODE]


@contextmanager
def check_mode():
    """Temporarily switch tensor creation to 64-bit floats."""
    global _MODE
    prev = _MODE
    _MODE = "check"
    try:
        yield
    finally:
        _MODE = prev


class _Node:
    """A result's place on the tape: its parents' tape entries and its vjp.

    A node holds no array of its own, only what its vjp saved. Each entry of
    `parents` is the parent's node for a result, the parent Tensor itself for
    a leaf (a leaf receives `.grad`), or None for a parent that needed no
    gradient when the node was made, which keeps `zip(parents, vjp(g))`
    aligned. `done` marks a node that a backward() sweep has visited.
    """

    __slots__ = ("parents", "vjp", "done")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp
        self.done = False


class Tensor:
    """A dense n-d array plus an optional place in the gradient tape.

    Tensors are immutable after creation except for gradient accumulation.
    A result that requires grad gets a `_Node`, which links to its parents'
    nodes and holds its backward closure; the tape is the graph of nodes,
    not of tensors, so a result's array lives only while its tensor or a
    vjp holds it. Calling backward() on a scalar output replays the
    recorded operations once, in reverse topological order, and releases
    each one as it goes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "_op")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=current_dtype())
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None
        self._op = "leaf"

    @classmethod
    def _result(cls, data, parents, vjp, op):
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = any(p.requires_grad for p in parents)
        out.grad = None
        out._node = None
        if out.requires_grad:
            out._node = _Node(tuple((p._node or p) if p.requires_grad else None
                                    for p in parents), vjp)
        out._op = op
        return out

    @property
    def _parents(self):
        """The parents' tape entries; () for a leaf, a tapeless or a swept result."""
        return self._node.parents if self._node is not None else ()

    @property
    def _vjp(self):
        """The node's backward closure; settable, so a tracer can wrap it."""
        return self._node.vjp if self._node is not None else None

    @_vjp.setter
    def _vjp(self, vjp):
        self._node.vjp = vjp

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_scalar(self)

    def is_finite(self):
        return bool(np.isfinite(self.data).all())

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from this scalar output.

        The sweep walks nodes, not tensors. Each recorded operation is
        visited exactly once, and its node leaves the order and drops its
        parents and vjp as it is visited, so what the vjp saved is released
        during the sweep, not when the whole tape is dropped. Whether a
        parent gets a gradient was decided when its child's node was made:
        toggling `requires_grad` between a forward and its backward has no
        effect (the package only switches it around whole forwards). A
        sweep that reaches a node an earlier sweep visited is an error,
        raised before any gradient moves: that node no longer links to its
        parents, so the gradient through it would be lost. A second call on
        the same output is the simplest such case; rebuild the forward graph
        instead. A leaf output has no tape: it only accumulates ones into
        its own `.grad`.
        """
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")
        root = self._node
        if root is None:
            if self.requires_grad:
                g = np.ones_like(self.data)
                self.grad = g if self.grad is None else self.grad + g
            return

        # vertices are nodes and the leaf Tensors that receive .grad
        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            vertex, expanded = stack.pop()
            if expanded:
                topo.append(vertex)
                continue
            if id(vertex) in visited:
                continue
            visited.add(id(vertex))
            stack.append((vertex, True))
            if type(vertex) is _Node:
                if vertex.done:
                    raise RuntimeError(
                        "backward() reached a node an earlier backward() already "
                        "swept; zero grads and rebuild the forward pass before "
                        "differentiating again")
                for p in vertex.parents:
                    if p is not None and id(p) not in visited:
                        stack.append((p, False))

        grads = {id(root): np.ones_like(self.data)}
        while topo:
            vertex = topo.pop()
            g = grads.pop(id(vertex), None)
            if type(vertex) is not _Node:
                if g is not None:
                    vertex.grad = g if vertex.grad is None else vertex.grad + g
                continue
            parents, vjp = vertex.parents, vertex.vjp
            vertex.parents, vertex.vjp, vertex.done = (), None, True
            if g is None or vjp is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if pg is None or parent is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -other if isinstance(other, Tensor) else -float(other))

    def __rsub__(self, other):
        return add(-self, float(other))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            if (other.data <= 0).any():
                raise DomainError("division by a tensor needs a strictly positive denominator")
            return mul(self, reciprocal(other))
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def relu(self):
        return relu(self)

    def elu(self):
        return elu(self)

    def sigmoid(self):
        return sigmoid(self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes if axes else None)


def _raise_scalar(t):
    raise DimensionError(f"item() needs a single-element tensor, got shape {t.shape}")


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _coerce_pair(a, b, op):
    """Validate an elementwise pair: same shape, or one python scalar."""
    if isinstance(b, Tensor):
        if a.shape != b.shape:
            raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
        return b, False
    if np.isscalar(b):
        return float(b), True
    raise DimensionError(f"{op}: unsupported operand {type(b).__name__}")


# -- elementwise kernels -------------------------------------------------------


def add(a, b):
    a = as_tensor(a)
    b, scalar = _coerce_pair(a, b, "add")
    if scalar:
        data = a.data + a.data.dtype.type(b)
        return Tensor._result(data, (a,), lambda g: (g,), "add")
    data = a.data + b.data
    return Tensor._result(data, (a, b), lambda g: (g, g), "add")


def mul(a, b):
    a = as_tensor(a)
    b, scalar = _coerce_pair(a, b, "mul")
    if scalar:
        c = a.data.dtype.type(b)
        data = a.data * c
        return Tensor._result(data, (a,), lambda g: (g * c,), "mul")
    data = a.data * b.data
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return g * bd if need_a else None, g * ad if need_b else None

    return Tensor._result(data, (a, b), vjp, "mul")


def exp(x):
    x = as_tensor(x)
    out_data = np.exp(x.data)
    return Tensor._result(out_data, (x,), lambda g: (g * out_data,), "exp")


def log(x):
    x = as_tensor(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        out_data = np.log(x.data)
    xd = x.data
    return Tensor._result(out_data, (x,), lambda g: (g / xd,), "log")


def relu(x):
    x = as_tensor(x)
    # branch-free: fmax maps NaN to 0, but its zero's sign varies between
    # numpy's vector and scalar loops, so adding +0 makes -0 map to +0
    data = np.fmax(x.data, 0)
    data += 0
    # data > 0 is the same set as x > 0, so no mask stays on the tape
    return Tensor._result(data, (x,), lambda g: (g * (data > 0),), "relu")


def elu(x):
    """x where x > 0, else exp(x) - 1 (alpha = 1)."""
    x = as_tensor(x)
    expm = np.exp(np.minimum(x.data, 0.0))  # exactly 1 where x > 0: the derivative
    data = np.fmax(x.data, 0) + (expm - 1.0)  # expm - 1 is +0 where x > 0
    return Tensor._result(data, (x,), lambda g: (g * expm,), "elu")


def sigmoid(x):
    x = as_tensor(x)
    xd = x.data
    e = np.exp(-np.abs(xd))
    denom = 1.0 + e
    out_data = np.fmax(e, xd >= 0) / denom  # numerator 1 where x >= 0, else e
    return Tensor._result(out_data, (x,),
                          lambda g: (g * out_data * (1.0 - out_data),), "sigmoid")


def reciprocal(x):
    """1/x for strictly positive tensors, composed as exp(-log(x))."""
    return exp(mul(log(x), -1.0))


def absolute(x):
    """|x| composed from relu(x) + relu(-x)."""
    return add(relu(x), relu(mul(x, -1.0)))


# -- matmul / conv ---------------------------------------------------------------


def _product(a, b):
    """a @ b for 2-d arrays; a broadcast multiply when the inner dimension is 1.

    OpenBLAS is slow at rank-1 GEMMs. Each output element is one rounded
    product either way, so the values are equal; only the sign of an exact
    zero can differ (the GEMM gives +0 where a * b gives -0). The two zeros
    compare equal, and an addition of any nonzero value erases the sign.

    An operand with a zero stride (a broadcast view such as `dsat._ones`)
    repeats one row or column. A rank-1 product with such an operand is
    computed once and returned as a read-only broadcast view of the full
    shape: the same values, without writing out the repeats. A GEMM operand
    with a zero stride is copied to a contiguous array first, since numpy's
    matmul does not hand such an operand to BLAS and rounds differently.
    """
    if a.shape[-1] == 1:
        shape = (a.shape[0], b.shape[1])
        if a.strides[0] == 0:
            return np.broadcast_to(a[:1] * b, shape)
        if b.strides[1] == 0:
            return np.broadcast_to(a * b[:, :1], shape)
        return a * b
    if 0 in a.strides:
        a = np.ascontiguousarray(a)
    if 0 in b.strides:
        b = np.ascontiguousarray(b)
    return a @ b


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul: expected 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    data = _product(ad, bd)
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_product(g, bd.T) if need_a else None,
                _product(ad.T, g) if need_b else None)

    return Tensor._result(data, (a, b), vjp, "matmul")


def _pad(x):
    """[C, H, W] -> [C, H+2, W+2] with a zero border."""
    C, H, W = x.shape
    padded = np.zeros((C, H + 2, W + 2), dtype=x.dtype)
    padded[:, 1:H + 1, 1:W + 1] = x
    return padded


def _im2col(padded, H, W):
    """[C, H+2, W+2] -> [9C, H*W]; row 9c + 3dy + dx is padded[c, dy:dy+H, dx:dx+W]."""
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))  # [C, H, W, 3, 3]
    return windows.transpose(0, 3, 4, 1, 2).reshape(9 * padded.shape[0], H * W)


def conv2d(x, weight, bias=None):
    """3x3 cross-correlation with zero padding 1; spatial size is preserved.

    x: [C, H, W]; weight: [K, C, 3, 3]; bias: optional [K]. One GEMM,
    weight[K, 9C] @ im2col(x)[9C, H*W]; the vjp is two GEMMs and a col2im.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 3 or weight.ndim != 4:
        raise DimensionError(f"conv2d: expected [C,H,W] and [K,C,3,3], got {x.shape}, {weight.shape}")
    if weight.shape[2:] != (3, 3):
        raise DimensionError(f"conv2d: kernel spatial size must be 3x3, got {weight.shape[2:]}")
    if weight.shape[1] != x.shape[0]:
        raise DimensionError(f"conv2d: channel mismatch, input {x.shape[0]} vs kernel {weight.shape[1]}")
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (weight.shape[0],):
            raise DimensionError(f"conv2d: bias shape {bias.shape} != ({weight.shape[0]},)")

    C, H, W = x.shape
    K = weight.shape[0]
    w2 = weight.data.reshape(K, 9 * C)
    out = (w2 @ _im2col(_pad(x.data), H, W)).reshape(K, H, W)
    if bias is not None:
        out += bias.data[:, None, None]

    need_x, need_w = x.requires_grad, weight.requires_grad
    dtype = x.data.dtype
    xd = x.data if need_w else None  # the input gradient needs only shapes

    def vjp(g):
        g2 = g.reshape(K, H * W)
        gx = gw = None
        if need_w:
            gw = _product(g2, _im2col(_pad(xd), H, W).T).reshape(weight.shape)
        if need_x:
            gcols = _product(w2.T, g2).reshape(C, 3, 3, H, W)
            gx_padded = np.zeros((C, H + 2, W + 2), dtype=dtype)
            for dy in range(3):
                for dx in range(3):
                    gx_padded[:, dy:dy + H, dx:dx + W] += gcols[:, dy, dx]
            gx = gx_padded[:, 1:H + 1, 1:W + 1]
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(1, 2))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._result(out, parents, vjp, "conv2d")


# -- softmax and reductions ------------------------------------------------------


def softmax(x, axis):
    """Exponent-normalized along `axis`, stabilized by max subtraction."""
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax: axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._result(out_data, (x,), vjp, "softmax")


def _axes_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def reduce_sum(x, axis=None, keepdims=False):
    x = as_tensor(x)
    axes = _axes_tuple(axis, x.ndim)
    data = x.data.sum(axis=axes, keepdims=keepdims)
    in_shape = x.shape

    def vjp(g):
        if not keepdims:
            expand = list(in_shape)
            for a in axes:
                expand[a] = 1
            g = g.reshape(expand)
        return (np.broadcast_to(g, in_shape).copy(),)

    return Tensor._result(np.asarray(data), (x,), vjp, "sum")


def reduce_mean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    axes = _axes_tuple(axis, x.ndim)
    n = 1
    for a in axes:
        n *= x.shape[a]
    return mul(reduce_sum(x, axis, keepdims), 1.0 / n)


# -- pooling / resizing ----------------------------------------------------------


def max_pool2d(x, size=2):
    """Non-overlapping max pooling with stride == window size.

    Ties inside a window route the gradient to the first (row-major) maximum.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise DimensionError(f"max_pool2d: expected [C,H,W], got {x.shape}")
    _, H, W = x.shape
    if H % size or W % size:
        raise DimensionError(f"max_pool2d: spatial size {H}x{W} not divisible by {size}")
    xd = x.data
    taps = [np.s_[:, dy::size, dx::size] for dy in range(size) for dx in range(size)]
    out = xd[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, xd[tap], out=out)

    def vjp(g):
        gx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)  # no earlier tap held the maximum
        for tap in taps:  # row-major window order
            hit = free & (xd[tap] == out)
            gx[tap] = g * hit
            free &= ~hit
        return (gx,)

    return Tensor._result(out, (x,), vjp, "max_pool2d")


def _separable(x, wy, wx, op):
    """out[c] = wy @ x[c] @ wx.T as one tape node; the vjp is wy.T @ g @ wx."""
    out = wy @ x.data @ wx.T
    return Tensor._result(out, (x,), lambda g: (wy.T @ g @ wx,), op)


def _pool_matrix(n_in, n_out, dtype):
    # row i averages the torch bin [floor(i*n_in/n_out), ceil((i+1)*n_in/n_out))
    i = np.arange(n_out)[:, None]
    start = (i * n_in) // n_out
    end = -(-((i + 1) * n_in) // n_out)  # ceil division
    j = np.arange(n_in)
    inside = (j >= start) & (j < end)
    return (inside / (end - start)).astype(dtype)


def adaptive_avg_pool2d(x, out_hw):
    """Average pooling to a fixed output size (torch-compatible bin edges)."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise DimensionError(f"adaptive_avg_pool2d: expected [C,H,W], got {x.shape}")
    oh, ow = out_hw
    _, H, W = x.shape
    if oh > H or ow > W:
        raise DimensionError(f"adaptive_avg_pool2d: output {oh}x{ow} exceeds input {H}x{W}")
    dtype = x.data.dtype
    return _separable(x, _pool_matrix(H, oh, dtype), _pool_matrix(W, ow, dtype),
                      "adaptive_avg_pool2d")


def _resize_matrix(n_in, n_out, dtype):
    # Half-pixel-center sampling; source coordinates clamp at the borders.
    coords = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    coords = np.clip(coords, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (coords - lo).astype(dtype)
    rows = np.arange(n_out)
    m = np.zeros((n_out, n_in), dtype=dtype)
    m[rows, lo] = 1 - frac
    m[rows, hi] += frac  # hi == lo at the far border, where frac is 0
    return m


def bilinear_resize(x, out_hw):
    """Bilinear interpolation to (H, W) with half-pixel centres.

    Output row i reads source coordinate (i + 0.5) * H_in / H - 0.5, clamped
    to [0, H_in - 1], and mixes rows floor(coord) and the next one (the same
    row at the far border) with weights 1 - frac and frac; columns alike.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise DimensionError(f"bilinear_resize: expected [C,H,W], got {x.shape}")
    oh, ow = out_hw
    _, H, W = x.shape
    dtype = x.data.dtype
    return _separable(x, _resize_matrix(H, oh, dtype), _resize_matrix(W, ow, dtype),
                      "bilinear_resize")


# -- shape ops -------------------------------------------------------------------


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat: empty input list")
    nd = tensors[0].ndim
    axis = axis % nd
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != nd or other[:axis] + other[axis + 1:] != ref[:axis] + ref[axis + 1:]:
            raise DimensionError(f"concat: incompatible shapes {[t.shape for t in tensors]}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._result(data, tuple(tensors), vjp, "concat")


def reshape(x, shape):
    x = as_tensor(x)
    in_shape = x.shape
    data = x.data.reshape(shape)
    return Tensor._result(data, (x,), lambda g: (g.reshape(in_shape),), "reshape")


def transpose(x, axes=None):
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inverse = np.argsort(axes)
    data = x.data.transpose(axes)
    return Tensor._result(data, (x,), lambda g: (g.transpose(inverse),), "transpose")


# -- parameter helpers -----------------------------------------------------------


def parameter(data):
    return Tensor(data, requires_grad=True)


def randn_param(rng, shape, scale):
    """Gaussian-initialized trainable tensor in the current float width."""
    return parameter(rng.standard_normal(shape) * scale)


def zeros_param(shape):
    return parameter(np.zeros(shape))


# -- verification harness --------------------------------------------------------


def gradient_check(f, x, epsilon=1e-4, sample=None, rng=None):
    """Worst relative disagreement between tape and central-difference gradients.

    `f` maps a Tensor to a scalar Tensor. The check runs in 64-bit mode; `x`
    is promoted to float64. With `sample` set, only that many randomly chosen
    coordinates are differenced (for large inputs). The relative error uses
    denominator max(|analytic|, |numeric|, 1e-8) per coordinate.
    """
    with check_mode():
        base = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
        xt = Tensor(base.copy(), requires_grad=True)
        y = f(xt)
        if y.data.size != 1:
            raise DimensionError("gradient_check: f must return a scalar")
        if not np.isfinite(y.data).all():
            raise EvaluationError("gradient_check: f(x) is non-finite")
        y.backward()
        analytic = xt.grad if xt.grad is not None else np.zeros_like(base)
        analytic = analytic.reshape(-1)

        flat = base.reshape(-1)
        n = flat.size
        if sample is not None and sample < n:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=sample, replace=False)
        else:
            coords = np.arange(n)

        worst = 0.0
        for i in coords:
            plus = flat.copy()
            plus[i] += epsilon
            minus = flat.copy()
            minus[i] -= epsilon
            fp = f(Tensor(plus.reshape(base.shape))).data.reshape(())
            fm = f(Tensor(minus.reshape(base.shape))).data.reshape(())
            numeric = (float(fp) - float(fm)) / (2.0 * epsilon)
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
        return worst
