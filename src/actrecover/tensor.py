"""Dense float tensors with reverse-mode automatic differentiation.

Values are numpy float64 arrays in row-major order. Every operation records
its inputs and a backward closure; calling :meth:`Tensor.backward` on a
scalar walks the recorded graph in reverse topological order and accumulates
gradients into every node that requires them. The operation set is
deliberately small: exactly what gated residual blocks, variable selection,
multi-head attention and the slot insertion head need.

Gradient buffers on :class:`Parameter` persist across graphs and accumulate;
callers zero them between optimization steps. Inside a :class:`no_grad`
block nothing is recorded, which is how inference runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ShapeError",
    "NumericError",
    "no_grad",
    "add",
    "mul",
    "matmul",
    "linear",
    "elu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "layer_norm",
    "embed",
    "stack",
    "reshape",
    "swap_axes",
    "tsum",
]


class ShapeError(ValueError):
    """Operand shapes do not conform; the message names both shapes."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager: operations inside it record no graph.

    Results carry no parents, no backward closure and ``requires_grad``
    False, so a forward pass costs only its arithmetic. The previous mode is
    restored on exit, also when the block raises, so blocks nest.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


class Tensor:
    """A dense float64 array plus the hooks for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def backward(self) -> None:
        """Run reverse-mode differentiation from this scalar."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __getitem__(self, key):
        src = self
        data = src.data[key]

        def backward(g):
            gx = np.zeros_like(src.data)
            gx[key] = g  # basic indexing selects disjoint elements
            _accumulate(src, gx)

        return _node(data, (src,), backward)


class Parameter(Tensor):
    """Named leaf tensor with a persistent, same-shape gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _accumulate(node: Tensor, g: np.ndarray) -> None:
    if not node.requires_grad:
        return
    node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over broadcast axes so it matches ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, broadcasting the leading ones.

    A 2-D ``b`` shared by every leading index of ``a`` is one GEMM over
    ``a``'s rows, forward and backward, so its gradient is one ``a2.T @ g2``
    rather than one small product per leading index summed afterwards.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shapes do not conform: {a.data.shape} @ {b.data.shape}")
    if a.data.ndim > 2 and b.data.ndim == 2:
        k, n = b.data.shape
        a2 = a.data.reshape(-1, k)
        data = (a2 @ b.data).reshape(a.data.shape[:-1] + (n,))

        def backward(g):
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accumulate(b, a2.T @ g2)

        return _node(data, (a, b), backward)

    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _node(data, (a, b), backward)


def linear(x, w, b=None) -> Tensor:
    """``x @ w`` plus an optional bias broadcast over leading axes.

    A stacked ``w`` of shape (m, d_in, d_out) applies one weight per leading
    index of ``x``.
    """
    out = matmul(x, w)
    return out if b is None else add(out, b)


def elu(x) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise."""
    x = _as_tensor(x)
    d = x.data
    data = np.where(d > 0, d, np.expm1(np.minimum(d, 0.0)))  # no overflow on the discarded side

    def backward(g):
        _accumulate(x, g * np.where(d > 0, 1.0, data + 1.0))

    return _node(data, (x,), backward)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0, e) / (1.0 + e)  # bit-equal to 1/(1+e) and e/(1+e) per branch

    def backward(g):
        _accumulate(x, g * s * (1.0 - s))

    return _node(s, (x,), backward)


def softmax(x, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis``, stabilized by max subtraction."""
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        _accumulate(x, s * (g - (g * s).sum(axis=axis, keepdims=True)))

    return _node(s, (x,), backward)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def backward(g):
        _accumulate(x, g - np.exp(out) * g.sum(axis=axis, keepdims=True))

    return _node(out, (x,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Standardize over the last axis (population variance), then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data
    mu = d.mean(axis=-1, keepdims=True)
    var = ((d - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (d - mu) * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
        gx = g * gain.data
        _accumulate(
            x,
            inv
            * (
                gx
                - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            ),
        )

    return _node(data, (x, gain, bias), backward)


def embed(table, indices) -> Tensor:
    """Rows of ``table`` at integer ``indices``; gradients scatter back."""
    table = _as_tensor(table)
    idx = np.asarray(indices)
    n_rows, width = table.data.shape
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise IndexError(f"embedding index out of range 0..{n_rows - 1}")
    data = table.data[idx]

    def backward(g):
        # one bincount over flat (row, column) cells adds in the order np.add.at would
        cells = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        gt = np.bincount(cells, weights=g.reshape(-1), minlength=n_rows * width)
        _accumulate(table, gt.reshape(n_rows, width))

    return _node(data, (table,), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in ts], axis=axis)

    def backward(g):
        for i, t in enumerate(ts):
            _accumulate(t, np.take(g, i, axis=axis))

    return _node(data, tuple(ts), backward)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(data, (x,), backward)


def swap_axes(x, axis1: int, axis2: int) -> Tensor:
    x = _as_tensor(x)
    data = np.swapaxes(x.data, axis1, axis2)

    def backward(g):
        _accumulate(x, np.swapaxes(g, axis1, axis2))

    return _node(data, (x,), backward)


def tsum(x, axis=None) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis)

    def backward(g):
        ge = g if axis is None else np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(ge, x.data.shape).copy())

    return _node(data, (x,), backward)
