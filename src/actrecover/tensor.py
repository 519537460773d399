"""Dense float tensors with reverse-mode automatic differentiation.

Values are numpy float arrays in row-major order. One dtype rule holds for
every operation: a :class:`Tensor` keeps the floating dtype it is given
(anything else becomes float64), an operation computes in the dtype of its
tensor operands, a raw operand (a mask, a constant, a scalar) adopts that
dtype, and a gradient is accumulated in the dtype of its node. So a model
whose parameters are float32 trains and infers without a float64 array on
its tape, while layers built from float64 draws stay float64.

Every operation records its inputs and a backward closure. A closure maps
its node's gradient to its inputs' gradients: one entry per input, in the
order the inputs were recorded, or ``None`` for an input that needs none;
it lands nothing itself. Calling :meth:`Tensor.backward` on a scalar walks
the recorded graph in reverse topological order and hands every entry to
``_accumulate``, the one place that lands a gradient: it skips an input that
requires none, sums the axes the forward broadcast, casts to the input's
dtype and adds. The walk consumes the graph: an operation node drops its
inputs, its closure and its gradient once it has passed that gradient on,
so a training step frees its tape as backward runs, and a second backward
through a released node raises. Leaves keep their gradients (every
:class:`Parameter` and any tensor built with ``requires_grad=True``), and
so does the scalar.
The operation set is deliberately small: exactly what gated residual blocks,
variable selection, multi-head attention and the slot insertion head need.

Gradient buffers on :class:`Parameter` persist across graphs and accumulate
in place; callers zero them between optimization steps. Inside a
:class:`no_grad` block nothing is recorded, which is how inference runs.
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
    """A dense float array plus the hooks for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
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
        """Run reverse-mode differentiation from this scalar, consuming its graph.

        Nodes are visited children first. Once an operation node has passed
        its gradient on, it drops its parents, its closure and its gradient,
        and its closure becomes one that raises, so a second backward through
        it fails instead of counting twice. This scalar keeps its gradient,
        and so do the leaves.
        """
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
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                for parent, g in zip(node._parents, node._backward(node.grad)):
                    _accumulate(parent, g)
            node._parents, node._backward = (), _released
            if node is not self:
                node.grad = None


class Parameter(Tensor):
    """Named leaf tensor with a persistent, same-shape gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)


def _released(g) -> None:
    raise RuntimeError("backward through a graph that an earlier backward released")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _as_tensors(*xs) -> list[Tensor]:
    """The operands as tensors; raw ones take the dtype of the tensor operands."""
    dtypes = [x.data.dtype for x in xs if isinstance(x, Tensor)]
    dtype = np.result_type(*dtypes) if dtypes else None
    return [x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype)) for x in xs]


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


def _accumulate(node: Tensor, g: np.ndarray | None) -> None:
    """Add ``g``, summed over broadcast axes and cast, to ``node``'s gradient; skip ``None`` and constants."""
    if g is None or not node.requires_grad:
        return
    shape = node.data.shape
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    g = g.astype(node.data.dtype, copy=False)
    if isinstance(node, Parameter):  # in place, so a view into a model's grads stays one
        node.grad += g
    else:  # into a new array: ``g`` may be a sibling's gradient too
        node.grad = g if node.grad is None else node.grad + g


def add(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    data = a.data + b.data

    def backward(g):
        return g, g

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    a, b = _as_tensors(a, b)
    data = a.data * b.data

    def backward(g):  # a raw mask or constant gets no product
        return (g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None)

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, broadcasting the leading ones.

    A 2-D ``b`` shared by every leading index of ``a`` is one GEMM over
    ``a``'s rows, forward and backward, so its gradient is one ``a2.T @ g2``
    rather than one small product per leading index summed afterwards.
    """
    a, b = _as_tensors(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shapes do not conform: {a.data.shape} @ {b.data.shape}")
    if a.data.ndim > 2 and b.data.ndim == 2:
        k, n = b.data.shape
        a2 = a.data.reshape(-1, k)
        data = (a2 @ b.data).reshape(a.data.shape[:-1] + (n,))

        def backward(g):
            g2 = g.reshape(-1, n)
            ga = (g2 @ b.data.T).reshape(a.data.shape) if a.requires_grad else None
            return ga, (a2.T @ g2 if b.requires_grad else None)

        return _node(data, (a, b), backward)

    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None
        return ga, (np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None)

    return _node(data, (a, b), backward)


def elu(x) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise."""
    x = _as_tensor(x)
    d = x.data
    data = np.maximum(d, 0.0) + np.expm1(np.minimum(d, 0.0))  # one term is 0 at every x; expm1 sees no x > 0

    def backward(g):
        return (g * (np.minimum(data, 0.0) + 1.0),)

    return _node(data, (x,), backward)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    neg, e = d < 0, np.exp(-np.abs(d))
    s = ((~neg) + neg * e) / (1.0 + e)  # bit-equal to 1/(1+e) and e/(1+e) per branch

    def backward(g):
        return (g * s * (1.0 - s),)

    return _node(s, (x,), backward)


def softmax(x, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis``, stabilized by max subtraction."""
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _node(s, (x,), backward)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _node(out, (x,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Standardize over the last axis (population variance), then affine."""
    x, gain, bias = _as_tensors(x, gain, bias)
    d = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((d ** 2).mean(axis=-1, keepdims=True) + eps)
    xhat = d * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        gx = g * gain.data
        gx = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * gx, g * xhat, g

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
        # one bincount over flat (row, column) cells adds in the order np.add.at would;
        # it sums in float64, and _accumulate casts the result to the table's dtype
        cells = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        gt = np.bincount(cells, weights=g.reshape(-1), minlength=n_rows * width)
        return (gt.reshape(n_rows, width),)

    return _node(data, (table,), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = _as_tensors(*tensors)
    data = np.stack([t.data for t in ts], axis=axis)

    def backward(g):
        return [np.take(g, i, axis=axis) for i in range(len(ts))]

    return _node(data, tuple(ts), backward)


def reshape(x, shape) -> Tensor:
    """``x`` in ``shape``; ``x`` itself, with no node recorded, when it has that shape already."""
    x = _as_tensor(x)
    data = x.data.reshape(shape)
    if data.shape == x.data.shape:
        return x

    def backward(g):
        return (g.reshape(x.data.shape),)

    return _node(data, (x,), backward)


def swap_axes(x, axis1: int, axis2: int) -> Tensor:
    x = _as_tensor(x)
    data = np.swapaxes(x.data, axis1, axis2)

    def backward(g):
        return (np.swapaxes(g, axis1, axis2),)

    return _node(data, (x,), backward)


def tsum(x, axis=None) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis)

    def backward(g):
        ge = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, x.data.shape),)  # a read-only view: no consumer writes into it

    return _node(data, (x,), backward)
