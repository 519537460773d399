"""Network building blocks.

Gated linear units, gated residual blocks, softmax-weighted variable
selection, and scaled dot-product multi-head self-attention, all built on
the tape in :mod:`actrecover.tensor`. Each is a :class:`Block`, which
finds the parameters its attributes hold.

Position-wise blocks also run on packed rows: the valid positions of a
batch of sequences laid back to back, described by a :class:`Packing`.
Attention alone needs the padded (B, T) grid, which ``Packing.pad`` and
``Packing.pack`` move rows into and out of.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Parameter, ShapeError

__all__ = [
    "Block",
    "Packing",
    "Linear",
    "GatedLinearUnit",
    "GatedResidualBlock",
    "VariableSelection",
    "MultiHeadSelfAttention",
    "apply_dropout",
    "sinusoidal_positions",
]


def _init_weight(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    # 1/sqrt(fan_in) scaling keeps activations O(1) through the gated blocks
    return rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))


class Packing:
    """Sequences of ``sizes`` rows laid back to back, and their padded (B, T) grid.

    A packed tensor has one row per valid position, sequence after
    sequence, on its second-to-last axis. Row ``r`` is cell
    ``cells[r] = b * T + t`` of the grid, where ``b = seq[r]`` and
    ``t = pos[r]``; ``valid`` is the grid's (B, T) mask of real cells.
    """

    def __init__(self, sizes):
        sizes = np.asarray(sizes, dtype=np.int64)
        t = int(sizes.max())
        self.grid = (len(sizes), t)
        self.valid = np.arange(t) < sizes[:, None]
        self.cells = np.flatnonzero(self.valid)  # row-major: sequence after sequence
        self.seq, self.pos = np.divmod(self.cells, t)
        # a cell's source is the count of valid cells up to it, less one: a padding cell repeats its
        # sequence's last row, which attention masks as a key and ``pack`` never reads back
        self._sources = np.cumsum(self.valid).reshape(self.grid) - 1

    def pad(self, x):
        """Packed (N, d) rows laid out on the (B, T, d) grid."""
        return T.embed(x, self._sources)

    def pack(self, x):
        """The valid rows of a (B, T, d) grid, packed to (N, d)."""
        b, t = self.grid
        return T.embed(T.reshape(x, (b * t, x.shape[-1])), self.cells)


def apply_dropout(x, rate: float, rng: np.random.Generator | None, packing=None):
    """Inverted dropout with a constant mask; the identity without an ``rng``.

    With a ``packing``, ``x`` holds packed rows. The mask is drawn at the
    padded shape, in the padded order, and its valid rows are kept, so
    every row gets the mask values the padded tensor would have drawn.
    """
    if rng is None or rate <= 0.0:
        return x
    if packing is None:
        draw = rng.random(x.shape)
    else:
        b, t = packing.grid
        draw = rng.random(x.shape[:-2] + (b * t, x.shape[-1]))[..., packing.cells, :]
    return T.mul(x, (draw >= rate) * x.data.dtype.type(1 / (1 - rate)))  # a mask in x's dtype


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Fixed sine/cosine position codes, shape (n, d)."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    return np.where(i.astype(int) % 2 == 0, np.sin(angle), np.cos(angle))


class Block:
    """A part of the network; ``parameters()`` finds the ``Parameter``s it holds.

    Attributes are searched in the order they were first assigned, which is
    the checkpoint layout. A ``Parameter`` counts as it is, a list item by
    item, and anything else with a ``parameters()`` method by its result.
    """

    def parameters(self) -> list[Parameter]:
        found: list[Parameter] = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, Parameter):
                    found.append(item)
                elif hasattr(item, "parameters"):
                    found += item.parameters()
        return found


class Linear(Block):
    def __init__(self, name: str, d_in: int, d_out: int, rng, bias: bool = True):
        self.w = Parameter(name + ".w", _init_weight(rng, d_in, d_out))
        self.b = Parameter(name + ".b", np.zeros(d_out)) if bias else None

    def __call__(self, x):
        out = T.matmul(x, self.w)
        return out if self.b is None else T.add(out, self.b)


class GatedLinearUnit(Block):
    """sigmoid(x Wg + bg) ⊙ (x Wv + bv); the gate can suppress a path entirely."""

    def __init__(self, name: str, d: int, rng):
        self.gate = Linear(name + ".gate", d, d, rng)
        self.value = Linear(name + ".value", d, d, rng)

    def __call__(self, x):
        return T.mul(T.sigmoid(self.gate(x)), self.value(x))


class GatedResidualBlock(Block):
    """Residual block: LayerNorm(skip(a) + GLU(dense_out(ELU(dense_in(a) + ctx(c))))).

    The optional context feeds the hidden layer through a bias-free
    projection. When input and output widths differ the residual path goes
    through a bias-free skip projection so the addition conforms. Dropout
    runs on the pre-gate activation when a call gets an ``rng``.
    """

    def __init__(
        self,
        name: str,
        d_in: int,
        d_hidden: int,
        d_out: int,
        rng,
        d_context: int | None = None,
        dropout: float = 0.0,
    ):
        self.dense_in = Linear(name + ".in", d_in, d_hidden, rng)
        self.context = (
            Linear(name + ".ctx", d_context, d_hidden, rng, bias=False)
            if d_context
            else None
        )
        self.dense_out = Linear(name + ".out", d_hidden, d_out, rng)
        self.glu = GatedLinearUnit(name + ".glu", d_out, rng)
        self.skip = Linear(name + ".skip", d_in, d_out, rng, bias=False) if d_in != d_out else None
        self.norm_gain = Parameter(name + ".norm.gain", np.ones(d_out))
        self.norm_bias = Parameter(name + ".norm.bias", np.zeros(d_out))
        self.dropout = dropout

    @classmethod
    def grouped(cls, name: str, n_groups: int, d: int, rng, dropout: float = 0.0):
        """``n_groups`` independent d -> d blocks run as one on (n_groups, N, d) input.

        Every parameter gains a leading group axis: weights (n_groups, d, d),
        biases and norm (n_groups, 1, d). Group ``j`` draws its weights in
        turn, so the stack equals ``n_groups`` separate blocks value for
        value, and a dropout draw over the whole input hands group ``j`` the
        numbers the ``j``-th separate block would have drawn.
        """
        members = [cls(name, d, d, d, rng, None, dropout) for _ in range(n_groups)]
        for same in zip(*(m.parameters() for m in members)):
            same[0].data = np.stack([p.data.reshape(-1, d) for p in same])
            same[0].grad = np.zeros_like(same[0].data)
        return members[0]

    def __call__(self, a, context=None, rng=None, packing=None):
        """Apply the block to ``a``; with a ``packing``, ``a`` is packed rows.

        A packed call takes one context row per sequence and projects it
        before handing it to that sequence's rows.
        """
        h = self.dense_in(a)
        if context is not None:
            if self.context is None:
                raise ShapeError("block was built without a context projection")
            projected = self.context(context)
            if packing is not None:
                projected = T.embed(projected, packing.seq)
            h = T.add(h, projected)
        h = self.dense_out(T.elu(h))
        h = apply_dropout(h, self.dropout, rng, packing)
        gated = self.glu(h)
        residual = a if self.skip is None else self.skip(a)
        return T.layer_norm(T.add(residual, gated), self.norm_gain, self.norm_bias)


class VariableSelection(Block):
    """Softmax-weighted fusion of per-stream processed inputs.

    Selection weights come from one gated residual block over the flattened
    streams (optionally conditioned on a static context vector); each stream
    also passes through its own block, with stream parameters shared across
    positions, before the weighted sum. The per-stream blocks are one
    grouped block, ``streams``, whose parameters carry a leading stream axis
    and which processes all streams at once, laid out stream-major.
    """

    def __init__(
        self,
        name: str,
        n_streams: int,
        d_m: int,
        rng,
        d_context: int | None = None,
        dropout: float = 0.0,
    ):
        if n_streams < 1:
            raise ShapeError("variable selection needs at least one stream")
        self.selector = GatedResidualBlock(
            name + ".select", n_streams * d_m, d_m, n_streams, rng, d_context, dropout
        )
        self.streams = GatedResidualBlock.grouped(name + ".streams", n_streams, d_m, rng, dropout)

    def __call__(self, streams, context=None, rng=None, packing=None):
        """Fuse ``streams`` of shape (..., m, d); returns (fused, weights).

        The leading axes are (B, T) with a (B, 1, d) context, or packed
        rows (N,) with a ``packing`` and a (B, d) context.
        """
        *lead, m, d = streams.shape
        rows = int(np.prod(lead))
        flat = T.reshape(streams, (*lead, m * d))
        weights = T.softmax(self.selector(flat, context, rng, packing), axis=-1)
        by_stream = T.swap_axes(T.reshape(streams, (rows, m, d)), 0, 1)  # (m, rows, d)
        processed = self.streams(by_stream, None, rng, packing)
        w_by_stream = T.reshape(T.swap_axes(T.reshape(weights, (rows, m)), 0, 1), (m, rows, 1))
        fused = T.reshape(T.tsum(T.mul(processed, w_by_stream), axis=0), (*lead, d))
        return fused, weights


class MultiHeadSelfAttention(Block):
    """Scaled dot-product self-attention with full bidirectional visibility.

    Invalid (padding) keys are pushed to -1e9 before the softmax.
    """

    def __init__(self, name: str, d_m: int, n_heads: int, d_attn: int, d_val: int, rng):
        self.n_heads = n_heads
        self.d_attn = d_attn
        self.d_val = d_val
        self.w_q = Parameter(name + ".w_q", _init_weight(rng, d_m, n_heads * d_attn))
        self.w_k = Parameter(name + ".w_k", _init_weight(rng, d_m, n_heads * d_attn))
        self.w_v = Parameter(name + ".w_v", _init_weight(rng, d_m, n_heads * d_val))
        self.w_out = Parameter(name + ".w_out", _init_weight(rng, n_heads * d_val, d_m))

    def __call__(self, x, key_valid: np.ndarray):
        """Attend over (B, T, d_m); ``key_valid`` is a (B, T) bool mask."""
        b, t, _ = x.shape
        h, da, dv = self.n_heads, self.d_attn, self.d_val

        def split_heads(z, width):
            return T.swap_axes(T.reshape(z, (b, t, h, width)), 1, 2)

        q = split_heads(T.matmul(x, self.w_q), da)
        k = split_heads(T.matmul(x, self.w_k), da)
        v = split_heads(T.matmul(x, self.w_v), dv)
        scores = T.mul(T.matmul(q, T.swap_axes(k, -1, -2)), 1.0 / np.sqrt(da))
        scores = T.add(scores, np.where(key_valid, 0.0, -1e9)[:, None, None, :])
        attn = T.softmax(scores, axis=-1)
        mixed = T.reshape(T.swap_axes(T.matmul(attn, v), 1, 2), (b, t, h * dv))
        return T.matmul(mixed, self.w_out)
