"""Gated blocks, variable selection and attention against straight-line oracles.

The oracles re-evaluate the defining formulas directly in numpy on the
blocks' own parameter values, sharing no code with the layer implementations.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrecover import tensor as T
from actrecover.gradcheck import grad_check
from actrecover.layers import (
    Block,
    GatedLinearUnit,
    GatedResidualBlock,
    Linear,
    MultiHeadSelfAttention,
    Packing,
    VariableSelection,
    apply_dropout,
    sinusoidal_positions,
)
from actrecover.tensor import Parameter, ShapeError, Tensor

from helpers import PerStreamVSN, index, listed_parameters, packing_arrays


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _elu(x):
    return np.where(x > 0, x, np.expm1(x))


def _layernorm(x, gain, bias, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def glu_oracle(x, glu):
    gate = _sigmoid(x @ glu.gate.w.data + glu.gate.b.data)
    value = x @ glu.value.w.data + glu.value.b.data
    return gate * value


def grn_oracle(a, c, blk):
    hidden = a @ blk.dense_in.w.data + blk.dense_in.b.data
    if c is not None:
        hidden = hidden + c @ blk.context.w.data
    pre_gate = _elu(hidden) @ blk.dense_out.w.data + blk.dense_out.b.data
    gated = glu_oracle(pre_gate, blk.glu)
    residual = a if blk.skip is None else a @ blk.skip.w.data
    return _layernorm(residual + gated, blk.norm_gain.data, blk.norm_bias.data)


class TestGatedLinearUnit:
    def test_zero_gate_path_halves_value_path(self):
        rng = np.random.default_rng(0)
        glu = GatedLinearUnit("glu", 3, rng)
        glu.gate.w.data[:] = 0.0
        glu.gate.b.data[:] = 0.0
        x = rng.normal(size=(4, 3))
        expected = 0.5 * (x @ glu.value.w.data + glu.value.b.data)
        np.testing.assert_allclose(glu(Tensor(x)).data, expected, atol=1e-12)

    def test_zero_value_path_annihilates(self):
        rng = np.random.default_rng(1)
        glu = GatedLinearUnit("glu", 3, rng)
        glu.value.w.data[:] = 0.0
        glu.value.b.data[:] = 0.0
        out = glu(Tensor(rng.normal(size=(4, 3))))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_scalar_half_case(self):
        rng = np.random.default_rng(2)
        glu = GatedLinearUnit("glu", 1, rng)
        glu.gate.w.data[:] = 0.0
        glu.gate.b.data[:] = 0.0
        glu.value.w.data[:] = 1.0
        glu.value.b.data[:] = 0.0
        np.testing.assert_allclose(glu(Tensor([[1.0]])).data, [[0.5]])

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        glu = GatedLinearUnit("glu", 5, rng)
        x = rng.normal(size=(6, 5))
        np.testing.assert_allclose(glu(Tensor(x)).data, glu_oracle(x, glu), atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        glu = GatedLinearUnit("glu", 4, rng)
        x = Parameter("x", rng.normal(size=(3, 4)))
        r = rng.normal(size=(3, 4))
        report = grad_check(
            lambda: T.tsum(T.mul(glu(x), r)), [x] + glu.parameters(), name="glu"
        )
        assert report.max_rel_error < 1e-4


class TestGatedResidualBlock:
    def test_absent_context_equals_zero_context(self):
        rng = np.random.default_rng(5)
        blk = GatedResidualBlock("grn", 4, 4, 4, rng, d_context=4)
        a = Tensor(rng.normal(size=(3, 4)))
        zero_ctx = Tensor(np.zeros((3, 4)))
        np.testing.assert_allclose(blk(a).data, blk(a, zero_ctx).data, atol=1e-12)

    def test_all_zero_weights_reduce_to_layernorm(self):
        rng = np.random.default_rng(6)
        blk = GatedResidualBlock("grn", 4, 4, 4, rng)
        for p in blk.parameters():
            p.data = np.zeros_like(p.data)
        blk.norm_gain.data[:] = 1.0
        a = rng.normal(size=(3, 4))
        expected = _layernorm(a, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(blk(Tensor(a)).data, expected, atol=1e-12)

    def test_matches_oracle_square(self):
        rng = np.random.default_rng(7)
        blk = GatedResidualBlock("grn", 4, 4, 4, rng, d_context=4)
        a = rng.normal(size=(3, 4))
        c = rng.normal(size=(3, 4))
        np.testing.assert_allclose(blk(Tensor(a), Tensor(c)).data, grn_oracle(a, c, blk), atol=1e-12)

    def test_matches_oracle_projected(self):
        rng = np.random.default_rng(8)
        blk = GatedResidualBlock("grn", 6, 4, 3, rng, d_context=5)
        a = rng.normal(size=(2, 6))
        c = rng.normal(size=(2, 5))
        np.testing.assert_allclose(blk(Tensor(a), Tensor(c)).data, grn_oracle(a, c, blk), atol=1e-12)

    def test_a_context_without_a_context_projection_refused(self):
        rng = np.random.default_rng(9)
        blk = GatedResidualBlock("grn", 4, 4, 4, rng)
        with pytest.raises(ShapeError, match="block was built without a context projection"):
            blk(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4))))

    def test_gradient_full_block(self):
        rng = np.random.default_rng(9)
        blk = GatedResidualBlock("grn", 4, 4, 4, rng, d_context=4)
        a = Parameter("a", rng.normal(size=(2, 4)))
        c = Parameter("c", rng.normal(size=(2, 4)))
        r = rng.normal(size=(2, 4))
        report = grad_check(
            lambda: T.tsum(T.mul(blk(a, c), r)), [a, c] + blk.parameters(), name="grn"
        )
        assert report.max_rel_error < 1e-4


def stream_block(vsn, j):
    """Stream ``j``'s own block: a copy of the grouped block holding slice ``j`` of each parameter."""
    blk = copy.deepcopy(vsn.streams)
    for p in blk.parameters():
        p.data = p.data[j]
    return blk


class TestVariableSelection:
    def test_single_stream_weight_is_one(self):
        rng = np.random.default_rng(10)
        vsn = VariableSelection("vsn", 1, 4, rng)
        streams = Tensor(rng.normal(size=(2, 3, 1, 4)))
        fused, weights = vsn(streams)
        np.testing.assert_allclose(weights.data, 1.0, atol=1e-12)
        only = stream_block(vsn, 0)(index(streams, np.s_[:, :, 0, :]))
        np.testing.assert_allclose(fused.data, only.data, atol=1e-12)

    def test_no_streams_refused(self):
        with pytest.raises(ShapeError, match="variable selection needs at least one stream"):
            VariableSelection("vsn", 0, 4, np.random.default_rng(10))

    @pytest.mark.parametrize("shape", [(5, 6, 4), (5, 7, 3), (2, 3, 6, 4), (5, 14, 2)])
    def test_a_stream_block_of_another_shape_raises_shape_error(self, shape):
        # (5, 14, 2) has the flat width of seven 4-wide streams, so it passes the
        # selector and fails at the grouped stream block instead
        rng = np.random.default_rng(10)
        vsn = VariableSelection("vsn", 7, 4, rng)
        with pytest.raises(ShapeError, match=r"matmul shapes do not conform"):
            vsn(Tensor(rng.normal(size=shape)))

    def test_zeroed_selector_gives_equal_weights(self):
        rng = np.random.default_rng(11)
        vsn = VariableSelection("vsn", 2, 3, rng)
        for p in vsn.selector.parameters():
            p.data = np.zeros_like(p.data)
        _, weights = vsn(Tensor(rng.normal(size=(2, 2, 2, 3))))
        np.testing.assert_allclose(weights.data, 0.5, atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        vsn = VariableSelection("vsn", 3, 4, rng, d_context=4)
        streams = rng.normal(size=(2, 2, 3, 4))
        context = rng.normal(size=(2, 1, 4))
        fused, weights = vsn(Tensor(streams), Tensor(context))

        b, t, m, d = streams.shape
        flat = streams.reshape(b, t, m * d)
        logits = grn_oracle(flat, np.broadcast_to(context, (b, t, d)), vsn.selector)
        exp = np.exp(logits - logits.max(-1, keepdims=True))
        w_exp = exp / exp.sum(-1, keepdims=True)
        fused_exp = np.zeros((b, t, d))
        for j in range(m):
            processed = grn_oracle(streams[:, :, j, :], None, stream_block(vsn, j))
            fused_exp += w_exp[:, :, j : j + 1] * processed
        np.testing.assert_allclose(weights.data, w_exp, atol=1e-12)
        np.testing.assert_allclose(fused.data, fused_exp, atol=1e-12)

    def test_weights_nonnegative_sum_to_one(self):
        rng = np.random.default_rng(13)
        vsn = VariableSelection("vsn", 5, 4, rng)
        _, weights = vsn(Tensor(rng.normal(size=(3, 4, 5, 4)) * 3))
        assert (weights.data >= 0).all()
        np.testing.assert_allclose(weights.data.sum(-1), 1.0, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        vsn = VariableSelection("vsn", 2, 3, rng, d_context=3)
        streams = Parameter("streams", rng.normal(size=(1, 2, 2, 3)))
        context = Parameter("context", rng.normal(size=(1, 1, 3)))
        r = rng.normal(size=(1, 2, 3))

        def forward():
            fused, _ = vsn(streams, context)
            return T.tsum(T.mul(fused, r))

        report = grad_check(forward, [streams, context] + vsn.parameters(), name="vsn")
        assert report.max_rel_error < 1e-4

    def test_grouped_matches_per_stream_reference_with_dropout(self):
        rng = np.random.default_rng(16)
        vsn = VariableSelection("vsn", 4, 5, np.random.default_rng(17), d_context=5, dropout=0.3)
        ref = PerStreamVSN("vsn", 4, 5, np.random.default_rng(17), d_context=5, dropout=0.3)
        streams_np = rng.normal(size=(3, 6, 4, 5))
        context_np = rng.normal(size=(3, 1, 5))
        r = rng.normal(size=(3, 6, 5))
        results = []
        for layer in (vsn, ref):
            streams = Parameter("streams", streams_np)
            context = Parameter("context", context_np)
            fused, weights = layer(streams, context, rng=np.random.default_rng(18))
            T.tsum(T.mul(fused, r)).backward()
            results.append((fused.data, weights.data, streams.grad, context.grad))
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for got, want in zip(vsn.selector.parameters(), ref.selector.parameters()):
            np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=1e-12)
        for k, p in enumerate(vsn.streams.parameters()):
            for j, blk in enumerate(ref.stream_blocks):
                want = blk.parameters()[k].grad
                np.testing.assert_allclose(
                    p.grad[j], want.reshape(-1, want.shape[-1]), rtol=0, atol=1e-12
                )


class TestMultiHeadSelfAttention:
    def test_single_position_mixes_only_itself(self):
        rng = np.random.default_rng(15)
        attn = MultiHeadSelfAttention("attn", 4, 2, 3, 3, rng)
        x = rng.normal(size=(1, 1, 4))
        out = attn(Tensor(x), np.array([[True]]))
        h = attn.n_heads
        v = (x[0, 0] @ attn.w_v.data).reshape(h, attn.d_val)
        expected = v.reshape(-1) @ attn.w_out.data
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-12)

    def test_identical_rows_give_identical_outputs(self):
        rng = np.random.default_rng(16)
        attn = MultiHeadSelfAttention("attn", 4, 2, 3, 3, rng)
        row = rng.normal(size=4)
        x = np.tile(row, (1, 5, 1))
        out = attn(Tensor(x), np.ones((1, 5), dtype=bool)).data
        np.testing.assert_allclose(out, np.tile(out[0, 0], (1, 5, 1)), atol=1e-12)

    def test_hand_computed_scalar_attention(self):
        rng = np.random.default_rng(17)
        attn = MultiHeadSelfAttention("attn", 1, 1, 1, 1, rng)
        attn.w_q.data[:] = 2.0
        attn.w_k.data[:] = -1.0
        attn.w_v.data[:] = 0.5
        attn.w_out.data[:] = 3.0
        x = np.array([[[1.0], [2.0]]])
        out = attn(Tensor(x), np.ones((1, 2), dtype=bool)).data

        q = x[0, :, 0] * 2.0
        k = x[0, :, 0] * -1.0
        v = x[0, :, 0] * 0.5
        scores = np.outer(q, k) / 1.0
        exp = np.exp(scores - scores.max(-1, keepdims=True))
        probs = exp / exp.sum(-1, keepdims=True)
        expected = (probs @ v) * 3.0
        np.testing.assert_allclose(out[0, :, 0], expected, atol=1e-12)

    def test_padding_keys_are_ignored(self):
        rng = np.random.default_rng(18)
        attn = MultiHeadSelfAttention("attn", 4, 2, 2, 2, rng)
        x2 = rng.normal(size=(1, 2, 4))
        x3 = np.concatenate([x2, rng.normal(size=(1, 1, 4))], axis=1)
        mask = np.array([[True, True, False]])
        out3 = attn(Tensor(x3), mask).data
        out2 = attn(Tensor(x2), np.array([[True, True]])).data
        np.testing.assert_allclose(out3[:, :2], out2, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(20)
        attn = MultiHeadSelfAttention("attn", 4, 2, 2, 2, rng)
        x = Parameter("x", rng.normal(size=(2, 3, 4)))
        mask = np.array([[True, True, True], [True, True, False]])
        r = rng.normal(size=(2, 3, 4))
        report = grad_check(
            lambda: T.tsum(T.mul(attn(x, mask), r)), [x] + attn.parameters(), name="attention"
        )
        assert report.max_rel_error < 1e-4


class TestDropoutAndPositions:
    def test_dropout_identity_outside_training(self):
        x = Tensor(np.ones((2, 3)))
        assert apply_dropout(x, 0.5, rng=None) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(21)
        x = Tensor(np.ones((200, 50)))
        out = apply_dropout(x, 0.3, rng=rng).data
        assert abs(out.mean() - 1.0) < 0.02
        assert (out == 0).mean() == pytest.approx(0.3, abs=0.02)

    def test_positions_are_bounded_and_distinct(self):
        enc = sinusoidal_positions(10, 8)
        assert enc.shape == (10, 8)
        assert np.abs(enc).max() <= 1.0
        assert not np.allclose(enc[0], enc[1])


class TestPacking:
    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8))
    def test_arrays_equal_the_derivation_from_sizes(self, sizes):
        packing, want = Packing(sizes), packing_arrays(sizes)
        assert packing.grid == want["grid"]
        got = {name: getattr(packing, name) for name in ("seq", "pos", "cells", "valid")}
        got["sources"] = packing._sources.reshape(-1)
        for name, array in got.items():
            assert array.dtype == want[name].dtype and np.array_equal(array, want[name]), name

    def test_pad_lays_rows_on_the_grid_and_pack_reads_them_back(self):
        rows = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
        packing = Packing([2, 4])
        grid = packing.pad(rows)
        np.testing.assert_array_equal(grid.data[:, :, 0], [[0, 2, 2, 2], [4, 6, 8, 10]])
        packed = packing.pack(grid)
        np.testing.assert_array_equal(packed.data, rows.data)
        T.tsum(packed).backward()
        np.testing.assert_array_equal(rows.grad, np.ones((6, 2)))


LAYERS = {
    "linear": lambda rng: Linear("lin", 3, 4, rng),
    "linear_without_bias": lambda rng: Linear("lin", 3, 4, rng, bias=False),
    "glu": lambda rng: GatedLinearUnit("glu", 3, rng),
    "grn_square": lambda rng: GatedResidualBlock("grn", 3, 5, 3, rng),
    "grn_square_with_context": lambda rng: GatedResidualBlock("grn", 3, 5, 3, rng, d_context=2),
    "grn_skip": lambda rng: GatedResidualBlock("grn", 3, 5, 4, rng),
    "grn_skip_with_context": lambda rng: GatedResidualBlock("grn", 3, 5, 4, rng, d_context=2),
    "grn_grouped": lambda rng: GatedResidualBlock.grouped("grn", 3, 4, rng),
    "vsn": lambda rng: VariableSelection("vsn", 3, 4, rng),
    "vsn_with_context": lambda rng: VariableSelection("vsn", 3, 4, rng, d_context=2),
    "attention": lambda rng: MultiHeadSelfAttention("attn", 4, 2, 3, 2, rng),
}


class _Duck:
    """Holds parameters without being a ``Block``, as the per-stream reference does."""

    def __init__(self, *params):
        self.params = list(params)

    def parameters(self):
        return list(self.params)


class TestBlockParameters:
    @pytest.mark.parametrize("kind", sorted(LAYERS))
    def test_each_layer_lists_the_hand_kept_order(self, kind):
        layer = LAYERS[kind](np.random.default_rng(0))
        got, want = layer.parameters(), listed_parameters(layer)
        assert [p.name for p in got] == [p.name for p in want]
        assert all(g is w for g, w in zip(got, want))

    def test_attributes_are_searched_in_first_assignment_order(self):
        rng = np.random.default_rng(1)

        def param(name):
            return Parameter(name, np.zeros(2))

        class Toy(Block):
            def __init__(self):
                self.width = 2  # not a parameter
                self.head = param("head")
                self.absent = None
                self.items = [param("item0"), Linear("item1", 2, 2, rng, bias=False)]
                self.inner = GatedLinearUnit("inner", 2, rng)
                self.duck = _Duck(param("duck0"), param("duck1"))
                self.head = param("head.again")  # keeps its first slot

        names = [p.name for p in Toy().parameters()]
        assert names == [
            "head.again", "item0", "item1.w",
            "inner.gate.w", "inner.gate.b", "inner.value.w", "inner.value.b",
            "duck0", "duck1",
        ]
