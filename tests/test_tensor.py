"""Forward values and gradients of the tensor core."""

import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from actrecover import tensor as T
from actrecover.gradcheck import grad_check
from actrecover.layers import Linear, apply_dropout
from actrecover.tensor import NumericError, Parameter, ShapeError, Tensor

from helpers import concat, index, two_branch_sigmoid


@pytest.fixture(scope="module", autouse=True)
def unchecked_node():
    """Every forward result in this module must be finite: ``T._node`` checks first.

    Yields the plain ``_node``, for the tests that need a non-finite forward.
    """
    node = T._node

    def checked(data, parents, backward):
        if not np.isfinite(data).all():
            raise NumericError("non-finite values in forward result")
        return node(data, parents, backward)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "_node", checked)
        yield node


def linear(x, w, b=None):
    """``x`` through a ``Linear`` layer that holds the weight ``w`` and the bias ``b``."""
    layer = Linear("lin", *w.shape, np.random.default_rng(0), bias=b is not None)
    layer.w, layer.b = w, b
    return layer(x)


class TestLinear:
    def test_zero_input_rows_equal_bias(self):
        x = Tensor(np.zeros((3, 2)))
        w = Parameter("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Parameter("b", np.array([5.0, -1.0]))
        out = linear(x, w, b)
        np.testing.assert_array_equal(out.data, np.tile([5.0, -1.0], (3, 1)))

    def test_identity_weight_zero_bias(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        w = Parameter("w", np.eye(3))
        b = Parameter("b", np.zeros(3))
        np.testing.assert_array_equal(linear(x, w, b).data, x.data)

    def test_hand_matrix_product(self):
        x = Tensor([[1.0, 2.0]])
        w = Parameter("w", np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = Parameter("b", np.array([3.0, 4.0]))
        np.testing.assert_array_equal(linear(x, w, b).data, [[4.0, 6.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            linear(Tensor(np.zeros((2, 3))), Parameter("w", np.zeros((2, 4))))

    def test_backward_reaches_input_and_params(self):
        x = Parameter("x", np.array([[1.0, 2.0]]))
        w = Parameter("w", np.array([[1.0, -1.0], [0.5, 2.0]]))
        b = Parameter("b", np.array([0.0, 0.0]))
        T.tsum(linear(x, w, b)).backward()
        np.testing.assert_allclose(x.grad, [[0.0, 2.5]])
        np.testing.assert_allclose(w.grad, [[1.0, 1.0], [2.0, 2.0]])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])


class TestElu:
    def test_closed_form_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        expected = [math.exp(-1.0) - 1.0, 0.0, 2.0]
        np.testing.assert_allclose(T.elu(x).data, expected, atol=1e-15)

    def test_no_overflow_warning_and_the_old_formula_where_it_did_not_overflow(self):
        d = np.array([1000.0, -1.0, -800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T.elu(Tensor(d)).data
        with np.errstate(over="ignore"):
            old = np.where(d > 0, d, np.expm1(d))  # overflows at 1000, where the value is discarded
        assert got.tobytes() == old.tobytes()

    def test_gradient_smooth_regions(self):
        x = Parameter("x", np.array([-2.0, -0.5, 0.7, 3.0]))
        report = grad_check(lambda: T.tsum(T.elu(x)), [x])
        assert report.max_rel_error < 1e-6


class TestSigmoid:
    def test_bit_equal_to_the_two_branch_form_at_the_edges(self):
        d = np.random.default_rng(0).normal(scale=20.0, size=(896, 64))
        d.flat[:8] = [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, 5e-324, -5e-324]
        assert T.sigmoid(Tensor(d)).data.tobytes() == two_branch_sigmoid(d).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_bit_equal_to_the_two_branch_form(self, values):
        d = np.array(values)
        assert T.sigmoid(Tensor(d)).data.tobytes() == two_branch_sigmoid(d).tobytes()


def special_float_arrays(columns: int):
    """(n, ``columns``) float32 or float64 arrays whose draws include ±0, ±inf, NaN and subnormals.

    A NaN comes back quiet: arithmetic quiets a signalling NaN, which no
    arithmetic makes, while ``np.where`` passes one through untouched.
    """

    def drawn(dtype):
        value = st.floats(width=np.finfo(dtype).bits).map(lambda v: v if v == v else math.copysign(math.nan, v))
        rows = st.lists(st.tuples(*[value] * columns), min_size=1, max_size=40)
        return rows.map(lambda r: np.array(r, dtype=dtype))

    return st.sampled_from([np.float32, np.float64]).flatmap(drawn)


class TestSelectFreeKernels:
    """ELU, sigmoid and the dropout mask compute with arithmetic, not ``np.where``.

    Each is held byte-equal, dtype included, to its ``np.where`` form, which
    this class keeps as the reference.
    """

    @settings(max_examples=300, deadline=None)
    @given(dg=special_float_arrays(2))
    def test_elu_forward_and_backward(self, dg, unchecked_node):
        d, g = dg[:, 0], dg[:, 1]
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(T, "_node", unchecked_node)
            x = Tensor(d, requires_grad=True)
            out = T.elu(x)
            (gx,) = out._backward(g)
            T._accumulate(x, gx)
            want = np.where(d > 0, d, np.expm1(np.minimum(d, 0.0)))
            want_grad = g * np.where(d > 0, 1.0, want + 1.0)
        assert out.data.dtype == x.grad.dtype == d.dtype
        assert out.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(d=special_float_arrays(1))
    def test_sigmoid_forward(self, d, unchecked_node):
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(T, "_node", unchecked_node)
            got = T.sigmoid(Tensor(d)).data
            e = np.exp(-np.abs(d))
            want = np.where(d >= 0, 1.0, e) / (1.0 + e)
        assert got.dtype == d.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(d=special_float_arrays(3), rate=st.floats(0.0, 0.99, exclude_min=True), seed=st.integers(0, 2**16))
    def test_dropout_mask(self, d, rate, seed, unchecked_node):
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(T, "_node", unchecked_node)
            got = apply_dropout(Tensor(d), rate, np.random.default_rng(seed)).data
            mask = (np.random.default_rng(seed).random(d.shape) >= rate) / (1.0 - rate)
            want = d * np.asarray(mask, dtype=d.dtype)  # the float64 quotient, cast to x's dtype
        assert got.dtype == d.dtype and got.tobytes() == want.tobytes()


class TestSoftmax:
    def test_equal_logits_uniform(self):
        out = T.softmax(Tensor(np.zeros((2, 5))), axis=-1)
        np.testing.assert_allclose(out.data, np.full((2, 5), 0.2))

    def test_closed_form_quarter_three_quarters(self):
        out = T.softmax(Tensor([[0.0, math.log(3.0)]]), axis=-1)
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 6)) * 5
        base = T.softmax(Tensor(x), axis=-1).data
        shifted = T.softmax(Tensor(x + 123.456), axis=-1).data
        assert np.abs(base - shifted).max() < 1e-9

    def test_rows_sum_to_one_nonnegative(self):
        rng = np.random.default_rng(3)
        out = T.softmax(Tensor(rng.normal(size=(50, 9)) * 10), axis=-1).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        x = Parameter("x", rng.normal(size=(3, 4)))
        r = rng.normal(size=(3, 4))
        report = grad_check(lambda: T.tsum(T.mul(T.softmax(x, axis=-1), r)), [x])
        assert report.max_rel_error < 1e-4


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 7)) * 3
        np.testing.assert_allclose(
            T.log_softmax(Tensor(x), axis=-1).data,
            np.log(T.softmax(Tensor(x), axis=-1).data),
            atol=1e-12,
        )

    def test_gradient(self):
        rng = np.random.default_rng(13)
        x = Parameter("x", rng.normal(size=(2, 5)))
        r = rng.normal(size=(2, 5))
        report = grad_check(lambda: T.tsum(T.mul(T.log_softmax(x, axis=-1), r)), [x])
        assert report.max_rel_error < 1e-4


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        x = Tensor(np.full((2, 4), 3.7))
        gain = Parameter("g", np.ones(4))
        bias = Parameter("b", np.zeros(4))
        np.testing.assert_allclose(T.layer_norm(x, gain, bias).data, 0.0, atol=1e-9)

    def test_already_standardized_row(self):
        eps = 1e-5
        x = Tensor([[-1.0, 1.0]])
        gain = Parameter("g", np.ones(2))
        bias = Parameter("b", np.zeros(2))
        expected = np.array([[-1.0, 1.0]]) / math.sqrt(1.0 + eps)
        np.testing.assert_allclose(T.layer_norm(x, gain, bias, eps=eps).data, expected, atol=1e-12)

    def test_zero_gain_yields_bias(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 5)))
        gain = Parameter("g", np.zeros(5))
        bias = Parameter("b", np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        np.testing.assert_allclose(T.layer_norm(x, gain, bias).data, np.tile(bias.data, (3, 1)))

    def test_standardized_moments(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(40, 16))
        gain = Parameter("g", np.ones(16))
        bias = Parameter("b", np.zeros(16))
        out = T.layer_norm(x, gain, bias).data
        assert np.abs(out.mean(-1)).max() < 1e-6
        variances = out.var(-1)
        assert np.abs(variances - 1.0).max() < 1e-4

    def test_gradient(self):
        rng = np.random.default_rng(17)
        x = Parameter("x", rng.normal(size=(3, 6)))
        gain = Parameter("g", rng.normal(size=6))
        bias = Parameter("b", rng.normal(size=6))
        r = rng.normal(size=(3, 6))
        report = grad_check(lambda: T.tsum(T.mul(T.layer_norm(x, gain, bias), r)), [x, gain, bias])
        assert report.max_rel_error < 1e-4

    def test_gradient_with_stacked_gain(self):
        # one gain and bias row per leading index, as the grouped VSN stream block uses
        rng = np.random.default_rng(18)
        x = Parameter("x", rng.normal(size=(3, 4, 5)))
        gain = Parameter("g", rng.normal(size=(3, 1, 5)))
        bias = Parameter("b", rng.normal(size=(3, 1, 5)))
        r = rng.normal(size=(3, 4, 5))
        report = grad_check(lambda: T.tsum(T.mul(T.layer_norm(x, gain, bias), r)), [x, gain, bias])
        assert report.max_rel_error < 1e-4


class TestEmbed:
    def test_lookup_returns_row(self):
        table = Parameter("t", np.arange(12, dtype=float).reshape(3, 4))
        np.testing.assert_array_equal(T.embed(table, 1).data, [4.0, 5.0, 6.0, 7.0])

    def test_backward_scatters_into_row(self):
        table = Parameter("t", np.zeros((3, 2)))
        T.tsum(T.mul(T.embed(table, 1), np.array([2.0, 5.0]))).backward()
        np.testing.assert_array_equal(table.grad, [[0, 0], [2.0, 5.0], [0, 0]])

    def test_repeated_lookup_doubles_gradient(self):
        table = Parameter("t", np.zeros((3, 2)))
        out = T.add(T.embed(table, 1), T.embed(table, 1))
        T.tsum(out).backward()
        np.testing.assert_array_equal(table.grad, [[0, 0], [2.0, 2.0], [0, 0]])

    def test_out_of_range_index(self):
        table = Parameter("t", np.zeros((3, 2)))
        with pytest.raises(IndexError):
            T.embed(table, 3)

    @settings(max_examples=100, deadline=None)
    @given(
        n_rows=st.integers(1, 12),
        width=st.integers(1, 6),
        shape=st.sampled_from([(0,), (1,), (7,), (40,), (3, 5), (8, 2), (2, 0)]),
        seed=st.integers(0, 2**16),
    )
    def test_backward_bit_equals_add_at(self, n_rows, width, shape, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n_rows, size=shape)  # repeats whenever the index outnumbers the rows
        g = rng.normal(size=shape + (width,))
        g[rng.random(g.shape) < 0.2] = -0.0
        table = Tensor(rng.normal(size=(n_rows, width)), requires_grad=True)
        T.tsum(T.mul(T.embed(table, idx), g)).backward()
        want = np.zeros((n_rows, width))
        np.add.at(want, idx.reshape(-1), g.reshape(-1, width))
        assert table.grad.tobytes() == want.tobytes()


class TestNoGrad:
    def _recorded(self, x: Parameter) -> Tensor:
        return T.tsum(T.layer_norm(T.matmul(x, x), index(x, 0), index(x, 1)))

    def test_results_record_nothing(self):
        x = Parameter("x", np.random.default_rng(0).normal(size=(3, 3)))
        with T.no_grad():
            out = self._recorded(x)
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        np.testing.assert_array_equal(out.data, self._recorded(x).data)

    def test_mode_restored_after_nesting(self):
        x = Parameter("x", np.ones((2, 2)))
        with T.no_grad():
            with T.no_grad():
                assert not T.add(x, 1.0).requires_grad
            assert not T.add(x, 1.0).requires_grad
        assert T.add(x, 1.0).requires_grad

    def test_mode_restored_after_exception(self):
        x = Parameter("x", np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        out = T.add(x, 1.0)
        assert out.requires_grad and out._parents

    def test_gradcheck_passes_after_leaving(self):
        x = Parameter("x", np.random.default_rng(1).normal(size=(3, 3)))
        with T.no_grad():
            self._recorded(x)
        assert grad_check(lambda: self._recorded(x), [x]).max_rel_error < 1e-6


class TestBackwardReleasesGraph:
    """Backward consumes the graph it walks; leaves and the scalar keep their gradients."""

    @staticmethod
    def graph(rng):
        w = Parameter("w", rng.normal(size=(4, 3)))
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        hidden = T.sigmoid(T.matmul(x, w))
        return w, x, hidden

    def test_a_large_intermediate_is_freed(self):
        x = Parameter("x", np.random.default_rng(0).normal(size=(256, 256)))
        hidden = T.elu(T.matmul(x, x))
        data = weakref.ref(hidden.data)
        loss = T.tsum(T.mul(hidden, 2.0))
        del hidden
        loss.backward()
        assert data() is None
        assert x.grad.shape == (256, 256)

    def test_interior_nodes_drop_their_gradients_and_leaves_keep_theirs(self):
        w, x, hidden = self.graph(np.random.default_rng(1))
        product = hidden._parents[0]
        loss = T.tsum(hidden)
        loss.backward()
        assert hidden.grad is None and product.grad is None
        assert hidden._parents == () and product._parents == ()
        assert w.grad.shape == w.shape and x.grad.shape == x.shape
        np.testing.assert_array_equal(loss.grad, 1.0)

    def test_a_second_backward_on_the_same_loss_raises(self):
        _, _, hidden = self.graph(np.random.default_rng(2))
        loss = T.tsum(hidden)
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()

    def test_a_loss_on_released_nodes_raises(self):
        _, _, hidden = self.graph(np.random.default_rng(3))
        T.tsum(hidden).backward()
        with pytest.raises(RuntimeError, match="released"):
            T.tsum(T.mul(hidden, 2.0)).backward()


class TestGradientAccumulation:
    """A ``Parameter``'s gradient is added into in place; any other node's becomes a new array."""

    def test_a_parameter_keeps_its_gradient_buffer(self):
        w = Parameter("w", np.ones(3))
        buffer = w.grad
        T.tsum(T.mul(T.add(w, w), 2.0)).backward()
        assert w.grad is buffer
        np.testing.assert_array_equal(w.grad, 4.0)

    def test_a_leaf_and_an_intermediate_handed_one_array_by_add_both_get_their_own(self):
        x = Tensor(np.ones(3), requires_grad=True)  # a leaf that is not a Parameter
        w = Parameter("w", np.ones(3))
        inner = T.add(x, T.mul(w, 2.0))
        T.tsum(T.add(inner, x)).backward()  # the outer add hands inner and x the same array
        np.testing.assert_array_equal(x.grad, 2.0)
        np.testing.assert_array_equal(w.grad, 2.0)


@st.composite
def taped_op(draw):
    """A public op applied to drawn operands, each a tensor that may require a gradient or a raw array."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = st.lists(st.integers(1, 3), min_size=1, max_size=3)

    def operand(shape, drawn=True):  # not drawn: a tensor that requires a gradient, so the op records a node
        value = rng.normal(size=shape)
        if drawn and draw(st.booleans()):
            return value
        return Tensor(value, requires_grad=not drawn or draw(st.booleans()))

    def broadcast_pair():
        big = draw(dims)
        small = [n if draw(st.booleans()) else 1 for n in big[draw(st.integers(0, len(big) - 1)):]]
        pair = [operand(big), operand(small)]
        return pair[::-1] if draw(st.booleans()) else pair

    name = draw(st.sampled_from([n for n in T.__all__ if not isinstance(getattr(T, n), type)]))
    shape = draw(dims)
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    if name in ("add", "mul"):
        return getattr(T, name)(*broadcast_pair())
    if name == "matmul":
        lead = draw(st.lists(st.integers(1, 3), max_size=2))
        m, k, n = draw(st.tuples(*[st.integers(1, 3)] * 3))
        b_lead = lead[draw(st.integers(0, len(lead))):]  # a 2-D b too, shared by every leading index
        return T.matmul(operand([*lead, m, k]), operand([*b_lead, k, n]))
    if name == "layer_norm":
        return T.layer_norm(operand(shape, False), operand(shape[-1:]), operand(shape[-1:]))
    if name == "embed":
        rows, width = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
        return T.embed(operand((rows, width), False), rng.integers(0, rows, size=shape))
    if name == "stack":
        parts = [operand(shape) for _ in range(draw(st.integers(1, 3)))]
        return T.stack(parts, axis=draw(st.integers(0, len(shape))))
    x = operand(shape, False)
    if name == "reshape":
        return T.reshape(x, (-1, 1))
    if name == "swap_axes":
        return T.swap_axes(x, 0, -1)
    if name == "tsum":
        return T.tsum(x, axis=draw(st.sampled_from([None, axis])))
    if name in ("softmax", "log_softmax"):
        return getattr(T, name)(x, axis=axis)
    return getattr(T, name)(x)


class TestClosureContract:
    """A closure returns its inputs' gradients, ``None`` where none is needed; ``_accumulate`` lands them."""

    def test_mul_by_a_raw_mask_returns_no_gradient_for_the_mask(self):
        rng = np.random.default_rng(0)
        w, mask, g = Parameter("w", rng.normal(size=(3, 4))), rng.random((3, 4)) < 0.5, rng.normal(size=(3, 4))
        gw, gmask = T.mul(w, mask)._backward(g)
        assert gmask is None
        assert gw.tobytes() == (g * mask.astype(np.float64)).tobytes()

    def test_add_of_a_raw_bias_lands_nothing_in_the_constant(self):
        rng = np.random.default_rng(1)
        x, g = Parameter("x", rng.normal(size=(3, 4))), rng.normal(size=(3, 4))
        out = T.add(x, rng.normal(size=(1, 4)))
        for parent, grad in zip(out._parents, out._backward(g)):
            T._accumulate(parent, grad)
        assert out._parents[1].grad is None
        assert x.grad.tobytes() == g.tobytes()

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    def test_tsum_hands_back_a_view_of_its_gradient_not_a_copy(self, axis):
        x = Tensor(np.ones((3, 4, 5)), requires_grad=True)
        out = T.tsum(x, axis=axis)
        g = np.random.default_rng(3).normal(size=out.shape)
        (gx,) = out._backward(g)
        assert gx.shape == x.shape and np.shares_memory(gx, g)
        np.testing.assert_array_equal(gx, np.broadcast_to(g if axis is None else np.expand_dims(g, axis), x.shape))

    @settings(max_examples=200, deadline=None)
    @given(out=taped_op())
    def test_a_closure_returns_one_gradient_per_input_shaped_for_it(self, out):
        assume(out._backward is not None)
        grads = out._backward(np.random.default_rng(2).normal(size=out.shape))
        assert len(grads) == len(out._parents)
        for parent, grad in zip(out._parents, grads):
            if grad is None:
                assert not parent.requires_grad
                continue
            assert np.broadcast_shapes(grad.shape, parent.shape) == grad.shape
            T._accumulate(parent, grad)
            assert (parent.grad is not None) == parent.requires_grad
            assert parent.grad is None or parent.grad.shape == parent.shape


class TestMatmulAlgebra:
    def test_associativity_on_random_squares(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = rng.normal(size=(4, 4))
            w1 = rng.normal(size=(4, 4))
            w2 = rng.normal(size=(4, 4))
            left = T.matmul(T.matmul(Tensor(x), Tensor(w1)), Tensor(w2)).data
            right = T.matmul(Tensor(x), Tensor(w1 @ w2)).data
            np.testing.assert_allclose(left, right, rtol=1e-6, atol=1e-9)

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(37)
        a = Parameter("a", rng.normal(size=(2, 3, 4)))
        w = Parameter("w", rng.normal(size=(4, 5)))
        r = rng.normal(size=(2, 3, 5))
        report = grad_check(lambda: T.tsum(T.mul(T.matmul(a, w), r)), [a, w])
        assert report.max_rel_error < 1e-6

    def test_shared_weight_gradient_on_non_contiguous_input(self):
        rng = np.random.default_rng(38)
        a = Parameter("a", rng.normal(size=(3, 2, 4)))
        w = Parameter("w", rng.normal(size=(4, 5)))
        r = rng.normal(size=(2, 3, 5))

        def forward():
            view = T.swap_axes(a, 0, 1)  # (2, 3, 4), not contiguous
            assert not view.data.flags.c_contiguous
            return T.tsum(T.mul(T.matmul(view, w), r))

        report = grad_check(forward, [a, w])
        assert report.max_rel_error < 1e-6

    def test_shared_weight_matches_per_row_products(self):
        rng = np.random.default_rng(39)
        a = rng.normal(size=(2, 3, 4, 6))
        w = rng.normal(size=(6, 5))
        np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(w)).data, np.matmul(a, w), atol=1e-12)

    def test_stacked_weights_gradient(self):
        rng = np.random.default_rng(40)
        a = Parameter("a", rng.normal(size=(3, 4, 2)))
        w = Parameter("w", rng.normal(size=(3, 2, 5)))
        r = rng.normal(size=(3, 4, 5))
        report = grad_check(lambda: T.tsum(T.mul(T.matmul(a, w), r)), [a, w])
        assert report.max_rel_error < 1e-6

    def test_input_without_gradient_gets_none(self):
        rng = np.random.default_rng(41)
        a = Tensor(rng.normal(size=(2, 3, 4)))
        w = Parameter("w", rng.normal(size=(4, 5)))
        T.tsum(T.matmul(a, w)).backward()
        assert a.grad is None
        np.testing.assert_allclose(w.grad, a.data.reshape(-1, 4).sum(0)[:, None] * np.ones(5))


class TestReductionsAndShapes:
    def test_sum_axis_gradient(self):
        rng = np.random.default_rng(41)
        x = Parameter("x", rng.normal(size=(2, 3, 4)))
        r = rng.normal(size=(2, 4))
        report = grad_check(lambda: T.tsum(T.mul(T.tsum(x, axis=1), r)), [x])
        assert report.max_rel_error < 1e-6

    def test_stack_concat_slice_roundtrip_gradient(self):
        rng = np.random.default_rng(43)
        x = Parameter("x", rng.normal(size=(2, 3)))
        y = Parameter("y", rng.normal(size=(2, 3)))
        r = rng.normal(size=(2, 2, 3))

        def forward():
            s = T.stack([x, y], axis=1)
            back = concat([index(s, np.s_[:, 0:1, :]), index(s, np.s_[:, 1:2, :])], axis=1)
            return T.tsum(T.mul(back, r))

        report = grad_check(forward, [x, y])
        assert report.max_rel_error < 1e-6

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(47)
        x = Parameter("x", rng.normal(size=(2, 3, 4)))
        c = Parameter("c", rng.normal(size=(2, 1, 4)))
        r = rng.normal(size=(2, 3, 4))
        report = grad_check(lambda: T.tsum(T.mul(T.add(x, c), r)), [x, c])
        assert report.max_rel_error < 1e-6

    def test_a_reshape_to_the_operand_shape_is_the_operand(self):
        rng = np.random.default_rng(53)
        x = Parameter("x", rng.normal(size=(3, 4)))
        y = Parameter("y", x.data.copy())
        r = rng.normal(size=(3, 4))
        assert T.reshape(x, (3, 4)) is x and T.reshape(x, (-1, 4)) is x  # no node recorded
        T.tsum(T.mul(T.mul(T.reshape(x, (3, 4)), x), r)).backward()
        T.tsum(T.mul(T.mul(T.reshape(T.reshape(y, (12,)), (3, 4)), y), r)).backward()
        assert x.grad.tobytes() == y.grad.tobytes()


class TestGradCheckContract:
    def test_non_finite_loss_raises(self, unchecked_node, monkeypatch):
        monkeypatch.setattr(T, "_node", unchecked_node)
        x = Parameter("x", np.array([1.0]))

        def forward():
            bad = Tensor(np.array([np.inf]))
            return T.tsum(T.mul(x, bad))

        with pytest.raises(NumericError):
            grad_check(forward, [x])

    def test_loss_non_finite_only_when_perturbed_raises(self, unchecked_node, monkeypatch):
        monkeypatch.setattr(T, "_node", unchecked_node)
        x = Parameter("x", np.array([0.0]))

        def forward():
            scale = 1.0 if x.data[0] == 0.0 else np.inf
            return T.tsum(T.mul(x, scale))

        with pytest.raises(NumericError, match="loss is not finite"):
            grad_check(forward, [x])

    def test_non_scalar_loss_raises(self):
        x = Parameter("x", np.ones(2))
        with pytest.raises(ShapeError, match=r"loss must be scalar, got shape \(2,\)"):
            grad_check(lambda: T.mul(x, 2.0), [x])

    def test_backward_requires_scalar(self):
        x = Parameter("x", np.ones((2, 2)))
        with pytest.raises(ShapeError):
            T.mul(x, 2.0).backward()

    def test_report_structure(self):
        x = Parameter("a", np.array([1.0, 2.0]))
        y = Parameter("b", np.array([[3.0]]))
        report = grad_check(lambda: T.add(T.tsum(x), T.tsum(y)), [x, y], name="toy")
        assert report.op_name == "toy"
        assert set(report.per_parameter) == {"a", "b"}
        assert report.max_rel_error == max(report.per_parameter.values())
