"""Forward values and gradients of the tensor core."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrecover import tensor as T
from actrecover.gradcheck import grad_check
from actrecover.tensor import NumericError, Parameter, ShapeError, Tensor

from helpers import concat, two_branch_sigmoid


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


class TestLinear:
    def test_zero_input_rows_equal_bias(self):
        x = Tensor(np.zeros((3, 2)))
        w = Parameter("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Parameter("b", np.array([5.0, -1.0]))
        out = T.linear(x, w, b)
        np.testing.assert_array_equal(out.data, np.tile([5.0, -1.0], (3, 1)))

    def test_identity_weight_zero_bias(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        w = Parameter("w", np.eye(3))
        b = Parameter("b", np.zeros(3))
        np.testing.assert_array_equal(T.linear(x, w, b).data, x.data)

    def test_hand_matrix_product(self):
        x = Tensor([[1.0, 2.0]])
        w = Parameter("w", np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = Parameter("b", np.array([3.0, 4.0]))
        np.testing.assert_array_equal(T.linear(x, w, b).data, [[4.0, 6.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            T.linear(Tensor(np.zeros((2, 3))), Parameter("w", np.zeros((2, 4))))

    def test_backward_reaches_input_and_params(self):
        x = Parameter("x", np.array([[1.0, 2.0]]))
        w = Parameter("w", np.array([[1.0, -1.0], [0.5, 2.0]]))
        b = Parameter("b", np.array([0.0, 0.0]))
        T.tsum(T.linear(x, w, b)).backward()
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
        return T.tsum(T.layer_norm(T.matmul(x, x), x[0], x[1]))

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
            back = concat([s[:, 0:1, :], s[:, 1:2, :]], axis=1)
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
