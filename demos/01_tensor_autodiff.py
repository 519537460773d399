"""A tour of the tensor core: forward ops, backward, finite-difference checks.

Run: python demos/01_tensor_autodiff.py
"""

import numpy as np

from actrecover import tensor as T
from actrecover.gradcheck import grad_check
from actrecover.tensor import Parameter, Tensor

rng = np.random.default_rng(0)

print("== a small differentiable computation ==")
x = Parameter("x", rng.normal(size=(2, 3)))
w = Parameter("w", rng.normal(size=(3, 4)))
b = Parameter("b", np.zeros(4))
hidden = T.elu(T.add(T.matmul(x, w), b))
probs = T.softmax(hidden, axis=-1)
loss = T.mul(T.tsum(T.mul(probs, rng.normal(size=(2, 4)))), 1.0 / 8)  # the mean of 8 entries
print("loss =", float(loss.data))

loss.backward()
print("dL/dw row 0:", np.round(w.grad[0], 4))
print("dL/dx row 0:", np.round(x.grad[0], 4))

print()
print("== softmax rows are a simplex ==")
z = T.softmax(Tensor(rng.normal(size=(3, 5)) * 4), axis=-1)
print("row sums:", z.data.sum(-1))
print("min entry:", z.data.min())

print()
print("== layer norm standardizes each row ==")
gain = Parameter("gain", np.ones(6))
bias = Parameter("bias", np.zeros(6))
normed = T.layer_norm(Tensor(rng.normal(size=(4, 6)) * 3 + 7), gain, bias)
print("row means:", np.round(normed.data.mean(-1), 8))
print("row vars: ", np.round(normed.data.var(-1), 6))

print()
print("== central differences agree with the tape ==")
first_two = np.eye(4)[:, :2]  # a 0/1 matrix whose product picks columns 0 and 1
for name, forward, params in [
    ("linear", lambda: T.tsum(T.add(T.matmul(x, w), b)), [x, w, b]),
    ("elu+softmax", lambda: T.tsum(T.matmul(T.softmax(T.elu(T.add(T.matmul(x, w), b)), axis=-1), first_two)),
     [x, w, b]),
]:
    report = grad_check(forward, params, name=name)
    print(f"{name}: max relative gradient error {report.max_rel_error:.2e}")
