"""Tour of the numerical core: taped tensors, reverse mode, SGD.

Everything downstream (losses, training) runs on these pieces, so this
script shows the moving parts in isolation.
"""

import numpy as np

from probadapt import autodiff as ad
from probadapt.autodiff import Tape
from probadapt.optim import ParamGroup, SgdState, sgd_step

# --- record a tiny computation on a tape ---------------------------------
tape = Tape()
x = tape.leaf([[1.0, -2.0, 0.5]])
w = tape.leaf(np.array([[0.2], [0.4], [-0.3]]))
b = tape.leaf([[1.0]])              # x @ w = -0.75; the bias keeps the unit active
hidden = ad.dense(x, w, b, "relu")  # relu(x @ w + b) as one tape node
loss = ad.mean(ad.mul(hidden, hidden))
print("forward value:", loss.item())

# --- pull gradients back to the leaves ------------------------------------
grads = ad.backward(loss)
print("d loss / d x:", grads[x])
print("d loss / d w:", grads[w])
print("d loss / d b:", grads[b])

# --- check them against central finite differences ------------------------
def build(tape, leaves):
    h = ad.dense(*leaves, "relu")
    return ad.mean(ad.mul(h, h))

err = ad.finite_difference_check(build, [x.value, w.value, b.value])
print(f"max relative error vs finite differences: {err:.2e}")

# --- a few optimizer steps -------------------------------------------------
# A parameter group keeps its named tensors as views of one flat vector; the
# step updates that vector in place, so params["w"] follows it.
params = ParamGroup({"w": np.array([[1.0, 1.0]])})
state = SgdState(momentum=0.9, weight_decay=5e-4)
for step in range(3):
    grad = params.flat * 0.5                 # gradient of 0.25*|w|^2
    sgd_step([(params, grad, state, 0.1)])
    print(f"step {step}: w = {params['w'].ravel()}")
