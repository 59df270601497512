"""Walk through every loss ingredient on small hand-sized matrices.

Shows the calibration weights, the pair distance and its relation to the
Jensen-Shannon divergence, the transformed target probabilities, the
calibration factor, and the closed form of the penalty gradient.
"""

import numpy as np

from probadapt import losses as L
from probadapt.autodiff import Tape

# --- calibration weights ---------------------------------------------------
y_s = L.one_hot(np.array([0, 0, 2]), 3)
alpha_s = L.source_weights(y_s)
print("source weights:\n", alpha_s)

p_h_t = np.array([[0.8, 0.15, 0.05], [0.6, 0.3, 0.1]])
y_tilde = L.pseudo_labels(p_h_t)
alpha_t = L.target_weights(p_h_t, y_tilde)
print("target weights:\n", alpha_t)
print("pairwise coefficients:\n", L.calibration_matrix(alpha_s, alpha_t))

# --- distances ---------------------------------------------------------------
p = np.array([0.7, 0.2, 0.1])
q = np.array([0.5, 0.3, 0.2])
d = L.pair_distance(p, q)
js = L.js_divergence(p, q)
ent = 0.5 * np.sum(p * np.log(p)) + 0.5 * np.sum(q * np.log(q))
print(f"\npair distance d = {d:.6f}")
print(f"JS divergence   = {js:.6f}")
print(f"JS rebuilt from d = {ent + d + np.log(2):.6f}  (entropy terms + d + log 2)")

# --- transformed probabilities and the calibration factor -------------------
prototype = np.array([[0.7, 0.2, 0.05, 0.05],
                      [0.1, 0.2, 0.6, 0.1]])
p_g_t = np.array([[0.6, 0.25, 0.1, 0.05],
                  [0.1, 0.15, 0.55, 0.2]])
p_tilde = L.transform_probability(p_g_t, prototype)
print("\ntransformed target probabilities:\n", p_tilde)

p_h = np.array([[0.9, 0.1], [0.4, 0.6]])
beta = L.beta_values("exp_neg_kl", p_h, p_tilde).ravel()
print("calibration factors:", beta)

# --- the calibrated penalty and its gradient ---------------------------------
# The penalty is a graph builder: p_h enters it as a taped leaf.
state = L.cgi_state(p_h, p_g_t, prototype)
loss = L.target_penalty_loss(Tape().leaf(p_h), state, "CGI")
print(f"\ncalibrated Gini penalty: {loss.item():.6f}")
print(f"plain Gini would be:     {L.gini_impurity(p_h):.6f}")

exact = L.cgi_gradient_reference(p_h, state.p_tilde, state.beta)
print("\nexact gradient (matches autodiff):\n", exact)
