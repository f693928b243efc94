import math

import numpy as np
from hypothesis import strategies as st

# (phi, f) values rich in ties, with both signed zeros
PHI = st.sampled_from([0.0, -0.0, 0.5, 1.0, math.inf]) | st.floats(0.0, 10.0)
F = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3)


def random_pairs(rng, count, feasible_share=0.5):
    """(phi, f) samples mixing exact zeros with continuous positive violations."""
    phi = np.where(rng.random(count) < feasible_share, 0.0, rng.exponential(1.0, count))
    f = rng.normal(0.0, 10.0, count)
    return phi, f
