"""One generation, vector by vector: draw sparse, absorb, watch the rank.

The point to take away is the trade at the heart of the whole package:
raising the zero-probability p makes the eavesdropper less likely to reach
full rank, but it slows the legitimate receiver down too, because more
received packets are redundant.  Both are rank events of the coding vectors
a receiver collects, so the vectors are all this demo tracks.  The reception
log below runs at p = 0.7; the tally at the end measures the redundancy cost
against classic dense coding.
"""

import numpy as np

from srlnc import CodeParams, DecoderState, sample_coding_matrix

rng = np.random.default_rng(12)
K, q, p = 4, 16, 0.7
params = CodeParams(K=K, q=q, p=p, n_hat=32)

state = DecoderState(K, q)
slot = 0
print(f"reception log (K={K}, q={q}, p={p}):")
while state.defect > 0:
    slot += 1
    vec = sample_coding_matrix(params, 1, rng)[0]
    innovative = state.absorb(vec)
    tag = "innovative" if innovative else "redundant "
    print(f"  slot {slot:2d}: vector={vec.tolist()}  {tag}  "
          f"rank={state.rank}/{K}")
print(f"\nfull rank after {slot} slots")

# how many slots until full rank, sparse vs classic, over many generations
def slots_to_decode(p_value, runs=2000):
    pars = CodeParams(K=K, q=q, p=p_value, n_hat=64)
    counts = []
    r = np.random.default_rng(99)
    for _ in range(runs):
        st = DecoderState(K, q)
        n = 0
        while st.defect > 0 and n < 64:
            st.absorb(sample_coding_matrix(pars, 1, r)[0])
            n += 1
        counts.append(n)
    return np.mean(counts)

dense = slots_to_decode(1 / q)
sparse = slots_to_decode(p)
print(f"\nmean receptions to full rank over 2000 generations:")
print(f"  classic p=1/{q}: {dense:.2f}")
print(f"  sparse  p={p}:   {sparse:.2f}  "
      f"(+{sparse - dense:.2f} slots is the delivery price of sparsity)")
