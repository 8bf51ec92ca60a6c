"""One generation, end to end: encode sparse, absorb, decode, compare.

The point to take away is the trade at the heart of the whole package:
raising the zero-probability p makes coding vectors cheaper to intercept-
proof but slower to reach full rank, because more received packets are
redundant.  The roundtrip below runs at p = 0.7; the tally at the end
measures the redundancy cost against classic dense coding.
"""

import numpy as np

from srlnc import (
    CodeParams,
    DecoderState,
    decode_payloads,
    encode_payload,
    sample_coding_matrix,
)

rng = np.random.default_rng(12)
K, q, p = 4, 16, 0.7
params = CodeParams(K=K, q=q, p=p, n_hat=32)
gf = params.field

# four source packets of eight GF(16) symbols each
sources = [rng.integers(0, q, size=8).astype(np.uint8) for _ in range(K)]
print(f"source packets (K={K}, q={q}, p={p}):")
for i, s in enumerate(sources):
    print(f"  s{i}: {s.tolist()}")

state = DecoderState(K, q)
received = []
slot = 0
print("\nreception log:")
while state.defect > 0:
    slot += 1
    vec = sample_coding_matrix(params, 1, rng)[0]
    payload = encode_payload(gf, sources, vec)
    innovative = state.absorb(vec)
    tag = "innovative" if innovative else "redundant "
    if innovative:
        received.append(payload)
    print(f"  slot {slot:2d}: vector={vec.tolist()}  {tag}  "
          f"rank={state.rank}/{K}")

decoded = decode_payloads(state, received)
roundtrip = all(np.array_equal(a, b) for a, b in zip(decoded, sources))
print(f"\ndecoded == sources: {roundtrip}")

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
