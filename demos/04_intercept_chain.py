"""Inside the absorbing chain that prices an eavesdropper's chances.

State = (Bob's defect, Eve's defect, ACK received).  Each transmission slot
is one step; the intercept probability is the mass absorbed in the states
where Eve's defect hit zero.  This demo builds a small chain, decodes a few
of its rows back into plain English, and then shows what jamming the
feedback channel does to the metrics.
"""

from srlnc import (
    ChannelParams,
    CodeParams,
    RankTables,
    build_chain,
    initial_label,
    intercept_labels,
    intercept_probability,
    n_states,
    state_of,
)
# delivery_probability prices code.n_hat, and CodeParams needs a budget
# above K; the budgets below are read from the rank module's reception sum.
from srlnc.rank import decoding_probabilities

K, q, p = 4, 2, 0.7
code = CodeParams(K=K, q=q, p=p, n_hat=16)

chan = ChannelParams(eps_b=0.05, eps_e=0.3, eps_k=1.0)
P = build_chain(code, chan, "paper-exact")

print(f"chain for K={K}: {n_states(K)} states "
      f"(= (K+1)(K+2)), start at label {initial_label(K)}, "
      f"intercept labels {intercept_labels(K)}")

print("\nthree rows, decoded:")
for label in (initial_label(K), initial_label(K) - 1, K + 1):
    st = state_of(label, K)
    desc = (f"Bob defect {st.bob_defect}, Eve defect {st.eve_defect}, "
            f"ACK {'yes' if st.ack_received else 'no'}")
    print(f"  label {label:2d} ({desc})")
    for dest, prob in ((j, w) for i, j, w in P.triplets() if i == label):
        d = state_of(dest, K)
        print(f"      -> {dest:2d} (dB={d.bob_defect}, dE={d.eve_defect}, "
              f"ack={'y' if d.ack_received else 'n'})  prob={prob:.4f}")

print("\nintercept and delivery vs transmission budget (eps_K = 1, jammed):")
print("  N_hat   I (intercept)   D (delivery)")
for n_hat in (4, 6, 8, 12, 16):
    I = intercept_probability(P, n_hat)
    [D] = decoding_probabilities([RankTables(q, p)], K, n_hat, chan.eps_b)
    print(f"  {n_hat:4d}    {I:.4f}          {D:.4f}")

print("\nthe same point with working feedback, three jamming levels:")
print("  eps_K   I at N_hat=16")
for eps_k in (0.0, 0.5, 1.0):
    Pk = build_chain(code, ChannelParams(0.05, 0.3, eps_k), "paper-exact")
    print(f"  {eps_k:.2f}    {intercept_probability(Pk, 16):.4f}")
print("jamming the ACK keeps the source talking after Bob is done, and")
print("every extra slot is another chance for Eve; that is the whole attack.")
