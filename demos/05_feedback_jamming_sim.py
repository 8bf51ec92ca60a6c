"""Monte Carlo against theory across jamming levels.

Runs the full protocol simulator at several ACK erasure probabilities and
lines the estimates up against the analytical chain and the binomial
delivery formula.  The chain is memoryless slot to slot; at heavy jamming
(eps_K near 1) that makes it pessimistic for the defender, sitting at or
above the simulated intercept, which is the direction the analysis is used
in.  At light jamming the same simplification can undershoot, and the first
row of the table shows exactly that, so the bound claim is strictly a
high-eps_K statement.

    python3 demos/05_feedback_jamming_sim.py [--trials N]
"""

import argparse

from srlnc import (
    ChannelParams,
    CodeParams,
    SimConfig,
    build_chain,
    delivery_probability,
    estimate,
    intercept_probability,
)

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--trials", type=int, default=4000)
args = parser.parse_args()

K, q, p, n_hat = 10, 2, 0.7, 20
code = CodeParams(K=K, q=q, p=p, n_hat=n_hat)
print(f"K={K}, q={q}, p={p}, budget={n_hat}, eps_B=0.05, eps_E=0.3, "
      f"{args.trials} trials per row (seed 17)\n")

print("eps_K   I_sim (+-ci)        I_chain   D_sim    D_formula  mean slots")
for eps_k in (0.0, 0.5, 0.85, 1.0):
    chan = ChannelParams(0.05, 0.3, eps_k)
    stats = estimate(SimConfig(code=code, chan=chan, trials=args.trials,
                               base_seed=17))
    P = build_chain(code, chan, "paper-exact")
    i_theory = intercept_probability(P, n_hat)
    d_theory = delivery_probability(code, chan)
    print(f"{eps_k:4.2f}   {stats.intercept_hat:.4f} (+-{stats.intercept_ci:.4f})"
          f"   {i_theory:.4f}    {stats.delivery_hat:.4f}   {d_theory:.4f}"
          f"     {stats.mean_slots:5.2f}")

print("\nreading the table:")
print("  eps_K=0: ACKs get through, the source stops early (small mean")
print("  slots), Eve is starved; note the chain undershoots the sim here,")
print("  its bound direction only holds under heavy jamming.  eps_K=1:")
print("  every ACK is jammed, all 20 slots are always spent, Eve's")
print("  intercept jumps, and the chain sits above the sim as claimed.")
print("  D_formula only counts the budget, so it is flat in eps_K, and")
print("  early stops cannot change Bob's decode status: he stops only")
print("  after decoding.")
