"""Choosing the sparsity: the constrained solve and the gain it buys.

The operational question is how sparse the code can get before the
legitimate receiver starts missing its delivery target.  The solver runs a
bisection on the delivery constraint; this demo solves one reference
configuration, prices the intercept at the solution and at classic coding
with the chain, audits the solution, then traces the Monte Carlo gain curve
over transmission budgets the way the payoff is usually presented.
"""

import dataclasses

from srlnc import (
    ChannelParams,
    CodeParams,
    build_chain,
    delivery_probability,
    intercept_probability,
)
from srlnc.optimize import ImConfig, intercept_gain, solve_im

cfg = ImConfig(
    code=CodeParams(K=5, q=2, p=0.5, n_hat=17),
    chan=ChannelParams(eps_b=0.05, eps_e=0.2, eps_k=1.0),
    d_hat=0.99,
)
sol = solve_im(cfg)


def intercept(p):
    """The chain's intercept probability at sparsity p."""
    code = dataclasses.replace(cfg.code, p=p)
    P = build_chain(code, cfg.chan)
    return intercept_probability(P, code.n_hat)


print("reference solve: K=5, q=2, eps_B=0.05, eps_E=0.2, eps_K=1, "
      "N_hat=17, delivery floor 0.99")
print(f"  status            {sol.status}")
print(f"  p_star            {sol.p_star:.6f}")
print(f"  delivery(p_star)  {sol.delivery:.6f}")
print(f"  intercept(p_star) {intercept(sol.p_star):.6f}")
print(f"  intercept(1/q)    {intercept(cfg.p_min):.6f}")
print(f"  iterations        {sol.iterations}")

# audit: nudging p past the solution must break the floor
code_right = dataclasses.replace(cfg.code, p=sol.p_star + 0.01)
d_right = delivery_probability(code_right, cfg.chan)
print(f"  delivery(p_star + 0.01) = {d_right:.6f} < 0.99 "
      f"-> the root is the right one")

print("\ngain curve at delivery floor 0.90 (3000 trials per budget, seed 11):")
gain_cfg = dataclasses.replace(cfg, d_hat=0.90)
points = intercept_gain(gain_cfg, range(9, 21), trials=3000, base_seed=11)
print("  N_hat  p_star   I_classic  I_opt    gain")
best = None
for pt in points:
    print(f"  {pt.n_hat:4d}   {pt.p_star:.4f}   {pt.intercept_classic:.4f}"
          f"     {pt.intercept_opt:.4f}   {pt.gain:+.4f}")
    if best is None or pt.gain > best.gain:
        best = pt
rel = best.gain / best.intercept_classic
print(f"\nbest point: N_hat={best.n_hat}, gain={best.gain:.4f}, "
      f"relative reduction {100 * rel:.1f}%")
print("the curve peaks where the budget is tight enough that classic")
print("coding still leaks but loose enough that sparse coding can satisfy")
print("the delivery floor; far right, both settings saturate and the gain")
print("decays.")
