"""Rank probabilities: the approximation against exhaustive enumeration.

W_t is the chance the next sparse packet is innovative given rank t;
R_{n,K} the chance n sparse packets already carry full rank.  Both come
from a closed-form approximation that is exact at p = 1/q and loosest on
small square matrices.  The tables below put the approximation next to
exact enumeration so the error is visible rather than folklore.
"""

from srlnc import RankTables, classic_full_rank_prob, exact_full_rank_prob

K, q = 4, 2
print(f"innovation probabilities W_t, K={K}, q={q}")
header = "  t   " + "".join(f"p={p:<8.2f}" for p in (0.5, 0.6, 0.7, 0.8))
print(header)
tabs = {p: RankTables(q, p) for p in (0.5, 0.6, 0.7, 0.8)}
for t in range(K):
    cells = "".join(f"{tabs[p].W(K)[t]:<10.4f}" for p in tabs)
    print(f"  {t}   {cells}")

print(f"\nfull-rank probability R_(n,{K}): model vs exact enumeration")
print("  p     n    model     exact     error")
for p in (0.5, 0.6, 0.7, 0.8):
    # n stops at K+1: enumerating 2^(n*K) matrices is capped at 2^21
    for n in range(K, K + 2):
        model = tabs[p].full_rank_prob(n, K)
        exact = exact_full_rank_prob(n, K, p, q)
        flag = "  <- loosest spot" if abs(model - exact) > 0.05 else ""
        print(f"  {p:.1f}  {n:2d}   {model:.4f}   {exact:.4f}   "
              f"{model - exact:+.4f}{flag}")

print("\nclassic endpoint p = 1/q is computed by its own exact branch:")
t20 = RankTables(2, 0.5)
for n in (20, 25, 40):
    exact = classic_full_rank_prob(n, 20, 2)
    print(f"  R_({n},20): model {t20.full_rank_prob(n, 20):.15f}  "
          f"closed form {exact:.15f}")

print("\nW_t falls as the receiver's basis grows, and falls as p rises")
print("(within the approximation branch); both monotonicities are load-")
print("bearing for the chain and the optimizer, and the test suite pins")
print("the two known exceptions at the classic seam and the p>0.9 tail.")
