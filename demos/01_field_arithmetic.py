"""Finite-field plumbing: tables, inverses, and the one identity to trust.

Every layer above (coding vectors, rank tracking, rank probabilities) leans on
GF(2^m) arithmetic being exactly right, so this demo does the unglamorous
thing: print the small tables, verify the axioms by brute force, and solve
one linear equation by hand.
"""

import numpy as np

from srlnc import get_field

gf4 = get_field(4)
print("GF(4) addition (XOR) and multiplication tables")
print("   +  | " + "  ".join(str(b) for b in range(4)))
for a in range(4):
    print(f"   {a}  | " + "  ".join(str(a ^ b) for b in range(4)))
print("   *  | " + "  ".join(str(b) for b in range(4)))
for a in range(4):
    print(f"   {a}  | " + "  ".join(str(gf4.mul(a, b)) for b in range(4)))

print("\nInverses in GF(16):")
gf16 = get_field(16)
pairs = [(a, gf16.inv(a)) for a in range(1, 16)]
print("  " + "  ".join(f"{a}->{b}" for a, b in pairs))

# brute-force the axioms for every field order the package accepts
for q in (2, 4, 8, 16, 256):
    gf = get_field(q)
    elems = range(q)
    ok = all(gf.mul(a, gf.inv(a)) == 1 for a in range(1, q))
    ok &= all(gf.mul(a, b) == gf.mul(b, a) for a in elems for b in range(a, q))
    ok &= all(
        gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
        for a in range(0, q, max(1, q // 16))
        for b in range(0, q, max(1, q // 16))
        for c in range(0, q, max(1, q // 16))
    )
    print(f"GF({q:3d}): inverses, commutativity, distributivity (sampled) -> "
          f"{'ok' if ok else 'BROKEN'}")

# solve 7*x + 3 = 12 in GF(16): x = (12 - 3) / 7 = (12 XOR 3) * inv(7)
x = gf16.mul(12 ^ 3, gf16.inv(7))
print(f"\nSolve 7*x + 3 = 12 over GF(16): x = {x} "
      f"(check: {gf16.mul(7, x) ^ 3} == 12)")

# scaling a whole row is one lookup in the multiplication table, the
# vectorized workhorse behind elimination
row = np.array([0, 1, 5, 9, 14], dtype=np.uint8)
print(f"scale_row(3, {row.tolist()}) = {gf16.mul_table[3, row].tolist()}")
