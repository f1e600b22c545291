"""
Finding integer divisors in a residue class
===========================================

Walks through the core routine on plain integers: all divisors d of N
with d = r (mod S), found in polynomial time once S**3 > N.
"""

import math

from resdiv.algorithms import divisors_rational
from resdiv.remseq import build_chain, build_instance, chain_dump
from resdiv.rings import RING_Z

# a small warm-up: divisors of 273 that are 1 mod 10
report = divisors_rational(273, 10, 1)
print("divisors of 273 in class 1 mod 10:", report.divisors)

# each divisor comes with the pair (x, y) certifying it:
# d = S*x + r and N/d = S*y + r', plus the chain row that produced it
for d in report.divisors:
    x, y, row = report.witnesses[d]
    print(f"  d={d}: x={x}, y={y}, from row {row}")

# the instance object behind that search: r reduced mod S, and r' with
# N = r*r' (mod S)
inst = build_instance(RING_Z, 273, 10, 1)
print("reduced residue r =", inst.r, " cofactor residue r' =", inst.rPrime)

# the remainder chain that drives the search (a_k | b_k | c_k per row)
print(chain_dump(build_chain(inst)))

# the record case: N ~ 1.04e14 with six positive divisors in class
# 1 mod 105787, and S is barely above the N**(1/3) threshold
N, S = 104254876089000, 105787
report = divisors_rational(N, S, 1)
positive = [d for d in report.divisors if d > 0]
print("record instance positives:", positive)
print("count:", len(positive))

alpha = math.log(S) / math.log(N)
print(f"alpha = log(S)/log(N) = {alpha:.4f}  (cube-root gate needs > 1/3)")

# sanity: every reported divisor actually divides and sits in the class
assert all(N % d == 0 and d % S == 1 % S for d in positive)
print("stats:", report.stats)
