"""Per-row candidate gamma values and the exact two-equation solver.

Each chain row (a_i, b_i, c_i) contributes candidates gamma = c_i + lam*S.
In Z lam ranges over an interval (integer_shifts), in the quadratic rings
over a disk (enumerate_residues); in Z[x] the possible leading
coefficients of a_i*f + b_i*g pin down a finite set of rational constant
shifts lam (poly_rhs_candidates).  For every candidate,
solve_system intersects the line a_i*x + b_i*y = gamma with the product
equation (S*x + r)(S*y + r') = N and keeps only exactly verified ring
solutions.

The row discriminant.  With a, b != 0, eliminating y = (gamma - a*x)/b
leaves a quadratic A2*x^2 + A1*x + A0 = 0 with

    A2 = -S^2*a,   A1 = S^2*gamma + S*r'*b - S*r*a,
    A0 = S*r*gamma + b*(r*r' - N).

Only A1 and A0 depend on gamma, linearly: at gamma = c + lam*S they are
A1 + lam*S^3 and A0 + lam*S^2*r, with A1 and A0 taken at gamma = c.  So
the discriminant A1^2 - 4*A2*A0 is a quadratic in the shift,

    D(lam) = E*lam^2 + F*lam + G,   E = S^6,
    F = 2*A1*S^3 - 4*A2*S^2*r,   G = A1^2 - 4*A2*A0,

with E, F and G fixed per row.  The algebra is the same in Z, in the
quadratic rings and in Z[x], and in any commutative ring the formulas are
evaluated in.  fastscan sieves D(lam) for squareness modulo small primes
over its lam pool.  Z and Z[x] test each shift on plain scalars before
gamma is built (RowSystem): in Z, D(lam) is an integer whose isqrt is the
root extraction itself; in Z[x], D(lam) must take rational square values
at a few integers x0, with E(x0), F(x0) and G(x0) computed from the row's
inputs evaluated at x0, so E, F and G are never expanded as polynomials.
A shift that passes takes its discriminant from gamma, A1^2 - 4*A2*A0.

The final row.  Rows 1..t-1 of the chain have a, b != 0; row t is
(0, u*S, 0) with u a unit (build_chain proves and checks this).  There
y = gamma/(u*S) = lam/u is exact at every shift, and the pair exists only
if the cofactor S*y + r' divides N.  Each ring tests that through a map
to Z that respects products: normsq over the pool in fastscan, the number
itself in Z, evaluation at the points x0 in Z[x] (FinalRow).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from typing import NamedTuple

from .polynomials import Coeff, Poly
from .rings import (
    Element,
    QuadInt,
    _parity_ok,
    exact_div,
    ring_one,
    ring_sqrt,
    ring_zero,
)
from .remseq import ProblemInstance


class SolutionPair(NamedTuple):
    x: Element
    y: Element


def candidate_radius(d: int) -> int:
    """Sweep radius for Z (d = 0, as in RING_Z.d) or the quadratic ring of
    discriminant-root d.

    The sweep covers every gamma with normsq(gamma) < radius^2 *
    normsq(S); Z and the Gaussian integers need far less slack than the
    other four rings.
    """
    return 12 if d in (0, -1) else 530


def integer_shifts(rbound: int) -> list[int]:
    """The Z sweep: every integer lam with |lam| <= rbound + 2, in
    (lam^2, lam) order, i.e. the real points of the Gaussian pool of the
    same radius (fastscan._Pool) in the pool's order."""
    return sorted(range(-rbound - 2, rbound + 3), key=lambda lam: (lam * lam, lam))


def enumerate_residues(c: QuadInt, S: QuadInt, rbound: int, ring) -> list[QuadInt]:
    """All gamma = c + lam*S with normsq(gamma) < rbound^2 * normsq(S).

    c must already be reduced mod S (|c| <= |S|), which confines lam to the
    disk |lam| < rbound + 1.  Reference implementation: plain lattice walk
    over the half-coordinate box with a final exact norm test.  Sorted by
    (normsq, u, v) so downstream "first hit" bookkeeping is reproducible.
    """
    if not ring.is_quad:
        raise ValueError("enumerate_residues is only defined for quadratic rings")
    d = ring.d
    n_s = S.normsq()
    limit = rbound * rbound * n_s
    box = 4 * (rbound + 1) * (rbound + 1)
    out = []
    vmax = isqrt(box // -d)
    for v in range(-vmax, vmax + 1):
        rem = box + d * v * v
        if rem < 0:
            continue
        umax = isqrt(rem)
        for u in range(-umax, umax + 1):
            if not _parity_ok(u, v, d):
                continue
            gamma = c + QuadInt(u, v, d) * S
            if gamma.normsq() < limit:
                out.append(gamma)
    out.sort(key=lambda g: (g.normsq(), g.u, g.v))
    return out


def poly_rhs_candidates(a: Poly, b: Poly, inst: ProblemInstance) -> list[Coeff]:
    """Candidate shifts lam for one Z[x] chain row (a, b, c): gamma = c + lam*S.

    gamma = a*f + b*g mod S for a solution pair forces the coefficient of
    x^(deg S) in gamma to be lead(a*f + b*g)/lead(S) whenever that product
    reaches degree deg S.  Writing dL for a divisor of lead(N)/lead(S)^2
    (the leading coefficient of f; the cofactor side then has
    lead g = M/dL), the possible shifts above the reduced c are:

        (lead(a)*dL + lead(b)*(M/dL)) / lead(S)     both terms at top degree
        lead(a)*dL / lead(S)                        only the a*f term
        lead(b)*(M/dL) / lead(S)                    only the b*g term

    over all signed dL in the instance lead list, plus lam = 0 (gamma = c).
    The set is a superset of what a degree analysis would keep; spurious
    candidates are discarded by the exact solver.

    The shifts come in the order of their gammas by (degree, coefficients):
    0 first, since deg c < deg S, then the rest by lam*sign(s_k), s_k the
    lowest nonzero coefficient of S, where those gammas first differ.
    """
    if inst.lead_list is None:
        raise ValueError("poly_rhs_candidates requires a Z[x] instance")
    shifts = set()
    leads = inst.lead_list
    if leads:
        l_s = inst.S.lead
        m = inst.N.lead // (inst.S.lead * inst.S.lead)
        la, lb = a.lead, b.lead
        for d_l in leads:
            if m % d_l:
                continue
            d_m = m // d_l
            nums = [la * d_l + lb * d_m]
            if a:
                nums.append(la * d_l)
            if b:
                nums.append(lb * d_m)
            for num in nums:
                if num:
                    shifts.add(num // l_s if num % l_s == 0 else Fraction(num, l_s))
    sign = 1 if next(v for v in inst.S.coeffs if v) > 0 else -1
    return [0] + sorted(shifts, key=lambda lam: lam * sign)


def _accept(x, y, inst: ProblemInstance) -> SolutionPair | None:
    """Exact verification gate shared by every solution path.

    The product identity is checked unconditionally.  In Z[x] the chain
    lives in Q[x] and r' may be a rational polynomial, so y itself is
    allowed to be rational; what must be integral are x, the divisor
    S*x + r, and the cofactor S*y + r'.
    """
    dv = inst.S * x + inst.r
    cof = inst.S * y + inst.rPrime
    if dv * cof != inst.N:
        return None
    if inst.ring.is_poly:
        if not (x.is_integral() and dv.is_integral() and cof.is_integral()):
            return None
    return SolutionPair(x, y)


# integers at which a Z[x] row discriminant D(lam) must take square values
_EVAL_POINTS = (1, -1, 2, 3)


def _row_terms(S, r, rp, N, a, b):
    """(S^2, S*r, A2, 4*A2, beta, delta) of a row (a, b, .): at any
    gamma, A1 = S^2*gamma + beta and A0 = S*r*gamma + delta."""
    s2 = S * S
    sr = S * r
    a2 = -(s2 * a)
    return s2, sr, a2, 4 * a2, S * rp * b - sr * a, b * (r * rp - N)


def _disc_coeffs(S, c, terms):
    """(E, F, G) with D(lam) = E*lam^2 + F*lam + G the discriminant at
    gamma = c + lam*S, from _row_terms."""
    s2, sr, _, a2x4, beta, delta = terms
    a1 = s2 * c + beta
    s3 = s2 * S
    return s3 * s3, 2 * (a1 * s3) - a2x4 * (S * sr), a1 * a1 - a2x4 * (sr * c + delta)


def _scaled_point(E, F, G) -> tuple[int, int, int, int]:
    """(e, f, g, L), integers with (E, F, G) = (e, f, g)/L, L > 0."""
    den = lcm(E.denominator, F.denominator, G.denominator)
    return (E.numerator * (den // E.denominator), F.numerator * (den // F.denominator),
            G.numerator * (den // G.denominator), den)


def _squares_at_points(points, lam) -> bool:
    """Whether E*lam^2 + F*lam + G is a rational square (0 included) at
    every point, given as _scaled_point(E, F, G).  With lam = n/m the value
    is (e*n^2 + f*n*m + g*m^2)/(L*m^2), a rational square exactly when
    L*(e*n^2 + f*n*m + g*m^2) is an integer square."""
    n, m = lam.numerator, lam.denominator
    for e, f, g, den in points:
        v = ((e * n + f * m) * n + g * m * m) * den
        if v < 0 or isqrt(v) ** 2 != v:
            return False
    return True


class RowSystem:
    """The row quadratic of one chain row (a, b, c) with a, b != 0.

    solve(gamma) solves at any gamma in c's class mod S, from the
    gamma-free parts of A2, A1 and A0 (module docstring), built on first
    solve.  coeffs() gives E, F and G, from which fastscan sieves its pool.
    Z and Z[x] test each shift lam before gamma = c + lam*S is built:

    - In Z, shift_root(lam) is the integer square root of D(lam) or None:
      D(lam) is the discriminant at gamma, so this is the root extraction
      itself, and solve(gamma, root) takes it as given.
    - In Z[x], square_at_points(lam) requires D(lam) to take a rational
      square value (0 included) at each integer x0 in _EVAL_POINTS.
      Evaluation at x0 is a ring homomorphism Q[x] -> Q, so D(lam)(x0) =
      E(x0)*lam^2 + F(x0)*lam + G(x0), with E(x0), F(x0) and G(x0) given by
      the same formulas on the scalars S(x0), r(x0), r'(x0), N(x0), a(x0),
      b(x0) and c(x0): no polynomial is expanded.  Over a common
      denominator L of the three, each point's test is one isqrt on
      integers (_squares_at_points).  This drops no solution: D = h^2 in
      Q[x] gives D(x0) = h(x0)^2, so a shift failing any point has no root
      for poly_sqrt to find.
    """

    def __init__(self, a, b, c, inst: ProblemInstance):
        self.a, self.b, self.c, self.inst = a, b, c, inst

    @cached_property
    def _terms(self):
        inst = self.inst
        return _row_terms(inst.S, inst.r, inst.rPrime, inst.N, self.a, self.b)

    @cached_property
    def _efg(self):
        return _disc_coeffs(self.inst.S, self.c, self._terms)

    @cached_property
    def _points(self) -> list[tuple[int, int, int, int]]:
        """_scaled_point(E(x0), F(x0), G(x0)) per x0 in _EVAL_POINTS, from
        the row's inputs evaluated at x0."""
        inst = self.inst
        polys = (inst.S, inst.r, inst.rPrime, inst.N, self.a, self.b, self.c)
        out = []
        for x0 in _EVAL_POINTS:
            S, r, rp, N, a, b, c = (p(x0) for p in polys)
            out.append(_scaled_point(*_disc_coeffs(S, c, _row_terms(S, r, rp, N, a, b))))
        return out

    def coeffs(self):
        """(E, F, G) with D(lam) = E*lam^2 + F*lam + G."""
        return self._efg

    def disc(self, gamma):
        """The discriminant A1^2 - 4*A2*A0 at gamma."""
        s2, sr, _, a2x4, beta, delta = self._terms
        a1 = s2 * gamma + beta
        return a1 * a1 - a2x4 * (sr * gamma + delta)

    def shift_root(self, lam: int) -> int | None:
        """Z: the integer square root of D(lam), or None."""
        E, F, G = self._efg
        disc = (E * lam + F) * lam + G
        if disc < 0:
            return None
        root = isqrt(disc)
        return root if root * root == disc else None

    def square_at_points(self, lam) -> bool:
        """Z[x]: D(lam) takes rational square values at _EVAL_POINTS."""
        return _squares_at_points(self._points, lam)

    def solve(self, gamma, root=None) -> list[SolutionPair]:
        """Verified solution pairs at gamma; root, when given, is the
        square root of the discriminant there."""
        inst = self.inst
        ring = inst.ring
        out: list[SolutionPair] = []
        if root is None:
            root = ring_sqrt(self.disc(gamma), ring)
            if root is None:
                return out
        s2, _, a2, _, beta, _ = self._terms
        a1 = s2 * gamma + beta
        for signed in (root, -root):
            x = exact_div(-a1 + signed, 2 * a2, ring)
            if x is None:
                continue
            y = exact_div(gamma - self.a * x, self.b, ring)
            if y is None:
                continue
            pair = _accept(x, y, inst)
            if pair and pair not in out:
                out.append(pair)
        return out


class FinalRow:
    """The final chain row (0, u*S, 0) in Z and Z[x], tested per shift on
    scalars before gamma = lam*S is built.

    The row reads u*S*y = lam*S, so y = lam/u is exact for every shift,
    and a shift carries a pair only if the cofactor S*y + r' divides N.
    passes(lam) tests that through maps to Z that respect products: in Z
    the numbers themselves, in Z[x] evaluation at each x0 in _EVAL_POINTS.
    A cofactor dividing N in Z[x] has an integer value at x0 that divides
    N(x0) (0 only when N(x0) = 0), so a shift failing any point has no
    pair for the solver to accept.
    """

    def __init__(self, b, inst: ProblemInstance):
        S, rp, N = inst.S, inst.rPrime, inst.N
        if inst.ring.is_poly:
            self.inv_u = Fraction(S.lead) / b.lead
            self.points = [(S(x0), rp(x0), N(x0)) for x0 in _EVAL_POINTS]
        else:
            self.inv_u = b // S  # u = +-1 is its own inverse
            self.points = [(S, rp, N)]

    def passes(self, lam) -> bool:
        y = lam * self.inv_u
        for s, rp, n in self.points:
            cof = s * y + rp
            if cof.denominator != 1 or (n % cof if cof else n):
                return False
        return True


def solve_system(a, b, gamma, inst: ProblemInstance, row: RowSystem | None = None,
                 root=None) -> list[SolutionPair]:
    """Solve {a*x + b*y = gamma, (S*x + r)(S*y + r') = N} exactly.

    With a, b != 0 this is the row quadratic of the module docstring,
    solved by radical with an exact square root in the ring (no solutions
    when the discriminant is not a perfect square).  row, the RowSystem of
    the chain row (a, b, c) with gamma in c's class, shares the per-row
    work between candidates, and root, when the caller already has it, is
    the discriminant's square root (RowSystem.shift_root in Z); without
    row one is built at c = gamma.  With one of a, b zero (the final row,
    the two trivial checks) it is the linear solve: gamma fixes x (resp.
    y) and so one factor, which must divide N.  Every candidate pair
    passes through the verification gate before being returned.
    """
    if a and b:
        if row is None:
            row = RowSystem(a, b, gamma, inst)
        return row.solve(gamma, root)
    ring = inst.ring
    S, r, rp, N = inst.S, inst.r, inst.rPrime, inst.N
    out: list[SolutionPair] = []
    if not a and not b:
        return out
    if not a:
        y = exact_div(gamma, b, ring)
        if y is None:
            return out
        cof = S * y + rp
        if not cof:
            return out
        dv = exact_div(N, cof, ring)
        if dv is None:
            return out
        x = exact_div(dv - r, S, ring)
    else:
        x = exact_div(gamma, a, ring)
        if x is None:
            return out
        dv = S * x + r
        if not dv:
            return out
        cof = exact_div(N, dv, ring)
        if cof is None:
            return out
        y = exact_div(cof - rp, S, ring)
    if x is None or y is None:
        return out
    pair = _accept(x, y, inst)
    return [pair] if pair else out


def trivial_divisor_check(inst: ProblemInstance) -> list[SolutionPair]:
    """The two solutions the quadratic rows cannot see: x = 0 and y = 0.

    They are the linear rows (1, 0, 0) and (0, 1, 0) at gamma = 0: x = 0
    makes the divisor r itself, y = 0 makes the cofactor r' (so the
    divisor is N/r').  y = 0 is also the final row's lam = 0 candidate; it
    is solved here as well so that its witness stays (0, j).
    """
    zero, one = ring_zero(inst.ring), ring_one(inst.ring)
    out = solve_system(one, zero, zero, inst)
    for pair in solve_system(zero, one, zero, inst):
        if pair not in out:
            out.append(pair)
    return out
