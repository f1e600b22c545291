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
quadratic rings and in Z[x]; RowSystem builds it once per row.  fastscan
sieves D(lam) for squareness modulo small primes over its lam pool, and the
Z[x] search tests each rational shift by evaluating D(lam) at a few
integers (RowSystem.solve) before any polynomial square root.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .polynomials import Coeff, Poly, _sqrt_rational
from .rings import (
    Element,
    QuadInt,
    _parity_ok,
    exact_div,
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


def _eval_points(E: Poly, F: Poly, G: Poly) -> list[tuple[Coeff, Coeff, Coeff]]:
    """(E(x0), F(x0), G(x0)) at each x0 in _EVAL_POINTS."""
    return [(E(x0), F(x0), G(x0)) for x0 in _EVAL_POINTS]


def _squares_at_points(points, lam) -> bool:
    """Whether E(x0)*lam^2 + F(x0)*lam + G(x0) is a rational square (0
    included) at every point of _eval_points."""
    return all(_sqrt_rational((e * lam + f) * lam + g) is not None
               for e, f, g in points)


class RowSystem:
    """The row quadratic of one chain row (a, b, c) with a, b != 0.

    Holds the gamma-free parts of A2, A1 and A0 (module docstring) and,
    from first use on, E, F and G.  solve(gamma) solves at any gamma in
    c's class mod S; solve(gamma, lam), for gamma = c + lam*S, takes the
    discriminant from D(lam), scalar-times-polynomial work.  In Z[x] that
    path first evaluates D(lam) at the integers _EVAL_POINTS, from E, F and
    G evaluated there once per row.  This drops no solution: D = h^2 in
    Q[x] gives D(x0) = h(x0)^2, a rational square (0 included), so a shift
    failing any point has no root for poly_sqrt to find.  roots counts the
    solves that passed these tests and reached root extraction.
    """

    def __init__(self, a, b, c, inst: ProblemInstance):
        S, r, rp = inst.S, inst.r, inst.rPrime
        self.a, self.b, self.c, self.inst = a, b, c, inst
        self.s2 = S * S
        self.sr = S * r
        self.a2 = -(self.s2 * a)
        self.a2x4 = 4 * self.a2
        self.beta = S * rp * b - self.sr * a  # A1 - S^2*gamma
        self.delta = b * (r * rp - inst.N)  # A0 - S*r*gamma
        self.roots = 0
        self._efg = None
        self._points = None

    def _a1(self, gamma):
        return self.s2 * gamma + self.beta

    def _disc(self, a1, gamma):
        return a1 * a1 - self.a2x4 * (self.sr * gamma + self.delta)

    def coeffs(self):
        """(E, F, G) with D(lam) = E*lam^2 + F*lam + G."""
        if self._efg is None:
            S, c = self.inst.S, self.c
            a1 = self._a1(c)
            s3 = self.s2 * S
            self._efg = (s3 * s3,
                         2 * (a1 * s3) - self.a2x4 * (S * self.sr),
                         self._disc(a1, c))
        return self._efg

    def disc(self, gamma, lam=None):
        """The discriminant at gamma, from D(lam) when gamma = c + lam*S."""
        if lam is None:
            return self._disc(self._a1(gamma), gamma)
        E, F, G = self.coeffs()
        return (E * lam + F) * lam + G if lam else G

    def square_at_points(self, lam) -> bool:
        """The Z[x] prefilter: D(lam) takes square values at _EVAL_POINTS."""
        if self._points is None:
            self._points = _eval_points(*self.coeffs())
        return _squares_at_points(self._points, lam)

    def solve(self, gamma, lam=None) -> list[SolutionPair]:
        """Verified solution pairs at gamma (= c + lam*S when lam is given)."""
        inst = self.inst
        ring = inst.ring
        out: list[SolutionPair] = []
        if lam is not None and ring.is_poly and not self.square_at_points(lam):
            return out
        self.roots += 1
        root = ring_sqrt(self.disc(gamma, lam), ring)
        if root is None:
            return out
        a1 = self._a1(gamma)
        for signed in (root, -root):
            x = exact_div(-a1 + signed, 2 * self.a2, ring)
            if x is None:
                continue
            y = exact_div(gamma - self.a * x, self.b, ring)
            if y is None:
                continue
            pair = _accept(x, y, inst)
            if pair and pair not in out:
                out.append(pair)
        return out


def solve_system(a, b, gamma, inst: ProblemInstance, row: RowSystem | None = None,
                 lam=None) -> list[SolutionPair]:
    """Solve {a*x + b*y = gamma, (S*x + r)(S*y + r') = N} exactly.

    With a, b != 0 this is the row quadratic of the module docstring,
    solved by radical with an exact square root in the ring (no solutions
    when the discriminant is not a perfect square).  row, the RowSystem of
    the chain row (a, b, c) with gamma in c's class, shares the per-row
    work between candidates, and lam, given when gamma = c + lam*S, lets
    it use D(lam); without row one is built at c = gamma.  Degenerate rows
    fall back to the obvious linear solve.  Every candidate pair passes
    through the verification gate before being returned.
    """
    if a and b:
        if row is None:
            row = RowSystem(a, b, gamma, inst)
        return row.solve(gamma, lam)
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
    """The two solutions the sweep cannot see: x = 0 and y = 0.

    x = 0 means the divisor is r itself; y = 0 means the cofactor is r'
    (so the divisor is N/r').  Both are checked by exact division and run
    through the same acceptance gate as everything else.
    """
    ring = inst.ring
    S, r, rp, N = inst.S, inst.r, inst.rPrime, inst.N
    out: list[SolutionPair] = []

    zero = ring_zero(ring)
    cof0 = exact_div(N, r, ring)
    if cof0 is not None:
        y0 = exact_div(cof0 - rp, S, ring)
        if y0 is not None:
            pair = _accept(zero, y0, inst)
            if pair:
                out.append(pair)

    if rp:
        dv1 = exact_div(N, rp, ring)
        if dv1 is not None:
            x1 = exact_div(dv1 - r, S, ring)
            if x1 is not None:
                pair = _accept(x1, zero, inst)
                if pair and pair not in out:
                    out.append(pair)
    return out
