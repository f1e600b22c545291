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
over its lam pool.

Seven products in these formulas depend on the instance alone: S^2, S*r,
S*r', r*r' - N, S^3, E = S^6 and S*(S*r).  A search forms them once
(InstanceTerms, held as ProblemInstance.terms while it runs), so a row
forms only the products with a, b or c in them (_row_terms,
_disc_coeffs), and its solves read the same terms.  That is one formula
in every ring: the Z and Z[x] shift tests apply it to integer images
(RowSystem), and fastscan.sieve_rows to the images of S, r, r', N and
every row in F_p, as int64 arrays, so no search forms the exact E, F
and G.

Shift tests in Z and Z[x].  There a row's shifts are integers n over the
row's denominator m (lam = n/m; m = 1 in Z, shift_denominator), and each
is tested on the row's scalar images before gamma is built: the numbers
themselves in Z, the values at a few integers x0 in Z[x], where every
input of the row is evaluated and no polynomial is expanded.  The tests
run on integers alone: a Z[x] value is a Horner sum of numerators over
the polynomial's denominator, and each row brings its values over one
denominator L, which it folds into the integers it tests.  On a
quadratic row (RowSystem) D(n/m) must be a rational square at every
image, one isqrt each; a shift that passes is solved at gamma, which
takes its discriminant A1^2 - 4*A2*A0 from gamma and its root from the
ring.

The final row.  Rows 1..t-1 of the chain have a, b != 0; row t is
(0, u*S, 0) with u a unit (build_chain proves and checks this).  There
y = gamma/(u*S) = lam/u is exact at every shift, and the pair exists only
if the cofactor S*y + r' divides N.  Each ring tests that through a map
to Z that respects products: normsq over the pool in fastscan, the images
in Z and Z[x] (FinalRow).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .polynomials import Poly
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
    (lam^2, lam) order (0, -1, 1, -2, 2, ...), i.e. the real points of the
    Gaussian pool of the same radius (fastscan._Pool) in the pool's
    order."""
    return [0] + [lam for k in range(1, rbound + 3) for lam in (-k, k)]


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


def _lead(p: Poly) -> tuple[int, int]:
    """lead(p) in lowest terms, as (numerator, denominator); (0, 1) for the
    zero polynomial."""
    if not p.nums:
        return 0, 1
    g = gcd(p.nums[-1], p.den)
    return p.nums[-1] // g, p.den // g


def shift_denominator(a, b, inst: ProblemInstance) -> int:
    """The denominator m of the Z or Z[x] chain row (a, b, .): every shift
    of the row is lam = n/m for an integer n.  m is 1 in Z and
    lead(S)*lcm(den lead(a), den lead(b)) in Z[x] (see
    poly_rhs_candidates); it is negative when lead(S) is."""
    if not inst.ring.is_poly:
        return 1
    return inst.S.nums[-1] * lcm(_lead(a)[1], _lead(b)[1])


def poly_rhs_candidates(a: Poly, b: Poly, inst: ProblemInstance) -> list[int]:
    """Candidate shifts lam = n/m for one Z[x] chain row (a, b, c), as the
    integers n over m = shift_denominator(a, b, inst): gamma = c + lam*S.

    gamma = a*f + b*g mod S for a solution pair forces the coefficient of
    x^(deg S) in gamma to be lead(a*f + b*g)/lead(S) whenever that product
    reaches degree deg S.  Writing dL for a divisor of M = lead(N)/lead(S)^2
    (the leading coefficient of f; the cofactor side then has
    lead g = M/dL), the possible shifts above the reduced c are:

        (lead(a)*dL + lead(b)*(M/dL)) / lead(S)     both terms at top degree
        lead(a)*dL / lead(S)                        only the a*f term
        lead(b)*(M/dL) / lead(S)                    only the b*g term

    over all signed dL in the instance lead list, plus lam = 0 (gamma = c).
    With m = lead(S)*k, k the lcm of the denominators of lead(a) and
    lead(b), each is n/m with n the same sum over lead(a)*k and lead(b)*k,
    both integers.  The set is a superset of what a degree analysis would
    keep; spurious candidates are discarded by the exact solver.

    The shifts come in the order of their gammas by (degree, coefficients):
    0 first, since deg c < deg S, then the rest by lam*sign(s_k), s_k the
    lowest nonzero coefficient of S, where those gammas first differ; that
    is the order of n*sign(s_k)*sign(m).
    """
    if inst.lead_list is None:
        raise ValueError("poly_rhs_candidates requires a Z[x] instance")
    S = inst.S
    s_l = S.nums[-1]
    m = shift_denominator(a, b, inst)
    k = m // s_l
    (a_num, a_den), (b_num, b_den) = _lead(a), _lead(b)
    la, lb = a_num * (k // a_den), b_num * (k // b_den)
    q = inst.N.nums[-1] // (s_l * s_l)
    shifts = set()
    for d_l in inst.lead_list:
        if q % d_l == 0:
            n_a, n_b = la * d_l, lb * (q // d_l)
            shifts.update((n_a + n_b, n_a, n_b))
    shifts.discard(0)
    s_k = next(v for v in S.nums if v)
    return [0] + sorted(shifts, reverse=(s_k > 0) != (m > 0))


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


# integers at which Z[x] rows are tested, by evaluation there
_EVAL_POINTS = (1, -1, 2, 3)


def _horner(p: Poly, x0: int) -> int:
    """den(p)*p(x0) at an integer x0: Horner's rule on the numerators."""
    acc = 0
    for v in reversed(p.nums):
        acc = acc * x0 + v
    return acc


def _instance_terms(S, r, rp, N):
    """(S^2, S*r, S*r', r*r' - N, S^3, S^6, S*(S*r)): the products of the
    row quadratic that depend on the instance alone."""
    s2 = S * S
    sr = S * r
    s3 = s2 * S
    return s2, sr, S * rp, r * rp - N, s3, s3 * s3, S * sr


def _row_terms(terms, a, b):
    """(S^2, S*r, A2, 4*A2, beta, delta) of a row (a, b, .) from the
    instance's _instance_terms: at any gamma, A1 = S^2*gamma + beta and
    A0 = S*r*gamma + delta."""
    s2, sr, srp, rrp_n, _, _, _ = terms
    a2 = -(s2 * a)
    return s2, sr, a2, 4 * a2, srp * b - sr * a, b * rrp_n


def _disc_coeffs(c, terms, row):
    """(E, F, G) with D(lam) = E*lam^2 + F*lam + G the discriminant at
    gamma = c + lam*S, from _instance_terms and _row_terms."""
    _, _, _, _, s3, e, ssr = terms
    s2, sr, _, a2x4, beta, delta = row
    a1 = s2 * c + beta
    return e, 2 * (a1 * s3) - a2x4 * ssr, a1 * a1 - a2x4 * (sr * c + delta)


class InstanceTerms:
    """An instance's share of every row quadratic (ProblemInstance.terms).

    ring is _instance_terms(S, r, r', N) in the instance's ring.  images
    holds the same products on each scalar image of the instance
    (RowSystem): ring itself in Z; in Z[x], per x0 in _EVAL_POINTS, those
    of the values at x0 of S, r and r' times scale, the lcm of their and
    N's denominators, and of N times scale^2, all integers.  scale is 1
    outside Z[x].
    """

    def __init__(self, inst: ProblemInstance):
        xs = (inst.S, inst.r, inst.rPrime, inst.N)
        self.ring = _instance_terms(*xs)
        self.scale, self.images = 1, [self.ring]
        if inst.ring.is_poly:
            L = self.scale = lcm(*(p.den for p in xs))
            scale = [L // p.den for p in xs]
            scale[3] *= L  # N, of degree 2
            self.images = [_instance_terms(*(_horner(p, x0) * w for p, w in zip(xs, scale)))
                           for x0 in _EVAL_POINTS]


class _ShiftRow:
    """A chain row (a, b, c) whose Z and Z[x] shifts are tested on scalars
    before gamma is built.

    A shift is an integer n with lam = n/m, m = shift_denominator(a, b,
    inst).  keep(shifts), defined by RowSystem and FinalRow, is the test:
    it returns the shifts that pass on every scalar image of the row, in
    order, and gammas(shifts) builds gamma = c + (n/m)*S for those alone
    (n*S when m = 1, so Z stays in the integers).  The images are the
    numbers themselves in Z and the values at each x0 in _EVAL_POINTS in
    Z[x].  Each is a map to Q that respects sums and products, so a
    relation that holds for a solution pair in the ring holds at every
    image, and a shift failing any image carries no pair for the solver
    to accept.  The images are taken in integers: p = nums/den has the
    value _horner(p, x0)/den at x0, and each test brings its inputs over
    one denominator per row, so keep() builds no Fraction.
    """

    def __init__(self, a, b, c, inst: ProblemInstance):
        self.a, self.b, self.c, self.inst = a, b, c, inst
        self.m = shift_denominator(a, b, inst)

    def gammas(self, shifts: list[int]) -> list:
        S, c, m = self.inst.S, self.c, self.m
        return [c + (n if m == 1 else Fraction(n, m)) * S if n else c
                for n in self.keep(shifts)]


class RowSystem(_ShiftRow):
    """The row quadratic of one chain row (a, b, c) with a, b != 0.

    solve(gamma) solves at any gamma in c's class mod S, from the
    gamma-free parts of A2, A1 and A0 (module docstring), built on first
    use from the instance's terms, so only for a row with candidates.

    In Z and Z[x], keep(shifts) requires D(n/m) to be a rational square (0
    included) at every image.  On an image the row's inputs are scalars,
    and E, F and G come from the same formulas on them, so no polynomial
    is expanded.  There the instance's S, r and r' are taken times l0 and
    N times l0^2 (InstanceTerms.scale and .images, formed once per
    search), and the row's a, b and c times L, the lcm of their
    denominators (l0 = L = 1 in Z), all integers.  E, F and G are
    homogeneous of degrees 6, 5 and 4 in the instance's inputs (N counting
    twice) and 0, 1 and 2 in the row's, so the formulas give integers
    l0^6*E, l0^5*L*F and l0^4*L^2*G, and times L^2, l0*L and l0^2
    (e, f, g) = w*(E, F, G) with w = (l0^3*L)^2.  With k = gcd(w, e, f, g),
    den = w/k is the least common denominator of E, F and G, and D(n/m) is
    a rational square exactly when (e'*n + f')*n + g' = den^2*m^2*D(n/m)
    is an integer square, with (e', f', g') = (e/k*den, f/k*den*m,
    g/k*den*m^2) folded once per row: one isqrt per image.  In Z that is
    (E*n + F)*n + G itself.  D = h^2 in the ring gives D(x0) = h(x0)^2 at
    every image, so a rejected shift has no root for the solver to find.
    """

    @cached_property
    def _terms(self):
        return _row_terms(self.inst.terms.ring, self.a, self.b)

    @cached_property
    def _folded(self) -> list[tuple[int, int, int]]:
        """(e', f', g') per image (class docstring)."""
        inst, m = self.inst, self.m
        terms = inst.terms
        xs = (self.a, self.b, self.c)
        if inst.ring.is_poly:
            L = lcm(*(p.den for p in xs))
            rows = [[_horner(p, x0) * (L // p.den) for p in xs] for x0 in _EVAL_POINTS]
        else:
            L, rows = 1, [xs]
        l0 = terms.scale
        w = (l0**3 * L) ** 2
        out = []
        for t, (a, b, c) in zip(terms.images, rows):
            e, f, g = _disc_coeffs(c, t, _row_terms(t, a, b))
            e, f, g = e * L * L, f * l0 * L, g * l0 * l0
            k = gcd(w, e, f, g)
            den = w // k
            out.append((e // k * den, f // k * den * m, g // k * den * m * m))
        return out

    def disc(self, gamma):
        """The discriminant A1^2 - 4*A2*A0 at gamma."""
        s2, sr, _, a2x4, beta, delta = self._terms
        a1 = s2 * gamma + beta
        return a1 * a1 - a2x4 * (sr * gamma + delta)

    def keep(self, shifts: list[int]) -> list[int]:
        images = self._folded
        out = []
        for n in shifts:
            for e, f, g in images:
                v = (e * n + f) * n + g
                if v < 0 or isqrt(v) ** 2 != v:
                    break
            else:
                out.append(n)
        return out

    def solve(self, gamma) -> list[SolutionPair]:
        """Verified solution pairs at gamma."""
        inst = self.inst
        ring = inst.ring
        out: list[SolutionPair] = []
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


class FinalRow(_ShiftRow):
    """The final chain row (0, u*S, 0) in Z and Z[x].

    The row reads u*S*y = lam*S, so y = lam/u = n*p/q, p/q = 1/(u*m), is
    exact for every shift, and a shift carries a pair only if the cofactor
    S*y + r' divides N.  keep(shifts) tests that on every image: there the
    cofactor must be an integer dividing N's image (0 only when that image
    is 0).  In Z, u = b/S = +-1 is its own inverse and m = 1, so p/q = u/1;
    in Z[x], u = lead(b)/lead(S), so p = lead(S)*den(b) and q =
    lead(nums(b))*m.  With r' = R/L at the image (L = den(r'), 1 in Z),
    the cofactor is (S*p*L*n + R*q)/(q*L): one divisibility test and one
    N % cof per image, from the integers (S*p*L, R*q, q*L, N) fixed per
    row.
    """

    def __init__(self, a, b, c, inst: ProblemInstance):
        super().__init__(a, b, c, inst)
        S, rp, N = inst.S, inst.rPrime, inst.N
        if inst.ring.is_poly:
            p, q, L = S.nums[-1] * b.den, b.nums[-1] * self.m, rp.den
            images = [(_horner(S, x0), _horner(rp, x0), _horner(N, x0)) for x0 in _EVAL_POINTS]
        else:
            p, q, L = b // S, 1, 1
            images = [(S, rp, N)]
        self.images = [(s_x * p * L, r_x * q, q * L, n_x) for s_x, r_x, n_x in images]

    def keep(self, shifts: list[int]) -> list[int]:
        out = []
        for n in shifts:
            for k, k0, d, N in self.images:
                num = k * n + k0
                if num % d:
                    break
                cof = num // d
                if N % cof if cof else N:
                    break
            else:
                out.append(n)
        return out


def solve_system(a, b, gamma, inst: ProblemInstance,
                 row: RowSystem | None = None) -> list[SolutionPair]:
    """Solve {a*x + b*y = gamma, (S*x + r)(S*y + r') = N} exactly.

    With a, b != 0 this is the row quadratic of the module docstring,
    solved by radical with an exact square root in the ring (no solutions
    when the discriminant is not a perfect square).  row, the RowSystem of
    the chain row (a, b, c) with gamma in c's class, shares the per-row
    work between candidates; without it one is built at c = gamma.  With
    one of a, b zero (the final row, the two trivial checks) it is the
    linear solve: gamma fixes x (resp. y) and so one factor, which must
    divide N.  Every candidate pair passes through the verification gate
    before being returned.
    """
    if a and b:
        if row is None:
            row = RowSystem(a, b, gamma, inst)
        return row.solve(gamma)
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
