"""Independent weight-multiplicity oracle for the symmetric Kac-Moody algebra
attached to a loop-free quiver.

Finite type is Sylvester's criterion on integer minors.  Positive roots come
from exact reflection enumeration in finite type and otherwise from
Peterson's recursion on scaled integer coefficients up to a height cutoff,
which sums once over each unordered pair whose coefficients it has already
found nonzero; a single multiplicity at the drop v builds only the roots in
the box of v, all that Freudenthal at v reads.  In finite type the simple
roots are closed under the raising reflections only, s_i where the pairing
with alpha_i is negative, which reach every positive root and no negative
one.  Weight multiplicities of the integrable highest-weight module come
from Freudenthal's formula on dominant weights only: multiplicities are
invariant under the Weyl group, so each drop is reduced to the dominant
drop of its orbit, and the dominant drops a query needs are evaluated from a
worklist in order of height, with no recursion.

The Cartan matrix is walked as sparse rows, the (column, entry) pairs with a
nonzero entry; it is symmetric, so a row is also a column.  The finite
closure, the coroot values of a drop and each Weyl reflection touch only
those entries.  The coroot values of a query stop at the first vertex i
where c_i + drop_i < 0: s_i then takes the weight out of the cone below the
highest weight, so its multiplicity is 0 and no reflection is walked.  The
dominant reduction then refuses, before any reflection, a weight mu longer
than the highest weight lambda, which no integrable L(lambda) has (Kac,
Sec. 11.4): |lambda|^2 - |mu|^2 = sum_i drop_i (w_i + c_i) is one dot
product with the coroot values c already at hand.  A session also tabulates
once, per positive root, the pairings and norms that Freudenthal's sum reads
at every dominant drop.

Conventions: simple roots are coordinate vectors, the bilinear form is the
Cartan matrix itself, and the Weyl functional pairs to 1 against every
simple root.  All arithmetic is exact, and all of it on ints.

Sessions own their memo tables; share a session across threads only with
external locking (one session per thread is the supported pattern).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import add, le, mul, sub

from .errors import CutoffError, DomainError, InternalCheckError, InvalidCartanError
from .quiver import DimVector, Quiver, cartan_matrix, check_vertices, chi

GCM = tuple[tuple[int, ...], ...]
Coeffs = tuple[int, ...]
Rows = tuple[tuple[tuple[int, int], ...], ...]


def validate_gcm(gcm: GCM) -> None:
    try:
        n = len(gcm)
        square = all(len(row) == n for row in gcm)
    except TypeError:
        kind = type(gcm).__name__
        raise InvalidCartanError(f"Cartan matrix of type {kind} is not a sequence of rows") from None
    if not square:
        raise InvalidCartanError("Cartan matrix is not square")
    for row in gcm:
        for g in row:
            if not isinstance(g, int) or isinstance(g, bool):
                raise InvalidCartanError(f"Cartan entry {g!r} is not an integer")
    for i in range(n):
        if gcm[i][i] != 2:
            raise InvalidCartanError(f"diagonal entry {gcm[i][i]} at {i}; expected 2 (no edge loops)")
        for j in range(n):
            if i != j and gcm[i][j] > 0:
                raise InvalidCartanError("positive off-diagonal entry")
            if gcm[i][j] != gcm[j][i]:
                raise InvalidCartanError("Cartan matrix is not symmetric")


def is_finite_type(gcm: GCM) -> bool:
    """Positive definiteness by Sylvester's criterion: every leading
    principal minor is positive.  Bareiss's fraction-free elimination (Math.
    Comp. 22, 1968) computes them in integers: the pivot of step k is the
    minor of order k + 1, and each division, by the previous pivot, is
    exact.  It stops at the first pivot that is not positive."""
    n = len(gcm)
    work = [list(row) for row in gcm]
    previous = 1
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return False
        pivot_row = work[k]
        for row in work[k + 1 :]:
            lead = row[k]
            for c in range(k + 1, n):
                row[c] = (pivot * row[c] - lead * pivot_row[c]) // previous
        previous = pivot
    return True


def _sparse_rows(gcm: GCM) -> Rows:
    """Each row of the GCM as its (column, entry) pairs with the entry
    nonzero.  The GCM is symmetric, so row i is also column i."""
    return tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in gcm)


def _pairings(rows: Rows, a: Coeffs) -> Coeffs:
    """The pairings (a, alpha_i) with every simple root."""
    return tuple(sum(g * a[j] for j, g in row) for row in rows)


def _finite_positive_roots(gcm: GCM) -> list[tuple[Coeffs, int]]:
    """All positive roots of a finite-type symmetric GCM; every multiplicity
    is 1.  A positive root beta that is not simple pairs positively with some
    simple root alpha_i, and s_i beta is then a positive root of lower height
    that pairs negatively with alpha_i.  So closing the simple roots under the
    raising reflections, s_i where the pairing with alpha_i is negative,
    reaches every positive root and nothing else."""
    rows = _sparse_rows(gcm)
    n = len(gcm)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen: set[Coeffs] = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i, row in enumerate(rows):
            pairing = sum(g * beta[j] for j, g in row)
            if pairing >= 0:
                continue
            gamma = beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]
            if gamma not in seen:
                seen.add(gamma)
                frontier.append(gamma)
    return [(b, 1) for b in sorted(seen, key=lambda b: (sum(b), b))]


def _peterson_roots(gcm: GCM, cutoff: int, box: Coeffs | None = None) -> list[tuple[Coeffs, int]]:
    """Root multiplicities up to the height cutoff by Peterson's recursion
    (Kac, *Infinite-dimensional Lie algebras*, Ex. 11.11) on the coefficients
    c_beta = sum over divisors k of mult(beta/k)/k:
    ((beta, beta) - 2 ht(beta)) c_beta = sum over gamma + delta = beta of
    (gamma, delta) c_gamma c_delta.  Each height sums over the unordered pairs
    from the support (the beta found with c_beta != 0) at heights l <= h - l,
    weight 2 off the diagonal, keyed by gamma + delta, and only those keys get
    a c.  That is complete: c_beta != 0 needs a nonzero sum, which has such a
    pair, or a nonzero divisor part, and then beta = k gamma = gamma + (k - 1)
    gamma with c_gamma >= mult(gamma) > 0 and c_{(k-1) gamma} >=
    mult(gamma)/(k - 1) > 0.  With a box, a sum outside it gets no key: both
    parts of a pair summing to beta, and beta/k, are <= beta, so that loses
    nothing inside the box; without one, every coordinate is boxed by the
    cutoff.

    Everything is an int.  With m the largest box entry and L = lcm(1, ...,
    m), C_beta = L c_beta is an integer once the multiplicities below beta
    are, as the denominator of c_beta divides gcd(beta) <= m; one that is not
    is refused.  A key packs a vector into fields with a guard bit above m,
    the first most significant (int order is tuple order), so gamma + delta
    is key + key, beta/k is key // k, and gamma + delta is in the box when
    (box + guards) - gamma - delta keeps every guard bit.  By polarization,
    2 (gamma, delta) = N(beta) - N(gamma) - N(delta) with N the norm, so a
    pair adds C_gamma C_delta to S0 and that times N(gamma) + N(delta) to S1,
    and L^2 times the sum at beta is (N(beta) S0 - S1)/2."""
    rows = _sparse_rows(gcm)
    n = len(gcm)
    if box is None:
        box = (cutoff,) * n
    top = max(box, default=0)
    scale = lcm(*range(1, top + 1))
    width = top.bit_length() + 1
    shifts = [width * (n - 1 - i) for i in range(n)]
    guards = sum(1 << (shift + width - 1) for shift in shifts)
    ceiling = guards + sum(b << shift for b, shift in zip(box, shifts))
    mask = (1 << width) - 1
    simple = sorted(1 << shift for b, shift in zip(box, shifts) if b)
    mult = dict.fromkeys(simple, 1)  # in (height, key) order
    # support[h]: (key of beta, C_beta, N(beta)) at height h with c_beta != 0
    support = [[], [(key, scale, 2) for key in simple]]
    for height in range(2, cutoff + 1):
        # sums[key]: [S0, S1] over the pairs summing to the key
        sums: dict[int, list[int]] = {}
        for low in range(1, height // 2 + 1):
            for a, (gamma, c_gamma, n_gamma) in enumerate(support[low]):
                room = ceiling - gamma
                partners = support[height - low]
                if 2 * low == height:
                    partners = partners[a + 1 :]
                    if (room - gamma) & guards == guards:  # the diagonal pair, weight 1
                        entry = sums.setdefault(2 * gamma, [0, 0])
                        entry[0] += c_gamma * c_gamma
                        entry[1] += 2 * n_gamma * c_gamma * c_gamma
                twice = 2 * c_gamma
                for delta, c_delta, n_delta in partners:
                    if (room - delta) & guards == guards:
                        beta = gamma + delta
                        p = twice * c_delta
                        entry = sums.get(beta)
                        if entry:
                            entry[0] += p
                            entry[1] += (n_gamma + n_delta) * p
                        else:
                            sums[beta] = [p, (n_gamma + n_delta) * p]
        found = []
        for key in sorted(sums):
            s0, s1 = sums[key]
            beta = tuple((key >> shift) & mask for shift in shifts)
            norm = sum(b * sum(g * beta[j] for j, g in row) for b, row in zip(beta, rows))
            divisor_part = 0  # L times the divisor part
            common = gcd(*beta)
            for k in range(2, common + 1):
                if common % k == 0:
                    divisor_part += mult.get(key // k, 0) * (scale // k)
            denominator = norm - 2 * height
            if denominator:
                c_beta, rest = divmod((norm * s0 - s1) // 2, scale * denominator)
            elif norm * s0 != s1:
                raise InternalCheckError("Peterson recursion hit a zero pivot with nonzero sum")
            else:
                # (beta, beta) = 2 ht(beta) >= 4 exceeds the norm of every
                # root, so mult(beta) = 0 and c_beta is its divisor part alone
                c_beta, rest = divisor_part, 0
            m, remainder = divmod(c_beta - divisor_part, scale)
            if rest or remainder or m < 0:
                raise InternalCheckError(f"non-integral root multiplicity at {beta}")
            if c_beta:
                found.append((key, c_beta, norm))
            if m:
                mult[key] = m
        support.append(found)
    return [(tuple((key >> shift) & mask for shift in shifts), m) for key, m in mult.items()]


@dataclass(frozen=True)
class RootSystemData:
    """Symmetric GCM with its positive roots and multiplicities.

    ``cutoff`` is None for finite type, where the list is complete; otherwise
    roots are known up to that height and deeper queries must fail loudly.
    """

    gcm: GCM
    positive_roots: tuple[tuple[Coeffs, int], ...]
    finite: bool
    cutoff: int | None

    @property
    def rank(self) -> int:
        return len(self.gcm)


def root_multiplicities(gcm: GCM, cutoff: int = 1) -> RootSystemData:
    return _root_system(gcm, cutoff)


def _root_system(gcm: GCM, cutoff: int, box: Coeffs | None = None) -> RootSystemData:
    """Outside finite type, with a box, only the roots in it: such data answers
    only drops in the box, so it is never handed to a caller."""
    validate_gcm(gcm)
    if not isinstance(cutoff, int) or isinstance(cutoff, bool):
        raise DomainError(f"height cutoff {cutoff!r} is not an integer")
    if cutoff < 1:
        raise DomainError("height cutoff must be at least 1")
    if is_finite_type(gcm):
        return RootSystemData(gcm, tuple(_finite_positive_roots(gcm)), True, None)
    return RootSystemData(gcm, tuple(_peterson_roots(gcm, cutoff, box)), False, cutoff)


class MultiplicitySession:
    """Freudenthal's formula with a per-session memo keyed by dominant drops.

    Multiplicities are invariant under the Weyl group, so every drop is first
    reduced to the dominant drop of its orbit, and only dominant drops are
    memoised.  A query collects the dominant drops it needs on a worklist and
    evaluates them in order of height, lowest first; every term of
    Freudenthal's sum reduces to a strictly lower dominant drop, so each one
    is evaluated after everything it depends on, with no recursion.

    Two constant tables are built once per session: the sparse Cartan rows,
    which every coroot update walks, and for each positive root alpha the
    tuple (alpha, mult, pairings of alpha with the simple roots, (alpha,
    alpha), (highest, alpha)) that Freudenthal's sum reads at every drop.
    """

    def __init__(self, roots: RootSystemData, highest: Coeffs):
        if not isinstance(roots, RootSystemData):
            raise DomainError(f"expected a RootSystemData, got {type(roots).__name__}")
        try:
            rank = len(highest)
        except TypeError:
            raise DomainError(f"highest weight of type {type(highest).__name__} is not a sequence") from None
        if rank != roots.rank:
            raise DomainError("highest weight has the wrong rank")
        for h in highest:
            if not isinstance(h, int) or isinstance(h, bool) or h < 0:
                raise DomainError(f"highest weight entry {h!r} is not a nonnegative integer")
        self.roots = roots
        self.highest = highest
        self._rows = _sparse_rows(roots.gcm)
        table = []
        for alpha, alpha_mult in roots.positive_roots:
            alpha_pair = _pairings(self._rows, alpha)
            norm = sum(a * p for a, p in zip(alpha, alpha_pair))
            highest_alpha = sum(a * h for a, h in zip(alpha, highest))
            table.append((alpha, alpha_mult, alpha_pair, norm, highest_alpha))
        self._root_table = tuple(table)
        self._memo: dict[Coeffs, int] = {(0,) * roots.rank: 1}

    def multiplicity(self, drop: Coeffs) -> int:
        """The multiplicity of the weight highest - drop, where drop holds
        the coefficients of the simple roots.

        Raises ``DomainError`` for a drop that has no length, of the wrong
        rank or with an entry that is not an int (a bool included), returns
        0 for a drop with a negative entry, and outside finite type raises
        ``CutoffError`` for a drop above the root cutoff, in that order.  A weight with c_i +
        drop_i < 0 at some vertex i, c_i its value on the coroot i, has
        multiplicity 0: s_i maps it to a drop with a negative entry, which
        is not below the highest weight, and multiplicities are invariant
        under the Weyl group (Kac, Prop. 3.7).  The coroot values stop at
        the first such i, before any reflection is walked.  A weight longer
        than the highest weight has multiplicity 0 as well, and
        ``_dominant`` refuses it before its first reflection."""
        try:
            rank = len(drop)
        except TypeError:
            raise DomainError(f"weight drop of type {type(drop).__name__} is not a sequence") from None
        if rank != len(self.highest):
            raise DomainError("weight drop has the wrong rank")
        negative = False
        for d in drop:
            if type(d) is not int:
                raise DomainError(f"weight drop entry {d!r} is not an integer")
            if d < 0:
                negative = True
        if negative:
            return 0
        if not self.roots.finite and sum(drop) > self.roots.cutoff:
            raise CutoffError(
                f"weight at height {sum(drop)} exceeds the root cutoff {self.roots.cutoff}; "
                "rebuild the root system with a larger cutoff"
            )
        values = self._coroot_values(drop)
        if values is None:
            return 0
        target = self._dominant(drop, values)
        if target is None:
            return 0
        known = self._memo.get(target)
        if known is not None:
            return known
        pending: dict[Coeffs, dict[Coeffs, int]] = {}
        worklist = [target]
        while worklist:
            needed = worklist.pop()
            if needed not in self._memo and needed not in pending:
                pending[needed] = self._freudenthal_terms(needed)
                worklist.extend(pending[needed])
        for needed in sorted(pending, key=sum):
            self._memo[needed] = self._evaluate(needed, pending[needed])
        return self._memo[target]

    def _coroot_values(self, drop: Coeffs) -> list[int] | None:
        """c_i = w_i - (C drop)_i, the value of the weight on the coroot i,
        one vertex at a time; None at the first i with c_i + drop_i < 0,
        where s_i takes the weight out of the cone."""
        values = []
        for h, d, row in zip(self.highest, drop, self._rows):
            for j, g in row:
                h -= g * drop[j]
            if h + d < 0:
                return None
            values.append(h)
        return values

    def _dominant(self, drop: Coeffs, values: list[int]) -> Coeffs | None:
        """The dominant drop in the Weyl orbit of the weight, or None when a
        simple reflection takes the weight out of the cone below the highest
        weight (multiplicity 0).  Each reflection lowers the height, so the
        loop ends.  ``values`` holds the coroot values of ``drop`` and is
        updated in place; a reflection at i changes only the values on the
        columns of row i.  The order of the reflections changes neither the
        dominant drop nor the None verdict, so the least value picks one.

        Before the loop, a weight mu longer than the highest weight lambda is
        refused: with w the highest weight and c the coroot values, the sum
        over i of drop_i (w_i + c_i) is |lambda|^2 - |mu|^2 in the Cartan
        form.  No reflection changes it, and at a dominant drop, where the
        loop could stop, every factor is nonnegative; so when it is negative
        the loop ends in None, for every symmetric GCM.  In the E6 adjoint
        box, 2,755 of the 2,864 reductions end there, and the reflections
        walked fall from 10,315 to 996."""
        if sum(map(mul, drop, map(add, self.highest, values))) < 0:
            return None
        rows = self._rows
        reduced = list(drop)
        while values and (c := min(values)) < 0:
            i = values.index(c)
            reduced[i] += c
            if reduced[i] < 0:
                return None
            for j, g in rows[i]:
                values[j] -= g * c
        return tuple(reduced)

    def _freudenthal_terms(self, drop: Coeffs) -> dict[Coeffs, int]:
        """Freudenthal's sum at a dominant drop as {dominant drop: coefficient};
        a term whose weight reflects out of the cone below the highest weight
        has multiplicity 0 and is left out."""
        values = self._coroot_values(drop)
        if values is None:
            raise InternalCheckError(f"dominant drop {drop} leaves the cone")
        terms: dict[Coeffs, int] = {}
        for alpha, alpha_mult, alpha_pair, norm, highest_alpha in self._root_table:
            if not all(map(le, alpha, drop)):
                continue
            # at drop - k alpha: mult(alpha) ((highest, alpha) - (drop, alpha) + k (alpha, alpha))
            coefficient = alpha_mult * (highest_alpha - sum(map(mul, drop, alpha_pair)))
            shifted, shifted_values = drop, values
            while True:
                shifted = tuple(map(sub, shifted, alpha))
                if min(shifted) < 0:
                    break
                shifted_values = list(map(add, shifted_values, alpha_pair))
                coefficient += alpha_mult * norm
                key = self._dominant(shifted, shifted_values.copy())
                if key is not None:
                    terms[key] = terms.get(key, 0) + coefficient
        return terms

    def _evaluate(self, drop: Coeffs, terms: dict[Coeffs, int]) -> int:
        # (highest + rho)^2 - (weight + rho)^2, positive at every dominant drop
        norm = sum(d * p for d, p in zip(drop, _pairings(self._rows, drop)))
        denominator = 2 * sum(d * (h + 1) for d, h in zip(drop, self.highest)) - norm
        if denominator <= 0:
            raise InternalCheckError(f"nonpositive Freudenthal denominator at {drop}")
        total = sum(coefficient * self._memo[key] for key, coefficient in terms.items())
        value, remainder = divmod(2 * total, denominator)
        if remainder or value < 0:
            raise InternalCheckError(f"non-integral weight multiplicity at {drop}")
        return value


def roots_for_quiver(q: Quiver, height: int) -> RootSystemData:
    return _root_system(_quiver_gcm(q), max(1, height))


def _quiver_gcm(q: Quiver) -> GCM:
    if q.has_edge_loops:
        raise InvalidCartanError("quiver has edge loops; no Kac-Moody algebra attached here")
    return cartan_matrix(q)


def h_eigenvalue(q: Quiver, v: DimVector, w: DimVector, i: str) -> int:
    """w_i minus the Cartan pairing with v; agrees with the Euler
    characteristic of the complex against the simple at i (checked)."""
    check_vertices(q.vertices, v, w)
    gcm = cartan_matrix(q)
    idx = q.index(i)
    value = w[i] - sum(gcm[idx][j] * v.values[j] for j in range(len(q.vertices)))
    via_chi = chi(q, DimVector.unit(q, i), DimVector.zero(q), v, w)
    if value != via_chi:
        raise InternalCheckError("H eigenvalue disagrees with the complex Euler characteristic")
    return value


def predicted_component_count(q: Quiver, v: DimVector, w: DimVector) -> int:
    """What the top-homology geometry would produce: the weight multiplicity
    at the drop v below the highest weight w.  Freudenthal at v only uses
    roots below v, so the root height cutoff is the height of v, and only the
    roots in the box of v are built."""
    return weight_multiplicity(q, v, w)[0]


def weight_multiplicity(q: Quiver, v: DimVector, w: DimVector) -> tuple[int, int | None]:
    """The multiplicity at the drop v below the highest weight w, and the root
    height cutoff: max(1, height of v), or None in finite type.  Dominant
    reduction only shrinks a drop, so the roots in the box of v are enough."""
    check_vertices(q.vertices, v, w)
    roots = _root_system(_quiver_gcm(q), max(1, v.total()), v.values)
    return MultiplicitySession(roots, w.values).multiplicity(v.values), roots.cutoff
