"""Registry of identity claims, verified by brute force with witnesses.

Every claim has a stable id and is checked against a concrete algebra by
quantifier scan: subsets ascending by bit pattern, element tuples in
lexicographic order, so refutation witnesses are deterministic.  Identities
are decided on bytes rows and induced algebras by `induced._validates`; the
tuple scan or the build runs only to explain a failure.  A claim on all
2^n - 1 subsets scans a small domain that holds a failing X whenever any
subset fails, as each domain's docstring proves, mostly from each stabilizer
value being the intersection of its members' one-point values; domains that
need those values read the cached one-point masks.  Claims with a
hypothesis (BL-only, MV-only, idempotent-only) come back `not-applicable`
when the hypothesis fails, never vacuously `holds`, so corpus statistics
separate verified from untested.

Three registry entries (Q-godel-xr-union-subalg, P4.3.5, P4.3.6) are
expected to be refutable on ordinary algebras and carry metadata saying so;
regression runs alert when an expected refutation disappears.  One entry
(P4.3.11) references an operator that has no definition for proper subsets
and is registered as not evaluable.

Claims read stabilizers of sets, filters and ideals from the library
operators.  The second, independent route to the same sets lives in
`_cross_route`: P3.4.1 and P4.3.1 evaluate the literal element-by-element
definitions there and compare them with the bitmask operators on each
one-point set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from math import prod
from operator import eq, getitem
from typing import Callable

from .core import (FiniteMtlAlgebra, InternalConsistencyError, _flag,
                   require_validated)
from .classify import (
    _godel_chain_left,
    _godel_chain_right,
    godel_by_left_stabilizers,
    godel_by_right_stabilizers,
    imtl_by_stabilizers,
    integral_by_stabilizers,
    is_bl,
    is_chain,
    is_godel,
    is_imtl,
    is_integral_mtl,
    is_mv,
)
from .induced import (
    _build,
    _side,
    _trivial,
    _validates,
    mv_left_iso,
    order_iso_right,
)
from .order import (
    _first_escape,
    all_filters,
    generated_filter,
    is_filter,
    is_lattice_ideal,
    subalgebra_violation,
)
from .search import open2_premise
from .stabilizers import (
    SUITE_ORDER,
    impl_left,
    impl_right,
    impl_stab,
    mult_left,
    mult_right,
    mult_stab,
    ortho,
)
from .subsets import Subset, from_labels, full, singleton
from ._pool import pmap

class UnknownClaimError(KeyError):
    pass


@dataclass(frozen=True)
class ClaimOutcome:
    claim: str
    verdict: str                      # holds | refuted | not-applicable
    witness: dict[str, str] | None
    scope: int
    expected: str = "holds"


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    check: Callable[[FiniteMtlAlgebra], tuple[bool, dict | None, int]] | None
    applies: Callable[[FiniteMtlAlgebra], bool] | None = None
    expected: str = "holds"           # holds | refutable | not-evaluable
    documented: Callable[[FiniteMtlAlgebra], dict | None] | None = None


# ---------------------------------------------------------------------------
# Check builders.

def _identity_claim(names: str, law, decide):
    """A law on each tuple of `names`, e over the idempotents and the rest
    over the carrier: decided on bytes rows.  Only to explain a failure are
    the tuples scanned in lexicographic order; the first failing one is the
    witness and its 1-based position the scope, else the scope counts them all."""
    def check(A):
        ranges = [A.idempotents() if v == "e" else range(A.n) for v in names]
        cache = A._mask_cache()  # one `_Rows` per algebra serves every identity
        if not decide(cache.get("rows") or cache.setdefault("rows", _Rows(A))):
            for i, tup in enumerate(product(*ranges), 1):
                if not law(A, *tup):
                    return False, {v: A.labels[t] for v, t in zip(names, tup)}, i
        return True, None, prod(map(len, ranges))
    return check


def _scan(A, pred, domain, scope):
    """The first X in domain whose pred(A, X) gives a witness, named in it."""
    for bits in domain:
        X = Subset._of(A, bits)
        w = pred(A, X)
        if w is not None:
            w.setdefault("X", X.render())
            return False, w, scope
    return True, None, scope


def _claim_on(domain, pred):
    """pred(A, X) -> witness dict or None on all 2^n - 1 nonempty subsets,
    scanned over domain(A): ascending bits that hold a failing X whenever
    any subset fails."""
    return lambda A: _scan(A, pred, domain(A), (1 << A.n) - 1)


def _holds_on(domain, pred):
    """Bundle condition: pred gives no witness on any X, as in _claim_on."""
    return lambda A: _claim_on(domain, pred)(A)[0]


def _singletons(A) -> list[int]:
    """For a pred that holds on X when it holds on each member's {x}: each
    value ANDs the members' one-point values, and what these preds test
    (closure, filters, ideals, two routes agreeing, P4.3.9's equations at
    each (a, x)) survives intersection.  The least failing {x} is then the
    full scan's first failing X."""
    return [1 << x for x in range(A.n)]


def _singletons_and_pairs(A) -> list[int]:
    """Sets of one or two members, for op(gen X) = op(X): gen X is the
    upset of the products of X's members and op(X) the AND of the op_x.  If
    each {x} holds, y >= x forces op_x <= op_y (y is in gen {x}); if each
    {x, y} holds too, op_x & op_y <= op_{x*y}.  So op(X) <= op(gen X): a
    failing X has a failing subset here, so the least one here is the full
    scan's first failing X."""
    return [1 << y | b for y in range(A.n) for b in (0, *(1 << x for x in range(y)))]


_singleton_claim = partial(_claim_on, _singletons)


def _agree(values):
    """Equivalence bundle: every (condition, value) carries the same value."""
    if len({v for _, v in values}) <= 1:
        return True, None, len(values)
    return False, {name: str(v).lower() for name, v in values}, len(values)


def _bundle_claim(parts):
    return lambda A: _agree([(name, fn(A)) for name, fn in parts])


def _t410(A):
    """The library route, `godel_chain_by_stabilizers`, is the left route
    and the right route: read off their values, each primality scan runs once."""
    left, right = _godel_chain_left(A), _godel_chain_right(A)
    return _agree([("linear-godel", is_godel(A) and is_chain(A)), ("left-route", left),
                   ("right-route", right), ("library-route", left and right)])


def _cross_route(table_name: str, op_left, op_right):
    """The literal definitions against the library's bitmask operators.

    left(X) = {a | T(a, x) == x for all x in X} and right(X) = {a | T(x, a)
    == a for all x in X} are evaluated element by element on the table T and
    compared with op_left and op_right, which intersect cached singleton
    masks.  The witness names the literal set `whole` and the library set
    `intersection`.  The two-sided part is left & right on both routes, so
    it cannot fail first and is not compared.  Both routes intersect over
    X's members, so a failing X has a failing {x}: the pred is settled on
    the singletons, and `_intersect` itself is tested on every subset.
    """
    def pred(A, X):
        table, xs, rng = getattr(A, table_name), X.members(), range(A.n)
        for name, literal, op in (
            ("left", [a for a in rng if all(table[a][x] == x for x in xs)], op_left),
            ("right", [a for a in rng if all(table[x][a] == a for x in xs)], op_right),
        ):
            whole = Subset._of(A, sum(1 << a for a in literal))
            intersection = op(A, X)
            if whole != intersection:
                return {"part": name, "whole": whole.render(),
                        "intersection": intersection.render()}
        return None
    return pred


def _antitone_check(parts):
    """X a proper subset of Y forces op(Y) <= op(X), for every part.  Each
    value ANDs one-point masks, so only `_intersect` could break this, and
    tests pin it on every subset of their corpus.  So the covering pairs
    ({x}, {x, y}) are checked, Y ascending by bits and the larger singleton
    first, each one-point value computed once, and the scope counts all
    3^n - 2^(n+1) + 1 pairs; the two-sided part cannot fail first."""
    def check(A):
        scope = 3 ** A.n - 2 ** (A.n + 1) + 1
        one = [Subset._of(A, 1 << x) for x in range(A.n)]
        of_one = [[op(A, X).bits for _, op in parts] for X in one]
        for y, x in ((y, x) for y in range(A.n) for x in range(y)):
            Y = one[x] | one[y]
            of_y = [op(A, Y).bits for _, op in parts]
            for kept in (y, x):
                for (name, _), bits, bound in zip(parts, of_y, of_one[kept]):
                    if bits & ~bound:
                        return False, {"part": name, "X": one[kept].render(),
                                       "Y": Y.render()}, scope
        return True, None, scope
    return check


def _blind_to_generation(op):
    """op(generated_filter(X)) == op(X)."""
    def pred(A, X):
        gen = generated_filter(A, X)
        of_gen, of_x = op(A, gen), op(A, X)
        if of_gen != of_x:
            return {"generated": gen.render(),
                    "right-of-generated": of_gen.render(),
                    "right-of-X": of_x.render()}
        return None
    return pred


def _left_is_filter(op):
    def pred(A, X):
        left = op(A, X)
        return None if is_filter(A, left) else {"left": left.render()}
    return pred


def _documented_at(labels: tuple[str, ...], pred):
    """The documented witness: pred at the subset with these labels, when the
    algebra has them."""
    def documented(A):
        try:
            X = from_labels(A, labels)
        except KeyError:
            return None
        w = pred(A, X)
        if w is not None:
            w["X"] = X.render()
        return w
    return documented


def _closure_witness(A, S: Subset, ops: tuple[str, ...]):
    """The first (a, b, op) in S x S x ops whose result leaves S, or None."""
    escape = _first_escape(S, [(op, getattr(A, op)) for op in ops])
    if escape is None:
        return None
    op, a, b, _ = escape
    return {"a": A.labels[a], "b": A.labels[b], "op": op}


def _subalgebra_witness(A, S: Subset):
    violation = subalgebra_violation(A, S)
    if violation is None:
        return None
    if violation[0] == "missing":
        detail = f"missing constant {A.labels[violation[1]]}"
    else:
        op, x, y, r = violation
        detail = f"{op}({A.labels[x]},{A.labels[y]})={A.labels[r]}"
    return {"set": S.render(), "violation": detail}


# -- basic identities -------------------------------------------------------

# Prop. 2.2 and the center identity as (statement, variables, law), the law
# on A and an element tuple as in `core._LAWS`.  Items 1-10 of Prop. 2.2 are
# the MTL laws of Esteva and Godo; 11 and 12 are cited in the surrounding
# development but absent from that list of ten.
_IDENTITIES = {
    "P2.2.1": ("x <= y exactly when imp(x, y) is top", "xy", lambda A, x, y:
               (A.meet[x][y] == x) == (A.imp[x][y] == A.top)),
    "P2.2.2": ("mul(x, y) lies below meet(x, y)", "xy", lambda A, x, y:
               A.meet[A.mul[x][y]][A.meet[x][y]] == A.mul[x][y]),
    "P2.2.3": ("imp distributes over meet on the right", "xyz", lambda A, x, y, z:
               A.imp[x][A.meet[y][z]] == A.meet[A.imp[x][y]][A.imp[x][z]]),
    "P2.2.4": ("imp turns join on the left into meet", "xyz", lambda A, x, y, z:
               A.imp[A.join[x][y]][z] == A.meet[A.imp[x][z]][A.imp[y][z]]),
    "P2.2.5": ("imp(x, y) equals imp(x, meet(x, y))", "xy", lambda A, x, y:
               A.imp[x][y] == A.imp[x][A.meet[x][y]]),
    "P2.2.6": ("imp(x, y) equals imp(join(x, y), y)", "xy", lambda A, x, y:
               A.imp[x][y] == A.imp[A.join[x][y]][y]),
    "P2.2.7": ("imp turns meet on the left into join", "xyz", lambda A, x, y, z:
               A.imp[A.meet[x][y]][z] == A.join[A.imp[x][z]][A.imp[y][z]]),
    "P2.2.8": ("join is recovered from double residuation", "xy", lambda A, x, y:
               A.join[x][y] == A.meet[A.imp[A.imp[x][y]][y]][A.imp[A.imp[y][x]][x]]),
    "P2.2.9": ("x lies below imp(y, x)", "xy", lambda A, x, y:
               A.meet[x][A.imp[y][x]] == x),
    "P2.2.10": ("triple negation collapses to single negation", "x", lambda A, x:
                A.imp[x][A.bot] == A.imp[A.imp[A.imp[x][A.bot]][A.bot]][A.bot]),
    "P2.2.11": ("an element times its negation is bot", "x", lambda A, x:
                A.mul[x][A.imp[x][A.bot]] == A.bot),
    "P2.2.12": ("x lies below imp(imp(x, y), y)", "xy", lambda A, x, y:
                A.meet[x][A.imp[A.imp[x][y]][y]] == x),
    "P2.4.2": ("center members commute with residuation", "exy", lambda A, e, x, y:
               A.mul[e][A.imp[x][y]] == A.mul[e][A.imp[A.mul[e][x]][A.mul[e][y]]]),
}


class _Rows:
    """A's tables as bytes, as `core._rows_hold` reads them: meet, join, mul,
    imp and cols (imp's columns) padded to 256-byte `translate` tables; m, j,
    p and i the n^2 entries, (x, y) at x n + y, and X and Y the x and y.  So
    r.translate(s) == over(t, r) says r(s(a, b)) == t(r(a), r(b)).  It keeps
    bot, top and the idempotents, not A, so A's cache holds it with no cycle."""

    def __init__(self, A: FiniteMtlAlgebra):
        self.n, self.bot, self.top, self.pad = A.n, A.bot, A.top, bytes(256 - A.n)
        self.idempotents = A.idempotents()
        rows = [list(map(bytes, t)) for t in (A.meet, A.join, A.mul, A.imp)]
        self.m, self.j, self.p, self.i = map(b"".join, rows)
        rows.append([self.i[y::A.n] for y in range(A.n)])  # imp's columns
        self.meet, self.join, self.mul, self.imp, self.cols = (
            [r + self.pad for r in t] for t in rows)
        self.X = b"".join(bytes((x,)) * A.n for x in range(A.n))
        self.Y = bytes(range(A.n)) * A.n

    def at(self, rows, F: bytes, G: bytes) -> bytes:  # rows[F[k]][G[k]] at each k
        return bytes(map(getitem, map(rows.__getitem__, F), G))

    def over(self, rows, r: bytes) -> bytes:  # rows[r[a]][r[b]] at each (a, b)
        return b"".join(map(r[:self.n].translate, map(rows.__getitem__, r[:self.n])))


# Each identity decided on the tuples its scan reads; cols[bot] is neg.
_DECISIONS = {
    "P2.2.1": lambda R: bytes(map(eq, R.m, R.X)) == R.i.translate(_flag(R.top)),
    "P2.2.2": lambda R: R.at(R.meet, R.p, R.m) == R.p,
    "P2.2.3": lambda R: all(R.m.translate(r) == R.over(R.meet, r) for r in R.imp),
    "P2.2.4": lambda R: all(R.j.translate(c) == R.over(R.meet, c) for c in R.cols),
    "P2.2.5": lambda R: R.i == R.at(R.imp, R.X, R.m),
    "P2.2.6": lambda R: R.i == R.at(R.imp, R.j, R.Y),
    "P2.2.7": lambda R: all(R.m.translate(c) == R.over(R.join, c) for c in R.cols),
    "P2.2.8": lambda R: R.j == R.at(R.meet, R.at(R.imp, R.i, R.Y),
                                    R.at(R.imp, R.at(R.imp, R.Y, R.X), R.X)),
    "P2.2.9": lambda R: R.at(R.meet, R.X, R.at(R.imp, R.Y, R.X)) == R.X,
    "P2.2.10": lambda R: (neg := R.cols[R.bot])[:R.n]
    == neg[:R.n].translate(neg).translate(neg),
    "P2.2.11": lambda R: bytes(map(getitem, R.mul, R.cols[R.bot]))
    == bytes((R.bot,)) * R.n,
    "P2.2.12": lambda R: R.at(R.meet, R.X, R.at(R.imp, R.i, R.Y)) == R.X,
    "P2.4.2": lambda R: all(R.i.translate(e) == R.over(R.imp, e).translate(e)
                            for e in map(R.mul.__getitem__, R.idempotents)),
}


# -- implicative stabilizer claims ------------------------------------------

def _p344(A, X):
    left, right = impl_left(A, X), impl_right(A, X)
    if (X.bits == 1 << A.top) != (left == right == full(A)):
        return {"left": left.render(), "right": right.render()}
    return None


def _p345(A):
    X, expect = full(A), singleton(A, A.top)
    for name, op in (("left", impl_left), ("right", impl_right)):
        computed = op(A, X)
        if computed != expect:
            return False, {"part": name, "computed": computed.render()}, 1
    return True, None, 1


def _p346(A):
    X, expect = singleton(A, A.bot), singleton(A, A.top)
    right = impl_right(A, X)
    if right != expect:
        return False, {"right": right.render(), "stab": impl_stab(A, X).render()}, 1
    return True, None, 1


def _p347(A, X):
    return _closure_witness(A, impl_right(A, X), ("meet", "imp", "join"))


def _p349(A, X):
    gen = generated_filter(A, X)
    expect = singleton(A, A.top)
    meet_right = gen & impl_right(A, X)
    if meet_right != expect:
        return {"generated": gen.render(), "meet-right": meet_right.render()}
    return None


def _p349_domain(A) -> list[int]:
    """The singletons and S_a = {x : a in R_x} for a != top, R_x the
    impl_right of {x}.  A failing X lacks top in some R_x, x in X, and {x}
    fails; or a != top lies in gen X and R(X), so X <= S_a and gen X <=
    gen S_a, and S_a fails.  This holds under any masks."""
    R = A._fixed_masks("impl_right")
    sets = {sum(1 << x for x in range(A.n) if R[x] >> a & 1)
            for a in range(A.n) if a != A.top}
    return sorted((sets | set(_singletons(A))) - {0})


# -- T3.6 bundle conditions (shared with T3.16) -----------------------------

_cond_left_of_generated = _holds_on(_singletons_and_pairs,
                                    _blind_to_generation(impl_left))
_cond_right_always_filter = _holds_on(_singletons, _left_is_filter(impl_right))
_cond_all_stabs_coann = _holds_on(_singletons, lambda A, X: _t315_mv(A, X))


def _cond_exchange_fixpoints(A) -> bool:
    return all(
        (A.imp[a][b] == b) == (A.imp[b][a] == a)
        for a, b in product(range(A.n), repeat=2)
    )


# -- further implicative claims ---------------------------------------------

def _t39_ortho(A, X):
    co, stab = ortho(A, X), impl_stab(A, X)
    if co != stab:
        return {"ortho": co.render(), "stab": stab.render()}
    return None


def _t310_membership_cond(A) -> bool:
    l0 = impl_left(A, singleton(A, A.bot))
    return all(
        x == y
        for x, y in product(range(A.n), repeat=2)
        if A.imp[x][y] in l0 and A.imp[y][x] in l0
    )


def _p39_center_right(A):
    l0 = impl_left(A, singleton(A, A.bot))
    if l0.is_empty():  # top is in it on every valid table
        return False, {"reason": "the left stabilizer of {bot} is empty"}, 1
    w = _subalgebra_witness(A, impl_right(A, l0))
    return w is None, w, 1


def _t315_mv(A, X):
    left, right = impl_left(A, X), impl_right(A, X)
    if not left == right == ortho(A, X):
        return {"left": left.render(), "right": right.render()}
    return None


def _p317_check(A):
    filters = all_filters(A)
    for f in filters:
        right = impl_right(A, f)
        if right.is_empty():  # top is in it on every valid table
            return False, {"filter": f.render(),
                           "reason": "its right stabilizer is empty"}, len(filters)
        if impl_right(A, right) != f:
            # Premise fails; nothing to conclude.
            return True, None, len(filters)
    if not is_mv(A):
        return False, {"premise": "every filter F equals (F_r)_r",
                       "mv": "false"}, len(filters)
    return True, None, len(filters)


def _q_subalg(A, X):
    return _subalgebra_witness(A, impl_right(A, X) | singleton(A, A.bot))


# -- multiplicative claims ---------------------------------------------------

def _p434(A, X):
    zero = singleton(A, A.bot)
    left, right = mult_left(A, X), mult_right(A, X)
    shape = left == full(A) and right == zero
    if (X == zero) != shape:
        return {"left": left.render(), "right": right.render()}
    return None


def _p434_domain(A) -> list[int]:
    """{bot} and K' = {x : mult_left({x}) full, bot in mult_right({x})}.
    Both values AND over X's members, so an X != {bot} with the shape lies
    in K' != {bot}, and K' has it too: mult_right shrinks as X grows and
    keeps bot.  On a valid table K' = {bot}."""
    everything = (1 << A.n) - 1
    left, right = A._fixed_masks("mult_left"), A._fixed_masks("mult_right")
    k = sum(1 << x for x in range(A.n)
            if left[x] == everything and right[x] >> A.bot & 1)
    return sorted({1 << A.bot, k} - {0})


def _p435(A):
    X = singleton(A, A.top)
    right, left, stab = mult_right(A, X), mult_left(A, X), mult_stab(A, X)
    if right != X or left != X or stab != X:
        return False, {"right-of-top": right.render(),
                       "left-of-top": left.render(),
                       "stab-of-top": stab.render()}, 1
    return True, None, 1


def _p436(A, X):
    stab = mult_stab(A, X)
    return None if stab == X else {"stab": stab.render()}


def _p436_domain(A) -> range:
    """Bits 1 to 3: if {x0} and {x1} hold, stab({x0, x1}) is their
    intersection {x0} & {x1}, which is empty, so {x0, x1} fails.  The full
    ascending scan stops by bits 3, whatever the masks."""
    return range(1, min(4, 1 << A.n))


def _p438(A, X):
    for name, op in (("right", mult_right), ("left", mult_left)):
        w = _closure_witness(A, op(A, X), ("join", "mul"))
        if w is not None:
            return {"part": name, **w}
    return None


def _p439(A, X):
    xs = X.members()
    for a in impl_right(A, X) & mult_right(A, X):
        for x in xs:
            if not (A.mul[x][A.imp[x][a]] == a and A.mul[a][x] == a):
                return {"side": "right", "a": A.labels[a], "x": A.labels[x]}
    for a in impl_left(A, X) & mult_left(A, X):
        for x in xs:
            if not (A.mul[a][A.imp[a][x]] == x and A.mul[a][x] == x):
                return {"side": "left", "a": A.labels[a], "x": A.labels[x]}
    return None


def _p4310(A, X):
    xs = X.members()
    for a in impl_right(A, X) & mult_right(A, X):
        if not all(A.meet[x][a] == a for x in xs):
            return {"side": "right", "a": A.labels[a]}
    for a in impl_left(A, X) & mult_left(A, X):
        if not all(A.meet[a][x] == x for x in xs):
            return {"side": "left", "a": A.labels[a]}
    return None


def _p46(A, X):
    right = mult_right(A, X)
    return None if is_lattice_ideal(A, right) else {"right": right.render()}


# -- induced-structure claims ------------------------------------------------

def _induced_claim(side: int):
    """Side 0 (left) or 1 (right) at each idempotent, built only to explain a failure."""
    def check(A):
        checked = 0
        for x in A.idempotents():
            args = _side(A, x, side)
            if _trivial(args[1].bits):
                continue
            checked += 1
            if not _validates(*args):
                return False, {"x": A.labels[x], **_build(*args).failure}, checked
        return True, None, checked
    return check


def _iso_claim(iso):
    """iso(A, x) at each idempotent x; an inconsistency it raises refutes."""
    def check(A):
        checked = 0
        for x in A.idempotents():
            checked += 1
            try:
                iso(A, x)
            except InternalConsistencyError as exc:
                return False, {"x": A.labels[x], "reason": str(exc)}, checked
        return True, None, checked
    return check


# ---------------------------------------------------------------------------
# The registry.

def _build_registry() -> dict[str, Claim]:
    claims: list[Claim] = []

    for cid, (statement, names, law) in _IDENTITIES.items():
        claims.append(Claim(cid, statement, _identity_claim(names, law, _DECISIONS[cid])))

    # A.idempotents() selects on mul(e, e) == e: nothing is left to fail.
    claims.append(Claim("P2.4.1", "center members are idempotent",
                        lambda A: (True, None, len(A.idempotents()))))

    claims.append(Claim("P3.4.1",
                        "stabilizers of a set are intersections over singletons",
                        _singleton_claim(
                            _cross_route("imp", impl_left, impl_right))))
    claims.append(Claim("P3.4.2", "stabilizers are antitone in the subset",
                        _antitone_check((("left", impl_left),
                                         ("right", impl_right)))))
    claims.append(Claim("P3.4.3",
                        "right stabilizer is blind to filter generation",
                        _claim_on(_singletons_and_pairs,
                                  _blind_to_generation(impl_right))))
    claims.append(Claim("P3.4.4",
                        "all three stabilizers are everything only for {top}",
                        _singleton_claim(_p344)))
    claims.append(Claim("P3.4.5",
                        "stabilizers of the full carrier are {top}", _p345))
    claims.append(Claim("P3.4.6",
                        "right and two-sided stabilizers of {bot} are {top}",
                        _p346))
    claims.append(Claim("P3.4.7",
                        "right stabilizers are closed under meet, imp, join",
                        _singleton_claim(_p347)))
    claims.append(Claim("P3.4.8", "left stabilizers are filters",
                        _singleton_claim(_left_is_filter(impl_left))))
    claims.append(Claim("P3.4.9",
                        "generated filter meets right stabilizer in {top}",
                        _claim_on(_p349_domain, _p349)))

    claims.append(Claim("T3.6", "five conditions stand or fall together",
                        _bundle_claim((
                            ("left-of-generated", _cond_left_of_generated),
                            ("exchange-fixpoints", _cond_exchange_fixpoints),
                            ("right-always-filter", _cond_right_always_filter),
                            ("singleton-stabs-agree", open2_premise),
                            ("left-right-equal", open2_premise),
                        ))))

    claims.append(Claim("P3.9-godel-center-r",
                        "right stabilizer of the bot-annihilators is a subalgebra",
                        _p39_center_right, applies=is_godel))
    claims.append(Claim("T3.9-ortho",
                        "join co-annihilator equals the two-sided stabilizer",
                        _singleton_claim(_t39_ortho)))
    claims.append(Claim("T3.10-imtl",
                        "involutive negation matches the bot-stabilizer shape",
                        _bundle_claim((
                            ("involutive", is_imtl),
                            ("bot-stabs-agree", imtl_by_stabilizers),
                            ("residua-in-L0-force-equality",
                             _t310_membership_cond),
                        ))))
    claims.append(Claim("T3.11-integral",
                        "no zero divisors matches left-stab of bot",
                        _bundle_claim((
                            ("no-zero-divisors", is_integral_mtl),
                            ("L0-is-everything-but-bot", integral_by_stabilizers),
                        ))))
    claims.append(Claim("T3.15-mv",
                        "on MV algebras all four stabilizers coincide",
                        _singleton_claim(_t315_mv), applies=is_mv))
    claims.append(Claim("T3.16-bl",
                        "on BL algebras seven conditions stand together",
                        _bundle_claim((
                            ("mv", is_mv),
                            ("all-stabs-coann", _cond_all_stabs_coann),
                            ("bot-stabs-agree", imtl_by_stabilizers),
                            ("left-of-generated", _cond_left_of_generated),
                            ("exchange-fixpoints", _cond_exchange_fixpoints),
                            ("right-always-filter", _cond_right_always_filter),
                            ("singleton-stabs-agree", open2_premise),
                        )), applies=is_bl))
    claims.append(Claim("P3.17-rs",
                        "if every filter is its own double right stabilizer,"
                        " the algebra is MV",
                        _p317_check, applies=is_bl))
    claims.append(Claim("Q-godel-xr-union-subalg",
                        "right stabilizer plus bot is a subalgebra",
                        _singleton_claim(_q_subalg), applies=is_godel,
                        expected="refutable", documented=_documented_at(("b",), _q_subalg)))

    claims.append(Claim("P4.3.1",
                        "mul stabilizers of a set are intersections over"
                        " singletons", _singleton_claim(
                            _cross_route("mul", mult_left, mult_right))))
    claims.append(Claim("P4.3.2", "mul stabilizers are antitone in the subset",
                        _antitone_check((("left", mult_left),
                                         ("right", mult_right)))))
    claims.append(Claim("P4.3.3",
                        "right mul stabilizer is blind to filter generation",
                        _claim_on(_singletons_and_pairs,
                                  _blind_to_generation(mult_right))))
    claims.append(Claim("P4.3.4",
                        "the {bot} shape (left everything, right {bot})"
                        " characterizes {bot}", _claim_on(_p434_domain, _p434)))
    claims.append(Claim("P4.3.5",
                        "all three mul stabilizers of {top} are {top}",
                        _p435, expected="refutable"))
    claims.append(Claim("P4.3.6", "the two-sided mul stabilizer returns X",
                        _claim_on(_p436_domain, _p436), expected="refutable",
                        documented=_documented_at(("a", "b"), _p436)))
    claims.append(Claim("P4.3.7", "left mul stabilizers are filters",
                        _singleton_claim(_left_is_filter(mult_left))))
    claims.append(Claim("P4.3.8",
                        "mul stabilizers are closed under join and mul",
                        _singleton_claim(_p438)))
    claims.append(Claim("P4.3.9",
                        "elements in both right stabilizers satisfy the"
                        " divisibility-style equations", _singleton_claim(_p439)))
    claims.append(Claim("P4.3.10",
                        "on BL algebras the double stabilizers sit inside the"
                        " principal bounds", _singleton_claim(_p4310),
                        applies=is_bl))
    claims.append(Claim("P4.3.11",
                        "membership in a center operator that is undefined"
                        " for proper subsets", None,
                        expected="not-evaluable"))
    claims.append(Claim("P4.6-bl-ideal",
                        "on BL algebras right mul stabilizers are lattice"
                        " ideals", _singleton_claim(_p46), applies=is_bl))

    claims.append(Claim("T4.7-left-alg",
                        "left stabilizer of an idempotent carries an algebra"
                        " with bot x", _induced_claim(0)))
    claims.append(Claim("T4.8-right-alg",
                        "right stabilizer of an idempotent carries an algebra"
                        " with top x", _induced_claim(1)))
    claims.append(Claim("T4.9-godel",
                        "idempotent mul matches upset/downset stabilizers",
                        _bundle_claim((
                            ("mul-is-meet", is_godel),
                            ("left-stabs-are-upsets", godel_by_left_stabilizers),
                            ("right-stabs-are-downsets", godel_by_right_stabilizers),
                        ))))
    claims.append(Claim("T4.10-godel-chain",
                        "linear idempotent algebras match prime stabilizers",
                        _t410))
    claims.append(Claim("T4.11-order-iso",
                        "right stabilizers are order isomorphic at idempotents",
                        _iso_claim(order_iso_right)))
    claims.append(Claim("T4.12-mv-iso",
                        "on MV algebras left and right-mul stabilizers are"
                        " order isomorphic", _iso_claim(mv_left_iso),
                        applies=is_mv))

    return {c.id: c for c in claims}


REGISTRY: dict[str, Claim] = _build_registry()


def claim_ids() -> list[str]:
    return sorted(REGISTRY)


def verify_claim(A: FiniteMtlAlgebra, claim_id: str) -> ClaimOutcome:
    require_validated(A)
    try:
        claim = REGISTRY[claim_id]
    except KeyError:
        raise UnknownClaimError(claim_id) from None
    if claim.expected == "not-evaluable":
        return ClaimOutcome(claim_id, "not-applicable",
                            {"reason": "statement is not evaluable as written"},
                            0, claim.expected)
    if claim.applies is not None and not claim.applies(A):
        return ClaimOutcome(claim_id, "not-applicable", None, 0, claim.expected)
    ok, witness, scope = claim.check(A)
    if ok:
        return ClaimOutcome(claim_id, "holds", None, scope, claim.expected)
    if claim.documented is not None:
        documented = claim.documented(A)
        if documented is not None:
            witness = documented
    return ClaimOutcome(claim_id, "refuted", witness, scope, claim.expected)


def verify_all(A: FiniteMtlAlgebra, jobs: int = 1) -> list[ClaimOutcome]:
    return pmap(partial(verify_claim, A), claim_ids(), jobs)


# ---------------------------------------------------------------------------
# Documented divergences: published values that the fixture tables do not
# give.  The a4 and c5 stabilizer values follow a pointwise (union) reading of
# the definition instead of the universally quantified one.  The a5 and m6
# values are unreachable on any algebra with the fixture's order: in a5 the
# filter generated by {b} is {b,1}, whose left implicative stabilizer is that
# of {b}; in m6 mul(a,a) = b, so {a,1} is not a filter (it generates
# {a,b,1}).  verify reports both values with a mismatch flag whenever the
# algebra at hand is one of the affected fixtures, with its elements listed
# in any order.

@dataclass(frozen=True)
class Divergence:
    fixture: str
    subset_labels: tuple[str, ...]
    op: str
    reported_labels: tuple[str, ...]


DIVERGENCES = (
    Divergence("a4", ("a", "b"), "mult_left", ("b", "1")),
    Divergence("a4", ("a", "b"), "mult_right", ("0", "b")),
    Divergence("a4", ("a", "b"), "mult_stab", ("b",)),
    Divergence("c5", ("a", "c"), "mult_right", ("0", "a", "c")),
    Divergence("a5", ("b", "1"), "impl_left", ("1",)),
    Divergence("m6", ("a", "1"), "generated_filter", ("a", "1")),
)

_OPS = dict(SUITE_ORDER, generated_filter=generated_filter)


def _signature(A: FiniteMtlAlgebra) -> tuple:
    """A's tables keyed by label: equal exactly for two listings of the same
    algebra, whatever the order of their carriers."""
    L, rng = A.labels, range(A.n)
    return (L[A.bot], L[A.top],
            frozenset((L[x], L[y], L[A.mul[x][y]], L[A.imp[x][y]])
                      for x in rng for y in rng))


@cache
def _ledger_signatures() -> dict[str, tuple]:
    """The signature of each fixture in the ledger, parsed once per process."""
    from .fixtures import load_fixture_raw

    return {name: _signature(load_fixture_raw(name))
            for name in {div.fixture for div in DIVERGENCES}}


def documented_divergences(A: FiniteMtlAlgebra) -> list[dict[str, str]]:
    """Divergence records applying to this algebra, rendered for reports."""
    signature = _signature(A)
    matching = {name for name, known in _ledger_signatures().items()
                if known == signature}
    records = []
    for div in DIVERGENCES:
        if div.fixture not in matching:
            continue
        X = from_labels(A, div.subset_labels)
        computed = _OPS[div.op](A, X)
        reported = from_labels(A, div.reported_labels)
        records.append({
            "X": X.render(),
            "op": div.op,
            "computed": computed.render(),
            "reported": reported.render(),
            "match": "true" if computed == reported else "false",
        })
    return records


def outcome_report(outcomes, divergences=None):
    """Render claim outcomes (and optional divergences) as a Report."""
    from .report import Report

    report = Report()
    for outcome in outcomes:
        if outcome.verdict == "refuted":
            report.add_failure("claim", outcome.claim, "refuted")
        else:
            report.add("claim", outcome.claim, outcome.verdict)
        if outcome.witness:
            detail = "; ".join(f"{k}={v}" for k, v in outcome.witness.items())
            report.add("witness", outcome.claim, detail)
        report.add("scope", outcome.claim, str(outcome.scope))
        if outcome.expected == "refutable" and outcome.verdict == "holds":
            report.add_failure("regression", outcome.claim,
                               "expected refutation is gone")
    for div in divergences or ():
        key = f"{div['op']} X={{{div['X']}}}"
        report.add("discrepancy", f"{key} computed", div["computed"])
        report.add("discrepancy", f"{key} reported", div["reported"])
        report.add("discrepancy", f"{key} match", div["match"])
    return report
