"""Registry of identity claims, verified by brute force with witnesses.

Every claim has a stable id and is checked against a concrete algebra by
quantifier scan: subsets ascending by bit pattern, element tuples in
lexicographic order, so refutation witnesses are deterministic.  Claims with
a hypothesis (BL-only, MV-only, idempotent-only) come back `not-applicable`
when the hypothesis fails, never vacuously `holds`, so corpus statistics
separate verified from untested.

Two registry entries are expected to be refutable on ordinary algebras and
carry metadata saying so; regression runs alert when an expected refutation
disappears.  One entry (P4.3.11) references an operator that has no
definition for proper subsets and is registered as not evaluable.

Claims read stabilizers, filters and ideals from the library operators.  The
second, independent route to the same sets lives in `_cross_route`: P3.4.1
and P4.3.1 evaluate the literal element-by-element definitions there and
compare them with the bitmask operators on every subset of the domain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

from .core import FiniteMtlAlgebra, InternalConsistencyError, require_validated
from .classify import (
    godel_by_left_stabilizers,
    godel_by_right_stabilizers,
    godel_chain_by_stabilizers,
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
    left_mult_algebra,
    mv_left_iso,
    order_iso_right,
    right_mult_algebra,
)
from .order import (
    all_filters,
    generated_filter,
    is_filter,
    is_lattice_ideal,
    is_prime_filter,
    is_prime_lattice_ideal,
    is_proper_filter,
    subalgebra_violation,
)
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
from .subsets import Subset, from_elements, from_labels, full, singleton
from ._pool import pmap

SAMPLE_SEED = 0x4D544C  # carrier sampling beyond exhaustive range, fixed
SAMPLE_COUNT = 4096
EXHAUSTIVE_LIMIT = 16


class UnknownClaimError(KeyError):
    pass


@dataclass(frozen=True)
class ClaimOutcome:
    claim: str
    verdict: str                      # holds | refuted | not-applicable
    witness: dict[str, str] | None
    scope: int
    expected: str = "holds"

    @property
    def is_failure(self) -> bool:
        return self.verdict == "refuted"


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    check: Callable[[FiniteMtlAlgebra], tuple[bool, dict | None, int]]
    applies: Callable[[FiniteMtlAlgebra], bool] | None = None
    expected: str = "holds"           # holds | refutable | not-evaluable
    documented: Callable[[FiniteMtlAlgebra], dict | None] | None = None


def _subset_domain(A) -> list[int]:
    """Nonempty subset bit patterns: exhaustive for small carriers, a fixed
    deterministic sample for large ones."""
    n = A.n
    if n <= EXHAUSTIVE_LIMIT:
        return list(range(1, 1 << n))
    rng = random.Random(SAMPLE_SEED ^ n)
    seen = set()
    while len(seen) < SAMPLE_COUNT:
        bits = rng.getrandbits(n)
        if bits:
            seen.add(bits)
    return sorted(seen)


# ---------------------------------------------------------------------------
# Check builders.

def _tuple_claim(arity: int, pred, render):
    def check(A):
        count = 0
        for tup in product(range(A.n), repeat=arity):
            count += 1
            if not pred(A, *tup):
                return False, render(A, *tup), count
        return True, None, count
    return check


def _subset_claim(pred):
    """pred(A, X) -> witness dict or None, scanned over the subset domain."""
    def check(A):
        domain = _subset_domain(A)
        for bits in domain:
            X = Subset(A, bits)
            w = pred(A, X)
            if w is not None:
                w.setdefault("X", X.render())
                return False, w, len(domain)
        return True, None, len(domain)
    return check


def _every_subset(pred):
    """Bundle condition: pred(A, X) holds on every subset of the domain."""
    return lambda A: all(pred(A, Subset(A, bits)) for bits in _subset_domain(A))


def _bundle_claim(parts):
    """Equivalence bundle: every condition must carry the same truth value."""
    def check(A):
        values = [(name, fn(A)) for name, fn in parts]
        if len({v for _, v in values}) <= 1:
            return True, None, len(values)
        witness = {name: str(v).lower() for name, v in values}
        return False, witness, len(values)
    return check


def _cross_route(table_name: str, op_left, op_right):
    """The literal definitions against the library's bitmask operators.

    left(X) = {a | T(a, x) == x for all x in X} and right(X) = {a | T(x, a)
    == a for all x in X} are evaluated element by element on the table T and
    compared with op_left and op_right, which intersect cached singleton
    masks.  The witness names the literal set `whole` and the library set
    `intersection`.  The two-sided part is left & right on both routes, so
    it cannot fail first and is not compared.
    """
    def pred(A, X):
        table, xs = getattr(A, table_name), X.members()
        for name, fixed, op in (
            ("left", lambda a: all(table[a][x] == x for x in xs), op_left),
            ("right", lambda a: all(table[x][a] == a for x in xs), op_right),
        ):
            whole = from_elements(A, filter(fixed, range(A.n)))
            intersection = op(A, X)
            if whole != intersection:
                return {"part": name, "whole": whole.render(),
                        "intersection": intersection.render()}
        return None
    return _subset_claim(pred)


def _antitone_check(parts):
    """X a proper subset of Y forces op(Y) <= op(X), for every part, over
    each domain subset Y and its nonempty proper subsets X in descending bit
    order.  Operator bits are computed once per subset."""
    def check(A):
        def op_bits(bits):
            X = Subset(A, bits)
            return tuple(op(A, X).bits for _, op in parts)

        domain = _subset_domain(A)
        known = {bits: op_bits(bits) for bits in domain}
        count = 0
        for ybits in domain:
            ys = known[ybits]
            sub = (ybits - 1) & ybits
            while sub:
                count += 1
                xs = known[sub] if sub in known else op_bits(sub)
                for (name, _), y, x in zip(parts, ys, xs):
                    if y & ~x:
                        return False, {
                            "part": name, "X": Subset(A, sub).render(),
                            "Y": Subset(A, ybits).render(),
                        }, count
                sub = (sub - 1) & ybits
        return True, None, count
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
    return _subset_claim(pred)


def _left_is_filter(op):
    def pred(A, X):
        left = op(A, X)
        return None if is_filter(A, left) else {"left": left.render()}
    return _subset_claim(pred)


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
    """First (a, b, op) in S x S x ops whose result leaves S, or None."""
    tables = [(opname, getattr(A, opname)) for opname in ops]
    for a in S:
        for b in S:
            for opname, table in tables:
                if table[a][b] not in S:
                    return {"a": A.labels[a], "b": A.labels[b], "op": opname}
    return None


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

def _pair_witness(A, x, y):
    return {"x": A.labels[x], "y": A.labels[y]}


def _triple_witness(A, x, y, z):
    return {"x": A.labels[x], "y": A.labels[y], "z": A.labels[z]}


_BASIC_IDENTITIES = {
    "P2.2.1": (2, lambda A, x, y: (A.meet[x][y] == x) == (A.imp[x][y] == A.top)),
    "P2.2.2": (2, lambda A, x, y: A.meet[A.mul[x][y]][A.meet[x][y]] == A.mul[x][y]),
    "P2.2.3": (3, lambda A, x, y, z:
               A.imp[x][A.meet[y][z]] == A.meet[A.imp[x][y]][A.imp[x][z]]),
    "P2.2.4": (3, lambda A, x, y, z:
               A.imp[A.join[x][y]][z] == A.meet[A.imp[x][z]][A.imp[y][z]]),
    "P2.2.5": (2, lambda A, x, y: A.imp[x][y] == A.imp[x][A.meet[x][y]]),
    "P2.2.6": (2, lambda A, x, y: A.imp[x][y] == A.imp[A.join[x][y]][y]),
    "P2.2.7": (3, lambda A, x, y, z:
               A.imp[A.meet[x][y]][z] == A.join[A.imp[x][z]][A.imp[y][z]]),
    "P2.2.8": (2, lambda A, x, y: A.join[x][y]
               == A.meet[A.imp[A.imp[x][y]][y]][A.imp[A.imp[y][x]][x]]),
    "P2.2.9": (2, lambda A, x, y: A.meet[x][A.imp[y][x]] == x),
    "P2.2.10": (1, lambda A, x: A.imp[x][A.bot]
                == A.imp[A.imp[A.imp[x][A.bot]][A.bot]][A.bot]),
    # Cited in the surrounding development but absent from the list of ten.
    "P2.2.11": (1, lambda A, x: A.mul[x][A.imp[x][A.bot]] == A.bot),
    "P2.2.12": (2, lambda A, x, y: A.meet[x][A.imp[A.imp[x][y]][y]] == x),
}

_BASIC_STATEMENTS = {
    "P2.2.1": "x <= y exactly when imp(x, y) is top",
    "P2.2.2": "mul(x, y) lies below meet(x, y)",
    "P2.2.3": "imp distributes over meet on the right",
    "P2.2.4": "imp turns join on the left into meet",
    "P2.2.5": "imp(x, y) equals imp(x, meet(x, y))",
    "P2.2.6": "imp(x, y) equals imp(join(x, y), y)",
    "P2.2.7": "imp turns meet on the left into join",
    "P2.2.8": "join is recovered from double residuation",
    "P2.2.9": "x lies below imp(y, x)",
    "P2.2.10": "triple negation collapses to single negation",
    "P2.2.11": "an element times its negation is bot",
    "P2.2.12": "x lies below imp(imp(x, y), y)",
}


# -- implicative stabilizer claims ------------------------------------------

def _p344(A, X):
    left, right = impl_left(A, X), impl_right(A, X)
    if (X.bits == 1 << A.top) != (left == right == full(A)):
        return {"left": left.render(), "right": right.render()}
    return None


def _p345(A):
    X, expect = full(A), singleton(A, A.top)
    for name, op in (("left", impl_left), ("right", impl_right),
                     ("stab", impl_stab)):
        computed = op(A, X)
        if computed != expect:
            return False, {"part": name, "computed": computed.render()}, 1
    return True, None, 1


def _p346(A):
    X, expect = singleton(A, A.bot), singleton(A, A.top)
    right, stab = impl_right(A, X), impl_stab(A, X)
    if right != expect or stab != expect:
        return False, {"right": right.render(), "stab": stab.render()}, 1
    return True, None, 1


def _p347(A, X):
    return _closure_witness(A, impl_right(A, X), ("meet", "imp", "join"))


def _p349(A, X):
    gen = generated_filter(A, X)
    expect = singleton(A, A.top)
    meet_right = gen & impl_right(A, X)
    if meet_right != expect or gen & impl_stab(A, X) != expect:
        return {"generated": gen.render(), "meet-right": meet_right.render()}
    return None


# -- T3.6 bundle conditions (shared with T3.16) -----------------------------

_cond_left_of_generated = _every_subset(
    lambda A, X: impl_left(A, X) == impl_left(A, generated_filter(A, X)))

_cond_right_always_filter = _every_subset(
    lambda A, X: is_filter(A, impl_right(A, X)))

_cond_left_right_equal = _every_subset(
    lambda A, X: impl_left(A, X) == impl_right(A, X))

_cond_all_stabs_coann = _every_subset(
    lambda A, X: impl_left(A, X) == impl_right(A, X) == impl_stab(A, X)
    == ortho(A, X))


def _cond_exchange_fixpoints(A) -> bool:
    return all(
        (A.imp[a][b] == b) == (A.imp[b][a] == a)
        for a, b in product(range(A.n), repeat=2)
    )


def _cond_singleton_stabs_agree(A) -> bool:
    return all(
        impl_left(A, singleton(A, x)) == impl_right(A, singleton(A, x))
        for x in range(A.n)
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
    w = _subalgebra_witness(A, impl_right(A, l0))
    return w is None, w, 1


def _t315_mv(A, X):
    left, right = impl_left(A, X), impl_right(A, X)
    if not left == right == impl_stab(A, X) == ortho(A, X):
        return {"left": left.render(), "right": right.render()}
    return None


def _p317_check(A):
    filters = all_filters(A)
    for f in filters:
        if impl_right(A, impl_right(A, f)) != f:
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
    shape = left == full(A) and right == zero and mult_stab(A, X) == zero
    if (X == zero) != shape:
        return {"left": left.render(), "right": right.render()}
    return None


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


def _p438(A, X):
    for name, op in (("right", mult_right), ("left", mult_left)):
        w = _closure_witness(A, op(A, X), ("join", "mul"))
        if w is not None:
            return {"part": name, **w}
    return None


def _p439(A, X):
    for a in impl_right(A, X) & mult_right(A, X):
        for x in X:
            if not (A.mul[x][A.imp[x][a]] == a and A.mul[a][x] == a):
                return {"side": "right", "a": A.labels[a], "x": A.labels[x]}
    for a in impl_left(A, X) & mult_left(A, X):
        for x in X:
            if not (A.mul[a][A.imp[a][x]] == x and A.mul[a][x] == x):
                return {"side": "left", "a": A.labels[a], "x": A.labels[x]}
    return None


def _p4310(A, X):
    for a in impl_right(A, X) & mult_right(A, X):
        if not all(A.meet[x][a] == a for x in X):
            return {"side": "right", "a": A.labels[a]}
    for a in impl_left(A, X) & mult_left(A, X):
        if not all(A.meet[a][x] == x for x in X):
            return {"side": "left", "a": A.labels[a]}
    return None


def _p46(A, X):
    right = mult_right(A, X)
    return None if is_lattice_ideal(A, right) else {"right": right.render()}


# -- induced-structure claims ------------------------------------------------

def _induced_claim(builder):
    def check(A):
        checked = 0
        for x in A.idempotents():
            induced = builder(A, x)
            if induced.trivial:
                continue
            checked += 1
            if induced.closure_violations:
                op, a, b, r = induced.closure_violations[0]
                return False, {
                    "x": A.labels[x],
                    "violation": f"{op}({A.labels[a]},{A.labels[b]})"
                                 f"={A.labels[r]} leaves the carrier",
                }, checked
            if not induced.report.valid:
                axiom, witness = induced.report.violations[0]
                return False, {"x": A.labels[x], "axiom": axiom,
                               "witness": str(witness)}, checked
        return True, None, checked
    return check


def _t411(A):
    checked = 0
    for x in A.idempotents():
        checked += 1
        X = singleton(A, x)
        if len(mult_right(A, X)) != len(impl_right(A, X)):
            return False, {"x": A.labels[x], "reason": "size mismatch"}, checked
        try:
            order_iso_right(A, x)
        except InternalConsistencyError as exc:
            return False, {"x": A.labels[x], "reason": str(exc)}, checked
    return True, None, checked


def _t412(A):
    checked = 0
    for x in A.idempotents():
        checked += 1
        try:
            mv_left_iso(A, x)
        except InternalConsistencyError as exc:
            return False, {"x": A.labels[x], "reason": str(exc)}, checked
    return True, None, checked


def _godel_chain_left(A) -> bool:
    if not godel_by_left_stabilizers(A):
        return False
    for x in range(A.n):
        lx = mult_left(A, singleton(A, x))
        if is_proper_filter(A, lx) and not is_prime_filter(A, lx):
            return False
    return True


def _godel_chain_right(A) -> bool:
    if not godel_by_right_stabilizers(A):
        return False
    for x in range(A.n):
        rx = mult_right(A, singleton(A, x))
        if not (is_lattice_ideal(A, rx) and is_prime_lattice_ideal(A, rx)):
            return False
    return True


def _not_evaluable(A):
    return True, None, 0


# ---------------------------------------------------------------------------
# The registry.

def _build_registry() -> dict[str, Claim]:
    claims: list[Claim] = []

    for cid, (arity, pred) in _BASIC_IDENTITIES.items():
        render = {1: lambda A, x: {"x": A.labels[x]},
                  2: _pair_witness, 3: _triple_witness}[arity]
        claims.append(Claim(cid, _BASIC_STATEMENTS[cid],
                            _tuple_claim(arity, pred, render)))

    def p241(A):
        idems = A.idempotents()
        for e in idems:
            if A.mul[e][e] != e:
                return False, {"e": A.labels[e]}, len(idems)
        return True, None, len(idems)

    def p242(A):
        count = 0
        for e in A.idempotents():
            for x, y in product(range(A.n), repeat=2):
                count += 1
                lhs = A.mul[e][A.imp[x][y]]
                rhs = A.mul[e][A.imp[A.mul[e][x]][A.mul[e][y]]]
                if lhs != rhs:
                    return False, {"e": A.labels[e], "x": A.labels[x],
                                   "y": A.labels[y]}, count
        return True, None, count

    claims.append(Claim("P2.4.1", "center members are idempotent", p241))
    claims.append(Claim("P2.4.2",
                        "center members commute with residuation", p242))

    claims.append(Claim("P3.4.1",
                        "stabilizers of a set are intersections over singletons",
                        _cross_route("imp", impl_left, impl_right)))
    claims.append(Claim("P3.4.2", "stabilizers are antitone in the subset",
                        _antitone_check((("left", impl_left),
                                         ("right", impl_right),
                                         ("stab", impl_stab)))))
    claims.append(Claim("P3.4.3",
                        "right stabilizer is blind to filter generation",
                        _blind_to_generation(impl_right)))
    claims.append(Claim("P3.4.4",
                        "all three stabilizers are everything only for {top}",
                        _subset_claim(_p344)))
    claims.append(Claim("P3.4.5",
                        "stabilizers of the full carrier are {top}", _p345))
    claims.append(Claim("P3.4.6",
                        "right and two-sided stabilizers of {bot} are {top}",
                        _p346))
    claims.append(Claim("P3.4.7",
                        "right stabilizers are closed under meet, imp, join",
                        _subset_claim(_p347)))
    claims.append(Claim("P3.4.8", "left stabilizers are filters",
                        _left_is_filter(impl_left)))
    claims.append(Claim("P3.4.9",
                        "generated filter meets right stabilizer in {top}",
                        _subset_claim(_p349)))

    claims.append(Claim("T3.6", "five conditions stand or fall together",
                        _bundle_claim((
                            ("left-of-generated", _cond_left_of_generated),
                            ("exchange-fixpoints", _cond_exchange_fixpoints),
                            ("right-always-filter", _cond_right_always_filter),
                            ("singleton-stabs-agree", _cond_singleton_stabs_agree),
                            ("left-right-equal", _cond_left_right_equal),
                        ))))

    claims.append(Claim("P3.9-godel-center-r",
                        "right stabilizer of the bot-annihilators is a subalgebra",
                        _p39_center_right, applies=is_godel))
    claims.append(Claim("T3.9-ortho",
                        "join co-annihilator equals the two-sided stabilizer",
                        _subset_claim(_t39_ortho)))
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
                        _subset_claim(_t315_mv), applies=is_mv))
    claims.append(Claim("T3.16-bl",
                        "on BL algebras seven conditions stand together",
                        _bundle_claim((
                            ("mv", is_mv),
                            ("all-stabs-coann", _cond_all_stabs_coann),
                            ("bot-stabs-agree", imtl_by_stabilizers),
                            ("left-of-generated", _cond_left_of_generated),
                            ("exchange-fixpoints", _cond_exchange_fixpoints),
                            ("right-always-filter", _cond_right_always_filter),
                            ("singleton-stabs-agree", _cond_singleton_stabs_agree),
                        )), applies=is_bl))
    claims.append(Claim("P3.17-rs",
                        "if every filter is its own double right stabilizer,"
                        " the algebra is MV",
                        _p317_check, applies=is_bl))
    claims.append(Claim("Q-godel-xr-union-subalg",
                        "right stabilizer plus bot is a subalgebra",
                        _subset_claim(_q_subalg), applies=is_godel,
                        expected="refutable", documented=_documented_at(("b",), _q_subalg)))

    claims.append(Claim("P4.3.1",
                        "mul stabilizers of a set are intersections over"
                        " singletons", _cross_route("mul", mult_left, mult_right)))
    claims.append(Claim("P4.3.2", "mul stabilizers are antitone in the subset",
                        _antitone_check((("left", mult_left),
                                         ("right", mult_right),
                                         ("stab", mult_stab)))))
    claims.append(Claim("P4.3.3",
                        "right mul stabilizer is blind to filter generation",
                        _blind_to_generation(mult_right)))
    claims.append(Claim("P4.3.4",
                        "the {bot} shape (left everything, right {bot})"
                        " characterizes {bot}", _subset_claim(_p434)))
    claims.append(Claim("P4.3.5",
                        "all three mul stabilizers of {top} are {top}",
                        _p435, expected="refutable"))
    claims.append(Claim("P4.3.6", "the two-sided mul stabilizer returns X",
                        _subset_claim(_p436), expected="refutable",
                        documented=_documented_at(("a", "b"), _p436)))
    claims.append(Claim("P4.3.7", "left mul stabilizers are filters",
                        _left_is_filter(mult_left)))
    claims.append(Claim("P4.3.8",
                        "mul stabilizers are closed under join and mul",
                        _subset_claim(_p438)))
    claims.append(Claim("P4.3.9",
                        "elements in both right stabilizers satisfy the"
                        " divisibility-style equations", _subset_claim(_p439)))
    claims.append(Claim("P4.3.10",
                        "on BL algebras the double stabilizers sit inside the"
                        " principal bounds", _subset_claim(_p4310),
                        applies=is_bl))
    claims.append(Claim("P4.3.11",
                        "membership in a center operator that is undefined"
                        " for proper subsets", _not_evaluable,
                        expected="not-evaluable"))
    claims.append(Claim("P4.6-bl-ideal",
                        "on BL algebras right mul stabilizers are lattice"
                        " ideals", _subset_claim(_p46), applies=is_bl))

    claims.append(Claim("T4.7-left-alg",
                        "left stabilizer of an idempotent carries an algebra"
                        " with bot x", _induced_claim(left_mult_algebra)))
    claims.append(Claim("T4.8-right-alg",
                        "right stabilizer of an idempotent carries an algebra"
                        " with top x", _induced_claim(right_mult_algebra)))
    claims.append(Claim("T4.9-godel",
                        "idempotent mul matches upset/downset stabilizers",
                        _bundle_claim((
                            ("mul-is-meet", is_godel),
                            ("left-stabs-are-upsets", godel_by_left_stabilizers),
                            ("right-stabs-are-downsets", godel_by_right_stabilizers),
                        ))))
    claims.append(Claim("T4.10-godel-chain",
                        "linear idempotent algebras match prime stabilizers",
                        _bundle_claim((
                            ("linear-godel", lambda A: is_godel(A) and is_chain(A)),
                            ("left-route", _godel_chain_left),
                            ("right-route", _godel_chain_right),
                            ("library-route", godel_chain_by_stabilizers),
                        ))))
    claims.append(Claim("T4.11-order-iso",
                        "right stabilizers are order isomorphic at idempotents",
                        _t411))
    claims.append(Claim("T4.12-mv-iso",
                        "on MV algebras left and right-mul stabilizers are"
                        " order isomorphic", _t412, applies=is_mv))

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
    ids = claim_ids()
    return pmap(_VerifyTask(A), ids, jobs)


class _VerifyTask:
    """Picklable single-claim verification, for worker pools."""

    def __init__(self, algebra: FiniteMtlAlgebra):
        self.algebra = algebra

    def __call__(self, claim_id: str) -> ClaimOutcome:
        return verify_claim(self.algebra, claim_id)


# ---------------------------------------------------------------------------
# Documented divergences: subsets whose published stabilizer values follow a
# pointwise (union) reading of the definition instead of the universally
# quantified one.  verify reports both values with a mismatch flag whenever
# the algebra at hand is one of the affected fixtures.

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
)

_OPS = dict(SUITE_ORDER)


def _same_tables(A: FiniteMtlAlgebra, B: FiniteMtlAlgebra) -> bool:
    return (A.labels == B.labels and A.mul == B.mul and A.imp == B.imp
            and A.bot == B.bot and A.top == B.top)


def documented_divergences(A: FiniteMtlAlgebra) -> list[dict[str, str]]:
    """Divergence records applying to this algebra, rendered for reports."""
    from .fixtures import load_fixture

    names = dict.fromkeys(div.fixture for div in DIVERGENCES)
    matching = {name for name in names if _same_tables(A, load_fixture(name))}
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
