import dataclasses
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import product

import pytest

from conftest import (antitone_all_pairs_oracle, every_subset_oracle,
                      full_scan_oracle, open3_scan_oracle, oracle_corpus,
                      relabel)
from mtlstab import claims as claims_module
from mtlstab import classify as classify_module
from mtlstab import core, induced
from mtlstab import fixtures as fixtures_module
from mtlstab import stabilizers
from mtlstab import (Subset, all_filters, from_labels, generated_filter,
                     impl_left, impl_right, impl_stab, is_filter, mult_left,
                     mult_right, mult_stab, ortho, singleton)
from mtlstab.claims import (
    REGISTRY,
    UnknownClaimError,
    _DECISIONS,
    _IDENTITIES,
    _Rows,
    _antitone_check,
    _blind_to_generation,
    _cond_all_stabs_coann,
    _cond_left_of_generated,
    _cond_right_always_filter,
    _cross_route,
    _identity_claim,
    _left_is_filter,
    _p344,
    _p347,
    _p349,
    _p434,
    _p436,
    _p438,
    _p439,
    _p4310,
    _p46,
    _q_subalg,
    _t315_mv,
    _t39_ortho,
    claim_ids,
    documented_divergences,
    outcome_report,
    verify_all,
    verify_claim,
)
from mtlstab.induced import _build, _side, _validates, left_mult_algebra
from mtlstab.search import (FAMILIES, enumerate_all, gen_family, open1_scan,
                            open2_premise, open3_scan)


def test_registry_size_and_ids():
    ids = claim_ids()
    assert len(ids) >= 48
    for required in ("P2.2.1", "P2.2.10", "P2.4.2", "P3.4.9", "T3.6",
                     "P3.9-godel-center-r", "T3.9-ortho", "T3.10-imtl",
                     "T3.11-integral", "T3.15-mv", "T3.16-bl", "P3.17-rs",
                     "Q-godel-xr-union-subalg", "P4.3.11", "P4.6-bl-ideal",
                     "T4.7-left-alg", "T4.8-right-alg", "T4.9-godel",
                     "T4.10-godel-chain", "T4.11-order-iso", "T4.12-mv-iso"):
        assert required in ids


def test_unknown_claim_rejected(fixtures):
    with pytest.raises(UnknownClaimError):
        verify_claim(fixtures["a4"], "no-such-claim")


def test_ortho_claim_holds_on_a4(fixtures):
    outcome = verify_claim(fixtures["a4"], "T3.9-ortho")
    assert outcome.verdict == "holds"
    assert outcome.scope == 15


def test_expected_refutation_p436(fixtures):
    a4 = fixtures["a4"]
    outcome = verify_claim(a4, "P4.3.6")
    assert outcome.verdict == "refuted"
    assert outcome.witness["X"] == "a,b"
    assert outcome.witness["stab"] == "∅"
    # the witness replays
    X = from_labels(a4, outcome.witness["X"])
    assert mult_stab(a4, X) != X


def test_expected_refutation_p435(small_corpus):
    for A in small_corpus.values():
        outcome = verify_claim(A, "P4.3.5")
        assert outcome.verdict == "refuted"
        assert outcome.witness["right-of-top"] == ",".join(A.labels)


def test_expected_refutation_q_on_g6(fixtures):
    outcome = verify_claim(fixtures["g6"], "Q-godel-xr-union-subalg")
    assert outcome.verdict == "refuted"
    assert outcome.witness["X"] == "b"
    assert outcome.witness["set"] == "0,a,1"
    assert outcome.witness["violation"] == "imp(a,0)=d"


def test_not_applicable_semantics(fixtures):
    a4 = fixtures["a4"]
    assert verify_claim(a4, "T3.15-mv").verdict == "not-applicable"
    assert verify_claim(a4, "T3.16-bl").verdict == "not-applicable"
    assert verify_claim(a4, "Q-godel-xr-union-subalg").verdict == "not-applicable"
    assert verify_claim(a4, "P4.3.11").verdict == "not-applicable"
    assert verify_claim(fixtures["m6"], "T3.15-mv").verdict == "holds"


def test_verify_all_on_fixtures(small_corpus):
    expected_refutable = {"P4.3.5", "P4.3.6", "Q-godel-xr-union-subalg"}
    for name, A in small_corpus.items():
        outcomes = verify_all(A)
        assert len(outcomes) >= 48
        assert [o.claim for o in outcomes] == sorted(o.claim for o in outcomes)
        for o in outcomes:
            assert o.verdict in ("holds", "refuted", "not-applicable")
            if o.verdict == "refuted":
                assert o.claim in expected_refutable, (name, o.claim, o.witness)
                assert o.witness is not None
        # regression guard: the expected refutations are present
        by_id = {o.claim: o for o in outcomes}
        assert by_id["P4.3.5"].verdict == "refuted"
        assert by_id["P4.3.6"].verdict == "refuted"


def test_verify_all_deterministic(fixtures):
    a4 = fixtures["a4"]
    assert verify_all(a4) == verify_all(a4)


def test_bundles_on_fixtures(small_corpus):
    for name, A in small_corpus.items():
        assert verify_claim(A, "T3.6").verdict == "holds", name
        t316 = verify_claim(A, "T3.16-bl")
        assert t316.verdict in ("holds", "not-applicable"), (name, t316.witness)


def test_divergence_records(fixtures, monkeypatch):
    def records(name):
        found = documented_divergences(fixtures[name])
        return [(d["op"], d["X"], d["computed"], d["reported"], d["match"])
                for d in found]

    # The ledger fixtures are parsed at most once per process: after one
    # warm-up call, no call parses a fixture.
    records("g6")
    loaded = []

    def counting(real):
        def load(name):
            loaded.append(name)
            return real(name)
        return load

    for loader in ("load_fixture", "load_fixture_raw"):
        monkeypatch.setattr(fixtures_module, loader,
                            counting(getattr(fixtures_module, loader)))

    a4 = records("a4")
    assert set(a4) == {
        ("mult_left", "a,b", "1", "b,1", "false"),
        ("mult_right", "a,b", "0", "0,b", "false"),
        ("mult_stab", "a,b", "∅", "b", "false"),
    }
    assert records("c5") == [("mult_right", "a,c", "0,a", "0,a,c", "false")]
    assert records("a5") == [("impl_left", "b,1", "a,1", "1", "false")]
    assert records("m6") == [("generated_filter", "a,1", "a,b,1", "a,1", "false")]
    assert records("g6") == []
    # n5 is a5 with its carrier listed as 0,c,a,b,1.
    assert records("n5") == [("impl_left", "b,1", "a,1", "1", "false")]
    assert loaded == []


@pytest.mark.parametrize("name,count", [("a4", 3), ("a5", 1), ("c5", 1),
                                        ("m6", 1)])
def test_divergence_records_survive_carrier_reordering(fixtures, name, count):
    # Rendering follows carrier order, so subsets are compared as label sets.
    def records(A):
        return {(d["op"], d["match"], *(frozenset(d[k].split(","))
                                        for k in ("X", "computed", "reported")))
                for d in documented_divergences(A)}

    A = fixtures[name]
    order = list(range(A.n))
    random.Random(3).shuffle(order)
    B = relabel(A, order)
    assert B.labels != A.labels
    assert len(records(A)) == count
    assert records(B) == records(A)


def test_outcome_report_failure_accounting(fixtures):
    a4 = fixtures["a4"]
    outcomes = verify_all(a4)
    report = outcome_report(outcomes, documented_divergences(a4))
    assert report.failures == sum(1 for o in outcomes if o.verdict == "refuted")
    types = {t for t, _, _ in report.records}
    assert {"claim", "witness", "scope", "discrepancy"} <= types


def test_refutations_on_enumerated_corpus():
    # Beyond the two claims carrying refutable metadata, the size-4 sweep
    # turns up models where the involutive-negation characterization splits:
    # the bot stabilizers collapse to {top} without negation being an
    # involution.  Anything else refuted here would be a regression.
    from mtlstab.classify import imtl_by_stabilizers, is_imtl

    seen_t310_split = False
    for A in enumerate_all(4):
        for outcome in verify_all(A):
            if outcome.verdict != "refuted":
                continue
            if outcome.expected == "refutable":
                continue
            assert outcome.claim == "T3.10-imtl", (
                A.name, outcome.claim, outcome.witness)
            assert is_imtl(A) != imtl_by_stabilizers(A)
            seen_t310_split = True
    assert seen_t310_split


@pytest.mark.parametrize("claim_id,op,part", [
    ("P3.4.1", impl_left, "left"),
    ("P4.3.1", mult_right, "right"),
])
def test_cross_route_catches_corrupted_singleton_mask(claim_id, op, part):
    # A fresh validated copy, so the shared session fixtures keep their caches.
    A = fixtures_module.load_fixture("a4")
    zero = singleton(A, A.bot)
    literal = op(A, zero)
    assert verify_claim(A, claim_id).verdict == "holds"
    masks = list(A._mask_cache()[op.__name__])
    masks[A.bot] ^= 1 << A.top
    A._mask_cache()[op.__name__] = tuple(masks)
    corrupted = op(A, zero)
    assert corrupted.bits == literal.bits ^ 1 << A.top
    outcome = verify_claim(A, claim_id)
    assert outcome.verdict == "refuted"
    assert outcome.witness == {"part": part, "whole": literal.render(),
                               "intersection": corrupted.render(),
                               "X": zero.render()}


# The basic identities and the center identity, restated for the test over
# the raw tables: (claim id, witness names, law on A and an element tuple).
# P2.4.2 ranges e over the idempotents only.
def _neg(A, x):
    return A.imp[x][A.bot]


IDENTITY_LAWS = [
    ("P2.2.1", "xy", lambda A, x, y: (A.meet[x][y] == x) == (A.imp[x][y] == A.top)),
    ("P2.2.2", "xy", lambda A, x, y: A.meet[A.mul[x][y]][A.meet[x][y]] == A.mul[x][y]),
    ("P2.2.3", "xyz", lambda A, x, y, z:
     A.imp[x][A.meet[y][z]] == A.meet[A.imp[x][y]][A.imp[x][z]]),
    ("P2.2.4", "xyz", lambda A, x, y, z:
     A.imp[A.join[x][y]][z] == A.meet[A.imp[x][z]][A.imp[y][z]]),
    ("P2.2.5", "xy", lambda A, x, y: A.imp[x][y] == A.imp[x][A.meet[x][y]]),
    ("P2.2.6", "xy", lambda A, x, y: A.imp[x][y] == A.imp[A.join[x][y]][y]),
    ("P2.2.7", "xyz", lambda A, x, y, z:
     A.imp[A.meet[x][y]][z] == A.join[A.imp[x][z]][A.imp[y][z]]),
    ("P2.2.8", "xy", lambda A, x, y:
     A.join[x][y] == A.meet[A.imp[A.imp[x][y]][y]][A.imp[A.imp[y][x]][x]]),
    ("P2.2.9", "xy", lambda A, x, y: A.meet[x][A.imp[y][x]] == x),
    ("P2.2.10", "x", lambda A, x: _neg(A, x) == _neg(A, _neg(A, _neg(A, x)))),
    ("P2.2.11", "x", lambda A, x: A.mul[x][_neg(A, x)] == A.bot),
    ("P2.2.12", "xy", lambda A, x, y: A.meet[x][A.imp[A.imp[x][y]][y]] == x),
    ("P2.4.2", "exy", lambda A, e, x, y: A.mul[e][e] != e
     or A.mul[e][A.imp[x][y]] == A.mul[e][A.imp[A.mul[e][x]][A.mul[e][y]]]),
]


def _first_failure(A, names, law):
    return next((t for t in product(range(A.n), repeat=len(names))
                 if not law(A, *t)), None)


def _one_entry_corruptions(A):
    """Copies of A, still flagged validated, with one mul or imp entry
    changed, in (table, row, column, new value) order."""
    for table, x, y in product(("mul", "imp"), range(A.n), range(A.n)):
        rows = getattr(A, table)
        for v in range(A.n):
            if v != rows[x][y]:
                changed = tuple(tuple(v if (i, j) == (x, y) else rows[i][j]
                                      for j in range(A.n)) for i in range(A.n))
                yield dataclasses.replace(A, **{table: changed})


@pytest.mark.parametrize("claim_id,names,law", IDENTITY_LAWS,
                         ids=[claim_id for claim_id, _, _ in IDENTITY_LAWS])
def test_identity_claims_refute_a_corrupted_table(fixtures, claim_id, names, law):
    a4 = fixtures["a4"]
    assert _first_failure(a4, names, law) is None
    assert verify_claim(a4, claim_id).verdict == "holds"
    B, witness = next((B, w) for B in _one_entry_corruptions(a4)
                      if (w := _first_failure(B, names, law)) is not None)
    assert B.validated
    outcome = verify_claim(B, claim_id)
    assert outcome.verdict == "refuted"
    assert outcome.witness == {v: B.labels[t] for v, t in zip(names, witness)}
    # The scope counts the tuples a pointwise scan visits up to the witness.
    assert verify_claim(a4, claim_id).scope == _tuples_scanned(a4, names, law)
    assert outcome.scope == _tuples_scanned(B, names, law)


def _identity_scan(claim_id):
    """The tuple scan that explains a refuted identity claim: the claim with
    a decision that never holds."""
    _, names, law = _IDENTITIES[claim_id]
    return _identity_claim(names, law, lambda R: False)


def test_identity_decisions_match_row_scans_on_corrupted_tables(fixtures):
    # One entry of one of the four tables changed, built directly as in
    # test_properties: the bytes decision and the tuple scan give the same
    # verdict, and the claim the scan's witness and scope (all tuples when
    # it holds).
    rng = random.Random(26)
    algebras = list(fixtures.values()) + [gen_family(f, 9) for f in FAMILIES]
    verdicts = Counter()
    for _ in range(1200):
        A = rng.choice(algebras)
        name = rng.choice(("mul", "imp", "meet", "join"))
        x, y = rng.randrange(A.n), rng.randrange(A.n)
        rows = [list(row) for row in getattr(A, name)]
        rows[x][y] = rng.choice([v for v in range(A.n) if v != rows[x][y]])
        B = dataclasses.replace(A, **{name: tuple(map(tuple, rows))})
        for claim_id, decide in _DECISIONS.items():
            scan = _identity_scan(claim_id)(B)
            assert decide(_Rows(B)) == scan[0], (B.name, name, x, y, claim_id)
            assert REGISTRY[claim_id].check(B) == scan
            verdicts[claim_id, scan[0]] += 1
    for claim_id in _DECISIONS:
        assert verdicts[claim_id, True] > 10 and verdicts[claim_id, False] > 10, \
            (claim_id, verdicts)


def _tuples_scanned(A, names, law):
    """The tuples a pointwise scan visits, up to and including the first
    failure; e ranges over the idempotents only."""
    first = A.idempotents() if names[0] == "e" else range(A.n)
    tuples = list(product(first, *[range(A.n)] * (len(names) - 1)))
    return next((i for i, t in enumerate(tuples, 1) if not law(A, *t)), len(tuples))


# -- antitone claims: covering pairs against the all-pairs oracle -----------

ANTITONE_PARTS = (
    (("left", impl_left), ("right", impl_right)),
    (("left", impl_left), ("right", impl_right), ("stab", impl_stab)),
    (("left", mult_left), ("right", mult_right)),
    (("left", mult_left), ("right", mult_right), ("stab", mult_stab)),
)


def _antitone_corpus(source):
    if source == "families":
        return [gen_family(f, 9) for f in FAMILIES]
    return oracle_corpus(source)


@pytest.mark.parametrize("source", ["fixtures", "families"]
                         + [f"all:{n}" for n in range(2, 6)]
                         + [f"chains:{n}" for n in range(2, 7)])
def test_antitone_check_matches_all_pairs_oracle(source):
    for A in _antitone_corpus(source):
        for parts in ANTITONE_PARTS:
            assert _antitone_check(parts)(A) == \
                antitone_all_pairs_oracle(parts)(A), A.name


def _fake_operator(rng, n):
    """An intersection of random one-point masks, antitone by construction,
    with one element a added to its value at a random two-member Y = {y0,
    y1}, and also at {y1} when j = 1.  Only pairs (X, Y) can fail, and the
    first that does is (Y minus y_j, Y) unless a already lies in the value
    there."""
    masks = [rng.getrandbits(n) for _ in range(n)]
    members = sorted(rng.sample(range(n), 2))
    ybits = 1 << members[0] | 1 << members[1]
    j, a = rng.randrange(2), rng.randrange(n)
    widened = [ybits ^ 1 << y for y in members[:j]]

    def op(A, X):
        bits = (1 << n) - 1
        for x in X.members():
            bits &= masks[x]
        if X.bits == ybits or any(X.bits & ~w == 0 for w in widened):
            bits |= 1 << a
        return Subset(A, bits)
    return op


def test_antitone_check_matches_oracle_on_fake_operators():
    # Corrupting a one-point mask leaves an intersection antitone, so the
    # fakes widen the values of whole two-member sets instead: the covering
    # pairs are checked on those only (the values of larger sets are pinned
    # by test_stabilizers), and the scope counts every pair.
    rng = random.Random(12)
    algebras = [gen_family("lukasiewicz", n) for n in range(2, 8)]
    parts_seen, depths, held = set(), set(), 0
    for _ in range(1500):
        A = rng.choice(algebras)
        parts = tuple((name, _fake_operator(rng, A.n))
                      for name in ("left", "right", "stab")[:rng.randint(1, 3)])
        outcome = _antitone_check(parts)(A)
        oracle = antitone_all_pairs_oracle(parts)(A)
        if outcome[0]:
            assert outcome == oracle
            held += 1
            continue
        assert outcome[:2] == oracle[:2]
        witness = outcome[1]
        parts_seen.add(witness["part"])
        Y, X = witness["Y"].split(","), witness["X"].split(",")
        depths.add(next(j for j, y in enumerate(Y) if y not in X))
    assert parts_seen == {"left", "right", "stab"}
    assert depths == {0, 1}
    assert 0 < held < 500


@pytest.mark.parametrize("n", range(2, 13))
def test_antitone_scope_counts_every_pair(n):
    A = gen_family("lukasiewicz", n)
    for claim_id in ("P3.4.2", "P4.3.2"):
        outcome = verify_claim(A, claim_id)
        assert (outcome.verdict, outcome.scope) == \
            ("holds", 3 ** n - 2 ** (n + 1) + 1)


@pytest.mark.parametrize("family,n", [("lukasiewicz", 20), ("godel", 26)])
def test_antitone_claims_are_bounded_when_sampled(family, n):
    # No subset is sampled any more: past the full scan's reach the scope
    # is still the closed-form count of every pair, within the time bound.
    A = gen_family(family, n)
    start = time.monotonic()
    outcomes = [verify_claim(A, cid) for cid in ("P3.4.2", "P4.3.2")]
    assert time.monotonic() - start < 10.0
    assert [(o.verdict, o.scope) for o in outcomes] == \
        [("holds", 3 ** n - 2 ** (n + 1) + 1)] * 2


# -- subset claims on small domains against the full subset scan ----------

# Each claim that `_claim_on` scans over a small domain, with the pred that
# the full scan over every nonempty subset evaluates: the singletons, then
# the singletons and pairs (P3.4.3, P4.3.3), then the domains of P3.4.9,
# P4.3.4 and P4.3.6.
DOMAIN_CLAIMS = {
    "P3.4.1": _cross_route("imp", impl_left, impl_right),
    "P3.4.4": _p344,
    "P3.4.7": _p347,
    "P3.4.8": _left_is_filter(impl_left),
    "T3.9-ortho": _t39_ortho,
    "T3.15-mv": _t315_mv,
    "Q-godel-xr-union-subalg": _q_subalg,
    "P4.3.1": _cross_route("mul", mult_left, mult_right),
    "P4.3.7": _left_is_filter(mult_left),
    "P4.3.8": _p438,
    "P4.3.9": _p439,
    "P4.3.10": _p4310,
    "P4.6-bl-ideal": _p46,
    "P3.4.3": _blind_to_generation(impl_right),
    "P4.3.3": _blind_to_generation(mult_right),
    "P3.4.9": _p349,
    "P4.3.4": _p434,
    "P4.3.6": _p436,
}

# The claims whose domain holds a failing X but, under corrupted masks, not
# always the full scan's first: there the witness is some failing X.
ANY_FAILING_WITNESS = {"P3.4.9", "P4.3.4"}

# Each bundle condition settled on the singletons (left-of-generated on the
# singletons and pairs), with the former condition, two-sided stabilizer
# included, scanned over every subset.
DOMAIN_CONDITIONS = (
    (_cond_left_of_generated,
     lambda A, X: impl_left(A, X) == impl_left(A, generated_filter(A, X))),
    (_cond_right_always_filter, lambda A, X: is_filter(A, impl_right(A, X))),
    (_cond_all_stabs_coann, lambda A, X: impl_left(A, X) == impl_right(A, X)
     == impl_stab(A, X) == ortho(A, X)),
    (open2_premise, lambda A, X: impl_left(A, X) == impl_right(A, X)),
)


def _domain_routes_agree(A, exact=True):
    """Verdict, witness and scope of each claim, and each condition's value,
    agree with the full scan; the outcomes, for the caller to tally.  Unless
    `exact`, the claims in ANY_FAILING_WITNESS need only name a witness X
    on which their pred fails, with that witness."""
    assert A.n <= 16
    outcomes = []
    for claim_id, pred in DOMAIN_CLAIMS.items():
        outcome = REGISTRY[claim_id].check(A)
        oracle = full_scan_oracle(pred)(A)
        if exact or claim_id not in ANY_FAILING_WITNESS or outcome[0]:
            assert outcome == oracle, (A.name, claim_id)
        else:
            assert (outcome[0], outcome[2]) == (oracle[0], oracle[2])
            X = from_labels(A, outcome[1]["X"])
            assert {**pred(A, X), "X": X.render()} == outcome[1], claim_id
        outcomes.append(outcome)
    for condition, pred in DOMAIN_CONDITIONS:
        assert condition(A) == every_subset_oracle(pred)(A), A.name
    return outcomes


def _singleton_corpus(source):
    if source == "families":
        return [gen_family(f, n) for f in FAMILIES for n in range(2, 13)]
    return oracle_corpus(source)


@pytest.mark.parametrize("source", ["fixtures", "families"]
                         + [f"all:{n}" for n in range(2, 7)]
                         + [f"chains:{n}" for n in range(2, 8)])
def test_singleton_claims_match_full_scan(source):
    rng = random.Random(source)
    for A in _singleton_corpus(source):
        order = list(range(A.n))
        rng.shuffle(order)
        for B in (A, relabel(A, order)):
            _domain_routes_agree(B)


STAB_OPS = {op.__name__: op
            for op in (impl_left, impl_right, mult_left, mult_right, ortho)}


@contextmanager
def _corrupted_masks(A, rng):
    """Flips up to two bits of A's cached one-point masks of each operator,
    and restores them on exit."""
    cache = A._mask_cache()
    saved = {name: cache[name] for name in STAB_OPS}
    for name in STAB_OPS:
        masks = list(saved[name])
        for _ in range(rng.choice((0, 0, 1, 2))):
            masks[rng.randrange(A.n)] ^= 1 << rng.randrange(A.n)
        cache[name] = tuple(masks)
    try:
        yield
    finally:
        cache.update(saved)


def test_singleton_claims_match_full_scan_on_corrupted_masks():
    # A corrupted one-point mask leaves every value an intersection of
    # one-point values, so each domain must still settle every subset.
    rng = random.Random(14)
    algebras = ([fixtures_module.load_fixture(name) for name in ("a4", "g6", "m6")]
                + [gen_family(f, n) for f in FAMILIES for n in range(2, 6)])
    for A, op in product(algebras, STAB_OPS.values()):
        op(A, singleton(A, 0))  # fills the mask cache
    held = refuted = several = 0
    for _ in range(1200):
        A = rng.choice(algebras)
        with _corrupted_masks(A, rng):
            outcomes = _domain_routes_agree(A, exact=False)
            for (ok, _, _), pred in zip(outcomes, DOMAIN_CLAIMS.values()):
                held += ok
                refuted += not ok
                # Where two singletons fail, only the ascending order finds
                # the full scan's witness.
                several += sum(pred(A, singleton(A, x)) is not None
                               for x in range(A.n)) > 1
    assert held > 1000 and refuted > 1000 and several > 1000


def test_induced_claims_report_corrupted_masks_and_never_raise():
    # A wrong one-point mask can give a carrier that is closed but lacks x,
    # bot or top, or tables that construct refuses; T4.7/T4.8 refute with
    # the reason, open3_scan skips x, and nothing raises.
    rng = random.Random(19)
    algebras = ([fixtures_module.load_fixture(name) for name in ("a4", "g6", "i6", "m6")]
                + [gen_family(f, n) for f in FAMILIES for n in range(2, 7)])
    for A, op in product(algebras, STAB_OPS.values()):
        op(A, singleton(A, 0))  # fills the mask cache
    t4 = [cid for cid in claim_ids() if cid.startswith("T4.")]
    reasons = Counter()
    for _ in range(1200):
        A = rng.choice(algebras)
        with _corrupted_masks(A, rng):
            for cid in t4:
                witness = verify_claim(A, cid).witness or {}
                if cid in ("T4.7-left-alg", "T4.8-right-alg") and "reason" in witness:
                    reasons["missing" if "not in the carrier" in witness["reason"]
                            else "construct"] += 1
            assert open3_scan(A) == open3_scan_oracle(A)
    assert reasons["missing"] > 10 and reasons["construct"] > 100


def test_validates_decides_build_on_corrupted_masks():
    # The corpus and seed of the test above: on any carrier a wrong mask
    # gives, the check agrees with the build on both sides of every idempotent.
    rng = random.Random(19)
    algebras = ([fixtures_module.load_fixture(name) for name in ("a4", "g6", "i6", "m6")]
                + [gen_family(f, n) for f in FAMILIES for n in range(2, 7)])
    for A, op in product(algebras, STAB_OPS.values()):
        op(A, singleton(A, 0))  # fills the mask cache
    verdicts = Counter()
    for _ in range(1200):
        A = rng.choice(algebras)
        with _corrupted_masks(A, rng):
            for x in A.idempotents():
                for args in (_side(A, x, 0), _side(A, x, 1)):
                    verdict = _validates(*args)
                    assert verdict == _build(*args).ok, (A.name, x)
                    verdicts[verdict] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def _witness_kind(witness):
    if "violation" in witness:
        return "escape"
    if "axiom" in witness:
        return "axiom"
    return "missing" if "not in the carrier" in witness["reason"] else "construct"


def test_induced_claim_witnesses_of_each_kind_on_corrupted_masks():
    # The corpus and seed of the test above: each of the four ways a T4.7/
    # T4.8 build fails occurs, and the first witness of each kind is pinned.
    rng = random.Random(19)
    algebras = ([fixtures_module.load_fixture(name) for name in ("a4", "g6", "i6", "m6")]
                + [gen_family(f, n) for f in FAMILIES for n in range(2, 7)])
    for A, op in product(algebras, STAB_OPS.values()):
        op(A, singleton(A, 0))  # fills the mask cache
    kinds, first = Counter(), {}
    for _ in range(1200):
        A = rng.choice(algebras)
        with _corrupted_masks(A, rng):
            for cid in ("T4.7-left-alg", "T4.8-right-alg"):
                witness = verify_claim(A, cid).witness
                if witness:
                    kinds[_witness_kind(witness)] += 1
                    first.setdefault(_witness_kind(witness), (A.name, cid, witness))
    assert kinds == {"escape": 318, "missing": 26, "construct": 261, "axiom": 33}
    assert first == {
        "construct": ("m6", "T4.7-left-alg", {
            "x": "1", "reason": "bad bot/top pair (1, 1) for carrier size 2"}),
        "escape": ("m6", "T4.7-left-alg", {
            "x": "0", "violation": "imp(a,0)=d leaves the carrier"}),
        "missing": ("godel5", "T4.7-left-alg", {
            "x": "b", "reason": "b is not in the carrier"}),
        "axiom": ("godel5", "T4.7-left-alg", {
            "x": "c", "axiom": "lattice.bounds", "witness": "(0,)"}),
    }


def test_empty_one_point_values_refute_and_never_raise():
    # A wrong one-point mask can make impl_right of a filter, or
    # impl_left({bot}), empty; P3.17-rs and P3.9-godel-center-r refute with
    # a reason, open1_scan skips that filter, and nothing raises.
    rng = random.Random(20)
    algebras = ([fixtures_module.load_fixture(name) for name in ("a4", "g6", "m6")]
                + [gen_family(f, n) for f in FAMILIES for n in range(2, 7)])
    for A, op in product(algebras, STAB_OPS.values()):
        op(A, singleton(A, 0))  # fills the mask cache
    reasons = Counter()
    for _ in range(1500):
        A = rng.choice(algebras)
        with _corrupted_masks(A, rng):
            for cid in ("P3.17-rs", "P3.9-godel-center-r"):
                witness = verify_claim(A, cid).witness or {}
                reasons[cid] += "reason" in witness
            skipped = [F for F in all_filters(A) if impl_right(A, F).is_empty()]
            reasons["open1"] += bool(skipped)
            found = {f.witness["filter"] for f in open1_scan(A)}
            assert not found & {F.render() for F in skipped}
    assert min(reasons.values()) > 10, reasons


def test_empty_left_stabilizer_of_bot_refutes_p39():
    A = fixtures_module.load_fixture("g6")
    assert verify_claim(A, "P3.9-godel-center-r").verdict == "holds"
    impl_left(A, singleton(A, A.bot))  # fills the mask cache
    masks = list(A._mask_cache()["impl_left"])
    masks[A.bot] = 0
    A._mask_cache()["impl_left"] = tuple(masks)
    outcome = verify_claim(A, "P3.9-godel-center-r")
    assert (outcome.verdict, outcome.witness) == \
        ("refuted", {"reason": "the left stabilizer of {bot} is empty"})


# One verify of each 9-element family chain: calls of `_intersect` and
# checked `Subset` constructions.
HOT_PATH_LIMITS = {"lukasiewicz": (869, 42), "godel": (651, 57),
                   "nilpotent_minimum": (575, 35)}


def test_verify_hot_path_call_counts(monkeypatch):
    # Extra operator calls or checked subsets coming back to the claim scans
    # fail here, not only in the benchmark.
    counts = Counter()
    intersect, new = stabilizers._intersect, Subset.__new__

    def counting_intersect(*args):
        counts["intersect"] += 1
        return intersect(*args)

    def counting_new(cls, *args):
        counts["checked"] += 1
        return new(cls, *args)

    monkeypatch.setattr(stabilizers, "_intersect", counting_intersect)
    monkeypatch.setattr(Subset, "__new__", counting_new)
    for family, (intersections, checked) in HOT_PATH_LIMITS.items():
        A = gen_family(family, 9)
        counts.clear()
        verify_all(A)
        assert counts["intersect"] <= intersections, (family, counts)
        assert counts["checked"] <= checked, (family, counts)


def test_verify_all_builds_and_validates_no_algebra(monkeypatch):
    # T4.7 and T4.8 decide by `induced._validates`, and a valid algebra
    # gives `induced._build` no failure to explain; no claim validates.
    algebras = [gen_family(f, 9) for f in FAMILIES] + [gen_family("godel", 64)]
    calls = Counter()
    for name, real in (("build", induced._build), ("validate", core.validate)):
        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        for module in [m for key, m in sys.modules.items() if key.startswith("mtlstab")]:
            for attr in [a for a, value in vars(module).items() if value is real]:
                monkeypatch.setattr(module, attr, counting)
    for A in algebras:
        outcomes = {o.claim: o for o in verify_all(A)}
        assert {outcomes[c].verdict for c in ("T4.7-left-alg", "T4.8-right-alg")} \
            == {"holds"}, A.name
        assert outcomes["T4.7-left-alg"].scope > 0, A.name
    assert calls == {}
    left_mult_algebra(algebras[0], algebras[0].bot)  # the counters count
    assert calls == {"build": 1, "validate": 1}


def test_verify_all_builds_one_rows_per_algebra(monkeypatch):
    # The 13 identity claims share one `_Rows`, kept in the mask cache; it
    # holds no reference to the algebra, so the cache makes no cycle.
    builds = Counter()

    class CountingRows(_Rows):
        def __init__(self, A):
            builds[A.name] += 1
            super().__init__(A)

    monkeypatch.setattr(claims_module, "_Rows", CountingRows)
    for A in (gen_family("godel", 9), gen_family("godel", 64)):
        verify_all(A)
        verify_all(A)
        assert builds[A.name] == 1, builds
        assert not any(value is A for value in vars(A._mask_cache()["rows"]).values())


def test_t410_runs_each_primality_scan_once(monkeypatch):
    # The library route is the left route and the right route, so the
    # bundle reads it off their values: one primality scan per element.
    calls = Counter()
    real = classify_module.is_prime_lattice_ideal

    def counting(*args):
        calls["prime"] += 1
        return real(*args)

    monkeypatch.setattr(classify_module, "is_prime_lattice_ideal", counting)
    A = gen_family("godel", 9)
    outcome = verify_claim(A, "T4.10-godel-chain")
    assert (outcome.verdict, outcome.witness, outcome.scope) == ("holds", None, 4)
    assert calls["prime"] == A.n
    masks = list(A._fixed_masks("mult_left"))  # the left route now fails
    masks[A.bot] ^= 1 << A.top
    A._mask_cache()["mult_left"] = tuple(masks)
    outcome = verify_claim(A, "T4.10-godel-chain")
    assert (outcome.verdict, outcome.witness, outcome.scope) == ("refuted", {
        "linear-godel": "true", "left-route": "false", "right-route": "true",
        "library-route": "false"}, 4)


def test_p349_domain_finds_a_failing_pair_with_no_failing_member(diamond):
    # With R_a = R_b = {0, 1}, {a} and {b} hold, but {a, b} generates the
    # whole carrier and both right stabilizers hold 0: only S_0 = {a, b, 1}
    # shows it, a failing set other than the full scan's first.  Random
    # corruptions almost never reach such a case.
    A = relabel(diamond, range(4))
    impl_right(A, singleton(A, 0))  # fills the mask cache
    masks = list(A._mask_cache()["impl_right"])
    masks[1] = masks[2] = 0b1001
    A._mask_cache()["impl_right"] = tuple(masks)
    assert all(_p349(A, singleton(A, x)) is None for x in range(A.n))
    ok, witness, scope = REGISTRY["P3.4.9"].check(A)
    oracle = full_scan_oracle(_p349)(A)
    assert (ok, scope, oracle[1]["X"]) == (False, oracle[2], "a,b")
    X = from_labels(A, witness["X"])
    assert X.render() == "a,b,1" and {**_p349(A, X), "X": "a,b,1"} == witness


def test_singleton_claims_are_exact_on_large_carriers():
    # Far past the full scan's reach, each domain settles all 2^n - 1
    # subsets and the antitone claims all 3^n - 2^(n+1) + 1 pairs.
    algebras = [gen_family("lukasiewicz", 20), gen_family("godel", 26),
                gen_family("godel", 64)]
    start = time.monotonic()
    for A in algebras:
        for claim_id in DOMAIN_CLAIMS:
            assert REGISTRY[claim_id].check(A)[2] == (1 << A.n) - 1
        for claim_id in ("P3.4.2", "P4.3.2"):
            assert REGISTRY[claim_id].check(A) == \
                (True, None, 3 ** A.n - 2 ** (A.n + 1) + 1)
        mv = A.name.startswith("lukasiewicz")
        assert [cond(A) for cond, _ in DOMAIN_CONDITIONS] == [mv] * 4
    assert time.monotonic() - start < 5.0
    for A, claim_id in product(algebras, DOMAIN_CLAIMS):
        verdict = verify_claim(A, claim_id).verdict
        assert (verdict == "refuted") == (claim_id == "P4.3.6"), (A.name, claim_id)
