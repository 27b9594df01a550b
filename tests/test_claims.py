import pytest

from mtlstab import fixtures as fixtures_module
from mtlstab import from_labels, impl_left, mult_right, mult_stab, singleton
from mtlstab.claims import (
    UnknownClaimError,
    claim_ids,
    documented_divergences,
    outcome_report,
    verify_all,
    verify_claim,
)
from mtlstab.search import enumerate_all


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
    loaded = []
    real_load = fixtures_module.load_fixture

    def counting_load(name):
        loaded.append(name)
        return real_load(name)

    monkeypatch.setattr(fixtures_module, "load_fixture", counting_load)
    a4 = documented_divergences(fixtures["a4"])
    assert sorted(loaded) == ["a4", "c5"]  # each fixture parsed once per call
    assert {(d["op"], d["computed"], d["reported"], d["match"]) for d in a4} == {
        ("mult_left", "1", "b,1", "false"),
        ("mult_right", "0", "0,b", "false"),
        ("mult_stab", "∅", "b", "false"),
    }
    c5 = documented_divergences(fixtures["c5"])
    assert [(d["op"], d["computed"], d["reported"], d["match"]) for d in c5] == [
        ("mult_right", "0,a", "0,a,c", "false"),
    ]
    assert documented_divergences(fixtures["g6"]) == []


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
