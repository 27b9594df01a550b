import sys
from collections import Counter

from mtlstab import classify as classify_module
from mtlstab import order as order_module
from mtlstab.classify import (
    classify,
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
from mtlstab.fixtures import load_fixture
from mtlstab.search import enumerate_all, gen_family


def test_is_bl(fixtures, boolean2):
    assert not is_bl(fixtures["c5"])
    assert is_bl(fixtures["g6"])
    assert is_bl(boolean2)


def test_is_mv(fixtures, boolean2):
    assert is_mv(fixtures["m6"])
    assert not is_mv(fixtures["a4"])
    assert is_mv(boolean2)


def test_is_godel(fixtures, boolean2):
    assert is_godel(fixtures["g6"])
    assert not is_godel(fixtures["a4"])
    assert is_godel(boolean2)


def test_is_imtl(fixtures, boolean2):
    assert is_imtl(fixtures["i6"])
    assert not is_imtl(fixtures["g6"])
    assert is_imtl(boolean2)


def test_is_integral(fixtures, boolean2):
    assert is_integral_mtl(fixtures["n5"])
    assert not is_integral_mtl(fixtures["a4"])
    assert is_integral_mtl(boolean2)


def test_is_chain(fixtures, boolean2):
    assert is_chain(fixtures["a4"])
    assert not is_chain(fixtures["a5"])
    assert is_chain(boolean2)


def test_predicate_hierarchy(small_corpus):
    corpus = list(small_corpus.values())
    corpus += enumerate_all(4)
    corpus += [gen_family(f, n) for f in
               ("lukasiewicz", "godel", "nilpotent_minimum") for n in (3, 5)]
    for A in corpus:
        if is_mv(A):
            assert is_bl(A)
        if is_godel(A):
            assert is_bl(A)


def test_stabilizer_routes_match_direct_predicates(small_corpus):
    for name, A in small_corpus.items():
        assert imtl_by_stabilizers(A) == is_imtl(A), name
        assert integral_by_stabilizers(A) == is_integral_mtl(A), name
        assert godel_by_left_stabilizers(A) == is_godel(A), name
        assert godel_by_right_stabilizers(A) == is_godel(A), name


def test_classify_reports(fixtures):
    def as_dict(A):
        rep = classify(A)
        assert rep.ok, rep.records
        return {k: v for t, k, v in rep.records if t == "class"}

    i6 = as_dict(fixtures["i6"])
    assert i6["imtl"] == "true" and i6["imtl-stabilizer"] == "true"
    assert i6["left-stab-of-bot"] == "1"

    n5 = as_dict(fixtures["n5"])
    assert n5["integral"] == "true" and n5["integral-stabilizer"] == "true"
    assert n5["left-stab-of-bot"] == "c,a,b,1"

    g6 = as_dict(fixtures["g6"])
    assert g6["godel"] == "true"
    assert g6["godel-left-stabilizer"] == "true"
    assert g6["godel-right-stabilizer"] == "true"
    assert g6["godel-chain-stabilizer"] == "false"
    assert g6["chain"] == "false"

    m6 = as_dict(fixtures["m6"])
    assert m6["mv"] == "true" and m6["bl"] == "true"


def _calls_during(fn, *args):
    """Calls of named functions in classify and order made by fn(*args)."""
    files = {classify_module.__file__, order_module.__file__}
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in files \
                and not code.co_name.startswith("<"):
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_classify_evaluates_each_predicate_once(fixtures):
    for A in (fixtures["g6"], gen_family("godel", 6)):
        calls = _calls_during(classify, A)
        for name in ("is_bl", "is_mv", "is_godel", "is_imtl", "is_integral_mtl",
                     "is_chain", "imtl_by_stabilizers", "integral_by_stabilizers",
                     "godel_by_left_stabilizers", "godel_by_right_stabilizers"):
            assert calls[name] == 1, (A.name, name, calls[name])
    # on a Gödel chain every right stabilizer is tested as an ideal, once
    chain = gen_family("godel", 6)
    assert _calls_during(classify, chain)["is_lattice_ideal"] == chain.n


def _flip_mask(A, key, x, y):
    """Flips bit y of the cached one-point mask of x under `key`."""
    masks = list(A._fixed_masks(key))
    masks[x] ^= 1 << y
    A._mask_cache()[key] = tuple(masks)


def test_classify_reports_a_stabilizer_route_that_disagrees():
    # A wrong one-point mask stands in for a false theorem: the route that
    # reads it disagrees with its direct predicate and classify refutes.
    chain, i6 = gen_family("godel", 5), load_fixture("i6")
    assert classify(chain).ok and classify(i6).ok
    _flip_mask(chain, "mult_left", chain.bot, chain.top)
    _flip_mask(i6, "ortho", i6.bot, i6.bot)
    expected = {
        chain: [("T4.9-godel", "direct godel predicate disagrees with"
                 " godel_by_left_stabilizers"),
                ("T4.10-godel-chain", "direct chain+godel predicate disagrees"
                 " with stabilizer route")],
        i6: [("T3.10-imtl", "direct imtl predicate disagrees with"
              " imtl_by_stabilizers")],
    }
    for A, refutations in expected.items():
        report = classify(A)
        assert not report.ok and report.failures == len(refutations)
        assert [(k, v) for t, k, v in report.records if t == "refutation"] \
            == refutations
