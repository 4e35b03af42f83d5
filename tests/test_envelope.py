import copy
import dataclasses
import gc
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from d1ring.envelope import (
    _KINDS,
    Envelope,
    _write_json,
    envelope_for,
    parse_envelope,
    serialize_envelope,
    suite_config_payload,
)
from d1ring.errors import FormatError, UsageError
from d1ring.experiments import SuiteConfig, rand_groupring, rand_scalar, rand_twisted
from d1ring.groupring import GroupRingElement, coeff_encode, coeff_parse, coeff_zero
from d1ring.invert import SearchBudget, stable_injectivity_verdict
from d1ring.nuca import Configuration, Nuca
from d1ring.twisted import TwistedElement, TwistedMatrix, f_shuffle

from conftest import F2, F2FREE, F3, Q, Z1, Z2, f3_pair, gre


class TestRoundTrip:
    def test_twisted_byte_identical(self):
        u, _ = f3_pair()
        text = serialize_envelope(envelope_for(u))
        env = parse_envelope(text)
        assert not env.canonicalized
        assert env.payload == u
        assert serialize_envelope(env) == text

    def test_random_elements_round_trip(self, rng):
        for group in (Z1, Z2, F2FREE):
            for field in (F2, Q):
                for shape in (None, 2):
                    u = rand_twisted(rng, group, field, shape, radius=1)
                    text = serialize_envelope(envelope_for(u))
                    env = parse_envelope(text)
                    assert env.payload == u
                    assert serialize_envelope(env) == text

    @pytest.mark.parametrize("group, site", [(Z2, (True, 0)), (F2FREE, (True, -2))])
    def test_boolean_sites_refused_so_every_built_element_round_trips(self, group, site):
        # a bool site would serialize as true/false (or as the letter of 1),
        # which parsing refuses or reads as another element; the ints
        # beside it round-trip
        with pytest.raises(UsageError):
            GroupRingElement.from_terms(group, Q, None, [(site, 1)])
        with pytest.raises(UsageError):
            GroupRingElement.monomial(group, Q, None, site, 1)
        a = GroupRingElement.from_terms(group, Q, None, [(tuple(int(c) for c in site), 1)])
        text = serialize_envelope(envelope_for(a))
        env = parse_envelope(text)
        assert env.payload == a and not env.canonicalized
        assert serialize_envelope(env) == text

    def test_groupring_round_trip(self):
        a = gre(F2FREE, F3, None, [((1, -2), 2), ((), 1)])
        text = serialize_envelope(envelope_for(a))
        assert parse_envelope(text).payload == a

    def test_configuration_round_trip(self):
        x = Configuration.make(Z2, Q, 2, [1, 0], [((1, -1), [2, 3])])
        text = serialize_envelope(envelope_for(x))
        env = parse_envelope(text)
        assert env.payload == x
        assert serialize_envelope(env) == text

    def test_twisted_matrix_round_trip(self, rng):
        u = rand_twisted(rng, Z1, F3, 2, radius=1)
        m = f_shuffle(u)
        text = serialize_envelope(envelope_for(m))
        env = parse_envelope(text)
        assert env.payload == m

    def test_matrix_shaped_entries_round_trip(self, rng):
        entries = tuple(
            tuple(rand_twisted(rng, Z1, F3, 2, radius=1) for _ in range(2))
            for _ in range(2)
        )
        m = TwistedMatrix(2, entries)
        env = parse_envelope(serialize_envelope(envelope_for(m)))
        assert env.n == 2
        assert env.payload == m


# the three site-keyed lists: group ring terms, singular pairs, deviation pairs
SITE_LISTS = ("terms", "singular", "deviation")
CANONICAL_SITES = [(0, 1), (2, 2)]


def site_list_doc(name, pairs):
    """An envelope over Z^1 and F_3 whose `name` list holds, in the order
    given, one pair per (site, scalar): for terms the coefficient, for
    singular pairs the part scalar*[0], for deviation pairs the vector
    [scalar]; scalar 0 stores the zero value."""
    value = {
        "terms": lambda c: c,
        "singular": lambda c: {"terms": [[[0], c]] if c else []},
        "deviation": lambda c: [c],
    }[name]
    sites = [[[site], value(c)] for site, c in pairs]
    kind, n, payload = {
        "terms": ("groupring", None, {"terms": sites}),
        "singular": ("twisted", None, {"regular": {"terms": []}, "singular": sites}),
        "deviation": ("configuration", 1, {"base": [0], "deviation": sites}),
    }[name]
    header = {"format_version": 1, "group": "Zd:1", "field": "Fp:3", "n": n, "kind": kind}
    return {"header": header, "payload": payload}


def assert_repaired_to(doc, name, pairs):
    """doc parses flagged, to the value whose canonical list is `pairs`."""
    env = parse_envelope(json.dumps(doc))
    assert env.canonicalized
    canonical = parse_envelope(json.dumps(site_list_doc(name, pairs)))
    assert not canonical.canonicalized
    assert env.payload == canonical.payload
    assert serialize_envelope(env) == serialize_envelope(canonical)


class TestCanonicalization:
    def test_stored_zero_coefficient_flagged(self):
        u, _ = f3_pair()
        doc = json.loads(serialize_envelope(envelope_for(u)))
        doc["payload"]["regular"]["terms"].append([[5], 0])
        env = parse_envelope(json.dumps(doc))
        assert env.canonicalized
        assert env.payload == u
        # a zero coefficient, singular part or deviation vector, anywhere in its list
        for name in SITE_LISTS:
            for pairs in ([(-1, 0), (0, 1), (2, 2)], [(0, 1), (1, 0), (2, 2)], [(0, 1), (2, 2), (3, 0)]):
                assert_repaired_to(site_list_doc(name, pairs), name, CANONICAL_SITES)

    def test_unsorted_terms_flagged(self):
        doc = {
            "header": {"format_version": 1, "group": "Zd:1", "field": "Fp:3", "n": None, "kind": "groupring"},
            "payload": {"terms": [[[2], 1], [[0], 2]]},
        }
        env = parse_envelope(json.dumps(doc))
        assert env.canonicalized
        assert env.payload.terms == (((0,), 2), ((2,), 1))
        for name in SITE_LISTS:
            unsorted = site_list_doc(name, CANONICAL_SITES[::-1])
            assert_repaired_to(unsorted, name, CANONICAL_SITES)

    def test_duplicate_site_flagged(self):
        # the values at a repeated site are summed: 1 + 1 = 2, and 1 + 2 = 0
        # drops the site
        for name in SITE_LISTS:
            assert_repaired_to(site_list_doc(name, [(0, 1), (0, 1), (2, 2)]), name, [(0, 2), (2, 2)])
            assert_repaired_to(site_list_doc(name, [(0, 1), (2, 2), (2, 1)]), name, [(0, 1)])

    def test_extra_payload_key_flagged(self):
        for name in SITE_LISTS:
            doc = site_list_doc(name, CANONICAL_SITES)
            doc["payload"]["note"] = 0
            assert_repaired_to(doc, name, CANONICAL_SITES)
        # an extra key in a singular part
        doc = site_list_doc("singular", CANONICAL_SITES)
        doc["payload"]["singular"][1][1]["note"] = 0
        assert_repaired_to(doc, "singular", CANONICAL_SITES)

    @pytest.mark.parametrize("name", SITE_LISTS)
    def test_malformed_site_list_refused(self, name):
        doc = site_list_doc(name, CANONICAL_SITES)
        entry = {"terms": "bad term", "singular": "bad singular pair", "deviation": "bad deviation pair"}[name]
        for bad, message in [
            ({"sites": []}, f"'{name}' must be a list"),
            ([[[0]]], f"{entry} [[0]]"),
            ([[[0], 1, 2]], f"{entry} [[0], 1, 2]"),
            ([7], f"{entry} 7"),
        ]:
            doc["payload"][name] = bad
            with pytest.raises(FormatError) as info:
                parse_envelope(json.dumps(doc))
            assert str(info.value).startswith(message)

    def test_unreduced_word_flagged(self):
        doc = {
            "header": {"format_version": 1, "group": "free:2", "field": "Fp:2", "n": None, "kind": "groupring"},
            "payload": {"terms": [["aAb", 1]]},
        }
        env = parse_envelope(json.dumps(doc))
        assert env.canonicalized
        assert env.payload.terms == (((2,), 1),)


    def test_kelvin_sign_flagged(self):
        # U+212A lower-cases to "k", so it reads as k^-1; written back as "K"
        doc = {
            "header": {"format_version": 1, "group": "free:11", "field": "Fp:2", "n": None, "kind": "groupring"},
            "payload": {"terms": [["\u212a", 1]]},
        }
        env = parse_envelope(json.dumps(doc))
        assert env.canonicalized
        assert env.payload.terms == (((-11,), 1),)
        assert env.payload_obj() == {"terms": [["K", 1]]}


# -- the repair flag against the re-encoding check ---------------------------------

KINDS = ("groupring", "twisted", "twisted_matrix", "configuration")
MUTATIONS = (
    "none", "stored_zero", "unsorted", "duplicate", "unreduced_word", "residue",
    "rational", "extra_key", "zero_part",
)


def canonical_value(rng, kind, group, field, shape):
    if kind == "groupring":
        return rand_groupring(rng, group, field, shape, radius=1)
    if kind == "twisted":
        return rand_twisted(rng, group, field, shape, radius=1, max_sites=3, max_terms=3)
    if kind == "twisted_matrix":
        return TwistedMatrix(2, tuple(
            tuple(rand_twisted(rng, group, field, shape, radius=1) for _ in range(2)) for _ in range(2)
        ))
    ball = group.ball(1)
    n = shape
    return Configuration.make(
        group, field, n,
        [rand_scalar(rng, field) for _ in range(n)],
        [(rng.choice(ball), [rand_scalar(rng, field) for _ in range(n)]) for _ in range(rng.randint(0, 3))],
    )


def payload_slots(kind, payload):
    """Where a mutation can act: the payload objects, the twisted payloads,
    the site lists (terms, singular pairs, deviation pairs), the element
    slots and the scalar slots, as (container, index)."""
    objs, twisteds, site_lists, sites, scalars = [], [], [], [], []

    def scalar_list(values):
        scalars.extend((values, i) for i in range(len(values)))

    def ring(p):
        objs.append(p)
        site_lists.append(p["terms"])
        for term in p["terms"]:
            sites.append((term, 0))
            if isinstance(term[1], list):
                for row in term[1]:
                    scalar_list(row)
            else:
                scalars.append((term, 1))

    def twisted(p):
        objs.append(p)
        twisteds.append(p)
        ring(p["regular"])
        site_lists.append(p["singular"])
        for pair in p["singular"]:
            sites.append((pair, 0))
            ring(pair[1])

    if kind == "groupring":
        ring(payload)
    elif kind == "twisted":
        twisted(payload)
    elif kind == "twisted_matrix":
        objs.append(payload)
        for row in payload["entries"]:
            for e in row:
                twisted(e)
    else:
        objs.append(payload)
        scalar_list(payload["base"])
        site_lists.append(payload["deviation"])
        for pair in payload["deviation"]:
            sites.append((pair, 0))
            scalar_list(pair[1])
    return objs, twisteds, site_lists, sites, scalars


def mutate(rng, mutation, kind, group, field, shape, payload) -> bool:
    """Apply the mutation in place at a random place where it applies; False
    when it applies nowhere in this payload."""
    objs, twisteds, site_lists, sites, scalars = payload_slots(kind, payload)
    site = group.encode_element(rng.choice(group.ball(1)))
    if mutation == "stored_zero":
        if kind == "configuration":
            target, entry = payload["deviation"], [site, [coeff_encode(field, field.zero)] * shape]
        else:
            target = rng.choice([o["terms"] for o in objs if "terms" in o])
            entry = [site, coeff_encode(field, coeff_zero(field, shape))]
        target.insert(rng.randint(0, len(target)), entry)
        return True
    if mutation == "unsorted":
        lists = [sl for sl in site_lists if len(sl) >= 2]
        if not lists:
            return False
        sl = rng.choice(lists)
        i, j = rng.sample(range(len(sl)), 2)
        sl[i], sl[j] = sl[j], sl[i]
        return True
    if mutation == "duplicate":
        lists = [sl for sl in site_lists if sl]
        if not lists:
            return False
        sl = rng.choice(lists)
        i = rng.randrange(len(sl))
        sl.insert(i + 1, copy.deepcopy(sl[i]))
        return True
    if mutation == "unreduced_word":
        if group.kind != "free" or not sites:
            return False
        container, i = rng.choice(sites)
        word = container[i]
        k = rng.randint(0, len(word))
        letter = rng.choice("ab")
        pair = letter + letter.upper() if rng.random() < 0.5 else letter.upper() + letter
        container[i] = word[:k] + pair + word[k:]
        return True
    if mutation == "residue":
        if field.kind != "Fp" or not scalars:
            return False
        container, i = rng.choice(scalars)
        container[i] += field.p * rng.choice((1, 2, -1, -2))
        return True
    if mutation == "rational":
        if field.kind == "Fp" or not scalars:
            return False
        container, i = rng.choice(scalars)
        num, den = (int(x) for x in container[i].split("/"))
        forms = [f"{2 * num}/{2 * den}", f"{-num}/{-den}"]
        if den == 1:
            forms.append(num)
        if num == 0:
            forms.append("-0/1")
        container[i] = rng.choice(forms)
        return True
    if mutation == "extra_key":
        rng.choice(objs)["note"] = 0
        return True
    if mutation == "zero_part":
        if not twisteds:
            return False
        singular = rng.choice(twisteds)["singular"]
        singular.insert(rng.randint(0, len(singular)), [site, {"terms": []}])
        return True
    return mutation == "none"


def reference_value(kind, group, field, shape, payload):
    """The value the parser built before it read in one pass: every part
    read, then handed to the canonicalizing constructors."""
    def element(g):
        return group.parse_element(g)[0]

    def ring(p):
        return GroupRingElement.from_terms(
            group, field, shape, [(element(g), coeff_parse(field, shape, c)[0]) for g, c in p["terms"]]
        )

    def twisted(p):
        return TwistedElement.make(ring(p["regular"]), [(element(g), ring(q)) for g, q in p["singular"]])

    if kind == "groupring":
        return ring(payload)
    if kind == "twisted":
        return twisted(payload)
    if kind == "twisted_matrix":
        return TwistedMatrix(
            payload["size"], tuple(tuple(twisted(e) for e in row) for row in payload["entries"])
        )

    def scalar(x):
        return field.parse_scalar(x)[0]

    return Configuration.make(
        group, field, shape, [scalar(x) for x in payload["base"]],
        [(element(g), [scalar(x) for x in v]) for g, v in payload["deviation"]],
    )


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    group=st.sampled_from([Z1, Z2, F2FREE]),
    field=st.sampled_from([F2, F3, Q]),
    matrix=st.booleans(),
    mutation=st.sampled_from(MUTATIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_repair_flag_is_the_re_encoding_check(kind, group, field, matrix, mutation, seed):
    rng = random.Random(seed)
    shape = (2 if matrix else 1) if kind == "configuration" else (2 if matrix else None)
    value = canonical_value(rng, kind, group, field, shape)
    doc = json.loads(serialize_envelope(envelope_for(value)))
    mutated = mutate(rng, mutation, kind, group, field, shape, doc["payload"])
    text = json.dumps(doc)
    env = parse_envelope(text)
    payload = json.loads(text)["payload"]
    # the flag the parser set from the re-encoded payload before it read in one pass
    assert env.canonicalized == (env.payload_obj() != payload)
    assert env.payload == reference_value(kind, group, field, shape, payload)
    if mutation == "none" or not mutated:
        assert not env.canonicalized and env.payload == value
    elif mutation not in ("stored_zero", "duplicate", "zero_part"):
        # repairs that keep every site, part and coefficient
        assert env.canonicalized and env.payload == value


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", [F3, Q])
def test_canonical_envelopes_skip_the_canonicalizing_constructors(kind, field, rng):
    values = [canonical_value(rng, kind, group, field, 2) for group in (Z1, Z2, F2FREE) for _ in range(5)]
    texts = [serialize_envelope(envelope_for(v)) for v in values]
    refuse = {"side_effect": AssertionError("canonicalizing constructor called")}
    with mock.patch.object(GroupRingElement, "from_terms", **refuse), \
            mock.patch.object(TwistedElement, "make", **refuse), \
            mock.patch.object(TwistedMatrix, "__post_init__", **refuse), \
            mock.patch.object(Configuration, "make", **refuse):
        envs = [parse_envelope(text) for text in texts]
    for env, value, text in zip(envs, values, texts):
        assert not env.canonicalized
        assert env.payload == value
        assert serialize_envelope(env) == text


class TestDiagnostics:
    def test_version_mismatch(self):
        doc = {
            "header": {"format_version": 9, "group": "Zd:1", "field": "Q", "n": None, "kind": "twisted"},
            "payload": {},
        }
        with pytest.raises(FormatError, match="format_version mismatch"):
            parse_envelope(json.dumps(doc))

    def test_non_prime_p(self):
        doc = {
            "header": {"format_version": 1, "group": "Zd:1", "field": "Fp:4", "n": None, "kind": "twisted"},
            "payload": {"regular": {"terms": []}, "singular": []},
        }
        with pytest.raises(FormatError, match="p must be prime"):
            parse_envelope(json.dumps(doc))

    def test_shape_mismatch(self):
        # header says 2x2 matrices but the stored coefficient is a scalar
        doc = {
            "header": {"format_version": 1, "group": "Zd:1", "field": "Fp:3", "n": 2, "kind": "groupring"},
            "payload": {"terms": [[[0], 1]]},
        }
        with pytest.raises(FormatError, match="2x2"):
            parse_envelope(json.dumps(doc))

    def test_boolean_matrix_size_rejected(self):
        doc = json.loads(serialize_envelope(envelope_for(TwistedMatrix.identity(1, Z1, F3))))
        doc["payload"]["size"] = True
        with pytest.raises(FormatError, match="bad matrix size True"):
            parse_envelope(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            parse_envelope("{nope")

    def test_write_only_kind_rejected(self):
        doc = {
            "header": {"format_version": 1, "group": "Zd:1", "field": "Q", "n": None, "kind": "verdict"},
            "payload": {},
        }
        with pytest.raises(FormatError, match="write-only"):
            parse_envelope(json.dumps(doc))


@pytest.mark.parametrize("kind", list(_KINDS))
def test_every_kind_round_trips_or_is_write_only(kind, rng):
    if _KINDS[kind][1] is None:
        # the golden outputs hold an envelope of every write-only kind
        texts = [p.read_text() for p in sorted((GOLDEN / "expected").glob("*.json"))]
        texts = [t for t in texts if json.loads(t)["header"]["kind"] == kind]
        assert texts
        for text in texts:
            with pytest.raises(FormatError, match=f"payload kind '{kind}' is write-only"):
                parse_envelope(text)
        return
    for group in (Z1, Z2, F2FREE):
        for field in (F3, Q):
            value = canonical_value(rng, kind, group, field, 2)
            text = serialize_envelope(envelope_for(value))
            env = parse_envelope(text)
            assert env.kind == kind and not env.canonicalized
            assert env.payload == value
            assert serialize_envelope(env) == text


@pytest.mark.parametrize("kind", ["nuca", "", "Twisted", "twisted ", None, 3, ["twisted"], {"twisted": 1}])
def test_unknown_kind_refused(kind):
    doc = json.loads(serialize_envelope(envelope_for(f3_pair()[0])))
    doc["header"]["kind"] = kind
    with pytest.raises(FormatError, match="unknown payload kind"):
        parse_envelope(json.dumps(doc))
    env = Envelope(Z1, F3, None, kind, f3_pair()[0])
    with pytest.raises(FormatError, match="unknown payload kind"):
        serialize_envelope(env)


def test_suite_config_payload_has_a_key_per_config_field():
    config = SuiteConfig(seed=0, trials=1, group=Z1, field=F3, n=1)
    assert list(suite_config_payload(config)) == [f.name for f in dataclasses.fields(SuiteConfig)]


class TestHeaderShapes:
    def test_nuca_envelope_has_n(self):
        from conftest import f3_example_nuca

        env = envelope_for(f3_example_nuca())
        assert env.n == 1 and env.kind == "twisted"

    def test_scalar_matrix_envelope_has_null_n(self, rng):
        m = TwistedMatrix.identity(2, Z1, F3)
        env = envelope_for(m)
        assert env.n is None and env.kind == "twisted_matrix"


# -- the layout writer against json.dumps(indent=2) -------------------------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("path", sorted((GOLDEN / "expected").glob("*.json")), ids=lambda p: p.name)
def test_layout_matches_golden_bytes(path):
    text = path.read_text(encoding="utf-8")
    out: list = []
    _write_json(json.loads(text), "", out)
    assert "".join(out) + "\n" == text


_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4) | st.integers(-5, 5) | st.booleans() | st.none(), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_layout_matches_json_dumps_on_random_payloads(value):
    out: list = []
    _write_json(value, "", out)
    assert "".join(out) == json.dumps(value, indent=2)


def test_verdict_ops_leave_no_cyclic_garbage():
    # parse, decide, serialize: 20 ops must leave nothing for the cyclic
    # collector (json.dumps with an indent left ~33 objects per call)
    rng = random.Random(17)
    texts = []
    while len(texts) < 20:
        u = rand_twisted(rng, Z1, Q, 2, radius=1)
        if not u.is_zero():
            texts.append(serialize_envelope(envelope_for(Nuca(u))))
    budget = SearchBudget(max_radius=2, depth=3, window=2)

    def op(text):
        env = parse_envelope(text)
        t = Nuca(env.payload)
        verdict = stable_injectivity_verdict(t, budget)
        serialize_envelope(Envelope(t.group, t.field, t.n, "verdict", verdict))

    op(texts[0])
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for text in texts:
            op(text)
        found = gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert found == 0 and garbage == []
