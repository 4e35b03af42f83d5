import gc
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from d1ring.envelope import Envelope, _write_json, envelope_for, parse_envelope, serialize_envelope
from d1ring.errors import FormatError
from d1ring.experiments import rand_twisted
from d1ring.invert import SearchBudget, stable_injectivity_verdict
from d1ring.nuca import Configuration, Nuca
from d1ring.twisted import TwistedMatrix, f_shuffle

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


class TestCanonicalization:
    def test_stored_zero_coefficient_flagged(self):
        u, _ = f3_pair()
        doc = json.loads(serialize_envelope(envelope_for(u)))
        doc["payload"]["regular"]["terms"].append([[5], 0])
        env = parse_envelope(json.dumps(doc))
        assert env.canonicalized
        assert env.payload == u

    def test_unsorted_terms_flagged(self):
        doc = {
            "header": {"format_version": 1, "group": "Zd:1", "field": "Fp:3", "n": None, "kind": "groupring"},
            "payload": {"terms": [[[2], 1], [[0], 2]]},
        }
        env = parse_envelope(json.dumps(doc))
        assert env.canonicalized
        assert env.payload.terms == (((0,), 2), ((2,), 1))

    def test_unreduced_word_flagged(self):
        doc = {
            "header": {"format_version": 1, "group": "free:2", "field": "Fp:2", "n": None, "kind": "groupring"},
            "payload": {"terms": [["aAb", 1]]},
        }
        env = parse_envelope(json.dumps(doc))
        assert env.canonicalized
        assert env.payload.terms == (((2,), 1),)


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
