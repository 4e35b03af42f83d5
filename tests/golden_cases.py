"""Shared fixture definitions for the CLI golden-file tests.

`build_inputs` makes the input envelopes and `stale_inputs` names the
committed ones that differ from them; CASES maps each subcommand
invocation to its expected-stdout file.  Regenerate the golden files with
`python3 tests/make_golden.py` after an intentional format change, and
review the diff before committing; `python3 tests/make_golden.py --check`
reports every difference and writes nothing.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from d1ring.envelope import envelope_for, serialize_envelope
from d1ring.exactalg import FieldSpec
from d1ring.experiments import decoy_nuca
from d1ring.groupring import GroupRingElement
from d1ring.groups import GroupSpec
from d1ring.nuca import Configuration, Nuca
from d1ring.twisted import TwistedElement

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

Z1 = GroupSpec.zd(1)
F2 = FieldSpec.fp(2)
F3 = FieldSpec.fp(3)
Q = FieldSpec.rationals()


def _gre(group, field, shape, terms):
    return GroupRingElement.from_terms(group, field, shape, terms)


def build_inputs() -> dict[str, str]:
    """Name -> serialized envelope for every fixture file."""
    alpha = _gre(Z1, F3, None, [((0,), 1)])
    u = TwistedElement.make(alpha, [((0,), _gre(Z1, F3, None, [((1,), 1)]))])
    v = TwistedElement.make(alpha, [((0,), _gre(Z1, F3, None, [((1,), 2)]))])

    alpha1 = _gre(Z1, F3, 1, [((0,), ((1,),))])
    nuca_u = Nuca(TwistedElement.make(alpha1, [((0,), _gre(Z1, F3, 1, [((1,), ((1,),))]))]))
    nuca_v = Nuca(TwistedElement.make(alpha1, [((0,), _gre(Z1, F3, 1, [((1,), ((2,),))]))]))

    apply_alpha = _gre(Z1, F3, 1, [((0,), ((1,),)), ((1,), ((1,),))])
    nuca_apply = Nuca(
        TwistedElement.make(apply_alpha, [((0,), _gre(Z1, F3, 1, [((0,), ((1,),))]))])
    )

    a_f2 = _gre(Z1, F2, None, [((0,), 1), ((1,), 1)])

    shuffle_x = TwistedElement.make(
        _gre(Z1, F2, 2, [((0,), ((1, 0), (0, 0)))]),
        [((1,), _gre(Z1, F2, 2, [((0,), ((0, 1), (0, 0)))]))],
    )

    x0 = Configuration.make(Z1, F3, 1, [0], [((0,), [1])])

    nilpotent = Nuca(
        TwistedElement.make(_gre(Z1, F2, 2, [((0,), ((0, 1), (0, 0)))]), [])
    )

    # over Q: a map whose kernel witness has two sites, with values 1 and
    # 4/3, and an n = 2 map with one exceptional site whose tower kernels
    # have dimension 4
    witness_q = Nuca(
        TwistedElement.make(
            _gre(Z1, Q, 1, [((1,), ((Fraction(3, 2),),))]),
            [
                ((0,), _gre(Z1, Q, 1, [((1,), ((Fraction(-3, 2),),))])),
                ((1,), _gre(Z1, Q, 1, [((0,), ((-2,),))])),
            ],
        )
    )
    tower_q = Nuca(
        TwistedElement.make(
            _gre(Z1, Q, 2, [
                ((0,), ((Fraction(-3, 2), Fraction(1, 2)), (0, 0))),
                ((1,), ((0, -2), (-3, Fraction(-1, 2)))),
            ]),
            [((0,), _gre(Z1, Q, 2, [
                ((-1,), ((Fraction(-1, 2), Fraction(-1, 3)), (2, Fraction(1, 2)))),
                ((0,), ((1, -1), (1, -3))),
            ]))],
        )
    )

    files = {
        "u_f3.json": serialize_envelope(envelope_for(u)),
        "v_f3.json": serialize_envelope(envelope_for(v)),
        "nuca_u_f3.json": serialize_envelope(envelope_for(nuca_u)),
        "nuca_v_f3.json": serialize_envelope(envelope_for(nuca_v)),
        "nuca_apply_f3.json": serialize_envelope(envelope_for(nuca_apply)),
        "a_f2.json": serialize_envelope(envelope_for(a_f2)),
        "x_shuffle_f2.json": serialize_envelope(envelope_for(shuffle_x)),
        "x0_f3.json": serialize_envelope(envelope_for(x0)),
        "decoy_f2.json": serialize_envelope(envelope_for(decoy_nuca(Z1, F2, 1))),
        "nilpotent_f2.json": serialize_envelope(envelope_for(nilpotent)),
        "witness_q.json": serialize_envelope(envelope_for(witness_q)),
        "tower_q.json": serialize_envelope(envelope_for(tower_q)),
    }

    # a legal but non-canonical file: stored zero coefficient, unsorted terms
    doc = json.loads(files["u_f3.json"])
    doc["payload"]["regular"]["terms"] = [[[5], 0], [[0], 1]]
    files["noncanonical.json"] = json.dumps(doc, indent=2) + "\n"
    return files


def stale_inputs() -> list[str]:
    """The input files whose committed text differs from build_inputs(),
    missing ones included."""
    stale = []
    for name, text in build_inputs().items():
        committed = INPUTS / name
        if not committed.is_file() or committed.read_text() != text:
            stale.append(name)
    return stale


def path(name: str) -> str:
    return str(INPUTS / name)


def cases(inputs: Path = INPUTS) -> list:
    """(expected stdout file, argv, expected exit code) for each case, with
    the input files read from the directory `inputs`."""

    def at(name: str) -> str:
        return str(inputs / name)

    return [
        ("mul.json", ["mul", "-a", at("u_f3.json"), "-b", at("v_f3.json"), "-o", "-"], 0),
        ("add.json", ["add", "-a", at("u_f3.json"), "-b", at("v_f3.json"), "-o", "-"], 0),
        ("embed.json", ["embed", "-a", at("a_f2.json"), "-o", "-"], 0),
        ("f_shuffle.json", ["f-shuffle", "-a", at("x_shuffle_f2.json"), "-o", "-"], 0),
        ("apply.json", ["apply", "-t", at("nuca_apply_f3.json"), "-x", at("x0_f3.json"), "-o", "-"], 0),
        ("compose.json", ["compose", "-a", at("nuca_v_f3.json"), "-b", at("nuca_u_f3.json"), "-o", "-"], 0),
        ("verify_identity.txt", ["verify-identity", at("nuca_u_f3.json"), at("nuca_v_f3.json")], 0),
        ("local_map.json", ["local-map", "-t", at("nuca_apply_f3.json"), "--sites", "[[0],[1]]", "-o", "-"], 0),
        ("invert.json", ["invert", at("nuca_u_f3.json"), "--side", "left", "--max-radius", "3", "-o", "-"], 0),
        ("kernel_tower.json", ["kernel-tower", at("decoy_f2.json"), "--depth", "5", "--window", "3", "-o", "-"], 0),
        ("verdict.json", ["verdict", at("nilpotent_f2.json"), "--max-radius", "2", "-o", "-"], 0),
        ("verdict_q.json", ["verdict", at("witness_q.json"), "--max-radius", "2", "-o", "-"], 0),
        ("kernel_tower_q.json", ["kernel-tower", at("tower_q.json"), "--depth", "3", "--window", "2", "-o", "-"], 0),
        ("local_map_q.json", ["local-map", "-t", at("tower_q.json"), "--sites", "[[-1],[0],[1]]", "-o", "-"], 0),
        (
            "experiment_direct_finiteness.json",
            ["experiment", "direct-finiteness", "--group", "Zd:1", "--field", "Fp:2",
             "--n", "1", "--seed", "7", "--trials", "3", "--omit-timing", "-o", "-"],
            0,
        ),
        (
            "experiment_pipeline.json",
            ["experiment", "pipeline", "--group", "Zd:1", "--field", "Fp:3", "--n", "1",
             "--seed", "7", "--trials", "3", "--decoy-every", "3", "--omit-timing", "-o", "-"],
            0,
        ),
        ("fmt.json", ["fmt", at("noncanonical.json"), "-o", "-"], 0),
    ]


CASES = cases()
