"""Canonical JSON serialization for all artifact objects.

Every file is an envelope: a header (format version, group, field,
coefficient shape, payload kind) plus a payload.  Serialization of a
canonical-form object round-trips byte-for-byte; parsing a legal but
non-canonical payload (stored zeros, unsorted or duplicate sites,
unreduced words, out-of-range residues, non-canonical rationals, extra
payload keys) repairs it and flags the envelope.  Each payload kind is
declared once, in `_KINDS`, with its encoder and, for the four kinds that
are read back, its parser.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional

from .errors import FormatError, UsageError
from .exactalg import FieldSpec
from .groupring import GroupRingElement, Shape, coeff_encode, coeff_is_zero, coeff_parse
from .groups import GroupSpec
from .invert import (
    InjectivityVerdict,
    KernelTowerReport,
    SearchBudget,
)
from .nuca import Configuration, InducedLocalMap, Nuca
from .twisted import TwistedElement, TwistedMatrix

if TYPE_CHECKING:
    from .experiments import SuiteConfig, SuiteReport

FORMAT_VERSION = 1

# -- payload encoders ---------------------------------------------------------------

def groupring_payload(a: GroupRingElement) -> dict:
    return {
        "terms": [
            [a.group.encode_element(g), coeff_encode(a.field, c)] for g, c in a.terms
        ]
    }


def twisted_payload(u: TwistedElement) -> dict:
    return {
        "regular": groupring_payload(u.regular),
        "singular": [
            [u.group.encode_element(g), groupring_payload(part)]
            for g, part in u.singular
        ],
    }


def twisted_matrix_payload(m: TwistedMatrix) -> dict:
    return {
        "size": m.n,
        "entries": [[twisted_payload(e) for e in row] for row in m.entries],
    }


def configuration_payload(x: Configuration) -> dict:
    enc = x.field.encode_scalar
    return {
        "base": [enc(v) for v in x.base],
        "deviation": [
            [x.group.encode_element(g), [enc(c) for c in v]] for g, v in x.deviation
        ],
    }


def local_map_payload(m: InducedLocalMap) -> dict:
    enc = m.field.encode_scalar
    return {
        "domain": [m.group.encode_element(g) for g in m.domain_set],
        "codomain": [m.group.encode_element(g) for g in m.codomain_set],
        "matrix": [[enc(x) for x in row] for row in m.matrix.to_lists()],
    }


def budget_payload(b: SearchBudget) -> dict:
    return {"max_radius": b.max_radius, "depth": b.depth, "window": b.window}


def tower_report_payload(r: KernelTowerReport) -> dict:
    return {
        "depth": r.depth,
        "window": r.window,
        "levels": [
            {
                "level": lv.level,
                "kernel_dim": lv.kernel_dim,
                "stable_dim": lv.stable_dim,
                "stabilized_at": lv.stabilized_at,
            }
            for lv in r.levels
        ],
    }


def verdict_payload(v: InjectivityVerdict) -> dict:
    return {
        "verdict": v.kind,
        "budget": budget_payload(v.budget),
        "certificate": None if v.certificate is None else twisted_payload(v.certificate.element),
        "certificate_radius": v.certificate_radius,
        "witness": None if v.witness is None else configuration_payload(v.witness),
        "witness_scope": v.witness_scope,
        "witness_radius": v.witness_radius,
        "tower": None if v.tower is None else tower_report_payload(v.tower),
    }


def inverse_search_payload(side: str, hit: Optional[tuple[Nuca, int]]) -> dict:
    return {
        "found": hit is not None,
        "side": side,
        "radius": None if hit is None else hit[1],
        "certificate": None if hit is None else twisted_payload(hit[0].element),
    }


def suite_config_payload(c: SuiteConfig) -> dict:
    return {
        "seed": c.seed,
        "trials": c.trials,
        "group": c.group.label(),
        "field": c.field.label(),
        "n": c.n,
        "support_radius": c.support_radius,
        "budget": budget_payload(c.budget),
        "max_factors": c.max_factors,
        "decoy_every": c.decoy_every,
    }


def suite_report_payload(r: SuiteReport) -> dict:
    return {
        "suite": r.suite,
        "config": suite_config_payload(r.config),
        "note": r.note,
        "passes": r.passes,
        "failures": r.failures,
        "wall_clock_s": r.wall_clock_s,
        "outcomes": list(r.outcomes),
    }


# -- payload parsers -------------------------------------------------------------------
#
# Each parser reads its payload once and returns (value, repaired).  While it
# reads it checks that the payload is canonical: no part was repaired (an
# unreduced word, an out-of-range residue, a non-canonical rational text),
# sites are strictly increasing, no coefficient, singular part or deviation
# is zero, and the payload object holds only its own keys.  A canonical
# payload is built with the plain constructors; any other goes through the
# canonicalizing ones (from_terms, make, Configuration.make), which drop,
# sum, sort and reduce exactly what the writer would have written
# differently.

def _parse_sites(group: GroupSpec, raw, name: str, what: str, parse_value, is_zero, repaired: bool):
    """Read the site-keyed list `raw` (payload key `name`) of [element,
    value] pairs; `what` is the error message for a malformed pair, with
    {!r} for the pair.  Returns (pairs, repaired): repaired stays True if it
    came in True, and is set by a repaired element or value, a zero value,
    or sites that are not strictly increasing under group.key."""
    if not isinstance(raw, list):
        raise FormatError(f"'{name}' must be a list")
    parse_element, key = group.parse_element, group.key
    last = None
    pairs = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(what.format(entry))
        g, rep_g = parse_element(entry[0])
        v, rep_v = parse_value(entry[1])
        if not repaired:
            k = key(g)
            repaired = rep_g or rep_v or is_zero(v) or (last is not None and k <= last)
            last = k
        pairs.append((g, v))
    return pairs, repaired


def parse_groupring(
    group: GroupSpec, field: FieldSpec, shape: Shape, payload
) -> tuple[GroupRingElement, bool]:
    if not isinstance(payload, dict) or "terms" not in payload:
        raise FormatError("group ring payload needs a 'terms' list")
    terms, repaired = _parse_sites(
        group, payload["terms"], "terms", "bad term {!r}: expected [element, coefficient]",
        partial(coeff_parse, field, shape), coeff_is_zero, len(payload) != 1,
    )
    if repaired:
        return GroupRingElement.from_terms(group, field, shape, terms), True
    return GroupRingElement(group, field, shape, tuple(terms)), False


def parse_twisted(
    group: GroupSpec, field: FieldSpec, shape: Shape, payload
) -> tuple[TwistedElement, bool]:
    if not isinstance(payload, dict) or "regular" not in payload or "singular" not in payload:
        raise FormatError("twisted payload needs 'regular' and 'singular'")
    regular, repaired = parse_groupring(group, field, shape, payload["regular"])
    sing, repaired = _parse_sites(
        group, payload["singular"], "singular", "bad singular pair {!r}",
        partial(parse_groupring, group, field, shape), GroupRingElement.is_zero,
        repaired or len(payload) != 2,
    )
    if repaired:
        return TwistedElement.make(regular, sing), True
    return TwistedElement(regular, tuple(sing)), False


def parse_twisted_matrix(
    group: GroupSpec, field: FieldSpec, shape: Shape, payload
) -> tuple[TwistedMatrix, bool]:
    if not isinstance(payload, dict) or "size" not in payload or "entries" not in payload:
        raise FormatError("twisted matrix payload needs 'size' and 'entries'")
    size = payload["size"]
    entries = payload["entries"]
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise FormatError(f"bad matrix size {size!r}")
    if not isinstance(entries, list) or len(entries) != size or any(
        not isinstance(row, list) or len(row) != size for row in entries
    ):
        raise FormatError("'entries' must be a size x size grid")
    repaired = len(payload) != 2
    rows = []
    for row in entries:
        cells = []
        for e in row:
            x, rep = parse_twisted(group, field, shape, e)
            repaired = repaired or rep
            cells.append(x)
        rows.append(tuple(cells))
    # a size x size grid of entries parsed with the header's group, field and shape
    return TwistedMatrix._trusted(size, tuple(rows)), repaired


def _parse_vector(field: FieldSpec, raw) -> tuple[tuple, bool]:
    parse_scalar = field.parse_scalar
    repaired = False
    vec = []
    for x in raw:
        v, rep = parse_scalar(x)
        repaired = repaired or rep
        vec.append(v)
    return tuple(vec), repaired


def parse_configuration(
    group: GroupSpec, field: FieldSpec, n: int, payload
) -> tuple[Configuration, bool]:
    if not isinstance(payload, dict) or "base" not in payload or "deviation" not in payload:
        raise FormatError("configuration payload needs 'base' and 'deviation'")
    base_raw = payload["base"]
    if not isinstance(base_raw, list) or len(base_raw) != n:
        raise FormatError(f"'base' must be a vector of length {n}")
    base, repaired = _parse_vector(field, base_raw)

    def parse_deviation(raw):
        if not isinstance(raw, list) or len(raw) != n:
            raise FormatError(f"deviation vectors must have length {n}")
        return _parse_vector(field, raw)

    dev, repaired = _parse_sites(
        group, payload["deviation"], "deviation", "bad deviation pair {!r}",
        parse_deviation, lambda vec: not any(vec), repaired or len(payload) != 2,
    )
    if repaired:
        return Configuration.make(group, field, n, base, dev), True
    return Configuration(group, field, n, base, tuple(dev)), False


# Each payload kind: its encoder (live object -> payload object) and its
# parser, or None for a kind that is only ever written.
_KINDS = {
    "groupring": (groupring_payload, parse_groupring),
    "twisted": (twisted_payload, parse_twisted),
    "twisted_matrix": (twisted_matrix_payload, parse_twisted_matrix),
    "configuration": (configuration_payload, parse_configuration),
    "local_map": (local_map_payload, None),
    "kernel_tower_report": (tower_report_payload, None),
    "verdict": (verdict_payload, None),
    "inverse_search": (lambda value: inverse_search_payload(*value), None),
    "suite_report": (suite_report_payload, None),
}


def _kind(kind) -> tuple:
    entry = _KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise FormatError(f"unknown payload kind {kind!r}")
    return entry


# -- envelopes -----------------------------------------------------------------------------

@dataclass
class Envelope:
    group: GroupSpec
    field: FieldSpec
    n: Shape
    kind: str
    payload: object  # the live object
    canonicalized: bool = False  # True when parsing repaired the payload

    def payload_obj(self):
        return _kind(self.kind)[0](self.payload)


def serialize_envelope(env: Envelope) -> str:
    header = {
        "format_version": FORMAT_VERSION,
        "group": env.group.label(),
        "field": env.field.label(),
        "n": env.n,
        "kind": env.kind,
    }
    out: list[str] = []
    try:
        _write_json({"header": header, "payload": env.payload_obj()}, "", out)
    except UsageError:  # the package's own ValueError, such as an unknown kind
        raise
    except ValueError:  # an integer past int's text limit could not be read back
        limit = sys.get_int_max_str_digits()
        raise FormatError(f"cannot write a {env.kind} with an integer of more than {limit} digits") from None
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(value, indent: str, out: list) -> None:
    """Append to out the text json.dumps(value, indent=2) gives for value,
    nested at `indent`.  json.dumps with an indent runs the pure-Python
    encoder, whose nested closures leave reference cycles behind on every
    call; here the containers are laid out directly and the leaves go
    through the C encoder, so a call leaves no cyclic garbage.  A value is
    dispatched on its exact type first (the payloads hold only str, int,
    None, dict and list); subclasses of dict, list and tuple are laid out
    as those, and every other leaf goes through json.dumps."""
    t = type(value)
    if t is str:
        out.append(_encode_str(value))
        return
    if t is int:
        out.append(int.__repr__(value))
        return
    if value is None:
        out.append("null")
        return
    if t is not dict and t is not list and t is not tuple:
        if isinstance(value, dict):
            t = dict
        elif not isinstance(value, (list, tuple)):
            # str and int subclasses included: json.dumps writes the bytes
            # of the exact types' branches above
            out.append(json.dumps(value))
            return
    if not value:
        out.append("{}" if t is dict else "[]")
        return
    inner = indent + "  "
    if t is dict:
        sep = "{\n" + inner
        for k, v in value.items():
            # json.dumps writes a key that is not a str (int, float, bool,
            # None) as the string of its JSON text
            out.append(sep + _encode_str(k if isinstance(k, str) else json.dumps(k)) + ": ")
            _write_json(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            _write_json(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")


def load_json(text: str, what: str = "invalid JSON"):
    """json.loads, each way it fails raised as FormatError, a UsageError,
    with a message that starts with what."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: {exc}") from None
    except RecursionError:
        raise FormatError(f"{what}: nested too deeply") from None
    except ValueError:  # an integer past int's text limit, which is not raised
        raise FormatError(f"{what}: an integer has more than {sys.get_int_max_str_digits()} digits") from None


def parse_envelope(text: str) -> Envelope:
    doc = load_json(text)
    if not isinstance(doc, dict) or "header" not in doc or "payload" not in doc:
        raise FormatError("envelope needs 'header' and 'payload'")
    header = doc["header"]
    if not isinstance(header, dict):
        raise FormatError("'header' must be an object")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(
            f"format_version mismatch: expected {FORMAT_VERSION}, got {version!r}"
        )
    for key in ("group", "field", "kind"):
        if key not in header:
            raise FormatError(f"header is missing {key!r}")
    group = GroupSpec.from_label(header["group"])
    field = FieldSpec.from_label(header["field"])
    n = header.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 1):
        raise FormatError(f"header 'n' must be null or a positive integer, got {n!r}")
    kind = header["kind"]
    parse = _kind(kind)[1]
    if parse is None:
        raise FormatError(f"payload kind {kind!r} is write-only")
    if n is None and kind == "configuration":
        raise FormatError("configurations need an integer 'n' in the header")
    value, repaired = parse(group, field, n, doc["payload"])
    return Envelope(group, field, n, kind, value, repaired)


def envelope_for(value) -> Envelope:
    """Wrap a live object in an envelope with the right header."""
    if isinstance(value, GroupRingElement):
        return Envelope(value.group, value.field, value.shape, "groupring", value)
    if isinstance(value, TwistedElement):
        return Envelope(value.group, value.field, value.shape, "twisted", value)
    if isinstance(value, TwistedMatrix):
        return Envelope(value.group, value.field, value.shape, "twisted_matrix", value)
    if isinstance(value, Nuca):
        return Envelope(value.group, value.field, value.n, "twisted", value.element)
    if isinstance(value, Configuration):
        return Envelope(value.group, value.field, value.n, "configuration", value)
    if isinstance(value, InducedLocalMap):
        return Envelope(value.group, value.field, value.n, "local_map", value)
    raise FormatError(f"cannot wrap {type(value).__name__} in an envelope")
