"""The `d1` command line front end.

Every subcommand is a thin wrapper over a library call; inputs and
outputs are canonical JSON envelopes (see docs/formats.md).  `-` stands
for stdin/stdout.  Exit codes: 0 success, 1 mathematical failure (an
identity check came back false, no certificate within budget, a suite
recorded failures), 2 usage or format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Callable, NamedTuple, Optional

from .envelope import Envelope, envelope_for, parse_envelope, serialize_envelope
from .errors import FormatError, UsageError
from .exactalg import FieldSpec
from .experiments import SuiteConfig, run_direct_finiteness, run_surjunctivity_pipeline
from .groups import FiniteSubset, GroupSpec
from .invert import (
    SearchBudget,
    kernel_tower,
    search_one_sided_inverse,
    stable_injectivity_verdict,
    verify_identity,
)
from .nuca import Nuca
from .twisted import embed, f_shuffle, f_shuffle_inv


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load(path: str, kinds: Optional[tuple[str, ...]] = None) -> Envelope:
    """The envelope at path, whose payload must be one of kinds (any kind
    if None); a payload that had to be canonicalized is warned about."""
    env = parse_envelope(_read(path))
    if kinds is not None and env.kind not in kinds:
        raise UsageError(f"{path}: expected a {' or '.join(kinds)} payload, got {env.kind}")
    if env.canonicalized:
        print(f"warning: {path}: payload was not canonical; canonicalized", file=sys.stderr)
    return env


def _load_pair(args) -> tuple[Envelope, Envelope]:
    """The twisted operands -a and -b, which must agree on group, field and
    coefficient shape."""
    a = _load(args.a, ("twisted",))
    b = _load(args.b, ("twisted",))
    if (a.group, a.field, a.n) != (b.group, b.field, b.n):
        raise UsageError("inputs disagree on group, field, or coefficient shape")
    return a, b


def _nuca_from(env: Envelope) -> Nuca:
    if env.n is None:
        raise UsageError("this subcommand needs matrix-shaped coefficients (header n >= 1)")
    return Nuca(env.payload)


def _load_nuca(path: str) -> Nuca:
    return _nuca_from(_load(path, ("twisted",)))


def _emit(args, value, omit_timing: bool = False) -> None:
    env = value if isinstance(value, Envelope) else envelope_for(value)
    text = serialize_envelope(env, omit_timing=omit_timing)
    # an empty path means stdout, as "-" does
    if args.output in ("-", ""):
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc}") from None


def _budget(args) -> SearchBudget:
    return SearchBudget(max_radius=args.max_radius, depth=args.depth, window=args.window)


# -- subcommand handlers -------------------------------------------------------------

def _cmd_mul(args) -> int:
    a, b = _load_pair(args)
    _emit(args, a.payload * b.payload)
    return 0


def _cmd_add(args) -> int:
    a, b = _load_pair(args)
    _emit(args, a.payload + b.payload)
    return 0


def _cmd_embed(args) -> int:
    a = _load(args.a, ("groupring",))
    _emit(args, embed(a.payload))
    return 0


def _cmd_f_shuffle(args) -> int:
    if args.inverse:
        a = _load(args.a, ("twisted_matrix",))
        if a.n is not None:
            raise UsageError("f-shuffle --inverse expects scalar-shaped entries")
        _emit(args, f_shuffle_inv(a.payload))
    else:
        a = _load(args.a, ("twisted",))
        if a.n is None:
            raise UsageError("f-shuffle expects matrix-shaped coefficients")
        _emit(args, f_shuffle(a.payload))
    return 0


def _cmd_apply(args) -> int:
    t = _load_nuca(args.nuca)
    x_env = _load(args.config, ("configuration",))
    if (x_env.group, x_env.field, x_env.n) != (t.group, t.field, t.n):
        raise UsageError("configuration disagrees with the map on group/field/n")
    _emit(args, t.apply(x_env.payload))
    return 0


def _cmd_compose(args) -> int:
    a, b = map(_nuca_from, _load_pair(args))
    _emit(args, a.compose(b))
    return 0


def _cmd_verify_identity(args) -> int:
    ok = verify_identity(*map(_nuca_from, _load_pair(args)))
    print("true" if ok else "false")
    return 0 if ok else 1


def _cmd_local_map(args) -> int:
    t = _load_nuca(args.nuca)
    try:
        raw = json.loads(args.sites)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--sites must be a JSON array of group elements: {exc}") from None
    if not isinstance(raw, list):
        raise UsageError("--sites must be a JSON array of group elements")
    sites = [t.group.parse_element(v)[0] for v in raw]
    window = FiniteSubset.make(t.group, sites)
    _emit(args, t.induced_local_map(window))
    return 0


def _cmd_invert(args) -> int:
    t = _load_nuca(args.nuca)
    hit = search_one_sided_inverse(t, args.side, args.max_radius)
    _emit(args, Envelope(t.group, t.field, t.n, "inverse_search", (args.side, hit)))
    return 0 if hit is not None else 1


def _cmd_kernel_tower(args) -> int:
    t = _load_nuca(args.nuca)
    report = kernel_tower(t, args.depth, args.window)
    _emit(args, Envelope(t.group, t.field, t.n, "kernel_tower_report", report))
    return 0


def _cmd_verdict(args) -> int:
    t = _load_nuca(args.nuca)
    verdict = stable_injectivity_verdict(t, _budget(args))
    _emit(args, Envelope(t.group, t.field, t.n, "verdict", verdict))
    return 0


def _cmd_experiment(args) -> int:
    config = SuiteConfig(
        seed=args.seed, trials=args.trials,
        group=GroupSpec.from_label(args.group), field=FieldSpec.from_label(args.field), n=args.n,
        support_radius=args.support_radius, budget=_budget(args), max_factors=args.max_factors,
        decoy_every=args.decoy_every,
    )
    run = run_direct_finiteness if args.suite == "direct-finiteness" else run_surjunctivity_pipeline
    report = run(config)
    _emit(args, Envelope(config.group, config.field, None, "suite_report", report), omit_timing=args.omit_timing)
    return 0 if report.ok else 1


def _cmd_fmt(args) -> int:
    _emit(args, _load(args.input))
    return 0


# -- parser ---------------------------------------------------------------------------

def _arg(*flags: str, **options) -> tuple:
    """One argument: what add_argument takes."""
    return flags, options


# the budget and suite options default to the library's own defaults, decided there only
_BUDGET = SearchBudget()
_SUITE = {f.name: f.default for f in fields(SuiteConfig)}

_OPERANDS = (_arg("-a", required=True), _arg("-b", required=True))
_NUCA = _arg("nuca")
_NUCA_OPTION = _arg("-t", "--nuca", required=True)
_MAX_RADIUS = _arg("--max-radius", type=int, default=_BUDGET.max_radius)
_TOWER = (_arg("--depth", type=int, default=_BUDGET.depth), _arg("--window", type=int, default=_BUDGET.window))
_OUTPUT = _arg("-o", "--output", default="-", help="output path (default: stdout)")


class _Command(NamedTuple):
    name: str
    fn: Callable
    help: str
    args: tuple
    writes: bool = True  # takes -o/--output


_COMMANDS = (
    _Command("mul", _cmd_mul, "twisted ring product of two elements", _OPERANDS),
    _Command("add", _cmd_add, "twisted ring sum of two elements", _OPERANDS),
    _Command("embed", _cmd_embed, "embed a group ring element as (a, 0)", _OPERANDS[:1]),
    _Command("f-shuffle", _cmd_f_shuffle, "matrix-coefficient element <-> matrix of scalar elements",
             (_OPERANDS[0], _arg("--inverse", action="store_true", help="go from matrix to element"))),
    _Command("apply", _cmd_apply, "apply a map to a configuration",
             (_NUCA_OPTION, _arg("-x", "--config", required=True))),
    _Command("compose", _cmd_compose, "compose two maps (ring product)", _OPERANDS),
    _Command("verify-identity", _cmd_verify_identity, "is a after b the identity map?",
             (_arg("a"), _arg("b")), writes=False),
    _Command("local-map", _cmd_local_map, "matrix of the action on a finite window",
             (_NUCA_OPTION, _arg("--sites", required=True, help="JSON array of group elements"))),
    _Command("invert", _cmd_invert, "one-sided inverse by factorisation t = a S, within --max-radius",
             (_NUCA, _arg("--side", choices=["left", "right"], default="left"), _MAX_RADIUS)),
    _Command("kernel-tower", _cmd_kernel_tower, "kernel dimensions over the box exhaustion (Z^d)",
             (_NUCA, *_TOWER)),
    _Command("verdict", _cmd_verdict, "certificate / witness / bounded-evidence verdict",
             (_NUCA, _MAX_RADIUS, *_TOWER)),
    _Command("experiment", _cmd_experiment, "seeded randomized suites", (
        _arg("suite", choices=["direct-finiteness", "pipeline"], help="pipeline is the blind-search suite"),
        _arg("--group", required=True, help="Zd:<d> or free:<rank>"),
        _arg("--field", required=True, help="Fp:<p> or Q"),
        _arg("--n", type=int, default=1),
        _arg("--seed", type=int, default=0),
        _arg("--trials", type=int, default=10),
        _arg("--support-radius", type=int, default=_SUITE["support_radius"]),
        _MAX_RADIUS,
        *_TOWER,
        _arg("--max-factors", type=int, default=_SUITE["max_factors"]),
        _arg("--decoy-every", type=int, default=_SUITE["decoy_every"],
             help="pipeline: every k-th trial runs the non-injective control"),
        _arg("--omit-timing", action="store_true", help="drop wall-clock fields (for reproducible output)"),
    )),
    _Command("fmt", _cmd_fmt, "parse and re-serialize an envelope canonically", (_arg("input"),)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d1",
        description="Exact workbench for twisted group rings and noisy linear cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flags, options in cmd.args + ((_OUTPUT,) if cmd.writes else ()):
            p.add_argument(*flags, **options)
        p.set_defaults(fn=cmd.fn)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.fn(args)
    except (FormatError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
