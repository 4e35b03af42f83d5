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
from typing import Optional

from .envelope import Envelope, envelope_for, parse_envelope, serialize_envelope
from .errors import FormatError, UsageError
from .exactalg import FieldSpec
from .experiments import (
    SuiteConfig,
    run_direct_finiteness,
    run_surjunctivity_pipeline,
)
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


def _write(path: str, text: str) -> None:
    if path == "-" or path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _load(path: str, kinds: tuple[str, ...]) -> Envelope:
    env = parse_envelope(_read(path))
    if env.kind not in kinds:
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


def _emit(args, value, omit_timing: bool = False) -> None:
    env = value if isinstance(value, Envelope) else envelope_for(value)
    _write(getattr(args, "output", "-") or "-", serialize_envelope(env, omit_timing=omit_timing))


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
    t = _nuca_from(_load(args.nuca, ("twisted",)))
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
    t_env = _load(args.nuca, ("twisted",))
    t = _nuca_from(t_env)
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
    t = _nuca_from(_load(args.nuca, ("twisted",)))
    hit = search_one_sided_inverse(t, args.side, args.max_radius)
    env = Envelope(t.group, t.field, t.n, "inverse_search", (args.side, hit))
    _emit(args, env)
    return 0 if hit is not None else 1


def _cmd_kernel_tower(args) -> int:
    t = _nuca_from(_load(args.nuca, ("twisted",)))
    report = kernel_tower(t, args.depth, args.window)
    _emit(args, Envelope(t.group, t.field, t.n, "kernel_tower_report", report))
    return 0


def _cmd_verdict(args) -> int:
    t = _nuca_from(_load(args.nuca, ("twisted",)))
    budget = SearchBudget(max_radius=args.max_radius, depth=args.depth, window=args.window)
    verdict = stable_injectivity_verdict(t, budget)
    _emit(args, Envelope(t.group, t.field, t.n, "verdict", verdict))
    return 0


def _suite_config(args) -> SuiteConfig:
    return SuiteConfig(
        seed=args.seed,
        trials=args.trials,
        group=GroupSpec.from_label(args.group),
        field=FieldSpec.from_label(args.field),
        n=args.n,
        support_radius=args.support_radius,
        budget=SearchBudget(max_radius=args.max_radius, depth=args.depth, window=args.window),
        max_factors=args.max_factors,
        rediscover_inverse=getattr(args, "rediscover", False),
        decoy_every=getattr(args, "decoy_every", 0),
    )


def _cmd_experiment(args) -> int:
    config = _suite_config(args)
    if args.suite == "direct-finiteness":
        report = run_direct_finiteness(config)
    else:
        report = run_surjunctivity_pipeline(config)
    env = Envelope(config.group, config.field, None, "suite_report", report)
    _emit(args, env, omit_timing=args.omit_timing)
    return 0 if report.ok else 1


def _cmd_fmt(args) -> int:
    env = parse_envelope(_read(args.input))
    if env.canonicalized:
        print(f"warning: {args.input}: payload was not canonical; canonicalized", file=sys.stderr)
    _write(getattr(args, "output", "-") or "-", serialize_envelope(env))
    return 0


# -- parser ---------------------------------------------------------------------------

def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default="-", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d1",
        description="Exact workbench for twisted group rings and noisy linear cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="twisted ring product of two elements")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    _add_output(p)
    p.set_defaults(fn=_cmd_mul)

    p = sub.add_parser("add", help="twisted ring sum of two elements")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    _add_output(p)
    p.set_defaults(fn=_cmd_add)

    p = sub.add_parser("embed", help="embed a group ring element as (a, 0)")
    p.add_argument("-a", required=True)
    _add_output(p)
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("f-shuffle", help="matrix-coefficient element <-> matrix of scalar elements")
    p.add_argument("-a", required=True)
    p.add_argument("--inverse", action="store_true", help="go from matrix to element")
    _add_output(p)
    p.set_defaults(fn=_cmd_f_shuffle)

    p = sub.add_parser("apply", help="apply a map to a configuration")
    p.add_argument("-t", "--nuca", required=True)
    p.add_argument("-x", "--config", required=True)
    _add_output(p)
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("compose", help="compose two maps (ring product)")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    _add_output(p)
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("verify-identity", help="is a after b the identity map?")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_verify_identity)

    p = sub.add_parser("local-map", help="matrix of the action on a finite window")
    p.add_argument("-t", "--nuca", required=True)
    p.add_argument("--sites", required=True, help="JSON array of group elements")
    _add_output(p)
    p.set_defaults(fn=_cmd_local_map)

    p = sub.add_parser("invert", help="one-sided inverse by factorisation t = a S, within --max-radius")
    p.add_argument("nuca")
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--max-radius", type=int, default=3)
    _add_output(p)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("kernel-tower", help="kernel dimensions over the box exhaustion (Z^d)")
    p.add_argument("nuca")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--window", type=int, default=2)
    _add_output(p)
    p.set_defaults(fn=_cmd_kernel_tower)

    p = sub.add_parser("verdict", help="certificate / witness / bounded-evidence verdict")
    p.add_argument("nuca")
    p.add_argument("--max-radius", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--window", type=int, default=2)
    _add_output(p)
    p.set_defaults(fn=_cmd_verdict)

    p = sub.add_parser("experiment", help="seeded randomized suites")
    p.add_argument("suite", choices=["direct-finiteness", "pipeline"])
    p.add_argument("--group", required=True, help="Zd:<d> or free:<rank>")
    p.add_argument("--field", required=True, help="Fp:<p> or Q")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--support-radius", type=int, default=1)
    p.add_argument("--max-radius", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--max-factors", type=int, default=2)
    p.add_argument("--rediscover", action="store_true",
                   help="direct-finiteness: rediscover the inverse with the exact solver")
    p.add_argument("--decoy-every", type=int, default=0,
                   help="pipeline: every k-th trial runs the non-injective control")
    p.add_argument("--omit-timing", action="store_true",
                   help="drop wall-clock fields (for reproducible output)")
    _add_output(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("fmt", help="parse and re-serialize an envelope canonically")
    p.add_argument("input")
    _add_output(p)
    p.set_defaults(fn=_cmd_fmt)

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
