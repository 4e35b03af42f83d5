"""The public API, `d1ring.__all__`, is part of the package's contract: a
change to it has to change the list below too, so it shows in a diff."""

import dataclasses

import pytest

import d1ring

PUBLIC_API = [
    "Configuration",
    "FieldSpec",
    "FiniteSubset",
    "FormatError",
    "GroupRingElement",
    "GroupSpec",
    "InducedLocalMap",
    "InjectivityVerdict",
    "InverseSearchParams",
    "KernelTowerReport",
    "LocalRule",
    "Matrix",
    "Nuca",
    "Pattern",
    "SearchBudget",
    "Subspace",
    "SuiteConfig",
    "SuiteReport",
    "TwistedElement",
    "TwistedMatrix",
    "UsageError",
    "embed",
    "f_shuffle",
    "f_shuffle_inv",
    "finitely_supported_kernel",
    "gen_unit",
    "kernel_basis",
    "kernel_tower",
    "matrix_shuffle",
    "matrix_unshuffle",
    "rank",
    "run_direct_finiteness",
    "run_surjunctivity_pipeline",
    "search_left_inverse",
    "search_one_sided_inverse",
    "solve",
    "solve_one_sided_inverse",
    "stable_injectivity_verdict",
    "verify_identity",
]


def test_all_is_the_sorted_public_api():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert d1ring.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from d1ring import *", namespace)
    for name in PUBLIC_API:
        assert namespace[name] is getattr(d1ring, name)


def test_ring_elements_are_slotted_classes():
    """The ring elements are built tens of thousands of times per suite, so
    they are slotted classes whose __init__ stores each field through its
    slot; a frozen dataclass's __init__ sets each field through
    object.__setattr__, at about twice the cost."""
    for cls in (d1ring.GroupRingElement, d1ring.TwistedElement):
        assert "__slots__" in cls.__dict__
        assert not dataclasses.is_dataclass(cls)


Z1, F5 = d1ring.GroupSpec.zd(1), d1ring.FieldSpec.fp(5)
ONE = d1ring.GroupRingElement.one(Z1, F5, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: d1ring.embed(5), "embed takes a group ring element, got int"),
        (lambda: d1ring.TwistedElement.make(5), "regular part must be a group ring element, got int"),
        (lambda: d1ring.TwistedElement.make(ONE, [((0,), 5)]), "singular part must be a group ring element, got int"),
        (
            lambda: d1ring.stable_injectivity_verdict(d1ring.Nuca.identity(Z1, F5, 1), None),
            "SearchBudget, got NoneType",
        ),
    ],
    ids=["embed", "make-regular", "make-singular", "verdict-budget"],
)
def test_wrong_argument_types_are_refused(call, message):
    with pytest.raises(d1ring.UsageError, match=message):
        call()
