"""The benchmark's tracer (perfbench/spans.py) patches names of the package
by attribute; a name it patches that the package no longer has must fail
here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

from d1ring import invert
from d1ring.experiments import decoy_nuca

from conftest import F5, Z1

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, raw in patches:
            assert owner.__dict__[attr] is not raw
        # the module attributes are what the procedures call
        invert.kernel_tower(decoy_nuca(Z1, F5, 1), 1, 1)
        assert invert.finitely_supported_kernel(decoy_nuca(Z1, F5, 1), 1) is None
    finally:
        tracer.uninstall()
    for owner, attr, raw in patches:
        assert owner.__dict__[attr] is raw
    metrics = tracer.metrics()
    assert metrics["invert.kernel_tower.calls"] == 1
    assert metrics["invert.finitely_supported_kernel.calls"] == 1
    assert metrics["exactalg.kernel_basis.calls"] == 1
