import functools
import importlib
import pkgutil
import random

import pytest

import d1ring
from d1ring.exactalg import FieldSpec
from d1ring.groupring import GroupRingElement
from d1ring.groups import GroupSpec
from d1ring.nuca import Nuca
from d1ring.twisted import TwistedElement


Z1 = GroupSpec.zd(1)
Z2 = GroupSpec.zd(2)
F2FREE = GroupSpec.free(2)
GROUPS = [Z1, Z2, F2FREE]

F2 = FieldSpec.fp(2)
F3 = FieldSpec.fp(3)
F5 = FieldSpec.fp(5)
Q = FieldSpec.rationals()


def gre(group, field, shape, terms):
    return GroupRingElement.from_terms(group, field, shape, terms)


def f3_pair():
    """The fixed inverse pair over F3, Z: u = (1*[0], b(0)=1*[1]),
    v = (1*[0], b'(0)=2*[1]); u*v = v*u = 1."""
    alpha = gre(Z1, F3, None, [((0,), 1)])
    u = TwistedElement.make(alpha, [((0,), gre(Z1, F3, None, [((1,), 1)]))])
    v = TwistedElement.make(alpha, [((0,), gre(Z1, F3, None, [((1,), 2)]))])
    return u, v


def f3_nuca_pair():
    """The same pair as 1x1 matrix-shaped NUCAs."""
    alpha = gre(Z1, F3, 1, [((0,), ((1,),))])
    u = Nuca(TwistedElement.make(alpha, [((0,), gre(Z1, F3, 1, [((1,), ((1,),))]))]))
    v = Nuca(TwistedElement.make(alpha, [((0,), gre(Z1, F3, 1, [((1,), ((2,),))]))]))
    return u, v


def f3_example_nuca():
    """The exceptional map over F3, Z, n=1: constant rule w(0)+w(1) with
    an extra +w(0) at site 0."""
    alpha = gre(Z1, F3, 1, [((0,), ((1,),)), ((1,), ((1,),))])
    beta0 = gre(Z1, F3, 1, [((0,), ((1,),))])
    return Nuca(TwistedElement.make(alpha, [((0,), beta0)]))


def nilpotent_nuca():
    """n=2 pointwise nilpotent constant map over F2, Z."""
    a = gre(Z1, F2, 2, [((0,), ((0, 1), (0, 0)))])
    return Nuca(TwistedElement.make(a, []))


@pytest.fixture
def rng():
    return random.Random(20240817)


def package_caches() -> dict:
    """Every functools.lru_cache wrapper that a module of d1ring defines, at
    module level or in a class, by "module.name"."""
    caches = {}
    for info in pkgutil.iter_modules(d1ring.__path__):
        module = importlib.import_module(f"d1ring.{info.name}")
        spaces = [vars(module)] + [vars(c) for c in vars(module).values() if isinstance(c, type)]
        for space in spaces:
            for name, obj in space.items():
                obj = obj.__func__ if isinstance(obj, (staticmethod, classmethod)) else obj
                if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__:
                    caches[f"{info.name}.{name}"] = obj
    return caches


@pytest.fixture
def cold_caches():
    """Empty every cache of the package before and after the test, so that
    a test that counts work sees the work of a fresh process."""
    caches = package_caches().values()
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
