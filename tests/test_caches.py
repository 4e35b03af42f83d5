"""Every per-key cache of the package is bounded, so that a long-running
process (a suite, a census) cannot grow one without limit."""

from d1ring import groupring, groups

from conftest import package_caches

# The caches with no maxsize, each with the bound its callers keep
UNBOUNDED_CACHES = {
    "groups._zd_site_functions": "d <= 12: only a Z^d whose radius-1 ball fits MAX_BALL_SIZE asks",
    "groupring._matrix_kernels": "n <= MAX_KERNEL_N: _kernels(n) takes the loops past it",
}


def test_every_cache_is_bounded():
    caches = package_caches()
    # the walk finds the caches the package is known to have
    assert {"groups._group_of_label", "exactalg._cached_rational", "invert._tower_overflow"} <= set(caches)
    unbounded = {name for name, cache in caches.items() if cache.cache_parameters()["maxsize"] is None}
    assert unbounded == set(UNBOUNDED_CACHES)


def test_unbounded_caches_keep_their_callers_bound(cold_caches):
    assert groups._zd_site_functions.cache_info().currsize == 0
    groups.GroupSpec.zd(13)
    assert groups._zd_site_functions.cache_info().currsize == 0
    groups.GroupSpec.zd(12)
    assert groups._zd_site_functions.cache_info().currsize == 1
    groupring._kernels(groupring.MAX_KERNEL_N + 1)
    assert groupring._matrix_kernels.cache_info().currsize == 0
    groupring._kernels(groupring.MAX_KERNEL_N)
    assert groupring._matrix_kernels.cache_info().currsize == 1
