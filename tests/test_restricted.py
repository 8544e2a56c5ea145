"""k[x]/(x^p) with x primitive: a cocommutative Hopf algebra that is not a
group algebra in any basis, run through both routes and both realizations."""

import pytest

from oracles import periodic_cyclic_cohomology_dims
from restricted import restricted_enveloping
from symcoh.bar import classical_cohomology, symmetric_cohomology
from symcoh.hopf import cyclic_group_table, group_algebra, validate_hopf
from symcoh.modules import regular_left_module, trivial_module
from symcoh.resolution import sh_via_resolution

PRIMES = (3, 5)


@pytest.mark.parametrize("p", PRIMES)
def test_valid_and_not_group_like(p):
    u = restricted_enveloping(p)
    assert not u.group_like
    assert u.is_cocommutative and u.is_commutative
    report = validate_hopf(u, require_cocommutative=True)
    assert report.passed, report.failures()


@pytest.mark.parametrize("p", PRIMES)
def test_cohomology_matches_periodic_resolution(p):
    """H(u, M) depends only on the augmented algebra, and u is kC_p under
    x -> g - 1; trivial and regular modules correspond under that map."""
    u = restricted_enveloping(p)
    kc = group_algebra(p, cyclic_group_table(p), u.field)
    top = 4
    for module in (trivial_module, regular_left_module):
        expect = periodic_cyclic_cohomology_dims(kc, module(kc), top - 1)
        assert classical_cohomology(u, module(u), top).dims == expect
    assert periodic_cyclic_cohomology_dims(kc, trivial_module(kc), top - 1) == [1] * top


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("module", (trivial_module, regular_left_module))
def test_symmetric_cohomology_routes_and_realizations_agree(p, module):
    u = restricted_enveloping(p)
    mod = module(u)
    # regular coefficients at degree 3 put a 15625 x 3125 kernel in the
    # dense elimination; degree 2 keeps the test under a second
    top = 3 if module is trivial_module else 2
    rep = symmetric_cohomology(u, mod, top, cross_check=True)
    assert rep.checks == [("realizations_agree", True)], rep.routes
    assert sh_via_resolution(u, mod, top).dims == rep.dims
