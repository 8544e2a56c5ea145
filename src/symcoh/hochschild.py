"""Hochschild cohomology and symmetric Hochschild cohomology of a Hopf
algebra with bimodule coefficients, and the comparisons with symmetric
cohomology of the adjoint module.

The Hochschild complexes are the constructions of `bar` for a bimodule:
the same complexes with one trailing slot acted on from the right.
"""

from __future__ import annotations

from .bar import (DEFAULT_BUDGET, CohomologyReport, classical_cohomology,
                  require_cocommutative, symmetric_cohomology)
from .errors import NotCommutative
from .hopf import HopfAlgebra
from .modules import Bimodule, adjoint_module, regular_bimodule, trivial_module
from .resolution import sh_via_resolution, shh_via_resolution


# HH and SHH are H and SH with bimodule coefficients
classical_hochschild_cohomology = classical_cohomology
symmetric_hochschild_cohomology = symmetric_cohomology


def compare_adjoint(h: HopfAlgebra, bim: Bimodule, top: int,
                    budget: int = DEFAULT_BUDGET,
                    shh_realization: str = "homogeneous") -> CohomologyReport:
    """Dimension comparison SHH^n(A, M) = SH^n(A, ad M), computed along
    two independent code paths (Hochschild fixed complex vs bar fixed
    complex of the adjoint module)."""
    require_cocommutative(h)
    shh = symmetric_hochschild_cohomology(h, bim, top, realization=shh_realization,
                                          budget=budget)
    ad = adjoint_module(h, bim)
    sh = symmetric_cohomology(h, ad, top, budget=budget)
    report = CohomologyReport(shh.dims, shh_realization, kind="SHH=SH(ad)")
    report.routes["SHH"] = shh.dims
    report.routes["SH_adjoint"] = sh.dims
    for n in range(top):
        report.checks.append((f"degree_{n}_equal", shh.dims[n] == sh.dims[n]))
    return report


def commutative_factorization_check(h: HopfAlgebra, top: int,
                                    budget: int = DEFAULT_BUDGET,
                                    route: str = "bar") -> CohomologyReport:
    """For commutative cocommutative A: dim SHH^n(A, A) = dim A * dim SH^n(A, k).

    route "bar" uses the fixed subcomplexes; route "resolution" computes
    both sides from the coinvariant resolutions.
    """
    require_cocommutative(h)
    if not h.is_commutative:
        raise NotCommutative("the factorization needs a commutative algebra")
    bim = regular_bimodule(h)
    triv = trivial_module(h)
    if route == "resolution":
        shh = shh_via_resolution(h, bim, top)
        sh = sh_via_resolution(h, triv, top)
    else:
        shh = symmetric_hochschild_cohomology(h, bim, top, budget=budget)
        sh = symmetric_cohomology(h, triv, top, budget=budget)
    report = CohomologyReport(shh.dims, route, kind="SHH(A,A)=dimA*SH(A,k)")
    report.routes["SHH"] = shh.dims
    report.routes["SH_scaled"] = [h.dim * v for v in sh.dims]
    for n in range(top):
        report.checks.append((f"degree_{n}_equal",
                              shh.dims[n] == h.dim * sh.dims[n]))
    return report
