"""Checks of the paper's theorem SHH(A, M) = SH(A, ad M) and of its
corollary for commutative algebras.

`bar.symmetric_cohomology` and `resolution.sh_via_resolution` compute SHH
of a bimodule through the theorem, on the adjoint module ad M.  Each check
here puts the nonhomogeneous realization of M itself on the SHH side
(`bar.nonhomogeneous_symmetric_dims`): it reads the right action of M in
its last face and last generator and never builds ad M, so the two sides
share no construction of the adjoint module.
"""

from __future__ import annotations

from .bar import nonhomogeneous_symmetric_dims, symmetric_cohomology
from .complexes import CohomologyReport, require_cocommutative
from .errors import NotCommutative
from .hopf import HopfAlgebra
from .modules import Bimodule, adjoint_module, regular_bimodule, trivial_module


def compare_adjoint(h: HopfAlgebra, bim: Bimodule, top: int) -> CohomologyReport:
    """Dimension comparison SHH^n(A, M) = SH^n(A, ad M): the fixed
    subcomplex of the nonhomogeneous realization of M against the
    homogeneous fixed subcomplex of ad M."""
    require_cocommutative(h)
    shh = nonhomogeneous_symmetric_dims(h, bim, top)
    sh = symmetric_cohomology(h, adjoint_module(h, bim), top).dims
    report = CohomologyReport(shh, "nonhomogeneous")
    report.routes["SHH"] = shh
    report.routes["SH_adjoint"] = sh
    for n in range(top):
        report.checks.append((f"degree_{n}_equal", shh[n] == sh[n]))
    return report


def commutative_factorization_check(h: HopfAlgebra, top: int,
                                    route: str = "bar") -> CohomologyReport:
    """For commutative cocommutative A: dim SHH^n(A, A) = dim A * dim SH^n(A, k).

    ad A is then dim A copies of k, so SHH is taken from the nonhomogeneous
    realization of the regular bimodule on either route, and route picks
    the complex family of SH(A, k): "bar" the fixed subcomplex,
    "resolution" the coinvariant resolution (imported only for that route).
    """
    require_cocommutative(h)
    if not h.is_commutative:
        raise NotCommutative("the factorization needs a commutative algebra")
    shh = nonhomogeneous_symmetric_dims(h, regular_bimodule(h), top)
    if route == "resolution":
        from .resolution import sh_via_resolution as sh_route
    else:
        sh_route = symmetric_cohomology
    sh = sh_route(h, trivial_module(h), top).dims
    report = CohomologyReport(shh, route)
    report.routes["SHH"] = shh
    report.routes["SH_scaled"] = [h.dim * v for v in sh]
    for n in range(top):
        report.checks.append((f"degree_{n}_equal", shh[n] == h.dim * sh[n]))
    return report
