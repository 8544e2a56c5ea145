"""The two sides of the paper's theorem SHH(A, M) = SH(A, ad M) and of its
corollary for commutative algebras, as lists of dimensions; the CLI
compares them degree by degree.

`bar.symmetric_cohomology` and `resolution.sh_via_resolution` compute SHH
of a bimodule through the theorem, on the adjoint module ad M.  Each
function here puts the nonhomogeneous realization of M itself on the SHH
side (`bar.nonhomogeneous_symmetric_dims`): it reads the right action of
M in its last face and last generator and never builds ad M, so the two
sides share no construction of the adjoint module.
"""

from __future__ import annotations

from .bar import nonhomogeneous_symmetric_dims, symmetric_cohomology
from .complexes import require_cocommutative
from .errors import NotCommutative
from .hopf import HopfAlgebra
from .modules import Bimodule, adjoint_module, regular_bimodule, trivial_module


def compare_adjoint(h: HopfAlgebra, bim: Bimodule, top: int) -> tuple[list, list]:
    """The two sides of SHH^n(A, M) = SH^n(A, ad M), n < top: the fixed
    subcomplex of the nonhomogeneous realization of M, then the
    homogeneous fixed subcomplex of ad M."""
    require_cocommutative(h)
    return (nonhomogeneous_symmetric_dims(h, bim, top),
            symmetric_cohomology(h, adjoint_module(h, bim), top))


def commutative_factorization_check(h: HopfAlgebra, top: int,
                                    route: str = "bar") -> tuple[list, list]:
    """For commutative cocommutative A, the two sides of
    dim SHH^n(A, A) = dim A * dim SH^n(A, k), n < top.

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
    return shh, [h.dim * v for v in sh_route(h, trivial_module(h), top)]
