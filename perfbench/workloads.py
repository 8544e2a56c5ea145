"""The benchmark's workloads: which algebras each builds from the seed, and
which `symcoh` CLI jobs it runs on them.

Every job is one fresh `python -m symcoh.cli` process.  Jobs name their
algebra by a key of the workload's `algebras`; the seed decides the input
file behind the key (see inputs.py), never the job list.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Group:
    """A builtin group whose non-identity elements the seed relabels."""

    name: str
    field: str


@dataclass(frozen=True)
class Canonical:
    """A builtin algebra passed by name, unchanged by the seed."""

    name: str
    field: str


@dataclass(frozen=True)
class Generic:
    """A seeded unitriangular basis change of the group algebra of `group`
    over GF(p).  Draws are rejected until the comultiplication has exactly
    `comult_nnz` nonzero constants and the Sweedler expansion of the
    diagonal action on `slots` tensor slots has between `expansion_lo` and
    `expansion_hi` terms (inputs.expansion_terms)."""

    group: str
    p: int
    comult_nnz: int
    slots: int
    expansion_lo: int
    expansion_hi: int


@dataclass(frozen=True)
class Job:
    name: str
    algebra: str
    args: tuple


@dataclass(frozen=True)
class Workload:
    why: str
    algebras: dict
    jobs: tuple


def _job(name, algebra, *args):
    return Job(name, algebra, tuple(args))


# Two workloads: the number of benchmark runs grows with the number of
# workloads within a fixed time limit, and two leave each run long enough
# for a whole pass of the larger one.  The group jobs share one workload, so
# their end-to-end times are not split by route; the traced run's layer
# metrics still are.
WORKLOADS = {
    "group": Workload(
        why="group algebras over GF(p) and Q on both routes: the dense "
            "fixed-subspace kernel, the coinvariant resolution and its "
            "self-checks, Fraction arithmetic and the sandwich rank certificate",
        algebras={"C5": Group("Cp:5", "gf:5"), "C7": Canonical("Cp:7", "gf:7"),
                  "S3": Group("S3", "gf:5"), "S3q": Group("S3", "q")},
        jobs=(
            # the bar (fixed-subcomplex) route: the dense (#sigma*s) x s
            # kernel sets time and peak memory
            _job("SH-C5-bar", "C5", "--mode", "SH", "--max-degree", "5"),
            _job("SHH-S3-bar", "S3", "--mode", "SHH", "--max-degree", "3"),
            _job("adjoint-S3", "S3", "--mode", "compare-adjoint", "--max-degree", "3"),
            _job("corollary-C5", "C5", "--mode", "corollary-check", "--max-degree", "4"),
            # the resolution route: index and sparse work, little elimination
            _job("cp-table-C7", "C7", "--mode", "cp-table", "--max-degree", "4"),
            _job("resolution-S3", "S3", "--mode", "resolution", "--max-degree", "4"),
            _job("SHH-S3-res", "S3", "--mode", "SHH", "--max-degree", "3",
                 "--route", "resolution"),
            _job("SH-C5-res", "C5", "--mode", "SH", "--max-degree", "7",
                 "--route", "resolution"),
            # over Q: Fractions and the sandwich certificate
            _job("H-S3-q", "S3q", "--mode", "H", "--max-degree", "4"),
            _job("SH-S3-q-res", "S3q", "--mode", "SH", "--max-degree", "5",
                 "--route", "resolution"),
        )),
    "generic": Workload(
        why="non-group-like bases of kC3 and kS3: every group fast path is "
            "bypassed, so a group-only change must leave it unchanged",
        algebras={"gC3": Generic("Cp:3", 3, comult_nnz=9, slots=5,
                                 expansion_lo=371_293, expansion_hi=371_293),
                  "gS3": Generic("S3", 5, comult_nnz=76, slots=3,
                                 expansion_lo=2_550_000, expansion_hi=2_660_000)},
        jobs=(
            _job("SH-gC3-bar", "gC3", "--mode", "SH", "--max-degree", "4"),
            _job("SH-gC3-res", "gC3", "--mode", "SH", "--max-degree", "4",
                 "--route", "resolution"),
            _job("SHH-gC3-bar", "gC3", "--mode", "SHH", "--max-degree", "2"),
            _job("SH-gS3-bar", "gS3", "--mode", "SH", "--max-degree", "2"),
        )),
}
