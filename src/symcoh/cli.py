"""Command-line front end: parse algebra/module descriptions, dispatch a
computation, and emit a deterministic report.

Exit codes: 0 success, 1 validation or assertion failure, 2 schema
error, 3 budget exceeded, 4 internal cross-check/assertion failure.  Every
mode but `validate` refuses an algebra that fails a Hopf axiom with exit 1,
and a flag that it does not read (`MODE_FLAGS`) with exit 2.

Each layer above the Hopf algebra (modules, the bar and resolution routes,
the Hochschild checks) is imported where a mode dispatches to it, so a
process loads only the layers it runs: `validate` loads none of them.
The layers return lists of dimensions; `run` alone names the routes and
checks of a report, and builds each `--cross-check` from two routes.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .errors import BudgetExceeded, NotAHopfAlgebra, SchemaError, SymcohError
from .fields import Field
from .hopf import (HopfAlgebra, group_algebra, named_group_table, validate_hopf)
from .linalg import Matrix
from .sparse import SparseMatrix

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SCHEMA = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def parse_field_flag(text: str) -> Field:
    t = text.strip().lower()
    if t in ("q", "rational", "rationals"):
        return Field.rationals()
    if t.startswith("gf:"):
        try:
            return Field.prime(int(t.split(":", 1)[1]))
        except ValueError as exc:
            raise SchemaError(f"bad field {text!r}: {exc}") from exc
    raise SchemaError(f"unknown field {text!r} (use q or gf:<p>)")


def _field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("field must be an object with a 'kind'")
    if obj["kind"] == "rational":
        return Field.rationals()
    if obj["kind"] == "prime":
        try:
            return Field.prime(int(obj["p"]))
        except (KeyError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad prime field: {exc}") from exc
    raise SchemaError(f"unknown field kind {obj['kind']!r}")


def _parse_matrix(field: Field, rows, what: str) -> Matrix:
    try:
        return Matrix.from_rows(field, [[field.parse(x) for x in row] for row in rows])
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"bad {what}: {exc}") from exc


def hopf_from_json(obj: dict, field_override: Field | None) -> HopfAlgebra:
    """Build an algebra from the JSON schema (group table or full constants)."""
    if "table" in obj or "order" in obj:
        try:
            order = int(obj["order"])
            table = [[int(x) for x in row] for row in obj["table"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad group description: {exc}") from exc
        field = field_override or (
            _field_from_json(obj["field"]) if "field" in obj else Field.rationals())
        return group_algebra(order, table, field)
    required = ("dim", "mult", "unit", "comult", "counit", "antipode")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"algebra object is missing {missing}")
    field = field_override or _field_from_json(obj.get("field", {"kind": "rational"}))
    try:
        dim = int(obj["dim"])

        def index(x) -> int:
            if not 0 <= int(x) < dim:
                raise SchemaError(f"basis index {x!r} is outside 0..{dim - 1}")
            return int(x)

        mult = [[{} for _ in range(dim)] for _ in range(dim)]
        for i, j, k, coeff in obj["mult"]:
            mult[index(i)][index(j)][index(k)] = field.parse(coeff)
        comult = [dict() for _ in range(dim)]
        for i, j, k, coeff in obj["comult"]:
            comult[index(i)][(index(j), index(k))] = field.parse(coeff)
        unit = [field.parse(x) for x in obj["unit"]]
        counit = [field.parse(x) for x in obj["counit"]]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"bad structure constants: {exc}") from exc
    antipode = _parse_matrix(field, obj["antipode"], "antipode")
    labels = obj.get("basis_labels", [f"b{i}" for i in range(dim)])
    if not isinstance(labels, list):
        raise SchemaError("basis_labels must be a list")
    return HopfAlgebra(field, dim, labels, mult, unit, comult, counit, antipode)


def load_algebra(source: str, field_override: Field | None) -> HopfAlgebra:
    if source.startswith("Cp:") or source in ("S3", "s3"):
        field = field_override or Field.rationals()
        try:
            table = named_group_table(source)
        except ValueError as exc:
            raise SchemaError(f"bad algebra name {source!r}: {exc}") from exc
        return group_algebra(len(table), table, field)
    return hopf_from_json(_read_json(source), field_override)


def load_module(source: str, h: HopfAlgebra, bimodule: bool = False):
    """Coefficients by name (trivial, regular) or from a JSON file with dim,
    left_action and, for a bimodule, right_action; a description that does
    not fit the schema is a SchemaError.  The parsed dense matrices become
    the module's sparse actions here, once."""
    from .modules import (Bimodule, LeftModule, regular_bimodule, regular_left_module,
                          trivial_bimodule, trivial_module, validate_module)
    if source == "trivial":
        return trivial_bimodule(h) if bimodule else trivial_module(h)
    if source == "regular":
        return regular_bimodule(h) if bimodule else regular_left_module(h)
    obj = _read_json(source)
    try:
        dim = int(obj["dim"])
        actions = [[SparseMatrix.from_dense(_parse_matrix(h.field, rows, key))
                    for rows in obj[key]]
                   for key in ("left_action", "right_action")[:1 + bimodule]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad module description: {type(exc).__name__} {exc}") from exc
    mod = Bimodule(dim, *actions) if bimodule else LeftModule(dim, *actions)
    validate_module(h, mod)
    return mod


def hopf_to_json(h: HopfAlgebra) -> dict:
    """Serialize an algebra back into the input schema (exact coefficients),
    from the canonical triples of its structure maps: sorted by (col, row),
    they come in the schema's (i, j, k) order."""
    fld, d, maps = h.field, h.dim, h.maps
    field_obj = {"kind": "rational"} if fld.is_rational else {"kind": "prime", "p": fld.p}

    def strings(m):
        return [[fld.to_str(x) for x in row] for row in m.to_dense().data]

    def constants(m, split):
        r, c, v = m.triples()
        return [[*split(col, row), fld.to_str(x)]
                for row, col, x in zip(r.tolist(), c.tolist(), v.tolist())]

    return {
        "field": field_obj,
        "dim": d,
        "basis_labels": list(h.basis_labels),
        "mult": constants(maps.mult, lambda ij, k: (*divmod(ij, d), k)),
        "unit": strings(maps.unit.transpose())[0],
        "comult": constants(maps.comult, lambda i, jk: (i, *divmod(jk, d))),
        "counit": strings(maps.counit)[0],
        "antipode": strings(maps.antipode),
    }


def _read_json(source: str) -> dict:
    """The JSON object in the file `source`; anything else is a SchemaError."""
    try:
        with open(source) as f:
            obj = json.load(f)
    except OSError as exc:
        raise SchemaError(f"cannot read {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{source!r} does not hold a JSON object")
    return obj


# -- report assembly ---------------------------------------------------------


def _report(mode, dims=(), routes=None, checks=(), extra=None,
            failure=EXIT_VALIDATION) -> tuple[dict, int]:
    """The report of a run and its exit code, `failure` when a check fails."""
    out = {
        "mode": mode,
        "dims": list(dims),
        "routes": {k: list(v) for k, v in (routes or {}).items()},
        "checks": [{"name": name, "pass": bool(ok)} for name, ok in checks],
        **(extra or {}),
    }
    return out, EXIT_OK if all(c["pass"] for c in out["checks"]) else failure


def _equal_by_degree(mode, names, sides) -> tuple[dict, int]:
    """The two sides of a dimension equality as routes `names`, the first
    as the dims, with one check per degree that they agree."""
    return _report(mode, dims=sides[0], routes=dict(zip(names, sides)),
                   checks=[(f"degree_{n}_equal", a == b)
                           for n, (a, b) in enumerate(zip(*sides))])


def _emit(report: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        return
    print(f"mode: {report['mode']}")
    if report["dims"]:
        print("degree " + " ".join(f"{n:>4d}" for n in range(len(report["dims"]))))
        print("dim    " + " ".join(f"{v:>4d}" for v in report["dims"]))
    for name, vals in sorted(report["routes"].items()):
        print(f"route {name}: {vals}")
    if "table" in report:
        print(f"{'n':>3} {'dim':>5} {'rank':>5} {'free':>5}")
        for row in report["table"]:
            print(f"{row['n']:>3} {row['dim']:>5} {row['rank']:>5} "
                  f"{str(row['is_free']):>5}")
    for check in report["checks"]:
        print(f"check {check['name']}: {'pass' if check['pass'] else 'FAIL'}")
    if "error" in report:
        print(f"error {report['error']['code']}: {report['error']['reason']}")


# -- main --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symcoh",
        description="Exact symmetric (Hochschild) cohomology of cocommutative "
                    "Hopf algebras given by structure constants.")
    ap.add_argument("--algebra", required=True,
                    help="builtin name (Cp:<n>, S3) or path to a JSON description")
    ap.add_argument("--field", default=None,
                    help="field override: q or gf:<p>")
    ap.add_argument("--module", default=None,
                    help="trivial, regular, or path to a JSON module description")
    ap.add_argument("--mode", required=True,
                    choices=["H", "SH", "HH", "SHH", "resolution", "cp-table",
                             "validate", "compare-adjoint", "corollary-check"])
    ap.add_argument("--max-degree", type=int, default=5)
    ap.add_argument("--cross-check", dest="both_routes", action="store_true",
                    help="run both realizations/routes and compare")
    ap.add_argument("--route", choices=["bar", "resolution"], default=None,
                    help="complex family for SH/SHH/corollary-check (default bar)")
    ap.add_argument("--format", choices=["json", "table"], default="table")
    return ap


# the optional flags each mode reads, by argparse destination; a mode
# refuses any other that is given
FLAGS = {"module": "--module", "both_routes": "--cross-check", "route": "--route"}
MODE_FLAGS = {"H": {"module"}, "HH": {"module"}, "SH": set(FLAGS), "SHH": set(FLAGS),
              "compare-adjoint": {"module"}, "corollary-check": {"route"}}


def run(args) -> tuple[dict, int]:
    for dest, flag in FLAGS.items():
        if getattr(args, dest) and dest not in MODE_FLAGS.get(args.mode, ()):
            raise SchemaError(f"{flag} is not read by --mode {args.mode}")
    if args.max_degree < 1:
        raise SchemaError("max-degree must be at least 1")
    field_override = parse_field_flag(args.field) if args.field else None
    h = load_algebra(args.algebra, field_override)
    mode = args.mode
    top = args.max_degree

    report = validate_hopf(h, require_cocommutative=mode == "validate")
    if mode == "validate":
        return _report("validate", checks=[(c.name, c.passed) for c in report.checks],
                       extra={"cocommutative": report.cocommutative,
                              "commutative": report.commutative})
    if not report.passed:
        failed = report.failures()[0]
        raise NotAHopfAlgebra(f"the check {failed.name} fails at {failed.witness}")

    if mode == "cp-table":
        from . import resolution
        rows = resolution.cp_rank_table(h, top)
        checks = [(f"rank_matches_claim_{r.n}", r.rank == r.claimed_rank)
                  for r in rows] + [(f"free_{r.n}", r.is_free) for r in rows]
        return _report("cp-table", checks=checks, extra={"table": [r._asdict() for r in rows]})

    if mode == "resolution":
        from . import resolution
        res = resolution.sym_resolution_complex(h, top)
        checks = res.exactness_report() + [
            (f"homotopy_{n}", ok) for n, ok in resolution.contracting_homotopy_check(res)]
        return _report("resolution", dims=res.dims(), checks=checks)

    if mode in ("H", "SH", "HH", "SHH"):
        bimodule = mode in ("HH", "SHH")
        mod = load_module(args.module or ("regular" if bimodule else "trivial"), h, bimodule)
        if mode in ("H", "HH"):
            from . import bar
            dims = bar.classical_cohomology(h, mod, top)
            return _report(mode, dims=dims, routes={"nonhomogeneous": dims})
        if args.route == "resolution":
            from . import resolution
            dims = resolution.sh_via_resolution(h, mod, top)
            names = ("resolution", "fixed_subcomplex", "routes_agree")
        else:
            from . import bar
            dims = bar.symmetric_cohomology(h, mod, top)
            names = ("homogeneous", "nonhomogeneous", "realizations_agree")
        routes, checks = {names[0]: dims}, []
        if args.both_routes:
            # SH on the resolution route against the homogeneous realization;
            # otherwise against the nonhomogeneous one, which for SHH(A, M),
            # computed on both routes as SH(A, ad M), never builds ad M
            from . import bar
            other = (bar.symmetric_cohomology if args.route == "resolution" and not bimodule
                     else bar.nonhomogeneous_symmetric_dims)(h, mod, top)
            routes[names[1]] = other
            checks.append((names[2], other == dims))
        return _report(mode, dims=dims, routes=routes, checks=checks, failure=EXIT_INTERNAL)

    if mode == "compare-adjoint":
        from . import hochschild
        bim = load_module(args.module or "regular", h, bimodule=True)
        return _equal_by_degree(mode, ("SHH", "SH_adjoint"),
                                hochschild.compare_adjoint(h, bim, top))

    if mode == "corollary-check":
        from . import hochschild
        return _equal_by_degree(mode, ("SHH", "SH_scaled"),
                                hochschild.commutative_factorization_check(h, top, args.route))

    raise SchemaError(f"unhandled mode {mode!r}")


# exception type -> exit code and reason, the first type that matches
# deciding (SchemaError and BudgetExceeded are SymcohErrors)
FAILURES = (
    (SchemaError, EXIT_SCHEMA, str),
    (BudgetExceeded, EXIT_BUDGET, str),
    (MemoryError, EXIT_BUDGET, lambda exc: f"out of memory: {exc}"),
    (SymcohError, EXIT_VALIDATION, lambda exc: f"{type(exc).__name__}: {exc}"),
    (AssertionError, EXIT_INTERNAL, str),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = run(args)
    except tuple(kind for kind, _code, _reason in FAILURES) as exc:
        code, reason = next((code, why(exc)) for kind, code, why in FAILURES
                            if isinstance(exc, kind))
        report, _ = _report(args.mode, extra={"error": {"code": code, "reason": reason}})
    _emit(report, args.format)
    return code


def console():
    """The process entry (`symcoh`, `python -m symcoh.cli`): `main`, then
    exit with its code, the objects made so far frozen so that shutdown
    does not walk and free their cycles, which the OS reclaims anyway.
    `main` itself does not freeze: an in-process caller keeps collecting."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()
