"""Command-line front end: parse algebra/module descriptions, dispatch a
computation, and emit a deterministic report.

Exit codes: 0 success, 1 validation or assertion failure, 2 schema
error, 3 budget exceeded, 4 internal cross-check/assertion failure.  Every
mode but `validate` refuses an algebra that fails a Hopf axiom with exit 1.

Each layer above the Hopf algebra (modules, the bar and resolution routes,
the Hochschild checks) is imported where a mode dispatches to it, so a
process loads only the layers it runs: `validate` loads none of them.
"""

from __future__ import annotations

import argparse
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


def _report(mode, dims=None, routes=None, checks=None, extra=None) -> dict:
    out = {
        "mode": mode,
        "dims": list(dims) if dims is not None else [],
        "routes": {k: list(v) for k, v in (routes or {}).items()},
        "checks": [{"name": name, "pass": bool(ok)} for name, ok in (checks or [])],
    }
    if extra:
        out.update(extra)
    return out


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


def _checks_pass(report: dict) -> bool:
    return all(c["pass"] for c in report["checks"])


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
    ap.add_argument("--cross-check", action="store_true",
                    help="run both realizations/routes and compare")
    ap.add_argument("--route", choices=["bar", "resolution"], default="bar",
                    help="complex family for SH/SHH/corollary-check")
    ap.add_argument("--format", choices=["json", "table"], default="table")
    return ap


def run(args) -> tuple[dict, int]:
    if args.max_degree < 1:
        raise SchemaError("max-degree must be at least 1")
    field_override = parse_field_flag(args.field) if args.field else None
    h = load_algebra(args.algebra, field_override)
    mode = args.mode
    top = args.max_degree

    report = validate_hopf(h, require_cocommutative=mode == "validate")
    if mode == "validate":
        checks = [(c.name, c.passed) for c in report.checks]
        out = _report("validate", checks=checks,
                      extra={"cocommutative": report.cocommutative,
                             "commutative": report.commutative})
        return out, EXIT_OK if report.passed else EXIT_VALIDATION
    if not report.passed:
        failed = report.failures()[0]
        raise NotAHopfAlgebra(f"the check {failed.name} fails at {failed.witness}")

    if mode == "cp-table":
        from . import resolution
        rows = resolution.cp_rank_table(h, top)
        table = [{"n": r.n, "dim": r.dim, "rank": r.rank,
                  "claimed_rank": r.claimed_rank, "is_free": r.is_free}
                 for r in rows]
        checks = [(f"rank_matches_claim_{r.n}", r.rank == r.claimed_rank)
                  for r in rows] + [(f"free_{r.n}", r.is_free) for r in rows]
        out = _report("cp-table", checks=checks, extra={"table": table})
        return out, EXIT_OK if _checks_pass(out) else EXIT_VALIDATION

    if mode == "resolution":
        from . import resolution
        res = resolution.sym_resolution_complex(h, top)
        homotopy = resolution.contracting_homotopy_check(res)
        checks = res.exactness_report() + \
            [(f"homotopy_{n}", ok) for n, ok in homotopy.degrees]
        out = _report("resolution", dims=res.dims(), checks=checks)
        return out, EXIT_OK if _checks_pass(out) else EXIT_VALIDATION

    if mode in ("H", "SH", "HH", "SHH"):
        bimodule = mode in ("HH", "SHH")
        mod = load_module(args.module or ("regular" if bimodule else "trivial"), h, bimodule)
        if mode in ("H", "HH"):
            from . import bar
            rep = bar.classical_cohomology(h, mod, top)
            out = _report(mode, dims=rep.dims, routes={rep.realization: rep.dims})
            return out, EXIT_OK
        # both routes compute SHH(A, M) as SH(A, ad M); its cross-check is
        # the nonhomogeneous realization of M, which never builds ad M
        if args.route == "resolution":
            from . import resolution
            rep = resolution.sh_via_resolution(h, mod, top)
            routes = {"resolution": rep.dims}
            checks = []
            if args.cross_check:
                from . import bar
                other = (bar.nonhomogeneous_symmetric_dims(h, mod, top) if bimodule
                         else bar.symmetric_cohomology(h, mod, top).dims)
                routes["fixed_subcomplex"] = other
                checks.append(("routes_agree", other == rep.dims))
        else:
            from . import bar
            rep = bar.symmetric_cohomology(h, mod, top, cross_check=args.cross_check)
            routes = rep.routes
            checks = rep.checks
        out = _report(mode, dims=rep.dims, routes=routes, checks=checks)
        return out, EXIT_OK if _checks_pass(out) else EXIT_INTERNAL

    if mode == "compare-adjoint":
        from . import hochschild
        bim = load_module(args.module or "regular", h, bimodule=True)
        rep = hochschild.compare_adjoint(h, bim, top)
        out = _report("compare-adjoint", dims=rep.dims, routes=rep.routes,
                      checks=rep.checks)
        return out, EXIT_OK if _checks_pass(out) else EXIT_VALIDATION

    if mode == "corollary-check":
        from . import hochschild
        rep = hochschild.commutative_factorization_check(h, top, route=args.route)
        out = _report("corollary-check", dims=rep.dims, routes=rep.routes,
                      checks=rep.checks)
        return out, EXIT_OK if _checks_pass(out) else EXIT_VALIDATION

    raise SchemaError(f"unhandled mode {mode!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = run(args)
    except SchemaError as exc:
        _emit({"mode": args.mode, "dims": [], "routes": {}, "checks": [],
               "error": {"code": EXIT_SCHEMA, "reason": str(exc)}}, args.format)
        return EXIT_SCHEMA
    except (BudgetExceeded, MemoryError) as exc:
        reason = str(exc) if isinstance(exc, BudgetExceeded) else f"out of memory: {exc}"
        _emit({"mode": args.mode, "dims": [], "routes": {}, "checks": [],
               "error": {"code": EXIT_BUDGET, "reason": reason}}, args.format)
        return EXIT_BUDGET
    except SymcohError as exc:
        _emit({"mode": args.mode, "dims": [], "routes": {}, "checks": [],
               "error": {"code": EXIT_VALIDATION,
                         "reason": f"{type(exc).__name__}: {exc}"}}, args.format)
        return EXIT_VALIDATION
    except AssertionError as exc:
        _emit({"mode": args.mode, "dims": [], "routes": {}, "checks": [],
               "error": {"code": EXIT_INTERNAL, "reason": str(exc)}}, args.format)
        return EXIT_INTERNAL
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
