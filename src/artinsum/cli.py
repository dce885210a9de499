"""Command-line front end: analyze, connect, fibre, decompose, apolar, betti.

Human-readable tables go to stdout; --json switches to a stable JSON report
(schema 1) that is byte-identical across runs on identical input.  Exit
codes: 0 ok, 2 parse, 3 not Artinian/local, 4 not Gorenstein, 5 bad socle,
6 precondition, 7 resource guard, 1 internal.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .decompose import certify_indecomposable, check_split, structure_decompose
from .errors import (ArtinsumError, BadSocleError, CharacteristicError,
                     NonPrimeModulusError, NotAnIdealError, NotGorensteinError,
                     NotLocalError, NotZeroDimensionalError, ParseError,
                     PreconditionError, ResourceGuardError, RingMismatchError,
                     UnitIdealError)
from .graded import associated_graded, classify, iarrobino, is_gls
from .parse import (parse_field, parse_names, parse_polynomial, parse_presentation,
                    print_presentation)
from .poly import PolyRing
from .quotient import build_algebra
from .resolution import betti_numbers, inverse_poincare, mu_from_betti, verify_cs_series
from .sums import apolar_algebra, connected_sum, fibre_product
from .decompose import h2_bound_check

EXIT_CODES = (
    ((ParseError, NonPrimeModulusError), 2),
    ((NotZeroDimensionalError, NotLocalError, UnitIdealError), 3),
    ((NotGorensteinError,), 4),
    ((BadSocleError,), 5),
    ((PreconditionError, RingMismatchError, CharacteristicError, NotAnIdealError), 6),
    ((ResourceGuardError,), 7),
)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _load_algebra(path):
    text = Path(path).read_text()
    ring, gens = parse_presentation(text)
    return build_algebra(ring, gens), text


def _presentation_block(algebra):
    return {
        "ring": repr(algebra.ring),
        "variables": list(algebra.ring.names),
        "field": algebra.field.name,
        "reduced_basis": [str(g) for g in algebra.gb],
        "source": print_presentation(algebra.ring, algebra.gb),
    }


def _invariants_block(algebra):
    return {
        "length": algebra.length,
        "edim": algebra.edim,
        "loewy_length": algebra.loewy_length,
        "type": algebra.type,
        "hilbert": list(algebra.hilbert_function()),
        "gorenstein": algebra.is_gorenstein(),
    }


def _print_invariants(inv, indent=""):
    print(f"{indent}length        {inv['length']}")
    print(f"{indent}edim          {inv['edim']}")
    print(f"{indent}loewy length  {inv['loewy_length']}")
    print(f"{indent}type          {inv['type']}")
    print(f"{indent}hilbert       {tuple(inv['hilbert'])}")
    print(f"{indent}gorenstein    {'yes' if inv['gorenstein'] else 'no'}")


def _emit(report, args):
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    _render_human(report)


def _render_human(report):
    cmd = report["command"]
    print(f"== {cmd} ==")
    if "invariants" in report:
        _print_invariants(report["invariants"])
    if "classification" in report:
        c = report["classification"]
        tags = [k for k in ("short", "stretched", "compressed") if c[k]] or ["none"]
        print(f"classification  {', '.join(tags)}")
    if "graded" in report:
        print("graded presentation:")
        for g in report["graded"]["reduced_basis"]:
            print(f"  {g}")
        if "gls" in report["graded"]:
            print(f"gls           {'yes' if report['graded']['gls'] else 'no'}")
    if "iarrobino_hilbert" in report:
        print(f"iarrobino H   {tuple(report['iarrobino_hilbert'])}")
    if "output" in report:
        print("output presentation:")
        print(report["output"]["source"], end="")
    if "identities" in report:
        for name, ok in report["identities"]:
            print(f"identity {name}: {'ok' if ok else 'FAILED'}")
    if "betti" in report:
        print(f"betti         {report['betti']}")
        print(f"1/P           {report['inverse_poincare']}")
    if "status" in report:
        print(f"status        {report['status']}")
        for cert in report.get("certificates", []):
            print(f"certificate   {cert['name']}: {cert['detail']}")
        if report.get("components"):
            for side, comp in zip(("left", "right"), report["components"]):
                print(f"{side} component:")
                for g in comp["reduced_basis"]:
                    print(f"  {g}")
        if report.get("reasons"):
            for r in report["reasons"]:
                print(f"reason        {r}")
    if "files" in report:
        for f in report["files"]:
            print(f"-- {f['path']}")
            _print_invariants(f["invariants"], indent="  ")


def _write_output(args, text):
    if getattr(args, "output", None):
        Path(args.output).write_text(text)


# ---------------------------------------------------------------------------
# subcommands

def _analyze_one(path):
    algebra, text = _load_algebra(path)
    report = {
        "schema": 1,
        "command": "analyze",
        "input": {"path": str(path), "sha256": _digest(text)},
        "invariants": _invariants_block(algebra),
        "presentation": _presentation_block(algebra),
    }
    graded = associated_graded(algebra)
    block = _presentation_block(graded)
    if graded.loewy_length >= 2:
        flag, witness = is_gls(graded)
        block["gls"] = flag
    report["graded"] = block
    if algebra.is_gorenstein():
        kinds = classify(algebra)
        report["classification"] = {"short": kinds.short, "stretched": kinds.stretched,
                                    "compressed": kinds.compressed}
        _, q0 = iarrobino(algebra)
        report["iarrobino_hilbert"] = list(q0.hilbert_function())
    return report


def cmd_analyze(args):
    path = Path(args.path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        workers = min(args.jobs, len(files))
        if workers > 1:
            from multiprocessing import Pool
            with Pool(workers) as pool:
                reports = pool.map(_analyze_one, [str(p) for p in files])
        else:
            reports = [_analyze_one(str(p)) for p in files]
        return {"schema": 1, "command": "analyze",
                "files": [{"path": r["input"]["path"], "sha256": r["input"]["sha256"],
                           "invariants": r["invariants"]} for r in reports]}
    return _analyze_one(str(path))


def cmd_connect(args):
    R, text_r = _load_algebra(args.left)
    S, text_s = _load_algebra(args.right)
    socle_left = parse_polynomial(args.socle_r, R.ring) if args.socle_r else None
    socle_right = parse_polynomial(args.socle_s, S.ring) if args.socle_s else None
    unit = R.field.coerce(parse_polynomial(args.unit, PolyRing(R.field, [])).constant_term()) \
        if args.unit else R.field.one
    result = connected_sum(R, S, unit=unit, socle_left=socle_left, socle_right=socle_right)
    Q = result.algebra
    identities = [
        ["length", Q.length == R.length + S.length - 2 or result.trivial],
        ["hilbert-degree-2-bound", h2_bound_check(R, S, Q)],
    ]
    if R.loewy_length >= 2 and S.loewy_length >= 2 and not result.trivial:
        identities.append(["edim", Q.hilbert_function()[1] == R.edim + S.edim])
    if args.verify_series and not result.trivial:
        rep = verify_cs_series(R, S, Q, args.verify_series)
        identities.append([f"poincare-series-t{args.verify_series}", rep.holds])
    report = {
        "schema": 1,
        "command": "connect",
        "input": {"left": {"path": args.left, "sha256": _digest(text_r)},
                  "right": {"path": args.right, "sha256": _digest(text_s)}},
        "unit": R.field.format(result.unit),
        "trivial": result.trivial,
        "invariants": _invariants_block(Q),
        "output": _presentation_block(Q),
        "identities": identities,
    }
    _write_output(args, report["output"]["source"])
    return report


def cmd_fibre(args):
    R, text_r = _load_algebra(args.left)
    S, text_s = _load_algebra(args.right)
    result = fibre_product(R, S)
    P = result.algebra
    identities = [["length", P.length == R.length + S.length - 1 or result.trivial]]
    if not result.trivial:
        identities.append(["edim", P.hilbert_function()[1] == R.edim + S.edim])
        identities.append(["type", P.type == R.type + S.type])
    report = {
        "schema": 1,
        "command": "fibre",
        "input": {"left": {"path": args.left, "sha256": _digest(text_r)},
                  "right": {"path": args.right, "sha256": _digest(text_s)}},
        "trivial": result.trivial,
        "invariants": _invariants_block(P),
        "output": _presentation_block(P),
        "identities": identities,
    }
    _write_output(args, report["output"]["source"])
    return report


def cmd_decompose(args):
    Q, text = _load_algebra(args.path)
    report = {
        "schema": 1,
        "command": "decompose",
        "input": {"path": args.path, "sha256": _digest(text)},
        "invariants": _invariants_block(Q),
    }
    if args.partition:
        left, _, right = args.partition.partition("|")
        part = ([v.strip() for v in left.split(",") if v.strip()],
                [v.strip() for v in right.split(",") if v.strip()])
        result = check_split(Q, part)
        report["status"] = "decomposed" if result.ok else "split-failed"
        report["reasons"] = result.reasons
        if result.ok:
            report["unit"] = Q.field.format(result.unit)
            report["components"] = [_presentation_block(result.left),
                                    _presentation_block(result.right)]
        return report
    if args.structure:
        result = structure_decompose(Q)
    else:
        certs = certify_indecomposable(Q)
        if certs:
            report["status"] = "indecomposable-certified"
            report["certificates"] = [{"name": c.name, "detail": c.detail} for c in certs]
            return report
        if Q.loewy_length < 3:
            report["status"] = "inconclusive"
            report["certificates"] = []
            return report
        result = structure_decompose(Q)
    report["status"] = result.status
    report["trivial"] = result.trivial
    report["certificates"] = [{"name": c.name, "detail": c.detail}
                              for c in result.certificates]
    if result.components:
        report["components"] = [_presentation_block(result.components[0]),
                                _presentation_block(result.components[1])]
        report["unit"] = Q.field.format(result.unit)
    if result.coordinate_change:
        report["coordinate_change"] = result.coordinate_change
    if result.verified_identities:
        report["identities"] = [[name, ok] for name, ok in result.verified_identities]
    return report


def cmd_apolar(args):
    field = parse_field(args.field)
    dual = PolyRing(field, parse_names(" ".join(args.dual_vars)))
    F = parse_polynomial(args.poly, dual)
    A = apolar_algebra(F, parse_names(" ".join(args.ops)) if args.ops else None)
    report = {
        "schema": 1,
        "command": "apolar",
        "input": {"poly": args.poly, "dual_vars": list(args.dual_vars),
                  "field": field.name, "sha256": _digest(args.poly)},
        "invariants": _invariants_block(A),
        "output": _presentation_block(A),
    }
    _write_output(args, report["output"]["source"])
    return report


def cmd_betti(args):
    A, text = _load_algebra(args.path)
    data = betti_numbers(A, args.max)
    report = {
        "schema": 1,
        "command": "betti",
        "input": {"path": args.path, "sha256": _digest(text)},
        "invariants": _invariants_block(A),
        "betti": list(data.betti),
        "deviations": {"eps1": data.eps1, "eps2": data.eps2},
        "mu_defining_ideal": mu_from_betti(A, data),
        "poincare": repr(data.poincare()),
        "inverse_poincare": repr(inverse_poincare(A, args.max)),
    }
    return report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="artinsum",
        description="Invariants, sums, and decompositions of Artinian local algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("analyze", help="invariants and graded data of a presentation")
    p.add_argument("path")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for directories")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("connect", help="connected sum of two Gorenstein presentations")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--unit", default=None, help="socle matching unit (default 1)")
    p.add_argument("--socle-r", dest="socle_r", default=None)
    p.add_argument("--socle-s", dest="socle_s", default=None)
    p.add_argument("--verify-series", dest="verify_series", type=int, default=0,
                   help="check the Poincare identity to this truncation")
    p.add_argument("-o", "--output", default=None, help="write the presentation here")
    common(p)
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("fibre", help="fibre product of two presentations")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=cmd_fibre)

    p = sub.add_parser("decompose", help="split a Gorenstein algebra as a connected sum")
    p.add_argument("path")
    p.add_argument("--partition", default=None, help='variable split, e.g. "Y1,Y2|Z"')
    p.add_argument("--structure", action="store_true",
                   help="force the structure-theorem route")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("apolar", help="Gorenstein algebra of a dual polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--dual-vars", dest="dual_vars", nargs="+", required=True)
    p.add_argument("--field", default="QQ", help="QQ or GF(p)")
    p.add_argument("--ops", nargs="+", default=None, help="operator variable names")
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=cmd_apolar)

    p = sub.add_parser("betti", help="Betti numbers of the residue field")
    p.add_argument("path")
    p.add_argument("--max", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_betti)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except ArtinsumError as exc:
        for types, code in EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
