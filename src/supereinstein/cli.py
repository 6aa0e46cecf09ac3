"""Command-line front end: build and verify algebras, compute invariants,
solve Einstein systems, and emit the full per-family reproduction report.

Exit codes: 0 success, 1 verification failure, 2 invalid input or scope.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import einstein, invariants
from .curvature import (
    MetricParams,
    levi_civita_blockwise,
    levi_civita_koszul,
    metric_from_params,
    ricci_closed_form,
    ricci_direct,
)
from .families import FamilySpec, catalog, family_data, family_spec, realize, \
    verify_realization
from .supercore import algebra_to_json, check_super_jacobi, form_to_json

DEFAULT_SEED = 12345
DEFAULT_TOL = einstein.SOLUTION_TOL
STRUCT_TOL = 1e-12
BIINV_TOL = 1e-10
DATA_TOL = 1e-9


def _frac(v) -> str:
    return str(v) if isinstance(v, Fraction) else repr(v)


def _spec_from_args(args) -> FamilySpec:
    return family_spec(args.family, m=args.m, n=args.n, alpha=args.alpha)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    spec = _spec_from_args(args)
    if not spec.realizable:
        print(f"{spec.name}: equation-layer only (no matrix realization); "
              f"use 'solve' or 'report' for this family", file=sys.stderr)
        return 2
    real = realize(spec)
    alg = real.algebra
    jac = check_super_jacobi(alg)
    form_report = real.canonical_form.report
    k_max = float(np.max(np.abs(real.killing.gram)))
    realization = verify_realization(real)
    ok = (jac.residual < STRUCT_TOL and form_report.is_even
          and form_report.is_supersymmetric
          and form_report.bi_invariance < BIINV_TOL
          and realization["pass"])
    doc = {
        "family": spec.name,
        "algebra": algebra_to_json(alg),
        "canonical_form": form_to_json(real.canonical_form),
        "verification": {
            "jacobi_residual": jac.residual,
            "jacobi_worst_triple": list(jac.worst_triple),
            "form_residuals": {
                "evenness": form_report.evenness,
                "supersymmetry": form_report.supersymmetry,
                "bi_invariance": form_report.bi_invariance,
                "scaled_det": form_report.scaled_det,
            },
            "killing_max_entry": k_max,
            "killing_identically_zero": bool(k_max < BIINV_TOL),
            "realization": realization,
            "pass": bool(ok),
        },
    }
    _emit(_json_dumps(doc), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


def _indices_rows(spec: FamilySpec) -> tuple[list[dict], bool]:
    real = realize(spec)
    alg = real.algebra
    data = real.data
    rows, ok = [], True
    if data.has_k0:
        k0 = alg.abelian_ideal()
        cas = real.casimirs[k0]
        res = abs(cas.scalar - float(data.gamma0))
        ok &= res < DATA_TOL
        rows.append({"ideal": "k0", "dim": k0.dim, "l": None, "l_catalog": None,
                     "b": None, "b_catalog": None, "gamma": cas.scalar,
                     "gamma_catalog": _frac(data.gamma0), "residual": res})
    for pos, ideal in enumerate(alg.simple_ideals()):
        l_fit = real.representation_indices[ideal]
        b_fit = invariants.b_ratio(alg, real.canonical_form, ideal)
        cas = real.casimirs[ideal]
        res = max(abs(l_fit - float(data.l[pos])),
                  abs(b_fit - float(data.b[pos])),
                  abs(cas.scalar - float(data.gamma[pos])))
        ok &= res < DATA_TOL
        rows.append({"ideal": f"k{pos + 1}", "dim": ideal.dim,
                     "l": l_fit, "l_catalog": _frac(data.l[pos]),
                     "b": b_fit, "b_catalog": _frac(data.b[pos]),
                     "gamma": cas.scalar, "gamma_catalog": _frac(data.gamma[pos]),
                     "residual": res})
    return rows, ok


INDEX_COLUMNS = ["ideal", "dim", "l", "l_catalog", "b", "b_catalog", "gamma",
                 "gamma_catalog", "residual"]


def cmd_indices(args) -> int:
    spec = _spec_from_args(args)
    if not spec.realizable:
        print(f"{spec.name}: equation-layer only; catalog data: "
              f"{_data_json(family_data(spec))}", file=sys.stderr)
        return 2
    rows, ok = _indices_rows(spec)
    if args.format == "json":
        _emit(_json_dumps({"family": spec.name, "ideals": rows,
                           "pass": bool(ok)}), args.out)
    elif args.format == "csv":
        _emit(_rows_to_csv(rows, INDEX_COLUMNS), args.out)
    else:
        lines = [f"# {spec.name} invariants", "",
                 "| ideal | dim | l | l (catalog) | b | b (catalog) | gamma | gamma (catalog) | residual |",
                 "|---|---|---|---|---|---|---|---|---|"]
        for r in rows:
            lines.append("| " + " | ".join(
                "" if r[k] is None else (f"{r[k]:.12g}" if isinstance(r[k], float) else str(r[k]))
                for k in INDEX_COLUMNS) + " |")
        lines.append("")
        lines.append(f"overall: {'pass' if ok else 'FAIL'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# solve / verify
# ---------------------------------------------------------------------------


def _solution_rows(family: str, params: dict, form: str, has_k0: bool,
                   solutions: list[dict]) -> list[dict]:
    """Table rows from solution JSON: x0 scales the abelian ideal when the
    family has one, x1..x3 the simple ideals."""
    rows = []
    for s in solutions:
        xs = list(s["x"])
        x0 = xs.pop(0) if has_k0 else None
        xs += [None] * (3 - len(xs))
        rows.append({
            "family": family, "params": _params_str(params), "form": form,
            "x0": x0, "x1": xs[0], "x2": xs[1], "x3": xs[2],
            "c": s["c"], "residual": s["residual"],
            "ricci_verified": s["ricci_verified"],
        })
    return rows


def _section_rows(sec: dict) -> list[dict]:
    return _solution_rows(sec["family"], sec["params"], sec["data"]["form_kind"],
                          sec["data"]["dim_k0"] > 0, sec["solutions"])


def _params_str(params: dict) -> str:
    parts = [f"{k}={params[k]}" for k in ("m", "n") if params[k] is not None]
    if params["alpha"] is not None:
        parts.append(f"alpha={params['alpha']:g}")
    return ",".join(parts)


CSV_COLUMNS = ["family", "params", "form", "x0", "x1", "x2", "x3", "c",
               "residual", "ricci_verified"]


def _rows_to_csv(rows: list[dict], columns: list[str] = CSV_COLUMNS) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow(["" if r[k] is None else
                         (repr(r[k]) if isinstance(r[k], float) else r[k])
                         for k in columns])
    return buf.getvalue()


def _rows_to_markdown(rows: list[dict]) -> str:
    lines = ["| " + " | ".join(CSV_COLUMNS) + " |",
             "|" + "---|" * len(CSV_COLUMNS)]
    for r in rows:
        lines.append("| " + " | ".join(
            "" if r[k] is None else (f"{r[k]:.10g}" if isinstance(r[k], float) else str(r[k]))
            for k in CSV_COLUMNS) + " |")
    return "\n".join(lines) + "\n"


def _solutions_within(spec: FamilySpec, cmax: float,
                      tol: float) -> tuple[list, int]:
    """Solutions with |c| <= cmax, verified when the family is realizable,
    and the number of solutions left out. The scan covers at least the
    default window, so --cmax filters what it omits instead of hiding it
    outside the scan."""
    found = einstein.solve_family(spec, c_window=max(cmax, einstein.C_WINDOW),
                                  verify=False, residual_tol=tol)
    sols = [s for s in found if abs(s.c) <= cmax]
    if spec.realizable:
        real = realize(spec)
        sols = [einstein.verify_solution(real, s) for s in sols]
    return sols, len(found) - len(sols)


def _note_omitted(count: int, cmax: float, where: str = "") -> None:
    if count:
        print(f"note: {where}{count} solution(s) with |c| > {cmax:g} "
              f"omitted by --cmax", file=sys.stderr)


def _run_solve(args, require_verified: bool) -> int:
    try:
        spec = _spec_from_args(args)
        data = family_data(spec)
        form = data.form_kind if args.form == "auto" else args.form
        einstein.build_system(data, form)  # validates the combination
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sols, omitted = _solutions_within(spec, args.cmax, args.tol)
    _note_omitted(omitted, args.cmax)
    doc = einstein.solutions_to_json(spec, sols)
    rows = _solution_rows(doc["family"], doc["params"], doc["form"],
                          data.has_k0, doc["solutions"])
    if args.format == "json":
        _emit(_json_dumps(doc), args.out)
    elif args.format == "csv":
        _emit(_rows_to_csv(rows), args.out)
    else:
        _emit(_rows_to_markdown(rows), args.out)
    ok = all(s.residual < args.tol for s in sols)
    if spec.realizable:
        ok &= all(s.ricci_verified == "verified" for s in sols)
    elif require_verified:
        print(f"{spec.name}: no matrix realization; Ricci verification "
              f"not applicable", file=sys.stderr)
    return 0 if ok else 1


def cmd_solve(args) -> int:
    return _run_solve(args, require_verified=False)


def cmd_verify(args) -> int:
    return _run_solve(args, require_verified=True)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _data_json(data) -> dict:
    return {
        "dim_k0": data.dim_k0,
        "dim_k": list(data.dim_k),
        "dim_odd": data.dim_odd,
        "l": [_frac(v) for v in data.l],
        "b": [_frac(v) for v in data.b],
        "gamma": [_frac(v) for v in data.gamma],
        "gamma0": _frac(data.gamma0) if data.gamma0 is not None else None,
        "killing_nondegenerate": data.killing_nondegenerate,
        "form_kind": data.form_kind,
    }


def _route_equivalence(real, rng, draws: int) -> float:
    worst = 0.0
    for _ in range(draws):
        vals = []
        while len(vals) < real.data.n_params:
            v = float(rng.uniform(-3.0, 3.0))
            if abs(v) >= 0.1:
                vals.append(v)
        params = MetricParams(tuple(vals))
        metric = metric_from_params(real, params)
        conn_k = levi_civita_koszul(real.algebra, metric)
        conn_b = levi_civita_blockwise(real, params)
        worst = max(worst, float(np.max(np.abs(conn_k.gamma - conn_b.gamma))))
        ric_d = ricci_direct(real.algebra, metric, conn_k)
        ric_c = ricci_closed_form(real, params)
        worst = max(worst, float(np.max(np.abs(ric_d.gram - ric_c.gram))))
    return worst


def _quartic_section(spec: FamilySpec, sys, sols) -> dict | None:
    try:
        quartic = einstein.elimination_polynomial(sys)
    except ValueError:
        return None
    cubic = einstein.cubic_factor(quartic)
    ref = einstein.cubic_reference_coefficients(sys.data)
    roots = sorted({round(r, 8) for r in einstein.real_roots(quartic)
                    if abs(r) > 1e-9})
    x1s = sorted({round(s.x[0], 8) for s in sols})
    bijection = len(roots) == len(x1s) and all(
        abs(a - b) < 1e-8 for a, b in zip(roots, x1s))
    return {
        "quartic": [_frac(v) for v in quartic],
        "cubic_factor": [_frac(v) for v in cubic],
        "reference_cubic": [_frac(v) for v in ref] if ref else None,
        "reference_match": bool(ref is not None and tuple(cubic) == ref),
        "cubic_coefficient_sum": _frac(sum(cubic)),
        "unit_root": True,  # cubic_factor would have raised otherwise
        "root_solution_bijection": bool(bijection),
    }


def _fold_section(spec: FamilySpec, sols) -> dict | None:
    pairs = einstein.default_folding(spec)
    results = [einstein.lift_real_form(s, pairs) for s in sols]
    return {
        "pairs": [list(p) for p in pairs],
        "all_fold": bool(all(r.liftable for r in results)),
        "max_pair_gap": max((r.max_pair_gap for r in results), default=0.0),
    }


def report_section(spec: FamilySpec, seed: int, index: int, c_window: float,
                   tol: float) -> tuple[dict, int]:
    """One family's report block, and the number of its solutions with
    |c| > c_window left out; pure given (spec, seed, index, config)."""
    data = family_data(spec)
    sys = einstein.build_system(data)
    sols, omitted = _solutions_within(spec, c_window, tol)
    section: dict = {
        "family": spec.name,
        "kind": spec.kind,
        "params": {"m": spec.m, "n": spec.n, "alpha": spec.alpha},
        "realizable": spec.realizable,
        "data": _data_json(data),
    }
    ok = all(s.residual < tol for s in sols)
    if spec.realizable:
        real = realize(spec)
        jac = check_super_jacobi(real.algebra)
        form_report = real.canonical_form.report
        k_max = float(np.max(np.abs(real.killing.gram)))
        _, idx_ok = _indices_rows(spec)
        route = _route_equivalence(real, np.random.default_rng([seed, index]), 2)
        section["structural"] = {
            "jacobi_residual": jac.residual,
            "bi_invariance_residual": form_report.bi_invariance,
            "killing_identically_zero": bool(k_max < BIINV_TOL),
            "indices_match_catalog": bool(idx_ok),
            "route_equivalence_max_deviation": route,
            "route_equivalence_draws": 2,
        }
        ok &= (jac.residual < STRUCT_TOL
               and form_report.bi_invariance < BIINV_TOL and idx_ok
               and route < 1e-8)
        ok &= all(s.ricci_verified == "verified" for s in sols)
    section["solutions"] = [s.to_json() for s in sols]
    section["solution_count"] = len(sols)
    expected_single = spec.kind in ("A", "F4")
    section["expected_single"] = expected_single
    count_ok = len(sols) == 1 if expected_single else len(sols) >= 2
    section["count_ok"] = bool(count_ok)
    ok &= count_ok
    if spec.kind in ("Dn1n", "D21a"):
        flat = any(abs(s.c) <= 1e-12 for s in sols)
        nonflat = any(abs(s.c) > 1e-6 for s in sols)
        section["ricci_flat_and_nonflat"] = bool(flat and nonflat)
        ok &= flat and nonflat
    if spec.kind in ("B", "D"):
        quartic = _quartic_section(spec, sys, sols)
        if quartic is not None:
            section["quartic"] = quartic
            ok &= quartic["root_solution_bijection"]
    if data.form_kind in ("case2", "case6", "case7"):
        fold = _fold_section(spec, sols)
        section["folding"] = fold
        ok &= fold["all_fold"]
    section["pass"] = bool(ok)
    return section, omitted


def _section_worker(payload: tuple) -> tuple[dict, int]:
    spec, seed, index, c_window, tol = payload
    return report_section(spec, seed, index, c_window, tol)


def build_report(max_m: int, max_n: int, seed: int, c_window: float,
                 tol: float, jobs: int = 1) -> dict:
    """The report document. Notes on stderr, in catalog order, what
    ``c_window`` left out of each family."""
    specs = catalog(max_m, max_n)
    payloads = [(spec, seed, i, c_window, tol) for i, spec in enumerate(specs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_section_worker, payloads))
    else:
        results = [_section_worker(p) for p in payloads]
    sections = [sec for sec, _ in results]
    for sec, omitted in results:
        _note_omitted(omitted, c_window, f"{sec['family']}: ")
    single = [s["family"] for s in sections if s["expected_single"]]
    mixed = [s["family"] for s in sections
             if s.get("ricci_flat_and_nonflat") is True]
    doc = {
        "config": {
            "max_m": max_m, "max_n": max_n, "seed": seed,
            "c_window": c_window, "solution_tolerance": tol,
            "ricci_sign_convention": "ric(X,Y) = str(Z -> R(Z,X)Y)",
        },
        "families": sections,
        "summary": {
            "total_families": len(sections),
            "counts_ok": bool(all(s["count_ok"] for s in sections)),
            "single_solution_families": single,
            "mixed_ricci_flat_families": mixed,
            "all_pass": bool(all(s["pass"] for s in sections)),
        },
    }
    return doc


def _report_markdown(doc: dict) -> str:
    lines = ["# Einstein metrics on basic classical Lie superalgebras", ""]
    cfg = doc["config"]
    lines.append(f"Bounds m <= {cfg['max_m']}, n <= {cfg['max_n']}; "
                 f"c window [-{cfg['c_window']:g}, {cfg['c_window']:g}]; "
                 f"seed {cfg['seed']}; "
                 f"sign convention: {cfg['ricci_sign_convention']}.")
    lines.append("")
    for sec in doc["families"]:
        lines.append(f"## {sec['family']}")
        lines.append("")
        d = sec["data"]
        lines.append(f"- even part: dim k0 = {d['dim_k0']}, "
                     f"dim k_i = {d['dim_k']}, dim odd = {d['dim_odd']}")
        lines.append(f"- l = {d['l']}, b = {d['b']}, gamma = {d['gamma']}"
                     + (f", gamma0 = {d['gamma0']}" if d["gamma0"] else ""))
        lines.append(f"- form: {d['form_kind']}, Killing non-degenerate: "
                     f"{d['killing_nondegenerate']}")
        if "structural" in sec:
            st = sec["structural"]
            lines.append(f"- structural: jacobi {st['jacobi_residual']:.2e}, "
                         f"bi-invariance {st['bi_invariance_residual']:.2e}, "
                         f"K = 0: {st['killing_identically_zero']}, "
                         f"indices match: {st['indices_match_catalog']}, "
                         f"route deviation {st['route_equivalence_max_deviation']:.2e}")
        if "quartic" in sec:
            q = sec["quartic"]
            lines.append(f"- elimination cubic {q['cubic_factor']} "
                         f"(reference match: {q['reference_match']}, "
                         f"coefficient sum {q['cubic_coefficient_sum']}, "
                         f"roots <-> solutions: {q['root_solution_bijection']})")
        if "folding" in sec:
            f = sec["folding"]
            lines.append(f"- folding pairs {f['pairs']}: all fold = "
                         f"{f['all_fold']} (max gap {f['max_pair_gap']:.2e})")
        if "ricci_flat_and_nonflat" in sec:
            lines.append(f"- Ricci-flat and non-flat both occur: "
                         f"{sec['ricci_flat_and_nonflat']}")
        lines.append(f"- solutions found: {sec['solution_count']} "
                     f"(expected {'exactly 1' if sec['expected_single'] else '>= 2'}; "
                     f"ok: {sec['count_ok']})")
        lines.append("")
        lines.append(_rows_to_markdown(_section_rows(sec)))
    summ = doc["summary"]
    lines.append("## Summary")
    lines.append("")
    lines.append(f"- families covered: {summ['total_families']}")
    lines.append(f"- solution counts as expected (>= 2 everywhere except the "
                 f"single-solution families): {summ['counts_ok']}")
    lines.append(f"- single-solution families: "
                 f"{', '.join(summ['single_solution_families'])}")
    lines.append(f"- families with both Ricci-flat and non-Ricci-flat "
                 f"metrics: {', '.join(summ['mixed_ricci_flat_families'])}")
    lines.append(f"- all checks pass: {summ['all_pass']}")
    lines.append("")
    return "\n".join(lines)


def cmd_report(args) -> int:
    doc = build_report(args.max_m, args.max_n if args.max_n is not None
                       else args.max_m, args.seed, args.cmax, args.tol,
                       jobs=args.jobs)
    if args.format == "json":
        _emit(_json_dumps(doc), args.out)
    elif args.format == "csv":
        _emit(_rows_to_csv([r for sec in doc["families"]
                            for r in _section_rows(sec)]), args.out)
    else:
        _emit(_report_markdown(doc), args.out)
    return 0 if doc["summary"]["all_pass"] else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   choices=["A", "B", "C", "D", "D21a", "F4", "G3"])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv", "markdown"],
                   default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cmax", type=float, default=einstein.C_WINDOW)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="solution residual gate; may only tighten the default")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supereinstein",
        description="Einstein metrics on basic classical Lie superalgebras")
    sub = parser.add_subparsers(dest="command", required=True)
    p_build = sub.add_parser("build", help="construct and verify an algebra")
    _add_family_args(p_build)
    _add_common_args(p_build)
    p_build.set_defaults(func=cmd_build)
    p_idx = sub.add_parser("indices", help="indices, ratios and Casimir scalars")
    _add_family_args(p_idx)
    _add_common_args(p_idx)
    p_idx.set_defaults(func=cmd_indices)
    p_solve = sub.add_parser("solve", help="solve the Einstein system")
    _add_family_args(p_solve)
    _add_common_args(p_solve)
    p_solve.add_argument("--form",
                         choices=["auto", "killing", "case2", "case6", "case7"],
                         default="auto")
    p_solve.set_defaults(func=cmd_solve)
    p_verify = sub.add_parser("verify", help="solve and require Ricci verification")
    _add_family_args(p_verify)
    _add_common_args(p_verify)
    p_verify.add_argument("--form",
                          choices=["auto", "killing", "case2", "case6", "case7"],
                          default="auto")
    p_verify.set_defaults(func=cmd_verify)
    p_rep = sub.add_parser("report", help="full reproduction report")
    p_rep.add_argument("--max-m", type=int, required=True)
    p_rep.add_argument("--max-n", type=int, default=None)
    _add_common_args(p_rep)
    p_rep.set_defaults(func=cmd_report)
    return parser


def _input_error(args) -> str | None:
    """The first option value outside its domain, as a message, else None."""
    if not (math.isfinite(args.cmax) and args.cmax > 0):
        return f"--cmax must be finite and > 0, got {args.cmax:g}"
    if not (math.isfinite(args.tol) and args.tol > 0):
        return f"--tol must be finite and > 0, got {args.tol:g}"
    if args.tol > DEFAULT_TOL:
        return f"--tol may only tighten the default {DEFAULT_TOL:g}"
    if args.jobs < 1:
        return f"--jobs must be >= 1, got {args.jobs}"
    alpha = getattr(args, "alpha", None)
    if alpha is not None and not math.isfinite(alpha):
        return f"--alpha must be finite, got {alpha:g}"
    for opt in ("max_m", "max_n"):
        value = getattr(args, opt, None)
        if value is not None and value < 0:
            return f"--{opt.replace('_', '-')} must be >= 0, got {value}"
    return None


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    error = _input_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
