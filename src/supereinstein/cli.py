"""Command-line front end: build and verify algebras, compute invariants,
solve Einstein systems, and emit the full per-family reproduction report.

Exit codes: 0 success, 1 a failed check (never from ``solve``, which reads
the family record alone), 2 invalid input or scope.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import random
import sys
from dataclasses import replace
from itertools import chain, repeat

import numpy as np

from . import einstein
from .curvature import ROUTE_TOL, MetricParams, levi_civita_blockwise, \
    ricci_routes
from .families import FamilySpec, check_dense_size, check_product_join, \
    family_spec, iter_catalog, realize, verify_realization
from .supercore import algebra_to_json, check_super_jacobi, form_to_json

DEFAULT_SEED = 12345
# JSON_BATCH // 8 bytes of a row array (256 float64s) are made into lists
# and encoded at a time.
JSON_BATCH = 2**14


def _spec_from_args(args) -> FamilySpec:
    return family_spec(args.family, m=args.m, n=args.n, alpha=args.alpha)


def _emit(pieces, out_path) -> None:
    """Write the text ``pieces`` to ``out_path`` or stdout."""
    with (open(out_path, "w", encoding="utf-8") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(pieces)


def _emit_json(doc, out_path) -> None:
    """Write ``doc`` byte for byte as ``json.dumps(doc, indent=2,
    default=np.ndarray.tolist)`` and a newline, without holding the text or
    the lists of a row array (a nonempty 2-D array or 1-D record array).

    What holds no row array is one ``json.dumps``, re-indented by replacing
    its newlines (json escapes those inside strings); only the dicts and
    lists that hold one recurse. A row array goes ``JSON_BATCH // 8`` bytes
    of rows at a time through json's C encoder, whose row boundaries
    "],<deeper>[" then take the indented form."""
    def holds_rows(value) -> bool:
        if isinstance(value, (dict, list, tuple)):
            return any(map(holds_rows, value.values()
                           if isinstance(value, dict) else value))
        return isinstance(value, np.ndarray) and value.size > 0 \
            and value.ndim == (1 if value.dtype.names else 2)

    def pieces(value, newline: str):
        # the text of ``value`` on a line begun by ``newline`` and its indent
        inner, deeper = newline + "  ", newline + "    "
        if not holds_rows(value):
            yield json.dumps(value, indent=2, default=np.ndarray.tolist
                             ).replace("\n", newline)
        elif isinstance(value, np.ndarray):
            encode = json.JSONEncoder(separators=("," + deeper, ": ")).encode
            step = max(1, JSON_BATCH // 8 * len(value) // value.nbytes)
            for at in range(0, len(value), step):
                rows = encode(value[at:at + step].tolist())[2:-2].replace(
                    "]," + deeper + "[", inner + "]," + inner + "[" + deeper)
                yield f"{',' if at else '['}{inner}[{deeper}{rows}{inner}]"
            yield newline + "]"
        else:  # each key as json names it in {key: 0}, such as '"1.5": '
            keyed = isinstance(value, dict)
            opening, closing = "{}" if keyed else "[]"
            items = ([(json.dumps({k: 0})[1:-2], v) for k, v in value.items()]
                     if keyed else zip(repeat(""), value))
            for at, (head, item) in enumerate(items):
                yield ("," if at else opening) + inner + head
                yield from pieces(item, inner)
            yield newline + closing

    _emit(chain(pieces(doc, "\n"), "\n"), out_path)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    spec = _spec_from_args(args)
    if not spec.realizable:
        print(f"{spec.name}: equation-layer only (no matrix realization); "
              f"use 'solve' or 'report' for this family", file=sys.stderr)
        return 2
    check_dense_size(spec)  # the printed Gram is the one dense array
    real = realize(spec)
    verification = _structural(real)
    doc = {
        "family": spec.name,
        "algebra": algebra_to_json(real.algebra),
        "canonical_form": form_to_json(real.canonical_form),
        "verification": verification,
    }
    _emit_json(doc, args.out)
    return 0 if verification["pass"] else 1


def _structural(real) -> dict:
    """The structural checks of one realization, as ``build`` prints them;
    ``pass`` when the Jacobi identity, the canonical form's evenness,
    supersymmetry, bi-invariance and nondegeneracy hold, and then
    :func:`verify_realization`, which is run only on an algebra and form
    that hold all five; the Jacobi check reads the realization's matrices."""
    jac = check_super_jacobi(real.algebra, real.matrices)
    form, killing = real.canonical_form.report, real.killing
    # the invariants read the form's inverse and rely on every axiom: their
    # own checks would refuse a corrupted realization first
    exact = (jac.residual == 0 and form.is_even and form.is_supersymmetric
             and form.is_bi_invariant and form.is_nondegenerate)
    realization = verify_realization(real)[0] if exact else {"pass": False}
    return {
        "jacobi_residual": jac.residual,
        "jacobi_worst_triple": list(jac.worst_triple),
        "form_residuals": {
            "evenness": form.evenness,
            "supersymmetry": form.supersymmetry,
            "bi_invariance": form.bi_invariance,
            "scaled_det": float(form.scaled_det),
        },
        "killing_max_entry": float(np.max(np.abs(killing.numer), initial=0)
                                   / float(killing.denom)),
        "killing_identically_zero": not killing.numer.size,
        "realization": realization,
        "pass": bool(exact and realization["pass"]),
    }


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


INDEX_COLUMNS = ["ideal", "dim", "l", "l_catalog", "b", "b_catalog", "gamma",
                 "gamma_catalog", "residual"]


def cmd_indices(args) -> int:
    spec = _spec_from_args(args)
    if not spec.realizable:
        print(f"{spec.name}: equation-layer only; catalog data: "
              f"{_data_json(spec.data)}", file=sys.stderr)
        return 2
    report, rows = verify_realization(realize(spec))
    ok = report["pass"]
    if args.format == "json":
        _emit_json({"family": spec.name, "ideals": rows, "pass": bool(ok)},
                   args.out)
    elif args.format == "csv":
        _emit([_rows_to_csv(rows, INDEX_COLUMNS)], args.out)
    else:
        header = [k.replace("_catalog", " (catalog)") for k in INDEX_COLUMNS]
        _emit([f"# {spec.name} invariants\n\n",
               _rows_to_markdown(rows, INDEX_COLUMNS, header, ".12g"),
               f"\noverall: {'pass' if ok else 'FAIL'}\n"], args.out)
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


def _rows_to_markdown(rows: list[dict], columns: list[str], header: list[str],
                      fmt: str) -> str:
    """A markdown table of ``columns`` of ``rows``, labelled by ``header``,
    with floats in the format spec ``fmt``."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(columns)]
    for r in rows:
        lines.append("| " + " | ".join(
            "" if r[k] is None else (format(r[k], fmt) if isinstance(r[k], float) else str(r[k]))
            for k in columns) + " |")
    return "\n".join(lines) + "\n"


def _family_solutions(spec: FamilySpec, cmax: float) -> tuple:
    """Every solution of the family's record, and those with |c| <= cmax.
    The scan covers at least the default window, so --cmax filters what it
    omits instead of hiding it outside the scan."""
    found = einstein.solve(spec.data, c_window=max(cmax, einstein.C_WINDOW))
    return found, [s for s in found if abs(s.c) <= cmax]


def _notes(family: str, sols, omitted: int, cmax: float,
           where: str) -> list[str]:
    """The stderr notes on one family's solutions: how many |c| > cmax left
    out (after the prefix ``where``), then each solution that failed Ricci
    verification, with its worst offender."""
    notes = [f"note: {where}{omitted} solution(s) with |c| > {cmax:g} "
             f"omitted by --cmax"] if omitted else []
    return notes + [f"note: {family}: solution c={s.c:.10g} failed Ricci "
                    f"verification: {s.detail}"
                    for s in sols if s.ricci_verified == "failed"]


def _run_solve(args, require_verified: bool) -> int:
    """Print the family's solutions with |c| <= --cmax and the notes on them,
    those --cmax left out counted against the record's claim. ``solve`` reads
    only the record, so each is ``not_applicable``; ``verify`` Ricci-verifies
    each on the family's realization and exits 1 when one fails."""
    spec = _spec_from_args(args)
    real = realize(spec) if require_verified and spec.realizable else None
    found, sols = _family_solutions(spec, args.cmax)
    if real is not None:
        sols = [einstein.verify_solution(real, s) for s in sols]
    for note in _notes(spec.name, sols, len(found) - len(sols), args.cmax, ""):
        print(note, file=sys.stderr)
    if not spec.count_as_claimed(len(found)):
        claim = ("exactly one Einstein metric" if spec.single_metric
                 else "at least two Einstein metrics")
        print(f"note: {spec.name}: {len(found)} solution"
              f"{'s' * (len(found) != 1)} found, but the family has {claim}",
              file=sys.stderr)
    data = spec.data
    doc = {"family": spec.name,
           "params": {"m": spec.m, "n": spec.n, "alpha": spec.alpha},
           "form": data.form_kind, "solutions": [s.to_json() for s in sols]}
    rows = _solution_rows(spec.name, doc["params"], data.form_kind,
                          data.has_k0, doc["solutions"])
    if args.format == "json":
        _emit_json(doc, args.out)
    elif args.format == "csv":
        _emit([_rows_to_csv(rows)], args.out)
    else:
        _emit([_rows_to_markdown(rows, CSV_COLUMNS, CSV_COLUMNS, ".10g")],
              args.out)
    if real is None and require_verified:
        print(f"{spec.name}: no matrix realization; Ricci verification "
              f"not applicable", file=sys.stderr)
    return int(any(s.ricci_verified == "failed" for s in sols))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _data_json(data) -> dict:
    return {
        "dim_k0": data.dim_k0,
        "dim_k": list(data.dim_k),
        "dim_odd": data.dim_odd,
        "l": [str(v) for v in data.l],
        "b": [str(v) for v in data.b],
        "gamma": [str(v) for v in data.gamma],
        "gamma0": str(data.gamma0) if data.gamma0 is not None else None,
        "killing_nondegenerate": data.killing_nondegenerate,
        "form_kind": data.form_kind,
    }


def _route_equivalence(real, rng, draws: int) -> float:
    """The largest deviation between the Koszul and blockwise connections
    and between the direct and closed-form Ricci tensors, compared on the
    Ricci slots, over ``draws`` random metrics evaluated through the
    realization's curvature plan."""
    plan = real.curvature_plan
    worst = 0.0
    for _ in range(draws):
        vals = []
        while len(vals) < real.data.n_params:
            v = float(rng.uniform(-3.0, 3.0))
            if abs(v) >= 0.1:
                vals.append(v)
        params = MetricParams(tuple(vals))
        conn_k, ric_d, ric_c = ricci_routes(real, params)
        dev = conn_k.values.copy()
        dev[plan.bracket_at] -= levi_civita_blockwise(real, params).values
        worst = max(worst, float(np.max(np.abs(dev), initial=0.0)))
        worst = max(worst, float(np.max(np.abs(
            plan.at_slots(ric_d) - plan.at_slots(ric_c)), initial=0.0)))
    return worst


def _quartic_section(spec: FamilySpec, ref: tuple, sols) -> dict:
    """The elimination quartic of a family with the reference cubic ``ref``,
    checked against it and against the solutions."""
    quartic = einstein.elimination_polynomial(spec)
    cubic = einstein.cubic_factor(quartic)
    # distinct at the tolerance that matches them: each value closer than
    # 1e-8 to the one before it is dropped
    roots, x1s = (v[np.diff(v, prepend=-np.inf) >= 1e-8] for v in map(
        np.array, (sorted(r for r in einstein.real_roots(quartic)
                          if abs(r) > 1e-9), sorted(s.x[0] for s in sols))))
    bijection = len(roots) == len(x1s) and np.all(np.abs(roots - x1s) < 1e-8)
    return {
        "quartic": [str(v) for v in quartic],
        "cubic_factor": [str(v) for v in cubic],
        "reference_cubic": [str(v) for v in ref],
        "reference_match": tuple(cubic) == ref,
        "cubic_coefficient_sum": str(sum(cubic)),
        "unit_root": True,  # cubic_factor would have raised otherwise
        "root_solution_bijection": bool(bijection),
    }


def _fold_section(spec: FamilySpec, sols) -> dict:
    results = [einstein.lift_real_form(s, spec.folding) for s in sols]
    return {
        "pairs": [list(p) for p in spec.folding],
        "all_fold": bool(all(r.liftable for r in results)),
        "max_pair_gap": max((r.max_pair_gap for r in results), default=0.0),
    }


def report_section(spec: FamilySpec, seed: int, index: int,
                   c_window: float) -> tuple[dict, list[str]]:
    """One family's report block, and its stderr notes: those of
    :func:`_notes`, then, when the section fails, one naming the gates that
    failed; pure given (spec, seed, index, config). A refusal inside it is
    raised again with the family's name in front."""
    try:
        return _section(spec, seed, index, c_window)
    except ValueError as exc:
        raise ValueError(f"{spec.name}: {exc}") from exc


def _section(spec: FamilySpec, seed: int, index: int,
             c_window: float) -> tuple[dict, list[str]]:
    real = realize(spec) if spec.realizable else None
    found, sols = _family_solutions(spec, c_window)
    data = spec.data
    section: dict = {
        "family": spec.name,
        "kind": spec.kind,
        "params": {"m": spec.m, "n": spec.n, "alpha": spec.alpha},
        "realizable": spec.realizable,
        "data": _data_json(data),
    }
    gates: dict[str, bool] = {}  # in the order the failure note names them
    checked = True  # no realization, or one that passes its structural checks
    if real is not None:
        # the curvature plan, the route draws and the Ricci checks are made
        # only on a realization that passes its structural checks
        st = _structural(real)
        checked, route = st["pass"], None
        if checked:
            sols = [einstein.verify_solution(real, s) for s in sols]
            route = _route_equivalence(real, random.Random(f"{seed}/{index}"),
                                       2)
        else:
            sols = [replace(s, ricci_verified="failed", detail="the "
                            "realization fails its structural checks")
                    for s in sols]
        section["structural"] = {
            "jacobi_residual": st["jacobi_residual"],
            "bi_invariance_residual": st["form_residuals"]["bi_invariance"],
            "killing_identically_zero": st["killing_identically_zero"],
            "indices_match_catalog": st["realization"]["pass"],
            "route_equivalence_max_deviation": route,
            "route_equivalence_draws": 2 if checked else 0,
        }
        gates["structural"] = st["pass"]
        gates["route_equivalence"] = checked and route < ROUTE_TOL
    section["solutions"] = [s.to_json() for s in sols]
    section["solution_count"] = len(sols)
    section["expected_single"] = spec.single_metric
    # the claims are about the family, so they read the solutions --cmax
    # leaves out too
    section["count_ok"] = gates["count_ok"] = spec.count_as_claimed(len(found))
    if spec.flat_and_nonflat:
        flat = any(abs(s.c) <= 1e-12 for s in found)
        nonflat = any(abs(s.c) > 1e-6 for s in found)
        section["ricci_flat_and_nonflat"] = gates["ricci_flat_and_nonflat"] = \
            flat and nonflat
    ref = einstein.cubic_reference_coefficients(spec)
    if ref is not None:
        section["quartic"] = _quartic_section(spec, ref, found)
        gates["quartic.root_solution_bijection"] = \
            section["quartic"]["root_solution_bijection"]
    if not data.killing_nondegenerate:
        section["folding"] = _fold_section(spec, found)
        gates["folding.all_fold"] = section["folding"]["all_fold"]
    gates["solutions"] = checked and all(s.ricci_verified != "failed"
                                         for s in sols)
    failed = [gate for gate, passed in gates.items() if not passed]
    section["pass"] = not failed
    notes = _notes(spec.name, sols, len(found) - len(sols), c_window,
                   f"{spec.name}: ")
    if failed:
        notes.append(f"note: {spec.name}: failed {', '.join(failed)}")
    return section, notes


def build_report(max_m: int, max_n: int, seed: int, c_window: float,
                 jobs: int = 1) -> dict:
    """The report document. Prints each family's notes on stderr, in
    catalog order: what ``c_window`` left out, which solutions failed Ricci
    verification and, for a failing section, which gates failed. At most
    ``jobs`` worker processes run the sections, and no more than there are
    sections or CPUs, since the pool starts every worker at once; the
    document is the same at any count. :func:`check_product_join` refuses a
    realizable family while the catalog is enumerated, before any section
    runs."""
    specs = []
    for spec in iter_catalog(max_m, max_n):
        if spec.realizable:
            check_product_join(spec)
        specs.append(spec)
    inputs = (specs, repeat(seed), range(len(specs)), repeat(c_window))
    workers = min(jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pools pay for it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(report_section, *inputs))
    else:
        results = list(map(report_section, *inputs))
    sections = [sec for sec, _ in results]
    for _, notes in results:
        for note in notes:
            print(note, file=sys.stderr)
    single = [s["family"] for s in sections if s["expected_single"]]
    mixed = [s["family"] for s in sections
             if s.get("ricci_flat_and_nonflat") is True]
    doc = {
        "config": {
            "max_m": max_m, "max_n": max_n, "seed": seed,
            "c_window": c_window,
            "solution_tolerance": einstein.SOLUTION_TOL,
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
            route = st["route_equivalence_max_deviation"]
            lines.append(f"- structural: jacobi {st['jacobi_residual']:.2e}, "
                         f"bi-invariance {st['bi_invariance_residual']:.2e}, "
                         f"K = 0: {st['killing_identically_zero']}, "
                         f"indices match: {st['indices_match_catalog']}, "
                         f"route deviation "
                         f"{'not computed' if route is None else f'{route:.2e}'}")
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
        lines.append(_rows_to_markdown(_section_rows(sec), CSV_COLUMNS,
                                        CSV_COLUMNS, ".10g"))
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
                       else args.max_m, args.seed, args.cmax, jobs=args.jobs)
    if args.format == "json":
        _emit_json(doc, args.out)
    elif args.format == "csv":
        _emit([_rows_to_csv([r for sec in doc["families"]
                             for r in _section_rows(sec)])], args.out)
    else:
        _emit([_report_markdown(doc)], args.out)
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


def _add_output_args(p: argparse.ArgumentParser, formats: bool = True) -> None:
    if formats:
        p.add_argument("--format", choices=["json", "csv", "markdown"],
                       default="json")
    p.add_argument("--out", default=None)


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cmax", type=float, default=einstein.C_WINDOW)


class _Parser(argparse.ArgumentParser):
    """Raises a rejected command line as ValueError, for ``main``'s one-line
    error path, instead of printing the usage and exiting."""

    def error(self, message):
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supereinstein", allow_abbrev=False,
        description="Einstein metrics on basic classical Lie superalgebras")
    sub = parser.add_subparsers(dest="command", required=True)
    p_build = sub.add_parser("build", help="construct and verify an algebra",
                             allow_abbrev=False)
    _add_family_args(p_build)
    _add_output_args(p_build, formats=False)
    p_build.set_defaults(func=cmd_build)
    p_idx = sub.add_parser("indices", help="indices, ratios and Casimir scalars",
                           allow_abbrev=False)
    _add_family_args(p_idx)
    _add_output_args(p_idx)
    p_idx.set_defaults(func=cmd_indices)
    for name, verified, text in (
            ("solve", False, "solve the Einstein system"),
            ("verify", True, "solve and require Ricci verification")):
        p_solve = sub.add_parser(name, help=text, allow_abbrev=False)
        _add_family_args(p_solve)
        _add_output_args(p_solve)
        _add_solver_args(p_solve)
        p_solve.set_defaults(func=functools.partial(
            _run_solve, require_verified=verified))
    p_rep = sub.add_parser("report", help="full reproduction report",
                           allow_abbrev=False)
    p_rep.add_argument("--max-m", type=int, required=True)
    p_rep.add_argument("--max-n", type=int, default=None)
    _add_output_args(p_rep)
    _add_solver_args(p_rep)
    p_rep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_rep.add_argument("--jobs", type=int, default=1)
    p_rep.set_defaults(func=cmd_report)
    return parser


def _input_error(args) -> str | None:
    """The first value, among the options the subcommand has, outside its
    domain, as a message, else None."""
    cmax = getattr(args, "cmax", None)
    if cmax is not None and not (math.isfinite(cmax) and cmax > 0):
        return f"--cmax must be finite and > 0, got {cmax:g}"
    alpha = getattr(args, "alpha", None)
    if alpha is not None and not math.isfinite(alpha):
        return f"--alpha must be finite, got {alpha:g}"
    for opt, least in (("jobs", 1), ("seed", 0), ("max_m", 0), ("max_n", 0)):
        value = getattr(args, opt, None)
        if value is not None and value < least:
            return f"--{opt.replace('_', '-')} must be >= {least}, got {value}"
    return None


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        error = _input_error(args)
        if error:
            raise ValueError(error)
        return args.func(args)
    except (ValueError, OSError) as exc:  # an OSError from writing --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
