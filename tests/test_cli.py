"""The command-line front end, driven through ``cli.main``: the solution
tables of ``solve``, ``verify`` and ``report``, the input contract (exit
code 2 and a one-line error), the ``--cmax`` filter, ``solve`` reading the
family record alone, the ``build`` and ``indices`` outputs, and one
corruption per report gate that fails it."""

import ast
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from supereinstein import cli, einstein, families, invariants, supercore

from conftest import exact_entries


@pytest.fixture(scope="module")
def report_m1():
    """The ``report --max-m 1`` document, built once for the module."""
    return cli.build_report(1, 1, cli.DEFAULT_SEED, einstein.C_WINDOW)


@pytest.fixture
def cached_report(monkeypatch, report_m1):
    monkeypatch.setattr(cli, "build_report", lambda *a, **kw: report_m1)
    return report_m1


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestReportTables:
    def test_csv_lists_every_solution(self, capsys, cached_report):
        code, out, _ = run(capsys, "report", "--max-m", "1", "--format", "csv")
        assert code == 0
        header, *rows = csv_rows(out)
        assert header == cli.CSV_COLUMNS
        expected = [(sec["family"], s["c"]) for sec in cached_report["families"]
                    for s in sec["solutions"]]
        assert expected
        assert [(r[0], float(r[7])) for r in rows] == expected

    def test_markdown_lists_every_solution(self, capsys, cached_report):
        code, out, _ = run(capsys, "report", "--max-m", "1",
                           "--format", "markdown")
        assert code == 0
        table = [line for line in out.splitlines()
                 if line.startswith("| ") and not line.startswith("| family")]
        assert len(table) == sum(sec["solution_count"]
                                 for sec in cached_report["families"])

    @pytest.mark.parametrize("family", [("A", "--m", "1", "--n", "1"),
                                        ("B", "--m", "1", "--n", "1")])
    def test_csv_rows_equal_solve(self, capsys, cached_report, family):
        # verify, like the report, stamps each row with its Ricci check
        _, report_out, _ = run(capsys, "report", "--max-m", "1",
                               "--format", "csv")
        code, verify_out, _ = run(capsys, "verify", "--family", *family,
                                  "--format", "csv")
        assert code == 0
        header, *verify_rows = csv_rows(verify_out)
        assert header == cli.CSV_COLUMNS and verify_rows
        assert {r[-1] for r in verify_rows} == {"verified"}
        name = verify_rows[0][0]
        assert [r for r in csv_rows(report_out)[1:] if r[0] == name] == \
            verify_rows


C3 = ("solve", "--family", "C", "--n", "3")


class TestInputContract:
    @pytest.mark.parametrize("argv", [
        C3 + ("--cmax", "-1"),
        C3 + ("--cmax", "0"),
        C3 + ("--cmax", "inf"),
        C3 + ("--tol", "nan"),
        C3 + ("--tol", "0"),
        C3 + ("--tol", "1e-3"),
        ("solve", "--family", "D21a", "--alpha", "nan"),
        ("solve", "--family", "D21a", "--alpha", "inf"),
        ("report", "--max-m", "-1"),
        ("report", "--max-m", "1", "--max-n", "-1"),
        C3 + ("--jobs", "0"),
        ("report", "--max-m", "1", "--jobs", "-1"),
        ("build", "--family", "A", "--m", "43", "--n", "0"),
        ("build", "--family", "X"),
        ("solve", "--family", "B", "--m", "abc", "--n", "1"),
        ("build", "--family", "B", "--m", "1", "--n", "1", "--format", "csv"),
        ("solve", "--family", "B", "--m", "1", "--n", "1", "--form", "killing"),
        ("build", "--family", "B", "--m", "1", "--n", "1", "--seed", "1"),
        ("solve", "--family", "B", "--m", "1", "--n", "1", "--form", "json"),
        ("report", "--max-m", "1", "--se", "3"),
        ("solve", "--family", "A", "--m", "1", "--n", "0", "--cmax", "1e8"),
        ("report", "--max-m", "1", "--cmax", "1e8", "--jobs", "2"),
        ("build", "--family", "B", "--m", "1", "--n", "1", "--alpha", "3"),
        ("solve", "--family", "A", "--m", "2", "--n", "1", "--alpha", "1"),
        ("build", "--family", "C", "--m", "1", "--n", "3"),
        ("build", "--family", "D21a", "--m", "2", "--alpha", "1"),
        ("verify", "--family", "F4", "--m", "1", "--n", "1"),
        ("indices", "--family", "G3", "--alpha", "2"),
    ], ids=" ".join)
    def test_rejected_with_one_line_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_join_refusal_names_the_jacobi_check(self, capsys, monkeypatch):
        # the Jacobi check of sl(2|1) = A(1,0) joins its realization's basis
        # products (41 pairs) and rebuild (56) again, so the bound drops to
        # 10 once the realization is made
        def realized(spec):
            real = families.realize(spec)
            monkeypatch.setattr(supercore, "MAX_JOIN_PAIRS", 10)
            return real

        monkeypatch.setattr(cli, "realize", realized)
        code, out, err = run(capsys, "build", "--family", "A", "--m", "1",
                             "--n", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: a join of ") and err.count("\n") == 1
        assert "pairs in the Jacobi check is over the 10-pair memory limit" \
            in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_section_refusal_names_its_family(self, capsys, monkeypatch, jobs):
        # A(1,0), the first family of catalog(1), is refused in its
        # realization, whose largest join is 56 pairs; the record check,
        # which reads the same bound, admits every family at 12 pairs (A(1,1)
        # and B(1,1) must join 12); a forked worker inherits the patched bound
        monkeypatch.setattr(supercore, "MAX_JOIN_PAIRS", 12)
        code, out, err = run(capsys, "report", "--max-m", "1", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err.startswith("error: A(1,0): a join of ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_negative_seed_refused_before_any_section(self, capsys,
                                                      monkeypatch, jobs):
        # the route draws, seeded by the string "seed/index", would accept
        # it; the contract refuses it before the catalog is enumerated
        def enumerated(*args):
            raise AssertionError("the catalog was enumerated")

        monkeypatch.setattr(cli, "iter_catalog", enumerated)
        code, out, err = run(capsys, "report", "--max-m", "2", "--seed", "-5",
                             "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err == "error: --seed must be >= 0, got -5\n"

    @pytest.mark.parametrize("max_m,bound,family", [
        ("1000", None, "A(73,71) has dimension 21,315"),
        ("2", 10, "A(2,0) has dimension 15"),
    ], ids=["first-over-the-bound", "patched-bound"])
    def test_report_refused_before_any_section(self, capsys, monkeypatch,
                                               max_m, bound, family):
        # A(73,71), dim 21,315, is the first catalog family whose basis
        # products must be over the join bound; the catalog past it is never
        # made. The dense bound, which guards only build's Gram, refuses
        # no report.
        monkeypatch.setattr(supercore, "MAX_DENSE_ENTRIES", 1)
        if bound is not None:
            monkeypatch.setattr(supercore, "MAX_JOIN_PAIRS", bound)
        sections = []
        monkeypatch.setattr(cli, "report_section",
                            lambda *args: sections.append(args))
        code, out, err = run(capsys, "report", "--max-m", max_m)
        assert (code, out, sections) == (2, "", [])
        assert err.startswith(f"error: {family}: its basis products join ")
        assert err.count("\n") == 1


    def test_only_build_reads_the_dense_bound(self, capsys, monkeypatch):
        # with no dense form allowed, every command but build still runs
        monkeypatch.setattr(supercore, "MAX_DENSE_ENTRIES", 1)
        for argv in (("verify", *B11), ("indices", *B11),
                     ("report", "--max-m", "1")):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out, argv
        code, out, err = run(capsys, "build", *B11)
        assert (code, out) == (2, "")
        assert err.startswith("error: B(1,1) has dimension 12: a dense ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,bound,error", [
        (("verify", "--family", "A", "--m", "300", "--n", "0"), None,
         "A(300,0) has dimension 91,203: its basis products join at least "),
        (("indices", "--family", "A", "--m", "300", "--n", "0"), None,
         "A(300,0) has dimension 91,203: its basis products join at least "),
        (("verify", "--family", "B", "--m", "1", "--n", "1"), 100,
         "a join of 158 entry pairs is over the 100-pair memory limit"),
    ], ids=["verify-record", "indices-record", "verify-join"])
    def test_stops_at_the_join_bound(self, capsys, monkeypatch, argv, bound,
                                     error):
        # realize refuses, from the record, a family whose basis products
        # must be over the join bound, and every join one that is over it
        if bound is not None:
            monkeypatch.setattr(supercore, "MAX_JOIN_PAIRS", bound)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {error}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("solve", "--family", "B", "--m", "1", "--n", "1", "--form", "killing"),
        ("solve", "--family", "B", "--m", "1", "--n", "1", "--form", "json"),
        ("report", "--max-m", "1", "--se", "3"),
    ], ids=" ".join)
    def test_prefix_of_an_option_is_not_that_option(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: unrecognized arguments: ")

    @pytest.mark.parametrize("argv", [
        ("solve", "--family", "B", "--m", "1", "--n", "1"),
        ("verify", "--family", "B", "--m", "1", "--n", "1"),
        ("report", "--max-m", "1"),
    ], ids=lambda argv: argv[0])
    def test_tol_is_not_an_option(self, capsys, argv):
        # the residual gate is einstein.SOLUTION_TOL, stated once
        code, out, err = run(capsys, *argv, "--tol", "1e-12")
        assert (code, out) == (2, "")
        assert err == "error: unrecognized arguments: --tol 1e-12\n"

    def test_unwritable_out_is_one_line_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "build", "--family", "B", "--m", "1",
                             "--n", "1", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err and not target.parent.exists()


G3 = ("solve", "--family", "G3")


class TestCmaxFilter:
    def test_omitted_solution_is_noted(self, capsys):
        code, out, err = run(capsys, *G3, "--cmax", "0.2")
        assert code == 0
        cs = [s["c"] for s in json.loads(out)["solutions"]]
        assert len(cs) == 1 and abs(cs[0] + 0.1312) < 1e-4
        assert err == "note: 1 solution(s) with |c| > 0.2 omitted by --cmax\n"

    def test_default_notes_nothing(self, capsys):
        code, out, err = run(capsys, *G3)
        assert code == 0 and err == ""
        assert [round(s["c"], 4) for s in json.loads(out)["solutions"]] == \
            [-0.25, -0.1312]


    @pytest.mark.parametrize("family", [("B", "3", "2"), ("D", "3", "3")],
                             ids=lambda f: f"{f[0]}({f[1]},{f[2]})")
    def test_wide_window_keeps_default_solutions(self, capsys, family):
        # --cmax 1000 scans 2e7 grid steps: pruned, it fits the memory limit
        argv = ("solve", "--family", family[0], "--m", family[1],
                "--n", family[2])
        code, out, err = run(capsys, *argv, "--cmax", "1000")
        assert code == 0 and err == ""
        wide = json.loads(out)["solutions"]
        default = json.loads(run(capsys, *argv)[1])["solutions"]
        assert len(wide) == len(default) == 2
        for a, b in zip(wide, default):
            assert abs(a["c"] - b["c"]) < 1e-9
            assert max(abs(u - v) for u, v in zip(a["x"], b["x"])) < 1e-9
            assert a["ricci_verified"] == b["ricci_verified"] == \
                "not_applicable"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_report_notes_omitted_per_family(self, capsys, jobs):
        code, out, err = run(capsys, "report", "--max-m", "1", "--cmax", "0.2",
                             "--jobs", jobs)
        # B(1,1) loses both printed solutions, and its quartic's roots
        # still match the solutions found
        assert code == 0
        assert "note: G(3): 1 solution(s) with |c| > 0.2 omitted by --cmax" \
            in err.splitlines()
        assert "note: B(1,1): 2 solution(s) with |c| > 0.2 omitted by --cmax" \
            in err.splitlines()
        sections = json.loads(out)["families"]
        order = [s["family"] for s in sections]
        noted = [order.index(line.split(": ")[1]) for line in err.splitlines()]
        assert noted == sorted(noted)  # catalog order, a family's notes together
        failed = [line.split(": ")[1] for line in err.splitlines()
                  if ": failed " in line]
        assert failed == [s["family"] for s in sections if not s["pass"]]
        assert all(abs(sol["c"]) <= 0.2 for s in sections for sol in s["solutions"])

    def test_report_counts_the_omitted_solutions(self, capsys):
        # the paper's claims are about the family: A(1,0)'s one metric,
        # B(1,1)'s two and D(2,1;2.5)'s non-flat ones lie outside
        # |c| <= 0.1, and the count, quartic and flat/non-flat claims hold
        code, out, err = run(capsys, "report", "--max-m", "1", "--cmax", "0.1")
        assert code == 0 and ": failed " not in err
        sections = {s["family"]: s for s in json.loads(out)["families"]}
        for family in ("A(1,0)", "B(1,1)"):
            assert sections[family]["solutions"] == []
            assert sections[family]["count_ok"] is True
        assert sections["B(1,1)"]["quartic"]["root_solution_bijection"] is True
        assert sections["D(2,1;2.5)"]["ricci_flat_and_nonflat"] is True
        assert "note: A(1,0): 1 solution(s) with |c| > 0.1 omitted by --cmax" \
            in err.splitlines()


class TestOutputs:
    def test_build_with_nonzero_float_jacobi_residual(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "A", "--m", "2",
                           "--n", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "A(2,0)"
        assert all(type(v) is int
                   for v in doc["verification"]["jacobi_worst_triple"])

    def test_build_where_full_jacobi_sums_were_refused(self, capsys):
        # A(25,0), dim 728: summing every triple would join 3.31M entry
        # pairs, over MAX_JOIN_PAIRS; the check through the basis matrices
        # joins 22,481 and 56,008
        code, out, _ = run(capsys, "build", "--family", "A", "--m", "25",
                           "--n", "0")
        assert code == 0
        assert json.loads(out)["verification"]["pass"] is True

    def test_indices_csv(self, capsys):
        argv = ("indices", "--family", "B", "--m", "1", "--n", "1")
        _, json_out, _ = run(capsys, *argv, "--format", "json")
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv_rows(out)
        ideals = json.loads(json_out)["ideals"]
        assert header == list(ideals[0])
        assert [r[0] for r in rows] == [i["ideal"] for i in ideals]
        assert [float(r[2]) for r in rows if r[2]] == \
            [i["l"] for i in ideals if i["l"] is not None]


class TestSystemBuiltOnce:
    @pytest.mark.parametrize("argv,calls", [
        (("report", "--max-m", "1"), 7),
        (("solve", "--family", "B", "--m", "1", "--n", "1"), 1),
    ], ids=["report", "solve"])
    def test_one_build_per_family(self, capsys, monkeypatch, argv, calls):
        built = []
        inner = einstein.solve

        def counting(*args, **kwargs):
            built.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(einstein, "solve", counting)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(built) == calls


class TestRealizedInvariants:
    def test_killing_gram_once_per_simple_ideal(self, capsys, monkeypatch):
        computed, realized = [], []
        inner, build = invariants.ideal_killing_gram, cli.realize

        def counting(alg, ideal):
            computed.append((id(alg), ideal))
            return inner(alg, ideal)

        def recording(spec):
            realized.append(build(spec))  # held, so every id stays unique
            return realized[-1]

        monkeypatch.setattr(invariants, "ideal_killing_gram", counting)
        monkeypatch.setattr(cli, "realize", recording)
        code, _, _ = run(capsys, "report", "--max-m", "1")
        assert code == 0
        assert [real.spec for real in realized] == \
            [spec for spec in families.catalog(1) if spec.realizable]
        simple = [(id(real.algebra), ideal) for real in realized
                  for ideal in real.algebra.simple_ideals()]
        assert len(simple) == 6
        assert sorted(computed, key=repr) == sorted(simple, key=repr)

    @pytest.mark.parametrize("field", ["l", "b", "gamma"])
    def test_one_catalog_comparison_gates_build_indices_and_report(
            self, capsys, monkeypatch, field):
        def off_by_a_thousandth(*args, **kwargs):
            spec = families.family_spec(*args, **kwargs)
            values = getattr(spec.data, field)
            return dataclasses.replace(spec, data=dataclasses.replace(
                spec.data,
                **{field: (values[0] + Fraction(1, 1000),) + values[1:]}))

        # the realization carries the record it is given, so the perturbed
        # record is what the algebra is checked against and what the solver
        # reads; C(3) has no elimination quartic to trip over the change
        monkeypatch.setattr(cli, "family_spec", off_by_a_thousandth)
        argv = ("--family", "C", "--n", "3")
        code, out, _ = run(capsys, "build", *argv)
        assert code == 1
        assert json.loads(out)["verification"]["realization"]["pass"] is False
        code, out, _ = run(capsys, "indices", *argv)
        assert code == 1 and json.loads(out)["pass"] is False
        section, notes = cli.report_section(off_by_a_thousandth("C", n=3),
                                            cli.DEFAULT_SEED, 0,
                                            einstein.C_WINDOW)
        assert section["structural"]["indices_match_catalog"] is False
        assert [s["ricci_verified"] for s in section["solutions"]] == \
            ["failed", "failed"]
        assert section["pass"] is False
        assert notes[-1] == ("note: C(3): failed structural, "
                             "route_equivalence, solutions")


def test_failing_report_section_names_its_gate(capsys, monkeypatch):
    # B(1,1) is the one family of the m = 1 report with a quartic; the notes
    # at --jobs 2 are checked in TestCmaxFilter, without a patch to inherit
    inner = cli._quartic_section
    monkeypatch.setattr(cli, "_quartic_section", lambda *args: {
        **inner(*args), "root_solution_bijection": False})
    code, out, err = run(capsys, "report", "--max-m", "1")
    assert code == 1
    assert err == "note: B(1,1): failed quartic.root_solution_bijection\n"
    assert [s["family"] for s in json.loads(out)["families"]
            if not s["pass"]] == ["B(1,1)"]


def _record_changed(family, **changes):
    """A corruption of the report: ``family``'s record with ``changes``."""
    def corrupt(monkeypatch):
        catalog = cli.iter_catalog
        monkeypatch.setattr(cli, "iter_catalog", lambda *args: [
            dataclasses.replace(s, **changes) if s.name == family else s
            for s in catalog(*args)])
    return corrupt


def _realization_changed(family, change):
    """A corruption of the report: ``family``'s realization made into
    ``change(realization)``."""
    def corrupt(monkeypatch):
        def realized(spec):
            real = families.realize(spec)
            return change(real) if spec.name == family else real

        monkeypatch.setattr(cli, "realize", realized)
    return corrupt


def _bracket_moved(i, j, k):
    """A realization change: c[i, j, k] + 1, and c[j, i, k] moved as graded
    antisymmetry moves it (+1 for two odd vectors, -1 otherwise)."""
    def moved(real):
        alg = real.algebra
        odd = alg.basis.parity_array()
        entries = exact_entries(alg)
        entries[(i, j, k)] += 1
        entries[(j, i, k)] += 1 if odd[i] and odd[j] else -1
        return dataclasses.replace(real, algebra=supercore.LieSuperAlgebra(
            alg.basis, entries, alg.decomposition))
    return moved


def _odd_bracket_moved(real):
    # the first bracket of two distinct odd vectors moved
    odd = real.algebra.basis.parity_array()
    i, j, k = next(t for t in real.algebra.index.tolist()
                   if odd[t[0]] and odd[t[1]] and t[0] < t[1])
    return _bracket_moved(i, j, k)(real)


def _form_numerator_moved(at):
    """A realization change: the canonical form's numerator at position
    ``at`` of its nonzeros + 1."""
    def moved(real):
        form = real.canonical_form
        numer = form.numer.copy()
        numer[at] += 1
        return dataclasses.replace(real, canonical_form=supercore.exact_form(
            real.algebra, form.keys, numer, form.denom))
    return moved


def _abelian_form_entry_moved(real):
    # the canonical form's numerator on the abelian ideal's (0, 0) entry + 1
    assert real.canonical_form.keys[0] == 0 and real.data.has_k0
    return _form_numerator_moved(0)(real)


def _first_solution_nudged(family):
    """A corruption of the report: the first solution of ``family``'s
    system with its first coordinate moved by 1e-6."""
    def corrupt(monkeypatch):
        solve = einstein.solve
        data = next(s.data for s in families.catalog(1) if s.name == family)

        def nudged(system, **kwargs):
            sols = solve(system, **kwargs)
            if system == data:
                x = sols[0].x
                sols[0] = dataclasses.replace(sols[0], x=(x[0] + 1e-6, *x[1:]))
            return sols

        monkeypatch.setattr(einstein, "solve", nudged)
    return corrupt


# For each gate of ``cli._section``: one corruption of one family of the
# m = 1 report, and every gate it fails, in the order the note names them.
GATE_MUTATIONS = {
    "structural": (_realization_changed("B(1,1)", _odd_bracket_moved),
                   "B(1,1)", ["structural", "route_equivalence", "solutions"]),
    "route_equivalence": (
        _realization_changed("A(1,0)", _abelian_form_entry_moved), "A(1,0)",
        ["structural", "route_equivalence", "solutions"]),
    "count_ok": (_record_changed("B(1,1)", single_metric=True), "B(1,1)",
                 ["count_ok"]),
    "ricci_flat_and_nonflat": (
        _record_changed("A(1,0)", flat_and_nonflat=True), "A(1,0)",
        ["ricci_flat_and_nonflat"]),
    "quartic.root_solution_bijection": (
        _first_solution_nudged("B(1,1)"), "B(1,1)",
        ["quartic.root_solution_bijection", "solutions"]),
    "folding.all_fold": (_record_changed("D(2,1;2.5)", folding=((1, 2),)),
                         "D(2,1;2.5)", ["folding.all_fold"]),
    "solutions": (_first_solution_nudged("A(1,0)"), "A(1,0)", ["solutions"]),
}


@pytest.mark.parametrize("gate", GATE_MUTATIONS)
def test_gate_mutation_fails_the_report(capsys, monkeypatch, gate):
    corrupt, family, failed = GATE_MUTATIONS[gate]
    assert gate in failed
    code, out, _ = run(capsys, "report", "--max-m", "1")
    assert code == 0
    corrupt(monkeypatch)
    code, out, err = run(capsys, "report", "--max-m", "1")
    assert code == 1
    assert f"note: {family}: failed {', '.join(failed)}" in err.splitlines()
    assert [s["family"] for s in json.loads(out)["families"]
            if not s["pass"]] == [family]


def test_every_gate_has_a_mutation():
    # the gates are the keys ``_section`` stores into ``gates``
    stored = {node.slice.value
              for node in ast.walk(ast.parse(inspect.getsource(cli._section)))
              if isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)
              and ast.unparse(node.value) == "gates"}
    assert stored == set(GATE_MUTATIONS)


A10 = ("--family", "A", "--m", "1", "--n", "0")


def _with_form(monkeypatch, form_of):
    """Make every realization in ``cli`` carry ``form_of(canonical form)``
    as its canonical form."""
    def realized(spec):
        real = families.realize(spec)
        return dataclasses.replace(real,
                                   canonical_form=form_of(real.canonical_form))

    monkeypatch.setattr(cli, "realize", realized)


def _form_changed(change):
    """A realization change: the canonical form rebuilt from its integer
    entries, a dict {(row, col): numer} that ``change(entries, real)``
    edits in place."""
    def changed(real):
        form, n = real.canonical_form, real.canonical_form.dim
        entries = {divmod(int(k), n): int(v)
                   for k, v in zip(form.keys, form.numer)}
        change(entries, real)
        keys = sorted(k for k, v in entries.items() if v)
        flat = np.array([i * n + j for i, j in keys], dtype=np.int64)
        numer = np.array([entries[k] for k in keys], dtype=np.int64)
        return dataclasses.replace(real, canonical_form=supercore.exact_form(
            real.algebra, flat, numer, form.denom))
    return changed


def _mixed_parity_pair(entries, real):
    # B(e, o) = B(o, e) = 1 for the first even e and the first odd o
    odd = real.algebra.basis.parity_array()
    e, o = int(np.flatnonzero(odd == 0)[0]), int(np.flatnonzero(odd)[0])
    entries[e, o] = entries[o, e] = 1


def _odd_entry_moved(entries, real):
    # one odd-odd entry + 1 and its transpose kept
    odd = real.algebra.basis.parity_array()
    entries[next(k for k in sorted(entries) if odd[k[0]] and odd[k[1]])] += 1


def _even_entry_moved(entries, real):
    # one even-even entry off the diagonal + 1 and its transpose kept
    odd = real.algebra.basis.parity_array()
    entries[next(k for k in sorted(entries) if k[0] != k[1]
                 and not odd[k[0]] and not odd[k[1]])] += 1


def _first_ideal_doubled(entries, real):
    ideal = real.algebra.simple_ideals()[0]
    for i, j in entries:
        if ideal.start <= i < ideal.stop:
            entries[i, j] *= 2


def _first_row_zeroed(entries, real):
    for key in [k for k in entries if 0 in k]:
        del entries[key]


def _first_l_moved(real):
    # the record's first l off by 1/1000, so the realized l no longer equals it
    data = real.data
    return dataclasses.replace(real, spec=dataclasses.replace(
        real.spec, data=dataclasses.replace(
            data, l=(data.l[0] + Fraction(1, 1000), *data.l[1:]))))


def _failed_terms(doc):
    """The terms of ``cli._structural``'s ``pass`` that a ``build`` document
    reads as failed, in the order ``_structural`` states them."""
    flags, verification = doc["canonical_form"]["flags"], doc["verification"]
    return [term for term, holds in [
        ("jac.residual == 0", verification["jacobi_residual"] == 0),
        ("form.is_even", flags["even"]),
        ("form.is_supersymmetric", flags["supersymmetric"]),
        ("form.is_bi_invariant", flags["bi_invariant"]),
        ("form.is_nondegenerate", flags["nondegenerate"]),
        ("realization['pass']", verification["realization"]["pass"]),
    ] if not holds]


# For each term of ``cli._structural``'s ``pass``: one corruption of
# A(1,0)'s realization, and every term it fails. The catalog comparison is
# made only when the five axioms hold, so it fails with any of them.
STRUCTURAL_MUTATIONS = {
    "jac.residual == 0": (_odd_bracket_moved,
                          ["jac.residual == 0", "realization['pass']"]),
    "form.is_even": (_form_changed(_mixed_parity_pair),
                     ["form.is_even", "form.is_bi_invariant",
                      "realization['pass']"]),
    "form.is_supersymmetric": (_form_changed(_odd_entry_moved),
                               ["form.is_supersymmetric",
                                "form.is_bi_invariant",
                                "realization['pass']"]),
    "form.is_bi_invariant": (_form_changed(_first_ideal_doubled),
                             ["form.is_bi_invariant", "realization['pass']"]),
    "form.is_nondegenerate": (_form_changed(_first_row_zeroed),
                              ["form.is_bi_invariant", "form.is_nondegenerate",
                               "realization['pass']"]),
    "realization['pass']": (_first_l_moved, ["realization['pass']"]),
}


@pytest.mark.parametrize("term", STRUCTURAL_MUTATIONS)
def test_structural_term_mutation_fails_build(capsys, monkeypatch, term):
    change, failed = STRUCTURAL_MUTATIONS[term]
    assert term in failed
    code, out, _ = run(capsys, "build", *A10)
    assert (code, _failed_terms(json.loads(out))) == (0, [])
    _realization_changed("A(1,0)", change)(monkeypatch)
    code, out, _ = run(capsys, "build", *A10)
    doc = json.loads(out)
    assert code == 1 and doc["verification"]["pass"] is False
    assert _failed_terms(doc) == failed


@pytest.mark.parametrize("term", STRUCTURAL_MUTATIONS)
def test_structural_term_mutation_fails_report(capsys, monkeypatch, term):
    # the report reads the structural checks before any curvature or Ricci
    # check, so a corrupted realization fails its gate and is not refused
    _realization_changed("A(1,0)", STRUCTURAL_MUTATIONS[term][0])(monkeypatch)
    code, out, err = run(capsys, "report", "--max-m", "1")
    assert code == 1
    assert ("note: A(1,0): failed structural, route_equivalence, solutions"
            in err.splitlines())
    (section,) = [s for s in json.loads(out)["families"] if not s["pass"]]
    assert section["family"] == "A(1,0)"
    assert section["structural"]["route_equivalence_max_deviation"] is None
    assert {s["ricci_verified"] for s in section["solutions"]} == {"failed"}


def _even_brackets(family):
    """Every structure constant (i, j, k) of ``family`` whose bracket
    involves an even vector."""
    alg = families.realize(families.family_spec(*family)).algebra
    odd = alg.basis.parity_array()
    return [tuple(t) for t in alg.index.tolist()
            if not (odd[t[0]] and odd[t[1]])]


@pytest.mark.parametrize("triple", _even_brackets(("A", 1, 0)), ids=str)
def test_even_bracket_moved_fails_report(capsys, monkeypatch, triple):
    _realization_changed("A(1,0)", _bracket_moved(*triple))(monkeypatch)
    code, _, err = run(capsys, "report", "--max-m", "1")
    assert code == 1
    assert "note: A(1,0): failed structural" in err


@pytest.mark.parametrize("at", range(len(families.realize(
    families.family_spec("A", 1, 0)).canonical_form.numer)))
def test_form_numerator_moved_fails_report(capsys, monkeypatch, at):
    _realization_changed("A(1,0)", _form_numerator_moved(at))(monkeypatch)
    code, _, err = run(capsys, "report", "--max-m", "1")
    assert code == 1
    assert "note: A(1,0): failed structural" in err


def test_even_form_entry_moved_fails_build(capsys, monkeypatch):
    # the form loses its supersymmetry, and the Casimir check that would
    # refuse it is not reached
    _realization_changed("A(1,0)", _form_changed(_even_entry_moved))(
        monkeypatch)
    code, out, _ = run(capsys, "build", *A10)
    assert code == 1
    assert "form.is_supersymmetric" in _failed_terms(json.loads(out))


def test_every_structural_term_has_a_mutation():
    # the terms are the operands of the ``and`` that ``_structural`` stores
    # as ``exact`` (the five axioms), then the catalog comparison that
    # ``pass`` adds to it
    tree = ast.parse(inspect.getsource(cli._structural))
    (axioms,) = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "exact"]
    (passed,) = [value.args[0] for node in ast.walk(tree)
                 if isinstance(node, ast.Dict)
                 for key, value in zip(node.keys, node.values)
                 if isinstance(key, ast.Constant) and key.value == "pass"
                 and isinstance(value, ast.Call)]
    for op in (axioms, passed):
        assert isinstance(op, ast.BoolOp) and isinstance(op.op, ast.And)
    assert [ast.unparse(t) for t in passed.values] == \
        ["exact", "realization['pass']"]
    assert [ast.unparse(t) for t in axioms.values] + \
        ["realization['pass']"] == list(STRUCTURAL_MUTATIONS)


def test_degenerate_canonical_form_fails_build_and_report(capsys,
                                                          monkeypatch):
    # one zeroed row and column: the form stays even and supersymmetric,
    # and the invariants, which need its inverse, are not made
    _realization_changed("A(1,0)", _form_changed(_first_row_zeroed))(
        monkeypatch)
    code, out, _ = run(capsys, "build", *A10)
    doc = json.loads(out)
    assert code == 1 and doc["verification"]["pass"] is False
    assert doc["verification"]["realization"]["pass"] is False
    assert doc["canonical_form"]["flags"]["nondegenerate"] is False
    assert doc["canonical_form"]["gram"][0] == [0.0] * 8
    # no metric is made from it, so a report fails the family's structural
    # gate before it makes one
    code, out, err = run(capsys, "report", "--max-m", "1")
    assert code == 1
    assert ("note: A(1,0): failed structural, route_equivalence, solutions"
            in err.splitlines())
    assert [s["family"] for s in json.loads(out)["families"]
            if not s["pass"]] == ["A(1,0)"]
    code, out, _ = run(capsys, "report", "--max-m", "1", "--format",
                         "markdown")
    assert code == 1 and out.count("route deviation not computed") == 1


def test_nondegeneracy_gates_build_and_the_structural_gate(capsys,
                                                           monkeypatch):
    # a form whose checks all pass but its determinant, which reads 0: the
    # one failing axiom fails build and the report's structural gate
    def singular(form):
        return dataclasses.replace(form, report=dataclasses.replace(
            form.report, scaled_det=Fraction(0)))

    _with_form(monkeypatch, singular)
    code, out, _ = run(capsys, "build", *A10)
    flags = json.loads(out)["canonical_form"]["flags"]
    assert code == 1
    assert flags == {"even": True, "supersymmetric": True,
                     "bi_invariant": True, "nondegenerate": False}
    section, notes = cli.report_section(
        families.family_spec("A", 1, 0), cli.DEFAULT_SEED, 0,
        einstein.C_WINDOW)
    assert section["pass"] is False
    assert notes[-1] == ("note: A(1,0): failed structural, "
                         "route_equivalence, solutions")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_solution_count_against_the_single_metric_claim(capsys, command):
    # A(9,8) is claimed to have exactly one Einstein metric; the grid
    # solver finds it twice, c = -0.2499999995 and -0.2499998047
    code, out, err = run(capsys, command, "--family", "A", "--m", "9",
                         "--n", "8")
    assert code == 0 and len(json.loads(out)["solutions"]) == 2
    assert err == ("note: A(9,8): 2 solutions found, but the family has "
                   "exactly one Einstein metric\n")
    # the claim is about the family: solutions --cmax leaves out count
    code, out, err = run(capsys, command, "--family", "A", "--m", "9",
                         "--n", "8", "--cmax", "0.1")
    assert code == 0 and json.loads(out)["solutions"] == []
    assert err.splitlines()[-1] == ("note: A(9,8): 2 solutions found, but "
                                    "the family has exactly one Einstein "
                                    "metric")
    code, out, err = run(capsys, command, *A10)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["solutions"]) == 1


def test_solution_count_against_the_claim_of_two(capsys, monkeypatch):
    # B(1,1) is claimed to have at least two Einstein metrics: a solver that
    # found one of them is noted, and the exit code does not change
    inner = einstein.solve
    monkeypatch.setattr(einstein, "solve",
                        lambda *args, **kwargs: inner(*args, **kwargs)[:1])
    code, out, err = run(capsys, "solve", "--family", "B", "--m", "1",
                         "--n", "1")
    assert code == 0 and len(json.loads(out)["solutions"]) == 1
    assert err == ("note: B(1,1): 1 solution found, but the family has at "
                   "least two Einstein metrics\n")


class TestSolveReadsTheRecordAlone:
    """``solve`` is the equation layer: it never realizes a family, and it
    prints ``einstein.solve``'s solutions for any family, at any size, each
    marked ``not_applicable``."""

    @pytest.fixture(autouse=True)
    def no_realization(self, monkeypatch):
        def refused(spec):
            raise AssertionError(f"{spec.name} was realized")

        monkeypatch.setattr(cli, "realize", refused)

    @staticmethod
    def printed(capsys, argv, spec):
        code, out, _ = run(capsys, *argv)
        assert code == 0, spec.name
        sols = json.loads(out)["solutions"]
        assert [(s["x"], s["c"], s["residual"]) for s in sols] == \
            [(list(s.x), s.c, s.residual) for s in einstein.solve(spec.data)]
        assert all(s["ricci_verified"] == "not_applicable" for s in sols)

    def test_every_catalog_family(self, capsys, monkeypatch):
        for spec in [*families.iter_catalog(6)] + [
                families.family_spec("D21a", alpha=a) for a in (0.4, 2.5, -3.0)]:
            monkeypatch.setattr(cli, "_spec_from_args",
                                lambda args, spec=spec: spec)
            self.printed(capsys, ("solve", *A10), spec)

    def test_family_over_the_dense_bound(self, capsys):
        # D(19,20), dim 3,043, is over the dense bound that refuses its
        # build; its system solves in milliseconds
        self.printed(capsys, ("solve", "--family", "D", "--m", "19",
                              "--n", "20"), families.family_spec("D", 19, 20))


def test_killing_zero_read_from_the_exact_sums(monkeypatch):
    # a Killing form whose one entry, 1e-12, lies below every float
    # tolerance is still not identically zero
    v = Fraction(1, 10**6)
    alg = supercore.LieSuperAlgebra(
        supercore.SuperBasis((0, 0)), {(0, 1, 1): v, (1, 0, 1): -v},
        (supercore.DecompositionRange(0, 2, "abelian"),))
    k = supercore.killing_form(alg)
    monkeypatch.setattr(cli, "verify_realization",
                        lambda real: ({"pass": True}, []))
    st = cli._structural(SimpleNamespace(algebra=alg, canonical_form=k,
                                         killing=k, matrices=None))
    assert st["killing_max_entry"] == 1e-12
    assert st["killing_identically_zero"] is False


def test_quartic_roots_match_solutions_by_distance(monkeypatch):
    # a root and a solution 6e-12 apart straddle an 8-digit rounding
    # boundary: rounded, they are 0.1234568 and 0.12345679, 1.0000000009e-8
    # apart, which is not below the 1e-8 match
    spec = families.family_spec("B", 1, 1)
    ref = einstein.cubic_reference_coefficients(spec)

    def bijection(roots, x1s):
        monkeypatch.setattr(einstein, "real_roots", lambda quartic: roots)
        sols = [SimpleNamespace(x=(x1,)) for x1 in x1s]
        return cli._quartic_section(spec, ref, sols)["root_solution_bijection"]

    assert bijection([0.123456795003], [0.123456794997]) is True
    # roots, and solutions, closer than 1e-8 are one; 2e-8 apart are two
    assert bijection([0.5, 0.5 + 5e-9], [0.5 + 2e-9]) is True
    assert bijection([0.5], [0.5, 0.5 + 2e-8]) is False
    assert bijection([0.5, 0.5 + 2e-8], [0.5, 0.5 + 2e-8]) is True
    assert bijection([0.5, 1e-10], [0.5]) is True  # the zero root is left out


B11 = ("--family", "B", "--m", "1", "--n", "1")
FAILED_NOTE = re.compile(r"note: B\(1,1\): solution c=(\S+) failed Ricci "
                         r"verification: (direct|closed_form) route deviates "
                         r"\S+ at (k\d|odd) x (k\d|odd)")


class TestFailedSolutionNotes:
    """Every solution that fails Ricci verification is named on stderr with
    its worst offender, here with the verification tolerance at 1e-30."""

    @pytest.fixture(autouse=True)
    def failing_verification(self, monkeypatch):
        monkeypatch.setattr(einstein, "RICCI_TOL", 1e-30)

    def test_verify_notes_each_failed_solution(self, capsys):
        code, out, err = run(capsys, "verify", *B11)
        assert code == 1
        failed = [s for s in json.loads(out)["solutions"]
                  if s["ricci_verified"] == "failed"]
        assert failed  # an exact solution can still pass at 1e-30
        notes = [FAILED_NOTE.fullmatch(line) for line in err.splitlines()]
        assert all(notes)
        assert [note.group(1) for note in notes] == \
            [f"{s['c']:.10g}" for s in failed]

    def test_report_section_returns_the_same_notes(self, capsys):
        _, _, err = run(capsys, "verify", *B11)
        section, notes = cli.report_section(families.family_spec("B", 1, 1),
                                            cli.DEFAULT_SEED, 0,
                                            einstein.C_WINDOW)
        assert section["pass"] is False
        assert err and notes == err.splitlines() + [
            "note: B(1,1): failed solutions"]


@pytest.mark.parametrize("cpus,workers", [(64, 7), (3, 3), (1, None)])
def test_report_pool_capped_by_sections_and_cpus(capsys, monkeypatch, cpus,
                                                 workers):
    # the seven m = 1 sections run on no more workers than there are
    # sections or CPUs, and on none at all for one CPU
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)  # run in this process: nothing is forked

    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out, _ = run(capsys, "report", "--max-m", "1", "--jobs", "1000000")
    assert code == 0 and len(json.loads(out)["families"]) == 7
    assert started == ([] if workers is None else [workers])


def test_import_leaves_out_the_process_pool():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); "
             "import supereinstein.cli; print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_report_leaves_out_numpy_random(tmp_path):
    # the route draws come from the standard library's generator; numpy's
    # costs 5 MB of RSS when first imported
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); "
             "from supereinstein import cli; "
             "code = cli.main(['report', '--max-m', '1', '--out', sys.argv[1]]); "
             "print(code, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, tmp_path / "r.json"],
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 False\n"


def _traced_write(doc, target) -> int:
    """The traced peak of writing ``doc`` to ``target``, in bytes."""
    tracemalloc.start()
    try:
        cli._emit_json(doc, target)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _build_doc(spec) -> dict:
    real = families.realize(spec)
    return {"algebra": supercore.algebra_to_json(real.algebra),
            "canonical_form": supercore.form_to_json(real.canonical_form)}


def test_json_written_without_holding_its_text(tmp_path):
    # B(4,4)'s algebra and form are 627,226 bytes of JSON, their arrays
    # written a block of rows at a time (57 kB traced)
    doc = _build_doc(families.family_spec("B", 4, 4))
    target = tmp_path / "b44.json"
    peak = _traced_write(doc, target)
    assert target.read_text() == \
        json.dumps(doc, indent=2, default=np.ndarray.tolist) + "\n"
    assert peak < target.stat().st_size / 6


def test_json_peak_does_not_grow_with_the_arrays(tmp_path):
    # A(20,0), dim 483: its Gram alone as nested lists of floats is about
    # 6 MB; its 5.1 MB document is written at 83 kB traced
    doc = _build_doc(families.family_spec("A", 20, 0))
    target = tmp_path / "a20.json"
    assert _traced_write(doc, target) < 2**20 < target.stat().st_size / 4


_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf,
                     "\u00e9\u4e2d\U0001f600", "\"\\/\b\f\n\r\t\x00\x1f\x7f"]))
_JSON_ARRAY = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                            min_side=0, max_side=4)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2,
                                          min_side=0, max_side=4)),
    # records, as ``algebra_to_json`` gives its triplets
    st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.floats()),
             max_size=5).map(lambda rows: np.array(rows, dtype="i8, f8")))
_JSON_TREE = st.recursive(
    _JSON_SCALAR | _JSON_ARRAY,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4) | st.integers() | st.floats()
                      | st.booleans() | st.none(), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None, database=None)
@given(doc=_JSON_TREE)
def test_json_text_is_the_reference_encoders(doc):
    # empty containers at any depth, scalars of every kind inside flat
    # lists, dict keys that json names by their scalar text (1, 1.5, true,
    # null), and arrays, whose reference text is that of their lists
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(doc, None)
    assert out.getvalue() == \
        json.dumps(doc, indent=2, default=np.ndarray.tolist) + "\n"


@pytest.mark.parametrize("spec", [s for s in families.catalog(2)
                                  if s.realizable], ids=lambda s: s.name)
def test_build_text_is_the_former_lists(capsys, monkeypatch, spec):
    # the arrays of ``build`` give the text of the nested Python lists it
    # printed before: triplets with Python's int quotient and Gram rows of
    # floats
    docs = []
    emit = cli._emit_json
    monkeypatch.setattr(cli, "_emit_json",
                        lambda doc, out: emit(docs.append(doc) or doc, out))
    monkeypatch.setattr(cli, "_spec_from_args", lambda args: spec)
    code, out, _ = run(capsys, "build", "--family", "A", "--m", "1",
                       "--n", "0")
    assert code == 0
    (doc,), alg = docs, families.realize(spec).algebra
    doc["algebra"]["c"] = [[i, j, k, v / alg.denom, 0.0] for (i, j, k), v
                           in zip(alg.index.tolist(), alg.numer.tolist())]
    gram = doc["canonical_form"]["gram"]
    doc["canonical_form"]["gram"] = [[float(v) for v in row] for row in gram]
    assert out == json.dumps(doc, indent=2) + "\n"
