"""The command-line front end, driven through ``cli.main``: the solution
tables of ``solve`` and ``report``, the input contract (exit code 2 and a
one-line error), the ``--cmax`` filter, and the ``build`` and ``indices``
outputs."""

import csv
import io
import json

import pytest

from supereinstein import cli, einstein


@pytest.fixture(scope="module")
def report_m1():
    """The ``report --max-m 1`` document, built once for the module."""
    return cli.build_report(1, 1, cli.DEFAULT_SEED, einstein.C_WINDOW,
                            cli.DEFAULT_TOL)


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
        _, report_out, _ = run(capsys, "report", "--max-m", "1",
                               "--format", "csv")
        code, solve_out, _ = run(capsys, "solve", "--family", *family,
                                 "--format", "csv")
        assert code == 0
        header, *solve_rows = csv_rows(solve_out)
        assert header == cli.CSV_COLUMNS and solve_rows
        name = solve_rows[0][0]
        assert [r for r in csv_rows(report_out)[1:] if r[0] == name] == solve_rows


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
        ("build", "--family", "A", "--m", "40", "--n", "0"),
    ], ids=" ".join)
    def test_rejected_with_one_line_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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


    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_report_notes_omitted_per_family(self, capsys, jobs):
        code, out, err = run(capsys, "report", "--max-m", "1", "--cmax", "0.2",
                             "--jobs", jobs)
        assert code == 1  # A(1,0) loses its only solution, so its count fails
        assert "note: G(3): 1 solution(s) with |c| > 0.2 omitted by --cmax" \
            in err.splitlines()
        sections = json.loads(out)["families"]
        noted = [line.split(": ")[1] for line in err.splitlines()]
        assert noted == [s["family"] for s in sections if s["family"] in noted]
        assert all(abs(sol["c"]) <= 0.2 for s in sections for sol in s["solutions"])


class TestOutputs:
    def test_build_with_nonzero_float_jacobi_residual(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "A", "--m", "2",
                           "--n", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "A(2,0)"
        assert all(type(v) is int
                   for v in doc["verification"]["jacobi_worst_triple"])

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
