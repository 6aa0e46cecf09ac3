"""Self-tests of the benchmark harness: tracing and the golden comparator.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import copy
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def package_modules():
    """The loaded supereinstein modules, restored after the test."""
    import supereinstein.cli  # noqa: F401  (loads every module)

    modules = [m for name, m in list(sys.modules.items())
               if name == "supereinstein" or name.startswith("supereinstein.")]
    saved = [(m, dict(vars(m))) for m in modules]
    yield modules
    for module, attrs in saved:
        for attr, value in attrs.items():
            setattr(module, attr, value)


def test_self_time_subtracts_direct_children_only():
    spans = [["a.root", 0.0, 10.0, None, "op"],
             ["a.child", 1.0, 5.0, 0, "op"],
             ["b.grandchild", 2.0, 3.0, 1, "op"],
             ["b.child2", 6.0, 8.0, 0, "op"]]
    assert tracer.self_times(spans) == [4.0, 3.0, 1.0, 2.0]
    totals = tracer.layer_totals([{"spans": spans, "counts": {"n": 2}},
                                  {"spans": spans[:1], "counts": {"n": 3}}])
    assert totals["a.root.calls"] == 2
    assert totals["a.root.self_s"] == 14.0
    assert totals["b.child2.self_s"] == 2.0
    assert totals["n"] == 5


def test_killing_form_self_time_excludes_check_form(package_modules):
    from supereinstein import families, supercore

    real = families.realize(families.family_spec("B", m=1, n=1))
    t = tracer.Tracer("B(1,1)")
    tracer.install(t, tracer.layer_functions(), package_modules)
    supercore.killing_form(real.algebra)
    names = [s[0] for s in t.spans]
    outer = names.index("supercore.killing_form")
    inner = names.index("supercore.check_form")
    assert t.spans[inner][3] == outer
    selfs = tracer.self_times(t.spans)
    duration = t.spans[outer][2] - t.spans[outer][1]
    child = t.spans[inner][2] - t.spans[inner][1]
    assert selfs[outer] == pytest.approx(duration - child, abs=1e-12)
    assert 0.0 <= selfs[outer] < duration


def test_every_alias_is_wrapped(package_modules):
    from supereinstein import cli, supercore

    functions = tracer.layer_functions()
    originals = {id(fn) for fn in functions.values()}
    rebound = tracer.install(tracer.Tracer(), functions, package_modules)
    assert rebound > len(functions)  # several names are imported elsewhere
    for module in package_modules:
        for attr, obj in vars(module).items():
            assert id(obj) not in originals, f"{module.__name__}.{attr} not wrapped"
    assert cli.check_super_jacobi is supercore.check_super_jacobi
    assert cli.check_super_jacobi.__wrapped__ is functions["supercore.check_super_jacobi"]


def test_alias_calls_are_recorded():
    home = types.ModuleType("home")
    exec("def f(x):\n    return x + 1\n", home.__dict__)
    user = types.ModuleType("user")
    user.f = home.f
    user.g = home.f
    t = tracer.Tracer("op")
    assert tracer.install(t, {"home.f": home.f}, [home, user]) == 3
    assert user.g(1) == 2 and user.f(2) == 3 and home.f(3) == 4
    assert [s[0] for s in t.spans] == ["home.f"] * 3


@pytest.fixture(scope="module")
def report_golden():
    return golden.load("report-m3")["report"]["doc"]


def _section_with_solutions(doc, count):
    return next(s for s in doc["families"] if len(s["solutions"]) >= count)


def test_comparator_accepts_residual_change_under_gate(report_golden):
    section = copy.deepcopy(_section_with_solutions(report_golden, 2))
    golden_section = _section_with_solutions(report_golden, 2)
    section["solutions"][0]["residual"] = 9e-11
    section["structural"]["jacobi_residual"] = 4e-16
    section["structural"]["route_equivalence_max_deviation"] = 3e-9
    assert golden.compare(section, golden_section) == []
    section["solutions"][0]["residual"] = 2e-10
    assert golden.compare(section, golden_section) == ["$.solutions[0].residual"]


def test_comparator_rejects_shifted_c_and_dropped_solution(report_golden):
    golden_section = _section_with_solutions(report_golden, 2)
    shifted = copy.deepcopy(golden_section)
    shifted["solutions"][1]["c"] += 1e-6
    assert golden.compare(shifted, golden_section) == ["$.solutions[1].c"]
    dropped = copy.deepcopy(golden_section)
    dropped["solutions"].pop()
    assert golden.compare(dropped, golden_section) == ["$.solutions"]
    flag = copy.deepcopy(golden_section)
    flag["solutions"][0]["ricci_verified"] = "failed"
    assert golden.compare(flag, golden_section) == ["$.solutions[0].ricci_verified"]


def test_report_check_fails_only_the_wrong_section(report_golden):
    doc = copy.deepcopy(report_golden)
    doc["config"]["seed"] = 7
    assert not any(golden.check_report(doc, report_golden, seed=7))
    doc["families"][3]["solutions"][0]["x"][0] += 1e-6
    failures = golden.check_report(doc, report_golden, seed=7)
    assert [i for i, bad in enumerate(failures) if bad] == [3]
    assert all(golden.check_report(doc, report_golden, seed=8))
