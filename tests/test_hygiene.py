"""Source hygiene of the package, checked with the standard-library ``ast``:
no module-level import goes unused, no module-level private function or
constant and no public definition or method is left without a reference
anywhere in the package (``__all__`` counts as one), no module calls
``einsum`` or ``np.outer``, the front end compares no family kind, only
the catalog makes family records inside ``families``, and nothing calls
``np.linalg`` or a numpy wrapper of LAPACK (``np.roots``, ``np.polyfit``,
``np.poly``): one exact inverse serves the basis coordinates, the form
checks, the Casimir duals and the curvature plan, and real roots are
isolated exactly. One function writes JSON, and only it reads a form's
dense Gram; no row array reaches ``json.dumps``. Only the solver compares a
residual with ``SOLUTION_TOL``. Every ordering is ``supercore._order``, one
default int64 ``argsort``: nothing else calls ``argsort``, ``np.unique``,
``np.sort``, ``np.lexsort`` or a ``.sort(`` method, and the commands run
with the three numpy functions made to raise."""

import ast
import functools
import json
from pathlib import Path

import numpy as np
import pytest

from supereinstein import cli, families, supercore

SRC = Path(__file__).resolve().parents[1] / "src" / "supereinstein"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree: ast.AST) -> set:
    """Names read in ``tree``, attribute names, and ``__all__`` strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def _module_definitions(tree: ast.Module) -> set:
    """Module-level functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _private_definitions(tree: ast.Module) -> set:
    return {n for n in _module_definitions(tree)
            if n.startswith("_") and not n.startswith("__")}


def _public_definitions(tree: ast.Module) -> set:
    """Public module-level definitions and public methods of module-level
    classes."""
    methods = {f.name for node in tree.body if isinstance(node, ast.ClassDef)
               for f in node.body if isinstance(f, ast.FunctionDef)}
    return {n for n in _module_definitions(tree) | methods
            if not n.startswith("_")}


@functools.cache
def _package_references() -> frozenset:
    """Every name read anywhere in the package, plus every name imported
    from one of its modules."""
    names = set()
    for path in MODULES:
        tree = _tree(path)
        names |= _loaded_names(tree)
        names |= {a.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for a in node.names}
    return frozenset(names)  # cached: parsed once for every test


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    assert sorted(_imported_names(tree) - _loaded_names(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_definitions(path):
    assert sorted(_private_definitions(_tree(path)) - _package_references()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_public_definitions(path):
    # read somewhere in the package, or exported by ``__all__``
    assert sorted(_public_definitions(_tree(path)) - _package_references()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_einsum(path):
    # every structure-constant contraction is a sparse join; a dense einsum
    # over the constants would bring an (n, n, n) array back
    assert "einsum" not in _loaded_names(_tree(path))


def _kind_comparisons(tree: ast.AST) -> list:
    """Line numbers of the comparisons with a ``.kind`` attribute operand."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(isinstance(op, ast.Attribute) and op.attr == "kind"
                    for op in [node.left, *node.comparators])]


def test_cli_asks_the_family_record_not_its_kind():
    # every per-family question the front end asks is answered by a field of
    # the family's record, stated once where the record is made
    assert _kind_comparisons(_tree(SRC / "cli.py")) == []


def _call_sites(tree: ast.AST, name: str) -> list:
    """The calls in ``tree`` of ``name``, a name or a dotted attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func) == name]


# numpy functions outside ``numpy.linalg`` that call LAPACK: ``roots``
# takes the eigenvalues of a companion matrix, ``polyfit`` solves a least
# squares problem and ``poly`` takes a square matrix's eigenvalues
LAPACK_WRAPPERS = {"roots", "polyfit", "poly"}


def _linalg_sites(tree: ast.AST) -> list:
    """Line numbers of the uses of a ``linalg`` module or of a numpy
    wrapper of LAPACK: every attribute ``linalg`` (so every
    ``np.linalg.*`` call), every ``np.`` or ``numpy.`` attribute in
    ``LAPACK_WRAPPERS``, and every import that names one of them (so every
    alias)."""
    def names_one(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "linalg" or (
                node.attr in LAPACK_WRAPPERS
                and ast.unparse(node.value) in ("np", "numpy"))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return "linalg" in ast.unparse(node) or (
                isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(a.name in LAPACK_WRAPPERS for a in node.names))
        return False

    return sorted(node.lineno for node in ast.walk(tree) if names_one(node))


def _functions(tree: ast.Module) -> list:
    """The module-level functions of ``tree`` and its classes' methods, as
    ``(label, node)``, a method labelled ``Class.method``."""
    functions = [(fn.name, fn) for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)]
    return functions + [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                        if isinstance(cls, ast.ClassDef) for fn in cls.body
                        if isinstance(fn, ast.FunctionDef)]


def _callers(tree: ast.Module, name: str) -> set:
    """The module-level functions of ``tree`` that call ``name``, and its
    classes' methods that do, as ``Class.method``."""
    return {label for label, fn in _functions(tree) if _call_sites(fn, name)}


def _readers(tree: ast.Module, attr: str) -> set:
    """The functions and methods of ``tree`` that read an attribute
    ``attr``, labelled as by :func:`_functions`, and ``<module>`` when a
    statement outside them reads one."""
    def reads(node):
        return any(isinstance(n, ast.Attribute) and n.attr == attr
                   and isinstance(n.ctx, ast.Load) for n in ast.walk(node))

    inside = _functions(tree)
    nodes = {id(fn) for _, fn in inside}
    classes = [cls for cls in tree.body if isinstance(cls, ast.ClassDef)]
    rest = [node for node in tree.body if not isinstance(node, ast.ClassDef)
            and id(node) not in nodes]
    rest += [node for cls in classes for node in cls.body
             if id(node) not in nodes]
    found = {label for label, fn in inside if reads(fn)}
    return found | ({"<module>"} if any(map(reads, rest)) else set())


def test_only_the_catalog_makes_family_records():
    # a realization carries the record it is given; nothing in families
    # rebuilds one from a basis function's integers
    assert _callers(_tree(SRC / "families.py"), "family_spec") <= \
        {"iter_catalog", "family_spec"}


def test_only_the_form_itself_inverts_a_form():
    # no np.linalg call and no LAPACK wrapper is left: real roots are
    # isolated by Sturm sequences, every metric of a family is g = D B, so
    # g^-1 = B^-1 D^-1, and the one exact inverse of B, kept with B, serves
    # every metric, the dual bases of the Casimir operators and B's own
    # nondegeneracy check; the same kernel gives the coordinates of a
    # matrix basis
    for path in MODULES:
        assert _linalg_sites(_tree(path)) == [], path.name
    callers = {(path.name, fn) for path in MODULES for name in
               ("exact_inverse", "_eliminate", "_int64_inverse")
               for fn in _callers(_tree(path), name)}
    assert callers == {("supercore.py", "_coordinates"),
                       ("supercore.py", "exact_inverse"),
                       ("supercore.py", "BilinearFormMatrix._elimination"),
                       ("supercore.py", "BilinearFormMatrix.inverse")}


def test_only_the_build_output_reads_a_dense_gram():
    # a form is stored by its nonzeros; the dense Gram view is for build's
    # JSON alone, so the solve, verify and report paths never make one
    readers = {(path.name, label) for path in MODULES
               for label in _readers(_tree(path), "gram")}
    assert readers == {("supercore.py", "form_to_json")}


def _comparers(tree: ast.Module, name: str) -> set:
    """The functions and methods of ``tree``, labelled as by
    :func:`_functions`, with a comparison one of whose operands is the name
    or attribute ``name``; ``<module>`` for one outside them."""
    def compares(node):
        return any(isinstance(n, ast.Compare) and any(
            isinstance(op, ast.Name) and op.id == name
            or isinstance(op, ast.Attribute) and op.attr == name
            for op in [n.left, *n.comparators]) for n in ast.walk(node))

    inside = _functions(tree)
    found = {label for label, fn in inside if compares(fn)}
    nodes = {id(n) for _, fn in inside for n in ast.walk(fn)}
    rest = [n for n in ast.walk(tree)
            if isinstance(n, ast.Compare) and id(n) not in nodes]
    return found | ({"<module>"} if any(map(compares, rest)) else set())


# numpy's sorting functions other than ``argsort``, each a kernel of its own
NUMPY_SORTS = {"unique", "sort", "lexsort"}


def _ordering_sites(tree: ast.AST) -> list:
    """Line numbers of the orderings in ``tree``: every attribute or name
    ``argsort``, every ``np.`` or ``numpy.`` attribute in ``NUMPY_SORTS``,
    every other call of a ``.sort`` method, and every import that names one
    of them from numpy (so every alias)."""
    def numpy_attr(node):
        return ast.unparse(node.value) in ("np", "numpy")

    def names_one(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "argsort" or (node.attr in NUMPY_SORTS
                                              and numpy_attr(node))
        if isinstance(node, ast.Name):
            return node.id == "argsort"
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Attribute) \
                and node.func.attr == "sort" and not numpy_attr(node.func)
        return isinstance(node, ast.ImportFrom) and node.module == "numpy" \
            and any(a.name in NUMPY_SORTS | {"argsort"} for a in node.names)

    return sorted(node.lineno for node in ast.walk(tree) if names_one(node))


def test_one_ordering_kernel():
    # every join, grouping and distinct-key pass orders its keys through
    # supercore._order, and only it calls argsort: numpy's other sorts each
    # page in a kernel of their own
    sites = {(path.name, line) for path in MODULES
             for line in _ordering_sites(_tree(path))}
    order = next(fn for fn in _tree(SRC / "supercore.py").body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_order")
    assert sites and sites == {("supercore.py", line)
                               for line in _ordering_sites(order)}


@pytest.mark.parametrize("argv", [
    ("report", "--max-m", "2"),
    ("build", "--family", "B", "--m", "2", "--n", "2"),
    ("verify", "--family", "B", "--m", "2", "--n", "2"),
], ids=" ".join)
def test_commands_run_without_numpy_sorts(monkeypatch, capsys, argv):
    def refused(*args, **kwargs):
        raise AssertionError("a numpy sort other than the one kernel ran")

    for name in NUMPY_SORTS:
        monkeypatch.setattr(np, name, refused)
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out


def test_one_residual_gate():
    # the solver keeps only candidates whose residual is below
    # SOLUTION_TOL; a second gate on the residuals it returns could only
    # disagree with it. Outside einstein only the report's config reads the
    # constant, so no option or default can restate it either
    comparers = {(path.name, label) for path in MODULES
                 for label in _comparers(_tree(path), "SOLUTION_TOL")}
    assert comparers == {("einstein.py", "solve")}
    readers = {(path.name, label) for path in MODULES
               for label in _readers(_tree(path), "SOLUTION_TOL")}
    assert readers == {("cli.py", "build_report")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dense_outer_product(path):
    # a parity sign or mask over all index pairs is a block of the basis,
    # even indices first: a slice, not a dense (n, n) outer product
    assert _call_sites(_tree(path), "np.outer") == []


_JSON_WRITERS = ("json.dump", "json.dumps", "dumps", "json.JSONEncoder",
                 "JSONEncoder")


def _holds_row_array(value) -> bool:
    """Whether ``value`` is, or holds, a nonempty 2-D array or a nonempty
    1-D record array."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(map(_holds_row_array, value))
    return isinstance(value, np.ndarray) and value.size > 0 \
        and (value.ndim == 2 or value.dtype.names is not None)


def test_one_json_writer(monkeypatch, tmp_path):
    # every JSON document goes out through cli._emit_json, and no row array
    # reaches json.dumps: its rows go to the C encoder a block at a time
    sites = {(path.name, node.lineno) for path, tree in
             zip(MODULES, map(_tree, MODULES)) for name in _JSON_WRITERS
             for node in _call_sites(tree, name)}
    emit = next(fn for fn in _tree(SRC / "cli.py").body
                if isinstance(fn, ast.FunctionDef) and fn.name == "_emit_json")
    calls = [node for name in _JSON_WRITERS
             for node in _call_sites(emit, name)]
    assert calls and sites == {("cli.py", node.lineno) for node in calls}
    seen, dumps = [], json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda value, **kw:
                        seen.append(value) or dumps(value, **kw))
    real = families.realize(families.family_spec("B", 1, 1))
    records = np.array([(1, 2.5)], dtype="i8, f8")
    cli._emit_json({"algebra": supercore.algebra_to_json(real.algebra),
                    "forms": [supercore.form_to_json(real.canonical_form),
                              (np.eye(2), {1.5: records}), np.arange(3)]},
                   tmp_path / "doc.json")
    assert seen and not any(map(_holds_row_array, seen))


def test_checks_catch_what_they_look_for():
    tree = ast.parse("from typing import Callable, Optional\n"
                     "import numpy as np\n"
                     "_DEAD = 1\n"
                     "def _helper(x: Optional[int]):\n"
                     "    return np.abs(x)\n")
    assert _imported_names(tree) - _loaded_names(tree) == {"Callable"}
    assert _private_definitions(tree) - _loaded_names(tree) == {"_DEAD", "_helper"}
    tree = ast.parse("class Basis:\n"
                     "    def used(self):\n"
                     "        return self.size\n"
                     "    def unused(self):\n"
                     "        return self.used()\n"
                     "LIMIT = 3\n")
    assert _public_definitions(tree) - _loaded_names(tree) == \
        {"Basis", "LIMIT", "unused"}
    tree = ast.parse("if spec.kind in ('A', 'F4'):\n"
                     "    single = True\n"
                     "ok = 'B' == spec.kind or spec.kind_count > 1\n"
                     "name = spec.kind\n")
    assert _kind_comparisons(tree) == [1, 3]
    tree = ast.parse("def catalog():\n"
                     "    return [family_spec('C', n=3)]\n"
                     "def _osp_basis(l, k):\n"
                     "    return family_spec('B', (l - 1) // 2, k // 2)\n")
    assert _callers(tree, "family_spec") == {"catalog", "_osp_basis"}
    tree = ast.parse("def plan(g):\n"
                     "    return np.linalg.inv(g)\n"
                     "def metric(g, d):\n"
                     "    return np.linalg.solve(g, d), np.linalg.inv(d * g)\n"
                     "class Form:\n"
                     "    def inverse(self):\n"
                     "        return np.linalg.inv(self.gram)\n")
    assert len(_call_sites(tree, "np.linalg.inv")) == 3
    assert _callers(tree, "np.linalg.inv") == {"plan", "metric",
                                               "Form.inverse"}
    assert _linalg_sites(tree) == [2, 4, 4, 7]
    tree = ast.parse("import numpy.linalg\n"
                     "from numpy.linalg import slogdet\n"
                     "from numpy import linalg as la\n"
                     "sign, logdet = np.linalg.slogdet(g)\n"
                     "lu = scipy.linalg.lu\n"
                     "detail = np.asarray(g)\n")
    assert _linalg_sites(tree) == [1, 2, 3, 4, 5]
    tree = ast.parse("roots = np.roots(coeffs)\n"
                     "fit = numpy.polyfit(x, y, 2)\n"
                     "from numpy import poly as char_poly\n"
                     "value = np.polyval(coeffs, x)\n"
                     "roots = real_roots(coeffs)\n")
    assert _linalg_sites(tree) == [1, 2, 3]
    tree = ast.parse("LIMIT = form.gram.size\n"
                     "def to_json(form):\n"
                     "    return {'gram': form.gram}\n"
                     "class Form:\n"
                     "    gram = None\n"
                     "    def scale(self):\n"
                     "        return abs(self.gram).max()\n"
                     "    def store(self, g):\n"
                     "        self.gram = g\n")
    assert _readers(tree, "gram") == {"<module>", "to_json", "Form.scale"}
    tree = ast.parse("TOL = 1e-10\n"
                     "ok = res < TOL\n"
                     "def solve(res):\n"
                     "    return [r for r in res if r < TOL]\n"
                     "def gate(s, tol=einstein.TOL):\n"
                     "    return tol >= s.residual\n"
                     "def report(s):\n"
                     "    return {'tol': einstein.TOL, 'ok': s.ok}\n"
                     "class Run:\n"
                     "    def check(self, s):\n"
                     "        return not einstein.TOL > s.residual\n")
    assert _comparers(tree, "TOL") == {"<module>", "solve", "Run.check"}
    tree = ast.parse("def sign(p):\n"
                     "    return 1.0 - 2.0 * np.outer(p, p)\n"
                     "def mixed(p, np):\n"
                     "    return np.subtract.outer(p, p), np.outer\n")
    assert [node.lineno for node in _call_sites(tree, "np.outer")] == [2]
    tree = ast.parse("from numpy import lexsort as by_columns\n"
                     "keys = np.unique(a, return_inverse=True)\n"
                     "order = np.argsort(a, kind='stable')\n"
                     "a.sort()\n"
                     "b = numpy.sort(a)\n"
                     "perm = a.argsort()\n"
                     "at = np.searchsorted(a, v)\n"
                     "best = sorted(v, key=abs)\n"
                     "rows.sort(key=len)\n"
                     "kind = np.sort_complex\n")
    assert _ordering_sites(tree) == [1, 2, 3, 4, 5, 6, 9]
