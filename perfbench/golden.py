"""Golden-output oracle: compare CLI JSON documents with captured goldens.

Rules, applied to every leaf of the document:

- strings (the rational data and flags such as ``ricci_verified``), integers,
  booleans and nulls must match exactly;
- a residual field is checked only against the gate the program applies to
  it: it must fall on the same side of the gate as the golden value. BLAS
  threading changes its last bits, so its value is not compared;
- ``jacobi_worst_triple`` is the location of the Jacobi residual's maximum
  and moves with those last bits: only its shape is checked;
- every other float (solution ``x`` and ``c``, structure constants, Gram
  entries) must match within ``FLOAT_TOL``, relative to max(1, |golden|);
- lists must have the same length, so a dropped solution fails, and objects
  the same keys.

Capture the goldens from the current program with::

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

FLOAT_TOL = 1e-9

# Residual field -> the gate the program applies to it.
GATES = {
    "jacobi_residual": 1e-12,                 # cli.STRUCT_TOL
    "bi_invariance_residual": 1e-10,          # cli.BIINV_TOL
    "bi_invariance": 1e-10,                   # cli.BIINV_TOL
    "evenness": 1e-10,                        # supercore.VERIFY_TOL
    "supersymmetry": 1e-10,                   # supercore.VERIFY_TOL
    "route_equivalence_max_deviation": 1e-8,  # report_section's route gate
    "residual": 1e-10,                        # einstein.SOLUTION_TOL
    "index_residual": 1e-9,                   # families.REALIZATION_MATCH_TOL
    "b_ratio_residual": 1e-9,                 # families.REALIZATION_MATCH_TOL
    "max_pair_gap": 1e-9,                     # einstein.FOLD_TOL
}
SHAPE_ONLY = {"jacobi_worst_triple"}


def compare(actual, golden, path: str = "$") -> list[str]:
    """Paths at which ``actual`` departs from ``golden``; empty when it matches."""
    key = path.rsplit(".", 1)[-1]
    if key in SHAPE_ONLY:
        ok = (isinstance(actual, list) and len(actual) == len(golden)
              and all(isinstance(v, int) and not isinstance(v, bool) for v in actual))
        return [] if ok else [path]
    if key in GATES and isinstance(golden, float):
        if not _is_float(actual) or not math.isfinite(actual):
            return [path]
        gate = GATES[key]
        return [] if (actual < gate) == (golden < gate) else [path]
    if isinstance(golden, dict):
        if not isinstance(actual, dict) or actual.keys() != golden.keys():
            return [path]
        return [bad for k in golden for bad in compare(actual[k], golden[k], f"{path}.{k}")]
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return [path]
        return [bad for i, (a, g) in enumerate(zip(actual, golden))
                for bad in compare(a, g, f"{path}[{i}]")]
    if isinstance(golden, float):
        ok = (_is_float(actual) and math.isfinite(actual)
              and abs(actual - golden) <= FLOAT_TOL * max(1.0, abs(golden)))
        return [] if ok else [path]
    ok = type(actual) is type(golden) and actual == golden
    return [] if ok else [path]


def _is_float(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load(workload: str) -> dict:
    """The golden of a workload: ``{op name: {"exit": code, "doc": document}}``."""
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_report(doc, golden_doc: dict, seed: int) -> list[list[str]]:
    """Mismatches of a report, one list per family section of the golden.

    A mismatch outside the sections (config, summary or the document's
    shape) fails every section.
    """
    n = len(golden_doc["families"])
    if not isinstance(doc, dict) or not isinstance(doc.get("families"), list):
        return [["$"]] * n
    expected = dict(golden_doc, config=dict(golden_doc["config"], seed=seed))
    top = [bad for k in ("config", "summary")
           for bad in compare(doc.get(k), expected[k], f"$.{k}")]
    if doc.keys() != expected.keys() or len(doc["families"]) != n:
        top.append("$")
    sections = doc["families"] + [None] * (n - len(doc["families"]))
    return [top + compare(a, g, f"$.families[{i}]")
            for i, (a, g) in enumerate(zip(sections, expected["families"]))]


def _run_captured(argv: list[str]) -> tuple[int, dict]:
    from supereinstein import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def capture() -> None:
    """Write the goldens of every workload from the program on PYTHONPATH.

    ``build`` on A(m,n) with n > 0 cannot serialize the numpy integers in
    ``jacobi_worst_triple`` and exits 1. The golden records what the command
    should print, so numpy integers are encoded as ints while capturing.
    """
    import numpy as np

    base_default = json.JSONEncoder.default

    def default(self, o):
        return int(o) if isinstance(o, np.integer) else base_default(self, o)

    json.JSONEncoder.default = default
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in workloads.GOLDEN_NAMES:
        ops = workloads.operations(name, seed=0)
        golden = {}
        for op in ops:
            code, doc = _run_captured(list(op.argv))
            golden[op.name] = {"exit": code, "doc": doc}
            print(f"{name}: {op.name} exit {code}", file=sys.stderr)
        with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(golden, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    capture()
