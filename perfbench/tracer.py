"""Outside-in span tracing of the supereinstein modules.

The tracer wraps the layer-boundary functions listed in ``LAYERS`` from the
outside; nothing in the package changes. Modules import each other's names
with ``from .x import y``, so one function object can be bound under several
module attributes (``cli.check_super_jacobi`` and
``supercore.check_super_jacobi``); every such attribute is replaced, or calls
made through an alias would go unseen.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (or None) and ``op`` the operation it belongs to. Spans stay in
memory and are written as JSON when the traced process exits.

Run one CLI command traced (``src`` must be on PYTHONPATH)::

    python3 perfbench/tracer.py --spans spans.json --op 'B(1,1)' -- \
        build --family B --m 1 --n 1
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time

PACKAGE = "supereinstein"

# The layer boundaries: the functions wrapped, per module. Functions not
# listed count toward the listed one that calls them, so ``realize`` includes
# the ``build_*`` constructors and ``solve`` its residual evaluations, and
# ``cli.main`` keeps argument parsing, JSON encoding and output.
LAYERS = {
    "families": ("realize",),
    "supercore": ("check_super_jacobi", "killing_form", "check_form"),
    "invariants": ("representation_index", "b_ratio", "casimir_on_odd"),
    "curvature": ("levi_civita_koszul", "levi_civita_blockwise", "ricci_direct",
                  "ricci_closed_form"),
    "einstein": ("solve", "verify_solution", "elimination_polynomial", "real_roots"),
    "cli": ("report_section", "main"),
}

# Every call of this function is one operation of a report: one family section.
SECTION = "cli.report_section"

# Counts taken from a wrapped function's return value.
RESULT_COUNTS = {
    "einstein.solve": ("einstein.solve.solutions", len),
    "einstein.verify_solution": ("einstein.verify_solution.verified",
                                 lambda sol: int(sol.ricci_verified == "verified")),
}


class Tracer:
    """Records spans and counts for the functions it wraps."""

    def __init__(self, op: str = "op"):
        self.op = op
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._sections = 0

    def wrap(self, name: str, fn):
        self.originals[name] = fn
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if name == SECTION:
                op = f"{self.op}/{self._sections}"
                self._sections += 1
            else:
                op = self.op if parent is None else self.spans[parent][4]
            span = [name, 0.0, 0.0, parent, op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[count[0]] = self.counts.get(count[0], 0) + count[1](result)
            return result

        return traced

    def dump(self) -> dict:
        """Spans and counts, with cache misses of every wrapped cached function."""
        counts = dict(self.counts)
        for name, fn in self.originals.items():
            if hasattr(fn, "cache_info"):
                counts[f"{name}.misses"] = fn.cache_info().misses
        return {"op": self.op, "spans": self.spans, "counts": counts}


def layer_functions(package: str = PACKAGE) -> dict:
    """``{span name: function}`` for every layer boundary in ``LAYERS``."""
    return {f"{module}.{fn}": getattr(importlib.import_module(f"{package}.{module}"), fn)
            for module, names in LAYERS.items() for fn in names}


def install(tracer: Tracer, functions: dict, namespaces) -> int:
    """Wrap ``functions`` (``{span name: function}``) and rebind to its
    wrapper every attribute of every module in ``namespaces`` that is bound
    to one of them. Returns the number of attributes rebound."""
    wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in functions.items()}
    rebound = 0
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
                rebound += 1
    return rebound


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_totals(dumps) -> dict[str, float]:
    """Per function ``<name>.self_s`` and ``<name>.calls``, and the summed
    counts, over several dumps."""
    totals: dict[str, float] = {}
    for dump in dumps:
        spans = dump["spans"]
        for span, self_s in zip(spans, self_times(spans)):
            name = span[0]
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + self_s
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        for key, value in dump["counts"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="JSON file written at exit")
    parser.add_argument("--op", required=True, help="operation id of this process")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.op)
    functions = layer_functions()
    install(tracer, functions, [m for name, m in list(sys.modules.items())
                                if name == PACKAGE or name.startswith(PACKAGE + ".")])
    cli = sys.modules[f"{PACKAGE}.cli"]
    try:
        return cli.main(cli_args)
    finally:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
