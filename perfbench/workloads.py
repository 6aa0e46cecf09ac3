"""The benchmark's workloads: the CLI invocations each one makes.

Why each workload exists, and which layer each should and should not move,
is recorded in DESIGN.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Families spanning dims 12 to 144 and 84 to 4,464 nonzero structure constants.
LADDER = (
    ("B(1,1)", ("B", "--m", "1", "--n", "1")),
    ("B(2,2)", ("B", "--m", "2", "--n", "2")),
    ("A(3,2)", ("A", "--m", "3", "--n", "2")),
    ("D(3,2)", ("D", "--m", "3", "--n", "2")),
    ("B(3,3)", ("B", "--m", "3", "--n", "3")),
    ("D(4,3)", ("D", "--m", "4", "--n", "3")),
    ("B(4,4)", ("B", "--m", "4", "--n", "4")),
)
# Families that exist only as equation systems: no matrix realization.
EQUATION_ONLY = (
    ("G(3)", ("G3",)),
    ("F(4)", ("F4",)),
    ("D(2,1;2.5)", ("D21a", "--alpha", "2.5")),
)


@dataclass(frozen=True)
class Operation:
    name: str
    argv: tuple[str, ...]  # arguments of the supereinstein CLI


@dataclass(frozen=True)
class Workload:
    name: str
    golden: str       # name of the golden file its outputs are checked against
    report: bool      # one report process whose family sections are the operations


WORKLOADS = {w.name: w for w in (
    Workload("report-m3", "report-m3", True),
    Workload("build-ladder", "build-ladder", False),
    Workload("verify-ladder", "verify-ladder", False),
)}
GOLDEN_NAMES = ("report-m3", "build-ladder", "verify-ladder")


def operations(name: str, seed: int) -> list[Operation]:
    """The invocations of one pass of workload ``name``, made from ``seed``.

    A report gets a seed for its random route-equivalence draws; a ladder
    runs its families in an order shuffled by the seed.
    """
    rng = random.Random(seed)
    if name == "report-m3":
        draws_seed = str(rng.randrange(2 ** 31))
        return [Operation("report", ("report", "--max-m", "3", "--jobs", "1",
                                     "--seed", draws_seed))]
    if name == "build-ladder":
        ops = [Operation(f, ("build", "--family") + a) for f, a in LADDER]
    elif name == "verify-ladder":
        ops = [Operation(f, ("verify", "--family") + a)
               for f, a in LADDER + EQUATION_ONLY]
    else:
        raise KeyError(name)
    rng.shuffle(ops)
    return ops


def report_seed(op: Operation) -> int:
    return int(op.argv[op.argv.index("--seed") + 1])
