"""The benchmark's behaviour oracle in the test suite: every golden workload
of ``perfbench/`` replayed in-process at seed 0, each operation's exit code
and document checked with perfbench's own comparator."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import golden  # noqa: E402
import workloads  # noqa: E402

from supereinstein import cli  # noqa: E402


@pytest.mark.parametrize("name", workloads.GOLDEN_NAMES)
def test_workload_matches_its_golden(capsys, name):
    workload = workloads.WORKLOADS[name]
    gold = golden.load(workload.golden)
    ops = workloads.operations(name, seed=0)
    assert sorted(op.name for op in ops) == sorted(gold)
    for op in ops:
        expected = gold[op.name]
        code = cli.main(list(op.argv))
        doc = json.loads(capsys.readouterr().out)
        assert code == expected["exit"], op.name
        if workload.report:
            mismatches = golden.check_report(doc, expected["doc"],
                                             workloads.report_seed(op))
        else:
            mismatches = [golden.compare(doc, expected["doc"])]
        assert not any(mismatches), (op.name, mismatches)
