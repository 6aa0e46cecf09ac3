"""End-to-end benchmark of the supereinstein CLI.

One closed-loop client: each CLI process starts only after the previous one
has exited. A run repeats whole passes of the workload while the next pass
still fits in ``--seconds`` (at least one pass) and reports the median over
passes. Every output is checked against the goldens in ``golden/``.

    python3 perfbench/run.py --workload report-m3 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` every CLI process runs under ``tracer.py`` and it reports the
per-layer metrics. The last line of standard output is the result as JSON,
the line before it the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import golden
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Fresh processes that import the CLI, half before and half after the passes,
# so that set-up is sampled under the same load as the workload. One launch
# costs about 0.3 s, and more launches lengthen every run (see DESIGN.md).
SETUP_LAUNCHES = 20
# BLAS thread count of every CLI process. Two BLAS threads on a host of two
# shared vCPUs double an operation's time whenever another tenant takes one
# of them, so the benchmark runs all numpy work on one thread (see DESIGN.md).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Exited:
    """One finished process, with the rusage ``os.wait4`` returned for it.

    On Linux that rusage includes the children the process reaped.
    """

    code: int
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], out: Path, env: dict) -> Exited:
    """Run ``argv`` to completion, its standard output to ``out``."""
    with open(out, "wb") as fo, open(out.with_suffix(".err"), "wb") as fe:
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exited(proc.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def launch_setup(count: int, tmp: Path, env: dict) -> list[float]:
    """Wall times of ``count`` fresh processes that import the CLI and exit."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        done = spawn([sys.executable, "-c", "import supereinstein.cli"],
                     tmp / "setup.out", env)
        times.append(time.perf_counter() - start)
        if done.code != 0:
            raise SystemExit("error: importing supereinstein.cli failed: "
                             + (tmp / "setup.err").read_text())
    return times


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    wrong: int  # operations that exited as expected but printed a wrong result
    layers: dict


def run_pass(workload: workloads.Workload, seed: int, traced: bool,
             tmp: Path, env: dict) -> PassResult:
    ops = workloads.operations(workload.name, seed)
    exits = []
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if traced:
            argv = [sys.executable, str(Path(tracer.__file__)), "--spans",
                    str(tmp / f"{k}.spans"), "--op", op.name, "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "supereinstein.cli", *op.argv]
        exits.append(spawn(argv, tmp / f"{k}.out", env))
    wall = time.perf_counter() - start

    gold = golden.load(workload.golden)
    attempted = failed = wrong = 0
    for k, (op, done) in enumerate(zip(ops, exits)):
        expected = gold[op.name]
        n = len(expected["doc"]["families"]) if workload.report else 1
        attempted += n
        if done.code != expected["exit"]:
            failed += n
            err = (tmp / f"{k}.err").read_text(errors="replace").strip()
            print(f"{op.name}: exit {done.code}, expected {expected['exit']}: "
                  f"{err.splitlines()[-1] if err else ''}", file=sys.stderr)
            continue
        try:
            doc = json.loads((tmp / f"{k}.out").read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            failed += n
            print(f"{op.name}: output is not JSON", file=sys.stderr)
            continue
        if workload.report:
            per_op = golden.check_report(doc, expected["doc"], workloads.report_seed(op))
        else:
            per_op = [golden.compare(doc, expected["doc"])]
        for bad in per_op:
            if bad:
                failed += 1
                wrong += 1
                print(f"{op.name}: golden mismatch at {', '.join(bad[:5])}",
                      file=sys.stderr)

    layers = {}
    if traced:
        dumps = []
        for k in range(len(ops)):
            with open(tmp / f"{k}.spans", encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        layers = tracer.layer_totals(dumps)
        layers["trace.wall_s"] = wall
    return PassResult(wall, sum(e.cpu_s for e in exits),
                      max(e.rss_mb for e in exits), attempted, failed, wrong, layers)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def provenance(seed: int, env: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: env.get(k) for k in BLAS_THREADS},
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines(),
    }


def load_metrics(section: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "supereinstein" / "cli.py").is_file():
        print(f"error: no supereinstein sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    env = child_env()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
        tmp = Path(tmp_name)
        setup_times = [] if traced else launch_setup(SETUP_LAUNCHES // 2, tmp, env)
        passes: list[PassResult] = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            passes.append(run_pass(workload, args.seed, traced, tmp, env))
            now = time.perf_counter()
            if now + (now - began) > start + args.seconds:
                break
        if not traced:
            setup_times += launch_setup(SETUP_LAUNCHES - len(setup_times), tmp, env)

    def median(get) -> float:
        return statistics.median(get(p) for p in passes)

    metrics = load_metrics("per_layer" if traced else "end_to_end")
    units = {m["name"]: m["unit"] for m in metrics}
    if traced:
        values = {name: median(lambda p, n=name: p.layers.get(n, 0)) for name in units}
    else:
        values = {"wall_s": median(lambda p: p.wall_s),
                  "cpu_s": median(lambda p: p.cpu_s),
                  "peak_rss_mb": median(lambda p: p.peak_rss_mb),
                  "setup_s": statistics.median(setup_times)}
    result = {
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps({"provenance": dict(provenance(args.seed, env), passes=len(passes))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
