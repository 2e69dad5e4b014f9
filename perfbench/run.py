"""Benchmark of the oversmooth CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round runs the workload's CLI
invocation in a fresh process (perfbench/child.py, oversmooth imported
from ./src) with BLAS pinned to one thread.  With --trace 0, rounds
repeat while another one fits in the first 85% of S seconds, then
set-up probes (the same invocation, stopped at its first layer step)
fill the rest; each runs at least once.  The last line of stdout is a
JSON object with the medians of the end-to-end metrics.  With
--trace 1, one untraced and one traced round run, and the JSON holds
the per-layer metrics of the traced one.
Outputs and trace files go to perfbench_out/<workload>/.  Every
output is checked (checks.py); the exit code is 1 when a check breaks
or the program crashes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)   # before numpy loads, for the checks here

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = Path("perfbench_out")
RUN_TIMEOUT_S = 170.0   # kill any child still running this long into a run
SETUP_SHARE = 0.15      # of --seconds, spent on set-up probes
# Settings of the program that would change its inputs or kernels.
DROP_ENV = ("OVERSMOOTH_SEED", "OVERSMOOTH_NUMBA", "PYTHONPATH")


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer"."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int, Path], list]    # (seed, round dir) -> CLI args
    ops: tuple                           # operation ids of one round
    steps: int                           # layer steps requested per round
    check: Callable[[Path, int], dict]   # (round dir, seed) -> op -> errors


def _simulate_argv(seed, rdir):
    return ["simulate", "--graph", "er:200,0.05", "--graph-seed", "0",
            "--largest-cc", "--variant", "batchnorm", "--k", "32",
            "--steps", "256", "--seeds", str(seed),
            "--outdir", str(rdir / "csv")]


def _check_simulate(rdir, seed):
    path = rdir / "csv" / f"batchnorm_seed{seed}.csv"
    if not path.exists():
        return {0: ["no CSV written"]}
    return {0: checks.check_simulate(path.read_text(), seed, 0, 32, 256)}


def _load_reports(rdir):
    path = rdir / "report.json"
    return json.loads(path.read_text()) if path.exists() else []


WORKLOADS = {
    "simulate-er200": Workload(
        argv=_simulate_argv, ops=(0,), steps=256, check=_check_simulate),
    "verify-er100": Workload(
        argv=lambda seed, rdir: [
            "verify", "--props", "all", "--graph", "er:100,0.1",
            "--seed", "0", "--out", str(rdir / "report.json")],
        ops=tuple(range(1, 8)),
        # props 1 and 4: 50 trials x 256 steps, prop 2: 50 x 64, prop 5: 256
        steps=50 * 256 + 50 * 64 + 50 * 256 + 256,
        check=lambda rdir, seed: checks.check_verify_er100(
            _load_reports(rdir))),
    "residual-er1000": Workload(
        argv=lambda seed, rdir: [
            "verify", "--props", "1,2", "--graph", "er:1000,0.01",
            "--trials", "20", "--seed", str(seed),
            "--out", str(rdir / "report.json")],
        ops=(1, 2),
        steps=20 * 256 + 20 * 64,
        check=lambda rdir, seed: checks.check_residual_er1000(
            _load_reports(rdir), seed)),
}


def _failed_verdicts(rdir) -> set:
    return {int(r["id"]) for r in _load_reports(rdir)
            if r.get("verdict") == "fail"}


def run_child(cli_argv, rdir: Path, mode: str, deadline: float) -> dict:
    """One CLI invocation in a fresh process, killed at ``deadline``
    (monotonic); times taken here."""
    rdir.mkdir(parents=True)
    sidecar = rdir / "sidecar.json"
    env = {k: v for k, v in os.environ.items() if k not in DROP_ENV}
    env.update(THREAD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), str(sidecar), mode,
           "--", *cli_argv]
    with open(rdir / "stdout.txt", "wb") as out, \
            open(rdir / "stderr.txt", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(max(deadline - spawn, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    side = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    res = {"exit_code": proc.returncode, "wall_s": end - spawn,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "sidecar": side,
           "stderr": (rdir / "stderr.txt").read_text(errors="replace")}
    if side.get("first_step") is not None:
        res["setup_s"] = side["first_step"] - spawn
        res["main_s"] = side["main_end"] - spawn
    return res


class Run:
    """The rounds of one benchmark run and their accounting."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.wl = WORKLOADS[name]
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.rounds: list = []
        self.attempted = self.failed = 0
        self.correct = True
        self.deadline = time.monotonic() + RUN_TIMEOUT_S

    def round(self, mode: str = "run") -> dict:
        rdir = self.dir / f"round{len(self.rounds)}-{mode}"
        res = run_child(self.wl.argv(self.seed, rdir), rdir, mode,
                        self.deadline)
        res["dir"] = rdir
        self.rounds.append(res)
        return res

    def setup_probe(self, i: int) -> dict:
        rdir = self.dir / f"setup{i}"
        return run_child(self.wl.argv(self.seed, rdir), rdir, "setup",
                         self.deadline)

    def account(self, res: dict) -> None:
        """Count the round's operations and check its outputs."""
        ops = self.wl.ops
        self.attempted += len(ops)
        crashed = (res["exit_code"] not in (0, 3) or "Traceback"
                   in res["stderr"] or "setup_s" not in res)
        if crashed:
            self.failed += len(ops)
            self.correct = False
            print(f"{self.name}: {res['dir']} exit {res['exit_code']}:\n"
                  f"{res['stderr'][-2000:]}", file=sys.stderr)
            return
        errors = self.wl.check(res["dir"], self.seed)
        fails = _failed_verdicts(res["dir"])
        for op in ops:
            for err in errors.get(op, []):
                print(f"{self.name}: op {op}: {err}", file=sys.stderr)
            if errors.get(op):
                self.correct = False
            if errors.get(op) or op in fails:
                self.failed += 1


def repeat(fn, budget: float) -> list:
    """fn(i) for i = 0, 1, ... while the next call is expected to end
    within ``budget`` seconds of the first; always at least once.  A
    child that never reached its first layer step ends the repetition."""
    start, out = time.monotonic(), []
    while True:
        out.append(fn(len(out)))
        elapsed = time.monotonic() - start
        if (elapsed * (len(out) + 1) / len(out) > budget
                or "setup_s" not in out[-1]):
            return out


def end_to_end(run: Run, seconds: float) -> dict:
    repeat(lambda i: run.round(), (1 - SETUP_SHARE) * seconds)
    probes = repeat(run.setup_probe, SETUP_SHARE * seconds)
    for res in run.rounds:
        run.account(res)
    units = metric_units("end_to_end")
    rows = [r for r in run.rounds if "setup_s" in r]
    for r in rows:
        r["steps_per_s"] = run.wl.steps / (r["wall_s"] - r["setup_s"])
        print(f"{run.name} {r['dir'].name}: " + ", ".join(
            f"{m} {r[m]:.6g} {u}" for m, u in units.items()))
    if not rows:
        return {}
    setups = [r["setup_s"] for r in rows + probes if "setup_s" in r]
    print(f"{run.name}: {len(setups)} set-ups: "
          + " ".join(f"{s:.4g}" for s in setups))
    out = {m: statistics.median(r[m] for r in rows) for m in units}
    out["setup_s"] = statistics.median(setups)
    return {m: {"value": out[m], "unit": u} for m, u in units.items()}


def per_layer(run: Run) -> dict:
    plain = run.round()
    traced = run.round("trace")
    for res in (plain, traced):
        run.account(res)
    layer = traced["sidecar"].get("layer")
    if not layer or "main_s" not in plain:
        return {}
    layer["trace.overhead_s"] = traced["main_s"] - plain["main_s"]
    trace_file = run.dir / "trace.json"
    trace_file.write_text(json.dumps(
        {"workload": run.name, "seed": run.seed, "layer": layer,
         "spans": traced["sidecar"]["spans"]}, indent=1, sort_keys=True))
    print(f"{run.name}: trace written to {trace_file}")
    return {name: {"value": layer[name], "unit": unit}
            for name, unit in metric_units("per_layer").items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not Path("src/oversmooth/cli.py").is_file():
        print("src/oversmooth/cli.py not found: run from the root of an "
              "oversmooth checkout", file=sys.stderr)
        return 2
    compileall.compile_dir("src", quiet=1)

    run = Run(args.workload, args.seed)
    if args.trace:
        metrics = per_layer(run)
    else:
        metrics = end_to_end(run, args.seconds)
    if not metrics:
        run.correct = False
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"{run.name}: attempted {run.attempted}, failed {run.failed}, "
          f"correct {run.correct}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
