"""ddce benchmark: one workload, one seed, a closed loop of CLI calls.

Usage (from the repository root):

    python3 perfbench/run.py --workload ensemble-text --seed 1 --seconds 40 --trace 0

Set-up generates the workload's inputs from the seed N_SETUPS times in
fresh interpreters and checks that every set-up wrote the same bytes.
Then one ``ddce`` CLI call at a time runs in its own process until
``--seconds`` is spent. ``setup_s`` is the median generation time plus
the median start-up of the calls: interpreter start and the ddce imports,
up to the start of ``ddce.cli.main``. After the first two calls,
a call is not started if it would likely end past that. Every call must
exit 0 and write the same ``report.json`` and ``partition.jsonl`` bytes
as the first, with partition ids equal to the input ids in order and no
cluster smaller than ``S_MIN``; a call that does not counts as failed.
Every call that finishes is timed.

With ``--trace 1`` one more call runs with the layer wrappers of
``tracer.py`` installed; it is checked the same way and yields the
per-layer metrics. ``trace.overhead_s`` is its wall time minus the median
of the untraced calls.

Stdout: a JSON line of details (environment, samples, hashes, the traced
call's raw groups), then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
N_SETUPS = 7
CALL_TIMEOUT_S = 150
S_MIN = 2  # the pipeline's and `ddce cluster`'s default minimum cluster size
OUTPUTS = ("report.json", "partition.jsonl")
# One BLAS thread: two gave the same wall time on ensemble-text for ~20%
# more CPU, and one leaves the second core of a 2-CPU machine to the run.
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB", "score": "ratio",
                    "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(directory: Path) -> dict:
    return {p.name: _sha256(p) for p in sorted(directory.iterdir())}


def setup(workload: str, seed: int, work: Path) -> tuple[Path, list[float]]:
    """Generate the inputs N_SETUPS times; return the first copy and the times."""
    times, digests = [], []
    for i in range(N_SETUPS):
        out = work / f"in{i}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            env=_child_env(), capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"input generation failed:\n{proc.stderr}")
        digests.append(_tree_digest(out))
        if i:
            shutil.rmtree(out)
    if any(d != digests[0] for d in digests):
        raise BenchError("input generation is not deterministic for this seed")
    return work / "in0", times


def _expected_ids(workload: str, in_dir: Path) -> list[str]:
    with open(gen.truth_path(workload, str(in_dir)), encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh if line.strip()]


def check_outputs(out: Path, expected_ids: list[str]) -> list[str]:
    """Problems with one call's partition: ids out of order, small clusters."""
    ids, labels = [], []
    with open(out / "partition.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            ids.append(row["id"])
            labels.append(int(row["cluster"]))
    problems = []
    if ids != expected_ids:
        problems.append("partition ids differ from the input ids")
    small = sorted(c for c, n in Counter(labels).items() if c != -1 and n < S_MIN)
    if small:
        problems.append(f"clusters smaller than {S_MIN}: {small[:5]}")
    return problems


class Runner:
    """Runs CLI calls of one workload and checks each against the first."""

    def __init__(self, workload: str, seed: int, work: Path, in_dir: Path):
        self.workload, self.seed, self.work, self.in_dir = workload, seed, work, in_dir
        self.expected_ids = _expected_ids(workload, in_dir)
        self.outputs = OUTPUTS if gen.WORKLOADS[workload].command == "ensemble" else OUTPUTS[1:]
        self.hashes: dict | None = None
        self.first_out: Path | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, trace: bool = False) -> tuple[dict | None, bool]:
        """One CLI call in a fresh process: its result dict (None if the call
        did not finish) and whether it passed every check."""
        i = self.attempted
        self.attempted += 1
        out = self.work / f"out{i}"
        result_file = self.work / f"result{i}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--result", str(result_file)]
        if trace:
            cmd.append("--trace")
        cli_args = gen.cli_argv(self.workload, self.seed, str(self.in_dir), str(out))
        env = _child_env()
        cmd += ["--spawned-at", repr(time.monotonic()), "--", *cli_args]  # taken last
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, self._fail(i, f"timed out after {CALL_TIMEOUT_S} s")
        if proc.returncode != 0 or not result_file.exists():
            return None, self._fail(i, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_file.read_text(encoding="utf-8"))
        missing = [o for o in self.outputs if not (out / o).exists()]
        if missing:
            return result, self._fail(i, f"outputs not written: {missing}")
        hashes = {o: _sha256(out / o) for o in self.outputs}
        if self.hashes is None:
            problems = check_outputs(out, self.expected_ids)
            if problems:
                return result, self._fail(i, "; ".join(problems))
            self.hashes, self.first_out = hashes, out
        else:
            if hashes != self.hashes:
                return result, self._fail(i, f"output bytes differ from the first call: {hashes}")
            shutil.rmtree(out)
        return result, True

    def _fail(self, i: int, why: str) -> bool:
        self.failures.append(f"call {i}: {why}")
        return False


def score_partition(workload: str, in_dir: Path, out: Path) -> tuple[float, str | None]:
    """metrics.score of the written partition against the generated truth,
    and a problem if report.json states another score."""
    sys.path.insert(0, str(SRC))
    from ddce import corpus, metrics, optics

    truth = corpus.load_unlabeled_jsonl(gen.truth_path(workload, str(in_dir)))
    score = metrics.score(truth, optics.load_partition_jsonl(str(out / "partition.jsonl"))).score
    report = out / "report.json"
    if report.exists():
        reported = json.loads(report.read_text(encoding="utf-8"))["consensus_test_scores"]
        if reported is None or reported["score"] != score:
            return score, f"report.json score {reported} differs from the rescored {score}"
    return score, None


def _git_commit() -> str:
    # The ceiling keeps git from taking up a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    in_dir, setup_times = setup(workload, seed, work)
    runner = Runner(workload, seed, work, in_dir)
    results = []
    call_times = []  # per call, process start to exit
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(call_times) >= 2:  # two calls at least, so the byte check always has a pair
            # Predict the next call (and, when tracing, the traced call after it).
            need = statistics.median(call_times) * (2 if trace else 1)
            if elapsed + need > seconds:
                break
        t0 = time.perf_counter()
        result, ok = runner.call()
        call_times.append(time.perf_counter() - t0)
        if result is not None:  # a call that finished is timed even if its outputs fail
            results.append(result)
        if not ok and runner.hashes is None and runner.attempted >= 3:
            break  # no call has passed yet; stop instead of spending the budget
    traced = runner.call(trace=True)[0] if trace and results else None
    if not results:
        raise BenchError("no CLI call finished:\n" + "\n".join(runner.failures))

    walls = [r["wall_s"] for r in results]
    wall = statistics.median(walls)
    score = 0.0  # stays 0 when no call passed the checks; `correct` is false then
    if runner.first_out is not None:
        score, problem = score_partition(workload, in_dir, runner.first_out)
        if problem:
            runner.failures.append(problem)
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "closed_loop": "1 client, 1 call in flight",
        "rows": gen.WORKLOADS[workload].rows,
        "env": environment(),
        "setup_gen_s_samples": setup_times,
        "startup_s_samples": [r["startup_s"] for r in results],
        "wall_s_samples": walls,
        "wall_s_count": len(walls),
        "peak_rss_mb_samples": [r["peak_rss_kb"] / 1024 for r in results],
        "output_sha256": runner.hashes,
        "failures": runner.failures,
    }
    if trace:
        if traced is None:
            raise BenchError("the traced call did not finish:\n" + "\n".join(runner.failures))
        t = traced["trace"]
        t["metrics"]["trace.overhead_s"] = [traced["wall_s"] - wall, "s"]
        details["trace"] = t
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in t["metrics"].items()}
    else:
        metrics = {
            "wall_s": wall,
            "rows_per_s": gen.WORKLOADS[workload].rows / wall,
            "peak_rss_mb": statistics.median(details["peak_rss_mb_samples"]),
            "score": score,
            "setup_s": statistics.median(setup_times)
                       + statistics.median(details["startup_s_samples"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ddce" / "cli.py").is_file():
        print(f"error: no ddce sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        details, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in details["failures"]:
        print(f"failed {failure}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
