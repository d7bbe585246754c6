"""Benchmark of clustersense: the figure curves and the circuit verifiers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload phase-figure --seed 1 --seconds 20 --trace 0

Workloads: phase-figure, freq-figure, compress-verify, mbqc-verify (see
README.md).  The program runs in a separate worker process with one BLAS
thread and ``--jobs 1``; this process only times it and checks its outputs
against the oracles in ``oracles.py``, without importing the program.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are ``setup_s``, ``run_s`` and ``peak_rss_mib``; with
``--trace 1`` they are the per-layer metrics of ``tracing.py``, and the span
table is also written to ``perfbench/results/``.  Without the program's
source under ``src/`` the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Set before numpy loads, here and in the workers, which inherit it: two
# OpenBLAS threads on two cores stall whenever another process holds a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: set-up is timed this many times per run: the worker plus set-up-only processes
SETUP_SAMPLES = 5
#: every process of a run must have ended by then
DEADLINE_S = 170.0

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


class Worker:
    """A worker process: timed from spawn to its ready line, then reaped with wait4."""

    def __init__(self, argv: list[str], deadline: float):
        self._deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
            line = self.proc.stdout.readline() if ready else b""
            self.setup_s = time.perf_counter() - start
            if line.strip() != b"ready":
                raise BenchError(f"worker did not get ready: {argv[2:]}")
        except BaseException:
            self.kill()
            raise

    def _remaining(self) -> float:
        return max(0.0, self._deadline - time.perf_counter())

    def wait(self):
        """Exit code and peak resident memory (MiB) of the finished worker."""
        try:
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if not self._remaining():
                    raise BenchError("worker ran past the run's deadline")
                time.sleep(0.05)
        except BaseException:
            self.kill()
            raise
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _worker_argv(args, workdir: Path, setup_only: bool) -> list[str]:
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workdir", str(workdir),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + ["--setup-only"] if setup_only else argv


def run(args) -> dict:
    import checks
    import oracles
    import tracing

    deadline = time.perf_counter() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RESULTS))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = Worker(_worker_argv(args, workdir, setup_only=True), deadline)
                code, _ = probe.wait()
                if code:
                    raise BenchError(f"set-up process exited with code {code}")
                setups.append(probe.setup_s)
        worker = Worker(_worker_argv(args, workdir, setup_only=False), deadline)
        setups.append(worker.setup_s)
        code, peak_rss_mib = worker.wait()
        if code:
            raise BenchError(f"worker exited with code {code}")
        result = json.loads((workdir / "result.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"no readable result from the worker: {exc}") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [rec for rnd in result["rounds"] for rec in rnd]
    for rec in records:
        if not rec["ok"]:
            print(f"failed: {rec['op']}: {rec['error']}", file=sys.stderr)
    try:
        problems = checks.CHECKS[args.workload](result["inputs"], result["rounds"], args.seed)
    except oracles.OracleError as exc:
        problems = [f"the oracle could not confirm the outputs: {exc}"]
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    if args.trace:
        overhead = statistics.median(result["traced"]) - statistics.median(result["untraced"])
        values = tracing.layer_metrics(result["trace"], len(result["traced"]), overhead)
        units = tracing.layer_metric_units()
        for name in result["trace"]["absent"]:
            print(f"absent from the program: {name}", file=sys.stderr)
        trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "traced_rounds": len(result["traced"]),
                                          "untraced_s": result["untraced"],
                                          "traced_s": result["traced"],
                                          **result["trace"]}, indent=1))
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(result["untraced"]),
                  "peak_rss_mib": peak_rss_mib}
        units = E2E_UNITS
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not rec["ok"] for rec in records),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its worker on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "clustersense" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'clustersense'}", file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
