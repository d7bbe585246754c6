"""One workload run in one process.

Imports the program from ``<root>/src``, builds the workload's inputs,
prints ``ready`` on standard output just before the first call that does
the workload's work, then repeats rounds of the same operations as long
as another round fits in the run's seconds (always at least one).  Each
round is timed without the benchmark's own checks; those run in the
orchestrating process, which never imports the program.  Results go to
``<workdir>/result.json``.

With ``--trace 1`` the rounds alternate untraced and traced, starting
untraced, so that the difference of their medians is the tracing overhead.
With ``--setup-only`` the process exits right after ``ready``.

Run through ``run.py``; this file is not an entry point of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import tracing
import workloads


def _attempt(fn):
    """(True, value) or (False, 'Type: message'); one operation's outcome."""
    try:
        return True, fn()
    except (Exception, SystemExit) as exc:  # argparse exits on usage errors
        return False, f"{type(exc).__name__}: {exc}"


def _amps(state) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in np.asarray(state.amps)]


class CliRound:
    """Figure workloads: each operation is one ``cli.main`` call with --out."""

    def __init__(self, cli, commands: list[tuple[str, list[str]]], workdir: Path):
        self._cli = cli
        self._commands = []
        for name, argv in commands:
            out = workdir / f"{name}.csv"
            self._commands.append((name, out, [name, *argv, "--jobs", "1", "--out", str(out)]))

    def run(self):
        return [_attempt(lambda argv=argv: self._cli.main(argv))
                for _, _, argv in self._commands]

    def collect(self, outcomes) -> list[dict]:
        records = []
        for (name, out, _), (ok, value) in zip(self._commands, outcomes):
            if ok and value != 0:
                ok, value = False, f"exit code {value}"
            records.append({"op": name, "ok": ok, "error": None if ok else value,
                            "csv": out.read_text() if ok else None})
        return records


def phase_figure(pkg, inputs: dict, workdir: Path) -> CliRound:
    theta0 = ["--theta0", repr(inputs["theta0"])]
    return CliRound(pkg.cli, [
        ("bayes-phase", ["--sigma", repr(inputs["sigma"]), *theta0]),
        ("holevo", ["--sigma", ",".join(map(repr, inputs["holevo_sigmas"])), *theta0]),
    ], workdir)


def freq_figure(pkg, inputs: dict, workdir: Path) -> CliRound:
    n_small, n_large = inputs["ns"]
    return CliRound(pkg.cli, [
        ("bayes-freq", ["--delta", repr(inputs["delta"]), "--n-min", str(n_small),
                        "--n-max", str(n_large), "--n-step", str(n_large - n_small)]),
    ], workdir)


class CompressRound:
    """Every unary basis state and the seeded superpositions through the compressor."""

    def __init__(self, pkg, inputs: dict, workdir: Path):
        self._pkg = pkg
        self._N = inputs["N"]
        self._superpositions = workloads.complex_rows(inputs["superpositions"])

    def run(self):
        compress, probes = self._pkg.compress, self._pkg.probes
        N = self._N
        built = _attempt(lambda: compress.build_compressor(N))

        def compressed(make_state):
            if not built[0]:
                raise RuntimeError(f"build_compressor failed: {built[1]}")
            circuit, layout = built[1]
            return compress.compress_statevector(make_state(), layout, circuit)

        outcomes = [_attempt(lambda n=n: compressed(lambda: probes.unary_basis_state(n, N)))
                    for n in range(N + 1)]
        outcomes += [_attempt(lambda c=c: compressed(
                         lambda: probes.unary_embedding(probes.SubspaceState(N, c))))
                     for c in self._superpositions]
        return outcomes

    def collect(self, outcomes) -> list[dict]:
        names = [f"unary {n}" for n in range(self._N + 1)]
        names += [f"superposition {k}" for k in range(len(self._superpositions))]
        return [{"op": name, "ok": ok, "error": None if ok else value,
                 "amps": _amps(value) if ok else None}
                for name, (ok, value) in zip(names, outcomes)]


class MbqcRound:
    """Branch-exhaustive pattern checks plus single seeded branches of the sine pattern."""

    def __init__(self, pkg, inputs: dict, workdir: Path):
        self._pkg = pkg
        simcore = pkg.simcore
        sine_N, ghz_N = inputs["sine_N"], inputs["ghz_N"]
        self._sine_N, self._ghz_N = sine_N, ghz_N
        self._sine_target = simcore.StateVector(
            sine_N, oracles.unary_embedding(oracles.sine_probe(sine_N)))
        self._ghz_target = simcore.StateVector(ghz_N, oracles.ghz_target(ghz_N))
        self._cnot = oracles.cnot()
        self._yrot = [(phi, oracles.ry(phi)) for phi in inputs["yrot_angles"]]
        self._teleport = [(phi, oracles.h_rz(phi)) for phi in inputs["teleport_angles"]]
        self._branches = [tuple(b) for b in inputs["branches"]]

    def run(self):
        mbqc = self._pkg.mbqc
        sine = _attempt(lambda: mbqc.sine_pattern(self._sine_N))

        def with_sine(fn):
            if not sine[0]:
                raise RuntimeError(f"sine_pattern failed: {sine[1]}")
            return fn(sine[1])

        outcomes = [_attempt(lambda: with_sine(
            lambda p: mbqc.verify_pattern(p, self._sine_target)))]
        outcomes.append(_attempt(lambda: mbqc.verify_pattern(
            mbqc.ghz_pattern(self._ghz_N), self._ghz_target)))
        outcomes.append(_attempt(lambda: mbqc.verify_pattern(mbqc.cnot_pattern(), self._cnot)))
        outcomes += [_attempt(lambda phi=phi, u=u: mbqc.verify_pattern(
                         mbqc.y_rotation_pattern(phi), u)) for phi, u in self._yrot]
        outcomes += [_attempt(lambda phi=phi, u=u: mbqc.verify_pattern(
                         mbqc.teleport_pattern(phi), u)) for phi, u in self._teleport]
        outcomes += [_attempt(lambda b=b: with_sine(lambda p: mbqc.run_pattern(p, b)))
                     for b in self._branches]
        return outcomes

    def collect(self, outcomes) -> list[dict]:
        names = [f"sine {self._sine_N}", f"ghz {self._ghz_N}", "cnot"]
        names += [f"yrot {phi!r}" for phi, _ in self._yrot]
        names += [f"teleport {phi!r}" for phi, _ in self._teleport]
        n_reports = len(names)
        names += [f"run_pattern sine {''.join(map(str, b))}" for b in self._branches]
        records = []
        for k, (name, (ok, value)) in enumerate(zip(names, outcomes)):
            record = {"op": name, "ok": ok, "error": None if ok else value}
            if ok and k < n_reports:
                record["report"] = {"vertices": value.pattern_vertices, "branches": value.branches,
                                    "min_fidelity": value.min_fidelity,
                                    "probability_sum": value.probability_sum,
                                    "passed": bool(value.passed)}
            elif ok:
                state, prob = value
                record["amps"], record["probability"] = _amps(state), prob
            records.append(record)
        return records


ROUNDS = {
    "phase-figure": phase_figure,
    "freq-figure": freq_figure,
    "compress-verify": CompressRound,
    "mbqc-verify": MbqcRound,
}


def _import_program(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import clustersense
    from clustersense import cli  # noqa: F401  (cli is not imported by the package itself)

    if not Path(clustersense.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"clustersense was imported from {clustersense.__file__}, not {src}")
    return clustersense


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pkg = _import_program(args.root)
    inputs = workloads.make_inputs(args.workload, args.seed)
    work = ROUNDS[args.workload](pkg, inputs, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    sys.stdout = sys.stderr  # the orchestrator reads only the ready line

    tracer = tracing.Tracer(pkg) if args.trace else None
    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(times["traced"]) < len(times["untraced"])
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        outcomes = work.run()
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        times["traced" if traced else "untraced"].append(elapsed)
        rounds.append(work.collect(outcomes))
        # start no round that would end past the run's seconds, by the slowest so far
        slowest = max(times["untraced"] + times["traced"])
        done = time.perf_counter() - start + slowest > args.seconds
        if done and (tracer is None or times["traced"]):
            break

    result = {"inputs": inputs, "rounds": rounds, **times,
              "trace": tracer.table() if tracer else None}
    (args.workdir / "result.json").write_text(json.dumps(result))
    print(f"{args.workload}: round seconds untraced "
          f"{[round(t, 3) for t in times['untraced']]}, traced "
          f"{[round(t, 3) for t in times['traced']]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
