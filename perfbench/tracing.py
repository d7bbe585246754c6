"""Per-layer timing from outside the program.

The tracer replaces public functions of the package's modules with timing
wrappers.  It sets module attributes, so calls made inside the package
through module globals (``simcore.apply_gate`` from ``mbqc``, or
``classical_parallel_curve`` from ``optimize_tau_classical``) are caught
too.  Spans are aggregated in memory per (name, parent) and written out
when the run ends.  A listed function that the program no longer has is
reported as absent, so refactors keep the trace working.

This module does not import the program; the worker hands it the package.
"""

from __future__ import annotations

import functools
from time import perf_counter

#: The public functions timed in each module, in the order they are reported.
TARGETS = {
    "cli": ("cmd_bayes_phase", "cmd_holevo", "cmd_bayes_freq"),
    "estimate": ("classical_parallel_curve", "qft_phase_variance", "holevo_bayes_round",
                 "wrapped_gaussian_prior", "optimize_tau", "optimize_tau_classical",
                 "frequency_round", "qft_povm"),
    "simcore": ("apply_gate", "measure_branch", "drop_qubit", "run_circuit"),
    "compress": ("build_compressor", "compress_statevector"),
    "mbqc": ("verify_pattern", "cluster_state", "run_pattern"),
    "probes": ("unary_embedding", "angles_from_amplitudes"),
}
#: apply_gate is split by gate kind and number of controls.
GATE_CLASSES = ("X", "X_c1", "X_c2", "SWAP", "Z_c1", "H", "RZ", "Z")
APPLY_GATE = "simcore.apply_gate"
VERIFY_PATTERN = "mbqc.verify_pattern"


def gate_class(gate) -> str:
    controls = len(gate.controls)
    return f"{gate.kind}_c{controls}" if controls else gate.kind


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units: dict[str, str] = {}
    for module, functions in TARGETS.items():
        for function in functions:
            name = f"{module}.{function}"
            units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
            if name == APPLY_GATE:
                for cls in GATE_CLASSES:
                    units.update({f"{name}.{cls}.calls": "count", f"{name}.{cls}.self_s": "s",
                                  f"{name}.{cls}.amps": "count"})
            if name == VERIFY_PATTERN:
                units[f"{name}.branches"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Timing wrappers on the package's module attributes."""

    def __init__(self, package):
        self._package = package
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self._originals: list[tuple] = []
        #: (name, parent name or None) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str | None], list] = {}
        #: computed work counts: apply_gate amplitudes per class, verified branches
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []

    def install(self) -> None:
        for module_name, functions in TARGETS.items():
            module = getattr(self._package, module_name, None)
            for function in functions:
                name = f"{module_name}.{function}"
                original = getattr(module, function, None)
                if not callable(original):
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                self._originals.append((module, function, original))
                setattr(module, function, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, function, original in reversed(self._originals):
            setattr(module, function, original)
        self._originals.clear()

    def _label(self, name: str, args, kwargs) -> str:
        if name != APPLY_GATE:
            return name
        try:
            state = args[0] if args else kwargs["state"]
            gate = args[1] if len(args) > 1 else kwargs["gate"]
            cls = gate_class(gate)
            amps = len(state.amps)
        except (AttributeError, IndexError, KeyError, TypeError):
            return f"{name}.other"
        key = f"{name}.{cls}.amps"
        self.counts[key] = self.counts.get(key, 0) + amps
        return f"{name}.{cls}"

    def _wrap(self, name: str, fn):
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            label = self._label(name, args, kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                entry = spans.setdefault((label, parent[0] if parent else None), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if name == VERIFY_PATTERN:
                counts[f"{name}.branches"] = counts.get(f"{name}.branches", 0) + result.branches
            return result

        return wrapped

    def table(self) -> dict:
        """The aggregated spans and counts, JSON-serialisable."""
        return {
            "spans": [{"name": name, "parent": parent, "calls": calls, "total_s": total,
                       "self_s": self_s}
                      for (name, parent), (calls, total, self_s) in sorted(
                          self.spans.items(), key=lambda item: (item[0][0], item[0][1] or ""))],
            "counts": dict(sorted(self.counts.items())),
            "absent": list(self.absent),
        }


def layer_metrics(table: dict, rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-round layer metrics from a span table covering `rounds` traced rounds.

    Spans are summed over their parents; apply_gate's own figures are the sum
    over its gate classes.  Metrics of absent functions read 0.
    """
    values = {name: 0.0 for name in layer_metric_units()}
    for span in table["spans"]:
        parts = [span["name"]]
        if span["name"].startswith(APPLY_GATE + "."):
            parts.append(APPLY_GATE)
        for part in parts:
            for field in ("calls", "total_s", "self_s"):
                key = f"{part}.{field}"
                if key in values:
                    values[key] += span[field]
    for key, count in table["counts"].items():
        if key in values:
            values[key] += count
    values = {key: value / rounds for key, value in values.items()}
    for key, value in values.items():
        if key.endswith((".calls", ".amps", ".branches")) and float(value).is_integer():
            values[key] = int(value)
    values["trace.overhead_s"] = overhead_s
    return values
