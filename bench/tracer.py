"""Boundary tracer: spans around the calls one bellgame module makes into another.

The tracer replaces, in every loaded ``bellgame`` module, each name bound to a
boundary function (for example ``bellgame.optimize.quantum_payoffs`` and
``bellgame.optimize.minimize``) with a wrapper that records a span, and puts
the originals back on exit.  Spans are kept in memory as
``[name, caller module, start, end, parent index, extra]`` and written out by
the caller when the run ends.  A boundary whose function no longer exists is
skipped: its counts read zero and it is listed in ``missing``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: Span name -> (defining module, attribute).  ``optimize.nm`` is scipy's
#: ``minimize``, traced only where bellgame binds it.
BOUNDARIES = {
    "game.load_game": ("bellgame.game", "load_game"),
    "game.check_player_symmetry": ("bellgame.game", "check_player_symmetry"),
    "game.expected_payoffs": ("bellgame.game", "expected_payoffs"),
    "game.check_no_signalling": ("bellgame.game", "check_no_signalling"),
    "classical.deterministic_payoffs": ("bellgame.classical", "deterministic_payoffs"),
    "classical.enumerate_deterministic_equilibria": (
        "bellgame.classical",
        "enumerate_deterministic_equilibria",
    ),
    "classical.classical_bound_audit": ("bellgame.classical", "classical_bound_audit"),
    "classical.deterministic_bell_extremes": ("bellgame.classical", "deterministic_bell_extremes"),
    "classical.bell_expression": ("bellgame.classical", "bell_expression"),
    "quantum.quantum_distribution": ("bellgame.quantum", "quantum_distribution"),
    "quantum.quantum_payoffs": ("bellgame.quantum", "quantum_payoffs"),
    "quantum.planar_payoff": ("bellgame.quantum", "planar_payoff"),
    "quantum.planar_payoff_grid": ("bellgame.quantum", "planar_payoff_grid"),
    "quantum.quantum_bell": ("bellgame.quantum", "quantum_bell"),
    "optimize.maximize_planar": ("bellgame.optimize", "maximize_planar"),
    "optimize.best_response_check": ("bellgame.optimize", "best_response_check"),
    "optimize.quantum_advantage_report": ("bellgame.optimize", "quantum_advantage_report"),
    "optimize.nm": ("scipy.optimize", "minimize"),
}

#: CLI operations, one root span each (the span name is ``cli.<layer>``).
CLI_LAYERS = ("equilibria", "audit_bound", "bell", "optimize", "check_planar", "check_full")


def _extra(name: str, result):
    """What a span keeps of its call's result."""
    if name == "optimize.nm":
        return (int(result.nfev), int(result.nit), bool(result.success))
    if name == "classical.classical_bound_audit":
        return result.samples
    return None


class Tracer:
    """Records spans at the bellgame module boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, caller: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, caller, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[5] = _extra(name, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself, e.g. around one CLI call."""
        span = [name, "bench", 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Wrap every boundary in every loaded bellgame module; restore on exit."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "bellgame" or key.startswith("bellgame."))
        ]
        patches = []
        for name, (module_name, attr) in BOUNDARIES.items():
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            for module in modules:
                caller = module.__name__.rpartition(".")[2]
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, value))
                        setattr(module, key, self._wrap(name, caller, value))
        try:
            yield self
        finally:
            for module, key, value in reversed(patches):
                setattr(module, key, value)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"missing": self.missing, "spans": self.spans}))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children; the run is single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[3] - s[2])
        self_s[name] = self_s.get(name, 0.0) + (s[3] - s[2] - child[i])

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    def us_per_call(name):
        return 1e6 * t(name) / n(name) if n(name) else 0.0

    m: dict[str, float] = {}
    for layer in CLI_LAYERS:
        m[f"cli.{layer}_s"] = total.get(f"cli.{layer}", 0.0)
    m["cli.self_s"] = sum(t(f"cli.{layer}") for layer in CLI_LAYERS)

    for name in ("game.load_game", "game.expected_payoffs", "game.check_no_signalling",
                 "classical.deterministic_payoffs", "classical.bell_expression",
                 "quantum.quantum_distribution", "quantum.quantum_payoffs",
                 "quantum.planar_payoff", "quantum.quantum_bell"):
        m[f"{name}.calls"] = n(name)
        m[f"{name}.self_s"] = t(name)
    for name in ("game.check_player_symmetry", "classical.enumerate_deterministic_equilibria",
                 "classical.classical_bound_audit", "classical.deterministic_bell_extremes",
                 "optimize.maximize_planar", "optimize.best_response_check",
                 "optimize.quantum_advantage_report"):
        m[f"{name}.self_s"] = t(name)
    m["game.expected_payoffs.us_per_call"] = us_per_call("game.expected_payoffs")
    m["quantum.quantum_distribution.us_per_call"] = us_per_call("quantum.quantum_distribution")
    m["quantum.planar_payoff_grid.calls"] = n("quantum.planar_payoff_grid")

    audits = [s for s in spans if s[0] == "classical.classical_bound_audit"]
    audit_time = sum(s[3] - s[2] for s in audits)
    m["classical.audit_samples_per_s"] = sum(s[5] for s in audits) / audit_time if audit_time else 0.0

    m["optimize.objective_evals"] = sum(
        1 for s in spans
        if s[1] == "optimize" and s[0] in ("quantum.quantum_payoffs", "quantum.planar_payoff")
    )
    nm = [s[5] for s in spans if s[0] == "optimize.nm"]
    m["optimize.nm.runs"] = len(nm)
    m["optimize.nm.nfev"] = sum(r[0] for r in nm)
    m["optimize.nm.nit"] = sum(r[1] for r in nm)
    m["optimize.nm.success_ratio"] = sum(r[2] for r in nm) / len(nm) if nm else 0.0
    m["optimize.nm.self_s"] = t("optimize.nm")
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes; a count that repeats stays exact."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
