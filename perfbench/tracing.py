"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function, in every ``dualsubdiv``
module that refers to it, with a wrapper that records a span: name, parent
span, start, end and the operation it belongs to.  Spans stay in memory
while the benchmark runs; ``summary`` folds them into per-name call counts
and self times (span time minus the time of its child spans), and ``facts``
holds the counts taken at the same boundaries.  Nothing is recorded while
``active`` is false, so the benchmark's own checks are never traced.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _lattice_facts(tracer, result):
    tracer.add("analyze.lattice_points", len(result.values))
    if result.is_exact:
        bits = max(
            (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in result.values),
            default=0,
        )
        tracer.maximum("analyze.lattice_max_bits", bits)
    else:
        tracer.add("analyze.float_fallbacks", 1)


def _assemble_facts(tracer, result):
    tracer.add("construct.system_rows", result.matrix.rows)
    tracer.add("construct.system_cols", result.matrix.cols)
    tracer.add("construct.rows_dropped", len(result.dropped))


def _derive_facts(tracer, result):
    tracer.add("construct.free_params", result.dimension)


def _verify_facts(tracer, result):
    tracer.add("charax.residual_terms", len(result.nonzero_terms()))


def _profile_facts(tracer, result):
    tracer.add("analyze.contractivity_profile.points", len(result))


# (module, attribute, span name, facts taken from a normal return)
TARGETS = (
    ("dualsubdiv.cli", "main", "cli.main", None),
    ("dualsubdiv.construct", "assemble", "construct.assemble", _assemble_facts),
    ("dualsubdiv.construct", "smoothing_coeffs", "construct.smoothing_coeffs", None),
    ("dualsubdiv.construct", "derive", "construct.derive", _derive_facts),
    ("dualsubdiv.exactalg", "rref_solve", "exactalg.rref_solve", None),
    ("dualsubdiv.exactalg", "LaurentPoly.divide", "exactalg.LaurentPoly.divide", None),
    ("dualsubdiv.charax", "verify_dual_interpolatory", "charax.verify", _verify_facts),
    ("dualsubdiv.charax", "verify_lemma_form", "charax.verify", _verify_facts),
    ("dualsubdiv.charax", "verify_refinability", "charax.verify", _verify_facts),
    ("dualsubdiv.samples", "phi_poly", "samples.phi_poly", None),
    ("dualsubdiv.scheme", "divide_smoothing", "scheme.divide_smoothing", None),
    ("dualsubdiv.analyze", "refine_values", "analyze.refine_values", _lattice_facts),
    ("dualsubdiv.analyze", "reproduction_degree", "analyze.reproduction_degree", None),
    ("dualsubdiv.analyze", "subdivide_curve", "analyze.subdivide_curve", None),
    ("dualsubdiv.analyze", "contractivity_profile", "analyze.contractivity_profile", _profile_facts),
    ("dualsubdiv.analyze", "contractivity_range", "analyze.contractivity_range", None),
    ("dualsubdiv.analyze", "contractivity_bound", "analyze.contractivity_bound", None),
)

# facts counted when a traced call raises: (span name, exception class name)
RAISED_FACTS = {("construct.derive", "InfeasibleProblem"): "construct.infeasible"}

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
FACT_NAMES = (
    "construct.system_rows",
    "construct.system_cols",
    "construct.rows_dropped",
    "construct.free_params",
    "construct.infeasible",
    "charax.residual_terms",
    "analyze.lattice_points",
    "analyze.lattice_max_bits",
    "analyze.float_fallbacks",
    "analyze.contractivity_profile.points",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        # (name, parent index or -1, start, end, op)
        self.spans: list[tuple] = []
        self.facts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def add(self, fact: str, amount: int) -> None:
        self.facts[fact] += amount

    def maximum(self, fact: str, value: int) -> None:
        self.facts[fact] = max(self.facts[fact], value)

    def _wrap(self, name, fn, facts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                fact = RAISED_FACTS.get((name, type(exc).__name__))
                if fact:
                    tracer.add(fact, 1)
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, parent, start, end, tracer.op)
            if facts is not None:
                facts(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a dualsubdiv module refers to it."""
        for module_name, attr, name, facts in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, facts))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original, facts)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "dualsubdiv" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child[i]
        return out
