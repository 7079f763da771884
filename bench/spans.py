"""In-memory spans around acckit's public functions, for the traced run.

Each span wraps a function at the module attribute through which the
package calls it (``acckit.cli.expand``, ``acckit.wedge.validate``, ...), so
nested calls appear as child spans and no file of the package changes.  A
span's self time is its duration minus the durations of its direct
children.  Counts are derived after each job from the arguments and results
the wrappers kept, so that deriving them costs no span any time.
"""

from __future__ import annotations

import importlib
import math
import statistics
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name).  One span name may wrap several attributes
# that hold the same function.
PATCHES = (
    ("acckit.structure", "validate", "structure.validate"),
    ("acckit.wedge", "validate", "structure.validate"),
    ("acckit.audits", "validate", "structure.validate"),
    ("acckit.cli", "validate", "structure.validate"),
    ("acckit.cli", "compute_stats", "structure.stats"),
    ("acckit.cli", "expand", "wedge.expand"),
    ("acckit.formats", "parse_structure", "formats.parse_structure"),
    ("acckit.formats", "parse_wedge", "formats.parse_wedge"),
    ("acckit.formats", "serialize_structure", "formats.serialize_structure"),
    ("acckit.formats", "serialize_wedge", "formats.serialize_wedge"),
    ("acckit.audits", "audit_tk_bounds", "audits.tk_bounds"),
    ("acckit.audits", "audit_dirac", "audits.dirac"),
    ("acckit.audits", "dichotomy_report", "audits.dichotomy"),
    ("acckit.cli", "pg2", "plane.pg2"),
    ("acckit.cli", "sample_lines", "plane.sample_lines"),
    ("acckit.cli", "structure_from_lines", "plane.structure_from_lines"),
    ("acckit.cli", "family_wedge", "family.wedge"),
    ("acckit.cli", "gen_pencil", "family.fixture"),
    ("acckit.cli", "gen_near_pencil", "family.fixture"),
    ("acckit.cli", "gen_simple_cyclic", "family.fixture"),
    ("acckit.render", "render_arrangement", "render.arrangement"),
)

TIMED = tuple(dict.fromkeys(name for _, _, name in PATCHES))
COUNTED = (
    "structure.validate_calls",
    "structure.validations_per_structure",
    "structure.curve_pairs",
    "structure.pair_incidences",
    "structure.violations",
    "wedge.expand_calls",
    "wedge.expands_per_wedge",
    "wedge.atoms",
    "wedge.glues",
    "wedge.crossing_pairs",
    "wedge.expansion_errors",
    "formats.bytes_in",
    "formats.bytes_out",
    "formats.parse_errors",
    "audits.subsets",
    "audits.size_limit_refusals",
    "render.svg_bytes",
)


class Tracer:
    """Spans and counts of one pass over a job list."""

    def __init__(self):
        # [name, parent index or -1, start ns, end ns, job id]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._events: list[tuple] = []
        self._job = 0
        self._distinct = Counter()
        self._patched: list[tuple] = []

    def install(self):
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, original):
        def traced(*args, **kwargs):
            outcome = None
            with self.span(name):
                try:
                    outcome = original(*args, **kwargs)
                    return outcome
                except Exception as exc:
                    outcome = exc
                    raise
                finally:
                    self._events.append((name, args, outcome))

        return traced

    def span(self, name):
        return _Span(self, name)

    def end_job(self) -> list:
        """Turn the finished job's events into counts; return its expansions."""
        seen: dict[str, set[int]] = {"structure.validate": set(), "wedge.expand": set()}
        expansions = []
        c = self.counts
        for name, args, outcome in self._events:
            failed = isinstance(outcome, Exception)
            if name == "structure.validate":
                s = args[0]
                seen[name].add(id(s))
                c["structure.validate_calls"] += 1
                c["structure.curve_pairs"] += math.comb(s.n, 2)
                c["structure.pair_incidences"] += sum(math.comb(len(v), 2) for v in s.vertices)
                if not failed:
                    c["structure.violations"] += len(outcome.violations)
            elif name == "wedge.expand":
                spec = args[0]
                seen[name].add(id(spec))
                windows = 2 * spec.m
                c["wedge.expand_calls"] += 1
                c["wedge.atoms"] += windows * sum(len(b.events) for b in spec.beams)
                c["wedge.glues"] += sum((len(b.events) - 1) * windows + spec.m for b in spec.beams)
                if failed:
                    c["wedge.expansion_errors"] += 1
                else:
                    crossings = sum(type(label).__name__ == "Crossing" for label in outcome.vertex_labels)
                    c["wedge.crossing_pairs"] += crossings // windows
                    expansions.append(outcome)
            elif name.startswith("formats.parse"):
                c["formats.bytes_in"] += len(args[0].encode())
                c["formats.parse_errors"] += type(outcome).__name__ == "ParseError"
            elif name.startswith("formats.serialize") and not failed:
                c["formats.bytes_out"] += len(outcome.encode())
            elif name in ("audits.dirac", "audits.dichotomy"):
                if type(outcome).__name__ == "SizeLimitExceeded":
                    c["audits.size_limit_refusals"] += 1
                elif not failed:
                    s = args[0]
                    c["audits.subsets"] += math.comb(len(s.vertices), s.alpha)
            elif name == "render.arrangement" and not failed:
                c["render.svg_bytes"] += len(outcome.encode())
        for name, ids in seen.items():
            self._distinct[name] += len(ids)
        self._events.clear()
        self._job += 1
        return expansions

    def layer_values(self) -> dict[str, float]:
        """Self seconds per span name plus every count, for this pass."""
        child = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: Counter[str] = Counter()
        for (name, _, start, end, _), children in zip(self.spans, child):
            own[name] += end - start - children
        values = {f"{name}_s": own[name] / 1e9 for name in TIMED}
        values.update({name: self.counts[name] for name in COUNTED})
        values["structure.validations_per_structure"] = _ratio(
            self.counts["structure.validate_calls"], self._distinct["structure.validate"]
        )
        values["wedge.expands_per_wedge"] = _ratio(
            self.counts["wedge.expand_calls"], self._distinct["wedge.expand"]
        )
        return values


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.record = [name, parent, 0, 0, tracer._job]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[2] = perf_counter_ns()

    def __exit__(self, *exc):
        self.record[3] = perf_counter_ns()
        self.tracer._stack.pop()
        return False


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def median_values(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
