"""Span tracer that wraps the public functions of each `cirquent` layer.

The tracer patches module attributes and class methods from outside the
program, so the package itself carries no instrumentation. Every call to a
wrapped function records one span: name, start, end and the span that was
open when it began. Spans stay in flat arrays while the benchmark runs and
are written out once it ends. Self time is a span's duration minus the time
its child spans cover.

A function is patched under every name a caller resolves it by: the
defining module's attribute and each `from x import name` binding of the
same object in another `cirquent` module (for example `strategies.fusions`).
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

# (module, attribute): wrapped free functions, span name "<module>.<attribute>".
FUNCTIONS = (
    ("formulas", "parse_formula"),
    ("rules", "parse_proof"),
    ("rules", "check_proof"),
    ("rules", "premise_of"),
    ("games", "legal"),
    ("games", "first_offender"),
    ("games", "winner"),
    ("games", "thread_classes"),
    ("cirquents", "legal"),
    ("cirquents", "first_offender"),
    ("cirquents", "winner"),
    ("cirquents", "project_member"),
    ("harness", "play"),
    ("harness", "exhaustive_env_check"),
    ("strategies", "compile_proof"),
    ("strategies", "transform"),
    ("fusion", "fusions"),
    ("fusion", "defusion"),
)

# (module, class, method, span name)
METHODS = (
    ("harness", "FormulaArena", "frontier", "harness.FormulaArena.frontier"),
    ("harness", "CirquentArena", "frontier", "harness.CirquentArena.frontier"),
    ("harness", "RandomEnv", "next_moves", "harness.RandomEnv.next_moves"),
    ("harness", "SpoilerEnv", "next_moves", "harness.SpoilerEnv.next_moves"),
    # The glue every layer of a compiled stack shares, plus the copycat core.
    ("strategies", "Translated", "step", "strategies.step"),
    ("strategies", "AxiomCopycat", "step", "strategies.step"),
)

# One translation layer per rule; each is timed as `strategies.<class>` over
# its env_to_sim, sim_to_real and (where overridden) note_real.
TRANSLATIONS = (
    "_Identity",
    "_OformulaSwap",
    "_OverSwap",
    "_WeakeningDrop",
    "_ContractionSplit",
    "_OverDupJoin",
    "_MergeSplit",
    "_BinarySplit",
    "_RecFold",
    "_CorecFocus",
    "_CorecWeave",
    "ClubToRep",
    "RepToPlain",
)

# Legality calls made directly under a frontier span are its candidates.
CANDIDATE_CHILDREN = {
    "harness.FormulaArena.frontier": "games.legal",
    "harness.CirquentArena.frontier": "cirquents.legal",
}

# Every span name the tracer can record, translation layers last.
CALL_SPANS = tuple(
    [f"{m}.{a}" for m, a in FUNCTIONS]
    + list(dict.fromkeys(name for *_, name in METHODS))
)


_MISSING = object()


class Tracer:
    """Records spans into flat arrays. `install` patches every layer and
    `uninstall` restores it; both are cheap enough to toggle per op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self._patch_list: list[tuple[object, str, object, object]] | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str,
             on_result: Callable[[object], None] | None = None) -> Callable:
        kind_id = self._id(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(end)
            kind.append(kind_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ------------------------------------------------------------ patching

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(target, attribute, original or _MISSING, wrapper) for every name
        a caller resolves a layer function by."""
        import cirquent.harness  # noqa: F401  (loads every layer module)

        counts = self.counts
        mods = [m for name, m in sys.modules.items()
                if name == "cirquent" or name.startswith("cirquent.")]
        out = []
        for m, attr in FUNCTIONS:
            original = getattr(sys.modules[f"cirquent.{m}"], attr)
            on_result = None
            if (m, attr) == ("fusion", "fusions"):
                def on_result(words):
                    counts["fusion.fusions.words"] += len(words)
            wrapper = self.wrap(original, f"{m}.{attr}", on_result)
            out += [(mod, name, original, wrapper)
                    for mod in mods for name, value in list(vars(mod).items())
                    if value is original]

        def method(cls, attr, name, on_result=None):
            out.append((cls, attr, cls.__dict__.get(attr, _MISSING),
                        self.wrap(getattr(cls, attr), name, on_result)))

        for m, cls_name, attr, name in METHODS:
            on_result = None
            if attr == "frontier":
                def on_result(moves, key=f"{name}.kept"):
                    counts[key] += len(moves)
            method(getattr(sys.modules[f"cirquent.{m}"], cls_name), attr, name, on_result)

        strategies = sys.modules["cirquent.strategies"]
        for cls_name in TRANSLATIONS:
            cls = getattr(strategies, cls_name, None)
            if cls is None:
                continue  # a later refactor may remove a layer class
            name = f"strategies.{cls_name}"

            def on_sim(moves, key=name):
                counts[f"{key}.moves_in"] += 1
                counts[f"{key}.sim_moves"] += len(moves)

            method(cls, "env_to_sim", name, on_sim)
            method(cls, "sim_to_real", name)
            if "note_real" in cls.__dict__:
                method(cls, "note_real", name)
        return out

    def install(self) -> None:
        if self._patch_list is None:
            self._patch_list = self._patches()
        for target, attr, _old, new in self._patch_list:
            setattr(target, attr, new)

    def uninstall(self) -> None:
        for target, attr, old, _new in reversed(self._patch_list or []):
            if old is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, old)

    # ------------------------------------------------------------- results

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s; frontiers add candidates."""
        n = len(self.end)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        cand_of = {
            self._ids[f]: self._ids[c]
            for f, c in CANDIDATE_CHILDREN.items()
            if f in self._ids and c in self._ids
        }
        cands: Counter[int] = Counter()
        for i in range(n):
            row = out[self.names[kind[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            p = parent[i]
            if p >= 0 and cand_of.get(kind[p]) == kind[i]:
                cands[kind[p]] += 1
        for k in cand_of:
            out[self.names[k]]["candidates"] = cands[k]
        return out

    def write(self, path: Path) -> int:
        """Write one `index, name, parent, start, end` line per span, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# span\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.end)):
                out.write(f"{i}\t{names[self.kind[i]]}\t{self.parent[i]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
        return len(self.end)
