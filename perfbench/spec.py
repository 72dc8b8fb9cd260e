"""Metric definitions, layer predictions and the `BENCHMARK.json` they make.

`python3 perfbench/run.py --write-config` regenerates `BENCHMARK.json` from
this module, so the metric names used by the runs and by the file agree.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracer import CALL_SPANS, CANDIDATE_CHILDREN, TRANSLATIONS
from workloads import WORKLOADS

RUN_SECONDS = 30

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer() -> list[tuple[str, str, str]]:
    out = []
    for span in CALL_SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
        if span in CANDIDATE_CHILDREN:
            out += [(f"{span}.candidates", "count", "lower"),
                    (f"{span}.useful", "ratio", "higher")]
    for cls in TRANSLATIONS:
        out += [(f"strategies.{cls}.self_s", "s", "lower"),
                (f"strategies.{cls}.sim_moves", "count", "lower"),
                (f"strategies.{cls}.fanout", "moves/move", "lower")]
    out += [
        ("fusion.fusions.words", "count", "lower"),
        ("op.total_s", "s", "lower"),
        ("op.self_s", "s", "lower"),
        ("tracer.untraced_ops_per_s", "1/s", "higher"),
        ("tracer.traced_ops_per_s", "1/s", "higher"),
        ("tracer.overhead_pct", "%", "lower"),
    ]
    return out


PER_LAYER = tuple(_per_layer())

def layer_values(summary: dict, counts: dict, tracer_stats: dict) -> dict[str, float]:
    """Every per-layer metric from a traced run; layers never called read 0."""
    values: dict[str, float] = {}
    for span in CALL_SPANS:
        row = summary.get(span, {})
        values[f"{span}.calls"] = row.get("calls", 0)
        values[f"{span}.self_s"] = row.get("self_s", 0.0)
        if span in CANDIDATE_CHILDREN:
            cands = row.get("candidates", 0)
            values[f"{span}.candidates"] = cands
            values[f"{span}.useful"] = counts.get(f"{span}.kept", 0) / cands if cands else 0.0
    for cls in TRANSLATIONS:
        name = f"strategies.{cls}"
        moves_in = counts.get(f"{name}.moves_in", 0)
        sim = counts.get(f"{name}.sim_moves", 0)
        values[f"{name}.self_s"] = summary.get(name, {}).get("self_s", 0.0)
        values[f"{name}.sim_moves"] = sim
        values[f"{name}.fanout"] = sim / moves_in if moves_in else 0.0
    op = summary.get("op", {})
    values["fusion.fusions.words"] = counts.get("fusion.fusions.words", 0)
    values["op.total_s"] = op.get("total_s", 0.0)
    values["op.self_s"] = op.get("self_s", 0.0)
    values.update(tracer_stats)
    return values


def benchmark_config() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.gated],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_config(path: Path) -> None:
    path.write_text(json.dumps(benchmark_config(), indent=2) + "\n")
