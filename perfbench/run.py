"""Closed-loop benchmark of the cirquent pipeline.

One process, one thread: each op starts when the previous one ends. A run
sets up (parse, check and compile the corpus, load the atom library, build
the arenas) several times and reports the median as `setup_s`, runs the
gate self-check, warms up, then measures whole seeded passes over the
workload's ops for about `--seconds`. Timings are CPU times normalised to a
reference machine speed (see speed.py). Every op's output is checked; a
wrong output or an exception is a failed op, never dropped.

    python3 perfbench/run.py --workload rollout --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 30]  # every workload, a table
    python3 perfbench/run.py --rollout-stats 50               # rollout rows per case/env
    python3 perfbench/run.py --write-config                   # regenerate BENCHMARK.json

With `--trace 0` the last line holds the end-to-end metrics; with `--trace 1`
it holds the per-layer metrics of a traced pass (spans written under
`perfbench/out/`) and the tracing overhead against the same pass untraced.
The line before the last is a JSON report: provenance, op counts,
`fail_rate`, the tail percentile and, when traced, each module's share of
op time against the predicted dominant layer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3  # at the start; one more set-up follows every timed pass
WARMUP_S = 0.3


# ------------------------------------------------------------ provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------- timing


def run_ops(ops, failures: list[str], speed: Speedometer) -> list[float]:
    """Run ops back to back; returns each op's latency, notes failures.

    Latency is the op's thread CPU time, less any speedometer samples taken
    while it ran. Ops do no I/O, so the wall-clock excess is time the
    process sat descheduled by other tenants of a shared machine; on a
    2-vCPU virtual machine that noise, not the program, set the wall-clock
    tail.
    """
    clock = time.thread_time
    latencies = []
    for label, op in ops:
        spent = speed.spent
        t0 = clock()
        try:
            ok = op()
        except Exception as e:  # an op that raises is a failed op; the run goes on
            ok = False
            label += f" raised {type(e).__name__}: {e}"
        latencies.append(clock() - t0 - (speed.spent - spent))
        if not ok:
            failures.append(label)
    return latencies


def normalised(ops, failures: list[str], speed: Speedometer) -> tuple[list[float], float]:
    """Latencies of `ops` divided by the machine slowdown measured meanwhile."""
    mark = speed.mark()
    raw = run_ops(ops, failures, speed)
    slowdown = speed.slowdown(mark)
    return [t / slowdown for t in raw], slowdown


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond). Below eleven samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS, gate_self_check, self_check_ok

    workload = WORKLOADS[name]
    speed = Speedometer()
    inputs = workload.prepare()
    setup_times = []
    with speed:
        for _ in range(SETUP_REPEATS):
            setup, took = timed_setup(speed)
            setup_times.append(took)

    self_check = gate_self_check(setup)
    gates_ok = self_check_ok(self_check)

    rng = random.Random(seed)
    failures: list[str] = []
    attempted = 0
    warm = workload.make_pass(setup, inputs, random.Random(f"warm-up {seed}"))
    t_end = time.perf_counter() + WARMUP_S
    for item in warm:
        attempted += len(run_ops([item], failures, speed))
        if time.perf_counter() >= t_end:
            break

    report = {"provenance": provenance(name, seed), "self_check": self_check,
              "self_check_ok": gates_ok, "setup_runs_s": setup_times}
    if trace:
        metrics, counts = traced_run(workload, setup, inputs, rng, failures, report)
        attempted += counts
    else:
        with speed:
            passes, slowdowns, elapsed = timed_passes(
                workload, setup, inputs, rng, seconds, failures, speed, setup_times)
        timed = sum(len(p) for p in passes)
        attempted += timed
        tails = [tail(p) for p in passes]
        per_pass = {
            "ops_per_s": [len(p) / sum(p) for p in passes],
            "op_p50_ms": [statistics.median(p) * 1e3 for p in passes],
            "op_tail_ms": [t[0] * 1e3 for t in tails],
        }
        metrics = {
            **{k: metric(statistics.median(v), u)
               for (k, v), u in zip(per_pass.items(), ("1/s", "ms", "ms"))},
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report.update(
            timed_ops=timed, passes=len(passes), pass_ops=len(passes[0]), per_pass=per_pass,
            pass_slowdown=slowdowns, measured_s=elapsed, wall_ops_per_s=timed / elapsed,
            op_tail_percentile=round(tails[0][1], 2), op_tail_beyond=tails[0][2],
        )

    report["attempted"] = attempted
    report["failed"] = len(failures)
    report["fail_rate"] = len(failures) / attempted
    report["failed_ops"] = failures[:20]
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name} fail_rate = {report['fail_rate']:.6g} ({len(failures)}/{attempted}); "
          f"gate self-check {'ok' if gates_ok else 'FAILED'} {self_check}")
    for label in failures[:20]:
        print(f"{name} failed op: {label}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and gates_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def timed_setup(speed: Speedometer):
    """One set-up and its CPU time, normalised like an op's."""
    from workloads import build_setup

    mark, spent = speed.mark(), speed.spent
    t0 = time.thread_time()
    setup = build_setup()
    took = time.thread_time() - t0 - (speed.spent - spent)
    return setup, took / speed.slowdown(mark)


def timed_passes(workload, setup, inputs, rng, seconds, failures, speed, setup_times):
    """Whole passes until another would overrun `seconds`, at least one, each
    followed by one more timed set-up, so that `setup_s` samples the machine
    across the run. Returns each pass's normalised latencies and slowdown,
    and the wall time of all passes."""
    passes: list[list[float]] = []
    slowdowns: list[float] = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        done, slowdown = normalised(workload.make_pass(setup, inputs, rng), failures, speed)
        now = time.perf_counter()
        passes.append(done)
        slowdowns.append(slowdown)
        setup_times.append(timed_setup(speed)[1])
        if (now - t_start) + (now - t_pass) > seconds:
            return passes, slowdowns, now - t_start


def traced_run(workload, setup, inputs, rng, failures, report):
    """Fixed passes, every op once untraced and once traced; per-layer
    metrics from the spans, overhead from the two CPU-time totals. No
    speedometer runs here, so no sample lands inside a span."""
    import spec
    from tracer import Tracer

    ops = []
    for _ in range(workload.trace_passes):
        ops += workload.make_pass(setup, inputs, rng)
    # Each op runs untraced and traced back to back, in alternating order,
    # so that both see the same machine speed.
    idle, tracer = Speedometer(), Tracer()
    untraced = traced = 0.0
    for i, (label, op) in enumerate(ops):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                untraced += run_ops([(label, op)], failures, idle)[0]
                continue
            tracer.install()
            try:
                traced += run_ops([(label, tracer.wrap(op, "op"))], failures, idle)[0]
            finally:
                tracer.uninstall()

    summary = tracer.summary()
    out = HERE / "out" / f"spans-{workload.name}.tsv.gz"
    spans = tracer.write(out)
    values = spec.layer_values(summary, tracer.counts, {
        "tracer.untraced_ops_per_s": len(ops) / untraced,
        "tracer.traced_ops_per_s": len(ops) / traced,
        "tracer.overhead_pct": (traced / untraced - 1) * 100,
    })
    units = {n: u for n, u, _ in spec.PER_LAYER}
    metrics = {n: metric(values[n], units[n]) for n, _, _ in spec.PER_LAYER}

    op_time = summary["op"]["total_s"]
    shares: dict[str, float] = {}
    for span, row in summary.items():
        module = span.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + row["self_s"] / op_time
    predicted = sum(shares.get(m, 0.0) for m in workload.dominant)
    top = max(shares, key=shares.get)
    report.update(
        traced_ops=len(ops), trace_passes=workload.trace_passes, spans=spans,
        spans_file=str(out.relative_to(ROOT)),
        module_share={m: round(s, 4) for m, s in sorted(shares.items(), key=lambda kv: -kv[1])},
        predicted_dominant=list(workload.dominant), predicted_share=round(predicted, 4),
        measured_top=top,
        prediction_holds=predicted > 0.5 and top in workload.dominant,
    )
    print(f"{workload.name} module self-time share of op time: "
          + ", ".join(f"{m} {s:.1%}" for m, s in report["module_share"].items()))
    print(f"{workload.name} predicted dominant {'+'.join(workload.dominant)} = {predicted:.1%}; "
          f"largest {top}; prediction {'holds' if report['prediction_holds'] else 'MISSED'}")
    return metrics, 2 * len(ops)


# ------------------------------------------------------------- --all mode


def run_all(seed: int, seconds: float, out: Path | None) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    import spec
    from workloads import WORKLOADS

    results: dict[str, dict] = {}
    for name in WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} --trace {trace} failed with exit code {proc.returncode}")
                return 1
            results[name][f"trace{trace}"] = {
                "result": json.loads(lines[-1]), **json.loads(lines[-2])}

    print(f"\nseed {seed}, {seconds:g} s per run, closed loop, 1 process, 1 thread")
    print(json.dumps(next(iter(results.values()))["trace0"]["report"]["provenance"]))
    print(f"\n{'workload':<14}" + "".join(f"{n:>16}" for n, *_ in spec.END_TO_END)
          + f"{'fail_rate':>11}{'tail pct/n':>14}{'ops':>7}{'trace ovh':>11}  prediction")
    print(f"{'':<14}" + "".join(f"{u:>16}" for _, u, *_ in spec.END_TO_END))
    ok = True
    for name, r in results.items():
        untraced, traced = r["trace0"], r["trace1"]
        rep, m = untraced["report"], untraced["result"]["metrics"]
        ok &= untraced["result"]["correct"] and traced["result"]["correct"]
        ovh = traced["result"]["metrics"]["tracer.overhead_pct"]["value"]
        tr = traced["report"]
        print(f"{name:<14}" + "".join(f"{m[n]['value']:>16.5g}" for n, *_ in spec.END_TO_END)
              + f"{rep['fail_rate']:>11.3g}"
              + f"{'p%.2f/%d' % (rep['op_tail_percentile'], rep['pass_ops']):>14}"
              + f"{rep['attempted']:>7}{ovh:>10.1f}%  "
              + f"{'+'.join(tr['predicted_dominant'])} {tr['predicted_share']:.0%} "
              + f"({'holds' if tr['prediction_holds'] else 'missed: top ' + tr['measured_top']})")
    print(f"\ngate self-check (swapped copycat caught, honest passes): "
          f"{all(r['trace0']['report']['self_check_ok'] for r in results.values())}")
    if out is not None:
        out.write_text(json.dumps({"seed": seed, "seconds": seconds, "results": results},
                                  indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


# ------------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload (see BENCHMARK.json)")
    mode.add_argument("--all", action="store_true", help="run every workload and print a table")
    mode.add_argument("--rollout-stats", type=int, metavar="SEEDS",
                      help="print rollout rows: case x library x game x env")
    mode.add_argument("--write-config", action="store_true",
                      help="regenerate BENCHMARK.json from perfbench/spec.py")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="with --all: write every run's JSON here")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/cirquent", "corpus") if not (ROOT / p).is_dir()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spec

    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    if args.write_config:
        spec.write_config(ROOT / "BENCHMARK.json")
        return 0
    if args.rollout_stats is not None:
        from rollout_stats import sweep

        return 1 if sweep(args.rollout_stats) else 0
    if args.all:
        return run_all(args.seed, seconds, args.out)
    if args.workload not in spec.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
