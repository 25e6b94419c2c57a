"""hatfam benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload build-hat --seed 1 --seconds 25 --trace 0

One client runs `hatfam` commands back to back, calling
`hatfam.cli.main(argv)` in one fresh worker process, and checks every
output against an oracle (see workloads.py).  With --trace 0 it reports
the end-to-end metrics; with --trace 1 every op runs untraced and traced,
and it reports the per-layer metrics, the layer probes and
microbenchmarks.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.  A run record (and the spans of a traced
run) is written to .perfbench-out/ in the checkout.

End-to-end timings are scaled to a reference machine speed by a
calibration loop sampled while each op and set-up runs (worker.timed):
the host's speed swings by up to 1.7x, and unscaled medians of two sets
of ten runs moved by half.  The unscaled figures are printed beside the
metrics and kept in the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads
from tracing import op_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 3  # fresh set-up workers on each side of the op loop
# time of one calibration sample (worker.calibrate) at the reference speed,
# its median on a 2-vCPU Xeon VM at 2.0 GHz; end-to-end timings are
# reported scaled to it
CAL_REF_S = 0.0028
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "op_s_p50": "s",
    "hats_per_s": "hats/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# span metrics: seconds per traced op spent in a function (inclusive)
_SPAN_SECONDS = (
    "configfile.load_text", "geometry.tile_from_config",
    "substitution.layout_from_config", "substitution.build",
    "substitution.expand", "geometry.disjoint_cells", "geometry.is_simple",
    "geometry.cells_connected", "supervectors.v_closed",
)
PER_LAYER = {
    "cli.self_s": "s",
    **{f"{name}_s": "s" for name in _SPAN_SECONDS},
    "configfile.load_text_calls": "count",
    "substitution.layout_from_config_calls": "count",
    "substitution.dag_nodes": "count",
    "substitution.hats": "count",
    "substitution.expand_us_per_hat": "us",
    "geometry.kite_cells": "count",
    "geometry.disjoint_cells_us_per_hat": "us",
    "supervectors.v_closed_calls": "count",
    "trace_overhead_ratio": "1",
    # layer probes (layers.py)
    "substitution.expand_hat6_s": "s",
    "geometry.disjoint_cells_hat6_s": "s",
    "render.render_supertile_s": "s",
    "render.us_per_hat": "us",
    "render.svg_bytes": "bytes",
    "substitution.search_layout_s": "s",
    "substitution.search_tried": "count",
    "substitution.search_accepted": "count",
    "supervectors.tan_alpha_s": "s",
    "supervectors.tan_alpha_calls": "count",
    "sequences.g_recurrence_s": "s",
    "sequences.g_closed_s": "s",
    "sequences.g_closed_calls": "count",
    # microbenchmarks
    **{f"exactnum.{op}{size}_ns": "ns" for size in ("", "_big")
       for op in ("mul", "add", "sign")},
    "geometry.compose_us": "us",
}


def _worker(mode: str, job: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HATFAM_DATA_DIR"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode],
        input=None if job is None else json.dumps(job),
        capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _scaled(seconds: float, cal_s: float) -> float:
    """A timing at the reference speed, where the calibration loop takes
    CAL_REF_S; a later change to hatfam moves it, the host's speed does not."""
    return seconds * CAL_REF_S / cal_s


def _end_to_end(ops: list, setups: list, peak_rss_kib: int):
    raw = [op["wall_s"] for op in ops]
    walls = [_scaled(w, op["cal_s"]) for w, op in zip(raw, ops)]
    setup_raw = [s["setup_s"] for s in setups]
    metrics = {
        "op_s_p50": statistics.median(walls),
        "hats_per_s": sum(workloads.op_hats(op["argv"]) for op in ops) / sum(walls),
        "setup_s": statistics.median(_scaled(s["setup_s"], s["cal_s"]) for s in setups),
        "peak_rss_mb": peak_rss_kib / 1024,
    }
    speed = statistics.median(op["cal_s"] for op in ops) / CAL_REF_S
    notes = {"op_s_p50": f"median of {len(ops)} ops; unscaled "
                         f"{statistics.median(raw):.4f} s at {speed:.3f}x reference time",
             "hats_per_s": f"over {len(ops)} ops; unscaled "
                           f"{metrics['hats_per_s'] * sum(walls) / sum(raw):.2f}",
             "setup_s": f"median of {len(setups)} fresh workers; unscaled "
                        f"{statistics.median(setup_raw):.4f} s"}
    return metrics, notes


def _per_layer(ops: list, result: dict, refs: dict, failures: dict):
    """Per-layer metrics of a traced run; adds trace and probe failures."""
    spans = result["spans"]
    summaries = []
    for i, op in enumerate(ops):
        if op["traced"]:
            try:
                summaries.append(op_summary(spans, op["root"]))
            except RuntimeError as e:
                failures.setdefault(f"op {i}", f"trace: {e}")
    n = max(1, len(summaries))

    def total(name, key="ns"):
        """Sum over the traced ops of a name's ns, calls, or one of its counts."""
        rows = [s["names"][name] for s in summaries if name in s["names"]]
        return sum(r[key] if key in ("ns", "calls") else r["counts"].get(key, 0)
                   for r in rows)

    metrics = {"cli.self_s": sum(s["cli_self_ns"] for s in summaries) / n / 1e9}
    for name in _SPAN_SECONDS:
        metrics[f"{name}_s"] = total(name) / n / 1e9
    for name in ("configfile.load_text", "substitution.layout_from_config",
                 "supervectors.v_closed"):
        metrics[f"{name}_calls"] = total(name, "calls") / n
    metrics["substitution.dag_nodes"] = total("substitution.build", "dag_nodes") / n
    hats = total("substitution.expand", "hats")
    metrics["substitution.hats"] = hats / n
    metrics["substitution.expand_us_per_hat"] = total("substitution.expand") / 1e3 / max(1, hats)
    checked = total("geometry.disjoint_cells", "hats")
    metrics["geometry.kite_cells"] = total("geometry.disjoint_cells", "kite_cells") / n
    metrics["geometry.disjoint_cells_us_per_hat"] = (
        total("geometry.disjoint_cells") / 1e3 / max(1, checked))
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    traced = [s["wall_ns"] / 1e9 for s in summaries] or untraced
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)

    probe_metrics, probe_failures = layers.probe_metrics(spans, result["probes"], refs)
    metrics.update(probe_metrics)
    failures.update((f"probe {i}", why) for i, why in enumerate(probe_failures))
    notes = {name: f"per traced op, {len(summaries)} ops" for name in metrics}
    notes["trace_overhead_ratio"] = (f"median of {len(traced)} traced over "
                                     f"{len(untraced)} untraced op walls")
    notes.update({name: "layer probe" for name in probe_metrics})
    for name, (value, iters) in result["micro"].items():
        metrics[name] = value
        notes[name] = f"median of {layers.MICRO_REPEATS} x {iters} ops"
    return metrics, notes


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, refs: dict | None = None) -> dict:
    """Run one workload; return the result object and the run record.

    smoke runs one round of generation-3 inputs with one set-up on each
    side, for the harness's own tests; refs replaces refs.json.
    """
    refs = workloads.load_refs() if refs is None else refs
    seconds = 0 if smoke else seconds
    job = {"rounds": workloads.rounds(workload, seed, 10 + 2 * math.ceil(seconds),
                                      smoke),
           "seconds": seconds, "trace": trace, "smoke": smoke}
    # set-up is timed in fresh workers before and after the op loop, so the
    # median samples the machine at both ends of the run
    reps = 0 if trace else 1 if smoke else SETUP_REPS
    setups = [_worker("setup") for _ in range(reps)]
    result = _worker("ops", job)
    setups += [_worker("setup") for _ in range(reps)]
    ops = result["ops"]
    failures = {f"op {i}": why for i, op in enumerate(ops)
                if (why := workloads.check(workload, op, refs))}
    attempted = len(ops)
    if trace:
        metrics, notes = _per_layer(ops, result, refs, failures)
        attempted += len(result["probes"]["roots"])
        units = PER_LAYER
    else:
        metrics, notes = _end_to_end(ops, setups, result["peak_rss_kib"])
        units = END_TO_END
    out = {"correct": not failures, "attempted": attempted,
           "failed": len(failures),
           "metrics": {name: {"value": metrics[name], "unit": units[name]}
                       for name in units}}
    record = {
        "commit": _commit(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "ops": len(ops),
        "rounds": len(ops) // len(job["rounds"][0]) // (2 if trace else 1),
        "loop_s": result["loop_s"], "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "op_walls_s": [[" ".join(op["argv"]), op["traced"], op["wall_s"],
                        op.get("cal_s")] for op in ops],
        "setups": setups, "cal_ref_s": CAL_REF_S,
        "notes": notes,
    }
    if trace:
        record["spans"] = result["spans"]
    return {"result": out, "record": record}


def report(run: dict) -> list[str]:
    rec, res = run["record"], run["result"]
    lines = [f"hatfam benchmark: workload={rec['workload']} seed={rec['seed']} "
             f"trace={int(rec['trace'])} commit={rec['commit'][:12]} "
             f"python={rec['python']} nproc={rec['nproc']} cpu={rec['cpu_model']}",
             f"  {rec['ops']} ops in {rec['rounds']} rounds, {rec['loop_s']:.1f} s",
             f"  {'fail_ratio':<38} {rec['fail_ratio']:>16.6f} {'1':<7} "
             f"{res['failed']} of {res['attempted']} failed"]
    for what, why in rec["failures"].items():
        lines.append(f"  FAIL {what}: {why}")
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<38} {m['value']:>16.6f} {m['unit']:<7} "
                     f"{rec['notes'].get(name, '')}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hatfam" / "cli.py").is_file():
        print(f"error: no hatfam source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(run["record"]), encoding="utf-8")
    print("\n".join(report(run)))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
