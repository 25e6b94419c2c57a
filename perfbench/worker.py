"""Benchmark worker: one fresh process per measurement.

    python3 perfbench/worker.py setup   # time import + config load, print JSON
    python3 perfbench/worker.py ops     # run the job read from stdin

The ops job is {"rounds": [[argv, ...], ...], "seconds": s, "trace": bool,
"smoke": bool}.  Rounds run back to back, each op calling
`hatfam.cli.main(argv)` in process, until `seconds` have passed (at least
one round; a round starts only if it should end by `seconds` plus half a
round).  With trace on, every op runs untraced and then traced, and the
layer probes and microbenchmarks follow the loop.  The result is one JSON
document on stdout.

The host's speed swings by up to 1.7x within seconds, so each untraced op
and each set-up is timed by `timed`, which samples a fixed calibration
loop while it runs; run.py scales the timings to a reference speed.
"""

from __future__ import annotations

# Only modules the interpreter has already loaded, and `fractions` for the
# calibration loop (hatfam imports it too), are imported up front, so that
# `setup` times hatfam's own imports from a cold start.
import os
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

CAL_ITERS = 300  # one calibration sample, about 3 ms
CAL_PERIOD_S = 0.1  # sampling interval while a timed call runs
_samples: list[float] = []


def calibrate() -> float:
    """Seconds a fixed stdlib Fraction loop takes: the machine's speed now."""
    x, y = Fraction(233, 2), Fraction(-89, 7)
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        (x * y + x) - y
    return time.perf_counter() - t0


def _sample(signum, frame):
    _samples.append(calibrate())


def timed(fn):
    """Run fn(); return (its result, its own seconds, calibration seconds).

    A timer signal runs the calibration loop every CAL_PERIOD_S while fn
    runs, and once more after it; the samples' own time is taken out of
    fn's, and the calibration figure is their median.
    """
    _samples.clear()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    own = elapsed - sum(_samples)
    _samples.append(calibrate())
    return result, own, sorted(_samples)[len(_samples) // 2]


def _import_cli():
    import hatfam.cli as cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise ImportError(f"hatfam imported from {cli.__file__}, not {SRC}")
    return cli


def _setup():
    cli = _import_cli()
    tile = cli.tile_from_config(cli.load_text("tile.cfg"))
    cli.layout_from_config(cli.load_text("layout.cfg"), tile)


def setup() -> dict:
    """What every CLI invocation pays before its command runs."""
    _, own, cal = timed(_setup)
    return {"setup_s": own, "cal_s": cal}


def _call(cli, argv: list[str], tracer):
    """cli.main(argv) -> (exit code, error text), traced under a root span."""
    try:
        if tracer is None:
            return cli.main(argv), None
        with tracer.installed():
            root = tracer.open("cli.main")
            try:
                return cli.main(argv), None
            finally:
                tracer.close(root)
    except SystemExit as e:
        return (e.code if isinstance(e.code, int) else 2), None
    except Exception as e:  # an op that raises is a failed op, not a crash
        return None, f"{type(e).__name__}: {e}"


def run_op(cli, argv: list[str], tracer) -> dict:
    import contextlib
    import hashlib
    import io
    from pathlib import Path

    svg = Path(ROOT, argv[argv.index("-o") + 1]) if "-o" in argv else None
    if svg is not None:
        svg.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    op = {"argv": argv, "traced": tracer is not None}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            (rc, error), own, op["cal_s"] = timed(lambda: _call(cli, argv, None))
        else:
            # spans time the traced op; calibration samples would land in them
            op["root"] = len(tracer.spans)
            t0 = time.perf_counter()
            rc, error = _call(cli, argv, tracer)
            own = time.perf_counter() - t0
    op.update(rc=rc, error=error, wall_s=own, stdout=out.getvalue(),
              stderr=err.getvalue())
    if svg is not None and svg.exists():
        op["svg_sha256"] = hashlib.sha256(svg.read_bytes()).hexdigest()
    return op


def run_ops(job: dict) -> dict:
    import resource
    from tracing import Tracer

    cli = _import_cli()
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    tracer = Tracer() if job["trace"] else None
    ops = []
    start = time.perf_counter()
    for done, rnd in enumerate(job["rounds"]):
        elapsed = time.perf_counter() - start
        # start a round only if it should end by `seconds` plus half a round
        if done and elapsed * (1 + 0.5 / done) > job["seconds"]:
            break
        for argv in rnd:
            ops.append(run_op(cli, argv, None))
            if tracer is not None:
                ops.append(run_op(cli, argv, tracer))
    result = {"ops": ops, "loop_s": time.perf_counter() - start,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        import layers
        result["probes"] = layers.run_probes(tracer, job["smoke"])
        result["micro"] = layers.run_micro(job["smoke"])
        result["spans"] = tracer.spans
    return result


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup":
        result = setup()
        import json
    elif mode == "ops":
        import json
        result = run_ops(json.load(sys.stdin))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
