"""plangen benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

Workloads: ``train``, ``generate`` and ``gradcheck`` (see workloads.py);
``--workload all`` runs each in its own fresh process, one after another.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it measures a third of the time untraced and the rest
traced, reports the per-layer metrics with the tracing overhead, and
writes the spans to ``.perfbench_out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it say the same for people, under the
metric names of the workload (``train_games_per_s``, ``gen_doc_ms_p90``,
...), with the environment, the input digest and any failed check.

The program is imported from ``src/`` next to this directory; the
benchmark exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are tiny and the benchmark measures one
# client.  This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train", "generate", "gradcheck")
TRACED_SHARE = 2.0 / 3.0

# End-to-end metrics: name -> (unit, better).  Every workload reports all
# of them; the names each one stands for there are in ALIASES.  Throughput
# and median latency are printed but carry no bound: on a shared host they
# follow the host's speed from run to run (see README.md).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("share", "higher"),
    "item_ms_p90": ("ms", "lower"),
}
ALIASES = {
    "train": {"items_per_s": "train_games_per_s", "item_ms_p50": "train_game_ms_p50",
              "item_ms_p90": "train_game_ms_p90"},
    "generate": {"items_per_s": "gen_docs_per_s", "item_ms_p50": "gen_doc_ms_p50",
                 "item_ms_p90": "gen_doc_ms_p90"},
    "gradcheck": {"items_per_s": "fd_loss_evals_per_s", "item_ms_p50": "fd_loss_eval_ms_p50",
                  "item_ms_p90": "fd_loss_eval_ms_p90"},
}


def import_program():
    """Import plangen from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import plangen
    except ImportError as exc:
        print(f"perfbench: cannot import plangen from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(plangen.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: plangen came from {plangen.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


class Phase:
    """Totals of one measured phase."""

    def __init__(self):
        self.items = 0
        self.seconds = 0.0
        self.latencies: list[float] = []
        self.checks: list[tuple[str, bool]] = []

    def add(self, step) -> None:
        self.items += step.items
        self.seconds += step.seconds
        self.latencies += step.latencies_ms
        self.checks += step.checks

    @property
    def rate(self) -> float:
        return self.items / self.seconds if self.seconds else 0.0


def run_phase(wl, seconds: float, min_items: int, errors: tuple) -> Phase:
    """Closed loop: the next step starts when the previous one returned,
    until ``seconds`` have passed and at least ``min_items`` are done."""
    phase = Phase()
    start = perf_counter()
    while perf_counter() - start < seconds or phase.items < min_items:
        try:
            phase.add(wl.step())
        except errors as exc:
            phase.checks.append((f"{wl.name}.raised.{type(exc).__name__}", False))
            if perf_counter() - start >= seconds:
                break
    phase.add(wl.end_phase())
    return phase


def timed_setups(wl, scale) -> list[float]:
    """Set up again and again until the set-ups took ``scale.setup_seconds``
    and the process has been busy for ``scale.warmup_s``; returns each
    set-up's time.  On a shared host speed changes from second to second,
    so set-up is timed over seconds, not once; and timings settle only
    after the first seconds of load, so this also warms the process up
    (the generate workload's model training counts towards that)."""
    times: list[float] = []
    while (not times or sum(times) < scale.setup_seconds
           or perf_counter() - START < scale.warmup_s):
        gc.collect()  # each set-up starts from the same heap state
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return times


def host_reference_ms() -> float:
    """Time of a fixed pure-Python loop that does not touch plangen: on a
    shared host it shows how fast the machine ran around the measurement."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return 1e3 * (perf_counter() - t0)


def environment(numpy) -> dict:
    blas = {"name": "unknown", "version": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "git_sha": git_sha(),
    }


def blas_threads(numpy) -> int | str:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                getter = getattr(dll, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return f"env OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unavailable"


def measure_end_to_end(wl, scale, seconds: float, errors: tuple, numpy):
    """Untraced run: set-up timings, then ``seconds`` of closed-loop work."""
    wl.prepare()
    setup_times = timed_setups(wl, scale)
    gc.collect()
    host_ref = [host_reference_ms()]
    phase = run_phase(wl, seconds, wl.min_items, errors)
    host_ref.append(host_reference_ms())
    lat = numpy.percentile(phase.latencies, [10, 25, 50, 75, 90]).tolist()
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item_ms_p90": lat[4],
    }
    extras = {"items_per_s": (phase.rate, "1/s"), "item_ms_p50": (lat[2], "ms")}
    info = {"setups": len(setup_times), "host_ref_ms": host_ref, "items": phase.items,
            "latency_samples": len(phase.latencies),
            "latency_ms": dict(zip(("p10", "p25", "p50", "p75", "p90"), lat))}
    return [phase], values, extras, info


def measure_layers(wl, scale, seconds: float, errors: tuple, tracer):
    """Traced run: set-up traced, a third of ``seconds`` untraced, the rest
    traced; the two rates give the tracing overhead."""
    tracer.install()
    try:
        wl.prepare()
        wl.setup()
    finally:
        tracer.uninstall()
    timed_setups(wl, scale)
    plain = run_phase(wl, seconds * (1 - TRACED_SHARE), 1, errors)
    tracer.set_phase("run")
    tracer.install()
    try:
        traced = run_phase(wl, seconds * TRACED_SHARE, 1, errors)
    finally:
        tracer.uninstall()
    overhead = plain.rate / traced.rate - 1.0 if traced.rate else 0.0
    values = tracer.layer_metrics("run", getattr(wl, "max_rel_err", 0.0), overhead)
    info = {"tracing_overhead_share": overhead, "absent_layers": tracer.absent}
    return [plain, traced], values, {}, info


def run_workload(args) -> int:
    import_program()
    import numpy

    import workloads
    from plangen import autodiff, corpus
    from tracing import LAYER_METRICS, Tracer

    errors = (corpus.DataError, autodiff.NumericError, autodiff.DomainError,
              autodiff.ShapeError, autodiff.ParameterError)
    scale = workloads.SCALES[args.scale]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "scale": args.scale, "seconds": args.seconds}
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scale, work)
        if args.trace:
            tracer = Tracer(wl.item_span)
            phases, values, extras, more = measure_layers(wl, scale, args.seconds, errors,
                                                          tracer)
            units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        else:
            phases, values, extras, more = measure_end_to_end(wl, scale, args.seconds,
                                                              errors, numpy)
            units = {k: u for k, (u, _) in E2E_METRICS.items()}
        checks = [c for p in phases for c in p.checks] + wl.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [name for name, ok in checks if not ok]
    attempted = len(checks)
    if not args.trace:
        values["ok_share"] = 1.0 - len(failed) / attempted
    alias = ALIASES[args.workload]
    extras = {alias.get(k, k): v for k, v in {**extras, **wl.named_metrics()}.items()}
    info.update(more)
    info["unbounded"] = {k: v for k, (v, _) in extras.items()}
    info["input_digest"] = wl.digest
    info.update(environment(numpy))
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, info)
        info["trace_file"] = str(trace_path.relative_to(ROOT))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} scale={args.scale}")
    for name in units:
        print(f"  {alias.get(name, name):<44} {values[name]:>14.6g} {units[name]}")
    for name, (value, unit) in extras.items():
        print(f"  {name:<44} {value:>14.6g} {unit}  (not bounded)")
    print(f"  {'failed_share':<44} {len(failed) / attempted:>14.6g} share "
          f"({len(failed)} of {attempted} checks failed)")
    for name in sorted(set(failed)):
        print(f"  FAILED {name} x{failed.count(name)}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
