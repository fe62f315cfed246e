"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the metrics the code defines, with the
same units; that every workload prints a well-formed, correct result
whose metrics are exactly those BENCHMARK.json lists (end-to-end ones
finite and above 0, per-layer ones with --trace 1); that the same seed
gives the same input digest and another seed a different one; and that
without the program next to it the benchmark fails without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, workload: str, seed: int, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)
    return proc.returncode, proc.stdout.splitlines()


def parse(lines: list[str]) -> tuple[dict, dict]:
    info = json.loads(next(ln for ln in lines if ln.startswith("info "))[5:])
    return info, json.loads(lines[-1])


def main() -> int:
    problems: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if e2e != run.E2E_METRICS:
        problems.append(f"end_to_end differs from run.E2E_METRICS: {e2e} != {run.E2E_METRICS}")
    if layer != tracing.LAYER_METRICS:
        diff = set(layer.items()) ^ set(tracing.LAYER_METRICS.items())
        problems.append(f"per_layer differs from tracing.LAYER_METRICS: {sorted(diff)}")
    names = tuple(w["name"] for w in spec["workloads"])
    if names != run.WORKLOAD_NAMES:
        problems.append(f"workloads {names} != {run.WORKLOAD_NAMES}")

    for wl in names:
        digests = {}
        for seed, trace, wanted in ((1, 0, e2e), (2, 0, e2e), (1, 1, layer)):
            tag = f"{wl} seed={seed} trace={trace}"
            code, lines = bench(run.ROOT, wl, seed, trace)
            if code != 0 or not lines:
                problems.append(f"{tag}: exit {code}")
                continue
            info, res = parse(lines)
            digests[(seed, trace)] = info["input_digest"]
            if set(res) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not (res["correct"] and res["attempted"] >= 1 and res["failed"] == 0):
                problems.append(f"{tag}: not correct: {res['attempted']} attempted, "
                                f"{res['failed']} failed")
            got = res["metrics"]
            if set(got) != set(wanted):
                problems.append(f"{tag}: metrics missing {sorted(set(wanted) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted))}")
            for name, (unit, _) in wanted.items():
                m = got.get(name)
                if m is None:
                    continue
                if m["unit"] != unit:
                    problems.append(f"{tag}: {name} unit {m['unit']} != {unit}")
                if not math.isfinite(m["value"]) or (trace == 0 and m["value"] <= 0):
                    problems.append(f"{tag}: {name} = {m['value']}")
        if len(digests) == 3:
            if digests[(1, 0)] != digests[(1, 1)]:
                problems.append(f"{wl}: seed 1 gave two input digests")
            if digests[(1, 0)] == digests[(2, 0)]:
                problems.append(f"{wl}: seeds 1 and 2 gave the same input digest")
        print(f"selftest {wl}: digests {sorted(set(digests.values()))}")

    # Without src/ beside it the benchmark must fail and print no result.
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench(bare, names[0], 1, 0)
        if code == 0 or any(ln.startswith("{") for ln in lines):
            problems.append(f"bare directory: exit {code}, output {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
