#!/usr/bin/env python3
"""Host-speed benchmark of the ITS simulator (see README.md beside this file).

    python3 perfbench/run.py --workload grid|serve|sweep --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Builds the perfbench binary from ../src (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload, checks the digest of every simulation it ran against
reference.json, prints each metric with its unit and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ledger (and writes the run's spans next to the binary).

--write-reference records the digests of every workload for every input set
in ROTATION and for HELD_OUT; run it only when a change is meant to alter
simulated behaviour, and say so in that change.
"""
import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("grid", "serve", "sweep")
# Input sets with committed digests.  A --seed outside them selects
# ROTATION[seed % len(ROTATION)], so every seed maps to checkable inputs.
ROTATION = list(range(1, 11))
# Checked in but never selected by the rotation: a later claim can be
# re-measured on inputs it was not tuned against (--seed 1009).
HELD_OUT = 1009
# A run must end within 180 s once built; leave room for start-up and the
# no-op build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "perfbench"


def run_binary(exe, workload, seed, seconds, trace, timeout):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(build_dir() / f"spans-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode} on {workload}")
    return json.loads(lines[-1])


def input_seed(seed, known):
    return seed if seed in known else ROTATION[seed % len(ROTATION)]


def check(out, reference):
    """Counts simulations run and those whose digest differs from the
    reference or whose traced run broke an invariant."""
    attempted = failed = 0
    for digests in out["digests"]:
        attempted += max(len(digests), len(reference))
        failed += sum(1 for i, d in enumerate(reference)
                      if i >= len(digests) or digests[i] != d)
        failed += max(0, len(digests) - len(reference))
    failed = min(attempted, failed + out["invariant_failures"])
    return attempted, failed


def benchmark(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    reference = json.loads(REFERENCE.read_text())["digests"][args.workload]
    seed = input_seed(args.seed, {int(s) for s in reference})

    exe = build()
    out = run_binary(exe, args.workload, seed, args.seconds, args.trace,
                     RUN_TIMEOUT_S)

    got = [m["name"] for m in out["metrics"]]
    if sorted(got) != sorted(wanted):
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(wanted) - set(got))}, "
             f"extra {sorted(set(got) - set(wanted))}")
    attempted, failed = check(out, reference[str(seed)])

    print(f"workload {args.workload}, seed {args.seed} (inputs {seed}), "
          f"trace {args.trace}")
    for m in out["metrics"]:
        value = m["value"]
        shown = f"{value:.0f}" if m["unit"] == "count" else f"{value:.6g}"
        print(f"  {m['name']:<28} {shown} {m['unit']}")
    print(f"  {'failed_frac':<28} {failed / attempted:.6g} "
          f"({failed} of {attempted} simulations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]}
                    for m in out["metrics"]},
    }
    print(json.dumps(result))


def write_reference():
    exe = build()
    seeds = ROTATION + [HELD_OUT]
    tasks = [(w, s) for s in seeds for w in WORKLOADS]
    digests = {w: {} for w in WORKLOADS}

    def one(task):
        w, s = task
        out = run_binary(exe, w, s, 0, 0, 600)
        return w, s, out["digests"][0]

    # Two at a time: the sweep itself runs two farm workers.
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for w, s, d in pool.map(one, tasks):
            digests[w][str(s)] = d
            print(f"{w} seed {s}: {len(d)} simulations", file=sys.stderr)
    REFERENCE.write_text(json.dumps(
        {"rotation": ROTATION, "held_out": HELD_OUT, "digests": digests},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()
    if args.write_reference:
        write_reference()
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds within (0, 60]")
    benchmark(args)


if __name__ == "__main__":
    main()
