#!/usr/bin/env python3
"""The mdlump benchmark: one command, four workloads, layer-by-layer timing.

Builds the benchmark program (perfbench/mdbench.ml) and lumpd from the
source checkout it runs in, runs one workload for a fixed time, checks
every output, prints every metric with its unit and ends with one JSON
result line.  See perfbench/README.md for the workloads and metrics.

  python3 perfbench/run.py --workload table1-j3 --seed 1 --seconds 28 --trace 0
  python3 perfbench/run.py --workload serve-mixed --seed 7 --seconds 28 --trace 1
  python3 perfbench/run.py --all --seed 1      # every workload, untraced and
                                               # traced; rewrites BENCHMARK.json
  python3 perfbench/run.py --selftest          # injected faults must fail runs

Run it from the root of the repository.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

RUN_SECONDS = 28

WORKLOADS = [
    ("table1-j3", "the paper's Table 1 row at J=3: generate, MD, lump, lumped state space, closure; generation dominates"),
    ("solve-j2", "tandem at J=2 from model parameters to availability via matrix-free Krylov; the lumped-MD product dominates"),
    ("lump-j3", "cold one-shot lumps of three specs and a warm seeded lump_sweep on the prebuilt J=3 diagram; refinement only"),
    ("serve-mixed", "a spawned lumpd with shipped defaults under two closed-loop connections cycling ping/lump/stats/sweep/solve"),
]

# (name, unit, better, bound): reported by every workload, bounded in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("peak_mb", "MB", "lower", 0.25),
]

SERVE_VERBS = ["ping", "lump", "stats", "sweep", "solve"]

# (name, unit, better): reported by traced runs; 0 on a workload that
# does not exercise the layer.
PER_LAYER = (
    [
        ("san.explore_s", "s", "lower"),
        ("san.states", "count", "lower"),
        ("md.build_s", "s", "lower"),
        ("md.nodes", "count", "lower"),
        ("md.bytes", "bytes", "lower"),
        ("md.mdd_index_s", "s", "lower"),
        ("md.vec_mul_s", "s", "lower"),
        ("md.lumped_bytes", "bytes", "lower"),
        ("core.lump_s", "s", "lower"),
        ("core.lump_statespace_s", "s", "lower"),
        ("core.is_closed_s", "s", "lower"),
        ("core.lumped_states", "count", "lower"),
        ("core.sweep_point_s", "s", "lower"),
        ("core.key_cache_hit_ratio", "ratio", "higher"),
        ("core.nodes_reused_ratio", "ratio", "higher"),
        ("core.cross_bind_hits", "count", "higher"),
        ("partition.splitter_passes", "count", "lower"),
        ("partition.key_evals", "count", "lower"),
        ("ctmc.solve_s", "s", "lower"),
        ("ctmc.iterations", "count", "lower"),
        ("ctmc.residual", "inf-norm", "lower"),
        ("ctmc.other_s", "s", "lower"),
    ]
    + [
        (f"serve.{verb}.{what}_ms", "ms", "lower")
        for verb in SERVE_VERBS
        for what in ("client_p50", "queue_p50", "exec_p50")
        # stats answers beside the execution slot and never queues.
        if not (verb == "stats" and what == "queue_p50")
    ]
    + [
        ("serve.ping.client_tail_ms", "ms", "lower"),
        ("serve.busy_ratio", "ratio", "higher"),
        ("serve.submit_s", "s", "lower"),
        ("obs.trace_overhead_ratio", "ratio", "lower"),
        ("obs.span_coverage", "ratio", "higher"),
        ("other_s", "s", "lower"),
    ]
)

EXE = os.path.join("_build", "default", "perfbench", "mdbench.exe")
LUMPD = os.path.join("_build", "default", "bin", "lumpd.exe")
OUT_DIR = os.path.join("perfbench", "out")
CHILD_TIMEOUT = 170


def child_env():
    """Keep every file the build and the runs write inside the checkout:
    no shared dune cache, temporary files under perfbench/out/tmp."""
    tmp = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return {**os.environ, "DUNE_CACHE": "disabled", "TMPDIR": tmp}


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build the benchmark and the daemon from the checkout's sources."""
    for need in ("dune-project", os.path.join("lib", "core"), os.path.join("bin", "lumpd.ml")):
        if not os.path.exists(need):
            fail(f"{need} is missing: run from the root of an mdlump source checkout")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/mdbench.exe", "./bin/lumpd.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=child_env(), timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with code {r.returncode}")


def stop_group(pgid):
    """Kill whatever is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def mdbench(workload, seed, seconds, trace, extra=()):
    """Run the benchmark program once; its last stdout line is JSON."""
    cmd = [
        EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--lumpd", LUMPD, "--out-dir", OUT_DIR,
        "--t0-ns", str(time.monotonic_ns()), *extra,
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"{workload}: mdbench timed out")
    stop_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: mdbench exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: mdbench printed no result")


def host_info(seed):
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"host_cores": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed}


def fmt_metric(name, m):
    s = f"  {name:34s} {m['value']:.6g} {m['unit']}"
    if "percentile" in m:
        s += f"  (p{m['percentile']:g}, {m['samples']} samples)"
    return s


def run_workload(workload, seed, seconds, trace, extra=()):
    """One benchmark run: prints every metric, returns the result line."""
    samples = []
    # Process start is the whole set-up of the pipeline workloads, so
    # sample it more than once and report the median.
    if workload in ("table1-j3", "solve-j2"):
        for _ in range(10):
            samples += mdbench(workload, seed, seconds, False, ("--probe",))["setup_samples"]
    res = mdbench(workload, seed, seconds, trace, extra)
    samples += res["setup_samples"]
    setup = {"value": statistics.median(samples), "unit": "s",
             "percentile": 50, "samples": len(samples)}
    e2e = {"setup_s": setup, **res["end_to_end"]}

    info = {**host_info(seed), "ocaml": res["ocaml"], "workload": workload, "trace": int(trace)}
    print(f"== {workload}  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    print(" end-to-end:")
    for name, m in e2e.items():
        print(fmt_metric(name, m))
    print(" workload metrics (untraced):")
    for name, m in res["report"].items():
        print(fmt_metric(name, m))
    attempted, failed = res["attempted"], res["failed"]
    print(fmt_metric("error_rate", {"value": failed / max(1, attempted), "unit": "ratio"}))
    per_layer = {}
    if trace:
        print(" per-layer (traced):")
        for name, unit, _ in PER_LAYER:
            # A layer this workload never calls reads 0.
            per_layer[name] = res["per_layer"].get(name, {"value": 0.0, "unit": unit})
            print(fmt_metric(name, per_layer[name]))
    for f in res["failures"][:5]:
        print(f" FAILED: {f}")
    if failed > 5:
        print(f" ... {failed} failed operations in all")
    metrics = per_layer if trace else {n: e2e[n] for n, _, _, _ in END_TO_END}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    return line


def write_spec():
    with open("BENCHMARK.json", "w") as f:
        json.dump(spec(), f, indent=2)
        f.write("\n")


def selftest(seconds):
    """Each injected fault must fail the run it is injected into."""
    cases = [
        ("table1-j3", "wrong-states"),
        ("solve-j2", "perturb-measure"),
        ("serve-mixed", "perturb-measure"),
        ("serve-mixed", "drop-reply"),
        ("serve-mixed", "malformed-reply"),
        ("serve-mixed", None),
    ]
    ok = True
    for workload, fault in cases:
        extra = ("--inject", fault) if fault else ()
        line = run_workload(workload, 1, seconds, False, extra)
        caught = not line["correct"]
        want = fault is not None
        verdict = "ok" if caught == want else "WRONG"
        ok &= caught == want
        print(f"selftest {workload} {fault or 'no fault'}: "
              f"{'failed' if caught else 'passed'} ({line['failed']}/{line['attempted']} failed) -> {verdict}")
    print("selftest: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload untraced and traced, rewrite BENCHMARK.json")
    ap.add_argument("--selftest", action="store_true", help="check that injected faults fail runs")
    args = ap.parse_args()
    if not (args.all or args.selftest or args.workload):
        ap.error("give --workload, --all or --selftest")

    build()
    if args.selftest:
        return selftest(min(args.seconds, 4))
    if args.all:
        correct = True
        for workload, _ in WORKLOADS:
            for trace in (False, True):
                line = run_workload(workload, args.seed, args.seconds, trace)
                correct &= line["correct"]
        write_spec()
        print("BENCHMARK.json written")
        return 0 if correct else 1
    line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
