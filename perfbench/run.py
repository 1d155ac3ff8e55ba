#!/usr/bin/env python3
"""Calliope benchmark: builds perfbench, repeats one workload, prints one result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
the perfbench binary (perfbench/CMakeLists.txt) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later runs only check the build.

One repetition builds a fresh simulated installation, runs the workload and
checks its outputs (perfbench.cc). This script repeats it for --seconds
seconds, at least MIN_REPS times, and reports the best repetition of every
host-clock metric: co-tenants on a shared machine only ever slow a
repetition down, so the best one is the least disturbed. Simulated metrics
and the ClusterReport digest must be identical in every repetition; any
difference, failed output check or crash makes the result incorrect and the
exit code 1.

With --trace 1 the repetitions alternate traced and untraced runs. The result
then holds the per-layer metrics, including trace.overhead_s, the best
traced wall_s minus the best untraced wall_s.

The last line of standard output is the result, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
REP_TIMEOUT_S = 150

WORKLOADS = ("graph1_packet", "scale_flow_200", "zipf_churn")

# End-to-end metrics: name -> (unit, measured on the host clock?).
# stream_s_per_host_s is the only host metric where higher is better.
END_TO_END = {
    "setup_s": ("s", True),
    "wall_s": ("s", True),
    "stream_s_per_host_s": ("1/s", True),
    "peak_rss_mb": ("MB", True),
    "admit_p50_ms": ("ms", False),
    "admit_tail_ms": ("ms", False),
    "lateness_p99_us": ("us", False),
    "within_50ms_pct": ("%", False),
    "goodput_pct": ("%", False),
    "delivered_mbps": ("Mbit/s", False),
}

# Per-layer metrics measured on the host clock; every other per-layer
# metric is simulated and must repeat exactly.
HOST_LAYER_UNITS = {
    "sim.ns_per_event": "ns",
    "sim.ns_per_event_growth": "ratio",
    "sim.ramp_s": "s",
    "sim.steady_s": "s",
    "sim.drain_s": "s",
    "calliope.construct_s": "s",
    "calliope.boot_s": "s",
    "media.load_s": "s",
    "client.connect_s": "s",
    "load.schedule_s": "s",
    "obs.report_s": "s",
}

SIM_LAYER_UNITS = {
    "sim.events_per_stream_s": "events/stream_s",
    "hw.cpu.util_max": "ratio",
    "coord.cpu_util": "ratio",
    "hw.membus.util_max": "ratio",
    "hw.scsi.util_max": "ratio",
    "hw.disk.bytes": "B",
    "net.bytes.delivery": "B",
    "net.bytes.intra": "B",
    "sim.flow.packet_share": "ratio",
    "sim.cache.hit_ratio": "ratio",
    "coord.viewers_per_disk_stream": "ratio",
    "client.max_gap_us": "us",
}


def layer_unit(name):
    return HOST_LAYER_UNITS.get(name) or SIM_LAYER_UNITS.get(name) or "count"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures and builds perfbench; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no Calliope sources at %s/src; run from a full checkout" % ROOT)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    )
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(step))
            return None
    return os.path.join(out, "perfbench")


def run_rep(binary, workload, seed, trace):
    """One repetition; returns (exit code, parsed result or None, account text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return -1, None, "timed out after %d s" % REP_TIMEOUT_S
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    account = "\n".join(lines[:-1]) + ("\n" + done.stderr if done.stderr else "")
    return done.returncode, result, account


def sim_fingerprint(result):
    """Everything a repetition of the same seed must reproduce exactly."""
    e2e = result["end_to_end"]
    return (
        result["digest"],
        result["attempted"],
        result["failed"],
        json.dumps(result["failed_by_reason"], sort_keys=True),
        tuple(e2e[name] for name, (_, host) in END_TO_END.items() if not host),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2

    start = time.monotonic()
    reps = []  # (traced, exit code, result)
    problems = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep_start = time.monotonic()
        code, result, account = run_rep(binary, args.workload, args.seed, traced)
        rep_s = time.monotonic() - rep_start
        if not reps or result is None:
            print(account)
        if result is None:
            problems.append("repetition %d crashed (exit %d)" % (len(reps) + 1, code))
            break
        reps.append((traced, code, result))
        print("rep %d%s: exit %d, wall_s %.3f, digest %s" %
              (len(reps), " traced" if traced else "", code,
               result["end_to_end"]["wall_s"], result["digest"]))
        if code != 0 or result["violations"]:
            problems.extend(result["violations"] or ["exit code %d" % code])
            break
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + rep_s > args.seconds:
            break

    results = [r for _, _, r in reps]
    if results and len({sim_fingerprint(r) for r in results}) != 1:
        problems.append("simulated metrics or report digest differ between repetitions")
    traced = [r for t, _, r in reps if t]
    if len(traced) > 1:
        sim_layers = {json.dumps({k: v for k, v in r["per_layer"].items()
                                  if k not in HOST_LAYER_UNITS}, sort_keys=True)
                      for r in traced}
        if len(sim_layers) != 1:
            problems.append("simulated per-layer metrics differ between traced repetitions")

    correct = not problems and bool(results)
    metrics = {}
    if results:
        first = results[0]
        untraced = [r for t, _, r in reps if not t] or results
        if args.trace:
            for name, value in first["per_layer"].items():
                if name in HOST_LAYER_UNITS:
                    value = min(r["per_layer"][name] for r in traced)
                metrics[name] = {"value": value, "unit": layer_unit(name)}
            overhead = (min(r["end_to_end"]["wall_s"] for r in traced) -
                        min(r["end_to_end"]["wall_s"] for r in untraced))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        else:
            for name, (unit, host) in END_TO_END.items():
                best = max if name == "stream_s_per_host_s" else min
                value = (best(r["end_to_end"][name] for r in untraced) if host
                         else first["end_to_end"][name])
                metrics[name] = {"value": value, "unit": unit}
        tail = first["admit_tail"]
        inputs = first["inputs"]
        print("workload %s seed %d: %d MSUs, %d sessions, %.1f simulated s; %d repetitions" %
              (args.workload, args.seed, inputs["msus"], inputs["sessions"], inputs["sim_s"],
               len(results)))
        print("admit_tail_ms is p%.2f (%d of %d samples beyond it)" %
              (tail["percentile"], tail["beyond"], tail["samples"]))
        if args.workload == "graph1_packet":
            print("within_50ms_pct %.3f vs 99.6 in the paper's Graph 1" %
                  first["end_to_end"]["within_50ms_pct"])
        attempted = first["attempted"]
        for reason, count in first["failed_by_reason"].items():
            print("failed %-22s %6d  %.2f%%" % (reason, count, 100.0 * count / max(attempted, 1)))
        print("report digest %s" % first["digest"])
    for problem in problems:
        print("CHECK FAILED: %s" % problem)

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results) if results else 1,
        "failed": sum(r["failed"] for r in results) if results else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
