#!/usr/bin/env python3
"""Quick self-test of the everybench benchmark (about two minutes).

usage (from the repository root):  python3 everybench/selftest.py

Checks that
  * each workload's untraced run reports every end-to-end metric in
    BENCHMARK.json, and its traced run every per-layer metric of the layers
    that workload runs (listed below), with the declared units;
  * each correctness check fails, with a non-zero exit and
    "correct": false, when the benchmark feeds it a corrupted input
    (everybench --corrupt <check>).
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step and paths)

# Per-layer metrics each workload measures itself; the rest read 0.
LOOPBACK = [
    "net.tcp_transport.send_us", "net.tcp_transport.sends_per_call", "net.reactor.poll_us",
    "net.packet.encode_ns", "net.packet.parse_ns", "net.node.deliver_us",
    "net.reactor.timer_schedule_ns", "net.reactor.timer_cancel_ns",
    "net.reactor.timers_per_call", "net.reactor.timer_cancels_per_call",
    "net.reactor.timer_fire_us", "forecast.observe_ns", "bench.app_us",
    "trace.wall_us_per_call", "trace.self_sum_us_per_call", "trace.coverage", "trace.spans",
]
COMMON = [
    "net.attempts_per_call", "net.useful_share", "net.timeouts_fired", "net.retries",
    "net.hedges", "net.duplicate_responses", "net.backpressure_rejects", "net.calls.failed",
    "forecast.method_switches", "sched.reports", "sched.batch_reports",
    "sched.outstanding_units", "gossip.polls", "gossip.sync_rounds", "gossip.delta_blobs",
    "gossip.merge.equal_share", "clique.tokens", "proc.sys_share",
    "proc.ctx_switches_per_call", "trace.calls_per_s", "trace.call_p50_us",
    "trace.call_p99_us", "trace.cpu_us_per_call", "call.samples",
]
LAYERS = {
    "echo_small": COMMON + LOOPBACK,
    "sched_batch": COMMON + LOOPBACK + [
        "core.scheduler.handle_us", "core.scheduler.absorb_us",
        "core.protocol.report_encode_ns", "core.protocol.report_decode_ns",
        "core.protocol.directive_codec_us",
    ],
    "sc98": COMMON + ["sim.events", "sim.wall_ns_per_event"],
}
CORRUPTIONS = {
    "echo_small": ["reply", "drop", "dup"],
    "sched_batch": ["double", "lost", "phantom", "replay"],
    "sc98": ["shape", "digest"],
}


def everybench(workload, trace, corrupt=None):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1]), p.stderr


def main():
    if not run.build():
        return 2
    spec = run.load_contract()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, names in ((0, [m["name"] for m in spec["end_to_end"]]), (1, LAYERS[w])):
            rc, res, err = everybench(w, trace)
            if rc != 0 or not res["correct"]:
                problems.append(f"{w} trace={trace}: run failed (exit {rc}): {err.strip()}")
                continue
            for n in names:
                got = res["metrics"].get(n)
                if got is None:
                    problems.append(f"{w} trace={trace}: {n} missing")
                elif got["unit"] != units[n]:
                    problems.append(f"{w} trace={trace}: {n} in {got['unit']}, want {units[n]}")
            print(f"ok   {w} trace={trace}: {len(names)} metrics", flush=True)
        for c in CORRUPTIONS[w]:
            rc, res, err = everybench(w, 0, c)
            if rc == 0 or res["correct"] or "FAILED" not in err:
                problems.append(f"{w}: corrupted input '{c}' was not caught")
            else:
                print(f"ok   {w} --corrupt {c}: {err.strip().splitlines()[0]}", flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
