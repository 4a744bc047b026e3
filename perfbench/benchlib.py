"""Pure logic of the repository benchmark: metric tables, percentile choice,
ping accounting, output checks and the reduction of harness repeats into the
reported metrics. `run.py` does the process work; the tests in
`test_benchlib.py` cover this module without building anything.
"""

import math
import os
import platform
import re
import statistics

WORKLOADS = ("city", "city_overload", "bulk")
# The workloads BENCHMARK.json gates. city_overload runs on demand only: under
# collapse its RTT percentiles spread by 17-28% (interquartile range over
# median) across ten seeds even with three pooled replicas, past the 0.25
# bound, and more replicas do not fit the run budget on the current event
# core (see README.md).
GATED_WORKLOADS = ("city", "bulk")

# The seed later gain claims must also hold on (see README.md). DEV_SEED is
# the one to iterate with; HELDOUT_SEED is kept out of tuning.
DEV_SEED = 1
HELDOUT_SEED = 1009

# A percentile is reported only if at least this many samples lie beyond it.
TAIL_SAMPLES = 10
PERCENTILE_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)  # highest first
RTT_TAIL = 90.0  # the tail the run must support: rtt_p90_ms

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# name -> (unit, better). Reported with --trace 0, on every workload.
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "delivery_ratio": ("ratio", "higher"),
    "rtt_p50_ms": ("ms", "lower"),
    "rtt_p90_ms": ("ms", "lower"),
    "goodput_bps": ("bps", "higher"),
}

# name -> (unit, better). Reported with --trace 1, on every workload.
PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.events_per_op": ("events/op", "lower"),
    "sim.pending_peak": ("count", "lower"),
    "sim.step_ns_p50": ("ns", "lower"),
    "sim.step_ns_p99": ("ns", "lower"),
    "sim.timer_host_ms": ("ms", "lower"),
    "sim.handoffs": ("count", "lower"),
    "radio.tx_frames": ("count", "lower"),
    "radio.fanout": ("ratio", "lower"),
    "radio.collision_ratio": ("ratio", "lower"),
    "radio.deferrals": ("count", "lower"),
    "radio.utilization": ("ratio", "lower"),
    "radio.host_ms": ("ms", "lower"),
    "serial.deliveries": ("count", "lower"),
    "serial.bytes_per_delivery": ("bytes/delivery", "higher"),
    "serial.overruns": ("count", "lower"),
    "serial.host_ms": ("ms", "lower"),
    "tnc.frames_to_host": ("count", "lower"),
    "tnc.fcs_errors": ("count", "lower"),
    "kiss.host_ms": ("ms", "lower"),
    "driver.interrupts": ("count", "lower"),
    "driver.useful_ratio": ("ratio", "higher"),
    "driver.output_drops": ("count", "lower"),
    "driver.host_ms": ("ms", "lower"),
    "ax25.host_ms": ("ms", "lower"),
    "lapb.i_frames_sent": ("count", "lower"),
    "lapb.resend_ratio": ("ratio", "lower"),
    "lapb.srej_sent": ("count", "lower"),
    "ip.forwarded": ("count", "lower"),
    "ip.drops": ("count", "lower"),
    "ip.host_ms": ("ms", "lower"),
    "gateway.host_ms": ("ms", "lower"),
    "ether.host_ms": ("ms", "lower"),
    "tcp.segments_sent": ("count", "lower"),
    "tcp.rexmit_ratio": ("ratio", "lower"),
    "tcp.spurious_rexmits": ("count", "lower"),
    "tcp.ui_goodput_bps": ("bps", "higher"),
    "tcp.vc_goodput_bps": ("bps", "higher"),
    "buf.copied_bytes_per_frame": ("bytes/frame", "lower"),
    "buf.allocs_per_frame": ("allocs/frame", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.run_s": ("s", "lower"),
    "bench.api_host_ms": ("ms", "lower"),
}

# Host-time buckets of a traced run; they tile its run time.
LAYER_TIME_METRICS = (
    "radio.host_ms", "ether.host_ms", "serial.host_ms", "kiss.host_ms",
    "driver.host_ms", "ax25.host_ms", "ip.host_ms", "gateway.host_ms",
    "sim.timer_host_ms",
)
# How far the layer times may miss the traced run's separately measured host
# time: the few calls outside the first and after the last step span.
LAYER_SUM_TOLERANCE_MS = 1.0
LAYER_SUM_TOLERANCE_SHARE = 1e-3


def valid_metric_name(name):
    return METRIC_NAME.fullmatch(name) is not None


def _rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(samples):
    """Highest of PERCENTILE_CANDIDATES with at least TAIL_SAMPLES of
    `samples` samples above it, or None when even the lowest has fewer."""
    for p in PERCENTILE_CANDIDATES:
        if samples > 0 and samples - _rank(samples, p) >= TAIL_SAMPLES:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


class PingAccount:
    """Echo outcomes. Resolved means answered or timed out; echoes still in
    flight when the run ends are counted apart, never as failures."""

    def __init__(self, sent, ok, failed):
        self.sent, self.ok, self.failed = sent, ok, failed

    @property
    def resolved(self):
        return self.ok + self.failed

    @property
    def in_flight(self):
        return self.sent - self.resolved

    def problems(self):
        out = []
        if min(self.sent, self.ok, self.failed) < 0:
            out.append("negative ping counter")
        if self.in_flight < 0:
            out.append("more pings resolved than sent")
        if self.resolved == 0:
            out.append("no ping resolved")
        return out

    def delivery_ratio(self):
        return self.ok / self.resolved if self.resolved else 0.0


def ping_account(sim):
    """Station pings and probes of one city repeat, together."""
    return PingAccount(sim["pings_sent"] + sim["probes_sent"],
                       sim["pings_ok"] + sim["probes_ok"],
                       sim["pings_failed"] + sim["probes_failed"])


def probe_account(sim):
    return PingAccount(sim["probes_sent"], sim["probes_ok"],
                       sim["probes_failed"])


def layer_sum_problem(traced):
    """A problem when the traced run's layer host times do not add up to its
    run time, measured around the whole run apart from the step spans."""
    total_ms = traced["run_s"] * 1e3
    layers_ms = sum(traced["host"][m] for m in LAYER_TIME_METRICS)
    tolerance = max(LAYER_SUM_TOLERANCE_MS, LAYER_SUM_TOLERANCE_SHARE * total_ms)
    if abs(layers_ms - total_ms) <= tolerance:
        return None
    return ("layer host times sum to %.3f ms, the traced run took %.3f ms"
            % (layers_ms, total_ms))


def operations(workload, sim):
    """(attempted, failed) operations of one repeat: pings and probes on the
    cities, transfers on bulk. A transfer fails when it is incomplete or its
    bytes differ from what was sent. An echo that times out is the modelled
    network's loss, reported by delivery_ratio, not a failed operation."""
    if workload == "bulk":
        return sim["transfers"], sim["transfers"] - sim["transfers_ok"]
    return sim["pings_sent"] + sim["probes_sent"], 0


def check(workload, repeats, traced=None):
    """Problems with the outputs of one run; empty when all checks hold."""
    problems = []
    first = repeats[0]["sim"]
    for r in repeats[1:]:
        if r["sim"] != first:
            problems.append("simulated outputs differ across repeats of one seed")
            break
    if traced is not None and traced["sim"] != first:
        problems.append("traced run's simulated outputs differ from the untraced run's")
    probes = probe_account(first)
    problems += probes.problems()
    if workload == "bulk":
        if first["transfers_ok"] != first["transfers"]:
            problems.append("a transfer is incomplete or corrupt")
    else:
        problems += ping_account(first).problems()
    tail = tail_percentile(probes.ok)
    if tail is None or tail < RTT_TAIL:
        problems.append("%d answered probes cannot support p%g"
                        % (probes.ok, RTT_TAIL))
    if end_to_end_sim(workload, first)["delivery_ratio"] <= 0:
        problems.append("the workload delivered nothing")
    if traced is not None:
        problem = layer_sum_problem(traced)
        if problem:
            problems.append(problem)
    return problems


def end_to_end_sim(workload, sim):
    """The simulated-time end-to-end metrics of one repeat (exact)."""
    rtt_ms = [ns / 1e6 for ns in sim["probe_rtt_ns"]]
    out = {
        "rtt_p50_ms": percentile(rtt_ms, 50) if rtt_ms else 0.0,
        "rtt_p90_ms": percentile(rtt_ms, RTT_TAIL) if rtt_ms else 0.0,
    }
    if workload == "bulk":
        # Probes ride alongside the transfers; the transfers carry the goodput.
        out["delivery_ratio"] = probe_account(sim).delivery_ratio()
        out["goodput_bps"] = sim["ui_goodput_bps"] + sim["vc_goodput_bps"]
    else:
        acct = ping_account(sim)
        out["delivery_ratio"] = acct.delivery_ratio()
        # Echo payload carried out and back by the answered echoes.
        out["goodput_bps"] = (acct.ok * 2 * sim["payload_bytes"] * 8
                              / (sim["sim_ns"] / 1e9))
    return out


def end_to_end(workload, repeats):
    """Every END_TO_END metric from the untraced repeats of one run."""
    values = end_to_end_sim(workload, repeats[0]["sim"])
    values["run_s"] = statistics.median(r["run_s"] for r in repeats)
    values["setup_s"] = statistics.median(
        s for r in repeats for s in r["setup_s"])
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in repeats)
    return values


def per_layer(repeats, traced):
    """Every PER_LAYER metric: counts from the traced run's module stats
    (equal to the untraced run's, which check() enforces), host times from
    its spans."""
    values = dict(traced["layer"])
    for name in LAYER_TIME_METRICS + ("sim.step_ns_p50", "sim.step_ns_p99",
                                      "bench.api_host_ms"):
        values[name] = traced["host"][name]
    untraced_s = statistics.median(r["run_s"] for r in repeats)
    values["trace.run_s"] = traced["run_s"]
    values["trace.overhead_ratio"] = values["trace.run_s"] / untraced_s
    return values


def result(values, table, correct, attempted, failed):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]}
                    for name in table},
    }


def fingerprint(build):
    """Host and build identity printed with every result. Wall-time figures
    compare only between equal fingerprints."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    warnings = []
    if not build.get("optimized"):
        warnings.append("non-optimised build")
    if build.get("sanitized"):
        warnings.append("sanitizer build")
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "compiler": build.get("compiler"),
        "build_type": build.get("build_type"),
        "warnings": warnings,
    }
