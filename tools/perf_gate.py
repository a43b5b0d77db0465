#!/usr/bin/env python3
"""Perf-smoke gate for the BENCH_*.json documents CI produces.

Each document is dispatched on its "name" field to a per-bench checker,
so one invocation can gate the whole perf-smoke artifact set:

  perf_gate.py BENCH_micro_dsp.json BENCH_fleet.json BENCH_stream.json

micro_dsp — fails (exit 1) when a pinned speedup floor is violated:

  * per-kernel SIMD speedups (seed-style scalar loop vs dispatched kernel)
    are enforced only when the bench dispatched a SIMD table
    (simd_isa != 0) — a scalar-only host trivially passes;
  * the block channel-noise speedup (kern_awgn_speedup, per-sample
    std::normal_distribution loop vs dsp::add_awgn) is enforced on every
    host — the scalar table's block generator clears it as well as the
    SIMD noise kernels;
  * the 256^2 FDTD step's CPU time per step at 4 workers over 1 worker
    (fdtd_256_step_cpu_growth_4t: CLOCK_THREAD_CPUTIME_ID summed over the
    caller and the pool's workers) must stay under a ceiling on every host
    — it measures contention, which does not depend on the host granting
    the workers their own cores; the wall speedup
    (fdtd_256_step_speedup_4t) is reported, not gated;
  * the receiver front-end speedup (front_end_speedup: the fused
    mix/lowpass/decimate front end with its prefix-plus-Goertzel carrier
    search vs the full-rate reference chain on a ~96k-sample capture — the
    whole-window carrier estimate, then the same mixer and lowpass at every
    sample with every 62nd kept) is enforced on every host — it comes from
    computing 1/62 of the samples, not from SIMD — and decode_valid must be
    1 (that capture decoded to the sent payload).

fleet — gates the sharded fleet engine + telemetry serving layer:

  * aggregates_match must be 1 on every host (the 1-thread and hw-thread
    fleets produced byte-identical aggregate fingerprints — determinism is
    not a perf property, so it is never skipped);
  * the ingest's CPU time per node-read at 4 workers over 1 worker
    (ingest_cpu_growth_4t) must stay under a ceiling on every host: the
    shards share no mutable state, so their CPU cost must not grow with
    the worker count. The wall scaling (ingest_scaling) is reported, not
    gated: a container that does not reliably get its cores measured it
    anywhere from 0.94 to 3.5 on unchanged code;
  * concurrent query throughput floors are enforced only when
    hw_threads >= 4.

stream — gates the clocked streaming transceiver:

  * stream_deterministic must be 1 on every host (every block size of the
    sweep delivered byte-identical telemetry — again never skipped);
  * the real-time factor (simulated seconds per wall second of the daemon's
    block-256 headline run) must be >= STREAM_RTF_FLOOR on every host:
    the streaming reader keeps up with a live ADC at fs with margin, on one
    thread.

runtime — gates the self-healing fleet runtime (DaemonSupervisor):

  * recovery_deterministic must be 1 on every host (the chaos run's final
    TelemetryStore is byte-identical per node to the crash-free run —
    determinism bits are never skipped), as must drops_accounted_exactly
    (pushed == collected + dropped under collector overload);
  * the worst-case recovery latency ceiling and the overload drop-rate
    ceiling are enforced only when hw_threads >= 4 — a 1-core container
    timeshares the daemon, watchdog, and collector threads, so its wall
    timings say nothing about the runtime.

Floors are pinned well below locally measured values (see docs/benchmarks.md)
so scheduler noise on shared CI runners doesn't flake the gate, while a real
regression — a kernel silently falling back to the seed loop, the FDTD bands
or the fleet shards starting to contend, or the streaming pipeline dropping
below real time — still trips it.

A gated metric that is absent from its document fails with a per-key message
(never a traceback), as does a non-numeric value where a number is expected.

Usage: perf_gate.py BENCH_foo.json [BENCH_bar.json ...]
       perf_gate.py --list-floors
"""

import json
import numbers
import sys

# Kernel speedup floors (measured on AVX2: fir 3.7x, correlate 4.9x,
# dot 3.7x, onepole 2.5x, envelope 2.5x, fdtd_stress 1.6x,
# fdtd_velocity 1.4x, sine ~4x, polar 3.3-4.3x, biquad 2.6-3.9x — the
# M = 4 look-ahead form against the direct-form-I loop, floor at 60% of
# its ~3.3x median).
KERNEL_FLOORS = {
    "kern_dot_speedup": 2.0,
    "kern_fir_speedup": 2.0,
    "kern_correlate_speedup": 2.0,
    "kern_onepole_speedup": 1.5,
    "kern_envelope_speedup": 1.5,
    "kern_fdtd_stress_speedup": 1.2,
    "kern_fdtd_velocity_speedup": 1.1,
    "kern_biquad_speedup": 2.0,
    "kern_sine_speedup": 2.0,
    "kern_polar_speedup": 2.0,
}

# CPU time per 256^2 FDTD step at 4 workers over 1 (measured 1.47-1.63 on
# a 4-core container, 1.02-1.05 with all four workers on one core: the
# per-step band hand-off costs cross-core wake-ups and cache traffic).
FDTD_CPU_GROWTH_CEILING = ("fdtd_256_step_cpu_growth_4t", 2.5)

# Receiver front end vs the full-rate reference chain on the ~96k-sample
# default-system capture (measured 11.0-11.5x on a 4-core AVX2 container).
FRONT_END_FLOOR = ("front_end_speedup", 3.0)

# Block channel noise vs the per-sample std::normal_distribution loop
# (measured 3.9-4.5x with the AVX2 twist and polar kernels, 2.65-2.8x on
# the scalar table, 2.2-2.5x before the kernels). The floor is 60% of the
# AVX2 figure and still clears the scalar table, so it is enforced on every
# host.
AWGN_FLOOR = ("kern_awgn_speedup", 2.4)

# Fleet ingest CPU time per node-read at 4 workers over 1 (measured
# 0.98-1.19 on a 4-core container and 1.02-1.04 on one core).
FLEET_CPU_GROWTH_CEILING = ("ingest_cpu_growth_4t", 1.5)
# Concurrent serving floors while the hw-thread ingest is running
# (measured ~300k queries/sec from a single query thread).
FLEET_QUERIES_PER_SEC_FLOOR = 10_000.0
FLEET_INGEST_UNDER_QUERY_FLOOR = 50_000.0

# Streaming real-time factor floor, on the block-256 run the
# daemons use (one thread, so enforced on every host). bench_stream's
# real_time_factor measured 4.7-4.9 before the decimating receiver front
# end, 5.8-10 after it, and 8.3 with the state-only uplink outside capture
# windows (6.8 on the scalar kernel table), on a 4-core AVX2 container in
# Release; 4 is about half of that, so it still holds on the scalar table
# and catches the decoder or a stream stage sliding back.
STREAM_RTF_FLOOR = 4.0

# Self-healing runtime ceilings (checked only on >= 4-thread hosts).
# Recovery latency measured ~9 ms worst-case on a loaded 1-core container
# (join the dead thread, rebuild the reader, resume the checkpoint, respawn)
# — 500 ms leaves two orders of magnitude for runner noise while still
# catching a restart path that starts re-deriving state from scratch.
RUNTIME_RECOVERY_MS_CEILING = 500.0
# Under the bench's total collector outage the drop-oldest ring must shed
# load instead of blocking the daemon, but the final drain still collects
# the ring's residue — a drop rate of 1.0 would mean the accounting or the
# drain is broken.
RUNTIME_DROP_RATE_CEILING = 0.999


def check_floor(metrics, key, floor, failures, path):
    """Append a per-key failure when `key` is missing, non-numeric, or
    below `floor`. Never raises on malformed documents."""
    if key not in metrics:
        failures.append(
            f"{key}: gated metric missing from {path} "
            f"(expected a number >= {floor})")
        return
    value = metrics[key]
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        failures.append(
            f"{key}: expected a number >= {floor}, got {value!r} in {path}")
    elif value < floor:
        failures.append(f"{key}: {value:.3f} < floor {floor}")


def check_ceiling(metrics, key, ceiling, failures, path):
    """Like check_floor, but the metric must stay at or below `ceiling`."""
    if key not in metrics:
        failures.append(
            f"{key}: gated metric missing from {path} "
            f"(expected a number <= {ceiling})")
        return
    value = metrics[key]
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        failures.append(
            f"{key}: expected a number <= {ceiling}, got {value!r} in {path}")
    elif value > ceiling:
        failures.append(f"{key}: {value:.3f} > ceiling {ceiling}")


def check_flag(metrics, key, failures, path, meaning):
    """A determinism bit: must be present and exactly 1 on every host."""
    if key not in metrics:
        failures.append(
            f"{key}: gated metric missing from {path} (expected 1: {meaning})")
    elif metrics[key] != 1:
        failures.append(f"{key}: {meaning} in {path}")


def gate_micro_dsp(metrics, path, failures):
    simd_isa = metrics.get("simd_isa", 0)
    if simd_isa != 0:
        for key, floor in KERNEL_FLOORS.items():
            check_floor(metrics, key, floor, failures, path)
    else:
        print("perf_gate: scalar-only host (simd_isa=0); "
              "kernel speedup floors skipped")

    for key, floor in (AWGN_FLOOR, FRONT_END_FLOOR):
        check_floor(metrics, key, floor, failures, path)
    check_flag(metrics, "decode_valid", failures, path,
               "the default-system capture did not decode to its payload")

    key, ceiling = FDTD_CPU_GROWTH_CEILING
    check_ceiling(metrics, key, ceiling, failures, path)
    return sorted(KERNEL_FLOORS) + [
        AWGN_FLOOR[0], FRONT_END_FLOOR[0], "decode_valid",
        "decode_ms_per_window", "awgn_block_ns_per_sample",
        "awgn_block256_ns_per_sample", FDTD_CPU_GROWTH_CEILING[0],
        "fdtd_256_step_speedup_4t"]


def gate_fleet(metrics, path, failures):
    # Determinism is enforced unconditionally — a single-core host can and
    # must still produce byte-identical 1-thread vs hw-thread aggregates.
    check_flag(metrics, "aggregates_match", failures, path,
               "fleet aggregates not bit-identical across thread counts")

    key, ceiling = FLEET_CPU_GROWTH_CEILING
    check_ceiling(metrics, key, ceiling, failures, path)

    hw_threads = metrics.get("hw_threads", 0)
    if hw_threads >= 4:
        check_floor(metrics, "queries_per_sec_concurrent",
                    FLEET_QUERIES_PER_SEC_FLOOR, failures, path)
        check_floor(metrics, "ingest_reads_per_sec_under_query",
                    FLEET_INGEST_UNDER_QUERY_FLOOR, failures, path)
    else:
        print(f"perf_gate: only {hw_threads:.0f} hardware threads; "
              "fleet serving floors skipped")
    return [FLEET_CPU_GROWTH_CEILING[0], "ingest_cpu_ns_per_read_1t",
            "ingest_cpu_ns_per_read_4t", "ingest_scaling",
            "ingest_reads_per_sec_1t",
            "ingest_reads_per_sec_mt", "ingest_reads_per_sec_under_query",
            "queries_per_sec_concurrent", "aggregates_match"]


def gate_stream(metrics, path, failures):
    # Bit-identical telemetry across block sizes is the streaming contract;
    # like the fleet determinism bit it holds on any host.
    check_flag(metrics, "stream_deterministic", failures, path,
               "streamed telemetry not bit-identical across block sizes")

    check_floor(metrics, "real_time_factor", STREAM_RTF_FLOOR, failures,
                path)
    return ["real_time_factor", "rtf_inline_256", "stream_deterministic",
            "delivered", "missed"]


def gate_runtime(metrics, path, failures):
    # The two correctness bits hold on any host: byte-identical recovery and
    # exact drop accounting are determinism properties, not perf.
    check_flag(metrics, "recovery_deterministic", failures, path,
               "chaos-run telemetry not byte-identical to the "
               "crash-free run")
    check_flag(metrics, "drops_accounted_exactly", failures, path,
               "overload events not balanced (pushed != collected + dropped)")

    hw_threads = metrics.get("hw_threads", 0)
    if hw_threads >= 4:
        check_ceiling(metrics, "recovery_latency_ms_max",
                      RUNTIME_RECOVERY_MS_CEILING, failures, path)
        check_ceiling(metrics, "overload_drop_rate",
                      RUNTIME_DROP_RATE_CEILING, failures, path)
    else:
        print(f"perf_gate: only {hw_threads:.0f} hardware threads; "
              "runtime recovery-latency/drop-rate ceilings skipped")
    return ["recovery_deterministic", "drops_accounted_exactly",
            "recovery_latency_ms_mean", "recovery_latency_ms_max",
            "restarts", "watchdog_kicks", "overload_drop_rate"]


GATES = {
    "micro_dsp": gate_micro_dsp,
    "fleet": gate_fleet,
    "stream": gate_stream,
    "runtime": gate_runtime,
}


def list_floors() -> int:
    """Print every gate's floors and the condition under which each is
    enforced, then exit 0 — so a CI log or a curious contributor can see
    the bar without reading the source."""
    print("micro_dsp (BENCH_micro_dsp.json):")
    for key in sorted(KERNEL_FLOORS):
        print(f"  {key:32s} >= {KERNEL_FLOORS[key]:<6g} [simd_isa != 0]")
    for key, floor in (AWGN_FLOOR, FRONT_END_FLOOR):
        print(f"  {key:32s} >= {floor:<6g} [always]")
    print(f"  {'decode_valid':32s} == 1      [always]")
    key, ceiling = FDTD_CPU_GROWTH_CEILING
    print(f"  {key:32s} <= {ceiling:<6g} [always]")
    print("fleet (BENCH_fleet.json):")
    print(f"  {'aggregates_match':32s} == 1      [always]")
    key, ceiling = FLEET_CPU_GROWTH_CEILING
    print(f"  {key:32s} <= {ceiling:<6g} [always]")
    print(f"  {'queries_per_sec_concurrent':32s} >= "
          f"{FLEET_QUERIES_PER_SEC_FLOOR:<6g} [hw_threads >= 4]")
    print(f"  {'ingest_reads_per_sec_under_query':32s} >= "
          f"{FLEET_INGEST_UNDER_QUERY_FLOOR:<6g} [hw_threads >= 4]")
    print("stream (BENCH_stream.json):")
    print(f"  {'stream_deterministic':32s} == 1      [always]")
    print(f"  {'real_time_factor':32s} >= {STREAM_RTF_FLOOR:<6g} "
          "[always]")
    print("runtime (BENCH_runtime.json):")
    print(f"  {'recovery_deterministic':32s} == 1      [always]")
    print(f"  {'drops_accounted_exactly':32s} == 1      [always]")
    print(f"  {'recovery_latency_ms_max':32s} <= "
          f"{RUNTIME_RECOVERY_MS_CEILING:<6g} [hw_threads >= 4]")
    print(f"  {'overload_drop_rate':32s} <= {RUNTIME_DROP_RATE_CEILING:<6g} "
          "[hw_threads >= 4]")
    return 0


def main(paths) -> int:
    failures = []
    report = []  # (doc name, metric key, value) for the PASS summary
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            failures.append(f"{path}: unreadable bench document ({e})")
            continue
        metrics = doc.get("metrics", doc)
        name = doc.get("name", "")
        gate = GATES.get(name)
        if gate is None:
            failures.append(f"{path}: no gate registered for bench '{name}'")
            continue
        for key in gate(metrics, path, failures):
            if key in metrics:
                report.append((name, key, metrics[key]))

    if failures:
        print("perf_gate: FAIL")
        for f_ in failures:
            print(f"  {f_}")
        return 1

    print("perf_gate: PASS")
    for name, key, value in report:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            print(f"  {name}.{key} = {value:.3f}")
        else:
            print(f"  {name}.{key} = {value!r}")
    return 0


if __name__ == "__main__":
    if "--list-floors" in sys.argv[1:]:
        sys.exit(list_floors())
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
