#!/bin/sh
# CI job: a repeated release pass on all cores, then the test suite under
# ASan+UBSan and TSan (presets in CMakePresets.json). TSan is what keeps
# the lock-free paths honest — sharded_counter stripes, concurrent
# histogram records, the trace and span rings, slab refcounts, the flight
# recorder and the sampling profiler's signal rings.
#
#   tools/ci_sanitizers.sh [asan|tsan]    # default: the release gate, then both
set -e
cd "$(dirname "$0")/.."

# Multi-core gate: the release suite twenty times over, four binaries at a
# time, so a test that only passes when its threads happen to interleave
# one way fails here instead of on someone else's machine.
run_repeat() {
  echo "== release: configure + build =="
  cmake --preset release
  cmake --build --preset release -j
  echo "== release: tier-1, repeated until-fail:20 with -j4 =="
  ctest --preset release --repeat until-fail:20 -j4
}

run_preset() {
  preset="$1"
  echo "== $preset: configure =="
  cmake --preset "$preset"
  echo "== $preset: build =="
  cmake --build --preset "$preset" -j
  echo "== $preset: test =="
  ctest --preset "$preset" -j
  # Fault matrix: the failover/liveness/shedding scenarios re-run focused.
  # Crash-restart, partition-heal, and slow-path saturation exercise the
  # teardown/retry edges (pipe erasure while probes are in flight, shed
  # verdicts installed mid-batch) where lifetime and ordering bugs hide.
  echo "== $preset: fault matrix (focused) =="
  ctest --preset "$preset" -R 'failover_test|simnet_test' --output-on-failure
  # Path tracing (ISSUE 5): the span recorders are SPSC rings, and the
  # collector is ingested from several threads while an operator
  # assembles (trace_collector_test) — tsan's bread and butter. Plus the
  # end-to-end path_trace scenarios.
  echo "== $preset: path tracing (focused) =="
  ctest --preset "$preset" -R 'trace_collector_test|path_trace_test' --output-on-failure
  # Zero-copy datapath (ISSUE 6): slab refcounts crossing threads and SPSC
  # rings (buf_pool_test's handoff/concurrent cases are the tsan targets),
  # plus the real-socket transport — the one recvmmsg rx path, in-place
  # decrypt windows over pool slabs, view lifetimes through the event loop,
  # and the SN forwarding out of those slabs with gather sendmsg.
  echo "== $preset: slab pool + transport (focused) =="
  ctest --preset "$preset" -R 'buf_pool_test|net_test' --output-on-failure
  # SLO health plane (ISSUE 7): the flight recorder's multi-producer
  # seqlock ring with a racing snapshot reader and a mid-run freeze is the
  # tsan target (health_test); the end-to-end binary drives the burn-rate
  # page path into a black-box freeze.
  echo "== $preset: health plane + flight recorder (focused) =="
  ctest --preset "$preset" -R 'health_test|slo_health_test' --output-on-failure
  # Profiling plane (ISSUE 10): an async-signal handler writing per-thread
  # SPSC rings while the control thread drains and tears threads down.
  # ConcurrentSamplingDrainAndTeardown fires live SIGPROF at 1993Hz into
  # spinning workers under concurrent drain — tsan proves the handler
  # touches nothing but the ring's atomics and its slot memory, asan that
  # teardown never races a late signal into freed memory.
  echo "== $preset: sampling profiler (focused) =="
  ctest --preset "$preset" -R prof_test --output-on-failure
  # Scenario engine (ISSUE 9): the adversarial + churn suites drive every
  # subsystem at once on the simulator's one thread — flood-driven shed,
  # cache purges on protect/allow and peer-down, liveness teardown with
  # traffic in flight during mobility_churn's crash, and the observability
  # push path mid-page. asan owns those lifetime edges (pipes torn down
  # with packets in flight).
  echo "== $preset: scenario suites (focused) =="
  ctest --preset "$preset" -R scenario_test --output-on-failure
}

case "${1:-all}" in
  asan) run_preset asan ;;
  tsan) run_preset tsan ;;
  all)
    run_repeat
    run_preset asan
    run_preset tsan
    ;;
  *) echo "usage: $0 [asan|tsan]" >&2; exit 2 ;;
esac
