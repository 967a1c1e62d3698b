#!/bin/bash
# Sanitizer builds and test runs.
#
# ASan/UBSan stage: exercises every GF kernel dispatch path via the
# ECSTORE_GF_KERNEL override; the SIMD paths run the same ctest suites as
# the scalar path, unsupported paths are skipped.
#
# TSan stage: separate build (sanitizers don't compose) running the
# thread-racing suites against the concurrent LocalECStore data plane.
#
# Both stages include the chaos smoke (chaos_test): a seeded fault
# schedule that crashes/flaps/corrupts under concurrent MultiGet/Put and
# asserts zero data loss (DESIGN.md §9), including the overload storm
# (breaker arc + brownout recovery at ~2x saturation, DESIGN.md §14).
# They also run the sharded control-plane stress (shard_stress_test,
# DESIGN.md §10): MultiGet x Put x FailSite x movement rounds against
# shards=8 with a live ILP executor pool, and the overload-control suite
# (overload_test): breakers, CoDel admission, brownout ladder, and the
# shed/deadline integration in both embodiments. The ASan stage also runs
# the embodiment parity test (parity_test), the statistics and
# placement suites (stats_test, placement_test), whose co-access merge
# and plan-cost buffers are iterator arithmetic, and the simulator's
# golden decision digests (sim_golden_test), which must not move under
# a different allocator.
#
# The default test lists below are the single source: CI calls each
# stage with no regex override.
#
#   ./run_sanitizers.sh [asan|tsan|all] [ctest -R regex override]
set -eu

STAGE="${1:-all}"
status=0

run_asan() {
  local regex="${1:-gf_test|erasure_test|codec_family_test|core_test|cache_test|parity_test|fault_test|chaos_test|shard_stress_test|tail_test|overload_test|stats_test|placement_test|sim_golden_test}"
  local build=build-asan
  cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DECSTORE_SANITIZE=ON
  cmake --build "$build" -j"$(nproc)"
  for path in scalar ssse3 avx2; do
    echo "##### ECSTORE_GF_KERNEL=$path ctest -R '$regex'"
    if ! (cd "$build" && ECSTORE_GF_KERNEL="$path" ctest --output-on-failure -R "$regex"); then
      status=1
    fi
  done
}

run_tsan() {
  local regex="${1:-concurrency_test|codec_family_test|core_test|cache_test|fault_test|chaos_test|shard_stress_test|tail_test|overload_test}"
  local build=build-tsan
  cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DECSTORE_TSAN=ON
  cmake --build "$build" -j"$(nproc)"
  echo "##### TSan ctest -R '$regex'"
  if ! (cd "$build" && ctest --output-on-failure -R "$regex"); then
    status=1
  fi
}

case "$STAGE" in
  asan) run_asan "${2:-}" ;;
  tsan) run_tsan "${2:-}" ;;
  all)
    run_asan "${2:-}"
    run_tsan "${2:-}"
    ;;
  *)
    # Back-compat: a bare regex as $1 means "asan with this regex".
    run_asan "$STAGE"
    ;;
esac
exit $status
