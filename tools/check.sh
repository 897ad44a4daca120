#!/usr/bin/env bash
# The one-command pre-merge gate: configures, builds, and runs the full
# test suite for every gate preset in sequence. Every label suite
# (lint, obs, robustness, snapshot, serving, ingest, deadlock, perf)
# runs inside these sweeps; `ctest -L <label>` in a build tree runs one
# alone. Presets, in order:
#   default       — the tier-1 suite plus soi-lint and the perf smoke
#                   (which runs serially, see bench/CMakeLists.txt),
#   check         — the static-analysis build (Clang thread-safety as
#                   -Werror; on non-Clang compilers the annotations are
#                   no-ops and the preset degrades to a plain rebuild),
#   ubsan         — the full suite under UBSan with
#                   -fno-sanitize-recover=all (any finding aborts),
#   tsan          — the full suite under ThreadSanitizer (perf smoke
#                   excluded: sanitizer timings would trip the scaling
#                   floors),
#   fault         — fault-injection hooks armed under ASan+UBSan (the
#                   fault cases of the snapshot, serving and ingest
#                   suites run fully here),
#   deadlock      — the full suite with the runtime lock-order graph
#                   armed and fatal-on-violation (the report-clean gate),
#   tsan-deadlock — the same suite with TSan watching the lock-graph
#                   instrumentation itself for races.
#
# Every step streams its output and also logs to $LOG_DIR/<step>.log.
# On the first failing step the script prints the pass/fail summary
# table and the failing step's log path, then exits with that step's
# status — explicitly, not via `set -e` fallout, so the table and the
# pointer always appear.
# Usage: tools/check.sh [extra ctest args...]
set -uo pipefail

cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
LOG_DIR="${SOI_CHECK_LOG_DIR:-.check-logs}"
mkdir -p "$LOG_DIR"

EXTRA_CTEST_ARGS=("$@")

STEP_NAMES=()
STEP_RESULTS=()

print_summary() {
  echo
  echo "==== check.sh summary ===="
  printf '%-28s %s\n' "step" "result"
  printf '%-28s %s\n' "----" "------"
  local i
  for i in "${!STEP_NAMES[@]}"; do
    printf '%-28s %s\n' "${STEP_NAMES[$i]}" "${STEP_RESULTS[$i]}"
  done
}

run_step() {
  local name="$1"
  shift
  local log="$LOG_DIR/$name.log"
  echo "==== [$name] ===="
  local status=0
  "$@" 2>&1 | tee "$log" || status=$?
  if [ "$status" -eq 0 ]; then
    STEP_NAMES+=("$name")
    STEP_RESULTS+=("pass")
  else
    STEP_NAMES+=("$name")
    STEP_RESULTS+=("FAIL (exit $status)")
    print_summary
    echo
    echo "check.sh: FAILED at step '$name'; full log: $log" >&2
    exit "$status"
  fi
}

for preset in default check ubsan tsan fault deadlock tsan-deadlock; do
  run_step "$preset-configure" cmake --preset "$preset"
  run_step "$preset-build" cmake --build --preset "$preset" -j "$JOBS"
  run_step "$preset-test" ctest --preset "$preset" -j "$JOBS" \
      --output-on-failure ${EXTRA_CTEST_ARGS[@]+"${EXTRA_CTEST_ARGS[@]}"}
done

print_summary
echo
echo "==== all presets green ===="
