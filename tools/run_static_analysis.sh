#!/usr/bin/env bash
# Static analysis driver for OpenDMX.
#
# Eight gates, all expected to pass clean (keep this list in sync with the
# gate table in README.md — lint_rule_coverage.py counts both):
#   1. The project-invariant linter (tools/dmx_lint.py): no raw sync/file
#      primitives outside the seams, WithContext on boundary Status returns,
#      the hot-path rules — plus its own self-test against the seeded
#      fixtures.
#   2. A full -Werror build (-Wall -Wextra -Wpedantic, DMX_WERROR=ON, which
#      also promotes ignored [[nodiscard]] Status/Result to errors).
#   3. Clang Thread Safety Analysis: a clang build with
#      -Werror=thread-safety, verifying the lock regime annotations
#      (GUARDED_BY / REQUIRES / ...) machine-check. Skipped without clang.
#   4. clang-tidy over every translation unit, using the curated check set
#      in .clang-tidy with WarningsAsErrors enabled. Skipped without
#      clang-tidy.
#   5. The dynamic lock-regime verification (DESIGN.md §11): the full test
#      suite built with -DDMX_DEBUG_LOCKS=ON — runtime lockdep (lock-order
#      graph, real Assert*Held ownership checks) plus the deterministic
#      schedule explorer sweeping seed-enumerated interleavings. Any lock
#      ordering the static gates cannot see trips here.
#   6. Fuzz smoke (DESIGN.md §12): the three fuzz targets built under
#      -DDMX_FUZZ=ON with ASan, each replaying the committed corpus and
#      fixed findings plus a short grammar-mutation run. The full
#      time-budgeted campaign lives in tools/run_fuzz.sh; this gate keeps
#      the harness building and the oracles green.
#   7. Hot-path hygiene (DESIGN.md §14): an allocation-counting build
#      (-DDMX_ALLOC_STATS=ON) running the AllocStats unit tests and the
#      allocation-budget regression tests, locking per-operation allocs/row
#      ceilings over the dmx-hot-marked loops that gate 1 checks statically.
#   8. Whole-program deep lint (DESIGN.md §15, tools/dmx_deep_lint.py): a
#      project-wide call-graph analysis — blocking calls transitively
#      reachable under the catalog lock, row-scale loops reachable from
#      Execute with no guard checkpoint in their cycle (the one
#      guard-reachability rule), views escaping
#      their owning frame. Consumes gate 2's compile_commands.json for its
#      clang AST frontend when clang is present; otherwise its internal
#      token-stream frontend covers the tree.
#
# This script runs every gate locally in one go. The clang gates are skipped
# (with a notice) in minimal containers. CI does not call it: each gate runs
# in exactly one CI job, named in the README gate table.
#
# Usage: tools/run_static_analysis.sh [build-dir]   (default: build-lint)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-lint}"

echo "== Gate 1: dmx_lint (project invariants) =="
python3 tools/dmx_lint.py --self-test
python3 tools/dmx_lint.py

echo
echo "== Gate 2: -Werror build =="
cmake -B "$BUILD_DIR" -S . \
  -DDMX_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"
echo "-Werror build: clean"

echo
echo "== Gate 3: clang thread-safety analysis =="
CLANGXX="$(command -v clang++ || true)"
if [[ -z "$CLANGXX" ]]; then
  echo "clang++ not found on PATH; skipping thread-safety gate." >&2
  echo "Install clang (or run in CI) for full coverage." >&2
else
  cmake -B "$BUILD_DIR-tsa" -S . \
    -DCMAKE_CXX_COMPILER="$CLANGXX" \
    -DCMAKE_CXX_FLAGS="-Werror=thread-safety" >/dev/null
  cmake --build "$BUILD_DIR-tsa" -j "$(nproc)"
  echo "thread-safety analysis: clean"
fi

echo
echo "== Gate 4: clang-tidy =="
TIDY="$(command -v clang-tidy || true)"
if [[ -z "$TIDY" ]]; then
  echo "clang-tidy not found on PATH; skipping tidy gate." >&2
  echo "Install clang-tidy (or run in CI) for full coverage." >&2
else
  # run-clang-tidy parallelises across the compilation database when present;
  # otherwise fall back to invoking clang-tidy per file.
  RUNNER="$(command -v run-clang-tidy || command -v run-clang-tidy.py || true)"
  mapfile -t SOURCES < <(git ls-files 'src/**/*.cc' 'tools/*.cpp' \
                                      'examples/*.cc' 'bench/*.cc' \
                                      'tests/*.cc')
  if [[ -n "$RUNNER" ]]; then
    "$RUNNER" -p "$BUILD_DIR" -quiet "${SOURCES[@]}"
  else
    "$TIDY" -p "$BUILD_DIR" --quiet "${SOURCES[@]}"
  fi
  echo "clang-tidy: clean"
fi

echo
echo "== Gate 5: dynamic lock-regime verification (lockdep + explorer) =="
cmake -B "$BUILD_DIR-lockdep" -S . -DDMX_DEBUG_LOCKS=ON >/dev/null
cmake --build "$BUILD_DIR-lockdep" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR-lockdep" --output-on-failure -j "$(nproc)"
echo "lockdep suite: clean"

echo
echo "== Gate 6: fuzz smoke (corpus replay + short mutation run) =="
tools/run_fuzz.sh "${FUZZ_SMOKE_SECONDS:-10}" "$BUILD_DIR-fuzz"
echo "fuzz smoke: clean"

echo
echo "== Gate 7: allocation budgets (DMX_ALLOC_STATS build) =="
cmake -B "$BUILD_DIR-alloc" -S . -DDMX_ALLOC_STATS=ON >/dev/null
cmake --build "$BUILD_DIR-alloc" -j "$(nproc)" \
  --target alloc_stats_test alloc_budget_test
ctest --test-dir "$BUILD_DIR-alloc" --output-on-failure \
  -R 'AllocStats|AllocBudget'
echo "allocation budgets: clean"

echo
echo "== Gate 8: whole-program deep lint (call-graph analysis) =="
python3 tools/dmx_deep_lint.py --self-test
python3 tools/dmx_deep_lint.py \
  --compdb "$BUILD_DIR/compile_commands.json" \
  --cache-dir "$BUILD_DIR/ast-cache"
echo "deep lint: clean"
