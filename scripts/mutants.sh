#!/usr/bin/env bash
# Mutation checks: proof that the equivalence and golden tests bite.
#
# Each entry below is one mutant: a one-line edit to one source file
# and the tests that must catch it.  The script checks out the working
# tree's tracked files (`git stash create`, or HEAD when nothing is
# edited) into a scratch git worktree under $TMPDIR, configures it once,
# and for every mutant applies the edit, rebuilds only the test binary
# the entry names, runs each named test on its own and restores the
# file.  A mutant is killed when every named test fails.  The script
# exits non-zero if any mutant survives, if an edit no longer matches
# its file exactly once, or if a mutant does not build; it then keeps
# its logs in the scratch directory, which a clean run removes.
#
# A change that claims "the test bites" adds its mutant here.  The run
# rebuilds a dozen test binaries and takes minutes, so it belongs in a
# manual or tier-2 run, never in tier 1.
#
# Usage: scripts/mutants.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
rev="$(git -C "${repo_root}" stash create)"
rev="${rev:-HEAD}"
jobs="$(nproc)"

names=() files=() olds=() news=() binaries=() filters=()
# mutant NAME FILE OLD NEW TEST_BINARY GTEST_FILTER
mutant() {
  names+=("$1") files+=("$2") olds+=("$3") news+=("$4")
  binaries+=("$5") filters+=("$6")
}

# --- the fault sampler and its salts (golden ledger) -----------------
mutant "stuck values drawn from fork(0x58)" \
  src/sim/fault_draw.cpp \
  'Rng values = stream_.fork(0x57);' \
  'Rng values = stream_.fork(0x58);' \
  faultsim_golden_ledger_test 'Grids/GoldenLedger.*'
mutant "per-index salts << 9" \
  src/sim/fault_draw.hpp \
  '(static_cast<std::uint64_t>(index) << 8));' \
  '(static_cast<std::uint64_t>(index) << 9));' \
  faultsim_golden_ledger_test 'Grids/GoldenLedger.*TileMix*'

# --- counted bursts ---------------------------------------------------
# TileLink's counted read logs the burst, then the remainder after each
# uncorrectable word its shared-memory burst located.
mutant "TileLink logs the burst once" \
  src/multitile/tiled_platform.cpp \
  'for (const std::uint32_t i : uncorrectable_at_)' \
  'for (const std::uint32_t i : std::vector<std::uint32_t>{})' \
  multitile_test 'TileLink.*'
mutant "TileLink re-requests one word too many" \
  src/multitile/tiled_platform.cpp \
  'if (i + 1 < n) log_range(word_index + i + 1, n - i - 1);' \
  'if (i + 1 < n) log_range(word_index + i, n - i);' \
  multitile_test 'TileLink.*'
mutant "TileLink skips the first remainder" \
  src/multitile/tiled_platform.cpp \
  'if (i + 1 < n) log_range(word_index + i + 1, n - i - 1);' \
  'if (i + 1 < n && i != uncorrectable_at_.front()) log_range(word_index + i + 1, n - i - 1);' \
  multitile_test 'TileLink.CountedReadMatchesAPerWordReference'
mutant "EccMemory drops the count" \
  src/sim/ecc_memory.cpp \
  'uncorrectable = stats_.uncorrectable_words - before;' \
  'uncorrectable = 0;' \
  sim_burst_test 'EccBurstCounted.CountsEveryUncorrectableWord'
mutant "MemoryPort default drops the count" \
  src/sim/memory_port.cpp \
  'if (word_status == AccessStatus::DetectedUncorrectable) ++uncorrectable;' \
  'if (word_status == AccessStatus::DetectedUncorrectable) {}' \
  sim_burst_test 'EccBurstCounted.CountsEveryUncorrectableWord'

# --- telemetry counters -------------------------------------------------
# The Prometheus flip and ECC counters count per-word accesses as well
# as bursts, so they do not depend on the path an array takes.
mutant "per-word reads stop counting flips" \
  src/sim/sram_module.cpp \
  'NTC_TELEM_COUNT("ntc_sram_injected_read_flips_total", bits);' \
  '(void)bits;' \
  telemetry_test 'TelemetryTest.PerWordAndBurstAccessesCountTheSameFlips'
mutant "EccMemory's per-word read stops counting corrections" \
  src/sim/ecc_memory.cpp \
  'NTC_TELEM_COUNT("ntc_ecc_corrected_words_total", 1);' \
  '{}' \
  telemetry_test 'TelemetryTest.PerWordAndBurstReadsCountTheSameEccWords'
mutant "SharedMemory's per-word read stops counting double errors" \
  src/multitile/shared_memory.cpp \
  'NTC_TELEM_COUNT("ntc_ecc_uncorrectable_words_total", 1);' \
  '{}' \
  telemetry_test 'TelemetryTest.PerWordAndBurstReadsCountTheSameEccWords'

# --- banked bursts and the arbiter replay -----------------------------
mutant "a bank's burst run starts one offset late (per-word walk)" \
  src/multitile/banked_memory.cpp \
  'run.first = map(w).offset;' \
  'run.first = map(w).offset + 1;' \
  multitile_test 'BankedBurst.MatchesThePerWordWalk'
mutant "a bank's burst run starts one offset late (golden ledger)" \
  src/multitile/banked_memory.cpp \
  'run.first = map(w).offset;' \
  'run.first = map(w).offset + 1;' \
  faultsim_golden_ledger_test 'Grids/GoldenLedger.*TileMix4x4*'
mutant "a tie goes to the later tile (modulo-scan reference)" \
  src/multitile/arbiter.cpp \
  'if (clock[t] < best) {' \
  'if (clock[t] <= best) {' \
  multitile_test 'Arbiter.EndEpochMatchesTheModuloScanReference'
mutant "a tie goes to the later tile (golden ledger)" \
  src/multitile/arbiter.cpp \
  'if (clock[t] < best) {' \
  'if (clock[t] <= best) {' \
  faultsim_golden_ledger_test 'Grids/GoldenLedger.*TileMix4x4*'

# --- the retention pass -----------------------------------------------
mutant "retention candidate limit halved" \
  src/reliability/model_tables.cpp \
  'limit = std::exp(-0.5 * radius * radius) * (1.0 + 1e-6);' \
  'limit = std::exp(-0.5 * radius * radius) * (1.0 + 1e-6) / 2;' \
  reliability_model_tables_test \
  'RetentionFailingCells.MatchesEagerDraw:SharedTablesTest.*'
mutant "retention pair walk one deviate late" \
  src/reliability/model_tables.cpp \
  'Rng pair = at_pair;' \
  'Rng pair = at_pair; (void)pair.normal();' \
  reliability_model_tables_test \
  'RetentionFailingCells.MatchesEagerDraw:SharedTablesTest.*'
mutant "a lower supply filters the old failing list" \
  src/sim/fault_draw.cpp \
  'if (vdd.value < failing_vdd_) {' \
  'if (vdd.value < failing_vdd_ && failing_.empty()) {' \
  reliability_model_tables_test 'SharedTablesTest.*'

# --- word kernels and scripted bursts ---------------------------------
mutant "scripted burst access count off by one" \
  src/sim/sram_module.cpp \
  'ctx.access_count = first_access + i;' \
  'ctx.access_count = first_access + i - 1;' \
  sim_burst_test 'SramRawBurst.MatchesPerWordLoop'
mutant "CRC slice tables 3 and 2 swapped" \
  src/ecc/crc.cpp \
  'state = (kTables.t[3][x & 0xFFu] ^ kTables.t[2][(x >> 8) & 0xFFu]) ^' \
  'state = (kTables.t[2][x & 0xFFu] ^ kTables.t[3][(x >> 8) & 0xFFu]) ^' \
  ecc_misc_test 'Crc32.WordAndByteInterfacesAgree'
mutant "BCH clean path reads the wrong field" \
  src/ecc/bch.cpp \
  'data[i] = static_cast<std::uint32_t>(d);' \
  'data[i] = static_cast<std::uint32_t>(raw[i]);' \
  ecc_bch_test 'LowestErrorBitMod4/BchExhaustiveTest.*:*WordLanesMatchScalarCodec*'
mutant "BCH clean test reads the parity field on both sides" \
  src/ecc/bch.cpp \
  'if (parity_of(d) == (raw[i] & parity_mask)) {' \
  'if ((raw[i] & parity_mask) == (raw[i] & parity_mask)) {' \
  ecc_bch_test 'LowestErrorBitMod4/BchExhaustiveTest.*:*WordLanesMatchScalarCodec*'

work="$(mktemp -d "${TMPDIR:-/tmp}/ntc-mutants.XXXXXX")"
tree="${work}/tree"
build="${work}/build"
failed=1
cleanup() {
  git -C "${repo_root}" worktree remove --force "${tree}" 2>/dev/null || true
  if [[ "${failed}" == 0 ]]; then
    rm -rf "${work}"
  else
    echo "logs kept in ${work}" >&2
  fi
}
trap cleanup EXIT

git -C "${repo_root}" worktree add --detach "${tree}" "${rev}" >/dev/null
cmake -S "${tree}" -B "${build}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  >"${work}/configure.log" 2>&1 ||
  { echo "configure failed; see ${work}/configure.log" >&2; exit 1; }

# Replace OLD by NEW in FILE; fails unless OLD occurs exactly once.
apply_edit() {
  python3 - "$1" "$2" "$3" <<'EOF'
import sys
path, old, new = sys.argv[1:4]
text = open(path, encoding="utf-8").read()
if text.count(old) != 1:
    sys.exit(f"edit matches {text.count(old)} times, not once")
open(path, "w", encoding="utf-8").write(text.replace(old, new))
EOF
}

# The named tests must pass on the unmutated tree, or a failure below
# would prove nothing.
targets=$(printf '%s\n' "${binaries[@]}" | sort -u)
cmake --build "${build}" -j "${jobs}" --target ${targets} \
  >"${work}/baseline.log" 2>&1 ||
  { echo "unmutated build failed; see ${work}/baseline.log" >&2; exit 1; }
for i in "${!names[@]}"; do
  "${build}/tests/${binaries[$i]}" --gtest_filter="${filters[$i]}" \
    >>"${work}/baseline.log" 2>&1 ||
    { echo "named tests of '${names[$i]}' fail unmutated" >&2; exit 1; }
done

survivors=0 broken=0
for i in "${!names[@]}"; do
  name="${names[$i]}"
  file="${tree}/${files[$i]}"
  log="${work}/mutant-${i}.log"
  if ! apply_edit "${file}" "${olds[$i]}" "${news[$i]}" 2>"${log}"; then
    echo "STALE     ${name}: $(cat "${log}")"
    broken=$((broken + 1))
    continue
  fi
  if ! cmake --build "${build}" -j "${jobs}" --target "${binaries[$i]}" \
      >"${log}" 2>&1; then
    echo "NO BUILD  ${name} (see ${log})"
    broken=$((broken + 1))
  else
    # Run every named test on its own: each one must fail.
    binary="${build}/tests/${binaries[$i]}"
    tests=$("${binary}" --gtest_list_tests --gtest_filter="${filters[$i]}" |
      awk '/^[^ ]/ { suite = $1 } /^  / { print suite $1 }')
    total=0 caught=0
    for t in ${tests}; do
      total=$((total + 1))
      "${binary}" --gtest_filter="${t}" >>"${log}" 2>&1 || caught=$((caught + 1))
    done
    if [[ "${total}" -gt 0 && "${caught}" == "${total}" ]]; then
      echo "KILLED    ${name} (${total} of ${total} named tests fail)"
    else
      echo "SURVIVED  ${name} ($((total - caught)) of ${total} named tests pass; see ${log})"
      survivors=$((survivors + 1))
    fi
  fi
  git -C "${tree}" checkout -- "${files[$i]}"
done

run=${#names[@]}
echo "${run} mutants: $((run - survivors - broken)) killed, ${survivors} survived, ${broken} broken"
[[ $((survivors + broken)) -gt 0 ]] && exit 1
failed=0
