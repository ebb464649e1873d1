#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full test suite.
# Must pass on an air-gapped machine with only the Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")"

# Run-report lines the determinism diffs below filter out: wall-clock
# span timings and allocator telemetry.
nondet='"(secs|alloc_calls|alloc_bytes|live_bytes|peak_bytes)"'

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
# Three pedantic lints are promoted to hard errors on top of the default
# set: missing #[must_use], by-value arguments that should borrow, and
# expression-statement tails missing their semicolon.
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::must_use_candidate \
  -D clippy::needless_pass_by_value \
  -D clippy::semicolon_if_nothing_returned

echo "== workspace build: no output filename collisions =="
# Two packages building a binary of the same name overwrite each other's
# target/release/<name>; cargo only warns, so fail on the warning.
build_log="$(mktemp)"
cargo build --release --workspace 2> "$build_log"
if grep -q "output filename collision" "$build_log"; then
  grep "output filename collision" "$build_log" >&2
  exit 1
fi
rm -f "$build_log"

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test =="
cargo test --workspace -q

echo "== census oracle at small and paper scale =="
# The profile-derived census reference column must equal a per-fetch
# count of the replay for every workload under Base, C-H, OptS and OptL
# (tiny scale runs in the suite above).
cargo test --release -q -p oslay-bench --test census_oracle -- --ignored

echo "== engine equality: large budget =="
# Cache, AttributedCache and MultiSim must report equal MissStats for the
# same seeded streams on five edge geometries (a small budget runs in
# the suite above).
cargo test --release -q -p oslay-cache --test attribution_fast_paths -- --ignored

echo "== trace store hostile inputs: large budget =="
# Seeded truncations, bit flips and block splices of a recorded archive
# must each end in a typed error or the original stream (a small budget
# runs in the suite above).
cargo test --release -q -p oslay-tracestore --test hostile -- --ignored

echo "== miri (optional, nightly): trace store codec roundtrips =="
if cargo +nightly miri --version > /dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo +nightly miri test -p oslay-tracestore --lib -- varint codec
else
  echo "miri unavailable (no nightly toolchain with miri); skipping"
fi

echo "== flag grammar: every binary's --help and unknown-flag exits =="
# Both exit before any study is generated, so the loop is cheap: --help
# exits 0 with the generated usage text; an unknown flag exits 2 with the
# error and no panic.
tmpdir="$(mktemp -d)"
for src in crates/bench/src/bin/*.rs; do
  bin="$(basename "$src" .rs)"
  run=(cargo run --release -q -p oslay-bench --bin "$bin" --)
  "${run[@]}" --help > "$tmpdir/help.txt"
  grep -q "usage:" "$tmpdir/help.txt"
  status=0
  "${run[@]}" --no-such-flag > /dev/null 2> "$tmpdir/err.txt" || status=$?
  if [ "$status" -ne 2 ] || grep -q panicked "$tmpdir/err.txt"; then
    echo "$src: --no-such-flag exited $status (want 2, no panic)" >&2
    exit 1
  fi
done
# Layout verification is a debug-build property, not a flag: the retired
# --verify switch must be rejected as unknown with the usage text.
status=0
cargo run --release -q -p oslay-bench --bin fig12_optimization_levels -- \
  --verify > /dev/null 2> "$tmpdir/err.txt" || status=$?
if [ "$status" -ne 2 ] || ! grep -q "common experiment flags" "$tmpdir/err.txt"; then
  echo "fig12_optimization_levels --verify exited $status (want 2 with usage)" >&2
  exit 1
fi
rm -rf "$tmpdir"

echo "== layout lint gate: every layout verifies clean =="
tmpdir="$(mktemp -d)"
cargo run --release -q -p oslay-bench --bin lint -- \
  --scale tiny --layout all --deny warnings > "$tmpdir/lint.txt"
grep -q "0 error(s), 0 warning(s)" "$tmpdir/lint.txt"

echo "== layout lint gate: mutations must fail with their KV code =="
# A failed lint exits 1; any other status (a panic's 101 included) fails.
for m in "block-swap:KV002" "loop-shift:KV004" "scf-overlap:KV005"; do
  mutation="${m%%:*}"
  code="${m##*:}"
  status=0
  cargo run --release -q -p oslay-bench --bin lint -- \
    --scale tiny --mutate "$mutation" > "$tmpdir/mutate.txt" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "lint --mutate $mutation exited $status (want 1)" >&2
    exit 1
  fi
  grep -q "$code" "$tmpdir/mutate.txt"
done
rm -rf "$tmpdir"

echo "== diag smoke (tiny workload) + results schema check =="
# The smoke run writes its report into a scratch results/ so the committed
# paper-scale artifacts stay untouched; the schema check then validates
# both the fresh report and everything committed under results/.
tmpdir="$(mktemp -d)"
(
  cd "$tmpdir"
  mkdir -p results
  cargo run --release -q --manifest-path "$OLDPWD/Cargo.toml" -p oslay-bench --bin diag -- \
    --compare base opts --scale tiny > /dev/null
  cargo run --release -q --manifest-path "$OLDPWD/Cargo.toml" -p oslay-bench --bin diag -- \
    --check-results
)
rm -rf "$tmpdir"
cargo run --release -q -p oslay-bench --bin diag -- --check-results

echo "== results reproduction: every committed results/ file rebuilds =="
# Every binary named after a committed results/<stem>.txt reruns at paper
# scale in a scratch directory: its stdout must equal the committed copy
# byte for byte, and every run report the reruns write must equal the
# committed one outside wall-clock and allocator fields. search commits
# only its run report.
tmpdir="$(mktemp -d)"
repo_root="$PWD"
mkdir -p "$tmpdir/results"
for txt in results/*.txt; do
  stem="$(basename "$txt" .txt)"
  case "$stem" in
    analyze) bin=analyze; args=(--scale paper --gate) ;;
    diag_base_vs_opts) bin=diag; args=(--compare base opts) ;;
    *) bin="$stem"; args=() ;;
  esac
  (
    cd "$tmpdir"
    cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
      -p oslay-bench --bin "$bin" -- ${args[@]+"${args[@]}"} --threads 2 \
      > "$stem.txt" 2> /dev/null
  )
  if ! cmp "$txt" "$tmpdir/$stem.txt"; then
    diff "$txt" "$tmpdir/$stem.txt" | head -20 >&2
    exit 1
  fi
done
(
  cd "$tmpdir"
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin search -- --scale paper --threads 2 > /dev/null 2>&1
)
for json in results/*.json; do
  diff <(grep -vE "$nondet" "$json") <(grep -vE "$nondet" "$tmpdir/$json")
done
rm -rf "$tmpdir"

echo "== bench_sim smoke + schema check: writes only its --out file =="
tmpdir="$(mktemp -d)"
(
  cd "$tmpdir"
  cargo run --release -q --manifest-path "$OLDPWD/Cargo.toml" -p oslay-bench --bin bench_sim -- \
    --smoke --out BENCH_sim.json > /dev/null
)
left="$(ls -A "$tmpdir")"
if [ "$left" != "BENCH_sim.json" ]; then
  echo "bench_sim --smoke left files other than its --out: $left" >&2
  exit 1
fi

echo "== thread-count determinism (1 vs 2 workers, tiny digest) =="
repo_root="$PWD"
for t in 1 2; do
  mkdir -p "$tmpdir/t$t/results"
  (
    cd "$tmpdir/t$t"
    cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
      -p oslay-bench --bin all_experiments -- \
      --scale tiny --threads "$t" > stdout.txt
  )
done
diff "$tmpdir/t1/stdout.txt" "$tmpdir/t2/stdout.txt"
# Wall-clock spans and allocator telemetry are the only fields allowed to
# differ between worker counts.
diff <(grep -vE "$nondet" "$tmpdir/t1/results/all_experiments.json") \
     <(grep -vE "$nondet" "$tmpdir/t2/results/all_experiments.json")
rm -rf "$tmpdir"

echo "== flight recorder gate: schema-valid trace, stdout unperturbed =="
tmpdir="$(mktemp -d)"
repo_root="$PWD"
(
  cd "$tmpdir"
  mkdir -p results
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin fig12_optimization_levels -- \
    --scale tiny --threads 2 > plain.txt 2> /dev/null
  mv results/fig12_optimization_levels.json plain.json
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin fig12_optimization_levels -- \
    --scale tiny --threads 2 --trace-out trace.json > traced.txt 2> /dev/null
)
# Tracing must not perturb the experiment's stdout, nor its run report
# outside wall-clock and allocator fields (span names and counts
# included)...
diff "$tmpdir/plain.txt" "$tmpdir/traced.txt"
diff <(grep -vE "$nondet" "$tmpdir/plain.json") \
     <(grep -vE "$nondet" "$tmpdir/results/fig12_optimization_levels.json")
# ...and the trace must pass the trace-event schema checker (balanced
# events, per-track monotonic timestamps, spans nested in their parents)
# and render through both terminal views.
cargo run --release -q -p oslay-bench --bin perf -- \
  check --in "$tmpdir/trace.json"
cargo run --release -q -p oslay-bench --bin perf -- \
  top --in "$tmpdir/trace.json" --n 5 > /dev/null
cargo run --release -q -p oslay-bench --bin perf -- \
  timeline --in "$tmpdir/trace.json" > /dev/null
# A truncated trace and a 200,000-deep nest of arrays must both be
# rejected with exit 1 (not accepted, and not a stack-overflow abort).
head -c 200 "$tmpdir/trace.json" > "$tmpdir/broken.json"
head -c 200000 /dev/zero | tr '\0' '[' > "$tmpdir/deep.json"
for bad in broken deep; do
  status=0
  cargo run --release -q -p oslay-bench --bin perf -- \
    check --in "$tmpdir/$bad.json" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "perf check on $bad.json exited $status (want 1)" >&2
    exit 1
  fi
done
rm -rf "$tmpdir"

echo "== trace store gate: record -> verify -> replay reproducibility =="
tmpdir="$(mktemp -d)"
cargo run --release -q -p oslay-bench --bin trace -- \
  record --scale tiny --threads 2 --dir "$tmpdir/archive" > /dev/null
cargo run --release -q -p oslay-bench --bin trace -- \
  verify --dir "$tmpdir/archive" --threads 2 > /dev/null
# An archived replay must be byte-identical to a live one — stdout and
# deterministic report both — at 1 and 2 workers.
for t in 1 2; do
  cargo run --release -q -p oslay-bench --bin trace -- \
    replay --scale tiny --threads "$t" --dir "$tmpdir/archive" \
    --out "$tmpdir/replay_archive_$t.json" > "$tmpdir/replay_archive_$t.txt" 2> /dev/null
  cargo run --release -q -p oslay-bench --bin trace -- \
    replay --scale tiny --threads "$t" --live \
    --out "$tmpdir/replay_live_$t.json" > "$tmpdir/replay_live_$t.txt" 2> /dev/null
done
for v in archive_2 live_1 live_2; do
  diff "$tmpdir/replay_archive_1.txt" "$tmpdir/replay_$v.txt"
  diff "$tmpdir/replay_archive_1.json" "$tmpdir/replay_$v.json"
done
# A flipped payload byte must fail verification with exit 1 (not pass,
# and not panic) and name the block.
store="$tmpdir/archive/shell.otr"
byte="$(od -An -tu1 -j1000 -N1 "$store" | tr -d ' ')"
printf "$(printf '\\%03o' $(( byte ^ 255 )))" \
  | dd of="$store" bs=1 seek=1000 conv=notrunc status=none
status=0
cargo run --release -q -p oslay-bench --bin trace -- \
  verify --file "$store" 2> "$tmpdir/verify_err.txt" || status=$?
if [ "$status" -ne 1 ]; then
  echo "trace verify on a corrupted store exited $status (want 1)" >&2
  exit 1
fi
grep -q "corrupt block" "$tmpdir/verify_err.txt"
rm -rf "$tmpdir"

echo "== sweep gate: 1 vs 2 workers =="
# fig15 sweeps sizes at 32-byte lines; fig16 sweeps SelfConfFree-area
# sizes at three cache sizes; fig17 is the committed figure with 64- and
# 128-byte banks and mixed associativities. Single-pass vs per-point
# equality is pinned by crates/bench/tests/multisim.rs.
tmpdir="$(mktemp -d)"
repo_root="$PWD"
for fig in fig15_cache_size_speedup fig16_selfconffree_size fig17_line_assoc; do
  for t in 1 2; do
    mkdir -p "$tmpdir/$fig/t$t/results"
    (
      cd "$tmpdir/$fig/t$t"
      cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
        -p oslay-bench --bin "$fig" -- \
        --scale tiny --threads "$t" > stdout.txt 2> /dev/null
    )
  done
  diff "$tmpdir/$fig/t1/stdout.txt" "$tmpdir/$fig/t2/stdout.txt"
done
# fig15's run report (fig16 and fig17 write none) must be worker-count
# invariant, wall clock and allocator telemetry aside.
fig15="$tmpdir/fig15_cache_size_speedup"
diff <(grep -vE "$nondet" "$fig15/t1/results/fig15_cache_size_speedup.json") \
     <(grep -vE "$nondet" "$fig15/t2/results/fig15_cache_size_speedup.json")
rm -rf "$tmpdir"

echo "== telemetry gate: inert probes, worker-invariant timeline, dash 0/1 =="
tmpdir="$(mktemp -d)"
repo_root="$PWD"
(
  cd "$tmpdir"
  mkdir -p results
  # Baseline: telemetry off.
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin fig12_optimization_levels -- \
    --scale tiny --threads 2 > plain.txt 2> /dev/null
  mv results/fig12_optimization_levels.json report_plain.json
  # Telemetry on, at 1 and 2 workers.
  for t in 1 2; do
    cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
      -p oslay-bench --bin fig12_optimization_levels -- \
      --scale tiny --threads "$t" --telemetry-out "tel$t.json" \
      > "out$t.txt" 2> /dev/null
    mv results/fig12_optimization_levels.json "report$t.json"
  done
)
# Telemetry must not perturb the experiment: stdout identical with the
# probe off, on at 1 worker, and on at 2 workers...
diff "$tmpdir/plain.txt" "$tmpdir/out1.txt"
diff "$tmpdir/out1.txt" "$tmpdir/out2.txt"
# ...and the deterministic report fields must not change either.
diff <(grep -vE "$nondet" "$tmpdir/report_plain.json") \
     <(grep -vE "$nondet" "$tmpdir/report1.json")
diff <(grep -vE "$nondet" "$tmpdir/report1.json") \
     <(grep -vE "$nondet" "$tmpdir/report2.json")
# The telemetry stream itself is simulated-time only, so worker count
# must not leak into it: byte-identical at 1 vs 2 workers.
cmp "$tmpdir/tel1.json" "$tmpdir/tel2.json"
# The dashboard validator accepts a fresh document (exit 0)...
cargo run --release -q -p oslay-bench --bin dash -- \
  --check --telemetry "$tmpdir/tel1.json"
# ...renders it through both views...
cargo run --release -q -p oslay-bench --bin dash -- \
  --term --telemetry "$tmpdir/tel1.json" > /dev/null
cargo run --release -q -p oslay-bench --bin dash -- \
  --telemetry "$tmpdir/tel1.json" --results "$tmpdir" \
  --out "$tmpdir/dash.html" > /dev/null
grep -q '<svg' "$tmpdir/dash.html"
# ...and rejects a truncated document with exit 1 (not accepted, and
# not a panic's 101).
head -c 120 "$tmpdir/tel1.json" > "$tmpdir/broken.json"
status=0
cargo run --release -q -p oslay-bench --bin dash -- \
  --check --telemetry "$tmpdir/broken.json" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
  echo "dash --check on a truncated telemetry document exited $status (want 1)" >&2
  exit 1
fi
# An archived replay labels and orders its timeline runs as the live
# matrix does: the two telemetry documents are byte-identical.
cargo run --release -q -p oslay-bench --bin trace -- \
  record --scale tiny --threads 2 --dir "$tmpdir/archive" > /dev/null
cargo run --release -q -p oslay-bench --bin trace -- \
  replay --scale tiny --threads 2 --dir "$tmpdir/archive" \
  --telemetry-out "$tmpdir/tel_archive.json" > /dev/null 2>&1
cargo run --release -q -p oslay-bench --bin trace -- \
  replay --scale tiny --threads 2 --live \
  --telemetry-out "$tmpdir/tel_live.json" > /dev/null 2>&1
cmp "$tmpdir/tel_archive.json" "$tmpdir/tel_live.json"
# A sweep records no timeline runs, but its document must still pass
# the validator.
(
  cd "$tmpdir"
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin fig15_cache_size_speedup -- \
    --scale tiny --threads 2 --telemetry-out tel_sweep.json > /dev/null 2>&1
)
cargo run --release -q -p oslay-bench --bin dash -- \
  --check --telemetry "$tmpdir/tel_sweep.json"
rm -rf "$tmpdir"

echo "== layout search gate: determinism, lint-clean winner, flag checks =="
tmpdir="$(mktemp -d)"
repo_root="$PWD"
for t in 1 2; do
  d="$tmpdir/t$t"
  mkdir -p "$d/results"
  (
    cd "$d"
    cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
      -p oslay-bench --bin search -- \
      --scale tiny --threads "$t" --budget 2000 --restarts 2 \
      --layout-out layout.json > stdout.txt 2> /dev/null
  )
done
# The whole pipeline — restart fan-out, replay selection, attributed
# validation — must be byte-identical at 1 vs 2 workers: stdout, the
# exported winning layout, and the run report (telemetry fields aside).
diff "$tmpdir/t1/stdout.txt" "$tmpdir/t2/stdout.txt"
cmp "$tmpdir/t1/layout.json" "$tmpdir/t2/layout.json"
diff <(grep -vE "$nondet" "$tmpdir/t1/results/search.json") \
     <(grep -vE "$nondet" "$tmpdir/t2/results/search.json")
# The exported winner must re-assemble and lint clean from disk.
cargo run --release -q -p oslay-bench --bin lint -- \
  --scale tiny --layout-file "$tmpdir/t1/layout.json" --deny warnings \
  > "$tmpdir/lint.txt"
grep -q "0 error(s), 0 warning(s)" "$tmpdir/lint.txt"
# An invalid budget must fail fast with the usage text and exit status 2
# (a panic exits 101), not search.
status=0
cargo run --release -q -p oslay-bench --bin search -- \
  --scale tiny --budget banana > /dev/null 2> "$tmpdir/err.txt" || status=$?
if [ "$status" -ne 2 ]; then
  echo "search --budget banana exited $status (want 2)" >&2
  exit 1
fi
grep -q -- "--budget must be an integer" "$tmpdir/err.txt"
grep -q "common experiment flags" "$tmpdir/err.txt"
# A truncated flag (missing value) must fail the same way.
status=0
cargo run --release -q -p oslay-bench --bin search -- \
  --scale tiny --budget > /dev/null 2> "$tmpdir/err2.txt" || status=$?
if [ "$status" -ne 2 ]; then
  echo "search --budget (no value) exited $status (want 2)" >&2
  exit 1
fi
grep -q -- "--budget needs a value" "$tmpdir/err2.txt"
# The objective weights are constants: their old flags must be rejected
# as unknown, not silently ignored.
for knob in "--w-absint 1" "--w-conflict 2"; do
  status=0
  # shellcheck disable=SC2086 # flag and value split on purpose
  cargo run --release -q -p oslay-bench --bin search -- \
    --scale tiny $knob > /dev/null 2> "$tmpdir/err3.txt" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "search $knob exited $status (want 2)" >&2
    exit 1
  fi
  grep -q "common experiment flags" "$tmpdir/err3.txt"
done
# A truncated layout file is a bad input (exit 2), not a crash (101).
head -c 40 "$tmpdir/t1/layout.json" > "$tmpdir/truncated.json"
status=0
cargo run --release -q -p oslay-bench --bin lint -- \
  --scale tiny --layout-file "$tmpdir/truncated.json" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "lint --layout-file on a truncated file exited $status (want 2)" >&2
  exit 1
fi
rm -rf "$tmpdir"

echo "== absint gate: static classes replay-sound, mutations detected =="
tmpdir="$(mktemp -d)"
repo_root="$PWD"
# The soundness gate must hold on every layout (including the searched
# one): zero measured misses on always-hit lines, at most one per
# persistent line, across all four workloads.
(
  cd "$tmpdir"
  mkdir -p results
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin analyze -- \
    --scale tiny --layout all --search-budget 2000 --gate \
    --class-out classes.json > gate.txt
)
grep -q "soundness gate: PASS" "$tmpdir/gate.txt"
# A block swap into the most contended set must withdraw at least one
# always-hit guarantee — otherwise the analysis is not actually looking
# at the layout.
cargo run --release -q -p oslay-bench --bin analyze -- \
  --scale tiny --layout opts --mutate block-swap > "$tmpdir/mutate.txt"
grep -q "always-hit guarantee(s) withdrawn" "$tmpdir/mutate.txt"
# The exported classification round-trips through --check...
cargo run --release -q -p oslay-bench --bin analyze -- \
  --check "$tmpdir/classes.json" > /dev/null
# ...and a corrupted tally, or weights whose tally overflows u64 (two
# points of 1e19 wrap to the "weighted" entry below), must be rejected
# with exit 1 (not accepted, and not a panic's 101).
sed -E 's/"count":\[[0-9]+/"count":[999999/' "$tmpdir/classes.json" \
  > "$tmpdir/broken.json"
cat > "$tmpdir/overflow.json" <<'JSON'
{"version": 1, "layouts": [{"layout": "Base", "count": [0, 0, 2, 0],
 "weighted": [0, 0, 1553255926290448384, 0], "analyzed_blocks": 1,
 "points": [[0, 0, 0, 0, 10000000000000000000, 2],
            [1, 0, 32, 1, 10000000000000000000, 2]]}]}
JSON
for bad in broken overflow; do
  status=0
  cargo run --release -q -p oslay-bench --bin analyze -- \
    --check "$tmpdir/$bad.json" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "analyze --check on $bad.json exited $status (want 1)" >&2
    exit 1
  fi
done
rm -rf "$tmpdir"

echo "CI OK"
