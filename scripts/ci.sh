#!/usr/bin/env bash
# Tier-1 gate: formatting, a clean release build of every crate, and the
# full test suite. Run before experiments or before sending a PR.
#
#   scripts/ci.sh          # everything
#   scripts/ci.sh --quick  # skip fmt (e.g. when rustfmt is unavailable)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

if [[ $QUICK -eq 0 ]]; then
  if command -v rustfmt >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
  else
    echo "== rustfmt not installed; skipping format check =="
  fi
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== nmcdr check (shape/graph verify + lint + concurrency) =="
# Fails on any shape/reachability finding, any lint hit above the
# checked-in baseline (scripts/lint_allowlist.tsv), or any concurrency
# invariant violation. Regenerate the baseline after burning down debt
# with: cargo run -p nm-cli -- check --fix-allowlist
cargo run -q -p nm-cli -- check --json target/check_report.json

if [[ "${MIRI:-0}" == "1" ]]; then
  # Optional deep pass: interpret the lock-free nm-obs atomics and the
  # nm-sync concurrent cores under Miri. Needs a nightly toolchain with
  # the miri component installed; when either is missing we warn and
  # skip rather than fail. On stable, the virtualized model checking in
  # `nmcdr check` still covers the nm-sync cores, but not the nm-obs
  # atomics, which only the nm-obs unit tests exercise.
  if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "== cargo +nightly miri test -p nm-obs -p nm-sync (MIRI=1) =="
    cargo +nightly miri test -p nm-obs
    cargo +nightly miri test -p nm-sync
  else
    echo "== MIRI=1 requested but 'cargo +nightly miri' is unavailable; skipping =="
    echo "   (install with: rustup toolchain install nightly --component miri)"
  fi
fi

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo doc (rustdoc warnings are errors) =="
# `--lib` keeps the root library's docs and nm-cli's `nmcdr` binary
# from colliding in target/doc/nmcdr. nm-perf is left out: it is the
# benchmark, changed only together with BENCHMARK.json.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --exclude nm-perf

echo "== cargo test --workspace --release =="
cargo test --workspace --release -q

echo "== fault-injection harness (kill/resume/rollback/torn-write) =="
cargo test --release -q --test fault_tolerance

echo "== traced 2-epoch training + strict trace-schema validation =="
# Two epochs, because epoch 0's matching bridges are sampled when the
# model is built, before the tracer starts; epoch 1's resample is what
# puts stage.resample in the trace.
TRACE_OUT=target/ci_trace.jsonl
rm -f "$TRACE_OUT"
cargo run --release -q -p nm-cli -- train --scenario music-movie \
  --scale 0.002 --epochs 2 --dim 8 --trace-out "$TRACE_OUT"
# validate rejects unknown fields, non-monotonic timestamps, bad seq
cargo run --release -q -p nm-cli -- obs validate --trace "$TRACE_OUT"
cargo run --release -q -p nm-cli -- obs report --trace "$TRACE_OUT" \
  > target/ci_trace_profile.txt
for span in train.forward stage.resample; do
  grep -q "$span" target/ci_trace_profile.txt \
    || { echo "trace profile lacks $span"; exit 1; }
done

echo "== flamegraph artifact of the traced CI run =="
# `obs flame` hard-fails unless the folded self times reproduce the
# root spans' inclusive time exactly, so this doubles as the time-
# conservation check on a real training trace.
mkdir -p results/trace
cargo run --release -q -p nm-cli -- obs flame --in "$TRACE_OUT" \
  --out results/trace/ci_train_flame.svg \
  --collapsed results/trace/ci_train_flame.collapsed
grep -q "<svg" results/trace/ci_train_flame.svg \
  || { echo "flamegraph artifact is not an SVG"; exit 1; }

echo "== kernel-profile smoke: deterministic dump, roofline report, diff gate =="
# Profiled 1-epoch train, run twice with the same seed: the counter
# dump must be byte-identical (counts/FLOPs/bytes are analytic — any
# diff is nondeterminism). The report joined with the run's trace must
# rank first the op with the most forward + backward self time in that
# trace's obs.profile.time events, and a planted 4x matmul slowdown
# must put matmul first: which op is slowest is a measurement, not a
# constant of the code. The clean differential compare must pass, and
# both CI injection knobs (a per-op busy-spin slowdown and a doubled
# matmul FLOP model) must make it fail — a gate that cannot catch a
# planted regression is treated as broken.
PROF_ARGS=(train --scenario music-movie --scale 0.002 --epochs 1 --dim 8
  --seed 7)
PROF_DUMP=target/ci_profile.jsonl
PROF_TRACE=target/ci_profile_trace.jsonl
rm -f "$PROF_DUMP" "$PROF_DUMP.b" "$PROF_TRACE" "$PROF_TRACE.slow"
cargo run --release -q -p nm-cli -- "${PROF_ARGS[@]}" \
  --profile-out "$PROF_DUMP" --trace-out "$PROF_TRACE"
cargo run --release -q -p nm-cli -- "${PROF_ARGS[@]}" \
  --profile-out "$PROF_DUMP.b"
cmp "$PROF_DUMP" "$PROF_DUMP.b" \
  || { echo "profile smoke: dumps differ between same-seed runs"; exit 1; }
# the dump is itself a valid trace under the strict schema
cargo run --release -q -p nm-cli -- obs validate --trace "$PROF_DUMP"
cargo run --release -q -p nm-cli -- obs profile --profile "$PROF_DUMP" \
  --trace "$PROF_TRACE" > target/ci_profile_report.txt
# first op row of a report (the row after the `op ...` header)
top_row() { awk 'seen { print $1; exit } /^op / { seen = 1 }' "$1"; }
# op kind with the most fwd + bwd self time in a trace, ties by kind
slowest_in_trace() {
  grep '"name":"obs.profile.time"' "$1" \
    | sed 's/.*"kind":"\([^"]*\)".*"fwd_ns":\([0-9]*\),"bwd_ns":\([0-9]*\).*/\1 \2 \3/' \
    | awk '{ t[$1] += $2 + $3 }
           END { for (k in t) if (top == "" || t[k] > t[top] || (t[k] == t[top] && k < top)) top = k
                 print top }'
}
SLOWEST=$(slowest_in_trace "$PROF_TRACE")
[[ -n "$SLOWEST" && "$(top_row target/ci_profile_report.txt)" == "$SLOWEST" ]] \
  || { echo "profile smoke: top row is not the trace's slowest op ($SLOWEST)"; exit 1; }
grep -q '^machine peaks:' target/ci_profile_report.txt \
  || { echo "profile smoke: report lacks machine-peaks roofline line"; exit 1; }
cargo run --release -q -p nm-cli -- obs profile --profile "$PROF_DUMP" \
  --trace "$PROF_TRACE" --compare "$PROF_DUMP" --compare-trace "$PROF_TRACE" \
  || { echo "profile smoke: clean self-compare failed"; exit 1; }
echo "== profile gate self-test: injected drift must fail the compare =="
NMCDR_PROF_SLOW_OP=matmul:4 cargo run --release -q -p nm-cli -- \
  "${PROF_ARGS[@]}" --profile-out "$PROF_DUMP.b" --trace-out "$PROF_TRACE.slow"
cargo run --release -q -p nm-cli -- obs profile --profile "$PROF_DUMP.b" \
  --trace "$PROF_TRACE.slow" > target/ci_profile_report_slow.txt
[[ "$(top_row target/ci_profile_report_slow.txt)" == matmul ]] \
  || { echo "profile smoke: a 4x matmul slowdown did not rank matmul first"; exit 1; }
if cargo run --release -q -p nm-cli -- obs profile --profile "$PROF_DUMP.b" \
    --trace "$PROF_TRACE.slow" --compare "$PROF_DUMP" --compare-trace "$PROF_TRACE"; then
  echo "profile gate self-test FAILED: 4x matmul slowdown went undetected"
  exit 1
fi
NMCDR_PROF_FLOPS_DRIFT=1 cargo run --release -q -p nm-cli -- \
  "${PROF_ARGS[@]}" --profile-out "$PROF_DUMP.b"
if cargo run --release -q -p nm-cli -- obs profile --profile "$PROF_DUMP.b" \
    --compare "$PROF_DUMP"; then
  echo "profile gate self-test FAILED: matmul FLOP-model drift went undetected"
  exit 1
fi
echo "profile gate self-test ok: both injected drifts detected"
# archive the deterministic dump
mkdir -p results
cp "$PROF_DUMP" results/PROFILE_ci_train.jsonl

echo "== streaming smoke: serve-while-train, hot-swap, drift rollback =="
# Fixed-seed online loop (~10s): the injected preference inversion at
# round 8 must trip the drift monitor and roll back to last-good, with
# at least two snapshot hot-swaps before it. Run twice into separate
# dirs: every durable artifact must be byte-identical (same seed =>
# same event log and same decision sequence), and the emitted trace
# must pass strict schema validation.
STREAM_ARGS=(--scenario cloth-sport --scale 0.0005 --model HeroGraph
  --dim 8 --lr 0.1 --seed 91 --rounds 14 --events-per-round 3072
  --slate 6 --slope 8.0 --shift-at 8 --loss-factor 1.2 --warmup 4
  --microbatch 3072 --require-swaps 2 --require-rollbacks 1)
rm -rf target/ci_stream_a target/ci_stream_b target/ci_stream_c \
  target/ci_stream_trace.jsonl
cargo run --release -q -p nm-cli -- stream "${STREAM_ARGS[@]}" \
  --out target/ci_stream_a --trace-out target/ci_stream_trace.jsonl
cargo run --release -q -p nm-cli -- stream "${STREAM_ARGS[@]}" \
  --out target/ci_stream_b
cargo run --release -q -p nm-cli -- stream "${STREAM_ARGS[@]}" \
  --out target/ci_stream_c
# The decision sequence is identical whether or not tracing is on …
for f in events.log decisions.log state.txt; do
  cmp target/ci_stream_a/$f target/ci_stream_b/$f \
    || { echo "stream smoke: $f differs between same-seed runs"; exit 1; }
done
# … and two equally-configured runs agree on every durable byte
# (checkpoints embed per-epoch telemetry, whose timings legitimately
# differ when one run also records a trace).
for f in events.log decisions.log state.txt delta.nmck good.nmck; do
  cmp target/ci_stream_b/$f target/ci_stream_c/$f \
    || { echo "stream smoke: $f differs between same-seed runs"; exit 1; }
done
grep -q '"name":"stream.rollback"' target/ci_stream_trace.jsonl \
  || { echo "stream smoke: no stream.rollback event in trace"; exit 1; }
grep -q '"name":"stream.swap"' target/ci_stream_trace.jsonl \
  || { echo "stream smoke: no stream.swap event in trace"; exit 1; }
# One evaluation per trained round: the trainer reports the round's
# epoch evaluation as its final one instead of scoring the same
# parameters again.
ROUNDS=$(grep -c '"name":"stream.round"' target/ci_stream_trace.jsonl || true)
EVALS=$(grep -c '"name":"train.eval"' target/ci_stream_trace.jsonl || true)
[[ "$ROUNDS" -gt 0 && "$EVALS" == "$ROUNDS" ]] \
  || { echo "stream smoke: $EVALS train.eval spans for $ROUNDS rounds"; exit 1; }
cargo run --release -q -p nm-cli -- obs validate --trace target/ci_stream_trace.jsonl

echo "== chaos smoke: seeded fault injection, breakers, degraded modes =="
# Fixed-seed chaos drill over a live server: worker panics, shard
# stalls, torn frames, reload failures, and forced deadline expiries.
# The command itself runs the workload twice and hard-fails unless the
# transcripts are byte-identical (same seed => same faults => same
# responses) and the --require-* floors are met; the trace of the first
# run must contain an actual breaker-open and a degraded answer, and
# pass strict schema validation. The 60s timeout turns any hang into a
# failure.
CHAOS_TRACE=target/ci_chaos_trace.jsonl
CHAOS_SERIES=target/ci_chaos_series.jsonl
rm -f "$CHAOS_TRACE" "$CHAOS_SERIES"
timeout 60 cargo run --release -q -p nm-cli -- chaos --seed 806405 \
  --requests 120 --require-injections 10 --require-breaker-opens 1 \
  --require-degraded 1 --trace-out "$CHAOS_TRACE" \
  --series-out "$CHAOS_SERIES"
grep -q '"name":"chaos.inject"' "$CHAOS_TRACE" \
  || { echo "chaos smoke: no chaos.inject event in trace"; exit 1; }
grep -q '"name":"chaos.inject".*"kind":"worker_panic"' "$CHAOS_TRACE" \
  || { echo "chaos smoke: no injected worker panic in trace"; exit 1; }
grep -q '"name":"serve.breaker".*"state":"open"' "$CHAOS_TRACE" \
  || { echo "chaos smoke: no breaker-open event in trace"; exit 1; }
grep -q '"name":"serve.degraded"' "$CHAOS_TRACE" \
  || { echo "chaos smoke: no serve.degraded event in trace"; exit 1; }
cargo run --release -q -p nm-cli -- obs validate --trace "$CHAOS_TRACE"

echo "== SLO smoke: burn-rate alert fires under faults, not in control =="
# The chaos drill above dumped its flight recorder; the degraded-ratio
# SLO must have fired a burn-rate alert on it, and `obs tail` must
# render a non-empty window. Then the same workload with every fault
# rate zeroed (--clean) must keep the error budget intact: an alert in
# the control run means the SLO thresholds are miscalibrated.
cargo run --release -q -p nm-cli -- obs tail --series "$CHAOS_SERIES" \
  --window 20 > target/ci_slo_tail.txt
grep -q '^window ticks' target/ci_slo_tail.txt \
  || { echo "slo smoke: obs tail produced no window footer"; exit 1; }
cargo run --release -q -p nm-cli -- obs slo --series "$CHAOS_SERIES" \
  --require-alerts 1
CLEAN_SERIES=target/ci_clean_series.jsonl
rm -f "$CLEAN_SERIES"
timeout 60 cargo run --release -q -p nm-cli -- chaos --clean --seed 806405 \
  --requests 120 --series-out "$CLEAN_SERIES"
cargo run --release -q -p nm-cli -- obs slo --series "$CLEAN_SERIES" \
  --require-clean

echo "ci.sh: all green"
