#!/usr/bin/env bash
# Hermetic CI entry point.
#
# The workspace carries ZERO crates.io dependencies — every runtime
# service (PRNG + distributions, JSON, locks, property testing, bench
# timing) lives in-tree in crates/rt. CI therefore builds fully offline:
# no registry, no network, no lockfile drift. If either command below
# fails with a "no matching package" error, someone reintroduced an
# external dependency; see README.md "Hermetic builds".
#
# The suite runs twice — pinned to 1 worker and to 8 workers — because
# parallel profile generation (rt::pool) promises bit-for-bit identical
# output at any thread count. A final cross-check regenerates the fig4
# CSVs at 1, 8, and 16 workers and fails on any byte difference.
#
# The chaos suite then re-runs the generation stack under deterministic
# fault injection (seeded FaultPlan via SMOKESCREEN_FAULT_SEED /
# SMOKESCREEN_FAULT_RATE) at rates 0 and 0.05 × 1, 8 and 16 workers:
# rate 0 disarms the plan (an env rate of 0 builds none), rate 0.05
# proves chaos runs replay bit-for-bit across schedules. That an armed
# zero-rate plan is byte-invisible is checked by
# tests/chaos.rs::disabled_faults_are_byte_invisible in every suite run.
# The crash-resume matrix replays process deaths the same way: a seeded
# CrashPlan kills generation at deterministic journal commits and the
# resumed profiles must byte-equal their pinned goldens at every kill
# point × thread count × fault rate.
# The golden re-diff at the bottom runs with faults disabled and the
# checkpoint directory explicitly unset, pinning the fault-free,
# checkpoint-free fig4 CSVs to the committed snapshots.
set -euo pipefail
cd "$(dirname "$0")"

# Snapshot the checkout so the closing hygiene check can prove ci.sh
# leaves it exactly as it found it.
status_before="$(git status --porcelain)"
diff_before="$(git diff | cksum)"

cargo build --release --offline --workspace

echo "=== clippy: no deny-level lint anywhere in the workspace ==="
# Default lint levels: warnings are reported but do not fail the build;
# a deny-by-default lint (e.g. approx_constant) does.
cargo clippy --workspace --all-targets --offline

echo "=== test suite @ SMOKESCREEN_THREADS=1 ==="
SMOKESCREEN_THREADS=1 cargo test -q --offline --workspace
echo "=== test suite @ SMOKESCREEN_THREADS=8 ==="
SMOKESCREEN_THREADS=8 cargo test -q --offline --workspace

echo "=== JSON writer: write_json writes canonical JSON (parse then encode is identity) at 2000 cases ==="
# ToJson::write_json is the one encoder; to_json is the parse of what it
# writes. The property checks that write_json's bytes have sorted keys
# and no key twice, so parse then encode returns them unchanged, over
# random profiles and every request/response variant. It ran at its
# default case count above; here it runs again at 2000.
SMOKESCREEN_PT_CASES=2000 cargo test -q --offline --test serve_write_json \
  write_json_matches_tree_encoding

echo "=== JSON tree: Json::parse(v.encode()) == v for random trees at 2000 cases ==="
# Objects are one sorted member vector with inline keys. The property
# also parses each tree from a text with every object's members reversed
# and a decoy member per key that the later one must override.
SMOKESCREEN_PT_CASES=2000 cargo test -q --offline -p smokescreen-rt --lib \
  json::tests::parse_round_trips_random_trees

echo "=== output table: served counts equal direct detection at widths 1, 2, 8 at 2000 cases ==="
# Each OutputCache slot holds a key's per-class counts, not its
# detections. The property draws random (frame, resolution, class)
# batches under a 0.05 fault plan and checks every served count against
# detector.detect(f, res).count(class), and model_runs, cache_hits and
# failed_calls at widths 2 and 8 against width 1. It ran at its default
# case count above; here it runs again at 2000.
SMOKESCREEN_PT_CASES=2000 cargo test -q --offline -p smokescreen-models --lib \
  cache::tests::count_table_matches_direct_detection

echo "=== model call: SimBackbone::detect equals the full formulas at 2000 cases ==="
# SimBackbone::detect takes ln(area50) from its curves, its false-positive
# rate from a per-thread one-entry memo and the contrast factor from a
# per-thread direct-mapped memo. The property draws a model, a corpus, a
# run of frames (some glare-perturbed) and two supported resolutions, and
# checks detect item for item against the formulas evaluated in full, at
# pool widths 1 and 8; it also alternates memo keys that share a slot. It
# ran at its default case count above; here it runs again at 2000.
SMOKESCREEN_PT_CASES=2000 cargo test -q --offline -p smokescreen-models --lib \
  backbone::tests::detect_matches_reference

echo "=== chunked fetch: ladder ranges equal per-frame lookups at 2000 cases ==="
# DegradedView's batched fetch loads each chunk of sampled frames before
# looking it up. The property splits random views into ranges that put
# every chunk edge under test, with no fault plan and under a mixed one,
# and checks values, lost frames and accounting against a per-frame
# try_count walk. It ran at its default case count above; here it runs
# again at 2000.
SMOKESCREEN_PT_CASES=2000 cargo test -q --offline -p smokescreen-degrade --lib \
  pipeline::tests::chunked_fetch_matches_per_frame_lookups

echo "=== pool: order, panics, balance and scope concurrency at 2000 cases ==="
# rt::pool runs each call on the caller plus scoped helper threads. Its
# properties check that parallel maps equal the sequential map at widths
# 1-8, that a panicking task propagates without hanging, and that guided
# chunk claims cover the input and stay balanced. They ran at their
# default case count above; here they run again at 2000.
SMOKESCREEN_PT_CASES=2000 cargo test -q --offline -p smokescreen-rt --lib \
  pool::tests

echo "=== allocation contracts: tests/zero_alloc.rs in a release build ==="
# The daemon and perfbench ship release builds; the workspace suites
# above check the zero-allocation and allocation-count contracts only in
# debug builds.
cargo test --release --offline --test zero_alloc

echo "=== perfbench: builds against the workspace APIs, self-tests pass ==="
# The end-to-end benchmark (perfbench/, its own workspace) compiles
# against the smokescreen-serve protocol and rt::json public APIs, and
# nothing else here builds it. Its target directory and lockfile are
# ignored, so the hygiene check at the bottom stays green.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "=== chaos suite: fault rates {0, 0.05} x threads {1, 8, 16} ==="
# Deterministic fault injection: rate 0 builds no plan, so the env test
# must see no fault; rate 0.05 must injure model calls yet replay
# byte-identically at any worker count — including 16 workers, where
# helpers outnumber cores. The armed zero-rate plan is checked by
# disabled_faults_are_byte_invisible in the same suite. The
# bound-validity chaos tests (5% and 20% rates) already ran in the
# workspace suites above.
for rate in 0 0.05; do
  for threads in 1 8 16; do
    echo "--- chaos @ rate=$rate threads=$threads ---"
    SMOKESCREEN_FAULT_SEED=42 SMOKESCREEN_FAULT_RATE=$rate \
      SMOKESCREEN_THREADS=$threads \
      cargo test -q --offline --test chaos
  done
done

echo "=== crash-resume matrix: kill points {1, 3} x threads {1, 8, 16} x fault rates {0, 0.05} ==="
# Crash-consistent checkpointing: a seeded CrashPlan kills generation at
# deterministic journal commits (seed 1 tears a record mid-append, seed 3
# dies after three separate durable appends); the suite reruns until the
# profile completes and asserts the resumed bytes equal the uninterrupted
# run — which itself is pinned to tests/golden/crash_resume_rate*.json.
# Every combination below must land on the same two goldens: the profile
# may not depend on the kill point, the thread count, or how many times
# the process died on the way.
for crash_seed in 1 3; do
  for threads in 1 8 16; do
    for rate in 0 0.05; do
      echo "--- crash-resume @ seed=$crash_seed threads=$threads fault_rate=$rate ---"
      SMOKESCREEN_CRASH_SEED=$crash_seed SMOKESCREEN_CRASH_RATE=0.5 \
        SMOKESCREEN_FAULT_SEED=42 SMOKESCREEN_FAULT_RATE=$rate \
        SMOKESCREEN_THREADS=$threads \
        cargo test -q --offline --test crash_resume
    done
  done
done

echo "=== perf trajectory: smoke run + schema gate + regression exit code ==="
# The trajectory harness smoke-runs the full bench suite on a tiny corpus
# (2 reps) and validates the emitted BENCH_*.json against the structural
# schema golden — a malformed or missing field fails the build here and
# in tests/trajectory_schema.rs. The harness itself is then proven to
# gate: `check` against a synthetically 10×-faster prior must exit
# non-zero, and a self-check must exit zero.
trajdir="$(mktemp -d)"
trap 'rm -rf "$trajdir"' EXIT
./target/release/trajectory run --smoke --reps 2 --pr 6 --out "$trajdir" \
  --schema-golden tests/golden/trajectory_schema.json
./target/release/trajectory check \
  --prev "$trajdir/BENCH_6.json" --cur "$trajdir/BENCH_6.json" >/dev/null
# Doctor a prior whose medians are all near-zero; the gate must trip.
sed -E 's/"median_wall_ms": [0-9.eE+-]+/"median_wall_ms": 0.000001/; s/"pr": 6/"pr": 5/' \
  "$trajdir/BENCH_6.json" > "$trajdir/BENCH_5.json"
if ./target/release/trajectory check \
  --prev "$trajdir/BENCH_5.json" --cur "$trajdir/BENCH_6.json" >/dev/null 2>&1; then
  echo "trajectory check FAILED to flag a synthetic regression" >&2
  exit 1
fi
echo "trajectory smoke + schema + regression gate ok"

echo "=== perf trajectory: full run, every acceptance floor enforced ==="
# A paper-scale run re-measures every floor in trajectory::FLOORS (pool
# scaling at 4/8/16 workers, slice-path ingest, incremental sweep on
# MAX and MEDIAN) plus the zero-alloc cell path, and exits non-zero if
# any falls short. It gets its own empty directory: in "$trajdir" itself
# it would pick the smoke BENCH_6.json as its baseline and refuse the
# smoke-vs-full comparison.
# It prints each floor's ratio and minimum, and the cell path's
# allocation count, so the log keeps the margins.
./target/release/trajectory run --reps 2 --pr 14 --out "$trajdir/full"

echo "=== perf trajectory: committed BENCH files stay comparable ==="
# The committed PR-10 trajectory must still pass the threshold gate
# against the committed PR-9 baseline. Both are committed files, so
# this proves the recorded numbers carry no regression past the default
# threshold whatever the suite now runs. (A fresh run compared against
# either lists the retired serve_* throughput rows as MISSING.)
./target/release/trajectory check \
  --prev bench_results/BENCH_9.json --cur bench_results/BENCH_10.json >/dev/null
echo "BENCH_9 -> BENCH_10 trajectory gate ok"

echo "=== serving daemon: framed load at two rates + zero-quarantine reopen gate ==="
# Boots the profile-serving daemon as a real separate process, drives it
# with the seeded load generator at two concurrency levels (a put-heavy
# seeding wave, then a read-heavy mixed wave that also requests graceful
# shutdown), and then audits the store cold: `serve check` exits non-zero
# if recovery quarantined even one record — the ack-is-durability gate.
# The wire-protocol shape itself is pinned by
# tests/golden/serve_protocol_schema.json, and determinism across worker
# counts by tests/serve_soak.rs in the workspace suites above.
servestore="$trajdir/serve-store"
servesock="$trajdir/serve.sock"
./target/release/serve run --unix "$servesock" --store "$servestore" --threads 4 &
serve_pid=$!
for _ in $(seq 1 200); do [ -S "$servesock" ] && break; sleep 0.05; done
[ -S "$servesock" ] || { echo "serve daemon never bound $servesock" >&2; exit 1; }
./target/release/serve_load --addr "unix:$servesock" \
  --requests 600 --clients 2 --mix put --seed 42
./target/release/serve_load --addr "unix:$servesock" \
  --requests 600 --clients 8 --mix mixed --seed 43 --shutdown
wait "$serve_pid"
./target/release/serve check --store "$servestore"
./target/release/serve check --store "$servestore" --scrub
echo "serving slice ok: 1200 framed requests at 2 rates, clean shutdown, zero quarantined"

echo "=== chaos serving: supervised daemon under seeded disk+net faults ==="
# The daemon runs with armed fault plans (seeded, replayable: every
# injected failure is a pure function of (seed, rid/op)) and an induced
# generation-1 crash after 150 answered requests. serve_load's client
# (every run retries) rides through all of it — idempotent puts keyed
# on expected_seq, hedged gets, reconnects across the supervisor
# restart — and must finish with zero unexpected errors. `serve check
# --scrub` then proves the store lost no acked write: scrub passes drain
# whatever the chaos quarantined, and any unrepaired record fails the
# build.
chaosstore="$trajdir/chaos-store"
chaossock="$trajdir/chaos.sock"
SMOKESCREEN_DISKFAULT_SEED=53596 SMOKESCREEN_DISKFAULT_RATE=0.08 \
  SMOKESCREEN_NETFAULT_SEED=1255 SMOKESCREEN_NETFAULT_RATE=0.10 \
  ./target/release/serve run --unix "$chaossock" --store "$chaosstore" \
  --threads 2 --scrub-batch 16 --supervise --crash-after 150 &
chaos_pid=$!
for _ in $(seq 1 200); do [ -S "$chaossock" ] && break; sleep 0.05; done
[ -S "$chaossock" ] || { echo "chaos daemon never bound $chaossock" >&2; exit 1; }
./target/release/serve_load --addr "unix:$chaossock" \
  --requests 400 --clients 4 --mix mixed --seed 44
./target/release/serve_load --addr "unix:$chaossock" \
  --requests 200 --clients 2 --mix mixed --seed 45 --shutdown
wait "$chaos_pid"
./target/release/serve check --store "$chaosstore" --scrub
echo "chaos serving slice ok: crash + faults survived, zero unrepaired records"

echo "=== content-fault robustness: smoke audit matrix + schema gate ==="
# One kind (glare) × one rate × both corpora, 12 trials/cell: the
# bound-soundness invariants (δ=1e-6 sweep never violated, nominal
# coverage vs the perturbed truth, zero drift false positives) must hold
# on every commit, and the emitted ROBUST_*.json must match the
# structural schema golden. The full matrix lives in
# bench_results/ROBUST_7.json (see EXPERIMENTS.md to regenerate).
./target/release/robust run --smoke --pr 7 --out "$trajdir" \
  --schema-golden tests/golden/content_shift_schema.json
echo "robust smoke audit ok"

echo "=== determinism cross-check: fig4 CSVs @ 1 vs 8 vs 16 workers ==="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir" "$trajdir"' EXIT
./target/release/repro fig4 --quick --threads 1 --out "$tmpdir/t1" >/dev/null
./target/release/repro fig4 --quick --threads 8 --out "$tmpdir/t8" >/dev/null
./target/release/repro fig4 --quick --threads 16 --out "$tmpdir/t16" >/dev/null
diff -r "$tmpdir/t1" "$tmpdir/t8"
diff -r "$tmpdir/t1" "$tmpdir/t16"
echo "fig4 output identical across worker counts"

echo "=== golden re-diff: fig4 CSVs vs committed snapshots (faults disabled) ==="
# The incremental estimator kernels promise byte-identical profiles;
# regenerate fig4 at the pinned golden configuration (seed 42, quick,
# faults explicitly disabled) and diff against the committed goldens
# directly — the chaos machinery must leave the fault-free path
# untouched. SMOKESCREEN_CHECKPOINT_DIR is explicitly unset: with no
# checkpoint directory the journaling machinery must be byte-invisible,
# so this diff doubles as the checkpoint-inertness proof.
env -u SMOKESCREEN_CHECKPOINT_DIR SMOKESCREEN_FAULT_RATE=0 \
  ./target/release/repro fig4 --quick --seed 42 --threads 8 --out "$tmpdir/golden" >/dev/null
for f in tests/golden/fig4_*.csv; do
  diff "$f" "$tmpdir/golden/$(basename "$f")"
done
echo "fig4 output identical to committed goldens"

echo "=== perturbation inertness: zero-rate plan vs committed fig4 goldens ==="
# SMOKESCREEN_PERTURB_RATE=0 with a seed and kind set builds no plan
# (an env rate of 0 disarms it), so Bench::new never calls
# PerturbPlan::apply: this step proves that setting the other knobs
# leaks nothing into the clean path. That an armed zero-rate plan
# returns the corpus unchanged is checked by video's
# perturb::tests::zero_rate_apply_is_identity in the suites above.
env -u SMOKESCREEN_CHECKPOINT_DIR SMOKESCREEN_FAULT_RATE=0 \
  SMOKESCREEN_PERTURB_SEED=7 SMOKESCREEN_PERTURB_RATE=0 SMOKESCREEN_PERTURB_KIND=glare \
  ./target/release/repro fig4 fig6 --quick --seed 42 --threads 8 --out "$tmpdir/perturb0" >/dev/null
for f in tests/golden/fig4_*.csv tests/golden/fig6_*.csv; do
  diff "$f" "$tmpdir/perturb0/$(basename "$f")"
done
# The crash-resume goldens must survive the same knobs too.
SMOKESCREEN_PERTURB_SEED=7 SMOKESCREEN_PERTURB_RATE=0 SMOKESCREEN_PERTURB_KIND=glare \
  cargo test -q --offline --test crash_resume
echo "zero-rate perturbation plan is byte-invisible"

echo "=== chaos knobs: every malformed knob fails loudly, naming its variable ==="
# Every seeded plan parses its knobs strictly: a typo must abort the run
# with a non-zero exit and a message naming the variable — never
# silently run the faults-disabled configuration. `timeout` bounds the
# daemon cases; a run that is still going when it fires (exit 124) was
# not loud.
expect_loud() {
  local var="$1" out status=0
  shift
  out="$(timeout 300 "$@" 2>&1)" || status=$?
  if [ "$status" -eq 0 ] || [ "$status" -eq 124 ] || ! grep -q "$var" <<<"$out"; then
    echo "malformed $var was not rejected loudly (exit $status): $*" >&2
    tail -n 20 <<<"$out" >&2
    exit 1
  fi
}
expect_loud SMOKESCREEN_FAULT_RATE env SMOKESCREEN_FAULT_RATE=0,05 \
  ./target/release/repro time --quick --out "$tmpdir/loud"
expect_loud SMOKESCREEN_PERTURB_RATE env SMOKESCREEN_PERTURB_RATE=lots \
  ./target/release/repro fig4 --quick --out "$tmpdir/loud"
expect_loud SMOKESCREEN_PERTURB_KIND env SMOKESCREEN_PERTURB_RATE=0.1 SMOKESCREEN_PERTURB_KIND=fog \
  ./target/release/repro fig4 --quick --out "$tmpdir/loud"
expect_loud SMOKESCREEN_DISKFAULT_RATE env SMOKESCREEN_DISKFAULT_RATE=2 \
  ./target/release/serve run --unix "$tmpdir/loud.sock" --store "$tmpdir/loud-store"
expect_loud SMOKESCREEN_NETFAULT_RATE env SMOKESCREEN_NETFAULT_RATE=lots \
  ./target/release/serve run --unix "$tmpdir/loud.sock" --store "$tmpdir/loud-store"
expect_loud SMOKESCREEN_CRASH_RATE env SMOKESCREEN_CRASH_RATE=lots \
  cargo test -q --offline --test crash_resume
echo "every chaos knob rejects a malformed value loudly"

echo "=== checkout hygiene: ci.sh leaves the checkout as it found it ==="
# Every step above must clean up after itself or write only under ignored
# paths (target/, mktemp directories): no new, deleted or modified file.
if [ "$(git status --porcelain)" != "$status_before" ] || [ "$(git diff | cksum)" != "$diff_before" ]; then
  echo "ci.sh changed the checkout:" >&2
  git status --porcelain >&2
  exit 1
fi
echo "checkout unchanged"
