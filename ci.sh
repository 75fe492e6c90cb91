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
# SMOKESCREEN_FAULT_RATE) at rates 0 and 0.05 × 1 and 8 workers: rate 0
# proves the fault machinery is byte-invisible, rate 0.05 proves chaos
# runs replay bit-for-bit across schedules. The crash-resume matrix does
# the same for process deaths: a seeded CrashPlan kills generation at
# deterministic journal commits and the resumed profiles must byte-equal
# their pinned goldens at every kill point × thread count × fault rate.
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

echo "=== test suite @ SMOKESCREEN_THREADS=1 ==="
SMOKESCREEN_THREADS=1 cargo test -q --offline --workspace
echo "=== test suite @ SMOKESCREEN_THREADS=8 ==="
SMOKESCREEN_THREADS=8 cargo test -q --offline --workspace

echo "=== chaos suite: fault rates {0, 0.05} x threads {1, 8, 16} ==="
# Deterministic fault injection: rate 0 must be byte-invisible; rate 0.05
# must injure model calls yet replay byte-identically at any worker
# count — including 16 workers on the persistent pool, where helpers
# outnumber cores and every job runs on warm threads. The bound-validity
# chaos tests (5% and 20% rates) already ran in the workspace suites
# above.
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
./target/release/trajectory run --reps 2 --pr 14 --out "$trajdir/full"

echo "=== perf trajectory: committed BENCH files stay comparable ==="
# The committed PR-10 trajectory must still pass the threshold gate
# against the committed PR-9 baseline. New bench families (the serve_*
# throughput rows) are reported but never gated, so this proves the
# pre-existing numbers carry no regression past the default threshold.
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
# generation-1 crash after 150 answered requests. The retry client rides
# through all of it — idempotent puts keyed on expected_seq, hedged
# gets, reconnects across the supervisor restart — and must finish with
# zero unexpected errors. `serve check --scrub` then proves the store
# lost no acked write: scrub passes drain whatever the chaos
# quarantined, and any unrepaired record fails the build.
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
  --requests 400 --clients 4 --mix mixed --seed 44 --retry
./target/release/serve_load --addr "unix:$chaossock" \
  --requests 200 --clients 2 --mix mixed --seed 45 --retry --shutdown
wait "$chaos_pid"
./target/release/serve check --store "$chaosstore" --scrub
echo "chaos serving slice ok: crash + faults survived, zero unrepaired records"

echo "=== serving inertness: zero-rate armed plans vs none -> identical store bytes ==="
# Armed-but-zero-rate disk/net fault plans must be byte-invisible: the
# same seeded load against a plan-free daemon and a zero-rate-armed
# daemon must compact to identical store bytes — the serving-layer
# analogue of the perturbation-inertness gate below.
for mode in off zero; do
  inertstore="$trajdir/inert-$mode"
  inertsock="$trajdir/inert-$mode.sock"
  if [ "$mode" = zero ]; then
    SMOKESCREEN_DISKFAULT_SEED=53596 SMOKESCREEN_DISKFAULT_RATE=0 \
      SMOKESCREEN_NETFAULT_SEED=1255 SMOKESCREEN_NETFAULT_RATE=0 \
      ./target/release/serve run --unix "$inertsock" --store "$inertstore" --threads 4 &
  else
    ./target/release/serve run --unix "$inertsock" --store "$inertstore" --threads 4 &
  fi
  inert_pid=$!
  for _ in $(seq 1 200); do [ -S "$inertsock" ] && break; sleep 0.05; done
  [ -S "$inertsock" ] || { echo "inert daemon never bound $inertsock" >&2; exit 1; }
  ./target/release/serve_load --addr "unix:$inertsock" \
    --requests 300 --clients 4 --mix mixed --seed 46 --shutdown
  wait "$inert_pid"
done
diff "$trajdir/inert-off/profiles.data" "$trajdir/inert-zero/profiles.data"
diff "$trajdir/inert-off/profiles.idx" "$trajdir/inert-zero/profiles.idx"
echo "zero-rate fault plans are byte-invisible to the store"

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
# An armed-but-zero-rate content-fault plan (SMOKESCREEN_PERTURB_RATE=0
# with a seed and kind set) routes every experiment fixture through
# PerturbPlan::apply, which must return the corpus unchanged — the same
# inertness contract the chaos knobs honor above. Any byte drift against
# the committed fig4 goldens means the perturbation stack leaks into the
# clean path.
env -u SMOKESCREEN_CHECKPOINT_DIR SMOKESCREEN_FAULT_RATE=0 \
  SMOKESCREEN_PERTURB_SEED=7 SMOKESCREEN_PERTURB_RATE=0 SMOKESCREEN_PERTURB_KIND=glare \
  ./target/release/repro fig4 fig6 --quick --seed 42 --threads 8 --out "$tmpdir/perturb0" >/dev/null
for f in tests/golden/fig4_*.csv tests/golden/fig6_*.csv; do
  diff "$f" "$tmpdir/perturb0/$(basename "$f")"
done
# The crash-resume goldens must survive an armed zero-rate plan too.
SMOKESCREEN_PERTURB_SEED=7 SMOKESCREEN_PERTURB_RATE=0 SMOKESCREEN_PERTURB_KIND=glare \
  cargo test -q --offline --test crash_resume
echo "zero-rate perturbation plan is byte-invisible"

echo "=== checkout hygiene: ci.sh leaves the checkout as it found it ==="
# Every step above must clean up after itself or write only under ignored
# paths (target/, mktemp directories): no new, deleted or modified file.
if [ "$(git status --porcelain)" != "$status_before" ] || [ "$(git diff | cksum)" != "$diff_before" ]; then
  echo "ci.sh changed the checkout:" >&2
  git status --porcelain >&2
  exit 1
fi
echo "checkout unchanged"
