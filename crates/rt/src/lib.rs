//! `smokescreen-rt` — the workspace's zero-dependency runtime substrate.
//!
//! Every other crate in the workspace builds on this one instead of
//! crates.io dependencies, so the whole system compiles and tests fully
//! offline (`cargo build --release --offline && cargo test -q --offline`).
//! The modules mirror the external APIs they replaced closely enough that
//! porting a call site is usually a one-line import change:
//!
//! | module        | replaces                | notes                         |
//! |---------------|-------------------------|-------------------------------|
//! | [`rng`]       | `rand`, `rand_distr`    | xoshiro256\*\* + SplitMix64; Poisson (PTRS), LogNormal, Box–Muller normal |
//! | [`json`]      | `serde`, `serde_json`   | value model + hand-written `ToJson`/`FromJson` impls |
//! | [`sync`]      | `parking_lot`           | direct-guard `Mutex`/`RwLock` over `std::sync` |
//! | [`pool`]      | `rayon` (subset)        | persistent, deterministic `parallel_map`/`scope` worker pool |
//! | [`proptest`]  | `proptest`              | seeded case generation, replay via printed seed, no shrinking |
//! | [`bench`]     | `criterion` (subset)    | repeated median/p95 timer + counting allocator for the `trajectory` harness |
//! | [`fault`]     | — (new subsystem)       | seeded, replayable fault + crash schedules for chaos testing |
//! | [`log`]       | — (new subsystem)       | shared durable append-log format: header, checksummed frames, torn/corrupt scan, atomic repair |
//! | [`journal`]   | — (new subsystem)       | checkpoint journal on [`log`]: consecutive record indices |
//!
//! Determinism is a hard requirement here, not a convenience: the paper's
//! bound-validity experiments (PAPER.md §4–5) are only checkable if every
//! sampled scene, sample set, and detector response replays byte-for-byte
//! from a seed. All randomness in the workspace flows through
//! [`rng::StdRng`], which is specified (xoshiro256\*\*) rather than
//! inherited from whatever `rand` ships this year.

#![warn(missing_docs)]

pub mod bench;
pub mod fault;
pub mod journal;
pub mod json;
pub mod log;
pub mod pool;
pub mod proptest;
pub mod rng;
pub mod sync;
