//! Deterministic fault injection — seeded chaos for the model substrate.
//!
//! In production, detectors time out, workers die mid-cell, and cache
//! shards get poisoned by partial writes. The paper's error bounds are
//! only trustworthy if the system stays *sound* under such failures, so
//! the workspace injects them on purpose — but, like every other
//! stochastic component here, deterministically: a [`FaultPlan`] is a
//! pure function from a 64-bit call key to a fault decision, derived from
//! a seeded xoshiro256\*\* stream ([`crate::rng::StdRng`]). Two runs with
//! the same plan observe byte-identical fault schedules regardless of
//! thread count or interleaving, which is what makes chaos runs
//! replayable bit-for-bit and lets the determinism suite compare 1-, 2-,
//! and 8-worker profiles under injected failures.
//!
//! The plan schedules four failure modes:
//!
//! * **Timeout** — the call fails on every attempt; retries cannot save
//!   it (a hung detector process).
//! * **Transient** — the call fails for a deterministic number of
//!   attempts, then succeeds (a briefly overloaded worker). Retry with
//!   backoff clears it.
//! * **Slow** — the call succeeds but costs deterministic extra
//!   simulated latency (a degraded accelerator).
//! * **CachePoison** — the call succeeds but its cache shard is poisoned:
//!   the output must never be stored, so every future request re-runs the
//!   model (an evicting / corrupted shard).
//!
//! Replay recipe: set `SMOKESCREEN_FAULT_SEED` and
//! `SMOKESCREEN_FAULT_RATE` and build the plan with
//! [`FaultPlan::from_env`]; any failure observed in a chaos run can then
//! be replayed exactly. Malformed values in any of these variables are a
//! *loud* startup error (a panic naming the variable and the offending
//! string) — a typo in a chaos knob must never silently run the
//! faults-disabled configuration. Every seeded plan in the workspace,
//! `video::perturb::PerturbPlan` included, reads its knobs through the
//! one strict parser [`parse_seed_rate`] and the one panicking wrapper
//! [`plan_from_env`], and keys its decision stream through [`mix`].
//!
//! Beyond per-call faults, [`CrashPlan`] schedules whole-*process* deaths
//! for the checkpoint/resume suite: a pure function of `(seed, cell
//! index)` decides whether generation dies right after durably journaling
//! a cell ([`CrashKind::AfterAppend`]) or mid-append, leaving a torn
//! record ([`CrashKind::TornAppend`]). Because the decision is pure,
//! crash→resume→compare is replayable bit-for-bit, composing with any
//! [`FaultPlan`].
//!
//! The serving stack gets its own two plan families with the same
//! contract. [`DiskFaultPlan`] schedules storage-level failures against
//! the profile store — short writes, torn syncs, transient read bit-flips
//! and outright `EIO` — keyed on a per-operation id, with *separate*
//! write and read decision streams so an append and the read-back of the
//! same record never share a fate. [`NetFaultPlan`] schedules wire-level
//! failures against the daemon — dropped requests, dropped or truncated
//! responses, simulated delay and connection resets — keyed on the
//! client-stamped request id (`rid`), so a retried request (new rid) rolls
//! a fresh decision. Both arm from `SMOKESCREEN_DISKFAULT_SEED` /
//! `SMOKESCREEN_DISKFAULT_RATE` and `SMOKESCREEN_NETFAULT_SEED` /
//! `SMOKESCREEN_NETFAULT_RATE` under the same strict-parse-or-panic
//! contract as the generation knobs.

use crate::rng::StdRng;

/// Environment variable carrying the fault-plan seed (decimal `u64`).
pub const FAULT_SEED_ENV: &str = "SMOKESCREEN_FAULT_SEED";

/// Environment variable carrying the total fault rate in `[0, 1]`.
pub const FAULT_RATE_ENV: &str = "SMOKESCREEN_FAULT_RATE";

/// Environment variable carrying the crash-plan seed (decimal `u64`).
pub const CRASH_SEED_ENV: &str = "SMOKESCREEN_CRASH_SEED";

/// Environment variable carrying the per-cell crash rate in `[0, 1]`.
pub const CRASH_RATE_ENV: &str = "SMOKESCREEN_CRASH_RATE";

/// Environment variable carrying the disk-fault-plan seed (decimal `u64`).
pub const DISKFAULT_SEED_ENV: &str = "SMOKESCREEN_DISKFAULT_SEED";

/// Environment variable carrying the per-operation disk-fault rate in `[0, 1]`.
pub const DISKFAULT_RATE_ENV: &str = "SMOKESCREEN_DISKFAULT_RATE";

/// Environment variable carrying the net-fault-plan seed (decimal `u64`).
pub const NETFAULT_SEED_ENV: &str = "SMOKESCREEN_NETFAULT_SEED";

/// Environment variable carrying the per-request net-fault rate in `[0, 1]`.
pub const NETFAULT_RATE_ENV: &str = "SMOKESCREEN_NETFAULT_RATE";

/// One scheduled fault for a model call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fails on every attempt; only a circuit breaker stops the bleeding.
    Timeout,
    /// Fails until the given 1-based attempt succeeds (attempt indices
    /// `0..clears_after` fail, attempt `clears_after` succeeds).
    Transient {
        /// Number of failed attempts before the call clears.
        clears_after: u32,
    },
    /// Succeeds, but the response costs this much extra simulated
    /// latency in milliseconds.
    Slow {
        /// Extra simulated latency, ms.
        extra_ms: u32,
    },
    /// Succeeds, but the result's cache shard is poisoned: the output
    /// must not be cached, so every request for this key re-runs the
    /// model.
    CachePoison,
}

/// A seeded, replayable fault schedule.
///
/// The plan is plain data (`Copy`): decisions are *pure functions* of
/// `(plan, call key)`, never of shared mutable state, so any thread can
/// evaluate them in any order and observe the identical schedule. The
/// per-key decision stream is xoshiro256\*\* seeded from a SplitMix-style
/// avalanche of the plan seed and the key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Probability a call hangs (fails every attempt).
    pub timeout_rate: f64,
    /// Probability a call fails transiently (cleared by retries).
    pub transient_rate: f64,
    /// Probability a call is slow (succeeds with extra latency).
    pub slow_rate: f64,
    /// Probability a call's cache shard is poisoned (uncacheable).
    pub poison_rate: f64,
}

impl FaultPlan {
    /// A plan splitting `rate` over the four failure modes with the
    /// default chaos mix: 40% transient, 25% timeout, 20% slow, 15%
    /// cache poisoning. `rate` is clamped to `[0, 1]`.
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        FaultPlan {
            seed,
            timeout_rate: 0.25 * rate,
            transient_rate: 0.40 * rate,
            slow_rate: 0.20 * rate,
            poison_rate: 0.15 * rate,
        }
    }

    /// A plan with explicit per-mode rates (each clamped to `[0, 1]`;
    /// their sum is treated as the total fault probability and should not
    /// exceed 1).
    pub fn with_rates(
        seed: u64,
        timeout_rate: f64,
        transient_rate: f64,
        slow_rate: f64,
        poison_rate: f64,
    ) -> Self {
        FaultPlan {
            seed,
            timeout_rate: timeout_rate.clamp(0.0, 1.0),
            transient_rate: transient_rate.clamp(0.0, 1.0),
            slow_rate: slow_rate.clamp(0.0, 1.0),
            poison_rate: poison_rate.clamp(0.0, 1.0),
        }
    }

    /// Builds a plan from `SMOKESCREEN_FAULT_SEED` /
    /// `SMOKESCREEN_FAULT_RATE`. Returns `None` when the rate is unset or
    /// zero — the faults-disabled configuration. A malformed seed or rate
    /// is a loud startup error (panic naming the variable and the raw
    /// string): a typo must never silently disable chaos.
    pub fn from_env() -> Option<Self> {
        plan_from_env([FAULT_SEED_ENV, FAULT_RATE_ENV], |[seed, rate]| {
            Self::parse_env(seed, rate)
        })
    }

    /// Parse layer behind [`FaultPlan::from_env`], exposed for tests.
    /// `Err` carries a message naming the offending variable and value.
    pub fn parse_env(seed: Option<&str>, rate: Option<&str>) -> Result<Option<Self>, String> {
        Ok(parse_seed_rate(FAULT_SEED_ENV, seed, FAULT_RATE_ENV, rate)?
            .map(|(seed, rate)| FaultPlan::new(seed, rate)))
    }

    /// The plan seed (for replay reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total probability that a call faults at all.
    pub fn total_rate(&self) -> f64 {
        self.timeout_rate + self.transient_rate + self.slow_rate + self.poison_rate
    }

    /// The fault scheduled for a call key, or `None` for a clean call.
    ///
    /// Pure in `(self, key)`: the same plan and key always return the
    /// same decision, on any thread, in any order.
    pub fn fault_for(&self, key: u64) -> Option<FaultKind> {
        if self.total_rate() <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed, key));
        let u = rng.gen_f64();
        let mut edge = self.timeout_rate;
        if u < edge {
            return Some(FaultKind::Timeout);
        }
        edge += self.transient_rate;
        if u < edge {
            // 1–3 failed attempts before clearing: within the default
            // retry budget sometimes, beyond it sometimes, so both the
            // retry-success and retry-exhausted paths get exercised.
            return Some(FaultKind::Transient {
                clears_after: rng.gen_range(1u32..=3),
            });
        }
        edge += self.slow_rate;
        if u < edge {
            return Some(FaultKind::Slow {
                extra_ms: rng.gen_range(5u32..=250),
            });
        }
        edge += self.poison_rate;
        if u < edge {
            return Some(FaultKind::CachePoison);
        }
        None
    }
}

/// How a scheduled process death interacts with the cell journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashKind {
    /// The process dies immediately *after* the cell's journal record is
    /// durably appended and synced: resume must splice the cell back in
    /// without recomputing it.
    AfterAppend,
    /// The process dies *mid-append*, leaving a torn record on disk (the
    /// frame plus `keep_frac` of the payload): resume must quarantine the
    /// tail and recompute the cell.
    TornAppend {
        /// Fraction of the record payload that reached disk, in `[0, 1)`.
        keep_frac: f64,
    },
}

/// A seeded, replayable schedule of process deaths during generation.
///
/// Like [`FaultPlan`], decisions are pure functions of `(plan, cell
/// index)` — same plan, same cells, same crashes, at any thread count.
/// The decision stream is keyed with a different avalanche constant than
/// the fault stream, so crash and fault schedules built from the same
/// seed are statistically independent.
///
/// A crash plan only makes *progress* when paired with a checkpoint
/// directory: the crash fires at journal-commit time, so without a
/// journal an identical rerun dies at the same cell forever. That is by
/// design — the plan simulates death, the journal supplies durability,
/// and the tests assert the pair converges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    seed: u64,
    rate: f64,
}

/// Domain-separation constant keeping crash decisions independent of
/// fault decisions derived from the same seed.
const CRASH_STREAM_SALT: u64 = 0x5C1A_11ED_C4A5_D00D;

impl CrashPlan {
    /// A plan killing generation at each cell's journal commit with
    /// probability `rate` (clamped to `[0, 1]`).
    pub fn new(seed: u64, rate: f64) -> Self {
        CrashPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The plan seed (for replay reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-cell crash probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The death scheduled at `cell`'s journal commit, or `None` if the
    /// commit completes. Pure in `(self, cell)`. Roughly half the
    /// scheduled deaths are clean ([`CrashKind::AfterAppend`]) and half
    /// tear the record ([`CrashKind::TornAppend`]).
    pub fn crash_at(&self, cell: u64) -> Option<CrashKind> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ CRASH_STREAM_SALT, cell));
        if rng.gen_f64() >= self.rate {
            return None;
        }
        if rng.gen_f64() < 0.5 {
            Some(CrashKind::AfterAppend)
        } else {
            Some(CrashKind::TornAppend {
                // Strictly below 1 so the record is always actually torn.
                keep_frac: rng.gen_f64() * 0.95,
            })
        }
    }

    /// Builds a plan from `SMOKESCREEN_CRASH_SEED` /
    /// `SMOKESCREEN_CRASH_RATE`. Returns `None` when the rate is unset or
    /// zero; malformed values are a loud startup error, matching
    /// [`FaultPlan::from_env`].
    pub fn from_env() -> Option<Self> {
        plan_from_env([CRASH_SEED_ENV, CRASH_RATE_ENV], |[seed, rate]| {
            Self::parse_env(seed, rate)
        })
    }

    /// Parse layer behind [`CrashPlan::from_env`], exposed for tests.
    pub fn parse_env(seed: Option<&str>, rate: Option<&str>) -> Result<Option<Self>, String> {
        Ok(parse_seed_rate(CRASH_SEED_ENV, seed, CRASH_RATE_ENV, rate)?
            .map(|(seed, rate)| CrashPlan::new(seed, rate)))
    }
}

/// One scheduled storage-level failure in the profile store's I/O path.
///
/// Disk faults model the path between the store and the platter, not rot
/// on the platter itself: a short write or torn sync leaves an *unacked*
/// torn tail (truncate-repaired before the next append), a read bit-flip
/// corrupts only the in-memory read buffer (the on-disk bytes stay good,
/// so a later attempt heals), and `EIO` fails before any byte moves.
/// That is what keeps "no acked write is ever lost" and "every injected
/// corruption is repairable" jointly satisfiable under any plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiskFaultKind {
    /// The append persists only `keep_frac` of the record frame before
    /// failing — a torn tail past the last durable offset.
    ShortWrite {
        /// Fraction of the frame that reached disk, in `[0, 1)`.
        keep_frac: f64,
    },
    /// The full frame is written but the sync fails: the bytes are not
    /// durable, so the store must treat the whole frame as a torn tail.
    TornSync,
    /// The read buffer comes back with a flipped bit for this many
    /// attempts, then reads clean — the on-disk record was never damaged.
    ReadBitFlip {
        /// Number of corrupted read attempts before the path heals.
        heals_after: u32,
    },
    /// The operation fails outright with an I/O error before any byte
    /// is transferred.
    Eio,
}

/// A seeded, replayable schedule of storage faults for the profile store.
///
/// Decisions are pure functions of `(plan, operation key)` like every
/// other plan here, with one refinement: writes and reads draw from
/// *separate* decision streams (distinct domain salts), so the append of
/// a record and later reads of the same record fault independently. The
/// store keys write operations on `(key, seq, attempt)` — a retried
/// append rolls a fresh decision — and read operations on `(key, seq)`,
/// so a scheduled bit-flip hits every reader of that record until the
/// per-record attempt counter passes `heals_after`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultPlan {
    seed: u64,
    rate: f64,
}

/// Domain-separation constant for the disk *write* decision stream.
const DISK_WRITE_STREAM_SALT: u64 = 0xD15C_F417_B10C_4EA1;

/// Domain-separation constant for the disk *read* decision stream.
const DISK_READ_STREAM_SALT: u64 = 0xD15C_0F11_D47A_0B0E;

impl DiskFaultPlan {
    /// A plan faulting each disk operation with probability `rate`
    /// (clamped to `[0, 1]`). Scheduled write faults split 40% short
    /// write / 30% torn sync / 30% `EIO`; scheduled read faults are
    /// always transient bit-flips.
    pub fn new(seed: u64, rate: f64) -> Self {
        DiskFaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The plan seed (for replay reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-operation fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The fault scheduled for write operation `op`, or `None` for a
    /// clean append. Pure in `(self, op)`; never returns
    /// [`DiskFaultKind::ReadBitFlip`].
    pub fn write_fault(&self, op: u64) -> Option<DiskFaultKind> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ DISK_WRITE_STREAM_SALT, op));
        if rng.gen_f64() >= self.rate {
            return None;
        }
        let u = rng.gen_f64();
        if u < 0.40 {
            Some(DiskFaultKind::ShortWrite {
                // Strictly below 1 so the frame is always actually torn.
                keep_frac: rng.gen_f64() * 0.95,
            })
        } else if u < 0.70 {
            Some(DiskFaultKind::TornSync)
        } else {
            Some(DiskFaultKind::Eio)
        }
    }

    /// The fault scheduled for read operation `op`, or `None` for a
    /// clean read. Pure in `(self, op)`; always a
    /// [`DiskFaultKind::ReadBitFlip`] when scheduled.
    pub fn read_fault(&self, op: u64) -> Option<DiskFaultKind> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ DISK_READ_STREAM_SALT, op));
        if rng.gen_f64() >= self.rate {
            return None;
        }
        Some(DiskFaultKind::ReadBitFlip {
            heals_after: rng.gen_range(1u32..=2),
        })
    }

    /// Builds a plan from `SMOKESCREEN_DISKFAULT_SEED` /
    /// `SMOKESCREEN_DISKFAULT_RATE`. Returns `None` when the rate is
    /// unset or zero; malformed values are a loud startup error, matching
    /// [`FaultPlan::from_env`].
    pub fn from_env() -> Option<Self> {
        plan_from_env([DISKFAULT_SEED_ENV, DISKFAULT_RATE_ENV], |[seed, rate]| {
            Self::parse_env(seed, rate)
        })
    }

    /// Parse layer behind [`DiskFaultPlan::from_env`], exposed for tests.
    pub fn parse_env(seed: Option<&str>, rate: Option<&str>) -> Result<Option<Self>, String> {
        Ok(
            parse_seed_rate(DISKFAULT_SEED_ENV, seed, DISKFAULT_RATE_ENV, rate)?
                .map(|(seed, rate)| DiskFaultPlan::new(seed, rate)),
        )
    }
}

/// One scheduled wire-level failure for a served request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetFaultKind {
    /// The request is silently eaten before processing — the client sees
    /// a read timeout and must retry (the server never applied it).
    DropRequest,
    /// The request is processed but its response never leaves — the
    /// dangerous half of at-most-once, which idempotent retries must
    /// absorb without double-applying.
    DropResponse,
    /// The response frame is truncated to `keep_frac` of its bytes and
    /// the connection closed — the client sees a torn frame.
    PartialResponse {
        /// Fraction of the encoded frame that is sent, in `[0, 1)`.
        keep_frac: f64,
    },
    /// The response is delivered after this much simulated extra latency
    /// (accounted, not slept).
    Delay {
        /// Extra simulated latency, ms.
        extra_ms: u32,
    },
    /// The connection is reset before the request is processed.
    Reset,
}

/// A seeded, replayable schedule of wire faults for the serving daemon.
///
/// Decisions are pure functions of `(plan, rid)` where `rid` is the
/// request id the client stamps into each attempt — so a retry (fresh
/// rid) rolls a fresh decision, and replaying a load with the same
/// client seeds replays the identical fault schedule at any server
/// width. Requests without a rid (control operations like `stats` and
/// `shutdown`) are never faulted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    seed: u64,
    rate: f64,
}

/// Domain-separation constant for the net decision stream.
const NET_STREAM_SALT: u64 = 0x4E7F_A017_C0FF_EE00;

impl NetFaultPlan {
    /// A plan faulting each rid-stamped request with probability `rate`
    /// (clamped to `[0, 1]`). Scheduled faults split 25% dropped request
    /// / 25% dropped response / 20% partial response / 20% delay / 10%
    /// reset.
    pub fn new(seed: u64, rate: f64) -> Self {
        NetFaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The plan seed (for replay reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-request fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The fault scheduled for request id `rid`, or `None` for clean
    /// delivery. Pure in `(self, rid)`.
    pub fn fault_for(&self, rid: u64) -> Option<NetFaultKind> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ NET_STREAM_SALT, rid));
        if rng.gen_f64() >= self.rate {
            return None;
        }
        let u = rng.gen_f64();
        if u < 0.25 {
            Some(NetFaultKind::DropRequest)
        } else if u < 0.50 {
            Some(NetFaultKind::DropResponse)
        } else if u < 0.70 {
            Some(NetFaultKind::PartialResponse {
                // Strictly below 1 so the frame is always actually torn.
                keep_frac: rng.gen_f64() * 0.95,
            })
        } else if u < 0.90 {
            Some(NetFaultKind::Delay {
                extra_ms: rng.gen_range(1u32..=50),
            })
        } else {
            Some(NetFaultKind::Reset)
        }
    }

    /// Builds a plan from `SMOKESCREEN_NETFAULT_SEED` /
    /// `SMOKESCREEN_NETFAULT_RATE`. Returns `None` when the rate is
    /// unset or zero; malformed values are a loud startup error, matching
    /// [`FaultPlan::from_env`].
    pub fn from_env() -> Option<Self> {
        plan_from_env([NETFAULT_SEED_ENV, NETFAULT_RATE_ENV], |[seed, rate]| {
            Self::parse_env(seed, rate)
        })
    }

    /// Parse layer behind [`NetFaultPlan::from_env`], exposed for tests.
    pub fn parse_env(seed: Option<&str>, rate: Option<&str>) -> Result<Option<Self>, String> {
        Ok(
            parse_seed_rate(NETFAULT_SEED_ENV, seed, NETFAULT_RATE_ENV, rate)?
                .map(|(seed, rate)| NetFaultPlan::new(seed, rate)),
        )
    }
}

/// The one strict reader behind every seeded plan's `parse_env`.
///
/// An unset seed defaults to 0; a set seed must be a decimal `u64`. An
/// unset rate disables the plan; a set rate must be a finite `f64` in
/// `[0, 1]`. Returns `Some((seed, rate))` only when the plan is armed
/// (rate > 0). A malformed seed is an error even when the rate leaves the
/// plan disabled — the typo is still a configuration bug. `Err` names
/// the offending variable and quotes the raw string.
pub fn parse_seed_rate(
    seed_var: &str,
    seed: Option<&str>,
    rate_var: &str,
    rate: Option<&str>,
) -> Result<Option<(u64, f64)>, String> {
    let seed = match seed {
        None => 0,
        Some(s) => s
            .trim()
            .parse()
            .map_err(|_| format!("{seed_var} must be a decimal u64 seed, got {s:?}"))?,
    };
    let Some(raw) = rate else {
        return Ok(None);
    };
    let rate = raw
        .trim()
        .parse::<f64>()
        .ok()
        .filter(|r| r.is_finite() && (0.0..=1.0).contains(r))
        .ok_or_else(|| format!("{rate_var} must be a rate in [0, 1], got {raw:?}"))?;
    Ok((rate > 0.0).then_some((seed, rate)))
}

/// The one panicking wrapper behind every seeded plan's `from_env`:
/// reads `vars` from the environment and hands their raw values to
/// `parse`. A parse error is a loud startup panic naming the variable and
/// the raw string — a typo in a chaos knob must never silently run the
/// disabled configuration.
pub fn plan_from_env<P, const N: usize>(
    vars: [&str; N],
    parse: impl FnOnce([Option<&str>; N]) -> Result<Option<P>, String>,
) -> Option<P> {
    let raw = vars.map(|var| std::env::var(var).ok());
    parse(raw.each_ref().map(Option::as_deref)).unwrap_or_else(|msg| panic!("{msg}"))
}

/// Avalanches `(seed, key)` into one well-mixed 64-bit stream seed
/// (SplitMix64 finalizer over both words). Every seeded plan keys its
/// decision stream through this, salted per plan family.
pub fn mix(seed: u64, key: u64) -> u64 {
    let mut x = seed ^ key.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_sensitive() {
        let plan = FaultPlan::new(7, 0.3);
        let other = FaultPlan::new(8, 0.3);
        let a: Vec<Option<FaultKind>> = (0..4_000).map(|k| plan.fault_for(k)).collect();
        let b: Vec<Option<FaultKind>> = (0..4_000).map(|k| plan.fault_for(k)).collect();
        assert_eq!(a, b, "same plan must replay the same schedule");
        let c: Vec<Option<FaultKind>> = (0..4_000).map(|k| other.fault_for(k)).collect();
        assert_ne!(a, c, "different seeds must schedule differently");
    }

    #[test]
    fn decisions_are_order_and_thread_independent() {
        let plan = FaultPlan::new(3, 0.25);
        let forward: Vec<Option<FaultKind>> = (0..1_000).map(|k| plan.fault_for(k)).collect();
        let mut backward: Vec<Option<FaultKind>> =
            (0..1_000).rev().map(|k| plan.fault_for(k)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        let threaded: Vec<Option<FaultKind>> = crate::pool::Pool::with_threads(8)
            .parallel_map(&(0..1_000u64).collect::<Vec<_>>(), |_, &k| plan.fault_for(k));
        assert_eq!(forward, threaded);
    }

    #[test]
    fn fault_frequency_tracks_rate() {
        for &rate in &[0.0, 0.05, 0.2, 0.5] {
            let plan = FaultPlan::new(11, rate);
            let n = 20_000u64;
            let faults = (0..n).filter(|&k| plan.fault_for(k).is_some()).count();
            let observed = faults as f64 / n as f64;
            assert!(
                (observed - rate).abs() < 0.02,
                "rate={rate} observed={observed}"
            );
        }
    }

    #[test]
    fn all_fault_kinds_appear_at_moderate_rates() {
        let plan = FaultPlan::new(5, 0.4);
        let (mut timeout, mut transient, mut slow, mut poison) = (0, 0, 0, 0);
        for k in 0..10_000 {
            match plan.fault_for(k) {
                Some(FaultKind::Timeout) => timeout += 1,
                Some(FaultKind::Transient { clears_after }) => {
                    assert!((1..=3).contains(&clears_after));
                    transient += 1;
                }
                Some(FaultKind::Slow { extra_ms }) => {
                    assert!((5..=250).contains(&extra_ms));
                    slow += 1;
                }
                Some(FaultKind::CachePoison) => poison += 1,
                None => {}
            }
        }
        assert!(timeout > 0 && transient > 0 && slow > 0 && poison > 0);
        assert!(transient > timeout, "default mix is transient-heavy");
    }

    #[test]
    fn zero_rate_plan_is_silent() {
        let plan = FaultPlan::new(1, 0.0);
        assert!((0..5_000).all(|k| plan.fault_for(k).is_none()));
        assert_eq!(plan.total_rate(), 0.0);
    }

    #[test]
    fn env_round_trip() {
        // from_env is documented to return None when the rate variable is
        // missing; exercised here without mutating process env (other
        // tests run concurrently), by checking the parse contract alone.
        assert!(FaultPlan::new(0, 2.0).total_rate() <= 1.0 + 1e-12);
        assert_eq!(FaultPlan::new(9, 0.3), FaultPlan::new(9, 0.3));
    }

    #[test]
    fn env_parsing_is_strict_and_loud() {
        // Valid configurations.
        assert_eq!(FaultPlan::parse_env(None, None), Ok(None));
        assert_eq!(FaultPlan::parse_env(Some("7"), None), Ok(None));
        assert_eq!(FaultPlan::parse_env(None, Some("0")), Ok(None));
        assert_eq!(
            FaultPlan::parse_env(Some("7"), Some("0.05")),
            Ok(Some(FaultPlan::new(7, 0.05)))
        );
        assert_eq!(
            CrashPlan::parse_env(Some("11"), Some("0.5")),
            Ok(Some(CrashPlan::new(11, 0.5)))
        );
        assert_eq!(CrashPlan::parse_env(None, Some("0.0")), Ok(None));

        // Malformed values surface the variable name and raw string.
        for (seed, rate, bad) in [
            (Some("banana"), Some("0.1"), "banana"),
            (Some("-3"), Some("0.1"), "-3"),
            (None, Some("lots"), "lots"),
            (None, Some("1.5"), "1.5"),
            (None, Some("-0.1"), "-0.1"),
            (None, Some("NaN"), "NaN"),
            (None, Some("inf"), "inf"),
        ] {
            let err = FaultPlan::parse_env(seed, rate).unwrap_err();
            assert!(err.contains("SMOKESCREEN_FAULT_"), "{err}");
            assert!(err.contains(bad), "{err} should quote {bad:?}");
            let err = CrashPlan::parse_env(seed, rate).unwrap_err();
            assert!(err.contains("SMOKESCREEN_CRASH_"), "{err}");
            assert!(err.contains(bad), "{err} should quote {bad:?}");
        }
        // A malformed seed is loud even when the rate leaves the plan
        // disabled — the typo is still a configuration bug.
        assert!(FaultPlan::parse_env(Some("oops"), None).is_err());
    }

    #[test]
    fn crash_decisions_are_pure_and_seed_sensitive() {
        let plan = CrashPlan::new(4, 0.3);
        let a: Vec<Option<CrashKind>> = (0..2_000).map(|c| plan.crash_at(c)).collect();
        let b: Vec<Option<CrashKind>> = (0..2_000).map(|c| plan.crash_at(c)).collect();
        assert_eq!(a, b, "same plan must replay the same crashes");
        let other: Vec<Option<CrashKind>> =
            (0..2_000).map(|c| CrashPlan::new(5, 0.3).crash_at(c)).collect();
        assert_ne!(a, other, "different seeds must crash differently");
    }

    #[test]
    fn crash_frequency_tracks_rate_and_mixes_kinds() {
        let plan = CrashPlan::new(2, 0.25);
        let n = 20_000u64;
        let (mut clean, mut torn) = (0usize, 0usize);
        for c in 0..n {
            match plan.crash_at(c) {
                Some(CrashKind::AfterAppend) => clean += 1,
                Some(CrashKind::TornAppend { keep_frac }) => {
                    assert!((0.0..1.0).contains(&keep_frac));
                    torn += 1;
                }
                None => {}
            }
        }
        let observed = (clean + torn) as f64 / n as f64;
        assert!((observed - 0.25).abs() < 0.02, "observed={observed}");
        assert!(clean > 0 && torn > 0, "both crash kinds must appear");
    }

    #[test]
    fn crash_stream_is_independent_of_fault_stream() {
        // Same seed, same keys: the two plans must not fire on the same
        // key set (domain separation), or chaos runs would correlate
        // model faults with process deaths.
        let faults = FaultPlan::new(42, 0.2);
        let crashes = CrashPlan::new(42, 0.2);
        let both = (0..20_000u64)
            .filter(|&k| faults.fault_for(k).is_some() && crashes.crash_at(k).is_some())
            .count();
        // Independent 20% streams co-fire on ~4% of keys; identical
        // streams would co-fire on 20%.
        assert!((both as f64 / 20_000.0) < 0.08, "co-fire={both}");
    }

    #[test]
    fn zero_rate_crash_plan_is_silent() {
        let plan = CrashPlan::new(9, 0.0);
        assert!((0..5_000).all(|c| plan.crash_at(c).is_none()));
    }

    #[test]
    fn disk_decisions_are_pure_and_seed_sensitive() {
        let plan = DiskFaultPlan::new(7, 0.3);
        let a: Vec<_> = (0..4_000)
            .map(|op| (plan.write_fault(op), plan.read_fault(op)))
            .collect();
        let b: Vec<_> = (0..4_000)
            .map(|op| (plan.write_fault(op), plan.read_fault(op)))
            .collect();
        assert_eq!(a, b, "same plan must replay the same schedule");
        let other = DiskFaultPlan::new(8, 0.3);
        let c: Vec<_> = (0..4_000)
            .map(|op| (other.write_fault(op), other.read_fault(op)))
            .collect();
        assert_ne!(a, c, "different seeds must schedule differently");
    }

    #[test]
    fn disk_decisions_are_order_and_thread_independent() {
        let plan = DiskFaultPlan::new(3, 0.25);
        let forward: Vec<_> = (0..1_000).map(|op| plan.write_fault(op)).collect();
        let threaded: Vec<_> = crate::pool::Pool::with_threads(8)
            .parallel_map(&(0..1_000u64).collect::<Vec<_>>(), |_, &op| {
                plan.write_fault(op)
            });
        assert_eq!(forward, threaded);
    }

    #[test]
    fn disk_fault_frequency_tracks_rate_on_both_streams() {
        for &rate in &[0.0, 0.05, 0.2] {
            let plan = DiskFaultPlan::new(11, rate);
            let n = 20_000u64;
            let writes = (0..n).filter(|&op| plan.write_fault(op).is_some()).count();
            let reads = (0..n).filter(|&op| plan.read_fault(op).is_some()).count();
            for observed in [writes as f64 / n as f64, reads as f64 / n as f64] {
                assert!(
                    (observed - rate).abs() < 0.02,
                    "rate={rate} observed={observed}"
                );
            }
        }
    }

    #[test]
    fn disk_streams_partition_kinds_and_are_independent() {
        let plan = DiskFaultPlan::new(5, 0.4);
        let (mut short, mut torn, mut eio, mut flip) = (0, 0, 0, 0);
        for op in 0..10_000 {
            match plan.write_fault(op) {
                Some(DiskFaultKind::ShortWrite { keep_frac }) => {
                    assert!((0.0..1.0).contains(&keep_frac));
                    short += 1;
                }
                Some(DiskFaultKind::TornSync) => torn += 1,
                Some(DiskFaultKind::Eio) => eio += 1,
                Some(DiskFaultKind::ReadBitFlip { .. }) => {
                    panic!("write stream must never schedule a read fault")
                }
                None => {}
            }
            match plan.read_fault(op) {
                Some(DiskFaultKind::ReadBitFlip { heals_after }) => {
                    assert!((1..=2).contains(&heals_after));
                    flip += 1;
                }
                Some(other) => panic!("read stream scheduled {other:?}"),
                None => {}
            }
        }
        assert!(short > 0 && torn > 0 && eio > 0 && flip > 0);
        // Same seed, same op keys: the write and read streams must not
        // co-fire like a single shared stream would.
        let co = (0..20_000u64)
            .filter(|&op| plan.write_fault(op).is_some() && plan.read_fault(op).is_some())
            .count();
        assert!((co as f64 / 20_000.0) < 0.25, "co-fire={co}");
    }

    #[test]
    fn net_decisions_are_pure_and_cover_every_kind() {
        let plan = NetFaultPlan::new(6, 0.4);
        let a: Vec<_> = (0..4_000).map(|rid| plan.fault_for(rid)).collect();
        let b: Vec<_> = (0..4_000).map(|rid| plan.fault_for(rid)).collect();
        assert_eq!(a, b, "same plan must replay the same schedule");
        let (mut dreq, mut dresp, mut partial, mut delay, mut reset) = (0, 0, 0, 0, 0);
        for rid in 0..10_000 {
            match plan.fault_for(rid) {
                Some(NetFaultKind::DropRequest) => dreq += 1,
                Some(NetFaultKind::DropResponse) => dresp += 1,
                Some(NetFaultKind::PartialResponse { keep_frac }) => {
                    assert!((0.0..1.0).contains(&keep_frac));
                    partial += 1;
                }
                Some(NetFaultKind::Delay { extra_ms }) => {
                    assert!((1..=50).contains(&extra_ms));
                    delay += 1;
                }
                Some(NetFaultKind::Reset) => reset += 1,
                None => {}
            }
        }
        assert!(dreq > 0 && dresp > 0 && partial > 0 && delay > 0 && reset > 0);
        assert!(reset < dreq, "resets are the rarest kind in the mix");
    }

    #[test]
    fn net_fault_frequency_tracks_rate() {
        for &rate in &[0.0, 0.05, 0.2] {
            let plan = NetFaultPlan::new(13, rate);
            let n = 20_000u64;
            let faults = (0..n).filter(|&rid| plan.fault_for(rid).is_some()).count();
            let observed = faults as f64 / n as f64;
            assert!(
                (observed - rate).abs() < 0.02,
                "rate={rate} observed={observed}"
            );
        }
    }

    #[test]
    fn serving_env_parsing_is_strict_and_loud() {
        assert_eq!(DiskFaultPlan::parse_env(None, None), Ok(None));
        assert_eq!(DiskFaultPlan::parse_env(Some("7"), Some("0")), Ok(None));
        assert_eq!(
            DiskFaultPlan::parse_env(Some("7"), Some("0.1")),
            Ok(Some(DiskFaultPlan::new(7, 0.1)))
        );
        assert_eq!(NetFaultPlan::parse_env(None, Some("0.0")), Ok(None));
        assert_eq!(
            NetFaultPlan::parse_env(Some("9"), Some("0.15")),
            Ok(Some(NetFaultPlan::new(9, 0.15)))
        );
        for (seed, rate, bad) in [
            (Some("banana"), Some("0.1"), "banana"),
            (None, Some("lots"), "lots"),
            (None, Some("1.5"), "1.5"),
            (None, Some("NaN"), "NaN"),
        ] {
            let err = DiskFaultPlan::parse_env(seed, rate).unwrap_err();
            assert!(err.contains("SMOKESCREEN_DISKFAULT_"), "{err}");
            assert!(err.contains(bad), "{err} should quote {bad:?}");
            let err = NetFaultPlan::parse_env(seed, rate).unwrap_err();
            assert!(err.contains("SMOKESCREEN_NETFAULT_"), "{err}");
            assert!(err.contains(bad), "{err} should quote {bad:?}");
        }
        assert!(DiskFaultPlan::parse_env(Some("oops"), None).is_err());
        assert!(NetFaultPlan::parse_env(Some("oops"), None).is_err());
    }
}
