//! Deterministic fault injection — seeded chaos for the model substrate
//! and the serving stack.
//!
//! In production, detectors time out, workers die mid-cell, disks tear
//! writes and networks drop frames. The paper's error bounds are only
//! trustworthy if the system stays *sound* under such failures, so the
//! workspace injects them on purpose — but, like every other stochastic
//! component here, deterministically. Every schedule is a
//! [`SeededPlan`]: plain `Copy` data (a seed, a rate and the stream's own
//! parameters) whose decisions are *pure functions* of `(plan, 64-bit
//! key)`. A key's decision stream is xoshiro256\*\*
//! ([`crate::rng::StdRng`]) seeded from a SplitMix-style avalanche of
//! `(seed ^ salt, key)`, where the salt is the stream's own constant. Two
//! runs with the same plan observe byte-identical schedules regardless of
//! thread count or interleaving, which is what makes chaos runs
//! replayable bit-for-bit; the per-stream salts keep plans armed from the
//! same seed statistically independent (`tests/seeded_plans.rs` checks
//! every pair).
//!
//! The generic owns everything the plans share: the seed, the rate
//! (clamped to `[0, 1]` once, a NaN rate disarming the plan), the salted
//! per-key stream, and arming from the environment. A [`Stream`] type
//! supplies the two variable names and the salt, plus any parameters of
//! its own. Four plans live here:
//!
//! * [`FaultPlan`] schedules model-call faults ([`FaultKind`]):
//!   **Timeout** fails every attempt (a hung detector), **Transient**
//!   fails a few attempts and then clears (retry with backoff saves it),
//!   **Slow** succeeds with extra simulated latency, and **CachePoison**
//!   succeeds but must never be cached. Its [`FaultMix`] splits the rate
//!   over the four modes.
//! * [`CrashPlan`] schedules whole-process deaths for the
//!   checkpoint/resume suite, keyed on the cell index: generation dies
//!   right after durably journaling a cell ([`CrashKind::AfterAppend`])
//!   or mid-append, leaving a torn record ([`CrashKind::TornAppend`]).
//! * [`DiskFaultPlan`] schedules storage faults against the profile store
//!   ([`DiskFaultKind`]) — short writes, torn syncs, transient read
//!   bit-flips and `EIO` — keyed on a per-operation id, with *separate*
//!   write and read streams so an append and the read-back of the same
//!   record never share a fate.
//! * [`NetFaultPlan`] schedules wire faults against the daemon
//!   ([`NetFaultKind`]) — dropped requests, dropped or truncated
//!   responses, delay and resets — keyed on the client-stamped request id,
//!   so a retried request (new rid) rolls a fresh decision.
//!
//! `video::perturb::PerturbPlan`, the content faults, is the fifth
//! instance.
//!
//! Replay recipe: set `SMOKESCREEN_<PLAN>_SEED` and
//! `SMOKESCREEN_<PLAN>_RATE` (`FAULT`, `CRASH`, `DISKFAULT`, `NETFAULT`)
//! and build the plan with [`SeededPlan::from_env`]; any failure observed
//! in a chaos run can then be replayed exactly. Malformed values are a
//! *loud* startup error (a panic naming the variable and the offending
//! string) — a typo in a chaos knob must never silently run the
//! faults-disabled configuration.

use crate::rng::StdRng;

/// The identity of one seeded decision stream: where its plan is armed
/// from and the salt that keeps its decisions independent of every other
/// stream's. The implementing type carries the stream's own parameters.
pub trait Stream: Copy {
    /// Environment variable carrying the plan seed (decimal `u64`).
    const SEED_ENV: &'static str;
    /// Environment variable carrying the plan rate in `[0, 1]`.
    const RATE_ENV: &'static str;
    /// Domain-separation constant XORed into the seed.
    const SALT: u64;
}

/// A seeded, replayable decision schedule over one [`Stream`].
///
/// The plan is plain data (`Copy`): decisions are pure functions of
/// `(plan, key)`, never of shared mutable state, so any thread can
/// evaluate them in any order and observe the identical schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeededPlan<S> {
    seed: u64,
    rate: f64,
    stream: S,
}

impl<S: Stream> SeededPlan<S> {
    /// A plan on `stream` firing with probability `rate`, clamped to
    /// `[0, 1]`. A NaN rate disarms the plan (rate 0).
    pub fn with_stream(seed: u64, rate: f64, stream: S) -> Self {
        // `f64::clamp` passes NaN through.
        let rate = if rate.is_nan() { 0.0 } else { rate.clamp(0.0, 1.0) };
        SeededPlan { seed, rate, stream }
    }

    /// The plan seed (for replay reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-key fire probability; 0 means the plan never fires.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The stream's own parameters.
    pub fn stream(&self) -> S {
        self.stream
    }

    /// `key`'s decision stream, or `None` while the plan is disarmed.
    pub fn rng(&self, key: u64) -> Option<StdRng> {
        self.rng_on(S::SALT, key)
    }

    /// `key`'s decision stream after its first uniform draw, if that draw
    /// fell under the rate; `None` for a key the plan leaves alone.
    pub fn fire(&self, key: u64) -> Option<StdRng> {
        self.fire_on(S::SALT, key)
    }

    fn rng_on(&self, salt: u64, key: u64) -> Option<StdRng> {
        (self.rate > 0.0).then(|| StdRng::seed_from_u64(mix(self.seed ^ salt, key)))
    }

    fn fire_on(&self, salt: u64, key: u64) -> Option<StdRng> {
        let mut rng = self.rng_on(salt, key)?;
        (rng.gen_f64() < self.rate).then_some(rng)
    }

    /// Parses raw [`Stream::SEED_ENV`] / [`Stream::RATE_ENV`] values.
    /// Returns `None` when the rate is unset or zero — the disabled
    /// configuration — and otherwise a plan on the stream `stream`
    /// builds. `Err` names the offending variable and quotes the raw
    /// value.
    pub fn parse_with(
        seed: Option<&str>,
        rate: Option<&str>,
        stream: impl FnOnce() -> Result<S, String>,
    ) -> Result<Option<Self>, String> {
        match parse_seed_rate(S::SEED_ENV, seed, S::RATE_ENV, rate)? {
            Some((seed, rate)) => Ok(Some(Self::with_stream(seed, rate, stream()?))),
            None => Ok(None),
        }
    }
}

impl<S: Stream + Default> SeededPlan<S> {
    /// A plan on the stream's default parameters firing with probability
    /// `rate` (see [`SeededPlan::with_stream`]).
    pub fn new(seed: u64, rate: f64) -> Self {
        Self::with_stream(seed, rate, S::default())
    }

    /// Parse layer behind [`SeededPlan::from_env`], exposed for tests.
    pub fn parse_env(seed: Option<&str>, rate: Option<&str>) -> Result<Option<Self>, String> {
        Self::parse_with(seed, rate, || Ok(S::default()))
    }

    /// Builds a plan from the stream's seed and rate variables. Returns
    /// `None` when the rate is unset or zero. A malformed seed or rate is
    /// a loud startup error (a panic naming the variable and the raw
    /// string): a typo must never silently disable chaos.
    pub fn from_env() -> Option<Self> {
        plan_from_env([S::SEED_ENV, S::RATE_ENV], |[seed, rate]| {
            Self::parse_env(seed, rate)
        })
    }
}

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

/// How a [`FaultPlan`] splits its rate over the four failure modes: a
/// call faults in a mode with probability `share × rate`. The default
/// mix — 40% transient, 25% timeout, 20% slow, 15% cache poisoning —
/// sums to 1, so the rate is the total fault probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Share of calls that hang (fail every attempt).
    pub timeout: f64,
    /// Share of calls that fail transiently (cleared by retries).
    pub transient: f64,
    /// Share of calls that are slow (succeed with extra latency).
    pub slow: f64,
    /// Share of calls whose cache shard is poisoned (uncacheable).
    pub poison: f64,
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            timeout: 0.25,
            transient: 0.40,
            slow: 0.20,
            poison: 0.15,
        }
    }
}

impl Stream for FaultMix {
    const SEED_ENV: &'static str = "SMOKESCREEN_FAULT_SEED";
    const RATE_ENV: &'static str = "SMOKESCREEN_FAULT_RATE";
    // Unsalted (`seed ^ 0`); every pinned fault schedule depends on it.
    const SALT: u64 = 0;
}

/// A seeded, replayable schedule of model-call faults, keyed on the call
/// key.
pub type FaultPlan = SeededPlan<FaultMix>;

impl FaultPlan {
    /// Per-mode fault probabilities: `[timeout, transient, slow, poison]`.
    pub fn mode_rates(&self) -> [f64; 4] {
        let m = self.stream;
        [m.timeout, m.transient, m.slow, m.poison].map(|share| share * self.rate)
    }

    /// The fault scheduled for a call key, or `None` for a clean call.
    /// The key's first uniform draw picks the mode against the cumulative
    /// per-mode rates.
    pub fn fault_for(&self, key: u64) -> Option<FaultKind> {
        let mut rng = self.rng(key)?;
        let u = rng.gen_f64();
        let [timeout, transient, slow, poison] = self.mode_rates();
        let mut edge = timeout;
        if u < edge {
            return Some(FaultKind::Timeout);
        }
        edge += transient;
        if u < edge {
            // 1–3 failed attempts before clearing: within the default
            // retry budget sometimes, beyond it sometimes, so both the
            // retry-success and retry-exhausted paths get exercised.
            return Some(FaultKind::Transient {
                clears_after: rng.gen_range(1u32..=3),
            });
        }
        edge += slow;
        if u < edge {
            return Some(FaultKind::Slow {
                extra_ms: rng.gen_range(5u32..=250),
            });
        }
        edge += poison;
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

/// The process-death stream of a [`CrashPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Crashes;

impl Stream for Crashes {
    const SEED_ENV: &'static str = "SMOKESCREEN_CRASH_SEED";
    const RATE_ENV: &'static str = "SMOKESCREEN_CRASH_RATE";
    const SALT: u64 = 0x5C1A_11ED_C4A5_D00D;
}

/// A seeded, replayable schedule of process deaths during generation,
/// keyed on the cell index: each cell's journal commit dies with
/// probability `rate`.
///
/// A crash plan only makes *progress* when paired with a checkpoint
/// directory: the crash fires at journal-commit time, so without a
/// journal an identical rerun dies at the same cell forever. That is by
/// design — the plan simulates death, the journal supplies durability,
/// and the tests assert the pair converges.
pub type CrashPlan = SeededPlan<Crashes>;

impl CrashPlan {
    /// The death scheduled at `cell`'s journal commit, or `None` if the
    /// commit completes. Roughly half the scheduled deaths are clean
    /// ([`CrashKind::AfterAppend`]) and half tear the record
    /// ([`CrashKind::TornAppend`]).
    pub fn crash_at(&self, cell: u64) -> Option<CrashKind> {
        let mut rng = self.fire(cell)?;
        if rng.gen_f64() < 0.5 {
            Some(CrashKind::AfterAppend)
        } else {
            Some(CrashKind::TornAppend {
                // Strictly below 1 so the record is always actually torn.
                keep_frac: rng.gen_f64() * 0.95,
            })
        }
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

/// The storage-fault streams of a [`DiskFaultPlan`]: [`Stream::SALT`]
/// salts the write stream, and reads draw from a second salt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiskFaults;

impl Stream for DiskFaults {
    const SEED_ENV: &'static str = "SMOKESCREEN_DISKFAULT_SEED";
    const RATE_ENV: &'static str = "SMOKESCREEN_DISKFAULT_RATE";
    const SALT: u64 = 0xD15C_F417_B10C_4EA1;
}

/// Domain-separation constant for the disk *read* decision stream.
const DISK_READ_SALT: u64 = 0xD15C_0F11_D47A_0B0E;

/// A seeded, replayable schedule of storage faults for the profile store:
/// each operation faults with probability `rate`.
///
/// The store keys write operations on `(key, seq, attempt)` — a retried
/// append rolls a fresh decision — and read operations on `(key, seq)`,
/// so a scheduled bit-flip hits every reader of that record until the
/// per-record attempt counter passes `heals_after`.
pub type DiskFaultPlan = SeededPlan<DiskFaults>;

impl DiskFaultPlan {
    /// The fault scheduled for write operation `op`, or `None` for a
    /// clean append: 40% short write / 30% torn sync / 30% `EIO`, never
    /// [`DiskFaultKind::ReadBitFlip`].
    pub fn write_fault(&self, op: u64) -> Option<DiskFaultKind> {
        let mut rng = self.fire(op)?;
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
    /// clean read; always a [`DiskFaultKind::ReadBitFlip`] when scheduled.
    pub fn read_fault(&self, op: u64) -> Option<DiskFaultKind> {
        let mut rng = self.fire_on(DISK_READ_SALT, op)?;
        Some(DiskFaultKind::ReadBitFlip {
            heals_after: rng.gen_range(1u32..=2),
        })
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

/// The wire-fault stream of a [`NetFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetFaults;

impl Stream for NetFaults {
    const SEED_ENV: &'static str = "SMOKESCREEN_NETFAULT_SEED";
    const RATE_ENV: &'static str = "SMOKESCREEN_NETFAULT_RATE";
    const SALT: u64 = 0x4E7F_A017_C0FF_EE00;
}

/// A seeded, replayable schedule of wire faults for the serving daemon,
/// keyed on the request id (`rid`) the client stamps into each attempt —
/// so a retry (fresh rid) rolls a fresh decision, and replaying a load
/// with the same client seeds replays the identical fault schedule at any
/// server width. Requests without a rid (control operations like `stats`
/// and `shutdown`) are never faulted.
pub type NetFaultPlan = SeededPlan<NetFaults>;

impl NetFaultPlan {
    /// The fault scheduled for request id `rid`, or `None` for clean
    /// delivery: 25% dropped request / 25% dropped response / 20% partial
    /// response / 20% delay / 10% reset.
    pub fn fault_for(&self, rid: u64) -> Option<NetFaultKind> {
        let mut rng = self.fire(rid)?;
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
}

/// The strict reader behind [`SeededPlan::parse_with`].
///
/// An unset seed defaults to 0; a set seed must be a decimal `u64`. An
/// unset rate disables the plan; a set rate must be a finite `f64` in
/// `[0, 1]`. Returns `Some((seed, rate))` only when the plan is armed
/// (rate > 0). A malformed seed is an error even when the rate leaves the
/// plan disabled — the typo is still a configuration bug. `Err` names
/// the offending variable and quotes the raw string.
fn parse_seed_rate(
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
/// (SplitMix64 finalizer over both words): the seed of every decision
/// stream, salted per stream.
fn mix(seed: u64, key: u64) -> u64 {
    let mut x = seed ^ key.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The properties every stream shares — purity, order and thread
    // independence, rate tracking, silence at rate 0 and NaN, pairwise
    // independence, strict env parsing and the pinned decision
    // fingerprints — are checked once, over every stream, by the root
    // suite `tests/seeded_plans.rs`. These tests pin each plan's kinds.

    #[test]
    fn fault_kinds_follow_the_mix() {
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

        // A one-mode mix schedules only that mode, at the full rate.
        let only = FaultMix { timeout: 0.0, transient: 0.0, slow: 0.0, poison: 1.0 };
        let plan = FaultPlan::with_stream(3, 0.2, only);
        assert_eq!(plan.mode_rates(), [0.0, 0.0, 0.0, 0.2]);
        assert!(
            (0..10_000).all(|k| matches!(plan.fault_for(k), None | Some(FaultKind::CachePoison)))
        );
    }

    #[test]
    fn crash_kinds_mix_clean_and_torn_deaths() {
        let plan = CrashPlan::new(2, 0.25);
        let (mut clean, mut torn) = (0usize, 0usize);
        for c in 0..20_000 {
            match plan.crash_at(c) {
                Some(CrashKind::AfterAppend) => clean += 1,
                Some(CrashKind::TornAppend { keep_frac }) => {
                    assert!((0.0..1.0).contains(&keep_frac));
                    torn += 1;
                }
                None => {}
            }
        }
        assert!(clean > 0 && torn > 0, "both crash kinds must appear");
    }

    #[test]
    fn disk_streams_partition_kinds() {
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
    }

    #[test]
    fn net_kinds_cover_the_mix() {
        let plan = NetFaultPlan::new(6, 0.4);
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
}
