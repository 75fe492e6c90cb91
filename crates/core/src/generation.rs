//! Profile generation (§3.1, §3.3.2).
//!
//! For every intervention candidate the generator records a
//! [`ProfilePoint`]. Three optimizations keep `N_model` and estimation
//! cost small:
//!
//! * **Output reuse** — a shared [`OutputCache`] means each `(frame,
//!   resolution)` pair is processed by the model at most once across all
//!   candidates; ascending fractions reuse the smaller samples' outputs
//!   outright because samples are nested prefixes.
//! * **Incremental estimation** — within one `(resolution, removal)`
//!   cell, a single [`AggregateKernel`] carries running estimator state
//!   across the ascending-fraction sweep, ingesting only the `Δn` newly
//!   sampled outputs per candidate and answering in `O(1)` (mean-style)
//!   or `O(log n)` (order-style) — bit-identical to the batch
//!   [`result_error_est`] path, which remains the one-shot reference.
//! * **Early stopping** — within a cell, fractions are profiled in
//!   ascending order and the sweep stops when the bound improves more
//!   slowly than a threshold.
//!
//! The generator also accounts for simulated model time vs. measured
//! estimation time, which reproduces the §5.3.1 breakdown.
//!
//! # Parallelism and determinism
//!
//! Independent `(resolution, removal)` cells are profiled concurrently on
//! an [`rt::pool`](smokescreen_rt::pool) scoped thread pool; the in-cell
//! ascending-fraction sweep stays sequential because early stopping reads
//! the previous candidate's bound. The contract is **bit-for-bit
//! determinism**: every candidate derives its sampling permutation from
//! the configured seed (never from execution order), cell results are
//! merged back in grid order, and the single-flight [`OutputCache`] keeps
//! `model_runs`/`cache_hits` schedule-independent — so the emitted
//! [`Profile`] is byte-identical for any thread count, including 1.
//! `estimation_time_ms` sums per-candidate durations (not wall-clock), so
//! it stays meaningful under concurrency; as a measured quantity it is the
//! one report field that naturally varies run-to-run.
//!
//! # Fault injection and graceful degradation
//!
//! A [`GeneratorConfig`] carrying a [`FaultPlan`] routes every model call
//! through the fault-aware [`OutputCache`]: transient failures retry under
//! deterministic backoff, permanent failures (timeouts, exhausted
//! budgets) drop the frame. A cell that loses frames **widens** instead
//! of lying: the kernel ingests only surviving outputs, so every emitted
//! bound is computed over the smaller survivor sample against the full
//! population `N` — sound by construction, because fault decisions depend
//! only on `(frame id, resolution)`, never on frame content, leaving the
//! survivors a uniform without-replacement sample (the lost frames simply
//! join the "not sampled" mass; DESIGN.md proves this). A per-cell
//! circuit breaker quarantines cells whose loss fraction exceeds
//! [`GeneratorConfig::max_cell_loss`] (or that lose *every* frame): their
//! points are withheld and the cell is reported in
//! [`GenerationReport::degraded_cells`] — degraded work is never silently
//! dropped.
//!
//! # Checkpoint/resume durability
//!
//! With [`GeneratorConfig::checkpoint`] set (or `SMOKESCREEN_CHECKPOINT_DIR`
//! in the environment, wired up by callers), every completed cell is
//! committed to an append-only [`rt::journal`](smokescreen_rt::journal)
//! before generation moves past it, and a restarted run splices the
//! journaled cells back in, recomputing only the missing ones. The
//! resumed profile is **bit-identical to an uninterrupted run** because a
//! cell's points are pure functions of `(workload, grid, seed, fault
//! plan)` — nothing a cell computes depends on which process computed it,
//! and the journal stores the cell's full output verbatim.
//!
//! Cells complete in arbitrary order under concurrency, but the journal
//! must describe a *schedule-independent* prefix, so commits are
//! serialized in **grid order**: a dedicated committer holds out-of-order
//! results in a pending map and appends a cell only once every earlier
//! cell is durable. The journal is therefore always a contiguous prefix
//! `0..m` of the grid, making [`GenerationReport::cells_resumed`] and
//! [`GenerationReport::journal_bytes`] deterministic at any thread count.
//! Work completed out of order ahead of a crash is simply recomputed —
//! lost wall-clock, never lost correctness.
//!
//! Resumed cells carry their journaled `frames_lost` / early-stop /
//! quarantine state, so those report fields equal an uninterrupted run's.
//! Cache-derived counters (`model_runs`, `cache_hits`, `model_time_ms`,
//! retry/fault counters) count only the *fresh* work of the current
//! process — cross-cell output reuse makes per-cell attribution
//! impossible — and remain schedule-independent for a given journal
//! state. Measured timings (`estimation_*_ms`) are excluded from journal
//! payloads so journal bytes stay deterministic.
//!
//! A seeded [`CrashPlan`] makes process death itself replayable: a pure
//! function of `(seed, cell index)` decides, at each cell's commit,
//! whether generation dies cleanly after the append or mid-append with a
//! torn record ([`CoreError::CrashInjected`]). Replay detects a torn
//! record's cell and suppresses that cell's scheduled torn crash on
//! resume (the tear already "happened"), so every crash→resume loop
//! terminates: each firing cell kills at most one run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use smokescreen_degrade::{
    CandidateGrid, DegradedView, InterventionSet, RangeOutputs, RestrictionIndex, SampleOrder,
};
use smokescreen_models::{OutputCache, RetryPolicy};
use smokescreen_rt::fault::{CrashKind, CrashPlan, FaultPlan};
use smokescreen_rt::journal::{Journal, JournalWriter, Replay};
use smokescreen_rt::json::{FromJson, Json, ToJson};
use smokescreen_rt::pool::Pool;
use smokescreen_rt::sync::Mutex;

use crate::correction::CorrectionSet;
use crate::estimate::{result_error_est, AggregateKernel, Workload};
use crate::profile::{Profile, ProfilePoint};
use crate::repair::{best_bound_for_random, corrected_bound};
use crate::{CoreError, Result};

/// Generator tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Sampling-permutation seed.
    pub seed: u64,
    /// Early-stopping: stop a fraction sweep when the bound improves by
    /// less than this between consecutive candidates. `None` disables.
    pub early_stop_improvement: Option<f64>,
    /// Minimum candidates per cell before early stopping may trigger.
    pub early_stop_min_points: usize,
    /// Worker threads for cell-level parallelism. `0` = automatic
    /// (`SMOKESCREEN_THREADS`, else available parallelism). The generated
    /// profile is byte-identical for every value.
    pub threads: usize,
    /// Seeded fault plan for chaos runs. `None` (the default) disables
    /// injection entirely — the production configuration.
    pub faults: Option<FaultPlan>,
    /// Retry budget and backoff for faulted model calls.
    pub retry: RetryPolicy,
    /// Circuit breaker: quarantine a cell when more than this fraction of
    /// its sampled frames are lost to permanent failures.
    pub max_cell_loss: f64,
    /// Checkpoint directory for crash-consistent generation. `None` (the
    /// default) disables journaling entirely and the run is byte-for-byte
    /// what it was before this feature existed. With a directory set,
    /// each completed cell is durably journaled in grid order and a rerun
    /// resumes from the journal, recomputing only missing cells.
    pub checkpoint: Option<PathBuf>,
    /// Seeded process-death schedule for chaos runs: generation dies at
    /// deterministic cells' journal commits with
    /// [`CoreError::CrashInjected`]. `None` (the default) disables it.
    /// Only useful together with [`checkpoint`](Self::checkpoint) — a
    /// crash without a journal replays identically and never progresses.
    pub crash: Option<CrashPlan>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0,
            early_stop_improvement: Some(0.005),
            early_stop_min_points: 3,
            threads: 0,
            faults: None,
            retry: RetryPolicy::default(),
            max_cell_loss: 0.5,
            checkpoint: None,
            crash: None,
        }
    }
}

/// Cost accounting for one generation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenerationReport {
    /// Distinct model invocations (`N_model`).
    pub model_runs: usize,
    /// Cache hits (reused outputs).
    pub cache_hits: usize,
    /// Simulated model processing time, ms (`N_model · T_model`).
    pub model_time_ms: f64,
    /// Measured wall-clock estimation time, ms (ingest + bound).
    pub estimation_time_ms: f64,
    /// Portion of estimation time spent ingesting sample outputs into the
    /// per-cell kernels (`Δn` cache fetches + kernel pushes).
    pub estimation_ingest_ms: f64,
    /// Portion of estimation time spent computing bounds and corrections
    /// from kernel state.
    pub estimation_bound_ms: f64,
    /// `(resolution, removal)` cells swept.
    pub cells: usize,
    /// Profiled points emitted.
    pub points: usize,
    /// Candidates skipped by early stopping.
    pub skipped_by_early_stop: usize,
    /// Retries spent clearing transient model faults (0 without a plan).
    pub retries: usize,
    /// Model calls that encountered an injected fault of any kind.
    pub faults_injected: usize,
    /// Simulated fault latency charged (retry backoff + slow responses),
    /// ms.
    pub fault_time_ms: f64,
    /// Sampled frames lost to permanent failures across surviving cells'
    /// swept prefixes.
    pub frames_lost: usize,
    /// Labels of cells quarantined by the circuit breaker, in grid order.
    /// Their candidates are withheld from the profile, never silently
    /// emitted with unsound bounds.
    pub degraded_cells: Vec<String>,
    /// Cells spliced back from the checkpoint journal instead of being
    /// recomputed (0 without a checkpoint directory). Schedule-independent:
    /// the journal always holds a contiguous grid-order prefix.
    pub cells_resumed: usize,
    /// Final size of the checkpoint journal in bytes (0 when disabled).
    /// Deterministic for a given workload: journal payloads exclude
    /// measured timings.
    pub journal_bytes: u64,
    /// Corruption events detected and quarantined during journal replay
    /// (torn tail record, checksum mismatch, wrong format version,
    /// zero-byte file, …). The damaged cells were recomputed; nonzero
    /// means the journal was repaired, never that the profile is wrong.
    pub journal_corrupt_records: usize,
}

/// Per-cell sweep result, merged into the profile in grid order.
#[derive(Debug, Default)]
struct CellOutput {
    points: Vec<ProfilePoint>,
    skipped_by_early_stop: usize,
    /// Frames lost to permanent failures in the cell's swept prefix.
    frames_lost: usize,
    /// Breaker label when the cell was quarantined (its points are
    /// withheld).
    quarantined: Option<String>,
    /// Time fetching sample outputs and pushing them into the kernel
    /// (sum of per-candidate durations, not wall-clock).
    ingest_ns: u128,
    /// Time computing bounds and corrections from kernel state.
    bound_ns: u128,
}

/// Journal codec for one completed cell.
///
/// The payload is the cell's *deterministic* output — points, early-stop
/// skips, loss accounting, quarantine label — encoded as compact JSON.
/// Measured timings (`ingest_ns`/`bound_ns`) are deliberately excluded:
/// they vary run to run, and journal bytes must not. A spliced cell
/// contributes zero to the timing totals, which only ever describe the
/// current process's work. The field names are the journal keys.
struct CellRecord {
    cell: usize,
    points: Vec<ProfilePoint>,
    skipped: usize,
    frames_lost: usize,
    quarantined: Option<String>,
}

smokescreen_rt::json_codec! { CellRecord { cell, points, skipped, frames_lost, quarantined } }

impl CellRecord {
    fn encode(cell: usize, out: &CellOutput) -> Vec<u8> {
        let record = CellRecord {
            cell,
            points: out.points.clone(),
            skipped: out.skipped_by_early_stop,
            frames_lost: out.frames_lost,
            quarantined: out.quarantined.clone(),
        };
        let mut text = String::new();
        record.write_json(&mut text);
        text.into_bytes()
    }

    /// Decodes a replayed payload, rejecting anything malformed or
    /// carrying the wrong cell index. A `None` here is treated by replay
    /// exactly like a checksum mismatch: quarantine and recompute.
    fn decode(cell: u32, bytes: &[u8]) -> Option<CellOutput> {
        let text = std::str::from_utf8(bytes).ok()?;
        let record = CellRecord::from_json(&Json::parse(text).ok()?).ok()?;
        (record.cell == cell as usize).then(|| CellOutput {
            points: record.points,
            skipped_by_early_stop: record.skipped,
            frames_lost: record.frames_lost,
            quarantined: record.quarantined,
            ..CellOutput::default()
        })
    }
}

/// Serializes journal commits into grid order.
///
/// Workers complete cells in schedule-dependent order; the committer
/// parks finished payloads in a pending map and appends to the journal
/// only the contiguous next-in-grid-order run, so the on-disk journal is
/// always a prefix `0..m` of the grid regardless of thread count. The
/// seeded [`CrashPlan`] is evaluated here — at commit time, in grid
/// order — which is what makes injected process deaths deterministic.
struct Committer {
    inner: Mutex<CommitterInner>,
    crash: Option<CrashPlan>,
    /// Cell whose torn append already reached disk in a previous life
    /// (identified by replay): its scheduled torn crash must not re-fire,
    /// or the crash→resume loop would never terminate.
    torn_done: Option<usize>,
}

struct CommitterInner {
    writer: Option<JournalWriter>,
    /// Completed-but-not-yet-durable cells; `None` marks a cell whose
    /// computation failed (commits halt at it — the run is failing).
    pending: BTreeMap<usize, Option<Vec<u8>>>,
    /// Next grid-order cell index to commit.
    next: usize,
    /// Cell whose commit an injected crash killed, once fired.
    crashed: Option<usize>,
    /// First journal I/O failure, surfaced as [`CoreError::Checkpoint`].
    io_error: Option<String>,
    /// Set when an errored cell blocks the contiguous prefix.
    halted: bool,
}

impl Committer {
    fn new(writer: Option<JournalWriter>, resumed: usize, crash: Option<CrashPlan>, torn_done: Option<usize>) -> Self {
        Committer {
            inner: Mutex::new(CommitterInner {
                writer,
                pending: BTreeMap::new(),
                next: resumed,
                crashed: None,
                io_error: None,
                halted: false,
            }),
            crash,
            torn_done,
        }
    }

    /// Whether an injected crash has fired; workers poll this and stop
    /// starting new cells, simulating prompt process death.
    fn crashed(&self) -> bool {
        self.inner.lock().crashed.is_some()
    }

    /// Offers a completed cell (`None` payload = the cell errored) and
    /// drains every newly contiguous cell to the journal.
    fn offer(&self, cell: usize, payload: Option<Vec<u8>>) {
        let mut g = self.inner.lock();
        if g.crashed.is_some() || g.io_error.is_some() || g.halted {
            return;
        }
        g.pending.insert(cell, payload);
        loop {
            let cell = g.next;
            let Some(payload) = g.pending.remove(&cell) else {
                return;
            };
            let Some(payload) = payload else {
                // An errored cell can never become durable; later cells
                // must not be journaled past the gap (contiguity is the
                // resume invariant). The run is returning Err anyway.
                g.halted = true;
                return;
            };
            g.next += 1;
            let crash = match self.crash.and_then(|p| p.crash_at(cell as u64)) {
                Some(CrashKind::TornAppend { .. }) if self.torn_done == Some(cell) => None,
                c => c,
            };
            let written = match (&mut g.writer, crash) {
                // The process dies mid-append: a torn record reaches disk
                // and resume must quarantine it and recompute.
                (Some(w), Some(CrashKind::TornAppend { keep_frac })) => w
                    .append_torn(cell as u32, &payload, keep_frac)
                    .map_err(|e| format!("tearing cell {cell}: {e}")),
                // With `AfterAppend` the record becomes durable, *then* the
                // process dies: resume must splice this cell without
                // recomputing it.
                (Some(w), _) => w
                    .append(cell as u32, &payload)
                    .map_err(|e| format!("appending cell {cell}: {e}")),
                // Without a journal a crash still fires (the plan simulates
                // the process, not the disk); nothing is durable.
                (None, _) => Ok(()),
            };
            if let Err(msg) = written {
                g.io_error = Some(msg);
                return;
            }
            if crash.is_some() {
                g.crashed = Some(cell);
                return;
            }
        }
    }

    /// Tears down the committer, returning `(journal bytes, crashed cell,
    /// io error)`.
    fn finish(self) -> (u64, Option<usize>, Option<String>) {
        let g = self.inner.into_inner();
        (
            g.writer.as_ref().map_or(0, |w| w.bytes()),
            g.crashed,
            g.io_error,
        )
    }
}

/// Profile generator for one workload.
pub struct ProfileGenerator<'a> {
    workload: &'a Workload<'a>,
    restrictions: &'a RestrictionIndex,
    config: GeneratorConfig,
}

impl<'a> ProfileGenerator<'a> {
    /// Creates a generator.
    pub fn new(
        workload: &'a Workload<'a>,
        restrictions: &'a RestrictionIndex,
        config: GeneratorConfig,
    ) -> Self {
        ProfileGenerator {
            workload,
            restrictions,
            config,
        }
    }

    /// Generates the profile over the candidate grid.
    ///
    /// When a correction set is supplied, non-random candidates get
    /// repaired bounds (and are marked `corrected`); random candidates get
    /// the tighter of direct and corrected bounds. Without one, non-random
    /// candidates still record their (possibly invalid) direct bounds —
    /// the baseline behaviour Figure 6 exposes.
    pub fn generate(
        &self,
        grid: &CandidateGrid,
        correction: Option<&CorrectionSet>,
    ) -> Result<(Profile, GenerationReport)> {
        let (detector, frames) = (self.workload.detector, self.workload.corpus.len());
        let cache = match self.config.faults {
            Some(plan) => OutputCache::with_faults(detector, frames, plan, self.config.retry),
            None => OutputCache::new(detector, frames),
        };

        let combos: &[Vec<smokescreen_video::ObjectClass>] = if grid.class_combos.is_empty() {
            &[Vec::new()]
        } else {
            &grid.class_combos
        };
        let resolutions: Vec<Option<smokescreen_video::Resolution>> =
            if grid.resolutions.is_empty() {
                vec![None]
            } else {
                grid.resolutions.iter().copied().map(Some).collect()
            };

        // Grid-order cell list (resolution-major, combo-minor); this order
        // defines the candidate order of the merged profile.
        let cells: Vec<(Option<smokescreen_video::Resolution>, usize)> = resolutions
            .iter()
            .flat_map(|&res| (0..combos.len()).map(move |c| (res, c)))
            .collect();
        // One sample order per removal subset, built by the first of its
        // cells to need it and shared by the rest: it does not depend on
        // the resolution.
        let orders: Vec<OnceLock<Option<SampleOrder>>> =
            combos.iter().map(|_| OnceLock::new()).collect();

        // Open the checkpoint journal (when configured) and splice back
        // every cell it already holds. Replay validates each record's
        // checksum, sequence position, and payload shape; anything
        // damaged is quarantined and simply recomputed below.
        let (writer, replay) = match &self.config.checkpoint {
            Some(dir) => {
                let (w, r) = self.open_journal(dir, grid, cells.len())?;
                (Some(w), r)
            }
            None => (None, Replay::default()),
        };
        let resumed: Vec<CellOutput> = replay
            .payloads
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                CellRecord::decode(i as u32, payload)
                    .expect("replay already validated payloads")
            })
            .collect();
        let journaled = writer.is_some();
        let committer = Committer::new(
            writer,
            resumed.len(),
            self.config.crash,
            replay.torn_record.map(|c| c as usize),
        );

        let pool = Pool::with_threads(self.config.threads);
        let resumed_len = resumed.len();
        // Cells left per processing resolution: the last to finish frees
        // that resolution's outputs, which no later cell reads.
        let processing = |res| self.workload.corpus.processing_resolution(res);
        let mut cells_left: BTreeMap<smokescreen_video::Resolution, AtomicUsize> = BTreeMap::new();
        for &(res, _) in &cells {
            *cells_left.entry(processing(res)).or_default().get_mut() += 1;
        }
        let fresh_outputs = pool.parallel_map(&cells, |i, &(resolution, c)| {
            let out = if i < resumed_len || committer.crashed() {
                // Already durable (spliced below), or the process is
                // "dead" — a real crash would compute nothing further.
                Ok(None)
            } else {
                match self
                    .profile_cell(grid, resolution, &combos[c], &orders[c], correction, &cache)
                {
                    Ok(out) => {
                        // Without a journal the payload is never written.
                        let payload = journaled.then(|| CellRecord::encode(i, &out));
                        committer.offer(i, Some(payload.unwrap_or_default()));
                        Ok(Some(out))
                    }
                    Err(e) => {
                        committer.offer(i, None);
                        Err(e)
                    }
                }
            };
            let res = processing(resolution);
            if cells_left[&res].fetch_sub(1, Ordering::AcqRel) == 1 {
                cache.release(res);
            }
            out
        });

        let (journal_bytes, crashed, io_error) = committer.finish();
        if let Some(msg) = io_error {
            return Err(CoreError::Checkpoint(msg));
        }
        if let Some(cell) = crashed {
            return Err(CoreError::CrashInjected { cell });
        }

        let mut points = Vec::new();
        let mut report = GenerationReport::default();
        report.cells = cells.len();
        report.cells_resumed = resumed_len;
        report.journal_bytes = journal_bytes;
        report.journal_corrupt_records = replay.corrupt_records;
        let mut ingest_ns: u128 = 0;
        let mut bound_ns: u128 = 0;
        let mut resumed = resumed.into_iter();
        for (i, fresh) in fresh_outputs.into_iter().enumerate() {
            let cell = if i < resumed_len {
                resumed.next().expect("resumed prefix has resumed_len cells")
            } else {
                fresh?.expect("non-crashed run computes every fresh cell")
            };
            report.skipped_by_early_stop += cell.skipped_by_early_stop;
            report.frames_lost += cell.frames_lost;
            if let Some(label) = cell.quarantined {
                report.degraded_cells.push(label);
            }
            ingest_ns += cell.ingest_ns;
            bound_ns += cell.bound_ns;
            points.extend(cell.points);
        }

        let inv = cache.invocations();
        report.model_runs = inv.model_runs;
        report.cache_hits = inv.cache_hits;
        report.model_time_ms = inv.model_time_ms;
        report.retries = inv.retries;
        report.faults_injected = inv.faults_injected;
        report.fault_time_ms = inv.fault_time_ms;
        report.estimation_ingest_ms = ingest_ns as f64 / 1e6;
        report.estimation_bound_ms = bound_ns as f64 / 1e6;
        report.estimation_time_ms = (ingest_ns + bound_ns) as f64 / 1e6;
        report.points = points.len();

        Ok((
            Profile {
                corpus: self.workload.corpus.name.clone(),
                model: self.workload.detector.name().to_string(),
                class: self.workload.class,
                aggregate: self.workload.aggregate,
                delta: self.workload.delta,
                points,
            },
            report,
        ))
    }

    /// Opens (creating if needed) this workload's journal inside the
    /// checkpoint directory, replaying any valid prefix.
    ///
    /// The journal file is keyed by a workload identity string — corpus,
    /// detector, query, grid, seed, and every config knob that changes
    /// cell *contents* — so journals from different workloads sharing a
    /// directory can never cross-contaminate. Thread count and the crash
    /// plan are deliberately excluded: neither changes what a cell
    /// computes, and resume must work across both.
    fn open_journal(
        &self,
        dir: &Path,
        grid: &CandidateGrid,
        n_cells: usize,
    ) -> Result<(JournalWriter, Replay)> {
        std::fs::create_dir_all(dir).map_err(|e| {
            CoreError::Checkpoint(format!("creating checkpoint dir {}: {e}", dir.display()))
        })?;
        let identity = self.journal_identity(grid);
        let path = dir.join(format!(
            "profile-{:016x}.journal",
            smokescreen_rt::log::checksum64(identity.as_bytes())
        ));
        let validate =
            |idx: u32, payload: &[u8]| (idx as usize) < n_cells && CellRecord::decode(idx, payload).is_some();
        Journal::open(&path, &identity, validate).map_err(|e| {
            CoreError::Checkpoint(format!("opening journal {}: {e}", path.display()))
        })
    }

    /// The workload identity a journal is bound to (stored checksummed in
    /// the journal header). Everything that affects a cell's output is in
    /// here; nothing that merely affects scheduling is.
    fn journal_identity(&self, grid: &CandidateGrid) -> String {
        let w = self.workload;
        let c = &self.config;
        let faults = match &c.faults {
            Some(p) => {
                let [to, tr, sl, po] = p.mode_rates();
                format!("seed={};to={to};tr={tr};sl={sl};po={po}", p.seed())
            }
            None => "none".to_string(),
        };
        format!(
            "smokescreen-profile-v1|corpus={}|frames={}|native={}|model={}|class={:?}|agg={:?}|delta={}|seed={}|early_stop={:?}/{}|max_loss={}|retry={}/{}/{}|faults={}|fractions={:?}|resolutions={:?}|combos={:?}",
            w.corpus.name,
            w.corpus.len(),
            w.corpus.native_resolution,
            w.detector.name(),
            w.class,
            w.aggregate,
            w.delta,
            c.seed,
            c.early_stop_improvement,
            c.early_stop_min_points,
            c.max_cell_loss,
            c.retry.max_attempts,
            c.retry.base_backoff_ms,
            c.retry.backoff_factor,
            faults,
            grid.fractions,
            grid.resolutions,
            grid.class_combos,
        )
    }

    /// Profiles one `(resolution, removal)` cell: the ascending-fraction
    /// sweep with early stopping. One pool task per cell; results merge
    /// back in grid order.
    ///
    /// The sweep is incremental: because the cell's samples are nested
    /// prefixes of one seeded permutation, a single [`AggregateKernel`]
    /// ingests only the `Δn` outputs each fraction step adds and serves
    /// every candidate's answer/bound from running state — bit-identical
    /// to re-running [`profile_point`](Self::profile_point) per candidate,
    /// which remains the reference path for one-shot callers.
    fn profile_cell(
        &self,
        grid: &CandidateGrid,
        resolution: Option<smokescreen_video::Resolution>,
        combo: &[smokescreen_video::ObjectClass],
        order: &OnceLock<Option<SampleOrder>>,
        correction: Option<&CorrectionSet>,
        cache: &OutputCache<'_>,
    ) -> Result<CellOutput> {
        let mut out = CellOutput::default();
        // The native resolution is not a degradation: normalize it to None
        // so candidates classify as random and need no correction.
        let effective_res =
            resolution.filter(|&r| r != self.workload.corpus.native_resolution);
        if let Some(res) = effective_res {
            if !self.workload.detector.supports(res) {
                return Err(CoreError::UnsupportedResolution {
                    model: self.workload.detector.name().to_string(),
                    resolution: res.to_string(),
                });
            }
        }
        let cell_set = |fraction: f64| {
            let mut set = InterventionSet::sampling(fraction).with_restricted(combo);
            set.resolution = effective_res;
            set
        };

        // One view at the largest feasible fraction covers the whole sweep:
        // the eligible population and sampling permutation are
        // fraction-independent, so every candidate's sample is a prefix of
        // this view's sample order. They are resolution-independent too,
        // so the view borrows the removal subset's shared `order`.
        // Infeasible cells (removal leaves nothing) skip every candidate,
        // exactly as the per-candidate path does.
        let max_fraction = grid
            .fractions
            .iter()
            .copied()
            .filter(|f| *f > 0.0 && *f <= 1.0)
            .fold(f64::NAN, f64::max);
        if !max_fraction.is_finite() {
            return Ok(out);
        }
        let order =
            order.get_or_init(|| SampleOrder::new(self.restrictions, combo, self.config.seed).ok());
        let view = match order
            .as_ref()
            .map(|o| DegradedView::with_order(self.workload.corpus, cell_set(max_fraction), o))
        {
            Some(Ok(v)) => v,
            _ => return Ok(out),
        };
        debug_assert!(!view.rewrites_frames(), "grid candidates never rewrite frames");

        let population = self.workload.corpus.len();
        let mut kernel = AggregateKernel::with_capacity(self.workload.aggregate, view.len());
        // Reused fetch buffer for the ladder: with a warm cache (and once
        // its capacity covers the largest rung) the fetch→extend→estimate
        // loop below performs no heap allocation — see the zero-alloc
        // suite in tests/zero_alloc.rs and the `cell_path_steady_ingest`
        // trajectory bench.
        let mut fresh = RangeOutputs::default();
        out.points.reserve(grid.fractions.len());
        let mut prev_err: Option<f64> = None;
        let mut stopped = false;
        let mut seen = 0usize;
        // Sample positions consumed so far (survivors + lost). Under fault
        // injection this runs ahead of `kernel.n()`, which counts only
        // survivors — the prefix arithmetic must use positions, not
        // kernel size, or gaps would shift every later fetch.
        let mut prefix_pos = 0usize;
        // Frames lost to permanent failures within the current prefix.
        let mut lost = 0usize;
        for &fraction in &grid.fractions {
            if stopped {
                out.skipped_by_early_stop += 1;
                continue;
            }
            let n_f = match view.sample_size_for_fraction(fraction) {
                Ok(n) => n,
                // An individually infeasible candidate (invalid fraction)
                // is skipped, as the per-candidate path skips
                // `InvalidIntervention`.
                Err(_) => continue,
            };

            let t0 = Instant::now();
            if n_f < prefix_pos {
                // Non-ascending grid: restart the prefix. Correct for any
                // fraction order, merely slower than the ascending case.
                kernel = AggregateKernel::with_capacity(self.workload.aggregate, view.len());
                prefix_pos = 0;
                lost = 0;
            }
            if n_f > prefix_pos {
                view.try_outputs_cached_range_into(
                    cache,
                    self.workload.class,
                    prefix_pos..n_f,
                    &mut fresh,
                );
                kernel.extend(&fresh.values);
                lost += fresh.lost;
                prefix_pos = n_f;
            }
            out.ingest_ns += t0.elapsed().as_nanos();
            out.frames_lost = lost;

            // Circuit breaker: with no survivors there is nothing sound to
            // emit, and past the loss tolerance the cell is degraded enough
            // that the administrator must be told rather than handed a
            // (still sound, but badly widened) profile. Either way the
            // whole cell is quarantined — reported, never silently dropped.
            if lost > 0
                && (kernel.n() == 0
                    || lost as f64 > self.config.max_cell_loss * prefix_pos as f64)
            {
                out.points.clear();
                out.skipped_by_early_stop = 0;
                out.quarantined = Some(format!(
                    "res={} removal={:?} (lost {lost}/{prefix_pos} sampled frames)",
                    effective_res.map_or_else(|| "native".to_string(), |r| r.to_string()),
                    combo,
                ));
                return Ok(out);
            }

            let t1 = Instant::now();
            let set = cell_set(fraction);
            let est = kernel.estimate(population, self.workload.delta)?;
            let (err_b, corrected) = match correction {
                Some(cs) if !set.is_random_only() => (corrected_bound(&est, cs)?, true),
                Some(cs) => {
                    let best = best_bound_for_random(&est, cs)?;
                    (best, best < est.err_b())
                }
                None => (est.err_b(), false),
            };
            out.bound_ns += t1.elapsed().as_nanos();
            let point = ProfilePoint {
                set,
                y_approx: est.y_approx(),
                err_b,
                corrected,
                n: est.n(),
            };
            seen += 1;

            if let (Some(threshold), Some(prev)) =
                (self.config.early_stop_improvement, prev_err)
            {
                if seen >= self.config.early_stop_min_points
                    && (prev - point.err_b).abs() < threshold
                {
                    stopped = true;
                }
            }
            prev_err = Some(point.err_b);
            out.points.push(point);
        }
        Ok(out)
    }

    /// Profiles one candidate.
    pub fn profile_point(
        &self,
        set: &InterventionSet,
        correction: Option<&CorrectionSet>,
        cache: &OutputCache<'_>,
    ) -> Result<ProfilePoint> {
        let est = result_error_est(
            self.workload,
            self.restrictions,
            set,
            self.config.seed,
            Some(cache),
        )?;
        let (err_b, corrected) = match correction {
            Some(cs) if !set.is_random_only() => (corrected_bound(&est, cs)?, true),
            Some(cs) => {
                let best = best_bound_for_random(&est, cs)?;
                (best, best < est.err_b())
            }
            None => (est.err_b(), false),
        };
        Ok(ProfilePoint {
            set: set.clone(),
            y_approx: est.y_approx(),
            err_b,
            corrected,
            n: est.n(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correction::{build_correction_set, CorrectionConfig};
    use smokescreen_rt::fault::FaultMix;
    use crate::estimate::Aggregate;
    use smokescreen_degrade::CandidateGrid;
    use smokescreen_models::SimYoloV4;
    use smokescreen_video::synth::DatasetPreset;
    use smokescreen_video::{ObjectClass, Resolution};

    fn grid() -> CandidateGrid {
        CandidateGrid::explicit(
            vec![0.01, 0.02, 0.05, 0.1, 0.2],
            vec![Resolution::square(320), Resolution::square(608)],
            vec![vec![], vec![ObjectClass::Person]],
        )
    }

    #[test]
    fn generates_points_for_grid_cells() {
        let corpus = DatasetPreset::Detrac.generate(40).slice(0, 3_000);
        let yolo = SimYoloV4::new(1);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions =
            RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let gen = ProfileGenerator::new(
            &w,
            &restrictions,
            GeneratorConfig {
                early_stop_improvement: None,
                ..Default::default()
            },
        );
        let (profile, report) = gen.generate(&grid(), None).unwrap();
        assert_eq!(profile.len(), 20); // 5 × 2 × 2
        assert_eq!(report.points, 20);
        assert!(report.model_runs > 0);
        assert!(report.model_time_ms > 0.0);
    }

    #[test]
    fn incremental_sweep_matches_per_candidate_batch_reference() {
        // The kernel-backed sweep inside `generate` must reproduce the
        // batch reference — `profile_point` re-estimating each candidate
        // from scratch — bit for bit, on mean-style and order-style
        // aggregates alike.
        let corpus = DatasetPreset::Detrac.generate(1).slice(0, 2_000);
        let yolo = SimYoloV4::new(1);
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let fractions: Vec<f64> = (1..=20).map(|i| f64::from(i) / 20.0).collect();
        let grid = CandidateGrid::explicit(fractions.clone(), vec![], vec![]);
        for aggregate in [
            Aggregate::Avg,
            Aggregate::Max { r: 0.99 },
            Aggregate::Quantile { r: 0.5 },
        ] {
            let w = Workload {
                corpus: &corpus,
                detector: &yolo,
                class: ObjectClass::Car,
                aggregate,
                delta: 0.05,
            };
            let gen = ProfileGenerator::new(
                &w,
                &restrictions,
                GeneratorConfig {
                    early_stop_improvement: None,
                    ..Default::default()
                },
            );
            let cache = OutputCache::new(&yolo, corpus.len());
            let batch_points: Vec<ProfilePoint> = fractions
                .iter()
                .map(|&f| {
                    gen.profile_point(&InterventionSet::sampling(f), None, &cache)
                        .unwrap()
                })
                .collect();
            let (profile, _) = gen.generate(&grid, None).unwrap();
            assert_eq!(profile.points, batch_points, "{aggregate:?}");
        }
    }

    #[test]
    fn reuse_cache_bounds_model_runs() {
        // Across all 20 candidates the model may run at most
        // (distinct frames sampled) × (2 resolutions) times, and the
        // largest fraction dominates: runs ≤ 2 × n_max_eligible.
        let corpus = DatasetPreset::Detrac.generate(41).slice(0, 2_000);
        let yolo = SimYoloV4::new(2);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions =
            RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let gen = ProfileGenerator::new(
            &w,
            &restrictions,
            GeneratorConfig {
                early_stop_improvement: None,
                ..Default::default()
            },
        );
        let (_, report) = gen.generate(&grid(), None).unwrap();
        let n_max = (0.2 * 2_000.0) as usize;
        assert!(
            report.model_runs <= 2 * 2 * n_max,
            "model_runs={} should be bounded by reuse",
            report.model_runs
        );
        assert!(report.cache_hits > 0, "nested fractions must hit the cache");
    }

    #[test]
    fn early_stopping_skips_flat_tail() {
        let corpus = DatasetPreset::Detrac.generate(42).slice(0, 3_000);
        let yolo = SimYoloV4::new(3);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
        let many_fractions = CandidateGrid::explicit(
            (1..=60).map(|i| i as f64 / 100.0).collect(),
            vec![Resolution::square(608)],
            vec![vec![]],
        );
        let gen = ProfileGenerator::new(
            &w,
            &restrictions,
            GeneratorConfig {
                early_stop_improvement: Some(0.01),
                early_stop_min_points: 3,
                ..GeneratorConfig::default()
            },
        );
        let (profile, report) = gen.generate(&many_fractions, None).unwrap();
        assert!(
            report.skipped_by_early_stop > 0,
            "a 60-point flat tail should trigger early stop"
        );
        assert!(profile.len() < 60);
    }

    #[test]
    fn model_time_equals_runs_times_unit_cost_exactly() {
        // With a single off-native resolution every model invocation costs
        // the same T_model, so the report must satisfy
        // model_time_ms == model_runs · T_model with float equality — the
        // §5.3.1 accounting identity, preserved under concurrency by the
        // cache's per-resolution run ledger.
        let corpus = DatasetPreset::Detrac.generate(44).slice(0, 2_000);
        let yolo = SimYoloV4::new(5);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let res = Resolution::square(320);
        let one_res_grid = CandidateGrid::explicit(
            vec![0.02, 0.05, 0.1],
            vec![res],
            vec![vec![], vec![ObjectClass::Person]],
        );
        for threads in [1usize, 4] {
            let gen = ProfileGenerator::new(
                &w,
                &restrictions,
                GeneratorConfig {
                    early_stop_improvement: None,
                    threads,
                    ..GeneratorConfig::default()
                },
            );
            let (_, report) = gen.generate(&one_res_grid, None).unwrap();
            let t_model = smokescreen_models::Detector::inference_cost_ms(&yolo, res);
            assert!(report.model_runs > 0);
            assert_eq!(
                report.model_time_ms,
                report.model_runs as f64 * t_model,
                "threads={threads}: model time must be exactly N_model · T_model"
            );
        }
    }

    #[test]
    fn parallel_cells_match_sequential_bit_for_bit() {
        let corpus = DatasetPreset::Detrac.generate(45).slice(0, 2_000);
        let yolo = SimYoloV4::new(6);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let run = |threads: usize| {
            ProfileGenerator::new(
                &w,
                &restrictions,
                GeneratorConfig {
                    seed: 3,
                    threads,
                    ..GeneratorConfig::default()
                },
            )
            .generate(&grid(), None)
            .unwrap()
        };
        let (p1, r1) = run(1);
        let (p8, r8) = run(8);
        assert_eq!(p1, p8, "profiles must be identical across thread counts");
        assert_eq!(r1.model_runs, r8.model_runs);
        assert_eq!(r1.cache_hits, r8.cache_hits);
        assert_eq!(r1.points, r8.points);
        assert_eq!(r1.skipped_by_early_stop, r8.skipped_by_early_stop);
    }

    #[test]
    fn fault_plan_widens_bounds_over_survivors() {
        // Graceful degradation: under a moderate fault plan the generator
        // loses frames, keeps the survivors, and emits *wider* (never
        // tighter-than-clean at equal candidates) bounds — with the losses
        // fully accounted in the report.
        let corpus = DatasetPreset::Detrac.generate(46).slice(0, 2_000);
        let yolo = SimYoloV4::new(7);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let base = GeneratorConfig {
            early_stop_improvement: None,
            ..GeneratorConfig::default()
        };
        let (clean, clean_report) = ProfileGenerator::new(&w, &restrictions, base.clone())
            .generate(&grid(), None)
            .unwrap();
        let chaotic_cfg = GeneratorConfig {
            faults: Some(FaultPlan::with_stream(
                5,
                1.0,
                FaultMix { timeout: 0.04, transient: 0.08, slow: 0.04, poison: 0.03 },
            )),
            ..base
        };
        let (chaotic, report) = ProfileGenerator::new(&w, &restrictions, chaotic_cfg)
            .generate(&grid(), None)
            .unwrap();
        assert!(report.frames_lost > 0, "a 16% plan must lose frames");
        assert!(report.faults_injected > 0);
        assert!(report.retries > 0);
        assert!(report.fault_time_ms > 0.0);
        assert_eq!(clean_report.frames_lost, 0);
        assert_eq!(clean_report.degraded_cells.len(), 0);
        // Points pair up by candidate (no cell quarantined at this rate in
        // this fixture); each chaotic point estimates from no more
        // survivors than its clean twin, and equal survivors ⇒ equal point.
        assert!(report.degraded_cells.is_empty(), "{:?}", report.degraded_cells);
        assert_eq!(chaotic.len(), clean.len());
        let mut strictly_widened = 0;
        for (c, f) in clean.points.iter().zip(&chaotic.points) {
            assert_eq!(c.set, f.set);
            assert!(f.n <= c.n, "survivors can only shrink: {} > {}", f.n, c.n);
            if f.n == c.n {
                assert_eq!(c, f, "no loss ⇒ identical point");
            } else {
                // The *relative* bound also moves with the surviving
                // values, so per-point monotonicity is not guaranteed —
                // validity under loss is what the bound-validity chaos
                // suite checks. Here: the bound must stay usable.
                assert!(f.err_b.is_finite() && f.err_b > 0.0);
                strictly_widened += 1;
            }
        }
        assert!(strictly_widened > 0, "some candidate must actually lose frames");
    }

    #[test]
    fn breaker_quarantines_heavily_lossy_cells() {
        let corpus = DatasetPreset::Detrac.generate(47).slice(0, 1_500);
        let yolo = SimYoloV4::new(8);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        // 70% of calls time out: every cell blows through the default 50%
        // loss tolerance, so all four cells quarantine and the profile is
        // empty — reported, not silently dropped.
        let timeouts = FaultMix { timeout: 1.0, transient: 0.0, slow: 0.0, poison: 0.0 };
        let cfg = GeneratorConfig {
            early_stop_improvement: None,
            faults: Some(FaultPlan::with_stream(1, 0.7, timeouts)),
            ..GeneratorConfig::default()
        };
        let (profile, report) =
            ProfileGenerator::new(&w, &restrictions, cfg).generate(&grid(), None).unwrap();
        assert_eq!(report.degraded_cells.len(), 4, "{:?}", report.degraded_cells);
        assert_eq!(profile.len(), 0);
        assert_eq!(report.points, 0);
        for label in &report.degraded_cells {
            assert!(label.contains("lost"), "label must carry loss counts: {label}");
        }
        // Grid order: resolution-major, combo-minor (608 is Detrac's
        // native resolution, so those cells normalize to "native").
        assert!(report.degraded_cells[0].contains("320"));
        assert!(report.degraded_cells[3].contains("native"));
    }

    #[test]
    fn faulted_generation_is_deterministic_across_threads() {
        let corpus = DatasetPreset::Detrac.generate(48).slice(0, 2_000);
        let yolo = SimYoloV4::new(9);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let run = |threads: usize| {
            ProfileGenerator::new(
                &w,
                &restrictions,
                GeneratorConfig {
                    seed: 3,
                    threads,
                    faults: Some(FaultPlan::new(11, 0.2)),
                    ..GeneratorConfig::default()
                },
            )
            .generate(&grid(), None)
            .unwrap()
        };
        let (p1, r1) = run(1);
        for threads in [2usize, 8] {
            let (p, r) = run(threads);
            assert_eq!(p1, p, "faulted profiles must be identical at {threads} threads");
            assert_eq!(r1.model_runs, r.model_runs);
            assert_eq!(r1.cache_hits, r.cache_hits);
            assert_eq!(r1.model_time_ms, r.model_time_ms);
            assert_eq!(r1.retries, r.retries);
            assert_eq!(r1.faults_injected, r.faults_injected);
            assert_eq!(r1.fault_time_ms, r.fault_time_ms);
            assert_eq!(r1.frames_lost, r.frames_lost);
            assert_eq!(r1.degraded_cells, r.degraded_cells);
        }
        assert!(r1.frames_lost > 0, "the plan must actually bite");
    }

    fn checkpoint_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smokescreen-generation-tests-{}",
            std::process::id()
        ));
        let dir = dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fixture_workload(corpus: &smokescreen_video::VideoCorpus) -> (SimYoloV4, ObjectClass) {
        let _ = corpus;
        (SimYoloV4::new(1), ObjectClass::Car)
    }

    #[test]
    fn checkpointing_is_inert_on_profile_and_warm_restart_splices_all() {
        let corpus = DatasetPreset::Detrac.generate(52).slice(0, 1_500);
        let (yolo, class) = fixture_workload(&corpus);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let base = GeneratorConfig {
            early_stop_improvement: None,
            ..GeneratorConfig::default()
        };
        let (plain, plain_report) = ProfileGenerator::new(&w, &restrictions, base.clone())
            .generate(&grid(), None)
            .unwrap();
        assert_eq!(plain_report.cells_resumed, 0);
        assert_eq!(plain_report.journal_bytes, 0);
        assert_eq!(plain_report.journal_corrupt_records, 0);

        let dir = checkpoint_dir("inert");
        let ckpt_cfg = GeneratorConfig {
            checkpoint: Some(dir.clone()),
            ..base.clone()
        };
        let (journaled, r1) = ProfileGenerator::new(&w, &restrictions, ckpt_cfg.clone())
            .generate(&grid(), None)
            .unwrap();
        assert_eq!(
            plain.to_json().unwrap(),
            journaled.to_json().unwrap(),
            "checkpointing must not change a byte of the profile"
        );
        assert_eq!(r1.cells_resumed, 0, "first run resumes nothing");
        assert!(r1.journal_bytes > 0);
        assert_eq!(r1.model_runs, plain_report.model_runs);

        // Warm restart: the completed journal splices every cell back.
        let (rerun, r2) = ProfileGenerator::new(&w, &restrictions, ckpt_cfg)
            .generate(&grid(), None)
            .unwrap();
        assert_eq!(plain.to_json().unwrap(), rerun.to_json().unwrap());
        assert_eq!(r2.cells_resumed, r2.cells, "all cells splice");
        assert_eq!(r2.model_runs, 0, "no model work on a warm restart");
        assert_eq!(r2.journal_bytes, r1.journal_bytes, "journal bytes are stable");
        assert_eq!(r2.frames_lost, plain_report.frames_lost);
        assert_eq!(r2.skipped_by_early_stop, plain_report.skipped_by_early_stop);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_resume_loop_converges_to_identical_profile() {
        let corpus = DatasetPreset::Detrac.generate(53).slice(0, 1_500);
        let (yolo, class) = fixture_workload(&corpus);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let base = GeneratorConfig {
            early_stop_improvement: None,
            ..GeneratorConfig::default()
        };
        let (reference, reference_report) =
            ProfileGenerator::new(&w, &restrictions, base.clone())
                .generate(&grid(), None)
                .unwrap();

        // A rate-1 plan crashes at *every* cell commit: the loop must
        // still converge in exactly `cells + 1` runs (one durable cell
        // per life — torn crashes are suppressed on their resume because
        // the tear already happened; AfterAppend cells are already
        // durable when they kill the run).
        let dir = checkpoint_dir("crash_loop");
        let cfg = GeneratorConfig {
            checkpoint: Some(dir.clone()),
            crash: Some(CrashPlan::new(7, 1.0)),
            ..base
        };
        let mut crashes = 0usize;
        let outcome = loop {
            match ProfileGenerator::new(&w, &restrictions, cfg.clone()).generate(&grid(), None) {
                Ok(out) => break out,
                Err(CoreError::CrashInjected { .. }) => {
                    crashes += 1;
                    assert!(crashes <= 16, "crash→resume loop must terminate");
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        };
        let (resumed, report) = outcome;
        assert!(crashes > 0, "a rate-1 plan must crash at least once");
        assert_eq!(
            reference.to_json().unwrap(),
            resumed.to_json().unwrap(),
            "crash→resume must be bit-identical to an uninterrupted run"
        );
        assert!(report.cells_resumed > 0);
        assert_eq!(report.frames_lost, reference_report.frames_lost);
        assert_eq!(report.skipped_by_early_stop, reference_report.skipped_by_early_stop);
        assert_eq!(report.degraded_cells, reference_report.degraded_cells);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_workload_journal_is_quarantined_not_spliced() {
        // Two different seeds share a checkpoint dir: different identity
        // strings hash to different journal files, so neither can splice
        // the other's cells.
        let corpus = DatasetPreset::Detrac.generate(54).slice(0, 1_200);
        let (yolo, class) = fixture_workload(&corpus);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let dir = checkpoint_dir("foreign");
        let run = |seed: u64| {
            ProfileGenerator::new(
                &w,
                &restrictions,
                GeneratorConfig {
                    seed,
                    early_stop_improvement: None,
                    checkpoint: Some(dir.clone()),
                    ..GeneratorConfig::default()
                },
            )
            .generate(&grid(), None)
            .unwrap()
        };
        let (_, r_a) = run(1);
        let (_, r_b) = run(2);
        assert_eq!(r_a.cells_resumed, 0);
        assert_eq!(r_b.cells_resumed, 0, "seed 2 must not splice seed 1's journal");
        assert!(r_b.model_runs > 0);
        let (_, r_a2) = run(1);
        assert_eq!(r_a2.cells_resumed, r_a2.cells, "seed 1 still resumes its own journal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrected_points_marked() {
        let corpus = DatasetPreset::Detrac.generate(43).slice(0, 3_000);
        let yolo = SimYoloV4::new(4);
        let w = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
        };
        let restrictions =
            RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        let cs = build_correction_set(&w, &restrictions, &CorrectionConfig::default(), 1, None)
            .unwrap();
        let gen = ProfileGenerator::new(&w, &restrictions, GeneratorConfig::default());
        let (profile, _) = gen.generate(&grid(), Some(&cs)).unwrap();
        // Every non-random point must be corrected.
        for p in &profile.points {
            if !p.set.is_random_only() {
                assert!(p.corrected, "{:?}", p.set.describe());
            }
        }
    }
}
