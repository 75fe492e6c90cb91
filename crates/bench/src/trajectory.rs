//! Machine-readable perf trajectory — `BENCH_<n>.json` emission and
//! cross-commit regression comparison.
//!
//! This is the workspace's one perf harness. It runs the parallel-speedup,
//! estimator-kernel, sweep, end-to-end generation and serving benches
//! under the deterministic [`bench_repeated`] timer, persists per-bench
//! median/p95 wall times and throughput into a versioned JSON file via
//! `rt::json`, checks full runs against the acceptance [`FLOORS`], and
//! compares any two trajectory files under a configurable regression
//! threshold.
//!
//! The file format is `smokescreen-trajectory/2`: a flat object with run
//! provenance (git revision, thread count, corpus) plus one entry per
//! bench and a `derived` block of cross-bench speedup ratios. Every bench
//! entry carries the same keys (`model_runs` is 0 where not applicable;
//! `alloc_count`/`alloc_bytes` record the steady-state heap traffic of
//! the final timed repetition) so the schema golden in
//! `tests/golden/trajectory_schema.json` pins the shape, not the values.
//! `/1` files (PR ≤ 6) still load — their missing fields default to zero
//! — so `trajectory check` can gate a `/2` run against a committed `/1`
//! baseline.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use smokescreen_core::{
    Aggregate, AggregateKernel, GenerationReport, GeneratorConfig, ProfileGenerator, Workload,
};
use smokescreen_degrade::{
    CandidateGrid, DegradedView, InterventionSet, RangeOutputs, RestrictionIndex,
};
use smokescreen_models::{Detections, Detector, OutputCache, SimYoloV4};
use smokescreen_rt::bench::{bench_repeated, RepeatedMeasurement};
use smokescreen_rt::json::{FromJson, Json, JsonError, ToJson};
use smokescreen_serve::{ServeAddr, Server, ServerConfig};
use smokescreen_video::synth::DatasetPreset;
use smokescreen_video::{Frame, ObjectClass, Resolution, VideoCorpus};

use crate::serve_client::{run_load, LoadConfig, LoadMix};
use crate::table::{fmt, Table};

/// Schema tag written into every trajectory file; bump on shape changes.
pub const SCHEMA: &str = "smokescreen-trajectory/2";

/// The previous schema tag. [`Trajectory::load`] still accepts it so the
/// regression gate can compare against baselines recorded before the
/// alloc-count and scaling-curve fields existed; absent fields default
/// to zero on read.
pub const SCHEMA_V1: &str = "smokescreen-trajectory/1";

/// Default regression threshold (a fraction: `0.25` = fail when a median
/// grows, or a derived ratio shrinks, by more than 25%) when
/// `--threshold` is not given. Wall times on shared CI hosts are noisy;
/// 25% catches real slope changes without tripping on scheduler jitter.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// Acceptance floors every full (non-smoke) run must meet: `(derived
/// ratio, minimum)`. Alongside these, [`check_floors`] requires the
/// `cell_path_steady_ingest` bench to record zero steady-state
/// allocations.
pub const FLOORS: &[(&str, f64)] = &[
    // Persistent pool on latency-bound inference (sleeps overlap across
    // workers, so the ratios do not depend on the host's core count).
    ("parallel_speedup_4w", 2.0),
    ("parallel_speedup_8w", 2.8),
    ("parallel_speedup_16w", 5.0),
    // Slice-path sort-then-merge vs. scalar per-element insertion.
    ("ingest_speedup_max", 1.5),
    ("ingest_speedup_median", 1.5),
    // Incremental kernel sweep vs. per-candidate batch re-estimation.
    ("sweep_speedup_max", 3.0),
    ("sweep_speedup_median", 3.0),
];

/// Knobs for one trajectory run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryConfig {
    /// Smoke mode: tiny corpus and ladder, for CI schema/plumbing checks.
    /// Smoke numbers are not comparable to full-run numbers.
    pub smoke: bool,
    /// Timed repetitions per bench (deterministic, not adaptive).
    pub reps: usize,
    /// Worker threads for the generation benches.
    pub threads: usize,
    /// Sampling-permutation seed shared by every bench.
    pub seed: u64,
}

impl TrajectoryConfig {
    /// Full paper-scale configuration (UA-DETRAC 15,210 frames, 100-rung
    /// fraction ladder).
    pub fn full() -> Self {
        TrajectoryConfig {
            smoke: false,
            reps: 5,
            threads: 4,
            seed: 1,
        }
    }

    /// Smoke configuration: 1,200 frames, 12-rung ladder, 2 reps.
    pub fn smoke() -> Self {
        TrajectoryConfig {
            smoke: true,
            reps: 2,
            threads: 4,
            seed: 1,
        }
    }

    fn corpus(&self) -> VideoCorpus {
        let full = DatasetPreset::Detrac.generate(1);
        if self.smoke {
            full.slice(0, 1_200)
        } else {
            full
        }
    }

    fn ladder(&self) -> Vec<f64> {
        let steps = if self.smoke { 12 } else { 100 };
        (1..=steps).map(|i| i as f64 / steps as f64).collect()
    }
}

/// One bench's record in a trajectory file. Every record carries the same
/// keys (`model_runs` is 0 where the bench runs no model) so the schema is
/// uniform across entries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable bench identifier (compared by name across commits).
    pub name: String,
    /// Timed repetitions behind the percentiles.
    pub reps: usize,
    /// Median wall time per repetition, ms (nearest-rank).
    pub median_wall_ms: f64,
    /// 95th-percentile wall time, ms (nearest-rank).
    pub p95_wall_ms: f64,
    /// Fastest repetition, ms.
    pub min_wall_ms: f64,
    /// Work units per second at the median repetition.
    pub throughput_per_s: f64,
    /// What one work unit is (`samples`, `candidates`, `points`).
    pub throughput_unit: String,
    /// Model invocations per repetition (0 when the bench runs no model).
    pub model_runs: usize,
    /// Heap allocations on the bench thread during the final (steady-
    /// state) timed repetition — the number the zero-alloc cell-path
    /// contract gates on.
    pub alloc_count: u64,
    /// Bytes requested by those steady-state allocations.
    pub alloc_bytes: u64,
}

impl BenchResult {
    fn from_measurement(
        name: &str,
        m: &RepeatedMeasurement,
        work_per_rep: usize,
        unit: &str,
        model_runs: usize,
    ) -> Self {
        let median = m.median_ms();
        BenchResult {
            name: name.to_string(),
            reps: m.reps(),
            median_wall_ms: median,
            p95_wall_ms: m.p95_ms(),
            min_wall_ms: m.min_ms(),
            throughput_per_s: if median > 0.0 {
                work_per_rep as f64 / (median / 1_000.0)
            } else {
                0.0
            },
            throughput_unit: unit.to_string(),
            model_runs,
            alloc_count: m.steady_allocs.count,
            alloc_bytes: m.steady_allocs.bytes,
        }
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("reps", self.reps.to_json()),
            ("median_wall_ms", self.median_wall_ms.to_json()),
            ("p95_wall_ms", self.p95_wall_ms.to_json()),
            ("min_wall_ms", self.min_wall_ms.to_json()),
            ("throughput_per_s", self.throughput_per_s.to_json()),
            ("throughput_unit", self.throughput_unit.to_json()),
            ("model_runs", self.model_runs.to_json()),
            ("alloc_count", self.alloc_count.to_json()),
            ("alloc_bytes", self.alloc_bytes.to_json()),
        ])
    }
}

impl FromJson for BenchResult {
    fn from_json(value: &Json) -> smokescreen_rt::json::Result<Self> {
        Ok(BenchResult {
            name: String::from_json(value.get("name")?)?,
            reps: value.get("reps")?.as_usize()?,
            median_wall_ms: value.get("median_wall_ms")?.as_f64()?,
            p95_wall_ms: value.get("p95_wall_ms")?.as_f64()?,
            min_wall_ms: value.get("min_wall_ms")?.as_f64()?,
            throughput_per_s: value.get("throughput_per_s")?.as_f64()?,
            throughput_unit: String::from_json(value.get("throughput_unit")?)?,
            model_runs: value.get("model_runs")?.as_usize()?,
            // Absent in `/1` files: the counting-allocator hook postdates
            // them, and "unrecorded" is indistinguishable from zero for
            // gating purposes (the threshold only fires on growth).
            alloc_count: match value.get_opt("alloc_count") {
                Some(v) => v.as_u64()?,
                None => 0,
            },
            alloc_bytes: match value.get_opt("alloc_bytes") {
                Some(v) => v.as_u64()?,
                None => 0,
            },
        })
    }
}

/// Cross-bench speedup ratios — the headline numbers earlier PRs claimed
/// in prose, now pinned as fields (higher is better for all of them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derived {
    /// Latency-bound generation wall time at 1 worker over 4 workers.
    pub parallel_speedup_4w: f64,
    /// Scaling-curve generation wall time at 1 worker over 8 workers.
    pub parallel_speedup_8w: f64,
    /// Scaling-curve generation wall time at 1 worker over 16 workers.
    pub parallel_speedup_16w: f64,
    /// Scalar-push over slice-path ingest wall time, AVG kernel.
    pub ingest_speedup_avg: f64,
    /// Scalar-push over slice-path ingest wall time, MAX(r=0.99) kernel.
    pub ingest_speedup_max: f64,
    /// Scalar-push over slice-path ingest wall time, MEDIAN(r=0.5) kernel.
    pub ingest_speedup_median: f64,
    /// Batch per-candidate sweep over incremental kernel sweep, MAX.
    pub sweep_speedup_max: f64,
    /// Batch per-candidate sweep over incremental kernel sweep, MEDIAN.
    pub sweep_speedup_median: f64,
}

impl Derived {
    /// `(metric, value)` pairs, in file order.
    pub fn entries(&self) -> [(&'static str, f64); 8] {
        [
            ("parallel_speedup_4w", self.parallel_speedup_4w),
            ("parallel_speedup_8w", self.parallel_speedup_8w),
            ("parallel_speedup_16w", self.parallel_speedup_16w),
            ("ingest_speedup_avg", self.ingest_speedup_avg),
            ("ingest_speedup_max", self.ingest_speedup_max),
            ("ingest_speedup_median", self.ingest_speedup_median),
            ("sweep_speedup_max", self.sweep_speedup_max),
            ("sweep_speedup_median", self.sweep_speedup_median),
        ]
    }

    /// The ratio named `name`, if it is one of [`Derived::entries`].
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries()
            .into_iter()
            .find(|&(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

impl ToJson for Derived {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.entries()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl FromJson for Derived {
    fn from_json(value: &Json) -> smokescreen_rt::json::Result<Self> {
        // Any ratio a file predates (8w/16w in `/1` files, the MEDIAN
        // sweep before it was recorded) loads as 0, which `compare` treats
        // as "no prior value" (a zero `pv` yields a zero delta), so a run
        // never regresses against a ratio its baseline never measured.
        let get = |key: &str| -> smokescreen_rt::json::Result<f64> {
            match value.get_opt(key) {
                Some(v) => v.as_f64(),
                None => Ok(0.0),
            }
        };
        Ok(Derived {
            parallel_speedup_4w: get("parallel_speedup_4w")?,
            parallel_speedup_8w: get("parallel_speedup_8w")?,
            parallel_speedup_16w: get("parallel_speedup_16w")?,
            ingest_speedup_avg: get("ingest_speedup_avg")?,
            ingest_speedup_max: get("ingest_speedup_max")?,
            ingest_speedup_median: get("ingest_speedup_median")?,
            sweep_speedup_max: get("sweep_speedup_max")?,
            sweep_speedup_median: get("sweep_speedup_median")?,
        })
    }
}

/// One trajectory file: provenance plus all bench records.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Format tag ([`SCHEMA`]).
    pub schema: String,
    /// PR number this file belongs to (`BENCH_<pr>.json`).
    pub pr: u64,
    /// Git revision the run was taken at (short hash, or `unknown`).
    pub git_rev: String,
    /// Worker threads used by the generation benches.
    pub threads: usize,
    /// Corpus identifier.
    pub corpus: String,
    /// Frames in the corpus the benches ran over.
    pub corpus_frames: usize,
    /// Whether this was a smoke run (not comparable to full runs).
    pub smoke: bool,
    /// Per-bench records, in run order.
    pub benches: Vec<BenchResult>,
    /// Cross-bench speedup ratios.
    pub derived: Derived,
}

impl Trajectory {
    /// Looks up a bench record by name.
    pub fn bench(&self, name: &str) -> Option<&BenchResult> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Writes the pretty-encoded file; returns the path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(bench_file_name(self.pr));
        fs::write(&path, self.to_json().encode_pretty())?;
        Ok(path)
    }

    /// Parses a trajectory file, validating the schema tag.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let t = Trajectory::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))?;
        if t.schema != SCHEMA && t.schema != SCHEMA_V1 {
            return Err(format!(
                "{}: schema {:?}, expected {SCHEMA:?} (or the legacy {SCHEMA_V1:?})",
                path.display(),
                t.schema
            ));
        }
        Ok(t)
    }
}

impl ToJson for Trajectory {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", self.schema.to_json()),
            ("pr", self.pr.to_json()),
            ("git_rev", self.git_rev.to_json()),
            ("threads", self.threads.to_json()),
            ("corpus", self.corpus.to_json()),
            ("corpus_frames", self.corpus_frames.to_json()),
            ("smoke", self.smoke.to_json()),
            (
                "benches",
                Json::Arr(self.benches.iter().map(ToJson::to_json).collect()),
            ),
            ("derived", self.derived.to_json()),
        ])
    }
}

impl FromJson for Trajectory {
    fn from_json(value: &Json) -> smokescreen_rt::json::Result<Self> {
        let benches = value
            .get("benches")?
            .as_arr()?
            .iter()
            .map(BenchResult::from_json)
            .collect::<smokescreen_rt::json::Result<Vec<_>>>()?;
        if benches.is_empty() {
            return Err(JsonError::new("trajectory has no benches"));
        }
        Ok(Trajectory {
            schema: String::from_json(value.get("schema")?)?,
            pr: value.get("pr")?.as_u64()?,
            git_rev: String::from_json(value.get("git_rev")?)?,
            threads: value.get("threads")?.as_usize()?,
            corpus: String::from_json(value.get("corpus")?)?,
            corpus_frames: value.get("corpus_frames")?.as_usize()?,
            smoke: value.get("smoke")?.as_bool()?,
            benches,
            derived: Derived::from_json(value.get("derived")?)?,
        })
    }
}

/// The canonical trajectory file name for a PR number.
pub fn bench_file_name(pr: u64) -> String {
    format!("BENCH_{pr}.json")
}

/// Scans `dir` for `BENCH_<n>.json` files; returns the highest `n` below
/// `before` and its path (the comparison baseline for PR `before`).
/// Files with other names (`ROBUST_*.json`, CSVs) are skipped, not
/// treated as scan failures.
pub fn latest_bench_below(dir: &Path, before: u64) -> Option<(u64, PathBuf)> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir).ok()? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if n < before && best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, entry.path()));
        }
    }
    best
}

/// Scans `dir` for the highest existing `BENCH_<n>.json` number.
pub fn highest_bench_number(dir: &Path) -> Option<u64> {
    latest_bench_below(dir, u64::MAX).map(|(n, _)| n)
}

/// Best-effort short git revision: walks up from `start` to a `.git`
/// directory, resolves `HEAD` one symbolic-ref level deep. `unknown` when
/// anything is missing — the trajectory file must not require git.
pub fn git_rev(start: &Path) -> String {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            let head = match fs::read_to_string(git.join("HEAD")) {
                Ok(h) => h,
                Err(_) => return "unknown".into(),
            };
            let head = head.trim();
            let hash = match head.strip_prefix("ref: ") {
                Some(reference) => match fs::read_to_string(git.join(reference)) {
                    Ok(h) => h.trim().to_string(),
                    Err(_) => return "unknown".into(),
                },
                None => head.to_string(),
            };
            if hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()) {
                return hash[..12].to_string();
            }
            return "unknown".into();
        }
        dir = d.parent();
    }
    "unknown".into()
}

/// Result of comparing two trajectory files.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Human-readable delta table (one row per compared metric).
    pub table: Table,
    /// Descriptions of every metric past the threshold.
    pub regressions: Vec<String>,
}

impl Comparison {
    /// Whether any metric regressed past the threshold.
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Compares `cur` against `prev` under `threshold`. A bench regresses when
/// its median wall time grows by more than the threshold fraction; a
/// derived ratio regresses when it shrinks by more than the threshold. A
/// bench present in `prev` but missing from `cur` is a regression
/// (coverage must not silently shrink); a new bench in `cur` is reported
/// but never fails. Comparing a smoke run against a full run (or vice
/// versa) is refused via the `regressions` list — the numbers are not
/// commensurable.
pub fn compare(prev: &Trajectory, cur: &Trajectory, threshold: f64) -> Comparison {
    let mut table = Table::new(
        format!(
            "Trajectory: BENCH_{} ({}) vs BENCH_{} ({}) — threshold {:.0}%",
            prev.pr,
            prev.git_rev,
            cur.pr,
            cur.git_rev,
            threshold * 100.0
        ),
        &["metric", "prev", "cur", "delta_pct", "status"],
    );
    let mut regressions = Vec::new();
    if prev.smoke != cur.smoke {
        regressions.push(format!(
            "smoke={} vs smoke={}: smoke and full runs are not comparable",
            prev.smoke, cur.smoke
        ));
        return Comparison { table, regressions };
    }

    for pb in &prev.benches {
        let Some(cb) = cur.bench(&pb.name) else {
            regressions.push(format!("{}: bench missing from current run", pb.name));
            table.push_row(vec![
                format!("{}.median_ms", pb.name),
                fmt(pb.median_wall_ms),
                "-".into(),
                "-".into(),
                "MISSING".into(),
            ]);
            continue;
        };
        let delta = if pb.median_wall_ms > 0.0 {
            (cb.median_wall_ms - pb.median_wall_ms) / pb.median_wall_ms
        } else {
            0.0
        };
        let regressed = delta > threshold;
        if regressed {
            regressions.push(format!(
                "{}: median {:.3} ms → {:.3} ms (+{:.0}%)",
                pb.name,
                pb.median_wall_ms,
                cb.median_wall_ms,
                delta * 100.0
            ));
        }
        table.push_row(vec![
            format!("{}.median_ms", pb.name),
            fmt(pb.median_wall_ms),
            fmt(cb.median_wall_ms),
            fmt(delta * 100.0),
            if regressed { "REGRESSED" } else { "ok" }.into(),
        ]);
    }
    for cb in &cur.benches {
        if prev.bench(&cb.name).is_none() {
            table.push_row(vec![
                format!("{}.median_ms", cb.name),
                "-".into(),
                fmt(cb.median_wall_ms),
                "-".into(),
                "new".into(),
            ]);
        }
    }

    for ((name, pv), (_, cv)) in prev.derived.entries().into_iter().zip(cur.derived.entries()) {
        let delta = if pv > 0.0 { (cv - pv) / pv } else { 0.0 };
        // Derived ratios are higher-is-better: regression is shrinkage.
        let regressed = delta < -threshold;
        if regressed {
            regressions.push(format!(
                "derived.{name}: {pv:.2}× → {cv:.2}× ({:.0}%)",
                delta * 100.0
            ));
        }
        table.push_row(vec![
            format!("derived.{name}"),
            fmt(pv),
            fmt(cv),
            fmt(delta * 100.0),
            if regressed { "REGRESSED" } else { "ok" }.into(),
        ]);
    }
    Comparison { table, regressions }
}

/// Checks a run against [`FLOORS`] and the zero-alloc cell path; returns
/// one message per failed floor. Smoke runs are exempt: their corpora are
/// too small for stable ratios.
pub fn check_floors(t: &Trajectory) -> Result<(), Vec<String>> {
    if t.smoke {
        return Ok(());
    }
    let mut failures: Vec<String> = FLOORS
        .iter()
        .filter_map(|&(name, floor)| {
            let v = t
                .derived
                .get(name)
                .expect("every floor names a derived ratio");
            (v < floor).then(|| format!("{name} = {v:.2}× < {floor:.1}×"))
        })
        .collect();
    match t.bench("cell_path_steady_ingest") {
        Some(cell) if cell.alloc_count != 0 => failures.push(format!(
            "cell_path_steady_ingest made {} steady-state allocations ({} B); \
             the cell path must be zero-alloc",
            cell.alloc_count, cell.alloc_bytes
        )),
        Some(_) => {}
        None => failures.push("cell_path_steady_ingest bench missing from run".into()),
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// Structural schema of a JSON value: objects map each key to its value's
/// schema, arrays reduce to the first element's schema (benches share one
/// shape), scalars reduce to their type name. Comparing `schema_of`
/// outputs pins field names and types while letting values drift.
pub fn schema_of(value: &Json) -> Json {
    match value {
        Json::Null => Json::Str("null".into()),
        Json::Bool(_) => Json::Str("bool".into()),
        Json::Num(_) => Json::Str("number".into()),
        Json::Str(_) => Json::Str("string".into()),
        Json::Arr(items) => Json::Arr(items.first().map(schema_of).into_iter().collect()),
        Json::Obj(map) => Json::Obj(
            map.iter()
                .map(|(k, v)| (k.clone(), schema_of(v)))
                .collect(),
        ),
    }
}

/// A detector with a simulated fixed per-inference latency, standing in
/// for the GPU round trips that dominate real deployments (the simulated
/// detectors answer in nanoseconds, which would make thread scaling
/// invisible).
struct LatencyDetector {
    inner: SimYoloV4,
    latency: Duration,
}

impl Detector for LatencyDetector {
    fn name(&self) -> &str {
        "sim-yolov4-latency"
    }

    fn native_resolution(&self) -> Resolution {
        self.inner.native_resolution()
    }

    fn supports(&self, res: Resolution) -> bool {
        self.inner.supports(res)
    }

    fn detect(&self, frame: &Frame, res: Resolution) -> Detections {
        std::thread::sleep(self.latency);
        self.inner.detect(frame, res)
    }

    fn inference_cost_ms(&self, res: Resolution) -> f64 {
        self.inner.inference_cost_ms(res)
    }
}

/// Repeats a self-timing closure (returning one sample in ms) after one
/// untimed warm-up, mirroring [`bench_repeated`] for benches whose sample
/// is an internally measured duration rather than closure wall time.
fn repeat_samples(name: &str, reps: usize, mut f: impl FnMut() -> f64) -> RepeatedMeasurement {
    std::hint::black_box(f());
    let samples_ms: Vec<f64> = (0..reps.max(1)).map(|_| f()).collect();
    // Self-timing benches measure an internal span, not the closure, so
    // an alloc count over the whole closure would mix setup into the
    // number; they report zero rather than a misleading total.
    let m = RepeatedMeasurement {
        samples_ms,
        steady_allocs: Default::default(),
    };
    println!(
        "bench {name:<48} median {:>10.3} ms p95 {:>10.3} ms min {:>10.3} ms ({} reps)",
        m.median_ms(),
        m.p95_ms(),
        m.min_ms(),
        m.reps()
    );
    m
}

/// Runs the whole trajectory suite and assembles the file contents.
///
/// The benches, in run order:
/// 1. `generation_end_to_end` — full `ProfileGenerator::generate` over the
///    fraction ladder, cold cache each repetition.
/// 2. `generation_threads{1,4}_latency` — generation under a 300 µs
///    simulated inference latency at 1 vs. 4 workers (the ROADMAP
///    parallel-speedup claim).
/// 3. `generation_scaling_threads{1,2,8,16}` — generation under the same
///    simulated latency over a resolution-rich grid, at the four worker
///    counts the persistent-pool scaling claim is made for.
/// 4. `ingest_{scalar,slice}_{avg,max,median}` — per-element
///    `AggregateKernel::push` vs. batched `extend` over the same
///    pre-fetched ladder rungs (the SIMD-width slice-path claim).
/// 5. `cell_path_steady_ingest` — the fraction-ladder hot loop (range
///    fetch into reused scratch → slice ingest → estimate) on a warm
///    cache; its `alloc_count` is the zero-alloc cell-path proof.
/// 6. `sweep_{batch,incremental}_{max,median}` — per-candidate
///    `profile_point` re-estimation vs. the kernel-backed sweep inside
///    `generate`, on the quantile-heavy aggregates where re-sorting
///    dominates the batch cost.
pub fn run(config: &TrajectoryConfig, pr: u64, rev: String) -> Trajectory {
    let corpus = config.corpus();
    let ladder = config.ladder();
    let mut benches = Vec::new();

    // --- 1. End-to-end generation over the fraction ladder. ---
    let yolo = SimYoloV4::new(1);
    let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
    let grid = CandidateGrid::explicit(ladder.clone(), vec![], vec![]);
    let workload = Workload {
        corpus: &corpus,
        detector: &yolo,
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    };
    let gen = ProfileGenerator::new(
        &workload,
        &restrictions,
        GeneratorConfig {
            early_stop_improvement: None,
            threads: config.threads,
            seed: config.seed,
            ..GeneratorConfig::default()
        },
    );
    let mut last_report = GenerationReport::default();
    let m = bench_repeated("generation_end_to_end", config.reps, || {
        let (profile, report) = gen.generate(&grid, None).expect("generation succeeds");
        last_report = report;
        profile.points.len()
    });
    benches.push(BenchResult::from_measurement(
        "generation_end_to_end",
        &m,
        last_report.points,
        "points",
        last_report.model_runs,
    ));

    // --- 2. Latency-bound generation at 1 vs. 4 workers. ---
    let (lat_corpus, lat_latency_us, lat_resolutions) = if config.smoke {
        (corpus.slice(0, 300), 100u64, 2u32)
    } else {
        (corpus.slice(0, 1_000), 300u64, 6u32)
    };
    let lat_detector = LatencyDetector {
        inner: SimYoloV4::new(1),
        latency: Duration::from_micros(lat_latency_us),
    };
    let lat_restrictions = RestrictionIndex::from_ground_truth(
        &lat_corpus,
        &[ObjectClass::Person, ObjectClass::Face],
    );
    let lat_workload = Workload {
        corpus: &lat_corpus,
        detector: &lat_detector,
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    };
    let lat_grid = CandidateGrid::explicit(
        vec![0.02, 0.05, 0.1],
        (1..=lat_resolutions).map(|i| Resolution::square(i * 96)).collect(),
        vec![vec![], vec![ObjectClass::Person]],
    );
    let mut latency_medians = [0.0f64; 2];
    for (slot, threads) in [1usize, 4].into_iter().enumerate() {
        let lat_gen = ProfileGenerator::new(
            &lat_workload,
            &lat_restrictions,
            GeneratorConfig {
                early_stop_improvement: None,
                threads,
                seed: config.seed,
                ..GeneratorConfig::default()
            },
        );
        let name = format!("generation_threads{threads}_latency");
        let mut report = GenerationReport::default();
        let m = bench_repeated(&name, config.reps, || {
            let (profile, r) = lat_gen.generate(&lat_grid, None).expect("generation succeeds");
            report = r;
            profile.points.len()
        });
        latency_medians[slot] = m.median_ms();
        benches.push(BenchResult::from_measurement(
            &name,
            &m,
            report.points,
            "points",
            report.model_runs,
        ));
    }
    let parallel_speedup_4w = latency_medians[0] / latency_medians[1].max(1e-9);

    // --- 3. Scaling curve at 1/2/8/16 workers. ---
    // A wider grid than bench 2 — sixteen resolution candidates — so 16
    // workers still have enough candidate-level parallelism to express a
    // slope; per-candidate frame loops parallelize too, so the curve is
    // latency-bound end to end. Kept separate from bench 2 so the
    // `/1`-era `generation_threads{1,4}_latency` medians stay comparable
    // across the schema bump.
    let scale_res_hi = if config.smoke { 5u32 } else { 17u32 };
    let scale_grid = CandidateGrid::explicit(
        vec![0.02, 0.05, 0.1],
        // Multiples of the 32-pixel detector stride, all below the
        // 608-native ceiling.
        (2..=scale_res_hi).map(|i| Resolution::square(i * 32)).collect(),
        vec![vec![]],
    );
    let mut scaling_medians = [0.0f64; 4];
    for (slot, threads) in [1usize, 2, 8, 16].into_iter().enumerate() {
        let scale_gen = ProfileGenerator::new(
            &lat_workload,
            &lat_restrictions,
            GeneratorConfig {
                early_stop_improvement: None,
                threads,
                seed: config.seed,
                ..GeneratorConfig::default()
            },
        );
        let name = format!("generation_scaling_threads{threads}");
        let mut report = GenerationReport::default();
        let m = bench_repeated(&name, config.reps, || {
            let (profile, r) = scale_gen.generate(&scale_grid, None).expect("generation succeeds");
            report = r;
            profile.points.len()
        });
        scaling_medians[slot] = m.median_ms();
        benches.push(BenchResult::from_measurement(
            &name,
            &m,
            report.points,
            "points",
            report.model_runs,
        ));
    }
    let parallel_speedup_8w = scaling_medians[0] / scaling_medians[2].max(1e-9);
    let parallel_speedup_16w = scaling_medians[0] / scaling_medians[3].max(1e-9);

    // --- 4. Scalar vs. slice-path kernel ingest over the ladder rungs. ---
    // Outputs are fetched once, untimed, through the full-fraction view;
    // the bench then times pure ingestion of the identical rung slices.
    let full_view = DegradedView::new(
        &corpus,
        InterventionSet::sampling(1.0),
        &restrictions,
        config.seed,
    )
    .expect("full view");
    let ingest_cache = OutputCache::new(&yolo);
    let outputs = full_view.outputs_cached(&ingest_cache, ObjectClass::Car);
    let rung_bounds: Vec<usize> = std::iter::once(0)
        .chain(ladder.iter().map(|f| {
            ((f * outputs.len() as f64).round() as usize).min(outputs.len())
        }))
        .collect();
    let ingest_cases = [
        ("avg", Aggregate::Avg),
        ("max", Aggregate::Max { r: 0.99 }),
        ("median", Aggregate::Quantile { r: 0.5 }),
    ];
    let mut ingest_speedups = [0.0f64; 3];
    for (idx, (label, aggregate)) in ingest_cases.into_iter().enumerate() {
        let scalar_name = format!("ingest_scalar_{label}");
        let scalar = bench_repeated(&scalar_name, config.reps, || {
            let mut kernel = AggregateKernel::with_capacity(aggregate, outputs.len());
            for w in rung_bounds.windows(2) {
                for &v in &outputs[w[0]..w[1]] {
                    kernel.push(v);
                }
            }
            kernel.n()
        });
        let slice_name = format!("ingest_slice_{label}");
        let sliced = bench_repeated(&slice_name, config.reps, || {
            let mut kernel = AggregateKernel::with_capacity(aggregate, outputs.len());
            for w in rung_bounds.windows(2) {
                kernel.extend(&outputs[w[0]..w[1]]);
            }
            kernel.n()
        });
        ingest_speedups[idx] = scalar.median_ms() / sliced.median_ms().max(1e-9);
        benches.push(BenchResult::from_measurement(
            &scalar_name,
            &scalar,
            outputs.len(),
            "samples",
            0,
        ));
        benches.push(BenchResult::from_measurement(
            &slice_name,
            &sliced,
            outputs.len(),
            "samples",
            0,
        ));
    }

    // --- 5. Steady-state cell path: range fetch → slice ingest. ---
    // Replays the fraction-ladder hot loop exactly as `profile_cell`
    // runs it — reused `RangeOutputs` scratch, memo-warm cache, slice
    // ingest, estimate per rung — and records its steady-state heap
    // traffic. After the first repetition warms the scratch, the
    // counting allocator must see zero allocations (gated in full runs
    // by the `trajectory` binary).
    let mut cell_scratch = RangeOutputs::default();
    let cell = bench_repeated("cell_path_steady_ingest", config.reps, || {
        let mut kernel = AggregateKernel::new(Aggregate::Avg);
        for w in rung_bounds.windows(2) {
            full_view.try_outputs_cached_range_into(
                &ingest_cache,
                ObjectClass::Car,
                w[0]..w[1],
                &mut cell_scratch,
            );
            kernel.extend(&cell_scratch.values);
            std::hint::black_box(kernel.estimate(corpus.len(), 0.05).ok());
        }
        kernel.n()
    });
    benches.push(BenchResult::from_measurement(
        "cell_path_steady_ingest",
        &cell,
        outputs.len(),
        "samples",
        0,
    ));

    // --- 6. Batch vs. incremental fraction sweep (MAX, MEDIAN). ---
    let mut sweep_speedups = [0.0f64; 2];
    // The quantile-heavy ingest cases: MAX(r=0.99), MEDIAN(r=0.5).
    for (idx, (label, aggregate)) in ingest_cases[1..].iter().copied().enumerate() {
        let sweep_workload = Workload {
            corpus: &corpus,
            detector: &yolo,
            class: ObjectClass::Car,
            aggregate,
            delta: 0.05,
        };
        let sweep_gen = ProfileGenerator::new(
            &sweep_workload,
            &restrictions,
            GeneratorConfig {
                early_stop_improvement: None,
                threads: 1,
                seed: config.seed,
                ..GeneratorConfig::default()
            },
        );
        let batch_name = format!("sweep_batch_{label}");
        let batch = repeat_samples(&batch_name, config.reps, || {
            // Cold cache per repetition, exactly as `generate` starts —
            // both paths pay the same one-miss-per-frame model cost.
            let cache = OutputCache::new(&yolo);
            let t0 = Instant::now();
            for &f in &ladder {
                let set = InterventionSet::sampling(f);
                std::hint::black_box(
                    sweep_gen
                        .profile_point(&set, None, &cache)
                        .expect("profile point"),
                );
            }
            t0.elapsed().as_secs_f64() * 1_000.0
        });
        let incremental_name = format!("sweep_incremental_{label}");
        let mut sweep_runs = 0usize;
        let incremental = repeat_samples(&incremental_name, config.reps, || {
            let (_, report) = sweep_gen
                .generate(&grid, None)
                .expect("generation succeeds");
            sweep_runs = report.model_runs;
            report.estimation_time_ms
        });
        sweep_speedups[idx] = batch.median_ms() / incremental.median_ms().max(1e-9);
        benches.push(BenchResult::from_measurement(
            &batch_name,
            &batch,
            ladder.len(),
            "candidates",
            outputs.len(),
        ));
        benches.push(BenchResult::from_measurement(
            &incremental_name,
            &incremental,
            ladder.len(),
            "candidates",
            sweep_runs,
        ));
    }

    // --- 7. Serving throughput: the daemon under framed load. ---
    // A live server on a Unix socket with `config.threads` workers; every
    // repetition replays the same seeded schedule through
    // `serve_client::run_load`, so the medians measure the full framed
    // protocol + admission queue + columnar store path. Puts run first
    // (seeding every key), so the get/query benches never see not_found.
    let serve_requests = if config.smoke { 200 } else { 1_000 };
    let serve_dir = std::env::temp_dir().join(format!("smk-traj-serve-{}", std::process::id()));
    let _ = fs::remove_dir_all(&serve_dir);
    fs::create_dir_all(&serve_dir).expect("serve bench store dir");
    let serve_sock =
        std::env::temp_dir().join(format!("smk-traj-serve-{}.sock", std::process::id()));
    let server = Server::new(
        ServerConfig::new(ServeAddr::Unix(serve_sock), &serve_dir).with_threads(config.threads),
    )
    .spawn()
    .expect("serve bench daemon");
    let mut load = LoadConfig::new(server.addr().clone(), serve_requests);
    load.seed = config.seed;
    for (name, mix) in [
        ("serve_put_throughput", LoadMix::Puts),
        ("serve_get_throughput", LoadMix::Gets),
        ("serve_query_throughput", LoadMix::Queries),
    ] {
        load.mix = mix;
        let m = bench_repeated(name, config.reps, || {
            let report = run_load(&load).expect("serve load succeeds");
            assert_eq!(report.errors, 0, "daemon answered with unexpected errors");
            report.requests
        });
        benches.push(BenchResult::from_measurement(
            name,
            &m,
            serve_requests,
            "requests",
            0,
        ));
    }
    let serve_report = server.shutdown().expect("serve bench shutdown");
    assert_eq!(
        serve_report.stats.quarantined_records, 0,
        "serve bench store must stay clean"
    );
    let _ = fs::remove_dir_all(&serve_dir);

    Trajectory {
        schema: SCHEMA.to_string(),
        pr,
        git_rev: rev,
        threads: config.threads,
        corpus: "ua-detrac-sim".to_string(),
        corpus_frames: corpus.len(),
        smoke: config.smoke,
        benches,
        derived: Derived {
            parallel_speedup_4w,
            parallel_speedup_8w,
            parallel_speedup_16w,
            ingest_speedup_avg: ingest_speedups[0],
            ingest_speedup_max: ingest_speedups[1],
            ingest_speedup_median: ingest_speedups[2],
            sweep_speedup_max: sweep_speedups[0],
            sweep_speedup_median: sweep_speedups[1],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trajectory(pr: u64, median: f64, speedup: f64) -> Trajectory {
        Trajectory {
            schema: SCHEMA.to_string(),
            pr,
            git_rev: "0123456789ab".into(),
            threads: 4,
            corpus: "ua-detrac-sim".into(),
            corpus_frames: 100,
            smoke: true,
            benches: vec![BenchResult {
                name: "generation_end_to_end".into(),
                reps: 2,
                median_wall_ms: median,
                p95_wall_ms: median * 1.2,
                min_wall_ms: median * 0.9,
                throughput_per_s: 1_000.0 / median,
                throughput_unit: "points".into(),
                model_runs: 42,
                alloc_count: 7,
                alloc_bytes: 1_024,
            }],
            derived: Derived {
                parallel_speedup_4w: speedup,
                parallel_speedup_8w: speedup,
                parallel_speedup_16w: speedup,
                ingest_speedup_avg: speedup,
                ingest_speedup_max: speedup,
                ingest_speedup_median: speedup,
                sweep_speedup_max: speedup,
                sweep_speedup_median: speedup,
            },
        }
    }

    #[test]
    fn trajectory_json_round_trips() {
        let t = sample_trajectory(6, 12.5, 3.0);
        let json = t.to_json();
        let back = Trajectory::from_json(&json).unwrap();
        assert_eq!(t, back);
        // Deterministic encoding: same value, same bytes.
        assert_eq!(json.encode_pretty(), back.to_json().encode_pretty());
    }

    #[test]
    fn compare_flags_median_growth_and_ratio_shrinkage() {
        let prev = sample_trajectory(5, 10.0, 4.0);
        let same = sample_trajectory(6, 10.5, 4.0);
        assert!(!compare(&prev, &same, 0.25).regressed());

        let slow = sample_trajectory(6, 14.0, 4.0);
        let c = compare(&prev, &slow, 0.25);
        assert!(c.regressed());
        assert!(c.regressions[0].contains("generation_end_to_end"));

        let worse_ratio = sample_trajectory(6, 10.0, 2.0);
        let c = compare(&prev, &worse_ratio, 0.25);
        assert!(c.regressed());
        assert!(c.regressions.iter().any(|r| r.contains("derived.")));

        // Tighter threshold flips the borderline case.
        assert!(compare(&prev, &same, 0.01).regressed());
    }

    #[test]
    fn compare_flags_missing_bench_and_smoke_mismatch() {
        let prev = sample_trajectory(5, 10.0, 4.0);
        let mut cur = sample_trajectory(6, 10.0, 4.0);
        cur.benches[0].name = "renamed".into();
        let c = compare(&prev, &cur, 0.25);
        assert!(c.regressions.iter().any(|r| r.contains("missing")));

        let mut full = sample_trajectory(6, 10.0, 4.0);
        full.smoke = false;
        let c = compare(&prev, &full, 0.25);
        assert!(c.regressed());
        assert!(c.regressions[0].contains("not comparable"));
    }

    #[test]
    fn schema_of_reduces_values_to_types() {
        let t = sample_trajectory(6, 10.0, 4.0);
        let schema = schema_of(&t.to_json());
        assert_eq!(schema.get("pr").unwrap(), &Json::Str("number".into()));
        assert_eq!(schema.get("smoke").unwrap(), &Json::Str("bool".into()));
        let benches = schema.get("benches").unwrap().as_arr().unwrap();
        assert_eq!(benches.len(), 1, "array schema is the first element's");
        assert_eq!(
            benches[0].get("name").unwrap(),
            &Json::Str("string".into())
        );
        // Values never appear: two different runs share one schema.
        let other = sample_trajectory(7, 99.0, 1.0);
        assert_eq!(schema, schema_of(&other.to_json()));
    }

    #[test]
    fn bench_file_discovery() {
        let dir = std::env::temp_dir().join("smokescreen-trajectory-discovery");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for pr in [3u64, 5, 6] {
            sample_trajectory(pr, 10.0, 4.0).save(&dir).unwrap();
        }
        // Unrelated artifacts share the directory in practice
        // (ROBUST_*.json audits, CSV tables); discovery must skip them
        // rather than abort the scan.
        fs::write(dir.join("ROBUST_7.json"), "{}").unwrap();
        fs::write(dir.join("fig4_0.csv"), "fraction,err_b\n").unwrap();
        assert_eq!(highest_bench_number(&dir), Some(6));
        let (n, path) = latest_bench_below(&dir, 6).unwrap();
        assert_eq!(n, 5);
        let loaded = Trajectory::load(&path).unwrap();
        assert_eq!(loaded.pr, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Recursively drops the named keys from every object — used to
    /// reconstruct a faithful `/1` file from a `/2` value.
    fn strip_keys(value: &Json, keys: &[&str]) -> Json {
        match value {
            Json::Obj(map) => Json::Obj(
                map.iter()
                    .filter(|(k, _)| !keys.contains(&k.as_str()))
                    .map(|(k, v)| (k.clone(), strip_keys(v, keys)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(|v| strip_keys(v, keys)).collect()),
            other => other.clone(),
        }
    }

    #[test]
    fn load_accepts_legacy_v1_files_and_defaults_new_fields() {
        let dir = std::env::temp_dir().join("smokescreen-trajectory-v1-compat");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut t = sample_trajectory(6, 10.0, 4.0);
        t.schema = SCHEMA_V1.into();
        let v1 = strip_keys(
            &t.to_json(),
            &[
                "alloc_count",
                "alloc_bytes",
                "parallel_speedup_8w",
                "parallel_speedup_16w",
                "sweep_speedup_median",
            ],
        );
        let path = dir.join(bench_file_name(6));
        fs::write(&path, v1.encode_pretty()).unwrap();

        let loaded = Trajectory::load(&path).unwrap();
        assert_eq!(loaded.schema, SCHEMA_V1);
        assert_eq!(loaded.benches[0].alloc_count, 0);
        assert_eq!(loaded.benches[0].alloc_bytes, 0);
        assert_eq!(loaded.derived.parallel_speedup_8w, 0.0);
        assert_eq!(loaded.derived.parallel_speedup_16w, 0.0);
        assert_eq!(loaded.derived.sweep_speedup_median, 0.0);

        // A `/2` run compared against the `/1` baseline must not regress
        // on the fields the baseline never recorded.
        let cur = sample_trajectory(8, 10.0, 4.0);
        assert!(!compare(&loaded, &cur, 0.25).regressed());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_derived_keys_load_as_zero_and_never_regress() {
        let t = sample_trajectory(9, 10.0, 4.0);
        let json = t.to_json();
        let mut names = Vec::new();
        for (name, _) in t.derived.entries() {
            let stripped = strip_keys(&json, &[name]);
            let loaded = Trajectory::from_json(&stripped).unwrap();
            assert_eq!(loaded.derived.get(name), Some(0.0), "{name}");
            assert!(!compare(&loaded, &t, 0.25).regressed(), "{name}");
            names.push(name);
        }
        // Even a `derived` block with no keys at all loads.
        let empty = Trajectory::from_json(&strip_keys(&json, &names)).unwrap();
        assert!(empty.derived.entries().iter().all(|&(_, v)| v == 0.0));
    }

    /// Sets the derived ratio called `name`.
    fn set_derived(t: &mut Trajectory, name: &str, value: f64) {
        let Json::Obj(mut map) = t.derived.to_json() else {
            unreachable!()
        };
        map.insert(name.to_string(), value.to_json());
        t.derived = Derived::from_json(&Json::Obj(map)).unwrap();
    }

    /// A full run sitting exactly on every floor, with a zero-alloc cell
    /// path.
    fn at_floors() -> Trajectory {
        let mut t = sample_trajectory(14, 10.0, 0.0);
        t.smoke = false;
        t.benches[0].name = "cell_path_steady_ingest".into();
        t.benches[0].alloc_count = 0;
        t.benches[0].alloc_bytes = 0;
        for &(name, floor) in FLOORS {
            set_derived(&mut t, name, floor);
        }
        t
    }

    #[test]
    fn check_floors_passes_at_floors_and_names_each_failure() {
        assert_eq!(check_floors(&at_floors()), Ok(()));

        for &(name, floor) in FLOORS {
            let mut t = at_floors();
            set_derived(&mut t, name, floor - 0.01);
            let failures = check_floors(&t).unwrap_err();
            assert_eq!(failures.len(), 1, "{name}: {failures:?}");
            assert!(failures[0].starts_with(name), "{name}: {failures:?}");
        }

        let mut allocating = at_floors();
        allocating.benches[0].alloc_count = 1;
        let failures = check_floors(&allocating).unwrap_err();
        assert!(failures[0].contains("zero-alloc"), "{failures:?}");

        let mut missing = at_floors();
        missing.benches[0].name = "generation_end_to_end".into();
        let failures = check_floors(&missing).unwrap_err();
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    #[test]
    fn smoke_runs_are_exempt_from_floors() {
        // Smoke ratios are far below the floors (a tiny corpus cannot
        // express the full-run slopes), and the gate must not fire on them.
        let mut t = sample_trajectory(6, 10.0, 1.0);
        t.benches[0].name = "cell_path_steady_ingest".into();
        assert!(t.smoke && t.benches[0].alloc_count > 0);
        assert_eq!(check_floors(&t), Ok(()));
        t.smoke = false;
        assert_eq!(check_floors(&t).unwrap_err().len(), FLOORS.len() + 1);
    }

    #[test]
    fn load_rejects_wrong_schema_tag() {
        let dir = std::env::temp_dir().join("smokescreen-trajectory-schema-tag");
        let _ = fs::remove_dir_all(&dir);
        let mut t = sample_trajectory(6, 10.0, 4.0);
        t.schema = "smokescreen-trajectory/99".into();
        let path = t.save(&dir).unwrap();
        let err = Trajectory::load(&path).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
