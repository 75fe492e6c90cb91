//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! Two workloads run against the public APIs of `smokescreen-core` and
//! `smokescreen-serve` in one process: profile generation ([`gen`]) and
//! profile serving ([`serve`]). Every answer is checked ([`check`]); the
//! last line of output is one JSON object with the end-to-end metrics,
//! or, in a traced run, the per-layer ones ([`report`]). See `README.md`
//! beside this crate for the metric map.

#![warn(clippy::all)]

pub mod check;
pub mod gen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};

use report::Outcome;

/// Directory for run state (stores, journals, sockets) and traces,
/// relative to the working directory.
pub const WORK_DIR: &str = ".bench_run";

/// The workloads, by the names the result and `BENCHMARK.json` use.
pub const WORKLOADS: &[&str] = &["gen_paper_grid", "serve_read_cold"];

/// One run's settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => opts.workload = value()?,
                "--seed" => {
                    opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, not {:?}",
                WORKLOADS.join(", "),
                opts.workload
            ));
        }
        Ok(opts)
    }

    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        Path::new(WORK_DIR)
            .join("traces")
            .join(format!("{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// Runs one workload and returns its outcome. Run state lives in a
/// per-process directory under [`WORK_DIR`], removed before returning.
pub fn run(opts: &Options) -> Outcome {
    let run_dir = Path::new(WORK_DIR).join(format!("{}-{}", opts.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.fail(format!("creating {}: {e}", run_dir.display()));
        return out;
    }
    let mut out = match opts.workload.as_str() {
        "gen_paper_grid" => gen::run(opts, &run_dir),
        "serve_read_cold" => serve::run(opts, &run_dir),
        other => unreachable!("workload {other:?} passed validation"),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    out.check_finite(opts.trace);
    out
}
