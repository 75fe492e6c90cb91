//! `trajectory` — run the perf-trajectory suite, emit `BENCH_<n>.json`,
//! and gate on regressions against the previous trajectory file.
//!
//! ```text
//! trajectory run [--smoke] [--out DIR] [--baseline FILE] [--threshold X]
//!                [--reps N] [--threads N] [--pr N] [--schema-golden FILE]
//! trajectory check --prev FILE --cur FILE [--threshold X]
//! ```
//!
//! `run` executes the suite, writes `BENCH_<pr>.json` under `--out`
//! (default `bench_results/`), optionally validates its structural schema
//! against a golden, prints every floor's margin
//! (`trajectory::floor_margins`; smoke runs are not gated), on full runs
//! asserts every floor in `trajectory::FLOORS`, and compares against
//! `--baseline` (default: the highest `BENCH_<m>.json` with `m < pr` in
//! the out dir). `check` compares two existing files. Exit codes: 0 ok,
//! 1 regression or floor failure, 2 usage/schema/IO error — including a
//! malformed flag value, which is never silently replaced by a default.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use smokescreen_bench::trajectory::{
    check_floors, check_schema_golden, compare, floor_margins, git_rev, highest_bench_number,
    latest_bench_below, run, Trajectory, TrajectoryConfig, DEFAULT_THRESHOLD,
};
use smokescreen_rt::json::ToJson;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        _ => Err("usage: trajectory run [flags] | trajectory check --prev F --cur F".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("trajectory: {e}");
        ExitCode::from(2)
    })
}

/// Pulls the value of `--flag VALUE` out of `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses `--flag VALUE` strictly: `Ok(None)` when the flag is absent,
/// an error naming the flag and quoting the value when it does not parse
/// or fails `valid` (described by `expected`).
fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    let Some(raw) = flag_value(args, flag) else {
        return Ok(None);
    };
    match raw.parse::<T>() {
        Ok(v) if valid(&v) => Ok(Some(v)),
        _ => Err(format!("{flag} {raw:?} is not {expected}")),
    }
}

/// The regression threshold: a finite fraction ≥ 0. NaN or infinity
/// would make every comparison pass, switching the gate off.
fn threshold(args: &[String]) -> Result<f64, String> {
    let t = parse_flag(args, "--threshold", "a finite number >= 0", |t: &f64| {
        t.is_finite() && *t >= 0.0
    })?;
    Ok(t.unwrap_or(DEFAULT_THRESHOLD))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut config = if has_flag(args, "--smoke") {
        TrajectoryConfig::smoke()
    } else {
        TrajectoryConfig::full()
    };
    let positive = |n: &usize| *n > 0;
    if let Some(reps) = parse_flag(args, "--reps", "a positive integer", positive)? {
        config.reps = reps;
    }
    if let Some(threads) = parse_flag(args, "--threads", "a positive integer", positive)? {
        config.threads = threads;
    }
    let out_dir = flag_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_results"));
    let threshold = threshold(args)?;
    let pr = match parse_flag(args, "--pr", "a non-negative integer", |_: &u64| true)? {
        Some(pr) => pr,
        None => highest_bench_number(&out_dir).map_or(6, |n| n + 1),
    };

    let rev = git_rev(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")));
    eprintln!(
        "trajectory: {} run, {} reps, {} threads, rev {rev}, PR {pr}",
        if config.smoke { "smoke" } else { "full" },
        config.reps,
        config.threads
    );
    let trajectory = run(&config, pr, rev);
    let path = trajectory
        .save(&out_dir)
        .map_err(|e| format!("writing {}: {e}", out_dir.display()))?;
    println!("wrote {}", path.display());

    if let Some(golden) = flag_value(args, "--schema-golden") {
        check_schema_golden(&trajectory.to_json(), Path::new(&golden), "trajectory_schema")
            .map_err(|e| format!("schema mismatch: {e}"))?;
        println!("schema matches {golden}");
    }

    // Every run prints each floor's margin; full runs must meet every
    // floor in the same file that records them.
    for (line, met) in floor_margins(&trajectory) {
        let verdict = match (trajectory.smoke, met) {
            (true, _) => "not gated",
            (false, true) => "ok",
            (false, false) => "FAILED",
        };
        println!("floor {line}: {verdict}");
    }
    if check_floors(&trajectory).is_err() {
        return Ok(ExitCode::from(1));
    }

    let baseline = flag_value(args, "--baseline").map(PathBuf::from).or_else(|| {
        latest_bench_below(&out_dir, pr).map(|(n, p)| {
            eprintln!("trajectory: baseline {} (PR {n})", p.display());
            p
        })
    });
    match baseline {
        Some(prev_path) => {
            let prev = Trajectory::load(&prev_path)?;
            Ok(report_comparison(&prev, &trajectory, threshold))
        }
        None => {
            println!("no baseline trajectory found — nothing to compare");
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let (Some(prev_path), Some(cur_path)) = (flag_value(args, "--prev"), flag_value(args, "--cur"))
    else {
        return Err("usage: trajectory check --prev FILE --cur FILE [--threshold X]".into());
    };
    let threshold = threshold(args)?;
    let prev = Trajectory::load(Path::new(&prev_path))?;
    let cur = Trajectory::load(Path::new(&cur_path))?;
    Ok(report_comparison(&prev, &cur, threshold))
}

fn report_comparison(prev: &Trajectory, cur: &Trajectory, threshold: f64) -> ExitCode {
    let comparison = compare(prev, cur, threshold);
    println!("{}", comparison.table.render());
    if comparison.regressed() {
        for r in &comparison.regressions {
            eprintln!("trajectory: REGRESSION: {r}");
        }
        ExitCode::from(1)
    } else {
        println!("no regressions past {:.0}%", threshold * 100.0);
        ExitCode::SUCCESS
    }
}
