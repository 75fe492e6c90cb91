//! `robust` — run the content-fault bound-soundness audit matrix, emit
//! `ROBUST_<n>.json`, and gate on the audit's hard invariants.
//!
//! ```text
//! robust run [--smoke] [--out DIR] [--pr N] [--trials N] [--frames N]
//!            [--schema-golden FILE]
//! robust check --file FILE
//! ```
//!
//! `run` sweeps the perturbation matrix (kinds × rates × aggregates ×
//! sample fractions on both corpora), writes `ROBUST_<pr>.json` under
//! `--out` (default `bench_results/`), optionally validates its structural
//! schema against a golden, and fails on any hard-invariant violation
//! (strict-δ bound violation, sub-nominal `coverage_perturbed`, drift
//! false positive / miss). `check` re-verifies the invariants of an
//! existing file. Exit codes: 0 ok, 1 invariant violation, 2
//! usage/schema/IO error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use smokescreen_bench::robust::{check, robust_file_name, run, AuditConfig, RobustAudit};
use smokescreen_bench::trajectory::{check_schema_golden, git_rev};
use smokescreen_rt::json::ToJson;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        _ => {
            eprintln!("usage: robust run [flags] | robust check --file FILE");
            ExitCode::from(2)
        }
    }
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

fn cmd_run(args: &[String]) -> ExitCode {
    let mut config = if has_flag(args, "--smoke") {
        AuditConfig::smoke()
    } else {
        AuditConfig::full()
    };
    if let Some(trials) = flag_value(args, "--trials").and_then(|t| t.parse().ok()) {
        config.trials = trials;
    }
    if let Some(frames) = flag_value(args, "--frames").and_then(|f| f.parse().ok()) {
        config.frames = frames;
    }
    let out_dir = flag_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_results"));
    let pr = flag_value(args, "--pr").and_then(|p| p.parse().ok()).unwrap_or(7);

    let rev = git_rev(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")));
    eprintln!(
        "robust: {} run, {} trials/cell, {} frames, rev {rev}, PR {pr}",
        if config.smoke { "smoke" } else { "full" },
        config.trials,
        config.frames
    );
    let audit = run(&config, pr, rev);
    let path = match audit.save(&out_dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("robust: writing {}: {e}", out_dir.display());
            return ExitCode::from(2);
        }
    };
    println!(
        "wrote {} ({} cells, {} streams, {} degraded regimes)",
        path.display(),
        audit.cells.len(),
        audit.streams.len(),
        audit.cells.iter().filter(|c| c.degraded).count()
    );

    if let Some(golden) = flag_value(args, "--schema-golden") {
        if let Err(e) = check_schema_golden(&audit.to_json(), Path::new(&golden), "content_shift") {
            eprintln!("robust: schema mismatch: {e}");
            return ExitCode::from(2);
        }
        println!("schema matches {golden}");
    }

    report_audit(&audit)
}

fn cmd_check(args: &[String]) -> ExitCode {
    let Some(file) = flag_value(args, "--file") else {
        eprintln!("usage: robust check --file FILE");
        return ExitCode::from(2);
    };
    let audit = match RobustAudit::load(Path::new(&file)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("robust: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{} — {} cells, {} streams (expected file name {})",
        file,
        audit.cells.len(),
        audit.streams.len(),
        robust_file_name(audit.pr)
    );
    report_audit(&audit)
}

fn report_audit(audit: &RobustAudit) -> ExitCode {
    for s in &audit.streams {
        println!(
            "stream {:12} {:10} rate {:>4}: max drift score {:8.2}  {}",
            s.corpus,
            s.kind,
            s.rate,
            s.max_score,
            if s.flagged { "FLAGGED" } else { "clean" }
        );
    }
    for c in audit.cells.iter().filter(|c| c.degraded) {
        println!(
            "degraded {:12} {:10} rate {:>4} {:6} f={:<5}: clean coverage {:.2} \
             (perturbed {:.2})",
            c.corpus, c.kind, c.rate, c.aggregate, c.fraction, c.coverage_clean,
            c.coverage_perturbed
        );
    }
    let violations = check(audit);
    if violations.is_empty() {
        println!("audit sound: all hard invariants hold");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("robust: VIOLATION: {v}");
        }
        ExitCode::from(1)
    }
}
