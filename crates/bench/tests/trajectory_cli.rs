//! End-to-end tests of the `trajectory` binary: smoke run, schema gate,
//! and the regression exit code (ISSUE 6 acceptance: non-zero exit when
//! fed a synthetically regressed prior file).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use smokescreen_bench::trajectory::{schema_of, Trajectory, SCHEMA};
use smokescreen_rt::json::{Json, ToJson};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_trajectory")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smokescreen-trajectory-cli-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One shared smoke run for the whole suite (the run itself is the slow
/// part); everything downstream works on the emitted file.
fn smoke_run(dir: &Path) -> PathBuf {
    let out = Command::new(bin())
        .args([
            "run",
            "--smoke",
            "--reps",
            "2",
            "--pr",
            "6",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("trajectory binary runs");
    assert!(
        out.status.success(),
        "smoke run failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    dir.join("BENCH_6.json")
}

#[test]
fn smoke_run_emits_valid_trajectory_and_check_gates_regressions() {
    let dir = tmp_dir("main");
    let path = smoke_run(&dir);

    // --- The emitted file parses, carries the schema tag, and matches
    // the structural golden the workspace test pins. ---
    let cur = Trajectory::load(&path).expect("emitted trajectory loads");
    assert_eq!(cur.schema, SCHEMA);
    assert_eq!(cur.pr, 6);
    assert!(cur.smoke);
    assert!(cur.benches.len() >= 10, "all suite benches recorded");
    for b in &cur.benches {
        assert!(b.median_wall_ms > 0.0, "{}: empty median", b.name);
        assert!(b.p95_wall_ms >= b.median_wall_ms, "{}", b.name);
        assert!(b.min_wall_ms <= b.median_wall_ms, "{}", b.name);
        assert_eq!(b.reps, 2, "{}", b.name);
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/trajectory_schema.json");
    let golden = Json::parse(&fs::read_to_string(golden).unwrap()).unwrap();
    assert_eq!(
        schema_of(&cur.to_json()),
        golden,
        "emitted file drifted from the schema golden"
    );

    // --- Self-check: a file never regresses against itself. ---
    let check = |prev: &Path, cur: &Path, extra: &[&str]| {
        Command::new(bin())
            .args(["check", "--prev", prev.to_str().unwrap(), "--cur", cur.to_str().unwrap()])
            .args(extra)
            .output()
            .expect("trajectory check runs")
    };
    let self_check = check(&path, &path, &[]);
    assert!(
        self_check.status.success(),
        "self-check must pass: {}",
        String::from_utf8_lossy(&self_check.stderr)
    );

    // --- Synthetically regressed prior: every median 10× faster in the
    // prior file makes the current run a regression → non-zero exit. ---
    let mut prior = cur.clone();
    prior.pr = 5;
    for b in &mut prior.benches {
        b.median_wall_ms /= 10.0;
    }
    let prior_path = prior.save(&dir).unwrap();
    let regressed = check(&prior_path, &path, &[]);
    assert!(
        !regressed.status.success(),
        "regressed check must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&regressed.stderr);
    assert!(stderr.contains("REGRESSION"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&regressed.stdout);
    assert!(stdout.contains("REGRESSED"), "delta table flags the rows");

    // --- A shrunken derived ratio alone also gates. ---
    let mut slower_ratio = cur.clone();
    slower_ratio.pr = 5;
    slower_ratio.derived.ingest_speedup_max = cur.derived.ingest_speedup_max * 10.0;
    let ratio_path = slower_ratio.save(&dir).unwrap();
    let ratio_check = check(&ratio_path, &path, &[]);
    assert!(
        !ratio_check.status.success(),
        "derived-ratio shrinkage must exit non-zero"
    );

    // --- The threshold flag loosens the gate: at 1000% nothing fails. ---
    let loose = check(&prior_path, &path, &["--threshold", "10.0"]);
    assert!(
        loose.status.success(),
        "10.0 threshold must absorb a 10× delta: {}",
        String::from_utf8_lossy(&loose.stderr)
    );

    // --- A threshold that would switch the gate off is refused, not
    // obeyed: every delta compares as within NaN or infinity. ---
    for bad in ["nan", "inf", "-0.1", "0,25"] {
        let out = check(&prior_path, &path, &["--threshold", bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threshold {bad}: {stderr}");
        assert!(
            stderr.contains(&format!("--threshold {bad:?}")),
            "error names the flag and quotes the value: {stderr}"
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn check_rejects_malformed_and_missing_files() {
    let dir = tmp_dir("malformed");
    let bad = dir.join("BENCH_9.json");
    fs::write(&bad, "{\"schema\": \"smokescreen-trajectory/1\"").unwrap();
    let out = Command::new(bin())
        .args(["check", "--prev", bad.to_str().unwrap(), "--cur", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "malformed JSON is a usage error");

    let missing = dir.join("nope.json");
    let out = Command::new(bin())
        .args(["check", "--prev", missing.to_str().unwrap(), "--cur", missing.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = Command::new(bin()).args(["check"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing flags is a usage error");

    let out = Command::new(bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no subcommand is a usage error");

    // Malformed numeric flags are refused before anything runs, never
    // replaced by a default.
    for (flag, bad) in [
        ("--reps", "two"),
        ("--reps", "0"),
        ("--threads", "-1"),
        ("--pr", "x"),
    ] {
        let out = Command::new(bin())
            .args(["run", "--smoke", flag, bad, "--out", dir.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {stderr}");
        assert!(stderr.contains(&format!("{flag} {bad:?}")), "{stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}
