//! Golden test pinning the `BENCH_*.json` trajectory schema.
//!
//! A smoke trajectory run is reduced to its structural schema
//! (`trajectory::schema_of`: field names and types, no values) and
//! compared against `tests/golden/trajectory_schema.json`. Any field
//! added, removed, renamed, or retyped in the trajectory format shows up
//! here — and in ci.sh, which validates the `trajectory --smoke` output
//! against the same golden. To bless an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trajectory_schema
//! ```
//!
//! bump `trajectory::SCHEMA`, and commit the regenerated golden.

use std::path::PathBuf;

use smokescreen_bench::trajectory::{
    assert_golden, schema_of, BenchResult, Derived, Trajectory, SCHEMA,
};
use smokescreen_rt::json::ToJson;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trajectory_schema.json")
}

/// A synthetic trajectory with every field populated. The schema golden
/// pins the *shape*, so representative values suffice — no benches run.
fn representative_trajectory() -> Trajectory {
    let bench = |name: &str| BenchResult {
        name: name.into(),
        reps: 2,
        median_wall_ms: 1.0,
        p95_wall_ms: 1.5,
        min_wall_ms: 0.5,
        throughput_per_s: 1_000.0,
        throughput_unit: "points".into(),
        model_runs: 10,
        alloc_count: 3,
        alloc_bytes: 96,
    };
    Trajectory {
        schema: SCHEMA.into(),
        pr: 8,
        git_rev: "0123456789ab".into(),
        threads: 4,
        corpus: "ua-detrac-sim".into(),
        corpus_frames: 1_200,
        smoke: true,
        benches: vec![bench("generation_end_to_end")],
        derived: Derived {
            parallel_speedup_4w: 3.0,
            parallel_speedup_8w: 6.0,
            parallel_speedup_16w: 11.0,
            ingest_speedup_avg: 2.0,
            ingest_speedup_max: 8.0,
            ingest_speedup_median: 7.0,
            sweep_speedup_max: 4.0,
            sweep_speedup_median: 4.0,
        },
    }
}

#[test]
fn trajectory_schema_matches_golden() {
    let schema = schema_of(&representative_trajectory().to_json());
    assert_golden(&golden_path(), &schema.encode_pretty(), "trajectory_schema");
}

#[test]
fn schema_is_value_independent() {
    // Two trajectories with different values (and bench counts) reduce to
    // the same schema — the golden gates shape only.
    let a = representative_trajectory();
    let mut b = representative_trajectory();
    b.pr = 99;
    b.smoke = false;
    b.benches.push(b.benches[0].clone());
    b.benches[1].name = "ingest_slice_max".into();
    b.benches[1].median_wall_ms = 123.456;
    assert_eq!(schema_of(&a.to_json()), schema_of(&b.to_json()));
}
