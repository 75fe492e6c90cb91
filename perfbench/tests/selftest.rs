//! Self-tests of the benchmark: a short run of every workload in both
//! modes, the checker catching planted faults, and `BENCHMARK.json`
//! naming exactly the metrics and workloads the program reports.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::check::{self, Query};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{Options, WORKLOADS};
use smokescreen_bench::serve_client::sample_profile;
use smokescreen_core::{Aggregate, GeneratorConfig, ProfileGenerator, Workload};
use smokescreen_degrade::{CandidateGrid, RestrictionIndex};
use smokescreen_models::SimMaskRcnn;
use smokescreen_rt::json::Json;
use smokescreen_serve::{Response, StoreKey};
use smokescreen_video::synth::DatasetPreset;
use smokescreen_video::ObjectClass;

#[test]
fn short_run_of_every_workload_in_both_modes() {
    // One test, run in sequence: tracing is a process-wide switch. The
    // workloads are the benchmark's own; only the timed phase is short.
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Options {
                workload: workload.to_string(),
                seed: 7,
                seconds: 1.0,
                trace,
            };
            let out = perfbench::run(&opts);
            assert!(
                out.correct(),
                "{workload} trace={trace}: {:?}",
                &out.failures[..out.failures.len().min(5)]
            );
            let line = out.json_line(trace);
            let parsed = Json::parse(&line).expect("result line is JSON");
            let metrics = parsed.get("metrics").expect("metrics");
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in catalogue {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|_| panic!("{workload}: {name}"));
                assert_eq!(m.get("unit").unwrap().as_str().unwrap(), *unit);
                let v = m.get("value").unwrap().as_f64().unwrap();
                if !trace {
                    assert!(v > 0.0, "{workload}: end-to-end {name} = {v}");
                }
            }
            if trace {
                assert!(opts.trace_path().exists(), "{workload}: spans written");
            }
        }
    }
}

fn key() -> StoreKey {
    StoreKey::new(0xabc, 3)
}

#[test]
fn checker_flags_a_wrong_served_profile() {
    let expected = sample_profile(3, 12);
    let served = |profile| Response::Profile {
        key: key(),
        seq: 2,
        profile,
        drift: None,
        stale: false,
        degraded: false,
    };
    let mut last = 1;
    assert!(check::check_get(key(), &served(expected.clone()), &expected, &mut last).is_ok());
    assert_eq!(last, 2);

    // Another key's profile, and one point's bound altered.
    let mut last = 1;
    let other = sample_profile(4, 12);
    assert!(check::check_get(key(), &served(other), &expected, &mut last).is_err());
    let mut tampered = expected.clone();
    tampered.points[5].err_b *= 0.5;
    assert!(check::check_get(key(), &served(tampered), &expected, &mut last).is_err());

    // A seq going backwards.
    let mut last = 3;
    assert!(check::check_get(key(), &served(expected.clone()), &expected, &mut last).is_err());
}

#[test]
fn checker_flags_wrong_tradeoff_answers() {
    let profile = sample_profile(3, 12);
    let query = Query {
        max_err: 0.12,
        max_fraction: None,
        max_bytes: None,
        max_energy_j: None,
    };
    let expected = check::expected_matches(&profile, &query);
    assert!(!expected.is_empty() && expected.len() < profile.points.len());
    let answer = |matches| Response::Tradeoff { matches };
    assert!(check::check_query(key(), &query, &answer(expected.clone()), &expected).is_ok());

    // A point above max_err, a reordered answer, a dropped point.
    let mut loose = expected.clone();
    loose.insert(0, profile.points[0].clone());
    assert!(check::check_query(key(), &query, &answer(loose), &expected).is_err());
    let mut reordered = expected.clone();
    reordered.reverse();
    assert!(check::check_query(key(), &query, &answer(reordered), &expected).is_err());
    let short = expected[1..].to_vec();
    assert!(check::check_query(key(), &query, &answer(short), &expected).is_err());
}

#[test]
fn checker_flags_an_unsound_bound() {
    let corpus = DatasetPreset::NightStreet.generate(1).slice(0, 2_000);
    let detector = SimMaskRcnn::new(1);
    let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
    let workload = Workload {
        corpus: &corpus,
        detector: &detector,
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
    };
    let grid = CandidateGrid::explicit((1..=10).map(|i| i as f64 / 10.0).collect(), vec![], vec![]);
    let config = GeneratorConfig {
        early_stop_improvement: None,
        threads: 1,
        ..GeneratorConfig::default()
    };
    let (profile, _) = ProfileGenerator::new(&workload, &restrictions, config)
        .generate(&grid, None)
        .expect("generation succeeds");
    let population = workload.population_outputs();
    assert!(check::check_bounds(&profile, &population).is_ok());

    // Shrink every bound far below the error it must cover.
    let mut unsound = profile.clone();
    for p in &mut unsound.points {
        p.err_b *= 1e-3;
    }
    assert!(check::bound_coverage(&unsound, &population) < 0.95);
    assert!(check::check_bounds(&unsound, &population).is_err());

    // A non-finite bound is never accepted.
    let mut broken = profile;
    broken.points[0].err_b = f64::NAN;
    assert!(check::check_bounds(&broken, &population).is_err());
}

#[test]
fn benchmark_json_names_what_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |field: &str| -> Vec<(String, String)> {
        spec.get(field)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let unit = m.get_opt("unit").map_or("", |u| u.as_str().unwrap());
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    unit.to_string(),
                )
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn options_parse_the_benchmark_command_line() {
    let args: Vec<String> = "--workload serve_read_cold --seed 42 --seconds 10 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let opts = Options::parse(&args).expect("valid arguments");
    assert_eq!(opts.workload, "serve_read_cold");
    assert_eq!((opts.seed, opts.seconds, opts.trace), (42, 10.0, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload serve_read_cold --seed x --seconds 1 --trace 0",
        "--workload serve_read_cold --seed 1 --seconds 1 --trace 2",
        "--workload serve_read_cold --seed 1 --seconds 0 --trace 0",
    ] {
        let args: Vec<String> = bad.split(' ').map(String::from).collect();
        assert!(Options::parse(&args).is_err(), "{bad}");
    }
}
