//! One property suite for every seeded decision stream in the workspace.
//!
//! Five plans schedule injected failure: model-call faults
//! (`FaultPlan::fault_for`), process deaths (`CrashPlan::crash_at`),
//! storage faults on two streams (`DiskFaultPlan::write_fault` /
//! `read_fault`), wire faults (`NetFaultPlan::fault_for`) and content
//! faults, one stream per `PerturbKind` (`PerturbPlan::decision`). Every
//! stream makes the same promises, so one generic body checks them all:
//!
//! * the first 20k decisions at fixed seed × rate points hash to pinned
//!   fingerprints — a refactor may not move a single decision;
//! * decisions are pure, seed-sensitive, and independent of evaluation
//!   order and thread;
//! * the fire frequency tracks the rate, rates clamp into `[0, 1]`, a
//!   zero rate is silent and a NaN rate disarms the plan;
//! * every pair of streams fires independently, even when armed from the
//!   same seed;
//! * env parsing is strict: a malformed value is an error naming the
//!   variable and quoting the raw string.

use smokescreen::video::{Perturb, PerturbKind, PerturbPlan};
use smokescreen_rt::fault::{CrashPlan, DiskFaultPlan, FaultPlan, NetFaultPlan};

/// Keys per stream in the pinned and statistical checks. Perturbation
/// decisions see this as the stream population, so drift fires on the
/// final `rate` fraction of the keys.
const KEYS: u64 = 20_000;

/// One key's decision, rendered with `Debug` (`None` for a clean key).
type Decide = Box<dyn Fn(u64) -> Option<String> + Sync>;

fn render<T: std::fmt::Debug>(decision: Option<T>) -> Option<String> {
    decision.map(|d| format!("{d:?}"))
}

/// Every decision stream, armed at `(seed, rate)`, by name.
fn streams(seed: u64, rate: f64) -> Vec<(&'static str, Decide)> {
    let fault = FaultPlan::new(seed, rate);
    let crash = CrashPlan::new(seed, rate);
    let disk = DiskFaultPlan::new(seed, rate);
    let net = NetFaultPlan::new(seed, rate);
    let mut out: Vec<(&'static str, Decide)> = vec![
        ("fault", Box::new(move |k| render(fault.fault_for(k)))),
        ("crash", Box::new(move |k| render(crash.crash_at(k)))),
        ("disk-write", Box::new(move |k| render(disk.write_fault(k)))),
        ("disk-read", Box::new(move |k| render(disk.read_fault(k)))),
        ("net", Box::new(move |k| render(net.fault_for(k)))),
    ];
    for kind in PerturbKind::ALL {
        let plan = PerturbPlan::with_stream(seed, rate, kind);
        out.push((
            kind.name(),
            Box::new(move |k| render(plan.decision(k, KEYS))),
        ));
    }
    out
}

fn decisions(decide: &Decide, keys: u64) -> Vec<Option<String>> {
    (0..keys).map(decide).collect()
}

fn fires(decide: &Decide) -> Vec<bool> {
    (0..KEYS).map(|k| decide(k).is_some()).collect()
}

/// FNV-1a over the rendered decisions of the first `KEYS` keys.
fn fingerprint(decide: &Decide) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for k in 0..KEYS {
        let rendered = decide(k).unwrap_or_else(|| "-".into());
        for b in rendered.bytes().chain([b'\n']) {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn decision_streams_match_pinned_fingerprints() {
    const PINNED: [(&str, u64); 10] = [
        ("fault", 0x8ad5_f9cf_f58e_88eb),
        ("crash", 0xb131_458a_1bbb_bf44),
        ("disk-write", 0x6027_c8ae_3813_02a3),
        ("disk-read", 0xca60_fbda_00ac_f9d0),
        ("net", 0xf0b0_e602_ee8f_dc1d),
        ("occlusion", 0x1aff_676c_8476_b52e),
        ("glare", 0x26b4_2fc9_8398_ae54),
        ("shake", 0x51c6_3b88_9330_d10b),
        ("label-flip", 0xcf60_802f_6252_a7f0),
        ("drift", 0x9298_69be_33f3_195f),
    ];
    let mut combined = vec![0u64; PINNED.len()];
    for seed in [0, 42, u64::MAX] {
        for rate in [0.05, 0.3, 1.0] {
            for (i, (name, decide)) in streams(seed, rate).iter().enumerate() {
                assert_eq!(*name, PINNED[i].0);
                combined[i] = combined[i].rotate_left(7) ^ fingerprint(decide);
            }
        }
    }
    for ((name, pinned), got) in PINNED.iter().zip(&combined) {
        assert_eq!(got, pinned, "{name}: decision stream moved ({got:#x})");
    }
}

#[test]
fn decisions_are_pure_and_seed_sensitive() {
    let (a, b) = (streams(7, 0.3), streams(8, 0.3));
    for ((name, plan), (_, other)) in a.iter().zip(&b) {
        let first = decisions(plan, KEYS);
        assert_eq!(
            first,
            decisions(plan, KEYS),
            "{name}: same plan must replay"
        );
        assert_ne!(first, decisions(other, KEYS), "{name}: seeds must differ");
    }
}

#[test]
fn decisions_are_order_and_thread_independent() {
    for (name, decide) in streams(3, 0.25) {
        let forward = decisions(&decide, 2_000);
        let mut backward: Vec<_> = (0..2_000).rev().map(&decide).collect();
        backward.reverse();
        assert_eq!(forward, backward, "{name}: order changed decisions");
        let threaded: Vec<Option<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let decide = &decide;
                    s.spawn(move || (t * 500..(t + 1) * 500).map(decide).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(forward, threaded, "{name}: threads changed decisions");
    }
}

#[test]
fn fire_frequency_tracks_the_rate() {
    for rate in [0.05, 0.2, 0.5] {
        for (name, decide) in streams(11, rate) {
            let observed = fires(&decide).iter().filter(|&&f| f).count() as f64 / KEYS as f64;
            assert!(
                (observed - rate).abs() < 0.02,
                "{name}: rate={rate} observed={observed}"
            );
        }
    }
}

#[test]
fn rates_clamp_and_zero_and_nan_rates_are_silent() {
    for rate in [0.0, -0.5, f64::NAN] {
        for (name, decide) in streams(1, rate) {
            assert!(
                (0..5_000).all(|k| decide(k).is_none()),
                "{name}: rate {rate} must never fire"
            );
        }
    }
    for ((name, over), (_, one)) in streams(1, 2.0).iter().zip(&streams(1, 1.0)) {
        assert_eq!(
            decisions(over, 2_000),
            decisions(one, 2_000),
            "{name}: rate 2 clamps to 1"
        );
    }
}

#[test]
fn every_pair_of_streams_fires_independently() {
    // Same seed, same keys: independent 20% streams co-fire on ~4% of
    // keys; a shared stream would co-fire on 20%. The perturbation kinds
    // are one stream — a plan injects a single kind — so they are never
    // armed together and only pair with the other plans' streams.
    let perturb = |name: &str| name.parse::<PerturbKind>().is_ok();
    let fired: Vec<(&str, Vec<bool>)> = streams(42, 0.2)
        .iter()
        .map(|(name, decide)| (*name, fires(decide)))
        .collect();
    for (i, (a, fa)) in fired.iter().enumerate() {
        for (b, fb) in &fired[i + 1..] {
            if perturb(a) && perturb(b) {
                continue;
            }
            let both = fa.iter().zip(fb).filter(|(x, y)| **x && **y).count();
            let share = both as f64 / KEYS as f64;
            assert!(share < 0.07, "{a} and {b} co-fire on {share} of keys");
        }
    }
}

/// Each plan's env parse, reduced to the armed `(seed, rate)`.
type Parse = fn(Option<&str>, Option<&str>) -> Result<Option<(u64, f64)>, String>;

const PARSERS: [(&str, Parse); 5] = [
    ("SMOKESCREEN_FAULT_", |s, r| {
        FaultPlan::parse_env(s, r).map(|p| p.map(|p| (p.seed(), p.rate())))
    }),
    ("SMOKESCREEN_CRASH_", |s, r| {
        CrashPlan::parse_env(s, r).map(|p| p.map(|p| (p.seed(), p.rate())))
    }),
    ("SMOKESCREEN_DISKFAULT_", |s, r| {
        DiskFaultPlan::parse_env(s, r).map(|p| p.map(|p| (p.seed(), p.rate())))
    }),
    ("SMOKESCREEN_NETFAULT_", |s, r| {
        NetFaultPlan::parse_env(s, r).map(|p| p.map(|p| (p.seed(), p.rate())))
    }),
    ("SMOKESCREEN_PERTURB_", |s, r| {
        PerturbPlan::parse_env(s, r, Some("glare")).map(|p| p.map(|p| (p.seed(), p.rate())))
    }),
];

#[test]
fn env_parsing_is_strict_and_names_the_variable() {
    for (prefix, parse) in PARSERS {
        // Unset or zero rates leave the plan disarmed; an unset seed is 0.
        assert_eq!(parse(None, None), Ok(None), "{prefix}");
        assert_eq!(parse(Some("7"), None), Ok(None), "{prefix}");
        assert_eq!(parse(Some("7"), Some("0")), Ok(None), "{prefix}");
        assert_eq!(
            parse(Some(" 7 "), Some("0.05")),
            Ok(Some((7, 0.05))),
            "{prefix}"
        );
        assert_eq!(parse(None, Some("1")), Ok(Some((0, 1.0))), "{prefix}");

        // A malformed value names its variable and quotes the raw string;
        // a malformed seed is loud even while the rate leaves the plan
        // disarmed.
        for (seed, rate, var, bad) in [
            (Some("banana"), Some("0.1"), "SEED", "banana"),
            (Some("-3"), Some("0.1"), "SEED", "-3"),
            (Some("oops"), None, "SEED", "oops"),
            (None, Some("lots"), "RATE", "lots"),
            (None, Some("0,05"), "RATE", "0,05"),
            (None, Some("1.5"), "RATE", "1.5"),
            (None, Some("-0.1"), "RATE", "-0.1"),
            (None, Some("NaN"), "RATE", "NaN"),
            (None, Some("inf"), "RATE", "inf"),
        ] {
            let err = parse(seed, rate).unwrap_err();
            assert!(err.contains(&format!("{prefix}{var}")), "{err}");
            assert!(
                err.contains(&format!("{bad:?}")),
                "{err} should quote {bad:?}"
            );
        }
    }
}
