//! `ToJson::write_json` is the one encoder: the daemon writes every reply
//! with it, straight into a reused buffer, and `to_json` is the parse of
//! what it writes. These tests pin that it writes canonical JSON — sorted
//! keys, no key twice, so `parse` then `encode` returns the same bytes —
//! for random profiles (non-finite numbers, names that need escaping) and
//! every request and response variant, and that those bytes match the
//! committed frame golden. `ci.sh` runs the property a second time at
//! 2,000 cases:
//!
//! ```text
//! SMOKESCREEN_PT_CASES=2000 cargo test --test serve_write_json
//! ```

use std::path::PathBuf;

use smokescreen::core::{Aggregate, Profile, ProfilePoint};
use smokescreen::degrade::InterventionSet;
use smokescreen::rt::json::{FromJson, Json, ToJson};
use smokescreen::rt::proptest::prelude::*;
use smokescreen::rt::rng::StdRng;
use smokescreen::video::codec::Quality;
use smokescreen::video::{ObjectClass, Resolution};
use smokescreen_serve::protocol::representative_messages;
use smokescreen_serve::{DriftStatus, ErrorCode, Request, Response, ServerStats, StoreKey};

/// Asserts that what `value` appends after what `out` already held is
/// canonical: encoding its parse, `to_json`, gives the same bytes.
fn same_bytes(value: &(impl ToJson + ?Sized)) {
    let mut out = String::from("[1,");
    value.write_json(&mut out);
    let tree = value.to_json().encode();
    assert_eq!(out.strip_prefix("[1,"), Some(tree.as_str()));
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// Text with quotes, backslashes, control characters and non-ASCII.
fn text(rng: &mut StdRng) -> String {
    let palette = [
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{8}', '\u{c}', '\u{1f}',
        '\u{7f}', 'é', 'ß', '€', '😀',
    ];
    (0..rng.gen_range(0..12usize))
        .map(|_| pick(rng, &palette))
        .collect()
}

/// Any f64 the encoder may meet: non-finite, signed zero, integers on
/// both sides of 2^53, fractions across magnitudes.
fn number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => pick(
            rng,
            &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0],
        ),
        1 => (rng.next_u64() >> rng.gen_range(0..64u32)) as f64,
        2 => -((rng.next_u64() >> 11) as f64),
        3 => pick(rng, &[2f64.powi(53), 2f64.powi(53) - 1.0, 1e300, 5e-324]),
        4 => rng.gen_f64(),
        _ => (rng.gen_f64() - 0.5) * 10f64.powi(rng.gen_range(-30..30i32)),
    }
}

fn classes(rng: &mut StdRng) -> Vec<ObjectClass> {
    (0..rng.gen_range(0..3usize))
        .map(|_| pick(rng, &ObjectClass::ALL))
        .collect()
}

fn aggregate(rng: &mut StdRng) -> Aggregate {
    let x = number(rng);
    let all = [
        Aggregate::Avg,
        Aggregate::Sum,
        Aggregate::Var,
        Aggregate::Count { at_least: x },
        Aggregate::Max { r: x },
        Aggregate::Min { r: x },
        Aggregate::Quantile { r: x },
    ];
    pick(rng, &all)
}

fn profile(rng: &mut StdRng) -> Profile {
    let points = (0..rng.gen_range(0..5usize))
        .map(|_| ProfilePoint {
            set: InterventionSet {
                sample_fraction: number(rng),
                resolution: rng
                    .gen_bool(0.5)
                    .then(|| Resolution::new(rng.next_u32(), rng.gen_range(0..4096u32))),
                restricted: classes(rng),
                blurred: classes(rng),
                noise: number(rng),
                quality: rng.gen_bool(0.5).then(|| Quality::new(number(rng))),
            },
            y_approx: number(rng),
            err_b: number(rng),
            corrected: rng.gen_bool(0.5),
            n: rng.next_u64() as usize >> rng.gen_range(0..64u32),
        })
        .collect();
    Profile {
        corpus: text(rng),
        model: text(rng),
        class: pick(rng, &ObjectClass::ALL),
        aggregate: aggregate(rng),
        delta: number(rng),
        points,
    }
}

fn key(rng: &mut StdRng) -> StoreKey {
    StoreKey::new(rng.next_u64(), rng.next_u64() >> rng.gen_range(0..64u32))
}

fn optional<T>(rng: &mut StdRng, value: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| value(rng))
}

/// One request of every variant.
fn requests(rng: &mut StdRng) -> Vec<Request> {
    vec![
        Request::GetProfile { key: key(rng) },
        Request::PutProfile {
            key: key(rng),
            profile: profile(rng),
            expected_seq: optional(rng, StdRng::next_u64),
        },
        Request::QueryTradeoff {
            key: key(rng),
            max_err: number(rng),
            max_fraction: optional(rng, number),
            max_bytes: optional(rng, StdRng::next_u64),
            max_energy_j: optional(rng, number),
        },
        Request::Scrub {
            budget: rng.next_u64(),
        },
        Request::PushOutputs {
            key: key(rng),
            outputs: (0..rng.gen_range(0..6)).map(|_| number(rng)).collect(),
        },
        Request::Stats,
        Request::Shutdown,
    ]
}

/// Every counter random, and a repair queue of awkward strings.
fn stats(rng: &mut StdRng) -> ServerStats {
    let Json::Obj(mut members) = ServerStats::default().to_json() else {
        panic!("stats encode as an object")
    };
    for value in members.values_mut() {
        if let Json::Num(_) = value {
            *value = Json::Num((rng.next_u64() >> 11) as f64);
        }
    }
    let queue = (0..rng.gen_range(0..5))
        .map(|_| Json::Str(text(rng)))
        .collect();
    members.insert("repair_queue", Json::Arr(queue));
    ServerStats::from_json(&Json::Obj(members)).expect("random counters decode")
}

/// One response of every variant.
fn responses(rng: &mut StdRng) -> Vec<Response> {
    let codes = [
        ErrorCode::Malformed,
        ErrorCode::Oversized,
        ErrorCode::BadRequest,
        ErrorCode::NotFound,
        ErrorCode::Overloaded,
        ErrorCode::ShuttingDown,
        ErrorCode::Store,
        ErrorCode::Quarantined,
    ];
    let drift = |rng: &mut StdRng| DriftStatus {
        score: number(rng),
        windows_scored: rng.next_u64(),
        windows_flagged: rng.next_u64() >> 20,
        stale: rng.gen_bool(0.5),
        widen: number(rng),
    };
    vec![
        Response::Profile {
            key: key(rng),
            seq: rng.next_u64(),
            profile: profile(rng),
            drift: optional(rng, drift),
            stale: rng.gen_bool(0.5),
            degraded: rng.gen_bool(0.5),
        },
        Response::Ok {
            seq: rng.next_u64(),
        },
        Response::Tradeoff {
            matches: profile(rng).points,
        },
        Response::Stats(Box::new(stats(rng))),
        Response::Scrub {
            scanned: rng.next_u64(),
            verified: rng.next_u64() >> 3,
            repaired: rng.gen_range(0..10),
            quarantined: rng.gen_range(0..10),
            unrepaired: 0,
            wrapped: rng.gen_bool(0.5),
        },
        Response::error(pick(rng, &codes), text(rng)),
        Response::Bye,
    ]
}

proptest! {
    #[test]
    fn write_json_matches_tree_encoding(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        same_bytes(&profile(&mut rng));
        for request in requests(&mut rng) {
            same_bytes(&request);
        }
        for response in responses(&mut rng) {
            same_bytes(&response);
        }
    }
}

#[test]
fn direct_writes_match_the_frame_golden() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_protocol_frames.json");
    let golden = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    for (name, message) in representative_messages() {
        let mut direct = String::new();
        message.write_json(&mut direct);
        assert_eq!(
            direct,
            golden.get(name).unwrap().as_str().unwrap(),
            "{name}"
        );
    }
}
