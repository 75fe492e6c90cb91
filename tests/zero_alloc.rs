//! Zero-alloc proof for the fraction-ladder cell path (ISSUE 8).
//!
//! `profile_cell` holds one reusable [`RangeOutputs`] scratch across the
//! ladder, the cache answers warm `try_count` probes by reference in its
//! per-resolution slot table, and the kernels ingest rung slices without
//! temporary buffers. This test pins the sum of those claims with the
//! counting allocator from `rt::bench::alloc`: once the scratch and the
//! cache are warm, replaying the exact ladder loop `profile_cell` runs
//! must perform **zero** heap allocations on this thread.
//!
//! The `cell_path_steady_ingest` trajectory bench records the same number
//! per run; full `trajectory run`s gate on it being zero.

use smokescreen::core::{Aggregate, AggregateKernel};
use smokescreen::degrade::pipeline::FETCH_CHUNK;
use smokescreen::degrade::{DegradedView, InterventionSet, RangeOutputs, RestrictionIndex};
use smokescreen::models::{OutputCache, SimYoloV4};
use smokescreen::rt::bench::alloc;
use smokescreen::rt::json::ToJson;
use smokescreen::video::synth::DatasetPreset;
use smokescreen::video::ObjectClass;

struct Fixture {
    corpus: smokescreen::video::VideoCorpus,
    yolo: SimYoloV4,
    restrictions: RestrictionIndex,
}

fn fixture() -> Fixture {
    let corpus = DatasetPreset::Detrac.generate(5).slice(0, 400);
    let restrictions = RestrictionIndex::from_ground_truth(&corpus, &[]);
    Fixture {
        corpus,
        yolo: SimYoloV4::new(5),
        restrictions,
    }
}

/// Ladder rung boundaries: 20 equal steps over the whole view, exactly
/// the disjoint-prefix ranges `profile_cell` fetches.
fn rung_bounds(len: usize) -> Vec<usize> {
    (0..=20).map(|i| i * len / 20).collect()
}

/// Uneven rung boundaries that cross the fetch's load chunks: one frame,
/// an empty rung, three full chunks plus half of a fourth, then the rest.
fn chunk_crossing_bounds(len: usize) -> Vec<usize> {
    let spanning = 1 + 3 * FETCH_CHUNK + FETCH_CHUNK / 2;
    assert!(spanning < len, "the fixture must hold the spanning rung");
    vec![0, 1, 1, spanning, len]
}

#[test]
fn warm_cell_path_performs_no_heap_allocation() {
    let fx = fixture();
    let view = DegradedView::new(
        &fx.corpus,
        InterventionSet::sampling(1.0),
        &fx.restrictions,
        3,
    )
    .unwrap();
    for bounds in [rung_bounds(view.len()), chunk_crossing_bounds(view.len())] {
        assert_warm_ladder_allocates_nothing(&fx, &view, &bounds);
    }
}

/// Replays the ladder over `bounds` twice to warm the cache and the
/// scratch, then asserts that a third pass allocates nothing.
fn assert_warm_ladder_allocates_nothing(fx: &Fixture, view: &DegradedView<'_>, bounds: &[usize]) {
    let cache = OutputCache::new(&fx.yolo, fx.corpus.len());
    let mut scratch = RangeOutputs::default();

    // First warm pass: runs the model once per frame and fills the
    // table's slots.
    for w in bounds.windows(2) {
        view.try_outputs_cached_range_into(&cache, ObjectClass::Car, w[0]..w[1], &mut scratch);
    }
    // Second warm pass: every fetch is a hit, and the scratch grows to
    // the largest rung it will ever be asked for.
    let mut warm = AggregateKernel::new(Aggregate::Avg);
    for w in bounds.windows(2) {
        view.try_outputs_cached_range_into(&cache, ObjectClass::Car, w[0]..w[1], &mut scratch);
        warm.extend(&scratch.values);
    }
    assert!(warm.n() > 0, "fixture must produce outputs");

    // Steady state: the identical ladder — fetch into the reused
    // scratch, slice-ingest, estimate per rung — must not touch the
    // heap. AVG's kernel holds O(1) state, so even its construction
    // inside the measured region is allocation-free.
    let (stats, n) = alloc::measure(|| {
        let mut kernel = AggregateKernel::new(Aggregate::Avg);
        for w in bounds.windows(2) {
            view.try_outputs_cached_range_into(
                &cache,
                ObjectClass::Car,
                w[0]..w[1],
                &mut scratch,
            );
            kernel.extend(&scratch.values);
            std::hint::black_box(kernel.estimate(fx.corpus.len(), 0.05).ok());
        }
        kernel.n()
    });
    assert_eq!(n, warm.n(), "steady pass must ingest the same samples");
    assert_eq!(
        stats,
        alloc::AllocStats::default(),
        "warm AVG cell path allocated in steady state over rungs {bounds:?}"
    );
}

#[test]
fn presized_order_kernel_ingests_rungs_without_allocating() {
    // The order-statistic kernels (MAX/MIN/QUANTILE) keep a sorted buffer
    // plus a batch scratch; `with_capacity` pre-sizes both, so a sweep to
    // a known terminal sample size ingests every rung allocation-free
    // (`sort_unstable_by` sorts in place — no driftsort scratch).
    let fx = fixture();
    let view = DegradedView::new(
        &fx.corpus,
        InterventionSet::sampling(1.0),
        &fx.restrictions,
        3,
    )
    .unwrap();
    let cache = OutputCache::new(&fx.yolo, fx.corpus.len());
    let bounds = rung_bounds(view.len());
    let mut scratch = RangeOutputs::default();

    // Warm the cache and the fetch scratch.
    for _ in 0..2 {
        for w in bounds.windows(2) {
            view.try_outputs_cached_range_into(&cache, ObjectClass::Car, w[0]..w[1], &mut scratch);
        }
    }

    let mut kernel = AggregateKernel::with_capacity(Aggregate::Max { r: 0.99 }, view.len());
    let (stats, n) = alloc::measure(|| {
        for w in bounds.windows(2) {
            view.try_outputs_cached_range_into(
                &cache,
                ObjectClass::Car,
                w[0]..w[1],
                &mut scratch,
            );
            kernel.extend(&scratch.values);
            std::hint::black_box(kernel.estimate(fx.corpus.len(), 0.05).ok());
        }
        kernel.n()
    });
    assert_eq!(n, view.len(), "every frame's output must be ingested");
    assert_eq!(
        stats,
        alloc::AllocStats::default(),
        "pre-sized MAX cell path allocated in steady state"
    );
}

#[test]
fn warm_reply_buffer_encodes_profile_and_tradeoff_replies_without_allocating() {
    // The daemon encodes each reply with `write_json` into a `FrameBuf`
    // its worker reuses. Once that buffer has held the largest reply, the
    // served profile, tradeoff and stats replies encode without touching
    // the heap: no tree, no owned keys, no member list, whatever the
    // number of members (`ServerStats` has more than a dozen).
    use smokescreen_bench::serve_client::sample_profile;
    use smokescreen_serve::protocol::FrameBuf;
    use smokescreen_serve::{DriftStatus, Response, ServerStats, StoreKey};

    let profile = sample_profile(42, 12);
    let drift = DriftStatus {
        score: 2.5,
        windows_scored: 12,
        windows_flagged: 1,
        stale: true,
        widen: 1.25,
    };
    let replies = [
        Response::Profile {
            key: StoreKey::new(0x00c5_a2e1_9f03_4b77, 42),
            seq: 3,
            profile: profile.clone(),
            drift: Some(drift),
            stale: true,
            degraded: false,
        },
        Response::Tradeoff { matches: profile.points },
        Response::Stats(Box::new(ServerStats {
            requests: 9,
            repair_queue: vec!["00c5a2e19f034b77:000000000000002a".into()],
            ..ServerStats::default()
        })),
    ];
    let mut reply = FrameBuf::default();
    for response in &replies {
        reply.encode(response);
    }
    for response in &replies {
        let (stats, len) = alloc::measure(|| reply.encode(response).len());
        assert_eq!(len, 4 + response.to_json().encode().len());
        assert_eq!(stats, alloc::AllocStats::default(), "encoding {response:?} allocated");
    }
}

#[test]
fn profile_reply_parses_in_few_allocations() {
    // A client parses each served reply into a `Json` tree. Object keys
    // live inline in their members and each object's members arrive in
    // one vector of exact size, so the tree costs an allocation per
    // object, array and string value, not one per key.
    use smokescreen::rt::json::Json;
    use smokescreen_bench::serve_client::sample_profile;
    use smokescreen_serve::{Response, StoreKey};

    let reply = Response::Profile {
        key: StoreKey::new(0x00c5_a2e1_9f03_4b77, 42),
        seq: 3,
        profile: sample_profile(42, 12),
        drift: None,
        stale: false,
        degraded: false,
    };
    let text = reply.to_json().encode();
    let (stats, tree) = alloc::measure(|| Json::parse(&text).expect("the reply parses"));
    assert_eq!(Response::from_json(&tree).expect("the tree decodes"), reply);
    eprintln!("{} B reply: {} allocations", text.len(), stats.count);
    assert!(stats.count <= 38, "parsing the profile reply allocated {} times", stats.count);
}
