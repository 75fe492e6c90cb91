//! Degraded views: applying an intervention set to a corpus.

use std::borrow::Cow;

use smokescreen_models::{Detector, OutputCache};
use smokescreen_stats::sample::PrefixSampler;
use smokescreen_video::codec::quantize_contrast;
use smokescreen_video::{Frame, ObjectClass, Resolution, VideoCorpus};

use crate::intervention::InterventionSet;
use crate::removal::RestrictionIndex;

/// Sampled frames the batched fetch loads ahead of their lookups (see
/// [`DegradedView::try_outputs_cached_range_into`]); 16 and 64 measured
/// the same.
pub const FETCH_CHUNK: usize = 32;

/// Outputs fetched over a sample range under fault injection.
///
/// Frames whose model calls failed permanently (timeout / retry budget
/// exhausted) are *dropped, and counted*: `values` holds only the
/// surviving outputs, in sample order, and `lost` says how many calls
/// failed. Because fault decisions are functions of `(frame, resolution)`
/// alone — independent of frame *content* — the survivors remain a
/// uniform without-replacement sample of the population, so feeding them
/// to the estimators keeps every bound sound (missing frames simply join
/// the "not sampled" mass; see DESIGN.md).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RangeOutputs {
    /// Surviving per-frame outputs, in sample order.
    pub values: Vec<f64>,
    /// Sampled frames in the range whose model calls failed permanently.
    pub lost: usize,
}

/// The sample order of one removal subset: the corpus indices that survive
/// image removal, and one seeded permutation of them.
///
/// It depends on the restricted classes and the seed alone, not on the
/// resolution or the fraction, so every view over the same subset can
/// borrow one through [`DegradedView::with_order`] instead of rebuilding
/// it.
#[derive(Debug, Clone)]
pub struct SampleOrder {
    restricted: Vec<ObjectClass>,
    /// Corpus indices that survive image removal.
    eligible: Vec<usize>,
    /// Positions into `eligible`, in sampled order (a full permutation).
    sampler: PrefixSampler,
}

impl SampleOrder {
    /// Builds the order for removing `restricted`; fails when removal
    /// leaves no frames.
    pub fn new(
        restrictions: &RestrictionIndex,
        restricted: &[ObjectClass],
        seed: u64,
    ) -> Result<Self, String> {
        let eligible = restrictions.surviving_indices(restricted);
        if eligible.is_empty() {
            return Err(format!("image removal of {restricted:?} leaves no frames"));
        }
        let sampler = PrefixSampler::new(eligible.len(), seed);
        Ok(SampleOrder {
            restricted: restricted.to_vec(),
            eligible,
            sampler,
        })
    }
}

/// A non-destructive degraded view of a corpus under an intervention set.
///
/// Construction resolves the three paper knobs:
///
/// 1. **image removal** — frames containing restricted classes are excluded
///    from the eligible population (membership comes from the
///    [`RestrictionIndex`] prior);
/// 2. **frame sampling** — `n = round(N · f)` eligible frames are drawn
///    without replacement. The underlying permutation is seeded, and
///    samples at smaller fractions are prefixes of samples at larger ones,
///    enabling output reuse across candidates (§3.3.2);
/// 3. **resolution** — frames are processed at `p` (or native).
///
/// Noise/compression extensions are applied by rewriting object contrast
/// when a frame is materialized.
#[derive(Debug)]
pub struct DegradedView<'c> {
    corpus: &'c VideoCorpus,
    set: InterventionSet,
    /// The removal subset's sample order, owned or shared.
    order: Cow<'c, SampleOrder>,
    /// Number of sampled frames under the current fraction.
    n: usize,
}

impl<'c> DegradedView<'c> {
    /// Builds the view. The seed fixes the sampling permutation; distinct
    /// experiment trials use distinct seeds.
    pub fn new(
        corpus: &'c VideoCorpus,
        set: InterventionSet,
        restrictions: &RestrictionIndex,
        seed: u64,
    ) -> Result<Self, String> {
        set.validate()?;
        let order = SampleOrder::new(restrictions, &set.restricted, seed)?;
        Ok(Self::build(corpus, set, Cow::Owned(order)))
    }

    /// Builds the view over a shared sample order, which must have been
    /// built for the set's restricted classes. Equal to
    /// [`new`](Self::new) with the order's seed.
    pub fn with_order(
        corpus: &'c VideoCorpus,
        set: InterventionSet,
        order: &'c SampleOrder,
    ) -> Result<Self, String> {
        set.validate()?;
        if order.restricted != set.restricted {
            return Err(format!(
                "sample order removes {:?}, the set removes {:?}",
                order.restricted, set.restricted
            ));
        }
        Ok(Self::build(corpus, set, Cow::Borrowed(order)))
    }

    fn build(corpus: &'c VideoCorpus, set: InterventionSet, order: Cow<'c, SampleOrder>) -> Self {
        // n = round(N · f), clamped to the surviving population (the paper
        // hits the same clamp: DETRAC person-removal leaves < 50% of
        // frames, so f = 0.5 is infeasible there and §5.2.2 drops to 0.1).
        let n = ((corpus.len() as f64 * set.sample_fraction).round() as usize)
            .max(1)
            .min(order.eligible.len());
        DegradedView {
            corpus,
            set,
            order,
            n,
        }
    }

    /// The intervention set in force.
    pub fn intervention(&self) -> &InterventionSet {
        &self.set
    }

    /// Sampled frame count `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the view is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total population size `N` the estimators bound against.
    pub fn population(&self) -> usize {
        self.corpus.len()
    }

    /// Eligible (post-removal) population size.
    pub fn eligible_len(&self) -> usize {
        self.order.eligible.len()
    }

    /// The effective processing resolution.
    pub fn resolution(&self) -> Resolution {
        self.corpus.processing_resolution(self.set.resolution)
    }

    /// Corpus indices of the sampled frames, in sample order.
    pub fn sampled_indices(&self) -> Vec<usize> {
        self.order
            .sampler
            .prefix(self.n)
            .iter()
            .map(|&pos| self.order.eligible[pos])
            .collect()
    }

    /// The sample size a *different* fraction would select over this view's
    /// eligible population — the same `round(N·f).max(1)` clamp applied at
    /// construction. Because samples are nested prefixes of one seeded
    /// permutation, the first `sample_size_for_fraction(f)` entries of this
    /// view's sample order are exactly the sample a view built at fraction
    /// `f` would process; the §3.3.2 sweep uses this to reuse prefix state
    /// across ascending fractions.
    pub fn sample_size_for_fraction(&self, fraction: f64) -> Result<usize, String> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(format!("sample fraction {fraction} must be in (0, 1]"));
        }
        Ok(((self.corpus.len() as f64 * fraction).round() as usize)
            .max(1)
            .min(self.order.eligible.len()))
    }

    /// Whether frame materialization rewrites object attributes (blur,
    /// noise, compression). When false, frames are borrowed verbatim and
    /// model-output caching by frame id is sound.
    pub fn rewrites_frames(&self) -> bool {
        !self.set.blurred.is_empty() || self.set.noise > 0.0 || self.set.quality.is_some()
    }

    /// Materializes the sampled frame at sample position `i`, applying
    /// blur/noise/compression rewrites when engaged.
    pub fn frame(&self, i: usize) -> Option<Cow<'c, Frame>> {
        let pos = *self.order.sampler.prefix(self.n).get(i)?;
        let frame = self.corpus.frame(self.order.eligible[pos])?;
        if !self.rewrites_frames() {
            return Some(Cow::Borrowed(frame));
        }
        let mut owned = frame.clone();
        for obj in &mut owned.objects {
            let mut c = obj.contrast;
            if self.set.blurred.contains(&obj.class) {
                // In-place region blur: the object melts into the
                // background — undetectable and unrecognizable, while the
                // rest of the frame is untouched.
                c = 0.0;
            }
            if let Some(q) = self.set.quality {
                c = quantize_contrast(c, q);
            }
            // Additive noise drowns contrast proportionally.
            c *= 1.0 - 0.5 * self.set.noise as f32;
            obj.contrast = c.max(0.0);
        }
        Some(Cow::Owned(owned))
    }

    /// Runs the detector over the sampled frames at the view's resolution,
    /// returning per-frame class counts `x_1 … x_n` (the estimator input).
    pub fn outputs(&self, detector: &dyn Detector, class: ObjectClass) -> Vec<f64> {
        let res = self.resolution();
        (0..self.n)
            .filter_map(|i| self.frame(i))
            .map(|f| detector.count(&f, res, class))
            .collect()
    }

    /// As [`outputs`](Self::outputs) but through an [`OutputCache`] so
    /// repeated profile-generation passes reuse model invocations. Only
    /// sound when noise/compression are off (the cache keys on frame id
    /// and resolution alone). Panics if the cache's fault plan fails a
    /// call; chaos callers use [`try_outputs_cached`](Self::try_outputs_cached).
    pub fn outputs_cached(&self, cache: &OutputCache<'_>, class: ObjectClass) -> Vec<f64> {
        let fetched = self.try_outputs_cached(cache, class);
        assert_eq!(
            fetched.lost, 0,
            "a model call failed; chaos callers must use try_outputs_cached"
        );
        fetched.values
    }

    /// Fault-tolerant twin of [`outputs_cached`](Self::outputs_cached):
    /// frames whose model calls fail permanently are dropped and counted
    /// instead of panicking the run.
    pub fn try_outputs_cached(&self, cache: &OutputCache<'_>, class: ObjectClass) -> RangeOutputs {
        self.try_outputs_cached_range(cache, class, 0..self.n)
    }

    /// Cached outputs for the half-open sample-position range
    /// `range.start..range.end` only (positions beyond this view's sample
    /// size yield nothing). This is the incremental-sweep entry point: a
    /// kernel that has already ingested positions `0..a` asks for `a..b`
    /// when the fraction rises, paying `O(Δn)` instead of `O(n)`. On a
    /// cache without a fault plan `lost` is 0; under a plan, permanently
    /// failed calls are dropped into `lost` while survivors keep their
    /// sample order.
    pub fn try_outputs_cached_range(
        &self,
        cache: &OutputCache<'_>,
        class: ObjectClass,
        range: std::ops::Range<usize>,
    ) -> RangeOutputs {
        let mut out = RangeOutputs::default();
        self.try_outputs_cached_range_into(cache, class, range, &mut out);
        out
    }

    /// Scratch-reusing form of
    /// [`try_outputs_cached_range`](Self::try_outputs_cached_range): the
    /// caller owns `out` and hands the same instance back rung after
    /// rung. `out` is cleared and refilled; once its `values` capacity
    /// has grown to the largest rung it is ever asked for, this performs
    /// no heap allocation — the zero-alloc contract the fraction-ladder
    /// hot loop in `smokescreen-core` (and the counting-allocator bench
    /// in `rt::bench`) relies on.
    ///
    /// The range is walked in chunks of [`FETCH_CHUNK`] sampled frames.
    /// Before a chunk's lookups, two passes of plain loads read each
    /// frame's record and then its first object; the loads are
    /// independent, so their cache misses overlap instead of each one
    /// stalling between model calls. The whole range is still one
    /// `try_count_each` batch, so the table's read lock is taken once.
    pub fn try_outputs_cached_range_into(
        &self,
        cache: &OutputCache<'_>,
        class: ObjectClass,
        range: std::ops::Range<usize>,
        out: &mut RangeOutputs,
    ) {
        debug_assert!(
            !self.rewrites_frames(),
            "cached outputs with contrast rewrites would alias clean frames"
        );
        let res = self.resolution();
        let end = range.end.min(self.n);
        let start = range.start.min(end);
        out.values.clear();
        out.lost = 0;
        // One up-front reservation per ladder rung: the slice-ingest path
        // downstream consumes `values` as a single batch, so growth
        // reallocations here would dominate small Δn fetches. A no-op
        // once the reused scratch has warmed past the rung size.
        out.values.reserve(end - start);
        let (corpus, eligible) = (self.corpus, &self.order.eligible);
        let frame_of = move |&pos: &usize| corpus.frame(eligible[pos]);
        let frames = self.order.sampler.prefix(self.n)[start..end]
            .chunks(FETCH_CHUNK)
            .flat_map(|chunk| {
                let chunk_frames = chunk.iter().filter_map(frame_of);
                let ids = chunk_frames.clone().fold(0, |acc, f| acc ^ f.id);
                let first = |f: &Frame| f.objects.first().map_or(0, |o| o.id);
                std::hint::black_box(chunk_frames.clone().fold(ids, |acc, f| acc ^ first(f)));
                chunk_frames
            });
        cache.try_count_each(frames, res, class, |count| match count {
            Ok(v) => out.values.push(v),
            Err(_) => out.lost += 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervention::InterventionSet;
    use smokescreen_models::{Oracle, RetryPolicy, SimYoloV4};
    use smokescreen_rt::fault::{FaultMix, FaultPlan};
    use smokescreen_rt::proptest::prelude::*;
    use smokescreen_rt::rng::StdRng;
    use smokescreen_video::synth::DatasetPreset;
    use std::collections::HashSet;
    use std::sync::OnceLock;

    fn setup() -> (VideoCorpus, RestrictionIndex) {
        let corpus = DatasetPreset::NightStreet.generate(1).slice(0, 4_000);
        let idx = RestrictionIndex::from_ground_truth(
            &corpus,
            &[ObjectClass::Person, ObjectClass::Face],
        );
        (corpus, idx)
    }

    #[test]
    fn sampling_respects_fraction() {
        let (corpus, idx) = setup();
        let view =
            DegradedView::new(&corpus, InterventionSet::sampling(0.1), &idx, 7).unwrap();
        assert_eq!(view.len(), 400);
        assert_eq!(view.population(), 4_000);
        let s: HashSet<_> = view.sampled_indices().into_iter().collect();
        assert_eq!(s.len(), 400, "samples must be distinct");
    }

    #[test]
    fn nested_fractions_share_prefixes() {
        let (corpus, idx) = setup();
        let small = DegradedView::new(&corpus, InterventionSet::sampling(0.05), &idx, 7)
            .unwrap()
            .sampled_indices();
        let large = DegradedView::new(&corpus, InterventionSet::sampling(0.2), &idx, 7)
            .unwrap()
            .sampled_indices();
        assert_eq!(&large[..small.len()], &small[..]);
    }

    #[test]
    fn removal_excludes_person_frames() {
        let (corpus, idx) = setup();
        let set = InterventionSet::sampling(0.5).with_restricted(&[ObjectClass::Person]);
        let view = DegradedView::new(&corpus, set, &idx, 3).unwrap();
        for i in view.sampled_indices() {
            assert!(!corpus.frame(i).unwrap().contains_class(ObjectClass::Person));
        }
        assert!(view.eligible_len() < corpus.len());
    }

    #[test]
    fn sample_clamped_to_survivors() {
        let corpus = DatasetPreset::Detrac.generate(2).slice(0, 3_000);
        let idx = RestrictionIndex::from_ground_truth(&corpus, &[ObjectClass::Person]);
        // ~65% of DETRAC frames contain a person, so f = 0.9 over-asks.
        let set = InterventionSet::sampling(0.9).with_restricted(&[ObjectClass::Person]);
        let view = DegradedView::new(&corpus, set, &idx, 1).unwrap();
        assert_eq!(view.len(), view.eligible_len());
    }

    #[test]
    fn shared_order_views_equal_one_shot_views() {
        let corpus = DatasetPreset::Detrac.generate(3).slice(0, 2_000);
        let person = [ObjectClass::Person];
        let idx = RestrictionIndex::from_ground_truth(&corpus, &person);
        let order = SampleOrder::new(&idx, &person, 8).unwrap();
        for (fraction, res) in [(0.1, None), (0.4, Some(Resolution::square(320)))] {
            let mut set = InterventionSet::sampling(fraction).with_restricted(&person);
            set.resolution = res;
            let shared = DegradedView::with_order(&corpus, set.clone(), &order).unwrap();
            let one_shot = DegradedView::new(&corpus, set, &idx, 8).unwrap();
            assert_eq!(shared.sampled_indices(), one_shot.sampled_indices());
            assert_eq!(shared.resolution(), one_shot.resolution());
        }
        let unrestricted = InterventionSet::sampling(0.1);
        assert!(DegradedView::with_order(&corpus, unrestricted, &order).is_err());
    }

    #[test]
    fn outputs_use_requested_resolution() {
        let (corpus, idx) = setup();
        let yolo = SimYoloV4::new(9);
        let hi = DegradedView::new(&corpus, InterventionSet::sampling(0.3), &idx, 5).unwrap();
        let lo = DegradedView::new(
            &corpus,
            InterventionSet::sampling(0.3).with_resolution(Resolution::square(96)),
            &idx,
            5,
        )
        .unwrap();
        let hi_sum: f64 = hi.outputs(&yolo, ObjectClass::Car).iter().sum();
        let lo_sum: f64 = lo.outputs(&yolo, ObjectClass::Car).iter().sum();
        assert!(lo_sum < hi_sum, "lo={lo_sum} hi={hi_sum}");
    }

    #[test]
    fn noise_rewrites_contrast() {
        let (corpus, idx) = setup();
        let noisy = DegradedView::new(
            &corpus,
            InterventionSet::sampling(1.0).with_noise(0.8),
            &idx,
            5,
        )
        .unwrap();
        let clean = DegradedView::new(&corpus, InterventionSet::sampling(1.0), &idx, 5).unwrap();
        // Find a sampled frame with objects and compare contrast.
        for i in 0..noisy.len() {
            let nf = noisy.frame(i).unwrap();
            let cf = clean.frame(i).unwrap();
            if let (Some(no), Some(co)) = (nf.objects.first(), cf.objects.first()) {
                assert!(no.contrast < co.contrast);
                return;
            }
        }
        panic!("no frame with objects found");
    }

    #[test]
    fn blur_suppresses_only_the_blurred_class() {
        let (corpus, idx) = setup();
        let yolo = SimYoloV4::new(21);
        let clean = DegradedView::new(&corpus, InterventionSet::sampling(1.0), &idx, 6).unwrap();
        let blurred = DegradedView::new(
            &corpus,
            InterventionSet::sampling(1.0).with_blur(&[ObjectClass::Person]),
            &idx,
            6,
        )
        .unwrap();
        let clean_persons: f64 = clean.outputs(&yolo, ObjectClass::Person).iter().sum();
        let blur_persons: f64 = blurred.outputs(&yolo, ObjectClass::Person).iter().sum();
        let clean_cars: f64 = clean.outputs(&yolo, ObjectClass::Car).iter().sum();
        let blur_cars: f64 = blurred.outputs(&yolo, ObjectClass::Car).iter().sum();
        assert!(
            blur_persons < clean_persons * 0.1,
            "blurred persons must be undetectable: {blur_persons} vs {clean_persons}"
        );
        // Cars are untouched by a person blur (same hash-deterministic
        // decisions on unmodified objects).
        assert_eq!(blur_cars, clean_cars);
    }

    #[test]
    fn cached_outputs_match_direct() {
        let (corpus, idx) = setup();
        let yolo = SimYoloV4::new(4);
        let cache = OutputCache::new(&yolo, corpus.len());
        let view = DegradedView::new(&corpus, InterventionSet::sampling(0.1), &idx, 11).unwrap();
        assert_eq!(
            view.outputs(&yolo, ObjectClass::Car),
            view.outputs_cached(&cache, ObjectClass::Car)
        );
        // Second pass is pure cache hits.
        let before = cache.invocations().model_runs;
        let _ = view.outputs_cached(&cache, ObjectClass::Car);
        assert_eq!(cache.invocations().model_runs, before);
    }

    #[test]
    fn try_outputs_drop_and_count_failed_calls() {
        let (corpus, idx) = setup();
        let yolo = SimYoloV4::new(4);
        let view = DegradedView::new(&corpus, InterventionSet::sampling(0.2), &idx, 11).unwrap();

        // Plan-less fallible path is byte-identical to the infallible one.
        let clean_cache = OutputCache::new(&yolo, corpus.len());
        let clean = view.try_outputs_cached(&clean_cache, ObjectClass::Car);
        assert_eq!(clean.lost, 0);
        assert_eq!(clean.values, view.outputs_cached(&clean_cache, ObjectClass::Car));

        // Under a timeout-heavy plan, failures are dropped and counted and
        // the survivors are the clean subsequence (payloads never corrupt).
        let timeouts = FaultMix { timeout: 1.0, transient: 0.0, slow: 0.0, poison: 0.0 };
        let plan = FaultPlan::with_stream(17, 0.3, timeouts);
        let cache = OutputCache::with_faults(&yolo, corpus.len(), plan, RetryPolicy::default());
        let chaotic = view.try_outputs_cached(&cache, ObjectClass::Car);
        assert!(chaotic.lost > 0, "a 30% timeout plan must lose frames");
        assert_eq!(chaotic.lost + chaotic.values.len(), view.len());
        let mut remaining: &[f64] = &clean.values;
        for v in &chaotic.values {
            let at = remaining
                .iter()
                .position(|c| c == v)
                .expect("survivor values must come from the clean sequence in order");
            remaining = &remaining[at + 1..];
        }

        // Replays are exact, and chunked fetches agree with the full scan.
        let replay = OutputCache::with_faults(&yolo, corpus.len(), plan, RetryPolicy::default());
        assert_eq!(view.try_outputs_cached(&replay, ObjectClass::Car), chaotic);
        let mut chunked = RangeOutputs::default();
        for start in (0..view.len()).step_by(61) {
            let end = (start + 61).min(view.len());
            let part = view.try_outputs_cached_range(&replay, ObjectClass::Car, start..end);
            chunked.values.extend(part.values);
            chunked.lost += part.lost;
        }
        assert_eq!(chunked, chaotic);
        // Out-of-bounds ranges clamp instead of panicking.
        let past_end = view.len()..view.len() + 50;
        assert_eq!(
            view.try_outputs_cached_range(&replay, ObjectClass::Car, past_end),
            RangeOutputs::default()
        );
    }

    #[test]
    fn sample_size_for_fraction_matches_constructed_views() {
        let (corpus, idx) = setup();
        let base =
            DegradedView::new(&corpus, InterventionSet::sampling(1.0), &idx, 7).unwrap();
        for f in [0.001, 0.05, 0.1, 0.25, 0.5, 0.9, 1.0] {
            let view =
                DegradedView::new(&corpus, InterventionSet::sampling(f), &idx, 7).unwrap();
            assert_eq!(base.sample_size_for_fraction(f).unwrap(), view.len(), "f={f}");
        }
        assert!(base.sample_size_for_fraction(0.0).is_err());
        assert!(base.sample_size_for_fraction(1.5).is_err());
    }

    #[test]
    fn oracle_full_view_equals_ground_truth() {
        let (corpus, idx) = setup();
        let view = DegradedView::new(&corpus, InterventionSet::none(), &idx, 2).unwrap();
        let mut outs = view.outputs(&Oracle, ObjectClass::Car);
        outs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut gt = corpus.ground_truth_counts(ObjectClass::Car);
        gt.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(outs, gt);
    }

    /// Frames in the chunk property's corpus.
    const PROP_FRAMES: usize = 600;
    /// Resolutions the chunk property draws from; `None` is native.
    const PROP_RES: [Option<u32>; 4] = [None, Some(320), Some(416), Some(608)];
    /// Classes whose removal subsets the chunk property draws.
    const PROP_RESTRICTABLE: [ObjectClass; 2] = [ObjectClass::Person, ObjectClass::Face];
    /// Range lengths every split contains: the chunk edges around
    /// `FETCH_CHUNK`, an empty range and a single frame.
    const EDGE_LENGTHS: [usize; 6] = [
        0,
        1,
        FETCH_CHUNK - 1,
        FETCH_CHUNK,
        FETCH_CHUNK + 1,
        2 * FETCH_CHUNK + 1,
    ];

    fn prop_fixture() -> &'static (VideoCorpus, RestrictionIndex) {
        static FIXTURE: OnceLock<(VideoCorpus, RestrictionIndex)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let corpus = DatasetPreset::NightStreet
                .generate(29)
                .slice(0, PROP_FRAMES);
            let idx = RestrictionIndex::from_ground_truth(&corpus, &PROP_RESTRICTABLE);
            (corpus, idx)
        })
    }

    /// Splits `0..len` into consecutive ranges: the `EDGE_LENGTHS` and the
    /// pieces of the rest cut at `cuts`, in an order shuffled by `mix`.
    fn split(len: usize, cuts: &[u32], mix: u64) -> Vec<std::ops::Range<usize>> {
        let rest = len - EDGE_LENGTHS.iter().sum::<usize>();
        let mut points: Vec<usize> = cuts.iter().map(|&c| c as usize % (rest + 1)).collect();
        points.extend([0, rest]);
        points.sort_unstable();
        let mut lengths: Vec<usize> = points.windows(2).map(|w| w[1] - w[0]).collect();
        lengths.extend(EDGE_LENGTHS);
        let mut rng = StdRng::seed_from_u64(mix);
        for i in (1..lengths.len()).rev() {
            lengths.swap(i, rng.gen_range(0..=i));
        }
        let mut start = 0;
        lengths
            .into_iter()
            .map(|n| {
                start += n;
                start - n..start
            })
            .collect()
    }

    proptest! {
        #[test]
        fn chunked_fetch_matches_per_frame_lookups(
            fraction_pct in 40u32..=100,
            seed in any::<u64>(),
            subset in 0usize..4,
            res in 0..PROP_RES.len(),
            cuts in collection::vec(any::<u32>(), 0..12),
            mix in any::<u64>(),
            plan_seed in any::<u64>(),
        ) {
            // A random view split into consecutive ranges, every chunk edge
            // among them, fetched through one reused scratch as the ladder
            // does. Values in order, `lost` and the accounting must equal a
            // per-frame `try_count` walk on a fresh cache with the same plan,
            // with no plan and under a mixed timeout/transient/poison plan.
            let (corpus, idx) = prop_fixture();
            let restricted: Vec<ObjectClass> = PROP_RESTRICTABLE
                .into_iter()
                .enumerate()
                .filter(|&(bit, _)| subset >> bit & 1 == 1)
                .map(|(_, class)| class)
                .collect();
            let mut set = InterventionSet::sampling(f64::from(fraction_pct) / 100.0)
                .with_restricted(&restricted);
            set.resolution = PROP_RES[res].map(Resolution::square);
            let view = DegradedView::new(corpus, set, idx, seed).unwrap();
            let ranges = split(view.len(), &cuts, mix);
            let yolo = SimYoloV4::new(29);
            let mixed = FaultMix { timeout: 0.4, transient: 0.3, slow: 0.0, poison: 0.3 };
            for plan in [None, Some(FaultPlan::with_stream(plan_seed, 0.2, mixed))] {
                let cache = || match plan {
                    Some(plan) => {
                        OutputCache::with_faults(&yolo, corpus.len(), plan, RetryPolicy::default())
                    }
                    None => OutputCache::new(&yolo, corpus.len()),
                };
                let (chunked, reference) = (cache(), cache());
                let (mut fetched, mut scratch) = (RangeOutputs::default(), RangeOutputs::default());
                for range in &ranges {
                    view.try_outputs_cached_range_into(
                        &chunked,
                        ObjectClass::Car,
                        range.clone(),
                        &mut scratch,
                    );
                    fetched.values.extend(&scratch.values);
                    fetched.lost += scratch.lost;
                }
                let mut expected = RangeOutputs::default();
                for i in 0..view.len() {
                    let frame = view.frame(i).unwrap();
                    match reference.try_count(&frame, view.resolution(), ObjectClass::Car) {
                        Ok(v) => expected.values.push(v),
                        Err(_) => expected.lost += 1,
                    }
                }
                prop_assert_eq!(&fetched, &expected);
                let totals = |c: &OutputCache| {
                    let inv = c.invocations();
                    (inv.model_runs, inv.cache_hits, inv.failed_calls)
                };
                prop_assert_eq!(totals(&chunked), totals(&reference));
            }
        }
    }

    #[test]
    fn invalid_set_rejected() {
        let (corpus, idx) = setup();
        assert!(DegradedView::new(&corpus, InterventionSet::sampling(0.0), &idx, 1).is_err());
    }
}
