//! The ground-truth oracle and the fault-tolerant invocation layer.
//!
//! [`Oracle`] returns the synthetic annotations verbatim at any
//! resolution. The paper treats model outputs at the highest resolution
//! as ground truth; the oracle is the limiting case and is used by tests
//! and by experiment harnesses that need the true `X_1 … X_N`.
//!
//! [`detect_with_retry`] is the oracle *path*: the single fault-aware
//! entry point every model invocation funnels through. It consults an
//! optional seeded [`FaultPlan`], retries transient failures with a
//! deterministic exponential backoff ([`RetryPolicy`] — the backoff is
//! *simulated* and accounted, never slept, so chaos runs stay fast and
//! byte-reproducible), and surfaces permanent failures as the typed
//! [`ModelError`] taxonomy instead of panicking or silently skipping
//! frames.

use smokescreen_rt::fault::{FaultKind, FaultPlan};
use smokescreen_video::{Frame, Resolution};

use crate::detector::{Detection, Detections, Detector, ModelError, ModelResult};

/// Retry budget and deterministic backoff schedule for model calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per call (first try included). At least 1.
    pub max_attempts: u32,
    /// Simulated backoff before the first retry, ms.
    pub base_backoff_ms: f64,
    /// Multiplier applied per further retry (exponential backoff).
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 10.0,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Simulated backoff charged before retry number `retry` (1-based):
    /// `base · factor^(retry − 1)` — the standard exponential schedule,
    /// fully determined by the policy (no jitter, so replays are exact).
    pub fn backoff_ms(&self, retry: u32) -> f64 {
        debug_assert!(retry >= 1);
        self.base_backoff_ms * self.backoff_factor.powi(retry as i32 - 1)
    }

    /// Total simulated backoff across `retries` consecutive retries.
    pub fn total_backoff_ms(&self, retries: u32) -> f64 {
        (1..=retries).map(|r| self.backoff_ms(r)).sum()
    }
}

/// Outcome of a successful fault-aware model call.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryOutcome {
    /// The model output (identical to the fault-free output — faults
    /// delay or drop calls, they never corrupt payloads).
    pub detections: Detections,
    /// Retries spent clearing transient faults (0 for a clean call).
    pub retries: u32,
    /// Simulated backoff time charged for those retries, ms.
    pub backoff_ms: f64,
    /// Extra simulated latency from a slow-response fault, ms.
    pub slow_ms: f64,
    /// Whether the output is poisoned — the caller must not cache it.
    pub poisoned: bool,
}

/// The stable 64-bit key identifying one `(frame, resolution)` model
/// call for fault scheduling. Pure in its inputs, so every layer (cache,
/// generation, tests) sees the same fault for the same logical call.
pub fn call_key(frame_id: u64, res: Resolution) -> u64 {
    frame_id ^ (u64::from(res.width) << 32) ^ (u64::from(res.height).rotate_left(16))
}

/// What a fault-aware call on one `(frame, resolution)` key does, decided
/// before the model runs. Pure in `(plan, call key, policy)`, so
/// [`detect_with_retry`] and the cache branch on the same verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CallVerdict {
    /// The call returns the model's output.
    Output {
        /// Retries spent clearing a transient fault.
        retries: u32,
        /// Simulated backoff charged for those retries, ms.
        backoff_ms: f64,
        /// Extra simulated latency from a slow-response fault, ms.
        slow_ms: f64,
        /// Whether the output is poisoned and must not be cached.
        poisoned: bool,
    },
    /// Every attempt times out.
    Timeout,
    /// The transient fault outlasts the retry budget.
    Exhausted,
}

impl CallVerdict {
    /// The verdict on `(frame_id, res)`:
    ///
    /// * no plan, or no fault scheduled → one clean attempt;
    /// * `Transient` → attempts fail until the fault clears; if it clears
    ///   within `policy.max_attempts` the call succeeds with its retries
    ///   and simulated backoff, otherwise it is `Exhausted`;
    /// * `Timeout` → every attempt fails;
    /// * `Slow` / `CachePoison` → success with the extra latency /
    ///   poisoned flag.
    pub fn of(
        plan: Option<&FaultPlan>,
        frame_id: u64,
        res: Resolution,
        policy: &RetryPolicy,
    ) -> CallVerdict {
        let output = |retries, slow_ms, poisoned| CallVerdict::Output {
            retries,
            backoff_ms: policy.total_backoff_ms(retries),
            slow_ms,
            poisoned,
        };
        match plan.and_then(|p| p.fault_for(call_key(frame_id, res))) {
            None => output(0, 0.0, false),
            Some(FaultKind::Slow { extra_ms }) => output(0, f64::from(extra_ms), false),
            Some(FaultKind::CachePoison) => output(0, 0.0, true),
            // Attempts 0..clears_after fail, each failure buys one backoff
            // step; the clearing attempt succeeds.
            Some(FaultKind::Transient { clears_after })
                if clears_after < policy.max_attempts.max(1) =>
            {
                output(clears_after, 0.0, false)
            }
            Some(FaultKind::Transient { .. }) => CallVerdict::Exhausted,
            Some(FaultKind::Timeout) => CallVerdict::Timeout,
        }
    }
}

/// Runs a model call through the fault plan with retry-and-backoff,
/// following the key's [`CallVerdict`]: an output verdict runs the model
/// and reports its retries, simulated backoff, latency and poison flag; a
/// failing one surfaces [`ModelError::Timeout`] or
/// [`ModelError::TransientExhausted`] after `policy.max_attempts`.
///
/// Deterministic: the outcome is a pure function of
/// `(detector, frame, res, plan, policy)` — thread count and timing
/// never change it.
pub fn detect_with_retry(
    detector: &dyn Detector,
    frame: &Frame,
    res: Resolution,
    plan: Option<&FaultPlan>,
    policy: &RetryPolicy,
) -> ModelResult<RetryOutcome> {
    let attempts = policy.max_attempts.max(1);
    match CallVerdict::of(plan, frame.id, res, policy) {
        CallVerdict::Output { retries, backoff_ms, slow_ms, poisoned } => Ok(RetryOutcome {
            detections: detector.detect(frame, res),
            retries,
            backoff_ms,
            slow_ms,
            poisoned,
        }),
        CallVerdict::Timeout => Err(ModelError::Timeout {
            model: detector.name().to_string(),
            frame_id: frame.id,
            attempts,
        }),
        CallVerdict::Exhausted => Err(ModelError::TransientExhausted {
            model: detector.name().to_string(),
            frame_id: frame.id,
            attempts,
        }),
    }
}

/// Perfect detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct Oracle;

impl Detector for Oracle {
    fn name(&self) -> &str {
        "oracle"
    }

    fn native_resolution(&self) -> Resolution {
        Resolution::square(u32::MAX)
    }

    fn supports(&self, _res: Resolution) -> bool {
        true
    }

    fn detect(&self, frame: &Frame, _res: Resolution) -> Detections {
        Detections {
            items: frame
                .objects
                .iter()
                .map(|o| Detection {
                    class: o.class,
                    score: 1.0,
                    bbox: o.bbox,
                    truth_id: Some(o.id),
                })
                .collect(),
        }
    }

    fn inference_cost_ms(&self, _res: Resolution) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_video::synth::DatasetPreset;
    use smokescreen_video::ObjectClass;

    #[test]
    fn backoff_schedule_is_exponential_and_deterministic() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_ms(1), 10.0);
        assert_eq!(policy.backoff_ms(2), 20.0);
        assert_eq!(policy.backoff_ms(3), 40.0);
        assert_eq!(policy.total_backoff_ms(3), 70.0);
        assert_eq!(policy.total_backoff_ms(0), 0.0);
    }

    #[test]
    fn retry_outcomes_replay_exactly_per_fault_kind() {
        let corpus = DatasetPreset::Detrac.generate(6).slice(0, 3_000);
        let o = Oracle;
        let res = Resolution::square(416);
        let plan = FaultPlan::new(13, 0.5);
        let policy = RetryPolicy::default();
        let (mut clean, mut retried, mut slow, mut poisoned, mut timeout, mut exhausted) =
            (0u32, 0u32, 0u32, 0u32, 0u32, 0u32);
        for f in corpus.frames() {
            let a = detect_with_retry(&o, f, res, Some(&plan), &policy);
            let b = detect_with_retry(&o, f, res, Some(&plan), &policy);
            assert_eq!(a, b, "fault outcomes must be pure in (plan, key)");
            let verdict = CallVerdict::of(Some(&plan), f.id, res, &policy);
            match (&a, verdict) {
                (Ok(out), CallVerdict::Output { retries, backoff_ms, slow_ms, poisoned }) => {
                    assert_eq!(
                        (out.retries, out.backoff_ms, out.slow_ms, out.poisoned),
                        (retries, backoff_ms, slow_ms, poisoned)
                    );
                }
                (Err(ModelError::Timeout { .. }), CallVerdict::Timeout)
                | (Err(ModelError::TransientExhausted { .. }), CallVerdict::Exhausted) => {}
                (a, v) => panic!("verdict {v:?} does not predict the call's outcome {a:?}"),
            }
            match a {
                Ok(out) => {
                    // Faults never corrupt payloads.
                    assert_eq!(out.detections, o.detect(f, res));
                    if out.retries > 0 {
                        assert_eq!(out.backoff_ms, policy.total_backoff_ms(out.retries));
                        retried += 1;
                    } else if out.slow_ms > 0.0 {
                        slow += 1;
                    } else if out.poisoned {
                        poisoned += 1;
                    } else {
                        clean += 1;
                    }
                }
                Err(ModelError::Timeout { attempts, .. }) => {
                    assert_eq!(attempts, policy.max_attempts);
                    timeout += 1;
                }
                Err(ModelError::TransientExhausted { attempts, .. }) => {
                    assert_eq!(attempts, policy.max_attempts);
                    exhausted += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(
            clean > 0 && retried > 0 && slow > 0 && poisoned > 0 && timeout > 0 && exhausted > 0,
            "all paths must be exercised: clean={clean} retried={retried} slow={slow} \
             poisoned={poisoned} timeout={timeout} exhausted={exhausted}"
        );
    }

    #[test]
    fn no_plan_means_no_faults() {
        let corpus = DatasetPreset::Detrac.generate(7).slice(0, 200);
        let o = Oracle;
        let res = Resolution::square(320);
        for f in corpus.frames() {
            let out = detect_with_retry(&o, f, res, None, &RetryPolicy::default()).unwrap();
            assert_eq!(out.retries, 0);
            assert_eq!(out.slow_ms, 0.0);
            assert!(!out.poisoned);
            assert_eq!(out.detections, o.detect(f, res));
        }
    }

    #[test]
    fn oracle_matches_ground_truth_everywhere() {
        let corpus = DatasetPreset::Detrac.generate(2);
        let o = Oracle;
        for f in corpus.frames().iter().take(500) {
            assert_eq!(
                o.count(f, Resolution::square(32), ObjectClass::Car) as usize,
                f.count_class(ObjectClass::Car)
            );
        }
    }
}
