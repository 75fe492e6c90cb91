//! Output checks. Each returns a description of what is wrong, and the
//! workloads count every failure against the operations attempted.

use smokescreen_camera::cost::{transmission_cost, EnergyModel};
use smokescreen_core::{Aggregate, Profile, ProfilePoint};
use smokescreen_serve::server::{COST_NATIVE_RES, COST_WINDOW_FRAMES};
use smokescreen_serve::{Response, ServerStats, StoreKey};
use smokescreen_stats::estimators::quantile::true_rank_error;
use smokescreen_video::Resolution;

/// A `query_tradeoff` request's predicates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Largest acceptable `err_b`.
    pub max_err: f64,
    /// Largest acceptable sample fraction.
    pub max_fraction: Option<f64>,
    /// Transmission byte budget per costing window.
    pub max_bytes: Option<u64>,
    /// Camera energy budget per costing window, J.
    pub max_energy_j: Option<f64>,
}

/// The points a correct daemon returns for `query`: every point meeting
/// the predicates, cheapest capture first, ties broken by the tighter
/// bound. Costs are judged with `camera::cost` on the daemon's canonical
/// window, as the protocol documents.
pub fn expected_matches(profile: &Profile, query: &Query) -> Vec<ProfilePoint> {
    let energy = EnergyModel::default();
    let native = Resolution::square(COST_NATIVE_RES);
    let mut out: Vec<ProfilePoint> = profile
        .points
        .iter()
        .filter(|p| {
            if p.err_b > query.max_err
                || query
                    .max_fraction
                    .is_some_and(|mf| p.set.sample_fraction > mf)
            {
                return false;
            }
            let shipped = (p.set.sample_fraction * COST_WINDOW_FRAMES as f64)
                .ceil()
                .min(COST_WINDOW_FRAMES as f64) as usize;
            let cost = transmission_cost(&p.set, COST_WINDOW_FRAMES, shipped, native, &energy);
            query.max_bytes.is_none_or(|b| cost.bytes <= b)
                && query.max_energy_j.is_none_or(|j| cost.energy_j <= j)
        })
        .cloned()
        .collect();
    out.sort_by(|a, b| {
        a.set
            .sample_fraction
            .total_cmp(&b.set.sample_fraction)
            .then(a.err_b.total_cmp(&b.err_b))
    });
    out
}

/// Checks a `get_profile` answer: the right key, the profile written for
/// it, a per-key sequence number that never goes backwards, and no
/// stale or degraded flag. Returns the sum of served `err_b` and the
/// number of points served.
pub fn check_get(
    key: StoreKey,
    response: &Response,
    expected: &Profile,
    last_seq: &mut u64,
) -> Result<(f64, usize), String> {
    match response {
        Response::Profile {
            key: got,
            seq,
            profile,
            stale,
            degraded,
            ..
        } => {
            if *got != key {
                return Err(format!("get for {key:?} answered for {got:?}"));
            }
            if profile != expected {
                return Err(format!(
                    "get for {key:?} served a profile that was never written"
                ));
            }
            if *seq < *last_seq || *seq == 0 {
                return Err(format!("get for {key:?} went from seq {last_seq} to {seq}"));
            }
            if *stale || *degraded {
                return Err(format!(
                    "get for {key:?} flagged stale={stale} degraded={degraded}"
                ));
            }
            *last_seq = *seq;
            Ok((
                profile.points.iter().map(|p| p.err_b).sum(),
                profile.points.len(),
            ))
        }
        other => Err(format!("get for {key:?} answered {}", describe(other))),
    }
}

/// Checks a `query_tradeoff` answer against [`expected_matches`], and on
/// its own terms: every point within `max_err`, cheapest first. Returns
/// the sum of served `err_b` and the number of points served.
pub fn check_query(
    key: StoreKey,
    query: &Query,
    response: &Response,
    expected: &[ProfilePoint],
) -> Result<(f64, usize), String> {
    let matches = match response {
        Response::Tradeoff { matches } => matches,
        other => return Err(format!("query for {key:?} answered {}", describe(other))),
    };
    if let Some(p) = matches.iter().find(|p| p.err_b > query.max_err) {
        return Err(format!(
            "query for {key:?} returned err_b {} above max_err {}",
            p.err_b, query.max_err
        ));
    }
    if matches
        .windows(2)
        .any(|w| w[0].set.sample_fraction > w[1].set.sample_fraction)
    {
        return Err(format!("query for {key:?} is not cheapest first"));
    }
    if matches.as_slice() != expected {
        return Err(format!(
            "query for {key:?} returned {} points, expected {}",
            matches.len(),
            expected.len()
        ));
    }
    Ok((matches.iter().map(|p| p.err_b).sum(), matches.len()))
}

/// Run-level daemon health after the load: nothing quarantined, no
/// protocol errors, no degraded answers, no faults.
pub fn check_stats(stats: &ServerStats) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, value) in [
        ("quarantined_records", stats.quarantined_records),
        ("quarantine_pending", stats.quarantine_pending),
        ("protocol_errors", stats.protocol_errors),
        ("overload_rejections", stats.overload_rejections),
        ("degraded_answers", stats.degraded_answers),
        ("disk_write_faults", stats.disk_write_faults),
        ("disk_read_faults", stats.disk_read_faults),
        ("net_faults", stats.net_faults),
        ("tail_repairs", stats.tail_repairs),
    ] {
        if value != 0 {
            bad.push(format!("stats: {name} = {value}, expected 0"));
        }
    }
    bad
}

/// Slack for floating-point rounding when comparing a bound with the
/// true error: a full-corpus point has `err_b` exactly 0 while its
/// estimate can differ from the truth in the last bits.
const ROUNDING: f64 = 1e-9;

/// Share of profile points whose bound covers the true relative error
/// against the native population (every frame, native resolution, no
/// removal): value-relative for mean aggregates, rank-relative for
/// quantiles, as the bounds are defined.
pub fn bound_coverage(profile: &Profile, population: &[f64]) -> f64 {
    if profile.points.is_empty() {
        return 0.0;
    }
    let truth = profile.aggregate.true_value(population);
    let covered = profile
        .points
        .iter()
        .filter(|p| {
            let err = match profile.aggregate {
                Aggregate::Max { r } | Aggregate::Min { r } | Aggregate::Quantile { r } => {
                    true_rank_error(population, p.y_approx, r)
                }
                _ if truth == 0.0 => {
                    if p.y_approx == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                }
                _ => (p.y_approx - truth).abs() / truth.abs(),
            };
            p.err_b >= err - ROUNDING
        })
        .count();
    covered as f64 / profile.points.len() as f64
}

/// Checks a profile's bounds: each finite and non-negative, and together
/// covering the truth at least as often as the confidence `1 − δ`
/// promises.
pub fn check_bounds(profile: &Profile, population: &[f64]) -> Result<f64, String> {
    if let Some(p) = profile
        .points
        .iter()
        .find(|p| !p.err_b.is_finite() || p.err_b < 0.0)
    {
        return Err(format!(
            "err_b {} at {:?} is not a finite bound",
            p.err_b, p.set
        ));
    }
    let coverage = bound_coverage(profile, population);
    if coverage < 1.0 - profile.delta {
        return Err(format!(
            "bounds cover the truth at {:.4} of points, below 1 - delta = {}",
            coverage,
            1.0 - profile.delta
        ));
    }
    Ok(coverage)
}

fn describe(response: &Response) -> String {
    match response {
        Response::Error { code, message } => format!("error {}: {message}", code.as_str()),
        other => format!("{other:?}").chars().take(80).collect(),
    }
}
