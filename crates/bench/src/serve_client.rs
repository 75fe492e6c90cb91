//! Seeded load generation against a running `smokescreen-serve` daemon.
//!
//! [`run_load`] drives a fleet of deterministic clients (each its own
//! connection, schedule derived from `seed × client`) against a
//! [`ServeAddr`], counts every response by type, and reports wall time
//! plus request-latency percentiles. `ci.sh` drives it through the
//! `serve_load` bin.
//!
//! Determinism: the request *schedule* is a pure function of the config.
//! Profile payloads come from [`sample_profile`], which is a pure
//! function of `(grid, points)` — so a put-only load produces a store
//! whose compacted bytes are independent of client interleaving (the
//! store's per-key sequence numbers and key-ordered compaction do the
//! rest).
//!
//! Every client is a [`FaultClient`]: idempotent puts keyed on
//! `expected_seq` (a resent ack-lost put dedups instead of
//! double-applying), hedged gets, deterministic [`RetryPolicy`] backoff
//! (simulated — counted, not slept — so chaos runs stay fast and
//! replayable), and request ids stamped on every frame so the server's
//! seeded `NetFaultPlan` makes per-request fault decisions that replay
//! bit-for-bit. Against a daemon with no fault plan no retry fires.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use smokescreen_core::{Aggregate, Profile, ProfilePoint};
use smokescreen_degrade::InterventionSet;
use smokescreen_rt::json::{Json, ToJson};
use smokescreen_rt::log::checksum64;
use smokescreen_rt::pool::Pool;
use smokescreen_serve::protocol::{read_frame, write_frame, FrameError};
use smokescreen_serve::{
    stamp_rid, Connection, ErrorCode, Request, Response, ServeAddr, StoreKey,
};
use smokescreen_video::ObjectClass;

/// What the generated requests do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMix {
    /// `put_profile` only (seeds the key space).
    Puts,
    /// `get_profile` only (expects a seeded store).
    Gets,
    /// `query_tradeoff` only (expects a seeded store).
    Queries,
    /// Deterministic blend: ~50% gets, ~30% puts, ~20% queries.
    Mixed,
}

impl LoadMix {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Result<LoadMix, String> {
        match s {
            "put" | "puts" => Ok(LoadMix::Puts),
            "get" | "gets" => Ok(LoadMix::Gets),
            "query" | "queries" => Ok(LoadMix::Queries),
            "mixed" => Ok(LoadMix::Mixed),
            other => Err(format!("unknown mix {other:?} (put|get|query|mixed)")),
        }
    }
}

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address.
    pub addr: ServeAddr,
    /// Concurrent clients, each with its own connection.
    pub clients: usize,
    /// Total requests, split evenly across clients (remainder to the
    /// lowest client indices).
    pub requests: usize,
    /// Distinct grids (store keys) per client.
    pub grids: usize,
    /// Points per generated profile.
    pub points: usize,
    /// Request mix.
    pub mix: LoadMix,
    /// Schedule seed.
    pub seed: u64,
}

impl LoadConfig {
    /// A small default against `addr`: 4 clients, 8 grids each.
    pub fn new(addr: ServeAddr, requests: usize) -> LoadConfig {
        LoadConfig {
            addr,
            clients: 4,
            requests,
            grids: 8,
            points: 12,
            mix: LoadMix::Mixed,
            seed: 1,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Logical ops run. Retries, and the one `get` that syncs a key's
    /// sequence number before its first put, are not counted.
    pub requests: usize,
    /// `ok` responses to puts.
    pub puts: u64,
    /// `profile` responses.
    pub gets: u64,
    /// `tradeoff` responses.
    pub queries: u64,
    /// `not_found` errors (expected for gets racing ahead of puts).
    pub not_found: u64,
    /// Every other error response (unexpected under a healthy daemon).
    pub errors: u64,
    /// Wall time of the whole run, ms.
    pub wall_ms: f64,
    /// Median request latency, µs (nearest-rank over all requests).
    pub p50_us: f64,
    /// 95th-percentile request latency, µs.
    pub p95_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// Slowest request, µs.
    pub max_us: f64,
    /// Re-sent attempts beyond the first, across all ops.
    pub retries: u64,
    /// Connections re-established after a timeout, reset, or refused
    /// connect.
    pub reconnects: u64,
    /// Gets re-issued on a fresh connection after the hedge deadline.
    pub hedged_gets: u64,
    /// Total *simulated* backoff the retry policy charged, ms. Counted
    /// deterministically instead of slept, so it never shows up in
    /// `wall_ms`.
    pub sim_backoff_ms: f64,
}

impl LoadReport {
    /// Requests per second over the whole run.
    pub fn throughput_per_s(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.requests as f64 / (self.wall_ms / 1_000.0)
        } else {
            0.0
        }
    }
}

/// The stable camera id for load-gen client `c` — the same name-derived
/// checksum `camera::fleet::CameraId` uses, so load-gen keys are
/// reproducible and disjoint per client.
pub fn client_camera(client: usize) -> u64 {
    checksum64(format!("load-client-{client}").as_bytes())
}

/// A deterministic profile for `(grid, points)`: a plausible fraction
/// ladder with shrinking error bounds. Pure function — every put of the
/// same key carries identical bytes.
pub fn sample_profile(grid: u64, points: usize) -> Profile {
    let points = points.max(1);
    Profile {
        corpus: format!("load-grid-{grid}"),
        model: "sim-yolov4".into(),
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
        points: (0..points)
            .map(|i| {
                let fraction = (i + 1) as f64 / points as f64;
                ProfilePoint {
                    set: InterventionSet::sampling(fraction),
                    y_approx: 1.0 + grid as f64 / 7.0 + fraction,
                    err_b: 0.5 / (1.0 + 9.0 * fraction),
                    corrected: i % 3 == 0,
                    n: 64 * (i + 1),
                }
            })
            .collect(),
    }
}

/// Splitmix-style step used for the per-client schedule stream.
pub fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

/// Deterministic retry schedule for [`FaultClient`].
///
/// Backoff is *simulated*: the client charges `backoff_ms` to a counter
/// and retries immediately, so a chaos run's wall time stays bounded by
/// real work while the charged schedule is still a pure function of
/// `(rid, attempt)` — replayable and assertable. The only real sleeps
/// are short waits for a refused connect (a restarting daemon), capped
/// at [`RetryPolicy::CONNECT_SLEEP_CAP_MS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per logical op before giving up.
    pub max_attempts: u32,
    /// First-retry backoff, ms.
    pub base_ms: f64,
    /// Exponential growth per retry.
    pub multiplier: f64,
    /// Jitter half-width as a fraction of the exponential term
    /// (0.2 → ±20%), derived deterministically from the attempt's rid.
    pub jitter: f64,
    /// Read deadline per attempt, ms. A response that misses it is
    /// abandoned — the connection is dropped (a late frame would desync
    /// the request/response pairing) and the op re-sent.
    pub read_deadline_ms: u64,
    /// First-attempt read deadline for gets, ms. On expiry the read is
    /// hedged: re-issued on a fresh connection rather than waiting out
    /// the full deadline.
    pub hedge_after_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_ms: 10.0,
            multiplier: 2.0,
            jitter: 0.2,
            read_deadline_ms: 200,
            hedge_after_ms: 50,
        }
    }
}

impl RetryPolicy {
    /// Longest single real sleep while waiting for a daemon to come
    /// back, ms.
    pub const CONNECT_SLEEP_CAP_MS: u64 = 50;

    /// The simulated backoff charged before retry `attempt` (1-based)
    /// of the op whose request id is `rid`. Pure function.
    pub fn backoff_ms(&self, rid: u64, attempt: u32) -> f64 {
        let exp = self.base_ms * self.multiplier.powi(attempt.min(16) as i32 - 1);
        let mut state = rid ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let unit = (next_rand(&mut state) % 1_000_000) as f64 / 1e6;
        exp * (1.0 - self.jitter + 2.0 * self.jitter * unit)
    }
}

/// The request id stamped on attempt `attempt` of logical op `op` from
/// the client owning `camera`. Pure function — the same schedule always
/// stamps the same rids, so the server's seeded `NetFaultPlan` (a pure
/// function of rid) makes identical fault decisions on every replay.
pub fn request_id(camera: u64, op: u64, attempt: u32) -> u64 {
    let mut z = camera
        .wrapping_add(op.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counters a [`FaultClient`] accumulates across its ops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryStats {
    /// Frames sent (first attempts + retries).
    pub attempts: u64,
    /// Attempts beyond the first, across all ops.
    pub retries: u64,
    /// Connections re-established.
    pub reconnects: u64,
    /// Gets re-issued after the hedge deadline.
    pub hedged_gets: u64,
    /// Simulated backoff charged, ms.
    pub sim_backoff_ms: f64,
}

/// A successful `get_profile` through the retry layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GetReply {
    /// Per-key sequence number of the served record.
    pub seq: u64,
    /// The profile.
    pub profile: Profile,
    /// Latched drift staleness (served anyway, bounds widened).
    pub stale: bool,
    /// Degraded-mode marker: quarantine pending somewhere in the store.
    pub degraded: bool,
}

/// What one framed exchange produced.
enum Recv {
    Response(Response),
    /// The read deadline elapsed at a frame boundary. The connection has
    /// been dropped: a response that arrives after we stop waiting would
    /// otherwise be mis-paired with the *next* request.
    TimedOut,
    /// Send failed, stream reset, or frame torn; connection dropped.
    Disconnected(String),
}

/// What a reply classifier made of one response.
enum Verdict<T> {
    /// The op is done.
    Done(T),
    /// Re-send the op; the message explains why if it gives up.
    Retry(String),
    /// Not an op-specific reply: retried if a [`retryable`] error, fatal
    /// otherwise.
    Other(Response),
}

/// Is this error response worth re-sending the same op for?
fn retryable(code: ErrorCode) -> bool {
    matches!(
        code,
        ErrorCode::Overloaded | ErrorCode::ShuttingDown | ErrorCode::Quarantined | ErrorCode::Store
    )
}

/// A serving client that survives injected disk/net faults and daemon
/// restarts without ever double-applying a write.
///
/// * **Idempotent puts** — every put carries `expected_seq`, the next
///   sequence number after the last the client *observed* for the key
///   (shadow map, lazily synced with a get on first touch). If the put
///   applied but the ack was dropped, the retry's `expected_seq` equals
///   the server's current seq and the server acks without re-applying.
/// * **Hedged gets** — the first attempt waits only
///   [`RetryPolicy::hedge_after_ms`]; on expiry the read is re-issued on
///   a fresh connection instead of waiting out a dropped response.
/// * **Deterministic rids** — [`request_id`] stamps every frame, so the
///   server's seeded net-fault decisions are a pure function of the
///   schedule.
pub struct FaultClient {
    addr: ServeAddr,
    policy: RetryPolicy,
    camera: u64,
    conn: Option<Connection>,
    ops: u64,
    shadow: BTreeMap<StoreKey, u64>,
    /// Counters; read them out after the run.
    pub stats: RetryStats,
}

impl FaultClient {
    /// A client for `camera`'s key space against `addr`.
    pub fn new(addr: ServeAddr, camera: u64, policy: RetryPolicy) -> FaultClient {
        FaultClient {
            addr,
            policy,
            camera,
            conn: None,
            ops: 0,
            shadow: BTreeMap::new(),
            stats: RetryStats::default(),
        }
    }

    /// Connects (or reuses the live connection), sleeping briefly when
    /// the daemon refuses — the one place real time is spent, because a
    /// restarting supervisor generation genuinely is not there yet.
    fn connection(&mut self) -> Result<&mut Connection, String> {
        if self.conn.is_none() {
            let budget = self.policy.max_attempts.max(1) * 4;
            let mut last = String::new();
            for attempt in 0..budget {
                match self.addr.connect() {
                    Ok(conn) => {
                        // `attempts` already counts the attempt this
                        // connection is for: more than one means an
                        // earlier attempt's connection was dropped.
                        if attempt > 0 || self.stats.attempts > 1 {
                            self.stats.reconnects += 1;
                        }
                        self.conn = Some(conn);
                        break;
                    }
                    Err(e) => {
                        last = e.to_string();
                        let ms = self
                            .policy
                            .backoff_ms(self.camera, attempt + 1)
                            .min(RetryPolicy::CONNECT_SLEEP_CAP_MS as f64);
                        std::thread::sleep(Duration::from_micros((ms * 1_000.0) as u64));
                    }
                }
            }
            if self.conn.is_none() {
                return Err(format!("connect to {:?} kept failing: {last}", self.addr));
            }
        }
        Ok(self.conn.as_mut().expect("connection populated above"))
    }

    /// One framed exchange under a read deadline. Any outcome other than
    /// a parsed response drops the connection.
    fn exchange(&mut self, frame: &Json, deadline_ms: u64) -> Recv {
        let conn = match self.connection() {
            Ok(c) => c,
            Err(e) => return Recv::Disconnected(e),
        };
        let deadline = Some(Duration::from_millis(deadline_ms.max(1)));
        let failed = if let Err(e) = conn.set_read_timeout(deadline) {
            Recv::Disconnected(format!("set deadline: {e}"))
        } else if let Err(e) = write_frame(conn, frame) {
            Recv::Disconnected(format!("send: {e}"))
        } else {
            match read_frame(conn) {
                Ok(Some(json)) => match Response::from_json(&json) {
                    Ok(response) => return Recv::Response(response),
                    Err(e) => Recv::Disconnected(format!("bad response frame: {e}")),
                },
                Ok(None) => Recv::Disconnected("server closed the connection".into()),
                Err(FrameError::Idle) => Recv::TimedOut,
                Err(e) => Recv::Disconnected(format!("frame error: {e:?}")),
            }
        };
        self.conn = None;
        failed
    }

    /// Runs one logical op through the retry schedule: stamps each
    /// attempt's frame (from `frame`) with its rid, charges backoff, and
    /// hands every response to `classify`. Error responses `classify`
    /// passes back are retried when [`retryable`] and fatal otherwise.
    /// With `hedge`, the first attempt waits only
    /// [`RetryPolicy::hedge_after_ms`] and its timeout counts as a hedge.
    fn attempts<T>(
        &mut self,
        what: &str,
        hedge: bool,
        mut frame: impl FnMut(&Self) -> Json,
        mut classify: impl FnMut(&mut Self, Response) -> Result<Verdict<T>, String>,
    ) -> Result<T, String> {
        self.ops += 1;
        let op = self.ops;
        let mut last = String::new();
        for attempt in 0..self.policy.max_attempts {
            let rid = request_id(self.camera, op, attempt);
            let frame = stamp_rid(frame(self), rid);
            let hedged = hedge && attempt == 0;
            let deadline =
                if hedged { self.policy.hedge_after_ms } else { self.policy.read_deadline_ms };
            self.stats.attempts += 1;
            if attempt > 0 {
                self.stats.retries += 1;
                self.stats.sim_backoff_ms += self.policy.backoff_ms(rid, attempt);
            }
            last = match self.exchange(&frame, deadline) {
                Recv::Response(response) => match classify(self, response)? {
                    Verdict::Done(value) => return Ok(value),
                    Verdict::Retry(why) => why,
                    Verdict::Other(Response::Error { code, message }) if retryable(code) => {
                        format!("{}: {message}", code.as_str())
                    }
                    Verdict::Other(Response::Error { code, message }) => {
                        return Err(format!("{what}: fatal {} error: {message}", code.as_str()))
                    }
                    Verdict::Other(other) => {
                        return Err(format!("{what}: unexpected response {other:?}"))
                    }
                },
                Recv::TimedOut => {
                    if hedged {
                        self.stats.hedged_gets += 1;
                    }
                    "read deadline elapsed".into()
                }
                Recv::Disconnected(e) => e,
            };
        }
        Err(format!("{what} gave up after {} attempts: {last}", self.policy.max_attempts))
    }

    /// Idempotent durable write. Returns the acked sequence number; a
    /// retry whose previous attempt applied-but-lost-the-ack dedups on
    /// the server and still lands here with the same seq.
    pub fn put(&mut self, key: StoreKey, profile: &Profile) -> Result<u64, String> {
        if !self.shadow.contains_key(&key) {
            let seq = self.get(key)?.map_or(0, |reply| reply.seq);
            self.shadow.insert(key, seq);
        }
        let expected = |client: &Self| client.shadow[&key] + 1;
        self.attempts(
            "put",
            false,
            |client| {
                Request::PutProfile {
                    key,
                    profile: profile.clone(),
                    expected_seq: Some(expected(client)),
                }
                .to_json()
            },
            |client, response| {
                Ok(match response {
                    Response::Ok { seq } => {
                        let floor = expected(client);
                        client.shadow.insert(key, seq.max(floor));
                        Verdict::Done(seq)
                    }
                    // `expected_seq` disagreed with the store (e.g. the
                    // key advanced underneath a restart): resync the
                    // shadow and re-derive, same op.
                    Response::Error { code: ErrorCode::BadRequest, message } => {
                        let seq = client.get(key)?.map_or(0, |reply| reply.seq);
                        client.shadow.insert(key, seq);
                        Verdict::Retry(message)
                    }
                    other => Verdict::Other(other),
                })
            },
        )
    }

    /// Hedged read. `Ok(None)` means the key has no record.
    pub fn get(&mut self, key: StoreKey) -> Result<Option<GetReply>, String> {
        self.attempts(
            "get",
            true,
            |_| Request::GetProfile { key }.to_json(),
            |client, response| {
                Ok(match response {
                    Response::Profile { seq, profile, stale, degraded, .. } => {
                        client.shadow.insert(key, seq);
                        Verdict::Done(Some(GetReply { seq, profile, stale, degraded }))
                    }
                    Response::Error { code: ErrorCode::NotFound, .. } => {
                        client.shadow.insert(key, 0);
                        Verdict::Done(None)
                    }
                    other => Verdict::Other(other),
                })
            },
        )
    }

    /// Retried tradeoff query. `Ok(None)` means the key has no record.
    pub fn query(
        &mut self,
        key: StoreKey,
        max_err: f64,
        max_fraction: Option<f64>,
        max_bytes: Option<u64>,
        max_energy_j: Option<f64>,
    ) -> Result<Option<Vec<ProfilePoint>>, String> {
        let request =
            Request::QueryTradeoff { key, max_err, max_fraction, max_bytes, max_energy_j };
        self.attempts(
            "query",
            false,
            |_| request.to_json(),
            |_, response| {
                Ok(match response {
                    Response::Tradeoff { matches } => Verdict::Done(Some(matches)),
                    Response::Error { code: ErrorCode::NotFound, .. } => Verdict::Done(None),
                    other => Verdict::Other(other),
                })
            },
        )
    }
}

struct ClientOutcome {
    report: LoadReport,
    latencies_us: Vec<f64>,
    failure: Option<String>,
}

/// One step of the schedule: which op, against which key.
fn schedule_step(config: &LoadConfig, rng: &mut u64, camera: u64) -> (StoreKey, LoadMix) {
    let grid = 1 + (next_rand(rng) % config.grids.max(1) as u64);
    let key = StoreKey::new(camera, grid);
    let op = match config.mix {
        LoadMix::Mixed => match next_rand(rng) % 10 {
            0..=4 => LoadMix::Gets,
            5..=7 => LoadMix::Puts,
            _ => LoadMix::Queries,
        },
        fixed => fixed,
    };
    (key, op)
}

/// Runs one client's schedule to completion, every op through
/// [`FaultClient`]. An op that still fails after the retry budget is a
/// run failure — under the seeded fault plans the budget is sized to
/// always win.
fn run_client(config: &LoadConfig, client: usize, requests: usize) -> ClientOutcome {
    let mut report = LoadReport::default();
    let mut latencies_us = Vec::with_capacity(requests);
    let camera = client_camera(client);
    let mut rng = config
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(client as u64);
    let mut fc = FaultClient::new(config.addr.clone(), camera, RetryPolicy::default());

    let mut failure = None;
    for step in 0..requests {
        let (key, op) = schedule_step(config, &mut rng, camera);
        let t0 = Instant::now();
        let outcome = match op {
            LoadMix::Puts | LoadMix::Mixed => fc
                .put(key, &sample_profile(key.grid, config.points))
                .map(|_| report.puts += 1),
            LoadMix::Gets => fc.get(key).map(|reply| match reply {
                Some(_) => report.gets += 1,
                None => report.not_found += 1,
            }),
            LoadMix::Queries => fc
                .query(key, 0.2, Some(0.8), None, None)
                .map(|matches| match matches {
                    Some(_) => report.queries += 1,
                    None => report.not_found += 1,
                }),
        };
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        report.requests += 1;
        if let Err(e) = outcome {
            report.errors += 1;
            failure = Some(format!("client {client} step {step}: {e}"));
            break;
        }
    }
    report.retries = fc.stats.retries;
    report.reconnects = fc.stats.reconnects;
    report.hedged_gets = fc.stats.hedged_gets;
    report.sim_backoff_ms = fc.stats.sim_backoff_ms;
    ClientOutcome {
        report,
        latencies_us,
        failure,
    }
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drives the configured load and merges per-client outcomes. Fails fast
/// on the first unexpected error response or transport failure.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, String> {
    let clients = config.clients.max(1);
    let base = config.requests / clients;
    let extra = config.requests % clients;
    let shares: Vec<(usize, usize)> = (0..clients)
        .map(|c| (c, base + usize::from(c < extra)))
        .collect();

    let t0 = Instant::now();
    let outcomes =
        Pool::with_threads(clients).parallel_map(&shares, |_, &(c, n)| run_client(config, c, n));
    let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;

    let mut merged = LoadReport {
        wall_ms,
        ..LoadReport::default()
    };
    let mut latencies: Vec<f64> = Vec::with_capacity(config.requests);
    let mut failures = Vec::new();
    for outcome in outcomes {
        merged.requests += outcome.report.requests;
        merged.puts += outcome.report.puts;
        merged.gets += outcome.report.gets;
        merged.queries += outcome.report.queries;
        merged.not_found += outcome.report.not_found;
        merged.errors += outcome.report.errors;
        merged.retries += outcome.report.retries;
        merged.reconnects += outcome.report.reconnects;
        merged.hedged_gets += outcome.report.hedged_gets;
        merged.sim_backoff_ms += outcome.report.sim_backoff_ms;
        latencies.extend(outcome.latencies_us);
        if let Some(f) = outcome.failure {
            failures.push(f);
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    latencies.sort_by(f64::total_cmp);
    merged.p50_us = percentile(&latencies, 0.50);
    merged.p95_us = percentile(&latencies, 0.95);
    merged.p99_us = percentile(&latencies, 0.99);
    merged.max_us = latencies.last().copied().unwrap_or(0.0);
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_profile_is_pure_and_valid() {
        let a = sample_profile(3, 12);
        let b = sample_profile(3, 12);
        assert_eq!(a, b, "same inputs, same profile");
        assert_ne!(a, sample_profile(4, 12));
        assert_eq!(a.points.len(), 12);
        assert!(a.points.iter().all(|p| p.err_b > 0.0 && p.err_b.is_finite()));
        // Encodable through the store's columnar codec.
        let bytes = smokescreen_serve::store::encode_profile(&a);
        let back = smokescreen_serve::store::decode_profile(&bytes).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn client_cameras_are_disjoint_and_stable() {
        let ids: Vec<u64> = (0..16).map(client_camera).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
        assert_eq!(client_camera(0), client_camera(0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.50), 2.0);
        assert_eq!(percentile(&sorted, 0.95), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn retry_schedule_is_deterministic_and_exponential() {
        let policy = RetryPolicy::default();
        // Same (rid, attempt) → same backoff; jitter stays within ±20%.
        for attempt in 1..policy.max_attempts {
            let rid = request_id(client_camera(3), 7, attempt);
            let ms = policy.backoff_ms(rid, attempt);
            assert_eq!(ms, policy.backoff_ms(rid, attempt), "pure function");
            let exp = policy.base_ms * policy.multiplier.powi(attempt as i32 - 1);
            assert!(
                ms >= exp * 0.8 - 1e-9 && ms <= exp * 1.2 + 1e-9,
                "attempt {attempt}: {ms} outside jitter band around {exp}"
            );
        }
        // rids are pure and distinct across attempts of one op.
        let a = request_id(client_camera(0), 1, 0);
        assert_eq!(a, request_id(client_camera(0), 1, 0));
        assert_ne!(a, request_id(client_camera(0), 1, 1));
        assert_ne!(a, request_id(client_camera(0), 2, 0));
        assert_ne!(a, request_id(client_camera(1), 1, 0));
    }

    #[test]
    fn fault_client_survives_armed_net_faults_without_double_applies() {
        use smokescreen_rt::fault::NetFaultPlan;
        use smokescreen_serve::{Server, ServerConfig};
        let dir = std::env::temp_dir().join(format!("smk-retrygen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = std::env::temp_dir().join(format!("smk-retrygen-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        // A third of rid-stamped frames get a fault decision: drops,
        // resets, partial frames, delays. The retry layer must still land
        // every op exactly once.
        let server = Server::new(
            ServerConfig::new(ServeAddr::Unix(sock), &dir)
                .with_threads(2)
                .with_net_faults(Some(NetFaultPlan::new(0x4E7, 0.35))),
        )
        .spawn()
        .unwrap();

        let policy = RetryPolicy::default();
        let mut fc = FaultClient::new(server.addr().clone(), client_camera(0), policy);
        let camera = client_camera(0);
        // Three puts per key: per-key seqs must come back exactly 1, 2, 3
        // even when acks are dropped and the put is re-sent.
        for round in 1..=3u64 {
            for grid in 1..=4u64 {
                let key = StoreKey::new(camera, grid);
                let seq = fc.put(key, &sample_profile(grid, 6)).unwrap();
                assert_eq!(seq, round, "grid {grid}: no double-apply, no gap");
            }
        }
        for grid in 1..=4u64 {
            let key = StoreKey::new(camera, grid);
            let reply = fc.get(key).unwrap().expect("seeded key");
            assert_eq!(reply.seq, 3);
            assert_eq!(reply.profile, sample_profile(grid, 6));
            let matches = fc.query(key, 0.2, Some(0.8), None, None).unwrap();
            assert!(matches.is_some());
        }
        assert!(
            fc.stats.retries > 0,
            "a 35% fault rate over {} attempts must force retries",
            fc.stats.attempts
        );
        assert!(fc.stats.sim_backoff_ms > 0.0);

        let report = server.shutdown().unwrap();
        assert!(report.graceful);
        assert!(report.stats.net_faults > 0, "plan was armed and hit");
        assert_eq!(report.stats.quarantined_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_round_trips_against_a_live_daemon() {
        use smokescreen_serve::{Server, ServerConfig};
        let dir = std::env::temp_dir().join(format!("smk-loadgen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = std::env::temp_dir().join(format!("smk-loadgen-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let server = Server::new(
            ServerConfig::new(ServeAddr::Unix(sock), &dir).with_threads(2),
        )
        .spawn()
        .unwrap();

        let mut config = LoadConfig::new(server.addr().clone(), 64);
        config.clients = 2;
        config.grids = 4;
        config.mix = LoadMix::Puts;
        let seeded = run_load(&config).unwrap();
        assert_eq!(seeded.requests, 64);
        assert_eq!(seeded.puts, 64);
        assert_eq!(seeded.errors, 0);

        config.mix = LoadMix::Gets;
        let gets = run_load(&config).unwrap();
        assert_eq!(gets.gets + gets.not_found, 64);
        assert_eq!(gets.not_found, 0, "every key was seeded");
        assert!(gets.p50_us > 0.0 && gets.p95_us >= gets.p50_us);

        config.mix = LoadMix::Mixed;
        let mixed = run_load(&config).unwrap();
        assert_eq!(mixed.errors, 0);
        assert!(mixed.throughput_per_s() > 0.0);

        let report = server.shutdown().unwrap();
        assert!(report.graceful);
        assert_eq!(report.stats.quarantined_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Armed zero-rate disk and net plans are byte-invisible: the same
    /// rid-stamped mixed load against a plan-free daemon and a daemon
    /// with both plans armed at rate 0 compacts to identical store bytes,
    /// and no fault counter moves.
    #[test]
    fn zero_rate_plans_leave_store_bytes_identical() {
        use smokescreen_rt::fault::{DiskFaultPlan, NetFaultPlan};
        use smokescreen_serve::{Server, ServerConfig};
        let store_bytes = |tag: &str, disk: Option<DiskFaultPlan>, net: Option<NetFaultPlan>| {
            let tmp = std::env::temp_dir();
            let dir = tmp.join(format!("smk-inert-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let sock = tmp.join(format!("smk-inert-{tag}-{}.sock", std::process::id()));
            let _ = std::fs::remove_file(&sock);
            let server = Server::new(
                ServerConfig::new(ServeAddr::Unix(sock), &dir)
                    .with_threads(4)
                    .with_disk_faults(disk)
                    .with_net_faults(net),
            )
            .spawn()
            .unwrap();
            let mut config = LoadConfig::new(server.addr().clone(), 300);
            config.seed = 46;
            let load = run_load(&config).unwrap();
            assert_eq!((load.requests, load.errors), (300, 0), "{tag}");
            // Only a retry (a missed read deadline) drops a connection
            // here, so each client's first connect is not a reconnect.
            assert_eq!(load.reconnects, load.retries, "{tag}");
            let report = server.shutdown().unwrap();
            assert!(report.graceful, "{tag}");
            let stats = &report.stats;
            assert_eq!(
                (stats.net_faults, stats.disk_write_faults, stats.disk_read_faults),
                (0, 0, 0),
                "{tag}"
            );
            let bytes =
                ["profiles.data", "profiles.idx"].map(|f| std::fs::read(dir.join(f)).unwrap());
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        };
        let off = store_bytes("off", None, None);
        let zero = store_bytes(
            "zero",
            Some(DiskFaultPlan::new(53596, 0.0)),
            Some(NetFaultPlan::new(1255, 0.0)),
        );
        assert!(!off[0].is_empty() && !off[1].is_empty(), "the load wrote records");
        assert!(off == zero, "zero-rate plans changed the store bytes");
    }
}
