//! The profile-serving workload, `serve_read_cold`.
//!
//! The daemon runs in-process (two workers, default read cache and
//! scrubber) on a Unix socket, with its store under the run directory.
//! Two client threads, one connection each, drive a closed loop. Frames
//! are written and read here, around `Json::{parse,encode}` and
//! `Request`/`Response::{to_json,from_json}`, so the client's own layers
//! can be timed apart from the wait on the daemon. A traced run then
//! replays the traced requests on this thread against a copy of the
//! seeded store through the same public layer functions the daemon uses.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use smokescreen_bench::serve_client::sample_profile;
use smokescreen_camera::cost::{transmission_cost, EnergyModel};
use smokescreen_core::Profile;
use smokescreen_rt::bench::alloc;
use smokescreen_rt::json::{Json, ToJson};
use smokescreen_serve::server::{COST_NATIVE_RES, COST_WINDOW_FRAMES};
use smokescreen_serve::{
    Connection, ErrorCode, GetOutcome, ProfileStore, Request, Response, RunningServer, ServeAddr,
    Server, ServerConfig, ServerStats, StoreKey, MAX_FRAME_LEN,
};
use smokescreen_video::Resolution;

use crate::check::{self, Query};
use crate::report::Outcome;
use crate::stats::{mean, median, nearest_rank, sorted, splitmix, windowed_rate, Reservoir};
use crate::trace::{self, SpanLog};
use crate::Options;

/// Client threads, one connection each.
pub const CLIENTS: usize = 2;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Points per served profile.
pub const POINTS: usize = 12;
/// The daemon's store identity (its default).
const IDENTITY: &str = "smokescreen-serve";
/// Daemon read-cache capacity (its default).
const CACHE_CAP: usize = 256;
/// Fresh deployments per run (see [`run`]).
const ROUNDS: usize = 10;
/// Timed set-ups per round; all but the last are stopped at once.
const SETUPS_PER_ROUND: usize = 3;
/// Untimed requests per client before each round's timed phase. A fixed
/// count rather than a duration, so the memory read after the first
/// warm-up does not depend on how fast the daemon serves.
const WARMUP_REQUESTS: u64 = 1_000;
/// Throughput windows per round (625 ms each at 50 s per run).
const WINDOWS: u32 = 8;
/// Alternating untraced and traced slices of a traced run.
const TRACE_SLICE: Duration = Duration::from_millis(500);
/// Requests replayed against the store copy in a traced run.
const REPLAY_CAP: usize = 4_000;
/// Latencies kept per client and phase (a uniform sample).
const LATENCY_SAMPLE: usize = 8_192;
/// A reply slower than this means the daemon is wedged.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Keys served: 4x the daemon's read cache, requested uniformly.
const KEYS: usize = 4 * CACHE_CAP;
/// Share of gets; the rest are queries. The workload does not write: a
/// put waits for `sync_data` on the checkout's disk, whose flush latency
/// drifts by several times within minutes (see `README.md`).
const GET_SHARE: f64 = 0.75;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Get,
    Query,
}

/// One scheduled request: its kind, key index and query predicates.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    key: usize,
    query: Query,
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The key set and what each key must hold.
struct Keys {
    keys: Vec<StoreKey>,
    profiles: Vec<Profile>,
    /// `(bytes, energy_j)` per point on the costing window; the points'
    /// intervention sets are the same for every key.
    point_costs: Vec<(u64, f64)>,
}

impl Keys {
    fn new(seed: u64, n: usize) -> Keys {
        let mut rng = seed ^ 0x5eed_0fca_3e5a_1100;
        let keys: Vec<StoreKey> = (0..n)
            .map(|i| StoreKey::new(splitmix(&mut rng), i as u64 + 1))
            .collect();
        let profiles: Vec<Profile> = keys
            .iter()
            .map(|k| sample_profile(k.grid, POINTS))
            .collect();
        let energy = EnergyModel::default();
        let native = Resolution::square(COST_NATIVE_RES);
        let point_costs = profiles[0]
            .points
            .iter()
            .map(|p| {
                let shipped = (p.set.sample_fraction * COST_WINDOW_FRAMES as f64).ceil() as usize;
                let c = transmission_cost(
                    &p.set,
                    COST_WINDOW_FRAMES,
                    shipped.min(COST_WINDOW_FRAMES),
                    native,
                    &energy,
                );
                (c.bytes, c.energy_j)
            })
            .collect();
        Keys {
            keys,
            profiles,
            point_costs,
        }
    }

    /// Draws the next request of a client's schedule.
    fn next_op(&self, rng: &mut u64) -> Op {
        let op = if unit(rng) < GET_SHARE {
            OpKind::Get
        } else {
            OpKind::Query
        };
        let key = (splitmix(rng) % self.keys.len() as u64) as usize;
        let max_err = 0.04 + 0.26 * unit(rng);
        let max_fraction = (unit(rng) < 0.5).then(|| 0.3 + 0.7 * unit(rng));
        let point = (splitmix(rng) % self.point_costs.len() as u64) as usize;
        let (bytes, energy) = self.point_costs[point];
        let (max_bytes, max_energy_j) = match splitmix(rng) % 3 {
            0 => (None, None),
            1 => (Some(bytes), None),
            _ => (None, Some(energy)),
        };
        Op {
            kind: op,
            key,
            query: Query {
                max_err,
                max_fraction,
                max_bytes,
                max_energy_j,
            },
        }
    }

    fn request(&self, op: &Op) -> Request {
        let key = self.keys[op.key];
        match op.kind {
            OpKind::Get => Request::GetProfile { key },
            OpKind::Query => Request::QueryTradeoff {
                key,
                max_err: op.query.max_err,
                max_fraction: op.query.max_fraction,
                max_bytes: op.query.max_bytes,
                max_energy_j: op.query.max_energy_j,
            },
        }
    }

    /// Profile JSON bytes over every key: the user data the store holds.
    fn user_bytes(&self) -> u64 {
        self.profiles
            .iter()
            .map(|p| ToJson::to_json(p).encode().len() as u64)
            .sum()
    }
}

/// One client's connection and schedule state, carried across phases.
struct Client {
    id: usize,
    conn: Connection,
    rng: u64,
    /// Highest seq this client has seen per key.
    last_seq: Vec<u64>,
    frame: Vec<u8>,
    body: Vec<u8>,
}

/// What one client saw in one phase. Memory is fixed per phase (window
/// counts and a bounded latency sample), except in traced runs.
struct ClientPhase {
    /// Requests completed in each throughput window since the phase start.
    windows: Vec<u64>,
    /// Uniform sample of `(latency_ns, kind)` over the completed requests.
    latencies: Reservoir<(u64, OpKind)>,
    attempted: u64,
    failures: Vec<String>,
    errors: [u64; 8],
    err_b_sum: f64,
    err_b_points: u64,
    allocs: u64,
    response_bytes: u64,
    /// Traced runs: `(sent_ns since the epoch, op, wait_ns)` of the first
    /// [`REPLAY_CAP`] requests.
    ops: Vec<(u64, Op, u64)>,
    log: Option<SpanLog>,
}

/// Every error code, with the metric counting its responses.
const ERRORS: [(ErrorCode, &str); 8] = [
    (ErrorCode::Malformed, "serve.errors.malformed"),
    (ErrorCode::Oversized, "serve.errors.oversized"),
    (ErrorCode::BadRequest, "serve.errors.bad_request"),
    (ErrorCode::NotFound, "serve.errors.not_found"),
    (ErrorCode::Overloaded, "serve.errors.overloaded"),
    (ErrorCode::ShuttingDown, "serve.errors.shutting_down"),
    (ErrorCode::Store, "serve.errors.store"),
    (ErrorCode::Quarantined, "serve.errors.quarantined"),
];

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
enum Length {
    Time(Duration),
    Requests(u64),
}

/// Per-request layer times of a traced round trip, ns.
struct Timing {
    encode: u64,
    wait: u64,
    parse: u64,
    decode: u64,
}

impl Client {
    /// One framed round trip. Times are taken only while tracing, except
    /// the end-to-end latency.
    fn round_trip(
        &mut self,
        request: &Request,
        traced: bool,
    ) -> Result<(Response, Instant, Instant, Option<Timing>), String> {
        let t0 = Instant::now();
        let text = request.to_json().encode();
        let t1 = if traced { Instant::now() } else { t0 };
        self.frame.clear();
        self.frame
            .extend_from_slice(&(text.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(text.as_bytes());
        self.conn
            .write_all(&self.frame)
            .and_then(|()| self.conn.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut len = [0u8; 4];
        self.conn
            .read_exact(&mut len)
            .map_err(|e| format!("receive: {e}"))?;
        let n = u32::from_le_bytes(len) as usize;
        if n > MAX_FRAME_LEN {
            return Err(format!("reply frame claims {n} bytes"));
        }
        self.body.resize(n, 0);
        self.conn
            .read_exact(&mut self.body)
            .map_err(|e| format!("receive: {e}"))?;
        let t2 = if traced { Instant::now() } else { t0 };
        let text = std::str::from_utf8(&self.body).map_err(|_| "reply is not UTF-8".to_string())?;
        let json = Json::parse(text).map_err(|e| format!("reply JSON: {e}"))?;
        let t3 = if traced { Instant::now() } else { t0 };
        let response = Response::from_json(&json)?;
        let t4 = Instant::now();
        let timing = traced.then(|| Timing {
            encode: (t1 - t0).as_nanos() as u64,
            wait: (t2 - t1).as_nanos() as u64,
            parse: (t3 - t2).as_nanos() as u64,
            decode: (t4 - t3).as_nanos() as u64,
        });
        Ok((response, t0, t4, timing))
    }

    /// Closed loop for `length`; records nothing when `record` is off.
    /// Samples are timed from `start`, spans and replay order from
    /// `epoch`.
    fn run_phase(
        &mut self,
        keys: &Keys,
        epoch: Instant,
        start: Instant,
        length: Length,
        record: bool,
        traced: bool,
    ) -> ClientPhase {
        let (windows, window_ns) = match length {
            Length::Time(budget) => (WINDOWS as usize, (budget / WINDOWS).as_nanos().max(1)),
            Length::Requests(_) => (0, 1),
        };
        let mut phase = ClientPhase {
            windows: vec![0; windows],
            latencies: Reservoir::new(LATENCY_SAMPLE, self.rng ^ 0x1a7e_5a3b_7e5e_7f01),
            attempted: 0,
            failures: Vec::new(),
            errors: [0; 8],
            err_b_sum: 0.0,
            err_b_points: 0,
            allocs: 0,
            response_bytes: 0,
            ops: Vec::new(),
            log: traced.then(|| SpanLog::new(epoch)),
        };
        let mut seq_no = 0u64;
        while match length {
            Length::Time(budget) => start.elapsed() < budget,
            Length::Requests(n) => phase.attempted < n,
        } {
            let op = keys.next_op(&mut self.rng);
            let request = keys.request(&op);
            phase.attempted += 1;
            seq_no += 1;
            let (allocs, result) = if traced {
                alloc::measure(|| self.round_trip(&request, true))
            } else {
                (
                    alloc::AllocStats::default(),
                    self.round_trip(&request, false),
                )
            };
            let (response, t0, t4, timing) = match result {
                Ok(r) => r,
                Err(e) => {
                    // The framed stream is unusable after a transport
                    // error; this client stops.
                    phase.failures.push(format!("client {}: {e}", self.id));
                    break;
                }
            };
            if let Err(e) = self.check(keys, &op, &response, &mut phase) {
                phase.failures.push(format!("client {}: {e}", self.id));
            }
            if !record {
                continue;
            }
            let window = (t4.saturating_duration_since(start).as_nanos() / window_ns) as usize;
            if let Some(count) = phase.windows.get_mut(window) {
                *count += 1;
            }
            phase.latencies.push(((t4 - t0).as_nanos() as u64, op.kind));
            phase.response_bytes += self.body.len() as u64;
            if let (Some(t), Some(log)) = (timing, phase.log.as_mut()) {
                phase.allocs += allocs.count;
                let rid = ((self.id as u64) << 48) | seq_no;
                let at = |ns: u64| t0 + Duration::from_nanos(ns);
                let root = log.record("request", None, rid, t0, t4);
                let mut edge = 0;
                for (name, ns) in [
                    ("bench.client.encode", t.encode),
                    ("serve.wait", t.wait),
                    ("bench.client.parse", t.parse),
                    ("bench.client.decode", t.decode),
                ] {
                    log.record(name, Some(root), rid, at(edge), at(edge + ns));
                    edge += ns;
                }
                if phase.ops.len() < REPLAY_CAP {
                    let sent = t0.saturating_duration_since(epoch).as_nanos() as u64;
                    phase.ops.push((sent, op, t.wait));
                }
            }
        }
        phase
    }

    fn check(
        &mut self,
        keys: &Keys,
        op: &Op,
        response: &Response,
        phase: &mut ClientPhase,
    ) -> Result<(), String> {
        if let Response::Error { code, .. } = response {
            if let Some(i) = ERRORS.iter().position(|(c, _)| c == code) {
                phase.errors[i] += 1;
            }
        }
        let key = keys.keys[op.key];
        let last = &mut self.last_seq[op.key];
        let (sum, n) = match op.kind {
            OpKind::Get => check::check_get(key, response, &keys.profiles[op.key], last)?,
            OpKind::Query => {
                let expected = check::expected_matches(&keys.profiles[op.key], &op.query);
                check::check_query(key, &op.query, response, &expected)?
            }
        };
        phase.err_b_sum += sum;
        phase.err_b_points += n as u64;
        Ok(())
    }
}

/// A seeded daemon and its clients.
struct Deployment {
    server: RunningServer,
    store_dir: PathBuf,
    clients: Vec<Client>,
}

impl Deployment {
    /// Starts a daemon on the store in `dir/store` (created if absent) and
    /// connects the clients, which expect every key at seq 1.
    fn start(dir: &Path, keys: &Keys, seed: u64) -> Result<Deployment, String> {
        let store_dir = dir.join("store");
        let config = ServerConfig::new(ServeAddr::Unix(dir.join("sock")), &store_dir)
            .with_threads(WORKERS)
            .with_disk_faults(None)
            .with_net_faults(None);
        let server = Server::new(config)
            .spawn()
            .map_err(|e| format!("daemon start: {e}"))?;
        let mut clients = Vec::with_capacity(CLIENTS);
        for id in 0..CLIENTS {
            let conn = server.connect().map_err(|e| format!("connect: {e}"))?;
            conn.set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| format!("connect: {e}"))?;
            clients.push(Client {
                id,
                conn,
                rng: seed ^ (0x00c1_1e47 + id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                last_seq: vec![1; keys.keys.len()],
                frame: Vec::new(),
                body: Vec::new(),
            });
        }
        Ok(Deployment {
            server,
            store_dir,
            clients,
        })
    }

    /// Gives every key of an empty store its profile with one durable put.
    fn seed_keys(&mut self, keys: &Keys) -> Result<(), String> {
        let seeder = &mut self.clients[0];
        for (i, key) in keys.keys.iter().enumerate() {
            let put = Request::PutProfile {
                key: *key,
                profile: keys.profiles[i].clone(),
                expected_seq: None,
            };
            match seeder.conn.request(&put) {
                Ok(Response::Ok { seq: 1 }) => {}
                other => return Err(format!("seeding {key:?}: {other:?}")),
            }
        }
        Ok(())
    }

    fn stats(&mut self) -> Result<ServerStats, String> {
        match self.clients[0].conn.request(&Request::Stats) {
            Ok(Response::Stats(stats)) => Ok(*stats),
            other => Err(format!("stats: {other:?}")),
        }
    }

    /// Runs every client for `length` (see [`Client::run_phase`];
    /// `epoch` defaults to the phase start).
    fn phase(
        &mut self,
        keys: &Keys,
        length: Length,
        record: bool,
        traced: Option<Instant>,
    ) -> Vec<ClientPhase> {
        let start = Instant::now();
        let epoch = traced.unwrap_or(start);
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| {
                    s.spawn(move || {
                        c.run_phase(keys, epoch, start, length, record, traced.is_some())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// Stops the daemon. A graceful shutdown compacts the store; `kill`
    /// skips that, for a store that is thrown away, so no unmeasured
    /// flushed writes land between timed phases.
    fn stop(self, graceful: bool) -> Result<ServerStats, String> {
        drop(self.clients);
        let report = if graceful {
            self.server.shutdown()
        } else {
            self.server.kill()
        };
        report
            .map(|r| r.stats)
            .map_err(|e| format!("daemon shutdown: {e}"))
    }
}

/// Copies a store's files (taken while no daemon has it open).
fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One phase over every client: full-window completion counts and the
/// sorted latency samples, in ms.
struct Merged {
    windows: Vec<u64>,
    completed: u64,
    latency_ms: Vec<f64>,
    get_ms: Vec<f64>,
}

fn merge(phases: &[ClientPhase], out: &mut Outcome) -> Merged {
    let mut m = Merged {
        windows: vec![0; phases.iter().map(|p| p.windows.len()).min().unwrap_or(0)],
        completed: 0,
        latency_ms: Vec::new(),
        get_ms: Vec::new(),
    };
    for p in phases {
        out.attempted += p.attempted;
        for f in &p.failures {
            out.fail(f.clone());
        }
        for (sum, count) in m.windows.iter_mut().zip(&p.windows) {
            *sum += count;
        }
        m.completed += p.latencies.seen();
        for &(lat, kind) in p.latencies.items() {
            let ms = lat as f64 / 1e6;
            m.latency_ms.push(ms);
            if kind == OpKind::Get {
                m.get_ms.push(ms);
            }
        }
    }
    m.latency_ms = sorted(m.latency_ms);
    m.get_ms = sorted(m.get_ms);
    m
}

fn p50(sorted_ms: &[f64]) -> f64 {
    if sorted_ms.is_empty() {
        0.0
    } else {
        nearest_rank(sorted_ms, 0.5)
    }
}

/// Per-round end-to-end figures.
struct Round {
    throughput: f64,
    p50: f64,
    p90: f64,
    get_p50: f64,
}

/// Builds the seeded store every round starts from: a daemon on an empty
/// store takes one durable put per key and shuts down gracefully, which
/// compacts the store and writes its index.
fn seeded_store(dir: &Path, keys: &Keys, seed: u64) -> Result<PathBuf, String> {
    let mut dep = Deployment::start(dir, keys, seed)?;
    dep.seed_keys(keys)?;
    let store_dir = dep.store_dir.clone();
    let stats = dep.stop(true)?;
    match check::check_stats(&stats).first() {
        Some(e) => Err(format!("seeding: {e}")),
        None => Ok(store_dir),
    }
}

/// Runs one serving workload.
///
/// The keys are seeded once into a template store. The run is then split
/// into [`ROUNDS`] rounds. Each sets up fresh daemons on copies of the
/// template (timed: `setup_s` is the median), keeps the last, warms it
/// with a fixed number of requests, measures an equal share of the timed
/// phase, checks the daemon's counters and kills it (its store is thrown
/// away, so a compacting shutdown would only add unmeasured flushed
/// writes before the next round). The end-to-end figures are
/// medians over rounds, so one unlucky placement of the four busy threads
/// on the host's cores moves one round, not the run. A traced run gives
/// the untraced rounds half the time and then traces the last round's
/// daemon for the other half.
pub fn run(opts: &Options, run_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let keys = Keys::new(opts.seed, KEYS);
    let t = Instant::now();
    let template = match seeded_store(&run_dir.join("template"), &keys, opts.seed) {
        Ok(dir) => dir,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    out.note(format!(
        "seeded {} keys with durable puts in {:.4} s (once per run, not in setup_s)",
        keys.keys.len(),
        t.elapsed().as_secs_f64()
    ));
    let replay_dir = run_dir.join("replay-store");
    if opts.trace {
        if let Err(e) = copy_store(&template, &replay_dir) {
            out.fail(format!("copying the seeded store: {e}"));
        }
    }
    let plain_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let round_budget = Duration::from_secs_f64(plain_s / ROUNDS as f64);
    let mut setups = Vec::with_capacity(ROUNDS * SETUPS_PER_ROUND);
    let mut rounds: Vec<Round> = Vec::with_capacity(ROUNDS);
    let mut peak_rss_mb = f64::NAN;
    let (mut err_b_sum, mut err_b_points) = (0.0, 0u64);
    let (mut completed, mut counts) = (0u64, [0usize; 2]);
    for round in 0..ROUNDS {
        // A set-up takes about a millisecond, so one per round would be
        // too few samples for a steady median. Each spare daemon stops
        // before the next set-up, so none runs beside another.
        let mut kept = None;
        for k in 0..SETUPS_PER_ROUND {
            let dir = run_dir.join(format!("round{round}-{k}"));
            let t = Instant::now();
            let dep = copy_store(&template, &dir.join("store"))
                .map_err(|e| format!("copying the seeded store: {e}"))
                .and_then(|()| Deployment::start(&dir, &keys, opts.seed));
            setups.push(t.elapsed().as_secs_f64());
            if k + 1 == SETUPS_PER_ROUND {
                kept = Some((dir, dep));
            } else {
                if let Err(e) = dep.and_then(|d| d.stop(false)) {
                    out.fail(e);
                }
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let (dir, dep) = kept.expect("at least one set-up");
        let mut dep = match dep {
            Ok(d) => d,
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                return out;
            }
        };

        let warm = dep.phase(&keys, Length::Requests(WARMUP_REQUESTS), false, None);
        for f in warm.iter().flat_map(|p| &p.failures) {
            out.fail(format!("warm-up: {f}"));
        }
        if round == 0 {
            peak_rss_mb = crate::stats::peak_rss_mb();
        }
        let plain = dep.phase(&keys, Length::Time(round_budget), true, None);
        let m = merge(&plain, &mut out);
        if m.latency_ms.is_empty() {
            out.fail(format!("round {round}: no request completed"));
        } else {
            out.note(format!(
                "round {round}: {} requests, p50 {:.4} ms, completed per {} ms window {:?}",
                m.completed,
                p50(&m.latency_ms),
                (round_budget / WINDOWS).as_millis(),
                m.windows
            ));
            rounds.push(Round {
                throughput: windowed_rate(&m.windows, (round_budget / WINDOWS).as_nanos() as u64),
                p50: nearest_rank(&m.latency_ms, 0.5),
                p90: nearest_rank(&m.latency_ms, 0.9),
                get_p50: p50(&m.get_ms),
            });
        }
        for p in &plain {
            err_b_sum += p.err_b_sum;
            err_b_points += p.err_b_points;
        }
        completed += m.completed;
        counts[0] += m.get_ms.len();
        counts[1] += m.latency_ms.len() - m.get_ms.len();

        if opts.trace && round + 1 == ROUNDS {
            let budget = Duration::from_secs_f64(opts.seconds / 2.0);
            traced_phase(&mut dep, &keys, budget, &replay_dir, opts, &mut out);
        }
        match dep.stats() {
            Ok(stats) => {
                for e in check::check_stats(&stats) {
                    out.fail(format!("round {round}: {e}"));
                }
            }
            Err(e) => out.fail(e),
        }
        if let Err(e) = dep.stop(false) {
            out.fail(e);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if rounds.is_empty() {
        return out;
    }
    let over_rounds = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", median(&setups));
    out.set("throughput_per_s", over_rounds(|r| r.throughput));
    out.set("latency_p50_ms", over_rounds(|r| r.p50));
    out.set("latency_p90_ms", over_rounds(|r| r.p90));
    out.set(
        "mean_err_b",
        if err_b_points == 0 {
            0.0
        } else {
            err_b_sum / err_b_points as f64
        },
    );
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("get_latency_p50_ms", over_rounds(|r| r.get_p50));
    out.note(format!(
        "{} rounds, {completed} requests; latency samples: {} gets, {} queries; {} keys, {} clients, {} workers",
        rounds.len(),
        counts[0],
        counts[1],
        keys.keys.len(),
        CLIENTS,
        WORKERS
    ));
    let setup_sorted = sorted(setups.clone());
    out.note(format!(
        "set-ups {}: quartiles (s) {:?}",
        setups.len(),
        [0.25, 0.5, 0.75].map(|q| (nearest_rank(&setup_sorted, q) * 1e6).round() / 1e6)
    ));
    out.note(format!(
        "get_latency_p50_ms = {} ms (median over rounds)",
        over_rounds(|r| r.get_p50),
    ));
    out
}

/// The traced half: client-side spans, daemon counters, then the replay
/// of the traced requests against the store copy.
fn traced_phase(
    dep: &mut Deployment,
    keys: &Keys,
    budget: Duration,
    replay_dir: &Path,
    opts: &Options,
    out: &mut Outcome,
) {
    let before = match dep.stats() {
        Ok(s) => s,
        Err(e) => return out.fail(e),
    };
    // Untraced and traced slices alternate, so both see the same host
    // conditions and their difference is the tracing overhead.
    let epoch = Instant::now();
    let (mut phases, mut untraced) = (Vec::new(), Vec::new());
    while epoch.elapsed() < budget {
        let slice = Length::Time(TRACE_SLICE);
        untraced.extend(dep.phase(keys, slice, true, None));
        phases.extend(dep.phase(keys, slice, true, Some(epoch)));
    }
    let after = match dep.stats() {
        Ok(s) => s,
        Err(e) => return out.fail(e),
    };
    let traced = merge(&phases, out);
    let plain = merge(&untraced, out);
    let requests = (traced.completed + plain.completed).max(1) as f64;

    let mut log = SpanLog::new(epoch);
    let mut ops: Vec<(u64, Op, u64)> = Vec::new();
    let mut errors = [0u64; 8];
    let (mut allocs, mut bytes) = (0u64, 0u64);
    for p in phases {
        for (i, e) in p.errors.iter().enumerate() {
            errors[i] += e;
        }
        allocs += p.allocs;
        bytes += p.response_bytes;
        ops.extend(p.ops);
        if let Some(l) = p.log {
            log.absorb(l);
        }
    }
    for ((_, name), count) in ERRORS.iter().zip(errors) {
        out.set(name, count as f64);
    }
    let traced_requests = traced.completed.max(1) as f64;
    out.set("alloc.client_per_request", allocs as f64 / traced_requests);
    out.set(
        "serve.frame.bytes_per_response",
        bytes as f64 / traced_requests,
    );
    let d = |f: fn(&ServerStats) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    let lookups = d(|s| s.cache_hits) + d(|s| s.cache_misses);
    out.set(
        "serve.store.cache_hit_ratio",
        if lookups == 0.0 {
            0.0
        } else {
            d(|s| s.cache_hits) / lookups
        },
    );
    out.set(
        "serve.store.scrubbed_per_request",
        d(|s| s.scrubbed_records) / requests,
    );
    out.set(
        "serve.store.bytes_per_user_byte",
        after.data_bytes as f64 / keys.user_bytes() as f64,
    );

    ops.sort_by_key(|o| o.0);
    ops.truncate(REPLAY_CAP);
    let layers = replay(keys, &ops, replay_dir, &mut log, out);
    let wait_us = mean(&ops.iter().map(|o| o.2 as f64 / 1e3).collect::<Vec<_>>());
    out.set("serve.server.residual_us", wait_us - layers);

    let times = trace::self_times(&log.spans);
    let mean_us = |name: &str| times.get(name).map_or(0.0, |t| t.mean_self_us());
    for (metric, span) in [
        ("bench.client.encode_us", "bench.client.encode"),
        ("bench.client.parse_us", "bench.client.parse"),
        ("bench.client.decode_us", "bench.client.decode"),
        ("serve.wait_us", "serve.wait"),
        ("serve.protocol.parse_us", "serve.protocol.parse"),
        ("serve.protocol.decode_us", "serve.protocol.decode"),
        ("serve.store.get_hit_us", "serve.store.get_hit"),
        ("serve.store.get_miss_us", "serve.store.get_miss"),
        ("serve.protocol.encode_us", "serve.protocol.encode"),
    ] {
        out.set(metric, mean_us(span));
    }
    out.set(
        "trace.overhead_ratio",
        p50(&traced.latency_ms) / p50(&plain.latency_ms) - 1.0,
    );
    out.note(format!("{} spans recorded", log.spans.len()));
    for (name, t) in &times {
        out.note(format!(
            "span {name}: {} spans, mean self {:.2} us",
            t.count,
            t.mean_self_us()
        ));
    }
    out.note(format!(
        "replayed {} requests: mean wait {wait_us:.2} us = layers {layers:.2} us + residual {:.2} us",
        ops.len(),
        wait_us - layers
    ));
    let path = opts.trace_path();
    if let Err(e) = trace::write_jsonl(&path, &log.spans) {
        out.fail(format!("writing {}: {e}", path.display()));
    }
}

/// Replays `ops` in order on this thread against the store copy, through
/// `Json::parse`, `Request::from_json`, `ProfileStore::get_outcome` and
/// `Response::to_json` + `Json::encode`, recording one span per
/// layer. Returns the mean time per request spent in those layers, µs.
fn replay(
    keys: &Keys,
    ops: &[(u64, Op, u64)],
    dir: &Path,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> f64 {
    let (mut store, _) = match ProfileStore::open_with_cache(dir, IDENTITY, CACHE_CAP) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("opening the store copy: {e}"));
            return 0.0;
        }
    };
    // Fill the read cache, as the warm-up fills the daemon's.
    for key in &keys.keys {
        let _ = store.get_outcome(*key);
    }
    let (mut layer_ns, mut allocs) = (0u64, 0u64);
    for (i, (_, op, _)) in ops.iter().enumerate() {
        let rid = (1u64 << 62) | i as u64;
        let body = keys.request(op).to_json().encode();
        let key = keys.keys[op.key];
        let mut timed = |name: &'static str, log: &mut SpanLog, f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            let (a, ()) = alloc::measure(f);
            let t1 = Instant::now();
            allocs += a.count;
            layer_ns += (t1 - t0).as_nanos() as u64;
            // Parented to this request's `replay` span once it closes.
            log.record(name, None, rid, t0, t1);
        };
        let start = Instant::now();
        let mut json = None;
        timed("serve.protocol.parse", log, &mut || {
            json = Json::parse(&body).ok();
        });
        let Some(json) = json else {
            out.fail(format!("replay {i}: request did not parse"));
            continue;
        };
        let mut request = None;
        timed("serve.protocol.decode", log, &mut || {
            request = Request::from_json(&json).ok();
        });
        if request.is_none() {
            out.fail(format!("replay {i}: request did not decode"));
            continue;
        }
        let hits = store.stats().cache_hits;
        let mut outcome = None;
        timed("serve.store.get", log, &mut || {
            outcome = store.get_outcome(key).ok();
        });
        // Name the get span by what the cache did.
        let last = log.spans.len() - 1;
        log.spans[last].name = if store.stats().cache_hits > hits {
            "serve.store.get_hit"
        } else {
            "serve.store.get_miss"
        };
        let response = match (op.kind, outcome) {
            (OpKind::Get, Some(GetOutcome::Hit { seq, profile })) => Response::Profile {
                key,
                seq,
                profile: (*profile).clone(),
                drift: None,
                stale: false,
                degraded: false,
            },
            (OpKind::Query, Some(GetOutcome::Hit { .. })) => Response::Tradeoff {
                matches: check::expected_matches(&keys.profiles[op.key], &op.query),
            },
            _ => {
                out.fail(format!("replay {i}: the store copy failed {:?}", op.kind));
                continue;
            }
        };
        let mut frame_len = 0;
        timed("serve.protocol.encode", log, &mut || {
            frame_len = response.to_json().encode().len();
        });
        let end = Instant::now();
        // The four layer spans hang under one replay root.
        let root = log.record("replay", None, rid, start, end);
        let n = log.spans.len();
        for s in &mut log.spans[n - 5..n - 1] {
            s.parent = Some(root);
        }
        std::hint::black_box(frame_len);
    }
    let n = ops.len().max(1) as f64;
    out.set("alloc.server_per_request", allocs as f64 / n);
    layer_ns as f64 / 1e3 / n
}
