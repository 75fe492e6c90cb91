//! The serving daemon: thread-per-core workers on one `rt::pool`
//! scope, fed by one acceptor task through a **bounded admission
//! queue**.
//!
//! Topology: a [`Server`] binds a Unix or TCP listener, opens the
//! [`ProfileStore`], and runs `workers + 1` long-lived tasks on one
//! `rt::pool` scope — task 0 polls the listener (non-blocking accept,
//! 1 ms poll) and every other task owns one connection at a time. A
//! connection accepted while the queue is at capacity gets a typed
//! [`ErrorCode::Overloaded`] response and is closed: overload is an
//! explicit, observable rejection, never an unbounded backlog.
//!
//! Shutdown has two flavors, mirroring the store's durability story:
//!
//! * **graceful** (a `shutdown` request, or [`RunningServer::shutdown`]):
//!   the acceptor stops, workers drain queued connections and close idle
//!   ones at the next frame boundary, then the store is flushed and
//!   **compacted** — a clean stop always leaves the canonical key-ordered
//!   on-disk layout, which is what makes soak-test stores byte-comparable
//!   across thread counts.
//! * **kill** ([`RunningServer::kill`]): a simulated crash. Workers drop
//!   connections at the next frame boundary and no compaction runs; every
//!   acked put is already durable (`sync_data` before the `ok` frame), so
//!   a reopen recovers all acknowledged writes by scan or index replay.
//!
//! Freshness (the `core::similarity` seam): each key may grow a
//! [`DriftScorer`] from outputs pushed via `push_outputs`. The first
//! pushes accumulate until two full windows establish a drift baseline;
//! later pushes are scored, and `get_profile` responses carry the
//! resulting [`DriftStatus`] so a stale profile is visible at read time.
//! A latched staleness signal enqueues the key in the **repair queue**
//! (listed by `stats`); a fresh `put_profile` for a queued key is the
//! repair — it dequeues the key and retires the exhausted monitor, so
//! drift → detect → flag → re-profile is one observable loop.
//!
//! Chaos (the `rt::fault` seam): an armed [`NetFaultPlan`] drops,
//! delays, garbles, or resets request frames that carry a client-stamped
//! rid — a pure function of the rid, so a chaos run is replayable
//! bit-for-bit. Disk faults live one layer down in the store; both are
//! inert unless armed (default: the `SMOKESCREEN_{DISK,NET}FAULT_*` env
//! knobs). A background **scrubber** task walks the store on a short
//! cadence, re-verifying checksums and repairing quarantined records,
//! and `get_profile` keeps answering while a quarantine is pending —
//! with the typed `degraded` flag set, degradation made intentional.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use smokescreen_camera::cost::{transmission_cost, EnergyModel};
use smokescreen_core::{DriftScorer, ProfilePoint, DEFAULT_DRIFT_THRESHOLD, DEFAULT_DRIFT_WINDOW};
use smokescreen_rt::fault::{DiskFaultPlan, NetFaultKind, NetFaultPlan};
use smokescreen_rt::json::Json;
use smokescreen_rt::pool::Pool;
use smokescreen_video::Resolution;

use crate::protocol::{
    frame_rid, read_frame, write_frame, DriftStatus, ErrorCode, FrameBuf, FrameError, Request,
    Response, ServerStats, REPAIR_QUEUE_LIST_CAP,
};
use crate::store::{
    CompactionReport, GetOutcome, ProfileStore, StoreKey, StoreReplay, DEFAULT_CACHE_CAP,
};

/// Server-side read timeout: the cadence at which an idle connection's
/// worker polls the shutdown flag (see [`FrameError::Idle`]).
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Server-side write timeout: a peer that stops reading cannot pin a
/// worker forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Acceptor poll interval while the listener has no pending connection.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// How long a worker parks on the admission queue before re-checking the
/// shutdown flags.
const QUEUE_WAIT: Duration = Duration::from_millis(20);

/// Default admission-queue capacity (connections waiting for a worker).
pub const DEFAULT_QUEUE_CAP: usize = 64;

/// Background scrubber cadence: how long the scrubber task sleeps
/// between incremental verify/repair steps.
const SCRUB_INTERVAL: Duration = Duration::from_millis(5);

/// Default live records verified per background scrub step.
pub const DEFAULT_SCRUB_BATCH: usize = 16;

/// Canonical costing window for `query_tradeoff` budgets: cost budgets
/// are judged on shipping this many captured frames (≈ half a minute at
/// 30 fps), so `max_bytes` / `max_energy_j` thresholds are comparable
/// across cameras and profiles.
pub const COST_WINDOW_FRAMES: usize = 1000;

/// Native capture resolution assumed when an intervention leaves
/// resolution untouched (the detector-native 608×608 used throughout the
/// eval pipeline).
pub const COST_NATIVE_RES: u32 = 608;

/// Where a server listens (and where clients connect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`"host:port"`; port 0 picks a free port, and the
    /// resolved address is reported by [`RunningServer::addr`]).
    Tcp(String),
}

impl ServeAddr {
    /// Connects a client to this address.
    pub fn connect(&self) -> io::Result<Connection> {
        let stream = match self {
            ServeAddr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            ServeAddr::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr.as_str())?),
        };
        Ok(Connection { stream })
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            ServeAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One transport stream, Unix or TCP, behind a common `Read`/`Write`.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Server-side setup for a freshly accepted stream: blocking mode
    /// (the listener is non-blocking and that can be inherited), a short
    /// read timeout for shutdown polling, and a bounded write timeout.
    fn configure_server(&self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(READ_TIMEOUT))?;
                s.set_write_timeout(Some(WRITE_TIMEOUT))
            }
            Stream::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(READ_TIMEOUT))?;
                s.set_write_timeout(Some(WRITE_TIMEOUT))
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A client connection: blocking reads (no timeout — the server answers
/// every frame), with framed request/response helpers on top.
pub struct Connection {
    stream: Stream,
}

impl Connection {
    /// Connects to a serving address. Alias for [`ServeAddr::connect`].
    pub fn open(addr: &ServeAddr) -> io::Result<Connection> {
        addr.connect()
    }

    /// Sends one request frame.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, request)
    }

    /// Receives one response frame.
    pub fn receive(&mut self) -> Result<Response, String> {
        match read_frame(&mut self.stream) {
            Ok(Some(json)) => Response::from_json(&json),
            Ok(None) => Err("server closed the connection".into()),
            Err(FrameError::Io(e)) => Err(format!("transport error: {e}")),
            Err(e) => Err(format!("frame error: {e:?}")),
        }
    }

    /// Round trip: send a request, wait for its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request).map_err(|e| e.to_string())?;
        self.receive()
    }

    /// Sets a client-side read deadline. With a deadline armed,
    /// `read_frame` on this connection reports [`FrameError::Idle`] when
    /// no response arrives in time — the hook fault-tolerant clients use
    /// to abandon a dropped response and retry. `None` restores blocking
    /// reads.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match &self.stream {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Connection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for Connection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the address; for TCP the returned address carries the
    /// resolved port (so `"127.0.0.1:0"` becomes connectable).
    fn bind(addr: &ServeAddr) -> io::Result<(Listener, ServeAddr)> {
        match addr {
            ServeAddr::Unix(path) => {
                // A previous unclean stop can leave a stale socket file;
                // binding over it is the expected recovery.
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Ok((
                    Listener::Unix(UnixListener::bind(path)?),
                    ServeAddr::Unix(path.clone()),
                ))
            }
            ServeAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec.as_str())?;
                let resolved = ServeAddr::Tcp(listener.local_addr()?.to_string());
                Ok((Listener::Tcp(listener), resolved))
            }
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub addr: ServeAddr,
    /// Profile-store directory.
    pub store_dir: PathBuf,
    /// Store identity string (a foreign identity quarantines wholesale).
    pub identity: String,
    /// Worker tasks; `0` means the pool's automatic width. The acceptor
    /// runs as one extra task on top of this count.
    pub threads: usize,
    /// Admission-queue capacity. `0` rejects every connection — useful
    /// for testing the overload path.
    pub queue_cap: usize,
    /// Drift-monitor window (outputs per scored window).
    pub drift_window: usize,
    /// Drift score threshold for flagging a window.
    pub drift_threshold: f64,
    /// Read-cache capacity for the store.
    pub cache_cap: usize,
    /// Disk-fault plan injected behind the store's I/O seams. Defaults
    /// to [`DiskFaultPlan::from_env`] (inert unless the
    /// `SMOKESCREEN_DISKFAULT_*` knobs arm it).
    pub disk_faults: Option<DiskFaultPlan>,
    /// Net-fault plan applied to rid-stamped request frames. Defaults to
    /// [`NetFaultPlan::from_env`] (`SMOKESCREEN_NETFAULT_*`).
    pub net_faults: Option<NetFaultPlan>,
    /// Live records verified per background scrub step (`0` disables the
    /// background scrubber; wire `scrub` requests still work).
    pub scrub_batch: usize,
    /// Self-crash after answering this many requests (the supervisor
    /// restart path exercised by `serve run --crash-after`): the kill
    /// flag trips exactly as [`RunningServer::kill`] would, so no
    /// compaction runs and acked writes must survive the reopen.
    pub crash_after: Option<u64>,
}

impl ServerConfig {
    /// A config with defaults: automatic thread count, queue capacity
    /// [`DEFAULT_QUEUE_CAP`], and the `core::similarity` drift defaults.
    pub fn new(addr: ServeAddr, store_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr,
            store_dir: store_dir.into(),
            identity: "smokescreen-serve".into(),
            threads: 0,
            queue_cap: DEFAULT_QUEUE_CAP,
            drift_window: DEFAULT_DRIFT_WINDOW,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            cache_cap: DEFAULT_CACHE_CAP,
            disk_faults: DiskFaultPlan::from_env(),
            net_faults: NetFaultPlan::from_env(),
            scrub_batch: DEFAULT_SCRUB_BATCH,
            crash_after: None,
        }
    }

    /// Sets the worker count (`0` = automatic).
    pub fn with_threads(mut self, threads: usize) -> ServerConfig {
        self.threads = threads;
        self
    }

    /// Sets the admission-queue capacity.
    pub fn with_queue_cap(mut self, cap: usize) -> ServerConfig {
        self.queue_cap = cap;
        self
    }

    /// Sets the store identity.
    pub fn with_identity(mut self, identity: impl Into<String>) -> ServerConfig {
        self.identity = identity.into();
        self
    }

    /// Sets the drift-monitor window and threshold.
    pub fn with_drift(mut self, window: usize, threshold: f64) -> ServerConfig {
        self.drift_window = window;
        self.drift_threshold = threshold;
        self
    }

    /// Sets the store read-cache capacity.
    pub fn with_cache_cap(mut self, cap: usize) -> ServerConfig {
        self.cache_cap = cap;
        self
    }

    /// Overrides the disk-fault plan (in-process chaos without env).
    pub fn with_disk_faults(mut self, plan: Option<DiskFaultPlan>) -> ServerConfig {
        self.disk_faults = plan;
        self
    }

    /// Overrides the net-fault plan (in-process chaos without env).
    pub fn with_net_faults(mut self, plan: Option<NetFaultPlan>) -> ServerConfig {
        self.net_faults = plan;
        self
    }

    /// Sets the background scrub batch size (`0` disables the task).
    pub fn with_scrub_batch(mut self, batch: usize) -> ServerConfig {
        self.scrub_batch = batch;
        self
    }

    /// Arms the self-crash counter.
    pub fn with_crash_after(mut self, requests: Option<u64>) -> ServerConfig {
        self.crash_after = requests;
        self
    }
}

/// What a finished server run accomplished.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// What opening the store recovered.
    pub replay: StoreReplay,
    /// Final counter snapshot.
    pub stats: ServerStats,
    /// The shutdown compaction (`None` after a kill).
    pub compaction: Option<CompactionReport>,
    /// Whether the stop was graceful (flush + compact) or a kill.
    pub graceful: bool,
}

/// Per-key freshness state: outputs accumulate until a baseline exists,
/// then a live monitor scores every subsequent window.
#[derive(Default)]
struct MonitorSlot {
    pending: Vec<f64>,
    monitor: Option<DriftScorer>,
}

impl MonitorSlot {
    /// Feeds outputs; returns the scored-window count (0 while the
    /// baseline is still accumulating).
    fn push(&mut self, outputs: &[f64], window: usize, threshold: f64) -> u64 {
        match &mut self.monitor {
            Some(monitor) => monitor.extend(outputs),
            None => {
                self.pending.extend_from_slice(outputs);
                if let Some(monitor) =
                    DriftScorer::from_outputs(&self.pending, window, threshold)
                {
                    self.pending = Vec::new();
                    self.monitor = Some(monitor);
                }
            }
        }
        self.monitor
            .as_ref()
            .map_or(0, |m| m.report().windows_scored as u64)
    }

    fn status(&self) -> Option<DriftStatus> {
        self.monitor.as_ref().map(|monitor| {
            let report = monitor.report();
            DriftStatus {
                score: report.max_score,
                windows_scored: report.windows_scored as u64,
                windows_flagged: report.windows_flagged as u64,
                stale: monitor.stale(),
                widen: monitor.widening_factor(),
            }
        })
    }

    fn stale(&self) -> bool {
        self.monitor.as_ref().is_some_and(DriftScorer::stale)
    }
}

/// Mutable server state: the store plus the per-key drift monitors. One
/// lock serializes both — the store is single-writer by contract, and
/// keeping monitors under the same lock makes `get_profile` freshness
/// reads consistent with concurrent `push_outputs`.
struct State {
    store: ProfileStore,
    monitors: BTreeMap<StoreKey, MonitorSlot>,
    /// Keys flagged for re-profiling: a latched drift staleness observed
    /// at serve or push time enqueues; a fresh put dequeues (the repair).
    repair_queue: BTreeSet<StoreKey>,
}

/// Everything the acceptor, workers, and [`RunningServer`] handle share.
struct Shared {
    state: Mutex<State>,
    queue: Mutex<VecDeque<Stream>>,
    queue_ready: Condvar,
    queue_cap: usize,
    /// Graceful drain requested.
    stop: AtomicBool,
    /// Simulated crash requested.
    kill: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    overload_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    deduped_puts: AtomicU64,
    net_faults: AtomicU64,
    degraded_answers: AtomicU64,
    drift_window: usize,
    drift_threshold: f64,
    net_plan: Option<NetFaultPlan>,
    scrub_batch: usize,
    crash_after: Option<u64>,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.kill.load(Ordering::SeqCst)
    }

    /// Assembles a [`ServerStats`] snapshot (takes the state lock).
    fn snapshot(&self) -> ServerStats {
        let state = lock(&self.state);
        let drift_monitors = state
            .monitors
            .values()
            .filter(|slot| slot.monitor.is_some())
            .count() as u64;
        let stale_monitors = state
            .monitors
            .values()
            .filter(|slot| slot.monitor.as_ref().is_some_and(|m| m.stale()))
            .count() as u64;
        let repair_queue: Vec<String> = state
            .repair_queue
            .iter()
            .take(REPAIR_QUEUE_LIST_CAP)
            .map(|k| format!("{:016x}:{:016x}", k.camera, k.grid))
            .collect();
        ServerStats {
            connections: self.connections.load(Ordering::SeqCst),
            requests: self.requests.load(Ordering::SeqCst),
            overload_rejections: self.overload_rejections.load(Ordering::SeqCst),
            protocol_errors: self.protocol_errors.load(Ordering::SeqCst),
            live_records: state.store.len() as u64,
            data_bytes: state.store.data_bytes(),
            drift_monitors,
            stale_monitors,
            deduped_puts: self.deduped_puts.load(Ordering::SeqCst),
            net_faults: self.net_faults.load(Ordering::SeqCst),
            quarantine_pending: state.store.quarantine_pending() as u64,
            degraded_answers: self.degraded_answers.load(Ordering::SeqCst),
            repair_queue_len: state.repair_queue.len() as u64,
            repair_queue,
            ..ServerStats::from_store(state.store.stats())
        }
    }
}

/// A configured server, ready to [`run`](Server::run) on the calling
/// thread or [`spawn`](Server::spawn) in the background.
pub struct Server {
    config: ServerConfig,
}

impl Server {
    /// Wraps a configuration.
    pub fn new(config: ServerConfig) -> Server {
        Server { config }
    }

    /// Binds, serves, and blocks until shutdown. Used by the `serve` bin.
    pub fn run(self) -> io::Result<ServerReport> {
        Boot::bind(self.config)?.serve()
    }

    /// Binds on the calling thread (so bind errors surface immediately
    /// and the resolved address is known), then serves on a background
    /// thread controlled through the returned handle.
    pub fn spawn(self) -> io::Result<RunningServer> {
        let boot = Boot::bind(self.config)?;
        let addr = boot.addr.clone();
        let shared = Arc::clone(&boot.shared);
        let handle = std::thread::Builder::new()
            .name("smokescreen-serve".into())
            .spawn(move || boot.serve())?;
        Ok(RunningServer {
            addr,
            shared,
            handle,
        })
    }
}

/// A server bound and ready: listener + opened store.
struct Boot {
    listener: Listener,
    addr: ServeAddr,
    shared: Arc<Shared>,
    replay: StoreReplay,
    config: ServerConfig,
}

impl Boot {
    fn bind(config: ServerConfig) -> io::Result<Boot> {
        let (store, replay) = ProfileStore::open_with_options(
            &config.store_dir,
            &config.identity,
            config.cache_cap,
            config.disk_faults,
        )?;
        let (listener, addr) = Listener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                store,
                monitors: BTreeMap::new(),
                repair_queue: BTreeSet::new(),
            }),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            queue_cap: config.queue_cap,
            stop: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            overload_rejections: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            deduped_puts: AtomicU64::new(0),
            net_faults: AtomicU64::new(0),
            degraded_answers: AtomicU64::new(0),
            drift_window: config.drift_window,
            drift_threshold: config.drift_threshold,
            net_plan: config.net_faults,
            scrub_batch: config.scrub_batch,
            crash_after: config.crash_after,
        });
        Ok(Boot {
            listener,
            addr,
            shared,
            replay,
            config,
        })
    }

    fn serve(self) -> io::Result<ServerReport> {
        let workers = if self.config.threads == 0 {
            Pool::new().threads()
        } else {
            self.config.threads
        }
        .max(1);
        // One task per worker plus the acceptor and the scrubber; with
        // task count equal to the pool width, guided chunking degenerates
        // to one task per participant, so every long-running loop gets
        // its own thread.
        let scrubbers = usize::from(self.config.scrub_batch > 0);
        let pool = Pool::with_threads(workers + 1 + scrubbers);
        let shared: &Shared = &self.shared;
        let listener = &self.listener;
        pool.scope(|scope| {
            scope.spawn(move || acceptor_loop(listener, shared));
            if scrubbers > 0 {
                scope.spawn(move || scrubber_loop(shared));
            }
            for _ in 0..workers {
                scope.spawn(move || worker_loop(shared));
            }
        });

        if let ServeAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
        let graceful = !shared.kill.load(Ordering::SeqCst);
        let compaction = if graceful {
            Some(lock(&shared.state).store.compact()?)
        } else {
            None
        };
        let stats = shared.snapshot();
        Ok(ServerReport {
            replay: self.replay,
            stats,
            compaction,
            graceful,
        })
    }
}

/// Handle to a [`Server::spawn`]ed daemon.
pub struct RunningServer {
    addr: ServeAddr,
    shared: Arc<Shared>,
    handle: std::thread::JoinHandle<io::Result<ServerReport>>,
}

impl RunningServer {
    /// The resolved listen address (for TCP, with the actual port).
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// Connects a client.
    pub fn connect(&self) -> io::Result<Connection> {
        self.addr.connect()
    }

    /// Requests a graceful shutdown over the protocol and waits for the
    /// final report (flush + compact included).
    pub fn shutdown(self) -> io::Result<ServerReport> {
        if let Ok(mut conn) = self.addr.connect() {
            // Tolerate errors: the server may already be draining.
            let _ = conn.request(&Request::Shutdown);
        } else {
            // No connection possible (e.g. already stopping): fall back
            // to the drain flag so join cannot hang.
            self.shared.stop.store(true, Ordering::SeqCst);
        }
        self.join()
    }

    /// Simulated crash: stop serving as fast as possible, skip the
    /// shutdown compaction. Acked writes are already durable.
    pub fn kill(self) -> io::Result<ServerReport> {
        self.shared.kill.store(true, Ordering::SeqCst);
        self.join()
    }

    /// Waits for the server to stop (however that happens).
    pub fn join(self) -> io::Result<ServerReport> {
        match self.handle.join() {
            Ok(report) => report,
            Err(_) => Err(io::Error::new(
                io::ErrorKind::Other,
                "server thread panicked",
            )),
        }
    }
}

/// Task 0: accept connections and feed the admission queue.
fn acceptor_loop(listener: &Listener, shared: &Shared) {
    while !shared.stopping() {
        match listener.accept() {
            Ok(stream) => {
                if stream.configure_server().is_err() {
                    continue;
                }
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let mut queue = lock(&shared.queue);
                if queue.len() >= shared.queue_cap {
                    drop(queue);
                    shared.overload_rejections.fetch_add(1, Ordering::SeqCst);
                    let mut stream = stream;
                    let _ = write_frame(
                        &mut stream,
                        &Response::error(ErrorCode::Overloaded, "admission queue full"),
                    );
                    // Dropping the stream closes the rejected connection.
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    shared.queue_ready.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            // Transient accept failures (e.g. EMFILE) back off and retry.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Wake parked workers so the drain check runs promptly.
    shared.queue_ready.notify_all();
}

/// Worker task: own one connection at a time until drained. Every frame
/// the worker reads and every reply it sends goes through its one reused
/// [`FrameBuf`].
fn worker_loop(shared: &Shared) {
    let mut frames = FrameBuf::default();
    loop {
        let next = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.stopping() {
                    break None;
                }
                let (guard, _) = shared
                    .queue_ready
                    .wait_timeout(queue, QUEUE_WAIT)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        match next {
            Some(stream) => serve_connection(stream, shared, &mut frames),
            None => return,
        }
    }
}

/// Background task: incremental scrub on a short cadence. Each step
/// takes the state lock briefly — repairs anything quarantined, then
/// verifies the next `scrub_batch` live records — so a full pass over
/// the store interleaves with serving instead of stalling it. Scrub I/O
/// errors are swallowed: the scrubber is best-effort and the backlog it
/// could not clear stays visible as `quarantine_pending`.
fn scrubber_loop(shared: &Shared) {
    while !shared.stopping() {
        std::thread::sleep(SCRUB_INTERVAL);
        let mut state = lock(&shared.state);
        let _ = state.store.scrub_step(shared.scrub_batch);
    }
}

/// Fair handoff: a worker must not camp on one connection while others
/// wait in the admission queue — deadline-based clients on the queued
/// connections would time out against a server that is merely busy, not
/// faulty. When the queue is non-empty the current stream goes to the
/// back and the worker picks up the next one; rotation only ever happens
/// at a frame boundary (after a response went out, or on an idle read
/// window), so no partially read frame is abandoned. Returns the stream
/// back when there is no contention.
fn rotate_if_contended(stream: Stream, shared: &Shared) -> Option<Stream> {
    let mut queue = lock(&shared.queue);
    if queue.is_empty() {
        return Some(stream);
    }
    queue.push_back(stream);
    drop(queue);
    shared.queue_ready.notify_one();
    None
}

/// Serves one connection until it closes, errors, rotates out behind a
/// contended admission queue, or the server drains.
fn serve_connection(mut stream: Stream, shared: &Shared, frames: &mut FrameBuf) {
    loop {
        if shared.kill.load(Ordering::SeqCst) {
            return;
        }
        match frames.read(&mut stream) {
            Ok(None) => return,
            Ok(Some(json)) => {
                // Net chaos fires only on rid-stamped frames: control
                // traffic (stats/shutdown) and rid-less clients stay
                // reliable, and the decision is a pure function of the
                // rid so a chaos run replays exactly.
                let fault = shared
                    .net_plan
                    .as_ref()
                    .and_then(|plan| frame_rid(&json).and_then(|rid| plan.fault_for(rid)));
                if let Some(kind) = fault {
                    shared.net_faults.fetch_add(1, Ordering::SeqCst);
                    match kind {
                        NetFaultKind::DropRequest => continue,
                        NetFaultKind::Reset => return,
                        NetFaultKind::DropResponse => {
                            // The request takes effect — an acked-side
                            // effect the client never hears about, the
                            // case idempotent retries exist for.
                            let _ = handle_frame(shared, &json);
                            shared.requests.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        NetFaultKind::PartialResponse { keep_frac } => {
                            let (response, _) = handle_frame(shared, &json);
                            let frame = frames.encode(&response);
                            let keep =
                                ((frame.len() as f64 * keep_frac) as usize).clamp(1, frame.len() - 1);
                            let _ = stream.write_all(&frame[..keep]);
                            let _ = stream.flush();
                            // A torn frame cannot be resynchronized.
                            return;
                        }
                        NetFaultKind::Delay { extra_ms } => {
                            // Simulated latency: bounded, real enough to
                            // exercise client read deadlines.
                            std::thread::sleep(Duration::from_millis(u64::from(extra_ms.min(50))));
                        }
                    }
                }
                let (response, close) = handle_frame(shared, &json);
                let sent = respond(&mut stream, shared, frames, &response);
                if close || sent.is_err() {
                    return;
                }
                match rotate_if_contended(stream, shared) {
                    Some(kept) => stream = kept,
                    None => return,
                }
            }
            Err(FrameError::Idle) => {
                if shared.stopping() {
                    return;
                }
                match rotate_if_contended(stream, shared) {
                    Some(kept) => stream = kept,
                    None => return,
                }
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => return,
            Err(FrameError::Oversized(claimed)) => {
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let _ = respond(
                    &mut stream,
                    shared,
                    frames,
                    &Response::error(
                        ErrorCode::Oversized,
                        format!("frame claims {claimed} bytes (max {})", crate::protocol::MAX_FRAME_LEN),
                    ),
                );
                // The stream position cannot be resynchronized after an
                // oversized claim; close.
                return;
            }
            Err(FrameError::Malformed(message)) => {
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                // Framing is intact, so the connection survives.
                if respond(
                    &mut stream,
                    shared,
                    frames,
                    &Response::error(ErrorCode::Malformed, message),
                )
                .is_err()
                {
                    return;
                }
            }
        }
    }
}

/// Writes a response frame, encoded in `reply`, and counts it. When
/// `crash_after` is armed, reaching the threshold trips the kill flag
/// *after* this answer went out — the crash happens between acks,
/// exactly the window a supervisor restart must not lose writes in.
fn respond(
    stream: &mut Stream,
    shared: &Shared,
    reply: &mut FrameBuf,
    response: &Response,
) -> io::Result<()> {
    reply.write(stream, response)?;
    let answered = shared.requests.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(limit) = shared.crash_after {
        if answered >= limit {
            shared.kill.store(true, Ordering::SeqCst);
        }
    }
    Ok(())
}

/// Dispatches one decoded frame. Returns the response and whether the
/// connection must close afterwards.
fn handle_frame(shared: &Shared, json: &Json) -> (Response, bool) {
    let request = match Request::from_json(json) {
        Ok(request) => request,
        Err(message) => return (Response::error(ErrorCode::BadRequest, message), false),
    };
    if shared.stopping() && !matches!(request, Request::Shutdown | Request::Stats) {
        return (
            Response::error(ErrorCode::ShuttingDown, "server is draining"),
            true,
        );
    }
    match request {
        Request::GetProfile { key } => {
            let mut state = lock(&shared.state);
            let (seq, profile) = match state.store.get_outcome(key) {
                Ok(GetOutcome::Hit { seq, profile }) => (seq, profile),
                Ok(GetOutcome::Miss) => return (not_found(key), false),
                Ok(GetOutcome::Quarantined) => {
                    shared.degraded_answers.fetch_add(1, Ordering::SeqCst);
                    let message = format!(
                        "record for camera {:016x} grid {:016x} is quarantined pending repair; retry",
                        key.camera, key.grid
                    );
                    return (Response::error(ErrorCode::Quarantined, message), false);
                }
                Err(e) => return (Response::error(ErrorCode::Store, e.to_string()), false),
            };
            let drift = state.monitors.get(&key).and_then(MonitorSlot::status);
            let stale = drift.as_ref().is_some_and(|d| d.stale);
            if stale {
                // Latched drift observed on a served key: flag for
                // re-profiling.
                state.repair_queue.insert(key);
            }
            // Degraded mode: part of the store is quarantined pending
            // repair. This answer is verified bytes, but the serving
            // context is impaired — say so, keep serving.
            let degraded = state.store.quarantine_pending() > 0;
            if degraded {
                shared.degraded_answers.fetch_add(1, Ordering::SeqCst);
            }
            // The `Arc` keeps the record alive: copy it after the other
            // worker and the scrubber can have the lock back.
            drop(state);
            let profile = (*profile).clone();
            (Response::Profile { key, seq, profile, drift, stale, degraded }, false)
        }
        Request::PutProfile {
            key,
            profile,
            expected_seq,
        } => {
            let mut state = lock(&shared.state);
            if let Some(expected) = expected_seq {
                let current = state.store.seq(key);
                if current >= expected {
                    // Retry of an already-applied put: the original
                    // append is durable, so ack it again without
                    // touching the store — the idempotence contract.
                    shared.deduped_puts.fetch_add(1, Ordering::SeqCst);
                    return (Response::Ok { seq: expected }, false);
                }
                if expected > current + 1 {
                    return (
                        Response::error(
                            ErrorCode::BadRequest,
                            format!(
                                "expected_seq {expected} skips ahead of current seq {current}"
                            ),
                        ),
                        false,
                    );
                }
            }
            match state.store.put(key, &profile) {
                Ok(seq) => {
                    if state.repair_queue.remove(&key) {
                        // A fresh profile is the repair for a drift
                        // flag: retire the exhausted monitor so scoring
                        // restarts against the new baseline.
                        state.monitors.remove(&key);
                    }
                    (Response::Ok { seq }, false)
                }
                Err(e) => (Response::error(ErrorCode::Store, e.to_string()), false),
            }
        }
        Request::QueryTradeoff {
            key,
            max_err,
            max_fraction,
            max_bytes,
            max_energy_j,
        } => {
            // `get_outcome`, not `get`: a quarantine-pending record must
            // answer with a retryable `quarantined` error, never collapse
            // into `not_found` — an acked key temporarily failing its
            // checksum is degraded, not absent. Only the lookup needs the
            // lock: the `Arc` keeps the record alive while the points are
            // filtered, costed and sorted after the other worker and the
            // scrubber can have it back.
            let outcome = lock(&shared.state).store.get_outcome(key);
            let profile = match outcome {
                Ok(GetOutcome::Hit { profile, .. }) => profile,
                Ok(GetOutcome::Miss) => return (not_found(key), false),
                Ok(GetOutcome::Quarantined) => {
                    let message = format!("record {key:?} is quarantined pending repair");
                    return (Response::error(ErrorCode::Quarantined, message), false);
                }
                Err(e) => return (Response::error(ErrorCode::Store, e.to_string()), false),
            };
            let energy = EnergyModel::default();
            let native = Resolution::square(COST_NATIVE_RES);
            let mut matches: Vec<ProfilePoint> = profile
                .points
                .iter()
                .filter(|p| {
                    if p.err_b > max_err || max_fraction.is_some_and(|mf| p.set.sample_fraction > mf) {
                        return false;
                    }
                    if max_bytes.is_none() && max_energy_j.is_none() {
                        return true;
                    }
                    // Cost budgets (`camera::cost`): judge each point on
                    // shipping the canonical window at its sampled rate.
                    let shipped = (p.set.sample_fraction * COST_WINDOW_FRAMES as f64)
                        .ceil()
                        .min(COST_WINDOW_FRAMES as f64) as usize;
                    let cost =
                        transmission_cost(&p.set, COST_WINDOW_FRAMES, shipped, native, &energy);
                    max_bytes.map_or(true, |mb| cost.bytes <= mb)
                        && max_energy_j.map_or(true, |mj| cost.energy_j <= mj)
                })
                .cloned()
                .collect();
            // Cheapest first, deterministically: ascending capture spend,
            // ties broken by the tighter bound.
            matches.sort_by(|a, b| {
                a.set
                    .sample_fraction
                    .total_cmp(&b.set.sample_fraction)
                    .then(a.err_b.total_cmp(&b.err_b))
            });
            (Response::Tradeoff { matches }, false)
        }
        Request::PushOutputs { key, outputs } => {
            let mut state = lock(&shared.state);
            let (window, threshold) = (shared.drift_window, shared.drift_threshold);
            let slot = state.monitors.entry(key).or_default();
            let scored = slot.push(&outputs, window, threshold);
            if slot.stale() {
                // The push that latches the flag enqueues immediately:
                // detection and repair scheduling are one step.
                state.repair_queue.insert(key);
            }
            (Response::Ok { seq: scored }, false)
        }
        Request::Scrub { budget } => {
            let mut state = lock(&shared.state);
            match state.store.scrub_step(budget as usize) {
                Ok(report) => (
                    Response::Scrub {
                        scanned: report.scanned as u64,
                        verified: report.verified as u64,
                        repaired: report.repaired as u64,
                        quarantined: report.quarantined as u64,
                        unrepaired: report.unrepaired as u64,
                        wrapped: report.wrapped,
                    },
                    false,
                ),
                Err(e) => (Response::error(ErrorCode::Store, e.to_string()), false),
            }
        }
        Request::Stats => (Response::Stats(Box::new(shared.snapshot())), false),
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            (Response::Bye, true)
        }
    }
}

fn not_found(key: StoreKey) -> Response {
    Response::error(
        ErrorCode::NotFound,
        format!(
            "no record for camera {:016x} grid {:016x}",
            key.camera, key.grid
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokescreen_core::{Aggregate, Profile};
    use smokescreen_degrade::InterventionSet;
    use smokescreen_video::ObjectClass;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smk-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sock(tag: &str) -> ServeAddr {
        let path = std::env::temp_dir().join(format!("smk-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        ServeAddr::Unix(path)
    }

    fn profile(points: usize) -> Profile {
        Profile {
            corpus: "night-street".into(),
            model: "oracle".into(),
            class: ObjectClass::Car,
            aggregate: Aggregate::Avg,
            delta: 0.05,
            points: (0..points)
                .map(|i| ProfilePoint {
                    set: InterventionSet::sampling(0.1 + 0.1 * i as f64),
                    y_approx: 1.0 + i as f64,
                    err_b: 0.30 - 0.05 * i as f64,
                    corrected: i % 2 == 0,
                    n: 100 + i,
                })
                .collect(),
        }
    }

    #[test]
    fn round_trip_over_unix_socket_then_graceful_shutdown_compacts() {
        let dir = tmp_dir("rt");
        let server = Server::new(
            ServerConfig::new(sock("rt"), &dir).with_threads(2),
        )
        .spawn()
        .unwrap();
        let mut conn = server.connect().unwrap();

        let key = StoreKey::new(7, 9);
        let p = profile(4);
        match conn
            .request(&Request::PutProfile {
                key,
                profile: p.clone(),
                expected_seq: None,
            })
            .unwrap()
        {
            Response::Ok { seq } => assert_eq!(seq, 1),
            other => panic!("expected ok, got {other:?}"),
        }
        match conn.request(&Request::GetProfile { key }).unwrap() {
            Response::Profile {
                key: k,
                seq,
                profile,
                drift,
                stale,
                degraded,
            } => {
                assert_eq!(k, key);
                assert_eq!(seq, 1);
                assert_eq!(profile, p);
                assert!(drift.is_none(), "no outputs pushed yet");
                assert!(!stale && !degraded, "clean store, fresh profile");
            }
            other => panic!("expected profile, got {other:?}"),
        }
        // Tradeoff query: err_b <= 0.25 excludes the first point; budget
        // 0.25 keeps fractions 0.1 and 0.2 only.
        match conn
            .request(&Request::QueryTradeoff {
                key,
                max_err: 0.25,
                max_fraction: Some(0.25),
                max_bytes: None,
                max_energy_j: None,
            })
            .unwrap()
        {
            Response::Tradeoff { matches } => {
                assert_eq!(matches.len(), 1);
                assert!((matches[0].set.sample_fraction - 0.2).abs() < 1e-12);
            }
            other => panic!("expected tradeoff, got {other:?}"),
        }
        match conn.request(&Request::GetProfile { key: StoreKey::new(1, 1) }) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::NotFound),
            other => panic!("expected not_found, got {other:?}"),
        }
        match conn.request(&Request::Stats).unwrap() {
            Response::Stats(stats) => {
                assert_eq!(stats.puts, 1);
                assert_eq!(stats.live_records, 1);
                assert!(stats.requests >= 4);
                assert_eq!(stats.connections, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        drop(conn);

        let report = server.shutdown().unwrap();
        assert!(report.graceful);
        let compaction = report.compaction.expect("graceful stop compacts");
        assert_eq!(compaction.live_records, 1);

        // Reopen: the compaction index makes the restart O(1).
        let (store, replay) = ProfileStore::open(&dir, "smokescreen-serve").unwrap();
        assert!(replay.index_used);
        assert_eq!(replay.quarantined_records, 0);
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_queue_rejects_with_typed_overload() {
        let dir = tmp_dir("ovl");
        let server = Server::new(
            ServerConfig::new(sock("ovl"), &dir)
                .with_threads(1)
                .with_queue_cap(0),
        )
        .spawn()
        .unwrap();
        let mut conn = server.connect().unwrap();
        match conn.receive() {
            Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
            other => panic!("expected overloaded, got {other:?}"),
        }
        let report = server.kill().unwrap();
        assert!(!report.graceful);
        assert!(report.compaction.is_none());
        assert_eq!(report.stats.overload_rejections, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_monitor_latches_staleness_visible_in_get_profile() {
        let dir = tmp_dir("drift");
        let server = Server::new(
            ServerConfig::new(sock("drift"), &dir)
                .with_threads(1)
                .with_drift(16, 4.0),
        )
        .spawn()
        .unwrap();
        let mut conn = server.connect().unwrap();

        let key = StoreKey::new(3, 4);
        conn.request(&Request::PutProfile {
            key,
            profile: profile(2),
            expected_seq: None,
        })
        .unwrap();

        // Clean baseline stream: mean 1.0, mild deterministic wobble.
        let clean: Vec<f64> = (0..64)
            .map(|i| 1.0 + 0.05 * ((i % 7) as f64 - 3.0))
            .collect();
        match conn
            .request(&Request::PushOutputs {
                key,
                outputs: clean.clone(),
            })
            .unwrap()
        {
            Response::Ok { .. } => {}
            other => panic!("expected ok, got {other:?}"),
        }
        match conn.request(&Request::GetProfile { key }).unwrap() {
            Response::Profile { drift, .. } => {
                let drift = drift.expect("monitor established after 4 windows");
                assert!(!drift.stale, "clean stream must not flag");
            }
            other => panic!("expected profile, got {other:?}"),
        }

        // Prevalence shift: mean jumps 3x — the monitor must latch.
        let shifted: Vec<f64> = clean.iter().map(|y| y * 3.0).collect();
        conn.request(&Request::PushOutputs {
            key,
            outputs: shifted,
        })
        .unwrap();
        match conn.request(&Request::GetProfile { key }).unwrap() {
            Response::Profile { drift, .. } => {
                let drift = drift.expect("monitor alive");
                assert!(drift.stale, "shifted stream must latch staleness");
                assert!(drift.windows_flagged > 0);
                assert!(drift.score > 4.0);
            }
            other => panic!("expected profile, got {other:?}"),
        }
        match conn.request(&Request::Stats).unwrap() {
            Response::Stats(stats) => {
                assert_eq!(stats.drift_monitors, 1);
                assert_eq!(stats.stale_monitors, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        drop(conn);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn idempotent_put_retries_never_double_apply() {
        let dir = tmp_dir("idem");
        let server = Server::new(ServerConfig::new(sock("idem"), &dir).with_threads(1))
            .spawn()
            .unwrap();
        let mut conn = server.connect().unwrap();
        let key = StoreKey::new(21, 34);
        let put = Request::PutProfile {
            key,
            profile: profile(2),
            expected_seq: Some(1),
        };
        match conn.request(&put).unwrap() {
            Response::Ok { seq } => assert_eq!(seq, 1),
            other => panic!("expected ok, got {other:?}"),
        }
        // The retry a client sends after a lost ack: same payload, same
        // expected_seq. It must be absorbed, not re-applied.
        for _ in 0..3 {
            match conn.request(&put).unwrap() {
                Response::Ok { seq } => assert_eq!(seq, 1, "retry acks the original seq"),
                other => panic!("expected ok, got {other:?}"),
            }
        }
        // Skipping ahead is a client bug, not a retry: typed rejection.
        match conn
            .request(&Request::PutProfile {
                key,
                profile: profile(2),
                expected_seq: Some(5),
            })
            .unwrap()
        {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected bad_request, got {other:?}"),
        }
        match conn.request(&Request::Stats).unwrap() {
            Response::Stats(stats) => {
                assert_eq!(stats.puts, 1, "one durable append despite 4 sends");
                assert_eq!(stats.deduped_puts, 3);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        drop(conn);
        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.live_records, 1);
        // The sequence counter never moved past the first apply.
        let (store, _) = ProfileStore::open(&dir, "smokescreen-serve").unwrap();
        assert_eq!(store.seq(key), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_key_degrades_serving_then_heals() {
        let dir = tmp_dir("degraded");
        let plan = DiskFaultPlan::new(0xD15C, 0.6);
        // Pick keys by their scheduled read fate: `victim` draws a
        // bit-flip, `clean` does not.
        let victim = (0..400u64)
            .map(|i| StoreKey::new(i, 70))
            .find(|k| plan.read_fault(crate::store::op_key(*k, 1, 0)).is_some())
            .expect("some key draws a read fault at 60%");
        let clean = (0..400u64)
            .map(|i| StoreKey::new(i, 71))
            .find(|k| plan.read_fault(crate::store::op_key(*k, 1, 0)).is_none())
            .expect("some key reads clean at 60%");
        // cache_cap 0 forces disk reads; scrub_batch 0 keeps the
        // background scrubber out so the degraded window is observable.
        let server = Server::new(
            ServerConfig::new(sock("degraded"), &dir)
                .with_threads(1)
                .with_cache_cap(0)
                .with_disk_faults(Some(plan))
                .with_scrub_batch(0),
        )
        .spawn()
        .unwrap();
        let mut conn = server.connect().unwrap();
        // Write faults fire at 60% too: retry with the idempotence guard
        // until acked — exactly what a fault-tolerant client does.
        for key in [victim, clean] {
            let put = Request::PutProfile {
                key,
                profile: profile(1),
                expected_seq: Some(1),
            };
            let mut acked = false;
            for _ in 0..16 {
                match conn.request(&put).unwrap() {
                    Response::Ok { seq } => {
                        assert_eq!(seq, 1);
                        acked = true;
                        break;
                    }
                    Response::Error { code, .. } => assert_eq!(code, ErrorCode::Store),
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert!(acked, "retried puts converge");
        }
        // First read of the victim trips the scheduled bit-flip.
        match conn.request(&Request::GetProfile { key: victim }).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Quarantined),
            other => panic!("expected quarantined, got {other:?}"),
        }
        // Degraded mode: the clean key still serves, flagged.
        match conn.request(&Request::GetProfile { key: clean }).unwrap() {
            Response::Profile { degraded, .. } => {
                assert!(degraded, "quarantine pending marks answers degraded");
            }
            other => panic!("expected profile, got {other:?}"),
        }
        // Retried victim reads heal within the scheduled bound (≤ 2 more
        // attempts), served by the get-path repair.
        let mut healed = false;
        for _ in 0..3 {
            match conn.request(&Request::GetProfile { key: victim }).unwrap() {
                Response::Profile { seq, .. } => {
                    assert_eq!(seq, 1);
                    healed = true;
                    break;
                }
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Quarantined),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(healed, "bit-flips heal on re-read");
        // Quarantine drained: serving leaves degraded mode.
        match conn.request(&Request::GetProfile { key: clean }).unwrap() {
            Response::Profile { degraded, .. } => assert!(!degraded),
            other => panic!("expected profile, got {other:?}"),
        }
        // A wire-driven scrub pass confirms a fully verified store.
        match conn.request(&Request::Scrub { budget: 100 }).unwrap() {
            Response::Scrub {
                wrapped,
                unrepaired,
                ..
            } => {
                assert!(wrapped);
                assert_eq!(unrepaired, 0);
            }
            other => panic!("expected scrub, got {other:?}"),
        }
        match conn.request(&Request::Stats).unwrap() {
            Response::Stats(stats) => {
                assert!(stats.disk_write_faults > 0 || stats.disk_read_faults > 0);
                assert_eq!(stats.quarantine_pending, 0);
                assert!(stats.repaired_records >= 1);
                assert!(stats.degraded_answers >= 2);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        drop(conn);
        let report = server.shutdown().unwrap();
        assert!(report.graceful);
        // Cold audit under clean I/O: both acked writes intact.
        let (mut store, replay) = ProfileStore::open(&dir, "smokescreen-serve").unwrap();
        assert_eq!(replay.quarantined_records, 0);
        for key in [victim, clean] {
            assert_eq!(*store.get(key).unwrap().unwrap().1, profile(1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_profile_enters_repair_queue_and_reput_repairs() {
        let dir = tmp_dir("repairq");
        let server = Server::new(
            ServerConfig::new(sock("repairq"), &dir)
                .with_threads(1)
                .with_drift(16, 4.0),
        )
        .spawn()
        .unwrap();
        let mut conn = server.connect().unwrap();
        let key = StoreKey::new(42, 43);
        conn.request(&Request::PutProfile {
            key,
            profile: profile(2),
            expected_seq: None,
        })
        .unwrap();
        let clean: Vec<f64> = (0..64)
            .map(|i| 1.0 + 0.05 * ((i % 7) as f64 - 3.0))
            .collect();
        conn.request(&Request::PushOutputs {
            key,
            outputs: clean.clone(),
        })
        .unwrap();
        let shifted: Vec<f64> = clean.iter().map(|y| y * 3.0).collect();
        conn.request(&Request::PushOutputs {
            key,
            outputs: shifted,
        })
        .unwrap();
        // The latched signal marks the served profile stale with a
        // widened bound, and the key is queued for re-profiling.
        match conn.request(&Request::GetProfile { key }).unwrap() {
            Response::Profile { stale, drift, .. } => {
                assert!(stale, "latched drift marks the answer stale");
                let drift = drift.expect("monitor alive");
                assert!(
                    drift.widen > 1.0,
                    "stale answers carry a widening factor, got {}",
                    drift.widen
                );
            }
            other => panic!("expected profile, got {other:?}"),
        }
        match conn.request(&Request::Stats).unwrap() {
            Response::Stats(stats) => {
                assert_eq!(stats.repair_queue_len, 1);
                assert_eq!(
                    stats.repair_queue,
                    vec![format!("{:016x}:{:016x}", key.camera, key.grid)]
                );
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Re-profiling the key is the repair: dequeued, monitor retired,
        // answers fresh again.
        conn.request(&Request::PutProfile {
            key,
            profile: profile(3),
            expected_seq: None,
        })
        .unwrap();
        match conn.request(&Request::GetProfile { key }).unwrap() {
            Response::Profile { stale, drift, .. } => {
                assert!(!stale, "fresh profile serves fresh");
                assert!(drift.is_none(), "exhausted monitor retired");
            }
            other => panic!("expected profile, got {other:?}"),
        }
        match conn.request(&Request::Stats).unwrap() {
            Response::Stats(stats) => {
                assert_eq!(stats.repair_queue_len, 0);
                assert!(stats.repair_queue.is_empty());
            }
            other => panic!("expected stats, got {other:?}"),
        }
        drop(conn);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tradeoff_cost_budgets_filter_for_every_aggregate() {
        use smokescreen_core::Aggregate;
        let aggregates = [
            Aggregate::Avg,
            Aggregate::Sum,
            Aggregate::Count { at_least: 1.0 },
            Aggregate::Max { r: 0.99 },
            Aggregate::Min { r: 0.01 },
            Aggregate::Quantile { r: 0.5 },
            Aggregate::Var,
        ];
        let dir = tmp_dir("cost");
        let server = Server::new(ServerConfig::new(sock("cost"), &dir).with_threads(1))
            .spawn()
            .unwrap();
        let mut conn = server.connect().unwrap();
        let native = Resolution::square(COST_NATIVE_RES);
        let energy = EnergyModel::default();
        // Budget pinned to the true cost of the fraction-0.2 point: the
        // filter must keep exactly the points at or under that spend.
        let cost_at = |fraction: f64| {
            let shipped = (fraction * COST_WINDOW_FRAMES as f64).ceil() as usize;
            transmission_cost(
                &smokescreen_degrade::InterventionSet::sampling(fraction),
                COST_WINDOW_FRAMES,
                shipped,
                native,
                &energy,
            )
        };
        for (i, aggregate) in aggregates.into_iter().enumerate() {
            let key = StoreKey::new(100 + i as u64, 9);
            let mut p = profile(4); // fractions 0.1..0.4, all within max_err below
            p.aggregate = aggregate;
            // Budgets pinned to the *stored* fractions (0.1 + 0.1·i is
            // not exactly 0.2 in floating point).
            let fractions: Vec<f64> =
                p.points.iter().map(|pt| pt.set.sample_fraction).collect();
            conn.request(&Request::PutProfile {
                key,
                profile: p,
                expected_seq: None,
            })
            .unwrap();
            let budget_bytes = cost_at(fractions[1]).bytes;
            match conn
                .request(&Request::QueryTradeoff {
                    key,
                    max_err: 1.0,
                    max_fraction: None,
                    max_bytes: Some(budget_bytes),
                    max_energy_j: None,
                })
                .unwrap()
            {
                Response::Tradeoff { matches } => {
                    assert_eq!(matches.len(), 2, "{aggregate:?}: byte budget keeps 0.1, 0.2");
                    assert!(matches
                        .iter()
                        .all(|m| cost_at(m.set.sample_fraction).bytes <= budget_bytes));
                    assert!(
                        matches[0].set.sample_fraction < matches[1].set.sample_fraction,
                        "cheapest first"
                    );
                }
                other => panic!("expected tradeoff, got {other:?}"),
            }
            let budget_j = cost_at(fractions[2]).energy_j;
            match conn
                .request(&Request::QueryTradeoff {
                    key,
                    max_err: 1.0,
                    max_fraction: None,
                    max_bytes: None,
                    max_energy_j: Some(budget_j),
                })
                .unwrap()
            {
                Response::Tradeoff { matches } => {
                    assert_eq!(
                        matches.len(),
                        3,
                        "{aggregate:?}: energy budget keeps 0.1..0.3"
                    );
                    assert!(matches
                        .iter()
                        .all(|m| cost_at(m.set.sample_fraction).energy_j <= budget_j + 1e-12));
                }
                other => panic!("expected tradeoff, got {other:?}"),
            }
        }
        drop(conn);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_after_trips_kill_between_acks() {
        let dir = tmp_dir("crashafter");
        let server = Server::new(
            ServerConfig::new(sock("crashafter"), &dir)
                .with_threads(1)
                .with_crash_after(Some(2)),
        )
        .spawn()
        .unwrap();
        let mut conn = server.connect().unwrap();
        let key = StoreKey::new(1, 2);
        conn.request(&Request::PutProfile {
            key,
            profile: profile(1),
            expected_seq: Some(1),
        })
        .unwrap();
        // The second answered request trips the kill: the ack goes out,
        // then the server dies as a crash (no compaction).
        match conn.request(&Request::GetProfile { key }).unwrap() {
            Response::Profile { seq, .. } => assert_eq!(seq, 1),
            other => panic!("unexpected {other:?}"),
        }
        let report = server.join().unwrap();
        assert!(!report.graceful, "crash_after is a kill, not a drain");
        assert!(report.compaction.is_none());
        // The acked write survives the crash: supervisor restarts lose
        // nothing.
        let (mut store, replay) = ProfileStore::open(&dir, "smokescreen-serve").unwrap();
        assert_eq!(replay.quarantined_records, 0);
        assert_eq!(store.get(key).unwrap().unwrap().0, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_transport_serves_and_survives_kill_reopen() {
        let dir = tmp_dir("tcp");
        let server = Server::new(
            ServerConfig::new(ServeAddr::Tcp("127.0.0.1:0".into()), &dir).with_threads(2),
        )
        .spawn()
        .unwrap();
        assert!(matches!(server.addr(), ServeAddr::Tcp(a) if !a.ends_with(":0")));
        let mut conn = server.connect().unwrap();
        let key = StoreKey::new(11, 22);
        let p = profile(3);
        match conn
            .request(&Request::PutProfile {
                key,
                profile: p.clone(),
                expected_seq: None,
            })
            .unwrap()
        {
            Response::Ok { seq } => assert_eq!(seq, 1),
            other => panic!("expected ok, got {other:?}"),
        }
        drop(conn);

        // Crash without compaction: the acked put must survive.
        let report = server.kill().unwrap();
        assert!(!report.graceful);
        let (mut store, replay) = ProfileStore::open(&dir, "smokescreen-serve").unwrap();
        assert_eq!(replay.quarantined_records, 0, "no acked write lost");
        let (seq, got) = store.get(key).unwrap().expect("record survives the kill");
        assert_eq!(seq, 1);
        assert_eq!(*got, p);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
