//! Length-prefixed `rt::json` wire protocol.
//!
//! A frame is a `u32` little-endian byte length followed by exactly that
//! many bytes of UTF-8 JSON. The protocol inherits `rt::json`'s defensive
//! posture end to end: frames over [`MAX_FRAME_LEN`] are rejected before a
//! byte of the body is buffered, parse depth is capped by the parser
//! itself ([`smokescreen_rt::json::MAX_PARSE_DEPTH`]), and every decode
//! failure maps to a **typed error response** — a peer sending garbage
//! gets [`ErrorCode::Malformed`] back, never a hang, never a panic, and
//! (for recoverable damage) not even a dropped connection.
//!
//! Camera and grid identifiers are 64-bit hashes. JSON numbers are IEEE
//! doubles and silently lose integer precision above 2^53, so ids travel
//! as fixed-width 16-digit hex **strings** (`"00c5a2..."`), keeping keys
//! exact on the wire.

use std::io::{self, Read, Write};

use smokescreen_core::{Profile, ProfilePoint};
use smokescreen_rt::json::{FromJson, Json, ToJson};

use crate::store::{StoreKey, StoreStats};

/// Largest accepted frame body (1 MiB). A length prefix beyond this is
/// answered with [`ErrorCode::Oversized`] and the connection is closed —
/// the stream position after an oversized claim cannot be resynchronized.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// How many consecutive read timeouts mid-frame are tolerated before the
/// peer is declared stalled and the frame torn. At the server's 50 ms
/// read timeout this is ~20 s — generous for a live peer, bounded for a
/// dead one (a worker can never hang forever inside one frame).
const STALL_RETRY_BUDGET: usize = 400;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// No bytes arrived within one read-timeout window at a frame
    /// boundary. Not damage: the server uses this to poll its shutdown
    /// flag between requests on an idle connection.
    Idle,
    /// The stream ended mid-frame (or a peer stalled past the retry
    /// budget). The connection is unusable.
    Truncated,
    /// The length prefix claims more than [`MAX_FRAME_LEN`] bytes.
    Oversized(usize),
    /// The body was not valid UTF-8 JSON (including depth bombs, which
    /// the parser rejects at `MAX_PARSE_DEPTH`). The stream itself is
    /// still framed correctly, so the connection can continue.
    Malformed(String),
    /// Transport error.
    Io(io::Error),
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream at a frame
/// boundary; see [`FrameError`] for every other outcome.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, FrameError> {
    let mut len_buf = [0u8; 4];
    match fill(r, &mut len_buf, true)? {
        Fill::CleanEof => return Ok(None),
        Fill::Idle => return Err(FrameError::Idle),
        Fill::Full => {}
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    match fill(r, &mut body, false)? {
        Fill::Full => {}
        Fill::CleanEof | Fill::Idle => unreachable!("fill only reports these at start"),
    }
    let text = std::str::from_utf8(&body)
        .map_err(|_| FrameError::Malformed("frame body is not UTF-8".into()))?;
    match Json::parse(text) {
        Ok(json) => Ok(Some(json)),
        Err(e) => Err(FrameError::Malformed(e.to_string())),
    }
}

/// Writes one frame (length prefix + encoded JSON) and flushes.
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    let body = json.encode();
    debug_assert!(body.len() <= MAX_FRAME_LEN, "server produced oversized frame");
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body.as_bytes());
    w.write_all(&buf)?;
    w.flush()
}

enum Fill {
    Full,
    /// EOF before the first byte (only when `boundary`).
    CleanEof,
    /// Timeout before the first byte (only when `boundary`).
    Idle,
}

/// Fills `buf` completely, tolerating short reads. At a frame `boundary`,
/// EOF/timeout before any byte is a clean outcome; once the first byte of
/// a frame has arrived, the peer owes the rest — EOF is truncation and
/// stalls are bounded by [`STALL_RETRY_BUDGET`].
fn fill(r: &mut impl Read, buf: &mut [u8], boundary: bool) -> Result<Fill, FrameError> {
    let mut filled = 0usize;
    let mut stalls = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if boundary && filled == 0 {
                    Ok(Fill::CleanEof)
                } else {
                    Err(FrameError::Truncated)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if boundary && filled == 0 {
                    return Ok(Fill::Idle);
                }
                stalls += 1;
                if stalls > STALL_RETRY_BUDGET {
                    return Err(FrameError::Truncated);
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Fill::Full)
}

/// Typed error taxonomy carried in `error` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame body was not parseable JSON or not a valid request.
    Malformed,
    /// The frame length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized,
    /// The request was well-formed JSON but semantically invalid
    /// (unknown op, bad predicate, out-of-range field).
    BadRequest,
    /// No record under the requested key.
    NotFound,
    /// The admission queue was full; retry later.
    Overloaded,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The store failed the operation (I/O error).
    Store,
    /// The record exists but is quarantined pending repair: the bytes on
    /// disk failed their checksum and the scrubber has not healed them
    /// yet. Retryable — repair usually lands within a scrub cadence.
    Quarantined,
}

impl ErrorCode {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Store => "store",
            ErrorCode::Quarantined => "quarantined",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Result<ErrorCode, String> {
        match s {
            "malformed" => Ok(ErrorCode::Malformed),
            "oversized" => Ok(ErrorCode::Oversized),
            "bad_request" => Ok(ErrorCode::BadRequest),
            "not_found" => Ok(ErrorCode::NotFound),
            "overloaded" => Ok(ErrorCode::Overloaded),
            "shutting_down" => Ok(ErrorCode::ShuttingDown),
            "store" => Ok(ErrorCode::Store),
            "quarantined" => Ok(ErrorCode::Quarantined),
            other => Err(format!("unknown error code {other:?}")),
        }
    }
}

/// Profile-freshness metadata served alongside profiles (the
/// `core::streaming` seam: drift scored by `core::similarity` over
/// outputs pushed via `push_outputs`).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftStatus {
    /// Largest drift score observed across scored windows.
    pub score: f64,
    /// Windows scored so far.
    pub windows_scored: u64,
    /// Windows whose score crossed the drift threshold.
    pub windows_flagged: u64,
    /// Latched staleness flag: once a window crosses the threshold the
    /// profile is stale until re-profiled.
    pub stale: bool,
    /// Multiplicative staleness widening factor (`>= 1.0`): how much a
    /// consumer should inflate the profile's error bounds while the
    /// latch is set. `1.0` while fresh; tracks the worst scored window
    /// relative to the drift threshold once stale.
    pub widen: f64,
}

impl ToJson for DriftStatus {
    fn to_json(&self) -> Json {
        Json::obj([
            ("score", self.score.to_json()),
            ("windows_scored", (self.windows_scored as usize).to_json()),
            ("windows_flagged", (self.windows_flagged as usize).to_json()),
            ("stale", self.stale.to_json()),
            ("widen", self.widen.to_json()),
        ])
    }
}

impl FromJson for DriftStatus {
    fn from_json(value: &Json) -> smokescreen_rt::json::Result<Self> {
        Ok(DriftStatus {
            score: f64::from_json(value.get("score")?)?,
            windows_scored: value.get("windows_scored")?.as_u64()?,
            windows_flagged: value.get("windows_flagged")?.as_u64()?,
            stale: bool::from_json(value.get("stale")?)?,
            widen: f64::from_json(value.get("widen")?)?,
        })
    }
}

/// Stamps a deterministic request id onto an encoded request frame.
///
/// The rid is the retry-idempotence handle: a client derives it as a pure
/// function of `(client, op, attempt)` so every resend is distinguishable
/// on the wire, and the server's [`NetFaultPlan`] keys its drop / delay /
/// partial / reset decisions on it — making net chaos a pure function of
/// the request stream rather than of timing. Requests without a rid
/// (control frames like `stats` / `shutdown`) are never net-faulted.
///
/// [`NetFaultPlan`]: smokescreen_rt::fault::NetFaultPlan
pub fn stamp_rid(request: &Json, rid: u64) -> Json {
    let mut obj = match request {
        Json::Obj(map) => map.clone(),
        _ => unreachable!("requests encode as objects"),
    };
    obj.insert("rid".into(), Json::Str(format!("{rid:016x}")));
    Json::Obj(obj)
}

/// Extracts the request id stamped by [`stamp_rid`], if any. Malformed
/// rids read as absent: the frame still gets a normal (fault-free)
/// answer, which is the conservative choice for a field only the chaos
/// plan consumes.
pub fn frame_rid(request: &Json) -> Option<u64> {
    let s = request.get_opt("rid")?.as_str().ok()?;
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Declares [`ServerStats`] from one list of counters, so each counter is
/// named once: the macro derives the struct field, its `stats` wire key
/// (the field name), and — for the counters the store keeps — the copy
/// out of [`StoreStats`].
macro_rules! server_stats {
    (
        server { $($(#[$server_doc:meta])* $server:ident,)* }
        store { $($(#[$store_doc:meta])* $store:ident,)* }
    ) => {
        /// Flat counter snapshot served by `STATS`.
        #[derive(Debug, Default, Clone, PartialEq)]
        pub struct ServerStats {
            $($(#[$server_doc])* pub $server: u64,)*
            $($(#[$store_doc])* pub $store: u64,)*
            /// The repair queue itself: `"camera:grid"` hex pairs, sorted,
            /// truncated to [`REPAIR_QUEUE_LIST_CAP`] entries (`repair_queue_len`
            /// is the true length).
            pub repair_queue: Vec<String>,
        }

        impl ServerStats {
            /// A snapshot holding the store's own counters, every
            /// server-side counter zero.
            pub(crate) fn from_store(stats: &StoreStats) -> Self {
                ServerStats {
                    $($store: stats.$store,)*
                    ..ServerStats::default()
                }
            }
        }

        impl ToJson for ServerStats {
            fn to_json(&self) -> Json {
                Json::obj([
                    $((stringify!($server), (self.$server as usize).to_json()),)*
                    $((stringify!($store), (self.$store as usize).to_json()),)*
                    ("repair_queue", self.repair_queue.to_json()),
                ])
            }
        }

        impl FromJson for ServerStats {
            fn from_json(value: &Json) -> smokescreen_rt::json::Result<Self> {
                Ok(ServerStats {
                    $($server: value.get(stringify!($server))?.as_u64()?,)*
                    $($store: value.get(stringify!($store))?.as_u64()?,)*
                    repair_queue: FromJson::from_json(value.get("repair_queue")?)?,
                })
            }
        }
    };
}

server_stats! {
    server {
        /// Connections accepted.
        connections,
        /// Requests answered (any response type).
        requests,
        /// Connections rejected by admission control.
        overload_rejections,
        /// Frames answered with `malformed`/`oversized` errors.
        protocol_errors,
        /// Live records in the store.
        live_records,
        /// Data segment bytes.
        data_bytes,
        /// Per-key drift monitors currently alive.
        drift_monitors,
        /// Monitors whose staleness flag is latched.
        stale_monitors,
        /// Retried puts absorbed by the idempotence guard (acked without
        /// re-applying).
        deduped_puts,
        /// Injected net faults fired across all connections.
        net_faults,
        /// Records quarantined right now, awaiting repair.
        quarantine_pending,
        /// Answers served while quarantined/degraded: gets refused with
        /// `quarantined` plus profiles served with the `degraded` flag set.
        degraded_answers,
        /// Keys currently enqueued for re-profiling (drift latched or
        /// quarantine observed).
        repair_queue_len,
    }
    store {
        /// Durable puts.
        puts,
        /// Gets (hits + misses + not-found).
        gets,
        /// Gets served from the read cache.
        cache_hits,
        /// Gets that went to disk.
        cache_misses,
        /// Records quarantined since open (lazy reads + compaction).
        quarantined_records,
        /// Compactions performed.
        compactions,
        /// Injected disk write faults observed at the append seam.
        disk_write_faults,
        /// Injected disk read faults observed at the payload-read seam.
        disk_read_faults,
        /// Torn data-segment tails repaired by truncation before an append.
        tail_repairs,
        /// Quarantined records healed (re-put, direct re-read, or log
        /// fallback).
        repaired_records,
        /// Live records whose checksums the scrubber has verified.
        scrubbed_records,
        /// Full scrub passes completed over the live map.
        scrub_passes,
    }
}

/// Most repair-queue keys listed inline in a `stats` response.
pub const REPAIR_QUEUE_LIST_CAP: usize = 32;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Fetch the profile (and freshness metadata) for one key.
    GetProfile {
        /// Store key.
        key: StoreKey,
    },
    /// Durably store a profile; the `ok` response acks the sync.
    PutProfile {
        /// Store key.
        key: StoreKey,
        /// The profile to store.
        profile: Profile,
        /// Idempotence guard for retried puts. When set, the put only
        /// applies if it would land exactly at this per-key sequence
        /// number; a retry of an already-applied put (store seq `>=`
        /// expected) is acked with the expected seq **without**
        /// re-applying, so a re-sent `put_profile` can never
        /// double-apply. `None` keeps the PR 9 last-writer-wins
        /// semantics.
        expected_seq: Option<u64>,
    },
    /// Tradeoff query: profiled points satisfying the error-bound /
    /// degradation-budget predicates, cheapest first.
    QueryTradeoff {
        /// Store key.
        key: StoreKey,
        /// Upper bound on acceptable `err_b`.
        max_err: f64,
        /// Optional upper bound on the sample fraction (a degradation
        /// budget: "spend at most this much capture").
        max_fraction: Option<f64>,
        /// Optional per-window transmission byte budget (`camera::cost`):
        /// points whose shipped bytes over the canonical costing window
        /// exceed this are filtered out.
        max_bytes: Option<u64>,
        /// Optional per-window capture+encode+transmit energy budget in
        /// joules (`camera::cost`).
        max_energy_j: Option<f64>,
    },
    /// Run one bounded scrub step over the store (admin/chaos surface:
    /// lets a client drive the quarantine to empty deterministically
    /// instead of waiting on the background cadence).
    Scrub {
        /// Max live records to verify this step.
        budget: u64,
    },
    /// Feed fresh model outputs into the key's drift monitor.
    PushOutputs {
        /// Store key.
        key: StoreKey,
        /// Model outputs in stream order.
        outputs: Vec<f64>,
    },
    /// Counter snapshot.
    Stats,
    /// Graceful shutdown: flush + compact, then `bye`.
    Shutdown,
}

fn key_to_json(key: StoreKey) -> [(&'static str, Json); 2] {
    [
        ("camera", Json::Str(format!("{:016x}", key.camera))),
        ("grid", Json::Str(format!("{:016x}", key.grid))),
    ]
}

fn key_from_json(value: &Json) -> Result<StoreKey, String> {
    let parse = |field: &str| -> Result<u64, String> {
        let s = value
            .get(field)
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| e.to_string())?;
        if s.len() != 16 {
            return Err(format!("{field} id must be 16 hex digits, got {s:?}"));
        }
        u64::from_str_radix(&s, 16).map_err(|_| format!("{field} id {s:?} is not hex"))
    };
    Ok(StoreKey::new(parse("camera")?, parse("grid")?))
}

impl Request {
    /// Encodes the request for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            Request::GetProfile { key } => {
                let [c, g] = key_to_json(*key);
                Json::obj([("op", Json::Str("get_profile".into())), c, g])
            }
            Request::PutProfile {
                key,
                profile,
                expected_seq,
            } => {
                let [c, g] = key_to_json(*key);
                Json::obj([
                    ("op", Json::Str("put_profile".into())),
                    c,
                    g,
                    ("profile", ToJson::to_json(profile)),
                    (
                        "expected_seq",
                        match expected_seq {
                            Some(seq) => (*seq as usize).to_json(),
                            None => Json::Null,
                        },
                    ),
                ])
            }
            Request::QueryTradeoff {
                key,
                max_err,
                max_fraction,
                max_bytes,
                max_energy_j,
            } => {
                let [c, g] = key_to_json(*key);
                Json::obj([
                    ("op", Json::Str("query_tradeoff".into())),
                    c,
                    g,
                    ("max_err", max_err.to_json()),
                    ("max_fraction", max_fraction.to_json()),
                    (
                        "max_bytes",
                        match max_bytes {
                            Some(b) => (*b as usize).to_json(),
                            None => Json::Null,
                        },
                    ),
                    ("max_energy_j", max_energy_j.to_json()),
                ])
            }
            Request::Scrub { budget } => Json::obj([
                ("op", Json::Str("scrub".into())),
                ("budget", (*budget as usize).to_json()),
            ]),
            Request::PushOutputs { key, outputs } => {
                let [c, g] = key_to_json(*key);
                Json::obj([
                    ("op", Json::Str("push_outputs".into())),
                    c,
                    g,
                    ("outputs", outputs.to_json()),
                ])
            }
            Request::Stats => Json::obj([("op", Json::Str("stats".into()))]),
            Request::Shutdown => Json::obj([("op", Json::Str("shutdown".into()))]),
        }
    }

    /// Decodes a request, reporting *why* it is invalid (the message is
    /// echoed in the `malformed`/`bad_request` error response).
    pub fn from_json(value: &Json) -> Result<Request, String> {
        let op = value
            .get("op")
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| e.to_string())?;
        match op.as_str() {
            "get_profile" => Ok(Request::GetProfile {
                key: key_from_json(value)?,
            }),
            "put_profile" => {
                let key = key_from_json(value)?;
                let profile_json = value.get("profile").map_err(|e| e.to_string())?;
                let profile =
                    <Profile as FromJson>::from_json(profile_json).map_err(|e| e.to_string())?;
                let expected_seq = match value.get_opt("expected_seq") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let seq = v.as_u64().map_err(|e| e.to_string())?;
                        if seq == 0 {
                            return Err("expected_seq 0 is reserved (seqs start at 1)".into());
                        }
                        Some(seq)
                    }
                };
                Ok(Request::PutProfile {
                    key,
                    profile,
                    expected_seq,
                })
            }
            "query_tradeoff" => {
                let key = key_from_json(value)?;
                let max_err = value
                    .get("max_err")
                    .and_then(|v| v.as_f64())
                    .map_err(|e| e.to_string())?;
                if !max_err.is_finite() || max_err < 0.0 {
                    return Err(format!("max_err {max_err} is not a valid bound"));
                }
                let max_fraction = match value.get_opt("max_fraction") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let f = v.as_f64().map_err(|e| e.to_string())?;
                        if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                            return Err(format!("max_fraction {f} is not in [0, 1]"));
                        }
                        Some(f)
                    }
                };
                let max_bytes = match value.get_opt("max_bytes") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_u64().map_err(|e| e.to_string())?),
                };
                let max_energy_j = match value.get_opt("max_energy_j") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let j = v.as_f64().map_err(|e| e.to_string())?;
                        if !j.is_finite() || j < 0.0 {
                            return Err(format!("max_energy_j {j} is not a valid budget"));
                        }
                        Some(j)
                    }
                };
                Ok(Request::QueryTradeoff {
                    key,
                    max_err,
                    max_fraction,
                    max_bytes,
                    max_energy_j,
                })
            }
            "scrub" => {
                let budget = value
                    .get("budget")
                    .and_then(|v| v.as_u64())
                    .map_err(|e| e.to_string())?;
                if budget == 0 {
                    return Err("scrub budget must be nonzero".into());
                }
                Ok(Request::Scrub { budget })
            }
            "push_outputs" => {
                let key = key_from_json(value)?;
                let outputs = <Vec<f64> as FromJson>::from_json(
                    value.get("outputs").map_err(|e| e.to_string())?,
                )
                .map_err(|e| e.to_string())?;
                if outputs.iter().any(|y| !y.is_finite()) {
                    return Err("outputs contain a non-finite value".into());
                }
                Ok(Request::PushOutputs { key, outputs })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `get_profile` hit.
    Profile {
        /// Echoed key.
        key: StoreKey,
        /// Per-key sequence number of the served record.
        seq: u64,
        /// The stored profile.
        profile: Profile,
        /// Freshness metadata, when a drift monitor exists for the key.
        drift: Option<DriftStatus>,
        /// Latched drift staleness, surfaced at the top level so clients
        /// need not inspect `drift`. A stale profile is still served —
        /// intentional, bounded degradation — but its error bounds
        /// should be widened by `drift.widen` and the key sits in the
        /// repair queue until re-profiled.
        stale: bool,
        /// Degraded-mode marker: `true` while any part of the store is
        /// quarantined pending repair. The answer itself is verified
        /// bytes; the flag tells the client the serving context is
        /// running under widened staleness until the scrubber drains.
        degraded: bool,
    },
    /// `put_profile` / `push_outputs` ack. For puts, `seq` is the durable
    /// per-key sequence number; for output pushes it echoes the monitor's
    /// scored-window count.
    Ok {
        /// Sequence / progress number.
        seq: u64,
    },
    /// `query_tradeoff` result: matching points, cheapest first.
    Tradeoff {
        /// Points satisfying the predicates, sorted by ascending sample
        /// fraction then error bound (deterministic).
        matches: Vec<ProfilePoint>,
    },
    /// `stats` snapshot.
    Stats(Box<ServerStats>),
    /// `scrub` step report (mirrors `store::ScrubReport`).
    Scrub {
        /// Live records examined this step.
        scanned: u64,
        /// Records whose checksums verified clean.
        verified: u64,
        /// Quarantined records healed (direct re-read or log fallback).
        repaired: u64,
        /// Records newly quarantined by this step's verify pass.
        quarantined: u64,
        /// Quarantine backlog after the step.
        unrepaired: u64,
        /// Whether the verify cursor wrapped (one full pass complete).
        wrapped: bool,
    },
    /// Typed failure.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledges `shutdown`; the connection closes after this frame.
    Bye,
}

impl Response {
    /// Encodes the response for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Profile {
                key,
                seq,
                profile,
                drift,
                stale,
                degraded,
            } => {
                let [c, g] = key_to_json(*key);
                Json::obj([
                    ("type", Json::Str("profile".into())),
                    c,
                    g,
                    ("seq", (*seq as usize).to_json()),
                    ("profile", ToJson::to_json(profile)),
                    ("drift", drift.to_json()),
                    ("stale", stale.to_json()),
                    ("degraded", degraded.to_json()),
                ])
            }
            Response::Ok { seq } => Json::obj([
                ("type", Json::Str("ok".into())),
                ("seq", (*seq as usize).to_json()),
            ]),
            Response::Tradeoff { matches } => Json::obj([
                ("type", Json::Str("tradeoff".into())),
                ("matches", matches.to_json()),
            ]),
            Response::Stats(stats) => {
                let mut obj = match ToJson::to_json(stats.as_ref()) {
                    Json::Obj(map) => map,
                    _ => unreachable!("stats encode as an object"),
                };
                obj.insert("type".into(), Json::Str("stats".into()));
                Json::Obj(obj)
            }
            Response::Error { code, message } => Json::obj([
                ("type", Json::Str("error".into())),
                ("code", Json::Str(code.as_str().into())),
                ("message", Json::Str(message.clone())),
            ]),
            Response::Scrub {
                scanned,
                verified,
                repaired,
                quarantined,
                unrepaired,
                wrapped,
            } => Json::obj([
                ("type", Json::Str("scrub".into())),
                ("scanned", (*scanned as usize).to_json()),
                ("verified", (*verified as usize).to_json()),
                ("repaired", (*repaired as usize).to_json()),
                ("quarantined", (*quarantined as usize).to_json()),
                ("unrepaired", (*unrepaired as usize).to_json()),
                ("wrapped", wrapped.to_json()),
            ]),
            Response::Bye => Json::obj([("type", Json::Str("bye".into()))]),
        }
    }

    /// Decodes a response (the client half of the codec).
    pub fn from_json(value: &Json) -> Result<Response, String> {
        let ty = value
            .get("type")
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| e.to_string())?;
        match ty.as_str() {
            "profile" => Ok(Response::Profile {
                key: key_from_json(value)?,
                seq: value
                    .get("seq")
                    .and_then(|v| v.as_u64())
                    .map_err(|e| e.to_string())?,
                profile: <Profile as FromJson>::from_json(
                    value.get("profile").map_err(|e| e.to_string())?,
                )
                .map_err(|e| e.to_string())?,
                drift: match value.get_opt("drift") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        <DriftStatus as FromJson>::from_json(v).map_err(|e| e.to_string())?,
                    ),
                },
                stale: value
                    .get("stale")
                    .and_then(bool::from_json)
                    .map_err(|e| e.to_string())?,
                degraded: value
                    .get("degraded")
                    .and_then(bool::from_json)
                    .map_err(|e| e.to_string())?,
            }),
            "ok" => Ok(Response::Ok {
                seq: value
                    .get("seq")
                    .and_then(|v| v.as_u64())
                    .map_err(|e| e.to_string())?,
            }),
            "tradeoff" => Ok(Response::Tradeoff {
                matches: <Vec<ProfilePoint> as FromJson>::from_json(
                    value.get("matches").map_err(|e| e.to_string())?,
                )
                .map_err(|e| e.to_string())?,
            }),
            "stats" => Ok(Response::Stats(Box::new(
                <ServerStats as FromJson>::from_json(value).map_err(|e| e.to_string())?,
            ))),
            "error" => Ok(Response::Error {
                code: ErrorCode::parse(
                    value
                        .get("code")
                        .and_then(|v| v.as_str())
                        .map_err(|e| e.to_string())?,
                )?,
                message: value
                    .get("message")
                    .and_then(|v| v.as_str().map(str::to_string))
                    .map_err(|e| e.to_string())?,
            }),
            "scrub" => {
                let count = |field: &str| -> Result<u64, String> {
                    value
                        .get(field)
                        .and_then(|v| v.as_u64())
                        .map_err(|e| e.to_string())
                };
                Ok(Response::Scrub {
                    scanned: count("scanned")?,
                    verified: count("verified")?,
                    repaired: count("repaired")?,
                    quarantined: count("quarantined")?,
                    unrepaired: count("unrepaired")?,
                    wrapped: value
                        .get("wrapped")
                        .and_then(bool::from_json)
                        .map_err(|e| e.to_string())?,
                })
            }
            "bye" => Ok(Response::Bye),
            other => Err(format!("unknown response type {other:?}")),
        }
    }

    /// Shorthand for an error response.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }
}

/// One named example frame per request/response shape, used by the wire
/// schema golden (`tests/serve_protocol_schema.rs`) to pin the protocol:
/// any key added, removed, or re-typed shows up as a schema diff.
pub fn representative_frames() -> Vec<(&'static str, Json)> {
    use smokescreen_core::Aggregate;
    use smokescreen_degrade::InterventionSet;
    use smokescreen_video::{ObjectClass, Resolution};

    let profile = Profile {
        corpus: "example".into(),
        model: "oracle".into(),
        class: ObjectClass::Car,
        aggregate: Aggregate::Avg,
        delta: 0.05,
        points: vec![ProfilePoint {
            set: InterventionSet::sampling(0.25)
                .with_resolution(Resolution::square(128))
                .with_restricted(&[ObjectClass::Person]),
            y_approx: 1.5,
            err_b: 0.08,
            corrected: true,
            n: 1024,
        }],
    };
    let key = StoreKey::new(0x00c5_a2e1_9f03_4b77, 0x1122_3344_5566_7788);
    let drift = DriftStatus {
        score: 2.5,
        windows_scored: 12,
        windows_flagged: 1,
        stale: true,
        widen: 1.25,
    };

    vec![
        ("request.get_profile", Request::GetProfile { key }.to_json()),
        (
            "request.put_profile",
            Request::PutProfile {
                key,
                profile: profile.clone(),
                expected_seq: Some(4),
            }
            .to_json(),
        ),
        (
            "request.query_tradeoff",
            Request::QueryTradeoff {
                key,
                max_err: 0.1,
                max_fraction: Some(0.5),
                max_bytes: Some(1 << 20),
                max_energy_j: Some(40.0),
            }
            .to_json(),
        ),
        ("request.scrub", Request::Scrub { budget: 64 }.to_json()),
        (
            "request.push_outputs",
            Request::PushOutputs {
                key,
                outputs: vec![1.0, 2.0],
            }
            .to_json(),
        ),
        ("request.stats", Request::Stats.to_json()),
        ("request.shutdown", Request::Shutdown.to_json()),
        (
            "response.profile",
            Response::Profile {
                key,
                seq: 3,
                profile: profile.clone(),
                drift: Some(drift),
                stale: true,
                degraded: true,
            }
            .to_json(),
        ),
        ("response.ok", Response::Ok { seq: 3 }.to_json()),
        (
            "response.tradeoff",
            Response::Tradeoff {
                matches: profile.points.clone(),
            }
            .to_json(),
        ),
        (
            "response.stats",
            Response::Stats(Box::new(ServerStats {
                repair_queue: vec!["00c5a2e19f034b77:1122334455667788".into()],
                repair_queue_len: 1,
                ..ServerStats::default()
            }))
            .to_json(),
        ),
        (
            "response.scrub",
            Response::Scrub {
                scanned: 64,
                verified: 63,
                repaired: 2,
                quarantined: 1,
                unrepaired: 0,
                wrapped: true,
            }
            .to_json(),
        ),
        (
            "response.error",
            Response::error(ErrorCode::Overloaded, "queue full").to_json(),
        ),
        ("response.bye", Response::Bye.to_json()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(json: &Json) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, json).unwrap();
        buf
    }

    #[test]
    fn frame_round_trip_and_clean_eof() {
        let json = Json::obj([("op", Json::Str("stats".into()))]);
        let mut stream = Cursor::new(frame_bytes(&json));
        assert_eq!(read_frame(&mut stream).unwrap(), Some(json));
        assert!(
            matches!(read_frame(&mut stream), Ok(None)),
            "clean EOF at a frame boundary"
        );
    }

    #[test]
    fn truncated_oversized_and_malformed_frames_are_typed() {
        // Truncated mid-prefix.
        let mut t = Cursor::new(vec![0x10, 0x00]);
        assert!(matches!(read_frame(&mut t), Err(FrameError::Truncated)));
        // Truncated mid-body.
        let mut bytes = frame_bytes(&Json::obj([("op", Json::Str("stats".into()))]));
        bytes.truncate(bytes.len() - 3);
        let mut t = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut t), Err(FrameError::Truncated)));
        // Oversized claim: rejected from the prefix alone.
        let mut o = Cursor::new(((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut o),
            Err(FrameError::Oversized(n)) if n == MAX_FRAME_LEN + 1
        ));
        // Malformed JSON body.
        let body = b"{not json";
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(body);
        let mut m = Cursor::new(buf);
        assert!(matches!(read_frame(&mut m), Err(FrameError::Malformed(_))));
        // Non-UTF-8 body.
        let mut buf = 2u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut m = Cursor::new(buf);
        assert!(matches!(read_frame(&mut m), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn depth_bomb_is_malformed_not_fatal() {
        let mut body = String::new();
        for _ in 0..4096 {
            body.push('[');
        }
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(body.as_bytes());
        let mut stream = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut stream),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn requests_round_trip() {
        let key = StoreKey::new(u64::MAX - 7, 0x0123_4567_89ab_cdef);
        let reqs = [
            Request::GetProfile { key },
            Request::QueryTradeoff {
                key,
                max_err: 0.2,
                max_fraction: None,
                max_bytes: None,
                max_energy_j: None,
            },
            Request::QueryTradeoff {
                key,
                max_err: 0.2,
                max_fraction: Some(0.5),
                max_bytes: Some(4096),
                max_energy_j: Some(2.5),
            },
            Request::PushOutputs {
                key,
                outputs: vec![0.0, 1.5, -2.25],
            },
            Request::Scrub { budget: 7 },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let back = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(req, back, "round trip preserves every field exactly");
        }
    }

    #[test]
    fn hex_ids_preserve_full_u64_precision() {
        // 2^53 + 1 is where f64 integers go lossy; hex strings must not.
        let key = StoreKey::new((1 << 53) + 1, u64::MAX);
        let json = Request::GetProfile { key }.to_json();
        let reparsed = Json::parse(&json.encode()).unwrap();
        match Request::from_json(&reparsed).unwrap() {
            Request::GetProfile { key: k } => assert_eq!(k, key),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn rid_stamp_survives_the_wire_and_decode_ignores_it() {
        let key = StoreKey::new(1, 2);
        let req = Request::PutProfile {
            key,
            profile: Profile {
                corpus: "c".into(),
                model: "m".into(),
                class: smokescreen_video::ObjectClass::Car,
                aggregate: smokescreen_core::Aggregate::Avg,
                delta: 0.05,
                points: vec![],
            },
            expected_seq: Some(12345),
        };
        let rid = u64::MAX - 3;
        let stamped = stamp_rid(&req.to_json(), rid);
        let reparsed = Json::parse(&stamped.encode()).unwrap();
        assert_eq!(frame_rid(&reparsed), Some(rid), "full u64 rid survives");
        // The rid is transport metadata: request decode is oblivious and
        // the retried put's idempotence guard survives untouched.
        match Request::from_json(&reparsed).unwrap() {
            Request::PutProfile { expected_seq, .. } => {
                assert_eq!(expected_seq, Some(12345));
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert_eq!(frame_rid(&req.to_json()), None, "unstamped frames have no rid");
        assert_eq!(
            frame_rid(&Json::obj([("rid", Json::Str("zz".into()))])),
            None,
            "malformed rids read as absent"
        );
    }

    #[test]
    fn invalid_requests_name_the_problem() {
        assert!(Request::from_json(&Json::Num(3.0)).is_err(), "not an object");
        assert!(
            Request::from_json(&Json::obj([("op", Json::Str("nope".into()))]))
                .unwrap_err()
                .contains("unknown op")
        );
        let bad_id = Json::obj([
            ("op", Json::Str("get_profile".into())),
            ("camera", Json::Str("xyz".into())),
            ("grid", Json::Str("0000000000000002".into())),
        ]);
        assert!(Request::from_json(&bad_id).is_err(), "short hex id");
        let bad_err = Json::obj([
            ("op", Json::Str("query_tradeoff".into())),
            ("camera", Json::Str("0000000000000001".into())),
            ("grid", Json::Str("0000000000000002".into())),
            ("max_err", Json::Num(-0.5)),
        ]);
        assert!(Request::from_json(&bad_err).is_err(), "negative bound");
    }

    #[test]
    fn responses_round_trip() {
        let frames = representative_frames();
        for (name, json) in &frames {
            if !name.starts_with("response.") {
                continue;
            }
            let resp = Response::from_json(json).unwrap();
            assert_eq!(&resp.to_json(), json, "{name} round trips");
        }
        assert!(
            Response::from_json(&Json::obj([("type", Json::Str("alien".into()))])).is_err()
        );
    }

    #[test]
    fn representative_frames_cover_every_shape() {
        let frames = representative_frames();
        assert_eq!(frames.len(), 14, "7 request + 7 response shapes");
        // Every frame fits the wire and re-parses byte-exactly.
        for (name, json) in &frames {
            let bytes = frame_bytes(json);
            assert!(bytes.len() <= 4 + MAX_FRAME_LEN, "{name} fits a frame");
            let mut stream = Cursor::new(bytes);
            assert_eq!(read_frame(&mut stream).unwrap().as_ref(), Some(json));
        }
    }
}
