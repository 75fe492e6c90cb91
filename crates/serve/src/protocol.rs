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
//!
//! Each shape is declared once with [`json_codec!`]: [`Request`] and
//! [`Response`] as enums tagged by `op` / `type` (a variant's wire name,
//! then its fields, the [`StoreKey`] flattened to its two hex strings),
//! the records they carry by field list. Range checks run on the decoded
//! request, so a bad value is rejected with the field named.

use std::io::{self, Read, Write};

use smokescreen_core::{Profile, ProfilePoint};
use smokescreen_rt::json::{self, FromJson, Json, JsonError, ToJson};
use smokescreen_rt::json_codec;

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
/// boundary; see [`FrameError`] for every other outcome. A reader of many
/// frames keeps a [`FrameBuf`] instead.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, FrameError> {
    FrameBuf::default().read(r)
}

/// Reads one frame's body into `body`, which keeps its capacity between
/// calls. See [`read_frame`].
fn read_frame_into(r: &mut impl Read, body: &mut Vec<u8>) -> Result<Option<Json>, FrameError> {
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
    body.clear();
    body.resize(len, 0);
    match fill(r, body, false)? {
        Fill::Full => {}
        Fill::CleanEof | Fill::Idle => unreachable!("fill only reports these at start"),
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| FrameError::Malformed("frame body is not UTF-8".into()))?;
    match Json::parse(text) {
        Ok(json) => Ok(Some(json)),
        Err(e) => Err(FrameError::Malformed(e.to_string())),
    }
}

/// Writes one frame (length prefix + encoded JSON) and flushes. A sender
/// of many frames keeps a [`FrameBuf`] instead.
pub fn write_frame(w: &mut impl Write, value: &(impl ToJson + ?Sized)) -> io::Result<()> {
    FrameBuf::default().write(w, value)
}

/// Buffers a peer reuses to read and encode its frames: after the first
/// few frames, reading one allocates only its [`Json`] tree and encoding
/// one allocates nothing.
#[derive(Debug, Default)]
pub struct FrameBuf {
    body: String,
    frame: Vec<u8>,
    /// The body of the last frame read; it keeps the capacity of the
    /// largest, at most [`MAX_FRAME_LEN`].
    read: Vec<u8>,
}

impl FrameBuf {
    /// Reads one frame, as [`read_frame`] does, into the reused body
    /// buffer.
    pub fn read(&mut self, r: &mut impl Read) -> Result<Option<Json>, FrameError> {
        read_frame_into(r, &mut self.read)
    }

    /// Encodes `value` as one frame, length prefix then compact JSON
    /// written by [`ToJson::write_json`], and returns its bytes.
    pub fn encode(&mut self, value: &(impl ToJson + ?Sized)) -> &[u8] {
        self.body.clear();
        value.write_json(&mut self.body);
        debug_assert!(self.body.len() <= MAX_FRAME_LEN, "produced an oversized frame");
        self.frame.clear();
        self.frame.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(self.body.as_bytes());
        &self.frame
    }

    /// Encodes `value` as one frame, sends it in one `write_all` and
    /// flushes.
    pub fn write(&mut self, w: &mut impl Write, value: &(impl ToJson + ?Sized)) -> io::Result<()> {
        w.write_all(self.encode(value))?;
        w.flush()
    }
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

/// Every error code with its wire name.
const ERROR_CODES: [(ErrorCode, &str); 8] = [
    (ErrorCode::Malformed, "malformed"),
    (ErrorCode::Oversized, "oversized"),
    (ErrorCode::BadRequest, "bad_request"),
    (ErrorCode::NotFound, "not_found"),
    (ErrorCode::Overloaded, "overloaded"),
    (ErrorCode::ShuttingDown, "shutting_down"),
    (ErrorCode::Store, "store"),
    (ErrorCode::Quarantined, "quarantined"),
];

impl ErrorCode {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        ERROR_CODES.iter().find(|(code, _)| *code == self).expect("every code is listed").1
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Result<ErrorCode, String> {
        let entry = ERROR_CODES.iter().find(|(_, name)| *name == s);
        entry.map(|(code, _)| *code).ok_or_else(|| format!("unknown error code {s:?}"))
    }
}

impl ToJson for ErrorCode {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for ErrorCode {
    fn from_json(value: &Json) -> json::Result<Self> {
        ErrorCode::parse(value.as_str()?).map_err(JsonError::new)
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

json_codec! { DriftStatus { score, windows_scored, windows_flagged, stale, widen } }

/// Camera, grid and request ids as 16-digit hex strings (see the module
/// doc).
mod hex_id {
    use smokescreen_rt::json::{self, Json, JsonError};

    pub fn write_json(id: &u64, out: &mut String) {
        out.push('"');
        for shift in (0..16).rev() {
            let nibble = (id >> (4 * shift)) as u32 & 0xF;
            out.push(char::from_digit(nibble, 16).expect("a nibble is a hex digit"));
        }
        out.push('"');
    }

    pub fn from_json(value: &Json) -> json::Result<u64> {
        let s = value.as_str()?;
        match u64::from_str_radix(s, 16) {
            // `from_str_radix` also takes a leading `+`: one id, one spelling.
            Ok(id) if s.len() == 16 && !s.starts_with('+') => Ok(id),
            _ => Err(JsonError::new(format!("id must be 16 hex digits, got {s:?}"))),
        }
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
pub fn stamp_rid(request: Json, rid: u64) -> Json {
    let Json::Obj(mut obj) = request else {
        unreachable!("requests encode as objects")
    };
    obj.insert("rid", Json::Str(format!("{rid:016x}")));
    Json::Obj(obj)
}

/// Extracts the request id stamped by [`stamp_rid`], if any. Malformed
/// rids read as absent: the frame still gets a normal (fault-free)
/// answer, which is the conservative choice for a field only the chaos
/// plan consumes.
pub fn frame_rid(request: &Json) -> Option<u64> {
    hex_id::from_json(request.get_opt("rid")?).ok()
}

/// Declares [`ServerStats`] from one list of counters, so each counter is
/// named once: the macro derives the struct field, its `stats` wire key
/// (the field name, through [`json_codec!`]), and — for the counters the
/// store keeps — the copy out of [`StoreStats`].
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

        json_codec! { ServerStats { $($server,)* $($store,)* repair_queue } }
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

json_codec! { StoreKey { camera [with hex_id], grid [with hex_id] } }

json_codec! {
    enum Request tag "op" {
        GetProfile "get_profile" { key [flatten] },
        PutProfile "put_profile" { key [flatten], profile, expected_seq = None },
        QueryTradeoff "query_tradeoff" {
            key [flatten],
            max_err,
            max_fraction = None,
            max_bytes = None,
            max_energy_j = None,
        },
        Scrub "scrub" { budget },
        PushOutputs "push_outputs" { key [flatten], outputs },
        Stats "stats" {},
        Shutdown "shutdown" {},
    }
    check check_request
}

/// Rejects a decoded request whose fields are out of range.
fn check_request(request: &Request) -> json::Result<()> {
    let problem = match request {
        Request::PutProfile { expected_seq: Some(0), .. } => {
            "expected_seq 0 is reserved (seqs start at 1)".to_string()
        }
        Request::QueryTradeoff { max_err, .. } if !max_err.is_finite() || *max_err < 0.0 => {
            format!("max_err {max_err} is not a valid bound")
        }
        Request::QueryTradeoff { max_fraction: Some(f), .. }
            if !f.is_finite() || !(0.0..=1.0).contains(f) =>
        {
            format!("max_fraction {f} is not in [0, 1]")
        }
        Request::QueryTradeoff { max_energy_j: Some(j), .. } if !j.is_finite() || *j < 0.0 => {
            format!("max_energy_j {j} is not a valid budget")
        }
        Request::Scrub { budget: 0 } => "scrub budget must be nonzero".to_string(),
        Request::PushOutputs { outputs, .. } if outputs.iter().any(|y| !y.is_finite()) => {
            "outputs contain a non-finite value".to_string()
        }
        _ => return Ok(()),
    };
    Err(JsonError::new(problem))
}

impl Request {
    /// Decodes a request, reporting *why* it is invalid (the message is
    /// echoed in the `malformed`/`bad_request` error response).
    pub fn from_json(value: &Json) -> Result<Request, String> {
        FromJson::from_json(value).map_err(|e: JsonError| e.to_string())
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

json_codec! {
    enum Response tag "type" {
        Profile "profile" { key [flatten], seq, profile, drift = None, stale, degraded },
        Ok "ok" { seq },
        Tradeoff "tradeoff" { matches },
        Stats "stats" (flatten),
        Scrub "scrub" { scanned, verified, repaired, quarantined, unrepaired, wrapped },
        Error "error" { code, message },
        Bye "bye" {},
    }
}

impl Response {
    /// Decodes a response (the client half of the codec).
    pub fn from_json(value: &Json) -> Result<Response, String> {
        FromJson::from_json(value).map_err(|e: JsonError| e.to_string())
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
    let messages = representative_messages().into_iter();
    messages.map(|(name, message)| (name, message.to_json())).collect()
}

/// The requests and responses behind [`representative_frames`], before
/// encoding: the typed values a sender writes.
pub fn representative_messages() -> Vec<(&'static str, Box<dyn ToJson>)> {
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
    let stats = ServerStats {
        repair_queue: vec!["00c5a2e19f034b77:1122334455667788".into()],
        repair_queue_len: 1,
        ..ServerStats::default()
    };
    let requests = [
        ("request.get_profile", Request::GetProfile { key }),
        (
            "request.put_profile",
            Request::PutProfile { key, profile: profile.clone(), expected_seq: Some(4) },
        ),
        (
            "request.query_tradeoff",
            Request::QueryTradeoff {
                key,
                max_err: 0.1,
                max_fraction: Some(0.5),
                max_bytes: Some(1 << 20),
                max_energy_j: Some(40.0),
            },
        ),
        ("request.scrub", Request::Scrub { budget: 64 }),
        ("request.push_outputs", Request::PushOutputs { key, outputs: vec![1.0, 2.0] }),
        ("request.stats", Request::Stats),
        ("request.shutdown", Request::Shutdown),
    ];
    let responses = [
        (
            "response.profile",
            Response::Profile {
                key,
                seq: 3,
                profile: profile.clone(),
                drift: Some(drift),
                stale: true,
                degraded: true,
            },
        ),
        ("response.ok", Response::Ok { seq: 3 }),
        ("response.tradeoff", Response::Tradeoff { matches: profile.points }),
        ("response.stats", Response::Stats(Box::new(stats))),
        (
            "response.scrub",
            Response::Scrub {
                scanned: 64,
                verified: 63,
                repaired: 2,
                quarantined: 1,
                unrepaired: 0,
                wrapped: true,
            },
        ),
        ("response.error", Response::error(ErrorCode::Overloaded, "queue full")),
        ("response.bye", Response::Bye),
    ];
    let requests = requests.into_iter().map(|(name, r)| (name, Box::new(r) as Box<dyn ToJson>));
    requests.chain(responses.into_iter().map(|(name, r)| (name, Box::new(r) as _))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn empty_profile() -> Profile {
        Profile {
            corpus: "c".into(),
            model: "m".into(),
            class: smokescreen_video::ObjectClass::Car,
            aggregate: smokescreen_core::Aggregate::Avg,
            delta: 0.05,
            points: vec![],
        }
    }

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
        let body = "[".repeat(4096);
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(body.as_bytes());
        let mut stream = Cursor::new(buf);
        assert!(matches!(read_frame(&mut stream), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn requests_round_trip() {
        let key = StoreKey::new(u64::MAX - 7, 0x0123_4567_89ab_cdef);
        let profile = empty_profile();
        let reqs = [
            Request::GetProfile { key },
            Request::PutProfile { key, profile: profile.clone(), expected_seq: Some(9) },
            Request::PutProfile { key, profile, expected_seq: None },
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
            Request::PushOutputs { key, outputs: vec![0.0, 1.5, -2.25] },
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
            profile: empty_profile(),
            expected_seq: Some(12345),
        };
        let rid = u64::MAX - 3;
        let stamped = stamp_rid(req.to_json(), rid);
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
        let frames: std::collections::BTreeMap<_, _> =
            representative_frames().into_iter().map(|(n, json)| (n, json.encode())).collect();
        let put = "request.put_profile";
        let query = "request.query_tradeoff";
        for (frame, from, to, field) in [
            (put, r#""expected_seq":4"#, r#""expected_seq":0"#, "expected_seq"),
            (put, r#""delta":0.05"#, r#""delta":1"#, "delta"),
            (put, r#""err_b":0.08"#, r#""err_b":-1"#, "err_b"),
            (put, r#""sample_fraction":0.25"#, r#""sample_fraction":2"#, "sample_fraction"),
            (put, r#""noise":0"#, r#""noise":-1"#, "noise"),
            (put, r#""n":1024"#, r#""n":-1"#, "n: "),
            (query, r#""max_err":0.1"#, r#""max_err":-0.5"#, "max_err"),
            (query, r#""max_fraction":0.5"#, r#""max_fraction":1.5"#, "max_fraction"),
            (query, r#""max_energy_j":40"#, r#""max_energy_j":-1"#, "max_energy_j"),
            (query, r#""max_bytes":1048576"#, r#""max_bytes":0.5"#, "max_bytes"),
            ("request.scrub", r#""budget":64"#, r#""budget":0"#, "budget"),
            (query, r#""camera":"00c5a2e19f034b77""#, r#""camera":"xyz""#, "camera"),
            (query, r#""grid":"1122334455667788""#, r#""grid":"112233445566778g""#, "grid"),
            (query, r#""grid":"1122334455667788""#, r#""grid":"+122334455667788""#, "grid"),
        ] {
            let text = frames[frame].replace(from, to);
            assert_ne!(text, frames[frame], "{from} is in {frame}");
            let err = Request::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains(field), "{frame} with {to}: {err}");
        }
        // Encoding writes NaN as `null`, so only a tree built by hand
        // carries one to `check_request`.
        let nan = Json::obj([
            ("op", Json::Str("push_outputs".into())),
            ("camera", Json::Str("0000000000000001".into())),
            ("grid", Json::Str("0000000000000002".into())),
            ("outputs", Json::Arr(vec![Json::Num(1.0), Json::Num(f64::NAN)])),
        ]);
        let err = Request::from_json(&nan).unwrap_err();
        assert!(err.contains("outputs contain a non-finite value"), "{err}");
        assert!(Request::from_json(&Json::Num(3.0)).is_err(), "not an object");
        let unknown = Json::parse(r#"{"op":"nope"}"#).unwrap();
        assert!(Request::from_json(&unknown).unwrap_err().contains("unknown op"));
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
        // Every frame fits the wire and re-parses byte-exactly, and one
        // reused buffer frames the typed messages to the same bytes and
        // reads every frame back, larger and smaller than the last.
        let mut reused = FrameBuf::default();
        for ((name, json), (_, message)) in frames.iter().zip(representative_messages()) {
            let bytes = frame_bytes(json);
            assert_eq!(reused.encode(&*message), &bytes[..], "{name} framed from its typed value");
            assert!(bytes.len() <= 4 + MAX_FRAME_LEN, "{name} fits a frame");
            let read = reused.read(&mut Cursor::new(bytes.clone())).unwrap();
            assert_eq!(read.as_ref(), Some(json), "{name} read through the reused buffer");
            let mut stream = Cursor::new(bytes);
            assert_eq!(read_frame(&mut stream).unwrap().as_ref(), Some(json));
        }
    }
}
