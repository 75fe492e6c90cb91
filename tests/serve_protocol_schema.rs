//! Golden test pinning the serve wire-protocol schema, plus abuse tests
//! proving a live daemon answers hostile frames with *typed* errors.
//!
//! Every request and response shape the daemon speaks is enumerated by
//! `protocol::representative_frames()`; each frame is reduced to its
//! structural schema (`trajectory::schema_of`: field names and types, no
//! values) and the whole map compared against
//! `tests/golden/serve_protocol_schema.json`. A field added, removed,
//! renamed, or retyped anywhere on the wire shows up as a diff here. To
//! bless an intentional protocol change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test serve_protocol_schema
//! ```
//!
//! The abuse tests then bind a real daemon and feed it garbage JSON,
//! oversized length prefixes, and depth-bombed documents: the contract is
//! a typed `error` response — never a hang, never a panic, never a torn
//! connection where resync is possible.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use smokescreen_bench::trajectory::{assert_golden, schema_of};
use smokescreen_rt::json::{Json, ToJson};
use smokescreen_serve::protocol::{read_frame, representative_frames};
use smokescreen_serve::{
    Connection, ErrorCode, Request, Response, RunningServer, ServeAddr, Server, ServerConfig,
    StoreKey, MAX_FRAME_LEN,
};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_protocol_schema.json")
}

#[test]
fn serve_protocol_schema_matches_golden() {
    let shapes = representative_frames()
        .into_iter()
        .map(|(name, frame)| (name.to_string(), schema_of(&frame)))
        .collect();
    assert_golden(&golden_path(), &Json::Obj(shapes).encode_pretty(), "serve_protocol_schema");
}

/// Every representative frame plus the `None` shapes the schema golden
/// cannot see (a `null` and an absent key have the same schema). Names
/// ending in `.absent` are requests whose optional keys are missing.
fn golden_frames() -> Vec<(String, Json)> {
    let mut frames: Vec<(String, Json)> =
        representative_frames().into_iter().map(|(n, json)| (n.to_string(), json)).collect();
    let Request::PutProfile { key, profile, .. } = Request::from_json(&frames[1].1).unwrap() else {
        panic!("frame 1 is request.put_profile")
    };
    let put = Request::PutProfile { key, profile: profile.clone(), expected_seq: None }.to_json();
    let (max_fraction, max_bytes, max_energy_j) = (None, None, None);
    let query = Request::QueryTradeoff { key, max_err: 0.1, max_fraction, max_bytes, max_energy_j }
        .to_json();
    let served =
        Response::Profile { key, seq: 3, profile, drift: None, stale: false, degraded: false };
    let without_nulls = |json: &Json| {
        let Json::Obj(map) = json else { panic!("frames are objects") };
        let kept = map.iter().filter(|(_, v)| !v.is_null());
        Json::Obj(kept.map(|(k, v)| (k.clone(), v.clone())).collect())
    };
    frames.push(("request.put_profile.absent".into(), without_nulls(&put)));
    frames.push(("request.put_profile.expected_seq_none".into(), put));
    frames.push(("request.query_tradeoff.absent".into(), without_nulls(&query)));
    frames.push(("request.query_tradeoff.budgets_none".into(), query));
    frames.push(("response.profile.drift_none".into(), served.to_json()));
    frames
}

/// Pins the compact wire bytes of every frame: the schema golden above
/// cannot tell `"expected_seq":null` from an omitted key, this one can.
#[test]
fn serve_protocol_frames_match_golden() {
    let frames = golden_frames();
    let bytes = frames.iter().map(|(name, json)| (name.clone(), Json::Str(json.encode())));
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_protocol_frames.json");
    assert_golden(&path, &Json::Obj(bytes.collect()).encode_pretty(), "serve_protocol_schema");

    // Absent optional keys decode to `None`, exactly like explicit nulls.
    let frame = |name: &str| &frames.iter().find(|(n, _)| n == name).unwrap().1;
    for (absent, null) in [
        ("request.put_profile.absent", "request.put_profile.expected_seq_none"),
        ("request.query_tradeoff.absent", "request.query_tradeoff.budgets_none"),
    ] {
        let decoded = Request::from_json(frame(absent)).unwrap();
        assert_eq!(decoded, Request::from_json(frame(null)).unwrap(), "{absent}");
        assert_eq!(&decoded.to_json(), frame(null), "{absent} re-encodes with nulls");
    }
}

#[test]
fn representative_frames_have_stable_names() {
    // The golden keys double as protocol documentation; duplicates or
    // renames would silently shadow a shape in the map above.
    let names: Vec<&str> = representative_frames().iter().map(|(n, _)| *n).collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate frame name");
    assert!(names.iter().any(|n| n.starts_with("request.")));
    assert!(names.iter().any(|n| n.starts_with("response.")));
}

// ---------------------------------------------------------------------------
// Abuse tests against a live daemon
// ---------------------------------------------------------------------------

/// Spawns a daemon on a fresh store + socket for one abuse scenario.
fn daemon(tag: &str) -> (RunningServer, PathBuf) {
    let dir = std::env::temp_dir().join(format!("smk-abuse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = std::env::temp_dir().join(format!("smk-abuse-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let server = Server::new(ServerConfig::new(ServeAddr::Unix(sock), &dir).with_threads(2))
        .spawn()
        .unwrap();
    (server, dir)
}

/// Runs `f` on its own thread and panics if it exceeds `secs` — the
/// "never hang" half of the abuse contract, enforced mechanically.
fn with_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(secs))
        .expect("abuse scenario hung: daemon never answered");
    handle.join().expect("abuse scenario panicked");
    out
}

/// Reads one response frame off a raw connection.
fn read_response(conn: &mut Connection) -> Response {
    let frame = read_frame(conn)
        .expect("framing intact")
        .expect("connection open");
    Response::from_json(&frame).expect("well-formed response")
}

fn expect_error(response: Response, code: ErrorCode) {
    match response {
        Response::Error { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected {code:?} error, got {other:?}"),
    }
}

#[test]
fn malformed_json_gets_typed_error_and_connection_survives() {
    let (server, dir) = daemon("malformed");
    let code = with_deadline(30, move || {
        let mut conn = server.connect().unwrap();
        // A length-prefixed frame whose body is not JSON.
        let body = b"{not json at all";
        let mut raw = (body.len() as u32).to_le_bytes().to_vec();
        raw.extend_from_slice(body);
        conn.write_all(&raw).unwrap();
        expect_error(read_response(&mut conn), ErrorCode::Malformed);
        // Framing was intact, so the connection resyncs: a valid request
        // on the same socket still works.
        match conn.request(&Request::Stats).unwrap() {
            Response::Stats(stats) => assert!(stats.protocol_errors >= 1),
            other => panic!("expected stats after resync, got {other:?}"),
        }
        let report = server.shutdown().unwrap();
        assert!(report.graceful);
        report.stats.protocol_errors
    });
    assert!(code >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_frame_gets_typed_error_then_close() {
    let (server, dir) = daemon("oversized");
    with_deadline(30, move || {
        let mut conn = server.connect().unwrap();
        // Claim a frame bigger than the hard cap without sending a body;
        // the daemon must reject on the prefix alone, not try to read it.
        let raw = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        conn.write_all(&raw).unwrap();
        expect_error(read_response(&mut conn), ErrorCode::Oversized);
        // After an oversized claim the stream cannot be resynced: the
        // daemon closes it, which reads back as a clean EOF.
        match read_frame(&mut conn) {
            Ok(None) => {}
            other => panic!("expected EOF after oversized frame, got {other:?}"),
        }
        let report = server.shutdown().unwrap();
        assert!(report.graceful);
        assert!(report.stats.protocol_errors >= 1);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn depth_bombed_document_gets_typed_error_not_stack_overflow() {
    let (server, dir) = daemon("depthbomb");
    with_deadline(30, move || {
        let mut conn = server.connect().unwrap();
        // 4096 nested arrays — far past MAX_PARSE_DEPTH. The parser must
        // bail with a typed error instead of recursing off the stack.
        let depth = 4096;
        let mut body = Vec::with_capacity(depth * 2);
        body.extend(std::iter::repeat(b'[').take(depth));
        body.extend(std::iter::repeat(b']').take(depth));
        let mut raw = (body.len() as u32).to_le_bytes().to_vec();
        raw.extend_from_slice(&body);
        conn.write_all(&raw).unwrap();
        expect_error(read_response(&mut conn), ErrorCode::Malformed);
        // Valid JSON that is not a request object is a BadRequest, and
        // the connection keeps serving afterwards.
        let body = br#"{"op":"launch_missiles"}"#;
        let mut raw = (body.len() as u32).to_le_bytes().to_vec();
        raw.extend_from_slice(body);
        conn.write_all(&raw).unwrap();
        expect_error(read_response(&mut conn), ErrorCode::BadRequest);
        let report = server.shutdown().unwrap();
        assert!(report.graceful);
        assert!(report.stats.protocol_errors >= 1);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_connection_mid_frame_never_wedges_the_daemon() {
    let (server, dir) = daemon("truncated");
    with_deadline(30, move || {
        {
            let mut conn = server.connect().unwrap();
            // Claim 100 bytes, send 3, slam the connection shut.
            let mut raw = 100u32.to_le_bytes().to_vec();
            raw.extend_from_slice(b"abc");
            conn.write_all(&raw).unwrap();
        } // dropped: half a frame on the wire
        // The daemon must shrug that off and keep serving new clients.
        let mut conn = server.connect().unwrap();
        let key = StoreKey::new(7, 7);
        match conn.request(&Request::GetProfile { key }).unwrap() {
            Response::Error {
                code: ErrorCode::NotFound,
                ..
            } => {}
            other => panic!("expected not_found on empty store, got {other:?}"),
        }
        let report = server.shutdown().unwrap();
        assert!(report.graceful);
    });
    let _ = std::fs::remove_dir_all(&dir);
}
