//! Deterministic soak: the serving daemon under a fixed seeded schedule
//! must be bit-for-bit reproducible regardless of its worker count.
//!
//! For each server width in {1, 8, 16} the test runs the *same* story:
//! four seeded clients drive a mixed put/get/query schedule over disjoint
//! key spaces, the daemon is killed mid-life (a simulated crash — no
//! shutdown compaction), the store is reopened and audited for lost acked
//! writes, a second daemon generation serves another client wave, and a
//! graceful shutdown compacts. Three artifacts must then be byte-identical
//! across widths:
//!
//! 1. every per-client transcript (response-by-response),
//! 2. the final compacted data segment,
//! 3. the final index segment.
//!
//! This works because determinism was designed in, not hoped for: client
//! key spaces are disjoint (per-key seqs depend only on that client's own
//! order), payloads are pure functions of the schedule position, and
//! compaction rewrites the store as a pure function of the surviving map
//! — so thread-count-dependent append interleavings cancel out.

use std::collections::BTreeMap;

use smokescreen_bench::serve_client::{client_camera, next_rand, sample_profile};
use smokescreen_core::Profile;
use smokescreen_serve::{
    ProfileStore, Request, Response, ServeAddr, Server, ServerConfig, StoreKey,
};

const CLIENTS: usize = 4;
const PHASE1_REQUESTS: usize = 80;
const PHASE2_REQUESTS: usize = 40;
const IDENTITY: &str = "smokescreen-serve";

/// Everything a client saw, plus the acked writes it is owed.
#[derive(Default)]
struct ClientRun {
    transcript: Vec<String>,
    acked: BTreeMap<StoreKey, (u64, Profile)>,
}

/// Drives one client's seeded schedule against the daemon, recording a
/// deterministic transcript. Keys live under the client's own camera, so
/// every response is a pure function of (client, phase, prior shadow) —
/// never of how the server interleaved other clients. `acked` carries the
/// client's surviving writes from an earlier daemon generation.
fn run_client(
    addr: &ServeAddr,
    client: usize,
    phase: u64,
    requests: usize,
    acked: BTreeMap<StoreKey, (u64, Profile)>,
) -> ClientRun {
    let mut run = ClientRun {
        transcript: Vec::new(),
        acked,
    };
    let camera = client_camera(client);
    let mut rng = 0x5eed_0000 + client as u64 * 131 + phase * 7919;
    let mut conn = addr.connect().expect("client connects");
    for step in 0..requests {
        let grid = 1 + next_rand(&mut rng) % 6;
        let key = StoreKey::new(camera, grid);
        let line = match next_rand(&mut rng) % 10 {
            // Put-heavy mix: puts are the only state transitions, and
            // phase 1 must leave enough acked writes for the crash audit.
            0..=5 => {
                let profile = sample_profile(grid + phase * 100, 3 + (step % 5));
                match conn
                    .request(&Request::PutProfile {
                        key,
                        profile: profile.clone(),
                        expected_seq: None,
                    })
                    .expect("put answered")
                {
                    Response::Ok { seq } => {
                        let expected = run.acked.get(&key).map_or(0, |(s, _)| *s) + 1;
                        assert_eq!(seq, expected, "client {client} key {key:?} seq");
                        run.acked.insert(key, (seq, profile));
                        format!("{step} put {key:?} seq {seq}")
                    }
                    other => panic!("client {client} step {step}: put got {other:?}"),
                }
            }
            6 | 7 => match conn.request(&Request::GetProfile { key }).expect("get answered") {
                Response::Profile {
                    key: got_key,
                    seq,
                    profile,
                    drift,
                    stale,
                    degraded,
                } => {
                    assert_eq!(got_key, key);
                    let (want_seq, want_profile) =
                        run.acked.get(&key).expect("profile response implies prior put");
                    assert_eq!(seq, *want_seq);
                    assert_eq!(&profile, want_profile, "get returns the acked bytes");
                    assert!(drift.is_none(), "no outputs pushed, no drift status");
                    assert!(!stale && !degraded, "no faults armed, nothing degraded");
                    format!("{step} get {key:?} seq {seq} points {}", profile.points.len())
                }
                Response::Error { code, .. } => {
                    assert!(
                        !run.acked.contains_key(&key),
                        "acked key {key:?} must not be {code:?}"
                    );
                    format!("{step} get {key:?} {}", code.as_str())
                }
                other => panic!("client {client} step {step}: get got {other:?}"),
            },
            _ => {
                match conn
                    .request(&Request::QueryTradeoff {
                        key,
                        max_err: 0.2,
                        max_fraction: Some(0.8),
                        max_bytes: None,
                        max_energy_j: None,
                    })
                    .expect("query answered")
                {
                    Response::Tradeoff { matches } => {
                        let cheapest = matches
                            .first()
                            .map_or("-".to_string(), |p| format!("{:.3}", p.set.sample_fraction));
                        format!("{step} query {key:?} matches {} cheapest {cheapest}", matches.len())
                    }
                    Response::Error { code, .. } => {
                        assert!(!run.acked.contains_key(&key));
                        format!("{step} query {key:?} {}", code.as_str())
                    }
                    other => panic!("client {client} step {step}: query got {other:?}"),
                }
            }
        };
        run.transcript.push(line);
    }
    run
}

/// Runs all clients of one phase concurrently and returns their runs in
/// client order. `shadows[c]` is client `c`'s acked map from the prior
/// generation (empty maps for a fresh store).
fn run_phase(
    addr: &ServeAddr,
    phase: u64,
    requests: usize,
    shadows: Vec<BTreeMap<StoreKey, (u64, Profile)>>,
) -> Vec<ClientRun> {
    let handles: Vec<_> = shadows
        .into_iter()
        .enumerate()
        .map(|(client, acked)| {
            let addr = addr.clone();
            std::thread::spawn(move || run_client(&addr, client, phase, requests, acked))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect()
}

/// One full daemon life at a given worker count: serve → kill → audit →
/// serve again → graceful shutdown. Returns the transcripts and the final
/// on-disk bytes.
fn soak_at_width(threads: usize) -> (Vec<Vec<String>>, Vec<u8>, Vec<u8>) {
    let tag = format!("smk-soak-w{threads}-{}", std::process::id());
    let dir = std::env::temp_dir().join(&tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = std::env::temp_dir().join(format!("{tag}.sock"));
    let _ = std::fs::remove_file(&sock);
    let addr = ServeAddr::Unix(sock);

    // Generation 1: seeded load, then a simulated crash.
    let server = Server::new(ServerConfig::new(addr.clone(), &dir).with_threads(threads))
        .spawn()
        .expect("gen-1 daemon");
    let phase1 = run_phase(
        server.addr(),
        1,
        PHASE1_REQUESTS,
        vec![BTreeMap::new(); CLIENTS],
    );
    let report = server.kill().expect("gen-1 kill");
    assert!(!report.graceful, "kill is not a graceful stop");
    assert!(report.compaction.is_none(), "a crash compacts nothing");
    assert_eq!(report.stats.quarantined_records, 0);

    // Crash audit: reopen the store cold and verify every acked write of
    // every client survived — the ack IS the durability guarantee.
    {
        let (mut store, replay) = ProfileStore::open(&dir, IDENTITY).expect("post-crash reopen");
        assert_eq!(replay.quarantined_records, 0, "clean kill loses nothing");
        assert!(!replay.torn_tail);
        let mut expected = 0;
        for run in &phase1 {
            expected += run.acked.len();
            for (key, (seq, profile)) in &run.acked {
                let (got_seq, got_profile) = store
                    .get(*key)
                    .expect("audit get")
                    .unwrap_or_else(|| panic!("acked write {key:?} lost in crash"));
                assert_eq!(got_seq, *seq);
                assert_eq!(&*got_profile, profile);
            }
        }
        assert_eq!(store.len(), expected, "no phantom keys either");
    } // drop the audit handle before the next daemon takes the dir

    // Generation 2: a second daemon picks the store back up, serves
    // another wave, and this time retires gracefully.
    let server = Server::new(ServerConfig::new(addr, &dir).with_threads(threads))
        .spawn()
        .expect("gen-2 daemon");
    let phase2 = run_phase(
        server.addr(),
        2,
        PHASE2_REQUESTS,
        phase1.iter().map(|run| run.acked.clone()).collect(),
    );
    let report = server.shutdown().expect("gen-2 shutdown");
    assert!(report.graceful);
    assert!(report.compaction.is_some(), "graceful shutdown compacts");
    assert_eq!(report.stats.quarantined_records, 0);

    let data = std::fs::read(dir.join("profiles.data")).unwrap();
    let index = std::fs::read(dir.join("profiles.idx")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let transcripts = phase1
        .iter()
        .chain(phase2.iter())
        .map(|run| run.transcript.clone())
        .collect();
    (transcripts, data, index)
}

#[test]
fn soak_is_deterministic_across_server_widths() {
    let (transcripts_1, data_1, index_1) = soak_at_width(1);
    assert!(!data_1.is_empty() && !index_1.is_empty());
    assert_eq!(transcripts_1.len(), CLIENTS * 2);
    // The schedule actually exercised the store: phase 1 alone acks at
    // least one write per client (put probability 0.6 over 80 steps).
    for (client, transcript) in transcripts_1.iter().take(CLIENTS).enumerate() {
        assert!(
            transcript.iter().any(|line| line.contains(" put ")),
            "client {client} never put"
        );
    }

    for width in [8usize, 16] {
        let (transcripts, data, index) = soak_at_width(width);
        assert_eq!(
            transcripts, transcripts_1,
            "per-client transcripts diverged at width {width}"
        );
        assert_eq!(
            data, data_1,
            "final data segment not byte-identical at width {width}"
        );
        assert_eq!(
            index, index_1,
            "final index segment not byte-identical at width {width}"
        );
    }
}
