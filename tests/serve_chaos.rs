//! Chaos soak: the serving daemon under *armed* seeded fault plans must
//! keep every acked write, answer the same logical schedule, and leave a
//! byte-identical store — regardless of worker count.
//!
//! This is the PR-9 soak story (`serve_soak.rs`) re-run with the safety
//! rails off. For each width in {1, 8, 16} the same seeded schedule runs
//! with a disk-fault plan (short writes, torn syncs, read bit-flips,
//! EIO) armed inside the store, a net-fault plan (drops, delays, partial
//! frames, resets) armed on every rid-stamped frame, a small read cache,
//! and the background scrubber on. Four `FaultClient`s drive a mixed
//! schedule over disjoint key spaces, the daemon is killed mid-life, the
//! store is cold-audited for lost acked writes, a second generation
//! serves another wave, the quarantine backlog is drained over the wire
//! (`scrub` until `unrepaired == 0`), and a graceful shutdown compacts.
//!
//! Three artifacts must then be identical across widths:
//!
//! 1. every per-client transcript of **final op outcomes** (retries,
//!    dedups, and hedges are the mechanism, not the answer — and the
//!    timing-dependent `stale`/`degraded` flags are deliberately
//!    excluded, since quarantine windows depend on scrubber interleaving),
//! 2. the final compacted data segment,
//! 3. the final index segment.
//!
//! Determinism under chaos holds for the same reason it held clean:
//! request ids are pure functions of the schedule, so every fault
//! decision replays; idempotent `expected_seq` retries make re-sent puts
//! collapse to one state transition; and compaction rewrites the final
//! bytes as a pure function of the surviving map.

use std::collections::BTreeMap;

use smokescreen_bench::serve_client::{
    client_camera, next_rand, sample_profile, FaultClient, RetryPolicy, RetryStats,
};
use smokescreen_core::Profile;
use smokescreen_rt::fault::{DiskFaultPlan, NetFaultPlan};
use smokescreen_serve::{
    ProfileStore, Request, Response, ServeAddr, Server, ServerConfig, StoreKey,
};

const CLIENTS: usize = 4;
const PHASE1_REQUESTS: usize = 80;
const PHASE2_REQUESTS: usize = 40;
const IDENTITY: &str = "smokescreen-serve";
const DISK_SEED: u64 = 0xD15C;
const DISK_RATE: f64 = 0.12;
const NET_SEED: u64 = 0x4E7;
const NET_RATE: f64 = 0.15;

fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        // Generous budget: under these rates an op can eat a dropped
        // request, a reset, AND a store-side write fault back to back.
        max_attempts: 12,
        read_deadline_ms: 100,
        hedge_after_ms: 30,
        ..RetryPolicy::default()
    }
}

/// Everything a client saw, plus the acked writes it is owed.
#[derive(Default)]
struct ClientRun {
    transcript: Vec<String>,
    acked: BTreeMap<StoreKey, (u64, Profile)>,
    stats: RetryStats,
}

/// Drives one client's seeded schedule through the fault-tolerant
/// client. Same schedule shape as the clean soak: put-heavy mix over six
/// grids under the client's own camera. Every op must reach a final
/// outcome — the retry budget losing would fail the test.
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
        stats: RetryStats::default(),
    };
    let camera = client_camera(client);
    let mut rng = 0x5eed_0000 + client as u64 * 131 + phase * 7919;
    let mut fc = FaultClient::new(addr.clone(), camera, chaos_policy());
    for step in 0..requests {
        let grid = 1 + next_rand(&mut rng) % 6;
        let key = StoreKey::new(camera, grid);
        let line = match next_rand(&mut rng) % 10 {
            0..=5 => {
                let profile = sample_profile(grid + phase * 100, 3 + (step % 5));
                let seq = fc.put(key, &profile).expect("put lands within the budget");
                let expected = run.acked.get(&key).map_or(0, |(s, _)| *s) + 1;
                assert_eq!(seq, expected, "client {client} key {key:?}: seqs stay monotone");
                run.acked.insert(key, (seq, profile));
                format!("{step} put {key:?} seq {seq}")
            }
            6 | 7 => match fc.get(key).expect("get lands within the budget") {
                Some(reply) => {
                    let (want_seq, want_profile) =
                        run.acked.get(&key).expect("profile reply implies prior put");
                    assert_eq!(reply.seq, *want_seq);
                    assert_eq!(
                        &reply.profile, want_profile,
                        "get returns the acked bytes even through bit-flips"
                    );
                    format!(
                        "{step} get {key:?} seq {} points {}",
                        reply.seq,
                        reply.profile.points.len()
                    )
                }
                None => {
                    assert!(!run.acked.contains_key(&key));
                    format!("{step} get {key:?} not_found")
                }
            },
            _ => match fc
                .query(key, 0.2, Some(0.8), None, None)
                .expect("query lands within the budget")
            {
                Some(matches) => {
                    let cheapest = matches
                        .first()
                        .map_or("-".to_string(), |p| format!("{:.3}", p.set.sample_fraction));
                    format!("{step} query {key:?} matches {} cheapest {cheapest}", matches.len())
                }
                None => {
                    assert!(!run.acked.contains_key(&key));
                    format!("{step} query {key:?} not_found")
                }
            },
        };
        run.transcript.push(line);
    }
    run.stats = fc.stats;
    run
}

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

fn chaos_config(addr: ServeAddr, dir: &std::path::Path, threads: usize) -> ServerConfig {
    ServerConfig::new(addr, dir)
        .with_threads(threads)
        .with_cache_cap(4)
        .with_scrub_batch(16)
        .with_disk_faults(Some(DiskFaultPlan::new(DISK_SEED, DISK_RATE)))
        .with_net_faults(Some(NetFaultPlan::new(NET_SEED, NET_RATE)))
}

/// Aggregate chaos counters across both generations at one width.
#[derive(Default)]
struct ChaosTotals {
    net_faults: u64,
    disk_faults: u64,
    deduped_puts: u64,
    client_retries: u64,
}

/// One full daemon life under chaos at a given width.
fn chaos_at_width(threads: usize) -> (Vec<Vec<String>>, Vec<u8>, Vec<u8>, ChaosTotals) {
    let tag = format!("smk-chaos-w{threads}-{}", std::process::id());
    let dir = std::env::temp_dir().join(&tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = std::env::temp_dir().join(format!("{tag}.sock"));
    let _ = std::fs::remove_file(&sock);
    let addr = ServeAddr::Unix(sock);
    let mut totals = ChaosTotals::default();

    // Generation 1: seeded load under armed fault plans, then a kill.
    let server = Server::new(chaos_config(addr.clone(), &dir, threads))
        .spawn()
        .expect("gen-1 daemon");
    let phase1 = run_phase(
        server.addr(),
        1,
        PHASE1_REQUESTS,
        vec![BTreeMap::new(); CLIENTS],
    );
    let report = server.kill().expect("gen-1 kill");
    assert!(!report.graceful);
    totals.net_faults += report.stats.net_faults;
    totals.disk_faults += report.stats.disk_write_faults + report.stats.disk_read_faults;
    totals.deduped_puts += report.stats.deduped_puts;
    for run in &phase1 {
        totals.client_retries += run.stats.retries;
    }

    // Crash audit under chaos: reopen the store cold (no fault plan —
    // the audit reads the real bytes) and verify every acked write
    // survived the kill. Injected faults only ever hit unacked attempts
    // (EIO/short-write fail before the ack; read bit-flips corrupt read
    // buffers, never the disk), so the ack remains the durability line.
    {
        let (mut store, _replay) = ProfileStore::open(&dir, IDENTITY).expect("post-kill reopen");
        for run in &phase1 {
            for (key, (seq, profile)) in &run.acked {
                let (got_seq, got_profile) = store
                    .get(*key)
                    .expect("audit get")
                    .unwrap_or_else(|| panic!("acked write {key:?} lost in crash"));
                assert!(
                    got_seq >= *seq,
                    "{key:?}: store at seq {got_seq}, client acked {seq}"
                );
                if got_seq == *seq {
                    assert_eq!(&*got_profile, profile, "acked bytes survive verbatim");
                }
            }
        }
    }

    // Generation 2: same chaos plans, a second wave, then a wire-driven
    // scrub drain and a graceful stop.
    let server = Server::new(chaos_config(addr, &dir, threads))
        .spawn()
        .expect("gen-2 daemon");
    let phase2 = run_phase(
        server.addr(),
        2,
        PHASE2_REQUESTS,
        phase1.iter().map(|run| run.acked.clone()).collect(),
    );
    for run in &phase2 {
        totals.client_retries += run.stats.retries;
    }

    // Drain the quarantine backlog over the wire before stopping: scrub
    // frames carry no rid, so control traffic is never faulted.
    let mut conn = server.addr().connect().expect("scrub connection");
    let mut drained = false;
    for _ in 0..32 {
        match conn
            .request(&Request::Scrub { budget: 64 })
            .expect("scrub answered")
        {
            Response::Scrub { unrepaired, wrapped, .. } => {
                if wrapped && unrepaired == 0 {
                    drained = true;
                    break;
                }
            }
            other => panic!("scrub got {other:?}"),
        }
    }
    assert!(drained, "quarantine backlog failed to drain in 32 scrub steps");

    let report = server.shutdown().expect("gen-2 shutdown");
    assert!(report.graceful);
    // `stats.quarantined_records` is cumulative (healed transients stay
    // counted), so the loss gate is structural instead: the drained
    // scrub above proved zero pending quarantine, and the shutdown
    // compaction must rewrite exactly the union of acked keys — a
    // dropped record would show up as a shortfall here.
    let acked_keys: usize = phase2.iter().map(|run| run.acked.len()).sum();
    let compaction = report.compaction.as_ref().expect("graceful shutdown compacts");
    assert_eq!(
        compaction.live_records, acked_keys,
        "compaction must carry every acked key forward"
    );
    totals.net_faults += report.stats.net_faults;
    totals.disk_faults += report.stats.disk_write_faults + report.stats.disk_read_faults;
    totals.deduped_puts += report.stats.deduped_puts;

    let data = std::fs::read(dir.join("profiles.data")).unwrap();
    let index = std::fs::read(dir.join("profiles.idx")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let transcripts = phase1
        .iter()
        .chain(phase2.iter())
        .map(|run| run.transcript.clone())
        .collect();
    (transcripts, data, index, totals)
}

#[test]
fn chaos_soak_is_deterministic_and_loses_nothing() {
    let (transcripts_1, data_1, index_1, totals_1) = chaos_at_width(1);
    assert!(!data_1.is_empty() && !index_1.is_empty());
    assert_eq!(transcripts_1.len(), CLIENTS * 2);

    // The chaos was real, not vacuously skipped: the seeded plans fired
    // on both the wire and the disk, and the retry layer did work.
    assert!(totals_1.net_faults > 0, "net plan armed but never fired");
    assert!(totals_1.disk_faults > 0, "disk plan armed but never fired");
    assert!(totals_1.client_retries > 0, "chaos without retries is luck");

    for width in [8usize, 16] {
        let (transcripts, data, index, totals) = chaos_at_width(width);
        assert_eq!(
            transcripts, transcripts_1,
            "final-outcome transcripts diverged at width {width}"
        );
        assert_eq!(
            data, data_1,
            "final data segment not byte-identical at width {width}"
        );
        assert_eq!(
            index, index_1,
            "final index segment not byte-identical at width {width}"
        );
        assert!(totals.net_faults > 0 && totals.disk_faults > 0);
    }
}
