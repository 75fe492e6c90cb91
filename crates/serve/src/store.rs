//! Indexed columnar on-disk profile store.
//!
//! The data segment (`profiles.data`) is an [`rt::log`] file, the same
//! format the checkpoint journal uses: the log owns the header, the
//! checksummed record frame, the scan that stops at the first damaged
//! record, and the atomic repair (append + `sync_data` before ack,
//! temp-file + rename for every rewrite, quarantine-never-panic on
//! corruption). The store adds three things on top:
//!
//! * **Keys, not sequences.** Records are keyed by
//!   [`StoreKey`] `{ camera, grid }` — one record per profiled `(f, p, c)`
//!   grid per camera — with a per-key sequence number instead of the
//!   journal's single global index; the log key is the 24 bytes
//!   `camera | grid | seq`. Later sequence wins on replay; a sequence
//!   rewind is corruption.
//! * **A fixed-width index segment** (`profiles.idx`), written atomically
//!   at compaction / clean shutdown. A valid index makes reopen O(live
//!   records) instead of O(data bytes): the map is rebuilt from 44-byte
//!   entries and only the data *tail* beyond the index high-water mark is
//!   scanned. A stale, torn, or bit-rotted index silently degrades to the
//!   full scan — the index is an accelerator, never a source of truth.
//! * **Columnar payloads.** A profile is stored as metadata plus
//!   contiguous per-column arrays (fraction, resolution, class masks,
//!   noise, quality, `y_approx`, `err_b`, sample size, corrected) — see
//!   [`encode_profile`]. Restricted/blurred class lists are canonicalized
//!   to the [`ObjectClass::ALL`] order by the mask representation.
//!
//! Durability contract: a [`ProfileStore::put`] that returns `Ok` has been
//! written and `sync_data`'d — a crash at any later byte cannot lose it
//! (it can only be quarantined by a *subsequent* corruption event, same as
//! `rt::journal`). [`ProfileStore::compact`] rewrites live records sorted
//! by key, so the post-compaction bytes are a pure function of the
//! surviving `(key → profile, seq)` map — the schedule-independence the
//! soak test pins.
//!
//! The chaos additions keep that contract under injected storage faults
//! ([`DiskFaultPlan`], threaded through
//! [`ProfileStore::open_with_options`]): a faulted append is never acked
//! and its torn bytes are truncated before the next append; a corrupted
//! read quarantines the record *with its index entry retained* so repair
//! can re-read it (transient faults heal), re-fetch an earlier intact
//! version from the append log (real rot), or let a fresh put supersede
//! it; and an incremental scrubber ([`ProfileStore::scrub_step`]) walks
//! the live map cross-checking payload checksums so rot is found before
//! a reader trips on it.
//!
//! [`rt::log`]: smokescreen_rt::log

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use smokescreen_core::{Aggregate, Profile, ProfilePoint};
use smokescreen_degrade::InterventionSet;
use smokescreen_rt::fault::{DiskFaultKind, DiskFaultPlan};
use smokescreen_rt::log::{atomic_write, checksum64, read_u32, read_u64, Damage, Frame, LogFormat};
use smokescreen_video::codec::Quality;
use smokescreen_video::{ObjectClass, Resolution};

/// Data file name inside a store directory.
pub const DATA_FILE: &str = "profiles.data";
/// Index file name inside a store directory.
pub const INDEX_FILE: &str = "profiles.idx";

/// On-disk format version for both segments. Bumped on any incompatible
/// layout change; a mismatched file is quarantined wholesale, not misread.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// The data segment's log format. Its 24-byte key makes each frame
/// camera u64 | grid u64 | seq u64 | payload len u32 | payload checksum
/// u64 | header checksum u64 | payload. The header checksum matters more
/// here than in the journal: without it, a bit flip in a key or seq field
/// with the payload intact would silently redirect an acked record.
const DATA_LOG: LogFormat = LogFormat {
    magic: *b"SMKSTOR\0",
    version: STORE_FORMAT_VERSION,
    key_len: 24,
};

/// Record frame header length: a payload starts this far past its frame.
const REC_HEADER_LEN: usize = DATA_LOG.frame_header_len();

/// Index-segment magic.
const IDX_MAGIC: [u8; 8] = *b"SMKSIDX\0";

/// Index header: magic | version u32 | identity checksum u64 | entry
/// count u32 | data high-water u64 | entries checksum u64.
const IDX_HEADER_LEN: usize = 8 + 4 + 8 + 4 + 8 + 8;

/// Index entry: camera u64 | grid u64 | seq u64 | payload offset u64
/// | payload len u32 | payload checksum u64.
const IDX_ENTRY_LEN: usize = 8 + 8 + 8 + 8 + 4 + 8;

/// Upper bound on profile points per record accepted by the decoder; a
/// larger count in a stored payload can only come from corruption.
const MAX_POINTS: u32 = 1 << 22;

/// Default read-cache capacity (records).
pub const DEFAULT_CACHE_CAP: usize = 256;

/// Store key: one record per camera per profiled degradation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey {
    /// Stable camera identifier (see `camera::fleet::CameraId`).
    pub camera: u64,
    /// Grid identifier — a hash of the profiled `(corpus, model, class,
    /// aggregate, δ)` combination (see [`grid_id`]).
    pub grid: u64,
}

impl StoreKey {
    /// Convenience constructor.
    pub const fn new(camera: u64, grid: u64) -> Self {
        StoreKey { camera, grid }
    }
}

/// Stable grid identifier for a profile: a checksum over the canonical
/// `(corpus, model, class, aggregate, δ)` description, so the same logical
/// grid maps to the same key on every machine.
pub fn grid_id(profile: &Profile) -> u64 {
    let desc = format!(
        "{}/{}/{}/{:?}/{}",
        profile.corpus,
        profile.model,
        profile.class.name(),
        profile.aggregate,
        profile.delta
    );
    checksum64(desc.as_bytes())
}

/// What opening a store recovered, mirroring `rt::journal::Replay`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StoreReplay {
    /// Live records after replay (distinct keys).
    pub records: usize,
    /// Records recovered by scanning data bytes — all of them when no
    /// usable index existed, only the tail beyond the index high-water
    /// mark when the index fast path was taken.
    pub scanned_records: usize,
    /// Whether a valid index accelerated the reopen.
    pub index_used: bool,
    /// Corruption events detected and quarantined (each counts once, as in
    /// journal replay: everything after the first damage is discarded).
    pub quarantined_records: usize,
    /// Bytes discarded by quarantine and repair.
    pub quarantined_bytes: u64,
    /// Whether the damage was a torn tail write (mid-frame truncation).
    pub torn_tail: bool,
    /// Whether the data file did not exist and was freshly created.
    pub created: bool,
}

/// Monotonic operation counters, served verbatim by the daemon's `STATS`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StoreStats {
    /// Acked (durable) puts since open.
    pub puts: u64,
    /// Gets since open (hits + misses + not-found).
    pub gets: u64,
    /// Gets served from the read cache.
    pub cache_hits: u64,
    /// Gets that went to disk.
    pub cache_misses: u64,
    /// Records quarantined after open (lazy checksum/decode failures) plus
    /// records dropped by compaction as damaged.
    pub quarantined_records: u64,
    /// Bytes belonging to lazily quarantined records.
    pub quarantined_bytes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Quarantined records restored — by a clean re-read (a transient
    /// read fault healed) or by re-fetching an intact earlier version
    /// from the append log.
    pub repaired_records: u64,
    /// Records whose on-disk payload checksum the scrubber verified.
    pub scrubbed_records: u64,
    /// Complete scrub passes over the live key set.
    pub scrub_passes: u64,
    /// Injected write faults observed on the append path.
    pub disk_write_faults: u64,
    /// Injected read faults observed (corrupted read buffers).
    pub disk_read_faults: u64,
    /// Torn tails truncated back to the last durable offset after a
    /// failed append.
    pub tail_repairs: u64,
}

/// What a compaction accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionReport {
    /// Live records rewritten (key-sorted).
    pub live_records: usize,
    /// Bytes reclaimed from superseded and quarantined records.
    pub reclaimed_bytes: u64,
}

/// What one scrub step (or a full [`ProfileStore::scrub_pass`])
/// accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Live records whose on-disk bytes were re-read this step.
    pub scanned: u64,
    /// Records whose payload checksum verified clean.
    pub verified: u64,
    /// Quarantined records restored (healed re-read or log re-fetch).
    pub repaired: u64,
    /// Records newly quarantined by this step's verification reads.
    pub quarantined: u64,
    /// Records still quarantine-pending when the step finished.
    pub unrepaired: u64,
    /// Whether the incremental cursor completed a full pass and reset.
    pub wrapped: bool,
}

impl ScrubReport {
    /// Folds another step's counts into this report (cursor state —
    /// `wrapped` — is taken from the later step).
    pub fn absorb(&mut self, step: ScrubReport) {
        self.scanned += step.scanned;
        self.verified += step.verified;
        self.repaired += step.repaired;
        self.quarantined += step.quarantined;
        self.unrepaired = step.unrepaired;
        self.wrapped = step.wrapped;
    }
}

/// Why [`ProfileStore::get_outcome`] produced no profile — callers that
/// must distinguish "never stored" from "stored but damage-pending"
/// (degraded-mode serving, retrying clients) branch on this instead of
/// the `Option` the plain [`ProfileStore::get`] flattens to.
#[derive(Debug, Clone)]
pub enum GetOutcome {
    /// The record was served.
    Hit {
        /// Per-key sequence number of the served record.
        seq: u64,
        /// The stored profile.
        profile: Arc<Profile>,
    },
    /// No record has ever been stored under the key.
    Miss,
    /// A record exists but is quarantine-pending: its last read failed
    /// its checksum and repair has not succeeded yet. Retryable — the
    /// scrubber (or the next get) may restore it.
    Quarantined,
}

#[derive(Debug, Clone)]
struct IndexEntry {
    seq: u64,
    /// Payload offset in the data file (record header is the 36 bytes
    /// immediately preceding).
    offset: u64,
    len: u32,
    checksum: u64,
}

impl IndexEntry {
    fn of(seq: u64, frame: &Frame) -> Self {
        IndexEntry {
            seq,
            offset: frame.payload_at as u64,
            len: frame.payload.len() as u32,
            checksum: frame.checksum,
        }
    }
}

/// A record pulled out of the live map by a failed read, awaiting repair.
#[derive(Debug, Clone)]
struct QuarantineSlot {
    entry: IndexEntry,
    /// Failed repair attempts so far; past a threshold the scrubber
    /// falls back to re-fetching an earlier version from the append log.
    repair_attempts: u32,
}

/// Direct re-read failures before the scrubber tries the append-log
/// fallback for a quarantined record.
const LOG_REPAIR_THRESHOLD: u32 = 2;

struct CacheSlot {
    last_use: u64,
    seq: u64,
    profile: Arc<Profile>,
}

/// The decoded profiles of the records read last, at most `cap` of them:
/// past capacity the least recently used slot is evicted, found in
/// `O(log n)` through an index of slots by last use.
struct ReadCache {
    slots: BTreeMap<StoreKey, CacheSlot>,
    /// Every slot's `last_use` with its key, least recently used first.
    by_use: BTreeMap<u64, StoreKey>,
    cap: usize,
    /// The clock `last_use` reads: bumped by every hit and insert.
    tick: u64,
}

impl ReadCache {
    fn new(cap: usize) -> Self {
        ReadCache {
            slots: BTreeMap::new(),
            by_use: BTreeMap::new(),
            cap,
            tick: 0,
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// The cached profile of `key` if it is the record at `seq`, marked
    /// as the most recently used.
    fn get(&mut self, key: StoreKey, seq: u64) -> Option<Arc<Profile>> {
        let slot = self.slots.get_mut(&key).filter(|slot| slot.seq == seq)?;
        self.tick += 1;
        self.by_use.remove(&slot.last_use);
        self.by_use.insert(self.tick, key);
        slot.last_use = self.tick;
        Some(slot.profile.clone())
    }

    /// Caches `profile` as the most recently used entry, evicting the
    /// least recently used past capacity.
    fn insert(&mut self, key: StoreKey, seq: u64, profile: Arc<Profile>) {
        self.tick += 1;
        let slot = CacheSlot { last_use: self.tick, seq, profile };
        if let Some(old) = self.slots.insert(key, slot) {
            self.by_use.remove(&old.last_use);
        }
        self.by_use.insert(self.tick, key);
        while self.slots.len() > self.cap {
            let (_, oldest) = self.by_use.pop_first().expect("a slot per use");
            self.slots.remove(&oldest);
        }
    }

    fn remove(&mut self, key: StoreKey) {
        if let Some(slot) = self.slots.remove(&key) {
            self.by_use.remove(&slot.last_use);
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.by_use.clear();
    }
}

/// An open profile store (single writer; the daemon serializes access).
pub struct ProfileStore {
    dir: PathBuf,
    identity: String,
    /// Append handle; reopened after every atomic rewrite.
    data: File,
    /// Lazily opened read handle, invalidated by compaction.
    read: Option<File>,
    data_len: u64,
    map: BTreeMap<StoreKey, IndexEntry>,
    cache: ReadCache,
    stats: StoreStats,
    /// Set by [`ProfileStore::put_torn`]: the file tail is deliberately
    /// damaged and further appends would write unrecoverable framing.
    poisoned: bool,
    /// Armed disk-fault plan (`None` = clean I/O).
    faults: Option<DiskFaultPlan>,
    /// Records pulled from the live map by failed reads, pending repair.
    quarantined: BTreeMap<StoreKey, QuarantineSlot>,
    /// Append attempts per `(key, seq)` — a retried put rolls a fresh
    /// write-fault decision. Cleared on ack.
    write_attempts: BTreeMap<(StoreKey, u64), u32>,
    /// Read attempts per `(key, seq)` — the counter a transient
    /// [`DiskFaultKind::ReadBitFlip`] heals against. Kept across
    /// compaction so a healed record stays healed.
    read_attempts: BTreeMap<(StoreKey, u64), u32>,
    /// Whether a faulted append left bytes past `data_len` on disk; the
    /// next append (or scrub step) truncates them back first.
    tail_dirty: bool,
    /// Incremental scrub position: the last live key verified, `None`
    /// at the start of a pass.
    scrub_cursor: Option<StoreKey>,
}

impl ProfileStore {
    /// Opens (creating if absent) the store in `dir` for `identity`,
    /// replaying and repairing exactly like `rt::journal::open`: any
    /// quarantine rewrites the valid prefix atomically before the handle
    /// is returned, so appends always continue well-formed framing.
    pub fn open(dir: &Path, identity: &str) -> io::Result<(ProfileStore, StoreReplay)> {
        Self::open_with_cache(dir, identity, DEFAULT_CACHE_CAP)
    }

    /// [`ProfileStore::open`] with an explicit read-cache capacity.
    pub fn open_with_cache(
        dir: &Path,
        identity: &str,
        cache_cap: usize,
    ) -> io::Result<(ProfileStore, StoreReplay)> {
        Self::open_with_options(dir, identity, cache_cap, None)
    }

    /// [`ProfileStore::open`] with an explicit read-cache capacity and an
    /// optional armed [`DiskFaultPlan`] injected behind the store's I/O
    /// seams. Recovery itself always runs clean — the plan models the
    /// live append/read path, not the platter, so a cold audit of the
    /// same directory sees the true bytes.
    pub fn open_with_options(
        dir: &Path,
        identity: &str,
        cache_cap: usize,
        faults: Option<DiskFaultPlan>,
    ) -> io::Result<(ProfileStore, StoreReplay)> {
        std::fs::create_dir_all(dir)?;
        let data_path = dir.join(DATA_FILE);
        let idx_path = dir.join(INDEX_FILE);
        let mut replay = StoreReplay::default();
        let mut map = BTreeMap::new();
        let opened = DATA_LOG.open(&data_path, identity, |bytes, header_len| {
            let from = match load_index(&idx_path, identity, bytes, header_len, &mut map) {
                Some(high_water) => {
                    replay.index_used = true;
                    high_water as usize
                }
                None => header_len,
            };
            DATA_LOG.scan(bytes, from, |frame| {
                let (key, seq) = parse_record_key(frame.key);
                // Per-key sequences only advance; a rewind means these
                // bytes are not an append stream we wrote.
                if seq == 0 || map.get(&key).is_some_and(|prev| seq <= prev.seq) {
                    return false;
                }
                map.insert(key, IndexEntry::of(seq, frame));
                replay.scanned_records += 1;
                true
            })
        })?;
        if opened.created || opened.damage == Some(Damage::Header) {
            // A fresh data segment: no old index entry can describe it.
            let _ = std::fs::remove_file(&idx_path);
        }
        replay.created = opened.created;
        replay.quarantined_records = opened.damage.is_some() as usize;
        replay.quarantined_bytes = opened.quarantined_bytes;
        replay.torn_tail = opened.damage == Some(Damage::Torn);
        replay.records = map.len();
        Ok((
            ProfileStore {
                dir: dir.to_path_buf(),
                identity: identity.to_string(),
                data: opened.file,
                read: None,
                data_len: opened.len,
                map,
                cache: ReadCache::new(cache_cap),
                stats: StoreStats::default(),
                poisoned: false,
                faults,
                quarantined: BTreeMap::new(),
                write_attempts: BTreeMap::new(),
                read_attempts: BTreeMap::new(),
                tail_dirty: false,
                scrub_cursor: None,
            },
            replay,
        ))
    }

    /// Path of the data segment.
    pub fn data_path(&self) -> PathBuf {
        self.dir.join(DATA_FILE)
    }

    /// Path of the index segment.
    pub fn index_path(&self) -> PathBuf {
        self.dir.join(INDEX_FILE)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no live records.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Live keys in sorted order.
    pub fn keys(&self) -> Vec<StoreKey> {
        self.map.keys().copied().collect()
    }

    /// Current sequence number for `key` (0 = absent). A
    /// quarantine-pending record still owns its sequence number — per-key
    /// seqs must stay monotone even while its bytes are under repair.
    pub fn seq(&self, key: StoreKey) -> u64 {
        let live = self.map.get(&key).map_or(0, |e| e.seq);
        let pending = self.quarantined.get(&key).map_or(0, |s| s.entry.seq);
        live.max(pending)
    }

    /// Number of records currently quarantine-pending (awaiting repair).
    pub fn quarantine_pending(&self) -> usize {
        self.quarantined.len()
    }

    /// Data segment size in bytes (header + all appended frames).
    pub fn data_bytes(&self) -> u64 {
        self.data_len
    }

    /// Operation counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Stores `profile` under `key` durably and returns the new per-key
    /// sequence number. When this returns `Ok`, the record has been
    /// `sync_data`'d — the ack IS the durability guarantee. Under an
    /// armed fault plan an append may fail with a torn tail or `EIO`;
    /// the write is then *not* acked, the torn bytes are truncated
    /// before the next append, and a retry (same key + seq, next
    /// attempt) rolls a fresh fault decision. A successful put for a
    /// quarantine-pending key supersedes the damaged record and clears
    /// its quarantine slot.
    pub fn put(&mut self, key: StoreKey, profile: &Profile) -> io::Result<u64> {
        debug_assert!(!self.poisoned, "store poisoned by put_torn");
        self.repair_tail()?;
        let payload = encode_profile(profile);
        let seq = self.seq(key) + 1;
        let frame = DATA_LOG.frame(&record_key(key, seq), &payload);
        if let Some(plan) = self.faults {
            let attempt = self.write_attempts.entry((key, seq)).or_insert(0);
            *attempt += 1;
            if let Some(kind) = plan.write_fault(op_key(key, seq, *attempt)) {
                self.stats.disk_write_faults += 1;
                return Err(self.inject_write_fault(kind, &frame));
            }
        }
        self.data.write_all(&frame)?;
        self.data.sync_data()?;
        let offset = self.data_len + REC_HEADER_LEN as u64;
        self.data_len += frame.len() as u64;
        self.write_attempts.remove(&(key, seq));
        if self.quarantined.remove(&key).is_some() {
            // The new version replaces the damaged record outright — a
            // re-put IS a repair.
            self.stats.repaired_records += 1;
        }
        self.map.insert(
            key,
            IndexEntry {
                seq,
                offset,
                len: payload.len() as u32,
                checksum: checksum64(&payload),
            },
        );
        self.cache.insert(key, seq, Arc::new(profile.clone()));
        self.stats.puts += 1;
        Ok(seq)
    }

    /// Applies a scheduled write fault: writes whatever prefix of the
    /// frame the fault lets through, marks the tail dirty, and returns
    /// the error the caller surfaces instead of an ack.
    fn inject_write_fault(&mut self, kind: DiskFaultKind, frame: &[u8]) -> io::Error {
        let err =
            |what: &str| io::Error::new(io::ErrorKind::Other, format!("injected disk fault: {what}"));
        match kind {
            DiskFaultKind::Eio => err("EIO before any byte"),
            DiskFaultKind::ShortWrite { keep_frac } => {
                let keep = ((frame.len() as f64 * keep_frac) as usize)
                    .min(frame.len().saturating_sub(1));
                if self.data.write_all(&frame[..keep]).is_ok() {
                    let _ = self.data.sync_data();
                    self.tail_dirty = true;
                }
                err("short write (torn tail)")
            }
            DiskFaultKind::TornSync => {
                // The frame reaches the file but the sync "fails": the
                // bytes are not durable, so the ack is withheld and the
                // tail treated as torn.
                if self.data.write_all(frame).is_ok() {
                    self.tail_dirty = true;
                }
                err("sync failed after append")
            }
            DiskFaultKind::ReadBitFlip { .. } => {
                unreachable!("write stream never schedules read faults")
            }
        }
    }

    /// Truncates any torn bytes a faulted append left past the last
    /// durable offset, restoring the invariant that appends always
    /// continue well-formed framing.
    fn repair_tail(&mut self) -> io::Result<()> {
        if !self.tail_dirty {
            return Ok(());
        }
        self.data.set_len(self.data_len)?;
        self.data.sync_data()?;
        self.tail_dirty = false;
        self.stats.tail_repairs += 1;
        Ok(())
    }

    /// Deliberately writes a *torn* record — frame header plus a prefix of
    /// the payload — simulating a crash mid-append for the seeded crash
    /// tests (mirrors `JournalWriter::append_torn`). The write is never
    /// acked: the map is not updated, and the store must not be appended
    /// to afterwards; reopen will quarantine the tail.
    pub fn put_torn(&mut self, key: StoreKey, profile: &Profile, keep_frac: f64) -> io::Result<()> {
        let payload = encode_profile(profile);
        let seq = self.seq(key) + 1;
        let frame = DATA_LOG.frame(&record_key(key, seq), &payload);
        let torn = DATA_LOG.torn_prefix(&frame, keep_frac);
        self.data.write_all(torn)?;
        self.data.sync_data()?;
        self.data_len += torn.len() as u64;
        self.poisoned = true;
        Ok(())
    }

    /// Fetches the profile stored under `key`. Returns the per-key
    /// sequence number alongside the profile. A record whose payload fails
    /// its checksum or decode is **quarantined** — removed from the map
    /// with counters bumped — and reported as absent, never panicked on.
    /// Callers that must tell "absent" from "quarantine-pending" use
    /// [`ProfileStore::get_outcome`].
    pub fn get(&mut self, key: StoreKey) -> io::Result<Option<(u64, Arc<Profile>)>> {
        Ok(match self.get_outcome(key)? {
            GetOutcome::Hit { seq, profile } => Some((seq, profile)),
            GetOutcome::Miss | GetOutcome::Quarantined => None,
        })
    }

    /// [`ProfileStore::get`] with a typed outcome. A get on a
    /// quarantine-pending key first attempts one direct repair (the
    /// re-read heals a transient read fault), so degraded keys recover
    /// on the read path itself, not only via the scrubber.
    pub fn get_outcome(&mut self, key: StoreKey) -> io::Result<GetOutcome> {
        self.stats.gets += 1;
        if self.quarantined.contains_key(&key) {
            return Ok(match self.try_repair_direct(key)? {
                Some((seq, profile)) => GetOutcome::Hit { seq, profile },
                None => GetOutcome::Quarantined,
            });
        }
        let entry = match self.map.get(&key) {
            Some(e) => e.clone(),
            None => return Ok(GetOutcome::Miss),
        };
        if let Some(profile) = self.cache.get(key, entry.seq) {
            self.stats.cache_hits += 1;
            return Ok(GetOutcome::Hit {
                seq: entry.seq,
                profile,
            });
        }
        self.stats.cache_misses += 1;
        let payload = match self.read_payload(key, &entry)? {
            Some(p) => p,
            None => {
                self.quarantine_key(key);
                return Ok(GetOutcome::Quarantined);
            }
        };
        match decode_profile(&payload) {
            Ok(profile) => {
                let profile = Arc::new(profile);
                self.cache.insert(key, entry.seq, profile.clone());
                Ok(GetOutcome::Hit {
                    seq: entry.seq,
                    profile,
                })
            }
            Err(_) => {
                self.quarantine_key(key);
                Ok(GetOutcome::Quarantined)
            }
        }
    }

    /// Reads `entry`'s payload bytes from disk and verifies the checksum;
    /// `Ok(None)` means the buffer failed verification (corrupt on disk,
    /// or corrupted in flight by an injected read fault). Each call
    /// advances the per-record read-attempt counter that transient
    /// bit-flips heal against.
    fn read_payload(&mut self, key: StoreKey, entry: &IndexEntry) -> io::Result<Option<Vec<u8>>> {
        let file = match &self.read {
            Some(file) => file,
            None => self.read.insert(File::open(self.data_path())?),
        };
        // One positioned read, no seek: a short read is a torn record.
        let mut payload = vec![0u8; entry.len as usize];
        if file.read_exact_at(&mut payload, entry.offset).is_err() {
            return Ok(None);
        }
        if let Some(plan) = self.faults {
            let attempt = self.read_attempts.entry((key, entry.seq)).or_insert(0);
            *attempt += 1;
            if let Some(DiskFaultKind::ReadBitFlip { heals_after }) =
                plan.read_fault(op_key(key, entry.seq, 0))
            {
                if *attempt <= heals_after && !payload.is_empty() {
                    let at = (op_key(key, entry.seq, *attempt) as usize) % payload.len();
                    payload[at] ^= 0x01;
                    self.stats.disk_read_faults += 1;
                }
            }
        }
        if checksum64(&payload) != entry.checksum {
            return Ok(None);
        }
        Ok(Some(payload))
    }

    /// One direct repair attempt for a quarantined key: re-read the same
    /// bytes and restore the record if they verify and decode — which is
    /// exactly what heals a transient read-path fault. Returns the
    /// restored record on success.
    fn try_repair_direct(
        &mut self,
        key: StoreKey,
    ) -> io::Result<Option<(u64, Arc<Profile>)>> {
        let entry = match self.quarantined.get(&key) {
            Some(slot) => slot.entry.clone(),
            None => return Ok(None),
        };
        let restored = self
            .read_payload(key, &entry)?
            .and_then(|payload| decode_profile(&payload).ok());
        match restored {
            Some(profile) => {
                self.quarantined.remove(&key);
                self.map.insert(key, entry.clone());
                self.stats.repaired_records += 1;
                let profile = Arc::new(profile);
                self.cache.insert(key, entry.seq, profile.clone());
                Ok(Some((entry.seq, profile)))
            }
            None => {
                if let Some(slot) = self.quarantined.get_mut(&key) {
                    slot.repair_attempts += 1;
                }
                Ok(None)
            }
        }
    }

    /// Append-log fallback for a record whose bytes are damaged on disk:
    /// walk the data segment's frames — header checksums make
    /// payload-damaged frames skippable — and restore the newest intact
    /// earlier version of `key`. The caller must compact afterwards:
    /// until the damaged frame is rewritten out, a crash-reopen scan
    /// would stop at it and lose everything appended later.
    fn try_repair_log(&mut self, key: StoreKey) -> io::Result<bool> {
        let slot = match self.quarantined.get(&key) {
            Some(s) => s.clone(),
            None => return Ok(false),
        };
        let bytes = std::fs::read(self.data_path())?;
        let mut best: Option<IndexEntry> = None;
        for frame in DATA_LOG.frames(&bytes, DATA_LOG.header_len(&self.identity)) {
            let (frame_key, seq) = parse_record_key(frame.key);
            if frame_key == key
                && seq <= slot.entry.seq
                && frame.payload_at as u64 != slot.entry.offset
                && frame.intact()
                && decode_profile(frame.payload).is_ok()
                && best.as_ref().is_none_or(|b| seq >= b.seq)
            {
                best = Some(IndexEntry::of(seq, &frame));
            }
        }
        match best {
            Some(entry) => {
                self.quarantined.remove(&key);
                self.map.insert(key, entry);
                self.stats.repaired_records += 1;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Moves a key's live entry into the quarantine map with counters —
    /// the record stops being served (and counted in [`len`](Self::len))
    /// until a repair restores it.
    fn quarantine_key(&mut self, key: StoreKey) {
        if let Some(e) = self.map.remove(&key) {
            self.stats.quarantined_bytes += REC_HEADER_LEN as u64 + e.len as u64;
            self.quarantined.insert(
                key,
                QuarantineSlot {
                    entry: e,
                    repair_attempts: 0,
                },
            );
        }
        self.cache.remove(key);
        self.stats.quarantined_records += 1;
    }

    /// One incremental scrub step: repair everything quarantine-pending,
    /// then re-read and checksum-verify up to `budget` live records past
    /// the cursor. Records that fail verification are quarantined (with
    /// counts) and immediately given one repair attempt. Repeatedly
    /// quarantined records fall back to the append-log re-fetch, which
    /// forces a compaction so the damaged frame cannot strand a future
    /// crash-reopen scan.
    pub fn scrub_step(&mut self, budget: usize) -> io::Result<ScrubReport> {
        self.repair_tail()?;
        let budget = budget.max(1);
        let mut report = ScrubReport::default();
        let mut log_repaired = false;
        for key in self.quarantined.keys().copied().collect::<Vec<_>>() {
            if self.try_repair_direct(key)?.is_some() {
                report.repaired += 1;
                continue;
            }
            let attempts = self.quarantined.get(&key).map_or(0, |s| s.repair_attempts);
            if attempts >= LOG_REPAIR_THRESHOLD && self.try_repair_log(key)? {
                report.repaired += 1;
                log_repaired = true;
            }
        }
        let keys: Vec<StoreKey> = match self.scrub_cursor {
            None => self.map.keys().take(budget).copied().collect(),
            Some(cur) => self
                .map
                .range((Bound::Excluded(cur), Bound::Unbounded))
                .take(budget)
                .map(|(k, _)| *k)
                .collect(),
        };
        for key in &keys {
            let entry = match self.map.get(key) {
                Some(e) => e.clone(),
                None => continue,
            };
            report.scanned += 1;
            if self.read_payload(*key, &entry)?.is_some() {
                report.verified += 1;
                self.stats.scrubbed_records += 1;
            } else {
                self.quarantine_key(*key);
                report.quarantined += 1;
                if self.try_repair_direct(*key)?.is_some() {
                    report.repaired += 1;
                }
            }
        }
        self.scrub_cursor = keys.last().copied();
        if keys.len() < budget {
            self.scrub_cursor = None;
            report.wrapped = true;
            self.stats.scrub_passes += 1;
        }
        if log_repaired {
            self.compact()?;
        }
        report.unrepaired = self.quarantined.len() as u64;
        Ok(report)
    }

    /// Runs scrub steps until a full pass over the live key set
    /// completes, folding the step reports together.
    pub fn scrub_pass(&mut self) -> io::Result<ScrubReport> {
        let mut report = ScrubReport::default();
        loop {
            let step = self.scrub_step(64)?;
            report.absorb(step);
            if step.wrapped {
                return Ok(report);
            }
        }
    }

    /// Rewrites the data segment with only live records, **sorted by
    /// key**, and writes a fresh index atomically. After compaction the
    /// on-disk bytes are a pure function of the live `(key, seq, profile)`
    /// map — independent of the append order that produced it.
    pub fn compact(&mut self) -> io::Result<CompactionReport> {
        // Drain the quarantine first: transient read faults heal on
        // re-read, so injected damage never survives into the compacted
        // bytes. Whatever stays damaged after the attempts below is real
        // rot — dropped with counts, never carried forward.
        for _ in 0..4 {
            if self.quarantined.is_empty() {
                break;
            }
            let mut progressed = false;
            for key in self.quarantined.keys().copied().collect::<Vec<_>>() {
                if self.try_repair_direct(key)?.is_some() {
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        self.quarantined.clear();
        let data = std::fs::read(self.data_path())?;
        let mut out = Vec::with_capacity(data.len());
        out.extend_from_slice(&DATA_LOG.header(&self.identity));
        let mut new_map = BTreeMap::new();
        for (key, e) in &self.map {
            let start = e.offset as usize;
            let end = start + e.len as usize;
            let payload = data.get(start..end).unwrap_or(&[]);
            if checksum64(payload) != e.checksum {
                // Bit-rot discovered while compacting: drop the record
                // with counts, never carry damage forward.
                self.stats.quarantined_records += 1;
                self.stats.quarantined_bytes += REC_HEADER_LEN as u64 + e.len as u64;
                continue;
            }
            let offset = (out.len() + REC_HEADER_LEN) as u64;
            out.extend_from_slice(&DATA_LOG.frame(&record_key(*key, e.seq), payload));
            new_map.insert(*key, IndexEntry { offset, ..e.clone() });
        }
        atomic_write(&self.data_path(), &out)?;
        let reclaimed = self.data_len.saturating_sub(out.len() as u64);
        self.data_len = out.len() as u64;
        self.map = new_map;
        self.write_index()?;
        // The rename replaced the inode: reopen both handles.
        self.data = OpenOptions::new().append(true).open(self.data_path())?;
        self.read = None;
        self.cache.clear();
        // The rewrite dropped any torn tail along with the old inode.
        self.tail_dirty = false;
        self.scrub_cursor = None;
        self.stats.compactions += 1;
        Ok(CompactionReport {
            live_records: self.map.len(),
            reclaimed_bytes: reclaimed,
        })
    }

    /// Writes the index segment for the current map atomically.
    fn write_index(&self) -> io::Result<()> {
        let mut entries = Vec::with_capacity(self.map.len() * IDX_ENTRY_LEN);
        for (key, e) in &self.map {
            entries.extend_from_slice(&record_key(*key, e.seq));
            entries.extend_from_slice(&e.offset.to_le_bytes());
            entries.extend_from_slice(&e.len.to_le_bytes());
            entries.extend_from_slice(&e.checksum.to_le_bytes());
        }
        let mut buf = Vec::with_capacity(IDX_HEADER_LEN + entries.len());
        buf.extend_from_slice(&IDX_MAGIC);
        buf.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&checksum64(self.identity.as_bytes()).to_le_bytes());
        buf.extend_from_slice(&(self.map.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.data_len.to_le_bytes());
        buf.extend_from_slice(&checksum64(&entries).to_le_bytes());
        buf.extend_from_slice(&entries);
        atomic_write(&self.index_path(), &buf)
    }

}

/// The data-log key of a record: camera | grid | seq.
fn record_key(key: StoreKey, seq: u64) -> [u8; 24] {
    let mut out = [0u8; 24];
    out[..8].copy_from_slice(&key.camera.to_le_bytes());
    out[8..16].copy_from_slice(&key.grid.to_le_bytes());
    out[16..].copy_from_slice(&seq.to_le_bytes());
    out
}

/// Inverse of [`record_key`].
fn parse_record_key(raw: &[u8]) -> (StoreKey, u64) {
    (StoreKey::new(read_u64(raw, 0), read_u64(raw, 8)), read_u64(raw, 16))
}

/// Folds a record identity (and attempt ordinal) into the 64-bit
/// operation key the disk-fault plan decides on. Write ops key on
/// `(key, seq, attempt)` so a retried append rolls a fresh decision;
/// read ops key on `(key, seq, 0)` so every reader of a record sees the
/// same scheduled fate (healing is the attempt counter's job).
pub(crate) fn op_key(key: StoreKey, seq: u64, attempt: u32) -> u64 {
    let mut x = key.camera.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= key.grid.rotate_left(21);
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ seq.rotate_left(42);
    x.wrapping_mul(0x94D0_49BB_1331_11EB) ^ attempt as u64
}

/// Attempts the index fast path: returns the data high-water mark to scan
/// from when the index is valid and consistent with `data`, `None` to
/// fall back to a full scan. Every entry's record header is cross-checked
/// against the data bytes, so a stale or rotted index can never inject a
/// record the data segment does not carry.
fn load_index(
    idx_path: &Path,
    identity: &str,
    data: &[u8],
    data_header_len: usize,
    map: &mut BTreeMap<StoreKey, IndexEntry>,
) -> Option<u64> {
    let bytes = std::fs::read(idx_path).ok()?;
    if bytes.len() < IDX_HEADER_LEN
        || bytes[..8] != IDX_MAGIC
        || read_u32(&bytes, 8) != STORE_FORMAT_VERSION
        || read_u64(&bytes, 12) != checksum64(identity.as_bytes())
    {
        return None;
    }
    let count = read_u32(&bytes, 20) as usize;
    let high_water = read_u64(&bytes, 24);
    let entries_sum = read_u64(&bytes, 32);
    if bytes.len() != IDX_HEADER_LEN + count * IDX_ENTRY_LEN
        || high_water < data_header_len as u64
        || high_water > data.len() as u64
    {
        return None;
    }
    let entries = &bytes[IDX_HEADER_LEN..];
    if checksum64(entries) != entries_sum {
        return None;
    }
    // Entries may only describe frames below the high-water mark.
    let indexed = &data[..high_water as usize];
    let mut loaded = BTreeMap::new();
    for entry in entries.chunks_exact(IDX_ENTRY_LEN) {
        let (key, seq) = parse_record_key(&entry[..24]);
        let offset = read_u64(entry, 24);
        let len = read_u32(entry, 32);
        let sum = read_u64(entry, 36);
        // Checked: an index with a valid checksum can still carry any
        // offset, and it must fall back to the scan, never panic.
        let rec = usize::try_from(offset)
            .ok()?
            .checked_sub(REC_HEADER_LEN)
            .filter(|&rec| rec >= data_header_len)?;
        let frame = DATA_LOG.frame_at(indexed, rec).ok()?;
        if seq == 0
            || frame.key != &entry[..24]
            || frame.payload.len() != len as usize
            || frame.checksum != sum
        {
            return None;
        }
        let prev = loaded.insert(
            key,
            IndexEntry {
                seq,
                offset,
                len,
                checksum: sum,
            },
        );
        if prev.is_some() {
            return None; // duplicate key in an index is corruption
        }
    }
    *map = loaded;
    Some(high_water)
}

// ---------------------------------------------------------------------------
// Columnar profile codec
// ---------------------------------------------------------------------------

/// Encodes a profile into the columnar payload layout:
///
/// ```text
/// corpus len u32 | corpus bytes | model len u32 | model bytes
/// class u8 | aggregate tag u8 | aggregate param f64 | delta f64
/// n_points u32
/// fraction f64×n | res_w u32×n | res_h u32×n (0,0 = native)
/// restricted mask u8×n | blurred mask u8×n
/// noise f64×n | quality f64×n (-1 = none)
/// y_approx f64×n | err_b f64×n | n u64×n | corrected u8×n
/// ```
///
/// Restricted/blurred class lists are represented as bitmasks over
/// [`ObjectClass::ALL`], which canonicalizes their order and drops
/// duplicates; everything else round-trips exactly.
pub fn encode_profile(p: &Profile) -> Vec<u8> {
    let pts = &p.points;
    let mut buf = Vec::with_capacity(64 + pts.len() * 54);
    put_str(&mut buf, &p.corpus);
    put_str(&mut buf, &p.model);
    buf.push(class_index(p.class));
    let (tag, param) = aggregate_tag(&p.aggregate);
    buf.push(tag);
    buf.extend_from_slice(&param.to_le_bytes());
    buf.extend_from_slice(&p.delta.to_le_bytes());
    buf.extend_from_slice(&(pts.len() as u32).to_le_bytes());
    for pt in pts {
        buf.extend_from_slice(&pt.set.sample_fraction.to_le_bytes());
    }
    for pt in pts {
        buf.extend_from_slice(&pt.set.resolution.map_or(0, |r| r.width).to_le_bytes());
    }
    for pt in pts {
        buf.extend_from_slice(&pt.set.resolution.map_or(0, |r| r.height).to_le_bytes());
    }
    for pt in pts {
        buf.push(class_mask(&pt.set.restricted));
    }
    for pt in pts {
        buf.push(class_mask(&pt.set.blurred));
    }
    for pt in pts {
        buf.extend_from_slice(&pt.set.noise.to_le_bytes());
    }
    for pt in pts {
        buf.extend_from_slice(&pt.set.quality.map_or(-1.0, |q| q.value()).to_le_bytes());
    }
    for pt in pts {
        buf.extend_from_slice(&pt.y_approx.to_le_bytes());
    }
    for pt in pts {
        buf.extend_from_slice(&pt.err_b.to_le_bytes());
    }
    for pt in pts {
        buf.extend_from_slice(&(pt.n as u64).to_le_bytes());
    }
    for pt in pts {
        buf.push(pt.corrected as u8);
    }
    buf
}

/// Decodes a columnar payload, validating every field with the same
/// defense-in-depth the JSON profile codec applies: this decoder runs on
/// replayed storage bytes, so anything out of range is corruption to
/// reject, never data to propagate.
pub fn decode_profile(bytes: &[u8]) -> Result<Profile, String> {
    let mut cur = Cursor { bytes, pos: 0 };
    let corpus = cur.take_str()?;
    let model = cur.take_str()?;
    let class = class_from_index(cur.take_u8()?)?;
    let tag = cur.take_u8()?;
    let param = cur.take_f64()?;
    let aggregate = aggregate_from_tag(tag, param)?;
    let delta = cur.take_f64()?;
    if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
        return Err(format!("delta {delta} is not a confidence parameter"));
    }
    let n = cur.take_u32()?;
    if n > MAX_POINTS {
        return Err(format!("point count {n} exceeds limit"));
    }
    let n = n as usize;
    let fractions = cur.take_f64s(n)?;
    let res_w = cur.take_u32s(n)?;
    let res_h = cur.take_u32s(n)?;
    let restricted = cur.take_bytes(n)?.to_vec();
    let blurred = cur.take_bytes(n)?.to_vec();
    let noise = cur.take_f64s(n)?;
    let quality = cur.take_f64s(n)?;
    let y_approx = cur.take_f64s(n)?;
    let err_b = cur.take_f64s(n)?;
    let samples = cur.take_u64s(n)?;
    let corrected = cur.take_bytes(n)?.to_vec();
    if cur.pos != bytes.len() {
        return Err("trailing bytes after columns".into());
    }

    let mut points = Vec::with_capacity(n);
    for i in 0..n {
        let f = fractions[i];
        if !f.is_finite() || !(0.0..=1.0).contains(&f) {
            return Err(format!("sample fraction {f} out of range"));
        }
        let resolution = match (res_w[i], res_h[i]) {
            (0, 0) => None,
            (0, _) | (_, 0) => return Err("one-sided resolution".into()),
            (w, h) => Some(Resolution::new(w, h)),
        };
        let nz = noise[i];
        if !nz.is_finite() || !(0.0..=1.0).contains(&nz) {
            return Err(format!("noise {nz} out of range"));
        }
        let q = quality[i];
        let quality_i = if q == -1.0 {
            None
        } else if q.is_finite() && (0.0..=1.0).contains(&q) {
            Some(Quality::new(q))
        } else {
            return Err(format!("quality {q} out of range"));
        };
        let y = y_approx[i];
        if !y.is_finite() {
            return Err("y_approx is not finite".into());
        }
        let e = err_b[i];
        if !e.is_finite() || e < 0.0 {
            return Err(format!("err_b {e} is not a valid bound"));
        }
        if corrected[i] > 1 {
            return Err("corrected flag is not boolean".into());
        }
        points.push(ProfilePoint {
            set: InterventionSet {
                sample_fraction: f,
                resolution,
                restricted: classes_from_mask(restricted[i])?,
                blurred: classes_from_mask(blurred[i])?,
                noise: nz,
                quality: quality_i,
            },
            y_approx: y,
            err_b: e,
            corrected: corrected[i] == 1,
            n: samples[i] as usize,
        });
    }
    Ok(Profile {
        corpus,
        model,
        class,
        aggregate,
        delta,
        points,
    })
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn class_index(class: ObjectClass) -> u8 {
    ObjectClass::ALL
        .iter()
        .position(|c| *c == class)
        .expect("class in ALL") as u8
}

fn class_from_index(idx: u8) -> Result<ObjectClass, String> {
    ObjectClass::ALL
        .get(idx as usize)
        .copied()
        .ok_or_else(|| format!("class index {idx} out of range"))
}

fn class_mask(classes: &[ObjectClass]) -> u8 {
    ObjectClass::ALL
        .iter()
        .enumerate()
        .fold(0u8, |m, (i, c)| {
            if classes.contains(c) {
                m | (1 << i)
            } else {
                m
            }
        })
}

fn classes_from_mask(mask: u8) -> Result<Vec<ObjectClass>, String> {
    if mask >= 1 << ObjectClass::ALL.len() {
        return Err(format!("class mask {mask:#x} has unknown bits"));
    }
    Ok(ObjectClass::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, c)| *c)
        .collect())
}

fn aggregate_tag(a: &Aggregate) -> (u8, f64) {
    match a {
        Aggregate::Avg => (0, 0.0),
        Aggregate::Sum => (1, 0.0),
        Aggregate::Var => (2, 0.0),
        Aggregate::Count { at_least } => (3, *at_least),
        Aggregate::Max { r } => (4, *r),
        Aggregate::Min { r } => (5, *r),
        Aggregate::Quantile { r } => (6, *r),
    }
}

fn aggregate_from_tag(tag: u8, param: f64) -> Result<Aggregate, String> {
    let quantile_ok = param.is_finite() && param > 0.0 && param < 1.0;
    match tag {
        0 => Ok(Aggregate::Avg),
        1 => Ok(Aggregate::Sum),
        2 => Ok(Aggregate::Var),
        3 if param.is_finite() => Ok(Aggregate::Count { at_least: param }),
        4 if quantile_ok => Ok(Aggregate::Max { r: param }),
        5 if quantile_ok => Ok(Aggregate::Min { r: param }),
        6 if quantile_ok => Ok(Aggregate::Quantile { r: param }),
        _ => Err(format!("aggregate tag {tag} / param {param} invalid")),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("payload truncated")?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take_bytes(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take_bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(
            self.take_bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn take_str(&mut self) -> Result<String, String> {
        let len = self.take_u32()? as usize;
        if len > 4096 {
            return Err(format!("string length {len} exceeds limit"));
        }
        String::from_utf8(self.take_bytes(len)?.to_vec()).map_err(|_| "invalid utf-8".into())
    }

    fn take_u32s(&mut self, n: usize) -> Result<Vec<u32>, String> {
        let raw = self.take_bytes(n * 4)?;
        Ok((0..n).map(|i| read_u32(raw, i * 4)).collect())
    }

    fn take_u64s(&mut self, n: usize) -> Result<Vec<u64>, String> {
        let raw = self.take_bytes(n * 8)?;
        Ok((0..n).map(|i| read_u64(raw, i * 8)).collect())
    }

    fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let raw = self.take_bytes(n * 8)?;
        Ok((0..n)
            .map(|i| f64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().expect("8 bytes")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smokescreen-store-tests-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_profile(tag: u64) -> Profile {
        let mut points = Vec::new();
        for i in 0..4u64 {
            let mut set = InterventionSet::sampling(0.1 + 0.2 * i as f64);
            if i % 2 == 0 {
                set.resolution = Some(Resolution::square(128 + 64 * i as u32));
            }
            if i == 1 {
                set.restricted = vec![ObjectClass::Person, ObjectClass::Face];
                set.blurred = vec![ObjectClass::Face];
            }
            if i == 3 {
                set.noise = 0.25;
                set.quality = Some(Quality::new(0.5));
            }
            points.push(ProfilePoint {
                set,
                y_approx: 1.5 + tag as f64 + i as f64,
                err_b: 0.01 * (i + 1) as f64,
                corrected: i == 3,
                n: 100 * (tag as usize + 1),
            });
        }
        Profile {
            corpus: format!("corpus-{tag}"),
            model: "oracle".into(),
            class: ObjectClass::Car,
            aggregate: Aggregate::Count { at_least: 1.0 },
            delta: 0.05,
            points,
        }
    }

    #[test]
    fn codec_round_trips_exactly() {
        let p = sample_profile(7);
        let bytes = encode_profile(&p);
        let back = decode_profile(&bytes).unwrap();
        assert_eq!(p, back);
        // All aggregate shapes survive.
        for agg in [
            Aggregate::Avg,
            Aggregate::Sum,
            Aggregate::Var,
            Aggregate::Max { r: 0.99 },
            Aggregate::Min { r: 0.01 },
            Aggregate::Quantile { r: 0.5 },
        ] {
            let mut q = sample_profile(1);
            q.aggregate = agg;
            assert_eq!(decode_profile(&encode_profile(&q)).unwrap(), q);
        }
    }

    #[test]
    fn codec_rejects_malformed_payloads() {
        let good = encode_profile(&sample_profile(0));
        assert!(decode_profile(&[]).is_err());
        assert!(decode_profile(&good[..good.len() - 1]).is_err(), "truncated");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_profile(&trailing).is_err(), "trailing bytes");
        // Corrupt the class byte (after the two length-prefixed strings).
        let corpus_len = read_u32(&good, 0) as usize;
        let model_len = read_u32(&good, 4 + corpus_len) as usize;
        let class_at = 4 + corpus_len + 4 + model_len;
        let mut bad_class = good.clone();
        bad_class[class_at] = 99;
        assert!(decode_profile(&bad_class).is_err(), "class index");
        let mut bad_tag = good;
        bad_tag[class_at + 1] = 9;
        assert!(decode_profile(&bad_tag).is_err(), "aggregate tag");
    }

    #[test]
    fn put_get_and_reopen_via_full_scan() {
        let dir = tmp_store("basic");
        let k1 = StoreKey::new(1, 10);
        let k2 = StoreKey::new(2, 10);
        let p1 = sample_profile(1);
        let p2 = sample_profile(2);
        {
            let (mut store, replay) = ProfileStore::open(&dir, "fleet-a").unwrap();
            assert!(replay.created);
            assert_eq!(store.put(k1, &p1).unwrap(), 1);
            assert_eq!(store.put(k2, &p2).unwrap(), 1);
            assert_eq!(store.put(k1, &p2).unwrap(), 2, "per-key seq advances");
            let (seq, got) = store.get(k1).unwrap().unwrap();
            assert_eq!(seq, 2);
            assert_eq!(*got, p2);
            // No compaction: crash-shaped exit leaves no index.
        }
        let (mut store, replay) = ProfileStore::open(&dir, "fleet-a").unwrap();
        assert!(!replay.index_used, "no index written yet");
        assert_eq!(replay.records, 2);
        assert_eq!(replay.scanned_records, 3, "full scan sees every frame");
        assert_eq!(replay.quarantined_records, 0);
        assert_eq!(*store.get(k1).unwrap().unwrap().1, p2, "later seq wins");
        assert_eq!(*store.get(k2).unwrap().unwrap().1, p2);
    }

    #[test]
    fn compaction_sorts_reclaims_and_enables_index_fast_path() {
        let dir = tmp_store("compact");
        let keys: Vec<StoreKey> = (0..6).rev().map(|i| StoreKey::new(i, 1)).collect();
        let bytes_after = {
            let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
            for (i, k) in keys.iter().enumerate() {
                store.put(*k, &sample_profile(i as u64)).unwrap();
                store.put(*k, &sample_profile(i as u64 + 10)).unwrap();
            }
            let before = store.data_bytes();
            let report = store.compact().unwrap();
            assert_eq!(report.live_records, 6);
            assert!(report.reclaimed_bytes > 0);
            assert!(store.data_bytes() < before);
            // Reads still work after the rewrite.
            for (i, k) in keys.iter().enumerate() {
                let (seq, p) = store.get(*k).unwrap().unwrap();
                assert_eq!(seq, 2);
                assert_eq!(*p, sample_profile(i as u64 + 10));
            }
            store.data_bytes()
        };
        let (mut store, replay) = ProfileStore::open(&dir, "fleet").unwrap();
        assert!(replay.index_used, "compaction wrote a usable index");
        assert_eq!(replay.records, 6);
        assert_eq!(replay.scanned_records, 0, "no tail to scan");
        assert_eq!(store.data_bytes(), bytes_after);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(*store.get(*k).unwrap().unwrap().1, sample_profile(i as u64 + 10));
        }
    }

    #[test]
    fn compacted_bytes_are_append_order_independent() {
        let dir_a = tmp_store("order-a");
        let dir_b = tmp_store("order-b");
        let keys: Vec<StoreKey> = (0..5).map(|i| StoreKey::new(i, i * 7)).collect();
        let (mut a, _) = ProfileStore::open(&dir_a, "fleet").unwrap();
        let (mut b, _) = ProfileStore::open(&dir_b, "fleet").unwrap();
        for k in &keys {
            a.put(*k, &sample_profile(k.camera)).unwrap();
        }
        for k in keys.iter().rev() {
            b.put(*k, &sample_profile(k.camera)).unwrap();
        }
        a.compact().unwrap();
        b.compact().unwrap();
        assert_eq!(
            std::fs::read(a.data_path()).unwrap(),
            std::fs::read(b.data_path()).unwrap()
        );
        assert_eq!(
            std::fs::read(a.index_path()).unwrap(),
            std::fs::read(b.index_path()).unwrap()
        );
    }

    #[test]
    fn index_tail_scan_recovers_post_compaction_puts() {
        let dir = tmp_store("tail");
        let k_old = StoreKey::new(1, 1);
        let k_new = StoreKey::new(2, 2);
        {
            let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
            store.put(k_old, &sample_profile(1)).unwrap();
            store.compact().unwrap();
            // Post-compaction puts land beyond the index high-water mark.
            store.put(k_new, &sample_profile(2)).unwrap();
            store.put(k_old, &sample_profile(3)).unwrap();
        }
        let (mut store, replay) = ProfileStore::open(&dir, "fleet").unwrap();
        assert!(replay.index_used);
        assert_eq!(replay.scanned_records, 2, "only the tail is scanned");
        assert_eq!(replay.records, 2);
        assert_eq!(*store.get(k_old).unwrap().unwrap().1, sample_profile(3));
        assert_eq!(*store.get(k_new).unwrap().unwrap().1, sample_profile(2));
    }

    #[test]
    fn torn_put_is_quarantined_and_repaired() {
        let dir = tmp_store("torn");
        let acked = StoreKey::new(1, 1);
        {
            let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
            store.put(acked, &sample_profile(1)).unwrap();
            store
                .put_torn(StoreKey::new(2, 2), &sample_profile(2), 0.5)
                .unwrap();
        }
        let before = std::fs::metadata(dir.join(DATA_FILE)).unwrap().len();
        let (mut store, replay) = ProfileStore::open(&dir, "fleet").unwrap();
        assert_eq!(replay.records, 1, "acked write survives");
        assert_eq!(replay.quarantined_records, 1);
        assert!(replay.torn_tail);
        assert!(replay.quarantined_bytes > 0);
        assert!(std::fs::metadata(store.data_path()).unwrap().len() < before);
        assert_eq!(*store.get(acked).unwrap().unwrap().1, sample_profile(1));
        // Further reopen is clean.
        let (_, replay2) = ProfileStore::open(&dir, "fleet").unwrap();
        assert_eq!(replay2.quarantined_records, 0);
        assert_eq!(replay2.records, 1);
    }

    #[test]
    fn bit_rot_in_scan_region_quarantines_suffix() {
        let dir = tmp_store("rot");
        let keys: Vec<StoreKey> = (0..3).map(|i| StoreKey::new(i, 0)).collect();
        let rec_starts: Vec<usize>;
        {
            let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
            let header = DATA_LOG.header_len("fleet");
            let mut starts = vec![header as u64];
            for k in &keys {
                store.put(*k, &sample_profile(k.camera)).unwrap();
                starts.push(store.data_bytes());
            }
            rec_starts = starts.iter().map(|&b| b as usize).collect();
        }
        // Flip a payload byte in record 1.
        let path = dir.join(DATA_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[rec_starts[1] + REC_HEADER_LEN + 5] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = ProfileStore::open(&dir, "fleet").unwrap();
        assert_eq!(replay.records, 1, "only the prefix before damage survives");
        assert_eq!(replay.quarantined_records, 1);
        assert!(!replay.torn_tail, "bit-rot is not a torn write");
        assert!(replay.quarantined_bytes > 0);
    }

    #[test]
    fn bit_rot_under_index_is_quarantined_lazily_on_get() {
        let dir = tmp_store("lazy");
        let victim = StoreKey::new(1, 1);
        let healthy = StoreKey::new(2, 2);
        let victim_offset;
        {
            let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
            store.put(victim, &sample_profile(1)).unwrap();
            store.put(healthy, &sample_profile(2)).unwrap();
            store.compact().unwrap();
            victim_offset = store.map.get(&victim).unwrap().offset as usize;
        }
        // Rot the victim's payload without touching its record header, so
        // the index cross-check still passes and damage surfaces on read.
        let path = dir.join(DATA_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[victim_offset + 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (mut store, replay) = ProfileStore::open(&dir, "fleet").unwrap();
        assert!(replay.index_used);
        assert_eq!(replay.records, 2);
        assert!(store.get(victim).unwrap().is_none(), "quarantined, not panicked");
        assert_eq!(store.stats().quarantined_records, 1);
        assert!(store.stats().quarantined_bytes > 0);
        assert_eq!(store.len(), 1);
        assert_eq!(*store.get(healthy).unwrap().unwrap().1, sample_profile(2));
    }

    #[test]
    fn damaged_index_degrades_to_full_scan() {
        let dir = tmp_store("badidx");
        let key = StoreKey::new(1, 1);
        {
            let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
            store.put(key, &sample_profile(1)).unwrap();
            store.compact().unwrap();
        }
        let idx = dir.join(INDEX_FILE);
        let mut bytes = std::fs::read(&idx).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&idx, &bytes).unwrap();
        let (mut store, replay) = ProfileStore::open(&dir, "fleet").unwrap();
        assert!(!replay.index_used, "rotted index is ignored");
        assert_eq!(replay.records, 1);
        assert_eq!(replay.scanned_records, 1, "full scan fallback");
        assert_eq!(replay.quarantined_records, 0, "data was never damaged");
        assert_eq!(*store.get(key).unwrap().unwrap().1, sample_profile(1));
    }

    #[test]
    fn self_consistent_index_with_overflowing_offset_falls_back_to_scan() {
        let dir = tmp_store("idx-overflow");
        let keys: Vec<StoreKey> = (0..3).map(|i| StoreKey::new(i, 4)).collect();
        {
            let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
            for k in &keys {
                store.put(*k, &sample_profile(k.camera)).unwrap();
            }
            store.compact().unwrap();
        }
        // Point the first entry's offset near u64::MAX and re-seal the
        // entries checksum: the index stays self-consistent, so only the
        // offset arithmetic stands between it and the data bytes.
        let idx = dir.join(INDEX_FILE);
        let mut bytes = std::fs::read(&idx).unwrap();
        let at = IDX_HEADER_LEN + 24;
        bytes[at..at + 8].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        let sum = checksum64(&bytes[IDX_HEADER_LEN..]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&idx, &bytes).unwrap();
        let (mut store, replay) = ProfileStore::open(&dir, "fleet").unwrap();
        assert!(!replay.index_used, "an impossible offset rejects the index");
        assert_eq!(replay.records, keys.len());
        assert_eq!(replay.scanned_records, keys.len(), "full scan fallback");
        assert_eq!(replay.quarantined_records, 0);
        for k in &keys {
            assert_eq!(*store.get(*k).unwrap().unwrap().1, sample_profile(k.camera));
        }
    }

    #[test]
    fn data_frame_layout_is_unchanged() {
        // Format version 1, spelled out field by field: camera | grid |
        // seq | len | payload checksum | header checksum | payload.
        let payload = b"columnar-payload";
        let mut expected = Vec::new();
        expected.extend_from_slice(&7u64.to_le_bytes());
        expected.extend_from_slice(&9u64.to_le_bytes());
        expected.extend_from_slice(&3u64.to_le_bytes());
        expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        expected.extend_from_slice(&checksum64(payload).to_le_bytes());
        let header_sum = checksum64(&expected);
        expected.extend_from_slice(&header_sum.to_le_bytes());
        expected.extend_from_slice(payload);
        let frame = DATA_LOG.frame(&record_key(StoreKey::new(7, 9), 3), payload);
        assert_eq!(frame, expected);
        assert_eq!(REC_HEADER_LEN, 44);
        let mut header = b"SMKSTOR\0".to_vec();
        header.extend_from_slice(&1u32.to_le_bytes());
        header.extend_from_slice(&5u32.to_le_bytes());
        header.extend_from_slice(&checksum64(b"fleet").to_le_bytes());
        header.extend_from_slice(b"fleet");
        assert_eq!(DATA_LOG.header("fleet"), header);
    }

    #[test]
    fn foreign_identity_and_zero_byte_file_quarantine_wholesale() {
        let dir = tmp_store("foreign");
        {
            let (mut store, _) = ProfileStore::open(&dir, "fleet-a").unwrap();
            store.put(StoreKey::new(1, 1), &sample_profile(1)).unwrap();
            store.compact().unwrap();
        }
        let (_, replay) = ProfileStore::open(&dir, "fleet-b").unwrap();
        assert_eq!(replay.records, 0);
        assert_eq!(replay.quarantined_records, 1);
        assert!(replay.quarantined_bytes > 0);
        assert!(!dir.join(INDEX_FILE).exists(), "foreign index removed");

        std::fs::write(dir.join(DATA_FILE), b"").unwrap();
        let (_, replay) = ProfileStore::open(&dir, "fleet-b").unwrap();
        assert_eq!(replay.quarantined_records, 1, "crash artifact quarantined");
        let (_, replay2) = ProfileStore::open(&dir, "fleet-b").unwrap();
        assert_eq!(replay2.quarantined_records, 0, "repaired");
    }

    #[test]
    fn read_cache_hits_and_evicts() {
        let dir = tmp_store("cache");
        let (mut store, _) = ProfileStore::open_with_cache(&dir, "fleet", 2).unwrap();
        let keys: Vec<StoreKey> = (0..3).map(|i| StoreKey::new(i, 0)).collect();
        for k in &keys {
            store.put(*k, &sample_profile(k.camera)).unwrap();
        }
        assert!(store.cache.len() <= 2, "eviction bounds the cache");
        // Hot key stays cached; a put-invalidated key misses then re-caches.
        store.get(keys[2]).unwrap().unwrap();
        let hits_before = store.stats().cache_hits;
        store.get(keys[2]).unwrap().unwrap();
        assert_eq!(store.stats().cache_hits, hits_before + 1);
        let misses_before = store.stats().cache_misses;
        store.get(keys[0]).unwrap().unwrap();
        assert_eq!(store.stats().cache_misses, misses_before + 1);
    }

    #[test]
    fn read_cache_evicts_the_least_recently_used_key() {
        // Random gets and puts over 6 keys on a store with room for 3:
        // after every operation the cache holds exactly the 3 keys a
        // reference LRU list holds, in the same order of last use. A get
        // of a key never put touches nothing.
        use std::collections::BTreeSet;
        const CAP: usize = 3;
        let dir = tmp_store("lru");
        let (mut store, _) = ProfileStore::open_with_cache(&dir, "fleet", CAP).unwrap();
        let keys: Vec<StoreKey> = (0..6).map(|i| StoreKey::new(i, 0)).collect();
        let mut rng = smokescreen_rt::rng::StdRng::seed_from_u64(22);
        let mut stored = BTreeSet::new();
        // Least recently used first.
        let mut reference: Vec<StoreKey> = Vec::new();
        for step in 0..600 {
            let key = keys[rng.gen_range(0..keys.len())];
            if rng.gen_bool(0.3) {
                store.put(key, &sample_profile(key.camera)).unwrap();
                stored.insert(key);
            } else {
                let found = store.get(key).unwrap().is_some();
                assert_eq!(found, stored.contains(&key), "step {step}: get {key:?}");
            }
            if stored.contains(&key) {
                reference.retain(|k| *k != key);
                reference.push(key);
                if reference.len() > CAP {
                    reference.remove(0);
                }
            }
            let by_use: Vec<StoreKey> = store.cache.by_use.values().copied().collect();
            assert_eq!(by_use, reference, "step {step}: recency order");
            let cached: BTreeSet<StoreKey> = store.cache.slots.keys().copied().collect();
            assert_eq!(cached, reference.iter().copied().collect(), "step {step}: cached keys");
        }
        assert!(store.stats().cache_hits > 0 && store.stats().cache_misses > 0);
    }

    /// A plan hot enough that faults fire on the small op sets below.
    fn hot_plan() -> DiskFaultPlan {
        DiskFaultPlan::new(0xD15C, 0.6)
    }

    #[test]
    fn faulted_puts_are_unacked_retried_and_leave_no_damage() {
        let dir = tmp_store("diskfault-put");
        let plan = hot_plan();
        let keys: Vec<StoreKey> = (0..24).map(|i| StoreKey::new(i, 1)).collect();
        let mut acked = BTreeMap::new();
        {
            let (mut store, _) =
                ProfileStore::open_with_options(&dir, "fleet", DEFAULT_CACHE_CAP, Some(plan))
                    .unwrap();
            for (i, k) in keys.iter().enumerate() {
                let profile = sample_profile(i as u64);
                // Retry until acked: every attempt rolls a fresh write
                // decision, so the loop converges fast.
                let mut attempts = 0;
                let seq = loop {
                    attempts += 1;
                    assert!(attempts <= 16, "write retries must converge");
                    match store.put(*k, &profile) {
                        Ok(seq) => break seq,
                        Err(e) => assert!(
                            e.to_string().contains("injected disk fault"),
                            "unexpected error {e}"
                        ),
                    }
                };
                assert_eq!(seq, 1, "failed attempts never consume a seq");
                acked.insert(*k, profile);
            }
            assert!(
                store.stats().disk_write_faults > 0,
                "a 60% plan over 24 keys must fire at least once"
            );
            assert_eq!(store.stats().puts, keys.len() as u64);
        }
        // Cold reopen (clean I/O): every acked write is present and no
        // torn garbage survived — the ack is still the durability line.
        let (mut store, replay) = ProfileStore::open(&dir, "fleet").unwrap();
        assert_eq!(replay.quarantined_records, 0, "tails were repaired inline");
        assert_eq!(replay.records, keys.len());
        for (k, p) in &acked {
            assert_eq!(*store.get(*k).unwrap().unwrap().1, *p);
        }
    }

    #[test]
    fn read_fault_quarantines_then_heals_on_retry() {
        let dir = tmp_store("diskfault-read");
        let plan = hot_plan();
        // Find a key whose read stream schedules a bit-flip.
        let victim = (0..200u64)
            .map(|i| StoreKey::new(i, 7))
            .find(|k| plan.read_fault(op_key(*k, 1, 0)).is_some())
            .expect("some key draws a read fault at 60%");
        let heals_after = match plan.read_fault(op_key(victim, 1, 0)) {
            Some(DiskFaultKind::ReadBitFlip { heals_after }) => heals_after,
            other => panic!("read stream scheduled {other:?}"),
        };
        // cache_cap 0: every get goes to disk, so the read seam is hot.
        let (mut store, _) =
            ProfileStore::open_with_options(&dir, "fleet", 0, Some(plan)).unwrap();
        let profile = sample_profile(3);
        // The 60% plan arms the write stream too; retry until acked.
        while store.put(victim, &profile).is_err() {}
        store.cache.clear(); // the put primed the cache; force disk reads

        // Attempts 1..=heals_after corrupt the buffer: first one
        // quarantines, later ones are failed repairs.
        for attempt in 1..=heals_after {
            match store.get_outcome(victim).unwrap() {
                GetOutcome::Quarantined => {}
                other => panic!("attempt {attempt}: expected quarantine, got {other:?}"),
            }
        }
        assert_eq!(store.stats().quarantined_records, 1);
        assert_eq!(store.quarantine_pending(), 1);
        assert_eq!(store.len(), 0, "quarantined record leaves the live map");
        assert_eq!(store.seq(victim), 1, "but keeps owning its seq");

        // The next read heals: the get itself repairs and serves.
        match store.get_outcome(victim).unwrap() {
            GetOutcome::Hit { seq, profile: got } => {
                assert_eq!(seq, 1);
                assert_eq!(*got, profile);
            }
            other => panic!("expected healed hit, got {other:?}"),
        }
        assert_eq!(store.quarantine_pending(), 0);
        assert_eq!(store.stats().repaired_records, 1);
        assert_eq!(store.stats().disk_read_faults, heals_after as u64);
        // Healed stays healed.
        assert!(matches!(
            store.get_outcome(victim).unwrap(),
            GetOutcome::Hit { .. }
        ));
    }

    #[test]
    fn scrub_pass_verifies_quarantines_and_repairs() {
        let dir = tmp_store("scrub");
        let plan = hot_plan();
        let keys: Vec<StoreKey> = (0..12).map(|i| StoreKey::new(i, 9)).collect();
        let (mut store, _) =
            ProfileStore::open_with_options(&dir, "fleet", 0, Some(plan)).unwrap();
        for k in &keys {
            // Clean writes: arm only the read stream's trouble by
            // retrying faulted appends.
            while store.put(*k, &sample_profile(k.camera)).is_err() {}
        }
        // Drive scrub passes until the quarantine drains: pass 1 flips
        // some buffers (quarantine-with-counts), later passes heal them.
        let mut passes = 0;
        loop {
            passes += 1;
            assert!(passes <= 6, "scrub must converge");
            let report = store.scrub_pass().unwrap();
            assert!(report.wrapped);
            if report.unrepaired == 0 && report.quarantined == 0 {
                break;
            }
        }
        assert_eq!(store.len(), keys.len(), "every record restored");
        assert_eq!(store.quarantine_pending(), 0);
        assert!(store.stats().scrub_passes >= 1);
        assert!(store.stats().scrubbed_records > 0);
        // The store is wholly servable again.
        for k in &keys {
            assert_eq!(*store.get(*k).unwrap().unwrap().1, sample_profile(k.camera));
        }
    }

    #[test]
    fn scrub_log_fallback_restores_earlier_version_of_rotted_record() {
        let dir = tmp_store("scrub-log");
        let key = StoreKey::new(5, 5);
        let other = StoreKey::new(6, 6);
        let v1 = sample_profile(1);
        let v2 = sample_profile(2);
        let rot_offset;
        {
            let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
            store.put(key, &v1).unwrap();
            store.put(other, &sample_profile(9)).unwrap();
            store.put(key, &v2).unwrap(); // newest version, about to rot
            rot_offset = store.map.get(&key).unwrap().offset as usize;
            // Persist the index: record headers stay trusted on reopen,
            // so the rotted payload reaches the live map instead of the
            // tail-truncating full-scan recovery path.
            store.write_index().unwrap();
        }
        // Real rot: flip a payload byte of the newest version on disk.
        let path = dir.join(DATA_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[rot_offset + 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
        assert!(store.get(key).unwrap().is_none(), "rot quarantines");
        // Scrub: direct re-reads keep failing (the disk really is rotten)
        // until the log fallback finds the intact seq-1 frame, restores
        // it, and compacts the damaged frame out of the file.
        let mut report = ScrubReport::default();
        for _ in 0..4 {
            report.absorb(store.scrub_step(64).unwrap());
            if report.unrepaired == 0 {
                break;
            }
        }
        assert_eq!(report.unrepaired, 0, "log fallback must restore seq 1");
        assert!(report.repaired >= 1);
        let (seq, got) = store.get(key).unwrap().unwrap();
        assert_eq!(seq, 1, "the intact earlier version is served");
        assert_eq!(*got, v1);
        assert!(store.stats().compactions >= 1, "log repair forces compaction");
        // After the forced compaction a cold reopen is fully clean — the
        // damaged frame cannot strand a future crash-recovery scan.
        drop(store);
        let (mut store, replay) = ProfileStore::open(&dir, "fleet").unwrap();
        assert_eq!(replay.quarantined_records, 0);
        assert_eq!(replay.records, 2);
        assert_eq!(*store.get(key).unwrap().unwrap().1, v1);
        assert_eq!(*store.get(other).unwrap().unwrap().1, sample_profile(9));
    }

    #[test]
    fn put_supersedes_quarantined_record_and_seq_stays_monotone() {
        let dir = tmp_store("supersede");
        let key = StoreKey::new(3, 3);
        let offset;
        {
            let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
            store.put(key, &sample_profile(1)).unwrap();
            store.put(key, &sample_profile(2)).unwrap();
            offset = store.map.get(&key).unwrap().offset as usize;
            store.write_index().unwrap(); // keep headers index-trusted on reopen
        }
        let path = dir.join(DATA_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let (mut store, _) = ProfileStore::open(&dir, "fleet").unwrap();
        assert!(store.get(key).unwrap().is_none());
        assert_eq!(store.quarantine_pending(), 1);
        // A fresh put repairs by superseding — and must not rewind seq.
        let seq = store.put(key, &sample_profile(7)).unwrap();
        assert_eq!(seq, 3, "seq continues past the quarantined record");
        assert_eq!(store.quarantine_pending(), 0);
        assert_eq!(store.stats().repaired_records, 1);
        assert_eq!(*store.get(key).unwrap().unwrap().1, sample_profile(7));
    }

    #[test]
    fn zero_rate_fault_plan_is_byte_invisible() {
        let dir_clean = tmp_store("inert-clean");
        let dir_armed = tmp_store("inert-armed");
        let zero = DiskFaultPlan::new(99, 0.0);
        let keys: Vec<StoreKey> = (0..5).map(|i| StoreKey::new(i, 2)).collect();
        let (mut a, _) = ProfileStore::open(&dir_clean, "fleet").unwrap();
        let (mut b, _) =
            ProfileStore::open_with_options(&dir_armed, "fleet", DEFAULT_CACHE_CAP, Some(zero))
                .unwrap();
        for k in &keys {
            a.put(*k, &sample_profile(k.camera)).unwrap();
            b.put(*k, &sample_profile(k.camera)).unwrap();
            a.get(*k).unwrap().unwrap();
            b.get(*k).unwrap().unwrap();
        }
        a.scrub_pass().unwrap();
        b.scrub_pass().unwrap();
        a.compact().unwrap();
        b.compact().unwrap();
        assert_eq!(
            std::fs::read(a.data_path()).unwrap(),
            std::fs::read(b.data_path()).unwrap()
        );
        assert_eq!(
            std::fs::read(a.index_path()).unwrap(),
            std::fs::read(b.index_path()).unwrap()
        );
        assert_eq!(b.stats().disk_write_faults, 0);
        assert_eq!(b.stats().disk_read_faults, 0);
    }

    #[test]
    fn grid_id_is_stable_and_discriminates() {
        let a = sample_profile(1);
        let mut b = a.clone();
        assert_eq!(grid_id(&a), grid_id(&b));
        b.model = "different".into();
        assert_ne!(grid_id(&a), grid_id(&b));
    }
}
