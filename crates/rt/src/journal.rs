//! Crash-consistent checkpoint journals — the durability substrate for
//! checkpoint/resume.
//!
//! A journal is an [`rt::log`](crate::log) file whose records carry a
//! 4-byte key: the record's index. The log owns the on-disk format, the
//! frame walk, and the torn-tail/corruption policy (any damage is
//! quarantined and the valid prefix rewritten atomically, never trusted
//! and never panicked on). This module adds only the sequential-index
//! contract:
//!
//! ```text
//! header:  MAGIC "SMKJRNL\0" | format version u32 | identity len u32
//!          | identity checksum u64 | identity bytes
//! record:  index u32 | payload len u32 | payload checksum u64
//!          | header checksum u64 | payload
//! ```
//!
//! Records must carry strictly consecutive indices starting at 0 — the
//! journal is a *contiguous prefix* of some externally defined task list,
//! which is what makes resume accounting schedule-independent (see
//! `core::generation`). A record with an out-of-sequence index, or a
//! payload the caller's `validate` rejects, is treated as corruption. A
//! torn tail is attributed to the record index it was writing
//! ([`Replay::torn_record`]).

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::log::{read_u32, Damage, LogFormat};

/// Environment variable carrying the checkpoint directory for resumable
/// profile generation. Unset disables checkpointing entirely; a set but
/// empty value is a configuration error (see [`checkpoint_dir_from_env`]).
pub const CHECKPOINT_DIR_ENV: &str = "SMOKESCREEN_CHECKPOINT_DIR";

/// On-disk format version. Bumped on any incompatible layout change; a
/// journal with a different version is quarantined wholesale (its cells
/// are simply recomputed) rather than misread. Version 2 added the frame
/// header checksum.
pub const FORMAT_VERSION: u32 = 2;

/// The journal's log format: a 4-byte record index as the key.
const FORMAT: LogFormat = LogFormat {
    magic: *b"SMKJRNL\0",
    version: FORMAT_VERSION,
    key_len: 4,
};

/// Reads the checkpoint directory from [`CHECKPOINT_DIR_ENV`].
///
/// Unset means checkpointing is disabled (`None`) — the production
/// default. A set-but-empty value is a loud startup error: silently
/// ignoring it would disable durability the operator asked for.
pub fn checkpoint_dir_from_env() -> Option<PathBuf> {
    parse_checkpoint_dir(std::env::var_os(CHECKPOINT_DIR_ENV).as_deref())
        .unwrap_or_else(|msg| panic!("{msg}"))
}

/// Parse layer behind [`checkpoint_dir_from_env`], exposed for tests:
/// `None` (unset) disables, a non-empty value enables, an empty value is
/// an error naming the offending variable.
pub fn parse_checkpoint_dir(
    raw: Option<&std::ffi::OsStr>,
) -> Result<Option<PathBuf>, String> {
    match raw {
        None => Ok(None),
        Some(v) if v.is_empty() => Err(format!(
            "{CHECKPOINT_DIR_ENV} is set but empty; unset it to disable checkpointing \
             or point it at a writable directory"
        )),
        Some(v) => Ok(Some(PathBuf::from(v))),
    }
}

/// What replay recovered from an existing journal.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    /// Payloads of the valid contiguous record prefix: `payloads[i]` is
    /// record index `i`.
    pub payloads: Vec<Vec<u8>>,
    /// Corruption events detected and quarantined: a torn tail, a
    /// checksum mismatch, an out-of-sequence index, a rejected payload,
    /// or an unreadable/foreign/mis-versioned header (each counts once).
    pub corrupt_records: usize,
    /// Index of the record lost to a torn tail write, when identifiable.
    /// The writer uses this to avoid re-injecting a torn crash for a cell
    /// whose torn write already "happened" (see `rt::fault::CrashPlan`).
    pub torn_record: Option<u32>,
    /// Bytes discarded by quarantine (everything after the valid prefix).
    pub quarantined_bytes: u64,
    /// Whether the journal file did not exist and was freshly created.
    pub created: bool,
}

/// Append handle for an open journal.
///
/// Obtained from [`Journal::open`]; appends are flushed and synced per
/// record so a crash loses at most the record being written.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    bytes: u64,
    records: u32,
}

impl JournalWriter {
    /// Total journal size in bytes (header + all durable records).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of valid records in the journal (replayed + appended).
    pub fn records(&self) -> u32 {
        self.records
    }

    /// Appends one record durably: frame + payload in a single write,
    /// then `sync_data`. `index` must continue the consecutive sequence.
    pub fn append(&mut self, index: u32, payload: &[u8]) -> io::Result<()> {
        debug_assert_eq!(index, self.records, "journal indices must be consecutive");
        let buf = FORMAT.frame(&index.to_le_bytes(), payload);
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.bytes += buf.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Deliberately writes a *torn* record — the frame header plus a
    /// prefix of the payload — simulating a crash mid-append for the
    /// seeded crash tests. The journal must not be appended to afterwards
    /// (replay will quarantine the tail). `keep_frac` in `[0, 1]` selects
    /// how much of the payload survives; the full record is never written.
    pub fn append_torn(&mut self, index: u32, payload: &[u8], keep_frac: f64) -> io::Result<()> {
        debug_assert_eq!(index, self.records, "journal indices must be consecutive");
        let buf = FORMAT.frame(&index.to_le_bytes(), payload);
        let torn = FORMAT.torn_prefix(&buf, keep_frac);
        self.file.write_all(torn)?;
        self.file.sync_data()?;
        self.bytes += torn.len() as u64;
        // Not counted in `records`: the record is not durable.
        Ok(())
    }
}

/// Namespace for opening journals.
pub struct Journal;

impl Journal {
    /// Opens (creating if absent) the journal at `path` for the given
    /// `identity`, replaying its valid record prefix.
    ///
    /// `validate` vets each replayed payload (`(index, payload) → ok`);
    /// a rejected payload is treated exactly like a checksum mismatch —
    /// the record and everything after it are quarantined. A journal
    /// whose header is unreadable, carries the wrong format version, or
    /// names a different identity is quarantined wholesale.
    ///
    /// Any quarantine **repairs the file**: the valid prefix is rewritten
    /// atomically (temp-file + rename) before the writer is handed back,
    /// so appends always continue a well-formed journal.
    pub fn open(
        path: &Path,
        identity: &str,
        validate: impl Fn(u32, &[u8]) -> bool,
    ) -> io::Result<(JournalWriter, Replay)> {
        let mut payloads = Vec::new();
        let opened = FORMAT.open(path, identity, |bytes, from| {
            FORMAT.scan(bytes, from, |frame| {
                let index = read_u32(frame.key, 0);
                let ok = index == payloads.len() as u32 && validate(index, frame.payload);
                if ok {
                    payloads.push(frame.payload.to_vec());
                }
                ok
            })
        })?;
        // Indices are consecutive, so a torn tail — even one whose frame
        // header is unreadable — was writing the next sequence position.
        let torn_record = (opened.damage == Some(Damage::Torn)).then_some(payloads.len() as u32);
        let writer = JournalWriter {
            file: opened.file,
            bytes: opened.len,
            records: payloads.len() as u32,
        };
        let replay = Replay {
            payloads,
            corrupt_records: opened.damage.is_some() as usize,
            torn_record,
            quarantined_bytes: opened.quarantined_bytes,
            created: opened.created,
        };
        Ok((writer, replay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smokescreen-journal-tests-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn accept_all(_: u32, _: &[u8]) -> bool {
        true
    }

    #[test]
    fn create_append_replay_round_trip() {
        let path = tmp_journal("round_trip.journal");
        let _ = std::fs::remove_file(&path);
        let payloads: Vec<Vec<u8>> = (0..5u32)
            .map(|i| format!("{{\"cell\":{i},\"data\":\"x{i}\"}}").into_bytes())
            .collect();
        {
            let (mut w, replay) = Journal::open(&path, "id-a", accept_all).unwrap();
            assert!(replay.created);
            assert!(replay.payloads.is_empty());
            for (i, p) in payloads.iter().enumerate() {
                w.append(i as u32, p).unwrap();
            }
            assert_eq!(w.records(), 5);
        }
        let (w, replay) = Journal::open(&path, "id-a", accept_all).unwrap();
        assert!(!replay.created);
        assert_eq!(replay.payloads, payloads);
        assert_eq!(replay.corrupt_records, 0);
        assert_eq!(replay.quarantined_bytes, 0);
        assert_eq!(w.records(), 5);
        assert_eq!(w.bytes(), std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_is_detected_attributed_and_repaired() {
        let path = tmp_journal("torn.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"record-zero").unwrap();
            w.append(1, b"record-one").unwrap();
            w.append_torn(2, b"record-two-will-tear", 0.5).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let (w, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 2);
        assert_eq!(replay.torn_record, Some(2));
        assert_eq!(replay.corrupt_records, 1);
        assert!(replay.quarantined_bytes > 0);
        // Repaired: the file now holds exactly the valid prefix.
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        assert_eq!(w.bytes(), std::fs::metadata(&path).unwrap().len());
        // And a further reopen is clean.
        let (_, replay2) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay2.corrupt_records, 0);
        assert_eq!(replay2.payloads.len(), 2);
    }

    #[test]
    fn fully_torn_frame_header_still_reports_sequence_position() {
        let path = tmp_journal("torn_header.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"zero").unwrap();
            // Tear so hard that even the 16-byte frame header is partial.
            w.append_torn(1, b"", 0.0).unwrap();
        }
        let (_, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 1);
        assert_eq!(replay.torn_record, Some(1), "index inferred from sequence");
    }

    #[test]
    fn checksum_flip_quarantines_suffix() {
        let path = tmp_journal("bitflip.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            for i in 0..4u32 {
                w.append(i, format!("payload-{i}").as_bytes()).unwrap();
            }
        }
        // Flip one bit inside record 1's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let header_len = FORMAT.header_len("id");
        let rec_len = FORMAT.frame_header_len() + "payload-0".len();
        let target = header_len + rec_len + FORMAT.frame_header_len() + 3;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (_, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 1, "only the prefix before damage survives");
        assert_eq!(replay.corrupt_records, 1);
        assert_eq!(replay.torn_record, None, "bit-rot is not a torn write");
        assert!(replay.quarantined_bytes > 0);
        // Appending record 1 again after repair works.
        let (mut w, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.corrupt_records, 0);
        w.append(1, b"payload-1-again").unwrap();
        let (_, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 2);
    }

    #[test]
    fn wrong_version_and_foreign_identity_quarantine_wholesale() {
        let path = tmp_journal("version.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"data").unwrap();
        }
        // Different identity: everything is discarded and rewritten.
        let (_, replay) = Journal::open(&path, "other-identity", accept_all).unwrap();
        assert!(replay.payloads.is_empty());
        assert_eq!(replay.corrupt_records, 1);

        // Corrupt the version field of the (freshly rewritten) header.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(&path, "other-identity", accept_all).unwrap();
        assert!(replay.payloads.is_empty());
        assert_eq!(replay.corrupt_records, 1);
    }

    #[test]
    fn zero_byte_journal_is_quarantined_not_trusted() {
        let path = tmp_journal("empty.journal");
        std::fs::write(&path, b"").unwrap();
        let (w, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert!(replay.payloads.is_empty());
        assert_eq!(
            replay.corrupt_records, 1,
            "a created-but-never-written file is a crash artifact"
        );
        assert_eq!(w.records(), 0);
        // Repaired to a proper header; usable immediately.
        let (_, replay2) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay2.corrupt_records, 0);
    }

    #[test]
    fn out_of_sequence_record_is_corruption() {
        let path = tmp_journal("sequence.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"zero").unwrap();
        }
        // Hand-append a record claiming index 5.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&FORMAT.frame(&5u32.to_le_bytes(), b"rogue"));
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(&path, "id", accept_all).unwrap();
        assert_eq!(replay.payloads.len(), 1);
        assert_eq!(replay.corrupt_records, 1);
    }

    #[test]
    fn rejected_payload_quarantines_like_checksum_damage() {
        let path = tmp_journal("reject.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Journal::open(&path, "id", accept_all).unwrap();
            w.append(0, b"good").unwrap();
            w.append(1, b"BAD").unwrap();
            w.append(2, b"good-too").unwrap();
        }
        let (_, replay) =
            Journal::open(&path, "id", |_, p| p.starts_with(b"good")).unwrap();
        assert_eq!(replay.payloads.len(), 1, "validation failure stops the replay");
        assert_eq!(replay.corrupt_records, 1);
    }

    #[test]
    fn checkpoint_dir_parsing_is_strict() {
        assert_eq!(parse_checkpoint_dir(None), Ok(None));
        assert_eq!(
            parse_checkpoint_dir(Some(std::ffi::OsStr::new("/tmp/ckpt"))),
            Ok(Some(PathBuf::from("/tmp/ckpt")))
        );
        let err = parse_checkpoint_dir(Some(std::ffi::OsStr::new(""))).unwrap_err();
        assert!(err.contains(CHECKPOINT_DIR_ENV), "{err}");
    }
}
