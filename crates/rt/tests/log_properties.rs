//! Property tests for the shared durable-log format (`rt::log`) at both
//! key widths its callers use: the checkpoint journal's 4-byte record
//! index (driven through `Journal::open`) and the profile store's 24-byte
//! `camera | grid | seq` key (driven through `LogFormat::open`).
//!
//! Each case appends a random record set, then damages the file the two
//! ways the failure model allows — truncation at any byte (a death
//! mid-write) or a single flipped bit anywhere (rot) — and checks that
//! open never panics, recovers exactly the records before the damage,
//! reports a torn tail as torn and nothing else as torn, and leaves a
//! file that reopens with zero corruption.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use smokescreen_rt::journal::Journal;
use smokescreen_rt::log::{Damage, LogFormat, Opened};
use smokescreen_rt::proptest::prelude::*;

const IDENTITY: &str = "log-properties";

const STORE_WIDTH: LogFormat = LogFormat {
    magic: *b"SMKSTOR\0",
    version: 1,
    key_len: 24,
};

/// A fresh file path per case, unique across parallel test threads.
fn scratch_file(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("smk-log-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{n}.log"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Damages the log at `path` whose frames end at `ends` (`ends[0]` is the
/// header length) and returns what recovery must find: the number of
/// records before the damage and the damage class.
fn damage(path: &Path, ends: &[usize], truncate: bool, sel: u64) -> (usize, Option<Damage>) {
    let mut bytes = std::fs::read(path).unwrap();
    assert_eq!(bytes.len(), *ends.last().unwrap());
    // Index of the frame containing byte `at` (the frame starting there).
    let frame_of = |at: usize| ends.iter().rposition(|&end| end <= at).unwrap();
    let expected = if truncate {
        let cut = (sel % (bytes.len() as u64 + 1)) as usize;
        bytes.truncate(cut);
        if cut < ends[0] {
            (0, Some(Damage::Header))
        } else {
            let k = frame_of(cut);
            (k, (ends[k] != cut).then_some(Damage::Torn))
        }
    } else {
        let bit = (sel % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        if bit / 8 < ends[0] {
            (0, Some(Damage::Header))
        } else {
            (frame_of(bit / 8), Some(Damage::Corrupt))
        }
    };
    std::fs::write(path, &bytes).unwrap();
    expected
}

/// Store-width key for record `i`: distinct bytes in every field.
fn store_key(i: usize) -> [u8; 24] {
    let mut key = [0u8; 24];
    key[..8].copy_from_slice(&(i as u64 + 1).to_le_bytes());
    key[8..16].copy_from_slice(&(0xA5A5 ^ i as u64).to_le_bytes());
    key[16..].copy_from_slice(&(i as u64 * 3 + 1).to_le_bytes());
    key
}

/// Opens a store-width log, accepting records whose keys continue the
/// `store_key` sequence.
fn open_store_width(path: &Path) -> (Vec<Vec<u8>>, Opened) {
    let mut records = Vec::new();
    let opened = STORE_WIDTH
        .open(path, IDENTITY, |bytes, from| {
            STORE_WIDTH.scan(bytes, from, |frame| {
                let ok = frame.key == store_key(records.len());
                if ok {
                    records.push(frame.payload.to_vec());
                }
                ok
            })
        })
        .unwrap();
    (records, opened)
}

fn accept_all(_: u32, _: &[u8]) -> bool {
    true
}

proptest! {
    #[test]
    fn journal_width_recovers_the_prefix_before_any_damage(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..8),
        truncate in any::<bool>(),
        sel in any::<u64>(),
    ) {
        let path = scratch_file("journal");
        let mut ends = Vec::new();
        {
            let (mut writer, replay) = Journal::open(&path, IDENTITY, accept_all).unwrap();
            prop_assert!(replay.created);
            ends.push(writer.bytes() as usize);
            for (i, payload) in payloads.iter().enumerate() {
                writer.append(i as u32, payload).unwrap();
                ends.push(writer.bytes() as usize);
            }
        }
        let (k, expected) = damage(&path, &ends, truncate, sel);

        let (writer, replay) = Journal::open(&path, IDENTITY, accept_all).unwrap();
        prop_assert_eq!(&replay.payloads[..], &payloads[..k]);
        prop_assert_eq!(replay.corrupt_records, expected.is_some() as usize);
        prop_assert_eq!(
            replay.torn_record,
            (expected == Some(Damage::Torn)).then_some(k as u32),
            "only a torn tail is attributed as torn"
        );
        prop_assert_eq!(writer.bytes() as usize, ends[k]);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, ends[k]);

        let (_, reopened) = Journal::open(&path, IDENTITY, accept_all).unwrap();
        prop_assert_eq!(reopened.corrupt_records, 0, "the repaired journal is clean");
        prop_assert_eq!(&reopened.payloads[..], &payloads[..k]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_width_recovers_the_prefix_before_any_damage(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..8),
        truncate in any::<bool>(),
        sel in any::<u64>(),
    ) {
        let path = scratch_file("store");
        let mut ends = Vec::new();
        {
            let (records, mut opened) = open_store_width(&path);
            prop_assert!(opened.created && records.is_empty());
            ends.push(opened.len as usize);
            for (i, payload) in payloads.iter().enumerate() {
                let frame = STORE_WIDTH.frame(&store_key(i), payload);
                opened.file.write_all(&frame).unwrap();
                ends.push(ends[i] + frame.len());
            }
        }
        let (k, expected) = damage(&path, &ends, truncate, sel);

        let (records, opened) = open_store_width(&path);
        prop_assert_eq!(&records[..], &payloads[..k]);
        prop_assert_eq!(opened.damage, expected);
        prop_assert_eq!(opened.len as usize, ends[k]);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, ends[k]);

        let (again, reopened) = open_store_width(&path);
        prop_assert_eq!(reopened.damage, None, "the repaired log is clean");
        prop_assert_eq!(&again[..], &payloads[..k]);
        let _ = std::fs::remove_file(&path);
    }
}
