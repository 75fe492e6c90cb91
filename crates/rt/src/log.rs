//! The shared on-disk format of the workspace's durable append logs.
//!
//! Two files persist expensive work: the checkpoint journal
//! ([`crate::journal`]) and the served profile store's data segment
//! (`serve::store`). Both are a versioned header followed by checksummed
//! record frames, and both live under one failure model: **the process can
//! die at any byte**, and bits can rot anywhere. This module owns
//! everything that model needs — the layout, the frame walk, the damage
//! classification, and the atomic repair — so the two callers keep only
//! their own key semantics.
//!
//! Layout (all integers little-endian, checksums FNV-1a 64):
//!
//! ```text
//! header:  MAGIC (8) | format version u32 | identity len u32
//!          | identity checksum u64 | identity bytes
//! record:  key bytes (fixed width per format) | payload len u32
//!          | payload checksum u64 | header checksum u64 | payload
//! ```
//!
//! The trailing header checksum covers the key, length, and payload
//! checksum: a bit flip anywhere in a frame header is detected before any
//! of its fields — not even the length locating the next frame — is
//! trusted.
//!
//! Recovery walks frames from the front and stops at the first damaged
//! one; everything from there on is quarantined because framing
//! downstream of damage cannot be trusted. Damage is classified so
//! callers can tell a crash artifact from rot: a frame cut short by the
//! end of the file is [`Damage::Torn`] (what a death mid-append leaves),
//! anything else is [`Damage::Corrupt`], and an unusable file header is
//! [`Damage::Header`].
//!
//! Atomicity comes from two mechanisms:
//!
//! * **Append + sync** — each record is written with a single `write_all`
//!   followed by `sync_data`, so a crash leaves at most one torn tail.
//! * **Temp-file + rename** — creating a log and repairing one (rewriting
//!   the valid prefix after a quarantine) go through [`atomic_write`], so
//!   the file is always either the old bytes or the new, never a mixture.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Upper bound on a single record payload (1 GiB); a larger length field
/// can only come from corruption.
const MAX_PAYLOAD_LEN: u32 = 1 << 30;

/// Frame bytes following the key: payload len + payload checksum +
/// header checksum.
const FRAME_TAIL_LEN: usize = 4 + 8 + 8;

/// FNV-1a 64-bit checksum. Not cryptographic — it defends against torn
/// writes and bit-rot, not adversaries, and a 64-bit avalanche makes
/// silent acceptance of a damaged record vanishingly unlikely.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Little-endian `u32` at `at`; the caller has bounds-checked.
pub fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

/// Little-endian `u64` at `at`; the caller has bounds-checked.
pub fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

/// Atomically replaces `path` with `bytes`: writes a temporary sibling
/// file, syncs it, renames it over the target and syncs the parent
/// directory. Readers (and crashes) observe either the old contents or
/// the new, never a torn mixture; once this returns, the new directory
/// entry survives a power loss too.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = sibling_tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    File::open(parent_dir(path))?.sync_all()
}

/// The directory holding `path`; a bare file name lives in `.`.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

fn sibling_tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| ".journal".into());
    name.push(".tmp");
    path.with_file_name(name)
}

/// How a log stopped being trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// The file header is missing, foreign, mis-versioned, or damaged:
    /// nothing in the file can be attributed to the caller.
    Header,
    /// The last frame is cut short by the end of the file — the artifact
    /// of a death mid-append.
    Torn,
    /// A frame header or payload fails its checksum, or the caller
    /// rejected a well-formed record.
    Corrupt,
}

/// One frame whose header verified and whose payload lies within the
/// scanned bytes. The payload checksum is *not* verified yet — see
/// [`Frame::intact`].
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The record key (the format's fixed width).
    pub key: &'a [u8],
    /// Byte offset of the payload within the scanned buffer.
    pub payload_at: usize,
    /// The payload bytes.
    pub payload: &'a [u8],
    /// The payload checksum stored in the frame header.
    pub checksum: u64,
}

impl Frame<'_> {
    /// Whether the payload matches its stored checksum.
    pub fn intact(&self) -> bool {
        checksum64(self.payload) == self.checksum
    }

    /// Byte offset just past this frame.
    fn end(&self) -> usize {
        self.payload_at + self.payload.len()
    }
}

/// Walks header-verified frames; see [`LogFormat::frames`].
#[derive(Debug)]
pub struct Frames<'a> {
    format: LogFormat,
    bytes: &'a [u8],
    pos: usize,
    /// Why the walk stopped: `None` while walking and at a clean end of
    /// the buffer, else the damage that ended it.
    stop: Option<Damage>,
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        if self.stop.is_some() || self.pos == self.bytes.len() {
            return None;
        }
        match self.format.frame_at(self.bytes, self.pos) {
            Ok(frame) => {
                self.pos = frame.end();
                Some(frame)
            }
            Err(damage) => {
                self.stop = Some(damage);
                None
            }
        }
    }
}

/// What a scan recovered: the byte length of the valid prefix and the
/// damage (if any) that ended it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scan {
    /// Bytes from the start of the buffer through the last accepted frame.
    pub valid_len: usize,
    /// Why the scan stopped short of the end; `None` for a clean end.
    pub damage: Option<Damage>,
}

/// An opened (and, where needed, repaired) log.
#[derive(Debug)]
pub struct Opened {
    /// Append handle positioned after the valid prefix.
    pub file: File,
    /// Length of the file after repair — the offset of the next append.
    pub len: u64,
    /// Whether the file did not exist and was freshly created.
    pub created: bool,
    /// The damage quarantined on open, if any.
    pub damage: Option<Damage>,
    /// Bytes discarded by the quarantine.
    pub quarantined_bytes: u64,
}

/// One log format: its file magic, version, and fixed key width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFormat {
    /// File magic identifying the log family.
    pub magic: [u8; 8],
    /// On-disk format version; a mismatch is [`Damage::Header`].
    pub version: u32,
    /// Width in bytes of every record key.
    pub key_len: usize,
}

impl LogFormat {
    /// Frame header length: key + payload len + payload checksum + header
    /// checksum.
    pub const fn frame_header_len(&self) -> usize {
        self.key_len + FRAME_TAIL_LEN
    }

    /// Length of the file header for `identity`.
    pub fn header_len(&self, identity: &str) -> usize {
        8 + 4 + 4 + 8 + identity.len()
    }

    /// The file header binding a log to `identity`.
    pub fn header(&self, identity: &str) -> Vec<u8> {
        let id = identity.as_bytes();
        let mut buf = Vec::with_capacity(self.header_len(identity));
        buf.extend_from_slice(&self.magic);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&(id.len() as u32).to_le_bytes());
        buf.extend_from_slice(&checksum64(id).to_le_bytes());
        buf.extend_from_slice(id);
        buf
    }

    /// Encodes one record frame.
    pub fn frame(&self, key: &[u8], payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(key.len(), self.key_len, "key width is fixed per format");
        let mut buf = Vec::with_capacity(self.frame_header_len() + payload.len());
        buf.extend_from_slice(key);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&checksum64(payload).to_le_bytes());
        buf.extend_from_slice(&checksum64(&buf).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// The prefix of an encoded `frame` that a death mid-append leaves on
    /// disk: the frame header plus `keep_frac` of the payload, and never
    /// the whole frame (so the record is always actually torn).
    pub fn torn_prefix<'f>(&self, frame: &'f [u8], keep_frac: f64) -> &'f [u8] {
        let payload_len = frame.len().saturating_sub(self.frame_header_len());
        let keep_payload = (payload_len as f64 * keep_frac.clamp(0.0, 1.0)) as usize;
        let keep = (self.frame_header_len() + keep_payload).min(frame.len().saturating_sub(1));
        &frame[..keep]
    }

    /// Parses the frame starting at `at`, verifying its header checksum
    /// and that its payload lies within `bytes`. Never reads the payload
    /// bytes, so it is cheap enough for the index fast path.
    pub fn frame_at<'a>(&self, bytes: &'a [u8], at: usize) -> Result<Frame<'a>, Damage> {
        let summed = self.key_len + 4 + 8;
        let payload_at = at
            .checked_add(self.frame_header_len())
            .ok_or(Damage::Corrupt)?;
        if payload_at > bytes.len() {
            return Err(Damage::Torn);
        }
        if read_u64(bytes, at + summed) != checksum64(&bytes[at..at + summed]) {
            return Err(Damage::Corrupt);
        }
        let len = read_u32(bytes, at + self.key_len);
        if len > MAX_PAYLOAD_LEN {
            return Err(Damage::Corrupt);
        }
        let end = payload_at + len as usize;
        if end > bytes.len() {
            return Err(Damage::Torn);
        }
        Ok(Frame {
            key: &bytes[at..at + self.key_len],
            payload_at,
            payload: &bytes[payload_at..end],
            checksum: read_u64(bytes, at + self.key_len + 4),
        })
    }

    /// Walks header-verified frames of `bytes` from offset `from`. The
    /// walk stops at the first frame whose header is damaged or which the
    /// end of the buffer cuts short; payload damage does not stop it, so
    /// a caller may skip past a rotted payload to later frames.
    pub fn frames<'a>(&self, bytes: &'a [u8], from: usize) -> Frames<'a> {
        Frames {
            format: *self,
            bytes,
            pos: from,
            stop: None,
        }
    }

    /// Scans `bytes` from `from`, handing each intact frame to `accept`,
    /// and stops at the first damaged frame or the first one `accept`
    /// rejects (reported as [`Damage::Corrupt`]).
    pub fn scan(&self, bytes: &[u8], from: usize, mut accept: impl FnMut(&Frame) -> bool) -> Scan {
        let mut frames = self.frames(bytes, from);
        let mut valid_len = from;
        for frame in &mut frames {
            if !frame.intact() || !accept(&frame) {
                return Scan {
                    valid_len,
                    damage: Some(Damage::Corrupt),
                };
            }
            valid_len = frame.end();
        }
        Scan {
            valid_len,
            damage: frames.stop,
        }
    }

    /// Opens (creating if absent) the log at `path` for `identity`.
    ///
    /// A missing file is created holding just the header. A file whose
    /// header does not match is quarantined wholesale. Otherwise `scan`
    /// recovers the records — it receives the file bytes and the header
    /// length, and typically calls [`LogFormat::scan`]. Any quarantine
    /// **repairs the file** — the valid prefix is rewritten atomically —
    /// before the append handle is returned, so appends always continue
    /// well-formed framing.
    pub fn open(
        &self,
        path: &Path,
        identity: &str,
        scan: impl FnOnce(&[u8], usize) -> Scan,
    ) -> io::Result<Opened> {
        let header = self.header(identity);
        let (created, damage, valid, quarantined_bytes) = match std::fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                atomic_write(path, &header)?;
                (true, None, header.len(), 0)
            }
            Err(e) => return Err(e),
            Ok(bytes) if !bytes.starts_with(&header) => {
                atomic_write(path, &header)?;
                (
                    false,
                    Some(Damage::Header),
                    header.len(),
                    bytes.len() as u64,
                )
            }
            Ok(bytes) => {
                let found = scan(&bytes, header.len());
                if found.valid_len < bytes.len() {
                    atomic_write(path, &bytes[..found.valid_len])?;
                }
                let lost = (bytes.len() - found.valid_len) as u64;
                (false, found.damage, found.valid_len, lost)
            }
        };
        Ok(Opened {
            file: OpenOptions::new().append(true).open(path)?,
            len: valid as u64,
            created,
            damage,
            quarantined_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_contents() {
        let dir =
            std::env::temp_dir().join(format!("smokescreen-log-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second-longer");
        // No temp residue.
        assert!(!sibling_tmp_path(&path).exists());
    }

    #[test]
    fn parent_dir_of_a_bare_file_name_is_the_working_directory() {
        assert_eq!(parent_dir(Path::new("profiles.data")), Path::new("."));
        assert_eq!(parent_dir(Path::new("store/profiles.data")), Path::new("store"));
        assert_eq!(parent_dir(Path::new("/tmp/profiles.data")), Path::new("/tmp"));
    }

    #[test]
    fn checksum_is_stable_and_input_sensitive() {
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum64(b"abc"), checksum64(b"abc"));
        assert_ne!(checksum64(b"abc"), checksum64(b"abd"));
        assert_ne!(checksum64(b"abc"), checksum64(b"ab"));
    }
}
