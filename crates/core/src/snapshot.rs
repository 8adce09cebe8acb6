//! Crash-safe snapshot container: a versioned, section-checksummed binary
//! format for persisting solved forms.
//!
//! The container layout is deliberately self-describing and boring:
//!
//! ```text
//! magic "RASCSNAP" (8 bytes)
//! version        u32 (little-endian, currently 4)
//! section count  u32
//! per section:
//!   tag          4 bytes (ASCII, e.g. "ALGB", "SOLV", "ENGN")
//!   payload len  u64
//!   checksum     u64 (FNV-1a 64 of the payload)
//!   payload      bytes
//! ```
//!
//! All integers are little-endian; strings and sequences are length-
//! prefixed. Every load path goes through [`SnapshotReader::parse`], which
//! verifies the magic, version, section framing, and per-section checksums
//! before any payload is interpreted — so truncation, torn writes, and bit
//! flips surface as a typed [`SnapshotError::Corrupt`], never as a panic or
//! a silently wrong solved form. Payload decoding via [`ByteReader`] is
//! equally defensive: out-of-range lengths, non-UTF-8 strings, non-boolean
//! booleans, and trailing bytes are all corruption errors.
//!
//! Durability is provided by [`write_atomic`]: the bytes are written to a
//! temporary file in the destination directory, fsynced, renamed over the
//! destination, and the directory is fsynced — a crash at any point leaves
//! either the old snapshot or the new one, never a torn mix.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

use crate::algebra::Algebra;

/// The 8-byte container magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RASCSNAP";

/// The container format version this build writes and accepts.
///
/// Version 5 images hold three entry logs per variable: its edges, lower
/// bounds and upper bounds. Version 4 images also held a fourth, the
/// retired mirror of every edge at its target. Version 3 images also held
/// per-variable mutation stamps and a global mutation counter, for a
/// retired query cache. Version 2 images also held the retired
/// projection-merging switch and memo and the cycle-search depth.
/// Version 1 images also held upper bounds copied backward along edges,
/// and their provenance could cite the retired reason tag 2. All four are
/// rejected.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Section tag: the annotation algebra's interned state (monoid table,
/// reachability vectors).
pub const TAG_ALGEBRA: [u8; 4] = *b"ALGB";

/// Section tag: the solver's solved form (constructors, entry logs,
/// union-find, constraints, clashes, counters, provenance).
pub const TAG_SOLVED: [u8; 4] = *b"SOLV";

/// Section tag: engine-level name tables (alphabet, constructor and
/// variable name→id maps) written by `rasc-inc`.
pub const TAG_ENGINE: [u8; 4] = *b"ENGN";

/// Why a snapshot could not be written or restored.
///
/// The taxonomy is the load-bearing part: callers (the batch protocol, the
/// server, the CLI) map [`SnapshotError::Io`] to the `io` error code and
/// everything else to `snapshot_corrupt`/`bad_request`, so a torn file is
/// always *diagnosed*, never mis-restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file or stream operation failed.
    Io(io::Error),
    /// The bytes are not a well-formed snapshot: bad magic, unsupported
    /// version, framing/checksum mismatch, or a payload that fails
    /// validation (out-of-range ids, non-UTF-8 names, …).
    Corrupt {
        /// What exactly was malformed.
        detail: String,
    },
    /// The in-memory state cannot be snapshotted or restored into (e.g.
    /// a pending worklist or an open epoch at snapshot time).
    State {
        /// Which precondition was violated.
        detail: String,
    },
}

impl SnapshotError {
    /// Builds a [`SnapshotError::Corrupt`].
    pub fn corrupt(detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt {
            detail: detail.into(),
        }
    }

    /// Builds a [`SnapshotError::State`].
    pub fn state(detail: impl Into<String>) -> SnapshotError {
        SnapshotError::State {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt { detail } => write!(f, "snapshot corrupt: {detail}"),
            SnapshotError::State { detail } => write!(f, "snapshot state error: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit — small, dependency-free, and plenty to catch torn
/// writes and bit flips (this is an integrity check, not an authenticator).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian payload encoder for one snapshot section.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one strict `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a sequence length (as `u64`).
    pub fn seq_len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.seq_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed slice of `u32`s.
    pub fn u32_seq(&mut self, xs: &[u32]) {
        self.seq_len(xs.len());
        for &x in xs {
            self.u32(x);
        }
    }

    /// Appends a length-prefixed slice of `bool`s.
    pub fn bool_seq(&mut self, xs: &[bool]) {
        self.seq_len(xs.len());
        for &x in xs {
            self.bool(x);
        }
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Defensive little-endian payload decoder. Every read is bounds-checked
/// and every decoded value validated, so a corrupted payload produces a
/// [`SnapshotError::Corrupt`] instead of a panic or garbage.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over a raw payload.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::corrupt(format!(
                "unexpected end of payload (need {n} bytes, have {})",
                self.remaining()
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a strict boolean: any byte other than `0`/`1` is corruption.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::corrupt(format!(
                "invalid boolean byte {other}"
            ))),
        }
    }

    /// Reads a sequence length and sanity-checks it against the remaining
    /// payload (every sequence element occupies at least one byte, so a
    /// bit-flipped length can never trigger a huge allocation).
    pub fn seq_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let n = usize::try_from(n)
            .map_err(|_| SnapshotError::corrupt(format!("sequence length {n} overflows usize")))?;
        if n > self.remaining() {
            return Err(SnapshotError::corrupt(format!(
                "sequence length {n} exceeds remaining payload ({})",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::corrupt("string is not valid UTF-8"))
    }

    /// Reads a length-prefixed sequence of `u32`s.
    pub fn u32_seq(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.seq_len()?;
        let mut out = Vec::with_capacity(n.min(self.remaining() / 4 + 1));
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed sequence of `bool`s.
    pub fn bool_seq(&mut self) -> Result<Vec<bool>, SnapshotError> {
        let n = self.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.bool()?);
        }
        Ok(out)
    }

    /// Asserts the payload was consumed exactly; trailing bytes mean the
    /// payload and its decoder disagree about the format.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Assembles a snapshot container from tagged sections.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty container.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Appends a section with the given 4-byte tag.
    pub fn section(&mut self, tag: [u8; 4], payload: ByteWriter) {
        self.sections.push((tag, payload.into_bytes()));
    }

    /// Serializes the container: magic, version, section count, then each
    /// section as tag + length + FNV-1a 64 checksum + payload.
    pub fn finish(self) -> Vec<u8> {
        let total: usize = self
            .sections
            .iter()
            .map(|(_, p)| p.len() + 20)
            .sum::<usize>()
            + 16;
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in self.sections {
            buf.extend_from_slice(&tag);
            buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            buf.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
        }
        buf
    }
}

/// Parses and verifies a snapshot container before any payload is
/// interpreted: magic, version, section framing, and checksums.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses the container, verifying every section's framing and
    /// checksum. Truncated, torn, or bit-flipped bytes are rejected here
    /// with a [`SnapshotError::Corrupt`].
    pub fn parse(bytes: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(8)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::corrupt("bad magic (not a rasc snapshot)"));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::corrupt(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let count = r.u32()?;
        let mut sections = Vec::new();
        for i in 0..count {
            let tag_bytes = r.take(4)?;
            let tag = [tag_bytes[0], tag_bytes[1], tag_bytes[2], tag_bytes[3]];
            let len = r.u64()?;
            let len = usize::try_from(len).map_err(|_| {
                SnapshotError::corrupt(format!("section {i} length {len} overflows usize"))
            })?;
            let checksum = r.u64()?;
            let payload = r.take(len).map_err(|_| {
                SnapshotError::corrupt(format!(
                    "section {} truncated (framed length {len}, {} bytes left)",
                    tag_name(tag),
                    bytes.len()
                ))
            })?;
            if fnv1a64(payload) != checksum {
                return Err(SnapshotError::corrupt(format!(
                    "section {} checksum mismatch",
                    tag_name(tag)
                )));
            }
            sections.push((tag, payload));
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::corrupt(format!(
                "{} trailing bytes after last section",
                r.remaining()
            )));
        }
        Ok(SnapshotReader { sections })
    }

    /// A decoder over the payload of the section with the given tag.
    pub fn section(&self, tag: [u8; 4]) -> Result<ByteReader<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| ByteReader::new(payload))
            .ok_or_else(|| SnapshotError::corrupt(format!("missing section {}", tag_name(tag))))
    }
}

fn tag_name(tag: [u8; 4]) -> String {
    String::from_utf8_lossy(&tag).into_owned()
}

/// An algebra that can serialize itself into a snapshot section and be
/// rebuilt from one. Restore validates structure (state counts, id ranges)
/// and reports problems as [`SnapshotError::Corrupt`].
pub trait SnapshotAlgebra: Algebra + Sized {
    /// Serializes the algebra's full interned state.
    fn snapshot_write(&self, w: &mut ByteWriter);
    /// Rebuilds the algebra from serialized state, validating as it goes.
    fn snapshot_read(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError>;
}

/// Atomically replaces `path` with `bytes`: write to a temporary file in
/// the same directory, fsync it, rename over `path`, fsync the directory.
/// A crash at any point leaves either the previous file or the complete
/// new one — never a torn mix (a leftover `.tmp` is ignored by loads).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let file_name = path.file_name().ok_or_else(|| {
        SnapshotError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("snapshot path {} has no file name", path.display()),
        ))
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = dir.join(tmp_name);
    let write = || -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        // Best-effort cleanup; the original error is what matters.
        let _ = fs::remove_file(&tmp);
        return Err(SnapshotError::Io(e));
    }
    // Make the rename itself durable. Directory fsync is advisory on some
    // platforms; failure here does not un-write the snapshot.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads a snapshot file whole. File-system problems (missing file,
/// permissions) surface as [`SnapshotError::Io`].
pub fn read_snapshot_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    fs::read(path).map_err(SnapshotError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_section() -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(7);
        w.str("hello");
        w.bool_seq(&[true, false]);
        w.u32_seq(&[1, 2, 3]);
        let mut snap = SnapshotWriter::new();
        snap.section(*b"TEST", w);
        snap.finish()
    }

    #[test]
    fn container_round_trips() {
        let bytes = one_section();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        let mut r = reader.section(*b"TEST").unwrap();
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bool_seq().unwrap(), vec![true, false]);
        assert_eq!(r.u32_seq().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = one_section();
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            assert!(
                matches!(
                    SnapshotReader::parse(truncated),
                    Err(SnapshotError::Corrupt { .. })
                ),
                "truncation at {cut} must be corrupt"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_in_payload_is_detected() {
        let bytes = one_section();
        // Flip each bit of the payload region (after the 36-byte header:
        // 16 container + 20 section header) — the checksum must catch it.
        for i in 36..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    matches!(
                        SnapshotReader::parse(&flipped),
                        Err(SnapshotError::Corrupt { .. })
                    ),
                    "payload bit flip at byte {i} bit {bit} must be corrupt"
                );
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = one_section();
        bytes[0] = b'X';
        assert!(SnapshotReader::parse(&bytes).is_err());
        let mut bytes = one_section();
        bytes[8] = 99;
        let err = SnapshotReader::parse(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Earlier formats are a typed corruption, not a restore: version 4
        // images also held each edge's mirror at its target, version 3
        // images mutation stamps, version 2 images the projection-merging
        // memo and the cycle-search depth, version 1 images upper bounds
        // copied backward along edges.
        for old in [1u32, 2, 3, 4] {
            let mut bytes = one_section();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let err = SnapshotReader::parse(&bytes).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Corrupt { detail }
                    if detail.contains(&format!("version {old}"))),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_section_and_trailing_bytes_are_corrupt() {
        let bytes = one_section();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        assert!(reader.section(*b"NOPE").is_err());
        let mut extended = one_section();
        extended.push(0);
        assert!(SnapshotReader::parse(&extended).is_err());
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        let mut w = ByteWriter::new();
        w.seq_len(usize::MAX / 2);
        let payload = w.into_bytes();
        let mut r = ByteReader::new(&payload);
        assert!(r.seq_len().is_err(), "length beyond payload rejected");
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join(format!("rasc-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.snap");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), b"two");
        assert!(matches!(
            read_snapshot_file(&dir.join("absent.snap")),
            Err(SnapshotError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
