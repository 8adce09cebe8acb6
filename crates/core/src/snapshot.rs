//! Crash-safe snapshots of a solved system: a versioned,
//! section-checksummed binary container, and the codecs of the two
//! sections a [`System`] writes into it. A format change edits this
//! module alone.
//!
//! The container layout is deliberately self-describing and boring:
//!
//! ```text
//! magic "RASCSNAP" (8 bytes)
//! version        u32 (little-endian, currently 5)
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
//! [`System::snapshot_sections`] writes the [`TAG_ALGEBRA`] section (the
//! transition monoid) and the [`TAG_SOLVED`] section (the solved form; see
//! [`SNAPSHOT_VERSION`]), and [`System::restore_sections`] reads them
//! back, checking every decoded id against the table it indexes.
//! `rasc-inc` adds the [`TAG_ENGINE`] section.
//!
//! Durability is provided by [`write_atomic`]: the bytes are written to a
//! temporary file in the destination directory, fsynced, renamed over the
//! destination, and the directory is fsynced — a crash at any point leaves
//! either the old snapshot or the new one, never a torn mix.

use std::fmt;
use std::fs::{self, File};
use std::hash::Hash;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use rasc_automata::{Monoid, StateId};

use crate::algebra::{Algebra, AnnId, MonoidAlgebra};
use crate::constraint::{Constraint, SetExpr};
use crate::idhash::IdMap;
use crate::provenance::{ProvKey, Provenance, Reason};
use crate::solver::{
    entry_count, Clash, Sink, SnkId, SolverConfig, Source, SrcId, System, VarData, VarId,
};
use crate::store::{AnnMap, CowVec, InternTable};
use crate::term::{ConsId, Constructor, Variance};

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

impl System<MonoidAlgebra> {
    /// Serializes the algebra and the full solved form into `snap` as the
    /// [`TAG_ALGEBRA`] and [`TAG_SOLVED`] sections. The encoding is
    /// deterministic: entry logs are written in insertion order and every
    /// hash-keyed table is sorted before writing, so identical systems
    /// produce identical bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::State`] unless the system is at a fixpoint
    /// (empty worklist — call [`System::solve`] first) with no open epoch.
    pub fn snapshot_sections(&self, snap: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        if self.pending_facts() != 0 {
            return Err(SnapshotError::state(format!(
                "cannot snapshot with {} pending worklist facts (solve to a fixpoint first)",
                self.pending_facts()
            )));
        }
        if self.epoch_depth() != 0 {
            return Err(SnapshotError::state(format!(
                "cannot snapshot with {} open epochs (commit or pop them first)",
                self.epoch_depth()
            )));
        }
        snap.section(TAG_ALGEBRA, write_algebra(&self.algebra));

        let mut w = ByteWriter::new();
        w.bool(self.config.cycle_elimination);
        w.seq_len(self.constructors.len());
        for c in self.constructors.iter() {
            w.str(&c.name);
            w.seq_len(c.signature.len());
            for v in &c.signature {
                w.u8(match v {
                    Variance::Covariant => 0,
                    Variance::Contravariant => 1,
                });
            }
        }
        w.seq_len(self.vars.len());
        w.seq_len(self.sources.len());
        for s in self.sources.iter() {
            write_applied(&mut w, s.cons, &s.args);
        }
        w.seq_len(self.sinks.len());
        for s in self.sinks.iter() {
            match s {
                Sink::Cons { cons, args } => {
                    w.u8(0);
                    write_applied(&mut w, *cons, args);
                }
                Sink::Proj {
                    cons,
                    index,
                    target,
                } => {
                    w.u8(1);
                    w.u32(cons.0);
                    w.u64(*index as u64);
                    w.u32(target.0);
                }
            }
        }
        for v in self.vars.iter() {
            w.str(&v.name);
            write_log(&mut w, &v.succs, |k: VarId| k.0);
            write_log(&mut w, &v.lbs, |k: SrcId| k.0);
            write_log(&mut w, &v.ubs, |k: SnkId| k.0);
        }
        w.seq_len(self.parent.len());
        for &p in self.parent.iter() {
            w.u32(p);
        }
        w.seq_len(self.constraints.len());
        for con in self.constraints.iter() {
            write_expr(&mut w, &con.lhs);
            write_expr(&mut w, &con.rhs);
            w.u32(con.ann.0);
        }
        w.seq_len(self.clashes.len());
        for cl in &self.clashes {
            match cl {
                Clash::ConstructorMismatch { lhs, rhs, ann } => {
                    w.u8(0);
                    w.u32(lhs.0);
                    w.u32(rhs.0);
                    w.u32(ann.0);
                }
                Clash::ContravariantAnnotated {
                    cons,
                    position,
                    ann,
                } => {
                    w.u8(1);
                    w.u32(cons.0);
                    w.u64(*position as u64);
                    w.u32(ann.0);
                }
            }
        }
        for n in [
            self.facts_processed,
            self.cycles_collapsed,
            self.fuel_spent,
            self.interruptions,
            self.depth_limit_hits,
        ] {
            w.u64(n as u64);
        }
        match self.prov.as_deref() {
            None => w.bool(false),
            Some(p) => {
                w.bool(true);
                let mut entries: Vec<(ProvKey, Reason)> = p.iter().map(|(&k, &r)| (k, r)).collect();
                entries.sort_unstable_by_key(|&(k, _)| prov_sort_key(k));
                w.seq_len(entries.len());
                for (k, reason) in entries {
                    write_prov_key(&mut w, k);
                    write_reason(&mut w, reason);
                }
            }
        }
        snap.section(TAG_SOLVED, w);
        Ok(())
    }

    /// Serializes into a standalone snapshot container holding just the
    /// [`TAG_ALGEBRA`] and [`TAG_SOLVED`] sections (higher layers append
    /// their own sections via [`System::snapshot_sections`]).
    ///
    /// # Errors
    ///
    /// See [`System::snapshot_sections`].
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut snap = SnapshotWriter::new();
        self.snapshot_sections(&mut snap)?;
        Ok(snap.finish())
    }

    /// Streams [`System::snapshot_bytes`] to `out` and flushes it; returns
    /// the byte count. No atomicity: the caller owns durability (files go
    /// through [`write_atomic`]). This is the seam the crash-recovery tests
    /// drive with short writes and `ENOSPC`.
    ///
    /// # Errors
    ///
    /// See [`System::snapshot_sections`]; a failed write is
    /// [`SnapshotError::Io`].
    pub fn snapshot_to_writer(&self, out: &mut dyn Write) -> Result<u64, SnapshotError> {
        let bytes = self.snapshot_bytes()?;
        out.write_all(&bytes)?;
        out.flush()?;
        Ok(bytes.len() as u64)
    }

    /// Rebuilds a system from a parsed snapshot container, validating
    /// every id against the restored tables — out-of-range variables,
    /// constructors, sources, sinks, or annotations are reported as
    /// [`SnapshotError::Corrupt`], never silently mis-restored.
    ///
    /// The restored system is at a fixpoint with an empty worklist, no
    /// open epochs, and exactly the stats/clashes/provenance of the
    /// snapshotted one.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on any structural or range violation.
    pub fn restore_sections(
        reader: &SnapshotReader<'_>,
    ) -> Result<System<MonoidAlgebra>, SnapshotError> {
        let mut ar = reader.section(TAG_ALGEBRA)?;
        let algebra = read_algebra(&mut ar)?;
        ar.finish()?;
        let mut d = SolvReader {
            r: reader.section(TAG_SOLVED)?,
            constructors: Vec::new(),
            annotations: algebra.len(),
            vars: 0,
            sources: 0,
            sinks: 0,
        };
        let config = SolverConfig {
            cycle_elimination: d.r.bool()?,
        };
        let mut sys = System::with_config(algebra, config);
        for _ in 0..d.r.seq_len()? {
            let name = d.r.str()?;
            let n_sig = d.r.seq_len()?;
            let signature = (0..n_sig)
                .map(|_| match d.r.u8()? {
                    0 => Ok(Variance::Covariant),
                    1 => Ok(Variance::Contravariant),
                    other => Err(SnapshotError::corrupt(format!(
                        "invalid variance byte {other}"
                    ))),
                })
                .collect::<Result<_, _>>()?;
            d.constructors.push(Constructor { name, signature });
        }
        d.vars = d.r.seq_len()?;

        d.sources = d.r.seq_len()?;
        let sources = (0..d.sources)
            .map(|i| {
                let (cons, args) = d.applied("source", i)?;
                Ok(Source { cons, args })
            })
            .collect::<Result<_, SnapshotError>>()?;
        sys.sources = InternTable::from_list(sources)
            .map_err(|i| SnapshotError::corrupt(format!("duplicate source {i}")))?;
        d.sinks = d.r.seq_len()?;
        let sinks = (0..d.sinks).map(|i| d.sink(i)).collect::<Result<_, _>>()?;
        sys.sinks = InternTable::from_list(sinks)
            .map_err(|i| SnapshotError::corrupt(format!("duplicate sink {i}")))?;

        for vi in 0..d.vars {
            let dup = |what: &str| {
                SnapshotError::corrupt(format!("duplicate {what} entry on variable {vi}"))
            };
            let mut data = VarData {
                name: d.r.str()?.into(),
                ..VarData::default()
            };
            if !data.succs.load_log(d.log(SolvReader::var)?) {
                return Err(dup("succ"));
            }
            if !data.lbs.load_log(d.log(SolvReader::src)?) {
                return Err(dup("lower-bound"));
            }
            if !data.ubs.load_log(d.log(SolvReader::snk)?) {
                return Err(dup("upper-bound"));
            }
            sys.live_entries += entry_count(&data);
            sys.vars.push(data);
        }
        let n_parents = d.r.seq_len()?;
        if n_parents != d.vars {
            return Err(SnapshotError::corrupt(format!(
                "union-find has {n_parents} parents for {} variables",
                d.vars
            )));
        }
        sys.parent = (0..n_parents)
            .map(|_| d.var().map(|v| v.0))
            .collect::<Result<_, _>>()?;
        let n_constraints = d.r.seq_len()?;
        let constraints = (0..n_constraints)
            .map(|i| {
                Ok(Constraint {
                    lhs: d.expr(i)?,
                    rhs: d.expr(i)?,
                    ann: d.ann()?,
                })
            })
            .collect::<Result<_, SnapshotError>>()?;
        sys.constraints = CowVec::from_vec(constraints);
        for _ in 0..d.r.seq_len()? {
            let clash = match d.r.u8()? {
                0 => Clash::ConstructorMismatch {
                    lhs: d.cons()?,
                    rhs: d.cons()?,
                    ann: d.ann()?,
                },
                1 => Clash::ContravariantAnnotated {
                    cons: d.cons()?,
                    position: d.usize()?,
                    ann: d.ann()?,
                },
                other => return Err(SnapshotError::corrupt(format!("invalid clash tag {other}"))),
            };
            if !sys.clash_set.insert(clash.clone()) {
                return Err(SnapshotError::corrupt("duplicate clash entry"));
            }
            sys.clashes.push(clash);
        }
        sys.facts_processed = d.usize()?;
        sys.cycles_collapsed = d.usize()?;
        sys.fuel_spent = d.usize()?;
        sys.interruptions = d.usize()?;
        sys.depth_limit_hits = d.usize()?;
        if d.r.bool()? {
            let n_prov = d.r.seq_len()?;
            let mut map = IdMap::with_capacity_and_hasher(n_prov, Default::default());
            for _ in 0..n_prov {
                let key = d.prov_key()?;
                let reason = d.reason()?;
                if let Reason::Constraint(i) = reason {
                    if i >= n_constraints {
                        return Err(SnapshotError::corrupt(format!(
                            "provenance cites constraint {i} of {n_constraints}"
                        )));
                    }
                }
                if map.insert(key, reason).is_some() {
                    return Err(SnapshotError::corrupt("duplicate provenance key"));
                }
            }
            sys.prov = Some(Box::new(Provenance {
                map,
                ..Provenance::default()
            }));
        }
        d.r.finish()?;
        sys.constructors = CowVec::from_vec(d.constructors);
        Ok(sys)
    }

    /// Rebuilds a system from standalone snapshot bytes (the counterpart
    /// of [`System::snapshot_bytes`]).
    ///
    /// # Errors
    ///
    /// See [`System::restore_sections`].
    pub fn restore_bytes(bytes: &[u8]) -> Result<System<MonoidAlgebra>, SnapshotError> {
        let reader = SnapshotReader::parse(bytes)?;
        Self::restore_sections(&reader)
    }
}

/// Writes the ALGB section: the minimized machine's states, its
/// reachability vectors, and every interned monoid function.
fn write_algebra(alg: &MonoidAlgebra) -> ByteWriter {
    let mut w = ByteWriter::new();
    let m = &alg.monoid;
    w.u32(m.n_states() as u32);
    w.u32(m.start_state().index() as u32);
    let accepting: Vec<bool> = (0..m.n_states())
        .map(|i| m.state_accepting(StateId::from_index(i)))
        .collect();
    w.bool_seq(&accepting);
    w.bool_seq(&alg.reachable);
    w.bool_seq(&alg.coreachable);
    w.u32(m.identity().index() as u32);
    let gens: Vec<u32> = m.generators().iter().map(|g| g.index() as u32).collect();
    w.u32_seq(&gens);
    w.seq_len(m.len());
    for f in m.fn_ids() {
        let images: Vec<u32> = m.repr_fn(f).images().map(|s| s.index() as u32).collect();
        w.u32_seq(&images);
    }
    w
}

/// Reads the ALGB section; [`Monoid::from_parts`] validates the table.
fn read_algebra(r: &mut ByteReader<'_>) -> Result<MonoidAlgebra, SnapshotError> {
    let n_states = r.u32()? as usize;
    let start = r.u32()? as usize;
    let accepting = r.bool_seq()?;
    let reachable = r.bool_seq()?;
    let coreachable = r.bool_seq()?;
    let identity = r.u32()? as usize;
    let generators = r.u32_seq()?;
    let n_fns = r.seq_len()?;
    let mut fn_images = Vec::with_capacity(n_fns);
    for _ in 0..n_fns {
        fn_images.push(r.u32_seq()?);
    }
    if reachable.len() != n_states || coreachable.len() != n_states {
        return Err(SnapshotError::corrupt(format!(
            "reachability vectors sized {}/{} for {n_states} states",
            reachable.len(),
            coreachable.len()
        )));
    }
    let monoid =
        Monoid::from_parts(n_states, start, accepting, fn_images, identity, &generators)
            .map_err(|detail| SnapshotError::corrupt(format!("monoid table rejected: {detail}")))?;
    Ok(MonoidAlgebra {
        monoid: Arc::new(monoid),
        reachable,
        coreachable,
    })
}

/// Writes a constructor application `head(args)`: the head's id, then
/// the argument variables as a sequence.
fn write_applied(w: &mut ByteWriter, cons: ConsId, args: &[VarId]) {
    w.u32(cons.0);
    w.seq_len(args.len());
    for v in args {
        w.u32(v.0);
    }
}

/// Writes an entry log: its length, then each `(key, annotation)` pair.
fn write_log<K: Copy + Eq + Hash>(w: &mut ByteWriter, log: &AnnMap<K>, key: impl Fn(K) -> u32) {
    w.seq_len(log.len());
    for (k, a) in log.iter_entries() {
        w.u32(key(k));
        w.u32(a.0);
    }
}

fn write_expr(w: &mut ByteWriter, e: &SetExpr) {
    match e {
        SetExpr::Var(v) => {
            w.u8(0);
            w.u32(v.0);
        }
        SetExpr::Cons(c, args) => {
            w.u8(1);
            write_applied(w, *c, args);
        }
        SetExpr::Proj(c, i, v) => {
            w.u8(2);
            w.u32(c.0);
            w.u64(*i as u64);
            w.u32(v.0);
        }
    }
}

fn prov_sort_key(k: ProvKey) -> (u8, u32, u32, u32) {
    match k {
        ProvKey::Edge(x, y, a) => (0, x.0, y.0, a.0),
        ProvKey::Lb(x, s, a) => (1, x.0, s.0, a.0),
        ProvKey::Ub(x, s, a) => (2, x.0, s.0, a.0),
    }
}

fn write_prov_key(w: &mut ByteWriter, k: ProvKey) {
    let (tag, a, b, ann) = prov_sort_key(k);
    w.u8(tag);
    w.u32(a);
    w.u32(b);
    w.u32(ann);
}

fn write_reason(w: &mut ByteWriter, reason: Reason) {
    match reason {
        Reason::Constraint(i) => {
            w.u8(0);
            w.u64(i as u64);
        }
        Reason::TransLb { edge, lb } => {
            w.u8(1);
            w.u32(edge.0 .0);
            w.u32(edge.1 .0);
            w.u32(edge.2 .0);
            w.u32(lb.0 .0);
            w.u32(lb.1 .0);
            w.u32(lb.2 .0);
        }
        Reason::Meet {
            var,
            src,
            src_ann,
            snk,
            snk_ann,
        } => {
            w.u8(3);
            w.u32(var.0);
            w.u32(src.0);
            w.u32(src_ann.0);
            w.u32(snk.0);
            w.u32(snk_ann.0);
        }
        Reason::Collapsed { from } => {
            w.u8(4);
            w.u32(from.0);
        }
    }
}

/// The SOLV payload decoder. Every id it reads is checked against the
/// size of the table the id indexes, known once that table is read (an
/// id read earlier is out of range), so a restored system never holds a
/// dangling id.
struct SolvReader<'a> {
    r: ByteReader<'a>,
    /// The constructors decoded so far (their arities check applications).
    constructors: Vec<Constructor>,
    annotations: usize,
    vars: usize,
    sources: usize,
    sinks: usize,
}

impl SolvReader<'_> {
    /// Reads an id and checks it against `len`, the number of `what`s.
    fn id(&mut self, len: usize, what: &str) -> Result<u32, SnapshotError> {
        let raw = self.r.u32()?;
        if (raw as usize) < len {
            Ok(raw)
        } else {
            Err(SnapshotError::corrupt(format!(
                "{what} id {raw} out of range ({len} {what}s)"
            )))
        }
    }

    fn var(&mut self) -> Result<VarId, SnapshotError> {
        self.id(self.vars, "variable").map(VarId)
    }

    fn cons(&mut self) -> Result<ConsId, SnapshotError> {
        self.id(self.constructors.len(), "constructor").map(ConsId)
    }

    fn ann(&mut self) -> Result<AnnId, SnapshotError> {
        self.id(self.annotations, "annotation").map(AnnId)
    }

    fn src(&mut self) -> Result<SrcId, SnapshotError> {
        self.id(self.sources, "source").map(SrcId)
    }

    fn snk(&mut self) -> Result<SnkId, SnapshotError> {
        self.id(self.sinks, "sink").map(SnkId)
    }

    /// Reads a count or position written as a `u64`.
    fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.r.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::corrupt(format!("value {v} overflows usize")))
    }

    /// Reads an application written by [`write_applied`], checking the
    /// head's arity; the error names the entry as `{what} {i}`.
    fn applied(&mut self, what: &str, i: usize) -> Result<(ConsId, Vec<VarId>), SnapshotError> {
        let cons = self.cons()?;
        let n = self.r.seq_len()?;
        let args = (0..n).map(|_| self.var()).collect::<Result<Vec<_>, _>>()?;
        let decl = &self.constructors[cons.index()];
        if args.len() != decl.arity() {
            return Err(SnapshotError::corrupt(format!(
                "{what} {i} applies constructor {} to {} args",
                decl.name,
                args.len()
            )));
        }
        Ok((cons, args))
    }

    /// Reads interned sink `i`.
    fn sink(&mut self, i: usize) -> Result<Sink, SnapshotError> {
        match self.r.u8()? {
            0 => {
                let (cons, args) = self.applied("sink", i)?;
                Ok(Sink::Cons { cons, args })
            }
            1 => {
                let (cons, index, target) = (self.cons()?, self.usize()?, self.var()?);
                let arity = self.constructors[cons.index()].arity();
                if index >= arity {
                    return Err(SnapshotError::corrupt(format!(
                        "sink {i} projects position {index} of {arity}-ary constructor"
                    )));
                }
                Ok(Sink::Proj {
                    cons,
                    index,
                    target,
                })
            }
            other => Err(SnapshotError::corrupt(format!("invalid sink tag {other}"))),
        }
    }

    /// Reads an entry log written by [`write_log`].
    fn log<K>(
        &mut self,
        key: impl Fn(&mut Self) -> Result<K, SnapshotError>,
    ) -> Result<Vec<(K, AnnId)>, SnapshotError> {
        let n = self.r.seq_len()?;
        let mut out = Vec::with_capacity(n.min(self.r.remaining() / 8 + 1));
        for _ in 0..n {
            out.push((key(self)?, self.ann()?));
        }
        Ok(out)
    }

    /// Reads one side of surface constraint `i`.
    fn expr(&mut self, i: usize) -> Result<SetExpr, SnapshotError> {
        match self.r.u8()? {
            0 => Ok(SetExpr::Var(self.var()?)),
            1 => {
                let (c, args) = self.applied("constraint", i)?;
                Ok(SetExpr::Cons(c, args))
            }
            2 => Ok(SetExpr::Proj(self.cons()?, self.usize()?, self.var()?)),
            other => Err(SnapshotError::corrupt(format!(
                "invalid set-expression tag {other}"
            ))),
        }
    }

    fn prov_key(&mut self) -> Result<ProvKey, SnapshotError> {
        match self.r.u8()? {
            0 => Ok(ProvKey::Edge(self.var()?, self.var()?, self.ann()?)),
            1 => Ok(ProvKey::Lb(self.var()?, self.src()?, self.ann()?)),
            2 => Ok(ProvKey::Ub(self.var()?, self.snk()?, self.ann()?)),
            other => Err(SnapshotError::corrupt(format!(
                "invalid provenance key tag {other}"
            ))),
        }
    }

    fn reason(&mut self) -> Result<Reason, SnapshotError> {
        match self.r.u8()? {
            0 => Ok(Reason::Constraint(self.usize()?)),
            1 => Ok(Reason::TransLb {
                edge: (self.var()?, self.var()?, self.ann()?),
                lb: (self.var()?, self.src()?, self.ann()?),
            }),
            3 => Ok(Reason::Meet {
                var: self.var()?,
                src: self.src()?,
                src_ann: self.ann()?,
                snk: self.snk()?,
                snk_ann: self.ann()?,
            }),
            4 => Ok(Reason::Collapsed { from: self.var()? }),
            other => Err(SnapshotError::corrupt(format!(
                "invalid provenance reason tag {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::tests::one_bit_system;
    use rasc_automata::{Alphabet, Regex};

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

    #[test]
    fn snapshot_round_trips_the_algebra() {
        let sigma = Alphabet::from_names(["a", "b"]);
        let a = sigma.lookup("a").unwrap();
        let b = sigma.lookup("b").unwrap();
        let m = Regex::parse("a b* a", &sigma).unwrap().compile(&sigma);
        let mut alg = MonoidAlgebra::new(&m);
        let fa = alg.word(&[a]);
        let _ = alg.word(&[a, b]);
        let _ = alg.word(&[a, b, a]);
        let bytes = write_algebra(&alg).into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut back = read_algebra(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), alg.len());
        for i in 0..alg.len() {
            let id = AnnId(i as u32);
            assert_eq!(alg.describe(id), back.describe(id), "fn {i}");
            assert_eq!(alg.is_accepting(id), back.is_accepting(id), "fn {i}");
            assert_eq!(alg.is_useful(id), back.is_useful(id), "fn {i}");
        }
        assert_eq!(back.compose(fa, back.identity()), fa);
        // A corrupted byte inside the table is a typed error, not a panic.
        let mut broken = bytes.clone();
        let last = broken.len() - 1;
        broken[last] ^= 0x40;
        let mut r = ByteReader::new(&broken);
        assert!(read_algebra(&mut r).is_err());
    }

    #[test]
    fn snapshot_round_trips_the_solved_form() {
        let (mut sys, g, k) = one_bit_system();
        sys.enable_provenance();
        let c = sys.constructor("c", &[]);
        let d = sys.constructor("d", &[]);
        let pair = sys.constructor("pair", &[Variance::Covariant, Variance::Covariant]);
        let (x, y, z, a, b) = (
            sys.var("X"),
            sys.var("Y"),
            sys.var("Z"),
            sys.var("A"),
            sys.var("B"),
        );
        let fg = sys.algebra_mut().word(&[g]);
        let fk = sys.algebra_mut().word(&[k]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.add_ann(SetExpr::var(x), SetExpr::var(y), fk).unwrap();
        sys.add_ann(SetExpr::var(y), SetExpr::var(z), fg).unwrap();
        // A cycle so union-find state is nontrivial.
        sys.add(SetExpr::var(a), SetExpr::var(b)).unwrap();
        sys.add(SetExpr::var(b), SetExpr::var(a)).unwrap();
        // A clash and a projection.
        sys.add(SetExpr::var(x), SetExpr::cons(d, [])).unwrap();
        sys.add(SetExpr::cons_vars(pair, [x, y]), SetExpr::var(a))
            .unwrap();
        sys.add(SetExpr::proj(pair, 0, a), SetExpr::var(b)).unwrap();
        sys.solve();

        let bytes = sys.snapshot_bytes().unwrap();
        let back: System<MonoidAlgebra> = System::restore_bytes(&bytes).unwrap();
        assert_eq!(back.stats(), sys.stats());
        assert_eq!(back.clashes(), sys.clashes());
        assert_eq!(back.num_constraints(), sys.num_constraints());
        assert_eq!(back.render_solved_form(), sys.render_solved_form());
        assert_eq!(
            back.lower_bound_annotations(z, c),
            sys.lower_bound_annotations(z, c)
        );
        assert_eq!(back.explain(b, c).len(), sys.explain(b, c).len());
        assert_eq!(back.find(b), sys.find(b), "union-find survives");
        // Deterministic serialization: snapshotting the restored system
        // reproduces the bytes exactly.
        assert_eq!(back.snapshot_bytes().unwrap(), bytes);
        // The restored system keeps solving correctly.
        let mut back = back;
        let e = sys.algebra().identity();
        let w2 = back.var("W2");
        back.add_ann(SetExpr::var(z), SetExpr::var(w2), e).unwrap();
        back.solve();
        assert_eq!(back.lower_bound_annotations(w2, c), vec![fg]);
    }

    #[test]
    fn system_round_trips_through_writer_and_file() {
        let dir = std::env::temp_dir().join(format!("rasc-core-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("system.snap");
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let x = sys.var("X");
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.solve();

        // Writer and file paths produce the same bytes.
        let mut streamed = Vec::new();
        let n = sys.snapshot_to_writer(&mut streamed).unwrap();
        assert_eq!(n as usize, streamed.len());
        crate::snapshot::write_atomic(&path, &sys.snapshot_bytes().unwrap()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), streamed);

        let bytes = crate::snapshot::read_snapshot_file(&path).unwrap();
        let back: System<MonoidAlgebra> = System::restore_bytes(&bytes).unwrap();
        assert_eq!(back.lower_bound_annotations(x, c).len(), 1);
        assert_eq!(back.stats().vars, sys.stats().vars);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_preconditions_are_typed_state_errors() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let x = sys.var("X");
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        // Pending worklist → State error.
        assert!(matches!(
            sys.snapshot_bytes(),
            Err(SnapshotError::State { .. })
        ));
        sys.solve();
        sys.push_epoch();
        assert!(matches!(
            sys.snapshot_bytes(),
            Err(SnapshotError::State { .. })
        ));
        sys.commit_epoch();
        assert!(sys.snapshot_bytes().is_ok());
    }

    /// A checksum-valid image whose variable count asks for 2^44
    /// variables is corrupt: the count is checked against the payload
    /// left before anything is allocated for it. (FNV-1a catches torn
    /// writes, but anyone who can write the file can recompute it.)
    #[test]
    fn resealed_hostile_variable_count_is_corrupt() {
        let (mut sys, _, _) = one_bit_system();
        let vars: Vec<VarId> = (0..7).map(|i| sys.var(&format!("v{i}"))).collect();
        sys.add(SetExpr::var(vars[0]), SetExpr::var(vars[1]))
            .unwrap();
        sys.solve();
        let mut bytes = sys.snapshot_bytes().unwrap();
        // Header (16 bytes), then ALGB's 20-byte frame and payload, then
        // SOLV's frame: tag, payload length, checksum.
        let le_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let solv = 36 + le_u64(&bytes[20..28]) as usize;
        assert_eq!(bytes[solv..solv + 4], TAG_SOLVED);
        let payload = solv + 20..solv + 20 + le_u64(&bytes[solv + 4..solv + 12]) as usize;
        // With no constructors, the first 7 in the payload is the
        // variable count.
        let count = payload.start
            + bytes[payload.clone()]
                .windows(8)
                .position(|w| w == 7u64.to_le_bytes())
                .unwrap();
        bytes[count..count + 8].copy_from_slice(&(1u64 << 44).to_le_bytes());
        let checksum = crate::snapshot::fnv1a64(&bytes[payload]);
        bytes[solv + 12..solv + 20].copy_from_slice(&checksum.to_le_bytes());
        let err = System::<MonoidAlgebra>::restore_bytes(&bytes).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Corrupt { detail } if detail.contains("17592186044416")),
            "{err}"
        );
    }
}
