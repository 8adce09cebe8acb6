//! Crash-safe persistence for batch engines.
//!
//! Builds on the `rasc-core` snapshot container (magic + version +
//! checksummed sections, which `System::snapshot_bytes` /
//! `System::restore_bytes` fill with a solved form) and adds the engine
//! layer: [`BatchEngine::snapshot_to`] / [`BatchEngine::restore_from`]
//! persist and reload the solved form plus an `ENGN` section carrying the
//! protocol's name tables (alphabet symbols, constructor and variable
//! name→id maps), so a restored engine answers queries by the same names
//! the client used; [`EngineBase::decode`] freezes such an image into a
//! shared fork base.
//!
//! Every path-based write goes through `write_atomic` (temp file, fsync,
//! rename), so a crash mid-checkpoint leaves the previous snapshot
//! intact. Every load validates before it mutates: a corrupt or
//! mismatched snapshot leaves the engine exactly as it was and returns a
//! typed [`SnapshotError`].
//!
//! Observability: writes record `snap.write.micros` and `snap.bytes`;
//! restores record `snap.restore.micros`; every rejected-corrupt load
//! bumps `snap.corrupt_rejected`.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rasc_automata::Alphabet;
use rasc_core::algebra::MonoidAlgebra;
use rasc_core::snapshot::{
    read_snapshot_file, write_atomic, ByteWriter, SnapshotReader, SnapshotWriter, TAG_ENGINE,
};
use rasc_core::{ConsId, SnapshotError, System, VarId};

use crate::batch::BatchEngine;
use crate::names::Names;

/// Micros elapsed since `start`, saturating into a `u64`.
fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Records the write-side metrics for a successful snapshot.
fn note_write(start: Instant, bytes: u64) {
    rasc_obs::histogram("snap.write.micros", micros_since(start));
    rasc_obs::histogram("snap.bytes", bytes);
}

/// Records restore metrics: duration on success, a rejection counter when
/// the snapshot was detected as corrupt.
fn note_restore<T>(start: Instant, result: &Result<T, SnapshotError>) {
    match result {
        Ok(_) => rasc_obs::histogram("snap.restore.micros", micros_since(start)),
        Err(SnapshotError::Corrupt { .. }) => rasc_obs::counter("snap.corrupt_rejected", 1),
        Err(_) => {}
    }
}

impl BatchEngine {
    /// Serializes the engine: the solved form plus an `ENGN` section with
    /// the alphabet and the constructor/variable name maps.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut snap = SnapshotWriter::new();
        self.sys.snapshot_sections(&mut snap)?;
        let mut w = ByteWriter::new();
        w.seq_len(self.sigma.len());
        for sym in self.sigma.symbols() {
            w.str(self.sigma.name(sym));
        }
        // Name maps are hash-ordered in memory; serialize sorted by id so
        // snapshots of equal engines are byte-identical.
        let mut cons: Vec<(&String, u32)> = self
            .cons
            .iter()
            .map(|(name, id)| (name, id.index() as u32))
            .collect();
        cons.sort_by_key(|&(_, id)| id);
        w.seq_len(cons.len());
        for (name, id) in cons {
            w.str(name);
            w.u32(id);
        }
        let mut vars: Vec<(&String, u32)> = self
            .vars
            .iter()
            .map(|(name, id)| (name, id.index() as u32))
            .collect();
        vars.sort_by_key(|&(_, id)| id);
        w.seq_len(vars.len());
        for (name, id) in vars {
            w.str(name);
            w.u32(id);
        }
        snap.section(TAG_ENGINE, w);
        Ok(snap.finish())
    }

    /// Atomically writes the engine's snapshot to `path`; returns the
    /// snapshot size in bytes.
    pub fn snapshot_to(&self, path: &Path) -> Result<u64, SnapshotError> {
        self.snapshot_to_returning(path).map(|b| b.len() as u64)
    }

    /// Like [`BatchEngine::snapshot_to`] but hands back the serialized
    /// bytes (the serve layer reuses them as its warm-start base image).
    pub(crate) fn snapshot_to_returning(&self, path: &Path) -> Result<Vec<u8>, SnapshotError> {
        let start = Instant::now();
        let bytes = self.snapshot_bytes()?;
        write_atomic(path, &bytes)?;
        note_write(start, bytes.len() as u64);
        Ok(bytes)
    }

    /// Replaces the engine's solved form and name maps with the snapshotted
    /// state. Validates *everything* before mutating: on any error the
    /// engine is untouched. The client-set `limits`, embedder caps and
    /// clock all survive the restore — they are connection state, not
    /// solved-form state.
    ///
    /// The snapshot's alphabet must match this engine's (same names, same
    /// order); a snapshot taken under a different property machine
    /// configuration is rejected with [`SnapshotError::State`].
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let start = Instant::now();
        let result = self.restore_validated(bytes);
        note_restore(start, &result);
        result
    }

    /// Restores the engine from a snapshot file.
    pub fn restore_from(&mut self, path: &Path) -> Result<(), SnapshotError> {
        let bytes = read_snapshot_file(path)?;
        self.restore_bytes(&bytes)
    }

    fn restore_validated(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        if self.sys.epoch_depth() != 0 {
            return Err(SnapshotError::state(format!(
                "cannot restore with {} open epoch(s); pop or commit them first",
                self.sys.epoch_depth()
            )));
        }
        let (mut sys, cons, vars) = decode_engine_snapshot(bytes, &self.sigma)?;

        // All validation passed — commit the restore. The batch engine
        // invariant: provenance is recorded for every constraint added
        // from here on, so `explain` keeps working.
        sys.enable_provenance();
        self.sys = sys;
        self.cons = Names::shared(Arc::new(cons));
        self.vars = Names::shared(Arc::new(vars));
        Ok(())
    }
}

/// A fully decoded engine snapshot: the solved form plus the protocol's
/// constructor and variable name tables.
type DecodedEngine = (
    System<MonoidAlgebra>,
    HashMap<String, ConsId>,
    HashMap<String, VarId>,
);

/// Decodes and fully validates an engine snapshot without touching any
/// engine: the `ENGN` name tables are checked against `sigma` and against
/// the restored solved form's id ranges before anything is returned.
/// Shared by [`BatchEngine::restore_bytes`] (which commits the result into
/// an existing engine) and [`EngineBase::decode`] (which freezes it into a
/// shared fork base).
fn decode_engine_snapshot(bytes: &[u8], sigma: &Alphabet) -> Result<DecodedEngine, SnapshotError> {
    let reader = SnapshotReader::parse(bytes)?;

    // Decode and validate the ENGN name tables first — it is the
    // cheapest section and catches cross-configuration restores
    // before the solved form is rebuilt.
    let mut r = reader.section(TAG_ENGINE)?;
    let n_syms = r.seq_len()?;
    let mut snap_alphabet = Vec::with_capacity(n_syms);
    for _ in 0..n_syms {
        snap_alphabet.push(r.str()?);
    }
    let names = read_name_map(&mut r, "constructor")?;
    let var_names = read_name_map(&mut r, "variable")?;
    r.finish()?;

    let engine_alphabet: Vec<&str> = sigma.symbols().map(|s| sigma.name(s)).collect();
    if snap_alphabet != engine_alphabet {
        return Err(SnapshotError::state(format!(
            "snapshot alphabet [{}] does not match engine alphabet [{}]",
            snap_alphabet.join(","),
            engine_alphabet.join(",")
        )));
    }

    let sys = System::restore_sections(&reader)?;
    let (n_vars, n_cons) = (sys.num_vars(), sys.num_constructors());
    let mut cons = HashMap::with_capacity(names.len());
    for (name, id) in names {
        if id as usize >= n_cons {
            return Err(SnapshotError::corrupt(format!(
                "constructor map entry `{name}` has id {id} but only {n_cons} constructors"
            )));
        }
        if cons
            .insert(name.clone(), ConsId::from_index(id as usize))
            .is_some()
        {
            return Err(SnapshotError::corrupt(format!(
                "duplicate constructor map entry `{name}`"
            )));
        }
    }
    let mut vars = HashMap::with_capacity(var_names.len());
    for (name, id) in var_names {
        if id as usize >= n_vars {
            return Err(SnapshotError::corrupt(format!(
                "variable map entry `{name}` has id {id} but only {n_vars} variables"
            )));
        }
        if vars
            .insert(name.clone(), VarId::from_index(id as usize))
            .is_some()
        {
            return Err(SnapshotError::corrupt(format!(
                "duplicate variable map entry `{name}`"
            )));
        }
    }
    Ok((sys, cons, vars))
}

/// A decoded engine snapshot frozen into a shared, read-only fork base.
///
/// The serve layer decodes its warm-start image into one of these **once**
/// and hands an `Arc<EngineBase>` to every connection;
/// [`BatchEngine::fork_from`] then builds a private copy-on-write engine
/// over it with a few `Arc` bumps, instead of re-parsing the snapshot
/// per connection.
#[derive(Debug)]
pub struct EngineBase {
    pub(crate) sigma: Alphabet,
    pub(crate) cons: Arc<HashMap<String, ConsId>>,
    pub(crate) vars: Arc<HashMap<String, VarId>>,
    pub(crate) base: rasc_core::BaseSystem<MonoidAlgebra>,
}

impl EngineBase {
    /// Decodes snapshot bytes into a fork base, validating exactly as
    /// [`BatchEngine::restore_bytes`] does (same alphabet check, same
    /// name-map id-range checks, same metrics: `snap.restore.micros` on
    /// success, `snap.corrupt_rejected` on corrupt input).
    pub fn decode(bytes: &[u8], sigma: &Alphabet) -> Result<EngineBase, SnapshotError> {
        let start = Instant::now();
        let result = Self::decode_validated(bytes, sigma);
        note_restore(start, &result);
        result
    }

    fn decode_validated(bytes: &[u8], sigma: &Alphabet) -> Result<EngineBase, SnapshotError> {
        let (mut sys, cons, vars) = decode_engine_snapshot(bytes, sigma)?;
        // Forked engines share the batch-engine invariant: provenance is
        // on before any post-fork constraint lands.
        sys.enable_provenance();
        Ok(EngineBase {
            sigma: sigma.clone(),
            cons: Arc::new(cons),
            vars: Arc::new(vars),
            base: sys.into_base()?,
        })
    }
}

/// Reads a `(name, id)` map section fragment, rejecting duplicate ids.
fn read_name_map(
    r: &mut rasc_core::snapshot::ByteReader<'_>,
    what: &str,
) -> Result<Vec<(String, u32)>, SnapshotError> {
    let n = r.seq_len()?;
    let mut out: Vec<(String, u32)> = Vec::with_capacity(n);
    let mut seen = HashSet::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let id = r.u32()?;
        if !seen.insert(id) {
            return Err(SnapshotError::corrupt(format!(
                "duplicate {what} id {id} in name map"
            )));
        }
        out.push((name, id));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use rasc_automata::{Alphabet, Dfa};
    use rasc_core::SnapshotError;

    use super::{ByteWriter, SnapshotWriter, TAG_ENGINE};
    use crate::json::Json;
    use crate::BatchEngine;

    fn engine() -> BatchEngine {
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let k = sigma.intern("k");
        let machine = Dfa::one_bit(&sigma, g, k);
        BatchEngine::new(sigma, &machine)
    }

    fn run(e: &mut BatchEngine, line: &str) -> Json {
        Json::parse(&e.handle_line(line).expect("a response")).expect("valid JSON response")
    }

    fn loaded_engine() -> BatchEngine {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(
            &mut e,
            r#"{"cmd":"declare","cons":"pair","signature":"++"}"#,
        );
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"pair(X,X)","rhs":"P"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"pair^-1(P)","rhs":"Y"}"#);
        e
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rasc-inc-snap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn engine_restore_preserves_the_full_query_surface() {
        let e = loaded_engine();
        let bytes = e.snapshot_bytes().unwrap();
        let mut back = engine();
        back.restore_bytes(&bytes).unwrap();
        // Solver-state stats match exactly.
        let restored_stats = run(&mut back, r#"{"cmd":"stats"}"#);
        let fresh_stats = run(&mut loaded_engine(), r#"{"cmd":"stats"}"#);
        for key in [
            "vars",
            "constructors",
            "constraints",
            "edges",
            "lower_bounds",
            "upper_bounds",
            "annotations",
            "clashes",
            "consistent",
            "epoch_depth",
        ] {
            assert_eq!(restored_stats.get(key), fresh_stats.get(key), "{key}");
        }
        for query in [
            r#"{"cmd":"query","kind":"occurs","var":"Y","cons":"c"}"#,
            r#"{"cmd":"query","kind":"anns","var":"Y","cons":"c"}"#,
            r#"{"cmd":"query","kind":"nonempty","var":"P"}"#,
            r#"{"cmd":"explain","var":"Y","cons":"c"}"#,
        ] {
            let mut fresh = loaded_engine();
            assert_eq!(
                run(&mut back, query).render(),
                run(&mut fresh, query).render(),
                "restored engine diverges on {query}"
            );
        }
        // The restored engine keeps working: new adds and epochs compose.
        run(&mut back, r#"{"cmd":"push"}"#);
        let r = run(&mut back, r#"{"cmd":"add","lhs":"Y","rhs":"Z"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("add"));
        let r = run(
            &mut back,
            r#"{"cmd":"query","kind":"occurs","var":"Z","cons":"c"}"#,
        );
        assert_eq!(r.get("result").unwrap().as_bool(), Some(true));
        run(&mut back, r#"{"cmd":"pop"}"#);
        // And explain still works for constraints added *after* restore.
        run(&mut back, r#"{"cmd":"add","lhs":"Y","rhs":"W"}"#);
        let r = run(&mut back, r#"{"cmd":"explain","var":"W","cons":"c"}"#);
        assert_eq!(r.get("holds").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn engine_snapshots_are_deterministic() {
        let a = loaded_engine().snapshot_bytes().unwrap();
        let b = loaded_engine().snapshot_bytes().unwrap();
        assert_eq!(a, b, "equal engines must serialize identically");
    }

    #[test]
    fn corrupt_and_mismatched_snapshots_leave_the_engine_untouched() {
        let e = loaded_engine();
        let bytes = e.snapshot_bytes().unwrap();

        // Truncations and bit flips are typed corruption errors.
        let mut back = loaded_engine();
        let before = run(&mut back, r#"{"cmd":"stats"}"#).render();
        assert!(matches!(
            back.restore_bytes(&bytes[..bytes.len() / 2]),
            Err(SnapshotError::Corrupt { .. })
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            back.restore_bytes(&flipped),
            Err(SnapshotError::Corrupt { .. })
        ));
        assert_eq!(
            run(&mut back, r#"{"cmd":"stats"}"#).render(),
            before,
            "failed restore must not disturb the engine"
        );

        // A system-level snapshot has no ENGN section.
        let system_only = e.session().snapshot_bytes().unwrap();
        let err = back.restore_bytes(&system_only).unwrap_err();
        assert!(err.to_string().contains("ENGN"), "{err}");

        // A snapshot from a different alphabet is a state error.
        let mut other_sigma = Alphabet::new();
        let a = other_sigma.intern("a");
        let b = other_sigma.intern("b");
        let machine = Dfa::one_bit(&other_sigma, a, b);
        let mut other = BatchEngine::new(other_sigma, &machine);
        assert!(matches!(
            other.restore_bytes(&bytes),
            Err(SnapshotError::State { .. })
        ));

        // Restoring over open epochs is refused before any parsing.
        let mut open = loaded_engine();
        run(&mut open, r#"{"cmd":"push"}"#);
        assert!(matches!(
            open.restore_bytes(&bytes),
            Err(SnapshotError::State { .. })
        ));
    }

    #[test]
    fn duplicate_ids_in_a_name_map_are_corrupt() {
        let e = loaded_engine();
        for dup in ["constructor", "variable"] {
            // A valid solved form under an `ENGN` section that gives two
            // names the same id in one of its two maps.
            let mut snap = SnapshotWriter::new();
            e.session().snapshot_sections(&mut snap).unwrap();
            let mut w = ByteWriter::new();
            w.seq_len(e.sigma.len());
            for sym in e.sigma.symbols() {
                w.str(e.sigma.name(sym));
            }
            for map in ["constructor", "variable"] {
                w.seq_len(2);
                w.str("a");
                w.u32(0);
                w.str("b");
                w.u32(if map == dup { 0 } else { 1 });
            }
            snap.section(TAG_ENGINE, w);
            let err = engine().restore_bytes(&snap.finish()).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Corrupt { detail }
                    if detail == &format!("duplicate {dup} id 0 in name map")),
                "{err}"
            );
        }
    }

    #[test]
    fn engine_file_round_trip_is_atomic_and_typed() {
        let dir = temp_dir("engine");
        let path = dir.join("engine.snap");
        let e = loaded_engine();
        let n = e.snapshot_to(&path).unwrap();
        assert_eq!(n, std::fs::metadata(&path).unwrap().len());
        // No temp file is left behind by a successful write.
        assert!(!dir.join("engine.snap.tmp").exists());
        let mut back = engine();
        back.restore_from(&path).unwrap();
        let r = run(
            &mut back,
            r#"{"cmd":"query","kind":"occurs","var":"Y","cons":"c"}"#,
        );
        assert_eq!(r.get("result").unwrap().as_bool(), Some(true));
        // Missing files are Io, not Corrupt.
        assert!(matches!(
            back.restore_from(&dir.join("absent.snap")),
            Err(SnapshotError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
