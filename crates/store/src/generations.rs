//! Generational store lineages: a directory of immutable `gen-<N>.rcs`
//! files plus an atomically-published `CURRENT` pointer, so a serving
//! process can hot-swap to a freshly mined generation while in-flight
//! readers drain off the previous one.
//!
//! # Publish protocol
//!
//! A new generation lands in three steps, each crash-safe on its own:
//!
//! 1. the store file is written as `gen-<N>.rcs` through the ordinary
//!    [`StoreWriter`](crate::StoreWriter) tmp + fsync + rename discipline
//!    (so the file is complete or absent, never torn);
//! 2. `CURRENT` is replaced atomically — the new pointer is written to a
//!    scratch file, fsynced, renamed over `CURRENT`, and the directory
//!    is fsynced (failpoint site `store::current_publish` sits before the
//!    rename, the commit point);
//! 3. stale files are swept: `*.tmp` scratch no live process owns,
//!    **orphaned** generations above the pointer (a crash between steps 1 and 2 leaves
//!    one behind — the torn-publish case of
//!    `crates/store/tests/torn_write.rs`), and generations older than the
//!    predecessor (readers may still be draining generation `N-1`, so it
//!    alone is kept alongside `N`).
//!
//! A crash anywhere leaves `CURRENT` pointing at a complete, readable
//! store; the next successful publish cleans up whatever the crash left.
//!
//! # Concurrency contract
//!
//! One publisher at a time. Readers only ever *read* `CURRENT` and open
//! the file it names — [`Generations::sweep`] must not run on the read
//! side, where a half-written next generation is indistinguishable from
//! an orphan.

use std::fs;
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::writer::{is_dead_scratch, replace_file};

/// Name of the pointer file inside a generations directory.
pub const CURRENT_FILE: &str = "CURRENT";

/// A generations directory handle.
///
/// See the module-level docs above for the layout and publish protocol.
#[derive(Debug, Clone)]
pub struct Generations {
    dir: PathBuf,
}

/// Parses `gen-<N>.rcs` into `N`.
fn parse_generation_name(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?
        .strip_suffix(".rcs")?
        .parse()
        .ok()
}

impl Generations {
    /// Opens (creating if needed) the generations directory at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Generations { dir })
    }

    /// The directory this lineage lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where generation `generation`'s store file lives
    /// (`<dir>/gen-<N>.rcs`) — the path to hand
    /// [`StoreWriter::create`](crate::StoreWriter::create) before
    /// [`publish`](Generations::publish).
    pub fn path_for(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation}.rcs"))
    }

    /// The published generation number, or `None` for a fresh lineage
    /// (no `CURRENT` yet).
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] when `CURRENT` holds something other than a
    /// decimal generation number, [`StoreError::Io`] when it cannot be
    /// read.
    pub fn current(&self) -> Result<Option<u64>, StoreError> {
        let raw = match fs::read_to_string(self.dir.join(CURRENT_FILE)) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        raw.trim().parse().map(Some).map_err(|_| {
            StoreError::Format(format!(
                "CURRENT pointer holds {:?}, not a generation number",
                raw.trim()
            ))
        })
    }

    /// Path of the published generation's store file, or `None` for a
    /// fresh lineage.
    ///
    /// # Errors
    ///
    /// As [`current`](Generations::current).
    pub fn current_path(&self) -> Result<Option<PathBuf>, StoreError> {
        Ok(self.current()?.map(|g| self.path_for(g)))
    }

    /// The generation number a new publish should use: one past the
    /// published generation, or 0 for a fresh lineage. Orphaned files
    /// above the pointer are ignored (and will be overwritten or swept).
    ///
    /// # Errors
    ///
    /// As [`current`](Generations::current).
    pub fn next(&self) -> Result<u64, StoreError> {
        Ok(match self.current()? {
            Some(g) => g + 1,
            None => 0,
        })
    }

    /// Atomically points `CURRENT` at `generation`, then sweeps stale
    /// files (see the module-level publish protocol). The generation's
    /// store file
    /// must already exist — publish is the last step, after the writer's
    /// own sealing rename.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] when `gen-<N>.rcs` is missing,
    /// [`StoreError::Io`] when the pointer cannot be written durably. On
    /// error `CURRENT` still holds its previous value.
    pub fn publish(&self, generation: u64) -> Result<(), StoreError> {
        let store = self.path_for(generation);
        if !store.is_file() {
            return Err(StoreError::Format(format!(
                "cannot publish generation {generation}: {} does not exist",
                store.display()
            )));
        }
        // The commit point is the rename, with the `store::current_publish`
        // failpoint just before it: before the rename the old pointer is
        // intact, after it the new one is.
        replace_file(
            &self.dir.join(CURRENT_FILE),
            format!("{generation}\n").as_bytes(),
            Some("store::current_publish"),
        )?;
        self.sweep()?;
        Ok(())
    }

    /// Removes stale files a crash may have left behind: `*.tmp` scratch
    /// whose owning process is dead (or that was abandoned by a dropped
    /// writer), orphaned generations above the `CURRENT` pointer (written
    /// but never published), and generations older than the predecessor.
    /// Scratch of a live writer — in this process or another — is kept.
    /// Returns the removed paths. Removal is best-effort — a file that
    /// vanishes or resists deletion is skipped, not an error.
    ///
    /// **Publish-side only**: on the read side a concurrent publisher's
    /// half-written next generation would be swept as an orphan.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be listed, or as
    /// [`current`](Generations::current).
    pub fn sweep(&self) -> Result<Vec<PathBuf>, StoreError> {
        let current = self.current()?;
        let mut removed = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let stale = if name.ends_with(".tmp") {
                is_dead_scratch(name)
            } else if let Some(g) = parse_generation_name(name) {
                match current {
                    // Orphan above the pointer, or older than the
                    // still-draining predecessor.
                    Some(c) => g > c || g + 1 < c,
                    // No pointer at all: every generation file is the
                    // debris of a publish that never landed.
                    None => true,
                }
            } else {
                false
            };
            if stale && fs::remove_file(&path).is_ok() {
                removed.push(path);
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "regcluster-generations-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fake_store(gens: &Generations, g: u64) {
        // publish() only checks existence; sweep never opens files.
        fs::write(gens.path_for(g), b"stub").unwrap();
    }

    #[test]
    fn fresh_lineage_starts_at_zero() {
        let dir = tmp_dir("fresh");
        let gens = Generations::open(&dir).unwrap();
        assert_eq!(gens.current().unwrap(), None);
        assert_eq!(gens.current_path().unwrap(), None);
        assert_eq!(gens.next().unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_advances_current_and_prunes() {
        let dir = tmp_dir("advance");
        let gens = Generations::open(&dir).unwrap();
        for g in 0..4 {
            fake_store(&gens, g);
            gens.publish(g).unwrap();
            assert_eq!(gens.current().unwrap(), Some(g));
            assert_eq!(gens.next().unwrap(), g + 1);
        }
        // Generations 3 (current) and 2 (predecessor) survive the sweep.
        assert!(gens.path_for(3).is_file());
        assert!(gens.path_for(2).is_file());
        assert!(!gens.path_for(1).exists());
        assert!(!gens.path_for(0).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_refuses_a_missing_generation_file() {
        let dir = tmp_dir("missing");
        let gens = Generations::open(&dir).unwrap();
        let err = gens.publish(0).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)));
        assert_eq!(gens.current().unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_clears_orphans_and_scratch() {
        let dir = tmp_dir("orphans");
        let gens = Generations::open(&dir).unwrap();
        fake_store(&gens, 0);
        gens.publish(0).unwrap();
        // A crash after writing gen-1 but before publishing it, plus
        // scratch from a dead writer and pointer, and abandoned scratch.
        fake_store(&gens, 1);
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let dead = child.id();
        child.wait().unwrap();
        fs::write(dir.join(format!("gen-1.rcs.{dead}.0.tmp")), b"half").unwrap();
        fs::write(dir.join(format!("CURRENT.{dead}.1.tmp")), b"1").unwrap();
        fs::write(dir.join("gen-1.rcs.tmp"), b"half").unwrap();
        // A live writer's scratch (this process) survives the sweep.
        let live = dir.join(format!("gen-2.rcs.{}.0.tmp", std::process::id()));
        fs::write(&live, b"streaming").unwrap();
        let removed = gens.sweep().unwrap();
        assert_eq!(removed.len(), 4, "removed: {removed:?}");
        assert!(gens.path_for(0).is_file());
        assert!(!gens.path_for(1).exists());
        assert!(live.is_file(), "a live writer's scratch is kept");
        assert_eq!(gens.current().unwrap(), Some(0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_current_is_a_format_error() {
        let dir = tmp_dir("garbage");
        let gens = Generations::open(&dir).unwrap();
        fs::write(dir.join(CURRENT_FILE), b"not-a-number").unwrap();
        assert!(matches!(gens.current(), Err(StoreError::Format(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_names_parse_strictly() {
        assert_eq!(parse_generation_name("gen-0.rcs"), Some(0));
        assert_eq!(parse_generation_name("gen-17.rcs"), Some(17));
        assert_eq!(parse_generation_name("gen-.rcs"), None);
        assert_eq!(parse_generation_name("gen-x.rcs"), None);
        assert_eq!(parse_generation_name("other.rcs"), None);
        assert_eq!(parse_generation_name("gen-1.rcs.tmp"), None);
    }
}
