//! The `.rck` on-disk checkpoint: a crash-safe snapshot of an interrupted
//! mining run, reusing the `.rcs` section machinery (32-byte header,
//! FNV-checksummed section table, bounds-checked little-endian decoding)
//! under its own magic and section ids.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (32 B)                                              │
//! │   0..8   magic  b"RCKPOINT"                                │
//! │   8..12  checkpoint version (u32 LE)                       │
//! │  12..16  section count  (u32 LE)                           │
//! │  16..24  section-table offset (u64 LE)                     │
//! │  24..32  section-table checksum (FNV-1a 64, u64 LE)        │
//! ├────────────────────────────────────────────────────────────┤
//! │ META     n_genes, n_conds, matrix_fingerprint (u64 each),  │
//! │          then mining-params JSON                           │
//! │ PENDING  count u64, then per frontier node:                │
//! │            chain_len u32, member_len u32,                  │
//! │            chain ids u32 LE each, then per member           │
//! │            gene u32, flags u32 (bit 0 = forward),          │
//! │            denom_bits u64                                  │
//! │ EMITTED  count u64, then packed cluster records exactly as │
//! │          the `.rcs` CLUSTERS section encodes them          │
//! ├────────────────────────────────────────────────────────────┤
//! │ section table: count × 32 B (same entry layout as `.rcs`)  │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! [`CheckpointFile`] implements the engine's
//! [`CheckpointSink`](regcluster_core::CheckpointSink) and persists every
//! snapshot with the same tmp + fsync + rename + parent-fsync discipline
//! as [`StoreWriter::finish`](crate::StoreWriter::finish): the `.rck` path
//! always holds either the previous complete checkpoint or the new one.
//! [`read_checkpoint`] verifies every checksum before decoding, so a torn
//! or bit-flipped file is rejected — resuming then falls back to a fresh
//! run instead of silently mining a corrupt frontier.

use std::path::{Path, PathBuf};

use regcluster_core::{CheckpointSink, EngineCheckpoint, MiningParams, PendingMember, PendingNode};

use crate::error::StoreError;
use crate::format::{put_u32, put_u64, ByteReader, Fnv64, HEADER_LEN, SECTION_ENTRY_LEN};
use crate::writer::{decode_record, replace_file};

/// File magic, first 8 bytes of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"RCKPOINT";

/// The checkpoint format version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Section ids of the `.rck` layout (distinct from the `.rcs` ids).
const META: u32 = 1;
const PENDING: u32 = 2;
const EMITTED: u32 = 3;

/// A checkpoint sink that persists every engine snapshot atomically to one
/// `.rck` path.
///
/// Each [`save`](CheckpointSink::save) encodes the full snapshot, streams
/// it to a scratch file of its own (`<path>.<pid>.<seq>.tmp`), fsyncs,
/// renames over `path`, and fsyncs the parent directory — so a crash
/// mid-save leaves the previous complete checkpoint intact, and two saves
/// of one path never clobber each other's scratch. The `checkpoint::save`
/// failpoint fires once per save for chaos testing (see
/// `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone)]
pub struct CheckpointFile {
    path: PathBuf,
}

impl CheckpointFile {
    /// A sink writing checkpoints to `path` (conventionally `*.rck`).
    pub fn new(path: impl AsRef<Path>) -> Self {
        CheckpointFile {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// The destination path snapshots are renamed onto.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn save_inner(&self, checkpoint: &EngineCheckpoint) -> Result<(), StoreError> {
        let bytes = encode_checkpoint(checkpoint)?;
        regcluster_failpoint::io("checkpoint::save")?;
        replace_file(&self.path, &bytes, None).map_err(StoreError::Io)
    }
}

impl CheckpointSink for CheckpointFile {
    fn save(&self, checkpoint: &EngineCheckpoint) -> std::io::Result<()> {
        self.save_inner(checkpoint).map_err(|e| match e {
            StoreError::Io(io) => io,
            other => std::io::Error::other(other.to_string()),
        })
    }
}

/// Encodes a snapshot into the complete `.rck` byte image.
fn encode_checkpoint(ck: &EngineCheckpoint) -> Result<Vec<u8>, StoreError> {
    let params_json =
        serde_json::to_string(&ck.params).map_err(|e| StoreError::Metadata(e.to_string()))?;

    let mut meta = Vec::new();
    put_u64(&mut meta, ck.n_genes as u64);
    put_u64(&mut meta, ck.n_conditions as u64);
    put_u64(&mut meta, ck.matrix_fingerprint);
    meta.extend_from_slice(params_json.as_bytes());

    let mut pending = Vec::new();
    put_u64(&mut pending, ck.pending.len() as u64);
    for node in &ck.pending {
        put_u32(&mut pending, node.chain.len() as u32);
        put_u32(&mut pending, node.members.len() as u32);
        for &c in &node.chain {
            put_u32(&mut pending, c as u32);
        }
        for m in &node.members {
            put_u32(&mut pending, m.gene as u32);
            put_u32(&mut pending, u32::from(m.forward));
            put_u64(&mut pending, m.denom_bits);
        }
    }

    let mut emitted = Vec::new();
    put_u64(&mut emitted, ck.emitted.len() as u64);
    for c in &ck.emitted {
        put_u32(&mut emitted, c.chain.len() as u32);
        put_u32(&mut emitted, c.p_members.len() as u32);
        put_u32(&mut emitted, c.n_members.len() as u32);
        for ids in [&c.chain, &c.p_members, &c.n_members] {
            for &v in ids.iter() {
                put_u32(&mut emitted, v as u32);
            }
        }
    }

    let sections: [(u32, &[u8]); 3] = [(META, &meta), (PENDING, &pending), (EMITTED, &emitted)];
    let mut out = vec![0u8; HEADER_LEN];
    let mut table = Vec::with_capacity(sections.len() * SECTION_ENTRY_LEN);
    for (id, payload) in sections {
        put_u32(&mut table, id);
        put_u32(&mut table, 0);
        put_u64(&mut table, out.len() as u64);
        put_u64(&mut table, payload.len() as u64);
        put_u64(&mut table, Fnv64::hash(payload));
        out.extend_from_slice(payload);
    }
    let table_offset = out.len() as u64;
    let table_checksum = Fnv64::hash(&table);
    out.extend_from_slice(&table);

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&CHECKPOINT_MAGIC);
    put_u32(&mut header, CHECKPOINT_VERSION);
    put_u32(&mut header, sections.len() as u32);
    put_u64(&mut header, table_offset);
    put_u64(&mut header, table_checksum);
    debug_assert_eq!(header.len(), HEADER_LEN);
    out[..HEADER_LEN].copy_from_slice(&header);
    Ok(out)
}

/// Reads and fully verifies a `.rck` checkpoint.
///
/// Every section checksum and all structural bounds are checked before the
/// snapshot is handed back; the engine then re-validates it against the
/// actual matrix and parameters at resume time.
///
/// # Errors
///
/// * [`StoreError::Io`] — the file cannot be read;
/// * [`StoreError::Format`] — bad magic, truncation, structural damage;
/// * [`StoreError::Version`] — written by an incompatible build;
/// * [`StoreError::ChecksumMismatch`] — bit rot or a torn write;
/// * [`StoreError::Metadata`] — parameter provenance unreadable.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<EngineCheckpoint, StoreError> {
    let buf = std::fs::read(path.as_ref())?;
    if buf.len() < HEADER_LEN {
        return Err(StoreError::Format(format!(
            "checkpoint header: file is {} bytes, need at least {HEADER_LEN}",
            buf.len()
        )));
    }
    if buf[..8] != CHECKPOINT_MAGIC {
        return Err(StoreError::Format(
            "not a regcluster checkpoint (bad magic)".into(),
        ));
    }
    let mut h = ByteReader::new(&buf[8..HEADER_LEN], "checkpoint header");
    let version = h.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(StoreError::Version {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    let n_sections = h.u32()? as usize;
    let table_offset = h.u64()? as usize;
    let table_len = n_sections
        .checked_mul(SECTION_ENTRY_LEN)
        .ok_or_else(|| StoreError::Format("checkpoint header: section count overflow".into()))?;
    let table_checksum = h.u64()?;
    let table_end = table_offset
        .checked_add(table_len)
        .filter(|&end| end <= buf.len())
        .ok_or_else(|| {
            StoreError::Format("checkpoint header: section table past end of file".into())
        })?;
    let table = &buf[table_offset..table_end];
    let actual = Fnv64::hash(table);
    if actual != table_checksum {
        return Err(StoreError::ChecksumMismatch {
            section: "checkpoint section table",
            expected: table_checksum,
            actual,
        });
    }

    let mut meta = None;
    let mut pending = None;
    let mut emitted = None;
    let mut t = ByteReader::new(table, "checkpoint section table");
    for _ in 0..n_sections {
        let id = t.u32()?;
        let _reserved = t.u32()?;
        let offset = t.u64()? as usize;
        let len = t.u64()? as usize;
        let checksum = t.u64()?;
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= buf.len())
            .ok_or_else(|| {
                StoreError::Format(format!("checkpoint section {id} past end of file"))
            })?;
        let payload = &buf[offset..end];
        let actual = Fnv64::hash(payload);
        if actual != checksum {
            return Err(StoreError::ChecksumMismatch {
                section: match id {
                    META => "checkpoint meta",
                    PENDING => "checkpoint pending",
                    EMITTED => "checkpoint emitted",
                    _ => "checkpoint section",
                },
                expected: checksum,
                actual,
            });
        }
        match id {
            META => meta = Some(payload),
            PENDING => pending = Some(payload),
            EMITTED => emitted = Some(payload),
            other => {
                return Err(StoreError::Format(format!(
                    "checkpoint section table: unknown section id {other}"
                )))
            }
        }
    }
    let meta = meta.ok_or_else(|| StoreError::Format("checkpoint: missing meta section".into()))?;
    let pending =
        pending.ok_or_else(|| StoreError::Format("checkpoint: missing pending section".into()))?;
    let emitted =
        emitted.ok_or_else(|| StoreError::Format("checkpoint: missing emitted section".into()))?;

    let mut m = ByteReader::new(meta, "checkpoint meta");
    let n_genes = m.u64()? as usize;
    let n_conditions = m.u64()? as usize;
    let matrix_fingerprint = m.u64()?;
    let params_raw = m.bytes(m.remaining())?;
    let params_str = std::str::from_utf8(params_raw)
        .map_err(|_| StoreError::Metadata("checkpoint params JSON is not UTF-8".into()))?;
    let params: MiningParams = serde_json::from_str(params_str)
        .map_err(|e| StoreError::Metadata(format!("checkpoint params JSON unreadable: {e}")))?;

    let mut p = ByteReader::new(pending, "checkpoint pending");
    let n_pending = p.u64()? as usize;
    let mut pending_nodes = Vec::with_capacity(n_pending.min(1 << 16));
    for _ in 0..n_pending {
        let chain_len = p.u32()? as usize;
        let member_len = p.u32()? as usize;
        let mut chain = Vec::with_capacity(chain_len.min(1 << 16));
        for _ in 0..chain_len {
            chain.push(p.u32()? as usize);
        }
        let mut members = Vec::with_capacity(member_len.min(1 << 16));
        for _ in 0..member_len {
            let gene = p.u32()? as usize;
            let flags = p.u32()?;
            let denom_bits = p.u64()?;
            members.push(PendingMember {
                gene,
                forward: flags & 1 != 0,
                denom_bits,
            });
        }
        pending_nodes.push(PendingNode { chain, members });
    }
    if p.remaining() != 0 {
        return Err(StoreError::Format(format!(
            "checkpoint pending: {} trailing bytes after last node",
            p.remaining()
        )));
    }

    let mut e = ByteReader::new(emitted, "checkpoint emitted");
    let n_emitted = e.u64()? as usize;
    let records = e.bytes(e.remaining())?;
    let mut emitted_clusters = Vec::with_capacity(n_emitted.min(1 << 16));
    let mut off = 0u64;
    for _ in 0..n_emitted {
        let (cluster, used) = decode_record(records, off)?;
        emitted_clusters.push(cluster);
        off += used as u64;
    }
    if off != records.len() as u64 {
        return Err(StoreError::Format(format!(
            "checkpoint emitted: {} trailing bytes after last record",
            records.len() as u64 - off
        )));
    }

    Ok(EngineCheckpoint {
        params,
        n_genes,
        n_conditions,
        matrix_fingerprint,
        pending: pending_nodes,
        emitted: emitted_clusters,
    })
}
