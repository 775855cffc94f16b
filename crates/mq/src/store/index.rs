//! Sparse offset index: every [`INDEX_EVERY`]th record's byte position.
//!
//! A segment's offsets are dense (`base_offset + record_number`), so
//! the index only has to answer "where do I start scanning for
//! relative offset `r`" — it maps `r` to the byte position of the
//! nearest indexed record at or below `r`, and the reader walks
//! forward from there (at most [`INDEX_EVERY`] − 1 records).
//!
//! The granularity is a property of the writer, not the sidecar
//! format: [`SparseIndex::floor`] binary-searches whatever entries
//! exist, so sidecars written at any historical granularity (the store
//! used 64 before the read-path tuning) load and serve unchanged.
//!
//! ## Sidecar file format (`<base:020>.idx`)
//!
//! | field     | size   | meaning                                  |
//! |-----------|--------|------------------------------------------|
//! | `magic`   | 8      | `b"GFIDX001"`                            |
//! | `records` | u64 LE | record count of the sealed segment       |
//! | `bytes`   | u64 LE | exact data length of the sealed segment  |
//! | entries   | 8 each | (`rel` u32 LE, `pos` u32 LE) pairs       |
//!
//! The sidecar is written once at seal time and is purely an
//! optimisation: recovery trusts it only when `bytes` matches the
//! segment file's length on disk, and rescans the segment otherwise.

use std::io::{self, Write};
use std::path::Path;

/// Index granularity: one entry per this many records. 16 bounds a
/// cold fetch's forward scan to 15 records past the floor (the old
/// 64-record stride decoded up to 63) at 8 bytes of index per 16
/// records, still a vanishing fraction of segment size.
pub const INDEX_EVERY: u64 = 16;

const MAGIC: &[u8; 8] = b"GFIDX001";

/// In-memory sparse index for one segment.
#[derive(Default)]
pub struct SparseIndex {
    /// (relative offset, byte position), ascending in both.
    entries: Vec<(u32, u32)>,
}

impl SparseIndex {
    /// Record that relative offset `rel` begins at byte `pos`; only
    /// every [`INDEX_EVERY`]th call stores an entry.
    pub fn note(&mut self, rel: u64, pos: usize) {
        if rel.is_multiple_of(INDEX_EVERY) {
            self.entries.push((rel as u32, pos as u32));
        }
    }

    /// Nearest indexed `(rel, pos)` at or below `rel`; `(0, 0)` when
    /// the index is empty or `rel` precedes the first entry.
    pub fn floor(&self, rel: u64) -> (u64, usize) {
        let i = self.entries.partition_point(|&(r, _)| u64::from(r) <= rel);
        match i.checked_sub(1).and_then(|i| self.entries.get(i)) {
            Some(&(r, p)) => (u64::from(r), p as usize),
            None => (0, 0),
        }
    }

    /// Persist the sidecar for a sealed segment of `records` records
    /// and `bytes` data bytes.
    pub fn write_to(&self, path: &Path, records: u64, bytes: u64) -> io::Result<()> {
        let mut buf = Vec::with_capacity(24 + self.entries.len() * 8);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&records.to_le_bytes());
        buf.extend_from_slice(&bytes.to_le_bytes());
        for &(rel, pos) in &self.entries {
            buf.extend_from_slice(&rel.to_le_bytes());
            buf.extend_from_slice(&pos.to_le_bytes());
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(&buf)?;
        f.sync_all()
    }

    /// Load a sidecar, returning `(index, records, bytes)`; `None` if
    /// the file is missing, short, or has the wrong magic — the caller
    /// falls back to rescanning the segment.
    pub fn load(path: &Path) -> Option<(SparseIndex, u64, u64)> {
        let data = std::fs::read(path).ok()?;
        if data.len() < 24 || &data[..8] != MAGIC || (data.len() - 24) % 8 != 0 {
            return None;
        }
        let records = u64::from_le_bytes(data[8..16].try_into().unwrap());
        let bytes = u64::from_le_bytes(data[16..24].try_into().unwrap());
        let entries = data[24..]
            .chunks_exact(8)
            .map(|c| {
                (
                    u32::from_le_bytes(c[..4].try_into().unwrap()),
                    u32::from_le_bytes(c[4..].try_into().unwrap()),
                )
            })
            .collect();
        Some((SparseIndex { entries }, records, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_walks_sparse_entries() {
        let mut idx = SparseIndex::default();
        for rel in 0..200u64 {
            idx.note(rel, (rel * 100) as usize);
        }
        assert_eq!(idx.entries.len(), 13); // 0, 16, …, 192
        assert_eq!(idx.floor(0), (0, 0));
        assert_eq!(idx.floor(15), (0, 0));
        assert_eq!(idx.floor(16), (16, 1600));
        assert_eq!(idx.floor(199), (192, 19200));
        assert_eq!(idx.floor(10_000), (192, 19200));
        assert_eq!(SparseIndex::default().floor(5), (0, 0));
    }

    #[test]
    fn entries_at_a_historical_stride_still_serve() {
        // What a sidecar written at the old 64-record stride loads as.
        let coarse = SparseIndex {
            entries: vec![(0, 0), (64, 6400), (128, 12800), (192, 19200)],
        };
        assert_eq!(coarse.floor(63), (0, 0));
        assert_eq!(coarse.floor(64), (64, 6400));
        assert_eq!(coarse.floor(199), (192, 19200));
    }

    #[test]
    fn sidecar_roundtrip_and_garbage_rejection() {
        let dir = crate::store::testutil::TestDir::new("idx");
        let path = dir.path().join("x.idx");
        let mut idx = SparseIndex::default();
        for rel in 0..130u64 {
            idx.note(rel, (rel * 7) as usize);
        }
        idx.write_to(&path, 130, 910).unwrap();
        let (loaded, records, bytes) = SparseIndex::load(&path).unwrap();
        assert_eq!((records, bytes), (130, 910));
        assert_eq!(loaded.entries, idx.entries);

        std::fs::write(&path, b"not an index").unwrap();
        assert!(SparseIndex::load(&path).is_none());
    }
}
