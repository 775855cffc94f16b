//! Startup recovery: rebuild every topic's partition state from disk.
//!
//! The scan walks `<root>/topics/`, treating any directory that
//! contains `@p<N>` entries as a topic leaf (everything else is a
//! namespace level to recurse into). Per partition:
//!
//! 1. Segment files are ordered by their base offset (encoded in the
//!    file name, zero-padded so lexicographic = numeric order).
//! 2. Every segment but the last is **sealed**: its `.idx` sidecar is
//!    trusted when its recorded byte length matches the file; otherwise
//!    the file is rescanned record by record and re-sealed (the sidecar
//!    rewritten, the file truncated to its valid length) — this heals a
//!    crash that landed between rotation steps.
//! 3. The last segment becomes the **active** writer again: the file is
//!    regrown to capacity, remapped, and scanned from the start; the
//!    first invalid record marks the torn tail, which is zeroed so the
//!    log terminates cleanly. A partial final record is a crash
//!    artifact, not corruption — it is counted, truncated, and dropped.
//! 4. The partition's next offset is `last base + surviving records`,
//!    which is exactly what clients' reconnect-replay watermarks expect.
//!
//! A gap or overlap in the base-offset chain means the directory was
//! tampered with (not a crash shape this store can produce) and is
//! refused with a clear error rather than guessed at.

use std::io;
use std::path::{Path, PathBuf};

use super::index::SparseIndex;
use super::segment::{decode_record, index_file_name, Decoded, SealedSegment, SegmentWriter};
use super::{decode_component, DurabilityConfig, PartitionStore, RecoveredTopic};
use crate::MqError;

fn io_err(context: &Path, err: io::Error) -> MqError {
    MqError::Store {
        message: format!("recovering {}: {err}", context.display()),
    }
}

fn corrupt(path: &Path, what: &str) -> MqError {
    MqError::Store {
        message: format!("segment chain of {} is corrupt: {what}", path.display()),
    }
}

/// Recover every topic under `root`. Topics come back sorted by name so
/// recovery (and anything logged about it) is deterministic.
pub(crate) fn scan(root: &Path, config: DurabilityConfig) -> Result<Vec<RecoveredTopic>, MqError> {
    let topics_root = root.join("topics");
    let mut out = Vec::new();
    if topics_root.is_dir() {
        walk(&topics_root, &mut Vec::new(), config, &mut out)?;
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

fn walk(
    dir: &Path,
    components: &mut Vec<String>,
    config: DurabilityConfig,
    out: &mut Vec<RecoveredTopic>,
) -> Result<(), MqError> {
    // Partition dirs are named `@p<N>`; `@` is always percent-encoded
    // in topic components, so their presence marks a topic leaf
    // unambiguously (topics may still nest *beside* them).
    let mut partition_dirs: Vec<(u32, PathBuf)> = Vec::new();
    let mut sub_dirs: Vec<(String, PathBuf)> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        if !entry.file_type().map_err(|e| io_err(dir, e))?.is_dir() {
            continue; // stray files are ignored, never adopted
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(n) = name.strip_prefix("@p").and_then(|n| n.parse::<u32>().ok()) {
            partition_dirs.push((n, entry.path()));
        } else if let Some(component) = decode_component(&name) {
            sub_dirs.push((component, entry.path()));
        }
    }

    if !partition_dirs.is_empty() {
        partition_dirs.sort_by_key(|&(n, _)| n);
        if partition_dirs
            .iter()
            .enumerate()
            .any(|(i, &(n, _))| n as usize != i)
        {
            return Err(corrupt(dir, "partition directories are not contiguous"));
        }
        let mut partitions = Vec::with_capacity(partition_dirs.len());
        let mut truncated_bytes = 0u64;
        for (_, pdir) in partition_dirs {
            let (partition, truncated) = recover_partition(pdir, config)?;
            truncated_bytes += truncated;
            partitions.push(partition);
        }
        out.push(RecoveredTopic {
            name: components.join("/"),
            partitions,
            truncated_bytes,
        });
    }

    sub_dirs.sort_by(|a, b| a.0.cmp(&b.0));
    for (component, path) in sub_dirs {
        components.push(component);
        walk(&path, components, config, out)?;
        components.pop();
    }
    Ok(())
}

/// Segment files of one partition dir, sorted by base offset.
fn segment_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, MqError> {
    let mut segs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(base) = name
            .strip_suffix(".seg")
            .and_then(|b| b.parse::<u64>().ok())
        {
            segs.push((base, entry.path()));
        }
    }
    segs.sort_by_key(|&(base, _)| base);
    Ok(segs)
}

/// Rebuild one partition: sealed segments plus the reopened active
/// writer. Returns the store and the count of torn-tail bytes dropped.
fn recover_partition(
    dir: PathBuf,
    config: DurabilityConfig,
) -> Result<(PartitionStore, u64), MqError> {
    let segs = segment_files(&dir)?;
    let Some((&(last_base, ref last_path), earlier)) = segs.split_last() else {
        // A partition dir with no segments (e.g. swept by hand): start
        // it fresh at offset zero.
        let active =
            SegmentWriter::create(&dir, 0, config.segment_bytes).map_err(|e| io_err(&dir, e))?;
        return Ok((
            PartitionStore::from_parts(dir, config, Vec::new(), active),
            0,
        ));
    };

    let mut sealed = Vec::with_capacity(earlier.len());
    let mut expected_base = 0u64;
    for &(base, ref path) in earlier {
        if base != expected_base {
            return Err(corrupt(path, "base offset does not continue the chain"));
        }
        let seg = recover_sealed(path.clone(), base)?;
        expected_base = base + seg.records;
        sealed.push(seg);
    }
    if last_base != expected_base {
        return Err(corrupt(
            last_path,
            "base offset does not continue the chain",
        ));
    }

    let mut active =
        SegmentWriter::open_existing(last_path.clone(), last_base, config.segment_bytes)
            .map_err(|e| io_err(last_path, e))?;
    let truncated = active.recover_tail();
    Ok((
        PartitionStore::from_parts(dir, config, sealed, active),
        truncated,
    ))
}

/// Recover one sealed (non-last) segment, trusting its sidecar only
/// when it matches the file (whatever stride it was written at), and
/// re-sealing from a full rescan otherwise.
fn recover_sealed(path: PathBuf, base: u64) -> Result<SealedSegment, MqError> {
    let file_len = std::fs::metadata(&path)
        .map_err(|e| io_err(&path, e))?
        .len();
    let idx_path = path.with_file_name(index_file_name(base));
    if let Some((index, records, bytes)) = SparseIndex::load(&idx_path) {
        if bytes == file_len {
            return Ok(SealedSegment {
                base_offset: base,
                records,
                path,
                index,
            });
        }
    }

    // No trustworthy sidecar: rescan the file (a crash between the
    // rotation steps leaves exactly this shape) and re-seal it.
    let data = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
    let mut index = SparseIndex::default();
    let mut records = 0u64;
    let mut pos = 0usize;
    while let Decoded::Record { frame, .. } = decode_record(&data[pos..]) {
        index.note(records, pos);
        records += 1;
        pos += frame;
    }
    if records == 0 {
        return Err(corrupt(&path, "sealed segment holds no valid records"));
    }
    if (pos as u64) < file_len {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        file.set_len(pos as u64).map_err(|e| io_err(&path, e))?;
        file.sync_all().map_err(|e| io_err(&path, e))?;
    }
    index
        .write_to(&idx_path, records, pos as u64)
        .map_err(|e| io_err(&idx_path, e))?;
    Ok(SealedSegment {
        base_offset: base,
        records,
        path,
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::segment::{encode_record, record_frame_len};
    use crate::store::testutil::TestDir;
    use crate::store::{FsyncPolicy, SegmentStore};

    fn config(segment_bytes: usize) -> DurabilityConfig {
        DurabilityConfig {
            segment_bytes,
            fsync: FsyncPolicy::Never,
            ..DurabilityConfig::default()
        }
    }

    fn fill(store: &SegmentStore, topic: &str, n: u32) -> Vec<super::PartitionStore> {
        let mut parts = store.create_partitions(topic, 1).unwrap();
        for i in 0..n {
            parts[0].append(None, format!("m{i}").as_bytes()).unwrap();
        }
        parts
    }

    #[test]
    fn recovery_restores_offsets_and_data() {
        let dir = TestDir::new("recover-basic");
        {
            let (store, _) = SegmentStore::open(dir.path(), config(128)).unwrap();
            let parts = fill(&store, "run/r1/status", 40);
            assert_eq!(parts[0].next_offset(), 40);
            // Drop without any explicit close: clean-shutdown path.
        }
        let (_store, recovered) = SegmentStore::open(dir.path(), config(128)).unwrap();
        assert_eq!(recovered.len(), 1);
        let topic = &recovered[0];
        assert_eq!(topic.name, "run/r1/status");
        assert_eq!(topic.truncated_bytes, 0);
        assert_eq!(topic.partitions[0].next_offset(), 40);
        let all = topic.partitions[0].read(0, 100).unwrap();
        assert_eq!(all.len(), 40);
        assert_eq!(&all[39].2[..], b"m39");
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = TestDir::new("recover-torn");
        let pdir;
        {
            let (store, _) = SegmentStore::open(dir.path(), config(1 << 16)).unwrap();
            let mut parts = fill(&store, "t", 5);
            parts[0].sync().unwrap();
            pdir = super::segment_files(&dir.path().join("topics/t/@p0"))
                .unwrap()
                .pop()
                .unwrap()
                .1;
        }
        // Simulate a crash mid-append: write a record frame whose body
        // never finished (good length, garbage body) at the valid end.
        let valid_end: usize = (0..5)
            .map(|i| record_frame_len(None, format!("m{i}").len()))
            .sum();
        let mut torn = Vec::new();
        encode_record(&mut torn, None, b"never-finished");
        let tear_at = torn.len() - 3;
        let file = std::fs::OpenOptions::new().write(true).open(&pdir).unwrap();
        use std::io::{Seek, SeekFrom, Write};
        let mut file = file;
        file.seek(SeekFrom::Start(valid_end as u64)).unwrap();
        file.write_all(&torn[..tear_at]).unwrap();
        drop(file);

        let (_store, recovered) = SegmentStore::open(dir.path(), config(1 << 16)).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(recovered[0].truncated_bytes > 0, "tear must be counted");
        assert_eq!(recovered[0].partitions[0].next_offset(), 5);
        // And the partition accepts appends again at the right offset.
        let mut parts = recovered.into_iter().next().unwrap().partitions;
        parts[0].append(None, b"m5").unwrap();
        let all = parts[0].read(0, 100).unwrap();
        assert_eq!(all.len(), 6);
        assert_eq!(&all[5].2[..], b"m5");
    }

    #[test]
    fn missing_index_sidecar_is_healed() {
        let dir = TestDir::new("recover-noidx");
        {
            let (store, _) = SegmentStore::open(dir.path(), config(128)).unwrap();
            let parts = fill(&store, "t", 40);
            assert!(parts[0].sealed_segments() > 0);
        }
        // Delete every sidecar: recovery must rescan and re-seal.
        for entry in std::fs::read_dir(dir.path().join("topics/t/@p0")).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|e| e == "idx") {
                std::fs::remove_file(&p).unwrap();
            }
        }
        let (_store, recovered) = SegmentStore::open(dir.path(), config(128)).unwrap();
        assert_eq!(recovered[0].partitions[0].next_offset(), 40);
        assert_eq!(recovered[0].partitions[0].read(0, 100).unwrap().len(), 40);
    }

    #[test]
    fn broken_chain_is_refused() {
        let dir = TestDir::new("recover-chain");
        {
            let (store, _) = SegmentStore::open(dir.path(), config(128)).unwrap();
            let parts = fill(&store, "t", 40);
            assert!(parts[0].sealed_segments() > 1);
        }
        // Delete the first segment: the chain no longer starts at 0.
        let first = super::segment_files(&dir.path().join("topics/t/@p0"))
            .unwrap()
            .remove(0)
            .1;
        std::fs::remove_file(first).unwrap();
        let err = SegmentStore::open(dir.path(), config(128))
            .err()
            .expect("a broken chain must be refused");
        assert!(err.to_string().contains("chain"), "{err}");
    }
}
