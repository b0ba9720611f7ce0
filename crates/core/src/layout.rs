//! The on-disk layout of a spill directory. Every name the collector,
//! a degraded net client and crash recovery agree on is spelled here and
//! nowhere else, so writers and recovery's parser cannot drift:
//!
//! ```text
//! <dir>/job-<id>.pilgrim          a finished job's PGC1 container
//! <dir>/job-<id>.pilgrim.tmp      the same mid-write (a torn orphan after a crash)
//! <dir>/wal/*.wal                 write-ahead logs (shard-, conn- and client- files)
//! <dir>/quarantine/job-<id>-rank-<r>-seq-<s>.seg
//! <dir>/recovered/job-<id>.pilgrim
//! ```

use std::path::{Path, PathBuf};

/// Where a spill directory's write-ahead logs live.
pub(crate) fn wal_dir(dir: &Path) -> PathBuf {
    dir.join("wal")
}

/// True for the files under [`wal_dir`] that recovery replays.
pub(crate) fn is_wal_file(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "wal")
}

/// A job's container inside `dir` — the spill directory itself for live
/// spills and client-local finalizes, [`recovered_dir`] for rebuilds.
pub(crate) fn job_container(dir: &Path, job: u64) -> PathBuf {
    dir.join(format!("job-{job}.pilgrim"))
}

/// The temporary a container is written to before its atomic rename.
pub(crate) fn tmp_container(path: &Path) -> PathBuf {
    path.with_extension("pilgrim.tmp")
}

/// Reads a spill-directory file name back. `None`: not a container.
/// Otherwise the job id (`None` when the stem is not `job-<id>`) and
/// whether it is a [`tmp_container`] orphan.
pub(crate) fn parse_container_name(name: &str) -> Option<(Option<u64>, bool)> {
    let (stem, torn) = match name.strip_suffix(".pilgrim.tmp") {
        Some(stem) => (stem, true),
        None => (name.strip_suffix(".pilgrim")?, false),
    };
    Some((stem.strip_prefix("job-").and_then(|s| s.parse().ok()), torn))
}

/// Where poisoned segment payloads are kept for offline inspection.
pub(crate) fn quarantine_dir(dir: &Path) -> PathBuf {
    dir.join("quarantine")
}

/// One quarantined segment's payload file.
pub(crate) fn quarantined_segment(dir: &Path, job: u64, rank: usize, seq: u32) -> PathBuf {
    quarantine_dir(dir).join(format!("job-{job}-rank-{rank}-seq-{seq}.seg"))
}

/// Where recovery writes the containers it rebuilds.
pub(crate) fn recovered_dir(dir: &Path) -> PathBuf {
    dir.join("recovered")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_names_parse_back() {
        let dir = Path::new("/spill");
        let path = job_container(dir, 42);
        let name = |p: &Path| p.file_name().and_then(|n| n.to_str()).map(str::to_owned);
        assert_eq!(parse_container_name(&name(&path).unwrap()), Some((Some(42), false)));
        let tmp = tmp_container(&path);
        assert_eq!(parse_container_name(&name(&tmp).unwrap()), Some((Some(42), true)));
        assert_eq!(parse_container_name("stray.pilgrim"), Some((None, false)));
        assert_eq!(parse_container_name("conn-0.wal"), None);
        assert!(is_wal_file(&wal_dir(dir).join("conn-0.wal")));
        assert!(!is_wal_file(&path));
    }
}
