//! Crash recovery for interrupted ingest sessions.
//!
//! [`recover_dir`] rebuilds what a crashed collector left under its
//! `spill_dir`:
//!
//! 1. every shard WAL (`wal/shard-<k>.wal`) is replayed — torn tails
//!    tolerated — and its records grouped per job;
//! 2. jobs whose WAL says `Finished` are re-read from their spilled
//!    container (strict decode first, [`GlobalTrace::decode_salvage`]
//!    as fallback);
//! 3. every other WAL job is replayed into a fresh
//!    [`IncrementalMerger`] exactly as the shard worker would have fed
//!    it, then finalized;
//! 4. spill containers with no WAL coverage (a bare session, or a WAL
//!    lost whole) are decoded directly, and torn `.pilgrim.tmp` orphans
//!    are salvaged.
//!
//! Each job is classified [`RecoveryState::Recovered`] (every rank
//! merged, `validate()` clean), [`RecoveryState::Partial`] (a usable
//! trace with a [`TraceCompleteness`](crate::trace::TraceCompleteness)
//! manifest naming what is missing), or [`RecoveryState::Lost`]
//! (nothing usable). A job is *never* reported `Recovered` unless its
//! trace validates clean and its completeness manifest is complete —
//! the classifier downgrades rather than overclaim. Recovered and
//! partial traces are rewritten as containers under
//! `<dir>/recovered/`, tmp+sync+rename like every other durable write.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::export::{persist_container, write_container};
use crate::layout;
use crate::merge::{IncrementalMerger, RankCompletion, TraceSegment};
use crate::trace::GlobalTrace;
use crate::wal::{read_wal, WalRecord};

/// How much of a job survived the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryState {
    /// Every rank merged and the trace validates clean — byte-for-byte
    /// what a crash-free run would have delivered.
    Recovered,
    /// A usable trace with losses named in its completeness manifest
    /// (ranks lost, segments quarantined, sections salvaged).
    Partial,
    /// Nothing usable survived for this job.
    Lost,
}

impl RecoveryState {
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryState::Recovered => "recovered",
            RecoveryState::Partial => "partial",
            RecoveryState::Lost => "lost",
        }
    }
}

/// Which artifact the job was rebuilt from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// Replayed from the shard write-ahead log.
    Wal,
    /// Read back from an intact spilled container.
    Spill,
    /// Best-effort salvage of a torn or corrupt container.
    Salvage,
}

impl RecoverySource {
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoverySource::Wal => "wal",
            RecoverySource::Spill => "spill",
            RecoverySource::Salvage => "salvage",
        }
    }
}

/// One job's recovery verdict.
#[derive(Debug)]
pub struct RecoveredJob {
    pub job: u64,
    pub state: RecoveryState,
    pub source: RecoverySource,
    /// The rebuilt trace (`None` only for [`RecoveryState::Lost`]).
    pub trace: Option<GlobalTrace>,
    /// Traced calls in the rebuilt trace.
    pub calls: u64,
    /// Where the rebuilt container was written (under `recovered/`),
    /// or the original spill for jobs read back intact.
    pub output: Option<PathBuf>,
    /// Everything that went wrong for this job, in detection order.
    pub problems: Vec<String>,
}

/// What [`recover_dir`] found under one session directory.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    pub dir: PathBuf,
    /// Per-job verdicts, ascending job id.
    pub jobs: Vec<RecoveredJob>,
    /// Shard WAL files replayed.
    pub wal_files: usize,
    /// WAL files that ended in a torn or corrupt tail.
    pub torn_wals: usize,
    /// Segments found in `quarantine/`.
    pub quarantined: usize,
    /// Directory-level problems (unreadable WALs, bad filenames, ...).
    pub problems: Vec<String>,
}

impl RecoveryReport {
    pub fn count(&self, state: RecoveryState) -> usize {
        self.jobs.iter().filter(|j| j.state == state).count()
    }

    pub fn recovered(&self) -> usize {
        self.count(RecoveryState::Recovered)
    }

    pub fn partial(&self) -> usize {
        self.count(RecoveryState::Partial)
    }

    pub fn lost(&self) -> usize {
        self.count(RecoveryState::Lost)
    }

    /// The report's tallies as a named-field view — the shape the
    /// collector's counter sets expose — in `recover`-envelope order.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("total", self.jobs.len()),
            ("recovered", self.recovered()),
            ("partial", self.partial()),
            ("lost", self.lost()),
            ("wal_files", self.wal_files),
            ("torn_wals", self.torn_wals),
            ("quarantined", self.quarantined),
        ]
        .map(|(name, n)| (name, n as u64))
    }
}

/// Everything the WALs said about one job.
#[derive(Debug, Default)]
struct JobLog {
    nranks: Option<usize>,
    identity_check: bool,
    records: Vec<WalRecord>,
    quarantines: Vec<(usize, u32)>,
    finished: bool,
}

/// Rebuilds every job a crashed session left under `dir`. Errors only
/// when the directory itself is unreadable; per-job and per-file damage
/// is classified, never propagated.
pub fn recover_dir(dir: &Path) -> std::io::Result<RecoveryReport> {
    // Surface an unreadable/missing session dir as the one hard error.
    fs::read_dir(dir)?;
    let mut report = RecoveryReport { dir: dir.to_path_buf(), ..Default::default() };
    let mut logs: BTreeMap<u64, JobLog> = BTreeMap::new();

    scan_wals(dir, &mut report, &mut logs);
    let spills = scan_spills(dir, &mut report);
    report.quarantined = count_files(&layout::quarantine_dir(dir));

    // Jobs the WAL knows about.
    let mut claimed: Vec<u64> = Vec::new();
    let log_jobs = std::mem::take(&mut logs);
    for (job, log) in log_jobs {
        claimed.push(job);
        let spill = spills.get(&job).map(PathBuf::as_path);
        report.jobs.push(recover_wal_job(dir, job, log, spill));
    }
    // Spills (intact or torn) with no WAL coverage: a bare session.
    for (job, path) in &spills {
        if !claimed.contains(job) {
            report.jobs.push(recover_bare_spill(dir, *job, path));
        }
    }
    report.jobs.sort_by_key(|j| j.job);
    Ok(report)
}

fn scan_wals(dir: &Path, report: &mut RecoveryReport, logs: &mut BTreeMap<u64, JobLog>) {
    let Ok(entries) = fs::read_dir(layout::wal_dir(dir)) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths.iter().filter(|p| layout::is_wal_file(p)) {
        let replay = match read_wal(path) {
            Ok(replay) => replay,
            Err(e) => {
                report.problems.push(format!("{}: {e}", path.display()));
                continue;
            }
        };
        report.wal_files += 1;
        if let Some(torn) = replay.torn {
            report.torn_wals += 1;
            report.problems.push(format!("{}: {torn}", path.display()));
        }
        for rec in replay.records {
            let log = logs.entry(rec.job()).or_default();
            match rec {
                WalRecord::JobOpen { nranks, identity_check, .. } => {
                    log.nranks = Some(nranks);
                    log.identity_check = identity_check;
                }
                WalRecord::Finished { .. } => log.finished = true,
                WalRecord::Quarantine { rank, seq, .. } => log.quarantines.push((rank, seq)),
                rec @ (WalRecord::Segment { .. } | WalRecord::Complete { .. }) => {
                    log.records.push(rec);
                }
            }
        }
    }
}

/// Maps job id → container path, preferring an intact `job-<id>.pilgrim`
/// over its torn `.tmp` orphan when both exist.
fn scan_spills(dir: &Path, report: &mut RecoveryReport) -> BTreeMap<u64, PathBuf> {
    let mut spills: BTreeMap<u64, PathBuf> = BTreeMap::new();
    let Ok(entries) = fs::read_dir(dir) else { return spills };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some((job, torn)) = layout::parse_container_name(name) else { continue };
        let Some(job) = job else {
            report.problems.push(format!("{}: unrecognized container name", path.display()));
            continue;
        };
        match spills.entry(job) {
            Entry::Vacant(v) => {
                v.insert(path);
            }
            Entry::Occupied(mut o) => {
                // The sorted scan sees `.pilgrim` before `.pilgrim.tmp`;
                // keep the intact container.
                if !torn {
                    o.insert(path);
                }
            }
        }
    }
    spills
}

fn count_files(dir: &Path) -> usize {
    fs::read_dir(dir).map_or(0, |entries| entries.filter_map(|e| e.ok()).count())
}

/// Recovers one WAL-covered job: finished jobs read back from their
/// container, in-flight jobs replayed through a fresh merger.
fn recover_wal_job(dir: &Path, job: u64, log: JobLog, spill: Option<&Path>) -> RecoveredJob {
    let mut from_spill: Option<RecoveredJob> = None;
    if log.finished {
        // The outcome was already delivered; the container is the
        // durable artifact and the WAL is just its receipt.
        if let Some(path) = spill {
            if let Some(done) = read_spill(job, path) {
                if done.state == RecoveryState::Recovered {
                    return done;
                }
                // Finished, but the container reads back less than
                // clean — e.g. a restarted collector re-finished the
                // job from a partial view and overwrote the good
                // container. The WAL union still holds every acked
                // stream message, so replay it too and keep whichever
                // result recovered more.
                from_spill = Some(done);
            }
        }
        // Finished but the container is gone or unreadable: fall through
        // to the WAL replay, which still holds every stream message.
    }
    let replayed = replay_wal_job(dir, job, log);
    match from_spill {
        Some(spill) if state_rank(spill.state) >= state_rank(replayed.state) => spill,
        _ => replayed,
    }
}

/// Ordering for "keep the better recovery" comparisons.
fn state_rank(state: RecoveryState) -> u8 {
    match state {
        RecoveryState::Recovered => 2,
        RecoveryState::Partial => 1,
        RecoveryState::Lost => 0,
    }
}

/// Replays one job's WAL record union through a fresh merger.
fn replay_wal_job(dir: &Path, job: u64, log: JobLog) -> RecoveredJob {
    let mut problems: Vec<String> = Vec::new();
    let Some(nranks) = log.nranks else {
        // Segments without an open: the open frame was torn away.
        problems.push("WAL never recorded the job open (torn head)".into());
        return lost_job(job, RecoverySource::Wal, problems);
    };
    for &(rank, seq) in &log.quarantines {
        problems.push(format!("segment {rank}/{seq} was quarantined before the crash"));
    }
    let merger = replay_union(nranks, log.identity_check, log.records, &mut problems);
    let complete = merger.is_complete();
    let trace = merger.finalize();
    let calls = trace.total_calls();
    classify(dir, job, RecoverySource::Wal, trace, calls, complete, problems)
}

/// The one WAL-union replay, shared by crash recovery and the degraded
/// net client's local finalize: folds one job's logged `Segment` and
/// `Complete` records (other kinds are ignored) into a fresh merger,
/// naming every anomaly in `problems`.
///
/// A job's records may be spread over several WAL files (shards,
/// per-connection logs, logs from before and after a collector restart)
/// and may contain duplicates (a retransmit whose first delivery was
/// logged but whose ack was lost). Replay must not depend on file-scan
/// order: sort segments by (rank, seq), keep the first copy of any
/// duplicate, and apply completions after every segment — the merger
/// demands in-order sequences per rank, and `finalize` canonicalizes, so
/// any union of logs covering the same stream rebuilds the same bytes.
pub(crate) fn replay_union(
    nranks: usize,
    identity_check: bool,
    records: impl IntoIterator<Item = WalRecord>,
    problems: &mut Vec<String>,
) -> IncrementalMerger {
    let mut segs: BTreeMap<(usize, u32), TraceSegment> = BTreeMap::new();
    let mut completes: BTreeMap<usize, RankCompletion> = BTreeMap::new();
    for rec in records {
        match rec {
            WalRecord::Segment { seg, .. } => match segs.entry((seg.rank, seg.seq)) {
                Entry::Vacant(v) => {
                    v.insert(seg);
                }
                Entry::Occupied(o) => {
                    if o.get().bytes != seg.bytes {
                        problems.push(format!(
                            "segment {}/{} logged twice with different payloads; kept the first",
                            seg.rank, seg.seq
                        ));
                    }
                }
            },
            WalRecord::Complete { done, .. } => match completes.entry(done.rank) {
                Entry::Vacant(v) => {
                    v.insert(done);
                }
                Entry::Occupied(o) => {
                    let first = o.get();
                    if (first.call_count, first.segments) != (done.call_count, done.segments) {
                        problems.push(format!(
                            "rank {} completed twice with conflicting counts; kept the first",
                            done.rank
                        ));
                    }
                }
            },
            _ => {}
        }
    }
    let mut merger = IncrementalMerger::new(nranks).identity_check(identity_check);
    for seg in segs.values() {
        if let Err(e) = merger.accept_segment(seg) {
            problems.push(format!("replay segment {}/{}: {e}", seg.rank, seg.seq));
        }
    }
    for (rank, done) in completes {
        if let Err(e) = merger.complete_rank(done) {
            problems.push(format!("replay complete {rank}: {e}"));
        }
    }
    // A log can hold a rank's segments without its completion (the
    // client was cut off mid-stream, or the completion frame was never
    // acked durable): salvage the accepted prefix as a checkpoint rank
    // so the job classifies Partial with real calls, not Lost.
    for (rank, calls) in merger.salvage_open_ranks() {
        problems.push(format!(
            "rank {rank}: stream incomplete; salvaged {calls} calls from its logged prefix"
        ));
    }
    merger
}

/// Reads a finished job's container back; `None` means unreadable (the
/// caller falls back to the WAL replay).
fn read_spill(job: u64, path: &Path) -> Option<RecoveredJob> {
    decode_spill(job, path, &fs::read(path).ok()?)
}

/// Strictly decodes and classifies one spilled container's bytes.
fn decode_spill(job: u64, path: &Path, bytes: &[u8]) -> Option<RecoveredJob> {
    let trace = GlobalTrace::decode_container(bytes).ok()?;
    let calls = trace.total_calls();
    let complete = trace.completeness.is_complete();
    let mut done = classify_trace(job, RecoverySource::Spill, trace, calls, complete, Vec::new());
    done.output = Some(path.to_path_buf());
    Some(done)
}

/// Recovers a container that no WAL claims: strict decode, then salvage.
fn recover_bare_spill(dir: &Path, job: u64, path: &Path) -> RecoveredJob {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            return lost_job(job, RecoverySource::Spill, vec![format!("{}: {e}", path.display())])
        }
    };
    if let Some(done) = decode_spill(job, path, &bytes) {
        return done;
    }
    match GlobalTrace::decode_salvage(&bytes) {
        Ok((trace, salvage)) => {
            let problems = vec![format!(
                "container salvaged: {} ranks skipped, {} timing-stripped, {} timing grammars lost",
                salvage.skipped_ranks.len(),
                salvage.timing_stripped_ranks.len(),
                salvage.skipped_duration_grammars.len() + salvage.skipped_interval_grammars.len()
            )];
            let calls = trace.total_calls();
            // Salvage output is by definition not a clean full trace.
            classify(dir, job, RecoverySource::Salvage, trace, calls, false, problems)
        }
        Err(e) => lost_job(job, RecoverySource::Salvage, vec![format!("{}: {e}", path.display())]),
    }
}

/// Classifies a rebuilt trace and writes it under `recovered/`.
fn classify(
    dir: &Path,
    job: u64,
    source: RecoverySource,
    trace: GlobalTrace,
    calls: u64,
    complete: bool,
    problems: Vec<String>,
) -> RecoveredJob {
    let mut done = classify_trace(job, source, trace, calls, complete, problems);
    if done.state != RecoveryState::Lost {
        match write_recovered(dir, job, done.trace.as_ref()) {
            Ok(path) => done.output = Some(path),
            Err(e) => {
                done.problems.push(format!("writing recovered container: {e}"));
                // A recovery we cannot make durable is not a recovery.
                if done.state == RecoveryState::Recovered {
                    done.state = RecoveryState::Partial;
                }
            }
        }
    }
    done
}

/// The classification gate. `Recovered` requires *all* of: every rank
/// merged (`complete`), no replay problems, `validate()` clean, and a
/// complete [`TraceCompleteness`] manifest — anything less downgrades to
/// `Partial`, and a trace with no merged calls at all is `Lost`.
fn classify_trace(
    job: u64,
    source: RecoverySource,
    trace: GlobalTrace,
    calls: u64,
    complete: bool,
    mut problems: Vec<String>,
) -> RecoveredJob {
    let validation = trace.validate();
    let clean = validation.is_empty();
    problems.extend(validation.into_iter().map(|p| format!("validate: {p}")));
    let manifest_complete = trace.completeness.is_complete();
    let state = if complete && clean && manifest_complete && problems.is_empty() {
        RecoveryState::Recovered
    } else if calls > 0 && clean {
        RecoveryState::Partial
    } else if calls > 0 {
        // Structurally suspect but non-empty: keep it, loudly.
        problems.push("trace kept despite validation problems".into());
        RecoveryState::Partial
    } else {
        return lost_job(job, source, problems);
    };
    RecoveredJob { job, state, source, trace: Some(trace), calls, output: None, problems }
}

fn lost_job(job: u64, source: RecoverySource, mut problems: Vec<String>) -> RecoveredJob {
    if problems.is_empty() {
        problems.push("no usable data survived".into());
    }
    RecoveredJob {
        job,
        state: RecoveryState::Lost,
        source,
        trace: None,
        calls: 0,
        output: None,
        problems,
    }
}

/// Writes a rebuilt trace to `<dir>/recovered/job-<id>.pilgrim` with the
/// same tmp+sync+rename discipline as the live spill path.
fn write_recovered(dir: &Path, job: u64, trace: Option<&GlobalTrace>) -> std::io::Result<PathBuf> {
    let trace = trace.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "no trace to write")
    })?;
    let out_dir = layout::recovered_dir(dir);
    fs::create_dir_all(&out_dir)?;
    let path = layout::job_container(&out_dir, job);
    persist_container(&path, &write_container(trace), false)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::temp_dir;

    #[test]
    fn recovering_an_absent_directory_is_the_one_hard_error() {
        let dir = temp_dir("recover-absent");
        assert!(recover_dir(&dir).is_err(), "missing session dir must error");
    }

    #[test]
    fn recovering_a_session_dir_without_a_wal_subdir_reports_nothing() {
        let dir = temp_dir("recover-no-wal");
        fs::create_dir_all(&dir).expect("mkdir");
        let report = recover_dir(&dir).expect("readable dir");
        assert!(report.jobs.is_empty());
        assert_eq!(report.wal_files, 0);
        assert!(report.problems.is_empty(), "problems: {:?}", report.problems);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovering_an_empty_wal_directory_reports_nothing() {
        let dir = temp_dir("recover-empty-wal");
        fs::create_dir_all(dir.join("wal")).expect("mkdir");
        let report = recover_dir(&dir).expect("readable dir");
        assert!(report.jobs.is_empty());
        assert_eq!(report.wal_files, 0);
        assert_eq!(report.torn_wals, 0);
        assert!(report.problems.is_empty(), "problems: {:?}", report.problems);
        let _ = fs::remove_dir_all(&dir);
    }
}
