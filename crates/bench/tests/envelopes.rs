//! The schema-1 envelope of a real `pilgrimd` run carries every counter
//! its stat set declares: an envelope cannot trail its declaration. And
//! input a binary cannot run is a usage error (exit 2), never a panic or
//! a silently different experiment.

use std::process::Command;

use pilgrim::IngestStats;

/// The flat envelope's members as `(key, raw value)` — values here are
/// numbers and bools, so splitting on `,` and `:` is all the parsing a
/// line we print ourselves needs.
fn members(line: &str) -> Vec<(&str, &str)> {
    let body = line.trim().strip_prefix('{').and_then(|l| l.strip_suffix('}'));
    let body = body.unwrap_or_else(|| panic!("not one JSON object: {line}"));
    body.split(',')
        .map(|member| {
            let (key, value) = member.split_once(':').expect("key:value");
            (key.trim_matches('"'), value)
        })
        .collect()
}

#[test]
fn local_envelope_carries_every_declared_ingest_counter() {
    let out = Command::new(env!("CARGO_BIN_EXE_pilgrimd"))
        .args(["--jobs", "2", "--ranks", "2", "--iters", "3"])
        .output()
        .expect("pilgrimd runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let fields = members(stdout.lines().last().expect("an envelope line"));
    let value = |key: &str| {
        let found = fields.iter().find(|(k, _)| *k == key);
        found.unwrap_or_else(|| panic!("envelope lacks {key:?}: {fields:?}")).1
    };
    // schema and command lead, exit closes.
    assert_eq!(fields[..2], [("schema", "1"), ("command", "\"local\"")]);
    assert_eq!(fields.last(), Some(&("exit", "0")));
    for (name, _) in IngestStats::default().fields() {
        let n: u64 = value(name).parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(name != "jobs_finished" || n == 2, "{name} = {n}");
    }
    // The two keys schema 1 shipped under other names stay, as aliases.
    assert_eq!(value("ingested_bytes"), value("bytes"));
    assert_eq!(value("sealed"), value("jobs_sealed"));
    let keys: std::collections::HashSet<&str> = fields.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys.len(), fields.len(), "duplicate key in {fields:?}");
}

/// Runs a bench binary expecting a usage error: exit 2, the reason on
/// stderr, no panic.
fn assert_usage_error(exe: &str, args: &[&str], reason: &str) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} stdout: {:?} stderr: {stderr}", out.stdout);
    assert!(stderr.contains(reason), "{args:?} stderr lacks {reason:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn record_reports_a_world_it_cannot_run_as_a_usage_error() {
    let tool = env!("CARGO_BIN_EXE_trace_tool");
    let out = std::env::temp_dir().join(format!("pilgrim-usage-{}.pilgrim", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    assert_usage_error(tool, &["record", "lu", "0", "10", out], "at least 1 rank");
    assert_usage_error(tool, &["record", "nosuch", "4", "10", out], "unknown workload");
    assert_usage_error(tool, &["record", "sp", "5", "10", out], "square number of processes");
    assert!(!std::path::Path::new(out).exists(), "a refused record wrote {out}");
    assert_usage_error(env!("CARGO_BIN_EXE_pilgrimd"), &["--jobs", "1", "--ranks", "0"], "1 rank");
}

#[test]
fn an_unparsable_scale_flag_is_a_usage_error_not_the_default_experiment() {
    let fig8 = env!("CARGO_BIN_EXE_fig8_decomposition");
    assert_usage_error(fig8, &["--iters", "abc", "--max-procs", "4"], "--iters needs a numeric");
    assert_usage_error(fig8, &["--max-procs"], "--max-procs needs a numeric");
}

/// A CRC-valid one-call container whose call is `MPI_Comm_rank(7)` — an
/// `Int` where the communicator belongs: it decodes, but no replay can
/// follow it. Both replays exit 1 with the divergence, never 101.
#[test]
fn replay_of_a_call_it_cannot_follow_exits_1_with_the_divergence() {
    let mut sig = pilgrim::encode::SigWriter::new(mpi_sim::FuncId::CommRank.id());
    sig.int(7);
    let mut cst = pilgrim::Cst::new();
    let mut grammar = pilgrim_sequitur::Grammar::new();
    grammar.push(cst.observe(sig.bytes(), 1));
    let trace = pilgrim::GlobalTrace {
        nranks: 1,
        encoder_cfg: pilgrim::EncoderConfig::default(),
        cst,
        grammar: grammar.to_flat(),
        rank_lengths: vec![1],
        unique_grammars: 1,
        duration_grammars: vec![],
        interval_grammars: vec![],
        duration_rank_map: vec![],
        interval_rank_map: vec![],
        completeness: pilgrim::TraceCompleteness::complete(),
        nondet: None,
    };
    let path =
        std::env::temp_dir().join(format!("pilgrim-unfollowable-{}.pilgrim", std::process::id()));
    std::fs::write(&path, pilgrim::write_container(&trace)).expect("write the container");
    let path = path.to_str().expect("utf-8 temp path");
    for args in [vec!["replay", path], vec!["replay", path, "--strict"]] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_trace_tool")).args(&args).output().expect("runs");
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{args:?} stdout: {stdout} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        let divergence = r#""divergence":{"rank":0,"call_index":0,"expected":"MPI_Comm_rank: Comm at argument 0","got":"Int(7)"}"#;
        assert!(stdout.contains(divergence), "{args:?} stdout lacks the divergence: {stdout}");
    }
    let _ = std::fs::remove_file(path);
}
