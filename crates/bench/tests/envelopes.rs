//! The schema-1 envelope of a real `pilgrimd` run carries every counter
//! its stat set declares: an envelope cannot trail its declaration.

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
