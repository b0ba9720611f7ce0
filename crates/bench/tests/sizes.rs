//! The committed size ledger (`results/SIZES.tsv`) against a fresh
//! measurement through the same `measure(row)` the `sizes` binary prints:
//! every row a debug build affords, field by field, at 0 %. check.sh
//! diffs the whole file in release; this holds the bytes under plain
//! `cargo test -q`.

use std::collections::{BTreeMap, BTreeSet};

use pilgrim_bench::sizes::{matrix, measure, Row};

/// Rows up to this many rank-iterations are re-measured here (a debug
/// build runs them all in well under 30 s); every experiment has some.
const CHEAP_RANK_ITERS: usize = 500;

const REGENERATE: &str = "cargo build --release && ./target/release/sizes > results/SIZES.tsv \
                          (and say in CHANGES.md why a trace byte changed)";

/// The committed file: its header and each row's cells under the row's
/// key (`workload variant ranks iters`).
fn committed() -> (Vec<String>, BTreeMap<String, Vec<String>>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/SIZES.tsv");
    let text = std::fs::read_to_string(path).expect("results/SIZES.tsv is committed");
    let mut lines = text.lines().map(|l| l.split('\t').map(String::from).collect::<Vec<_>>());
    let header = lines.next().expect("a header line");
    let rows: BTreeMap<_, _> = lines.map(|cells| (cells[1..5].join("\t"), cells)).collect();
    assert_eq!(rows.len(), text.lines().count() - 1, "duplicate key in results/SIZES.tsv");
    (header, rows)
}

fn show(row: &Row) -> String {
    format!("{} [{}]", row.key().replace('\t', " "), row.tags.join(","))
}

#[test]
fn cheap_rows_match_the_committed_ledger_field_by_field() {
    let (header, rows) = committed();
    let matrix = matrix();
    let mut tags_seen = BTreeSet::new();
    let mut problems = Vec::new();
    for row in matrix.iter().filter(|r| r.ranks * r.iters <= CHEAP_RANK_ITERS) {
        tags_seen.extend(row.tags.iter().copied());
        let Some(want) = rows.get(&row.key()) else { continue }; // the orphan test names it
        let cells = measure(row);
        let fresh: Vec<String> = row.line(&cells).split('\t').map(String::from).collect();
        assert_eq!(fresh.len(), header.len(), "column count of {}", show(row));
        for ((name, want), got) in header.iter().zip(want).zip(&fresh) {
            if want != got {
                problems.push(format!("{}: {name} committed {want}, measured {got}", show(row)));
            }
        }
    }
    let all_tags: BTreeSet<_> = matrix.iter().flat_map(|r| r.tags.iter().copied()).collect();
    assert_eq!(tags_seen, all_tags, "an experiment has no row cheap enough to re-measure");
    assert!(
        problems.is_empty(),
        "results/SIZES.tsv no longer matches the code:\n  {}\nregenerate with: {REGENERATE}",
        problems.join("\n  ")
    );
}

#[test]
fn measuring_a_row_twice_gives_the_same_integers() {
    let matrix = matrix();
    for (workload, variant) in [("lu", "default"), ("is", "lossy-1.2")] {
        let key = format!("{workload}\t{variant}\t8\t40");
        let row = matrix.iter().find(|r| r.key() == key).expect("row in the matrix");
        assert_eq!(measure(row), measure(row), "{} is not deterministic", show(row));
    }
}

#[test]
fn ledger_and_matrix_have_the_same_rows() {
    let (_, rows) = committed();
    let matrix = matrix();
    let in_matrix: BTreeSet<String> = matrix.iter().map(Row::key).collect();
    assert_eq!(in_matrix.len(), matrix.len(), "duplicate key in the matrix");
    let in_file: BTreeSet<String> = rows.keys().cloned().collect();
    let missing: Vec<_> = in_matrix.difference(&in_file).collect();
    let orphans: Vec<_> = in_file.difference(&in_matrix).collect();
    assert!(
        missing.is_empty() && orphans.is_empty(),
        "matrix rows not in results/SIZES.tsv: {missing:?}; committed rows not in the matrix: \
         {orphans:?}\nregenerate with: {REGENERATE}"
    );
}
