//! The command line against `BENCHMARK.json`: every declared metric is
//! printed exactly once with its unit for every workload, usage errors
//! exit 2, and the exact counts of a seed repeat.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_pipeline");

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The string value of `"key"` inside one JSON object body.
fn field(obj: &str, key: &str) -> String {
    let needle = format!("\"{key}\"");
    let after =
        &obj[obj.find(&needle).unwrap_or_else(|| panic!("no {key} in {obj}")) + needle.len()..];
    let open = after.find('"').expect("a string value") + 1;
    let len = after[open..].find('"').expect("a closed string");
    after[open..open + len].to_string()
}

/// The body of every object in the manifest's `key` array. The manifest
/// is our own file: flat objects, no brackets inside strings.
fn objects<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
    let at = doc.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} section"));
    let open = at + doc[at..].find('[').expect("an array");
    let close = open + doc[open..].find(']').expect("a closed array");
    doc[open..close].split('{').skip(1).collect()
}

/// `(name, unit)` of every metric the manifest declares under `key`.
fn declared(doc: &str, key: &str) -> Vec<(String, String)> {
    objects(doc, key).into_iter().map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn pipeline(args: &[&str], tag: &str) -> Output {
    Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out_dir(tag))
        .output()
        .expect("the pipeline binary runs")
}

/// Metric lines are `name value unit`; everything else the benchmark
/// prints starts with `#`, has another token count, or is the JSON.
fn metric_lines(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .filter_map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            match t.as_slice() {
                [name, value, unit] if value.parse::<f64>().is_ok() => {
                    Some((name.to_string(), unit.to_string()))
                }
                _ => None,
            }
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_once_with_its_unit_for_every_workload() {
    let doc = manifest();
    let workloads: Vec<String> =
        objects(&doc, "workloads").into_iter().map(|obj| field(obj, "name")).collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let want = declared(&doc, section);
            let run = pipeline(
                &["--workload", workload, "--seed", "7", "--trace", trace, "--smoke"],
                &format!("{workload}-{trace}"),
            );
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(run.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
            let printed = metric_lines(&stdout);
            for (name, unit) in &want {
                let hits: Vec<_> = printed.iter().filter(|(n, _)| n == name).collect();
                assert_eq!(
                    hits.len(),
                    1,
                    "{workload} --trace {trace}: {name} printed {} times",
                    hits.len()
                );
                assert_eq!(&hits[0].1, unit, "{workload}: unit of {name}");
            }
            for (name, _) in &printed {
                assert!(want.iter().any(|(n, _)| n == name), "{name} is printed but not declared");
            }
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
            for (name, unit) in &want {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert_eq!(last.matches(&entry).count(), 1, "{name} in the result object");
                let rest = &last[last.find(&entry).expect("counted above") + entry.len()..];
                let close = rest.find('}').expect("a closed metric object");
                assert!(
                    rest[..close].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name}: {rest}"
                );
            }
            assert_eq!(last.matches("\"value\": ").count(), want.len(), "no undeclared metric");
        }
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "master_worker", "--seed", "1"][..],
        &["--workload", "stencil_steady"][..],
        &["--seed", "1"][..],
        &["--workload", "stencil_steady", "--seed", "x"][..],
        &["--workload", "stencil_steady", "--seed", "1", "--bogus"][..],
    ] {
        let run = pipeline(args, "usage");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn exact_counts_repeat_for_a_seed_and_scratch_is_removed() {
    let tag = "selfcheck";
    let run =
        pipeline(&["--workload", "hostile_stream", "--seed", "11", "--smoke", "--selfcheck"], tag);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{stdout}");
    assert!(stdout.contains("selfcheck ok"), "{stdout}");
    assert!(!stdout.contains("DIFFERENT"), "{stdout}");
    let left: Vec<_> = std::fs::read_dir(out_dir(tag))
        .map(|d| d.filter_map(|e| e.ok()).map(|e| e.file_name()).collect())
        .unwrap_or_default();
    assert!(left.is_empty(), "scratch left behind: {left:?}");
}
