//! The committed sweep ledger (`results/CHAOS.md`) against fresh runs of
//! the `chaos` binary: the layers a debug build affords, section by
//! section, byte for byte. check.sh diffs the whole file in release.

use std::process::{Command, Output, Stdio};

const REGENERATE: &str = "cargo build --release && ./target/release/chaos > results/CHAOS.md \
                          (and say in CHANGES.md why a sweep's outcome changed)";

/// The committed section of `layer`: from its `## layer` heading up to
/// the next section's heading, exactly as `chaos --layer layer` prints it.
fn committed(layer: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/CHAOS.md");
    let text = std::fs::read_to_string(path).expect("results/CHAOS.md is committed");
    let start = text.find(&format!("\n## {layer}\n")).expect("a section per layer") + 1;
    let rest = &text[start..];
    let end = rest.find("\n\n## ").map_or(rest.len(), |i| i + 1);
    rest[..end].to_string()
}

fn chaos(layer: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_chaos"));
    cmd.args(["--layer", layer]);
    cmd
}

fn run_layer(layer: &str) -> Output {
    chaos(layer).output().expect("run chaos")
}

fn assert_matches_ledger(layer: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "chaos --layer {layer} failed ({}):\n{stderr}", out.status);
    let fresh = String::from_utf8_lossy(&out.stdout);
    assert!(
        fresh == committed(layer),
        "chaos --layer {layer} no longer matches results/CHAOS.md:\n--- committed\n{}\n--- \
         fresh\n{fresh}\nregenerate with: {REGENERATE}",
        committed(layer)
    );
}

#[test]
fn world_and_governor_layers_match_the_ledger() {
    for layer in ["world", "governor"] {
        assert_matches_ledger(layer, &run_layer(layer));
    }
}

/// Two concurrent runs of one layer each keep their own scratch
/// directory, so neither deletes the other's collector state mid-sweep.
#[test]
fn concurrent_ingest_runs_both_match_the_ledger() {
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let mut cmd = chaos("ingest");
            cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("start chaos")
        })
        .collect();
    for run in runs {
        assert_matches_ledger("ingest", &run.wait_with_output().expect("wait for chaos"));
    }
}

#[test]
fn an_unknown_layer_is_a_usage_error() {
    let out = run_layer("nosuch");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty());
}
