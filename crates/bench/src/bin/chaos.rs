//! `chaos` — prints the seeded-sweep ledger (`pilgrim_bench::chaos`) as
//! markdown: one section per layer (`world`, `governor`, `ingest`, `net`,
//! `adversary`), each a fixed matrix of seeded faults.
//!
//! ```text
//! ./target/release/chaos > results/CHAOS.md
//! ./target/release/chaos --layer ingest      # that layer's section only
//! ```
//!
//! Exit 0 when every gate held; 1 on a panic, a hang, a silently dropped
//! job or unbounded buffering; 2 on a usage error. Its full output is the
//! committed `results/CHAOS.md`, byte for byte, or a PR has changed a
//! sweep's outcome and must say why in CHANGES.md.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(pilgrim_bench::chaos::run(&args))
}
