//! `sizes` — prints the size ledger (`pilgrim_bench::sizes`) as TSV: one
//! line per cell of the fixed matrix behind §4.1 and Figs 5, 6, 9, 10.
//!
//! ```text
//! ./target/release/sizes > results/SIZES.tsv
//! ```
//!
//! It takes no arguments and reads no environment: its output is the
//! committed `results/SIZES.tsv`, byte for byte, or a PR has changed a
//! trace byte and must say why in CHANGES.md.

use pilgrim_bench::sizes::{header, matrix, measure};

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("sizes takes no arguments: the ledger is one fixed matrix");
        std::process::exit(2)
    }
    for (i, row) in matrix().iter().enumerate() {
        let cells = measure(row);
        if i == 0 {
            println!("{}", header(&cells));
        }
        println!("{}", row.line(&cells));
    }
}
