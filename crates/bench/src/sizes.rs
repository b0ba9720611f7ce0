//! The size ledger: one fixed experiment matrix behind every trace-size
//! claim of the paper (§4.1 stencils and OSU, Figs 5, 6, 9, 10), measured
//! one way and printed as TSV by the `sizes` binary. Sizes are exact
//! functions of (workload, variant, ranks, iterations), so the output is
//! committed as `results/SIZES.tsv` and compared at 0 %: by
//! `crates/bench/tests/sizes.rs` on the rows a debug build affords and by
//! `scripts/check.sh` on all of them. Nothing here reads an argument or
//! the environment — a ledger whose rows depend on either cannot be
//! diffed.

use std::sync::Arc;

use mpi_workloads::{by_name, milc::su3_rmd, osu::OSU_BENCHES, Body};
use pilgrim::{write_container, PilgrimConfig, TimingMode};

use crate::{run_pilgrim, run_raw, run_scalatrace};

/// Total lattice sites of the MILC strong-scaling rows (Fig 9): per-rank
/// sites shrink as ranks grow. The weak-scaling rows are `by_name("milc")`.
const MILC_STRONG_SITES: u64 = 4096;

/// Tracer configuration of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `PilgrimConfig::default()`: aggregated timing.
    Default,
    /// Non-aggregated timing with relative error 20 % (b = 1.2, Fig 10).
    Lossy12,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Default => "default",
            Variant::Lossy12 => "lossy-1.2",
        }
    }

    fn config(self) -> PilgrimConfig {
        match self {
            Variant::Default => PilgrimConfig::default(),
            Variant::Lossy12 => PilgrimConfig::new().timing(TimingMode::Lossy { base: 1.2 }),
        }
    }
}

/// One cell of the matrix. `(workload, variant, ranks, iters)` is its
/// identity; a cell two experiments need is one row carrying both tags.
#[derive(Debug, Clone)]
pub struct Row {
    /// The experiments that read this row, in the order they claimed it.
    pub tags: Vec<&'static str>,
    /// A `mpi_workloads::by_name` name, an OSU kernel, or `milc-strong`.
    pub workload: &'static str,
    pub variant: Variant,
    pub ranks: usize,
    pub iters: usize,
}

impl Row {
    /// The row's identity as its four TSV cells.
    pub fn key(&self) -> String {
        format!("{}\t{}\t{}\t{}", self.workload, self.variant.name(), self.ranks, self.iters)
    }

    /// The `by_name` workload whose rank rule (`mpi_workloads::check`)
    /// this row is held to; OSU kernels are not `by_name` workloads.
    fn rule(&self) -> Option<&'static str> {
        match self.workload {
            "milc-strong" => Some("milc"),
            w if w.starts_with("osu_") => None,
            w => Some(w),
        }
    }

    fn body(&self) -> Body {
        let iters = self.iters;
        if let Some(&(_, kernel)) = OSU_BENCHES.iter().find(|(name, _)| *name == self.workload) {
            return Arc::new(move |env| kernel(env, iters));
        }
        if self.workload == "milc-strong" {
            let per_rank = (MILC_STRONG_SITES / self.ranks as u64).max(1);
            return Arc::new(move |env| su3_rmd(env, iters, per_rank));
        }
        by_name(self.workload, iters)
    }

    fn has_tag(&self, tags: &[&str]) -> bool {
        self.tags.iter().any(|t| tags.contains(t))
    }

    /// One TSV line: tags, key, then `cells` in order (`-` = not measured).
    pub fn line(&self, cells: &Cells) -> String {
        let mut line = format!("{}\t{}", self.tags.join(","), self.key());
        for (_, value) in cells {
            line.push('\t');
            line.push_str(&value.map_or("-".to_string(), |v| v.to_string()));
        }
        line
    }
}

/// A measured row: `(column name, exact value)` in column order.
pub type Cells = Vec<(&'static str, Option<u64>)>;

/// The TSV header matching [`Row::line`].
pub fn header(cells: &Cells) -> String {
    let names: Vec<&str> = cells.iter().map(|(name, _)| *name).collect();
    format!("experiment\tworkload\tvariant\tranks\titers\t{}", names.join("\t"))
}

/// Every cell the paper's size figures need, at the scale this box runs
/// (≤ 64 ranks, ≤ 1000 iterations). Panics if a row names a world
/// `mpi_workloads::check` refuses.
pub fn matrix() -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let mut add = |tag, workload, variant, ranks, iters| {
        let row = Row { tags: vec![tag], workload, variant, ranks, iters };
        if let Some(Err(problem)) = row.rule().map(|name| mpi_workloads::check(name, ranks)) {
            panic!("sizes matrix row {:?}: {problem}", row.key());
        }
        match rows.iter_mut().find(|r| r.key() == row.key()) {
            Some(known) if known.tags.contains(&tag) => {}
            Some(known) => known.tags.push(tag),
            None => rows.push(row),
        }
    };
    use Variant::{Default, Lossy12};
    // SP/BT run on square process counts, the others on a doubling sweep.
    let npb_ranks = |bench: &str| -> &[usize] {
        if matches!(bench, "sp" | "bt") {
            &[4, 16, 64]
        } else {
            &[8, 16, 32, 64]
        }
    };

    // §4.1 stencils: the plateau at 9 (2D) / 27 (3D) ranks, then flatness
    // in iterations at exactly those rank counts.
    for ranks in [4, 9, 16, 25, 27, 36, 64] {
        add("stencil", "stencil2d", Default, ranks, 100);
        add("stencil", "stencil3d", Default, ranks, 100);
    }
    for iters in [10, 100, 1000] {
        add("stencil", "stencil2d", Default, 9, iters);
        add("stencil", "stencil3d", Default, 27, iters);
    }
    // §4.1 OSU: every kernel, against its raw trace.
    for &(kernel, _) in OSU_BENCHES {
        add("osu", kernel, Default, 8, 50);
    }
    // Fig 5: NPB, against ScalaTrace.
    for bench in ["lu", "mg", "is", "cg", "sp", "bt"] {
        for &ranks in npb_ranks(bench) {
            add("fig5", bench, Default, ranks, 40);
        }
    }
    // Fig 6: FLASH, against ScalaTrace — vs ranks (a-c), then vs
    // iterations at 16 ranks (d-f).
    for app in ["sedov", "cellular", "stirturb"] {
        for ranks in [8, 16, 32, 64] {
            add("fig6", app, Default, ranks, 60);
        }
        for iters in [100, 200, 400, 600, 1000] {
            add("fig6", app, Default, 16, iters);
        }
    }
    // Fig 9: MILC, 3 trajectories, strong and weak scaling.
    for ranks in [8, 16, 32, 64] {
        add("fig9", "milc-strong", Default, ranks, 3);
        add("fig9", "milc", Default, ranks, 3);
    }
    // Fig 10: the NPB programs' timing grammars at b = 1.2, to 32 ranks.
    for bench in ["is", "mg", "cg", "lu", "sp", "bt"] {
        for &ranks in npb_ranks(bench).iter().filter(|&&p| p <= 32) {
            add("fig10", bench, Lossy12, ranks, 40);
        }
    }
    rows
}

/// Runs one row and returns its exact integers: calls, the flat trace
/// (`size_bytes()`, what the paper's figures plot) and its `PGC1`
/// container, the comparator where the figure has one (ScalaTrace for
/// Figs 5 and 6, the raw trace for OSU), the table and grammar shapes, and
/// `size_report()`'s per-component split.
pub fn measure(row: &Row) -> Cells {
    let body = row.body();
    let run = run_pilgrim(row.ranks, row.variant.config(), body.clone());
    let trace = &run.trace;
    let report = trace.size_report();
    let scalatrace =
        row.has_tag(&["fig5", "fig6"]).then(|| run_scalatrace(row.ranks, body.clone()).0 as u64);
    let raw = row.has_tag(&["osu"]).then(|| run_raw(row.ranks, body));
    let exact = |v: usize| Some(v as u64);
    vec![
        ("calls", Some(run.total_calls)),
        ("flat_bytes", exact(trace.size_bytes())),
        ("pgc1_bytes", exact(write_container(trace).len())),
        ("scalatrace_bytes", scalatrace),
        ("raw_bytes", raw),
        ("cst_entries", exact(trace.cst.len())),
        ("unique_grammars", exact(trace.unique_grammars)),
        ("rules", exact(trace.grammar.num_rules())),
        ("symbols", exact(trace.grammar.total_symbols())),
        ("cst_bytes", exact(report.cst_bytes)),
        ("grammar_bytes", exact(report.grammar_bytes)),
        ("duration_bytes", exact(report.duration_bytes)),
        ("interval_bytes", exact(report.interval_bytes)),
        ("header_bytes", exact(report.header_bytes)),
        ("rank_length_bytes", exact(report.rank_length_bytes)),
        ("rank_map_bytes", exact(report.rank_map_bytes)),
        ("manifest_bytes", exact(report.manifest_bytes)),
    ]
}
