//! The fixed part of the benchmark: workload constants and the metric
//! tables. `BENCHMARK.json` lists the same names and units; the package's
//! tests hold the two against each other.

use std::sync::Arc;

use mpi_sim::Env;
use mpi_workloads::Body;
use pilgrim::PilgrimConfig;

/// One workload: a rank body plus the sizes every phase uses. The sizes
/// are constants of the benchmark, identical on every commit; only the
/// number of repetitions follows `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kernel: Kernel,
    /// Phase A: iterations of the 1-rank world.
    pub trace_iters: usize,
    /// Phase B: ranks and iterations of the captured job.
    pub ranks: usize,
    pub job_iters: usize,
    /// Governor budget of the traced ranks (`None` = ungoverned).
    pub memory_budget: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Stencil3d,
    Cellular,
    /// `adversarial_seeded`, keyed by the run's `--seed`.
    Adversarial,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stencil_steady",
        kernel: Kernel::Stencil3d,
        trace_iters: 40_000,
        ranks: 4,
        job_iters: 10_000,
        memory_budget: None,
    },
    Workload {
        name: "amr_churn",
        kernel: Kernel::Cellular,
        trace_iters: 2_000,
        ranks: 16,
        job_iters: 300,
        memory_budget: None,
    },
    Workload {
        name: "hostile_stream",
        kernel: Kernel::Adversarial,
        trace_iters: 20_000,
        ranks: 4,
        job_iters: 5_000,
        memory_budget: Some(65_536),
    },
    Workload {
        name: "hostile_bulk",
        kernel: Kernel::Adversarial,
        trace_iters: 20_000,
        ranks: 4,
        job_iters: 5_000,
        memory_budget: None,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// `--smoke`: every size constant divided by 100.
    pub fn smoke(mut self) -> Workload {
        self.trace_iters = (self.trace_iters / 100).max(1);
        self.job_iters = (self.job_iters / 100).max(1);
        self
    }

    /// The rank body. `seed` reaches the product only here (the
    /// adversarial parameter stream) and through `WorldConfig::seed`.
    pub fn body(&self, iters: usize, seed: u64) -> Body {
        match self.kernel {
            Kernel::Stencil3d => {
                Arc::new(move |env: &mut Env| mpi_workloads::stencil::stencil3d(env, iters, 4))
            }
            Kernel::Cellular => {
                Arc::new(move |env: &mut Env| mpi_workloads::flash::cellular(env, iters))
            }
            Kernel::Adversarial => Arc::new(move |env: &mut Env| {
                mpi_workloads::adversarial::adversarial_seeded(env, iters, seed)
            }),
        }
    }

    pub fn tracer_config(&self) -> PilgrimConfig {
        match self.memory_budget {
            Some(bytes) => PilgrimConfig::default().memory_budget(bytes),
            None => PilgrimConfig::default(),
        }
    }
}

/// Collector settings, the same for every workload and printed in the
/// output header so both sides of a comparison are visibly alike.
pub const SHARDS: usize = 2;
pub const AUTH_KEY: &[u8] = b"pipeline-benchmark-wire-key";
pub const PROBES: usize = 100_000;
pub const WINDOW_CALLS: usize = 1_000;

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("trace_ns_per_call", "ns"),
    ("trace_bytes_per_call", "B"),
    ("durable_calls_per_s", "calls/s"),
    ("recover_calls_per_s", "calls/s"),
    ("open_ms", "ms"),
    ("decode_calls_per_s", "calls/s"),
    ("query_ms", "ms"),
    ("probe_ns", "ns"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`). The prefix is
/// the layer: a module of `mpi-sim`, `pilgrim-sequitur` or `pilgrim`,
/// or `bench` for the benchmark's own bookkeeping.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("sim.untraced_ns_per_call", "ns"),
    ("sim.world_wall_ms", "ms"),
    ("tracer.overhead_ns_per_call", "ns"),
    ("tracer.intra_ns_per_call", "ns"),
    ("tracer.intercept_ns_per_call", "ns"),
    ("encode.ns_per_call", "ns"),
    ("sequitur.insert_ns_per_call", "ns"),
    ("tracer.local_bytes", "B"),
    ("metrics.on_overhead_pct", "%"),
    ("cst.observe_ns_per_call", "ns"),
    ("cst.signatures", "count"),
    ("cst.hit_ratio", "ratio"),
    ("sequitur.push_ns_per_symbol", "ns"),
    ("sequitur.rules", "count"),
    ("sequitur.symbols", "count"),
    ("governor.seals", "count"),
    ("tracer.segments", "count"),
    ("tracer.segment_bytes", "B"),
    ("merge.batch_finalize_ms", "ms"),
    ("merge.accept_ns_per_segment", "ns"),
    ("merge.finalize_ms", "ms"),
    ("merge.unique_grammars", "count"),
    ("merge.job_share_pct", "%"),
    ("net.encode_ns_per_frame", "ns"),
    ("net.decode_ns_per_frame", "ns"),
    ("net.frames", "count"),
    ("net.wire_bytes_per_call", "B"),
    ("net.acks", "count"),
    ("net.retransmits", "count"),
    ("net.backpressure", "count"),
    ("net.job_wall_ms", "ms"),
    ("net.push_ms", "ms"),
    ("net.finish_wait_ms", "ms"),
    ("auth.seal_ns_per_frame", "ns"),
    ("auth.verify_ns_per_frame", "ns"),
    ("auth.mac_mb_per_s", "MB/s"),
    ("auth.handshake_ms", "ms"),
    ("auth.job_share_pct", "%"),
    ("wal.append_ns_per_record", "ns"),
    ("wal.records", "count"),
    ("wal.bytes_per_call", "B"),
    ("wal.read_mb_per_s", "MB/s"),
    ("wal.job_share_pct", "%"),
    ("ingest.segments", "count"),
    ("ingest.bytes", "B"),
    ("ingest.backpressure", "count"),
    ("ingest.job_ms", "ms"),
    ("export.write_container_ms", "ms"),
    ("export.container_bytes", "B"),
    ("decode.container_ms", "ms"),
    ("decode.validate_ms", "ms"),
    ("decode.expand_ns_per_call", "ns"),
    ("query.index_build_ms", "ms"),
    ("query.index_bytes", "B"),
    ("query.sig_counts_ms", "ms"),
    ("query.comm_matrix_ms", "ms"),
    ("query.window_ms", "ms"),
    ("recover.ms", "ms"),
    ("recover.wal_bytes", "B"),
    ("bench.gen_s", "s"),
    ("bench.calls", "count"),
    ("bench.jobs", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.ledger_coverage_pct", "%"),
    ("bench.spans", "count"),
];
