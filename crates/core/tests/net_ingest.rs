//! End-to-end tests for the `PNT1` networked ingest transport.
//!
//! The contract under test, from the traced application's point of
//! view:
//!
//! - a clean loopback link is invisible: the delivered container is
//!   byte-identical to one written by the same world streaming into a
//!   local [`IngestSession`] directly;
//! - a faulty link (mid-frame cuts, flipped bytes, duplicated frames)
//!   heals through reconnect + resume and still delivers losslessly;
//! - killing the collector mid-run and restarting it on the same port
//!   loses nothing: clients reconnect and resume from the server's ack
//!   watermarks, and recovery over the per-connection WAL union rebuilds
//!   every job byte-identical to an uninterrupted twin run;
//! - a collector that never answers exhausts the retry budget, degrades
//!   to local spill without wedging the traced rank, and the local
//!   container records the degradation in its completeness manifest.

mod common;

use std::fs;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{stream_stencil, temp_dir};
use pilgrim::recover::recover_dir;
use pilgrim::{
    serve, stable_job_id, DegradationStage, GlobalTrace, IngestConfig, IngestSession, NetClient,
    NetClientConfig, NetFaultPlan, NetJobOutcome, NetServerConfig, PilgrimConfig, RecoveryState,
    RetryPolicy,
};

fn session(dir: &Path) -> IngestSession {
    IngestSession::new(IngestConfig::new().shards(2).spill_dir(dir)).expect("ingest session")
}

#[test]
fn clean_loopback_delivery_is_byte_identical_to_local_ingest() {
    let server_dir = temp_dir("clean-server");
    let local_dir = temp_dir("clean-local");
    let ranks = 4;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = serve(listener, session(&server_dir), NetServerConfig::new()).expect("serve");
    let client = NetClient::start(
        NetClientConfig::new(server.addr().to_string())
            .client_id(11)
            .spill_dir(server_dir.join("client")),
    )
    .expect("client");
    let tcfg = PilgrimConfig::default();
    let handle = client.open_job(0, ranks, tcfg.merge_identity_check);
    stream_stencil(Arc::new(handle.clone()), tcfg, ranks, 42);
    let out = handle.finish();
    client.shutdown();
    server.stop();
    assert!(out.delivered, "clean loopback must deliver: {:?}", out.problems);
    assert_eq!(out.lossless, Some(true), "clean loopback must be lossless");
    let net_bytes =
        fs::read(server_dir.join(format!("job-{}.pilgrim", out.job))).expect("net container");

    let local = session(&local_dir);
    let lh = local.open_job(ranks, tcfg.merge_identity_check);
    stream_stencil(Arc::new(lh.clone()), tcfg, ranks, 42);
    let lo = local.finish_job(&lh);
    assert!(lo.is_lossless(), "local twin must be lossless");
    let local_bytes =
        fs::read(local_dir.join(format!("job-{}.pilgrim", lh.job()))).expect("local container");
    assert_eq!(net_bytes, local_bytes, "the wire transport must not change a single byte");
}

#[test]
fn faulty_link_heals_and_still_delivers_losslessly() {
    let dir = temp_dir("faulty");
    let ranks = 2;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = serve(listener, session(&dir), NetServerConfig::new()).expect("serve");
    let plan = NetFaultPlan::new(0xF001).cut_rate(0.15).corrupt_rate(0.15).duplicate_rate(0.25);
    let client = NetClient::start(
        NetClientConfig::new(server.addr().to_string())
            .client_id(21)
            .retry(RetryPolicy::default().max_attempts(32).backoff(Duration::from_millis(2)))
            .heartbeat(Duration::from_millis(100))
            .spill_dir(dir.join("client"))
            .faults(plan),
    )
    .expect("client");
    // A tight memory budget seals segments mid-run, so the stream has
    // many frames for the plan to cut, corrupt, and duplicate.
    let tcfg = PilgrimConfig::default().memory_budget(3000);
    let handle = client.open_job(0, ranks, tcfg.merge_identity_check);
    stream_stencil(Arc::new(handle.clone()), tcfg, ranks, 7);
    let out = handle.finish();
    let stats = client.shutdown();
    server.stop();
    assert!(out.delivered, "faulty link must heal and deliver: {:?}", out.problems);
    assert_eq!(out.lossless, Some(true), "resume must hide the faults entirely");
    assert!(
        fs::read(dir.join(format!("job-{}.pilgrim", out.job))).is_ok(),
        "delivered container must exist"
    );
    assert!(stats.connects >= 1, "client must have connected");
}

/// Drives `jobs` concurrent jobs from one client against a collector on
/// `dir`. With `kill_after` the server initiates its kill hook after
/// that many finishes (dropping the in-flight finish ack), and this
/// harness restarts a fresh collector on the same port and directory
/// while the clients are still retrying — the in-process version of
/// `kill -9` + `pilgrimd serve` restart.
fn drive(dir: &Path, jobs: u64, ranks: usize, kill_after: Option<u64>) -> Vec<NetJobOutcome> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let port = listener.local_addr().expect("addr").port();
    let mut scfg = NetServerConfig::new();
    if let Some(k) = kill_after {
        scfg = scfg.kill_after_finished(k);
    }
    let server = serve(listener, session(dir), scfg).expect("serve");
    let addr = server.addr().to_string();
    let client = Arc::new(
        NetClient::start(
            NetClientConfig::new(addr)
                .client_id(7)
                .retry(RetryPolicy::default().max_attempts(400).backoff(Duration::from_millis(2)))
                .heartbeat(Duration::from_millis(100))
                .finish_timeout(Duration::from_secs(120))
                .spill_dir(dir.join("client")),
        )
        .expect("client"),
    );
    let workers: Vec<_> = (0..jobs)
        .map(|j| {
            let tcfg = PilgrimConfig::default();
            let handle = client.open_job(j, ranks, tcfg.merge_identity_check);
            std::thread::spawn(move || {
                stream_stencil(Arc::new(handle.clone()), tcfg, ranks, 1000 + j);
                handle.finish()
            })
        })
        .collect();

    let live = if kill_after.is_some() {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !server.stopped() {
            assert!(Instant::now() < deadline, "kill hook never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.stop();
        // Same port, same directory: the restarted collector adopts the
        // clients' resume watermarks for streams its predecessor logged.
        let listener2 = loop {
            match TcpListener::bind(("127.0.0.1", port)) {
                Ok(l) => break l,
                Err(_) => {
                    assert!(Instant::now() < deadline, "cannot rebind collector port");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        serve(listener2, session(dir), NetServerConfig::new()).expect("re-serve")
    } else {
        server
    };

    let outcomes: Vec<NetJobOutcome> =
        workers.into_iter().map(|w| w.join().expect("job thread panicked")).collect();
    live.stop();
    outcomes
}

#[test]
fn killed_collector_restart_recovers_every_job_byte_identically() {
    let jobs = 4u64;
    let ranks = 2;
    let dir = temp_dir("kill");
    let twin = temp_dir("kill-twin");

    let killed = drive(&dir, jobs, ranks, Some(2));
    for out in &killed {
        assert!(out.accounted(), "job {} unaccounted: {:?}", out.job, out.problems);
    }
    let clean = drive(&twin, jobs, ranks, None);
    assert!(clean.iter().all(|o| o.delivered && o.lossless == Some(true)));

    // Recovery over each directory's WAL union must classify every job
    // Recovered and rewrite its container; the killed run's rebuilds
    // must match the uninterrupted twin's byte for byte.
    let recovered = |d: &Path| -> std::collections::HashMap<u64, Vec<u8>> {
        let report = recover_dir(d).expect("recover");
        assert_eq!(report.jobs.len(), jobs as usize, "every job visible in {}", d.display());
        report
            .jobs
            .iter()
            .map(|j| {
                assert_eq!(
                    j.state,
                    RecoveryState::Recovered,
                    "job {} in {}: {:?}",
                    j.job,
                    d.display(),
                    j.problems
                );
                let path = j.output.as_ref().expect("recovered job must have a container");
                (j.job, fs::read(path).expect("recovered container"))
            })
            .collect()
    };
    let killed_bytes = recovered(&dir);
    let twin_bytes = recovered(&twin);
    for j in 0..jobs {
        let id = stable_job_id(7, j);
        assert_eq!(
            killed_bytes.get(&id),
            twin_bytes.get(&id),
            "job {j} differs from the uninterrupted twin"
        );
    }
}

#[test]
fn unreachable_collector_degrades_to_local_spill_without_wedging() {
    let dir = temp_dir("degrade");
    // Reserve a port, then close it: every connect is refused.
    let port = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        l.local_addr().expect("addr").port()
    };
    let client = NetClient::start(
        NetClientConfig::new(format!("127.0.0.1:{port}"))
            .client_id(3)
            .retry(RetryPolicy::default().max_attempts(3).backoff(Duration::from_millis(1)))
            .finish_timeout(Duration::from_secs(60))
            .spill_dir(&dir),
    )
    .expect("client");
    let tcfg = PilgrimConfig::default();
    let handle = client.open_job(0, 2, tcfg.merge_identity_check);
    stream_stencil(Arc::new(handle.clone()), tcfg, 2, 9);
    let out = handle.finish();
    let stats = client.shutdown();
    assert!(!out.delivered);
    assert!(stats.degraded, "exhausted retries must trip the degrade latch");
    let path = out.local_path.as_ref().expect("degraded job must finalize a local container");
    let trace = GlobalTrace::decode_container(&fs::read(path).expect("read local container"))
        .expect("local container must decode");
    assert!(
        trace.completeness.events.iter().any(|&(_, ev)| ev.stage == DegradationStage::LocalSpill),
        "the manifest must record the spill: {:?}",
        trace.completeness.events
    );
    assert!(
        !trace.fidelity().net_spilled_ranks.is_empty(),
        "fidelity() must surface the spilled ranks"
    );
}
