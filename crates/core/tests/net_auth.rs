//! Handshake and wire-authentication edge cases for the `PNT1`
//! transport.
//!
//! The contract under test:
//!
//! - an authenticated loopback link is as invisible as an
//!   unauthenticated one — the delivered container is byte-identical to
//!   a local ingest twin;
//! - malformed hellos (truncated, oversized, garbage) are rejected
//!   before the collector commits any per-connection WAL state;
//! - version skew and bad credentials get *typed* [`NetFrame::Reject`]
//!   replies, not silent closes, and the client surfaces them as a
//!   typed degrade instead of burning its retry budget;
//! - a challenge response captured from one handshake is useless on
//!   any other: nonces never repeat.

mod common;

use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use common::{stream_stencil, temp_dir};
use pilgrim::frame::FrameReader;
use pilgrim::net::{read_handshake_frame, NetFrame, REJECT_BAD_MAC, REJECT_VERSION};
use pilgrim::{
    challenge_response, serve, AuthKey, GlobalTrace, IngestConfig, IngestSession, NetClient,
    NetClientConfig, NetServerConfig, PilgrimConfig, RetryPolicy, ServeHandle, NET_MAGIC,
    NET_VERSION,
};

fn key() -> AuthKey {
    AuthKey::from_bytes(b"net-auth-test-key").expect("non-empty key material")
}

fn session(dir: &Path) -> IngestSession {
    IngestSession::new(IngestConfig::new().shards(2).spill_dir(dir)).expect("ingest session")
}

/// An authenticated collector with a short hello timeout so the
/// truncated/slow tests finish fast.
fn authed_server(dir: &Path) -> ServeHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let cfg = NetServerConfig::new()
        .auth_key(key())
        .io_timeout(Duration::from_millis(300))
        .hello_timeout(Duration::from_millis(300));
    serve(listener, session(dir), cfg).expect("serve")
}

/// Reads one frame from the server, expecting the `PNT1` magic prefix
/// iff `expect_magic` (the server prefixes its *first* frame only).
fn read_frame(stream: &mut TcpStream, expect_magic: bool) -> Option<NetFrame> {
    let mut rbuf = FrameReader::new(usize::MAX);
    read_handshake_frame(stream, &mut rbuf, Duration::from_secs(5), expect_magic)
}

fn send_hello(stream: &mut TcpStream, version: u32, client_id: u64) -> Option<NetFrame> {
    stream.write_all(&NetFrame::Hello { version, client_id }.encode_first()).expect("write hello");
    read_frame(stream, true)
}

/// No `conn-*.wal` may exist under `dir/wal/` — rejected handshakes
/// must not commit any per-connection durability state.
fn assert_no_conn_wals(dir: &Path) {
    let wal_dir = dir.join("wal");
    if let Ok(entries) = fs::read_dir(&wal_dir) {
        let conns: Vec<_> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("conn-"))
            .collect();
        assert!(conns.is_empty(), "rejected peers left WAL state behind: {conns:?}");
    }
}

#[test]
fn authenticated_loopback_is_byte_identical_to_local_ingest() {
    let server_dir = temp_dir("loopback-server");
    let local_dir = temp_dir("loopback-local");
    let ranks = 4;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = serve(listener, session(&server_dir), NetServerConfig::new().auth_key(key()))
        .expect("serve");
    let client = NetClient::start(
        NetClientConfig::new(server.addr().to_string())
            .client_id(11)
            .auth_key(key())
            .spill_dir(server_dir.join("client")),
    )
    .expect("client");
    let tcfg = PilgrimConfig::default();
    let handle = client.open_job(0, ranks, tcfg.merge_identity_check);
    stream_stencil(Arc::new(handle.clone()), tcfg, ranks, 42);
    let out = handle.finish();
    let stats = client.shutdown();
    let sstats = server.stop();
    assert!(out.delivered, "authed loopback must deliver: {:?}", out.problems);
    assert_eq!(out.lossless, Some(true), "authed loopback must be lossless");
    assert!(!stats.auth_failed, "handshake must have succeeded");
    assert_eq!(sstats.auth_failures, 0, "no failed handshakes expected");
    let net_bytes =
        fs::read(server_dir.join(format!("job-{}.pilgrim", out.job))).expect("net container");

    let local = session(&local_dir);
    let lh = local.open_job(ranks, tcfg.merge_identity_check);
    stream_stencil(Arc::new(lh.clone()), tcfg, ranks, 42);
    let lo = local.finish_job(&lh);
    assert!(lo.is_lossless(), "local twin must be lossless");
    let local_bytes =
        fs::read(local_dir.join(format!("job-{}.pilgrim", lh.job()))).expect("local container");
    assert_eq!(net_bytes, local_bytes, "authentication must not change a single byte");
}

#[test]
fn truncated_hello_is_rejected_without_wal_state() {
    let dir = temp_dir("truncated");
    let server = authed_server(&dir);
    {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.write_all(&NET_MAGIC[..3]).expect("write partial magic");
        // Vanish mid-handshake; the server's hello timeout reaps us.
    }
    {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        let mut wire = NET_MAGIC.to_vec();
        wire.extend_from_slice(&NetFrame::Hello { version: NET_VERSION, client_id: 5 }.encode());
        wire.truncate(wire.len() - 2);
        s.write_all(&wire).expect("write truncated hello");
    }
    std::thread::sleep(Duration::from_millis(700));
    let stats = server.stop();
    assert!(stats.bad_hello >= 2, "both truncated peers must be counted: {stats:?}");
    assert_eq!(stats.jobs_opened, 0);
    assert_no_conn_wals(&dir);
}

#[test]
fn oversized_hello_is_rejected_without_allocation() {
    let dir = temp_dir("oversized");
    let server = authed_server(&dir);
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    // Valid magic and kind, then a declared payload length of 1 GiB.
    let mut wire = NET_MAGIC.to_vec();
    wire.push(1); // hello kind
    let mut len: u64 = 1 << 30;
    while len >= 0x80 {
        wire.push((len as u8 & 0x7f) | 0x80);
        len >>= 7;
    }
    wire.push(len as u8);
    wire.extend_from_slice(&[0u8; 512]);
    s.write_all(&wire).expect("write oversized hello");
    // The server must hang up without buffering the declared gigabyte.
    let mut sink = Vec::new();
    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = s.read_to_end(&mut sink);
    let stats = server.stop();
    assert!(stats.bad_hello >= 1, "oversized hello must be rejected: {stats:?}");
    assert!(
        stats.peak_conn_buffer < (1 << 20),
        "the declared length must not be allocated: peak {} B",
        stats.peak_conn_buffer
    );
    assert_no_conn_wals(&dir);
}

#[test]
fn version_skew_gets_a_typed_reject() {
    let dir = temp_dir("version");
    let server = authed_server(&dir);
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    let reply = send_hello(&mut s, NET_VERSION + 7, 5);
    assert_eq!(
        reply,
        Some(NetFrame::Reject { code: REJECT_VERSION }),
        "version skew must be answered with a typed reject"
    );
    let stats = server.stop();
    assert_eq!(stats.version_skew, 1);
    assert_no_conn_wals(&dir);
}

#[test]
fn replayed_challenge_response_is_rejected() {
    let dir = temp_dir("replay");
    let server = authed_server(&dir);
    let client_id = 77;

    // First connection: a legitimate handshake, capturing the response.
    let mut first = TcpStream::connect(server.addr()).expect("connect");
    let Some(NetFrame::Challenge { nonce }) = send_hello(&mut first, NET_VERSION, client_id) else {
        panic!("authed server must challenge")
    };
    let mac = challenge_response(&key(), &nonce, client_id, NET_VERSION);
    first.write_all(&NetFrame::AuthResponse { mac }.encode()).expect("write response");
    assert_eq!(
        read_frame(&mut first, false),
        Some(NetFrame::HelloAck { version: NET_VERSION }),
        "the legitimate handshake must succeed"
    );
    drop(first);

    // Second connection: replay the captured response against the
    // fresh nonce. The server must reject — nonces never repeat.
    let mut second = TcpStream::connect(server.addr()).expect("connect");
    let Some(NetFrame::Challenge { nonce: nonce2 }) =
        send_hello(&mut second, NET_VERSION, client_id)
    else {
        panic!("authed server must challenge again")
    };
    assert_ne!(nonce, nonce2, "nonces must be fresh per handshake");
    second.write_all(&NetFrame::AuthResponse { mac }.encode()).expect("write replay");
    assert_eq!(
        read_frame(&mut second, false),
        Some(NetFrame::Reject { code: REJECT_BAD_MAC }),
        "a replayed challenge response must be rejected"
    );
    let stats = server.stop();
    assert_eq!(stats.auth_failures, 1, "{stats:?}");
}

#[test]
fn wrong_key_client_degrades_with_typed_error_and_no_wal_state() {
    let dir = temp_dir("wrong-key");
    let server = authed_server(&dir);
    let client = NetClient::start(
        NetClientConfig::new(server.addr().to_string())
            .client_id(9)
            .auth_key(AuthKey::from_bytes(b"not-the-server-key").expect("key"))
            .retry(RetryPolicy::default().max_attempts(5).backoff(Duration::from_millis(1)))
            .finish_timeout(Duration::from_secs(30))
            .spill_dir(dir.join("client")),
    )
    .expect("client");
    let tcfg = PilgrimConfig::default();
    let handle = client.open_job(0, 2, tcfg.merge_identity_check);
    stream_stencil(Arc::new(handle.clone()), tcfg, 2, 13);
    let out = handle.finish();
    let stats = client.shutdown();
    let sstats = server.stop();
    assert!(!out.delivered, "a wrong key must never deliver");
    assert!(stats.auth_failed, "the client must surface the typed auth failure");
    assert!(stats.degraded, "auth failure must degrade, not wedge");
    assert!(
        stats.connects <= 2,
        "a typed rejection must not burn the whole retry ladder: {} connects",
        stats.connects
    );
    assert!(out.local_path.is_some(), "the job must land in the local spill");
    assert!(sstats.auth_failures >= 1, "{sstats:?}");
    assert_no_conn_wals(&dir);
}

#[test]
fn keyless_client_against_authed_server_degrades_cleanly() {
    let dir = temp_dir("keyless");
    let server = authed_server(&dir);
    let client = NetClient::start(
        NetClientConfig::new(server.addr().to_string())
            .client_id(4)
            .retry(RetryPolicy::default().max_attempts(5).backoff(Duration::from_millis(1)))
            .finish_timeout(Duration::from_secs(30))
            .spill_dir(dir.join("client")),
    )
    .expect("client");
    let tcfg = PilgrimConfig::default();
    let handle = client.open_job(0, 2, tcfg.merge_identity_check);
    stream_stencil(Arc::new(handle.clone()), tcfg, 2, 17);
    let out = handle.finish();
    let stats = client.shutdown();
    server.stop();
    assert!(!out.delivered);
    assert!(stats.auth_failed, "missing key must surface as an auth failure");
    assert!(out.local_path.is_some(), "the job must still end durable locally");
    assert_no_conn_wals(&dir);
}

#[test]
fn authed_container_decodes_and_validates() {
    let dir = temp_dir("validate");
    let server = authed_server(&dir);
    let client = NetClient::start(
        NetClientConfig::new(server.addr().to_string())
            .client_id(30)
            .auth_key(key())
            .spill_dir(dir.join("client")),
    )
    .expect("client");
    let tcfg = PilgrimConfig::default().memory_budget(3000);
    let handle = client.open_job(0, 2, tcfg.merge_identity_check);
    stream_stencil(Arc::new(handle.clone()), tcfg, 2, 23);
    let out = handle.finish();
    client.shutdown();
    server.stop();
    assert!(out.delivered, "{:?}", out.problems);
    let bytes = fs::read(dir.join(format!("job-{}.pilgrim", out.job))).expect("container");
    let trace = GlobalTrace::decode_container(&bytes).expect("container must decode");
    assert_eq!(trace.nranks, 2);
}
