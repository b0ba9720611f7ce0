//! Collector bring-up shared by the set-up metric and phases C and D:
//! an ingest session behind an authenticated `PNT1` endpoint on a
//! loopback port the kernel picks, and one client connected to it.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pilgrim::{
    serve, AuthKey, IngestConfig, IngestSession, NetClient, NetClientConfig, NetJobHandle,
    NetServerConfig, ServeHandle,
};

use crate::spec::{AUTH_KEY, SHARDS};

/// The run's scratch directory, `<out>/run-<pid>`, removed when the run
/// ends — on failure and on a panic too, since removal is in `Drop`.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create(out: &Path) -> std::io::Result<Scratch> {
        let root = out.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty directory path under the scratch root (not yet
    /// created: `IngestSession::new` creates its spill dir).
    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn auth_key() -> AuthKey {
    AuthKey::from_bytes(AUTH_KEY).expect("the benchmark's key material is not empty")
}

/// A live collector and its one client.
pub struct Collector {
    pub server: ServeHandle,
    pub client: NetClient,
    pub dir: PathBuf,
}

impl Collector {
    /// `IngestSession::new` + `serve` + `NetClient::start`. The session
    /// runs without its own WAL, as `serve` asks: the endpoint logs
    /// every frame to a per-connection WAL (fsynced) before acking it.
    pub fn start(dir: PathBuf) -> std::io::Result<Collector> {
        let session = IngestSession::new(IngestConfig::new().shards(SHARDS).spill_dir(&dir))
            .map_err(std::io::Error::other)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let server = serve(listener, session, NetServerConfig::new().auth_key(auth_key()))?;
        let client = NetClient::start(
            NetClientConfig::new(server.addr().to_string()).client_id(1).auth_key(auth_key()),
        )?;
        Ok(Collector { server, client, dir })
    }

    /// Where the collector spills the container of a client job.
    pub fn container_path(&self, job: &NetJobHandle) -> PathBuf {
        self.dir.join(format!("job-{}.pilgrim", job.job()))
    }

    /// Blocks until the collector has acked `n` frames of this client,
    /// or `timeout` passes. True when the acks arrived.
    pub fn wait_acks(&self, n: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.client.stats().acks < n {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        true
    }
}
