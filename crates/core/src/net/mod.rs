//! `PNT1`: the fault-tolerant wire transport between a traced client and
//! a networked collector.
//!
//! The client side ([`NetClient`] / [`NetJobHandle`]) is a drop-in
//! [`SegmentSink`](crate::ingest::SegmentSink): a tracer streams
//! segments into it exactly as it would into an in-process
//! [`JobHandle`](crate::ingest::JobHandle), and the client ships them
//! over TCP to a collector running [`serve`]. The stream is framed by
//! [`crate::frame`] — the same `[kind][varint len][payload][crc32]`
//! frames and record payloads as the write-ahead log — behind a 4-byte
//! `PNT1` magic and a versioned hello, so a frame accepted off the wire
//! can be re-framed into a WAL byte-for-byte.
//!
//! ## Fault model
//!
//! The traced rank is never blocked by a dead collector and never
//! silently loses data:
//!
//! - Frames wait in a bounded in-memory queue; overflow goes to a local
//!   disk outbox (FIFO order preserved) instead of blocking the rank.
//! - A broken connection is retried with exponential backoff plus
//!   deterministic jitter. Every (re)connect replays the client's job
//!   opens (the server dedups) and retransmits unacked frames; the
//!   server logs each frame to a per-connection WAL, acks it only after
//!   the `sync_data` that covers its record has returned (one per batch
//!   of frames, a group commit), and dedups retransmits by
//!   `(job, rank, seq)` watermark. The client keeps sending while acks
//!   are in flight, up to a window of unacked frames.
//! - When the retry budget runs out — refused connects, a partition, a
//!   collector that stays dead — the client degrades to a local spill:
//!   everything still unacked is appended to a client-side WAL, later
//!   frames go straight to it, and `finish` replays that WAL into a
//!   local container. The degradation is recorded in the trace's
//!   completeness manifest
//!   ([`LocalSpill`](crate::governor::DegradationStage::LocalSpill),
//!   surfaced by `fidelity()`), never papered over.
//!
//! The server survives being killed outright: an ack is sent only after
//! the `sync_data` that covers its record in a per-connection WAL under
//! `<spill_dir>/wal/` has returned, so
//! `trace_tool recover` can rebuild every acked byte, and a restarted
//! [`serve`] on the same directory appends new conn logs next to the old
//! ones instead of truncating them. Seeded fault injection for all of
//! this lives in [`crate::net_fault`].
//!
//! ## Layout
//!
//! `codec` holds [`NetFrame`] and the handshake frame I/O both peers
//! share, `server` the collector endpoint ([`serve`]), `client` the
//! tracer-facing sink ([`NetClient`]) with its disk outbox and local
//! spill.

mod client;
mod codec;
mod server;

pub use client::{NetClient, NetClientConfig, NetClientStats, NetJobHandle, NetJobOutcome};
pub use codec::{
    read_handshake_frame, NetFrame, MAX_NRANKS, NET_MAGIC, NET_VERSION, REJECT_AUTH_REQUIRED,
    REJECT_BAD_MAC, REJECT_LIMITS, REJECT_VERSION,
};
pub use server::{serve, NetServerConfig, NetServerStats, ServeHandle};
