//! The shared interconnect: point-to-point matching with MPI semantics,
//! generation-counted collective exchange lanes, context-id allocation, and
//! the untraced tool side-channel.
//!
//! Failure awareness: a rank killed by a [`crate::FaultPlan`] is recorded in
//! the fabric's dead set *before* its thread unwinds. Every blocking wait
//! (`wait_take`, `wait_collect`, `probe`) re-checks both the abort flag and
//! — when the awaited source is known — whether that source died without
//! having sent, in which case the waiter unwinds with a
//! [`crate::PeerFailure`] instead of spinning forever. Because a dying rank
//! completes all sends and deposits of its final call before it is marked
//! dead, "dead and not delivered" is proof the message will never arrive.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::fault::{self, FaultPlan};
use crate::types::{ANY_SOURCE, ANY_TAG};

/// Rank within the world (thread index).
pub type WorldRank = usize;
/// Communicator context id: the matching domain of a communicator.
pub type ContextId = u64;

/// Context id of `MPI_COMM_WORLD`.
pub const WORLD_CONTEXT: ContextId = 0;

/// Sentinel for "awaited source unknown" in a receive slot.
const SRC_UNKNOWN: usize = usize::MAX;

/// Locks `m`, recovering the data of a poisoned lock: a panicking rank
/// must not wedge the whole simulated world.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` for at most `d`, recovering a poisoned lock like [`lock`].
fn timed_wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, d: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, d).unwrap_or_else(PoisonError::into_inner).0
}

/// Exchange lanes: application collectives and tracer-internal traffic are
/// kept in separate matching domains so tracing never perturbs matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    App,
    Tool,
}

/// An in-flight point-to-point message.
#[derive(Debug, Clone)]
pub struct Message {
    pub ctx: ContextId,
    /// Sender's rank within the communicator (what `MPI_SOURCE` reports).
    pub src_comm_rank: i32,
    pub tag: i32,
    pub data: Vec<u8>,
    /// Simulated time at which the sender issued the message.
    pub send_time: u64,
}

/// Completion slot for a posted receive, filled by the matching sender.
#[derive(Debug)]
pub struct RecvSlot {
    filled: Mutex<Option<Message>>,
    cond: Condvar,
    /// World rank this slot waits on ([`SRC_UNKNOWN`] for wildcard
    /// receives, which can never be proven dead-blocked).
    src_world: AtomicUsize,
    /// Application-lane slot: also treats *bailed* sources (survivors that
    /// abandoned their body early) as unreachable. Tool-lane slots only
    /// treat killed sources as unreachable, because bailed ranks still
    /// participate in the merge.
    app_lane: bool,
}

impl Default for RecvSlot {
    fn default() -> Self {
        RecvSlot {
            filled: Mutex::new(None),
            cond: Condvar::new(),
            src_world: AtomicUsize::new(SRC_UNKNOWN),
            app_lane: true,
        }
    }
}

impl RecvSlot {
    fn for_tool(src_world: WorldRank) -> Self {
        RecvSlot {
            filled: Mutex::new(None),
            cond: Condvar::new(),
            src_world: AtomicUsize::new(src_world),
            app_lane: false,
        }
    }

    /// Non-blocking poll; takes the message if present.
    pub fn try_take(&self) -> Option<Message> {
        lock(&self.filled).take()
    }

    /// Whether a message has arrived (without consuming it).
    pub fn is_ready(&self) -> bool {
        lock(&self.filled).is_some()
    }

    /// Whether this slot's concrete source can still send to it.
    fn src_unreachable(&self, fabric: &Fabric) -> Option<WorldRank> {
        let src = self.src_world.load(Ordering::Acquire);
        if src == SRC_UNKNOWN {
            return None;
        }
        let gone = if self.app_lane { fabric.is_app_unreachable(src) } else { fabric.is_dead(src) };
        if gone {
            Some(src)
        } else {
            None
        }
    }

    /// If this slot waits on a concrete source that failed without filling
    /// it, returns that source. Checks failure *before* readiness: a fill
    /// by the failing rank happens-before it is marked failed, so "failed,
    /// then still empty" proves the message was never sent.
    pub fn blocked_on_dead(&self, fabric: &Fabric) -> Option<WorldRank> {
        let src = self.src_unreachable(fabric)?;
        if self.is_ready() {
            return None;
        }
        Some(src)
    }

    /// Blocks until the message arrives, unwinding if the world aborts or
    /// the awaited source has failed and can no longer send.
    pub fn wait_take(&self, fabric: &Fabric, me: WorldRank) -> Message {
        let mut guard = lock(&self.filled);
        loop {
            if let Some(m) = guard.take() {
                return m;
            }
            // Safe under the slot lock: a pending fill is excluded, so an
            // empty slot plus a failed source means the send never happened.
            if let Some(src) = self.src_unreachable(fabric) {
                drop(guard);
                fault::raise_peer_failure(me, src);
            }
            guard = timed_wait(&self.cond, guard, Duration::from_millis(50));
            fabric.check_abort();
        }
    }

    /// Waits up to `d` for a fill; returns readiness.
    fn wait_timeout(&self, d: Duration) -> bool {
        let mut guard = lock(&self.filled);
        if guard.is_some() {
            return true;
        }
        guard = timed_wait(&self.cond, guard, d);
        guard.is_some()
    }

    fn fill(&self, m: Message) {
        let mut guard = lock(&self.filled);
        debug_assert!(guard.is_none(), "recv slot filled twice");
        *guard = Some(m);
        self.cond.notify_all();
    }
}

#[derive(Debug)]
struct PostedRecv {
    ctx: ContextId,
    src: i32,
    tag: i32,
    slot: Arc<RecvSlot>,
}

fn matches(ctx: ContextId, src: i32, tag: i32, m: &Message) -> bool {
    m.ctx == ctx
        && (src == ANY_SOURCE || src == m.src_comm_rank)
        && (tag == ANY_TAG || tag == m.tag)
}

#[derive(Debug, Default)]
struct MailboxInner {
    unexpected: VecDeque<Message>,
    posted: VecDeque<PostedRecv>,
}

#[derive(Debug, Default)]
struct Mailbox {
    inner: Mutex<MailboxInner>,
    /// Signaled when a message lands in the unexpected queue (for probes).
    arrived: Condvar,
}

impl Mailbox {
    /// Hands `msg` to the earliest posted receive it matches (post order:
    /// MPI's non-overtaking rule), or queues it as unexpected.
    fn deliver(&self, msg: Message) {
        let mut inner = lock(&self.inner);
        let hit = inner.posted.iter().position(|p| matches(p.ctx, p.src, p.tag, &msg));
        match hit.and_then(|i| inner.posted.remove(i)) {
            Some(posted) => {
                drop(inner);
                posted.slot.fill(msg);
            }
            None => {
                inner.unexpected.push_back(msg);
                self.arrived.notify_all();
            }
        }
    }

    /// Posts `slot` as a receive for `(ctx, src, tag)`, filling it at once
    /// with the earliest unexpected message `accept` takes.
    fn post(
        &self,
        slot: &Arc<RecvSlot>,
        ctx: ContextId,
        src: i32,
        tag: i32,
        accept: impl Fn(&Message) -> bool,
    ) {
        let mut inner = lock(&self.inner);
        let hit = inner.unexpected.iter().position(accept);
        match hit.and_then(|i| inner.unexpected.remove(i)) {
            Some(msg) => {
                drop(inner);
                slot.fill(msg);
            }
            None => inner.posted.push_back(PostedRecv { ctx, src, tag, slot: slot.clone() }),
        }
    }
}

/// One round of a collective exchange: contributions by comm rank, the
/// published result, and a reader count for cleanup.
#[derive(Debug, Default)]
struct CollRound {
    contribs: Vec<Option<Vec<u8>>>,
    max_time: u64,
    deposited: usize,
    result: Option<Arc<Vec<Vec<u8>>>>,
    readers: usize,
}

/// Per-(context, lane) collective state. Rounds are numbered by each rank's
/// own collective-call count on the communicator, which MPI ordering rules
/// keep consistent across ranks. The member list (lane rank -> world rank)
/// is recorded so waiters can tell when a missing contribution belongs to
/// a dead rank.
#[derive(Debug)]
pub struct CollCtx {
    size: usize,
    group: Vec<WorldRank>,
    lane: Lane,
    m: Mutex<HashMap<u64, CollRound>>,
    cv: Condvar,
}

impl CollCtx {
    fn new(lane: Lane, group: Vec<WorldRank>) -> Self {
        CollCtx {
            size: group.len(),
            group,
            lane,
            m: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    /// Deposits `contrib` for `round`; does not wait.
    pub fn deposit(&self, round: u64, comm_rank: usize, contrib: Vec<u8>, time: u64) {
        let mut rounds = lock(&self.m);
        let r = rounds.entry(round).or_default();
        if r.contribs.is_empty() {
            r.contribs.resize(self.size, None);
        }
        debug_assert!(
            r.contribs[comm_rank].is_none(),
            "double deposit by rank {comm_rank} in round {round}"
        );
        r.contribs[comm_rank] = Some(contrib);
        r.max_time = r.max_time.max(time);
        r.deposited += 1;
        if r.deposited == self.size {
            // Every member deposited exactly once, so no slot is empty.
            let contribs = std::mem::take(&mut r.contribs);
            r.result = Some(Arc::new(contribs.into_iter().flatten().collect()));
            self.cv.notify_all();
        }
    }

    /// Polls for the result of `round`; consumes this rank's read.
    pub fn try_collect(&self, round: u64) -> Option<(Arc<Vec<Vec<u8>>>, u64)> {
        let mut rounds = lock(&self.m);
        let r = rounds.get_mut(&round)?;
        let result = r.result.clone()?;
        let time = r.max_time;
        r.readers += 1;
        if r.readers == self.size {
            rounds.remove(&round);
        }
        Some((result, time))
    }

    /// Whether `round` has completed (without consuming the read).
    pub fn is_ready(&self, round: u64) -> bool {
        let rounds = lock(&self.m);
        rounds.get(&round).is_some_and(|r| r.result.is_some())
    }

    /// A failed member that has not deposited into the (incomplete) round,
    /// if any — proof the round can never complete. App lanes treat bailed
    /// survivors as failed too; tool lanes only killed ranks, since bailed
    /// ranks keep participating in the merge.
    fn missing_dead(&self, r: &CollRound, fabric: &Fabric) -> Option<WorldRank> {
        if r.contribs.is_empty() || r.result.is_some() {
            return None;
        }
        let gone = |w: WorldRank| match self.lane {
            Lane::App => fabric.is_app_unreachable(w),
            Lane::Tool => fabric.is_dead(w),
        };
        self.group
            .iter()
            .enumerate()
            .filter(|&(i, _)| r.contribs[i].is_none())
            .find_map(|(_, &w)| if gone(w) { Some(w) } else { None })
    }

    /// Lock-taking variant of [`Self::missing_dead`] for request polling.
    pub fn blocked_on_dead(&self, fabric: &Fabric, round: u64) -> Option<WorldRank> {
        if !fabric.has_failures() {
            return None;
        }
        let rounds = lock(&self.m);
        rounds.get(&round).and_then(|r| self.missing_dead(r, fabric))
    }

    /// Blocks until `round` completes, then collects. Unwinds with
    /// [`crate::PeerFailure`] if a member died before depositing.
    pub fn wait_collect(
        &self,
        fabric: &Fabric,
        round: u64,
        me: WorldRank,
    ) -> (Arc<Vec<Vec<u8>>>, u64) {
        let mut rounds = lock(&self.m);
        loop {
            if let Some(r) = rounds.get_mut(&round) {
                if let Some(result) = r.result.clone() {
                    let time = r.max_time;
                    r.readers += 1;
                    if r.readers == self.size {
                        rounds.remove(&round);
                    }
                    return (result, time);
                }
                if fabric.has_failures() {
                    if let Some(dead) = self.missing_dead(r, fabric) {
                        drop(rounds);
                        fault::raise_peer_failure(me, dead);
                    }
                }
            }
            rounds = timed_wait(&self.cv, rounds, Duration::from_millis(50));
            fabric.check_abort();
        }
    }
}

/// The world-wide interconnect shared by all rank threads.
pub struct Fabric {
    n_ranks: usize,
    mailboxes: Vec<Mailbox>,
    tool_mailboxes: Vec<Mailbox>,
    colls: Mutex<HashMap<(ContextId, Lane), Arc<CollCtx>>>,
    next_context: AtomicU64,
    aborted: AtomicBool,
    /// The injected-fault schedule, if any.
    plan: Option<FaultPlan>,
    /// Killed ranks -> MPI calls completed before death.
    dead: Mutex<HashMap<WorldRank, u64>>,
    /// Survivors that abandoned their application body after hitting a
    /// dead peer: they send no further app messages but still merge.
    bailed: Mutex<Vec<WorldRank>>,
    /// Fast path for the common no-failure case.
    any_dead: AtomicBool,
    /// Crash-consistent tracer snapshots: rank -> (calls covered, bytes).
    checkpoints: Mutex<HashMap<WorldRank, (u64, Vec<u8>)>>,
    /// Per-(src, dest) tool-message ordinals for deterministic drops.
    tool_seq: Mutex<HashMap<(WorldRank, WorldRank), u64>>,
    /// Per-dest app-message ordinals for deterministic delays.
    app_seq: Mutex<HashMap<WorldRank, u64>>,
    /// Ranks whose one-shot mailbox stall has already been applied.
    stalls_taken: Mutex<Vec<WorldRank>>,
    dropped_tool_msgs: AtomicU64,
}

impl Fabric {
    pub fn new(n_ranks: usize) -> Arc<Fabric> {
        Self::with_faults(n_ranks, None)
    }

    /// Creates a fabric with an optional fault-injection plan.
    pub fn with_faults(n_ranks: usize, plan: Option<FaultPlan>) -> Arc<Fabric> {
        let f = Fabric {
            n_ranks,
            mailboxes: (0..n_ranks).map(|_| Mailbox::default()).collect(),
            tool_mailboxes: (0..n_ranks).map(|_| Mailbox::default()).collect(),
            colls: Mutex::new(HashMap::new()),
            next_context: AtomicU64::new(WORLD_CONTEXT + 1),
            aborted: AtomicBool::new(false),
            plan,
            dead: Mutex::new(HashMap::new()),
            bailed: Mutex::new(Vec::new()),
            any_dead: AtomicBool::new(false),
            checkpoints: Mutex::new(HashMap::new()),
            tool_seq: Mutex::new(HashMap::new()),
            app_seq: Mutex::new(HashMap::new()),
            stalls_taken: Mutex::new(Vec::new()),
            dropped_tool_msgs: AtomicU64::new(0),
        };
        // Register the world communicator's collective lanes.
        let world: Vec<WorldRank> = (0..n_ranks).collect();
        f.ensure_coll(WORLD_CONTEXT, Lane::App, &world);
        f.ensure_coll(WORLD_CONTEXT, Lane::Tool, &world);
        Arc::new(f)
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The fault plan this world runs under, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Marks the world as failed (called when a rank panics or halts) so
    /// blocked peers unblock with a panic instead of hanging forever.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
    }

    /// Unwinds if the world has been aborted, past the panic hook: the
    /// failing rank has reported, and its peers' unwinds are consequences.
    pub fn check_abort(&self) {
        if self.aborted.load(Ordering::SeqCst) {
            std::panic::resume_unwind(Box::new("mpi-sim world aborted: another rank failed"));
        }
    }

    // ------------------------------------------------------------------
    // Failure bookkeeping
    // ------------------------------------------------------------------

    /// Records `rank` as dead after completing `calls` MPI calls. Called by
    /// the dying rank itself, after its final call's sends and deposits.
    pub fn mark_dead(&self, rank: WorldRank, calls: u64) {
        lock(&self.dead).insert(rank, calls);
        self.any_dead.store(true, Ordering::Release);
    }

    /// Records `rank` as having abandoned its application body (after a
    /// peer failure): peers must not block on its future app messages, but
    /// its tracer still participates in the merge.
    pub fn mark_bailed(&self, rank: WorldRank) {
        lock(&self.bailed).push(rank);
        self.any_dead.store(true, Ordering::Release);
    }

    /// Whether `rank` has been killed.
    pub fn is_dead(&self, rank: WorldRank) -> bool {
        self.any_dead.load(Ordering::Acquire) && lock(&self.dead).contains_key(&rank)
    }

    /// Whether `rank` will never send application traffic again (killed or
    /// bailed).
    pub fn is_app_unreachable(&self, rank: WorldRank) -> bool {
        self.any_dead.load(Ordering::Acquire)
            && (lock(&self.dead).contains_key(&rank) || lock(&self.bailed).contains(&rank))
    }

    /// Whether any rank has died or bailed (cheap fast path).
    pub fn has_failures(&self) -> bool {
        self.any_dead.load(Ordering::Acquire)
    }

    /// All dead ranks with their final call counts, sorted by rank.
    pub fn dead_ranks(&self) -> Vec<(WorldRank, u64)> {
        let mut v: Vec<_> = lock(&self.dead).iter().map(|(&r, &c)| (r, c)).collect();
        v.sort_unstable();
        v
    }

    /// Stores a crash-consistent tracer snapshot for `rank`.
    pub fn store_checkpoint(&self, rank: WorldRank, calls: u64, bytes: Vec<u8>) {
        lock(&self.checkpoints).insert(rank, (calls, bytes));
    }

    /// Latest checkpoint for `rank`, if one was stored.
    pub fn load_checkpoint(&self, rank: WorldRank) -> Option<(u64, Vec<u8>)> {
        lock(&self.checkpoints).get(&rank).cloned()
    }

    /// Tool-channel messages silently dropped by the fault plan so far.
    pub fn dropped_tool_messages(&self) -> u64 {
        self.dropped_tool_msgs.load(Ordering::Relaxed)
    }

    /// Allocates a fresh communicator context id.
    pub fn alloc_context(&self) -> ContextId {
        self.next_context.fetch_add(1, Ordering::SeqCst)
    }

    /// Idempotently registers the collective lane for a communicator,
    /// recording its member list (lane rank -> world rank).
    pub fn ensure_coll(&self, ctx: ContextId, lane: Lane, group: &[WorldRank]) -> Arc<CollCtx> {
        let mut colls = lock(&self.colls);
        let c = colls
            .entry((ctx, lane))
            .or_insert_with(|| Arc::new(CollCtx::new(lane, group.to_vec())));
        assert_eq!(c.group, group, "collective lane re-registered with a different group");
        c.clone()
    }

    /// Looks up a registered collective lane.
    pub fn coll(&self, ctx: ContextId, lane: Lane) -> Arc<CollCtx> {
        lock(&self.colls)
            .get(&(ctx, lane))
            .cloned()
            .unwrap_or_else(|| panic!("no collective lane for context {ctx} {lane:?}"))
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Delivers a message to `dest`'s mailbox, matching a posted receive if
    /// one exists (in post order: MPI's non-overtaking rule). The fault
    /// plan may add simulated latency to the message.
    pub fn send(&self, dest_world: WorldRank, mut msg: Message) {
        if let Some(plan) = &self.plan {
            if plan.delay_prob > 0.0 {
                let seq = {
                    let mut m = lock(&self.app_seq);
                    let e = m.entry(dest_world).or_insert(0);
                    let s = *e;
                    *e += 1;
                    s
                };
                msg.send_time =
                    msg.send_time.saturating_add(plan.delay_for(dest_world, msg.tag, seq));
            }
        }
        self.mailboxes[dest_world].deliver(msg);
    }

    /// Posts a receive at `me`; returns a slot completed by the matching
    /// sender. An already-arrived unexpected message matches immediately
    /// (earliest first, preserving arrival order per source). `src_world`
    /// is the awaited sender's world rank when the source is concrete; it
    /// lets the waiter detect a dead sender instead of blocking forever.
    pub fn post_recv(
        &self,
        me: WorldRank,
        ctx: ContextId,
        src: i32,
        tag: i32,
        src_world: Option<WorldRank>,
    ) -> Arc<RecvSlot> {
        let slot = Arc::new(RecvSlot::default());
        if let Some(w) = src_world {
            slot.src_world.store(w, Ordering::Release);
        }
        self.mailboxes[me].post(&slot, ctx, src, tag, |m| matches(ctx, src, tag, m));
        slot
    }

    /// Non-blocking probe: peeks the unexpected queue.
    pub fn iprobe(
        &self,
        me: WorldRank,
        ctx: ContextId,
        src: i32,
        tag: i32,
    ) -> Option<(i32, i32, u64)> {
        let inner = lock(&self.mailboxes[me].inner);
        inner
            .unexpected
            .iter()
            .find(|m| matches(ctx, src, tag, m))
            .map(|m| (m.src_comm_rank, m.tag, m.data.len() as u64))
    }

    /// Blocking probe: waits until a matching message is enqueued,
    /// unwinding if a concretely awaited source is dead.
    pub fn probe(
        &self,
        me: WorldRank,
        ctx: ContextId,
        src: i32,
        tag: i32,
        src_world: Option<WorldRank>,
    ) -> (i32, i32, u64) {
        let mb = &self.mailboxes[me];
        let mut inner = lock(&mb.inner);
        loop {
            if let Some(m) = inner.unexpected.iter().find(|m| matches(ctx, src, tag, m)) {
                return (m.src_comm_rank, m.tag, m.data.len() as u64);
            }
            if let Some(w) = src_world {
                if self.is_dead(w) {
                    drop(inner);
                    fault::raise_peer_failure(me, w);
                }
            }
            inner = timed_wait(&mb.arrived, inner, Duration::from_millis(50));
            self.check_abort();
        }
    }

    // ------------------------------------------------------------------
    // Tool side-channel (untraced)
    // ------------------------------------------------------------------

    /// Sends raw bytes on the tool channel (used by tracers for merges).
    /// The fault plan may silently drop the message.
    pub fn tool_send(&self, dest_world: WorldRank, src_world: WorldRank, tag: i32, data: Vec<u8>) {
        if let Some(plan) = &self.plan {
            if plan.drop_prob > 0.0 {
                let seq = {
                    let mut m = lock(&self.tool_seq);
                    let e = m.entry((src_world, dest_world)).or_insert(0);
                    let s = *e;
                    *e += 1;
                    s
                };
                if plan.drops_message(src_world, dest_world, tag, seq) {
                    self.dropped_tool_msgs.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        let msg =
            Message { ctx: u64::MAX, src_comm_rank: src_world as i32, tag, data, send_time: 0 };
        self.tool_mailboxes[dest_world].deliver(msg);
    }

    /// Posts a tool-channel receive for (src, tag) at `me`.
    fn post_tool_recv(&self, me: WorldRank, src_world: WorldRank, tag: i32) -> Arc<RecvSlot> {
        let slot = Arc::new(RecvSlot::for_tool(src_world));
        let src = src_world as i32;
        self.tool_mailboxes[me]
            .post(&slot, u64::MAX, src, tag, |m| m.src_comm_rank == src && m.tag == tag);
        slot
    }

    /// Removes a posted (unfilled) tool receive so a late message cannot
    /// fill a slot nobody waits on anymore; it will queue as unexpected.
    fn cancel_tool_recv(&self, me: WorldRank, slot: &Arc<RecvSlot>) {
        let mut inner = lock(&self.tool_mailboxes[me].inner);
        inner.posted.retain(|p| !Arc::ptr_eq(&p.slot, slot));
    }

    /// One-shot real-time stall of `me`'s tool mailbox, per the fault plan.
    fn apply_stall(&self, me: WorldRank) {
        let Some(ns) = self.plan.as_ref().and_then(|p| p.stall_for(me)) else {
            return;
        };
        {
            let mut taken = lock(&self.stalls_taken);
            if taken.contains(&me) {
                return;
            }
            taken.push(me);
        }
        std::thread::sleep(Duration::from_nanos(ns.min(2_000_000_000)));
    }

    /// Blocking receive on the tool channel.
    pub fn tool_recv(&self, me: WorldRank, src_world: WorldRank, tag: i32) -> Vec<u8> {
        self.apply_stall(me);
        self.post_tool_recv(me, src_world, tag).wait_take(self, me).data
    }

    /// Bounded receive on the tool channel with exponential backoff.
    /// Returns `(message, backoff_rounds)`; `None` when the wait timed out
    /// or the sender died without sending. The posted receive is cancelled
    /// on timeout so a late message queues as unexpected instead of
    /// filling a slot nobody owns.
    pub fn tool_recv_timeout(
        &self,
        me: WorldRank,
        src_world: WorldRank,
        tag: i32,
        timeout: Duration,
    ) -> (Option<Vec<u8>>, u64) {
        self.apply_stall(me);
        let slot = self.post_tool_recv(me, src_world, tag);
        let deadline = Instant::now() + timeout;
        let mut slice = Duration::from_millis(1);
        let mut retries = 0u64;
        loop {
            if let Some(m) = slot.try_take() {
                return (Some(m.data), retries);
            }
            // Death check before the (re-)readiness check below makes the
            // fast-fail race-free: fills happen-before mark_dead.
            if self.is_dead(src_world) {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            slot.wait_timeout(slice.min(deadline - now));
            self.check_abort();
            retries += 1;
            slice = (slice * 2).min(Duration::from_millis(50));
        }
        self.cancel_tool_recv(me, &slot);
        // A fill may have raced the cancellation; honor it.
        (slot.try_take().map(|m| m.data), retries)
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric").field("n_ranks", &self.n_ranks).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PeerFailure;
    use std::thread;

    #[test]
    fn send_then_recv_matches() {
        let f = Fabric::new(2);
        f.send(1, Message { ctx: 0, src_comm_rank: 0, tag: 7, data: vec![1, 2], send_time: 5 });
        let slot = f.post_recv(1, 0, 0, 7, Some(0));
        let m = slot.try_take().expect("unexpected message should match");
        assert_eq!(m.data, vec![1, 2]);
        assert_eq!(m.send_time, 5);
    }

    #[test]
    fn recv_then_send_matches() {
        let f = Fabric::new(2);
        let slot = f.post_recv(1, 0, ANY_SOURCE, ANY_TAG, None);
        assert!(!slot.is_ready());
        f.send(1, Message { ctx: 0, src_comm_rank: 0, tag: 3, data: vec![9], send_time: 0 });
        assert!(slot.is_ready());
        assert_eq!(slot.try_take().unwrap().tag, 3);
    }

    #[test]
    fn wildcard_does_not_match_wrong_context() {
        let f = Fabric::new(2);
        f.send(1, Message { ctx: 42, src_comm_rank: 0, tag: 1, data: vec![], send_time: 0 });
        let slot = f.post_recv(1, 0, ANY_SOURCE, ANY_TAG, None);
        assert!(!slot.is_ready(), "message in ctx 42 must not match ctx 0 recv");
    }

    #[test]
    fn tag_matching_is_exact_without_wildcard() {
        let f = Fabric::new(2);
        f.send(1, Message { ctx: 0, src_comm_rank: 0, tag: 5, data: vec![], send_time: 0 });
        let slot = f.post_recv(1, 0, 0, 6, Some(0));
        assert!(!slot.is_ready());
        let slot2 = f.post_recv(1, 0, 0, 5, Some(0));
        assert!(slot2.is_ready());
    }

    #[test]
    fn non_overtaking_same_source() {
        let f = Fabric::new(2);
        for i in 0..3u8 {
            f.send(1, Message { ctx: 0, src_comm_rank: 0, tag: 1, data: vec![i], send_time: 0 });
        }
        for i in 0..3u8 {
            let m = f.post_recv(1, 0, 0, 1, Some(0)).try_take().unwrap();
            assert_eq!(m.data, vec![i], "messages must arrive in send order");
        }
    }

    #[test]
    fn posted_recvs_match_in_post_order() {
        let f = Fabric::new(2);
        let a = f.post_recv(1, 0, ANY_SOURCE, 1, None);
        let b = f.post_recv(1, 0, ANY_SOURCE, 1, None);
        f.send(1, Message { ctx: 0, src_comm_rank: 0, tag: 1, data: vec![1], send_time: 0 });
        assert!(a.is_ready());
        assert!(!b.is_ready());
    }

    #[test]
    fn probe_sees_without_consuming() {
        let f = Fabric::new(1);
        assert!(f.iprobe(0, 0, ANY_SOURCE, ANY_TAG).is_none());
        f.send(0, Message { ctx: 0, src_comm_rank: 0, tag: 9, data: vec![0; 16], send_time: 0 });
        let (src, tag, count) = f.iprobe(0, 0, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!((src, tag, count), (0, 9, 16));
        // Still receivable afterwards.
        assert!(f.post_recv(0, 0, 0, 9, Some(0)).is_ready());
    }

    #[test]
    fn coll_round_exchange() {
        let f = Fabric::new(3);
        let c = f.coll(WORLD_CONTEXT, Lane::App);
        c.deposit(0, 0, vec![0], 10);
        c.deposit(0, 2, vec![2], 30);
        assert!(!c.is_ready(0));
        c.deposit(0, 1, vec![1], 20);
        assert!(c.is_ready(0));
        let (res, time) = c.try_collect(0).unwrap();
        assert_eq!(*res, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(time, 30);
        // Two more readers drain the round.
        assert!(c.try_collect(0).is_some());
        assert!(c.try_collect(0).is_some());
        assert!(c.try_collect(0).is_none(), "round must be cleaned up");
    }

    #[test]
    fn coll_rounds_are_independent() {
        let f = Fabric::new(2);
        let c = f.coll(WORLD_CONTEXT, Lane::App);
        // Rank 0 races ahead into round 1 before rank 1 finishes round 0.
        c.deposit(0, 0, vec![], 0);
        c.deposit(1, 0, vec![], 0);
        assert!(!c.is_ready(0));
        assert!(!c.is_ready(1));
        c.deposit(0, 1, vec![], 0);
        assert!(c.is_ready(0));
        c.deposit(1, 1, vec![], 0);
        assert!(c.is_ready(1));
    }

    #[test]
    fn tool_channel_roundtrip_threads() {
        let f = Fabric::new(2);
        let f2 = f.clone();
        let t = thread::spawn(move || f2.tool_recv(1, 0, 77));
        f.tool_send(1, 0, 77, vec![5, 6, 7]);
        assert_eq!(t.join().unwrap(), vec![5, 6, 7]);
    }

    #[test]
    fn context_ids_are_unique() {
        let f = Fabric::new(1);
        let a = f.alloc_context();
        let b = f.alloc_context();
        assert_ne!(a, b);
        assert_ne!(a, WORLD_CONTEXT);
    }

    #[test]
    fn blocking_collect_across_threads() {
        let f = Fabric::new(2);
        let c = f.coll(WORLD_CONTEXT, Lane::App);
        let (f2, c2) = (f.clone(), c.clone());
        let t = thread::spawn(move || {
            c2.deposit(0, 1, vec![1], 4);
            c2.wait_collect(&f2, 0, 1)
        });
        c.deposit(0, 0, vec![0], 9);
        let (mine, time) = c.wait_collect(&f, 0, 0);
        let (theirs, _) = t.join().unwrap();
        assert_eq!(*mine, *theirs);
        assert_eq!(time, 9);
    }

    // ---------------- failure-aware paths ----------------

    fn peer_failure_of(r: std::thread::Result<()>) -> PeerFailure {
        let e = r.expect_err("should unwind");
        *e.downcast_ref::<PeerFailure>().expect("PeerFailure payload")
    }

    #[test]
    fn recv_from_dead_peer_unwinds() {
        fault::silence_fault_panics();
        let f = Fabric::new(2);
        f.mark_dead(0, 12);
        let slot = f.post_recv(1, 0, 0, 7, Some(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.wait_take(&f, 1);
        }));
        let pf = peer_failure_of(r.map(|_| ()));
        assert_eq!((pf.rank, pf.dead_rank), (1, 0));
    }

    #[test]
    fn message_sent_before_death_is_still_received() {
        let f = Fabric::new(2);
        f.send(1, Message { ctx: 0, src_comm_rank: 0, tag: 7, data: vec![3], send_time: 0 });
        f.mark_dead(0, 5);
        let slot = f.post_recv(1, 0, 0, 7, Some(0));
        assert_eq!(slot.wait_take(&f, 1).data, vec![3]);
    }

    #[test]
    fn collective_with_dead_member_unwinds() {
        fault::silence_fault_panics();
        let f = Fabric::new(3);
        let c = f.coll(WORLD_CONTEXT, Lane::App);
        c.deposit(0, 0, vec![0], 0);
        c.deposit(0, 1, vec![1], 0);
        f.mark_dead(2, 9);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.wait_collect(&f, 0, 0);
        }));
        let pf = peer_failure_of(r.map(|_| ()));
        assert_eq!((pf.rank, pf.dead_rank), (0, 2));
        assert_eq!(c.blocked_on_dead(&f, 0), Some(2));
    }

    #[test]
    fn tool_recv_timeout_expires_without_sender() {
        let f = Fabric::new(2);
        let (msg, retries) = f.tool_recv_timeout(1, 0, 9, Duration::from_millis(20));
        assert!(msg.is_none());
        assert!(retries > 0, "backoff should have retried at least once");
        // The posted recv was cancelled: a late message stays receivable.
        f.tool_send(1, 0, 9, vec![8]);
        let (late, _) = f.tool_recv_timeout(1, 0, 9, Duration::from_millis(20));
        assert_eq!(late, Some(vec![8]));
    }

    #[test]
    fn tool_recv_timeout_fast_fails_on_dead_sender() {
        let f = Fabric::new(2);
        f.mark_dead(0, 3);
        let start = Instant::now();
        let (msg, _) = f.tool_recv_timeout(1, 0, 9, Duration::from_secs(5));
        assert!(msg.is_none());
        assert!(start.elapsed() < Duration::from_secs(1), "dead sender must fail fast");
    }

    #[test]
    fn tool_drops_are_applied_and_counted() {
        let plan = FaultPlan::new(11).drop_messages(1.0);
        let f = Fabric::with_faults(2, Some(plan));
        f.tool_send(1, 0, 5, vec![1]);
        assert_eq!(f.dropped_tool_messages(), 1);
        let (msg, _) = f.tool_recv_timeout(1, 0, 5, Duration::from_millis(10));
        assert!(msg.is_none(), "dropped message must never arrive");
    }

    #[test]
    fn bailed_rank_unblocks_app_but_not_tool() {
        fault::silence_fault_panics();
        let f = Fabric::new(2);
        f.mark_bailed(0);
        assert!(f.is_app_unreachable(0) && !f.is_dead(0));
        let slot = f.post_recv(1, 0, 0, 7, Some(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.wait_take(&f, 1);
        }));
        let pf = peer_failure_of(r.map(|_| ()));
        assert_eq!((pf.rank, pf.dead_rank), (1, 0));
        // The tool channel still flows: bailed ranks merge their traces.
        f.tool_send(1, 0, 3, vec![1]);
        assert_eq!(f.tool_recv(1, 0, 3), vec![1]);
    }

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let m = Mutex::new(41);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = lock(&m);
            panic!("a rank panics while holding the lock");
        }));
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 42);
    }

    #[test]
    fn timed_wait_returns_holding_the_lock() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let held = timed_wait(&cv, lock(&m), Duration::from_millis(5));
        assert!(m.try_lock().is_err());
        drop(held);
        assert!(m.try_lock().is_ok());
    }

    #[test]
    fn checkpoints_roundtrip() {
        let f = Fabric::new(2);
        assert!(f.load_checkpoint(1).is_none());
        f.store_checkpoint(1, 40, vec![1, 2, 3]);
        f.store_checkpoint(1, 60, vec![4]);
        assert_eq!(f.load_checkpoint(1), Some((60, vec![4])));
        assert_eq!(f.dead_ranks(), vec![]);
        f.mark_dead(1, 61);
        assert!(f.is_dead(1) && f.has_failures());
        assert_eq!(f.dead_ranks(), vec![(1, 61)]);
    }
}
