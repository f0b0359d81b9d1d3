//! The shared server: what every node of one server shares, and the
//! blocking and pipelined drivers over the connection engine
//! ([`crate::engine`]).
//!
//! Copy-restore keeps local-call semantics for stateless servers, so a
//! server's connections share only two things, and a [`ServerNode`]
//! reaches both through its `Arc<`[`SharedServer`]`>`:
//!
//! * **Bindings** (name → service, class → service) are read-mostly:
//!   they live behind an [`RwLock`](crate::lockcheck::TrackedRwLock),
//!   read once per call to find the callee and released before it
//!   runs. Each service body itself is `&mut` — the paper's §4.1
//!   `synchronized`-equivalent dispatch — so it sits behind its *own*
//!   mutex ([`ServiceHandle`]), held only for the invocation. Calls to
//!   *different* services never contend.
//! * **The reply cache** (at-most-once) is one [`ShardedReplyCache`]:
//!   a reconnect retransmits a call id on a *new* connection, and a
//!   node moves between serving alone and serving in a pool, and either
//!   way the id must still find the recorded reply or the in-progress
//!   marker. N independently locked [`ReplyCache`] shards keyed by
//!   session nonce keep unrelated sessions from contending, and no
//!   shard lock is ever held across execution — the `begin`/`store`
//!   decide-mark-executing-store discipline.
//!
//! Everything else — heap, export/stub tables, codec scratch, warm
//! leases — is per node: each pooled connection and each worker gets
//! its own [`ServerNode`] from [`SharedServer::connection_node`], so
//! wire decode, call execution, and reply encode run with no lock other
//! than the callee's service mutex. Copy-restore is stateless across
//! calls (every call re-marshals its arguments), so confining call
//! copies to the connection that made them preserves semantics — and
//! disconnect reclaims them wholesale instead of accreting garbage in a
//! shared heap.
//!
//! What this does *not* provide: cross-call ordering between clients
//! (none was promised — a node behind one lock serializes calls in
//! arrival order, which no correct client could observe), and
//! cross-connection sharing of server heap state for named services (no
//! in-tree service relies on it; services share state through their own
//! captured fields, as `synchronized` Java methods share fields of the
//! remote object).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use nrmi_heap::{ClassId, HeapAccess, SharedRegistry, Value};
use nrmi_transport::{
    Frame, MachineSpec, SimEnv, Transport, TransportError, TransportReceiver, TransportSender,
};

use crate::engine::{run_offloaded, Connection, Step};
use crate::error::NrmiError;
use crate::lockcheck::{allow_blocking, LockClass, TrackedMutex, TrackedRwLock};
use crate::node::{NodeState, ServerNode};
use crate::profile::RuntimeProfile;
use crate::reliable::{
    ReplyCache, ReplyDecision, DEFAULT_REPLY_CACHE_BYTES, DEFAULT_REPLY_CACHE_NONCES,
};
use crate::service::RemoteService;
use crate::warm::LeaseTable;

/// A bound service, shared by every node of its server: the service
/// body runs under its own mutex, the `synchronized`-method analogue.
/// The mutex is held for the duration of one invocation (including any
/// mid-call callbacks to the *calling* client), so concurrent calls to
/// the same service serialize — and calls to different services do not.
#[derive(Clone)]
pub(crate) struct ServiceHandle(Arc<TrackedMutex<Box<dyn RemoteService>>>);

impl ServiceHandle {
    pub(crate) fn new(service: Box<dyn RemoteService>) -> Self {
        ServiceHandle(Arc::new(TrackedMutex::new(LockClass::Service, service)))
    }

    /// Invokes the service under its mutex.
    pub(crate) fn invoke(
        &self,
        method: &str,
        args: &[Value],
        heap: &mut dyn HeapAccess,
    ) -> Result<Value, NrmiError> {
        // Designed-in hold (DESIGN.md §3i): the service mutex stays
        // held across mid-call callbacks to the calling client — that
        // *is* the §4.1 synchronized-dispatch semantics — so the
        // witness records transport waits under it as accepted, not as
        // NRMI-L002 violations.
        let _allow =
            allow_blocking("service mutex held across mid-call callbacks by design (\u{a7}4.1)");
        self.0.lock().invoke(method, args, heap)
    }
}

/// Number of reply-cache shards. A power of two so the nonce hash
/// reduces with a mask; 16 is comfortably above the worker counts this
/// server runs with.
const REPLY_SHARDS: usize = 16;

/// The at-most-once reply cache, split into independently locked shards
/// keyed by session nonce. All traffic for one client session (one
/// nonce) lands on one shard, so the per-session decide/execute/store
/// discipline of [`ReplyCache`] is preserved verbatim; different
/// sessions usually hash to different shards and never contend.
///
/// No shard lock is ever held across call execution: `begin` classifies
/// and (when fresh) marks the id executing in one locked step, the call
/// runs lock-free, and `store` records the reply in a second locked
/// step. A duplicate racing in on another connection between the two
/// observes [`ReplyDecision::InProgress`] — exactly the PR 4 warm-path
/// discipline, now uniform for cold calls too.
#[derive(Debug)]
pub struct ShardedReplyCache {
    shards: Vec<TrackedMutex<ReplyCache>>,
    /// Cached replies across all shards, maintained on store/evict so
    /// [`len`](ShardedReplyCache::len) is one relaxed load instead of a
    /// sweep that takes all shard locks (which briefly serialized every
    /// connection behind a caller polling the size).
    entries: AtomicUsize,
}

impl Default for ShardedReplyCache {
    fn default() -> Self {
        ShardedReplyCache::with_limits(DEFAULT_REPLY_CACHE_BYTES, DEFAULT_REPLY_CACHE_NONCES)
    }
}

impl ShardedReplyCache {
    /// Creates a cache whose *total* budget across shards is `max_bytes`
    /// of encoded replies and `max_nonces` tracked sessions.
    pub fn with_limits(max_bytes: usize, max_nonces: usize) -> Self {
        let per_shard_bytes = (max_bytes / REPLY_SHARDS).max(1);
        let per_shard_nonces = (max_nonces / REPLY_SHARDS).max(1);
        ShardedReplyCache {
            shards: (0..REPLY_SHARDS)
                .map(|_| {
                    TrackedMutex::new(
                        LockClass::ReplyCacheShard,
                        ReplyCache::with_limits(per_shard_bytes, per_shard_nonces),
                    )
                })
                .collect(),
            entries: AtomicUsize::new(0),
        }
    }

    fn shard(&self, nonce: u64) -> &TrackedMutex<ReplyCache> {
        // Fibonacci hash: session nonces are random 64-bit values, but
        // don't rely on their low bits alone.
        let ix = (nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (REPLY_SHARDS - 1);
        &self.shards[ix]
    }

    /// Classifies call id `(nonce, seq)` and, when fresh, marks it
    /// executing — one locked step on the nonce's shard.
    pub fn begin(&self, nonce: u64, seq: u64) -> ReplyDecision {
        self.shard(nonce).lock().begin(nonce, seq)
    }

    /// Records the reply for an executed call and clears its executing
    /// marker.
    pub fn store(&self, nonce: u64, seq: u64, reply: &Frame) {
        // One store can both insert and evict (byte cap, nonce cap), so
        // the global count moves by the shard's net length change,
        // measured under the shard lock where it is exact.
        let (before, after) = {
            let mut shard = self.shard(nonce).lock();
            let before = shard.len();
            shard.store(nonce, seq, reply);
            (before, shard.len())
        };
        if after >= before {
            self.entries.fetch_add(after - before, Ordering::Relaxed);
        } else {
            self.entries.fetch_sub(before - after, Ordering::Relaxed);
        }
    }

    /// Cached replies currently held, summed across shards — a relaxed
    /// atomic read. Concurrent stores make the value a snapshot, not a
    /// linearized sum, which is all a size probe can promise anyway.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// True when no shard holds a cached reply.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Name and class bindings, read-mostly behind one
/// [`TrackedRwLock`] (class `bindings`): each call reads it to find its
/// callee, [`ServerNode::bind`] writes it.
pub(crate) struct Bindings {
    pub(crate) services: HashMap<String, ServiceHandle>,
    pub(crate) class_services: HashMap<ClassId, ServiceHandle>,
}

/// What every node of one server shares, and nothing it doesn't: the
/// configuration new nodes are built with, the bindings, and the
/// at-most-once reply cache. Every [`ServerNode`] holds it through an
/// [`Arc`]; [`SharedServer::connection_node`] builds another node
/// around it.
pub struct SharedServer {
    registry: SharedRegistry,
    machine: MachineSpec,
    profile: RuntimeProfile,
    env: Option<SimEnv>,
    pub(crate) bindings: TrackedRwLock<Bindings>,
    /// The at-most-once reply cache (see [`ShardedReplyCache`]).
    pub replies: ShardedReplyCache,
}

impl std::fmt::Debug for SharedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedServer")
            .field("services", &self.bindings.read().services.keys())
            .field("replies", &self.replies.len())
            .finish()
    }
}

impl SharedServer {
    /// A server with no bindings and an empty reply cache, whose nodes
    /// model `machine` under `profile`, accounting simulated cost to
    /// `env`.
    pub(crate) fn new(
        registry: SharedRegistry,
        machine: MachineSpec,
        profile: RuntimeProfile,
        env: Option<SimEnv>,
    ) -> Self {
        SharedServer {
            registry,
            machine,
            profile,
            env,
            bindings: TrackedRwLock::new(
                LockClass::Bindings,
                Bindings {
                    services: HashMap::new(),
                    class_services: HashMap::new(),
                },
            ),
            replies: ShardedReplyCache::default(),
        }
    }

    /// True if `name` is currently bound.
    pub fn is_bound(&self, name: &str) -> bool {
        self.bindings.read().services.contains_key(name)
    }

    /// The service bound under `name`. The table lock is released
    /// before the caller invokes it: an invocation can make mid-call
    /// callbacks.
    pub(crate) fn service(&self, name: &str) -> Option<ServiceHandle> {
        self.bindings.read().services.get(name).cloned()
    }

    /// The behavior bound to remote-marked `class`.
    pub(crate) fn class_service(&self, class: ClassId) -> Option<ServiceHandle> {
        self.bindings.read().class_services.get(&class).cloned()
    }

    /// Builds another node of this server — a connection's or a
    /// worker's: a fresh [`NodeState`] (own heap, export/stub tables,
    /// codec scratch, warm leases — no lock needed on any of them)
    /// around a clone of this `Arc`.
    pub fn connection_node(self: &Arc<Self>) -> ServerNode {
        let mut state = NodeState::new(self.registry.clone(), self.machine.clone());
        state.profile = self.profile;
        state.env = self.env.clone();
        ServerNode {
            state,
            leases: LeaseTable::default(),
            shared: Arc::clone(self),
        }
    }

    /// True when cold calls may execute on pooled worker threads with
    /// their own per-worker node state. This requires a registry with no
    /// remote-marked classes: a reply containing a remote-marked object
    /// registers an export in whatever node marshals it, and an export
    /// created in a worker's private table would be unreachable from
    /// later calls on the connection's main node (the factory pattern
    /// would hand out dead stubs). Such schemas still pipeline — read-
    /// ahead and out-of-order writes apply — but execute on one thread.
    pub(crate) fn offloadable(&self) -> bool {
        !self.registry.iter().any(|(_, desc)| desc.flags().remote)
    }
}

/// Serves one connection on a fresh node of `shared` until the peer
/// disconnects or sends `Shutdown`. The connection's heap, warm caches,
/// and codec scratch are private, so a stalled client — even one
/// blocked mid-call inside a callback — holds nothing another
/// connection waits on except the mutex of the service it is executing
/// in.
///
/// When the transport [splits](Transport::split) into sender and
/// receiver halves, the connection is served **pipelined**: a reader
/// keeps draining tagged requests while calls execute, a writer thread
/// puts each reply on the wire the moment it is ready (out of order, by
/// call id), and — for schemas with no remote-marked classes — a small
/// worker pool executes tagged cold calls concurrently. A client that
/// keeps N calls in flight then pays one round-trip for the batch, not
/// N. Transports that cannot split are served by the blocking driver.
///
/// # Errors
/// Returns transport errors other than orderly disconnect.
pub fn serve_connection_pooled(
    shared: &Arc<SharedServer>,
    transport: &mut dyn Transport,
) -> Result<(), NrmiError> {
    serve_pooled(shared, transport, None)
}

/// [`serve_connection_pooled`] with `first` — a frame already read off
/// the transport — processed first. The reactor escalates a connection
/// through here, handing over the frame that triggered the escalation;
/// the frames after it are still on the transport, and are read here in
/// order. The connection node is created here, lazily: reactor-owned
/// connections carry no node state until they need it.
pub(crate) fn serve_pooled(
    shared: &Arc<SharedServer>,
    transport: &mut dyn Transport,
    first: Option<Frame>,
) -> Result<(), NrmiError> {
    let mut node = shared.connection_node();
    let (mut conn, halves) = match transport.split() {
        Some(halves) => (Connection::with_workers(Arc::clone(shared)), Some(halves)),
        None => (Connection::new(Arc::clone(shared)), None),
    };
    let result = match halves {
        Some((sender, receiver)) => serve_pipelined(&mut node, &mut conn, sender, receiver, first),
        None => serve_blocking(&mut node, &mut conn, transport, first),
    };
    // Disconnect releases the connection's warm sessions; the rest of
    // the private heap (cold-call copies included) goes with the node
    // itself, so a long-lived server does not accumulate call copies
    // across clients.
    conn.close(&mut node);
    result
}

/// The blocking driver: reads one frame at a time (`first` first), runs
/// it through the engine against `node` on this thread, and writes what
/// the step produced before reading again.
pub(crate) fn serve_blocking(
    node: &mut ServerNode,
    conn: &mut Connection,
    transport: &mut dyn Transport,
    mut first: Option<Frame>,
) -> Result<(), NrmiError> {
    let mut out = Vec::new();
    loop {
        let frame = match first.take() {
            Some(frame) => frame,
            None => match transport.recv() {
                Ok(frame) => frame,
                Err(TransportError::Disconnected) => return Ok(()),
                Err(e) => return Err(e.into()),
            },
        };
        let step = conn.on_frame(Some(&mut *node), transport, frame, &mut out)?;
        for frame in out.drain(..) {
            transport.send(&frame)?;
        }
        match step {
            Step::Continue => {}
            Step::Close => return Ok(()),
            // The step has a node and the connection no workers.
            Step::Offload { .. } | Step::Escalate(_) => {
                unreachable!("a blocking connection executes every frame itself")
            }
        }
    }
}

/// Workers executing tagged cold calls concurrently for one pipelined
/// connection. Small on purpose: the win is overlapping execution with
/// the network, not saturating cores per client.
const PIPELINE_WORKERS: usize = 4;

/// Replies (and callback frames) queued for the writer thread before
/// producers block. A client that stops reading fills the socket
/// buffer, then the writer blocks in `send`, then this queue fills,
/// then the reader and workers block — so a slow reader backpressures
/// its own request stream instead of growing server memory without
/// bound (each queued frame can be a full reply graph).
const PIPELINE_REPLY_QUEUE: usize = 64;

/// Tagged calls queued for pipeline workers before the reader blocks.
/// Bounds read-ahead: the reader stops pulling requests off the socket
/// once the workers are this far behind.
const PIPELINE_JOB_QUEUE: usize = 64;

/// A tagged request queued for a pipeline worker.
type PipelineJob = (u64, u64, Frame);

/// Callback I/O bridge for calls the pipelined reader executes itself:
/// sends go through the writer thread (keeping the sender half
/// single-owner), receives pull from the connection's receiver half, and
/// any frame that is not a callback reply is stashed for the reader to
/// process once the call finishes — pipelined requests keep arriving
/// mid-call without getting lost or misread as callback answers.
struct ConnIo<'a> {
    writer_tx: &'a mpsc::SyncSender<Frame>,
    receiver: &'a mut dyn TransportReceiver,
    stash: &'a mut VecDeque<Frame>,
}

/// Frames a client's callback server sends back to a mid-call proxy
/// (see [`crate::proxy::handle_callback`]). Everything else arriving
/// during a call is read-ahead traffic for the reader.
fn is_callback_reply(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::ValueReply(_)
            | Frame::Ack
            | Frame::CountReply(_)
            | Frame::ClassReply(_)
            | Frame::ErrorReply { .. }
    )
}

impl Transport for ConnIo<'_> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.writer_tx
            .send(frame.clone())
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        loop {
            let frame = self.receiver.recv()?;
            if is_callback_reply(&frame) {
                return Ok(frame);
            }
            self.stash.push_back(frame);
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, TransportError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            let frame = self.receiver.recv_timeout(deadline - now)?;
            if is_callback_reply(&frame) {
                return Ok(frame);
            }
            self.stash.push_back(frame);
        }
    }
}

/// The pipelined driver (see [`serve_connection_pooled`]): reader on
/// this thread, replies through a dedicated writer thread, offloaded
/// calls on [`PIPELINE_WORKERS`] workers when the connection offloads.
fn serve_pipelined(
    node: &mut ServerNode,
    conn: &mut Connection,
    mut sender: Box<dyn TransportSender>,
    mut receiver: Box<dyn TransportReceiver>,
    first: Option<Frame>,
) -> Result<(), NrmiError> {
    let shared = Arc::clone(node.shared());
    // Both queues are bounded: a send on a full queue blocks the
    // producer, propagating a stalled client back to the reader instead
    // of buffering replies without limit (see PIPELINE_REPLY_QUEUE).
    let (writer_tx, writer_rx) = mpsc::sync_channel::<Frame>(PIPELINE_REPLY_QUEUE);
    let writer_err: TrackedMutex<Option<TransportError>> =
        TrackedMutex::new(LockClass::SendQueue, None);
    let workers = if conn.offloads() { PIPELINE_WORKERS } else { 0 };
    let (job_tx, job_rx) = mpsc::sync_channel::<PipelineJob>(PIPELINE_JOB_QUEUE);
    let job_rx = TrackedMutex::new(LockClass::ReactorQueue, job_rx);
    let result = std::thread::scope(|scope| {
        let writer_err = &writer_err;
        scope.spawn(move || {
            // The writer: sole owner of the send half. It blocks for
            // the first reply, then greedily drains whatever else has
            // queued behind it and flushes the whole train with one
            // send_batch — one vectored write instead of a syscall per
            // reply. Flushing on queue-drain (rather than per-reply)
            // batches exactly when the connection is busy and adds no
            // latency when it is not: an empty queue means the one
            // reply goes out immediately.
            let mut train: Vec<Frame> = Vec::with_capacity(PIPELINE_REPLY_QUEUE);
            while let Ok(frame) = writer_rx.recv() {
                train.clear();
                train.push(frame);
                while train.len() < PIPELINE_REPLY_QUEUE {
                    match writer_rx.try_recv() {
                        Ok(next) => train.push(next),
                        Err(_) => break,
                    }
                }
                let refs: Vec<&Frame> = train.iter().collect();
                if let Err(e) = sender.send_batch(&refs) {
                    *writer_err.lock() = Some(e);
                    // Drain without sending: producers must not block
                    // on a dead connection.
                    while writer_rx.recv().is_ok() {}
                    return;
                }
            }
        });
        for _ in 0..workers {
            let worker_writer = writer_tx.clone();
            let job_rx = &job_rx;
            let shared = &shared;
            scope.spawn(move || {
                // Per-worker private node state, the same isolation a
                // connection gets — workers of one connection contend
                // only on service mutexes and reply-cache shards.
                let mut node = shared.connection_node();
                loop {
                    let job = job_rx.lock().recv();
                    let Ok((nonce, seq, call)) = job else {
                        break;
                    };
                    let _ = worker_writer.send(run_offloaded(&mut node, nonce, seq, call));
                }
            });
        }
        let result = pipelined_recv_loop(
            node,
            conn,
            receiver.as_mut(),
            &writer_tx,
            &job_tx,
            first.into_iter().collect(),
        );
        // Reader done: closing the job queue drains the workers (they
        // finish queued calls and push the replies), and closing our
        // writer handle lets the writer exit once the last worker drops
        // its clone. The scope joins everything.
        drop(job_tx);
        drop(writer_tx);
        result
    });
    match result {
        // An error on the writer's half is the connection going down
        // mid-reply; a plain disconnect there is as orderly as one on
        // the read side.
        Ok(()) => match writer_err.into_inner() {
            Some(TransportError::Disconnected) | None => Ok(()),
            Some(e) => Err(e.into()),
        },
        err => err,
    }
}

/// Reader side of the pipelined driver: each frame goes through the
/// engine, with the step's frames leaving through the writer and
/// offloaded calls through the job queue. Calls the engine executes
/// here run exclusively, in arrival order.
fn pipelined_recv_loop(
    node: &mut ServerNode,
    conn: &mut Connection,
    receiver: &mut dyn TransportReceiver,
    writer_tx: &mpsc::SyncSender<Frame>,
    job_tx: &mpsc::SyncSender<PipelineJob>,
    // Frames read while a call was waiting on its callback replies (and
    // the trigger handed over at escalation); processed before reading
    // the socket again.
    mut stash: VecDeque<Frame>,
) -> Result<(), NrmiError> {
    let mut out = Vec::new();
    loop {
        let frame = match stash.pop_front() {
            Some(frame) => frame,
            None => match receiver.recv() {
                Ok(frame) => frame,
                Err(TransportError::Disconnected) => return Ok(()),
                Err(e) => return Err(e.into()),
            },
        };
        let mut io = ConnIo {
            writer_tx,
            receiver: &mut *receiver,
            stash: &mut stash,
        };
        let step = conn.on_frame(Some(&mut *node), &mut io, frame, &mut out)?;
        for frame in out.drain(..) {
            // A send into the writer channel only fails after the writer
            // hit a connection error; `writer_err` carries the cause, so
            // stop cleanly.
            if writer_tx.send(frame).is_err() {
                return Ok(());
            }
        }
        match step {
            Step::Continue => {}
            Step::Close => return Ok(()),
            // Cannot fail while this loop holds `job_tx`.
            Step::Offload { nonce, seq, call } => {
                let _ = job_tx.send((nonce, seq, call));
            }
            Step::Escalate(_) => unreachable!("the pipelined reader owns a node"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(tag: u8) -> Frame {
        Frame::CallReply {
            payload: vec![tag; 16],
        }
    }

    #[test]
    fn sharded_len_counts_without_locking_shards() {
        let cache = ShardedReplyCache::with_limits(64 << 20, 1 << 16);
        assert!(cache.is_empty());
        cache.store(1, 0, &reply(1));
        cache.store(1, 1, &reply(2));
        cache.store(2, 0, &reply(3));
        assert_eq!(cache.len(), 3);
        // Idempotent re-store does not double count.
        cache.store(1, 0, &reply(1));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn sharded_len_tracks_evictions() {
        // Total budget 16 shards × 1 byte: every store immediately
        // evicts down to one entry per shard, so the counter must move
        // by net change, not by insertions.
        let cache = ShardedReplyCache::with_limits(16, 16);
        for nonce in 0..64u64 {
            cache.store(nonce, 0, &reply(nonce as u8));
        }
        let counted = cache.len();
        let actual: usize = cache.shards.iter().map(|s| s.lock().len()).sum();
        assert_eq!(counted, actual, "atomic count must match shard contents");
        assert!(counted <= 16, "byte caps keep at most one entry per shard");
    }

    #[test]
    fn sharded_len_is_consistent_under_concurrent_stores() {
        let cache = ShardedReplyCache::with_limits(64 << 20, 1 << 16);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        // Distinct (nonce, seq) per store across threads.
                        cache.store(t * 1000 + i, i, &reply(t as u8));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 800);
        let actual: usize = cache.shards.iter().map(|s| s.lock().len()).sum();
        assert_eq!(cache.len(), actual);
        assert!(!cache.is_empty());
    }

    /// A client that floods calls but never reads replies must not grow
    /// server memory without bound: the bounded reply and job queues
    /// propagate the stall back to the reader, which stops consuming
    /// frames once `PIPELINE_JOB_QUEUE + PIPELINE_REPLY_QUEUE` plus the
    /// threads' in-hand frames (including the writer's drained train,
    /// at most `PIPELINE_REPLY_QUEUE` more) are outstanding.
    #[test]
    fn slow_reader_bounds_pipelined_consumption() {
        use std::sync::atomic::AtomicBool;

        /// Write half modeling a client that never drains replies: the
        /// first send parks on a gate; once the gate opens, every send
        /// reports the connection gone so the loop unwinds.
        struct StalledSender {
            gate: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
        }
        impl TransportSender for StalledSender {
            fn send(&mut self, _frame: &Frame) -> Result<(), TransportError> {
                let (lock, cvar) = &*self.gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
                Err(TransportError::Disconnected)
            }
        }

        /// Read half with an infinite supply of fresh tagged calls,
        /// counting how many the server actually consumed.
        struct FloodReceiver {
            stop: Arc<AtomicBool>,
            consumed: Arc<AtomicUsize>,
            seq: u64,
        }
        impl TransportReceiver for FloodReceiver {
            fn recv(&mut self) -> Result<Frame, TransportError> {
                if self.stop.load(Ordering::SeqCst) {
                    return Err(TransportError::Disconnected);
                }
                self.seq += 1;
                self.consumed.fetch_add(1, Ordering::SeqCst);
                Ok(Frame::Tagged {
                    nonce: 7,
                    seq: self.seq,
                    // An unknown service still runs the full
                    // begin/execute/store/reply path (as an error
                    // reply), which is all backpressure sees.
                    frame: Box::new(Frame::CallRequest {
                        service: "no-such-service".into(),
                        method: "m".into(),
                        mode: 0,
                        payload: Vec::new(),
                    }),
                })
            }
            fn recv_timeout(&mut self, _timeout: Duration) -> Result<Frame, TransportError> {
                self.recv()
            }
        }

        let registry = nrmi_heap::ClassRegistry::new().snapshot();
        let shared = Arc::clone(ServerNode::new(registry, MachineSpec::fast()).shared());
        let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let consumed = Arc::new(AtomicUsize::new(0));

        let server_thread = {
            let shared = Arc::clone(&shared);
            let sender = Box::new(StalledSender {
                gate: Arc::clone(&gate),
            });
            let receiver = Box::new(FloodReceiver {
                stop: Arc::clone(&stop),
                consumed: Arc::clone(&consumed),
                seq: 0,
            });
            std::thread::spawn(move || {
                let mut node = shared.connection_node();
                let mut conn = Connection::with_workers(Arc::clone(&shared));
                serve_pipelined(&mut node, &mut conn, sender, receiver, None)
            })
        };

        // Let the flood run to its stall. Consumption must plateau: two
        // samples far apart agree, and the total stays within the sum
        // of the queue bounds plus one frame in each thread's hands —
        // plus one full train (up to PIPELINE_REPLY_QUEUE frames) the
        // writer greedily drained before blocking in send_batch.
        let budget = PIPELINE_JOB_QUEUE + 2 * PIPELINE_REPLY_QUEUE + PIPELINE_WORKERS + 8;
        std::thread::sleep(Duration::from_millis(300));
        let sample1 = consumed.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(300));
        let sample2 = consumed.load(Ordering::SeqCst);
        assert!(
            sample2 <= budget,
            "slow reader let the server consume {sample2} frames (budget {budget})"
        );
        assert_eq!(
            sample1, sample2,
            "consumption must plateau once the bounded queues fill"
        );

        // Unwind: stop the flood, then open the gate — the writer sees
        // Disconnected, drains the reply queue, and everyone exits.
        stop.store(true, Ordering::SeqCst);
        {
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        server_thread
            .join()
            .expect("serve thread")
            .expect("clean disconnect");
    }
}
