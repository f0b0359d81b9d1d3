//! Protocol model checker for the warm-call handshake (`NRMI-P00x`).
//!
//! The cold/warm/delta handshake is encoded as an explicit transition
//! system over [`Frame`] message types, and [`model_check`] exhaustively
//! enumerates every bounded sequence of protocol actions against the
//! **real** implementation: the real client API on one side, the
//! server's connection engine ([`Connection::on_frame`], the step every
//! serve loop drives) on the other, joined in process by the engine's
//! synchronous driver ([`Loopback`]) instead of threads and sockets.
//! Each sequence runs a fresh world from scratch, so every prefix of
//! every enumerated sequence is exercised.
//!
//! ## One harness, seven alphabets
//!
//! Each world is a [`Model`]: its alphabet, its CI depth, and what each
//! action does and checks. Everything else is shared:
//! [`check_sequence`] runs one sequence against a fresh world (panic
//! capture, trace, the step a finding appeared at); [`model_check`]
//! walks one table of models; every world builds its client endpoints —
//! a real client and its **local oracle twin** — and its server from one
//! fixture, and judges each completed call the same way.
//!
//! | model | alphabet (depth) | what it adds |
//! |-------|------------------|--------------|
//! | [`CoreModel`] | call, mutate, graft, prune, server write, evict (6) | the honest warm protocol, coherence repair, generation lockstep |
//! | [`AdversarialModel`] | core + stale generation, unknown cache, garbage payload (4) | hand-built hostile frames: the server must answer `CacheMiss` or `CallError` |
//! | [`ReliabilityModel`] | call, mutate, drop request/reply, duplicate, disconnect (4) | the retry client over a lossy link: exactly-once |
//! | [`SharedModel`] | call, mutate, evict × two connections (5) | one shared server, one node per connection: no torn heap |
//! | [`SharedGraphModel`] | call, mutate, evict × two, drop A (4) | two leased warm sessions on ONE heap: coherence and lease safety |
//! | [`PipelinedModel`] | issue, collect × two slots, swap, drop (4) | two calls in flight on one connection: reply routing |
//! | [`ReactorModel`] | issue × two, run job, retransmit, collect × two (4) | the reactor's offload step over two connections and two workers |
//!
//! ## Invariants, checked after every action
//!
//! * `P001` / `P002` — client / server heap fails
//!   [`nrmi_heap::validate`] (the shared corruption oracle).
//! * `P003` — warm result diverges from the **local oracle twin**: a
//!   plain local heap holding the same graph, mutated by the same
//!   deterministic service logic with no middleware in between. After
//!   every `Call`, the warm return value must equal the twin's and the
//!   two graphs must be [`nrmi_heap::graph::isomorphic`]. Because the
//!   twin is exactly what a cold copy-restore call computes, warm ≡ twin
//!   subsumes warm ≡ cold.
//! * `P004` — an unexpected frame or transport outcome: a reply the
//!   state machine forbids ([`judge_reply`]), a call that failed where
//!   its oracle succeeded, or a deadlock (a reply the server never
//!   produced: the loopback's queue is empty when the client reads).
//! * `P005` — generation lockstep broken: the client's next-generation
//!   counter disagrees with the server's for a live session.
//! * `P006` — a panic anywhere in the sequence (caught per sequence;
//!   the diagnostic carries the action trace and panic message).
//! * `P007` — at-most-once broken: the number of service executions
//!   disagrees with the number of completed calls, under faults (the
//!   reliability model), across two connections sharing one reply
//!   cache (the shared model), or across pipelined and offloaded calls.
//! * `P008` — a reply observed a torn heap state: after any
//!   two-connection interleaving on one shared server, some
//!   client graph no longer matches its private oracle twin — another
//!   connection's call leaked into this one's restore.
//! * `P009` — reply routing broken: with several calls in flight on one
//!   multiplexed connection (the pipelined model), a reply resolved the
//!   wrong call — a collected value diverged from that call's private
//!   oracle, a consumed call id produced a ghost reply, or a call frame
//!   escaped the connection untagged.
//! * `P010` — the reactor dispatch discipline broken: enumerating the
//!   real engine step as the reactor runs it (no connection node, a
//!   worker pool behind [`nrmi_core::run_offloaded`]) over two
//!   connections and an explicit job queue (the reactor model), a fresh
//!   pipelineable call failed to offload, a retransmitted call id
//!   offloaded a second execution, a reply reached the wrong
//!   connection, or a worker dispatch restored a graph its private
//!   oracle disowns (a torn heap) — each checked against
//!   per-connection oracle twins exactly as `P008`/`P009` are.
//! * `P011` — shared-graph coherence or lease safety broken: with two
//!   warm clients leased onto ONE server heap (the shared-graph model),
//!   each call writing the other's graph out-of-band, a client read
//!   stale state, a `CacheStale` repair clobbered an unshipped local
//!   write (the positional merge rule), or a connection teardown freed
//!   an object another connection's live session still synchronizes.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nrmi_core::{
    client_apply_reply, client_evict_warm, client_invoke_warm_with_stats, client_marshal_call,
    run_offloaded, CallOptions, ClientNode, Connection, FnService, Loopback, NrmiError, PassMode,
    PendingCall, ReliableTransport, RetryPolicy, ServerNode, SharedServer, Step,
};
use nrmi_heap::validate::validate;
use nrmi_heap::{graph, ClassRegistry, Heap, HeapAccess, ObjId, SharedRegistry, Value};
use nrmi_transport::{Frame, MachineSpec, Transport, TransportError};

use crate::diag::{Diagnostic, Report};

/// What the state machine expects back for a frame it just sent; the
/// context [`judge_reply`] judges a reply frame against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyContext {
    /// A generation-0 seed carrying a full graph.
    SeedCall,
    /// An in-step warm request (delta); a miss is legal (the entry was
    /// lost) and so is a stale patch (out-of-band writes repaired in
    /// place), an error is not.
    WarmInStep,
    /// A warm request with a generation the server cannot be at.
    StaleGeneration,
    /// A warm request naming a cache id that was never seeded.
    UnknownCache,
    /// A warm request whose payload is not a well-formed delta.
    GarbagePayload,
}

/// Judges one reply frame against the protocol state machine. Returns
/// `None` when the reply is a legal transition, or the `NRMI-P004`
/// diagnostic describing the violation. Pure — usable both by the
/// enumerator and by seeded-fault tests.
pub fn judge_reply(ctx: ReplyContext, reply: &Frame) -> Option<Diagnostic> {
    let legal = match ctx {
        // A seed must complete or fail; the server has nothing to miss on.
        ReplyContext::SeedCall => {
            matches!(reply, Frame::CallReply { .. } | Frame::CallError { .. })
        }
        // In-step warm: reply; miss if the entry was lost; or a
        // targeted repair patch if it went stale out-of-band.
        ReplyContext::WarmInStep => matches!(
            reply,
            Frame::CallReply { .. }
                | Frame::CacheMiss
                | Frame::CacheStale { .. }
                | Frame::CallError { .. }
        ),
        // Serving a stale or unknown session would be state corruption;
        // the only sound answer is a miss.
        ReplyContext::StaleGeneration | ReplyContext::UnknownCache => {
            matches!(reply, Frame::CacheMiss)
        }
        // Garbage must surface as a typed error (or a miss if the
        // session was already gone) — never a successful reply.
        ReplyContext::GarbagePayload => {
            matches!(reply, Frame::CallError { .. } | Frame::CacheMiss)
        }
    };
    if legal {
        None
    } else {
        Some(
            Diagnostic::error(
                "NRMI-P004",
                format!("illegal protocol transition: {ctx:?} answered with {reply:?}"),
            )
            .with("context", format!("{ctx:?}"))
            .with("reply", format!("{reply:?}")),
        )
    }
}

// ---------------------------------------------------------------------------
// The harness: one model trait, one sequence runner, one fixture
// ---------------------------------------------------------------------------

/// One checked world: its alphabet, how deep CI enumerates it, and what
/// each action does and checks. A fresh world per sequence, panic
/// capture, traces and the enumeration itself belong to the harness.
pub trait Model {
    /// One action of the alphabet.
    type Action: Copy + fmt::Debug + 'static;
    /// The name the coverage note reports this model's depth under.
    const NAME: &'static str;
    /// Every action the enumeration draws from.
    const ALPHABET: &'static [Self::Action];
    /// Exhaustive depth of the full (CI) enumeration.
    const DEPTH: usize;
    /// A fresh world.
    fn new() -> Self;
    /// Applies one action, then checks the world's invariants, reporting
    /// violations into `report`.
    fn step(&mut self, action: Self::Action, report: &mut Report);
}

/// Runs one action sequence against a fresh `M` world and returns every
/// violation, each tagged with the action trace and the step it
/// appeared at. A panic anywhere in the sequence becomes `NRMI-P006`
/// with the trace.
pub fn check_sequence<M: Model>(actions: &[M::Action]) -> Report {
    let trace = actions
        .iter()
        .map(|a| format!("{a:?}"))
        .collect::<Vec<_>>()
        .join(" → ");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut world = M::new();
        let mut report = Report::new();
        for (i, &action) in actions.iter().enumerate() {
            world.step(action, &mut report);
            if report.has_errors() {
                return report
                    .diagnostics()
                    .iter()
                    .cloned()
                    .map(|d| d.with("trace", &trace).with("failed_at_step", i))
                    .collect();
            }
        }
        report
    }));
    outcome.unwrap_or_else(|payload| {
        let mut report = Report::new();
        report.push(
            Diagnostic::error(
                "NRMI-P006",
                format!("sequence panicked: {}", panic_message(&*payload)),
            )
            .with("trace", &trace),
        );
        report
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

const SVC: &str = "svc";
const METHOD: &str = "run";
/// Endpoint names of the two-party models.
const NAMES: [&str; 2] = ["A", "B"];

/// The deterministic service body, shared verbatim between the remote
/// service and the local oracle twin: DFS from the root, rewrite each
/// `data` to `3*data + 1`, return the sum of the *old* values.
fn service_logic(heap: &mut dyn HeapAccess, root: ObjId) -> Result<Value, NrmiError> {
    let mut stack = vec![root];
    let mut sum: i64 = 0;
    while let Some(id) = stack.pop() {
        let d = int_data(heap, id)?;
        sum += i64::from(d);
        heap.set_field(id, "data", Value::Int(d.wrapping_mul(3).wrapping_add(1)))?;
        if let Some(l) = heap.get_ref(id, "left")? {
            stack.push(l);
        }
        if let Some(r) = heap.get_ref(id, "right")? {
            stack.push(r);
        }
    }
    Ok(Value::Long(sum))
}

fn int_data(heap: &mut dyn HeapAccess, id: ObjId) -> Result<i32, NrmiError> {
    heap.get_field(id, "data")?
        .as_int()
        .ok_or_else(|| NrmiError::app("data is not an int"))
}

fn root_arg(args: &[Value]) -> Result<ObjId, NrmiError> {
    args[0]
        .as_ref_id()
        .ok_or_else(|| NrmiError::app("want a root reference"))
}

/// What every model is built from: the `Node` class registry, the
/// service's execution counter, and the server-side root the service
/// last ran on (leaked so a model can write it out-of-band).
struct Fixture {
    registry: SharedRegistry,
    executions: Arc<AtomicUsize>,
    last_root: Arc<Mutex<Option<ObjId>>>,
}

impl Fixture {
    fn new() -> Self {
        let mut reg = ClassRegistry::new();
        reg.define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        Fixture {
            registry: reg.snapshot(),
            executions: Arc::new(AtomicUsize::new(0)),
            last_root: Arc::new(Mutex::new(None)),
        }
    }

    /// A server node with [`SVC`] bound to the counted service.
    fn server(&self) -> ServerNode {
        let mut server = ServerNode::new(self.registry.clone(), MachineSpec::fast());
        let executions = Arc::clone(&self.executions);
        let last_root = Arc::clone(&self.last_root);
        server.bind(
            SVC,
            Box::new(FnService::new(move |_method, args, heap| {
                let root = root_arg(args)?;
                executions.fetch_add(1, Ordering::SeqCst);
                *last_root.lock().expect("poisoned") = Some(root);
                service_logic(heap, root)
            })),
        );
        server
    }

    /// A fresh client and oracle twin, each holding the tree
    /// `root(root_data, left(2), right(3))`.
    fn endpoint(&self, root_data: i32) -> Endpoint {
        let mut client = ClientNode::new(self.registry.clone(), MachineSpec::fast());
        let mut twin = Heap::new(self.registry.clone());
        let tree = Tree {
            root: build_tree(&mut client.state.heap, root_data),
            twin_root: build_tree(&mut twin, root_data),
        };
        Endpoint { client, twin, tree }
    }

    /// `link` behind the real retry client, in instant virtual time:
    /// links never block, so retries are bounded by attempts, not wall
    /// clock.
    fn reliable<T: Transport>(link: T, nonce: u64) -> ReliableTransport<T> {
        let policy = RetryPolicy {
            deadline: Duration::from_secs(30),
            attempt_timeout: Duration::from_millis(1),
            max_attempts: 16,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        };
        ReliableTransport::with_nonce(link, policy, nonce)
    }

    /// `NRMI-P007`: the service ran exactly once per call that `what`
    /// counts — never twice.
    fn check_executions(&self, expected: usize, what: &str, report: &mut Report) {
        let ran = self.executions.load(Ordering::SeqCst);
        if ran != expected {
            report.push(
                Diagnostic::error(
                    "NRMI-P007",
                    format!(
                        "at-most-once violated: {ran} service execution(s) for {expected} {what}"
                    ),
                )
                .with("executions", ran)
                .with("calls", expected),
            );
        }
    }
}

/// Allocates the tree `root(root_data, left(2), right(3))`.
fn build_tree(heap: &mut Heap, root_data: i32) -> ObjId {
    let class = heap.registry().by_name("Node").expect("registered");
    let mut leaf = |data| {
        heap.alloc(class, vec![Value::Int(data), Value::Null, Value::Null])
            .expect("alloc")
    };
    let (left, right) = (leaf(2), leaf(3));
    heap.alloc(
        class,
        vec![Value::Int(root_data), Value::Ref(left), Value::Ref(right)],
    )
    .expect("alloc")
}

/// Every object reachable from `root` (inclusive), via raw slot walks.
fn reachable_from(heap: &Heap, root: ObjId) -> Vec<ObjId> {
    let mut seen: HashSet<ObjId> = HashSet::new();
    let mut stack = vec![root];
    let mut order = Vec::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        order.push(id);
        if let Ok(obj) = heap.get(id) {
            for v in obj.body().slots() {
                if let Value::Ref(target) = v {
                    stack.push(*target);
                }
            }
        }
    }
    order
}

/// One tree as the client holds it and as its oracle twin holds it.
#[derive(Clone, Copy, Debug)]
struct Tree {
    root: ObjId,
    twin_root: ObjId,
}

/// One client of a model: a real client node and its local oracle twin,
/// a plain heap holding the same tree that the same service logic
/// mutates with no middleware in between. Client edits are applied to
/// both; calls are judged against the twin.
struct Endpoint {
    client: ClientNode,
    twin: Heap,
    /// The tree the endpoint's calls and edits address.
    tree: Tree,
}

impl Endpoint {
    /// Plants a second tree in both heaps.
    fn plant(&mut self, root_data: i32) -> Tree {
        Tree {
            root: build_tree(&mut self.client.state.heap, root_data),
            twin_root: build_tree(&mut self.twin, root_data),
        }
    }

    /// Applies one client-side edit to the client's tree and the twin's.
    fn edit(
        &mut self,
        what: &str,
        report: &mut Report,
        edit: impl Fn(&mut Heap, ObjId) -> Result<(), NrmiError>,
    ) {
        for (heap, root) in [
            (&mut self.client.state.heap, self.tree.root),
            (&mut self.twin, self.tree.twin_root),
        ] {
            if let Err(e) = edit(heap, root) {
                report.push(Diagnostic::error(
                    "NRMI-P001",
                    format!("client {what} failed: {e}"),
                ));
            }
        }
    }

    /// Adds 10 to the root's `data` (a dirty position).
    fn mutate(&mut self, report: &mut Report) {
        self.edit("mutation", report, |heap, root| {
            let d = int_data(heap, root)?;
            heap.set_field(root, "data", Value::Int(d.wrapping_add(10)))?;
            Ok(())
        });
    }

    /// Splices a fresh node holding `data` above the root's left subtree
    /// (a new object).
    fn graft(&mut self, data: i32, report: &mut Report) {
        self.edit("graft", report, |heap, root| {
            let class = heap.registry().by_name("Node").expect("registered");
            let old_left = heap.get_field(root, "left")?;
            let fresh = heap.alloc(class, vec![Value::Int(data), old_left, Value::Null])?;
            heap.set_field(root, "left", Value::Ref(fresh))?;
            Ok(())
        });
    }

    /// Unlinks and frees the root's left subtree (freed positions).
    fn prune(&mut self, report: &mut Report) {
        self.edit("prune", report, |heap, root| {
            let Some(left) = heap.get_ref(root, "left")? else {
                return Ok(()); // nothing to prune
            };
            heap.set_field(root, "left", Value::Null)?;
            // The graph is a tree by construction, so the whole left
            // subtree is garbage once unlinked.
            for id in reachable_from(heap, left) {
                heap.free(id)?;
            }
            Ok(())
        });
    }

    /// Marshals a copy-restore call on `tree` for the split-phase client
    /// API, or reports why it could not.
    fn marshal(
        &mut self,
        who: &str,
        tree: Tree,
        report: &mut Report,
    ) -> Option<(Frame, PendingCall)> {
        let marshalled = client_marshal_call(
            &mut self.client,
            SVC,
            METHOD,
            &[Value::Ref(tree.root)],
            CallOptions::forced(PassMode::CopyRestore),
        );
        match marshalled {
            Ok(split) => Some(split),
            Err(e) => {
                report.push(Diagnostic::error(
                    "NRMI-P004",
                    format!("{who}: marshal failed: {e}"),
                ));
                None
            }
        }
    }

    /// Runs the service logic on the twin's copy of `tree` and judges
    /// what the real call returned against it: a different value is
    /// `value_code`; a restored graph not isomorphic to the twin's is
    /// `graph_code` (models that compare graphs after every action pass
    /// `None`); a call that failed where the oracle ran is `NRMI-P004`.
    fn judge<T>(
        &mut self,
        who: &str,
        tree: Tree,
        got: Result<(Value, T), NrmiError>,
        (value_code, graph_code): (&'static str, Option<&'static str>),
        report: &mut Report,
    ) {
        match (got, service_logic(&mut self.twin, tree.twin_root)) {
            (Ok((got, _)), Ok(want)) => {
                if got != want {
                    report.push(
                        Diagnostic::error(
                            value_code,
                            format!(
                                "{who}: the call returned {got:?}, its local oracle \
                                 returned {want:?}"
                            ),
                        )
                        .with("got", format!("{got:?}"))
                        .with("oracle", format!("{want:?}")),
                    );
                }
                if let Some(code) = graph_code {
                    self.check_graph(who, tree, code, report);
                }
            }
            (Err(e), Ok(_)) => report.push(
                Diagnostic::error(
                    "NRMI-P004",
                    format!("{who}: the call failed where its local oracle succeeded: {e}"),
                )
                .with("error", e.to_string()),
            ),
            (_, Err(e)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("local oracle itself failed (checker bug): {e}"),
            )),
        }
    }

    /// Reports `code` unless the client's copy of `tree` is isomorphic
    /// to the twin's.
    fn check_graph(&self, who: &str, tree: Tree, code: &'static str, report: &mut Report) {
        match graph::isomorphic(
            &self.client.state.heap,
            tree.root,
            &self.twin,
            tree.twin_root,
        ) {
            Ok(true) => {}
            Ok(false) => report.push(Diagnostic::error(
                code,
                format!("{who}: the client graph diverged from its local oracle"),
            )),
            Err(e) => report.push(Diagnostic::error(
                code,
                format!("{who}: isomorphism comparison failed: {e}"),
            )),
        }
    }

    /// Mirrors the coherence merge rule into the twin before a warm call
    /// on `svc`. An out-of-band write to the server-side root becomes
    /// visible to the call exactly when the session is live in
    /// generation lockstep on both sides, so the repair path reaches it,
    /// **and** the client has not written the root since its last call
    /// (`wrote_root`); otherwise the client's request delta wins at
    /// object granularity and erases the write. When visible, the twin
    /// adopts the server root's current `data`. With no out-of-band
    /// write this is a no-op: between calls only such writes make the
    /// server's root diverge from the twin's.
    fn adopt_visible_write(
        &mut self,
        svc: &str,
        wrote_root: bool,
        conn: &Connection,
        server: &mut Heap,
        server_root: Option<ObjId>,
    ) {
        let Some(server_root) = server_root.filter(|_| !wrote_root) else {
            return;
        };
        let (Some(cache_id), Some(client_gen)) = (
            self.client.warm.cache_id(svc),
            self.client.warm.generation(svc),
        ) else {
            return; // no client session: the next call reseeds wholesale
        };
        if conn.warm().generation_of(cache_id) != Some(client_gen) {
            return; // server entry gone or out of step: reseed, not repair
        }
        if let Ok(Value::Int(d)) = server.get_field(server_root, "data") {
            let _ = self
                .twin
                .set_field(self.tree.twin_root, "data", Value::Int(d));
        }
    }
}

/// `NRMI-P001` / `NRMI-P002`: every heap of a world passes the
/// structural validator — each endpoint's client and oracle heaps
/// (P001), labelled by endpoint name, and each server-side heap (P002).
fn check_heaps(report: &mut Report, endpoints: &[(&str, &Endpoint)], servers: &[(&str, &Heap)]) {
    let client_side = endpoints.iter().flat_map(|&(who, ep)| {
        [
            ("NRMI-P001", "client", who, &ep.client.state.heap),
            ("NRMI-P001", "oracle", who, &ep.twin),
        ]
    });
    let server_side = servers
        .iter()
        .map(|&(who, heap)| ("NRMI-P002", "server", who, heap));
    for (code, label, who, heap) in client_side.chain(server_side) {
        for v in validate(heap) {
            let name = match who {
                "" => label.to_owned(),
                who => format!("{label} {who}"),
            };
            report.push(
                Diagnostic::error(code, format!("{name} heap corrupted: {v}")).with("heap", label),
            );
        }
    }
}

/// A loopback connection executing on `server` itself, as
/// `serve_connection` serves it.
fn serving(server: ServerNode) -> Loopback<ServerNode> {
    let conn = Connection::new(Arc::clone(server.shared()));
    Loopback::new(server, conn)
}

/// The checker's fault injection, in one place: a loopback link whose
/// single-shot faults the models arm, each consumed by the next frame
/// it applies to, plus direct reordering and loss of queued replies.
/// An empty queue is the loopback's `Timeout`: the retry loop, not the
/// checker, decides what that means.
struct Lossy {
    link: Loopback<ServerNode>,
    /// The next tagged requests vanish in flight.
    drop_requests: u32,
    /// The next replies vanish in flight.
    drop_replies: u32,
    /// The next tagged requests are delivered twice.
    duplicate_requests: u32,
    /// The next receives fail as a broken connection.
    disconnects: u32,
}

impl Lossy {
    fn new(server: ServerNode) -> Self {
        Lossy {
            link: serving(server),
            drop_requests: 0,
            drop_replies: 0,
            duplicate_requests: 0,
            disconnects: 0,
        }
    }

    /// Swaps the two oldest queued replies (out-of-order delivery).
    fn swap_oldest(&mut self) {
        if self.link.queue.len() >= 2 {
            self.link.queue.swap(0, 1);
        }
    }

    /// Discards the oldest queued reply.
    fn drop_oldest(&mut self) {
        self.link.queue.pop_front();
    }
}

/// Consumes one armed fault, if any is armed.
fn take(armed: &mut u32) -> bool {
    let fire = *armed > 0;
    *armed -= u32::from(fire);
    fire
}

impl Transport for Lossy {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        let tagged = matches!(frame, Frame::Tagged { .. });
        if tagged && take(&mut self.drop_requests) {
            return Ok(()); // the request is lost in flight
        }
        let copies = if tagged && take(&mut self.duplicate_requests) {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let before = self.link.queue.len();
            self.link.send(frame)?;
            let lost = (self.link.queue.len() - before).min(self.drop_replies as usize);
            self.link.queue.drain(before..before + lost);
            self.drop_replies -= lost as u32;
        }
        Ok(())
    }

    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        if take(&mut self.disconnects) {
            return Err(TransportError::Disconnected);
        }
        self.link.recv()
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> nrmi_transport::Result<Frame> {
        self.recv()
    }

    /// A fresh connection: the old connection's warm sessions are
    /// released and its queued replies die with it. The reply cache
    /// lives on the node and survives — the property under test.
    fn reconnect(&mut self) -> nrmi_transport::Result<bool> {
        self.link.reconnect()
    }
}

// ---------------------------------------------------------------------------
// The warm models: one client, one server, hostile frames optional
// ---------------------------------------------------------------------------

/// One protocol action of the warm models. See the module docs for the
/// transition each exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// A warm call through the real client API (seeds on first use).
    Call,
    /// Mutate the root's `data` on the client (a dirty position).
    MutateClient,
    /// Splice a fresh node above the root's left subtree (a new object).
    Graft,
    /// Unlink and free the root's left subtree (freed positions).
    Prune,
    /// Mutate the server's cached graph out-of-band: a `CacheStale`
    /// repair patch, or a client-wins merge when the request rewrites
    /// the same object.
    MutateServer,
    /// Orderly client-side eviction of the warm session (`CacheEvict`
    /// → the server frees the cached graph).
    Evict,
    /// Inject a warm request with a stale generation (must miss).
    StaleGeneration,
    /// Inject a warm request naming a cache id never seeded (must miss).
    UnknownCache,
    /// Inject a warm request whose payload is garbage (must error).
    GarbagePayload,
}

/// The warm world: the real warm client and one server connection over
/// a [`Loopback`], with its oracle twin. `HOSTILE` adds hand-built
/// frames the client implementation would never send to the alphabet:
/// a stale generation, an unknown cache id, and a garbage payload. The
/// server must answer `CacheMiss` or `CallError` — never panic, never
/// serve stale state.
pub struct WarmModel<const HOSTILE: bool> {
    fixture: Fixture,
    ep: Endpoint,
    link: Loopback<ServerNode>,
    /// True when the client has written the root object since its last
    /// completed call: the coherence merge rule keys off this (see
    /// `Endpoint::adopt_visible_write`).
    wrote_root: bool,
    /// `data` of the next grafted node (mirrored into the twin).
    next_data: i32,
}

/// The honest alphabet: every transition of the cold/warm/delta state
/// machine, including coherence invalidation and eviction.
pub type CoreModel = WarmModel<false>;
/// The core alphabet plus hand-built hostile frames.
pub type AdversarialModel = WarmModel<true>;

impl<const HOSTILE: bool> Model for WarmModel<HOSTILE> {
    type Action = Action;
    const NAME: &'static str = if HOSTILE { "adversarial" } else { "core" };
    const ALPHABET: &'static [Action] = if HOSTILE {
        &[
            Action::Call,
            Action::MutateClient,
            Action::Graft,
            Action::Prune,
            Action::MutateServer,
            Action::Evict,
            Action::StaleGeneration,
            Action::UnknownCache,
            Action::GarbagePayload,
        ]
    } else {
        &[
            Action::Call,
            Action::MutateClient,
            Action::Graft,
            Action::Prune,
            Action::MutateServer,
            Action::Evict,
        ]
    };
    // 6^6 = 46,656 core and 9^4 = 6,561 adversarial sequences.
    const DEPTH: usize = if HOSTILE { 4 } else { 6 };

    fn new() -> Self {
        let fixture = Fixture::new();
        WarmModel {
            ep: fixture.endpoint(1),
            link: serving(fixture.server()),
            fixture,
            wrote_root: false,
            next_data: 100,
        }
    }

    fn step(&mut self, action: Action, report: &mut Report) {
        match action {
            Action::Call => self.call(report),
            Action::MutateClient => {
                self.ep.mutate(report);
                self.wrote_root = true;
            }
            Action::Graft => {
                self.ep.graft(self.next_data, report);
                self.next_data += 1;
                self.wrote_root = true; // root.left was rewritten
            }
            Action::Prune => {
                // A prune only writes the root when there is something
                // to cut; both heaps agree on that by construction.
                let root = self.ep.tree.root;
                if matches!(self.ep.client.state.heap.get_ref(root, "left"), Ok(Some(_))) {
                    self.wrote_root = true;
                }
                self.ep.prune(report);
            }
            Action::MutateServer => self.mutate_server(),
            Action::Evict => {
                if let Err(e) = client_evict_warm(&mut self.ep.client, &mut self.link, SVC) {
                    report.push(Diagnostic::error(
                        "NRMI-P004",
                        format!("eviction failed: {e}"),
                    ));
                }
                // The eviction freed the server's session graph; its
                // root no longer names anything MutateServer may touch.
                *self.fixture.last_root.lock().expect("poisoned") = None;
            }
            Action::StaleGeneration => self.inject(ReplyContext::StaleGeneration, report),
            Action::UnknownCache => self.inject(ReplyContext::UnknownCache, report),
            Action::GarbagePayload => self.inject(ReplyContext::GarbagePayload, report),
        }
        check_heaps(
            report,
            &[("", &self.ep)],
            &[("", &self.link.server.state.heap)],
        );
        self.check_lockstep(report);
    }
}

impl<const HOSTILE: bool> WarmModel<HOSTILE> {
    fn call(&mut self, report: &mut Report) {
        let server_root = *self.fixture.last_root.lock().expect("poisoned");
        self.ep.adopt_visible_write(
            SVC,
            self.wrote_root,
            &self.link.conn,
            &mut self.link.server.state.heap,
            server_root,
        );
        self.wrote_root = false;
        let root = self.ep.tree.root;
        let got = client_invoke_warm_with_stats(
            &mut self.ep.client,
            &mut self.link,
            SVC,
            METHOD,
            &[Value::Ref(root)],
        );
        let tree = self.ep.tree;
        self.ep.judge(
            "warm call",
            tree,
            got,
            ("NRMI-P003", Some("NRMI-P003")),
            report,
        );
    }

    fn mutate_server(&mut self) {
        // An out-of-band server-side write: another connection or a local
        // caller touching the cached graph. The version vector must keep
        // the next warm call from reading stale state — either a
        // `CacheStale` patch repairs the client's copy, or the client's
        // own in-flight write to the same object wins the merge.
        let root = *self.fixture.last_root.lock().expect("poisoned");
        if let Some(root) = root {
            let heap = &mut self.link.server.state.heap;
            if let Ok(Value::Int(d)) = heap.get_field(root, "data") {
                let _ = heap.set_field(root, "data", Value::Int(d.wrapping_add(1000)));
            }
        }
    }

    /// Builds and injects one hostile frame, judging the reply against
    /// the state machine.
    fn inject(&mut self, ctx: ReplyContext, report: &mut Report) {
        let session = (
            self.ep.client.warm.cache_id(SVC),
            self.ep.client.warm.generation(SVC),
        );
        let (cache_id, generation, payload) = match (ctx, session) {
            (ReplyContext::StaleGeneration, (Some(id), Some(generation))) => {
                (id, generation + 7, Vec::new())
            }
            (ReplyContext::UnknownCache, _) => (u64::MAX, 3, Vec::new()),
            (ReplyContext::GarbagePayload, (Some(id), Some(generation))) => {
                (id, generation, vec![0xFF, 0x00, 0x01])
            }
            // No session to be stale against, or to send garbage to.
            _ => return,
        };
        let frame = Frame::CallRequestWarm {
            service: SVC.to_owned(),
            method: METHOD.to_owned(),
            mode: CallOptions::copy_restore_delta().to_wire(),
            cache_id,
            generation,
            payload,
        };
        if let Err(e) = self.link.step(frame) {
            report.push(Diagnostic::error(
                "NRMI-P004",
                format!("the engine rejected {ctx:?}: {e}"),
            ));
        }
        // The reply is the step's last frame. Anything before it is a
        // `CacheStale` push for the honest session — addressed to a
        // client that is not reading here, so it is dropped; the
        // honest session converges anyway, because its next reply
        // delta ships every position its call rewrites.
        match self.link.queue.drain(..).next_back() {
            Some(reply) => {
                if let Some(diag) = judge_reply(ctx, &reply) {
                    report.push(diag);
                }
            }
            None => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("server produced no reply to {ctx:?} (deadlock)"),
            )),
        }
        // The injected frame consumed the server-side entry (dropped on
        // mismatch/garbage): the honest client is now out of sync by
        // design and recovers through CacheMiss → reseed on its next
        // call. That recovery is part of what the enumeration covers.
    }

    /// `NRMI-P005`: while both sides hold the session, the client's next
    /// generation is the one the server expects. The server may
    /// legitimately have dropped the entry (coherence, injection).
    fn check_lockstep(&self, report: &mut Report) {
        let warm = &self.ep.client.warm;
        let (Some(cache_id), Some(client_gen)) = (warm.cache_id(SVC), warm.generation(SVC)) else {
            return;
        };
        match self.link.conn.warm().generation_of(cache_id) {
            Some(server_gen) if server_gen != client_gen => report.push(
                Diagnostic::error(
                    "NRMI-P005",
                    format!(
                        "generation lockstep broken: client will send {client_gen}, \
                         server expects {server_gen}"
                    ),
                )
                .with("cache_id", cache_id),
            ),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The reliability model: the real retry client against a lossy link
// ---------------------------------------------------------------------------

/// One action of the reliability alphabet, driving the real
/// [`ReliableTransport`] client over a lossy loopback link against the
/// real server-side reply cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReliabilityAction {
    /// A warm call through the reliable transport (checked against the
    /// oracle twin and the execution counter).
    Call,
    /// Mutate the client graph (varies the deltas between calls).
    MutateClient,
    /// Arm: the next tagged request vanishes in flight (client must
    /// retransmit; the server never saw it, so it executes once).
    DropRequest,
    /// Arm: the next reply vanishes in flight (the call executed; the
    /// retransmission must be answered from the reply cache, not re-run).
    DropReply,
    /// Arm: the next tagged request is delivered twice (the second copy
    /// must replay from the reply cache, not re-execute).
    DuplicateRequest,
    /// Arm: the next receive fails as a broken connection; the client
    /// reconnects (per-connection warm caches die, the reply cache
    /// survives) and retransmits.
    Disconnect,
}

/// The retry/duplicate-suppression state machine: the real warm client
/// behind a real [`ReliableTransport`] over the checker's lossy link.
/// The service counts its executions, so a duplicate execution is
/// observable directly (`P007`), not only through graph divergence.
pub struct ReliabilityModel {
    fixture: Fixture,
    ep: Endpoint,
    transport: ReliableTransport<Lossy>,
    calls: usize,
}

impl Model for ReliabilityModel {
    type Action = ReliabilityAction;
    const NAME: &'static str = "reliability";
    const ALPHABET: &'static [ReliabilityAction] = &[
        ReliabilityAction::Call,
        ReliabilityAction::MutateClient,
        ReliabilityAction::DropRequest,
        ReliabilityAction::DropReply,
        ReliabilityAction::DuplicateRequest,
        ReliabilityAction::Disconnect,
    ];
    // 6^4 = 1,296 sequences.
    const DEPTH: usize = 4;

    fn new() -> Self {
        let fixture = Fixture::new();
        ReliabilityModel {
            ep: fixture.endpoint(1),
            transport: Fixture::reliable(Lossy::new(fixture.server()), 0xC4_11_1D),
            fixture,
            calls: 0,
        }
    }

    fn step(&mut self, action: ReliabilityAction, report: &mut Report) {
        match action {
            ReliabilityAction::Call => {
                let root = self.ep.tree.root;
                let got = client_invoke_warm_with_stats(
                    &mut self.ep.client,
                    &mut self.transport,
                    SVC,
                    METHOD,
                    &[Value::Ref(root)],
                );
                self.calls += 1;
                let tree = self.ep.tree;
                self.ep.judge(
                    "reliable call",
                    tree,
                    got,
                    ("NRMI-P003", Some("NRMI-P003")),
                    report,
                );
            }
            ReliabilityAction::MutateClient => self.ep.mutate(report),
            ReliabilityAction::DropRequest => self.transport.inner_mut().drop_requests += 1,
            ReliabilityAction::DropReply => self.transport.inner_mut().drop_replies += 1,
            ReliabilityAction::DuplicateRequest => {
                self.transport.inner_mut().duplicate_requests += 1;
            }
            ReliabilityAction::Disconnect => self.transport.inner_mut().disconnects += 1,
        }
        check_heaps(
            report,
            &[("", &self.ep)],
            &[("", &self.transport.inner().link.server.state.heap)],
        );
        // Under any drop/duplicate/disconnect schedule, the service body
        // runs exactly once per completed call — never twice.
        self.fixture
            .check_executions(self.calls, "completed call(s)", report);
    }
}

// ---------------------------------------------------------------------------
// The shared model: two connections against one shared server
// ---------------------------------------------------------------------------

/// One action in the two-connection shared-server model. Actions are
/// addressed to connection A or B; each connection has its own session
/// tree, its own oracle twin, its own nonce stream and its own node,
/// while the reply cache and service bindings are the nodes'
/// [`SharedServer`]'s — exactly the state the pooled serve loop shares
/// between connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedAction {
    /// A warm call on connection A (seeds on first use).
    CallA,
    /// A warm call on connection B.
    CallB,
    /// Mutate connection A's root (a dirty position in A's next delta).
    MutateA,
    /// Mutate connection B's root.
    MutateB,
    /// Orderly eviction of connection A's warm session.
    EvictA,
    /// Orderly eviction of connection B's warm session.
    EvictB,
}

/// Two connections interleaved on one [`SharedServer`] (shared bindings
/// and sharded reply cache), each on its own node built by
/// [`SharedServer::connection_node`] as the pooled serve loop builds
/// them, each a real warm client behind a real [`ReliableTransport`],
/// so every request crosses the shared reply cache.
pub struct SharedModel {
    fixture: Fixture,
    eps: [Endpoint; 2],
    transports: [ReliableTransport<Loopback<ServerNode>>; 2],
    calls: usize,
}

impl Model for SharedModel {
    type Action = SharedAction;
    const NAME: &'static str = "shared";
    const ALPHABET: &'static [SharedAction] = &[
        SharedAction::CallA,
        SharedAction::CallB,
        SharedAction::MutateA,
        SharedAction::MutateB,
        SharedAction::EvictA,
        SharedAction::EvictB,
    ];
    // 6^5 = 7,776 sequences.
    const DEPTH: usize = 5;

    fn new() -> Self {
        let fixture = Fixture::new();
        let shared = Arc::clone(fixture.server().shared());
        // Distinct nonce streams, as two real connections would draw
        // from `fresh_nonce`.
        let transport = |nonce| Fixture::reliable(serving(shared.connection_node()), nonce);
        SharedModel {
            eps: [fixture.endpoint(1), fixture.endpoint(1)],
            transports: [transport(0xAAAA_1111), transport(0xBBBB_2222)],
            fixture,
            calls: 0,
        }
    }

    fn step(&mut self, action: SharedAction, report: &mut Report) {
        use SharedAction as S;
        match action {
            S::CallA | S::CallB => {
                let i = usize::from(action == S::CallB);
                let ep = &mut self.eps[i];
                let root = ep.tree.root;
                let got = client_invoke_warm_with_stats(
                    &mut ep.client,
                    &mut self.transports[i],
                    SVC,
                    METHOD,
                    &[Value::Ref(root)],
                );
                self.calls += 1;
                let tree = ep.tree;
                ep.judge(NAMES[i], tree, got, ("NRMI-P003", None), report);
            }
            S::MutateA => self.eps[0].mutate(report),
            S::MutateB => self.eps[1].mutate(report),
            S::EvictA | S::EvictB => {
                let i = usize::from(action == S::EvictB);
                let evicted =
                    client_evict_warm(&mut self.eps[i].client, &mut self.transports[i], SVC);
                if let Err(e) = evicted {
                    report.push(Diagnostic::error(
                        "NRMI-P004",
                        format!("{}: eviction failed: {e}", NAMES[i]),
                    ));
                }
            }
        }
        // Checked after EVERY action: no endpoint ever observes a torn
        // heap — both restored client graphs stay isomorphic to their
        // private oracles no matter how the other connection's calls
        // interleave (P008) — every heap stays structurally valid, and
        // the service ran exactly once per completed call across both
        // connections.
        for (i, ep) in self.eps.iter().enumerate() {
            ep.check_graph(NAMES[i], ep.tree, "NRMI-P008", report);
        }
        let [a, b] = &self.transports;
        check_heaps(
            report,
            &[("A", &self.eps[0]), ("B", &self.eps[1])],
            &[
                ("A", &a.inner().server.state.heap),
                ("B", &b.inner().server.state.heap),
            ],
        );
        self.fixture
            .check_executions(self.calls, "completed call(s) across connections", report);
    }
}

// ---------------------------------------------------------------------------
// The shared-graph model: two warm clients leased onto one server heap
// ---------------------------------------------------------------------------

/// One action in the two-client shared-graph model (`NRMI-P011`). Unlike
/// the [`SharedAction`] world — two connections with *disjoint* session
/// graphs behind one reply cache — this model shares the coherence
/// surface itself: both endpoints hold warm sessions against ONE
/// [`ServerNode`] heap, their warm caches' evictions coordinated through
/// that node's lease table exactly as on a node serving several
/// connections (the big-lock baseline in `nrmi-bench`), and every call writes the *other* endpoint's
/// server-side root out-of-band. Each step drives the real coherence
/// machinery: version-vector staleness classification, `CacheStale`
/// repair patches, the client-wins positional merge, and lease-guarded
/// eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedGraphAction {
    /// A warm call on endpoint A; its service body pokes B's registered
    /// server root (an out-of-band write from B's point of view).
    CallA,
    /// A warm call on endpoint B; pokes A's registered server root.
    CallB,
    /// Mutate endpoint A's root client-side (an unshipped local write
    /// the merge rule must not clobber).
    MutateA,
    /// Mutate endpoint B's root client-side.
    MutateB,
    /// Orderly client-driven eviction of A's warm session.
    EvictA,
    /// Orderly client-driven eviction of B's warm session.
    EvictB,
    /// Tear down A's server-side connection state, as a serve loop does
    /// when a client vanishes ([`Loopback::close`]). B's leased session
    /// must survive with every synchronized object still alive; A
    /// reconnects through the `CacheMiss` reseed path.
    DropA,
}

/// The services of the shared-graph endpoints; each body knows its
/// endpoint's name and pokes every OTHER registered root.
const SG_SERVICES: [&str; 2] = ["svc.a", "svc.b"];

/// How much a service call perturbs the OTHER endpoint's root `data` —
/// distinctive so a stale read stands out from the ×3+1 service values.
const SG_POKE: i32 = 100;

/// Name → server-side root of each endpoint's *live* session graph, as
/// the services see it. The MODEL maintains hygiene — entries leave at
/// eviction and teardown — because a freed root id can be recycled into
/// another session's graph, and poking a recycled id would be a checker
/// artifact, not a middleware bug (real out-of-band writers reach the
/// shared graph through live references, not saved ids).
type SgRoots = Arc<Mutex<Vec<(&'static str, ObjId)>>>;

/// Two warm clients leased onto one server heap: one node, one lease
/// table, two connections with their own warm sessions, and the root
/// registry the services poke through.
pub struct SharedGraphModel {
    roots: SgRoots,
    eps: [Endpoint; 2],
    links: [Loopback<Arc<Mutex<ServerNode>>>; 2],
    /// Whether each endpoint wrote its root since its last call: its
    /// next request delta carries the position, so the positional merge
    /// lets the client win and the peer's poke is erased.
    wrote_root: [bool; 2],
}

impl Model for SharedGraphModel {
    type Action = SharedGraphAction;
    const NAME: &'static str = "shared-graph";
    const ALPHABET: &'static [SharedGraphAction] = &[
        SharedGraphAction::CallA,
        SharedGraphAction::CallB,
        SharedGraphAction::MutateA,
        SharedGraphAction::MutateB,
        SharedGraphAction::EvictA,
        SharedGraphAction::EvictB,
        SharedGraphAction::DropA,
    ];
    // 7^4 = 2,401 sequences.
    const DEPTH: usize = 4;

    fn new() -> Self {
        let fixture = Fixture::new();
        let roots: SgRoots = Arc::new(Mutex::new(Vec::new()));
        let mut server = ServerNode::new(fixture.registry.clone(), MachineSpec::fast());
        for (svc, name) in SG_SERVICES.into_iter().zip(NAMES) {
            let roots = Arc::clone(&roots);
            server.bind(
                svc,
                Box::new(FnService::new(move |_method, args, heap| {
                    let root = root_arg(args)?;
                    let mut reg = roots.lock().expect("poisoned");
                    // (Re-)register this endpoint's live root — a reseed
                    // materializes the graph at fresh ids.
                    match reg.iter_mut().find(|(n, _)| *n == name) {
                        Some(slot) => slot.1 = root,
                        None => reg.push((name, root)),
                    }
                    // The out-of-band write: perturb every OTHER live
                    // root. From the peer session's point of view this
                    // is exactly the coherence hazard — its server-side
                    // graph changed underneath its warm cache.
                    for &(_, id) in reg.iter().filter(|(n, _)| *n != name) {
                        let d = int_data(heap, id)?;
                        heap.set_field(id, "data", Value::Int(d.wrapping_add(SG_POKE)))?;
                    }
                    drop(reg);
                    service_logic(heap, root)
                })),
            );
        }
        let shared = Arc::clone(server.shared());
        let server = Arc::new(Mutex::new(server));
        let link = || Loopback::new(Arc::clone(&server), Connection::new(Arc::clone(&shared)));
        SharedGraphModel {
            roots,
            eps: [fixture.endpoint(1), fixture.endpoint(1)],
            links: [link(), link()],
            wrote_root: [false; 2],
        }
    }

    fn step(&mut self, action: SharedGraphAction, report: &mut Report) {
        use SharedGraphAction as G;
        match action {
            G::CallA => self.call(0, report),
            G::CallB => self.call(1, report),
            G::MutateA | G::MutateB => {
                let i = usize::from(action == G::MutateB);
                self.eps[i].mutate(report);
                self.wrote_root[i] = true;
            }
            G::EvictA | G::EvictB => {
                let i = usize::from(action == G::EvictB);
                // The session graph is leaving the server (or leaking, if
                // a peer's poke made it incoherent); either way its root
                // id stops being a live out-of-band target.
                self.forget_root(i);
                let evicted =
                    client_evict_warm(&mut self.eps[i].client, &mut self.links[i], SG_SERVICES[i]);
                if let Err(e) = evicted {
                    report.push(Diagnostic::error(
                        "NRMI-P004",
                        format!("endpoint {}: eviction failed: {e}", NAMES[i]),
                    ));
                }
            }
            G::DropA => {
                // A's client keeps its (now dangling) warm session and
                // must recover through `CacheMiss`; B's leased session
                // must be untouched.
                self.forget_root(0);
                self.links[0].close();
            }
        }
        // Checked after EVERY action: neither client ever reads stale
        // state or loses a write (graph ≡ its private oracle), every live
        // session's leased objects are still alive, and all heaps stay
        // structurally valid.
        for (i, ep) in self.eps.iter().enumerate() {
            ep.check_graph(NAMES[i], ep.tree, "NRMI-P011", report);
        }
        self.check_lease_liveness(report);
        let server = self.links[0].server.lock().expect("poisoned");
        check_heaps(
            report,
            &[("A", &self.eps[0]), ("B", &self.eps[1])],
            &[("", &server.state.heap)],
        );
    }
}

impl SharedGraphModel {
    fn call(&mut self, i: usize, report: &mut Report) {
        let server_root = self
            .roots
            .lock()
            .expect("poisoned")
            .iter()
            .find(|(n, _)| *n == NAMES[i])
            .map(|&(_, id)| id);
        let (ep, link) = (&mut self.eps[i], &mut self.links[i]);
        ep.adopt_visible_write(
            SG_SERVICES[i],
            self.wrote_root[i],
            &link.conn,
            &mut link.server.lock().expect("poisoned").state.heap,
            server_root,
        );
        self.wrote_root[i] = false;
        let root = ep.tree.root;
        let got = client_invoke_warm_with_stats(
            &mut ep.client,
            link,
            SG_SERVICES[i],
            METHOD,
            &[Value::Ref(root)],
        );
        let tree = ep.tree;
        ep.judge(NAMES[i], tree, got, ("NRMI-P003", None), report);
    }

    fn forget_root(&mut self, i: usize) {
        self.roots
            .lock()
            .expect("poisoned")
            .retain(|(n, _)| *n != NAMES[i]);
    }

    /// `NRMI-P011` (lease safety): every object a live warm session
    /// synchronizes is still alive on the shared heap — no teardown or
    /// eviction by the OTHER connection freed it out from under us.
    fn check_lease_liveness(&self, report: &mut Report) {
        let server = self.links[0].server.lock().expect("poisoned");
        for (i, (ep, link)) in self.eps.iter().zip(&self.links).enumerate() {
            let Some(cache_id) = ep.client.warm.cache_id(SG_SERVICES[i]) else {
                continue;
            };
            let Some(sync) = link.conn.warm().sync_ids_of(cache_id) else {
                continue;
            };
            for &id in sync {
                if server.state.heap.class_if_live(id).is_none() {
                    report.push(Diagnostic::error(
                        "NRMI-P011",
                        format!(
                            "endpoint {}: leased object {id:?} of live session \
                             {cache_id} was freed by another connection",
                            NAMES[i]
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The pipelined model: two calls in flight on one multiplexed link
// ---------------------------------------------------------------------------

/// One action in the pipelined single-connection model: two call slots
/// (A and B, each owning a private graph) share one
/// [`ReliableTransport`], and both may be in flight at once through the
/// split-phase client API ([`client_marshal_call`] + `send_call`,
/// collected later with `recv_reply` + [`client_apply_reply`]). The
/// adversary reorders and drops queued replies; the request map must
/// still route every reply to the call that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelinedAction {
    /// Issue a copy-restore call on slot A without collecting it (a
    /// no-op if A is already in flight).
    IssueA,
    /// Issue a call on slot B.
    IssueB,
    /// Swap the two oldest queued replies (out-of-order delivery).
    SwapReplies,
    /// Discard the oldest queued reply: the collect must retransmit and
    /// be answered from the reply cache, never re-executed.
    DropReply,
    /// Collect slot A's reply and restore its graph. With nothing in
    /// flight, instead verifies that collecting an already-consumed call
    /// id yields the typed `NoPendingCall` error — never a panic, never
    /// a ghost reply.
    CollectA,
    /// Collect slot B.
    CollectB,
}

/// One call slot: a private tree and the in-flight state of its call.
struct Slot {
    tree: Tree,
    pending: Option<(u64, PendingCall)>,
    consumed_seq: Option<u64>,
}

/// One client with two disjoint trees, the real request-map client over
/// the checker's lossy link, the real server and reply cache, and a
/// per-slot oracle tree. Each slot's values depend on its own history
/// (`data` starts 100 vs 200 and evolves as `3d+1`), so a reply routed
/// to the wrong call is observable both in the returned sum and in the
/// restored graph.
pub struct PipelinedModel {
    fixture: Fixture,
    ep: Endpoint,
    transport: ReliableTransport<Lossy>,
    slots: [Slot; 2],
    issued: usize,
}

impl Model for PipelinedModel {
    type Action = PipelinedAction;
    const NAME: &'static str = "pipelined";
    const ALPHABET: &'static [PipelinedAction] = &[
        PipelinedAction::IssueA,
        PipelinedAction::IssueB,
        PipelinedAction::SwapReplies,
        PipelinedAction::DropReply,
        PipelinedAction::CollectA,
        PipelinedAction::CollectB,
    ];
    // 6^4 = 1,296 sequences.
    const DEPTH: usize = 4;

    fn new() -> Self {
        let fixture = Fixture::new();
        let mut ep = fixture.endpoint(100);
        let slot = |tree| Slot {
            tree,
            pending: None,
            consumed_seq: None,
        };
        let slots = [slot(ep.tree), slot(ep.plant(200))];
        PipelinedModel {
            transport: Fixture::reliable(Lossy::new(fixture.server()), 0xF1F0),
            fixture,
            ep,
            slots,
            issued: 0,
        }
    }

    fn step(&mut self, action: PipelinedAction, report: &mut Report) {
        use PipelinedAction as P;
        match action {
            P::IssueA => self.issue(0, report),
            P::IssueB => self.issue(1, report),
            P::SwapReplies => self.transport.inner_mut().swap_oldest(),
            P::DropReply => self.transport.inner_mut().drop_oldest(),
            P::CollectA => self.collect(0, report),
            P::CollectB => self.collect(1, report),
        }
        check_heaps(
            report,
            &[("", &self.ep)],
            &[("", &self.transport.inner().link.server.state.heap)],
        );
        // Every issued call executes exactly once, at dispatch; replays
        // (after a dropped reply's retransmission) never re-execute.
        self.fixture
            .check_executions(self.issued, "issued pipelined call(s)", report);
    }
}

impl PipelinedModel {
    fn issue(&mut self, i: usize, report: &mut Report) {
        let who = format!("slot {}", NAMES[i]);
        let slot = &mut self.slots[i];
        if slot.pending.is_some() {
            return;
        }
        let Some((frame, pending)) = self.ep.marshal(&who, slot.tree, report) else {
            return;
        };
        match self.transport.send_call(&frame) {
            Ok(Some(seq)) => {
                self.issued += 1;
                slot.pending = Some((seq, pending));
            }
            Ok(None) => report.push(Diagnostic::error(
                "NRMI-P009",
                format!(
                    "{who}: call frame passed through untagged — its reply can never be \
                     demultiplexed"
                ),
            )),
            Err(e) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("{who}: pipelined issue failed: {e}"),
            )),
        }
    }

    fn collect(&mut self, i: usize, report: &mut Report) {
        let who = format!("slot {}", NAMES[i]);
        let slot = &mut self.slots[i];
        let Some((seq, pending)) = slot.pending.take() else {
            // Nothing in flight: collecting the already-consumed call id
            // must yield the typed error; a ghost reply would mean a
            // neighbor's reply leaked out of the request map.
            if let Some(stale) = slot.consumed_seq {
                match self.transport.recv_reply(stale) {
                    Err(TransportError::NoPendingCall { .. }) => {}
                    other => report.push(Diagnostic::error(
                        "NRMI-P009",
                        format!(
                            "{who}: collecting consumed call {stale} must yield the typed \
                             NoPendingCall error, got {other:?}"
                        ),
                    )),
                }
            }
            return;
        };
        slot.consumed_seq = Some(seq);
        match self.transport.recv_reply(seq) {
            Ok(Frame::CallReply { payload }) => {
                let got = client_apply_reply(&mut self.ep.client, pending, &payload);
                let codes = ("NRMI-P009", Some("NRMI-P008"));
                self.ep.judge(&who, slot.tree, got, codes, report);
            }
            Ok(other) => report.push(Diagnostic::error(
                "NRMI-P009",
                format!("{who}: call {seq} answered with {other:?}"),
            )),
            Err(e) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("{who}: collect of call {seq} failed: {e}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// The reactor dispatch model: NRMI-P010
// ---------------------------------------------------------------------------

/// One action of the reactor dispatch model: two client connections
/// multiplexed through the **real** engine step as the reactor runs it
/// (no connection node, so fresh pipelineable calls offload) onto a
/// shared job queue drained by two worker nodes running
/// [`nrmi_core::run_offloaded`], with the checker in full control of
/// execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReactorAction {
    /// Issue a copy-restore call on connection A: marshal with the real
    /// client, wrap in the tagged envelope, step. A fresh pipelineable
    /// call must step to `Offload` — anything else is a `P010`
    /// violation.
    IssueA,
    /// Issue a call on connection B.
    IssueB,
    /// Pop the oldest queued job and dispatch it on the next worker
    /// node (workers alternate, as the real pool's threads do), store
    /// the reply in the shared cache, and route the tagged reply to the
    /// owning connection's inbox.
    RunJob,
    /// Re-step connection A's last tagged call frame, byte for byte, as
    /// a retransmission would arrive. Legal outcomes are no answer
    /// (still executing) or a cached reply; a second `Offload` is a
    /// double execution.
    RetransmitA,
    /// Collect connection A's reply from its inbox (a no-op while the
    /// job is still queued) and restore against A's private oracle.
    CollectA,
    /// Collect connection B.
    CollectB,
}

/// One client connection of the reactor model: its own real client and
/// private oracle twin (the reactor's workers share heaps *across*
/// calls of different connections, so a torn restore shows up as
/// client-vs-twin divergence), plus the in-flight state the reactor
/// tracks per connection.
struct ReactorConn {
    ep: Endpoint,
    nonce: u64,
    next_seq: u64,
    pending: Option<(u64, PendingCall)>,
    /// The exact tagged frame last sent, for retransmission.
    last_tagged: Option<Frame>,
    /// Tagged replies routed back to this connection (the reactor's
    /// completion channel keyed by connection token).
    inbox: VecDeque<Frame>,
}

/// One [`SharedServer`] stepped as the reactor thread steps it, two
/// connections with distinct session nonces, the shared job queue, and
/// two worker nodes built with [`SharedServer::connection_node`] exactly
/// as the reactor's pool builds them.
pub struct ReactorModel {
    fixture: Fixture,
    /// The reactor thread's engine: one for every connection, as in the
    /// real reactor (its connections own no node, so no engine state).
    reactor: Loopback<Arc<SharedServer>>,
    conns: [ReactorConn; 2],
    /// Queued jobs: (connection index, nonce, seq, inner call frame).
    jobs: VecDeque<(usize, u64, u64, Frame)>,
    workers: [ServerNode; 2],
    next_worker: usize,
    dispatched: usize,
}

impl Model for ReactorModel {
    type Action = ReactorAction;
    const NAME: &'static str = "reactor";
    const ALPHABET: &'static [ReactorAction] = &[
        ReactorAction::IssueA,
        ReactorAction::IssueB,
        ReactorAction::RunJob,
        ReactorAction::RetransmitA,
        ReactorAction::CollectA,
        ReactorAction::CollectB,
    ];
    // 6^4 = 1,296 sequences.
    const DEPTH: usize = 4;

    fn new() -> Self {
        let fixture = Fixture::new();
        let shared = Arc::clone(fixture.server().shared());
        // Distinct nonces and histories: connection A's values evolve
        // from 100, B's from 200, so a reply executed on the wrong state
        // or routed to the wrong connection is observable.
        let conn = |nonce, root_data| ReactorConn {
            ep: fixture.endpoint(root_data),
            nonce,
            next_seq: 1,
            pending: None,
            last_tagged: None,
            inbox: VecDeque::new(),
        };
        ReactorModel {
            conns: [conn(0xAAAA_1111, 100), conn(0xBBBB_2222, 200)],
            workers: [shared.connection_node(), shared.connection_node()],
            reactor: Loopback::new(
                Arc::clone(&shared),
                Connection::with_workers(Arc::clone(&shared)),
            ),
            fixture,
            jobs: VecDeque::new(),
            next_worker: 0,
            dispatched: 0,
        }
    }

    fn step(&mut self, action: ReactorAction, report: &mut Report) {
        use ReactorAction as R;
        match action {
            R::IssueA => self.issue(0, report),
            R::IssueB => self.issue(1, report),
            R::RunJob => self.run_job(),
            R::RetransmitA => self.retransmit(0, report),
            R::CollectA => self.collect(0, report),
            R::CollectB => self.collect(1, report),
        }
        let [a, b] = &self.conns;
        let [w0, w1] = &self.workers;
        check_heaps(
            report,
            &[("A", &a.ep), ("B", &b.ep)],
            &[("worker 0", &w0.state.heap), ("worker 1", &w1.state.heap)],
        );
        // Every offloaded job executes exactly once, when a `RunJob`
        // pops it — retransmissions must never enqueue a second one.
        self.fixture
            .check_executions(self.dispatched, "dispatched job(s)", report);
    }
}

impl ReactorModel {
    fn issue(&mut self, i: usize, report: &mut Report) {
        let who = format!("connection {}", NAMES[i]);
        let conn = &mut self.conns[i];
        if conn.pending.is_some() {
            return;
        }
        let tree = conn.ep.tree;
        let Some((frame, pending)) = conn.ep.marshal(&who, tree, report) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let tagged = Frame::Tagged {
            nonce: conn.nonce,
            seq,
            frame: Box::new(frame),
        };
        conn.last_tagged = Some(tagged.clone());
        match self.reactor.step(tagged) {
            Ok(Step::Offload {
                nonce,
                seq: got,
                call,
            }) if nonce == conn.nonce && got == seq => {
                self.jobs.push_back((i, nonce, seq, call));
                conn.pending = Some((seq, pending));
            }
            other => {
                let answered: Vec<Frame> = self.reactor.queue.drain(..).collect();
                report.push(Diagnostic::error(
                    "NRMI-P010",
                    format!(
                        "{who}: a fresh pipelineable call ({:#x}, {seq}) must offload to \
                         the worker pool under its own call id; the reactor stepped to \
                         {other:?} with {answered:?}",
                        conn.nonce
                    ),
                ));
            }
        }
    }

    fn run_job(&mut self) {
        let Some((i, nonce, seq, call)) = self.jobs.pop_front() else {
            return;
        };
        // Workers alternate, as the real pool's threads race: the same
        // connection's consecutive calls may execute on different
        // worker heaps.
        let worker = &mut self.workers[self.next_worker % 2];
        self.next_worker += 1;
        let reply = run_offloaded(worker, nonce, seq, call);
        self.dispatched += 1;
        self.conns[i].inbox.push_back(reply);
    }

    fn retransmit(&mut self, i: usize, report: &mut Report) {
        let conn = &mut self.conns[i];
        let Some(tagged) = conn.last_tagged.clone() else {
            return;
        };
        match self.reactor.step(tagged) {
            // Still queued or executing: the duplicate is dropped
            // unanswered (nothing queued) and the client's next
            // retransmission replays the stored reply. Executed:
            // answered from the cache. Route it to the connection like
            // any reply; a stale duplicate for an already-collected call
            // just sits in the inbox, exactly as the client's
            // demultiplexer discards unsolicited frames.
            Ok(Step::Continue) => conn.inbox.extend(self.reactor.queue.drain(..)),
            other => report.push(Diagnostic::error(
                "NRMI-P010",
                format!(
                    "connection {}: a retransmitted call id must be ignored or answered \
                     from the reply cache, never {other:?} — that is a double execution",
                    NAMES[i]
                ),
            )),
        }
    }

    fn collect(&mut self, i: usize, report: &mut Report) {
        let who = format!("connection {}", NAMES[i]);
        let conn = &mut self.conns[i];
        let Some(&(seq, _)) = conn.pending.as_ref() else {
            return;
        };
        // The reply may not have been produced yet (job still queued):
        // leave the call pending, as the blocked client would.
        let Some(pos) = conn.inbox.iter().position(|f| {
            matches!(
                f,
                Frame::Tagged { seq: s, .. } | Frame::ReplyCached { seq: s, .. } if *s == seq
            )
        }) else {
            return;
        };
        let (nonce, inner) = match conn.inbox.remove(pos) {
            Some(Frame::Tagged { nonce, frame, .. } | Frame::ReplyCached { nonce, frame, .. }) => {
                (nonce, *frame)
            }
            other => unreachable!("matched above: {other:?}"),
        };
        if nonce != conn.nonce {
            report.push(Diagnostic::error(
                "NRMI-P010",
                format!(
                    "{who}: reply crossed connections: call id nonce {nonce:#x}, \
                     connection nonce {:#x}",
                    conn.nonce
                ),
            ));
            return;
        }
        let Frame::CallReply { payload } = inner else {
            report.push(Diagnostic::error(
                "NRMI-P010",
                format!("{who}: call {seq} answered with {inner:?}"),
            ));
            return;
        };
        let (_, pending) = conn.pending.take().expect("checked above");
        let got = client_apply_reply(&mut conn.ep.client, pending, &payload);
        let tree = conn.ep.tree;
        conn.ep
            .judge(&who, tree, got, ("NRMI-P010", Some("NRMI-P010")), report);
    }
}

// ---------------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------------

/// Bounds for one [`model_check`] run. Each model's depth is declared
/// beside its alphabet ([`Model::DEPTH`]); the config only caps it.
#[derive(Clone, Debug)]
pub struct ModelCheckConfig {
    /// Upper bound on every model's depth: `usize::MAX` enumerates each
    /// model at its own depth, 0 skips the protocol enumeration.
    pub depth_cap: usize,
    /// Stop the whole enumeration after this many error diagnostics (a
    /// broken invariant tends to fail thousands of sequences
    /// identically).
    pub max_errors: usize,
}

impl Default for ModelCheckConfig {
    /// Every model at its own depth: 67,282 sequences.
    fn default() -> Self {
        ModelCheckConfig {
            depth_cap: usize::MAX,
            max_errors: 25,
        }
    }
}

/// One row of the enumeration table: a model's name and depth, and its
/// enumerator.
struct Row {
    name: &'static str,
    depth: usize,
    run: fn(&mut Enumeration, usize),
}

fn row<M: Model>() -> Row {
    Row {
        name: M::NAME,
        depth: M::DEPTH,
        run: Enumeration::run::<M>,
    }
}

/// Every model [`model_check`] enumerates, in order.
fn models() -> [Row; 7] {
    [
        row::<CoreModel>(),
        row::<AdversarialModel>(),
        row::<ReliabilityModel>(),
        row::<SharedModel>(),
        row::<SharedGraphModel>(),
        row::<PipelinedModel>(),
        row::<ReactorModel>(),
    ]
}

/// One enumeration's findings and progress across the whole table.
struct Enumeration {
    report: Report,
    sequences: usize,
    max_errors: usize,
    stopped: bool,
}

impl Enumeration {
    /// Odometer-style enumeration of all `|alphabet|^depth` sequences of
    /// `M`, until the table-wide error budget is spent.
    fn run<M: Model>(&mut self, depth: usize) {
        if depth == 0 || self.stopped {
            return;
        }
        let alphabet = M::ALPHABET;
        let mut digits = vec![0usize; depth];
        loop {
            let actions: Vec<M::Action> = digits.iter().map(|&d| alphabet[d]).collect();
            self.report.merge(check_sequence::<M>(&actions));
            self.sequences += 1;
            if self.report.counts().0 >= self.max_errors {
                self.stopped = true;
                self.report.push(Diagnostic::warning(
                    "NRMI-P000",
                    format!(
                        "stopped after {} errors; enumeration incomplete",
                        self.max_errors
                    ),
                ));
                return;
            }
            // Advance the odometer; past the last sequence, stop.
            let Some(i) = digits.iter().position(|&d| d + 1 < alphabet.len()) else {
                return;
            };
            digits[..i].fill(0);
            digits[i] += 1;
        }
    }
}

/// Exhaustively enumerates every action sequence of each model at its
/// depth (capped by `cfg.depth_cap`), running each against a fresh
/// world. Checking full-depth sequences covers every shorter prefix,
/// since each sequence re-executes (and re-checks) its prefix from
/// scratch.
pub fn model_check(cfg: &ModelCheckConfig) -> Report {
    enumerate(&models(), cfg)
}

fn enumerate(table: &[Row], cfg: &ModelCheckConfig) -> Report {
    let mut run = Enumeration {
        report: Report::new(),
        sequences: 0,
        max_errors: cfg.max_errors,
        stopped: false,
    };
    let depth = |row: &Row| row.depth.min(cfg.depth_cap);

    // Panics are expected to be absent; silence the default hook so a
    // genuine finding doesn't spray 46k backtraces, and restore it after.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| {
        for row in table {
            (row.run)(&mut run, depth(row));
        }
    }));
    std::panic::set_hook(prev_hook);
    if result.is_err() {
        run.report.push(Diagnostic::error(
            "NRMI-P006",
            "the enumerator itself panicked (checker bug)",
        ));
    }

    let (errors, _, _) = run.report.counts();
    let depths = table
        .iter()
        .map(|row| format!("{} depth {}", row.name, depth(row)))
        .collect::<Vec<_>>()
        .join(", ");
    run.report.push(
        Diagnostic::info(
            "NRMI-P000",
            format!(
                "protocol enumeration explored {} sequences ({depths}): {errors} violation(s)",
                run.sequences
            ),
        )
        .with("sequences", run.sequences),
    );
    run.report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean<M: Model>(sequences: &[&[M::Action]]) {
        for seq in sequences {
            let report = check_sequence::<M>(seq);
            assert!(
                !report.has_errors(),
                "sequence {seq:?} failed:\n{}",
                report.render()
            );
        }
    }

    /// A fresh `M` world stepped cleanly through `actions`.
    fn world_after<M: Model>(actions: &[M::Action]) -> M {
        let mut world = M::new();
        let mut report = Report::new();
        for &action in actions {
            world.step(action, &mut report);
        }
        assert!(!report.has_errors(), "{}", report.render());
        world
    }

    /// Steps `world` once and returns what the step reported.
    fn step<M: Model>(world: &mut M, action: M::Action) -> Report {
        let mut report = Report::new();
        world.step(action, &mut report);
        report
    }

    /// Writes the twin of the endpoint's right leaf behind the client's
    /// back: the next judgement against that twin must diverge. (Not the
    /// root: the warm models' twins adopt out-of-band writes to it.)
    fn corrupt_twin(ep: &mut Endpoint) {
        let leaf = ep.twin.get_ref(ep.tree.twin_root, "right").expect("live");
        let leaf = leaf.expect("a right leaf");
        let d = int_data(&mut ep.twin, leaf).expect("live");
        ep.twin
            .set_field(leaf, "data", Value::Int(d + 5))
            .expect("live");
    }

    fn executions(fixture: &Fixture) -> usize {
        fixture.executions.load(Ordering::SeqCst)
    }

    #[test]
    fn single_call_round_trips() {
        use Action as A;
        assert_clean::<CoreModel>(&[&[A::Call, A::Call, A::Call]]);
    }

    #[test]
    fn coherence_and_recovery_sequences_are_clean() {
        use Action as A;
        assert_clean::<AdversarialModel>(&[
            &[A::Call, A::MutateServer, A::Call],
            &[A::Call, A::Evict, A::Call],
            &[A::Call, A::Prune, A::Call, A::Graft, A::Call],
            &[A::Graft, A::Call, A::StaleGeneration, A::Call],
            &[A::Call, A::GarbagePayload, A::Call],
            &[A::UnknownCache, A::Call, A::UnknownCache],
        ]);
    }

    #[test]
    fn shallow_exhaustive_core_enumeration_is_clean() {
        // Depth 3 over every alphabet runs fast enough for debug builds;
        // CI's `tables -- check` job runs every model at its own depth
        // in release.
        let report = model_check(&ModelCheckConfig {
            depth_cap: 3,
            max_errors: 25,
        });
        assert!(!report.has_errors(), "{}", report.render());
        let note = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "NRMI-P000")
            .expect("coverage note present");
        // 6^3 + 9^3 + 6^3 + 6^3 + 7^3 + 6^3 + 6^3.
        assert!(
            note.message.contains("explored 2152 sequences"),
            "{}",
            note.message
        );
    }

    #[test]
    fn reliability_fault_sequences_are_clean() {
        use ReliabilityAction as R;
        assert_clean::<ReliabilityModel>(&[
            &[R::Call, R::Call],
            &[R::DropReply, R::Call, R::Call],
            &[R::DropRequest, R::Call, R::MutateClient, R::Call],
            &[R::DuplicateRequest, R::Call, R::Call],
            &[R::Disconnect, R::Call, R::Call],
            // Reply lost, then the connection too: the retransmission
            // crosses a reconnect and must be served from the cache.
            &[R::Call, R::DropReply, R::Disconnect, R::Call],
            // Everything at once against a single call.
            &[
                R::DropRequest,
                R::DropReply,
                R::DuplicateRequest,
                R::Disconnect,
                R::Call,
                R::Call,
            ],
        ]);
    }

    #[test]
    fn reliability_duplicate_without_reply_cache_is_caught() {
        // One tagged call delivered twice executes once and replays
        // once; a server with an empty reply cache (a fresh one, with
        // the same counted service) must re-execute a third delivery,
        // and the counter must say so.
        let mut world = ReliabilityModel::new();
        let tree = world.ep.tree;
        let (call, _) = world
            .ep
            .marshal("test", tree, &mut Report::new())
            .expect("marshal");
        let tagged = Frame::Tagged {
            nonce: 1,
            seq: 1,
            frame: Box::new(call),
        };
        let link = &mut world.transport.inner_mut().link;
        link.step(tagged.clone()).expect("step");
        link.step(tagged.clone()).expect("step");
        world.calls = 1;
        let report = step(&mut world, ReliabilityAction::MutateClient);
        assert!(!report.has_errors(), "{}", report.render());

        let forgetful = serving(world.fixture.server());
        let link = &mut world.transport.inner_mut().link;
        *link = forgetful;
        link.step(tagged).expect("step");
        let report = step(&mut world, ReliabilityAction::MutateClient);
        assert!(report.has_code("NRMI-P007"), "{}", report.render());
        assert_eq!(executions(&world.fixture), 2);
    }

    #[test]
    fn shared_two_connection_sequences_are_clean() {
        use SharedAction as S;
        assert_clean::<SharedModel>(&[
            // Interleaved seeding: both connections seed against the
            // same shared server and stay independent.
            &[S::CallA, S::CallB, S::CallA, S::CallB],
            // Dirty deltas cross the shared reply cache interleaved.
            &[
                S::CallA,
                S::CallB,
                S::MutateA,
                S::MutateB,
                S::CallA,
                S::CallB,
            ],
            // One connection evicts mid-stream; the other must not care.
            &[S::CallA, S::CallB, S::EvictA, S::CallB, S::CallA],
            // Eviction of a never-seeded session, then cross traffic.
            &[S::EvictB, S::CallA, S::CallB],
        ]);
    }

    #[test]
    fn shared_graph_coherence_sequences_are_clean() {
        use SharedGraphAction as G;
        assert_clean::<SharedGraphModel>(&[
            // Alternating calls: every call dirties the peer's leased
            // graph; every next call must see the CacheStale repair.
            &[G::CallA, G::CallB, G::CallA, G::CallB],
            // An unshipped local write races the peer's out-of-band
            // poke: the positional merge must let the client win.
            &[G::CallA, G::CallB, G::MutateA, G::CallA, G::CallB],
            // Both sides write locally, then both call: client-wins on
            // both roots, no repair patch may clobber either.
            &[
                G::CallA,
                G::CallB,
                G::MutateA,
                G::MutateB,
                G::CallA,
                G::CallB,
            ],
            // A's teardown while B holds a leased session on the same
            // heap: B's objects must survive, A reconnects via miss.
            &[G::CallA, G::CallB, G::DropA, G::CallB, G::CallA],
            // Teardown of a dirtied (incoherent) session, then reuse.
            &[G::CallA, G::CallB, G::MutateA, G::DropA, G::CallA],
            // Eviction after the peer poked the evicted graph: the
            // incoherent entry must leak, not free, and B stays intact.
            &[G::CallA, G::CallB, G::EvictA, G::CallB, G::CallA],
            // Teardown and eviction against never-seeded sessions.
            &[G::DropA, G::EvictB, G::CallA, G::CallB],
        ]);
    }

    #[test]
    fn pipelined_reply_routing_sequences_are_clean() {
        use PipelinedAction as P;
        assert_clean::<PipelinedModel>(&[
            // Plain pipelining: two in flight, collected in issue order.
            &[P::IssueA, P::IssueB, P::CollectA, P::CollectB],
            // Collected in reverse: the demux resolves B first and
            // parks A's reply for its later collect.
            &[P::IssueA, P::IssueB, P::CollectB, P::CollectA],
            // Replies cross on the wire: routing must follow call ids,
            // not arrival order.
            &[
                P::IssueA,
                P::IssueB,
                P::SwapReplies,
                P::CollectA,
                P::CollectB,
            ],
            // A's reply is lost: its collect retransmits and replays
            // from the cache while B's reply sits queued behind it.
            &[P::IssueA, P::IssueB, P::DropReply, P::CollectA, P::CollectB],
            // Collect with nothing in flight: the typed NoPendingCall
            // error, not a panic.
            &[P::IssueA, P::CollectA, P::CollectA],
            // Back-to-back rounds reuse the slots with evolved values.
            &[
                P::IssueA,
                P::CollectA,
                P::IssueB,
                P::IssueA,
                P::SwapReplies,
                P::CollectA,
                P::CollectB,
            ],
        ]);
    }

    #[test]
    fn reactor_dispatch_sequences_are_clean() {
        use ReactorAction as R;
        assert_clean::<ReactorModel>(&[
            // One call through the whole offload path.
            &[R::IssueA, R::RunJob, R::CollectA],
            // Both connections in flight; jobs drain in either order
            // relative to collects, replies route by connection.
            &[
                R::IssueA,
                R::IssueB,
                R::RunJob,
                R::RunJob,
                R::CollectB,
                R::CollectA,
            ],
            // Collect before the job ran: a no-op, then the real thing.
            &[R::IssueA, R::CollectA, R::RunJob, R::CollectA],
            // Retransmission of a queued call: ignored (in progress),
            // executed once, collected once.
            &[R::IssueA, R::RetransmitA, R::RunJob, R::CollectA],
            // Retransmission of an executed call: answered from the
            // cache, and the cached reply satisfies the collect.
            &[R::IssueA, R::RunJob, R::RetransmitA, R::CollectA],
            // Back-to-back rounds on one connection interleaved with
            // the other: consecutive calls land on different worker
            // heaps.
            &[
                R::IssueA,
                R::RunJob,
                R::CollectA,
                R::IssueB,
                R::IssueA,
                R::RunJob,
                R::RunJob,
                R::CollectA,
                R::CollectB,
            ],
        ]);
    }

    #[test]
    fn reactor_world_replays_retransmissions_from_the_cache() {
        use ReactorAction as R;
        let world = world_after::<ReactorModel>(&[
            R::IssueA,
            R::RetransmitA,
            R::RunJob,
            R::RetransmitA,
            R::CollectA,
        ]);
        assert_eq!(
            executions(&world.fixture),
            1,
            "two retransmissions around one execution must not re-execute"
        );
    }

    #[test]
    fn pipelined_world_counts_one_execution_per_issued_call() {
        use PipelinedAction as P;
        let world = world_after::<PipelinedModel>(&[
            P::IssueA,
            P::IssueB,
            P::DropReply,
            P::CollectA,
            P::CollectB,
        ]);
        assert_eq!(
            executions(&world.fixture),
            2,
            "the dropped reply's retransmission must replay, not re-execute"
        );
    }

    #[test]
    fn shared_world_counts_executions_across_connections() {
        use SharedAction as S;
        let world = world_after::<SharedModel>(&[S::CallA, S::CallB, S::CallA]);
        assert_eq!(
            executions(&world.fixture),
            3,
            "each connection's calls execute exactly once on the shared server"
        );
    }

    // Each invariant code fires when its oracle is handed a perturbed
    // world, so no model's judgement is a no-op.

    #[test]
    fn core_model_reports_p003_for_a_diverged_twin() {
        let mut world = world_after::<CoreModel>(&[Action::Call]);
        corrupt_twin(&mut world.ep);
        let report = step(&mut world, Action::Call);
        assert!(report.has_code("NRMI-P003"), "{}", report.render());
    }

    #[test]
    fn core_model_reports_p004_for_a_failed_call() {
        let mut world = world_after::<CoreModel>(&[Action::Call]);
        // A server with nothing bound: the next call cannot succeed.
        world.link = serving(ServerNode::new(
            world.fixture.registry.clone(),
            MachineSpec::fast(),
        ));
        let report = step(&mut world, Action::Call);
        assert!(report.has_code("NRMI-P004"), "{}", report.render());
    }

    #[test]
    fn core_model_reports_p005_for_a_generation_drift() {
        // The client forgets its second call: it will resend the
        // generation the server already moved past.
        let mut world = world_after::<CoreModel>(&[Action::Call, Action::Call]);
        let mut behind = world_after::<CoreModel>(&[Action::Call]);
        world.ep.client.warm = std::mem::take(&mut behind.ep.client.warm);
        let report = step(&mut world, Action::MutateClient);
        assert!(report.has_code("NRMI-P005"), "{}", report.render());
    }

    #[test]
    fn shared_model_reports_p008_for_a_diverged_connection() {
        use SharedAction as S;
        let mut world = world_after::<SharedModel>(&[S::CallA, S::CallB]);
        corrupt_twin(&mut world.eps[0]);
        let report = step(&mut world, S::MutateB);
        assert!(report.has_code("NRMI-P008"), "{}", report.render());
    }

    #[test]
    fn pipelined_model_reports_p009_for_a_misrouted_value() {
        use PipelinedAction as P;
        let mut world = world_after::<PipelinedModel>(&[P::IssueA, P::IssueB]);
        // Slot A's oracle (the endpoint's first tree) now expects
        // another value than A's call computes — exactly what a reply
        // resolved to B's call looks like from A's side.
        corrupt_twin(&mut world.ep);
        let report = step(&mut world, P::CollectA);
        assert!(report.has_code("NRMI-P009"), "{}", report.render());
    }

    #[test]
    fn reactor_model_reports_p010_for_a_reply_on_the_wrong_connection() {
        use ReactorAction as R;
        let mut world = world_after::<ReactorModel>(&[R::IssueA, R::IssueB, R::RunJob]);
        let reply = world.conns[0].inbox.pop_front().expect("A's reply");
        world.conns[1].inbox.push_back(reply);
        let report = step(&mut world, R::CollectB);
        assert!(report.has_code("NRMI-P010"), "{}", report.render());
    }

    #[test]
    fn shared_graph_model_reports_p011_for_a_stale_endpoint() {
        use SharedGraphAction as G;
        let mut world = world_after::<SharedGraphModel>(&[G::CallA, G::CallB]);
        corrupt_twin(&mut world.eps[0]);
        let report = step(&mut world, G::MutateB);
        assert!(report.has_code("NRMI-P011"), "{}", report.render());
    }

    /// A model whose every step fails.
    struct AlwaysFails;

    impl Model for AlwaysFails {
        type Action = bool;
        const NAME: &'static str = "always-fails";
        const ALPHABET: &'static [bool] = &[false, true];
        const DEPTH: usize = 2;

        fn new() -> Self {
            AlwaysFails
        }

        fn step(&mut self, _action: bool, report: &mut Report) {
            report.push(Diagnostic::error("NRMI-P003", "always fails"));
        }
    }

    #[test]
    fn error_budget_stops_the_whole_enumeration_once() {
        let report = enumerate(
            &[
                row::<AlwaysFails>(),
                row::<AlwaysFails>(),
                row::<CoreModel>(),
            ],
            &ModelCheckConfig {
                depth_cap: usize::MAX,
                max_errors: 1,
            },
        );
        assert_eq!(report.counts(), (1, 1, 1), "{}", report.render());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.message.contains("explored 1 sequences")),
            "{}",
            report.render()
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full-depth enumeration; run in release (CI check job)"
    )]
    fn full_depth_enumeration_is_clean() {
        let report = model_check(&ModelCheckConfig::default());
        assert!(!report.has_errors(), "{}", report.render());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.message.contains("explored 67282 sequences")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn judge_rejects_stale_service() {
        // A reply to a stale generation is the canonical state-corruption
        // bug; the judge must flag it.
        let diag = judge_reply(
            ReplyContext::StaleGeneration,
            &Frame::CallReply { payload: vec![] },
        )
        .expect("must be flagged");
        assert_eq!(diag.code, "NRMI-P004");
        assert!(judge_reply(ReplyContext::StaleGeneration, &Frame::CacheMiss).is_none());
        assert!(judge_reply(
            ReplyContext::GarbagePayload,
            &Frame::CallReply { payload: vec![] }
        )
        .is_some());
        assert!(judge_reply(ReplyContext::SeedCall, &Frame::CacheMiss).is_some());
        assert!(
            judge_reply(ReplyContext::WarmInStep, &Frame::CacheMiss).is_none(),
            "in-step miss is legal (invalidation)"
        );
    }
}
