//! The connection engine: the one frame-dispatch step under every serve
//! loop.
//!
//! The paper's server does one thing per call: decode, execute, reply
//! with restore data. [`Connection::on_frame`] is that step, written
//! once. It takes one decoded frame and reports what the connection
//! must do next — frames to write (appended to a buffer the caller owns
//! and reuses), a call to hand to a worker pool, a frame to escalate to
//! a thread that owns a node, or an orderly close — and never reads or
//! writes a socket itself. The only transport it touches is the
//! callback channel a remote-reference call uses to reach back to its
//! caller mid-call.
//!
//! The serve loops are I/O-only drivers over it:
//!
//! * the blocking driver ([`serve_blocking`](crate::server)) — one frame
//!   at a time on the connection's thread — serves
//!   [`serve_connection`](crate::serve_connection) (the in-process
//!   `Session`, `serve_tcp`) and pooled transports that cannot split;
//! * the pipelined reader/writer driver keeps reading while calls
//!   execute and offloads fresh pipelineable calls to its workers;
//! * the reactor classifies frames on its event loop with no node at
//!   all, so everything stateful escalates to a dedicated thread that
//!   replays it through the pipelined driver.
//!
//! What the engine owns, so no driver can drift from another:
//!
//! * **At-most-once.** A tagged call is classified by the reply cache's
//!   `begin` (which marks a fresh id executing in the same locked
//!   step), answered from the cache when it is a replay or evicted,
//!   dropped unanswered while another execution of it is in flight,
//!   and otherwise executed — here or on a worker — and `store`d.
//! * **The warm arm.** Warm calls and evictions go through
//!   `dispatch_warm_frame`, which puts `CacheStale` pushes for this
//!   connection's other sessions ahead of the call's own reply; the
//!   connection's warm sessions (and their leases) are released by
//!   [`Connection::close`] at teardown.
//! * Lookups, DGC cleans, and the protocol error for a frame a client
//!   may not send.
//! * **The offload decision**: a fresh tagged call leaves as
//!   [`Step::Offload`] when the driver runs workers, the schema allows
//!   execution on worker nodes (no remote-marked classes), and the
//!   call needs no connection state; [`run_offloaded`] is the worker's
//!   side of the same step.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nrmi_heap::Heap;
use nrmi_transport::{Frame, Transport, TransportError};

use crate::error::NrmiError;
use crate::node::ServerNode;
use crate::protocol::{server_handle_call, Callee};
use crate::reliable::{evicted_reply, ReplyDecision};
use crate::server::SharedServer;
use crate::warm::{dispatch_warm_frame, server_handle_warm_call, WarmCaches};

/// Where one engine step finds the server state it reads and writes.
#[derive(Debug)]
pub enum Host<'a> {
    /// A node serving its connections itself (`Session`, `serve_tcp`, a
    /// node behind one lock): the node's own reply cache and bindings.
    Node(&'a mut ServerNode),
    /// A connection of a lock-split [`SharedServer`]: the shared reply
    /// cache and bindings, plus the connection's private node — `None`
    /// on the reactor thread, where connections own no node until they
    /// escalate.
    Pool(&'a SharedServer, Option<&'a mut ServerNode>),
}

impl Host<'_> {
    fn begin(&mut self, nonce: u64, seq: u64) -> ReplyDecision {
        match self {
            Host::Node(node) => node.replies.begin(nonce, seq),
            Host::Pool(shared, _) => shared.replies.begin(nonce, seq),
        }
    }

    fn store(&mut self, nonce: u64, seq: u64, reply: &Frame) {
        match self {
            Host::Node(node) => node.replies.store(nonce, seq, reply),
            Host::Pool(shared, _) => shared.replies.store(nonce, seq, reply),
        }
    }

    fn is_bound(&self, name: &str) -> bool {
        match self {
            Host::Node(node) => node.is_bound(name),
            Host::Pool(shared, _) => shared.is_bound(name),
        }
    }

    fn node(&mut self) -> Option<&mut ServerNode> {
        match self {
            Host::Node(node) => Some(node),
            Host::Pool(_, node) => node.as_deref_mut(),
        }
    }
}

/// What the driver does after one engine step. Frames to write were
/// appended to the caller's buffer in the order they must leave.
#[derive(Debug)]
pub enum Step {
    /// Write the appended frames, then read the next frame.
    Continue,
    /// Hand the call to a worker ([`run_offloaded`]). The reply cache
    /// has marked `(nonce, seq)` executing.
    Offload {
        /// Session nonce of the call id.
        nonce: u64,
        /// Sequence number of the call id.
        seq: u64,
        /// The inner (untagged) call frame to execute.
        call: Frame,
    },
    /// The frame needs a connection node and the host has none: hand it,
    /// unprocessed, to a thread that owns one. The reply cache has not
    /// been consulted, so the escalated thread's `begin` is the first.
    Escalate(Frame),
    /// Orderly end of the connection (`Shutdown`).
    Close,
}

/// One connection's protocol state: its warm sessions, and whether its
/// driver offloads calls to workers.
#[derive(Debug)]
pub struct Connection {
    warm: WarmCaches,
    offload: bool,
}

impl Connection {
    /// A connection that executes every call on its driver's thread.
    pub fn new(warm: WarmCaches) -> Self {
        Connection {
            warm,
            offload: false,
        }
    }

    /// A connection whose driver runs a worker pool: fresh pipelineable
    /// tagged calls leave as [`Step::Offload`] when `shared`'s schema
    /// lets calls execute on worker nodes.
    pub fn with_workers(shared: &SharedServer, warm: WarmCaches) -> Self {
        Connection {
            warm,
            offload: shared.offloadable(),
        }
    }

    /// True when this connection's steps may offload.
    pub(crate) fn offloads(&self) -> bool {
        self.offload
    }

    /// The connection's warm sessions (for protocol checking).
    pub fn warm(&self) -> &WarmCaches {
        &self.warm
    }

    /// Connection teardown, orderly or not: releases the cached warm
    /// session graphs from `heap` — the warm analogue of DGC cleaning a
    /// disconnected client.
    pub fn close(&mut self, heap: &mut Heap) {
        self.warm.release_all(heap);
    }

    /// Runs one frame through the connection. Reply frames are appended
    /// to `out` (pushed `CacheStale` patches ahead of the reply they
    /// precede); `callbacks` carries a remote-reference call's mid-call
    /// traffic to the client.
    ///
    /// # Errors
    /// [`NrmiError::Protocol`] for a frame no client may send; the
    /// connection must end.
    pub fn on_frame(
        &mut self,
        mut host: Host<'_>,
        callbacks: &mut dyn Transport,
        frame: Frame,
        out: &mut Vec<Frame>,
    ) -> Result<Step, NrmiError> {
        match frame {
            Frame::Shutdown => return Ok(Step::Close),
            Frame::Lookup { name } => out.push(Frame::LookupReply {
                found: host.is_bound(&name),
            }),
            Frame::Tagged { nonce, seq, frame } => {
                let offload = self.offload && is_pipelineable(&frame);
                // A call this host would execute but has no node for
                // escalates before `begin`, so the escalated thread's
                // `begin` is the first.
                if !offload && host.node().is_none() {
                    return Ok(Step::Escalate(Frame::Tagged { nonce, seq, frame }));
                }
                match host.begin(nonce, seq) {
                    ReplyDecision::Replay(cached) => out.push(Frame::ReplyCached {
                        nonce,
                        seq,
                        frame: Box::new(cached),
                    }),
                    ReplyDecision::Evicted => out.push(Frame::ReplyCached {
                        nonce,
                        seq,
                        frame: Box::new(evicted_reply()),
                    }),
                    // A duplicate of a call executing right now — here or
                    // on another connection — gets no answer; the
                    // client's next retransmission replays the stored
                    // reply.
                    ReplyDecision::InProgress => {}
                    ReplyDecision::Fresh if offload => {
                        return Ok(Step::Offload {
                            nonce,
                            seq,
                            call: *frame,
                        })
                    }
                    ReplyDecision::Fresh => {
                        let node = host.node().expect("checked before begin");
                        let reply = execute(node, &mut self.warm, callbacks, *frame);
                        host.store(nonce, seq, &reply);
                        out.push(Frame::Tagged {
                            nonce,
                            seq,
                            frame: Box::new(reply),
                        });
                    }
                }
            }
            frame @ (Frame::CallRequest { .. }
            | Frame::CallObject { .. }
            | Frame::CallRequestWarm { .. }
            | Frame::CacheEvict { .. }
            | Frame::DgcClean { .. }) => {
                let Some(node) = host.node() else {
                    return Ok(Step::Escalate(frame));
                };
                match frame {
                    Frame::DgcClean { key } => {
                        node.state.exports.clean(key);
                    }
                    frame @ (Frame::CallRequestWarm { .. } | Frame::CacheEvict { .. }) => {
                        dispatch_warm_frame(node, &mut self.warm, callbacks, frame, out);
                    }
                    call => out.push(execute(node, &mut self.warm, callbacks, call)),
                }
            }
            // Callbacks addressed at the server's exports (a client
            // holding stubs to server objects between calls) are not
            // part of this protocol version, and replies never flow
            // client to server.
            other => return Err(NrmiError::Protocol(format!("unexpected frame {other:?}"))),
        }
        Ok(Step::Continue)
    }
}

/// The worker side of [`Step::Offload`]: executes the call against the
/// worker's private node, records the reply in the shared cache, and
/// returns the tagged reply for the connection that issued it.
pub fn run_offloaded(
    shared: &SharedServer,
    node: &mut ServerNode,
    nonce: u64,
    seq: u64,
    call: Frame,
) -> Frame {
    // Offloaded calls touch no warm session (see `is_pipelineable`).
    let reply = execute(node, &mut WarmCaches::new(), &mut NoCallbackTransport, call);
    shared.replies.store(nonce, seq, &reply);
    Frame::Tagged {
        nonce,
        seq,
        frame: Box::new(reply),
    }
}

/// Executes one call frame and returns its reply. Only call frames may
/// travel tagged; anything else is answered in-band with an error, so
/// the client's retry loop terminates instead of retransmitting forever.
fn execute(
    node: &mut ServerNode,
    warm: &mut WarmCaches,
    callbacks: &mut dyn Transport,
    call: Frame,
) -> Frame {
    match call {
        Frame::CallRequest {
            service,
            method,
            mode,
            payload,
        } => server_handle_call(
            node,
            callbacks,
            &method,
            Callee::Named(&service),
            mode,
            &payload,
        ),
        Frame::CallObject {
            key,
            method,
            mode,
            payload,
        } => server_handle_call(
            node,
            callbacks,
            &method,
            Callee::Exported(key),
            mode,
            &payload,
        ),
        Frame::CallRequestWarm {
            service,
            method,
            mode,
            cache_id,
            generation,
            payload,
        } => server_handle_warm_call(
            node, warm, callbacks, &service, &method, mode, cache_id, generation, &payload,
        ),
        other => Frame::CallError {
            message: format!("frame cannot carry a call id: {other:?}"),
        },
    }
}

/// Calls a worker may execute out of order against its own node: cold
/// named-service calls under a copy semantics. Remote-ref calls
/// interleave callbacks with the reply stream, warm calls mutate the
/// connection's cache generations, and object calls address the
/// connection node's export table — all of those stay on the
/// connection's own thread.
fn is_pipelineable(frame: &Frame) -> bool {
    match frame {
        Frame::CallRequest { mode, .. } => {
            crate::semantics::wire_mode_bits(*mode) != crate::semantics::MODE_REMOTE_REF
        }
        _ => false,
    }
}

/// The callback channel of steps that must never call back: worker
/// calls are gated to need no mid-call traffic, a host without a node
/// executes nothing, and a [`Loopback`] has no client to call. Any use
/// is a bug, surfaced as an in-band call error rather than a hang or a
/// cross-thread frame steal.
#[derive(Debug)]
pub struct NoCallbackTransport;

impl Transport for NoCallbackTransport {
    fn send(&mut self, _frame: &Frame) -> Result<(), TransportError> {
        Err(no_callbacks())
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        Err(no_callbacks())
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Result<Frame, TransportError> {
        self.recv()
    }
}

fn no_callbacks() -> TransportError {
    TransportError::Io(std::io::Error::other(
        "this engine step has no remote-reference callback channel",
    ))
}

/// Server state a [`Loopback`] steps the engine against: anything that
/// can lend a [`Host`] for the length of one step.
pub trait HostState {
    /// Runs `f` with this state as the step's host.
    fn with_host<R>(&mut self, f: impl FnOnce(Host<'_>) -> R) -> R;
}

/// A node serving its connections itself.
impl HostState for ServerNode {
    fn with_host<R>(&mut self, f: impl FnOnce(Host<'_>) -> R) -> R {
        f(Host::Node(self))
    }
}

/// One node shared by several loopback connections, each with its own
/// warm sessions — the shape of a node behind one lock.
impl HostState for Arc<Mutex<ServerNode>> {
    fn with_host<R>(&mut self, f: impl FnOnce(Host<'_>) -> R) -> R {
        f(Host::Node(
            &mut self.lock().expect("server node lock poisoned"),
        ))
    }
}

/// A pooled connection: the shared reply cache and bindings, plus the
/// connection's private node.
impl HostState for (Arc<SharedServer>, ServerNode) {
    fn with_host<R>(&mut self, f: impl FnOnce(Host<'_>) -> R) -> R {
        f(Host::Pool(&self.0, Some(&mut self.1)))
    }
}

/// The reactor thread: the shared state and no node, so every step that
/// would execute escalates or offloads.
impl HostState for Arc<SharedServer> {
    fn with_host<R>(&mut self, f: impl FnOnce(Host<'_>) -> R) -> R {
        f(Host::Pool(self, None))
    }
}

/// The engine's synchronous, in-process driver: one connection whose
/// frames are stepped the moment they are sent, on the sender's thread,
/// against server state the loopback owns. As a [`Transport`], `send`
/// runs the step and queues every frame it appends, in wire order, and
/// `recv` drains the queue. Every answer is queued before `send`
/// returns, so an empty queue is a reply that will never come; `recv`
/// reports it at once as a [`TransportError::Timeout`] instead of
/// blocking forever.
///
/// Drivers that must see each [`Step`] — to run an offloaded call on a
/// worker they schedule themselves — call [`Loopback::step`] directly.
#[derive(Debug)]
pub struct Loopback<S> {
    /// The server state every step runs against.
    pub server: S,
    /// The connection's engine state.
    pub conn: Connection,
    /// Frames the steps appended that the client has not received yet,
    /// in wire order.
    pub queue: VecDeque<Frame>,
}

impl<S: HostState> Loopback<S> {
    /// A loopback connection with an empty queue.
    pub fn new(server: S, conn: Connection) -> Self {
        Loopback {
            server,
            conn,
            queue: VecDeque::new(),
        }
    }

    /// Runs one frame through the engine and appends what it answers to
    /// the queue.
    ///
    /// # Errors
    /// [`NrmiError::Protocol`] for a frame no client may send.
    pub fn step(&mut self, frame: Frame) -> Result<Step, NrmiError> {
        let Loopback {
            server,
            conn,
            queue,
        } = self;
        let mut out = Vec::new();
        let step =
            server.with_host(|host| conn.on_frame(host, &mut NoCallbackTransport, frame, &mut out));
        queue.extend(out);
        step
    }

    /// Connection teardown, as a serve loop runs it when its client goes
    /// away: the connection's warm sessions are released and queued
    /// frames die with it. The reply cache is the server's and survives.
    /// The loopback then serves as a fresh connection.
    pub fn close(&mut self) {
        let Loopback {
            server,
            conn,
            queue,
        } = self;
        server.with_host(|mut host| {
            if let Some(node) = host.node() {
                conn.close(&mut node.state.heap);
            }
        });
        queue.clear();
    }
}

impl<S: HostState + Send> Transport for Loopback<S> {
    /// Steps `frame`. A frame the engine rejects ends the connection, as
    /// in every serve loop, and surfaces as the send's error; a step
    /// that must leave this thread (an offload or an escalation) has no
    /// driver to take it here.
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let fail = |message: String| Err(TransportError::Io(std::io::Error::other(message)));
        match self.step(frame.clone()) {
            Ok(Step::Continue) => Ok(()),
            Ok(Step::Close) => {
                self.close();
                Ok(())
            }
            Ok(step) => fail(format!("a loopback connection cannot run {step:?}")),
            Err(e) => {
                self.close();
                fail(e.to_string())
            }
        }
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        self.queue.pop_front().ok_or(TransportError::Timeout)
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Result<Frame, TransportError> {
        self.recv()
    }

    /// A fresh connection to the same server: [`Loopback::close`], then
    /// serve on.
    fn reconnect(&mut self) -> Result<bool, TransportError> {
        self.close();
        Ok(true)
    }
}
