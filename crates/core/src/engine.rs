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
//!   all, so a frame that needs one escalates: a dedicated thread takes
//!   the connection and that frame, and reads the rest itself through
//!   the pipelined driver.
//!
//! Every step consults its connection's server — the [`SharedServer`]
//! every node of that server holds — for bindings and the reply cache,
//! and executes against the node the driver hands it, if any.
//!
//! What the engine owns, so no driver can drift from another:
//!
//! * **At-most-once.** A tagged call is classified by the server's
//!   reply cache's `begin` (which marks a fresh id executing in the
//!   same locked step), answered from the cache when it is a replay or
//!   evicted, dropped unanswered while another execution of it is in
//!   flight, and otherwise executed — here or on a worker — and
//!   `store`d.
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

use nrmi_transport::{Frame, Transport, TransportError};

use crate::error::NrmiError;
use crate::node::ServerNode;
use crate::protocol::{server_handle_call, Callee};
use crate::reliable::{evicted_reply, ReplyDecision};
use crate::server::SharedServer;
use crate::warm::{dispatch_warm_frame, server_handle_warm_call, WarmCaches};

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
    /// The frame needs a connection node and the step has none: hand it,
    /// unprocessed, to a thread that owns one. The reply cache has not
    /// been consulted, so the escalated thread's `begin` is the first.
    Escalate(Frame),
    /// Orderly end of the connection (`Shutdown`).
    Close,
}

/// One connection's protocol state: the server it belongs to (whose
/// reply cache and bindings every step consults), its warm sessions,
/// and whether its driver offloads calls to workers.
#[derive(Debug)]
pub struct Connection {
    server: Arc<SharedServer>,
    warm: WarmCaches,
    offload: bool,
}

impl Connection {
    /// A connection to `server` that executes every call on its
    /// driver's thread.
    pub fn new(server: Arc<SharedServer>) -> Self {
        Connection {
            server,
            warm: WarmCaches::new(),
            offload: false,
        }
    }

    /// A connection to `server` whose driver runs a worker pool: fresh
    /// pipelineable tagged calls leave as [`Step::Offload`] when the
    /// server's schema lets calls execute on worker nodes.
    pub fn with_workers(server: Arc<SharedServer>) -> Self {
        let offload = server.offloadable();
        Connection {
            server,
            warm: WarmCaches::new(),
            offload,
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
    /// session graphs from `node`'s heap — the warm analogue of DGC
    /// cleaning a disconnected client.
    pub fn close(&mut self, node: &mut ServerNode) {
        self.warm
            .release_all(&mut node.state.heap, &mut node.leases);
    }

    /// Runs one frame through the connection against `node` — or, on
    /// the reactor thread, against the server's shared state alone, in
    /// which case every frame that needs a node escalates. Reply frames
    /// are appended to `out` (pushed `CacheStale` patches ahead of the
    /// reply they precede); `callbacks` carries a remote-reference
    /// call's mid-call traffic to the client.
    ///
    /// # Errors
    /// [`NrmiError::Protocol`] for a frame no client may send; the
    /// connection must end.
    pub fn on_frame(
        &mut self,
        node: Option<&mut ServerNode>,
        callbacks: &mut dyn Transport,
        frame: Frame,
        out: &mut Vec<Frame>,
    ) -> Result<Step, NrmiError> {
        debug_assert!(
            node.as_ref()
                .is_none_or(|node| Arc::ptr_eq(&node.shared, &self.server)),
            "a connection steps against nodes of its own server"
        );
        match frame {
            Frame::Shutdown => return Ok(Step::Close),
            Frame::Lookup { name } => out.push(Frame::LookupReply {
                found: self.server.is_bound(&name),
            }),
            Frame::Tagged { nonce, seq, frame } => {
                let offload = self.offload && is_pipelineable(&frame);
                // A call this step would execute but has no node for
                // escalates before `begin`, so the escalated thread's
                // `begin` is the first.
                if !offload && node.is_none() {
                    return Ok(Step::Escalate(Frame::Tagged { nonce, seq, frame }));
                }
                match self.server.replies.begin(nonce, seq) {
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
                        let node = node.expect("checked before begin");
                        let reply = execute(node, &mut self.warm, callbacks, *frame);
                        self.server.replies.store(nonce, seq, &reply);
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
                let Some(node) = node else {
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
/// worker's private node, records the reply in its server's cache, and
/// returns the tagged reply for the connection that issued it.
pub fn run_offloaded(node: &mut ServerNode, nonce: u64, seq: u64, call: Frame) -> Frame {
    // Offloaded calls touch no warm session (see `is_pipelineable`).
    let reply = execute(node, &mut WarmCaches::new(), &mut NoCallbackTransport, call);
    node.shared.replies.store(nonce, seq, &reply);
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
/// calls are gated to need no mid-call traffic, a step without a node
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

/// Server state a [`Loopback`] steps the engine against: a node, or the
/// reactor thread's shared state alone.
pub trait HostState {
    /// Runs `f` with this state's node, if it has one, for the length
    /// of one step.
    fn with_node<R>(&mut self, f: impl FnOnce(Option<&mut ServerNode>) -> R) -> R;
}

/// A node serving its connections itself.
impl HostState for ServerNode {
    fn with_node<R>(&mut self, f: impl FnOnce(Option<&mut ServerNode>) -> R) -> R {
        f(Some(self))
    }
}

/// One node shared by several loopback connections, each with its own
/// warm sessions — the shape of a node behind one lock.
impl HostState for Arc<Mutex<ServerNode>> {
    fn with_node<R>(&mut self, f: impl FnOnce(Option<&mut ServerNode>) -> R) -> R {
        f(Some(&mut self.lock().expect("server node lock poisoned")))
    }
}

/// The reactor thread: the shared state and no node, so every step that
/// would execute escalates or offloads.
impl HostState for Arc<SharedServer> {
    fn with_node<R>(&mut self, f: impl FnOnce(Option<&mut ServerNode>) -> R) -> R {
        f(None)
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
            server.with_node(|node| conn.on_frame(node, &mut NoCallbackTransport, frame, &mut out));
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
        server.with_node(|node| {
            if let Some(node) = node {
                conn.close(node);
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
