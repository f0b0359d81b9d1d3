//! The connection engine's decision table: each frame kind a client can
//! send, against each reply-cache decision and each host a serve loop
//! steps it on (a node serving alone, a pooled connection with workers,
//! the reactor thread with no node), mapped to the step and the frames
//! it appends.

use std::sync::Arc;

use nrmi_core::{
    client_marshal_call, run_offloaded, CallOptions, ClientNode, Connection, FnService,
    NoCallbackTransport, ReplyDecision, ServerNode, Step,
};
use nrmi_heap::{ClassRegistry, SharedRegistry, Value};
use nrmi_transport::{Frame, MachineSpec};

const NONCE: u64 = 7;

#[derive(Clone, Copy, Debug)]
enum HostKind {
    /// `serve_connection`, or a node behind one lock.
    Node,
    /// The pipelined driver: a node and a worker pool.
    PoolWithWorkers,
    /// The reactor thread: workers, no node.
    Reactor,
}

#[derive(Clone, Copy, Debug)]
enum Decision {
    Fresh,
    Replay,
    Evicted,
    InProgress,
}

fn registry() -> SharedRegistry {
    let mut reg = ClassRegistry::new();
    reg.define("Cell")
        .field_int("value")
        .restorable()
        .register();
    reg.snapshot()
}

fn server(registry: &SharedRegistry) -> ServerNode {
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    server.bind(
        "svc",
        Box::new(FnService::new(|_m, _args, _h| Ok(Value::Int(1)))),
    );
    server
}

/// A cold call (`warm: false`) or a warm seed, with a real payload.
fn call(registry: &SharedRegistry, warm: bool) -> Frame {
    let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
    let class = registry.by_name("Cell").expect("registered");
    let cell = client
        .state
        .heap
        .alloc(class, vec![Value::Int(3)])
        .expect("alloc");
    let opts = CallOptions::copy_restore_delta();
    let (frame, _) =
        client_marshal_call(&mut client, "svc", "m", &[Value::Ref(cell)], opts).expect("marshal");
    let Frame::CallRequest { mode, payload, .. } = frame else {
        unreachable!("named calls marshal to CallRequest")
    };
    if warm {
        Frame::CallRequestWarm {
            service: "svc".into(),
            method: "m".into(),
            mode,
            cache_id: 1,
            generation: 0,
            payload,
        }
    } else {
        Frame::CallRequest {
            service: "svc".into(),
            method: "m".into(),
            mode,
            payload,
        }
    }
}

fn kind(frame: &Frame) -> String {
    match frame {
        Frame::Tagged { frame, .. } => format!("Tagged({})", kind(frame)),
        Frame::ReplyCached { frame, .. } => format!("ReplyCached({})", kind(frame)),
        Frame::LookupReply { found } => format!("LookupReply({found})"),
        Frame::CallRequest { .. } => "CallRequest".into(),
        Frame::CallRequestWarm { .. } => "CallRequestWarm".into(),
        Frame::CallReply { .. } => "CallReply".into(),
        Frame::CallError { .. } => "CallError".into(),
        other => format!("{other:?}"),
    }
}

/// Runs `frame` through a fresh connection on `host_kind`, with the
/// reply cache primed so a tagged call meets `decision`, and renders the
/// step and the frames it appended.
fn run(host_kind: HostKind, frame: Frame, decision: Decision) -> String {
    let registry = registry();
    let mut node = server(&registry);
    let shared = Arc::clone(node.shared());
    // Priming stores seq 5; an evicted id is one below the session's
    // executed watermark with no cached reply.
    let seq = match decision {
        Decision::Evicted => 3,
        _ => 5,
    };
    let frame = match frame {
        Frame::Tagged { frame, .. } => Frame::Tagged {
            nonce: NONCE,
            seq,
            frame,
        },
        other => other,
    };
    let cached = Frame::CallReply { payload: vec![] };
    match decision {
        Decision::Fresh => {}
        Decision::Replay | Decision::Evicted => shared.replies.store(NONCE, 5, &cached),
        Decision::InProgress => {
            assert_eq!(shared.replies.begin(NONCE, 5), ReplyDecision::Fresh)
        }
    }
    let mut pooled = shared.connection_node();
    let (mut conn, node) = match host_kind {
        HostKind::Node => (Connection::new(Arc::clone(&shared)), Some(&mut node)),
        HostKind::PoolWithWorkers => (
            Connection::with_workers(Arc::clone(&shared)),
            Some(&mut pooled),
        ),
        HostKind::Reactor => (Connection::with_workers(Arc::clone(&shared)), None),
    };
    let mut out = Vec::new();
    let step = match conn.on_frame(node, &mut NoCallbackTransport, frame, &mut out) {
        Ok(Step::Continue) => "Continue".to_owned(),
        Ok(Step::Offload { seq: s, .. }) => {
            assert_eq!(s, seq);
            "Offload".to_owned()
        }
        Ok(Step::Escalate(frame)) => {
            // Escalation happens before the reply cache is asked.
            if let (Decision::Fresh, Frame::Tagged { .. }) = (decision, &frame) {
                assert_eq!(shared.replies.begin(NONCE, seq), ReplyDecision::Fresh);
            }
            format!("Escalate({})", kind(&frame))
        }
        Ok(Step::Close) => "Close".to_owned(),
        Err(e) => format!("Err({})", e.to_string().split(' ').next().unwrap_or("")),
    };
    let frames: Vec<String> = out.iter().map(kind).collect();
    format!("{step} {}", frames.join(" ")).trim_end().to_owned()
}

#[test]
fn frame_kind_by_decision_table() {
    use Decision::*;
    use HostKind::*;
    let registry = registry();
    let cold = call(&registry, false);
    let warm = call(&registry, true);
    let tag = |frame: &Frame| Frame::Tagged {
        nonce: NONCE,
        seq: 0,
        frame: Box::new(frame.clone()),
    };
    let lookup = Frame::Lookup { name: "svc".into() };
    let miss = Frame::Lookup { name: "no".into() };
    let dgc = Frame::DgcClean { key: 1 };
    let evict = Frame::CacheEvict { cache_id: 1 };
    let table: Vec<(HostKind, Frame, Decision, &str)> = vec![
        // Untagged traffic.
        (Node, lookup.clone(), Fresh, "Continue LookupReply(true)"),
        (Node, miss.clone(), Fresh, "Continue LookupReply(false)"),
        (Reactor, lookup.clone(), Fresh, "Continue LookupReply(true)"),
        (Node, Frame::Shutdown, Fresh, "Close"),
        (Reactor, Frame::Shutdown, Fresh, "Close"),
        (Node, dgc.clone(), Fresh, "Continue"),
        (Reactor, dgc, Fresh, "Escalate(DgcClean { key: 1 })"),
        (Node, cold.clone(), Fresh, "Continue CallReply"),
        (PoolWithWorkers, cold.clone(), Fresh, "Continue CallReply"),
        (Reactor, cold.clone(), Fresh, "Escalate(CallRequest)"),
        (Node, warm.clone(), Fresh, "Continue CallReply"),
        (Reactor, warm.clone(), Fresh, "Escalate(CallRequestWarm)"),
        (Node, evict.clone(), Fresh, "Continue"),
        (
            Reactor,
            evict,
            Fresh,
            "Escalate(CacheEvict { cache_id: 1 })",
        ),
        (Node, Frame::Ack, Fresh, "Err(protocol)"),
        (Reactor, Frame::Ack, Fresh, "Err(protocol)"),
        // Tagged cold calls: the at-most-once arms, and the offload.
        (Node, tag(&cold), Fresh, "Continue Tagged(CallReply)"),
        (Node, tag(&cold), Replay, "Continue ReplyCached(CallReply)"),
        (Node, tag(&cold), Evicted, "Continue ReplyCached(CallError)"),
        (Node, tag(&cold), InProgress, "Continue"),
        (PoolWithWorkers, tag(&cold), Fresh, "Offload"),
        (
            PoolWithWorkers,
            tag(&cold),
            Replay,
            "Continue ReplyCached(CallReply)",
        ),
        (
            PoolWithWorkers,
            tag(&cold),
            Evicted,
            "Continue ReplyCached(CallError)",
        ),
        (PoolWithWorkers, tag(&cold), InProgress, "Continue"),
        (Reactor, tag(&cold), Fresh, "Offload"),
        (
            Reactor,
            tag(&cold),
            Replay,
            "Continue ReplyCached(CallReply)",
        ),
        (
            Reactor,
            tag(&cold),
            Evicted,
            "Continue ReplyCached(CallError)",
        ),
        (Reactor, tag(&cold), InProgress, "Continue"),
        // Tagged warm calls never offload; without a node they escalate
        // before the cache is asked.
        (Node, tag(&warm), Fresh, "Continue Tagged(CallReply)"),
        (
            PoolWithWorkers,
            tag(&warm),
            Fresh,
            "Continue Tagged(CallReply)",
        ),
        (
            PoolWithWorkers,
            tag(&warm),
            Replay,
            "Continue ReplyCached(CallReply)",
        ),
        (
            PoolWithWorkers,
            tag(&warm),
            Evicted,
            "Continue ReplyCached(CallError)",
        ),
        (PoolWithWorkers, tag(&warm), InProgress, "Continue"),
        (
            Reactor,
            tag(&warm),
            Fresh,
            "Escalate(Tagged(CallRequestWarm))",
        ),
        (
            Reactor,
            tag(&warm),
            Replay,
            "Escalate(Tagged(CallRequestWarm))",
        ),
        // A tagged non-call is answered in-band, not executed.
        (Node, tag(&lookup), Fresh, "Continue Tagged(CallError)"),
    ];
    for (host, frame, decision, want) in table {
        let got = run(host, frame.clone(), decision);
        assert_eq!(got, want, "{host:?} × {} × {decision:?}", kind(&frame));
    }
}

/// The worker side of an offload executes, stores, and tags.
#[test]
fn run_offloaded_stores_and_tags_the_reply() {
    let registry = registry();
    let shared = Arc::clone(server(&registry).shared());
    let mut worker = shared.connection_node();
    assert_eq!(shared.replies.begin(NONCE, 1), ReplyDecision::Fresh);
    let reply = run_offloaded(&mut worker, NONCE, 1, call(&registry, false));
    let Frame::Tagged { nonce, seq, frame } = reply else {
        panic!("worker replies are tagged");
    };
    assert_eq!((nonce, seq), (NONCE, 1));
    assert!(matches!(*frame, Frame::CallReply { .. }));
    assert_eq!(
        shared.replies.begin(NONCE, 1),
        ReplyDecision::Replay(*frame),
        "the reply is in the shared cache"
    );
}
