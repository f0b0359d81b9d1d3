//! Cross-driver conformance: one scripted frame sequence through every
//! serve loop — the blocking driver (as `Session` runs it), the pooled
//! server (`ServerPool::serve`, pipelined) and the reactor, the last two
//! over both TCP and Unix-domain sockets — must draw the same replies.
//! All of them drive the one connection engine; this test exists to
//! catch the next drift between them.

#![cfg(unix)]

use std::thread;
use std::time::Duration;

use nrmi::core::{
    client_evict_warm, client_invoke_warm_with_stats, client_marshal_call, serve_connection,
    CallOptions, ClientNode, FnService, NrmiError, ServerNode, ServerPool,
};
use nrmi::heap::{ClassRegistry, HeapAccess, ObjId, SharedRegistry, Value};
use nrmi::transport::{
    channel_pair, Frame, LinkSpec, MachineSpec, SocketListener, SocketStream, SocketTransport,
    StreamListener, TcpListenerTransport, Transport, TransportError, UdsListenerTransport,
};

const NONCE: u64 = 0x5EED_C0DE;

/// Every reply the script drew, in order; `Closed` marks the server
/// ending the connection.
#[derive(Debug, PartialEq)]
enum Seen {
    Frame(Frame),
    Closed,
}

fn registry() -> SharedRegistry {
    let mut reg = ClassRegistry::new();
    let _ = reg
        .define("Cell")
        .field_int("value")
        .restorable()
        .register();
    reg.snapshot()
}

/// `bump` adds one to its cell argument and returns the old value.
fn server(registry: &SharedRegistry) -> ServerNode {
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    server.bind(
        "bump",
        Box::new(FnService::new(|_m, args, heap| {
            let cell = args[0]
                .as_ref_id()
                .ok_or_else(|| NrmiError::app("want a cell"))?;
            let v = heap.get_field(cell, "value")?.as_int().unwrap_or(0);
            heap.set_field(cell, "value", Value::Int(v + 1))?;
            Ok(Value::Int(v))
        })),
    );
    server
}

/// Passes frames through, recording every frame the server sent.
struct Recorder<'a> {
    inner: &'a mut dyn Transport,
    seen: &'a mut Vec<Seen>,
}

impl Transport for Recorder<'_> {
    fn send(&mut self, frame: &Frame) -> nrmi::transport::Result<()> {
        self.inner.send(frame)
    }

    /// One write on the socket transports, so the server finds the
    /// whole batch already readable.
    fn send_batch(&mut self, frames: &[&Frame]) -> nrmi::transport::Result<()> {
        self.inner.send_batch(frames)
    }

    fn recv(&mut self) -> nrmi::transport::Result<Frame> {
        self.recv_timeout(Duration::from_secs(10))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> nrmi::transport::Result<Frame> {
        let frame = self.inner.recv_timeout(timeout)?;
        self.seen.push(Seen::Frame(frame.clone()));
        Ok(frame)
    }
}

/// Receives `n` frames and records them sorted by call id: the pipelined
/// and reactor drivers answer tagged calls out of order.
fn recv_by_call_id(wire: &mut Recorder<'_>, n: usize) {
    let mut batch: Vec<Frame> = (0..n)
        .map(|_| {
            wire.inner
                .recv_timeout(Duration::from_secs(10))
                .expect("reply")
        })
        .collect();
    batch.sort_by_key(|frame| match frame {
        Frame::Tagged { seq, .. } | Frame::ReplyCached { seq, .. } => *seq,
        _ => u64::MAX,
    });
    wire.seen.extend(batch.into_iter().map(Seen::Frame));
}

fn tagged(client: &mut ClientNode, cell: ObjId, seq: u64) -> Frame {
    let (call, _pending) = client_marshal_call(
        client,
        "bump",
        "bump",
        &[Value::Ref(cell)],
        CallOptions::auto(),
    )
    .expect("marshal");
    Frame::Tagged {
        nonce: NONCE,
        seq,
        frame: Box::new(call),
    }
}

/// The main script, ending in a frame no client may send.
fn script(registry: &SharedRegistry, transport: &mut dyn Transport) -> Vec<Seen> {
    let mut seen = Vec::new();
    let mut wire = Recorder {
        inner: transport,
        seen: &mut seen,
    };
    let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
    let class = registry.by_name("Cell").expect("registered");
    let cell = client
        .state
        .heap
        .alloc(class, vec![Value::Int(10)])
        .expect("alloc");

    // Lookup hit and miss.
    for name in ["bump", "absent"] {
        wire.send(&Frame::Lookup { name: name.into() })
            .expect("send");
        wire.recv().expect("lookup reply");
    }

    // A fresh tagged cold call, then a duplicate of its id once the
    // first has answered: the duplicate replays the cached reply.
    let first = tagged(&mut client, cell, 1);
    wire.send(&first).expect("send");
    recv_by_call_id(&mut wire, 1);
    wire.send(&first).expect("send duplicate");
    recv_by_call_id(&mut wire, 1);

    // Two calls in flight at once, compared by call id.
    let (second, third) = (tagged(&mut client, cell, 2), tagged(&mut client, cell, 3));
    wire.send_batch(&[&second, &third]).expect("send batch");
    recv_by_call_id(&mut wire, 2);

    // An untagged call — the reactor escalates the connection on it —
    // with tagged calls and a lookup behind it in the same write: the
    // frames after the trigger are answered too, tagged ones compared
    // by call id.
    let (untagged, _pending) = client_marshal_call(
        &mut client,
        "bump",
        "bump",
        &[Value::Ref(cell)],
        CallOptions::auto(),
    )
    .expect("marshal");
    let (fourth, fifth) = (tagged(&mut client, cell, 4), tagged(&mut client, cell, 5));
    let lookup = Frame::Lookup {
        name: "bump".into(),
    };
    wire.send_batch(&[&untagged, &fourth, &fifth, &lookup])
        .expect("send batch");
    recv_by_call_id(&mut wire, 4);

    // A warm seed, a warm call over a dirtied graph, an eviction.
    for v in [20, 30] {
        client
            .state
            .heap
            .set_field(cell, "value", Value::Int(v))
            .expect("write");
        let (ret, _) = client_invoke_warm_with_stats(
            &mut client,
            &mut wire,
            "bump",
            "bump",
            &[Value::Ref(cell)],
        )
        .expect("warm call");
        assert_eq!(ret, Value::Int(v));
    }
    client_evict_warm(&mut client, &mut wire, "bump").expect("evict");

    // A DGC clean (no reply); the lookup after it shows the connection
    // is still served.
    wire.send(&Frame::DgcClean { key: 99 }).expect("send");
    wire.send(&Frame::Lookup {
        name: "bump".into(),
    })
    .expect("send");
    wire.recv().expect("lookup reply");

    // Replies never flow client to server: the connection must end.
    wire.send(&Frame::LookupReply { found: true })
        .expect("send");
    match wire.recv() {
        Err(TransportError::Disconnected | TransportError::Io(_)) => wire.seen.push(Seen::Closed),
        other => panic!("an unexpected frame must end the connection, got {other:?}"),
    }
    seen
}

/// A second connection: one lookup, then an orderly `Shutdown`.
fn shutdown_script(transport: &mut dyn Transport) -> Vec<Seen> {
    let mut seen = Vec::new();
    let mut wire = Recorder {
        inner: transport,
        seen: &mut seen,
    };
    wire.send(&Frame::Lookup {
        name: "bump".into(),
    })
    .expect("send");
    wire.recv().expect("lookup reply");
    wire.send(&Frame::Shutdown).expect("send");
    match wire.recv() {
        Err(TransportError::Disconnected | TransportError::Io(_)) => wire.seen.push(Seen::Closed),
        other => panic!("Shutdown must end the connection, got {other:?}"),
    }
    seen
}

fn blocking_driver(registry: &SharedRegistry) -> (Vec<Seen>, Vec<Seen>) {
    let mut node = server(registry);
    let mut runs = Vec::new();
    for main in [true, false] {
        let (mut client_t, mut server_t) = channel_pair(None, LinkSpec::free());
        let served = thread::spawn(move || {
            let result = serve_connection(&mut node, &mut server_t);
            (node, result)
        });
        runs.push(if main {
            script(registry, &mut client_t)
        } else {
            shutdown_script(&mut client_t)
        });
        let result;
        (node, result) = served.join().expect("serve thread");
        match (main, result) {
            (true, Err(NrmiError::Protocol(msg))) => assert!(msg.contains("unexpected frame")),
            (false, Ok(())) => {}
            (main, other) => panic!("main script {main}: serve loop ended with {other:?}"),
        }
    }
    let shutdown = runs.pop().expect("two runs");
    (runs.pop().expect("two runs"), shutdown)
}

/// Where a listener can be dialed.
type Peer<L> = <<L as StreamListener>::Stream as SocketStream>::Peer;

/// Runs both scripts against a pooled or reactor server on `listener`.
fn socket_driver<L: StreamListener>(
    registry: &SharedRegistry,
    (listener, peer): (SocketListener<L>, Peer<L>),
    reactor: bool,
) -> (Vec<Seen>, Vec<Seen>) {
    let pool = ServerPool::new();
    let handle = if reactor {
        pool.serve_reactor(server(registry), listener)
            .expect("serve_reactor")
    } else {
        pool.serve(server(registry), listener)
    };
    let connect = || SocketTransport::<L::Stream>::dial(peer.clone()).expect("connect");
    let main = script(registry, &mut connect());
    let shutdown = shutdown_script(&mut connect());
    handle.shutdown().expect("server shutdown");
    (main, shutdown)
}

fn tcp() -> (TcpListenerTransport, std::net::SocketAddr) {
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    (listener, addr)
}

fn uds(tag: &str) -> (UdsListenerTransport, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!("nrmi-conformance-{tag}-{}", std::process::id()));
    (UdsListenerTransport::bind(&path).expect("bind"), path)
}

#[test]
fn every_driver_answers_the_script_identically() {
    let registry = registry();
    let blocking = blocking_driver(&registry);
    assert!(
        matches!(
            blocking.0[0],
            Seen::Frame(Frame::LookupReply { found: true })
        ),
        "script starts with a lookup hit: {:?}",
        blocking.0
    );
    assert!(
        blocking
            .0
            .iter()
            .any(|s| matches!(s, Seen::Frame(Frame::ReplyCached { seq: 1, .. }))),
        "the duplicate id is answered from the reply cache"
    );
    let pooled = socket_driver(&registry, tcp(), false);
    assert_eq!(blocking, pooled, "blocking driver vs pooled TCP");
    let reactor = socket_driver(&registry, tcp(), true);
    assert_eq!(blocking, reactor, "blocking driver vs reactor");
}

#[test]
fn pooled_and_reactor_drivers_answer_identically_over_unix_sockets() {
    let registry = registry();
    let blocking = blocking_driver(&registry);
    let pooled = socket_driver(&registry, uds("pooled"), false);
    assert_eq!(blocking, pooled, "blocking driver vs pooled UDS");
    let reactor = socket_driver(&registry, uds("reactor"), true);
    assert_eq!(blocking, reactor, "blocking driver vs reactor over UDS");
}
