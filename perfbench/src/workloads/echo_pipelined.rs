//! `echo-pipelined`: trains of 16 tiny `Int` calls spread over 4
//! services, issued with `call_pipelined` against
//! `ServerPool::serve_reactor`. There is almost no graph work, so the
//! per-call cost is framing, the reliable request map, reactor dispatch
//! and worker handoff.
//!
//! Oracle: each reply is `v + 1` for the `v` sent in its own slot.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use nrmi_core::{
    FnService, NrmiError, PipelinedCall, RemoteSession, ServeHandle, ServerNode, ServerPool,
};
use nrmi_heap::{ClassRegistry, HeapAccess, Value};
use nrmi_transport::MachineSpec;

use super::{bind, mix, op_arg, stop, OpOutcome, Workload};
use crate::trace::{self, ClientWire, Layer, Tracer};

/// Calls per pipelined train.
pub const TRAIN: usize = 16;
/// Services the train is spread over.
pub const SERVICES: usize = 4;

/// The running workload.
pub struct EchoPipelined {
    seed: u64,
    session: RemoteSession<ClientWire>,
    server: ServeHandle,
    sent: Vec<i32>,
    calls: Vec<PipelinedCall>,
    results: Vec<Result<Value, NrmiError>>,
    tracer: Arc<Tracer>,
}

/// The oracle: the number of slots whose reply is not `v + 1`.
pub fn mismatches(sent: &[i32], results: &[Result<Value, NrmiError>]) -> usize {
    let missing = sent.len().abs_diff(results.len());
    let wrong = sent
        .iter()
        .zip(results)
        .filter(|(v, got)| !matches!(got, Ok(Value::Int(r)) if *r == **v + 1))
        .count();
    missing + wrong
}

/// Starts the reactor server with the echo services bound.
fn serve(tracer: &Arc<Tracer>) -> Result<(ServeHandle, std::net::SocketAddr), NrmiError> {
    let mut server = ServerNode::new(ClassRegistry::new().snapshot(), MachineSpec::fast());
    for s in 0..SERVICES {
        let server_tracer = Arc::clone(tracer);
        server.bind(
            format!("echo{s}"),
            Box::new(FnService::new(
                move |_method: &str, args: &[Value], _heap: &mut dyn HeapAccess| {
                    server_tracer.execute(op_arg(args, 1), || {
                        let v = args.first().and_then(Value::as_int).unwrap_or(0);
                        Ok(Value::Int(v.wrapping_add(1)))
                    })
                },
            )),
        );
    }
    let (listener, addr) = bind()?;
    Ok((ServerPool::new().serve_reactor(server, listener)?, addr))
}

impl Workload for EchoPipelined {
    const CALLS_PER_OP: u64 = TRAIN as u64;
    const WARM: bool = false;

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Result<Self, NrmiError> {
        let (handle, addr) = serve(tracer)?;
        let registry = ClassRegistry::new().snapshot();
        let session = RemoteSession::over(registry, trace::connect(addr, tracer)?);
        Ok(EchoPipelined {
            seed,
            session,
            server: handle,
            sent: Vec::with_capacity(TRAIN),
            calls: Vec::with_capacity(TRAIN),
            results: Vec::new(),
            tracer: Arc::clone(tracer),
        })
    }

    fn prepare(&mut self, op: u64) {
        self.sent.clear();
        self.calls.clear();
        for i in 0..TRAIN {
            let v = (mix(self.seed, op * TRAIN as u64 + i as u64) % 2_000_000) as i32 - 1_000_000;
            self.sent.push(v);
            self.calls.push(PipelinedCall::new(
                format!("echo{}", i % SERVICES),
                "inc",
                vec![Value::Int(v), Value::Int(op as i32)],
            ));
        }
    }

    fn execute(&mut self, _op: u64) -> Result<OpOutcome, NrmiError> {
        let wire = &self.tracer.wire;
        let (request0, reply0) = (
            wire.request_bytes.load(Ordering::Relaxed),
            wire.reply_bytes.load(Ordering::Relaxed),
        );
        self.results = {
            let _span = self.tracer.span(Layer::Pipelined);
            self.session.call_pipelined(&self.calls)?
        };
        Ok(OpOutcome {
            request_bytes: wire.request_bytes.load(Ordering::Relaxed) - request0,
            reply_bytes: wire.reply_bytes.load(Ordering::Relaxed) - reply0,
            ..OpOutcome::default()
        })
    }

    fn verify(&mut self, op: u64) -> Result<(), String> {
        let results = std::mem::take(&mut self.results);
        match mismatches(&self.sent, &results) {
            0 => Ok(()),
            n => Err(format!(
                "op {op}: {n} of {TRAIN} replies are not v + 1 in their slot"
            )),
        }
    }

    fn client_live_objects(&mut self) -> usize {
        self.session.heap().live_count()
    }

    fn finish(self) -> Result<(), String> {
        let _ = self.session.close();
        stop(self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrmi_core::{ReliableTransport, RetryPolicy};
    use nrmi_transport::{Frame, TcpTransport, Transport, TransportError};
    use std::time::Duration;

    /// Swaps the bodies of the first two call replies off the wire,
    /// keeping their call ids: each lands in the other's slot.
    struct SwapReplies {
        inner: TcpTransport,
        held: Option<Frame>,
        swapped: bool,
    }

    impl SwapReplies {
        fn tamper(&mut self, frame: Frame) -> Result<Frame, TransportError> {
            let Frame::Tagged {
                nonce,
                seq,
                frame: body,
            } = frame
            else {
                return Ok(frame);
            };
            if self.swapped {
                return Ok(Frame::Tagged {
                    nonce,
                    seq,
                    frame: body,
                });
            }
            match self.held.take() {
                None => {
                    self.held = Some(Frame::Tagged {
                        nonce,
                        seq,
                        frame: body,
                    });
                    let next = self.inner.recv()?;
                    self.tamper(next)
                }
                Some(Frame::Tagged {
                    nonce: n0,
                    seq: s0,
                    frame: b0,
                }) => {
                    self.swapped = true;
                    self.held = Some(Frame::Tagged {
                        nonce: n0,
                        seq: s0,
                        frame: body,
                    });
                    Ok(Frame::Tagged {
                        nonce,
                        seq,
                        frame: b0,
                    })
                }
                Some(other) => Ok(other),
            }
        }
    }

    impl Transport for SwapReplies {
        fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
            self.inner.send(frame)
        }

        fn send_batch(&mut self, frames: &[&Frame]) -> Result<(), TransportError> {
            self.inner.send_batch(frames)
        }

        fn recv(&mut self) -> Result<Frame, TransportError> {
            if self.swapped {
                if let Some(held) = self.held.take() {
                    return Ok(held);
                }
            }
            let frame = self.inner.recv()?;
            self.tamper(frame)
        }

        fn recv_timeout(&mut self, _timeout: Duration) -> Result<Frame, TransportError> {
            self.recv()
        }
    }

    fn train(op: u64) -> (Vec<i32>, Vec<PipelinedCall>) {
        let sent: Vec<i32> = (0..TRAIN as i32).map(|i| i * 10).collect();
        let calls = sent
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                PipelinedCall::new(
                    format!("echo{}", i % SERVICES),
                    "inc",
                    vec![Value::Int(v), Value::Int(op as i32)],
                )
            })
            .collect();
        (sent, calls)
    }

    #[test]
    fn oracle_passes_a_clean_train_and_catches_swapped_replies() {
        let tracer = Tracer::new();
        let (handle, addr) = serve(&tracer).unwrap();
        let registry = ClassRegistry::new().snapshot();

        let mut clean =
            RemoteSession::over(registry.clone(), trace::connect(addr, &tracer).unwrap());
        let (sent, calls) = train(1);
        let results = clean.call_pipelined(&calls).unwrap();
        assert_eq!(mismatches(&sent, &results), 0);
        clean.close().unwrap();

        let swap = SwapReplies {
            inner: TcpTransport::connect(addr).unwrap(),
            held: None,
            swapped: false,
        };
        let mut corrupt = RemoteSession::over(
            registry,
            ReliableTransport::new(swap, RetryPolicy::default()),
        );
        let (sent, calls) = train(2);
        let results = corrupt.call_pipelined(&calls).unwrap();
        assert_eq!(
            mismatches(&sent, &results),
            2,
            "both swapped slots are caught"
        );
        corrupt.close().unwrap();
        stop(handle).unwrap();
    }

    #[test]
    fn a_short_train_counts_its_missing_slots() {
        let sent = [1, 2, 3];
        let results = vec![Ok(Value::Int(2)), Ok(Value::Int(3))];
        assert_eq!(mismatches(&sent, &results), 1);
    }
}
