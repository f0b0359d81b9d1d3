//! Spans recorded from outside the library, around the calls into each
//! layer's public functions, and the per-layer self times they yield.
//!
//! Client spans nest on the one client thread: an operation's root
//! [`Layer::Call`] span holds the protocol, warm and reliable spans, and
//! the reliable spans hold the raw transport spans. The server's service
//! bodies record their execute time from their own threads, keyed by the
//! operation id the benchmark passes as a call argument. Spans stay in
//! memory until the operation ends, outside its clock; they are then
//! folded into per-layer totals, so memory stays flat over a long run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nrmi_core::ReliableTransport;
use nrmi_transport::{Frame, Transport, TransportError};

use crate::probe;

/// A client-side layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One operation, as the benchmark's clock sees it.
    Call,
    /// `client_marshal_call`: linear map plus graph encode.
    Marshal,
    /// `client_apply_reply`: decode plus restore steps 4–6.
    Apply,
    /// `call_pipelined`: its self time splits into marshal (before the
    /// train is sent) and apply (after).
    Pipelined,
    /// `call_warm_with_stats`.
    Warm,
    /// One call into `ReliableTransport`.
    Reliable,
    /// One send into `TcpTransport`.
    Send,
    /// One receive from `TcpTransport`: waiting for the peer, which
    /// includes the server's share of the call.
    Recv,
}

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Client-thread allocation counter at start and end.
    allocs_start: u64,
    allocs_end: u64,
}

#[derive(Debug, Default)]
struct ClientLog {
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-layer totals over every traced operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Sum of the operations' durations.
    pub op_ns: u64,
    /// Root self time: operation time no layer span covers.
    pub unattributed_ns: u64,
    pub marshal_ns: u64,
    pub marshal_allocs: u64,
    pub apply_ns: u64,
    pub apply_allocs: u64,
    pub warm_ns: u64,
    pub warm_allocs: u64,
    pub reliable_ns: u64,
    pub send_ns: u64,
    pub recv_wait_ns: u64,
    pub execute_ns: u64,
}

impl LayerTotals {
    /// Share of operation time the layer spans account for.
    pub fn coverage(&self) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        1.0 - self.unattributed_ns as f64 / self.op_ns as f64
    }
}

/// Counters the transport wrappers keep whether or not spans are on.
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Call request payload bytes sent.
    pub request_bytes: AtomicU64,
    /// Call reply payload bytes received.
    pub reply_bytes: AtomicU64,
    /// `ReliableTransport::stats().retries`, as last seen.
    pub retries: AtomicU64,
    /// `ReliableTransport::stats().replays`, as last seen.
    pub replays: AtomicU64,
}

/// The span recorder one benchmark run shares between its client
/// wrappers and its server-side service bodies.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    client: Mutex<ClientLog>,
    /// `(op, execute ns)` for each service body run while enabled.
    server: Mutex<Vec<(u64, u64)>>,
    totals: Mutex<LayerTotals>,
    /// Always-on wire counters.
    pub wire: WireCounters,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            self.tracer.exit(index);
        }
    }
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            client: Mutex::new(ClientLog::default()),
            server: Mutex::new(Vec::new()),
            totals: Mutex::new(LayerTotals::default()),
            wire: WireCounters::default(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// True while spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts recording operation `op`'s spans. The caller opens the
    /// root [`Layer::Call`] span next.
    pub fn begin_op(&self, op: u64) {
        self.client.lock().expect("client span log").op = op;
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Stops recording and folds the finished operation's spans into
    /// the per-layer totals. Runs outside the operation's clock.
    pub fn end_op(&self) {
        self.enabled.store(false, Ordering::SeqCst);
        let mut log = self.client.lock().expect("client span log");
        let mut server = self.server.lock().expect("server span log");
        let op = log.op;
        let execute_ns = server
            .iter()
            .filter(|(o, _)| *o == op)
            .map(|(_, ns)| ns)
            .sum();
        let mut totals = self.totals.lock().expect("layer totals");
        fold(&log.spans, execute_ns, &mut totals);
        log.spans.clear();
        log.open.clear();
        server.clear();
    }

    /// Opens a span for `layer`; it closes when the guard drops. A no-op
    /// while disabled.
    pub fn span(&self, layer: Layer) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let allocs = probe::thread_allocs();
        let mut log = self.client.lock().expect("client span log");
        let index = log.spans.len();
        let parent = log.open.last().copied();
        log.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs_start: allocs,
            allocs_end: allocs,
        });
        log.open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    fn exit(&self, index: usize) {
        let allocs = probe::thread_allocs();
        let end_ns = self.now_ns();
        let mut log = self.client.lock().expect("client span log");
        let span = &mut log.spans[index];
        span.end_ns = end_ns;
        span.allocs_end = allocs;
        let popped = log.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
    }

    /// Runs a server-side service body for operation `op`, recording
    /// its duration when tracing is on.
    pub fn execute<R>(&self, op: u64, body: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return body();
        }
        let started = Instant::now();
        let result = body();
        let ns = started.elapsed().as_nanos() as u64;
        self.server.lock().expect("server span log").push((op, ns));
        result
    }

    /// The per-layer totals folded so far.
    pub fn totals(&self) -> LayerTotals {
        *self.totals.lock().expect("layer totals")
    }
}

/// Folds one operation's client spans (plus its server execute time)
/// into `totals`. A span's self time is its duration minus the part its
/// children cover; children of one span never overlap, since they run
/// on the same thread.
fn fold(spans: &[Span], execute_ns: u64, totals: &mut LayerTotals) {
    let n = spans.len();
    let mut child_ns = vec![0u64; n];
    let mut child_allocs = vec![0u64; n];
    let mut first_child: Vec<Option<usize>> = vec![None; n];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns - span.start_ns;
            child_allocs[p] += span.allocs_end - span.allocs_start;
            first_child[p].get_or_insert(i);
        }
    }
    for (i, span) in spans.iter().enumerate() {
        let self_ns = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
        let self_allocs = (span.allocs_end - span.allocs_start).saturating_sub(child_allocs[i]);
        match span.layer {
            Layer::Call => {
                totals.op_ns += span.end_ns - span.start_ns;
                totals.unattributed_ns += self_ns;
            }
            Layer::Marshal => {
                totals.marshal_ns += self_ns;
                totals.marshal_allocs += self_allocs;
            }
            Layer::Apply => {
                totals.apply_ns += self_ns;
                totals.apply_allocs += self_allocs;
            }
            Layer::Pipelined => {
                // Everything before the train reaches the transport is
                // marshalling; everything after, outside the transport,
                // is collecting and applying replies.
                let (pre_ns, pre_allocs) = match first_child[i] {
                    Some(c) => (
                        spans[c].start_ns - span.start_ns,
                        spans[c].allocs_start - span.allocs_start,
                    ),
                    None => (self_ns, self_allocs),
                };
                totals.marshal_ns += pre_ns;
                totals.marshal_allocs += pre_allocs;
                totals.apply_ns += self_ns.saturating_sub(pre_ns);
                totals.apply_allocs += self_allocs.saturating_sub(pre_allocs);
            }
            Layer::Warm => {
                totals.warm_ns += self_ns;
                totals.warm_allocs += self_allocs;
            }
            Layer::Reliable => totals.reliable_ns += self_ns,
            Layer::Send => totals.send_ns += self_ns,
            Layer::Recv => totals.recv_wait_ns += self_ns,
        }
    }
    totals.execute_ns += execute_ns;
}

/// The raw-socket boundary: times each send and receive into the
/// wrapped transport.
pub struct Wire<T> {
    inner: T,
    tracer: Arc<Tracer>,
}

impl<T: Transport> Wire<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        Wire { inner, tracer }
    }
}

impl<T: Transport> Transport for Wire<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let _span = self.tracer.span(Layer::Send);
        self.inner.send(frame)
    }

    fn send_batch(&mut self, frames: &[&Frame]) -> Result<(), TransportError> {
        let _span = self.tracer.span(Layer::Send);
        self.inner.send_batch(frames)
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        let _span = self.tracer.span(Layer::Recv);
        self.inner.recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, TransportError> {
        let _span = self.tracer.span(Layer::Recv);
        self.inner.recv_timeout(timeout)
    }

    fn reconnect(&mut self) -> Result<bool, TransportError> {
        self.inner.reconnect()
    }
}

/// The client stack every workload uses: `ReliableTransport` over the
/// timed TCP wrapper.
pub type ClientWire = Reliable<Wire<nrmi_transport::TcpTransport>>;

/// The reliable-delivery boundary: times each call into
/// `ReliableTransport`, counts call payload bytes, and mirrors its retry
/// counters.
pub struct Reliable<T> {
    inner: ReliableTransport<T>,
    tracer: Arc<Tracer>,
}

impl<T: Transport> Reliable<T> {
    /// Wraps `inner`.
    pub fn new(inner: ReliableTransport<T>, tracer: Arc<Tracer>) -> Self {
        Reliable { inner, tracer }
    }

    fn count_request(&self, frame: &Frame) {
        if let Frame::CallRequest { payload, .. } | Frame::CallRequestWarm { payload, .. } = frame {
            self.tracer
                .wire
                .request_bytes
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
        }
    }

    fn count_reply(&self, result: &Result<Frame, TransportError>) {
        if let Ok(Frame::CallReply { payload }) = result {
            self.tracer
                .wire
                .reply_bytes
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
        }
        let stats = self.inner.stats();
        self.tracer
            .wire
            .retries
            .store(stats.retries, Ordering::Relaxed);
        self.tracer
            .wire
            .replays
            .store(stats.replays, Ordering::Relaxed);
    }
}

impl<T: Transport> Transport for Reliable<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.count_request(frame);
        let _span = self.tracer.span(Layer::Reliable);
        self.inner.send(frame)
    }

    fn send_batch(&mut self, frames: &[&Frame]) -> Result<(), TransportError> {
        for frame in frames {
            self.count_request(frame);
        }
        let _span = self.tracer.span(Layer::Reliable);
        self.inner.send_batch(frames)
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        let result = {
            let _span = self.tracer.span(Layer::Reliable);
            self.inner.recv()
        };
        self.count_reply(&result);
        result
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, TransportError> {
        let result = {
            let _span = self.tracer.span(Layer::Reliable);
            self.inner.recv_timeout(timeout)
        };
        self.count_reply(&result);
        result
    }

    fn reconnect(&mut self) -> Result<bool, TransportError> {
        self.inner.reconnect()
    }
}

/// Connects the standard client stack to `addr`.
///
/// # Errors
/// Socket failures.
pub fn connect(
    addr: std::net::SocketAddr,
    tracer: &Arc<Tracer>,
) -> Result<ClientWire, TransportError> {
    let tcp = nrmi_transport::TcpTransport::connect(addr)?;
    let reliable = ReliableTransport::new(
        Wire::new(tcp, Arc::clone(tracer)),
        nrmi_core::RetryPolicy::default(),
    );
    Ok(Reliable::new(reliable, Arc::clone(tracer)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
            allocs_start: 0,
            allocs_end: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_server_share_is_kept_apart() {
        let spans = [
            span(Layer::Call, None, 0, 100),
            span(Layer::Marshal, Some(0), 2, 20),
            span(Layer::Reliable, Some(0), 20, 80),
            span(Layer::Send, Some(2), 22, 30),
            span(Layer::Recv, Some(2), 30, 78),
            span(Layer::Apply, Some(0), 80, 97),
        ];
        let mut totals = LayerTotals::default();
        fold(&spans, 40, &mut totals);
        assert_eq!(totals.op_ns, 100);
        assert_eq!(totals.unattributed_ns, 100 - 18 - 60 - 17);
        assert_eq!(totals.reliable_ns, 60 - 8 - 48);
        assert_eq!(totals.recv_wait_ns, 48);
        assert_eq!(totals.execute_ns, 40);
        assert!((totals.coverage() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn pipelined_self_time_splits_at_the_first_send() {
        let spans = [
            span(Layer::Call, None, 0, 100),
            span(Layer::Pipelined, Some(0), 1, 99),
            span(Layer::Reliable, Some(1), 30, 40),
            span(Layer::Reliable, Some(1), 50, 60),
        ];
        let mut totals = LayerTotals::default();
        fold(&spans, 0, &mut totals);
        assert_eq!(totals.marshal_ns, 29);
        assert_eq!(totals.apply_ns, 98 - 20 - 29);
        assert_eq!(totals.unattributed_ns, 2);
    }
}
