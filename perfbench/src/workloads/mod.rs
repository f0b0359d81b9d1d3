//! The three closed-loop workloads. Each keeps one client thread and one
//! loopback TCP connection open for its whole run.

pub mod cold_tree;
pub mod echo_pipelined;
pub mod warm_large;

use std::sync::Arc;

use nrmi_core::{NrmiError, ServeHandle};
use nrmi_heap::Value;
use nrmi_transport::TcpListenerTransport;

use crate::trace::Tracer;

/// What one operation reports besides its latency.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpOutcome {
    /// Request payload bytes.
    pub request_bytes: u64,
    /// Reply payload bytes.
    pub reply_bytes: u64,
    /// Old objects restored in place (steps 4–6).
    pub restored_objects: u64,
    /// New objects spliced into the caller's graph.
    pub new_objects: u64,
    /// Coherence patches applied during the call.
    pub stale_patches: u64,
}

impl OpOutcome {
    /// Adds another operation's counts to these.
    pub fn add(&mut self, other: &OpOutcome) {
        self.request_bytes += other.request_bytes;
        self.reply_bytes += other.reply_bytes;
        self.restored_objects += other.restored_objects;
        self.new_objects += other.new_objects;
        self.stale_patches += other.stale_patches;
    }

    fn from_stats(stats: &nrmi_core::CallStats) -> Self {
        OpOutcome {
            request_bytes: stats.request_bytes as u64,
            reply_bytes: stats.reply_bytes as u64,
            restored_objects: stats.restored_objects as u64,
            new_objects: stats.new_objects as u64,
            stale_patches: stats.stale_patches,
        }
    }
}

/// A workload the runner drives through set-up, a closed loop of
/// prepare → execute (the timed part) → verify, and tear-down.
pub trait Workload: Sized {
    /// Remote calls in one operation.
    const CALLS_PER_OP: u64;
    /// True when the calls go through the warm-session protocol, whose
    /// byte counts are reported under the `warm` layer.
    const WARM: bool;

    /// Binds the server, connects the client and builds the inputs.
    ///
    /// # Errors
    /// Socket and set-up failures.
    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Result<Self, NrmiError>;

    /// Builds operation `op`'s inputs. Not timed.
    fn prepare(&mut self, op: u64);

    /// Runs operation `op`. This is what the clock measures.
    ///
    /// # Errors
    /// Any call failure.
    fn execute(&mut self, op: u64) -> Result<OpOutcome, NrmiError>;

    /// Checks operation `op`'s results against the oracle and collects
    /// the client heap. Not timed.
    ///
    /// # Errors
    /// A description of the first mismatch.
    fn verify(&mut self, op: u64) -> Result<(), String>;

    /// Live objects on the client heap after its collection.
    fn client_live_objects(&mut self) -> usize;

    /// Final checks, then closes the connection and stops the server.
    ///
    /// # Errors
    /// A final-state mismatch or a server that fails to stop cleanly.
    fn finish(self) -> Result<(), String>;
}

/// Binds a loopback listener on an ephemeral port.
fn bind() -> Result<(TcpListenerTransport, std::net::SocketAddr), NrmiError> {
    let listener = TcpListenerTransport::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// Stops a server pool, surfacing a failure.
fn stop(handle: ServeHandle) -> Result<(), String> {
    handle
        .shutdown()
        .map(drop)
        .map_err(|e| format!("server did not stop cleanly: {e}"))
}

/// The operation id the benchmark appends to a call's arguments, which
/// links server execute spans to the client operation.
fn op_arg(args: &[Value], at: usize) -> u64 {
    args.get(at).and_then(Value::as_int).unwrap_or(-1) as u64
}

/// Input `i` of the run seeded with `seed` (SplitMix64).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
