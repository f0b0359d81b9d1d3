//! At-most-once delivery: call ids, client retry, and the server reply
//! cache.
//!
//! NRMI's pitch is that a remote call behaves like a local call — but a
//! local call never executes twice. A naive retry after a lost reply
//! re-runs the remote routine, and under copy-restore that re-applies
//! the routine's mutations to the caller's graph: the one failure mode
//! worse than failing. This module closes that hole with the classic
//! at-most-once construction (Birrell & Nelson's RPC, RFC-style
//! request ids):
//!
//! * every call frame is wrapped in [`Frame::Tagged`] with a call id —
//!   a per-session random `nonce` plus a monotone `seq`;
//! * the server remembers the reply for each executed id in a bounded
//!   [`ReplyCache`]; a retransmitted id is answered from the cache
//!   ([`Frame::ReplyCached`]) *without re-executing*;
//! * the client's [`ReliableTransport`] retries per a [`RetryPolicy`]
//!   (deadline, capped exponential backoff with jitter, max attempts)
//!   and transparently reconnects socket transports, so the caller sees
//!   either exactly-once-effect success or a
//!   [`TransportError::DeadlineExceeded`] — never a duplicate effect.
//!
//! The reply cache is byte-capped. When a retransmission arrives for a
//! call whose reply was evicted, the server answers with a definite
//! error ([`REPLY_EVICTED`]) rather than re-executing: at-most-once is
//! preserved at the price of an explicit failure, the same trade RMI's
//! DGC makes under lease expiry. A duplicate that lands on a *second*
//! connection while the original is still executing (a reconnect
//! retransmission) is held off by an in-progress marker
//! ([`ReplyCache::begin`]) — dropped, never run a second time.
//!
//! Retry is sound for the copy semantics (copy, copy-restore, DCE,
//! warm deltas): the request payload is immutable once marshalled, and
//! the effect lands only when a reply is applied. It is *not* offered
//! for remote-reference calls mid-flight callbacks mutate the caller —
//! resending those is application-level replay, which no transport can
//! make safe.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use nrmi_transport::{Frame, Transport, TransportError};

/// Error message a server sends when a retransmitted call already
/// executed but its cached reply was evicted. The effect happened
/// exactly once; only the reply is gone.
pub const REPLY_EVICTED: &str =
    "call executed but its reply was evicted from the at-most-once cache";

/// Client retry schedule for [`ReliableTransport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Overall per-call budget: once this much wall-clock time has
    /// passed since the request was first sent, the call fails with
    /// [`TransportError::DeadlineExceeded`].
    pub deadline: Duration,
    /// How long to wait for a reply before retransmitting.
    pub attempt_timeout: Duration,
    /// Maximum send attempts (first send included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Randomize each backoff to 50–100% of its nominal value, so a
    /// fleet of clients recovering from one outage does not
    /// retransmit in lockstep.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline: Duration::from_secs(30),
            attempt_timeout: Duration::from_secs(2),
            max_attempts: 8,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// A fast-failing policy for tests and in-process links: short
    /// waits, no backoff sleep.
    pub fn aggressive() -> Self {
        RetryPolicy {
            deadline: Duration::from_secs(2),
            attempt_timeout: Duration::from_millis(50),
            max_attempts: 6,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        }
    }

    /// Nominal backoff before attempt `attempt + 1` (0-based completed
    /// attempts), jittered into `[half, full]` when enabled.
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        let nominal = self
            .base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff);
        if !self.jitter {
            return nominal;
        }
        // 50–100% of nominal, from a self-contained xorshift stream.
        let r = xorshift64(rng) % 512;
        nominal.mul_f64(0.5 + (r as f64) / 1024.0)
    }
}

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Allocates a session nonce, without pulling in an RNG dependency.
///
/// The nonce mixes two independently keyed `RandomState` (SipHash)
/// outputs over a process-wide counter; the entropy comes from the
/// OS-randomized hasher keys. Within one process, the counter makes
/// nonces distinct. Across processes, collisions are birthday-bounded:
/// two concurrently tracked sessions collide with probability about
/// `n^2 / 2^65`, under one in a billion for tens of thousands of
/// sessions — and the server only tracks the most recent
/// [`DEFAULT_REPLY_CACHE_NONCES`] sessions at all.
///
/// A collision is not a safety hole for execution (seqs still advance
/// per client) but can cross-deliver one client's cached reply — or a
/// spurious [`REPLY_EVICTED`] error — to the other. Deployments that
/// cannot tolerate that at scale should mint nonces from a real CSPRNG
/// (or a connection-scoped identity) and pass them through
/// [`ReliableTransport::with_nonce`].
pub fn fresh_nonce() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0x6e72_6d69); // "nrmi"
    let tick = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut h1 = RandomState::new().build_hasher();
    h1.write_u64(tick);
    let mut h2 = RandomState::new().build_hasher();
    h2.write_u64(tick ^ 0x9e37_79b9_7f4a_7c15);
    let n = h1.finish() ^ h2.finish().rotate_left(32);
    // A zero nonce would seed a degenerate xorshift stream.
    if n == 0 {
        1
    } else {
        n
    }
}

/// Counters a [`ReliableTransport`] accumulates, for benchmarks and
/// assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Call requests issued (unique calls, not attempts).
    pub calls: u64,
    /// Retransmissions (attempts beyond the first, across all calls).
    pub retries: u64,
    /// Replies served from the server's duplicate-suppression cache.
    pub replays: u64,
    /// Stale envelopes (late replies to abandoned attempts) discarded.
    pub stale_discarded: u64,
    /// Successful transport reconnects.
    pub reconnects: u64,
    /// Calls that failed with a deadline error.
    pub deadline_failures: u64,
}

/// One request awaiting its reply.
#[derive(Debug)]
struct InFlight {
    /// The full `Tagged` envelope, kept verbatim for retransmission.
    request: Frame,
    deadline: Instant,
    attempts: u32,
    /// True when the last send failed (or timed out) and the request
    /// must be retransmitted before waiting again.
    needs_send: bool,
    /// Earliest instant a pending retransmission may go out (backoff).
    next_send: Instant,
    /// When the request last reached the wire (drives the attempt
    /// window).
    last_sent: Instant,
}

/// A resolved call whose reply has not been collected yet.
#[derive(Debug)]
enum Outcome {
    Reply(Frame),
    Deadline { attempts: u32 },
}

/// A [`Transport`] decorator that makes every call at-most-once with a
/// deadline — and multiplexes any number of concurrent calls over one
/// connection.
///
/// Call frames (`CallRequest`, `CallObject`, `CallRequestWarm`) are
/// stamped with a call id on send and entered into a request map keyed
/// by seq; the receive path is a demux that routes every incoming
/// `Tagged`/[`Frame::ReplyCached`] envelope to the matching pending
/// call, so N calls can be in flight at once ([`send_call`] issues,
/// [`recv_reply`] collects a specific one, out of order). Per-call
/// deadlines, attempt windows, capped backoff, and transparent
/// reconnect are preserved per entry in the map.
///
/// `recv`/`recv_timeout` keep their historical single-call contract:
/// they collect the *oldest* uncollected call. A `recv_timeout` whose
/// window closes while the call still has budget returns
/// [`TransportError::Timeout`] with the call kept in flight — a
/// recoverable poll; the next `recv` resumes it. Only a call's own
/// deadline or attempt budget yields
/// [`TransportError::DeadlineExceeded`], which abandons that call (and
/// only that call). Asking for a reply no call is pending — or one
/// already consumed — is a typed [`TransportError::NoPendingCall`]
/// error, never a panic. All other frames (callback replies, lookups,
/// shutdown, DGC) pass through untouched, so the decorated transport
/// drops into every existing client path unchanged.
///
/// [`send_call`]: ReliableTransport::send_call
/// [`recv_reply`]: ReliableTransport::recv_reply
pub struct ReliableTransport<T> {
    inner: T,
    policy: RetryPolicy,
    nonce: u64,
    next_seq: u64,
    /// Requests still awaiting a reply, keyed by seq.
    pending: HashMap<u64, InFlight>,
    /// Issue order of every call not yet collected (pending or
    /// completed) — what plain `recv` walks.
    order: VecDeque<u64>,
    /// Replies (and per-call deadline failures) that resolved while the
    /// caller was waiting on a different seq.
    completed: HashMap<u64, Outcome>,
    /// Earliest instant any pending call could need pump attention
    /// (retransmission due, attempt window lapse, or deadline), refreshed
    /// by every full [`pump_sends`](Self::pump_sends) walk. Lets the
    /// receive loop's per-reply pump return in O(1) while every event is
    /// still in the future. `None` means stale — the next pump must walk.
    /// Invariant: when `Some`, it is ≤ the true earliest event (events
    /// only move later between walks; mutations that could move one
    /// earlier reset this to `None`).
    next_pump: Option<Instant>,
    rng: u64,
    stats: RetryStats,
}

impl<T: std::fmt::Debug> std::fmt::Debug for ReliableTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableTransport")
            .field("inner", &self.inner)
            .field("nonce", &self.nonce)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<T: Transport> ReliableTransport<T> {
    /// Wraps `inner` with a fresh session nonce.
    pub fn new(inner: T, policy: RetryPolicy) -> Self {
        let nonce = fresh_nonce();
        ReliableTransport::with_nonce(inner, policy, nonce)
    }

    /// Wraps `inner` with an explicit nonce (deterministic tests and the
    /// model checker).
    pub fn with_nonce(inner: T, policy: RetryPolicy, nonce: u64) -> Self {
        ReliableTransport {
            inner,
            policy,
            nonce,
            next_seq: 0,
            pending: HashMap::new(),
            order: VecDeque::new(),
            completed: HashMap::new(),
            next_pump: None,
            rng: nonce | 1,
            stats: RetryStats::default(),
        }
    }

    /// Accumulated retry counters.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// The session nonce stamped on every call.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Borrows the decorated transport (e.g. to inspect link state).
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutably borrows the decorated transport (e.g. to arm a fault on
    /// an in-process link between calls).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the decorated transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn is_call(frame: &Frame) -> bool {
        matches!(
            frame,
            Frame::CallRequest { .. } | Frame::CallObject { .. } | Frame::CallRequestWarm { .. }
        )
    }

    /// Sends a frame, tagging call frames with a fresh call id and
    /// entering them into the request map. Returns the call's seq
    /// (collect it with [`recv_reply`](ReliableTransport::recv_reply)),
    /// or `None` for non-call traffic, which passes through untagged.
    ///
    /// Any number of calls may be outstanding at once; this is the
    /// pipelined issue path. A `Disconnected` on the initial send is
    /// absorbed (reconnect, then retransmit from the receive loop), the
    /// same as every later attempt.
    ///
    /// # Errors
    /// Connection-fatal send errors (not `Disconnected`); the call is
    /// not entered into the map.
    pub fn send_call(&mut self, frame: &Frame) -> Result<Option<u64>, TransportError> {
        if !Self::is_call(frame) {
            self.inner.send(frame)?;
            return Ok(None);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let request = Frame::Tagged {
            nonce: self.nonce,
            seq,
            frame: Box::new(frame.clone()),
        };
        self.stats.calls += 1;
        let now = Instant::now();
        let mut fl = InFlight {
            request,
            deadline: now + self.policy.deadline,
            attempts: 1,
            needs_send: false,
            next_send: now,
            last_sent: now,
        };
        match self.inner.send(&fl.request) {
            Ok(()) => {}
            Err(TransportError::Disconnected) => {
                // Defer to the receive loop: reconnect here and
                // retransmit there. The caller always follows a call
                // send with a receive.
                if matches!(self.inner.reconnect(), Ok(true)) {
                    self.stats.reconnects += 1;
                }
                let pause = self.policy.backoff(fl.attempts, &mut self.rng);
                fl.needs_send = true;
                fl.next_send = now + pause;
            }
            Err(e) => return Err(e),
        }
        self.pending.insert(seq, fl);
        self.order.push_back(seq);
        self.next_pump = None;
        Ok(Some(seq))
    }

    /// Pipelined issue path for a whole train of calls: every frame is
    /// tagged and entered into the request map exactly as
    /// [`send_call`](ReliableTransport::send_call) would, but the train
    /// reaches the wire through one [`Transport::send_batch`] — a single
    /// vectored write on socket transports. Returns the seqs in issue
    /// order.
    ///
    /// A `Disconnected` on the batch send is absorbed the same way as a
    /// single call's lost first send: reconnect, queue the *entire*
    /// train for retransmission, and let the receive loop resend (the
    /// at-most-once ids make the retransmission safe even if a prefix
    /// of the train reached the peer before the connection died).
    /// Trains containing non-call traffic fall back to per-frame sends
    /// so ordering against untagged frames is preserved.
    ///
    /// # Errors
    /// Connection-fatal send errors (not `Disconnected`); the train is
    /// not entered into the map.
    pub fn send_call_batch(&mut self, frames: &[&Frame]) -> Result<Vec<u64>, TransportError> {
        if frames.iter().any(|f| !Self::is_call(f)) {
            let mut seqs = Vec::new();
            for frame in frames {
                if let Some(seq) = self.send_call(frame)? {
                    seqs.push(seq);
                }
            }
            return Ok(seqs);
        }
        let now = Instant::now();
        let mut seqs = Vec::with_capacity(frames.len());
        for frame in frames {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.stats.calls += 1;
            let request = Frame::Tagged {
                nonce: self.nonce,
                seq,
                frame: Box::new((*frame).clone()),
            };
            self.pending.insert(
                seq,
                InFlight {
                    request,
                    deadline: now + self.policy.deadline,
                    attempts: 1,
                    needs_send: false,
                    next_send: now,
                    last_sent: now,
                },
            );
            self.order.push_back(seq);
            seqs.push(seq);
        }
        let result = {
            let batch: Vec<&Frame> = seqs.iter().map(|s| &self.pending[s].request).collect();
            self.inner.send_batch(&batch)
        };
        match result {
            Ok(()) => {}
            Err(TransportError::Disconnected) => {
                if matches!(self.inner.reconnect(), Ok(true)) {
                    self.stats.reconnects += 1;
                }
                for seq in &seqs {
                    if let Some(fl) = self.pending.get_mut(seq) {
                        let pause = self.policy.backoff(fl.attempts, &mut self.rng);
                        fl.needs_send = true;
                        fl.next_send = now + pause;
                    }
                }
            }
            Err(e) => {
                for seq in &seqs {
                    self.pending.remove(seq);
                }
                self.order.retain(|s| !seqs.contains(s));
                return Err(e);
            }
        }
        self.next_pump = None;
        Ok(seqs)
    }

    /// Calls issued and not yet collected (pending or already resolved
    /// and waiting for their [`recv_reply`](ReliableTransport::recv_reply)).
    pub fn pending_calls(&self) -> usize {
        self.order.len()
    }

    /// Blocks until the call issued as `seq` resolves, running the
    /// retry machinery for *every* pending call while it waits: replies
    /// for other calls are routed to their map entries (collected later,
    /// out of order), retransmissions go out when any call's attempt
    /// window lapses, and a call that exhausts its budget resolves to a
    /// per-call [`TransportError::DeadlineExceeded`] without disturbing
    /// its neighbors.
    ///
    /// # Errors
    /// [`TransportError::NoPendingCall`] if `seq` was never issued or
    /// its reply was already consumed; per-call deadline errors;
    /// connection-fatal transport errors (which abandon all pending
    /// calls).
    pub fn recv_reply(&mut self, seq: u64) -> Result<Frame, TransportError> {
        self.recv_reply_inner(seq, None)
    }

    /// [`recv_reply`](ReliableTransport::recv_reply) with a caller-side
    /// poll window: when it closes first, returns a recoverable
    /// [`TransportError::Timeout`] with the call still in flight.
    ///
    /// # Errors
    /// As [`recv_reply`](ReliableTransport::recv_reply), plus
    /// [`TransportError::Timeout`] when the window closes.
    pub fn recv_reply_timeout(
        &mut self,
        seq: u64,
        timeout: Duration,
    ) -> Result<Frame, TransportError> {
        self.recv_reply_inner(seq, Some(timeout))
    }

    /// The demux loop behind [`recv_reply`](ReliableTransport::recv_reply):
    /// waits for `seq` while pumping sends and routing every incoming
    /// envelope to its map entry. Returns mid-call callback frames
    /// (non-envelope traffic) to the caller, who answers them and calls
    /// again.
    fn recv_reply_inner(
        &mut self,
        seq: u64,
        extra: Option<Duration>,
    ) -> Result<Frame, TransportError> {
        let poll_deadline = extra.map(|t| Instant::now() + t);
        loop {
            if let Some(outcome) = self.completed.remove(&seq) {
                self.order.retain(|&s| s != seq);
                return match outcome {
                    Outcome::Reply(frame) => Ok(frame),
                    Outcome::Deadline { attempts } => {
                        Err(TransportError::DeadlineExceeded { attempts })
                    }
                };
            }
            if !self.pending.contains_key(&seq) {
                return Err(TransportError::NoPendingCall { seq: Some(seq) });
            }
            let now = Instant::now();
            self.pump_sends(now)?;
            if self.completed.contains_key(&seq) || !self.pending.contains_key(&seq) {
                continue;
            }
            if poll_deadline.is_some_and(|p| now >= p) {
                // The caller's poll window closed; this is the caller's
                // timeout, not the server's — every call stays in
                // flight, resumable by a later receive.
                return Err(TransportError::Timeout);
            }
            let wait = self.next_wait(now, poll_deadline);
            match self.inner.recv_timeout(wait) {
                Ok(Frame::Tagged {
                    nonce,
                    seq: rseq,
                    frame,
                }) => self.route_reply(nonce, rseq, *frame, false),
                Ok(Frame::ReplyCached {
                    nonce,
                    seq: rseq,
                    frame,
                }) => self.route_reply(nonce, rseq, *frame, true),
                // A mid-call frame from the server (remote-pointer
                // callback): hand it up; the caller's loop answers it
                // through us and keeps waiting.
                Ok(other) => return Ok(other),
                // Quiet window: the next pump_sends marks and
                // retransmits whatever lapsed.
                Err(TransportError::Timeout) => {}
                Err(TransportError::Disconnected) => {
                    if matches!(self.inner.reconnect(), Ok(true)) {
                        self.stats.reconnects += 1;
                    }
                    // A lost connection loses every unanswered request:
                    // queue them all for retransmission.
                    let now = Instant::now();
                    for fl in self.pending.values_mut() {
                        fl.needs_send = true;
                        fl.next_send = now;
                    }
                    self.next_pump = None;
                }
                Err(e) => return self.fail_all(e),
            }
        }
    }

    /// Walks every pending call once: marks lapsed attempt windows for
    /// retransmission, resolves calls that exhausted their deadline or
    /// attempt budget into per-call failures, and puts due
    /// retransmissions on the wire (issue order).
    ///
    /// # Errors
    /// Connection-fatal send errors, which abandon all pending calls.
    fn pump_sends(&mut self, now: Instant) -> Result<(), TransportError> {
        // Every event the walk acts on is at or after `next_pump`; while
        // that instant is still in the future the whole walk is a no-op,
        // so the per-reply pump in the receive loop costs one comparison
        // instead of an allocation and a scan of every pending call.
        if self.next_pump.is_some_and(|np| now < np) {
            return Ok(());
        }
        let mut next_pump: Option<Instant> = None;
        let seqs: Vec<u64> = self
            .order
            .iter()
            .copied()
            .filter(|s| self.pending.contains_key(s))
            .collect();
        for seq in seqs {
            let Some(mut fl) = self.pending.remove(&seq) else {
                continue;
            };
            if !fl.needs_send && now.duration_since(fl.last_sent) >= self.policy.attempt_timeout {
                fl.needs_send = true;
                fl.next_send = now + self.policy.backoff(fl.attempts, &mut self.rng);
            }
            let exhausted = now >= fl.deadline
                || (fl.needs_send
                    && (fl.attempts >= self.policy.max_attempts || fl.next_send >= fl.deadline));
            if exhausted {
                self.stats.deadline_failures += 1;
                self.completed.insert(
                    seq,
                    Outcome::Deadline {
                        attempts: fl.attempts,
                    },
                );
                continue;
            }
            if fl.needs_send && now >= fl.next_send {
                fl.attempts += 1;
                if fl.attempts > 1 {
                    self.stats.retries += 1;
                }
                match self.inner.send(&fl.request) {
                    Ok(()) => {
                        fl.needs_send = false;
                        fl.last_sent = now;
                    }
                    Err(TransportError::Disconnected) => {
                        if matches!(self.inner.reconnect(), Ok(true)) {
                            self.stats.reconnects += 1;
                        }
                        // Still needs_send: the next pump retries after
                        // a backoff (bounded by max_attempts and the
                        // deadline).
                        fl.next_send = now + self.policy.backoff(fl.attempts, &mut self.rng);
                    }
                    Err(e) => {
                        self.pending.insert(seq, fl);
                        return self.fail_all(e).map(|_| ());
                    }
                }
            }
            let event = if fl.needs_send {
                fl.next_send
            } else {
                fl.last_sent + self.policy.attempt_timeout
            }
            .min(fl.deadline);
            next_pump = Some(next_pump.map_or(event, |np| np.min(event)));
            self.pending.insert(seq, fl);
        }
        self.next_pump = next_pump;
        Ok(())
    }

    /// A connection-fatal error: every pending call is lost. Resolved
    /// outcomes already in `completed` stay collectable.
    fn fail_all(&mut self, e: TransportError) -> Result<Frame, TransportError> {
        self.pending.clear();
        let completed = &self.completed;
        self.order.retain(|s| completed.contains_key(s));
        Err(e)
    }

    /// Routes an incoming reply envelope to its map entry; anything not
    /// matching a pending call (wrong nonce, abandoned or already
    /// resolved seq) is a stale late arrival and is discarded.
    fn route_reply(&mut self, nonce: u64, rseq: u64, frame: Frame, cached: bool) {
        if nonce != self.nonce || !self.pending.contains_key(&rseq) {
            self.stats.stale_discarded += 1;
            return;
        }
        self.pending.remove(&rseq);
        if cached {
            self.stats.replays += 1;
        }
        self.completed.insert(rseq, Outcome::Reply(frame));
    }

    /// How long the demux may block in `recv_timeout` before something
    /// needs attention: the earliest pending retransmission, attempt
    /// window, or deadline — capped by the caller's poll window.
    fn next_wait(&self, now: Instant, poll_deadline: Option<Instant>) -> Duration {
        let mut earliest: Option<Instant> = poll_deadline;
        if let Some(np) = self.next_pump {
            // The pump just refreshed (or validated) its cache; it is a
            // lower bound on every pending event, so the scan below
            // would only ever find something later.
            earliest = Some(earliest.map_or(np, |e| e.min(np)));
        } else {
            for fl in self.pending.values() {
                let event = if fl.needs_send {
                    fl.next_send
                } else {
                    fl.last_sent + self.policy.attempt_timeout
                };
                let event = event.min(fl.deadline);
                earliest = Some(match earliest {
                    Some(e) => e.min(event),
                    None => event,
                });
            }
        }
        let wait = earliest
            .map(|e| e.saturating_duration_since(now))
            .unwrap_or(self.policy.attempt_timeout);
        // Floor so a just-elapsed event cannot spin recv_timeout(0);
        // the next pump resolves it.
        wait.max(Duration::from_millis(1))
    }

    /// Passthrough receive for non-call traffic, discarding stale
    /// envelopes (late replies to calls already abandoned or resolved).
    fn recv_passthrough(&mut self, timeout: Option<Duration>) -> Result<Frame, TransportError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let frame = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(TransportError::Timeout);
                    }
                    self.inner.recv_timeout(d - now)?
                }
                None => self.inner.recv()?,
            };
            match frame {
                Frame::Tagged { .. } | Frame::ReplyCached { .. } => {
                    self.stats.stale_discarded += 1;
                }
                other => return Ok(other),
            }
        }
    }
}

impl<T: Transport> Transport for ReliableTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.send_call(frame).map(|_| ())
    }

    fn send_batch(&mut self, frames: &[&Frame]) -> Result<(), TransportError> {
        self.send_call_batch(frames).map(|_| ())
    }

    /// Collects the *oldest* uncollected call — the single-in-flight
    /// contract every pre-pipelining caller wrote against — or, with no
    /// call outstanding, passes non-call traffic through (the lookup
    /// and shutdown flows).
    fn recv(&mut self) -> Result<Frame, TransportError> {
        match self.order.front().copied() {
            Some(seq) => self.recv_reply_inner(seq, None),
            None => self.recv_passthrough(None),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, TransportError> {
        match self.order.front().copied() {
            Some(seq) => self.recv_reply_inner(seq, Some(timeout)),
            None => self.recv_passthrough(Some(timeout)),
        }
    }

    fn reconnect(&mut self) -> Result<bool, TransportError> {
        self.inner.reconnect()
    }
}

/// What the server should do with a tagged request.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplyDecision {
    /// First sighting of this id: execute and [`ReplyCache::store`].
    Fresh,
    /// Already executed; retransmit this recorded reply.
    Replay(Frame),
    /// Already executed, but the recorded reply was evicted. Answer
    /// with a [`REPLY_EVICTED`] error — never re-execute.
    Evicted,
    /// Currently executing on another connection ([`ReplyCache::begin`]
    /// was issued but [`ReplyCache::store`] has not run yet): a
    /// reconnect retransmission racing the original execution. Neither
    /// execute nor reply — drop the duplicate; the client retransmits
    /// and finds the stored reply.
    InProgress,
}

/// Default reply-cache budget (4 MiB of encoded reply bytes).
pub const DEFAULT_REPLY_CACHE_BYTES: usize = 4 << 20;

/// Default bound on distinct session nonces whose executed watermarks
/// the cache tracks (see [`ReplyCache::with_limits`]).
pub const DEFAULT_REPLY_CACHE_NONCES: usize = 4096;

/// Server-side duplicate-suppression cache: recorded replies keyed by
/// call id, LRU-evicted under a byte cap.
///
/// The `executed` watermark (highest seq seen per nonce) outlives
/// reply eviction, which is what keeps the at-most-once promise after
/// the reply itself is gone: a late retransmission of an evicted call
/// gets a definite error, not a second execution.
///
/// The watermark map itself is bounded too (`max_nonces` sessions,
/// LRU by activity), so a long-lived node — or a hostile peer spraying
/// random nonces — cannot grow it without limit. Evicting a nonce
/// forgets that session's watermarks and drops its cached replies:
/// a client that stays idle while `max_nonces` newer sessions pass and
/// *then* retransmits an old call can re-execute it. That window is the
/// price of bounded memory, the same trade DGC makes under lease
/// expiry; size `max_nonces` above the node's plausible concurrent
/// session count.
#[derive(Debug)]
pub struct ReplyCache {
    max_bytes: usize,
    bytes: usize,
    entries: HashMap<(u64, u64), Frame>,
    /// LRU order, least-recent first.
    order: VecDeque<(u64, u64)>,
    executed: HashMap<u64, u64>,
    /// Nonce LRU, least-recently-active first — bounds `executed`.
    nonce_order: VecDeque<u64>,
    max_nonces: usize,
    /// Ids a [`begin`](ReplyCache::begin) classified `Fresh` whose
    /// reply has not been stored yet: the cross-connection duplicate
    /// barrier.
    executing: HashSet<(u64, u64)>,
}

impl Default for ReplyCache {
    fn default() -> Self {
        ReplyCache::new(DEFAULT_REPLY_CACHE_BYTES)
    }
}

impl ReplyCache {
    /// Creates a cache holding at most `max_bytes` of encoded replies,
    /// tracking at most [`DEFAULT_REPLY_CACHE_NONCES`] sessions.
    pub fn new(max_bytes: usize) -> Self {
        ReplyCache::with_limits(max_bytes, DEFAULT_REPLY_CACHE_NONCES)
    }

    /// Creates a cache holding at most `max_bytes` of encoded replies
    /// and at most `max_nonces` per-session executed watermarks.
    pub fn with_limits(max_bytes: usize, max_nonces: usize) -> Self {
        ReplyCache {
            max_bytes,
            bytes: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
            executed: HashMap::new(),
            nonce_order: VecDeque::new(),
            max_nonces: max_nonces.max(1),
            executing: HashSet::new(),
        }
    }

    /// Classifies an incoming call id. `Replay` touches the entry's LRU
    /// position.
    pub fn decision(&mut self, nonce: u64, seq: u64) -> ReplyDecision {
        if self.executing.contains(&(nonce, seq)) {
            return ReplyDecision::InProgress;
        }
        if let Some(reply) = self.entries.get(&(nonce, seq)) {
            let reply = reply.clone();
            self.touch(nonce, seq);
            self.touch_nonce(nonce);
            return ReplyDecision::Replay(reply);
        }
        match self.executed.get(&nonce) {
            Some(&max) if seq <= max => {
                self.touch_nonce(nonce);
                ReplyDecision::Evicted
            }
            _ => ReplyDecision::Fresh,
        }
    }

    /// Classifies an id AND, when it is `Fresh`, marks it as executing
    /// in the same step, so a duplicate racing in on another connection
    /// (a reconnect retransmission) observes [`InProgress`] rather than
    /// a second `Fresh`. Serve loops whose execute step releases the
    /// node lock (the warm-call path) must use this instead of
    /// [`decision`](ReplyCache::decision); the marker is cleared by
    /// [`store`](ReplyCache::store).
    ///
    /// [`InProgress`]: ReplyDecision::InProgress
    pub fn begin(&mut self, nonce: u64, seq: u64) -> ReplyDecision {
        let decision = self.decision(nonce, seq);
        if decision == ReplyDecision::Fresh {
            self.executing.insert((nonce, seq));
        }
        decision
    }

    /// Records the reply for an executed call, clears its executing
    /// marker, and advances the nonce's executed watermark. Evicts
    /// least-recently-used entries while over the byte cap (the entry
    /// just stored is never evicted by its own insertion) and
    /// least-recently-active sessions while over the nonce cap.
    pub fn store(&mut self, nonce: u64, seq: u64, reply: &Frame) {
        let key = (nonce, seq);
        self.executing.remove(&key);
        if self.executed.contains_key(&nonce) {
            self.touch_nonce(nonce);
        } else {
            self.nonce_order.push_back(nonce);
        }
        let max = self.executed.entry(nonce).or_insert(seq);
        if seq > *max {
            *max = seq;
        }
        if !self.entries.contains_key(&key) {
            self.bytes += reply.wire_size();
            self.entries.insert(key, reply.clone());
            self.order.push_back(key);
            while self.bytes > self.max_bytes && self.order.len() > 1 {
                let victim = self.order.pop_front().expect("len > 1");
                if let Some(evicted) = self.entries.remove(&victim) {
                    self.bytes -= evicted.wire_size();
                }
            }
        }
        while self.executed.len() > self.max_nonces {
            let Some(victim) = self.pick_idle_nonce() else {
                break;
            };
            self.evict_nonce(victim);
        }
    }

    /// Cached replies currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no replies are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encoded bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Distinct session nonces whose executed watermarks are tracked.
    pub fn tracked_nonces(&self) -> usize {
        self.executed.len()
    }

    fn touch(&mut self, nonce: u64, seq: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == (nonce, seq)) {
            self.order.remove(pos);
            self.order.push_back((nonce, seq));
        }
    }

    fn touch_nonce(&mut self, nonce: u64) {
        if let Some(pos) = self.nonce_order.iter().position(|&n| n == nonce) {
            self.nonce_order.remove(pos);
            self.nonce_order.push_back(nonce);
        }
    }

    /// The least-recently-active nonce with no call still executing
    /// (evicting mid-execution would re-open the duplicate window).
    fn pick_idle_nonce(&mut self) -> Option<u64> {
        let pos = (0..self.nonce_order.len()).find(|&i| {
            !self
                .executing
                .iter()
                .any(|&(n, _)| n == self.nonce_order[i])
        })?;
        self.nonce_order.remove(pos)
    }

    fn evict_nonce(&mut self, nonce: u64) {
        self.executed.remove(&nonce);
        let entries = &mut self.entries;
        let bytes = &mut self.bytes;
        self.order.retain(|&(n, s)| {
            if n != nonce {
                return true;
            }
            if let Some(evicted) = entries.remove(&(n, s)) {
                *bytes -= evicted.wire_size();
            }
            false
        });
    }
}

/// The error reply for a [`ReplyDecision::Evicted`] retransmission.
pub fn evicted_reply() -> Frame {
    Frame::CallError {
        message: REPLY_EVICTED.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrmi_transport::{channel_pair, ChannelTransport, LinkSpec};

    fn call_frame(tag: u8) -> Frame {
        Frame::CallRequest {
            service: "svc".into(),
            method: "m".into(),
            mode: 2,
            payload: vec![tag],
        }
    }

    fn reply_frame(tag: u8) -> Frame {
        Frame::CallReply {
            payload: vec![tag; 8],
        }
    }

    fn reliable(policy: RetryPolicy) -> (ReliableTransport<ChannelTransport>, ChannelTransport) {
        let (a, b) = channel_pair(None, LinkSpec::free());
        (ReliableTransport::with_nonce(a, policy, 77), b)
    }

    #[test]
    fn tags_calls_and_matches_replies() {
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        client.send(&call_frame(1)).unwrap();
        let Frame::Tagged { nonce, seq, frame } = server.recv().unwrap() else {
            panic!("call must travel tagged");
        };
        assert_eq!((nonce, seq), (77, 0));
        assert_eq!(*frame, call_frame(1));
        server
            .send(&Frame::Tagged {
                nonce,
                seq,
                frame: Box::new(reply_frame(9)),
            })
            .unwrap();
        assert_eq!(client.recv().unwrap(), reply_frame(9));
        assert_eq!(client.stats().calls, 1);
        assert_eq!(client.stats().retries, 0);
    }

    #[test]
    fn non_call_frames_pass_through_untagged() {
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        client.send(&Frame::Lookup { name: "x".into() }).unwrap();
        assert_eq!(server.recv().unwrap(), Frame::Lookup { name: "x".into() });
        server.send(&Frame::LookupReply { found: true }).unwrap();
        assert_eq!(client.recv().unwrap(), Frame::LookupReply { found: true });
    }

    #[test]
    fn retransmits_on_timeout_until_reply() {
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        client.send(&call_frame(1)).unwrap();
        // Server stays silent through two attempt windows, then answers
        // the latest retransmission.
        let t = std::thread::spawn(move || {
            let mut seen = 0u32;
            let (nonce, seq) = loop {
                if let Frame::Tagged { nonce, seq, .. } = server.recv().unwrap() {
                    seen += 1;
                    if seen == 3 {
                        break (nonce, seq);
                    }
                }
            };
            server
                .send(&Frame::Tagged {
                    nonce,
                    seq,
                    frame: Box::new(reply_frame(5)),
                })
                .unwrap();
            seen
        });
        assert_eq!(client.recv().unwrap(), reply_frame(5));
        assert_eq!(t.join().unwrap(), 3, "two retransmissions reached the peer");
        assert_eq!(client.stats().retries, 2);
    }

    #[test]
    fn deadline_exceeded_after_max_attempts() {
        let (mut client, _server) = reliable(RetryPolicy {
            deadline: Duration::from_secs(5),
            attempt_timeout: Duration::from_millis(5),
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        });
        client.send(&call_frame(1)).unwrap();
        let err = client.recv().unwrap_err();
        assert!(
            matches!(err, TransportError::DeadlineExceeded { attempts: 3 }),
            "{err:?}"
        );
        assert_eq!(client.stats().deadline_failures, 1);
    }

    #[test]
    fn deadline_bounds_total_wait() {
        let (mut client, _server) = reliable(RetryPolicy {
            deadline: Duration::from_millis(60),
            attempt_timeout: Duration::from_millis(20),
            max_attempts: 1000,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        });
        let start = Instant::now();
        client.send(&call_frame(1)).unwrap();
        let err = client.recv().unwrap_err();
        assert!(
            matches!(err, TransportError::DeadlineExceeded { .. }),
            "{err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "client hung past its deadline: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn stale_replies_discarded() {
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        client.send(&call_frame(1)).unwrap();
        let Frame::Tagged { nonce, seq, .. } = server.recv().unwrap() else {
            panic!("tagged");
        };
        // A late reply for some other call id arrives first.
        server
            .send(&Frame::Tagged {
                nonce,
                seq: seq + 100,
                frame: Box::new(reply_frame(1)),
            })
            .unwrap();
        server
            .send(&Frame::ReplyCached {
                nonce: nonce ^ 1,
                seq,
                frame: Box::new(reply_frame(2)),
            })
            .unwrap();
        server
            .send(&Frame::Tagged {
                nonce,
                seq,
                frame: Box::new(reply_frame(3)),
            })
            .unwrap();
        assert_eq!(client.recv().unwrap(), reply_frame(3));
        assert_eq!(client.stats().stale_discarded, 2);
    }

    #[test]
    fn callback_frames_pass_up_mid_call() {
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        client.send(&call_frame(1)).unwrap();
        let Frame::Tagged { nonce, seq, .. } = server.recv().unwrap() else {
            panic!("tagged");
        };
        server.send(&Frame::GetField { key: 3, field: 0 }).unwrap();
        assert_eq!(
            client.recv().unwrap(),
            Frame::GetField { key: 3, field: 0 },
            "callbacks surface to the caller"
        );
        server
            .send(&Frame::Tagged {
                nonce,
                seq,
                frame: Box::new(reply_frame(4)),
            })
            .unwrap();
        assert_eq!(client.recv().unwrap(), reply_frame(4));
    }

    #[test]
    fn reply_cache_replays_without_reexecution() {
        let mut cache = ReplyCache::new(1 << 20);
        assert_eq!(cache.decision(7, 0), ReplyDecision::Fresh);
        cache.store(7, 0, &reply_frame(1));
        assert_eq!(
            cache.decision(7, 0),
            ReplyDecision::Replay(reply_frame(1)),
            "duplicate id replays the recorded reply"
        );
        assert_eq!(
            cache.decision(7, 1),
            ReplyDecision::Fresh,
            "next seq is new"
        );
        assert_eq!(
            cache.decision(8, 0),
            ReplyDecision::Fresh,
            "other nonce is new"
        );
    }

    #[test]
    fn reply_cache_eviction_is_an_error_not_a_rerun() {
        // Cap small enough that the second store evicts the first.
        let reply = reply_frame(1);
        let mut cache = ReplyCache::new(reply.wire_size() + 2);
        cache.store(7, 0, &reply);
        cache.store(7, 1, &reply_frame(2));
        assert_eq!(cache.len(), 1, "byte cap evicted the older entry");
        assert_eq!(
            cache.decision(7, 0),
            ReplyDecision::Evicted,
            "an executed-but-evicted id must NOT be Fresh"
        );
        assert_eq!(cache.decision(7, 1), ReplyDecision::Replay(reply_frame(2)));
    }

    #[test]
    fn reply_cache_lru_touch_on_replay() {
        let reply = reply_frame(1);
        let unit = reply.wire_size();
        let mut cache = ReplyCache::new(2 * unit + 1);
        cache.store(7, 0, &reply_frame(1));
        cache.store(7, 1, &reply_frame(2));
        // Touch seq 0; storing a third entry must now evict seq 1.
        assert!(matches!(cache.decision(7, 0), ReplyDecision::Replay(_)));
        cache.store(7, 2, &reply_frame(3));
        assert!(matches!(cache.decision(7, 0), ReplyDecision::Replay(_)));
        assert_eq!(cache.decision(7, 1), ReplyDecision::Evicted);
    }

    #[test]
    fn poll_timeout_keeps_the_call_in_flight() {
        // A caller-side recv_timeout window closing is a recoverable
        // poll, not call abandonment: the call must survive it and be
        // resumable by a later recv.
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        client.send(&call_frame(1)).unwrap();
        let err = client.recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
        assert_eq!(
            client.stats().deadline_failures,
            0,
            "a poll timeout is not a deadline failure"
        );
        let Frame::Tagged { nonce, seq, .. } = server.recv().unwrap() else {
            panic!("tagged");
        };
        server
            .send(&Frame::Tagged {
                nonce,
                seq,
                frame: Box::new(reply_frame(9)),
            })
            .unwrap();
        assert_eq!(client.recv().unwrap(), reply_frame(9), "call resumed");
    }

    #[test]
    fn poll_timeout_still_honors_the_call_deadline() {
        let (mut client, _server) = reliable(RetryPolicy {
            deadline: Duration::from_millis(30),
            attempt_timeout: Duration::from_millis(10),
            max_attempts: 100,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        });
        client.send(&call_frame(1)).unwrap();
        // Poll until the call's own deadline takes over.
        let err = loop {
            match client.recv_timeout(Duration::from_millis(5)) {
                Err(TransportError::Timeout) => continue,
                Err(e) => break e,
                Ok(f) => panic!("unexpected reply {f:?}"),
            }
        };
        assert!(
            matches!(err, TransportError::DeadlineExceeded { .. }),
            "{err:?}"
        );
        assert_eq!(client.stats().deadline_failures, 1);
    }

    #[test]
    fn recv_reply_without_a_pending_call_is_a_typed_error() {
        // The old single-slot implementation `expect`-panicked when its
        // receive path ran without an in-flight call; asking for a
        // reply nobody is waiting on must be a typed error instead.
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        let err = client.recv_reply(42).unwrap_err();
        assert!(
            matches!(err, TransportError::NoPendingCall { seq: Some(42) }),
            "{err:?}"
        );
        // And after a reply is consumed, its seq is no longer pending.
        let seq = client.send_call(&call_frame(1)).unwrap().expect("a call");
        let Frame::Tagged { nonce, seq: s, .. } = server.recv().unwrap() else {
            panic!("tagged");
        };
        server
            .send(&Frame::Tagged {
                nonce,
                seq: s,
                frame: Box::new(reply_frame(9)),
            })
            .unwrap();
        assert_eq!(client.recv_reply(seq).unwrap(), reply_frame(9));
        let err = client.recv_reply(seq).unwrap_err();
        assert!(
            matches!(err, TransportError::NoPendingCall { seq: Some(s) } if s == seq),
            "{err:?}"
        );
        assert_eq!(client.pending_calls(), 0);
    }

    #[test]
    fn pipelined_replies_route_out_of_order() {
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        let s0 = client.send_call(&call_frame(1)).unwrap().expect("a call");
        let s1 = client.send_call(&call_frame(2)).unwrap().expect("a call");
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(client.pending_calls(), 2);
        let Frame::Tagged { nonce, seq: r0, .. } = server.recv().unwrap() else {
            panic!("tagged");
        };
        let Frame::Tagged { seq: r1, .. } = server.recv().unwrap() else {
            panic!("tagged");
        };
        // Server answers the second call first.
        server
            .send(&Frame::Tagged {
                nonce,
                seq: r1,
                frame: Box::new(reply_frame(2)),
            })
            .unwrap();
        server
            .send(&Frame::Tagged {
                nonce,
                seq: r0,
                frame: Box::new(reply_frame(1)),
            })
            .unwrap();
        // Collecting the first call routes the second's reply to its
        // map entry on the way; collecting the second finds it waiting.
        assert_eq!(client.recv_reply(s0).unwrap(), reply_frame(1));
        assert_eq!(client.recv_reply(s1).unwrap(), reply_frame(2));
        assert_eq!(client.stats().calls, 2);
        assert_eq!(client.stats().stale_discarded, 0, "nothing was discarded");
    }

    #[test]
    fn batched_calls_tag_and_route_like_sequential_sends() {
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        let frames = [call_frame(1), call_frame(2), call_frame(3)];
        let refs: Vec<&Frame> = frames.iter().collect();
        let seqs = client.send_call_batch(&refs).unwrap();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(client.pending_calls(), 3);
        assert_eq!(client.stats().calls, 3);
        let mut nonce = 0;
        for (i, frame) in frames.iter().enumerate() {
            let Frame::Tagged {
                nonce: n,
                seq,
                frame: inner,
            } = server.recv().unwrap()
            else {
                panic!("batched calls must travel tagged");
            };
            nonce = n;
            assert_eq!(seq, i as u64, "train preserves issue order");
            assert_eq!(*inner, *frame);
        }
        // Answer out of order; each seq routes to its own entry.
        for &seq in seqs.iter().rev() {
            server
                .send(&Frame::Tagged {
                    nonce,
                    seq,
                    frame: Box::new(reply_frame(seq as u8)),
                })
                .unwrap();
        }
        for &seq in &seqs {
            assert_eq!(client.recv_reply(seq).unwrap(), reply_frame(seq as u8));
        }
        assert_eq!(client.pending_calls(), 0);
    }

    #[test]
    fn batched_calls_absorb_disconnect_and_retransmit() {
        // The peer is gone before the batch goes out: the whole train
        // must queue for retransmission, not error out.
        let (a, b) = channel_pair(None, LinkSpec::free());
        drop(b);
        let mut client = ReliableTransport::with_nonce(a, RetryPolicy::aggressive(), 77);
        let frames = [call_frame(1), call_frame(2)];
        let refs: Vec<&Frame> = frames.iter().collect();
        let seqs = client.send_call_batch(&refs).unwrap();
        assert_eq!(seqs.len(), 2);
        assert_eq!(client.pending_calls(), 2, "train stays in flight");
        // With nobody to reconnect to, both calls fail their own
        // budgets — proving they were tracked, not dropped.
        for &seq in &seqs {
            let err = client.recv_reply(seq).unwrap_err();
            assert!(
                matches!(err, TransportError::DeadlineExceeded { .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn per_call_deadlines_are_isolated() {
        // Two calls in flight; the server answers only the second. The
        // first must fail with its own DeadlineExceeded without
        // dragging the answered call down with it.
        let (mut client, mut server) = reliable(RetryPolicy {
            deadline: Duration::from_secs(5),
            attempt_timeout: Duration::from_millis(5),
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        });
        let s0 = client.send_call(&call_frame(1)).unwrap().expect("a call");
        let s1 = client.send_call(&call_frame(2)).unwrap().expect("a call");
        let Frame::Tagged { nonce, .. } = server.recv().unwrap() else {
            panic!("tagged");
        };
        server
            .send(&Frame::Tagged {
                nonce,
                seq: s1,
                frame: Box::new(reply_frame(2)),
            })
            .unwrap();
        let err = client.recv_reply(s0).unwrap_err();
        assert!(
            matches!(err, TransportError::DeadlineExceeded { attempts: 3 }),
            "{err:?}"
        );
        assert_eq!(client.stats().deadline_failures, 1);
        assert_eq!(
            client.recv_reply(s1).unwrap(),
            reply_frame(2),
            "the answered call survives its neighbor's deadline"
        );
    }

    #[test]
    fn plain_recv_collects_calls_oldest_first() {
        // Transport-trait compatibility: `recv` with several calls in
        // flight resolves them in issue order, whatever order the
        // replies arrived in.
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        client.send(&call_frame(1)).unwrap();
        client.send(&call_frame(2)).unwrap();
        let Frame::Tagged { nonce, seq: r0, .. } = server.recv().unwrap() else {
            panic!("tagged");
        };
        let Frame::Tagged { seq: r1, .. } = server.recv().unwrap() else {
            panic!("tagged");
        };
        server
            .send(&Frame::Tagged {
                nonce,
                seq: r1,
                frame: Box::new(reply_frame(2)),
            })
            .unwrap();
        server
            .send(&Frame::Tagged {
                nonce,
                seq: r0,
                frame: Box::new(reply_frame(1)),
            })
            .unwrap();
        assert_eq!(client.recv().unwrap(), reply_frame(1));
        assert_eq!(client.recv().unwrap(), reply_frame(2));
    }

    #[test]
    fn pipelined_retransmits_cover_every_pending_call() {
        // Both calls outstanding, server silent for one attempt window:
        // the retry pump must retransmit *both*, not just the one being
        // collected.
        let (mut client, mut server) = reliable(RetryPolicy::aggressive());
        let s0 = client.send_call(&call_frame(1)).unwrap().expect("a call");
        let s1 = client.send_call(&call_frame(2)).unwrap().expect("a call");
        let t = std::thread::spawn(move || {
            let mut seen: Vec<(u64, u64)> = Vec::new();
            let nonce = loop {
                if let Frame::Tagged { nonce, seq, .. } = server.recv().unwrap() {
                    seen.push((nonce, seq));
                    // First sends + one retransmission of each.
                    let retrans_0 = seen.iter().filter(|&&(_, s)| s == 0).count();
                    let retrans_1 = seen.iter().filter(|&&(_, s)| s == 1).count();
                    if retrans_0 >= 2 && retrans_1 >= 2 {
                        break nonce;
                    }
                }
            };
            for seq in [0, 1] {
                server
                    .send(&Frame::Tagged {
                        nonce,
                        seq,
                        frame: Box::new(reply_frame(seq as u8 + 1)),
                    })
                    .unwrap();
            }
        });
        assert_eq!(client.recv_reply(s0).unwrap(), reply_frame(1));
        assert_eq!(client.recv_reply(s1).unwrap(), reply_frame(2));
        t.join().unwrap();
        assert!(
            client.stats().retries >= 2,
            "each silent call retransmitted: {:?}",
            client.stats()
        );
    }

    #[test]
    fn begin_blocks_a_concurrent_duplicate() {
        let mut cache = ReplyCache::new(1 << 20);
        assert_eq!(cache.begin(7, 0), ReplyDecision::Fresh);
        // The same id again, before store: the reconnect-retransmission
        // race. It must NOT read Fresh.
        assert_eq!(cache.begin(7, 0), ReplyDecision::InProgress);
        assert_eq!(cache.decision(7, 0), ReplyDecision::InProgress);
        cache.store(7, 0, &reply_frame(1));
        assert_eq!(
            cache.begin(7, 0),
            ReplyDecision::Replay(reply_frame(1)),
            "after store the duplicate replays"
        );
    }

    #[test]
    fn executed_watermarks_are_bounded() {
        let mut cache = ReplyCache::with_limits(1 << 20, 4);
        for n in 0..100u64 {
            cache.store(n, 0, &reply_frame(1));
        }
        assert_eq!(cache.tracked_nonces(), 4, "nonce map is capped");
        assert_eq!(cache.len(), 4, "evicted sessions drop their replies");
        assert!(matches!(cache.decision(99, 0), ReplyDecision::Replay(_)));
        // The documented window: a session idle past the cap is
        // forgotten entirely — its old id reads Fresh again.
        assert_eq!(cache.decision(0, 0), ReplyDecision::Fresh);
    }

    #[test]
    fn nonce_eviction_spares_executing_sessions() {
        let mut cache = ReplyCache::with_limits(1 << 20, 2);
        assert_eq!(cache.begin(1, 0), ReplyDecision::Fresh);
        // Flood past the cap while nonce 1 is mid-execution.
        cache.store(2, 0, &reply_frame(2));
        cache.store(3, 0, &reply_frame(3));
        cache.store(4, 0, &reply_frame(4));
        assert_eq!(cache.decision(1, 0), ReplyDecision::InProgress);
        cache.store(1, 0, &reply_frame(1));
        assert_eq!(
            cache.decision(1, 0),
            ReplyDecision::Replay(reply_frame(1)),
            "the executing session must not be evicted mid-call"
        );
        assert!(cache.tracked_nonces() <= 2);
    }

    #[test]
    fn reply_cache_byte_accounting() {
        let mut cache = ReplyCache::new(1 << 20);
        let r = reply_frame(1);
        cache.store(1, 0, &r);
        cache.store(1, 0, &r); // duplicate store is idempotent
        assert_eq!(cache.bytes(), r.wire_size());
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn fresh_nonces_are_distinct() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            jitter: false,
            ..RetryPolicy::default()
        };
        let mut rng = 1;
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(10));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(20));
        assert_eq!(policy.backoff(3, &mut rng), Duration::from_millis(40));
        assert_eq!(policy.backoff(4, &mut rng), Duration::from_millis(80));
        assert_eq!(policy.backoff(10, &mut rng), Duration::from_millis(80));
        let jittered = RetryPolicy {
            jitter: true,
            ..policy
        };
        for attempt in 1..6 {
            let b = jittered.backoff(attempt, &mut rng);
            let nominal = policy.backoff(attempt, &mut rng);
            assert!(
                b >= nominal.mul_f64(0.5) && b <= nominal,
                "{b:?} vs {nominal:?}"
            );
        }
    }
}
