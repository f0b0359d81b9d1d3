//! Fault injection: deterministic partial failure for testing.
//!
//! The paper endorses the Waldo et al. position (§6.2): middleware must
//! not hide that networks fail — "NRMI remote methods throw remote
//! exceptions that the programmer is responsible for catching". This
//! module makes those failures reproducible: [`FaultyTransport`] wraps
//! any [`Transport`] and injects faults from a deterministic
//! [`FaultPlan`], so tests can prove that a failed call surfaces as an
//! error *and leaves the caller's heap untouched* (no partial restore).

use std::collections::VecDeque;
use std::time::Duration;

use crate::endpoint::Transport;
use crate::message::Frame;
use crate::{Result, TransportError};

/// What to do to one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Let it through.
    Pass,
    /// Drop the frame silently (the peer never sees it).
    DropFrame,
    /// Fail the operation with a disconnect error.
    Disconnect,
    /// Corrupt the frame's bytes before delivery.
    Corrupt,
    /// Deliver the frame twice (a retransmission the network duplicated:
    /// on send the peer sees two copies; on recv the same frame is
    /// handed up again on the next receive).
    Duplicate,
    /// Hold the frame for the given duration before delivery. Against a
    /// receive deadline shorter than the delay this surfaces as a
    /// [`TransportError::Timeout`] — the frame is late, not lost.
    Delay(Duration),
}

/// A deterministic schedule of faults: the `n`-th send consults
/// `sends[n]` (out-of-range ⇒ pass), and likewise for receives.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Faults applied to sends, in order.
    pub sends: Vec<Fault>,
    /// Faults applied to receives, in order.
    pub recvs: Vec<Fault>,
}

impl FaultPlan {
    /// A plan that never faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fails the `n`-th send (0-based) with a disconnect.
    pub fn disconnect_on_send(n: usize) -> Self {
        let mut sends = vec![Fault::Pass; n];
        sends.push(Fault::Disconnect);
        FaultPlan {
            sends,
            recvs: Vec::new(),
        }
    }

    /// Drops the `n`-th send silently (the caller will block or time out
    /// waiting for a reply that never comes).
    pub fn drop_on_send(n: usize) -> Self {
        let mut sends = vec![Fault::Pass; n];
        sends.push(Fault::DropFrame);
        FaultPlan {
            sends,
            recvs: Vec::new(),
        }
    }

    /// Corrupts the `n`-th received frame.
    pub fn corrupt_on_recv(n: usize) -> Self {
        let mut recvs = vec![Fault::Pass; n];
        recvs.push(Fault::Corrupt);
        FaultPlan {
            recvs,
            sends: Vec::new(),
        }
    }

    /// Duplicates the `n`-th send (the peer sees the frame twice).
    pub fn duplicate_on_send(n: usize) -> Self {
        let mut sends = vec![Fault::Pass; n];
        sends.push(Fault::Duplicate);
        FaultPlan {
            sends,
            recvs: Vec::new(),
        }
    }

    /// Drops the `n`-th received frame (the reply vanishes in flight;
    /// under a receive deadline the caller observes a timeout).
    pub fn drop_on_recv(n: usize) -> Self {
        let mut recvs = vec![Fault::Pass; n];
        recvs.push(Fault::DropFrame);
        FaultPlan {
            recvs,
            sends: Vec::new(),
        }
    }
}

/// A [`Transport`] wrapper that injects faults per a [`FaultPlan`].
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    sends_seen: usize,
    recvs_seen: usize,
    /// Frames queued for redelivery by [`Fault::Duplicate`] on receive.
    /// Popped ahead of the plan (a duplicate is a free delivery, not a
    /// scheduled operation).
    pending: VecDeque<Frame>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for FaultyTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("inner", &self.inner)
            .field("sends_seen", &self.sends_seen)
            .field("recvs_seen", &self.recvs_seen)
            .finish()
    }
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the given schedule.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            sends_seen: 0,
            recvs_seen: 0,
            pending: VecDeque::new(),
        }
    }

    /// Operations observed so far, `(sends, recvs)`.
    pub fn observed(&self) -> (usize, usize) {
        (self.sends_seen, self.recvs_seen)
    }

    fn next_send_fault(&mut self) -> Fault {
        let f = self
            .plan
            .sends
            .get(self.sends_seen)
            .copied()
            .unwrap_or(Fault::Pass);
        self.sends_seen += 1;
        f
    }

    fn next_recv_fault(&mut self) -> Fault {
        let f = self
            .plan
            .recvs
            .get(self.recvs_seen)
            .copied()
            .unwrap_or(Fault::Pass);
        self.recvs_seen += 1;
        f
    }

    fn corrupt(frame: &Frame) -> Frame {
        // Re-encode with a flipped byte; decoding at the consumer fails
        // (or yields a detectably different frame). Here we model the
        // post-decode effect: deliver an ErrorReply-shaped poison frame.
        let mut bytes = frame.encode();
        if let Some(b) = bytes.first_mut() {
            *b ^= 0x5a;
        }
        match Frame::decode(&bytes) {
            Ok(decoded) => decoded,
            Err(_) => Frame::ErrorReply {
                message: "corrupted frame".into(),
            },
        }
    }

    /// One receive path for `recv` (`None`) and `recv_timeout`.
    fn recv_within(&mut self, timeout: Option<Duration>) -> Result<Frame> {
        if let Some(frame) = self.pending.pop_front() {
            return Ok(frame);
        }
        match self.next_recv_fault() {
            Fault::Pass => self.inner_recv(timeout),
            Fault::DropFrame => {
                let _ = self.inner_recv(timeout)?;
                self.inner_recv(timeout)
            }
            Fault::Disconnect => Err(TransportError::Disconnected),
            Fault::Corrupt => {
                let frame = self.inner_recv(timeout)?;
                Ok(Self::corrupt(&frame))
            }
            Fault::Duplicate => {
                let frame = self.inner_recv(timeout)?;
                self.pending.push_back(frame.clone());
                Ok(frame)
            }
            Fault::Delay(d) => match timeout {
                // The frame is late: if the deadline expires first the
                // caller sees a timeout and the frame stays queued
                // inside the inner transport for a later receive.
                Some(timeout) if d >= timeout => {
                    std::thread::sleep(timeout);
                    Err(TransportError::Timeout)
                }
                _ => {
                    std::thread::sleep(d);
                    self.inner_recv(timeout.map(|timeout| timeout - d))
                }
            },
        }
    }

    fn inner_recv(&mut self, timeout: Option<Duration>) -> Result<Frame> {
        match timeout {
            None => self.inner.recv(),
            Some(timeout) => self.inner.recv_timeout(timeout),
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        match self.next_send_fault() {
            Fault::Pass => self.inner.send(frame),
            Fault::DropFrame => Ok(()),
            Fault::Disconnect => Err(TransportError::Disconnected),
            Fault::Corrupt => self.inner.send(&Self::corrupt(frame)),
            Fault::Duplicate => {
                self.inner.send(frame)?;
                self.inner.send(frame)
            }
            Fault::Delay(d) => {
                std::thread::sleep(d);
                self.inner.send(frame)
            }
        }
    }

    fn recv(&mut self) -> Result<Frame> {
        self.recv_within(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame> {
        self.recv_within(Some(timeout))
    }

    fn reconnect(&mut self) -> Result<bool> {
        // A reconnect abandons the old stream; late duplicates die with
        // it.
        self.pending.clear();
        self.inner.reconnect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::channel_pair;
    use crate::simnet::LinkSpec;

    #[test]
    fn pass_through_without_faults() {
        let (a, mut b) = channel_pair(None, LinkSpec::free());
        let mut faulty = FaultyTransport::new(a, FaultPlan::none());
        faulty.send(&Frame::Ack).unwrap();
        assert_eq!(b.recv().unwrap(), Frame::Ack);
        b.send(&Frame::CountReply(9)).unwrap();
        assert_eq!(faulty.recv().unwrap(), Frame::CountReply(9));
        assert_eq!(faulty.observed(), (1, 1));
    }

    #[test]
    fn scheduled_disconnect_fires_once_at_position() {
        let (a, mut b) = channel_pair(None, LinkSpec::free());
        let mut faulty = FaultyTransport::new(a, FaultPlan::disconnect_on_send(1));
        faulty.send(&Frame::Ack).unwrap();
        assert!(matches!(
            faulty.send(&Frame::Ack),
            Err(TransportError::Disconnected)
        ));
        // Past the schedule: passes again.
        faulty.send(&Frame::Ack).unwrap();
        assert_eq!(b.recv().unwrap(), Frame::Ack);
        assert_eq!(b.recv().unwrap(), Frame::Ack);
    }

    #[test]
    fn dropped_send_never_arrives() {
        let (a, mut b) = channel_pair(None, LinkSpec::free());
        let mut faulty = FaultyTransport::new(a, FaultPlan::drop_on_send(0));
        faulty.send(&Frame::CountReply(1)).unwrap(); // dropped
        faulty.send(&Frame::CountReply(2)).unwrap();
        assert_eq!(
            b.recv().unwrap(),
            Frame::CountReply(2),
            "first frame vanished"
        );
    }

    #[test]
    fn dropped_recv_skips_one_frame() {
        let (a, mut b) = channel_pair(None, LinkSpec::free());
        let plan = FaultPlan {
            sends: Vec::new(),
            recvs: vec![Fault::DropFrame],
        };
        let mut faulty = FaultyTransport::new(a, plan);
        b.send(&Frame::CountReply(1)).unwrap();
        b.send(&Frame::CountReply(2)).unwrap();
        assert_eq!(
            faulty.recv().unwrap(),
            Frame::CountReply(2),
            "first frame swallowed"
        );
    }

    #[test]
    fn duplicated_send_arrives_twice() {
        let (a, mut b) = channel_pair(None, LinkSpec::free());
        let mut faulty = FaultyTransport::new(a, FaultPlan::duplicate_on_send(0));
        faulty.send(&Frame::CountReply(5)).unwrap();
        assert_eq!(b.recv().unwrap(), Frame::CountReply(5));
        assert_eq!(b.recv().unwrap(), Frame::CountReply(5), "duplicate copy");
    }

    #[test]
    fn duplicated_recv_redelivers_the_frame() {
        let (a, mut b) = channel_pair(None, LinkSpec::free());
        let plan = FaultPlan {
            sends: Vec::new(),
            recvs: vec![Fault::Duplicate],
        };
        let mut faulty = FaultyTransport::new(a, plan);
        b.send(&Frame::CountReply(1)).unwrap();
        b.send(&Frame::CountReply(2)).unwrap();
        assert_eq!(faulty.recv().unwrap(), Frame::CountReply(1));
        assert_eq!(faulty.recv().unwrap(), Frame::CountReply(1), "redelivered");
        assert_eq!(faulty.recv().unwrap(), Frame::CountReply(2));
    }

    #[test]
    fn delayed_recv_times_out_then_delivers() {
        let (a, mut b) = channel_pair(None, LinkSpec::free());
        let plan = FaultPlan {
            sends: Vec::new(),
            recvs: vec![Fault::Delay(Duration::from_millis(50))],
        };
        let mut faulty = FaultyTransport::new(a, plan);
        b.send(&Frame::CountReply(9)).unwrap();
        // Deadline shorter than the delay: the frame is late.
        let err = faulty.recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
        // Past the schedule: the queued frame is still there.
        assert_eq!(faulty.recv().unwrap(), Frame::CountReply(9));
    }

    #[test]
    fn delayed_recv_within_deadline_delivers() {
        let (a, mut b) = channel_pair(None, LinkSpec::free());
        let plan = FaultPlan {
            sends: Vec::new(),
            recvs: vec![Fault::Delay(Duration::from_millis(5))],
        };
        let mut faulty = FaultyTransport::new(a, plan);
        b.send(&Frame::CountReply(3)).unwrap();
        assert_eq!(
            faulty.recv_timeout(Duration::from_millis(200)).unwrap(),
            Frame::CountReply(3)
        );
    }

    #[test]
    fn corrupted_recv_changes_the_frame() {
        let (a, mut b) = channel_pair(None, LinkSpec::free());
        let mut faulty = FaultyTransport::new(a, FaultPlan::corrupt_on_recv(0));
        b.send(&Frame::CountReply(42)).unwrap();
        let got = faulty.recv().unwrap();
        assert_ne!(got, Frame::CountReply(42), "corruption must be observable");
    }
}
