//! The transport abstraction and the in-process channel transport.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use crate::message::Frame;
use crate::simnet::{LinkSpec, SimEnv};
use crate::{Result, TransportError};

/// A bidirectional, ordered, reliable frame pipe between two nodes.
///
/// Implementations always move *encoded* frames, so byte accounting (and
/// the exercise of the codec) is identical for in-process and TCP
/// transports.
pub trait Transport: Send {
    /// Sends one frame to the peer.
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] if the peer is gone.
    fn send(&mut self, frame: &Frame) -> Result<()>;

    /// Sends a train of frames, preserving order. Implementations backed
    /// by a stream socket override this to flush the whole train with one
    /// vectored write; the default just loops [`Transport::send`], so
    /// every transport keeps identical wire bytes and error semantics.
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] if the peer is gone. On error the
    /// train may be partially sent; callers that need exactly-once
    /// delivery layer their own retransmission (see `ReliableTransport`).
    fn send_batch(&mut self, frames: &[&Frame]) -> Result<()> {
        for frame in frames {
            self.send(frame)?;
        }
        Ok(())
    }

    /// Receives the next frame, blocking until one arrives.
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] if the peer is gone.
    fn recv(&mut self) -> Result<Frame>;

    /// Receives with a deadline.
    ///
    /// # Errors
    /// [`TransportError::Timeout`] if nothing arrives in time;
    /// [`TransportError::Disconnected`] if the peer is gone.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame>;

    /// Attempts to re-establish the underlying connection after a
    /// failure. Returns `Ok(true)` when a fresh connection replaced the
    /// broken one (any in-flight partial frame is discarded), `Ok(false)`
    /// when this transport has nothing to re-dial — the default, and the
    /// right answer for in-process channels and accepted server-side
    /// streams.
    ///
    /// # Errors
    /// Propagates connection errors from the re-dial.
    fn reconnect(&mut self) -> Result<bool> {
        Ok(false)
    }

    /// Splits this transport into independently owned send and receive
    /// halves, so one thread can write frames while another blocks in a
    /// read — the substrate for pipelined serve loops that reply out of
    /// order while a reader keeps draining requests.
    ///
    /// Returns `None` when the transport cannot be split (in-flight
    /// fault injectors, decorators, simulated links) — callers fall back
    /// to single-threaded operation. After a successful split the
    /// original transport must not be used again: socket transports
    /// hand their buffered read state to the receiver half, and the
    /// channel transport's receive side moves out entirely.
    fn split(&mut self) -> Option<(Box<dyn TransportSender>, Box<dyn TransportReceiver>)> {
        None
    }
}

/// The write half of a [`Transport::split`]: sends frames to the peer,
/// usable concurrently with the matching [`TransportReceiver`].
pub trait TransportSender: Send {
    /// Sends one frame to the peer.
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] if the peer is gone.
    fn send(&mut self, frame: &Frame) -> Result<()>;

    /// Sends a train of frames in order; socket-backed halves override
    /// this with a single vectored write (see [`Transport::send_batch`]).
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] if the peer is gone.
    fn send_batch(&mut self, frames: &[&Frame]) -> Result<()> {
        for frame in frames {
            self.send(frame)?;
        }
        Ok(())
    }
}

/// The read half of a [`Transport::split`].
pub trait TransportReceiver: Send {
    /// Receives the next frame, blocking until one arrives.
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] if the peer is gone.
    fn recv(&mut self) -> Result<Frame>;

    /// Receives with a deadline.
    ///
    /// # Errors
    /// [`TransportError::Timeout`] if nothing arrives in time;
    /// [`TransportError::Disconnected`] if the peer is gone.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame>;
}

/// A bound server socket producing accepted [`Transport`] connections —
/// the abstraction serve loops are written against, so TCP and
/// Unix-domain servers share one accept loop.
pub trait Listener {
    /// The transport type of an accepted connection.
    type Conn: Transport + 'static;

    /// Blocks until a client connects.
    ///
    /// # Errors
    /// Propagates socket errors.
    fn accept(&self) -> Result<Self::Conn>;

    /// Waits up to `timeout` for a client, so an accept loop can poll a
    /// shutdown flag instead of blocking forever.
    ///
    /// # Errors
    /// [`TransportError::Timeout`] if nobody connected in time;
    /// otherwise propagates socket errors.
    fn accept_timeout(&self, timeout: Duration) -> Result<Self::Conn>;
}

/// Non-blocking I/O surface a reactor needs from a connection: raw-fd
/// registration, explicit blocking-mode control, resumable frame reads,
/// and readiness-driven flushing of a [`SendQueue`](crate::SendQueue).
///
/// Implementors are ordinary [`Transport`]s (TCP, Unix-domain) whose
/// socket a reactor temporarily owns in non-blocking mode. When a
/// connection escalates to a dedicated thread, the reactor restores
/// blocking mode and hands it back to the blocking serve loop — the
/// same object serves both disciplines.
#[cfg(unix)]
pub trait ReactorIo: Transport {
    /// The raw descriptor to register with a
    /// [`Poller`](crate::poller::Poller).
    fn raw_fd(&self) -> std::os::unix::io::RawFd;

    /// Switches the underlying socket between blocking and non-blocking
    /// mode.
    ///
    /// # Errors
    /// Propagates socket errors.
    fn set_nonblocking(&self, nonblocking: bool) -> Result<()>;

    /// Attempts one non-blocking frame read: `Ok(Some)` with a decoded
    /// frame, `Ok(None)` when the socket has no complete frame yet
    /// (partial progress is retained for the next readiness event).
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] on peer closure; decode and I/O
    /// errors as-is.
    fn try_read_frame(&mut self) -> Result<Option<Frame>>;

    /// True when frame bytes already read from the socket sit buffered
    /// in user space. A level-triggered poller never reports these —
    /// the kernel buffer may be empty — so an event loop that pauses
    /// reads (back-pressure) and later resumes must consult this, not
    /// just readiness, or buffered frames strand until the peer happens
    /// to send more.
    fn has_buffered_input(&self) -> bool {
        false
    }

    /// Flushes as much of `queue` as the socket accepts without
    /// blocking; `Ok(true)` when the queue drained.
    ///
    /// # Errors
    /// As [`SendQueue::flush`](crate::SendQueue::flush).
    fn flush_queue(&mut self, queue: &mut crate::SendQueue) -> Result<bool>;
}

/// Listener-side counterpart of [`ReactorIo`]: lets a reactor register
/// the listening socket itself and accept without blocking.
#[cfg(unix)]
pub trait PollableListener: Listener {
    /// The raw descriptor to register with a
    /// [`Poller`](crate::poller::Poller).
    fn raw_fd(&self) -> std::os::unix::io::RawFd;

    /// Switches the listening socket between blocking and non-blocking
    /// mode.
    ///
    /// # Errors
    /// Propagates socket errors.
    fn set_nonblocking(&self, nonblocking: bool) -> Result<()>;

    /// Accepts one pending connection without blocking; `Ok(None)` when
    /// the backlog is empty. The accepted connection's blocking mode is
    /// unspecified — callers set it explicitly before use.
    ///
    /// # Errors
    /// Propagates socket errors.
    fn try_accept(&self) -> Result<Option<Self::Conn>>;
}

/// In-process transport over `std::sync::mpsc` channels.
///
/// When built with [`channel_pair`]'s `env`/`link` parameters, every sent
/// frame charges the simulated network with its encoded size — the same
/// accounting a real link would see.
pub struct ChannelTransport {
    tx: ChannelSender,
    rx: ChannelReceiver,
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("link", &self.tx.link)
            .field("simulated", &self.tx.env.is_some())
            .finish()
    }
}

/// Creates a connected pair of in-process transports. If `env` is given,
/// both directions charge it for transfers over `link`.
pub fn channel_pair(env: Option<SimEnv>, link: LinkSpec) -> (ChannelTransport, ChannelTransport) {
    let (atx, brx) = mpsc::channel();
    let (btx, arx) = mpsc::channel();
    let end = |tx, rx, env| ChannelTransport {
        tx: ChannelSender { tx, env, link },
        rx: ChannelReceiver(rx),
    };
    (end(atx, arx, env.clone()), end(btx, brx, env))
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        self.tx.send(frame)
    }

    fn recv(&mut self) -> Result<Frame> {
        self.rx.recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame> {
        self.rx.recv_timeout(timeout)
    }

    fn split(&mut self) -> Option<(Box<dyn TransportSender>, Box<dyn TransportReceiver>)> {
        // The receive side moves out; the original transport keeps a
        // receiver whose sender was dropped, so any further recv on it
        // reports Disconnected instead of silently stealing frames.
        let (dead_tx, dead_rx) = mpsc::channel();
        drop(dead_tx);
        let rx = std::mem::replace(&mut self.rx, ChannelReceiver(dead_rx));
        Some((Box::new(self.tx.clone()), Box::new(rx)))
    }
}

/// The send side of a [`ChannelTransport`], and its split write half.
#[derive(Clone)]
struct ChannelSender {
    tx: Sender<Vec<u8>>,
    env: Option<SimEnv>,
    link: LinkSpec,
}

impl TransportSender for ChannelSender {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        let bytes = frame.encode();
        if let Some(env) = &self.env {
            env.charge_transfer(&self.link, bytes.len());
        }
        self.tx
            .send(bytes)
            .map_err(|_| TransportError::Disconnected)
    }
}

/// The receive side of a [`ChannelTransport`], and its split read half.
struct ChannelReceiver(Receiver<Vec<u8>>);

impl TransportReceiver for ChannelReceiver {
    fn recv(&mut self) -> Result<Frame> {
        crate::blocking::blocking_region("channel.recv");
        let bytes = self.0.recv().map_err(|_| TransportError::Disconnected)?;
        Frame::decode(&bytes)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame> {
        crate::blocking::blocking_region("channel.recv_timeout");
        let bytes = self.0.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => TransportError::Disconnected,
        })?;
        Frame::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simnet::{LinkSpec, SimEnv};

    #[test]
    fn frames_cross_the_pair() {
        let (mut a, mut b) = channel_pair(None, LinkSpec::free());
        a.send(&Frame::Ack).unwrap();
        assert_eq!(b.recv().unwrap(), Frame::Ack);
        b.send(&Frame::Lookup { name: "svc".into() }).unwrap();
        assert_eq!(a.recv().unwrap(), Frame::Lookup { name: "svc".into() });
    }

    #[test]
    fn send_charges_sim_env() {
        let env = SimEnv::new();
        let (mut a, mut b) = channel_pair(Some(env.clone()), LinkSpec::lan_100mbps());
        let frame = Frame::CallReply {
            payload: vec![0u8; 1000],
        };
        a.send(&frame).unwrap();
        let r = env.report();
        assert_eq!(r.messages, 1);
        assert_eq!(r.bytes_sent as usize, frame.wire_size());
        assert!(r.transfer_us > 200.0, "latency + bandwidth time");
        let _ = b.recv().unwrap();
    }

    #[test]
    fn disconnect_detected() {
        let (mut a, b) = channel_pair(None, LinkSpec::free());
        drop(b);
        assert!(matches!(
            a.send(&Frame::Ack),
            Err(TransportError::Disconnected)
        ));
        assert!(matches!(a.recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn recv_timeout_fires() {
        let (mut a, _b) = channel_pair(None, LinkSpec::free());
        let err = a.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout));
    }

    #[test]
    fn split_halves_work_concurrently() {
        let (mut a, mut b) = channel_pair(None, LinkSpec::free());
        let (mut tx, mut rx) = a.split().expect("channel transports split");
        tx.send(&Frame::Ack).unwrap();
        assert_eq!(b.recv().unwrap(), Frame::Ack);
        b.send(&Frame::CountReply(9)).unwrap();
        assert_eq!(rx.recv().unwrap(), Frame::CountReply(9));
        // The original transport's receive side moved into the half.
        assert!(matches!(a.recv(), Err(TransportError::Disconnected)));
        let err = rx.recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout));
    }

    #[test]
    fn ordering_preserved() {
        let (mut a, mut b) = channel_pair(None, LinkSpec::free());
        for i in 0..100u64 {
            a.send(&Frame::CountReply(i)).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(b.recv().unwrap(), Frame::CountReply(i));
        }
    }
}
