//! The socket transport: length-prefixed frames over a connected stream
//! socket, written once for TCP and Unix-domain sockets.
//!
//! This is what makes the middleware genuinely distributed: client and
//! server in different processes on one host (a Unix-domain socket, the
//! paper's Table 3 configuration) or on different machines (TCP).
//! Framing, its size cap and the resumable reader that keeps the stream
//! in sync across receive timeouts live in the private `framed` module.
//!
//! The two families differ only in how a stream is dialed and accepted,
//! which [`SocketStream`] and [`StreamListener`] capture; Unix-domain
//! listeners add only a stale-socket probe on bind and an unlink on drop.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::endpoint::{Listener, Transport, TransportReceiver, TransportSender};
use crate::framed::{self, FrameReader};
use crate::message::Frame;
use crate::{Result, TransportError};

/// A connected stream socket the transport frames over.
pub trait SocketStream: Read + Write + Send + Sized + 'static {
    /// What [`SocketStream::dial`] connects to: a socket address or a
    /// filesystem path.
    type Peer: Clone + std::fmt::Debug + Send + 'static;

    /// Connects to a listening peer, ready for framed traffic.
    fn dial(peer: &Self::Peer) -> io::Result<Self>;

    /// A second handle to the same socket.
    fn try_clone(&self) -> io::Result<Self>;

    /// Sets (`Some`, never zero) or clears (`None`) the read deadline.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;

    /// Switches between blocking and non-blocking mode.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;

    /// The raw descriptor a reactor registers.
    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd;
}

impl SocketStream for TcpStream {
    type Peer = SocketAddr;

    fn dial(peer: &SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(peer)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn try_clone(&self) -> io::Result<Self> {
        TcpStream::try_clone(self)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

#[cfg(unix)]
impl SocketStream for UnixStream {
    type Peer = PathBuf;

    fn dial(peer: &PathBuf) -> io::Result<Self> {
        UnixStream::connect(peer)
    }

    fn try_clone(&self) -> io::Result<Self> {
        UnixStream::try_clone(self)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }

    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// A bound listening socket producing [`SocketStream`]s.
pub trait StreamListener: Send + 'static {
    /// The accepted connection's stream type.
    type Stream: SocketStream;

    /// Accepts one connection, ready for framed traffic (`WouldBlock`
    /// when non-blocking and nobody is waiting).
    fn accept_stream(&self) -> io::Result<Self::Stream>;

    /// Switches between blocking and non-blocking mode.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;

    /// The raw descriptor a reactor registers.
    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd;
}

impl StreamListener for TcpListener {
    type Stream = TcpStream;

    fn accept_stream(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpListener::set_nonblocking(self, nonblocking)
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// A Unix-domain listening socket and the filesystem path it is bound
/// at, which it unlinks on drop.
#[cfg(unix)]
#[derive(Debug)]
pub struct UnixPathListener {
    listener: UnixListener,
    path: PathBuf,
}

#[cfg(unix)]
impl StreamListener for UnixPathListener {
    type Stream = UnixStream;

    fn accept_stream(&self) -> io::Result<UnixStream> {
        self.listener.accept().map(|(stream, _)| stream)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.listener.set_nonblocking(nonblocking)
    }

    fn raw_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }
}

#[cfg(unix)]
impl Drop for UnixPathListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A connected frame transport over TCP.
pub type TcpTransport = SocketTransport<TcpStream>;
/// A listener accepting [`TcpTransport`] connections.
pub type TcpListenerTransport = SocketListener<TcpListener>;
/// A connected frame transport over a Unix-domain socket.
#[cfg(unix)]
pub type UdsTransport = SocketTransport<UnixStream>;
/// A listener accepting [`UdsTransport`] connections at a filesystem
/// path; the socket file is removed on drop.
#[cfg(unix)]
pub type UdsListenerTransport = SocketListener<UnixPathListener>;

/// One socket's frame I/O: the body of a whole [`SocketTransport`], and
/// after [`Transport::split`] the body of each half.
struct Framed<S> {
    stream: S,
    send_buf: Vec<u8>,
    reader: FrameReader,
}

impl<S: SocketStream> TransportSender for Framed<S> {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        framed::write_frame(&mut self.stream, frame, &mut self.send_buf).map(|_| ())
    }

    fn send_batch(&mut self, frames: &[&Frame]) -> Result<()> {
        if frames.len() <= 1 || !framed::wire_batching_enabled() {
            for frame in frames {
                self.send(frame)?;
            }
            return Ok(());
        }
        framed::write_frames_vectored(&mut self.stream, frames, &mut self.send_buf).map(|_| ())
    }
}

impl<S: SocketStream> TransportReceiver for Framed<S> {
    fn recv(&mut self) -> Result<Frame> {
        self.recv_within(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame> {
        self.recv_within(Some(timeout))
    }
}

impl<S: SocketStream> Framed<S> {
    fn new(stream: S) -> Self {
        Framed {
            stream,
            send_buf: Vec::new(),
            reader: FrameReader::new(),
        }
    }

    /// The one socket receive path. A frame already sitting in the
    /// read-ahead needs no syscalls at all (not even the deadline
    /// `setsockopt`). A zero `timeout` can only take such a frame: std
    /// rejects a zero read deadline, and waiting zero means not waiting.
    fn recv_within(&mut self, timeout: Option<Duration>) -> Result<Frame> {
        if let Some(result) = self.reader.read_frame_buffered() {
            return result;
        }
        if timeout == Some(Duration::ZERO) {
            return Err(TransportError::Timeout);
        }
        crate::blocking::blocking_region(match timeout {
            None => "socket.recv",
            Some(_) => "socket.recv_timeout",
        });
        self.stream.set_read_timeout(timeout)?;
        let result = self.reader.read_frame(&mut self.stream);
        if timeout.is_none() {
            return result;
        }
        let _ = self.stream.set_read_timeout(None);
        match result {
            Err(TransportError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                Err(TransportError::Timeout)
            }
            other => other,
        }
    }
}

/// A connected frame transport over a stream socket; use it through
/// [`TcpTransport`] or [`UdsTransport`].
pub struct SocketTransport<S: SocketStream> {
    io: Framed<S>,
    /// The dialed peer, kept so [`Transport::reconnect`] can re-dial.
    /// `None` for accepted (server-side) streams, which cannot dial the
    /// client back.
    peer: Option<S::Peer>,
}

impl<S: SocketStream> std::fmt::Debug for SocketTransport<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("peer", &self.peer)
            .finish()
    }
}

impl<S: SocketStream> SocketTransport<S> {
    /// Connects to `peer`; [`Transport::reconnect`] re-dials it.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn dial(peer: S::Peer) -> Result<Self> {
        let stream = S::dial(&peer)?;
        Ok(SocketTransport {
            io: Framed::new(stream),
            peer: Some(peer),
        })
    }

    fn accepted(stream: S) -> Self {
        SocketTransport {
            io: Framed::new(stream),
            peer: None,
        }
    }
}

impl TcpTransport {
    /// Connects to a listening peer.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(SocketTransport {
            peer: stream.peer_addr().ok(),
            io: Framed::new(stream),
        })
    }
}

#[cfg(unix)]
impl UdsTransport {
    /// Connects to a listening peer at `path`.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect(path: impl AsRef<Path>) -> Result<Self> {
        Self::dial(path.as_ref().to_path_buf())
    }
}

impl<S: SocketStream> Transport for SocketTransport<S> {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        self.io.send(frame)
    }

    fn send_batch(&mut self, frames: &[&Frame]) -> Result<()> {
        self.io.send_batch(frames)
    }

    fn recv(&mut self) -> Result<Frame> {
        self.io.recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame> {
        self.io.recv_timeout(timeout)
    }

    fn reconnect(&mut self) -> Result<bool> {
        let Some(peer) = &self.peer else {
            return Ok(false);
        };
        self.io.stream = S::dial(peer)?;
        self.io.reader.reset();
        Ok(true)
    }

    fn split(&mut self) -> Option<(Box<dyn TransportSender>, Box<dyn TransportReceiver>)> {
        // A socket duplicates into independent handles; the receiver
        // half inherits the resumable reader so bytes buffered across an
        // earlier recv_timeout are not lost.
        let sender = Framed {
            stream: self.io.stream.try_clone().ok()?,
            send_buf: std::mem::take(&mut self.io.send_buf),
            reader: FrameReader::new(),
        };
        let receiver = Framed {
            stream: self.io.stream.try_clone().ok()?,
            send_buf: Vec::new(),
            reader: std::mem::take(&mut self.io.reader),
        };
        Some((Box::new(sender), Box::new(receiver)))
    }
}

#[cfg(unix)]
impl<S: SocketStream> crate::endpoint::ReactorIo for SocketTransport<S> {
    fn raw_fd(&self) -> RawFd {
        self.io.stream.raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> Result<()> {
        Ok(self.io.stream.set_nonblocking(nonblocking)?)
    }

    fn try_read_frame(&mut self) -> Result<Option<Frame>> {
        // The resumable reader keeps its cursor across WouldBlock, so a
        // frame straddling readiness events assembles incrementally.
        match self.io.reader.read_frame(&mut self.io.stream) {
            Ok(frame) => Ok(Some(frame)),
            Err(TransportError::Io(e)) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn has_buffered_input(&self) -> bool {
        self.io.reader.has_buffered_input()
    }

    fn flush_queue(&mut self, queue: &mut crate::SendQueue) -> Result<bool> {
        queue.flush(&mut self.io.stream)
    }
}

/// A listener accepting [`SocketTransport`] connections; use it through
/// [`TcpListenerTransport`] or [`UdsListenerTransport`].
#[derive(Debug)]
pub struct SocketListener<L: StreamListener> {
    listener: L,
}

impl TcpListenerTransport {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self> {
        Ok(SocketListener {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound local address.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }
}

#[cfg(unix)]
impl UdsListenerTransport {
    /// Binds at `path`, unlinking a *stale* socket file first.
    ///
    /// A crashed server leaves its socket file behind (the kernel never
    /// unlinks it), and a plain `bind` on that path fails with
    /// `AddrInUse`. Unlinking unconditionally would instead silently
    /// steal the path from a *live* server. A connect probe tells the
    /// two apart: only a socket someone is accepting on answers.
    ///
    /// # Errors
    /// `AddrInUse` if a live server already accepts on `path`; otherwise
    /// propagates socket errors.
    pub fn bind(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            match UnixStream::connect(&path) {
                Ok(_probe) => {
                    return Err(TransportError::Io(io::Error::new(
                        ErrorKind::AddrInUse,
                        format!("{} is in use by a live server", path.display()),
                    )));
                }
                Err(_) => {
                    // Nobody answers: a stale file from a crashed
                    // server (or a non-socket squatter bind will still
                    // reject). Reclaim the path.
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(SocketListener {
            listener: UnixPathListener {
                listener: UnixListener::bind(&path)?,
                path,
            },
        })
    }

    /// The bound filesystem path.
    pub fn path(&self) -> &Path {
        &self.listener.path
    }
}

impl<L: StreamListener> SocketListener<L> {
    /// Blocks until a client connects.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn accept(&self) -> Result<SocketTransport<L::Stream>> {
        self.listener.set_nonblocking(false)?;
        Ok(SocketTransport::accepted(self.listener.accept_stream()?))
    }

    /// Waits up to `timeout` for a client. `std` listeners have no
    /// native accept deadline, so this polls a non-blocking accept —
    /// coarse, but it lets a serve loop check a shutdown flag between
    /// waits instead of blocking in `accept` forever. The listener is
    /// back in blocking mode on every exit path, or the next plain
    /// `accept` would spin on `WouldBlock`.
    ///
    /// # Errors
    /// [`TransportError::Timeout`] if nobody connected in time;
    /// otherwise propagates socket errors.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<SocketTransport<L::Stream>> {
        self.listener.set_nonblocking(true)?;
        let _restore = RestoreBlocking(&self.listener);
        let deadline = Instant::now() + timeout;
        let stream = loop {
            match self.listener.accept_stream() {
                Ok(stream) => break stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Timeout);
                    }
                    std::thread::sleep(ACCEPT_POLL_STEP.min(timeout));
                }
                Err(e) => return Err(e.into()),
            }
        };
        // Accepted sockets may inherit the listener's non-blocking flag
        // (platform-dependent); undo it.
        stream.set_nonblocking(false)?;
        Ok(SocketTransport::accepted(stream))
    }
}

/// How long [`SocketListener::accept_timeout`] sleeps between
/// non-blocking accept attempts.
const ACCEPT_POLL_STEP: Duration = Duration::from_millis(2);

/// Puts a listener back in blocking mode when dropped, panics included.
struct RestoreBlocking<'a, L: StreamListener>(&'a L);

impl<L: StreamListener> Drop for RestoreBlocking<'_, L> {
    fn drop(&mut self) {
        let _ = self.0.set_nonblocking(false);
    }
}

impl<L: StreamListener> Listener for SocketListener<L> {
    type Conn = SocketTransport<L::Stream>;

    fn accept(&self) -> Result<Self::Conn> {
        SocketListener::accept(self)
    }

    fn accept_timeout(&self, timeout: Duration) -> Result<Self::Conn> {
        SocketListener::accept_timeout(self, timeout)
    }
}

#[cfg(unix)]
impl<L: StreamListener> crate::endpoint::PollableListener for SocketListener<L> {
    fn raw_fd(&self) -> RawFd {
        self.listener.raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> Result<()> {
        Ok(self.listener.set_nonblocking(nonblocking)?)
    }

    fn try_accept(&self) -> Result<Option<Self::Conn>> {
        match self.listener.accept_stream() {
            Ok(stream) => Ok(Some(SocketTransport::accepted(stream))),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simnet::LinkSpec;
    use std::thread;

    /// Where a family's listener can be dialed.
    type Peer<L> = <<L as StreamListener>::Stream as SocketStream>::Peer;

    /// A socket family under test: binds a fresh listener for one case.
    trait Family: StreamListener + Sized {
        fn bind(case: &str) -> (SocketListener<Self>, Peer<Self>);
    }

    impl Family for TcpListener {
        fn bind(_case: &str) -> (SocketListener<Self>, SocketAddr) {
            let listener = TcpListenerTransport::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            (listener, addr)
        }
    }

    #[cfg(unix)]
    impl Family for UnixPathListener {
        fn bind(case: &str) -> (SocketListener<Self>, PathBuf) {
            let path = socket_path(case);
            (UdsListenerTransport::bind(&path).unwrap(), path)
        }
    }

    #[cfg(unix)]
    fn socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nrmi-uds-test-{tag}-{}", std::process::id()))
    }

    fn dial<L: Family>(peer: &Peer<L>) -> SocketTransport<L::Stream> {
        SocketTransport::dial(peer.clone()).unwrap()
    }

    /// Runs each generic case below once per socket family.
    macro_rules! on_every_family {
        ($($case:ident),* $(,)?) => {
            mod tcp {
                $(#[test]
                fn $case() {
                    super::$case::<std::net::TcpListener>(stringify!($case));
                })*
            }
            #[cfg(unix)]
            mod uds {
                $(#[test]
                fn $case() {
                    super::$case::<super::UnixPathListener>(concat!("uds-", stringify!($case)));
                })*
            }
        };
    }

    on_every_family!(
        roundtrip,
        disconnect_detected,
        recv_timeout_fires,
        zero_timeout_takes_only_a_buffered_frame,
        timeout_mid_frame_then_completion,
        reconnect_redials_the_listener,
        accepted_streams_do_not_reconnect,
        split_halves_work_concurrently,
    );

    fn roundtrip<L: Family>(case: &str) {
        let (listener, peer) = L::bind(case);
        let server = thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            let f = t.recv().unwrap();
            assert_eq!(
                f,
                Frame::Lookup {
                    name: "echo".into()
                }
            );
            t.send(&Frame::LookupReply { found: true }).unwrap();
            // Large frame across the socket.
            let big = t.recv().unwrap();
            match big {
                Frame::CallRequest { payload, .. } => assert_eq!(payload.len(), 100_000),
                other => panic!("unexpected {other:?}"),
            }
            t.send(&Frame::CallReply {
                payload: vec![7; 10],
            })
            .unwrap();
        });
        let mut client = dial::<L>(&peer);
        client
            .send(&Frame::Lookup {
                name: "echo".into(),
            })
            .unwrap();
        assert_eq!(client.recv().unwrap(), Frame::LookupReply { found: true });
        client
            .send(&Frame::CallRequest {
                service: "s".into(),
                method: "m".into(),
                mode: 0,
                payload: vec![1; 100_000],
            })
            .unwrap();
        assert_eq!(
            client.recv().unwrap(),
            Frame::CallReply {
                payload: vec![7; 10]
            }
        );
        server.join().unwrap();
    }

    fn disconnect_detected<L: Family>(case: &str) {
        let (listener, peer) = L::bind(case);
        let server = thread::spawn(move || {
            let t = listener.accept().unwrap();
            drop(t);
        });
        let mut client = dial::<L>(&peer);
        server.join().unwrap();
        assert!(matches!(client.recv(), Err(TransportError::Disconnected)));
    }

    fn recv_timeout_fires<L: Family>(case: &str) {
        let (listener, peer) = L::bind(case);
        let _keepalive = thread::spawn(move || {
            let t = listener.accept().unwrap();
            thread::sleep(Duration::from_millis(300));
            drop(t);
        });
        let mut client = dial::<L>(&peer);
        let err = client.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
    }

    /// A zero wait never reaches the socket's read deadline (which std
    /// rejects as `InvalidInput`): it takes a frame already read ahead,
    /// or times out.
    fn zero_timeout_takes_only_a_buffered_frame<L: Family>(case: &str) {
        let (listener, peer) = L::bind(case);
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let server = thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            // Both frames leave in one write, so one read takes both.
            t.send_batch(&[&Frame::Ack, &Frame::CountReply(2)]).unwrap();
            let _ = done_rx.recv();
        });
        let mut client = dial::<L>(&peer);
        assert_eq!(client.recv().unwrap(), Frame::Ack);
        assert_eq!(
            client.recv_timeout(Duration::ZERO).unwrap(),
            Frame::CountReply(2)
        );
        let err = client.recv_timeout(Duration::ZERO).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
        done_tx.send(()).unwrap();
        server.join().unwrap();
    }

    fn timeout_mid_frame_then_completion<L: Family>(case: &str) {
        // Regression for the stream-desync bug: the server sends the
        // length prefix, pauses past the client's deadline, then sends
        // the body. The client's first recv times out; the second must
        // deliver the frame intact instead of misreading body bytes as
        // a fresh length.
        let (listener, peer) = L::bind(case);
        let server = thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            let stream = &mut t.io.stream;
            let body = Frame::CallReply {
                payload: vec![0x42; 2000],
            }
            .encode();
            let prefix = (body.len() as u32).to_be_bytes();
            stream.write_all(&prefix).unwrap();
            stream.write_all(&body[..10]).unwrap();
            stream.flush().unwrap();
            thread::sleep(Duration::from_millis(150));
            stream.write_all(&body[10..]).unwrap();
            stream.flush().unwrap();
            // Hold the connection until the client is done reading.
            thread::sleep(Duration::from_millis(200));
        });
        let mut client = dial::<L>(&peer);
        let err = client.recv_timeout(Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
        let frame = client.recv().unwrap();
        assert_eq!(
            frame,
            Frame::CallReply {
                payload: vec![0x42; 2000]
            }
        );
        server.join().unwrap();
    }

    fn reconnect_redials_the_listener<L: Family>(case: &str) {
        let (listener, peer) = L::bind(case);
        let server = thread::spawn(move || {
            // First connection: answer one frame, then drop.
            let mut t = listener.accept().unwrap();
            let _ = t.recv().unwrap();
            t.send(&Frame::Ack).unwrap();
            drop(t);
            // Second connection after the client reconnects.
            let mut t = listener.accept().unwrap();
            let _ = t.recv().unwrap();
            t.send(&Frame::CountReply(2)).unwrap();
        });
        let mut client = dial::<L>(&peer);
        client.send(&Frame::Ack).unwrap();
        assert_eq!(client.recv().unwrap(), Frame::Ack);
        // Wait for the server to drop the first connection.
        assert!(matches!(client.recv(), Err(TransportError::Disconnected)));
        assert!(client.reconnect().unwrap());
        client.send(&Frame::Ack).unwrap();
        assert_eq!(client.recv().unwrap(), Frame::CountReply(2));
        server.join().unwrap();
    }

    fn accepted_streams_do_not_reconnect<L: Family>(case: &str) {
        let (listener, peer) = L::bind(case);
        let client = thread::spawn(move || {
            let _t = dial::<L>(&peer);
            thread::sleep(Duration::from_millis(50));
        });
        let mut server_side = listener.accept().unwrap();
        assert!(!server_side.reconnect().unwrap());
        client.join().unwrap();
    }

    fn split_halves_work_concurrently<L: Family>(case: &str) {
        let (listener, peer) = L::bind(case);
        let server = thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            let frame = t.recv().unwrap();
            t.send(&frame).unwrap();
        });
        let mut client = dial::<L>(&peer);
        let (mut tx, mut rx) = client.split().expect("socket transports split");
        let reader = thread::spawn(move || rx.recv().unwrap());
        tx.send(&Frame::CountReply(9)).unwrap();
        assert_eq!(reader.join().unwrap(), Frame::CountReply(9));
        server.join().unwrap();
    }

    /// `CallOptions::with_timeout(Duration::ZERO)` reaches
    /// `recv_timeout(ZERO)`: every transport answers it with `Timeout`.
    #[test]
    fn zero_timeout_is_a_timeout_on_every_transport() {
        let (channel, _channel_peer) = crate::endpoint::channel_pair(None, LinkSpec::free());
        let (_tcp_listener, addr) = <TcpListener as Family>::bind("zero-timeout");
        let mut transports: Vec<(&str, Box<dyn Transport>)> = vec![
            ("channel", Box::new(channel)),
            ("tcp", Box::new(dial::<TcpListener>(&addr))),
        ];
        #[cfg(unix)]
        let (_uds_listener, path) = UnixPathListener::bind("zero-timeout");
        #[cfg(unix)]
        transports.push(("uds", Box::new(dial::<UnixPathListener>(&path))));
        for (name, t) in &mut transports {
            let err = t.recv_timeout(Duration::ZERO).unwrap_err();
            assert!(matches!(err, TransportError::Timeout), "{name}: {err:?}");
        }
    }

    /// A listener whose accepts come from a closure, recording the
    /// blocking mode it was last switched to.
    struct ScriptedListener {
        nonblocking: std::sync::atomic::AtomicBool,
        mode_switch_fails: bool,
        accept: Box<dyn Fn() -> io::Result<TcpStream> + Send>,
    }

    impl ScriptedListener {
        fn new(
            accept: impl Fn() -> io::Result<TcpStream> + Send + 'static,
        ) -> SocketListener<Self> {
            SocketListener {
                listener: ScriptedListener {
                    nonblocking: false.into(),
                    mode_switch_fails: false,
                    accept: Box::new(accept),
                },
            }
        }

        fn is_nonblocking(&self) -> bool {
            self.nonblocking.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl StreamListener for ScriptedListener {
        type Stream = TcpStream;

        fn accept_stream(&self) -> io::Result<TcpStream> {
            (self.accept)()
        }

        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            if self.mode_switch_fails {
                return Err(io::Error::other("no fcntl for you"));
            }
            self.nonblocking
                .store(nonblocking, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        }

        #[cfg(unix)]
        fn raw_fd(&self) -> RawFd {
            -1
        }
    }

    #[test]
    fn accept_timeout_success_restores_blocking_mode() {
        let real = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = real.local_addr().unwrap();
        let scripted = ScriptedListener::new(move || TcpStream::connect(addr));
        scripted.accept_timeout(Duration::from_millis(50)).unwrap();
        assert!(!scripted.listener.is_nonblocking());
    }

    #[test]
    fn accept_timeout_timeout_restores_blocking_mode() {
        let scripted = ScriptedListener::new(|| Err(ErrorKind::WouldBlock.into()));
        let err = scripted
            .accept_timeout(Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
        assert!(!scripted.listener.is_nonblocking());
    }

    #[test]
    fn accept_timeout_accept_error_restores_blocking_mode() {
        let scripted = ScriptedListener::new(|| Err(io::Error::other("listener torn down")));
        let err = scripted
            .accept_timeout(Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err:?}");
        assert!(!scripted.listener.is_nonblocking());
    }

    #[test]
    fn accept_timeout_mode_switch_failure_propagates() {
        let mut scripted = ScriptedListener::new(|| Err(ErrorKind::WouldBlock.into()));
        scripted.listener.mode_switch_fails = true;
        assert!(scripted.accept_timeout(Duration::from_millis(10)).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn socket_file_removed_on_drop() {
        let path = socket_path("cleanup");
        {
            let _listener = UdsListenerTransport::bind(&path).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[cfg(unix)]
    #[test]
    fn bind_reclaims_stale_socket_after_crash() {
        let path = socket_path("stale");
        // Simulate a crashed server: raw std bind leaves the socket
        // file behind on drop (std never unlinks it).
        {
            let _crashed = UnixListener::bind(&path).unwrap();
        }
        assert!(path.exists(), "crash leaves the socket file");
        // A plain re-bind would fail with AddrInUse; ours must probe,
        // find nobody home, unlink, and bind.
        let listener = UdsListenerTransport::bind(&path).unwrap();
        let server = thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            t.send(&Frame::Ack).unwrap();
        });
        let mut client = UdsTransport::connect(&path).unwrap();
        assert_eq!(client.recv().unwrap(), Frame::Ack);
        server.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn bind_refuses_to_clobber_live_server() {
        let path = socket_path("live");
        let live = UdsListenerTransport::bind(&path).unwrap();
        let err = UdsListenerTransport::bind(&path).unwrap_err();
        match err {
            TransportError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse),
            other => panic!("expected AddrInUse, got {other:?}"),
        }
        // The live listener still works afterwards.
        assert!(path.exists());
        drop(live);
    }
}
