//! The multi-client connection server: accept threads + per-connection
//! reader/writer threads funneling decoded frames into one event channel.
//!
//! [`NetServer`] owns the accepting sockets and every live connection.
//! The serving application drives it from a single loop:
//!
//! * receive [`NetEvent`]s through the [`EventSink`] the server was
//!   started with — connects, decoded request frames, recoverable
//!   per-frame decode errors, and disconnects, each tagged with the
//!   connection's [`ClientId`] — posted from the accept and reader
//!   threads the moment they happen;
//! * reply with [`NetServer::send`] — *non-blocking*: the frame lands on
//!   the client's bounded outbound queue and a dedicated writer thread
//!   drains it, so one stalled peer can never wedge the serving loop;
//! * for graceful drain, [`NetServer::stop_accepting`] closes the
//!   listeners (new connects are refused) while existing connections
//!   keep streaming.
//!
//! ## Slow-client isolation
//!
//! A peer that stops reading eventually fills its socket buffers and
//! blocks whatever thread writes to it. With one writer thread *per
//! connection* that blockage is contained — but not unbounded: a sweeper
//! thread disconnects any client whose oldest undrained frame has waited
//! longer than [`NetConfig::write_deadline`]
//! ([`DisconnectReason::WriteStalled`]), and a client whose queue
//! overflows [`NetConfig::queue_cap`] is cut immediately
//! ([`DisconnectReason::QueueOverflow`]). Healthy clients never notice:
//! their queues drain as fast as they read.
//!
//! Per-client event order is guaranteed (`Connected` → requests/errors
//! in wire order → `Disconnected`, exactly once); events of different
//! clients interleave arbitrarily.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apiphany_json::Value;

use crate::conn::{Listener, Stream};
use crate::frame::{read_frame, write_frame, write_torn_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::ListenAddr;

/// How often the sweeper checks for stalled writers.
const SWEEP_TICK: Duration = Duration::from_millis(25);

/// The stable identity of one accepted connection, unique within its
/// [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// Why a connection ended (carried by [`NetEvent::Disconnected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectReason {
    /// The peer closed cleanly (EOF at a frame boundary), or the server
    /// closed the connection itself.
    Eof,
    /// A transport read error or a torn inbound frame.
    Error,
    /// The client's oldest undrained outbound frame waited past
    /// [`NetConfig::write_deadline`]: the peer stopped reading.
    WriteStalled,
    /// The client's outbound queue hit [`NetConfig::queue_cap`].
    QueueOverflow,
    /// Writing a frame to the client failed.
    WriteError,
}

impl DisconnectReason {
    /// The stable lower-case name (for logs and wire transcripts).
    pub fn name(self) -> &'static str {
        match self {
            DisconnectReason::Eof => "eof",
            DisconnectReason::Error => "error",
            DisconnectReason::WriteStalled => "write-stalled",
            DisconnectReason::QueueOverflow => "queue-overflow",
            DisconnectReason::WriteError => "write-error",
        }
    }
}

impl std::fmt::Display for DisconnectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One notification from the connection server.
#[derive(Debug)]
pub enum NetEvent {
    /// A connection was accepted (send the `hello` frame now).
    Connected(ClientId),
    /// One decoded request frame, in wire order.
    Request(ClientId, Value),
    /// A recoverable per-frame decode failure (the connection lives on;
    /// reply with a structured error).
    BadFrame(ClientId, FrameError),
    /// The connection is gone, and why. Delivered exactly once per
    /// client; cancel its work.
    Disconnected(ClientId, DisconnectReason),
}

/// An injected outbound-write fault, produced by a
/// [`WriteFaultHook`] and applied by the writer thread before (or
/// instead of) the real frame write.
#[derive(Debug)]
pub enum WriteFault {
    /// Fail the write outright with this error (the connection closes
    /// with [`DisconnectReason::WriteError`]).
    Error(io::Error),
    /// Write a torn frame — length prefix plus half the payload — then
    /// close. Simulates a crash mid-write.
    Torn,
    /// Sleep this long before writing (simulates a saturated peer; long
    /// enough stalls trip the [`NetConfig::write_deadline`]).
    Stall(Duration),
}

/// Where a [`NetServer`]'s accept and reader threads post its events
/// (typically a send on the serving loop's channel). Returns `false` once
/// the consumer is gone; the posting thread then stops.
pub type EventSink = Arc<dyn Fn(NetEvent) -> bool + Send + Sync>;

/// A hook consulted once per outbound frame; `Some(fault)` injects that
/// fault. This is a closure (not a concrete fault-plane type) so this
/// crate stays free of higher-layer dependencies — `synthd` adapts its
/// seeded fault plane into one of these.
pub type WriteFaultHook = Arc<dyn Fn() -> Option<WriteFault> + Send + Sync>;

/// Tuning for [`NetServer::start`].
#[derive(Clone)]
pub struct NetConfig {
    /// Per-frame payload cap (see [`DEFAULT_MAX_FRAME`]).
    pub max_frame: usize,
    /// How long a client's oldest undrained outbound frame may wait
    /// before the client is disconnected as stalled. Default 5s.
    pub write_deadline: Duration,
    /// Outbound frames buffered per client before the connection is cut
    /// as overflowed. Default 256.
    pub queue_cap: usize,
    /// Optional outbound-write fault injection.
    pub write_fault: Option<WriteFaultHook>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_frame: DEFAULT_MAX_FRAME,
            write_deadline: Duration::from_secs(5),
            queue_cap: 256,
            write_fault: None,
        }
    }
}

impl std::fmt::Debug for NetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetConfig")
            .field("max_frame", &self.max_frame)
            .field("write_deadline", &self.write_deadline)
            .field("queue_cap", &self.queue_cap)
            .field("write_fault", &self.write_fault.is_some())
            .finish()
    }
}

/// One client's bounded outbound queue, shared between the serving loop
/// (producer), the writer thread (consumer), and the sweeper.
struct Outbox {
    state: Mutex<OutboxState>,
    ready: Condvar,
    cap: usize,
}

#[derive(Default)]
struct OutboxState {
    queue: VecDeque<Value>,
    /// Set exactly once; the writer thread exits when it observes it.
    closed: bool,
    /// A polite goodbye is pending: no new frames are accepted, and the
    /// writer shuts the connection down once the queue is drained.
    close_after_flush: bool,
    /// When the oldest still-undrained frame was enqueued; `None` when
    /// everything enqueued so far has reached the socket.
    pending_since: Option<Instant>,
    /// The first recorded close reason wins (overflow/stall/write-error
    /// beat the reader's generic EOF).
    reason: Option<DisconnectReason>,
}

struct Client {
    /// A shutdown handle (the reader and writer threads own their own
    /// clones of the same connection).
    stream: Stream,
    outbox: Arc<Outbox>,
}

struct Shared {
    clients: Mutex<HashMap<u64, Client>>,
    accepting: AtomicBool,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    /// The deepest any client's outbound queue has ever been (a
    /// backpressure gauge for the observability plane).
    outbox_high_water: AtomicUsize,
    cfg: NetConfig,
}

/// The multi-client connection server. See the module docs.
pub struct NetServer {
    shared: Arc<Shared>,
    accept_threads: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
    addrs: Vec<ListenAddr>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addrs", &self.addrs)
            .field("connections", &self.connections())
            .finish()
    }
}

impl NetServer {
    /// Starts serving on `listeners` (at least one; unix and tcp mix
    /// freely — every accepted connection posts to the same `events`
    /// sink).
    ///
    /// # Panics
    ///
    /// Panics when `listeners` is empty.
    pub fn start(listeners: Vec<Listener>, cfg: NetConfig, events: EventSink) -> NetServer {
        assert!(!listeners.is_empty(), "NetServer::start needs at least one listener");
        let shared = Arc::new(Shared {
            clients: Mutex::new(HashMap::new()),
            accepting: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            outbox_high_water: AtomicUsize::new(0),
            cfg,
        });
        let addrs = listeners.iter().map(Listener::local_addr).collect();
        let accept_threads = listeners
            .into_iter()
            .map(|listener| {
                let shared = Arc::clone(&shared);
                let events = Arc::clone(&events);
                std::thread::spawn(move || accept_loop(&listener, &shared, &events))
            })
            .collect();
        let sweeper = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || sweep_loop(&shared))
        };
        NetServer { shared, accept_threads, sweeper: Some(sweeper), addrs }
    }

    /// The bound addresses (TCP ports resolved).
    pub fn addrs(&self) -> &[ListenAddr] {
        &self.addrs
    }

    /// Live connections.
    pub fn connections(&self) -> usize {
        self.shared.clients.lock().expect("clients lock").len()
    }

    /// The ids of every live connection (for broadcasts), in id order.
    pub fn client_ids(&self) -> Vec<ClientId> {
        let mut ids: Vec<ClientId> = self
            .shared
            .clients
            .lock()
            .expect("clients lock")
            .keys()
            .map(|&id| ClientId(id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Enqueues one frame for a client; its writer thread delivers it.
    /// Never blocks on the client's socket. Returns `false` when the
    /// client is gone, or when this frame overflowed its queue — in
    /// which case the connection is closed
    /// ([`DisconnectReason::QueueOverflow`]) and its `Disconnected`
    /// event follows.
    pub fn send(&self, client: ClientId, msg: &Value) -> bool {
        let clients = self.shared.clients.lock().expect("clients lock");
        let Some(conn) = clients.get(&client.0) else {
            return false;
        };
        let mut st = conn.outbox.state.lock().expect("outbox lock");
        if st.closed || st.close_after_flush {
            return false;
        }
        if st.queue.len() >= conn.outbox.cap {
            st.closed = true;
            st.reason.get_or_insert(DisconnectReason::QueueOverflow);
            conn.outbox.ready.notify_all();
            conn.stream.shutdown();
            return false;
        }
        st.queue.push_back(msg.clone());
        self.shared.outbox_high_water.fetch_max(st.queue.len(), Ordering::Relaxed);
        if st.pending_since.is_none() {
            st.pending_since = Some(Instant::now());
        }
        conn.outbox.ready.notify_one();
        true
    }

    /// The deepest any client's outbound queue has ever been — the
    /// backpressure high-water mark (0 when every frame was drained
    /// before the next was enqueued).
    pub fn outbox_high_water(&self) -> usize {
        self.shared.outbox_high_water.load(Ordering::Relaxed)
    }

    /// Closes one client's connection after its already-queued outbound
    /// frames have reached the socket — the polite cut for protocol
    /// refusals (e.g. an auth failure whose structured error must still
    /// be delivered). New sends are refused immediately; the reader
    /// delivers the `Disconnected` event once the writer shuts the
    /// stream down.
    pub fn close_after_flush(&self, client: ClientId) {
        let clients = self.shared.clients.lock().expect("clients lock");
        if let Some(conn) = clients.get(&client.0) {
            let mut st = conn.outbox.state.lock().expect("outbox lock");
            st.close_after_flush = true;
            conn.outbox.ready.notify_all();
        }
    }

    /// Stops accepting: the listeners close (a Unix socket file is
    /// unlinked), new connects are refused, existing connections keep
    /// streaming. The first step of a graceful drain.
    pub fn stop_accepting(&mut self) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        for handle in self.accept_threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// Shuts every connection down after its already-queued outbound
    /// frames have reached the socket (readers deliver their
    /// `Disconnected` events as they exit). Every connection gets a
    /// [`NetServer::close_after_flush`]; the call then waits until every
    /// writer has flushed and closed, bounded by
    /// [`NetConfig::write_deadline`], and shuts down whatever is left —
    /// so a draining server's last frames (terminal events for its
    /// in-flight queries) are delivered, not cut off.
    pub fn close_all(&self) {
        let outboxes: Vec<Arc<Outbox>> = {
            let clients = self.shared.clients.lock().expect("clients lock");
            clients
                .values()
                .map(|conn| {
                    conn.outbox.state.lock().expect("outbox lock").close_after_flush = true;
                    conn.outbox.ready.notify_all();
                    Arc::clone(&conn.outbox)
                })
                .collect()
        };
        let deadline = Instant::now() + self.shared.cfg.write_deadline;
        for outbox in &outboxes {
            let mut st = outbox.state.lock().expect("outbox lock");
            while !st.closed {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                st = outbox.ready.wait_timeout(st, left).expect("outbox lock").0;
            }
        }
        let clients = self.shared.clients.lock().expect("clients lock");
        for conn in clients.values() {
            conn.stream.shutdown();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_accepting();
        self.close_all();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
    }
}

fn accept_loop(listener: &Listener, shared: &Arc<Shared>, events: &EventSink) {
    while shared.accepting.load(Ordering::SeqCst) {
        match listener.poll_accept() {
            Ok(Some(stream)) => {
                let id = ClientId(shared.next_id.fetch_add(1, Ordering::Relaxed));
                let (Ok(reader), Ok(writer)) = (stream.try_clone(), stream.try_clone()) else {
                    // Could not split the connection; drop it silently —
                    // the client sees a close before any hello.
                    continue;
                };
                let outbox = Arc::new(Outbox {
                    state: Mutex::new(OutboxState::default()),
                    ready: Condvar::new(),
                    cap: shared.cfg.queue_cap,
                });
                shared
                    .clients
                    .lock()
                    .expect("clients lock")
                    .insert(id.0, Client { stream, outbox: Arc::clone(&outbox) });
                if !events(NetEvent::Connected(id)) {
                    return; // the consumer is gone
                }
                spawn_writer(writer, outbox, shared.cfg.write_fault.clone());
                spawn_reader(id, reader, Arc::clone(shared), Arc::clone(events));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => {
                // A fatal listener error (descriptor exhaustion, socket
                // removed underneath us): stop accepting on this
                // listener; live connections are unaffected.
                return;
            }
        }
    }
}

/// Disconnects every client whose oldest undrained frame has waited past
/// the write deadline. The socket shutdown doubles as the unblocking
/// mechanism: a writer thread parked inside `write_frame` on a full
/// socket buffer fails out immediately.
fn sweep_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        {
            let clients = shared.clients.lock().expect("clients lock");
            for conn in clients.values() {
                let mut st = conn.outbox.state.lock().expect("outbox lock");
                let stalled = !st.closed
                    && st
                        .pending_since
                        .is_some_and(|since| since.elapsed() >= shared.cfg.write_deadline);
                if stalled {
                    st.closed = true;
                    st.reason.get_or_insert(DisconnectReason::WriteStalled);
                    conn.outbox.ready.notify_all();
                    conn.stream.shutdown();
                }
            }
        }
        std::thread::sleep(SWEEP_TICK);
    }
}

fn spawn_writer(mut stream: Stream, outbox: Arc<Outbox>, fault: Option<WriteFaultHook>) {
    std::thread::spawn(move || {
        loop {
            let msg = {
                let mut st = outbox.state.lock().expect("outbox lock");
                loop {
                    if st.closed {
                        return;
                    }
                    if let Some(msg) = st.queue.pop_front() {
                        break msg;
                    }
                    if st.close_after_flush {
                        // The goodbye is fully written; now cut the
                        // connection (the reader reports a clean EOF).
                        st.closed = true;
                        st.reason.get_or_insert(DisconnectReason::Eof);
                        drop(st);
                        outbox.ready.notify_all();
                        stream.shutdown();
                        return;
                    }
                    st = outbox.ready.wait(st).expect("outbox lock");
                }
            };
            let result = match fault.as_ref().and_then(|hook| hook()) {
                Some(WriteFault::Stall(pause)) => {
                    std::thread::sleep(pause);
                    write_frame(&mut stream, &msg)
                }
                Some(WriteFault::Torn) => {
                    let _ = write_torn_frame(&mut stream, &msg);
                    Err(io::Error::other("injected torn frame write"))
                }
                Some(WriteFault::Error(e)) => Err(e),
                None => write_frame(&mut stream, &msg),
            };
            let mut st = outbox.state.lock().expect("outbox lock");
            match result {
                Ok(()) => {
                    if st.queue.is_empty() {
                        st.pending_since = None;
                    }
                }
                Err(_) => {
                    st.closed = true;
                    st.reason.get_or_insert(DisconnectReason::WriteError);
                    drop(st);
                    outbox.ready.notify_all();
                    // Shut the connection so the reader observes EOF and
                    // delivers the Disconnected event.
                    stream.shutdown();
                    return;
                }
            }
        }
    });
}

fn spawn_reader(id: ClientId, mut stream: Stream, shared: Arc<Shared>, events: EventSink) {
    std::thread::spawn(move || {
        let max_frame = shared.cfg.max_frame;
        let mut end = DisconnectReason::Eof;
        loop {
            match read_frame(&mut stream, max_frame) {
                Ok(Some(Ok(msg))) => {
                    if !events(NetEvent::Request(id, msg)) {
                        break;
                    }
                }
                Ok(Some(Err(err))) => {
                    if !events(NetEvent::BadFrame(id, err)) {
                        break;
                    }
                }
                // A clean EOF, or a torn frame / transport error: either
                // way the connection is over.
                Ok(None) => break,
                Err(_) => {
                    end = DisconnectReason::Error;
                    break;
                }
            }
        }
        stream.shutdown();
        // Retire the client and settle the close reason: a reason the
        // writer/sweeper recorded (stall, overflow, write error) beats
        // what this reader observed, which is merely the echo of the
        // shutdown they issued.
        let reason = {
            let mut clients = shared.clients.lock().expect("clients lock");
            match clients.remove(&id.0) {
                Some(conn) => {
                    let mut st = conn.outbox.state.lock().expect("outbox lock");
                    st.closed = true;
                    let reason = *st.reason.get_or_insert(end);
                    conn.outbox.ready.notify_all();
                    reason
                }
                None => end,
            }
        };
        events(NetEvent::Disconnected(id, reason));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DEFAULT_MAX_FRAME;
    use std::sync::mpsc;

    fn recv_event(events: &mpsc::Receiver<NetEvent>) -> NetEvent {
        events.recv_timeout(Duration::from_secs(5)).expect("an event within 5s")
    }

    fn tcp_server(cfg: NetConfig) -> (NetServer, ListenAddr, mpsc::Receiver<NetEvent>) {
        let listener = Listener::bind(&ListenAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr();
        let (tx, rx) = mpsc::channel();
        let server = NetServer::start(vec![listener], cfg, Arc::new(move |e| tx.send(e).is_ok()));
        (server, addr, rx)
    }

    #[test]
    fn accepts_decodes_replies_and_reports_disconnect() {
        let (mut server, addr, events) = tcp_server(NetConfig::default());
        let mut client = Stream::connect(&addr).unwrap();
        let NetEvent::Connected(id) = recv_event(&events) else {
            panic!("first event is Connected");
        };
        write_frame(&mut client, &Value::obj([("op", Value::from("ping"))])).unwrap();
        let NetEvent::Request(from, msg) = recv_event(&events) else {
            panic!("request frame");
        };
        assert_eq!(from, id);
        assert_eq!(msg.get("op").and_then(Value::as_str), Some("ping"));
        assert!(server.send(id, &Value::obj([("ok", Value::Bool(true))])));
        let reply = read_frame(&mut client, DEFAULT_MAX_FRAME).unwrap().unwrap().unwrap();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        // A malformed frame is reported, and the connection survives it.
        client.write_all(&3u32.to_be_bytes()).unwrap();
        client.write_all(b":-(").unwrap();
        client.flush().unwrap();
        assert!(matches!(recv_event(&events), NetEvent::BadFrame(f, FrameError::Malformed(_)) if f == id));
        write_frame(&mut client, &Value::obj([("op", Value::from("after"))])).unwrap();
        assert!(matches!(recv_event(&events), NetEvent::Request(f, _) if f == id));
        client.shutdown();
        assert!(matches!(
            recv_event(&events),
            NetEvent::Disconnected(f, DisconnectReason::Eof) if f == id
        ));
        assert!(!server.send(id, &Value::Null), "sends to a gone client fail");
        server.stop_accepting();
        assert!(Stream::connect(&addr).is_err(), "listener closed after stop_accepting");
    }

    #[test]
    fn close_after_flush_delivers_queued_frames_then_eof() {
        let (server, addr, events) = tcp_server(NetConfig::default());
        let mut client = Stream::connect(&addr).unwrap();
        let NetEvent::Connected(id) = recv_event(&events) else {
            panic!("Connected first");
        };
        assert!(server.send(id, &Value::obj([("goodbye", Value::Bool(true))])));
        server.close_after_flush(id);
        assert!(!server.send(id, &Value::Null), "post-goodbye sends are refused");
        // The queued frame still arrives, then the stream ends cleanly.
        let frame = read_frame(&mut client, DEFAULT_MAX_FRAME).unwrap().unwrap().unwrap();
        assert_eq!(frame.get("goodbye").and_then(Value::as_bool), Some(true));
        assert!(read_frame(&mut client, DEFAULT_MAX_FRAME).unwrap().is_none(), "clean EOF");
        assert!(matches!(
            recv_event(&events),
            NetEvent::Disconnected(f, DisconnectReason::Eof) if f == id
        ));
    }

    #[test]
    fn stalled_clients_are_disconnected_at_the_write_deadline() {
        // Every outbound write stalls far past the deadline: the sweeper
        // must cut the client, and the healthy client must be untouched.
        let cfg = NetConfig {
            write_deadline: Duration::from_millis(50),
            write_fault: Some(Arc::new(|| Some(WriteFault::Stall(Duration::from_millis(400))))),
            ..NetConfig::default()
        };
        let (server, addr, events) = tcp_server(cfg);
        let _client = Stream::connect(&addr).unwrap();
        let NetEvent::Connected(id) = recv_event(&events) else {
            panic!("Connected first");
        };
        assert!(server.send(id, &Value::obj([("seq", Value::Int(1))])));
        assert!(matches!(
            recv_event(&events),
            NetEvent::Disconnected(f, DisconnectReason::WriteStalled) if f == id
        ));
        assert!(!server.send(id, &Value::Null), "the stalled client is gone");
    }

    #[test]
    fn overflowing_a_clients_queue_disconnects_it() {
        // The hook reports (then stalls) so the test can wait for the
        // writer thread to be mid-write, making queue depth deterministic.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let cfg = NetConfig {
            queue_cap: 2,
            write_deadline: Duration::from_secs(30),
            write_fault: Some(Arc::new(move || {
                let _ = entered_tx.send(());
                Some(WriteFault::Stall(Duration::from_secs(5)))
            })),
            ..NetConfig::default()
        };
        let (server, addr, events) = tcp_server(cfg);
        let _client = Stream::connect(&addr).unwrap();
        let NetEvent::Connected(id) = recv_event(&events) else {
            panic!("Connected first");
        };
        assert!(server.send(id, &Value::Int(1)));
        entered_rx.recv_timeout(Duration::from_secs(5)).expect("writer picked up frame 1");
        assert!(server.send(id, &Value::Int(2)));
        assert!(server.send(id, &Value::Int(3)));
        assert!(!server.send(id, &Value::Int(4)), "the third queued frame overflows cap 2");
        assert!(matches!(
            recv_event(&events),
            NetEvent::Disconnected(f, DisconnectReason::QueueOverflow) if f == id
        ));
        assert_eq!(server.outbox_high_water(), 2, "the backpressure high-water mark sticks");
    }

    #[test]
    fn injected_write_errors_close_the_connection_structurally() {
        let cfg = NetConfig {
            write_fault: Some(Arc::new(|| Some(WriteFault::Error(io::Error::other("injected"))))),
            ..NetConfig::default()
        };
        let (server, addr, events) = tcp_server(cfg);
        let _client = Stream::connect(&addr).unwrap();
        let NetEvent::Connected(id) = recv_event(&events) else {
            panic!("Connected first");
        };
        assert!(server.send(id, &Value::obj([("ok", Value::Bool(true))])), "the enqueue succeeds");
        assert!(matches!(
            recv_event(&events),
            NetEvent::Disconnected(f, DisconnectReason::WriteError) if f == id
        ));
    }

    use std::io::Write as _;
}
