//! The socket front end: many framed connections over one daemon core.
//!
//! [`run_net_daemon`] serves the [`Daemon`](crate::daemon) core to many
//! clients: it starts an [`apiphany_net::NetServer`] whose accept and
//! reader threads post connects, frames and disconnects to the one
//! serving loop, and this front end handles them there. Each frame is
//! decoded before it is posted, on its connection's reader thread: the
//! auth gate, the version check, and request parsing with its `register`
//! resolution ([`Decoded`]) all run there, so a frame the gate or the
//! version check refuses never opens a file, and the loop only executes
//! ready requests:
//!
//! * every accepted connection gets a `hello` frame announcing the
//!   protocol version and this server's limits, then speaks the same ops
//!   as the stdio protocol (each request additionally carries a `"v"`
//!   protocol-version field);
//! * per-query state is keyed by (client, id), so clients own
//!   independent id namespaces and each one's event stream is exactly
//!   the stream a dedicated daemon would produce;
//! * a dropped connection promptly cancels exactly that client's pending
//!   and running queries — everyone else's work is untouched;
//! * **admission control**: per-client quotas (max live queries, max
//!   queries queued behind analyses) and a global high-water mark on the
//!   search lane's backlog shed new queries with structured
//!   `overloaded` errors instead of letting one client bury the daemon;
//! * **graceful drain**: SIGTERM (via [`apiphany_net::TermFlag`]) or the
//!   `shutdown` op stops accepting, announces `draining` to every
//!   client, lets in-flight work finish until the deadline, then cancels
//!   the rest — every acked query id still receives exactly one terminal
//!   event before the loop returns. A signal handler can only set an
//!   atomic, so the loop checks that latch every [`LATCH_CHECK`] until
//!   the drain starts; the drain deadline is its only other timed
//!   wake-up.

use std::collections::HashSet;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apiphany_core::telemetry::{Counter, Gauge};
use apiphany_core::Telemetry;
use apiphany_json::Value;
use apiphany_net::{
    check_version, ClientId, DisconnectReason, EventSink, Listener, NetConfig, NetEvent, NetServer,
    TermFlag, PROTOCOL_VERSION,
};

use crate::daemon::{serve, Daemon, DaemonOptions, DaemonSummary, Msg, Transport};
use crate::proto::{
    coded_error_response, ok_response, Decoded, Request, CODE_BAD_VERSION, CODE_DRAINING,
    CODE_OVERLOADED, CODE_PARSE_ERROR, CODE_UNAUTHORIZED,
};

/// How often the loop checks the SIGTERM/SIGINT latch until a drain
/// starts.
const LATCH_CHECK: Duration = Duration::from_millis(50);

/// Configuration of the socket front end.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// The daemon core's options (slots, cache dir).
    pub daemon: DaemonOptions,
    /// Per-client cap on live (session-backed) queries.
    pub max_client_live: usize,
    /// Per-client cap on queries queued behind a service's analysis.
    pub max_client_waiting: usize,
    /// Global high-water mark on the search lane's queued backlog; at or
    /// above it, *every* new query is shed with `overloaded`.
    pub search_high_water: usize,
    /// How long a drain lets in-flight work keep running before
    /// cancelling the remainder.
    pub drain_grace: Duration,
    /// Shared secret required from every connection before any request
    /// is served. `None` (the default) disables authentication. When
    /// set, the `hello` frame announces `"auth": true` and a client's
    /// first frame must carry a matching `"auth"` field — anything else
    /// gets a structured `unauthorized` error and is disconnected. The
    /// stdio front end is unaffected (it is already inside the trust
    /// boundary).
    pub auth_token: Option<String>,
}

impl Default for NetOptions {
    fn default() -> NetOptions {
        NetOptions {
            daemon: DaemonOptions::default(),
            max_client_live: 8,
            max_client_waiting: 16,
            search_high_water: 64,
            drain_grace: Duration::from_secs(10),
            auth_token: None,
        }
    }
}

/// What a finished network daemon run processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetSummary {
    /// The daemon core's request/event counts.
    pub daemon: DaemonSummary,
    /// Connections accepted over the run's lifetime.
    pub clients: usize,
    /// Queries shed by admission control (`overloaded` / `draining`).
    pub shed: usize,
    /// Connections the transport cut for not keeping up (write deadline
    /// exceeded, or outbound queue overflow).
    pub stalled: usize,
}

/// The `hello` frame sent on connect: protocol version, server identity,
/// and the limits admission control will hold this client to.
fn hello_value(opts: &NetOptions) -> Value {
    Value::obj([
        ("event", Value::from("hello")),
        ("v", Value::Int(PROTOCOL_VERSION)),
        ("server", Value::from("synthd")),
        ("auth", Value::Bool(opts.auth_token.is_some())),
        (
            "limits",
            Value::obj([
                ("max_live", Value::Int(opts.max_client_live as i64)),
                ("max_waiting", Value::Int(opts.max_client_waiting as i64)),
            ]),
        ),
    ])
}

/// The `draining` notice broadcast when a drain starts.
fn draining_value(grace: Duration) -> Value {
    Value::obj([
        ("event", Value::from("draining")),
        ("grace_ms", Value::Int(grace.as_millis().min(i64::MAX as u128) as i64)),
    ])
}

/// Runs the network daemon: starts a [`NetServer`] on `listeners` with
/// `cfg`, wired to the serving loop, and serves until a drain (SIGTERM
/// through `term`, or a `shutdown` op) completes. See the module docs
/// for the serving semantics.
///
/// # Errors
///
/// Returns the first fatal I/O error of the serving loop (individual
/// client connections failing is not one).
///
/// # Panics
///
/// Panics when `listeners` is empty.
pub fn run_net_daemon(
    listeners: Vec<Listener>,
    cfg: NetConfig,
    opts: &NetOptions,
    term: &TermFlag,
) -> io::Result<NetSummary> {
    let (mut daemon, tx, rx) = Daemon::new(&opts.daemon);
    let gate = Gate::new(opts.auth_token.clone());
    let post: EventSink = Arc::new(move |event| tx.send(Msg::Input(gate.input(event))).is_ok());
    let telemetry = opts.daemon.telemetry.clone();
    let mut front = Net {
        server: NetServer::start(listeners, cfg, post),
        opts,
        term,
        frames_in: telemetry.counter("net.frames_in"),
        frames_out: telemetry.counter("net.frames_out"),
        outbox_gauge: telemetry.gauge("net.outbox_high_water"),
        telemetry,
        drain: Drain::Serving,
        summary: NetSummary::default(),
    };
    serve(&mut daemon, &mut front, &rx)?;
    // Streams are drained; drop every remaining connection and return.
    front.server.close_all();
    // A run that tripped injected faults dumps the flight recorder so the
    // post-mortem (which jobs were affected, in what order) is on stderr
    // even when the process is about to exit.
    if opts.daemon.fault.fired() > 0 {
        front.telemetry.dump_to_stderr("drain");
    }
    Ok(NetSummary { daemon: daemon.summary, ..front.summary })
}

/// What the connection server's threads post to the serving loop: its
/// events, with each frame already decoded by [`Gate::input`].
enum NetInput {
    Connected(ClientId),
    /// One frame from an admitted connection, decoded.
    Frame(ClientId, Decoded),
    /// A frame from a connection that has not presented the auth token.
    Unauthorized(ClientId),
    Disconnected(ClientId, DisconnectReason),
}

/// The reader-side half of serving a frame, shared by every
/// connection's reader thread: the auth gate, then the version check,
/// then [`Decoded::new`]. Only the one thread reading a connection
/// decodes its frames, so they reach the loop in the order it sent them.
struct Gate {
    auth_token: Option<String>,
    /// Connections that have presented the token.
    authed: Mutex<HashSet<u64>>,
}

impl Gate {
    fn new(auth_token: Option<String>) -> Gate {
        Gate { auth_token, authed: Mutex::new(HashSet::new()) }
    }

    /// Turns one connection-server event into the loop's input.
    fn input(&self, event: NetEvent) -> NetInput {
        let (client, frame) = match event {
            NetEvent::Connected(client) => return NetInput::Connected(client),
            NetEvent::Disconnected(client, reason) => {
                self.authed.lock().expect("auth set lock").remove(&client.0);
                return NetInput::Disconnected(client, reason);
            }
            NetEvent::BadFrame(client, err) => (client, Err(err)),
            NetEvent::Request(client, msg) => (client, Ok(msg)),
        };
        if !self.admits(client, frame.as_ref().ok()) {
            return NetInput::Unauthorized(client);
        }
        let refused =
            |code, message: &str| Decoded::Refused(coded_error_response(None, None, code, message));
        let decoded = match frame {
            Err(err) => refused(CODE_PARSE_ERROR, &err.to_string()),
            Ok(msg) => match check_version(&msg) {
                Err(message) => refused(CODE_BAD_VERSION, &message),
                Ok(()) => Decoded::new(Request::from_value(&msg)),
            },
        };
        NetInput::Frame(client, decoded)
    }

    /// Whether `client` is served. A frame (`None`: one that did not
    /// decode) carrying the token admits its whole connection; always
    /// `true` when authentication is disabled.
    fn admits(&self, client: ClientId, frame: Option<&Value>) -> bool {
        let Some(token) = &self.auth_token else {
            return true;
        };
        let mut authed = self.authed.lock().expect("auth set lock");
        if frame.and_then(|msg| msg.get("auth")).and_then(Value::as_str) == Some(token.as_str()) {
            authed.insert(client.0);
        }
        authed.contains(&client.0)
    }
}

/// Where a drain stands.
enum Drain {
    Serving,
    /// Draining; in-flight work runs on until this deadline.
    Grace(Instant),
    /// Draining; whatever was still in flight at the deadline has been
    /// cancelled.
    Cancelled,
}

/// The socket front end: a `hello` on connect, a `"v"` on every request,
/// shared-secret auth, per-client quotas and a global backlog limit, and
/// a drain with a grace period. Lines for a client that is gone are
/// dropped — its disconnect, which cancels its work, is already posted.
struct Net<'a> {
    server: NetServer,
    opts: &'a NetOptions,
    term: &'a TermFlag,
    telemetry: Telemetry,
    frames_in: Counter,
    /// Frames actually enqueued for a live client.
    frames_out: Counter,
    outbox_gauge: Gauge,
    drain: Drain,
    /// The transport's counts (the daemon core keeps its own).
    summary: NetSummary,
}

impl Transport for Net<'_> {
    type Input = NetInput;

    fn emit(&mut self, client: u64, value: &Value) -> io::Result<()> {
        if self.server.send(ClientId(client), value) {
            self.frames_out.inc();
        }
        Ok(())
    }

    fn input(&mut self, daemon: &mut Daemon, input: NetInput) -> io::Result<()> {
        match input {
            NetInput::Connected(client) => {
                self.summary.clients += 1;
                self.emit(client.0, &hello_value(self.opts))?;
                if self.closing() {
                    self.emit(client.0, &draining_value(self.opts.drain_grace))?;
                }
                Ok(())
            }
            NetInput::Disconnected(client, reason) => {
                if matches!(
                    reason,
                    DisconnectReason::WriteStalled | DisconnectReason::QueueOverflow
                ) {
                    self.summary.stalled += 1;
                    self.telemetry.counter("net.stalled").inc();
                }
                self.telemetry.record(
                    "net.disconnect",
                    [("client", client.0.to_string()), ("reason", reason.name().to_string())],
                );
                daemon.drop_client(client.0);
                Ok(())
            }
            NetInput::Unauthorized(client) => {
                daemon.summary.requests += 1;
                self.frames_in.inc();
                self.refuse_unauthorized(client);
                Ok(())
            }
            NetInput::Frame(client, decoded) => {
                daemon.summary.requests += 1;
                self.frames_in.inc();
                match decoded {
                    Decoded::Refused(reply) => self.emit(client.0, &reply),
                    Decoded::Ready(request) => self.execute(daemon, client.0, request),
                }
            }
        }
    }

    fn closing(&self) -> bool {
        !matches!(self.drain, Drain::Serving)
    }

    fn tick(&mut self, daemon: &mut Daemon) -> io::Result<Option<Instant>> {
        self.outbox_gauge.set(self.server.outbox_high_water().min(i64::MAX as usize) as i64);
        match self.drain {
            // A delivered SIGTERM/SIGINT starts the drain.
            Drain::Serving if self.term.is_raised() => self.start_drain()?,
            Drain::Serving => return Ok(Some(Instant::now() + LATCH_CHECK)),
            // Past the grace deadline, cancel whatever is still in flight
            // (each key gets its terminal event).
            Drain::Grace(deadline) if Instant::now() >= deadline => {
                self.drain = Drain::Cancelled;
                daemon.cancel_all(self)?;
            }
            Drain::Grace(_) | Drain::Cancelled => {}
        }
        Ok(match self.drain {
            Drain::Grace(deadline) => Some(deadline),
            _ => None,
        })
    }
}

impl Net<'_> {
    /// Sends `unauthorized` to a client that has not presented the
    /// shared secret, and drops its connection.
    fn refuse_unauthorized(&mut self, client: ClientId) {
        self.telemetry.record(
            "net.admission",
            [("client", client.0.to_string()), ("decision", CODE_UNAUTHORIZED.to_string())],
        );
        let refusal = coded_error_response(
            None,
            None,
            CODE_UNAUTHORIZED,
            "authentication required: first frame must carry a valid \"auth\" token",
        );
        let _ = self.emit(client.0, &refusal);
        self.server.close_after_flush(client);
    }

    /// Stops accepting and announces the drain to every connected client.
    fn start_drain(&mut self) -> io::Result<()> {
        self.server.stop_accepting();
        self.drain = Drain::Grace(Instant::now() + self.opts.drain_grace);
        let notice = draining_value(self.opts.drain_grace);
        for client in self.server.client_ids() {
            self.emit(client.0, &notice)?;
        }
        Ok(())
    }

    /// One shed query: bump the counters, log the admission decision in
    /// the flight recorder, and send the structured refusal.
    fn shed_query(&mut self, client: u64, id: &str, code: &str, message: &str) -> io::Result<()> {
        self.summary.shed += 1;
        self.telemetry.counter("net.shed").inc();
        self.telemetry.record(
            "net.admission",
            [("client", client.to_string()), ("id", id.into()), ("decision", code.into())],
        );
        self.emit(client, &coded_error_response(Some("query"), Some(id), code, message))
    }

    /// Executes one decoded request: `shutdown` starts the drain, a
    /// query passes admission control, and the rest goes to the shared
    /// daemon core.
    fn execute(
        &mut self,
        daemon: &mut Daemon,
        client: u64,
        request: Request,
    ) -> io::Result<()> {
        match request {
            Request::Shutdown => {
                self.emit(client, &ok_response("shutdown", []))?;
                if self.closing() {
                    return Ok(());
                }
                self.start_drain()
            }
            Request::Query { id, .. } if self.closing() => self.shed_query(
                client,
                &id,
                CODE_DRAINING,
                "daemon is draining for shutdown; no new queries",
            ),
            Request::Query { id, spec } => {
                let occupancy = daemon.occupancy(client);
                let backlog = daemon.queued_search();
                let refusal = if occupancy.live >= self.opts.max_client_live {
                    Some(format!(
                        "client has {} live queries (limit {}); retry after one finishes",
                        occupancy.live, self.opts.max_client_live
                    ))
                } else if occupancy.waiting >= self.opts.max_client_waiting {
                    Some(format!(
                        "client has {} queries waiting on analyses (limit {})",
                        occupancy.waiting, self.opts.max_client_waiting
                    ))
                } else if backlog >= self.opts.search_high_water {
                    Some(format!(
                        "search backlog at high water ({backlog} queued, limit {}); \
                         retry after the backlog drains",
                        self.opts.search_high_water
                    ))
                } else {
                    None
                };
                match refusal {
                    Some(message) => self.shed_query(client, &id, CODE_OVERLOADED, &message),
                    None => daemon.handle(self, client, Request::Query { id, spec }),
                }
            }
            other => daemon.handle(self, client, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ServiceInputs;
    use apiphany_core::Engine;
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    /// With auth on, a first frame that names an artifact file without
    /// the token is refused as `Unauthorized` by the reader-side decode,
    /// not resolved: a resolved path reads as a ready registration (the
    /// same frame with the token) or as a file error (a missing path).
    #[test]
    fn the_auth_gate_refuses_a_frame_before_resolving_its_artifact_path() {
        let dir = std::env::temp_dir().join(format!("synthd-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig7.analysis.json");
        let artifact = Engine::from_witnesses(fig7_library(), fig4_witnesses()).save_analysis();
        std::fs::write(&path, artifact.to_json()).unwrap();
        let frame = |path: &std::path::Path, auth: Option<&str>| {
            let mut msg = Value::obj([
                ("op", Value::from("register")),
                ("service", Value::from("fig7")),
                ("artifact_path", Value::from(path.to_string_lossy().as_ref())),
                ("v", Value::Int(PROTOCOL_VERSION)),
            ]);
            if let Some(token) = auth {
                msg.set("auth", Value::from(token));
            }
            NetEvent::Request(ClientId(1), msg)
        };
        let gate = Gate::new(Some("sesame".to_string()));
        for unresolved in [path.clone(), dir.join("missing.analysis.json")] {
            assert!(matches!(
                gate.input(frame(&unresolved, None)),
                NetInput::Unauthorized(ClientId(1))
            ));
        }
        assert!(matches!(
            gate.input(frame(&path, Some("sesame"))),
            NetInput::Frame(
                ClientId(1),
                Decoded::Ready(Request::Register { source: ServiceInputs::Artifact(_), .. })
            )
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
