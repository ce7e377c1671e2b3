//! Multi-client serving over real sockets: a `synthd` network daemon on a
//! Unix-domain (or TCP) socket, driven by framed clients exactly as the
//! binary serves them.
//!
//! The headline guarantee, property-tested: with several clients
//! interleaving queries over one socket — even reusing the *same* query
//! id — each client's event stream is bit-identical (wall-clock fields
//! excluded) to a dedicated single-client stdio run of the same script.
//! Around it: the `hello`/version handshake, per-frame error recovery,
//! disconnect cancelling exactly the dropped client's work, admission
//! control shedding with `overloaded` and recovering, and a graceful
//! drain that terminates every in-flight id before exit.

mod common;

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use apiphany_json::{parse, Value};
use apiphany_net::{
    read_frame, write_frame, ListenAddr, Listener, NetConfig, Stream, TermFlag, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
use apiphany_server::{run_net_daemon, DaemonOptions, NetOptions, NetSummary};
use common::{
    dedicated_run, event_stream, fig7_artifact_json, register_path_line, test_dir, str_field,
};
use proptest::prelude::*;

static NEXT_SOCKET: AtomicUsize = AtomicUsize::new(0);

fn fresh_unix_addr() -> ListenAddr {
    let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
    ListenAddr::Unix(
        std::env::temp_dir().join(format!("synthd-net-test-{}-{n}.sock", std::process::id())),
    )
}

/// A network daemon running on its own thread, plus the handles a test
/// needs: the resolved address, the drain latch, and the join handle.
struct TestServer {
    addr: ListenAddr,
    term: TermFlag,
    handle: thread::JoinHandle<std::io::Result<NetSummary>>,
}

impl TestServer {
    fn start(addr: &ListenAddr, opts: NetOptions, write_deadline: Duration) -> TestServer {
        let listener = Listener::bind(addr).expect("bind test listener");
        let addr = listener.local_addr();
        // The synthd binary's transport config with the given write
        // deadline; a roomy queue cap so a cut non-reading client is
        // always a write-deadline stall, never an overflow.
        let cfg = NetConfig {
            max_frame: DEFAULT_MAX_FRAME,
            write_deadline,
            queue_cap: 16_384,
            ..NetConfig::default()
        };
        let term = TermFlag::new();
        let term_server = term.clone();
        let handle =
            thread::spawn(move || run_net_daemon(vec![listener], cfg, &opts, &term_server));
        TestServer { addr, term, handle }
    }

    fn start_unix(opts: NetOptions) -> TestServer {
        TestServer::start(&fresh_unix_addr(), opts, NetConfig::default().write_deadline)
    }

    /// Raises the drain latch and waits for the serving loop to return.
    fn drain(self) -> NetSummary {
        self.term.raise();
        self.handle
            .join()
            .expect("server thread exits cleanly")
            .expect("serving loop returns Ok")
    }
}

/// A framed client: a writer handle plus a reader thread forwarding every
/// received frame into a channel (so receives never tear a frame).
struct Client {
    writer: Stream,
    rx: mpsc::Receiver<Value>,
}

impl Client {
    fn connect(addr: &ListenAddr) -> Client {
        let writer = Stream::connect(addr).expect("connect test client");
        let mut reader = writer.try_clone().expect("clone stream for reading");
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || loop {
            match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
                Ok(Some(Ok(frame))) => {
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
                Ok(Some(Err(e))) => panic!("server sent an undecodable frame: {e}"),
                Ok(None) | Err(_) => break,
            }
        });
        Client { writer, rx }
    }

    /// Sends one request line (parsed from JSON text), stamped with the
    /// protocol version.
    fn send(&mut self, request: &str) {
        let mut msg = parse(request).expect("test request is valid JSON");
        msg.set("v", Value::Int(PROTOCOL_VERSION));
        write_frame(&mut self.writer, &msg).expect("send frame");
    }

    /// Sends a pre-built value verbatim — no version stamping.
    fn send_value(&mut self, msg: &Value) {
        write_frame(&mut self.writer, msg).expect("send frame");
    }

    /// Injects raw bytes as one "frame" (for malformed-payload tests).
    fn send_raw(&mut self, payload: &[u8]) {
        let len = u32::try_from(payload.len()).unwrap();
        self.writer.write_all(&len.to_be_bytes()).unwrap();
        self.writer.write_all(payload).unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&self) -> Value {
        self.rx
            .recv_timeout(Duration::from_secs(30))
            .expect("server replies within the deadline")
    }

    /// Receives until `pred` matches, returning everything received
    /// (match included).
    fn recv_until(&self, pred: impl Fn(&Value) -> bool) -> Vec<Value> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got = Vec::new();
        loop {
            let left = deadline
                .checked_duration_since(Instant::now())
                .unwrap_or_else(|| panic!("timed out; received so far: {got:?}"));
            let frame = self.rx.recv_timeout(left).unwrap_or_else(|_| {
                panic!("timed out; received so far: {got:?}")
            });
            let done = pred(&frame);
            got.push(frame);
            if done {
                return got;
            }
        }
    }

    /// Waits for the `hello` handshake and asserts its shape.
    fn expect_hello(&self) {
        let hello = self.recv();
        assert_eq!(str_field(&hello, "event"), "hello");
        assert_eq!(hello.get("v").and_then(Value::as_int), Some(PROTOCOL_VERSION));
        assert!(hello.path(&["limits", "max_live"]).is_some());
    }

    /// Drops the connection without any protocol goodbye.
    fn disconnect(self) {
        self.writer.shutdown();
    }
}

const REGISTER: &str = r#"{"op":"register","service":"demo","builtin":"fig7","prewarm":true}"#;

fn email_query(id: &str, depth: usize) -> String {
    format!(
        r#"{{"op":"query","id":"{id}","service":"demo","inputs":{{"channel_name":"Channel.name"}},"output":"[Profile.email]","depth":{depth}}}"#
    )
}

fn channels_query(id: &str, depth: usize) -> String {
    format!(r#"{{"op":"query","id":"{id}","service":"demo","output":"[Channel]","depth":{depth}}}"#)
}

fn finished(id: &str) -> impl Fn(&Value) -> bool + '_ {
    move |l| str_field(l, "event") == "finished" && str_field(l, "id") == id
}

/// Registers `demo` and waits for its analysis to be ready, so later
/// queries go straight to live sessions (what the quota tests need).
fn register_warm(client: &mut Client) {
    client.send(REGISTER);
    client.recv_until(|l| str_field(l, "event") == "analysis_ready");
}

#[test]
fn hello_version_gate_and_lane_status_over_tcp() {
    let server = TestServer::start(
        &ListenAddr::parse("tcp:127.0.0.1:0").unwrap(),
        NetOptions::default(),
        NetConfig::default().write_deadline,
    );
    let mut client = Client::connect(&server.addr);
    client.expect_hello();

    // No "v" field: a structured bad_version error, connection intact.
    client.send_value(&parse(r#"{"op":"status"}"#).unwrap());
    let err = client.recv();
    assert_eq!(str_field(&err, "code"), "bad_version");
    assert!(str_field(&err, "error").contains("missing the 'v'"));

    // Wrong version: same gate.
    client.send_value(&parse(r#"{"op":"status","v":99}"#).unwrap());
    assert_eq!(str_field(&client.recv(), "code"), "bad_version");

    // A versioned status works and reports both lanes' depth and caps
    // plus the per-client occupancy block.
    client.send(r#"{"op":"status"}"#);
    let status = client.recv();
    assert_eq!(status.get("ok").and_then(Value::as_bool), Some(true));
    for lane in ["search", "analysis"] {
        for field in ["queued", "running", "cap"] {
            assert!(
                status.path(&["lanes", lane, field]).and_then(Value::as_int).is_some(),
                "status.lanes.{lane}.{field}: {status:?}"
            );
        }
    }
    // The default options run 2 slots; analysis gets at most 1 of them.
    for (path, want) in [
        (&["runtime", "slots"][..], 2),
        (&["lanes", "search", "cap"][..], 2),
        (&["lanes", "analysis", "cap"][..], 1),
    ] {
        assert_eq!(status.path(path).and_then(Value::as_int), Some(want), "{path:?}");
    }
    assert!(status.get("clients").and_then(Value::as_array).is_some());

    let summary = server.drain();
    assert_eq!(summary.clients, 1);
}

#[test]
fn malformed_frames_cost_one_error_never_the_connection() {
    let server = TestServer::start_unix(NetOptions::default());
    let mut client = Client::connect(&server.addr);
    client.expect_hello();

    // Undecodable payload: a structured parse_error reply.
    client.send_raw(b"this is not json");
    let err = client.recv();
    assert_eq!(str_field(&err, "code"), "parse_error");
    assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));

    // Valid JSON that is not a valid request: parse_error too.
    client.send(r#"{"op":"frobnicate"}"#);
    assert_eq!(str_field(&client.recv(), "code"), "parse_error");

    // The connection survived: a real conversation still works.
    register_warm(&mut client);
    client.send(&email_query("q", 7));
    let lines = client.recv_until(finished("q"));
    let done = lines.last().unwrap();
    assert_eq!(str_field(done, "outcome"), "exhausted");
    assert_eq!(done.get("n_candidates").and_then(Value::as_int), Some(2));

    server.drain();
}

#[test]
fn disconnect_cancels_exactly_that_clients_work() {
    let opts = NetOptions {
        daemon: DaemonOptions { slots: 2, ..DaemonOptions::default() },
        ..NetOptions::default()
    };
    let server = TestServer::start_unix(opts);
    let mut doomed = Client::connect(&server.addr);
    doomed.expect_hello();
    register_warm(&mut doomed);

    let mut survivor = Client::connect(&server.addr);
    survivor.expect_hello();

    // The doomed client opens a deep query and drops mid-stream; the
    // survivor opens a normal one.
    doomed.send(&email_query("deep", 12));
    doomed.recv_until(|l| str_field(l, "op") == "query");
    survivor.send(&email_query("q", 7));
    doomed.disconnect();

    // The survivor's stream is complete and untouched.
    let lines = survivor.recv_until(finished("q"));
    assert_eq!(str_field(lines.last().unwrap(), "outcome"), "exhausted");

    // The dropped client's query is promptly gone from the daemon: the
    // status occupancy block stops listing its client id.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        survivor.send(r#"{"op":"status"}"#);
        let status = survivor
            .recv_until(|l| str_field(l, "op") == "status")
            .pop()
            .unwrap();
        let clients = status.get("clients").and_then(Value::as_array).unwrap();
        if clients.len() <= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dropped client still occupies the daemon: {status:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }

    server.drain();
}

#[test]
fn quota_exceeded_sheds_with_overloaded_and_recovers() {
    let opts = NetOptions {
        max_client_live: 1,
        ..NetOptions::default()
    };
    let server = TestServer::start_unix(opts);
    let mut client = Client::connect(&server.addr);
    client.expect_hello();
    register_warm(&mut client);

    // One live query fills the quota...
    client.send(&email_query("q1", 12));
    client.recv_until(|l| str_field(l, "op") == "query" && str_field(l, "id") == "q1");
    // ...so the second is shed with a structured `overloaded` error
    // naming the rejected id (and no terminal event will follow for it).
    client.send(&email_query("q2", 7));
    let shed = client
        .recv_until(|l| !str_field(l, "code").is_empty())
        .pop()
        .unwrap();
    assert_eq!(str_field(&shed, "code"), "overloaded");
    assert_eq!(str_field(&shed, "id"), "q2");
    assert!(str_field(&shed, "error").contains("limit 1"));

    // Cancelling q1 frees the slot; a new query is admitted and runs to
    // completion — the client recovered without reconnecting.
    client.send(r#"{"op":"cancel","id":"q1"}"#);
    client.recv_until(finished("q1"));
    client.send(&email_query("q3", 7));
    let lines = client.recv_until(finished("q3"));
    assert_eq!(str_field(lines.last().unwrap(), "outcome"), "exhausted");

    let summary = server.drain();
    assert_eq!(summary.shed, 1);
}

#[test]
fn drain_announces_refuses_new_work_and_terminates_in_flight_ids() {
    // A short grace so the drain cancels the deep query quickly.
    let opts = NetOptions {
        drain_grace: Duration::from_millis(100),
        ..NetOptions::default()
    };
    let server = TestServer::start_unix(opts);
    let addr = server.addr.clone();
    let mut client = Client::connect(&addr);
    client.expect_hello();
    register_warm(&mut client);
    client.send(&email_query("deep", 12));
    client.recv_until(|l| str_field(l, "op") == "query");

    // SIGTERM (the latch a delivered signal raises).
    server.term.raise();
    client.recv_until(|l| str_field(l, "event") == "draining");

    // New queries are refused with a structured `draining` error...
    client.send(&email_query("late", 7));
    let refused = client
        .recv_until(|l| !str_field(l, "code").is_empty())
        .pop()
        .unwrap();
    assert_eq!(str_field(&refused, "code"), "draining");

    // ...while the in-flight id still gets exactly one terminal event.
    let lines = client.recv_until(finished("deep"));
    assert_eq!(str_field(lines.last().unwrap(), "outcome"), "cancelled");
    let terminals = lines.iter().filter(|l| finished("deep")(l)).count();
    assert_eq!(terminals, 1);

    let summary = server.handle
        .join()
        .expect("server thread exits cleanly")
        .expect("serving loop returns Ok");
    assert_eq!(summary.clients, 1);
    assert_eq!(summary.shed, 1);

    // The drained server stopped accepting: its socket is gone.
    assert!(Stream::connect(&addr).is_err(), "socket refuses new connections");
}

#[test]
fn shutdown_op_drains_like_a_signal() {
    let opts = NetOptions {
        drain_grace: Duration::from_millis(100),
        ..NetOptions::default()
    };
    let server = TestServer::start_unix(opts);
    let mut client = Client::connect(&server.addr);
    client.expect_hello();
    register_warm(&mut client);
    client.send(&email_query("deep", 12));
    client.send(r#"{"op":"shutdown"}"#);
    let lines = client.recv_until(finished("deep"));
    assert!(lines.iter().any(|l| str_field(l, "op") == "shutdown"));
    assert!(lines.iter().any(|l| str_field(l, "event") == "draining"));
    assert_eq!(str_field(lines.last().unwrap(), "outcome"), "cancelled");
    server
        .handle
        .join()
        .expect("server thread exits cleanly")
        .expect("serving loop returns Ok");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two clients interleaving over one socket — deliberately reusing
    /// the *same* query id — each see exactly the event stream a
    /// dedicated single-client stdio run produces, for every slot count
    /// and either send order. A third client that stops reading and
    /// floods requests is cut at the write deadline without perturbing
    /// either stream.
    #[test]
    fn interleaved_client_streams_match_dedicated_runs(
        slots in 1usize..4,
        order in 0usize..2,
    ) {
        let first_sends_email = order == 0;
        type QueryFn = fn(&str, usize) -> String;
        let specs: [QueryFn; 2] = if first_sends_email {
            [email_query, channels_query]
        } else {
            [channels_query, email_query]
        };
        let depths = [7, 5];

        // References: each query through a dedicated stdio daemon.
        let references: Vec<Vec<String>> = (0..2)
            .map(|i| {
                let script = format!("{REGISTER}\n{}\n", specs[i]("q", depths[i]));
                event_stream(&dedicated_run(&script, slots), "q")
            })
            .collect();

        let opts = NetOptions {
            daemon: DaemonOptions { slots, ..DaemonOptions::default() },
            ..NetOptions::default()
        };
        let server = TestServer::start(&fresh_unix_addr(), opts, Duration::from_millis(150));
        let mut a = Client::connect(&server.addr);
        a.expect_hello();
        register_warm(&mut a);
        let mut b = Client::connect(&server.addr);
        b.expect_hello();

        // A misbehaving third client: never reads (not even the hello),
        // floods requests until the replies fill its socket buffers and
        // the server's writer blocks. The sweeper must cut it at the
        // write deadline; a cut mid-flood fails the remaining writes.
        let mut staller = Stream::connect(&server.addr).expect("connect staller");
        let mut status = parse(r#"{"op":"status"}"#).unwrap();
        status.set("v", Value::Int(PROTOCOL_VERSION));
        for _ in 0..3000 {
            if write_frame(&mut staller, &status).is_err() {
                break;
            }
        }
        thread::sleep(Duration::from_millis(600)); // past deadline + sweep tick

        // Both clients issue id "q" concurrently: ids are per-client.
        a.send(&specs[0]("q", depths[0]));
        b.send(&specs[1]("q", depths[1]));
        let got_a = event_stream(&a.recv_until(finished("q")), "q");
        let got_b = event_stream(&b.recv_until(finished("q")), "q");

        // The event streams (analysis events excluded — the net run
        // shares one analysis, the dedicated runs each do their own)
        // are bit-identical to the dedicated runs'.
        prop_assert_eq!(&got_a, &references[0]);
        prop_assert_eq!(&got_b, &references[1]);

        let summary = server.drain();
        prop_assert_eq!(summary.clients, 3);
        prop_assert_eq!(summary.shed, 0);
        // Exactly the non-reading client was cut as stalled.
        prop_assert_eq!(summary.stalled, 1);
    }
}

/// With `--auth-token`, the hello announces auth, a first frame without
/// the shared secret (or with the wrong one) gets a structured
/// `unauthorized` error and the connection is cut, and a correct token
/// on the first frame admits the whole connection — later frames need
/// no token.
#[test]
fn auth_token_gates_clients_and_admits_the_shared_secret() {
    let server = TestServer::start_unix(NetOptions {
        auth_token: Some("sesame".to_string()),
        ..NetOptions::default()
    });

    // Missing token: refused and disconnected, also for a first frame
    // that names an artifact file — it is refused before the file is
    // read, and the service never registers (the `list` below).
    let dir = test_dir("auth");
    let path = dir.join("anon.analysis.json");
    std::fs::write(&path, fig7_artifact_json()).unwrap();
    let anon = Client::connect(&server.addr);
    let hello = anon.recv();
    assert_eq!(str_field(&hello, "event"), "hello");
    assert_eq!(hello.get("auth").and_then(Value::as_bool), Some(true));
    let mut anon = anon;
    anon.send(&register_path_line("anon", &path));
    let refusal = anon.recv();
    assert_eq!(str_field(&refusal, "code"), "unauthorized");
    assert!(
        anon.rx.recv_timeout(Duration::from_secs(10)).is_err(),
        "unauthorized client is disconnected"
    );

    // Wrong token: same refusal.
    let mut wrong = Client::connect(&server.addr);
    wrong.expect_hello();
    let mut msg = parse(REGISTER).unwrap();
    msg.set("v", Value::Int(PROTOCOL_VERSION));
    msg.set("auth", Value::from("open says me"));
    wrong.send_value(&msg);
    assert_eq!(str_field(&wrong.recv(), "code"), "unauthorized");

    // Correct token on the first frame: the whole connection is
    // admitted, and later frames are served without re-presenting it.
    let mut good = Client::connect(&server.addr);
    good.expect_hello();
    let mut msg = parse(REGISTER).unwrap();
    msg.set("v", Value::Int(PROTOCOL_VERSION));
    msg.set("auth", Value::from("sesame"));
    good.send_value(&msg);
    good.recv_until(|l| str_field(l, "event") == "analysis_ready");
    good.send(&email_query("q", 7));
    let lines = good.recv_until(finished("q"));
    assert_eq!(event_stream(&lines, "q"), event_stream(&dedicated_run(
        &format!("{REGISTER}\n{}\n", email_query("q", 7)), 2), "q"),
        "an authed stream is still bit-identical to a dedicated run");
    good.send(r#"{"op":"list"}"#);
    let list = good.recv();
    let services = list.get("services").and_then(Value::as_array).unwrap();
    let names: Vec<&str> = services.iter().map(|s| str_field(s, "name")).collect();
    assert_eq!(names, ["demo"], "no refused registration reached the catalog");

    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client registers a service by `artifact_path` and, without waiting
/// for the reply, queries it: its own frames keep their order (reply,
/// ack, then the dedicated-engine stream), while a second client's warm
/// query streams unchanged beside it.
#[test]
fn a_path_registration_and_its_query_back_to_back_beside_a_warm_client() {
    const COPY_QUERY: &str = r#"{"op":"query","id":"q","service":"copy","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}"#;
    let json = fig7_artifact_json();
    let dir = test_dir("back-to-back");
    let path = dir.join("copy.analysis.json");
    std::fs::write(&path, &json).unwrap();
    let inline = Value::obj([
        ("op", Value::from("register")),
        ("service", Value::from("copy")),
        ("artifact", parse(&json).unwrap()),
    ]);
    let reference = event_stream(
        &dedicated_run(&format!("{}\n{COPY_QUERY}\n", inline.to_json()), 2),
        "q",
    );
    let warm_reference = event_stream(
        &dedicated_run(&format!("{REGISTER}\n{}\n", email_query("w", 7)), 2),
        "w",
    );

    let server = TestServer::start_unix(NetOptions::default());
    let mut warm = Client::connect(&server.addr);
    warm.expect_hello();
    register_warm(&mut warm);
    let mut copy = Client::connect(&server.addr);
    copy.expect_hello();

    copy.send(&register_path_line("copy", &path));
    copy.send(COPY_QUERY);
    warm.send(&email_query("w", 7));
    let lines = copy.recv_until(finished("q"));
    assert_eq!(str_field(&lines[0], "op"), "register");
    assert_eq!(lines[0].get("ok").and_then(Value::as_bool), Some(true), "{lines:?}");
    assert_eq!(str_field(&lines[1], "op"), "query");
    assert_eq!(str_field(&lines[1], "analysis"), "copy", "queued behind the copy's analysis");
    assert_eq!(event_stream(&lines, "q"), reference);
    assert_eq!(event_stream(&warm.recv_until(finished("w")), "w"), warm_reference);

    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `metrics` and `dump-recorder` ops over the socket: after a warm
/// analysis and one finished query, the snapshot reports nonzero search,
/// job, and transport counters, and the flight recorder holds the job's
/// transitions.
#[test]
fn metrics_op_reports_search_job_and_transport_activity() {
    let server = TestServer::start_unix(NetOptions::default());
    let mut client = Client::connect(&server.addr);
    client.expect_hello();
    register_warm(&mut client);
    client.send(&email_query("q", 7));
    client.recv_until(finished("q"));

    // `analysis_ready` and `finished` are emitted only after their jobs
    // settle, so the counters below are deterministically nonzero.
    client.send(r#"{"op":"metrics"}"#);
    let reply = client.recv();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    let metrics = reply.get("metrics").expect("metrics snapshot");
    assert!(metrics.get("uptime_ms").and_then(Value::as_int).is_some());
    for counter in ["search.nodes", "jobs.completed", "net.frames_in", "net.frames_out"] {
        let n = metrics.path(&["counters", counter]).and_then(Value::as_int).unwrap_or(0);
        assert!(n > 0, "counter {counter} should be nonzero: {metrics:?}");
    }
    assert!(
        metrics.path(&["histograms", "search.depth_us"]).is_some(),
        "depth histogram is registered: {metrics:?}"
    );

    // The finished query's search stats are folded into its service's
    // inspect view.
    client.send(r#"{"op":"inspect","service":"demo"}"#);
    let reply = client.recv();
    let search = reply.get("search").expect("inspect search totals");
    assert_eq!(search.get("queries").and_then(Value::as_int), Some(1));
    assert!(search.get("nodes").and_then(Value::as_int).unwrap_or(0) > 0);
    assert!(search.get("dead_misses").and_then(Value::as_int).is_some());
    assert!(search.get("dead_shared_hits").and_then(Value::as_int).is_some());

    client.send(r#"{"op":"dump-recorder"}"#);
    let reply = client.recv();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    let events = reply.get("events").and_then(Value::as_array).expect("events array");
    assert!(
        events.iter().any(|e| str_field(e, "kind") == "job"
            && str_field(e, "state") == "done"),
        "recorder holds settled job transitions: {events:?}"
    );

    server.drain();
}
