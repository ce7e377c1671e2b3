//! The daemon core and the one serving loop every front end runs.
//!
//! [`serve`] blocks on one channel and handles each message in the order
//! it was posted. The producers: the front end's input threads (stdio
//! lines and EOF, or socket connects, frames and disconnects), the
//! analysis-job continuations that deliver a waiting query's session,
//! the analysis jobs the daemon reports (on start and on settle), and the
//! wake hooks of live sessions (one post per buffered event). Nothing
//! sleeps or sweeps: a message, or a front end's own deadline, is the
//! only thing that wakes the loop.
//!
//! **No analysis (and no other blocking work) ever runs on the loop
//! thread.** Requests are decoded on the input thread their bytes arrive
//! on ([`Decoded`]): parsing, the socket front end's auth and version
//! checks, and resolving a `register` source — reading and decoding an
//! `artifact_path` file, decoding an inline artifact, building a
//! builtin. One thread reads each client, so each client's requests
//! still reach the loop in the order it sent them, while a large
//! artifact holds up only the client that sent it. The loop executes
//! ready requests. A cold service's first query enqueues behind that
//! service's analysis job: when the job settles, its continuation submits the
//! session (on the settling worker, before the pool picks its next job),
//! so warm queries keep streaming — by construction, not by luck — while
//! a large service mines. The loop reports analysis jobs as
//! `analysis_started` / `analysis_ready` / `analysis_failed` events.
//!
//! Every piece of per-query state is keyed by [`QKey`] — a client id
//! plus the client's own query id — so many connections can serve
//! overlapping id namespaces from one daemon, and a dropped connection
//! cancels exactly its own work ([`Daemon::drop_client`]). The front ends
//! are [`Transport`]s: the stdio one ([`run_daemon`]) serves one implicit
//! client, the socket one in [`crate::netd`] serves many; the protocol
//! differences between them live there, not in the loop.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use apiphany_core::{
    CatalogSubmission, Engine, EngineError, Event, FaultPlane, Job, JobId, JobRuntime, JobState,
    RetryPolicy, Scheduler, ServiceCatalog, ServiceLookup, Session, Telemetry,
};
use apiphany_core::ttn::SearchStats;
use apiphany_json::Value;

use crate::proto::{
    analysis_failed_value, analysis_ready_value, analysis_started_value, cancelled_finished_value,
    error_event, error_response, event_value, job_value, lint_fields, ok_response,
    search_stats_fields, service_info_value, Decoded, Request, ServiceInputs,
};

/// Configuration of one daemon run.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Concurrent job slots (the runtime's pool size, shared by search
    /// and analysis jobs; analysis occupies at most `max(1, slots - 1)`).
    pub slots: usize,
    /// Artifact cache directory for the catalog (analyses persist across
    /// daemon restarts).
    pub cache_dir: Option<PathBuf>,
    /// How transient analysis failures are retried (attempt count and
    /// backoff base).
    pub retry: RetryPolicy,
    /// The fault-injection plane wired into the catalog's analysis jobs
    /// and the scheduler's search workers. Disabled by default (a no-op
    /// in production).
    pub fault: FaultPlane,
    /// The observability plane (metrics registry + flight recorder)
    /// every subsystem reports into; the `metrics` and `dump-recorder`
    /// ops read it back. Enabled by default — its hot-path cost is a few
    /// relaxed atomics per job transition.
    pub telemetry: Telemetry,
}

impl Default for DaemonOptions {
    fn default() -> DaemonOptions {
        DaemonOptions {
            slots: 2,
            cache_dir: None,
            retry: RetryPolicy::default(),
            fault: FaultPlane::disabled(),
            telemetry: Telemetry::enabled(),
        }
    }
}

/// What a finished daemon run processed (returned for tests and logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonSummary {
    /// Request lines/frames handled (including malformed ones).
    pub requests: usize,
    /// Session and analysis events streamed out.
    pub events: usize,
}

/// The identity of one in-flight query: which connection asked, and the
/// id that connection chose. Clients own independent id namespaces — two
/// connections can both run a query called `q1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct QKey {
    pub(crate) client: u64,
    pub(crate) id: String,
}

/// Per-service accumulated search cost across finished queries (the
/// `inspect` reply's `search` block — the pruning counters the paper's
/// §5.2 pruning ablation reads).
#[derive(Debug, Clone, Copy, Default)]
struct SearchTotals {
    queries: u64,
    search: SearchStats,
}

/// Per-client occupancy: how much of the daemon a client is using (the
/// admission-control input, and the `status` reply's `clients` block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Occupancy {
    /// Live (session-backed) queries.
    pub(crate) live: usize,
    /// Queries still queued behind their service's analysis.
    pub(crate) waiting: usize,
}

/// What wakes the serving loop: one message from one producer.
pub(crate) enum Msg<I> {
    /// Input from the front end: a stdio line or EOF, a socket event.
    Input(I),
    /// A report from one of the daemon core's own producers.
    Note(Note),
}

/// What the daemon core's producers post to the loop.
pub(crate) enum Note {
    /// An analysis-job continuation delivers a waiting query's session,
    /// or the error that replaces it; `token` names the submission.
    Delivered { key: QKey, token: u64, submitted: Result<Session, EngineError> },
    /// A reported analysis job started running, or settled.
    Analysis(JobId, JobState),
    /// A live query's session buffered one event, or its worker died
    /// without `Finished`.
    Woken(QKey, u64),
}

/// How the daemon core's producers post to the loop's channel.
type Post = Arc<dyn Fn(Note) + Send + Sync>;

/// A front end of the serving loop: where protocol lines go, what its
/// input threads post, and when it stops taking requests.
pub(crate) trait Transport {
    /// What the front end's input threads post to the loop.
    type Input;

    /// Writes one protocol line for `client`. Errors are fatal to the
    /// whole loop (stdout gone); a client's dead connection is not one.
    fn emit(&mut self, client: u64, value: &Value) -> std::io::Result<()>;

    /// Handles one input.
    fn input(&mut self, daemon: &mut Daemon, input: Self::Input) -> std::io::Result<()>;

    /// Whether the front end has stopped taking requests: the loop
    /// returns once it has and every stream has drained.
    fn closing(&self) -> bool;

    /// Timed bookkeeping, run before the first message and after every
    /// message or deadline; returns when the loop must next wake although
    /// nothing was posted (`None`: only a message wakes it).
    fn tick(&mut self, _daemon: &mut Daemon) -> std::io::Result<Option<Instant>> {
        Ok(None)
    }
}

/// The serving loop of every front end: block on the channel, handle
/// each message in posting order, and return once the front end is
/// closing and every stream has drained.
pub(crate) fn serve<T: Transport>(
    daemon: &mut Daemon,
    front: &mut T,
    rx: &Receiver<Msg<T::Input>>,
) -> std::io::Result<()> {
    let mut deadline = front.tick(daemon)?;
    while !(front.closing() && daemon.is_idle()) {
        // The daemon holds a sender, so the channel never disconnects.
        let msg = match deadline {
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())).ok(),
            None => rx.recv().ok(),
        };
        match msg {
            Some(Msg::Input(input)) => front.input(daemon, input)?,
            Some(Msg::Note(note)) => daemon.note(front, note)?,
            None => {}
        }
        deadline = front.tick(daemon)?;
    }
    Ok(())
}

/// One in-flight query.
struct Query {
    /// Names this submission: a delivery or wake-up carrying another
    /// token belongs to an earlier query under the same id.
    token: u64,
    /// The spec's reporting cap.
    top_k: Option<usize>,
    stage: Stage,
}

enum Stage {
    /// Queued behind this analysis job, whose continuation delivers the
    /// session.
    Waiting(JobId),
    /// Streaming from a session whose wake hook posts to the loop.
    Live(Session),
}

/// An analysis job the loop reports, with the clients subscribed to it.
struct Watch {
    service: String,
    job: Job<Engine>,
    /// Whether `analysis_started` went out.
    started: bool,
    subscribers: Vec<u64>,
}

/// The daemon core: the catalog and the scheduler share one
/// [`JobRuntime`](apiphany_core::JobRuntime), so analysis and search
/// schedule through the same two-lane pool; every query is keyed by
/// [`QKey`].
pub(crate) struct Daemon {
    catalog: ServiceCatalog,
    scheduler: Scheduler,
    /// Every in-flight query, waiting on its analysis or live.
    queries: HashMap<QKey, Query>,
    /// The last submission token handed out.
    tokens: u64,
    /// Analysis jobs being reported to clients.
    watchers: HashMap<JobId, Watch>,
    post: Post,
    /// The observability plane (shared with the runtime, catalog, and
    /// fault plane); the `metrics`/`dump-recorder` ops read it.
    telemetry: Telemetry,
    /// Accumulated search cost per service, from finished queries.
    search_totals: HashMap<String, SearchTotals>,
    pub(crate) summary: DaemonSummary,
}

/// Runs the daemon over a request stream and a response sink — the stdio
/// front end of the serving loop, for one implicit client — until the
/// input is exhausted (or a `shutdown` request arrives) *and* every open
/// session has drained and every watched analysis job has settled. Lines
/// are handled in order; session events interleave with them in the
/// order they were produced, tagged with their query id.
///
/// The query ack is written when the request is accepted — for a cold
/// service it carries the name of the analysis the query is queued
/// behind — and always precedes the query's first event. Every acked
/// query id receives exactly one terminal line: a `finished` event, an
/// `error` event, or (for a query cancelled while still queued behind an
/// analysis) an empty cancelled `finished`.
///
/// A line that is not valid JSON (including invalid UTF-8 bytes) costs a
/// structured `parse_error` response, never the loop: the reader
/// re-synchronizes at the next newline.
///
/// `shutdown` cancels queued jobs promptly, drains running ones, and
/// emits terminal events for every in-flight id before the loop exits.
///
/// # Errors
///
/// Returns the first I/O error of the response sink. (Input errors end
/// the request stream like a clean EOF.)
pub fn run_daemon<R, W>(
    input: R,
    output: &mut W,
    opts: &DaemonOptions,
) -> std::io::Result<DaemonSummary>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let (mut daemon, tx, rx) = Daemon::new(opts);
    // The reader thread decodes each line and posts it, then `None` at
    // EOF; blank lines are keep-alives it skips. It reads raw bytes: a
    // line of invalid UTF-8 must reach the parser (to earn its
    // parse_error reply), not kill the reader. It stops after posting a
    // `shutdown`, so the lines behind it go unread. It is detached: with
    // the input left open and no `shutdown`, it stays parked in a
    // blocking read until the next line or EOF, when its post fails.
    std::thread::spawn(move || {
        let mut input = input;
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let decoded = match input.read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => None,
                Ok(_) => {
                    let line = String::from_utf8_lossy(&buf);
                    if line.trim().is_empty() {
                        continue;
                    }
                    Some(Decoded::new(Request::parse(line.trim_end())))
                }
            };
            let last = matches!(decoded, None | Some(Decoded::Ready(Request::Shutdown)));
            if tx.send(Msg::Input(decoded)).is_err() || last {
                break;
            }
        }
    });
    let mut front = Stdio { out: output, closing: false };
    serve(&mut daemon, &mut front, &rx)?;
    front.out.flush()?;
    Ok(daemon.summary)
}

/// The stdio front end: JSON lines both ways for one implicit client,
/// with no `hello`, no `"v"` field, no auth and no quotas. EOF stops
/// taking requests and lets every stream finish; `shutdown` also cancels
/// everything at once.
struct Stdio<'a, W: Write> {
    out: &'a mut W,
    closing: bool,
}

impl<W: Write> Transport for Stdio<'_, W> {
    /// A decoded request line, or `None` at EOF.
    type Input = Option<Decoded>;

    fn emit(&mut self, _client: u64, value: &Value) -> std::io::Result<()> {
        let mut line = value.to_json();
        debug_assert!(!line.contains('\n'), "response must be a single line");
        line.push('\n');
        self.out.write_all(line.as_bytes())?;
        self.out.flush()
    }

    fn input(&mut self, daemon: &mut Daemon, decoded: Option<Decoded>) -> std::io::Result<()> {
        const CLIENT: u64 = 0;
        let Some(decoded) = decoded else {
            self.closing = true;
            return Ok(());
        };
        daemon.summary.requests += 1;
        match decoded {
            Decoded::Refused(reply) => self.emit(CLIENT, &reply),
            Decoded::Ready(Request::Shutdown) => {
                self.closing = true;
                self.emit(CLIENT, &ok_response("shutdown", []))?;
                daemon.cancel_all(self)
            }
            Decoded::Ready(request) => daemon.handle(self, CLIENT, request),
        }
    }

    fn closing(&self) -> bool {
        self.closing
    }
}

/// One analysis event, to every subscriber of its job.
fn broadcast(
    out: &mut impl Transport,
    summary: &mut DaemonSummary,
    subscribers: &[u64],
    line: &Value,
) -> std::io::Result<()> {
    summary.events += 1;
    for &client in subscribers {
        out.emit(client, line)?;
    }
    Ok(())
}

impl Daemon {
    /// A fresh daemon core and the serving loop's channel. The core's own
    /// producers — analysis continuations, job reports, session wake
    /// hooks — post to it; the returned sender is for the front end's
    /// input threads.
    pub(crate) fn new<I: Send + 'static>(
        opts: &DaemonOptions,
    ) -> (Daemon, Sender<Msg<I>>, Receiver<Msg<I>>) {
        let runtime = JobRuntime::new(opts.slots).with_telemetry(opts.telemetry.clone());
        opts.fault.set_telemetry(opts.telemetry.clone());
        let scheduler = Scheduler::with_runtime(runtime).with_fault(opts.fault.clone());
        let catalog = {
            let mut catalog = ServiceCatalog::new()
                .with_runtime(scheduler.runtime().clone())
                .with_retry(opts.retry)
                .with_fault(opts.fault.clone());
            if let Some(dir) = &opts.cache_dir {
                catalog = catalog.with_cache_dir(dir);
            }
            catalog
        };
        let (tx, rx) = mpsc::channel();
        let notes = tx.clone();
        let daemon = Daemon {
            catalog,
            scheduler,
            queries: HashMap::new(),
            tokens: 0,
            watchers: HashMap::new(),
            post: Arc::new(move |note| {
                let _ = notes.send(Msg::Note(note));
            }),
            telemetry: opts.telemetry.clone(),
            search_totals: HashMap::new(),
            summary: DaemonSummary::default(),
        };
        (daemon, tx, rx)
    }

    /// Whether every stream has drained: no in-flight queries and no
    /// watched analysis jobs.
    pub(crate) fn is_idle(&self) -> bool {
        self.queries.is_empty() && self.watchers.is_empty()
    }

    /// The global queued-search backlog (the socket front end's
    /// high-water admission input).
    pub(crate) fn queued_search(&self) -> usize {
        self.scheduler.runtime().stats().queued_search
    }

    /// How much of the daemon one client is using.
    pub(crate) fn occupancy(&self, client: u64) -> Occupancy {
        let mut occupancy = Occupancy::default();
        for (_, query) in self.queries.iter().filter(|(key, _)| key.client == client) {
            match query.stage {
                Stage::Waiting(_) => occupancy.waiting += 1,
                Stage::Live(_) => occupancy.live += 1,
            }
        }
        occupancy
    }

    /// Handles one note from the core's own producers.
    fn note(&mut self, out: &mut impl Transport, note: Note) -> std::io::Result<()> {
        match note {
            Note::Delivered { key, token, submitted } => self.deliver(out, key, token, submitted),
            Note::Analysis(job, state) => self.analysis(out, job, &state),
            Note::Woken(key, token) => self.pull(out, &key, token).map(drop),
        }
    }

    /// Handles one decoded, non-shutdown request from `client`, writing
    /// its response lines to `out`. Nothing here blocks: the request
    /// reached the loop parsed, with any artifact file already read and
    /// decoded and any builtin already built (on its input thread), so a
    /// registration only inserts into the catalog; cold-service queries
    /// are chained onto their analysis job, and registrations with
    /// `prewarm` start the job and return.
    pub(crate) fn handle(
        &mut self,
        out: &mut impl Transport,
        client: u64,
        request: Request<ServiceInputs>,
    ) -> std::io::Result<()> {
        let op = request.op();
        match request {
            Request::Register { service, source, prewarm } => {
                let registered = match source {
                    ServiceInputs::Artifact(artifact) => {
                        self.catalog.register_artifact(&service, *artifact)
                    }
                    ServiceInputs::Spec { library, witnesses } => {
                        self.catalog.register_spec(&service, *library, witnesses)
                    }
                };
                if let Err(e) = registered {
                    return out.emit(client, &error_response(Some(op), None, &e.to_string()));
                }
                let mut fields = Vec::new();
                if prewarm {
                    // Registration succeeded either way; a prewarm failure
                    // would need an already concurrently-evicted name.
                    if let Ok(job) = self.catalog.prewarm(&service) {
                        fields.push(("job", job_value(job.id(), job.kind(), &job.state())));
                        self.watch(client, &service, job);
                    }
                }
                let info = self.catalog.inspect(&service).expect("just registered");
                fields.insert(0, ("service", service_info_value(&info)));
                out.emit(client, &ok_response(op, fields))
            }
            Request::Query { id, spec } => {
                let key = QKey { client, id: id.clone() };
                if self.queries.contains_key(&key) {
                    let message = format!("query id '{id}' is already in use");
                    return out.emit(client, &error_response(Some(op), Some(&id), &message));
                }
                self.tokens += 1;
                let token = self.tokens;
                let post = Arc::clone(&self.post);
                let deliver_key = key.clone();
                let submission =
                    self.scheduler.submit_catalog_async(&self.catalog, &spec, move |submitted| {
                        post(Note::Delivered { key: deliver_key, token, submitted });
                    });
                match submission {
                    Err(e) => {
                        out.emit(client, &error_response(Some(op), Some(&id), &e.to_string()))
                    }
                    Ok(CatalogSubmission::Started(session)) => {
                        out.emit(client, &ok_response(op, [("id", Value::from(id.as_str()))]))?;
                        self.go_live(out, key, token, spec.top_k, session)
                    }
                    Ok(CatalogSubmission::Pending(job)) => {
                        let service = job.label().to_string();
                        let analysis = Value::from(service.as_str());
                        let ack = [("id", Value::from(id.as_str())), ("analysis", analysis)];
                        out.emit(client, &ok_response(op, ack))?;
                        let stage = Stage::Waiting(job.id());
                        self.queries.insert(key, Query { token, top_k: spec.top_k, stage });
                        self.watch(client, &service, job);
                        Ok(())
                    }
                }
            }
            Request::Cancel { id } => {
                let key = QKey { client, id: id.clone() };
                let stage = self.queries.get(&key).map(|query| &query.stage);
                // A cancelled live session still streams its Finished
                // event; the response only reports whether the id was
                // in flight.
                if let Some(Stage::Live(session)) = stage {
                    session.cancel();
                }
                let waiting = matches!(stage, Some(Stage::Waiting(_)));
                let active = Value::Bool(stage.is_some());
                let ack = [("id", Value::from(id.as_str())), ("active", active)];
                out.emit(client, &ok_response(op, ack))?;
                if waiting {
                    // Still queued behind an analysis: terminate promptly
                    // with an empty cancelled finish; the continuation's
                    // late delivery is discarded on arrival.
                    self.queries.remove(&key);
                    self.summary.events += 1;
                    out.emit(client, &cancelled_finished_value(&id))?;
                }
                Ok(())
            }
            Request::List => {
                let services: Vec<Value> =
                    self.catalog.list().iter().map(service_info_value).collect();
                out.emit(client, &ok_response(op, [("services", Value::Array(services))]))
            }
            Request::Inspect { service } => match self.catalog.inspect(&service) {
                None => out.emit(
                    client,
                    &error_response(Some(op), None, &format!("unknown service '{service}'")),
                ),
                Some(info) => {
                    let mut fields = vec![("service", service_info_value(&info))];
                    if let Some(t) = self.search_totals.get(&service) {
                        let queries = Value::Int(t.queries.min(i64::MAX as u64) as i64);
                        fields.push((
                            "search",
                            Value::obj(
                                [("queries", queries)]
                                    .into_iter()
                                    .chain(search_stats_fields(&t.search)),
                            ),
                        ));
                    }
                    out.emit(client, &ok_response(op, fields))
                }
            },
            Request::Lint { service } => match self.catalog.lookup(&service) {
                Err(e) => out.emit(client, &error_response(Some(op), None, &e.to_string())),
                // Warm: the engine computed its diagnostics at analysis
                // time — answer inline, nothing blocks.
                Ok(ServiceLookup::Ready(engine)) => {
                    out.emit(client, &ok_response(op, lint_fields(&service, engine.diagnostics())))
                }
                // Cold: the lookup claimed the entry and started (or
                // joined) the analysis job. Report it as pending — the
                // client re-asks after the `analysis_ready` event.
                Ok(ServiceLookup::Pending(job)) => {
                    let ack = ok_response(
                        op,
                        [
                            ("service", Value::from(service.as_str())),
                            ("pending", Value::Bool(true)),
                            ("job", job_value(job.id(), job.kind(), &job.state())),
                        ],
                    );
                    self.watch(client, &service, job);
                    out.emit(client, &ack)
                }
            },
            Request::Evict { service } => {
                let removed = Value::Bool(self.catalog.evict(&service));
                let fields = [("service", Value::from(service.as_str())), ("removed", removed)];
                out.emit(client, &ok_response(op, fields))
            }
            Request::Status => out.emit(client, &self.status(client)),
            Request::Metrics => {
                out.emit(client, &ok_response(op, [("metrics", self.telemetry.snapshot_value())]))
            }
            Request::DumpRecorder => out
                .emit(client, &ok_response(op, [("events", self.telemetry.recorder_dump_value())])),
            Request::Shutdown => unreachable!("handled by the front end"),
        }
    }

    /// The `status` reply for `client`: runtime occupancy with a
    /// per-lane breakdown, per-service state (with any live analysis
    /// job), the *requesting client's* in-flight query ids with their
    /// states, and every client's occupancy.
    fn status(&self, client: u64) -> Value {
        let stats = self.scheduler.runtime().stats();
        let search_running = stats.running - stats.analysis_running;
        let runtime = Value::obj([
            ("slots", Value::Int(stats.slots as i64)),
            ("queued_search", Value::Int(stats.queued_search as i64)),
            ("queued_analysis", Value::Int(stats.queued_analysis as i64)),
            ("running", Value::Int(stats.running as i64)),
            ("analysis_running", Value::Int(stats.analysis_running as i64)),
            ("analysis_retries", Value::Int(stats.analysis_retries.min(i64::MAX as u64) as i64)),
        ]);
        let lanes = Value::obj([
            (
                "search",
                Value::obj([
                    ("queued", Value::Int(stats.queued_search as i64)),
                    ("running", Value::Int(search_running as i64)),
                    ("cap", Value::Int(stats.slots as i64)),
                ]),
            ),
            (
                "analysis",
                Value::obj([
                    ("queued", Value::Int(stats.queued_analysis as i64)),
                    ("running", Value::Int(stats.analysis_running as i64)),
                    ("cap", Value::Int(stats.analysis_cap as i64)),
                ]),
            ),
        ]);
        let services: Vec<Value> =
            self.catalog.list().iter().map(service_info_value).collect();
        let mut queries: Vec<(String, Value)> = Vec::new();
        for (key, query) in self.queries.iter().filter(|(key, _)| key.client == client) {
            let state = match &query.stage {
                Stage::Waiting(_) => "waiting_analysis",
                Stage::Live(session) => session.job_state().map_or("running", |s| match s {
                    JobState::Queued => "queued",
                    JobState::Running => "running",
                    // Terminal but not yet drained by the client.
                    _ => "draining",
                }),
            };
            queries.push((
                key.id.clone(),
                Value::obj([("id", Value::from(key.id.as_str())), ("state", Value::from(state))]),
            ));
        }
        queries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut clients: Vec<u64> = self.queries.keys().map(|key| key.client).collect();
        clients.sort_unstable();
        clients.dedup();
        let clients: Vec<Value> = clients
            .into_iter()
            .map(|id| {
                let occ = self.occupancy(id);
                Value::obj([
                    ("client", Value::Int(id as i64)),
                    ("live", Value::Int(occ.live as i64)),
                    ("waiting", Value::Int(occ.waiting as i64)),
                ])
            })
            .collect();
        ok_response(
            "status",
            [
                ("runtime", runtime),
                ("lanes", lanes),
                ("services", Value::Array(services)),
                (
                    "queries",
                    Value::Array(queries.into_iter().map(|(_, v)| v).collect()),
                ),
                ("clients", Value::Array(clients)),
            ],
        )
    }

    /// Starts reporting an analysis job to `client` (deduplicated by job
    /// id — many queries, and many clients, can queue behind one job).
    /// The job posts its start and its settlement to the loop.
    fn watch(&mut self, client: u64, service: &str, job: Job<Engine>) {
        if let Some(watch) = self.watchers.get_mut(&job.id()) {
            if !watch.subscribers.contains(&client) {
                watch.subscribers.push(client);
            }
            return;
        }
        let id = job.id();
        let post = Arc::clone(&self.post);
        job.on_running(move || post(Note::Analysis(id, JobState::Running)));
        let post = Arc::clone(&self.post);
        job.on_terminal(move |outcome| post(Note::Analysis(id, outcome.state())));
        let service = service.to_string();
        self.watchers.insert(id, Watch { service, job, started: false, subscribers: vec![client] });
    }

    /// Reports a watched analysis job's transition to `Running` or to a
    /// terminal state, and stops watching it once settled. A job the
    /// loop never saw start (it had settled before it was watched) gets
    /// its `analysis_started` first, so clients always see a consistent
    /// pair — unless it was cancelled before it ran.
    fn analysis(
        &mut self,
        out: &mut impl Transport,
        id: JobId,
        state: &JobState,
    ) -> std::io::Result<()> {
        let Some(watch) = self.watchers.get_mut(&id) else {
            return Ok(());
        };
        if !watch.started && *state != JobState::Cancelled {
            watch.started = true;
            let line = analysis_started_value(&watch.service, id);
            broadcast(out, &mut self.summary, &watch.subscribers, &line)?;
        }
        let line = match state {
            JobState::Queued | JobState::Running => return Ok(()),
            JobState::Done => {
                let info = self.catalog.inspect(&watch.service);
                analysis_ready_value(&watch.service, id, info.as_ref())
            }
            JobState::Failed(msg) => analysis_failed_value(&watch.service, id, msg),
            JobState::Cancelled => analysis_failed_value(&watch.service, id, "analysis cancelled"),
        };
        broadcast(out, &mut self.summary, &watch.subscribers, &line)?;
        self.watchers.remove(&id);
        Ok(())
    }

    /// An analysis-job continuation's delivery: the waiting query goes
    /// live, or ends with the submission's error. A delivery whose token
    /// is stale — the query was cancelled, its client left, or its id
    /// was reused since — is cancelled and dropped.
    fn deliver(
        &mut self,
        out: &mut impl Transport,
        key: QKey,
        token: u64,
        submitted: Result<Session, EngineError>,
    ) -> std::io::Result<()> {
        let analysis = match self.queries.get(&key) {
            Some(Query { token: t, stage: Stage::Waiting(job), .. }) if *t == token => *job,
            // Dropping the stale session cancels it.
            _ => return Ok(()),
        };
        // The analysis settled before its continuation ran: report that
        // first, so the query's stream follows its `analysis_ready`.
        if let Some(state) = self.watchers.get(&analysis).map(|w| w.job.state()) {
            self.analysis(out, analysis, &state)?;
        }
        let query = self.queries.remove(&key).expect("the query is waiting");
        match submitted {
            Err(e) => {
                self.summary.events += 1;
                out.emit(key.client, &error_event(&key.id, &e.to_string()))
            }
            Ok(session) => self.go_live(out, key, query.token, query.top_k, session),
        }
    }

    /// Puts `session` live under `key`: from now on its wake hook posts
    /// to the loop, and whatever it buffered already streams right here,
    /// in this message's place in the loop's order (the announcements
    /// of those events then find nothing left to pull).
    fn go_live(
        &mut self,
        out: &mut impl Transport,
        key: QKey,
        token: u64,
        top_k: Option<usize>,
        session: Session,
    ) -> std::io::Result<()> {
        let post = Arc::clone(&self.post);
        let wake_key = key.clone();
        session.set_wake_hook(move || post(Note::Woken(wake_key.clone(), token)));
        self.queries.insert(key.clone(), Query { token, top_k, stage: Stage::Live(session) });
        while self.pull(out, &key, token)? {}
        Ok(())
    }

    /// Answers one announcement of the live query `key`: streams its
    /// session's next buffered event, or — when the worker died without
    /// a `Finished` event (a panic) — closes the query out with the
    /// settled job's reason, so the client stops waiting and the key
    /// frees up. Returns whether it wrote a line. Announcements for a
    /// query that has finished, or whose id was reused since, are stale.
    fn pull(&mut self, out: &mut impl Transport, key: &QKey, token: u64) -> std::io::Result<bool> {
        let Some(query) = self.queries.get_mut(key).filter(|q| q.token == token) else {
            return Ok(false);
        };
        let Stage::Live(session) = &mut query.stage else {
            return Ok(false);
        };
        let (line, done) = match session.try_next() {
            Some(event) => {
                if let Event::Finished(result) = &event {
                    // Fold the query's search cost into its service's
                    // `inspect` accumulation (the search job's label is
                    // the service name).
                    let service = session.job().map_or("", |job| job.label());
                    if !service.is_empty() {
                        let t = self.search_totals.entry(service.to_string()).or_default();
                        t.queries += 1;
                        t.search.absorb(&result.stats.search);
                    }
                }
                let done = matches!(event, Event::Finished(_));
                (event_value(&key.id, &event, query.top_k), done)
            }
            None if session.is_finished() => {
                let message = match session.job_state() {
                    Some(JobState::Failed(reason)) => format!("search worker panicked: {reason}"),
                    _ => "session worker terminated unexpectedly".to_string(),
                };
                (error_event(&key.id, &message), true)
            }
            None => return Ok(false),
        };
        if done {
            self.queries.remove(key);
        }
        self.summary.events += 1;
        out.emit(key.client, &line)?;
        Ok(true)
    }

    /// Cancels everything: every live session, every watched analysis
    /// job (queued ones settle as prompt no-ops), and every query still
    /// waiting on an analysis — those terminate at once with an empty
    /// cancelled finish. The loop then drains: live sessions stream out
    /// their cancelled `Finished`, running analyses complete and report,
    /// and the loop returns only when every in-flight key has had its
    /// terminal event.
    pub(crate) fn cancel_all(&mut self, out: &mut impl Transport) -> std::io::Result<()> {
        for watch in self.watchers.values() {
            watch.job.cancel();
        }
        let mut waiting = Vec::new();
        self.queries.retain(|key, query| match &query.stage {
            Stage::Live(session) => {
                session.cancel();
                true
            }
            Stage::Waiting(_) => {
                waiting.push(key.clone());
                false
            }
        });
        waiting.sort_by(|a, b| (a.client, &a.id).cmp(&(b.client, &b.id)));
        for key in waiting {
            self.summary.events += 1;
            out.emit(key.client, &cancelled_finished_value(&key.id))?;
        }
        Ok(())
    }

    /// A client's connection is gone: cancel exactly that client's live
    /// sessions, forget its waiting queries, and unsubscribe it from
    /// analysis reports. Other clients' work — including shared analysis
    /// jobs — is untouched.
    pub(crate) fn drop_client(&mut self, client: u64) {
        self.queries.retain(|key, query| match &query.stage {
            _ if key.client != client => true,
            // The cancelled session drains through the loop (its lines
            // go to a gone client, which the socket front end drops) and
            // frees its key on `Finished`.
            Stage::Live(session) => {
                session.cancel();
                true
            }
            Stage::Waiting(_) => false,
        });
        // A watch every subscriber abandoned still has to settle before
        // the daemon can exit, but nobody needs its events; keep it so
        // `is_idle` stays honest.
        for watch in self.watchers.values_mut() {
            watch.subscribers.retain(|&c| c != client);
        }
    }
}
