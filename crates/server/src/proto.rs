//! The `synthd` line protocol: request parsing and response/event
//! encoding.
//!
//! Every message — in both directions — is one JSON object per line.
//! Requests carry an `"op"`; responses echo it with `"ok"`; streamed
//! session notifications carry an `"event"` and the query `"id"` they
//! belong to, so events of concurrently running queries interleave
//! without ambiguity. See the crate docs for a worked transcript.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Duration;

use apiphany_core::{
    AnalysisArtifact, Event, JobId, JobKind, JobState, QuerySpec, RunResult, ServiceInfo,
};
use apiphany_core::mining::AnalyzeStats;
use apiphany_json::Value;
use apiphany_lang::compact;
use apiphany_net::DEFAULT_MAX_FRAME;
use apiphany_spec::codec::library_from_value;
use apiphany_spec::{witnesses_from_json, Library, Witness};

/// A parsed request line. `S` is what a `register` carries: the
/// [`RegisterSource`] as parsed, or the [`ServiceInputs`] that
/// [`Request::resolve`] turns it into.
#[derive(Debug)]
pub enum Request<S = RegisterSource> {
    /// Register a service under a name; with `prewarm` the analyze-once
    /// job starts immediately instead of waiting for the first query.
    Register { service: String, source: S, prewarm: bool },
    /// Open a streaming query; `id` tags every event it produces.
    Query { id: String, spec: QuerySpec },
    /// Cancel the running (or queued) query with this id.
    Cancel { id: String },
    /// Describe every registered service.
    List,
    /// Describe one registered service.
    Inspect { service: String },
    /// Report a service's spec/TTN lint diagnostics.
    Lint { service: String },
    /// Remove a service from the catalog.
    Evict { service: String },
    /// Report runtime occupancy, per-service job state, and live queries.
    Status,
    /// Report the observability plane's metrics snapshot (counters,
    /// gauges, histograms) as one JSON object.
    Metrics,
    /// Dump the flight recorder's buffered structured events (debugging).
    DumpRecorder,
    /// Cancel everything and exit once the streams have drained.
    Shutdown,
}

/// Where a `register` request gets its analysis inputs from.
#[derive(Debug)]
pub enum RegisterSource {
    /// A bundled service: `fig7` (the paper's running example),
    /// `slack`, `stripe`, or `square` — library plus scripted scenario
    /// witnesses.
    Builtin(String),
    /// An inline [`AnalysisArtifact`] JSON object.
    Artifact(Box<AnalysisArtifact>),
    /// A path to an artifact JSON file on disk.
    ArtifactPath(PathBuf),
    /// An inline spec+witnesses pair (the raw analysis inputs).
    Spec { library: Box<Library>, witnesses: Vec<Witness> },
}

/// What the catalog registers a service from: a [`RegisterSource`] with
/// its file read and decoded, or its builtin built.
#[derive(Debug)]
pub enum ServiceInputs {
    /// A decoded analysis artifact (inline or from `artifact_path`).
    Artifact(Box<AnalysisArtifact>),
    /// A library with its witnesses (inline, or a builtin's scenario).
    Spec { library: Box<Library>, witnesses: Vec<Witness> },
}

/// The largest `artifact_path` file a `register` reads: the most an
/// inline `artifact` can carry in one frame.
const MAX_ARTIFACT_FILE: u64 = DEFAULT_MAX_FRAME as u64;

impl RegisterSource {
    /// Resolves the source into catalog inputs: reads and decodes an
    /// `artifact_path` file, or builds a `builtin` service. The only
    /// request step that touches the file system; the front ends run it
    /// on the thread the request arrived on, never on the serving loop.
    ///
    /// # Errors
    ///
    /// The `register` error message: an unknown builtin, or
    /// `"<path>: …"` for a file that cannot be read (missing, not a
    /// regular file, over 16 MiB) or does not decode as an artifact.
    pub fn resolve(self) -> Result<ServiceInputs, String> {
        match self {
            RegisterSource::Builtin(name) => match crate::builtin(&name) {
                None => Err(format!(
                    "unknown builtin '{name}' (available: {})",
                    crate::BUILTIN_NAMES.join(", ")
                )),
                Some((library, witnesses)) => {
                    Ok(ServiceInputs::Spec { library: Box::new(library), witnesses })
                }
            },
            RegisterSource::Artifact(artifact) => Ok(ServiceInputs::Artifact(artifact)),
            RegisterSource::ArtifactPath(path) => read_artifact(&path)
                .map(|artifact| ServiceInputs::Artifact(Box::new(artifact)))
                .map_err(|e| format!("{}: {e}", path.display())),
            RegisterSource::Spec { library, witnesses } => {
                Ok(ServiceInputs::Spec { library, witnesses })
            }
        }
    }
}

/// Reads and decodes the artifact file at `path`, refusing anything but
/// a regular file of at most [`MAX_ARTIFACT_FILE`] bytes — a device such
/// as `/dev/zero`, or a FIFO, would never reach EOF. The type is checked
/// before opening (opening a FIFO blocks until a writer appears), and
/// the read stops one byte past the limit, so a file that grows after
/// the check is still caught.
fn read_artifact(path: &Path) -> Result<AnalysisArtifact, String> {
    let limit = MAX_ARTIFACT_FILE;
    let too_large = |len: u64| format!("{len} bytes is over the {limit}-byte artifact limit");
    let meta = std::fs::metadata(path).map_err(|e| e.to_string())?;
    if !meta.is_file() {
        return Err("not a regular file".to_string());
    }
    if meta.len() > limit {
        return Err(too_large(meta.len()));
    }
    let mut text = String::new();
    std::fs::File::open(path)
        .and_then(|file| file.take(limit + 1).read_to_string(&mut text))
        .map_err(|e| e.to_string())?;
    if text.len() as u64 > limit {
        return Err(too_large(text.len() as u64));
    }
    AnalysisArtifact::from_json(&text).map_err(|e| e.to_string())
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the error response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = apiphany_json::parse(line).map_err(|e| format!("not a JSON object: {e}"))?;
        Request::from_value(&v)
    }

    /// Parses one already-decoded request object (the framed transport
    /// hands these over directly).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the error response.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing 'op' field".to_string())?;
        match op {
            "register" => {
                let service = require_str(v, "service")?;
                let source = if let Some(builtin) = v.get("builtin") {
                    RegisterSource::Builtin(
                        builtin
                            .as_str()
                            .ok_or_else(|| "'builtin' must be a name".to_string())?
                            .to_string(),
                    )
                } else if let Some(artifact) = v.get("artifact") {
                    let artifact = AnalysisArtifact::from_value(artifact)
                        .map_err(|e| format!("inline artifact: {e}"))?;
                    RegisterSource::Artifact(Box::new(artifact))
                } else if let Some(path) = v.get("artifact_path") {
                    RegisterSource::ArtifactPath(PathBuf::from(
                        path.as_str()
                            .ok_or_else(|| "'artifact_path' must be a path".to_string())?,
                    ))
                } else if let Some(library) = v.get("library") {
                    let library = library_from_value(library)
                        .map_err(|e| format!("inline library: {e}"))?;
                    let witnesses = match v.get("witnesses") {
                        None => Vec::new(),
                        Some(w) => witnesses_from_json(w)
                            .map_err(|e| format!("inline witnesses: {e}"))?,
                    };
                    RegisterSource::Spec { library: Box::new(library), witnesses }
                } else {
                    return Err(
                        "register needs one of 'builtin', 'artifact', 'artifact_path', \
                         or 'library' (+ optional 'witnesses')"
                            .to_string(),
                    );
                };
                let prewarm = match v.get("prewarm") {
                    None => false,
                    Some(Value::Bool(b)) => *b,
                    Some(_) => return Err("'prewarm' must be a boolean".to_string()),
                };
                Ok(Request::Register { service, source, prewarm })
            }
            "query" => {
                let id = require_str(v, "id")?;
                let spec =
                    QuerySpec::from_value(v).map_err(|e| format!("query spec: {e}"))?;
                if spec.service.is_none() {
                    return Err("query must name a 'service'".to_string());
                }
                Ok(Request::Query { id, spec })
            }
            "cancel" => Ok(Request::Cancel { id: require_str(v, "id")? }),
            "list" => Ok(Request::List),
            "inspect" => Ok(Request::Inspect { service: require_str(v, "service")? }),
            "lint" => Ok(Request::Lint { service: require_str(v, "service")? }),
            "evict" => Ok(Request::Evict { service: require_str(v, "service")? }),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "dump-recorder" => Ok(Request::DumpRecorder),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op '{other}'")),
        }
    }

    /// Resolves a `register` request's source ([`RegisterSource::resolve`]);
    /// every other request passes through unchanged.
    ///
    /// # Errors
    ///
    /// The `register` error message of a source that does not resolve.
    pub fn resolve(self) -> Result<Request<ServiceInputs>, String> {
        Ok(match self {
            Request::Register { service, source, prewarm } => {
                Request::Register { service, source: source.resolve()?, prewarm }
            }
            Request::Query { id, spec } => Request::Query { id, spec },
            Request::Cancel { id } => Request::Cancel { id },
            Request::List => Request::List,
            Request::Inspect { service } => Request::Inspect { service },
            Request::Lint { service } => Request::Lint { service },
            Request::Evict { service } => Request::Evict { service },
            Request::Status => Request::Status,
            Request::Metrics => Request::Metrics,
            Request::DumpRecorder => Request::DumpRecorder,
            Request::Shutdown => Request::Shutdown,
        })
    }
}

impl<S> Request<S> {
    /// The `op` string of this request (echoed in responses).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Register { .. } => "register",
            Request::Query { .. } => "query",
            Request::Cancel { .. } => "cancel",
            Request::List => "list",
            Request::Inspect { .. } => "inspect",
            Request::Lint { .. } => "lint",
            Request::Evict { .. } => "evict",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::DumpRecorder => "dump-recorder",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request as a front end's input thread hands it to the serving
/// loop: decoded there, so the loop never parses, reads a file or
/// builds a service.
pub(crate) enum Decoded {
    /// Parsed and resolved: the loop executes it as it is.
    Ready(Request<ServiceInputs>),
    /// The reply that ends a request the loop never executes: a
    /// `parse_error`, a `register` whose source did not resolve, or (on
    /// sockets) a `bad_version`.
    Refused(Value),
}

impl Decoded {
    /// Resolves a parse result ([`Request::parse`] of a line, or
    /// [`Request::from_value`] of a frame) into what the loop receives.
    pub(crate) fn new(parsed: Result<Request, String>) -> Decoded {
        let request = match parsed {
            Ok(request) => request,
            Err(message) => {
                return Decoded::Refused(coded_error_response(
                    None,
                    None,
                    CODE_PARSE_ERROR,
                    &message,
                ))
            }
        };
        let op = request.op();
        match request.resolve() {
            Ok(ready) => Decoded::Ready(ready),
            Err(message) => Decoded::Refused(error_response(Some(op), None, &message)),
        }
    }
}

fn require_str(v: &Value, field: &str) -> Result<String, String> {
    let s = v
        .get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing '{field}' field"))?;
    if s.is_empty() {
        return Err(format!("'{field}' must not be empty"));
    }
    Ok(s.to_string())
}

/// `{"ok": true, "op": op, ...fields}`.
pub fn ok_response(op: &str, fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    let mut pairs = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("op".to_string(), Value::from(op)),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(pairs)
}

/// `{"ok": false, "op": op?, "id": id?, "error": message}`.
pub fn error_response(op: Option<&str>, id: Option<&str>, message: &str) -> Value {
    let mut pairs = vec![("ok".to_string(), Value::Bool(false))];
    if let Some(op) = op {
        pairs.push(("op".to_string(), Value::from(op)));
    }
    if let Some(id) = id {
        pairs.push(("id".to_string(), Value::from(id)));
    }
    pairs.push(("error".to_string(), Value::from(message)));
    Value::Object(pairs)
}

/// The machine-readable `code` of a request that was not valid JSON (or
/// not a valid frame): recoverable — the connection lives on.
pub const CODE_PARSE_ERROR: &str = "parse_error";
/// The `code` of a request shed by admission control (per-client quota
/// or global backlog high-water): retry after the backlog drains.
pub const CODE_OVERLOADED: &str = "overloaded";
/// The `code` of a query rejected because the daemon is draining for
/// shutdown: no retry will succeed on this instance.
pub const CODE_DRAINING: &str = "draining";
/// The `code` of a request whose `"v"` protocol-version field is
/// missing, malformed, or names a version this server does not speak.
pub const CODE_BAD_VERSION: &str = "bad_version";
/// The `code` of a request on a connection that has not presented the
/// server's shared auth token: the error is followed by a disconnect.
pub const CODE_UNAUTHORIZED: &str = "unauthorized";

/// [`error_response`] plus a machine-readable `"code"` field (one of the
/// `CODE_*` constants), for errors clients are expected to branch on —
/// shedding, draining, and frame/JSON decode failures.
pub fn coded_error_response(
    op: Option<&str>,
    id: Option<&str>,
    code: &str,
    message: &str,
) -> Value {
    let mut v = error_response(op, id, message);
    if let Value::Object(pairs) = &mut v {
        pairs.push(("code".to_string(), Value::from(code)));
    }
    v
}

/// `{"event": "error", "id": id, "error": message}` — a terminal event
/// for a query whose stream died without a `finished` (a worker panic):
/// the client must not wait for more events with this id.
pub fn error_event(id: &str, message: &str) -> Value {
    Value::obj([
        ("event", Value::from("error")),
        ("id", Value::from(id)),
        ("error", Value::from(message)),
    ])
}

/// A [`ServiceInfo`] as a JSON object, including the analyze-once cost
/// (`analysis` stats + `analyze_ms`) and the live analysis `job`, when
/// known.
pub fn service_info_value(info: &ServiceInfo) -> Value {
    Value::obj([
        ("name", Value::from(info.name.as_str())),
        ("analyzed", Value::Bool(info.analyzed)),
        ("n_methods", Value::Int(info.n_methods as i64)),
        ("n_witnesses", Value::Int(info.n_witnesses as i64)),
        (
            "n_semantic_types",
            match info.n_semantic_types {
                None => Value::Null,
                Some(n) => Value::Int(n as i64),
            },
        ),
        (
            "analysis",
            match &info.analysis {
                None => Value::Null,
                Some(stats) => analyze_stats_value(stats),
            },
        ),
        (
            "analyze_ms",
            match info.analyze_time {
                None => Value::Null,
                Some(d) => millis(d),
            },
        ),
        (
            "source",
            match info.source {
                None => Value::Null,
                Some(source) => Value::from(source.name()),
            },
        ),
        (
            "cache_warning",
            match &info.cache_warning {
                None => Value::Null,
                Some(warning) => Value::from(warning.as_str()),
            },
        ),
        (
            "job",
            match &info.job {
                None => Value::Null,
                Some(job) => job_value(job.id, job.kind, &job.state),
            },
        ),
        (
            "lints",
            match &info.lints {
                None => Value::Null,
                Some(summary) => Value::obj([
                    ("errors", Value::Int(summary.errors as i64)),
                    ("warnings", Value::Int(summary.warnings as i64)),
                ]),
            },
        ),
    ])
}

/// The `lint` response body: the full diagnostic list plus its summary
/// counts, as `{"service", "errors", "warnings", "diagnostics": [...]}`
/// fields for [`ok_response`].
pub fn lint_fields(
    service: &str,
    diagnostics: &[apiphany_core::analysis::Diagnostic],
) -> Vec<(&'static str, Value)> {
    let summary = apiphany_core::analysis::DiagnosticSummary::of(diagnostics);
    vec![
        ("service", Value::from(service)),
        ("errors", Value::Int(summary.errors as i64)),
        ("warnings", Value::Int(summary.warnings as i64)),
        (
            "diagnostics",
            Value::Array(
                diagnostics
                    .iter()
                    .map(apiphany_core::analysis::Diagnostic::to_value)
                    .collect(),
            ),
        ),
    ]
}

/// [`AnalyzeStats`] as a JSON object (the mining-cost block of `inspect`
/// and the `analysis_ready` event).
pub fn analyze_stats_value(stats: &AnalyzeStats) -> Value {
    Value::obj([
        ("n_witnesses", Value::Int(stats.n_witnesses as i64)),
        ("n_covered_methods", Value::Int(stats.n_covered_methods as i64)),
        ("rounds", Value::Int(stats.rounds as i64)),
    ])
}

/// A job reference as a JSON object: `{"id", "kind", "state"[, "error"]}`.
pub fn job_value(id: JobId, kind: JobKind, state: &JobState) -> Value {
    let mut pairs = vec![
        ("id".to_string(), Value::Int(id.0 as i64)),
        ("kind".to_string(), Value::from(kind.name())),
        ("state".to_string(), Value::from(state.name())),
    ];
    if let JobState::Failed(msg) = state {
        pairs.push(("error".to_string(), Value::from(msg.as_str())));
    }
    Value::Object(pairs)
}

/// `{"event":"analysis_started","service":...,"job":N}` — a service's
/// analyze-once job began executing on the runtime.
pub fn analysis_started_value(service: &str, job: JobId) -> Value {
    Value::obj([
        ("event", Value::from("analysis_started")),
        ("service", Value::from(service)),
        ("job", Value::Int(job.0 as i64)),
    ])
}

/// `{"event":"analysis_ready","service":...,"job":N,...}` — the service
/// is warm; queries queued behind the job have been submitted. Carries
/// `analyze_ms` + `stats` when the catalog still lists the service (an
/// evict can race the completion).
pub fn analysis_ready_value(service: &str, job: JobId, info: Option<&ServiceInfo>) -> Value {
    let mut pairs = vec![
        ("event".to_string(), Value::from("analysis_ready")),
        ("service".to_string(), Value::from(service)),
        ("job".to_string(), Value::Int(job.0 as i64)),
    ];
    if let Some(info) = info {
        if let Some(d) = info.analyze_time {
            pairs.push(("analyze_ms".to_string(), millis(d)));
        }
        if let Some(stats) = &info.analysis {
            pairs.push(("stats".to_string(), analyze_stats_value(stats)));
        }
    }
    Value::Object(pairs)
}

/// `{"event":"analysis_failed","service":...,"job":N,"error":...}` — the
/// analyze-once job settled without an engine (failure or cancellation);
/// queries queued behind it receive their own terminal events.
pub fn analysis_failed_value(service: &str, job: JobId, error: &str) -> Value {
    Value::obj([
        ("event", Value::from("analysis_failed")),
        ("service", Value::from(service)),
        ("job", Value::Int(job.0 as i64)),
        ("error", Value::from(error)),
    ])
}

/// The terminal event for a query cancelled before its session existed
/// (still queued behind its service's analysis): an empty `finished` with
/// outcome `cancelled`, field-for-field the shape of a real `finished`
/// (both go through the same `finished_event` encoder).
pub fn cancelled_finished_value(id: &str) -> Value {
    finished_event(id, "cancelled", 0, Duration::ZERO, Duration::ZERO, Vec::new(), None)
}

/// A session [`Event`] as the JSON line streamed to the client. `top_k`
/// caps the `ranked` list of the `finished` event.
pub fn event_value(id: &str, event: &Event, top_k: Option<usize>) -> Value {
    match event {
        Event::CandidateFound { program, r_orig, r_re_now, cost, elapsed, .. } => Value::obj([
            ("event", Value::from("candidate")),
            ("id", Value::from(id)),
            ("r_orig", Value::Int(*r_orig as i64)),
            ("r_re_now", Value::Int(*r_re_now as i64)),
            ("cost", Value::Float(*cost)),
            ("elapsed_ms", millis(*elapsed)),
            ("program", Value::from(compact(program).to_string().as_str())),
        ]),
        Event::DepthExhausted { depth } => Value::obj([
            ("event", Value::from("depth")),
            ("id", Value::from(id)),
            ("depth", Value::Int(*depth as i64)),
        ]),
        Event::BudgetExhausted => Value::obj([
            ("event", Value::from("budget_exhausted")),
            ("id", Value::from(id)),
        ]),
        Event::Finished(result) => finished_value(id, result, top_k),
    }
}

fn finished_value(id: &str, result: &RunResult, top_k: Option<usize>) -> Value {
    let shown = result.top(top_k.unwrap_or(usize::MAX));
    let ranked: Vec<Value> = shown
        .iter()
        .enumerate()
        .map(|(pos, r)| {
            Value::obj([
                ("rank", Value::Int(pos as i64 + 1)),
                ("r_orig", Value::Int(r.gen_index as i64 + 1)),
                ("cost", Value::Float(r.cost)),
                ("program", Value::from(compact(&r.program).to_string().as_str())),
            ])
        })
        .collect();
    finished_event(
        id,
        outcome_name(result.stats.outcome),
        result.ranked.len() as i64,
        result.total_time,
        result.re_time,
        ranked,
        Some(search_stats_value(&result.stats.search)),
    )
}

/// The search-cost block of a `finished` event and (after a `queries`
/// count) of `inspect`'s per-service accumulation: node count, the
/// cost-to-go bound's cuts, and the dead-set memo's hit/miss/evict
/// counters.
pub fn search_stats_value(stats: &apiphany_core::ttn::SearchStats) -> Value {
    Value::obj(search_stats_fields(stats))
}

/// The fields of [`search_stats_value`], for blocks that add their own.
pub(crate) fn search_stats_fields(
    stats: &apiphany_core::ttn::SearchStats,
) -> [(&'static str, Value); 6] {
    let count = |n: u64| Value::Int(n.min(i64::MAX as u64) as i64);
    [
        ("nodes", count(stats.nodes)),
        ("bound_pruned", count(stats.bound_pruned)),
        ("dead_hits", count(stats.dead_hits)),
        ("dead_shared_hits", count(stats.dead_shared_hits)),
        ("dead_misses", count(stats.dead_misses)),
        ("dead_evicted", count(stats.dead_evicted)),
    ]
}

/// The one definition of the `finished` wire shape, shared by real run
/// results and the synthetic cancelled finish — clients parse a single
/// terminal-event schema.
fn finished_event(
    id: &str,
    outcome: &str,
    n_candidates: i64,
    total: Duration,
    re: Duration,
    ranked: Vec<Value>,
    search: Option<Value>,
) -> Value {
    let mut pairs = vec![
        ("event".to_string(), Value::from("finished")),
        ("id".to_string(), Value::from(id)),
        ("outcome".to_string(), Value::from(outcome)),
        ("n_candidates".to_string(), Value::Int(n_candidates)),
        ("total_ms".to_string(), millis(total)),
        ("re_ms".to_string(), millis(re)),
    ];
    if let Some(search) = search {
        pairs.push(("search".to_string(), search));
    }
    pairs.push(("ranked".to_string(), Value::Array(ranked)));
    Value::Object(pairs)
}

/// The wire name of a synthesis outcome.
pub fn outcome_name(outcome: apiphany_core::synth::Outcome) -> &'static str {
    use apiphany_core::synth::Outcome;
    match outcome {
        Outcome::Exhausted => "exhausted",
        Outcome::Stopped => "stopped",
        Outcome::TimedOut => "timed_out",
        Outcome::Cancelled => "cancelled",
    }
}

fn millis(d: Duration) -> Value {
    Value::Int(d.as_millis().min(i64::MAX as u128) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_requests() {
        let reg = Request::parse(r#"{"op":"register","service":"demo","builtin":"fig7"}"#)
            .unwrap();
        assert!(matches!(
            reg,
            Request::Register {
                ref service,
                source: RegisterSource::Builtin(ref b),
                prewarm: false,
            } if service == "demo" && b == "fig7"
        ));
        let warm = Request::parse(
            r#"{"op":"register","service":"demo","builtin":"fig7","prewarm":true}"#,
        )
        .unwrap();
        assert!(matches!(warm, Request::Register { prewarm: true, .. }));
        assert!(matches!(
            Request::parse(r#"{"op":"status"}"#).unwrap(),
            Request::Status
        ));
        let q = Request::parse(
            r#"{"op":"query","id":"q1","service":"demo",
                "inputs":{"channel_name":"Channel.name"},
                "output":"[Profile.email]","depth":7,"top_k":3}"#,
        )
        .unwrap();
        let Request::Query { id, spec } = q else { panic!("not a query") };
        assert_eq!(id, "q1");
        assert_eq!(spec.service.as_deref(), Some("demo"));
        assert_eq!(spec.budget.max_depth, 7);
        assert_eq!(spec.top_k, Some(3));
        assert!(matches!(
            Request::parse(r#"{"op":"cancel","id":"q1"}"#).unwrap(),
            Request::Cancel { .. }
        ));
        assert!(matches!(Request::parse(r#"{"op":"list"}"#).unwrap(), Request::List));
        assert!(matches!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (line, needle) in [
            ("not json", "not a JSON object"),
            (r#"{"id":"q1"}"#, "missing 'op'"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"register","service":"x"}"#, "register needs"),
            (
                r#"{"op":"register","service":"x","builtin":"fig7","prewarm":"yes"}"#,
                "'prewarm' must be a boolean",
            ),
            (r#"{"op":"register","builtin":"fig7"}"#, "missing 'service'"),
            (r#"{"op":"query","id":"q","output":"[X]"}"#, "must name a 'service'"),
            (r#"{"op":"query","service":"demo","output":"[X]"}"#, "missing 'id'"),
            (r#"{"op":"cancel","id":""}"#, "must not be empty"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn responses_are_single_json_lines() {
        let ok = ok_response("register", [("service", Value::from("demo"))]).to_json();
        assert!(!ok.contains('\n'));
        assert!(ok.starts_with(r#"{"ok":true,"op":"register""#));
        let err = error_response(Some("query"), Some("q1"), "boom").to_json();
        assert_eq!(err, r#"{"ok":false,"op":"query","id":"q1","error":"boom"}"#);
    }
}
