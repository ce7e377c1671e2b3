//! The service catalog: analyze once per *service*, serve every query.
//!
//! A [`ServiceCatalog`] is the registry a serving process (such as the
//! `synthd` daemon) keeps its engines in. Services are registered by name
//! from either raw analysis inputs (a [`Library`] plus a witness set) or
//! a pre-computed [`AnalysisArtifact`]; the expensive analysis work —
//! type mining and TTN construction — runs **once, as a first-class
//! [`Analysis` job](crate::JobKind::Analysis)**, and the resulting engine
//! is shared by every subsequent query (engines are cheap `Arc` handles).
//!
//! The analysis job is the catalog's single-flight mechanism: the first
//! lookup of an unanalyzed service claims the entry and creates the job,
//! every concurrent lookup **subscribes to the same job** (instead of
//! blocking on a condvar), and the job publishes the engine exactly once.
//! How the job executes depends on configuration:
//!
//! * **standalone** (default): the claiming caller runs the job inline on
//!   its own thread — [`ServiceCatalog::engine`] blocks as before;
//! * **with a [`JobRuntime`]** ([`ServiceCatalog::with_runtime`]): the
//!   job is queued on the runtime's analysis lane and
//!   [`ServiceCatalog::lookup`] returns the [`Job`] handle immediately —
//!   nothing blocks, and callers chain work onto
//!   [`Job::on_terminal`](crate::Job::on_terminal) (as
//!   [`JobRuntime::submit_catalog_async`] does with a query's session) or
//!   poll [`Job::state`](crate::Job::state). [`ServiceCatalog::prewarm`]
//!   starts the job right after registration so a service is warm before
//!   its first query.
//!
//! With a cache directory configured, the catalog also persists each
//! mined analysis as `<name>.analysis.json`: the next process registering
//! the same service skips mining entirely and reloads the artifact — the
//! paper's analyze-once/query-many split (§4), extended across services
//! and process restarts. The store is **crash-safe and shared**: writes
//! are atomic (temp file + fsync + rename, so a reader never observes a
//! torn artifact), artifacts carry an identity digest checked on load,
//! and a lock-file protocol with stale-lock takeover lets N replicas
//! share one `cache_dir` while analyzing each service exactly once
//! (whoever loses the lock race reloads the winner's artifact — see
//! [`AnalysisSource`]).
//!
//! Failures are **supervised**: transient ones (an injected I/O fault,
//! a lock-wait timeout) are retried with bounded exponential backoff
//! ([`RetryPolicy`]), permanent ones (panics on malformed inputs) settle
//! the job `Failed` immediately; either way subscribers are woken, never
//! hung. The [`FaultPlane`](crate::fault::FaultPlane) threads through
//! every store and analysis step so all of the above is testable on
//! demand.
//!
//! ```
//! use apiphany_core::{QuerySpec, ServiceCatalog};
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//!
//! let catalog = ServiceCatalog::new();
//! catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
//! // Analysis happens here, on first use, and is reused afterwards.
//! let spec = QuerySpec::output("[Profile.email]")
//!     .service("demo")
//!     .input("channel_name", "Channel.name")
//!     .depth(7);
//! let result = catalog.open(&spec).unwrap().drain();
//! assert_eq!(result.ranked.len(), 2);
//! ```
//!
//! All methods take `&self` and the catalog is `Sync`: a daemon shares
//! one catalog across request-handling threads. A service being analyzed
//! affects only the callers that need *that* service; registrations and
//! queries against other services proceed.
//!
//! Eviction frees the name immediately and never destroys work in
//! flight: evicting a service whose analysis job is still **queued**
//! cancels the job (a prompt no-op); evicting one whose job is
//! **running** lets the job finish — already-subscribed waiters still
//! receive the engine — but its publication is a no-op, because
//! publication is keyed by job id and the evicted job's entry is gone.
//! The service can never resurrect itself in a half-registered state.

use std::collections::HashMap;
use std::io::Write as _;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apiphany_analysis::DiagnosticSummary;
use apiphany_mining::AnalyzeStats;
use apiphany_spec::{CancelToken, Library, Witness};
use apiphany_telemetry::Telemetry;

use crate::fault::{FaultKind, FaultPlane, FaultPoint};
use crate::job::{panic_message, Job, JobId, JobKind, JobOutcome, JobRuntime, JobState};
use crate::{AnalysisArtifact, Engine, EngineError, QuerySpec, Session};

/// One registered service's lifecycle state.
enum Entry {
    /// Registered from raw inputs; analysis has not run yet.
    Spec { library: Library, witnesses: Vec<Witness> },
    /// Registered from a saved artifact; the engine (TTN) is not built yet.
    Artifact(Box<AnalysisArtifact>),
    /// An analysis job owns the inputs right now; subscribe to it.
    Analyzing {
        job: Job<Engine>,
        /// Input sizes, snapshotted for `inspect` while the inputs
        /// travel with the job.
        n_methods: usize,
        n_witnesses: usize,
    },
    /// Ready to serve.
    Ready {
        engine: Engine,
        /// Wall-clock of the analyze-once work (cache load or mining,
        /// plus the TTN build).
        analyze_time: Duration,
        /// How the analysis was obtained.
        source: AnalysisSource,
        /// A non-fatal artifact-store problem hit along the way
        /// (quarantined corrupt file, failed best-effort write).
        cache_warning: Option<String>,
    },
}

/// Where a warm service's analysis came from — the observable that makes
/// the shared store's exactly-once property testable: when N replicas
/// share a `cache_dir`, exactly one reports [`AnalysisSource::Mined`]
/// per service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisSource {
    /// Mined fresh from registered spec inputs (this process did the
    /// expensive work, and persisted it when a cache is configured).
    Mined,
    /// Reloaded from an artifact already in the cache directory.
    Cache,
    /// Loaded from an artifact a *peer* replica published while this
    /// process waited on (or raced for) the store lock.
    Peer,
    /// Built from an artifact handed in via
    /// [`ServiceCatalog::register_artifact`].
    Artifact,
}

impl AnalysisSource {
    /// The wire/display name (`mined`, `cache`, `peer`, `artifact`).
    pub fn name(self) -> &'static str {
        match self {
            AnalysisSource::Mined => "mined",
            AnalysisSource::Cache => "cache",
            AnalysisSource::Peer => "peer",
            AnalysisSource::Artifact => "artifact",
        }
    }
}

impl std::fmt::Display for AnalysisSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Supervised-retry policy for **transient** analysis failures (injected
/// I/O faults, store-lock wait timeouts). Attempt `k` (0-based) sleeps
/// `backoff * 2^k` before re-running; permanent failures (panics) are
/// never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts after the first try (`0` = fail fast).
    pub retries: u32,
    /// Base backoff, doubled per attempt.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { retries: 2, backoff: Duration::from_millis(100) }
    }
}

/// Tunables of the shared-store lock protocol (private: tests shrink the
/// windows; production uses the defaults).
#[derive(Debug, Clone, Copy)]
struct LockConfig {
    /// A lock file untouched for this long belongs to a crashed holder
    /// and is taken over.
    stale_after: Duration,
    /// Poll interval while waiting for a peer's lock.
    poll: Duration,
    /// Give up waiting after this long (a transient failure, retried
    /// under the [`RetryPolicy`]).
    wait: Duration,
}

impl Default for LockConfig {
    fn default() -> LockConfig {
        LockConfig {
            stale_after: Duration::from_secs(30),
            poll: Duration::from_millis(10),
            wait: Duration::from_secs(60),
        }
    }
}

/// Everything an analysis job body needs — cloned from the catalog into
/// each job closure so the body owns its configuration.
#[derive(Clone)]
struct JobConfig {
    cache_dir: Option<PathBuf>,
    retry: RetryPolicy,
    lock: LockConfig,
    fault: FaultPlane,
    /// The runtime's shared retry counter, when the catalog has one.
    retry_counter: Option<Arc<AtomicU64>>,
    /// The observability plane analysis jobs report into (disabled by
    /// default; free when disabled).
    telemetry: Telemetry,
}

impl Default for JobConfig {
    fn default() -> JobConfig {
        JobConfig {
            cache_dir: None,
            retry: RetryPolicy::default(),
            lock: LockConfig::default(),
            fault: FaultPlane::disabled(),
            retry_counter: None,
            telemetry: Telemetry::default(),
        }
    }
}

/// A live analysis job as reported by [`ServiceCatalog::inspect`] and the
/// `synthd` `status` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    /// The job's stable identity.
    pub id: JobId,
    /// The kind of work ([`JobKind::Analysis`] for catalog jobs).
    pub kind: JobKind,
    /// The job's state at snapshot time.
    pub state: JobState,
}

impl JobInfo {
    fn of<T: Clone>(job: &Job<T>) -> JobInfo {
        JobInfo { id: job.id(), kind: job.kind(), state: job.state() }
    }
}

/// What a catalog entry looks like from outside ([`ServiceCatalog::list`]
/// / [`ServiceCatalog::inspect`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInfo {
    /// The registration name.
    pub name: String,
    /// Whether the analyze-once work (mining + TTN build) has happened.
    pub analyzed: bool,
    /// Methods in the service's syntactic library.
    pub n_methods: usize,
    /// Witnesses available for retrospective execution.
    pub n_witnesses: usize,
    /// Mined semantic type groups; `None` until analyzed (registration
    /// from an artifact knows it immediately).
    pub n_semantic_types: Option<usize>,
    /// Analysis-phase statistics (witness/coverage counts — the mining
    /// cost), once analyzed.
    pub analysis: Option<AnalyzeStats>,
    /// Wall-clock the catalog spent on this service's analyze-once work.
    pub analyze_time: Option<Duration>,
    /// The in-flight analysis job, while one is queued or running.
    pub job: Option<JobInfo>,
    /// Lint error/warning counts, once diagnostics exist (analyzed
    /// engines always have them; artifact registrations carry the counts
    /// persisted at analysis time).
    pub lints: Option<DiagnosticSummary>,
    /// How the analysis was obtained, once analyzed.
    pub source: Option<AnalysisSource>,
    /// A non-fatal artifact-store problem hit during analysis
    /// (quarantined corrupt cache file, failed best-effort write) —
    /// surfaced exactly once, on the entry it affected.
    pub cache_warning: Option<String>,
}

/// The result of a non-blocking [`ServiceCatalog::lookup`].
#[derive(Debug, Clone)]
pub enum ServiceLookup {
    /// The service is warm; here is its engine.
    Ready(Engine),
    /// The service's analysis job is in flight (or, for a runtime-less
    /// catalog, already settled): subscribe via
    /// [`Job::on_terminal`](crate::Job::on_terminal) or block on
    /// [`Job::wait_outcome`](crate::Job::wait_outcome).
    Pending(Job<Engine>),
}

/// A named registry of services whose analyze-once work runs as
/// first-class [`Analysis` jobs](crate::JobKind::Analysis). See the
/// module docs.
pub struct ServiceCatalog {
    entries: Arc<Mutex<HashMap<String, Entry>>>,
    cfg: JobConfig,
    /// Where analysis jobs execute; `None` = inline on the claiming
    /// caller's thread.
    runtime: Option<JobRuntime>,
    /// Job-id allocator for runtime-less catalogs.
    local_ids: AtomicU64,
}

impl Default for ServiceCatalog {
    fn default() -> ServiceCatalog {
        ServiceCatalog::new()
    }
}

impl std::fmt::Debug for ServiceCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceCatalog")
            .field("services", &self.entries.lock().expect("catalog lock").len())
            .field("cache_dir", &self.cfg.cache_dir)
            .field("runtime", &self.runtime.is_some())
            .finish()
    }
}

impl ServiceCatalog {
    /// An empty catalog with default mining/TTN options, no disk cache,
    /// and inline (caller-thread) analysis.
    pub fn new() -> ServiceCatalog {
        ServiceCatalog {
            entries: Arc::new(Mutex::new(HashMap::new())),
            cfg: JobConfig::default(),
            runtime: None,
            local_ids: AtomicU64::new(1),
        }
    }

    /// Persists mined artifacts under `dir` as `<name>.analysis.json` and
    /// reloads them instead of re-mining. The directory is created on
    /// first write. Writes are atomic (temp file + fsync + rename), so a
    /// crash mid-write never leaves a torn artifact at the published
    /// path; a cache file that still fails to parse (bit rot, digest
    /// mismatch) is **quarantined** to `<name>.analysis.json.corrupt` and
    /// surfaced via [`ServiceInfo::cache_warning`], then re-mined — a
    /// corrupt cache must never take the service down. Replicas sharing
    /// `dir` coordinate through `<name>.analysis.lock` files (with
    /// stale-lock takeover) so each service is mined exactly once.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> ServiceCatalog {
        self.cfg.cache_dir = Some(dir.into());
        self
    }

    /// Sets the supervised-retry policy for transient analysis failures
    /// (default: 2 retries, 100 ms base backoff).
    pub fn with_retry(mut self, retry: RetryPolicy) -> ServiceCatalog {
        self.cfg.retry = retry;
        self
    }

    /// Installs a fault-injection plane (testing/chaos only; the default
    /// disabled plane costs one branch per injection point).
    pub fn with_fault(mut self, fault: FaultPlane) -> ServiceCatalog {
        self.cfg.fault = fault;
        self
    }

    /// Installs an observability plane: analysis jobs record their
    /// duration (`catalog.analyze_us`), their provenance
    /// (`catalog.source.{mined,cache,peer,artifact}` counters), and any
    /// artifact-store warning (a `cache.warning` flight-recorder event).
    /// [`ServiceCatalog::with_runtime`] adopts the runtime's telemetry
    /// automatically; this sets it explicitly (e.g. for runtime-less
    /// catalogs).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ServiceCatalog {
        self.cfg.telemetry = telemetry;
        self
    }

    #[cfg(test)]
    fn with_lock_config(mut self, lock: LockConfig) -> ServiceCatalog {
        self.cfg.lock = lock;
        self
    }

    /// Executes analysis jobs on `runtime`'s analysis lane instead of
    /// inline: [`ServiceCatalog::lookup`] and
    /// [`ServiceCatalog::prewarm`] become non-blocking, and mining shares
    /// the runtime's slots fairly with the sessions
    /// [`JobRuntime::submit`] runs there (see [`JobRuntime`]).
    pub fn with_runtime(mut self, runtime: JobRuntime) -> ServiceCatalog {
        self.cfg.retry_counter = Some(runtime.retry_counter());
        if !self.cfg.telemetry.is_enabled() {
            self.cfg.telemetry = runtime.telemetry().clone();
        }
        self.runtime = Some(runtime);
        self
    }

    /// Registers a service from its analysis inputs: the syntactic
    /// library and a witness set. Mining is deferred to first use (or to
    /// an explicit [`ServiceCatalog::prewarm`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidServiceName`] for unusable names,
    /// [`EngineError::DuplicateService`] when the name is taken.
    pub fn register_spec(
        &self,
        name: &str,
        library: Library,
        witnesses: Vec<Witness>,
    ) -> Result<(), EngineError> {
        self.insert(name, Entry::Spec { library, witnesses })
    }

    /// Registers a service from a saved [`AnalysisArtifact`] — no mining
    /// will ever run for it; only the TTN build is deferred to first use.
    ///
    /// # Errors
    ///
    /// Same as [`ServiceCatalog::register_spec`].
    pub fn register_artifact(
        &self,
        name: &str,
        artifact: AnalysisArtifact,
    ) -> Result<(), EngineError> {
        self.insert(name, Entry::Artifact(Box::new(artifact)))
    }

    fn insert(&self, name: &str, entry: Entry) -> Result<(), EngineError> {
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
        {
            return Err(EngineError::InvalidServiceName(name.to_string()));
        }
        let mut entries = self.entries.lock().expect("catalog lock");
        if entries.contains_key(name) {
            return Err(EngineError::DuplicateService(name.to_string()));
        }
        entries.insert(name.to_string(), entry);
        Ok(())
    }

    /// The names of all registered services, sorted.
    pub fn names(&self) -> Vec<String> {
        let entries = self.entries.lock().expect("catalog lock");
        let mut names: Vec<String> = entries.keys().cloned().collect();
        names.sort();
        names
    }

    /// Describes every registered service, sorted by name.
    pub fn list(&self) -> Vec<ServiceInfo> {
        let entries = self.entries.lock().expect("catalog lock");
        let mut infos: Vec<ServiceInfo> =
            entries.iter().map(|(name, entry)| describe(name, entry)).collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Describes one service, or `None` if the name is not registered.
    pub fn inspect(&self, name: &str) -> Option<ServiceInfo> {
        let entries = self.entries.lock().expect("catalog lock");
        entries.get(name).map(|entry| describe(name, entry))
    }

    /// Removes a service from the catalog, dropping its engine (sessions
    /// already streaming keep their own handles and are unaffected; a
    /// disk-cached artifact also survives). Returns whether the name was
    /// registered.
    ///
    /// Never blocks, never destroys analysis work in flight, and frees
    /// the name **immediately** (it is re-registrable right away): a
    /// *queued* analysis job is cancelled (a prompt no-op), a *running*
    /// one completes and its already-subscribed waiters still get the
    /// engine — but its publication is a no-op, because publication is
    /// keyed by job id and the evicted job's entry is gone. The service
    /// can never resurrect itself in a half-registered state.
    pub fn evict(&self, name: &str) -> bool {
        let mut entries = self.entries.lock().expect("catalog lock");
        let removed = entries.remove(name);
        drop(entries);
        match removed {
            None => false,
            Some(Entry::Analyzing { job, .. }) => {
                // Only a still-queued job is cancelled: a running one
                // keeps an untouched token (an unconditional cancel
                // would now abort its mining mid-flight) and completes
                // for its subscribers; job-id-keyed publication keeps
                // it from resurrecting the evicted name.
                job.cancel_if_queued();
                true
            }
            Some(_) => true,
        }
    }

    fn next_job_id(&self) -> JobId {
        match &self.runtime {
            Some(rt) => rt.next_id(),
            None => JobId(self.local_ids.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// The non-blocking lookup at the heart of the serving path: returns
    /// the engine if the service is warm, otherwise the [`Job`] handle of
    /// its analysis — claiming the entry and starting the job if this is
    /// the first use. With a [`JobRuntime`] configured the job is queued
    /// on the analysis lane and this call returns immediately; without
    /// one, the claiming call runs the job inline (the returned handle is
    /// already settled), and concurrent callers for the same service get
    /// the in-flight handle to wait on.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownService`] for unregistered names.
    pub fn lookup(&self, name: &str) -> Result<ServiceLookup, EngineError> {
        let mut entries = self.entries.lock().expect("catalog lock");
        match entries.get(name) {
            None => return Err(EngineError::UnknownService(name.to_string())),
            Some(Entry::Ready { engine, .. }) => {
                return Ok(ServiceLookup::Ready(engine.clone()))
            }
            Some(Entry::Analyzing { job, .. }) => {
                return Ok(ServiceLookup::Pending(job.clone()))
            }
            Some(Entry::Spec { .. } | Entry::Artifact(_)) => {}
        }
        // Claim the analysis: move the inputs into the job and publish
        // the job handle in their place, so every concurrent lookup
        // subscribes to this job.
        let job: Job<Engine> =
            Job::new(self.next_job_id(), JobKind::Analysis, name, self.cfg.telemetry.clone());
        let (n_methods, n_witnesses) = match entries.get(name) {
            Some(Entry::Spec { library, witnesses }) => {
                (library.stats().n_methods, witnesses.len())
            }
            Some(Entry::Artifact(a)) => {
                (a.semlib.lib.stats().n_methods, a.witnesses.len())
            }
            _ => unreachable!("entry just matched"),
        };
        let inputs = entries
            .insert(
                name.to_string(),
                Entry::Analyzing { job: job.clone(), n_methods, n_witnesses },
            )
            .expect("entry just matched");
        drop(entries);
        let body = {
            let entries = Arc::clone(&self.entries);
            let name = name.to_string();
            let job = job.clone();
            let cfg = self.cfg.clone();
            move || {
                run_analysis_job(&entries, &name, inputs, &job, &cfg);
            }
        };
        match &self.runtime {
            Some(rt) => rt.spawn(JobKind::Analysis, body),
            None => body(),
        }
        Ok(ServiceLookup::Pending(job))
    }

    /// Starts the service's analyze-once work without waiting for a
    /// query, returning the analysis [`Job`] to observe. On an already
    /// warm service the returned job is instantly `Done`. With no
    /// [`JobRuntime`] configured this runs the analysis inline (a
    /// blocking warm-up).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownService`] for unregistered names.
    pub fn prewarm(&self, name: &str) -> Result<Job<Engine>, EngineError> {
        match self.lookup(name)? {
            ServiceLookup::Pending(job) => Ok(job),
            ServiceLookup::Ready(engine) => Ok(Job::settled(
                self.next_job_id(),
                JobKind::Analysis,
                name,
                JobOutcome::Done(engine),
                self.cfg.telemetry.clone(),
            )),
        }
    }

    /// The engine for a service, running the analyze-once work (cache
    /// load, or mining, plus the TTN build) on first use. Blocks until
    /// the service's analysis job settles; concurrent callers for the
    /// same service subscribe to the same job, and callers for other
    /// services are unaffected.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownService`] for unregistered names;
    /// [`EngineError::Analysis`] when the analysis job failed (e.g.
    /// panicked on malformed inputs, or exhausted its transient-failure
    /// retries) or was cancelled before producing an engine.
    pub fn engine(&self, name: &str) -> Result<Engine, EngineError> {
        match self.lookup(name)? {
            ServiceLookup::Ready(engine) => Ok(engine),
            ServiceLookup::Pending(job) => match job.wait_outcome() {
                JobOutcome::Done(engine) => Ok(engine),
                JobOutcome::Failed(reason) => {
                    Err(EngineError::Analysis { service: name.to_string(), reason })
                }
                JobOutcome::Cancelled => Err(EngineError::Analysis {
                    service: name.to_string(),
                    reason: "analysis cancelled".into(),
                }),
            },
        }
    }

    /// Opens a streaming [`Session`] for a catalog-routed [`QuerySpec`]
    /// on a dedicated worker thread. ([`JobRuntime::submit_catalog`] does
    /// the same on a runtime's bounded pool.)
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] when the spec names no service,
    /// [`EngineError::UnknownService`] / [`EngineError::Query`] /
    /// [`EngineError::Budget`] as for the underlying lookups.
    pub fn open(&self, spec: &QuerySpec) -> Result<Session, EngineError> {
        let name = spec
            .service
            .as_deref()
            .ok_or_else(|| EngineError::Spec("catalog queries must name a service".into()))?;
        self.engine(name)?.open(spec)
    }
}

/// A successful analyze-once outcome: the engine plus how it was
/// obtained and anything the store wants the operator to know.
struct Analyzed {
    engine: Engine,
    source: AnalysisSource,
    cache_warning: Option<String>,
}

/// The supervised-retry classification, by construction: a *typed*
/// analysis failure is transient (injected/environmental I/O trouble, a
/// lock-wait timeout — the world may look different next time) and is
/// retried; a *panic* is permanent (re-running the same inputs fails the
/// same way), unwinds to the job's `catch_unwind`, and is never retried.
struct TransientFailure(String);

/// The analysis job body: run the analyze-once work (with supervised
/// retries for transient failures), publish the result into the entry
/// map, then settle the job (waking waiters and running continuations —
/// strictly after publication, so subscribers observe a consistent
/// catalog).
fn run_analysis_job(
    entries: &Mutex<HashMap<String, Entry>>,
    name: &str,
    inputs: Entry,
    job: &Job<Engine>,
    cfg: &JobConfig,
) {
    let start = Instant::now();
    let (outcome, source, cache_warning) = if job.cancel_token().is_cancelled() {
        // Cancelled while queued: a prompt no-op (the inputs are
        // dropped; the publication step unregisters the name).
        (JobOutcome::Cancelled, None, None)
    } else {
        job.mark_running();
        // A panic (malformed inputs, or an injected `worker_start`-style
        // fault) settles the job `Failed` instead of leaving subscribers
        // blocked forever; the pool worker survives regardless.
        let cancel = job.cancel_token();
        let work = std::panic::catch_unwind(AssertUnwindSafe(|| match inputs {
            Entry::Spec { library, witnesses } => {
                let mut attempt: u32 = 0;
                loop {
                    match analyze_spec(name, library.clone(), witnesses.clone(), cfg, &cancel)
                    {
                        Err(TransientFailure(_))
                            if attempt < cfg.retry.retries && !cancel.is_cancelled() =>
                        {
                            if let Some(counter) = &cfg.retry_counter {
                                counter.fetch_add(1, Ordering::Relaxed);
                            }
                            std::thread::sleep(cfg.retry.backoff * (1 << attempt.min(16)));
                            attempt += 1;
                        }
                        done => break done,
                    }
                }
            }
            Entry::Artifact(artifact) => Ok(Analyzed {
                engine: Engine::builder().from_artifact(*artifact),
                source: AnalysisSource::Artifact,
                cache_warning: None,
            }),
            Entry::Analyzing { .. } | Entry::Ready { .. } => {
                unreachable!("claimed an unanalyzed entry")
            }
        }));
        match work {
            // A cancel that landed mid-analysis may have produced a
            // fallback engine (or a failure that only reflects the
            // abort); settle `Cancelled` so waiters never observe
            // either as real.
            Ok(_) if cancel.is_cancelled() => (JobOutcome::Cancelled, None, None),
            Ok(Ok(done)) => {
                (JobOutcome::Done(done.engine), Some(done.source), done.cache_warning)
            }
            Ok(Err(TransientFailure(reason))) => (
                JobOutcome::Failed(format!("transient analysis failure: {reason}")),
                None,
                None,
            ),
            Err(payload) => {
                (JobOutcome::Failed(panic_message(payload.as_ref())), None, None)
            }
        }
    };
    if cfg.telemetry.is_enabled() {
        if let Some(source) = source {
            cfg.telemetry.histogram("catalog.analyze_us").record_duration(start.elapsed());
            cfg.telemetry.counter(&format!("catalog.source.{source}")).inc();
        }
        if let Some(w) = &cache_warning {
            cfg.telemetry.counter("catalog.cache_warnings").inc();
            cfg.telemetry
                .record("cache.warning", [("service", name), ("warning", w.as_str())]);
        }
    }
    publish(entries, name, job, &outcome, start.elapsed(), source, cache_warning);
    job.settle(outcome);
}

/// Publishes an analysis outcome into the entry map: `Done` installs the
/// engine, anything else unregisters the name. Publication is keyed by
/// job id: a stale job — its entry was evicted or replaced since the
/// claim — touches nothing, which is what lets `evict` free a name
/// instantly without ever destroying (or resurrecting) in-flight work.
fn publish(
    entries: &Mutex<HashMap<String, Entry>>,
    name: &str,
    job: &Job<Engine>,
    outcome: &JobOutcome<Engine>,
    analyze_time: Duration,
    source: Option<AnalysisSource>,
    cache_warning: Option<String>,
) {
    let mut entries = entries.lock().expect("catalog lock");
    match entries.get(name) {
        Some(Entry::Analyzing { job: current, .. }) if current.id() == job.id() => {}
        _ => return,
    }
    match outcome {
        JobOutcome::Done(engine) => {
            entries.insert(
                name.to_string(),
                Entry::Ready {
                    engine: engine.clone(),
                    analyze_time,
                    source: source.unwrap_or(AnalysisSource::Mined),
                    cache_warning,
                },
            );
        }
        _ => {
            entries.remove(name);
        }
    }
}

/// One attempt of the analyze-once work for a spec registration: reuse
/// the store when possible, otherwise take the store lock, mine, and
/// publish the artifact atomically.
fn analyze_spec(
    name: &str,
    library: Library,
    witnesses: Vec<Witness>,
    cfg: &JobConfig,
    cancel: &CancelToken,
) -> Result<Analyzed, TransientFailure> {
    let cache_dir = cfg.cache_dir.as_deref();
    let mut warning: Option<String> = None;
    match load_cached(cache_dir, name, &cfg.fault) {
        CacheProbe::Hit(artifact) => {
            return Ok(Analyzed {
                engine: Engine::builder().from_artifact(*artifact),
                source: AnalysisSource::Cache,
                cache_warning: None,
            })
        }
        CacheProbe::MissWarn(w) => warning = Some(w),
        CacheProbe::Miss => {}
    }
    // Exactly-once across replicas sharing this cache dir: take the
    // store lock before mining. Correctness never depends on the lock —
    // two miners (after a benign takeover race) both publish atomically
    // and the artifacts are identical — it only prevents duplicate work.
    let lock = match lock_path(cache_dir, name) {
        None => None,
        Some(path) => match acquire_store_lock(&path, cache_dir, name, &cfg.lock, cancel) {
            LockAcquire::Held(guard) => Some(guard),
            LockAcquire::Unlocked => None,
            LockAcquire::Published(artifact) => {
                return Ok(Analyzed {
                    engine: Engine::builder().from_artifact(*artifact),
                    source: AnalysisSource::Peer,
                    cache_warning: warning,
                })
            }
            LockAcquire::TimedOut => {
                return Err(TransientFailure(format!(
                    "timed out waiting for the analysis lock on '{name}'"
                )))
            }
        },
    };
    // Holding the lock, re-probe: a peer may have published between the
    // miss above and our acquisition.
    if lock.is_some() {
        if let CacheProbe::Hit(artifact) =
            load_cached(cache_dir, name, &FaultPlane::disabled())
        {
            return Ok(Analyzed {
                engine: Engine::builder().from_artifact(*artifact),
                source: AnalysisSource::Peer,
                cache_warning: warning,
            });
        }
    }
    // The analysis-body injection point: a transient service failure
    // mid-analysis (retried), a panic (permanent), or a stall.
    if let Err(e) = cfg.fault.io(FaultPoint::AnalysisBody) {
        return Err(TransientFailure(e.to_string()));
    }
    let engine = Engine::builder()
        .cancel_token(cancel.clone())
        .from_witnesses(library, witnesses);
    // Never persist a partially mined (cancelled) analysis.
    if !cancel.is_cancelled() {
        let artifact = engine.save_analysis().named(name);
        if let Some(w) = store_cached(cache_dir, name, &artifact, &cfg.fault) {
            warning = Some(match warning {
                None => w,
                Some(prev) => format!("{prev}; {w}"),
            });
        }
    }
    drop(lock);
    Ok(Analyzed { engine, source: AnalysisSource::Mined, cache_warning: warning })
}

fn cache_path(cache_dir: Option<&Path>, name: &str) -> Option<PathBuf> {
    cache_dir.map(|dir| dir.join(format!("{name}.analysis.json")))
}

fn lock_path(cache_dir: Option<&Path>, name: &str) -> Option<PathBuf> {
    cache_dir.map(|dir| dir.join(format!("{name}.analysis.lock")))
}

/// The outcome of probing the artifact store for a service.
enum CacheProbe {
    Hit(Box<AnalysisArtifact>),
    Miss,
    /// A miss the operator should hear about (quarantined corrupt file,
    /// unreadable cache volume).
    MissWarn(String),
}

fn load_cached(cache_dir: Option<&Path>, name: &str, fault: &FaultPlane) -> CacheProbe {
    let Some(path) = cache_path(cache_dir, name) else { return CacheProbe::Miss };
    if let Err(e) = fault.io(FaultPoint::ArtifactRead) {
        return CacheProbe::MissWarn(format!("artifact cache read failed for '{name}': {e}"));
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheProbe::Miss,
        Err(e) => {
            return CacheProbe::MissWarn(format!(
                "artifact cache read failed for '{name}': {e}"
            ))
        }
    };
    match AnalysisArtifact::from_json(&text) {
        Ok(artifact) => CacheProbe::Hit(Box::new(artifact)),
        Err(e) => {
            // Quarantine the bad bytes (for post-mortems) instead of
            // silently re-mining over them on every start; with the file
            // moved aside, the warning fires exactly once.
            let quarantine = path.with_extension("json.corrupt");
            let moved = std::fs::rename(&path, &quarantine).is_ok();
            CacheProbe::MissWarn(if moved {
                format!(
                    "quarantined corrupt artifact cache for '{name}' to '{}': {e}",
                    quarantine.display()
                )
            } else {
                format!("corrupt artifact cache for '{name}' (quarantine failed): {e}")
            })
        }
    }
}

/// Best-effort atomic cache write: serving must not fail because the
/// cache volume is full or read-only. Returns a warning when the write
/// could not be published. The temp-file + fsync + rename dance
/// guarantees a reader at the published path sees either the complete
/// artifact or nothing — a crash (or injected torn write) leaves at
/// worst a stray `.tmp.<pid>` file, never a torn artifact.
fn store_cached(
    cache_dir: Option<&Path>,
    name: &str,
    artifact: &AnalysisArtifact,
    fault: &FaultPlane,
) -> Option<String> {
    let path = cache_path(cache_dir, name)?;
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let tmp = path.with_extension(format!("json.tmp.{}", std::process::id()));
    match write_atomic(&path, &tmp, artifact.to_json().as_bytes(), fault) {
        Ok(()) => None,
        // The temp residue is deliberately left in place — exactly what
        // a real crash leaves — and is invisible to readers.
        Err(e) => Some(format!("artifact cache write failed for '{name}': {e}")),
    }
}

fn write_atomic(
    path: &Path,
    tmp: &Path,
    bytes: &[u8],
    fault: &FaultPlane,
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(tmp)?;
    match fault.trip(FaultPoint::ArtifactWrite) {
        // The simulated mid-write crash: a prefix of the bytes reaches
        // the temp file and the rename never happens.
        Some(FaultKind::TornWrite) => {
            file.write_all(&bytes[..bytes.len() / 2])?;
            let _ = file.sync_all();
            return Err(crate::fault::injected_io_error(FaultPoint::ArtifactWrite));
        }
        Some(_) => return Err(crate::fault::injected_io_error(FaultPoint::ArtifactWrite)),
        None => {}
    }
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)?;
    // Persist the rename itself: fsync the containing directory.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Releases the store lock on drop (including when an attempt errors, so
/// a retry — ours or a peer's — can re-acquire).
struct StoreLock {
    path: PathBuf,
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

enum LockAcquire {
    /// We hold the lock; mine and publish.
    Held(StoreLock),
    /// The lock file could not be used at all (permissions, exotic fs):
    /// proceed without it — duplicate work at worst, never corruption.
    Unlocked,
    /// A peer published the artifact while we waited.
    Published(Box<AnalysisArtifact>),
    /// Nobody published and the lock never freed within the wait budget:
    /// a transient failure, retried under the [`RetryPolicy`].
    TimedOut,
}

/// The lock-file protocol: `create_new` is the atomic acquire; waiting
/// peers poll for either the published artifact or the lock's release. A
/// lock file untouched for `stale_after` belongs to a crashed holder and
/// is unlinked so the waiters can race for a fresh `create_new`. (That
/// takeover has a benign race — two waiters can both unlink and one
/// re-created lock may be lost — accepted because the store's atomic
/// writes make duplicate mining harmless.)
fn acquire_store_lock(
    path: &Path,
    cache_dir: Option<&Path>,
    name: &str,
    lock: &LockConfig,
    cancel: &CancelToken,
) -> LockAcquire {
    let deadline = Instant::now() + lock.wait;
    loop {
        match std::fs::OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut file) => {
                // The holder's identity, for operators inspecting a wedge.
                let _ = writeln!(file, "{}", std::process::id());
                let _ = file.sync_all();
                return LockAcquire::Held(StoreLock { path: path.to_path_buf() });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                // A peer is mining: did it publish already? (Probed with
                // a disabled plane — polling must not burn fault draws.)
                if let CacheProbe::Hit(artifact) =
                    load_cached(cache_dir, name, &FaultPlane::disabled())
                {
                    return LockAcquire::Published(artifact);
                }
                if let Ok(meta) = std::fs::metadata(path) {
                    let stale = meta
                        .modified()
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| age >= lock.stale_after);
                    if stale {
                        let _ = std::fs::remove_file(path);
                        continue;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // The cache directory does not exist yet — create it and
                // retry the acquire.
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                continue;
            }
            Err(_) => return LockAcquire::Unlocked,
        }
        if cancel.is_cancelled() || Instant::now() >= deadline {
            return LockAcquire::TimedOut;
        }
        std::thread::sleep(lock.poll);
    }
}

fn describe(name: &str, entry: &Entry) -> ServiceInfo {
    match entry {
        Entry::Spec { library, witnesses } => ServiceInfo {
            name: name.to_string(),
            analyzed: false,
            n_methods: library.stats().n_methods,
            n_witnesses: witnesses.len(),
            n_semantic_types: None,
            analysis: None,
            analyze_time: None,
            job: None,
            lints: None,
            source: None,
            cache_warning: None,
        },
        Entry::Artifact(artifact) => ServiceInfo {
            name: name.to_string(),
            analyzed: false,
            n_methods: artifact.semlib.lib.stats().n_methods,
            n_witnesses: artifact.witnesses.len(),
            n_semantic_types: Some(artifact.semlib.n_groups()),
            analysis: artifact.stats.clone(),
            analyze_time: None,
            job: None,
            lints: Some(DiagnosticSummary::of(&artifact.diagnostics)),
            source: None,
            cache_warning: None,
        },
        Entry::Analyzing { job, n_methods, n_witnesses, .. } => ServiceInfo {
            name: name.to_string(),
            analyzed: false,
            n_methods: *n_methods,
            n_witnesses: *n_witnesses,
            n_semantic_types: None,
            analysis: None,
            analyze_time: None,
            job: Some(JobInfo::of(job)),
            lints: None,
            source: None,
            cache_warning: None,
        },
        Entry::Ready { engine, analyze_time, source, cache_warning } => ServiceInfo {
            name: name.to_string(),
            analyzed: true,
            n_methods: engine.semlib().lib.stats().n_methods,
            n_witnesses: engine.witnesses().len(),
            n_semantic_types: Some(engine.semlib().n_groups()),
            analysis: engine.analysis_stats().cloned(),
            analyze_time: Some(*analyze_time),
            job: None,
            lints: Some(DiagnosticSummary::of(engine.diagnostics())),
            source: Some(*source),
            cache_warning: cache_warning.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    fn demo_catalog() -> ServiceCatalog {
        let catalog = ServiceCatalog::new();
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        catalog
    }

    fn email_spec() -> QuerySpec {
        QuerySpec::output("[Profile.email]")
            .service("demo")
            .input("channel_name", "Channel.name")
            .depth(7)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "apiphany-catalog-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lazy_analysis_happens_once_and_serves_queries() {
        let catalog = demo_catalog();
        assert!(!catalog.inspect("demo").unwrap().analyzed);
        let result = catalog.open(&email_spec()).unwrap().drain();
        assert_eq!(result.ranked.len(), 2);
        let info = catalog.inspect("demo").unwrap();
        assert!(info.analyzed);
        assert!(info.n_semantic_types.unwrap() > 0);
        // The analyze-once work reports its cost (mining stats + time)
        // and its provenance.
        assert!(info.analysis.is_some());
        assert!(info.analyze_time.is_some());
        assert_eq!(info.source, Some(AnalysisSource::Mined));
        assert!(info.cache_warning.is_none());
        assert!(info.job.is_none(), "no job is live after analysis settles");
        // Second lookup reuses the engine (same Arc).
        let a = catalog.engine("demo").unwrap();
        let b = catalog.engine("demo").unwrap();
        assert!(std::sync::Arc::ptr_eq(&a.inner, &b.inner));
    }

    #[test]
    fn list_and_evict() {
        let catalog = demo_catalog();
        catalog.register_artifact("snap", make_artifact()).unwrap();
        let names: Vec<String> = catalog.list().iter().map(|i| i.name.clone()).collect();
        assert_eq!(names, vec!["demo", "snap"]);
        assert!(catalog.evict("demo"));
        assert!(!catalog.evict("demo"));
        assert_eq!(catalog.names(), vec!["snap"]);
        assert!(matches!(
            catalog.engine("demo"),
            Err(EngineError::UnknownService(_))
        ));
    }

    fn make_artifact() -> AnalysisArtifact {
        Engine::from_witnesses(fig7_library(), fig4_witnesses()).save_analysis()
    }

    #[test]
    fn artifact_registration_never_mines() {
        let catalog = ServiceCatalog::new();
        catalog.register_artifact("snap", make_artifact()).unwrap();
        let info = catalog.inspect("snap").unwrap();
        assert!(!info.analyzed);
        // Semantic type count is known even before the TTN is built.
        assert!(info.n_semantic_types.unwrap() > 0);
        let spec = email_spec().service("snap");
        let result = catalog.open(&spec).unwrap().drain();
        assert_eq!(result.ranked.len(), 2);
        assert_eq!(catalog.inspect("snap").unwrap().source, Some(AnalysisSource::Artifact));
    }

    #[test]
    fn registration_errors_are_structured() {
        let catalog = demo_catalog();
        assert!(matches!(
            catalog.register_spec("demo", fig7_library(), fig4_witnesses()),
            Err(EngineError::DuplicateService(_))
        ));
        for bad in ["", "no/slashes", "no spaces", "../escape"] {
            assert!(
                matches!(
                    catalog.register_spec(bad, fig7_library(), fig4_witnesses()),
                    Err(EngineError::InvalidServiceName(_))
                ),
                "{bad:?} accepted"
            );
        }
        assert!(matches!(
            catalog.open(&QuerySpec::output("[Channel]")),
            Err(EngineError::Spec(_))
        ));
        assert!(matches!(
            catalog.open(&QuerySpec::output("[Channel]").service("nope")),
            Err(EngineError::UnknownService(_))
        ));
    }

    #[test]
    fn disk_cache_roundtrips_and_skips_remining() {
        let dir = temp_dir("roundtrip");
        let baseline = {
            let catalog = demo_catalog();
            catalog.open(&email_spec()).unwrap().drain()
        };
        {
            let catalog = ServiceCatalog::new().with_cache_dir(&dir);
            catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
            catalog.engine("demo").unwrap();
            assert!(dir.join("demo.analysis.json").exists());
            // The store lock is released once the analysis publishes.
            assert!(!dir.join("demo.analysis.lock").exists());
        }
        // A second catalog loads from the cache: register with an *empty*
        // witness set — if it re-mined, the query below would find
        // nothing to rank (retrospective execution has no witnesses).
        let catalog = ServiceCatalog::new().with_cache_dir(&dir);
        catalog.register_spec("demo", fig7_library(), Vec::new()).unwrap();
        let served = catalog.open(&email_spec()).unwrap().drain();
        assert_eq!(served.ranked.len(), baseline.ranked.len());
        for (s, b) in served.ranked.iter().zip(&baseline.ranked) {
            assert_eq!(s.canonical, b.canonical);
            assert_eq!(s.rank_at_generation, b.rank_at_generation);
        }
        assert_eq!(catalog.inspect("demo").unwrap().source, Some(AnalysisSource::Cache));
        // The cached artifact carries its service name and a digest that
        // round-trips through disk.
        let text = std::fs::read_to_string(dir.join("demo.analysis.json")).unwrap();
        let artifact = AnalysisArtifact::from_json(&text).unwrap();
        assert_eq!(artifact.service.as_deref(), Some("demo"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_files_are_quarantined_with_a_warning() {
        let dir = temp_dir("bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("demo.analysis.json"), "{ not an artifact").unwrap();
        let catalog = ServiceCatalog::new().with_cache_dir(&dir);
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let result = catalog.open(&email_spec()).unwrap().drain();
        assert_eq!(result.ranked.len(), 2);
        // The bad bytes were quarantined (not destroyed), a fresh
        // artifact was published at the original path, and the incident
        // is surfaced on the entry.
        let quarantined =
            std::fs::read_to_string(dir.join("demo.analysis.json.corrupt")).unwrap();
        assert_eq!(quarantined, "{ not an artifact");
        let text = std::fs::read_to_string(dir.join("demo.analysis.json")).unwrap();
        assert!(AnalysisArtifact::from_json(&text).is_ok());
        let info = catalog.inspect("demo").unwrap();
        assert_eq!(info.source, Some(AnalysisSource::Mined));
        let warning = info.cache_warning.expect("quarantine surfaces a warning");
        assert!(warning.contains("quarantined"), "{warning}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A digest-mismatched artifact (bit rot that is still valid JSON) is
    /// rejected on load and quarantined like any other corruption.
    #[test]
    fn bitrotted_cache_files_fail_the_digest_check() {
        let dir = temp_dir("rot");
        std::fs::create_dir_all(&dir).unwrap();
        let good = make_artifact().named("demo").to_json();
        let rotted = good.replacen("Profile", "Prof1le", 1);
        assert_ne!(good, rotted, "the fixture must contain the rotted token");
        std::fs::write(dir.join("demo.analysis.json"), &rotted).unwrap();
        let err = AnalysisArtifact::from_json(&rotted).unwrap_err();
        assert!(err.to_string().contains("digest mismatch"), "{err}");
        let catalog = ServiceCatalog::new().with_cache_dir(&dir);
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        catalog.engine("demo").unwrap();
        let info = catalog.inspect("demo").unwrap();
        assert_eq!(info.source, Some(AnalysisSource::Mined));
        assert!(info.cache_warning.unwrap().contains("digest mismatch"));
        assert!(dir.join("demo.analysis.json.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_first_use_analyzes_once() {
        let catalog = std::sync::Arc::new(demo_catalog());
        let engines: Vec<Engine> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let catalog = std::sync::Arc::clone(&catalog);
                    scope.spawn(move || catalog.engine("demo").unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Everyone got the same engine instance: one analysis ran.
        for e in &engines[1..] {
            assert!(std::sync::Arc::ptr_eq(&engines[0].inner, &e.inner));
        }
    }

    /// Two catalogs (stand-ins for two synthd replicas) sharing one cache
    /// directory race to analyze the same service: exactly one mines, the
    /// other reuses the winner's artifact via the store lock, and both
    /// serve identical results.
    #[test]
    fn shared_cache_dir_analyzes_exactly_once_across_catalogs() {
        let dir = temp_dir("shared");
        let make = || {
            let catalog = ServiceCatalog::new().with_cache_dir(&dir);
            catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
            catalog
        };
        let (a, b) = (make(), make());
        std::thread::scope(|scope| {
            let ta = scope.spawn(|| a.engine("demo").unwrap());
            let tb = scope.spawn(|| b.engine("demo").unwrap());
            ta.join().unwrap();
            tb.join().unwrap();
        });
        let sources = [
            a.inspect("demo").unwrap().source.unwrap(),
            b.inspect("demo").unwrap().source.unwrap(),
        ];
        let mined =
            sources.iter().filter(|s| **s == AnalysisSource::Mined).count();
        assert_eq!(mined, 1, "exactly one replica mines: {sources:?}");
        assert!(
            sources
                .iter()
                .all(|s| matches!(s, AnalysisSource::Mined | AnalysisSource::Cache | AnalysisSource::Peer)),
            "{sources:?}"
        );
        // Both serve bit-identical candidate streams.
        let ra = a.open(&email_spec()).unwrap().drain();
        let rb = b.open(&email_spec()).unwrap().drain();
        assert_eq!(ra.ranked.len(), rb.ranked.len());
        for (x, y) in ra.ranked.iter().zip(&rb.ranked) {
            assert_eq!(x.canonical, y.canonical);
        }
        assert!(!dir.join("demo.analysis.lock").exists(), "lock released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected torn write (the mid-write crash) never publishes a
    /// corrupt artifact: the published path stays absent, the residue is
    /// a temp file readers never look at, and a later catalog mines
    /// cleanly and repairs the store.
    #[test]
    fn torn_cache_write_never_publishes_a_corrupt_artifact() {
        let dir = temp_dir("torn");
        let plane = FaultPlane::parse(11, "artifact_write=torn").unwrap();
        let catalog = ServiceCatalog::new().with_cache_dir(&dir).with_fault(plane);
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        // The write fault is best-effort territory: the analysis itself
        // still succeeds and serves.
        let result = catalog.open(&email_spec()).unwrap().drain();
        assert_eq!(result.ranked.len(), 2);
        let info = catalog.inspect("demo").unwrap();
        assert_eq!(info.source, Some(AnalysisSource::Mined));
        assert!(info.cache_warning.unwrap().contains("write failed"));
        // The published path never existed; the torn bytes are confined
        // to the crash residue.
        assert!(!dir.join("demo.analysis.json").exists());
        let residue = dir.join(format!("demo.analysis.json.tmp.{}", std::process::id()));
        assert!(residue.exists(), "torn write leaves its temp residue");
        // A healthy catalog over the same directory reads right through
        // the residue and repairs the store.
        let fresh = ServiceCatalog::new().with_cache_dir(&dir);
        fresh.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        fresh.engine("demo").unwrap();
        assert_eq!(fresh.inspect("demo").unwrap().source, Some(AnalysisSource::Mined));
        let text = std::fs::read_to_string(dir.join("demo.analysis.json")).unwrap();
        assert!(AnalysisArtifact::from_json(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stale lock (crashed holder) is taken over instead of wedging
    /// every future analysis of the service.
    #[test]
    fn stale_store_locks_are_taken_over() {
        let dir = temp_dir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        let lock = dir.join("demo.analysis.lock");
        std::fs::write(&lock, "999999\n").unwrap();
        let old = std::time::SystemTime::now() - Duration::from_secs(600);
        std::fs::File::options()
            .write(true)
            .open(&lock)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let catalog = ServiceCatalog::new().with_cache_dir(&dir);
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        catalog.engine("demo").unwrap();
        assert_eq!(catalog.inspect("demo").unwrap().source, Some(AnalysisSource::Mined));
        assert!(!lock.exists(), "the takeover's own lock is released too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A *live* (fresh) lock that never publishes and never frees is a
    /// transient failure: with retries exhausted the job settles `Failed`
    /// with a structured reason instead of hanging subscribers.
    #[test]
    fn lock_wait_timeout_is_transient_and_surfaces_structured() {
        let dir = temp_dir("wedge");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("demo.analysis.lock"), "live\n").unwrap();
        let catalog = ServiceCatalog::new()
            .with_cache_dir(&dir)
            .with_retry(RetryPolicy { retries: 1, backoff: Duration::from_millis(1) })
            .with_lock_config(LockConfig {
                stale_after: Duration::from_secs(3600),
                poll: Duration::from_millis(2),
                wait: Duration::from_millis(30),
            });
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let err = catalog.engine("demo").unwrap_err();
        let EngineError::Analysis { reason, .. } = err else {
            panic!("expected an analysis failure, got {err:?}");
        };
        assert!(reason.contains("transient analysis failure"), "{reason}");
        assert!(reason.contains("timed out waiting"), "{reason}");
        // The failed name is unregistered and reusable.
        assert!(catalog.inspect("demo").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Transient injected analysis faults are retried (and counted on the
    /// runtime); the job succeeds once the schedule relents.
    #[test]
    fn transient_analysis_faults_are_retried_until_success() {
        // Find a seed whose first analysis-body draw fires and whose
        // second does not — then the first attempt fails and the single
        // retry succeeds, deterministically.
        let seed = (0..200u64)
            .find(|&s| {
                let probe = FaultPlane::parse(s, "analysis=io:1/2").unwrap();
                probe.hit(FaultPoint::AnalysisBody).is_some()
                    && probe.hit(FaultPoint::AnalysisBody).is_none()
            })
            .expect("some seed fires then relents");
        let runtime = JobRuntime::new(1);
        let catalog = ServiceCatalog::new()
            .with_fault(FaultPlane::parse(seed, "analysis=io:1/2").unwrap())
            .with_retry(RetryPolicy { retries: 3, backoff: Duration::from_millis(1) })
            .with_runtime(runtime.clone());
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        catalog.engine("demo").unwrap();
        assert_eq!(catalog.inspect("demo").unwrap().source, Some(AnalysisSource::Mined));
        assert_eq!(runtime.stats().analysis_retries, 1, "exactly one retry was needed");
    }

    /// Permanent failures (panics) are not retried: the retry budget is
    /// untouched and the job fails with the panic's message.
    #[test]
    fn panics_are_permanent_and_never_retried() {
        let runtime = JobRuntime::new(1);
        let catalog = ServiceCatalog::new()
            .with_fault(FaultPlane::parse(5, "analysis=panic").unwrap())
            .with_retry(RetryPolicy { retries: 5, backoff: Duration::from_millis(1) })
            .with_runtime(runtime.clone());
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let err = catalog.engine("demo").unwrap_err();
        let EngineError::Analysis { reason, .. } = err else {
            panic!("expected an analysis failure, got {err:?}");
        };
        assert!(reason.contains("injected fault"), "{reason}");
        assert_eq!(runtime.stats().analysis_retries, 0);
        assert!(catalog.inspect("demo").is_none());
    }

    /// Exhausting the retry budget on a persistent transient fault fails
    /// the job with the transient classification visible in the reason.
    #[test]
    fn exhausted_retries_fail_with_the_transient_tag() {
        let runtime = JobRuntime::new(1);
        let catalog = ServiceCatalog::new()
            .with_fault(FaultPlane::parse(9, "analysis=io").unwrap())
            .with_retry(RetryPolicy { retries: 2, backoff: Duration::from_millis(1) })
            .with_runtime(runtime.clone());
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let err = catalog.engine("demo").unwrap_err();
        let EngineError::Analysis { reason, .. } = err else {
            panic!("expected an analysis failure, got {err:?}");
        };
        assert!(reason.contains("transient analysis failure"), "{reason}");
        assert_eq!(runtime.stats().analysis_retries, 2, "the whole budget was spent");
    }

    #[test]
    fn prewarm_runs_the_analysis_job_on_the_runtime() {
        let runtime = JobRuntime::new(1);
        let catalog = demo_catalog().with_runtime(runtime);
        let job = catalog.prewarm("demo").unwrap();
        assert_eq!(job.kind(), JobKind::Analysis);
        assert_eq!(job.label(), "demo");
        // While the job is in flight (or just settled), inspect sees it.
        assert_eq!(job.wait(), JobState::Done);
        let info = catalog.inspect("demo").unwrap();
        assert!(info.analyzed);
        // A second prewarm of the warm service settles instantly.
        let again = catalog.prewarm("demo").unwrap();
        assert_eq!(again.state(), JobState::Done);
        assert!(matches!(
            catalog.prewarm("ghost"),
            Err(EngineError::UnknownService(_))
        ));
    }

    #[test]
    fn lookup_subscribers_share_one_analysis_job() {
        let runtime = JobRuntime::new(2);
        let catalog = demo_catalog().with_runtime(runtime);
        let ServiceLookup::Pending(first) = catalog.lookup("demo").unwrap() else {
            panic!("cold service must be pending");
        };
        // A concurrent lookup before the job settles either joins the
        // same job or (if it already published) sees Ready.
        match catalog.lookup("demo").unwrap() {
            ServiceLookup::Pending(second) => assert_eq!(second.id(), first.id()),
            ServiceLookup::Ready(_) => {}
        }
        let JobOutcome::Done(engine) = first.wait_outcome() else {
            panic!("analysis succeeds");
        };
        let direct = catalog.engine("demo").unwrap();
        assert!(std::sync::Arc::ptr_eq(&engine.inner, &direct.inner));
    }

    /// Analysis jobs report their duration, provenance, and store
    /// warnings through the catalog's telemetry plane.
    #[test]
    fn analysis_telemetry_reports_duration_provenance_and_warnings() {
        let telemetry = Telemetry::enabled();
        let runtime = JobRuntime::new(1).with_telemetry(telemetry.clone());
        let catalog = demo_catalog().with_runtime(runtime);
        catalog.engine("demo").unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("catalog.source.mined"), Some(1));
        let analyze = snap.histogram("catalog.analyze_us").expect("duration recorded");
        assert_eq!(analyze.count(), 1);
        assert_eq!(snap.counter("jobs.completed"), Some(1));

        // A quarantined corrupt artifact surfaces as a counter plus a
        // flight-recorder event (explicit install, runtime-less catalog).
        let dir = temp_dir("telemetry-warn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("demo.analysis.json"), "{ bad").unwrap();
        let catalog =
            ServiceCatalog::new().with_cache_dir(&dir).with_telemetry(telemetry.clone());
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        catalog.engine("demo").unwrap();
        assert_eq!(telemetry.snapshot().counter("catalog.cache_warnings"), Some(1));
        let events = telemetry.recorder_dump();
        let warn =
            events.iter().find(|e| e.kind == "cache.warning").expect("warning recorded");
        assert_eq!(warn.field("service"), Some("demo"));
        assert!(warn.field("warning").unwrap().contains("quarantined"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panicking analysis body settles the job `Failed` (instead of
    /// leaving subscribers blocked), unregisters the name, and frees it
    /// for re-registration. Driven through the real job body with a
    /// poisoned claim, since no well-formed input makes mining panic.
    #[test]
    fn panicking_analysis_settles_failed_and_unregisters() {
        let catalog = demo_catalog();
        let job: Job<Engine> = Job::new(JobId(77), JobKind::Analysis, "demo", Telemetry::default());
        // Claim the entry by hand, exactly as `lookup` would.
        catalog
            .entries
            .lock()
            .unwrap()
            .insert(
                "demo".into(),
                Entry::Analyzing {
                    job: job.clone(),
                    n_methods: 0,
                    n_witnesses: 0,
                },
            )
            .expect("demo was registered");
        // Feeding the body an already-claimed entry trips its internal
        // invariant — a genuine panic inside the analyze-once work.
        let poison = Entry::Analyzing {
            job: job.clone(),
            n_methods: 0,
            n_witnesses: 0,
        };
        // A subscriber joins the in-flight job before it fails.
        let ServiceLookup::Pending(subscribed) = catalog.lookup("demo").unwrap() else {
            panic!("claimed entry must be pending");
        };
        assert_eq!(subscribed.id(), job.id());
        run_analysis_job(&catalog.entries, "demo", poison, &job, &JobConfig::default());
        match subscribed.wait_outcome() {
            JobOutcome::Failed(reason) => {
                assert!(reason.contains("unanalyzed"), "panic message surfaces: {reason}");
            }
            other => panic!("expected analysis failure, got {other:?}"),
        }
        assert!(matches!(job.state(), JobState::Failed(_)));
        assert!(catalog.inspect("demo").is_none(), "failed analysis unregisters");
        // The name is reusable afterwards.
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        assert!(catalog.engine("demo").is_ok());
    }
}
