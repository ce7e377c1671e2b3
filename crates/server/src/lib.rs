//! `synthd` — the APIphany serving daemon.
//!
//! A long-lived process speaking a JSON-lines protocol (one JSON object
//! per line, both directions) over stdin/stdout: register services into
//! a [`ServiceCatalog`](apiphany_core::ServiceCatalog), open streaming
//! type queries, and cancel them mid-flight. This is the ROADMAP's
//! "serve many" front door: one daemon, many services, many concurrent
//! queries — analysis runs once per service (and persists across
//! restarts with `--cache-dir`), synthesis streams.
//!
//! Every unit of work is a job on one shared
//! [`JobRuntime`](apiphany_core::JobRuntime): synthesis sessions are
//! `Search` jobs submitted by the
//! [`Scheduler`](apiphany_core::Scheduler), a service's analyze-once
//! phase is an `Analysis` job, and the two kinds share the pool's slots
//! fairly (mining can never occupy every slot). **One serving loop**
//! blocks on one channel that every source of work posts to — input,
//! analysis-job continuations and transitions, and each live session's
//! wake hook — and handles messages in posting order. Nothing blocks
//! it: requests are decoded on the thread they arrive on (parsing, and
//! reading and decoding a registered artifact file), and a cold
//! service's first query enqueues behind that service's analysis job
//! and is submitted by the job's continuation the moment it settles, so
//! warm queries keep streaming while a large service mines.
//!
//! # The protocol, by transcript
//!
//! Requests (`→`) and responses/events (`←`), one JSON object per line:
//!
//! ```text
//! → {"op":"register","service":"demo","builtin":"fig7","prewarm":true}
//! ← {"ok":true,"op":"register","service":{"name":"demo","analyzed":false,...},
//!    "job":{"id":1,"kind":"analysis","state":"queued"}}
//! → {"op":"query","id":"q1","service":"demo",
//!    "inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]",
//!    "depth":7,"top_k":5}
//! ← {"ok":true,"op":"query","id":"q1","analysis":"demo"}
//! ← {"event":"analysis_started","service":"demo","job":1}
//! ← {"event":"analysis_ready","service":"demo","job":1,"analyze_ms":3,
//!    "stats":{"n_witnesses":5,"n_covered_methods":3,"rounds":0}}
//! ← {"event":"depth","id":"q1","depth":1}
//! ← ...
//! ← {"event":"candidate","id":"q1","r_orig":1,"r_re_now":1,"cost":29.0,...}
//! ← {"event":"candidate","id":"q1","r_orig":2,"r_re_now":1,"cost":25.0,...}
//! ← {"event":"finished","id":"q1","outcome":"exhausted","n_candidates":2,
//!    "ranked":[{"rank":1,"r_orig":2,...},{"rank":2,"r_orig":1,...}]}
//! → {"op":"status"}
//! ← {"ok":true,"op":"status",
//!    "runtime":{"slots":2,"queued_search":0,"queued_analysis":0,...},
//!    "services":[{"name":"demo","analyzed":true,"analysis":{...},...}],
//!    "queries":[]}
//! → {"op":"cancel","id":"q2"}
//! ← {"ok":true,"op":"cancel","id":"q2","active":true}
//! ← {"event":"finished","id":"q2","outcome":"cancelled",...}
//! ```
//!
//! Further ops: `list`, `inspect`, `evict`, `shutdown`. Registration
//! sources: `"builtin"` (`fig7`, `slack`, `stripe`, `square`),
//! `"artifact"` (inline analysis artifact), `"artifact_path"` (artifact
//! file), or `"library"` + `"witnesses"` (raw analysis inputs). Events
//! of concurrent queries interleave, tagged by `id`; each query's own
//! event sequence is identical to a dedicated
//! [`Engine::session`](apiphany_core::Engine::session) run. An
//! `analysis_failed` event (failure or cancellation) is terminal for its
//! service's job; a query cancelled while still queued behind an
//! analysis terminates immediately with an empty cancelled `finished`.
//! On stdin EOF the daemon lets every open stream finish; `shutdown`
//! cancels queued jobs, drains running ones, and emits a terminal event
//! for every in-flight id before the process exits.
//!
//! # Network serving
//!
//! The same ops are served to many concurrent connections over Unix or
//! TCP sockets by [`run_net_daemon`]: length-prefixed JSON frames (see
//! [`apiphany_net`]), a `hello` frame on connect, per-client query-id
//! namespaces, admission control with structured `overloaded` errors,
//! and a graceful drain on SIGTERM or `shutdown` — see the
//! [`netd`](run_net_daemon) docs. Stdio and sockets are two front ends
//! of the same loop; what differs between their protocols lives in the
//! front ends.
//!
//! The binary lives in `src/bin/synthd.rs`
//! (`cargo run --release --bin synthd -- --slots 4 --cache-dir .cache`,
//! add `--listen unix:/tmp/synthd.sock` for socket serving);
//! [`run_daemon`] is the embeddable stdio front end, driven by
//! integration tests over in-memory conversations.

mod daemon;
mod netd;
pub mod proto;

pub use daemon::{run_daemon, DaemonOptions, DaemonSummary};
pub use netd::{run_net_daemon, NetOptions, NetSummary};

use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_spec::{Library, Service, Witness};

/// The names [`builtin`] accepts.
pub const BUILTIN_NAMES: [&str; 4] = ["fig7", "slack", "stripe", "square"];

/// The analysis inputs (library + scenario witnesses) of a bundled
/// service: the paper's Fig. 7 running example or one of the three
/// simulated evaluation APIs.
pub fn builtin(name: &str) -> Option<(Library, Vec<Witness>)> {
    match name {
        "fig7" => Some((fig7_library(), fig4_witnesses())),
        "slack" => {
            let mut svc = apiphany_services::Slack::new();
            let witnesses = svc.scenario();
            Some((svc.library().clone(), witnesses))
        }
        "stripe" => {
            let mut svc = apiphany_services::Stripe::new();
            let witnesses = svc.scenario();
            Some((svc.library().clone(), witnesses))
        }
        "square" => {
            let mut svc = apiphany_services::Square::new();
            let witnesses = svc.scenario();
            Some((svc.library().clone(), witnesses))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_resolves() {
        for name in BUILTIN_NAMES {
            let (library, witnesses) = builtin(name).unwrap();
            assert!(library.stats().n_methods > 0, "{name}");
            assert!(!witnesses.is_empty(), "{name}");
        }
        assert!(builtin("sqare").is_none(), "the old spelling is not a builtin");
    }
}
