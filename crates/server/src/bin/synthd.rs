//! The `synthd` binary: the serving daemon, over stdin/stdout or sockets.
//!
//! ```sh
//! # stdio (the default): one JSON object per line, both directions.
//! cargo run --release --bin synthd -- --slots 4 --cache-dir .synthd-cache
//!
//! # sockets: length-prefixed JSON frames, many concurrent clients.
//! cargo run --release --bin synthd -- --listen unix:/tmp/synthd.sock
//! ```
//!
//! See the `apiphany_server` crate docs for the protocol.

use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use apiphany_core::{FaultKind, FaultPlane, FaultPoint};
use apiphany_net::{
    install_term_flag, ListenAddr, Listener, NetConfig, WriteFault, WriteFaultHook,
};
use apiphany_server::{run_daemon, run_net_daemon, NetOptions};

/// Adapts the seeded fault plane into the transport's write-fault hook.
/// `panic` has no meaning for a writer thread, so it degrades to an
/// injected I/O error (a structured disconnect, not a dead thread).
fn write_fault_hook(plane: &FaultPlane) -> Option<WriteFaultHook> {
    if !plane.is_enabled() {
        return None;
    }
    let plane = plane.clone();
    Some(Arc::new(move || match plane.hit(FaultPoint::FrameWrite) {
        None => None,
        Some(FaultKind::Stall) => Some(WriteFault::Stall(plane.stall())),
        Some(FaultKind::TornWrite) => Some(WriteFault::Torn),
        Some(FaultKind::IoError | FaultKind::Panic) => Some(WriteFault::Error(
            apiphany_core::fault::injected_io_error(FaultPoint::FrameWrite),
        )),
    }))
}

fn main() -> ExitCode {
    let mut opts = NetOptions::default();
    let mut listen: Vec<ListenAddr> = Vec::new();
    // Transport tuning; the fault hook is added once the plane is known.
    let mut net = NetConfig::default();
    let mut fault_seed = 0u64;
    let mut fault_spec: Option<String> = None;
    let mut metrics_every: Option<Duration> = None;
    opts.auth_token = std::env::var("APIPHANY_AUTH_TOKEN").ok().filter(|t| !t.is_empty());
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--slots" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => {
                    opts.daemon.slots = n;
                    i += 1;
                }
                _ => return usage("--slots needs a positive count"),
            },
            "--cache-dir" => match args.get(i + 1) {
                Some(dir) => {
                    opts.daemon.cache_dir = Some(dir.into());
                    i += 1;
                }
                None => return usage("--cache-dir needs a path"),
            },
            "--listen" => match args.get(i + 1).map(|s| ListenAddr::parse(s)) {
                Some(Ok(addr)) => {
                    listen.push(addr);
                    i += 1;
                }
                Some(Err(message)) => return usage(&message),
                None => return usage("--listen needs unix:<path> or tcp:<host>:<port>"),
            },
            "--max-frame" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => {
                    net.max_frame = n;
                    i += 1;
                }
                _ => return usage("--max-frame needs a positive byte count"),
            },
            "--max-client-live" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => {
                    opts.max_client_live = n;
                    i += 1;
                }
                _ => return usage("--max-client-live needs a positive count"),
            },
            "--max-client-waiting" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => {
                    opts.max_client_waiting = n;
                    i += 1;
                }
                _ => return usage("--max-client-waiting needs a positive count"),
            },
            "--high-water" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => {
                    opts.search_high_water = n;
                    i += 1;
                }
                _ => return usage("--high-water needs a positive count"),
            },
            "--drain-secs" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => {
                    opts.drain_grace = Duration::from_secs(n);
                    i += 1;
                }
                _ => return usage("--drain-secs needs a number of seconds"),
            },
            "--retries" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) => {
                    opts.daemon.retry.retries = n;
                    i += 1;
                }
                _ => return usage("--retries needs a non-negative count"),
            },
            "--backoff-ms" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => {
                    opts.daemon.retry.backoff = Duration::from_millis(n);
                    i += 1;
                }
                _ => return usage("--backoff-ms needs a number of milliseconds"),
            },
            "--write-deadline-ms" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n > 0 => {
                    net.write_deadline = Duration::from_millis(n);
                    i += 1;
                }
                _ => return usage("--write-deadline-ms needs a positive number of milliseconds"),
            },
            "--auth-token" => match args.get(i + 1) {
                Some(token) if !token.is_empty() => {
                    opts.auth_token = Some(token.clone());
                    i += 1;
                }
                _ => return usage("--auth-token needs a non-empty secret"),
            },
            "--metrics-every" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n > 0 => {
                    metrics_every = Some(Duration::from_secs(n));
                    i += 1;
                }
                _ => return usage("--metrics-every needs a positive number of seconds"),
            },
            "--fault-seed" => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => {
                    fault_seed = n;
                    i += 1;
                }
                _ => return usage("--fault-seed needs an integer seed"),
            },
            "--fault" => match args.get(i + 1) {
                Some(spec) => {
                    fault_spec = Some(spec.clone());
                    i += 1;
                }
                None => {
                    return usage(
                        "--fault needs a schedule like 'artifact_write=torn,frame_write=stall:1/4'",
                    )
                }
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if let Some(spec) = &fault_spec {
        match FaultPlane::parse(fault_seed, spec) {
            Ok(plane) => {
                eprintln!("synthd: fault injection enabled (seed {fault_seed}, '{spec}')");
                opts.daemon.fault = plane;
            }
            Err(message) => return usage(&message),
        }
    }
    if let Some(every) = metrics_every {
        // Detached reporter: one JSON metrics line on stderr per period.
        // The registry handles are lock-cheap, so reading concurrently
        // with the serving loop never blocks it.
        let telemetry = opts.daemon.telemetry.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            eprintln!("synthd: metrics {}", telemetry.snapshot_value().to_json());
        });
    }

    if listen.is_empty() {
        let stdin = BufReader::new(std::io::stdin());
        let mut stdout = std::io::stdout().lock();
        return match run_daemon(stdin, &mut stdout, &opts.daemon) {
            Ok(summary) => {
                eprintln!(
                    "synthd: served {} requests, streamed {} events",
                    summary.requests, summary.events
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("synthd: i/o error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Socket mode: bind every listener before serving so a bad address
    // fails fast, then drain gracefully on SIGTERM/SIGINT or `shutdown`.
    let term = install_term_flag();
    let mut listeners = Vec::with_capacity(listen.len());
    for addr in &listen {
        match Listener::bind(addr) {
            Ok(listener) => {
                eprintln!("synthd: listening on {}", listener.local_addr());
                listeners.push(listener);
            }
            Err(e) => {
                eprintln!("synthd: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    net.write_fault = write_fault_hook(&opts.daemon.fault);
    match run_net_daemon(listeners, net, &opts, &term) {
        Ok(summary) => {
            eprintln!(
                "synthd: served {} clients, {} requests, {} events, shed {}, stalled {}",
                summary.clients,
                summary.daemon.requests,
                summary.daemon.events,
                summary.shed,
                summary.stalled
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("synthd: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("synthd: {error}");
    }
    eprintln!(
        "usage: synthd [--slots N] [--cache-dir PATH]\n\
         \x20             [--listen unix:<path>|tcp:<host>:<port>]...\n\
         \x20             [--max-frame BYTES] [--max-client-live N]\n\
         \x20             [--max-client-waiting N] [--high-water N] [--drain-secs S]\n\
         \x20             [--retries N] [--backoff-ms MS] [--write-deadline-ms MS]\n\
         \x20             [--auth-token SECRET] [--metrics-every SECS]\n\
         \x20             [--fault-seed N] [--fault SPEC]\n\
         Observability: every mode serves the `metrics` op (a JSON\n\
         snapshot of the counters/gauges/histograms) and `dump-recorder`\n\
         (the flight recorder's recent structured events); with\n\
         --metrics-every a snapshot line is also printed to stderr each\n\
         period. --auth-token (or APIPHANY_AUTH_TOKEN) requires socket\n\
         clients to present the shared secret in their first frame's\n\
         \"auth\" field; stdio is unaffected.\n\
         Robustness: transient analysis failures are retried N times with\n\
         exponential backoff; clients that stop reading are disconnected\n\
         after the write deadline. --fault enables deterministic fault\n\
         injection from a seeded schedule, e.g.\n\
         \x20 --fault-seed 7 --fault 'artifact_write=torn:1/4,frame_write=stall'\n\
         (points: artifact_read, artifact_write, frame_write, analysis,\n\
         worker_start; kinds: io, torn, panic, stall).\n\
         Without --listen, speaks the JSON-lines protocol on stdin/stdout:\n\
         register (with optional prewarm), query, cancel, list, inspect,\n\
         evict, status, shutdown. With --listen (repeatable), serves the\n\
         same ops to many concurrent clients over length-prefixed JSON\n\
         frames, with per-client quotas and a graceful drain on SIGTERM.\n\
         See the apiphany_server crate docs (README \"Serving\" and\n\
         \"Network serving\" sections) for the ops and event streams."
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
