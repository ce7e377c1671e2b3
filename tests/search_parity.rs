//! Serial/parallel parity of the TTN search on a real service: benchmark
//! 1.1 (`emails_of_channel`) on the full Slack net, every deepening level
//! up to 10 firings, at 1, 2 and 4 threads.
//!
//! The parallel search must emit exactly the serial path stream, order
//! included, and — because every worker probes and fills one shared
//! dead-set — visit about as many nodes as the serial search: at most
//! [`MAX_NODE_RATIO`] times its count. A team whose workers stopped
//! consulting the shared dead-set would still emit the serial stream but
//! re-prove subtrees already proved dead, about doubling the nodes on
//! this workload; only the node ratio catches that.

use apiphany_repro::benchmarks::{default_analyze_config, prepare_api, Api};
use apiphany_repro::core::Engine;
use apiphany_repro::ttn::{
    enumerate_search, query_markings, CancelToken, Firing, SearchConfig, SearchEvent,
    SearchOutcome, SearchStats,
};

/// Benchmark 1.1 of Table 2.
const QUERY: &str = "{ channel_name: objs_conversation.name } → [objs_user_profile.email]";

/// Deep enough that the cost-to-go bound leaves ~10^5 nodes, so the
/// worker team has real work to share.
const MAX_LEN: usize = 10;

/// Re-exploration from racing dead-set inserts and frontier stitching
/// may cost a parallel run this much over the serial node count.
const MAX_NODE_RATIO: f64 = 1.10;

/// The emitted paths, the outcome and the counters of one search of the
/// full net (not the engine's pruned live core) at `threads`.
fn search(engine: &Engine, threads: usize) -> (Vec<Vec<Firing>>, SearchOutcome, SearchStats) {
    let query = engine.query(QUERY).expect("benchmark 1.1 query parses");
    let net = engine.synthesizer().net();
    let (init, fin) = query_markings(net, &query).expect("query places are in the net");
    let cfg = SearchConfig { max_len: MAX_LEN, threads, ..SearchConfig::default() };
    let mut paths = Vec::new();
    let report = enumerate_search(net, &init, &fin, &cfg, &CancelToken::new(), &mut |event| {
        if let SearchEvent::Path(p) = event {
            paths.push(p.to_vec());
        }
        true
    });
    (paths, report.outcome, report.stats)
}

#[test]
fn parallel_search_keeps_the_serial_stream_and_node_count_on_slack() {
    let engine = prepare_api(Api::Slack, &default_analyze_config()).engine;
    let (serial, serial_outcome, serial_stats) = search(&engine, 1);
    assert_eq!(serial_outcome, SearchOutcome::Exhausted);
    assert!(!serial.is_empty(), "benchmark 1.1 has paths within {MAX_LEN} firings");
    for threads in [2, 4] {
        let (paths, outcome, stats) = search(&engine, threads);
        assert_eq!(outcome, serial_outcome, "{threads} threads");
        // Report the first divergence instead of two 10^3-path dumps.
        let first_difference = serial.iter().zip(&paths).position(|(s, p)| s != p);
        assert!(
            paths.len() == serial.len() && first_difference.is_none(),
            "{threads} threads: {} paths against serial's {}, first differing path at {:?}",
            paths.len(),
            serial.len(),
            first_difference
        );
        let ratio = stats.nodes as f64 / serial_stats.nodes as f64;
        assert!(
            ratio <= MAX_NODE_RATIO,
            "{threads} threads visited {} nodes, {ratio:.3}× serial's {}: the workers are not \
             sharing dead verdicts",
            stats.nodes,
            serial_stats.nodes
        );
        assert!(
            stats.dead_shared_hits > 0,
            "{threads} threads: no worker reused another's dead verdict"
        );
    }
}
