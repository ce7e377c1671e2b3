//! Helpers shared by the `synthd` integration suites: scripted stdio
//! runs and the timing-free fingerprint of one query's event stream.

use std::io::Cursor;
use std::path::PathBuf;

use apiphany_core::Engine;
use apiphany_json::{parse, Value};
use apiphany_server::{run_daemon, DaemonOptions};
use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

/// Wall-clock fields differ between any two runs of anything; everything
/// else in an event must match bit-for-bit.
const TIMING_FIELDS: [&str; 4] = ["elapsed_ms", "total_ms", "re_ms", "analyze_ms"];

fn strip_timing(v: &Value) -> Value {
    if let Some(pairs) = v.as_object() {
        return Value::obj(
            pairs
                .iter()
                .filter(|(k, _)| !TIMING_FIELDS.contains(&k.as_str()))
                .map(|(k, val)| (k.clone(), strip_timing(val))),
        );
    }
    if let Some(items) = v.as_array() {
        return Value::arr(items.iter().map(strip_timing));
    }
    v.clone()
}

pub fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// The semantic fingerprint of one query's event stream: the events
/// tagged with `id`, timing stripped, serialized.
pub fn event_stream(lines: &[Value], id: &str) -> Vec<String> {
    lines
        .iter()
        .filter(|l| str_field(l, "id") == id && !str_field(l, "event").is_empty())
        .map(|l| strip_timing(l).to_json())
        .collect()
}

/// Runs a scripted stdio conversation and returns the parsed response
/// lines.
pub fn converse(script: &str, opts: &DaemonOptions) -> Vec<Value> {
    let input = Cursor::new(script.to_string().into_bytes());
    let mut output = Vec::new();
    run_daemon(input, &mut output, opts).expect("stdio daemon i/o is in-memory");
    String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}")))
        .collect()
}

/// The reference: the same script through the stdio daemon core (what a
/// dedicated single-client run produces).
pub fn dedicated_run(script: &str, slots: usize) -> Vec<Value> {
    converse(script, &DaemonOptions { slots, ..DaemonOptions::default() })
}

/// The Fig. 7 service's saved analysis artifact, as its JSON text.
pub fn fig7_artifact_json() -> String {
    Engine::from_witnesses(fig7_library(), fig4_witnesses()).save_analysis().to_json()
}

/// A fresh, empty directory for one test of this process.
pub fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synthd-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test directory");
    dir
}

/// The `register` op by `artifact_path`, as a request line.
pub fn register_path_line(service: &str, path: &std::path::Path) -> String {
    Value::obj([
        ("op", Value::from("register")),
        ("service", Value::from(service)),
        ("artifact_path", Value::from(path.to_string_lossy().as_ref())),
    ])
    .to_json()
}
