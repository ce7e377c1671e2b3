//! Helpers shared by the `synthd` integration suites: scripted stdio
//! runs and the timing-free fingerprint of one query's event stream.

use std::io::Cursor;

use apiphany_json::{parse, Value};
use apiphany_server::{run_daemon, DaemonOptions};

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
