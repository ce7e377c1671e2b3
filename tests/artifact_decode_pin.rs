//! Pins how `AnalysisArtifact::from_json` answers a seeded corpus of
//! intact, damaged, reformatted and re-sealed artifacts, built from the
//! Fig. 7 artifact and the scenario-mined Slack artifact. Each case
//! gives one line of `artifact_decode_pin.txt`, checked in beside this
//! file: `<case> ok <FNV-64 of the decoded artifact's to_json>` or
//! `<case> err <the error's Display text>`.
//!
//! The corpus covers truncations and flipped bytes at seeded offsets;
//! bodies changed and then given a correct digest again (every field of
//! every object kind removed or given the wrong JSON type, the first
//! element of every array kind given the wrong type, group ids out of
//! range or negative, short and long `loc_to_group` entries, unknown
//! location kinds, labels and severities); reordered, duplicated and
//! unknown keys, alone and with several errors at once; the
//! pretty-printed file, a file without a digest and one whose digest
//! pair is not last; digests computed over non-canonical bytes; a top
//! level that is not an object; and semantic types and witness values
//! nested past the parser's depth bound.
//!
//! Any change to which inputs decode, to what they decode to, or to an
//! error's text or precedence shows up here as a changed line. When a
//! change is *meant* to move these answers, regenerate the table with
//! `cargo test --test artifact_decode_pin -- --ignored` and review the
//! diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use apiphany_repro::core::{AnalysisArtifact, Engine};
use apiphany_repro::json::Value;
use apiphany_repro::services::Slack;
use apiphany_repro::spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_repro::spec::Service;

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("artifact_decode_pin.txt")
}

/// FNV-1a, 64-bit: the artifact digest's hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A small deterministic generator (SplitMix64) for the seeded offsets.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `body` (an object's text, ending in `}`) with the digest pair
/// `to_json` would append for it.
fn seal_text(body: &str) -> String {
    let digest = format!("{:016x}", fnv1a64(body.as_bytes()));
    format!("{},\"digest\":\"{digest}\"}}", &body[..body.len() - 1])
}

/// The compact text of `body` (a digest-less object), sealed.
fn seal(body: &Value) -> String {
    seal_text(&body.to_json())
}

/// The artifact's encoding without its digest pair.
fn body_of(artifact: &AnalysisArtifact) -> Value {
    let mut v = artifact.to_value();
    if let Value::Object(pairs) = &mut v {
        pairs.retain(|(k, _)| k != "digest");
    }
    v
}

/// One step of a path into a value.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Idx(usize),
}

fn at<'v>(v: &'v mut Value, path: &[Step]) -> &'v mut Value {
    path.iter().fold(v, |v, step| match (v, step) {
        (Value::Object(pairs), Step::Key(k)) => {
            &mut pairs.iter_mut().find(|(key, _)| key == k).expect("key on path").1
        }
        (Value::Array(items), Step::Idx(i)) => &mut items[*i],
        (v, step) => panic!("no {step:?} in {}", v.to_json()),
    })
}

fn describe(path: &[Step]) -> String {
    let parts: Vec<String> = path
        .iter()
        .map(|s| match s {
            Step::Key(k) => k.clone(),
            Step::Idx(i) => i.to_string(),
        })
        .collect();
    if parts.is_empty() {
        "top".into()
    } else {
        parts.join(".")
    }
}

/// Keys whose values the artifact stores as free-form JSON: the walk
/// below does not look inside them.
const FREE_FORM: [&str; 3] = ["args", "output", "values"];

/// The first object and the first array at each schema path of `v` (its
/// path with array indices erased), in document order.
fn schema_nodes(v: &Value) -> (Vec<Vec<Step>>, Vec<Vec<Step>>) {
    fn walk(
        v: &Value,
        path: &mut Vec<Step>,
        schema: &mut Vec<String>,
        seen: &mut Vec<(String, bool)>,
        out: &mut (Vec<Vec<Step>>, Vec<Vec<Step>>),
    ) {
        let key = schema.join(".");
        match v {
            Value::Object(pairs) => {
                if !seen.contains(&(key.clone(), true)) {
                    seen.push((key, true));
                    out.0.push(path.clone());
                }
                for (k, child) in pairs {
                    if FREE_FORM.contains(&k.as_str()) {
                        continue;
                    }
                    path.push(Step::Key(k.clone()));
                    schema.push(k.clone());
                    walk(child, path, schema, seen, out);
                    schema.pop();
                    path.pop();
                }
            }
            Value::Array(items) => {
                if !items.is_empty() && !seen.contains(&(key.clone(), false)) {
                    seen.push((key, false));
                    out.1.push(path.clone());
                }
                for (i, child) in items.iter().enumerate() {
                    path.push(Step::Idx(i));
                    schema.push("*".into());
                    walk(child, path, schema, seen, out);
                    schema.pop();
                    path.pop();
                }
            }
            _ => {}
        }
    }
    let mut out = (Vec::new(), Vec::new());
    walk(v, &mut Vec::new(), &mut Vec::new(), &mut Vec::new(), &mut out);
    out
}

/// Two values of other JSON types than `v`.
fn wrong_types(v: &Value) -> [Value; 2] {
    let scalar = if v.as_str().is_some() { Value::from(1) } else { Value::from("x") };
    let container =
        if v.as_array().is_some() { Value::empty_object() } else { Value::Array(vec![]) };
    [scalar, container]
}

/// `v` with the keys of every object reversed, recursively.
fn reversed(v: &Value) -> Value {
    match v {
        Value::Object(pairs) => {
            Value::Object(pairs.iter().rev().map(|(k, v)| (k.clone(), reversed(v))).collect())
        }
        Value::Array(items) => Value::Array(items.iter().map(reversed).collect()),
        other => other.clone(),
    }
}

fn remove_key(v: &mut Value, path: &[Step], key: &str) {
    if let Value::Object(pairs) = at(v, path) {
        pairs.retain(|(k, _)| k != key);
    }
}

/// A named input for the decoder.
type Case = (String, String);

/// Cases built by editing `body` and sealing the result.
fn edited_cases(tag: &str, body: &Value) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut edit = |name: String, change: &dyn Fn(&mut Value)| {
        let mut v = body.clone();
        change(&mut v);
        cases.push((format!("{tag}/{name}"), seal(&v)));
    };
    let (objects, arrays) = schema_nodes(body);
    for path in &objects {
        let Value::Object(pairs) = at(&mut body.clone(), path).clone() else { unreachable!() };
        for (key, value) in pairs {
            let at_key = format!("{}.{key}", describe(path));
            edit(format!("remove {at_key}"), &|v| remove_key(v, path, &key));
            for (n, wrong) in wrong_types(&value).into_iter().enumerate() {
                let mut field = path.clone();
                field.push(Step::Key(key.clone()));
                edit(format!("wrong type {n} {at_key}"), &|v| *at(v, &field) = wrong.clone());
            }
        }
    }
    for path in &arrays {
        let mut first = path.clone();
        first.push(Step::Idx(0));
        let value = at(&mut body.clone(), &first).clone();
        for (n, wrong) in wrong_types(&value).into_iter().enumerate() {
            let name = format!("wrong type {n} {}", describe(&first));
            edit(name, &|v| *at(v, &first) = wrong.clone());
        }
    }
    cases
}

fn key(k: &str) -> Step {
    Step::Key(k.into())
}

/// The first path under `v` at which `pick` holds, in document order.
fn find(v: &Value, pick: &dyn Fn(&Value) -> bool) -> Option<Vec<Step>> {
    if pick(v) {
        return Some(Vec::new());
    }
    let children: Vec<(Step, &Value)> = match v {
        Value::Object(pairs) => pairs.iter().map(|(k, c)| (key(k), c)).collect(),
        Value::Array(items) => items.iter().enumerate().map(|(i, c)| (Step::Idx(i), c)).collect(),
        _ => return None,
    };
    children.into_iter().find_map(|(step, child)| {
        find(child, pick).map(|mut rest| {
            rest.insert(0, step);
            rest
        })
    })
}

/// Targeted edits: ranges, entry lengths, unknown names, duplicates,
/// unknown keys and several errors at once.
fn targeted_cases(tag: &str, body: &Value) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut edit = |name: &str, change: &dyn Fn(&mut Value)| {
        let mut v = body.clone();
        change(&mut v);
        cases.push((format!("{tag}/{name}"), seal(&v)));
    };
    let semlib = vec![key("semlib")];
    let mut methods = semlib.clone();
    methods.push(key("methods"));
    let sem_group = find(at(&mut body.clone(), &methods), &|v| v.get("group").is_some())
        .map(|p| [methods.clone(), p].concat())
        .expect("a group reference in the method signatures");
    for (name, id) in [("group id 9999", Value::from(9_999)), ("group id -1", Value::from(-1))] {
        edit(&format!("method {name}"), &|v| at(v, &sem_group).set("group", id.clone()));
        let entry = vec![key("semlib"), key("loc_to_group"), Step::Idx(0), Step::Idx(1)];
        edit(&format!("loc_to_group {name}"), &|v| *at(v, &entry) = id.clone());
    }
    let entry = vec![key("semlib"), key("loc_to_group"), Step::Idx(0)];
    edit("loc_to_group entry of length 1", &|v| {
        if let Value::Array(items) = at(v, &entry) {
            items.truncate(1);
        }
    });
    edit("loc_to_group entry of length 3", &|v| {
        if let Value::Array(items) = at(v, &entry) {
            items.push(Value::from(0));
        }
    });
    let loc = [entry.clone(), vec![Step::Idx(0)]].concat();
    edit("unknown location kind", &|v| at(v, &loc).set("kind", Value::from("bogus")));
    let label_path = [loc.clone(), vec![key("path")]].concat();
    edit("unknown location label", &|v| {
        *at(v, &label_path) = Value::arr([Value::from("bogus")]);
    });
    edit("named label not a string", &|v| {
        *at(v, &label_path) = Value::arr([Value::obj([("named", Value::from(5))])]);
    });
    edit("label object without named", &|v| {
        *at(v, &label_path) = Value::arr([Value::obj([("other", Value::from("x"))])]);
    });
    let diagnostic = |severity: &str| {
        Value::obj([
            ("code", Value::from("AP999")),
            ("severity", Value::from(severity)),
            ("location", Value::from("here")),
            ("message", Value::from("pinned")),
        ])
    };
    edit("unknown severity dropped", &|v| {
        v.set("diagnostics", Value::arr([diagnostic("fatal"), diagnostic("warning")]));
    });
    edit("diagnostics of unknown shape dropped", &|v| {
        let mut no_code = diagnostic("error");
        if let Value::Object(pairs) = &mut no_code {
            pairs.remove(0);
        }
        v.set(
            "diagnostics",
            Value::arr([
                Value::from(3),
                no_code,
                Value::obj([("code", Value::from(1))]),
                diagnostic("error"),
            ]),
        );
    });
    edit("diagnostics not an array", &|v| v.set("diagnostics", Value::from("x")));
    edit("stats null", &|v| v.set("stats", Value::Null));
    edit("stats negative count", &|v| at(v, &[key("stats")]).set("rounds", Value::from(-1)));
    edit("stats float count", &|v| at(v, &[key("stats")]).set("rounds", Value::Float(2.0)));
    edit("stats not an object", &|v| v.set("stats", Value::from(7)));
    edit("service null", &|v| v.set("service", Value::Null));
    edit("service not a string", &|v| v.set("service", Value::from(7)));
    edit("format unknown", &|v| v.set("format", Value::from("apiphany-analysis/v0")));
    edit("reordered top-level keys", &|v| {
        if let Value::Object(pairs) = v {
            pairs.reverse();
        }
    });
    edit("reordered keys everywhere", &|v| *v = reversed(v));
    edit("duplicated good semlib after", &|v| {
        let good = v.get("semlib").unwrap().clone();
        if let Value::Object(pairs) = v {
            pairs.push(("semlib".into(), good));
        }
    });
    edit("broken semlib after a good one", &|v| {
        if let Value::Object(pairs) = v {
            pairs.push(("semlib".into(), Value::from(1)));
        }
    });
    edit("broken semlib before a good one", &|v| {
        if let Value::Object(pairs) = v {
            pairs.insert(0, ("semlib".into(), Value::from(1)));
        }
    });
    edit("wrong format after the right one", &|v| {
        if let Value::Object(pairs) = v {
            pairs.push(("format".into(), Value::from("nope")));
        }
    });
    edit("duplicated key in a location", &|v| {
        if let Value::Object(pairs) = at(v, &loc) {
            pairs.push(("kind".into(), Value::from("bogus")));
        }
    });
    edit("unknown keys everywhere", &|v| *v = with_unknown_keys(v));
    // Several errors at once, in an order today's checks do not read them.
    let witness = vec![key("witnesses"), Step::Idx(0)];
    let library = vec![key("semlib"), key("library")];
    edit("witness and semlib errors, witnesses first", &|v| {
        remove_key(v, &witness, "method");
        remove_key(v, &library, "name");
        *v = reversed(v);
    });
    edit("stats and loc errors, reordered", &|v| {
        at(v, &[key("stats")]).set("rounds", Value::from("x"));
        at(v, &loc).set("kind", Value::from("bogus"));
        *v = reversed(v);
    });
    edit("range error before a shape error", &|v| {
        if let Value::Array(entries) = at(v, &[key("semlib"), key("loc_to_group")]) {
            if let Some(Value::Array(pair)) = entries.get_mut(0) {
                pair[1] = Value::from(9_999);
            }
            if let Some(Value::Array(pair)) = entries.get_mut(1) {
                pair.truncate(1);
            }
        }
    });
    edit("loc_to_group before groups with a range error", &|v| {
        let group = [key("semlib"), key("loc_to_group"), Step::Idx(0), Step::Idx(1)];
        *at(v, &group) = Value::from(9_999);
        let flipped = reversed(at(v, &semlib));
        *at(v, &semlib) = flipped;
    });
    edit("signature range error and missing object_bank", &|v| {
        at(v, &sem_group).set("group", Value::from(9_999));
        remove_key(v, &semlib, "object_bank");
    });
    edit("record field errors in every field", &|v| {
        let fields = vec![key("semlib"), key("objects"), Step::Idx(0), key("fields"), Step::Idx(0)];
        *at(v, &fields) = Value::obj([
            ("ty", Value::from(5)),
            ("optional", Value::from("no")),
            ("name", Value::from(3)),
        ]);
    });
    edit("syntactic type with every key", &|v| {
        let ty = vec![key("semlib"), key("library"), key("methods"), Step::Idx(0), key("response")];
        *at(v, &ty) = Value::obj([
            ("record", Value::from(1)),
            ("array", Value::from(2)),
            ("object", Value::from("Shadow")),
        ]);
    });
    edit("semantic type with every key", &|v| {
        let ty = vec![key("semlib"), key("methods"), Step::Idx(0), key("response")];
        *at(v, &ty) = Value::obj([
            ("record", Value::from(1)),
            ("array", Value::from(2)),
            ("object", Value::from(3)),
            ("group", Value::from(0)),
        ]);
    });
    cases
}

/// `v` with an unknown key, holding nested JSON, added to every object
/// outside the free-form values.
fn with_unknown_keys(v: &Value) -> Value {
    match v {
        Value::Object(pairs) => {
            let mut out: Vec<(String, Value)> = pairs
                .iter()
                .map(|(k, c)| {
                    let free = FREE_FORM.contains(&k.as_str());
                    let c = if free { c.clone() } else { with_unknown_keys(c) };
                    (k.clone(), c)
                })
                .collect();
            out.insert(
                pairs.len() / 2,
                (
                    "zz_unknown".into(),
                    Value::obj([("deep", Value::arr([Value::Null, Value::from(1.5)]))]),
                ),
            );
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(with_unknown_keys).collect()),
        other => other.clone(),
    }
}

/// Cases built on the artifact's text: truncations, flips, layouts,
/// digests and nesting.
fn text_cases(tag: &str, artifact: &AnalysisArtifact, seed: u64) -> Vec<Case> {
    let text = artifact.to_json();
    let body = body_of(artifact);
    let body_text = body.to_json();
    let mut rng = Seeded(seed);
    let mut cases = vec![(format!("{tag}/intact"), text.clone())];
    let mut push = |name: String, input: String| cases.push((format!("{tag}/{name}"), input));
    for _ in 0..8 {
        let mut cut = rng.below(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        push(format!("truncated at {cut}"), text[..cut].to_string());
    }
    for _ in 0..8 {
        // A flipped lowercase letter keeps the text UTF-8 and usually
        // valid JSON, so most flips reach the digest check.
        let start = rng.below(text.len());
        let letter = text[start..].find(|c: char| c.is_ascii_lowercase());
        let Some(at) = letter.map(|i| start + i) else {
            continue;
        };
        let mut bytes = text.clone().into_bytes();
        bytes[at] = if bytes[at] == b'z' { b'a' } else { bytes[at] + 1 };
        push(format!("flipped byte {at}"), String::from_utf8(bytes).unwrap());
    }
    let full = artifact.to_value();
    push("pretty-printed".into(), full.to_json_pretty());
    push("trailing newline".into(), format!("{text}\n"));
    push("leading space".into(), format!(" {text}"));
    push("no digest".into(), body_text.clone());
    let digest = full.get("digest").unwrap().clone();
    let mut first = body.clone();
    if let Value::Object(pairs) = &mut first {
        pairs.insert(0, ("digest".into(), digest.clone()));
    }
    push("digest pair first".into(), first.to_json());
    let mut twice = full.clone();
    if let Value::Object(pairs) = &mut twice {
        pairs.push(("digest".into(), Value::from("0000000000000000")));
    }
    push("right digest then a wrong one".into(), twice.to_json());
    let mut wrong_first = body.clone();
    if let Value::Object(pairs) = &mut wrong_first {
        pairs.push(("digest".into(), Value::from("0000000000000000")));
        pairs.push(("digest".into(), digest.clone()));
    }
    push("wrong digest then the right one".into(), wrong_first.to_json());
    let stored = digest.as_str().unwrap();
    push("uppercase digest".into(), text.replace(stored, &stored.to_uppercase()));
    push("short digest".into(), text.replace(stored, &stored[..8]));
    push("digest not a string".into(), {
        let mut v = body.clone();
        v.set("digest", Value::from(5));
        v.to_json()
    });
    push("digest of the pretty body over its own bytes".into(), seal_text(&body.to_json_pretty()));
    let slash = body_text.replacen(
        "\"format\":\"apiphany-analysis/v1\"",
        "\"format\":\"apiphany-analysis\\/v1\"",
        1,
    );
    push("escaped slash under a raw digest".into(), seal_text(&slash));
    push("escaped slash under the canonical digest".into(), {
        let canonical = seal_text(&body_text);
        let digest_pair = &canonical[body_text.len() - 1..];
        format!("{}{digest_pair}", &slash[..slash.len() - 1])
    });
    let unicode = body_text.replacen("\"format\":\"a", "\"format\":\"\\u0061", 1);
    push("unicode escape under a raw digest".into(), seal_text(&unicode));
    push("trailing garbage".into(), format!("{text}x"));
    push("trailing garbage after a shape error".into(), {
        let mut v = body.clone();
        remove_key(&mut v, &[key("semlib")], "library");
        format!("{}x", seal(&v))
    });
    push("bad format, bad digest and a shape error".into(), {
        let mut v = body.clone();
        v.set("format", Value::from("v0"));
        remove_key(&mut v, &[key("semlib")], "library");
        let sealed = seal(&v);
        sealed.replace("\"digest\":\"", "\"digest\":\"f")
    });
    push("good format after a shape error, bad digest".into(), {
        let mut v = body.clone();
        remove_key(&mut v, &[key("semlib")], "library");
        let sealed = seal(&v);
        sealed.replace("\"digest\":\"", "\"digest\":\"f")
    });
    for top in ["[]", "\"artifact\"", "null", "17", "{}", "[1,2]"] {
        push(format!("top level {top}"), top.to_string());
    }
    push("empty".into(), String::new());
    // Semantic types nested around and far past the depth bound.
    let mut placeholder = body.clone();
    at(&mut placeholder, &[key("semlib"), key("methods"), Step::Idx(0)])
        .set("response", Value::from("@NEST@"));
    let frame = placeholder.to_json();
    for depth in [10, 194, 195, 196, 197, 10_000] {
        let nest = format!("{}{{\"group\":0}}{}", "{\"array\":".repeat(depth), "}".repeat(depth));
        let input = seal_text(&frame.replace("\"@NEST@\"", &nest));
        push(format!("semantic type nested {depth} deep"), input);
    }
    let mut placeholder = body.clone();
    at(&mut placeholder, &[key("witnesses"), Step::Idx(0)]).set("output", Value::from("@NEST@"));
    let frame = placeholder.to_json();
    for depth in [196, 197, 10_000] {
        let nest = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let input = seal_text(&frame.replace("\"@NEST@\"", &nest));
        push(format!("witness output nested {depth} deep"), input);
    }
    cases
}

fn corpus() -> Vec<Case> {
    let fig7 =
        Engine::from_witnesses(fig7_library(), fig4_witnesses()).save_analysis().named("fig7");
    let mut svc = Slack::new();
    let scenario = svc.scenario();
    let slack =
        Engine::from_witnesses(svc.library().clone(), scenario).save_analysis().named("slack");
    let mut cases = text_cases("fig7", &fig7, 7);
    let fig7_body = body_of(&fig7);
    cases.extend(edited_cases("fig7", &fig7_body));
    cases.extend(targeted_cases("fig7", &fig7_body));
    cases.extend(text_cases("slack", &slack, 11));
    let slack_body = body_of(&slack);
    cases.extend(targeted_cases("slack", &slack_body));
    cases
}

/// The table the current decoder produces for the corpus.
fn observed_table() -> String {
    let mut out = String::new();
    for (name, input) in corpus() {
        match AnalysisArtifact::from_json(&input) {
            Ok(artifact) => {
                writeln!(out, "{name} ok {:016x}", fnv1a64(artifact.to_json().as_bytes())).unwrap()
            }
            Err(e) => writeln!(out, "{name} err {e}").unwrap(),
        }
    }
    out
}

#[test]
fn artifact_decoding_matches_the_pinned_table() {
    let expected = std::fs::read_to_string(table_path()).expect("pinned table is checked in");
    let observed = observed_table();
    let mismatches: Vec<String> = expected
        .lines()
        .zip(observed.lines())
        .filter(|(e, o)| e != o)
        .take(10)
        .map(|(e, o)| format!("  expected `{e}`\n  observed `{o}`"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.lines().count() == observed.lines().count(),
        "decoding diverged from the pinned table ({} expected lines, {} observed); first \
         differences:\n{}",
        expected.lines().count(),
        observed.lines().count(),
        mismatches.join("\n")
    );
}

/// Rewrites the pinned table from the current decoder.
#[test]
#[ignore = "regenerates tests/artifact_decode_pin.txt; run on purpose and review the diff"]
fn regenerate_artifact_decode_pin_table() {
    std::fs::write(table_path(), observed_table()).expect("write pinned table");
}
