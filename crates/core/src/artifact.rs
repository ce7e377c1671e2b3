//! The analysis artifact: the serialized output of the once-per-API
//! analysis phase.
//!
//! The analysis phase (paper §4 / Appendix D) is the expensive half of the
//! pipeline — it talks to a sandboxed service for many rounds. Its output,
//! the mined semantic library plus the witness set, is everything a
//! serving process needs to answer queries. An [`AnalysisArtifact`]
//! packages the two (plus the run's statistics) as JSON, so analysis runs
//! once and the artifact is shipped to any number of synthesis processes:
//!
//! ```
//! use apiphany_core::Engine;
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//!
//! let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
//! let json = engine.save_analysis().to_json();
//! let reloaded = Engine::load_analysis(&json).unwrap();
//! assert_eq!(reloaded.semlib().n_groups(), engine.semlib().n_groups());
//! ```

use apiphany_analysis::Diagnostic;
use apiphany_json::{parse, write_json_string, Value};
use apiphany_mining::{AnalyzeStats, SemLib};
use apiphany_spec::{witnesses_from_json, witnesses_to_json, DecodeError, Witness};

use crate::error::EngineError;

/// The format tag embedded in every serialized artifact, checked on load.
const FORMAT: &str = "apiphany-analysis/v1";

/// The reusable product of one analysis run: the mined semantic library,
/// the witness set retrospective execution replays, and (when the analysis
/// ran against a live service) the run statistics.
#[derive(Debug, Clone)]
pub struct AnalysisArtifact {
    /// The mined semantic library (paper Fig. 8's `Λ̂`).
    pub semlib: SemLib,
    /// The collected witness set `W`.
    pub witnesses: Vec<Witness>,
    /// Statistics of the analysis run, when one was performed.
    pub stats: Option<AnalyzeStats>,
    /// The service this analysis belongs to, when known — stamped by the
    /// [`crate::ServiceCatalog`] so artifacts found on disk can be
    /// re-registered under their original name.
    pub service: Option<String>,
    /// The spec/TTN lint diagnostics computed at analysis time, so
    /// serving processes can surface them without re-running the lints.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisArtifact {
    /// The same artifact stamped with a service name.
    pub fn named(mut self, service: impl Into<String>) -> AnalysisArtifact {
        self.service = Some(service.into());
        self
    }

    /// Encodes the artifact to a JSON value, stamped with its identity
    /// [`AnalysisArtifact::digest`] so a torn or bit-rotted file is
    /// detected on load instead of silently decoded.
    pub fn to_value(&self) -> Value {
        let mut v = self.body_value();
        let digest = hex_digest(v.to_json().as_bytes());
        if let Value::Object(pairs) = &mut v {
            pairs.push(("digest".into(), Value::from(digest.as_str())));
        }
        v
    }

    /// The serialized body *without* the digest pair — the bytes the
    /// digest is computed over.
    fn body_value(&self) -> Value {
        let stats = match &self.stats {
            None => Value::Null,
            Some(s) => Value::obj([
                ("n_witnesses", Value::from(s.n_witnesses)),
                ("n_covered_methods", Value::from(s.n_covered_methods)),
                ("rounds", Value::from(s.rounds)),
            ]),
        };
        Value::obj([
            ("format", Value::from(FORMAT)),
            (
                "service",
                match &self.service {
                    None => Value::Null,
                    Some(name) => Value::from(name.as_str()),
                },
            ),
            ("semlib", self.semlib.to_value()),
            ("witnesses", witnesses_to_json(&self.witnesses)),
            ("stats", stats),
            (
                "diagnostics",
                Value::Array(self.diagnostics.iter().map(Diagnostic::to_value).collect()),
            ),
        ])
    }

    /// The artifact's identity digest: FNV-1a 64 over the canonical JSON
    /// of the body (everything but the digest pair itself), as 16 hex
    /// digits. Two artifacts with the same digest decode identically, so
    /// replicas sharing a cache directory can use it as a version tag.
    pub fn digest(&self) -> String {
        hex_digest(self.body_value().to_json().as_bytes())
    }

    /// Encodes the artifact to a JSON string: the bytes of
    /// [`AnalysisArtifact::to_value`]'s JSON, with the body printed once
    /// and its digest pair appended before the closing brace.
    pub fn to_json(&self) -> String {
        let mut json = self.body_value().to_json();
        let digest = hex_digest(json.as_bytes());
        // The body is a non-empty object, so it ends in its `}`.
        json.pop();
        json.push_str(",\"digest\":\"");
        json.push_str(&digest);
        json.push_str("\"}");
        json
    }

    /// Decodes an artifact from a JSON value produced by
    /// [`AnalysisArtifact::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Artifact`] when the format tag is missing or
    /// unknown, or any component is malformed.
    pub fn from_value(v: &Value) -> Result<AnalysisArtifact, EngineError> {
        let format = v
            .get("format")
            .and_then(Value::as_str)
            .ok_or_else(|| DecodeError("artifact: missing format tag".into()))?;
        if format != FORMAT {
            return Err(DecodeError(format!(
                "artifact: unsupported format '{format}' (expected '{FORMAT}')"
            ))
            .into());
        }
        // `digest` is a v1 extension: artifacts written before it exist
        // decode without verification, but a *present* digest must match
        // — a mismatch means the file was torn mid-write or bit-rotted.
        if let Some(stored) = v.get("digest").and_then(Value::as_str) {
            let computed = hex_digest(body_json(v).as_bytes());
            if computed != stored {
                return Err(DecodeError(format!(
                    "artifact: digest mismatch (stored {stored}, computed {computed})"
                ))
                .into());
            }
        }
        let semlib = SemLib::from_value(
            v.get("semlib").ok_or_else(|| DecodeError("artifact: missing semlib".into()))?,
        )?;
        let witnesses = witnesses_from_json(
            v.get("witnesses")
                .ok_or_else(|| DecodeError("artifact: missing witnesses".into()))?,
        )
        .map_err(|e| DecodeError(e.to_string()))?;
        let stats = match v.get("stats") {
            None | Some(Value::Null) => None,
            Some(s) => Some(AnalyzeStats {
                n_witnesses: decode_count(s, "n_witnesses")?,
                n_covered_methods: decode_count(s, "n_covered_methods")?,
                rounds: decode_count(s, "rounds")?,
            }),
        };
        // `service` is a v1 extension: absent in artifacts written before
        // the catalog existed, so absent/null simply decodes to None.
        let service = v.get("service").and_then(Value::as_str).map(str::to_string);
        // `diagnostics` is likewise a v1 extension: absent/null decodes to
        // empty, and entries of an unknown shape are skipped rather than
        // failing the whole artifact.
        let diagnostics = v
            .get("diagnostics")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Diagnostic::from_value)
            .collect();
        Ok(AnalysisArtifact { semlib, witnesses, stats, service, diagnostics })
    }

    /// Decodes an artifact from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Json`] when the text is not JSON and
    /// [`EngineError::Artifact`] when the JSON has the wrong shape.
    pub fn from_json(text: &str) -> Result<AnalysisArtifact, EngineError> {
        AnalysisArtifact::from_value(&parse(text)?)
    }
}

/// The compact JSON of the object `v` without its `digest` pairs — the
/// bytes a stored digest was computed over — printed field by field
/// into one buffer rather than from a pruned copy of the tree.
fn body_json(v: &Value) -> String {
    let mut out = String::from("{");
    let fields = v.as_object().unwrap_or_default();
    for (i, (key, value)) in fields.iter().filter(|(k, _)| k != "digest").enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, key);
        out.push(':');
        value.write_json(&mut out);
    }
    out.push('}');
    out
}

/// [`fnv1a64`] as the 16 hex digits an artifact's `digest` field holds.
fn hex_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// FNV-1a, 64-bit — the artifact identity hash. Not cryptographic; it
/// guards against torn writes and bit rot, not adversaries.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn decode_count(v: &Value, key: &str) -> Result<usize, EngineError> {
    v.get(key)
        .and_then(Value::as_int)
        .filter(|&i| i >= 0)
        .map(|i| i as usize)
        .ok_or_else(|| DecodeError(format!("artifact stats: missing count '{key}'")).into())
}
