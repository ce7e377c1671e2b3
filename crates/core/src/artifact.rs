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
//!
//! Loading decodes the text in one pass: a [`Reader`] feeds the typed
//! decoders of the crates that own each part (the library and witnesses,
//! the [`SemLib`], the diagnostics), which build the structs directly and
//! make a [`Value`] only where the model stores one (witness arguments and
//! outputs, value banks). No tree of the whole file is built.
//!
//! The digest is checked on the file's own bytes. [`AnalysisArtifact::to_json`]
//! writes the digest pair last, so the digest of a file that ends in
//! `,"digest":"<16 hex>"}` is the hash of the text before that pair plus
//! the closing brace, when the text is what the printer writes (the
//! reader tracks that) and holds no other `digest` key. Only a file that
//! is not in that form, such as a pretty-printed one, is parsed again to
//! hash its canonical print, as every file was before.

use std::borrow::Cow;

use apiphany_analysis::Diagnostic;
use apiphany_json::{
    parse, write_json_string, Kind, ParseJsonError, ReadError, Reader, Slot, Value,
};
use apiphany_mining::{AnalyzeStats, SemLib};
use apiphany_spec::{
    witnesses_from_reader, witnesses_to_json, DecodeError, Witness, WitnessDecodeError,
};

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

    /// Decodes an artifact from an already-parsed JSON value (as a
    /// `register` request carries one inline), by printing it and
    /// decoding the text with [`AnalysisArtifact::from_json`].
    ///
    /// # Errors
    ///
    /// As [`AnalysisArtifact::from_json`].
    pub fn from_value(v: &Value) -> Result<AnalysisArtifact, EngineError> {
        AnalysisArtifact::from_json(&v.to_json())
    }

    /// Decodes an artifact from a JSON string, in one pass over the text
    /// that builds the structs directly. The checks report in a fixed
    /// order, whatever order the text has its keys in: syntax, the format
    /// tag, the digest, then the semantic library, the witnesses and the
    /// statistics. Of two equal keys the first counts, unknown keys are
    /// skipped, and a diagnostic of unknown shape is dropped.
    ///
    /// `digest` is a v1 extension: an artifact written before it decodes
    /// without verification, but a *present* digest must match — a
    /// mismatch means the file was torn mid-write or bit-rotted. The
    /// digest is checked on the raw bytes: when the text ends in the
    /// `,"digest":"<16 hex>"}` that [`AnalysisArtifact::to_json`] writes,
    /// is in the printer's form throughout, and has no other `digest`
    /// key, the digest's input is the text before that pair plus `}`.
    /// Any other text (pretty-printed, say) is parsed once more and its
    /// canonical print hashed instead.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Json`] when the text is not JSON and
    /// [`EngineError::Artifact`] when the format tag is missing or
    /// unknown, the digest does not match, or any component is malformed.
    pub fn from_json(text: &str) -> Result<AnalysisArtifact, EngineError> {
        let mut r = Reader::new(text);
        let mut top = TopLevel::default();
        r.object(|r, key| top.read(r, key))?;
        r.finish()?;
        let format = top.format.and_then(Result::ok).flatten();
        let format =
            format.ok_or_else(|| DecodeError("artifact: missing format tag".into()))?;
        if format != FORMAT {
            return Err(DecodeError(format!(
                "artifact: unsupported format '{format}' (expected '{FORMAT}')"
            ))
            .into());
        }
        if let Some(stored) = top.digest.and_then(Result::ok).flatten() {
            let raw = r.is_canonical() && top.digests == 1;
            let computed = match raw_body(text).filter(|_| raw) {
                Some(body) => format!("{:016x}", fnv1a64(fnv1a64(FNV_OFFSET, body), b"}")),
                None => hex_digest(body_json(&parse(text)?).as_bytes()),
            };
            if computed != stored {
                return Err(DecodeError(format!(
                    "artifact: digest mismatch (stored {stored}, computed {computed})"
                ))
                .into());
            }
        }
        let shape = |e: ReadError| DecodeError(e.to_string());
        let semlib = top
            .semlib
            .ok_or_else(|| DecodeError("artifact: missing semlib".into()))?
            .map_err(shape)?;
        let witnesses = top
            .witnesses
            .ok_or_else(|| DecodeError("artifact: missing witnesses".into()))?
            .map_err(|e| DecodeError(WitnessDecodeError(e.to_string()).to_string()))?;
        let stats = top.stats.transpose().map_err(shape)?.flatten();
        Ok(AnalysisArtifact {
            semlib,
            witnesses,
            stats,
            service: top.service.and_then(Result::ok).flatten(),
            diagnostics: top.diagnostics.and_then(Result::ok).unwrap_or_default(),
        })
    }
}

/// The top-level fields of an artifact as [`AnalysisArtifact::from_json`]
/// reads them, each kept until every check before it has passed.
#[derive(Default)]
struct TopLevel {
    format: Slot<Option<String>>,
    /// The first `digest` key's string, if it is one.
    digest: Slot<Option<String>>,
    /// How many `digest` keys the object has.
    digests: usize,
    semlib: Slot<SemLib>,
    witnesses: Slot<Vec<Witness>>,
    stats: Slot<Option<AnalyzeStats>>,
    /// `service` is a v1 extension: absent in artifacts written before
    /// the catalog existed, so absent, null or not a string is `None`.
    service: Slot<Option<String>>,
    /// `diagnostics` is likewise a v1 extension: absent, null or not an
    /// array is empty, and entries of an unknown shape are skipped rather
    /// than failing the whole artifact.
    diagnostics: Slot<Vec<Diagnostic>>,
}

impl TopLevel {
    fn read(&mut self, r: &mut Reader<'_>, key: &str) -> Result<(), ParseJsonError> {
        let string = |r: &mut Reader<'_>| Ok(r.str()?.map(Cow::into_owned));
        match key {
            "format" => r.first(&mut self.format, string),
            "digest" => {
                self.digests += 1;
                r.first(&mut self.digest, string)
            }
            "semlib" => r.first(&mut self.semlib, SemLib::from_reader),
            "witnesses" => r.first(&mut self.witnesses, witnesses_from_reader),
            "stats" => r.first(&mut self.stats, read_stats),
            "service" => r.first(&mut self.service, string),
            "diagnostics" => r.first(&mut self.diagnostics, |r| {
                let mut found = Vec::new();
                r.array(|r| {
                    found.extend(Diagnostic::from_reader(r)?);
                    Ok(())
                })?;
                Ok(found)
            }),
            _ => r.skip(),
        }
    }
}

/// Reads the `stats` field: `null`, or an object of three counts, each
/// missing unless it is a non-negative integer.
fn read_stats(r: &mut Reader<'_>) -> Result<Option<AnalyzeStats>, ReadError> {
    if r.kind()? == Kind::Null {
        r.skip()?;
        return Ok(None);
    }
    let (mut witnesses, mut methods, mut rounds) = (None, None, None);
    r.object(|r, key| {
        let slot = match key {
            "n_witnesses" => &mut witnesses,
            "n_covered_methods" => &mut methods,
            "rounds" => &mut rounds,
            _ => return r.skip(),
        };
        r.first(slot, |r| Ok(r.int()?.filter(|&i| i >= 0).map(|i| i as usize)))
    })?;
    let count = |slot: Slot<Option<usize>>, key: &str| {
        slot.and_then(Result::ok)
            .flatten()
            .ok_or_else(|| ReadError::Shape(format!("artifact stats: missing count '{key}'")))
    };
    Ok(Some(AnalyzeStats {
        n_witnesses: count(witnesses, "n_witnesses")?,
        n_covered_methods: count(methods, "n_covered_methods")?,
        rounds: count(rounds, "rounds")?,
    }))
}

/// The text an artifact's digest was computed over, less its closing
/// brace, when `text` ends as [`AnalysisArtifact::to_json`] ends it: in a
/// `"digest"` pair of 16 lowercase hex digits that closes the object.
fn raw_body(text: &str) -> Option<&[u8]> {
    const TAIL: usize = ",\"digest\":\"".len() + 16 + "\"}".len();
    let bytes = text.as_bytes();
    let (body, tail) = bytes.split_at(bytes.len().checked_sub(TAIL)?);
    let hex = tail.strip_prefix(b",\"digest\":\"")?.strip_suffix(b"\"}")?;
    hex.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')).then_some(body)
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

/// [`fnv1a64`] of `bytes` as the 16 hex digits an artifact's `digest`
/// field holds.
fn hex_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(FNV_OFFSET, bytes))
}

/// The FNV-1a 64 offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit, continued from `h` over `bytes` — the artifact
/// identity hash. Not cryptographic; it guards against torn writes and
/// bit rot, not adversaries.
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
