//! Diagnostics: stable lint codes, severities, and the JSON codec used to
//! persist them in analysis artifacts.

use std::borrow::Cow;
use std::fmt;

use apiphany_json::{ParseJsonError, Reader, Slot, Value};

/// How serious a diagnostic is.
///
/// `Error` marks a defect that makes part of the spec unusable for
/// synthesis (CI fails on it); `Warning` marks something synthesis
/// tolerates but a spec author should look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but tolerated.
    Warning,
    /// A defect; `spec-lint` exits nonzero when any error is present.
    Error,
}

impl Severity {
    /// The lowercase wire name (`"warning"` / `"error"`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    fn from_name(name: &str) -> Option<Severity> {
        match name {
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The stable lint codes. Codes are append-only: a code keeps its meaning
/// forever so reports stay comparable across versions.
///
/// | Code  | Severity | Meaning |
/// |-------|----------|---------|
/// | AP101 | error/warning | Path template and declared path parameters disagree |
/// | AP102 | error | Duplicate `operationId` |
/// | AP201 | warning | Required parameter type is never produced by any operation |
/// | AP202 | warning | Schema unreachable from every method signature |
/// | AP203 | warning | Operation can never fire from the witnessed value banks |
pub mod codes {
    /// Path template and declared path parameters disagree: a `{var}`
    /// with no matching `in: path` parameter (error), or a declared path
    /// parameter missing from the template (warning).
    pub const PATH_PARAM_MISMATCH: &str = "AP101";
    /// Two operations share one `operationId`; the later definition
    /// silently shadows the earlier one at load time.
    pub const DUPLICATE_OPERATION_ID: &str = "AP102";
    /// A required parameter's semantic type appears in no operation's
    /// output: nothing in the net can ever produce an argument for it.
    pub const PARAM_NEVER_PRODUCED: &str = "AP201";
    /// An object schema no method signature (transitively) mentions.
    pub const ORPHAN_SCHEMA: &str = "AP202";
    /// An operation that can never fire starting from the witnessed
    /// value banks: some required input is unproducible.
    pub const OP_NEVER_FIRES: &str = "AP203";
}

/// One actionable diagnostic: a stable code, a severity, where it points,
/// and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (see [`codes`]).
    pub code: String,
    /// Severity class.
    pub severity: Severity,
    /// Where in the spec the problem lives (an operation id, a schema
    /// name, or a `paths./x.get`-style pointer).
    pub location: String,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic (convenience for the lint passes).
    pub fn new(
        code: &str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code: code.to_string(),
            severity,
            location: location.into(),
            message: message.into(),
        }
    }

    /// Encodes the diagnostic as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("code", Value::from(self.code.as_str())),
            ("severity", Value::from(self.severity.name())),
            ("location", Value::from(self.location.as_str())),
            ("message", Value::from(self.message.as_str())),
        ])
    }

    /// Reads a diagnostic from the JSON text of its
    /// [`Diagnostic::to_value`] encoding. Returns `None`, having consumed
    /// the value, when a field is missing or not a string, or the
    /// severity is unknown.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn from_reader(r: &mut Reader<'_>) -> Result<Option<Diagnostic>, ParseJsonError> {
        let (mut code, mut severity, mut location, mut message) = (None, None, None, None);
        r.object(|r, key| {
            let slot: &mut Slot<Option<String>> = match key {
                "code" => &mut code,
                "severity" => &mut severity,
                "location" => &mut location,
                "message" => &mut message,
                _ => return r.skip(),
            };
            r.first(slot, |r| Ok(r.str()?.map(Cow::into_owned)))
        })?;
        let text = |slot: Slot<Option<String>>| slot.and_then(Result::ok).flatten();
        let severity = text(severity).and_then(|name| Severity::from_name(&name));
        Ok(match (text(code), severity, text(location), text(message)) {
            (Some(code), Some(severity), Some(location), Some(message)) => {
                Some(Diagnostic { code, severity, location, message })
            }
            _ => None,
        })
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}: {}", self.severity, self.code, self.location, self.message)
    }
}

/// Counts of a diagnostic list by severity (the lint summary surfaced by
/// catalog inspection and the daemon protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiagnosticSummary {
    /// Number of `Error` diagnostics.
    pub errors: usize,
    /// Number of `Warning` diagnostics.
    pub warnings: usize,
}

impl DiagnosticSummary {
    /// Tallies a diagnostic list.
    pub fn of(diagnostics: &[Diagnostic]) -> DiagnosticSummary {
        let errors = diagnostics.iter().filter(|d| d.severity == Severity::Error).count();
        DiagnosticSummary { errors, warnings: diagnostics.len() - errors }
    }
}
