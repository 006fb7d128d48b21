//! Analysis errors.

use std::fmt;

/// An error raised while preparing or running an analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnalysisError {
    /// The source program could not be parsed.
    Parse(String),
    /// The underlying engine failed.
    Engine(tablog_engine::EngineError),
    /// The program uses a feature the analysis cannot handle.
    Unsupported(String),
    /// An entry point or explained goal names a predicate the program does
    /// not define, given as `name/arity` in the source program's terms.
    UnknownEntry(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Parse(m) => write!(f, "parse error: {m}"),
            AnalysisError::Engine(e) => write!(f, "engine error: {e}"),
            AnalysisError::Unsupported(m) => write!(f, "unsupported: {m}"),
            AnalysisError::UnknownEntry(p) => write!(f, "unknown entry predicate {p}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tablog_engine::EngineError> for AnalysisError {
    fn from(e: tablog_engine::EngineError) -> Self {
        AnalysisError::Engine(e)
    }
}

impl From<tablog_syntax::ParseError> for AnalysisError {
    fn from(e: tablog_syntax::ParseError) -> Self {
        AnalysisError::Parse(e.to_string())
    }
}

impl From<tablog_funlang::FunParseError> for AnalysisError {
    fn from(e: tablog_funlang::FunParseError) -> Self {
        AnalysisError::Parse(e.to_string())
    }
}
