//! Error types for the flow analysis.

use std::fmt;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, FlowError>;

/// Errors from parsing or analyzing MiniLam programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// Malformed source text.
    Parse {
        /// Human-readable description.
        message: String,
        /// 1-based source line.
        line: usize,
    },
    /// An unbound variable or function.
    Unbound(String),
    /// A type mismatch found while checking an expression.
    TypeMismatch {
        /// Where the mismatch occurred.
        context: String,
        /// Rendered expected type.
        expected: String,
        /// Rendered found type.
        found: String,
    },
    /// `.1`/`.2` applied to a non-pair expression.
    ProjectNonPair {
        /// Rendered subject type.
        found: String,
    },
    /// Two functions share a name.
    DuplicateFunction(String),
    /// A flow-query label does not exist in the program.
    UnknownLabel(String),
    /// The program has no `main` function.
    MissingMain,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Parse { message, line } => {
                write!(f, "parse error at line {line}: {message}")
            }
            FlowError::Unbound(name) => write!(f, "unbound name `{name}`"),
            FlowError::TypeMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {found}"
            ),
            FlowError::ProjectNonPair { found } => {
                write!(f, "projection applied to non-pair type {found}")
            }
            FlowError::DuplicateFunction(name) => write!(f, "function `{name}` defined twice"),
            FlowError::UnknownLabel(name) => write!(f, "no expression carries label `{name}`"),
            FlowError::MissingMain => write!(f, "program has no `main` function"),
        }
    }
}

impl std::error::Error for FlowError {}
