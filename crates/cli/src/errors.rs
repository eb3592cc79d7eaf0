//! CLI failures classified by their documented process exit code.
//!
//! | code | class  | meaning                                             |
//! |------|--------|-----------------------------------------------------|
//! | 0    | —      | success, or stdout's reader went away mid-write     |
//! | 1    | other  | I/O failures and everything unclassified            |
//! | 2    | usage  | bad command line (unknown command, missing flag, …) |
//! | 3    | parse  | malformed input data or corrupt checkpoint          |
//! | 4    | budget | a resource budget tripped before the run finished   |
//!
//! The CI fault-injection job asserts these codes against the malformed
//! corpus and against deliberately starved budgets, so they are part of the
//! CLI's stable interface (documented in `fim help`).

use fim_core::FimError;
use std::fmt;

/// A CLI failure carrying its exit-code class.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (exit 2); the message ends with a hint at the
    /// command that helps.
    Usage(String),
    /// Malformed input or checkpoint (exit 3).
    Parse(String),
    /// A resource budget tripped (exit 4).
    Budget(String),
    /// Everything else, e.g. I/O failures (exit 1).
    Other(String),
    /// Stdout's reader went away, as under `fim mine … | head -1`: the run
    /// ends quietly (exit 0).
    Closed,
}

impl CliError {
    /// The documented process exit code for this failure class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Closed => 0,
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Parse(_) => 3,
            CliError::Budget(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Parse(m) | CliError::Budget(m) | CliError::Other(m) => {
                f.write_str(m)
            }
            CliError::Closed => f.write_str("stdout closed"),
        }
    }
}

/// Plain-`String` errors come from argument handling: usage class.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        usage(msg)
    }
}

impl From<FimError> for CliError {
    fn from(e: FimError) -> Self {
        match &e {
            FimError::Parse { .. } | FimError::Corrupt(_) => CliError::Parse(e.to_string()),
            FimError::Interrupted(_) => CliError::Budget(e.to_string()),
            _ => CliError::Other(e.to_string()),
        }
    }
}

/// A failed write to stdout or a report file: other class.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::from(FimError::from(e))
    }
}

/// Shorthand for building a usage error that hints at `fim help`.
pub fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(format!("{} (try 'fim help')", msg.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::TripReason;

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(CliError::Closed.exit_code(), 0);
        assert_eq!(CliError::Other("x".into()).exit_code(), 1);
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Parse("x".into()).exit_code(), 3);
        assert_eq!(CliError::Budget("x".into()).exit_code(), 4);
    }

    #[test]
    fn fim_error_classification() {
        let parse = FimError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert_eq!(CliError::from(parse).exit_code(), 3);
        assert_eq!(
            CliError::from(FimError::Corrupt("crc".into())).exit_code(),
            3
        );
        assert_eq!(
            CliError::from(FimError::Interrupted(TripReason::Timeout)).exit_code(),
            4
        );
        assert_eq!(
            CliError::from(FimError::InvalidInput("x".into())).exit_code(),
            1
        );
    }

    #[test]
    fn usage_display_hints_at_help() {
        let msg = usage("missing --supp").to_string();
        assert!(msg.contains("fim help"), "{msg}");
    }
}
