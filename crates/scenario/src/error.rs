//! The scenario crate's typed error taxonomy.
//!
//! Every failure mode a scenario run can hit is a value here, and each
//! class maps onto a distinct process exit code via
//! [`Error::exit_code`] — so scripts can tell a bad scenario file from
//! an infeasible analysis from a genuine runtime failure without
//! parsing stderr.

use std::fmt;

/// Everything that can go wrong loading or running a scenario.
#[derive(Debug)]
pub enum Error {
    /// Bad command-line usage (flag errors; exit code 2).
    Usage(String),
    /// The scenario file could not be read (exit code 3).
    Io {
        /// The path that failed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The scenario document is not valid JSON or fails schema/semantic
    /// validation (exit code 4).
    Scenario {
        /// Source file path, when the document came from a file.
        path: Option<String>,
        /// What is wrong with it.
        detail: String,
    },
    /// The run itself failed: artifact write errors, empty statistics,
    /// and other execution problems (exit code 6).
    Runtime(String),
    /// The analysis could not produce a bound: infeasible optimization
    /// or a non-finite result (exit code 7; invalid analysis inputs are
    /// configuration problems and map to 4).
    Analysis(nc_core::Error),
}

impl Error {
    /// The process exit code for this error class:
    ///
    /// | code | class |
    /// |------|-------|
    /// | 2 | command-line usage |
    /// | 3 | scenario file I/O |
    /// | 4 | scenario parse/validation (incl. bad analysis inputs) |
    /// | 6 | runtime failure |
    /// | 7 | analysis infeasible / non-finite |
    ///
    /// Code 5 is retired and no longer produced; 6 and 7 keep their
    /// numbers so scripts written against them still work.
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Usage(_) => 2,
            Error::Io { .. } => 3,
            Error::Scenario { .. } => 4,
            Error::Runtime(_) => 6,
            Error::Analysis(nc_core::Error::InvalidInput(_)) => 4,
            Error::Analysis(_) => 7,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(msg) => write!(f, "{msg}"),
            Error::Io { path, source } => write!(f, "cannot read {path}: {source}"),
            Error::Scenario { path: Some(p), detail } => write!(f, "{p}: {detail}"),
            Error::Scenario { path: None, detail } => write!(f, "{detail}"),
            Error::Runtime(msg) => write!(f, "{msg}"),
            Error::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            Error::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nc_core::Error> for Error {
    fn from(e: nc_core::Error) -> Self {
        Error::Analysis(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let codes = [
            Error::Usage("u".into()).exit_code(),
            Error::Io {
                path: "p".into(),
                source: std::io::Error::new(std::io::ErrorKind::NotFound, "x"),
            }
            .exit_code(),
            Error::Scenario { path: None, detail: "d".into() }.exit_code(),
            Error::Runtime("r".into()).exit_code(),
            Error::Analysis(nc_core::Error::Infeasible).exit_code(),
        ];
        let mut sorted = codes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len(), "exit codes collide: {codes:?}");
        assert_eq!(codes, [2, 3, 4, 6, 7]);
    }

    #[test]
    fn config_flavored_errors_map_to_the_validation_code() {
        assert_eq!(Error::Analysis(nc_core::Error::InvalidInput("x".into())).exit_code(), 4);
        assert_eq!(Error::Analysis(nc_core::Error::NonFinite("y".into())).exit_code(), 7);
    }

    #[test]
    fn from_conversions_wrap_the_layered_errors() {
        let e: Error = nc_core::Error::Infeasible.into();
        assert!(matches!(e, Error::Analysis(_)));
        assert!(e.to_string().contains("infeasible"));
    }
}
