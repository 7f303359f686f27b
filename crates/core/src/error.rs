//! Pipeline-level error type: mis-shaped input is a recoverable error, not
//! a panic.

use catalyze_linalg::LinalgError;
use std::fmt;

/// Everything that can go wrong running the analysis pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The request carried no measurement runs.
    EmptyRuns,
    /// The request never set an expectation basis.
    MissingBasis,
    /// Two request axes that must agree do not (event names vs run columns,
    /// measurement points vs basis rows, signature vs basis dimension, …).
    Shape {
        /// Which axes disagree.
        context: &'static str,
        /// The length the reference axis has.
        expected: usize,
        /// The length the offending axis has.
        got: usize,
    },
    /// A measured counter value is negative. Counts never are, so the
    /// input is corrupt rather than noisy (`-0.0` is a valid zero;
    /// non-finite values are reported as [`AnalysisError::Linalg`]).
    NegativeCount {
        /// The event whose measurements hold the negative value.
        event: String,
    },
    /// A linear-algebra kernel failed (non-finite measurements, a
    /// rank-deficient basis, …).
    Linalg(LinalgError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::EmptyRuns => write!(f, "no measurement runs"),
            AnalysisError::MissingBasis => write!(f, "no expectation basis was provided"),
            AnalysisError::Shape { context, expected, got } => {
                write!(f, "{context}: expected {expected}, got {got}")
            }
            AnalysisError::NegativeCount { event } => {
                write!(f, "event {event}: negative counter value")
            }
            AnalysisError::Linalg(e) => write!(f, "linear algebra: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for AnalysisError {
    fn from(e: LinalgError) -> Self {
        AnalysisError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(AnalysisError::EmptyRuns.to_string(), "no measurement runs");
        assert!(AnalysisError::MissingBasis.to_string().contains("basis"));
        let e = AnalysisError::Shape { context: "events per run", expected: 4, got: 3 };
        assert_eq!(e.to_string(), "events per run: expected 4, got 3");
        let e = AnalysisError::NegativeCount { event: "BR_INST_RETIRED".into() };
        assert_eq!(e.to_string(), "event BR_INST_RETIRED: negative counter value");
        let e = AnalysisError::from(LinalgError::NonFinite { context: "lstsq" });
        assert!(e.to_string().contains("non-finite"));
    }

    #[test]
    fn linalg_source_is_preserved() {
        use std::error::Error as _;
        let e = AnalysisError::from(LinalgError::Empty { context: "qr" });
        assert!(e.source().is_some());
        assert!(AnalysisError::EmptyRuns.source().is_none());
    }
}
