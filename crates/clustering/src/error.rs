//! Error type for the clustering entry points.

use std::error::Error;
use std::fmt;

/// Errors raised on degenerate clustering inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// `k == 0` was requested.
    ZeroK,
    /// `k` exceeds the number of observations.
    TooFewObservations {
        /// Requested number of clusters.
        k: usize,
        /// Available observations.
        n: usize,
    },
    /// The observation matrix has no rows.
    EmptyInput,
    /// The requested `k` range is empty or inverted.
    EmptyKRange,
    /// `max_iterations == 0` was configured — the fit could never make
    /// a single improvement pass, so the cap is rejected up front
    /// instead of silently returning the initialization.
    ZeroIterationCap,
    /// A [`crate::KMeansSweep`] was asked for a `k` above the largest
    /// one it was built for.
    BeyondSweep {
        /// Requested number of clusters.
        k: usize,
        /// The sweep's largest k.
        max_k: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ZeroK => write!(f, "cannot cluster into k = 0 groups"),
            ClusterError::TooFewObservations { k, n } => {
                write!(f, "k = {k} clusters requested but only {n} observations")
            }
            ClusterError::EmptyInput => write!(f, "empty observation matrix"),
            ClusterError::EmptyKRange => write!(f, "the k range to sweep is empty"),
            ClusterError::ZeroIterationCap => {
                write!(f, "max_iterations = 0 can never fit (use at least 1)")
            }
            ClusterError::BeyondSweep { k, max_k } => {
                write!(f, "k = {k} is above the sweep's largest k = {max_k}")
            }
        }
    }
}

impl Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ClusterError::ZeroK.to_string().contains("k = 0"));
        assert!(ClusterError::TooFewObservations { k: 5, n: 3 }
            .to_string()
            .contains("5"));
        assert!(ClusterError::EmptyInput.to_string().contains("empty"));
    }
}
