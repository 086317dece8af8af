use std::fmt;

/// Errors produced by linear-algebra routines.
///
/// The crate prefers returning errors over panicking for every condition
/// that depends on runtime data (shapes, conditioning, convergence).
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand, as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right/second operand, as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An operation required a non-empty matrix or slice.
    Empty {
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
    /// An iterative algorithm did not converge within its sweep budget.
    NonConvergence {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Number of sweeps/iterations performed before giving up.
        iterations: usize,
    },
    /// A NaN or infinite input entry, refused before an iterative solve:
    /// it would otherwise spread through every rotation and exhaust the
    /// sweep budget.
    NonFinite {
        /// Human-readable name of the operation that refused the input.
        op: &'static str,
        /// Row/column position of the first offending entry (row-major).
        at: (usize, usize),
        /// The offending value.
        value: f64,
    },
    /// A matrix expected to be symmetric positive definite was not.
    NotPositiveDefinite {
        /// Index of the pivot at which the factorization broke down.
        pivot: usize,
    },
    /// A matrix expected to be symmetric was not (within tolerance).
    NotSymmetric {
        /// Row/column position of the worst asymmetry.
        at: (usize, usize),
    },
    /// A system was singular or numerically rank-deficient.
    Singular {
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
    /// Two block placements targeted the same cell of an assembled
    /// matrix (`Matrix::assemble_blocks`), which would silently drop one
    /// of the values being merged.
    DuplicateTarget {
        /// Row/column position claimed twice.
        at: (usize, usize),
    },
    /// An argument was outside its mathematical domain
    /// (for example a probability outside `(0, 1)`).
    DomainError {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Empty { op } => write!(f, "{op} requires non-empty input"),
            LinalgError::NonConvergence {
                algorithm,
                iterations,
            } => write!(f, "{algorithm} did not converge after {iterations} sweeps"),
            LinalgError::NonFinite { op, at, value } => {
                write!(f, "{op}: non-finite entry {value} at ({}, {})", at.0, at.1)
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NotSymmetric { at } => {
                write!(f, "matrix is not symmetric (worst at {},{})", at.0, at.1)
            }
            LinalgError::Singular { op } => write!(f, "singular system in {op}"),
            LinalgError::DuplicateTarget { at } => {
                write!(f, "block placements overlap at ({}, {})", at.0, at.1)
            }
            LinalgError::DomainError { op, value } => {
                write!(f, "argument {value} outside the domain of {op}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(e.to_string(), "dimension mismatch in matmul: 2x3 vs 4x5");
    }

    #[test]
    fn display_non_convergence() {
        let e = LinalgError::NonConvergence {
            algorithm: "jacobi",
            iterations: 64,
        };
        assert!(e.to_string().contains("jacobi"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn display_non_finite() {
        let e = LinalgError::NonFinite {
            op: "svd",
            at: (12, 3),
            value: f64::NAN,
        };
        assert_eq!(e.to_string(), "svd: non-finite entry NaN at (12, 3)");
    }

    #[test]
    fn display_domain_error() {
        let e = LinalgError::DomainError {
            op: "inverse_normal_cdf",
            value: 1.5,
        };
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(LinalgError::Empty { op: "mean" });
        assert!(e.to_string().contains("mean"));
    }
}
