//! Typed error taxonomy for the ppdp workspace.
//!
//! Every fallible boundary in the workspace — the four publish pipelines,
//! `BayesNet::fit*`, `FactorGraph::build`, the ICA/Gibbs attack loops and the
//! greedy solvers — reports failures through [`PpdpError`] instead of
//! panicking. The taxonomy is deliberately small and matches the failure
//! modes discussed in the dissertation's experimental chapters:
//!
//! * [`PpdpError::InvalidInput`] — malformed data handed across an API
//!   boundary: NaN or out-of-range probabilities and odds ratios, empty or
//!   dangling graphs, `ε ≤ 0`, `k > n`, degenerate factor tables.
//! * [`PpdpError::BudgetExhausted`] — a differential-privacy ledger draw
//!   would exceed the remaining ε.
//! * [`PpdpError::NonConvergence`] — an iterative algorithm ran out of its
//!   sweep budget *and* the caller asked for strict convergence (the default
//!   path degrades gracefully instead, see the crate-level docs of
//!   `ppdp-genomic`).
//! * [`PpdpError::Numerical`] — NaN/Inf residuals or message underflow that
//!   survived defensive renormalization.
//!
//! The crate has no dependencies so every layer of the workspace (including
//! `ppdp-telemetry`) can use it without cycles.

use std::fmt;

/// Convenience alias used across the workspace: `ppdp_errors::Result<T>`.
pub type Result<T> = std::result::Result<T, PpdpError>;

/// The unified error type for all ppdp crates.
#[derive(Debug, Clone, PartialEq)]
pub enum PpdpError {
    /// Malformed input detected at an API boundary. The message names the
    /// offending field or record so callers can repair their data.
    InvalidInput {
        /// Human-readable description naming the offending value or record.
        context: String,
    },
    /// A privacy-budget draw was requested that the ledger cannot cover.
    BudgetExhausted {
        /// The ε amount the caller tried to draw.
        requested: f64,
        /// The ε amount actually left in the ledger.
        remaining: f64,
    },
    /// An iterative algorithm exhausted its iteration budget without meeting
    /// its tolerance, and graceful degradation was not permitted.
    NonConvergence {
        /// Which algorithm failed to converge (e.g. `"bp"`, `"ica"`).
        algorithm: &'static str,
        /// Total iterations executed before giving up.
        iterations: usize,
        /// The last observed residual / delta.
        residual: f64,
    },
    /// A numerical invariant was violated mid-computation (NaN/Inf residual,
    /// message underflow) and could not be repaired defensively.
    Numerical {
        /// Where the invariant broke and what was observed.
        context: String,
    },
    /// A filesystem operation backing the durability layer failed (WAL
    /// append, checkpoint write, fsync, rename).
    Io {
        /// The operation that failed and the underlying OS error text.
        context: String,
    },
}

impl PpdpError {
    /// Build an [`PpdpError::InvalidInput`] from anything stringly.
    pub fn invalid_input(context: impl Into<String>) -> Self {
        PpdpError::InvalidInput {
            context: context.into(),
        }
    }

    /// Build a [`PpdpError::Numerical`] from anything stringly.
    pub fn numerical(context: impl Into<String>) -> Self {
        PpdpError::Numerical {
            context: context.into(),
        }
    }

    /// Build an [`PpdpError::Io`] from anything stringly.
    pub fn io(context: impl Into<String>) -> Self {
        PpdpError::Io {
            context: context.into(),
        }
    }

    /// Build an [`PpdpError::Io`] naming the operation that hit `err`.
    pub fn io_err(op: impl Into<String>, err: &std::io::Error) -> Self {
        PpdpError::Io {
            context: format!("{}: {err}", op.into()),
        }
    }

    /// Stable short name of the variant, used by telemetry counters and the
    /// chaos-test matrix (`error.invalid_input`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            PpdpError::InvalidInput { .. } => "invalid_input",
            PpdpError::BudgetExhausted { .. } => "budget_exhausted",
            PpdpError::NonConvergence { .. } => "non_convergence",
            PpdpError::Numerical { .. } => "numerical",
            PpdpError::Io { .. } => "io",
        }
    }
}

impl fmt::Display for PpdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PpdpError::InvalidInput { context } => write!(f, "invalid input: {context}"),
            PpdpError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested ε={requested}, only ε={remaining} remains"
            ),
            PpdpError::NonConvergence {
                algorithm,
                iterations,
                residual,
            } => write!(
                f,
                "{algorithm} failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
            PpdpError::Numerical { context } => write!(f, "numerical failure: {context}"),
            PpdpError::Io { context } => write!(f, "io failure: {context}"),
        }
    }
}

impl std::error::Error for PpdpError {}

/// Check that `v` is a finite probability in the **open** interval `(0, 1)`.
///
/// Used for prevalences, risk-allele frequencies and CPT entries that the
/// genomic model later feeds through odds-ratio algebra (where 0 and 1 are
/// degenerate).
///
/// `name` is formatted only when the check fails, so hot validation
/// loops can pass `format_args!(…)` and pay nothing on success. The same
/// holds for every check below.
pub fn ensure_unit_open(name: impl fmt::Display, v: f64) -> Result<()> {
    if v.is_finite() && v > 0.0 && v < 1.0 {
        Ok(())
    } else {
        Err(PpdpError::invalid_input(format!(
            "{name} must lie in (0, 1), got {v}"
        )))
    }
}

/// Check that `v` is a finite probability in the **closed** interval `[0, 1]`.
pub fn ensure_unit_closed(name: impl fmt::Display, v: f64) -> Result<()> {
    if v.is_finite() && (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(PpdpError::invalid_input(format!(
            "{name} must lie in [0, 1], got {v}"
        )))
    }
}

/// Check that `v` is finite and strictly positive (odds ratios, ε, δ).
pub fn ensure_positive(name: impl fmt::Display, v: f64) -> Result<()> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(PpdpError::invalid_input(format!(
            "{name} must be finite and > 0, got {v}"
        )))
    }
}

/// Check that `v` is finite (neither NaN nor ±Inf).
pub fn ensure_finite(name: impl fmt::Display, v: f64) -> Result<()> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(PpdpError::numerical(format!("{name} is not finite ({v})")))
    }
}

/// Check an arbitrary boundary condition, reporting `context` on failure.
pub fn ensure(cond: bool, context: impl fmt::Display) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(PpdpError::invalid_input(context.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_interval_rejects_edges_and_nan() {
        assert!(ensure_unit_open("p", 0.5).is_ok());
        for bad in [0.0, 1.0, -0.1, 1.1, f64::NAN, f64::INFINITY] {
            let e = ensure_unit_open("p", bad).unwrap_err();
            assert_eq!(e.kind(), "invalid_input");
            assert!(e.to_string().contains('p'), "message names the field");
        }
    }

    #[test]
    fn closed_interval_accepts_edges() {
        assert!(ensure_unit_closed("w", 0.0).is_ok());
        assert!(ensure_unit_closed("w", 1.0).is_ok());
        assert!(ensure_unit_closed("w", f64::NAN).is_err());
    }

    #[test]
    fn positive_rejects_zero_and_infinity() {
        assert!(ensure_positive("epsilon", 1.0).is_ok());
        assert!(ensure_positive("epsilon", 0.0).is_err());
        assert!(ensure_positive("epsilon", f64::INFINITY).is_err());
    }

    #[test]
    fn lazy_context_formats_only_on_failure() {
        struct Panics;
        impl fmt::Display for Panics {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("a passing check formatted its message")
            }
        }
        assert!(ensure(true, Panics).is_ok());
        assert!(ensure_unit_open(Panics, 0.5).is_ok());
        assert!(ensure_positive(Panics, 2.0).is_ok());
        let e = ensure(false, format_args!("record {} bad", 7)).unwrap_err();
        assert_eq!(e.to_string(), "invalid input: record 7 bad");
    }

    #[test]
    fn display_is_informative() {
        let e = PpdpError::BudgetExhausted {
            requested: 0.5,
            remaining: 0.25,
        };
        let msg = e.to_string();
        assert!(msg.contains("0.5") && msg.contains("0.25"));
        assert_eq!(e.kind(), "budget_exhausted");
    }
}
