//! Error types: the crate-local [`CoreError`] and the workspace-wide
//! unified [`MorpheusError`].
//!
//! Every substrate crate keeps its own precise error enum
//! ([`morpheus_dense::DenseError`], [`morpheus_sparse::SparseError`],
//! [`morpheus_linalg::LinalgError`], [`CoreError`]); `MorpheusError`
//! wraps them all so cross-layer code can use one [`Result`] alias and
//! plain `?` instead of hand-rolled conversions. Crates *above* core in
//! the dependency DAG (`morpheus-lang`, `morpheus-data`) cannot be named
//! here without a cycle; their errors are carried through the [`Lang`]
//! and [`Data`] variants as rendered messages, with the `From` impls
//! living in those crates.
//!
//! [`Lang`]: MorpheusError::Lang
//! [`Data`]: MorpheusError::Data

use morpheus_dense::DenseError;
use morpheus_linalg::LinalgError;
use morpheus_sparse::SparseError;
use std::fmt;

/// Errors produced when assembling a [`crate::NormalizedMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The normalized matrix has no attribute parts.
    Empty,
    /// Two parts disagree on the logical row count of `T`.
    RowCountMismatch {
        /// Expected logical row count.
        expected: usize,
        /// Index of the offending part.
        part: usize,
        /// Row count contributed by that part.
        found: usize,
    },
    /// An indicator's column count differs from its base table's row count.
    IndicatorTableMismatch {
        /// Index of the offending part.
        part: usize,
        /// Indicator column count.
        indicator_cols: usize,
        /// Base-table row count.
        table_rows: usize,
    },
    /// A foreign key (or M:N provenance row) names no row of its table.
    KeyOutOfRange {
        /// Position of the key in its key column.
        row: usize,
        /// The key.
        key: usize,
        /// Rows of the base table it indexes.
        table_rows: usize,
    },
    /// [`crate::NormalizedMatrix::append_rows`] got additions that do not fit.
    BadAppend(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Empty => write!(f, "normalized matrix must have at least one part"),
            CoreError::RowCountMismatch {
                expected,
                part,
                found,
            } => write!(
                f,
                "part {part} implies {found} logical rows, expected {expected}"
            ),
            CoreError::IndicatorTableMismatch {
                part,
                indicator_cols,
                table_rows,
            } => write!(
                f,
                "part {part}: indicator has {indicator_cols} columns but table has {table_rows} rows"
            ),
            CoreError::KeyOutOfRange {
                row,
                key,
                table_rows,
            } => write!(
                f,
                "key {key} at row {row} is out of range for a {table_rows}-row table"
            ),
            CoreError::BadAppend(reason) => write!(f, "append_rows: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience alias for results with [`CoreError`].
pub type CoreResult<T> = std::result::Result<T, CoreError>;

/// The unified error type of the whole Morpheus workspace.
///
/// Each layer's error converts into it with `?`, so code that crosses
/// layers — script evaluation over normalized matrices backed by dense,
/// sparse, and numerical kernels — threads a single [`Result`] alias:
///
/// ```
/// use morpheus_core::{MorpheusError, Result};
/// use morpheus_dense::DenseMatrix;
///
/// fn build(rows: usize, cols: usize, data: Vec<f64>) -> Result<DenseMatrix> {
///     // `?` converts DenseError into MorpheusError automatically.
///     Ok(DenseMatrix::from_vec(rows, cols, data)?)
/// }
///
/// let err = build(2, 2, vec![1.0; 3]).unwrap_err();
/// assert!(matches!(err, MorpheusError::Dense(_)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum MorpheusError {
    /// Normalized-matrix construction failed.
    Core(CoreError),
    /// A dense-matrix constructor rejected its input.
    Dense(DenseError),
    /// A sparse-matrix constructor rejected its input.
    Sparse(SparseError),
    /// A factorization or solver failed.
    Linalg(LinalgError),
    /// A scripting-layer failure (parse/type/shape), rendered to text.
    ///
    /// `morpheus-lang` sits above this crate in the dependency DAG, so its
    /// error type cannot appear here structurally; the `From<LangError>`
    /// impl lives in `morpheus-lang`.
    Lang(String),
    /// A data-ingestion failure (CSV/IO), rendered to text.
    ///
    /// As with [`MorpheusError::Lang`], the `From<CsvError>` impl lives in
    /// `morpheus-data`.
    Data(String),
}

impl fmt::Display for MorpheusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MorpheusError::Core(e) => write!(f, "core: {e}"),
            MorpheusError::Dense(e) => write!(f, "dense: {e}"),
            MorpheusError::Sparse(e) => write!(f, "sparse: {e}"),
            MorpheusError::Linalg(e) => write!(f, "linalg: {e}"),
            MorpheusError::Lang(msg) => write!(f, "lang: {msg}"),
            MorpheusError::Data(msg) => write!(f, "data: {msg}"),
        }
    }
}

impl std::error::Error for MorpheusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MorpheusError::Core(e) => Some(e),
            MorpheusError::Dense(e) => Some(e),
            MorpheusError::Sparse(e) => Some(e),
            MorpheusError::Linalg(e) => Some(e),
            MorpheusError::Lang(_) | MorpheusError::Data(_) => None,
        }
    }
}

impl From<CoreError> for MorpheusError {
    fn from(e: CoreError) -> Self {
        MorpheusError::Core(e)
    }
}

impl From<DenseError> for MorpheusError {
    fn from(e: DenseError) -> Self {
        MorpheusError::Dense(e)
    }
}

impl From<SparseError> for MorpheusError {
    fn from(e: SparseError) -> Self {
        MorpheusError::Sparse(e)
    }
}

impl From<LinalgError> for MorpheusError {
    fn from(e: LinalgError) -> Self {
        MorpheusError::Linalg(e)
    }
}

/// Workspace-wide result alias carrying [`MorpheusError`].
pub type Result<T> = std::result::Result<T, MorpheusError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::Empty.to_string().contains("at least one"));
        assert!(CoreError::RowCountMismatch {
            expected: 5,
            part: 1,
            found: 4
        }
        .to_string()
        .contains("part 1"));
        assert_eq!(
            CoreError::KeyOutOfRange {
                row: 2,
                key: 7,
                table_rows: 5
            }
            .to_string(),
            "key 7 at row 2 is out of range for a 5-row table"
        );
    }

    #[test]
    fn unified_error_wraps_every_layer() {
        let core: MorpheusError = CoreError::Empty.into();
        assert!(matches!(core, MorpheusError::Core(_)));
        assert!(core.to_string().starts_with("core: "));

        let dense: MorpheusError = DenseError::BufferLen {
            rows: 2,
            cols: 2,
            len: 3,
        }
        .into();
        assert!(matches!(dense, MorpheusError::Dense(_)));
        assert!(dense.to_string().contains("2x2"));

        let sparse: MorpheusError = SparseError::MalformedCsr("bad".into()).into();
        assert!(matches!(sparse, MorpheusError::Sparse(_)));

        let linalg: MorpheusError = LinalgError::Singular { pivot: 1 }.into();
        assert!(matches!(linalg, MorpheusError::Linalg(_)));
    }

    #[test]
    fn unified_error_exposes_structured_sources() {
        use std::error::Error as _;
        let e: MorpheusError = CoreError::Empty.into();
        assert!(e.source().is_some());
        assert!(MorpheusError::Lang("oops".into()).source().is_none());
        assert!(MorpheusError::Data("oops".into()).source().is_none());
    }

    #[test]
    fn question_mark_threads_through_result_alias() {
        fn inner() -> Result<()> {
            Err(LinalgError::NotPositiveDefinite { index: 0 })?;
            Ok(())
        }
        assert!(matches!(inner(), Err(MorpheusError::Linalg(_))));
    }
}
