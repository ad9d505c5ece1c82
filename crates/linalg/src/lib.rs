#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-coupled numerics mirror the published algorithms

//! # hnd-linalg
//!
//! Self-contained numerical linear algebra for the HITSnDIFFS reproduction.
//!
//! The paper's algorithms need exactly four numerical capabilities, all of
//! which are implemented here from scratch (no BLAS, no `ndarray`):
//!
//! * dense and sparse (CSR) matrices with matrix–vector products
//!   ([`dense`], [`sparse`]),
//! * power iteration with sign-aware convergence ([`power`]) — the engine
//!   behind `HND-power` and `ABH-power`,
//! * Hotelling deflation for second-eigenvector extraction on asymmetric
//!   matrices ([`deflation`]) — the engine behind `HND-deflation`,
//! * Lanczos tridiagonalization plus a symmetric tridiagonal QL eigensolver
//!   ([`lanczos`], [`tridiag`]) — the engine behind `ABH-direct` and
//!   `HND-direct`.
//!
//! A dense Jacobi eigensolver ([`jacobi`]) serves as the slow-but-trusted
//! reference implementation used by the test suites of the other solvers.
//!
//! All operators are expressed through the matrix-free [`LinearOp`] trait so
//! that the spectral methods of the paper run in `O(nnz)` per iteration
//! without ever materializing `U`, `Udiff`, `L` or `M` (Section III-F of the
//! paper).
//!
//! ## The kernel engine
//!
//! Since every spectral method reduces to repeated products with the binary
//! response matrix `C`, kernel throughput is system throughput. Four layers
//! make those products run at memory speed:
//!
//! * **Pattern matrix** ([`hybrid::HybridPattern`]): `C` is 0/1, so it is
//!   stored structure-only — sparse lanes are CSR spans of `u32` indices
//!   with no values array, halving index traffic and removing a pointless
//!   8-byte load + multiply per entry. A precomputed column mirror turns
//!   `Cᵀ·s` from a serial scatter into a row-/column-parallel *gather*,
//!   mirroring `C·w`. In-place edits arrive as [`pattern::PatternDelta`]s.
//! * **Density-adaptive hybrid lanes**: rows and mirror columns whose
//!   density crosses a [`DensityPlan`](hybrid::DensityPlan) threshold
//!   drop the index list entirely and store 64-bit bitmap blocks, reduced
//!   by runtime-dispatched branchless SIMD word kernels ([`simd`]) — ~32×
//!   less index traffic on dense lanes, and in-place edits become O(1) bit
//!   flips with no slack accounting. Sparse lanes keep the u32 CSR layout; the closure-based
//!   gather API is format-transparent ([`hybrid::Lane`]).
//! * **Fused scaled gathers**: [`hybrid::HybridPattern::rows_gather`] /
//!   [`hybrid::HybridPattern::cols_gather`] take the whole per-row/column
//!   reduction as a closure, so the `Crow`/`Ccol` diagonal normalizations
//!   (and the `Dr^{-1/2}` symmetrization) fold into the same pass instead
//!   of costing separate sweeps and `scaled` temporaries.
//! * **Parallelism** ([`parallel`]): gathers split the output slice across
//!   scoped threads (`HND_THREADS`/[`parallel::with_threads`] control the
//!   worker count; small outputs stay serial). Chunks are contiguous and
//!   each element is written once, so parallel results are bitwise equal to
//!   serial ones.
//!
//! Iteration drivers ([`power`], [`lanczos`], [`deflation`], the operator
//! combinators in [`op`]) keep all scratch buffers caller- or
//! operator-owned: after warm-up, no heap allocation happens inside an
//! iteration loop (verified by the counting-allocator test in
//! `hnd-core/tests/zero_alloc.rs`).

pub mod arnoldi;
pub mod dense;
pub mod hessenberg;
pub mod hybrid;
pub mod jacobi;
pub mod lanczos;
pub mod op;
pub mod parallel;
pub mod pattern;
pub mod power;
pub mod simd;
pub mod sparse;
pub mod tridiag;
pub mod vector;

pub mod deflation;

pub use arnoldi::{arnoldi_largest, ArnoldiOptions, ArnoldiPair};
pub use dense::DenseMatrix;
pub use hybrid::{DensityPlan, FormatCounts, HybridPattern, Lane};
pub use lanczos::{lanczos_extreme, LanczosOptions, RitzPair, Which};
pub use op::{DeflatedOp, DenseOp, LinearOp, ScaledOp, ShiftedOp};
pub use pattern::{DeltaError, PatternDelta};
pub use power::{power_iteration, PowerOptions, PowerOutcome};
pub use simd::KernelIsa;
pub use sparse::CsrMatrix;

/// Error type for the (few) fallible operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix/vector dimensions do not agree for the requested operation.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Dimension actually provided.
        got: usize,
    },
    /// An iterative solver failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input matrix is empty or otherwise degenerate.
    Degenerate(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            LinalgError::Degenerate(msg) => write!(f, "degenerate input: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}
