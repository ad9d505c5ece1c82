#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index-coupled numerics mirror the published algorithms

//! # hnd-core
//!
//! The paper's primary contribution: the **HITSnDIFFS** family of spectral
//! ability-discovery algorithms (Section III).
//!
//! The chain of ideas, mirrored by this crate's modules:
//!
//! 1. [`operators`] — AvgHITS averages instead of sums: `U = Crow (Ccol)ᵀ`.
//!    Its dominant eigenvector is the useless all-ones vector (Lemma 4);
//!    the *second* eigenvector carries the user ordering (Theorem 1).
//! 2. [`avghits`] — the plain AvgHITS iteration, kept as an executable
//!    demonstration of Lemmas 3–4.
//! 3. [`hnd`] — HND-power (Algorithm 1): iterate the *difference update*
//!    matrix `Udiff = S U T` on adjacent score differences; its dominant
//!    eigenvector is the difference of `U`'s second eigenvector (Lemma 1),
//!    recovered in `O(mn)` per iteration.
//! 4. [`hnd_deflation`] / [`hnd_direct`] — the two alternative
//!    implementations benchmarked in Section IV-C (Hotelling deflation and
//!    a Lanczos "direct" solver).
//! 5. [`naive`] — the `O(m²n)` materialize-`Udiff` implementation, kept as
//!    an ablation baseline for the complexity claims of Section III-F.
//! 6. Symmetry breaking — reversing a C1P order yields another C1P order;
//!    the decile-entropy rule of Section III-D picks the direction (it
//!    lives in [`hnd_response::orientation`] and is re-exported here).
//!
//! ## Kernel-engine architecture
//!
//! Every variant above is a loop over products with the one-hot response
//! matrix `C`, so this crate's operators are thin compositions over the
//! shared kernel engine (see the `hnd-linalg` crate docs for the full
//! picture):
//!
//! * `C` lives as a structure-only pattern matrix
//!   (`hnd_linalg::HybridPattern`: u32-index or bitmap lanes, no values
//!   array, precomputed column mirror), so both `C·w` and `Cᵀ·s` are
//!   parallel gather loops and the `Crow`/`Ccol`/`Dr^{-1/2}` diagonal
//!   scalings fuse into the same pass (`hnd_response::ResponseOps`).
//! * Each operator ([`UOp`], [`UTransposeOp`], [`UDiffOp`],
//!   [`SymmetrizedUOp`]) owns a reusable
//!   [`hnd_response::KernelWorkspace`], allocated once at construction:
//!   applying an operator inside power iteration, Hotelling deflation or
//!   Lanczos performs **zero heap allocations** (`tests/zero_alloc.rs`
//!   enforces this with a counting global allocator).
//! * Parallelism switches: gathers split their output across scoped
//!   threads, governed by `HND_THREADS` /
//!   `hnd_linalg::parallel::with_threads`; batches of matrices parallelize
//!   across rankings via [`hnd_response::rank_many`]. Serial and parallel
//!   results are bitwise identical.
//!
//! ## Unified solver layer
//!
//! Every variant implements the [`SpectralSolver`] trait over one shared
//! [`SolverOpts`] (tolerance / iteration budget / Krylov subspace budget /
//! start seed / orientation — previously duplicated, and drifting, across
//! the structs). [`SolverKind`] builds any variant behind
//! `Box<dyn SpectralSolver>`; [`SpectralSolver::solve_prepared`] accepts a
//! caller-maintained kernel context (`ResponseOps`, possibly patched in
//! place via `ResponseOps::apply_delta`) plus a [`SolveState`] warm start,
//! which is how the `hnd-service` ranking engine serves streams of edits
//! without ever rebuilding the pattern or restarting iterations from
//! scratch.

pub mod approx;
pub mod avghits;
pub mod diagnostics;
pub mod hnd;
pub mod hnd_arnoldi;
pub mod hnd_deflation;
pub mod hnd_direct;
pub mod naive;
pub mod operators;
pub mod solver;

pub use avghits::AvgHits;
pub use diagnostics::SpectralDiagnostics;
pub use hnd::HitsNDiffs;
pub use hnd_arnoldi::HndArnoldi;
pub use hnd_deflation::HndDeflation;
pub use hnd_direct::HndDirect;
pub use naive::HndNaive;
pub use operators::{SymmetrizedUOp, UDiffOp, UOp, UTransposeOp};
pub use solver::{SolveOutcome, SolveState, SolverKind, SolverOpts, SpectralSolver, Target};

// Re-export the shared abstractions so `hnd_core` is a one-stop dependency
// for downstream users of the facade crate.
pub use hnd_response::{
    orient_by_decile_entropy, AbilityRanker, RankError, Ranking, ResponseMatrix, ResponseOps,
};
