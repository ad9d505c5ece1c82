#![warn(missing_docs)]

//! # hnd-plan
//!
//! Self-calibrating kernel-cost catalog and cost-model planner for the
//! spectral serving stack.
//!
//! PRs 1–5 tuned every hot-path layout decision by hand on one 1-vCPU
//! AVX-512 box: the density promotion thresholds (~12% rows / ~28%
//! columns), the 16 MiB shard working set, the ~nnz/8 delta-vs-rebuild
//! cutoff, the shard activation floors. Those constants are right on that
//! box and guesses everywhere else. This crate makes the system measure
//! itself instead:
//!
//! * [`calibrate`] microbenchmarks the primitive kernels the stack is
//!   built from — CSR gathers, bitmap word scans, in-place patches, bit
//!   flips, lane rebuilds, shard partial composes — over density × size ×
//!   thread grids, on the machine it runs on.
//! * [`KernelCatalog`] persists the measured rates per host (versioned,
//!   fingerprint-checked: a catalog from another ISA or core count is
//!   stale and recalibrated, never trusted).
//! * [`CostModel`] interpolates the catalog into predicted nanoseconds
//!   for composite engine operations (`predict_apply` / `predict_delta` /
//!   `predict_rebuild` / `predict_solve`).
//! * [`Planner`] turns predictions into per-session decisions — backend
//!   (single vs sharded + shard count), lane-format thresholds at the
//!   *measured* break-even density, and the patch-vs-rebuild budget — and
//!   closes the loop: engines report predicted-vs-actual nanoseconds,
//!   [`Planner::refresh`] blends the drift back into the catalog.
//!
//! Everything degrades gracefully: with no catalog present (or
//! `HND_PLAN=static`), [`Planner::shared`] returns `None` and the serving
//! layer runs on the documented hand-tuned fallbacks, bit-identical to
//! PR 5.

pub mod calibrate;
pub mod catalog;
pub mod model;
pub mod planner;

pub use calibrate::{calibrate, CalibrationOpts};
pub use catalog::{
    catalog_path, CatalogEntry, CatalogError, HostFingerprint, KernelCatalog, KernelClass,
    CATALOG_VERSION,
};
pub use model::{density_bucket, CostModel, SessionShape, HIST_BUCKETS};
pub use planner::{PlanDecision, Planner};
