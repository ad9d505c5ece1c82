//! The planner: per-session configuration decisions driven by the cost
//! model, plus the predicted-vs-actual feedback loop that keeps the
//! catalog honest.
//!
//! A [`Planner`] is built once per process (usually leaked to `'static`
//! so the `Copy` engine options can carry a reference) and shared by every
//! engine. [`Planner::plan`] turns a [`SessionShape`] into a
//! [`PlanDecision`]: backend + shard count, measured-break-even
//! [`DensityPlan`], and the delta-vs-rebuild patch budget. Engines report
//! `(predicted, actual)` nanoseconds per kernel class through
//! [`Planner::observe`]; [`Planner::refresh`] folds the observed ratios
//! into the catalog's correction factors with an exponential blend.

use crate::catalog::{catalog_path, KernelCatalog, KernelClass};
use crate::model::{CostModel, SessionShape};
use hnd_linalg::{parallel, DensityPlan};
use hnd_shard::ShardPlan;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// `true` when an `HND_PLAN` value pins the hand-tuned fallback constants
/// (`static`, any case); anything else, or unset, plans from the catalog.
fn pins_static(hnd_plan: Option<&str>) -> bool {
    hnd_plan.is_some_and(|v| v.eq_ignore_ascii_case("static"))
}

/// Everything an engine needs to configure itself for one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanDecision {
    /// `None` → single-pattern backend; `Some(plan)` → sharded execution
    /// with the plan's exact shard count.
    pub shard_plan: Option<ShardPlan>,
    /// Number of shards behind `shard_plan` (1 for the single backend).
    pub shards: usize,
    /// Lane-format thresholds derived from measured break-evens.
    pub density_plan: DensityPlan,
    /// Patch up to this many sparse-lane edits before a rebuild wins.
    pub patch_budget: usize,
    /// Entry count the decision was computed for (re-plan on 2× drift).
    pub planned_nnz: usize,
    /// Predicted nanoseconds for one apply pass under this decision.
    pub predicted_apply_ns: f64,
    /// Predicted nanoseconds per sparse-lane patch edit.
    pub predicted_patch_edit_ns: f64,
    /// Predicted nanoseconds for a full rebuild.
    pub predicted_rebuild_ns: f64,
    /// Predicted nanoseconds for a cold power-method solve.
    pub predicted_solve_ns: f64,
}

impl PlanDecision {
    /// Whether skipping a solve for a wave of `edits` pending edits is
    /// worth the bound evaluation: the solve being avoided must cost more
    /// than pricing the wave (one perturbation-bound pass over the edits,
    /// which scales like the patch path). With an unmeasured model (both
    /// predictions zero) this stays `true` — the skip path's own safety
    /// gates still apply.
    pub fn skip_profitable(&self, edits: usize) -> bool {
        self.predicted_solve_ns > edits as f64 * self.predicted_patch_edit_ns
    }
}

/// Per-class feedback accumulators (nanosecond sums; `u64` keeps the
/// planner lock-free on the observe path and `Eq`-friendly upstream).
#[derive(Debug, Default)]
struct Feedback {
    predicted_ns: AtomicU64,
    actual_ns: AtomicU64,
}

/// Shard counts the planner evaluates (beyond this, compose overhead and
/// scheduling noise dominate on every box we target).
const SHARD_CANDIDATES: [usize; 5] = [1, 2, 4, 8, 16];

/// Sessions below this entry count never shard: the catalog grids don't
/// extend that low and the fixed per-shard overhead is unamortizable.
const SHARD_NNZ_FLOOR: usize = 100_000;

/// Patch budgets never drop below this many edits (a rebuild can never
/// beat a handful of memmoves, whatever the model says).
const MIN_PATCH_BUDGET: usize = 16;

/// The cost-model planner. Shared immutably (`&'static`) across engines;
/// feedback goes through atomics and the model behind a mutex.
pub struct Planner {
    model: Mutex<CostModel>,
    feedback: [Feedback; KernelClass::ALL.len()],
    /// Exponential blend weight folded into corrections per refresh.
    alpha: f64,
}

impl std::fmt::Debug for Planner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planner")
            .field("fingerprint", &self.lock().catalog().fingerprint)
            .field("alpha", &self.alpha)
            .finish_non_exhaustive()
    }
}

impl PartialEq for Planner {
    /// Identity comparison: two planner references are equal when they are
    /// the same planner (options structs only need to compare wiring).
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Planner {
    /// Wraps a calibrated catalog.
    pub fn new(catalog: KernelCatalog) -> Self {
        Planner {
            model: Mutex::new(CostModel::new(catalog)),
            feedback: Default::default(),
            alpha: 0.3,
        }
    }

    /// Leaks a planner to `'static` so `Copy` option structs can carry it.
    pub fn leaked(catalog: KernelCatalog) -> &'static Planner {
        Box::leak(Box::new(Planner::new(catalog)))
    }

    /// The process-wide planner: lazily loads the per-host catalog from
    /// [`catalog_path`] on first use. `None` when no current catalog
    /// exists (stale fingerprint, wrong version, or never calibrated) or
    /// when `HND_PLAN=static` pins the fallback constants — engines then
    /// run on the hand-tuned PR-5 defaults, bit-identical to before.
    pub fn shared() -> Option<&'static Planner> {
        static SHARED: OnceLock<Option<&'static Planner>> = OnceLock::new();
        *SHARED.get_or_init(|| {
            if pins_static(std::env::var("HND_PLAN").ok().as_deref()) {
                return None;
            }
            let catalog = KernelCatalog::load_checked(&catalog_path()).ok()?;
            Some(Planner::leaked(catalog))
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CostModel> {
        self.model.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` against the wrapped cost model (read-only snapshot view).
    pub fn with_model<R>(&self, f: impl FnOnce(&CostModel) -> R) -> R {
        f(&self.lock())
    }

    /// Plans one session. `allow_sharded` gates the sharded backend (the
    /// engine passes `false` when its solver family has no sharded path or
    /// options pin a shard plan already).
    pub fn plan(&self, shape: &SessionShape, allow_sharded: bool) -> PlanDecision {
        let threads = parallel::threads();
        let model = self.lock();

        // Density plan from measured break-evens: row lanes span the
        // option columns, mirror column lanes span the users. A break-even
        // above 1.0 means bitmaps never win at that dimension.
        let fallback = DensityPlan::default();
        let to_threshold = |be: Option<f64>, fallback: f64| match be {
            Some(d) if d <= 1.0 => d.max(0.02),
            Some(_) => f64::INFINITY,
            None => fallback,
        };
        let density_plan = DensityPlan {
            row_density: to_threshold(
                model.break_even_density(shape.cols.max(1), threads),
                fallback.row_density,
            ),
            col_density: to_threshold(
                model.break_even_density(shape.users.max(1), threads),
                fallback.col_density,
            ),
            min_dim: 128,
        };

        // Backend: argmin of predicted apply cost over shard candidates.
        let mut shards = 1usize;
        let mut predicted_apply_ns = model.predict_apply(shape, &density_plan, threads, 1);
        if allow_sharded && shape.nnz >= SHARD_NNZ_FLOOR {
            for &s in &SHARD_CANDIDATES[1..] {
                // Keep shards meaningful: at least ~4k users each.
                if shape.users / s < 4096 {
                    break;
                }
                let cost = model.predict_apply(shape, &density_plan, threads, s);
                if cost < predicted_apply_ns {
                    predicted_apply_ns = cost;
                    shards = s;
                }
            }
        }

        // Delta-vs-rebuild cutoff: patch while cumulative patch cost stays
        // under one rebuild.
        let predicted_rebuild_ns = model.predict_rebuild(shape);
        let predicted_patch_edit_ns = model
            .rate(
                KernelClass::CsrPatch,
                shape.users.max(1),
                shape.density(),
                1,
            )
            .unwrap_or(0.0);
        let patch_budget = if predicted_patch_edit_ns > 0.0 && predicted_rebuild_ns > 0.0 {
            ((predicted_rebuild_ns / predicted_patch_edit_ns) as usize).max(MIN_PATCH_BUDGET)
        } else {
            // No measurement: keep the PR-5 heuristic.
            shape.nnz / 8 + MIN_PATCH_BUDGET
        };

        let predicted_solve_ns = model.predict_solve(shape, &density_plan, threads, shards, 1.0);

        PlanDecision {
            shard_plan: (shards > 1).then(|| ShardPlan::exactly(shards)),
            shards,
            density_plan,
            patch_budget,
            planned_nnz: shape.nnz,
            predicted_apply_ns,
            predicted_patch_edit_ns,
            predicted_rebuild_ns,
            predicted_solve_ns,
        }
    }

    /// Records one predicted-vs-actual pair for a kernel class. Lock-free;
    /// engines call this on their hot paths.
    pub fn observe(&self, class: KernelClass, predicted_ns: u64, actual_ns: u64) {
        let fb = &self.feedback[class.index()];
        fb.predicted_ns.fetch_add(predicted_ns, Ordering::Relaxed);
        fb.actual_ns.fetch_add(actual_ns, Ordering::Relaxed);
    }

    /// Per-class observed drift `actual / predicted` since the last
    /// refresh (`None` where nothing was observed).
    pub fn drift(&self) -> [Option<f64>; KernelClass::ALL.len()] {
        let mut out = [None; KernelClass::ALL.len()];
        for (i, fb) in self.feedback.iter().enumerate() {
            let p = fb.predicted_ns.load(Ordering::Relaxed);
            let a = fb.actual_ns.load(Ordering::Relaxed);
            if p > 0 && a > 0 {
                out[i] = Some(a as f64 / p as f64);
            }
        }
        out
    }

    /// Folds accumulated drift into the catalog's per-class correction
    /// factors (`corr ← corr · ratio^α`, the exponential blend) and resets
    /// the accumulators. Ratios are clamped to one decade per refresh so a
    /// single anomalous window cannot wreck the model.
    pub fn refresh(&self) {
        let drift = self.drift();
        let mut model = self.lock();
        for (i, ratio) in drift.iter().enumerate() {
            if let Some(r) = ratio {
                let r = r.clamp(0.1, 10.0);
                let corrections = &mut model.catalog_mut().corrections;
                corrections[i] = (corrections[i] * r.powf(self.alpha)).clamp(0.05, 20.0);
            }
            self.feedback[i].predicted_ns.store(0, Ordering::Relaxed);
            self.feedback[i].actual_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Persists the (possibly refreshed) catalog.
    pub fn persist(&self, path: &Path) -> Result<(), crate::catalog::CatalogError> {
        self.lock().catalog().save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{calibrate, CalibrationOpts};
    use crate::model::SessionShape;

    fn quick_planner() -> Planner {
        Planner::new(calibrate(&CalibrationOpts::quick()))
    }

    fn shape(users: usize, cols: usize, density: f64) -> SessionShape {
        let row_counts = vec![(density * cols as f64) as usize; users];
        let col_counts = vec![(density * users as f64) as usize; cols];
        SessionShape::from_counts(&row_counts, &col_counts)
    }

    #[test]
    fn small_sessions_stay_single_backend() {
        let planner = quick_planner();
        let decision = planner.plan(&shape(2000, 50, 0.2), true);
        assert_eq!(decision.shards, 1);
        assert!(decision.shard_plan.is_none());
        assert!(decision.patch_budget >= MIN_PATCH_BUDGET);
        assert!(decision.predicted_apply_ns > 0.0);
        assert!(decision.predicted_rebuild_ns > 0.0);
    }

    #[test]
    fn sharding_respects_gate() {
        let planner = quick_planner();
        let big = shape(100_000, 40, 0.5);
        let gated = planner.plan(&big, false);
        assert_eq!(gated.shards, 1, "allow_sharded=false must pin Single");
        let open = planner.plan(&big, true);
        if open.shards > 1 {
            let plan = open.shard_plan.expect("sharded decision carries a plan");
            assert_eq!(plan.shard_count(big.nnz), open.shards);
        }
    }

    #[test]
    fn feedback_blends_corrections() {
        let planner = quick_planner();
        let before =
            planner.with_model(|m| m.catalog().corrections[KernelClass::CsrGather.index()]);
        // Report the kernel running 4× slower than predicted.
        planner.observe(KernelClass::CsrGather, 1_000, 4_000);
        assert!(planner.drift()[KernelClass::CsrGather.index()].unwrap() > 3.9);
        planner.refresh();
        let after = planner.with_model(|m| m.catalog().corrections[KernelClass::CsrGather.index()]);
        assert!(after > before, "correction must move toward observed cost");
        // Accumulators reset on refresh.
        assert!(planner.drift()[KernelClass::CsrGather.index()].is_none());
    }

    #[test]
    fn hnd_plan_static_env_parsing() {
        // Uses the parsing helper directly (env mutation in tests races).
        assert!(pins_static(Some("static")));
        assert!(pins_static(Some("STATIC")));
        assert!(!pins_static(Some("auto")));
        assert!(!pins_static(Some("")));
        assert!(!pins_static(None));
    }
}
