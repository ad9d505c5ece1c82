//! Verifies the kernel engine's zero-allocation contract: once an operator
//! is constructed, applying it — the body of every power/Lanczos iteration —
//! performs no heap allocation. A counting global allocator wraps the
//! system allocator; the count must not move across applications.
//!
//! The parallel path spawns threads (which allocate), so the hot loop runs
//! under `with_threads(1)` — exactly the configuration of a per-matrix
//! worker inside `rank_many`, where parallelism lives *across* matrices.

use hnd_core::operators::{SymmetrizedUOp, UDiffOp, UOp, UTransposeOp};
use hnd_linalg::op::LinearOp;
use hnd_linalg::parallel::with_threads;
use hnd_linalg::DensityPlan;
use hnd_response::{ResponseMatrix, ResponseOps};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A mid-sized random-ish response matrix (120 users × 40 items × 3
/// options, ~10% skips) built without RNG dependencies.
fn test_matrix() -> ResponseMatrix {
    let m = 120usize;
    let n = 40usize;
    let rows: Vec<Vec<Option<u16>>> = (0..m)
        .map(|j| {
            (0..n)
                .map(|i| {
                    let h = j.wrapping_mul(31).wrapping_add(i.wrapping_mul(17)) % 30;
                    if h < 3 {
                        None
                    } else {
                        Some((h % 3) as u16)
                    }
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[Option<u16>]> = rows.iter().map(|r| r.as_slice()).collect();
    ResponseMatrix::from_choices(n, &vec![3u16; n], &refs).unwrap()
}

fn assert_alloc_free(label: &str, mut apply: impl FnMut()) {
    // Warm-up: lets lazily-grown scratch (e.g. the cumsum buffer) reach
    // its final capacity.
    apply();
    apply();
    // A large window (200 applications): an operator that allocates even
    // *periodically* — say every 64th apply via amortized growth — still
    // shows up.
    let before = allocations();
    for _ in 0..200 {
        apply();
    }
    let leaked = allocations() - before;
    assert_eq!(
        leaked, 0,
        "{label}: {leaked} allocations across 200 applications"
    );
}

#[test]
fn zero_allocation_contract() {
    // Sanity-check the harness itself: an allocation must move the counter.
    let before = allocations();
    let v: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&v);
    assert!(
        allocations() > before,
        "allocator wrapper must observe allocs"
    );
    drop(v);

    let matrix = test_matrix();
    let ops = ResponseOps::new(&matrix);
    let m = ops.n_users();

    with_threads(1, || {
        let udiff = UDiffOp::new(&ops);
        let x = hnd_linalg::power::deterministic_start(m - 1);
        let mut y = vec![0.0; m - 1];
        assert_alloc_free("UDiffOp::apply", || udiff.apply(&x, &mut y));

        let u = UOp::new(&ops);
        let xs = hnd_linalg::power::deterministic_start(m);
        let mut ys = vec![0.0; m];
        assert_alloc_free("UOp::apply", || u.apply(&xs, &mut ys));

        let ut = UTransposeOp::new(&ops);
        assert_alloc_free("UTransposeOp::apply", || ut.apply(&xs, &mut ys));

        let sym = SymmetrizedUOp::new(&ops);
        assert_alloc_free("SymmetrizedUOp::apply", || sym.apply(&xs, &mut ys));

        let d = ops.cct_row_sums();
        let mut w = vec![0.0; ops.n_option_columns()];
        assert_alloc_free("laplacian_apply", || {
            ops.laplacian_apply(&d, &xs, &mut w, &mut ys)
        });

        let u2 = UOp::new(&ops);
        let ones = vec![1.0; m];
        let deflated = hnd_linalg::DeflatedOp::new(&u2, vec![ones]);
        let xd = hnd_linalg::power::deterministic_start(m);
        let mut yd = vec![0.0; m];
        assert_alloc_free("DeflatedOp::apply", || deflated.apply(&xd, &mut yd));

        // The hybrid engine's bitmap kernels must honor the same contract:
        // every lane forced to bitmap form, so each apply runs the SIMD
        // word kernels (and the sum_scaled paths) end to end. The SIMD-tier
        // detection caches into a static on first use — the constructor
        // applications below warm it before the counted windows.
        let bitmap_ops = ResponseOps::with_plan(&matrix, 0, 0, DensityPlan::force_bitmap());
        let f = bitmap_ops.format_counts();
        assert_eq!(f.sparse_rows + f.sparse_cols, 0, "forced-bitmap layout");

        let udiff_b = UDiffOp::new(&bitmap_ops);
        let xb = hnd_linalg::power::deterministic_start(m - 1);
        let mut yb = vec![0.0; m - 1];
        assert_alloc_free("UDiffOp::apply (bitmap)", || udiff_b.apply(&xb, &mut yb));

        let ut_b = UTransposeOp::new(&bitmap_ops);
        let mut ysb = vec![0.0; m];
        assert_alloc_free("UTransposeOp::apply (bitmap)", || ut_b.apply(&xs, &mut ysb));

        let sym_b = SymmetrizedUOp::new(&bitmap_ops);
        assert_alloc_free("SymmetrizedUOp::apply (bitmap)", || {
            sym_b.apply(&xs, &mut ysb)
        });

        // The O(1) bit-flip delta path allocates nothing either (the
        // PatternDelta buffers are caller-owned and reused).
        let mut pattern = bitmap_ops.pattern().clone();
        let delta_in = hnd_linalg::PatternDelta {
            removes: vec![],
            adds: vec![(0, 1)],
        };
        let delta_out = hnd_linalg::PatternDelta {
            removes: vec![(0, 1)],
            adds: vec![],
        };
        assert!(!pattern.contains(0, 1), "test matrix leaves (0,1) unset");
        assert_alloc_free("HybridPattern::apply_delta (bitmap bit flips)", || {
            pattern.apply_delta(&delta_in).expect("bitmap insert");
            pattern.apply_delta(&delta_out).expect("bitmap remove");
        });
    });

    // The telemetry hot path honors the same contract: flight-recorder
    // event pushes (the ring is preallocated and overwrites in place, even
    // past wrap-around), stage histogram records (fixed atomic arrays),
    // and counter bumps must all be allocation-free — default-on telemetry
    // may not put allocations back into the solve loop this binary just
    // proved clean.
    {
        use hnd_telemetry::{Counter, EventKind, Stage, TelemetryHub};
        let hub = TelemetryHub::new(2, true);
        let mut tick = 0u64;
        assert_alloc_free("TelemetryHub::record (ring event)", || {
            tick += 1;
            hub.record(
                0,
                7,
                tick,
                EventKind::Dequeue {
                    cmd: hnd_telemetry::CommandKind::Ranking,
                    dwell_ns: tick * 37,
                },
            );
        });
        assert_alloc_free("TelemetryHub::record_stage (histogram)", || {
            tick += 1;
            hub.record_stage(Stage::Solve, tick * 1013);
        });
        assert_alloc_free("TelemetryHub::bump (counter)", || {
            hub.bump(Counter::RepliesOk);
        });
    }
}
