//! Property tests for the hybrid bitmap/CSR pattern: under every lane
//! layout — forced CSR, forced bitmap, and mixed/adaptive plans including
//! promotion-boundary densities — [`HybridPattern`] must agree with a naive
//! dense reference on every kernel product to ≤ 1e-12, and a delta-patched
//! hybrid must stay logically equal to its from-scratch rebuild (which may
//! choose *different* formats for the same entry set).

use hnd_linalg::parallel::with_threads;
use hnd_linalg::{DensityPlan, HybridPattern, PatternDelta};
use proptest::prelude::*;

/// The lane-format plans every case runs under: the two forced layouts, a
/// mid-threshold mixed plan, and boundary plans that put typical random
/// lanes exactly at/next to the promotion density.
fn plans() -> Vec<(&'static str, DensityPlan)> {
    vec![
        ("force_csr", DensityPlan::force_csr()),
        ("force_bitmap", DensityPlan::force_bitmap()),
        (
            "mixed",
            DensityPlan {
                row_density: 0.3,
                col_density: 0.3,
                min_dim: 0,
            },
        ),
        (
            "rows_only",
            DensityPlan {
                row_density: 0.0,
                col_density: f64::INFINITY,
                min_dim: 0,
            },
        ),
        (
            "cols_only",
            DensityPlan {
                row_density: f64::INFINITY,
                col_density: 0.0,
                min_dim: 0,
            },
        ),
    ]
}

fn dense_vec(n: usize, scale: f64) -> Vec<f64> {
    (0..n).map(|i| scale * (i as f64 * 0.7 - 1.3)).collect()
}

/// Random entry set with deliberate empty rows/columns.
fn random_entries() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize)>)> {
    (1usize..=24, 1usize..=24).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec((0..rows, 0..cols), 0..160)
            .prop_map(move |entries| (rows, cols, entries))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_layout_matches_dense_reference((rows, cols, entries) in random_entries()) {
        let mut dense = vec![vec![false; cols]; rows];
        for &(r, c) in &entries {
            dense[r][c] = true;
        }
        let x = dense_vec(cols, 1.0);
        let xt = dense_vec(rows, 0.9);
        let scale_rows = dense_vec(rows, 0.31);
        let mut nnz = 0;
        let mut y_ref = vec![0.0; rows];
        let mut t_ref = vec![0.0; cols];
        // Scaled column reduction: Σ_r C[r][c]·xt[r]·scale_rows[r].
        let mut ts_ref = vec![0.0; cols];
        let mut row_counts = vec![0.0; rows];
        let mut col_counts = vec![0.0; cols];
        let mut row_lists = vec![Vec::new(); rows];
        let mut col_lists = vec![Vec::new(); cols];
        for r in 0..rows {
            for c in 0..cols {
                if dense[r][c] {
                    nnz += 1;
                    y_ref[r] += x[c];
                    t_ref[c] += xt[r];
                    ts_ref[c] += xt[r] * scale_rows[r];
                    row_counts[r] += 1.0;
                    col_counts[c] += 1.0;
                    row_lists[r].push(c);
                    col_lists[c].push(r);
                }
            }
        }

        for (name, plan) in plans() {
            let h = HybridPattern::with_plan(rows, cols, entries.iter().copied(), 0, 0, plan);
            prop_assert_eq!(h.nnz(), nnz, "{}", name);
            let mut y = vec![0.0; rows];
            let mut t = vec![0.0; cols];
            h.matvec(&x, &mut y);
            h.matvec_t(&xt, &mut t);
            for (a, b) in y.iter().zip(&y_ref) {
                prop_assert!((a - b).abs() <= 1e-12, "{name}: matvec");
            }
            for (a, b) in t.iter().zip(&t_ref) {
                prop_assert!((a - b).abs() <= 1e-12, "{name}: matvec_t");
            }
            let mut ts = vec![0.0; cols];
            h.cols_gather(&mut ts, |_, lane| lane.sum_scaled(&xt, &scale_rows));
            for (a, b) in ts.iter().zip(&ts_ref) {
                prop_assert!((a - b).abs() <= 1e-12, "{name}: scaled column gather");
            }
            // Counts are integer-derived: exact under every layout.
            prop_assert_eq!(&h.row_counts(), &row_counts, "{}", name);
            prop_assert_eq!(&h.col_counts(), &col_counts, "{}", name);
            // Index iteration agrees both ways.
            for (r, want) in row_lists.iter().enumerate() {
                prop_assert_eq!(&h.row_iter(r).collect::<Vec<_>>(), want, "{}: row {}", name, r);
            }
            for (c, want) in col_lists.iter().enumerate() {
                prop_assert_eq!(&h.col_iter(c).collect::<Vec<_>>(), want, "{}: col {}", name, c);
            }
        }
    }

    #[test]
    fn serial_and_parallel_hybrid_kernels_agree((rows, cols, entries) in random_entries()) {
        // Parallel chunking must stay bitwise exact per layout (each output
        // element is computed by exactly one closure call).
        for (name, plan) in plans() {
            let h = HybridPattern::with_plan(rows, cols, entries.iter().copied(), 0, 0, plan);
            let x = dense_vec(cols, 1.1);
            let y_ser = with_threads(1, || {
                let mut y = vec![0.0; rows];
                h.matvec(&x, &mut y);
                y
            });
            let y_par = with_threads(4, || {
                let mut y = vec![0.0; rows];
                h.matvec(&x, &mut y);
                y
            });
            prop_assert_eq!(y_ser, y_par, "{}", name);
        }
    }

    #[test]
    fn composed_deltas_match_full_rebuild_per_layout(
        (rows, cols, seed, flips) in (2usize..=16, 2usize..=16).prop_flat_map(|(rows, cols)| {
            (
                Just(rows),
                Just(cols),
                proptest::collection::vec((0..rows, 0..cols), 0..40),
                proptest::collection::vec(
                    proptest::collection::vec((0..rows, 0..cols), 1..10),
                    1..6,
                ),
            )
        })
    ) {
        for (name, plan) in plans() {
            // Enough sparse-lane slack that no batch exhausts a span;
            // bitmap lanes need none.
            let mut live =
                HybridPattern::with_plan(rows, cols, seed.iter().copied(), 16, 16, plan);
            let mut truth: std::collections::BTreeSet<(usize, usize)> =
                seed.iter().copied().collect();
            for batch in &flips {
                let mut delta = PatternDelta::default();
                let batch: std::collections::BTreeSet<(usize, usize)> =
                    batch.iter().copied().collect();
                for (r, c) in batch {
                    if truth.remove(&(r, c)) {
                        delta.removes.push((r as u32, c as u32));
                    } else {
                        truth.insert((r, c));
                        delta.adds.push((r as u32, c as u32));
                    }
                }
                live.apply_delta(&delta).expect("slack is sufficient");
                // The rebuild re-decides formats from the *new* densities —
                // logical equality must hold across that format drift.
                let rebuilt = HybridPattern::with_plan(
                    rows, cols, truth.iter().copied(), 0, 0, plan,
                );
                prop_assert_eq!(&live, &rebuilt, "{}", name);
                for c in 0..cols {
                    prop_assert_eq!(
                        live.col_iter(c).collect::<Vec<_>>(),
                        rebuilt.col_iter(c).collect::<Vec<_>>(),
                        "{}: column {} mirror", name, c
                    );
                }
                prop_assert_eq!(live.row_counts(), rebuilt.row_counts(), "{}", name);
                prop_assert_eq!(live.col_counts(), rebuilt.col_counts(), "{}", name);
            }
        }
    }

    #[test]
    fn forced_bitmap_deltas_never_exhaust((rows, cols, entries) in random_entries()) {
        // Zero slack everywhere: with every lane a bitmap, any consistent
        // delta applies — capacity errors are impossible by construction.
        let mut live = HybridPattern::with_plan(
            rows, cols, entries.iter().copied(), 0, 0, DensityPlan::force_bitmap(),
        );
        let mut truth: std::collections::BTreeSet<(usize, usize)> =
            entries.iter().copied().collect();
        let mut delta = PatternDelta::default();
        for r in 0..rows {
            for c in 0..cols {
                if (r + 2 * c) % 3 == 0 {
                    if truth.remove(&(r, c)) {
                        delta.removes.push((r as u32, c as u32));
                    } else {
                        truth.insert((r, c));
                        delta.adds.push((r as u32, c as u32));
                    }
                }
            }
        }
        live.apply_delta(&delta).expect("bitmap lanes cannot run out of capacity");
        let rebuilt = HybridPattern::with_plan(
            rows, cols, truth.iter().copied(), 0, 0, DensityPlan::force_bitmap(),
        );
        prop_assert_eq!(&live, &rebuilt);
    }
}

/// Promotion/demotion boundary: lanes sitting exactly at the threshold
/// promote, one entry below stays sparse, and crossing the boundary via
/// deltas only changes format at the next rebuild.
#[test]
fn promotion_boundary_is_exact_and_lazy() {
    let plan = DensityPlan {
        row_density: 0.5,
        col_density: 0.5,
        min_dim: 0,
    };
    let cols = 8usize;
    // Row 0: 4/8 = exactly at threshold ⇒ bitmap. Row 1: 3/8 ⇒ sparse.
    let entries = [(0, 0), (0, 2), (0, 5), (0, 7), (1, 1), (1, 3), (1, 6)];
    let mut p = HybridPattern::with_plan(2, cols, entries, 4, 4, plan);
    assert!(p.row_is_bitmap(0), "density exactly at threshold promotes");
    assert!(
        !p.row_is_bitmap(1),
        "one entry below the boundary stays sparse"
    );

    // Push row 1 over the threshold via a delta: the format must NOT
    // change mid-patch (promotion is lazy, at rebuild points only)…
    p.apply_delta(&PatternDelta {
        removes: vec![],
        adds: vec![(1, 0), (1, 2)],
    })
    .unwrap();
    assert!(!p.row_is_bitmap(1), "apply_delta never migrates formats");
    assert_eq!(p.row_nnz(1), 5);

    // …and the rebuild (the promotion point) re-decides from the new
    // density.
    let rebuilt = HybridPattern::with_plan(
        2,
        cols,
        (0..2).flat_map(|r| p.row_iter(r).map(move |c| (r, c)).collect::<Vec<_>>()),
        0,
        0,
        plan,
    );
    assert!(rebuilt.row_is_bitmap(1), "rebuild promotes the grown row");
    assert_eq!(&p, &rebuilt, "format drift is logically invisible");

    // Demotion side: shrink row 0 below the boundary; the rebuild demotes.
    let mut p2 = rebuilt.clone();
    p2.apply_delta(&PatternDelta {
        removes: vec![(0, 0), (0, 2)],
        adds: vec![],
    })
    .unwrap();
    assert!(p2.row_is_bitmap(0), "still bitmap until the rebuild");
    let rebuilt2 = HybridPattern::with_plan(
        2,
        cols,
        (0..2).flat_map(|r| p2.row_iter(r).map(move |c| (r, c)).collect::<Vec<_>>()),
        0,
        0,
        plan,
    );
    assert!(
        !rebuilt2.row_is_bitmap(0),
        "rebuild demotes below the boundary (2/8 < 0.5)"
    );
    assert_eq!(&p2, &rebuilt2);
}
