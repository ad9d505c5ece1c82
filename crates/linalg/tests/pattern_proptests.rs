//! Property tests for the u32 sparse-lane layout of `HybridPattern`
//! (`DensityPlan::force_csr`, where slack capacity and rollback apply): it
//! must agree with the general `CsrMatrix` on every product, round-trip its
//! pattern exactly, roll failed deltas back completely, and produce
//! identical results serially and in parallel — including degenerate
//! shapes (empty rows, empty columns).

use hnd_linalg::parallel::with_threads;
use hnd_linalg::{CsrMatrix, DensityPlan, HybridPattern, PatternDelta};
use proptest::prelude::*;

/// A sparse-lane pattern with `row_slack`/`col_slack` spare slots per lane.
fn csr_pattern(
    rows: usize,
    cols: usize,
    pairs: impl IntoIterator<Item = (usize, usize)>,
    row_slack: usize,
    col_slack: usize,
) -> HybridPattern {
    HybridPattern::with_plan(
        rows,
        cols,
        pairs,
        row_slack,
        col_slack,
        DensityPlan::force_csr(),
    )
}

/// The pattern of a general CSR matrix (stored values ignored).
fn from_csr(matrix: &CsrMatrix) -> HybridPattern {
    csr_pattern(
        matrix.rows(),
        matrix.cols(),
        (0..matrix.rows()).flat_map(|i| matrix.row_iter(i).map(move |(c, _)| (i, c))),
        0,
        0,
    )
}

/// Random sparsity pattern with deliberate empty rows/columns: dimensions
/// up to 24×24, each candidate entry kept with probability ~1/3, and the
/// last row/column left empty half of the time by bounding indices.
fn random_pattern() -> impl Strategy<Value = HybridPattern> {
    (1usize..=24, 1usize..=24).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec((0..rows, 0..cols, proptest::bool::ANY), 0..160).prop_map(
            move |entries| {
                csr_pattern(
                    rows,
                    cols,
                    entries
                        .into_iter()
                        .filter(|&(_, _, keep)| keep)
                        .map(|(r, c, _)| (r, c)),
                    0,
                    0,
                )
            },
        )
    })
}

fn dense_vec(n: usize, scale: f64) -> Vec<f64> {
    (0..n).map(|i| scale * (i as f64 * 0.7 - 1.3)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pattern_matches_general_csr(p in random_pattern()) {
        // The same products through the valued CSR path must agree.
        let csr = p.to_csr();
        let x = dense_vec(p.cols(), 1.0);
        let mut y_pat = vec![0.0; p.rows()];
        let mut y_csr = vec![0.0; p.rows()];
        p.matvec(&x, &mut y_pat);
        csr.matvec(&x, &mut y_csr);
        for (a, b) in y_pat.iter().zip(&y_csr) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        let xt = dense_vec(p.rows(), 0.9);
        let mut t_pat = vec![0.0; p.cols()];
        let mut t_csr = vec![0.0; p.cols()];
        p.matvec_t(&xt, &mut t_pat);
        csr.matvec_t(&xt, &mut t_csr);
        for (a, b) in t_pat.iter().zip(&t_csr) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        // Count vectors agree with the CSR sums (values are all 1).
        prop_assert_eq!(p.row_counts(), csr.row_sums());
        prop_assert_eq!(p.col_counts(), csr.col_sums());
    }

    #[test]
    fn csr_roundtrip_is_exact(p in random_pattern()) {
        let back = from_csr(&p.to_csr());
        prop_assert_eq!(&back, &p);
    }

    #[test]
    fn serial_and_parallel_kernels_agree(p in random_pattern()) {
        let x = dense_vec(p.cols(), 1.1);
        let xt = dense_vec(p.rows(), -0.4);

        let (y_ser, t_ser) = with_threads(1, || {
            let mut y = vec![0.0; p.rows()];
            let mut t = vec![0.0; p.cols()];
            p.matvec(&x, &mut y);
            p.matvec_t(&xt, &mut t);
            (y, t)
        });
        for threads in [2usize, 5] {
            let (y_par, t_par) = with_threads(threads, || {
                let mut y = vec![0.0; p.rows()];
                let mut t = vec![0.0; p.cols()];
                p.matvec(&x, &mut y);
                p.matvec_t(&xt, &mut t);
                (y, t)
            });
            for (a, b) in y_ser.iter().zip(&y_par) {
                prop_assert!((a - b).abs() < 1e-12, "matvec diverges at {threads} threads");
            }
            for (a, b) in t_ser.iter().zip(&t_par) {
                prop_assert!((a - b).abs() < 1e-12, "matvec_t diverges at {threads} threads");
            }
        }
    }

    #[test]
    fn composed_deltas_match_full_rebuild(
        (rows, cols, seed, flips) in (2usize..=16, 2usize..=16).prop_flat_map(|(rows, cols)| {
            (
                Just(rows),
                Just(cols),
                proptest::collection::vec((0..rows, 0..cols), 0..40),
                // k batches of entry flips: present → remove, absent → add.
                proptest::collection::vec(
                    proptest::collection::vec((0..rows, 0..cols), 1..10),
                    1..8,
                ),
            )
        })
    ) {
        // Enough slack that no batch can exhaust a span (≤ 9 adds/batch).
        let mut live = csr_pattern(rows, cols, seed.iter().copied(), 16, 16);
        let mut truth: std::collections::BTreeSet<(usize, usize)> =
            seed.into_iter().collect();
        for batch in flips {
            let mut delta = PatternDelta::default();
            // Dedup within the batch so adds/removes stay consistent.
            let batch: std::collections::BTreeSet<(usize, usize)> =
                batch.into_iter().collect();
            for (r, c) in batch {
                if truth.remove(&(r, c)) {
                    delta.removes.push((r as u32, c as u32));
                } else {
                    truth.insert((r, c));
                    delta.adds.push((r as u32, c as u32));
                }
            }
            live.apply_delta(&delta).expect("slack is sufficient");
            let rebuilt = csr_pattern(rows, cols, truth.iter().copied(), 0, 0);
            // Logical equality covers the CSR side …
            prop_assert_eq!(&live, &rebuilt);
            // … and the column mirror must agree column by column.
            for c in 0..cols {
                prop_assert_eq!(
                    live.col_iter(c).collect::<Vec<_>>(),
                    rebuilt.col_iter(c).collect::<Vec<_>>(),
                    "column {} mirror", c
                );
            }
            prop_assert_eq!(live.row_counts(), rebuilt.row_counts());
            prop_assert_eq!(live.col_counts(), rebuilt.col_counts());
            // Matvec outputs are bitwise identical (pure sums of 1-entries).
            let x = dense_vec(cols, 0.8);
            let mut y_live = vec![0.0; rows];
            let mut y_reb = vec![0.0; rows];
            live.matvec(&x, &mut y_live);
            rebuilt.matvec(&x, &mut y_reb);
            prop_assert_eq!(y_live, y_reb);
        }
    }

    #[test]
    fn failed_delta_leaves_pattern_untouched(p in random_pattern()) {
        // Zero-slack matrix: any add into a row with entries already at
        // capacity must fail and roll back completely.
        let before = p.clone();
        let mut live = p;
        let rows = live.rows();
        let cols = live.cols();
        // Build a delta that removes one existing entry (if any) and then
        // adds two entries into the same zero-slack column — the second add
        // (or the first, if the column is full) must fail.
        let mut delta = PatternDelta::default();
        'outer: for r in 0..rows {
            for c in 0..cols {
                if live.contains(r, c) {
                    delta.removes.push((r as u32, c as u32));
                    break 'outer;
                }
            }
        }
        let mut added = 0;
        'adds: for r in 0..rows {
            for c in 0..cols {
                if !live.contains(r, c)
                    && !delta.removes.contains(&(r as u32, c as u32))
                {
                    delta.adds.push((r as u32, c as u32));
                    added += 1;
                    if added == 3 {
                        break 'adds;
                    }
                }
            }
        }
        if !delta.adds.is_empty() {
            // With zero slack every add can only succeed into slots vacated
            // by the removes; three adds against ≤1 remove must fail.
            let result = live.apply_delta(&delta);
            if result.is_err() {
                prop_assert_eq!(&live, &before);
            } else {
                // If it succeeded the edit was genuinely applicable; verify
                // against ground truth.
                let mut truth: std::collections::BTreeSet<(usize, usize)> = (0..rows)
                    .flat_map(|r| before.row_iter(r).map(move |c| (r, c)))
                    .collect();
                for &(r, c) in &delta.removes {
                    truth.remove(&(r as usize, c as usize));
                }
                for &(r, c) in &delta.adds {
                    truth.insert((r as usize, c as usize));
                }
                let rebuilt = csr_pattern(rows, cols, truth, 0, 0);
                prop_assert_eq!(&live, &rebuilt);
            }
        }
    }

    #[test]
    fn mirror_is_consistent(p in random_pattern()) {
        // Every row entry appears in the column mirror and vice versa.
        let mut from_rows: Vec<(usize, usize)> = (0..p.rows())
            .flat_map(|r| p.row_iter(r).map(move |c| (r, c)))
            .collect();
        let mut from_cols: Vec<(usize, usize)> = (0..p.cols())
            .flat_map(|c| p.col_iter(c).map(move |r| (r, c)))
            .collect();
        from_rows.sort_unstable();
        from_cols.sort_unstable();
        prop_assert_eq!(from_rows, from_cols);
    }
}

/// The parallel path must also engage for genuinely large outputs (above
/// the serial cut-off) and agree with the serial result there.
#[test]
fn large_vector_parallel_agreement() {
    let rows = 40_000usize;
    let cols = 64usize;
    let p = csr_pattern(
        rows,
        cols,
        (0..rows).flat_map(|r| (0..4).map(move |k| (r, (r * 7 + k * 13) % 64))),
        0,
        0,
    );
    let x = dense_vec(cols, 0.3);
    let serial = with_threads(1, || {
        let mut y = vec![0.0; rows];
        p.matvec(&x, &mut y);
        y
    });
    let parallel = with_threads(8, || {
        let mut y = vec![0.0; rows];
        p.matvec(&x, &mut y);
        y
    });
    assert_eq!(
        serial, parallel,
        "contiguous chunking must be bitwise exact"
    );
}
