//! Pattern edit batches ([`PatternDelta`], [`DeltaError`]) and the u32
//! gather reductions behind the sparse lanes of
//! [`HybridPattern`](crate::HybridPattern).
//!
//! The paper's one-hot response matrix `C` is *purely* a pattern — every
//! stored entry is 1.0 — so a sparse lane stores u32 indices only and a
//! product with `C` is a gather-and-add over them. `gather_sum` and
//! `gather_sum_scaled` are those reductions; every `C`-sided operator
//! product bottoms out in them (or in their bitmap twins in
//! [`crate::simd`]).
//!
//! Serving workloads see the pattern as a *stream of edits* (a user answers
//! one more item, revises an answer, …). A [`PatternDelta`] is one such
//! batch; [`HybridPattern::apply_delta`](crate::HybridPattern::apply_delta)
//! patches it in place and either applies all of it or rolls back and
//! reports a [`DeltaError`] — nothing is ever silently dropped.

/// An edit batch for
/// [`HybridPattern::apply_delta`](crate::HybridPattern::apply_delta):
/// entries to remove and entries to insert, as `(row, col)` coordinates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternDelta {
    /// Entries that must currently exist and are deleted.
    pub removes: Vec<(u32, u32)>,
    /// Entries that must not exist yet and are inserted.
    pub adds: Vec<(u32, u32)>,
}

impl PatternDelta {
    /// Number of individual entry edits in the delta.
    pub fn len(&self) -> usize {
        self.removes.len() + self.adds.len()
    }

    /// `true` when the delta performs no edits.
    pub fn is_empty(&self) -> bool {
        self.removes.is_empty() && self.adds.is_empty()
    }
}

/// Why a [`PatternDelta`] could not be applied. The matrix is rolled back
/// to its pre-delta state before any error is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A coordinate lies outside the matrix.
    OutOfBounds {
        /// Offending row.
        row: u32,
        /// Offending column.
        col: u32,
    },
    /// An `adds` entry already exists.
    Duplicate {
        /// Offending row.
        row: u32,
        /// Offending column.
        col: u32,
    },
    /// A `removes` entry does not exist.
    Missing {
        /// Offending row.
        row: u32,
        /// Offending column.
        col: u32,
    },
    /// Row `row` has no slack capacity left; rebuild with more slack.
    RowFull {
        /// The saturated row.
        row: u32,
    },
    /// Column `col` has no slack capacity left; rebuild with more slack.
    ColFull {
        /// The saturated column.
        col: u32,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::OutOfBounds { row, col } => {
                write!(f, "delta entry ({row},{col}) is out of bounds")
            }
            DeltaError::Duplicate { row, col } => {
                write!(f, "delta adds existing entry ({row},{col})")
            }
            DeltaError::Missing { row, col } => {
                write!(f, "delta removes absent entry ({row},{col})")
            }
            DeltaError::RowFull { row } => {
                write!(f, "row {row} is out of slack capacity")
            }
            DeltaError::ColFull { col } => {
                write!(f, "column {col} is out of slack capacity")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Sums `x` at the given indices: the reduction at the heart of every
/// pattern product. Four independent accumulators break the
/// floating-point add dependency chain, which otherwise pins the whole
/// kernel engine to FP-add *latency* (≈4 cycles per entry) instead of
/// throughput.
#[inline]
pub(crate) fn gather_sum(idx: &[u32], x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = idx.chunks_exact(4);
    let rem = chunks.remainder();
    for ch in chunks {
        acc[0] += x[ch[0] as usize];
        acc[1] += x[ch[1] as usize];
        acc[2] += x[ch[2] as usize];
        acc[3] += x[ch[3] as usize];
    }
    let mut tail = 0.0;
    for &i in rem {
        tail += x[i as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Like [`gather_sum`], but each gathered element is multiplied by its
/// per-index scale first: `Σ x[i]·scale[i]`. Used to fuse
/// `Dr⁻¹`/`Dr^{-1/2}` input scalings into the same pass.
#[inline]
pub(crate) fn gather_sum_scaled(idx: &[u32], x: &[f64], scale: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = idx.chunks_exact(4);
    let rem = chunks.remainder();
    for ch in chunks {
        acc[0] += x[ch[0] as usize] * scale[ch[0] as usize];
        acc[1] += x[ch[1] as usize] * scale[ch[1] as usize];
        acc[2] += x[ch[2] as usize] * scale[ch[2] as usize];
        acc[3] += x[ch[3] as usize] * scale[ch[3] as usize];
    }
    let mut tail = 0.0;
    for &i in rem {
        tail += x[i as usize] * scale[i as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The delta contract on the u32 sparse-lane layout
/// ([`DensityPlan::force_csr`]), where slack capacity and rollback apply;
/// `hybrid.rs` covers the bitmap and mixed layouts.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, DensityPlan, HybridPattern};

    fn csr(
        rows: usize,
        cols: usize,
        pairs: &[(usize, usize)],
        row_slack: usize,
        col_slack: usize,
    ) -> HybridPattern {
        HybridPattern::with_plan(
            rows,
            cols,
            pairs.iter().copied(),
            row_slack,
            col_slack,
            DensityPlan::force_csr(),
        )
    }

    const SAMPLE: [(usize, usize); 4] = [(0, 0), (0, 2), (2, 0), (2, 1)];

    fn sample() -> HybridPattern {
        // [1 0 1]
        // [0 0 0]
        // [1 1 0]
        csr(3, 3, &SAMPLE, 0, 0)
    }

    fn row(m: &HybridPattern, i: usize) -> Vec<usize> {
        m.row_iter(i).collect()
    }

    fn col(m: &HybridPattern, c: usize) -> Vec<usize> {
        m.col_iter(c).collect()
    }

    #[test]
    fn construction_and_counts() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(row(&m, 0), [0, 2]);
        assert_eq!(row(&m, 1), [] as [usize; 0]);
        assert_eq!(row(&m, 2), [0, 1]);
        assert_eq!(col(&m, 0), [0, 2]);
        assert_eq!(col(&m, 1), [2]);
        assert_eq!(col(&m, 2), [0]);
        assert_eq!(m.row_counts(), vec![2.0, 0.0, 2.0]);
        assert_eq!(m.col_counts(), vec![2.0, 1.0, 1.0]);
    }

    #[test]
    fn duplicates_collapse() {
        let m = csr(2, 2, &[(0, 1), (0, 1), (1, 0)], 0, 0);
        assert_eq!(m.nnz(), 2);
        assert_eq!(row(&m, 0), [1]);
    }

    #[test]
    fn matvec_pair_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, -2.0, 0.5];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        m.matvec(&x, &mut y1);
        d.matvec(&x, &mut y2);
        assert_eq!(y1, y2);
        let xt = [2.0, 3.0, -1.0];
        let mut t1 = vec![0.0; 3];
        let mut t2 = vec![0.0; 3];
        m.matvec_t(&xt, &mut t1);
        d.transpose().matvec(&xt, &mut t2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn csr_roundtrip_preserves_pattern() {
        let valued =
            CsrMatrix::from_triplets(3, 4, [(0, 1, 5.0), (1, 0, -2.0), (1, 3, 1.0), (2, 2, 7.0)]);
        let pairs: Vec<(usize, usize)> = (0..valued.rows())
            .flat_map(|i| valued.row_iter(i).map(move |(c, _)| (i, c)))
            .collect();
        let pattern = csr(valued.rows(), valued.cols(), &pairs, 0, 0);
        let back = pattern.to_csr();
        assert_eq!(back.rows(), valued.rows());
        assert_eq!(back.cols(), valued.cols());
        for i in 0..valued.rows() {
            let want: Vec<usize> = valued.row_iter(i).map(|(c, _)| c).collect();
            assert_eq!(row(&pattern, i), want, "row {i}");
            // All values are 1 after the round trip.
            assert!(back.row_iter(i).all(|(_, v)| v == 1.0));
        }
    }

    #[test]
    fn gathers_fuse_scalings() {
        // Six indices: one full 4-accumulator chunk plus a two-entry tail.
        // Small integers and halves keep every grouping exact.
        let idx = [0u32, 2, 3, 5, 6, 7];
        let x = [1.0, 100.0, 2.0, 3.0, 100.0, 4.0, 5.0, 6.0];
        let scale = [0.5, 9.0, 2.0, 1.0, 9.0, 0.5, 2.0, 1.0];
        assert_eq!(gather_sum(&idx, &x), 21.0);
        assert_eq!(gather_sum_scaled(&idx, &x, &scale), 25.5);
        assert_eq!(gather_sum(&[], &x), 0.0);
        // Through the lane closures: y[i] = scale[i] * rowsum.
        let m = sample();
        let ones = [1.0, 1.0, 1.0];
        let mut y = vec![0.0; 3];
        m.rows_gather(&mut y, |i, lane| scale[i] * lane.sum(&ones));
        assert_eq!(y, vec![1.0, 0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds() {
        csr(2, 2, &[(2, 0)], 0, 0);
    }

    #[test]
    fn slack_layout_is_logically_invisible() {
        let packed = sample();
        let slacked = csr(3, 3, &SAMPLE, 2, 3);
        assert_eq!(packed, slacked);
        assert_eq!(slacked.row_slack(0), 2);
        assert_eq!(slacked.col_slack(1), 3);
        let x = [1.0, -2.0, 0.5];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        packed.matvec(&x, &mut y1);
        slacked.matvec(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn apply_delta_matches_rebuild() {
        let mut m = csr(3, 3, &SAMPLE, 2, 2);
        m.apply_delta(&PatternDelta {
            removes: vec![(0, 2), (2, 1)],
            adds: vec![(1, 1), (0, 1), (2, 2)],
        })
        .unwrap();
        let rebuilt = csr(3, 3, &[(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)], 0, 0);
        assert_eq!(m, rebuilt);
        assert_eq!(m.nnz(), 5);
        // Mirror patched too.
        assert_eq!(col(&m, 1), [0, 1]);
        assert_eq!(col(&m, 2), [2]);
        assert!(m.contains(1, 1) && !m.contains(0, 2));
    }

    #[test]
    fn apply_delta_rolls_back_on_capacity() {
        let reference = csr(2, 2, &[(0, 0)], 1, 1);
        let mut m = reference.clone();
        // Second add overflows row 0 (capacity 1 + slack 1 = 2, needs 3);
        // the first add and the remove must both be rolled back.
        let err = m
            .apply_delta(&PatternDelta {
                removes: vec![(0, 0)],
                adds: vec![(0, 0), (0, 1), (1, 0), (1, 1)],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            DeltaError::RowFull { .. } | DeltaError::ColFull { .. }
        ));
        assert_eq!(m, reference);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn apply_delta_rejects_inconsistent_edits() {
        let mut m = csr(2, 2, &[(0, 0)], 2, 2);
        let reference = m.clone();
        assert_eq!(
            m.apply_delta(&PatternDelta {
                removes: vec![(1, 1)],
                adds: vec![],
            }),
            Err(DeltaError::Missing { row: 1, col: 1 })
        );
        assert_eq!(
            m.apply_delta(&PatternDelta {
                removes: vec![],
                adds: vec![(0, 0)],
            }),
            Err(DeltaError::Duplicate { row: 0, col: 0 })
        );
        assert_eq!(
            m.apply_delta(&PatternDelta {
                removes: vec![],
                adds: vec![(5, 0)],
            }),
            Err(DeltaError::OutOfBounds { row: 5, col: 0 })
        );
        assert_eq!(m, reference);
    }

    #[test]
    fn delta_can_move_within_full_row() {
        // Zero slack: a remove+add inside the same row/column pair must
        // still succeed because removes free the slot first.
        let mut m = csr(2, 2, &[(0, 0), (1, 0)], 0, 0);
        m.apply_delta(&PatternDelta {
            removes: vec![(0, 0)],
            adds: vec![(1, 1)],
        })
        .unwrap_err(); // col 1 has zero capacity
        let mut m2 = csr(2, 2, &[(0, 0), (1, 0)], 0, 0);
        m2.apply_delta(&PatternDelta {
            removes: vec![(0, 0)],
            adds: vec![(1, 0)],
        })
        .unwrap_err(); // duplicate (1,0)
        let mut m3 = csr(2, 2, &[(0, 0), (1, 1)], 0, 0);
        m3.apply_delta(&PatternDelta {
            removes: vec![(0, 0), (1, 1)],
            adds: vec![(0, 1), (1, 0)],
        })
        .unwrap();
        assert_eq!(m3, csr(2, 2, &[(0, 1), (1, 0)], 0, 0));
    }
}
