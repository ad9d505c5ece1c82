//! Matrix-free kernels on the binary response matrix `C`.
//!
//! Every spectral method of the paper is a loop over four products:
//! `w = Cᵀs`, `s = Cw`, and their row/column-normalized versions
//! `w = (Ccol)ᵀs`, `s = Crow·w` (Section III-B). [`ResponseOps`] bundles the
//! structure-only pattern form of `C` ([`HybridPattern`]) with the row/column
//! counts so each product costs `O(nnz) = O(mn)` and nothing larger than
//! `C` is ever materialized.
//!
//! ## Kernel engine
//!
//! All products are built on the two gather primitives of the
//! density-adaptive [`HybridPattern`] (row gather, column gather over the
//! mirror — each lane either a u32-index CSR span or a 64-bit bitmap with
//! SIMD word kernels, chosen per lane by a
//! [`DensityPlan`](hnd_linalg::DensityPlan)), which parallelize over the
//! output and fuse the diagonal normalizations into the same memory pass:
//!
//! * the `Dr⁻¹`/`Dc⁻¹` divisions of `Crow`/`Ccol` are precomputed once as
//!   reciprocal vectors ([`ResponseOps::inv_row_counts`],
//!   [`ResponseOps::inv_col_counts`], zero for empty rows/columns — which
//!   reproduces the paper's drop-unpicked-options convention for free), and
//! * composite operators (`Uᵀ`, the symmetrized `Ũ`, the ABH Laplacian)
//!   fold their input-side scalings into the gather closure, eliminating
//!   the `scaled` temporaries the seed implementation allocated per call.
//!
//! Every kernel writes into caller-owned buffers; none allocates. The
//! [`KernelWorkspace`] bundle gives operator implementations a reusable
//! set of scratch vectors so whole power/Lanczos iterations run
//! allocation-free.

use crate::{ResponseDelta, ResponseMatrix};
use hnd_linalg::{DeltaError, DensityPlan, FormatCounts, HybridPattern, PatternDelta};

/// Lowers a committed [`ResponseDelta`] to the pattern edits it implies on
/// the one-hot matrix `C`: repeated edits of the same cell are composed
/// first (None→A then A→B nets to None→B), so the returned
/// [`PatternDelta`] never removes an entry the delta itself introduced.
/// `matrix` supplies the (static) item→column layout; any snapshot of the
/// same roster works.
///
/// This is the single lowering point shared by the in-place kernel patch
/// ([`ResponseOps::apply_delta`]) and the sharded execution layer
/// (`hnd-shard` routes these `(user, column)` edits to the shard owning
/// each user range) — one definition, so the two paths cannot drift.
pub fn delta_pattern_edits(matrix: &ResponseMatrix, delta: &ResponseDelta) -> PatternDelta {
    let net = crate::log::net_cell_effects(&delta.edits);
    let mut pattern_delta = PatternDelta::default();
    for ((user, item), (from, to)) in net {
        if from == to {
            continue;
        }
        if let Some(opt) = from {
            pattern_delta
                .removes
                .push((user as u32, matrix.one_hot_column(item, opt) as u32));
        }
        if let Some(opt) = to {
            pattern_delta
                .adds
                .push((user as u32, matrix.one_hot_column(item, opt) as u32));
        }
    }
    pattern_delta
}

/// Precomputed operator context for a response matrix.
#[derive(Debug, Clone)]
pub struct ResponseOps {
    /// The one-hot binary response matrix `C` (`m × Σkᵢ`) as a
    /// density-adaptive hybrid pattern.
    c: HybridPattern,
    /// `Dr` diagonal: answers per user (row sums of `C`).
    row_counts: Vec<f64>,
    /// `Dc` diagonal: picks per option (column sums of `C`).
    col_counts: Vec<f64>,
    /// `Dr⁻¹` diagonal; `0` for users who answered nothing.
    inv_row: Vec<f64>,
    /// `Dc⁻¹` diagonal; `0` for options nobody picked.
    inv_col: Vec<f64>,
}

/// Reusable scratch buffers sized for one [`ResponseOps`]: one
/// option-length vector and two user-length vectors. Operators hold one of
/// these (behind a `RefCell`) so repeated applications inside an iteration
/// loop allocate nothing.
#[derive(Debug, Clone)]
pub struct KernelWorkspace {
    /// Option-sized scratch (`Σkᵢ`).
    pub w: Vec<f64>,
    /// User-sized scratch.
    pub s: Vec<f64>,
    /// Second user-sized scratch.
    pub s2: Vec<f64>,
}

impl KernelWorkspace {
    /// Allocates a workspace matching `ops`' dimensions.
    pub fn for_ops(ops: &ResponseOps) -> Self {
        KernelWorkspace {
            w: vec![0.0; ops.n_option_columns()],
            s: vec![0.0; ops.n_users()],
            s2: vec![0.0; ops.n_users()],
        }
    }
}

impl ResponseOps {
    /// Builds the operator context (tightly packed, no slack).
    pub fn new(matrix: &ResponseMatrix) -> Self {
        Self::with_slack(matrix, 0, 0)
    }

    /// Builds the operator context with per-row/per-column slack capacity
    /// in the underlying pattern, so subsequent [`Self::apply_delta`] calls
    /// can patch it in place instead of rebuilding. `row_slack` bounds how
    /// many *extra* answers a user can record before a rebuild; `col_slack`
    /// bounds extra picks per option. (Slack applies to sparse lanes only:
    /// bitmap lanes absorb any in-roster edit as a bit flip.) Lane formats
    /// follow the default (ISA-adaptive) [`DensityPlan`].
    pub fn with_slack(matrix: &ResponseMatrix, row_slack: usize, col_slack: usize) -> Self {
        Self::with_plan(matrix, row_slack, col_slack, DensityPlan::default())
    }

    /// Builds the operator context with explicit lane-format policy: rows
    /// (answer sets) and mirror columns (picker sets) whose density crosses
    /// `plan`'s thresholds are stored as bitmap lanes served by the SIMD
    /// word kernels; the rest keep the u32-index CSR layout. Formats are
    /// fixed until the next rebuild — [`Self::apply_delta`] never migrates
    /// a lane.
    pub fn with_plan(
        matrix: &ResponseMatrix,
        row_slack: usize,
        col_slack: usize,
        plan: DensityPlan,
    ) -> Self {
        let c = HybridPattern::with_plan(
            matrix.n_users(),
            matrix.total_options(),
            matrix
                .iter_choices()
                .map(|(u, i, o)| (u, matrix.one_hot_column(i, o))),
            row_slack,
            col_slack,
            plan,
        );
        let row_counts = c.row_counts();
        let col_counts = c.col_counts();
        let inv_row = row_counts
            .iter()
            .map(|&n| if n > 0.0 { 1.0 / n } else { 0.0 })
            .collect();
        let inv_col = col_counts
            .iter()
            .map(|&n| if n > 0.0 { 1.0 / n } else { 0.0 })
            .collect();
        ResponseOps {
            c,
            row_counts,
            col_counts,
            inv_row,
            inv_col,
        }
    }

    /// Patches the operator context for a committed [`ResponseDelta`] in
    /// `O(w·nnz(delta))`: the pattern's CSR arrays and CSC mirror are
    /// edited in place, and the `Dr`/`Dc` degree diagonals plus their fused
    /// reciprocal scalings are updated only at the touched users/options —
    /// no rebuild of anything `O(nnz)`.
    ///
    /// `matrix` supplies the (static) item→column layout; any snapshot of
    /// the same roster works. On [`DeltaError::RowFull`] /
    /// [`DeltaError::ColFull`] the context is unchanged and the caller
    /// should rebuild via [`Self::with_slack`] with more slack.
    pub fn apply_delta(
        &mut self,
        matrix: &ResponseMatrix,
        delta: &ResponseDelta,
    ) -> Result<(), DeltaError> {
        let pattern_delta = delta_pattern_edits(matrix, delta);
        self.c.apply_delta(&pattern_delta)?;
        // Degree scalings: touch only the edited rows/columns.
        for &(r, _) in &pattern_delta.removes {
            self.refresh_row(r as usize);
        }
        for &(r, _) in &pattern_delta.adds {
            self.refresh_row(r as usize);
        }
        for &(_, c) in &pattern_delta.removes {
            self.refresh_col(c as usize);
        }
        for &(_, c) in &pattern_delta.adds {
            self.refresh_col(c as usize);
        }
        Ok(())
    }

    fn refresh_row(&mut self, r: usize) {
        let n = self.c.row_nnz(r) as f64;
        self.row_counts[r] = n;
        self.inv_row[r] = if n > 0.0 { 1.0 / n } else { 0.0 };
    }

    fn refresh_col(&mut self, c: usize) {
        let n = self.c.col_nnz(c) as f64;
        self.col_counts[c] = n;
        self.inv_col[c] = if n > 0.0 { 1.0 / n } else { 0.0 };
    }

    /// Number of users `m`.
    pub fn n_users(&self) -> usize {
        self.c.rows()
    }

    /// Number of one-hot option columns.
    pub fn n_option_columns(&self) -> usize {
        self.c.cols()
    }

    /// The binary response matrix pattern.
    pub fn pattern(&self) -> &HybridPattern {
        &self.c
    }

    /// Per-format lane counts of the pattern (serving observability).
    pub fn format_counts(&self) -> FormatCounts {
        self.c.format_counts()
    }

    /// Answers per user (`Dr` diagonal).
    pub fn row_counts(&self) -> &[f64] {
        &self.row_counts
    }

    /// Picks per option (`Dc` diagonal).
    pub fn col_counts(&self) -> &[f64] {
        &self.col_counts
    }

    /// `Dr⁻¹` diagonal (0 for users with no answers).
    pub fn inv_row_counts(&self) -> &[f64] {
        &self.inv_row
    }

    /// `Dc⁻¹` diagonal (0 for options nobody picked).
    pub fn inv_col_counts(&self) -> &[f64] {
        &self.inv_col
    }

    /// `w = Cᵀ s` (unnormalized).
    pub fn ct_apply(&self, s: &[f64], w: &mut [f64]) {
        self.c.matvec_t(s, w);
    }

    /// `s = C w` (unnormalized).
    pub fn c_apply(&self, w: &[f64], s: &mut [f64]) {
        self.c.matvec(w, s);
    }

    /// `w = (Ccol)ᵀ s`: option weight = *average* score of its pickers.
    /// Options nobody picked get weight 0 (the paper drops such columns
    /// WLOG; zeroing them is equivalent).
    pub fn ccol_t_apply(&self, s: &[f64], w: &mut [f64]) {
        let inv_col = &self.inv_col;
        self.c.cols_gather(w, |c, lane| inv_col[c] * lane.sum(s));
    }

    /// `s = Crow w`: user score = *average* weight of their chosen options.
    /// Users who answered nothing get score 0 and are reported by
    /// [`ResponseMatrix::connectivity`](crate::ResponseMatrix::connectivity).
    pub fn crow_apply(&self, w: &[f64], s: &mut [f64]) {
        let inv_row = &self.inv_row;
        self.c.rows_gather(s, |r, lane| inv_row[r] * lane.sum(w));
    }

    /// One AvgHITS step `s ← U s` with `U = Crow (Ccol)ᵀ`, using `w` as the
    /// option-sized scratch buffer.
    pub fn u_apply(&self, s_in: &[f64], w_scratch: &mut [f64], s_out: &mut [f64]) {
        self.ccol_t_apply(s_in, w_scratch);
        self.crow_apply(w_scratch, s_out);
    }

    /// One transposed AvgHITS step `s ← Uᵀ s` (needed for the dominant
    /// *left* eigenvector in Hotelling deflation):
    /// `Uᵀ = Ccol (Crow)ᵀ = C Dc⁻¹ Cᵀ Dr⁻¹`. The `Dr⁻¹` input scaling is
    /// fused into the column gather, so no scaled copy of `s_in` is made.
    pub fn ut_apply(&self, s_in: &[f64], w_scratch: &mut [f64], s_out: &mut [f64]) {
        let inv_row = &self.inv_row;
        let inv_col = &self.inv_col;
        self.c.cols_gather(w_scratch, |c, lane| {
            inv_col[c] * lane.sum_scaled(s_in, inv_row)
        });
        self.c.matvec(w_scratch, s_out);
    }

    /// One symmetrized AvgHITS step `s ← Ũ s` with
    /// `Ũ = Dr^{-1/2} C Dc⁻¹ Cᵀ Dr^{-1/2}` (see
    /// `hnd_core::operators::SymmetrizedUOp`). The caller supplies the
    /// `Dr^{-1/2}` diagonal; both of its applications are fused into the
    /// gathers, so the kernel makes exactly two passes over `C` and
    /// allocates nothing.
    pub fn symmetrized_u_apply(
        &self,
        s_in: &[f64],
        inv_sqrt_rows: &[f64],
        w_scratch: &mut [f64],
        s_out: &mut [f64],
    ) {
        let inv_col = &self.inv_col;
        self.c.cols_gather(w_scratch, |c, lane| {
            inv_col[c] * lane.sum_scaled(s_in, inv_sqrt_rows)
        });
        self.c
            .rows_gather(s_out, |r, lane| inv_sqrt_rows[r] * lane.sum(w_scratch));
    }

    /// Row sums of `CCᵀ` — the `D` diagonal of the ABH Laplacian
    /// `L = D − CCᵀ`. `d_j = Σ_{options c picked by j} colcount(c)`.
    pub fn cct_row_sums(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n_users()];
        let col_counts = &self.col_counts;
        self.c.rows_gather(&mut d, |_, lane| lane.sum(col_counts));
        d
    }

    /// `y = L x` with `L = D − CCᵀ` (ABH Laplacian), using `w` as scratch.
    /// The `D x − ·` combination is fused into the second gather.
    pub fn laplacian_apply(&self, d: &[f64], x: &[f64], w_scratch: &mut [f64], y: &mut [f64]) {
        self.ct_apply(x, w_scratch);
        self.c
            .rows_gather(y, |r, lane| d[r] * x[r] - lane.sum(w_scratch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResponseMatrix;
    use hnd_linalg::DenseMatrix;

    fn figure1() -> ResponseMatrix {
        ResponseMatrix::from_choices(
            3,
            &[3, 3, 3],
            &[
                &[Some(0), Some(0), Some(0)],
                &[Some(0), Some(0), Some(2)],
                &[Some(0), Some(1), Some(2)],
                &[Some(1), Some(2), Some(2)],
            ],
        )
        .unwrap()
    }

    /// Dense U = Crow (Ccol)^T for cross-checking.
    fn dense_u(ops: &ResponseOps) -> DenseMatrix {
        let m = ops.n_users();
        let mut u = DenseMatrix::zeros(m, m);
        let mut e = vec![0.0; m];
        let mut w = vec![0.0; ops.n_option_columns()];
        let mut col = vec![0.0; m];
        for j in 0..m {
            e[j] = 1.0;
            ops.u_apply(&e, &mut w, &mut col);
            e[j] = 0.0;
            for i in 0..m {
                u.set(i, j, col[i]);
            }
        }
        u
    }

    #[test]
    fn u_is_row_stochastic_lemma3() {
        // Lemma 3 of the paper: every row of U sums to 1.
        let ops = ResponseOps::new(&figure1());
        let u = dense_u(&ops);
        for i in 0..4 {
            let sum: f64 = (0..4).map(|j| u.get(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn u_times_ones_is_ones() {
        let ops = ResponseOps::new(&figure1());
        let e = vec![1.0; 4];
        let mut w = vec![0.0; 9];
        let mut s = vec![0.0; 4];
        ops.u_apply(&e, &mut w, &mut s);
        for v in s {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ut_apply_matches_dense_transpose() {
        let ops = ResponseOps::new(&figure1());
        let u = dense_u(&ops);
        let ut = u.transpose();
        let x = [0.3, -0.1, 0.7, 0.2];
        let mut w = vec![0.0; 9];
        let mut got = vec![0.0; 4];
        ops.ut_apply(&x, &mut w, &mut got);
        let mut expect = vec![0.0; 4];
        ut.matvec(&x, &mut expect);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetrized_apply_matches_scaled_composition() {
        // Ũ x must equal Dr^{-1/2} C Dc^{-1} Cᵀ Dr^{-1/2} x computed the
        // long way with explicit temporaries.
        let m = ResponseMatrix::from_choices(
            2,
            &[2, 3],
            &[&[Some(0), Some(2)], &[Some(0), None], &[None, None]],
        )
        .unwrap();
        let ops = ResponseOps::new(&m);
        let inv_sqrt: Vec<f64> = ops
            .row_counts()
            .iter()
            .map(|&c| if c > 0.0 { 1.0 / c.sqrt() } else { 0.0 })
            .collect();
        let x = [0.4, -1.0, 2.0];
        let mut w = vec![0.0; ops.n_option_columns()];
        let mut got = vec![0.0; 3];
        ops.symmetrized_u_apply(&x, &inv_sqrt, &mut w, &mut got);

        let scaled: Vec<f64> = x.iter().zip(&inv_sqrt).map(|(v, s)| v * s).collect();
        let mut w2 = vec![0.0; ops.n_option_columns()];
        ops.ccol_t_apply(&scaled, &mut w2);
        let mut expect = vec![0.0; 3];
        ops.c_apply(&w2, &mut expect);
        for (e, s) in expect.iter_mut().zip(&inv_sqrt) {
            *e *= s;
        }
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12, "{got:?} vs {expect:?}");
        }
    }

    #[test]
    fn laplacian_matches_definition() {
        let ops = ResponseOps::new(&figure1());
        let d = ops.cct_row_sums();
        // Dense CC^T.
        let c = ops.pattern().to_dense();
        let cct = c.matmul(&c.transpose()).unwrap();
        let x = [1.0, 2.0, -1.0, 0.5];
        let mut w = vec![0.0; 9];
        let mut got = vec![0.0; 4];
        ops.laplacian_apply(&d, &x, &mut w, &mut got);
        for i in 0..4 {
            let mut li = d[i] * x[i];
            for j in 0..4 {
                li -= cct.get(i, j) * x[j];
            }
            assert!((got[i] - li).abs() < 1e-12);
        }
        // L annihilates the ones vector.
        let ones = [1.0; 4];
        ops.laplacian_apply(&d, &ones, &mut w, &mut got);
        for v in got {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn empty_rows_and_columns_are_safe() {
        let m = ResponseMatrix::from_choices(2, &[2, 2], &[&[Some(0), Some(0)], &[None, None]])
            .unwrap();
        let ops = ResponseOps::new(&m);
        let s = [1.0, 1.0];
        let mut w = vec![0.0; 4];
        let mut out = vec![0.0; 2];
        ops.u_apply(&s, &mut w, &mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert_eq!(out[1], 0.0, "user with no answers scores 0");
    }

    #[test]
    fn workspace_matches_dimensions() {
        let ops = ResponseOps::new(&figure1());
        let ws = KernelWorkspace::for_ops(&ops);
        assert_eq!(ws.w.len(), ops.n_option_columns());
        assert_eq!(ws.s2.len(), ops.n_users());
        assert_eq!(ws.s.len(), ops.n_users());
    }
}
