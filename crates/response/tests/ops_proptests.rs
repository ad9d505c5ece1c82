//! Property tests for the fused response kernels: every normalized product
//! must match the explicit dense composition, the pattern engine must agree
//! with the legacy valued-CSR formulation, and serial/parallel execution
//! must coincide to 1e-12 — including unanswered users (empty rows) and
//! never-picked options (empty columns).

use hnd_linalg::parallel::with_threads;
use hnd_response::{ResponseMatrix, ResponseOps};
use proptest::prelude::*;

/// Random response matrix with skips: m users × n items, k options each,
/// every cell answered with probability 0.8 (so empty rows/columns occur).
fn random_responses() -> impl Strategy<Value = ResponseMatrix> {
    (2usize..=12, 1usize..=8, 2u16..=4).prop_flat_map(|(m, n, k)| {
        proptest::collection::vec(proptest::option::weighted(0.8, 0u16..k), m * n).prop_map(
            move |choices| {
                let rows: Vec<Vec<Option<u16>>> = (0..m)
                    .map(|j| (0..n).map(|i| choices[j * n + i]).collect())
                    .collect();
                let refs: Vec<&[Option<u16>]> = rows.iter().map(|r| r.as_slice()).collect();
                ResponseMatrix::from_choices(n, &vec![k; n], &refs).unwrap()
            },
        )
    })
}

/// The seed's formulation of the normalized kernels, kept as the test
/// oracle: explicit scaled temporaries over the valued CSR matrix.
struct LegacyOps {
    c: hnd_linalg::CsrMatrix,
    row_counts: Vec<f64>,
    col_counts: Vec<f64>,
}

impl LegacyOps {
    fn new(matrix: &ResponseMatrix) -> Self {
        let c = matrix.to_binary_csr();
        let row_counts = c.row_sums();
        let col_counts = c.col_sums();
        LegacyOps {
            c,
            row_counts,
            col_counts,
        }
    }

    fn u_apply(&self, s: &[f64]) -> Vec<f64> {
        let mut w = vec![0.0; self.c.cols()];
        self.c.matvec_t(s, &mut w);
        for (wi, &cnt) in w.iter_mut().zip(&self.col_counts) {
            *wi = if cnt > 0.0 { *wi / cnt } else { 0.0 };
        }
        let mut out = vec![0.0; self.c.rows()];
        self.c.matvec(&w, &mut out);
        for (oi, &cnt) in out.iter_mut().zip(&self.row_counts) {
            *oi = if cnt > 0.0 { *oi / cnt } else { 0.0 };
        }
        out
    }

    fn ut_apply(&self, s: &[f64]) -> Vec<f64> {
        let scaled: Vec<f64> = s
            .iter()
            .zip(&self.row_counts)
            .map(|(v, &c)| if c > 0.0 { v / c } else { 0.0 })
            .collect();
        let mut w = vec![0.0; self.c.cols()];
        self.c.matvec_t(&scaled, &mut w);
        for (wi, &cnt) in w.iter_mut().zip(&self.col_counts) {
            *wi = if cnt > 0.0 { *wi / cnt } else { 0.0 };
        }
        let mut out = vec![0.0; self.c.rows()];
        self.c.matvec(&w, &mut out);
        out
    }
}

fn probe(m: usize) -> Vec<f64> {
    (0..m)
        .map(|i| (i as f64 * 0.37 - 1.1).sin() + 0.2)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_kernels_match_legacy_formulation(matrix in random_responses()) {
        let ops = ResponseOps::new(&matrix);
        let legacy = LegacyOps::new(&matrix);
        let m = matrix.n_users();
        let s = probe(m);

        let mut w = vec![0.0; ops.n_option_columns()];
        let mut got = vec![0.0; m];
        ops.u_apply(&s, &mut w, &mut got);
        let want = legacy.u_apply(&s);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-12, "u_apply: {a} vs {b}");
        }

        ops.ut_apply(&s, &mut w, &mut got);
        let want = legacy.ut_apply(&s);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-12, "ut_apply: {a} vs {b}");
        }
    }

    #[test]
    fn serial_and_parallel_ops_agree(matrix in random_responses()) {
        let ops = ResponseOps::new(&matrix);
        let m = matrix.n_users();
        let s = probe(m);
        let d = ops.cct_row_sums();

        let run = || {
            let mut w = vec![0.0; ops.n_option_columns()];
            let mut u = vec![0.0; m];
            let mut ut = vec![0.0; m];
            let mut lap = vec![0.0; m];
            ops.u_apply(&s, &mut w, &mut u);
            ops.ut_apply(&s, &mut w, &mut ut);
            ops.laplacian_apply(&d, &s, &mut w, &mut lap);
            (u, ut, lap)
        };
        let (u1, ut1, lap1) = with_threads(1, run);
        let (u4, ut4, lap4) = with_threads(4, run);
        for (a, b) in u1.iter().zip(&u4) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in ut1.iter().zip(&ut4) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in lap1.iter().zip(&lap4) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pattern_roundtrips_response_matrix(matrix in random_responses()) {
        // The pattern form and the valued CSR form describe the same C.
        let ops = ResponseOps::new(&matrix);
        let pattern = ops.pattern();
        let csr = matrix.to_binary_csr();
        prop_assert_eq!(pattern.rows(), csr.rows());
        prop_assert_eq!(pattern.cols(), csr.cols());
        prop_assert_eq!(pattern.nnz(), csr.nnz());
        for i in 0..csr.rows() {
            let want: Vec<usize> = csr.row_iter(i).map(|(c, _)| c).collect();
            let got: Vec<usize> = pattern.row_iter(i).collect();
            prop_assert_eq!(got, want, "row {} differs", i);
        }
    }

    #[test]
    fn unanswered_users_score_zero(matrix in random_responses()) {
        let ops = ResponseOps::new(&matrix);
        let m = matrix.n_users();
        let ones = vec![1.0; m];
        let mut w = vec![0.0; ops.n_option_columns()];
        let mut out = vec![0.0; m];
        ops.u_apply(&ones, &mut w, &mut out);
        for (user, &score) in out.iter().enumerate() {
            if matrix.answers_of_user(user) == 0 {
                prop_assert_eq!(score, 0.0, "empty user {} must score 0", user);
            } else {
                prop_assert!((score - 1.0).abs() < 1e-12, "row-stochastic on answered rows");
            }
        }
    }
}

/// The Figure 1 fixture: the pattern round-trips against the existing CSR
/// path, column by column, and the ops agree on it.
#[test]
fn figure1_fixture_roundtrip() {
    let matrix = ResponseMatrix::from_choices(
        3,
        &[3, 3, 3],
        &[
            &[Some(0), Some(0), Some(0)],
            &[Some(0), Some(0), Some(2)],
            &[Some(0), Some(1), Some(2)],
            &[Some(1), Some(2), Some(2)],
        ],
    )
    .unwrap();
    let ops = ResponseOps::new(&matrix);
    let pattern = ops.pattern();
    let expected = [vec![0, 3, 6], vec![0, 3, 8], vec![0, 4, 8], vec![1, 5, 8]];
    for (user, cols) in expected.iter().enumerate() {
        let got: Vec<usize> = pattern.row_iter(user).collect();
        assert_eq!(&got, cols, "user {user}");
    }
    // Column mirror of column 8 (option 3C): picked by users 1, 2, 3.
    assert_eq!(pattern.col_iter(8).collect::<Vec<_>>(), [1, 2, 3]);
    assert_eq!(pattern.col_iter(2).count(), 0, "option 1C never picked");
}
