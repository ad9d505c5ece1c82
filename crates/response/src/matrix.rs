//! The [`ResponseMatrix`] type.

use crate::{ConnectivityReport, ResponseError};
use hnd_linalg::CsrMatrix;

/// Responses of `m` users to `n` heterogeneous multiple-choice items
/// (Definition 1 of the paper).
///
/// Each user chooses *at most one* option per item; `None` means the user
/// skipped the item (the paper's incomplete-answers setting, Figure 4g).
/// Option indices are local to their item: item `i` has options
/// `0..options_per_item[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseMatrix {
    n_users: usize,
    n_items: usize,
    options_per_item: Vec<u16>,
    /// Prefix sums of `options_per_item`; `col_offsets[i]` is the global
    /// one-hot column of option 0 of item `i`. Length `n_items + 1`.
    col_offsets: Vec<usize>,
    /// Row-major `n_users × n_items` choices.
    choices: Vec<Option<u16>>,
}

impl ResponseMatrix {
    /// Builds a response matrix from per-user choice rows.
    ///
    /// `rows[j][i]` is the option user `j` picked for item `i` (or `None`).
    ///
    /// # Errors
    /// Rejects empty user/item sets, zero-option items, ragged rows, and
    /// out-of-range option indices.
    pub fn from_choices(
        n_items: usize,
        options_per_item: &[u16],
        rows: &[&[Option<u16>]],
    ) -> Result<Self, ResponseError> {
        if n_items == 0 {
            return Err(ResponseError::NoItems);
        }
        if rows.is_empty() {
            return Err(ResponseError::NoUsers);
        }
        if options_per_item.len() != n_items {
            return Err(ResponseError::OptionsLengthMismatch {
                expected: n_items,
                got: options_per_item.len(),
            });
        }
        if let Some(item) = options_per_item.iter().position(|&k| k == 0) {
            return Err(ResponseError::EmptyItem { item });
        }
        let n_users = rows.len();
        let mut choices = Vec::with_capacity(n_users * n_items);
        for (user, row) in rows.iter().enumerate() {
            if row.len() != n_items {
                return Err(ResponseError::WrongRowLength {
                    user,
                    expected: n_items,
                    got: row.len(),
                });
            }
            for (item, &choice) in row.iter().enumerate() {
                if let Some(opt) = choice {
                    if opt >= options_per_item[item] {
                        return Err(ResponseError::OptionOutOfRange {
                            user,
                            item,
                            option: opt,
                            num_options: options_per_item[item],
                        });
                    }
                }
                choices.push(choice);
            }
        }
        Ok(Self::from_parts(
            n_items,
            options_per_item.to_vec(),
            choices,
        ))
    }

    /// Internal constructor from validated parts (used by the builder).
    pub(crate) fn from_parts(
        n_items: usize,
        options_per_item: Vec<u16>,
        choices: Vec<Option<u16>>,
    ) -> Self {
        let n_users = choices.len() / n_items;
        let mut col_offsets = Vec::with_capacity(n_items + 1);
        col_offsets.push(0usize);
        for &k in &options_per_item {
            col_offsets.push(col_offsets.last().unwrap() + k as usize);
        }
        ResponseMatrix {
            n_users,
            n_items,
            options_per_item,
            col_offsets,
            choices,
        }
    }

    /// Number of users `m`.
    #[inline]
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items `n`.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of options of item `i` (`kᵢ`).
    #[inline]
    pub fn options_of(&self, item: usize) -> u16 {
        self.options_per_item[item]
    }

    /// Maximum option count `k = maxᵢ kᵢ`.
    pub fn max_options(&self) -> u16 {
        self.options_per_item.iter().copied().max().unwrap_or(0)
    }

    /// Total number of one-hot columns `Σᵢ kᵢ` (the paper's `kn` when all
    /// items share `k` options).
    #[inline]
    pub fn total_options(&self) -> usize {
        *self.col_offsets.last().expect("col_offsets is never empty")
    }

    /// The option user `j` chose for item `i`, if any.
    #[inline]
    pub fn choice(&self, user: usize, item: usize) -> Option<u16> {
        self.choices[user * self.n_items + item]
    }

    /// The full choice row of a user.
    #[inline]
    pub fn user_row(&self, user: usize) -> &[Option<u16>] {
        &self.choices[user * self.n_items..(user + 1) * self.n_items]
    }

    /// Global one-hot column index of `(item, option)`.
    #[inline]
    pub fn one_hot_column(&self, item: usize, option: u16) -> usize {
        debug_assert!(option < self.options_per_item[item]);
        self.col_offsets[item] + option as usize
    }

    /// Inverse of [`Self::one_hot_column`]: maps a global column back to
    /// `(item, option)`.
    pub fn column_to_item_option(&self, column: usize) -> (usize, u16) {
        debug_assert!(column < self.total_options());
        // Binary search the prefix-sum array.
        let item = match self.col_offsets.binary_search(&column) {
            Ok(i) if i < self.n_items => i,
            Ok(i) => i - 1,
            Err(i) => i - 1,
        };
        (item, (column - self.col_offsets[item]) as u16)
    }

    /// Number of items user `j` answered.
    pub fn answers_of_user(&self, user: usize) -> usize {
        self.user_row(user).iter().filter(|c| c.is_some()).count()
    }

    /// Per-user answer counts (diagonal of `Dr`; the `Crow` normalizer).
    pub fn row_counts(&self) -> Vec<usize> {
        (0..self.n_users).map(|u| self.answers_of_user(u)).collect()
    }

    /// Per-option pick counts (diagonal of `Dc`; the `Ccol` normalizer).
    pub fn col_counts(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.total_options()];
        for user in 0..self.n_users {
            for (item, &choice) in self.user_row(user).iter().enumerate() {
                if let Some(opt) = choice {
                    out[self.one_hot_column(item, opt)] += 1;
                }
            }
        }
        out
    }

    /// Iterator over all recorded `(user, item, option)` triples.
    pub fn iter_choices(&self) -> impl Iterator<Item = (usize, usize, u16)> + '_ {
        (0..self.n_users).flat_map(move |user| {
            self.user_row(user)
                .iter()
                .enumerate()
                .filter_map(move |(item, &c)| c.map(|opt| (user, item, opt)))
        })
    }

    /// The one-hot binary response matrix `C` (`m × Σkᵢ`, entries 0/1) in
    /// CSR form — Figure 1b of the paper. Compute kernels run on the
    /// structure-only pattern of [`ResponseOps`](crate::ResponseOps); this
    /// general form remains for code that mixes `C` with valued matrices
    /// (e.g. the C1P checks).
    pub fn to_binary_csr(&self) -> CsrMatrix {
        CsrMatrix::from_triplets(
            self.n_users,
            self.total_options(),
            self.iter_choices()
                .map(|(u, i, o)| (u, self.one_hot_column(i, o), 1.0)),
        )
    }

    /// Returns a copy with users reordered: user `j` of the result is user
    /// `perm[j]` of `self`.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n_users`.
    pub fn permute_users(&self, perm: &[usize]) -> ResponseMatrix {
        assert_eq!(perm.len(), self.n_users, "permute_users: length mismatch");
        let mut seen = vec![false; self.n_users];
        let mut choices = Vec::with_capacity(self.choices.len());
        for &src in perm {
            assert!(src < self.n_users && !seen[src], "not a permutation");
            seen[src] = true;
            choices.extend_from_slice(self.user_row(src));
        }
        Self::from_parts(self.n_items, self.options_per_item.clone(), choices)
    }

    /// Applies a committed [`ResponseDelta`](crate::ResponseDelta) in
    /// place, `O(nnz(delta))`: cell `(user, item)` moves from `edit.from`
    /// to `edit.to` for each edit in order. The serving layer uses this to
    /// keep one matrix current across versions instead of re-materializing
    /// an `O(mn)` snapshot per refresh.
    ///
    /// # Errors
    /// Rejects out-of-range options and edits whose `from` does not match
    /// the current cell (a broken delta chain); the matrix is left exactly
    /// as it was before the call.
    pub fn apply_delta(&mut self, delta: &crate::ResponseDelta) -> Result<(), ResponseError> {
        // Validate first so a failure mutates nothing.
        let mut probe = std::collections::BTreeMap::new();
        for edit in &delta.edits {
            if edit.user >= self.n_users || edit.item >= self.n_items {
                return Err(ResponseError::DeltaMismatch {
                    user: edit.user,
                    item: edit.item,
                });
            }
            if let Some(opt) = edit.to {
                if opt >= self.options_per_item[edit.item] {
                    return Err(ResponseError::OptionOutOfRange {
                        user: edit.user,
                        item: edit.item,
                        option: opt,
                        num_options: self.options_per_item[edit.item],
                    });
                }
            }
            let current = probe
                .get(&(edit.user, edit.item))
                .copied()
                .unwrap_or_else(|| self.choice(edit.user, edit.item));
            if current != edit.from {
                return Err(ResponseError::DeltaMismatch {
                    user: edit.user,
                    item: edit.item,
                });
            }
            probe.insert((edit.user, edit.item), edit.to);
        }
        for edit in &delta.edits {
            self.choices[edit.user * self.n_items + edit.item] = edit.to;
        }
        Ok(())
    }

    /// Connectivity of the user–option bipartite graph (Section III-B
    /// requires a single connected component for a total user ordering).
    pub fn connectivity(&self) -> ConnectivityReport {
        crate::connectivity::analyze(self)
    }

    /// Fraction of `(user, item)` cells answered (1.0 = complete data).
    pub fn density(&self) -> f64 {
        let answered = self.choices.iter().filter(|c| c.is_some()).count();
        answered as f64 / (self.n_users * self.n_items) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 running example: 4 users × 3 items, options A=0,B=1,C=2.
    pub(crate) fn figure1() -> ResponseMatrix {
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

    #[test]
    fn figure1_shape() {
        let r = figure1();
        assert_eq!(r.n_users(), 4);
        assert_eq!(r.n_items(), 3);
        assert_eq!(r.max_options(), 3);
        assert_eq!(r.total_options(), 9);
        assert_eq!(r.density(), 1.0);
    }

    #[test]
    fn figure1_binary_matrix_matches_paper() {
        // Figure 1b shows C with rows (one-hot over columns 1A 1B 1C 2A 2B 2C 3A 3B 3C):
        // u1: 100 100 100 ; u2: 100 100 001 ; u3: 100 010 001 ; u4: 010 001 001
        let c = figure1().to_binary_csr();
        let expected = [vec![0, 3, 6], vec![0, 3, 8], vec![0, 4, 8], vec![1, 5, 8]];
        for (u, cols) in expected.iter().enumerate() {
            let got: Vec<usize> = c.row_iter(u).map(|(c, _)| c).collect();
            assert_eq!(&got, cols, "user {u}");
        }
    }

    #[test]
    fn column_mapping_roundtrip() {
        let r =
            ResponseMatrix::from_choices(3, &[2, 4, 3], &[&[Some(0), Some(3), Some(2)]]).unwrap();
        for item in 0..3 {
            for opt in 0..r.options_of(item) {
                let col = r.one_hot_column(item, opt);
                assert_eq!(r.column_to_item_option(col), (item, opt));
            }
        }
        assert_eq!(r.total_options(), 9);
    }

    #[test]
    fn counts() {
        let r = ResponseMatrix::from_choices(
            2,
            &[2, 2],
            &[&[Some(0), None], &[Some(0), Some(1)], &[None, None]],
        )
        .unwrap();
        assert_eq!(r.row_counts(), vec![1, 2, 0]);
        assert_eq!(r.col_counts(), vec![2, 0, 0, 1]);
        assert!((r.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn permute_users_reorders_rows() {
        let r = figure1();
        let p = r.permute_users(&[3, 2, 1, 0]);
        assert_eq!(p.choice(0, 0), Some(1));
        assert_eq!(p.choice(3, 0), Some(0));
        // Double reversal is identity.
        assert_eq!(p.permute_users(&[3, 2, 1, 0]), r);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            ResponseMatrix::from_choices(0, &[], &[&[]]),
            Err(ResponseError::NoItems)
        );
        assert_eq!(
            ResponseMatrix::from_choices(1, &[2], &[]),
            Err(ResponseError::NoUsers)
        );
        assert_eq!(
            ResponseMatrix::from_choices(1, &[0], &[&[None]]),
            Err(ResponseError::EmptyItem { item: 0 })
        );
        assert_eq!(
            ResponseMatrix::from_choices(2, &[2], &[&[None, None]]),
            Err(ResponseError::OptionsLengthMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(matches!(
            ResponseMatrix::from_choices(1, &[2], &[&[Some(5)]]),
            Err(ResponseError::OptionOutOfRange { option: 5, .. })
        ));
        assert!(matches!(
            ResponseMatrix::from_choices(2, &[2, 2], &[&[Some(0)]]),
            Err(ResponseError::WrongRowLength { .. })
        ));
    }

    #[test]
    fn iter_choices_yields_all() {
        let r = figure1();
        let triples: Vec<_> = r.iter_choices().collect();
        assert_eq!(triples.len(), 12);
        assert_eq!(triples[0], (0, 0, 0));
        assert_eq!(triples[11], (3, 2, 2));
    }
}
