//! The density-adaptive hybrid pattern matrix [`HybridPattern`]: sparse
//! u32-index lanes below a density threshold, 64-bit bitmap lanes above it.
//!
//! A u32-index CSR lane spends 32 bits of index traffic per nonzero — the
//! right trade for sparse lanes, but a waste on the dense rows real
//! student×item response matrices mostly consist of: a row at 60% density
//! costs 32× the memory traffic of a bitmap over the same span, its gather
//! order is data-dependent (no hardware prefetch), and every in-place edit
//! has to shift a sorted prefix under slack accounting. A **bitmap lane**
//! fixes all three at once: the index set is 64-bit blocks over the lane
//! dimension, the reduction is a branchless word-at-a-time scan
//! ([`crate::simd`]), and an edit is one bit flip — O(1), no slack, no
//! capacity rollback.
//!
//! [`HybridPattern`] keeps **both** formats, per lane: each row (and each
//! column of the CSC-style mirror) independently stores either a sorted
//! u32-index prefix span with slack capacity (the pure-CSR layout of
//! [`DensityPlan::force_csr`]) or a span of 64-bit blocks in a shared word
//! arena. The choice is made **at construction** from the lane's density
//! under a [`DensityPlan`]; [`HybridPattern::apply_delta`] never changes a
//! lane's format, so promotion/demotion happens lazily at the rebuild
//! points the serving layer already has (slack exhaustion, bulk deltas,
//! shard rebalances).
//!
//! The gather kernels ([`HybridPattern::rows_gather`] /
//! [`HybridPattern::cols_gather`]) hand each lane's reduction to a closure
//! as a [`Lane`] — a two-variant view whose [`Lane::sum`] /
//! [`Lane::sum_scaled`] dispatch to the 4-accumulator CSR gathers or the
//! SIMD word kernels. Higher layers (`hnd-response`, `hnd-shard`) fuse
//! their diagonal scalings into the closures, so every operator family
//! rides the fast path.
//!
//! Bitmap sums traverse the same index set in a different grouping than
//! sparse sums, so a bitmap lane agrees with its sparse twin to rounding
//! (≤ 1e-12 end to end, pinned by the equivalence proptests), not bitwise.
//! Two patterns with identical per-lane formats are bitwise-deterministic
//! with each other, which keeps the serving layer's patched-vs-rebuilt
//! bitwise assertions meaningful on small (all-sparse) sessions.

use crate::dense::DenseMatrix;
use crate::parallel;
use crate::pattern::{gather_sum, gather_sum_scaled, DeltaError, PatternDelta};
use crate::simd;
use crate::sparse::CsrMatrix;

/// Density policy deciding which lanes of a [`HybridPattern`] are stored
/// as bitmaps. Pure data (`Copy`, embeddable in engine options), applied
/// independently per lane at construction/rebuild time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityPlan {
    /// Rows with `nnz ≥ row_density · cols` become bitmap lanes.
    pub row_density: f64,
    /// Columns with `nnz ≥ col_density · rows` become bitmap lanes.
    pub col_density: f64,
    /// Lanes shorter than this stay sparse regardless of density: a bitmap
    /// over a short span saves nothing, and keeping small sessions
    /// all-sparse preserves the serving layer's bitwise patched≡rebuilt
    /// reproducibility where it is actually asserted.
    pub min_dim: usize,
}

impl Default for DensityPlan {
    /// The adaptive plan: thresholds tuned per detected SIMD tier (the
    /// bitmap scan's flat cost is what the density has to amortize, and
    /// that cost is ISA-dependent). Scalar-only machines never promote —
    /// measured on this workload, the portable kernel loses to the
    /// 4-accumulator CSR gathers at every density.
    fn default() -> Self {
        match simd::kernel_isa() {
            // Measured break-evens on the bench container (see PERF.md):
            // short row lanes win from ~10% density, long column lanes
            // (which re-stream the input vector) from ~25%.
            simd::KernelIsa::Avx512 => DensityPlan {
                row_density: 0.12,
                col_density: 0.28,
                min_dim: 128,
            },
            // The AVX2 kernel spends extra uops expanding bits to lane
            // masks; break-evens roughly double.
            simd::KernelIsa::Avx2 => DensityPlan {
                row_density: 0.30,
                col_density: 0.50,
                min_dim: 128,
            },
            simd::KernelIsa::Scalar => DensityPlan::force_csr(),
        }
    }
}

impl DensityPlan {
    /// A plan that never promotes: every lane sparse — the pure-CSR
    /// engine, and the baseline the hybrid bench compares against.
    pub fn force_csr() -> Self {
        DensityPlan {
            row_density: f64::INFINITY,
            col_density: f64::INFINITY,
            min_dim: usize::MAX,
        }
    }

    /// A plan that promotes every lane (even empty ones) to bitmap form —
    /// the test/bench entry point for exercising the word kernels alone.
    pub fn force_bitmap() -> Self {
        DensityPlan {
            row_density: 0.0,
            col_density: 0.0,
            min_dim: 0,
        }
    }

    /// `true` when a row of `nnz` entries over `dim` columns is stored as
    /// a bitmap under this plan.
    pub fn row_is_bitmap(&self, nnz: usize, dim: usize) -> bool {
        dim >= self.min_dim && nnz as f64 >= self.row_density * dim as f64
    }

    /// `true` when a column of `nnz` entries over `dim` rows is stored as
    /// a bitmap under this plan.
    pub fn col_is_bitmap(&self, nnz: usize, dim: usize) -> bool {
        dim >= self.min_dim && nnz as f64 >= self.col_density * dim as f64
    }
}

/// Per-format lane counts of a [`HybridPattern`] — threaded through the
/// engine/shard stats so serving dashboards can see which representation a
/// session runs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormatCounts {
    /// Rows stored as bitmap lanes.
    pub bitmap_rows: usize,
    /// Rows stored as sparse index lanes.
    pub sparse_rows: usize,
    /// Mirror columns stored as bitmap lanes.
    pub bitmap_cols: usize,
    /// Mirror columns stored as sparse index lanes.
    pub sparse_cols: usize,
}

impl FormatCounts {
    /// Element-wise sum (aggregating shard counts).
    pub fn merged(self, other: FormatCounts) -> FormatCounts {
        FormatCounts {
            bitmap_rows: self.bitmap_rows + other.bitmap_rows,
            sparse_rows: self.sparse_rows + other.sparse_rows,
            bitmap_cols: self.bitmap_cols + other.bitmap_cols,
            sparse_cols: self.sparse_cols + other.sparse_cols,
        }
    }
}

/// One lane (a row, or a mirror column) of a [`HybridPattern`], in
/// whichever format the [`DensityPlan`] chose for it. The closure-based
/// gather kernels hand these to their reduction closures; [`Lane::sum`] /
/// [`Lane::sum_scaled`] are the two primitives every operator product is
/// fused from.
#[derive(Debug, Clone, Copy)]
pub enum Lane<'a> {
    /// Sorted u32 indices (the stored prefix of a slack-capacity span).
    Sparse(&'a [u32]),
    /// 64-bit blocks over the full lane dimension; bit `i % 64` of word
    /// `i / 64` marks index `i`.
    Bitmap(&'a [u64]),
}

impl<'a> Lane<'a> {
    /// `Σ x[i]` over the lane's index set. `x` must span the lane
    /// dimension (bitmap lanes scan it in full).
    #[inline]
    pub fn sum(&self, x: &[f64]) -> f64 {
        match self {
            Lane::Sparse(idx) => gather_sum(idx, x),
            Lane::Bitmap(words) => simd::bitmap_sum(words, x),
        }
    }

    /// `Σ x[i]·scale[i]` over the lane's index set (fusing a diagonal
    /// input scaling into the same pass). `scale` must be finite and span
    /// the lane dimension.
    #[inline]
    pub fn sum_scaled(&self, x: &[f64], scale: &[f64]) -> f64 {
        match self {
            Lane::Sparse(idx) => gather_sum_scaled(idx, x, scale),
            Lane::Bitmap(words) => simd::bitmap_sum_scaled(words, x, scale),
        }
    }

    /// Iterator over the lane's indices, ascending. `dim` is the lane
    /// dimension (ignored for sparse lanes).
    pub fn iter(self, dim: usize) -> LaneIter<'a> {
        match self {
            Lane::Sparse(idx) => LaneIter::Sparse(idx.iter()),
            Lane::Bitmap(words) => LaneIter::Bitmap {
                words,
                dim,
                wi: 0,
                cur: words.first().copied().unwrap_or(0),
            },
        }
    }
}

/// Ascending index iterator over one [`Lane`] (cold paths: conversions,
/// logical equality, model code that walks rows).
#[derive(Debug, Clone)]
pub enum LaneIter<'a> {
    /// Iterating a sparse index slice.
    Sparse(std::slice::Iter<'a, u32>),
    /// Iterating the set bits of a bitmap lane.
    Bitmap {
        /// The lane's words.
        words: &'a [u64],
        /// Lane dimension (bits at/after it are never set).
        dim: usize,
        /// Current word index.
        wi: usize,
        /// Remaining bits of the current word.
        cur: u64,
    },
}

impl Iterator for LaneIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            LaneIter::Sparse(it) => it.next().map(|&i| i as usize),
            LaneIter::Bitmap {
                words,
                dim,
                wi,
                cur,
            } => loop {
                if *cur != 0 {
                    let bit = cur.trailing_zeros() as usize;
                    *cur &= *cur - 1;
                    let idx = *wi * 64 + bit;
                    debug_assert!(idx < *dim, "set bit beyond lane dimension");
                    return Some(idx);
                }
                *wi += 1;
                if *wi >= words.len() {
                    return None;
                }
                *cur = words[*wi];
            },
        }
    }
}

/// Sentinel in the per-lane word-offset tables marking a sparse lane.
const SPARSE: u32 = u32::MAX;

/// A binary (0/1) sparse-or-dense pattern matrix: per-lane hybrid storage
/// (see the module docs) with a full mirror, in-place [`PatternDelta`]
/// edits, and the closure-based gather kernels the spectral operators are
/// built on — the pattern type behind `hnd_response::ResponseOps` and
/// `hnd_shard::ShardedOps`.
///
/// Invariants: the row view and the column mirror always describe the same
/// entry set; sparse lanes keep strictly-increasing indices in the prefix
/// of their capacity span; bitmap lanes never have bits set at/beyond the
/// lane dimension; `row_len`/`col_len` track logical entry counts for
/// *both* formats. Equality compares the logical entry set, not formats or
/// physical layout.
#[derive(Debug, Clone)]
pub struct HybridPattern {
    rows: usize,
    cols: usize,
    plan: DensityPlan,
    // Row view: sparse spans over `col_idx`, bitmap spans over `row_words`.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    row_len: Vec<u32>,
    /// Word offset of row `i` in `row_words`, or [`SPARSE`].
    row_bits: Vec<u32>,
    row_words: Vec<u64>,
    /// Words per bitmap row (`ceil(cols / 64)`).
    row_wpr: usize,
    // Column mirror: sparse spans over `row_idx`, bitmap spans over
    // `col_words`.
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
    col_len: Vec<u32>,
    /// Word offset of column `c` in `col_words`, or [`SPARSE`].
    col_bits: Vec<u32>,
    col_words: Vec<u64>,
    /// Words per bitmap column (`ceil(rows / 64)`).
    col_wpc: usize,
    nnz: usize,
    formats: FormatCounts,
}

impl HybridPattern {
    /// Builds a tightly-packed pattern (zero slack) under the default
    /// (ISA-adaptive) [`DensityPlan`]. Duplicates collapse to one entry.
    ///
    /// # Panics
    /// Panics on out-of-bounds coordinates or dimensions exceeding `u32`.
    pub fn from_pairs(
        rows: usize,
        cols: usize,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        Self::with_plan(rows, cols, pairs, 0, 0, DensityPlan::default())
    }

    /// Builds the pattern with `row_slack`/`col_slack` spare slots per
    /// *sparse* lane (bitmap lanes need no slack — any in-dimension bit is
    /// writable) and lane formats chosen by `plan`.
    ///
    /// # Panics
    /// Panics on out-of-bounds coordinates or dimensions/entry counts
    /// exceeding `u32`.
    pub fn with_plan(
        rows: usize,
        cols: usize,
        pairs: impl IntoIterator<Item = (usize, usize)>,
        row_slack: usize,
        col_slack: usize,
        plan: DensityPlan,
    ) -> Self {
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "HybridPattern: dimensions exceed u32"
        );
        let mut entries: Vec<(u32, u32)> = pairs
            .into_iter()
            .map(|(r, c)| {
                assert!(
                    r < rows && c < cols,
                    "pattern entry out of bounds: ({r},{c})"
                );
                (r as u32, c as u32)
            })
            .collect();
        entries.sort_unstable();
        entries.dedup();
        let nnz = entries.len();
        assert!(
            nnz + rows * row_slack <= u32::MAX as usize
                && nnz + cols * col_slack <= u32::MAX as usize,
            "HybridPattern: entry count (plus slack) exceeds u32 ({nnz} entries)"
        );

        let mut row_len = vec![0u32; rows];
        for &(r, _) in &entries {
            row_len[r as usize] += 1;
        }
        let mut col_len = vec![0u32; cols];
        for &(_, c) in &entries {
            col_len[c as usize] += 1;
        }

        // Row view: decide formats, lay out spans/arenas, fill.
        let row_wpr = cols.div_ceil(64);
        let mut row_ptr = vec![0u32; rows + 1];
        let mut row_bits = vec![SPARSE; rows];
        let mut bitmap_rows = 0usize;
        let mut word_off = 0usize;
        for i in 0..rows {
            if plan.row_is_bitmap(row_len[i] as usize, cols) {
                row_bits[i] = u32::try_from(word_off)
                    .ok()
                    .filter(|&v| v != SPARSE) // the sentinel itself must stay unused
                    .expect("row word arena exceeds u32");
                word_off += row_wpr;
                bitmap_rows += 1;
                row_ptr[i + 1] = row_ptr[i];
            } else {
                row_ptr[i + 1] = row_ptr[i] + row_len[i] + row_slack as u32;
            }
        }
        let mut col_idx = vec![0u32; row_ptr[rows] as usize];
        let mut row_words = vec![0u64; word_off];
        let mut cursor: Vec<u32> = row_ptr[..rows].to_vec();
        for &(r, c) in &entries {
            let ri = r as usize;
            if row_bits[ri] == SPARSE {
                col_idx[cursor[ri] as usize] = c;
                cursor[ri] += 1;
            } else {
                row_words[row_bits[ri] as usize + c as usize / 64] |= 1 << (c % 64);
            }
        }

        // Column mirror, symmetric. Entries are (row, col)-sorted, so each
        // column's rows arrive ascending.
        let col_wpc = rows.div_ceil(64);
        let mut col_ptr = vec![0u32; cols + 1];
        let mut col_bits = vec![SPARSE; cols];
        let mut bitmap_cols = 0usize;
        let mut cword_off = 0usize;
        for c in 0..cols {
            if plan.col_is_bitmap(col_len[c] as usize, rows) {
                col_bits[c] = u32::try_from(cword_off)
                    .ok()
                    .filter(|&v| v != SPARSE) // the sentinel itself must stay unused
                    .expect("column word arena exceeds u32");
                cword_off += col_wpc;
                bitmap_cols += 1;
                col_ptr[c + 1] = col_ptr[c];
            } else {
                col_ptr[c + 1] = col_ptr[c] + col_len[c] + col_slack as u32;
            }
        }
        let mut row_idx = vec![0u32; col_ptr[cols] as usize];
        let mut col_words = vec![0u64; cword_off];
        let mut ccursor: Vec<u32> = col_ptr[..cols].to_vec();
        for &(r, c) in &entries {
            let ci = c as usize;
            if col_bits[ci] == SPARSE {
                row_idx[ccursor[ci] as usize] = r;
                ccursor[ci] += 1;
            } else {
                col_words[col_bits[ci] as usize + r as usize / 64] |= 1 << (r % 64);
            }
        }

        HybridPattern {
            rows,
            cols,
            plan,
            row_ptr,
            col_idx,
            row_len,
            row_bits,
            row_words,
            row_wpr,
            col_ptr,
            row_idx,
            col_len,
            col_bits,
            col_words,
            col_wpc,
            nnz,
            formats: FormatCounts {
                bitmap_rows,
                sparse_rows: rows - bitmap_rows,
                bitmap_cols,
                sparse_cols: cols - bitmap_cols,
            },
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (1-valued) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The density plan the lane formats were chosen under.
    #[inline]
    pub fn plan(&self) -> &DensityPlan {
        &self.plan
    }

    /// Per-format lane counts.
    #[inline]
    pub fn format_counts(&self) -> FormatCounts {
        self.formats
    }

    /// `true` when row `i` is a bitmap lane.
    #[inline]
    pub fn row_is_bitmap(&self, i: usize) -> bool {
        self.row_bits[i] != SPARSE
    }

    /// `true` when mirror column `c` is a bitmap lane.
    #[inline]
    pub fn col_is_bitmap(&self, c: usize) -> bool {
        self.col_bits[c] != SPARSE
    }

    /// Row `i` as a [`Lane`] (dimension [`Self::cols`]).
    #[inline]
    pub fn row_lane(&self, i: usize) -> Lane<'_> {
        let off = self.row_bits[i];
        if off == SPARSE {
            let start = self.row_ptr[i] as usize;
            Lane::Sparse(&self.col_idx[start..start + self.row_len[i] as usize])
        } else {
            let start = off as usize;
            Lane::Bitmap(&self.row_words[start..start + self.row_wpr])
        }
    }

    /// Mirror column `c` as a [`Lane`] (dimension [`Self::rows`]).
    #[inline]
    pub fn col_lane(&self, c: usize) -> Lane<'_> {
        let off = self.col_bits[c];
        if off == SPARSE {
            let start = self.col_ptr[c] as usize;
            Lane::Sparse(&self.row_idx[start..start + self.col_len[c] as usize])
        } else {
            let start = off as usize;
            Lane::Bitmap(&self.col_words[start..start + self.col_wpc])
        }
    }

    /// Iterator over the column indices of row `i`, ascending.
    #[inline]
    pub fn row_iter(&self, i: usize) -> LaneIter<'_> {
        self.row_lane(i).iter(self.cols)
    }

    /// Iterator over the row indices of mirror column `c`, ascending.
    #[inline]
    pub fn col_iter(&self, c: usize) -> LaneIter<'_> {
        self.col_lane(c).iter(self.rows)
    }

    /// Number of entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_len[i] as usize
    }

    /// Number of entries in column `c`.
    #[inline]
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_len[c] as usize
    }

    /// Spare insert capacity of row `i`: remaining span slots for sparse
    /// lanes, the whole unset remainder for bitmap lanes (bit flips need
    /// no slack).
    pub fn row_slack(&self, i: usize) -> usize {
        if self.row_bits[i] == SPARSE {
            (self.row_ptr[i + 1] - self.row_ptr[i]) as usize - self.row_len[i] as usize
        } else {
            self.cols - self.row_len[i] as usize
        }
    }

    /// Spare insert capacity of column `c` (see [`Self::row_slack`]).
    pub fn col_slack(&self, c: usize) -> usize {
        if self.col_bits[c] == SPARSE {
            (self.col_ptr[c + 1] - self.col_ptr[c]) as usize - self.col_len[c] as usize
        } else {
            self.rows - self.col_len[c] as usize
        }
    }

    /// Per-row entry counts as `f64` (`C · 1`).
    pub fn row_counts(&self) -> Vec<f64> {
        self.row_len.iter().map(|&n| n as f64).collect()
    }

    /// Per-column entry counts as `f64` (`Cᵀ · 1`).
    pub fn col_counts(&self) -> Vec<f64> {
        self.col_len.iter().map(|&n| n as f64).collect()
    }

    /// `true` when entry `(r, c)` is stored.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        if r >= self.rows || c >= self.cols {
            return false;
        }
        let off = self.row_bits[r];
        if off == SPARSE {
            match self.row_lane(r) {
                Lane::Sparse(idx) => idx.binary_search(&(c as u32)).is_ok(),
                Lane::Bitmap(_) => unreachable!(),
            }
        } else {
            self.row_words[off as usize + c / 64] >> (c % 64) & 1 == 1
        }
    }

    /// Applies an edit batch in place, patching the row view *and* the
    /// mirror. Edits touching bitmap lanes are O(1) bit flips with no
    /// slack accounting; edits touching sparse lanes shift the sorted
    /// stored prefix within its capacity span and can fail with
    /// [`DeltaError::RowFull`] / [`DeltaError::ColFull`] when the span is
    /// exhausted (the caller rebuilds — and the rebuild re-evaluates lane
    /// formats, which is where promotion/demotion happens).
    ///
    /// Removes are applied before adds; on any error the matrix is rolled
    /// back to its exact pre-delta state.
    pub fn apply_delta(&mut self, delta: &PatternDelta) -> Result<(), DeltaError> {
        for (k, &(r, c)) in delta.removes.iter().enumerate() {
            if let Err(e) = self.remove_entry(r, c) {
                for &(rr, cc) in delta.removes[..k].iter().rev() {
                    self.insert_entry(rr, cc).expect("rollback re-insert");
                }
                return Err(e);
            }
        }
        for (k, &(r, c)) in delta.adds.iter().enumerate() {
            if let Err(e) = self.insert_entry(r, c) {
                for &(rr, cc) in delta.adds[..k].iter().rev() {
                    self.remove_entry(rr, cc).expect("rollback remove");
                }
                for &(rr, cc) in delta.removes.iter().rev() {
                    self.insert_entry(rr, cc).expect("rollback re-insert");
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Inserts `(r, c)` into both views. All error checks run before
    /// either side mutates, so a failed insert leaves no partial state.
    fn insert_entry(&mut self, r: u32, c: u32) -> Result<(), DeltaError> {
        if (r as usize) >= self.rows || (c as usize) >= self.cols {
            return Err(DeltaError::OutOfBounds { row: r, col: c });
        }
        let (ri, ci) = (r as usize, c as usize);
        // Row side: position (sparse) or word/bit (bitmap), plus checks.
        let row_word = self.row_bits[ri];
        let row_pos = if row_word == SPARSE {
            let pos = match self.sparse_row(ri).binary_search(&c) {
                Ok(_) => return Err(DeltaError::Duplicate { row: r, col: c }),
                Err(p) => p,
            };
            if self.row_slack(ri) == 0 {
                return Err(DeltaError::RowFull { row: r });
            }
            pos
        } else {
            if self.row_words[row_word as usize + ci / 64] >> (ci % 64) & 1 == 1 {
                return Err(DeltaError::Duplicate { row: r, col: c });
            }
            0
        };
        // Column side.
        let col_word = self.col_bits[ci];
        let col_pos = if col_word == SPARSE {
            let pos = self
                .sparse_col(ci)
                .binary_search(&r)
                .expect_err("row/column mirror out of sync");
            if self.col_slack(ci) == 0 {
                return Err(DeltaError::ColFull { col: c });
            }
            pos
        } else {
            debug_assert_eq!(
                self.col_words[col_word as usize + ri / 64] >> (ri % 64) & 1,
                0,
                "row/column mirror out of sync"
            );
            0
        };
        // Commit both sides.
        if row_word == SPARSE {
            let start = self.row_ptr[ri] as usize;
            let len = self.row_len[ri] as usize;
            self.col_idx
                .copy_within(start + row_pos..start + len, start + row_pos + 1);
            self.col_idx[start + row_pos] = c;
        } else {
            self.row_words[row_word as usize + ci / 64] |= 1 << (ci % 64);
        }
        self.row_len[ri] += 1;
        if col_word == SPARSE {
            let cstart = self.col_ptr[ci] as usize;
            let clen = self.col_len[ci] as usize;
            self.row_idx
                .copy_within(cstart + col_pos..cstart + clen, cstart + col_pos + 1);
            self.row_idx[cstart + col_pos] = r;
        } else {
            self.col_words[col_word as usize + ri / 64] |= 1 << (ri % 64);
        }
        self.col_len[ci] += 1;
        self.nnz += 1;
        Ok(())
    }

    /// Removes `(r, c)` from both views (checks before mutation, as in
    /// [`Self::insert_entry`]).
    fn remove_entry(&mut self, r: u32, c: u32) -> Result<(), DeltaError> {
        if (r as usize) >= self.rows || (c as usize) >= self.cols {
            return Err(DeltaError::OutOfBounds { row: r, col: c });
        }
        let (ri, ci) = (r as usize, c as usize);
        let row_word = self.row_bits[ri];
        let row_pos = if row_word == SPARSE {
            match self.sparse_row(ri).binary_search(&c) {
                Ok(p) => p,
                Err(_) => return Err(DeltaError::Missing { row: r, col: c }),
            }
        } else {
            if self.row_words[row_word as usize + ci / 64] >> (ci % 64) & 1 == 0 {
                return Err(DeltaError::Missing { row: r, col: c });
            }
            0
        };
        if row_word == SPARSE {
            let start = self.row_ptr[ri] as usize;
            let len = self.row_len[ri] as usize;
            self.col_idx
                .copy_within(start + row_pos + 1..start + len, start + row_pos);
        } else {
            self.row_words[row_word as usize + ci / 64] &= !(1 << (ci % 64));
        }
        self.row_len[ri] -= 1;
        let col_word = self.col_bits[ci];
        if col_word == SPARSE {
            let cpos = self
                .sparse_col(ci)
                .binary_search(&r)
                .expect("row/column mirror out of sync");
            let cstart = self.col_ptr[ci] as usize;
            let clen = self.col_len[ci] as usize;
            self.row_idx
                .copy_within(cstart + cpos + 1..cstart + clen, cstart + cpos);
        } else {
            debug_assert_eq!(
                self.col_words[col_word as usize + ri / 64] >> (ri % 64) & 1,
                1,
                "row/column mirror out of sync"
            );
            self.col_words[col_word as usize + ri / 64] &= !(1 << (ri % 64));
        }
        self.col_len[ci] -= 1;
        self.nnz -= 1;
        Ok(())
    }

    /// The stored index prefix of sparse row `i` (callers check format).
    #[inline]
    fn sparse_row(&self, i: usize) -> &[u32] {
        let start = self.row_ptr[i] as usize;
        &self.col_idx[start..start + self.row_len[i] as usize]
    }

    /// The stored index prefix of sparse column `c`.
    #[inline]
    fn sparse_col(&self, c: usize) -> &[u32] {
        let start = self.col_ptr[c] as usize;
        &self.row_idx[start..start + self.col_len[c] as usize]
    }

    /// Row-parallel gather: `y[i] = f(i, row lane i)` — the fusion point
    /// for every `C`-sided product: the closure owns the full row
    /// reduction, so diagonal scalings fold into the same pass.
    #[inline]
    pub fn rows_gather(&self, y: &mut [f64], f: impl Fn(usize, Lane<'_>) -> f64 + Sync) {
        assert_eq!(y.len(), self.rows, "rows_gather: output length mismatch");
        parallel::par_fill(y, |offset, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let i = offset + k;
                *slot = f(i, self.row_lane(i));
            }
        });
    }

    /// Column-parallel gather over the mirror: `y[c] = f(c, column lane c)`.
    /// The mirror turns `Cᵀ`-sided products from a serial scatter into an
    /// embarrassingly parallel gather.
    #[inline]
    pub fn cols_gather(&self, y: &mut [f64], f: impl Fn(usize, Lane<'_>) -> f64 + Sync) {
        assert_eq!(y.len(), self.cols, "cols_gather: output length mismatch");
        parallel::par_fill(y, |offset, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let c = offset + k;
                *slot = f(c, self.col_lane(c));
            }
        });
    }

    /// `y = C x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length mismatch");
        self.rows_gather(y, |_, lane| lane.sum(x));
    }

    /// `y = Cᵀ x` via the mirror (gather, not scatter).
    pub fn matvec_t(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x length mismatch");
        self.cols_gather(y, |_, lane| lane.sum(x));
    }

    /// Converts to a general CSR matrix with all values 1.0 (round-trip /
    /// testing use).
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_triplets(
            self.rows,
            self.cols,
            (0..self.rows).flat_map(|i| self.row_iter(i).map(move |c| (i, c, 1.0))),
        )
    }

    /// Densifies (test/debug use only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for c in self.row_iter(i) {
                m.set(i, c, 1.0);
            }
        }
        m
    }
}

/// Logical equality: same dimensions and entry set — formats and physical
/// layout (slack, arenas) are invisible, so a delta-patched matrix equals
/// its from-scratch rebuild even when the rebuild promoted lanes.
impl PartialEq for HybridPattern {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.nnz == other.nnz
            && self.row_len == other.row_len
            && (0..self.rows).all(|i| self.row_iter(i).eq(other.row_iter(i)))
    }
}

impl Eq for HybridPattern {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs() -> Vec<(usize, usize)> {
        vec![(0, 0), (0, 2), (2, 0), (2, 1)]
    }

    #[test]
    fn forced_formats_are_logically_identical() {
        let csr = HybridPattern::with_plan(3, 3, pairs(), 0, 0, DensityPlan::force_csr());
        let bmp = HybridPattern::with_plan(3, 3, pairs(), 0, 0, DensityPlan::force_bitmap());
        assert_eq!(csr, bmp);
        assert_eq!(csr.format_counts().bitmap_rows, 0);
        assert_eq!(bmp.format_counts().bitmap_rows, 3);
        assert_eq!(bmp.format_counts().bitmap_cols, 3);
        assert_eq!(bmp.nnz(), 4);
        for i in 0..3 {
            assert_eq!(
                csr.row_iter(i).collect::<Vec<_>>(),
                bmp.row_iter(i).collect::<Vec<_>>()
            );
        }
        for c in 0..3 {
            assert_eq!(
                csr.col_iter(c).collect::<Vec<_>>(),
                bmp.col_iter(c).collect::<Vec<_>>()
            );
        }
        assert!(bmp.contains(0, 2) && !bmp.contains(1, 1));
    }

    #[test]
    fn matvecs_match_dense_in_both_formats() {
        for plan in [DensityPlan::force_csr(), DensityPlan::force_bitmap()] {
            let m = HybridPattern::with_plan(3, 3, pairs(), 1, 1, plan);
            let d = m.to_dense();
            let x = [1.0, -2.0, 0.5];
            let mut y1 = vec![0.0; 3];
            let mut y2 = vec![0.0; 3];
            m.matvec(&x, &mut y1);
            d.matvec(&x, &mut y2);
            for (a, b) in y1.iter().zip(&y2) {
                assert!((a - b).abs() < 1e-12);
            }
            let xt = [2.0, 3.0, -1.0];
            let mut t1 = vec![0.0; 3];
            let mut t2 = vec![0.0; 3];
            m.matvec_t(&xt, &mut t1);
            d.transpose().matvec(&xt, &mut t2);
            for (a, b) in t1.iter().zip(&t2) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bitmap_delta_is_slack_free() {
        // Zero slack everywhere: the bitmap plan still absorbs inserts.
        let mut m = HybridPattern::with_plan(4, 4, [(0, 0)], 0, 0, DensityPlan::force_bitmap());
        m.apply_delta(&PatternDelta {
            removes: vec![(0, 0)],
            adds: vec![(1, 1), (2, 3), (3, 0)],
        })
        .unwrap();
        assert_eq!(m.nnz(), 3);
        assert!(m.contains(2, 3) && !m.contains(0, 0));
        let rebuilt = HybridPattern::from_pairs(4, 4, [(1, 1), (2, 3), (3, 0)]);
        assert_eq!(m, rebuilt);
        // Slack is the unset remainder, never exhausted by edits.
        assert_eq!(m.row_slack(1), 3);
        assert_eq!(m.col_slack(0), 3);
    }

    #[test]
    fn mixed_formats_patch_both_sides() {
        // Rows bitmap, columns sparse: edits flip bits on one side and
        // shift prefixes on the other.
        let plan = DensityPlan {
            row_density: 0.0,
            col_density: f64::INFINITY,
            min_dim: 0,
        };
        let mut m = HybridPattern::with_plan(3, 3, pairs(), 2, 2, plan);
        assert!(m.row_is_bitmap(0) && !m.col_is_bitmap(0));
        m.apply_delta(&PatternDelta {
            removes: vec![(0, 2), (2, 1)],
            adds: vec![(1, 1), (0, 1), (2, 2)],
        })
        .unwrap();
        let rebuilt = HybridPattern::from_pairs(3, 3, [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)]);
        assert_eq!(m, rebuilt);
        assert_eq!(m.col_iter(1).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn sparse_lane_capacity_still_rolls_back() {
        let plan = DensityPlan {
            row_density: 0.0,
            col_density: f64::INFINITY,
            min_dim: 0,
        };
        let reference = HybridPattern::with_plan(2, 2, [(0, 0)], 0, 0, plan);
        let mut m = reference.clone();
        // Bitmap rows absorb anything, but column 1 is sparse with zero
        // slack: the add must fail and roll back completely.
        let err = m
            .apply_delta(&PatternDelta {
                removes: vec![(0, 0)],
                adds: vec![(0, 1), (1, 0)],
            })
            .unwrap_err();
        assert_eq!(err, DeltaError::ColFull { col: 1 });
        assert_eq!(m, reference);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn inconsistent_edits_are_rejected_in_bitmap_form() {
        let mut m = HybridPattern::with_plan(2, 2, [(0, 0)], 0, 0, DensityPlan::force_bitmap());
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
    fn adaptive_plan_promotes_on_the_boundary() {
        let plan = DensityPlan {
            row_density: 0.5,
            col_density: 0.5,
            min_dim: 0,
        };
        // 4 columns: 2 entries (density 0.5) promotes, 1 entry stays
        // sparse.
        let m = HybridPattern::with_plan(2, 4, [(0, 0), (0, 3), (1, 2)], 0, 0, plan);
        assert!(m.row_is_bitmap(0), "density exactly at threshold promotes");
        assert!(!m.row_is_bitmap(1), "below threshold stays sparse");
        // Columns: dimension 2, one entry each = 0.5 ⇒ all bitmap.
        assert!(m.col_is_bitmap(0) && m.col_is_bitmap(2));
        assert_eq!(m.format_counts().bitmap_cols, 3);
        assert_eq!(
            m.format_counts().sparse_cols,
            1,
            "empty column stays sparse"
        );
    }

    #[test]
    fn min_dim_keeps_short_lanes_sparse() {
        let plan = DensityPlan {
            row_density: 0.0,
            col_density: 0.0,
            min_dim: 10,
        };
        let m = HybridPattern::with_plan(3, 3, pairs(), 0, 0, plan);
        assert_eq!(m.format_counts().bitmap_rows, 0);
        assert_eq!(m.format_counts().bitmap_cols, 0);
    }

    #[test]
    fn lane_iter_covers_word_boundaries() {
        let idx = [0usize, 63, 64, 65, 127, 128, 199];
        let m = HybridPattern::with_plan(
            1,
            200,
            idx.iter().map(|&c| (0, c)),
            0,
            0,
            DensityPlan::force_bitmap(),
        );
        assert_eq!(m.row_iter(0).collect::<Vec<_>>(), idx.to_vec());
        let lane = m.row_lane(0);
        let x = vec![1.0; 200];
        assert!((lane.sum(&x) - idx.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn gather_closures_fuse_scalings_across_formats() {
        for plan in [DensityPlan::force_csr(), DensityPlan::force_bitmap()] {
            let m = HybridPattern::with_plan(3, 3, pairs(), 0, 0, plan);
            let x = [1.0, 1.0, 1.0];
            let scale = [0.5, 10.0, 2.0];
            let mut y = vec![0.0; 3];
            m.rows_gather(&mut y, |i, lane| scale[i] * lane.sum(&x));
            for (got, want) in y.iter().zip([1.0, 0.0, 4.0]) {
                assert!((got - want).abs() < 1e-12, "{y:?}");
            }
        }
    }
}
