//! Checks against computations made apart from the program.
//!
//! The reference HnD solver here is written from the paper's update rule
//! and shares no code with `hnd-core` / `hnd-linalg`: user scores `s` map
//! to option scores (the mean score of the users who picked the option),
//! then back to user scores (the mean score of the options a user
//! picked) — `U = Dr⁻¹ C Dc⁻¹ Cᵀ`. The ranking is the second eigenvector
//! of `U`, found by power iteration on score *differences* (`Udiff = S U
//! T`: cumulative sum, one `U` step, adjacent differences), which removes
//! the trivial all-ones eigenvector. The sign is fixed by the paper's
//! decile-entropy rule (the able decile agrees on answers).
//!
//! Every check returns `Err(reason)` on a wrong answer; the benchmark
//! counts any error as a failed run.

use crate::mirror::Mirror;
use crate::sys::spearman;
use hnd_response::{ResponseDelta, ResponseLog};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Convergence tolerance of the reference power iteration (L2 change of
/// the unit difference vector between iterations).
pub const REF_TOL: f64 = 1e-10;
/// Iteration budget of the reference solver.
pub const REF_MAX_ITER: usize = 50_000;
/// Least Spearman correlation a served exact ranking must reach against
/// the reference.
pub const MIN_RANK_SPEARMAN: f64 = 0.99;
/// Score margin (as a share of the reference's score range) beyond which
/// top-k membership is decided: users further than this above the
/// (k+1)-th reference score must be served, and no served user may sit
/// further than this below the k-th.
pub const TOPK_MARGIN: f64 = 2e-3;
/// Entropy gap (nats) below which the decile rule cannot tell a ranking
/// from its reverse; the orientation check is then skipped.
pub const ORIENT_MIN_GAP: f64 = 0.02;

/// The reference solution for one session.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Oriented scores (higher = more able).
    pub scores: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    /// |top-decile entropy − bottom-decile entropy| of the oriented order.
    pub orientation_gap: f64,
}

/// Solves one session's matrix with the reference HnD power iteration.
pub fn solve(mirror: &Mirror) -> Reference {
    let m = mirror.users;
    let n_cols = mirror.items * mirror.options as usize;
    let mut row_ptr = Vec::with_capacity(m + 1);
    let mut cols: Vec<u32> = Vec::new();
    row_ptr.push(0usize);
    for u in 0..m {
        cols.extend(mirror.row_columns(u).map(|c| c as u32));
        row_ptr.push(cols.len());
    }
    let mut col_count = vec![0.0f64; n_cols];
    for &c in &cols {
        col_count[c as usize] += 1.0;
    }
    if m < 2 {
        return Reference {
            scores: vec![0.0; m],
            iterations: 0,
            converged: true,
            orientation_gap: 0.0,
        };
    }

    // Deterministic start with components along every direction.
    let mut x: Vec<f64> = (0..m - 1)
        .map(|i| {
            let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    normalize(&mut x);
    let mut s = vec![0.0f64; m];
    let mut w = vec![0.0f64; n_cols];
    let mut y = vec![0.0f64; m];
    let mut next = vec![0.0f64; m - 1];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < REF_MAX_ITER {
        iterations += 1;
        // T: scores from differences, anchored at s[0] = 0.
        s[0] = 0.0;
        for i in 0..m - 1 {
            s[i + 1] = s[i] + x[i];
        }
        // Option score = mean score of its pickers.
        w.iter_mut().for_each(|v| *v = 0.0);
        for u in 0..m {
            for &c in &cols[row_ptr[u]..row_ptr[u + 1]] {
                w[c as usize] += s[u];
            }
        }
        for (v, &n) in w.iter_mut().zip(&col_count) {
            if n > 0.0 {
                *v /= n;
            }
        }
        // User score = mean score of the options they picked.
        for u in 0..m {
            let row = &cols[row_ptr[u]..row_ptr[u + 1]];
            y[u] = if row.is_empty() {
                0.0
            } else {
                row.iter().map(|&c| w[c as usize]).sum::<f64>() / row.len() as f64
            };
        }
        // S: adjacent differences.
        for i in 0..m - 1 {
            next[i] = y[i + 1] - y[i];
        }
        normalize(&mut next);
        let change = x
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        std::mem::swap(&mut x, &mut next);
        if change < REF_TOL {
            converged = true;
            break;
        }
    }
    let mut scores = vec![0.0f64; m];
    for i in 0..m - 1 {
        scores[i + 1] = scores[i] + x[i];
    }
    let (top, bottom) = decile_entropies(mirror, &scores);
    if top > bottom {
        scores.iter_mut().for_each(|v| *v = -*v);
    }
    Reference {
        scores,
        iterations,
        converged,
        orientation_gap: (top - bottom).abs(),
    }
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
    if norm > 0.0 {
        v.iter_mut().for_each(|a| *a /= norm);
    }
}

/// Mean per-item choice entropy of the best and the worst tenth of users
/// under `scores` (ties broken by user index).
fn decile_entropies(mirror: &Mirror, scores: &[f64]) -> (f64, f64) {
    let m = scores.len();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    let d = (m / 10).max(1);
    let entropy = |group: &[usize]| {
        let mut total = 0.0;
        let mut items = 0usize;
        for item in 0..mirror.items {
            let mut counts = vec![0usize; mirror.options as usize];
            let mut answered = 0usize;
            for &u in group {
                if let Some(o) = mirror.cell(u, item) {
                    counts[o as usize] += 1;
                    answered += 1;
                }
            }
            if answered == 0 {
                continue;
            }
            items += 1;
            for &c in &counts {
                if c > 0 {
                    let p = c as f64 / answered as f64;
                    total -= p * p.ln();
                }
            }
        }
        if items == 0 {
            0.0
        } else {
            total / items as f64
        }
    };
    (entropy(&order[..d]), entropy(&order[m - d..]))
}

impl Reference {
    /// The reference scores oriented for comparison with `served`: the
    /// reference's own orientation when the decile rule decides it,
    /// otherwise whichever sign agrees with `served`.
    pub fn oriented_for(&self, served: &[f64]) -> Vec<f64> {
        if self.orientation_gap >= ORIENT_MIN_GAP || spearman(served, &self.scores) >= 0.0 {
            self.scores.clone()
        } else {
            self.scores.iter().map(|v| -v).collect()
        }
    }
}

/// A served exact ranking against the reference: Spearman at least
/// [`MIN_RANK_SPEARMAN`] (sign included), plus top-`k` membership.
/// Returns the Spearman correlation.
pub fn check_ranking(served: &[f64], reference: &Reference, k: usize) -> Result<f64, String> {
    if served.len() != reference.scores.len() {
        return Err(format!(
            "ranking covers {} users, session has {}",
            served.len(),
            reference.scores.len()
        ));
    }
    if served.iter().any(|v| !v.is_finite()) {
        return Err("ranking holds a non-finite score".into());
    }
    let oriented = reference.oriented_for(served);
    let rho = spearman(served, &oriented);
    if rho < MIN_RANK_SPEARMAN {
        return Err(format!(
            "Spearman {rho:.5} against the reference (need ≥ {MIN_RANK_SPEARMAN})"
        ));
    }
    let mut order: Vec<usize> = (0..served.len()).collect();
    order.sort_by(|&a, &b| served[b].total_cmp(&served[a]).then(a.cmp(&b)));
    order.truncate(k);
    check_top_k(&order, &oriented, k)?;
    Ok(rho)
}

/// Top-`k` users against oriented reference scores: decided membership
/// must match (see [`TOPK_MARGIN`]).
pub fn check_top_k(served: &[usize], oriented: &[f64], k: usize) -> Result<(), String> {
    let m = oriented.len();
    let want = k.min(m);
    if served.len() != want {
        return Err(format!("top-{k} returned {} users", served.len()));
    }
    let distinct: BTreeSet<usize> = served.iter().copied().collect();
    if distinct.len() != want || served.iter().any(|&u| u >= m) {
        return Err(format!(
            "top-{k} repeats a user or names one outside the roster"
        ));
    }
    let (lo, hi) = oriented
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    let range = (hi - lo).max(f64::MIN_POSITIVE);
    let norm: Vec<f64> = oriented.iter().map(|v| (v - lo) / range).collect();
    let mut sorted = norm.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let kth = sorted[want - 1];
    let next = if want < m {
        sorted[want]
    } else {
        f64::NEG_INFINITY
    };
    if let Some(&u) = served.iter().find(|&&u| norm[u] < kth - TOPK_MARGIN) {
        return Err(format!(
            "top-{k} serves user {u} at reference score {:.5}, below the k-th {kth:.5}",
            norm[u]
        ));
    }
    if let Some(u) = (0..m).find(|&u| norm[u] > next + TOPK_MARGIN && !distinct.contains(&u)) {
        return Err(format!(
            "top-{k} misses user {u} at reference score {:.5}, above the (k+1)-th {next:.5}",
            norm[u]
        ));
    }
    Ok(())
}

/// Theorem 2 on an ideal consecutive-ones session: ordered by generating
/// ability, the served scores of the groups of users with identical
/// answer rows must be monotone (either direction). Neighbouring groups
/// may tie — the reference solver itself gives some distinct rows equal
/// scores — so a step against the direction fails only beyond a margin
/// of 1e-6 of the score range, far below what any misordering moves.
pub fn check_c1p(served: &[f64], abilities: &[f64], mirror: &Mirror) -> Result<(), String> {
    if served.len() != abilities.len() {
        return Err("C1P witness ranking has the wrong length".into());
    }
    let mut order: Vec<usize> = (0..abilities.len()).collect();
    order.sort_by(|&a, &b| abilities[a].total_cmp(&abilities[b]));
    let row = |u: usize| &mirror.cells()[u * mirror.items..(u + 1) * mirror.items];
    let mut groups: Vec<f64> = Vec::new();
    let mut start = 0;
    for i in 1..=order.len() {
        if i == order.len() || row(order[i]) != row(order[start]) {
            groups.push(served[order[start]]);
            start = i;
        }
    }
    if groups.len() < 2 {
        return Ok(());
    }
    let (lo, hi) = served
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    let eps = 1e-6 * (hi - lo);
    let dir = (groups[groups.len() - 1] - groups[0]).signum();
    if dir == 0.0 {
        return Err("C1P witness: lowest and highest answer rows tie".into());
    }
    match groups.windows(2).position(|w| dir * (w[1] - w[0]) < -eps) {
        Some(g) => Err(format!(
            "C1P witness: answer-row groups {g} and {} are out of consecutive-ones order \
             (group scores {:?})",
            g + 1,
            &groups[g.saturating_sub(2)..(g + 4).min(groups.len())]
        )),
        None => Ok(()),
    }
}

/// A session log returned by the program against the benchmark's copy.
pub fn check_log(log: &ResponseLog, mirror: &Mirror) -> Result<(), String> {
    if log.n_users() != mirror.users || log.n_items() != mirror.items {
        return Err("session log has the wrong shape".into());
    }
    if log.version() != mirror.version() {
        return Err(format!(
            "session log at version {}, benchmark copy at {}",
            log.version(),
            mirror.version()
        ));
    }
    for u in 0..mirror.users {
        for i in 0..mirror.items {
            if log.choice(u, i) != mirror.cell(u, i) {
                return Err(format!(
                    "cell ({u}, {i}) holds {:?}, benchmark wrote {:?}",
                    log.choice(u, i),
                    mirror.cell(u, i)
                ));
            }
        }
    }
    Ok(())
}

/// A cell's `(version, new value)` changes, oldest first.
type CellChanges = Vec<(u64, Option<u16>)>;

/// Every cell's value at any version, built once from a mirror's history.
pub struct Timeline {
    changes: HashMap<(u32, u32), CellChanges>,
}

impl Timeline {
    pub fn new(mirror: &Mirror) -> Self {
        let mut changes: HashMap<(u32, u32), CellChanges> = HashMap::new();
        for (v, e) in mirror.history().iter().enumerate() {
            changes
                .entry((e.user, e.item))
                .or_default()
                .push((v as u64 + 1, e.to));
        }
        Timeline { changes }
    }

    fn value_at(&self, cell: (u32, u32), version: u64) -> Option<u16> {
        let list = self.changes.get(&cell)?;
        match list.partition_point(|&(v, _)| v <= version) {
            0 => None,
            n => list[n - 1].1,
        }
    }
}

/// A catch-up reply applied to the benchmark's copy at its from-version
/// must reproduce the copy at `expect_to` (the head when it was sent).
pub fn check_catch_up(
    delta: &ResponseDelta,
    expect_from: u64,
    expect_to: u64,
    mirror: &Mirror,
    timeline: &Timeline,
) -> Result<(), String> {
    if delta.from_version != expect_from || delta.to_version != expect_to {
        return Err(format!(
            "catch-up spans {}..{}, expected {expect_from}..{expect_to}",
            delta.from_version, delta.to_version
        ));
    }
    let mut applied: BTreeMap<(u32, u32), Option<u16>> = BTreeMap::new();
    for e in &delta.edits {
        let cell = (e.user as u32, e.item as u32);
        let current = applied
            .get(&cell)
            .copied()
            .unwrap_or_else(|| timeline.value_at(cell, expect_from));
        if current != e.from {
            return Err(format!(
                "catch-up edit on ({}, {}) expects {:?}, copy at v{expect_from} holds {current:?}",
                e.user, e.item, e.from
            ));
        }
        applied.insert(cell, e.to);
    }
    for (&cell, &v) in &applied {
        if v != timeline.value_at(cell, expect_to) {
            return Err(format!(
                "catch-up leaves ({}, {}) at {v:?}, head has {:?}",
                cell.0,
                cell.1,
                timeline.value_at(cell, expect_to)
            ));
        }
    }
    if let Some(cell) = mirror
        .net_changes(expect_from, expect_to)
        .keys()
        .find(|c| !applied.contains_key(c))
    {
        return Err(format!(
            "catch-up omits cell ({}, {}) changed since v{expect_from}",
            cell.0, cell.1
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnd_response::{ResponseDelta, ResponseEdit, ResponseLog};

    /// Three users, two binary items in consecutive-ones order:
    /// u0 = (0, 0), u1 = (1, 0), u2 = (1, 1). Column pick counts are
    /// (1, 2, 2, 1) and every user answered twice, so
    /// `U = [[.75, .25, 0], [.25, .5, .25], [0, .25, .75]]`. Its
    /// eigenvalues are 1 (all-ones), 0.75 with eigenvector (1, 0, −1) and
    /// 0.25 with (1, −2, 1); HnD must return (1, 0, −1) up to sign and
    /// shift, i.e. unit differences (−1, −1)/√2.
    fn tiny() -> Mirror {
        let mut m = Mirror::new(3, 2, 2);
        m.submit(&[
            (0, 0, Some(0)),
            (0, 1, Some(0)),
            (1, 0, Some(1)),
            (1, 1, Some(0)),
            (2, 0, Some(1)),
            (2, 1, Some(1)),
        ]);
        m
    }

    #[test]
    fn reference_matches_hand_worked_tiny_matrix() {
        let r = solve(&tiny());
        assert!(r.converged);
        let d0 = r.scores[1] - r.scores[0];
        let d1 = r.scores[2] - r.scores[1];
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((d0.abs() - h).abs() < 1e-8, "{:?}", r.scores);
        assert!((d1 - d0).abs() < 1e-8, "{:?}", r.scores);
        // Power iteration on Udiff converges at rate 0.25 / 0.75: for a
        // 1e-10 tolerance that is about 21 iterations, never hundreds.
        assert!(r.iterations < 40, "{}", r.iterations);
    }

    /// 40 users in ten ability bands; band b answers item i correctly
    /// (option 0) when i < 2b + 2, otherwise picks one of the three wrong
    /// options at (hashed) random. The decile rule must put the consistent
    /// top band first.
    fn banded() -> (Mirror, Vec<f64>) {
        let mut m = Mirror::new(40, 20, 4);
        let mut wave = Vec::new();
        for u in 0..40 {
            let band = u / 4;
            for i in 0..20 {
                let choice = if i < 2 * band + 2 {
                    0
                } else {
                    let h = ((u * 20 + i) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    1 + ((h >> 40) % 3) as u16
                };
                wave.push((u, i, Some(choice)));
            }
        }
        m.submit(&wave);
        let truth = (0..40).map(|u| (u / 4) as f64).collect();
        (m, truth)
    }

    #[test]
    fn reference_orients_by_decile_entropy() {
        let (m, truth) = banded();
        let r = solve(&m);
        assert!(r.orientation_gap >= ORIENT_MIN_GAP, "{}", r.orientation_gap);
        let rho = spearman(&r.scores, &truth);
        assert!(rho > 0.9, "{rho}");
    }

    #[test]
    fn ranking_check_accepts_reference_and_rejects_reversal() {
        let (m, _) = banded();
        let r = solve(&m);
        assert!(check_ranking(&r.scores, &r, 4).is_ok());
        let reversed: Vec<f64> = r.scores.iter().map(|v| -v).collect();
        assert!(check_ranking(&reversed, &r, 4).is_err());
    }

    #[test]
    fn top_k_check_rejects_a_clearly_worse_user() {
        let (m, _) = banded();
        let r = solve(&m);
        let mut order: Vec<usize> = (0..40).collect();
        order.sort_by(|&a, &b| r.scores[b].total_cmp(&r.scores[a]));
        assert!(check_top_k(&order[..4], &r.scores, 4).is_ok());
        let mut wrong = order[..4].to_vec();
        wrong[0] = order[39];
        assert!(check_top_k(&wrong, &r.scores, 4).is_err());
        assert!(check_top_k(&order[..3], &r.scores, 4).is_err());
    }

    #[test]
    fn c1p_check_accepts_either_direction_and_rejects_a_swap() {
        let mut m = Mirror::new(4, 3, 2);
        let abilities = [0.1, 0.4, 0.6, 0.9];
        let mut wave = Vec::new();
        for (u, &a) in abilities.iter().enumerate() {
            for (i, &b) in [0.3, 0.5, 0.8].iter().enumerate() {
                wave.push((u, i, Some(u16::from(a >= b))));
            }
        }
        m.submit(&wave);
        assert!(check_c1p(&[1.0, 2.0, 3.0, 4.0], &abilities, &m).is_ok());
        assert!(check_c1p(&[4.0, 3.0, 2.0, 1.0], &abilities, &m).is_ok());
        assert!(check_c1p(&[1.0, 2.0, 2.0, 4.0], &abilities, &m).is_ok());
        assert!(check_c1p(&[1.0, 3.0, 2.0, 4.0], &abilities, &m).is_err());
    }

    #[test]
    fn log_check_rejects_a_dropped_edit() {
        let m = tiny();
        let mut log = ResponseLog::homogeneous(3, 2, 2).unwrap();
        let cells = [
            (0, 0, 0),
            (0, 1, 0),
            (1, 0, 1),
            (1, 1, 0),
            (2, 0, 1),
            (2, 1, 1),
        ];
        log.submit(cells.iter().map(|&(u, i, o)| (u, i, Some(o))))
            .unwrap();
        assert!(check_log(&log, &m).is_ok());
        let mut dropped = ResponseLog::homogeneous(3, 2, 2).unwrap();
        dropped
            .submit(cells[..5].iter().map(|&(u, i, o)| (u, i, Some(o))))
            .unwrap();
        assert!(check_log(&dropped, &m).is_err());
    }

    #[test]
    fn catch_up_check_rejects_a_stale_delta() {
        let mut m = Mirror::new(2, 2, 3);
        m.submit(&[(0, 0, Some(1)), (1, 1, Some(2))]); // v2
        m.submit(&[(0, 0, Some(2))]); // v3
        m.submit(&[(1, 0, Some(0))]); // v4
        let t = Timeline::new(&m);
        let edit = |user, item, from, to| ResponseEdit {
            user,
            item,
            from,
            to,
        };
        let good = ResponseDelta {
            from_version: 2,
            to_version: 4,
            edits: vec![edit(0, 0, Some(1), Some(2)), edit(1, 0, None, Some(0))],
        };
        assert!(check_catch_up(&good, 2, 4, &m, &t).is_ok());
        // Stale: stops at v3 and misses the last wave.
        let stale = ResponseDelta {
            from_version: 2,
            to_version: 3,
            edits: vec![edit(0, 0, Some(1), Some(2))],
        };
        assert!(check_catch_up(&stale, 2, 4, &m, &t).is_err());
        // Right span, missing edit.
        let short = ResponseDelta {
            to_version: 4,
            ..stale.clone()
        };
        assert!(check_catch_up(&short, 2, 4, &m, &t).is_err());
        // Wrong base value.
        let bad_from = ResponseDelta {
            from_version: 2,
            to_version: 4,
            edits: vec![edit(0, 0, None, Some(2)), edit(1, 0, None, Some(0))],
        };
        assert!(check_catch_up(&bad_from, 2, 4, &m, &t).is_err());
    }
}
