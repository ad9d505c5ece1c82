//! The benchmark's own copy of every session it drives.
//!
//! A `Mirror` applies each submitted wave the way the service's log
//! defines a commit (a write that leaves the cell unchanged is no edit and
//! does not advance the version), so the benchmark knows every session's
//! expected version, cells and edit history without asking the program.
//! Catch-up versions, expected submit replies and the final-state checks
//! all come from here.

/// One committed cell change, in the benchmark's own representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    pub user: u32,
    pub item: u32,
    pub from: Option<u16>,
    pub to: Option<u16>,
}

#[derive(Debug, Clone)]
pub struct Mirror {
    pub users: usize,
    pub items: usize,
    pub options: u16,
    cells: Vec<Option<u16>>,
    /// `history[v - 1]` is the edit that produced version `v`.
    history: Vec<Edit>,
    /// Version after each submitted wave, oldest first (catch-up sources).
    wave_versions: Vec<u64>,
}

impl Mirror {
    pub fn new(users: usize, items: usize, options: u16) -> Self {
        Mirror {
            users,
            items,
            options,
            cells: vec![None; users * items],
            history: Vec::new(),
            wave_versions: Vec::new(),
        }
    }

    pub fn version(&self) -> u64 {
        self.history.len() as u64
    }

    pub fn cell(&self, user: usize, item: usize) -> Option<u16> {
        self.cells[user * self.items + item]
    }

    pub fn cells(&self) -> &[Option<u16>] {
        &self.cells
    }

    /// Every committed edit, oldest first (`history()[v - 1]` made version `v`).
    pub fn history(&self) -> &[Edit] {
        &self.history
    }

    /// Applies one submitted wave; returns the version the service must
    /// reply with.
    pub fn submit(&mut self, wave: &[(usize, usize, Option<u16>)]) -> u64 {
        for &(user, item, to) in wave {
            let cell = &mut self.cells[user * self.items + item];
            if *cell != to {
                self.history.push(Edit {
                    user: user as u32,
                    item: item as u32,
                    from: *cell,
                    to,
                });
                *cell = to;
            }
        }
        let v = self.version();
        self.wave_versions.push(v);
        v
    }

    /// The version a client that last synced `waves_back` waves ago holds
    /// (clamped to the oldest wave).
    pub fn version_waves_back(&self, waves_back: usize) -> u64 {
        let n = self.wave_versions.len();
        self.wave_versions[n.saturating_sub(1 + waves_back)]
    }

    /// The net change of every cell between versions `from` and `to`:
    /// `(user, item) → (value at from, value at to)`, unchanged cells
    /// dropped.
    pub fn net_changes(
        &self,
        from: u64,
        to: u64,
    ) -> std::collections::BTreeMap<(u32, u32), (Option<u16>, Option<u16>)> {
        let mut net = std::collections::BTreeMap::new();
        for e in &self.history[from as usize..to as usize] {
            net.entry((e.user, e.item))
                .and_modify(|c: &mut (Option<u16>, Option<u16>)| c.1 = e.to)
                .or_insert((e.from, e.to));
        }
        net.retain(|_, (a, b)| a != b);
        net
    }

    /// The user's answers as one-hot column indices (`item * options + choice`).
    pub fn row_columns(&self, user: usize) -> impl Iterator<Item = usize> + '_ {
        let base = user * self.items;
        self.cells[base..base + self.items]
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|o| i * self.options as usize + o as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unchanged_writes_do_not_advance_the_version() {
        let mut m = Mirror::new(2, 2, 3);
        assert_eq!(m.submit(&[(0, 0, Some(1)), (1, 1, Some(2))]), 2);
        assert_eq!(m.submit(&[(0, 0, Some(1))]), 2);
        assert_eq!(m.submit(&[(0, 0, Some(0)), (0, 0, Some(1))]), 4);
        assert_eq!(m.version_waves_back(0), 4);
        assert_eq!(m.version_waves_back(2), 2);
        assert_eq!(m.version_waves_back(99), 2);
        // 0,0 went 1 → 0 → 1 between v2 and v4: no net change.
        assert!(m.net_changes(2, 4).is_empty());
        assert_eq!(m.net_changes(0, 4).len(), 2);
    }
}
