//! The one breadth-first search over a reachable state space, run by
//! the paper's generator (§3.4, steps 1–3), the unfolder
//! ([`unfold`](crate::unfold)) and
//! [`HierarchicalMachine::flatten_ir`](crate::HierarchicalMachine::flatten_ir):
//! roots, a budget, and a callback that visits one entry's successors.

/// The reached set of a breadth-first search: entries `(head, row)` — a
/// `u32` head and a `width`-wide `i64` row — numbered in discovery
/// order, so the arrays are the search's queue, with an open-addressed
/// index from an entry to its number (no allocation per entry).
#[derive(Debug)]
pub(crate) struct ReachedSet {
    heads: Vec<u32>,
    rows: Vec<i64>,
    width: usize,
    /// Most entries the set takes ([`ReachedSet::visit`]).
    budget: usize,
    /// Power-of-two table of entry numbers, [`ReachedSet::VACANT`] where
    /// empty, at most half full.
    index: Vec<u32>,
}

impl ReachedSet {
    const VACANT: u32 = u32::MAX;

    /// Number of entries; every entry number is below it.
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// Every entry's head, in entry order.
    pub(crate) fn heads(&self) -> &[u32] {
        &self.heads
    }

    /// Every entry's row, entry-major, [`ReachedSet::width`] wide each.
    pub(crate) fn rows(&self) -> &[i64] {
        &self.rows
    }

    /// Words per row.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The row of `entry`.
    pub(crate) fn row(&self, entry: u32) -> &[i64] {
        &self.rows[entry as usize * self.width..][..self.width]
    }

    /// The index position where `(head, row)` is, or would go.
    fn probe(&self, head: u32, row: &[i64]) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut hash = u64::from(head).wrapping_mul(K);
        for &v in row {
            hash = (hash.rotate_left(5) ^ v as u64).wrapping_mul(K);
        }
        let mask = self.index.len() - 1;
        let mut at = (hash >> 32) as usize & mask;
        loop {
            let entry = self.index[at];
            if entry == ReachedSet::VACANT
                || (self.heads[entry as usize] == head && self.row(entry) == row)
            {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// The number of exactly `(head, row)`, if reached.
    pub(crate) fn find(&self, head: u32, row: &[i64]) -> Option<u32> {
        let entry = self.index[self.probe(head, row)];
        (entry != ReachedSet::VACANT).then_some(entry)
    }

    /// The number of `(head, row)`, numbering it — and so queueing it —
    /// if it is new (`true`). `None` if it is new and the set already
    /// holds its budget: the search is over budget.
    pub(crate) fn visit(&mut self, head: u32, row: &[i64]) -> Option<(u32, bool)> {
        let at = self.probe(head, row);
        if self.index[at] != ReachedSet::VACANT {
            return Some((self.index[at], false));
        }
        if self.len() == self.budget {
            return None;
        }
        let entry = self.len() as u32;
        self.heads.push(head);
        self.rows.extend_from_slice(row);
        self.index[at] = entry;
        if self.len() * 2 > self.index.len() {
            self.index = vec![ReachedSet::VACANT; self.index.len() * 2];
            for entry in 0..self.len() as u32 {
                let at = self.probe(self.heads[entry as usize], self.row(entry));
                self.index[at] = entry;
            }
        }
        Some((entry, true))
    }
}

/// Breadth-first search from `roots`, numbered first in the order given:
/// `successors(set, entry)` runs once per entry, in entry order, and
/// [`visit`](ReachedSet::visit)s its successors. The first error it
/// returns stops the search. At most `budget` entries are numbered
/// (never more than `u32` ids can); past it `visit` answers `None`, and
/// the callback says what that means.
///
/// # Panics
///
/// Panics if the roots alone pass the budget.
pub(crate) fn explore<R: AsRef<[i64]>, E>(
    width: usize,
    roots: impl IntoIterator<Item = (u32, R)>,
    budget: usize,
    mut successors: impl FnMut(&mut ReachedSet, u32) -> Result<(), E>,
) -> Result<ReachedSet, E> {
    let mut set = ReachedSet {
        heads: Vec::new(),
        rows: Vec::new(),
        width,
        budget: budget.min(ReachedSet::VACANT as usize),
        index: vec![ReachedSet::VACANT; 64],
    };
    for (head, row) in roots {
        set.visit(head, row.as_ref())
            .expect("the roots fit the budget");
    }
    let mut entry = 0;
    while entry < set.len() {
        successors(&mut set, entry as u32)?;
        entry += 1;
    }
    Ok(set)
}
