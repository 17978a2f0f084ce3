//! The one breadth-first search over a reachable state space, run by
//! the paper's generator (§3.4, steps 1–3), the unfolder
//! ([`unfold`](crate::unfold)),
//! [`HierarchicalMachine::flatten_ir`](crate::HierarchicalMachine::flatten_ir)
//! and [`equivalent`]: roots, a budget, and a callback that visits one
//! entry's successors.

use std::collections::HashMap;
use std::hash::Hash;

use crate::machine::ProtocolEngine;

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

/// What [`equivalent`] decided about two engines. It never passes
/// silently: a search cut by its budget says so.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<A, B> {
    /// Every reachable pair answers every message alike. Carries the
    /// pairs, in breadth-first order from the start pair, for the
    /// caller's own per-pair checks.
    Equivalent(Vec<(A, B)>),
    /// A shortest trace, by message name, after which the two differ:
    /// on its last message's result or on `is_finished` after it. Empty
    /// if they differ on `is_finished` at the start.
    Distinguished(Vec<String>),
    /// The search passed its budget of pairs while delivering to pairs
    /// this many messages from the start; nothing is decided.
    Bounded(usize),
}

/// Decides whether `a` and `b` are the same protocol over `messages`:
/// a breadth-first search over the pairs of configurations reachable
/// from `(a, b)` delivers every message to both sides of every pair and
/// compares the two [`ProtocolEngine::deliver_ref`] results (an unknown
/// message's error included) and then `is_finished`. Equality and
/// hashing say which configurations are one, so they must cover an
/// engine's configuration and nothing else. At most `budget` pairs are
/// explored.
///
/// # Panics
///
/// Panics if `budget` is 0: the start pair alone passes it.
pub fn equivalent<A, B, M>(a: A, b: B, messages: &[M], budget: usize) -> Verdict<A, B>
where
    A: ProtocolEngine + Clone + Eq + Hash,
    B: ProtocolEngine + Clone + Eq + Hash,
    M: AsRef<str>,
{
    enum Stop {
        Differs(u32, usize),
        Bounded(u32),
    }
    if a.is_finished() != b.is_finished() {
        return Verdict::Distinguished(Vec::new());
    }
    // Each side's configurations, interned to dense ids: a pair is the
    // row `[id_a, id_b]`. Entry `e > 0` was first reached from
    // `parents[e - 1]`: its parent entry and the message index.
    let (mut side_a, mut side_b) = ((HashMap::new(), Vec::new()), (HashMap::new(), Vec::new()));
    let mut parents: Vec<(u32, usize)> = Vec::new();
    let root = [intern(&mut side_a, a), intern(&mut side_b, b)];
    let searched = explore(2, [(0, root)], budget, |pairs, entry| {
        let (from_a, from_b) = (pairs.row(entry)[0] as usize, pairs.row(entry)[1] as usize);
        for (m, message) in messages.iter().enumerate() {
            let (mut a, mut b) = (side_a.1[from_a].clone(), side_b.1[from_b].clone());
            let message = message.as_ref();
            if a.deliver_ref(message) != b.deliver_ref(message)
                || a.is_finished() != b.is_finished()
            {
                return Err(Stop::Differs(entry, m));
            }
            let next = [intern(&mut side_a, a), intern(&mut side_b, b)];
            match pairs.visit(0, &next) {
                None => return Err(Stop::Bounded(entry)),
                Some((_, true)) => parents.push((entry, m)),
                Some((_, false)) => {}
            }
        }
        Ok(())
    });
    // The message indices that first reached `entry`, from the start.
    let path = |mut entry: u32| {
        let mut path = Vec::new();
        while entry > 0 {
            let (parent, m) = parents[entry as usize - 1];
            path.push(m);
            entry = parent;
        }
        path.reverse();
        path
    };
    match searched {
        Ok(pairs) => Verdict::Equivalent(
            (pairs.rows().chunks_exact(2))
                .map(|row| {
                    let (a, b) = (&side_a.1[row[0] as usize], &side_b.1[row[1] as usize]);
                    (a.clone(), b.clone())
                })
                .collect(),
        ),
        Err(Stop::Differs(entry, last)) => {
            let trace = path(entry).into_iter().chain([last]);
            Verdict::Distinguished(trace.map(|m| messages[m].as_ref().to_string()).collect())
        }
        Err(Stop::Bounded(entry)) => Verdict::Bounded(path(entry).len()),
    }
}

/// The dense id of `engine`'s configuration among `side`'s, as a row
/// word: interned on first sight.
fn intern<E: Clone + Eq + Hash>(side: &mut (HashMap<E, u32>, Vec<E>), engine: E) -> i64 {
    let (ids, configs) = side;
    let id = *ids.entry(engine).or_insert_with_key(|engine| {
        configs.push(engine.clone());
        configs.len() as u32 - 1
    });
    i64::from(id)
}
