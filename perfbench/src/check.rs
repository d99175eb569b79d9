//! The correctness gate. It runs after each repetition, outside the timed
//! region, and counts failed ops against attempted ops.
//!
//! A repetition is a sequence of rounds separated by barriers (most
//! workloads run a single round). Every op of an earlier round completed
//! before any op of a later one, so the oracle entering a round holds all
//! earlier unites:
//!
//! * With one worker the round must replay exactly: every verdict and
//!   every per-op unite's "linked" result.
//! * With several workers, a `false` verdict must not be contradicted by the
//!   earlier rounds' unites plus the worker's own earlier unites in this
//!   round (per-thread real-time order), and a `true` verdict must hold once
//!   the round's unites are applied.
//! * At the end, the structure's partition must equal the oracle's, its
//!   `set_count()` must equal the oracle's class count, and the links
//!   reported must equal the oracle's. A mismatch counts every op of the
//!   repetition as failed.

use std::collections::HashMap;

use sequential_dsu::{Compaction, Linking, SeqDsu};

/// One completed call in a worker's history, over dense element indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistOp {
    pub unite: bool,
    pub x: u32,
    pub y: u32,
    /// Unite: "this call linked" (`None` when the call reported only a
    /// count for its whole batch); query: the verdict.
    pub result: Option<bool>,
}

/// The sequential oracle: union by rank with path halving.
pub struct Oracle {
    dsu: SeqDsu,
    links: usize,
}

impl Oracle {
    pub fn new(n: usize) -> Self {
        Oracle { dsu: SeqDsu::new(n, Linking::ByRank, Compaction::Halving), links: 0 }
    }

    pub fn unite(&mut self, x: usize, y: usize) -> bool {
        let linked = self.dsu.unite(x, y);
        self.links += linked as usize;
        linked
    }

    pub fn same_set(&mut self, x: usize, y: usize) -> bool {
        self.dsu.same_set(x, y)
    }

    pub fn find(&mut self, x: usize) -> usize {
        self.dsu.find(x)
    }

    pub fn set_count(&self) -> usize {
        self.dsu.set_count()
    }

    pub fn links(&self) -> usize {
        self.links
    }

    /// `true` iff the partition whose classes are named by `rep` equals
    /// this oracle's. `rep[i]` is any fixed member of `i`'s class in the
    /// checked structure, so the structure's classes are the distinct values
    /// of `rep`. Every one inside one oracle class, and as many of them as
    /// oracle classes, means the partitions are equal.
    pub fn partition_matches(&mut self, rep: &[usize]) -> bool {
        let n = rep.len();
        if n != self.dsu.len() || rep.iter().any(|&r| r >= n) {
            return false;
        }
        let mut seen = vec![false; n];
        let mut classes = 0;
        for &r in rep {
            classes += !std::mem::replace(&mut seen[r], true) as usize;
        }
        classes == self.set_count() && (0..n).all(|i| self.dsu.same_set(i, rep[i]))
    }
}

/// Failure counts of one repetition, plus the first few reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }
}

/// Checks one round whose `workers` histories are `history(w)` against
/// the oracle `o` of all earlier rounds, then applies the round's unites to
/// `o` (see the module docs).
pub fn check_round<H, I>(o: &mut Oracle, workers: usize, history: H, tally: &mut Tally)
where
    H: Fn(usize) -> I,
    I: Iterator<Item = HistOp>,
{
    for w in 0..workers {
        tally.attempted += history(w).count() as u64;
    }
    let describe = |w: usize, op: &HistOp, truth: bool| {
        let call = if op.unite { "unite" } else { "same_set" };
        format!("worker {w}: {call}({}, {}) returned {:?}, oracle {truth}", op.x, op.y, op.result)
    };
    if workers == 1 {
        for op in history(0) {
            let (x, y) = (op.x as usize, op.y as usize);
            let truth = if op.unite { o.unite(x, y) } else { o.same_set(x, y) };
            // Batch calls report one count, not a result per edge.
            if op.result.is_some_and(|r| r != truth) {
                tally.fail(1, || describe(0, &op, truth));
            }
        }
        return;
    }
    for w in 0..workers {
        // The worker's own unites so far, over the oracle's roots.
        let mut own = Overlay::default();
        for op in history(w) {
            let (rx, ry) = (o.find(op.x as usize), o.find(op.y as usize));
            if op.unite {
                own.union(rx, ry);
            } else if op.result == Some(false) && (rx == ry || own.find(rx) == own.find(ry)) {
                tally.fail(1, || describe(w, &op, true));
            }
        }
    }
    for w in 0..workers {
        for op in history(w).filter(|op| op.unite) {
            o.unite(op.x as usize, op.y as usize);
        }
    }
    for w in 0..workers {
        for op in history(w).filter(|op| !op.unite && op.result == Some(true)) {
            if !o.same_set(op.x as usize, op.y as usize) {
                tally.fail(1, || describe(w, &op, false));
            }
        }
    }
}

/// A small union-find over oracle roots, for one worker's own unites.
#[derive(Default)]
struct Overlay {
    parent: HashMap<usize, usize>,
}

impl Overlay {
    fn find(&mut self, mut x: usize) -> usize {
        while let Some(&p) = self.parent.get(&x) {
            if let Some(&gp) = self.parent.get(&p) {
                self.parent.insert(x, gp);
            }
            x = p;
        }
        x
    }

    fn union(&mut self, x: usize, y: usize) {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx != ry {
            self.parent.insert(rx, ry);
        }
    }
}

/// The final-partition part of the gate, for callers that build the final
/// oracle themselves. `structure_sets` is the structure's own `set_count()`
/// and `links` the links its calls reported; both are compared with the
/// oracle apart from the partition `rep` names.
pub fn final_gate(
    fin: &mut Oracle,
    rep: &[usize],
    structure_sets: usize,
    links: usize,
    tally: &mut Tally,
) {
    let n = rep.len();
    if links != fin.links() || structure_sets != fin.set_count() || !fin.partition_matches(rep) {
        let all = tally.attempted - tally.failed;
        let oracle_sets = fin.set_count();
        tally.fail(all, || {
            format!(
                "final partition mismatch: {structure_sets} sets and {links} links reported, \
                 oracle has {oracle_sets} sets over {n} elements"
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequential_dsu::NaiveDsu;

    fn unite(x: u32, y: u32, result: bool) -> HistOp {
        HistOp { unite: true, x, y, result: Some(result) }
    }
    fn query(x: u32, y: u32, result: bool) -> HistOp {
        HistOp { unite: false, x, y, result: Some(result) }
    }

    /// A correct two-worker run over 6 elements: {0,1,2}, {3,4}, {5}.
    fn good() -> (Vec<Vec<HistOp>>, Vec<usize>) {
        let w0 = vec![unite(0, 1, true), query(0, 1, true), unite(3, 4, true)];
        let w1 = vec![query(2, 0, false), unite(1, 2, true), query(5, 3, false)];
        (vec![w0, w1], vec![0, 0, 0, 3, 3, 5])
    }

    fn run(h: &[Vec<HistOp>], rep: &[usize], sets: usize, links: usize) -> Tally {
        let mut o = Oracle::new(rep.len());
        let mut t = Tally::default();
        check_round(&mut o, h.len(), |w| h[w].iter().copied(), &mut t);
        final_gate(&mut o, rep, sets, links, &mut t);
        t
    }

    #[test]
    fn correct_run_passes() {
        let (h, rep) = good();
        let t = run(&h, &rep, 3, 3);
        assert_eq!((t.attempted, t.failed), (6, 0), "{:?}", t.notes);
    }

    #[test]
    fn canary_corrupted_partition_fails_every_op() {
        let (h, mut rep) = good();
        rep[5] = 3; // 5 claimed to be with {3,4}
        let t = run(&h, &rep, 3, 3);
        assert_eq!((t.attempted, t.failed), (6, 6));
        // A wrong set count alone is caught too.
        let (h, rep) = good();
        assert_eq!(run(&h, &rep, 2, 3).failed, 6);
    }

    #[test]
    fn canary_split_partition_with_unchanged_counter_fails() {
        // 2 split off {0,1,2}: four classes, while the structure's counter
        // and the reported links still read like the oracle's.
        let (h, mut rep) = good();
        rep[2] = 2;
        let t = run(&h, &rep, 3, 3);
        assert_eq!((t.attempted, t.failed), (6, 6), "{:?}", t.notes);
    }

    #[test]
    fn canary_wrong_verdicts_are_counted() {
        let (mut h, rep) = good();
        h[0][1] = query(0, 1, false); // contradicts the worker's own unite
        h[1][2] = query(5, 3, true); // 5 and 3 are never united
        let t = run(&h, &rep, 3, 3);
        assert_eq!((t.attempted, t.failed), (6, 2), "{:?}", t.notes);
    }

    #[test]
    fn false_verdict_racing_another_worker_is_allowed() {
        // w1 asks before it unites anything itself: "false" is linearizable
        // even though w0 united 0 and 1.
        let h = vec![vec![unite(0, 1, true)], vec![query(0, 1, false)]];
        assert_eq!(run(&h, &[0, 0], 1, 1).failed, 0);
        // With one worker the replay is exact.
        let h = vec![vec![unite(0, 1, true), unite(1, 0, true)]];
        assert_eq!(run(&h, &[0, 0], 1, 1).failed, 1);
    }

    #[test]
    fn later_rounds_see_earlier_rounds() {
        // Round 1 (two workers) unites 0-1; in round 2 a "false" for 0-1 is
        // a failure whichever worker reports it.
        let mut o = Oracle::new(4);
        let mut t = Tally::default();
        let r1 = [vec![unite(0, 1, true)], vec![query(2, 3, false)]];
        check_round(&mut o, 2, |w| r1[w].iter().copied(), &mut t);
        let r2 = [vec![query(2, 3, false)], vec![query(1, 0, false)]];
        check_round(&mut o, 2, |w| r2[w].iter().copied(), &mut t);
        assert_eq!((t.attempted, t.failed), (4, 1), "{:?}", t.notes);
    }

    /// The oracle agrees with the brute-force `NaiveDsu` relabeling oracle.
    #[test]
    fn oracle_agrees_with_naive_dsu() {
        let n = 64;
        let mut o = Oracle::new(n);
        let mut naive = NaiveDsu::new(n);
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..500 {
            s = crate::rng::splitmix(s);
            let (x, y) = ((s % n as u64) as usize, ((s >> 32) % n as u64) as usize);
            if s & (1 << 20) == 0 {
                assert_eq!(o.unite(x, y), naive.unite(x, y));
            } else {
                assert_eq!(o.same_set(x, y), naive.same_set(x, y));
            }
        }
        assert_eq!(o.set_count(), naive.set_count());
    }
}
