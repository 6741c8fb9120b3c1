//! Lists of lists in one flat buffer.
//!
//! The arrangement keeps many "a list per item" tables: each segment's cut
//! points, each piece's regions, each vertex's rotation, each edge's
//! polyline, each face's boundary edges and each region's interior faces.
//! [`Runs`] stores every one of them the same way: all items in one buffer,
//! and the `n + 1` offsets of the `n` runs in it, so a table of any size
//! costs two allocations and a run is one slice.

use std::ops::Range;

/// `n` runs of items in one flat buffer: run `k` is `items[at[k]..at[k + 1]]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Runs<T> {
    items: Vec<T>,
    at: Vec<usize>,
}

impl<T> Default for Runs<T> {
    fn default() -> Runs<T> {
        Runs { items: Vec::new(), at: vec![0] }
    }
}

impl<T> Runs<T> {
    /// No runs, with room for `runs` runs of `items` items in all.
    pub fn with_capacity(runs: usize, items: usize) -> Runs<T> {
        let mut at = Vec::with_capacity(runs + 1);
        at.push(0);
        Runs { items: Vec::with_capacity(items), at }
    }

    /// The number of runs.
    pub(crate) fn len(&self) -> usize {
        self.at.len() - 1
    }

    /// Run `k`.
    pub fn get(&self, k: usize) -> &[T] {
        &self.items[self.range(k)]
    }

    /// Run `k`, mutably; the other runs are out of its reach.
    pub fn get_mut(&mut self, k: usize) -> &mut [T] {
        let range = self.range(k);
        &mut self.items[range]
    }

    /// The positions of run `k`'s items in the flat buffer.
    pub(crate) fn range(&self, k: usize) -> Range<usize> {
        self.at[k]..self.at[k + 1]
    }

    /// Every item, run after run.
    pub(crate) fn items(&self) -> &[T] {
        &self.items
    }

    /// Every item, run after run, mutably; the runs keep their lengths.
    pub(crate) fn items_mut(&mut self) -> &mut [T] {
        &mut self.items
    }

    /// Every run, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + Clone + '_ {
        (0..self.len()).map(|k| self.get(k))
    }

    /// The same runs with every item mapped by `f`.
    pub(crate) fn map<U>(&self, f: impl FnMut(&T) -> U) -> Runs<U> {
        Runs { items: self.items.iter().map(f).collect(), at: self.at.clone() }
    }

    /// Add `item` to the run being built; [`close`](Self::close) ends it.
    pub fn push_item(&mut self, item: T) {
        self.items.push(item);
    }

    /// End the run being built: every item pushed since the last close,
    /// possibly none.
    pub fn close(&mut self) {
        self.at.push(self.items.len());
    }

    /// Append one run: the items `run` yields.
    pub(crate) fn push_iter(&mut self, run: impl IntoIterator<Item = T>) {
        self.items.extend(run);
        self.close();
    }
}

impl<T: Clone> Runs<T> {
    /// Append one run.
    pub fn push(&mut self, run: &[T]) {
        self.items.extend_from_slice(run);
        self.close();
    }
}

impl<T: Copy> Runs<T> {
    /// `keys` runs holding `items` grouped by key: run `k` holds the items
    /// keyed `k`, in their order in `items` (a stable counting sort). A key
    /// with no item has an empty run.
    pub(crate) fn grouped(keys: usize, items: impl Iterator<Item = (usize, T)> + Clone) -> Runs<T> {
        let mut at = vec![0; keys + 1];
        for (k, _) in items.clone() {
            at[k + 1] += 1;
        }
        for k in 0..keys {
            at[k + 1] += at[k];
        }
        let Some((_, any)) = items.clone().next() else { return Runs { items: Vec::new(), at } };
        let mut flat = vec![any; at[keys]];
        let mut fill = at[..keys].to_vec();
        for (k, item) in items {
            flat[fill[k]] = item;
            fill[k] += 1;
        }
        Runs { items: flat, at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs<T: Copy>(r: &Runs<T>) -> Vec<Vec<T>> {
        r.iter().map(<[T]>::to_vec).collect()
    }

    #[test]
    fn grouped_is_stable_within_a_key() {
        let items = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (2, 'e')];
        let r = Runs::grouped(3, items.iter().copied());
        assert_eq!(runs(&r), vec![vec!['b', 'd'], vec![], vec!['a', 'c', 'e']]);
        assert_eq!(r.range(2), 2..5);
        assert_eq!(r.items(), ['b', 'd', 'a', 'c', 'e']);
    }

    #[test]
    fn grouped_yields_empty_runs_for_absent_keys_and_for_no_items() {
        let r = Runs::grouped(4, [(3, 7u32)].into_iter());
        assert_eq!(runs(&r), vec![vec![], vec![], vec![], vec![7]]);
        let none = Runs::<u32>::grouped(3, std::iter::empty());
        assert_eq!(none.len(), 3);
        assert!(none.iter().all(<[u32]>::is_empty));
        assert_eq!(Runs::<u32>::grouped(0, std::iter::empty()), Runs::default());
    }

    #[test]
    fn get_mut_sorts_one_run_without_touching_its_neighbours() {
        let mut r = Runs::default();
        r.push(&[9, 8]);
        r.push(&[3, 1, 2]);
        r.push(&[7, 6]);
        r.get_mut(1).sort_unstable();
        assert_eq!(runs(&r), vec![vec![9, 8], vec![1, 2, 3], vec![7, 6]]);
    }

    #[test]
    fn push_of_an_empty_run_adds_a_run() {
        let mut r: Runs<u8> = Runs::default();
        assert_eq!(r.len(), 0);
        r.push(&[]);
        r.push(&[1]);
        r.push(&[]);
        assert_eq!(r.len(), 3);
        assert_eq!(runs(&r), vec![vec![], vec![1], vec![]]);
    }

    #[test]
    fn items_then_close_build_the_same_runs_as_push() {
        let mut built = Runs::with_capacity(3, 3);
        for run in [&[1, 2][..], &[], &[3]] {
            for &x in run {
                built.push_item(x);
            }
            built.close();
        }
        let mut pushed = Runs::default();
        for run in [&[1, 2][..], &[], &[3]] {
            pushed.push(run);
        }
        assert_eq!(built, pushed);
        let mut iterated = Runs::default();
        for run in [&[1, 2][..], &[], &[3]] {
            iterated.push_iter(run.iter().copied());
        }
        assert_eq!(iterated, pushed);
    }
}
