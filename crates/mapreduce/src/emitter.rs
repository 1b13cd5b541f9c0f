//! The output collector handed to mappers and reducers.

use crate::job::CombineFn;

/// Collects `(key, value)` emissions from a mapper or reducer (Hadoop's
/// `OutputCollector` / `Context.write`). A key-table job's mapper can also
/// emit by key *index*, an in-mapper combiner: no key is built or buffered.
pub struct Emitter<K, V> {
    out: Vec<(K, V)>,
    /// `slots[i]` is the fold of every value emitted at table index `i`.
    slots: Vec<Option<V>>,
    fold: Option<CombineFn<V>>,
    emitted: u64,
}

impl<K, V> Emitter<K, V> {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::over_table(0, None)
    }

    /// A collector over a key table of `slots` entries and its combiner.
    pub(crate) fn over_table(slots: usize, fold: Option<CombineFn<V>>) -> Self {
        Emitter {
            out: Vec::new(),
            slots: std::iter::repeat_with(|| None).take(slots).collect(),
            fold,
            emitted: 0,
        }
    }

    /// Emit one pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.out.push((key, value));
        self.emitted += 1;
    }

    /// Emit `value` under the job's key-table entry `index`: one emission,
    /// exactly as `emit(table[index].clone(), value)` would be. Panics if
    /// the job declared no key table with a combiner, or `index` is outside
    /// the table.
    #[inline]
    pub fn emit_at(&mut self, index: usize, value: V) {
        let fold = self.fold.as_ref();
        let fold = fold.expect("emit_at needs a job with a key table and a combiner");
        fold_into(&mut self.slots[index], value, fold.as_ref());
        self.emitted += 1;
    }

    /// Number of pairs emitted so far.
    pub fn len(&self) -> usize {
        self.emitted as usize
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.emitted == 0
    }

    /// Consume the collector, yielding the keyed emissions in order.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        self.out
    }

    /// Take one `(table[i], slot)` pair per slot that was emitted at, in
    /// index order.
    pub(crate) fn take_slot_pairs(&mut self, table: &[K]) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let slots = table.iter().zip(&mut self.slots);
        let pairs = slots.filter_map(|(k, slot)| Some((k.clone(), slot.take()?)));
        pairs.collect()
    }
}

/// Fold `value` into `slot`; an empty slot takes it as it is.
pub(crate) fn fold_into<V>(slot: &mut Option<V>, value: V, fold: &dyn Fn(V, V) -> V) {
    *slot = Some(match slot.take() {
        Some(acc) => fold(acc, value),
        None => value,
    });
}

impl<K, V> Default for Emitter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn collects_in_order() {
        let mut e = Emitter::new();
        assert!(e.is_empty());
        e.emit("a", 1);
        e.emit("b", 2);
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_pairs(), vec![("a", 1), ("b", 2)]);
    }

    #[test]
    fn slots_fold_and_skip_the_untouched() {
        let mut e = Emitter::over_table(3, Some(Arc::new(|a, b| a + b)));
        e.emit_at(2, 1);
        e.emit("z", 7);
        e.emit_at(0, 0);
        e.emit_at(2, 4);
        assert_eq!(e.len(), 4);
        // Index 1 was never emitted at: no pair, not even a zero. Index 0
        // was emitted at with 0 and does appear.
        assert_eq!(
            e.take_slot_pairs(&["a", "b", "c"]),
            vec![("a", 0), ("c", 5)]
        );
        assert_eq!(e.into_pairs(), vec![("z", 7)]);
    }
}
