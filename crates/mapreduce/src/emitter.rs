//! The output collector handed to mappers and reducers.

/// Collects `(key, value)` emissions from a mapper or reducer (Hadoop's
/// `OutputCollector` / `Context.write`). A key-table job's mapper can also
/// emit by key *index*, an in-mapper combiner: no key is built or buffered,
/// one `u64` counts.
pub struct Emitter<K, V> {
    out: Vec<(K, V)>,
    /// `counts[i]` is how many times table index `i` was emitted at.
    counts: Vec<u64>,
    emitted: u64,
}

impl<K, V> Emitter<K, V> {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::over_table(0)
    }

    /// A collector over a key table of `slots` entries.
    pub(crate) fn over_table(slots: usize) -> Self {
        Emitter {
            out: Vec::new(),
            counts: vec![0; slots],
            emitted: 0,
        }
    }

    /// Emit one pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.out.push((key, value));
        self.emitted += 1;
    }

    /// Number of pairs emitted so far.
    pub(crate) fn len(&self) -> usize {
        self.emitted as usize
    }

    /// Consume the collector, yielding the keyed emissions in order.
    pub(crate) fn into_pairs(self) -> Vec<(K, V)> {
        self.out
    }

    /// Take one `(table[i], value(count))` pair per index that was emitted
    /// at, in index order.
    pub(crate) fn take_counted(&mut self, table: &[K], value: fn(u64) -> V) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let counted = table.iter().zip(std::mem::take(&mut self.counts));
        let pairs = counted.filter(|&(_, n)| n > 0);
        pairs.map(|(k, n)| (k.clone(), value(n))).collect()
    }
}

impl<K> Emitter<K, u64> {
    /// Emit `1` under the job's key-table entry `index`: one emission,
    /// exactly as `emit(table[index].clone(), 1)` would be under the `+`
    /// combiner a key table implies. Panics if `index` is outside the table
    /// (a job without one has an empty table).
    #[inline]
    pub fn emit_at(&mut self, index: usize) {
        self.counts[index] += 1;
        self.emitted += 1;
    }

    /// Hand `count` the key table's slots to add into; it returns how much it
    /// added in all: that many [`emit_at`](Self::emit_at) calls at once.
    pub fn count_into(&mut self, count: impl FnOnce(&mut [u64]) -> u64) {
        self.emitted += count(&mut self.counts);
    }
}

impl<K, V> Default for Emitter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_in_order() {
        let mut e = Emitter::new();
        e.emit("a", 1);
        e.emit("b", 2);
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_pairs(), vec![("a", 1), ("b", 2)]);
    }

    #[test]
    fn counts_skip_the_untouched() {
        let mut e = Emitter::over_table(3);
        e.emit_at(2);
        e.emit("z", 7);
        e.emit_at(0);
        e.count_into(|counts| {
            counts[2] += 1;
            1
        });
        assert_eq!(e.len(), 4);
        // Index 1 was never emitted at: no pair, not even a zero.
        assert_eq!(
            e.take_counted(&["a", "b", "c"], |n| n),
            vec![("a", 1), ("c", 2)]
        );
        assert_eq!(e.into_pairs(), vec![("z", 7)]);
    }
}
