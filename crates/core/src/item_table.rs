//! The open-addressed item → index table behind [`HashTree`](crate::HashTree)
//! (candidate items to the ids its leaves hold) and
//! [`DenseEncoder`](crate::DenseEncoder) (frequent items to dense ranks).

use crate::types::Item;
use yafim_cluster::fx_hash64;

/// Distinct items, each with its position in the order they were given. At
/// most half full and a power of two wide: memory follows the number of
/// items, never their magnitude.
#[derive(Clone, Debug)]
pub(crate) struct ItemTable {
    slots: Vec<Option<(Item, u32)>>,
    len: usize,
}

impl ItemTable {
    /// The table numbering `items` `0, 1, …` as they come.
    pub(crate) fn new(items: impl ExactSizeIterator<Item = Item>) -> Self {
        let len = items.len();
        let mut slots = vec![None; (2 * len).next_power_of_two()];
        for (index, item) in items.enumerate() {
            let at = Self::slot_of(&slots, item, fx_hash64(&item));
            slots[at] = Some((item, index as u32));
        }
        ItemTable { slots, len }
    }

    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The index `item` was given, if it is in the table.
    #[inline]
    pub(crate) fn get(&self, item: Item) -> Option<u32> {
        self.get_hashed(item, fx_hash64(&item))
    }

    /// [`get`](Self::get) for a caller that already holds `fx_hash64(&item)`.
    #[inline]
    pub(crate) fn get_hashed(&self, item: Item, hash: u64) -> Option<u32> {
        self.slots[Self::slot_of(&self.slots, item, hash)].map(|(_, index)| index)
    }

    /// The slot holding `item`, or the free one its probe ends at.
    #[inline]
    fn slot_of(slots: &[Option<(Item, u32)>], item: Item, hash: u64) -> usize {
        let mask = slots.len() - 1;
        // The multiplicative hash mixes upwards: take the high half.
        let mut at = (hash >> 32) as usize & mask;
        while slots[at].is_some_and(|(held, _)| held != item) {
            at = (at + 1) & mask;
        }
        at
    }
}
