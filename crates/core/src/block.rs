//! One partition's transactions as one flat block: the element type of every
//! transactions RDD YAFIM caches.

use crate::types::Item;
use yafim_cluster::ByteSize;

/// Transactions in CSR layout: two allocations per partition however many
/// rows it has, scanned front to back by every pass. The engine sees one
/// element standing for one record per row, sized as the `Vec<Vec<Item>>`
/// of the same rows would be.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct TxBlock {
    /// Every row's items, back to back.
    items: Vec<Item>,
    /// Where each row ends in `items`; it starts where the one before ends.
    /// `u32` holds them: a block is (a subset of) one parsed input split, an
    /// item is two bytes of its text at least, and `Yafim::mine` refuses a
    /// split of 2³³ bytes before any job runs.
    ends: Vec<u32>,
}

impl TxBlock {
    /// A partition of the one block `fill` pushes rows into, given room for
    /// `rows` rows of `items` items in all and cut back to what it took.
    pub(crate) fn build(rows: usize, items: usize, fill: impl FnOnce(&mut Self)) -> Vec<Self> {
        let mut block = TxBlock {
            items: Vec::with_capacity(items),
            ends: Vec::with_capacity(rows),
        };
        fill(&mut block);
        block.items.shrink_to_fit();
        block.ends.shrink_to_fit();
        vec![block]
    }

    /// Append the row `fill` appends to the arena, unless it comes out
    /// shorter than `min_len`.
    pub(crate) fn push_row(&mut self, min_len: usize, fill: impl FnOnce(&mut Vec<Item>)) {
        let start = self.items.len();
        fill(&mut self.items);
        if self.items.len() - start < min_len {
            return self.items.truncate(start);
        }
        let end = u32::try_from(self.items.len()).expect("refused by the driver (see `ends`)");
        self.ends.push(end);
    }

    /// Drop every row, keeping the arena's room.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
    }

    /// Every row's items, back to back.
    pub(crate) fn items(&self) -> &[Item] {
        &self.items
    }

    /// The rows, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Item]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let row = &self.items[start..end as usize];
            start = end as usize;
            row
        })
    }
}

impl ByteSize for TxBlock {
    /// `slice_bytes` of the rows as `Vec<Item>`s: an 8-byte header each.
    fn byte_size(&self) -> u64 {
        8 * self.ends.len() as u64 + 4 * self.items.len() as u64
    }

    fn records(&self) -> u64 {
        self.ends.len() as u64
    }
}

/// The partition holding `rows` as one block.
#[cfg(test)]
pub(crate) fn block_of(rows: &[Vec<Item>]) -> Vec<TxBlock> {
    TxBlock::build(rows.len(), 0, |block| {
        for row in rows {
            block.push_row(0, |items| items.extend(row));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use yafim_cluster::slice_bytes;

    #[test]
    fn a_block_round_trips_and_sizes_as_its_nested_form() {
        let shapes: [Vec<Vec<Item>>; 4] = [
            vec![],
            vec![vec![]],
            vec![vec![], vec![0, u32::MAX], vec![], vec![7], vec![]],
            (0..100).map(|i| (0..i % 7).collect()).collect(),
        ];
        for nested in shapes {
            let block = &block_of(&nested)[0];
            let back: Vec<Vec<Item>> = block.rows().map(<[Item]>::to_vec).collect();
            assert_eq!(back, nested);
            assert_eq!(block.byte_size(), slice_bytes(&nested));
            assert_eq!(block.records(), nested.len() as u64);
            assert_eq!(block.items(), nested.concat());
        }
        // A row that comes out too short leaves no trace.
        let mut block = block_of(&[vec![1, 2, 3]]);
        block[0].push_row(2, |items| items.push(9));
        block[0].push_row(2, |items| items.extend([4, 5]));
        assert_eq!(block, block_of(&[vec![1, 2, 3], vec![4, 5]]));
    }
}
