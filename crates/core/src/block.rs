//! One partition's transactions as a view of one row arena: the element
//! type of every transactions RDD YAFIM caches, and what MR-Apriori, SON
//! and the single-node miners read an HDFS input as.

use crate::types::Item;
use std::ops::Range;
use std::sync::Arc;
use yafim_cluster::{ByteSize, Lines};
use yafim_data::Rows;

/// Transactions in CSR layout: some consecutive rows of a [`Rows`] arena,
/// scanned front to back by every pass. The arena is a loaded input's own
/// (the parse is a view of it: nothing is copied) or one a kernel built.
/// The engine sees one element standing for one record per row, sized as
/// the `Vec<Vec<Item>>` of the same rows would be.
#[derive(Clone, Debug)]
pub(crate) struct TxBlock {
    arena: Arc<Rows>,
    rows: Range<usize>,
}

impl TxBlock {
    /// A partition of the one block `fill` pushes rows into, given room for
    /// `rows` rows of `items` items in all and cut back to what it took.
    pub(crate) fn build(rows: usize, items: usize, fill: impl FnOnce(&mut Rows)) -> Vec<Self> {
        let arena = Rows::build(rows, items, fill);
        let rows = 0..arena.len();
        vec![TxBlock {
            arena: Arc::new(arena),
            rows,
        }]
    }

    /// The lines' rows, a row per line, as blocks: views of a loaded
    /// input's arenas, or the text parsed (`Lines::rows`).
    pub(crate) fn of_lines(lines: &Lines) -> impl Iterator<Item = TxBlock> {
        let views = lines.rows().into_iter();
        views.map(|(arena, rows)| TxBlock { arena, rows })
    }

    /// Every row's items, back to back.
    pub(crate) fn items(&self) -> &[Item] {
        self.arena.items(self.rows.clone())
    }

    /// The rows, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Item]> {
        self.arena.rows(self.rows.clone())
    }
}

/// The transactions of `lines`, a `Vec` per line.
pub(crate) fn transactions(lines: &Lines) -> Vec<Vec<Item>> {
    let blocks: Vec<TxBlock> = TxBlock::of_lines(lines).collect();
    let rows = blocks.iter().flat_map(TxBlock::rows);
    rows.map(<[Item]>::to_vec).collect()
}

impl ByteSize for TxBlock {
    /// `slice_bytes` of the rows as `Vec<Item>`s: an 8-byte header each.
    fn byte_size(&self) -> u64 {
        8 * self.rows.len() as u64 + 4 * self.items().len() as u64
    }

    fn records(&self) -> u64 {
        self.rows.len() as u64
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
    }

    #[test]
    fn a_loaded_input_is_read_in_place_and_text_is_parsed() {
        let tx: Vec<Vec<Item>> = (0..40).map(|i| (i..i + i % 5 + 1).collect()).collect();
        let (mut first, mut second) = (Rows::default(), Rows::default());
        for (i, t) in tx.iter().enumerate() {
            let arena = if i < 25 { &mut first } else { &mut second };
            arena.push_row(0, |items| items.extend(t));
        }
        let loaded = Lines::from((vec![first, second], yafim_data::to_text(&tx).1));
        let text = Lines::from(yafim_data::to_text(&tx));
        for (from, to) in [(0, 40), (3, 25), (20, 31), (25, 40), (30, 30)] {
            let expected = &tx[from..to];
            for lines in [&loaded, &text] {
                let view = lines.slice(from..to);
                assert_eq!(transactions(&view), expected, "{from}..{to}");
                let blocks: Vec<TxBlock> = TxBlock::of_lines(&view).collect();
                assert_eq!(slice_bytes(&blocks), slice_bytes(expected), "{from}..{to}");
            }
            // The views share the loaded arenas: no item is copied.
            let views: Vec<_> = loaded.slice(from..to).rows();
            let arenas = loaded.rows();
            for (arena, _) in &views {
                assert!(arenas.iter().any(|(whole, _)| Arc::ptr_eq(arena, whole)));
            }
        }
    }
}
