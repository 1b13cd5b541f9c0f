//! `DenseEncoder` finds ranks through an open-addressed item table; the
//! binary search it replaced stays here as the oracle (DESIGN.md §5).

use yafim_core::{DenseEncoder, Item};
use yafim_data::rng::StdRng;

/// `DenseEncoder::rank` as it was.
fn old_rank(items: &[Item], item: Item) -> Option<u32> {
    items.binary_search(&item).ok().map(|r| r as u32)
}

/// `DenseEncoder::encode` as it was, over a sorted transaction.
fn old_encode(items: &[Item], t: &[Item]) -> Vec<Item> {
    let mut out = Vec::with_capacity(t.len().min(items.len()));
    let mut lo = 0usize;
    for &item in t {
        match items[lo..].binary_search(&item) {
            Ok(off) => {
                out.push((lo + off) as u32);
                lo += off + 1;
            }
            Err(off) => lo += off,
        }
        if lo >= items.len() {
            break;
        }
    }
    out
}

/// `n` distinct ids, ascending: clustered low, spread over the whole range,
/// or hugging its top, with 0 and `u32::MAX` thrown in now and then.
fn dictionary(rng: &mut StdRng, n: usize) -> Vec<Item> {
    let mut items: Vec<Item> = match rng.gen_range(0..3u32) {
        0 => (0..n).map(|_| rng.gen_range(0..4 * n as u32 + 4)).collect(),
        1 => (0..n).map(|_| rng.gen_range(0..u32::MAX)).collect(),
        _ => (0..n)
            .map(|_| u32::MAX - rng.gen_range(0..4 * n as u32 + 4))
            .collect(),
    };
    if n > 0 && rng.gen_range(0..2u32) == 0 {
        items[0] = 0;
        items[n - 1] = u32::MAX;
    }
    items.sort_unstable();
    items.dedup();
    items
}

#[test]
fn the_table_ranks_and_encodes_as_the_binary_search_did() {
    let mut rng = StdRng::seed_from_u64(20);
    let sizes = [0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257, 1000];
    for n in sizes.into_iter().cycle().take(10 * sizes.len()) {
        let items = dictionary(&mut rng, n);
        let enc = DenseEncoder::new(items.clone());
        assert_eq!(enc.len(), items.len());
        // Every member, its neighbours, the ends of the range and noise.
        let near = items
            .iter()
            .flat_map(|&i| [i.wrapping_sub(1), i, i.wrapping_add(1)]);
        let noise: Vec<Item> = (0..200).map(|_| rng.gen_range(0..u32::MAX)).collect();
        let probes: Vec<Item> = near
            .chain(noise)
            .chain([0, 1, u32::MAX - 1, u32::MAX])
            .collect();
        for &item in &probes {
            assert_eq!(
                enc.rank(item),
                old_rank(&items, item),
                "rank({item}) over {items:?}"
            );
        }
        for (rank, &item) in items.iter().enumerate() {
            assert_eq!(
                (enc.rank(item), enc.item(rank as u32)),
                (Some(rank as u32), item)
            );
        }
        // Transactions: sorted, distinct draws from the probes.
        for _ in 0..40 {
            let mut t: Vec<Item> = (0..rng.gen_range(0..30usize))
                .map(|_| probes[rng.gen_range(0..probes.len())])
                .collect();
            t.sort_unstable();
            t.dedup();
            assert_eq!(
                enc.encode(&t),
                old_encode(&items, &t),
                "{t:?} over {items:?}"
            );
        }
        assert_eq!(
            enc.encode(&items),
            (0..items.len() as u32).collect::<Vec<_>>()
        );
    }
}
