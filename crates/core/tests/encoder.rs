//! `DenseEncoder` finds ranks by indexing a flat array with the item while
//! the largest frequent id is below `DIRECT_MAX_ITEMS`, and through an
//! open-addressed item table beyond; the binary search both replaced stays
//! here as the oracle (DESIGN.md §5).

use yafim_core::encode::DIRECT_MAX_ITEMS;
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

/// `enc` over `items` against the oracle: every member, its neighbours, the
/// ends of the range and noise, one by one and as transactions.
fn assert_ranks_as_the_binary_search_did(rng: &mut StdRng, items: &[Item]) {
    let enc = DenseEncoder::new(items.to_vec());
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
            old_rank(items, item),
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
            old_encode(items, &t),
            "{t:?} over {items:?}"
        );
    }
    assert_eq!(
        enc.encode(items),
        (0..items.len() as u32).collect::<Vec<_>>()
    );
}

#[test]
fn the_table_ranks_and_encodes_as_the_binary_search_did() {
    let mut rng = StdRng::seed_from_u64(20);
    let sizes = [0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257, 1000];
    for n in sizes.into_iter().cycle().take(10 * sizes.len()) {
        let items = dictionary(&mut rng, n);
        assert_ranks_as_the_binary_search_did(&mut rng, &items);
    }
}

/// Both sides of the guard: the last dictionary indexed by item, the first
/// that is not, and the far end of the id range. Beyond the guard memory
/// follows the number of items, never their magnitude: a thousand
/// dictionaries reaching `u32::MAX` are built here, 16 GiB apiece if they
/// were indexed by item.
#[test]
fn both_sides_of_the_direct_index_guard() {
    let mut rng = StdRng::seed_from_u64(24);
    let edge = DIRECT_MAX_ITEMS as Item;
    for top in [edge - 1, edge, u32::MAX] {
        for n in [1usize, 2, 9, 300] {
            let mut items = dictionary(&mut rng, n - 1);
            items.retain(|&item| item < top);
            if n > 2 {
                items.push(top - 1);
            }
            items.push(top);
            items.sort_unstable();
            items.dedup();
            assert_ranks_as_the_binary_search_did(&mut rng, &items);
        }
    }
    for i in 0..1000u32 {
        let items = [i, edge + i, u32::MAX - i];
        let enc = DenseEncoder::new(items.to_vec());
        assert_eq!(enc.rank(u32::MAX - i), Some(2));
        assert_eq!(enc.encode(&items), [0, 1, 2]);
    }
}
