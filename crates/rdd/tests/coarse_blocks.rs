//! Cache behavior for *coarse* cached blocks — RDDs whose partitions hold
//! one large element each (the shape of yafim-core's columnar bitmap
//! store), rather than many small records. The cache manager must account
//! their bytes through `ByteSize` exactly like record-granular blocks,
//! survive node eviction by lineage recompute, and release everything on
//! unpersist.

use yafim_cluster::{slice_records, ByteSize, ClusterSpec, CostModel, SimCluster};
use yafim_rdd::{Context, PartialSize, Rdd};

fn ctx() -> Context {
    Context::new(SimCluster::with_threads(
        ClusterSpec::new(4, 2, 1 << 30),
        CostModel::hadoop_era(),
        2,
    ))
}

/// One big arena per partition — a stand-in for a columnar bitset block.
#[derive(Clone, Debug, PartialEq)]
struct Arena {
    words: Vec<u64>,
}

impl Arena {
    fn build(xs: &[u32]) -> Self {
        Arena {
            words: xs.iter().map(|&x| (x as u64) << 1 | 1).collect(),
        }
    }

    fn sum(&self) -> u64 {
        self.words.iter().sum()
    }
}

impl ByteSize for Arena {
    fn byte_size(&self) -> u64 {
        32 + 8 * self.words.len() as u64
    }
}

#[test]
fn coarse_blocks_are_byte_accounted_and_released() {
    let c = ctx();
    let parts = 4usize;
    let coarse = c
        .parallelize_with_partitions((0u32..1000).collect(), parts)
        .map_partitions(|xs, _tc| vec![Arena::build(xs)])
        .cache();

    let arenas = coarse.collect();
    assert_eq!(arenas.len(), parts, "one arena per partition");
    // Each cached block is charged 8 bytes of Vec header plus its
    // elements' ByteSize — here a single arena.
    let expected_bytes: u64 = arenas.iter().map(|a| 8 + a.byte_size()).sum();

    let stats = c.cache().stats();
    assert_eq!(stats.entries, parts, "one cached block per partition");
    assert_eq!(
        stats.used_bytes, expected_bytes,
        "cache accounts the arena bytes, not a per-record estimate"
    );

    coarse.unpersist();
    let stats = c.cache().stats();
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.used_bytes, 0);
}

#[test]
fn evicted_coarse_blocks_recompute_identically() {
    let c = ctx();
    let coarse = c
        .parallelize_with_partitions((0u32..1000).collect(), 4)
        .map_partitions(|xs, _tc| vec![Arena::build(xs)])
        .cache();

    let before: u64 = coarse.collect().iter().map(Arena::sum).sum();
    let bytes_before = c.cache().stats().used_bytes;

    let dropped = c.cache().evict_node(0);
    assert!(dropped > 0, "node 0 must have held at least one block");
    assert!(c.cache().stats().used_bytes < bytes_before);

    // The next job recomputes the evicted arenas through lineage and
    // re-caches them; contents and byte accounting both come back.
    let after: u64 = coarse.collect().iter().map(Arena::sum).sum();
    assert_eq!(before, after, "recompute must rebuild identical arenas");
    assert_eq!(c.cache().stats().used_bytes, bytes_before);

    coarse.unpersist();
    assert_eq!(c.cache().stats().used_bytes, 0);
}

/// A block of rows that tells the engine so (`ByteSize::records`), sized as
/// the rows on their own would be.
#[derive(Clone, Debug, PartialEq)]
struct Rows(Vec<u32>);

impl ByteSize for Rows {
    fn byte_size(&self) -> u64 {
        4 * self.0.len() as u64
    }

    fn records(&self) -> u64 {
        self.0.len() as u64
    }
}

/// Cache insert and hit, `collect`, checkpoint write and read, `aggregate`
/// and `map_partitions` over `rdd`; returns what the run left behind.
fn drive<T: yafim_rdd::Data>(c: &Context, rdd: Rdd<T>) -> String {
    let rdd = rdd.cache();
    let elements = rdd.collect().len();
    assert_eq!(
        rdd.collect().len(),
        elements,
        "second collect hits the cache"
    );
    let cp = rdd.checkpoint();
    let rows = cp.try_aggregate(
        || 0u64,
        |acc, part, _| {
            *acc += slice_records(part);
            let (records, bytes) = (1, 8);
            PartialSize { records, bytes }
        },
        |a, b| a + b,
        (1, &|_| PartialSize::default(), ""),
    );
    assert_eq!(rows.expect("no fault plan"), 1000);
    let again = cp.map_partitions(|part, _| part.to_vec()).cache();
    assert_eq!(again.collect().len(), elements);
    let mut snapshot = c.metrics().snapshot();
    // One block moves out of its kernel where a thousand rows are copied.
    snapshot.profile.bytes_materialized = 0;
    format!("{snapshot:?} {:?}", c.cache().stats())
}

#[test]
fn a_block_of_n_rows_is_charged_and_reported_as_n_records() {
    let source = |c: &Context| c.parallelize_with_partitions((0u32..1000).collect(), 4);
    let per_row = ctx();
    let rows = drive(
        &per_row,
        source(&per_row).map_partitions(|xs, _| xs.to_vec()),
    );
    let per_block = ctx();
    let blocks = source(&per_block).map_partitions(|xs, _| vec![Rows(xs.to_vec())]);
    assert_eq!(drive(&per_block, blocks), rows);
    let profile = per_block.metrics().snapshot().profile;
    // Two cache inserts, three collects and the checkpoint write at 1000
    // rows each (never "4 blocks"), and the aggregate's four partials.
    assert_eq!(profile.records_written, 6004);
}
