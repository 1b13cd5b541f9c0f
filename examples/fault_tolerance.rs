//! Lineage-based fault tolerance, the RDD property the paper leans on
//! (§II.B): "RDDs can achieve fault-tolerance based on lineage information
//! rather than replication. Spark tracks enough information to reconstruct
//! RDDs when a node fails."
//!
//! This example caches a transactions RDD, runs a computation, then kills a
//! whole node: its cached partitions evaporate, its shuffle map outputs are
//! lost, and broadcast blocks must be re-fetched. The next action hits fetch
//! failures, resubmits just the missing map tasks, recomputes the evicted
//! partitions through the lineage — and produces byte-identical results,
//! paying only virtual recompute time.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use yafim::cluster::SimCluster;
use yafim::data::{to_lines, PaperDataset};
use yafim::rdd::{Context, FaultInjection};

fn main() {
    let cluster = SimCluster::paper_cluster();
    let tx = PaperDataset::Mushroom.generate_scaled(0.25);
    cluster.hdfs().put_overwrite("tx.dat", to_lines(&tx));

    // The node holding the input's primary block replica is the one with
    // the most to lose: data-local tasks, cached partitions, map outputs.
    let victim = cluster.hdfs().get("tx.dat").expect("written").blocks()[0].replicas[0];

    let ctx = Context::new(cluster);
    let transactions = ctx
        .text_file("tx.dat", 64)
        .expect("file written")
        .map(|line| yafim::parse_transaction(&line))
        .cache();

    let counts = transactions
        .flat_map(|t| t)
        .map(|item| (item, 1u64))
        .reduce_by_key(|a, b| a + b);

    let t0 = ctx.metrics().now();
    let healthy = counts.collect();
    let t1 = ctx.metrics().now();
    println!(
        "healthy run:   {} distinct items counted in {:.3} virtual s ({} cached partitions)",
        healthy.len(),
        t1.since(t0).as_secs(),
        ctx.cache().stats().entries
    );

    // Warm re-run: everything cached / shuffle reused.
    let warm = counts.collect();
    let t2 = ctx.metrics().now();
    println!(
        "warm re-run:   identical={} in {:.3} virtual s",
        warm == healthy,
        t2.since(t1).as_secs()
    );

    // Kill the data-local node. Everything it held is gone at once.
    let report = ctx.lose_node(victim);
    println!(
        "\n{} lost: {} cached partitions dropped, {} shuffle map outputs lost",
        report.node, report.cached_partitions_dropped, report.map_outputs_lost
    );
    assert!(report.cached_partitions_dropped > 0);
    assert!(report.map_outputs_lost > 0);

    // The shuffle is NOT discarded wholesale: only the dead node's map
    // outputs are holed, and the next action resubmits exactly those.
    assert_eq!(ctx.materialized_shuffles(), 1);

    let recovered = counts.collect();
    let t3 = ctx.metrics().now();
    println!(
        "recovery run:  identical={} in {:.3} virtual s (partial map resubmission + lineage recompute)",
        recovered == healthy,
        t3.since(t2).as_secs()
    );
    assert_eq!(recovered, healthy, "lineage recovery must be exact");

    let rec = ctx.metrics().snapshot().recovery;
    println!(
        "recovery counters: {} nodes lost, {} fetch failures, {} partitions recomputed, {} broadcast re-fetches",
        rec.nodes_lost, rec.fetch_failures, rec.recomputed_partitions, rec.broadcast_refetches
    );
    assert_eq!(rec.nodes_lost, 1);
    assert_eq!(rec.fetch_failures as usize, report.map_outputs_lost);

    let recompute = t3.since(t2).as_secs();
    let warm_cost = t2.since(t1).as_secs();
    println!(
        "\nrecovery cost {:.3}s vs warm {:.3}s — the engine paid to rebuild what {} held, \
         and produced exactly the same answer",
        recompute, warm_cost, report.node
    );
    assert!(recompute > warm_cost);

    // Killing the same node twice is a no-op: nothing left to lose.
    let again = ctx.lose_node(victim);
    assert_eq!(again.cached_partitions_dropped, 0);
    assert_eq!(again.map_outputs_lost, 0);

    // A second failure mode for completeness: dropping a whole shuffle
    // (`drop_shuffle`) forces a full map-stage re-run on next use.
    assert!(ctx.drop_shuffle(counts.id()));
    assert_eq!(ctx.materialized_shuffles(), 0);
    let rebuilt = counts.collect();
    assert_eq!(rebuilt, healthy);
    println!("full shuffle loss also recovered identically");
}
