//! A tour of the two distributed engines underneath YAFIM — for readers who
//! want to use `yafim-rdd` / `yafim-mapreduce` as general-purpose engines
//! rather than through the miners.
//!
//! ```sh
//! cargo run --release --example engine_tour
//! ```

use std::sync::Arc;
use yafim::cluster::SimCluster;
use yafim::mapreduce::{Emitter, MapReduceJob, MrRunner};
use yafim::rdd::Context;

fn main() {
    let cluster = SimCluster::paper_cluster();

    // A little corpus on simulated HDFS.
    let lines: Vec<String> = (0..5_000)
        .map(|i| format!("user{} item{} item{}", i % 97, i % 13, (i * 7) % 13))
        .collect();
    cluster.hdfs().put_overwrite("events.log", lines);

    // ---- the RDD engine ----
    let ctx = Context::new(cluster.clone());
    let events = ctx.text_file("events.log", 64).expect("written").cache();

    // Word count with the classic chain.
    let mut top_items: Vec<(String, u64)> = events
        .flat_map(|line: String| {
            line.split_whitespace()
                .filter(|w| w.starts_with("item"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .map(|w| (w, 1u64))
        .reduce_by_key(|a, b| a + b)
        .collect();
    top_items.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!("distinct items: {}", top_items.len());
    println!(
        "hottest item:   {:?}",
        top_items.first().expect("non-empty")
    );

    // ---- the MapReduce engine, same corpus ----
    let runner = MrRunner::new(cluster.clone());
    let job = MapReduceJob::new(
        "user activity",
        "events.log",
        |_off, line: &str, em: &mut Emitter<String, u64>, _w| {
            if let Some(user) = line.split_whitespace().next() {
                em.emit(user.to_string(), 1);
            }
        },
        |user: &String, counts: Vec<u64>, em: &mut Emitter<String, u64>, _w| {
            em.emit(user.clone(), counts.into_iter().sum());
        },
    )
    .with_combiner(|a, b| a + b)
    .with_output(
        "activity.tsv",
        Arc::new(|u: &String, c: &u64| format!("{u}\t{c}")),
    );
    let result = runner.run(job).expect("input exists");
    println!(
        "MapReduce: {} users counted across {} map / {} reduce tasks, output committed to {}",
        result.pairs.len(),
        result.stats.map_tasks,
        result.stats.reduce_tasks,
        result.output_file.as_ref().expect("committed").name(),
    );

    // ---- where did the virtual time go? ----
    let report = yafim::cluster::full_report(cluster.metrics(), cluster.cost());
    println!("\n{report}");
    println!(
        "total virtual time: {:.2}s (note the MapReduce job dwarfing the RDD jobs)",
        cluster.metrics().now().as_secs()
    );
}
