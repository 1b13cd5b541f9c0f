//! The HDFS text source lends its split's lines (`Pipe::Borrowed`) instead
//! of cloning each one into a boxed iterator. Every way of consuming it has
//! to return what it returned, and a whole-partition consumer must no longer
//! pay for a copy of the split.

use yafim_cluster::{ClusterSpec, CostModel, SimCluster, TaskProfile};
use yafim_rdd::{Context, ExecMode, RddConfig};

fn ctx_with(lines: &[String], mode: ExecMode) -> Context {
    let cluster =
        SimCluster::with_threads(ClusterSpec::new(3, 2, 1 << 30), CostModel::hadoop_era(), 2);
    cluster.hdfs().put_overwrite("in.txt", lines.to_vec());
    let mut config = RddConfig::for_cluster(&cluster);
    config.exec_mode = mode;
    Context::with_config(cluster, config)
}

fn ctx(lines: &[String]) -> Context {
    ctx_with(lines, ExecMode::Fused)
}

fn profile(c: &Context) -> TaskProfile {
    c.metrics().snapshot().profile
}

#[test]
fn every_consumer_sees_the_lines_in_order() {
    for n in [0usize, 1, 5, 100] {
        let lines: Vec<String> = (0..n).map(|i| format!("line {i} {}", i * i)).collect();
        // Fewer partitions than lines, as many, and more.
        for parts in [1, 3, 5, 64] {
            let label = format!("{n} lines, {parts} partitions");
            let c = ctx(&lines);
            let rdd = c.text_file("in.txt", parts).expect("written");
            assert_eq!(rdd.count(), n as u64, "{label}");
            assert_eq!(rdd.collect(), lines, "{label}");
            for k in [0, 1, 4, n, n + 3] {
                assert_eq!(rdd.take(k), lines[..k.min(n)], "{label}, take({k})");
            }
            let lens: Vec<usize> = lines.iter().map(String::len).collect();
            assert_eq!(rdd.map(|l| l.len()).collect(), lens, "{label}");
            let by_slice = rdd.map_partitions(|ls, _| ls.iter().map(String::len).collect());
            assert_eq!(by_slice.collect(), lens, "{label}");
            let cached = rdd.cache();
            assert_eq!(cached.collect(), lines, "{label}: cache insert");
            assert_eq!(cached.collect(), lines, "{label}: cache hit");
            cached.unpersist();
        }
    }
}

#[test]
fn a_whole_partition_consumer_copies_nothing() {
    let lines: Vec<String> = (0..200).map(|i| format!("{i} {}", i + 1)).collect();
    let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 8).sum();

    let c = ctx(&lines);
    let rdd = c.text_file("in.txt", 7).expect("written");
    let total = rdd.map_partitions(|ls, _| vec![ls.len() as u64]).collect();
    assert_eq!(total.iter().sum::<u64>(), 200);
    let lent = profile(&c);
    assert_eq!(lent.bytes_materialized, 0, "the split's lines were lent");
    assert_eq!(lent.records_read, 200);
    assert_eq!((lent.work.records_in, lent.work.records_out), (200, 207));

    // `count` reads the length off the slice; `collect` needs its own copy.
    let c = ctx(&lines);
    assert_eq!(c.text_file("in.txt", 7).expect("written").count(), 200);
    assert_eq!(profile(&c).bytes_materialized, 0);
    let c = ctx(&lines);
    c.text_file("in.txt", 7).expect("written").collect();
    assert_eq!(profile(&c).bytes_materialized, bytes);

    // The eager reference evaluator still materializes at the source, and
    // charges everything else the same.
    let c = ctx_with(&lines, ExecMode::Eager);
    let rdd = c.text_file("in.txt", 7).expect("written");
    rdd.map_partitions(|ls, _| vec![ls.len() as u64]).collect();
    let eager = profile(&c);
    assert_eq!(eager.bytes_materialized, bytes);
    assert_eq!(eager.work, lent.work);
}
