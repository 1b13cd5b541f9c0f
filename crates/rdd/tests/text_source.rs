//! The HDFS text source, both ways it hands out a split: a `String` per
//! line (`text_file`) and the split whole, as one view of the file's buffer
//! (`text_splits`). Every way of consuming either has to return the lines in
//! order, and count and weigh them as the source always did: the numbers
//! below are the ones it gave when it lent a `&[String]`.

use yafim_cluster::{ClusterSpec, CostModel, Lines, SimCluster, TaskProfile};
use yafim_rdd::Context;

fn ctx(lines: &[String]) -> Context {
    let cluster =
        SimCluster::with_threads(ClusterSpec::new(3, 2, 1 << 30), CostModel::hadoop_era(), 2);
    cluster.hdfs().put_overwrite("in.txt", lines.to_vec());
    Context::new(cluster)
}

fn profile(c: &Context) -> TaskProfile {
    c.metrics().snapshot().profile
}

#[test]
fn every_consumer_sees_the_lines_in_order() {
    for n in [0usize, 1, 5, 100] {
        let lines: Vec<String> = (0..n).map(|i| format!("line {i} {}", i * i)).collect();
        let lens: Vec<usize> = lines.iter().map(String::len).collect();
        // Fewer partitions than lines, as many, and more.
        for parts in [1, 3, 5, 64] {
            let label = format!("{n} lines, {parts} partitions");
            let c = ctx(&lines);
            let rdd = c.text_file("in.txt", parts).expect("written");
            assert_eq!(rdd.count(), n as u64, "{label}");
            assert_eq!(rdd.collect(), lines, "{label}");
            assert_eq!(rdd.map(|l| l.len()).collect(), lens, "{label}");
            let by_slice = rdd.map_partitions(|ls, _| ls.iter().map(String::len).collect());
            assert_eq!(by_slice.collect(), lens, "{label}");
            let cached = rdd.cache();
            assert_eq!(cached.collect(), lines, "{label}: cache insert");
            assert_eq!(cached.collect(), lines, "{label}: cache hit");
            cached.unpersist();

            // The same partitions, each split one element.
            let splits = c.text_splits("in.txt", parts).expect("written");
            assert_eq!(splits.num_partitions(), rdd.num_partitions(), "{label}");
            let whole: Vec<Lines> = splits.collect();
            let strs = lines.iter().map(String::as_str);
            assert!(whole.iter().flat_map(Lines::iter).eq(strs), "{label}");
            let by_split = splits.map_partitions(|part, _| {
                let lines = part.iter().flat_map(Lines::iter);
                lines.map(|l| l.len()).collect()
            });
            assert_eq!(by_split.collect(), lens, "{label}");
        }
    }
}

#[test]
fn a_whole_split_consumer_copies_nothing_and_counts_every_line() {
    let lines: Vec<String> = (0..200).map(|i| format!("{i} {}", i + 1)).collect();
    let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 8).sum();

    // The split's text lies in the file's own buffer: no `String` per line,
    // no copy of the split.
    let c = ctx(&lines);
    let file = c.cluster().hdfs().get("in.txt").expect("written");
    let range = |text: &str| {
        let bytes = text.as_bytes().as_ptr_range();
        bytes.start as usize..bytes.end as usize
    };
    let buffer = range(&file.lines().text());
    let rdd = c.text_splits("in.txt", 7).expect("written");
    let total = rdd.map_partitions(move |part, _| {
        for lines in part {
            let text = range(&lines.text());
            assert!(buffer.start <= text.start && text.end <= buffer.end);
        }
        vec![part.iter().map(Lines::len).sum::<usize>() as u64]
    });
    assert_eq!(total.collect().iter().sum::<u64>(), 200);
    let whole = profile(&c);
    assert_eq!(whole.bytes_materialized, 0, "the split was handed over");
    assert_eq!(whole.records_read, 200);
    assert_eq!((whole.work.records_in, whole.work.records_out), (200, 207));

    // A per-line consumer reads and counts the same, and pays for its copy.
    let c = ctx(&lines);
    let rdd = c.text_file("in.txt", 7).expect("written");
    rdd.map_partitions(|ls, _| vec![ls.len() as u64]).collect();
    let per_line = profile(&c);
    assert_eq!(per_line.bytes_materialized, bytes);
    assert_eq!(per_line.records_read, 200);
    assert_eq!(per_line.work, whole.work);

    // `collect` needs its own copy of the `String`s; a collected split is
    // still a view.
    let c = ctx(&lines);
    c.text_file("in.txt", 7).expect("written").collect();
    assert_eq!(profile(&c).bytes_materialized, bytes);
    let c = ctx(&lines);
    c.text_splits("in.txt", 7).expect("written").collect();
    assert_eq!(profile(&c).bytes_materialized, 0);
}

#[test]
fn what_is_cached_downstream_weighs_the_same_from_either_source() {
    let lines: Vec<String> = (0..200).map(|i| format!("{i} {}", i + 1)).collect();
    let lens = |c: &Context, whole: bool| {
        let rdd = if whole {
            let splits = c.text_splits("in.txt", 7).expect("written");
            splits.map_partitions(|part, _| {
                let lines = part.iter().flat_map(Lines::iter);
                lines.map(|l| l.len() as u64).collect()
            })
        } else {
            let lines = c.text_file("in.txt", 7).expect("written");
            lines.map(|l| l.len() as u64)
        };
        let cached = rdd.cache();
        assert_eq!(cached.count(), 200);
        assert_eq!(cached.count(), 200);
        let p = profile(c);
        let cache = c.cache().stats();
        (
            cache.used_bytes,
            cache.entries,
            p.cache_hits,
            p.records_read,
            p.records_written,
        )
    };
    let per_line = lens(&ctx(&lines), false);
    // 7 partitions of `u64`s under an 8-byte header each; 200 lines read off
    // HDFS and 200 more off the cache; 200 cached.
    assert_eq!(per_line, (200 * 8 + 7 * 8, 7, 7, 400, 200));
    assert_eq!(lens(&ctx(&lines), true), per_line);
}
