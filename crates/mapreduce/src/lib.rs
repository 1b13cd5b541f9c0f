//! # yafim-mapreduce — a Hadoop-1.x-style MapReduce engine
//!
//! The paper's baseline, MR-Apriori (PApriori, Li et al. 2012), runs one
//! Hadoop job per Apriori pass. Its cost structure — re-reading the dataset
//! from HDFS on every pass, spilling and sorting map output to disk,
//! launching a JVM per task, committing results back to HDFS with 3×
//! replication — is exactly what YAFIM's evaluation measures against. This
//! crate reproduces that engine over the [`yafim_cluster`] substrate.
//!
//! One [`MapReduceJob`] is: text input splits (one per HDFS block) →
//! `mapper` per line (or per run of lines) → map output sorted by key → optional `combiner`, a
//! binary fold over each run of one key → one bucket per reduce task (one
//! per virtual core) → keys presented to `reducer` in sorted order →
//! optional text output committed to simulated HDFS. A job that counts keys
//! it knows up front declares them as a key table
//! ([`MapReduceJob::with_key_table`], `u64` values, combiner `+`) and emits
//! indices ([`Emitter::emit_at`]): each adds one to a dense `u64` slot (or
//! the mapper adds into the slots itself, [`Emitter::count_into`]) and only
//! the slots emitted at become pairs, so a counting mapper builds no keys and
//! calls no combiner.
//!
//! As everywhere in this repository, the data processing is real and the
//! time is virtual: map/reduce tasks run on the host thread pool while their
//! work counters are converted to durations and list-scheduled onto the
//! virtual cluster, with Hadoop's per-job, per-task and per-wave overheads
//! added from the cost model. A map task with pool threads to spare is cut
//! into line-range units, merged again before anything is charged.

mod emitter;
mod job;
mod runner;

pub use emitter::Emitter;
pub use job::{MapReduceJob, MrKey, MrValue};
pub use runner::{JobStats, MrJobResult, MrRunner};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use yafim_cluster::{ClusterSpec, CostModel, Lines, SimCluster};

    fn cluster() -> SimCluster {
        cluster_of(4, 2)
    }

    /// A job has one reduce task per core of its cluster.
    fn cluster_of(nodes: u32, cores: u32) -> SimCluster {
        SimCluster::with_threads(
            ClusterSpec::new(nodes, cores, 1 << 30),
            CostModel::hadoop_era(),
            4,
        )
    }

    fn word_count_job(input: &str) -> MapReduceJob<String, u64, String, u64> {
        MapReduceJob::new(
            "wordcount",
            input,
            |_off, line: &str, em: &mut Emitter<String, u64>, _w| {
                for word in line.split_whitespace() {
                    em.emit(word.to_string(), 1);
                }
            },
            |key: &String, values: Vec<u64>, em: &mut Emitter<String, u64>, _w| {
                em.emit(key.clone(), values.into_iter().sum());
            },
        )
    }

    #[test]
    fn word_count_end_to_end() {
        let c = cluster_of(1, 2);
        c.hdfs()
            .put(
                "in.txt",
                vec!["a b a".to_string(), "c a".to_string(), "b".to_string()],
            )
            .unwrap();
        let runner = MrRunner::new(c.clone());
        let result = runner.run(word_count_job("in.txt")).unwrap();
        let mut pairs = result.pairs.clone();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn combiner_gives_same_result() {
        let c = cluster();
        let lines: Vec<String> = (0..200)
            .map(|i| format!("w{} w{} w0", i % 5, i % 3))
            .collect();
        c.hdfs().put("in.txt", lines).unwrap();
        let runner = MrRunner::new(c.clone());

        let plain = runner.run(word_count_job("in.txt")).unwrap();
        let combined = runner
            .run(word_count_job("in.txt").with_combiner(|a, b| a + b))
            .unwrap();
        let mut a = plain.pairs.clone();
        let mut b = combined.pairs.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(
            combined.stats.shuffle_records < plain.stats.shuffle_records,
            "combiner must shrink the shuffle"
        );
    }

    #[test]
    fn reducer_sees_keys_in_sorted_order() {
        let c = cluster_of(1, 1);
        c.hdfs()
            .put("in.txt", vec!["3 1 2 5 4".to_string()])
            .unwrap();
        let runner = MrRunner::new(c.clone());
        let job = MapReduceJob::new(
            "sorted",
            "in.txt",
            |_o, line: &str, em: &mut Emitter<u32, u64>, _w| {
                for t in line.split_whitespace() {
                    em.emit(t.parse().unwrap(), 1);
                }
            },
            |k: &u32, _vs, em: &mut Emitter<u32, u64>, _w| em.emit(*k, 0),
        );
        let result = runner.run(job).unwrap();
        let keys: Vec<u32> = result.pairs.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn output_committed_to_hdfs() {
        let c = cluster();
        c.hdfs().put("in.txt", vec!["x y x".to_string()]).unwrap();
        let runner = MrRunner::new(c.clone());
        let job = word_count_job("in.txt").with_output(
            "out/part",
            Arc::new(|k: &String, v: &u64| format!("{k}\t{v}")),
        );
        let result = runner.run(job).unwrap();
        let f = result.output_file.expect("output file");
        assert!(c.hdfs().exists("out/part"));
        let mut lines: Vec<&str> = f.lines().iter().collect();
        lines.sort();
        assert_eq!(lines, ["x\t2", "y\t1"]);
    }

    #[test]
    fn job_charges_fixed_overhead() {
        let c = cluster();
        c.hdfs().put("in.txt", vec!["a".to_string()]).unwrap();
        let runner = MrRunner::new(c.clone());
        runner.run(word_count_job("in.txt")).unwrap();
        let elapsed = c.metrics().now().as_secs();
        let cost = c.cost();
        assert!(
            elapsed >= cost.mr_job_overhead,
            "a tiny job still pays the job overhead: {elapsed}"
        );
        assert_eq!(c.metrics().job_spans().len(), 1);
    }

    #[test]
    fn every_pass_rereads_input_from_disk() {
        let c = cluster();
        let lines: Vec<String> = (0..1000).map(|i| format!("line {i}")).collect();
        c.hdfs().put("in.txt", lines).unwrap();
        let runner = MrRunner::new(c.clone());
        runner.run(word_count_job("in.txt")).unwrap();
        let disk_once = c.metrics().snapshot().profile.work.disk_read_bytes;
        runner.run(word_count_job("in.txt")).unwrap();
        let disk_twice = c.metrics().snapshot().profile.work.disk_read_bytes;
        assert!(
            disk_twice >= 2 * disk_once - disk_once / 10,
            "second job re-reads from disk: {disk_once} vs {disk_twice}"
        );
    }

    #[test]
    fn missing_input_errors() {
        let runner = MrRunner::new(cluster());
        assert!(runner.run(word_count_job("missing.txt")).is_err());
    }

    #[test]
    fn per_split_mapper_sees_whole_split() {
        let c = cluster();
        let lines: Vec<String> = (0..50).map(|i| format!("{i}")).collect();
        c.hdfs().set_block_size(40); // several splits
        c.hdfs().put("in.txt", lines).unwrap();
        let runner = MrRunner::new(c.clone());
        // Each split emits (split line count, 1); the total must cover the
        // file exactly, and offsets must be split starts.
        let job = MapReduceJob::new_per_split(
            "split-count",
            "in.txt",
            |off, lines: &Lines, em: &mut Emitter<String, u64>, _w| {
                em.emit(format!("off{off}"), lines.len() as u64);
            },
            |k: &String, vs: Vec<u64>, em: &mut Emitter<String, u64>, _w| {
                em.emit(k.clone(), vs.into_iter().sum())
            },
        );
        let result = runner.run(job).unwrap();
        assert!(result.pairs.len() > 1, "expected multiple splits");
        let total: u64 = result.pairs.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 50);
        assert!(result.pairs.iter().any(|(k, _)| k == "off0"));
    }

    #[test]
    fn empty_input_file() {
        let c = cluster();
        c.hdfs().put("empty.txt", Vec::new()).unwrap();
        let runner = MrRunner::new(c.clone());
        let result = runner.run(word_count_job("empty.txt")).unwrap();
        assert!(result.pairs.is_empty());
    }

    #[test]
    fn block_size_controls_map_tasks() {
        let c = cluster();
        let lines: Vec<String> = (0..100).map(|i| format!("line number {i}")).collect();
        c.hdfs().put("big.txt", lines.clone()).unwrap();
        c.hdfs().set_block_size(100);
        c.hdfs().put("small.txt", lines).unwrap();
        let runner = MrRunner::new(c.clone());
        let small = runner.run(word_count_job("small.txt")).unwrap();
        let big = runner.run(word_count_job("big.txt")).unwrap();
        assert!(small.stats.map_tasks > big.stats.map_tasks);
    }

    #[test]
    fn side_data_costs_time() {
        let c1 = cluster();
        let c2 = cluster();
        for c in [&c1, &c2] {
            c.hdfs().put("in.txt", vec!["a".to_string()]).unwrap();
        }
        MrRunner::new(c1.clone())
            .run(word_count_job("in.txt"))
            .unwrap();
        MrRunner::new(c2.clone())
            .run(word_count_job("in.txt").with_side_data(50_000_000))
            .unwrap();
        assert!(c2.metrics().now() > c1.metrics().now());
    }
}
