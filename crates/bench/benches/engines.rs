//! Microbench: raw engine overheads — one RDD job vs one MapReduce job over
//! the same small input. Measures the *simulator's* real cost per job (wall
//! time), complementing the virtual-time figures.

use yafim_bench::microbench::{bench, black_box, header};
use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
use yafim_mapreduce::{Emitter, MapReduceJob, MrRunner};
use yafim_rdd::Context;

fn small_cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 1)
}

fn lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("{} {} {}", i % 50, i % 31, i % 17))
        .collect()
}

fn main() {
    header("engine_wordcount_10k_lines");

    {
        let cluster = small_cluster();
        cluster.hdfs().put_overwrite("in.txt", lines(10_000));
        let ctx = Context::new(cluster);
        bench("rdd", 10, || {
            let out = ctx
                .text_file("in.txt", 16)
                .expect("exists")
                .flat_map(|l: String| l.split_whitespace().map(str::to_string).collect::<Vec<_>>())
                .map(|w| (w, 1u64))
                .reduce_by_key(|a, b| a + b)
                .collect();
            black_box(out.len())
        });
    }

    {
        let cluster = small_cluster();
        cluster.hdfs().put_overwrite("in.txt", lines(10_000));
        let runner = MrRunner::new(cluster);
        bench("mapreduce", 10, || {
            let job = MapReduceJob::new(
                "wc",
                "in.txt",
                |_o, line: &str, em: &mut Emitter<String, u64>, _w| {
                    for w in line.split_whitespace() {
                        em.emit(w.to_string(), 1);
                    }
                },
                |k: &String, vs: Vec<u64>, em: &mut Emitter<String, u64>, _w| {
                    em.emit(k.clone(), vs.into_iter().sum())
                },
            )
            .with_combiner(|a, b| a + b);
            let out = runner.run(job).expect("input exists");
            black_box(out.pairs.len())
        });
    }
}
