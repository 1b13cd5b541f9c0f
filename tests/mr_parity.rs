//! Root-level MapReduce engine differential, so tier-1 runs it: a hash-tree
//! counting job that emits candidate *indices* over a declared key table is
//! the job that emitted the candidate itemsets, down to the last counter and
//! the bits of the virtual clock. `crates/mapreduce/tests/properties.rs`
//! holds the long version (random corpora, fault plans, host units).

use std::sync::Arc;
use yafim::cluster::{ClusterSpec, CostModel, SimCluster};
use yafim::data::{to_lines, PaperDataset};
use yafim::mapreduce::{Emitter, MapReduceJob, MrRunner};
use yafim::{
    ap_gen, apriori, parse_transaction, HashTree, Itemset, MatchScratch, SequentialConfig, Support,
};

/// Run the counting job over `levels` (one hash tree each) and return
/// everything the model can see of it.
fn count(lines: &[String], levels: &[Vec<Itemset>], indexed: bool) -> String {
    let c = SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 2);
    c.hdfs().put_overwrite("m.dat", lines.to_vec());
    let table: Arc<[Itemset]> = levels.iter().flatten().cloned().collect();
    let mut base = 0;
    let trees: Vec<(usize, HashTree)> = levels
        .iter()
        .map(|level| {
            base += level.len();
            (base - level.len(), HashTree::build(level.clone()))
        })
        .collect();
    let job = MapReduceJob::new(
        "count",
        "m.dat",
        move |_off, line: &str, em: &mut Emitter<Itemset, u64>, w| {
            let items = parse_transaction(line);
            let mut scratch = MatchScratch::default();
            for (base, tree) in &trees {
                w.add_cpu(tree.for_each_match(&items, &mut scratch, |idx| {
                    if indexed {
                        em.emit_at(base + idx, 1);
                    } else {
                        em.emit(tree.candidates()[idx].clone(), 1);
                    }
                }));
            }
        },
        |k: &Itemset, vs: Vec<u64>, em: &mut Emitter<Itemset, u64>, _w| {
            em.emit(k.clone(), vs.into_iter().sum())
        },
    )
    .with_combiner(|a, b| a + b)
    .with_split_size(4096)
    .with_reduce_tasks(3)
    .with_output("m.out", Arc::new(|k: &Itemset, v: &u64| format!("{k} {v}")));
    let job = if indexed {
        job.with_key_table(table)
    } else {
        job
    };
    let result = MrRunner::new(c.clone()).run(job).expect("input written");
    assert!(result.stats.map_tasks > 1 && result.stats.shuffle_records > 0);
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:#x}",
        result.pairs,
        result.stats,
        result.output_file.expect("job commits").lines().text(),
        c.metrics().snapshot(),
        c.metrics().now().as_secs().to_bits()
    )
}

#[test]
fn a_counting_job_emits_indices_as_it_emitted_itemsets() {
    let tx = PaperDataset::Mushroom.generate_scaled(0.05);
    let mined = apriori(&tx, &SequentialConfig::new(Support::Fraction(0.4)));
    let l2: Vec<Itemset> = mined.level(2).iter().map(|(s, _)| s.clone()).collect();
    // Two levels in one job, as FPC chains them: C3 from L2, C4 from C3. The
    // concatenated table is sorted within a level, not across them.
    let c3 = ap_gen(&l2).0;
    let c4 = ap_gen(&c3).0;
    assert!(!c3.is_empty() && !c4.is_empty());
    let (lines, levels) = (to_lines(&tx), [c3, c4]);
    assert_eq!(count(&lines, &levels, true), count(&lines, &levels, false));
}
