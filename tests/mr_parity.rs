//! Root-level MapReduce engine differentials, so tier-1 runs them, each down
//! to the last counter and the bits of the virtual clock: a hash-tree
//! counting job that counts candidate *indices* over a declared key table is
//! the job that emitted the candidate itemsets under a `+` combiner, and
//! MR-Apriori's pass 1, keyed by one item, is the pass 1 that emitted one
//! `Itemset` per item. `crates/mapreduce/tests/properties.rs` holds the long
//! version of the first (random corpora, fault plans, host units).

use std::sync::Arc;
use yafim::cluster::{ClusterSpec, CostModel, SimCluster};
use yafim::data::{to_lines, PaperDataset};
use yafim::mapreduce::{Emitter, MapReduceJob, MrRunner};
use yafim::{
    ap_gen, apriori, parse_transaction, HashTree, Itemset, MatchScratch, MrApriori,
    MrAprioriConfig, Support,
};

/// Run the counting job over `levels` (one hash tree each) and return
/// everything the model can see of it: 4 KiB blocks (one map task each) on
/// three single-core nodes (three reduce tasks).
fn count(lines: &[String], levels: &[Vec<Itemset>], indexed: bool) -> String {
    let c = SimCluster::with_threads(ClusterSpec::new(3, 1, 1 << 30), CostModel::hadoop_era(), 2);
    c.hdfs().set_block_size(4096);
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
                        em.emit_at(base + idx);
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
    .with_output("m.out", Arc::new(|k: &Itemset, v: &u64| format!("{k} {v}")));
    let job = if indexed {
        job.with_key_table(table)
    } else {
        job.with_combiner(|a, b| a + b)
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
    let mined = apriori(&tx, Support::Fraction(0.4));
    let l2: Vec<Itemset> = mined.level(2).iter().map(|(s, _)| s.clone()).collect();
    // Two levels in one job, as FPC chains them: C3 from L2, C4 from C3. The
    // concatenated table is sorted within a level, not across them.
    let c3 = ap_gen(&l2).0;
    let c4 = ap_gen(&c3).0;
    assert!(!c3.is_empty() && !c4.is_empty());
    let (lines, levels) = (to_lines(&tx), [c3, c4]);
    assert_eq!(count(&lines, &levels, true), count(&lines, &levels, false));
}

/// MR-Apriori's pass 1 as it was before it keyed by one item: a `Vec` per
/// line, an `Itemset` per emission. The oracle of the test below.
fn itemset_pass1_job(input: &str, min_sup: u64) -> MapReduceJob<Itemset, u64, Itemset, u64> {
    MapReduceJob::new(
        "MR-Apriori pass 1",
        input,
        |_off, line: &str, em: &mut Emitter<Itemset, u64>, w| {
            let items = parse_transaction(line);
            w.add_cpu(items.len() as u64);
            for item in items {
                em.emit(Itemset::single(item), 1);
            }
        },
        move |k: &Itemset, vs: Vec<u64>, em: &mut Emitter<Itemset, u64>, _w| {
            let sum: u64 = vs.into_iter().sum();
            if sum >= min_sup {
                em.emit(k.clone(), sum);
            }
        },
    )
    .with_combiner(|a, b| a + b)
    .with_output(
        format!("{input}.L1"),
        Arc::new(|k: &Itemset, v: &u64| format!("{k} {v}")),
    )
}

/// Put `lines` in `block_size`-byte blocks on a fresh four-thread cluster,
/// let `run` mine them, and
/// return its sorted pairs with everything else the run shows: the committed
/// `.L1` text (the pairs in reduce order), the metrics snapshot and the
/// clock bits.
fn observe_pass1(
    lines: &[String],
    block_size: u64,
    run: impl FnOnce(&SimCluster) -> Vec<(Itemset, u64)>,
) -> (Vec<(Itemset, u64)>, String) {
    let c = SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 4);
    c.hdfs().set_block_size(block_size);
    c.hdfs().put_overwrite("p1.dat", lines.to_vec());
    let mut pairs = run(&c);
    pairs.sort();
    let text = c.hdfs().get("p1.dat.L1").expect("pass 1 commits");
    let (snapshot, clock) = (c.metrics().snapshot(), c.metrics().now().as_secs());
    let seen = format!(
        "{:?}\n{snapshot:?}\n{:#x}",
        text.lines().text(),
        clock.to_bits()
    );
    (pairs, seen)
}

/// The miner's pass 1 (a one-pass MR-Apriori run) against the oracle job.
/// Every `JobStats` field shows in what is compared: map and reduce tasks in
/// the snapshot's tasks, shuffle records in its `records_in` (a reducer
/// reads each), shuffle bytes in its shuffle bytes, input bytes in its disk
/// reads, output records in the `.L1` lines. MushRoom is one split cut into
/// four host units; the T10 slice is many map tasks of one unit.
#[test]
fn pass_1_keyed_by_an_item_is_pass_1_keyed_by_an_itemset() {
    let mushroom = to_lines(&PaperDataset::Mushroom.generate_scaled(1.0));
    let t10 = to_lines(&PaperDataset::T10I4D100K.generate_scaled(0.02));
    for (lines, block, min_sup, tasks) in [(mushroom, 1 << 30, 2_844, 1), (t10, 4096, 5, 22)] {
        let mut stats = None;
        let oracle = observe_pass1(&lines, block, |c| {
            let job = itemset_pass1_job("p1.dat", min_sup);
            let result = MrRunner::new(c.clone()).run(job).expect("input written");
            stats = Some(result.stats);
            result.pairs
        });
        let miner = observe_pass1(&lines, block, |c| {
            let mut config = MrAprioriConfig::new(Support::Count(min_sup));
            config.max_passes = 1;
            let run = MrApriori::new(c.clone(), config).mine("p1.dat");
            run.expect("input written").result.level(1).to_vec()
        });
        assert_eq!(miner, oracle);
        assert_eq!(stats.expect("oracle ran").map_tasks, tasks);
    }
}
