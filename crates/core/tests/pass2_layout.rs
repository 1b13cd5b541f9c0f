//! Pass 2's layout under `Phase2Plan::Bitmap`: the rule that picks rows
//! (the triangle filled transaction by transaction) or columns (every pair
//! of the columnar store's item rows ANDed and popcounted), and what a run
//! does with it. The rule prices both layouts from pass 1's totals alone;
//! columns must never charge more than the rows would have, whichever
//! layout counts, the pass's candidates, `L_2` and the partial records the
//! driver merges are the same, and the memory governor only ever sends
//! pass 2 back to rows, without a step-down.

use yafim_cluster::{ClusterSpec, CostModel, FaultPlan, SimCluster};
use yafim_core::bitmap::pass2_bounds;
use yafim_core::types::{JVM_BITMAP_WORD_UNITS, JVM_PAIR_COUNT_UNITS};
use yafim_core::{apriori, Item, MinerRun, Phase2Plan, Support, Yafim, YafimConfig};
use yafim_data::rng::StdRng;
use yafim_data::{to_lines, PaperDataset};
use yafim_rdd::{Context, RddConfig};

fn cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 2)
}

/// Mine `tx` on `c` with `config`.
fn mine(c: &SimCluster, tx: &[Vec<Item>], config: YafimConfig) -> MinerRun {
    c.hdfs().put_overwrite("d.dat", to_lines(tx));
    Yafim::new(Context::new(c.clone()), config)
        .mine("d.dat")
        .expect("written")
}

fn up_to_pass_2(support: Support, plan: Phase2Plan) -> YafimConfig {
    YafimConfig {
        max_passes: 2,
        ..YafimConfig::with_plan(support, plan)
    }
}

#[test]
fn dense_totals_price_columns_below_rows_and_sparse_ones_above() {
    // (|L1|, lines, Σ L1 supports) of the paper datasets at the supports
    // the record mines them at, over the CLI's 192 splits.
    let shapes = [
        ("Pumsb_star 65 %", 25, 49_046, 1_009_410, true),
        ("MushRoom 35 %", 32, 8_124, 143_813, true),
        ("Chess 85 %", 31, 3_196, 91_778, true),
        ("T10I4D100K 0.25 %", 782, 100_000, 1_154_880, false),
        ("Medical 3 %", 81, 40_000, 275_006, false),
    ];
    for (name, n, lines, occ, columns) in shapes {
        let (c, r) = pass2_bounds(n, lines, 192, occ);
        assert_eq!(c < r, columns, "{name}: columns ≤ {c}, rows ≥ {r}");
    }
    // Pumsb_star: W = ⌈49 046 / 64⌉ + 192 = 959 words a row; 300 pairs,
    // 25 rows and every occurrence against 2 · ⌊occ (occ − lines) / 2 lines⌋.
    assert_eq!(
        pass2_bounds(25, 49_046, 192, 1_009_410),
        (300 * 959 + 25 * 959 + 1_009_410, 19_765_138)
    );
    assert_eq!(
        pass2_bounds(782, 100_000, 192, 1_154_880),
        (538_453_395, 12_182_598)
    );
}

#[test]
fn degenerate_totals_price_without_panicking_and_never_pick_columns() {
    let totals = [
        (2, 1, 1, 0),
        (0, 0, 0, 0),
        (2, 0, 1, 0),
        (1, 5, 3, 5),
        (2, 1, 1, 2),
        (2, 3, 16, 6),
        (u32::MAX as usize, 1 << 40, 1 << 20, u64::MAX),
    ];
    for (n, lines, partitions, occ) in totals {
        let (columns, rows) = pass2_bounds(n, lines, partitions, occ);
        let label = format!("n={n} lines={lines} partitions={partitions} occ={occ}");
        assert!(columns >= rows, "{label}: {columns} vs {rows}");
        if occ <= lines as u64 {
            assert_eq!(rows, 0, "{label}: at most one item a line");
        }
    }
    let (columns, rows) = pass2_bounds(u32::MAX as usize, 1 << 40, 1 << 20, u64::MAX);
    assert_eq!(
        (columns, rows),
        (u64::MAX, u64::MAX),
        "saturates, never wraps"
    );
}

/// `lines` random transactions: dense ones draw each of a few items with a
/// share of 30–90 %, sparse ones a handful of a few hundred.
fn random_input(rng: &mut StdRng, dense: bool) -> Vec<Vec<Item>> {
    let items = if dense {
        rng.gen_range(4..24u32)
    } else {
        rng.gen_range(100..400u32)
    };
    let share = rng.gen_range(30..90u32);
    (0..rng.gen_range(20..300usize))
        .map(|_| {
            let mut t: Vec<Item> = if dense {
                (0..items)
                    .filter(|_| rng.gen_range(0..100u32) < share)
                    .collect()
            } else {
                (0..rng.gen_range(0..9usize))
                    .map(|_| rng.gen_range(0..items))
                    .collect()
            };
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect()
}

#[test]
fn wherever_the_rule_picks_columns_they_charge_at_most_the_rows() {
    let mut rng = StdRng::seed_from_u64(0x2a75);
    let (mut by_columns, mut by_rows) = (0, 0);
    for case in 0..40 {
        let tx = random_input(&mut rng, case % 2 == 0);
        let c = cluster();
        let support = Support::Count(rng.gen_range(1..4u64));
        let run = mine(&c, &tx, up_to_pass_2(support, Phase2Plan::Bitmap));
        let Some(pass2) = run.passes.get(1) else {
            continue; // |L1| < 2
        };
        // What the driver knew after pass 1 ...
        let l1: Vec<Item> = run
            .result
            .level(1)
            .iter()
            .map(|(s, _)| s.items()[0])
            .collect();
        let occ = run.result.level(1).iter().map(|&(_, c)| c).sum();
        let splits = c.hdfs().get("d.dat").expect("written").splits(16).len();
        let (columns, rows) = pass2_bounds(l1.len(), tx.len(), splits, occ);
        // ... and what pass 2 did: Σ C(|t|, 2) over the projected rows.
        let dense: Vec<u64> = tx
            .iter()
            .map(|t| t.iter().filter(|i| l1.binary_search(i).is_ok()).count() as u64)
            .collect();
        let pairs: u64 = dense.iter().map(|&d| d * d.saturating_sub(1) / 2).sum();
        let label = format!("case {case}: columns ≤ {columns}, rows ≥ {rows}, {pairs} pairs");
        assert!(JVM_PAIR_COUNT_UNITS * pairs >= rows, "{label}");
        assert_eq!(pass2.counter == "bitmap", columns < rows, "{label}");
        if pass2.counter != "bitmap" {
            by_rows += 1;
            continue;
        }
        by_columns += 1;
        let engine = c.metrics().snapshot().engine;
        let arena = (engine.bitmap_build_bytes - 32 * engine.bitmap_partitions_built) / 8;
        let set_bits: u64 = dense.iter().filter(|&&d| d >= 2).sum();
        let charged = JVM_BITMAP_WORD_UNITS * engine.bitmap_words_intersected + arena + set_bits;
        assert!(charged <= columns, "{label}: charged {charged}");
        assert!(
            charged <= JVM_PAIR_COUNT_UNITS * pairs,
            "{label}: charged {charged}"
        );
    }
    assert!(
        by_columns >= 5 && by_rows >= 5,
        "{by_columns} by columns, {by_rows} by rows"
    );
}

#[test]
fn on_dense_data_columns_and_rows_agree_on_pass_2() {
    let tx = PaperDataset::Mushroom.generate_scaled(0.1);
    let support = Support::Fraction(0.35);
    let pass2 = |plan| {
        let c = cluster();
        let run = mine(&c, &tx, up_to_pass_2(support, plan));
        // Pass 2's stage writes its partials and its cache blocks: one
        // columnar block a partition under columns, the projected rows
        // under both.
        let written = c.metrics().stage_spans()[1].profile.records_written;
        let merged = written - c.metrics().snapshot().engine.bitmap_partitions_built;
        let p = &run.passes[1];
        (p.counter, (p.candidates, p.frequent, run.result, merged))
    };
    let (columns, by_columns) = pass2(Phase2Plan::Bitmap);
    let (rows, by_rows) = pass2(Phase2Plan::Projected);
    assert_eq!((columns, rows), ("bitmap", "triangle"));
    assert_eq!(
        by_columns, by_rows,
        "|C_2|, |L_2|, L_2 and Σ partial records"
    );
    assert!(by_columns.3 > 0);
}

/// 30 000 baskets over 40 items, two splits: five hot items (90 %) make a
/// few long itemsets, 35 warm ones (32 %) are frequent alone. Each split's
/// arena is about 75 KB, its triangle 6 KB.
fn hot_and_warm() -> Vec<Vec<Item>> {
    let mut rng = StdRng::seed_from_u64(40);
    (0..30_000)
        .map(|_| {
            let share = |i: Item| if i < 5 { 90 } else { 32 };
            (0..40)
                .filter(|&i| rng.gen_range(0..100u32) < share(i))
                .collect()
        })
        .collect()
}

#[test]
fn an_arena_over_the_task_limit_sends_pass_2_to_rows_without_a_step_down() {
    let tx = hot_and_warm();
    let support = Support::Fraction(0.3);
    let reference = apriori(&tx, support);
    assert!(reference.max_len() >= 4, "pass 3 must run");
    // Two partitions, so one task's arena is large.
    let mine_in_two = |c: &SimCluster| {
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        let rdd = RddConfig {
            default_parallelism: 2,
            ..RddConfig::for_cluster(c)
        };
        Yafim::new(
            Context::with_config(c.clone(), rdd),
            YafimConfig::bitmap(support),
        )
        .mine("d.dat")
        .expect("written")
    };

    let clean = cluster();
    let run = mine_in_two(&clean);
    assert_eq!(run.result, reference);
    assert_eq!(run.passes[1].counter, "bitmap", "the rule picks columns");

    // A per-task limit above the triangle and the admission granule, below
    // the arena: columns are not admissible, so pass 2 counts rows and notes
    // nothing, and every pass from 3 on steps down from the bitmap to the
    // hash tree as it did before pass 2 could count columns: four
    // degradations, what the build without the rule notes on this input.
    let tight = cluster();
    tight
        .faults()
        .set_plan(FaultPlan::seeded(5).with_mem_budget(194 << 10));
    let limit = tight.memory_budget().expect("armed").per_task_limit;
    assert!((64 << 10..72 << 10).contains(&limit), "limit {limit}");
    let run = mine_in_two(&tight);
    assert_eq!(run.result, reference);
    let counters: Vec<&str> = run.passes.iter().map(|p| p.counter).collect();
    assert_eq!(&counters[1..3], ["triangle", "hash tree"]);
    let snapshot = tight.metrics().snapshot();
    assert_eq!(snapshot.recovery.mem.degradations, 4);
    assert_eq!(snapshot.engine.bitmap_partitions_built, 0);
}
