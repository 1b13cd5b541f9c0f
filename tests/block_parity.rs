//! The block data plane against the per-record pipeline it replaced
//! (DESIGN.md §5, "Modelled quantities", rule 2: the pre-change chain stays
//! here as the oracle). `per_record_mine` is YAFIM as it ran before
//! transactions travelled as one block per partition, written out from the
//! public RDD operators: `text_file → map(parse_transaction) → cache`,
//! `flat_map → map → reduce_by_key` (`→ try_aggregate`, one partial record
//! per distinct item, when the plan projects), `map(encode) → filter`,
//! `map(retain) → filter`, the columnar build (in pass 2 when the bitmap
//! plan's rule prices columns below rows), and every fold over
//! `&[Vec<Item>]`. `Yafim::mine`
//! has to return what it returns and leave the same clock (by bits), work
//! and engine counters, record counts and cache high-water mark behind,
//! under every plan, at 1, 2 and 8 pool threads. Only `bytes_materialized`
//! may differ: the copies are what the blocks removed.

use std::collections::BTreeMap;
use std::sync::Arc;
use yafim::bitmap::{chained_levels, pass2_bounds};
use yafim::cluster::{ByteSize, ClusterSpec, CostModel, EngineCounters, EventKind, SimCluster};
use yafim::data::from_lines;
use yafim::data::rng::StdRng;
use yafim::encode::{tri_index, tri_len, tri_pair};
use yafim::rdd::{Context, Data, PartialSize, Rdd, TaskContext};
use yafim::types::{JVM_BITMAP_WORD_UNITS, JVM_PAIR_COUNT_UNITS, JVM_TREE_VISIT_UNITS};
use yafim::{
    apriori, bitmap_fits, parse_transaction, BitmapScratch, CandidateList, CandidateStore,
    CandidateTrie, ColumnarPartition, DenseEncoder, HashTree, Item, Itemset, MatchScratch,
    MiningResult, Phase2Plan, Support, TrimMask, Yafim, YafimConfig,
};

const INPUT: &str = "in.dat";

/// `(index, count)` of every cell holding at least `min`, ascending.
fn cells_at_least(counts: &[u64], min: u64) -> Vec<(u32, u64)> {
    let cells = counts.iter().enumerate().filter(|&(_, &c)| c >= min);
    cells.map(|(i, &c)| (i as u32, c)).collect()
}

/// Count one partition into a fresh array with `count`, add it into `acc`,
/// and return how many cells it touched: what the folds report, the slow way.
fn fold_fresh(acc: &mut [u64], count: impl FnOnce(&mut [u64])) -> u64 {
    let mut fresh = vec![0u64; acc.len()];
    count(&mut fresh);
    acc.iter_mut().zip(&fresh).for_each(|(a, f)| *a += f);
    fresh.iter().filter(|&&c| c > 0).count() as u64
}

/// `Yafim::count_pass` as it was (and is): aggregate when the plan
/// projects, Algorithm 3's `reduceByKey` otherwise.
fn count_pass<T: Data>(
    rdd: &Rdd<T>,
    projects: bool,
    n_candidates: usize,
    min_sup: u64,
    fold: impl Fn(&mut [u64], &[T], &TaskContext) -> u64 + Send + Sync + 'static,
) -> Vec<(u32, u64)> {
    if projects {
        // What passes the threshold, as the reducers would ship it.
        let kept = |counts: &Vec<u64>| {
            let records = counts.iter().filter(|&&c| c >= min_sup).count() as u64;
            PartialSize {
                records,
                bytes: records * 12,
            }
        };
        let counts = rdd
            .try_aggregate(
                move || vec![0u64; n_candidates],
                move |acc: &mut Vec<u64>, part, tc| {
                    let records = fold(acc, part, tc);
                    let bytes = records * 12;
                    PartialSize { records, bytes }
                },
                |mut a, b| {
                    a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                    a
                },
                (n_candidates as u64, &kept, "pass"),
            )
            .expect("fault-free");
        return cells_at_least(&counts, min_sup);
    }
    let mut counted = rdd
        .map_partitions(move |part, tc| {
            let mut counts = vec![0u64; n_candidates];
            fold(&mut counts, part, tc);
            cells_at_least(&counts, 1)
        })
        .reduce_by_key(|a, b| a + b)
        .filter(move |&(_, c)| c >= min_sup)
        .collect();
    counted.sort_unstable_by_key(|&(idx, _)| idx);
    counted
}

/// One store-counted pass over per-record transactions.
fn pass_with_store(
    ctx: &Context,
    work: &Rdd<Vec<Item>>,
    projects: bool,
    store: Box<dyn CandidateStore>,
    min_sup: u64,
) -> Vec<(Itemset, u64)> {
    let n_candidates = store.len();
    let cost = ctx.cluster().cost().clone();
    ctx.metrics().advance_with_event(
        cost.cpu(2 * n_candidates as u64),
        EventKind::Driver,
        "build store",
    );
    let bc = ctx.broadcast(store);
    let (store, store_bytes) = (bc.value(), bc.bytes());
    let counted = count_pass(
        work,
        projects,
        n_candidates,
        min_sup,
        move |acc, txs, tc| {
            tc.note_broadcast_read(store_bytes);
            let mut scratch = MatchScratch::default();
            let (mut visits, mut matches) = (0u64, 0u64);
            let cells = fold_fresh(acc, |fresh| {
                for t in txs {
                    visits += store.for_each_match_dyn(t, &mut scratch, &mut |idx| {
                        fresh[idx] += 1;
                        matches += 1;
                    });
                }
            });
            tc.add_cpu(visits * JVM_TREE_VISIT_UNITS + matches);
            cells
        },
    );
    let all = bc.candidates();
    let survivors = counted.into_iter();
    survivors
        .map(|(idx, c)| (all[idx as usize].clone(), c))
        .collect()
}

/// A bitmap job's candidate lists as one broadcast, sized as the lists.
struct Lists(Vec<CandidateList>);

impl ByteSize for Lists {
    fn byte_size(&self) -> u64 {
        self.0.iter().map(ByteSize::byte_size).sum()
    }
}

/// YAFIM before the blocks, minus what a fault-free run on a roomy cluster
/// never reaches (checkpoints, the degradation ladder, the size guards).
fn per_record_mine(ctx: &Context, support: Support, plan: Phase2Plan) -> MiningResult {
    let metrics = ctx.metrics().clone();
    let cost = ctx.cluster().cost().clone();
    let partitions = ctx.config().default_parallelism;
    let projects = plan != Phase2Plan::Paper;
    let file = ctx.cluster().hdfs().get(INPUT).expect("written");
    let min_sup = support.resolve(file.num_lines() as u64);

    let transactions: Rdd<Vec<Item>> = ctx
        .text_file(INPUT, partitions)
        .expect("written")
        .map(|line| parse_transaction(&line))
        .cache();
    let ones = transactions.flat_map(|t| t).map(|item| (item, 1u64));
    let l1_pairs: Vec<(Item, u64)> = if projects {
        // One partial record per distinct item of the partition.
        let add = |acc: &mut BTreeMap<Item, u64>, (item, c): (Item, u64)| {
            *acc.entry(item).or_default() += c;
        };
        let kept = |counts: &BTreeMap<Item, u64>| {
            let records = counts.values().filter(|&&c| c >= min_sup).count() as u64;
            PartialSize {
                records,
                bytes: records * 12,
            }
        };
        let counts = ones
            .try_aggregate(
                BTreeMap::new,
                move |acc, part, _| {
                    let mut partial = BTreeMap::new();
                    part.iter().for_each(|&pair| add(&mut partial, pair));
                    let records = partial.len() as u64;
                    partial.into_iter().for_each(|pair| add(acc, pair));
                    PartialSize {
                        records,
                        bytes: records * 12,
                    }
                },
                move |mut a, b| {
                    b.into_iter().for_each(|pair| add(&mut a, pair));
                    a
                },
                (1 << 32, &kept, "pass 1"),
            )
            .expect("fault-free");
        counts.into_iter().filter(|&(_, c)| c >= min_sup).collect()
    } else {
        ones.reduce_by_key(|a, b| a + b)
            .filter(move |&(_, c)| c >= min_sup)
            .collect()
    };
    let mut l1: Vec<(Itemset, u64)> = l1_pairs
        .iter()
        .map(|&(i, c)| (Itemset::single(i), c))
        .collect();
    l1.sort_by(|a, b| a.0.cmp(&b.0));
    if l1.is_empty() {
        transactions.unpersist();
        return MiningResult::default();
    }

    let mut work = transactions.clone();
    let mut replaced: Option<Rdd<Vec<Item>>> = None;
    let encoder = projects.then(|| {
        let items = l1.iter().map(|(s, _)| s.items()[0]).collect();
        let encoder = Arc::new(DenseEncoder::new(items));
        metrics.advance_with_event(
            cost.cpu(encoder.len() as u64),
            EventKind::Projection,
            "build dense dictionary",
        );
        let enc = ctx.broadcast(DenseEncoder::clone(&encoder)).value();
        let dense = transactions
            .map(move |t| enc.encode(&t))
            .filter(|t| t.len() >= 2)
            .cache();
        replaced = Some(std::mem::replace(&mut work, dense));
        encoder
    });
    let n_dense = encoder.as_ref().map_or(0, |e| e.len());
    assert!(tri_len(n_dense) <= yafim::encode::TRIANGLE_MAX_CELLS);
    assert!(bitmap_fits(n_dense, file.num_lines(), partitions));
    let l1_work: Vec<(Itemset, u64)> = match &encoder {
        Some(_) => (0u32..)
            .zip(&l1)
            .map(|(r, &(_, c))| (Itemset::single(r), c))
            .collect(),
        None => l1,
    };

    let columnar_of = |work: &Rdd<Vec<Item>>| {
        metrics.advance_with_event(
            cost.cpu(n_dense as u64),
            EventKind::Projection,
            "columnar bitmap projection plan",
        );
        let noted = metrics.clone();
        work.map_partitions(move |txs, tc| {
            let col = ColumnarPartition::build(n_dense, txs);
            tc.add_mem_read(8 * col.arena_words() as u64);
            tc.add_cpu(col.build_cost_units());
            noted.note_engine(&EngineCounters {
                bitmap_partitions_built: 1,
                bitmap_build_bytes: col.byte_size(),
                ..EngineCounters::default()
            });
            vec![col]
        })
        .cache()
    };
    // Pass 2's layout rule, from pass 1's totals over the input's splits.
    let occurrences = l1_work.iter().map(|&(_, c)| c).sum();
    let splits = file.splits(partitions).len();
    let (by_columns, by_rows) = pass2_bounds(n_dense, file.num_lines(), splits, occurrences);

    let mut levels = vec![l1_work];
    let mut columnar: Option<Rdd<ColumnarPartition>> = None;
    let mut pass = 2;
    loop {
        let prev = levels.last().expect("never empty");
        let counted: Vec<Vec<(Itemset, u64)>> = if pass == 2 && projects {
            let n_candidates = tri_len(n_dense);
            if n_candidates == 0 {
                break;
            }
            let counted = if plan == Phase2Plan::Bitmap && by_columns < by_rows {
                // Every pair of item rows, ANDed and popcounted.
                let cols = &*columnar.insert(columnar_of(&work));
                metrics.note_engine(&EngineCounters {
                    bitmap_passes: 1,
                    bitmap_candidates_counted: n_candidates as u64,
                    ..EngineCounters::default()
                });
                let noted = metrics.clone();
                count_pass(cols, true, n_candidates, min_sup, move |acc, cols, tc| {
                    let mut words = 0u64;
                    let cells = fold_fresh(acc, |fresh| {
                        for col in cols {
                            for a in 0..n_dense {
                                for b in a + 1..n_dense {
                                    let (x, y) = (col.row(a), col.row(b));
                                    let both = x.iter().zip(y).map(|(x, y)| x & y);
                                    let count: u32 = both.map(u64::count_ones).sum();
                                    fresh[tri_index(n_dense, a, b)] += u64::from(count);
                                    words += x.len() as u64;
                                }
                            }
                        }
                    });
                    tc.add_cpu(words * JVM_BITMAP_WORD_UNITS + cells);
                    noted.note_engine(&EngineCounters {
                        bitmap_words_intersected: words,
                        ..EngineCounters::default()
                    });
                    cells
                })
            } else {
                metrics.advance_with_event(
                    cost.cpu(n_dense as u64),
                    EventKind::Driver,
                    "pass 2 triangle setup",
                );
                count_pass(&work, true, n_candidates, min_sup, move |acc, txs, tc| {
                    let mut pairs = 0u64;
                    let cells = fold_fresh(acc, |fresh| {
                        for t in txs {
                            for (i, &a) in t.iter().enumerate() {
                                for &b in &t[i + 1..] {
                                    fresh[tri_index(n_dense, a as usize, b as usize)] += 1;
                                    pairs += 1;
                                }
                            }
                        }
                    });
                    tc.add_cpu(pairs * JVM_PAIR_COUNT_UNITS);
                    tc.add_cpu(cells);
                    cells
                })
            };
            let pair = |(idx, c): (u32, u64)| {
                let (a, b) = tri_pair(n_dense, idx as usize);
                (Itemset::from_sorted(vec![a as u32, b as u32]), c)
            };
            vec![counted.into_iter().map(pair).collect()]
        } else {
            // The bitmap plan counts every level of its priced chain from
            // pass 3 on, every other counter one level: the chain capped at
            // `pass`.
            let prev_sets: Vec<Itemset> = prev.iter().map(|(s, _)| s.clone()).collect();
            let chained = plan == Phase2Plan::Bitmap && pass >= 3;
            let (lines, cap) = (file.num_lines(), if chained { 0 } else { pass });
            let (chain, units) =
                chained_levels(&prev_sets, pass, cap, ctx.cluster(), lines, splits);
            let generated: usize = chain.iter().map(Vec::len).sum();
            metrics.advance_with_event(
                cost.cpu(units + generated as u64),
                EventKind::Driver,
                "ap_gen",
            );
            let Some(candidates) = chain.first().cloned() else {
                break;
            };
            match plan {
                Phase2Plan::Paper => {
                    let store = Box::new(HashTree::build(candidates));
                    vec![pass_with_store(ctx, &work, projects, store, min_sup)]
                }
                Phase2Plan::Trie => {
                    let store = Box::new(CandidateTrie::build(candidates));
                    vec![pass_with_store(ctx, &work, projects, store, min_sup)]
                }
                Phase2Plan::Bitmap => {
                    let cols = columnar.get_or_insert_with(|| columnar_of(&work));
                    metrics.advance_with_event(
                        cost.cpu(generated as u64),
                        EventKind::Driver,
                        "broadcast candidate list",
                    );
                    metrics.note_engine(&EngineCounters {
                        bitmap_passes: chain.len() as u64,
                        bitmap_candidates_counted: generated as u64,
                        ..EngineCounters::default()
                    });
                    let noted = metrics.clone();
                    let lists = chain.iter().map(|level| CandidateList::new(level));
                    let bc = ctx.broadcast(Lists(lists.collect()));
                    let (lists, cand_bytes) = (bc.value(), bc.bytes());
                    let sizes: Vec<usize> = chain.iter().map(Vec::len).collect();
                    let counted =
                        count_pass(cols, true, generated, min_sup, move |acc, cols, tc| {
                            tc.note_broadcast_read(cand_bytes);
                            // Each partition into a fresh array, every level's
                            // cells after the previous level's, read back one
                            // record per nonzero support.
                            let mut scratch = BitmapScratch::default();
                            let (mut words, mut cells) = (0u64, 0u64);
                            for col in cols {
                                cells += fold_fresh(acc, |mut fresh| {
                                    for (list, &size) in lists.0.iter().zip(&sizes) {
                                        let (cells, rest) = fresh.split_at_mut(size);
                                        words += col.count_list(list, &mut scratch, cells).0;
                                        fresh = rest;
                                    }
                                });
                            }
                            tc.add_cpu(words * JVM_BITMAP_WORD_UNITS + cells);
                            noted.note_engine(&EngineCounters {
                                bitmap_words_intersected: words,
                                ..EngineCounters::default()
                            });
                            cells
                        });
                    // Cell `idx` is candidate `idx` of the levels laid end
                    // to end.
                    let all: Vec<&Itemset> = chain.iter().flatten().collect();
                    let mut split = vec![Vec::new(); chain.len()];
                    for (idx, c) in counted {
                        let set = all[idx as usize].clone();
                        split[set.len() - pass].push((set, c));
                    }
                    split
                }
            }
        };
        if let Some(old) = replaced.take() {
            old.unpersist();
        }
        let n_counted = counted.len();
        let mut kept: Vec<_> = counted
            .into_iter()
            .take_while(|lk| !lk.is_empty())
            .collect();
        kept.iter_mut()
            .for_each(|lk| lk.sort_by(|a, b| a.0.cmp(&b.0)));
        if kept.len() < n_counted {
            levels.extend(kept);
            break;
        }
        let last = pass + n_counted - 1;

        if projects && columnar.is_none() {
            let lk = &kept[n_counted - 1];
            let mask = TrimMask::from_frequent(n_dense, lk);
            metrics.advance_with_event(
                cost.cpu((lk.len() * last) as u64 + n_dense as u64),
                EventKind::Projection,
                "trim plan",
            );
            let keep = ctx.broadcast(mask).value();
            let min_len = last + 1;
            let trimmed = work
                .map(move |mut t| {
                    t.retain(|&r| keep.keep[r as usize]);
                    t
                })
                .filter(move |t| t.len() >= min_len)
                .cache();
            replaced = Some(std::mem::replace(&mut work, trimmed));
        }
        levels.extend(kept);
        pass = last + 1;
    }
    for rdd in replaced.iter().chain([&work, &transactions]) {
        rdd.unpersist();
    }
    if let Some(cols) = &columnar {
        cols.unpersist();
    }

    let decode = |level: Vec<(Itemset, u64)>| match &encoder {
        Some(enc) => {
            let sets = level.into_iter();
            sets.map(|(s, c)| (enc.decode_itemset(&s), c)).collect()
        }
        None => level,
    };
    MiningResult::from_levels(levels.into_iter().map(decode).collect())
}

/// Everything a run leaves behind that the model can see, with the one
/// counter the blocks are allowed to move zeroed.
fn left_behind(ctx: &Context) -> String {
    let mut snapshot = ctx.metrics().snapshot();
    snapshot.profile.bytes_materialized = 0;
    let cache = ctx.cache().stats();
    assert_eq!((cache.entries, cache.used_bytes), (0, 0), "all released");
    format!(
        "{:#x} {snapshot:?} {cache:?}",
        snapshot.now.as_secs().to_bits()
    )
}

/// Both pipelines over `lines` (put into HDFS as they are) under every
/// plan at 1, 2 and 8 pool threads, against sequential Apriori over the
/// lines that hold items.
fn assert_parity(name: &str, lines: &[String], support: Support) -> MiningResult {
    let reference = {
        // MinSup is a share of the *lines*, as the driver resolves it.
        let min_sup = Support::Count(support.resolve(lines.len() as u64));
        apriori(&from_lines(lines), min_sup)
    };
    for plan in Phase2Plan::ALL {
        let mut first: Option<String> = None;
        for threads in [1, 2, 8] {
            let label = format!("{name}, {plan:?}, {threads} threads");
            let context = || {
                let spec = ClusterSpec::new(4, 2, 1 << 30);
                let cluster = SimCluster::with_threads(spec, CostModel::hadoop_era(), threads);
                cluster.hdfs().put_overwrite(INPUT, lines.to_vec());
                Context::new(cluster)
            };
            let old = context();
            assert_eq!(per_record_mine(&old, support, plan), reference, "{label}");
            let new = context();
            let run = Yafim::new(new.clone(), YafimConfig::with_plan(support, plan))
                .mine(INPUT)
                .expect("written");
            assert_eq!(run.result, reference, "{label}");
            let expected = first.get_or_insert_with(|| left_behind(&old));
            assert_eq!(&left_behind(&old), expected, "{label}: the oracle moved");
            assert_eq!(&left_behind(&new), expected, "{label}: blocks moved it");
        }
    }
    reference
}

/// A line of `items` the way a hostile file would spell it.
fn noisy(rng: &mut StdRng, items: &[Item]) -> String {
    let mut line = String::new();
    for &item in items {
        match rng.gen_range(0..6u32) {
            0 => line.push_str(&format!("+{item}\t")),
            1 => line.push_str(&format!("{item} x{item} ")),
            2 => line.push_str(&format!("00{item} {item}  ")),
            _ => line.push_str(&format!("{item} ")),
        }
    }
    if rng.gen_range(0..3u32) == 0 {
        line.push_str("\u{a0} 4294967296 -1");
    }
    line
}

/// Seeded baskets over a few hot items (some of them at the top of the id
/// range) and a long cold tail, unsorted, noisy, with blank lines and
/// lines of junk between them.
fn seeded_lines(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot: Vec<Item> = vec![0, 3, 7, 19, 40_000, u32::MAX - 1, u32::MAX];
    (0..n)
        .map(|_| match rng.gen_range(0..12u32) {
            0 => String::new(),
            1 => "  \t x -3 1e9".to_string(),
            // Cold items only: a transaction with no frequent item.
            2 => format!("{} {}", rng.gen_range(100_000..200_000u32), u32::MAX - 2),
            _ => {
                let mut items: Vec<Item> = hot
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_range(0..3u32) > 0)
                    .collect();
                items.push(rng.gen_range(50..5_000u32));
                items.reverse();
                noisy(&mut rng, &items)
            }
        })
        .collect()
}

#[test]
fn seeded_noisy_inputs_mine_and_cost_as_the_per_record_pipeline_did() {
    for (seed, n, support) in [
        (20, 400, Support::Fraction(0.2)),
        (21, 150, Support::Fraction(0.1)),
        (22, 90, Support::Count(9)),
    ] {
        let lines = seeded_lines(seed, n);
        assert!(from_lines(&lines).len() < lines.len(), "blank lines stay");
        let result = assert_parity(&format!("seed {seed}"), &lines, support);
        assert!(result.max_len() >= 3, "seed {seed}: k >= 3 passes must run");
        let top = Itemset::single(u32::MAX);
        assert!(result.support_of(&top).is_some(), "u32::MAX is frequent");
    }
}

#[test]
fn more_partitions_than_lines_and_nothing_frequent() {
    // 16 partitions by default on this cluster; five lines, two of them
    // without items.
    let lines: Vec<String> = ["1 2 3", "", "2 3 4", "x", "1 2 3 4"]
        .map(String::from)
        .into();
    let result = assert_parity("five lines", &lines, Support::Count(2));
    assert_eq!(result.level_sizes(), vec![4, 5, 2]);
    // Half of five lines is three of them: the two without items count
    // towards |D|, so 1 and 4 (in two of the three that have any) fall out.
    let result = assert_parity("five lines, 50 %", &lines, Support::Fraction(0.5));
    assert_eq!(result.level_sizes(), vec![2, 1]);
    assert_eq!(
        assert_parity("too high", &lines, Support::Count(4)).total(),
        0
    );
    // |L1| = 1: the projecting plans have no pair to count.
    let result = assert_parity("one item", &["7 8".into(), "7".into()], Support::Count(2));
    assert_eq!(result.level_sizes(), vec![1]);
}

/// The shape ROADMAP item 6 left open.
#[test]
fn one_ten_thousand_item_transaction_beside_two_short_ones() {
    let long: Vec<String> = (0..10_000u32).map(|i| (i * 3).to_string()).collect();
    let lines = vec![
        long.join(" "),
        "3 6 9 12".to_string(),
        "6 9 12 15".to_string(),
    ];
    let result = assert_parity("10 000 items", &lines, Support::Count(2));
    // {3, 6, 9, 12, 15} all reach 2; {3, 15} is the one pair that does not.
    assert_eq!(result.level_sizes(), vec![5, 9, 7, 2]);
}

#[test]
fn an_empty_file_mines_to_nothing_under_every_plan() {
    // One split with zero lines; MinSup resolves against zero lines.
    assert_eq!(
        assert_parity("empty", &[], Support::Fraction(0.5)).total(),
        0
    );
    assert_eq!(
        assert_parity("blank", &[String::new()], Support::Count(1)).total(),
        0
    );
}

/// Pass 1 counts a partition by index when its largest id is below its own
/// item count and through a map otherwise. Up to 16 lines are a partition
/// each, 32 are two to a partition: both sides of the guard, one id apart,
/// side by side in one job.
#[test]
fn pass_one_counts_by_index_or_by_map_on_either_side_of_its_guard() {
    // `top = items - 1`, `top = items`, and the widest row there is.
    let lines = ["0 1 2 3", "0 1 2 4", "0 4294967295"].map(String::from);
    let result = assert_parity("a row each", &lines, Support::Count(2));
    assert_eq!(result.level_sizes(), vec![3, 3, 1]);
    let top = Itemset::single(u32::MAX);
    let result = assert_parity("a row each, minsup 1", &lines, Support::Count(1));
    assert_eq!(result.support_of(&top), Some(1));

    let lines: Vec<String> = (0..16)
        .flat_map(|p| ["0 1 2", ["1 2 5", "1 2 6"][p % 2]])
        .map(String::from)
        .collect();
    let result = assert_parity("two rows each", &lines, Support::Count(8));
    assert_eq!(result.level_sizes(), vec![5, 7, 3]);
}
