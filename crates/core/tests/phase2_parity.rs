//! Phase-II hot-path invariance: every [`Phase2Plan`] must produce
//! *byte-identical* mining output to both the sequential reference and the
//! paper-faithful (hash tree, untrimmed) engine — identical itemsets and
//! supports, identical per-level sizes. `opt` and `bitmap` count, of the
//! paper's candidates, those whose support bound reaches MinSup (an oracle
//! here computes the bound from the paper run's levels); the bitmap plan
//! counts Phase II's tail in combined jobs, each of which covers the
//! paper's passes it starts at and spans. Only virtual seconds may differ.
//!
//! The optimizations rest on two invariance arguments (DESIGN.md §"Candidate
//! matching & dataset trimming"): monotone dense re-encoding is a bijection
//! on the frequent-itemset lattice, and DHP-style trimming only removes
//! items/transactions that Apriori monotonicity proves can never contribute
//! to a later frequent itemset. This suite is the executable form of those
//! arguments, including under injected node loss, where the projected and
//! trimmed RDDs must recompute through lineage.

use std::alloc::{GlobalAlloc, Layout, System};
use yafim_cluster::PassTiming;
use yafim_cluster::{
    ClusterSpec, CostModel, FaultPlan, NodeId, SimCluster, SimDuration, SimInstant,
};
use yafim_core::{
    ap_gen, apriori, mine_in_memory, Item, Itemset, MinerRun, Phase2Plan, Support, Yafim,
    YafimConfig,
};
use yafim_data::{to_lines, PaperDataset, QuestConfig, QuestGenerator};
use yafim_rdd::Context;

/// No test here allocates this much at once; an array indexed by an item id
/// near `u32::MAX` would (a bitset over such ids takes 512 MiB).
const ALLOCATION_CAP: usize = 1 << 28;

/// The system allocator, refusing any single request of [`ALLOCATION_CAP`]
/// bytes or more: the test binary aborts ("memory allocation of N bytes
/// failed") before such memory is committed.
struct Capped;

// SAFETY: every call is `System`'s, or a null (refused) allocation, which
// the `GlobalAlloc` contract allows.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= ALLOCATION_CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's contract for `layout` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= ALLOCATION_CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= ALLOCATION_CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from this allocator, so from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Capped = Capped;

fn cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 2)
}

/// 4 nodes of 2 cores, 4 pool threads, for in-memory runs.
fn ctx() -> Context {
    let spec = ClusterSpec::new(4, 2, 1 << 30);
    Context::new(SimCluster::with_threads(spec, CostModel::hadoop_era(), 4))
}

fn run(tx: &[Vec<u32>], support: Support, phase2: Phase2Plan) -> MinerRun {
    let c = cluster();
    c.hdfs().put_overwrite("d.dat", to_lines(tx));
    let run = Yafim::new(
        Context::new(c.clone()),
        YafimConfig::with_plan(support, phase2),
    )
    .mine("d.dat")
    .expect("written");
    // A pass is the paper's two stages, or the one stage of an aggregate
    // when the plan projects, pass 1 included: such a plan shuffles nothing.
    let passes = run.passes.len() as u64;
    let snapshot = c.metrics().snapshot();
    if phase2 == Phase2Plan::Paper {
        assert_eq!(snapshot.stages, 2 * passes, "{phase2:?}");
    } else {
        assert_eq!(snapshot.stages, passes, "{phase2:?}");
        assert_eq!(snapshot.profile.shuffle_write_bytes, 0, "{phase2:?}");
    }
    run
}

/// How many of the paper's `C_k` a projecting plan counts: those whose
/// support bound, written out here from its definition over the paper's
/// levels, reaches `min_sup`. For `c = X ∪ {a, y1, y2}` (its last three
/// items) the bound is `σ(Xay1) + σ(Xay2) + σ(Xy1y2) − σ(Xa) − σ(Xy1) −
/// σ(Xy2) + σ(X)`, `σ(∅)` the line count; passes 1 and 2 have none.
fn bounded_candidates(paper: &MinerRun, pass: &PassTiming, lines: u64, min_sup: u64) -> usize {
    if pass.pass < 3 {
        return pass.candidates;
    }
    let below: Vec<Itemset> = paper
        .result
        .level(pass.pass - 1)
        .iter()
        .map(|(s, _)| s.clone())
        .collect();
    let (candidates, _) = ap_gen(&below);
    assert_eq!(
        candidates.len(),
        pass.candidates,
        "the paper's C_{}",
        pass.pass
    );
    let sigma = |x: &[Item], extra: &[Item]| -> i128 {
        let set = Itemset::new(x.iter().chain(extra).copied().collect());
        match set.len() {
            0 => lines.into(),
            _ => paper
                .result
                .support_of(&set)
                .expect("a subset of a candidate is frequent")
                .into(),
        }
    };
    let kept = candidates.iter().filter(|c| {
        let (x, last) = c.items().split_at(c.len() - 3);
        let [a, y1, y2] = [last[0], last[1], last[2]];
        let ub = sigma(x, &[a, y1]) + sigma(x, &[a, y2]) + sigma(x, &[y1, y2])
            - sigma(x, &[a])
            - sigma(x, &[y1])
            - sigma(x, &[y2])
            + sigma(x, &[]);
        ub >= i128::from(min_sup)
    });
    kept.count()
}

/// `other`, a run of `plan` over `lines` lines at `min_sup`, against the
/// paper engine's run: the same itemsets and level sizes; every job starts
/// at one of the paper's passes and finds what the paper's passes it spans
/// found. A one-level job of a projecting plan counts exactly the paper's
/// candidates that survive the support bound ([`bounded_candidates`]), and
/// at least what it finds. A job that counted several levels (the bitmap
/// plan's chain) counts at least that many of its first level and the
/// paper's candidates of the rest: its later levels are chained from
/// candidate levels, a superset of the frequent ones. The run may stop
/// before the paper's last pass only where the bound dropped every one of
/// that pass's candidates.
fn assert_identical(
    paper: &MinerRun,
    other: &MinerRun,
    plan: Phase2Plan,
    (lines, min_sup): (u64, u64),
    label: &str,
) {
    assert_eq!(
        paper.result, other.result,
        "{label}: itemsets/supports differ"
    );
    assert_eq!(
        paper.result.level_sizes(),
        other.result.level_sizes(),
        "{label}: level sizes differ"
    );
    let expected = |p: &PassTiming| match plan {
        Phase2Plan::Paper => p.candidates,
        _ => bounded_candidates(paper, p, lines, min_sup),
    };
    let mut next = paper.passes.iter().peekable();
    for o in &other.passes {
        assert_eq!(next.peek().map(|p| p.pass), Some(o.pass), "{label}: {o:?}");
        let spanned: Vec<_> = std::iter::from_fn(|| next.next_if(|p| p.pass <= o.last)).collect();
        let frequent: usize = spanned.iter().map(|p| p.frequent).sum();
        assert_eq!(o.frequent, frequent, "{label}: {o:?} against {spanned:?}");
        let first = expected(spanned[0]);
        if o.last == o.pass {
            assert_eq!(o.candidates, first, "{label}: pass {} candidates", o.pass);
            assert!(o.candidates >= o.frequent, "{label}: {o:?}");
            continue;
        }
        assert_eq!(plan, Phase2Plan::Bitmap, "{label}: combined passes");
        let rest: usize = spanned[1..].iter().map(|p| p.candidates).sum();
        assert!(
            o.candidates >= first + rest,
            "{label}: {o:?} against {spanned:?}"
        );
    }
    let uncounted: Vec<_> = next.collect();
    assert!(
        uncounted.len() <= 1 && uncounted.iter().all(|p| expected(p) == 0),
        "{label}: passes past the last job: {uncounted:?}"
    );
}

#[test]
fn every_phase2_plan_is_invisible_on_quest_data() {
    // Small dense QUEST-style instances with long patterns → 4-5 passes,
    // exercising triangle (pass 2), hash tree (k ≥ 3) and repeated trimming.
    for seed in [7u64, 99, 4242] {
        let tx = QuestGenerator::new(QuestConfig {
            transactions: 400,
            items: 60,
            avg_transaction_len: 8.0,
            avg_pattern_len: 4.0,
            patterns: 12,
            correlation: 0.25,
            keep_fraction: 0.7,
            seed,
        })
        .generate();
        let support = Support::Fraction(0.03);
        let reference = apriori(&tx, support);
        let paper = run(&tx, support, Phase2Plan::Paper);
        assert_eq!(
            reference, paper.result,
            "seed {seed}: paper engine vs sequential"
        );
        assert!(
            paper.result.max_len() >= 3,
            "seed {seed}: workload too shallow to exercise k ≥ 3 matching"
        );

        let bound = (tx.len() as u64, support.resolve(tx.len() as u64));
        for plan in Phase2Plan::ALL {
            let r = run(&tx, support, plan);
            assert_identical(&paper, &r, plan, bound, &format!("seed {seed}, {plan:?}"));
            if plan == Phase2Plan::Projected {
                let tail = r.passes.iter().filter(|p| p.pass >= 3);
                let counters: Vec<&str> = tail.map(|p| p.counter).collect();
                assert!(!counters.is_empty(), "seed {seed}: no k ≥ 3 pass");
                assert!(
                    counters.iter().all(|&c| c == "hash tree"),
                    "seed {seed}: {counters:?}"
                );
            }
        }
    }
}

#[test]
fn every_phase2_plan_is_invisible_on_medical_data() {
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let reference = apriori(&tx, support);
    let paper = run(&tx, support, Phase2Plan::Paper);
    assert_eq!(reference, paper.result);

    let bound = (tx.len() as u64, support.resolve(tx.len() as u64));
    for plan in Phase2Plan::ALL {
        let r = run(&tx, support, plan);
        assert_identical(&paper, &r, plan, bound, &format!("{plan:?}"));
        let combined = r.passes.iter().any(|p| p.last > p.pass);
        assert_eq!(
            combined,
            plan == Phase2Plan::Bitmap,
            "{plan:?}: {:?}",
            r.passes
        );
    }
}

#[test]
fn ids_next_to_u32_max_mine_under_every_plan_without_an_id_sized_allocation() {
    // Six lines over sixteen partitions, every id within 1 000 of
    // `u32::MAX`: a count array indexed by id would take 32 GiB, and
    // `ALLOCATION_CAP` aborts the binary long before that.
    let top = |below: u32| u32::MAX - below;
    let tx = vec![
        vec![top(999), top(500), top(1)],
        vec![top(999), top(1), top(0)],
        vec![top(500), top(1), top(0)],
        vec![top(999), top(500), top(1), top(0)],
        vec![],
        vec![top(2)],
    ];
    let support = Support::Count(2);
    let reference = apriori(&tx, support);
    assert_eq!(reference.level_sizes(), vec![4, 6, 3]);
    for plan in Phase2Plan::ALL {
        assert_eq!(run(&tx, support, plan).result, reference, "{plan:?}");
    }
}

#[test]
fn optimized_path_survives_node_loss() {
    // Losing a node drops its cached partitions — including the projected
    // and trimmed RDDs, which must then recompute through their narrow
    // lineage (raw HDFS read → parse → encode → trims) without changing a
    // single count.
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let reference = apriori(&tx, support);

    for seed in 0..4u64 {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(
            FaultPlan::seeded(seed)
                .crash_tasks(0.1)
                .with_max_task_failures(10)
                .lose_node_at(
                    NodeId((seed % 4) as u32),
                    SimInstant::EPOCH + SimDuration::from_secs(1.0 + seed as f64 * 0.7),
                )
                .slow_node(NodeId(((seed + 2) % 4) as u32), 3.0)
                .with_speculation(),
        );
        let opt = Yafim::new(
            Context::new(c.clone()),
            YafimConfig::with_plan(support, Phase2Plan::Projected),
        )
        .mine("d.dat")
        .expect("below-budget faults must not abort the job");
        assert_eq!(
            reference, opt.result,
            "seed {seed}: node loss changed optimized-path results"
        );
        let rec = c.metrics().snapshot().recovery;
        assert!(rec.any(), "seed {seed}: the plan must actually fire");
        assert_eq!(rec.nodes_lost, 1, "seed {seed}");
    }
}

#[test]
fn node_loss_at_every_pass_boundary_is_invisible() {
    // Kill a node just after each pass boundary, under every plan, with
    // checkpointing off and on (intervals 1 and 2, supplied through the
    // fault plan). Whatever the recovery path — lineage replay back to HDFS
    // or a bounded re-read of checkpoint blocks — itemsets and supports must
    // be byte-identical to the sequential reference every time.
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let reference = apriori(&tx, support);

    for plan in Phase2Plan::ALL {
        let name = plan.name();
        // A clean run maps pass number → cumulative virtual seconds, so
        // each loss lands just after "its" pass completed.
        let clean = run(&tx, support, plan);
        assert_eq!(reference, clean.result, "{name}: clean run");
        let mut cum = 0.0;
        let boundaries: Vec<f64> = clean
            .passes
            .iter()
            .map(|p| {
                cum += p.seconds;
                cum
            })
            .collect();

        for (k, &boundary) in boundaries.iter().enumerate() {
            for ckpt in [0usize, 1, 2] {
                let c = cluster();
                c.hdfs().put_overwrite("d.dat", to_lines(&tx));
                c.faults().set_plan(
                    FaultPlan::seeded(k as u64)
                        .lose_node_at(
                            NodeId((k % 4) as u32),
                            SimInstant::EPOCH + SimDuration::from_secs(boundary + 1e-3),
                        )
                        .with_checkpoint_interval(ckpt),
                );
                let r = Yafim::new(
                    Context::new(c.clone()),
                    YafimConfig::with_plan(support, plan),
                )
                .mine("d.dat")
                .expect("single node loss stays below the retry budget");
                assert_eq!(
                    reference,
                    r.result,
                    "{name}: loss after pass {} (ckpt interval {ckpt}) changed results",
                    k + 1
                );
                // A checkpoint is written after every `ckpt`-th Phase-II job
                // that a later job reading the transactions follows. The
                // bitmap plan's second Phase-II job (passes 3-8) builds the
                // columnar store every later job would count from: it is the
                // last to read them.
                let readers = match plan {
                    Phase2Plan::Bitmap => 2,
                    _ => clean.passes.len() - 1,
                };
                let due = ckpt != 0 && ckpt < readers;
                let rec = c.metrics().snapshot().recovery;
                assert_eq!(
                    rec.checkpoint_writes > 0,
                    due,
                    "{name}: interval {ckpt} run checkpoints only what a later job reads"
                );
            }
        }
    }
}

#[test]
fn silent_corruption_is_invisible_to_every_engine() {
    // Scenario-D parity: corrupt each storage tier (shuffle map outputs
    // where the plan shuffles, cached partitions — which for the bitmap
    // engine include the columnar bitset blocks — and HDFS replicas) under
    // every engine flavor. The integrity layer must detect and repair every
    // injected corruption, and results must stay byte-identical to the
    // sequential reference.
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let reference = apriori(&tx, support);

    type Corrupt = fn(FaultPlan, f64) -> FaultPlan;
    let tiers: [(&str, Corrupt); 3] = [
        ("shuffle", |p, r| p.corrupt_shuffle(r)),
        ("cache", |p, r| p.corrupt_cache(r)),
        ("hdfs", |p, r| p.corrupt_hdfs(r)),
    ];
    for plan in Phase2Plan::ALL {
        let name = plan.name();
        for (tier, corrupt) in &tiers {
            let c = cluster();
            c.hdfs().put_overwrite("d.dat", to_lines(&tx));
            c.faults().set_plan(corrupt(FaultPlan::seeded(11), 0.25));
            let r = Yafim::new(
                Context::new(c.clone()),
                YafimConfig::with_plan(support, plan),
            )
            .mine("d.dat")
            .expect("repairable corruption must not abort the job");
            assert_eq!(
                reference, r.result,
                "{name}: {tier} corruption changed results"
            );
            let snapshot = c.metrics().snapshot();
            if *tier == "shuffle" && plan != Phase2Plan::Paper {
                // Every pass of a projecting plan aggregates: no shuffle
                // block exists to corrupt.
                assert_eq!(snapshot.profile.shuffle_write_bytes, 0, "{name}");
                continue;
            }
            let i = snapshot.recovery.integrity;
            assert!(
                i.corruptions_injected > 0,
                "{name}: {tier} plan must actually corrupt something"
            );
            assert_eq!(
                i.corruptions_detected, i.corruptions_injected,
                "{name}: {tier}: every injected corruption must be detected"
            );
            assert_eq!(
                i.corruptions_repaired, i.corruptions_detected,
                "{name}: {tier}: every detected corruption must be repaired"
            );
        }
    }
}

#[test]
fn optimized_path_is_deterministic_under_faults() {
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let mut observed = Vec::new();
    for _ in 0..2 {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(
            FaultPlan::seeded(3)
                .crash_tasks(0.1)
                .with_max_task_failures(10)
                .with_speculation(),
        );
        let run = Yafim::new(
            Context::new(c.clone()),
            YafimConfig::with_plan(support, Phase2Plan::Projected),
        )
        .mine("d.dat")
        .expect("below budget");
        observed.push((
            run.result,
            run.total_seconds,
            c.metrics().snapshot().recovery,
        ));
    }
    assert_eq!(
        observed[0], observed[1],
        "same fault seed must reproduce the optimized run bit-for-bit"
    );
}

#[test]
fn bitmap_virtual_time_not_slower_than_hash_tree_on_dense_data() {
    // A dense workload with deep passes: every k >= 3 pass is pure
    // word-wise counting, which the cost model must see as cheaper
    // than hash-tree descent per transaction.
    let tx: Vec<Vec<Item>> = (0..400)
        .map(|i| {
            let mut t: Vec<Item> = (0..10).map(|j| ((i + j * 3) % 14) as u32).collect();
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect();
    let tree = mine_in_memory(
        &Context::new(cluster()),
        &tx,
        YafimConfig::with_plan(Support::Fraction(0.05), Phase2Plan::Projected),
    );
    let bm = mine_in_memory(
        &Context::new(cluster()),
        &tx,
        YafimConfig::bitmap(Support::Fraction(0.05)),
    );
    assert_eq!(tree.result, bm.result);
    assert!(
        bm.result.max_len() >= 3,
        "workload must exercise bitmap passes"
    );
    assert!(
        bm.total_seconds <= tree.total_seconds,
        "bitmap {} s vs hash tree {} s",
        bm.total_seconds,
        tree.total_seconds
    );
}

#[test]
fn optimized_virtual_time_not_slower_than_paper_engine() {
    // On a pass-2-heavy workload the dense/triangle/trim path must pay
    // off in virtual time too (the cost model sees fewer, cheaper
    // touches).
    let tx: Vec<Vec<Item>> = (0..800)
        .map(|i| {
            let mut t: Vec<Item> = (0..6).map(|j| ((i * 7 + j * 13) % 40) as u32).collect();
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect();
    let paper = mine_in_memory(
        &Context::new(cluster()),
        &tx,
        YafimConfig::new(Support::Fraction(0.02)),
    );
    let opt = mine_in_memory(
        &Context::new(cluster()),
        &tx,
        YafimConfig::with_plan(Support::Fraction(0.02), Phase2Plan::Projected),
    );
    assert_eq!(paper.result, opt.result);
    assert!(
        opt.total_seconds <= paper.total_seconds,
        "optimized {} s vs paper {} s",
        opt.total_seconds,
        paper.total_seconds
    );
}

#[test]
fn a_job_whose_first_level_is_all_infrequent_costs_at_most_one_launch_more() {
    // Every pair of {1, 2, 3, 4} twice, no triple, and eight empty lines:
    // pass 3's four triples are all infrequent, but the support bound cannot
    // tell (`σ(∅) = 20` puts each at 2 + 2 + 2 − 6 − 6 − 6 + 20 = 2), and
    // the bitmap plan's chain counts pass 4's one quadruple with them unless
    // `max_passes` stops it.
    let pairs = (1..=4u32).flat_map(|a| (a + 1..=4).map(move |b| vec![a, b]));
    let mut tx: Vec<Vec<Item>> = pairs.flat_map(|pair| [pair.clone(), pair]).collect();
    tx.extend(vec![Vec::new(); 8]);
    let [one, chained] = [3, 0].map(|max_passes| {
        let config = YafimConfig {
            max_passes,
            ..YafimConfig::bitmap(Support::Count(2))
        };
        mine_in_memory(&ctx(), &tx, config)
    });
    assert_eq!(one.result, chained.result);
    let last = |run: &MinerRun| run.passes.last().map(|p| (p.pass, p.last, p.frequent));
    assert_eq!(
        (last(&one), last(&chained)),
        (Some((3, 3, 0)), Some((3, 4, 0)))
    );
    let cost = CostModel::hadoop_era();
    let launch = cost.spark_job_overhead + cost.spark_stage_overhead;
    let extra = chained.total_seconds - one.total_seconds;
    assert!((0.0..=launch).contains(&extra), "{extra} s over one launch");
}
