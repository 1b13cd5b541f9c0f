//! Chaos harness: run YAFIM and MR-Apriori under identical deterministic
//! fault plans and verify that recovery changes *when* things finish, never
//! *what* they compute.
//!
//! The scenarios, all seeded and bit-for-bit reproducible (D, the silent
//! corruption sweep, is described at [`scenario_d`]):
//!
//! * **A — node loss mid-Phase-II**: a node dies halfway through pass 2,
//!   taking its cached partitions and shuffle map outputs (YAFIM) or its
//!   completed map outputs (MR) with it. Both engines must produce results
//!   byte-identical to the fault-free run, paying only extra virtual time.
//! * **B — flaky tasks + a straggler node**: background task crashes with
//!   bounded retries, one node degraded 3×, speculative execution on.
//! * **C — checkpoint cadence vs lineage replay**: the optimized Phase-II
//!   trims its working RDD every pass, so lineage grows one level per pass
//!   and a node lost after pass k forces a ~k-level replay back to HDFS.
//!   Checkpointing every c passes caps the replay at the blocks written at
//!   most c passes ago, no matter how late the loss lands. The harness
//!   loses a node during *every* pass, with checkpointing off and on, and
//!   asserts the measured max replay depth stays within the cadence-derived
//!   bound (and that results never move).
//! * **E — memory governor sweep**: budget × matcher × engine over the
//!   wide-alphabet T10I4D100K (whose candidate structures are big enough
//!   to overflow a tight node budget). Every cell must mine byte-identical
//!   itemsets to its unconstrained baseline while the sweep as a whole
//!   exercises every rung of the degradation ladder — combine-buffer
//!   spills, matcher step-downs, OOM kill-and-retry — and two
//!   starved-beyond-use cells must end in a typed admission refusal.
//!
//! [`chaos`] returns scenarios A–D's report and the manifest of D's
//! representative run, [`chaos_e`] scenario E's. Everything is seeded
//! ([`SEED`]) and runs at one size ([`SCALE`]), so both regenerate
//! bit-identically.

use yafim_bench::{bench_dataset, loaded_cluster, run};
use yafim_cluster::json::JsonValue;
use yafim_cluster::{
    critical_path, full_report, fx_hash64, ClusterSpec, ExecError, FaultPlan, IntegrityTier,
    MemoryCounters, NodeId, PassTiming, RecoveryCounters, RunManifest, SimCluster, SimDuration,
    SimInstant,
};
use yafim_core::{MineError, Miner, MinerRun, Phase2Plan};
use yafim_data::PaperDataset;
use yafim_rdd::Context;

/// Scenario C checkpoints the working RDD every this many Phase-II passes.
const CKPT_INTERVAL: usize = 2;

/// The paper's pair, under the names the reports print.
const ENGINES: [(&str, Miner); 2] = [
    ("YAFIM", Miner::Spark(Phase2Plan::Paper)),
    ("MR-Apriori", Miner::MapReduce),
];

/// Seed of every fault plan in the committed reports.
const SEED: u64 = 42;

/// Dataset scale of every scenario.
const SCALE: f64 = 0.25;

/// Scenarios A–D on MushRoom.
pub(crate) fn chaos() -> (String, RunManifest) {
    let data = bench_dataset(PaperDataset::Mushroom, SCALE);
    let mut out = String::new();

    say!(
        out,
        "== chaos: deterministic fault injection (seed {SEED}) =="
    );
    say!(
        out,
        "dataset {} at scale {SCALE}, support {:?}\n",
        data.name,
        data.support
    );

    for (engine, miner) in ENGINES {
        // Fault-free baseline: reference results, makespan, and the virtual
        // instant halfway through pass 2 (mid-Phase-II) for the node loss.
        let (base_run, base_cluster) = mine(miner, &data, None);
        let t_loss = pass2_midpoint(&base_cluster).unwrap_or(base_run.total_seconds * 0.5);
        say!(out, "-- {engine} --");
        say!(
            out,
            "fault-free: {} itemsets in {:.2} virtual s",
            base_run.result.total(),
            base_run.total_seconds
        );

        // A: lose the node holding the input's primary block replica (the
        // data-local node — it owns cached partitions and map outputs)
        // mid-Phase-II. HDFS placement is deterministic, so the victim is
        // the same node in every run.
        let victim = base_cluster
            .hdfs()
            .get("input.dat")
            .expect("loaded")
            .blocks()[0]
            .replicas[0];
        let plan_a = FaultPlan::seeded(SEED)
            .lose_node_at(victim, SimInstant::EPOCH + SimDuration::from_secs(t_loss));
        let (run_a, cluster_a) = mine(miner, &data, Some(plan_a));
        assert_eq!(
            base_run.result, run_a.result,
            "{engine}: node loss changed mining results"
        );
        let rec_a = cluster_a.metrics().snapshot().recovery;
        say!(
            out,
            "A {victim} lost at {t_loss:.2}s (mid pass 2): results identical, \
             {:.2} virtual s (+{:.2}s recovery)",
            run_a.total_seconds,
            run_a.total_seconds - base_run.total_seconds
        );
        print_counters(&mut out, &rec_a);
        print_recovery_excerpt(&mut out, &cluster_a);

        // B: flaky tasks + one straggler node, speculation on.
        let plan_b = FaultPlan::seeded(SEED)
            .crash_tasks(0.08)
            .with_max_task_failures(10)
            .slow_node(NodeId(2), 3.0)
            .with_speculation();
        let (run_b, cluster_b) = mine(miner, &data, Some(plan_b));
        assert_eq!(
            base_run.result, run_b.result,
            "{engine}: crashes/speculation changed mining results"
        );
        let rec_b = cluster_b.metrics().snapshot().recovery;
        say!(
            out,
            "B crashes 8% + node2 slowed 3x + speculation: results identical, \
             {:.2} virtual s (+{:.2}s recovery)",
            run_b.total_seconds,
            run_b.total_seconds - base_run.total_seconds
        );
        print_counters(&mut out, &rec_b);
        say!(out);
    }

    scenario_c(&mut out, SEED, &data);
    // The cadence bound is a property of the lineage, not of one seed's
    // rolls: assert it under a second seed, whose table is not kept.
    scenario_c(&mut String::new(), 7, &data);
    let sweep = scenario_d(&mut out, SEED, &data);
    say!(
        out,
        "all fault scenarios returned byte-identical mining results"
    );

    // The manifest is captured from scenario D's representative run
    // (YAFIM, every tier corrupted at the top sweep rate) plus sweep
    // totals — all deterministic virtual-time quantities.
    let config_doc = JsonValue::object(vec![
        ("scenario", "D".into()),
        ("engine", "YAFIM".into()),
        ("corruption", "shuffle+cache+hdfs".into()),
        ("rate", CORRUPTION_RATES[CORRUPTION_RATES.len() - 1].into()),
        ("seed", SEED.into()),
    ]);
    let (rep_cluster, rep_itemsets) = sweep.representative.expect("the all-tiers cell ran");
    let mut manifest = RunManifest::capture(
        "chaos",
        "yafim",
        dataset_doc(&data),
        config_doc,
        &rep_cluster,
    );
    manifest.push_metric("chaos.itemsets", rep_itemsets as f64);
    manifest.push_metric("chaos.sweep_runs", sweep.runs as f64);
    manifest.push_metric("chaos.sweep_detected", sweep.detected as f64);
    manifest.push_metric("chaos.sweep_repaired", sweep.repaired as f64);
    (out, manifest)
}

/// Node-memory override for scenario E's pressure cells: small enough that
/// the pass-2 triangle array and the bitmap arena overflow the per-task
/// slice (forcing step-downs and retry-ladder survivals), big enough that
/// the hash-tree floor still fits a fully-backed-off retry.
const E_TIGHT_BUDGET: u64 = 24 * 1024 * 1024;

/// Injected per-acquisition OOM probability for scenario E's OOM cells.
const E_OOM_PROB: f64 = 0.05;

/// Node budget whose per-task slice falls below the spill granule — every
/// admission check must refuse it with a typed error.
const E_REFUSAL_BUDGET: u64 = 256 * 1024;

/// E: memory-governor sweep — budget × matcher × engine. Every budgeted
/// cell must return itemsets byte-identical to its own unconstrained
/// baseline; across the sweep every degradation rung (spill, matcher
/// step-down, OOM kill-and-retry) must fire at least once; and two
/// starved cells must end in a typed admission refusal, never a partial
/// result.
pub(crate) fn chaos_e() -> (String, RunManifest) {
    // T10I4D100K, not the Mushroom set the other scenarios use: its ~850
    // item alphabet makes |C_2| (and so the triangle array and candidate
    // stores) large enough to overflow a tight-but-admissible budget.
    let data = bench_dataset(PaperDataset::T10I4D100K, SCALE);
    let mut out = String::new();
    say!(
        out,
        "== chaos E: memory governor sweep (seed {SEED}) ==\n\
         dataset {} at scale {SCALE}, support {:?}\n\
         budgets: oom = injected OOM at p={E_OOM_PROB} (full node memory), \
         tight = {} MiB per node\n",
        data.name,
        data.support,
        E_TIGHT_BUDGET / (1024 * 1024)
    );
    say!(
        out,
        "{:<20} {:>6} | {:>10} {:>6} {:>9} | {:>8} {:>6} {:>8} | {:>9}",
        "engine/matcher",
        "budget",
        "peak (B)",
        "spills",
        "stepdown",
        "injected",
        "killed",
        "survived",
        "extra(s)"
    );

    let budgets: [(&str, FaultPlan); 2] = [
        ("oom", FaultPlan::seeded(SEED).inject_oom(E_OOM_PROB)),
        (
            "tight",
            FaultPlan::seeded(SEED).with_mem_budget(E_TIGHT_BUDGET),
        ),
    ];
    let miners: [(&str, Miner); 3] = [
        ("YAFIM/hash-tree", Miner::Spark(Phase2Plan::Paper)),
        ("YAFIM/bitmap", Miner::Spark(Phase2Plan::Bitmap)),
        ("MR-Apriori", Miner::MapReduce),
    ];

    // Budgeted cells must complete via the degradation ladder (MapReduce's
    // map-side combine degrades by spilling), so `mine` panics loudly on
    // any typed failure here.
    let mut agg = MemoryCounters::default();
    let (mut cells, mut tight_stepdowns) = (0u64, 0u64);
    let mut representative: Option<(SimCluster, usize)> = None;
    for (mname, miner) in miners {
        let (base, _) = mine(miner, &data, None);
        for (bname, plan) in &budgets {
            let (run, cluster) = mine(miner, &data, Some(plan.clone()));
            assert_eq!(
                base.result, run.result,
                "{mname} under the {bname} budget changed mining results"
            );
            let mem = cell_counters(&cluster, &format!("{mname} {bname}"));
            // A cell steps down exactly when a pass-2 reservation its plan
            // prices (triangle, columnar arena) is over its per-task limit.
            let limit = cluster.memory_budget().map(|b| b.per_task_limit);
            let partitions = Context::new(cluster.clone()).config().default_parallelism;
            let (n_dense, lines) = (base.result.level(1).len(), data.transactions.len());
            let footprint = miner
                .plan()
                .and_then(|plan| plan.pass2_footprint(n_dense, lines, partitions));
            let reserved = footprint.map_or(vec![], |(triangle, arena)| {
                [Some(triangle), arena].into_iter().flatten().collect()
            });
            let over = reserved
                .iter()
                .any(|&bytes| limit.is_some_and(|l| bytes > l));
            assert_eq!(
                mem.degradations > 0,
                over,
                "{mname} under the {bname} budget: pass-2 reservations {reserved:?} against \
                 a per-task limit of {limit:?} B, {} step-downs (the ladder must step down \
                 exactly when one is over)",
                mem.degradations
            );
            if *bname == "tight" {
                tight_stepdowns += mem.degradations;
            }
            agg.merge(&mem);
            cells += 1;
            say!(
                out,
                "{:<20} {:>6} | {:>10} {:>6} {:>9} | {:>8} {:>6} {:>8} | {:>9.2}",
                mname,
                bname,
                mem.peak_execution_bytes,
                mem.spills,
                mem.degradations,
                mem.oom_injected,
                mem.oom_killed,
                mem.oom_survived_by_degradation,
                run.total_seconds - base.total_seconds
            );
            if mname == "YAFIM/bitmap" && *bname == "tight" {
                representative = Some((cluster, run.result.total()));
            }
        }
    }

    // Every rung of the ladder must have fired somewhere in the sweep.
    assert!(
        agg.spills > 0 && agg.spill_bytes > 0,
        "the sweep must exercise the spill rung"
    );
    assert!(
        tight_stepdowns > 0,
        "the tight budget ({} MiB per node) no longer forces a matcher step-down: every \
         cell's pass-2 reservations fit it, so the budget, not the ladder, moved",
        E_TIGHT_BUDGET >> 20
    );
    assert!(
        agg.oom_injected > 0 && agg.oom_killed > 0,
        "the sweep must exercise the OOM kill-and-retry rung"
    );
    assert!(
        agg.oom_survived_by_degradation > 0,
        "some injected OOM must be survived by spilling"
    );
    assert_eq!(
        agg.oom_injected,
        agg.oom_killed + agg.oom_survived_by_degradation,
        "every injected OOM is either killed or survived by degradation"
    );

    // Starved beyond use: a node whose per-task slice is below the spill
    // granule cannot make progress even by streaming through disk, so
    // admission control must refuse the job with a typed error on both
    // engines — never return a partial result.
    let starved = FaultPlan::seeded(SEED).with_mem_budget(E_REFUSAL_BUDGET);
    say!(out);
    let pair = [
        ("YAFIM", Miner::Spark(Phase2Plan::Paper)),
        ("MR", Miner::MapReduce),
    ];
    for (engine, miner) in pair {
        let (spec, plan) = (ClusterSpec::paper(), Some(starved.clone()));
        match run(miner, spec, &data.transactions, data.support, plan) {
            Err(MineError::Exec(ExecError::MemoryRefused { refusal })) => {
                say!(out, "starved ({engine}): {refusal}");
            }
            Err(e) => panic!("expected a memory refusal, got: {e}"),
            Ok(_) => panic!("a {E_REFUSAL_BUDGET}-byte node must be refused at admission"),
        }
    }
    say!(
        out,
        "all {cells} budgeted cells returned byte-identical mining results; \
         ladder: {} spills, {} step-downs, {} OOM injected ({} killed, {} \
         survived by degradation)",
        agg.spills,
        agg.degradations,
        agg.oom_injected,
        agg.oom_killed,
        agg.oom_survived_by_degradation
    );

    // The manifest is captured from the representative cell
    // (YAFIM bitmap matcher under the tight budget — the cell that walks the
    // most ladder rungs) plus sweep totals.
    let (rep_cluster, rep_itemsets) = representative.expect("the bitmap tight cell ran");
    let config_doc = JsonValue::object(vec![
        ("scenario", "E".into()),
        ("engine", "YAFIM".into()),
        ("matcher", "bitmap".into()),
        ("mem_budget_bytes", E_TIGHT_BUDGET.into()),
        ("oom_prob", E_OOM_PROB.into()),
        ("seed", SEED.into()),
    ]);
    let mut manifest = RunManifest::capture(
        "chaos_e",
        "yafim",
        dataset_doc(&data),
        config_doc,
        &rep_cluster,
    );
    manifest.push_metric("chaosE.itemsets", rep_itemsets as f64);
    manifest.push_metric("chaosE.cells", cells as f64);
    manifest.push_metric("chaosE.sweep_spills", agg.spills as f64);
    manifest.push_metric("chaosE.sweep_degradations", agg.degradations as f64);
    manifest.push_metric("chaosE.sweep_oom_injected", agg.oom_injected as f64);
    (out, manifest)
}

/// The `dataset` document of both chaos manifests.
fn dataset_doc(data: &yafim_bench::BenchDataset) -> JsonValue {
    JsonValue::object(vec![
        ("name", data.name.into()),
        ("scale", SCALE.into()),
        ("support", format!("{:?}", data.support).as_str().into()),
    ])
}

/// Read one budgeted cell's memory counters and check the per-cell
/// invariants: OOM bookkeeping balances, spill bytes imply spill events,
/// and the critical-path buckets still sum to the makespan (pressure
/// stalls land in `fault_stall`, not in a leak).
fn cell_counters(cluster: &SimCluster, label: &str) -> MemoryCounters {
    let mem = cluster.metrics().snapshot().recovery.mem;
    assert_eq!(
        mem.oom_injected,
        mem.oom_killed + mem.oom_survived_by_degradation,
        "{label}: OOM bookkeeping must balance"
    );
    assert!(
        mem.spill_bytes == 0 || mem.spills > 0,
        "{label}: spill bytes without spill events"
    );
    assert_bucket_sum(cluster, label);
    mem
}

/// C: lose a node during every Phase-II pass, with checkpointing off vs
/// every [`CKPT_INTERVAL`] passes, and compare the deepest lineage replay
/// each loss forces.
fn scenario_c(out: &mut String, seed: u64, data: &yafim_bench::BenchDataset) {
    say!(
        out,
        "-- C: checkpoint cadence vs lineage replay (YAFIM optimized Phase-II) --"
    );
    // Each arm gets its own fault-free baseline: checkpointing shifts the
    // virtual timeline, so "just after pass k" must be read off a clean run
    // with the *same* checkpoint cadence for the loss to land where the
    // lineage truncation has actually happened.
    // The optimized Phase II trims per pass, which grows the working
    // RDD's lineage: the interesting case for checkpointing.
    let optimized = Miner::Spark(Phase2Plan::Projected);
    let (clean, clean_cluster) = mine(optimized, data, None);
    let (clean_ckpt, clean_ckpt_cluster) = mine(
        optimized,
        data,
        Some(FaultPlan::seeded(seed).with_checkpoint_interval(CKPT_INTERVAL)),
    );
    assert_eq!(
        clean.result, clean_ckpt.result,
        "checkpointing alone changed mining results"
    );
    let victim = clean_cluster
        .hdfs()
        .get("input.dat")
        .expect("loaded")
        .blocks()[0]
        .replicas[0];
    // Per-arm loss instants: just after each Phase-II pass's housekeeping
    // (the previous pass's trim plan, and the checkpoint job a due
    // checkpoint runs before the pass counts) has finished. Pass 1 is
    // Phase-I — no cached Phase-II state to lose yet — so rows start at
    // pass 2.
    let starts_off = pass_starts(&clean_cluster);
    let starts_on = pass_starts(&clean_ckpt_cluster);
    assert_eq!(starts_off.len(), starts_on.len(), "pass counts must agree");
    say!(
        out,
        "{} passes; {victim} lost during each pass, checkpoint off vs every {CKPT_INTERVAL} passes",
        starts_off.len()
    );
    say!(
        out,
        "{:>11} | {:>12} {:>9} | {:>12} {:>9} {:>7} {:>6}",
        "loss during",
        "off: replay",
        "extra(s)",
        "on: replay",
        "extra(s)",
        "writes",
        "reads"
    );

    let mut depths_off = Vec::new();
    let mut depths_on = Vec::new();
    for (k, (&off_at, &on_at)) in starts_off.iter().zip(&starts_on).enumerate().skip(1) {
        let pass = k + 1;
        let mut cells = Vec::new();
        for (interval, start, base_secs) in [
            (0usize, off_at, clean.total_seconds),
            (CKPT_INTERVAL, on_at, clean_ckpt.total_seconds),
        ] {
            let plan = FaultPlan::seeded(seed ^ pass as u64)
                .lose_node_at(
                    victim,
                    SimInstant::EPOCH + SimDuration::from_secs(start + 1e-3),
                )
                .with_checkpoint_interval(interval);
            let (run, cluster) = mine(optimized, data, Some(plan));
            assert_eq!(
                clean.result, run.result,
                "loss during pass {pass} (ckpt interval {interval}) changed results"
            );
            let rec = cluster.metrics().snapshot().recovery;
            if interval == 0 {
                assert_eq!(rec.checkpoint_writes, 0, "interval 0 must never checkpoint");
                depths_off.push(rec.max_replay_depth);
            } else {
                depths_on.push(rec.max_replay_depth);
            }
            cells.push((run.total_seconds - base_secs, rec));
        }
        let (extra_off, ref rec_off) = cells[0];
        let (extra_on, ref rec_on) = cells[1];
        say!(
            out,
            "{:>8} {:>2} | {:>12} {:>9.2} | {:>12} {:>9.2} {:>7} {:>6}",
            "pass",
            pass,
            rec_off.max_replay_depth,
            extra_off,
            rec_on.max_replay_depth,
            extra_on,
            rec_on.checkpoint_writes,
            rec_on.checkpoint_reads
        );
    }

    // The cadence bound: the first checkpoint is written at the start of
    // pass c+2, before it counts, and from then on the working RDD's
    // lineage is at most a checkpoint reader (1 level) plus c-1 trims of 2
    // levels each (map + filter) — independent of how late the loss lands.
    // Without checkpointing, depth keeps growing with the loss pass.
    let bound = (2 * CKPT_INTERVAL - 1) as u64;
    for (i, &d) in depths_on.iter().enumerate() {
        let pass = i + 2;
        assert!(
            d <= bound.max(depths_off[i]),
            "loss during pass {pass}: checkpointing must never deepen replay \
             ({d} > off-arm {})",
            depths_off[i]
        );
        if pass >= CKPT_INTERVAL + 2 {
            assert!(
                d <= bound,
                "loss during pass {pass}: replay depth {d} exceeds the cadence \
                 bound {bound} (checkpoint + {} trims)",
                CKPT_INTERVAL - 1
            );
        }
    }
    if depths_off.len() > CKPT_INTERVAL + 1 {
        assert!(
            depths_off.last() > depths_on.last(),
            "late loss must replay deeper without checkpoints \
             (off {:?} vs on {:?})",
            depths_off.last(),
            depths_on.last()
        );
    }
    say!(
        out,
        "replay depth stays <= {bound} once the first checkpoint lands (pass {}); \
         grows to {} without checkpointing\n",
        CKPT_INTERVAL + 2,
        depths_off.iter().max().expect("nonempty")
    );
}

/// Corruption probabilities scenario D sweeps per tier.
const CORRUPTION_RATES: [f64; 2] = [0.05, 0.25];

/// What scenario D hands back for the chaos manifest.
struct SweepSummary {
    /// Cluster behind the representative run (YAFIM, all tiers corrupted
    /// at the top rate) — the manifest captures its metrics — and the
    /// itemsets it mined.
    representative: Option<(SimCluster, usize)>,
    /// Corrupted runs executed across the sweep.
    runs: u64,
    /// Total corruptions detected across the sweep.
    detected: u64,
    /// Total corruptions repaired across the sweep.
    repaired: u64,
}

/// D: silent-corruption sweep. Each storage tier (shuffle map outputs,
/// cached partitions, HDFS replicas) is corrupted alone and then combined,
/// at each rate in [`CORRUPTION_RATES`], on both engines. Every run must
/// (a) mine byte-identical itemsets to the fault-free baseline, (b) detect
/// every injected corruption, (c) repair everything it detected, and
/// (d) keep the critical-path buckets summing to the makespan. A final
/// poisoned-beyond-repair case must escalate to a typed integrity error
/// instead of returning anything.
fn scenario_d(out: &mut String, seed: u64, data: &yafim_bench::BenchDataset) -> SweepSummary {
    say!(out, "-- D: silent corruption sweep (checksums on) --");
    say!(
        out,
        "{:<11} {:>7} {:>5} | {:>8} {:>8} {:>8} | {:>24} {:>9}",
        "engine",
        "tier",
        "rate",
        "injected",
        "detected",
        "repaired",
        "paths (repl/rec/resub)",
        "extra(s)"
    );

    type TierKnob = fn(FaultPlan, f64) -> FaultPlan;
    let tiers: [(&str, TierKnob); 4] = [
        ("shuffle", |p, r| p.corrupt_shuffle(r)),
        ("cache", |p, r| p.corrupt_cache(r)),
        ("hdfs", |p, r| p.corrupt_hdfs(r)),
        ("all", |p, r| {
            p.corrupt_shuffle(r).corrupt_cache(r).corrupt_hdfs(r)
        }),
    ];

    let mut summary = SweepSummary {
        representative: None,
        runs: 0,
        detected: 0,
        repaired: 0,
    };
    for (engine, miner) in ENGINES {
        let (base_run, _) = mine(miner, data, None);
        for &rate in &CORRUPTION_RATES {
            for (tier, corrupt) in &tiers {
                let plan = corrupt(FaultPlan::seeded(seed), rate);
                let (run, cluster) = mine(miner, data, Some(plan));
                assert_eq!(
                    base_run.result, run.result,
                    "{engine}: {tier} corruption at {rate} changed mining results"
                );
                let rec = cluster.metrics().snapshot().recovery;
                let i = rec.integrity;
                assert_eq!(
                    i.corruptions_detected, i.corruptions_injected,
                    "{engine}: {tier}@{rate}: every injected corruption must be detected"
                );
                assert_eq!(
                    i.corruptions_repaired, i.corruptions_detected,
                    "{engine}: {tier}@{rate}: every detected corruption must be repaired"
                );
                assert_bucket_sum(&cluster, &format!("{engine} {tier}@{rate}"));
                say!(
                    out,
                    "{:<11} {:>7} {:>5.2} | {:>8} {:>8} {:>8} | {:>14}/{:>3}/{:>4} {:>9.2}",
                    engine,
                    tier,
                    rate,
                    i.corruptions_injected,
                    i.corruptions_detected,
                    i.corruptions_repaired,
                    i.repaired_via_replica,
                    i.repaired_via_recompute,
                    i.repaired_via_resubmit,
                    run.total_seconds - base_run.total_seconds
                );
                summary.runs += 1;
                summary.detected += i.corruptions_detected;
                summary.repaired += i.corruptions_repaired;
                if engine == "YAFIM" && *tier == "all" && rate == CORRUPTION_RATES[1] {
                    summary.representative = Some((cluster, run.result.total()));
                }
            }
        }
    }
    assert!(
        summary.detected > 0,
        "the sweep must actually inject corruptions somewhere"
    );

    // Poisoned beyond repair: every replica of a checkpoint block fails
    // verification and the lineage behind it is truncated — the engine
    // must refuse with a typed integrity error, never return results.
    let cluster = loaded_cluster(ClusterSpec::paper(), &data.transactions);
    let ctx = Context::new(cluster.clone());
    let cp = ctx.text_file("input.dat", 4).expect("loaded").checkpoint();
    cluster
        .faults()
        .set_plan(FaultPlan::seeded(seed).corrupt_all_replicas(IntegrityTier::Hdfs, cp.id(), 0));
    match cp.try_collect() {
        Err(ExecError::IntegrityFailure { detail }) => {
            say!(
                out,
                "beyond repair (YAFIM): refused with integrity failure: {detail}"
            );
        }
        Err(e) => panic!("expected an integrity failure, got: {e}"),
        Ok(_) => panic!("all replicas poisoned + truncated lineage must not return results"),
    }

    // Same escalation on the MapReduce engine: every replica of an input
    // split is poisoned and Hadoop has no lineage to recompute inputs.
    let poisoned = FaultPlan::seeded(seed).corrupt_all_replicas(
        IntegrityTier::Hdfs,
        fx_hash64(&"input.dat"),
        0,
    );
    let (mr, spec) = (Miner::MapReduce, ClusterSpec::paper());
    match run(mr, spec, &data.transactions, data.support, Some(poisoned)) {
        Err(MineError::Exec(ExecError::IntegrityFailure { .. })) => {
            say!(out, "beyond repair (MR): refused with integrity failure");
        }
        Err(e) => panic!("expected an integrity failure, got: {e}"),
        Ok(_) => panic!("all replicas poisoned must not return results"),
    }
    say!(
        out,
        "corruption sweep: {} runs, {} injected corruptions all detected and repaired\n",
        summary.runs,
        summary.detected
    );
    summary
}

/// The critical-path buckets must account for every virtual second even
/// under corruption plans (repair stalls land in `fault_stall`, recompute
/// in the normal buckets of the resubmitted work).
fn assert_bucket_sum(cluster: &SimCluster, label: &str) {
    let report = critical_path(cluster.metrics(), cluster.cost());
    let sum: f64 = report.buckets.named().iter().map(|(_, v)| v).sum();
    let makespan = cluster.metrics().snapshot().now.as_secs();
    assert!(
        (sum - makespan).abs() < 1e-6,
        "{label}: critical-path buckets sum to {sum} but makespan is {makespan}"
    );
}

/// Run one miner over the dataset on the paper's cluster, optionally under
/// a fault plan the run must survive: any typed failure is a harness bug
/// worth a loud panic.
fn mine(
    miner: Miner,
    data: &yafim_bench::BenchDataset,
    plan: Option<FaultPlan>,
) -> (MinerRun, SimCluster) {
    let spec = ClusterSpec::paper();
    run(miner, spec, &data.transactions, data.support, plan)
        .unwrap_or_else(|e| panic!("{} must survive its plan: {e}", miner.name()))
}

/// Virtual instant (seconds) halfway through pass 2.
fn pass2_midpoint(cluster: &SimCluster) -> Option<f64> {
    let passes = cluster.metrics().passes();
    let pass2 = passes.iter().find(|p| p.pass == 2)?;
    Some(pass2.start.as_secs() + pass2.seconds / 2.0)
}

/// Virtual instant (seconds) each pass's housekeeping ends, in pass order
/// (pass 1 is Phase-I): the pass's start, or the end of the checkpoint job
/// a due checkpoint runs inside the pass, before its job counts.
fn pass_starts(cluster: &SimCluster) -> Vec<f64> {
    let stages = cluster.metrics().stage_spans();
    let housekept = |p: &PassTiming| {
        let window = p.start..p.start + SimDuration::from_secs(p.seconds);
        let checkpoints = stages
            .iter()
            .filter(|s| window.contains(&s.start) && s.label.starts_with("checkpoint"));
        let ends = checkpoints.map(|s| s.start + s.duration);
        ends.fold(p.start, SimInstant::max).as_secs()
    };
    cluster.metrics().passes().iter().map(housekept).collect()
}

fn print_counters(out: &mut String, r: &RecoveryCounters) {
    say!(
        out,
        "   recovery: {} task failures, {} retries, {} speculative ({} won), \
         {} nodes lost, {} map outputs refetched, {} partitions recomputed",
        r.task_failures,
        r.task_retries,
        r.speculative_launched,
        r.speculative_wins,
        r.nodes_lost,
        r.fetch_failures,
        r.recomputed_partitions
    );
}

/// Print the report's anomaly line plus the stage rows that show recovery
/// work (resubmissions and nonzero recovery columns).
fn print_recovery_excerpt(out: &mut String, cluster: &SimCluster) {
    let report = full_report(cluster.metrics(), cluster.cost());
    for line in report.lines() {
        if line.starts_with("anomalies:") || line.contains("resubmit") || has_recovery_cell(line) {
            say!(out, "   | {}", line.trim_end());
        }
    }
}

/// Does a stage row end in a `Nf Nr Ns` recovery cell?
fn has_recovery_cell(line: &str) -> bool {
    let toks: Vec<&str> = line.split_whitespace().rev().take(3).collect();
    toks.len() == 3
        && toks[0].ends_with('s')
        && toks[1].ends_with('r')
        && toks[2].ends_with('f')
        && toks
            .iter()
            .all(|t| t.len() > 1 && t[..t.len() - 1].chars().all(|c| c.is_ascii_digit()))
}
