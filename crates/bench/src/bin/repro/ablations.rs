//! The four ablations: each function returns the report `repro` writes to
//! `results/ablation_<name>.txt` (`matching` also the `phase2` manifest).

use yafim_bench::{bench_dataset, loaded_cluster, phase2_label, phase2_workload, run_clean};
use yafim_cluster::json::JsonValue;
use yafim_cluster::{ClusterSpec, CostModel, PassTiming, RunManifest, SimCluster};
use yafim_core::{
    ap_gen, apriori, Item, Itemset, Miner, MinerRun, MrApriori, MrAprioriConfig, MrMatching,
    MrVariant, Phase2Plan, Support, Yafim, YafimConfig,
};
use yafim_data::{replicate, to_lines, PaperDataset, QuestGenerator};
use yafim_rdd::{BroadcastMode, Context, RddConfig};

/// §IV.C ("Share Data With Broadcast"): YAFIM with Spark's torrent-style
/// broadcast variables versus the naive default the paper warns about,
/// where the driver ships the shared data (the candidate hash tree) with
/// *every task* through its single uplink.
pub(crate) fn broadcast() -> String {
    let mut out = String::new();
    say!(
        out,
        "== Ablation: broadcast variables vs naive per-task shipping (§IV.C) =="
    );
    say!(
        out,
        "{:<12} {:>16} {:>16} {:>10}",
        "dataset",
        "torrent (s)",
        "per-task (s)",
        "penalty"
    );
    for ds in [PaperDataset::T10I4D100K, PaperDataset::Mushroom] {
        let data = bench_dataset(ds, 0.25);
        let mut totals = Vec::new();
        for mode in [BroadcastMode::Torrent, BroadcastMode::NaivePerTask] {
            let cluster = loaded_cluster(ClusterSpec::paper(), &data.transactions);
            let mut cfg = RddConfig::for_cluster(&cluster);
            cfg.broadcast = mode;
            let ctx = Context::with_config(cluster, cfg);
            let run = Yafim::new(ctx, YafimConfig::new(data.support))
                .mine("input.dat")
                .expect("dataset written");
            totals.push(run.total_seconds);
        }
        say!(
            out,
            "{:<12} {:>16.2} {:>16.2} {:>9.2}x",
            data.name,
            totals[0],
            totals[1],
            totals[1] / totals[0]
        );
    }
    say!(
        out,
        "\n(The paper: naive shipping makes the master's bandwidth the bottleneck, \
         'capping the rate at which tasks could be launched'.)"
    );
    out
}

/// §IV.B ("Memory Utilization"): what caching the transactions RDD is
/// worth. Three configurations:
///
/// * normal — full cache, the YAFIM design;
/// * starved — per-node cache capacity too small for the dataset, so
///   partitions are evicted and recomputed from HDFS through the lineage
///   every pass (Spark under memory pressure);
/// * the MapReduce baseline, which has no cache at all.
///
/// Honest finding (recorded in EXPERIMENTS.md): at Table I scale on 96
/// cores, re-reading megabytes from HDFS is nearly free, so the starved
/// cache costs little *time* — the disk-traffic column shows the extra I/O
/// the cache removes. The MapReduce baseline's 20×+ penalty comes from its
/// per-job architecture, not from re-reading bytes per se; caching becomes
/// time-critical only when the dataset is large relative to the cluster.
pub(crate) fn cache() -> String {
    let data = bench_dataset(PaperDataset::T10I4D100K, 0.25);
    let transactions = replicate(&data.transactions, 4);

    let mut out = String::new();
    say!(
        out,
        "== Ablation: memory utilization (§IV.B), T10I4D100K (4x) sup=0.25% =="
    );
    say!(
        out,
        "{:<38} {:>10} {:>14} {:>24}",
        "configuration",
        "time (s)",
        "disk read",
        "cache activity"
    );

    let mut baseline = None;
    for (label, capacity) in [
        ("YAFIM, full cache", None),
        ("YAFIM, starved cache (256 KiB/node)", Some(256 * 1024)),
    ] {
        let cluster = loaded_cluster(ClusterSpec::paper(), &transactions);
        let mut cfg = RddConfig::for_cluster(&cluster);
        cfg.cache_capacity_per_node = capacity;
        let ctx = Context::with_config(cluster.clone(), cfg);
        let run = Yafim::new(ctx.clone(), YafimConfig::new(data.support))
            .mine("input.dat")
            .expect("dataset written");
        let profile = cluster.metrics().snapshot().profile;
        let disk = profile.work.disk_read_bytes;
        baseline.get_or_insert(run.total_seconds);
        say!(
            out,
            "{:<38} {:>10.2} {:>11.1} MB {:>7} hit / {:>5} evict",
            label,
            run.total_seconds,
            disk as f64 / 1e6,
            profile.cache_hits,
            ctx.cache().stats().evictions
        );
    }

    let (mr, cluster) = run_clean(
        Miner::MapReduce,
        ClusterSpec::paper(),
        &transactions,
        data.support,
    );
    let disk = cluster.metrics().snapshot().profile.work.disk_read_bytes;
    say!(
        out,
        "{:<38} {:>10.2} {:>11.1} MB   re-reads HDFS every job",
        "MR-Apriori (no cache by design)",
        mr.total_seconds,
        disk as f64 / 1e6
    );
    say!(
        out,
        "\nMapReduce penalty over cached YAFIM: {:.1}x",
        mr.total_seconds / baseline.expect("baseline ran")
    );
    out
}

/// The related-work job-combining schemes (Lin et al., the paper's ref
/// \[17\]): SPC (one job per pass) vs FPC (fixed passes combined) vs DPC
/// (dynamic passes combined). Combining passes amortizes Hadoop's per-job
/// overhead at the price of counting speculative candidates — the
/// related-work attempt to mitigate exactly the overhead YAFIM removes by
/// switching frameworks.
pub(crate) fn phase_combine() -> String {
    let data = bench_dataset(PaperDataset::Medical, 1.0);
    let mut out = String::new();
    say!(
        out,
        "== Ablation: MR job-combining variants, medical dataset sup=3% =="
    );
    say!(
        out,
        "{:<28} {:>8} {:>12} {:>16}",
        "variant",
        "jobs",
        "total (s)",
        "vs SPC"
    );

    let mut spc_total = None;
    let mut reference = None;
    for (label, variant) in [
        ("SPC (one job per pass)", MrVariant::Spc),
        (
            "FPC (2 passes per job)",
            MrVariant::Fpc { passes_per_job: 2 },
        ),
        (
            "FPC (3 passes per job)",
            MrVariant::Fpc { passes_per_job: 3 },
        ),
        (
            "DPC (<= 3000 candidates/job)",
            MrVariant::Dpc {
                max_candidates: 3000,
            },
        ),
    ] {
        let cluster = loaded_cluster(ClusterSpec::paper(), &data.transactions);
        let mut cfg = MrAprioriConfig::new(data.support);
        cfg.variant = variant;
        let run = MrApriori::new(cluster.clone(), cfg)
            .mine("input.dat")
            .expect("dataset written");
        match &reference {
            None => reference = Some(run.result.clone()),
            Some(r) => assert_eq!(r, &run.result, "{label} diverges"),
        }
        let base = *spc_total.get_or_insert(run.total_seconds);
        say!(
            out,
            "{:<28} {:>8} {:>12.2} {:>15.2}x",
            label,
            cluster.metrics().snapshot().jobs,
            run.total_seconds,
            base / run.total_seconds
        );
    }

    let spark = |plan| {
        run_clean(
            Miner::Spark(plan),
            ClusterSpec::paper(),
            &data.transactions,
            data.support,
        )
    };
    let (yafim, _) = spark(Phase2Plan::Paper);
    let spc_total = spc_total.expect("SPC ran");
    say!(
        out,
        "{:<28} {:>8} {:>12.2} {:>15.2}x   <- framework switch beats job combining",
        "YAFIM (Spark engine)",
        "-",
        yafim.total_seconds,
        spc_total / yafim.total_seconds
    );
    let (combined, cluster) = spark(Phase2Plan::Bitmap);
    assert_eq!(
        reference.as_ref(),
        Some(&combined.result),
        "YAFIM bitmap diverges"
    );
    say!(
        out,
        "{:<30} {:>6} {:>12.2} {:>15.2}x",
        "YAFIM bitmap (passes combined)",
        cluster.metrics().snapshot().jobs,
        combined.total_seconds,
        spc_total / combined.total_seconds
    );
    out
}

/// Candidate matching and the Phase-II hot path, virtual side only (the
/// wall-clock sweep over the same workload is `benches/phase2.rs`).
///
/// 1. **MR-Apriori matcher** — hash tree vs naive list-scan in the
///    MapReduce baseline: quantifies how much of YAFIM's win comes from the
///    framework rather than the hash tree data structure.
/// 2. **YAFIM Phase II** — one column per [`Phase2Plan`]: the paper-faithful
///    hash-tree engine vs projection + triangular pass 2 + hash tree +
///    cross-pass trimming vs the vertical TID-bitmap counter, on the pass-2-dominated
///    QUEST workload of [`phase2_workload`].
///
/// Every plan must return itemsets, supports and per-pass
/// candidate/frequent counts identical to the sequential reference; the
/// manifest is captured from the bitmap plan's run.
pub(crate) fn matching() -> (String, RunManifest) {
    let mut out = String::new();
    say!(
        out,
        "== Ablation 1: MR-Apriori candidate matching strategy =="
    );
    say!(
        out,
        "{:<12} {:>16} {:>16} {:>10}",
        "dataset",
        "hash tree (s)",
        "naive scan (s)",
        "penalty"
    );
    for ds in [PaperDataset::Mushroom, PaperDataset::T10I4D100K] {
        let data = bench_dataset(ds, 0.25);
        let mut totals = Vec::new();
        let mut results = Vec::new();
        for matching in [MrMatching::HashTree, MrMatching::NaiveScan] {
            let cluster = loaded_cluster(ClusterSpec::paper(), &data.transactions);
            let mut cfg = MrAprioriConfig::new(data.support);
            cfg.matching = matching;
            let run = MrApriori::new(cluster, cfg)
                .mine("input.dat")
                .expect("dataset written");
            totals.push(run.total_seconds);
            results.push(run.result);
        }
        assert_eq!(
            results[0], results[1],
            "MR matchers diverge on {}",
            data.name
        );
        say!(
            out,
            "{:<12} {:>16.2} {:>16.2} {:>9.2}x",
            data.name,
            totals[0],
            totals[1],
            totals[1] / totals[0]
        );
    }

    let (quest, support_frac, dataset_doc) = phase2_workload();
    let items = quest.items;
    let tx = QuestGenerator::new(quest).generate();
    let support = Support::Fraction(support_frac);
    let lines = to_lines(&tx);
    let reference = apriori(&tx, support);
    // (plan, run, peak cache bytes, cluster), in `Phase2Plan::ALL` order.
    let runs: Vec<_> = Phase2Plan::ALL
        .into_iter()
        .map(|plan| {
            let c = SimCluster::with_threads(
                ClusterSpec::new(4, 4, 1 << 30),
                CostModel::hadoop_era(),
                8,
            );
            c.hdfs().put_overwrite("q.dat", lines.clone());
            let ctx = Context::new(c.clone());
            let run = Yafim::new(ctx.clone(), YafimConfig::with_plan(support, plan))
                .mine("q.dat")
                .expect("dataset written");
            let label = phase2_label(plan);
            assert_eq!(
                run.result, reference,
                "'{label}' diverges from the sequential reference"
            );
            (label, run, ctx.cache().stats().peak_bytes, c)
        })
        .collect();
    let paper = &runs[0].1;
    // A record starts at a paper pass and finds what the passes it spans
    // found. A one-level record counts the paper's candidates the support
    // bound keeps; a combined one at least those of its first level and the
    // paper's of the rest (chained from candidate levels). Only the paper's
    // last pass may go uncounted, where the bound dropped all of it.
    let min_sup = support.resolve(tx.len() as u64);
    let bound = |p| bounded_candidates(paper, p, tx.len(), min_sup);
    let bounded: Vec<usize> = paper.passes.iter().map(bound).collect();
    for (label, run, ..) in &runs[1..] {
        let mut next = paper.passes.iter().zip(&bounded).peekable();
        for r in &run.passes {
            let starts = next.peek().is_some_and(|(p, _)| p.pass == r.pass);
            let spanned: Vec<_> =
                std::iter::from_fn(|| next.next_if(|(p, _)| p.pass <= r.last)).collect();
            let f: usize = spanned.iter().map(|(p, _)| p.frequent).sum();
            let rest = spanned.iter().skip(1).map(|(p, _)| p.candidates);
            let c = spanned.first().map_or(0, |(_, &b)| b) + rest.sum::<usize>();
            let counted = if r.last > r.pass {
                r.candidates >= c
            } else {
                r.candidates == c && c >= f
            };
            assert!(
                starts && r.frequent == f && counted,
                "'{label}' diverges from the paper: {r:?}"
            );
        }
        let last = paper.passes.len();
        assert!(
            next.all(|(p, &b)| b == 0 && p.pass == last),
            "'{label}' stops early"
        );
    }

    say!(
        out,
        "\n== Ablation 2: YAFIM Phase-II hot path ({} QUEST transactions, {} items, \
         minsup {:.1}%, |C2| = {}) ==",
        tx.len(),
        items,
        support_frac * 100.0,
        paper.passes.get(1).map_or(0, |p| p.candidates)
    );
    say!(
        out,
        "{:<25} {:>11} {:>14}",
        "configuration",
        "virtual (s)",
        "peak cache"
    );
    for (label, run, peak_cache_bytes, _) in &runs {
        say!(
            out,
            "{:<27} {:>9.2} {:>12} B",
            label,
            run.total_seconds,
            peak_cache_bytes
        );
    }
    // One cell per configuration for pass `p`: `value` of the record that
    // counted it alone, the span of a combined job that counted it,
    // `(3-13)`, or `-` where the support bound dropped all of it.
    let cells = |p: &PassTiming, value: &dyn Fn(&PassTiming) -> String| {
        let cell = |(_, run, ..): &(_, MinerRun, _, _)| match run
            .passes
            .iter()
            .find(|r| (r.pass..=r.last).contains(&p.pass))
        {
            Some(r) if r.pass == p.pass => format!("{:>8}", value(r)),
            Some(r) => format!("{:>8}", format!("({}-{})", r.pass, r.last)),
            None => format!("{:>8}", "-"),
        };
        runs.iter().map(cell).collect::<Vec<_>>().join(" ")
    };
    say!(
        out,
        "\nper-pass |C_k|, one column per configuration, and |L_k| (the projecting \
         plans count the candidates whose support bound reaches MinSup):"
    );
    for p in &paper.passes {
        let c = cells(p, &|r| r.candidates.to_string());
        say!(out, "  pass {:>2}: {c}  {:>8} frequent", p.pass, p.frequent);
    }
    say!(
        out,
        "\nper-pass virtual seconds, one column per configuration:"
    );
    for p in &paper.passes {
        let s = cells(p, &|r| format!("{:.2}", r.seconds));
        say!(out, "  pass {:>2}: {s}", p.pass);
    }
    say!(
        out,
        "\nparity: ok ({} frequent itemsets, every config byte-identical; \
         |C_k| as the support bound predicts)",
        reference.total()
    );

    // `Phase2Plan::ALL` ends with the bitmap plan: its run carries the
    // `bitmap.*` build and word counters.
    let (label, featured, peak_cache_bytes, cluster) = runs.last().expect("plans swept");
    let config_doc = JsonValue::object(vec![
        ("phase2", (*label).into()),
        ("cluster", "4 nodes x 4 cores".into()),
    ]);
    let mut manifest = RunManifest::capture("phase2", *label, dataset_doc, config_doc, cluster);
    manifest.push_metric("frequent_itemsets", reference.total() as f64);
    manifest.push_metric("passes", featured.passes.len() as f64);
    manifest.push_metric("peak_cache_bytes", *peak_cache_bytes as f64);
    for p in &featured.passes {
        manifest.push_metric(format!("pass.{}.virtual_seconds", p.pass), p.seconds);
        manifest.push_metric(format!("pass.{}.candidates", p.pass), p.candidates as f64);
        manifest.push_metric(format!("pass.{}.frequent", p.pass), p.frequent as f64);
        manifest.push_metric(format!("pass.{}.last", p.pass), p.last as f64);
    }
    (out, manifest)
}

/// How many of the paper's candidates of `pass` a projecting plan counts:
/// those whose support bound, written out here from its definition over
/// the paper's levels, reaches `min_sup`. For `c = X ∪ {a, y1, y2}` (its
/// last three items) it is `σ(Xay1) + σ(Xay2) + σ(Xy1y2) − σ(Xa) − σ(Xy1)
/// − σ(Xy2) + σ(X)`, `σ(∅)` the line count; passes 1 and 2 have none.
fn bounded_candidates(paper: &MinerRun, pass: &PassTiming, lines: usize, min_sup: u64) -> usize {
    if pass.pass < 3 {
        return pass.candidates;
    }
    let below = paper.result.level(pass.pass - 1).iter();
    let (candidates, _) = ap_gen(&below.map(|(s, _)| s.clone()).collect::<Vec<_>>());
    assert_eq!(
        candidates.len(),
        pass.candidates,
        "the paper's C_{}",
        pass.pass
    );
    let sigma = |x: &[Item], extra: &[Item]| match Itemset::new([x, extra].concat()) {
        set if set.is_empty() => lines as i128,
        set => paper
            .result
            .support_of(&set)
            .expect("frequent subset")
            .into(),
    };
    let kept = candidates.iter().filter(|c| {
        let (x, &[a, y1, y2]) = c.items().split_at(c.len() - 3) else {
            unreachable!()
        };
        let ub = sigma(x, &[a, y1]) + sigma(x, &[a, y2]) + sigma(x, &[y1, y2])
            - sigma(x, &[a])
            - sigma(x, &[y1])
            - sigma(x, &[y2])
            + sigma(x, &[]);
        ub >= i128::from(min_sup)
    });
    kept.count()
}
