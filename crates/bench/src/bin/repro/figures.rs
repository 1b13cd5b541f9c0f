//! Table I, Figs. 3–6 and the miner comparison: each function returns the
//! report `repro` writes to `results/<name>.txt`.

use yafim_bench::{assert_same_results, bench_dataset, pass_table, run_clean};
use yafim_cluster::ClusterSpec;
use yafim_core::{Miner, MiningResult, Phase2Plan};
use yafim_data::{replicate, stats, PaperDataset};

const YAFIM: Miner = Miner::Spark(Phase2Plan::Paper);

/// Table I: the paper's reported (items, transactions) next to the measured
/// properties of our synthetic stand-ins, plus the measured density facts
/// (average transaction length) that drive mining behaviour.
pub(crate) fn table1() -> String {
    let mut out = String::new();
    say!(out, "TABLE I. PROPERTIES OF DATASETS FOR OUR EXPERIMENTS");
    say!(
        out,
        "{:<12} {:>12} {:>14} {:>14} {:>16} {:>10}",
        "Dataset",
        "Items(paper)",
        "Items(ours)",
        "Tx(paper)",
        "Tx(ours)",
        "avg len"
    );
    for ds in PaperDataset::benchmarks() {
        let p = ds.profile();
        let s = stats(&ds.generate());
        say!(
            out,
            "{:<12} {:>12} {:>14} {:>14} {:>16} {:>10.1}",
            p.name,
            p.items,
            s.distinct_items,
            p.transactions,
            s.transactions,
            s.avg_len
        );
    }
    say!(
        out,
        "\n(Stand-in generators; see DESIGN.md §2 for the substitution rationale.)"
    );
    out
}

/// Fig. 3: per-iteration execution time of YAFIM vs MR-Apriori on the four
/// benchmark datasets, at the paper's support thresholds, on the paper's
/// 12-node × 8-core cluster, with the §V.B headline numbers (totals,
/// last-pass times, speedups) next to the paper's targets. T10I4D100K runs
/// at scale 0.25 to keep single-host wall time sane.
pub(crate) fn fig3() -> String {
    /// (dataset, scale, paper total-speedup target, paper last-pass speedup target)
    const PANELS: [(PaperDataset, f64, f64, Option<f64>); 4] = [
        (PaperDataset::Mushroom, 1.0, 21.0, Some(37.0)),
        (PaperDataset::T10I4D100K, 0.25, 10.0, None),
        (PaperDataset::Chess, 1.0, 21.0, Some(55.0)),
        (PaperDataset::PumsbStar, 1.0, 21.0, None),
    ];
    let mut out = String::new();
    let mut speedups = Vec::new();
    for (ds, scale, paper_total, paper_last) in PANELS {
        let data = bench_dataset(ds, scale);
        let clean = |miner| {
            run_clean(
                miner,
                ClusterSpec::paper(),
                &data.transactions,
                data.support,
            )
        };
        let (yafim, _) = clean(YAFIM);
        let (mr, _) = clean(Miner::MapReduce);
        assert_same_results(data.name, &yafim, &mr);

        let title = format!(
            "Fig. 3: {} (sup per paper, scale {scale}) — per-pass execution time",
            data.name
        );
        out += &pass_table(&title, &yafim, &mr);

        let total_speedup = mr.total_seconds / yafim.total_seconds;
        speedups.push(total_speedup);
        say!(
            out,
            "   paper target: ~{paper_total:.0}x total speedup; measured {total_speedup:.1}x"
        );
        if let (Some(target), Some(y), Some(m)) =
            (paper_last, yafim.passes.last(), mr.passes.last())
        {
            say!(
                out,
                "   last pass: paper ~{target:.0}x; measured {:.1}x ({:.2}s vs {:.2}s)",
                m.seconds / y.seconds,
                y.seconds,
                m.seconds
            );
        }
    }

    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    say!(out, "\n== summary ==");
    say!(
        out,
        "average total speedup across benchmarks: {avg:.1}x (paper: ~18x)"
    );
    out
}

/// Fig. 4: sizeup. Core count fixed at 48 (6 nodes × 8); each dataset is
/// replicated 1–6× and both miners run over the enlarged data. The paper's
/// shape: MR-Apriori "increases sharply and almost grows linearly" while
/// YAFIM "grows slowly and keeps nearly flat". T10I4D100K's base scale is
/// 0.2 and Pumsb_star's 0.5 so the ×6 point stays tractable on one host.
pub(crate) fn fig4() -> String {
    const PANELS: [(PaperDataset, f64); 4] = [
        (PaperDataset::Mushroom, 1.0),
        (PaperDataset::T10I4D100K, 0.2),
        (PaperDataset::Chess, 1.0),
        (PaperDataset::PumsbStar, 0.5),
    ];
    let mut out = String::new();
    for (ds, scale) in PANELS {
        let data = bench_dataset(ds, scale);
        say!(
            out,
            "\n== Fig. 4: {} sizeup (48 cores, base scale {scale}) ==",
            data.name
        );
        say!(
            out,
            "{:>10}  {:>12}  {:>12}  {:>10}",
            "replicas",
            "YAFIM (s)",
            "MR (s)",
            "MR/YAFIM"
        );
        let mut ends = Vec::new();
        for times in 1..=6usize {
            let enlarged = replicate(&data.transactions, times);
            let clean =
                |miner| run_clean(miner, ClusterSpec::paper_sizeup(), &enlarged, data.support).0;
            let yafim = clean(YAFIM);
            let mr = clean(Miner::MapReduce);
            assert_eq!(
                yafim.result.level_sizes(),
                mr.result.level_sizes(),
                "{} x{times}",
                data.name
            );
            say!(
                out,
                "{:>10}  {:>12.2}  {:>12.2}  {:>9.1}x",
                times,
                yafim.total_seconds,
                mr.total_seconds,
                mr.total_seconds / yafim.total_seconds
            );
            if times == 1 || times == 6 {
                ends.push((yafim.total_seconds, mr.total_seconds));
            }
        }
        let ((y1, m1), (y6, m6)) = (ends[0], ends[1]);
        say!(
            out,
            "   growth 1x -> 6x: YAFIM {:.2}x, MR {:.2}x (paper: YAFIM nearly flat, MR ~linear)",
            y6 / y1,
            m6 / m1
        );
    }
    out
}

/// Fig. 5: node scalability of YAFIM. Dataset fixed, node count swept
/// through 4, 6, 8, 10, 12 (32–96 cores). The paper reports near-linear
/// speedup ("the time cost for YAFIM goes near-linear").
///
/// Deviation note (see EXPERIMENTS.md): scalability is only visible where
/// per-pass *compute* dominates the per-pass scheduling floor (job/stage
/// dispatch, broadcast), which is constant in cluster size. At the original
/// Table I sizes the benchmarks are megabytes and YAFIM is floor-bound, so
/// the sweep runs over the 6×-replicated datasets.
pub(crate) fn fig5() -> String {
    const PANELS: [(PaperDataset, f64); 4] = [
        (PaperDataset::Mushroom, 1.0),
        (PaperDataset::T10I4D100K, 0.25),
        (PaperDataset::Chess, 1.0),
        (PaperDataset::PumsbStar, 1.0),
    ];
    const REPLICAS: usize = 6;
    let mut out = String::new();
    for (ds, scale) in PANELS {
        let data = bench_dataset(ds, scale);
        let enlarged = replicate(&data.transactions, REPLICAS);
        say!(
            out,
            "\n== Fig. 5: {} node scalability (scale {scale}, {REPLICAS}x replicated) ==",
            data.name
        );
        say!(
            out,
            "{:>8} {:>8}  {:>12}  {:>14}",
            "nodes",
            "cores",
            "YAFIM (s)",
            "vs 32 cores"
        );
        let mut base: Option<f64> = None;
        for spec in ClusterSpec::paper_speedup_sweep() {
            let (nodes, cores) = (spec.nodes, spec.total_cores());
            let (yafim, _) = run_clean(YAFIM, spec, &enlarged, data.support);
            let baseline = *base.get_or_insert(yafim.total_seconds);
            say!(
                out,
                "{:>8} {:>8}  {:>12.2}  {:>13.2}x",
                nodes,
                cores,
                yafim.total_seconds,
                baseline / yafim.total_seconds
            );
        }
        say!(
            out,
            "   (paper: time decreases near-linearly with added nodes; ideal 96/32 = 3x)"
        );
    }
    out
}

/// Fig. 6: the real-world medical application (§V.D). Medical case data at
/// Sup = 3%, YAFIM vs MR-Apriori per iteration; the paper reports ~25×
/// overall and notes both that every YAFIM iteration is far cheaper than
/// MR's and that YAFIM's iterations get cheaper as the frequent-itemset
/// levels shrink.
pub(crate) fn fig6() -> String {
    let data = bench_dataset(PaperDataset::Medical, 1.0);
    let clean = |miner| {
        run_clean(
            miner,
            ClusterSpec::paper(),
            &data.transactions,
            data.support,
        )
        .0
    };
    let yafim = clean(YAFIM);
    let mr = clean(Miner::MapReduce);
    assert_same_results("medical", &yafim, &mr);

    let title = format!(
        "Fig. 6: medical case data, Sup = 3% ({} cases)",
        data.transactions.len()
    );
    let mut out = pass_table(&title, &yafim, &mr);
    say!(
        out,
        "\npaper target: ~25x total speedup; measured {:.1}x",
        mr.total_seconds / yafim.total_seconds
    );

    // The paper's qualitative claim: YAFIM iterations shrink over time.
    let y = &yafim.passes;
    let head = y.iter().take(3).map(|p| p.seconds).sum::<f64>() / 3.0;
    let tail_n = y.len().saturating_sub(3).max(1);
    let tail = y.iter().skip(3).map(|p| p.seconds).sum::<f64>() / tail_n as f64;
    say!(
        out,
        "YAFIM early passes avg {head:.2}s vs later passes avg {tail:.2}s \
         (paper: per-iteration time decreases with the iterations)"
    );
    out
}

/// Extension comparison (beyond the paper's figures): every parallel miner
/// in the repository on the same dataset and cluster — YAFIM (k-phase,
/// Spark-style), MR-Apriori/SPC (k-phase, MapReduce), SON (one-phase,
/// MapReduce) and PFP (no candidate generation, Spark-style) — the four
/// corners of the design space the paper's related-work section sketches.
pub(crate) fn compare_miners() -> String {
    /// What each row is called: family and decomposition, the design-space
    /// corner the miner stands for.
    const LABELS: [(Miner, &str); 4] = [
        (YAFIM, "YAFIM (Spark, k-phase)"),
        (Miner::MapReduce, "MR-Apriori/SPC (k-phase)"),
        (Miner::Son, "SON (MapReduce, one-phase)"),
        (Miner::Pfp, "PFP (Spark, FP-Growth)"),
    ];
    let mut out = String::new();
    for ds in [PaperDataset::Mushroom, PaperDataset::Medical] {
        let data = bench_dataset(ds, 1.0);
        say!(
            out,
            "\n== miner comparison: {} (sup per paper, scale 1) ==",
            data.name
        );
        say!(
            out,
            "{:<28} {:>8} {:>12} {:>10}",
            "miner",
            "jobs",
            "total (s)",
            "itemsets"
        );

        let mut reference: Option<MiningResult> = None;
        for (miner, label) in LABELS {
            let (mined, cluster) = run_clean(
                miner,
                ClusterSpec::paper(),
                &data.transactions,
                data.support,
            );
            if let Some(r) = &reference {
                assert_eq!(r, &mined.result, "{label} diverges");
            }
            say!(
                out,
                "{:<28} {:>8} {:>12.2} {:>10}",
                label,
                cluster.metrics().snapshot().jobs,
                mined.total_seconds,
                mined.result.total()
            );
            reference.get_or_insert(mined.result);
        }
    }
    say!(
        out,
        "\n(All miners are asserted to produce identical itemsets.)"
    );
    out
}
