//! The traced run: time the calls into each crate's public functions
//! in-process, in the order `cmd_mine` makes them, and join them with the
//! exact counters of one `yafim-cli mine --manifest --critical-path` run.
//!
//! Every in-process mining result is compared with the reference, so a
//! layer that got fast by getting wrong shows up as a failed operation.

use crate::e2e::{self, manifest_metric, Ops, Prepared};
use crate::metrics::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Plan, Workload};
use crate::yardstick;
use std::path::Path;
use yafim::cluster::json::JsonValue;
use yafim::cluster::{ClusterSpec, CostModel, FxHashMap, SimCluster};
use yafim::data::{read_dat, to_lines, Transaction};
use yafim::encode::{tri_index, tri_len, tri_pair};
use yafim::rdd::Context;
use yafim::{
    ap_gen, eclat, fp_growth, parse_transaction, BitmapScratch, ColumnarPartition, DenseEncoder,
    HashTree, Item, Itemset, MatchScratch, MinerRun, MiningResult, MrApriori, MrAprioriConfig,
    TrimMask, Yafim, YafimConfig,
};

/// The HDFS path `cmd_mine` puts the input under.
const INPUT: &str = "input.dat";
const MIB: f64 = (1u64 << 20) as f64;

/// The CLI's default cluster (12 nodes x 8 cores x 24 GiB, Hadoop-era cost
/// model) with the host-default pool, or with an explicit thread count.
fn cluster(threads: Option<usize>) -> SimCluster {
    match threads {
        None => SimCluster::paper_cluster(),
        Some(n) => SimCluster::with_threads(ClusterSpec::paper(), CostModel::hadoop_era(), n),
    }
}

fn loaded_cluster(threads: Option<usize>, tx: &[Transaction]) -> SimCluster {
    let c = cluster(threads);
    c.hdfs().put_overwrite(INPUT, to_lines(tx));
    c
}

/// What `run_distributed` does for this workload, optionally cut off after
/// `max_passes` passes (0 = run to the end).
fn engine_mine(w: &Workload, c: &SimCluster, max_passes: usize) -> MinerRun {
    let spark = |config: YafimConfig| {
        Yafim::new(
            Context::new(c.clone()),
            YafimConfig {
                max_passes,
                ..config
            },
        )
        .mine(INPUT)
        .expect("the input was put on the cluster")
    };
    match w.plan {
        Plan::SparkBitmap => spark(YafimConfig::bitmap(w.support())),
        Plan::SparkPaper => spark(YafimConfig::new(w.support())),
        Plan::MapReduce => MrApriori::new(
            c.clone(),
            MrAprioriConfig {
                max_passes,
                ..MrAprioriConfig::new(w.support())
            },
        )
        .mine(INPUT)
        .expect("the input was put on the cluster"),
    }
}

/// Full equality with the reference, or with its first `max_passes` levels.
fn check_result(
    got: &MiningResult,
    reference: &MiningResult,
    max_passes: usize,
) -> Result<(), String> {
    let want = match max_passes {
        0 => &reference.levels[..],
        m => &reference.levels[..m.min(reference.levels.len())],
    };
    if got.levels == want {
        Ok(())
    } else {
        Err(format!(
            "levels {:?} differ from the reference's {:?} (or their supports do)",
            got.level_sizes(),
            want.iter().map(Vec::len).collect::<Vec<_>>()
        ))
    }
}

/// Host seconds of the sequential kernels of one plan, by role.
#[derive(Default)]
struct Kernels {
    /// Text lines to sorted item vectors (`parse_transaction`); MapReduce
    /// parses the file again in every job.
    parse_s: f64,
    /// Pass 1: count the items, keep the frequent ones.
    count1_s: f64,
    /// Pass 2: dense projection plus the triangular pair count (bitmap
    /// plan), or `ap_gen` + hash-tree build + match on `C2`.
    pass2_s: f64,
    /// Passes `k >= 3`: candidate generation.
    ap_gen_s: f64,
    /// Passes `k >= 3`: building what is counted with (`HashTree::build`
    /// per pass, or the trim plus one `ColumnarPartition::build`).
    store_build_s: f64,
    /// Passes `k >= 3`: counting (`for_each_match` or `count_candidates`).
    match_s: f64,
}

impl Kernels {
    fn total_s(&self) -> f64 {
        self.parse_s
            + self.count1_s
            + self.pass2_s
            + self.ap_gen_s
            + self.store_build_s
            + self.match_s
    }
}

fn expect_level(k: usize, got: &[(Itemset, u64)], reference: &MiningResult) -> Result<(), String> {
    if got == reference.level(k) {
        Ok(())
    } else {
        Err(format!(
            "kernel replay found {} frequent {k}-itemsets, the reference has {} (or supports differ)",
            got.len(),
            reference.level(k).len()
        ))
    }
}

fn itemsets_of(level: &[(Itemset, u64)]) -> Vec<Itemset> {
    level.iter().map(|(s, _)| s.clone()).collect()
}

fn parse_lines(lines: &[String]) -> Vec<Vec<Item>> {
    lines.iter().map(|l| parse_transaction(l)).collect()
}

/// Run the plan's own public kernels over the workload's lines on this one
/// thread, with no engine around them, and check every level they produce.
fn replay(
    plan: Plan,
    lines: &[String],
    min_sup: u64,
    reference: &MiningResult,
    tr: &mut Tracer,
) -> Result<Kernels, String> {
    let mut k = Kernels::default();
    let (txs, t) = tr.span("core.replay.parse", |_| parse_lines(lines));
    k.parse_s += t;

    let (l1, t) = tr.span("core.replay.count1", |_| {
        let mut counts: FxHashMap<Item, u64> = FxHashMap::default();
        for &item in txs.iter().flatten() {
            *counts.entry(item).or_insert(0) += 1;
        }
        let mut l1: Vec<(Itemset, u64)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_sup)
            .map(|(item, c)| (Itemset::single(item), c))
            .collect();
        l1.sort_by(|a, b| a.0.cmp(&b.0));
        l1
    });
    k.count1_s += t;
    expect_level(1, &l1, reference)?;

    let levels = match plan {
        Plan::SparkBitmap => replay_bitmap(txs, l1, min_sup, reference, tr, &mut k)?,
        Plan::SparkPaper | Plan::MapReduce => {
            let reparse = (plan == Plan::MapReduce).then_some(lines);
            replay_hash_tree(txs, l1, reparse, min_sup, reference, tr, &mut k)?
        }
    };
    if levels != reference.max_len() {
        return Err(format!(
            "kernel replay stopped after level {levels}, the reference has {}",
            reference.max_len()
        ));
    }
    Ok(k)
}

/// The paper's Phase II (and MR-Apriori's jobs): every pass generates
/// candidates, builds a hash tree over them and matches every transaction.
/// Returns the number of non-empty levels.
fn replay_hash_tree(
    mut txs: Vec<Vec<Item>>,
    l1: Vec<(Itemset, u64)>,
    reparse: Option<&[String]>,
    min_sup: u64,
    reference: &MiningResult,
    tr: &mut Tracer,
    k: &mut Kernels,
) -> Result<usize, String> {
    let mut prev = l1;
    for pass in 2.. {
        if let Some(lines) = reparse {
            let (parsed, t) = tr.span("core.replay.parse", |_| parse_lines(lines));
            txs = parsed;
            k.parse_s += t;
        }
        let prev_sets = itemsets_of(&prev);
        let name = if pass == 2 {
            "core.replay.pass2"
        } else {
            "core.replay.passk"
        };
        let ((lk, [gen_s, build_s, match_s]), pass_s) = tr.span(name, |tr| {
            let ((candidates, _), gen_s) = tr.span("core.replay.ap_gen", |_| ap_gen(&prev_sets));
            if candidates.is_empty() {
                return (Vec::new(), [gen_s, 0.0, 0.0]);
            }
            let (tree, build_s) =
                tr.span("core.replay.store_build", |_| HashTree::build(candidates));
            let (lk, match_s) = tr.span("core.replay.match", |_| {
                let mut counts = vec![0u64; tree.len()];
                let mut scratch = MatchScratch::default();
                for t in &txs {
                    tree.for_each_match(t, &mut scratch, |idx| counts[idx] += 1);
                }
                tree.candidates()
                    .iter()
                    .zip(counts)
                    .filter(|&(_, c)| c >= min_sup)
                    .map(|(set, c)| (set.clone(), c))
                    .collect::<Vec<_>>()
            });
            (lk, [gen_s, build_s, match_s])
        });
        if pass == 2 {
            k.pass2_s += pass_s;
        } else {
            k.ap_gen_s += gen_s;
            k.store_build_s += build_s;
            k.match_s += match_s;
        }
        if lk.is_empty() {
            return Ok(pass - 1);
        }
        expect_level(pass, &lk, reference)?;
        prev = lk;
    }
    unreachable!("the pass loop only ends by returning")
}

/// The bitmap plan: project to dense ranks, count pairs in a triangular
/// array, trim, build the columnar store once, then AND + popcount.
fn replay_bitmap(
    txs: Vec<Vec<Item>>,
    l1: Vec<(Itemset, u64)>,
    min_sup: u64,
    reference: &MiningResult,
    tr: &mut Tracer,
    k: &mut Kernels,
) -> Result<usize, String> {
    let enc = DenseEncoder::new(l1.iter().map(|(s, _)| s.items()[0]).collect());
    let n = enc.len();
    let decode = |level: &[(Itemset, u64)]| -> Vec<(Itemset, u64)> {
        level
            .iter()
            .map(|(s, c)| (enc.decode_itemset(s), *c))
            .collect()
    };

    let ((dense, l2), pass2_s) = tr.span("core.replay.pass2", |tr| {
        let (dense, _) = tr.span("core.replay.project", |_| {
            txs.iter()
                .map(|t| enc.encode(t))
                .filter(|t| t.len() >= 2)
                .collect::<Vec<_>>()
        });
        let (l2, _) = tr.span("core.replay.pair_count", |_| {
            let mut counts = vec![0u64; tri_len(n)];
            for t in &dense {
                count_pairs(n, t, &mut counts);
            }
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c >= min_sup)
                .map(|(idx, &c)| {
                    let (a, b) = tri_pair(n, idx);
                    (Itemset::from_sorted(vec![a as u32, b as u32]), c)
                })
                .collect::<Vec<_>>()
        });
        (dense, l2)
    });
    k.pass2_s += pass2_s;
    if l2.is_empty() {
        return Ok(1);
    }
    expect_level(2, &decode(&l2), reference)?;

    let (trimmed, t) = tr.span("core.replay.trim", |_| {
        let mask = TrimMask::from_frequent(n, &l2);
        dense
            .into_iter()
            .map(|mut t| {
                t.retain(|&r| mask.keep[r as usize]);
                t
            })
            .filter(|t| t.len() >= 3)
            .collect::<Vec<_>>()
    });
    k.store_build_s += t;

    let mut columnar: Option<ColumnarPartition> = None;
    let mut scratch = BitmapScratch::default();
    let mut prev = l2;
    for pass in 3.. {
        let prev_sets = itemsets_of(&prev);
        let (lk, _) = tr.span("core.replay.passk", |tr| {
            let ((candidates, _), t) = tr.span("core.replay.ap_gen", |_| ap_gen(&prev_sets));
            k.ap_gen_s += t;
            if candidates.is_empty() {
                return Vec::new();
            }
            if columnar.is_none() {
                let (built, t) = tr.span("core.replay.store_build", |_| {
                    ColumnarPartition::build(n, &trimmed)
                });
                k.store_build_s += t;
                columnar = Some(built);
            }
            let col = columnar.as_ref().expect("built above");
            let (lk, t) = tr.span("core.replay.match", |_| {
                let mut lk = Vec::new();
                col.count_candidates(&candidates, &mut scratch, &mut |idx, c| {
                    if c >= min_sup {
                        lk.push((candidates[idx].clone(), c));
                    }
                });
                lk
            });
            k.match_s += t;
            lk
        });
        if lk.is_empty() {
            return Ok(pass - 1);
        }
        expect_level(pass, &decode(&lk), reference)?;
        prev = lk;
    }
    unreachable!("the pass loop only ends by returning")
}

/// The engine's pass-2 inner loop: one array increment per item pair of a
/// dense-rank transaction.
fn count_pairs(n: usize, t: &[Item], counts: &mut [u64]) {
    for i in 0..t.len().saturating_sub(1) {
        let base = tri_index(n, t[i] as usize, t[i] as usize + 1);
        for &b in &t[i + 1..] {
            counts[base + (b - t[i]) as usize - 1] += 1;
        }
    }
}

/// The records pass 2 shuffles: per partition, one `(pair cell, count)` for
/// every pair of frequent items that co-occurs in it. Same shape for every
/// plan (candidate index and triangle cell coincide).
fn pass2_shuffle_records(
    tx: &[Transaction],
    reference: &MiningResult,
    partitions: usize,
) -> Vec<(u32, u64)> {
    let enc = DenseEncoder::new(
        reference
            .level(1)
            .iter()
            .map(|(s, _)| s.items()[0])
            .collect(),
    );
    let n = enc.len();
    let mut records = Vec::new();
    for chunk in tx.chunks(tx.len().div_ceil(partitions).max(1)) {
        let mut counts = vec![0u64; tri_len(n)];
        for t in chunk {
            count_pairs(n, &enc.encode(t), &mut counts);
        }
        records.extend(
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(idx, &c)| (idx as u32, c)),
        );
    }
    records
}

/// The speed of this host right now, which on a shared VM drifts by tens of
/// percent and would otherwise read as a change in the code.
fn host_yardstick(tr: &mut Tracer) -> std::io::Result<f64> {
    tr.span("host.yardstick", |_| yardstick::read()).0
}

fn read_loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// What the traced run measured for one workload: host seconds are medians
/// over the run's repetitions, counts are exact.
#[derive(Default)]
pub struct Measured {
    /// The untraced end-to-end median the layer times are set against.
    mine_wall_s: f64,
    /// The same subprocess with `--manifest --critical-path`.
    traced_wall_s: f64,
    /// That run's manifest: the exact counters and the virtual clock.
    manifest: Option<JsonValue>,
    is_mapreduce: bool,
    input_mb: f64,
    transactions: usize,
    read_dat_s: f64,
    to_lines_s: f64,
    hdfs_put_s: f64,
    /// The engine on the host-default pool and on one thread.
    mine_s: f64,
    mine_1t_s: f64,
    /// One thread, stopped after pass 1 and after pass 2.
    upto_pass1_s: f64,
    upto_pass2_s: f64,
    kernels: Kernels,
    reduce_by_key_s: f64,
    probe_records: usize,
    probe_keys: usize,
    mapreduce_job_s: f64,
    fpgrowth_s: f64,
    eclat_s: f64,
    passes: usize,
    candidates: usize,
    itemsets: usize,
    nproc: usize,
    loadavg_before: f64,
    loadavg_after: f64,
    /// Mean of [`host_yardstick`] before and after the run.
    yardstick_s: f64,
}

impl Measured {
    /// The per-layer metrics, in the order `BENCHMARK.json` declares them.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name: &str| {
            self.manifest
                .as_ref()
                .map_or(0.0, |doc| manifest_metric(doc, name))
        };
        let tasks = m("tasks");
        let records = m("counter.executor.records_written");
        let (hits, misses) = (m("counter.cache.hits"), m("counter.cache.misses"));
        let mapreduce = f64::from(u8::from(self.is_mapreduce));
        let k = &self.kernels;
        let sim_tax_s = self.mine_1t_s - k.total_s();
        let in_process_s = self.read_dat_s + self.to_lines_s + self.hdfs_put_s + self.mine_s;

        let s = |name, value| Metric::new(name, "s", value);
        let sim = |name, value| Metric::new(name, "sim_s", value);
        let count = |name, value| Metric::new(name, "count", value);
        let mib = |name, value| Metric::new(name, "MiB", value);
        let ratio = |name, value| Metric::new(name, "ratio", value);
        vec![
            s("cli.overhead_s", self.mine_wall_s - in_process_s),
            s(
                "cli.trace_overhead_s",
                self.traced_wall_s - self.mine_wall_s,
            ),
            mib("data.input_mb", self.input_mb),
            count("data.transactions", self.transactions as f64),
            s("data.read_dat_s", self.read_dat_s),
            Metric::new(
                "data.read_dat_mb_per_s",
                "MiB/s",
                self.input_mb / self.read_dat_s,
            ),
            s("data.to_lines_s", self.to_lines_s),
            s("cluster.hdfs_put_s", self.hdfs_put_s),
            count("cluster.jobs", m("jobs")),
            count("cluster.stages", m("stages")),
            count("cluster.tasks", tasks),
            Metric::new(
                "cluster.sim_tax_us_per_task",
                "us",
                sim_tax_s * 1e6 / tasks.max(1.0),
            ),
            sim("cluster.cp_compute_s", m("bucket.compute")),
            sim("cluster.cp_driver_s", m("bucket.driver")),
            sim("cluster.cp_scheduler_idle_s", m("bucket.scheduler_idle")),
            sim(
                "cluster.cp_shuffle_s",
                m("bucket.shuffle_read") + m("bucket.shuffle_write"),
            ),
            sim("cluster.cp_broadcast_s", m("bucket.broadcast")),
            sim("cluster.cp_cache_s", m("bucket.cache")),
            sim("cluster.cp_hdfs_io_s", m("bucket.hdfs_io")),
            count("rdd.shuffle_records", records),
            mib("rdd.shuffle_mb", m("counter.shuffle.write_bytes") / MIB),
            mib("rdd.broadcast_mb", m("counter.broadcast.ship_bytes") / MIB),
            ratio("rdd.cache_hit_ratio", hits / (hits + misses).max(1.0)),
            mib("rdd.cache_peak_mb", m("gauge.cache.peak_bytes") / MIB),
            mib(
                "rdd.materialized_mb",
                m("counter.executor.bytes_materialized") / MIB,
            ),
            ratio("rdd.records_per_itemset", records / self.itemsets as f64),
            s("rdd.reduce_by_key_s", self.reduce_by_key_s),
            count("rdd.probe_records", self.probe_records as f64),
            count("rdd.probe_keys", self.probe_keys as f64),
            count("mapreduce.jobs", mapreduce * m("jobs")),
            count("mapreduce.tasks", mapreduce * tasks),
            s("mapreduce.job_s", self.mapreduce_job_s),
            s("core.mine_s", self.mine_s),
            s("core.mine_1t_s", self.mine_1t_s),
            ratio("core.parallel_speedup", self.mine_1t_s / self.mine_s),
            s("core.pass1_s", self.upto_pass1_s),
            s("core.pass2_s", self.upto_pass2_s - self.upto_pass1_s),
            s("core.passk_s", self.mine_1t_s - self.upto_pass2_s),
            count("core.passes", self.passes as f64),
            count("core.candidates", self.candidates as f64),
            count("core.itemsets", self.itemsets as f64),
            ratio(
                "core.useful_ratio",
                self.itemsets as f64 / self.candidates as f64,
            ),
            s("core.parse_s", k.parse_s),
            s("core.count1_s", k.count1_s),
            s("core.pass2_kernel_s", k.pass2_s),
            s("core.ap_gen_s", k.ap_gen_s),
            s("core.store_build_s", k.store_build_s),
            s("core.match_s", k.match_s),
            s("core.kernel_seq_s", k.total_s()),
            s("core.sim_tax_s", sim_tax_s),
            ratio("core.sim_tax_frac", sim_tax_s / self.mine_1t_s),
            s("core.fpgrowth_s", self.fpgrowth_s),
            s("core.eclat_s", self.eclat_s),
            count("host.nproc", self.nproc as f64),
            Metric::new("host.loadavg_1m_before", "load", self.loadavg_before),
            Metric::new("host.loadavg_1m_after", "load", self.loadavg_after),
            s("host.yardstick_s", self.yardstick_s),
        ]
    }
}

/// The traced run of one workload. `mine_wall_s` is the untraced end-to-end
/// median; every repeated measurement is made `reps` times.
#[allow(clippy::too_many_arguments)]
pub fn traced_run(
    cli: &Path,
    w: &Workload,
    p: &Prepared,
    mine_wall_s: f64,
    reps: usize,
    work_dir: &Path,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> std::io::Result<Measured> {
    let mut out = Measured {
        mine_wall_s,
        is_mapreduce: w.plan == Plan::MapReduce,
        input_mb: std::fs::metadata(&p.dat)?.len() as f64 / MIB,
        transactions: p.tx.len(),
        itemsets: p.reference.total(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        loadavg_before: read_loadavg_1m(),
        yardstick_s: host_yardstick(tr)? / 2.0,
        ..Measured::default()
    };
    let min_sup = w.support().resolve(p.tx.len() as u64);

    // --- cli: the traced subprocess, for the tracing overhead and the
    // exact counters. ---
    let manifest_path = work_dir.join(format!("{}.traced.manifest.json", w.name));
    let manifest_arg = manifest_path.to_string_lossy().into_owned();
    let mut traced_wall = Vec::new();
    for _ in 0..reps {
        let (run, _) = tr.span("cli.mine_traced", |_| {
            e2e::mine(
                cli,
                w,
                &p.dat,
                &["--manifest", &manifest_arg, "--critical-path"],
            )
        });
        let run = run?;
        ops.record("traced CLI run", e2e::check_output(&run, w, &p.reference));
        traced_wall.push(run.usage.wall_s);
    }
    out.traced_wall_s = median(&traced_wall);
    let manifest = e2e::read_manifest(&manifest_path)?;
    ops.record(
        "manifest determinism",
        e2e::same_manifest_metrics(&p.manifest, &manifest),
    );
    out.manifest = Some(manifest);

    // --- outside-in: the calls cmd_mine makes, in its order. ---
    let (mut read_s, mut lines_s, mut put_s, mut mine_s) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let (run, _) = tr.span(
            "cli.cmd_mine_in_process",
            |tr| -> std::io::Result<MinerRun> {
                let (tx, t) = tr.span("data.read_dat", |_| read_dat(&p.dat));
                let tx = tx?;
                read_s.push(t);
                let (lines, t) = tr.span("data.to_lines", |_| to_lines(&tx));
                lines_s.push(t);
                let c = cluster(None);
                let (_, t) = tr.span("cluster.hdfs_put", |_| c.hdfs().put_overwrite(INPUT, lines));
                put_s.push(t);
                let (run, t) = tr.span("core.mine", |_| engine_mine(w, &c, 0));
                mine_s.push(t);
                Ok(run)
            },
        );
        let run = run?;
        ops.record("core.mine", check_result(&run.result, &p.reference, 0));
        out.passes = run.passes.len();
        out.candidates = run.passes.iter().map(|p| p.candidates).sum();
    }
    out.read_dat_s = median(&read_s);
    out.to_lines_s = median(&lines_s);
    out.hdfs_put_s = median(&put_s);
    out.mine_s = median(&mine_s);

    // --- core: one pool thread, whole and cut off after passes 1 and 2. ---
    let mut one_thread = |name: &str, max_passes: usize| -> f64 {
        let mut secs = Vec::new();
        for _ in 0..reps {
            let c = loaded_cluster(Some(1), &p.tx);
            let (run, t) = tr.span(name, |_| engine_mine(w, &c, max_passes));
            ops.record(name, check_result(&run.result, &p.reference, max_passes));
            secs.push(t);
        }
        median(&secs)
    };
    out.mine_1t_s = one_thread("core.mine_1t", 0);
    out.upto_pass1_s = one_thread("core.mine_1t.max_passes_1", 1);
    out.upto_pass2_s = one_thread("core.mine_1t.max_passes_2", 2);

    // --- core: the plan's kernels alone, sequentially. ---
    let lines = to_lines(&p.tx);
    let mut kernel_runs = Vec::new();
    for _ in 0..reps {
        let (k, _) = tr.span("core.replay", |tr| {
            replay(w.plan, &lines, min_sup, &p.reference, tr)
        });
        ops.record("core.replay", k.as_ref().map(|_| ()).map_err(String::clone));
        kernel_runs.extend(k);
    }
    drop(lines);
    if !kernel_runs.is_empty() {
        let mid = |f: fn(&Kernels) -> f64| median(&kernel_runs.iter().map(f).collect::<Vec<_>>());
        out.kernels = Kernels {
            parse_s: mid(|k| k.parse_s),
            count1_s: mid(|k| k.count1_s),
            pass2_s: mid(|k| k.pass2_s),
            ap_gen_s: mid(|k| k.ap_gen_s),
            store_build_s: mid(|k| k.store_build_s),
            match_s: mid(|k| k.match_s),
        };
    }

    // --- rdd: one reduce_by_key job of pass 2's shape, alone. ---
    let partitions = Context::new(cluster(None)).config().default_parallelism;
    let records = pass2_shuffle_records(&p.tx, &p.reference, partitions);
    out.probe_records = records.len();
    let mut rbk_s = Vec::new();
    for _ in 0..reps {
        let ctx = Context::new(cluster(None));
        let input = records.clone();
        let (reduced, t) = tr.span("rdd.reduce_by_key", |_| {
            ctx.parallelize_with_partitions(input, partitions)
                .reduce_by_key(|a, b| a + b)
                .collect()
        });
        rbk_s.push(t);
        out.probe_keys = reduced.len();
        let frequent = reduced.iter().filter(|&&(_, c)| c >= min_sup).count();
        let want = p.reference.level(2).len();
        ops.record(
            "rdd.reduce_by_key",
            if frequent == want {
                Ok(())
            } else {
                Err(format!(
                    "{frequent} pairs reach the support, the reference has {want}"
                ))
            },
        );
    }
    drop(records);
    out.reduce_by_key_s = median(&rbk_s);

    // --- mapreduce: one job (MR-Apriori's pass 1) over the input, alone. ---
    let mut mr_job_s = Vec::new();
    for _ in 0..reps {
        let c = loaded_cluster(None, &p.tx);
        let config = MrAprioriConfig {
            max_passes: 1,
            ..MrAprioriConfig::new(w.support())
        };
        let (run, t) = tr.span("mapreduce.job", |_| {
            MrApriori::new(c.clone(), config)
                .mine(INPUT)
                .expect("the input was put on the cluster")
        });
        ops.record("mapreduce.job", check_result(&run.result, &p.reference, 1));
        mr_job_s.push(t);
    }
    out.mapreduce_job_s = median(&mr_job_s);

    // --- baselines: plain single-threaded miners on the same input. ---
    let (fp, t) = tr.span("core.fpgrowth", |_| fp_growth(&p.tx, w.support()));
    ops.record("core.fpgrowth", check_result(&fp, &p.reference, 0));
    out.fpgrowth_s = t;
    let (ec, t) = tr.span("core.eclat", |_| eclat(&p.tx, w.support()));
    ops.record("core.eclat", check_result(&ec, &p.reference, 0));
    out.eclat_s = t;

    out.loadavg_after = read_loadavg_1m();
    out.yardstick_s += host_yardstick(tr)? / 2.0;
    Ok(out)
}
