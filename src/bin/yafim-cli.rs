//! `yafim-cli` — command-line frontend to the whole library.
//!
//! ```text
//! yafim-cli generate --dataset mushroom --out mushroom.dat [--scale 0.5]
//! yafim-cli mine --input mushroom.dat --support 35% [--miner spark]
//!           [--nodes 12 --cores 8] [--rules 0.8] [--top 10]
//!           [--report] [--trace out.json]
//! yafim-cli compare --input mushroom.dat --support 35%
//! ```
//!
//! `--report` prints the run's record as text: a line of anomalies (faults,
//! fallbacks, dropped spans) when there are any, one row per pass with where
//! its virtual time went, one row per stage, and the totals;
//! `--trace FILE` writes a Chrome trace (open in <https://ui.perfetto.dev>
//! or `chrome://tracing`) of the run's job/stage/task spans, one process
//! per simulated node and one thread per core.
//!
//! Miners ([`Miner`]): `sequential` (Apriori), `eclat`, `fpgrowth`
//! (single-node); `spark` (YAFIM, default), `mapreduce` (MR-Apriori/SPC),
//! `son`, `pfp` (distributed, on the simulated cluster — virtual timings are
//! reported).

use std::process::exit;
use yafim::cluster::{ClusterSpec, CostModel, Lines, SimCluster};
use yafim::data::{read_canonical_text, read_dat, PaperDataset};
use yafim::{generate_rules, Miner, MinerRun, Phase2Plan, Support};

/// Every command's output, a line at a time. A reader that went away
/// (`yafim-cli mine … | head -n 1`) ends the output quietly, and the run
/// still finishes and writes its files; any other write error is one line
/// and exit 1.
fn say(line: std::fmt::Arguments) {
    use std::io::{ErrorKind, Write};
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("stdout: {e}");
            exit(1)
        }
    }
}

macro_rules! say {
    ($($arg:tt)*) => { say(format_args!($($arg)*)) };
}

fn usage() -> ! {
    let mut miners: Vec<&str> = Miner::ALL.map(Miner::name).to_vec();
    miners.dedup();
    eprintln!(
        "usage:
  yafim-cli generate --dataset <mushroom|t10|chess|pumsb|medical> --out <file.dat> [--scale X]
  yafim-cli mine     --input <file.dat> --support <N|P%> [--miner <{}>]
                     [--phase2 <paper|opt|bitmap>] [--nodes N] [--cores C]
                     [--rules MIN_CONF] [--top K]
                     [--fault-plan plan.json] [--report] [--trace out.json]
                     [--manifest out.json]
  yafim-cli compare  --input <file.dat> --support <N|P%> [--phase2 <paper|opt|bitmap>]
                     [--nodes N] [--cores C] [--fault-plan plan.json]",
        miners.join("|")
    );
    exit(2)
}

/// `--name value` lookup over argv, which [`only`] has checked.
fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Refuse, in one line and exit 1, any argument `command` does not read:
/// it reads `--name value` for each of `valued` and the bare `switches`,
/// each at most once. A misspelt flag, a flag given twice or a value left
/// out (last, or followed by another `--flag`) would otherwise run another
/// experiment than the one asked for.
fn only(command: &str, valued: &[&str], switches: &[&str]) {
    let mut seen = Vec::new();
    let mut args = std::env::args().skip(2);
    while let Some(a) = args.next() {
        let takes_value = valued.contains(&a.as_str());
        let refusal = if !takes_value && !switches.contains(&a.as_str()) {
            "unknown argument"
        } else if seen.contains(&a) {
            "repeated argument"
        } else if takes_value && args.next().is_none_or(|v| v.starts_with("--")) {
            "missing value"
        } else {
            seen.push(a);
            continue;
        };
        eprintln!("{refusal} for {command}: {a}");
        exit(1)
    }
}

/// `--name value` parsed as a `T` that passes `valid`. A value that is
/// there but does not parse, or is out of range, is a one-line error and
/// exit 1 — never a silent default.
fn parsed_arg<T: std::str::FromStr>(
    name: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    let raw = arg(name)?;
    match raw.parse::<T>() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            eprintln!("bad {name} (expected {expected}): {raw}");
            exit(1)
        }
    }
}

fn parse_support(s: &str) -> Support {
    if let Some(pct) = s.strip_suffix('%') {
        match pct.parse::<f64>() {
            Ok(p) if p > 0.0 && p <= 100.0 => Support::percent(p),
            _ => {
                eprintln!("bad support percentage: {s}");
                exit(2)
            }
        }
    } else {
        match s.parse::<u64>() {
            Ok(n) if n > 0 => Support::Count(n),
            _ => {
                eprintln!("bad support count: {s}");
                exit(2)
            }
        }
    }
}

fn parse_dataset(s: &str) -> PaperDataset {
    match s {
        "mushroom" => PaperDataset::Mushroom,
        "t10" | "t10i4d100k" => PaperDataset::T10I4D100K,
        "chess" => PaperDataset::Chess,
        "pumsb" | "pumsb_star" => PaperDataset::PumsbStar,
        "medical" => PaperDataset::Medical,
        _ => {
            eprintln!("unknown dataset: {s}");
            exit(2)
        }
    }
}

/// Most virtual cores `--nodes` x `--cores` may ask for (the scheduler keeps
/// a slot per core): 10 000x the paper's 96.
const MAX_CORES: u32 = 1 << 20;

fn cluster() -> SimCluster {
    let at_least_one = |n: &u32| *n >= 1;
    let nodes = parsed_arg("--nodes", "an integer >= 1", at_least_one).unwrap_or(12);
    let cores = parsed_arg("--cores", "an integer >= 1", at_least_one).unwrap_or(8);
    if nodes.checked_mul(cores).is_none_or(|n| n > MAX_CORES) {
        eprintln!("bad --nodes x --cores (expected <= {MAX_CORES} cores): {nodes} x {cores}");
        exit(1)
    }
    SimCluster::new(
        ClusterSpec::new(nodes, cores, 24 * 1024 * 1024 * 1024),
        CostModel::hadoop_era(),
    )
}

/// What reading the input file gave, or one line and exit 1.
fn loaded<T>(path: &str, read: std::io::Result<T>, transactions: impl Fn(&T) -> usize) -> T {
    match read {
        Ok(input) if transactions(&input) > 0 => input,
        Ok(_) => {
            eprintln!("{path}: no transactions found");
            exit(1)
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            exit(1)
        }
    }
}

/// The input as the distributed miners take it, which only ever see text:
/// one buffer of canonical lines, checked on as many threads as `c`'s pool
/// has. Every cluster it is put on shares it.
fn loaded_lines(path: &str, c: &SimCluster) -> Lines {
    let text = read_canonical_text(path, c.pool().size());
    loaded(path, text, |(_, offsets)| offsets.len() - 1).into()
}

fn cmd_generate() {
    only("generate", &["--dataset", "--out", "--scale"], &[]);
    let dataset = parse_dataset(&arg("--dataset").unwrap_or_else(|| usage()));
    let out = arg("--out").unwrap_or_else(|| usage());
    let in_unit_interval = |x: &f64| *x > 0.0 && *x <= 1.0;
    let scale = parsed_arg("--scale", "a fraction in (0, 1]", in_unit_interval).unwrap_or(1.0);
    let tx = dataset.generate_scaled(scale);
    if let Err(e) = yafim::data::write_dat(&out, &tx) {
        eprintln!("{out}: {e}");
        exit(1);
    }
    let s = yafim::data::stats(&tx);
    say!(
        "wrote {} transactions ({} distinct items, avg length {:.1}) to {out}",
        s.transactions,
        s.distinct_items,
        s.avg_len
    );
}

/// `--phase2 <paper|opt|bitmap>` — the Spark miner's Phase-II plan:
/// `paper` (default) is the paper-faithful hash-tree engine, `opt` runs
/// dense re-encoding, the triangular pass-2 counter, hash-tree matching and
/// cross-pass trimming, and `bitmap` swaps the `k ≥ 3` hash tree for vertical
/// TID-bitmap counting (word-wise AND + popcount over a columnar store).
/// Results are identical; only the virtual timings move.
fn phase2_plan() -> Phase2Plan {
    let Some(name) = arg("--phase2") else {
        return Phase2Plan::Paper;
    };
    Phase2Plan::parse(&name).unwrap_or_else(|| {
        eprintln!("unknown --phase2 mode `{name}`: expected paper, opt or bitmap");
        exit(1)
    })
}

/// `--fault-plan FILE` — a JSON fault plan (see `results/*.fault.json` for
/// examples and `FaultPlan::to_json` for the schema) installed on the
/// simulated cluster before mining. Seeded and fully deterministic: the same
/// plan over the same input reproduces results, virtual time and recovery
/// counters bit-for-bit. A plan that names a node the `nodes`-node cluster
/// lacks is refused like any other invalid one.
fn fault_plan(nodes: u32) -> Option<yafim::cluster::FaultPlan> {
    let path = arg("--fault-plan")?;
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            exit(1)
        }
    };
    let value = match yafim::cluster::json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: invalid JSON: {e}");
            exit(1)
        }
    };
    let plan = match yafim::cluster::FaultPlan::from_json(&value) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{path}: invalid fault plan: {e}");
            exit(1)
        }
    };
    let losses = plan.node_losses.iter().map(|&(id, _)| ("node_losses", id));
    let slow = plan.slow_nodes.iter().map(|&(id, _)| ("slow_nodes", id));
    if let Some((field, id)) = losses.chain(slow).find(|(_, id)| id.0 >= nodes) {
        eprintln!(
            "{path}: invalid fault plan: fault plan field `{field}` names node {}, \
             but --nodes is {nodes}",
            id.0
        );
        exit(1)
    }
    Some(plan)
}

/// Run a distributed `miner` over `lines` on `c`, a cluster the flags
/// describe. A typed refusal (engine failure under the fault plan, or a
/// level rejected by the mining-invariant audit) is one line and exit 1.
fn run_distributed(miner: Miner, c: &SimCluster, lines: Lines, support: Support) -> MinerRun {
    if let Some(plan) = fault_plan(c.spec().nodes) {
        c.faults().set_plan(plan);
    }
    c.hdfs().put_overwrite("input.dat", lines);
    miner.mine(c, "input.dat", support).unwrap_or_else(|e| {
        eprintln!("{} miner refused the run: {e}", miner.name());
        exit(1)
    })
}

fn cmd_mine() {
    let valued = [
        "--input",
        "--support",
        "--miner",
        "--phase2",
        "--nodes",
        "--cores",
        "--rules",
        "--top",
        "--fault-plan",
        "--trace",
        "--manifest",
    ];
    // `--critical-path` is read and ignored: `--report` replaced it, and
    // the repo benchmark (`benchmark/src/e2e.rs`, `benchmark/src/layers.rs`)
    // still passes it.
    only("mine", &valued, &["--report", "--critical-path"]);
    let input = arg("--input").unwrap_or_else(|| usage());
    let support = parse_support(&arg("--support").unwrap_or_else(|| usage()));
    // YAFIM unless told otherwise; an unknown miner is refused before any
    // input is read, and so is a Phase-II plan for a miner that has none.
    let phase2 = phase2_plan();
    let yafim = Miner::Spark(phase2).name();
    let name = arg("--miner").unwrap_or_else(|| yafim.to_string());
    let miner = Miner::parse(&name, phase2).unwrap_or_else(|| {
        eprintln!("unknown miner: {name}");
        exit(2)
    });
    if miner.plan().is_none() && arg("--phase2").is_some() {
        eprintln!("--phase2 only applies to --miner {yafim}, not `{name}`");
        exit(1)
    }
    let top = parsed_arg("--top", "a count", |_: &usize| true).unwrap_or(10);
    let min_conf = parsed_arg("--rules", "a confidence in [0, 1]", |c: &f64| {
        (0.0..=1.0).contains(c)
    });

    // The miner family picks the loader: a single-node miner takes the
    // parsed transactions, a distributed one only ever sees text.
    let (result, transactions, wall, virtual_secs, cluster) = if let Some(mine) = miner.in_memory()
    {
        let tx = loaded(&input, read_dat(&input), Vec::len);
        let start = std::time::Instant::now();
        let result = mine(&tx, support);
        (result, tx.len(), start.elapsed(), None, None)
    } else {
        let c = cluster();
        let lines = loaded_lines(&input, &c);
        let n = lines.len();
        let start = std::time::Instant::now();
        let run = run_distributed(miner, &c, lines, support);
        let wall = start.elapsed();
        (run.result, n, wall, Some(run.total_seconds), Some(c))
    };

    say!(
        "{}: {} frequent itemsets (longest {}), levels {:?}",
        miner.name(),
        result.total(),
        result.max_len(),
        result.level_sizes()
    );
    match virtual_secs {
        Some(v) => say!("virtual cluster time {v:.2}s (wall {wall:.2?})"),
        None => say!("wall time {wall:.2?}"),
    }

    let mut by_support: Vec<_> = result.iter().filter(|(s, _)| s.len() >= 2).collect();
    by_support.sort_by_key(|(_, sup)| std::cmp::Reverse(*sup));
    if !by_support.is_empty() {
        say!("\ntop itemsets (length >= 2):");
        for (set, sup) in by_support.into_iter().take(top) {
            say!("  {set}  support {sup}");
        }
    }

    if let Some(min_conf) = min_conf {
        let rules = generate_rules(&result, transactions as u64, min_conf);
        say!("\n{} rules at confidence >= {min_conf}:", rules.len());
        for rule in rules.iter().take(top) {
            say!("  {rule}");
        }
    }

    // Every sink below reads the cluster's span log, which a single-node
    // miner does not have.
    let (trace, manifest) = (arg("--trace"), arg("--manifest"));
    let Some(c) = &cluster else {
        for (sink, asked) in [
            ("--report", flag("--report")),
            ("--trace", trace.is_some()),
            ("--manifest", manifest.is_some()),
        ] {
            if asked {
                eprintln!("{sink} requires a distributed miner");
            }
        }
        return;
    };

    if flag("--report") {
        say!("\n{}", yafim::cluster::full_report(c.metrics(), c.cost()));
    }

    if let Some(path) = trace {
        let json = yafim::cluster::chrome_trace(c.metrics(), c.spec());
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("{path}: {e}");
            exit(1);
        }
        say!("\nwrote Chrome trace to {path} (open in https://ui.perfetto.dev)");
    }

    // `--manifest FILE` — write the versioned run manifest (the same
    // document `repro` commits under `results/`), checked first.
    if let Some(path) = manifest {
        use yafim::cluster::json::JsonValue;
        let dataset = JsonValue::object(vec![
            ("input", input.as_str().into()),
            ("transactions", transactions.into()),
        ]);
        let config = JsonValue::object(vec![
            ("miner", miner.name().into()),
            ("phase2", phase2.name().into()),
            ("nodes", (c.spec().nodes as u64).into()),
            ("cores_per_node", (c.spec().cores_per_node as u64).into()),
        ]);
        let mut manifest = yafim::cluster::RunManifest::capture(
            "yafim-cli mine",
            miner.name(),
            dataset,
            config,
            c,
        );
        manifest.push_metric("frequent_itemsets", result.total() as f64);
        let written = manifest
            .check()
            .map_err(|e| format!("incoherent manifest: {e}"))
            .and_then(|()| {
                std::fs::write(&path, format!("{}\n", manifest.to_json()))
                    .map_err(|e| e.to_string())
            });
        if let Err(e) = written {
            eprintln!("{path}: {e}");
            exit(1);
        }
        say!("\nwrote run manifest to {path}");
    }
}

fn cmd_compare() {
    let valued = [
        "--input",
        "--support",
        "--phase2",
        "--nodes",
        "--cores",
        "--fault-plan",
    ];
    only("compare", &valued, &[]);
    let input = arg("--input").unwrap_or_else(|| usage());
    let support = parse_support(&arg("--support").unwrap_or_else(|| usage()));
    // A cluster each, all holding the one buffer; the first is also the one
    // whose pool the reader borrows its thread count from.
    let mut first = Some(cluster());
    let lines = loaded_lines(&input, first.as_ref().expect("not taken yet"));
    let phase2 = phase2_plan();

    say!("{:<12} {:>12} {:>10}", "miner", "virtual (s)", "itemsets");
    let mut reference = None;
    // Every distributed miner, YAFIM once (under `--phase2`, if given).
    let rows = Miner::ALL
        .into_iter()
        .filter(|m| m.is_distributed() && m.plan().is_none_or(|p| p == phase2));
    for miner in rows {
        let name = miner.name();
        let c = first.take().unwrap_or_else(cluster);
        let run = run_distributed(miner, &c, lines.clone(), support);
        if let Some(r) = &reference {
            assert_eq!(r, &run.result, "{name} diverges — please report a bug");
        }
        say!(
            "{:<12} {:>12.2} {:>10}",
            name,
            run.total_seconds,
            run.result.total()
        );
        reference.get_or_insert(run.result);
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("generate") => cmd_generate(),
        Some("mine") => cmd_mine(),
        Some("compare") => cmd_compare(),
        _ => usage(),
    }
}
