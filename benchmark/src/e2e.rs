//! The end-to-end side: set a workload up from its seed, run `yafim-cli
//! mine` as a subprocess in a closed loop, and check what it prints.

use crate::child::{self, ChildRun};
use crate::metrics::Metric;
use crate::stats::median;
use crate::workload::Workload;
use crate::yardstick;
use std::path::{Path, PathBuf};
use std::time::Instant;
use yafim::cluster::json::{self, JsonValue};
use yafim::data::{write_dat, Transaction};
use yafim::{fp_growth, Itemset, MiningResult};

/// A run sets the workload up at least `.start` times and then again, up to
/// `.end` times, while set-up has taken less than [`SETUP_BUDGET_S`] in all:
/// the cheap set-ups need the most samples for a steady median.
pub const SETUP_REPS: std::ops::Range<usize> = 3..9;
pub const SETUP_BUDGET_S: f64 = 6.0;
/// The timed loop reads the yardstick again once the subprocesses since the
/// last reading have run for this long: after every run of the slow
/// workloads, every third of the fast ones, about a fifth of the loop's time.
const YARDSTICK_EVERY_S: f64 = 0.8;
/// How many itemsets `yafim-cli mine` prints by default (`--top`).
const DEFAULT_TOP: usize = 10;

/// Operations attempted and failed; every CLI run and every in-process
/// result compared with the reference is one operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(format!("{what}: {why}"));
            }
        }
    }
}

/// A workload ready to be timed.
pub struct Prepared {
    pub dat: PathBuf,
    pub tx: Vec<Transaction>,
    /// `fp_growth` on the generated transactions: an independent miner.
    pub reference: MiningResult,
    /// The run manifest of the first warm-up run.
    pub manifest: JsonValue,
}

/// A named number of a run manifest (0 when the engine does not report it).
pub fn manifest_metric(manifest: &JsonValue, name: &str) -> f64 {
    manifest
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

pub fn read_manifest(path: &Path) -> std::io::Result<JsonValue> {
    json::parse(&std::fs::read_to_string(path)?)
        .map_err(|e| std::io::Error::other(format!("run manifest {}: {e}", path.display())))
}

/// The virtual clock and every exact counter repeat bit-for-bit from run to
/// run on one input; anything else breaks the contract the manifest gates
/// rest on.
pub fn same_manifest_metrics(a: &JsonValue, b: &JsonValue) -> Result<(), String> {
    if a.get("metrics") == b.get("metrics") {
        Ok(())
    } else {
        Err("two runs on the same input wrote different manifest metrics".into())
    }
}

/// One `yafim-cli mine` subprocess on the workload's file.
pub fn mine(cli: &Path, w: &Workload, dat: &Path, extra: &[&str]) -> std::io::Result<ChildRun> {
    let mut args = vec!["mine".to_string(), "--input".to_string()];
    args.push(dat.to_string_lossy().into_owned());
    args.extend(w.cli_tail());
    args.extend(extra.iter().map(|s| s.to_string()));
    child::run(cli, &args)
}

/// Generate the dataset from the seed, write the `.dat`, mine the reference
/// and make two untimed warm-up runs (the first also writes the manifest
/// that `virtual_s` and the exact counters come from).
pub fn setup(
    cli: &Path,
    w: &Workload,
    seed: u64,
    work_dir: &Path,
    corrupt_reference: bool,
    ops: &mut Ops,
) -> std::io::Result<Prepared> {
    let tx = w.transactions(seed);
    let dat = work_dir.join(format!("{}.dat", w.name));
    write_dat(&dat, &tx)?;
    let mut reference = fp_growth(&tx, w.support());
    if corrupt_reference {
        // `--self-test`: a checker that accepts this reference is blind.
        let top = reference.levels[1]
            .iter_mut()
            .max_by_key(|(_, support)| *support)
            .expect("every workload has frequent pairs");
        top.1 += 1;
    }

    let manifest_path = work_dir.join(format!("{}.manifest.json", w.name));
    let manifest_arg = manifest_path.to_string_lossy().into_owned();
    let warm = mine(
        cli,
        w,
        &dat,
        &["--manifest", &manifest_arg, "--critical-path"],
    )?;
    ops.record("warm-up run", check_output(&warm, w, &reference));
    let manifest = read_manifest(&manifest_path)?;
    let warm = mine(cli, w, &dat, &[])?;
    ops.record("warm-up run", check_output(&warm, w, &reference));

    Ok(Prepared {
        dat,
        tx,
        reference,
        manifest,
    })
}

/// The timed repetitions of one workload, and the yardstick readings taken
/// among them.
pub struct Timed {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub yardstick_s: Vec<f64>,
    pub peak_rss_mib: f64,
    pub elapsed_s: f64,
}

impl Timed {
    /// Median wall time as the clock read it.
    pub fn raw_wall_s(&self) -> f64 {
        median(&self.wall_s)
    }

    pub fn raw_cpu_s(&self) -> f64 {
        median(&self.cpu_s)
    }

    pub fn yardstick_s(&self) -> f64 {
        median(&self.yardstick_s)
    }

    /// The reported metric: the median at the host's reference speed.
    pub fn mine_wall_s(&self) -> f64 {
        yardstick::normalised(self.raw_wall_s(), self.yardstick_s())
    }

    pub fn mine_cpu_s(&self) -> f64 {
        yardstick::normalised(self.raw_cpu_s(), self.yardstick_s())
    }
}

/// The end-to-end metrics of one workload, in the order `BENCHMARK.json`
/// declares them.
pub fn end_to_end_metrics(
    mine_wall_s: f64,
    mine_cpu_s: f64,
    peak_rss_mib: f64,
    virtual_s: f64,
    setup_s: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("mine_wall_s", "s", mine_wall_s),
        Metric::new("mine_cpu_s", "s", mine_cpu_s),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mib),
        Metric::new("virtual_s", "sim_s", virtual_s),
        Metric::new("setup_s", "s", setup_s),
    ]
}

/// Closed loop, one client: run the CLI back to back for `seconds` (and at
/// least `min_reps` times), checking every run's output, with a yardstick
/// reading before, after and every [`YARDSTICK_EVERY_S`] in between. One
/// process runs at a time.
pub fn timed_reps(
    cli: &Path,
    w: &Workload,
    p: &Prepared,
    seconds: f64,
    min_reps: usize,
    ops: &mut Ops,
) -> std::io::Result<Timed> {
    let start = Instant::now();
    let mut t = Timed {
        wall_s: Vec::new(),
        cpu_s: Vec::new(),
        yardstick_s: Vec::new(),
        peak_rss_mib: 0.0,
        elapsed_s: 0.0,
    };
    let mut since_reading_s = f64::INFINITY;
    while t.wall_s.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        if since_reading_s >= YARDSTICK_EVERY_S {
            t.yardstick_s.push(yardstick::read()?);
            since_reading_s = 0.0;
        }
        let run = mine(cli, w, &p.dat, &[])?;
        ops.record("timed run", check_output(&run, w, &p.reference));
        since_reading_s += run.usage.wall_s;
        t.wall_s.push(run.usage.wall_s);
        t.cpu_s.push(run.usage.cpu_s);
        t.peak_rss_mib = t.peak_rss_mib.max(run.usage.max_rss_mib);
    }
    t.yardstick_s.push(yardstick::read()?);
    t.elapsed_s = start.elapsed().as_secs_f64();
    Ok(t)
}

/// A run is correct if it exits 0, its summary line (total, longest,
/// `levels [...]`) equals the reference's, and its top-itemset list is the
/// reference's top supports, each itemset printed with its own support.
pub fn check_output(run: &ChildRun, w: &Workload, reference: &MiningResult) -> Result<(), String> {
    if !run.usage.status.success() {
        return Err(format!("{}", run.usage.status));
    }
    let mut lines = run.stdout.lines();
    let summary = lines.next().unwrap_or_default();
    let expected = format!(
        "{}: {} frequent itemsets (longest {}), levels {:?}",
        w.miner_label(),
        reference.total(),
        reference.max_len(),
        reference.level_sizes()
    );
    if summary != expected {
        return Err(format!("printed `{summary}`, reference is `{expected}`"));
    }

    let printed: Vec<(Itemset, u64)> = lines
        .skip_while(|l| !l.starts_with("top itemsets"))
        .skip(1)
        .take_while(|l| l.starts_with("  {"))
        .map(parse_top_line)
        .collect::<Result<_, _>>()?;
    let mut supports: Vec<u64> = reference
        .iter()
        .filter(|(set, _)| set.len() >= 2)
        .map(|&(_, support)| support)
        .collect();
    supports.sort_unstable_by(|a, b| b.cmp(a));
    supports.truncate(DEFAULT_TOP);
    let printed_supports: Vec<u64> = printed.iter().map(|&(_, s)| s).collect();
    if printed_supports != supports {
        return Err(format!(
            "top supports {printed_supports:?}, reference has {supports:?}"
        ));
    }
    for (set, support) in &printed {
        if reference.support_of(set) != Some(*support) {
            return Err(format!(
                "{set} printed with support {support}, reference has {:?}",
                reference.support_of(set)
            ));
        }
    }
    Ok(())
}

/// `  {322 730}  support 2143`
fn parse_top_line(line: &str) -> Result<(Itemset, u64), String> {
    let bad = || format!("unreadable top-itemset line `{line}`");
    let (set, support) = line.trim().split_once("}  support ").ok_or_else(bad)?;
    let items = set
        .strip_prefix('{')
        .ok_or_else(bad)?
        .split_whitespace()
        .map(|t| t.parse::<u32>().map_err(|_| bad()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((Itemset::new(items), support.parse().map_err(|_| bad())?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::Usage;
    use std::os::unix::process::ExitStatusExt;
    use std::process::ExitStatus;

    fn run_printing(stdout: &str, code: i32) -> ChildRun {
        ChildRun {
            usage: Usage {
                wall_s: 1.0,
                cpu_s: 1.0,
                max_rss_mib: 1.0,
                status: ExitStatus::from_raw(code << 8),
            },
            stdout: stdout.to_string(),
        }
    }

    fn toy() -> (&'static Workload, MiningResult, String) {
        let w = Workload::by_name("mushroom_paper").unwrap();
        let set = |items: &[u32]| Itemset::new(items.to_vec());
        let reference = MiningResult::from_levels(vec![
            vec![(set(&[1]), 9), (set(&[2]), 8), (set(&[3]), 7)],
            vec![(set(&[1, 2]), 6), (set(&[2, 3]), 5)],
        ]);
        let stdout = "spark: 5 frequent itemsets (longest 2), levels [3, 2]\n\
                      virtual cluster time 1.00s (wall 3.1ms)\n\n\
                      top itemsets (length >= 2):\n  {1 2}  support 6\n  {2 3}  support 5\n";
        (w, reference, stdout.to_string())
    }

    #[test]
    fn accepts_the_reference_and_nothing_else() {
        let (w, reference, good) = toy();
        assert_eq!(check_output(&run_printing(&good, 0), w, &reference), Ok(()));
        for (what, bad) in [
            ("exit code", run_printing(&good, 1)),
            (
                "total",
                run_printing(&good.replace("5 frequent", "6 frequent"), 0),
            ),
            ("levels", run_printing(&good.replace("[3, 2]", "[2, 3]"), 0)),
            (
                "support",
                run_printing(&good.replace("support 6", "support 7"), 0),
            ),
            ("itemset", run_printing(&good.replace("{1 2}", "{1 3}"), 0)),
            (
                "missing row",
                run_printing(&good.replace("  {2 3}  support 5\n", ""), 0),
            ),
            ("no output", run_printing("", 0)),
        ] {
            assert!(
                check_output(&bad, w, &reference).is_err(),
                "{what} accepted"
            );
        }
    }

    #[test]
    fn ops_count_failures_against_attempts() {
        let mut ops = Ops::default();
        ops.record("a", Ok(()));
        ops.record("b", Err("wrong".into()));
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.messages, ["b: wrong"]);
    }
}
