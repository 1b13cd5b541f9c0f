//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
//!     [--check-repeat] [--self-test]
//! ```
//!
//! With no `--trace` it runs both parts: the end-to-end measurement
//! (untraced subprocesses) and then the traced per-layer run. The last line
//! of standard output is one JSON object with the run's result.

mod child;
mod e2e;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workload;
mod yardstick;

use e2e::{Ops, Prepared, Timed, SETUP_BUDGET_S, SETUP_REPS};
use metrics::{value_of, Metric, Schema};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{Span, Tracer};
use workload::{Workload, WORKLOADS};
use yafim::cluster::json::JsonValue;

/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Part {
    EndToEnd,
    Traced,
    Both,
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    part: Part,
    check_repeat: bool,
    self_test: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: yafim-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                       [--check-repeat] [--self-test]
  --workload NAME   one of {} (repeatable; default: all)
  --seed N          0 = the PaperDataset profile as `yafim-cli generate` writes it (default);
                    any other seed shuffles its rows and renames its items
  --seconds S       how long the timed repetitions of one workload run (default: run_seconds
                    of BENCHMARK.json)
  --trace 0|1       0 = end-to-end metrics only, 1 = per-layer metrics only (default: both)
  --check-repeat    measure the end-to-end metrics twice and compare them with their bounds
  --self-test       check against a deliberately wrong reference; exits 1 when the checker
                    catches it (as it must), 0 when it has gone blind",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(schema: &Schema) -> Option<Args> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: schema.run_seconds,
        part: Part::Both,
        check_repeat: false,
        self_test: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--check-repeat" => args.check_repeat = true,
            "--self-test" => args.self_test = true,
            "--workload" => args.workloads.push(Workload::by_name(&argv.next()?)?),
            "--seed" => args.seed = argv.next()?.parse().ok()?,
            "--seconds" => {
                args.seconds = argv.next()?.parse().ok().filter(|s| *s > 0.0)?;
            }
            "--trace" => {
                args.part = match argv.next()?.as_str() {
                    "0" => Part::EndToEnd,
                    "1" => Part::Traced,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    Some(args)
}

fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Build the program under test from the checkout this binary was built
/// in, with the repo's own manifest and profile, and return its path.
/// Compilation is not part of any metric.
fn build_cli() -> std::io::Result<PathBuf> {
    let root = benchmark_dir()
        .parent()
        .expect("the package sits inside the repo");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "yafim-cli",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .status()?;
    if !status.success() {
        return Err(std::io::Error::other("building yafim-cli failed"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), PathBuf::from);
    Ok(target.join("release").join("yafim-cli"))
}

/// What one workload produced.
struct Report {
    workload: &'static Workload,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    ops: Ops,
    spans: Vec<Span>,
    /// The warm-up run's exact counters, for `--check-repeat`.
    manifest_metrics: Option<JsonValue>,
}

fn run_workload(
    cli: &Path,
    w: &'static Workload,
    args: &Args,
    work_dir: &Path,
    schema: &Schema,
) -> std::io::Result<Report> {
    let mut ops = Ops::default();
    println!("\n== workload {} (seed {}) ==", w.name, args.seed);
    println!("why: {}", w.why);
    println!(
        "input: {} at {}% support; command: yafim-cli mine --input FILE {}",
        w.dataset.profile().name,
        w.support_pct,
        w.cli_tail().join(" ")
    );

    // Set-up is repeated when it is itself a reported metric, with a
    // yardstick reading before, between and after.
    let setting_up = Instant::now();
    let mut setup_s = Vec::new();
    let mut setup_yardstick_s = vec![yardstick::read()?];
    let mut prepared: Option<Prepared> = None;
    let another = |done: usize, elapsed_s: f64| match args.part {
        Part::Traced => done < 1,
        _ => done < SETUP_REPS.start || (done < SETUP_REPS.end && elapsed_s < SETUP_BUDGET_S),
    };
    while another(setup_s.len(), setting_up.elapsed().as_secs_f64()) {
        let start = Instant::now();
        let p = e2e::setup(cli, w, args.seed, work_dir, args.self_test, &mut ops)?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_yardstick_s.push(yardstick::read()?);
        if let Some(first) = &prepared {
            ops.record(
                "virtual clock determinism",
                e2e::same_manifest_metrics(&first.manifest, &p.manifest),
            );
        }
        prepared = Some(p);
    }
    let p = prepared.expect("set up at least once");

    // The traced part only needs the untraced median to set layer times
    // against, so it measures for a third of the time.
    let seconds = if args.part == Part::Traced {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let timed = e2e::timed_reps(cli, w, &p, seconds, MIN_REPS, &mut ops)?;

    let mut report = Report {
        workload: w,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        ops,
        spans: Vec::new(),
        manifest_metrics: p.manifest.get("metrics").cloned(),
    };
    if args.part != Part::Traced {
        report.end_to_end = e2e::end_to_end_metrics(
            timed.mine_wall_s(),
            timed.mine_cpu_s(),
            timed.peak_rss_mib,
            e2e::manifest_metric(&p.manifest, "virtual_seconds"),
            yardstick::normalised(stats::median(&setup_s), stats::median(&setup_yardstick_s)),
        );
        print_end_to_end(&report, &timed, schema);
        println!(
            "as the clock read them: mine_wall_s {:.6}, mine_cpu_s {:.6}, setup_s {:.6} (median of {}); \
             yardstick {:.6} s among the timed runs (median of {}), {:.6} s among the set-ups, \
             reference {} s",
            timed.raw_wall_s(),
            timed.raw_cpu_s(),
            stats::median(&setup_s),
            setup_s.len(),
            timed.yardstick_s(),
            timed.yardstick_s.len(),
            stats::median(&setup_yardstick_s),
            yardstick::REFERENCE_S
        );
    }
    if args.part != Part::EndToEnd {
        let mut tracer = Tracer::new(w.name);
        let reps = ((args.seconds / 5.0) as usize).clamp(1, 5);
        report.per_layer = layers::traced_run(
            cli,
            w,
            &p,
            timed.raw_wall_s(),
            reps,
            work_dir,
            &mut tracer,
            &mut report.ops,
        )?
        .metrics();
        report.spans = tracer.into_spans();
        print_per_layer(&report, timed.raw_wall_s(), reps);
    }
    println!(
        "failed_ops {} of ops {}",
        report.ops.failed, report.ops.attempted
    );
    for message in &report.ops.messages {
        println!("  FAILED {message}");
    }
    Ok(report)
}

fn print_end_to_end(report: &Report, timed: &Timed, schema: &Schema) {
    let n = timed.wall_s.len();
    println!(
        "-- end to end: closed loop, 1 client, n = {n} subprocesses in {:.1} s --",
        timed.elapsed_s
    );
    for m in &report.end_to_end {
        let tail = match (m.name, stats::tail_percentile(n)) {
            ("mine_wall_s", p) => tail_of(&timed.wall_s, p),
            ("mine_cpu_s", p) => tail_of(&timed.cpu_s, p),
            _ => String::new(),
        };
        println!(
            "{:<14} {:>14.6} {:<6} bound +{:.1}%{tail}",
            m.name,
            m.value,
            m.unit,
            100.0 * schema.bound_of(m.name)
        );
    }
}

/// The fastest sample and the highest percentile with ten samples beyond
/// it, as the clock read them.
fn tail_of(samples: &[f64], tail: Option<f64>) -> String {
    let min = stats::percentile(samples, 0.0);
    match tail {
        Some(p) => format!(
            "  raw min {min:.4}  p{p:.0} {:.4}",
            stats::percentile(samples, p)
        ),
        None => {
            format!("  raw min {min:.4}  (fewer than 10 samples beyond any percentile above p50)")
        }
    }
}

fn print_per_layer(report: &Report, mine_wall_s: f64, reps: usize) {
    println!(
        "-- per layer: traced run, medians of {reps}, as the clock read them, against a \
         mine_wall_s of {mine_wall_s:.4} s --"
    );
    let mut layer = "";
    for m in &report.per_layer {
        let this = m.name.split('.').next().unwrap_or_default();
        if this != layer {
            layer = this;
            println!("[{layer}]");
        }
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let v = |name| value_of(&report.per_layer, name);
    if v("mapreduce.jobs") > 0.0 {
        println!(
            "  mapreduce host time per job: {:.1} ms (core.mine_1t_s / mapreduce.jobs)",
            1e3 * v("core.mine_1t_s") / v("mapreduce.jobs")
        );
    }
    println!(
        "  accounts for mine_wall_s: cli.overhead {:.4} + data {:.4} + cluster.hdfs_put {:.4} + core.mine {:.4} s",
        v("cli.overhead_s"),
        v("data.read_dat_s") + v("data.to_lines_s"),
        v("cluster.hdfs_put_s"),
        v("core.mine_s")
    );
    println!(
        "[spans] {:<34} {:>5} {:>12} {:>12}",
        "name", "n", "total s", "self s"
    );
    for (name, (n, total_s, self_s)) in trace::totals_by_name(&report.spans) {
        println!("  {name:<40} {n:>5} {total_s:>12.6} {self_s:>12.6}");
    }
}

/// The last line of standard output. One workload reports its metrics by
/// name, as the driver reads them; several are told apart by a prefix.
fn print_result_line(reports: &[Report]) {
    let (attempted, failed) = reports
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.ops.attempted, f + r.ops.failed));
    let named: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|r| {
            r.end_to_end.iter().chain(&r.per_layer).map(|m| {
                let name = if reports.len() == 1 {
                    m.name.to_string()
                } else {
                    format!("{}/{}", r.workload.name, m.name)
                };
                (name, m)
            })
        })
        .collect();
    println!("{}", metrics::result_line(attempted, failed, &named));
}

fn write_trace(reports: &[Report]) -> std::io::Result<()> {
    let mut spans = Vec::new();
    for r in reports {
        spans.extend(trace::to_json(&r.spans, spans.len()));
    }
    if spans.is_empty() {
        return Ok(());
    }
    let path = benchmark_dir().join("out").join("trace.json");
    println!("\nwrote {} spans to {}", spans.len(), path.display());
    std::fs::write(&path, format!("{}\n", JsonValue::Array(spans)))
}

fn run_all(
    cli: &Path,
    args: &Args,
    work_dir: &Path,
    schema: &Schema,
) -> std::io::Result<Vec<Report>> {
    args.workloads
        .iter()
        .map(|w| run_workload(cli, w, args, work_dir, schema))
        .collect()
}

/// Measure the end-to-end metrics twice on the same build and hold the two
/// sets against each other: timings within their bounds, the virtual clock
/// and every exact counter identical.
fn check_repeat(
    cli: &Path,
    args: &Args,
    work_dir: &Path,
    schema: &Schema,
) -> std::io::Result<bool> {
    let args = Args {
        workloads: args.workloads.clone(),
        part: Part::EndToEnd,
        ..*args
    };
    let first = run_all(cli, &args, work_dir, schema)?;
    let second = run_all(cli, &args, work_dir, schema)?;
    let mut ok = true;
    println!("\n== repeatability: second set against first ==");
    for (a, b) in first.iter().zip(&second) {
        for (ma, mb) in a.end_to_end.iter().zip(&b.end_to_end) {
            let bound = if ma.name == "virtual_s" {
                0.0 // same seed, same build: the simulated clock is exact
            } else {
                schema.bound_of(ma.name)
            };
            let diff = stats::relative_worsening(ma.value, mb.value).abs();
            let verdict = if diff <= bound { "ok" } else { "EXCEEDED" };
            ok &= diff <= bound;
            println!(
                "{:<15} {:<12} {:>12.6} {:>12.6} {:<6} diff {:>7.3}% bound {:>5.1}% {verdict}",
                a.workload.name,
                ma.name,
                ma.value,
                mb.value,
                ma.unit,
                100.0 * diff,
                100.0 * bound
            );
        }
        let same_counters = a.manifest_metrics == b.manifest_metrics;
        ok &= same_counters && a.ops.failed == 0 && b.ops.failed == 0;
        println!(
            "{:<15} manifest counters {}; failed_ops {} + {}",
            a.workload.name,
            if same_counters { "identical" } else { "DIFFER" },
            a.ops.failed,
            b.ops.failed
        );
    }
    print_result_line(&second);
    Ok(ok)
}

/// Whole-run output after the workloads: the headline ratio, the trace file,
/// the self-test verdict and the result line. Returns whether every
/// operation was correct.
fn finish(args: &Args, reports: &[Report]) -> std::io::Result<bool> {
    if reports.len() == WORKLOADS.len() && args.part != Part::Traced {
        let v = |name| {
            let r = reports.iter().find(|r| r.workload.name == name);
            value_of(&r.expect("all workloads ran").end_to_end, "virtual_s")
        };
        println!(
            "\npaper headline: virtual_s mushroom_mr / mushroom_paper = {:.2}x (the paper reports ~18x)",
            v("mushroom_mr") / v("mushroom_paper")
        );
    }
    write_trace(reports)?;
    let failed: u64 = reports.iter().map(|r| r.ops.failed).sum();
    if args.self_test {
        if failed == 0 {
            eprintln!("self-test BROKEN: a wrong reference went undetected");
        } else {
            println!("self-test: the wrong reference was caught; exiting non-zero as designed");
        }
    }
    print_result_line(reports);
    Ok(failed == 0)
}

fn run(args: &Args, schema: &Schema) -> std::io::Result<ExitCode> {
    let cli = build_cli()?;
    let out_dir = benchmark_dir().join("out");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)?;
    println!(
        "yafim benchmark: {} pool threads, {} s per workload, program {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seconds,
        cli.display()
    );

    let outcome = if args.check_repeat {
        check_repeat(&cli, args, &work_dir, schema)
    } else {
        run_all(&cli, args, &work_dir, schema).and_then(|reports| finish(args, &reports))
    };
    std::fs::remove_dir_all(&work_dir)?;
    Ok(if outcome? {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(yardstick::FLAG) {
        yardstick::main_mode();
        return ExitCode::SUCCESS;
    }
    if argv.get(1).map(String::as_str) == Some(child::LAUNCH_FLAG) {
        return match child::launcher(&argv[2..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("yafim-benchmark launcher: {e}");
                ExitCode::from(3)
            }
        };
    }
    let schema = Schema::load();
    let Some(args) = parse_args(&schema) else {
        return usage();
    };
    match run(&args, &schema) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("yafim-benchmark: {e}");
            ExitCode::from(3)
        }
    }
}
