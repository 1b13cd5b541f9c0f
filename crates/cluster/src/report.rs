//! The run's text report: one view over the [`Metrics`] record.
//!
//! [`full_report`] prints, in order:
//!
//! * an **anomaly line**, only when something is nonzero: every recovery,
//!   integrity and memory counter row, the bitmap fallbacks and the
//!   ring-buffer drops, each under its manifest key;
//! * the **pass table**: one row per Apriori pass (what counted it, |C_k|,
//!   |L_k|, virtual seconds, and the critical-path buckets of its interval),
//!   then the time outside every pass, the run's total and a `note:` per
//!   zero-length driver note (pass 2's layout, a step-down, a node loss);
//! * the **stage table**: task-time distribution and partition balance
//!   ([`StageSkew`]), records and shuffle bytes, cache hit-rate, and the
//!   stage's failures, retries and speculative launches;
//! * the run's **totals**.

use crate::costmodel::CostModel;
use crate::critical::{critical_path, CriticalPathBuckets, CriticalPathReport, StageSkew};
use crate::manifest::counter_rows;
use crate::metrics::{EventKind, Metrics};
use std::collections::BTreeMap;
use std::fmt::Write;

fn fmt_bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

fn fmt_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        format!("{n}")
    }
}

fn fmt_dur(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Every nonzero count that says the run did not go as planned, under its
/// manifest key (the drops under their own table's keys); `None` for a
/// clean run.
fn anomalies(metrics: &Metrics) -> Option<String> {
    let faults = |key: &str| {
        ["recovery.", "integrity.", "mem."]
            .iter()
            .any(|g| key.starts_with(g))
            || key == "counter.bitmap.fallbacks"
    };
    let drops = metrics
        .dropped()
        .fields()
        .map(|f| (f.key.to_string(), f.value));
    let cells: Vec<String> = counter_rows(&metrics.snapshot())
        .filter(|(key, _)| faults(key))
        .chain(drops)
        .filter(|&(_, value)| value > 0)
        .map(|(key, value)| format!("{key} {value}"))
        .collect();
    (!cells.is_empty()).then(|| format!("anomalies: {}", cells.join(" | ")))
}

/// One row per pass, then the time outside every pass and the run's total,
/// with a column for every bucket that is nonzero anywhere in the run.
fn pass_table(report: &CriticalPathReport) -> String {
    let names = report.buckets.named();
    let shown: Vec<usize> = (0..names.len()).filter(|&k| names[k].1 != 0.0).collect();
    let mut out = format!(
        "{:>4}  {:<12} {:>8} {:>8} {:>10} {:>8} {:>9}",
        "pass", "counter", "|C_k|", "|L_k|", "virtual s", "wall ms", "driver ms"
    );
    for &k in &shown {
        let _ = write!(out, " {:>8}", names[k].0);
    }
    out.push('\n');
    let row =
        |out: &mut String, head: String, secs: f64, host: [&str; 2], b: &CriticalPathBuckets| {
            let _ = write!(out, "{head} {secs:>10.3} {:>8} {:>9}", host[0], host[1]);
            let values = b.named();
            for &k in &shown {
                let _ = write!(out, " {:>w$.3}", values[k].1, w = names[k].0.len().max(8));
            }
            out.push('\n');
        };
    for (p, buckets) in &report.passes {
        let head = format!(
            "{:>4}  {:<12} {:>8} {:>8}",
            p.span(),
            p.counter,
            p.candidates,
            p.frequent
        );
        let ms = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
        let (wall, driver) = (ms(p.wall), ms(p.driver));
        row(&mut out, head, p.seconds, [&wall, &driver], buckets);
    }
    let outside = &report.outside;
    let head = format!("{:<36}", "outside passes");
    row(&mut out, head, outside.total(), ["-"; 2], outside);
    let head = format!("{:<36}", "total");
    row(&mut out, head, report.makespan, ["-"; 2], &report.buckets);
    out
}

/// One row per retained stage. Stages whose task spans were dropped from
/// the ring buffer show `-` in the distribution columns.
fn stage_table(metrics: &Metrics, skew: &[StageSkew]) -> String {
    let skew: BTreeMap<u64, &StageSkew> = skew.iter().map(|k| (k.stage_id, k)).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5}  {:<34} {:>5}  {:>8} {:>8} {:>8}  {:>6} {:>6}  {:>8} {:>8}  {:>10} {:>10}  {:>6}  {:>12}",
        "stage",
        "label",
        "tasks",
        "p50",
        "p95",
        "max",
        "strag",
        "cv",
        "rec.read",
        "rec.writ",
        "shuf.read",
        "shuf.write",
        "cache",
        "recovery"
    );
    let stages = metrics.stage_spans();
    for s in &stages {
        let [p50, p95, max, strag, cv] = match skew.get(&s.stage_id) {
            Some(k) => [
                fmt_dur(k.p50),
                fmt_dur(k.p95),
                fmt_dur(k.max),
                format!("{:.2}x", k.straggler_ratio),
                format!("{:.3}", k.partition_cv),
            ],
            None => std::array::from_fn(|_| "-".to_string()),
        };
        let lookups = s.profile.cache_hits + s.profile.cache_misses;
        let cache = if lookups > 0 {
            format!(
                "{:.0}%",
                100.0 * s.profile.cache_hits as f64 / lookups as f64
            )
        } else {
            "-".to_string()
        };
        let mut label = s.label.clone();
        if let Some(sid) = s.shuffle_id {
            if !label.contains("shuffle") {
                label = format!("{label} [shuffle {sid}]");
            }
        }
        if label.len() > 34 {
            label.truncate(31);
            label.push_str("...");
        }
        // Compact failures/retries/speculative-launch counts, `-` for a
        // fault-free stage.
        let r = &s.recovery;
        let recovery = if r.any() {
            format!(
                "{}f {}r {}s",
                r.task_failures, r.task_retries, r.speculative_launched
            )
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:>5}  {:<34} {:>5}  {:>8} {:>8} {:>8}  {:>6} {:>6}  {:>8} {:>8}  {:>10} {:>10}  {:>6}  {:>12}",
            s.stage_id,
            label,
            s.tasks,
            p50,
            p95,
            max,
            strag,
            cv,
            fmt_count(s.profile.records_read),
            fmt_count(s.profile.records_written),
            fmt_bytes(s.profile.shuffle_read_bytes),
            fmt_bytes(s.profile.shuffle_write_bytes),
            cache,
            recovery
        );
    }
    if stages.is_empty() {
        out.push_str("(no stages recorded)\n");
    }
    out
}

/// Render the anomaly line (when there is one), the pass table, the stage
/// table and the totals.
pub fn full_report(metrics: &Metrics, cost: &CostModel) -> String {
    let report = critical_path(metrics, cost);
    let mut out = String::new();
    if let Some(line) = anomalies(metrics) {
        let _ = writeln!(out, "{line}\n");
    }
    out.push_str("== Passes ==\n");
    out.push_str(&pass_table(&report));
    for e in metrics.events() {
        if e.kind == EventKind::Other && e.duration.as_secs() == 0.0 {
            let _ = writeln!(out, "note: {}", e.label);
        }
    }
    out.push_str("\n== Stages ==\n");
    out.push_str(&stage_table(metrics, &report.stages));
    out.push('\n');

    let snap = metrics.snapshot();
    let p = &snap.profile;
    let lookups = p.cache_hits + p.cache_misses;
    let cache = if lookups > 0 {
        format!(
            "{:.0}% ({} hits / {} misses)",
            100.0 * p.cache_hits as f64 / lookups as f64,
            p.cache_hits,
            p.cache_misses
        )
    } else {
        "n/a".to_string()
    };
    let _ = writeln!(out, "== Totals ==");
    let _ = writeln!(
        out,
        "virtual time {:.3}s | jobs {} | stages {} | tasks {}",
        snap.now.as_secs(),
        snap.jobs,
        snap.stages,
        snap.tasks
    );
    let _ = writeln!(
        out,
        "shuffle read {} | shuffle write {} | broadcast {} | cache hit-rate {}",
        fmt_bytes(p.shuffle_read_bytes),
        fmt_bytes(p.shuffle_write_bytes),
        fmt_bytes(p.broadcast_read_bytes),
        cache
    );
    let _ = writeln!(
        out,
        "records read {} | partial records {} | shuffle records {} | bytes materialized {}",
        fmt_count(p.records_read),
        fmt_count(snap.shipped.0),
        fmt_count(snap.shipped.1),
        fmt_bytes(p.bytes_materialized)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{IntegrityCounters, MemoryCounters, RecoveryCounters};
    use crate::metrics::{
        EngineCounters, EventKind, MetricsCapacity, StageExecution, StageKind, TaskExecution,
    };
    use crate::spec::NodeId;
    use crate::time::SimDuration;
    use crate::work::TaskProfile;

    fn task(partition: usize, dur: f64, profile: TaskProfile) -> TaskExecution {
        TaskExecution {
            partition,
            node: NodeId(0),
            core: 0,
            start: SimDuration::ZERO,
            duration: SimDuration::from_secs(dur),
            profile,
        }
    }

    fn stage(label: &str, tasks: Vec<TaskExecution>) -> StageExecution {
        StageExecution {
            label: label.into(),
            kind: StageKind::Result,
            shuffle_id: None,
            overhead: SimDuration::ZERO,
            trailing: SimDuration::ZERO,
            tasks,
        }
    }

    fn shuffle_profile() -> TaskProfile {
        let mut p = TaskProfile::new();
        p.shuffle_read_bytes = 2048;
        p.shuffle_write_bytes = 4096;
        p.cache_hits = 3;
        p.cache_misses = 1;
        p.records_read = 12_500;
        p.records_written = 777;
        p.bytes_materialized = 512;
        p
    }

    fn report(m: &Metrics) -> String {
        full_report(m, &CostModel::hadoop_era())
    }

    #[test]
    fn stage_table_has_distribution_and_cache_columns() {
        let m = Metrics::new();
        m.record_stage_with_recovery(
            stage(
                "count rdd2",
                vec![
                    task(0, 1.0, shuffle_profile()),
                    task(1, 2.0, TaskProfile::new()),
                    task(2, 4.0, TaskProfile::new()),
                ],
            ),
            Default::default(),
        );
        let table = report(&m);
        assert!(table.contains("count rdd2"), "{table}");
        assert!(table.contains("2.00s"), "p50: {table}");
        assert!(table.contains("4.00s"), "p95 and max: {table}");
        assert!(table.contains("2.00x"), "straggler ratio: {table}");
        assert!(table.contains("4096 B"), "shuffle write: {table}");
        assert!(table.contains("2048 B"), "shuffle read: {table}");
        assert!(table.contains("75%"), "cache hit rate: {table}");
        assert!(table.contains("rec.read"), "records header: {table}");
        assert!(table.contains("12.5k"), "records read: {table}");
        assert!(table.contains("777"), "records written: {table}");
    }

    #[test]
    fn totals_include_record_and_materialization_counters() {
        let m = Metrics::new();
        m.record_stage_with_recovery(
            stage("s", vec![task(0, 1.0, shuffle_profile())]),
            Default::default(),
        );
        m.note_shipped(700, 77);
        let report = report(&m);
        let line = "records read 12.5k | partial records 700 | shuffle records 77 |";
        assert!(report.contains(line), "{report}");
        assert!(report.contains("bytes materialized 512 B"), "{report}");
    }

    #[test]
    fn pass_table_has_a_row_per_pass_then_outside_and_total() {
        let m = Metrics::new();
        let start = m.pass_start();
        m.record_stage_with_recovery(
            stage("s1", vec![task(0, 2.0, shuffle_profile())]),
            Default::default(),
        );
        m.record_pass(1..=1, "items", start, 7, 5);
        m.advance_with_event(SimDuration::from_secs(0.5), EventKind::Projection, "p");
        let start = m.pass_start();
        m.advance_with_event(SimDuration::from_secs(1.0), EventKind::Driver, "ap_gen");
        m.record_pass(2..=2, "triangle", start, 10, 3);
        let text = report(&m);
        let table: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "== Passes ==")
            .skip(2)
            .take_while(|l| !l.is_empty())
            .collect();
        assert_eq!(table.len(), 4, "{text}");
        assert!(table[0].starts_with("   1  items"), "{text}");
        assert!(table[1].starts_with("   2  triangle") && table[1].contains("1.000"));
        assert!(table[2].starts_with("outside passes") && table[2].contains("0.500"));
        assert!(table[3].starts_with("total") && table[3].contains("3.500"));
        // Only the buckets the run used get a column.
        let buckets = text.replace("driver ms", "");
        assert!(
            buckets.contains(" driver") && !text.contains("hdfs_io"),
            "{text}"
        );
    }

    #[test]
    fn a_job_that_counted_several_levels_is_one_row_naming_them() {
        let m = Metrics::new();
        let start = m.pass_start();
        m.advance_with_event(SimDuration::from_secs(1.5), EventKind::Driver, "ap_gen");
        m.record_pass(3..=10, "bitmap", start, 40, 25);
        let text = report(&m);
        let row = text.lines().nth(2).expect("one pass row");
        let head = "3-10  bitmap             40       25";
        assert!(row.starts_with(head) && row.contains(" 1.500"), "{text}");
    }

    #[test]
    fn one_nonzero_row_per_table_is_one_anomaly_cell_under_its_key() {
        let m = Metrics::with_capacity(MetricsCapacity {
            tasks: 1,
            ..MetricsCapacity::default()
        });
        let flaky = stage(
            "flaky",
            vec![
                task(0, 1.0, TaskProfile::new()),
                task(1, 1.0, TaskProfile::new()),
            ],
        );
        let failed = RecoveryCounters {
            task_failures: 3,
            ..RecoveryCounters::default()
        };
        m.record_stage_with_recovery(flaky, failed);
        m.note_recovery(&RecoveryCounters {
            integrity: IntegrityCounters {
                repaired_via_replica: 2,
                ..IntegrityCounters::default()
            },
            mem: MemoryCounters {
                spills: 4,
                ..MemoryCounters::default()
            },
            ..RecoveryCounters::default()
        });
        m.note_engine(&EngineCounters {
            bitmap_fallbacks: 1,
            ..EngineCounters::default()
        });
        let text = report(&m);
        assert_eq!(
            text.lines().next(),
            Some(
                "anomalies: recovery.task_failures 3 | integrity.repaired_via_replica 2 | \
                 mem.spills 4 | counter.bitmap.fallbacks 1 | dropped.tasks 1"
            ),
            "{text}"
        );
        assert!(text.contains("3f 0r 0s"), "the stage's own cell: {text}");
    }

    #[test]
    fn a_clean_run_has_no_anomaly_line() {
        let m = Metrics::new();
        m.record_stage_with_recovery(
            stage("clean", vec![task(0, 1.0, TaskProfile::new())]),
            Default::default(),
        );
        let text = report(&m);
        assert!(text.starts_with("== Passes ==\n"), "{text}");
        assert!(!text.contains("anomalies"), "{text}");
        assert!(text.contains("== Totals =="));
    }
}
