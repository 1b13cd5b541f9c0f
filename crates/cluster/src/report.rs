//! Spark-UI-style text reports over the span log.
//!
//! Two tables, both computed from [`Metrics`]:
//!
//! * [`stage_report`] — one row per stage: task count, min/median/max task
//!   time, straggler ratio (max/median), records read and written at
//!   pipeline boundaries, shuffle bytes read and written, cache hit-rate;
//! * [`iteration_report`] — one row per [`EventKind::Iteration`] event,
//!   matching the per-pass x-axis of the paper's Fig. 3.
//!
//! [`full_report`] stitches them together with the job list and — never
//! silently — a warning block whenever the bounded in-memory logs dropped
//! entries.

use crate::metrics::{EventKind, Metrics, TaskSpan};
use crate::time::SimDuration;
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

fn fmt_dur(d: SimDuration) -> String {
    let s = d.as_secs();
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Task-time distribution of one stage.
struct TaskStats {
    min: SimDuration,
    median: SimDuration,
    max: SimDuration,
}

fn task_stats(tasks: &[&TaskSpan]) -> Option<TaskStats> {
    if tasks.is_empty() {
        return None;
    }
    let mut durs: Vec<SimDuration> = tasks.iter().map(|t| t.duration).collect();
    durs.sort();
    Some(TaskStats {
        min: durs[0],
        median: durs[durs.len() / 2],
        max: durs[durs.len() - 1],
    })
}

/// Render the per-stage table. Stages whose task spans were dropped from
/// the ring buffer show `-` in the distribution columns.
pub fn stage_report(metrics: &Metrics) -> String {
    let stages = metrics.stage_spans();
    let tasks = metrics.task_spans();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5}  {:<34} {:>5}  {:>8} {:>8} {:>8}  {:>6}  {:>8} {:>8}  {:>10} {:>10}  {:>6}  {:>12}",
        "stage",
        "label",
        "tasks",
        "min",
        "median",
        "max",
        "strag",
        "rec.read",
        "rec.writ",
        "shuf.read",
        "shuf.write",
        "cache",
        "recovery"
    );
    for s in &stages {
        let mine: Vec<&TaskSpan> = tasks.iter().filter(|t| t.stage_id == s.stage_id).collect();
        let stats = task_stats(&mine);
        let (min, median, max, strag) = match &stats {
            Some(st) => {
                let strag = if st.median.as_secs() > 0.0 {
                    format!("{:.2}x", st.max.as_secs() / st.median.as_secs())
                } else {
                    "-".to_string()
                };
                (fmt_dur(st.min), fmt_dur(st.median), fmt_dur(st.max), strag)
            }
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
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
            "{:>5}  {:<34} {:>5}  {:>8} {:>8} {:>8}  {:>6}  {:>8} {:>8}  {:>10} {:>10}  {:>6}  {:>12}",
            s.stage_id,
            label,
            s.tasks,
            min,
            median,
            max,
            strag,
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

/// Render the per-iteration table (one row per Apriori pass), matching the
/// per-pass series the paper plots in Fig. 3.
pub fn iteration_report(metrics: &Metrics) -> String {
    let iters = metrics.events_of(EventKind::Iteration);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4}  {:<24} {:>10} {:>10}  {:>8}",
        "#", "iteration", "start", "end", "time"
    );
    let mut total = SimDuration::ZERO;
    for (i, e) in iters.iter().enumerate() {
        total += e.duration;
        let _ = writeln!(
            out,
            "{:>4}  {:<24} {:>9.3}s {:>9.3}s  {:>8}",
            i + 1,
            e.label,
            e.start.as_secs(),
            e.end().as_secs(),
            fmt_dur(e.duration)
        );
    }
    if iters.is_empty() {
        out.push_str("(no iterations recorded)\n");
    } else {
        let _ = writeln!(
            out,
            "{:>4}  {:<24} {:>10} {:>10}  {:>8}",
            "",
            "total",
            "",
            "",
            fmt_dur(total)
        );
    }
    out
}

/// Render job list, stage table, iteration table and totals — with an
/// explicit warning block if any bounded log dropped entries.
pub fn full_report(metrics: &Metrics) -> String {
    let mut out = String::new();
    let snap = metrics.snapshot();

    let dropped = metrics.dropped();
    if dropped.total() > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} spans dropped, timings below are partial \
             (events: {}, jobs: {}, stages: {}, tasks: {}); \
             raise MetricsCapacity to retain more.",
            dropped.total(),
            dropped.events,
            dropped.jobs,
            dropped.stages,
            dropped.tasks
        );
        out.push('\n');
    }

    out.push_str("== Jobs ==\n");
    let jobs = metrics.job_spans();
    if jobs.is_empty() {
        out.push_str("(no jobs recorded)\n");
    } else {
        for j in &jobs {
            let _ = writeln!(
                out,
                "{:>4}  {:<34} {:>9.3}s .. {:>9.3}s  ({})",
                j.job_id,
                j.label,
                j.start.as_secs(),
                j.end().as_secs(),
                fmt_dur(j.duration)
            );
        }
    }
    out.push('\n');

    out.push_str("== Stages ==\n");
    out.push_str(&stage_report(metrics));
    out.push('\n');

    out.push_str("== Iterations ==\n");
    out.push_str(&iteration_report(metrics));
    out.push('\n');

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
        "records read {} | records written {} | bytes materialized {}",
        fmt_count(p.records_read),
        fmt_count(p.records_written),
        fmt_bytes(p.bytes_materialized)
    );
    let r = &snap.recovery;
    if r.any() {
        let _ = writeln!(
            out,
            "recovery: {} task failures | {} retries | {} speculative ({} won) | \
             {} nodes lost | {} blacklisted | {} partitions recomputed | \
             {} fetch failures | {} broadcast re-fetches",
            r.task_failures,
            r.task_retries,
            r.speculative_launched,
            r.speculative_wins,
            r.nodes_lost,
            r.nodes_blacklisted,
            r.recomputed_partitions,
            r.fetch_failures,
            r.broadcast_refetches
        );
    }
    // The transient/checkpoint layer gets its own line, again only when
    // something actually happened.
    if r.fetch_retries > 0
        || r.backoff_micros > 0
        || r.checkpoint_writes > 0
        || r.checkpoint_reads > 0
        || r.max_replay_depth > 0
    {
        let _ = writeln!(
            out,
            "transients: {} fetch retries | {:.3}s backoff | \
             {} checkpoint writes | {} checkpoint reads | max replay depth {}",
            r.fetch_retries,
            r.backoff_micros as f64 / 1e6,
            r.checkpoint_writes,
            r.checkpoint_reads,
            r.max_replay_depth
        );
    }
    // Silent-corruption detection/repair, only under a corruption plan.
    let i = &r.integrity;
    if i.any() {
        let _ = writeln!(
            out,
            "integrity: {} corruptions injected | {} detected | {} repaired \
             ({} via replica, {} via recompute, {} via resubmit)",
            i.corruptions_injected,
            i.corruptions_detected,
            i.corruptions_repaired,
            i.repaired_via_replica,
            i.repaired_via_recompute,
            i.repaired_via_resubmit
        );
    }
    // The memory governor's line, only when a plan armed it and something
    // actually happened (spill, step-down, or OOM).
    let m = &r.mem;
    if m.any() {
        let _ = writeln!(
            out,
            "memory: peak {} execution | {} spills ({}) | {} step-downs | \
             {} OOM injected ({} killed, {} survived by degradation)",
            fmt_bytes(m.peak_execution_bytes),
            m.spills,
            fmt_bytes(m.spill_bytes),
            m.degradations,
            m.oom_injected,
            m.oom_killed,
            m.oom_survived_by_degradation
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsCapacity, StageExecution, TaskExecution};
    use crate::spec::NodeId;
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

    #[test]
    fn stage_table_has_distribution_and_cache_columns() {
        let m = Metrics::new();
        m.record_stage(StageExecution {
            label: "count rdd2".into(),
            kind: EventKind::Stage,
            shuffle_id: None,
            overhead: SimDuration::ZERO,
            trailing: SimDuration::ZERO,
            tasks: vec![
                task(0, 1.0, shuffle_profile()),
                task(1, 2.0, TaskProfile::new()),
                task(2, 4.0, TaskProfile::new()),
            ],
        });
        let table = stage_report(&m);
        assert!(table.contains("count rdd2"), "{table}");
        assert!(table.contains("1.00s"), "min: {table}");
        assert!(table.contains("2.00s"), "median: {table}");
        assert!(table.contains("4.00s"), "max: {table}");
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
        m.record_stage(StageExecution {
            label: "s".into(),
            kind: EventKind::Stage,
            shuffle_id: None,
            overhead: SimDuration::ZERO,
            trailing: SimDuration::ZERO,
            tasks: vec![task(0, 1.0, shuffle_profile())],
        });
        let report = full_report(&m);
        assert!(report.contains("records read 12.5k"), "{report}");
        assert!(report.contains("records written 777"), "{report}");
        assert!(report.contains("bytes materialized 512 B"), "{report}");
    }

    #[test]
    fn iteration_table_lists_passes_in_order() {
        let m = Metrics::new();
        m.advance_with_event(SimDuration::from_secs(2.0), EventKind::Iteration, "pass 1");
        m.advance_with_event(SimDuration::from_secs(1.0), EventKind::Iteration, "pass 2");
        let table = iteration_report(&m);
        let pass1 = table.find("pass 1").unwrap();
        let pass2 = table.find("pass 2").unwrap();
        assert!(pass1 < pass2);
        assert!(table.contains("3.00s"), "total row: {table}");
    }

    #[test]
    fn full_report_warns_about_drops() {
        let m = Metrics::with_capacity(MetricsCapacity {
            events: 1,
            jobs: 1,
            stages: 1,
            tasks: 1,
        });
        for i in 0..3 {
            m.record_stage(StageExecution {
                label: format!("s{i}"),
                kind: EventKind::Stage,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks: vec![task(0, 1.0, TaskProfile::new())],
            });
        }
        let report = full_report(&m);
        assert!(report.contains("WARNING"), "{report}");
        assert!(
            report.contains("spans dropped, timings below are partial"),
            "{report}"
        );
        assert!(report.contains("tasks: 2"), "{report}");
    }

    #[test]
    fn recovery_counters_show_in_stage_row_and_totals() {
        use crate::fault::RecoveryCounters;
        let m = Metrics::new();
        m.record_stage_with_recovery(
            StageExecution {
                label: "flaky stage".into(),
                kind: EventKind::Stage,
                shuffle_id: None,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::ZERO,
                tasks: vec![task(0, 1.0, TaskProfile::new())],
            },
            RecoveryCounters {
                task_failures: 3,
                task_retries: 2,
                speculative_launched: 1,
                speculative_wins: 1,
                ..RecoveryCounters::default()
            },
        );
        m.note_recovery(&RecoveryCounters {
            nodes_lost: 1,
            recomputed_partitions: 5,
            ..RecoveryCounters::default()
        });
        let table = stage_report(&m);
        assert!(table.contains("3f 2r 1s"), "{table}");
        let report = full_report(&m);
        assert!(report.contains("3 task failures"), "{report}");
        assert!(report.contains("1 nodes lost"), "{report}");
        assert!(report.contains("5 partitions recomputed"), "{report}");
    }

    #[test]
    fn transient_and_checkpoint_counters_show_in_totals() {
        use crate::fault::RecoveryCounters;
        let m = Metrics::new();
        m.record_stage(StageExecution {
            label: "s".into(),
            kind: EventKind::Stage,
            shuffle_id: None,
            overhead: SimDuration::ZERO,
            trailing: SimDuration::ZERO,
            tasks: vec![task(0, 1.0, TaskProfile::new())],
        });
        m.note_recovery(&RecoveryCounters {
            fetch_retries: 4,
            backoff_micros: 1_500_000,
            checkpoint_writes: 8,
            checkpoint_reads: 3,
            max_replay_depth: 2,
            ..RecoveryCounters::default()
        });
        let report = full_report(&m);
        assert!(report.contains("4 fetch retries"), "{report}");
        assert!(report.contains("1.500s backoff"), "{report}");
        assert!(report.contains("8 checkpoint writes"), "{report}");
        assert!(report.contains("3 checkpoint reads"), "{report}");
        assert!(report.contains("max replay depth 2"), "{report}");
    }

    #[test]
    fn integrity_counters_show_in_totals() {
        use crate::fault::{IntegrityCounters, RecoveryCounters};
        let m = Metrics::new();
        m.record_stage(StageExecution {
            label: "s".into(),
            kind: EventKind::Stage,
            shuffle_id: None,
            overhead: SimDuration::ZERO,
            trailing: SimDuration::ZERO,
            tasks: vec![task(0, 1.0, TaskProfile::new())],
        });
        m.note_recovery(&RecoveryCounters {
            integrity: IntegrityCounters {
                corruptions_injected: 5,
                corruptions_detected: 5,
                corruptions_repaired: 5,
                repaired_via_replica: 2,
                repaired_via_recompute: 2,
                repaired_via_resubmit: 1,
            },
            ..RecoveryCounters::default()
        });
        let report = full_report(&m);
        assert!(
            report.contains("integrity: 5 corruptions injected"),
            "{report}"
        );
        assert!(report.contains("5 detected"), "{report}");
        assert!(
            report.contains("(2 via replica, 2 via recompute, 1 via resubmit)"),
            "{report}"
        );
    }

    #[test]
    fn fault_free_report_has_no_recovery_lines() {
        let m = Metrics::new();
        m.record_stage(StageExecution {
            label: "clean".into(),
            kind: EventKind::Stage,
            shuffle_id: None,
            overhead: SimDuration::ZERO,
            trailing: SimDuration::ZERO,
            tasks: vec![task(0, 1.0, TaskProfile::new())],
        });
        let report = full_report(&m);
        assert!(!report.contains("recovery:"));
        assert!(!report.contains("transients:"));
        assert!(!report.contains("integrity:"));
        assert!(!report.contains("memory:"));
    }

    #[test]
    fn full_report_without_drops_has_no_warning() {
        let m = Metrics::new();
        m.record_stage(StageExecution {
            label: "s".into(),
            kind: EventKind::Stage,
            shuffle_id: None,
            overhead: SimDuration::ZERO,
            trailing: SimDuration::ZERO,
            tasks: vec![task(0, 1.0, TaskProfile::new())],
        });
        let report = full_report(&m);
        assert!(!report.contains("WARNING"), "{report}");
        assert!(report.contains("== Totals =="));
    }
}
