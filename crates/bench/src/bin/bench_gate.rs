//! Bench-regression gate: compare two [`RunManifest`]s metric by metric.
//!
//! The gate is the machine half of the observability story: every bench
//! binary emits a versioned manifest whose `metrics` map holds only
//! deterministic quantities (virtual seconds, critical-path buckets,
//! registry counters, byte totals — never wall-clock). CI re-runs the
//! smoke benches, then gates the fresh manifests against the committed
//! baselines in `results/`; any metric outside its tolerance band fails
//! the build.
//!
//! Modes:
//!
//! * `bench_gate --baseline FILE --candidate FILE [--tolerance FRAC]
//!   [--metric-tolerance NAME=FRAC]...` — compare. `NAME` may end in `*`
//!   for a prefix band (e.g. `--metric-tolerance 'hist.*=0.05'`); the
//!   longest matching rule wins, exact names beat prefixes.
//! * `bench_gate --self-test` — plant a 50 % regression in a synthetic
//!   manifest pair and **exit non-zero** when the gate (correctly)
//!   catches it. CI asserts the non-zero exit, so a gate that has gone
//!   blind fails the build by exiting zero here.
//! * `bench_gate --validate FILE...` — parse each JSON document and
//!   round-trip it (`parse → emit → parse`); files carrying both a
//!   `schema_version` and a `metrics` map must also decode as manifests.
//!   Used by CI to keep
//!   every emitted trace/manifest machine-readable.
//!
//! Exit codes: `0` ok, `1` regression (or validation failure), `2` usage
//! error or incompatible manifests (schema version, bench name, engine or
//! dataset/config fingerprint mismatch — refusing to compare beats
//! comparing the wrong experiments).

use std::collections::BTreeSet;
use std::process::ExitCode;
use yafim_cluster::json::{self, JsonValue};
use yafim_cluster::{RunManifest, MANIFEST_SCHEMA_VERSION};

/// Absolute slack added to every band so a zero baseline tolerates only
/// genuinely negligible drift.
const ABS_EPSILON: f64 = 1e-9;

/// Default relative band. Manifest metrics are deterministic, so the
/// default is tight; loosen per metric where a bench has a documented
/// source of drift.
const DEFAULT_TOLERANCE: f64 = 1e-6;

struct Tolerances {
    default: f64,
    /// `(pattern, band)`; a pattern ending in `*` matches by prefix.
    rules: Vec<(String, f64)>,
}

impl Tolerances {
    fn band_for(&self, metric: &str) -> f64 {
        let mut best: Option<(usize, bool, f64)> = None; // (specificity, exact, band)
        for (pat, band) in &self.rules {
            let (hit, exact, len) = match pat.strip_suffix('*') {
                Some(prefix) => (metric.starts_with(prefix), false, prefix.len()),
                None => (metric == pat, true, pat.len()),
            };
            if hit && best.is_none_or(|(l, e, _)| (len, exact) > (l, e)) {
                best = Some((len, exact, *band));
            }
        }
        best.map_or(self.default, |(_, _, b)| b)
    }
}

enum Failure {
    MissingInCandidate(String, f64),
    MissingInBaseline(String, f64),
    Drift {
        metric: String,
        baseline: f64,
        candidate: f64,
        band: f64,
    },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::MissingInCandidate(m, b) => {
                write!(
                    f,
                    "{m}: present in baseline ({b}) but missing from candidate"
                )
            }
            Failure::MissingInBaseline(m, c) => {
                write!(
                    f,
                    "{m}: present in candidate ({c}) but not in baseline (refresh the baseline)"
                )
            }
            Failure::Drift {
                metric,
                baseline,
                candidate,
                band,
            } => {
                let denom = baseline.abs().max(candidate.abs()).max(ABS_EPSILON);
                write!(
                    f,
                    "{metric}: baseline {baseline} -> candidate {candidate} \
                     ({:+.4}% , band {:.4}%)",
                    (candidate - baseline) / denom * 100.0,
                    band * 100.0
                )
            }
        }
    }
}

/// Refuse to compare manifests describing different experiments.
fn check_compatible(base: &RunManifest, cand: &RunManifest) -> Result<(), String> {
    if base.schema_version != cand.schema_version {
        return Err(format!(
            "schema_version mismatch: baseline v{} vs candidate v{} (gate speaks v{})",
            base.schema_version, cand.schema_version, MANIFEST_SCHEMA_VERSION
        ));
    }
    if base.bench != cand.bench {
        return Err(format!(
            "bench mismatch: baseline '{}' vs candidate '{}'",
            base.bench, cand.bench
        ));
    }
    if base.engine != cand.engine {
        return Err(format!(
            "engine mismatch: baseline '{}' vs candidate '{}'",
            base.engine, cand.engine
        ));
    }
    if base.fingerprint != cand.fingerprint {
        return Err(format!(
            "dataset/config fingerprint mismatch: baseline {} vs candidate {} \
             (different experiment parameters — refresh the baseline instead)",
            base.fingerprint, cand.fingerprint
        ));
    }
    Ok(())
}

/// Compare every metric in either manifest against its tolerance band.
fn compare(base: &RunManifest, cand: &RunManifest, tol: &Tolerances) -> Vec<Failure> {
    let names: BTreeSet<&String> = base.metrics.keys().chain(cand.metrics.keys()).collect();
    let mut failures = Vec::new();
    for name in names {
        match (base.metrics.get(name), cand.metrics.get(name)) {
            (Some(b), None) => failures.push(Failure::MissingInCandidate(name.clone(), *b)),
            (None, Some(c)) => failures.push(Failure::MissingInBaseline(name.clone(), *c)),
            (Some(b), Some(c)) => {
                let band = tol.band_for(name);
                if (c - b).abs() > band * b.abs().max(c.abs()) + ABS_EPSILON {
                    failures.push(Failure::Drift {
                        metric: name.clone(),
                        baseline: *b,
                        candidate: *c,
                        band,
                    });
                }
            }
            (None, None) => unreachable!("name came from one of the maps"),
        }
    }
    failures
}

fn load_manifest(path: &str) -> Result<RunManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    RunManifest::from_json(&value).map_err(|e| format!("{path}: {e}"))
}

fn gate(baseline_path: &str, candidate_path: &str, tol: &Tolerances) -> Result<ExitCode, String> {
    let base = load_manifest(baseline_path)?;
    let cand = load_manifest(candidate_path)?;
    check_compatible(&base, &cand)?;
    let failures = compare(&base, &cand, tol);
    if failures.is_empty() {
        println!(
            "gate: OK — bench '{}' ({}), {} metrics within tolerance",
            base.bench,
            base.engine,
            base.metrics.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "gate: REGRESSION — bench '{}' ({}), {} of {} metrics outside tolerance:",
            base.bench,
            base.engine,
            failures.len(),
            base.metrics.len().max(cand.metrics.len())
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        Ok(ExitCode::from(1))
    }
}

/// A synthetic manifest pair for `--self-test`.
fn toy_manifest() -> RunManifest {
    let dataset = JsonValue::object(vec![("name", "self-test".into())]);
    let config = JsonValue::object(vec![("mode", "toy".into())]);
    let fingerprint = RunManifest::fingerprint_of(&dataset, &config);
    let mut metrics = std::collections::BTreeMap::new();
    metrics.insert("virtual_seconds".to_string(), 10.0);
    metrics.insert("bucket.compute".to_string(), 7.0);
    metrics.insert("bucket.shuffle_read".to_string(), 3.0);
    metrics.insert("counter.executor.tasks".to_string(), 64.0);
    RunManifest {
        schema_version: MANIFEST_SCHEMA_VERSION,
        bench: "self-test".to_string(),
        engine: "toy".to_string(),
        dataset,
        config,
        fingerprint,
        metrics,
        detail: JsonValue::Null,
    }
}

/// Prove the gate still bites: identical manifests must pass, a planted
/// 50 % regression must fail, and a fingerprint mismatch must be refused.
/// Exits non-zero exactly when all three hold (CI asserts the non-zero
/// exit).
fn self_test(tol: &Tolerances) -> ExitCode {
    let base = toy_manifest();

    if !compare(&base, &base.clone(), tol).is_empty() {
        eprintln!("self-test BROKEN: identical manifests compared unequal");
        return ExitCode::SUCCESS; // zero exit -> CI's `!` assertion fails
    }
    println!("self-test: identical manifests compare clean");

    let mut slow = base.clone();
    slow.metrics.insert("virtual_seconds".to_string(), 15.0);
    let failures = compare(&base, &slow, tol);
    if failures.is_empty() {
        eprintln!("self-test BROKEN: planted 50% regression went undetected");
        return ExitCode::SUCCESS;
    }
    println!("self-test: planted 50% regression detected:");
    for f in &failures {
        println!("  {f}");
    }

    let mut other = base.clone();
    other.fingerprint = "0000000000000000".to_string();
    if check_compatible(&base, &other).is_ok() {
        eprintln!("self-test BROKEN: fingerprint mismatch was not refused");
        return ExitCode::SUCCESS;
    }
    println!("self-test: fingerprint mismatch refused");

    println!("self-test: gate is healthy — exiting non-zero as designed");
    ExitCode::from(1)
}

/// The integrity counters every manifest must carry, with their internal
/// consistency rules: silent corruption is only ever *observed* at
/// detection time, so detected == injected; nothing undetected can be
/// repaired; and every repair went down exactly one repair path.
fn check_integrity_metrics(m: &RunManifest) -> Result<(), String> {
    let get = |name: &str| -> Result<f64, String> {
        m.metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing integrity metric '{name}'"))
    };
    let injected = get("integrity.corruptions_injected")?;
    let detected = get("integrity.corruptions_detected")?;
    let repaired = get("integrity.corruptions_repaired")?;
    let via = get("integrity.repaired_via_replica")?
        + get("integrity.repaired_via_recompute")?
        + get("integrity.repaired_via_resubmit")?;
    if detected != injected {
        return Err(format!(
            "integrity.corruptions_detected ({detected}) != corruptions_injected ({injected})"
        ));
    }
    if repaired > detected {
        return Err(format!(
            "integrity.corruptions_repaired ({repaired}) exceeds corruptions_detected ({detected})"
        ));
    }
    if via != repaired {
        return Err(format!(
            "integrity repair paths sum to {via} but corruptions_repaired is {repaired}"
        ));
    }
    Ok(())
}

/// Bitmap-engine consistency rules: intersecting words requires a columnar
/// store to have been built; builds always register their arena bytes; a
/// manifest that both fell back *and* built columnar partitions caught the
/// density guard flapping; and the columnar arenas live in the cache, so
/// their build bytes can never exceed the cache's peak (when the manifest
/// reports one). Metrics absent from pre-bitmap manifests count as zero, so
/// older baselines still validate.
fn check_bitmap_metrics(m: &RunManifest) -> Result<(), String> {
    let get = |name: &str| m.metrics.get(name).copied().unwrap_or(0.0);
    let words = get("counter.bitmap.words_intersected");
    let built = get("counter.bitmap.partitions_built");
    let bytes = get("counter.bitmap.build_bytes");
    let fallbacks = get("counter.bitmap.fallbacks");
    if words > 0.0 && built == 0.0 {
        return Err(format!(
            "counter.bitmap.words_intersected ({words}) without any \
             counter.bitmap.partitions_built"
        ));
    }
    if (built > 0.0) != (bytes > 0.0) {
        return Err(format!(
            "counter.bitmap.partitions_built ({built}) and \
             counter.bitmap.build_bytes ({bytes}) must be zero or nonzero together"
        ));
    }
    if fallbacks > 0.0 && built > 0.0 {
        return Err(format!(
            "counter.bitmap.fallbacks ({fallbacks}) alongside \
             counter.bitmap.partitions_built ({built}): the density guard flapped"
        ));
    }
    if built > 0.0 {
        if let Some(&peak) = m.metrics.get("peak_cache_bytes") {
            if bytes > peak {
                return Err(format!(
                    "counter.bitmap.build_bytes ({bytes}) exceeds peak_cache_bytes \
                     ({peak}): columnar arenas must live in the cache"
                ));
            }
        }
    }
    Ok(())
}

/// Memory-governor consistency rules: every injected OOM is resolved
/// exactly once (killed or survived by degradation); spilled bytes imply
/// spill events; and no task's execution peak can exceed the hard budget
/// cap the governor advertised (when one was armed). Metrics absent from
/// pre-governor manifests count as zero, so older baselines still
/// validate.
fn check_memory_metrics(m: &RunManifest) -> Result<(), String> {
    let get = |name: &str| m.metrics.get(name).copied().unwrap_or(0.0);
    let injected = get("mem.oom_injected");
    let killed = get("mem.oom_killed");
    let survived = get("mem.oom_survived_by_degradation");
    if injected != killed + survived {
        return Err(format!(
            "mem.oom_injected ({injected}) != mem.oom_killed ({killed}) + \
             mem.oom_survived_by_degradation ({survived})"
        ));
    }
    if get("mem.spill_bytes") > 0.0 && get("mem.spills") == 0.0 {
        return Err(format!(
            "mem.spill_bytes ({}) without any mem.spills",
            get("mem.spill_bytes")
        ));
    }
    let budget = get("gauge.mem.task_budget_bytes");
    let peak = get("mem.peak_execution_bytes");
    if budget > 0.0 && peak > budget {
        return Err(format!(
            "mem.peak_execution_bytes ({peak}) exceeds the governor's hard \
             cap gauge.mem.task_budget_bytes ({budget})"
        ));
    }
    Ok(())
}

/// Parse + round-trip every file; manifests must also decode.
fn validate(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("usage: bench_gate --validate FILE...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in paths {
        let verdict = (|| -> Result<&'static str, String> {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let value = json::parse(&text).map_err(|e| e.to_string())?;
            let reparsed =
                json::parse(&value.to_string()).map_err(|e| format!("round-trip re-parse: {e}"))?;
            if reparsed != value {
                return Err("round-trip changed the document".to_string());
            }
            // A manifest carries both a schema version and the flat
            // metrics map; BENCH_*.json files share the version field but
            // are not manifests.
            if value.get("schema_version").is_some() && value.get("metrics").is_some() {
                let manifest =
                    RunManifest::from_json(&value).map_err(|e| format!("manifest decode: {e}"))?;
                check_integrity_metrics(&manifest)?;
                check_bitmap_metrics(&manifest)?;
                check_memory_metrics(&manifest)?;
                Ok("manifest ok (integrity + bitmap + memory counters consistent)")
            } else {
                Ok("json ok")
            }
        })();
        match verdict {
            Ok(kind) => println!("validate: {path}: {kind}"),
            Err(e) => {
                eprintln!("validate: {path}: FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        println!("validate: all {} files machine-readable", paths.len());
        ExitCode::SUCCESS
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         bench_gate --baseline FILE --candidate FILE [--tolerance FRAC] \
         [--metric-tolerance NAME=FRAC]...\n  \
         bench_gate --self-test\n  \
         bench_gate --validate FILE..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut tol = Tolerances {
        default: DEFAULT_TOLERANCE,
        rules: Vec::new(),
    };
    let mut baseline: Option<String> = None;
    let mut candidate: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--self-test" => return self_test(&tol),
            "--validate" => return validate(&args[i + 1..]),
            "--baseline" | "--candidate" | "--tolerance" | "--metric-tolerance" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{} needs a value", args[i]);
                    return usage();
                };
                match args[i].as_str() {
                    "--baseline" => baseline = Some(value.clone()),
                    "--candidate" => candidate = Some(value.clone()),
                    "--tolerance" => match value.parse::<f64>() {
                        Ok(f) if f >= 0.0 => tol.default = f,
                        _ => {
                            eprintln!("--tolerance wants a non-negative fraction, got '{value}'");
                            return usage();
                        }
                    },
                    "--metric-tolerance" => {
                        let Some((name, band)) = value.split_once('=') else {
                            eprintln!("--metric-tolerance wants NAME=FRAC, got '{value}'");
                            return usage();
                        };
                        match band.parse::<f64>() {
                            Ok(f) if f >= 0.0 => tol.rules.push((name.to_string(), f)),
                            _ => {
                                eprintln!("bad band in '{value}'");
                                return usage();
                            }
                        }
                    }
                    _ => unreachable!(),
                }
                i += 2;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }

    let (Some(base), Some(cand)) = (baseline, candidate) else {
        return usage();
    };
    match gate(&base, &cand, &tol) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gate: INCOMPATIBLE: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_manifests_pass() {
        let tol = Tolerances {
            default: DEFAULT_TOLERANCE,
            rules: vec![],
        };
        let m = toy_manifest();
        assert!(compare(&m, &m.clone(), &tol).is_empty());
    }

    #[test]
    fn drift_beyond_band_fails_and_within_band_passes() {
        let tol = Tolerances {
            default: 0.05,
            rules: vec![],
        };
        let base = toy_manifest();
        let mut cand = base.clone();
        cand.metrics.insert("virtual_seconds".into(), 10.4); // +4% < 5%
        assert!(compare(&base, &cand, &tol).is_empty());
        cand.metrics.insert("virtual_seconds".into(), 11.0); // +10% > 5%
        assert_eq!(compare(&base, &cand, &tol).len(), 1);
    }

    #[test]
    fn missing_and_extra_metrics_fail() {
        let tol = Tolerances {
            default: DEFAULT_TOLERANCE,
            rules: vec![],
        };
        let base = toy_manifest();
        let mut cand = base.clone();
        cand.metrics.remove("bucket.compute");
        cand.metrics.insert("counter.new".into(), 1.0);
        assert_eq!(compare(&base, &cand, &tol).len(), 2);
    }

    #[test]
    fn per_metric_band_overrides_default_and_exact_beats_prefix() {
        let tol = Tolerances {
            default: DEFAULT_TOLERANCE,
            rules: vec![
                ("bucket.*".to_string(), 0.5),
                ("bucket.compute".to_string(), 0.0),
            ],
        };
        assert_eq!(tol.band_for("bucket.shuffle_read"), 0.5);
        assert_eq!(tol.band_for("bucket.compute"), 0.0);
        assert_eq!(tol.band_for("virtual_seconds"), DEFAULT_TOLERANCE);
    }

    #[test]
    fn incompatible_fingerprints_are_refused() {
        let base = toy_manifest();
        let mut other = base.clone();
        other.fingerprint = "f".repeat(16);
        assert!(check_compatible(&base, &other).is_err());
        assert!(check_compatible(&base, &base.clone()).is_ok());
    }

    #[test]
    fn integrity_metrics_must_be_present_and_consistent() {
        let mut m = toy_manifest();
        assert!(check_integrity_metrics(&m)
            .unwrap_err()
            .contains("missing integrity metric"));

        for (k, v) in [
            ("integrity.corruptions_injected", 4.0),
            ("integrity.corruptions_detected", 4.0),
            ("integrity.corruptions_repaired", 4.0),
            ("integrity.repaired_via_replica", 1.0),
            ("integrity.repaired_via_recompute", 1.0),
            ("integrity.repaired_via_resubmit", 2.0),
        ] {
            m.metrics.insert(k.to_string(), v);
        }
        assert!(check_integrity_metrics(&m).is_ok());

        m.metrics
            .insert("integrity.corruptions_detected".into(), 3.0);
        assert!(check_integrity_metrics(&m)
            .unwrap_err()
            .contains("!= corruptions_injected"));

        m.metrics
            .insert("integrity.corruptions_detected".into(), 4.0);
        m.metrics
            .insert("integrity.repaired_via_resubmit".into(), 5.0);
        assert!(check_integrity_metrics(&m)
            .unwrap_err()
            .contains("repair paths sum"));
    }

    #[test]
    fn bitmap_metrics_must_cohere() {
        // Pre-bitmap manifests carry none of the counters and validate.
        let mut m = toy_manifest();
        assert!(check_bitmap_metrics(&m).is_ok());

        for (k, v) in [
            ("counter.bitmap.words_intersected", 5000.0),
            ("counter.bitmap.partitions_built", 8.0),
            ("counter.bitmap.build_bytes", 4096.0),
            ("counter.bitmap.fallbacks", 0.0),
            ("peak_cache_bytes", 100_000.0),
        ] {
            m.metrics.insert(k.to_string(), v);
        }
        assert!(check_bitmap_metrics(&m).is_ok());

        // Words counted without a columnar store is impossible.
        m.metrics
            .insert("counter.bitmap.partitions_built".into(), 0.0);
        assert!(check_bitmap_metrics(&m)
            .unwrap_err()
            .contains("without any"));

        // Builds always register bytes (and vice versa).
        m.metrics
            .insert("counter.bitmap.partitions_built".into(), 8.0);
        m.metrics.insert("counter.bitmap.build_bytes".into(), 0.0);
        assert!(check_bitmap_metrics(&m)
            .unwrap_err()
            .contains("zero or nonzero together"));

        // Falling back and building in the same run means the guard flapped.
        m.metrics
            .insert("counter.bitmap.build_bytes".into(), 4096.0);
        m.metrics.insert("counter.bitmap.fallbacks".into(), 1.0);
        assert!(check_bitmap_metrics(&m).unwrap_err().contains("flapped"));

        // Columnar arenas live in the cache, bounded by its peak.
        m.metrics.insert("counter.bitmap.fallbacks".into(), 0.0);
        m.metrics.insert("peak_cache_bytes".into(), 100.0);
        assert!(check_bitmap_metrics(&m)
            .unwrap_err()
            .contains("exceeds peak_cache_bytes"));
    }

    #[test]
    fn memory_metrics_must_cohere() {
        // Pre-governor manifests carry none of the counters and validate.
        let mut m = toy_manifest();
        assert!(check_memory_metrics(&m).is_ok());

        for (k, v) in [
            ("mem.oom_injected", 6.0),
            ("mem.oom_killed", 4.0),
            ("mem.oom_survived_by_degradation", 2.0),
            ("mem.spills", 3.0),
            ("mem.spill_bytes", 12288.0),
            ("mem.peak_execution_bytes", 50_000.0),
            ("gauge.mem.task_budget_bytes", 100_000.0),
        ] {
            m.metrics.insert(k.to_string(), v);
        }
        assert!(check_memory_metrics(&m).is_ok());

        // Every injected OOM is resolved exactly once.
        m.metrics.insert("mem.oom_killed".into(), 5.0);
        assert!(check_memory_metrics(&m)
            .unwrap_err()
            .contains("mem.oom_injected"));

        // Spilled bytes without spill events is impossible.
        m.metrics.insert("mem.oom_killed".into(), 4.0);
        m.metrics.insert("mem.spills".into(), 0.0);
        assert!(check_memory_metrics(&m)
            .unwrap_err()
            .contains("without any mem.spills"));

        // A task peak above the governor's hard cap means the ledger leaked.
        m.metrics.insert("mem.spills".into(), 3.0);
        m.metrics
            .insert("mem.peak_execution_bytes".into(), 200_000.0);
        assert!(check_memory_metrics(&m)
            .unwrap_err()
            .contains("exceeds the governor's hard cap"));

        // An unarmed governor (budget gauge 0) bounds nothing.
        m.metrics.insert("gauge.mem.task_budget_bytes".into(), 0.0);
        assert!(check_memory_metrics(&m).is_ok());
    }

    #[test]
    fn zero_baseline_tolerates_only_epsilon() {
        let tol = Tolerances {
            default: 0.05,
            rules: vec![],
        };
        let mut base = toy_manifest();
        base.metrics.insert("recovery.nodes_lost".into(), 0.0);
        let mut cand = base.clone();
        assert!(compare(&base, &cand, &tol).is_empty());
        cand.metrics.insert("recovery.nodes_lost".into(), 1.0);
        assert_eq!(compare(&base, &cand, &tol).len(), 1);
    }
}
