//! The fault plan and the counter tables from the outside: whatever JSON
//! arrives, `FaultPlan::from_json` answers with a plan that round-trips or
//! one line of error, the example plans emit what they always emitted, and
//! a run manifest carries exactly the committed key set whichever miner ran
//! and whatever went wrong.

use std::collections::BTreeSet;
use yafim::cluster::json::{self, JsonValue};
use yafim::cluster::{ClusterSpec, CostModel, FaultPlan, RunManifest, SimCluster};
use yafim::data::rng::StdRng;
use yafim::data::{to_lines, PaperDataset};
use yafim::{Miner, Phase2Plan, Support};

/// What `FaultPlan::seeded(0).to_json()` printed before the field table.
/// Kept byte for byte: every default that is still a field must hold it.
const DEFAULTS_AT_PARENT: &str = r#"{"blacklist_after":3,"blacklist_expiry":0,"cache_corruption_prob":0,"checkpoint_interval":0,"fetch_backoff_base":0.05,"fetch_failure_prob":0,"fetch_retries":3,"hdfs_corruption_prob":0,"hdfs_failure_prob":0,"heartbeat_interval":0.5,"heartbeat_timeout":0,"max_task_failures":4,"mem_budget_override":null,"node_losses":[],"oom_prob":0,"resubmit_delay":0.2,"seed":0,"shuffle_corruption_prob":0,"slow_nodes":[],"speculation":false,"speculation_multiplier":1.5,"targeted_corruptions":[],"task_crash_prob":0}"#;

/// The fields that became constants since, each at the default above.
const CONSTANTS: [&str; 6] = [
    "blacklist_after",
    "fetch_backoff_base",
    "fetch_retries",
    "heartbeat_interval",
    "resubmit_delay",
    "speculation_multiplier",
];

/// `DEFAULTS_AT_PARENT` less the fields that became constants.
fn defaults() -> std::collections::BTreeMap<String, JsonValue> {
    let parsed = json::parse(DEFAULTS_AT_PARENT).expect("valid JSON");
    let mut fields = parsed.as_object().expect("an object").clone();
    for name in CONSTANTS {
        fields.remove(name).expect("a parent field");
    }
    fields
}

#[test]
fn example_plans_emit_what_the_parent_commit_emitted() {
    assert_eq!(
        FaultPlan::seeded(0).to_json(),
        JsonValue::Object(defaults())
    );
    for name in ["corruption", "nodeloss", "oom", "transient"] {
        let path = format!("{}/results/{name}.fault.json", env!("CARGO_MANIFEST_DIR"));
        let doc = json::parse(&std::fs::read_to_string(&path).expect("committed")).expect(&path);
        // The parent printed every default, overlaid with the file's values.
        let mut expected = defaults();
        expected.extend(doc.as_object().expect("an object").clone());
        let plan = FaultPlan::from_json(&doc).expect(&path);
        assert_eq!(plan.to_json(), JsonValue::Object(expected), "{path}");
    }
}

/// One random JSON value: mostly numbers of every awkward sort, with the
/// other shapes (and nested arrays of every arity) mixed in.
fn random_value(rng: &mut StdRng, depth: u32) -> JsonValue {
    let numbers = [
        0.0,
        1.0,
        2.0,
        0.5,
        2.7,
        -1.0,
        -0.5,
        1e-9,
        1e308,
        -1e308,
        4294967296.0,
    ];
    match rng.gen_range(0..12u32) {
        0..=4 => numbers[rng.gen_range(0..numbers.len())].into(),
        5 => (rng.gen_range(0..100u32) as u64).into(),
        6 => rng.gen::<f64>().into(),
        7 => JsonValue::Bool(rng.gen_range(0..2u32) == 0),
        8 => JsonValue::Null,
        9 => ["cache", "hdfs", "shuffle", "ssd", "1g\n"][rng.gen_range(0..5usize)].into(),
        10 => JsonValue::object(vec![("seed", 1u64.into())]),
        _ if depth == 0 => JsonValue::Array(Vec::new()),
        _ => {
            let len = rng.gen_range(0..5usize);
            JsonValue::Array((0..len).map(|_| random_value(rng, depth - 1)).collect())
        }
    }
}

#[test]
fn fuzzed_plan_documents_round_trip_or_fail_in_one_line() {
    let defaults = defaults();
    let names: Vec<&String> = defaults.keys().collect();
    let mut rng = StdRng::seed_from_u64(0xfa17);
    let (mut plans, mut errors) = (0, 0);
    for _ in 0..10_000 {
        // Random field subsets; per document, up to three fields in ten get
        // a value of any shape, the rest one of their default's own shape.
        let hostile = rng.gen_range(0..4u32);
        let mut doc = std::collections::BTreeMap::new();
        for name in &names {
            let value = match (rng.gen_range(0..10u32), &defaults[*name]) {
                (0..=5, _) => continue,
                (roll, _) if roll >= 10 - hostile => random_value(&mut rng, 2),
                // 1 is in every scalar kind's range, 0.25 and 2 in some.
                (_, JsonValue::Number(_)) => [1.0, 1.0, 0.25, 2.0][rng.gen_range(0..4usize)].into(),
                (_, JsonValue::Bool(_)) => JsonValue::Bool(rng.gen_range(0..2u32) == 0),
                (_, shape) => shape.clone(),
            };
            doc.insert((*name).clone(), value);
        }
        if rng.gen_range(0..20u32) == 0 {
            doc.insert(format!("{}\ns", names[0]), JsonValue::Null);
        }
        // Through text, as a file would arrive.
        let text = JsonValue::Object(doc).to_string();
        match FaultPlan::from_json(&json::parse(&text).expect("we wrote it")) {
            Ok(plan) => {
                plans += 1;
                let emitted = json::parse(&plan.to_json().to_string()).expect("valid JSON");
                assert_eq!(FaultPlan::from_json(&emitted), Ok(plan), "{text}");
            }
            Err(e) => {
                errors += 1;
                assert_eq!(e.lines().count(), 1, "{text}: {e}");
                assert!(e.contains("fault plan field `"), "{text}: {e}");
            }
        }
    }
    assert!(
        plans > 500 && errors > 500,
        "{plans} plans, {errors} errors"
    );
}

#[test]
fn a_captured_manifest_has_exactly_the_committed_key_set() {
    let path = format!(
        "{}/results/phase2.manifest.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let committed =
        json::parse(&std::fs::read_to_string(&path).expect("committed")).expect("a manifest");
    // What `repro ablation_matching` pushes on top of `capture`.
    let pushed = |k: &str| {
        k.starts_with("pass.") || ["frequent_itemsets", "passes", "peak_cache_bytes"].contains(&k)
    };
    let expected: BTreeSet<&str> = committed
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("a metrics map")
        .keys()
        .map(String::as_str)
        .filter(|k| !pushed(k))
        .collect();

    // Every distributed miner on a clean cluster, then a bitmap and a
    // MapReduce run through a node loss and through silent corruption.
    let clean = Miner::ALL.into_iter().filter(|m| m.is_distributed());
    let faulty = ["nodeloss", "corruption"].into_iter().flat_map(|plan| {
        [Miner::Spark(Phase2Plan::Bitmap), Miner::MapReduce].map(|m| (m, Some(plan)))
    });
    let tx = to_lines(&PaperDataset::T10I4D100K.generate_scaled(0.01));
    for (miner, plan) in clean.map(|m| (m, None)).chain(faulty) {
        let cluster = SimCluster::new(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era());
        if let Some(name) = plan {
            let path = format!("{}/results/{name}.fault.json", env!("CARGO_MANIFEST_DIR"));
            let doc = json::parse(&std::fs::read_to_string(&path).expect("committed"));
            cluster
                .faults()
                .set_plan(FaultPlan::from_json(&doc.expect(&path)).expect(&path));
        }
        cluster.hdfs().put_overwrite("quest.dat", tx.clone());
        let run = format!("{miner:?} under {plan:?}");
        miner
            .mine(&cluster, "quest.dat", Support::Fraction(0.02))
            .expect(&run);
        let empty = || JsonValue::object(Vec::new());
        let manifest = RunManifest::capture("keys", miner.name(), empty(), empty(), &cluster);
        // The fault paths did run.
        let fired = match plan {
            Some("nodeloss") => "recovery.nodes_lost",
            Some(_) => "integrity.corruptions_detected",
            None => "tasks",
        };
        assert!(manifest.metrics[fired] > 0.0, "{run}: no {fired}");
        let captured: BTreeSet<&str> = manifest.metrics.keys().map(String::as_str).collect();
        assert_eq!(captured, expected, "{run}");
    }
}
