//! The paper's §V.D application: mining medical case data "to find the
//! relationship in medicine", with association rules over comorbidity
//! patterns — plus the YAFIM vs MapReduce comparison the paper reports as
//! ~25× on this workload.
//!
//! ```sh
//! cargo run --release --example medical_rules
//! ```

use yafim::cluster::SimCluster;
use yafim::data::{to_lines, MedicalConfig, MedicalGenerator};
use yafim::rdd::Context;
use yafim::{
    generate_rules, Itemset, MiningResult, MrApriori, MrAprioriConfig, Support, Yafim, YafimConfig,
};

/// The closed frequent itemsets, those with no superset of *equal* support
/// (Bayardo's condensed representation, the paper's ref \[2\]): they carry
/// every support with far fewer sets. Largest first, each with its support.
fn closed_itemsets(result: &MiningResult) -> Vec<(Itemset, u64)> {
    let mut out = Vec::new();
    for k in 1..=result.max_len() {
        for (set, sup) in result.level(k) {
            // A superset's support never exceeds the subset's, so checking
            // the next level suffices.
            let absorbed = result
                .level(k + 1)
                .iter()
                .any(|(bigger, bsup)| bsup == sup && set.is_subset_of_sorted(bigger.items()));
            if !absorbed {
                out.push((set.clone(), *sup));
            }
        }
    }
    out.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
    out
}

fn main() {
    // Synthetic hospital case records: each case is a basket of medical
    // entities (diagnoses, medications) with planted comorbidity groups.
    let cases = MedicalGenerator::new(MedicalConfig {
        cases: 10_000,
        ..MedicalConfig::paper_scale()
    })
    .generate();
    let support = Support::percent(3.0); // the paper's Fig. 6 threshold

    let spark_cluster = SimCluster::paper_cluster();
    spark_cluster
        .hdfs()
        .put_overwrite("cases.dat", to_lines(&cases));
    let yafim = Yafim::new(Context::new(spark_cluster), YafimConfig::new(support))
        .mine("cases.dat")
        .expect("dataset written");

    let mr_cluster = SimCluster::paper_cluster();
    mr_cluster
        .hdfs()
        .put_overwrite("cases.dat", to_lines(&cases));
    let mr = MrApriori::new(mr_cluster, MrAprioriConfig::new(support))
        .mine("cases.dat")
        .expect("dataset written");

    assert_eq!(yafim.result, mr.result);

    println!(
        "{} cases at Sup = 3%: {} frequent entity sets, deepest pattern {} entities",
        cases.len(),
        yafim.result.total(),
        yafim.result.max_len()
    );
    println!("\nper-iteration comparison (the paper's Fig. 6 shape):");
    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "pass", "YAFIM (s)", "MR (s)", "speedup"
    );
    for (y, m) in yafim.passes.iter().zip(&mr.passes) {
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>8.1}x",
            y.pass,
            y.seconds,
            m.seconds,
            m.seconds / y.seconds
        );
    }
    println!(
        "{:>6} {:>12.2} {:>12.2} {:>8.1}x   (paper: ~25x)",
        "total",
        yafim.total_seconds,
        mr.total_seconds,
        mr.total_seconds / yafim.total_seconds
    );

    // Condense before presenting: closed itemsets carry all support
    // information with far fewer sets.
    let closed = closed_itemsets(&yafim.result);
    println!(
        "\n{} frequent sets condense to {} closed sets; largest comorbidity clusters:",
        yafim.result.total(),
        closed.len()
    );
    for (set, sup) in closed.iter().take(3) {
        println!(
            "  {} entities co-occurring in {sup} cases: {set}",
            set.len()
        );
    }

    // High-confidence comorbidity rules: "patients with A are usually also
    // prescribed/diagnosed B".
    let rules = generate_rules(&yafim.result, cases.len() as u64, 0.8);
    println!("\nstrongest clinical associations (confidence >= 80%, by lift):");
    let mut by_lift = rules;
    by_lift.sort_by(|a, b| b.lift.partial_cmp(&a.lift).expect("finite lift"));
    for rule in by_lift.iter().take(10) {
        println!("  {rule}");
    }
}
