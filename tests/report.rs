//! The run's record and its one text view, from the outside: every
//! distributed miner files each pass once, the passes tile the run in
//! order, the per-pass critical-path rows add up to each pass and (with the
//! time outside every pass) to the run's buckets, and `full_report` prints
//! one row per pass, each row's host `driver ms` within its `wall ms`, and
//! the bitmap plan's pass-2 layout note — clean,
//! through a node loss and through silent corruption.

use yafim::cluster::json;
use yafim::cluster::{critical_path, full_report, ClusterSpec, CostModel, FaultPlan, SimCluster};
use yafim::data::{to_lines, PaperDataset};
use yafim::{Miner, Phase2Plan, Support};

const EPS: f64 = 1e-6;

fn plan(name: &str) -> FaultPlan {
    let path = format!("{}/results/{name}.fault.json", env!("CARGO_MANIFEST_DIR"));
    let doc = json::parse(&std::fs::read_to_string(&path).expect("committed")).expect(&path);
    FaultPlan::from_json(&doc).expect(&path)
}

#[test]
fn passes_tile_the_run_and_their_rows_add_up() {
    let miners = [
        Miner::Spark(Phase2Plan::Paper),
        Miner::Spark(Phase2Plan::Bitmap),
        Miner::MapReduce,
        Miner::Son,
        Miner::Pfp,
    ];
    let tx = to_lines(&PaperDataset::Mushroom.generate_scaled(0.05));
    for miner in miners {
        for fault in [None, Some("nodeloss"), Some("corruption")] {
            let cluster = SimCluster::new(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era());
            if let Some(name) = fault {
                cluster.faults().set_plan(plan(name));
            }
            cluster.hdfs().put_overwrite("mush.dat", tx.clone());
            let case = format!("{miner:?} under {fault:?}");
            let run = miner
                .mine(&cluster, "mush.dat", Support::Fraction(0.35))
                .expect(&case);

            // The sink's record is the run's series, in order, end to start.
            let metrics = cluster.metrics();
            assert_eq!(metrics.passes(), run.passes, "{case}");
            assert!(!run.passes.is_empty(), "{case}");
            for pair in run.passes.windows(2) {
                assert_eq!(pair[1].pass, pair[0].last + 1, "{case}");
                let end = pair[0].start.as_secs() + pair[0].seconds;
                assert!(pair[1].start.as_secs() >= end - EPS, "{case}: {pair:?}");
            }

            let report = critical_path(metrics, cluster.cost());
            assert_eq!(report.passes.len(), run.passes.len(), "{case}");
            let mut sums = report.outside.named().map(|(_, v)| v);
            for (pass, row) in &report.passes {
                let total = row.total();
                assert!(
                    (total - pass.seconds).abs() < EPS,
                    "{case}: {pass:?} {total}"
                );
                for (sum, (_, v)) in sums.iter_mut().zip(row.named()) {
                    *sum += v;
                }
            }
            for (sum, (name, v)) in sums.iter().zip(report.buckets.named()) {
                assert!(
                    (sum - v).abs() < EPS,
                    "{case}: {name} rows {sum} vs run {v}"
                );
            }

            // One table row per pass, between the header and the outside row.
            let text = full_report(metrics, cluster.cost());
            let rows = text
                .lines()
                .skip_while(|l| *l != "== Passes ==")
                .skip(2)
                .take_while(|l| !l.starts_with("outside passes"))
                .count();
            assert_eq!(rows, run.passes.len(), "{case}:\n{text}");
            // Host time: a row's driver ms is its wall ms less the time in
            // task batches, never more.
            let table: Vec<&str> = text
                .lines()
                .skip_while(|l| *l != "== Passes ==")
                .skip(1)
                .take_while(|l| !l.starts_with("outside passes"))
                .collect();
            let (header, rows) = table.split_first().expect("a header");
            let end = |name: &str| header.find(name).expect(name) + name.len();
            let cell = |row: &str, end: usize, width: usize| {
                let value = row[end - width..end].trim().parse::<f64>();
                value.unwrap_or_else(|e| panic!("{case}: {e} in {row:?}"))
            };
            for row in rows {
                let (wall, driver) = (cell(row, end("wall ms"), 8), cell(row, end("driver ms"), 9));
                assert!(driver <= wall, "{case}: {row}");
            }
            let anomalies = text.starts_with("anomalies: ");
            assert_eq!(anomalies, fault.is_some(), "{case}:\n{text}");
            // MushRoom is dense: the bitmap plan says which layout counted
            // pass 2, and why, under the pass table.
            let layout = text
                .lines()
                .any(|l| l.starts_with("note: pass 2 layout: columns (≤ "));
            let bitmap = miner == Miner::Spark(Phase2Plan::Bitmap);
            assert_eq!(layout, bitmap, "{case}:\n{text}");
        }
    }
}
