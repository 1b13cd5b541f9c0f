//! Plain timer: the way from a `.dat` file to dense ranks, stage by stage,
//! on the two files where that way is most of a run (Pumsb_star at 65 %,
//! dense and shallow; T10I4D100K at 0.25 %, 100 000 short lines). The read
//! is serial; the check runs on one thread and on as many as the cluster's
//! pool has; pass 1 (parse + item count) and pass 2 (projection + triangle)
//! are whole runs of the `bitmap` plan cut off after that pass. "scan_line,
//! every line" parses each line as the engines see it (without its `\n`)
//! on one thread: every line of the file takes `scan_line`'s fast path, and
//! no line of its CRLF copy does (each keeps its `\r`).

use yafim_bench::microbench::{bench, black_box, header};
use yafim_cluster::{ClusterSpec, CostModel, Lines, SimCluster};
use yafim_core::{Support, Yafim, YafimConfig};
use yafim_data::{read_canonical_text, scan_line, write_dat, PaperDataset};
use yafim_rdd::Context;

fn cluster() -> SimCluster {
    SimCluster::new(ClusterSpec::new(12, 8, 24 << 30), CostModel::hadoop_era())
}

/// Parse every line of `text` into one reused vector, as a task does.
fn scan_every_line(text: &str) -> usize {
    let mut items = Vec::new();
    text.split_terminator('\n')
        .map(|line| {
            items.clear();
            scan_line(line, &mut items);
            items.len()
        })
        .sum()
}

fn main() {
    let threads = cluster().pool().size();
    let dir = std::env::temp_dir().join(format!("yafim-ingest-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir writable");
    for dataset in [PaperDataset::PumsbStar, PaperDataset::T10I4D100K] {
        let profile = dataset.profile();
        let path = dir.join("in.dat");
        write_dat(&path, &dataset.generate_scaled(1.0)).expect("temp dir writable");
        let bytes = std::fs::metadata(&path).expect("just written").len();
        header(&format!(
            "ingest_{} ({:.1} MiB, {threads} pool threads)",
            profile.name,
            bytes as f64 / (1 << 20) as f64
        ));

        bench("read + UTF-8 (serial)", 15, || {
            black_box(std::fs::read_to_string(&path).expect("just written").len())
        });
        let read = |threads| read_canonical_text(&path, threads).expect("just written");
        bench("read + check, 1 thread", 15, || black_box(read(1).1.len()));
        bench(&format!("read + check, {threads} threads"), 15, || {
            black_box(read(threads).1.len())
        });
        let text = std::fs::read_to_string(&path).expect("just written");
        bench("scan_line, every line", 15, || {
            black_box(scan_every_line(&text))
        });
        let lines = Lines::from(read(threads));
        bench("put on a fresh cluster's HDFS", 15, || {
            black_box(cluster().hdfs().put_overwrite("in.dat", lines.clone()))
        });
        let cut_off = [
            (1, "put + pass 1: parse + item count"),
            (2, "put + pass 1 + projection + triangle"),
        ];
        for (passes, what) in cut_off {
            bench(what, 9, || {
                let cluster = cluster();
                cluster.hdfs().put_overwrite("in.dat", lines.clone());
                let mut config = YafimConfig::bitmap(Support::Fraction(profile.support));
                config.max_passes = passes;
                let run = Yafim::new(Context::new(cluster), config).mine("in.dat");
                black_box(run.expect("fault-free").result.total())
            });
        }

        // The same file with CRLF endings: every line takes the slow path.
        let text = text.replace('\n', "\r\n");
        std::fs::write(&path, &text).expect("temp dir writable");
        bench(&format!("read + clean CRLF, {threads} threads"), 9, || {
            black_box(read(threads).1.len())
        });
        bench("scan_line, every line, CRLF", 15, || {
            black_box(scan_every_line(&text))
        });
    }
    std::fs::remove_dir_all(&dir).expect("own temp dir");
}
