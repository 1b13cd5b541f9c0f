//! Randomized-but-deterministic tests over the substrate: scheduler bounds,
//! HDFS layout invariants, hashing determinism, and cost-model additivity.
//!
//! Each case runs over many seeded inputs from a local splitmix64 stream, so
//! coverage is property-test-like while remaining reproducible offline.

use yafim_cluster::{
    bucket_of, fx_hash64, ByteSize, ClusterSpec, CostModel, Lines, SimDuration, SimHdfs, TaskSpec,
    VirtualScheduler, WorkCounters,
};
use yafim_data::Rows;

/// Tiny deterministic generator for test inputs (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `[lo, hi)`; modulo bias is irrelevant for tests.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

#[test]
fn scheduler_respects_classic_bounds() {
    let mut rng = Rng(1);
    for case in 0..128 {
        let nodes = rng.range(1, 6) as u32;
        let cores = rng.range(1, 5) as u32;
        let n_tasks = rng.range(0, 60) as usize;
        let durs: Vec<u32> = (0..n_tasks).map(|_| rng.range(1, 1000) as u32).collect();

        let spec = ClusterSpec::new(nodes, cores, 1 << 30);
        // No locality: pure greedy list scheduling bounds apply.
        let sched = VirtualScheduler::new(spec);
        let tasks: Vec<TaskSpec> = durs
            .iter()
            .map(|&d| TaskSpec::anywhere(SimDuration::from_millis(d as f64)))
            .collect();
        let out = sched.schedule(&tasks);
        let total: f64 = durs.iter().map(|&d| d as f64 / 1e3).sum();
        let max: f64 = durs.iter().map(|&d| d as f64 / 1e3).fold(0.0, f64::max);
        let c = (nodes * cores) as f64;
        let lower = (total / c).max(max);
        assert!(
            out.makespan.as_secs() >= lower - 1e-9,
            "case {case}: makespan below lower bound"
        );
        assert!(
            out.makespan.as_secs() <= total / c + max + 1e-9,
            "case {case}: makespan above Graham bound"
        );
        assert!(
            (out.total_busy.as_secs() - total).abs() < 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn more_cores_never_hurt() {
    let mut rng = Rng(2);
    for case in 0..128 {
        let nodes = rng.range(1, 4) as u32;
        let cores = rng.range(1, 4) as u32;
        let n_tasks = rng.range(1, 40) as usize;
        let tasks: Vec<TaskSpec> = (0..n_tasks)
            .map(|_| TaskSpec::anywhere(SimDuration::from_millis(rng.range(1, 500) as f64)))
            .collect();
        let small = VirtualScheduler::new(ClusterSpec::new(nodes, cores, 1 << 30)).schedule(&tasks);
        let big =
            VirtualScheduler::new(ClusterSpec::new(nodes * 2, cores, 1 << 30)).schedule(&tasks);
        assert!(big.makespan <= small.makespan, "case {case}");
    }
}

#[test]
fn hdfs_blocks_tile_any_file() {
    let mut rng = Rng(3);
    for case in 0..128 {
        let n_lines = rng.range(0, 300) as usize;
        let line_len = rng.range(1, 40) as usize;
        let block_size = rng.range(8, 4096);

        let fs = SimHdfs::new(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era());
        fs.set_block_size(block_size);
        let lines: Vec<String> = (0..n_lines)
            .map(|i| "x".repeat(1 + (i % line_len)))
            .collect();
        let f = fs.put_overwrite("f", lines);
        let mut covered = 0usize;
        let mut bytes = 0u64;
        for b in f.blocks() {
            assert_eq!(b.lines.start, covered, "case {case}: gap before block");
            covered = b.lines.end;
            bytes += b.bytes;
        }
        assert_eq!(covered, n_lines, "case {case}");
        assert_eq!(bytes, f.bytes(), "case {case}");
    }
}

#[test]
fn hdfs_splits_tile_any_file() {
    let mut rng = Rng(4);
    for case in 0..128 {
        let n_lines = rng.range(1, 300) as usize;
        let min_splits = rng.range(1, 40) as usize;

        let fs = SimHdfs::new(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era());
        let lines: Vec<String> = (0..n_lines).map(|i| format!("line {i}")).collect();
        let f = fs.put_overwrite("f", lines);
        let splits = f.splits(min_splits);
        assert!(splits.len() <= n_lines, "case {case}");
        let mut covered = 0usize;
        let mut bytes = 0u64;
        for s in &splits {
            assert_eq!(s.lines.start, covered, "case {case}: gap before split");
            covered = s.lines.end;
            bytes += s.bytes;
        }
        assert_eq!(covered, n_lines, "case {case}");
        assert_eq!(bytes, f.bytes(), "case {case}");
    }
}

#[test]
fn fx_hash_is_deterministic_and_buckets_in_range() {
    let mut rng = Rng(5);
    for _ in 0..128 {
        let buckets = rng.range(1, 64) as usize;
        for _ in 0..100 {
            let k = rng.next();
            assert_eq!(fx_hash64(&k), fx_hash64(&k));
            assert!(bucket_of(&k, buckets) < buckets);
        }
    }
}

#[test]
fn work_counter_time_is_additive() {
    let mut rng = Rng(6);
    let model = CostModel::zero_overhead();
    for case in 0..256 {
        let mut a = WorkCounters::new();
        a.add_cpu(rng.range(0, 1_000_000));
        a.add_disk_read(rng.range(0, 1_000_000));
        a.add_net(rng.range(0, 1_000_000));
        let mut b = WorkCounters::new();
        b.add_cpu(rng.range(0, 1_000_000));
        b.add_disk_read(rng.range(0, 1_000_000));
        b.add_net(rng.range(0, 1_000_000));

        let separate = a.data_time(&model) + b.data_time(&model);
        let mut merged = a;
        merged.merge(&b);
        // net_transfer has a per-transfer latency term, so only compare when
        // both or neither move bytes; zero_overhead removes the latency.
        assert!(
            (merged.data_time(&model).as_secs() - separate.as_secs()).abs() < 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn cost_model_scales_linearly() {
    let mut rng = Rng(7);
    let m = CostModel::zero_overhead();
    for case in 0..256 {
        let bytes = rng.range(1, 100_000_000);
        let one = m.disk_read(bytes).as_secs();
        let two = m.disk_read(bytes * 2).as_secs();
        assert!((two - 2.0 * one).abs() < 1e-9, "case {case}");
    }
}

/// A file is one buffer however it was handed over: joined from a
fn strs(lines: &[String]) -> impl Iterator<Item = &str> {
    lines.iter().map(String::as_str)
}

/// `Vec<String>` or taken as text + offsets, it has the same lines, bytes,
/// blocks and splits, and every view of it is those lines.
#[test]
fn hdfs_lines_are_views_of_one_buffer() {
    let fs = SimHdfs::new(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era());
    // "ab\n" + "cde\n" = 7 bytes.
    let f = fs.put_overwrite("b", vec!["ab".to_string(), "cde".to_string()]);
    assert_eq!(
        (f.bytes(), f.range_bytes(0..1), f.range_bytes(1..2)),
        (7, 3, 4)
    );

    let mut rng = Rng(6);
    fs.set_block_size(64);
    for case in 0..64 {
        let n_lines = rng.range(0, 60) as usize;
        let lines: Vec<String> = (0..n_lines)
            .map(|i| "y".repeat(rng.range(0, 30) as usize) + &i.to_string())
            .collect();
        let mut text = String::new();
        let mut offsets = vec![0u64];
        for line in &lines {
            text.push_str(line);
            text.push('\n');
            offsets.push(text.len() as u64);
        }
        let joined = fs.put_overwrite("joined", lines.clone());
        let taken = fs.put_overwrite("taken", Lines::from((text.clone(), offsets)));
        for f in [&joined, &taken] {
            assert_eq!((f.num_lines(), f.bytes()), (n_lines, text.len() as u64));
            assert!(f.lines().iter().eq(strs(&lines)), "case {case}");
            assert_eq!(f.lines().text(), text, "case {case}");
            assert_eq!(f.lines().get(n_lines), None);
            let weight: u64 = lines.iter().map(|l| l.len() as u64 + 8).sum();
            assert_eq!(f.lines().byte_size(), weight);
            assert_eq!(f.lines().records(), n_lines as u64);
            for s in f.splits(5) {
                let view = f.lines().slice(s.lines.clone());
                assert!(view.iter().eq(strs(&lines[s.lines.clone()])), "case {case}");
                assert_eq!(view.text().len() as u64, s.bytes, "case {case}");
                assert_eq!(
                    view.get(0).as_deref(),
                    lines[s.lines.clone()].first().map(String::as_str)
                );
                let sub = view.slice(view.len() / 2..view.len());
                assert!(sub
                    .iter()
                    .eq(strs(&lines[s.lines.start + view.len() / 2..s.lines.end])));
            }
        }
        let blocks = |f: &yafim_cluster::DfsFile| format!("{:?}", f.blocks());
        assert_eq!(blocks(&joined), blocks(&taken), "case {case}");
        // One buffer, two clusters: a handle, not a copy.
        let other = SimHdfs::new(ClusterSpec::new(2, 2, 1 << 30), CostModel::hadoop_era());
        let shared = other.put_overwrite("shared", taken.lines().clone());
        assert_eq!(
            shared.lines().text().as_ptr(),
            taken.lines().text().as_ptr()
        );
    }
    // A line with a newline of its own is still one line.
    let f = fs.put_overwrite("nl", vec!["a\nb".to_string(), String::new()]);
    assert_eq!(f.lines().iter().collect::<Vec<_>>(), ["a\nb", ""]);
}

#[test]
#[should_panic(expected = "ended lines")]
fn hdfs_refuses_offsets_that_do_not_cut_lines() {
    let _ = Lines::from(("ab\ncd\n".to_string(), vec![0, 2, 6]));
}

/// A file of rows (what the loader puts) is its canonical text to every
/// reader and every counter: the same lines, bytes, blocks, splits and
/// weight as the text put as it is, and the same rows out of each view,
/// however the rows are cut into arenas.
#[test]
fn a_file_of_rows_reads_as_its_canonical_text() {
    let fs = SimHdfs::new(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era());
    fs.set_block_size(96);
    let mut rng = Rng(49);
    for case in 0..48 {
        // Up to a few hundred rows: arenas that span several offset marks.
        let n_rows = rng.range(0, 300) as usize;
        let tx: Vec<Vec<u32>> = (0..n_rows)
            .map(|_| {
                let mut item = rng.range(0, 20) as u32;
                let len = rng.range(1, 8) as usize;
                let mut row = Vec::with_capacity(len);
                for _ in 0..len {
                    row.push(item);
                    item += 1 + rng.range(0, 5000) as u32;
                }
                row
            })
            .collect();
        let (text, offsets) = yafim_data::to_text(&tx);
        // Cut into up to three arenas, an empty one among them at times.
        let cuts = [
            rng.range(0, n_rows as u64 + 1),
            rng.range(0, n_rows as u64 + 1),
        ];
        let (a, b) = (cuts[0].min(cuts[1]) as usize, cuts[0].max(cuts[1]) as usize);
        let arenas: Vec<Rows> = [0..a, a..b, b..n_rows]
            .into_iter()
            .map(|range| {
                let mut rows = Rows::default();
                for t in &tx[range] {
                    rows.push_row(0, |items| items.extend(t));
                }
                rows
            })
            .collect();
        let as_text = fs.put_overwrite("text", Lines::from((text.clone(), offsets.clone())));
        let as_rows = fs.put_overwrite("rows", Lines::from((arenas, offsets)));
        let blocks = |f: &yafim_cluster::DfsFile| format!("{:?}", f.blocks());
        assert_eq!(blocks(&as_rows), blocks(&as_text), "case {case}");
        assert_eq!(as_rows.bytes(), text.len() as u64);
        assert_eq!(as_rows.lines().text(), text, "case {case}");
        let (rows, lines) = (as_rows.lines(), as_text.lines());
        assert_eq!(
            (rows.byte_size(), rows.records()),
            (lines.byte_size(), lines.records())
        );
        for parts in [1, 3, 7] {
            let (by_rows, by_text) = (as_rows.splits(parts), as_text.splits(parts));
            assert_eq!(
                format!("{by_rows:?}"),
                format!("{by_text:?}"),
                "case {case}"
            );
            for s in by_rows {
                let (view, text_view) = (rows.slice(s.lines.clone()), lines.slice(s.lines.clone()));
                assert!(view.iter().eq(text_view.iter()), "case {case}");
                assert_eq!(view.text(), text_view.text(), "case {case}");
                assert_eq!(view.text().len() as u64, s.bytes, "case {case}");
                for i in 0..=view.len() {
                    assert_eq!(view.get(i), text_view.get(i), "case {case}");
                }
                let items = |v: &Lines| -> Vec<Vec<u32>> {
                    let views = v.rows();
                    let rows = views
                        .iter()
                        .flat_map(|(arena, range)| arena.rows(range.clone()));
                    rows.map(<[u32]>::to_vec).collect()
                };
                assert_eq!(items(&view), items(&text_view), "case {case}");
                assert_eq!(items(&view), tx[s.lines.clone()], "case {case}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "give each row a line")]
fn hdfs_refuses_offsets_that_do_not_give_each_row_a_line() {
    let mut rows = Rows::default();
    rows.push_row(0, |items| items.extend([1, 2]));
    let _ = Lines::from((vec![rows], vec![0, 4, 8]));
}
