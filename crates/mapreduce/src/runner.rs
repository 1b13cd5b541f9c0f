//! The job runner: executes a [`MapReduceJob`] for real and charges
//! Hadoop-shaped virtual time.

use crate::emitter::Emitter;
use crate::job::{MapPhase, MapReduceJob, MrKey, MrValue};
use std::sync::Arc;
use yafim_cluster::{
    bucket_of, fx_hash64, slice_bytes, BucketLoss, DfsFile, EventKind, ExecError, FxHashMap,
    MemoryCounters, NodeId, RecoveryCounters, SimCluster, SimDuration, Site, StageFrame,
    TaskMemory, TaskProfile, TaskSpec, WorkCounters, SPILL_GRANULE,
};

/// The smallest split share worth a host unit: below it a unit's fixed cost
/// (a count array over the key table, a merge) rivals the lines it maps.
const MIN_UNIT_BYTES: u64 = 16 << 10;

/// Aggregate facts about one executed job.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobStats {
    /// Number of map tasks (input splits).
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Records crossing the shuffle (after the combiner, if any).
    pub shuffle_records: u64,
    /// Estimated bytes crossing the shuffle.
    pub shuffle_bytes: u64,
    /// Input bytes read.
    pub input_bytes: u64,
    /// Output records produced by the reducers.
    pub output_records: u64,
}

/// Result of one job: the real output pairs (in reduce-task, then sorted-key
/// order), the committed HDFS file if requested, and stats.
pub struct MrJobResult<KO, VO> {
    /// All reducer emissions.
    pub pairs: Vec<(KO, VO)>,
    /// The committed output file, when the job specified one.
    pub output_file: Option<DfsFile>,
    /// Aggregate counters.
    pub stats: JobStats,
}

/// Executes jobs against one virtual cluster.
#[derive(Clone)]
pub struct MrRunner {
    cluster: SimCluster,
}

impl MrRunner {
    /// A runner over `cluster`.
    pub fn new(cluster: SimCluster) -> Self {
        MrRunner { cluster }
    }

    /// The cluster this runner executes on.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Schedule and record one task wave as a stage that ends on a
    /// heartbeat boundary, owing it `recovery`. Returns the node each task
    /// ran on.
    fn wave(
        &self,
        label: String,
        specs: &[TaskSpec],
        retry_extra: Option<&[SimDuration]>,
        recovery: Option<RecoveryCounters>,
        tasks: impl IntoIterator<Item = (usize, TaskProfile)>,
    ) -> Result<Vec<NodeId>, ExecError> {
        let wave_latency = SimDuration::from_secs(self.cluster.cost().mr_wave_latency);
        let frame = StageFrame {
            label,
            wave_latency,
            retry_extra,
            recovery: recovery.unwrap_or_default(),
            ..StageFrame::default()
        };
        self.cluster.schedule_and_record(frame, specs, tasks)
    }

    /// Execute one job: map → shuffle/sort → reduce → commit.
    pub fn run<KM: MrKey, VM: MrValue, KO: MrValue, VO: MrValue>(
        &self,
        job: MapReduceJob<KM, VM, KO, VO>,
    ) -> Result<MrJobResult<KO, VO>, ExecError> {
        let cluster = &self.cluster;
        let cost = cluster.cost().clone();
        let spec = cluster.spec().clone();
        let metrics = cluster.metrics().clone();
        let file = cluster.hdfs().get(&job.input).map_err(ExecError::Dfs)?;

        // ---- Admission control (memory governor, last ladder rung) ----
        //
        // A per-task slice below one spill granule cannot stream its
        // map-side combine buffer through disk, so the job could only end
        // in OOM kills: refuse it up front with a typed error.
        if let Some(budget) = cluster.memory_budget() {
            if let Err(refusal) = budget.admit(SPILL_GRANULE) {
                return Err(ExecError::MemoryRefused { refusal });
            }
        }

        let job_span = metrics.begin_job(job.name.clone());
        metrics.advance(SimDuration::from_secs(cost.mr_job_overhead));

        // Distributed-cache localization: every node pulls the side data
        // from its `replication` HDFS sources, so the pull contends by a
        // factor of nodes/replication.
        if job.side_data_bytes > 0 {
            let contention = (spec.nodes as f64 / cost.hdfs_replication as f64).max(1.0);
            metrics.advance_with_event(
                cost.net_transfer(job.side_data_bytes) * contention,
                EventKind::Broadcast,
                format!("{}: distributed cache {}B", job.name, job.side_data_bytes),
            );
        }

        // ---- map phase ----
        let splits = file.splits(file.blocks().len());
        let map_tasks = splits.len();
        let reduce_tasks = spec.total_cores() as usize;

        // ---- data integrity (silent-corruption plans) ----
        //
        // The input's name keys the HDFS-tier rolls of its splits (shared
        // across jobs reading the same file — a repaired block stays
        // repaired), the job name the shuffle-tier rolls of this job's
        // reduce inputs. Before any work runs, refuse the job if some split
        // has *no* clean replica left — Hadoop has no lineage to recompute
        // an input from.
        let integrity_id = fx_hash64(&job.input);
        let replicas = splits.iter().map(|s| file.replicas_at(s.lines.start));
        let split_replicas: Vec<u32> = replicas.collect();
        for (i, &copies) in split_replicas.iter().enumerate() {
            cluster.refuse_unreadable(integrity_id, i, copies, || {
                format!(
                    "input `{}` split {i}: all {copies} replicas failed checksum \
                     verification — no clean copy reachable",
                    job.input
                )
            })?;
        }

        let (mapper, combiner, table) = (job.mapper, job.combiner, job.key_table);

        // ---- host units ----
        //
        // A per-unit task's host work is cut into line ranges, so a job with
        // fewer map tasks than pool threads still uses them.
        // Units never show: a task's unit outputs are concatenated in range
        // order and combined again before the model reads anything.
        let spare_threads = match mapper {
            MapPhase::Unit(_) => cluster.pool().size().div_ceil(map_tasks.max(1)),
            MapPhase::Split(_) => 1, // the mapper wants its split whole
        };
        let units: Vec<(usize, std::ops::Range<usize>)> = splits
            .iter()
            .enumerate()
            .flat_map(|(i, split)| {
                let n = spare_threads
                    .min((split.bytes / MIN_UNIT_BYTES) as usize)
                    .max(1);
                let (start, len) = (split.lines.start, split.lines.len());
                (0..n).map(move |u| (i, start + len * u / n..start + len * (u + 1) / n))
            })
            .collect();
        let file_for_units = file.clone();
        let unit_fold = combiner.clone();
        let unit_outs = cluster.pool().map(units, move |_, (i, range)| {
            let mut w = WorkCounters::new();
            let mut em = Emitter::over_table(table.as_ref().map_or(0, |(keys, _)| keys.len()));
            let lines = file_for_units.lines().slice(range.clone());
            let (MapPhase::Unit(f) | MapPhase::Split(f)) = &mapper;
            w.add_records_in(lines.len() as u64);
            f(range.start as u64, &lines, &mut em, &mut w);
            // `records_out` is modelled: emissions are counted where they
            // happen. What the unit hands on is one pair per table index
            // emitted at and, under a combiner, per distinct key emitted.
            w.add_records_out(em.len() as u64);
            let mut pairs = match &table {
                Some((keys, value)) => em.take_counted(keys, *value),
                None => Vec::new(),
            };
            let keyed = em.into_pairs();
            match &unit_fold {
                Some(fold) => {
                    let mut folded: FxHashMap<KM, Option<VM>> = FxHashMap::default();
                    for (k, v) in keyed {
                        let slot = folded.entry(k).or_insert(None);
                        *slot = Some(match slot.take() {
                            Some(acc) => fold(acc, v),
                            None => v,
                        });
                    }
                    pairs.extend(folded.into_iter().filter_map(|(k, v)| Some((k, v?))));
                }
                None => pairs.extend(keyed),
            }
            (i, pairs, w)
        });
        let mut mapped: Vec<(Vec<(KM, VM)>, WorkCounters)> = Vec::with_capacity(map_tasks);
        for (i, pairs, w) in unit_outs {
            match mapped.get_mut(i) {
                Some((task_pairs, task_w)) => {
                    task_pairs.extend(pairs);
                    task_w.merge(&w);
                }
                None => mapped.push((pairs, w)),
            }
        }

        let side_bytes = job.side_data_bytes;
        let spill_factor = cost.mr_spill_factor;
        let splits_for_tasks = splits.clone();
        let shuffle_integrity_id = fx_hash64(&job.name);
        let cluster_map = cluster.clone();
        // Memory governor: every map task reserves its combine buffer
        // against the same per-task slice; rolls are keyed by (job, split).
        let mem_budget = cluster.memory_budget();
        let mem_stage_key = fx_hash64(&(job.name.as_str(), metrics.now().as_secs().to_bits()));

        // ---- once per map task: everything the cost model reads ----
        let map_outs = cluster.pool().map(mapped, move |i, (mut pairs, mut w)| {
            let split = &splits_for_tasks[i];
            w.add_disk_read(split.bytes); // locality-scheduled: local read
            if side_bytes > 0 {
                w.add_disk_read(side_bytes); // localized cache file
            }
            // Verify the split's checksum; a rotten replica is re-fetched
            // from the next one (the refusal above guarantees a clean copy).
            let replicas = split_replicas[i];
            w.merge(&cluster_map.read_replicated(integrity_id, i, split.bytes, replicas, false));

            // Hadoop sorts map output by key either way. The sort is
            // stable, so a key's values stay in emission order for the
            // combiner, which folds each run of one key.
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            if let Some(fold) = &combiner {
                pairs.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        kept.1 = fold(kept.1.clone(), later.1.clone());
                    }
                    same
                });
                w.add_cpu(pairs.len() as u64);
            }
            let n = pairs.len() as u64;
            w.add_cpu(n * (64 - n.leading_zeros() as u64)); // sort comparisons

            // Partition into reduce buckets.
            let mut buckets: Vec<Vec<(KM, VM)>> = (0..reduce_tasks).map(|_| Vec::new()).collect();
            for (k, v) in pairs {
                buckets[bucket_of(&k, reduce_tasks)].push((k, v));
            }
            let bytes: u64 = buckets.iter().map(|b| slice_bytes(b)).sum();
            w.add_ser(bytes);
            // Checksum the map output at write time.
            w.add_stall_micros(cluster_map.checksum_micros(bytes));
            // The combine buffer is execution memory; a denial
            // (budget overflow or injected OOM) spills it through
            // local disk — the site spills, so the governor
            // never kills a map task.
            let tm = TaskMemory::new(mem_budget, mem_stage_key, i);
            let fx = tm.try_reserve(bytes, Site::MrCombine);
            // Spill traffic: write the sorted runs, read them back for
            // the merge.
            let spill = (bytes as f64 * spill_factor / 2.0) as u64;
            w.add_disk_write(spill);
            w.add_disk_read(spill);

            let mut profile = TaskProfile {
                work: w,
                shuffle_write_bytes: bytes,
                broadcast_read_bytes: side_bytes,
                ..TaskProfile::new()
            };
            fx.charge(&mut profile);
            (buckets, profile)
        });

        // Charge the map wave. A retried map attempt cannot read its local
        // HDFS block again (the original attempt's machine may be the one
        // that failed), so retries pay a remote read from a surviving
        // replica on top of the base task cost.
        let task_specs: Vec<TaskSpec> = map_outs
            .iter()
            .zip(&splits)
            .map(|((_, p), split)| {
                TaskSpec::local(
                    SimDuration::from_secs(cost.mr_task_overhead) + p.work.data_time(&cost),
                    split.preferred_node,
                )
            })
            .collect();
        let reread: Vec<SimDuration> = splits.iter().map(|s| cost.net_transfer(s.bytes)).collect();
        let map_label = format!("{}: map", job.name);
        let profiles = map_outs.iter().map(|(_, p)| *p).enumerate();
        let map_nodes = self.wave(map_label, &task_specs, Some(&reread), None, profiles)?;
        let records = map_outs
            .iter()
            .flat_map(|(buckets, _)| buckets)
            .map(Vec::len);
        metrics.note_shipped(0, records.sum::<usize>() as u64);

        // A node lost between map and reduce takes its completed map outputs
        // with it (they live on local disk, not in HDFS): re-execute just
        // those map tasks, reading the input from surviving block replicas.
        let dead = cluster.faults().take_new_losses(metrics.now());
        if !dead.is_empty() {
            let lost: Vec<usize> = map_nodes
                .iter()
                .enumerate()
                .filter(|(_, node)| dead.contains(node))
                .map(|(i, _)| i)
                .collect();
            let rec = RecoveryCounters {
                nodes_lost: dead.len() as u64,
                ..RecoveryCounters::lost_map_resubmits(lost.len() as u64)
            };
            if lost.is_empty() {
                metrics.note_recovery(&rec);
            } else {
                let resubmit_label = format!("{}: map (resubmit)", job.name);
                let resubmit_specs: Vec<TaskSpec> = lost
                    .iter()
                    .map(|&i| TaskSpec::anywhere(task_specs[i].duration + reread[i]))
                    .collect();
                // The governor's outcomes were counted with the first wave.
                let mut rerun: Vec<_> = lost.iter().map(|&i| (i, map_outs[i].1)).collect();
                rerun
                    .iter_mut()
                    .for_each(|(_, p)| p.mem = MemoryCounters::default());
                self.wave(resubmit_label, &resubmit_specs, None, Some(rec), rerun)?;
            }
        }

        // ---- shuffle: concatenate buckets in map-task order ----
        let mut buckets: Vec<Vec<(KM, VM)>> = (0..reduce_tasks).map(|_| Vec::new()).collect();
        let mut shuffle_records = 0u64;
        for (map_out, _) in map_outs {
            for (i, b) in map_out.into_iter().enumerate() {
                shuffle_records += b.len() as u64;
                buckets[i].extend(b);
            }
        }
        let bucket_bytes: Vec<u64> = buckets.iter().map(|b| slice_bytes(b)).collect();
        let shuffle_bytes: u64 = bucket_bytes.iter().sum();

        // ---- reduce phase ----
        let reducer = Arc::clone(&job.reducer);
        let format = job.output.as_ref().map(|o| Arc::clone(&o.format));
        let replication = cost.hdfs_replication as u64;
        // Repairing a rotten reduce input means re-running the map task
        // that produced it (map outputs live on local disk with no replica
        // and no lineage); charge the slowest map attempt plus the remote
        // input re-read, as the loss-resubmit path would.
        let map_repair_micros = (task_specs
            .iter()
            .zip(&reread)
            .map(|(t, rr)| (t.duration + *rr).as_secs())
            .fold(0.0f64, f64::max)
            * 1e6) as u64;
        // Rotten reduce inputs are found (and counted) once, before the
        // reducers fetch them.
        let rotten = cluster.failed_buckets(BucketLoss::Rotten, shuffle_integrity_id, reduce_tasks);
        let repairs = rotten.len() as u64;
        metrics.note_recovery(&RecoveryCounters::resubmit_repairs(repairs, repairs));
        let cluster_red = cluster.clone();

        let reduce_outs = cluster.pool().map(
            buckets.into_iter().zip(bucket_bytes).collect(),
            move |r, (mut bucket, bytes)| {
                let mut w = cluster_red.read_shuffle(shuffle_integrity_id, r, bytes, false);
                // A rotten reduce input re-runs the producing map task and
                // is fetched and verified again.
                if rotten.contains(&r) {
                    w.add_stall_micros(map_repair_micros);
                    w.add_net(bytes);
                    w.add_stall_micros(cluster_red.checksum_micros(bytes));
                }

                w.add_records_in(bucket.len() as u64);
                let n = bucket.len() as u64;
                w.add_cpu(n * (64 - n.leading_zeros() as u64)); // merge sort

                // Merge the map tasks' sorted runs. The sort is stable,
                // so a key's values reach the reducer in map-task order.
                bucket.sort_by(|a, b| a.0.cmp(&b.0));
                let mut em = Emitter::new();
                let mut records = bucket.into_iter().peekable();
                while let Some((k, v)) = records.next() {
                    let mut vs = vec![v];
                    while let Some((_, v)) = records.next_if(|(next, _)| *next == k) {
                        vs.push(v);
                    }
                    reducer(&k, vs, &mut em, &mut w);
                }
                let pairs = em.into_pairs();
                w.add_records_out(pairs.len() as u64);

                let mut lines = Vec::new();
                if let Some(fmt) = &format {
                    lines.reserve(pairs.len());
                    let mut out_bytes = 0u64;
                    for (k, v) in &pairs {
                        let line = fmt(k, v);
                        out_bytes += line.len() as u64 + 1;
                        lines.push(line);
                    }
                    // HDFS commit: local write plus pipeline replication.
                    w.add_disk_write(out_bytes);
                    w.add_net(out_bytes * (replication.saturating_sub(1)));
                    // Checksum the committed blocks at write time.
                    w.add_stall_micros(cluster_red.checksum_micros(out_bytes));
                }

                let profile = TaskProfile {
                    work: w,
                    shuffle_read_bytes: bytes,
                    ..TaskProfile::new()
                };
                (pairs, lines, profile)
            },
        );

        let task_specs: Vec<TaskSpec> = reduce_outs
            .iter()
            .map(|(_, _, p)| {
                TaskSpec::anywhere(
                    SimDuration::from_secs(cost.mr_task_overhead) + p.work.data_time(&cost),
                )
            })
            .collect();
        let reduce_label = format!("{}: reduce", job.name);
        let profiles = reduce_outs.iter().map(|(_, _, p)| *p);
        self.wave(reduce_label, &task_specs, None, None, profiles.enumerate())?;

        // ---- commit & gather ----
        let mut pairs = Vec::new();
        let mut all_lines = Vec::new();
        for (p, l, _) in reduce_outs {
            pairs.extend(p);
            all_lines.extend(l);
        }
        let output_records = pairs.len() as u64;

        let output_file = match &job.output {
            Some(spec_out) => {
                let f = cluster.hdfs().put_overwrite(&spec_out.path, all_lines);
                metrics.advance_with_event(
                    SimDuration::from_millis(100.0), // namenode commit round-trip
                    EventKind::HdfsWrite,
                    format!("{}: commit {}", job.name, spec_out.path),
                );
                Some(f)
            }
            None => None,
        };

        // The driver reads the (small) result pairs back.
        let result_bytes = slice_bytes(&pairs);
        metrics.advance(cost.serialize(result_bytes) + cost.net_transfer(result_bytes));

        metrics.end_job(job_span);

        Ok(MrJobResult {
            pairs,
            output_file,
            stats: JobStats {
                map_tasks,
                reduce_tasks,
                shuffle_records,
                shuffle_bytes,
                input_bytes: file.bytes(),
                output_records,
            },
        })
    }
}
