//! Counter tables: every counter struct is declared once, as rows.
//!
//! A row is `field: sum` or `field: max`, optionally followed by the
//! manifest key it is reported under (`"counter.shuffle.read_bytes"`), under
//! the field's doc comment. [`counter_table!`] turns the rows into the
//! struct, its `merge` (plain field-wise arithmetic, row by row), `any`, and
//! a `fields()` iterator that manifests and traces walk instead of naming
//! counters. Adding a counter is adding its row.

/// One row of a counter table with its current value, as `fields()` yields
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterField {
    /// The counter's key, spelled once, in its table row: the key the row
    /// names, else its field name.
    pub key: &'static str,
    /// Current value.
    pub value: u64,
}

/// Declare a counter struct from its table of rows (see the module docs).
/// The optional `nested { .. }` block lists whole counter structs the type
/// carries; they lead the struct, merge by their own tables, and `fields()`
/// leaves them out.
macro_rules! counter_table {
    (
        $(#[$sdoc:meta])*
        pub struct $name:ident {
            $( $(#[$doc:meta])* $field:ident: $merge:ident $($key:literal)?, )*
        }
        $( nested { $( $(#[$ndoc:meta])* $nested:ident: $nty:ty, )* } )?
    ) => {
        $(#[$sdoc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($( $(#[$ndoc])* pub $nested: $nty, )*)?
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl $name {
            /// Merge another set of counters into this one, row by row:
            /// `sum` rows add, `max` rows keep the larger value.
            pub fn merge(&mut self, other: &$name) {
                $($( self.$nested.merge(&other.$nested); )*)?
                $( counter_table!(@$merge self.$field, other.$field); )*
            }

            /// True when any counter is nonzero.
            pub fn any(&self) -> bool {
                *self != Self::default()
            }

            /// This struct's own rows (nested structs have their own), in
            /// table order, with their current values.
            pub fn fields(&self) -> impl Iterator<Item = $crate::fault::CounterField> {
                [$( $crate::fault::CounterField {
                    key: counter_table!(@key $field $($key)?),
                    value: self.$field,
                }, )*]
                .into_iter()
            }
        }
    };
    (@sum $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@max $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
}
pub(crate) use counter_table;

counter_table! {
    /// Silent-corruption bookkeeping: how many blocks rotted, how many rotted
    /// blocks a reader caught (detection is at read time, so the two are equal
    /// whenever every rotten block is actually read — rot that is never read is
    /// unobservable by construction), and which rung of the repair ladder fixed
    /// each one.
    pub struct IntegrityCounters {
        /// Stored copies whose checksum was poisoned by the plan and observed
        /// by a reader.
        corruptions_injected: sum,
        /// Checksum mismatches caught at read time (always == injected: every
        /// verified read of a rotten copy detects it).
        corruptions_detected: sum,
        /// Detected corruptions repaired from *some* clean source.
        corruptions_repaired: sum,
        /// Repairs served by re-fetching a surviving replica (HDFS blocks,
        /// checkpoint copies).
        repaired_via_replica: sum,
        /// Repairs served by evicting the poisoned copy and recomputing it
        /// through the lineage inside the running task.
        repaired_via_recompute: sum,
        /// Repairs served by resubmitting the producing map stage (shuffle
        /// buckets have no replica — the map task is re-run).
        repaired_via_resubmit: sum,
    }
}

counter_table! {
    /// Execution-memory governor bookkeeping: how hard the budget was pushed
    /// and which rung of the degradation ladder absorbed the pressure. An OOM
    /// event (seeded injection or a real over-budget acquisition) is either
    /// survived by degradation (a forced spill) or kills the task attempt, so
    /// `oom_injected == oom_killed + oom_survived_by_degradation` always holds.
    pub struct MemoryCounters {
        /// Highest execution memory any single task held at once, bytes (it
        /// is compared to the budget, so it never sums).
        peak_execution_bytes: max,
        /// Buffers spilled to local disk under memory pressure.
        spills: sum,
        /// Bytes those spills moved through local disk.
        spill_bytes: sum,
        /// Pass-granularity matcher step-downs (bitmap → trie → hash-tree)
        /// taken because the preferred structure's footprint estimate did not
        /// fit the budget.
        degradations: sum,
        /// OOM events raised by the plan: seeded `oom_prob` denials plus real
        /// over-budget acquisitions under `mem_budget_override`.
        oom_injected: sum,
        /// OOM events that killed a task attempt (retried at a doubled slice).
        oom_killed: sum,
        /// OOM events a site that spills absorbed instead of dying.
        oom_survived_by_degradation: sum,
    }
}

counter_table! {
    /// Failure/retry/speculation counters. Attached to every recorded stage and
    /// aggregated by the metrics sink; the stage report prints them.
    pub struct RecoveryCounters {
        /// Task attempts that crashed or died with their node.
        task_failures: sum,
        /// Attempts re-launched after a failure.
        task_retries: sum,
        /// Nodes lost.
        nodes_lost: sum,
        /// Nodes blacklisted after repeated failures.
        nodes_blacklisted: sum,
        /// Speculative duplicate attempts launched.
        speculative_launched: sum,
        /// Speculative attempts that finished before their original.
        speculative_wins: sum,
        /// Partitions recomputed through lineage / HDFS re-reads after data
        /// loss (cached partitions, shuffle map outputs, MR map re-executions).
        recomputed_partitions: sum,
        /// Shuffle map outputs found missing by a consumer.
        fetch_failures: sum,
        /// Broadcast re-distributions after an executor holding blocks died.
        broadcast_refetches: sum,
        /// Cached partitions (memory + disk tier) lost nodes held.
        cached_partitions_dropped: sum,
        /// Shuffle map outputs lost nodes held.
        map_outputs_lost: sum,
        /// Bytes those re-distributions moved: each lost node's share of
        /// every broadcast shipped so far.
        broadcast_refetch_bytes: sum,
        /// Transient fetch failures retried in place (shuffle + HDFS).
        fetch_retries: sum,
        /// Virtual microseconds spent in retry backoff.
        backoff_micros: sum,
        /// Partition blocks written to checkpoint storage.
        checkpoint_writes: sum,
        /// Partition reads served from checkpoint storage instead of lineage
        /// replay.
        checkpoint_reads: sum,
        /// Deepest lineage chain any lost partition was recomputed through (it
        /// bounds recovery work, so it never sums).
        max_replay_depth: max,
    }
    nested {
        /// Silent-corruption detections and repairs (checksummed tiers).
        integrity: IntegrityCounters,
        /// Execution-memory pressure, spills and OOM outcomes (the governor).
        mem: MemoryCounters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_sum_rows_keeps_max_rows_and_descends_into_nested_tables() {
        let mut a = RecoveryCounters {
            fetch_retries: 2,
            max_replay_depth: 5,
            mem: MemoryCounters {
                peak_execution_bytes: 1000,
                spills: 2,
                ..MemoryCounters::default()
            },
            ..RecoveryCounters::default()
        };
        let b = RecoveryCounters {
            fetch_retries: 1,
            max_replay_depth: 3,
            integrity: IntegrityCounters {
                corruptions_detected: 1,
                ..IntegrityCounters::default()
            },
            mem: MemoryCounters {
                peak_execution_bytes: 700,
                spills: 1,
                ..MemoryCounters::default()
            },
            ..RecoveryCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.fetch_retries, 3);
        assert_eq!(a.max_replay_depth, 5, "depth merges with max, not sum");
        assert_eq!(a.mem.peak_execution_bytes, 1000, "peak merges with max");
        assert_eq!(a.mem.spills, 3);
        assert_eq!(a.integrity.corruptions_detected, 1);
        // One nonzero counter anywhere, nested tables included, is `any`.
        assert!(!RecoveryCounters::default().any());
        for nested_only in [
            RecoveryCounters {
                integrity: b.integrity,
                ..RecoveryCounters::default()
            },
            RecoveryCounters {
                mem: b.mem,
                ..RecoveryCounters::default()
            },
        ] {
            assert!(nested_only.any() && !nested_only.fields().any(|f| f.value > 0));
        }
    }

    #[test]
    fn fields_walk_the_table_in_order_under_their_keys() {
        let m = MemoryCounters {
            peak_execution_bytes: 9,
            spills: 2,
            ..MemoryCounters::default()
        };
        let rows: Vec<CounterField> = m.fields().collect();
        assert_eq!(rows.len(), 7);
        let row = |key, value| CounterField { key, value };
        assert_eq!(rows[0], row("peak_execution_bytes", 9));
        assert_eq!(rows[1], row("spills", 2));
        // A row that names its key is reported under it.
        let profile = crate::TaskProfile {
            records_read: 3,
            ..crate::TaskProfile::default()
        };
        let read = profile.fields().find(|f| f.value == 3);
        assert_eq!(read.map(|f| f.key), Some("counter.executor.records_read"));
    }
}
