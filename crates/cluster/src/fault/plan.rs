//! The fault plan: everything that goes wrong in a run, as seeded data.
//!
//! [`FaultPlan`] is declared once, as a table of rows — field, Rust type,
//! [`Kind`], default — under each field's doc comment. The table derives the
//! struct, [`FaultPlan::seeded`], [`FaultPlan::to_json`] and
//! [`FaultPlan::from_json`] with its unknown-field, wrong-type and
//! out-of-range errors; the chainable builders normalise through the same
//! per-kind rule. Adding a knob is adding its row (and its line in
//! DESIGN.md's knob table, which a test holds to the defaults here).

use crate::hash::fx_hash64;
use crate::json::JsonValue;
use crate::sched::HeartbeatMonitor;
use crate::spec::NodeId;
use crate::time::{SimDuration, SimInstant};

/// Which storage tier a silent corruption hits. Each tier checksums its
/// blocks at write time and verifies at read time; the tier determines both
/// the hash domain of the seeded corruption roll and the repair ladder the
/// reader walks on a mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IntegrityTier {
    /// Shuffle map output buckets ([`crate::SimCluster`]-side registry).
    Shuffle,
    /// Cached RDD partitions.
    Cache,
    /// SimHdfs file blocks and checkpoint replicas.
    Hdfs,
}

impl IntegrityTier {
    /// Hash-domain tag separating the tiers' corruption rolls.
    pub(super) fn tag(self) -> u64 {
        match self {
            IntegrityTier::Shuffle => 0xbadd,
            IntegrityTier::Cache => 0xbadc,
            IntegrityTier::Hdfs => 0xbadf,
        }
    }

    /// Stable lowercase name (JSON encoding).
    pub fn name(self) -> &'static str {
        match self {
            IntegrityTier::Shuffle => "shuffle",
            IntegrityTier::Cache => "cache",
            IntegrityTier::Hdfs => "hdfs",
        }
    }

    /// Parse the JSON encoding produced by [`IntegrityTier::name`].
    pub fn parse(s: &str) -> Option<IntegrityTier> {
        match s {
            "shuffle" => Some(IntegrityTier::Shuffle),
            "cache" => Some(IntegrityTier::Cache),
            "hdfs" => Some(IntegrityTier::Hdfs),
            _ => None,
        }
    }
}

/// What a plan field holds. One rule per kind says what
/// [`FaultPlan::from_json`] accepts — anything else is an error naming the
/// field and [`Kind::expected`] — and what the chainable builders clamp an
/// out-of-range argument into.
#[derive(Clone, Copy)]
enum Kind {
    /// A probability.
    Prob,
    /// A whole number of at least `min`.
    Count { min: u64 },
    /// Virtual seconds, at least `min`.
    Secs { min: f64 },
    /// A slowdown multiplier: 1 is "no slower".
    Factor,
    /// On or off.
    Flag,
    /// A byte count, or `null` for "not set".
    OptBytes,
    /// `[node, secs]` pairs: which node dies when.
    NodeLosses,
    /// `[node, factor]` pairs: which node runs how much slower.
    SlowNodes,
    /// `[tier, id, partition, copies]` entries: which stored copies rot.
    Corruptions,
}

/// The widest scalar range: any non-negative finite number.
const NON_NEGATIVE: (f64, f64) = (0.0, f64::MAX);
/// Slowdown factors start at "no slower".
const FACTOR: (f64, f64) = (1.0, f64::MAX);

impl Kind {
    /// The closed range a scalar of this kind lies in.
    fn range(self) -> (f64, f64) {
        match self {
            Kind::Prob => (0.0, 1.0),
            Kind::Count { min } => (min as f64, f64::MAX),
            Kind::Secs { min } => (min, f64::MAX),
            Kind::Factor => FACTOR,
            _ => NON_NEGATIVE,
        }
    }

    /// What a JSON value of this kind must be, for error messages.
    fn expected(self) -> String {
        match self {
            Kind::Prob => "a number in [0, 1]".into(),
            Kind::Count { min } => format!("a whole number >= {min}"),
            Kind::Secs { min } => format!("a number of seconds >= {min}"),
            Kind::Factor => "a number >= 1".into(),
            Kind::Flag => "true or false".into(),
            Kind::OptBytes => "a whole number of bytes >= 0, or null".into(),
            Kind::NodeLosses => "an array of [node, secs >= 0] pairs".into(),
            Kind::SlowNodes => "an array of [node, factor >= 1] pairs".into(),
            Kind::Corruptions => "an array of [\"shuffle\"|\"cache\"|\"hdfs\", id, partition, \
                                  copies] entries of whole numbers >= 0"
                .into(),
        }
    }
}

/// `v` as a finite number in the closed range.
fn number(v: &JsonValue, (lo, hi): (f64, f64)) -> Option<f64> {
    v.as_f64().filter(|x| (lo..=hi).contains(x))
}

/// `v` as a whole number in the closed range that also fits `T`.
fn whole<T: TryFrom<u64>>(v: &JsonValue, range: (f64, f64)) -> Option<T> {
    // 2^64 is the one value `as` rounds (to `u64::MAX`, which prints as 2^64
    // again, so the round trip holds); anything larger is out of range.
    let x = number(v, range).filter(|x| x.fract() == 0.0 && *x <= u64::MAX as f64)?;
    T::try_from(x as u64).ok()
}

/// `v` as an array of `arity`-long arrays, each of which `entry` accepts.
fn entries<T>(
    v: &JsonValue,
    arity: usize,
    entry: impl Fn(&[JsonValue]) -> Option<T>,
) -> Option<Vec<T>> {
    let entry = |e: &JsonValue| e.as_array().filter(|e| e.len() == arity).and_then(&entry);
    v.as_array()?.iter().map(entry).collect()
}

/// How one Rust field type crosses the JSON boundary under its row's kind.
trait Field: Sized {
    /// The JSON form [`FaultPlan::to_json`] writes.
    fn emit(&self) -> JsonValue;
    /// Read the JSON form back; `None` for the wrong type or a value
    /// outside the kind's range.
    fn parse(kind: Kind, v: &JsonValue) -> Option<Self>;
    /// Clamp a builder's argument into the kind's range.
    fn normalise(self, _kind: Kind) -> Self {
        self
    }
}

impl Field for f64 {
    fn emit(&self) -> JsonValue {
        (*self).into()
    }
    fn parse(kind: Kind, v: &JsonValue) -> Option<Self> {
        number(v, kind.range())
    }
    fn normalise(self, kind: Kind) -> Self {
        let (lo, hi) = kind.range();
        self.clamp(lo, hi)
    }
}

macro_rules! whole_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn emit(&self) -> JsonValue {
                (*self as u64).into()
            }
            fn parse(kind: Kind, v: &JsonValue) -> Option<Self> {
                whole(v, kind.range())
            }
            fn normalise(self, kind: Kind) -> Self {
                self.max(kind.range().0 as $ty)
            }
        }
    )*};
}
whole_field!(u32, u64, usize);

impl Field for SimDuration {
    fn emit(&self) -> JsonValue {
        self.as_secs().into()
    }
    fn parse(kind: Kind, v: &JsonValue) -> Option<Self> {
        number(v, kind.range()).map(SimDuration::from_secs)
    }
    fn normalise(self, kind: Kind) -> Self {
        self.max(SimDuration::from_secs(kind.range().0))
    }
}

impl Field for bool {
    fn emit(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn parse(_: Kind, v: &JsonValue) -> Option<Self> {
        match v {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Field for Option<u64> {
    fn emit(&self) -> JsonValue {
        self.map_or(JsonValue::Null, JsonValue::from)
    }
    fn parse(kind: Kind, v: &JsonValue) -> Option<Self> {
        match v {
            JsonValue::Null => Some(None),
            v => whole(v, kind.range()).map(Some),
        }
    }
}

impl Field for Vec<(NodeId, SimInstant)> {
    fn emit(&self) -> JsonValue {
        let pair = |(n, t): &(NodeId, SimInstant)| {
            JsonValue::Array(vec![u64::from(n.0).into(), t.as_secs().into()])
        };
        JsonValue::Array(self.iter().map(pair).collect())
    }
    fn parse(_: Kind, v: &JsonValue) -> Option<Self> {
        entries(v, 2, |e| {
            let at = number(&e[1], NON_NEGATIVE)?;
            Some((
                NodeId(whole(&e[0], NON_NEGATIVE)?),
                SimInstant::from_secs(at),
            ))
        })
    }
}

impl Field for Vec<(NodeId, f64)> {
    fn emit(&self) -> JsonValue {
        let pair =
            |(n, f): &(NodeId, f64)| JsonValue::Array(vec![u64::from(n.0).into(), (*f).into()]);
        JsonValue::Array(self.iter().map(pair).collect())
    }
    fn parse(_: Kind, v: &JsonValue) -> Option<Self> {
        entries(v, 2, |e| {
            Some((NodeId(whole(&e[0], NON_NEGATIVE)?), number(&e[1], FACTOR)?))
        })
    }
    fn normalise(mut self, _: Kind) -> Self {
        for (_, factor) in &mut self {
            *factor = factor.max(FACTOR.0);
        }
        self
    }
}

impl Field for Vec<(IntegrityTier, u64, usize, u32)> {
    fn emit(&self) -> JsonValue {
        let entry = |(tier, id, part, copies): &(IntegrityTier, u64, usize, u32)| {
            JsonValue::Array(vec![
                tier.name().into(),
                (*id).into(),
                (*part).into(),
                u64::from(*copies).into(),
            ])
        };
        JsonValue::Array(self.iter().map(entry).collect())
    }
    fn parse(_: Kind, v: &JsonValue) -> Option<Self> {
        entries(v, 4, |e| {
            Some((
                e[0].as_str().and_then(IntegrityTier::parse)?,
                whole(&e[1], NON_NEGATIVE)?,
                whole(&e[2], NON_NEGATIVE)?,
                whole(&e[3], NON_NEGATIVE)?,
            ))
        })
    }
}

/// Declare the plan from its field table (see the module docs).
macro_rules! fault_plan {
    (
        $(#[$sdoc:meta])*
        pub struct $plan:ident {
            $( $(#[$doc:meta])*
               $field:ident: $ty:ty = $kind:expr, $default:expr $(, $builder:ident)?; )*
        }
    ) => {
        $(#[$sdoc])*
        #[derive(Clone, Debug, PartialEq)]
        pub struct $plan {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        /// Every field's JSON name and kind, in table order.
        const FIELDS: &[(&str, Kind)] = &[$( (stringify!($field), $kind) ),*];

        impl $plan {
            /// An inert plan (no faults) carrying `seed` for later crash
            /// settings; every other field holds its table default.
            pub fn seeded(seed: u64) -> Self {
                $plan { seed, ..$plan { $( $field: $default ),* } }
            }

            /// Serialize the plan through the hand-rolled JSON layer.
            /// Round-trips exactly through [`FaultPlan::from_json`] (float
            /// formatting is shortest-round-trip).
            pub fn to_json(&self) -> JsonValue {
                JsonValue::object(vec![$( (stringify!($field), self.$field.emit()) ),*])
            }

            /// Parse a plan from the JSON produced by [`FaultPlan::to_json`].
            /// Every field is optional and falls back to its
            /// [`FaultPlan::seeded`] default, so hand-written plans can stay
            /// minimal — but an unknown field, a known field of the wrong
            /// type and a value outside its field's range are each a
            /// one-line error naming the field, so a typo (`fetch_retrys`,
            /// `"task_crash_prob": "high"`, `"resubmit_delay": -1`) fails
            /// loudly instead of silently running with something else.
            pub fn from_json(v: &JsonValue) -> Result<$plan, String> {
                let JsonValue::Object(map) = v else {
                    return Err(format!("fault plan must be a JSON object, got {v}"));
                };
                let known = |key: &&String| FIELDS.iter().any(|(name, _)| name == *key);
                if let Some(key) = map.keys().find(|key| !known(key)) {
                    let names: Vec<&str> = FIELDS.iter().map(|(name, _)| *name).collect();
                    return Err(format!(
                        "unknown fault plan field `{}` (known fields: {})",
                        key.escape_debug(),
                        names.join(", ")
                    ));
                }
                let mut plan = $plan::seeded(0);
                $( if let Some(v) = map.get(stringify!($field)) {
                    plan.$field = <$ty>::parse($kind, v).ok_or_else(|| {
                        format!(
                            "fault plan field `{}` must be {}, got {v}",
                            stringify!($field),
                            $kind.expected()
                        )
                    })?;
                } )*
                Ok(plan)
            }

            /// Every field clamped into its kind's range: what the builders
            /// return, so a plan built in code obeys the rule
            /// [`FaultPlan::from_json`] enforces on one read from a file.
            fn normalised(mut self) -> Self {
                $( self.$field = self.$field.normalise($kind); )*
                self
            }

            $($(
                #[doc = concat!("Set [`FaultPlan::", stringify!($field), "`], clamped into its kind's range.")]
                pub fn $builder(mut self, value: $ty) -> Self {
                    self.$field = value;
                    self.normalised()
                }
            )?)*
        }
    };
}

fault_plan! {
    /// A seeded, fully deterministic description of the faults injected into one
    /// run. Built with the `with_*`/`crash_*`/`lose_*` chainable constructors.
    pub struct FaultPlan {
        /// Seed for all pseudo-random crash decisions.
        seed: u64 = Kind::Count { min: 0 }, 0;
        /// Probability that any given task attempt crashes partway through.
        task_crash_prob: f64 = Kind::Prob, 0.0, crash_tasks;
        /// Attempts a task may burn on crashes before the stage aborts
        /// (Spark's `spark.task.maxFailures`).
        max_task_failures: u32 = Kind::Count { min: 1 }, 4, with_max_task_failures;
        /// Virtual delay between a failure and the retry launch (scheduler
        /// round-trip).
        resubmit_delay: SimDuration = Kind::Secs { min: 0.0 }, SimDuration::from_secs(0.2), with_resubmit_delay;
        /// Nodes that die, with their virtual time of death.
        node_losses: Vec<(NodeId, SimInstant)> = Kind::NodeLosses, Vec::new();
        /// Nodes running slow: every task duration is multiplied by the factor.
        slow_nodes: Vec<(NodeId, f64)> = Kind::SlowNodes, Vec::new();
        /// Launch duplicate attempts for stragglers on slow nodes.
        speculation: bool = Kind::Flag, false;
        /// A surviving attempt this many times slower than the stage's median
        /// task gets a speculative copy (Spark's `spark.speculation.multiplier`).
        speculation_multiplier: f64 = Kind::Factor, 1.5;
        /// Crash failures on one node before it is blacklisted.
        blacklist_after: u32 = Kind::Count { min: 1 }, 3, with_blacklist_after;
        /// Probability that one shuffle fetch fails transiently (per reduce
        /// partition, retried in place with backoff).
        fetch_failure_prob: f64 = Kind::Prob, 0.0, flaky_fetches;
        /// Probability that one HDFS / checkpoint block read fails transiently.
        hdfs_failure_prob: f64 = Kind::Prob, 0.0, flaky_hdfs;
        /// In-place retries of a transient fetch before escalating to
        /// data-loss recovery (Spark's `spark.shuffle.io.maxRetries`).
        fetch_retries: u32 = Kind::Count { min: 0 }, 3, with_fetch_retries;
        /// Base of the exponential retry backoff (attempt `a` waits
        /// `base * 2^a * (1 + jitter)` with seeded jitter in `[0, 1)`; Spark's
        /// `spark.shuffle.io.retryWait` is 5s, scaled to this simulator's
        /// stages).
        fetch_backoff_base: SimDuration = Kind::Secs { min: 0.0 }, SimDuration::from_secs(0.05), with_fetch_backoff_base;
        /// Virtual interval between node heartbeats.
        heartbeat_interval: SimDuration = Kind::Secs { min: 1e-6 }, SimDuration::from_secs(0.5);
        /// How long past a node's last heartbeat the driver waits before
        /// declaring it lost. Zero (the default) means instant, oracle-style
        /// detection — exactly the pre-heartbeat behaviour.
        heartbeat_timeout: SimDuration = Kind::Secs { min: 0.0 }, SimDuration::ZERO;
        /// How long a blacklist entry outlives the failures that earned it.
        /// Zero (the default) keeps blacklisting stage-scoped; a nonzero expiry
        /// carries entries across stages and lets healed nodes return.
        blacklist_expiry: SimDuration = Kind::Secs { min: 0.0 }, SimDuration::ZERO, with_blacklist_expiry;
        /// Checkpoint the Spark miner's working RDD after every this many
        /// completed Phase-II jobs (0 = never). A job that counts several
        /// levels is one; the plan is the only place the cadence is set.
        checkpoint_interval: usize = Kind::Count { min: 0 }, 0, with_checkpoint_interval;
        /// Probability that one shuffle map-output bucket rots silently (rolled
        /// per (shuffle, reduce partition) at read time, seed-deterministic).
        shuffle_corruption_prob: f64 = Kind::Prob, 0.0, corrupt_shuffle;
        /// Probability that one cached partition rots silently.
        cache_corruption_prob: f64 = Kind::Prob, 0.0, corrupt_cache;
        /// Probability that one HDFS / checkpoint block *replica* rots silently
        /// (rolled per replica, so surviving copies can repair the read).
        hdfs_corruption_prob: f64 = Kind::Prob, 0.0, corrupt_hdfs;
        /// Deterministic targeted corruptions: `(tier, id, partition, copies)`
        /// poisons the first `copies` replicas of that exact block
        /// (`u32::MAX` = all replicas, leaving no clean copy at that site).
        targeted_corruptions: Vec<(IntegrityTier, u64, usize, u32)> = Kind::Corruptions, Vec::new();
        /// Probability that one execution-memory acquisition is denied as if
        /// the executor ran out of memory (rolled per acquisition,
        /// seed-deterministic). A site that spills survives; the rest
        /// kill the attempt for a retry at a doubled memory slice.
        oom_prob: f64 = Kind::Prob, 0.0, inject_oom;
        /// Pretend every node has this many bytes of memory instead of the
        /// cluster spec's `memory_per_node`. Arms the memory governor even
        /// without `oom_prob`, so tight budgets exercise the real (non-injected)
        /// pressure ladder.
        mem_budget_override: Option<u64> = Kind::OptBytes, None;
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::seeded(0)
    }
}

impl FaultPlan {
    /// Kill `node` at virtual instant `at`.
    pub fn lose_node_at(mut self, node: NodeId, at: SimInstant) -> Self {
        self.node_losses.push((node, at));
        self
    }

    /// Degrade `node`: its tasks run `factor`× slower.
    pub fn slow_node(mut self, node: NodeId, factor: f64) -> Self {
        self.slow_nodes.push((node, factor));
        self.normalised()
    }

    /// Enable speculative execution for straggler attempts.
    pub fn with_speculation(mut self) -> Self {
        self.speculation = true;
        self
    }

    /// Detect node losses by missed heartbeats: beats every `interval`,
    /// declared lost `timeout` past the last beat.
    pub fn with_heartbeat(mut self, interval: SimDuration, timeout: SimDuration) -> Self {
        self.heartbeat_interval = interval;
        self.heartbeat_timeout = timeout;
        self.normalised()
    }

    /// Poison *every* replica of the identified block, leaving no clean
    /// copy at that site — the reader must fall back to lineage or fail.
    pub fn corrupt_all_replicas(mut self, tier: IntegrityTier, id: u64, partition: usize) -> Self {
        self.targeted_corruptions
            .push((tier, id, partition, u32::MAX));
        self
    }

    /// Cap every node's memory at `bytes` for this run (arms the governor).
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget_override = Some(bytes);
        self
    }

    /// True when the plan constrains or disturbs execution memory: the
    /// memory governor arms itself (and starts charging and counting) only
    /// then, keeping unconstrained timelines byte-identical.
    pub(crate) fn memory_active(&self) -> bool {
        self.oom_prob > 0.0 || self.mem_budget_override.is_some()
    }

    /// True when the plan can inject silent corruption anywhere. Readers
    /// use this to skip checksum verification (and its virtual-time charge)
    /// entirely on clean runs, keeping fault-free timelines byte-identical.
    pub(crate) fn integrity_active(&self) -> bool {
        self.shuffle_corruption_prob > 0.0
            || self.cache_corruption_prob > 0.0
            || self.hdfs_corruption_prob > 0.0
            || !self.targeted_corruptions.is_empty()
    }

    /// Seed-deterministic corruption decision for one stored copy of one
    /// block: `copy` indexes the replica (0 for single-copy tiers). Pure —
    /// the same plan always rots the same copies; see
    /// [`crate::FaultController::take_corruption`] for the repair-aware wrapper.
    pub(crate) fn corruption_roll(
        &self,
        tier: IntegrityTier,
        id: u64,
        partition: usize,
        copy: u32,
    ) -> bool {
        for (t, tid, part, copies) in &self.targeted_corruptions {
            if *t == tier && *tid == id && *part == partition && copy < *copies {
                return true;
            }
        }
        let prob = match tier {
            IntegrityTier::Shuffle => self.shuffle_corruption_prob,
            IntegrityTier::Cache => self.cache_corruption_prob,
            IntegrityTier::Hdfs => self.hdfs_corruption_prob,
        };
        if prob <= 0.0 {
            return false;
        }
        let key = (self.seed, tier.tag(), id, partition as u64, copy as u64);
        let roll = (fx_hash64(&key) >> 11) as f64 / (1u64 << 53) as f64;
        roll < prob
    }

    /// The virtual instant at which the driver *detects* a death at `death`:
    /// the heartbeat timeout past the victim's last beat, never earlier than
    /// the death itself. With a zero timeout this is `death` exactly.
    pub(crate) fn detection_instant(&self, death: SimInstant) -> SimInstant {
        if self.heartbeat_timeout == SimDuration::ZERO {
            return death;
        }
        HeartbeatMonitor::new(self.heartbeat_interval, self.heartbeat_timeout)
            .detection_instant(death)
    }

    /// Walk the deterministic retry ladder for one transient-failure site
    /// (shuffle fetch or HDFS block read), identified by `(kind, id,
    /// partition)`. Every decision hashes the plan seed, so the same plan
    /// always produces the same retries, backoff, and escalation.
    pub(crate) fn transient_outcome(
        &self,
        kind: TransientKind,
        id: u64,
        partition: usize,
    ) -> TransientOutcome {
        let prob = match kind {
            TransientKind::ShuffleFetch => self.fetch_failure_prob,
            TransientKind::HdfsRead => self.hdfs_failure_prob,
        };
        let mut out = TransientOutcome::default();
        if prob <= 0.0 {
            return out;
        }
        let tag: u64 = match kind {
            TransientKind::ShuffleFetch => 0x7fe7,
            TransientKind::HdfsRead => 0xdf5d,
        };
        for attempt in 0..=self.fetch_retries {
            let key = (self.seed, tag, id, partition as u64, attempt as u64);
            let roll = (fx_hash64(&key) >> 11) as f64 / (1u64 << 53) as f64;
            if roll >= prob {
                return out; // this attempt got through
            }
            if attempt == self.fetch_retries {
                out.escalated = true;
                return out;
            }
            out.retries += 1;
            let jitter = (fx_hash64(&(key, 0xb0ffu64)) >> 11) as f64 / (1u64 << 53) as f64;
            let backoff = self.fetch_backoff_base.as_secs()
                * (1u64 << attempt.min(20)) as f64
                * (1.0 + jitter);
            out.backoff_micros += (backoff * 1e6).round() as u64;
        }
        out
    }

    /// Deterministic crash decision for one attempt: `Some(fraction)` means
    /// the attempt crashes after running that fraction of its duration.
    pub(super) fn crash_point(
        &self,
        stage_seed: u64,
        partition: usize,
        attempt: u32,
    ) -> Option<f64> {
        if self.task_crash_prob <= 0.0 {
            return None;
        }
        let key = (self.seed, stage_seed, partition as u64, attempt as u64);
        let roll = (fx_hash64(&key) >> 11) as f64 / (1u64 << 53) as f64;
        if roll >= self.task_crash_prob {
            return None;
        }
        let frac_bits = fx_hash64(&(key, 0x5eedu64));
        Some(0.1 + 0.8 * ((frac_bits >> 11) as f64 / (1u64 << 53) as f64))
    }

    pub(super) fn slow_factor(&self, node: NodeId) -> f64 {
        self.slow_nodes
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(1.0, |(_, f)| f.max(1.0))
    }
}

/// Which kind of remote read a transient failure hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum TransientKind {
    /// A reduce task fetching shuffle map output.
    ShuffleFetch,
    /// A task reading an HDFS or checkpoint block.
    HdfsRead,
}

/// The deterministic result of one transient-failure retry ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TransientOutcome {
    /// Failed attempts that were retried in place.
    pub retries: u64,
    /// Total backoff waited between attempts, in virtual microseconds.
    pub backoff_micros: u64,
    /// All retries failed: the caller must escalate to data-loss recovery
    /// (map-output resubmission, remote-replica read).
    pub escalated: bool,
}

impl TransientOutcome {
    /// True when the ladder did anything at all.
    pub(crate) fn any(&self) -> bool {
        *self != TransientOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A value of `kind` that is in range and differs from every default.
    fn non_default(kind: Kind) -> &'static str {
        match kind {
            Kind::Prob => "0.375",
            Kind::Count { min: 0 } => "7",
            Kind::Count { .. } => "9",
            Kind::Secs { .. } => "1.25",
            Kind::Factor => "2.5",
            Kind::Flag => "true",
            Kind::OptBytes => "4096",
            Kind::NodeLosses => "[[2,1.75],[0,0]]",
            Kind::SlowNodes => "[[1,3],[2,1]]",
            Kind::Corruptions => r#"[["cache",9,3,1],["hdfs",4,0,4294967295]]"#,
        }
    }

    #[test]
    fn every_table_field_round_trips_through_json() {
        let body: Vec<String> = FIELDS
            .iter()
            .map(|(name, kind)| format!("\"{name}\":{}", non_default(*kind)))
            .collect();
        let doc = parse(&format!("{{{}}}", body.join(","))).expect("valid JSON");
        let plan = FaultPlan::from_json(&doc).expect("every value is in range");
        // No field was dropped, defaulted or rewritten on the way in …
        assert_eq!(plan.to_json(), doc);
        let defaults = FaultPlan::seeded(0).to_json();
        for (name, _) in FIELDS {
            assert_ne!(
                doc.get(name),
                defaults.get(name),
                "`{name}` kept its default"
            );
        }
        // … and the emitted text reads back as the same plan.
        let back = FaultPlan::from_json(&parse(&plan.to_json().to_string()).unwrap());
        assert_eq!(back, Ok(plan.clone()));
        assert_eq!(
            plan.clone().normalised(),
            plan,
            "in-range values are already normal"
        );
        // A plan without the override round-trips the `null` too.
        let bare = FaultPlan::seeded(1).inject_oom(0.5);
        assert_eq!(FaultPlan::from_json(&bare.to_json()), Ok(bare.clone()));
        assert!(bare.memory_active());
        assert!(!FaultPlan::seeded(1).memory_active());
    }

    #[test]
    fn out_of_range_and_mistyped_values_are_one_line_errors_naming_the_field() {
        for (doc, field) in [
            (r#"{"resubmit_delay": -1}"#, "resubmit_delay"),
            (r#"{"fetch_backoff_base": -0.5}"#, "fetch_backoff_base"),
            (r#"{"node_losses": [[0, -5]]}"#, "node_losses"),
            (
                r#"{"speculation_multiplier": -3}"#,
                "speculation_multiplier",
            ),
            (r#"{"max_task_failures": 2.7}"#, "max_task_failures"),
            (r#"{"mem_budget_override": -7}"#, "mem_budget_override"),
            (r#"{"task_crash_prob": 1.5}"#, "task_crash_prob"),
            (r#"{"max_task_failures": 0}"#, "max_task_failures"),
            (r#"{"blacklist_after": 1e308}"#, "blacklist_after"),
            (r#"{"heartbeat_interval": 0}"#, "heartbeat_interval"),
            (r#"{"seed": -1}"#, "seed"),
            (r#"{"seed": 0.5}"#, "seed"),
            (r#"{"slow_nodes": [[1, 0.5]]}"#, "slow_nodes"),
            (r#"{"slow_nodes": [[-1, 2]]}"#, "slow_nodes"),
            (r#"{"node_losses": [[0, 1, 2]]}"#, "node_losses"),
            (
                r#"{"targeted_corruptions": [["cache", 1, 2.5, 1]]}"#,
                "targeted_corruptions",
            ),
            (
                r#"{"targeted_corruptions": [["ssd", 1, 2, 1]]}"#,
                "targeted_corruptions",
            ),
            (r#"{"targeted_corruptions": {}}"#, "targeted_corruptions"),
            (r#"{"task_crash_prob": "high"}"#, "task_crash_prob"),
            (r#"{"seed": null}"#, "seed"),
            (r#"{"speculation": 1}"#, "speculation"),
            (r#"{"node_losses": 3}"#, "node_losses"),
            (r#"{"mem_budget_override": "1g"}"#, "mem_budget_override"),
        ] {
            let err = FaultPlan::from_json(&parse(doc).unwrap()).expect_err(doc);
            let named = format!("fault plan field `{field}` must be ");
            assert!(err.starts_with(&named), "{doc}: {err}");
            assert_eq!(err.lines().count(), 1, "{doc}: {err}");
        }
    }

    #[test]
    fn builders_clamp_where_from_json_rejects() {
        let plan = FaultPlan::seeded(0)
            .crash_tasks(7.0)
            .slow_node(NodeId(1), 0.25)
            .with_max_task_failures(0)
            .with_blacklist_after(0)
            .with_heartbeat(SimDuration::ZERO, SimDuration::ZERO)
            .inject_oom(-1.0);
        assert_eq!(plan.task_crash_prob, 1.0);
        assert_eq!(plan.slow_nodes, vec![(NodeId(1), 1.0)]);
        assert_eq!((plan.max_task_failures, plan.blacklist_after), (1, 1));
        assert_eq!(plan.heartbeat_interval, SimDuration::from_secs(1e-6));
        assert_eq!(plan.oom_prob, 0.0);
        assert_eq!(FaultPlan::from_json(&plan.to_json()), Ok(plan));
    }

    #[test]
    fn design_md_knob_table_lists_every_field_with_its_default() {
        let design = include_str!("../../../../DESIGN.md");
        let defaults = FaultPlan::seeded(0).to_json();
        for (name, _) in FIELDS {
            let row = design
                .lines()
                .find(|l| l.starts_with(&format!("| `{name}` |")))
                .unwrap_or_else(|| panic!("DESIGN.md's knob table has no row for `{name}`"));
            let default = format!("| `{}` |", defaults.get(name).expect("emitted"));
            assert!(
                row.contains(&default),
                "`{name}`: expected {default} in {row}"
            );
        }
    }

    #[test]
    fn transient_ladder_is_deterministic_and_bounded() {
        let plan = FaultPlan::seeded(9)
            .flaky_fetches(0.5)
            .with_fetch_retries(4);
        let mut saw_retry = false;
        let mut saw_clean = false;
        for part in 0..64 {
            let a = plan.transient_outcome(TransientKind::ShuffleFetch, 3, part);
            let b = plan.transient_outcome(TransientKind::ShuffleFetch, 3, part);
            assert_eq!(a, b, "same site must roll identically");
            assert!(a.retries <= 4);
            if a.escalated {
                assert_eq!(a.retries, 4, "escalation only after the full ladder");
            }
            if a.retries > 0 {
                saw_retry = true;
                assert!(a.backoff_micros > 0, "every retry waits a backoff");
            } else if !a.escalated {
                saw_clean = true;
                assert_eq!(a.backoff_micros, 0);
            }
        }
        assert!(saw_retry && saw_clean, "50% flakiness mixes outcomes");
        // Different kinds and seeds roll independently.
        let hdfs = FaultPlan::seeded(9).flaky_hdfs(0.5).with_fetch_retries(4);
        let outcomes_a: Vec<_> = (0..64)
            .map(|p| plan.transient_outcome(TransientKind::ShuffleFetch, 3, p))
            .collect();
        let outcomes_b: Vec<_> = (0..64)
            .map(|p| hdfs.transient_outcome(TransientKind::HdfsRead, 3, p))
            .collect();
        assert_ne!(outcomes_a, outcomes_b);
    }

    #[test]
    fn backoff_grows_exponentially_with_jitter() {
        let plan = FaultPlan::seeded(0)
            .flaky_fetches(1.0)
            .with_fetch_retries(3)
            .with_fetch_backoff_base(SimDuration::from_secs(0.1));
        let out = plan.transient_outcome(TransientKind::ShuffleFetch, 0, 0);
        assert!(out.escalated);
        assert_eq!(out.retries, 3);
        // base*(1+j0) + 2*base*(1+j1) + 4*base*(1+j2): between 0.7s (no
        // jitter) and 1.4s (max jitter).
        let secs = out.backoff_micros as f64 / 1e6;
        assert!((0.7..=1.4).contains(&secs), "backoff {secs}s");
    }

    #[test]
    fn unknown_json_field_is_rejected_by_name() {
        let v = crate::json::parse(r#"{"seed": 7, "fetch_retrys": 5}"#).unwrap();
        let err = FaultPlan::from_json(&v).expect_err("typo'd field must fail");
        assert!(err.contains("fetch_retrys"), "error names the field: {err}");
        assert!(err.contains("unknown fault plan field"), "got: {err}");
        // The known-field list the error prints advertises the memory knobs,
        // so a typo'd `oom_prob`/`mem_budget_override` points at the fix.
        assert!(
            err.contains("oom_prob") && err.contains("mem_budget_override"),
            "known-field list names the memory knobs: {err}"
        );
        let not_a_plan = FaultPlan::from_json(&crate::json::parse("[1,2]").unwrap());
        assert!(not_a_plan.unwrap_err().contains("must be a JSON object"));
    }

    #[test]
    fn corruption_rolls_are_deterministic_and_tier_independent() {
        let plan = FaultPlan::seeded(13)
            .corrupt_shuffle(0.5)
            .corrupt_cache(0.5);
        let a: Vec<bool> = (0..64)
            .map(|p| plan.corruption_roll(IntegrityTier::Shuffle, 3, p, 0))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|p| plan.corruption_roll(IntegrityTier::Shuffle, 3, p, 0))
            .collect();
        assert_eq!(a, b, "same plan rots the same copies");
        assert!(
            a.iter().any(|x| *x) && a.iter().any(|x| !*x),
            "mixed at 50%"
        );
        let c: Vec<bool> = (0..64)
            .map(|p| plan.corruption_roll(IntegrityTier::Cache, 3, p, 0))
            .collect();
        assert_ne!(a, c, "tiers roll in independent hash domains");
        // Inert tier never rots; targeted entries rot regardless of probs.
        assert!(!plan.corruption_roll(IntegrityTier::Hdfs, 3, 0, 0));
        let targeted = FaultPlan::seeded(0).corrupt_all_replicas(IntegrityTier::Hdfs, 7, 2);
        assert!(targeted.corruption_roll(IntegrityTier::Hdfs, 7, 2, 0));
        assert!(targeted.corruption_roll(IntegrityTier::Hdfs, 7, 2, 5));
        assert!(!targeted.corruption_roll(IntegrityTier::Hdfs, 7, 3, 0));
        assert!(targeted.integrity_active());
    }
}
