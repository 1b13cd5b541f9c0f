//! The driver context — the `SparkContext` equivalent.

use crate::cache::CacheManager;
use crate::rdd::{self, Data, HdfsTextRdd, ParallelizeRdd, Pipe, Rdd, RddMeta};
use crate::shuffle::ShuffleRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use yafim_cluster::{
    storage_region, ByteSize, DfsError, EngineCounters, EventKind, Lines, Metrics, SimCluster,
};

/// How shared data reaches the workers (paper §IV.C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BroadcastMode {
    /// Spark's broadcast variables: each node receives the data once,
    /// BitTorrent-style (logarithmic rounds).
    Torrent,
    /// The naive default the paper warns about: the driver ships the data
    /// with *every task*, serialized through its single uplink.
    NaivePerTask,
}

/// Tunables of one driver context.
#[derive(Clone, Debug)]
pub struct RddConfig {
    /// Broadcast strategy.
    pub broadcast: BroadcastMode,
    /// Default number of partitions for `parallelize` and the default
    /// task-count estimate for naive broadcast (Spark uses 2–3 tasks per
    /// core).
    pub default_parallelism: usize,
    /// Override the per-node cache capacity in bytes (for the memory
    /// pressure ablation). `None` uses the node's
    /// [`yafim_cluster::storage_region`], 60 % of its memory.
    pub cache_capacity_per_node: Option<u64>,
}

impl RddConfig {
    /// Defaults for a given cluster.
    pub fn for_cluster(cluster: &SimCluster) -> Self {
        RddConfig {
            broadcast: BroadcastMode::Torrent,
            default_parallelism: cluster.spec().total_cores() as usize * 2,
            cache_capacity_per_node: None,
        }
    }
}

pub(crate) struct CtxInner {
    pub(crate) cluster: SimCluster,
    pub(crate) cache: CacheManager,
    pub(crate) shuffles: ShuffleRegistry,
    pub(crate) config: RddConfig,
    next_id: AtomicU64,
}

/// Driver handle: creates RDDs and broadcast variables over one cluster.
/// Cheap to clone.
#[derive(Clone)]
pub struct Context {
    pub(crate) inner: Arc<CtxInner>,
}

impl Context {
    /// A context with default configuration.
    pub fn new(cluster: SimCluster) -> Self {
        let config = RddConfig::for_cluster(&cluster);
        Self::with_config(cluster, config)
    }

    /// A context with explicit configuration.
    pub fn with_config(cluster: SimCluster, config: RddConfig) -> Self {
        let spec = cluster.spec();
        let capacity = config.cache_capacity_per_node;
        let capacity = capacity.unwrap_or_else(|| storage_region(spec.memory_per_node));
        let cache = CacheManager::with_capacity(spec.nodes as usize, capacity);
        Context {
            inner: Arc::new(CtxInner {
                cache,
                shuffles: ShuffleRegistry::new(),
                config,
                next_id: AtomicU64::new(1),
                cluster,
            }),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &SimCluster {
        &self.inner.cluster
    }

    /// The cluster's metrics sink (virtual clock, event log).
    pub fn metrics(&self) -> &Metrics {
        self.inner.cluster.metrics()
    }

    /// The configuration this context was created with.
    pub fn config(&self) -> &RddConfig {
        &self.inner.config
    }

    /// The partition cache (exposed for stats and fault injection).
    pub fn cache(&self) -> &CacheManager {
        &self.inner.cache
    }

    pub(crate) fn new_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn shuffles(&self) -> &ShuffleRegistry {
        &self.inner.shuffles
    }

    /// Distribute an in-memory collection as an RDD with
    /// `config.default_parallelism` partitions.
    pub fn parallelize<T: crate::rdd::Data>(&self, data: Vec<T>) -> Rdd<T> {
        self.parallelize_with_partitions(data, self.inner.config.default_parallelism)
    }

    /// Distribute an in-memory collection with an explicit partition count.
    pub fn parallelize_with_partitions<T: crate::rdd::Data>(
        &self,
        data: Vec<T>,
        partitions: usize,
    ) -> Rdd<T> {
        let partitions = partitions.max(1);
        let n = data.len();
        let chunk = n.div_ceil(partitions).max(1);
        // One `Arc` per chunk: computing a partition shares the driver's
        // buffer with the task's pipeline instead of cloning it.
        let mut chunks: Vec<Arc<Vec<T>>> = Vec::with_capacity(partitions);
        let mut it = data.into_iter();
        for _ in 0..partitions {
            chunks.push(Arc::new(it.by_ref().take(chunk).collect()));
        }
        let imp = Arc::new(ParallelizeRdd {
            meta: RddMeta::new(self),
            chunks,
        });
        Rdd::from_impl(self.clone(), imp)
    }

    /// Read a text file from the cluster's simulated HDFS, one element per
    /// line, with at least `min_splits` partitions (Spark's
    /// `textFile(path, minPartitions)`).
    pub fn text_file(&self, path: &str, min_splits: usize) -> Result<Rdd<String>, DfsError> {
        self.text_source(path, min_splits, rdd::owned_lines)
    }

    /// [`Context::text_file`] for a consumer that takes a split whole: the
    /// same partitions, each one element, a view of the file's own buffer
    /// that stands for a record per line and weighs what the `String`s
    /// would. Every counter reads as `text_file`'s does; no `String` is made.
    pub fn text_splits(&self, path: &str, min_splits: usize) -> Result<Rdd<Lines>, DfsError> {
        self.text_source(path, min_splits, rdd::whole_split)
    }

    fn text_source<T: Data>(
        &self,
        path: &str,
        min_splits: usize,
        elements: fn(Lines) -> Pipe<'static, T>,
    ) -> Result<Rdd<T>, DfsError> {
        let file = self.inner.cluster.hdfs().get(path)?;
        let splits = file.splits(min_splits.max(1));
        let imp = Arc::new(HdfsTextRdd {
            meta: RddMeta::new(self),
            file,
            splits,
            elements,
        });
        Ok(Rdd::from_impl(self.clone(), imp))
    }

    /// Ship `value` to the workers as a read-only broadcast variable,
    /// charging virtual time according to [`BroadcastMode`].
    pub fn broadcast<T: ByteSize + Send + Sync>(&self, value: T) -> Broadcast<T> {
        let bytes = value.byte_size();
        let cluster = &self.inner.cluster;
        let cost = match self.inner.config.broadcast {
            BroadcastMode::Torrent => cluster
                .cost()
                .broadcast_torrent(bytes, cluster.spec().nodes),
            BroadcastMode::NaivePerTask => cluster
                .cost()
                .broadcast_naive(bytes, self.inner.config.default_parallelism),
        };
        cluster.metrics().advance_with_event(
            cost,
            EventKind::Broadcast,
            format!("broadcast {bytes}B"),
        );
        cluster.metrics().note_engine(&EngineCounters {
            broadcast_ship_bytes: bytes,
            broadcast_variables: 1,
            ..EngineCounters::default()
        });
        Broadcast {
            value: Arc::new(value),
            bytes,
        }
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("cluster", &self.inner.cluster)
            .field("config", &self.inner.config)
            .finish()
    }
}

/// A read-only value shared with every worker. Dereferences to the value.
#[derive(Clone)]
pub struct Broadcast<T> {
    value: Arc<T>,
    bytes: u64,
}

impl<T> Broadcast<T> {
    /// Serialized size charged when the broadcast was created.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Shared handle to the value (for moving into task closures).
    pub fn value(&self) -> Arc<T> {
        Arc::clone(&self.value)
    }

    /// Consume the handle, yielding the shared value. When every task
    /// closure has been dropped this is the last reference, letting the
    /// driver reclaim the value with `Arc::try_unwrap` instead of cloning
    /// out of it.
    pub fn into_value(self) -> Arc<T> {
        self.value
    }
}

impl<T> std::ops::Deref for Broadcast<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}
