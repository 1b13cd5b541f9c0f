//! Simulated HDFS.
//!
//! Files hold their *real* contents (lines of text) in memory, so the engines
//! built on this substrate parse and process genuine bytes. What is simulated
//! is the layout and the cost: files are split into blocks, each block has
//! replicas placed deterministically across nodes, and the engines charge
//! disk/network virtual time when they read or commit blocks.
//!
//! A file's contents are one buffer, [`Lines`]: the text with a `\n` after
//! every line, and where each line starts; blocks, splits and byte counts
//! come from those offsets alone. A writer that has such a buffer hands it
//! over as it is, to several clusters if it likes
//! (`yafim_data::read_canonical_text` checks a `.dat` file into one, in
//! chunks, and is where the cleaning rule lives); a `Vec<String>` is joined
//! once on its way in. Readers get views: no `String` per line exists.

use crate::costmodel::CostModel;
use crate::spec::{ClusterSpec, NodeId};
use crate::sync::RwLock;
use std::any::Any;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Default HDFS block size (64 MiB, the Hadoop 1.x default).
pub(crate) const DEFAULT_BLOCK_SIZE: u64 = 64 * 1024 * 1024;

/// Errors from the simulated file system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DfsError {
    /// No file with that name exists.
    NotFound(String),
    /// A file with that name already exists.
    AlreadyExists(String),
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::NotFound(n) => write!(f, "dfs file not found: {n}"),
            DfsError::AlreadyExists(n) => write!(f, "dfs file already exists: {n}"),
        }
    }
}

impl std::error::Error for DfsError {}

/// One block of a file: a contiguous range of lines with replica placement.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    /// Block index within the file.
    pub index: usize,
    /// Line range covered by this block.
    pub lines: Range<usize>,
    /// Exact byte size of the block (line bytes + newlines).
    pub bytes: u64,
    /// Nodes holding a replica; the first is the "primary".
    pub replicas: Vec<NodeId>,
}

/// One input split handed to a task: a range of lines plus the node the
/// scheduler should prefer (a replica holder).
#[derive(Clone, Debug)]
pub struct Split {
    /// Split index.
    pub index: usize,
    /// Line range of the split.
    pub lines: Range<usize>,
    /// Exact byte size of the split.
    pub bytes: u64,
    /// Node a locality-aware scheduler should run the task on.
    pub preferred_node: NodeId,
}

/// Lines of text in one shared buffer: a whole file, or a range of its
/// lines. Cheap to clone and to [`slice`](Lines::slice).
#[derive(Clone)]
pub struct Lines {
    buf: Arc<TextBuf>,
    /// The lines of `buf` this view covers.
    range: Range<usize>,
}

struct TextBuf {
    /// Every line, each followed by `\n`.
    text: String,
    /// Where each line starts in `text`, and `text.len()` last: line `i` is
    /// `text[offsets[i]..offsets[i + 1] - 1]`.
    offsets: Vec<u64>,
}

/// The lines of a text, which start at the offsets (what
/// `yafim_data::read_canonical_text` and `to_text` return): ascending from 0
/// to the text's length, a `\n` before each but the first.
impl From<(String, Vec<u64>)> for Lines {
    fn from((text, offsets): (String, Vec<u64>)) -> Self {
        let whole = offsets.first() == Some(&0) && offsets.last() == Some(&(text.len() as u64));
        let ended = |w: &[u64]| w[0] < w[1] && text.as_bytes()[w[1] as usize - 1] == b'\n';
        let valid = whole && offsets.windows(2).all(ended);
        assert!(valid, "offsets do not cut the text into `\\n`-ended lines");
        let range = 0..offsets.len() - 1;
        let buf = Arc::new(TextBuf { text, offsets });
        Lines { buf, range }
    }
}

impl Lines {
    /// Number of lines.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether there are no lines.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Where line `i` starts in the buffer (`i == len()`: where the last ends).
    fn offset(&self, i: usize) -> usize {
        self.buf.offsets[self.range.start + i] as usize
    }

    /// Line `i`, without its newline.
    pub fn get(&self, i: usize) -> Option<&str> {
        (i < self.len()).then(|| &self.buf.text[self.offset(i)..self.offset(i + 1) - 1])
    }

    /// The lines in order, each without its newline.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        let starts = &self.buf.offsets[self.range.start..=self.range.end];
        let line = |w: &[u64]| &self.buf.text[w[0] as usize..w[1] as usize - 1];
        starts.windows(2).map(line)
    }

    /// The lines `range` of these, sharing the buffer.
    pub fn slice(&self, range: Range<usize>) -> Lines {
        assert!(range.start <= range.end && range.end <= self.len());
        let range = self.range.start + range.start..self.range.start + range.end;
        let buf = Arc::clone(&self.buf);
        Lines { buf, range }
    }

    /// The lines as they lie in the buffer, a `\n` after each.
    pub fn text(&self) -> &str {
        &self.buf.text[self.offset(0)..self.offset(self.len())]
    }

    /// Exact byte size of the lines `range`, newlines included.
    fn range_bytes(&self, range: Range<usize>) -> u64 {
        (self.offset(range.end) - self.offset(range.start)) as u64
    }
}

/// The lines joined into one buffer, which a line holding a `\n` of its own
/// does not confuse: the offsets come from the lengths.
impl From<Vec<String>> for Lines {
    fn from(lines: Vec<String>) -> Self {
        let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        let mut offsets = Vec::with_capacity(lines.len() + 1);
        offsets.push(0);
        for line in &lines {
            text.push_str(line);
            text.push('\n');
            offsets.push(text.len() as u64);
        }
        Lines::from((text, offsets))
    }
}

/// What the lines weigh as the `Vec<String>` of them (`len + 8` each), and
/// one record a line: the element an RDD of whole splits holds.
impl crate::bytes::ByteSize for Lines {
    fn byte_size(&self) -> u64 {
        self.range_bytes(0..self.len()) + 7 * self.len() as u64
    }

    fn records(&self) -> u64 {
        self.len() as u64
    }
}

struct FileInner {
    name: String,
    lines: Lines,
    blocks: Vec<BlockInfo>,
}

/// Handle to a stored file. Cheap to clone; contents are shared.
#[derive(Clone)]
pub struct DfsFile {
    inner: Arc<FileInner>,
}

impl DfsFile {
    /// File name (path).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Total size in bytes.
    pub fn bytes(&self) -> u64 {
        self.range_bytes(0..self.num_lines())
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.inner.lines.len()
    }

    /// The real file contents.
    pub fn lines(&self) -> &Lines {
        &self.inner.lines
    }

    /// Block layout.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.inner.blocks
    }

    /// Replica count of the block holding line `line`: the copies a
    /// verifying reader of a split starting there can fall back to.
    pub fn replicas_at(&self, line: usize) -> u32 {
        let block = self.blocks().iter().find(|b| b.lines.contains(&line));
        block.map_or(1, |b| b.replicas.len().max(1)) as u32
    }

    /// Exact byte size of a line range.
    pub fn range_bytes(&self, range: Range<usize>) -> u64 {
        self.inner.lines.range_bytes(range)
    }

    /// Derive input splits: one per block, subdividing blocks further if
    /// fewer than `min_splits` would result (Spark's
    /// `textFile(path, minPartitions)` behaviour). Splits inherit the
    /// enclosing block's primary replica as their preferred node.
    pub fn splits(&self, min_splits: usize) -> Vec<Split> {
        let blocks = &self.inner.blocks;
        if blocks.is_empty() {
            return Vec::new();
        }
        let per_block = min_splits.div_ceil(blocks.len()).max(1);
        let mut out = Vec::new();
        for b in blocks {
            let n_lines = b.lines.len();
            let chunk = n_lines.div_ceil(per_block.min(n_lines).max(1)).max(1);
            // A block without lines (an empty file's only one) is one split.
            let starts = b.lines.start..b.lines.end.max(b.lines.start + 1);
            for start in starts.step_by(chunk) {
                let lines = start..(start + chunk).min(b.lines.end);
                out.push(Split {
                    index: out.len(),
                    bytes: self.range_bytes(lines.clone()),
                    lines,
                    preferred_node: b.replicas[0],
                });
            }
        }
        out
    }
}

impl std::fmt::Debug for DfsFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DfsFile")
            .field("name", &self.inner.name)
            .field("bytes", &self.bytes())
            .field("lines", &self.num_lines())
            .field("blocks", &self.inner.blocks.len())
            .finish()
    }
}

/// One checkpointed RDD partition: the materialized records (type-erased),
/// their serialized size, and the nodes holding a replica.
#[derive(Clone)]
pub struct CheckpointBlock {
    /// Type-erased `Arc<Vec<T>>` with the partition's records.
    pub data: Arc<dyn Any + Send + Sync>,
    /// Serialized byte size charged for writes and reads of this block.
    pub bytes: u64,
    /// Nodes holding a replica; the first is the primary (the node the
    /// checkpointing task ran on).
    pub replicas: Vec<NodeId>,
}

impl std::fmt::Debug for CheckpointBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointBlock")
            .field("bytes", &self.bytes)
            .field("replicas", &self.replicas)
            .finish()
    }
}

/// The simulated distributed file system of one cluster.
pub struct SimHdfs {
    spec: ClusterSpec,
    cost: CostModel,
    block_size: RwLock<u64>,
    files: RwLock<BTreeMap<String, DfsFile>>,
    /// Checkpointed RDD partitions, keyed by (checkpoint RDD id, partition).
    checkpoints: RwLock<BTreeMap<(u64, usize), CheckpointBlock>>,
}

impl SimHdfs {
    /// A fresh, empty file system for the given cluster.
    pub fn new(spec: ClusterSpec, cost: CostModel) -> Self {
        SimHdfs {
            spec,
            cost,
            block_size: RwLock::new(DEFAULT_BLOCK_SIZE),
            files: RwLock::new(BTreeMap::new()),
            checkpoints: RwLock::new(BTreeMap::new()),
        }
    }

    /// Replication factor applied to checkpoint blocks (and file blocks),
    /// clamped to the cluster size.
    pub fn replication(&self) -> u32 {
        self.cost.hdfs_replication.min(self.spec.nodes).max(1)
    }

    /// Store one checkpointed partition with replication. The primary
    /// replica lives on `primary` (the node that materialized the
    /// partition); the remaining replicas are placed deterministically on
    /// the following nodes, exactly like file blocks. Returns the replica
    /// set.
    pub fn checkpoint_put(
        &self,
        owner: u64,
        partition: usize,
        data: Arc<dyn Any + Send + Sync>,
        bytes: u64,
        primary: NodeId,
    ) -> Vec<NodeId> {
        let replicas: Vec<NodeId> = (0..self.replication())
            .map(|r| NodeId((primary.0 + r) % self.spec.nodes))
            .collect();
        self.checkpoints.write().insert(
            (owner, partition),
            CheckpointBlock {
                data,
                bytes,
                replicas: replicas.clone(),
            },
        );
        replicas
    }

    /// Look up a checkpointed partition. Returns `None` when the partition
    /// was never written, was removed, or lost all of its replicas.
    pub fn checkpoint_get(&self, owner: u64, partition: usize) -> Option<CheckpointBlock> {
        self.checkpoints.read().get(&(owner, partition)).cloned()
    }

    /// Drop every partition checkpointed under `owner` (the simulated
    /// equivalent of deleting the checkpoint directory). Returns how many
    /// partitions were removed.
    pub fn checkpoint_remove(&self, owner: u64) -> usize {
        let mut g = self.checkpoints.write();
        let before = g.len();
        g.retain(|(o, _), _| *o != owner);
        before - g.len()
    }

    /// A node was lost: drop its checkpoint replicas. Blocks that lose
    /// *all* replicas disappear entirely (subsequent reads see `None`),
    /// which with the default 3× replication requires losing three nodes.
    pub fn checkpoint_drop_node(&self, node: NodeId) {
        let mut g = self.checkpoints.write();
        for block in g.values_mut() {
            block.replicas.retain(|r| *r != node);
        }
        g.retain(|_, b| !b.replicas.is_empty());
    }

    /// (blocks, total bytes) currently held in the checkpoint store.
    pub fn checkpoint_stats(&self) -> (usize, u64) {
        let g = self.checkpoints.read();
        (g.len(), g.values().map(|b| b.bytes).sum())
    }

    /// Current block size used for newly written files.
    pub fn block_size(&self) -> u64 {
        *self.block_size.read()
    }

    /// Change the block size for subsequently written files. The default is
    /// Hadoop's stock 64 MiB — deliberately kept for the paper experiments,
    /// where megabyte-scale inputs then yield only 1–2 map tasks per
    /// MapReduce job (see `DESIGN.md` §5); tests use small blocks to
    /// exercise multi-block layouts.
    pub fn set_block_size(&self, bytes: u64) {
        assert!(bytes > 0, "block size must be positive");
        *self.block_size.write() = bytes;
    }

    /// Store a file; errors if the name is taken.
    pub fn put(
        &self,
        name: impl Into<String>,
        lines: impl Into<Lines>,
    ) -> Result<DfsFile, DfsError> {
        let name = name.into();
        if self.exists(&name) {
            return Err(DfsError::AlreadyExists(name));
        }
        Ok(self.put_overwrite(name, lines))
    }

    /// Store a file, replacing any previous version.
    pub fn put_overwrite(&self, name: impl Into<String>, lines: impl Into<Lines>) -> DfsFile {
        let name = name.into();
        let file = self.build_file(name.clone(), lines.into());
        self.files.write().insert(name, file.clone());
        file
    }

    /// Look up a file by name.
    pub fn get(&self, name: &str) -> Result<DfsFile, DfsError> {
        self.files
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DfsError::NotFound(name.to_string()))
    }

    /// Remove a file; errors if absent.
    pub fn delete(&self, name: &str) -> Result<(), DfsError> {
        self.files
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DfsError::NotFound(name.to_string()))
    }

    /// Whether a file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.read().contains_key(name)
    }

    /// All file names, sorted.
    pub fn list(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    fn build_file(&self, name: String, lines: Lines) -> DfsFile {
        let block_size = self.block_size();

        // Cut blocks at line boundaries once the byte budget is exceeded.
        let mut blocks = Vec::new();
        let mut start = 0usize;
        for i in 0..lines.len() {
            if lines.range_bytes(start..i + 1) >= block_size {
                blocks.push(start..i + 1);
                start = i + 1;
            }
        }
        if start < lines.len() || blocks.is_empty() {
            blocks.push(start..lines.len());
        }

        let replication = self.replication();
        let blocks = blocks
            .into_iter()
            .enumerate()
            .map(|(index, range)| {
                let bytes = lines.range_bytes(range.clone());
                let replicas = (0..replication)
                    .map(|r| NodeId((index as u32 + r) % self.spec.nodes))
                    .collect();
                BlockInfo {
                    index,
                    lines: range,
                    bytes,
                    replicas,
                }
            })
            .collect();

        DfsFile {
            inner: Arc::new(FileInner {
                name,
                lines,
                blocks,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GIB;

    fn hdfs() -> SimHdfs {
        SimHdfs::new(ClusterSpec::new(4, 2, GIB), CostModel::hadoop_era())
    }

    fn lines(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("line {i}")).collect()
    }

    #[test]
    fn put_get_roundtrip() {
        let fs = hdfs();
        let f = fs.put("a.dat", lines(10)).unwrap();
        assert_eq!(f.num_lines(), 10);
        let g = fs.get("a.dat").unwrap();
        assert_eq!(g.lines().get(3), Some("line 3"));
        assert!(fs.exists("a.dat"));
        assert_eq!(fs.list(), vec!["a.dat".to_string()]);
    }

    #[test]
    fn duplicate_put_rejected_but_overwrite_allowed() {
        let fs = hdfs();
        fs.put("a", lines(1)).unwrap();
        assert!(matches!(
            fs.put("a", lines(1)),
            Err(DfsError::AlreadyExists(_))
        ));
        let f = fs.put_overwrite("a", lines(5));
        assert_eq!(f.num_lines(), 5);
    }

    #[test]
    fn missing_file_errors() {
        let fs = hdfs();
        assert!(matches!(fs.get("nope"), Err(DfsError::NotFound(_))));
        assert!(matches!(fs.delete("nope"), Err(DfsError::NotFound(_))));
    }

    #[test]
    fn byte_accounting_is_exact() {
        let fs = hdfs();
        let f = fs.put("b", vec!["ab".into(), "cde".into()]).unwrap();
        // "ab\n" + "cde\n" = 7 bytes
        assert_eq!(f.bytes(), 7);
        assert_eq!(f.range_bytes(0..1), 3);
        assert_eq!(f.range_bytes(1..2), 4);
    }

    #[test]
    fn small_file_is_one_block() {
        let fs = hdfs();
        let f = fs.put("c", lines(100)).unwrap();
        assert_eq!(f.blocks().len(), 1);
        assert_eq!(f.blocks()[0].lines, 0..100);
    }

    #[test]
    fn block_size_splits_files() {
        let fs = hdfs();
        fs.set_block_size(16); // tiny blocks: every ~2 lines
        let f = fs.put_overwrite("d", lines(10));
        assert!(f.blocks().len() > 1, "expected multiple blocks");
        // Blocks tile the file exactly.
        let mut covered = 0;
        let mut total_bytes = 0;
        for b in f.blocks() {
            assert_eq!(b.lines.start, covered);
            covered = b.lines.end;
            total_bytes += b.bytes;
        }
        assert_eq!(covered, 10);
        assert_eq!(total_bytes, f.bytes());
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let fs = hdfs();
        fs.set_block_size(16);
        let f = fs.put_overwrite("e", lines(20));
        for b in f.blocks() {
            let mut r = b.replicas.clone();
            r.sort();
            r.dedup();
            assert_eq!(r.len(), b.replicas.len(), "replicas must be distinct");
            assert_eq!(b.replicas.len(), 3);
        }
    }

    #[test]
    fn splits_cover_file_and_respect_min() {
        let fs = hdfs();
        let f = fs.put("f", lines(97)).unwrap();
        let splits = f.splits(8);
        assert!(splits.len() >= 8);
        let mut covered = 0;
        let mut total = 0;
        for s in &splits {
            assert_eq!(s.lines.start, covered);
            covered = s.lines.end;
            total += s.bytes;
        }
        assert_eq!(covered, 97);
        assert_eq!(total, f.bytes());
    }

    #[test]
    fn splits_never_exceed_line_count() {
        let fs = hdfs();
        let f = fs.put("g", lines(3)).unwrap();
        let splits = f.splits(10);
        assert!(splits.len() <= 3);
    }

    #[test]
    fn checkpoint_blocks_replicate_and_round_trip() {
        let fs = hdfs();
        let data: Arc<Vec<u64>> = Arc::new(vec![1, 2, 3]);
        let replicas = fs.checkpoint_put(7, 0, data.clone(), 24, NodeId(2));
        // 3x replication on 4 nodes, wrapping from the primary.
        assert_eq!(replicas, vec![NodeId(2), NodeId(3), NodeId(0)]);
        let block = fs.checkpoint_get(7, 0).expect("stored");
        assert_eq!(block.bytes, 24);
        assert_eq!(block.replicas, replicas);
        let back = block.data.downcast::<Vec<u64>>().expect("typed round-trip");
        assert_eq!(*back, vec![1, 2, 3]);
        assert_eq!(fs.checkpoint_stats(), (1, 24));
        assert!(fs.checkpoint_get(7, 1).is_none());
        assert!(fs.checkpoint_get(8, 0).is_none());
    }

    #[test]
    fn checkpoint_remove_drops_only_one_owner() {
        let fs = hdfs();
        let d: Arc<Vec<u64>> = Arc::new(vec![]);
        fs.checkpoint_put(1, 0, d.clone(), 8, NodeId(0));
        fs.checkpoint_put(1, 1, d.clone(), 8, NodeId(1));
        fs.checkpoint_put(2, 0, d, 8, NodeId(2));
        assert_eq!(fs.checkpoint_remove(1), 2);
        assert_eq!(fs.checkpoint_stats(), (1, 8));
        assert_eq!(fs.checkpoint_remove(1), 0);
    }

    #[test]
    fn checkpoint_survives_node_loss_until_replicas_exhaust() {
        let fs = hdfs();
        let d: Arc<Vec<u64>> = Arc::new(vec![42]);
        fs.checkpoint_put(5, 0, d, 16, NodeId(1));
        fs.checkpoint_drop_node(NodeId(1));
        let block = fs.checkpoint_get(5, 0).expect("replicas remain");
        assert_eq!(block.replicas, vec![NodeId(2), NodeId(3)]);
        fs.checkpoint_drop_node(NodeId(2));
        fs.checkpoint_drop_node(NodeId(3));
        assert!(fs.checkpoint_get(5, 0).is_none(), "all replicas lost");
    }
}
