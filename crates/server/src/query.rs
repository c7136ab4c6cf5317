//! Query and response types for the serving layer.

use bgl_graph::Vertex;
use std::sync::Arc;

/// Server-assigned query identifier (monotone per server).
pub type QueryId = u64;

/// One BFS query against the resident graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Full single-source traversal: every vertex's BFS level.
    FullTraversal {
        /// Search root.
        source: Vertex,
    },
    /// Hop distance from `source` to `target` (`None` if disconnected).
    Distance {
        /// Search root.
        source: Vertex,
        /// Query target.
        target: Vertex,
    },
    /// A shortest `source`→`target` path via `bfs_core::path`
    /// (`None` if disconnected).
    Path {
        /// Search root.
        source: Vertex,
        /// Query target.
        target: Vertex,
    },
}

impl QueryKind {
    /// The search root — the batching key: queries with equal sources
    /// share one lane.
    pub fn source(&self) -> Vertex {
        match *self {
            QueryKind::FullTraversal { source }
            | QueryKind::Distance { source, .. }
            | QueryKind::Path { source, .. } => source,
        }
    }

    /// Short label for stats and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            QueryKind::FullTraversal { .. } => "full",
            QueryKind::Distance { .. } => "distance",
            QueryKind::Path { .. } => "path",
        }
    }
}

/// A submitted query waiting in the admission queue.
#[derive(Debug, Clone)]
pub struct Request {
    /// Server-assigned id.
    pub id: QueryId,
    /// What was asked.
    pub kind: QueryKind,
    /// Tick at which the query was admitted.
    pub submitted_tick: u64,
    /// Latest tick at which a batch may still serve this query; a batch
    /// forming at a later tick answers [`Outcome::Expired`] instead
    /// (`None` = no deadline).
    pub deadline_tick: Option<u64>,
}

/// The answer payload of a completed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Full per-vertex level array (shared with the result cache).
    Levels(Arc<Vec<u32>>),
    /// Hop distance, `None` if the target is unreachable.
    Distance(Option<u32>),
    /// Shortest path, `None` if the target is unreachable.
    Path(Option<Vec<Vertex>>),
    /// The query's deadline passed before a batch could serve it.
    Expired,
}

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Served by lane `lane` of multi-source batch `batch`.
    Batch {
        /// Batch sequence number.
        batch: u32,
        /// Lane index within the batch.
        lane: u8,
    },
    /// Answered from the LRU result cache without touching the engines.
    Cache,
    /// Never executed: expired in the queue.
    Expired,
}

/// One completed query.
#[derive(Debug, Clone)]
pub struct Response {
    /// The id [`crate::BglServer::submit`] returned.
    pub id: QueryId,
    /// The original query.
    pub kind: QueryKind,
    /// The answer.
    pub outcome: Outcome,
    /// Execution route.
    pub served_by: ServedBy,
    /// Tick of admission.
    pub submitted_tick: u64,
    /// Tick of completion (latency in ticks = completed − submitted).
    pub completed_tick: u64,
    /// Simulated seconds of engine/cache work attributed to this query:
    /// the whole batch wave's simulated time for batch-served queries
    /// (every query in the batch waited on the same wave), the modelled
    /// response-copy time for cache hits, zero for expirations.
    pub sim_service_time: f64,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded admission queue is at capacity; retry after the
    /// server drains a batch.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The query names a vertex the resident graph does not have.
    VertexOutOfRange {
        /// The offending source or target.
        vertex: Vertex,
        /// The graph's vertex count.
        n: u64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            AdmissionError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range (graph has {n} vertices)")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}
