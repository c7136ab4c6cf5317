//! Inputs derived from the workload seed. The seed reaches the program
//! only through what is generated here: a graph spec seed, search keys,
//! a query sequence and an arrival schedule, each from its own stream.

use bgl_graph::Vertex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One independent input stream of a workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// The generator seed of the graph spec.
    Graph = 1,
    /// Search keys (search workloads).
    Sources = 2,
    /// The Zipf query sequence (serve).
    Queries = 3,
    /// The bursty tick schedule (serve).
    Arrivals = 4,
}

/// The seed of `stream` under workload seed `seed` (SplitMix64 of the
/// pair, so neighbouring seeds give unrelated streams).
pub fn derive(seed: u64, stream: Stream) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Graph500-style search keys: `count` distinct vertices of degree at
/// least one, drawn uniformly without replacement.
pub fn sample_sources(adj: &[Vec<Vertex>], count: usize, seed: u64) -> Vec<Vertex> {
    let eligible = adj.iter().filter(|l| !l.is_empty()).count();
    assert!(
        eligible >= count,
        "{count} search keys requested but only {eligible} vertices have an edge"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut keys: Vec<Vertex> = Vec::with_capacity(count);
    while keys.len() < count {
        let v = rng.gen_range(0..adj.len() as u64);
        if !adj[v as usize].is_empty() && !keys.contains(&v) {
            keys.push(v);
        }
    }
    keys
}

/// Edges of the component a BFS reached: half the degree sum over the
/// labeled vertices (Graph500's traversed-edge count).
pub fn component_edges(adj: &[Vec<Vertex>], levels: &[u32]) -> u64 {
    let ends: usize = adj
        .iter()
        .zip(levels)
        .filter(|(_, &l)| l != bfs_core::UNREACHED)
        .map(|(list, _)| list.len())
        .sum();
    ends as u64 / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_and_seeds_are_independent() {
        assert_ne!(derive(1, Stream::Graph), derive(1, Stream::Sources));
        assert_ne!(derive(1, Stream::Graph), derive(2, Stream::Graph));
        assert_eq!(derive(7, Stream::Queries), derive(7, Stream::Queries));
    }

    #[test]
    fn sources_have_edges_and_are_distinct() {
        let adj: Vec<Vec<Vertex>> = (0..100u64)
            .map(|v| {
                if v % 3 == 0 {
                    vec![(v + 1) % 100]
                } else {
                    vec![]
                }
            })
            .collect();
        let keys = sample_sources(&adj, 20, 5);
        assert_eq!(keys.len(), 20);
        assert!(keys.iter().all(|&v| v % 3 == 0));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert_eq!(keys, sample_sources(&adj, 20, 5));
    }
}
