//! Graph500-style end-to-end result validation.
//!
//! The Graph500 benchmark (and Buluç & Madduri's distributed-memory BFS
//! work) requires every run to *prove* its output is a BFS tree, not
//! just compare against a second traversal: at scale, a bug in the
//! traversal can be mirrored by the same bug in the checker. This
//! module validates a level labelling against the raw adjacency
//! structure, independently of any BFS implementation:
//!
//! 1. the source is labeled level 0 and nothing else is;
//! 2. every edge connects levels differing by at most one, and never
//!    connects a reached vertex to an unreached one — so unreached
//!    vertices are *truly disconnected* from the source component;
//! 3. every reached non-source vertex has a neighbor exactly one level
//!    up (its parent), and the tree edge `parent(v) → v` exists in the
//!    graph by construction;
//! 4. following parents from any reached vertex walks exactly
//!    `level(v)` steps to the source — the parent tree is rooted at the
//!    source and cycle-free (a cycle could never decrease the level at
//!    every step).
//!
//! Resilient-path tests run this after recovery, the chaos sweep runs
//! it on every configuration, and the CLI exposes it as `--validate`.

use crate::reference::UNREACHED;
use bgl_graph::{GraphSpec, Vertex};
use std::fmt;

/// A proof obligation the labelling failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationError {
    /// The level array does not hold one label per vertex.
    LevelCount {
        /// Vertices in the graph.
        expected: usize,
        /// Labels in the array.
        found: usize,
    },
    /// The source is not a vertex of the graph (`source ≥ n`).
    SourceOutOfRange {
        /// The claimed source.
        source: Vertex,
        /// Vertices in the graph.
        n: usize,
    },
    /// The source vertex is not labeled level 0.
    SourceLevel {
        /// The level the source actually carries.
        found: u32,
    },
    /// A vertex other than the source is labeled level 0.
    ExtraRoot {
        /// The offending vertex.
        vertex: Vertex,
    },
    /// An edge connects levels more than one apart.
    LevelJump {
        /// One endpoint.
        u: Vertex,
        /// The other endpoint.
        v: Vertex,
        /// `u`'s level.
        lu: u32,
        /// `v`'s level.
        lv: u32,
    },
    /// An edge connects a reached vertex to an unreached one — the
    /// "unreached" vertex is actually connected to the source component.
    UnreachedNeighbor {
        /// The reached endpoint.
        reached: Vertex,
        /// The endpoint wrongly labeled unreached.
        unreached: Vertex,
    },
    /// A reached non-source vertex has no neighbor one level up.
    NoParent {
        /// The orphan vertex.
        vertex: Vertex,
        /// Its level.
        level: u32,
    },
    /// Walking parents from a vertex did not reach the source in
    /// exactly `level` steps (a cycle or a broken chain).
    BrokenParentChain {
        /// The vertex whose chain failed.
        vertex: Vertex,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValidationError::LevelCount { expected, found } => {
                write!(f, "{found} level labels for {expected} vertices")
            }
            ValidationError::SourceOutOfRange { source, n } => {
                write!(f, "source {source} is not a vertex (n = {n})")
            }
            ValidationError::SourceLevel { found } => {
                write!(f, "source is labeled level {found}, expected 0")
            }
            ValidationError::ExtraRoot { vertex } => {
                write!(f, "non-source vertex {vertex} is labeled level 0")
            }
            ValidationError::LevelJump { u, v, lu, lv } => {
                write!(f, "edge ({u}, {v}) jumps levels {lu} -> {lv}")
            }
            ValidationError::UnreachedNeighbor { reached, unreached } => write!(
                f,
                "vertex {unreached} is labeled unreached but neighbors reached vertex {reached}"
            ),
            ValidationError::NoParent { vertex, level } => write!(
                f,
                "vertex {vertex} at level {level} has no neighbor at level {}",
                level - 1
            ),
            ValidationError::BrokenParentChain { vertex } => {
                write!(
                    f,
                    "parent chain from vertex {vertex} does not reach the source"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// What a successful validation measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationReport {
    /// Vertices reached from the source (including the source).
    pub reached: u64,
    /// The deepest level in the labelling (0 for a lone source).
    pub depth: u32,
    /// Tree edges checked (`reached - 1`: one parent per non-source
    /// reached vertex).
    pub tree_edges: u64,
}

/// Validate `levels` as a BFS labelling of `adj` from `source`. See
/// the module docs for the four invariants checked. `adj` must be the
/// full (undirected) adjacency structure; `levels[v] == u32::MAX`
/// means unreached. A level array of the wrong length or a source
/// outside the graph is an error, not a panic.
pub fn validate_levels(
    adj: &[Vec<Vertex>],
    levels: &[u32],
    source: Vertex,
) -> Result<ValidationReport, ValidationError> {
    let n = adj.len();
    if levels.len() != n {
        return Err(ValidationError::LevelCount {
            expected: n,
            found: levels.len(),
        });
    }
    if source >= n as u64 {
        return Err(ValidationError::SourceOutOfRange { source, n });
    }
    let s = source as usize;
    if levels[s] != 0 {
        return Err(ValidationError::SourceLevel { found: levels[s] });
    }

    // Invariants 1–2 plus parent derivation for invariant 3: one pass
    // over the edges. `parent[v]` is the smallest neighbor one level up
    // — any such neighbor proves the tree edge exists in the graph.
    let mut parent: Vec<Option<Vertex>> = vec![None; adj.len()];
    let mut reached = 0u64;
    let mut depth = 0u32;
    for (vi, list) in adj.iter().enumerate() {
        let lv = levels[vi];
        if lv == UNREACHED {
            for &u in list {
                if levels[u as usize] != UNREACHED {
                    return Err(ValidationError::UnreachedNeighbor {
                        reached: u,
                        unreached: vi as Vertex,
                    });
                }
            }
            continue;
        }
        if lv == 0 && vi != s {
            return Err(ValidationError::ExtraRoot {
                vertex: vi as Vertex,
            });
        }
        reached += 1;
        depth = depth.max(lv);
        for &u in list {
            let lu = levels[u as usize];
            if lu == UNREACHED {
                return Err(ValidationError::UnreachedNeighbor {
                    reached: vi as Vertex,
                    unreached: u,
                });
            }
            if lu.abs_diff(lv) > 1 {
                return Err(ValidationError::LevelJump {
                    u: vi as Vertex,
                    v: u,
                    lu: lv,
                    lv: lu,
                });
            }
            if lu + 1 == lv && parent[vi].is_none_or(|p| u < p) {
                parent[vi] = Some(u);
            }
        }
        if lv > 0 && parent[vi].is_none() {
            return Err(ValidationError::NoParent {
                vertex: vi as Vertex,
                level: lv,
            });
        }
    }

    // Invariant 4: every parent chain reaches the source in exactly
    // `level` steps. Each hop goes to a strictly smaller level, so a
    // chain of `level` hops can only terminate at level 0 == source;
    // walking each vertex once is O(reached * depth) worst case but the
    // early exit below (stop at any vertex whose chain was already
    // verified) makes it linear in practice.
    let mut verified = vec![false; adj.len()];
    verified[s] = true;
    for vi in 0..adj.len() {
        if levels[vi] == UNREACHED || verified[vi] {
            continue;
        }
        let mut at = vi;
        let mut steps = levels[vi];
        let mut trail = Vec::new();
        while !verified[at] {
            trail.push(at);
            match parent[at] {
                Some(pv) if steps > 0 => {
                    at = pv as usize;
                    steps -= 1;
                }
                _ => {
                    return Err(ValidationError::BrokenParentChain {
                        vertex: vi as Vertex,
                    })
                }
            }
        }
        // The walk stopped at an already-verified vertex; the steps
        // spent must equal the level drop, or the chain length lied.
        if steps != levels[at] {
            return Err(ValidationError::BrokenParentChain {
                vertex: vi as Vertex,
            });
        }
        for t in trail {
            verified[t] = true;
        }
    }

    Ok(ValidationReport {
        reached,
        depth,
        tree_edges: reached - 1,
    })
}

/// [`validate_levels`] against the adjacency structure regenerated from
/// a [`GraphSpec`] — the form tests and the CLI use, since the
/// generated graph is a pure function of its spec.
pub fn validate_against_spec(
    spec: &GraphSpec,
    levels: &[u32],
    source: Vertex,
) -> Result<ValidationReport, ValidationError> {
    validate_levels(&bgl_graph::dist::adjacency(spec), levels, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn path(n: usize) -> Vec<Vec<Vertex>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i as Vertex - 1);
                }
                if i + 1 < n {
                    v.push(i as Vertex + 1);
                }
                v
            })
            .collect()
    }

    #[test]
    fn accepts_reference_bfs_on_generated_graphs() {
        for seed in [3, 17, 99] {
            let spec = GraphSpec::poisson(400, 3.0, seed);
            let adj = bgl_graph::dist::adjacency(&spec);
            let levels = reference::bfs_levels(&adj, 5);
            let report = validate_levels(&adj, &levels, 5).unwrap();
            assert_eq!(
                report.reached,
                levels.iter().filter(|&&l| l != UNREACHED).count() as u64
            );
            assert_eq!(report.tree_edges, report.reached - 1);
            assert_eq!(
                report.depth,
                levels
                    .iter()
                    .filter(|&&l| l != UNREACHED)
                    .max()
                    .copied()
                    .unwrap()
            );
            assert!(validate_against_spec(&spec, &levels, 5).is_ok());
        }
    }

    #[test]
    fn rejects_wrong_source_level() {
        let adj = path(3);
        assert_eq!(
            validate_levels(&adj, &[1, 1, 2], 0),
            Err(ValidationError::SourceLevel { found: 1 })
        );
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        let adj = path(3);
        assert_eq!(
            validate_levels(&adj, &[0, 1], 0),
            Err(ValidationError::LevelCount {
                expected: 3,
                found: 2
            })
        );
        assert_eq!(
            validate_levels(&adj, &[0, 1, 2], 3),
            Err(ValidationError::SourceOutOfRange { source: 3, n: 3 })
        );
    }

    #[test]
    fn rejects_second_root() {
        let adj = path(3);
        assert_eq!(
            validate_levels(&adj, &[0, 1, 0], 0),
            Err(ValidationError::ExtraRoot { vertex: 2 })
        );
    }

    #[test]
    fn rejects_level_jump() {
        let adj = path(3);
        let err = validate_levels(&adj, &[0, 1, 3], 0).unwrap_err();
        assert!(matches!(err, ValidationError::LevelJump { .. }), "{err}");
    }

    #[test]
    fn rejects_falsely_unreached_vertex() {
        let adj = path(3);
        let err = validate_levels(&adj, &[0, 1, UNREACHED], 0).unwrap_err();
        assert_eq!(
            err,
            ValidationError::UnreachedNeighbor {
                reached: 1,
                unreached: 2
            }
        );
    }

    #[test]
    fn rejects_orphan_level() {
        // Vertices 2 and 3 form their own component but claim level 2:
        // neither has a neighbor one level up, so the parent derivation
        // must fail (this is exactly the forged labelling a buggy
        // recovery could produce).
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        let err = validate_levels(&adj, &[0, 1, 2, 2], 0).unwrap_err();
        assert_eq!(
            err,
            ValidationError::NoParent {
                vertex: 2,
                level: 2
            }
        );
    }

    #[test]
    fn truly_disconnected_components_pass() {
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        let report = validate_levels(&adj, &[0, 1, UNREACHED, UNREACHED], 0).unwrap();
        assert_eq!(report.reached, 2);
        assert_eq!(report.depth, 1);
    }
}
