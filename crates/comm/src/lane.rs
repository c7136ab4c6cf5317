//! Lane-masked vertex sets for multi-source (batched) BFS.
//!
//! A *lane* is one of up to 64 concurrently advancing BFS sources. A
//! [`LaneSet`] associates each vertex with the bitmask of lanes it
//! belongs to, so one superstep wave of communication advances every
//! lane at once: where a single-source exchange ships a sorted vertex
//! list, a batched exchange ships the same sorted list plus one mask
//! word per vertex. Sources whose frontiers overlap (the common case on
//! low-diameter scale-free graphs, where every search floods the same
//! high-degree core after a hop or two) share both the vertex payload
//! and the per-edge hash work — this is where batching beats running
//! the sources back to back.
//!
//! On the wire a lane set travels as **two payloads in one exchange
//! round** (its [`Payload`] framing): the vertex list is
//! sorted, so it rides the delta/bitmap frames of the adaptive codec;
//! the mask words are arbitrary `u64`s, which the codec's sortedness
//! scan routes to raw frames — never mis-coded, still exactly charged.

use crate::collectives::alltoall::Payload;
use crate::Vert;

/// Bitmask of lanes (bit `l` set ⇒ the vertex is in lane `l`).
pub type LaneMask = u64;

/// Maximum number of concurrent lanes (one bit each in a [`LaneMask`]).
pub const MAX_LANES: usize = 64;

/// A sorted set of vertices, each carrying the mask of lanes it belongs
/// to. Invariants: `verts` strictly ascending, `masks.len() ==
/// verts.len()`, no zero mask stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneSet {
    verts: Vec<Vert>,
    masks: Vec<LaneMask>,
}

impl LaneSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from arbitrary `(vertex, mask)` pairs: sorts by vertex and
    /// OR-merges duplicate vertices (zero-mask pairs are dropped).
    pub fn from_pairs(mut pairs: Vec<(Vert, LaneMask)>) -> Self {
        pairs.retain(|&(_, m)| m != 0);
        pairs.sort_unstable_by_key(|&(v, _)| v);
        let mut set = LaneSet {
            verts: Vec::with_capacity(pairs.len()),
            masks: Vec::with_capacity(pairs.len()),
        };
        for (v, m) in pairs {
            if set.verts.last() == Some(&v) {
                // bgl-lint: allow(r1, reason = "verts and masks grow in lockstep, so a matched verts.last() implies masks is non-empty")
                *set.masks.last_mut().unwrap() |= m;
            } else {
                set.verts.push(v);
                set.masks.push(m);
            }
        }
        set
    }

    /// Number of vertices in the set.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Total `(vertex, lane)` memberships — the sum of mask popcounts.
    pub fn lane_pairs(&self) -> u64 {
        self.masks.iter().map(|m| m.count_ones() as u64).sum()
    }

    /// The sorted vertex list.
    pub fn verts(&self) -> &[Vert] {
        &self.verts
    }

    /// The mask words, parallel to [`LaneSet::verts`].
    pub fn masks(&self) -> &[LaneMask] {
        &self.masks
    }

    /// Iterate `(vertex, mask)` pairs in ascending vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (Vert, LaneMask)> + '_ {
        self.verts.iter().copied().zip(self.masks.iter().copied())
    }

    /// Append a pair; `v` must be greater than the last stored vertex
    /// (callers iterate ascending sources). Zero masks are dropped.
    pub fn push(&mut self, v: Vert, mask: LaneMask) {
        if mask == 0 {
            return;
        }
        debug_assert!(self.verts.last().is_none_or(|&last| last < v));
        self.verts.push(v);
        self.masks.push(mask);
    }

    /// OR `other` into `self` (sorted two-pointer merge). Returns the
    /// number of vertices present in both sets (duplicates a per-lane
    /// exchange would have shipped twice).
    pub fn union_in(&mut self, other: &LaneSet) -> usize {
        if other.is_empty() {
            return 0;
        }
        if self.is_empty() {
            self.verts = other.verts.clone();
            self.masks = other.masks.clone();
            return 0;
        }
        let mut verts = Vec::with_capacity(self.verts.len() + other.verts.len());
        let mut masks = Vec::with_capacity(verts.capacity());
        let (mut i, mut j, mut dups) = (0usize, 0usize, 0usize);
        while i < self.verts.len() && j < other.verts.len() {
            match self.verts[i].cmp(&other.verts[j]) {
                std::cmp::Ordering::Less => {
                    verts.push(self.verts[i]);
                    masks.push(self.masks[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    verts.push(other.verts[j]);
                    masks.push(other.masks[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    verts.push(self.verts[i]);
                    masks.push(self.masks[i] | other.masks[j]);
                    dups += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        verts.extend_from_slice(&self.verts[i..]);
        masks.extend_from_slice(&self.masks[i..]);
        verts.extend_from_slice(&other.verts[j..]);
        masks.extend_from_slice(&other.masks[j..]);
        self.verts = verts;
        self.masks = masks;
        dups
    }

    /// Reassemble from the two wire payloads. Panics if the payloads
    /// disagree in length or the vertex list is not strictly ascending —
    /// either means a framing bug, not a data condition.
    pub fn from_payloads(verts: Vec<Vert>, masks: Vec<Vert>) -> Self {
        assert_eq!(
            verts.len(),
            masks.len(),
            "lane payload framing: vertex and mask payloads differ in length"
        );
        assert!(
            verts.windows(2).all(|w| w[0] < w[1]),
            "lane payload framing: vertex payload is not strictly ascending"
        );
        debug_assert!(masks.iter().all(|&m| m != 0));
        LaneSet { verts, masks }
    }
}

/// Two wire payloads: the sorted vertex list, then the mask words
/// (reinterpreted as [`Vert`] — same 64-bit width).
impl Payload for LaneSet {
    fn is_empty(&self) -> bool {
        LaneSet::is_empty(self)
    }
    fn into_parts(self) -> impl Iterator<Item = Vec<Vert>> {
        [self.verts, self.masks].into_iter()
    }
    fn take(inbox: &mut impl Iterator<Item = (usize, Vec<Vert>)>) -> Option<(usize, Self)> {
        let (from, verts) = inbox.next()?;
        let (from_masks, masks) = inbox.next().unwrap_or((usize::MAX, Vec::new()));
        assert_eq!(
            from, from_masks,
            "lane payload framing: vertex and mask payloads from different senders"
        );
        Some((from, LaneSet::from_payloads(verts, masks)))
    }
}

impl<'a> IntoIterator for &'a LaneSet {
    type Item = (Vert, LaneMask);
    type IntoIter = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, Vert>>,
        std::iter::Copied<std::slice::Iter<'a, LaneMask>>,
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.verts.iter().copied().zip(self.masks.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let s = LaneSet::from_pairs(vec![(5, 0b10), (1, 0b01), (5, 0b01), (3, 0b100), (7, 0)]);
        assert_eq!(s.verts(), &[1, 3, 5]);
        assert_eq!(s.masks(), &[0b01, 0b100, 0b11]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.lane_pairs(), 4);
    }

    #[test]
    fn union_counts_dups_and_ors_masks() {
        let mut a = LaneSet::from_pairs(vec![(1, 1), (4, 2), (9, 4)]);
        let b = LaneSet::from_pairs(vec![(2, 8), (4, 1), (9, 4)]);
        let dups = a.union_in(&b);
        assert_eq!(dups, 2);
        assert_eq!(a.verts(), &[1, 2, 4, 9]);
        assert_eq!(a.masks(), &[1, 8, 3, 4]);
    }

    #[test]
    fn union_into_empty_and_with_empty() {
        let mut a = LaneSet::new();
        let b = LaneSet::from_pairs(vec![(3, 2)]);
        assert_eq!(a.union_in(&b), 0);
        assert_eq!(a.verts(), &[3]);
        assert_eq!(a.union_in(&LaneSet::new()), 0);
        assert_eq!(a.verts(), &[3]);
    }

    #[test]
    fn payload_roundtrip() {
        let s = LaneSet::from_pairs(vec![(10, 3), (20, 0x8000_0000_0000_0001), (30, 7)]);
        let mut parts = s.clone().into_parts().map(|pl| (3, pl));
        assert_eq!(LaneSet::take(&mut parts), Some((3, s)));
        assert!(parts.next().is_none());
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn mismatched_payloads_rejected() {
        let _ = LaneSet::from_payloads(vec![1, 2], vec![1]);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn unsorted_vertex_payload_rejected() {
        let _ = LaneSet::from_payloads(vec![2, 1], vec![1, 1]);
    }
}
