//! Direct (targeted) all-to-all exchange within groups.
//!
//! This is the paper's baseline implementation of both expand and fold:
//! every rank sends each peer exactly the vertices that peer needs, in a
//! single message round. Message lengths follow the §3.1 bounds
//! (`(n/P)·γ(·)·(group−1)` in expectation), but every rank pays one
//! software-overhead α per peer, and no en-route duplicate elimination
//! happens.

use super::Groups;
use crate::error::CommError;
use crate::sim::{Inbox, SimWorld};
use crate::stats::OpClass;
use crate::Vert;

/// A message body as it travels through one exchange round: one or more
/// wire payloads sent back to back to the same destination. A vertex
/// list is one payload; a [`crate::LaneSet`] is two, its sorted vertex
/// list first (riding the codec's delta/bitmap frames) and then its
/// mask words (raw frames). Inboxes are sorted by sender and stable
/// for several payloads from one sender, so the receiver re-pairs the
/// payloads positionally. Faults, retransmits, α–β–hop charges and
/// wire-byte accounting apply to every payload unchanged.
pub trait Payload: Sized {
    /// Whether there is nothing to send ([`alltoallv`] skips empties).
    fn is_empty(&self) -> bool;
    /// The wire payloads, in send order.
    fn into_parts(self) -> impl Iterator<Item = Vec<Vert>>;
    /// Reassemble the next message from a sender-ordered inbox; `None`
    /// once the inbox is drained.
    fn take(inbox: &mut impl Iterator<Item = (usize, Vec<Vert>)>) -> Option<(usize, Self)>;
}

impl Payload for Vec<Vert> {
    fn is_empty(&self) -> bool {
        <[Vert]>::is_empty(self)
    }
    fn into_parts(self) -> impl Iterator<Item = Vec<Vert>> {
        std::iter::once(self)
    }
    fn take(inbox: &mut impl Iterator<Item = (usize, Vec<Vert>)>) -> Option<(usize, Self)> {
        inbox.next()
    }
}

/// Reassemble a received inbox into `(sender, message)` pairs.
pub fn unframe<P: Payload>(inbox: Inbox) -> Vec<(usize, P)> {
    let mut parts = inbox.into_iter();
    std::iter::from_fn(|| P::take(&mut parts)).collect()
}

/// Per-rank send list: `(destination rank, message)`. Destinations must
/// be in the sender's group. Empty messages are skipped (no message).
pub type SendList<P = Vec<Vert>> = Vec<(usize, P)>;

/// Execute a targeted all-to-all within every group simultaneously.
///
/// `sends[rank]` lists that rank's outgoing messages. Returns per-rank
/// inboxes sorted by sender.
pub fn alltoallv<P: Payload>(
    world: &mut SimWorld,
    class: OpClass,
    groups: &Groups,
    sends: Vec<SendList<P>>,
) -> Result<Vec<Vec<(usize, P)>>, CommError> {
    debug_assert_eq!(sends.len(), world.p());
    let mut flat = Vec::new();
    for (from, list) in sends.into_iter().enumerate() {
        for (to, msg) in list {
            debug_assert_eq!(
                groups.locate(from).0,
                groups.locate(to).0,
                "all-to-all destination {to} is outside {from}'s group"
            );
            if msg.is_empty() {
                continue;
            }
            flat.push((from, to, msg));
        }
    }
    exchange(world, class, flat)
}

/// One round of `(from, to, message)` sends with no group structure:
/// the batched path walk's reply round crosses both rows and columns,
/// and recovery traffic goes between arbitrary group peers. Every
/// message is sent, empty or not.
pub fn exchange<P: Payload>(
    world: &mut SimWorld,
    class: OpClass,
    sends: Vec<(usize, usize, P)>,
) -> Result<Vec<Vec<(usize, P)>>, CommError> {
    let flat = sends
        .into_iter()
        .flat_map(|(from, to, msg)| msg.into_parts().map(move |pl| (from, to, pl)))
        .collect();
    Ok(world
        .exchange(class, flat)?
        .into_iter()
        .map(unframe)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ProcessorGrid;
    use crate::wire::{WireMode, WirePolicy};
    use crate::LaneSet;

    #[test]
    fn delivers_within_rows() {
        let grid = ProcessorGrid::new(2, 3);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::rows_of(grid);
        // Rank 0 (row 0) sends to ranks 1 and 2; rank 4 (row 1) to rank 5.
        let mut sends: Vec<SendList> = vec![Vec::new(); 6];
        sends[0] = vec![(1, vec![10]), (2, vec![20, 21])];
        sends[4] = vec![(5, vec![50])];
        let inboxes = alltoallv(&mut w, OpClass::Fold, &groups, sends).unwrap();
        assert_eq!(inboxes[1], vec![(0, vec![10])]);
        assert_eq!(inboxes[2], vec![(0, vec![20, 21])]);
        assert_eq!(inboxes[5], vec![(4, vec![50])]);
        assert_eq!(w.stats.class(OpClass::Fold).received_verts, 4);
    }

    #[test]
    fn empty_payloads_send_nothing() {
        let grid = ProcessorGrid::new(1, 2);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::rows_of(grid);
        let sends: Vec<SendList> = vec![vec![(1, vec![])], Vec::new()];
        let inboxes = alltoallv(&mut w, OpClass::Fold, &groups, sends).unwrap();
        assert!(inboxes[1].is_empty());
        assert_eq!(w.stats.class(OpClass::Fold).messages, 0);
        assert_eq!(w.time(), 0.0);
    }

    fn lanes(pairs: &[(u64, u64)]) -> LaneSet {
        LaneSet::from_pairs(pairs.to_vec())
    }

    #[test]
    fn delivers_lane_sets_within_rows() {
        let grid = ProcessorGrid::new(2, 2);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::rows_of(grid);
        let mut sends: Vec<SendList<LaneSet>> = vec![Vec::new(); 4];
        sends[0] = vec![(1, lanes(&[(10, 0b01), (12, 0b11)]))];
        sends[1] = vec![(0, lanes(&[(3, 0b10)])), (1, lanes(&[(7, 0b100)]))];
        sends[3] = vec![(2, LaneSet::new())]; // empty: no message
        let inboxes = alltoallv(&mut w, OpClass::Fold, &groups, sends).unwrap();
        assert_eq!(inboxes[0], vec![(1, lanes(&[(3, 0b10)]))]);
        assert_eq!(
            inboxes[1],
            vec![
                (0, lanes(&[(10, 0b01), (12, 0b11)])),
                (1, lanes(&[(7, 0b100)]))
            ]
        );
        assert!(inboxes[2].is_empty());
        assert!(inboxes[3].is_empty());
        assert_eq!(
            w.stats.class(OpClass::Fold).messages,
            4,
            "two payloads a set"
        );
    }

    #[test]
    fn lane_sets_survive_every_wire_policy() {
        // The mask payload is unsorted; the codec must fall back to raw
        // frames rather than corrupt it, under every policy.
        for mode in [
            WireMode::Raw,
            WireMode::Auto,
            WireMode::Delta,
            WireMode::Bitmap,
        ] {
            let grid = ProcessorGrid::new(1, 2);
            let mut w = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::with_mode(mode));
            let groups = Groups::rows_of(grid);
            let payload = lanes(&[(2, u64::MAX), (5, 1), (9, 0x8000_0000_0000_0000)]);
            let sends: Vec<SendList<LaneSet>> = vec![vec![(1, payload.clone())], Vec::new()];
            let inboxes = alltoallv(&mut w, OpClass::Expand, &groups, sends).unwrap();
            assert_eq!(inboxes[1], vec![(0, payload.clone())]);
        }
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn cross_group_send_rejected() {
        let grid = ProcessorGrid::new(2, 2);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::rows_of(grid);
        // Rank 0 is in row 0; rank 2 is in row 1.
        let mut sends: Vec<SendList> = vec![Vec::new(); 4];
        sends[0] = vec![(2, vec![1])];
        let _ = alltoallv(&mut w, OpClass::Fold, &groups, sends);
    }
}
