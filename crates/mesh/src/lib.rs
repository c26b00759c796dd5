//! # orchestra-mesh
//!
//! Epidemic anti-entropy for the CDSS: peers converge on the published
//! history by **gossiping digests and pulling only what they miss**, with
//! **interest-based partial replication** so nobody stores or ships
//! history no local mapping can ever read.
//!
//! The paper assumes the published transactions live in "a peer-to-peer
//! distributed database" every participant can reach. `orchestra-net`
//! (PR 4) gave one peer's archive a socket; this crate makes *many* such
//! archives behave like one. Each [`MeshNode`] wraps a
//! [`Cdss`](orchestra_core::Cdss) whose update store it also serves over
//! TCP, keeps a membership list of neighbor addresses, and runs
//! **anti-entropy rounds**:
//!
//! 1. pick a few random neighbors (deterministic under a seed),
//! 2. fetch each neighbor's [`StoreDigest`](orchestra_store::StoreDigest)
//!    — per-source sequence high-waters and per-relation transaction
//!    counts, no payloads,
//! 3. decide from the digest whether the neighbor holds anything new,
//! 4. pull missing history page by page (`PullPages`), starting at the
//!    node's floor rather than at the top of the archive and resuming
//!    frozen cursors across node failures exactly like the paged
//!    reconcile loop,
//! 5. merge the pages into the local archive
//!    ([`UpdateStore::absorb`](orchestra_store::UpdateStore::absorb) —
//!    idempotent, out-of-epoch-order safe) and tell the local CDSS the
//!    archive grew behind its back
//!    ([`Cdss::note_absorbed`](orchestra_core::Cdss::note_absorbed)).
//!
//! ## Interest sets
//!
//! A node's interest set is the backward closure of its peers' relations
//! over the mapping program
//! ([`Cdss::interest_set`](orchestra_core::Cdss::interest_set)): exactly
//! the owner-qualified relations whose updates could reach some local
//! instance through a chain of mappings. Pulls send this set and the
//! server ships only matching transactions — every other scanned
//! position returns as a compact *skipped id*, which keeps the puller's
//! per-source contiguity bookkeeping exact (see below) without paying
//! for payloads.
//!
//! ## Why the bookkeeping is sound
//!
//! Publishers stamp dense per-source sequences (1, 2, 3, …) aligned with
//! epoch order, so any `(epoch, id)` scan yields each source's positions
//! in increasing sequence order. A node advances its **considered
//! floor** for source `P` from `c` to `c'` only after witnessing every
//! position in `(c, c']` during one neighbor scan — as a shipped
//! payload, a skipped id, or not at all (which freezes the floor). Below
//! the floor, everything is either stored locally or outside the node's
//! interest; the floor is therefore safe to send as the `have` vector on
//! later pulls, and anything overshipped anyway is deduplicated by the
//! local absorb. Per-neighbor *drained digests* (the digest recorded
//! when a scan ran to the end) keep rounds terminating even against
//! neighbors whose extra history the node can never absorb.
//!
//! The same invariant lets a fresh scan skip settled history. It starts
//! at the lowest epoch of position `f` over every source `P` whose
//! high-water in the neighbor's digest is above our considered floor `f`
//! for `P` — at epoch zero when `f` is zero or position `f` is not held
//! locally (outside the interest set, or quarantined), since its epoch is
//! then unknown. Positions of `P` above `f` lie at or after that epoch,
//! and sources whose high-water is not above our floor hold nothing we
//! miss, so nothing we lack lies before the start. History a neighbor
//! absorbs *behind* a scan that already ran to the end is covered too:
//! it is history we lack, hence above a floor, hence at or after the
//! next scan's start. Positions at or below the node-wide floor (the
//! `have` vector) count as witnessed, so a scan that starts mid-archive
//! advances a neighbor's floor from there instead of breaking on the
//! prefix it skipped — sound, because the node-wide floor already
//! vouches for that prefix.

pub mod node;

pub use node::{InterestMode, MeshNode, MeshOptions, MeshStats, RoundReport};

/// Crate-wide result alias (mesh operations surface store errors).
pub type Result<T> = std::result::Result<T, orchestra_store::StoreError>;
