//! Reusable scratch space for the enumeration core.
//!
//! Steady-state enumeration performs **zero heap allocations per node**: all
//! per-node working memory lives in grow-only buffers — [`NodeScratch`] for
//! the intra-node working set of [`Miner::expand_node`](crate::miner::Miner),
//! [`ChildBuf`] for the flat member arena the node's children are written
//! into, and [`WorkerBufs`] bundling everything one engine worker needs.
//! A [`Miner`](crate::Miner) keeps its workers' buffers and the dedup shards
//! in a [`RunBuffers`] pool between runs, so a second run on the same miner
//! starts warm.

use std::collections::VecDeque;
use std::sync::Mutex;

use regcluster_matrix::{CondId, GeneId};

use crate::bitset::BitMask;
use crate::coherence::Window;
use crate::intern::EmittedSet;
use crate::miner::{Member, MemberCtx};

/// Per-node working buffers of `expand_node`, reused across every node of a
/// traversal. Each buffer is cleared (never shrunk) on use, so after the
/// first few nodes of a run no call grows any of them.
#[derive(Debug, Default)]
pub(crate) struct NodeScratch {
    /// Packed candidate-condition bitset (one bit per condition); cleared
    /// per node by zeroing its words.
    pub cand: BitMask,
    /// Per-member qualification context, parallel to the node's member
    /// slice: the rank range `[lo, hi)` a candidate's rank must fall in,
    /// plus the member's expression value at the chain tail. Computed once
    /// per node instead of once per candidate × member.
    pub ctx: Vec<MemberCtx>,
    /// Per-condition bucket sizes (pass 1 of the counting sort), reused
    /// as write cursors in pass 2.
    pub counts: Vec<u32>,
    /// Per-condition bucket offsets into the member/score arenas:
    /// candidate `c`'s qualified entries are `[offsets[c], offsets[c + 1])`.
    pub offsets: Vec<u32>,
    /// Flat member arena holding every candidate's qualified members back
    /// to back, bucketed by candidate condition (struct-of-arrays with
    /// `scores` so the H division pass streams plain `f64`s).
    pub mem: Vec<Member>,
    /// H-scores parallel to `mem`.
    pub scores: Vec<f64>,
    /// Per-candidate `(score, index-in-bucket)` sort keys: sorting these
    /// 16-byte pairs moves half the bytes the old `(f64, Member)` sort
    /// did, and the index gathers the sorted members afterwards.
    pub keys: Vec<(f64, u32)>,
    /// The bare score series handed to the sliding-window scan.
    pub hs: Vec<f64>,
    /// Maximal ε-windows of the candidate.
    pub windows: Vec<Window>,
    /// Sorted p-member gene ids of the cluster being emitted.
    pub p_genes: Vec<GeneId>,
    /// Sorted n-member gene ids of the cluster being emitted.
    pub n_genes: Vec<GeneId>,
    /// Merged sorted union of `p_genes` and `n_genes`.
    pub genes: Vec<GeneId>,
}

impl NodeScratch {
    /// Grows the candidate mask to cover `n_conds` conditions.
    pub fn prepare(&mut self, n_conds: usize) {
        self.cand.prepare(n_conds);
    }
}

/// One child of an enumeration node: the appended condition plus an
/// `(offset, len)` slice into the owning [`ChildBuf`]'s member arena. A
/// plain 16-byte range — producing a child never allocates a `Vec`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChildNode {
    /// The condition appended to the parent chain.
    pub cond: CondId,
    /// Offset of the child's members in [`ChildBuf::members`].
    pub start: u32,
    /// Number of member genes surviving into the child.
    pub len: u32,
}

/// The children of one expanded node: an index of [`ChildNode`] ranges over
/// a flat member arena. Cleared and refilled per node; capacity is retained.
#[derive(Debug, Default)]
pub(crate) struct ChildBuf {
    /// Children in depth-first order.
    pub index: Vec<ChildNode>,
    /// Flat arena holding every child's members back to back.
    pub members: Vec<Member>,
}

impl ChildBuf {
    /// Empties the buffer without releasing capacity.
    pub fn clear(&mut self) {
        self.index.clear();
        self.members.clear();
    }

    /// Appends one child whose members are `members` (copied into the
    /// arena), in order.
    pub fn push(&mut self, cond: CondId, members: impl Iterator<Item = Member>) {
        let start = u32::try_from(self.members.len())
            .expect("child member arena exceeds the u32 offset range");
        self.members.extend(members);
        let len = self.members.len() as u32 - start;
        self.index.push(ChildNode { cond, start, len });
    }

    /// The member slice of child `i` of the index.
    pub fn members_of(&self, child: ChildNode) -> &[Member] {
        &self.members[child.start as usize..(child.start + child.len) as usize]
    }
}

/// A pending enumeration node local to one worker: ranges into the worker's
/// chain and member arenas. See the engine's `worker` for the stack
/// discipline that keeps the back-of-deque node's ranges topmost in both
/// arenas, letting a pop reclaim its space with a plain `truncate`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRef {
    pub chain_start: usize,
    pub chain_len: usize,
    pub member_start: usize,
    pub member_len: usize,
}

/// Everything one engine worker expands nodes with. Every buffer is
/// grow-only, so a worker handed warmed buffers allocates nothing per node.
#[derive(Debug, Default)]
pub(crate) struct WorkerBufs {
    pub scratch: NodeScratch,
    pub children: ChildBuf,
    /// Chain of the node currently being expanded.
    pub chain: Vec<CondId>,
    /// Members of the node currently being expanded (a claimed root's
    /// level-1 members are written straight into it).
    pub members: Vec<Member>,
    /// Pristine pre-expansion copy of `chain`, kept only on checkpointing
    /// runs: `expand_node` mutates `chain` in place, so a panicking
    /// expansion (or a sink-initiated stop, which discards the children)
    /// restores the node for the frontier from this buffer.
    pub chain_backup: Vec<CondId>,
    /// Chain ids of the pending local nodes, addressed by `local`.
    pub chain_arena: Vec<CondId>,
    /// Members of the pending local nodes, addressed by `local`.
    pub member_arena: Vec<Member>,
    /// The worker's LIFO deque of pending local nodes.
    pub local: VecDeque<NodeRef>,
}

impl WorkerBufs {
    /// Readies the buffers for a run over `n_conds` conditions. Pending
    /// nodes a previous run abandoned are dropped; capacity is kept.
    pub fn reset(&mut self, n_conds: usize) {
        self.scratch.prepare(n_conds);
        self.chain_arena.clear();
        self.member_arena.clear();
        self.local.clear();
    }
}

/// The buffers a [`Miner`](crate::Miner) keeps warm between runs: one
/// [`WorkerBufs`] per worker the largest run so far used, and the
/// duplicate-elimination sets sharded by root condition.
#[derive(Debug, Default)]
pub(crate) struct RunBuffers {
    pub workers: Vec<WorkerBufs>,
    pub shards: Vec<Mutex<EmittedSet>>,
}
