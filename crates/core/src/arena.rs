//! The cloud-sharded, cache-friendly SoA bid arena behind SSAM's greedy.
//!
//! [`crate::ssam`]'s lazy-deletion heap is *semantically* an argmin: each
//! iteration it returns the unsold, safe bid minimizing the greedy key
//! `(∇/U, seller, id)` with `∇/U = price / min(amount, remaining)`
//! (DESIGN.md §5 — lazy deletion and permanent unsafe-discards are pure
//! optimizations over that functional contract). This module implements
//! the same argmin over a **structure-of-arrays arena** partitioned into
//! *lanes*:
//!
//! * Bids are grouped by `(shard, amount class)`. Sellers map to shards
//!   in contiguous blocks of the (sorted) seller table — the stand-in
//!   for "edge cloud / resource region" locality. Every lane is sorted
//!   once by `(price, seller, id)` under the total order of
//!   `f64::total_cmp`.
//! * Within a lane all bids share one `amount`, so they share the
//!   denominator `min(amount, remaining)` at every state — price order
//!   **is** key order, for any `remaining`. The lane head (first entry
//!   past the cursor) is therefore the lane's minimum, and the global
//!   argmin is the minimum over lane heads with the heap's exact
//!   `(key, seller, id)` tie-break.
//! * Cursors only move forward: a head entry whose seller already sold
//!   is dead forever, and an *unsafe* head is dead forever by the
//!   "once unsafe, always unsafe" monotonicity the heap already relies
//!   on — so a skip is a permanent cursor advance, never a re-scan.
//!
//! One pedantic wrinkle keeps bit-exactness airtight: two *different*
//! prices can divide to the *same* f64 key (rounding). The heap would
//! then tie-break on `(seller, id)` across those prices, while a lane
//! orders them by price. [`BidArena::pop_best`] detects the case (a
//! binary search to the next price run, almost never taken) and scans
//! the colliding runs for the true `(seller, id)` minimum.
//!
//! Sharding never changes results: shards only partition lanes, and the
//! merge compares **all** lane heads under the global tie-break, so any
//! shard count — including 1 — pops the identical sequence. What shards
//! buy is parallel arena *construction* (each shard's lanes sort
//! independently) and cache locality at scale; what lanes buy is O(L)
//! replay *forking* — a payment replay clones the cursor vector instead
//! of rebuilding an O(n) heap (see `ssam.rs`'s batched replays).
//!
//! The arena lives inside a [`crate::book::MarketBook`] across MSOA
//! rounds. A round that re-prices a few sellers does not re-sort it:
//! [`BidArena::patch`] drops those sellers' previous entries and merges
//! in their current ones at binary-searched positions, copying the
//! untouched runs between edit points wholesale — the result equals a
//! cold build of the same candidates, lane layout aside.
//!
//! The arena is an internal engine: `ssam.rs` falls back to the heap
//! when an instance is not lane-friendly (more distinct amounts than
//! [`crate::pricing`]'s lane-class cap, or ids beyond `u32`), and the
//! differential suite pins both engines to the scan oracle bit-for-bit.

use crate::ssam::HeapStats;
use edge_common::id::MicroserviceId;

/// Sellers of one auction, sorted ascending, with their best candidate
/// offers (`0` for a seller with no candidate this round) — the
/// slot-indexed (dense) seller table of a [`crate::book::MarketBook`].
/// Slot order is seller-id order, so comparing slots *is* the greedy's
/// seller tie-break.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SellerTable {
    ids: Vec<MicroserviceId>,
    max: Vec<u64>,
}

impl SellerTable {
    /// A table over `ids` (ascending, unique) with every offer at `0`.
    pub(crate) fn new(ids: Vec<MicroserviceId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let max = vec![0; ids.len()];
        SellerTable { ids, max }
    }

    /// Number of sellers (slots).
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The seller occupying `slot`.
    pub(crate) fn id_of(&self, slot: u32) -> MicroserviceId {
        self.ids[slot as usize]
    }

    /// The best (max-amount) candidate offer of the seller in `slot`.
    pub(crate) fn max_of(&self, slot: u32) -> u64 {
        self.max[slot as usize]
    }

    /// Records the best candidate offer of the seller in `slot`.
    pub(crate) fn set_max(&mut self, slot: u32, max: u64) {
        self.max[slot as usize] = max;
    }
}

/// Maps an `f64`'s bits so unsigned order equals `f64::total_cmp` order.
fn total_order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

/// Inverse of [`total_order_key`].
fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key ^ (1 << 63)
    } else {
        !key
    })
}

/// One candidate bid the argmin returned: enough to reconstruct the bid
/// (`pos` indexes the book's bid list) and to sell it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pick {
    /// Lane the entry lives in.
    pub lane: u32,
    /// Absolute column index of the entry.
    pub col: u32,
    /// The greedy key `price / min(amount, remaining)` — exactly the
    /// `r_k` the heap path computes, same arithmetic, same bits.
    pub key: f64,
    /// Seller slot.
    pub slot: u32,
    /// Bid id (raw index).
    pub bid: u32,
    /// Position of the bid in the book's bid list.
    pub pos: u32,
    /// The lane's amount class (= the bid's amount).
    pub amount: u64,
}

/// One candidate as the book hands it to the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaEntry {
    /// Selection (scaled) price.
    pub price: f64,
    /// Seller slot.
    pub slot: u32,
    /// Bid id (raw index).
    pub bid: u32,
    /// Position of the bid in the book's bid list.
    pub pos: u32,
    /// Units offered.
    pub amount: u64,
}

/// The SoA lane arena. Columns are contiguous across lanes;
/// `lane_start` delimits each lane's range. Lanes are shard-major,
/// class-minor: `lane = shard * classes.len() + class_index`.
#[derive(Debug)]
pub(crate) struct BidArena {
    classes: Vec<u64>,
    shards: usize,
    n_slots: usize,
    lane_start: Vec<u32>,
    price: Vec<f64>,
    slot: Vec<u32>,
    bid: Vec<u32>,
    pos: Vec<u32>,
}

/// Sort entry of a lane: `(total-order price bits, slot, bid, pos)` —
/// unique per entry because a seller cannot reuse a bid id.
type LaneEntry = (u64, u32, u32, u32);

impl BidArena {
    /// Builds the arena over `n` candidates (`entry(i)` for `i < n`),
    /// or `None` when the instance is not lane-friendly: more distinct
    /// amounts than `class_cap` (each class costs a lane per shard, and
    /// the merge is O(lanes) per pop), or positions beyond `u32`.
    pub(crate) fn build(
        n: usize,
        entry: impl Fn(usize) -> ArenaEntry,
        n_slots: usize,
        shards: usize,
        class_cap: usize,
    ) -> Option<BidArena> {
        if n >= u32::MAX as usize || n_slots >= u32::MAX as usize {
            return None;
        }
        let mut classes: Vec<u64> = (0..n).map(|i| entry(i).amount).collect();
        classes.sort_unstable();
        classes.dedup();
        if classes.len() > class_cap {
            return None;
        }
        let n_classes = classes.len();
        let shards = shards.clamp(1, n_slots.max(1));
        let mut arena = BidArena {
            classes,
            shards,
            n_slots,
            lane_start: Vec::new(),
            price: Vec::new(),
            slot: Vec::new(),
            bid: Vec::new(),
            pos: Vec::new(),
        };
        let lanes = shards * n_classes;

        // One counting pass, one scatter into lane ranges.
        let mut counts = vec![0u32; lanes];
        let mut entry_lane = Vec::with_capacity(n);
        for i in 0..n {
            let e = entry(i);
            let lane = arena.lane_of(e.slot, e.amount).expect("amount is a class");
            counts[lane] += 1;
            entry_lane.push(lane as u32);
        }
        let mut lane_start = Vec::with_capacity(lanes + 1);
        let mut acc = 0u32;
        for &c in &counts {
            lane_start.push(acc);
            acc += c;
        }
        lane_start.push(acc);

        let mut entries: Vec<LaneEntry> = vec![(0, 0, 0, 0); n];
        let mut fill = lane_start[..lanes].to_vec();
        for (i, &lane) in entry_lane.iter().enumerate() {
            let e = entry(i);
            let at = fill[lane as usize] as usize;
            fill[lane as usize] += 1;
            entries[at] = (total_order_key(e.price), e.slot, e.bid, e.pos);
        }
        drop(entry_lane);

        sort_shards(&mut entries, &lane_start, shards, n_classes);

        arena.lane_start = lane_start;
        arena.price.reserve_exact(n);
        arena.slot.reserve_exact(n);
        arena.bid.reserve_exact(n);
        arena.pos.reserve_exact(n);
        for &e in &entries {
            arena.push(e);
        }
        Some(arena)
    }

    /// The lane a `(slot, amount)` entry belongs in, or `None` when the
    /// amount is not one of the arena's classes.
    fn lane_of(&self, slot: u32, amount: u64) -> Option<usize> {
        let class = self.classes.binary_search(&amount).ok()?;
        let shard = (slot as usize * self.shards) / self.n_slots;
        Some(shard * self.classes.len() + class)
    }

    /// The shard count the lanes were laid out for.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Number of amount classes.
    pub(crate) fn classes(&self) -> usize {
        self.classes.len()
    }

    fn push(&mut self, (key, slot, bid, pos): LaneEntry) {
        self.price.push(from_total_order_key(key));
        self.slot.push(slot);
        self.bid.push(bid);
        self.pos.push(pos);
    }

    fn entry_at(&self, col: usize) -> LaneEntry {
        (
            total_order_key(self.price[col]),
            self.slot[col],
            self.bid[col],
            self.pos[col],
        )
    }

    /// Replaces `stale` entries (a set of sellers' previous candidates,
    /// exactly as they sit in the arena) by `fresh` ones (their current
    /// candidates) in one merge pass: every edit point is located by
    /// binary search in its lane under the `(price, slot, bid)` total
    /// order a cold build sorts by, and the untouched runs between edit
    /// points are copied wholesale. Returns `false`, leaving the arena
    /// untouched, when a fresh entry's amount is not one of the arena's
    /// classes — only a rebuild can add a lane.
    pub(crate) fn patch(&mut self, stale: &[ArenaEntry], fresh: &[ArenaEntry]) -> bool {
        // An edit: (column, insert-before-drop rank, lane, entry). Sorting
        // by it yields the merge order: inserts land before the entry
        // at their column, in lane then key order.
        let mut edits: Vec<(u32, u8, u32, LaneEntry)> =
            Vec::with_capacity(stale.len() + fresh.len());
        let mut net = vec![0i64; self.lanes()];
        for (entries, rank) in [(fresh, 0u8), (stale, 1u8)] {
            for e in entries {
                let Some(lane) = self.lane_of(e.slot, e.amount) else {
                    return false;
                };
                let key = (total_order_key(e.price), e.slot, e.bid, e.pos);
                let (lo, hi) = (self.lane_start[lane], self.lane_start[lane + 1]);
                let col = self.first_at_or_after(lo, hi, key);
                if rank == 1 {
                    debug_assert_eq!(
                        self.entry_at(col as usize),
                        key,
                        "stale entry is in the arena"
                    );
                    net[lane] -= 1;
                } else {
                    net[lane] += 1;
                }
                edits.push((col, rank, lane as u32, key));
            }
        }
        edits.sort_unstable();

        let len = (self.price.len() as i64 + net.iter().sum::<i64>()) as usize;
        let mut out = BidArena {
            classes: std::mem::take(&mut self.classes),
            shards: self.shards,
            n_slots: self.n_slots,
            lane_start: Vec::with_capacity(self.lane_start.len()),
            price: Vec::with_capacity(len),
            slot: Vec::with_capacity(len),
            bid: Vec::with_capacity(len),
            pos: Vec::with_capacity(len),
        };
        let mut start = 0i64;
        for (lane, d) in net.iter().enumerate() {
            out.lane_start
                .push((i64::from(self.lane_start[lane]) + start) as u32);
            start += d;
        }
        out.lane_start.push(len as u32);
        let mut run = 0usize;
        for &(col, rank, _, key) in &edits {
            let col = col as usize;
            out.extend_from(self, run, col);
            if rank == 0 {
                out.push(key);
                run = col;
            } else {
                run = col + 1;
            }
        }
        out.extend_from(self, run, self.price.len());
        debug_assert_eq!(out.price.len(), len);
        *self = out;
        true
    }

    /// The first column in `lo..hi` (a lane, sorted) whose entry is not
    /// below `key` (`hi` when there is none).
    fn first_at_or_after(&self, lo: u32, hi: u32, key: LaneEntry) -> u32 {
        let (mut a, mut b) = (lo, hi);
        while a < b {
            let mid = a + (b - a) / 2;
            if self.entry_at(mid as usize) < key {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        a
    }

    fn extend_from(&mut self, src: &BidArena, lo: usize, hi: usize) {
        self.price.extend_from_slice(&src.price[lo..hi]);
        self.slot.extend_from_slice(&src.slot[lo..hi]);
        self.bid.extend_from_slice(&src.bid[lo..hi]);
        self.pos.extend_from_slice(&src.pos[lo..hi]);
    }

    /// Number of lanes (shards × amount classes).
    pub(crate) fn lanes(&self) -> usize {
        self.lane_start.len() - 1
    }

    /// Non-empty lanes as `(class, shard, entries)` — the layout-free
    /// content two arenas must agree on (a patched arena may keep a lane
    /// whose class emptied; a cold build has none).
    #[cfg(test)]
    pub(crate) fn contents(&self) -> Vec<(u64, usize, Vec<LaneEntry>)> {
        (0..self.lanes())
            .filter(|&l| self.lane_start[l] < self.lane_start[l + 1])
            .map(|l| {
                let cols = self.lane_start[l] as usize..self.lane_start[l + 1] as usize;
                (
                    self.classes[l % self.classes.len()],
                    l / self.classes.len(),
                    cols.map(|c| self.entry_at(c)).collect(),
                )
            })
            .collect()
    }

    /// The selection price of the entry at column `col`.
    pub(crate) fn price_at(&self, col: u32) -> f64 {
        self.price[col as usize]
    }

    /// A fresh cursor vector: every lane at its own start offset
    /// (cursors are absolute column indices).
    pub(crate) fn initial_cursors(&self) -> Vec<u32> {
        self.lane_start[..self.lanes()].to_vec()
    }

    /// Marks a picked entry consumed when it sits exactly at the lane
    /// head (its seller just sold, so the skip is permanent). A deeper
    /// pick — possible only through the key-collision path — stays and
    /// dies lazily instead.
    pub(crate) fn consume(&self, cursors: &mut [u32], pick: &Pick) {
        if cursors[pick.lane as usize] == pick.col {
            cursors[pick.lane as usize] = pick.col + 1;
        }
    }

    /// The unsold, safe bid minimizing `(key, seller, id)` — the exact
    /// functional contract of the heap's `pop_best_safe`, over lane
    /// cursors. `sold` must answer per-slot liveness (including
    /// excluded-seller and replay-epoch rules); `safe` is the
    /// feasibility filter for `(amount, slot)`. Skipped heads advance
    /// `cursors` permanently; counters land in `stats` (`pops` counts
    /// examined entries, discards as in the heap, `repushes` stays 0 —
    /// lane keys are computed fresh each pop and cannot go stale).
    pub(crate) fn pop_best(
        &self,
        cursors: &mut [u32],
        remaining: u64,
        stats: &mut HeapStats,
        sold: impl Fn(u32) -> bool,
        safe: impl Fn(u64, u32) -> bool,
    ) -> Option<Pick> {
        stats.scans += 1;
        stats.head_reads += cursors.len() as u64;
        let n_classes = self.classes.len();
        let mut best: Option<Pick> = None;
        for (lane, cursor) in cursors.iter_mut().enumerate() {
            let amount = self.classes[lane % n_classes];
            let end = self.lane_start[lane + 1];
            let mut col = *cursor;
            // Permanent skips: sold sellers and unsafe entries.
            while col < end {
                let s = self.slot[col as usize];
                if sold(s) {
                    stats.pops += 1;
                    stats.sold_discards += 1;
                    col += 1;
                    continue;
                }
                if !safe(amount, s) {
                    stats.pops += 1;
                    stats.unsafe_discards += 1;
                    col += 1;
                    continue;
                }
                break;
            }
            *cursor = col;
            if col >= end {
                continue;
            }
            let denom = amount.min(remaining) as f64;
            let key = self.price[col as usize] / denom;
            let mut lane_best = Pick {
                lane: lane as u32,
                col,
                key,
                slot: self.slot[col as usize],
                bid: self.bid[col as usize],
                pos: self.pos[col as usize],
                amount,
            };
            self.resolve_key_collisions(&mut lane_best, end, denom, &sold, |s| safe(amount, s));
            let better = match &best {
                None => true,
                Some(b) => lane_best
                    .key
                    .total_cmp(&b.key)
                    .then_with(|| lane_best.slot.cmp(&b.slot))
                    .then_with(|| lane_best.bid.cmp(&b.bid))
                    .is_lt(),
            };
            if better {
                best = Some(lane_best);
            }
        }
        if best.is_some() {
            stats.pops += 1;
        }
        best
    }

    /// Rare-path exactness: if a *different* price later in the lane
    /// divides to the same f64 key, the heap would tie-break on
    /// `(seller, id)` across the colliding prices — scan those runs for
    /// the true minimum. The first binary search + one division decide
    /// "no collision" (the overwhelmingly common case) in O(log n).
    fn resolve_key_collisions(
        &self,
        lane_best: &mut Pick,
        end: u32,
        denom: f64,
        sold: &impl Fn(u32) -> bool,
        safe: impl Fn(u32) -> bool,
    ) {
        let mut run_start = lane_best.col;
        loop {
            let run_bits = self.price[run_start as usize].to_bits();
            let range = &self.price[run_start as usize..end as usize];
            let next = run_start + range.partition_point(|p| p.to_bits() == run_bits) as u32;
            if next >= end {
                return;
            }
            let key2 = self.price[next as usize] / denom;
            if key2.total_cmp(&lane_best.key).is_ne() {
                return;
            }
            // Colliding run: its first *valid* entry is its (seller, id)
            // minimum among valid entries only if we walk in order.
            let next_bits = self.price[next as usize].to_bits();
            let mut t = next;
            while t < end && self.price[t as usize].to_bits() == next_bits {
                let s = self.slot[t as usize];
                if !sold(s) && safe(s) {
                    if (self.slot[t as usize], self.bid[t as usize])
                        < (lane_best.slot, lane_best.bid)
                    {
                        lane_best.col = t;
                        lane_best.slot = self.slot[t as usize];
                        lane_best.bid = self.bid[t as usize];
                        lane_best.pos = self.pos[t as usize];
                    }
                    break;
                }
                t += 1;
            }
            run_start = next;
        }
    }
}

/// Sorts every lane's range by `(price, seller, id)`; shards sort in
/// parallel when the pool allows (the comparator is total and keys are
/// unique, so thread count cannot change the result).
fn sort_shards(entries: &mut [LaneEntry], lane_start: &[u32], shards: usize, n_classes: usize) {
    let sort_shard = |chunk: &mut [LaneEntry], shard: usize, base: u32| {
        for class in 0..n_classes {
            let lane = shard * n_classes + class;
            let lo = (lane_start[lane] - base) as usize;
            let hi = (lane_start[lane + 1] - base) as usize;
            chunk[lo..hi].sort_unstable();
        }
    };
    if shards <= 1 || crate::pricing::current_pricing_threads() <= 1 {
        for shard in 0..shards {
            let base = 0;
            sort_shard(entries, shard, base);
        }
        return;
    }
    // Split the columns at shard boundaries; each chunk is one shard's
    // contiguous lane block.
    let mut chunks: Vec<(usize, u32, &mut [LaneEntry])> = Vec::with_capacity(shards);
    let mut rest = entries;
    let mut consumed = 0u32;
    for shard in 0..shards {
        let shard_end = lane_start[(shard + 1) * n_classes];
        let take = (shard_end - consumed) as usize;
        let (chunk, tail) = rest.split_at_mut(take);
        chunks.push((shard, consumed, chunk));
        consumed = shard_end;
        rest = tail;
    }
    crossbeam::scope(|scope| {
        for (shard, base, chunk) in chunks {
            scope.spawn(move |_| sort_shard(chunk, shard, base));
        }
    })
    .expect("shard sort scope panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(seller, id, amount, price)` candidates over sellers `0..n`
    /// (slot = seller), list position = index.
    fn entries(bids: &[(u32, u32, u64, f64)]) -> Vec<ArenaEntry> {
        bids.iter()
            .enumerate()
            .map(|(i, &(slot, bid, amount, price))| ArenaEntry {
                price,
                slot,
                bid,
                pos: i as u32,
                amount,
            })
            .collect()
    }

    fn build(es: &[ArenaEntry], n_slots: usize, shards: usize, cap: usize) -> Option<BidArena> {
        BidArena::build(es.len(), |i| es[i], n_slots, shards, cap)
    }

    fn table_of(es: &[ArenaEntry], n_slots: usize) -> SellerTable {
        let mut table = SellerTable::new((0..n_slots).map(MicroserviceId::new).collect());
        for e in es {
            let m = table.max_of(e.slot).max(e.amount);
            table.set_max(e.slot, m);
        }
        table
    }

    #[test]
    fn total_order_key_matches_total_cmp_and_inverts() {
        let values = [-1.5, -0.0, 0.0, 0.5, 1.0, f64::MAX];
        for &a in &values {
            assert_eq!(
                from_total_order_key(total_order_key(a)).to_bits(),
                a.to_bits()
            );
            for &b in &values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn arena_pops_in_key_order() {
        let es = entries(&[
            (0, 0, 2, 6.0), // $3/u
            (1, 0, 2, 4.0), // $2/u  ← first
            (2, 0, 3, 9.0), // $3/u, bigger class
        ]);
        let arena = build(&es, 3, 1, 64).unwrap();
        let mut cursors = arena.initial_cursors();
        let mut stats = HeapStats::default();
        let pick = arena
            .pop_best(&mut cursors, 7, &mut stats, |_| false, |_, _| true)
            .unwrap();
        assert_eq!(pick.slot, 1);
        assert_eq!(pick.pos, 1);
        assert_eq!(pick.key, 2.0);
        assert_eq!(arena.price_at(pick.col), 4.0);
        assert!(stats.pops > 0);
    }

    #[test]
    fn sharding_does_not_change_pop_order() {
        let es: Vec<ArenaEntry> = entries(
            &(0..40)
                .map(|s| (s, 0, 1 + (s as u64 % 3), 1.0 + (s as f64 * 7.0) % 13.0))
                .collect::<Vec<_>>(),
        );
        let table = table_of(&es, 40);
        let pops_at = |shards: usize| {
            let arena = build(&es, 40, shards, 64).unwrap();
            let mut cursors = arena.initial_cursors();
            let mut stats = HeapStats::default();
            let mut sold = vec![false; table.len()];
            let mut order = Vec::new();
            while let Some(p) = arena.pop_best(
                &mut cursors,
                100,
                &mut stats,
                |s| sold[s as usize],
                |_, _| true,
            ) {
                sold[p.slot as usize] = true;
                arena.consume(&mut cursors, &p);
                order.push((p.slot, p.bid));
            }
            order
        };
        assert_eq!(pops_at(1), pops_at(4));
        assert_eq!(pops_at(1).len(), 40);
    }

    #[test]
    fn class_cap_refuses_wide_instances() {
        let es = entries(
            &(0..10)
                .map(|s| (s, 0, 1 + s as u64, 5.0))
                .collect::<Vec<_>>(),
        );
        assert!(build(&es, 10, 1, 4).is_none());
        assert!(build(&es, 10, 1, 64).is_some());
        assert_eq!(build(&[], 0, 1, 64).unwrap().lanes(), 0);
    }

    #[test]
    fn patch_equals_a_cold_build_of_the_result() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for case in 0..200 {
            let n_slots = rng.gen_range(1..30usize);
            let shards = rng.gen_range(1..4usize);
            let draw = |rng: &mut rand_chacha::ChaCha8Rng, slot: u32| {
                // Few distinct prices so ties and key collisions occur.
                (0..rng.gen_range(0..3u32))
                    .map(|j| {
                        (
                            slot,
                            j,
                            rng.gen_range(1..4u64),
                            f64::from(rng.gen_range(1..6u32)),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            let mut by_slot: Vec<Vec<(u32, u32, u64, f64)>> =
                (0..n_slots as u32).map(|s| draw(&mut rng, s)).collect();
            // Positions stay fixed per (slot, bid), as in a book whose
            // bid list did not change.
            let flat = |by_slot: &[Vec<(u32, u32, u64, f64)>]| {
                by_slot
                    .iter()
                    .flatten()
                    .map(|&(slot, bid, amount, price)| ArenaEntry {
                        price,
                        slot,
                        bid,
                        pos: slot * 8 + bid,
                        amount,
                    })
                    .collect::<Vec<_>>()
            };
            let before = flat(&by_slot);
            let mut arena = build(&before, n_slots, shards, 64).unwrap();
            let mut dirty = vec![false; n_slots];
            for (s, d) in dirty.iter_mut().enumerate() {
                if rng.gen_bool(0.3) {
                    *d = true;
                    by_slot[s] = draw(&mut rng, s as u32);
                }
            }
            let all = flat(&by_slot);
            let of_dirty = |es: &[ArenaEntry]| -> Vec<ArenaEntry> {
                es.iter()
                    .copied()
                    .filter(|e| dirty[e.slot as usize])
                    .collect()
            };
            let (stale, fresh) = (of_dirty(&before), of_dirty(&all));
            let cold = build(&all, n_slots, shards, 64).unwrap();
            if arena.patch(&stale, &fresh) {
                assert_eq!(arena.contents(), cold.contents(), "case {case}");
            } else {
                assert!(
                    fresh
                        .iter()
                        .any(|e| arena.classes.binary_search(&e.amount).is_err()),
                    "case {case}: patch refused without a new class"
                );
            }
        }
    }
}
