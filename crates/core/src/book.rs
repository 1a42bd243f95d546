//! The persistent market book: the state an auction clears against,
//! kept alive across MSOA rounds instead of being rebuilt every round.
//!
//! Every MSOA round (Alg. 2) runs SSAM on ψ-scaled prices. Between two
//! rounds with the same submitted bid list only a handful of sellers
//! change — the winners (ψ, χ), sellers crossing a window edge, crashing
//! or being blacklisted — so rebuilding the whole auction each round is
//! mostly redundant work. A [`MarketBook`] holds everything SSAM reads,
//! in dense, slot-indexed form:
//!
//! * the **fate** of every bid in the list: excluded (with the trace
//!   reason) or admitted at a scaled price;
//! * the **seller table**: each seller's best candidate offer, plus the
//!   Σ-supplies the feasibility checks read, maintained in place;
//! * the **lane arena** ([`crate::arena`]) over the candidates, with the
//!   scaled price in its price column and each entry's position in the
//!   round's bid list, so a winner maps straight back to the submitted
//!   bid it settles against;
//! * a dense seller → index lookup ([`SellerIndex`]) and each seller's
//!   bid positions (CSR), in place of ordered maps.
//!
//! [`RoundBook`] drives a book through MSOA rounds. When a round's bid
//! list equals the previous one, only *dirty* sellers are re-evaluated:
//! a seller is dirty when its context tuple — every input the caller's
//! evaluation closure reads for it (window membership, ψ bits, χ, …) —
//! changed since the last round. The arena is then fixed by one merge
//! pass that drops the dirty sellers' old entries and merges in their
//! current ones at binary-searched positions in their lanes, copying
//! the untouched runs between them wholesale. Any other list, or an
//! [`RoundBook::invalidate`]d book (the cold oracle), is rebuilt from
//! scratch.
//!
//! Patched equals cold by construction:
//!
//! * equal context ⇒ the evaluation would recompute the same bits, so a
//!   clean seller's fates, best offers and arena entries are exactly
//!   what a rebuild would produce;
//! * a dirty seller's entries are recomputed by the same code a rebuild
//!   runs, and the lane merge orders them under the same
//!   `(price, seller, id)` total order a cold build sorts by;
//! * only lane *layout* may differ (a patched arena can keep a lane
//!   whose amount class emptied), and the argmin merges every lane head
//!   under the global tie-break, so pop sequences cannot tell.
//!
//! The differential suite runs every MSOA scenario through the patched
//! path and a cold rebuild every round and asserts byte-identical
//! outcomes and traces.

use crate::arena::{ArenaEntry, BidArena, SellerTable};
use crate::bid::Bid;
use crate::wsp::WspInstance;
use edge_common::id::{BidId, MicroserviceId};
use edge_common::units::Price;
use std::borrow::Cow;

/// Why a bid sits out a round — the `reason` of its `bid.excluded`
/// trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exclusion {
    /// Outside the seller's availability window.
    Window,
    /// The seller is inside a crash window.
    Crashed,
    /// The seller is blacklisted from primary auctions.
    Blacklisted,
    /// Winning would exceed the seller's long-run capacity.
    Capacity,
}

impl Exclusion {
    /// The trace reason string.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Exclusion::Window => "window",
            Exclusion::Crashed => "crashed",
            Exclusion::Blacklisted => "blacklisted",
            Exclusion::Capacity => "capacity",
        }
    }
}

/// A bid's fate in the current round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fate {
    /// Excluded this round.
    Excluded(Exclusion),
    /// Admitted at this (scaled) price.
    Scaled(Price),
}

/// Dense `MicroserviceId → index` lookup over a seller list: a flat
/// vector when ids are compact (the common case), a sorted vector with
/// binary search when they are sparse. A repeated id maps to its last
/// position, as collecting into a map would.
#[derive(Debug)]
pub(crate) enum SellerIndex {
    /// `dense[id] = index`, `u32::MAX` for unknown ids.
    Dense(Vec<u32>),
    /// `(id, index)` sorted by id, one entry per id.
    Sorted(Vec<(MicroserviceId, u32)>),
}

impl SellerIndex {
    /// Indexes `ids` by position.
    pub(crate) fn new(ids: &[MicroserviceId]) -> Self {
        let Some(max) = ids.iter().map(|id| id.index()).max() else {
            return SellerIndex::Dense(Vec::new());
        };
        if max <= 2 * ids.len() + 1024 {
            let mut dense = vec![u32::MAX; max + 1];
            for (i, id) in ids.iter().enumerate() {
                dense[id.index()] = i as u32;
            }
            return SellerIndex::Dense(dense);
        }
        let mut sorted: Vec<(MicroserviceId, u32)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        // Last position first within an id, then keep one per id.
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        sorted.dedup_by_key(|e| e.0);
        SellerIndex::Sorted(sorted)
    }

    /// The index of `id`, if it is in the list.
    pub(crate) fn get(&self, id: MicroserviceId) -> Option<usize> {
        match self {
            SellerIndex::Dense(dense) => dense
                .get(id.index())
                .filter(|&&i| i != u32::MAX)
                .map(|&i| i as usize),
            SellerIndex::Sorted(sorted) => sorted
                .binary_search_by_key(&id, |e| e.0)
                .ok()
                .map(|at| sorted[at].1 as usize),
        }
    }
}

/// A seller's offers under the current fates: how many of its bids are
/// admitted / candidates, and the best amount of each kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Offers {
    admitted: usize,
    admitted_max: u64,
    candidates: usize,
    candidate_max: u64,
}

/// The auction state SSAM clears against (see the module docs).
#[derive(Debug)]
pub(crate) struct MarketBook<'a> {
    /// Reserve unit price: admitted bids asking more per unit are not
    /// candidates.
    reserve: Option<f64>,
    /// Whether the columns below describe `list`.
    built: bool,
    /// The bid list the book describes — borrowed from the instance in
    /// the MSOA loops, so a round's list is compared against it by
    /// value (prices as stored bits: equal bits imply equal values, so a
    /// changed list can never be missed) without keeping a copy.
    list: Cow<'a, [Bid]>,
    /// Per bid: the owning seller's dense index, and its fate.
    owner: Vec<u32>,
    fate: Vec<Fate>,
    /// Per seller (dense index): its bid positions in list order, as
    /// `bids_at[bids_start[s]..bids_start[s + 1]]`.
    bids_start: Vec<u32>,
    bids_at: Vec<u32>,
    /// Per seller: its table slot (`u32::MAX` when it has no bid in the
    /// list).
    slot_of: Vec<u32>,
    /// Sellers with bids in the list, in id order, with their best
    /// candidate offers.
    table: SellerTable,
    /// Admitted bids and Σ best admitted amount — what a `WspInstance`
    /// over the admitted bids would hold and check.
    admitted: usize,
    admitted_supply: u64,
    /// Candidates (admitted and within the reserve) and Σ best
    /// candidate amount.
    candidates: usize,
    candidate_supply: u64,
    /// The lane arena over the candidates; `None` until built (after a
    /// rebuild, a refused patch, or a round that fell back to the heap).
    arena: Option<BidArena>,
}

impl<'a> MarketBook<'a> {
    /// An empty book for auctions with the given reserve.
    fn new(reserve: Option<f64>) -> Self {
        MarketBook {
            reserve,
            built: false,
            list: Cow::Borrowed(&[]),
            owner: Vec::new(),
            fate: Vec::new(),
            bids_start: Vec::new(),
            bids_at: Vec::new(),
            slot_of: Vec::new(),
            table: SellerTable::new(Vec::new()),
            admitted: 0,
            admitted_supply: 0,
            candidates: 0,
            candidate_supply: 0,
            arena: None,
        }
    }

    /// A book over a single-round instance, every bid admitted at its
    /// own price, in the instance's bid order.
    pub(crate) fn from_instance(instance: &WspInstance, reserve: Option<f64>) -> Self {
        let (sellers, index) = instance_sellers(instance);
        let mut book = MarketBook::new(reserve);
        book.rebuild(
            Cow::Owned(instance.bids().copied().collect()),
            &index,
            sellers.len(),
            |_, b| Fate::Scaled(b.price),
        );
        book
    }

    /// Whether the book describes exactly `bids`.
    fn matches(&self, bids: &[Bid]) -> bool {
        self.built
            && self.list.len() == bids.len()
            && (std::ptr::eq(self.list.as_ptr(), bids.as_ptr())
                || self.list.iter().zip(bids).all(|(a, b)| {
                    a.seller == b.seller
                        && a.id == b.id
                        && a.amount == b.amount
                        && a.price.value().to_bits() == b.price.value().to_bits()
                }))
    }

    /// Rebuilds every column from `bids`; `fate_of(s, bid)` evaluates a
    /// bid of the seller with dense index `s` (per `index`, over
    /// `num_sellers` sellers). The arena is rebuilt on next use.
    ///
    /// # Panics
    ///
    /// If a bid's seller is not in `index` — callers pass validated
    /// instances.
    fn rebuild(
        &mut self,
        bids: Cow<'a, [Bid]>,
        index: &SellerIndex,
        num_sellers: usize,
        mut fate_of: impl FnMut(usize, &Bid) -> Fate,
    ) {
        self.list = bids;
        self.owner.clear();
        self.fate.clear();
        self.owner.reserve(self.list.len());
        self.fate.reserve(self.list.len());
        for b in self.list.iter() {
            let s = index
                .get(b.seller)
                .expect("every bid's seller is in the seller table");
            self.owner.push(s as u32);
            self.fate.push(fate_of(s, b));
        }
        self.built = true;

        // Per-seller bid positions: one counting pass, one scatter.
        self.bids_start.clear();
        self.bids_start.resize(num_sellers + 1, 0);
        for &s in &self.owner {
            self.bids_start[s as usize + 1] += 1;
        }
        for s in 0..num_sellers {
            self.bids_start[s + 1] += self.bids_start[s];
        }
        let mut fill = self.bids_start[..num_sellers].to_vec();
        self.bids_at.clear();
        self.bids_at.resize(self.owner.len(), 0);
        for (pos, &s) in self.owner.iter().enumerate() {
            self.bids_at[fill[s as usize] as usize] = pos as u32;
            fill[s as usize] += 1;
        }

        // Slots: sellers with bids, in id order.
        let mut present: Vec<u32> = (0..num_sellers as u32)
            .filter(|&s| self.bids_start[s as usize] < self.bids_start[s as usize + 1])
            .collect();
        let id_of =
            |s: u32| self.list[self.bids_at[self.bids_start[s as usize] as usize] as usize].seller;
        if !present.windows(2).all(|w| id_of(w[0]) < id_of(w[1])) {
            present.sort_unstable_by_key(|&s| id_of(s));
        }
        self.slot_of.clear();
        self.slot_of.resize(num_sellers, u32::MAX);
        for (slot, &s) in present.iter().enumerate() {
            self.slot_of[s as usize] = slot as u32;
        }
        self.table = SellerTable::new(present.iter().map(|&s| id_of(s)).collect());

        self.admitted = 0;
        self.admitted_supply = 0;
        self.candidates = 0;
        self.candidate_supply = 0;
        for &s in &present {
            let offers = self.offers(s as usize);
            self.add_offers(s as usize, offers);
        }
        self.arena = None;
    }

    /// Re-evaluates the bids of the sellers in `dirty` (dense indices)
    /// against the same list and patches the table, the supplies and
    /// the arena in place. Returns the number of bids re-evaluated.
    fn patch(&mut self, dirty: &[usize], mut fate_of: impl FnMut(usize, &Bid) -> Fate) -> u64 {
        let mut patched = 0u64;
        let arena = self.arena.take();
        let (mut stale, mut fresh) = (Vec::new(), Vec::new());
        for &s in dirty {
            let bids_of = self.bids_start[s] as usize..self.bids_start[s + 1] as usize;
            if arena.is_some() {
                stale.extend(
                    bids_of
                        .clone()
                        .filter_map(|at| self.entry(self.bids_at[at] as usize)),
                );
            }
            let before = self.offers(s);
            self.remove_offers(before);
            for at in bids_of.clone() {
                let pos = self.bids_at[at] as usize;
                self.fate[pos] = fate_of(s, &self.list[pos]);
                patched += 1;
            }
            let after = self.offers(s);
            self.add_offers(s, after);
            if arena.is_some() {
                fresh.extend(bids_of.filter_map(|at| self.entry(self.bids_at[at] as usize)));
            }
        }
        // A refused patch leaves the arena to be rebuilt on next use.
        if let Some(mut a) = arena {
            let fits = fresh.iter().all(|e| e.bid != u32::MAX);
            if fits && a.patch(&stale, &fresh) {
                self.arena = Some(a);
            }
        }
        patched
    }

    /// The offers of seller `s` under the current fates.
    fn offers(&self, s: usize) -> Offers {
        let mut o = Offers::default();
        for at in self.bids_start[s]..self.bids_start[s + 1] {
            let pos = self.bids_at[at as usize] as usize;
            if let Fate::Scaled(price) = self.fate[pos] {
                let amount = self.list[pos].amount;
                o.admitted += 1;
                o.admitted_max = o.admitted_max.max(amount);
                if self.within_reserve(price, amount) {
                    o.candidates += 1;
                    o.candidate_max = o.candidate_max.max(amount);
                }
            }
        }
        o
    }

    fn add_offers(&mut self, s: usize, o: Offers) {
        self.admitted += o.admitted;
        self.admitted_supply += o.admitted_max;
        self.candidates += o.candidates;
        self.candidate_supply += o.candidate_max;
        let slot = self.slot_of[s];
        if slot != u32::MAX {
            self.table.set_max(slot, o.candidate_max);
        }
    }

    fn remove_offers(&mut self, o: Offers) {
        self.admitted -= o.admitted;
        self.admitted_supply -= o.admitted_max;
        self.candidates -= o.candidates;
        self.candidate_supply -= o.candidate_max;
    }

    /// The candidate filter on an admitted bid: `unit price ≤ reserve`,
    /// with `Bid::unit_price`'s exact arithmetic.
    fn within_reserve(&self, price: Price, amount: u64) -> bool {
        self.reserve
            .is_none_or(|r| price.value() / amount as f64 <= r)
    }

    /// The arena entry of the bid at `pos`, if it is a candidate (an
    /// id beyond `u32` shows as `bid == u32::MAX`, which no arena takes).
    fn entry(&self, pos: usize) -> Option<ArenaEntry> {
        let Fate::Scaled(price) = self.fate[pos] else {
            return None;
        };
        let amount = self.list[pos].amount;
        self.within_reserve(price, amount).then(|| ArenaEntry {
            price: price.value(),
            slot: self.slot_of[self.owner[pos] as usize],
            bid: u32::try_from(self.list[pos].id.index()).unwrap_or(u32::MAX),
            pos: pos as u32,
            amount,
        })
    }

    /// Builds the lane arena unless the current one is usable under
    /// `class_cap` and the shard setting. Returns whether the book now
    /// has an arena; `false` means the instance is not lane-friendly
    /// this round and selection falls back to the heap engine.
    pub(crate) fn ensure_arena(&mut self, class_cap: usize) -> bool {
        let shards = crate::pricing::effective_shards(self.table.len());
        let usable = |a: &BidArena| {
            class_cap != 0
                && a.classes() <= class_cap
                && a.shards() == shards.clamp(1, self.table.len().max(1))
        };
        if self.arena.as_ref().is_some_and(usable) {
            return true;
        }
        self.arena = None;
        if class_cap == 0 {
            return false;
        }
        let _build_span = edge_telemetry::spans::enter("arena.build");
        let candidates: Vec<u32> = (0..self.fate.len())
            .filter_map(|pos| self.entry(pos).map(|_| pos as u32))
            .collect();
        let entry = |i: usize| {
            self.entry(candidates[i] as usize)
                .expect("candidates were filtered above")
        };
        if (0..candidates.len()).any(|i| entry(i).bid == u32::MAX) {
            return false;
        }
        let arena = BidArena::build(candidates.len(), entry, self.table.len(), shards, class_cap);
        self.arena = arena;
        self.arena.is_some()
    }

    /// The lane arena, when [`Self::ensure_arena`] built or kept one.
    pub(crate) fn arena(&self) -> Option<&BidArena> {
        self.arena.as_ref()
    }

    /// The seller table.
    pub(crate) fn table(&self) -> &SellerTable {
        &self.table
    }

    /// The candidates as bids at their scaled prices, with their slots
    /// and list positions, in list order — the heap engine's input.
    pub(crate) fn heap_candidates(&self) -> HeapCandidates {
        let mut c = HeapCandidates::default();
        for pos in 0..self.fate.len() {
            if let Some(e) = self.entry(pos) {
                c.bids.push(Bid {
                    price: Price::new_unchecked(e.price),
                    ..self.list[pos]
                });
                c.slots.push(e.slot);
                c.positions.push(e.pos);
            }
        }
        c
    }

    /// Number of admitted bids.
    pub(crate) fn admitted_count(&self) -> usize {
        self.admitted
    }

    /// Σ best admitted amount per seller.
    pub(crate) fn admitted_supply(&self) -> u64 {
        self.admitted_supply
    }

    /// Number of candidates (admitted and within the reserve).
    pub(crate) fn candidate_count(&self) -> usize {
        self.candidates
    }

    /// Σ best candidate amount per seller.
    pub(crate) fn candidate_supply(&self) -> u64 {
        self.candidate_supply
    }

    /// The dense index of the seller owning the bid at `pos`.
    pub(crate) fn owner(&self, pos: usize) -> usize {
        self.owner[pos] as usize
    }

    /// The fate of the bid at `pos`.
    pub(crate) fn fate(&self, pos: usize) -> Fate {
        self.fate[pos]
    }

    /// Calls `f(seller, bid, unit_price)` for every admitted bid the
    /// reserve excludes, in the order a `WspInstance` over the admitted
    /// bids lists them: sellers by first admitted appearance, each
    /// seller's bids in list order.
    pub(crate) fn for_each_reserve_excluded(&self, mut f: impl FnMut(MicroserviceId, BidId, f64)) {
        let Some(r) = self.reserve else {
            return;
        };
        let mut seen = vec![false; self.slot_of.len()];
        for pos in 0..self.fate.len() {
            let s = self.owner[pos] as usize;
            if seen[s] || !matches!(self.fate[pos], Fate::Scaled(_)) {
                continue;
            }
            seen[s] = true;
            for at in self.bids_start[s]..self.bids_start[s + 1] {
                let q = self.bids_at[at as usize] as usize;
                if let Fate::Scaled(price) = self.fate[q] {
                    let b = &self.list[q];
                    let unit = price.value() / b.amount as f64;
                    if unit > r {
                        f(b.seller, b.id, unit);
                    }
                }
            }
        }
    }
}

/// The candidates of a book materialized for the heap engine.
#[derive(Debug, Default)]
pub(crate) struct HeapCandidates {
    /// Candidate bids at their scaled prices.
    pub bids: Vec<Bid>,
    /// Each candidate's seller slot.
    pub slots: Vec<u32>,
    /// Each candidate's position in the book's bid list.
    pub positions: Vec<u32>,
}

/// The sellers of a single-round instance, one per group in group
/// order, with their index; falls back to first-appearance order over
/// all bids when the groups are not one-seller-each (a deserialized
/// instance skips validation).
fn instance_sellers(instance: &WspInstance) -> (Vec<MicroserviceId>, SellerIndex) {
    let firsts: Vec<MicroserviceId> = instance
        .groups()
        .iter()
        .filter_map(|g| g.first().map(|b| b.seller))
        .collect();
    let index = SellerIndex::new(&firsts);
    let well_formed = instance
        .groups()
        .iter()
        .all(|g| g.iter().all(|b| b.seller == g[0].seller))
        && firsts
            .iter()
            .enumerate()
            .all(|(i, &id)| index.get(id) == Some(i));
    if well_formed {
        return (firsts, index);
    }
    let mut first_seen: Vec<(MicroserviceId, usize)> = instance
        .bids()
        .enumerate()
        .map(|(pos, b)| (b.seller, pos))
        .collect();
    first_seen.sort_unstable();
    first_seen.dedup_by_key(|e| e.0);
    first_seen.sort_unstable_by_key(|e| e.1);
    let sellers: Vec<MicroserviceId> = first_seen.into_iter().map(|e| e.0).collect();
    let index = SellerIndex::new(&sellers);
    (sellers, index)
}

/// Work accounting for one [`RoundBook::round`] call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PatchStats {
    /// Whether the round was a cold rebuild (vs an incremental patch).
    pub rebuilt: bool,
    /// Sellers whose context changed (patched rounds only).
    pub dirty_sellers: u64,
    /// Bids re-evaluated.
    pub patched_slots: u64,
    /// Bids in the round.
    pub total_slots: u64,
}

/// A [`MarketBook`] driven through MSOA rounds, with per-seller dirty
/// tracking over a context tuple `C` (see the module docs).
#[derive(Debug)]
pub(crate) struct RoundBook<'a, C> {
    book: MarketBook<'a>,
    index: SellerIndex,
    /// Last-seen evaluation context per seller (seller-table order);
    /// `None` forces a re-evaluation of that seller's bids.
    ctx: Vec<Option<C>>,
}

impl<'a, C: PartialEq + Copy> RoundBook<'a, C> {
    /// A cold book over the instance's seller table.
    pub(crate) fn new(sellers: &[MicroserviceId], reserve: Option<f64>) -> Self {
        RoundBook {
            book: MarketBook::new(reserve),
            index: SellerIndex::new(sellers),
            ctx: vec![None; sellers.len()],
        }
    }

    /// Forgets the bid list so the next [`Self::round`] rebuilds from
    /// scratch — the cold oracle calls this before every round.
    pub(crate) fn invalidate(&mut self) {
        self.book.built = false;
    }

    /// Brings the book up to date for this round and returns the patch
    /// accounting.
    ///
    /// `seller_ctx[s]` must contain every input `eval(s, bid)` reads
    /// for seller `s` (seller-table order). If `bids` differs from the
    /// list the book was built from (or the book is cold), everything is
    /// rebuilt; otherwise only the bids of sellers whose context changed
    /// are re-evaluated.
    pub(crate) fn round(
        &mut self,
        bids: &'a [Bid],
        seller_ctx: &[C],
        eval: impl Fn(usize, &Bid) -> Fate,
    ) -> PatchStats {
        debug_assert_eq!(self.ctx.len(), seller_ctx.len());
        let total = bids.len() as u64;
        if !self.book.matches(bids) {
            self.book
                .rebuild(Cow::Borrowed(bids), &self.index, seller_ctx.len(), eval);
            for (cached, c) in self.ctx.iter_mut().zip(seller_ctx) {
                *cached = Some(*c);
            }
            return PatchStats {
                rebuilt: true,
                dirty_sellers: 0,
                patched_slots: total,
                total_slots: total,
            };
        }
        let mut dirty = Vec::new();
        for (s, (cached, c)) in self.ctx.iter_mut().zip(seller_ctx).enumerate() {
            if *cached != Some(*c) {
                *cached = Some(*c);
                dirty.push(s);
            }
        }
        self.book.list = Cow::Borrowed(bids);
        let patched = self.book.patch(&dirty, eval);
        PatchStats {
            rebuilt: false,
            dirty_sellers: dirty.len() as u64,
            patched_slots: patched,
            total_slots: total,
        }
    }

    /// The book, for clearing and for reading fates.
    pub(crate) fn book(&mut self) -> &mut MarketBook<'a> {
        &mut self.book
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn bid(seller: usize, id: usize, amount: u64, price: f64) -> Bid {
        Bid::new(MicroserviceId::new(seller), BidId::new(id), amount, price).unwrap()
    }

    fn ids(n: usize) -> Vec<MicroserviceId> {
        (0..n).map(MicroserviceId::new).collect()
    }

    /// Context = a per-seller price bump (0 = excluded); eval counts.
    fn eval_with<'a>(
        ctx: &'a [u64],
        calls: &'a std::cell::Cell<usize>,
    ) -> impl Fn(usize, &Bid) -> Fate + 'a {
        move |s, b| {
            calls.set(calls.get() + 1);
            match ctx[s] {
                0 => Fate::Excluded(Exclusion::Window),
                k => Fate::Scaled(Price::new_unchecked(b.price.value() + k as f64)),
            }
        }
    }

    #[test]
    fn clean_round_reevaluates_nothing() {
        let bids = vec![bid(0, 0, 2, 4.0), bid(1, 0, 3, 9.0), bid(0, 1, 1, 1.5)];
        let calls = std::cell::Cell::new(0);
        let mut book: RoundBook<u64> = RoundBook::new(&ids(2), None);
        let stats = book.round(&bids, &[1, 1], eval_with(&[1, 1], &calls));
        assert!(stats.rebuilt);
        assert_eq!(calls.get(), 3, "cold build evaluates every bid");
        let stats = book.round(&bids, &[1, 1], eval_with(&[1, 1], &calls));
        assert_eq!(calls.get(), 3, "clean round evaluates nothing");
        assert_eq!((stats.rebuilt, stats.dirty_sellers), (false, 0));
        assert_eq!(book.book().admitted_count(), 3);
        assert_eq!(book.book().admitted_supply(), 2 + 3);
    }

    #[test]
    fn dirty_seller_reevaluates_only_its_bids() {
        let bids = vec![bid(0, 0, 2, 4.0), bid(1, 0, 3, 9.0), bid(0, 1, 1, 1.5)];
        let calls = std::cell::Cell::new(0);
        let mut book: RoundBook<u64> = RoundBook::new(&ids(2), None);
        book.round(&bids, &[1, 1], eval_with(&[1, 1], &calls));
        calls.set(0);
        let stats = book.round(&bids, &[0, 1], eval_with(&[0, 1], &calls));
        assert_eq!(calls.get(), 2, "only seller 0's two bids re-evaluated");
        assert_eq!((stats.dirty_sellers, stats.patched_slots), (1, 2));
        assert_eq!(book.book().candidate_supply(), 3);
        assert_eq!(
            book.book().fate(0),
            Fate::Excluded(Exclusion::Window),
            "seller 0 left its window"
        );
    }

    #[test]
    fn changed_bid_list_forces_rebuild() {
        let bids = vec![bid(0, 0, 2, 4.0), bid(1, 0, 3, 9.0)];
        let calls = std::cell::Cell::new(0);
        let mut book: RoundBook<u64> = RoundBook::new(&ids(2), None);
        book.round(&bids, &[1, 1], eval_with(&[1, 1], &calls));
        let other = vec![bid(0, 0, 2, 4.5), bid(1, 0, 3, 9.0)];
        calls.set(0);
        let stats = book.round(&other, &[1, 1], eval_with(&[1, 1], &calls));
        assert_eq!(calls.get(), 2, "different bid list rebuilds everything");
        assert!(stats.rebuilt);
    }

    #[test]
    fn invalidate_forces_cold_round() {
        let bids = vec![bid(0, 0, 2, 4.0)];
        let calls = std::cell::Cell::new(0);
        let mut book: RoundBook<u64> = RoundBook::new(&ids(1), None);
        book.round(&bids, &[1], eval_with(&[1], &calls));
        book.invalidate();
        book.round(&bids, &[1], eval_with(&[1], &calls));
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn sparse_and_repeated_ids_index_like_a_map() {
        let sparse = [MicroserviceId::new(1 << 40), MicroserviceId::new(3)];
        let index = SellerIndex::new(&sparse);
        assert!(matches!(index, SellerIndex::Sorted(_)));
        assert_eq!(index.get(MicroserviceId::new(1 << 40)), Some(0));
        assert_eq!(index.get(MicroserviceId::new(3)), Some(1));
        assert_eq!(index.get(MicroserviceId::new(4)), None);
        let repeated = [
            MicroserviceId::new(2),
            MicroserviceId::new(5),
            MicroserviceId::new(2),
        ];
        assert_eq!(
            SellerIndex::new(&repeated).get(MicroserviceId::new(2)),
            Some(2)
        );
    }

    #[test]
    fn malformed_instance_groups_still_clear() {
        // A deserialized instance skips `WspInstance::new`: a group may
        // mix sellers or be empty. The book indexes sellers by first
        // appearance instead, and clears like the validated instance.
        let json = r#"{"demand": 3, "groups": [
            [{"seller": 0, "id": 0, "amount": 2, "price": 4.0},
             {"seller": 1, "id": 0, "amount": 2, "price": 6.0}],
            [],
            [{"seller": 0, "id": 1, "amount": 1, "price": 1.0}]
        ]}"#;
        let malformed: WspInstance = serde_json::from_str(json).unwrap();
        let valid = WspInstance::new(3, malformed.bids().copied().collect()).unwrap();
        let config = crate::ssam::SsamConfig::default();
        assert_eq!(
            crate::ssam::run_ssam(&malformed, &config),
            crate::ssam::run_ssam(&valid, &config)
        );
    }

    #[test]
    fn slots_follow_seller_id_order() {
        // Seller table out of id order: slots must still be id-ranked,
        // because slot comparison is the greedy's seller tie-break.
        let table = [MicroserviceId::new(9), MicroserviceId::new(4)];
        let bids = vec![bid(9, 0, 2, 4.0), bid(4, 0, 3, 9.0)];
        let mut book: RoundBook<u64> = RoundBook::new(&table, None);
        book.round(&bids, &[1, 1], |_, b| Fate::Scaled(b.price));
        let t = book.book().table();
        assert_eq!((t.id_of(0), t.id_of(1)), (table[1], table[0]));
        assert_eq!((t.max_of(0), t.max_of(1)), (3, 2));
    }

    /// Everything a clearing reads from a book, lane layout aside: each
    /// lane must be sorted, and each amount class must hold the same
    /// entries (however shards split them — another test may move the
    /// process-wide shard setting between two builds).
    #[allow(clippy::type_complexity)]
    fn observable(
        book: &mut MarketBook,
    ) -> (
        Vec<Fate>,
        SellerTable,
        [u64; 4],
        Vec<(u64, (u64, u32, u32, u32))>,
        Vec<(MicroserviceId, BidId, u64)>,
    ) {
        assert!(book.ensure_arena(64));
        let mut lanes = Vec::new();
        for (class, _, entries) in book.arena().unwrap().contents() {
            assert!(entries.windows(2).all(|w| w[0] < w[1]), "lane is sorted");
            lanes.extend(entries.into_iter().map(|e| (class, e)));
        }
        lanes.sort_unstable();
        let mut excluded = Vec::new();
        book.for_each_reserve_excluded(|s, b, u| excluded.push((s, b, u.to_bits())));
        (
            book.fate.clone(),
            book.table.clone(),
            [
                book.admitted as u64,
                book.admitted_supply,
                book.candidates as u64,
                book.candidate_supply,
            ],
            lanes,
            excluded,
        )
    }

    #[test]
    fn patched_book_equals_a_fresh_build_after_random_dirty_sets() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for case in 0..150 {
            let n = rng.gen_range(1..25usize);
            let bids: Vec<Bid> = (0..n)
                .flat_map(|s| {
                    let alternatives = rng.gen_range(1..3usize);
                    (0..alternatives)
                        .map(|j| {
                            bid(
                                s,
                                j,
                                rng.gen_range(1..5u64),
                                f64::from(rng.gen_range(1..20u32)),
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let reserve = rng.gen_bool(0.3).then(|| f64::from(rng.gen_range(2..8u32)));
            // Context: 0 = excluded, else a price bump; rounds re-draw a
            // random subset of sellers.
            let mut ctx: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4u64)).collect();
            let eval = |ctx: &[u64]| {
                let ctx = ctx.to_vec();
                move |s: usize, b: &Bid| match ctx[s] {
                    0 => Fate::Excluded(Exclusion::Capacity),
                    k => Fate::Scaled(Price::new_unchecked(b.price.value() + k as f64 * 0.75)),
                }
            };
            let mut warm: RoundBook<u64> = RoundBook::new(&ids(n), reserve);
            warm.round(&bids, &ctx, eval(&ctx));
            for round in 0..4 {
                for c in ctx.iter_mut() {
                    if rng.gen_bool(0.25) {
                        *c = rng.gen_range(0..4u64);
                    }
                }
                // Half the rounds use the arena before patching, so the
                // lane merge (not just the lazy build) is exercised.
                if round % 2 == 0 {
                    warm.book().ensure_arena(64);
                }
                let stats = warm.round(&bids, &ctx, eval(&ctx));
                assert!(!stats.rebuilt);
                let mut cold: RoundBook<u64> = RoundBook::new(&ids(n), reserve);
                cold.round(&bids, &ctx, eval(&ctx));
                assert_eq!(
                    observable(warm.book()),
                    observable(cold.book()),
                    "case {case} round {round}"
                );
            }
        }
    }
}
