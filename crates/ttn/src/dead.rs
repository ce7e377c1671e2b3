//! The shared concurrent dead-state memo.
//!
//! Dead verdicts — "this `(marking, remaining)` state admits no
//! completion" — are **monotone truths** of a search: once proven by any
//! worker they hold forever, for every worker, from every prefix context
//! (the search only stores verdicts from symmetry-unrestricted nodes; see
//! `Dfs::step`). That monotonicity is what makes a *shared* memo with
//! lock-free reads sound: a stale read can only miss a fact (re-explore a
//! provably path-free subtree — wasted work, never a wrong emission), and
//! a fact read "early" from another worker prunes a subtree that serial
//! search would also have found empty. The emitted path stream is
//! therefore bit-identical whether verdicts are private, shared, or
//! dropped entirely.
//!
//! # Layout
//!
//! The set is split into up to 128 **shards**, selected by the high bits
//! of the 128-bit key ([`crate::Marking::dead_key`]). Each shard holds two
//! open-addressed **epoch tables** (young and old) of 16-byte entries:
//!
//! * **Growth.** A table is allocated on its first insert at one 4 KiB
//!   page (256 entries) and grows ×4 whenever an insert would take it
//!   past half full, up to the size the cap needs (two slots per entry
//!   of the per-shard epoch cap, rounded to a power of two: 16,384 at
//!   the default cap, reached in three steps; a larger cap's last step
//!   goes straight to its size). Each step allocates the next **level**,
//!   migrates the entries into it and publishes it with `Release`, all
//!   under the shard mutex. Retired
//!   levels stay allocated until the set is dropped at the end of the
//!   search, so a probe that read the previous level finishes on
//!   complete, never-freed memory and at worst misses a fact inserted
//!   since — the same soundness argument as a stale read. Tables never
//!   shrink. A short search therefore touches a few pages per shard; the
//!   worst case at the default cap, every level of both tables of all
//!   128 shards, is 128 × 2 × (256 + 1,024 + 4,096 + 16,384) × 16 B =
//!   85 MiB, against the 64 MiB the final levels alone take.
//! * **Probes** are lock-free: one `Acquire` load finds the current level,
//!   then a linear scan over `(hi, lo)` atomic pairs stops at the first
//!   zero `hi` word. Writers publish `lo` first and `hi` last with
//!   `Release`, so an `Acquire` read of a matching `hi` always observes
//!   the paired `lo` — a half-written entry is never visible as a match.
//! * **Inserts** serialize on a per-shard mutex (inserts are orders of
//!   magnitude rarer than probes on the DFS hot path), which also owns
//!   the occupancy counters, growth and epoch rotation. Every level is
//!   kept at most half full, so a probe finds every fact its level holds
//!   and the set's contents do not depend on how far a table has grown.
//! * **Eviction** keeps the PR 4 epoch semantics under
//!   `SearchConfig::dead_set_cap`: when a shard's young table reaches its
//!   per-epoch cap, the old table's current level is zeroed and becomes
//!   the new young — deep searches keep memoizing their current
//!   frontier. Rotation happens under the shard mutex; concurrent probes
//!   racing the zeroing see either the old fact (a true verdict), a
//!   mismatch, or an empty slot — all sound.
//!
//! The low byte of the stored `lo` word carries the **owner id** of the
//! inserting worker (coordinator = 0, pool workers 1..), shrinking the
//! effective key to 120 bits — still far beyond collision concern — and
//! letting a probing worker classify a hit as *shared* (learned from
//! another worker), the `dead_shared_hits` statistic that measures how
//! much pruning knowledge actually amortizes across the pool.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Bits of the stored `lo` word that belong to the key (the low byte is
/// the owner id).
const LO_KEY_MASK: u64 = !0xFF;

/// Slots in a table's first level: one 4 KiB page of 16-byte entries.
const FIRST_LEVEL_SLOTS: usize = 256;

/// Levels per table. Three ×4 steps from one page reach the default
/// cap's 16,384 slots; under a larger cap the last step is bigger.
const LEVELS: usize = 4;

/// The outcome of a lock-free probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The state is not (currently) known dead.
    Miss,
    /// The state is known dead; `shared` when the verdict was inserted by
    /// a different worker than the prober.
    Hit {
        /// Verdict learned from another worker's exploration.
        shared: bool,
    },
}

/// One 16-byte table entry. `hi == 0` means empty; a non-empty entry's
/// `lo` packs 56 key bits with the owner id in the low byte.
struct Entry {
    hi: AtomicU64,
    lo: AtomicU64,
}

/// An epoch table that grows by levels (see the module docs).
#[derive(Default)]
struct Table {
    /// The levels, [`level_slots`] slots each; each is allocated once and
    /// kept until the set is dropped.
    levels: [OnceLock<Box<[Entry]>>; LEVELS],
    /// The number of published levels; the last one is current, `0`
    /// means nothing is allocated yet.
    published: AtomicUsize,
}

impl Table {
    /// The current level, if any (lock-free).
    fn current(&self) -> Option<&[Entry]> {
        match self.published.load(Ordering::Acquire) {
            0 => None,
            n => self.levels[n - 1].get().map(|slots| &slots[..]),
        }
    }
}

/// Mutable shard bookkeeping, serialized by the shard mutex.
struct ShardState {
    /// Index (0/1) of the young table inserts currently land in.
    young: usize,
    /// Live entries per table.
    occupancy: [usize; 2],
}

struct Shard {
    state: Mutex<ShardState>,
    tables: [Table; 2],
}

/// The shared concurrent dead-set (see the module docs).
pub(crate) struct SharedDeadSet {
    shards: Box<[Shard]>,
    /// log2 of the shard count.
    shard_bits: u32,
    /// Per-shard, per-epoch insert cap; `0` disables the memo entirely.
    shard_epoch_cap: usize,
    /// Slots of a table's last level (a power of two, ≥ 2 ×
    /// `shard_epoch_cap` so linear probes stay short).
    table_slots: usize,
}

/// Slots of level `level` of a table whose last level has `table_slots`:
/// one page, ×4 per level, and the full size at the last level.
fn level_slots(level: usize, table_slots: usize) -> usize {
    if level == LEVELS - 1 {
        table_slots
    } else {
        (FIRST_LEVEL_SLOTS << (2 * level)).min(table_slots)
    }
}

/// A zeroed level of `n` slots.
fn new_level(n: usize) -> Box<[Entry]> {
    (0..n).map(|_| Entry { hi: AtomicU64::new(0), lo: AtomicU64::new(0) }).collect()
}

/// Stores `(tag_hi, lo)` at the first free slot from `home` on. The caller
/// holds the shard mutex and guarantees a free slot.
fn place(slots: &[Entry], home: usize, tag_hi: u64, lo: u64) {
    let mask = slots.len() - 1;
    let mut i = home & mask;
    while slots[i].hi.load(Ordering::Relaxed) != 0 {
        i = (i + 1) & mask;
    }
    slots[i].lo.store(lo, Ordering::Relaxed);
    slots[i].hi.store(tag_hi, Ordering::Release);
}

impl SharedDeadSet {
    /// A set capped at `cap` total entries (summed over both epochs of
    /// every shard); `0` disables memoization.
    pub(crate) fn new(cap: usize) -> SharedDeadSet {
        if cap == 0 {
            return SharedDeadSet {
                shards: Box::new([]),
                shard_bits: 0,
                shard_epoch_cap: 0,
                table_slots: 0,
            };
        }
        // Few-thousand-entry shards: big caps spread over up to 128
        // shards (keeping insert-mutex contention negligible), tiny caps
        // collapse to one shard so `dead_set_cap` keeps its meaning.
        let n_shards = (cap / 8192).max(1).next_power_of_two().min(128);
        let shard_epoch_cap = (cap / 2 / n_shards).max(1);
        let table_slots = (shard_epoch_cap * 2).next_power_of_two().max(8);
        let shards = (0..n_shards)
            .map(|_| Shard {
                state: Mutex::new(ShardState { young: 0, occupancy: [0, 0] }),
                tables: Default::default(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SharedDeadSet {
            shards,
            shard_bits: n_shards.trailing_zeros(),
            shard_epoch_cap,
            table_slots,
        }
    }

    /// Whether memoization is enabled (`dead_set_cap > 0`).
    pub(crate) fn enabled(&self) -> bool {
        self.shard_epoch_cap > 0
    }

    /// The number of shards (1 when disabled counts as 0 shards).
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Table slots allocated so far, retired levels included.
    #[cfg(test)]
    pub(crate) fn allocated_slots(&self) -> usize {
        let tables = self.shards.iter().flat_map(|s| s.tables.iter());
        tables.flat_map(|t| t.levels.iter()).filter_map(OnceLock::get).map(|l| l.len()).sum()
    }

    /// Splits a key into (shard, home slot, stored-hi tag, masked-lo tag).
    /// The home slot indexes the last level; smaller levels mask it.
    fn locate(&self, key: u128) -> (&Shard, usize, u64, u64) {
        let hi = (key >> 64) as u64;
        let lo = key as u64;
        // Shard from the high bits, home slot from the low bits of `hi`,
        // key-lo bits from `lo` — three independent bit ranges. (A zero
        // shard count never reaches here: the set is disabled.)
        let shard_ix = if self.shard_bits == 0 { 0 } else { (hi >> (64 - self.shard_bits)) as usize };
        let shard = &self.shards[shard_ix];
        // `hi == 0` is the empty-slot sentinel; remap (cost: one extra
        // 2^-64 collision class, far below the 128-bit baseline). The
        // home slot comes from the stored tag, so a migration can
        // recompute it from the entry alone.
        let tag_hi = if hi == 0 { 1 } else { hi };
        let slot = tag_hi as usize & (self.table_slots - 1);
        (shard, slot, tag_hi, lo & LO_KEY_MASK)
    }

    /// Lock-free membership probe. `me` is the probing worker's owner id
    /// (for shared-hit attribution; it never affects the verdict).
    pub(crate) fn probe(&self, key: u128, me: u8) -> Probe {
        if !self.enabled() {
            return Probe::Miss;
        }
        let (shard, home, tag_hi, tag_lo) = self.locate(key);
        for table in &shard.tables {
            let Some(slots) = table.current() else { continue };
            let mask = slots.len() - 1;
            let mut i = home & mask;
            loop {
                let hi = slots[i].hi.load(Ordering::Acquire);
                if hi == 0 {
                    break;
                }
                if hi == tag_hi {
                    let lo = slots[i].lo.load(Ordering::Acquire);
                    if lo & LO_KEY_MASK == tag_lo {
                        return Probe::Hit { shared: (lo & 0xFF) as u8 != me };
                    }
                }
                i = (i + 1) & mask;
                if i == home & mask {
                    break; // table saturated with other keys
                }
            }
        }
        Probe::Miss
    }

    /// Inserts a dead fact owned by worker `me`, rotating the shard's
    /// epochs when its young table is full. Returns the number of entries
    /// evicted by the rotation (the `dead_evicted` statistic).
    pub(crate) fn insert(&self, key: u128, me: u8) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let (shard, home, tag_hi, tag_lo) = self.locate(key);
        let mut state = shard.state.lock().expect("dead-set shard lock");
        let young = state.young;
        let slots = self.grown_for_insert(&shard.tables[young], state.occupancy[young]);
        let mask = slots.len() - 1;
        let mut i = home & mask;
        loop {
            // Inserts are exclusive (shard mutex), so a relaxed read of
            // `hi` is exact here; only the publish below needs ordering.
            let hi = slots[i].hi.load(Ordering::Relaxed);
            if hi == 0 {
                slots[i].lo.store(tag_lo | u64::from(me), Ordering::Relaxed);
                slots[i].hi.store(tag_hi, Ordering::Release);
                state.occupancy[young] += 1;
                break;
            }
            if hi == tag_hi && slots[i].lo.load(Ordering::Relaxed) & LO_KEY_MASK == tag_lo {
                return 0; // another worker raced the same fact in
            }
            i = (i + 1) & mask;
        }
        if state.occupancy[young] < self.shard_epoch_cap {
            return 0;
        }
        // Young epoch full: zero the old table in place and make it the
        // new young. Concurrent probes racing the zeroing read either the
        // stale fact (still a true verdict), a torn mismatch, or empty —
        // every outcome is sound, because eviction only *forgets*.
        let old = 1 - young;
        let evicted = state.occupancy[old];
        if let Some(slots) = shard.tables[old].current() {
            for entry in slots {
                entry.hi.store(0, Ordering::Relaxed);
                entry.lo.store(0, Ordering::Relaxed);
            }
        }
        state.occupancy[old] = 0;
        state.young = old;
        evicted as u64
    }

    /// The level of `table` (holding `occupancy` entries) the next insert
    /// goes to: allocated on first use, and grown first when one more
    /// entry would take it past half full. The caller holds the shard
    /// mutex, which makes it the only writer of `table`.
    fn grown_for_insert<'t>(&self, table: &'t Table, occupancy: usize) -> &'t [Entry] {
        let published = table.published.load(Ordering::Relaxed);
        let current = published.checked_sub(1).and_then(|l| table.levels[l].get());
        if let Some(slots) = current {
            if occupancy < slots.len() / 2 || slots.len() == self.table_slots {
                return slots;
            }
        }
        let next = table.levels[published]
            .get_or_init(|| new_level(level_slots(published, self.table_slots)));
        // Migrate before publishing: a probe that sees the new level sees
        // every fact of the old one, with its owner byte.
        let mask = next.len() - 1;
        for entry in current.into_iter().flatten() {
            let hi = entry.hi.load(Ordering::Relaxed);
            if hi != 0 {
                place(next, hi as usize & mask, hi, entry.lo.load(Ordering::Relaxed));
            }
        }
        table.published.store(published + 1, Ordering::Release);
        next
    }

    /// Total live entries across every shard and both epochs (the
    /// shard-occupancy telemetry gauge). Takes each shard mutex briefly;
    /// called at level boundaries, never on the probe path.
    pub(crate) fn occupancy(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let st = s.state.lock().expect("dead-set shard lock");
                (st.occupancy[0] + st.occupancy[1]) as u64
            })
            .sum()
    }
}

impl std::fmt::Debug for SharedDeadSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDeadSet")
            .field("shards", &self.shards.len())
            .field("shard_epoch_cap", &self.shard_epoch_cap)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_probe_hits_with_owner_attribution() {
        let set = SharedDeadSet::new(1024);
        assert!(set.enabled());
        // Keys must differ above the owner byte (the low 8 bits of the
        // low word are attribution, not key).
        let (a, b) = (42u128 << 8, 43u128 << 8);
        assert_eq!(set.probe(a, 0), Probe::Miss);
        assert_eq!(set.insert(a, 3), 0);
        // The inserting worker sees a private hit, everyone else a shared
        // one.
        assert_eq!(set.probe(a, 3), Probe::Hit { shared: false });
        assert_eq!(set.probe(a, 0), Probe::Hit { shared: true });
        assert_eq!(set.probe(b, 0), Probe::Miss);
        assert_eq!(set.occupancy(), 1);
    }

    #[test]
    fn duplicate_inserts_are_idempotent() {
        let set = SharedDeadSet::new(1024);
        set.insert(7, 1);
        set.insert(7, 2);
        assert_eq!(set.occupancy(), 1);
        // First owner wins the attribution.
        assert_eq!(set.probe(7, 1), Probe::Hit { shared: false });
    }

    #[test]
    fn zero_cap_disables_the_memo() {
        let set = SharedDeadSet::new(0);
        assert!(!set.enabled());
        assert_eq!(set.insert(1, 0), 0);
        assert_eq!(set.probe(1, 0), Probe::Miss);
        assert_eq!(set.occupancy(), 0);
    }

    #[test]
    fn tiny_caps_collapse_to_one_shard_and_rotate_epochs() {
        let set = SharedDeadSet::new(4);
        assert_eq!(set.shard_count(), 1);
        let mut evicted = 0u64;
        for key in 1..=20u128 {
            evicted += set.insert(key << 64, 0); // distinct hi words
        }
        assert!(evicted > 0, "20 inserts into a cap-4 set must rotate");
        // Capacity is bounded: both epochs together never exceed the cap.
        assert!(set.occupancy() <= 4, "occupancy {}", set.occupancy());
        // The youngest facts survive the most recent rotation.
        assert_eq!(set.probe(20u128 << 64, 0), Probe::Hit { shared: false });
    }

    #[test]
    fn facts_survive_one_rotation_in_the_old_epoch() {
        let set = SharedDeadSet::new(8); // epoch cap 4
        for key in 1..=4u128 {
            set.insert(key << 64, 0);
        }
        // The 4th insert filled the young epoch and rotated it to old;
        // its facts must still probe as present.
        for key in 1..=4u128 {
            assert_eq!(set.probe(key << 64, 0), Probe::Hit { shared: false }, "key {key}");
        }
    }

    /// A key whose `hi` word is a bijective scramble of `k` (spreading
    /// keys over shards and home slots) and whose `lo` word is `k`.
    fn spread_key(k: u64) -> u128 {
        (u128::from(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) << 64) | (u128::from(k) << 8)
    }

    #[test]
    fn facts_and_owners_survive_migration_through_every_level() {
        // One shard (epoch cap 8191, last level 16,384 slots, as at the
        // default cap), filled below the epoch cap so nothing is evicted.
        let set = SharedDeadSet::new(16_383);
        assert_eq!(set.shard_count(), 1);
        let owner = |k: u64| (k % 7) as u8;
        let mut sizes = Vec::new();
        for k in 0..8000u64 {
            set.insert(spread_key(k), owner(k));
            let slots = set.allocated_slots();
            if sizes.last() != Some(&slots) {
                sizes.push(slots);
                // A level was just allocated: every fact so far must be
                // in it, with the owner that inserted it.
                for j in 0..=k {
                    let key = spread_key(j);
                    assert_eq!(set.probe(key, owner(j)), Probe::Hit { shared: false }, "{j}");
                    assert_eq!(set.probe(key, owner(j) + 1), Probe::Hit { shared: true }, "{j}");
                }
            }
        }
        // 256 → 1,024 → 4,096 → 16,384 slots, retired levels kept.
        assert_eq!(sizes, vec![256, 1280, 5376, 21_760]);
        assert_eq!(set.occupancy(), 8000);
        for k in 0..8000u64 {
            assert_eq!(set.probe(spread_key(k), owner(k)), Probe::Hit { shared: false });
        }
        assert_eq!(set.probe(spread_key(8000), 0), Probe::Miss);
    }

    #[test]
    fn default_cap_tables_grow_with_the_entries_stored() {
        let cap = crate::SearchConfig::default().dead_set_cap;
        // Up front, each touched shard would take its last level, 16,384
        // slots; growing from one page bounds the slots by the entries.
        for n in [1u64, 100, 10_000, 200_000] {
            let set = SharedDeadSet::new(cap);
            for k in 0..n {
                set.insert(spread_key(k), 0);
            }
            let touched = (n as usize).min(set.shard_count());
            let slots = set.allocated_slots();
            assert!(
                slots <= FIRST_LEVEL_SLOTS * touched + 12 * n as usize,
                "{n} inserts allocated {slots} slots"
            );
            if n == 1 {
                assert_eq!(slots, FIRST_LEVEL_SLOTS);
            }
        }
    }

    #[test]
    fn concurrent_probes_never_lose_a_fact_to_growth() {
        use std::sync::Barrier;
        const READERS: usize = 3;
        const N: usize = 4000;
        // One shard, epoch cap 4096: N inserts grow the young table
        // through all its levels (256 → 8,192 slots) and never evict, so
        // every fact the writer has announced must hit, whichever level
        // a racing probe reads.
        let set = SharedDeadSet::new(8192);
        let announced = AtomicUsize::new(0);
        let start = Barrier::new(READERS + 1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for k in 0..N {
                    set.insert(spread_key(k as u64), (k % 5) as u8);
                    announced.store(k + 1, Ordering::Release);
                }
            });
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    loop {
                        let n = announced.load(Ordering::Acquire);
                        for k in 0..n as u64 {
                            let hit = set.probe(spread_key(k), (k % 5) as u8);
                            assert_eq!(hit, Probe::Hit { shared: false }, "key {k}");
                        }
                        // The last announced key's hi word with other lo
                        // bits: never inserted, must never hit.
                        let stranger = spread_key(n.saturating_sub(1) as u64) ^ (1 << 63);
                        assert_eq!(set.probe(stranger, 0), Probe::Miss);
                        if n == N {
                            break;
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_probes_and_inserts_never_false_positive() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        const READERS: usize = 3;
        for round in 0u64..8 {
            // A fresh set each round: the writer grows its tables from one
            // page to the last level (256 → 8,192 slots) and then forces
            // rotations, while readers probe keys that are never
            // inserted: a hit would be a soundness bug (false dead
            // verdict), whether it raced a migration or a zeroing.
            let set = SharedDeadSet::new(1 << 14);
            let done = AtomicBool::new(false);
            // Every thread starts together, so no reader can first look at
            // `done` after the writer has already finished.
            let start = Barrier::new(READERS + 1);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    for k in 0u64..15_000 {
                        let key = (u128::from(round * 15_000 + k) << 64) | 0x2_0000;
                        set.insert(key, 1);
                    }
                    done.store(true, Ordering::Release);
                });
                for _ in 0..READERS {
                    scope.spawn(|| {
                        start.wait();
                        let mut probes = 0u64;
                        // At least one probe round, however fast the writer.
                        loop {
                            for k in 0u64..500 {
                                // Same hi-word population, different lo
                                // bits: never inserted, must never hit.
                                let hi = round * 15_000 + k * 30;
                                let key = (u128::from(hi) << 64) | 0x3_0000;
                                assert_eq!(set.probe(key, 0), Probe::Miss);
                                probes += 1;
                            }
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                        }
                        assert!(probes > 0);
                    });
                }
            });
        }
    }
}
