//! The lookup cache (§3.2) and the shadow cache used to estimate its miss
//! ratio while running other strategies (§4.2).
//!
//! *"EFind inserts the input ik and the result {iv} of a lookup operation
//! into an LRU-organized cache. … It invokes the lookup method only when
//! there is a miss in the lookup cache."* The cache holds a fixed number of
//! key→value entries (1024 in the paper's experiments).
//!
//! What a cache costs: memory follows what the cache holds, capped by its
//! capacity. Its entry slab grows with the keys inserted and stops at the
//! capacity. An entry is the key — stored once, in the slab — its value and
//! three 4-byte links (recency both ways, and the next key sharing its
//! hash): 48 bytes in a key-only [`ShadowCache`], 72 in a [`LookupCache`],
//! whose result lists are shared handles. The index maps each key's 64-bit
//! [`fx_hash_datum`] to a 4-byte slab position, 16 bytes and a control byte
//! a slot.
//!
//! The storage outlives the cache on its thread. A dropped cache empties
//! its slab and index and leaves them on the thread's list of spares; the
//! next cache of its kind the thread builds takes one instead of growing
//! its own from nothing. So a worker that runs task after task asks the
//! allocator for cache storage about once, not once a task. A thread holds
//! no more spares than it had caches live at once, and they are freed when
//! it ends — for the runner's workers, at the end of each phase. Only
//! storage carries over: every cache starts empty, with its own counts and
//! its own corruption state. An armed lookup cache's map of each key's
//! insertion count, which its poison draws read, carries over the same way,
//! on a list of its own, emptied, so each key's draws start over in every
//! cache.

use std::cell::RefCell;
use std::collections::hash_map::Entry as Slot;
use std::mem;
use std::sync::Arc;
use std::thread::LocalKey;

use efind_cluster::CorruptionPlan;
use efind_common::{crc32, fx_hash_datum, Datum, FxHashMap};

/// One slab entry: a key, its value, its place in the recency list and in
/// the chain of keys with the same hash.
struct Entry<V> {
    key: Datum,
    value: V,
    /// Neighbours towards the most- and the least-recently-used end.
    prev: u32,
    next: u32,
    /// The next entry whose key has the same hash, compared by value.
    chain: u32,
}

const NIL: u32 = u32::MAX;

/// A thread's storage left by dropped caches of one kind, emptied.
pub(crate) type Spares<S> = LocalKey<RefCell<Vec<S>>>;

/// An armed lookup cache's insertion count per key.
type Generations = FxHashMap<Datum, u64>;

thread_local! {
    static LOOKUP_SPARES: RefCell<Vec<LruMap<CacheEntry>>> = const { RefCell::new(Vec::new()) };
    static SHADOW_SPARES: RefCell<Vec<LruMap<()>>> = const { RefCell::new(Vec::new()) };
    static GENERATION_SPARES: RefCell<Vec<Generations>> = const { RefCell::new(Vec::new()) };
}

/// Storage that outlives the cache that grew it, on its thread's spares
/// (a head segment's window of carriers keeps its storage the same way).
pub(crate) trait Storage: Sized {
    /// Storage for a cache of `capacity` that allocates nothing until used.
    fn fresh(capacity: usize) -> Self;

    /// Empties the storage for a cache of `capacity`, keeping its
    /// allocations.
    fn reset(&mut self, capacity: usize);
}

impl<V> Storage for LruMap<V> {
    fn fresh(capacity: usize) -> Self {
        LruMap::new(capacity)
    }

    fn reset(&mut self, capacity: usize) {
        LruMap::reset(self, capacity);
    }
}

impl Storage for Generations {
    fn fresh(_: usize) -> Self {
        Generations::default()
    }

    fn reset(&mut self, _: usize) {
        self.clear();
    }
}

/// Empty storage of `capacity` from a spare in `spares`, or fresh storage
/// when the thread has none.
pub(crate) fn take<S: Storage>(spares: &'static Spares<S>, capacity: usize) -> S {
    match spares.try_with(|s| s.borrow_mut().pop()) {
        Ok(Some(mut storage)) => {
            storage.reset(capacity);
            storage
        }
        _ => S::fresh(capacity),
    }
}

/// Hands `storage` to `spares`, leaving fresh storage that owns none in its
/// place. What it holds drops before the list is borrowed; on a thread
/// that is ending, the storage is freed instead.
pub(crate) fn give_back<S: Storage>(storage: &mut S, spares: &'static Spares<S>) {
    storage.reset(1);
    let storage = mem::replace(storage, S::fresh(1));
    let _ = spares.try_with(|s| s.borrow_mut().push(storage));
}

/// A fixed-capacity LRU map from lookup keys to values.
pub struct LruMap<V> {
    /// Key hash → the first slab entry whose key has that hash.
    index: FxHashMap<u64, u32>,
    /// Every held entry, densely: the slab grows with the keys inserted,
    /// never past `capacity`, and a removal moves the last entry into the
    /// vacated slot.
    slab: Vec<Entry<V>>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl<V> LruMap<V> {
    /// Creates an LRU map holding at most `capacity` entries (at least 1,
    /// at most `u32::MAX`). Allocates nothing until the first insertion.
    pub fn new(capacity: usize) -> Self {
        LruMap {
            index: FxHashMap::default(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.clamp(1, NIL as usize),
        }
    }

    /// Empties the map and sets its capacity; the slab and the index keep
    /// their allocations.
    fn reset(&mut self, capacity: usize) {
        self.index.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
        self.capacity = capacity.clamp(1, NIL as usize);
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The slab position of `key`, whose hash is `hash`.
    fn find(&self, hash: u64, key: &Datum) -> Option<u32> {
        let mut cur = *self.index.get(&hash)?;
        while self.slab[cur as usize].key != *key {
            cur = self.slab[cur as usize].chain;
            if cur == NIL {
                return None;
            }
        }
        Some(cur)
    }

    /// The link that points at entry `idx` in the chain of `hash`: the
    /// index slot or the previous entry's `chain`.
    fn link_to(&mut self, hash: u64, idx: u32) -> &mut u32 {
        let head = self
            .index
            .get_mut(&hash)
            .expect("a held key's hash is indexed");
        if *head == idx {
            return head;
        }
        let mut cur = *head;
        while self.slab[cur as usize].chain != idx {
            cur = self.slab[cur as usize].chain;
        }
        &mut self.slab[cur as usize].chain
    }

    /// Takes entry `idx`, whose key hashes to `hash`, out of that chain.
    fn unchain(&mut self, hash: u64, idx: u32) {
        let next = self.slab[idx as usize].chain;
        match self.index.entry(hash) {
            Slot::Occupied(head) if *head.get() == idx && next == NIL => {
                head.remove();
            }
            _ => *self.link_to(hash, idx) = next,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let Entry { prev, next, .. } = self.slab[idx as usize];
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let entry = &mut self.slab[idx as usize];
        entry.prev = NIL;
        entry.next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Makes entry `idx` the most recently used.
    fn promote(&mut self, idx: u32) {
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// The values of up to `n` entries, least recently used first: those
    /// the next inserts at capacity evict, unless a hit promotes one.
    pub(crate) fn least_recent(&self, n: usize) -> impl Iterator<Item = &V> + '_ {
        let mut at = self.tail;
        std::iter::from_fn(move || {
            let entry = self.slab.get(at as usize)?;
            at = entry.prev;
            Some(&entry.value)
        })
        .take(n)
    }

    /// Whether `key` is held, leaving its recency as it was.
    pub(crate) fn contains(&self, key: &Datum) -> bool {
        self.find(fx_hash_datum(key), key).is_some()
    }

    /// Looks up `key`, promoting it to most-recently-used on hit.
    pub fn get(&mut self, key: &Datum) -> Option<&V> {
        let idx = self.find(fx_hash_datum(key), key)?;
        self.promote(idx);
        Some(&self.slab[idx as usize].value)
    }

    /// Removes `key` from the map, unlinking it from the recency list and
    /// dropping its entry. Returns true if it was present.
    pub fn remove(&mut self, key: &Datum) -> bool {
        let hash = fx_hash_datum(key);
        let Some(idx) = self.find(hash, key) else {
            return false;
        };
        self.unlink(idx);
        self.unchain(hash, idx);
        self.slab.swap_remove(idx as usize);
        // The last entry moved into `idx`: repoint what linked to it.
        let moved = self.slab.len() as u32;
        if idx != moved {
            let Entry { prev, next, .. } = self.slab[idx as usize];
            if prev != NIL {
                self.slab[prev as usize].next = idx;
            } else {
                self.head = idx;
            }
            if next != NIL {
                self.slab[next as usize].prev = idx;
            } else {
                self.tail = idx;
            }
            let moved_hash = fx_hash_datum(&self.slab[idx as usize].key);
            *self.link_to(moved_hash, moved) = idx;
        }
        true
    }

    /// Inserts or refreshes `key`, evicting the least-recently-used entry
    /// at capacity. Returns true exactly when an entry was evicted.
    pub fn insert(&mut self, key: Datum, value: V) -> bool {
        let hash = fx_hash_datum(&key);
        if let Some(idx) = self.find(hash, &key) {
            self.slab[idx as usize].value = value;
            self.promote(idx);
            return false;
        }
        let evict = self.slab.len() == self.capacity;
        let idx = if evict {
            // The LRU entry's slot takes the new key.
            let victim = self.tail;
            self.unlink(victim);
            self.unchain(fx_hash_datum(&self.slab[victim as usize].key), victim);
            let entry = &mut self.slab[victim as usize];
            entry.key = key;
            entry.value = value;
            victim
        } else {
            if self.slab.len() == self.slab.capacity() {
                // Doubling, from four entries, clipped at the capacity.
                let room = self.slab.len().max(4).min(self.capacity - self.slab.len());
                self.slab.reserve_exact(room);
            }
            self.slab.push(Entry {
                key,
                value,
                prev: NIL,
                next: NIL,
                chain: NIL,
            });
            (self.slab.len() - 1) as u32
        };
        let head = self.index.entry(hash).or_insert(NIL);
        self.slab[idx as usize].chain = std::mem::replace(head, idx);
        self.push_front(idx);
        evict
    }

    /// Keys from most- to least-recently used (test/debug helper).
    pub fn keys_mru_order(&self) -> Vec<&Datum> {
        let mut out = Vec::with_capacity(self.slab.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(&self.slab[cur as usize].key);
            cur = self.slab[cur as usize].next;
        }
        out
    }
}

/// One cached result list plus the checksums that guard it. On the plain
/// (unarmed) path both CRCs are zero and verification never fires.
struct CacheEntry {
    values: Arc<[Datum]>,
    /// CRC-32 of the encoded result list, computed at insertion.
    write_crc: u32,
    /// CRC-32 the stored copy reads back with — differs from `write_crc`
    /// exactly when the corruption plan poisoned this insertion.
    read_crc: u32,
}

/// Cache-poisoning state of an armed [`LookupCache`].
struct ArmedCorruption {
    plan: CorruptionPlan,
    /// Draw scope: the owning lookup's `efind.<operator>.<index>.` prefix.
    scope: String,
    /// Per-key insertion ordinal, so re-inserted entries draw fresh; on
    /// storage a dropped armed cache of this thread left, emptied.
    generations: Generations,
    /// Encode buffer for the result list, reused across insertions.
    values_buf: Vec<u8>,
}

/// The lookup cache: an LRU of key → result lists, with hit statistics.
///
/// Result lists are stored as `Arc<[Datum]>` so a probe hit hands back a
/// shared handle — no deep copy of the cached values, regardless of how
/// large the result list is.
///
/// When armed with a [`CorruptionPlan`] that poisons cache entries, every
/// insertion computes a CRC-32 over the encoded result list and every hit
/// verifies it; a mismatch evicts the poisoned entry and reports a miss,
/// so the caller re-fetches from the index — a poisoned entry costs one
/// invalidation and one extra lookup, never a wrong answer.
pub struct LookupCache {
    lru: LruMap<CacheEntry>,
    probes: u64,
    hits: u64,
    invalidations: u64,
    evictions: u64,
    armed: Option<ArmedCorruption>,
}

impl LookupCache {
    /// Paper default: 1024 index key-value entries.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates an empty cache with `capacity` entries, on the storage of a
    /// lookup cache this thread dropped if there is one.
    pub fn new(capacity: usize) -> Self {
        LookupCache {
            lru: take(&LOOKUP_SPARES, capacity),
            probes: 0,
            hits: 0,
            invalidations: 0,
            evictions: 0,
            armed: None,
        }
    }

    /// Arms cache poisoning under `plan`, drawing in `scope` (the owning
    /// lookup's counter prefix). A plan that cannot poison the cache — or
    /// has verification disabled, so poison would go undetected — leaves
    /// the cache on the plain, checksum-free path.
    pub fn with_corruption(mut self, plan: &CorruptionPlan, scope: &str) -> Self {
        if plan.verifies_cache() {
            self.armed = Some(ArmedCorruption {
                plan: plan.clone(),
                scope: scope.to_owned(),
                generations: take(&GENERATION_SPARES, 0),
                values_buf: Vec::new(),
            });
        }
        self
    }

    /// Probes for `key`; returns a shared handle to the cached result
    /// list on a hit (an `Arc` refcount bump, not a value clone). A hit
    /// whose stored checksum fails verification is *not* served: the
    /// poisoned entry is evicted, the invalidation is counted, and the
    /// probe reports a miss so the caller re-fetches from the index.
    pub fn probe(&mut self, key: &Datum) -> Option<Arc<[Datum]>> {
        self.probes += 1;
        let (verified, values) = {
            let entry = self.lru.get(key)?;
            (entry.read_crc == entry.write_crc, entry.values.clone())
        };
        if !verified {
            self.lru.remove(key);
            self.invalidations += 1;
            return None;
        }
        self.hits += 1;
        Some(values)
    }

    /// Whether an entry for `key` is held, poisoned or not. Counts no
    /// probe and leaves every entry's recency as it was.
    pub(crate) fn holds(&self, key: &Datum) -> bool {
        self.lru.contains(key)
    }

    /// A hint that up to `inserts` results are about to be inserted: reads
    /// the value blocks of the entries those inserts would evict, so that
    /// dropping them does not wait on memory one insert at a time. Counts
    /// nothing and changes no entry or recency.
    pub(crate) fn prefetch_evictions(&self, inserts: usize) {
        let evicted = (self.lru.len() + inserts).saturating_sub(self.lru.capacity());
        for entry in self.lru.least_recent(evicted) {
            std::hint::black_box(Arc::strong_count(&entry.values));
        }
    }

    /// Inserts a freshly looked-up result, computing its checksum (and
    /// drawing the poison decision) when armed.
    pub fn insert(&mut self, key: Datum, values: Arc<[Datum]>) {
        let (write_crc, read_crc) = match self.armed.as_mut() {
            None => (0, 0),
            Some(armed) => {
                let generation = armed
                    .generations
                    .entry(key.clone())
                    .and_modify(|g| *g += 1)
                    .or_insert(0);
                let buf = &mut armed.values_buf;
                buf.clear();
                for v in values.iter() {
                    v.encode_into(buf);
                }
                let write_crc = crc32(buf);
                let read_crc = if armed.plan.cache_corrupt(&armed.scope, &key, *generation) {
                    // The stored copy has one byte flipped; an empty
                    // result list is modeled as header corruption.
                    if buf.is_empty() {
                        !write_crc
                    } else {
                        let flip = *generation as usize % buf.len();
                        buf[flip] ^= 0x55;
                        crc32(buf)
                    }
                } else {
                    write_crc
                };
                (write_crc, read_crc)
            }
        };
        if self.lru.insert(
            key,
            CacheEntry {
                values,
                write_crc,
                read_crc,
            },
        ) {
            self.evictions += 1;
        }
    }

    /// Total probes.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Poisoned entries detected on a hit, evicted, and re-fetched.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// LRU evictions at capacity — the cache-pressure signal the
    /// multi-tenant accounting surfaces per tenant.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Observed miss ratio `R` (1.0 before any probe).
    pub fn miss_ratio(&self) -> f64 {
        if self.probes == 0 {
            1.0
        } else {
            1.0 - self.hits as f64 / self.probes as f64
        }
    }
}

impl Drop for LookupCache {
    fn drop(&mut self) {
        give_back(&mut self.lru, &LOOKUP_SPARES);
        if let Some(armed) = &mut self.armed {
            give_back(&mut armed.generations, &GENERATION_SPARES);
        }
    }
}

/// The statistics-only cache of §4.2: *"we use a simple version of the
/// lookup cache that does not cache lookup results"* — it tracks keys only,
/// to estimate what the miss ratio `R` *would be*. It charges no time, and
/// its memory is the keys it holds: 48 bytes an entry plus the index.
pub struct ShadowCache {
    lru: LruMap<()>,
    probes: u64,
    hits: u64,
}

impl ShadowCache {
    /// Creates an empty shadow cache sized like the real one, on the
    /// storage of a shadow cache this thread dropped if there is one.
    pub fn new(capacity: usize) -> Self {
        ShadowCache {
            lru: take(&SHADOW_SPARES, capacity),
            probes: 0,
            hits: 0,
        }
    }

    /// Observes one key request.
    pub fn observe(&mut self, key: &Datum) {
        self.probes += 1;
        if self.lru.get(key).is_some() {
            self.hits += 1;
        } else {
            self.lru.insert(key.clone(), ());
        }
    }

    /// Keys observed.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Would-be hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Estimated miss ratio `R`.
    pub fn miss_ratio(&self) -> f64 {
        if self.probes == 0 {
            1.0
        } else {
            1.0 - self.hits as f64 / self.probes as f64
        }
    }
}

impl Drop for ShadowCache {
    fn drop(&mut self) {
        give_back(&mut self.lru, &SHADOW_SPARES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn k(i: i64) -> Datum {
        Datum::Int(i)
    }

    /// The LRU as it was before the slab grew with its keys: the whole
    /// slab reserved up front, a second clone of every key in a
    /// `Datum`-keyed map, and removed slots parked on a free list. Kept as
    /// the reference every [`LruMap`] call is checked against.
    struct Reference<V> {
        map: FxHashMap<Datum, usize>,
        slab: Vec<RefEntry<V>>,
        free: Vec<usize>,
        head: usize,
        tail: usize,
        capacity: usize,
    }

    struct RefEntry<V> {
        key: Datum,
        value: V,
        prev: usize,
        next: usize,
    }

    const REF_NIL: usize = usize::MAX;

    impl<V> Reference<V> {
        fn new(capacity: usize) -> Self {
            let capacity = capacity.max(1);
            Reference {
                map: FxHashMap::default(),
                slab: Vec::with_capacity(capacity),
                free: Vec::new(),
                head: REF_NIL,
                tail: REF_NIL,
                capacity,
            }
        }

        fn len(&self) -> usize {
            self.map.len()
        }

        fn unlink(&mut self, idx: usize) {
            let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
            if prev != REF_NIL {
                self.slab[prev].next = next;
            } else {
                self.head = next;
            }
            if next != REF_NIL {
                self.slab[next].prev = prev;
            } else {
                self.tail = prev;
            }
        }

        fn push_front(&mut self, idx: usize) {
            self.slab[idx].prev = REF_NIL;
            self.slab[idx].next = self.head;
            if self.head != REF_NIL {
                self.slab[self.head].prev = idx;
            }
            self.head = idx;
            if self.tail == REF_NIL {
                self.tail = idx;
            }
        }

        fn get(&mut self, key: &Datum) -> Option<&V> {
            let idx = *self.map.get(key)?;
            if idx != self.head {
                self.unlink(idx);
                self.push_front(idx);
            }
            Some(&self.slab[idx].value)
        }

        fn remove(&mut self, key: &Datum) -> bool {
            let Some(idx) = self.map.remove(key) else {
                return false;
            };
            self.unlink(idx);
            self.free.push(idx);
            true
        }

        fn insert(&mut self, key: Datum, value: V) -> bool {
            if let Some(&idx) = self.map.get(&key) {
                self.slab[idx].value = value;
                if idx != self.head {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                return false;
            }
            let entry = RefEntry {
                key: key.clone(),
                value,
                prev: REF_NIL,
                next: REF_NIL,
            };
            if let Some(idx) = self.free.pop() {
                self.slab[idx] = entry;
                self.map.insert(key, idx);
                self.push_front(idx);
                return false;
            }
            if self.map.len() == self.capacity {
                let victim = self.tail;
                self.unlink(victim);
                let old = std::mem::replace(&mut self.slab[victim], entry);
                self.map.remove(&old.key);
                self.map.insert(key, victim);
                self.push_front(victim);
                true
            } else {
                let idx = self.slab.len();
                self.slab.push(entry);
                self.map.insert(key, idx);
                self.push_front(idx);
                false
            }
        }

        fn keys_mru_order(&self) -> Vec<&Datum> {
            let mut out = Vec::new();
            let mut cur = self.head;
            while cur != REF_NIL {
                out.push(&self.slab[cur].key);
                cur = self.slab[cur].next;
            }
            out
        }
    }

    /// Two 16-byte `Bytes` keys with one [`fx_hash_datum`]. `Datum`'s
    /// `Hash` feeds `FxHasher` (efind-common's hash.rs) the tag, then two
    /// 8-byte words; after the tag and a first word `w` the state is
    /// s1(w) = (rotl(tag·SEED, 5) ^ w)·SEED, and the second key's second
    /// word makes up for its different first.
    fn colliding_keys() -> [Datum; 2] {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let tag = Datum::Bytes(Vec::new()).encode()[0] as u64;
        let s1 = |w: u64| (tag.wrapping_mul(SEED).rotate_left(5) ^ w).wrapping_mul(SEED);
        let second = s1(0).rotate_left(5) ^ s1(1).rotate_left(5);
        let keys = [
            Datum::Bytes(vec![0; 16]),
            Datum::Bytes([1u64.to_le_bytes(), second.to_le_bytes()].concat()),
        ];
        assert_eq!(
            fx_hash_datum(&keys[0]),
            fx_hash_datum(&keys[1]),
            "not a collision any more"
        );
        assert_ne!(keys[0], keys[1]);
        keys
    }

    /// 80 `Int` keys, 20 `Text` keys, and the two colliding `Bytes` keys
    /// last.
    fn key_pool() -> Vec<Datum> {
        let mut pool: Vec<Datum> = (0..80).map(k).collect();
        pool.extend((0..20).map(|i| Datum::Text(format!("key{i}"))));
        pool.extend(colliding_keys());
        pool
    }

    const POOL: usize = 102;

    /// `(operation, key, value)`: 0 is `get`, 1 `insert`, 2 `remove`. One
    /// key in five is a colliding one.
    fn arb_op() -> impl Strategy<Value = (u8, usize, u32)> {
        (
            0u8..3,
            prop_oneof![4 => 0..POOL, 1 => POOL - 2..POOL],
            any::<u32>(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every call returns what the reference returns — the value, the
        /// eviction flag, the removal answer — and leaves the same length
        /// and recency order. Each sequence starts by holding both
        /// colliding keys, so every case walks a hash chain.
        #[test]
        fn lru_matches_the_reference(
            cap in 1usize..=64,
            ops in proptest::collection::vec(arb_op(), 0..600),
        ) {
            let pool = key_pool();
            let (mut lru, mut reference) = (LruMap::new(cap), Reference::new(cap));
            let prefix = [(1, POOL - 2, 0), (1, POOL - 1, 1), (0, POOL - 2, 0)];
            for (op, key, value) in prefix.into_iter().chain(ops) {
                let key = &pool[key];
                match op {
                    0 => prop_assert_eq!(lru.get(key), reference.get(key)),
                    1 => prop_assert_eq!(
                        lru.insert(key.clone(), value),
                        reference.insert(key.clone(), value)
                    ),
                    _ => prop_assert_eq!(lru.remove(key), reference.remove(key)),
                }
                prop_assert_eq!(lru.len(), reference.len());
                prop_assert_eq!(lru.keys_mru_order(), reference.keys_mru_order());
            }
        }
    }

    #[test]
    fn a_new_cache_holds_no_slab_and_an_entry_costs_what_the_doc_says() {
        assert_eq!(LruMap::<()>::new(1024).slab.capacity(), 0);
        assert_eq!(std::mem::size_of::<Entry<()>>(), 48);
        assert_eq!(std::mem::size_of::<Entry<CacheEntry>>(), 72);
    }

    #[test]
    fn the_slab_stops_at_capacity() {
        let mut c = LruMap::new(1000);
        for i in 0..5000 {
            c.insert(k(i), ());
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.slab.capacity(), 1000);
    }

    #[test]
    fn the_least_recent_are_what_inserts_evict_next() {
        let mut c = LruMap::new(4);
        for i in 0..4 {
            c.insert(k(i), i);
        }
        c.get(&k(0));
        let next: Vec<i64> = c.least_recent(3).copied().collect();
        assert_eq!(next, [1, 2, 3]);
        assert_eq!(c.least_recent(9).count(), 4);
        for (i, evicted) in (10..13).zip(next) {
            c.insert(k(i), i);
            assert!(!c.contains(&k(evicted)));
        }
    }

    #[test]
    fn hints_change_no_count_entry_or_recency() {
        let mut c = LookupCache::new(4);
        for i in 0..6 {
            c.insert(k(i), vec![k(i * 10)].into());
        }
        c.probe(&k(3));
        let order: Vec<Datum> = c.lru.keys_mru_order().into_iter().cloned().collect();
        let counts = (c.probes(), c.hits(), c.evictions());
        assert!(c.holds(&k(2)) && !c.holds(&k(0)));
        c.prefetch_evictions(3);
        c.prefetch_evictions(100);
        let after: Vec<Datum> = c.lru.keys_mru_order().into_iter().cloned().collect();
        assert_eq!(after, order);
        assert_eq!((c.probes(), c.hits(), c.evictions()), counts);
    }

    #[test]
    fn hit_and_miss() {
        let mut c = LookupCache::new(4);
        assert!(c.probe(&k(1)).is_none());
        c.insert(k(1), vec![k(10)].into());
        assert_eq!(c.probe(&k(1)).as_deref(), Some(&[k(10)][..]));
        assert_eq!(c.probes(), 2);
        assert_eq!(c.hits(), 1);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = LruMap::new(3);
        for i in 0..100 {
            c.insert(k(i), i);
            assert!(c.len() <= 3);
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = LruMap::new(3);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        c.insert(k(3), 3);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(&k(1)), Some(&1));
        c.insert(k(4), 4);
        assert!(c.get(&k(2)).is_none(), "2 should have been evicted");
        assert!(c.get(&k(1)).is_some());
        assert!(c.get(&k(3)).is_some());
        assert!(c.get(&k(4)).is_some());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = LruMap::new(2);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        c.insert(k(1), 10); // refresh: 2 is now LRU
        c.insert(k(3), 3);
        assert!(c.get(&k(2)).is_none());
        assert_eq!(c.get(&k(1)), Some(&10));
    }

    #[test]
    fn mru_order_tracks_access() {
        let mut c = LruMap::new(3);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        c.insert(k(3), 3);
        c.get(&k(1));
        let order: Vec<i64> = c
            .keys_mru_order()
            .iter()
            .map(|d| d.as_int().unwrap())
            .collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn capacity_one_works() {
        let mut c = LruMap::new(1);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        assert!(c.get(&k(1)).is_none());
        assert_eq!(c.get(&k(2)), Some(&2));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let c: LruMap<i32> = LruMap::new(0);
        assert_eq!(c.capacity(), 1);
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut c = LruMap::new(2);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        assert!(c.remove(&k(1)));
        assert!(!c.remove(&k(1)), "double remove reports absence");
        assert_eq!(c.len(), 1);
        // The freed slot is reused without evicting the survivor.
        c.insert(k(3), 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&k(2)), Some(&2));
        assert_eq!(c.get(&k(3)), Some(&3));
        // Capacity still enforced after slot reuse.
        c.insert(k(4), 4);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_head_and_tail_keep_list_consistent() {
        let mut c = LruMap::new(3);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        c.insert(k(3), 3);
        assert!(c.remove(&k(3))); // head (MRU)
        assert!(c.remove(&k(1))); // tail (LRU)
        let order: Vec<i64> = c
            .keys_mru_order()
            .iter()
            .map(|d| d.as_int().unwrap())
            .collect();
        assert_eq!(order, vec![2]);
        c.insert(k(4), 4);
        c.insert(k(5), 5);
        c.insert(k(6), 6); // evicts 2, the LRU
        assert!(c.get(&k(2)).is_none());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn evictions_counted_only_at_capacity() {
        let mut c = LookupCache::new(2);
        c.insert(k(1), Vec::new().into());
        c.insert(k(2), Vec::new().into());
        assert_eq!(c.evictions(), 0, "filling to capacity is not eviction");
        for i in 3..6 {
            c.insert(k(i), Vec::new().into());
        }
        assert_eq!(c.evictions(), 3);
        c.insert(k(5), Vec::new().into()); // refresh: no eviction
        assert_eq!(c.evictions(), 3);
    }

    #[test]
    fn unarmed_cache_never_invalidates() {
        let mut c = LookupCache::new(4);
        c.insert(k(1), vec![k(10)].into());
        for _ in 0..50 {
            assert!(c.probe(&k(1)).is_some());
        }
        assert_eq!(c.invalidations(), 0);
    }

    #[test]
    fn poisoned_entry_is_evicted_not_served() {
        use efind_cluster::CorruptionPlan;
        // Rate 1.0: every insertion is poisoned, so every subsequent
        // probe must detect, evict, and miss — never serve the entry.
        let plan = CorruptionPlan::new(3).cache(1.0);
        let mut c = LookupCache::new(4).with_corruption(&plan, "efind.op.0.");
        c.insert(k(1), vec![k(10)].into());
        assert!(c.probe(&k(1)).is_none(), "poisoned hit must not serve");
        assert_eq!(c.invalidations(), 1);
        assert_eq!(c.hits(), 0);
        // The entry is gone: the next probe is a plain miss.
        assert!(c.probe(&k(1)).is_none());
        assert_eq!(c.invalidations(), 1);
    }

    #[test]
    fn reinsertion_draws_a_fresh_generation() {
        use efind_cluster::CorruptionPlan;
        // At rate 0.5 some key must be poisoned at generation 0 and clean
        // at generation 1 — the re-fetch path converges.
        let plan = CorruptionPlan::new(7).cache(0.5);
        let recovered = (0..100i64).any(|i| {
            let mut c = LookupCache::new(4).with_corruption(&plan, "efind.op.0.");
            c.insert(k(i), vec![k(1)].into());
            if c.probe(&k(i)).is_some() {
                return false; // clean at generation 0
            }
            c.insert(k(i), vec![k(1)].into());
            c.probe(&k(i)).is_some()
        });
        assert!(recovered);
    }

    #[test]
    fn quiet_or_unverified_plans_do_not_arm() {
        use efind_cluster::CorruptionPlan;
        let quiet = LookupCache::new(4).with_corruption(&CorruptionPlan::new(3), "s.");
        assert!(quiet.armed.is_none());
        let unverified = LookupCache::new(4).with_corruption(
            &CorruptionPlan::new(3).cache(1.0).without_verification(),
            "s.",
        );
        assert!(unverified.armed.is_none());
        let armed = LookupCache::new(4).with_corruption(&CorruptionPlan::new(3).cache(0.1), "s.");
        assert!(armed.armed.is_some());
    }

    #[test]
    fn shadow_cache_estimates_same_ratio_as_real() {
        // A cyclic key stream with reuse distance under capacity: both
        // caches must agree exactly.
        let stream: Vec<Datum> = (0..1000).map(|i| k(i % 8)).collect();
        let mut real = LookupCache::new(16);
        let mut shadow = ShadowCache::new(16);
        for key in &stream {
            shadow.observe(key);
            if real.probe(key).is_none() {
                real.insert(key.clone(), Vec::new().into());
            }
        }
        assert!((real.miss_ratio() - shadow.miss_ratio()).abs() < 1e-12);
    }

    #[test]
    fn unique_stream_misses_everything() {
        let mut shadow = ShadowCache::new(4);
        for i in 0..100 {
            shadow.observe(&k(i));
        }
        assert_eq!(shadow.miss_ratio(), 1.0);
    }

    #[test]
    fn empty_cache_reports_full_miss_ratio() {
        assert_eq!(LookupCache::new(4).miss_ratio(), 1.0);
        assert_eq!(ShadowCache::new(4).miss_ratio(), 1.0);
    }
}
