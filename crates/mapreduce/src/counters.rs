//! Global counters and mergeable sketches.
//!
//! §4.2: *"We leverage a feature in MapReduce systems, called counter, in
//! the implementation. A counter can be incremented by individual Map or
//! Reduce tasks and will be globally visible."* EFind derives every Table 1
//! statistic from counters, and estimates Θ from per-task Flajolet–Martin
//! bit vectors OR-ed together — [`Sketches`] carries those.
//!
//! Counter names are interned once into [`Symbol`]s (see
//! `efind_common::intern`): the map is keyed by a dense `u32`, so an
//! increment through a pre-resolved [`CounterHandle`] touches no `String`
//! at all — no allocation, no byte-wise hashing. The string-keyed API is
//! kept for cold paths (reports, tests, plan statistics).

use std::sync::Arc;

use efind_common::intern::{intern, resolve};
use efind_common::{Datum, FmSketch, FxHashMap, Symbol};

/// A pre-resolved counter (or sketch) name. Resolve once with
/// [`CounterHandle::new`], then increment through it on the hot path —
/// each use is a `u32` map update with zero allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterHandle(Symbol);

impl CounterHandle {
    /// Interns `name` and returns its handle.
    pub fn new(name: &str) -> Self {
        Self(intern(name))
    }

    /// The underlying interned symbol.
    pub fn symbol(self) -> Symbol {
        self.0
    }

    /// The counter's name text (shared, not rebuilt).
    pub fn name(self) -> Arc<str> {
        resolve(self.0)
    }
}

impl From<&str> for CounterHandle {
    fn from(name: &str) -> Self {
        Self::new(name)
    }
}

/// A set of named integer counters.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    values: FxHashMap<Symbol, i64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`. Interns the name; prefer
    /// [`Counters::bump`] with a pre-resolved handle on hot paths.
    pub fn add(&mut self, name: &str, delta: i64) {
        self.bump(CounterHandle(intern(name)), delta);
    }

    /// Adds `delta` through a pre-resolved handle — the allocation-free
    /// hot path.
    pub fn bump(&mut self, handle: CounterHandle, delta: i64) {
        *self.values.entry(handle.0).or_insert(0) += delta;
    }

    /// Adds every nonzero `(name, value)` — how a job ledger mirrors itself
    /// into counters: a zero field writes nothing, so an idle layer leaves
    /// the counter set (and its fingerprint) untouched.
    pub fn add_nonzero(&mut self, fields: &[(&str, i64)]) {
        for &(name, v) in fields {
            if v != 0 {
                self.add(name, v);
            }
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 if never written).
    pub fn get(&self, name: &str) -> i64 {
        self.values.get(&intern(name)).copied().unwrap_or(0)
    }

    /// Reads a counter through a pre-resolved handle.
    pub fn get_handle(&self, handle: CounterHandle) -> i64 {
        self.values.get(&handle.0).copied().unwrap_or(0)
    }

    /// Merges another counter set into this one by summing. Keys are
    /// interned symbols (`Copy`), so nothing is cloned.
    pub fn merge(&mut self, other: &Counters) {
        #[expect(
            clippy::iter_over_hash_type,
            reason = "integer sums commute; no order reaches any output"
        )]
        for (&k, &v) in &other.values {
            *self.values.entry(k).or_insert(0) += v;
        }
    }

    /// Iterates counters in sorted-name order (for stable reports). The
    /// returned names are shared handles into the intern table, not
    /// rebuilt strings.
    pub fn iter_sorted(&self) -> Vec<(Arc<str>, i64)> {
        #[expect(
            clippy::disallowed_methods,
            reason = "items are sorted by name before being returned"
        )]
        let mut items: Vec<(Arc<str>, i64)> =
            self.values.iter().map(|(&k, &v)| (resolve(k), v)).collect();
        items.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        items
    }

    /// True if no counter has been written.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Named FM sketches, one per statistic that needs a distinct count.
#[derive(Clone, Debug, Default)]
pub struct Sketches {
    sketches: FxHashMap<Symbol, FmSketch>,
}

impl Sketches {
    /// Creates an empty sketch set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes `key` under sketch `name`. Interns the name; prefer
    /// [`Sketches::observe_handle`] on hot paths.
    pub fn observe(&mut self, name: &str, key: &Datum) {
        self.observe_handle(CounterHandle(intern(name)), key);
    }

    /// Observes `key` through a pre-resolved handle — allocation-free on
    /// the name.
    pub fn observe_handle(&mut self, handle: CounterHandle, key: &Datum) {
        self.sketches.entry(handle.0).or_default().insert(key);
    }

    /// Estimated distinct count under `name` (0 if never observed).
    pub fn estimate(&self, name: &str) -> f64 {
        self.sketches
            .get(&intern(name))
            .map_or(0.0, FmSketch::estimate)
    }

    /// ORs another sketch set into this one. Keys are interned symbols
    /// (`Copy`), so nothing is cloned.
    pub fn merge(&mut self, other: &Sketches) {
        #[expect(
            clippy::iter_over_hash_type,
            reason = "sketch merge is a bitwise OR; it commutes and no order escapes"
        )]
        for (&k, v) in &other.sketches {
            self.sketches.entry(k).or_default().merge(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_get_merge() {
        let mut a = Counters::new();
        a.add("x", 3);
        a.inc("x");
        assert_eq!(a.get("x"), 4);
        assert_eq!(a.get("missing"), 0);

        let mut b = Counters::new();
        b.add("x", 6);
        b.add("y", 1);
        a.merge(&b);
        assert_eq!(a.get("x"), 10);
        assert_eq!(a.get("y"), 1);
    }

    #[test]
    fn sorted_iteration() {
        let mut c = Counters::new();
        c.add("b", 2);
        c.add("a", 1);
        let sorted = c.iter_sorted();
        let items: Vec<(&str, i64)> = sorted.iter().map(|(k, v)| (&**k, *v)).collect();
        assert_eq!(items, vec![("a", 1), ("b", 2)]);
    }

    #[test]
    fn handles_and_strings_hit_the_same_counter() {
        let mut c = Counters::new();
        let h = CounterHandle::new("handle.test.shared");
        c.bump(h, 5);
        c.add("handle.test.shared", 2);
        assert_eq!(c.get("handle.test.shared"), 7);
        assert_eq!(c.get_handle(h), 7);
        assert_eq!(&*h.name(), "handle.test.shared");
    }

    #[test]
    fn handle_bumps_do_not_grow_the_intern_table() {
        let mut c = Counters::new();
        let h = CounterHandle::new("handle.test.hot");
        c.bump(h, 1);
        let before = efind_common::intern::interned_by_thread();
        for _ in 0..10_000 {
            c.bump(h, 1);
        }
        assert_eq!(efind_common::intern::interned_by_thread(), before);
        assert_eq!(c.get_handle(h), 10_001);
    }

    #[test]
    fn sketches_merge_like_union() {
        let mut a = Sketches::new();
        let mut b = Sketches::new();
        for i in 0..2_000i64 {
            a.observe("keys", &Datum::Int(i));
            b.observe("keys", &Datum::Int(i + 1_000));
        }
        a.merge(&b);
        let est = a.estimate("keys");
        assert!((est - 3_000.0).abs() / 3_000.0 < 0.3, "est={est}");
        assert_eq!(a.estimate("other"), 0.0);
    }
}
