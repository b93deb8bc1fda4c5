//! A global string interner for counter and sketch names.
//!
//! EFind charges every lookup, shuffle byte, and cache probe to a *named*
//! counter (§4.2). Those names are built from a small set of templates
//! (`efind.op.N.lookups`, `efind.op.N.idx.J.nik`, …), so resolving each
//! one to a dense [`Symbol`] once — and paying a `u32` hash instead of a
//! `String` allocation plus byte-wise hash per increment — removes the
//! framework's dominant real-time cost without changing any virtual-time
//! observable.
//!
//! The table is append-only and process-global: a `Symbol` never moves and
//! is valid for the life of the process, which is what lets
//! `CounterHandle`s in `efind-mapreduce` be `Copy` and lets hot paths hold
//! them across task boundaries. [`interned_by_thread`] counts the names the
//! calling thread added, so a test can prove a hot path performs *zero*
//! interner growth (and hence no name allocation) at steady state while
//! sibling tests intern their own names in parallel.

use std::cell::Cell;
use std::sync::{Arc, OnceLock, RwLock};

use crate::FxHashMap;

/// A dense id for an interned string. Cheap to copy, hash, and compare;
/// resolves back to its text via [`resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw dense index of this symbol in the global table.
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Default)]
struct InternTable {
    by_name: FxHashMap<Arc<str>, u32>,
    by_id: Vec<Arc<str>>,
}

fn table() -> &'static RwLock<InternTable> {
    static TABLE: OnceLock<RwLock<InternTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(InternTable::default()))
}

/// Interns `name`, returning its stable [`Symbol`]. Idempotent: the same
/// text always maps to the same symbol. Allocates only the first time a
/// given name is seen.
pub fn intern(name: &str) -> Symbol {
    let t = table();
    if let Some(&id) = t.read().expect("intern table poisoned").by_name.get(name) {
        return Symbol(id);
    }
    // First sight of `name`, checked before the write lock so that a
    // failed check leaves the table usable.
    debug_assert!(
        !(name.starts_with("efind.") || name.starts_with("mr."))
            || registry::counter_name_registered(name),
        "counter name {name:?} matches no `intern::registry::COUNTER_PATTERNS` entry"
    );
    let mut w = t.write().expect("intern table poisoned");
    if let Some(&id) = w.by_name.get(name) {
        return Symbol(id);
    }
    let id = u32::try_from(w.by_id.len()).expect("interner overflow");
    let arc: Arc<str> = Arc::from(name);
    w.by_id.push(arc.clone());
    w.by_name.insert(arc, id);
    ADDED_BY_THREAD.with(|n| n.set(n.get() + 1));
    Symbol(id)
}

/// Returns the text of an interned symbol as a shared handle.
pub fn resolve(sym: Symbol) -> Arc<str> {
    table().read().expect("intern table poisoned").by_id[sym.0 as usize].clone()
}

thread_local! {
    static ADDED_BY_THREAD: Cell<usize> = const { Cell::new(0) };
}

/// Number of distinct strings the calling thread has added to the table.
/// A hot path that is allocation-free on names leaves this unchanged —
/// whatever other threads intern meanwhile.
pub fn interned_by_thread() -> usize {
    ADDED_BY_THREAD.with(Cell::get)
}

/// The registry of counter-name shapes, checked where names enter the
/// table: in debug builds, [`intern`] asserts that every new name under
/// `efind.` or `mr.` matches a registered pattern.
///
/// Every counter the workspace charges is built from a small set of
/// templates (`efind.<op>.n1`, `efind.<op>.<j>.lookups`,
/// `mr.recovery.crashes`, …). A name that matches none of them is almost
/// always a typo — the counter silently reads 0 forever — so the shapes
/// are enumerated here, next to the interner they feed, and a test run
/// that interns an unregistered name panics. The list is append-only:
/// add the pattern when introducing a new counter family.
pub mod registry {
    /// Full counter-name patterns. `*` matches exactly one dot-free
    /// segment (an operator name, an index slot, …).
    pub const COUNTER_PATTERNS: &[&str] = &[
        // Job-level Map output (Smap).
        "efind.mapout.records",
        "efind.mapout.bytes",
        // Operator-level sizes: efind.<op>.<what>.
        "efind.*.n1",
        "efind.*.s1.bytes",
        "efind.*.spre.bytes",
        "efind.*.spost.bytes",
        "efind.*.sidx.bytes",
        "efind.*.post.out",
        // Per-index lookup statistics: efind.<op>.<j>.<what>.
        "efind.*.*.lookups",
        "efind.*.*.misses",
        "efind.*.*.nik",
        "efind.*.*.nik.irregular",
        "efind.*.*.key.bytes",
        "efind.*.*.sik.bytes",
        "efind.*.*.siv.bytes",
        "efind.*.*.tj.nanos",
        "efind.*.*.distinct",
        "efind.*.*.cache.probes",
        "efind.*.*.cache.hits",
        "efind.*.*.shadow.probes",
        "efind.*.*.shadow.hits",
        // Fault layer: efind.<op>.<j>.fault.<what>.
        "efind.*.*.fault.failures",
        "efind.*.*.fault.timeouts",
        "efind.*.*.fault.slowdowns",
        "efind.*.*.fault.retries",
        "efind.*.*.fault.backoff.nanos",
        "efind.*.*.fault.exhausted",
        "efind.*.*.fault.degraded",
        // Integrity layer: efind.<op>.<j>.integrity.<what>.
        "efind.*.*.integrity.refetch",
        "efind.*.*.integrity.cache.invalid",
        // Hedged lookups: efind.<op>.<j>.hedge.<what>.
        "efind.*.*.hedge.fired",
        "efind.*.*.hedge.wins",
        "efind.*.*.hedge.loser.nanos",
        // Cross-job statistics store (statstore.rs): load-time rejections.
        "efind.statstore.corrupt",
        "efind.statstore.version.mismatch",
        // Multi-tenant admission control (cluster::tenancy): mix-level
        // totals, charged only when the tenancy layer is armed.
        "efind.admission.submitted",
        "efind.admission.granted",
        "efind.admission.rejected",
        "efind.admission.quota.rejected",
        // Per-tenant serving ledger: efind.tenant.<tenant>.<what>.
        "efind.tenant.*.granted",
        "efind.tenant.*.completed",
        "efind.tenant.*.rejected",
        "efind.tenant.*.quota.rejected",
        "efind.tenant.*.degraded",
        "efind.tenant.*.shed.lookups",
        "efind.tenant.*.throttle.nanos",
        "efind.tenant.*.wait.nanos",
        "efind.tenant.*.cache.evictions",
        // Plain MapReduce task counters.
        "mr.map.input.records",
        "mr.map.input.bytes",
        "mr.map.output.records",
        "mr.map.output.bytes",
        "mr.reduce.input.records",
        "mr.reduce.input.bytes",
        "mr.reduce.output.records",
        "mr.reduce.output.bytes",
        // Crash-recovery ledger (RecoveryLog::counters).
        "mr.recovery.crashes",
        "mr.recovery.crashed.attempts",
        "mr.recovery.recompute.waves",
        "mr.recovery.recompute.tasks",
        "mr.recovery.fetch.retries",
        "mr.recovery.fetch.backoff.nanos",
        "mr.recovery.rereplicated.chunks",
        "mr.recovery.rereplicated.bytes",
        "mr.recovery.rereplication.nanos",
        "mr.recovery.reused.tasks",
        // Gray-failure ledger (PartitionLog::counters).
        "mr.partition.events",
        "mr.partition.slow.links",
        "mr.partition.suspected",
        "mr.partition.refuted",
        "mr.partition.confirmed",
        "mr.partition.false.positives",
        "mr.partition.replaced.tasks",
        "mr.partition.stalled.tasks",
        "mr.partition.stall.nanos",
        "mr.partition.orphan.results",
        "mr.partition.failover.fetches",
        "mr.partition.failover.nanos",
        "mr.partition.rereplication.pending",
        "mr.partition.rereplication.cancelled",
        "mr.partition.rereplicated.chunks",
        "mr.partition.rereplicated.bytes",
        "mr.partition.rereplication.nanos",
        // Integrity ledger (IntegrityLog::counters).
        "mr.integrity.chunks.corrupt",
        "mr.integrity.replicas.quarantined",
        "mr.integrity.chunk.rereads",
        "mr.integrity.reread.nanos",
        "mr.integrity.shuffle.refetches",
        "mr.integrity.shuffle.refetch.nanos",
        "mr.integrity.cache.invalidations",
        "mr.integrity.lookup.refetches",
        "mr.integrity.repaired.chunks",
        "mr.integrity.repaired.bytes",
        "mr.integrity.repair.nanos",
    ];

    /// True when `name` matches a registered full pattern. `*` in a
    /// pattern matches exactly one dot-free segment of the name.
    pub fn counter_name_registered(name: &str) -> bool {
        COUNTER_PATTERNS.iter().any(|p| pattern_matches(p, name))
    }

    fn pattern_matches(pattern: &str, name: &str) -> bool {
        let ps: Vec<&str> = pattern.split('.').collect();
        let ns: Vec<&str> = name.split('.').collect();
        ps.len() == ns.len()
            && ps
                .iter()
                .zip(&ns)
                .all(|(p, n)| *p == "*" || p == n && !n.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolves() {
        let a = intern("intern.test.alpha");
        let b = intern("intern.test.beta");
        assert_ne!(a, b);
        assert_eq!(a, intern("intern.test.alpha"));
        assert_eq!(&*resolve(a), "intern.test.alpha");
        assert_eq!(&*resolve(b), "intern.test.beta");
    }

    #[test]
    fn reinterning_does_not_grow_table() {
        intern("intern.test.stable");
        let before = interned_by_thread();
        for _ in 0..1_000 {
            intern("intern.test.stable");
        }
        assert_eq!(interned_by_thread(), before);
        intern("intern.test.fresh");
        assert_eq!(interned_by_thread(), before + 1);
    }

    #[test]
    fn registry_accepts_known_counter_shapes() {
        for name in [
            "efind.mapout.bytes",
            "efind.enrich.n1",
            "efind.enrich.spost.bytes",
            "efind.synjoin.0.lookups",
            "efind.op.3.fault.backoff.nanos",
            "efind.op.0.integrity.cache.invalid",
            "mr.map.output.records",
            "mr.recovery.recompute.waves",
            "mr.integrity.shuffle.refetch.nanos",
            "efind.admission.submitted",
            "efind.admission.quota.rejected",
            "efind.tenant.alpha.granted",
            "efind.tenant.beta.shed.lookups",
            "efind.tenant.beta.throttle.nanos",
            "efind.tenant.gamma.cache.evictions",
        ] {
            assert!(registry::counter_name_registered(name), "{name}");
        }
    }

    #[test]
    fn registry_rejects_unknown_counter_shapes() {
        for name in [
            "efind.op.lookups",         // per-index leaf at operator level
            "efind.op.0.lokups",        // typo
            "efind.op.0.fault.sadness", // unknown fault leaf
            "mr.recovery.typo",         // unknown ledger entry
            "efind.op.0.extra.lookups", // too many segments
            "mr.map.input",             // too few segments
            "efind.tenant.granted",     // tenant segment missing
            "efind.tenant.a.sheds",     // unknown tenant leaf
            "efind.admission.dropped",  // unknown admission counter
        ] {
            assert!(!registry::counter_name_registered(name), "{name}");
        }
    }

    /// A typo'd per-index leaf, which would read 0 forever: interning it
    /// fails the debug run that charges it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "efind.enrich.0.lokups")]
    fn interning_an_unregistered_counter_name_panics() {
        intern("efind.enrich.0.lokups");
    }
}
