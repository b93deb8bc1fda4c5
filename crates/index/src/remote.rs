//! A single-host remote service index.
//!
//! The LOG experiment's geo-IP service: *"It uses a cloud service to look
//! up the geographical region for an IP address. The cloud service runs on
//! a single node with Java RMI interface … incurs a T = 0.8 ms delay for a
//! lookup. … we introduce an extra 0, 1 ms, …, 5 ms to the lookup"*
//! (§5.2). Single-host, so no partition scheme — index locality does not
//! apply, exactly as in Fig. 11(a).

use std::sync::Arc;

use efind::{IndexAccessor, LookupResult, PartitionScheme};
use efind_cluster::SimDuration;
use efind_common::{Datum, FxHashMap};

/// The fallible lookup function a [`RemoteService`] wraps. Remote
/// services are exactly the accessors where "the key has no entry" and
/// "the service did not answer" are different events, so the canonical
/// interface is the fallible one; the infallible [`LookupFn`]-style
/// constructors wrap into it.
pub type TryLookupFn = Box<dyn Fn(&Datum) -> LookupResult + Send + Sync>;

/// The infallible lookup function accepted by [`RemoteService::new`].
pub type LookupFn = Box<dyn Fn(&Datum) -> Vec<Datum> + Send + Sync>;

/// A remote service answering lookups through a user-provided function,
/// with a configurable per-lookup delay.
pub struct RemoteService {
    name: String,
    delay: SimDuration,
    func: TryLookupFn,
}

impl RemoteService {
    /// The paper's base service delay (0.8 ms).
    pub const BASE_DELAY: SimDuration = SimDuration::from_micros(800);

    /// Wraps an infallible lookup function with a fixed delay. Every
    /// answer — including an empty one — is a [`LookupResult::Hit`].
    pub fn new(
        name: impl Into<String>,
        delay: SimDuration,
        func: impl Fn(&Datum) -> Vec<Datum> + Send + Sync + 'static,
    ) -> Self {
        Self::fallible(name, delay, move |k| LookupResult::hit(func(k)))
    }

    /// Wraps a fallible lookup function: the service decides per key
    /// whether it answers ([`LookupResult::Hit`]), reports the key absent
    /// ([`LookupResult::Miss`]), or fails ([`LookupResult::Failed`] — fed
    /// into the accessor path's retry machinery).
    pub fn fallible(
        name: impl Into<String>,
        delay: SimDuration,
        func: impl Fn(&Datum) -> LookupResult + Send + Sync + 'static,
    ) -> Self {
        RemoteService {
            name: name.into(),
            delay,
            func: Box::new(func),
        }
    }

    /// Convenience: a remote service backed by a static table. A key
    /// absent from the table is reported as [`LookupResult::Miss`] — not
    /// as a silent empty result — so miss and failure counters stay
    /// distinguishable downstream. Each key's value list is stored as
    /// one `Arc<[Datum]>` created here, and a hit is a refcount bump of
    /// it; a key that occurs more than once keeps the value list of its
    /// *last* pair.
    pub fn table(
        name: impl Into<String>,
        delay: SimDuration,
        pairs: impl IntoIterator<Item = (Datum, Vec<Datum>)>,
    ) -> Self {
        let table: FxHashMap<Datum, Arc<[Datum]>> =
            pairs.into_iter().map(|(k, v)| (k, v.into())).collect();
        Self::fallible(name, delay, move |k| match table.get(k) {
            Some(values) => LookupResult::Hit(values.clone()),
            None => LookupResult::Miss,
        })
    }

    /// The configured per-lookup delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }
}

impl IndexAccessor for RemoteService {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        match (self.func)(key) {
            LookupResult::Hit(values) => values.to_vec(),
            LookupResult::Miss | LookupResult::Failed(_) => Vec::new(),
        }
    }

    fn try_lookup(&self, key: &Datum) -> LookupResult {
        (self.func)(key)
    }

    fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
        self.delay
    }

    fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_backed_lookup() {
        let svc = RemoteService::new("doubler", SimDuration::from_millis(1), |k| {
            k.as_int()
                .map(|v| vec![Datum::Int(v * 2)])
                .unwrap_or_default()
        });
        assert_eq!(svc.lookup(&Datum::Int(21)), vec![Datum::Int(42)]);
        assert!(svc.lookup(&Datum::Text("x".into())).is_empty());
        // Infallible services never report a miss: an empty answer is
        // still a Hit.
        assert_eq!(
            svc.try_lookup(&Datum::Text("x".into())),
            LookupResult::hit(vec![])
        );
        assert_eq!(
            svc.serve_time(&Datum::Int(0), 100),
            SimDuration::from_millis(1)
        );
        assert!(svc.partition_scheme().is_none());
    }

    #[test]
    fn table_backed_lookup() {
        let svc = RemoteService::table(
            "geo",
            RemoteService::BASE_DELAY,
            vec![(
                Datum::Text("1.2.3.4".into()),
                vec![Datum::Text("us-west".into())],
            )],
        );
        assert_eq!(
            svc.lookup(&Datum::Text("1.2.3.4".into())),
            vec![Datum::Text("us-west".into())]
        );
        assert_eq!(svc.delay(), SimDuration::from_micros(800));
    }

    #[test]
    fn table_misses_are_distinguishable_from_empty_hits() {
        let svc = RemoteService::table(
            "geo",
            RemoteService::BASE_DELAY,
            vec![
                (Datum::Int(1), vec![Datum::Text("east".into())]),
                (Datum::Int(2), vec![]),
            ],
        );
        assert!(matches!(
            svc.try_lookup(&Datum::Int(1)),
            LookupResult::Hit(v) if v.len() == 1
        ));
        // A key mapped to an empty list answers Hit([]) …
        assert_eq!(svc.try_lookup(&Datum::Int(2)), LookupResult::hit(vec![]));
        // … while an absent key is a Miss; the infallible view of both is
        // an empty Vec.
        assert_eq!(svc.try_lookup(&Datum::Int(3)), LookupResult::Miss);
        assert!(svc.lookup(&Datum::Int(3)).is_empty());
    }

    #[test]
    fn a_duplicated_table_key_keeps_its_last_list() {
        let svc = RemoteService::table(
            "geo",
            RemoteService::BASE_DELAY,
            vec![
                (Datum::Int(1), vec![Datum::Int(10)]),
                (Datum::Int(1), vec![Datum::Int(20)]),
            ],
        );
        assert_eq!(svc.lookup(&Datum::Int(1)), vec![Datum::Int(20)]);
    }

    #[test]
    fn fallible_services_can_fail() {
        let svc =
            RemoteService::fallible("flaky", RemoteService::BASE_DELAY, |k| match k.as_int() {
                Some(v) if v % 2 == 0 => LookupResult::hit(vec![Datum::Int(v / 2)]),
                Some(_) => LookupResult::Failed("shard offline".into()),
                None => LookupResult::Miss,
            });
        assert_eq!(
            svc.try_lookup(&Datum::Int(4)),
            LookupResult::hit(vec![Datum::Int(2)])
        );
        assert!(matches!(
            svc.try_lookup(&Datum::Int(3)),
            LookupResult::Failed(_)
        ));
        // The infallible view degrades a failure to empty, as before.
        assert!(svc.lookup(&Datum::Int(3)).is_empty());
    }
}
