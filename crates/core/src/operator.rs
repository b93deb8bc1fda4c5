//! The index operator interface.
//!
//! Mirrors Figure 2: an `IndexOperator` customizes index access at one
//! point in a MapReduce data flow. `preProcess(k1, v1) → (k1', v1', {ik})`
//! is [`IndexOperator::pre_process`]: it is handed `(k1, v1)`, puts one key
//! list per index into an [`IndexInput`], and returns the `(k1', v1')` the
//! carrier keeps until the lookups are done — the record itself, or a
//! projection of it. `postProcess(k1', v1', {results})` is
//! [`IndexOperator::post_process`]: it combines the lookup results with the
//! carried record into `(k2, v2)` outputs, optionally filtering.
//!
//! *Borrowed or owned.* Both methods take the record as a [`Cow`].
//! `pre_process` is lent it when the operator heads a map task's chain and
//! its input row stays in the chunk ([`efind_mapreduce::Mapper::map_rows`]),
//! and handed it when an earlier stage made it. A head operator may be
//! handed the later rows of its window before an earlier row's lookups
//! run, so `pre_process` must depend on nothing but the record it is
//! handed (it sees no task state anyway). It returns `rec` to carry
//! the record whole — a lent row stays lent, read in place until its
//! carrier leaves the task, and an owned one moves — and a projection,
//! `Cow::Owned`, otherwise, copying only what it keeps. `post_process` is
//! lent the row `pre_process` carried whole when that was lent, and one
//! the carrier decoded from a stored payload, which the carrier keeps to
//! decode the next one into; it is handed any other record `pre_process`
//! returned. An operator copies only what it keeps or emits out of a
//! borrowed record; `rec.into_owned()` returns the record whole, copying
//! it only if it was borrowed. [`operator_fn`] is sugar for the in-place
//! rewrite: its closures edit `&mut Record` and take `Record`, which costs
//! a borrowed record a whole copy first.

use std::borrow::Cow;
use std::sync::Arc;

use efind_common::{Datum, Record};
use efind_mapreduce::Collector;

/// Key lists extracted by `pre_process`, one list per index
/// (the `{{ik_1}, …, {ik_m}}` of Fig. 2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexInput {
    pub(crate) keys: Vec<Vec<Datum>>,
}

impl IndexInput {
    /// Creates key lists for `m` indices.
    pub fn new(num_indices: usize) -> Self {
        IndexInput {
            keys: vec![Vec::new(); num_indices],
        }
    }

    /// Adds a lookup key for index `j` (the paper's `iklist.put(j, key)`).
    pub fn put(&mut self, index: usize, key: impl Into<Datum>) {
        self.keys[index].push(key.into());
    }

    /// Number of indices.
    pub fn num_indices(&self) -> usize {
        self.keys.len()
    }

    /// Keys extracted for index `j`.
    pub fn keys(&self, index: usize) -> &[Datum] {
        &self.keys[index]
    }
}

/// Lookup results handed to `post_process`: for each index, one value list
/// per extracted key (the `{{ik_1},{iv_1},…` of Fig. 2).
///
/// Value lists are shared handles (`Arc<[Datum]>`): a carrier hands its
/// lookup results over without deep-copying them, and cache-shared lists
/// stay shared all the way into `post_process`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexOutput {
    pub(crate) values: Vec<Vec<Arc<[Datum]>>>,
}

impl IndexOutput {
    /// Wraps per-index, per-key value lists. Accepts owned `Vec<Datum>`
    /// lists or already-shared `Arc<[Datum]>` handles.
    pub fn new<L: Into<Arc<[Datum]>>>(values: Vec<Vec<L>>) -> Self {
        IndexOutput {
            values: values
                .into_iter()
                .map(|per_key| per_key.into_iter().map(Into::into).collect())
                .collect(),
        }
    }

    /// All value lists for index `j`, one per extracted key.
    pub fn get(&self, index: usize) -> &[Arc<[Datum]>] {
        &self.values[index]
    }

    /// The value list of the first key of index `j` — the common case when
    /// `pre_process` extracts exactly one key (like the paper's
    /// `indexValues.get(0).getAll()[0]` idiom).
    pub fn first(&self, index: usize) -> &[Datum] {
        self.values[index].first().map(|v| &v[..]).unwrap_or(&[])
    }

    /// Number of indices.
    pub fn num_indices(&self) -> usize {
        self.values.len()
    }
}

/// Job-specific index access customization at one data-flow point.
pub trait IndexOperator: Send + Sync {
    /// Stable name used in counters, plans, and reports.
    fn name(&self) -> &str;

    /// Number of indices this operator accesses (`m`).
    fn num_indices(&self) -> usize;

    /// Extracts per-index lookup keys from `(k1, v1)` into `keys` and
    /// returns the `(k1', v1')` to carry on: `rec` itself to carry it
    /// whole, which copies nothing, or a projection that drops fields no
    /// longer needed, shrinking everything downstream, as `Cow::Owned`. A
    /// projection of a borrowed `rec` copies only what it keeps (see the
    /// module docs).
    fn pre_process<'r>(&self, rec: Cow<'r, Record>, keys: &mut IndexInput) -> Cow<'r, Record>;

    /// Combines the index lookup results with the (possibly rewritten)
    /// record into zero or more `(k2, v2)` outputs. A borrowed `rec` is
    /// only read: an output copies what it needs of it (see the module
    /// docs).
    fn post_process(&self, rec: Cow<'_, Record>, values: &IndexOutput, out: &mut dyn Collector);
}

struct FnOperator<P, Q> {
    name: String,
    num_indices: usize,
    pre: P,
    post: Q,
}

impl<P, Q> IndexOperator for FnOperator<P, Q>
where
    P: Fn(&mut Record, &mut IndexInput) + Send + Sync,
    Q: Fn(Record, &IndexOutput, &mut dyn Collector) + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }
    fn num_indices(&self) -> usize {
        self.num_indices
    }
    fn pre_process<'r>(&self, rec: Cow<'r, Record>, keys: &mut IndexInput) -> Cow<'r, Record> {
        let mut rec = rec.into_owned();
        (self.pre)(&mut rec, keys);
        Cow::Owned(rec)
    }
    fn post_process(&self, rec: Cow<'_, Record>, values: &IndexOutput, out: &mut dyn Collector) {
        (self.post)(rec.into_owned(), values, out)
    }
}

/// Builds an [`IndexOperator`] from two closures — the lightweight way to
/// express the paper's `UserProfileIndexOperator`-style classes. `pre`
/// rewrites the record in place and `post` takes it owned, so a borrowed
/// record is copied whole before either runs; an operator that projects a
/// head segment's rows, or filters or rebuilds the rows a stored carrier
/// lends it, implements [`IndexOperator`] itself to copy only what it
/// keeps.
pub fn operator_fn<P, Q>(name: &str, num_indices: usize, pre: P, post: Q) -> Arc<dyn IndexOperator>
where
    P: Fn(&mut Record, &mut IndexInput) + Send + Sync + 'static,
    Q: Fn(Record, &IndexOutput, &mut dyn Collector) + Send + Sync + 'static,
{
    Arc::new(FnOperator {
        name: name.to_owned(),
        num_indices,
        pre,
        post,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_input_collects_per_index() {
        let mut input = IndexInput::new(2);
        input.put(0, 1i64);
        input.put(1, "a");
        input.put(1, "b");
        assert_eq!(input.num_indices(), 2);
        assert_eq!(input.keys(0), &[Datum::Int(1)]);
        assert_eq!(input.keys(1).len(), 2);
    }

    #[test]
    fn index_output_accessors() {
        let out = IndexOutput::new(vec![vec![vec![Datum::Int(10)]], vec![]]);
        assert_eq!(out.first(0), &[Datum::Int(10)]);
        assert_eq!(out.first(1), &[] as &[Datum]);
        assert_eq!(out.get(0).len(), 1);
    }

    #[test]
    fn fn_operator_roundtrip() {
        let op = operator_fn(
            "enrich",
            1,
            |rec, keys| {
                keys.put(0, rec.key.clone());
                rec.value = Datum::Null; // projection
            },
            |rec, values, out| {
                let looked = values.first(0).first().cloned().unwrap_or(Datum::Null);
                out.collect(Record {
                    key: rec.key,
                    value: looked,
                });
            },
        );
        assert_eq!(op.name(), "enrich");
        assert_eq!(op.num_indices(), 1);

        let row = Record::new(7i64, "payload");
        let mut keys = IndexInput::new(1);
        let rec = op.pre_process(Cow::Borrowed(&row), &mut keys);
        assert!(matches!(rec, Cow::Owned(_)), "the in-place form copies");
        let rec = rec.into_owned();
        assert_eq!(keys.keys(0), &[Datum::Int(7)]);
        assert!(rec.value.is_null());
        assert_eq!(
            row,
            Record::new(7i64, "payload"),
            "a lent row is not edited"
        );
        let mut owned_keys = IndexInput::new(1);
        assert_eq!(*op.pre_process(Cow::Owned(row), &mut owned_keys), rec);
        assert_eq!(owned_keys, keys);

        let values = IndexOutput::new(vec![vec![vec![Datum::Text("hit".into())]]]);
        let mut out: Vec<Record> = Vec::new();
        op.post_process(Cow::Borrowed(&rec), &values, &mut out);
        op.post_process(Cow::Owned(rec), &values, &mut out);
        assert_eq!(out, vec![Record::new(7i64, "hit"); 2]);
    }
}
