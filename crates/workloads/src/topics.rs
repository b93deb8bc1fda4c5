//! The spatio-temporal tweet-topics pipeline of Example 2.1 (Figs. 4–5).
//!
//! Five steps, three indices, all operator placements exercised at once:
//!
//! 1. *head* `profile` — look each tweet's user up in a user-profile
//!    KV store to obtain the city;
//! 2. Map — extract keywords from the message and form the `(city, day)`
//!    key;
//! 3. *body* `topic` — call the knowledge-base service, a **dynamic**
//!    index that classifies the keywords into a topic (infinitely many
//!    valid keys, results computed not stored);
//! 4. Reduce — top-k topics per `(city, day)`;
//! 5. *tail* `events` — enrich each group with important events from an
//!    event database (a distributed B-tree).

use std::collections::BTreeMap;
use std::sync::Arc;

use efind::{operator_fn, BoundOperator, EFindConfig, IndexJobConf};
use efind_cluster::Cluster;
use efind_common::{Datum, FxHashMap, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_index::{DistBTree, KvStore, KvStoreConfig, TopicClassifier};
use efind_mapreduce::{mapper_fn, reducer_fn, Collector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::Scenario;

/// Tweet workload configuration.
#[derive(Clone, Debug)]
pub struct TopicsConfig {
    /// Number of tweets.
    pub num_tweets: usize,
    /// Distinct user accounts.
    pub num_users: usize,
    /// Distinct cities users live in.
    pub num_cities: usize,
    /// Days the collection spans.
    pub days: usize,
    /// Message vocabulary size.
    pub vocab: usize,
    /// Top-k topics per (city, day).
    pub top_k: usize,
    /// Input chunks.
    pub chunks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TopicsConfig {
    fn default() -> Self {
        TopicsConfig {
            num_tweets: 20_000,
            num_users: 1_500,
            num_cities: 40,
            days: 30,
            vocab: 400,
            top_k: 3,
            chunks: 120,
            seed: 0x73E7,
        }
    }
}

const SECONDS_PER_DAY: i64 = 86_400;

/// Generates tweets: `key = tweet id`,
/// `value = [user, timestamp, message]`. Users tweet in sessions so the
/// user-profile lookups show the locality the paper's LOG analysis
/// describes.
pub fn generate_tweets(config: &TopicsConfig) -> Vec<Record> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut records = Vec::with_capacity(config.num_tweets);
    let mut id = 0i64;
    while records.len() < config.num_tweets {
        let user = format!("user{}", rng.gen_range(0..config.num_users));
        let day = rng.gen_range(0..config.days) as i64;
        let session = rng.gen_range(1..=4usize);
        for s in 0..session.min(config.num_tweets - records.len()) {
            let words: Vec<String> = (0..rng.gen_range(3..7usize))
                .map(|_| format!("w{}", rng.gen_range(0..config.vocab)))
                .collect();
            records.push(Record::new(
                id,
                Datum::List(vec![
                    Datum::Text(user.clone()),
                    Datum::Int(day * SECONDS_PER_DAY + s as i64 * 60),
                    Datum::Text(words.join(" ")),
                ]),
            ));
            id += 1;
        }
    }
    records
}

/// Builds the user-profile index: `user → [city]`.
pub fn user_profiles(config: &TopicsConfig, cluster: &Cluster) -> Arc<KvStore> {
    Arc::new(KvStore::build(
        "user-profiles",
        cluster,
        KvStoreConfig::default(),
        (0..config.num_users).map(|u| {
            (
                Datum::Text(format!("user{u}")),
                vec![Datum::Text(format!("city{}", u % config.num_cities))],
            )
        }),
    ))
}

/// Builds the event database: `[city, day] → [event, …]`.
pub fn event_db(config: &TopicsConfig, cluster: &Cluster) -> Arc<DistBTree> {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xE);
    let pairs = (0..config.num_cities).flat_map(|c| {
        (0..config.days).map(move |d| {
            (
                Datum::List(vec![Datum::Text(format!("city{c}")), Datum::Int(d as i64)]),
                vec![Datum::Text(format!("event-{c}-{d}"))],
            )
        })
    });
    let pairs: Vec<_> = pairs
        .filter(|_| rng.gen_bool(0.7)) // not every (city, day) has events
        .collect();
    Arc::new(DistBTree::build("events", cluster, 16, 3, pairs))
}

/// Builds the full Example 2.1 job.
pub fn build_job(
    config: &TopicsConfig,
    profiles: Arc<KvStore>,
    classifier: Arc<TopicClassifier>,
    events: Arc<DistBTree>,
) -> IndexJobConf {
    // I1 (head): user → city; keeps [city, ts, message].
    let profile_op = operator_fn(
        "profile",
        1,
        |rec: &mut Record, keys: &mut efind::IndexInput| {
            if let Some(f) = rec.value.as_list() {
                keys.put(0, f[0].clone());
            }
        },
        |rec: Record, values: &efind::IndexOutput, out: &mut dyn Collector| {
            let Some(city) = values.first(0).first() else {
                return;
            };
            let Some(f) = rec.value.as_list() else { return };
            out.collect(Record {
                key: rec.key,
                value: Datum::List(vec![city.clone(), f[1].clone(), f[2].clone()]),
            });
        },
    );

    // I2 (body): keywords → topic; applied to Map output
    // `key=[city,day], value=keywords`.
    let topic_op = operator_fn(
        "topic",
        1,
        |rec: &mut Record, keys: &mut efind::IndexInput| {
            keys.put(0, rec.value.clone());
        },
        |rec: Record, values: &efind::IndexOutput, out: &mut dyn Collector| {
            let Some(topic) = values.first(0).first() else {
                return;
            };
            out.collect(Record {
                key: rec.key,
                value: topic.clone(),
            });
        },
    );

    // I3 (tail): (city, day) → events; appended to the top-k topics.
    let events_op = operator_fn(
        "events",
        1,
        |rec: &mut Record, keys: &mut efind::IndexInput| {
            keys.put(0, rec.key.clone());
        },
        |rec: Record, values: &efind::IndexOutput, out: &mut dyn Collector| {
            let mut enriched = rec.value.into_list().unwrap_or_default();
            enriched.extend(values.first(0).iter().cloned());
            out.collect(Record {
                key: rec.key,
                value: Datum::List(enriched),
            });
        },
    );

    let top_k = config.top_k;
    IndexJobConf::new("tweet-topics", "tweets", "topics.out")
        .add_head_index_operator(BoundOperator::new(profile_op).add_index(profiles))
        .set_mapper(mapper_fn(|rec, out, _| {
            // Map: [city, ts, message] → key=[city, day], value=keywords.
            let Some(f) = rec.value.as_list() else { return };
            let day = f[1].as_int().unwrap_or(0) / SECONDS_PER_DAY;
            let message = f[2].as_text().unwrap_or("");
            // Keyword extraction: keep the three longest words.
            let mut words: Vec<&str> = message.split_whitespace().collect();
            words.sort_by_key(|w| std::cmp::Reverse(w.len()));
            words.truncate(3);
            words.sort_unstable();
            out.collect(Record {
                key: Datum::List(vec![f[0].clone(), Datum::Int(day)]),
                value: Datum::Text(words.join(" ")),
            });
        }))
        .add_body_index_operator(BoundOperator::new(topic_op).add_index(classifier))
        .set_reducer(
            reducer_fn(move |key, topics, out, _| {
                let mut counts: BTreeMap<&Datum, usize> = BTreeMap::new();
                for t in &topics {
                    *counts.entry(t).or_insert(0) += 1;
                }
                let mut ranked: Vec<(&Datum, usize)> = counts.into_iter().collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                let top: Vec<Datum> = ranked
                    .into_iter()
                    .take(top_k)
                    .map(|(t, _)| t.clone())
                    .collect();
                out.collect(Record {
                    key,
                    value: Datum::List(top),
                });
            }),
            24,
        )
        .add_tail_index_operator(BoundOperator::new(events_op).add_index(events))
}

/// Builds the full scenario.
pub fn scenario(config: &TopicsConfig) -> Scenario {
    let cluster = Cluster::edbt_testbed();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    dfs.write_file_with_chunks("tweets", generate_tweets(config), config.chunks);
    let profiles = user_profiles(config, &cluster);
    let classifier = Arc::new(TopicClassifier::news());
    let events = event_db(config, &cluster);
    let ijob = build_job(config, profiles, classifier, events);
    Scenario {
        cluster,
        dfs,
        ijob,
        repart_overrides: FxHashMap::default(),
        idxloc_applicable: true,
        efind_config: EFindConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_mode;
    use efind::{Mode, Strategy};

    fn tiny() -> TopicsConfig {
        TopicsConfig {
            num_tweets: 2_000,
            num_users: 150,
            num_cities: 10,
            days: 5,
            chunks: 16,
            ..TopicsConfig::default()
        }
    }

    #[test]
    fn pipeline_produces_enriched_topics() {
        let mut s = scenario(&tiny());
        run_mode(&mut s, "x", Mode::Uniform(Strategy::Cache)).unwrap();
        let out = s.dfs.read_file("topics.out").unwrap();
        assert!(!out.is_empty());
        let mut any_event = false;
        for r in &out {
            let key = r.key.as_list().unwrap();
            assert!(key[0].as_text().unwrap().starts_with("city"));
            let v = r.value.as_list().unwrap();
            assert!(!v.is_empty());
            if v.iter()
                .any(|d| d.as_text().is_some_and(|t| t.starts_with("event-")))
            {
                any_event = true;
            }
        }
        assert!(any_event, "tail operator should attach events");
    }

    #[test]
    fn strategies_agree_on_all_three_operators() {
        let config = tiny();
        let mut outputs = Vec::new();
        for strategy in [Strategy::Baseline, Strategy::Cache, Strategy::Repartition] {
            let mut s = scenario(&config);
            run_mode(&mut s, "x", Mode::Uniform(strategy)).unwrap();
            let mut out = s.dfs.read_file("topics.out").unwrap();
            out.sort();
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn dynamic_index_handles_unseen_keys() {
        // The classifier is computation-based: every keyword combination
        // is a valid key, even ones never generated before.
        let c = TopicClassifier::news();
        use efind::IndexAccessor;
        assert_eq!(
            c.lookup(&Datum::Text("entirely novel words".into())).len(),
            1
        );
    }
}
