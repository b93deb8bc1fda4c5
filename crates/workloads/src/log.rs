//! The LOG workload (§5.1, Fig. 11(a)).
//!
//! A synthetic stand-in for the paper's real web-log trace: *"An event
//! record consists of: event ID, timestamp, source IP, visited URL … The
//! application computes the top-k frequently visited URLs in each
//! geographical region. It uses a cloud service to look up the
//! geographical region for an IP address."*
//!
//! The paper attributes the cache and re-partitioning wins to the trace's
//! redundancy structure: *"an IP often visits multiple URLs in a short
//! period of time. The visits are often served by two or more web servers,
//! and recorded in two or more log files."* The generator reproduces both:
//! visits come in per-IP bursts (local redundancy within a log file), and
//! each burst is striped across several server streams (cross-machine
//! redundancy across files).

use std::sync::Arc;

use efind::{operator_fn, BoundOperator, EFindConfig, IndexJobConf};
use efind_cluster::{Cluster, SimDuration};
use efind_common::{fx_hash_bytes, Datum, FxHashMap, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_index::RemoteService;
use efind_mapreduce::{mapper_fn, reducer_fn, Collector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::Scenario;

/// LOG experiment configuration.
#[derive(Clone, Debug)]
pub struct LogConfig {
    /// Total events (paper: 15 M; scaled default 60 k).
    pub num_events: usize,
    /// Distinct source IPs.
    pub num_ips: usize,
    /// Distinct URLs.
    pub num_urls: usize,
    /// Visits per IP burst.
    pub burst_len: usize,
    /// Server streams a burst is striped over (log files).
    pub server_streams: usize,
    /// Geographical regions the service maps IPs onto.
    pub num_regions: usize,
    /// Extra per-lookup delay added to the 0.8 ms base (the Fig. 11(a)
    /// sweep: 0–5 ms).
    pub extra_delay: SimDuration,
    /// Top-k URLs reported per region.
    pub top_k: usize,
    /// Input chunks (map tasks); > total map slots enables multi-wave
    /// adaptive optimization.
    pub chunks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            num_events: 60_000,
            num_ips: 2_000,
            num_urls: 500,
            burst_len: 9,
            server_streams: 3,
            num_regions: 50,
            extra_delay: SimDuration::ZERO,
            top_k: 10,
            chunks: 240,
            seed: 0x106,
        }
    }
}

/// Generates the event log: `key = event id`,
/// `value = [ip, url, timestamp]`.
pub fn generate(config: &LogConfig) -> Vec<Record> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut streams: Vec<Vec<(String, String, i64)>> =
        vec![Vec::new(); config.server_streams.max(1)];
    let mut ts = 0i64;
    let mut produced = 0usize;
    while produced < config.num_events {
        let ip = format!(
            "10.{}.{}.{}",
            rng.gen_range(0..250),
            rng.gen_range(0..250),
            rng.gen_range(0..config.num_ips) % 250
        );
        let burst = config.burst_len.min(config.num_events - produced).max(1);
        let n_streams = streams.len();
        for v in 0..burst {
            let url = format!("/page/{}", rng.gen_range(0..config.num_urls));
            streams[v % n_streams].push((ip.clone(), url, ts));
            ts += 1;
            produced += 1;
        }
    }
    let mut records = Vec::with_capacity(config.num_events);
    let mut id = 0i64;
    for stream in streams {
        for (ip, url, ts) in stream {
            records.push(Record::new(
                id,
                Datum::List(vec![Datum::Text(ip), Datum::Text(url), Datum::Int(ts)]),
            ));
            id += 1;
        }
    }
    records
}

/// The geo-IP cloud service: a single-host remote index mapping an IP
/// string deterministically onto a region.
pub fn geo_service(config: &LogConfig) -> RemoteService {
    let regions = config.num_regions.max(1) as u64;
    RemoteService::new(
        "geoip",
        RemoteService::BASE_DELAY + config.extra_delay,
        move |key| match key.as_text() {
            Some(ip) => vec![Datum::Text(format!(
                "region{}",
                fx_hash_bytes(ip.as_bytes()) % regions
            ))],
            None => Vec::new(),
        },
    )
}

/// Builds the enhanced job: head geo-IP operator, identity Map, top-k
/// Reduce per region.
pub fn build_job(config: &LogConfig, service: Arc<RemoteService>) -> IndexJobConf {
    let top_k = config.top_k;
    let geo_op = operator_fn(
        "geoip",
        1,
        |rec: &mut Record, keys: &mut efind::IndexInput| {
            if let Some(fields) = rec.value.as_list() {
                keys.put(0, fields[0].clone());
                // Projection: only the URL is needed downstream.
                rec.value = fields[1].clone();
            }
        },
        |rec: Record, values: &efind::IndexOutput, out: &mut dyn Collector| {
            if let Some(region) = values.first(0).first() {
                out.collect(Record {
                    key: region.clone(),
                    value: rec.value,
                });
            }
        },
    );
    IndexJobConf::new("log-topk", "log.events", "log.topk")
        .add_head_index_operator(BoundOperator::new(geo_op).add_index(service))
        .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
        .set_reducer(
            reducer_fn(move |region, urls, out, _| {
                let mut counts: FxHashMap<&Datum, usize> = FxHashMap::default();
                for url in &urls {
                    *counts.entry(url).or_insert(0) += 1;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "ranked is re-sorted below with a total-order tiebreak"
                )]
                let mut ranked: Vec<(&Datum, usize)> = counts.drain().collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                let top: Vec<Datum> = ranked
                    .into_iter()
                    .take(top_k)
                    .flat_map(|(url, n)| [url.clone(), Datum::Int(n as i64)])
                    .collect();
                out.collect(Record {
                    key: region,
                    value: Datum::List(top),
                });
            }),
            24,
        )
}

/// Builds the full scenario (cluster, loaded DFS, job).
pub fn scenario(config: &LogConfig) -> Scenario {
    let cluster = Cluster::edbt_testbed();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    dfs.write_file_with_chunks("log.events", generate(config), config.chunks);
    let service = Arc::new(geo_service(config));
    let ijob = build_job(config, service);
    Scenario {
        cluster,
        dfs,
        ijob,
        // Single operator: force the strategy everywhere.
        repart_overrides: FxHashMap::default(),
        // The geo service is a single host — index locality does not apply
        // (the paper notes exactly this for LOG).
        idxloc_applicable: false,
        efind_config: EFindConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LogConfig {
        LogConfig {
            num_events: 3_000,
            num_ips: 100,
            num_urls: 50,
            chunks: 24,
            ..LogConfig::default()
        }
    }

    #[test]
    fn generator_produces_requested_volume() {
        let recs = generate(&small());
        assert_eq!(recs.len(), 3_000);
        // All records well-formed.
        for r in recs.iter().take(50) {
            let fields = r.value.as_list().unwrap();
            assert_eq!(fields.len(), 3);
            assert!(fields[0].as_text().unwrap().starts_with("10."));
        }
    }

    #[test]
    fn bursts_create_local_and_cross_stream_redundancy() {
        let config = small();
        let recs = generate(&config);
        // Count repeated IPs within a sliding window (local redundancy).
        let ips: Vec<&str> = recs
            .iter()
            .map(|r| r.value.as_list().unwrap()[0].as_text().unwrap())
            .collect();
        let mut local_repeats = 0;
        for w in ips.windows(8) {
            if w[1..].contains(&w[0]) {
                local_repeats += 1;
            }
        }
        assert!(
            local_repeats > recs.len() / 10,
            "expected bursty IPs, got {local_repeats} repeats"
        );
    }

    #[test]
    fn geo_service_is_deterministic() {
        use efind::IndexAccessor;
        let svc = geo_service(&small());
        let k = Datum::Text("10.1.2.3".into());
        assert_eq!(svc.lookup(&k), svc.lookup(&k));
        assert_eq!(svc.lookup(&k).len(), 1);
    }

    #[test]
    fn job_end_to_end_topk() {
        let mut s = scenario(&small());
        let mut rt = efind::EFindRuntime::new(&s.cluster, &mut s.dfs);
        rt.run(&s.ijob, efind::Mode::Uniform(efind::Strategy::Cache))
            .unwrap();
        let out = rt.dfs.read_file("log.topk").unwrap();
        assert!(!out.is_empty());
        for r in &out {
            assert!(r.key.as_text().unwrap().starts_with("region"));
            let top = r.value.as_list().unwrap();
            assert!(top.len() <= 2 * 10);
            // Counts are descending.
            let counts: Vec<i64> = top
                .iter()
                .skip(1)
                .step_by(2)
                .map(|d| d.as_int().unwrap())
                .collect();
            for w in counts.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }
}
