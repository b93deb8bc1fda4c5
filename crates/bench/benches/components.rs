//! Microbenchmarks of the reproduction's hot components: the lookup
//! cache, FM sketch, R\*-tree, shuffle partitioning, carrier
//! encode/decode, and plan enumeration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use efind::cache::{LookupCache, ShadowCache};
use efind::carrier::Carrier;
use efind::cost::{IndexStatsEstimate, OperatorStatsEstimate};
use efind::plan::{optimize_operator, Enumeration};
use efind::CostEnv;
use efind_common::{fx_hash_datum, Datum, FmSketch, Record};
use efind_index::rtree::RStarTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn lru_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");
    g.bench_function("lru_probe_insert_zipfish", |b| {
        let keys: Vec<Datum> = (0..4096).map(|i| Datum::Int((i * i) % 2048)).collect();
        b.iter(|| {
            let mut cache = LookupCache::new(1024);
            for k in &keys {
                if cache.probe(k).is_none() {
                    cache.insert(k.clone(), vec![Datum::Int(1)].into());
                }
            }
            black_box(cache.miss_ratio())
        })
    });
    g.bench_function("shadow_cache_observe", |b| {
        let keys: Vec<Datum> = (0..4096).map(|i| Datum::Int(i % 512)).collect();
        b.iter(|| {
            let mut shadow = ShadowCache::new(1024);
            for k in &keys {
                shadow.observe(k);
            }
            black_box(shadow.miss_ratio())
        })
    });
    g.finish();
}

fn fm_sketch(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");
    g.bench_function("fm_insert_10k", |b| {
        b.iter(|| {
            let mut s = FmSketch::default();
            for i in 0..10_000i64 {
                s.insert(&Datum::Int(i));
            }
            black_box(s.estimate())
        })
    });
    g.finish();
}

fn rtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");
    let mut rng = SmallRng::seed_from_u64(7);
    let points: Vec<([f64; 2], u64)> = (0..20_000)
        .map(|i| ([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)], i))
        .collect();
    g.bench_function("rstar_build_20k", |b| {
        b.iter(|| black_box(RStarTree::bulk(points.iter().copied())))
    });
    let tree = RStarTree::bulk(points.iter().copied());
    g.bench_function("rstar_knn10", |b| {
        let mut q = 0.0f64;
        b.iter(|| {
            q = (q + 13.7) % 100.0;
            black_box(tree.knn([q, 100.0 - q], 10))
        })
    });
    g.finish();
}

fn hashing_and_carrier(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");
    g.bench_function("fx_hash_datum_composite", |b| {
        let k = Datum::composite([Datum::Int(42), Datum::Text("abcdef".into())]);
        b.iter(|| black_box(fx_hash_datum(&k)))
    });
    g.bench_function("carrier_roundtrip", |b| {
        let rec = Record::new(7i64, Datum::Bytes(vec![1u8; 128]));
        // One carrier for every iteration, as a task keeps one for every
        // record.
        let mut carrier = Carrier::default();
        b.iter(|| {
            carrier.open(rec.clone(), 1, |_, keys| keys.put(0, 9i64));
            let r = carrier.encode(Datum::Int(9));
            carrier.decode(r.value).unwrap();
            black_box(carrier.k1());
        })
    });
    g.finish();
}

fn planner(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");
    let env = CostEnv {
        bw_bytes_per_sec: 125.0e6,
        f_per_byte: 2.0e-8,
        t_cache_secs: 1.0e-6,
        lookup_latency_secs: 1.0e-4,
        shuffle_secs_per_byte: 3.6e-8,
        job_overhead_secs: 0.02,
        reduce_parallelism: 48.0,
        parallelism: 96.0,
    };
    let op = OperatorStatsEstimate {
        n1: 1.0e6,
        s1: 120.0,
        spre: 100.0,
        spost: 80.0,
        smap: 60.0,
        indices: (0..5)
            .map(|j| IndexStatsEstimate {
                nik: 1.0,
                sik: 9.0,
                siv: 100.0 * (j + 1) as f64,
                tj_secs: 5.0e-4,
                miss_ratio: 0.2 * j as f64,
                theta: 1.0 + j as f64 * 3.0,
                has_partition_scheme: j % 2 == 0,
                shuffleable: true,
                partitions: if j % 2 == 0 { 32 } else { 0 },
                failure_rate: 0.0,
            })
            .collect(),
    };
    g.bench_function("full_enumerate_5_indices", |b| {
        b.iter(|| {
            black_box(optimize_operator(
                &op,
                &env,
                efind::Placement::Body,
                Enumeration::Full,
            ))
        })
    });
    g.bench_function("krepart2_5_indices", |b| {
        b.iter(|| {
            black_box(optimize_operator(
                &op,
                &env,
                efind::Placement::Body,
                Enumeration::KRepart(2),
            ))
        })
    });
    g.finish();
}

criterion_group!(
    components,
    lru_cache,
    fm_sketch,
    rtree,
    hashing_and_carrier,
    planner
);
criterion_main!(components);
