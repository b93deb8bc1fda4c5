//! The injection harness every injection suite shares: one composition
//! of the five layers, one [`observe`] and one contract, [`check_cell`].
//!
//! Five layers inject failures into an EFind job: transient index faults
//! ([`FaultPlan`]), node crashes ([`ChaosPlan`]), silent data corruption
//! ([`CorruptionPlan`]), network partitions ([`PartitionPlan`]) and hedged
//! lookups ([`HedgeConfig`]). Every strategy and the adaptive re-plan are
//! rewrites of the plain job (§3, §4), so one contract covers every layer
//! and every combination of them:
//!
//! * **Quiet is plain.** Layers configured but quiet reproduce the hotpath
//!   goldens, and equal the plain run under every mode for any seed.
//! * **Armed is deterministic and right or loud.** Per cell, two runs give
//!   identical observables or an identical error; an `Ok` run has the plain
//!   run's output and finishes no earlier (unless a hedge may win time); an
//!   `Err` is a named fail-fast error of an armed layer: `DataCorruption`
//!   with corruption, `DataLoss` with crashes. Every armed cut heals, so
//!   never `Partitioned`. Each crash is listed by one job of the run
//!   ([`crashes_listed_once`]).
//! * **Every layer fires.** Each layer's mechanisms register work in its
//!   cells, and `Mode::Dynamic` records crashes and partitions.
//!
//! A cell is a seed, a mask of armed layers and a column: a mode over the
//! three-index cell workload, or `Mode::Dynamic` over [`tail_scenario`],
//! whose runs re-plan their tail after the first reduce wave (Fig. 10(b)).
//! Each suite checks its own slice of the pinned matrix ([`pinned_cells`]
//! through [`check_cells`]): `fault_injection`, `node_crash`, `integrity` and
//! `netsplit` each layer alone and the combinations their layers meet in,
//! `injection` all five together and seed-drawn masks. Set `EFIND_SEEDS`
//! to a comma-separated list of integers (decimal or 0x-hex) to sweep
//! other seeds in every suite at once, as `scripts/ci.sh` does.

use std::sync::{Arc, OnceLock};

use super::{
    counter_fingerprint, file_fingerprint, golden_config, multi_index_goldens, obs, seeds_from_env,
    Observables,
};
use efind::{
    operator_fn, BoundOperator, EFindConfig, EFindRuntime, FaultConfig, FaultPlan, HedgeConfig,
    HedgePolicy, IndexInput, IndexJobConf, IndexOutput, MissPolicy, Mode, RetryPolicy, Strategy,
};
use efind_cluster::{
    ChaosPlan, Cluster, CorruptionPlan, DetectorConfig, NodeId, PartitionPlan, SimDuration, SimTime,
};
use efind_common::det::draw_unit;
use efind_common::{fx_hash_bytes, Datum, Error, FxHashMap, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_index::MemTable;
use efind_mapreduce::{mapper_fn, reducer_fn, Collector, JobStats};
use efind_workloads::harness::Scenario;
use efind_workloads::multi::{self, MultiConfig};
use efind_workloads::synthetic::SyntheticConfig;

/// The workload of every matrix cell: three indices, every strategy
/// viable.
pub fn cell_config() -> MultiConfig {
    MultiConfig {
        num_events: 600,
        num_users: 60,
        num_ads: 100,
        num_sites: 40,
        site_value_bytes: 64,
        chunks: 8,
        ..MultiConfig::default()
    }
}

/// The workload of the per-layer scenarios: larger, so breakers trip and
/// replicas matter.
pub fn scenario_config() -> MultiConfig {
    MultiConfig {
        num_events: 1_200,
        num_users: 120,
        num_ads: 200,
        num_sites: 60,
        site_value_bytes: 128,
        chunks: 12,
        ..MultiConfig::default()
    }
}

/// The lookup-heavy synthetic join of the fault scenarios and the
/// integrity repair table (E16).
pub fn lookup_heavy_config() -> SyntheticConfig {
    SyntheticConfig {
        num_records: 24_000,
        key_space: 2_400,
        record_pad: 16,
        index_value_size: 64,
        chunks: 48,
        ..SyntheticConfig::default()
    }
}

/// The workload of the reduce-phase re-plan column (Fig. 10(b)): one map
/// wave, twice as many reducers as the testbed has reduce slots, and a
/// tail operator whose 5 ms lookups of eight distinct keys are worth
/// re-planning once the first reduce wave measured them.
pub fn tail_scenario() -> Scenario {
    let cluster = Cluster::edbt_testbed();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    let records: Vec<Record> = (0..2_400i64)
        .map(|i| Record::new(i, (i * 31) % 500))
        .collect();
    dfs.write_file_with_chunks("in", records, 24);
    let events = MemTable::new(
        "events",
        (0..8i64).map(|i| (Datum::Int(i), vec![Datum::Text(format!("e{i}"))])),
        SimDuration::from_millis(5),
    );
    let enrich = operator_fn(
        "enrich",
        1,
        |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.key.as_int().unwrap_or(0) % 8),
        |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
            let event = values.first(0).first().cloned().unwrap_or(Datum::Null);
            out.collect(Record::new(rec.key, Datum::List(vec![rec.value, event])));
        },
    );
    let ijob = IndexJobConf::new("tail", "in", "out")
        .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
        .set_reducer(
            reducer_fn(|key, values, out, _| out.collect(Record::new(key, values.len() as i64))),
            2 * cluster.total_reduce_slots(),
        )
        .add_tail_index_operator(BoundOperator::new(enrich).add_index(Arc::new(events)));
    Scenario {
        cluster,
        dfs,
        ijob,
        repart_overrides: FxHashMap::default(),
        idxloc_applicable: false,
        efind_config: EFindConfig {
            plan_change_cost_secs: 0.01,
            variance_threshold: 5.0,
            ..EFindConfig::default()
        },
    }
}

pub const MODES: [Mode; 5] = [
    Mode::Uniform(Strategy::Baseline),
    Mode::Uniform(Strategy::Cache),
    Mode::Uniform(Strategy::Repartition),
    Mode::Uniform(Strategy::IndexLocality),
    Mode::Dynamic,
];

/// The matrix's columns: the cell workload under each of [`MODES`], then
/// [`tail_scenario`] under `Mode::Dynamic`.
const COLUMNS: usize = MODES.len() + 1;

/// The scenario column `m` runs.
fn scenario_of(m: usize) -> Scenario {
    if m < MODES.len() {
        multi::scenario(&cell_config())
    } else {
        tail_scenario()
    }
}

/// The mode column `m` runs.
pub fn mode_of(m: usize) -> Mode {
    MODES.get(m).cloned().unwrap_or(Mode::Dynamic)
}

/// The pinned seeds, overridable via `EFIND_SEEDS`.
pub fn seeds() -> Vec<u64> {
    seeds_from_env("EFIND_SEEDS", &[0xEF1D_0001, 0xC0FF_EE42])
}

/// The layers, one bit each, in the order a mask lists them.
pub const LAYERS: [&str; 5] = ["faults", "crashes", "corruption", "partitions", "hedging"];
pub const FAULTS: u8 = 1;
pub const CRASHES: u8 = 1 << 1;
pub const CORRUPTION: u8 = 1 << 2;
pub const PARTITIONS: u8 = 1 << 3;
pub const HEDGING: u8 = 1 << 4;
pub const ALL: u8 = (1 << LAYERS.len()) - 1;

/// A deterministic draw in `[0, 1)` for one parameter of a cell.
pub fn draw(seed: u64, what: &str) -> f64 {
    draw_unit(seed, what, &[])
}

/// A deterministic pick in `0..n`.
pub fn pick(seed: u64, what: &str, n: usize) -> usize {
    ((draw(seed, what) * n as f64) as usize).min(n - 1)
}

/// A fault layer injecting a mixed profile at `rate`: 60 % failures, 20 %
/// hangs, 20 % 4× slowdowns. Sixteen retries make exhaustion unreachable
/// at rates up to 0.2, so the answer stays the plain one.
pub fn faults_at(seed: u64, rate: f64, miss_policy: MissPolicy) -> FaultConfig {
    let mut config = FaultConfig::disabled().with_plan(
        FaultPlan::new(seed)
            .failures(rate * 0.6)
            .timeouts(rate * 0.2)
            .slowdowns(rate * 0.2, 4.0),
    );
    config.retry = RetryPolicy::bounded(
        16,
        SimDuration::from_micros(50),
        SimDuration::from_millis(5),
    );
    config.timeout = Some(SimDuration::from_millis(50));
    config.miss_policy = miss_policy;
    config
}

/// A seeded crash plan whose deaths fall inside a run of `total_nanos`:
/// from an eighth of the way in, spread over the next half.
pub fn chaos_in_window(seed: u64, num_nodes: u16, crashes: usize, total_nanos: u64) -> ChaosPlan {
    ChaosPlan::seeded(
        seed,
        num_nodes,
        crashes,
        SimTime::from_nanos(total_nanos / 8),
        SimDuration::from_nanos(total_nanos / 2),
    )
}

/// What one cell configures: every layer's plan, each quiet or armed.
#[derive(Clone, Debug)]
pub struct Composition {
    pub faults: FaultConfig,
    pub chaos: ChaosPlan,
    pub corruption: CorruptionPlan,
    pub netsplit: PartitionPlan,
    pub detector: DetectorConfig,
    pub hedge: HedgeConfig,
}

impl Composition {
    /// Nothing configured: the plain job.
    pub fn plain() -> Self {
        let c = EFindConfig::default();
        Composition {
            faults: c.faults,
            chaos: c.chaos,
            corruption: c.corruption,
            netsplit: c.netsplit,
            detector: c.detector,
            hedge: c.hedge,
        }
    }

    /// Every layer configured from `seed` yet quiet: a zero-rate fault
    /// plan with a timeout, a zero-crash chaos plan, a zero-rate
    /// corruption plan, an empty partition plan with the default detector,
    /// and a disabled hedge.
    pub fn quiet(seed: u64, num_nodes: u16) -> Self {
        Composition {
            faults: faults_at(seed, 0.0, MissPolicy::Skip),
            chaos: chaos_in_window(seed, num_nodes, 0, 100_000_000),
            corruption: CorruptionPlan::new(seed),
            netsplit: PartitionPlan::new(seed),
            detector: DetectorConfig::default(),
            hedge: HedgeConfig {
                seed,
                ..HedgeConfig::disabled()
            },
        }
    }

    /// The layers of `mask` armed from `seed`, the rest quiet, inside a
    /// run of `total_nanos`.
    pub fn armed(seed: u64, mask: u8, num_nodes: u16, total_nanos: u64) -> Self {
        let mut c = Composition::quiet(seed, num_nodes);
        if mask & FAULTS != 0 {
            let rate = 0.05 + 0.15 * draw(seed, "fault.rate");
            let policy = [
                MissPolicy::Skip,
                MissPolicy::Default(Datum::Text("fallback".into())),
                MissPolicy::FailJob,
            ][pick(seed, "fault.policy", 3)]
            .clone();
            c.faults = faults_at(seed, rate, policy);
        }
        if mask & CRASHES != 0 {
            let crashes = 1 + pick(seed, "chaos.crashes", 2);
            c.chaos = chaos_in_window(seed, num_nodes, crashes, total_nanos);
        }
        if mask & CORRUPTION != 0 {
            // Chunks at half rate, so losing every replica of a chunk
            // stays rare (and fails fast when it happens).
            let rate = 0.05 + 0.10 * draw(seed, "corruption.rate");
            c.corruption = CorruptionPlan::new(seed)
                .chunks(rate * 0.5)
                .shuffle(rate)
                .cache(rate)
                .responses(rate);
        }
        if mask & PARTITIONS != 0 {
            c.netsplit = transient_split(seed, num_nodes, total_nanos);
        }
        if mask & HEDGING != 0 {
            let policy =
                [HedgePolicy::ChargeWinner, HedgePolicy::ChargeBoth][pick(seed, "hedge.policy", 2)];
            c.hedge = HedgeConfig {
                seed,
                threshold: Some(SimDuration::from_nanos(
                    1 + (draw(seed, "hedge.threshold") * 100_000.0) as u64,
                )),
                policy,
            };
        }
        c
    }

    /// This composition's layers in `mask` (the detector goes with the
    /// partitions), the others as in the plain job.
    pub fn only(self, mask: u8) -> Self {
        let mut c = Composition::plain();
        if mask & FAULTS != 0 {
            c.faults = self.faults;
        }
        if mask & CRASHES != 0 {
            c.chaos = self.chaos;
        }
        if mask & CORRUPTION != 0 {
            c.corruption = self.corruption;
        }
        if mask & PARTITIONS != 0 {
            c.netsplit = self.netsplit;
            c.detector = self.detector;
        }
        if mask & HEDGING != 0 {
            c.hedge = self.hedge;
        }
        c
    }

    pub fn apply(&self, config: &mut EFindConfig) {
        config.faults = self.faults.clone();
        config.chaos = self.chaos.clone();
        config.corruption = self.corruption.clone();
        config.netsplit = self.netsplit.clone();
        config.detector = self.detector;
        config.hedge = self.hedge;
    }
}

/// A one-node cut plus a slow link on its neighbour, both drawn from
/// `seed` and both healing inside a run of `total_nanos`.
pub fn transient_split(seed: u64, num_nodes: u16, total_nanos: u64) -> PartitionPlan {
    let node = pick(seed, "split.node", num_nodes as usize) as u16;
    let at = |fraction: f64| SimTime::from_nanos((total_nanos as f64 * fraction) as u64);
    PartitionPlan::new(seed)
        .split(&[NodeId(node)], at(0.1), Some(at(0.5)))
        .slow_link(
            NodeId((node + 1) % num_nodes),
            SimTime::ZERO,
            Some(at(0.75)),
            3.0,
        )
}

/// One run, as the checks see it.
pub struct Run {
    /// Virtual time, per-job makespan, shuffle bytes, counter maps (whole
    /// and without the integrity counters), the output, and what each
    /// layer did (`work.*`). Equal vectors are bit-identical runs.
    pub observed: Observables,
    /// The jobs' stats, for the checks of one layer's counters and ledgers.
    pub jobs: Vec<JobStats>,
    /// Whether the adaptive runtime re-planned mid-job.
    pub replanned: bool,
    /// The output records, sorted: the answer whatever their order.
    pub answer: Vec<Record>,
}

impl Run {
    pub fn get(&self, label: &str) -> u64 {
        self.observed
            .iter()
            .find(|(k, _)| k == label)
            .map_or_else(|| panic!("no observable {label}"), |(_, v)| *v)
    }

    pub fn total_nanos(&self) -> u64 {
        self.get("total.nanos")
    }

    /// The output rows: what the job answered, in file order.
    pub fn output(&self) -> Observables {
        self.rows(|k| k.starts_with("output."))
    }

    pub fn rows(&self, keep: impl Fn(&str) -> bool) -> Observables {
        self.observed
            .iter()
            .filter(|(k, _)| keep(k))
            .cloned()
            .collect()
    }
}

/// How much of one kind of work a job did.
pub type Work = fn(&JobStats) -> u64;

/// The work rows: what each layer's mechanisms did in one job — faults
/// drawn, nodes killed, corruption caught on each of the four surfaces,
/// partitions and slow links seen, transient cuts refuted, tasks re-placed,
/// hedges fired. Across the matrix every row must be nonzero somewhere.
pub const WORK: &[(&str, Work)] = &[
    ("work.faults", |j| {
        count(j, |k| {
            k.ends_with(".fault.failures")
                || k.ends_with(".fault.timeouts")
                || k.ends_with(".fault.slowdowns")
        })
    }),
    ("work.crashes", |j| j.recovery.crashes.len() as u64),
    ("work.corruption.chunks", |j| j.integrity.chunk_rereads),
    ("work.corruption.shuffle", |j| j.integrity.shuffle_refetches),
    ("work.corruption.cache", |j| j.integrity.cache_invalidations),
    ("work.corruption.responses", |j| {
        j.integrity.lookup_refetches
    }),
    ("work.partitions", |j| {
        (j.partition.events + j.partition.slow_links) as u64
    }),
    // A transient cut the detector noticed: suspected, then refuted.
    ("work.partitions.refuted", |j| j.partition.refuted as u64),
    ("work.partitions.replaced", |j| j.partition.replaced_tasks),
    ("work.hedging", |j| {
        count(j, |k| k.ends_with(".hedge.fired"))
    }),
];

/// The sum of the counters whose name `keep` accepts.
fn count(job: &JobStats, keep: impl Fn(&str) -> bool) -> u64 {
    job.counters
        .iter_sorted()
        .into_iter()
        .filter(|(k, _)| keep(k))
        .map(|(_, v)| v as u64)
        .sum()
}

/// A job's counter map without its integrity counters (the job-level
/// `mr.integrity.*` and the per-operator `.integrity.*`): what repaired
/// corruption must leave unchanged.
fn invariant_counter_fingerprint(stats: &JobStats) -> u64 {
    use std::fmt::Write as _;
    let mut text = String::new();
    for (k, v) in stats.counters.iter_sorted() {
        if !k.contains("integrity.") {
            let _ = writeln!(text, "{k}={v}");
        }
    }
    fx_hash_bytes(text.as_bytes())
}

/// Runs `s`'s job under `mode` with `layers` configured.
pub fn observe(mut s: Scenario, mode: &Mode, layers: &Composition) -> Result<Run, Error> {
    layers.apply(&mut s.efind_config);
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let res = rt.run(&s.ijob, mode.clone())?;
    let mut observed: Observables = vec![
        obs("total.nanos", res.total_time.as_nanos()),
        obs("jobs", res.jobs.len() as u64),
    ];
    for (i, job) in res.jobs.iter().enumerate() {
        observed.push(obs(
            format!("job{i}.makespan.nanos"),
            job.makespan().as_nanos(),
        ));
        observed.push(obs(format!("job{i}.shuffle.bytes"), job.shuffle_bytes));
        observed.push(obs(
            format!("job{i}.counters.fingerprint"),
            counter_fingerprint(job),
        ));
        observed.push(obs(
            format!("job{i}.counters.invariant"),
            invariant_counter_fingerprint(job),
        ));
    }
    for &(label, work) in WORK {
        observed.push(obs(label, res.jobs.iter().map(work).sum()));
    }
    observed.push(obs("output.records", res.output.total_records() as u64));
    observed.push(obs(
        "output.fingerprint",
        file_fingerprint(&s.dfs, &s.ijob.output),
    ));
    let mut answer = s
        .dfs
        .read_file(&s.ijob.output)
        .expect("output file missing");
    answer.sort();
    Ok(Run {
        observed,
        jobs: res.jobs,
        replanned: res.replanned,
        answer,
    })
}

/// The plain run of column `m`: its cells' oracle, computed once per test
/// binary when a cell of the column first needs it. A plain run does no
/// layer's work and keeps every ledger empty.
pub fn plain_run(m: usize) -> &'static Run {
    static PLAIN: [OnceLock<Run>; COLUMNS] = [const { OnceLock::new() }; COLUMNS];
    PLAIN[m].get_or_init(|| {
        let mode = mode_of(m);
        let run = observe(scenario_of(m), &mode, &Composition::plain())
            .expect("the plain run must succeed");
        let work = run.rows(|k| k.starts_with("work."));
        assert!(work.iter().all(|(_, v)| *v == 0), "{mode:?}: {work:?}");
        assert!(
            run.jobs
                .iter()
                .all(|j| j.recovery.is_empty() && j.integrity.is_empty() && j.partition.is_empty()),
            "{mode:?}: a plain run filled a ledger"
        );
        run
    })
}

/// The node count of the testbed every scenario here runs on.
pub fn num_nodes() -> u16 {
    Cluster::edbt_testbed().num_nodes()
}

/// How a checked cell ended.
pub enum Outcome {
    /// The plain answer; the run's work rows.
    Answered(Run),
    /// A named fail-fast error.
    FailedFast(Error),
}

/// Runs one armed cell twice and checks the contract; `Err` names the
/// broken clause.
pub fn check_cell(seed: u64, mask: u8, m: usize) -> Result<Outcome, String> {
    let plain = plain_run(m);
    let layers = Composition::armed(seed, mask, num_nodes(), plain.total_nanos());
    let mode = mode_of(m);
    let cell = format!(
        "seed={seed:#x} layers={} column={m} mode={mode:?}",
        mask_names(mask)
    );
    let first = observe(scenario_of(m), &mode, &layers);
    let second = observe(scenario_of(m), &mode, &layers);
    match (first, second) {
        (Ok(a), Ok(b)) => {
            if a.observed != b.observed {
                return Err(format!(
                    "{cell}: nondeterministic\n{:?}\n{:?}",
                    a.observed, b.observed
                ));
            }
            if a.output() != plain.output() {
                return Err(format!(
                    "{cell}: output changed: {:?} vs plain {:?}",
                    a.output(),
                    plain.output()
                ));
            }
            if mask & HEDGING == 0 && a.total_nanos() < plain.total_nanos() {
                return Err(format!(
                    "{cell}: finished at {} ns, before the plain run's {} ns",
                    a.total_nanos(),
                    plain.total_nanos()
                ));
            }
            crashes_listed_once(&a).map_err(|e| format!("{cell}: {e}"))?;
            Ok(Outcome::Answered(a))
        }
        (Err(a), Err(b)) => {
            if format!("{a:?}") != format!("{b:?}") {
                return Err(format!("{cell}: nondeterministic error\n{a:?}\n{b:?}"));
            }
            if !may_fail_fast(mask, &a) {
                return Err(format!(
                    "{cell}: not a fail-fast error of its layers: {a:?}"
                ));
            }
            Ok(Outcome::FailedFast(a))
        }
        (a, b) => Err(format!(
            "{cell}: one run failed, the other did not: {:?} / {:?}",
            a.err(),
            b.err()
        )),
    }
}

/// Whether each crash `run` lists is listed by exactly one of its jobs,
/// inside that job's window — unless a map-side re-plan applied it up
/// front: the job whose ledger records the re-plan's reuse lists those
/// wherever they fall. `Err` names the first crash listed otherwise.
pub fn crashes_listed_once(run: &Run) -> Result<(), String> {
    let mut listed = Vec::new();
    for (i, job) in run.jobs.iter().enumerate() {
        let replan =
            !job.recovery.surviving_tasks.is_empty() || !job.recovery.lost_tasks.is_empty();
        for crash in &job.recovery.crashes {
            if listed.contains(crash) {
                return Err(format!("{crash:?} listed again by job {i} ({})", job.name));
            }
            listed.push(*crash);
            if !replan && !(job.started..=job.finished).contains(&crash.at) {
                return Err(format!(
                    "{crash:?} listed by job {i} ({}), whose window is {:?}..={:?}",
                    job.name, job.started, job.finished
                ));
            }
        }
    }
    Ok(())
}

/// Whether a cell armed with `mask` may end in `err`: a `DataCorruption`
/// naming a chunk whose every replica failed its checksum needs the
/// corruption layer, a `DataLoss` naming a chunk whose every replica died
/// needs the crash layer. `Partitioned` is a cut that never heals, and
/// every armed cut heals, so no cell may end in it. Faults, partitions
/// and hedging alone must answer.
fn may_fail_fast(mask: u8, err: &Error) -> bool {
    match err {
        Error::DataCorruption(msg) => {
            mask & CORRUPTION != 0 && msg.contains("chunk") && msg.contains("checksum")
        }
        Error::DataLoss(msg) => mask & CRASHES != 0 && msg.contains("replica"),
        _ => false,
    }
}

pub fn mask_names(mask: u8) -> String {
    let names: Vec<&str> = (0..LAYERS.len())
        .filter(|&i| mask & (1 << i) != 0)
        .map(|i| LAYERS[i])
        .collect();
    names.join("+")
}

/// A cell of the pinned matrix: a seed, a mask of armed layers and a
/// column: an index into [`MODES`] for the cell workload, or
/// [`TAIL_DYNAMIC`]'s.
pub type Cell = (u64, u8, usize);

/// Columns: the cell workload under all five modes, the four uniform
/// strategies, and `Mode::Dynamic`.
pub const EVERY_MODE: &[usize] = &[0, 1, 2, 3, 4];
pub const UNIFORM_MODES: &[usize] = &[0, 1, 2, 3];
pub const DYNAMIC_MODE: &[usize] = &[4];
/// The column of [`tail_scenario`] under `Mode::Dynamic`, whose runs take
/// the reduce-phase branch of Algorithm 1 (Fig. 10(b)).
pub const TAIL_DYNAMIC: &[usize] = &[MODES.len()];

/// Every pinned seed, under each of the seed's `masks`, under each of
/// `modes`.
pub fn pinned_cells(masks: impl Fn(u64) -> Vec<u8>, modes: &[usize]) -> Vec<Cell> {
    seeds()
        .into_iter()
        .flat_map(|seed| masks(seed).into_iter().map(move |mask| (seed, mask)))
        .flat_map(|(seed, mask)| modes.iter().map(move |&m| (seed, mask, m)))
        .collect()
}

/// Cells that held the contract, each with how it ended.
pub struct Checked(Vec<(Cell, Outcome)>);

impl Checked {
    /// The cells that answered, with their runs.
    pub fn answered(&self) -> impl Iterator<Item = (Cell, &Run)> {
        self.0.iter().filter_map(|(cell, outcome)| match outcome {
            Outcome::Answered(run) => Some((*cell, run)),
            Outcome::FailedFast(_) => None,
        })
    }

    /// One work row, summed over the cells that answered.
    pub fn work(&self, label: &str) -> u64 {
        self.answered().map(|(_, run)| run.get(label)).sum()
    }

    /// Whether some answered `Mode::Dynamic` cell ran a job `filled` holds
    /// for.
    pub fn dynamic_records(&self, filled: impl Fn(&JobStats) -> bool) -> bool {
        self.answered().any(|((_, _, m), run)| {
            matches!(mode_of(m), Mode::Dynamic) && run.jobs.iter().any(&filled)
        })
    }

    /// Asserts no cell failed fast: the slice's layers must always answer.
    pub fn assert_all_answered(&self) {
        for ((seed, mask, m), outcome) in &self.0 {
            if let Outcome::FailedFast(err) = outcome {
                panic!(
                    "seed={seed:#x} layers={} mode={:?} failed: {err}",
                    mask_names(*mask),
                    mode_of(*m)
                );
            }
        }
    }

    /// Asserts every work row in `labels` is nonzero somewhere.
    pub fn assert_work(&self, labels: &[&str]) {
        for label in labels {
            assert!(self.work(label) > 0, "{label}: no cell registered work");
        }
    }
}

/// Checks every cell with [`check_cell`] and panics on the first broken
/// clause. The cells are independent: two threads take half each. Prints
/// how many answered and which failed fast.
pub fn check_cells(cells: Vec<Cell>) -> Checked {
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let halves: Vec<_> = cells
            .chunks(cells.len().div_ceil(2))
            .map(|half| {
                scope.spawn(move || {
                    half.iter()
                        .map(|&(seed, mask, m)| check_cell(seed, mask, m))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|half| half.join().expect("a cell panicked"))
            .collect::<Result<_, _>>()
    })
    .unwrap_or_else(|broken| panic!("{broken}"));
    let checked = Checked(cells.into_iter().zip(outcomes).collect());
    let failed_fast: Vec<String> = checked
        .0
        .iter()
        .filter_map(|((seed, mask, m), outcome)| match outcome {
            Outcome::FailedFast(err) => Some(format!(
                "seed={seed:#x} layers={} mode={:?}: {err}",
                mask_names(*mask),
                mode_of(*m)
            )),
            Outcome::Answered(_) => None,
        })
        .collect();
    println!(
        "{} cells: {} answered, {} failed fast",
        checked.0.len(),
        checked.0.len() - failed_fast.len(),
        failed_fast.len()
    );
    for cell in &failed_fast {
        println!("  {cell}");
    }
    checked
}

/// Asserts that `layers`, configured but quiet, reproduce the hotpath
/// goldens of [`golden_config`] exactly.
pub fn assert_quiet_matches_goldens(layers: &Composition) {
    for (strategy, expected) in multi_index_goldens() {
        let run = observe(
            multi::scenario(&golden_config()),
            &Mode::Uniform(strategy),
            layers,
        )
        .expect("a quiet cell must never fail");
        let kept = run.rows(|k| expected.iter().any(|(e, _)| e == k));
        assert_eq!(kept, expected, "quiet layers perturbed {strategy:?}");
    }
}

/// Whether `layers` change no observable of the plain run of each of
/// the columns `modes`; `Err` names the first mode they perturb.
pub fn equals_plain(layers: &Composition, modes: &[usize]) -> Result<(), String> {
    for &m in modes {
        let mode = mode_of(m);
        let with = observe(scenario_of(m), &mode, layers)
            .map_err(|e| format!("{mode:?}: a quiet cell failed: {e}"))?;
        let plain = plain_run(m);
        if with.observed != plain.observed {
            return Err(format!(
                "{mode:?}: quiet layers perturbed the run\n{:?}\n{:?}",
                with.observed, plain.observed
            ));
        }
    }
    Ok(())
}
