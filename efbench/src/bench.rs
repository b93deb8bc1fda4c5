//! One run of one workload: the untraced run that measures the
//! end-to-end metrics, and the traced run that measures the layers.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use efind_common::{Error, Result};
use efind_mapreduce::JobStats;

use crate::alloc::counted;
use crate::digest::Digest;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::pipeline::Layers;
use crate::stats::{median, quartiles, tail};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, counter_sum, file_digest, Ran, Scale, SetupTimes, Workload};

/// Fewest times the scenario is built in an untraced run; `setup_s` is
/// the median. A cheap set-up is repeated until a tenth of `--seconds` is
/// spent, so that a 30 ms set-up is not a median of three.
const MIN_SETUPS: usize = 3;
/// Most times the scenario is built.
const MAX_SETUPS: usize = 15;
/// Discarded iterations before anything is timed.
const WARMUPS: usize = 2;
/// Fewest timed iterations of each pass of a traced run. A pass goes on
/// past them until it has used an eighth of `--seconds`.
const MIN_PASS_ITERS: usize = 2;
/// Most timed iterations of a pass.
const MAX_PASS_ITERS: usize = 30;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of every generator.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where a traced run writes its spans; `None` keeps them in memory.
    pub trace_dir: Option<PathBuf>,
    /// The `efbench` executable an untraced run starts its memory probe
    /// in, as a child process; `None` probes in this process (tests, whose
    /// own executable is not `efbench`).
    pub probe_exe: Option<PathBuf>,
}

/// What a run found.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations that returned an error, wrote an output whose digest is
    /// not the reference, or reported another virtual time than the first.
    pub failed: u64,
    /// The metrics, in manifest order.
    pub metrics: Vec<Metric>,
    /// Annotations for the human-readable report (sample count, tail).
    pub notes: Vec<String>,
}

impl RunResult {
    /// True when no iteration failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line the harness contract asks for.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Verdicts on iterations: every one is held against the in-bench oracle
/// and against the first iteration's virtual time.
struct Verifier {
    reference: Digest,
    virtual_s: Option<f64>,
    attempted: u64,
    failed: u64,
}

impl Verifier {
    fn new(reference: Digest) -> Self {
        Verifier {
            reference,
            virtual_s: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one finished iteration; true when it counts.
    fn check(&mut self, workload: &dyn Workload, ran: &Result<Ran>) -> bool {
        self.attempted += 1;
        let ok = match ran {
            Err(e) => {
                eprintln!("efbench: iteration failed: {e}");
                false
            }
            Ok(ran) => {
                let same_time = *self.virtual_s.get_or_insert(ran.virtual_s) == ran.virtual_s;
                let same_answer = file_digest(workload.dfs(), workload.output_file())
                    .is_ok_and(|digest| digest == self.reference);
                if !same_time {
                    eprintln!("efbench: virtual time changed between iterations");
                }
                if !same_answer {
                    eprintln!("efbench: output digest differs from the reference");
                }
                same_time && same_answer
            }
        };
        self.failed += u64::from(!ok);
        ok
    }
}

/// Runs one workload as the arguments say.
pub fn run(args: &RunArgs) -> Result<RunResult> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

/// What the memory probe of an untraced run found.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryProbe {
    /// Iterations attempted (a warm-up and the counted one).
    pub attempted: u64,
    /// Iterations that failed verification.
    pub failed: u64,
    /// Heap bytes the counted iteration requested.
    pub alloc_bytes: u64,
    /// `VmHWM` of the probing process after the counted iteration, kB.
    pub peak_rss_kb: u64,
    /// Virtual makespan the probe's iterations reported.
    pub virtual_s: f64,
}

impl MemoryProbe {
    /// The line a probing child process prints.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"alloc_bytes\": {}, \"peak_rss_kb\": {}, \
             \"virtual_s\": {}}}",
            self.attempted, self.failed, self.alloc_bytes, self.peak_rss_kb, self.virtual_s
        )
    }

    fn from_json_line(line: &str) -> Option<MemoryProbe> {
        let doc = crate::json::Value::parse(line).ok()?;
        let num = |key: &str| doc.get(key)?.as_f64();
        Some(MemoryProbe {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            alloc_bytes: num("alloc_bytes")? as u64,
            peak_rss_kb: num("peak_rss_kb")? as u64,
            virtual_s: num("virtual_s")?,
        })
    }
}

/// The memory side of an untraced run: pinned to one CPU from the start,
/// the scenario is built once and the job run twice, the second time with
/// allocation counting on. One worker thread makes `alloc_mb` repeat
/// exactly for a seed. Meant to run in a process of its own, so that the
/// peak resident size is this sequence's and nothing else's.
pub fn memory_probe(args: &RunArgs) -> Result<MemoryProbe> {
    sys::pin_to_one_cpu();
    let mut workload = workloads::setup(
        &args.workload,
        args.seed,
        args.scale,
        &mut SetupTimes::default(),
    )?;
    let mut verifier = Verifier::new(workload.reference());
    workload.prepare();
    let ran = workload.run();
    verifier.check(&*workload, &ran);
    workload.prepare();
    let (ran, allocs) = counted(|| workload.run());
    verifier.check(&*workload, &ran);
    Ok(MemoryProbe {
        attempted: verifier.attempted,
        failed: verifier.failed,
        alloc_bytes: allocs.bytes,
        peak_rss_kb: sys::peak_rss_kb(),
        virtual_s: verifier.virtual_s.unwrap_or(0.0),
    })
}

/// Runs [`memory_probe`] in a child process of `exe` and waits for it.
fn memory_probe_in_child(exe: &std::path::Path, args: &RunArgs) -> Result<MemoryProbe> {
    let child = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--memory-probe"])
        .args(["--seed", &args.seed.to_string()])
        // One malloc arena: with glibc's per-thread arenas the peak depends
        // on which arena each phase's worker thread happens to be handed
        // (136 to 195 MB on `q9_adaptive` for one seed); with one it
        // repeats to a tenth of a percent.
        .env("MALLOC_ARENA_MAX", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| Error::Internal(format!("cannot start {}: {e}", exe.display())))?;
    String::from_utf8_lossy(&child.stdout)
        .lines()
        .last()
        .and_then(MemoryProbe::from_json_line)
        .ok_or_else(|| Error::Internal("the memory probe printed no result".into()))
}

/// The end-to-end run: set-up (several times), warm-up, a timed closed
/// loop of complete jobs for `seconds`, then the memory probe.
fn run_untraced(args: &RunArgs) -> Result<RunResult> {
    let cpus = sys::cpus();
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    let setups_started = Instant::now();
    let setup_budget = Duration::from_secs_f64(args.seconds / 10.0);
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setups_started.elapsed() < setup_budget)
    {
        // Release the previous scenario first, as a user's single set-up
        // would find the heap.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(workloads::setup(
            &args.workload,
            args.seed,
            args.scale,
            &mut SetupTimes::default(),
        )?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("MIN_SETUPS is at least one");
    let mut verifier = Verifier::new(workload.reference());

    for _ in 0..WARMUPS {
        workload.prepare();
        let ran = workload.run();
        verifier.check(&*workload, &ran);
    }

    let mut wall_ms = Vec::new();
    let mut cpu_ms = Vec::new();
    let loop_started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    loop {
        workload.prepare();
        let cpu_before = sys::process_cpu_ns();
        let started = Instant::now();
        let ran = workload.run();
        let wall = started.elapsed();
        let cpu = sys::process_cpu_ns() - cpu_before;
        if verifier.check(&*workload, &ran) {
            wall_ms.push(wall.as_secs_f64() * 1e3);
            cpu_ms.push(cpu as f64 / 1e6);
        }
        if loop_started.elapsed() >= budget {
            break;
        }
    }
    drop(workload);

    let probe = match &args.probe_exe {
        Some(exe) => memory_probe_in_child(exe, args)?,
        None => memory_probe(args)?,
    };
    let virtual_s = verifier.virtual_s.unwrap_or(0.0);
    if probe.virtual_s != virtual_s {
        eprintln!("efbench: the memory probe reports another virtual time than the timed loop");
        verifier.failed += 1;
    }

    let values = [
        median(&wall_ms),
        median(&cpu_ms),
        probe.alloc_bytes as f64 / 1e6,
        probe.peak_rss_kb as f64 / 1e3,
        virtual_s,
        median(&setup_s),
    ];
    let mut notes = vec![format!(
        "n = {} timed iterations on {cpus} cpus, {WARMUPS} warm-ups, {} set-ups",
        wall_ms.len(),
        setup_s.len()
    )];
    if let Some([q1, _, q3]) = quartiles(&wall_ms) {
        let min = wall_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let max = wall_ms.iter().copied().fold(0.0, f64::max);
        notes.push(format!(
            "wall_ms min {min:.1}, quartiles {q1:.1} / {q3:.1}, max {max:.1}"
        ));
    }
    match tail(&wall_ms) {
        Some((p, v)) => notes.push(format!("wall_ms_tail = {v:.3} ms at p{p:.1}")),
        None => notes.push("wall_ms_tail: fewer than 11 samples, no tail reported".to_owned()),
    }
    Ok(RunResult {
        attempted: verifier.attempted + probe.attempted,
        failed: verifier.failed + probe.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| Metric::new(m.name, m.unit, v))
            .collect(),
        notes,
    })
}

/// The per-layer run. The checks that need runs of their own come first,
/// then an unpinned pass gives the multi-CPU wall time; the process then
/// pins itself to one CPU and runs pass A (untraced) and pass B (spans and
/// replays), both with allocation counting on. All passes must agree on
/// virtual time and output.
fn run_traced(args: &RunArgs) -> Result<RunResult> {
    let cpus = sys::cpus();
    let mut times = SetupTimes::default();
    let mut workload = workloads::setup(&args.workload, args.seed, args.scale, &mut times)?;
    let mut verifier = Verifier::new(workload.reference());
    let mut layers = Layers::default();

    if let Err(e) = workload.sweep(&mut layers) {
        eprintln!("efbench: {e}");
        verifier.attempted += 1;
        verifier.failed += 1;
    }

    let pass = PassBudget(Duration::from_secs_f64(args.seconds / 8.0));
    let (wall_ncpu, _) = untraced_pass(&mut *workload, &mut verifier, &pass, 1);
    let pinned = sys::pin_to_one_cpu();
    let (wall_1cpu, alloc_calls) = untraced_pass(&mut *workload, &mut verifier, &pass, 1);

    let mut tracer = Tracer::new();
    let mut samples: Vec<Layers> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut last_jobs: Vec<JobStats> = Vec::new();
    let mut replans = 0u32;
    let started = Instant::now();
    while pass.wants_more(started, samples.len()) {
        workload.prepare();
        let mut sample = Layers::default();
        tracer.start_iteration(traced_ms.len() as u32);
        let (ran, _) = counted(|| workload.run_traced(&mut tracer, &mut sample));
        let iteration_ms = tracer.iteration_ns() as f64 / 1e6;
        if !verifier.check(&*workload, &ran) {
            break;
        }
        // Every top-level span belongs to a layer, its self time included;
        // what no span covers is the time between them.
        let in_spans_ms = tracer.top_level_ns(traced_ms.len() as u32) as f64 / 1e6;
        sample.set(
            "bench.unattributed_share",
            (1.0 - ratio(in_spans_ms, iteration_ms)).clamp(0.0, 1.0),
        );
        traced_ms.push(iteration_ms);
        samples.push(sample);
        if let Ok(ran) = ran {
            last_jobs = ran.jobs;
            replans = ran.replans;
        }
    }

    // Medians per iteration; counts are the same on every iteration.
    for m in &PER_LAYER {
        if !samples.is_empty() && samples.iter().any(|s| s.has(m.name)) {
            let per_iter: Vec<f64> = samples.iter().map(|s| s.get(m.name)).collect();
            layers.set(m.name, median(&per_iter));
        }
    }
    layers.set("workloads.generate_ms", times.generate_ns as f64 / 1e6);
    layers.set("index.build_ms", times.index_build_ns as f64 / 1e6);
    layers.set("dfs.load_ms", times.dfs_load_ns as f64 / 1e6);
    layers.set("bench.wall_ms_ncpu", wall_ncpu);
    layers.set("bench.wall_ms_1cpu", wall_1cpu);
    layers.set("bench.parallel_speedup", ratio(wall_1cpu, wall_ncpu));
    layers.set("bench.trace_overhead", ratio(median(&traced_ms), wall_1cpu));
    layers.set("bench.allocs", alloc_calls);
    layers.set("core.replans", f64::from(replans));
    counter_layers(&*workload, &last_jobs, &mut layers);

    if let Some(dir) = &args.trace_dir {
        let path = dir.join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = tracer.write_jsonl(&path, &args.workload) {
            eprintln!("efbench: cannot write {}: {e}", path.display());
        }
    }
    Ok(RunResult {
        attempted: verifier.attempted,
        failed: verifier.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| Metric::new(m.name, m.unit, layers.get(m.name)))
            .collect(),
        notes: vec![format!(
            "{cpus} cpus before pinning, pinned to one: {pinned}; {} traced iterations",
            samples.len()
        )],
    })
}

/// How long a pass of a traced run keeps iterating.
struct PassBudget(Duration);

impl PassBudget {
    fn wants_more(&self, started: Instant, done: usize) -> bool {
        done < MIN_PASS_ITERS || (done < MAX_PASS_ITERS && started.elapsed() < self.0)
    }
}

/// `warmups` discarded iterations, then timed untraced ones with
/// allocation counting on: median wall milliseconds and allocator calls.
fn untraced_pass(
    workload: &mut dyn Workload,
    verifier: &mut Verifier,
    pass: &PassBudget,
    warmups: usize,
) -> (f64, f64) {
    for _ in 0..warmups {
        workload.prepare();
        let ran = workload.run();
        verifier.check(workload, &ran);
    }
    let mut wall_ms = Vec::new();
    let mut allocs = Vec::new();
    let pass_started = Instant::now();
    while pass.wants_more(pass_started, wall_ms.len()) {
        workload.prepare();
        let started = Instant::now();
        let (ran, count) = counted(|| workload.run());
        let wall = started.elapsed();
        if !verifier.check(workload, &ran) {
            break;
        }
        wall_ms.push(wall.as_secs_f64() * 1e3);
        allocs.push(count.calls as f64);
    }
    (median(&wall_ms), median(&allocs))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The count and virtual-time metrics that come out of the job's own
/// counters and ledgers.
fn counter_layers(workload: &dyn Workload, jobs: &[JobStats], layers: &mut Layers) {
    let sum = |suffix: &str| counter_sum(jobs, suffix) as f64;
    let keys = sum(".nik");
    let lookups = sum(".lookups");
    layers.set("core.lookup_keys", keys);
    layers.set("core.lookups", lookups);
    let dedup = if keys > 0.0 {
        1.0 - lookups / keys
    } else {
        0.0
    };
    layers.set("core.lookup_dedup_ratio", dedup.max(0.0));
    layers.set(
        "core.cache.hit_ratio",
        ratio(sum(".cache.hits"), sum(".cache.probes")),
    );
    layers.set("core.fault.retries", sum(".fault.retries"));
    layers.set("core.hedge.fired", sum(".hedge.fired"));
    layers.set("core.hedge.wins", sum(".hedge.wins"));
    layers.set("core.integrity.refetches", sum(".integrity.refetch"));
    layers.set("core.virtual.serve_s", sum(".tj.nanos") / 1e9);
    layers.set("core.virtual.backoff_s", sum(".fault.backoff.nanos") / 1e9);

    let (cluster, dfs) = (workload.cluster(), workload.dfs());
    let bandwidth = cluster.network.bandwidth_bytes_per_sec;
    layers.set(
        "core.virtual.transfer_s",
        (sum(".sik.bytes") + sum(".siv.bytes")) / bandwidth,
    );
    let t_cache = efind::EFindConfig::default().t_cache.as_secs_f64();
    layers.set("core.virtual.cache_probe_s", sum(".cache.probes") * t_cache);

    let mut shuffle_bytes = 0u64;
    let (mut records_in, mut records_out) = (0u64, 0u64);
    let (mut rereads, mut quarantined) = (0u64, 0usize);
    let (mut crashed, mut replaced, mut suspected, mut refuted) = (0usize, 0u64, 0usize, 0usize);
    for job in jobs {
        shuffle_bytes += job.shuffle_bytes;
        records_in += job.map.tasks.iter().map(|t| t.input_records).sum::<u64>();
        let last_phase = job.reduce.as_ref().unwrap_or(&job.map);
        records_out += last_phase
            .tasks
            .iter()
            .map(|t| t.output_records)
            .sum::<u64>();
        rereads += job.integrity.chunk_rereads;
        quarantined += job.integrity.quarantined_replicas;
        crashed += job.recovery.crashed_attempts;
        replaced += job.partition.replaced_tasks;
        suspected += job.partition.suspected;
        refuted += job.partition.refuted + job.partition.false_positives;
    }
    layers.set("mapreduce.shuffle_bytes", shuffle_bytes as f64);
    layers.set("mapreduce.records_in", records_in as f64);
    layers.set("mapreduce.records_out", records_out as f64);
    layers.set(
        "mapreduce.virtual.shuffle_s",
        cluster.network.volume(shuffle_bytes).as_secs_f64(),
    );
    layers.set(
        "dfs.virtual.io_s",
        (dfs.retrieve_cost_local(layers.get("dfs.bytes_read") as u64)
            + dfs.store_cost(layers.get("dfs.bytes_written") as u64))
        .as_secs_f64(),
    );
    layers.set("dfs.rereads", rereads as f64);
    layers.set("dfs.replicas_quarantined", quarantined as f64);
    layers.set("cluster.crashed_attempts", crashed as f64);
    layers.set("cluster.replaced_tasks", replaced as f64);
    layers.set("cluster.suspected", suspected as f64);
    layers.set("cluster.refuted", refuted as f64);
}
