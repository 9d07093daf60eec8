//! The three workloads: how each is set up, what one operation is, and
//! the timed loop that measures the end-to-end metrics.

use crate::checks;
use crate::sys::{cpu_seconds, median, peak_rss_mib, secs_since};
use crate::trace::{self, Tracer};
use givetake::core::{PaperRun, Pipeline, PipelineOptions};
use givetake::sim::faults::ChaosProfile;
use givetake::sim::SimDuration;
use givetake::store::{Digest, RunStore};
use givetake::world::{World, WorldConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// World scale of every workload. A scale-0.3 pipeline run takes about
/// 20 s here, so a run would hold one operation; at 0.1 it holds several
/// and reports their median (see README.md).
pub const SCALE: f64 = 0.1;
/// World seed of every workload: `WorldConfig::default()`'s. It is fixed
/// because `World::generate` panics on some seeds (see README.md); the
/// run's `--seed` varies the warm lag sets and the traced sample.
pub const WORLD_SEED: u64 = 0x61BE_5CA1;
/// Fault seed of `chaos-2t`. Fixed, so every world seed meets the same
/// fault plan (the plan depends only on this seed and the calendar).
pub const CHAOS_SEED: u64 = 7;
/// Set-up generates the world again and again for this long (and at
/// least `MIN_GENERATIONS` times); `setup_s` reports the median time.
const GENERATE_SECONDS: f64 = 2.0;
const MIN_GENERATIONS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Clean run, 1 thread, no store: the single-thread baseline.
    Paper1t,
    /// Default chaos profile, 2 threads, fresh store per operation.
    Chaos2t,
    /// Warm store, 1 thread: reload the world, rerun with a new lag set.
    RerunWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper1t, Workload::Chaos2t, Workload::RerunWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper1t => "paper-1t",
            Workload::Chaos2t => "chaos-2t",
            Workload::RerunWarm => "rerun-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn threads(self) -> usize {
        match self {
            Workload::Chaos2t => 2,
            Workload::Paper1t | Workload::RerunWarm => 1,
        }
    }

    fn clean(self) -> bool {
        self != Workload::Chaos2t
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced pass writes its Chrome trace.
    pub out_dir: PathBuf,
}

impl Args {
    pub fn trace_file(&self) -> PathBuf {
        self.out_dir
            .join(format!("trace-{}-{}.json", self.workload.name(), self.seed))
    }
}

/// What the benchmark prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// A store primed by one cold run, shared by every `rerun-warm`
/// operation of a run (one per telemetry setting: telemetry is part of
/// the store's cache key).
struct Primed {
    dir: PathBuf,
    world_fpr: Digest,
    run: PaperRun,
    /// The stage records the priming run wrote. Every warm operation
    /// meets exactly these: the one it adds is removed after it.
    records: Vec<PathBuf>,
}

pub struct Setup {
    pub world: World,
    /// Median world-generation time.
    pub generate_s: f64,
    pub setup_s: f64,
    primed_on: Option<Primed>,
    primed_off: Option<Primed>,
}

/// One finished operation.
pub struct Op {
    pub run: PaperRun,
    pub started: Instant,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Wall time of the `Pipeline::run` call alone.
    pub pipeline_s: f64,
    /// The store the operation used, for the traced pass to replay.
    pub store_dir: Option<PathBuf>,
    /// For `rerun-warm`: the store's world fingerprint.
    pub world_fpr: Option<Digest>,
}

fn world_config() -> WorldConfig {
    let mut config = WorldConfig::scaled(SCALE);
    config.seed = WORLD_SEED;
    config
}

/// Run one workload: set up, loop operations for `seconds`, check each.
pub fn run(args: &Args, scratch: &Path, tracer: &mut Tracer) -> Result<Outcome, String> {
    let setup = set_up(args, scratch, tracer)?;
    let mut correct = true;
    let mut note = |what: &str, result: Result<(), String>| {
        if let Err(e) = result {
            eprintln!("check failed ({what}): {e}");
            correct = false;
        }
    };
    for primed in [&setup.primed_on, &setup.primed_off].into_iter().flatten() {
        note(
            "priming run",
            checks::check_run(&setup.world, &primed.run, true),
        );
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut walls_on = Vec::new();
    let mut walls_off = Vec::new();
    let mut cpus = Vec::new();
    let mut last_on: Option<Op> = None;
    let start = Instant::now();
    let mut index = 0usize;
    // Whole rounds: timed runs do one operation per round; traced runs
    // do a telemetry-on and a telemetry-off operation per round.
    let round: &[bool] = if args.trace { &[true, false] } else { &[true] };
    while index == 0 || secs_since(start) < args.seconds {
        for &telemetry in round {
            attempted += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                operation(args, &setup, scratch, index, telemetry)
            }));
            index += 1;
            let op = match outcome {
                Ok(Ok(op)) => op,
                Ok(Err(e)) => {
                    eprintln!("operation {index} failed: {e}");
                    failed += 1;
                    continue;
                }
                Err(_) => {
                    eprintln!("operation {index} panicked");
                    failed += 1;
                    continue;
                }
            };
            note(
                "run",
                checks::check_run(&setup.world, &op.run, args.workload.clean()),
            );
            if args.workload == Workload::RerunWarm {
                let primed = if telemetry {
                    &setup.primed_on
                } else {
                    &setup.primed_off
                };
                let primed = primed.as_ref().expect("rerun-warm primes its store");
                if telemetry {
                    // Telemetry off records no counters; the tables
                    // are checked either way.
                    let counts = &op.run.telemetry;
                    note(
                        "warm rerun",
                        checks::warm_counts(
                            counts.substrate_total("store", "cache_hit"),
                            counts.substrate_total("store", "cache_miss"),
                        ),
                    );
                }
                note(
                    "warm rerun",
                    checks::warm_tables(&op.run.report, &primed.run.report),
                );
                restore_primed(primed)?;
            }
            tracer.record("op.pipeline", op.started, op.wall_s);
            eprintln!(
                "operation {index}: {:.4} s wall, {:.4} s cpu, telemetry {}",
                op.wall_s,
                op.cpu_s,
                if telemetry { "on" } else { "off" }
            );
            if telemetry {
                walls_on.push(op.wall_s);
                cpus.push(op.cpu_s);
                if let Some(prev) = last_on.replace(op) {
                    discard_store(args.workload, &prev);
                }
            } else {
                walls_off.push(op.wall_s);
                discard_store(args.workload, &op);
            }
        }
    }
    let Some(last) = last_on else {
        return Err(format!("all {attempted} operations failed"));
    };
    let report_s = median(&walls_on);

    let metrics = if args.trace {
        if walls_off.is_empty() {
            return Err("every telemetry-off operation failed".into());
        }
        let report_off_s = median(&walls_off);
        let layers = trace::layer_metrics(trace::Context {
            args,
            setup: &setup,
            op: &last,
            report_s,
            report_off_s,
            scratch,
            tracer,
        })?;
        trace::write_chrome_trace(&args.trace_file(), &last, tracer)?;
        layers
    } else {
        vec![
            ("setup_s", setup.setup_s, "s"),
            ("report_s", report_s, "s"),
            ("cpu_s", median(&cpus), "s"),
            ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ]
    };
    discard_store(args.workload, &last);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn set_up(args: &Args, scratch: &Path, tracer: &mut Tracer) -> Result<Setup, String> {
    let config = world_config();
    let mut world = None;
    let mut generations = Vec::new();
    let start = Instant::now();
    while generations.len() < MIN_GENERATIONS || secs_since(start) < GENERATE_SECONDS {
        drop(world.take());
        let t = Instant::now();
        world = Some(World::generate(config.clone()));
        let secs = secs_since(t);
        tracer.record("setup.world_generate", t, secs);
        generations.push(secs);
    }
    let world = world.expect("MIN_GENERATIONS > 0");
    let generate_s = median(&generations);
    let mut setup = Setup {
        world,
        generate_s,
        setup_s: generate_s,
        primed_on: None,
        primed_off: None,
    };
    if args.workload == Workload::RerunWarm {
        let t = Instant::now();
        setup.primed_on = Some(prime(&setup.world, &scratch.join("warm-on"), true)?);
        let secs = secs_since(t);
        tracer.record("setup.prime_store", t, secs);
        setup.setup_s += secs;
        if args.trace {
            let t = Instant::now();
            setup.primed_off = Some(prime(&setup.world, &scratch.join("warm-off"), false)?);
            tracer.record("setup.prime_store", t, secs_since(t));
        }
    }
    Ok(setup)
}

/// Store the world's snapshot and every stage's output with one cold
/// run, as `experiments --store DIR` does.
fn prime(world: &World, dir: &Path, telemetry: bool) -> Result<Primed, String> {
    let store = RunStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let world_fpr = World::fingerprint(&world.config);
    store
        .store_world(&world_fpr, &world.snapshot())
        .map_err(|e| format!("store world snapshot: {e}"))?;
    let run = Pipeline::new(world)
        .threads(1)
        .telemetry(telemetry)
        .store(Some(Arc::new(store)))
        .run();
    Ok(Primed {
        dir: dir.to_path_buf(),
        world_fpr,
        run,
        records: stage_records(dir)?,
    })
}

/// Every stage record under a store directory
/// (`stages/<base>/<stage>-<key>.gts`), sorted.
pub fn stage_records(dir: &Path) -> Result<Vec<PathBuf>, String> {
    fn list(d: &Path) -> Result<Vec<PathBuf>, String> {
        std::fs::read_dir(d)
            .and_then(|entries| entries.map(|e| e.map(|e| e.path())).collect())
            .map_err(|e| format!("list {}: {e}", d.display()))
    }
    let mut records = Vec::new();
    for group in list(&dir.join("stages"))? {
        records.extend(
            list(&group)?
                .into_iter()
                .filter(|p| p.extension().is_some_and(|x| x == "gts")),
        );
    }
    records.sort();
    Ok(records)
}

impl Setup {
    /// The stage records the traced pass replays for an operation over
    /// the store at `dir`: all of a `chaos-2t` operation's store; for
    /// `rerun-warm` the 25 primed records (the 24 the operation hit, and
    /// the priming run's `interventions` record in place of the one the
    /// operation wrote and `restore_primed` removed).
    pub fn records_used(&self, dir: &Path) -> Result<Vec<PathBuf>, String> {
        match &self.primed_on {
            Some(primed) => Ok(primed.records.clone()),
            None => stage_records(dir),
        }
    }
}

/// The lag sweep of warm operation `index`: the default lags plus one
/// lag, between 2 h and 3 h for the first 50 operations, that no earlier
/// operation of the run used.
pub fn warm_lags(seed: u64, index: usize) -> Vec<SimDuration> {
    let mut lags = PipelineOptions::default().intervention_lags;
    let offset = (seed % 600) as i64;
    lags.push(SimDuration::seconds(
        2 * 3600 + offset + 60 * (index as i64 + 1),
    ));
    lags.sort();
    lags
}

fn operation(
    args: &Args,
    setup: &Setup,
    scratch: &Path,
    index: usize,
    telemetry: bool,
) -> Result<Op, String> {
    let started = Instant::now();
    let cpu0 = cpu_seconds();
    let mut store_dir = None;
    let mut world_fpr = None;
    let mut warm_world = None;
    let mut pipeline_started = started;
    let run = match args.workload {
        Workload::Paper1t => Pipeline::new(&setup.world)
            .threads(1)
            .telemetry(telemetry)
            .run(),
        Workload::Chaos2t => {
            let dir = scratch.join(format!("chaos-{index}"));
            let store = RunStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
            store_dir = Some(dir);
            Pipeline::new(&setup.world)
                .threads(2)
                .telemetry(telemetry)
                .chaos(CHAOS_SEED, &ChaosProfile::default())
                .store(Some(Arc::new(store)))
                .run()
        }
        Workload::RerunWarm => {
            let primed = if telemetry {
                &setup.primed_on
            } else {
                &setup.primed_off
            };
            let primed = primed.as_ref().ok_or("rerun-warm store not primed")?;
            let store = RunStore::open(&primed.dir).map_err(|e| format!("open store: {e}"))?;
            let bytes = store
                .load_world(&primed.world_fpr)
                .ok_or("world snapshot missing from the primed store")?;
            let world = World::from_snapshot(&bytes).ok_or("world snapshot does not decode")?;
            pipeline_started = Instant::now();
            let run = Pipeline::new(&world)
                .threads(1)
                .telemetry(telemetry)
                .intervention_lags(&warm_lags(args.seed, index))
                .store(Some(Arc::new(store)))
                .run();
            store_dir = Some(primed.dir.clone());
            world_fpr = Some(primed.world_fpr);
            warm_world = Some(world);
            run
        }
    };
    let wall_s = secs_since(started);
    let cpu_s = cpu_seconds() - cpu0;
    let pipeline_s = secs_since(pipeline_started);
    drop(warm_world);
    Ok(Op {
        run,
        started,
        wall_s,
        cpu_s,
        pipeline_s,
        store_dir,
        world_fpr,
    })
}

/// A chaos operation's store is its own; remove it once it is checked
/// (and, for the last one, replayed). `rerun-warm` stores are primed
/// ones that live until the scratch directory goes.
fn discard_store(workload: Workload, op: &Op) {
    if workload == Workload::Chaos2t {
        if let Some(dir) = &op.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Remove the `interventions` record a warm operation added to its
/// primed store, so that every operation meets the same store whatever
/// the number of operations before it.
fn restore_primed(primed: &Primed) -> Result<(), String> {
    for record in stage_records(&primed.dir)? {
        if !primed.records.contains(&record) {
            std::fs::remove_file(&record)
                .map_err(|e| format!("remove {}: {e}", record.display()))?;
        }
    }
    Ok(())
}
