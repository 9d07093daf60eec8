//! The traced pass: per-layer metrics measured from outside the program.
//!
//! It reads what a run already exposes (stage timings, wall spans,
//! substrate counters, degradation) and replays a seeded sample of the
//! layer calls the run made under spans of the benchmark's own. A
//! layer's busy time is its mean replayed call time multiplied by the
//! program's own call count. Sample sizes are the constants below.

use crate::sys::{secs_since, Sampler};
use crate::workload::{Args, Op, Setup};
use givetake::core::PaperRun;
use givetake::hash::hex::from_hex;
use givetake::hash::sha256;
use givetake::qr::{decode, encode, scan_frame, EcLevel};
use givetake::sim::{SimDuration, SimTime};
use givetake::social::StreamVideo;
use givetake::store::{Digest, RunStore};
use givetake::stream::monitor::{MonitorReport, ObservedStream};
use givetake::stream::search_keyword_set;
use givetake::text::extract_urls;
use givetake::web::{Crawler, CrawlerConfig, Url};
use givetake::world::World;
use serde_json::{json, Content, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Monitor samples replayed: record, scan, chat poll, URL extraction.
pub const RECORD_SAMPLES: usize = 1500;
/// Search polls replayed.
pub const SEARCH_SAMPLES: usize = 150;
/// Lead crawls replayed.
pub const CRAWL_SAMPLES: usize = 300;
/// QR encodes (and decodes of the encoded matrix) replayed.
pub const ENCODE_SAMPLES: usize = 150;

/// The monitor's cadences (`MonitorConfig::paper`).
const SAMPLE_INTERVAL_S: i64 = 450;
const SEARCH_INTERVAL_S: i64 = 1800;
const RECORD_SECONDS: i64 = 2;

const MIB: f64 = 1024.0 * 1024.0;

pub type Metric = (&'static str, f64, &'static str);

struct Span {
    name: &'static str,
    start_us: u64,
    dur_us: u64,
}

/// Spans recorded around calls into the program, kept in memory and
/// written out once at the end of the run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per-name call count and total seconds.
    totals: BTreeMap<&'static str, (u64, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Record a span that started at `start` and took `secs`.
    pub fn record(&mut self, name: &'static str, start: Instant, secs: f64) {
        let start_us = start.saturating_duration_since(self.epoch).as_micros() as u64;
        self.spans.push(Span {
            name,
            start_us,
            dur_us: (secs * 1e6) as u64,
        });
        let total = self.totals.entry(name).or_insert((0, 0.0));
        total.0 += 1;
        total.1 += secs;
    }

    /// Run `f` under a span; return its value and duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let secs = secs_since(start);
        self.record(name, start, secs);
        (value, secs)
    }

    /// Mean duration of the spans named `name`, in microseconds (0 when
    /// none was recorded).
    fn mean_us(&self, name: &str) -> f64 {
        match self.totals.get(name) {
            Some(&(n, total)) if n > 0 => total / n as f64 * 1e6,
            _ => 0.0,
        }
    }
}

pub struct Context<'a> {
    pub args: &'a Args,
    pub setup: &'a Setup,
    /// The last telemetry-on operation.
    pub op: &'a Op,
    /// Median wall time of the telemetry-on and telemetry-off operations.
    pub report_s: f64,
    pub report_off_s: f64,
    pub scratch: &'a Path,
    pub tracer: &'a mut Tracer,
}

/// Every per-layer metric, by name with its unit.
pub fn layer_metrics(cx: Context<'_>) -> Result<Vec<Metric>, String> {
    let replay_start = Instant::now();
    let world = &cx.setup.world;
    let run = &cx.op.run;
    let threads = cx.args.workload.threads() as f64;
    let t = cx.tracer;
    let mut rng = Sampler::new(cx.args.seed);

    // ---- gt-world, gt-hash: the world snapshot ----
    let (bytes, snapshot_encode_s) = t.time("world.snapshot", || world.snapshot());
    let (decoded, snapshot_decode_s) =
        t.time("world.from_snapshot", || World::from_snapshot(&bytes));
    drop(decoded.ok_or("world snapshot does not decode")?);
    let (_, sha_s) = t.time("hash.sha256", || sha256(&bytes));
    let snapshot_mib = bytes.len() as f64 / MIB;
    drop(bytes);

    // ---- gt-store ----
    let store = match &cx.op.store_dir {
        Some(dir) => {
            let records = cx.setup.records_used(dir)?;
            replay_store(dir, &records, cx.op.world_fpr.as_ref(), cx.scratch, t)?
        }
        None => StoreReplay::default(),
    };

    // ---- gt-social, gt-qr, gt-text: the monitor's sampling calls ----
    replay_samples(world, run, &mut rng, t);
    replay_searches(world, &mut rng, t);
    replay_encodes(world, &mut rng, t);
    replay_crawls(world, run, &mut rng, t);
    let replay_s = secs_since(replay_start);

    // ---- program counters ----
    let tel = &run.telemetry;
    let served = |substrate: &str| tel.substrate_total(substrate, "served");
    let main_served = |substrate: &str| {
        tel.counter("main_monitor", substrate, "served")
            .unwrap_or(0)
    };
    let stage_frames = |stage: &str| tel.counter(stage, "youtube.record", "records").unwrap_or(0);
    let record_calls = served("youtube.record");
    let frames = tel.substrate_total("youtube.record", "records");
    // Samples in which a monitor decoded a QR code. The monitor stops
    // scanning a sample at its first hit, which is its first frame: both
    // frames show the same overlay. A monitor served from the store
    // scanned nothing in this run.
    let qr_hits_of = |stage: &str, report: &MonitorReport| {
        if stage_frames(stage) == 0 {
            0
        } else {
            report.streams.iter().map(|s| s.qr_samples as u64).sum()
        }
    };
    let main_hits = qr_hits_of("main_monitor", &run.monitor_report);
    let qr_hits = main_hits + qr_hits_of("pilot_monitor", &run.pilot_report);
    let scanned = frames.saturating_sub(qr_hits);
    let crawl_calls = tel.substrate_total("stream.monitor", "crawl_attempts");
    let pages = run.monitor_report.pages.len() + run.pilot_report.pages.len();

    let record_us = t.mean_us("yt.record");
    let blank_us = t.mean_us("qr.scan.blank");
    let qr_us = t.mean_us("qr.scan.qr");
    let chat_us = t.mean_us("yt.chat");
    let search_us = t.mean_us("yt.search");
    let crawl_us = t.mean_us("web.crawl");
    // Busy microseconds scanning `scanned` frames, `hits` of them with a QR.
    let scan_busy_us = |scanned: u64, hits: u64| {
        scanned.saturating_sub(hits) as f64 * blank_us + hits as f64 * qr_us
    };
    let qr_busy_s = (record_calls as f64 * record_us + scan_busy_us(scanned, qr_hits)) / 1e6;

    // The main monitor alone, for its self time.
    let main_scanned = stage_frames("main_monitor").saturating_sub(main_hits);
    let main_busy_s = (main_served("youtube.record") as f64 * record_us
        + scan_busy_us(main_scanned, main_hits)
        + main_served("youtube.chat") as f64 * chat_us
        + main_served("youtube.search") as f64 * search_us
        + tel
            .counter("main_monitor", "stream.monitor", "crawl_attempts")
            .unwrap_or(0) as f64
            * crawl_us)
        / 1e6;

    // ---- gt-core executor ----
    let stage_s = |name: &str| {
        run.timings
            .stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.wall_ms / 1e3)
    };
    let stage_sum_s: f64 = run.timings.stages.iter().map(|s| s.wall_ms / 1e3).sum();
    let pipeline_s = cx.op.pipeline_s;
    let span_s = |name: &str| {
        run.telemetry
            .wall
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.dur_us as f64 / 1e6)
    };
    let degradation = &run.degradation.total;
    let main_monitor_s = stage_s("main_monitor");

    eprintln!(
        "traced pass: replay took {replay_s:.2} s ({:.1}% of report_s {:.2} s); \
         measured layers cover {:.1}% of stage.main_monitor_s",
        replay_s / cx.report_s * 100.0,
        cx.report_s,
        if main_monitor_s > 0.0 {
            main_busy_s / main_monitor_s * 100.0
        } else {
            0.0
        }
    );

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    Ok(vec![
        ("stage.main_monitor_s", main_monitor_s, "s"),
        ("stage.pilot_monitor_s", stage_s("pilot_monitor"), "s"),
        ("stage.twitch_pilot_s", stage_s("twitch_pilot"), "s"),
        ("stage.twitter_coins_s", stage_s("twitter_coins"), "s"),
        ("stage.twitter_dataset_s", stage_s("twitter_dataset"), "s"),
        ("stage.chain_analysis_s", stage_s("chain_analysis"), "s"),
        ("stage.interventions_s", stage_s("interventions"), "s"),
        ("exec.overhead_s", pipeline_s - stage_cover_s(run), "s"),
        (
            "exec.busy_ratio",
            ratio(stage_sum_s, pipeline_s * threads),
            "ratio",
        ),
        ("yt.record.calls", record_calls as f64, "count"),
        ("yt.frames", frames as f64, "count"),
        ("yt.record.us", record_us, "us"),
        ("yt.search.us", search_us, "us"),
        ("yt.chat.us", chat_us, "us"),
        ("qr.encode.us", t.mean_us("qr.encode"), "us"),
        ("qr.scan.frames", scanned as f64, "count"),
        ("qr.scan.blank_us", blank_us, "us"),
        ("qr.scan.qr_us", qr_us, "us"),
        ("qr.decode.us", t.mean_us("qr.decode"), "us"),
        (
            "qr.hit_ratio",
            ratio(qr_hits as f64, scanned as f64),
            "ratio",
        ),
        ("qr.busy_s", qr_busy_s, "s"),
        ("monitor.self_s", main_monitor_s - main_busy_s, "s"),
        ("web.crawl.calls", crawl_calls as f64, "count"),
        ("web.crawl.us", crawl_us, "us"),
        (
            "web.crawl.ok_ratio",
            ratio(pages as f64, crawl_calls as f64),
            "ratio",
        ),
        ("text.extract_urls.us", t.mean_us("text.extract_urls"), "us"),
        ("cluster.build_s", span_s("cluster.build"), "s"),
        ("tags.resolve_s", span_s("tags.resolve"), "s"),
        (
            "chain.rpc.calls",
            tel.substrate_total("chain.rpc", "calls") as f64,
            "count",
        ),
        ("faults.injected", degradation.injected() as f64, "count"),
        ("faults.retries", degradation.retries as f64, "count"),
        ("faults.lost", degradation.lost as f64, "count"),
        ("store.world_load_s", store.world_load_s, "s"),
        ("store.stage_load_s", store.stage_load_s, "s"),
        ("store.stage_write_s", store.stage_write_s, "s"),
        ("store.stage_mib", store.stage_mib, "MiB"),
        (
            "store.hits",
            tel.substrate_total("store", "cache_hit") as f64,
            "count",
        ),
        (
            "store.misses",
            tel.substrate_total("store", "cache_miss") as f64,
            "count",
        ),
        ("hash.sha256_mib_per_s", ratio(snapshot_mib, sha_s), "MiB/s"),
        ("world.generate_s", cx.setup.generate_s, "s"),
        ("world.snapshot_encode_s", snapshot_encode_s, "s"),
        ("world.snapshot_decode_s", snapshot_decode_s, "s"),
        ("world.snapshot_mib", snapshot_mib, "MiB"),
        (
            "obs.overhead_ratio",
            ratio(cx.report_s, cx.report_off_s) - 1.0,
            "ratio",
        ),
    ])
}

/// Wall time during which at least one stage ran: the union of the
/// stage spans. On one thread it is the sum of the stage wall times.
fn stage_cover_s(run: &PaperRun) -> f64 {
    let mut spans: Vec<(u64, u64)> = run
        .telemetry
        .wall
        .spans
        .iter()
        .filter(|s| s.cat == "stage")
        .map(|s| (s.start_us, s.start_us + s.dur_us))
        .collect();
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (start, end) in spans {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered as f64 / 1e6
}

#[derive(Default)]
struct StoreReplay {
    world_load_s: f64,
    stage_load_s: f64,
    stage_write_s: f64,
    stage_mib: f64,
}

/// Read back the stage records the operation used (and the world
/// snapshot, when the operation loaded one), then write each record into
/// a scratch store.
fn replay_store(
    dir: &Path,
    records: &[PathBuf],
    world_fpr: Option<&Digest>,
    scratch: &Path,
    t: &mut Tracer,
) -> Result<StoreReplay, String> {
    let store = RunStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let copy_dir = scratch.join("replay-store");
    let copy = RunStore::open(&copy_dir).map_err(|e| format!("open store: {e}"))?;
    let mut out = StoreReplay::default();
    for path in records {
        let (base, stage, key) =
            record_key(path).ok_or_else(|| format!("not a stage record: {}", path.display()))?;
        let (payload, load_s) =
            t.time("store.load_stage", || store.load_stage(&base, &stage, &key));
        let payload =
            payload.ok_or_else(|| format!("stage record {} does not load", path.display()))?;
        let (written, write_s) = t.time("store.store_stage", || {
            copy.store_stage(&base, &stage, &key, &payload)
        });
        written.map_err(|e| format!("write stage record: {e}"))?;
        out.stage_load_s += load_s;
        out.stage_write_s += write_s;
        out.stage_mib += payload.len() as f64 / MIB;
    }
    if let Some(fpr) = world_fpr {
        let (bytes, load_s) = t.time("store.load_world", || store.load_world(fpr));
        bytes.ok_or("world snapshot does not load")?;
        out.world_load_s = load_s;
    }
    let _ = std::fs::remove_dir_all(&copy_dir);
    Ok(out)
}

/// The base digest, stage name and key of a record at
/// `stages/<base>/<stage>-<key>.gts`.
fn record_key(path: &Path) -> Option<(Digest, String, Digest)> {
    let base = path.parent()?.file_name()?.to_str()?;
    let (stage, key) = path
        .file_name()?
        .to_str()?
        .strip_suffix(".gts")?
        .rsplit_once('-')?;
    Some((parse_digest(base)?, stage.to_string(), parse_digest(key)?))
}

fn parse_digest(hex: &str) -> Option<Digest> {
    from_hex(hex)?.try_into().ok()
}

/// Replay monitor samples: pick a sampled stream with probability
/// proportional to its sample count and one of its sample ticks
/// uniformly, then record, scan, poll chat and extract URLs as the
/// monitor does at that tick.
fn replay_samples(world: &World, run: &PaperRun, rng: &mut Sampler, t: &mut Tracer) {
    let streams: Vec<&ObservedStream> = run
        .monitor_report
        .streams
        .iter()
        .chain(&run.pilot_report.streams)
        .filter(|s| s.samples > 0)
        .collect();
    let mut cumulative = Vec::with_capacity(streams.len());
    let mut total = 0u64;
    for s in &streams {
        total += s.samples as u64;
        cumulative.push(total);
    }
    if total == 0 {
        return;
    }
    for _ in 0..RECORD_SAMPLES {
        let pick = rng.below(total);
        let observed = streams[cumulative.partition_point(|&c| c <= pick)];
        let ticks = (observed.last_seen - observed.first_seen).as_seconds() / SAMPLE_INTERVAL_S;
        let at = observed.first_seen
            + SimDuration::seconds(SAMPLE_INTERVAL_S * rng.below(ticks as u64 + 1) as i64);
        let id = observed.stream;
        let stream = world.youtube.stream(id);
        let (frames, _) = t.time("yt.record", || {
            world
                .youtube
                .record(id, at, SimDuration::seconds(RECORD_SECONDS))
        });
        for (i, frame) in frames.iter().enumerate() {
            let visible = stream.qr_visible(at + SimDuration::seconds(i as i64));
            let name = if visible {
                "qr.scan.qr"
            } else {
                "qr.scan.blank"
            };
            let (hits, _) = t.time(name, || scan_frame(frame));
            if !hits.is_empty() {
                break;
            }
        }
        let (messages, _) = t.time("yt.chat", || world.youtube.chat_history(id, at));
        for m in &messages {
            t.time("text.extract_urls", || extract_urls(&m.text));
        }
    }
}

/// Replay search polls at uniformly chosen search ticks of the main
/// window.
fn replay_searches(world: &World, rng: &mut Sampler, t: &mut Tracer) {
    let keywords = search_keyword_set();
    let start = world.config.youtube_start;
    let ticks = (world.config.youtube_end - start).as_seconds() / SEARCH_INTERVAL_S;
    if ticks <= 0 {
        return;
    }
    for _ in 0..SEARCH_SAMPLES {
        let at = start + SimDuration::seconds(SEARCH_INTERVAL_S * rng.below(ticks as u64) as i64);
        t.time("yt.search", || {
            world.youtube.search_live(&keywords.search, at)
        });
    }
}

/// Encode the QR payload of randomly chosen scam streams, as each
/// QR-visible frame render does, and decode the encoded matrix.
fn replay_encodes(world: &World, rng: &mut Sampler, t: &mut Tracer) {
    let urls: Vec<&str> = world
        .truth
        .scam_streams
        .iter()
        .filter_map(|&id| match &world.youtube.stream(id).video {
            StreamVideo::ScamLoop { qr_url, .. } => Some(qr_url.as_str()),
            StreamVideo::Benign => None,
        })
        .collect();
    if urls.is_empty() {
        return;
    }
    for _ in 0..ENCODE_SAMPLES {
        let url = urls[rng.below(urls.len() as u64) as usize];
        let (matrix, _) = t.time("qr.encode", || encode(url.as_bytes(), EcLevel::M));
        if let Ok(matrix) = matrix {
            let _ = t.time("qr.decode", || decode(&matrix));
        }
    }
}

/// Crawl randomly chosen leads as of the tick they were first seen.
fn replay_crawls(world: &World, run: &PaperRun, rng: &mut Sampler, t: &mut Tracer) {
    let leads: Vec<(Url, SimTime)> = run
        .monitor_report
        .leads
        .iter()
        .chain(&run.pilot_report.leads)
        .filter_map(|l| Url::parse(&l.url).map(|u| (u, l.first_seen)))
        .collect();
    if leads.is_empty() {
        return;
    }
    let crawler = Crawler::new(CrawlerConfig::default());
    for _ in 0..CRAWL_SAMPLES {
        let (url, at) = &leads[rng.below(leads.len() as u64) as usize];
        t.time("web.crawl", || crawler.crawl(&world.web, url, *at));
    }
}

/// Write one Chrome-trace JSON (Perfetto loads it): the program's own
/// spans from the traced operation (process 1, one track per worker
/// lane) beside the benchmark's set-up, operation and replay spans
/// (process 2).
pub fn write_chrome_trace(path: &Path, op: &Op, t: &Tracer) -> Result<(), String> {
    let offset_us = op.started.saturating_duration_since(t.epoch).as_micros() as u64;
    let mut events = Vec::new();
    for (pid, name) in [(1u32, "program spans"), (2, "perfbench spans")] {
        events.push(json!({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0u32,
            "args": json!({ "name": name }),
        }));
    }
    // The program's spans as `TelemetrySnapshot::chrome_trace_json`
    // renders them, moved onto the benchmark's clock.
    for s in &op.run.telemetry.wall.spans {
        events.push(json!({
            "name": s.name, "cat": s.cat, "ph": "X",
            "ts": offset_us + s.start_us, "dur": s.dur_us.max(1), "pid": 1u32, "tid": s.lane,
            "args": json!({ "depth": s.depth, "sim_ts": s.sim_ts }),
        }));
    }
    for s in &t.spans {
        events.push(json!({
            "name": s.name, "cat": "perfbench", "ph": "X",
            "ts": s.start_us, "dur": s.dur_us.max(1), "pid": 2u32, "tid": 0u32,
        }));
    }
    let totals = Content::Map(
        t.totals
            .iter()
            .map(|(name, (n, secs))| (name.to_string(), json!({ "calls": n, "total_s": secs }).0))
            .collect(),
    );
    let trace = json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": json!({ "layer_totals_s": Value(totals) }),
    });
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, trace.to_string())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("traced pass: wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use givetake::store::digest_hex;

    #[test]
    fn record_paths_give_back_their_keys() {
        let base: Digest = std::array::from_fn(|i| (i * 7) as u8);
        let key: Digest = std::array::from_fn(|i| (i * 3) as u8);
        let path = PathBuf::from("stages")
            .join(digest_hex(&base))
            .join(format!("main_monitor-{}.gts", digest_hex(&key)));
        assert_eq!(
            record_key(&path),
            Some((base, "main_monitor".to_string(), key))
        );
        assert_eq!(parse_digest("zz"), None);
        assert_eq!(parse_digest("ab"), None);
    }
}
