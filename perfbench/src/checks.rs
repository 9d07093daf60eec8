//! Output checks. Each compares a run's output with the generated
//! world's ground truth (`World::truth`, which the pipeline never reads)
//! or with a property the method guarantees. None compares with a saved
//! copy of an earlier output.

use givetake::core::datasets::{TwitterDataset, YouTubeDataset};
use givetake::core::interventions::InterventionOutcome;
use givetake::core::{DegradationReport, PaperReport, PaperRun};
use givetake::sim::faults::DegradationStats;
use givetake::sim::SimDuration;
use givetake::social::{LiveStreamId, StreamVideo};
use givetake::stream::monitor::{MonitorConfig, ObservedStream, UrlLead, UrlSource};
use givetake::world::World;
use std::collections::HashSet;

/// Cache hits and misses every warm operation must see: the pipeline has
/// 25 cached stages and only `interventions` depends on the lag set.
const WARM_HITS: u64 = 24;
const WARM_MISSES: u64 = 1;

/// Tolerance for comparing USD sums that add the same payments in a
/// different order.
const USD_TOLERANCE: f64 = 1.0;

/// Check one pipeline run. `clean` runs had no fault plan, so recall
/// must be complete; chaos runs may only lose observations.
pub fn check_run(world: &World, run: &PaperRun, clean: bool) -> Result<(), String> {
    datasets_in_truth(world, &run.twitter_dataset, &run.youtube_dataset)?;
    qr_leads(
        world,
        &run.monitor_report.streams,
        &run.monitor_report.leads,
        clean,
    )?;
    revenue(world, &run.report, clean)?;
    interventions_monotone(&run.report.interventions)?;
    if !clean {
        degradation_adds_up(&run.degradation)?;
    }
    Ok(())
}

/// Every YouTube scam stream and domain, and every Twitter domain, in
/// the datasets is a scam in the world's ground truth.
fn datasets_in_truth(
    world: &World,
    twitter: &TwitterDataset,
    youtube: &YouTubeDataset,
) -> Result<(), String> {
    let truth = &world.truth;
    let twitter_truth: HashSet<&str> = truth
        .twitter_domains
        .iter()
        .map(|d| d.domain.as_str())
        .collect();
    let youtube_truth: HashSet<&str> = truth
        .youtube_domains
        .iter()
        .map(|d| d.domain.as_str())
        .collect();
    let stream_truth: HashSet<LiveStreamId> = truth.scam_streams.iter().copied().collect();
    if let Some(d) = twitter
        .domains
        .iter()
        .find(|d| !twitter_truth.contains(d.domain.as_str()))
    {
        return Err(format!(
            "twitter dataset domain {} is not a Twitter scam domain",
            d.domain
        ));
    }
    if let Some(d) = youtube
        .domains
        .iter()
        .find(|d| !youtube_truth.contains(d.domain.as_str()))
    {
        return Err(format!(
            "youtube dataset domain {} is not a YouTube scam domain",
            d.domain
        ));
    }
    let streams = youtube
        .scam_streams
        .iter()
        .chain(youtube.domains.iter().flat_map(|d| &d.streams));
    for s in streams {
        if !stream_truth.contains(s) {
            return Err(format!(
                "youtube dataset stream {} is not a scam stream",
                s.0
            ));
        }
    }
    Ok(())
}

/// Every QR-sourced lead is the URL the stream's QR code encodes. On a
/// clean run, every tracked stream whose video showed its QR code at one
/// of the monitor's recordings, by the world's own overlay schedule,
/// yields a QR lead.
fn qr_leads(
    world: &World,
    streams: &[ObservedStream],
    leads: &[UrlLead],
    clean: bool,
) -> Result<(), String> {
    let mut with_lead: HashSet<LiveStreamId> = HashSet::new();
    for lead in leads.iter().filter(|l| l.source == UrlSource::QrCode) {
        let stream = world
            .youtube
            .streams()
            .get(lead.stream.0 as usize)
            .ok_or_else(|| format!("QR lead names unknown stream {}", lead.stream.0))?;
        match &stream.video {
            StreamVideo::ScamLoop { qr_url, .. } if *qr_url == lead.url => {}
            StreamVideo::ScamLoop { qr_url, .. } => {
                return Err(format!(
                    "QR lead {} from stream {} differs from its QR code {qr_url}",
                    lead.url, lead.stream.0
                ))
            }
            StreamVideo::Benign => {
                return Err(format!(
                    "QR lead {} from stream {}, which shows no QR code",
                    lead.url, lead.stream.0
                ))
            }
        }
        with_lead.insert(lead.stream);
    }
    if clean {
        let mut expected = 0usize;
        let mut missing = Vec::new();
        for observed in streams {
            if qr_recorded(world, observed)? {
                expected += 1;
                if !with_lead.contains(&observed.stream) {
                    missing.push(observed.stream.0);
                }
            }
        }
        if !missing.is_empty() {
            return Err(format!(
                "{} of {expected} streams that showed a QR code while recorded yielded \
                 no QR lead (first: stream {})",
                missing.len(),
                missing[0]
            ));
        }
    }
    Ok(())
}

/// Whether a clean monitor's recordings of `observed` showed the QR
/// overlay in at least one frame. The schedule is the monitor's
/// (`MonitorConfig::paper`: a sample every 450 s from the first to the
/// last sighting, none on outage days, one frame per second of each
/// 2 s recording while the stream is live); what is on screen is the
/// world's (`LiveStream::qr_visible`). Neither reads the run's own
/// decode counts.
fn qr_recorded(world: &World, observed: &ObservedStream) -> Result<bool, String> {
    let stream = world
        .youtube
        .streams()
        .get(observed.stream.0 as usize)
        .ok_or_else(|| format!("tracked stream {} is unknown", observed.stream.0))?;
    if !matches!(stream.video, StreamVideo::ScamLoop { .. }) {
        return Ok(false);
    }
    let monitor = MonitorConfig::paper(observed.first_seen, observed.last_seen);
    let mut t = observed.first_seen;
    while t <= observed.last_seen {
        if !monitor.outage_days.contains(&t.date()) {
            let shown = (0..monitor.record_seconds)
                .map(|i| t + SimDuration::seconds(i))
                .take_while(|&at| stream.is_live(at))
                .any(|at| stream.qr_visible(at));
            if shown {
                return Ok(true);
            }
        }
        t += monitor.sample_interval;
    }
    Ok(false)
}

/// Co-occurring revenue against the generated victim payments. Twitter
/// reads an archived corpus, so a clean run recovers all of it; YouTube
/// sees only what the monitor caught, and faults only remove payments.
fn revenue(world: &World, report: &PaperReport, clean: bool) -> Result<(), String> {
    use givetake::world::truth::Platform;
    let twitter_truth = world.truth.revenue_usd(Platform::Twitter);
    let youtube_truth = world.truth.revenue_usd(Platform::YouTube);
    let twitter = report.twitter_revenue.usd_co_occurring;
    let youtube = report.youtube_revenue.usd_co_occurring;
    if clean && (twitter - twitter_truth).abs() > USD_TOLERANCE {
        return Err(format!(
            "twitter co-occurring USD {twitter:.2} differs from truth {twitter_truth:.2}"
        ));
    }
    if twitter > twitter_truth + USD_TOLERANCE {
        return Err(format!(
            "twitter co-occurring USD {twitter:.2} exceeds truth {twitter_truth:.2}"
        ));
    }
    if youtube > youtube_truth + USD_TOLERANCE {
        return Err(format!(
            "youtube co-occurring USD {youtube:.2} exceeds truth {youtube_truth:.2}"
        ));
    }
    Ok(())
}

/// A later block-list intervention can never block more payments than
/// an earlier one.
fn interventions_monotone(outcomes: &[InterventionOutcome]) -> Result<(), String> {
    let mut sorted = outcomes.to_vec();
    sorted.sort_by_key(|o| o.lag_seconds);
    for pair in sorted.windows(2) {
        if pair[1].blocked > pair[0].blocked {
            return Err(format!(
                "intervention at lag {}s blocks {} payments, more than {} at lag {}s",
                pair[1].lag_seconds, pair[1].blocked, pair[0].blocked, pair[0].lag_seconds
            ));
        }
    }
    Ok(())
}

/// Under chaos the per-stage fault accounting sums to the run total.
fn degradation_adds_up(degradation: &DegradationReport) -> Result<(), String> {
    if !degradation.enabled {
        return Err("chaos run reports no fault plan".into());
    }
    let mut sum = DegradationStats::default();
    for stage in &degradation.stages {
        sum.merge(&stage.stats);
    }
    if sum != degradation.total {
        return Err(format!(
            "per-stage degradation {sum:?} does not sum to the total {:?}",
            degradation.total
        ));
    }
    Ok(())
}

/// A warm rerun with a new lag set reuses 24 stage outputs and
/// recomputes only `interventions`.
pub fn warm_counts(hits: u64, misses: u64) -> Result<(), String> {
    if (hits, misses) != (WARM_HITS, WARM_MISSES) {
        return Err(format!(
            "warm rerun saw {hits} cache hits and {misses} misses, \
             expected {WARM_HITS} and {WARM_MISSES}"
        ));
    }
    Ok(())
}

/// A warm rerun leaves every table but `interventions` byte-identical
/// to the priming run, and every lag the priming run also used gives
/// the same outcome.
pub fn warm_tables(warm: &PaperReport, priming: &PaperReport) -> Result<(), String> {
    let without_interventions = |r: &PaperReport| {
        let mut r = r.clone();
        r.interventions.clear();
        serde_json::to_string(&r).map_err(|e| format!("serialize report: {e}"))
    };
    if without_interventions(warm)? != without_interventions(priming)? {
        return Err("warm rerun changed a table other than interventions".into());
    }
    for p in &priming.interventions {
        match warm
            .interventions
            .iter()
            .find(|w| w.lag_seconds == p.lag_seconds)
        {
            Some(w) if w == p => {}
            Some(w) => {
                return Err(format!(
                    "lag {}s: warm outcome {w:?} differs from priming outcome {p:?}",
                    p.lag_seconds
                ))
            }
            None => return Err(format!("warm rerun dropped lag {}s", p.lag_seconds)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Each check must pass on a real run and fire on a corrupted copy
    //! of its input. Run with `cargo test --release`: the shared run
    //! renders and scans every sampled video frame.

    use super::*;
    use givetake::core::datasets::TwitterDomain;
    use givetake::core::Pipeline;
    use givetake::world::WorldConfig;
    use std::sync::OnceLock;

    fn fixture() -> &'static (World, PaperRun) {
        static F: OnceLock<(World, PaperRun)> = OnceLock::new();
        F.get_or_init(|| {
            let world = World::generate(WorldConfig::test_small());
            let run = Pipeline::new(&world).threads(1).run();
            (world, run)
        })
    }

    fn copy_twitter(ds: &TwitterDataset) -> TwitterDataset {
        TwitterDataset {
            domains: ds.domains.clone(),
            accounts: ds.accounts.clone(),
            tweet_count: ds.tweet_count,
        }
    }

    fn copy_youtube(ds: &YouTubeDataset) -> YouTubeDataset {
        YouTubeDataset {
            domains: ds.domains.clone(),
            scam_streams: ds.scam_streams.clone(),
            channels: ds.channels.clone(),
        }
    }

    #[test]
    fn a_healthy_run_passes_every_check() {
        let (world, run) = fixture();
        check_run(world, run, true).expect("clean run passes");
        assert!(
            run.monitor_report
                .leads
                .iter()
                .any(|l| l.source == UrlSource::QrCode),
            "the fixture must exercise the QR lead check"
        );
        warm_counts(WARM_HITS, WARM_MISSES).expect("24 hits, 1 miss");
        warm_tables(&run.report, &run.report).expect("identical reports");
    }

    #[test]
    fn a_twitter_domain_absent_from_truth_is_caught() {
        let (world, run) = fixture();
        let mut twitter = copy_twitter(&run.twitter_dataset);
        twitter.domains.push(TwitterDomain {
            domain: "not-a-scam.example".into(),
            tweets: Vec::new(),
            tweet_times: Vec::new(),
            addresses: Vec::new(),
        });
        let youtube = copy_youtube(&run.youtube_dataset);
        assert!(datasets_in_truth(world, &twitter, &youtube).is_err());
    }

    #[test]
    fn a_youtube_domain_or_stream_absent_from_truth_is_caught() {
        let (world, run) = fixture();
        let twitter = copy_twitter(&run.twitter_dataset);
        let mut youtube = copy_youtube(&run.youtube_dataset);
        youtube.scam_streams.insert(LiveStreamId(u64::MAX));
        assert!(datasets_in_truth(world, &twitter, &youtube).is_err());

        let mut youtube = copy_youtube(&run.youtube_dataset);
        let mut fake = youtube.domains[0].clone();
        fake.domain = "not-a-scam.example".into();
        youtube.domains.push(fake);
        assert!(datasets_in_truth(world, &twitter, &youtube).is_err());
    }

    #[test]
    fn a_changed_qr_lead_url_is_caught() {
        let (world, run) = fixture();
        let mut leads = run.monitor_report.leads.clone();
        let lead = leads
            .iter_mut()
            .find(|l| l.source == UrlSource::QrCode)
            .expect("fixture has a QR lead");
        lead.url.push_str("/changed");
        let streams = &run.monitor_report.streams;
        assert!(qr_leads(world, streams, &leads, false).is_err());
    }

    #[test]
    fn a_lost_qr_lead_is_caught_on_a_clean_run_only() {
        let (world, run) = fixture();
        let leads: Vec<UrlLead> = run
            .monitor_report
            .leads
            .iter()
            .filter(|l| l.source != UrlSource::QrCode)
            .cloned()
            .collect();
        let streams = &run.monitor_report.streams;
        assert!(qr_leads(world, streams, &leads, true).is_err());
        assert!(qr_leads(world, streams, &leads, false).is_ok());
    }

    #[test]
    fn a_scan_path_that_decodes_nothing_is_caught() {
        // What a broken render or scan would report: no sample decoded a
        // QR code, so no stream has a QR lead.
        let (world, run) = fixture();
        let streams: Vec<ObservedStream> = run
            .monitor_report
            .streams
            .iter()
            .cloned()
            .map(|mut s| {
                s.qr_samples = 0;
                s.qr_first_seen = None;
                s.qr_last_seen = None;
                s
            })
            .collect();
        let leads: Vec<UrlLead> = run
            .monitor_report
            .leads
            .iter()
            .filter(|l| l.source != UrlSource::QrCode)
            .cloned()
            .collect();
        assert!(qr_leads(world, &streams, &leads, true).is_err());
    }

    #[test]
    fn the_expected_qr_streams_are_the_decoded_ones() {
        // On a healthy clean run the world's overlay schedule and the
        // monitor's decodes name the same streams.
        let (world, run) = fixture();
        for s in &run.monitor_report.streams {
            assert_eq!(
                qr_recorded(world, s).expect("known stream"),
                s.qr_samples > 0,
                "stream {}",
                s.stream.0
            );
        }
    }

    #[test]
    fn a_non_monotone_intervention_table_is_caught() {
        let (_, run) = fixture();
        let mut outcomes = run.report.interventions.clone();
        let last = outcomes.len() - 1;
        outcomes[last].blocked = outcomes[0].blocked + 1;
        assert!(interventions_monotone(&outcomes).is_err());
    }

    #[test]
    fn inflated_revenue_is_caught() {
        let (world, run) = fixture();
        let mut report = run.report.clone();
        report.youtube_revenue.usd_co_occurring += 10.0 * USD_TOLERANCE;
        assert!(revenue(world, &report, false).is_err());
        let mut report = run.report.clone();
        report.twitter_revenue.usd_co_occurring -= 10.0 * USD_TOLERANCE;
        assert!(revenue(world, &report, true).is_err());
        assert!(revenue(world, &report, false).is_ok());
    }

    #[test]
    fn degradation_that_does_not_add_up_is_caught() {
        let (world, _) = fixture();
        let run = Pipeline::new(world)
            .threads(1)
            .chaos(7, &givetake::sim::faults::ChaosProfile::default())
            .skip_pilot(true)
            .run();
        degradation_adds_up(&run.degradation).expect("chaos accounting adds up");
        let mut degradation = run.degradation.clone();
        degradation.total.lost += 1;
        assert!(degradation_adds_up(&degradation).is_err());
    }

    #[test]
    fn a_warm_operation_with_two_misses_is_caught() {
        assert!(warm_counts(WARM_HITS - 1, WARM_MISSES + 1).is_err());
    }

    #[test]
    fn a_warm_operation_that_changes_another_table_is_caught() {
        let (_, run) = fixture();
        let mut warm = run.report.clone();
        warm.table1.youtube_domains += 1;
        assert!(warm_tables(&warm, &run.report).is_err());
        let mut warm = run.report.clone();
        warm.interventions[0].blocked += 1;
        assert!(warm_tables(&warm, &run.report).is_err());
    }
}
