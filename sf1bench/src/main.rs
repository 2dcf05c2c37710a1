//! The repository's benchmark at SF 1.
//!
//! ```text
//! sf1bench --workload <refresh-sf1|insert-sf1> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run generates the SF 1 network, runs the paper's power test
//! interleaved with an open-loop service test, then the throughput
//! test with concurrent refreshes, and checks every output against a
//! reference. All three tests run in every workload, so every
//! end-to-end metric is measured in every run; the workloads differ in
//! what the refreshes carry (see `Workload`). `--seed` drives the
//! workload: the seeded delete picks, BI 25's person pairs, the order
//! of the throughput test's reads and the service test's keys and
//! query order. See `sf1bench/README.md` for the metrics and what
//! moves them.
//!
//! With `--trace 0` the last line of standard output is one JSON
//! object with the end-to-end metrics; with `--trace 1` the run records
//! spans around every call into the library crates and the JSON holds
//! the per-layer metrics instead, including the tracing overhead.

mod power;
mod refresh;
mod report;
mod service;
mod setup;
mod stats;
mod throughput;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use snb_datagen::dictionaries::StaticWorld;
use snb_engine::QueryContext;
use snb_store::PartitionedStore;

use crate::report::{Metrics, Outcome};
use crate::stats::median;
use crate::trace::Tracer;

/// Set-ups per untraced run; their median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Allowed gap between the traced and untraced power streams: the
/// `bi.*` spans must add up to `power_total_s` within this share.
const SPAN_SUM_BOUND: f64 = 0.10;

/// What the refreshes of a run carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Inserts plus seeded deep deletes (DEL 1–8): the power refresh
    /// carries a delete batch and every `DELETE_EVERY`-th write batch
    /// of the throughput test deletes. Exercises the delete path
    /// (cascade expansion and `rebuild_without`).
    Refresh,
    /// The same schedule with inserts only: the delete path is
    /// bypassed, everything else is identical.
    Insert,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "refresh-sf1" => Some(Workload::Refresh),
            "insert-sf1" => Some(Workload::Insert),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Refresh => "refresh-sf1",
            Workload::Insert => "insert-sf1",
        }
    }

    pub fn deletes(self) -> bool {
        self == Workload::Refresh
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Where the benchmark keeps what it writes: results, traces and the
/// WAL of the throughput test, all inside its own directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sf1bench: {e}");
            eprintln!("usage: sf1bench --workload <refresh-sf1|insert-sf1> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out = run(&args);
    report::finish(&args, out);
}

fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Test sizes of one run: the minimum sizes scaled by how much longer
/// than `NOMINAL_SECONDS` the run was asked to measure.
struct Sizes {
    refreshes: usize,
    streams: usize,
    batches: usize,
    requests: usize,
}

/// Measured time of a run at the minimum sizes on a 2-core host.
const NOMINAL_SECONDS: f64 = 40.0;

impl Sizes {
    fn for_seconds(seconds: f64) -> Sizes {
        let f = (seconds / NOMINAL_SECONDS).max(1.0);
        let scale = |n: usize| (n as f64 * f).round() as usize;
        Sizes {
            refreshes: scale(power::REFRESH_REPS),
            streams: scale(power::STREAMS),
            batches: scale(throughput::MIN_BATCHES),
            requests: scale(service::MIN_REQUESTS),
        }
    }
}

/// Runs set-up and the three tests; returns what the report needs.
fn run(args: &Args) -> Outcome {
    let threads = threads();
    let tracer = Tracer::new(args.trace);
    let config = setup::config();
    let sizes = Sizes::for_seconds(args.seconds);
    let mut o = Outcome { threads, ..Outcome::default() };
    let mut m = Metrics::default();
    let delete_batches = args
        .workload
        .deletes()
        .then(|| refresh::RefreshPlan::deletes_for(sizes.batches + throughput::WARMUP_BATCHES));

    // ---- set-up: datagen → ingest → curation -----------------------
    let plan_for = |store: &snb_store::Store, tail: &[_], cur: &setup::Curation| {
        refresh::plan(store, tail, config.stream_cut(), args.seed, cur, delete_batches)
    };
    let (store, tail, cur, plan) = if !args.trace {
        let mut times = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            drop(kept.take());
            let t = Instant::now();
            let (store, tail) = snb_store::streaming_bulk_store_and_stream(&config);
            let cur = setup::curate(&store, args.seed);
            let plan = plan_for(&store, &tail, &cur);
            times.push(t.elapsed().as_secs_f64());
            kept = Some((store, tail, cur, plan));
        }
        m.set("setup_s", median(&times), "s");
        kept.expect("at least one set-up")
    } else {
        let t = Instant::now();
        let (plain, plain_tail) = snb_store::streaming_bulk_store_and_stream(&config);
        let untraced_s = t.elapsed().as_secs_f64();
        let open = tracer.begin("setup.build", 0, 0);
        let (store, tail, ingest) = setup::build_traced(&config, &tracer, open.id());
        let traced_s = tracer.end(open).as_secs_f64();
        let (cur, took) = tracer.time("params.curation", 0, 0, || setup::curate(&store, args.seed));
        let (plan, plan_took) =
            tracer.time("params.refresh_plan", 0, 0, || plan_for(&store, &tail, &cur));
        m.set("datagen.persons_s", ingest.persons_s, "s");
        m.set("datagen.knows_s", ingest.knows_s, "s");
        m.set("datagen.activity_s", ingest.activity_s, "s");
        m.set("store.ingest_s", ingest.ingest_s, "s");
        m.set("store.finish_s", ingest.finish_s, "s");
        m.set("params.curation_s", (took + plan_took).as_secs_f64(), "s");
        m.set("trace.setup_overhead", traced_s / untraced_s - 1.0, "ratio");
        // The traced build composes the library's calls by hand; it must
        // produce exactly the store the library builds.
        let ctx = QueryContext::new(threads);
        let (a, b) = (plain.stats(), store.stats());
        if (a.nodes, a.edges) != (b.nodes, b.edges) || plain_tail.len() != tail.len() {
            o.errors.push(format!(
                "traced build differs: {} nodes / {} edges vs {} / {}",
                a.nodes, a.edges, b.nodes, b.edges
            ));
        }
        for bs in &cur.bindings {
            if snb_bi::run_with(&plain, &ctx, &bs[0]) != snb_bi::run_with(&store, &ctx, &bs[0]) {
                o.errors.push(format!("traced build answers BI {} differently", bs[0].query()));
            }
        }
        (store, tail, cur, plan)
    };
    let st = store.stats();
    o.nodes = st.nodes;
    o.edges = st.edges;
    o.tail_events = tail.len();
    o.pools = (cur.person_keys.len(), cur.message_keys.len());
    m.set("params.is_person_keys", cur.person_keys.len() as f64, "count");
    m.set("params.is_message_keys", cur.message_keys.len() as f64, "count");
    let base = PartitionedStore::new(store, 1);
    let world = StaticWorld::build(config.seed);
    let window = Instant::now();

    // ---- the three tests, interleaved in rounds ----------------------
    let mut power = PowerRuns::new(threads);
    let inserts = &tail[..plan.day_one];
    let refresh = |power: &mut PowerRuns, o: &mut Outcome, reps: usize| {
        power.refresh(&base, inserts, &plan.power_deletes, &world, &tracer, reps, o)
    };
    refresh(&mut power, &mut o, share(sizes.refreshes, 0));
    let post = power.post.clone().unwrap_or_else(|| base.clone());
    let quiet = Tracer::new(false);
    let mut svc = service::ServiceTest::start(&post, &cur, args.seed, threads, false);
    // The traced run sends every slice twice, without and with server
    // profiling: the gap is the tracing overhead on short-read latency.
    let mut svc_traced =
        args.trace.then(|| service::ServiceTest::start(&post, &cur, args.seed, threads, true));
    let wal_dir = bench_dir().join("work").join(format!("wal-{}", std::process::id()));
    let mut tput = throughput::ThroughputTest::start(
        &post,
        &tail,
        &plan,
        sizes.batches,
        &cur.bindings,
        config.seed,
        args.seed,
        &wal_dir,
        threads,
        args.trace,
    );
    for round in 0..ROUNDS {
        if round > 0 {
            refresh(&mut power, &mut o, share(sizes.refreshes, round));
        }
        power.streams(&post, &cur, &tracer, args.trace, share(sizes.streams, round));
        svc.slice(share(sizes.requests, round), &quiet);
        if let Some(t) = &mut svc_traced {
            t.slice(share(sizes.requests, round), &tracer);
        }
        tput.slice(share(sizes.batches, round), &tracer);
    }
    o.measured_s = window.elapsed().as_secs_f64();
    drop(base);
    let plain = svc.finish();
    match svc_traced {
        Some(t) => {
            let traced = t.finish();
            let p50 = |s: &service::ServiceOut| median(&s.short_us);
            m.set("trace.svc_overhead", p50(&traced) / p50(&plain) - 1.0, "ratio");
            report::service_metrics(&plain, &mut Metrics::default(), &mut o);
            report::service_metrics(&traced, &mut m, &mut o);
        }
        None => report::service_metrics(&plain, &mut m, &mut o),
    }
    report::throughput_metrics(&tput.finish(), &mut m, &mut o);

    // ---- power test results, validated off the clock ------------------
    power.finish(args, &post, &cur, &tracer, threads, &mut m, &mut o);
    o.power_inserts = inserts.len();
    o.power_deletes = plan.power_deletes.len();

    if args.trace {
        let path = bench_dir().join("traces").join(format!(
            "{}-seed{}-{}.jsonl",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
        o.trace_file = Some(path);
    }
    o.metrics = m;
    o
}

/// Rounds the three tests are split into. Host noise on a small shared
/// machine comes in phases of a few to tens of seconds; spreading each
/// test's samples evenly over the run keeps one phase from moving a
/// whole metric.
const ROUNDS: usize = 5;

/// Round `round`'s part of `total` samples.
fn share(total: usize, round: usize) -> usize {
    total / ROUNDS + usize::from(round < total % ROUNDS)
}

/// The power test's samples: refresh applications on fresh handles
/// over the bulk store, and power streams over the post-refresh store.
struct PowerRuns {
    plain: QueryContext,
    profiled: QueryContext,
    post: Option<PartitionedStore>,
    refreshes: Vec<power::RefreshTimes>,
    streams: Vec<power::StreamRun>,
    traced: Vec<power::StreamRun>,
}

impl PowerRuns {
    fn new(threads: usize) -> PowerRuns {
        PowerRuns {
            plain: QueryContext::new(threads),
            profiled: QueryContext::new(threads).with_profiling(true),
            post: None,
            refreshes: Vec::new(),
            streams: Vec::new(),
            traced: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn refresh(
        &mut self,
        base: &PartitionedStore,
        inserts: &[snb_datagen::stream::TimedEvent],
        deletes: &[snb_store::DeleteOp],
        world: &StaticWorld,
        tracer: &Tracer,
        reps: usize,
        o: &mut Outcome,
    ) {
        for _ in 0..reps {
            let rep = self.refreshes.len() as u64;
            match power::apply_refresh(base, inserts, deletes, world, tracer, rep) {
                Ok((store, times, stats)) => {
                    if let Some(first) = o.power_delete_stats {
                        if first != stats {
                            o.errors.push(format!(
                                "refresh {rep} removed {stats:?}, refresh 0 {first:?}"
                            ));
                        }
                    }
                    o.power_delete_stats = Some(stats);
                    self.refreshes.push(times);
                    self.post.get_or_insert(store);
                }
                Err(e) => {
                    o.errors.push(format!("power refresh failed: {e}"));
                    o.failed += 1;
                }
            }
            o.attempted += 1;
        }
    }

    fn streams(
        &mut self,
        post: &PartitionedStore,
        cur: &setup::Curation,
        tracer: &Tracer,
        trace: bool,
        n: usize,
    ) {
        if self.streams.is_empty() {
            power::warm_up(post, &self.plain, &cur.bindings);
        }
        let quiet = Tracer::new(false);
        for _ in 0..n {
            let i = self.streams.len() as u64;
            self.streams.push(power::run_stream(post, &self.plain, &cur.bindings, &quiet, i));
            if trace {
                // Untraced and traced streams alternate; per-layer
                // numbers come from the traced ones, the gap is the
                // tracing overhead.
                self.traced.push(power::run_stream(post, &self.profiled, &cur.bindings, tracer, i));
            }
        }
    }

    /// Validates every stream and sets the power metrics.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        self,
        args: &Args,
        post: &PartitionedStore,
        cur: &setup::Curation,
        tracer: &Tracer,
        threads: usize,
        m: &mut Metrics,
        o: &mut Outcome,
    ) {
        let (streams, traced) = (&self.streams, &self.traced);
        o.power_streams = streams.len() + traced.len();
        o.attempted += ((streams.len() + traced.len()) * 25 * setup::BINDINGS_PER_QUERY) as u64;
        if self.refreshes.is_empty() || streams.is_empty() {
            o.errors.push("the power test measured nothing".into());
            return;
        }
        let refresh_s = median(&self.refreshes.iter().map(|r| r.total_s).collect::<Vec<_>>());
        let score = power::score(streams);
        o.samples.push(("power stream total s", streams.iter().map(|s| s.total_s()).collect()));
        o.samples.push(("power refresh s", self.refreshes.iter().map(|r| r.total_s).collect()));

        // Every timed binding against the naive engine, and every
        // stream against the first.
        let first = &streams[0].summaries;
        if streams.iter().chain(traced).any(|s| &s.summaries != first) {
            o.errors.push("power streams disagree with each other".into());
        }
        for bad in power::validate_naive(post, &cur.bindings, first, threads) {
            o.errors.push(bad);
        }
        o.zero_row_queries = first
            .iter()
            .enumerate()
            .filter(|(_, s)| s.iter().all(|x| x.rows == 0))
            .map(|(q, _)| q as u8 + 1)
            .collect();
        o.rows_per_query = first.iter().map(|s| s.iter().map(|x| x.rows).sum()).collect();
        o.power_query_p50_ms = score.per_query_median_s.iter().map(|s| s * 1e3).collect();

        m.set(
            "power_at_sf",
            power::power_at_sf(refresh_s, &score.per_query_median_s, setup::SF),
            "1/h",
        );
        m.set("power_total_s", score.total_s, "s");
        m.set("power_refresh_s", refresh_s, "s");
        if args.trace {
            report::power_layer_metrics(&self.refreshes, o.power_delete_stats, traced, m);
            let spans = tracer.spans();
            let span_sum: f64 =
                (1..=25).map(|q| trace::total_secs(&spans, &power::span_name(q))).sum::<f64>()
                    / traced.len() as f64;
            let ratio = span_sum / score.total_s;
            m.set("trace.power_overhead", ratio - 1.0, "ratio");
            if (ratio - 1.0).abs() > SPAN_SUM_BOUND {
                o.errors.push(format!(
                    "bi.* spans sum to {span_sum:.4}s per stream, power_total_s is {:.4}s",
                    score.total_s
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads this binary accepts and the metrics it prints.
    #[test]
    fn benchmark_json_matches_the_report() {
        let json = std::fs::read_to_string(bench_dir().join("..").join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut expected: Vec<String> =
            [Workload::Refresh, Workload::Insert].iter().map(|w| w.name().to_string()).collect();
        expected.extend(report::END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(report::per_layer());
        assert_eq!(declared, expected);
        for w in &expected[..2] {
            assert!(Workload::parse(w).is_some());
        }
    }

    #[test]
    fn sizes_never_drop_below_the_minimum() {
        let small = Sizes::for_seconds(1.0);
        assert_eq!(small.batches, throughput::MIN_BATCHES);
        assert_eq!(small.requests, service::MIN_REQUESTS);
        let double = Sizes::for_seconds(2.0 * NOMINAL_SECONDS);
        assert_eq!(double.streams, 2 * power::STREAMS);
    }
}
