//! The power test (paper §6): one refresh batch applied straight
//! through `StoreHandle::publish_with`, then one sequential stream of
//! all 25 BI queries over curated bindings. No server, no WAL.

use std::time::{Duration, Instant};

use snb_bi::{BiParams, QuerySummary};
use snb_core::SnbResult;
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::TimedEvent;
use snb_engine::{QueryContext, QueryProfile};
use snb_store::{DeleteOp, DeleteStats, PartitionedStore, Store, StoreHandle};

use crate::stats::median;
use crate::trace::Tracer;

/// Refresh applications per run; their median is `power_refresh_s`.
pub const REFRESH_REPS: usize = 9;
/// Power streams per run; per-query medians and the median stream
/// total are taken over them.
pub const STREAMS: usize = 10;

/// One refresh application, split by the layer that did the work.
#[derive(Clone, Copy, Debug)]
pub struct RefreshTimes {
    pub total_s: f64,
    /// `publish_with` minus its closure: the version clone and publish.
    pub clone_ms: f64,
    pub insert_ms: f64,
    pub delete_ms: f64,
    pub date_index_ms: f64,
}

/// Applies the day of inserts plus the delete batch to a fresh handle
/// over `base` and returns the published store.
pub fn apply_refresh(
    base: &PartitionedStore,
    inserts: &[TimedEvent],
    deletes: &[DeleteOp],
    world: &StaticWorld,
    tracer: &Tracer,
    req: u64,
) -> SnbResult<(PartitionedStore, RefreshTimes, DeleteStats)> {
    let handle = StoreHandle::new(base.clone());
    let open = tracer.begin("store.publish_with", 0, req);
    let parent = open.id();
    let (mut ins, mut del, mut idx, mut inside) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let stats = handle.publish_with(|s| {
        let started = Instant::now();
        let (applied, took) = tracer.time("store.insert", parent, req, || {
            inserts.iter().try_for_each(|e| s.apply_event(e, world))
        });
        ins = took;
        applied?;
        // An empty batch is skipped: applying one would still rebuild
        // the whole store.
        let (stats, took) = tracer.time("store.delete", parent, req, || {
            if deletes.is_empty() {
                Ok(DeleteStats::default())
            } else {
                s.apply_deletes(deletes)
            }
        });
        del = took;
        let stats = stats?;
        let (_, took) = tracer.time("store.date_index", parent, req, || {
            if !s.date_index_fresh() {
                s.rebuild_date_index();
            }
        });
        idx = took;
        inside = started.elapsed();
        Ok(stats)
    })?;
    let total = tracer.end(open);
    let post = PartitionedStore::clone(&handle.snapshot());
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let times = RefreshTimes {
        total_s: total.as_secs_f64(),
        clone_ms: ms(total.saturating_sub(inside)),
        insert_ms: ms(ins),
        delete_ms: ms(del),
        date_index_ms: ms(idx),
    };
    Ok((post, times, stats))
}

/// One sequential pass over every binding of every query.
pub struct StreamRun {
    /// Seconds per binding, per query.
    pub secs: Vec<Vec<f64>>,
    pub summaries: Vec<Vec<QuerySummary>>,
    /// Operator counters per query (worker busy time only when the
    /// context profiles).
    pub profiles: Vec<QueryProfile>,
}

impl StreamRun {
    pub fn total_s(&self) -> f64 {
        self.secs.iter().flatten().sum()
    }
}

pub fn span_name(query: usize) -> String {
    format!("bi.q{query:02}")
}

pub fn run_stream(
    store: &Store,
    ctx: &QueryContext,
    bindings: &[Vec<BiParams>],
    tracer: &Tracer,
    req: u64,
) -> StreamRun {
    let mut run = StreamRun { secs: Vec::new(), summaries: Vec::new(), profiles: Vec::new() };
    for (qi, bs) in bindings.iter().enumerate() {
        let name = span_name(qi + 1);
        ctx.metrics().reset();
        let mut secs = Vec::with_capacity(bs.len());
        let mut sums = Vec::with_capacity(bs.len());
        for b in bs {
            let (summary, took) = tracer
                .time(&name, 0, req, || snb_bi::run_with(store, ctx, std::hint::black_box(b)));
            secs.push(took.as_secs_f64());
            sums.push(summary);
        }
        run.secs.push(secs);
        run.summaries.push(sums);
        run.profiles.push(ctx.metrics().snapshot());
    }
    run
}

/// Runs each query's first binding once, untimed, so first-touch
/// effects stay out of the measured streams.
pub fn warm_up(store: &Store, ctx: &QueryContext, bindings: &[Vec<BiParams>]) {
    for b in bindings.iter().filter_map(|bs| bs.first()) {
        std::hint::black_box(snb_bi::run_with(store, ctx, b));
    }
}

/// Checks every binding against the naive reference engine on
/// `threads` threads; returns the bindings that disagree.
pub fn validate_naive(
    store: &Store,
    bindings: &[Vec<BiParams>],
    expected: &[Vec<QuerySummary>],
    threads: usize,
) -> Vec<String> {
    let items: Vec<(&BiParams, QuerySummary)> =
        bindings.iter().flatten().zip(expected.iter().flatten().copied()).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut bad = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some((b, want)) = items.get(i) else { break };
                        let naive = snb_bi::run_naive(store, b);
                        if naive != *want {
                            bad.push(format!(
                                "BI {}: optimized {want:?} != naive {naive:?}",
                                b.query()
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("naive validation thread")).collect()
    })
}

/// Per-query medians and per-stream totals over several streams.
pub struct PowerScore {
    pub per_query_median_s: Vec<f64>,
    pub total_s: f64,
}

pub fn score(streams: &[StreamRun]) -> PowerScore {
    let per_query_median_s = (0..25)
        .map(|q| {
            let all: Vec<f64> = streams.iter().flat_map(|s| s.secs[q].iter().copied()).collect();
            median(&all)
        })
        .collect();
    let totals: Vec<f64> = streams.iter().map(StreamRun::total_s).collect();
    PowerScore { per_query_median_s, total_s: median(&totals) }
}

/// The paper's power score: 3600 / geometric mean of the refresh time
/// and the 25 per-query medians (all in seconds), times SF.
pub fn power_at_sf(refresh_s: f64, per_query_median_s: &[f64], sf: f64) -> f64 {
    let mut terms = vec![refresh_s];
    terms.extend_from_slice(per_query_median_s);
    3600.0 / crate::stats::geomean(&terms) * sf
}
