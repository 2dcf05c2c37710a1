//! `--interference`: experiment E15 — read-latency cost of concurrent
//! writes on the snapshot-published store.
//!
//! Two identical closed-loop read windows run against the same
//! in-process server:
//!
//! 1. **baseline** — reads only; results are verified per request
//!    against the power-run oracle (the store is quiescent).
//! 2. **with_writes** — the same read load while a writer replays the
//!    update stream (inserts plus interleaved like-deletes) through
//!    the snapshot write path, one published store version per batch.
//!
//! On a lock-free read path the second window's p99 should sit close
//! to the first — readers pin a version at admission and never wait
//! for the writer — so the emitted `"interference"` block carries both
//! latency curves, their p99 ratio, and the version-publish counters
//! (`versions_published`, `peak_live_snapshots`, `reader_retries`,
//! `reader_blocked`). CI asserts `reader_blocked == 0`: a reader that
//! ever had to yield means the read path regressed to blocking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snb_bi::{BiParams, QuerySummary};
use snb_engine::QueryContext;
use snb_params::ParamGen;
use snb_server::{Server, ServiceParams};
use snb_store::DeleteOp;

use crate::harness::{self, percentile};
use crate::{Args, BindingPicker, ClientStats};

/// Update events per published version during the write window.
const WRITE_BATCH: usize = 48;

/// One closed-loop read window against the running server.
fn drive_window(
    server: &Server,
    args: &Args,
    pool: &[(u8, BiParams)],
    oracle: Option<&[QuerySummary]>,
    label: &str,
) -> (ClientStats, Duration) {
    eprintln!("# {label}: {} client(s) for {:?} ...", args.clients, args.duration);
    let started = Instant::now();
    let end = started + args.duration;
    let mut total = ClientStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|client| {
                let client_conn = server.client();
                scope.spawn(move || {
                    let mut stats = ClientStats::default();
                    let mut picker = BindingPicker::new(args.config.seed, client, pool.len());
                    while Instant::now() < end {
                        let bidx = picker.next();
                        let (_, params) = &pool[bidx];
                        stats.issued += 1;
                        let t0 = Instant::now();
                        let resp =
                            client_conn.call(ServiceParams::Bi(params.clone()), args.deadline_us);
                        let latency_us = t0.elapsed().as_micros() as u64;
                        stats.note(&resp, latency_us, oracle.map(|o| &o[bidx]));
                    }
                    stats
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("interference client"));
        }
    });
    (total, started.elapsed())
}

fn latency_json(stats: &ClientStats) -> String {
    let lat = &stats.latencies_us;
    let mean = if lat.is_empty() { 0 } else { lat.iter().sum::<u64>() / lat.len() as u64 };
    format!(
        "{{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
        lat.len(),
        mean,
        percentile(lat, 0.50),
        percentile(lat, 0.95),
        percentile(lat, 0.99),
        lat.last().copied().unwrap_or(0),
    )
}

pub fn run(args: &Args) {
    eprintln!("# building store: {} persons (seed {}) ...", args.config.persons, args.config.seed);
    let (store, stream) = snb_store::bulk_store_and_stream(&args.config);
    let pool: Vec<(u8, BiParams)> = {
        let gen = ParamGen::new(&store, args.config.seed);
        args.queries
            .iter()
            .flat_map(|&q| {
                gen.bi_params(q, args.bindings_per_query).into_iter().map(move |p| (q, p))
            })
            .collect()
    };
    assert!(!pool.is_empty(), "no bindings generated");
    let oracle: Vec<QuerySummary> = {
        let ctx = QueryContext::single_threaded();
        pool.iter().map(|(_, p)| snb_bi::run_with(&store, &ctx, p)).collect()
    };

    let server = Server::start(store, args.server.clone());

    // Window 1: write-free baseline, oracle-verified.
    let (baseline, base_wall) = drive_window(&server, args, &pool, Some(&oracle), "baseline");
    let stats_after_baseline = server.snapshot_stats();
    assert_eq!(stats_after_baseline.version, 0, "baseline window must not publish store versions");

    // Window 2: the same read load with the writer publishing versions.
    let stop = Arc::new(AtomicU64::new(0));
    let writer_handle = {
        let writer = server.writer();
        let world = snb_datagen::dictionaries::StaticWorld::build(args.config.seed);
        let stop = Arc::clone(&stop);
        let stream = stream.clone();
        // Pace the replay across the whole window so writes stay live
        // for every read, not just the first slice.
        let pace = args.duration.div_f64(stream.len().max(1) as f64);
        std::thread::spawn(move || {
            let mut pending_likes: Vec<DeleteOp> = Vec::new();
            for (c, chunk) in stream.chunks(WRITE_BATCH).enumerate() {
                if stop.load(Ordering::Acquire) != 0 {
                    break;
                }
                for (i, event) in chunk.iter().enumerate() {
                    if let snb_datagen::stream::UpdateEvent::AddLikePost(like) = &event.event {
                        if (c * WRITE_BATCH + i).is_multiple_of(2) {
                            pending_likes.push(DeleteOp::Like(like.person.0, like.message.0));
                        }
                    }
                }
                writer.apply_update_batch(chunk, &world).expect("interference update apply");
                // Deletes rebuild the partition layout wholesale, so
                // flush them sparsely rather than per batch.
                if pending_likes.len() >= 32 {
                    writer.apply_deletes(&pending_likes).expect("interference delete apply");
                    pending_likes.clear();
                }
                // Spread the replay across the whole window (no cap:
                // the write rate is the experiment's independent
                // variable, and saturating a single core with the
                // writer would measure CPU contention, not the read
                // path).
                if pace > Duration::ZERO {
                    std::thread::sleep(pace * WRITE_BATCH as u32);
                }
            }
            if !pending_likes.is_empty() {
                writer.apply_deletes(&pending_likes).expect("interference delete apply");
            }
            writer.validate_invariants().expect("store invariants after interference replay");
        })
    };
    let (with_writes, write_wall) = drive_window(&server, args, &pool, None, "with_writes");
    stop.store(1, Ordering::Release);
    writer_handle.join().expect("interference writer");

    let report = server.shutdown();
    assert!(report.versions_published > 0, "write window never published a store version");

    let p99_base = percentile(
        &{
            let mut l = baseline.latencies_us.clone();
            l.sort_unstable();
            l
        },
        0.99,
    );
    let p99_writes = percentile(
        &{
            let mut l = with_writes.latencies_us.clone();
            l.sort_unstable();
            l
        },
        0.99,
    );
    let ratio = if p99_base == 0 { 0.0 } else { p99_writes as f64 / p99_base as f64 };

    let mut baseline = baseline;
    let mut with_writes = with_writes;
    baseline.latencies_us.sort_unstable();
    with_writes.latencies_us.sort_unstable();

    snb_bench::print_table(
        "E15: read-latency interference (write-free vs concurrent writes)",
        &["window", "issued", "ok", "p50", "p95", "p99", "achieved qps"],
        &[
            vec![
                "baseline".into(),
                baseline.issued.to_string(),
                baseline.ok.to_string(),
                snb_bench::fmt_duration(Duration::from_micros(percentile(
                    &baseline.latencies_us,
                    0.50,
                ))),
                snb_bench::fmt_duration(Duration::from_micros(percentile(
                    &baseline.latencies_us,
                    0.95,
                ))),
                snb_bench::fmt_duration(Duration::from_micros(p99_base)),
                format!("{:.1}", baseline.ok as f64 / base_wall.as_secs_f64()),
            ],
            vec![
                "with_writes".into(),
                with_writes.issued.to_string(),
                with_writes.ok.to_string(),
                snb_bench::fmt_duration(Duration::from_micros(percentile(
                    &with_writes.latencies_us,
                    0.50,
                ))),
                snb_bench::fmt_duration(Duration::from_micros(percentile(
                    &with_writes.latencies_us,
                    0.95,
                ))),
                snb_bench::fmt_duration(Duration::from_micros(p99_writes)),
                format!("{:.1}", with_writes.ok as f64 / write_wall.as_secs_f64()),
            ],
        ],
    );
    println!(
        "read p99 under writes: {:.2}x baseline ({} versions published, {} peak live, \
         {} reader retries, {} reader blocked)",
        ratio,
        report.versions_published,
        report.peak_live_snapshots,
        report.reader_retries,
        report.reader_blocked,
    );

    let mut out = String::from("{\n");
    out.push_str(&format!("    \"meta\": {},\n", snb_bench::meta_json(&args.config)));
    out.push_str(&format!(
        "    \"config\": {{\"clients\": {}, \"duration_us\": {}, \"deadline_us\": {}, \
         \"transport\": \"inproc\", \"workers\": {}, \
         \"queue_capacity\": {}, \"partitions\": {}, \"bindings\": {}}},\n",
        args.clients,
        args.duration.as_micros(),
        args.deadline_us,
        args.server.workers,
        args.server.queue_capacity,
        args.server.partitions,
        pool.len(),
    ));
    out.push_str(&format!(
        "    \"baseline\": {},\n    \"with_writes\": {},\n    \
         \"read_p99_ratio\": {:.4},\n    \"writes\": {{\"updates_applied\": {}, \
         \"deletes_applied\": {}, \"versions_published\": {}}},\n    \
         \"snapshots\": {{\"store_version\": {}, \"versions_published\": {}, \
         \"peak_live_snapshots\": {}, \"reader_retries\": {}, \"reader_blocked\": {}}}\n  }}",
        latency_json(&baseline),
        latency_json(&with_writes),
        ratio,
        report.updates_applied,
        report.deletes_applied,
        report.versions_published,
        report.versions_published,
        report.versions_published,
        report.peak_live_snapshots,
        report.reader_retries,
        report.reader_blocked,
    ));
    harness::write_block(&args.out, "interference", &out);

    let failures = baseline.protocol_errors
        + baseline.verify_failures
        + with_writes.protocol_errors
        + with_writes.verify_failures;
    if failures > 0 || baseline.ok == 0 || with_writes.ok == 0 {
        eprintln!(
            "interference: FAILED ({} protocol/verify failures, baseline ok={}, \
             with_writes ok={})",
            failures, baseline.ok, with_writes.ok
        );
        std::process::exit(1);
    }
}
