//! Metrics, correctness gates and the result record of one run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

use snb_store::DeleteStats;

use crate::power::{RefreshTimes, StreamRun};
use crate::service::ServiceOut;
use crate::stats::{median, quantile};
use crate::throughput::ThroughputOut;
use crate::{service, throughput, Args};

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("power_at_sf", "1/h"),
    ("power_total_s", "s"),
    ("power_refresh_s", "s"),
    ("throughput_qps", "1/s"),
    ("refresh_ack_p50_ms", "ms"),
    ("refresh_ack_p90_ms", "ms"),
    ("svc_short_p50_us", "us"),
    ("svc_heavy_p50_ms", "ms"),
    ("svc_good_ratio", "ratio"),
];

/// The per-layer metrics every traced run prints.
pub fn per_layer() -> Vec<String> {
    let mut names: Vec<String> = [
        "datagen.persons_s",
        "datagen.knows_s",
        "datagen.activity_s",
        "store.ingest_s",
        "store.finish_s",
        "store.publish.clone_ms",
        "store.insert_ms",
        "store.delete_ms",
        "store.date_index_ms",
        "store.delete.cascaded_rows",
        "params.curation_s",
        "params.is_person_keys",
        "params.is_message_keys",
        "engine.rows_scanned",
        "engine.edges_traversed",
        "engine.index_hit_ratio",
        "engine.topk_prune_rate",
        "engine.worker_skew",
        "engine.q18.rows_scanned",
        "engine.q18.edges_traversed",
        "engine.q19.rows_scanned",
        "engine.q19.edges_traversed",
        "engine.q02.rows_scanned",
        "engine.q02.edges_traversed",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for q in 1..=25 {
        names.push(format!("bi.q{q:02}.p50_ms"));
        names.push(format!("bi.q{q:02}.rows"));
    }
    names.extend(
        [
            "interactive.is.exec_us.p50",
            "svc_short_p90_us",
            "svc_short_p99_us",
            "server.write.queue_ms.p50",
            "server.write.exec_ms.p50",
            "server.write.exec_ms.p90",
            "server.heavy.queue_ms.p50",
            "server.heavy.exec_ms.p50",
            "server.short.queue_us.p50",
            "server.short.queue_us.p99",
            "server.short.exec_us.p50",
            "server.short.exec_us.p99",
            "server.short.wire_us.p50",
            "server.short.wire_us.p99",
            "server.tcp.heavy.exec_ms.p50",
            "server.short.shed",
            "server.heavy.shed",
            "server.short.served",
            "server.heavy.served",
            "load.late_ms.p99",
            "load.writer.late_ms.p99",
            "load.sender.late_ms.p99",
            "failed_ratio",
            "trace.setup_overhead",
            "trace.power_overhead",
            "trace.svc_overhead",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    names
}

/// Named measurements of one run.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.values.get(name).copied()
    }
}

/// Everything one run reports besides its metrics.
#[derive(Default)]
pub struct Outcome {
    pub threads: usize,
    pub nodes: u64,
    pub edges: u64,
    pub tail_events: usize,
    pub pools: (usize, usize),
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub power_inserts: usize,
    pub power_deletes: usize,
    pub power_delete_stats: Option<DeleteStats>,
    pub power_streams: usize,
    pub rows_per_query: Vec<usize>,
    pub power_query_p50_ms: Vec<f64>,
    pub zero_row_queries: Vec<u8>,
    pub batches: usize,
    pub window_s: f64,
    pub delete_stats: Vec<DeleteStats>,
    pub checked_reads: usize,
    pub requests: usize,
    pub server_start_s: f64,
    pub writer_late_p99: f64,
    pub sender_late_p99: f64,
    pub measured_s: f64,
    pub trace_file: Option<PathBuf>,
    /// The per-sample values behind each median, printed so a reader
    /// can tell noise within a run from drift between runs.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub metrics: Metrics,
}

/// Per-layer metrics of the traced power test.
pub fn power_layer_metrics(
    refreshes: &[RefreshTimes],
    stats: Option<DeleteStats>,
    traced: &[StreamRun],
    m: &mut Metrics,
) {
    let med = |f: fn(&RefreshTimes) -> f64| median(&refreshes.iter().map(f).collect::<Vec<_>>());
    m.set("store.publish.clone_ms", med(|r| r.clone_ms), "ms");
    m.set("store.insert_ms", med(|r| r.insert_ms), "ms");
    m.set("store.delete_ms", med(|r| r.delete_ms), "ms");
    m.set("store.date_index_ms", med(|r| r.date_index_ms), "ms");
    m.set(
        "store.delete.cascaded_rows",
        stats.map_or(0, |s| crate::refresh::removed_rows(&s)) as f64,
        "count",
    );

    // Counters per stream, merged over the traced streams.
    let n = traced.len().max(1) as f64;
    let mut all = snb_engine::QueryProfile::default();
    for s in traced {
        for p in &s.profiles {
            all.merge(p);
        }
    }
    let probes = all.index_hits + all.index_fallbacks;
    m.set("engine.rows_scanned", all.rows_scanned as f64 / n, "count");
    m.set("engine.edges_traversed", all.edges_traversed as f64 / n, "count");
    m.set(
        "engine.index_hit_ratio",
        if probes == 0 { 1.0 } else { all.index_hits as f64 / probes as f64 },
        "ratio",
    );
    m.set("engine.topk_prune_rate", all.prune_rate(), "ratio");
    m.set("engine.worker_skew", all.worker_skew(), "ratio");
    for q in [18usize, 19, 2] {
        let mut p = snb_engine::QueryProfile::default();
        for s in traced {
            p.merge(&s.profiles[q - 1]);
        }
        m.set(&format!("engine.q{q:02}.rows_scanned"), p.rows_scanned as f64 / n, "count");
        m.set(&format!("engine.q{q:02}.edges_traversed"), p.edges_traversed as f64 / n, "count");
    }
    let score = crate::power::score(traced);
    for q in 0..25 {
        m.set(&format!("bi.q{:02}.p50_ms", q + 1), score.per_query_median_s[q] * 1e3, "ms");
        let rows: usize = traced.first().map_or(0, |s| s.summaries[q].iter().map(|x| x.rows).sum());
        m.set(&format!("bi.q{:02}.rows", q + 1), rows as f64, "count");
    }
}

pub fn throughput_metrics(t: &ThroughputOut, m: &mut Metrics, o: &mut Outcome) {
    m.set("throughput_qps", median(&t.segment_qps), "1/s");
    o.samples.push(("throughput segment qps", t.segment_qps.clone()));
    m.set("refresh_ack_p50_ms", quantile(&t.ack_ms, 0.5), "ms");
    m.set("refresh_ack_p90_ms", quantile(&t.ack_ms, 0.9), "ms");
    m.set("server.write.queue_ms.p50", quantile(&t.write_queue_ms, 0.5), "ms");
    m.set("server.write.exec_ms.p50", quantile(&t.write_exec_ms, 0.5), "ms");
    m.set("server.write.exec_ms.p90", quantile(&t.write_exec_ms, 0.9), "ms");
    m.set("server.heavy.queue_ms.p50", quantile(&t.heavy_queue_ms, 0.5), "ms");
    m.set("server.heavy.exec_ms.p50", quantile(&t.heavy_exec_ms, 0.5), "ms");
    o.writer_late_p99 = quantile(&t.late_ms, 0.99);
    m.set("load.writer.late_ms.p99", o.writer_late_p99, "ms");
    if o.writer_late_p99 > throughput::WRITER_LATE_BOUND_MS {
        o.errors.push(format!(
            "writer fell behind its schedule: p99 lateness {:.1} ms > {} ms",
            o.writer_late_p99,
            throughput::WRITER_LATE_BOUND_MS
        ));
    }
    o.attempted += (t.reads_attempted + t.batches + throughput::WARMUP_BATCHES) as u64;
    o.failed += (t.reads_failed + t.writes_failed) as u64;
    o.errors.extend(t.errors.iter().cloned());
    o.server_start_s += t.server_start_s;
    o.batches = t.batches;
    o.window_s = t.window_s;
    o.delete_stats = t.delete_stats.clone();
    o.checked_reads = t.checked_reads;
}

pub fn service_metrics(s: &ServiceOut, m: &mut Metrics, o: &mut Outcome) {
    // Each short-read percentile is the median over consecutive windows
    // of that percentile, so a burst of host noise moves one window, not
    // the metric.
    let windowed = |q: f64| {
        median(
            &s.short_us
                .chunks_exact(service::TAIL_WINDOW)
                .map(|w| quantile(w, q))
                .collect::<Vec<_>>(),
        )
    };
    m.set("svc_short_p50_us", windowed(0.5), "us");
    o.samples.push((
        "short-read window p50 us",
        s.short_us.chunks_exact(service::TAIL_WINDOW).map(|w| quantile(w, 0.5)).collect(),
    ));
    m.set("svc_short_p90_us", windowed(0.9), "us");
    m.set("svc_short_p99_us", windowed(0.99), "us");
    m.set("svc_heavy_p50_ms", quantile(&s.heavy_ms, 0.5), "ms");
    m.set("svc_good_ratio", s.good as f64 / s.requests as f64, "ratio");
    for (name, v) in
        [("queue", &s.short_queue_us), ("exec", &s.short_exec_us), ("wire", &s.short_wire_us)]
    {
        m.set(&format!("server.short.{name}_us.p50"), quantile(v, 0.5), "us");
        m.set(&format!("server.short.{name}_us.p99"), quantile(v, 0.99), "us");
    }
    m.set("server.tcp.heavy.exec_ms.p50", quantile(&s.heavy_exec_ms, 0.5), "ms");
    m.set("server.short.shed", s.shed[0] as f64, "count");
    m.set("server.heavy.shed", s.shed[1] as f64, "count");
    m.set("server.short.served", s.served[0] as f64, "count");
    m.set("server.heavy.served", s.served[1] as f64, "count");
    m.set("interactive.is.exec_us.p50", quantile(&s.is_exec_us, 0.5), "us");
    let late = quantile(&s.late_ms, 0.99);
    o.sender_late_p99 = o.sender_late_p99.max(late);
    m.set("load.sender.late_ms.p99", late, "ms");
    if late > service::SENDER_LATE_BOUND_MS {
        o.errors.push(format!(
            "sender fell behind its schedule: p99 lateness {late:.2} ms > {} ms",
            service::SENDER_LATE_BOUND_MS
        ));
    }
    o.attempted += s.requests as u64;
    o.failed += (s.requests - s.ok) as u64;
    o.errors.extend(s.errors.iter().cloned());
    o.server_start_s += s.server_start_s;
    o.requests += s.requests;
}

/// VmHWM of this process in MB (0 where /proc is missing).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the human-readable report, appends the result record and
/// prints the JSON result as the last line of standard output.
pub fn finish(args: &Args, mut o: Outcome) {
    let mut m = std::mem::take(&mut o.metrics);
    if let Some((setup, _)) = m.get("setup_s") {
        // Server start-up belongs to set-up: it is paid once per run.
        m.set("setup_s", setup + o.server_start_s, "s");
    }
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("failed_ratio", o.failed as f64 / o.attempted.max(1) as f64, "ratio");
    m.set("load.late_ms.p99", o.writer_late_p99.max(o.sender_late_p99), "ms");

    let names: Vec<(String, String)> = if args.trace {
        per_layer().into_iter().map(|n| (n, String::new())).collect()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    let mut printed = Vec::new();
    for (name, _) in &names {
        match m.get(name) {
            Some((v, u)) if v.is_finite() => printed.push((name.clone(), v, u)),
            _ => o.errors.push(format!("metric {name} was not measured")),
        }
    }
    let correct = o.errors.is_empty();

    print_summary(args, &o, &printed);
    if let Err(e) = append_record(args, &o, &printed, correct) {
        eprintln!("could not append the result record: {e}");
    }
    let metrics: Vec<String> = printed
        .iter()
        .map(|(n, v, u)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(n), json_num(*v), json_str(u))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
}

fn print_summary(args: &Args, o: &Outcome, printed: &[(String, f64, &str)]) {
    println!(
        "sf1bench {} seed {} trace {}: SF 1 (datagen seed {}), {} nodes, {} edges, {} stream-tail events, nproc {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        crate::setup::config().seed,
        o.nodes,
        o.edges,
        o.tail_events,
        o.threads
    );
    println!(
        "power test: refresh = {} inserts (one simulated day) + {} deletes, removed {:?}; {} stream(s)",
        o.power_inserts, o.power_deletes, o.power_delete_stats, o.power_streams
    );
    println!("  query   rows  p50_ms");
    for (q, (rows, p50)) in o.rows_per_query.iter().zip(&o.power_query_p50_ms).enumerate() {
        println!("  BI {:>2} {:>6} {:>8.3}", q + 1, rows, p50);
    }
    println!("  queries returning 0 rows for every binding: {:?}", o.zero_row_queries);
    println!(
        "throughput test: {} write batches due every {} ms (every {}th deletes), WAL fsync on every append; window {:.2} s; {} pinned reads re-checked",
        o.batches,
        throughput::WRITE_INTERVAL.as_millis(),
        crate::refresh::DELETE_EVERY,
        o.window_s,
        o.checked_reads
    );
    for (i, st) in o.delete_stats.iter().enumerate() {
        println!("  delete batch {}: {st:?}", i + 1);
    }
    println!(
        "service test: {} requests at {} req/s over one TCP connection, key pools {} persons / {} messages",
        o.requests, service::RATE, o.pools.0, o.pools.1
    );
    println!(
        "lateness p99: writer {:.2} ms, sender {:.3} ms",
        o.writer_late_p99, o.sender_late_p99
    );
    if let Some(p) = &o.trace_file {
        println!("spans: {}", p.display());
    }
    if o.errors.is_empty() {
        println!("correctness gates: all passed");
    } else {
        for e in &o.errors {
            println!("GATE FAILED: {e}");
        }
    }
    for (name, values) in &o.samples {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("  {name}: [{}]", shown.join(", "));
    }
    for (n, v, u) in printed {
        println!("  {n:<32} {v:>14.4} {u}");
    }
}

/// FNV-1a over the library and benchmark sources, so a result names
/// the code it measured even outside a git checkout.
fn source_hash() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = crate::bench_dir().join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("compat"), &mut files);
    walk(&crate::bench_dir().join("src"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(crate::bench_dir().join("Cargo.toml"));
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let rel = f.strip_prefix(&root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The git commit of the checkout, or "unknown" outside a repository.
fn git_commit() -> String {
    let root = crate::bench_dir().join("..");
    let ceiling = root.join("..");
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() as i64);
    let (y, mo, d) = snb_core::datetime::civil_from_days(secs.div_euclid(86_400) as i32);
    let t = secs.rem_euclid(86_400);
    format!("{y:04}-{mo:02}-{d:02}T{:02}:{:02}:{:02}Z", t / 3600, t / 60 % 60, t % 60)
}

/// Appends one JSON line to `results/trajectory.jsonl`; earlier lines
/// are never rewritten.
fn append_record(
    args: &Args,
    o: &Outcome,
    printed: &[(String, f64, &str)],
    correct: bool,
) -> std::io::Result<()> {
    let cfg = throughput::server_config(o.threads, args.trace);
    let wal = throughput::wal_options();
    let metrics: Vec<String> =
        printed.iter().map(|(n, v, _)| format!("{}: {}", json_str(n), json_num(*v))).collect();
    let errors: Vec<String> = o.errors.iter().map(|e| json_str(e)).collect();
    let deletes: Vec<String> = o
        .power_delete_stats
        .iter()
        .chain(&o.delete_stats)
        .map(|s| {
            format!(
                "[{}, {}, {}, {}, {}, {}]",
                s.persons, s.forums, s.messages, s.likes, s.memberships, s.knows
            )
        })
        .collect();
    let line = format!(
        "{{\"commit\": {}, \"source_fnv64\": \"{:016x}\", \"date\": {}, \"workload\": {}, \"seed\": {}, \"datagen_seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"sf\": 1, \"nodes\": {}, \"edges\": {}, \"nproc\": {}, \
         \"server\": {{\"workers\": {}, \"threads_per_worker\": {}, \"write_workers\": {}, \"partitions\": {}, \
         \"queue_capacity\": {}, \"profiling\": {}}}, \
         \"wal\": {{\"fsync_every\": {}, \"snapshot_every\": {}, \"group_commit\": {}}}, \
         \"write_interval_ms\": {}, \"batches\": {}, \"service_rate\": {}, \"service_requests\": {}, \
         \"key_pools\": [{}, {}], \"zero_row_queries\": {:?}, \
         \"delete_stats\": [{}], \"measured_s\": {:.3}, \"correct\": {correct}, \"errors\": [{}], \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        json_str(&git_commit()),
        source_hash(),
        json_str(&utc_now()),
        json_str(args.workload.name()),
        args.seed,
        crate::setup::config().seed,
        args.seconds,
        u8::from(args.trace),
        o.nodes,
        o.edges,
        o.threads,
        cfg.workers,
        cfg.threads_per_worker,
        cfg.write_workers,
        cfg.partitions,
        cfg.queue_capacity,
        cfg.profiling,
        wal.fsync_every,
        wal.snapshot_every,
        wal.group_commit,
        throughput::WRITE_INTERVAL.as_millis(),
        o.batches,
        service::RATE,
        o.requests,
        o.pools.0,
        o.pools.1,
        o.zero_row_queries,
        deletes.join(", "),
        o.measured_s,
        errors.join(", "),
        o.attempted,
        o.failed,
        metrics.join(", "),
    );
    let dir = crate::bench_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    let mut f =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join("trajectory.jsonl"))?;
    f.write_all(line.as_bytes())
}
