//! Experiment E12 — service-layer load generation against `snb-server`.
//!
//! Drives the query service with curated BI bindings in closed-loop
//! (each client issues its next request when the previous one answers)
//! or open-loop (`--open --rate R`: requests fire on a fixed schedule
//! regardless of completions, so queueing is visible as latency)
//! mode, and emits `BENCH_service.json` with the latency distribution,
//! offered vs achieved throughput, and the shed / deadline-miss
//! counters from the server's admission control.
//!
//! ```text
//! service_load [SF] [SEED] [--clients N] [--duration 10s]
//!              [--open --rate QPS] [--deadline-us N]
//!              [--workers N] [--queue-cap N] [--partitions N] [--profile]
//!              [--queries 2,12,18] [--bindings N]
//!              [--tcp | --connect HOST:PORT]
//!              [--updates] [--exercise-edges] [--retries N]
//!              [--wal-bench] [--loading] [--chaos [--server-bin PATH]]
//!              [--replication [--followers N]] [--split-brain]
//!              [--interference] [--out PATH]
//!              [--sweep] [--sweep-levels 1,2,...,1024] [--sweep-duration 2s]
//! ```
//!
//! Default transport is in-process (deterministic); `--tcp` drives the
//! same in-process server over loopback TCP; `--connect` targets an
//! externally started `snb-server`. Without `--updates`, every `ok`
//! response is verified against an in-process power-run oracle (same
//! store, same bindings, single-threaded context) — any fingerprint
//! divergence is a hard failure. `--updates` replays the update stream
//! (inserts plus interleaved like-deletes) through the server's write
//! path while clients read. `--exercise-edges` appends two bursts after
//! the measured window: a pipelined overload burst that must shed, and
//! a tiny-deadline burst that must miss deadlines.
//!
//! `--retries N` arms capped-exponential-backoff/full-jitter retries
//! (N attempts total) on transient rejections (`overloaded`,
//! `shutting_down`). `--wal-bench` measures write-batch ack latency
//! through the durable write path with `fsync_every` 1 vs 64 and adds a
//! `"wal"` block to the JSON. `--chaos` runs the crash-recovery
//! experiment instead of the load window: it spawns `snb-server`
//! (`--server-bin`, default: next to this binary) with a WAL, SIGKILLs
//! it at three injected fault points (torn append, durable-but-unacked
//! append, mid-apply panic), restarts it, resubmits every unacked batch
//! (the server dedupes by sequence number), and finally proves the
//! recovered store answers all 25 BI queries identically to an oracle
//! that applied exactly the acknowledged batches once each.
//!
//! `--loading` runs experiment E19 instead of the load window: the
//! streaming datagen→ingest pipeline with per-entity rows/sec and
//! MB/sec, the packed-vs-`String` string-footprint gate (hard failure
//! below 2×), peak-RSS attribution for the streaming vs materialised
//! builds, and a recovery-time-vs-history-length curve with and
//! without store-image snapshots, oracle-verified (see `loading.rs`).
//!
//! `--replication` runs experiment E17 instead of the load window: it
//! spawns one primary `snb-server` plus `--followers N` follower
//! processes subscribed over the log-shipping port, measures catch-up
//! from a cold WAL, samples replication lag while writes stream,
//! ladders read throughput from the primary alone to the full cluster,
//! then SIGKILLs the primary mid-ship, promotes a follower, resubmits
//! the unacked suffix, and proves the promoted node answers all 25 BI
//! queries identically to an every-batch oracle (see `replication.rs`).
//!
//! `--split-brain` runs experiment E18 instead of the load window: it
//! spawns a primary armed with a deterministic `net.partition` fault
//! plus two followers, black-holes the primary mid-traffic, promotes a
//! follower (which durably bumps the fencing epoch and announces itself
//! to its siblings), keeps driving writes at *both* nodes, heals the
//! partition, and asserts the zombie acked zero post-promotion writes,
//! no acked write was lost, the surviving follower re-subscribed
//! without operator help, and the new primary answers all 25 BI
//! queries identically to an every-batch oracle (see `split_brain.rs`).
//!
//! `--interference` runs experiment E15 instead of the plain load
//! window: two identical closed-loop read windows against the same
//! server, first write-free (the baseline), then with a writer
//! publishing store versions, and emits both latency curves plus the
//! version-publish counters so the read-p99 cost of concurrent writes
//! is measured, not assumed (see `interference.rs`).
//!
//! `--sweep` runs experiment E16 instead of the plain load window: a
//! connection-count ladder (default 1 → 1024 concurrent TCP
//! connections, one outstanding request each) against the
//! reactor-backed server, with an 80/20 short-read/heavy-BI mix. Each
//! level reports QPS, latency percentiles, error rate, and the
//! per-lane served/shed breakdown; a final BI-flood phase pins the
//! starvation guarantee (zero short-read sheds while the heavy lane is
//! saturated). See `sweep.rs`.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snb_bi::{BiParams, QuerySummary};
use snb_datagen::GeneratorConfig;
use snb_engine::QueryContext;
use snb_params::ParamGen;
use snb_server::proto::{self, Request};
use snb_server::{
    ErrorKind, Response, RetryPolicy, Server, ServerConfig, ServiceParams, ServiceReport,
};
use snb_store::DeleteOp;

use harness::percentile;

mod chaos;
mod harness;
mod interference;
mod loading;
mod replication;
mod split_brain;
mod sweep;
mod wal_bench;

#[derive(Clone)]
struct Args {
    config: GeneratorConfig,
    scale: String,
    clients: usize,
    duration: Duration,
    open: bool,
    rate: f64,
    deadline_us: u64,
    queries: Vec<u8>,
    bindings_per_query: usize,
    tcp: bool,
    connect: Option<String>,
    updates: bool,
    exercise_edges: bool,
    retries: u32,
    wal_bench: bool,
    loading: bool,
    chaos: bool,
    replication: bool,
    split_brain: bool,
    followers: usize,
    interference: bool,
    sweep: bool,
    sweep_levels: Vec<usize>,
    sweep_duration: Duration,
    server_bin: Option<String>,
    server: ServerConfig,
    out: String,
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let t = s.trim();
    if let Some(ms) = t.strip_suffix("ms") {
        return ms.parse::<u64>().map(Duration::from_millis).map_err(|e| e.to_string());
    }
    let secs = t.strip_suffix('s').unwrap_or(t);
    secs.parse::<f64>().map(Duration::from_secs_f64).map_err(|e| e.to_string())
}

fn parse_args() -> Result<Args, String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut args = Args {
        config: GeneratorConfig::for_scale_name("0.01").unwrap(),
        scale: "0.01".into(),
        clients: 8,
        duration: Duration::from_secs(10),
        open: false,
        rate: 0.0,
        deadline_us: 0,
        queries: (1..=25).collect(),
        bindings_per_query: 4,
        tcp: false,
        connect: None,
        updates: false,
        exercise_edges: false,
        retries: 0,
        wal_bench: false,
        loading: false,
        chaos: false,
        replication: false,
        split_brain: false,
        followers: 2,
        interference: false,
        sweep: false,
        sweep_levels: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        sweep_duration: Duration::from_secs(2),
        server_bin: None,
        server: ServerConfig { threads_per_worker: 1, ..ServerConfig::default() },
        out: std::env::var("SNB_SERVICE_OUT").unwrap_or_else(|_| "BENCH_service.json".into()),
    };
    let mut argv = std::env::args().skip(1);
    let need = |name: &str, v: Option<String>| v.ok_or_else(|| format!("{name} needs a value"));
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--clients" => {
                args.clients =
                    need("--clients", argv.next())?.parse().map_err(|e| format!("{e}"))?
            }
            "--duration" => args.duration = parse_duration(&need("--duration", argv.next())?)?,
            "--open" => args.open = true,
            "--rate" => {
                args.rate = need("--rate", argv.next())?.parse().map_err(|e| format!("{e}"))?
            }
            "--deadline-us" => {
                args.deadline_us =
                    need("--deadline-us", argv.next())?.parse().map_err(|e| format!("{e}"))?
            }
            "--queries" => {
                args.queries = need("--queries", argv.next())?
                    .split(',')
                    .map(|q| q.trim().parse::<u8>().map_err(|e| format!("--queries: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.queries.iter().any(|&q| q == 0 || q > 25) {
                    return Err("--queries entries must be in 1..=25".into());
                }
            }
            "--bindings" => {
                args.bindings_per_query =
                    need("--bindings", argv.next())?.parse().map_err(|e| format!("{e}"))?
            }
            "--tcp" => args.tcp = true,
            "--connect" => args.connect = Some(need("--connect", argv.next())?),
            "--updates" => args.updates = true,
            "--exercise-edges" => args.exercise_edges = true,
            "--retries" => {
                args.retries =
                    need("--retries", argv.next())?.parse().map_err(|e| format!("{e}"))?
            }
            "--wal-bench" => args.wal_bench = true,
            "--loading" => args.loading = true,
            "--chaos" => args.chaos = true,
            "--replication" => args.replication = true,
            "--split-brain" => args.split_brain = true,
            "--followers" => {
                args.followers =
                    need("--followers", argv.next())?.parse().map_err(|e| format!("{e}"))?;
                if args.followers == 0 {
                    return Err("--followers needs at least one follower".into());
                }
            }
            "--interference" => args.interference = true,
            "--sweep" => args.sweep = true,
            "--sweep-levels" => {
                args.sweep_levels = need("--sweep-levels", argv.next())?
                    .split(',')
                    .map(|l| l.trim().parse::<usize>().map_err(|e| format!("--sweep-levels: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.sweep_levels.is_empty() || args.sweep_levels.contains(&0) {
                    return Err("--sweep-levels needs positive connection counts".into());
                }
            }
            "--sweep-duration" => {
                args.sweep_duration = parse_duration(&need("--sweep-duration", argv.next())?)?
            }
            "--server-bin" => args.server_bin = Some(need("--server-bin", argv.next())?),
            "--workers" => {
                args.server.workers =
                    need("--workers", argv.next())?.parse().map_err(|e| format!("{e}"))?
            }
            "--queue-cap" => {
                args.server.queue_capacity =
                    need("--queue-cap", argv.next())?.parse().map_err(|e| format!("{e}"))?
            }
            "--partitions" => {
                args.server.partitions = need("--partitions", argv.next())?
                    .parse::<usize>()
                    .map_err(|e| format!("{e}"))?
                    .max(1)
            }
            "--profile" => args.server.profiling = true,
            "--out" => args.out = need("--out", argv.next())?,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => positionals.push(other.to_string()),
        }
    }
    if let Some(sf) = positionals.first() {
        args.config = GeneratorConfig::for_scale_name(sf)
            .ok_or_else(|| format!("unknown scale factor {sf:?}"))?;
        args.scale = sf.clone();
    }
    if let Some(seed) = positionals.get(1) {
        args.config.seed = seed.parse().map_err(|e| format!("seed: {e}"))?;
    }
    if args.open && args.rate <= 0.0 {
        return Err("--open requires --rate QPS".into());
    }
    if args.connect.is_some() && (args.updates || args.tcp) {
        return Err("--connect is exclusive with --tcp/--updates (no server handle)".into());
    }
    if args.interference && (args.tcp || args.connect.is_some() || args.updates || args.open) {
        return Err("--interference drives its own in-process windows (no --tcp/--connect/--updates/--open)".into());
    }
    if args.replication && (args.tcp || args.connect.is_some() || args.updates || args.open) {
        return Err(
            "--replication spawns its own server processes (no --tcp/--connect/--updates/--open)"
                .into(),
        );
    }
    if args.split_brain && (args.tcp || args.connect.is_some() || args.updates || args.open) {
        return Err(
            "--split-brain spawns its own server processes (no --tcp/--connect/--updates/--open)"
                .into(),
        );
    }
    if args.sweep && (args.tcp || args.connect.is_some() || args.updates || args.open) {
        return Err(
            "--sweep drives its own TCP connection ladder (no --tcp/--connect/--updates/--open)"
                .into(),
        );
    }
    // `--partitions` defaults to `$SNB_PARTITIONS` like the bench and
    // server binaries.
    if args.server.partitions <= 1 {
        args.server.partitions = snb_bench::partitions_resolved();
    }
    Ok(args)
}

/// One client's transport to the service.
enum Transport {
    InProc(snb_server::InProcClient),
    Tcp(TcpStream),
}

impl Transport {
    fn call(
        &mut self,
        id: u64,
        params: ServiceParams,
        deadline_us: u64,
    ) -> Result<Response, String> {
        match self {
            Transport::InProc(c) => Ok(c.call(params, deadline_us)),
            Transport::Tcp(stream) => harness::call(stream, id, 0, deadline_us, params),
        }
    }

    /// [`Transport::call`] with capped-exponential-backoff/full-jitter
    /// retries on transient rejections. Works uniformly over both
    /// transports; the request is re-sent verbatim (reads are
    /// idempotent, writes are deduplicated by sequence number).
    /// Terminal-with-redirect refusals (`not_primary`, `fenced`) that
    /// carry a `(primary=HOST:PORT)` hint are followed automatically on
    /// the TCP transport: reconnect to the carried target and resubmit
    /// the same request — the seq-dedupe gate absorbs a duplicate write
    /// if the original actually applied. Bounded to two hops so a
    /// misconfigured redirect loop cannot spin forever.
    fn call_with_retries(
        &mut self,
        id: u64,
        params: ServiceParams,
        deadline_us: u64,
        policy: RetryPolicy,
    ) -> Result<Response, String> {
        let mut backoff = snb_server::retry::Backoff::new(policy);
        let mut hops = 0u32;
        loop {
            let resp = self.call(id, params.clone(), deadline_us)?;
            let redirect: Option<String> = match &resp.body {
                Err(e) if matches!(e.kind, ErrorKind::NotPrimary | ErrorKind::Fenced) => {
                    snb_server::retry::redirect_target(&e.detail).map(str::to_string)
                }
                _ => None,
            };
            if let Some(target) = redirect {
                if hops < 2 {
                    if let Transport::Tcp(stream) = self {
                        if let Ok(s) = TcpStream::connect(&target) {
                            let _ = s.set_nodelay(true);
                            let _ = s.set_read_timeout(stream.read_timeout().ok().flatten());
                            *stream = s;
                            hops += 1;
                            continue;
                        }
                    }
                }
                return Ok(resp);
            }
            match &resp.body {
                Err(e) if snb_server::retry::retryable(e.kind) && backoff.attempts_left() => {
                    std::thread::sleep(backoff.next_delay());
                }
                _ => return Ok(resp),
            }
        }
    }
}

#[derive(Default)]
struct ClientStats {
    latencies_us: Vec<u64>,
    issued: u64,
    ok: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    deadline_overrun: u64,
    shutting_down: u64,
    bad_request: u64,
    internal: u64,
    store_poisoned: u64,
    not_primary: u64,
    stale_read: u64,
    fenced: u64,
    protocol_errors: u64,
    verify_failures: u64,
}

impl ClientStats {
    fn absorb(&mut self, other: ClientStats) {
        self.latencies_us.extend(other.latencies_us);
        self.issued += other.issued;
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.deadline_exceeded += other.deadline_exceeded;
        self.deadline_overrun += other.deadline_overrun;
        self.shutting_down += other.shutting_down;
        self.bad_request += other.bad_request;
        self.internal += other.internal;
        self.store_poisoned += other.store_poisoned;
        self.not_primary += other.not_primary;
        self.stale_read += other.stale_read;
        self.fenced += other.fenced;
        self.protocol_errors += other.protocol_errors;
        self.verify_failures += other.verify_failures;
    }

    fn note(&mut self, resp: &Response, latency_us: u64, oracle: Option<&QuerySummary>) {
        match &resp.body {
            Ok(ok) => {
                self.ok += 1;
                self.latencies_us.push(latency_us);
                if let Some(want) = oracle {
                    if ok.rows as usize != want.rows || ok.fingerprint != want.fingerprint {
                        self.verify_failures += 1;
                        eprintln!(
                            "VERIFY FAILURE: rows {} fp {:#x}, oracle rows {} fp {:#x}",
                            ok.rows, ok.fingerprint, want.rows, want.fingerprint
                        );
                    }
                }
            }
            Err(e) => match e.kind {
                ErrorKind::Overloaded => self.overloaded += 1,
                ErrorKind::DeadlineExceeded => self.deadline_exceeded += 1,
                ErrorKind::DeadlineOverrun => self.deadline_overrun += 1,
                ErrorKind::ShuttingDown => self.shutting_down += 1,
                ErrorKind::BadRequest => self.bad_request += 1,
                ErrorKind::Internal => self.internal += 1,
                ErrorKind::StorePoisoned => self.store_poisoned += 1,
                ErrorKind::NotPrimary => self.not_primary += 1,
                ErrorKind::StaleRead => self.stale_read += 1,
                ErrorKind::Fenced => self.fenced += 1,
            },
        }
    }
}

/// Deterministic per-client binding order (splitmix-style).
struct BindingPicker {
    state: u64,
    len: usize,
}

impl BindingPicker {
    fn new(seed: u64, client: usize, len: usize) -> Self {
        BindingPicker { state: seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15), len }
    }

    fn next(&mut self) -> usize {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.state >> 33) as usize) % self.len
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("service_load: {e}");
            std::process::exit(2);
        }
    };

    if args.loading {
        loading::run(&args);
        return;
    }
    if args.chaos {
        chaos::run(&args);
        return;
    }
    if args.replication {
        replication::run(&args);
        return;
    }
    if args.split_brain {
        split_brain::run(&args);
        return;
    }
    if args.interference {
        interference::run(&args);
        return;
    }
    if args.sweep {
        sweep::run(&args);
        return;
    }

    // Build the dataset once: the store feeds the server, the stream
    // feeds the optional update replay, and the bindings + oracle are
    // derived before the server takes ownership.
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

    // Oracle: one in-process single-threaded run per binding. Skipped
    // under --updates (the store moves) and --connect (remote store).
    let oracle: Option<Vec<QuerySummary>> = if args.updates || args.connect.is_some() {
        None
    } else {
        eprintln!("# computing power-run oracle for {} bindings ...", pool.len());
        let ctx = QueryContext::single_threaded();
        Some(pool.iter().map(|(_, p)| snb_bi::run_with(&store, &ctx, p)).collect())
    };

    // Start (or connect to) the service.
    let mut server: Option<Server> = None;
    let mut tcp_addr: Option<std::net::SocketAddr> = None;
    if args.connect.is_none() {
        let mut s = Server::start(store, args.server.clone());
        if args.tcp || args.exercise_edges {
            tcp_addr = Some(s.listen("127.0.0.1:0").expect("bind loopback"));
        }
        server = Some(s);
    } else {
        drop(store);
    }

    let make_transport = |client: usize| -> Transport {
        if let Some(addr) = &args.connect {
            let stream = TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("client {client}: connect {addr}: {e}"));
            let _ = stream.set_nodelay(true);
            Transport::Tcp(stream)
        } else if args.tcp {
            let stream = TcpStream::connect(tcp_addr.unwrap()).expect("connect loopback");
            let _ = stream.set_nodelay(true);
            Transport::Tcp(stream)
        } else {
            Transport::InProc(server.as_ref().unwrap().client())
        }
    };

    // Optional concurrent update replay through the server write path:
    // inserts in stream order, plus a like-delete for every other
    // previously applied like (no later event depends on a like, so
    // deletes never orphan subsequent inserts).
    let stop_writer = Arc::new(AtomicU64::new(0));
    let writer_handle = if args.updates {
        let writer = server.as_ref().unwrap().writer();
        let world = snb_datagen::dictionaries::StaticWorld::build(args.config.seed);
        let stop = Arc::clone(&stop_writer);
        let pace = args.duration.div_f64((stream.len().max(1)) as f64);
        Some(std::thread::spawn(move || {
            // Batched replay: one published store version per chunk
            // keeps the copy-on-write cost amortized while readers stay
            // on their pinned snapshots throughout.
            const CHUNK: usize = 48;
            let mut pending_likes: Vec<DeleteOp> = Vec::new();
            'replay: for (c, chunk) in stream.chunks(CHUNK).enumerate() {
                if stop.load(Ordering::Acquire) != 0 {
                    break 'replay;
                }
                for (i, event) in chunk.iter().enumerate() {
                    if let snb_datagen::stream::UpdateEvent::AddLikePost(like) = &event.event {
                        if (c * CHUNK + i).is_multiple_of(2) {
                            pending_likes.push(DeleteOp::Like(like.person.0, like.message.0));
                        }
                    }
                }
                writer.apply_update_batch(chunk, &world).expect("update apply");
                if pending_likes.len() >= 32 {
                    writer.apply_deletes(&pending_likes).expect("delete apply");
                    pending_likes.clear();
                }
                if pace > Duration::ZERO {
                    std::thread::sleep((pace * CHUNK as u32).min(Duration::from_millis(20)));
                }
            }
            if !pending_likes.is_empty() {
                writer.apply_deletes(&pending_likes).expect("delete apply");
            }
            writer.validate_invariants().expect("store invariants after replay");
        }))
    } else {
        None
    };

    // The measured window.
    eprintln!(
        "# driving {} client(s) for {:?} ({} loop) ...",
        args.clients,
        args.duration,
        if args.open { "open" } else { "closed" }
    );
    let started = Instant::now();
    let end = started + args.duration;
    let handles: Vec<std::thread::JoinHandle<ClientStats>> = (0..args.clients)
        .map(|client| {
            let mut transport = make_transport(client);
            let pool = pool.clone();
            let oracle = oracle.clone();
            let args = args.clone();
            std::thread::spawn(move || {
                let mut stats = ClientStats::default();
                let mut picker = BindingPicker::new(args.config.seed, client, pool.len());
                let mut next_id: u64 = (client as u64) << 32;
                // Open loop: this client's share of the offered rate.
                let interarrival = if args.open {
                    Duration::from_secs_f64(args.clients as f64 / args.rate)
                } else {
                    Duration::ZERO
                };
                let mut next_fire = Instant::now();
                loop {
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    if args.open {
                        if next_fire > now {
                            std::thread::sleep(next_fire - now);
                        }
                        next_fire += interarrival;
                        if Instant::now() >= end {
                            break;
                        }
                    }
                    let bidx = picker.next();
                    let (_, params) = &pool[bidx];
                    next_id += 1;
                    stats.issued += 1;
                    let t0 = Instant::now();
                    let call = if args.retries > 1 {
                        transport.call_with_retries(
                            next_id,
                            ServiceParams::Bi(params.clone()),
                            args.deadline_us,
                            RetryPolicy {
                                max_attempts: args.retries,
                                seed: args.config.seed ^ (client as u64),
                                ..RetryPolicy::default()
                            },
                        )
                    } else {
                        transport.call(next_id, ServiceParams::Bi(params.clone()), args.deadline_us)
                    };
                    match call {
                        Ok(resp) => {
                            let latency_us = t0.elapsed().as_micros() as u64;
                            stats.note(&resp, latency_us, oracle.as_ref().map(|o| &o[bidx]));
                        }
                        Err(detail) => {
                            stats.protocol_errors += 1;
                            eprintln!("client {client}: protocol error: {detail}");
                        }
                    }
                }
                stats
            })
        })
        .collect();

    let mut total = ClientStats::default();
    for h in handles {
        total.absorb(h.join().expect("client thread"));
    }
    let wall = started.elapsed();
    stop_writer.store(1, Ordering::Release);
    if let Some(h) = writer_handle {
        h.join().expect("writer thread");
    }

    // Edge-case bursts (after the measured window, so they do not
    // pollute the latency distribution).
    let mut burst_shed = 0u64;
    let mut burst_deadline_missed = 0u64;
    if args.exercise_edges {
        let addr = tcp_addr
            .map(|a| a.to_string())
            .or_else(|| args.connect.clone())
            .expect("edge bursts need a TCP endpoint");
        let (shed, missed) = exercise_edges(&addr, &pool);
        burst_shed = shed;
        burst_deadline_missed = missed;
        eprintln!("# edge bursts: {burst_shed} shed, {burst_deadline_missed} deadline-missed");
    }

    // Shut the server down (drain) and collect its side of the story.
    let server_report: Option<ServiceReport> = server.map(|s| s.shutdown());

    total.latencies_us.sort_unstable();
    let lat = &total.latencies_us;
    let mean_us = if lat.is_empty() { 0 } else { lat.iter().sum::<u64>() / lat.len() as u64 };
    let offered_qps = total.issued as f64 / wall.as_secs_f64();
    let achieved_qps = total.ok as f64 / wall.as_secs_f64();

    snb_bench::print_table(
        "E12: service load",
        &["clients", "issued", "ok", "shed", "deadline", "p50", "p95", "p99", "achieved qps"],
        &[vec![
            args.clients.to_string(),
            total.issued.to_string(),
            total.ok.to_string(),
            total.overloaded.to_string(),
            total.deadline_exceeded.to_string(),
            snb_bench::fmt_duration(Duration::from_micros(percentile(lat, 0.50))),
            snb_bench::fmt_duration(Duration::from_micros(percentile(lat, 0.95))),
            snb_bench::fmt_duration(Duration::from_micros(percentile(lat, 0.99))),
            format!("{achieved_qps:.1}"),
        ]],
    );

    let mut out = String::from("{\n");
    out.push_str(&format!("    \"meta\": {},\n", snb_bench::meta_json(&args.config)));
    out.push_str(&format!(
        "    \"config\": {{\"clients\": {}, \"duration_us\": {}, \"mode\": \"{}\", \
         \"rate_qps\": {:.2}, \"deadline_us\": {}, \"transport\": \"{}\", \"workers\": {}, \
         \"queue_capacity\": {}, \"partitions\": {}, \"updates\": {}, \"bindings\": {}}},\n",
        args.clients,
        args.duration.as_micros(),
        if args.open { "open" } else { "closed" },
        args.rate,
        args.deadline_us,
        if args.connect.is_some() {
            "connect"
        } else if args.tcp {
            "tcp"
        } else {
            "inproc"
        },
        args.server.workers,
        args.server.queue_capacity,
        args.server.partitions,
        args.updates,
        pool.len(),
    ));
    out.push_str(&format!(
        "    \"latency_us\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \
         \"p99\": {}, \"max\": {}}},\n",
        lat.len(),
        mean_us,
        percentile(lat, 0.50),
        percentile(lat, 0.95),
        percentile(lat, 0.99),
        lat.last().copied().unwrap_or(0),
    ));
    out.push_str(&format!(
        "    \"throughput\": {{\"offered\": {}, \"offered_qps\": {:.2}, \"achieved_qps\": {:.2}, \
         \"wall_us\": {}}},\n",
        total.issued,
        offered_qps,
        achieved_qps,
        wall.as_micros(),
    ));
    out.push_str(&format!(
        "    \"outcomes\": {{\"ok\": {}, \"shed\": {}, \"deadline_missed\": {}, \
         \"deadline_overrun\": {}, \"shutting_down\": {}, \"bad_request\": {}, \"internal\": {}, \
         \"store_poisoned\": {}, \"not_primary\": {}, \"stale_read\": {}, \"fenced\": {}, \
         \"protocol_errors\": {}, \"verify_failures\": {}, \
         \"burst_shed\": {}, \"burst_deadline_missed\": {}}}",
        total.ok,
        total.overloaded + burst_shed,
        total.deadline_exceeded + burst_deadline_missed,
        total.deadline_overrun,
        total.shutting_down,
        total.bad_request,
        total.internal,
        total.store_poisoned,
        total.not_primary,
        total.stale_read,
        total.fenced,
        total.protocol_errors,
        total.verify_failures,
        burst_shed,
        burst_deadline_missed,
    ));
    if let Some(r) = &server_report {
        out.push_str(&format!(
            ",\n    \"server\": {{\"served\": {}, \"shed\": {}, \"deadline_missed\": {}, \
             \"deadline_overrun\": {}, \"served_by_lane\": [{}, {}, {}], \
             \"shed_by_lane\": [{}, {}, {}], \
             \"rejected_shutdown\": {}, \"bad_requests\": {}, \"internal_errors\": {}, \
             \"updates_applied\": {}, \"deletes_applied\": {}, \"log_records\": {}, \
             \"batches_applied\": {}, \"batches_deduped\": {}, \"poisoned_rejects\": {}, \
             \"not_primary_rejects\": {}, \"stale_read_rejects\": {}, \"fenced_rejects\": {}, \
             \"conn_stalled\": {}, \"store_version\": {}, \"versions_published\": {}, \
             \"peak_live_snapshots\": {}, \"reader_retries\": {}, \"reader_blocked\": {}}}",
            r.served,
            r.shed,
            r.deadline_missed,
            r.deadline_overrun,
            r.served_by_lane[0],
            r.served_by_lane[1],
            r.served_by_lane[2],
            r.shed_by_lane[0],
            r.shed_by_lane[1],
            r.shed_by_lane[2],
            r.rejected_shutdown,
            r.bad_requests,
            r.internal_errors,
            r.updates_applied,
            r.deletes_applied,
            r.log_records,
            r.batches_applied,
            r.batches_deduped,
            r.poisoned_rejects,
            r.not_primary_rejects,
            r.stale_read_rejects,
            r.fenced_rejects,
            r.conn_stalled,
            r.versions_published,
            r.versions_published,
            r.peak_live_snapshots,
            r.reader_retries,
            r.reader_blocked,
        ));
    }
    if args.wal_bench {
        eprintln!("# measuring WAL ack-latency overhead ...");
        out.push_str(",\n");
        out.push_str(&wal_bench::run(&args));
    }
    out.push_str("\n  }");
    harness::write_block(&args.out, "load", &out);

    if total.protocol_errors > 0 || total.verify_failures > 0 {
        eprintln!(
            "service_load: FAILED ({} protocol errors, {} verify failures)",
            total.protocol_errors, total.verify_failures
        );
        std::process::exit(1);
    }
}

/// The two overload edges, exercised via a pipelined TCP connection:
/// a burst far larger than the queue must shed (not buffer without
/// bound), and a burst of microsecond deadlines must miss (not hang).
fn exercise_edges(addr: &str, pool: &[(u8, BiParams)]) -> (u64, u64) {
    let count_kind = |responses: &[Response], kind: ErrorKind| {
        responses.iter().filter(|r| matches!(&r.body, Err(e) if e.kind == kind)).count() as u64
    };
    let pipelined_burst = |n: usize, deadline_us: u64| -> Vec<Response> {
        let mut conn = TcpStream::connect(addr).expect("edge burst connect");
        let _ = conn.set_nodelay(true);
        for i in 0..n {
            let (_, params) = &pool[i % pool.len()];
            let req = Request {
                id: i as u64 + 1,
                deadline_us,
                min_seq: 0,
                params: ServiceParams::Bi(params.clone()),
            };
            proto::write_frame(&mut conn, &proto::encode_request(&req)).expect("burst write");
        }
        (0..n)
            .map(|_| {
                let payload = proto::read_frame(&mut conn).expect("burst read");
                proto::decode_response(&payload).expect("burst decode")
            })
            .collect()
    };

    let overload = pipelined_burst(512, 0);
    let shed = count_kind(&overload, ErrorKind::Overloaded);
    let deadline = pipelined_burst(64, 1);
    // A 1µs deadline either expires in the queue (`deadline_exceeded`)
    // or — if the job is dequeued inside the window — is caught by the
    // completion-time check (`deadline_overrun`). Both count as missed.
    let missed = count_kind(&deadline, ErrorKind::DeadlineExceeded)
        + count_kind(&deadline, ErrorKind::DeadlineOverrun);
    (shed, missed)
}
