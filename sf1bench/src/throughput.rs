//! The throughput test with concurrent refreshes: an open-loop writer
//! sends sequenced write batches on a fixed schedule over one loopback
//! connection to an in-process durable server, while `nproc - 1`
//! closed-loop streams send BI reads through the in-process client.
//! The schedule runs in slices between the other tests' rounds; the
//! server, its WAL and the streams' positions carry over from slice to
//! slice.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snb_bi::{BiParams, QuerySummary};
use snb_core::Rng;
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::TimedEvent;
use snb_engine::QueryContext;
use snb_server::proto::{self, Request};
use snb_server::{
    Durability, SegmentedWal, Server, ServerConfig, ServiceParams, WalOptions, WriteBatch, WriteOps,
};
use snb_store::{DeleteStats, PartitionedStore, StoreHandle};

use crate::refresh::{Batch, RefreshPlan};
use crate::trace::Tracer;

/// One write batch is due every `WRITE_INTERVAL`: an insert batch
/// takes 80–120 ms and a delete batch 250–450 ms on a 2-core host, so
/// the writer stays well below saturation even when the host is slow.
pub const WRITE_INTERVAL: Duration = Duration::from_millis(200);
/// At least this many batches per run, so `refresh_ack_p90_ms` has ten
/// samples beyond it.
pub const MIN_BATCHES: usize = 100;
/// A run whose writer sends a batch later than this after its due
/// time (p99) is invalid: the writer no longer keeps the schedule.
pub const WRITER_LATE_BOUND_MS: f64 = 2000.0;
/// Batches sent back to back before the schedule starts, untimed: the
/// first publishes after start-up pay one-off page faults for the
/// store copies that later publishes reuse.
pub const WARMUP_BATCHES: usize = 10;
/// Refresh boundaries at which pinned reads are re-checked, and reads
/// checked at each.
const SAMPLED_BOUNDARIES: usize = 4;
const READS_PER_BOUNDARY: usize = 3;

/// The WAL policy: fsync on every append, no rotation.
pub fn wal_options() -> WalOptions {
    WalOptions {
        fsync_every: 1,
        snapshot_every: 0,
        partitions: 1,
        group_commit: false,
        image: false,
    }
}

/// The pinned server configuration of both server tests.
pub fn server_config(threads: usize, profiling: bool) -> ServerConfig {
    ServerConfig {
        workers: threads,
        threads_per_worker: 1,
        write_workers: 1,
        partitions: 1,
        profiling,
        ..ServerConfig::default()
    }
}

struct Read {
    query: usize,
    binding: usize,
    done: Instant,
    ok: Option<(QuerySummary, u64)>,
    queue_us: u64,
    exec_us: u64,
}

struct Ack {
    late_ms: f64,
    ack_ms: f64,
    ok: bool,
    queue_us: u64,
    exec_us: u64,
}

pub struct ThroughputOut {
    /// Timed batches (after the warm-up batches).
    pub batches: usize,
    pub window_s: f64,
    /// Completed reads per second in each slice; `throughput_qps` is
    /// their median.
    pub segment_qps: Vec<f64>,
    pub reads_attempted: usize,
    pub reads_failed: usize,
    pub writes_failed: usize,
    pub ack_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub write_queue_ms: Vec<f64>,
    pub write_exec_ms: Vec<f64>,
    pub heavy_queue_ms: Vec<f64>,
    pub heavy_exec_ms: Vec<f64>,
    pub delete_stats: Vec<DeleteStats>,
    pub server_start_s: f64,
    pub checked_reads: usize,
    /// Failed correctness gates, empty when the test passed.
    pub errors: Vec<String>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Sends one write frame and waits for its response.
fn send(conn: &mut TcpStream, frame: &[u8]) -> Option<snb_server::Response> {
    proto::write_frame(conn, frame)
        .and_then(|()| proto::read_frame(conn))
        .ok()
        .and_then(|p| proto::decode_response(&p).ok())
}

fn ok_summary(resp: &snb_server::Response) -> Option<(QuerySummary, u64, u64, u64)> {
    resp.body.as_ref().ok().map(|b| {
        (
            QuerySummary { rows: b.rows as usize, fingerprint: b.fingerprint },
            b.applied_seq,
            b.queue_us,
            b.exec_us,
        )
    })
}

/// One closed-loop read stream: rounds of the 25 queries in seeded
/// order, each round on the next binding.
struct ReadStream {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
    round: usize,
    offset: usize,
}

impl ReadStream {
    fn new(seed: u64, stream: usize, queries: usize) -> ReadStream {
        let order = (0..queries).collect();
        let rng = Rng::derive(seed, 0x7ead, stream as u64);
        ReadStream { rng, order, pos: queries, round: 0, offset: stream }
    }

    /// The next (query, binding) to read.
    fn next(&mut self, bindings: &[Vec<BiParams>]) -> (usize, usize) {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
            self.round += 1;
        }
        let q = self.order[self.pos];
        self.pos += 1;
        (q, (self.round - 1 + self.offset) % bindings[q].len())
    }
}

/// A running throughput test.
pub struct ThroughputTest<'a> {
    post: &'a PartitionedStore,
    tail: &'a [TimedEvent],
    plan: &'a RefreshPlan,
    bindings: &'a [Vec<BiParams>],
    datagen_seed: u64,
    seed: u64,
    wal_dir: PathBuf,
    threads: usize,
    server: Server,
    conn: TcpStream,
    frames: Vec<Vec<u8>>,
    /// Index of the next frame to send.
    next: usize,
    warm_ok: usize,
    streams: Vec<ReadStream>,
    reads: Vec<Read>,
    acks: Vec<Ack>,
    segment_qps: Vec<f64>,
    window_s: f64,
    server_start_s: f64,
}

impl<'a> ThroughputTest<'a> {
    /// Starts the durable server over `post`, encodes all
    /// `n + WARMUP_BATCHES` write batches and sends the warm-up ones.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        post: &'a PartitionedStore,
        tail: &'a [TimedEvent],
        plan: &'a RefreshPlan,
        n: usize,
        bindings: &'a [Vec<BiParams>],
        datagen_seed: u64,
        seed: u64,
        wal_dir: &Path,
        threads: usize,
        profiling: bool,
    ) -> ThroughputTest<'a> {
        let _ = std::fs::remove_dir_all(wal_dir);
        let started = Instant::now();
        let wal = SegmentedWal::open(
            wal_dir,
            crate::setup::SCALE,
            datagen_seed,
            wal_options(),
            0,
            &[],
            0,
        )
        .expect("open a fresh WAL");
        let durability =
            Durability { wal, world: StaticWorld::build(datagen_seed), last_seq: 0, epoch: 0 };
        let handle = Arc::new(StoreHandle::new(post.clone()));
        let mut server = Server::start_shared_durable(
            handle,
            server_config(threads, profiling),
            Some(durability),
        );
        let addr = server.listen("127.0.0.1:0").expect("bind a loopback port");
        let server_start_s = started.elapsed().as_secs_f64();

        // Encode every write batch before the first slice.
        let frames = plan
            .batches(tail, n + WARMUP_BATCHES)
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let ops = match b {
                    Batch::Inserts(ev) => WriteOps::Updates(ev.to_vec()),
                    Batch::Deletes(d) => WriteOps::Deletes(d.to_vec()),
                };
                let seq = i as u64 + 1;
                let req = Request {
                    id: seq,
                    deadline_us: 0,
                    min_seq: 0,
                    params: ServiceParams::Write(WriteBatch { seq, ops }),
                };
                proto::encode_request(&req)
            })
            .collect();
        let conn = TcpStream::connect(addr).expect("connect the writer");
        conn.set_nodelay(true).expect("set TCP_NODELAY");
        let mut t = ThroughputTest {
            post,
            tail,
            plan,
            bindings,
            datagen_seed,
            seed,
            wal_dir: wal_dir.to_path_buf(),
            threads,
            server,
            conn,
            frames,
            next: 0,
            warm_ok: 0,
            streams: (0..readers(threads))
                .map(|r| ReadStream::new(seed, r, bindings.len()))
                .collect(),
            reads: Vec::new(),
            acks: Vec::new(),
            segment_qps: Vec::new(),
            window_s: 0.0,
            server_start_s,
        };
        for frame in &t.frames[..WARMUP_BATCHES] {
            let resp = send(&mut t.conn, frame);
            t.warm_ok += usize::from(resp.is_some_and(|r| r.body.is_ok()));
        }
        t.next = WARMUP_BATCHES;
        t
    }

    /// Sends the next `n` batches on the schedule while the read
    /// streams run; one throughput segment.
    pub fn slice(&mut self, n: usize, tracer: &Tracer) {
        let n = n.min(self.frames.len() - self.next);
        if n == 0 {
            return;
        }
        let stop = AtomicBool::new(false);
        let (server, bindings) = (&self.server, self.bindings);
        let (conn, acks, first) = (&mut self.conn, &mut self.acks, self.next);
        let frames = &self.frames[first..first + n];
        let t0 = Instant::now();
        let mut streams = std::mem::take(&mut self.streams);
        let (reads, window_end) = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter_mut()
                .map(|stream| {
                    let stop = &stop;
                    scope.spawn(move || {
                        let client = server.client();
                        let mut reads = Vec::new();
                        while !stop.load(Ordering::Acquire) {
                            let (q, b) = stream.next(bindings);
                            let open = tracer.begin("client.read", 0, reads.len() as u64);
                            let resp = client.call(ServiceParams::Bi(bindings[q][b].clone()), 0);
                            tracer.end(open);
                            let ok = ok_summary(&resp);
                            reads.push(Read {
                                query: q,
                                binding: b,
                                done: Instant::now(),
                                ok: ok.map(|(s, seq, _, _)| (s, seq)),
                                queue_us: ok.map_or(0, |o| o.2),
                                exec_us: ok.map_or(0, |o| o.3),
                            });
                        }
                        reads
                    })
                })
                .collect();

            for (k, frame) in frames.iter().enumerate() {
                let due = t0 + WRITE_INTERVAL * k as u32;
                sleep_until(due);
                let sent = Instant::now();
                let seq = (first + k) as u64 + 1;
                let open = tracer.begin("client.write", 0, seq);
                let resp = send(conn, frame);
                tracer.end(open);
                let acked = Instant::now();
                let body = resp.as_ref().and_then(|r| r.body.as_ref().ok());
                acks.push(Ack {
                    late_ms: (sent - due).as_secs_f64() * 1e3,
                    ack_ms: (acked - due).as_secs_f64() * 1e3,
                    ok: body.is_some_and(|b| b.applied_seq == seq && b.rows > 0),
                    queue_us: body.map_or(0, |b| b.queue_us),
                    exec_us: body.map_or(0, |b| b.exec_us),
                });
            }
            // The window ends with the schedule, or with the last ack
            // when the writer ran behind it.
            let window_end = (t0 + WRITE_INTERVAL * n as u32).max(Instant::now());
            stop.store(true, Ordering::Release);
            let reads: Vec<Read> =
                handles.into_iter().flat_map(|h| h.join().expect("read stream thread")).collect();
            (reads, window_end)
        });
        self.streams = streams;
        self.next += n;
        let done = reads.iter().filter(|r| r.ok.is_some() && r.done < window_end).count();
        let secs = (window_end - t0).as_secs_f64();
        self.segment_qps.push(done as f64 / secs);
        self.window_s += secs;
        self.reads.extend(reads);
    }

    /// Stops the server and checks every answer: no lost ack, reads at
    /// a seeded sample of refresh boundaries and the final state against
    /// a store that applied the acked batches directly.
    pub fn finish(self) -> ThroughputOut {
        let ThroughputTest { post, tail, plan, bindings, reads, acks, .. } = self;
        let (total, warm_ok) = (self.next, self.warm_ok);
        let mut read_log: Vec<_> =
            self.server.access_log().snapshot().into_iter().filter(|r| r.lane == "heavy").collect();
        read_log.sort_by_key(|r| r.seq);
        let final_store = PartitionedStore::clone(&self.server.snapshot());
        let last_applied = self.server.last_applied_seq();
        drop(self.conn);
        let report = self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.wal_dir);

        let mut errors = Vec::new();
        let acked = acks.iter().filter(|a| a.ok).count() + warm_ok;
        if acked != total || last_applied != total as u64 || report.batches_applied != total as u64
        {
            errors.push(format!(
                "lost acks: {acked}/{total} acked, server applied {last_applied} ({} batches)",
                report.batches_applied
            ));
        }
        // The versions each read may have pinned. With one stream they
        // are exact: heavy-lane log records in admission order are its
        // reads in issue order. With more, a read pinned its
        // `applied_seq` stamp or the one publish that can land between
        // loading the stamp and pinning the snapshot.
        let exact = self.streams.len() == 1 && read_log.len() == reads.len();
        if self.streams.len() == 1 && !exact {
            errors.push(format!(
                "{} reads but {} heavy-lane log records",
                reads.len(),
                read_log.len()
            ));
        }
        let mut by_version: BTreeMap<u64, Vec<(usize, u64)>> = BTreeMap::new();
        for (i, r) in reads.iter().enumerate() {
            let Some((_, stamp)) = r.ok else { continue };
            let (lo, hi) = if exact {
                let v = read_log[i].store_version;
                if stamp > v {
                    errors.push(format!("read stamped applied_seq {stamp} pinned version {v}"));
                }
                (v, v)
            } else {
                (stamp, stamp + 1)
            };
            by_version.entry(lo).or_default().push((i, hi));
        }
        // A seeded sample of refresh boundaries, a few reads at each.
        let mut boundaries: Vec<u64> = by_version.keys().copied().collect();
        Rng::derive(self.seed, 0xb0da, 3).shuffle(&mut boundaries);
        boundaries.truncate(SAMPLED_BOUNDARIES);
        let mut pending: Vec<(usize, u64, u64)> = boundaries
            .iter()
            .flat_map(|lo| {
                by_version[lo].iter().take(READS_PER_BOUNDARY).map(move |&(i, hi)| (i, *lo, hi))
            })
            .collect();
        let checked_reads = pending.len();

        // The oracle: the acked batches applied directly, in order.
        let world = StaticWorld::build(self.datagen_seed);
        let ctx = QueryContext::new(self.threads);
        let mut oracle = post.clone();
        let mut delete_stats = Vec::new();
        let mut check = |oracle: &PartitionedStore, version: u64| {
            pending.retain(|&(i, lo, hi)| {
                let r = &reads[i];
                !((lo..=hi).contains(&version)
                    && r.ok.map(|o| o.0)
                        == Some(snb_bi::run_with(oracle, &ctx, &bindings[r.query][r.binding])))
            });
        };
        check(&oracle, 0);
        for (i, b) in plan.batches(tail, total).iter().enumerate() {
            let applied = match b {
                Batch::Inserts(ev) => ev.iter().try_for_each(|e| oracle.apply_event(e, &world)),
                Batch::Deletes(d) => oracle.apply_deletes(d).map(|st| delete_stats.push(st)),
            };
            if let Err(e) = applied {
                errors.push(format!("oracle could not apply batch {}: {e}", i + 1));
                break;
            }
            if !oracle.date_index_fresh() {
                oracle.rebuild_date_index();
            }
            check(&oracle, i as u64 + 1);
        }
        for &(i, lo, hi) in &pending {
            let r = &reads[i];
            errors.push(format!(
                "BI {} read {i} served {:?}, which the oracle gives at no version in {lo}..={hi}",
                r.query + 1,
                r.ok
            ));
        }
        for (q, bs) in bindings.iter().enumerate() {
            let served = snb_bi::run_with(&final_store, &ctx, &bs[0]);
            let want = snb_bi::run_with(&oracle, &ctx, &bs[0]);
            if served != want {
                errors.push(format!("final state BI {}: {served:?} != oracle {want:?}", q + 1));
            }
        }

        let ok_reads: Vec<&Read> = reads.iter().filter(|r| r.ok.is_some()).collect();
        let us_ms = |us: u64| us as f64 / 1e3;
        ThroughputOut {
            batches: acks.len(),
            window_s: self.window_s,
            segment_qps: self.segment_qps,
            reads_attempted: reads.len(),
            reads_failed: reads.len() - ok_reads.len(),
            writes_failed: total - acked,
            ack_ms: acks.iter().map(|a| a.ack_ms).collect(),
            late_ms: acks.iter().map(|a| a.late_ms).collect(),
            write_queue_ms: acks.iter().filter(|a| a.ok).map(|a| us_ms(a.queue_us)).collect(),
            write_exec_ms: acks.iter().filter(|a| a.ok).map(|a| us_ms(a.exec_us)).collect(),
            heavy_queue_ms: ok_reads.iter().map(|r| us_ms(r.queue_us)).collect(),
            heavy_exec_ms: ok_reads.iter().map(|r| us_ms(r.exec_us)).collect(),
            delete_stats,
            server_start_s: self.server_start_s,
            checked_reads,
            errors,
        }
    }
}

/// Closed-loop read streams: the cores the writer leaves.
fn readers(threads: usize) -> usize {
    threads.saturating_sub(1).max(1)
}
