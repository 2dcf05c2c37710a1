//! The query service: admission, execution, deadlines, shutdown.
//!
//! Life of a request:
//!
//! 1. a transport (the epoll reactor draining TCP connections, or an
//!    in-process client) decodes a [`Request`] and calls `admit`;
//! 2. admission classifies the request into a [`Lane`] (IS/IC short
//!    reads, heavy BI, writes) and either queues a [`Job`] on that
//!    lane's bounded queue or responds immediately — `Overloaded` when
//!    the lane is full (the shed detail names the lane and the
//!    observed depths), `ShuttingDown` during drain, `BadRequest` for
//!    undecodable frames;
//! 3. a read worker pops under the weighted lane scheduler
//!    ([`LaneQueues::pop_read`] — short reads cannot be starved by a
//!    BI flood), **checks the deadline at dequeue** (a request whose
//!    deadline passed while queued is answered `DeadlineExceeded`
//!    without touching the store), binds its [`QueryContext`] to the
//!    **store snapshot pinned at admission**, executes, **re-checks
//!    the deadline at completion** (a job that starts inside its
//!    budget but overruns mid-execution is answered — and counted —
//!    `deadline_overrun`, not `ok`), and writes the response through
//!    the job's responder; write batches drain on dedicated write
//!    workers so a WAL fsync never stalls a read worker;
//! 4. every path appends exactly one access-log record (carrying the
//!    lane, the `store_version` read, and the snapshot's age at
//!    execution).
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting (transport
//! rejections + acceptor exit), close the queue, let workers drain the
//! already-admitted jobs, join every thread, and hand back the final
//! [`ServiceReport`] with the access log intact.
//!
//! **Concurrency model** — there is no lock anywhere on the read path.
//! The store lives behind a [`StoreHandle`]: writes (update-stream
//! replay through [`StoreWriter`], durable batches through the WAL
//! path) build the next immutable store version on a private
//! copy-on-write clone and publish it with an atomic swap
//! ([`StoreHandle::publish_with`]); reads pin the current version at
//! admission and run the whole query against it, unaffected by — and
//! never blocking — concurrent publishes. A failed or panicking apply
//! discards the private clone, so mid-batch state is unpublishable;
//! the server still degrades to `store_poisoned` in that case because
//! the WAL holds a batch the published store does not (restart +
//! recovery re-converges them).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::time::{Duration, Instant};

use snb_core::{SnbError, SnbResult};
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::TimedEvent;
use snb_engine::QueryContext;
use snb_store::{
    DeleteOp, DeleteStats, PartitionedStore, SnapshotStats, Store, StoreHandle, StoreSnapshot,
};

use crate::log::{AccessLog, AccessRecord};
use crate::proto::{
    self, ErrorBody, ErrorKind, Lane, OkBody, Request, Response, ServiceParams, WriteBatch,
    WriteOps,
};
use crate::queue::{Admitted, LaneQueues, PushError, ShedPolicy};
use crate::wal::SegmentedWal;

/// Group-commit formation window: how long an ack-waiter parks before
/// volunteering as the flusher. Long enough for the successor batch
/// (whose client is typically already retrying a sequence-gap
/// rejection) to append and join the fsync; short enough to bound the
/// extra ack latency when the waiter turns out to be alone.
const GROUP_COMMIT_WINDOW: Duration = Duration::from_micros(250);

/// How long a response write to a slow TCP peer may retry on a full
/// socket buffer before the response is dropped (the request outcome
/// is already logged). The reactor's connections are non-blocking, so
/// the dup'd write halves are too; this bounds how long a dead or
/// stalled client can pin a worker in the write loop.
const WRITE_STALL_BUDGET: Duration = Duration::from_secs(2);

/// Per-lane admission settings. Zero / `None` fields inherit the
/// server-wide `queue_capacity` / `default_deadline`, so existing
/// callers that only set the global knobs keep their exact semantics.
#[derive(Clone, Copy, Debug)]
pub struct LaneSettings {
    /// Lane queue capacity; `0` inherits [`ServerConfig::queue_capacity`].
    pub capacity: usize,
    /// Deadline for requests on this lane that carry none; `None`
    /// inherits [`ServerConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// What to do when the lane is full.
    pub shed: ShedPolicy,
}

impl Default for LaneSettings {
    fn default() -> Self {
        LaneSettings { capacity: 0, deadline: None, shed: ShedPolicy::Reject }
    }
}

/// Admission-lane configuration: one [`LaneSettings`] per lane plus
/// the read-scheduler weight.
#[derive(Clone, Debug, Default)]
pub struct LanesConfig {
    /// IS/IC short reads.
    pub short: LaneSettings,
    /// Heavy BI analytics.
    pub heavy: LaneSettings,
    /// Sequenced write batches.
    pub write: LaneSettings,
    /// Short pops per heavy pop when both read lanes hold work; `0`
    /// means the default (4:1).
    pub short_weight: u64,
}

impl LanesConfig {
    /// The settings for one lane.
    pub fn lane(&self, lane: Lane) -> &LaneSettings {
        match lane {
            Lane::Short => &self.short,
            Lane::Heavy => &self.heavy,
            Lane::Write => &self.write,
        }
    }
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue. `0` means no
    /// background workers: queued jobs run inline during `shutdown`
    /// (deterministic unit-test mode).
    pub workers: usize,
    /// Admission-queue capacity; pushes beyond it are shed.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Attach a per-request operator profile to responses and log
    /// records (the `--profile` seam).
    pub profiling: bool,
    /// Intra-query parallelism per worker (`QueryContext` width).
    /// Defaults to 1: the workers themselves are the unit of
    /// concurrency, matching the throughput-test design.
    pub threads_per_worker: usize,
    /// Close a TCP connection that makes no read progress for this long
    /// (slowloris protection: a half-open or stalled client must not pin
    /// a thread-per-connection handler forever). `None` disables the
    /// idle check. Stalled closes are logged with outcome
    /// `conn_stalled`.
    pub conn_read_timeout: Option<Duration>,
    /// Horizontal partition count: the store is wrapped in a
    /// [`PartitionedStore`] with this many shards, worker
    /// `QueryContext`s emit partition-aligned morsels, and (when the
    /// server owns a WAL opened with the same count) write batches are
    /// routed to per-partition log segments. `0`/`1` = unpartitioned.
    pub partitions: usize,
    /// Per-lane capacities, deadlines, and shed policies (fields left
    /// at their defaults inherit `queue_capacity` /
    /// `default_deadline`).
    pub lanes: LanesConfig,
    /// Dedicated threads draining the write lane (TCP write batches),
    /// so a WAL fsync never stalls a read worker. Clamped to at least
    /// 1 when `workers > 0`; with `workers == 0` (deterministic test
    /// mode) no write workers spawn either and both drains happen
    /// inline at shutdown.
    pub write_workers: usize,
    /// Start in read-only (follower) mode: client write batches are
    /// refused with `not_primary` (terminal-with-redirect) while the
    /// replication applier keeps the store moving. Flipped off by
    /// [`Server::promote`].
    pub read_only: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_capacity: 1024,
            default_deadline: None,
            profiling: false,
            threads_per_worker: 1,
            conn_read_timeout: Some(Duration::from_secs(30)),
            partitions: 1,
            lanes: LanesConfig::default(),
            write_workers: 2,
            read_only: false,
        }
    }
}

impl ServerConfig {
    /// The resolved capacity of one lane (its own, or the inherited
    /// `queue_capacity`).
    pub fn lane_capacity(&self, lane: Lane) -> usize {
        let own = self.lanes.lane(lane).capacity;
        if own > 0 {
            own
        } else {
            self.queue_capacity
        }
    }

    /// The resolved no-deadline default of one lane (its own, or the
    /// inherited `default_deadline`).
    pub fn lane_deadline(&self, lane: Lane) -> Option<Duration> {
        self.lanes.lane(lane).deadline.or(self.default_deadline)
    }

    /// The resolved short:heavy drain ratio.
    pub fn short_weight(&self) -> u64 {
        if self.lanes.short_weight > 0 {
            self.lanes.short_weight
        } else {
            4
        }
    }
}

/// Aggregate outcome counters, returned by [`Server::shutdown`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Requests executed to completion.
    pub served: u64,
    /// Requests shed by admission control (lane full).
    pub shed: u64,
    /// Requests whose deadline passed before execution.
    pub deadline_missed: u64,
    /// Requests that started inside their budget but finished past the
    /// deadline — executed, then answered `deadline_overrun` instead of
    /// `ok` (the satellite bugfix: overruns used to be miscounted as
    /// served).
    pub deadline_overrun: u64,
    /// Requests rejected because the server was draining.
    pub rejected_shutdown: u64,
    /// Frames that failed to decode.
    pub bad_requests: u64,
    /// Requests that failed during execution.
    pub internal_errors: u64,
    /// Update events applied through [`StoreWriter`].
    pub updates_applied: u64,
    /// Delete operations applied through [`StoreWriter`].
    pub deletes_applied: u64,
    /// Sequenced write batches applied through the durable write path.
    pub batches_applied: u64,
    /// Write batches acknowledged without re-applying (sequence number
    /// at or below the last applied one — a client retry of a batch
    /// whose ack was lost).
    pub batches_deduped: u64,
    /// Requests refused because the store was poisoned by a mid-apply
    /// panic (recovery = restart and replay the WAL).
    pub poisoned_rejects: u64,
    /// TCP connections closed for making no read progress within the
    /// configured timeout.
    pub conn_stalled: u64,
    /// Total access-log records (one per request that reached the
    /// server).
    pub log_records: u64,
    /// Store versions published over the server's lifetime (0 = the
    /// bulk-loaded base version was never superseded).
    pub versions_published: u64,
    /// High-water mark of store versions simultaneously alive
    /// (publication ring + reader-pinned snapshots).
    pub peak_live_snapshots: u64,
    /// Snapshot-reader pin attempts that raced a publish and retried.
    pub reader_retries: u64,
    /// Snapshot-reader retry loops that hit the safety valve and
    /// yielded — must be zero under any sane publish rate (asserted by
    /// the interference CI stage).
    pub reader_blocked: u64,
    /// Requests served per lane, indexed by [`Lane::index`]
    /// (`[short, heavy, write]`; the write slot counts applied +
    /// deduped batches routed through the write lane or inline path).
    pub served_by_lane: [u64; 3],
    /// Requests shed (lane full) per lane, indexed by [`Lane::index`].
    pub shed_by_lane: [u64; 3],
    /// TCP connections accepted over the server's lifetime.
    pub conn_accepted: u64,
    /// High-water mark of simultaneously open TCP connections.
    pub conn_peak: u64,
    /// Write batches refused because the node was a read-only follower
    /// (`not_primary` — the client must redirect to the primary).
    pub not_primary_rejects: u64,
    /// Reads refused because the node had not yet applied the
    /// requested `min_seq` (`stale_read` — retryable, lag drains).
    pub stale_read_rejects: u64,
    /// Write batches refused because the node was fenced — a higher
    /// fencing epoch was observed, so a newer primary exists and acking
    /// here would fork history (`fenced` — terminal with redirect).
    pub fenced_rejects: u64,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    deadline_missed: AtomicU64,
    deadline_overrun: AtomicU64,
    rejected_shutdown: AtomicU64,
    bad_requests: AtomicU64,
    internal_errors: AtomicU64,
    updates_applied: AtomicU64,
    deletes_applied: AtomicU64,
    batches_applied: AtomicU64,
    batches_deduped: AtomicU64,
    poisoned_rejects: AtomicU64,
    conn_stalled: AtomicU64,
    served_by_lane: [AtomicU64; 3],
    shed_by_lane: [AtomicU64; 3],
    conn_accepted: AtomicU64,
    conn_peak: AtomicU64,
    not_primary_rejects: AtomicU64,
    stale_read_rejects: AtomicU64,
    fenced_rejects: AtomicU64,
}

/// Where a job's response goes.
enum Responder {
    /// Write a response frame to the connection's shared write half.
    Tcp(Arc<Mutex<TcpStream>>),
    /// Hand the response to a waiting in-process caller.
    InProc(crossbeam::channel::Sender<Response>),
}

impl Responder {
    fn send(&self, resp: Response) {
        match self {
            Responder::Tcp(stream) => {
                let payload = proto::encode_response(&resp);
                let mut guard = stream.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                // A write error means the client hung up or stalled past
                // the budget; the request outcome is already logged, so
                // drop it silently.
                let _ = send_frame_resilient(&mut guard, &payload);
            }
            Responder::InProc(tx) => {
                let _ = tx.send(resp);
            }
        }
    }
}

/// Writes one length-prefixed frame to a possibly *non-blocking*
/// stream. The reactor puts connections in non-blocking mode, and
/// `O_NONBLOCK` lives on the open file description — shared with every
/// `try_clone`d write half — so a plain `write_all` could return
/// `WouldBlock` mid-frame and corrupt the framing for good. This
/// helper serialises the whole frame into one buffer and retries from
/// the exact offset on `WouldBlock`, bounded by [`WRITE_STALL_BUDGET`].
fn send_frame_resilient(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    if snb_fault::partition_active() {
        // `net.partition` black-holes the wire: the write "succeeds"
        // locally but the peer never sees the bytes, and the socket
        // stays open — exactly a mid-network drop, not a close.
        return Ok(());
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let started = Instant::now();
    let mut off = 0usize;
    while off < frame.len() {
        match stream.write(&frame[off..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if started.elapsed() > WRITE_STALL_BUDGET {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What a queued job carries: a fully decoded request (in-process
/// transport), or the raw frame payload plus its peeked header (TCP
/// transports). Raw frames are decoded on the lane worker that pops
/// them — the reactor thread only ever runs the cheap fixed-offset
/// [`proto::peek_header`], so a peer flooding parse-heavy bindings
/// burns worker time, never transport-read time.
enum JobPayload {
    Decoded(Request),
    Raw { payload: Vec<u8>, header: proto::RequestHeader },
}

impl JobPayload {
    fn id(&self) -> u64 {
        match self {
            JobPayload::Decoded(req) => req.id,
            JobPayload::Raw { header, .. } => header.id,
        }
    }

    /// `(workload, query, binding_hash)` for access-log records. Raw
    /// frames are unlabelled until decoded — shed records for them
    /// carry empty labels, exactly like the garbage path.
    fn labels(&self) -> (&'static str, u8, u64) {
        match self {
            JobPayload::Decoded(req) => {
                let (w, q) = req.params.label();
                (w, q, req.params.binding_hash())
            }
            JobPayload::Raw { .. } => ("", 0, 0),
        }
    }
}

/// One admitted unit of work, carrying the store version pinned at
/// admission: whatever the writer publishes while this job is queued,
/// the job reads the version that was current when it was admitted.
struct Job {
    payload: JobPayload,
    seq: u64,
    lane: Lane,
    admitted: Instant,
    deadline: Option<Instant>,
    snapshot: StoreSnapshot,
    /// The node's applied write sequence loaded at admission — stamped
    /// into the response as the bounded-staleness contract: the pinned
    /// snapshot contains every write at or below it.
    applied_seq: u64,
    responder: Responder,
}

/// The durable-write machinery a server starts with when it owns a WAL:
/// typically built from [`crate::wal::Recovered`] via
/// [`Recovered::into_durability`](crate::wal::Recovered).
pub struct Durability {
    /// Open append handle (post-recovery), one segment per partition.
    pub wal: SegmentedWal,
    /// Seeded dictionaries needed by `apply_event`.
    pub world: StaticWorld,
    /// Highest batch sequence number already applied (recovered);
    /// deduplication resumes from here.
    pub last_seq: u64,
    /// Fencing epoch recovered from the WAL headers — the replication
    /// term the node serves at until promotion bumps it.
    pub epoch: u64,
}

/// Serialized under one mutex so WAL append, store apply, and sequence
/// accounting are atomic with respect to other write batches.
struct DurableState {
    wal: SegmentedWal,
    world: StaticWorld,
}

pub(crate) struct ServerInner {
    store: Arc<StoreHandle>,
    queue: LaneQueues<Job>,
    log: AccessLog,
    accepting: AtomicBool,
    config: ServerConfig,
    counters: Counters,
    durable: Option<Mutex<DurableState>>,
    last_applied_seq: AtomicU64,
    /// Group-commit ack gate: the highest sequence number covered by a
    /// completed flush. With `group_commit` on, a write's ack is held
    /// until this reaches its sequence number — many submitters then
    /// share one fsync without weakening "acknowledged ⇒ durable".
    flushed_seq: AtomicU64,
    /// Parking lot for ack-waiters ([`ServerInner::wait_for_flush`]).
    flush_mutex: Mutex<()>,
    flush_cv: Condvar,
    /// Set when a write failed or panicked mid-apply. The *published*
    /// store is still consistent (the failed version was discarded
    /// unpublished), but the WAL and the store have diverged — an
    /// appended batch was never applied — so every request is refused
    /// with `store_poisoned` until restart-and-recovery re-converges
    /// them.
    degraded: AtomicBool,
    /// Follower mode: client writes are refused with `not_primary`.
    /// The replication applier bypasses admission (it calls
    /// [`ServerInner::submit_batch`] directly), so shipped records
    /// apply regardless. Cleared by promotion.
    read_only: AtomicBool,
    /// The node's fencing epoch — the replication term it serves under.
    /// Durable in the WAL header; bumped (and fsynced) by promotion
    /// *before* `read_only` clears.
    epoch: AtomicU64,
    /// Set when the node observes a higher fencing epoch than its own
    /// while writable: a newer primary exists, so every client write is
    /// refused with `fenced` instead of acking into a forked history.
    /// Never cleared except by promotion (which bumps past the fencing
    /// term).
    fenced: AtomicBool,
    /// Client-facing address of the current primary, when known —
    /// carried in `not_primary`/`fenced` details as a redirect hint.
    primary_hint: Mutex<String>,
    /// Replication-listener address the follower loop should subscribe
    /// to. Updated by `Announce`/`Deny` handling; the follower loop
    /// re-reads it each reconnect, which is what makes re-subscription
    /// to a new primary automatic.
    repl_target: Mutex<String>,
}

impl ServerInner {
    /// Whether the server is still accepting work (replication ship
    /// loops exit when this clears).
    pub(crate) fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }

    /// Highest applied write sequence (the follower's Hello cursor and
    /// the non-group-commit ship bound).
    pub(crate) fn applied_seq(&self) -> u64 {
        self.last_applied_seq.load(Ordering::Acquire)
    }

    /// The replication ship bound: the highest sequence whose ack has
    /// been released. Under group commit an applied-but-unflushed batch
    /// is not yet acked, so shipping stops at `flushed_seq`; otherwise
    /// apply and ack coincide at `last_applied_seq`. Followers must
    /// never see a record the primary could still disavow.
    pub(crate) fn acked_seq(&self, group_commit: bool) -> u64 {
        if group_commit {
            self.flushed_seq.load(Ordering::Acquire)
        } else {
            self.last_applied_seq.load(Ordering::Acquire)
        }
    }

    /// Whether the WAL runs group commit (`None` without a WAL) — read
    /// once per replication listener, not per poll.
    pub(crate) fn wal_group_commit(&self) -> Option<bool> {
        let durable = self.durable.as_ref()?;
        let state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(state.wal.options().group_commit)
    }

    /// Whether client writes are refused (follower mode).
    pub(crate) fn read_only_flag(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// The node's current fencing epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether the node has been fenced by a higher epoch.
    pub(crate) fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    /// Fences the node at `epoch`: a newer primary exists, so client
    /// writes are refused with `fenced` from here on. `primary` (when
    /// non-empty) becomes the redirect hint. Raises the stored epoch so
    /// later frames at the same term aren't "higher" again.
    pub(crate) fn fence(&self, epoch: u64, primary: &str) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
        self.fenced.store(true, Ordering::Release);
        if !primary.is_empty() {
            self.set_primary_hint(primary);
        }
    }

    /// Adopts a newer epoch observed on the wire *without* fencing —
    /// the follower path: a read-only node tracking its primary's term
    /// is not a zombie, it just learned the term changed.
    pub(crate) fn observe_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// The current redirect hint (client-facing primary address), empty
    /// when unknown.
    pub(crate) fn primary_hint(&self) -> String {
        self.primary_hint.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    pub(crate) fn set_primary_hint(&self, addr: &str) {
        let mut hint = self.primary_hint.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *hint = addr.to_string();
    }

    /// The replication listener the follower loop should subscribe to
    /// (empty = stick with the address it was started with).
    pub(crate) fn repl_target(&self) -> String {
        self.repl_target.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    pub(crate) fn set_repl_target(&self, addr: &str) {
        let mut t = self.repl_target.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *t = addr.to_string();
    }

    /// Promotion: durably bumps the fencing epoch to at least
    /// `min_epoch` (and at least one past the node's own term), *then*
    /// clears follower mode — the order matters, because a crash
    /// between the two must leave a node that recovers fenced-forward,
    /// never a writable node at the old term. Returns the writable-from
    /// seq and the new epoch. Idempotent: re-promoting an
    /// already-writable node only reports its state.
    pub(crate) fn promote_inner(&self, min_epoch: u64) -> SnbResult<(u64, u64)> {
        if self.read_only.load(Ordering::Acquire) || self.is_fenced() {
            let new_epoch = min_epoch.max(self.epoch().saturating_add(1));
            if let Some(durable) = self.durable.as_ref() {
                let mut state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                state.wal.bump_epoch(new_epoch)?;
            }
            self.epoch.fetch_max(new_epoch, Ordering::AcqRel);
            // A fenced ex-primary re-promoted into a newer term is a
            // primary again; its writes carry the new epoch.
            self.fenced.store(false, Ordering::Release);
            self.read_only.store(false, Ordering::Release);
        }
        Ok((self.last_applied_seq.load(Ordering::Acquire), self.epoch()))
    }

    /// Renders the consistent per-lane depth snapshot that admission
    /// refusals carry, so clients and the chaos harness can distinguish
    /// lane-full from global overload (the satellite bugfix for shed
    /// responses that used to report nothing but `queue_us: 0`).
    fn depths_detail(&self) -> String {
        let d = self.queue.depths();
        format!("lanes short={} heavy={} write={}", d[0], d[1], d[2])
    }

    /// The single refusal path behind every admission rejection:
    /// counters, one access-log record, and a typed error response.
    /// `labels` is `(workload, query, binding_hash)` — empty for raw
    /// frames that were never decoded. `min_seq` feeds the `stale_read`
    /// detail so the client sees its lag.
    #[allow(clippy::too_many_arguments)]
    fn refuse(
        &self,
        seq: u64,
        id: u64,
        labels: (&'static str, u8, u64),
        lane: Lane,
        kind: ErrorKind,
        min_seq: u64,
        responder: &Responder,
    ) {
        let (workload, query, binding_hash) = labels;
        match kind {
            ErrorKind::Overloaded => {
                self.counters.shed_by_lane[lane.index()].fetch_add(1, Ordering::Relaxed);
                self.counters.shed.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::ShuttingDown => {
                self.counters.rejected_shutdown.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::StorePoisoned => {
                self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::NotPrimary => {
                self.counters.not_primary_rejects.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::StaleRead => {
                self.counters.stale_read_rejects.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::Fenced => self.counters.fenced_rejects.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        self.log.push(AccessRecord {
            seq,
            workload,
            query,
            binding_hash,
            lane: lane.name(),
            queue_us: 0,
            exec_us: 0,
            outcome: kind.name(),
            rows: 0,
            fingerprint: 0,
            store_version: self.store.version(),
            snapshot_age_us: 0,
            profile: None,
        });
        let detail = match kind {
            ErrorKind::Overloaded => {
                format!(
                    "{} lane full (capacity {}; {})",
                    lane.name(),
                    self.queue.capacity(lane),
                    self.depths_detail()
                )
            }
            ErrorKind::ShuttingDown => {
                format!("server is draining for shutdown ({})", self.depths_detail())
            }
            ErrorKind::StorePoisoned => {
                "store poisoned by a mid-apply panic; restart to recover from the WAL".to_string()
            }
            ErrorKind::NotPrimary => {
                let hint = self.primary_hint();
                if hint.is_empty() {
                    "read-only follower; route writes to the primary".to_string()
                } else {
                    format!("read-only follower; route writes to the primary (primary={hint})")
                }
            }
            ErrorKind::Fenced => {
                let hint = self.primary_hint();
                let epoch = self.epoch();
                if hint.is_empty() {
                    format!("fenced: a newer primary exists at epoch {epoch}")
                } else {
                    format!("fenced: a newer primary exists at epoch {epoch} (primary={hint})")
                }
            }
            ErrorKind::StaleRead => {
                let applied = self.last_applied_seq.load(Ordering::Acquire);
                format!(
                    "min_seq {min_seq}, applied {applied} (lag {})",
                    min_seq.saturating_sub(applied)
                )
            }
            other => other.name().to_string(),
        };
        responder.send(Response { id, body: Err(ErrorBody { kind, queue_us: 0, detail }) });
    }

    fn reject(
        &self,
        seq: u64,
        request: &Request,
        lane: Lane,
        kind: ErrorKind,
        responder: &Responder,
    ) {
        let (workload, query) = request.params.label();
        self.refuse(
            seq,
            request.id,
            (workload, query, request.params.binding_hash()),
            lane,
            kind,
            request.min_seq,
            responder,
        );
    }

    /// Refuses one already-queued job (shed victim or closed-queue
    /// push-back) whichever payload form it carries.
    fn reject_job(&self, job: Job, kind: ErrorKind) {
        let min_seq = match &job.payload {
            JobPayload::Decoded(req) => req.min_seq,
            JobPayload::Raw { header, .. } => header.min_seq,
        };
        self.refuse(
            job.seq,
            job.payload.id(),
            job.payload.labels(),
            job.lane,
            kind,
            min_seq,
            &job.responder,
        );
    }

    /// Admission control: queue the request on its lane or answer
    /// immediately. In-process write batches are applied on the
    /// submitting thread (they serialize on the durability lock anyway,
    /// and the group-commit formation window wants concurrent
    /// submitters parked *in* `submit_batch`); TCP write batches are
    /// queued on the write lane and drained by the dedicated write
    /// workers, so a WAL fsync never stalls the reactor or a read
    /// worker.
    fn admit(&self, request: Request, responder: Responder) {
        let lane = request.params.lane();
        if lane == Lane::Write && self.read_only.load(Ordering::Acquire) {
            // Follower: client writes can never succeed here (the
            // replication applier is the only writer) — terminal with
            // redirect, checked before anything queues.
            let seq = self.log.next_seq();
            self.reject(seq, &request, lane, ErrorKind::NotPrimary, &responder);
            return;
        }
        if lane == Lane::Write && self.is_fenced() {
            // Zombie ex-primary: a newer term exists, so acking this
            // write would fork history — terminal with redirect.
            let seq = self.log.next_seq();
            self.reject(seq, &request, lane, ErrorKind::Fenced, &responder);
            return;
        }
        if lane == Lane::Write {
            if let Responder::InProc(_) = responder {
                self.admit_write(request, responder);
                return;
            }
        }
        let seq = self.log.next_seq();
        if !self.accepting.load(Ordering::Acquire) {
            self.reject(seq, &request, lane, ErrorKind::ShuttingDown, &responder);
            return;
        }
        if self.degraded.load(Ordering::Acquire) {
            self.reject(seq, &request, lane, ErrorKind::StorePoisoned, &responder);
            return;
        }
        // Bounded-staleness gate: load the applied high-water mark
        // *before* pinning the snapshot. `submit_batch` publishes the
        // store version before bumping `last_applied_seq`, so a
        // snapshot pinned after this load necessarily contains every
        // write at or below it.
        let applied_seq = self.last_applied_seq.load(Ordering::Acquire);
        if request.min_seq > applied_seq {
            self.reject(seq, &request, lane, ErrorKind::StaleRead, &responder);
            return;
        }
        let admitted = Instant::now();
        let deadline = if request.deadline_us > 0 {
            Some(admitted + Duration::from_micros(request.deadline_us))
        } else {
            self.config.lane_deadline(lane).map(|d| admitted + d)
        };
        // Pin the store version here, at admission: the job reads this
        // version no matter how many publishes land while it queues.
        let snapshot = self.store.snapshot();
        let job = Job {
            payload: JobPayload::Decoded(request),
            seq,
            lane,
            admitted,
            deadline,
            snapshot,
            applied_seq,
            responder,
        };
        self.push_job(lane, job);
    }

    /// Admission for a raw TCP frame: peek the fixed-offset header (id,
    /// deadline, staleness floor, lane), run every admission gate on
    /// it, and queue the *undecoded* payload — the lane worker that
    /// pops it does the full binding decode. This keeps the reactor
    /// thread's per-frame cost flat regardless of binding complexity.
    fn admit_frame(&self, payload: Vec<u8>, responder: Responder) {
        let header = match proto::peek_header(&payload) {
            Ok(h) => h,
            Err(e) => {
                self.admit_garbage(e.id, e.detail, responder);
                return;
            }
        };
        let lane = header.lane;
        let seq = self.log.next_seq();
        let labels = ("", 0, 0);
        if lane == Lane::Write && self.read_only.load(Ordering::Acquire) {
            self.refuse(seq, header.id, labels, lane, ErrorKind::NotPrimary, 0, &responder);
            return;
        }
        if lane == Lane::Write && self.is_fenced() {
            self.refuse(seq, header.id, labels, lane, ErrorKind::Fenced, 0, &responder);
            return;
        }
        if !self.accepting.load(Ordering::Acquire) {
            self.refuse(seq, header.id, labels, lane, ErrorKind::ShuttingDown, 0, &responder);
            return;
        }
        if self.degraded.load(Ordering::Acquire) {
            self.refuse(seq, header.id, labels, lane, ErrorKind::StorePoisoned, 0, &responder);
            return;
        }
        let applied_seq = self.last_applied_seq.load(Ordering::Acquire);
        if header.min_seq > applied_seq {
            self.refuse(
                seq,
                header.id,
                labels,
                lane,
                ErrorKind::StaleRead,
                header.min_seq,
                &responder,
            );
            return;
        }
        let admitted = Instant::now();
        let deadline = if header.deadline_us > 0 {
            Some(admitted + Duration::from_micros(header.deadline_us))
        } else {
            self.config.lane_deadline(lane).map(|d| admitted + d)
        };
        let snapshot = self.store.snapshot();
        let job = Job {
            payload: JobPayload::Raw { payload, header },
            seq,
            lane,
            admitted,
            deadline,
            snapshot,
            applied_seq,
            responder,
        };
        self.push_job(lane, job);
    }

    fn push_job(&self, lane: Lane, job: Job) {
        match self.queue.try_push(lane, job) {
            Ok(Admitted::Queued) => {}
            Ok(Admitted::QueuedEvicting(victim)) => {
                // DropOldest lane: the newcomer is queued and the stalest
                // entry is shed in its place — answered Overloaded like
                // any other shed, never silently dropped.
                self.reject_job(victim, ErrorKind::Overloaded);
            }
            Err(PushError::Full(job)) => self.reject_job(job, ErrorKind::Overloaded),
            Err(PushError::Closed(job)) => self.reject_job(job, ErrorKind::ShuttingDown),
        }
    }

    /// Handles one undecodable frame. The rejection carries the lane
    /// depths so a flooding client can tell protocol failure apart from
    /// overload even on the garbage path.
    fn admit_garbage(&self, id: Option<u64>, detail: String, responder: Responder) {
        let seq = self.log.next_seq();
        self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        self.log.push(AccessRecord {
            seq,
            workload: "",
            query: 0,
            binding_hash: 0,
            lane: "",
            queue_us: 0,
            exec_us: 0,
            outcome: ErrorKind::BadRequest.name(),
            rows: 0,
            fingerprint: 0,
            store_version: self.store.version(),
            snapshot_age_us: 0,
            profile: None,
        });
        let detail = format!("{detail} ({})", self.depths_detail());
        responder.send(Response {
            id: id.unwrap_or(u64::MAX),
            body: Err(ErrorBody { kind: ErrorKind::BadRequest, queue_us: 0, detail }),
        });
    }

    /// Handles one sequenced write batch on the submitting thread
    /// (in-process transport) and answers it.
    fn admit_write(&self, request: Request, responder: Responder) {
        let seq = self.log.next_seq();
        self.run_write(request, responder, seq, 0);
    }

    /// Drains one write-lane job on a write worker. Raw TCP frames are
    /// decoded here — a decode failure still answers a typed
    /// `bad_request`, it just does so off the reactor thread.
    fn execute_write(&self, job: Job) {
        let queue_us = job.admitted.elapsed().as_micros() as u64;
        let request = match job.payload {
            JobPayload::Decoded(req) => req,
            JobPayload::Raw { payload, .. } => match proto::decode_request(&payload) {
                Ok(req) => req,
                Err(e) => {
                    self.admit_garbage(e.id, e.detail, job.responder);
                    return;
                }
            },
        };
        self.run_write(request, job.responder, job.seq, queue_us);
    }

    /// Runs one sequenced write batch and answers it (ack ⇔ the batch
    /// is durable and applied, or was already applied and is being
    /// re-acknowledged). `queue_us` is 0 on the inline in-process path
    /// and the observed lane wait on the write-worker path.
    fn run_write(&self, request: Request, responder: Responder, seq: u64, queue_us: u64) {
        let (workload, query) = request.params.label();
        let binding_hash = request.params.binding_hash();
        let ServiceParams::Write(batch) = &request.params else {
            unreachable!("run_write is only called for Write params");
        };
        let started = Instant::now();
        let result = self.submit_batch(batch);
        let exec_us = started.elapsed().as_micros() as u64;
        let (outcome, rows, fingerprint) = match &result {
            Ok((outcome, ok)) => (*outcome, ok.rows, ok.fingerprint),
            Err(e) => (e.kind.name(), 0, 0),
        };
        if result.is_ok() {
            self.counters.served_by_lane[Lane::Write.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.log.push(AccessRecord {
            seq,
            workload,
            query,
            binding_hash,
            lane: Lane::Write.name(),
            queue_us,
            exec_us,
            outcome,
            rows,
            fingerprint,
            store_version: self.store.version(),
            snapshot_age_us: 0,
            profile: None,
        });
        let body = match result {
            Ok((_, mut ok)) => {
                ok.queue_us = queue_us;
                ok.exec_us = exec_us;
                Ok(ok)
            }
            Err(mut e) => {
                e.queue_us = queue_us;
                Err(e)
            }
        };
        responder.send(Response { id: request.id, body });
    }

    /// The durable write path: dedupe check → WAL append (flushed) →
    /// build + publish the next store version → bump the applied
    /// sequence → maybe rotate the snapshot. Returns the log outcome
    /// label with the ack body.
    ///
    /// The ack body encodes the contract: `fingerprint` is the highest
    /// applied sequence number after this call, and `rows` is the
    /// number of operations applied *by this call* — `0` for a dedupe
    /// re-ack, so a client can tell first-apply from replay.
    pub(crate) fn submit_batch(
        &self,
        batch: &WriteBatch,
    ) -> Result<(&'static str, OkBody), ErrorBody> {
        let err = |kind: ErrorKind, detail: String| ErrorBody { kind, queue_us: 0, detail };
        // The split-brain chaos point: firing it opens the process-wide
        // partition window (`partition:MS@hN` = at the N-th submitted
        // batch), under which the transport black-holes traffic without
        // closing sockets. Hit-counted here so the window opens at a
        // deterministic point in the write stream.
        if let Some(fault) = snb_fault::check("net.partition") {
            fault.trip("net.partition");
        }
        if self.is_fenced() {
            self.counters.fenced_rejects.fetch_add(1, Ordering::Relaxed);
            let hint = self.primary_hint();
            let detail = if hint.is_empty() {
                format!("fenced: a newer primary exists at epoch {}", self.epoch())
            } else {
                format!("fenced: a newer primary exists at epoch {} (primary={hint})", self.epoch())
            };
            return Err(err(ErrorKind::Fenced, detail));
        }
        if self.degraded.load(Ordering::Acquire) {
            self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed);
            return Err(err(
                ErrorKind::StorePoisoned,
                "store poisoned by a mid-apply panic; restart to recover from the WAL".into(),
            ));
        }
        if !self.accepting.load(Ordering::Acquire) {
            self.counters.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return Err(err(ErrorKind::ShuttingDown, "server is draining for shutdown".into()));
        }
        let Some(durable) = &self.durable else {
            self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return Err(err(
                ErrorKind::BadRequest,
                "server has no write-ahead log (start with --wal-dir)".into(),
            ));
        };
        let mut state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let group = state.wal.options().group_commit;
        let last = self.last_applied_seq.load(Ordering::Acquire);
        if batch.seq <= last {
            // Already applied; the ack was lost somewhere. With group
            // commit the covering flush may not have run yet — a re-ack
            // must not get ahead of the durability the original ack
            // would have waited for.
            if group && self.flushed_seq.load(Ordering::Acquire) < batch.seq {
                if let Err(e) = state.wal.sync_all() {
                    self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(err(ErrorKind::Internal, format!("WAL flush failed: {e}")));
                }
                self.note_flushed(state.wal.last_seq());
            }
            self.counters.batches_deduped.fetch_add(1, Ordering::Relaxed);
            return Ok((
                "deduped",
                OkBody { rows: 0, fingerprint: last, applied_seq: last, ..OkBody::default() },
            ));
        }
        if batch.seq != last + 1 {
            self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return Err(err(
                ErrorKind::BadRequest,
                format!("sequence gap: got batch {}, expected {}", batch.seq, last + 1),
            ));
        }
        if let Err(e) = state.wal.append(batch.seq, &batch.ops) {
            // Not durable ⇒ not applied, not acknowledged. The store is
            // still consistent; the client retries after restart.
            self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
            return Err(err(ErrorKind::Internal, format!("WAL append failed: {e}")));
        }
        // Build the next store version on a private copy-on-write clone
        // and publish it atomically; an error or panic discards the
        // clone, so readers can never observe the batch half-applied.
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.store.publish_with(|next| {
                let r = match &batch.ops {
                    WriteOps::Updates(events) => {
                        let mut n = 0u64;
                        let mut result = Ok(());
                        for ev in events {
                            if let Some(fault) = snb_fault::check("writer.apply.panic") {
                                fault.trip("writer.apply.panic");
                            }
                            if let Err(e) = next.apply_event(ev, &state.world) {
                                result = Err(e);
                                break;
                            }
                            n += 1;
                        }
                        result.map(|()| (n, 0u64))
                    }
                    WriteOps::Deletes(dels) => {
                        if let Some(fault) = snb_fault::check("writer.apply.panic") {
                            fault.trip("writer.apply.panic");
                        }
                        next.apply_deletes(dels).map(|_| (0u64, dels.len() as u64))
                    }
                };
                if !next.date_index_fresh() {
                    next.rebuild_date_index();
                }
                r
            })
        }));
        match applied {
            Ok(Ok((updates, deletes))) => {
                self.counters.updates_applied.fetch_add(updates, Ordering::Relaxed);
                self.counters.deletes_applied.fetch_add(deletes, Ordering::Relaxed);
                self.counters.batches_applied.fetch_add(1, Ordering::Relaxed);
                self.last_applied_seq.store(batch.seq, Ordering::Release);
                // Group commit: flush inline once the backlog reaches
                // `fsync_every` (bounds how many unacked submitters can
                // pile up); otherwise leave the flush to whichever
                // waiter gets the lock first.
                if group && state.wal.unsynced() >= state.wal.options().fsync_every.max(1) {
                    if let Err(e) = state.wal.sync_all() {
                        self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
                        return Err(err(ErrorKind::Internal, format!("WAL flush failed: {e}")));
                    }
                    self.note_flushed(state.wal.last_seq());
                }
                // Rotation failure is not fatal: the live WAL keeps
                // growing and recovery still replays everything.
                match state.wal.maybe_snapshot() {
                    Ok(rotated) => {
                        if rotated && group {
                            // Compaction sealed every segment first.
                            self.note_flushed(state.wal.last_seq());
                        }
                        if rotated && state.wal.options().image {
                            self.write_store_image(&mut state, batch.seq);
                        }
                    }
                    Err(_) => {
                        self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                drop(state);
                if group {
                    self.wait_for_flush(durable, batch.seq)?;
                }
                Ok((
                    "ok",
                    OkBody {
                        rows: batch.ops.len() as u64,
                        fingerprint: batch.seq,
                        applied_seq: batch.seq,
                        ..OkBody::default()
                    },
                ))
            }
            Ok(Err(apply_err)) => {
                // A semantic failure part-way through a batch (e.g. an
                // unknown id on the third event) discarded the private
                // clone — readers keep a consistent store — but the WAL
                // now holds a batch the published store does not, so the
                // server must refuse further work until restart-recovery
                // re-converges them.
                self.degraded.store(true, Ordering::Release);
                self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed);
                Err(err(
                    ErrorKind::StorePoisoned,
                    format!("apply failed mid-batch ({apply_err}); restart to recover"),
                ))
            }
            Err(_) => {
                self.degraded.store(true, Ordering::Release);
                self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed);
                Err(err(
                    ErrorKind::StorePoisoned,
                    format!("panic while applying batch {}; restart to recover", batch.seq),
                ))
            }
        }
    }

    /// Writes a store image at a compaction point. Called under the
    /// durability lock right after `maybe_snapshot` rotated, so the
    /// published store is exactly the state at `seq` (no other writer
    /// can publish while the lock is held) and the just-compacted
    /// `snapshot.log` is fully covered by the image — it gets truncated
    /// behind it. Failure is non-fatal: the log-only layout remains
    /// complete and recovery still replays everything.
    fn write_store_image(&self, state: &mut DurableState, seq: u64) {
        let snapshot = self.store.snapshot();
        let store: &Store = snapshot.store();
        let (dir, scale, seed) =
            (state.wal.dir().to_path_buf(), state.wal.scale().to_string(), state.wal.seed());
        let result = crate::image::write_image(
            &dir,
            &scale,
            seed,
            state.wal.epoch(),
            seq,
            state.wal.segment_count(),
            store,
        )
        .and_then(|_| state.wal.reset_snapshot_log());
        if result.is_err() {
            self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Installs a shipped store image (follower bootstrap): verifies and
    /// persists the blob into the WAL directory, resets the log behind
    /// it (every held record is at or below the image's sequence), and
    /// publishes the decoded store wholesale. After this the node
    /// resumes applying shipped records from `header.seq + 1`.
    pub(crate) fn install_image(&self, bytes: &[u8]) -> SnbResult<crate::image::ImageHeader> {
        let Some(durable) = &self.durable else {
            return Err(SnbError::Config(
                "image bootstrap requires a WAL directory (start with --wal-dir)".into(),
            ));
        };
        let mut state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = state.wal.dir().to_path_buf();
        let scale = state.wal.scale().to_string();
        let seed = state.wal.seed();
        // Land the image atomically first: a crash between this and the
        // WAL reset recovers image + stale log records, all of which
        // dedupe away (every held seq <= image seq).
        let (store, header) = crate::image::install_image_bytes(&dir, &scale, seed, bytes)?;
        if header.seq < self.applied_seq() {
            return Err(SnbError::Config(format!(
                "refusing image at seq {} older than applied seq {}",
                header.seq,
                self.applied_seq()
            )));
        }
        state.wal.reset_for_image(header.seq, header.epoch)?;
        let parts = self.store.snapshot().store().partitions();
        self.store.publish_with(|next| {
            *next = PartitionedStore::new(store, parts);
            Ok(())
        })?;
        self.last_applied_seq.store(header.seq, Ordering::Release);
        self.flushed_seq.fetch_max(header.seq, Ordering::AcqRel);
        self.observe_epoch(header.epoch);
        Ok(header)
    }

    /// Records a completed flush covering everything appended up to
    /// `seq` and wakes the ack-waiters.
    fn note_flushed(&self, seq: u64) {
        self.flushed_seq.fetch_max(seq, Ordering::AcqRel);
        let _parked = self.flush_mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.flush_cv.notify_all();
    }

    /// Group-commit ack gate: blocks until a flush covers `my_seq`.
    /// Whichever waiter finds the durability lock free runs
    /// [`SegmentedWal::sync_all`] for everyone — one fsync releases
    /// every waiter whose append it covers; waiters that find the lock
    /// busy park briefly (an appender or flusher is making progress).
    fn wait_for_flush(&self, durable: &Mutex<DurableState>, my_seq: u64) -> Result<(), ErrorBody> {
        // Group-formation window (the commit-delay trade): park briefly
        // before volunteering to flush, so the successor batch — whose
        // client is usually already retrying its sequence-gap rejection
        // — can append first and share the fsync. A flush completing
        // during the window wakes every waiter early; checking
        // `flushed_seq` under `flush_mutex` pairs with `note_flushed`
        // taking it before notifying, so the wakeup cannot be missed.
        if self.flushed_seq.load(Ordering::Acquire) < my_seq {
            let parked = self.flush_mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if self.flushed_seq.load(Ordering::Acquire) < my_seq {
                match self.flush_cv.wait_timeout(parked, GROUP_COMMIT_WINDOW) {
                    Ok((guard, _timed_out)) => drop(guard),
                    Err(poisoned) => drop(poisoned.into_inner()),
                }
            }
        }
        loop {
            if self.flushed_seq.load(Ordering::Acquire) >= my_seq {
                return Ok(());
            }
            match durable.try_lock() {
                Ok(mut state) => {
                    if self.flushed_seq.load(Ordering::Acquire) >= my_seq {
                        return Ok(());
                    }
                    if let Err(e) = state.wal.sync_all() {
                        self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
                        return Err(ErrorBody {
                            kind: ErrorKind::Internal,
                            queue_us: 0,
                            detail: format!("WAL flush failed: {e}"),
                        });
                    }
                    self.note_flushed(state.wal.last_seq());
                    return Ok(());
                }
                Err(TryLockError::Poisoned(p)) => {
                    drop(p);
                    // A writer panicked holding the lock; the degraded
                    // path owns recovery. Do not ack.
                    return Err(ErrorBody {
                        kind: ErrorKind::StorePoisoned,
                        queue_us: 0,
                        detail: "durability lock poisoned before the covering flush".into(),
                    });
                }
                Err(TryLockError::WouldBlock) => {
                    let parked =
                        self.flush_mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    match self.flush_cv.wait_timeout(parked, Duration::from_micros(200)) {
                        Ok((guard, _timed_out)) => drop(guard),
                        Err(poisoned) => drop(poisoned.into_inner()),
                    }
                }
            }
        }
    }

    /// Executes one dequeued read job on `ctx`: deadline check at
    /// dequeue (don't execute work the client gave up on), execution
    /// against the admission-pinned snapshot, then a second deadline
    /// check at completion — a job that started inside its budget but
    /// overran mid-execution is answered `deadline_overrun`, not `ok`
    /// (before this check, overruns were silently miscounted as
    /// served).
    fn execute(&self, ctx: &QueryContext, job: Job) {
        let Job {
            payload,
            seq,
            lane: job_lane,
            admitted,
            deadline,
            snapshot,
            applied_seq,
            responder,
        } = job;
        let queue_us = admitted.elapsed().as_micros() as u64;
        // Raw TCP frames decode here, on the worker: a parse-heavy
        // binding costs worker time, never reactor time, and a decode
        // failure still answers a typed `bad_request`.
        let request = match payload {
            JobPayload::Decoded(req) => req,
            JobPayload::Raw { payload, .. } => match proto::decode_request(&payload) {
                Ok(req) => req,
                Err(e) => {
                    self.admit_garbage(e.id, e.detail, responder);
                    return;
                }
            },
        };
        let lane = job_lane.name();
        let (workload, query) = request.params.label();
        let binding_hash = request.params.binding_hash();
        // A poisoning write may have landed while this job was queued.
        if self.degraded.load(Ordering::Acquire) {
            self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed);
            self.log.push(AccessRecord {
                seq,
                workload,
                query,
                binding_hash,
                lane,
                queue_us,
                exec_us: 0,
                outcome: ErrorKind::StorePoisoned.name(),
                rows: 0,
                fingerprint: 0,
                store_version: snapshot.version(),
                snapshot_age_us: 0,
                profile: None,
            });
            responder.send(Response {
                id: request.id,
                body: Err(ErrorBody {
                    kind: ErrorKind::StorePoisoned,
                    queue_us,
                    detail: "store poisoned by a mid-apply panic; restart to recover from the WAL"
                        .into(),
                }),
            });
            return;
        }
        if let Some(deadline) = deadline {
            if Instant::now() > deadline {
                self.counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
                self.log.push(AccessRecord {
                    seq,
                    workload,
                    query,
                    binding_hash,
                    lane,
                    queue_us,
                    exec_us: 0,
                    outcome: ErrorKind::DeadlineExceeded.name(),
                    rows: 0,
                    fingerprint: 0,
                    store_version: snapshot.version(),
                    snapshot_age_us: 0,
                    profile: None,
                });
                responder.send(Response {
                    id: request.id,
                    body: Err(ErrorBody {
                        kind: ErrorKind::DeadlineExceeded,
                        queue_us,
                        detail: format!(
                            "deadline passed after {queue_us}us in queue; not executed"
                        ),
                    }),
                });
                return;
            }
        }
        ctx.metrics().reset();
        let started = Instant::now();
        let store_version = snapshot.version();
        let snapshot_age_us = snapshot.age().as_micros() as u64;
        // Bind the worker's context to the version pinned at admission:
        // the query reads that immutable snapshot — no lock, no
        // interference from concurrent publishes.
        let bound = ctx.clone().with_snapshot(snapshot.clone());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match &request.params {
                ServiceParams::Bi(p) => {
                    let s = snb_bi::run_bound(&bound, p);
                    (s.rows as u64, s.fingerprint)
                }
                ServiceParams::Ic(p) => (snb_interactive::run_complex_bound(&bound, p) as u64, 0),
                ServiceParams::Is(p) => (snb_interactive::run_short_bound(&bound, p) as u64, 0),
                // Write batches ride the write lane, never the read
                // lanes; the unwind turns a slipped-through one into
                // `internal`.
                ServiceParams::Write(_) => unreachable!("write batches bypass the read lanes"),
            }
        }));
        let exec_us = started.elapsed().as_micros() as u64;
        match outcome {
            Ok((rows, fingerprint)) => {
                // Completion-time deadline check: the work is done (and
                // its cost is visible in exec_us), but the client's
                // budget is spent — report it as an overrun, never as
                // a success.
                let overran = deadline.is_some_and(|d| Instant::now() > d);
                if overran {
                    self.counters.deadline_overrun.fetch_add(1, Ordering::Relaxed);
                    self.log.push(AccessRecord {
                        seq,
                        workload,
                        query,
                        binding_hash,
                        lane,
                        queue_us,
                        exec_us,
                        outcome: ErrorKind::DeadlineOverrun.name(),
                        rows,
                        fingerprint,
                        store_version,
                        snapshot_age_us,
                        profile: None,
                    });
                    responder.send(Response {
                        id: request.id,
                        body: Err(ErrorBody {
                            kind: ErrorKind::DeadlineOverrun,
                            queue_us,
                            detail: format!(
                                "started inside the budget but overran it: {queue_us}us queued \
                                 + {exec_us}us executing"
                            ),
                        }),
                    });
                    return;
                }
                let profile = self.config.profiling.then(|| ctx.metrics().snapshot());
                self.counters.served.fetch_add(1, Ordering::Relaxed);
                self.counters.served_by_lane[job_lane.index()].fetch_add(1, Ordering::Relaxed);
                self.log.push(AccessRecord {
                    seq,
                    workload,
                    query,
                    binding_hash,
                    lane,
                    queue_us,
                    exec_us,
                    outcome: "ok",
                    rows,
                    fingerprint,
                    store_version,
                    snapshot_age_us,
                    profile: profile.clone(),
                });
                responder.send(Response {
                    id: request.id,
                    body: Ok(OkBody { rows, fingerprint, queue_us, exec_us, applied_seq, profile }),
                });
            }
            Err(_) => {
                self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
                self.log.push(AccessRecord {
                    seq,
                    workload,
                    query,
                    binding_hash,
                    lane,
                    queue_us,
                    exec_us,
                    outcome: ErrorKind::Internal.name(),
                    rows: 0,
                    fingerprint: 0,
                    store_version,
                    snapshot_age_us,
                    profile: None,
                });
                responder.send(Response {
                    id: request.id,
                    body: Err(ErrorBody {
                        kind: ErrorKind::Internal,
                        queue_us,
                        detail: format!("{workload} {query} panicked during execution"),
                    }),
                });
            }
        }
    }

    fn worker_context(&self) -> QueryContext {
        let ctx = if self.config.threads_per_worker <= 1 {
            QueryContext::single_threaded()
        } else {
            QueryContext::new(self.config.threads_per_worker)
        };
        ctx.with_partitions(self.config.partitions.max(1)).with_profiling(self.config.profiling)
    }

    fn report(&self) -> ServiceReport {
        let snap = self.store.stats();
        let by = |a: &[AtomicU64; 3]| {
            [
                a[0].load(Ordering::Relaxed),
                a[1].load(Ordering::Relaxed),
                a[2].load(Ordering::Relaxed),
            ]
        };
        ServiceReport {
            served: self.counters.served.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            served_by_lane: by(&self.counters.served_by_lane),
            shed_by_lane: by(&self.counters.shed_by_lane),
            deadline_missed: self.counters.deadline_missed.load(Ordering::Relaxed),
            deadline_overrun: self.counters.deadline_overrun.load(Ordering::Relaxed),
            rejected_shutdown: self.counters.rejected_shutdown.load(Ordering::Relaxed),
            bad_requests: self.counters.bad_requests.load(Ordering::Relaxed),
            internal_errors: self.counters.internal_errors.load(Ordering::Relaxed),
            updates_applied: self.counters.updates_applied.load(Ordering::Relaxed),
            deletes_applied: self.counters.deletes_applied.load(Ordering::Relaxed),
            batches_applied: self.counters.batches_applied.load(Ordering::Relaxed),
            batches_deduped: self.counters.batches_deduped.load(Ordering::Relaxed),
            poisoned_rejects: self.counters.poisoned_rejects.load(Ordering::Relaxed),
            conn_stalled: self.counters.conn_stalled.load(Ordering::Relaxed),
            conn_accepted: self.counters.conn_accepted.load(Ordering::Relaxed),
            conn_peak: self.counters.conn_peak.load(Ordering::Relaxed),
            not_primary_rejects: self.counters.not_primary_rejects.load(Ordering::Relaxed),
            stale_read_rejects: self.counters.stale_read_rejects.load(Ordering::Relaxed),
            fenced_rejects: self.counters.fenced_rejects.load(Ordering::Relaxed),
            log_records: self.log.len() as u64,
            versions_published: snap.version,
            peak_live_snapshots: snap.peak_live_versions,
            reader_retries: snap.reader_retries,
            reader_blocked: snap.reader_blocked,
        }
    }
}

/// The running query service.
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    write_workers: Vec<std::thread::JoinHandle<()>>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl Server {
    /// Starts the service over an exclusively-owned store, sharding it
    /// into `config.partitions` partitions.
    pub fn start(store: Store, config: ServerConfig) -> Server {
        let parts = config.partitions.max(1);
        Server::start_shared(
            Arc::new(StoreHandle::new(PartitionedStore::new(store, parts))),
            config,
        )
    }

    /// Starts the service over a shared snapshot-publication handle —
    /// what other threads use for concurrent update replay and pinned
    /// oracle reads. The handle exposes only publish/snapshot, so no
    /// caller can bypass the writer or observe mid-batch state.
    pub fn start_shared(store: Arc<StoreHandle>, config: ServerConfig) -> Server {
        Server::start_shared_durable(store, config, None)
    }

    /// Starts the service with a write-ahead log: sequenced write
    /// batches submitted through the protocol's `Write` workload are
    /// appended + flushed before apply and ack, and deduplicated against
    /// `durability.last_seq` (the recovered high-water mark).
    pub fn start_durable(store: Store, config: ServerConfig, durability: Durability) -> Server {
        let parts = config.partitions.max(1);
        Server::start_shared_durable(
            Arc::new(StoreHandle::new(PartitionedStore::new(store, parts))),
            config,
            Some(durability),
        )
    }

    /// The general constructor behind [`Server::start`],
    /// [`Server::start_shared`] and [`Server::start_durable`].
    pub fn start_shared_durable(
        store: Arc<StoreHandle>,
        config: ServerConfig,
        durability: Option<Durability>,
    ) -> Server {
        let (durable, last_seq, epoch) = match durability {
            None => (None, 0, 0),
            Some(d) => {
                (Some(Mutex::new(DurableState { wal: d.wal, world: d.world })), d.last_seq, d.epoch)
            }
        };
        let queue = LaneQueues::new(
            [
                config.lane_capacity(Lane::Short),
                config.lane_capacity(Lane::Heavy),
                config.lane_capacity(Lane::Write),
            ],
            [config.lanes.short.shed, config.lanes.heavy.shed, config.lanes.write.shed],
            config.short_weight(),
        );
        let read_only = config.read_only;
        let inner = Arc::new(ServerInner {
            store,
            queue,
            log: AccessLog::new(),
            accepting: AtomicBool::new(true),
            config,
            counters: Counters::default(),
            durable,
            last_applied_seq: AtomicU64::new(last_seq),
            flushed_seq: AtomicU64::new(last_seq),
            flush_mutex: Mutex::new(()),
            flush_cv: Condvar::new(),
            degraded: AtomicBool::new(false),
            read_only: AtomicBool::new(read_only),
            epoch: AtomicU64::new(epoch),
            fenced: AtomicBool::new(false),
            primary_hint: Mutex::new(String::new()),
            repl_target: Mutex::new(String::new()),
        });
        let workers: Vec<_> = (0..inner.config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    let ctx = inner.worker_context();
                    while let Some((_lane, job)) = inner.queue.pop_read() {
                        inner.execute(&ctx, job);
                    }
                })
            })
            .collect();
        // The write lane gets its own drain threads so a WAL fsync in
        // one batch never stalls read progress; with `workers == 0`
        // (inline test mode) writes drain inline at shutdown too.
        let write_worker_count =
            if inner.config.workers == 0 { 0 } else { inner.config.write_workers.max(1) };
        let write_workers = (0..write_worker_count)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    while let Some(job) = inner.queue.pop_write() {
                        inner.execute_write(job);
                    }
                })
            })
            .collect();
        Server { inner, workers, write_workers, acceptor: None, local_addr: None }
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections; returns the bound address.
    ///
    /// The transport is a readiness-driven reactor: a single thread
    /// `epoll_wait`s on the listener plus every connection, so an idle
    /// connection costs one registered fd and a buffer rather than an
    /// OS thread — the property that lets `service_load --sweep` hold
    /// a thousand connections open against a fixed thread count.
    pub fn listen(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.local_addr = Some(local);
        let inner = Arc::clone(&self.inner);
        let poller = crate::reactor::Poller::new()?;
        self.acceptor = Some(std::thread::spawn(move || reactor_loop(&inner, listener, poller)));
        Ok(local)
    }

    /// The bound TCP address, when listening.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// An in-process client handle (deterministic test transport).
    pub fn client(&self) -> InProcClient {
        InProcClient { inner: Arc::clone(&self.inner), next_id: AtomicU64::new(1) }
    }

    /// A write handle for concurrent update replay.
    pub fn writer(&self) -> StoreWriter {
        StoreWriter { inner: Arc::clone(&self.inner) }
    }

    /// The snapshot-publication handle (for oracles pinning versions
    /// and for external writers sharing this server's store).
    pub fn store_handle(&self) -> Arc<StoreHandle> {
        Arc::clone(&self.inner.store)
    }

    /// The latest published store version — a lock-free pin.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.inner.store.snapshot()
    }

    /// Snapshot-publication counters (versions published, live/peak
    /// snapshot gauges, reader retry/blocked counts).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.inner.store.stats()
    }

    /// `fsync(2)` calls issued by the WAL so far (0 without one) — the
    /// group-commit sharing metric for `--wal-bench`.
    pub fn wal_syncs(&self) -> u64 {
        let Some(durable) = &self.inner.durable else { return 0 };
        let state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.wal.syncs()
    }

    /// The access log.
    pub fn access_log(&self) -> &AccessLog {
        &self.inner.log
    }

    /// A handle to the access log that stays valid after
    /// [`Server::shutdown`] consumes the server — the binary uses it to
    /// flush the final log (drained records included) to disk.
    pub fn log_handle(&self) -> LogHandle {
        LogHandle { inner: Arc::clone(&self.inner) }
    }

    /// Point-in-time counter snapshot (the final one comes from
    /// [`Server::shutdown`]).
    pub fn report_now(&self) -> ServiceReport {
        self.inner.report()
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.inner.queue.len()
    }

    /// Highest write-batch sequence number applied (0 when the server
    /// has no durable write path or nothing was submitted).
    pub fn last_applied_seq(&self) -> u64 {
        self.inner.last_applied_seq.load(Ordering::Acquire)
    }

    /// Whether a mid-apply panic has poisoned the store (every request
    /// is refused until restart-and-recovery).
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    /// Whether this node refuses client writes (follower mode).
    pub fn is_read_only(&self) -> bool {
        self.inner.read_only.load(Ordering::Acquire)
    }

    /// Whether this node has been fenced by a higher epoch (client
    /// writes answer `fenced` until re-promotion).
    pub fn is_fenced(&self) -> bool {
        self.inner.is_fenced()
    }

    /// The node's current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// Promotes a read-only follower to a writable primary and returns
    /// the sequence it is writable from (its applied high-water mark).
    /// The fencing epoch is durably bumped *before* the node goes
    /// writable. Idempotent: promoting a primary just reports its
    /// current seq.
    pub fn promote(&self) -> u64 {
        match self.inner.promote_inner(0) {
            Ok((seq, _)) => seq,
            Err(e) => panic!("promotion failed to bump the fencing epoch: {e:?}"),
        }
    }

    /// Highest WAL sequence known flushed (the replication shipping
    /// bound: followers only ever see acked records).
    pub fn flushed_seq(&self) -> u64 {
        self.inner.flushed_seq.load(Ordering::Acquire)
    }

    /// The shared server core, for the replication module's accept
    /// loop and follower applier.
    pub(crate) fn inner(&self) -> &Arc<ServerInner> {
        &self.inner
    }

    /// Graceful drain-then-shutdown: stop accepting, finish every
    /// admitted job, join all threads, return the final report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.inner.accepting.store(false, Ordering::Release);
        self.inner.queue.close();
        // No background workers (test mode): drain both read lanes and
        // the write lane inline so admitted jobs still complete before
        // the report is cut.
        if self.workers.is_empty() {
            let ctx = self.inner.worker_context();
            while let Some((_lane, job)) = self.inner.queue.pop_read() {
                self.inner.execute(&ctx, job);
            }
        }
        if self.write_workers.is_empty() {
            while let Some(job) = self.inner.queue.pop_write() {
                self.inner.execute_write(job);
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for w in self.write_workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Seal the WAL: any fsync-batched tail becomes durable before
        // the process exits.
        if let Some(durable) = &self.inner.durable {
            let mut state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = state.wal.sync();
        }
        self.inner.report()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Belt-and-braces for servers dropped without `shutdown()`:
        // unblock workers so their threads exit instead of leaking.
        self.inner.accepting.store(false, Ordering::Release);
        self.inner.queue.close();
    }
}

/// The readiness-driven transport: one thread owns the listener and
/// every connection, multiplexed through [`crate::reactor::Poller`].
/// Accepts, drains readable sockets into per-connection buffers,
/// decodes frames, and admits them; responses are written by the
/// workers through each connection's shared (mutexed) write half, so
/// they may interleave in completion order — clients match on the
/// correlation id. Writer clones held by in-flight jobs keep a socket
/// open after the reactor drops a connection, which is what lets
/// shutdown drain admitted work to the wire.
fn reactor_loop(
    inner: &Arc<ServerInner>,
    listener: TcpListener,
    mut poller: crate::reactor::Poller,
) {
    use std::collections::HashMap;
    use std::os::fd::AsRawFd;

    struct Conn {
        reader: TcpStream,
        writer: Arc<Mutex<TcpStream>>,
        buf: Vec<u8>,
        last_progress: Instant,
    }

    const LISTENER: u64 = 0;
    // Per-connection read budget per wakeup: bounds how long one chatty
    // peer can monopolize the reactor. Level-triggered registration
    // re-reports an undrained fd on the next wait, so no data is lost.
    const READS_PER_WAKE: usize = 4;

    if poller.add(listener.as_raw_fd(), LISTENER).is_err() {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = LISTENER + 1;
    let mut events = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    while inner.accepting.load(Ordering::Acquire) {
        if poller.wait(Duration::from_millis(25), &mut events).is_err() {
            break;
        }
        if let Some(fault) = snb_fault::check("conn.read.stall") {
            // Simulates a handler wedged in the read path (the hazard
            // the idle deadline exists for).
            fault.trip("conn.read.stall");
        }
        for ev in &events {
            if ev.token == LISTENER {
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let Ok(writer) = stream.try_clone() else { continue };
                            if poller.add(stream.as_raw_fd(), next_token).is_err() {
                                continue;
                            }
                            inner.counters.conn_accepted.fetch_add(1, Ordering::Relaxed);
                            conns.insert(
                                next_token,
                                Conn {
                                    reader: stream,
                                    writer: Arc::new(Mutex::new(writer)),
                                    buf: Vec::new(),
                                    last_progress: Instant::now(),
                                },
                            );
                            inner
                                .counters
                                .conn_peak
                                .fetch_max(conns.len() as u64, Ordering::Relaxed);
                            next_token += 1;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else { continue };
            let mut drop_conn = ev.closed && !ev.readable;
            if ev.readable && snb_fault::partition_active() {
                // Black-holed: drain and discard so the peer's bytes
                // vanish in transit (no decode, no response, no close).
                // `last_progress` advances so the idle sweep does not
                // turn a partition into a connection close.
                while let Ok(n) = conn.reader.read(&mut tmp) {
                    if n == 0 {
                        drop_conn = true;
                        break;
                    }
                }
                conn.buf.clear();
                conn.last_progress = Instant::now();
            } else if ev.readable {
                for _ in 0..READS_PER_WAKE {
                    match conn.reader.read(&mut tmp) {
                        Ok(0) => {
                            drop_conn = true;
                            break;
                        }
                        Ok(n) => {
                            conn.buf.extend_from_slice(&tmp[..n]);
                            conn.last_progress = Instant::now();
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            drop_conn = true;
                            break;
                        }
                    }
                }
                loop {
                    match proto::take_frame(&mut conn.buf) {
                        // Decode happens on a lane worker, not here: the
                        // reactor only peeks the fixed header for routing,
                        // so a parse-heavy peer cannot stall transport
                        // reads for every other connection.
                        Ok(Some(payload)) => {
                            inner.admit_frame(payload, Responder::Tcp(Arc::clone(&conn.writer)));
                        }
                        Ok(None) => break,
                        // Unrecoverable framing violation: drop the
                        // connection.
                        Err(_) => {
                            drop_conn = true;
                            break;
                        }
                    }
                }
            }
            if drop_conn {
                if let Some(conn) = conns.remove(&ev.token) {
                    poller.delete(conn.reader.as_raw_fd());
                }
            }
        }
        // Idle sweep: a Slowloris / half-open peer is closed with a
        // typed outcome instead of pinning its fd forever.
        if let Some(limit) = inner.config.conn_read_timeout {
            let stalled: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.last_progress.elapsed() > limit)
                .map(|(t, _)| *t)
                .collect();
            for token in stalled {
                let Some(conn) = conns.remove(&token) else { continue };
                poller.delete(conn.reader.as_raw_fd());
                inner.counters.conn_stalled.fetch_add(1, Ordering::Relaxed);
                inner.log.push(AccessRecord {
                    seq: inner.log.next_seq(),
                    workload: "",
                    query: 0,
                    binding_hash: 0,
                    lane: "",
                    queue_us: limit.as_micros() as u64,
                    exec_us: 0,
                    outcome: "conn_stalled",
                    rows: 0,
                    fingerprint: 0,
                    store_version: inner.store.version(),
                    snapshot_age_us: 0,
                    profile: None,
                });
            }
        }
    }
}

/// Owner-independent view of the server's access log (outlives
/// [`Server::shutdown`]).
pub struct LogHandle {
    inner: Arc<ServerInner>,
}

impl LogHandle {
    /// The underlying access log.
    pub fn log(&self) -> &AccessLog {
        &self.inner.log
    }

    /// Writes the log as JSON Lines to `path`.
    pub fn flush_to(&self, path: &str) -> std::io::Result<()> {
        self.inner.log.flush_to(path)
    }
}

/// Deterministic in-process transport: submits through the same
/// admission path as TCP, blocks for the response.
pub struct InProcClient {
    inner: Arc<ServerInner>,
    next_id: AtomicU64,
}

impl InProcClient {
    /// Executes one request; `deadline_us = 0` means "server default".
    pub fn call(&self, params: ServiceParams, deadline_us: u64) -> Response {
        self.call_min_seq(params, deadline_us, 0)
    }

    /// Like [`InProcClient::call`] with a bounded-staleness floor: the
    /// request is refused with `stale_read` unless the server has
    /// applied at least write sequence `min_seq`.
    pub fn call_min_seq(&self, params: ServiceParams, deadline_us: u64, min_seq: u64) -> Response {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.inner.admit(Request { id, deadline_us, min_seq, params }, Responder::InProc(tx));
        rx.recv().unwrap_or(Response {
            id,
            body: Err(ErrorBody {
                kind: ErrorKind::ShuttingDown,
                queue_us: 0,
                detail: "server terminated before responding".into(),
            }),
        })
    }
}

/// Write handle: applies update-stream events and delete operations by
/// building and publishing new store versions — each successful call
/// publishes exactly one version with the date index repaired, so
/// readers admitted afterwards see it fresh and readers admitted
/// before keep their pinned version untouched.
pub struct StoreWriter {
    inner: Arc<ServerInner>,
}

impl StoreWriter {
    /// Refuses writes once the store is poisoned, so an unacknowledged
    /// failed batch cannot be compounded.
    fn check_degraded(&self, doing: &str) -> SnbResult<()> {
        if self.inner.degraded.load(Ordering::Acquire) {
            return Err(SnbError::Poisoned { detail: format!("refusing {doing}") });
        }
        Ok(())
    }

    /// Runs one publish attempt with the writer's panic-to-poisoned
    /// conversion: a panic inside the apply (including an injected
    /// `writer.apply.panic` fault) discards the private clone — the
    /// *published* store stays consistent — but the write is lost
    /// unacknowledged, so the server degrades and refuses requests
    /// until restart-and-replay from the WAL re-converges state.
    fn publish_guarded<R>(
        &self,
        doing: &'static str,
        f: impl FnOnce(&mut PartitionedStore) -> SnbResult<R>,
    ) -> SnbResult<R> {
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.inner.store.publish_with(|next| {
                if let Some(fault) = snb_fault::check("writer.apply.panic") {
                    fault.trip("writer.apply.panic");
                }
                let r = f(next)?;
                if !next.date_index_fresh() {
                    next.rebuild_date_index();
                }
                Ok(r)
            })
        }));
        match applied {
            Ok(r) => r,
            Err(_) => {
                self.inner.degraded.store(true, Ordering::Release);
                self.inner.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed);
                Err(SnbError::Poisoned {
                    detail: format!("panic while applying {doing}; restart to recover"),
                })
            }
        }
    }

    /// Applies one insert event (IU 1–8), publishing one store version.
    pub fn apply_update(&self, event: &TimedEvent, world: &StaticWorld) -> SnbResult<()> {
        self.check_degraded("an update on a poisoned store")?;
        self.publish_guarded("an update event", |next| next.apply_event(event, world))?;
        self.inner.counters.updates_applied.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Applies a slice of insert events as **one** published version —
    /// the batched replay path: the copy-on-write cost of cloning the
    /// touched columns is paid once per batch instead of once per
    /// event. All-or-nothing: an error on any event publishes nothing.
    pub fn apply_update_batch(&self, events: &[TimedEvent], world: &StaticWorld) -> SnbResult<u64> {
        self.check_degraded("an update batch on a poisoned store")?;
        let n = self.publish_guarded("an update batch", |next| {
            let mut n = 0u64;
            for ev in events {
                next.apply_event(ev, world)?;
                n += 1;
            }
            Ok(n)
        })?;
        self.inner.counters.updates_applied.fetch_add(n, Ordering::Relaxed);
        Ok(n)
    }

    /// Applies a batch of delete operations (DEL 1–8), publishing one
    /// store version.
    pub fn apply_deletes(&self, ops: &[DeleteOp]) -> SnbResult<DeleteStats> {
        self.check_degraded("a delete batch on a poisoned store")?;
        let stats = self.publish_guarded("a delete batch", |next| next.apply_deletes(ops))?;
        self.inner.counters.deletes_applied.fetch_add(ops.len() as u64, Ordering::Relaxed);
        Ok(stats)
    }

    /// Validates store invariants on the latest published version (the
    /// serializability probe of the concurrent harness).
    pub fn validate_invariants(&self) -> SnbResult<()> {
        self.inner.store.snapshot().validate_invariants()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.inner.config.workers)
            .field("queue_capacity", &self.inner.config.queue_capacity)
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

/// Convenience constructor for errors the binary reports.
pub fn config_error(detail: impl Into<String>) -> SnbError {
    SnbError::Config(detail.into())
}
