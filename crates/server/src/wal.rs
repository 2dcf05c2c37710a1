//! Write-ahead log and snapshot recovery for the update-stream write
//! path.
//!
//! ## Durability contract
//!
//! Every accepted write batch is serialised (via [`crate::events`]),
//! appended to `wal.log`, and flushed *before* it is applied to the
//! in-memory store and acknowledged. An acknowledged batch therefore
//! survives a SIGKILL at any instruction (with `fsync_every = 1`; larger
//! values batch the fsync and weaken the contract to "survives process
//! death but not power loss", which the service benchmark records as the
//! cheap mode).
//!
//! ## Segments
//!
//! With `partitions = N > 1` the live log is split into per-partition
//! **segments** `wal-0.log … wal-{N-1}.log`; a batch is routed to the
//! segment of [`crate::events::route_key`]'s owning shard
//! ([`snb_store::partition_of_raw`]). Sequence numbers stay globally
//! contiguous across segments — the order of record *within* the whole
//! log is the sequence number, not file position — so recovery scans
//! every segment (truncating each torn tail independently), merges the
//! entries by `seq`, and replays them in one monotonic pass: shards
//! recover independently but converge to the identical store. The
//! compaction snapshot stays a single file holding the seq-merged view
//! of all segments. With `partitions = 1` the layout is byte-identical
//! to the original single `wal.log`.
//!
//! ## Group commit
//!
//! `group_commit = true` defers every per-append fsync to an explicit
//! [`SegmentedWal::sync_all`], which flushes only dirty segments. The
//! server layers the ack protocol on top: an append's acknowledgement
//! is released only once a covering flush has run, so many concurrent
//! submitters share one fsync without weakening the "acknowledged ⇒
//! durable" contract (the `--wal-bench` harness measures the delta).
//!
//! ## File format
//!
//! Both `wal.log` and `snapshot.log` start with an 8-byte magic, the
//! scale name (`u16`-length string), the generator seed (`u64`) and the
//! **fencing epoch** (`u64`) — scale and seed name the deterministic
//! bulk image the log is relative to, and the epoch is the replication
//! term the node last served under ([`SegmentedWal::bump_epoch`] is
//! called on promotion, before the node goes writable, so a restarted
//! ex-primary recovers the term it was fenced at). Each record is:
//!
//! ```text
//! [u32 payload_len][u64 fnv64(payload)][payload]
//! payload = [u64 seq][u8 family][count + ops]   (events codec)
//! ```
//!
//! A record whose bytes are incomplete or whose checksum mismatches is a
//! *torn tail*: recovery truncates the file at the record boundary and
//! replays nothing from it — a torn batch was by definition never
//! acknowledged, so dropping it is correct, and the retrying client will
//! re-submit it.
//!
//! ## Snapshots
//!
//! A "snapshot" here is log compaction, not a serialised store image:
//! `snapshot.log` absorbs the live WAL's records (atomic
//! write-temp + fsync + rename), after which `wal.log` is reset to a bare
//! header. This bounds the live WAL — the file an append must seek past
//! and the only region where torn records can appear — while keeping
//! replay byte-exact: recovery rebuilds the bulk store from (scale,
//! seed), replays `snapshot.log`, then the `wal.log` tail, through the
//! *same* `apply_event`/`apply_deletes` path the original writes took.
//!
//! Fault points: `wal.append.short_write` (torn write at append),
//! `wal.append.post_append` (crash window between durability and apply).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use snb_core::{SnbError, SnbResult};
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::GeneratorConfig;
use snb_store::Store;

use crate::events::{decode_write_ops, encode_write_ops};
use crate::proto::{put_str, put_u64, put_u8, Reader, WriteOps};

const WAL_MAGIC: &[u8; 8] = b"SNBWAL1\n";
const SNAP_MAGIC: &[u8; 8] = b"SNBSNAP\n";
const WAL_FILE: &str = "wal.log";
const SNAP_FILE: &str = "snapshot.log";
const SNAP_TMP: &str = "snapshot.tmp";

/// FNV-1a 64-bit over a byte slice — the per-record checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Tuning knobs for the log.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// `fsync` after every N appends. `1` gives the full "acknowledged ⇒
    /// survives SIGKILL and power loss" contract; larger values batch
    /// the flush (still `write(2)`-complete before the ack, so a plain
    /// process kill loses nothing the page cache survives).
    pub fsync_every: u64,
    /// Compact the live WAL into the snapshot once it holds this many
    /// records. `0` disables rotation.
    pub snapshot_every: u64,
    /// Number of per-partition WAL segments (`0`/`1` = the classic
    /// single `wal.log`). Must match the directory's existing layout.
    pub partitions: usize,
    /// Defer per-append fsyncs to explicit [`SegmentedWal::sync_all`]
    /// calls so the server can share one flush across many concurrent
    /// acknowledgements. Off, appends sync per `fsync_every` exactly as
    /// before.
    pub group_commit: bool,
    /// Write a store image (`store.img`, see [`crate::image`]) at every
    /// compaction point and truncate `snapshot.log` behind it, so
    /// recovery cost is bounded by live-data size instead of history
    /// length. Off by default: the classic log-only layout (recovery
    /// replays full history) is unchanged, and any *existing* image in
    /// the directory is still used by [`recover`].
    pub image: bool,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync_every: 1,
            snapshot_every: 4096,
            partitions: 1,
            group_commit: false,
            image: false,
        }
    }
}

/// The live-log file name of segment `p` under `parts` partitions: the
/// classic `wal.log` single-segment layout, or `wal-{p}.log`.
fn segment_file(p: usize, parts: usize) -> String {
    if parts <= 1 {
        WAL_FILE.to_string()
    } else {
        format!("wal-{p}.log")
    }
}

/// One durable record: a sequenced write batch.
#[derive(Clone, Debug)]
pub struct WalEntry {
    /// Contiguous batch sequence number (1-based).
    pub seq: u64,
    /// The batch payload.
    pub ops: WriteOps,
}

/// What recovery found and did — surfaced in the server's startup line
/// and asserted on by the chaos tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed from `snapshot.log`.
    pub snapshot_entries: u64,
    /// Records replayed from the live `wal.log`.
    pub wal_entries: u64,
    /// Bytes cut from the WAL tail (torn or checksum-failed records).
    pub truncated_bytes: u64,
    /// Highest batch sequence number recovered; the server resumes
    /// deduplication from here.
    pub last_seq: u64,
    /// Recovery wall-clock, microseconds (store rebuild + replay) —
    /// the baseline a replication catch-up is measured against.
    pub recovery_us: u64,
    /// Fencing epoch recovered from the log headers (the maximum across
    /// the snapshot and every segment — a crash mid-[`SegmentedWal::
    /// bump_epoch`] may leave mixed headers, and the bumped value must
    /// win to keep the term monotonic).
    pub epoch: u64,
    /// Sequence number of the store image recovery started from (0 when
    /// no image was found and the bulk store was rebuilt from scratch).
    pub image_seq: u64,
    /// Wall-clock microseconds spent loading and decoding the store
    /// image (0 when no image was used).
    pub image_us: u64,
    /// Records actually applied on top of the starting point (image or
    /// bulk rebuild). Without an image this equals [`RecoveryReport::
    /// replayed`]; with one, scanned-but-stale records (`seq <=
    /// image_seq`, e.g. a `snapshot.log` not yet truncated behind the
    /// image) are counted by `snapshot_entries`/`wal_entries` but not
    /// here.
    pub tail_replayed: u64,
}

impl RecoveryReport {
    /// Total records replayed through the real apply path (snapshot
    /// plus live WAL tail).
    pub fn replayed(&self) -> u64 {
        self.snapshot_entries + self.wal_entries
    }
}

/// One append-only live-log segment file. [`SegmentedWal`] composes
/// one or more under a global sequence and owns every policy (fsync,
/// group commit, compaction); a segment only writes, flushes and resets.
struct Segment {
    path: PathBuf,
    file: File,
    appends_since_sync: u64,
    /// Fencing epoch recorded in this segment's header.
    epoch: u64,
    /// Set after a failed (torn) append: the file tail is garbage, so
    /// further appends must be refused until restart-and-recover.
    broken: bool,
}

fn parse_err(context: &str, detail: impl Into<String>) -> SnbError {
    SnbError::Parse { context: context.to_string(), detail: detail.into() }
}

fn write_header(buf: &mut Vec<u8>, magic: &[u8; 8], scale: &str, seed: u64, epoch: u64) {
    buf.extend_from_slice(magic);
    put_str(buf, scale);
    put_u64(buf, seed);
    put_u64(buf, epoch);
}

/// Byte offset of the `u64` epoch field inside a log header — fixed
/// once the scale name is known, so [`SegmentedWal::bump_epoch`] can
/// overwrite it in place without rewriting the log.
fn header_epoch_offset(scale: &str) -> u64 {
    (8 + 2 + scale.len() + 8) as u64
}

/// Reads and validates a log header; returns the offset of the first
/// record and the fencing epoch the header carries. Scale and seed are
/// match requirements (a log for a different world must not replay);
/// the epoch is data — recovery takes the maximum it sees.
fn check_header(
    bytes: &[u8],
    magic: &[u8; 8],
    scale: &str,
    seed: u64,
    path: &Path,
) -> SnbResult<(usize, u64)> {
    let ctx = path.display().to_string();
    if bytes.len() < 8 || &bytes[..8] != magic {
        return Err(parse_err(&ctx, "bad or missing log magic"));
    }
    let mut r = Reader::new(&bytes[8..]);
    let got_scale = r.string().map_err(|e| parse_err(&ctx, e.detail))?;
    let got_seed = r.u64().map_err(|e| parse_err(&ctx, e.detail))?;
    let epoch = r.u64().map_err(|e| parse_err(&ctx, e.detail))?;
    if got_scale != scale || got_seed != seed {
        return Err(parse_err(
            &ctx,
            format!(
                "log is for scale {got_scale:?} seed {got_seed}, \
                 server configured for scale {scale:?} seed {seed}"
            ),
        ));
    }
    Ok((8 + r.pos(), epoch))
}

/// Scans records from `bytes[offset..]`. Returns the parsed entries plus
/// the offset one past the last *valid* record — anything beyond it is a
/// torn tail (incomplete length/checksum/payload, or a checksum
/// mismatch) that the caller should truncate away.
fn scan_records(bytes: &[u8], offset: usize, ctx: &str) -> SnbResult<(Vec<WalEntry>, usize)> {
    let (located, valid_end) = scan_records_located(bytes, offset, ctx)?;
    Ok((located.into_iter().map(|(_, e)| e).collect(), valid_end))
}

/// [`scan_records`], but each entry carries the byte offset its record
/// starts at — recovery needs it to truncate a segment mid-file when a
/// global sequence gap invalidates a suffix.
fn scan_records_located(
    bytes: &[u8],
    mut offset: usize,
    ctx: &str,
) -> SnbResult<(Vec<(usize, WalEntry)>, usize)> {
    let mut entries = Vec::new();
    while offset < bytes.len() {
        if bytes.len() - offset < 12 {
            break; // torn length/checksum prefix
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let sum = u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().expect("8 bytes"));
        let start = offset + 12;
        let end = start + len as usize;
        if end > bytes.len() {
            break; // torn payload
        }
        let payload = &bytes[start..end];
        if fnv64(payload) != sum {
            break; // bit rot or a torn overwrite; nothing past it is trustworthy
        }
        let mut r = Reader::new(payload);
        let entry = (|| -> Result<WalEntry, crate::proto::DecodeError> {
            let seq = r.u64()?;
            let family = r.u8()?;
            let ops = decode_write_ops(&mut r, family)?;
            r.finish()?;
            Ok(WalEntry { seq, ops })
        })()
        .map_err(|e| {
            parse_err(ctx, format!("checksummed record failed to decode: {}", e.detail))
        })?;
        entries.push((offset, entry));
        offset = end;
    }
    Ok((entries, offset))
}

fn encode_record(seq: u64, ops: &WriteOps) -> Vec<u8> {
    let mut payload = Vec::with_capacity(256);
    put_u64(&mut payload, seq);
    put_u8(&mut payload, ops.query_tag());
    encode_write_ops(&mut payload, ops);
    let mut record = Vec::with_capacity(payload.len() + 12);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&fnv64(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

impl Segment {
    /// Opens (or creates) one named segment file (see [`segment_file`])
    /// for appending. A fresh file is created at `epoch`; an existing
    /// file must match `(scale, seed)` and keeps the epoch its header
    /// carries (the param is a creation default, not a match
    /// requirement).
    fn open(dir: &Path, file_name: &str, scale: &str, seed: u64, epoch: u64) -> SnbResult<Segment> {
        let path = dir.join(file_name);
        let fresh = !path.exists();
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut epoch = epoch;
        if fresh {
            let mut header = Vec::new();
            write_header(&mut header, WAL_MAGIC, scale, seed, epoch);
            file.write_all(&header)?;
            file.sync_data()?;
        } else {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let (_, stored) = check_header(&bytes, WAL_MAGIC, scale, seed, &path)?;
            epoch = stored;
            file.seek(SeekFrom::End(0))?;
        }
        Ok(Segment { path, file, appends_since_sync: 0, epoch, broken: false })
    }

    /// Writes one encoded record to the segment file, honouring the
    /// short-write fault point. No fsync — the caller owns the policy.
    fn write_record(&mut self, record: &[u8]) -> SnbResult<()> {
        if self.broken {
            return Err(SnbError::Io(std::io::Error::other(
                "WAL has a torn tail from a failed append; restart to recover",
            )));
        }
        if let Some(fault) = snb_fault::check("wal.append.short_write") {
            let n = fault.short_write.unwrap_or(0).min(record.len());
            self.file.write_all(&record[..n])?;
            let _ = self.file.sync_data();
            self.broken = true;
            fault.trip("wal.append.short_write");
            return Err(SnbError::Io(std::io::Error::other(
                "injected short write tore the WAL tail",
            )));
        }
        if let Err(e) = self.file.write_all(record) {
            // The record may be partially on disk: a torn tail. Refuse
            // further appends until restart-and-recover truncates it.
            self.broken = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Flushes the segment file, marking the segment broken on failure.
    fn sync_data(&mut self) -> SnbResult<()> {
        if let Err(e) = self.file.sync_data() {
            self.broken = true;
            return Err(e.into());
        }
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Truncates the segment back to a bare header (post-compaction).
    fn reset_to_header(&mut self, scale: &str, seed: u64) -> SnbResult<()> {
        // set_len + seek keeps the same append handle valid.
        let mut header = Vec::new();
        write_header(&mut header, WAL_MAGIC, scale, seed, self.epoch);
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.sync_data()?;
        self.appends_since_sync = 0;
        Ok(())
    }
}

/// Refuses to open a directory whose existing segment files disagree
/// with `parts` — reusing a log under a different partition count would
/// silently orphan (and later clobber) the other layout's segments.
fn guard_layout(dir: &Path, parts: usize) -> SnbResult<()> {
    let expected: Vec<String> = (0..parts).map(|p| segment_file(p, parts)).collect();
    let mut present = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let looks_like_segment =
            name == WAL_FILE || (name.starts_with("wal-") && name.ends_with(".log"));
        if !looks_like_segment {
            continue;
        }
        if !expected.contains(&name) {
            return Err(parse_err(
                &dir.display().to_string(),
                format!(
                    "segment file {name:?} does not belong to the {parts}-partition \
                     layout; the directory was written under a different partition count"
                ),
            ));
        }
        present += 1;
    }
    // Opening creates every segment at once, so a proper subset of the
    // expected files means a smaller layout wrote them (e.g. wal-0/wal-1
    // reopened with 4 partitions would silently mis-route records).
    if present > 0 && present < parts {
        return Err(parse_err(
            &dir.display().to_string(),
            format!(
                "directory holds {present} of {parts} expected segment files; \
                 it was written under a different partition count"
            ),
        ));
    }
    Ok(())
}

/// The write-ahead log: N per-partition segments composed under one
/// global sequence — the server's only append handle. Each batch is
/// routed to its owning shard's segment ([`crate::events::route_key`]
/// hashed with [`snb_store::partition_of_raw`]); the fsync policy, the
/// group-commit deferral, and snapshot compaction are global across
/// segments. With `partitions <= 1` it writes the single `wal.log`.
pub struct SegmentedWal {
    dir: PathBuf,
    scale: String,
    seed: u64,
    options: WalOptions,
    segments: Vec<Segment>,
    last_seq: u64,
    live_entries: u64,
    appends_since_sync: u64,
    unsynced: u64,
    syncs: u64,
    /// Fencing epoch the log is at (max across segment headers and the
    /// open-time floor; see [`SegmentedWal::bump_epoch`]).
    epoch: u64,
}

impl SegmentedWal {
    /// Opens (or creates) every segment under `dir` for appending.
    /// `seg_live` carries recovery's per-segment live-record counts (a
    /// missing entry means a fresh segment). `epoch` is a floor: fresh
    /// segments are created at it, and the log's effective epoch is the
    /// max of the floor and every stored header (a crash mid-bump may
    /// leave mixed headers — the bumped value wins). Refuses a directory
    /// laid out for a different partition count.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        dir: &Path,
        scale: &str,
        seed: u64,
        options: WalOptions,
        last_seq: u64,
        seg_live: &[u64],
        epoch: u64,
    ) -> SnbResult<SegmentedWal> {
        let parts = options.partitions.max(1);
        std::fs::create_dir_all(dir)?;
        guard_layout(dir, parts)?;
        let mut segments = Vec::with_capacity(parts);
        let mut live_entries = 0u64;
        let mut max_epoch = epoch;
        for p in 0..parts {
            live_entries += seg_live.get(p).copied().unwrap_or(0);
            let seg = Segment::open(dir, &segment_file(p, parts), scale, seed, epoch)?;
            max_epoch = max_epoch.max(seg.epoch);
            segments.push(seg);
        }
        Ok(SegmentedWal {
            dir: dir.to_path_buf(),
            scale: scale.to_string(),
            seed,
            options,
            segments,
            last_seq,
            live_entries,
            appends_since_sync: 0,
            unsynced: 0,
            syncs: 0,
            epoch: max_epoch,
        })
    }

    /// Highest sequence number durably appended across all segments.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The fencing epoch the log is at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Durably raises the fencing epoch to `new_epoch`, overwriting the
    /// 8-byte epoch field in every segment header (and the snapshot's,
    /// if one exists) in place and fsyncing each file. Called on
    /// promotion *before* the node goes writable, so a crash at any
    /// point either leaves the old term (promotion never happened) or a
    /// term at least as high as announced (recovery takes the max across
    /// headers, so mixed headers resolve to the bumped value). A no-op
    /// if the log is already at or past `new_epoch`.
    pub fn bump_epoch(&mut self, new_epoch: u64) -> SnbResult<()> {
        if new_epoch <= self.epoch {
            return Ok(());
        }
        let offset = header_epoch_offset(&self.scale);
        let mut paths: Vec<PathBuf> = self.segments.iter().map(|s| s.path.clone()).collect();
        let snap_path = self.dir.join(SNAP_FILE);
        if snap_path.exists() {
            paths.push(snap_path);
        }
        for path in paths {
            // The append handles ignore seeks, so patch the header
            // through a separate write-mode handle.
            let mut f = OpenOptions::new().write(true).open(&path)?;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(&new_epoch.to_le_bytes())?;
            f.sync_data()?;
        }
        for seg in &mut self.segments {
            seg.epoch = new_epoch;
        }
        self.epoch = new_epoch;
        Ok(())
    }

    /// Number of per-partition segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The options the log was opened with.
    pub fn options(&self) -> WalOptions {
        self.options
    }

    /// The directory the log (and any store image) lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The scale name the log's headers are bound to.
    pub fn scale(&self) -> &str {
        &self.scale
    }

    /// The generator seed the log's headers are bound to.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Truncates `snapshot.log` back to a bare header. Called after a
    /// store image lands: the image supersedes the compacted history, so
    /// keeping it would only make the next recovery scan-and-skip it. A
    /// crash *before* this truncation is benign — recovery dedupes
    /// every snapshot record at or below the image's sequence number.
    pub fn reset_snapshot_log(&mut self) -> SnbResult<()> {
        let snap_path = self.dir.join(SNAP_FILE);
        if !snap_path.exists() {
            return Ok(());
        }
        let mut header = Vec::new();
        write_header(&mut header, SNAP_MAGIC, &self.scale, self.seed, self.epoch);
        let mut f = OpenOptions::new().write(true).open(&snap_path)?;
        f.set_len(0)?;
        f.seek(SeekFrom::Start(0))?;
        f.write_all(&header)?;
        f.sync_data()?;
        Ok(())
    }

    /// Total `fsync(2)` calls issued for appended records (the
    /// group-commit metric: appends ÷ syncs is the sharing factor).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Appends not yet covered by a flush (group-commit mode).
    pub fn unsynced(&self) -> u64 {
        self.unsynced
    }

    /// Whether any segment has a torn tail and the log refuses appends.
    pub fn broken(&self) -> bool {
        self.segments.iter().any(|s| s.broken)
    }

    /// Appends one batch to its owning shard's segment. In the default
    /// mode the fsync policy (`fsync_every`) runs inline; with
    /// `group_commit` the flush is deferred to [`SegmentedWal::sync_all`]
    /// and the caller must not acknowledge until a covering flush has
    /// run. Returns only after the bytes are at least `write(2)`-complete;
    /// an error means nothing may be acknowledged and the log must be
    /// considered torn until restart.
    pub fn append(&mut self, seq: u64, ops: &WriteOps) -> SnbResult<()> {
        if self.broken() {
            return Err(SnbError::Io(std::io::Error::other(
                "WAL has a torn tail from a failed append; restart to recover",
            )));
        }
        let parts = self.segments.len();
        let p = snb_store::partition_of_raw(crate::events::route_key(ops), parts);
        let record = encode_record(seq, ops);
        self.segments[p].write_record(&record)?;
        self.segments[p].appends_since_sync += 1;
        self.appends_since_sync += 1;
        self.unsynced += 1;
        if !self.options.group_commit && self.appends_since_sync >= self.options.fsync_every {
            self.sync_all()?;
        }
        if let Some(fault) = snb_fault::check("wal.append.post_append") {
            // The batch is durable but not yet applied or acknowledged —
            // the recovery-vs-retry dedupe window the chaos test aims
            // at. The log is marked broken so a still-running process
            // cannot append the same sequence number a second time (the
            // record IS on disk; a duplicate would replay twice).
            if fault.trip("wal.append.post_append") {
                self.segments[p].broken = true;
                return Err(SnbError::Io(std::io::Error::other(
                    "injected post-append failure (batch is durable, ack lost)",
                )));
            }
        }
        self.live_entries += 1;
        self.last_seq = seq;
        Ok(())
    }

    /// Flushes every *dirty* segment (one fsync per dirty file); clean
    /// segments cost nothing. After it returns, every append so far is
    /// durable and may be acknowledged.
    pub fn sync_all(&mut self) -> SnbResult<()> {
        for p in 0..self.segments.len() {
            if self.segments[p].appends_since_sync > 0 {
                self.segments[p].sync_data()?;
                self.syncs += 1;
            }
        }
        self.appends_since_sync = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Forces every segment to disk unconditionally (shutdown seal).
    pub fn sync(&mut self) -> SnbResult<()> {
        for seg in &mut self.segments {
            seg.sync_data()?;
        }
        self.appends_since_sync = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Resets the whole log behind a freshly installed store image at
    /// `image_seq` (follower bootstrap): every segment and the snapshot
    /// drop to a bare header — each record they held is at or below the
    /// image's sequence and superseded by it — the epoch is raised to
    /// the image's, and appends resume from `image_seq`. Crash-safe in
    /// either order with the image landing: image + stale records
    /// recovers by dedupe, image + bare log recovers directly.
    pub fn reset_for_image(&mut self, image_seq: u64, epoch: u64) -> SnbResult<()> {
        self.bump_epoch(epoch)?;
        for seg in &mut self.segments {
            seg.reset_to_header(&self.scale, self.seed)?;
        }
        self.reset_snapshot_log()?;
        self.last_seq = image_seq;
        self.live_entries = 0;
        self.appends_since_sync = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Compacts all live segments into the single `snapshot.log` when
    /// they jointly hold `snapshot_every` records. Returns whether a
    /// rotation happened. The combined snapshot holds the **seq-merged**
    /// view of every segment — record order in the snapshot is the
    /// global sequence order, not file position — so replaying it is
    /// identical to replaying the segments themselves.
    ///
    /// The rotation is crash-safe: the combined snapshot is written to a
    /// temp file, fsynced, and renamed over `snapshot.log` before the
    /// live segments are reset — a kill anywhere leaves either the old
    /// (snapshot, wal) pair or the new one, never a mix that loses
    /// records.
    pub fn maybe_snapshot(&mut self) -> SnbResult<bool> {
        if self.options.snapshot_every == 0 || self.live_entries < self.options.snapshot_every {
            return Ok(false);
        }
        self.sync()?;
        let snap_path = self.dir.join(SNAP_FILE);
        let tmp_path = self.dir.join(SNAP_TMP);

        let mut combined = Vec::new();
        write_header(&mut combined, SNAP_MAGIC, &self.scale, self.seed, self.epoch);
        if snap_path.exists() {
            let bytes = std::fs::read(&snap_path)?;
            let (off, _) = check_header(&bytes, SNAP_MAGIC, &self.scale, self.seed, &snap_path)?;
            combined.extend_from_slice(&bytes[off..]);
        }
        let mut entries = Vec::new();
        for seg in &self.segments {
            let path = &seg.path;
            let bytes = std::fs::read(path)?;
            let (off, _) = check_header(&bytes, WAL_MAGIC, &self.scale, self.seed, path)?;
            let ctx = path.display().to_string();
            let (seg_entries, valid_end) = scan_records(&bytes, off, &ctx)?;
            if valid_end != bytes.len() {
                return Err(parse_err(&ctx, "live segment has a torn tail during compaction"));
            }
            entries.extend(seg_entries);
        }
        entries.sort_by_key(|e| e.seq);
        for entry in &entries {
            combined.extend_from_slice(&encode_record(entry.seq, &entry.ops));
        }

        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&combined)?;
        tmp.sync_data()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &snap_path)?;

        for seg in &mut self.segments {
            seg.reset_to_header(&self.scale, self.seed)?;
        }
        self.live_entries = 0;
        self.appends_since_sync = 0;
        self.unsynced = 0;
        Ok(true)
    }
}

/// Everything recovery hands back: a consistent store, the static world
/// needed to apply further updates, an open append handle positioned
/// after the recovered tail, and the numbers.
pub struct Recovered {
    /// The store with snapshot + WAL tail replayed, date index repaired
    /// and invariants validated.
    pub store: Store,
    /// Seeded dictionaries for applying further update events.
    pub world: StaticWorld,
    /// Append handle continuing the recovered log (all segments open).
    pub wal: SegmentedWal,
    /// What was replayed/truncated.
    pub report: RecoveryReport,
}

impl Recovered {
    /// Splits into the store and the [`crate::server::Durability`]
    /// bundle [`crate::Server::start_durable`] wants, plus the report.
    pub fn into_durability(self) -> (Store, crate::server::Durability, RecoveryReport) {
        let durability = crate::server::Durability {
            epoch: self.wal.epoch(),
            wal: self.wal,
            world: self.world,
            last_seq: self.report.last_seq,
        };
        (self.store, durability, self.report)
    }
}

/// Recovers the durable state under `dir`: rebuilds the deterministic
/// bulk store for `config`, replays `snapshot.log` then the live WAL
/// segments' entries **merged by sequence number** (verifying
/// per-record checksums, truncating each segment's torn tail, and
/// cutting any suffix past a global sequence gap — an acknowledged
/// batch's covering flush syncs *all* dirty segments, so entries past a
/// gap were never acknowledged and dropping them is correct). Repairs
/// the date index and validates store invariants. Works on an empty or
/// absent directory (fresh start, zero entries).
pub fn recover(
    dir: &Path,
    config: &GeneratorConfig,
    scale: &str,
    options: WalOptions,
) -> SnbResult<Recovered> {
    let recovery_started = std::time::Instant::now();
    std::fs::create_dir_all(dir)?;
    guard_layout(dir, options.partitions.max(1))?;
    let world = StaticWorld::build(config.seed);
    let mut report = RecoveryReport::default();

    // Image-first: a valid `store.img` replaces both the deterministic
    // bulk rebuild *and* the history replay up to its sequence number —
    // everything at or before `image_seq` dedupes away below, so
    // recovery cost is image size + WAL tail, flat in history length. A
    // present-but-corrupt image is a hard refusal (never a silent
    // fallback); an absent one takes the classic full-replay path.
    let image_started = std::time::Instant::now();
    let image = crate::image::load_image(dir, scale, config.seed)?;
    let image_us = image_started.elapsed().as_micros() as u64;
    let mut store = match image {
        Some((store, header)) => {
            let parts = options.partitions.max(1);
            if header.partitions != parts {
                return Err(SnbError::Config(format!(
                    "store image was written for {} partition(s), directory opened with {parts}",
                    header.partitions
                )));
            }
            report.image_seq = header.seq;
            report.last_seq = header.seq;
            report.epoch = header.epoch;
            report.image_us = image_us;
            store
        }
        None => snb_store::bulk_store_and_stream(config).0,
    };

    let apply = |store: &mut Store,
                 entry: &WalEntry,
                 last_seq: &mut u64,
                 applied: &mut u64|
     -> SnbResult<()> {
        // Replay is monotonic by sequence number: a duplicate record
        // (an appended-but-unacked batch whose retry landed in a later
        // log segment) is applied once, never twice. Records already
        // covered by the store image dedupe away the same way.
        if entry.seq <= *last_seq {
            return Ok(());
        }
        match &entry.ops {
            WriteOps::Updates(events) => {
                for ev in events {
                    store.apply_event(ev, &world)?;
                }
            }
            WriteOps::Deletes(dels) => {
                store.apply_deletes(dels)?;
            }
        }
        *last_seq = entry.seq;
        *applied += 1;
        Ok(())
    };

    let snap_path = dir.join(SNAP_FILE);
    if snap_path.exists() {
        let bytes = std::fs::read(&snap_path)?;
        let (off, epoch) = check_header(&bytes, SNAP_MAGIC, scale, config.seed, &snap_path)?;
        report.epoch = report.epoch.max(epoch);
        let ctx = snap_path.display().to_string();
        let (entries, valid_end) = scan_records(&bytes, off, &ctx)?;
        if valid_end != bytes.len() {
            // Snapshots are written atomically, so a torn one means the
            // rename itself was interrupted by something worse than a
            // crash; refuse to guess.
            return Err(parse_err(&ctx, "snapshot has a torn record (atomic write violated)"));
        }
        for entry in &entries {
            apply(&mut store, entry, &mut report.last_seq, &mut report.tail_replayed)?;
        }
        report.snapshot_entries = entries.len() as u64;
    }

    // Scan every segment: truncate torn tails in place, remember each
    // surviving entry's (segment, start offset) for the gap cut below.
    let parts = options.partitions.max(1);
    let mut located: Vec<(usize, usize, WalEntry)> = Vec::new();
    for p in 0..parts {
        let path = dir.join(segment_file(p, parts));
        if !path.exists() {
            continue;
        }
        let bytes = std::fs::read(&path)?;
        let (off, epoch) = check_header(&bytes, WAL_MAGIC, scale, config.seed, &path)?;
        report.epoch = report.epoch.max(epoch);
        let ctx = path.display().to_string();
        let (entries, valid_end) = scan_records_located(&bytes, off, &ctx)?;
        if valid_end != bytes.len() {
            report.truncated_bytes += (bytes.len() - valid_end) as u64;
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_end as u64)?;
            f.sync_data()?;
        }
        located.extend(entries.into_iter().map(|(start, e)| (p, start, e)));
    }
    // Global order is the sequence number, not file position. The sort
    // is stable, so a duplicate seq (append-then-retry) keeps file order
    // within its segment and the monotonic `apply` drops the retry.
    located.sort_by_key(|(_, _, e)| e.seq);

    // A torn tail in one segment may orphan later, never-acknowledged
    // sequence numbers in the others. Replay stops at the first gap; the
    // orphaned suffix is cut from every segment so a retried batch can't
    // coexist with its orphaned first appearance.
    let mut keep = located.len();
    let mut replay_last = report.last_seq;
    for (i, (_, _, entry)) in located.iter().enumerate() {
        if entry.seq <= replay_last {
            continue; // duplicate: dedupe, not a gap
        }
        if entry.seq != replay_last + 1 {
            keep = i;
            break;
        }
        replay_last = entry.seq;
    }
    if keep < located.len() {
        let mut cut_at: Vec<Option<u64>> = vec![None; parts];
        for (p, start, _) in &located[keep..] {
            let at = cut_at[*p].get_or_insert(*start as u64);
            *at = (*at).min(*start as u64);
        }
        for (p, at) in cut_at.iter().enumerate() {
            if let Some(at) = at {
                let path = dir.join(segment_file(p, parts));
                let len = std::fs::metadata(&path)?.len();
                report.truncated_bytes += len - at;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(*at)?;
                f.sync_data()?;
            }
        }
        located.truncate(keep);
    }

    let mut seg_live = vec![0u64; parts];
    for (p, _, entry) in &located {
        apply(&mut store, entry, &mut report.last_seq, &mut report.tail_replayed)?;
        seg_live[*p] += 1;
    }
    report.wal_entries = located.len() as u64;

    if !store.date_index_fresh() {
        store.rebuild_date_index();
    }
    store.validate_invariants()?;

    let wal = SegmentedWal::open(
        dir,
        scale,
        config.seed,
        options,
        report.last_seq,
        &seg_live,
        report.epoch,
    )?;
    report.epoch = wal.epoch();
    report.recovery_us = recovery_started.elapsed().as_micros() as u64;
    Ok(Recovered { store, world, wal, report })
}

/// One record the shipping cursor surfaced: its global sequence, the
/// partition it routes to, and the batch payload.
pub struct ShippedRecord {
    /// Global write sequence number.
    pub seq: u64,
    /// Owning WAL partition ([`crate::events::route_key`] hashed with
    /// [`snb_store::partition_of_raw`] — the same routing the append
    /// used, so it names the segment the record lives in).
    pub partition: usize,
    /// The batch payload.
    pub ops: WriteOps,
}

/// Byte cursor into one log file (the snapshot or a segment).
#[derive(Clone, Copy, Debug, Default)]
struct FileCursor {
    /// Offset one past the last valid record already scanned (0 = the
    /// file has not been scanned yet, or was reset).
    offset: u64,
    /// File length at the last poll — a shrink means compaction rewrote
    /// or reset the file and the cursor must rescan from 0.
    last_len: u64,
    /// Consecutive polls that saw the file grow past `offset` without
    /// yielding a single new valid record — a persistent misalignment
    /// (reset-then-regrow to a larger size between polls) that a full
    /// rescan repairs.
    stuck: u32,
}

/// The log-shipping cursor: reads acked records out of a WAL directory
/// in global sequence order, for streaming to followers.
///
/// Each [`WalTailer::poll`] checks `snapshot.log` plus every live
/// segment, merges new entries by sequence, and returns the contiguous
/// run `(next_seq, upto]`. The cursor keeps a **per-file byte offset**
/// so an idle poll is O(`stat(2)` per file) and an active poll reads
/// only bytes appended since the last one — not the whole history.
/// Compaction safety comes from two facts: the snapshot rewrite only
/// *appends* records past its previous contents (the seq-merged view
/// never reorders what was already there), and a segment reset shrinks
/// the file, which the cursor detects via the length and answers with a
/// rescan from 0. Records already shipped re-read during a rescan are
/// dropped by the seq filter, mirroring replay's dedupe. The caller
/// bounds `upto` by the server's flushed (acked) high-water mark so
/// only durable, acknowledged records ever ship; records past a gap are
/// buffered until the gap fills. Torn tails are skipped (never
/// truncated — recovery owns repair).
pub struct WalTailer {
    dir: PathBuf,
    scale: String,
    seed: u64,
    parts: usize,
    next_seq: u64,
    /// Cursor 0 is `snapshot.log`; cursor `1 + p` is segment `p`.
    cursors: Vec<FileCursor>,
    /// Scanned-but-not-yet-shipped records (beyond a gap, or past a
    /// bounded `upto`), keyed by seq; first copy wins.
    pending: std::collections::BTreeMap<u64, WriteOps>,
    /// Total bytes read off disk across all polls — the O(new bytes)
    /// pin the cursor test counts.
    bytes_scanned: u64,
}

impl WalTailer {
    /// A cursor over the WAL directory `dir`, positioned to ship
    /// records with `seq > from_seq`. The `(scale, seed, partitions)`
    /// triple must match the directory's layout (headers are verified
    /// whenever a file is scanned from its start).
    pub fn new(dir: &Path, scale: &str, seed: u64, partitions: usize, from_seq: u64) -> WalTailer {
        let parts = partitions.max(1);
        WalTailer {
            dir: dir.to_path_buf(),
            scale: scale.to_string(),
            seed,
            parts,
            next_seq: from_seq + 1,
            cursors: vec![FileCursor::default(); 1 + parts],
            pending: std::collections::BTreeMap::new(),
            bytes_scanned: 0,
        }
    }

    /// The next sequence number the cursor will ship.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total bytes read off disk across all polls (the idle-cost pin:
    /// polls with no new appends add zero).
    pub fn bytes_scanned(&self) -> u64 {
        self.bytes_scanned
    }

    /// Scans one file from its cursor, buffering new entries into
    /// `pending`.
    fn scan_file(&mut self, cursor_ix: usize, path: &Path, magic: &[u8; 8]) -> SnbResult<()> {
        if !path.exists() {
            return Ok(());
        }
        let len = std::fs::metadata(path)?.len();
        let cur = &mut self.cursors[cursor_ix];
        if len < cur.last_len || len < cur.offset {
            // Compaction reset/rewrote the file: rescan from the top.
            cur.offset = 0;
            cur.stuck = 0;
        }
        cur.last_len = len;
        if len <= cur.offset {
            return Ok(()); // idle: nothing appended since last poll
        }
        let start = cur.offset;
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(start))?;
        let mut bytes = Vec::with_capacity((len - start) as usize);
        file.read_to_end(&mut bytes)?;
        self.bytes_scanned += bytes.len() as u64;

        let ctx = path.display().to_string();
        let scan_from = if start == 0 {
            let (off, _) = check_header(&bytes, magic, &self.scale, self.seed, path)?;
            off
        } else {
            0
        };
        let (entries, valid_end) = scan_records(&bytes, scan_from, &ctx)?;
        let cur = &mut self.cursors[cursor_ix];
        if entries.is_empty() && valid_end == scan_from && start > 0 {
            // The file grew but nothing at our offset parses — the file
            // was reset and regrew past our cursor between polls, so the
            // offset no longer sits on a record boundary. A boundary
            // mid-flush looks the same for a poll or two (torn tail), so
            // only a *persistent* stall triggers the full rescan.
            cur.stuck += 1;
            if cur.stuck >= 4 {
                cur.offset = 0;
                cur.stuck = 0;
            }
            return Ok(());
        }
        cur.stuck = 0;
        cur.offset = start + valid_end as u64;
        for entry in entries {
            if entry.seq >= self.next_seq {
                self.pending.entry(entry.seq).or_insert(entry.ops);
            }
        }
        Ok(())
    }

    /// Returns every not-yet-shipped record with `seq <= upto`, in
    /// sequence order, and advances the cursor past them. Stops at a
    /// sequence gap (ships only the contiguous prefix) — with `upto`
    /// bounded by the acked high-water mark a gap cannot happen, but a
    /// cursor must never invent order it didn't observe.
    pub fn poll(&mut self, upto: u64) -> SnbResult<Vec<ShippedRecord>> {
        let snap_path = self.dir.join(SNAP_FILE);
        self.scan_file(0, &snap_path, SNAP_MAGIC)?;
        for p in 0..self.parts {
            let path = self.dir.join(segment_file(p, self.parts));
            self.scan_file(1 + p, &path, WAL_MAGIC)?;
        }
        // Anything below the ship frontier is already delivered (a
        // rescan re-read it); drop it so `pending` stays bounded by the
        // unshipped window.
        while let Some((&seq, _)) = self.pending.first_key_value() {
            if seq >= self.next_seq {
                break;
            }
            self.pending.remove(&seq);
        }

        let mut out = Vec::new();
        while self.next_seq <= upto {
            let Some(ops) = self.pending.remove(&self.next_seq) else {
                break; // gap (or not yet written): ship the prefix only
            };
            let partition = snb_store::partition_of_raw(crate::events::route_key(&ops), self.parts);
            out.push(ShippedRecord { seq: self.next_seq, partition, ops });
            self.next_seq += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::stream::UpdateEvent;
    use snb_store::DeleteOp;

    const SCALE: &str = "0.001";

    fn config() -> GeneratorConfig {
        GeneratorConfig::for_scale_name(SCALE).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("snb_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Sequenced batches carved from the real update stream, with a
    /// delete batch interleaved so both families hit the log.
    fn batches(n: usize) -> Vec<WriteOps> {
        let (_, stream) = snb_store::bulk_store_and_stream(&config());
        let mut out = Vec::new();
        let mut likes = Vec::new();
        for chunk in stream.chunks(20).take(n) {
            for ev in chunk {
                if let UpdateEvent::AddLikePost(l) = &ev.event {
                    likes.push(DeleteOp::Like(l.person.0, l.message.0));
                }
            }
            out.push(WriteOps::Updates(chunk.to_vec()));
            if !likes.is_empty() {
                out.push(WriteOps::Deletes(std::mem::take(&mut likes)));
            }
        }
        out
    }

    fn store_fingerprint(store: &Store) -> String {
        let stats = store.stats();
        format!("{}/{}", stats.nodes, stats.edges)
    }

    #[test]
    fn append_recover_roundtrip_matches_direct_apply() {
        let dir = tmp_dir("roundtrip");
        let cfg = config();
        let world = StaticWorld::build(cfg.seed);
        let (mut oracle, _) = snb_store::bulk_store_and_stream(&cfg);

        let mut wal =
            SegmentedWal::open(&dir, SCALE, cfg.seed, WalOptions::default(), 0, &[], 0).unwrap();
        for (i, ops) in batches(4).iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
            match ops {
                WriteOps::Updates(events) => {
                    for ev in events {
                        oracle.apply_event(ev, &world).unwrap();
                    }
                }
                WriteOps::Deletes(dels) => {
                    oracle.apply_deletes(dels).unwrap();
                }
            }
        }
        let appended = wal.last_seq();
        drop(wal); // simulated crash: no graceful shutdown

        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec.report.last_seq, appended);
        assert_eq!(rec.report.truncated_bytes, 0);
        if !oracle.date_index_fresh() {
            oracle.rebuild_date_index();
        }
        assert_eq!(store_fingerprint(&rec.store), store_fingerprint(&oracle));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let dir = tmp_dir("torn");
        let cfg = config();
        let all = batches(4);
        let mut wal =
            SegmentedWal::open(&dir, SCALE, cfg.seed, WalOptions::default(), 0, &[], 0).unwrap();
        for (i, ops) in all.iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
        }
        drop(wal);

        // Tear the last record: chop off its final 5 bytes.
        let path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 5).unwrap();

        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec.report.wal_entries, all.len() as u64 - 1);
        assert_eq!(rec.report.last_seq, all.len() as u64 - 1);
        assert!(rec.report.truncated_bytes > 0);

        // The truncation is itself durable: a second recovery sees a
        // clean log and the same state.
        let rec2 = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec2.report.truncated_bytes, 0);
        assert_eq!(rec2.report.last_seq, rec.report.last_seq);
        assert_eq!(store_fingerprint(&rec2.store), store_fingerprint(&rec.store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_the_bad_record() {
        let dir = tmp_dir("cksum");
        let cfg = config();
        let all = batches(4);
        let mut wal =
            SegmentedWal::open(&dir, SCALE, cfg.seed, WalOptions::default(), 0, &[], 0).unwrap();
        let mut offsets = vec![std::fs::metadata(dir.join(WAL_FILE)).unwrap().len()];
        for (i, ops) in all.iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
            wal.sync().unwrap();
            offsets.push(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len());
        }
        drop(wal);

        // Flip one payload byte inside the second-to-last record.
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = offsets[offsets.len() - 3] as usize + 12 + 3;
        bytes[victim] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        // Everything before the corrupt record replays; it and the
        // (valid) record after it are cut — past a checksum failure no
        // byte can be trusted.
        assert_eq!(rec.report.wal_entries, all.len() as u64 - 2);
        assert!(rec.report.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rotation_bounds_the_live_wal_and_preserves_state() {
        let dir = tmp_dir("rotate");
        let cfg = config();
        let all = batches(6);
        let opts = WalOptions { fsync_every: 1, snapshot_every: 2, ..WalOptions::default() };
        let mut wal = SegmentedWal::open(&dir, SCALE, cfg.seed, opts, 0, &[], 0).unwrap();
        let mut rotations = 0;
        for (i, ops) in all.iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
            if wal.maybe_snapshot().unwrap() {
                rotations += 1;
            }
        }
        drop(wal);
        assert!(rotations >= 2, "snapshot_every=2 over {} batches: {rotations}", all.len());
        assert!(dir.join(SNAP_FILE).exists());

        let rec = recover(&dir, &cfg, SCALE, opts).unwrap();
        assert_eq!(rec.report.last_seq, all.len() as u64);
        assert_eq!(
            rec.report.snapshot_entries + rec.report.wal_entries,
            all.len() as u64,
            "every record is in exactly one of snapshot/wal"
        );
        assert!(
            rec.report.wal_entries < all.len() as u64,
            "rotation left everything in the live WAL"
        );

        // Against a no-snapshot control with identical appends.
        let dir2 = tmp_dir("rotate_control");
        let mut wal2 =
            SegmentedWal::open(&dir2, SCALE, cfg.seed, WalOptions::default(), 0, &[], 0).unwrap();
        for (i, ops) in all.iter().enumerate() {
            wal2.append(i as u64 + 1, ops).unwrap();
        }
        drop(wal2);
        let rec2 = recover(&dir2, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(store_fingerprint(&rec.store), store_fingerprint(&rec2.store));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn header_mismatch_is_refused() {
        let dir = tmp_dir("header");
        let cfg = config();
        let mut wal =
            SegmentedWal::open(&dir, SCALE, cfg.seed, WalOptions::default(), 0, &[], 0).unwrap();
        wal.append(1, &batches(1)[0]).unwrap();
        drop(wal);
        // Different seed ⇒ different bulk image ⇒ replay would corrupt.
        assert!(SegmentedWal::open(&dir, SCALE, cfg.seed + 1, WalOptions::default(), 0, &[], 0)
            .is_err());
        assert!(recover(&dir, &cfg, "0.003", WalOptions::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_directory_recovers_to_the_bulk_image() {
        let dir = tmp_dir("fresh");
        let cfg = config();
        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        // Everything but the wall-clock stamp is zero on a fresh start.
        assert_eq!(RecoveryReport { recovery_us: 0, ..rec.report }, RecoveryReport::default());
        assert_eq!(rec.report.replayed(), 0);
        let (bulk, _) = snb_store::bulk_store_and_stream(&cfg);
        assert_eq!(store_fingerprint(&rec.store), store_fingerprint(&bulk));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn seg_opts(partitions: usize) -> WalOptions {
        WalOptions { partitions, ..WalOptions::default() }
    }

    #[test]
    fn segmented_roundtrip_matches_single_segment_control() {
        let cfg = config();
        let all = batches(6);
        let mut fingerprints = Vec::new();
        for parts in [1usize, 2, 4] {
            let dir = tmp_dir(&format!("seg{parts}"));
            let mut wal =
                SegmentedWal::open(&dir, SCALE, cfg.seed, seg_opts(parts), 0, &[], 0).unwrap();
            assert_eq!(wal.segment_count(), parts);
            for (i, ops) in all.iter().enumerate() {
                wal.append(i as u64 + 1, ops).unwrap();
            }
            drop(wal); // simulated crash
            if parts > 1 {
                let named: Vec<bool> =
                    (0..parts).map(|p| dir.join(segment_file(p, parts)).exists()).collect();
                assert!(named.iter().all(|e| *e), "every segment file exists: {named:?}");
                assert!(!dir.join(WAL_FILE).exists(), "no stray single-segment file");
            }
            let rec = recover(&dir, &cfg, SCALE, seg_opts(parts)).unwrap();
            assert_eq!(rec.report.last_seq, all.len() as u64);
            assert_eq!(rec.report.wal_entries, all.len() as u64);
            assert_eq!(rec.report.truncated_bytes, 0);
            fingerprints.push(store_fingerprint(&rec.store));
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "partition count changed recovered state: {fingerprints:?}"
        );
    }

    #[test]
    fn routing_spreads_batches_across_segments() {
        let cfg = config();
        let dir = tmp_dir("spread");
        let parts = 2;
        let mut wal =
            SegmentedWal::open(&dir, SCALE, cfg.seed, seg_opts(parts), 0, &[], 0).unwrap();
        for (i, ops) in batches(8).iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
        }
        drop(wal);
        let header = {
            let mut h = Vec::new();
            write_header(&mut h, WAL_MAGIC, SCALE, cfg.seed, 0);
            h.len() as u64
        };
        let grew: Vec<bool> = (0..parts)
            .map(|p| std::fs::metadata(dir.join(segment_file(p, parts))).unwrap().len() > header)
            .collect();
        assert!(grew.iter().all(|g| *g), "a segment never received a batch: {grew:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_segment_cuts_the_orphaned_suffix_in_other_segments() {
        let cfg = config();
        let dir = tmp_dir("seggap");
        let parts = 2;
        let all = batches(8);
        let mut wal =
            SegmentedWal::open(&dir, SCALE, cfg.seed, seg_opts(parts), 0, &[], 0).unwrap();
        // Track which segment got each seq so we can tear a record that
        // is *not* globally last.
        let mut seq_seg = Vec::new();
        let mut offsets: Vec<Vec<u64>> = (0..parts)
            .map(|p| vec![std::fs::metadata(dir.join(segment_file(p, parts))).unwrap().len()])
            .collect();
        for (i, ops) in all.iter().enumerate() {
            let p = snb_store::partition_of_raw(crate::events::route_key(ops), parts);
            wal.append(i as u64 + 1, ops).unwrap();
            seq_seg.push(p);
            for (q, offs) in offsets.iter_mut().enumerate() {
                offs.push(std::fs::metadata(dir.join(segment_file(q, parts))).unwrap().len());
            }
        }
        drop(wal);
        // Find a seq whose segment differs from the last batch's segment
        // (so tearing it orphans later seqs in the other segment).
        let last_seg = *seq_seg.last().unwrap();
        let victim = seq_seg.iter().rposition(|p| *p != last_seg).unwrap();
        let victim_seg = seq_seg[victim];
        // Truncate the victim segment to just before the victim record.
        let path = dir.join(segment_file(victim_seg, parts));
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(offsets[victim_seg][victim] + 3) // leave a torn stub
            .unwrap();

        let rec = recover(&dir, &cfg, SCALE, seg_opts(parts)).unwrap();
        assert_eq!(rec.report.last_seq, victim as u64, "replay stops before the torn seq");
        assert!(rec.report.truncated_bytes > 0);
        assert!(
            rec.report.wal_entries < all.len() as u64,
            "orphaned post-gap entries must not replay"
        );

        // The cut is durable and gap-free: a second recovery is clean
        // and byte-identical.
        let rec2 = recover(&dir, &cfg, SCALE, seg_opts(parts)).unwrap();
        assert_eq!(rec2.report.truncated_bytes, 0);
        assert_eq!(rec2.report.last_seq, rec.report.last_seq);
        assert_eq!(store_fingerprint(&rec2.store), store_fingerprint(&rec.store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partition_count_mismatch_is_refused() {
        let cfg = config();
        let dir = tmp_dir("layout");
        let mut wal = SegmentedWal::open(&dir, SCALE, cfg.seed, seg_opts(2), 0, &[], 0).unwrap();
        wal.append(1, &batches(1)[0]).unwrap();
        drop(wal);
        assert!(SegmentedWal::open(&dir, SCALE, cfg.seed, seg_opts(1), 0, &[], 0).is_err());
        assert!(SegmentedWal::open(&dir, SCALE, cfg.seed, seg_opts(4), 0, &[], 0).is_err());
        assert!(recover(&dir, &cfg, SCALE, seg_opts(1)).is_err());
        assert!(SegmentedWal::open(&dir, SCALE, cfg.seed, seg_opts(2), 0, &[], 0).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmented_snapshot_compacts_in_sequence_order() {
        let cfg = config();
        let dir = tmp_dir("segrotate");
        let parts = 2;
        let all = batches(6);
        let opts = WalOptions { snapshot_every: 2, ..seg_opts(parts) };
        let mut wal = SegmentedWal::open(&dir, SCALE, cfg.seed, opts, 0, &[], 0).unwrap();
        let mut rotations = 0;
        for (i, ops) in all.iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
            if wal.maybe_snapshot().unwrap() {
                rotations += 1;
            }
        }
        drop(wal);
        assert!(rotations >= 1, "snapshot_every=2 never rotated");
        assert!(dir.join(SNAP_FILE).exists());

        let rec = recover(&dir, &cfg, SCALE, opts).unwrap();
        assert_eq!(rec.report.last_seq, all.len() as u64);
        assert_eq!(rec.report.snapshot_entries + rec.report.wal_entries, all.len() as u64);

        // Same appends, no snapshots, single segment: identical state.
        let dir2 = tmp_dir("segrotate_control");
        let mut wal2 = SegmentedWal::open(&dir2, SCALE, cfg.seed, seg_opts(1), 0, &[], 0).unwrap();
        for (i, ops) in all.iter().enumerate() {
            wal2.append(i as u64 + 1, ops).unwrap();
        }
        drop(wal2);
        let rec2 = recover(&dir2, &cfg, SCALE, seg_opts(1)).unwrap();
        assert_eq!(store_fingerprint(&rec.store), store_fingerprint(&rec2.store));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn group_commit_defers_and_shares_fsyncs() {
        let cfg = config();
        let dir = tmp_dir("group");
        let opts = WalOptions { group_commit: true, partitions: 2, ..WalOptions::default() };
        let all = batches(6);
        let mut wal = SegmentedWal::open(&dir, SCALE, cfg.seed, opts, 0, &[], 0).unwrap();
        for (i, ops) in all.iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
        }
        assert_eq!(wal.syncs(), 0, "group commit must not fsync inside append");
        assert_eq!(wal.unsynced(), all.len() as u64);
        wal.sync_all().unwrap();
        assert!(
            wal.syncs() as usize <= 2,
            "one shared flush costs at most one fsync per dirty segment, got {}",
            wal.syncs()
        );
        assert_eq!(wal.unsynced(), 0);
        drop(wal);
        let rec = recover(&dir, &cfg, SCALE, opts).unwrap();
        assert_eq!(rec.report.last_seq, all.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailer_ships_contiguously_across_compaction() {
        let cfg = config();
        let dir = tmp_dir("tailer");
        let parts = 2;
        let all = batches(6);
        let opts = WalOptions { snapshot_every: 3, ..seg_opts(parts) };
        let mut wal = SegmentedWal::open(&dir, SCALE, cfg.seed, opts, 0, &[], 0).unwrap();
        let mut tailer = WalTailer::new(&dir, SCALE, cfg.seed, parts, 0);

        // Nothing acked yet: nothing ships.
        assert!(tailer.poll(0).unwrap().is_empty());

        let mut shipped: Vec<u64> = Vec::new();
        let mut rotations = 0;
        for (i, ops) in all.iter().enumerate() {
            let seq = i as u64 + 1;
            wal.append(seq, ops).unwrap();
            if wal.maybe_snapshot().unwrap() {
                rotations += 1;
            }
            // Poll after every append: records keep shipping in order
            // even as compaction moves them from segments to the
            // snapshot between polls.
            for rec in tailer.poll(wal.last_seq()).unwrap() {
                shipped.push(rec.seq);
                assert_eq!(
                    rec.partition,
                    snb_store::partition_of_raw(crate::events::route_key(&rec.ops), parts)
                );
            }
        }
        assert!(rotations >= 1, "snapshot_every=3 never rotated");
        assert_eq!(shipped, (1..=all.len() as u64).collect::<Vec<_>>());

        // A cursor behind the compaction point replays out of the
        // snapshot: a fresh tailer from 0 re-ships everything.
        let mut fresh = WalTailer::new(&dir, SCALE, cfg.seed, parts, 0);
        let replayed: Vec<u64> =
            fresh.poll(wal.last_seq()).unwrap().iter().map(|r| r.seq).collect();
        assert_eq!(replayed, shipped);

        // `upto` bounds shipping: a cursor asked for less ships less,
        // then resumes exactly where it stopped.
        let mut bounded = WalTailer::new(&dir, SCALE, cfg.seed, parts, 0);
        let first: Vec<u64> = bounded.poll(2).unwrap().iter().map(|r| r.seq).collect();
        assert_eq!(first, vec![1, 2]);
        assert_eq!(bounded.next_seq(), 3);
        let rest: Vec<u64> = bounded.poll(wal.last_seq()).unwrap().iter().map(|r| r.seq).collect();
        assert_eq!(rest, (3..=all.len() as u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailer_idle_polls_read_zero_bytes() {
        let cfg = config();
        let dir = tmp_dir("tailcost");
        let parts = 2;
        let all = batches(6);
        // No compaction: this pins the pure append-tail cost.
        let opts = WalOptions { snapshot_every: 0, ..seg_opts(parts) };
        let mut wal = SegmentedWal::open(&dir, SCALE, cfg.seed, opts, 0, &[], 0).unwrap();
        let mut tailer = WalTailer::new(&dir, SCALE, cfg.seed, parts, 0);

        for (i, ops) in all.iter().take(5).enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
        }
        let shipped = tailer.poll(wal.last_seq()).unwrap();
        assert_eq!(shipped.len(), 5);
        let after_catchup = tailer.bytes_scanned();
        assert!(after_catchup > 0);

        // Idle polls re-stat the files but must not re-read history.
        for _ in 0..100 {
            assert!(tailer.poll(wal.last_seq()).unwrap().is_empty());
        }
        assert_eq!(
            tailer.bytes_scanned(),
            after_catchup,
            "idle polls must be O(stat), not O(history)"
        );

        // One more append: the poll reads exactly the file growth.
        let sizes = |dir: &Path| -> u64 {
            (0..parts)
                .map(|p| std::fs::metadata(dir.join(segment_file(p, parts))).unwrap().len())
                .sum()
        };
        let before = sizes(&dir);
        wal.append(6, &all[5]).unwrap();
        let grew = sizes(&dir) - before;
        assert_eq!(tailer.poll(wal.last_seq()).unwrap().len(), 1);
        assert_eq!(
            tailer.bytes_scanned() - after_catchup,
            grew,
            "an active poll reads only the appended bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bumped_epoch_survives_recovery_and_compaction() {
        let cfg = config();
        let dir = tmp_dir("epoch");
        let parts = 2;
        let all = batches(6);
        let opts = WalOptions { snapshot_every: 3, ..seg_opts(parts) };
        let mut wal = SegmentedWal::open(&dir, SCALE, cfg.seed, opts, 0, &[], 0).unwrap();
        assert_eq!(wal.epoch(), 0);
        for (i, ops) in all.iter().take(3).enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
        }
        // Promotion: bump in place, with records already in the log.
        wal.bump_epoch(3).unwrap();
        assert_eq!(wal.epoch(), 3);
        wal.bump_epoch(1).unwrap(); // stale bump is a no-op
        assert_eq!(wal.epoch(), 3);
        for (i, ops) in all.iter().enumerate().skip(3) {
            wal.append(i as u64 + 1, ops).unwrap();
            wal.maybe_snapshot().unwrap();
        }
        drop(wal); // crash, no graceful shutdown

        let rec = recover(&dir, &cfg, SCALE, opts).unwrap();
        assert_eq!(rec.report.epoch, 3, "bumped epoch survives restart");
        assert_eq!(rec.wal.epoch(), 3);
        assert_eq!(rec.report.last_seq, all.len() as u64, "records survive the bump");

        // The epoch rides compaction into the snapshot header too: even
        // with every live segment reset, recovery still sees the term.
        let (_, durability, report) = rec.into_durability();
        assert_eq!(durability.epoch, 3);
        assert_eq!(report.epoch, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
