//! The client side every `service_load` mode shares: one TCP request
//! path, write-batch submission, replication catch-up polling, latency
//! percentiles, real `snb-server` processes, the every-batch oracle
//! check over all 25 BI queries, and the block-merging writer for
//! `BENCH_service.json`.

use std::io::BufRead;
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snb_bi::BiParams;
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::{TimedEvent, UpdateEvent};
use snb_datagen::GeneratorConfig;
use snb_engine::QueryContext;
use snb_params::ParamGen;
use snb_server::proto::{self, Request};
use snb_server::{ErrorKind, Response, ServiceParams, WriteBatch, WriteOps};
use snb_store::{DeleteOp, Store};

use crate::Args;

/// Read timeout on client connections to a healthy node: long enough
/// for a slow CI BI query, short enough to notice a stalled or dead
/// process (the injected stalls sleep for minutes).
pub const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Sends one request over `stream` and reads its response, which must
/// carry the same correlation id. `min_seq` pins a read to a replicated
/// high-water mark; `deadline_us = 0` means no deadline.
pub fn call(
    stream: &mut TcpStream,
    id: u64,
    min_seq: u64,
    deadline_us: u64,
    params: ServiceParams,
) -> Result<Response, String> {
    let req = Request { id, deadline_us, min_seq, params };
    proto::write_frame(stream, &proto::encode_request(&req)).map_err(|e| format!("write: {e}"))?;
    let payload = proto::read_frame(stream).map_err(|e| format!("read: {e}"))?;
    let resp = proto::decode_response(&payload).map_err(|e| format!("decode: {}", e.detail))?;
    if resp.id != id {
        return Err(format!("correlation mismatch: sent {id}, got {}", resp.id));
    }
    Ok(resp)
}

/// Why a submitted write batch was not acknowledged.
#[derive(Debug)]
pub enum Unacked {
    /// A typed refusal came back — kind plus the full detail.
    Refused(ErrorKind, String),
    /// No answer at all (black-holed, timed out, or a dead socket).
    Silent(String),
}

/// Submits batch `seq` (the seq doubles as the request id). The ack is
/// `(flavor, rows)`: `rows` is the number of operations applied by
/// *this* call, and flavor is `"deduped"` exactly when it is zero — the
/// batch was already applied and the server merely re-acknowledged it —
/// else `"ok"`.
pub fn submit(
    stream: &mut TcpStream,
    seq: u64,
    ops: &WriteOps,
) -> Result<(&'static str, u64), Unacked> {
    let params = ServiceParams::Write(WriteBatch { seq, ops: ops.clone() });
    match call(stream, seq, 0, 0, params).map_err(Unacked::Silent)?.body {
        Ok(ok) if ok.rows == 0 => Ok(("deduped", 0)),
        Ok(ok) => Ok(("ok", ok.rows)),
        Err(e) => Err(Unacked::Refused(e.kind, e.detail)),
    }
}

/// Polls `min_seq = target` reads of `probe` until one serves, counting
/// the typed `stale_read` refusals along the way. Returns (wall-clock,
/// refusals); panics, naming `what`, on any other refusal or after 60 s.
pub fn wait_min_seq(
    stream: &mut TcpStream,
    target: u64,
    probe: &BiParams,
    what: &str,
) -> (Duration, u64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(60);
    let mut stale = 0u64;
    let mut id = 1_000_000;
    loop {
        id += 1;
        let resp = call(stream, id, target, 0, ServiceParams::Bi(probe.clone()))
            .unwrap_or_else(|e| panic!("{what}: probe: {e}"));
        match resp.body {
            Ok(ok) => {
                assert!(ok.applied_seq >= target, "{what}: served below min_seq");
                return (started.elapsed(), stale);
            }
            Err(e) if e.kind == ErrorKind::StaleRead => {
                stale += 1;
                assert!(Instant::now() < deadline, "{what}: stuck below seq {target}");
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("{what}: probe refused: {}: {}", e.kind.name(), e.detail),
        }
    }
}

/// Sequenced batches carved from a real update stream: chunks of
/// inserts in stream order, with a like-delete batch interleaved after
/// any chunk that produced likes (both write families hit the WAL).
pub fn carve_stream(stream: &[TimedEvent], chunks: usize) -> Vec<WriteOps> {
    let mut out = Vec::new();
    let mut likes = Vec::new();
    for chunk in stream.chunks(20).take(chunks) {
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

/// [`carve_stream`] over a freshly generated stream for `config`.
pub fn carve_batches(config: &GeneratorConfig, chunks: usize) -> Vec<WriteOps> {
    let (_, stream) = snb_store::bulk_store_and_stream(config);
    carve_stream(&stream, chunks)
}

/// Builds the every-batch oracle — `base` with each of `batches`
/// applied exactly once, in order — and checks every node in `nodes`
/// against it over all 25 BI queries (two curated bindings each, reads
/// pinned at `min_seq`). A lost or doubly applied batch shows up as a
/// row-count or fingerprint divergence, printed under `label`. Returns
/// (reads verified, mismatches).
pub fn verify_every_batch(
    mut oracle: Store,
    batches: &[WriteOps],
    seed: u64,
    nodes: &mut [(&str, &mut TcpStream)],
    min_seq: u64,
    label: &str,
) -> (u64, u64) {
    let world = StaticWorld::build(seed);
    for ops in batches {
        match ops {
            WriteOps::Updates(events) => {
                for ev in events {
                    oracle.apply_event(ev, &world).expect("oracle apply");
                }
            }
            WriteOps::Deletes(dels) => {
                oracle.apply_deletes(dels).expect("oracle delete");
            }
        }
    }
    if !oracle.date_index_fresh() {
        oracle.rebuild_date_index();
    }
    oracle.validate_invariants().expect("oracle invariants");
    let gen = ParamGen::new(&oracle, seed);
    let ctx = QueryContext::single_threaded();
    let mut verified = 0u64;
    let mut mismatches = 0u64;
    for q in 1..=25u8 {
        for params in gen.bi_params(q, 2) {
            let want = snb_bi::run_with(&oracle, &ctx, &params);
            for (who, conn) in nodes.iter_mut() {
                let resp = call(
                    conn,
                    10_000_000 + verified,
                    min_seq,
                    0,
                    ServiceParams::Bi(params.clone()),
                )
                .expect("verify read");
                verified += 1;
                match resp.body {
                    Ok(ok) if ok.rows == want.rows as u64 && ok.fingerprint == want.fingerprint => {
                    }
                    Ok(ok) => {
                        mismatches += 1;
                        eprintln!(
                            "{label} VERIFY FAILURE: BI {q} on {who}: rows {} fp {:#x}, \
                             oracle rows {} fp {:#x}",
                            ok.rows, ok.fingerprint, want.rows, want.fingerprint
                        );
                    }
                    Err(e) => {
                        mismatches += 1;
                        eprintln!(
                            "{label} VERIFY FAILURE: BI {q} on {who}: {}: {}",
                            e.kind.name(),
                            e.detail
                        );
                    }
                }
            }
        }
    }
    (verified, mismatches)
}

/// The `snb-server` binary to spawn: `--server-bin`, else the one next
/// to this binary.
pub fn server_bin(args: &Args) -> String {
    let bin = args.server_bin.clone().unwrap_or_else(|| {
        let exe = std::env::current_exe().expect("current_exe");
        exe.parent().expect("target dir").join("snb-server").display().to_string()
    });
    assert!(
        Path::new(&bin).exists(),
        "snb-server binary not found at {bin} (build it or pass --server-bin)"
    );
    bin
}

/// Parsed `recovered seq=...` startup line.
#[derive(Clone, Copy, Debug, Default)]
pub struct Recovery {
    pub seq: u64,
    pub truncated_bytes: u64,
    pub image_seq: u64,
    pub tail_replayed: u64,
}

/// One spawned `snb-server` process with its own WAL directory.
pub struct Node {
    child: Child,
    name: String,
    /// Client (query) endpoint.
    pub addr: String,
    /// Replication (log-shipping / promotion / announce) endpoint;
    /// empty unless spawned with `--repl-port`.
    pub repl_addr: String,
    pub recovery: Recovery,
    /// The epoch of the node's `fenced epoch=` stdout line; 0 until
    /// it has been fenced.
    pub fenced_epoch: Arc<AtomicU64>,
}

impl Node {
    /// Spawns `snb-server` on ephemeral ports with two workers, two WAL
    /// partitions and a compaction point every 5 appends, plus `extra`
    /// flags; `faults` arms `$SNB_FAULTS` (seeded). Returns once the node
    /// listens; a background thread keeps draining its stdout for the
    /// process lifetime — the pipe must never fill up and block the
    /// server — and scrapes the fencing line.
    pub fn spawn(
        args: &Args,
        name: &str,
        wal_dir: &Path,
        extra: &[&str],
        faults: Option<&str>,
    ) -> Node {
        let bin = server_bin(args);
        let mut cmd = Command::new(&bin);
        cmd.arg(&args.scale)
            .arg(args.config.seed.to_string())
            .args(["--port", "0", "--workers", "2", "--snapshot-every", "5", "--partitions", "2"])
            .arg("--wal-dir")
            .arg(wal_dir)
            .args(extra)
            .env_remove("SNB_FAULTS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(spec) = faults {
            cmd.env("SNB_FAULTS", spec).env("SNB_FAULT_SEED", "42");
        }
        let mut child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {name} ({bin}): {e}"));
        let mut reader = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut recovery = Recovery::default();
        let mut repl_addr = String::new();
        let mut addr = None;
        for line in (&mut reader).lines() {
            let line = line.expect("server stdout");
            if let Some(rest) = line.strip_prefix("recovered ") {
                for field in rest.split_whitespace() {
                    let (key, value) = field.split_once('=').unwrap_or((field, "0"));
                    let value: u64 = value.parse().unwrap_or(0);
                    match key {
                        "seq" => recovery.seq = value,
                        "truncated_bytes" => recovery.truncated_bytes = value,
                        "image_seq" => recovery.image_seq = value,
                        "tail_replayed" => recovery.tail_replayed = value,
                        _ => {}
                    }
                }
            } else if let Some(a) = line.strip_prefix("replication on ") {
                repl_addr = a.trim().to_string();
            } else if let Some(a) = line.strip_prefix("listening on ") {
                addr = Some(a.trim().to_string());
                break;
            }
        }
        let fenced_epoch = Arc::new(AtomicU64::new(0));
        let scraped = Arc::clone(&fenced_epoch);
        std::thread::spawn(move || {
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("fenced epoch=") {
                    scraped.store(rest.trim().parse().unwrap_or(0), Ordering::Release);
                }
            }
        });
        let addr = addr.unwrap_or_else(|| panic!("{name} exited before listening"));
        Node { child, name: name.to_string(), addr, repl_addr, recovery, fenced_epoch }
    }

    /// [`Node::spawn`] with a replication port, as a follower of the
    /// `primary` replication endpoint when one is given.
    pub fn spawn_replicating(
        args: &Args,
        name: &str,
        wal_dir: &Path,
        primary: Option<&str>,
        faults: Option<&str>,
    ) -> Node {
        let mut extra = vec!["--repl-port", "0"];
        if let Some(primary) = primary {
            extra.extend(["--follower", "--replicate-from", primary]);
        }
        Node::spawn(args, name, wal_dir, &extra, faults)
    }

    /// Connects to the client endpoint with a `timeout` read timeout.
    pub fn connect_with(&self, timeout: Duration) -> TcpStream {
        for _ in 0..100 {
            if let Ok(s) = TcpStream::connect(&self.addr) {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(timeout));
                return s;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("could not connect to {} at {}", self.name, self.addr);
    }

    /// [`Node::connect_with`] at [`ACK_TIMEOUT`].
    pub fn connect(&self) -> TcpStream {
        self.connect_with(ACK_TIMEOUT)
    }

    /// SIGKILL — the crash under test; no drain, no destructors.
    pub fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL node");
        self.child.wait().expect("reap node");
    }

    /// Graceful stop (SIGTERM, drain, exit) for teardown.
    pub fn terminate(mut self) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(self.child.id() as i32, 15);
        }
        let _ = self.child.wait();
    }
}

/// Writes `body` (a JSON object) as the top-level `key` block of the
/// JSON object in `path`, keeping every other block. Each mode owns one
/// key, so running several modes into one file accumulates their
/// results instead of the last run clobbering the rest. A missing or
/// empty file starts a fresh object; a file that is not a JSON object
/// is refused rather than overwritten.
pub fn write_block(path: &str, key: &str, body: &str) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut blocks = if existing.trim().is_empty() {
        Vec::new()
    } else {
        top_level_blocks(&existing)
            .unwrap_or_else(|| panic!("{path} is not a JSON object; refusing to overwrite it"))
    };
    let body = body.trim().to_string();
    match blocks.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = body,
        None => blocks.push((key.to_string(), body)),
    }
    let entries: Vec<String> = blocks.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    let out = format!("{{\n{}\n}}\n", entries.join(",\n"));
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote the {key:?} block of {path}");
}

/// Splits a JSON object into its top-level `(key, raw value)` pairs;
/// `None` when the text is not an object.
fn top_level_blocks(json: &str) -> Option<Vec<(String, String)>> {
    let body = json.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut parts = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut start) = (0i32, false, false, 0);
    for (i, c) in body.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return None;
    }
    if !body[start..].trim().is_empty() {
        parts.push(&body[start..]);
    }
    parts
        .into_iter()
        .map(|part| {
            let rest = part.trim().strip_prefix('"')?;
            let (key, value) = rest.split_once('"')?;
            Some((key.to_string(), value.trim_start().strip_prefix(':')?.trim().to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_block_replaces_its_own_key_and_keeps_the_others() {
        let path =
            std::env::temp_dir().join(format!("snb_write_block_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        std::fs::write(path, "").unwrap();
        write_block(path, "chaos", "{\"meta\": {\"git_commit\": \"a\"}, \"mismatches\": 0}");
        write_block(path, "sweep", "{\"note\": \"braces } and, commas \\\" in strings\"}");
        write_block(path, "chaos", "{\"mismatches\": 1, \"levels\": [1, {\"x\": 2}]}");
        let blocks = top_level_blocks(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            blocks,
            vec![
                ("chaos".to_string(), "{\"mismatches\": 1, \"levels\": [1, {\"x\": 2}]}".into()),
                (
                    "sweep".to_string(),
                    "{\"note\": \"braces } and, commas \\\" in strings\"}".into()
                ),
            ]
        );
        std::fs::write(path, "[1, 2]").unwrap();
        assert!(std::panic::catch_unwind(|| write_block(path, "chaos", "{}")).is_err());
        let _ = std::fs::remove_file(path);
    }
}
