//! `--split-brain`: experiment E18 — fencing epochs under a network
//! partition.
//!
//! The scenario the fencing epoch exists for: a primary that is only
//! *partitioned* — not dead — while a follower is promoted in its
//! place. Without fencing, the old primary keeps acking client writes
//! into a history no follower will ever replicate (split-brain);
//! with it, the first frame at a higher epoch that reaches the zombie
//! turns every subsequent client write into a typed, terminal
//! `fenced` refusal carrying a redirect to the real primary.
//!
//! Mechanics: the primary is spawned with a deterministic
//! `net.partition` fault (`$SNB_FAULTS`, hit-counted on its Nth
//! submitted write batch) that black-holes its sockets without closing
//! them — reads are discarded, writes pretend to succeed, nothing
//! disconnects. The harness then:
//!
//! 1. drives a pre-partition write ladder, waiting for *both*
//!    followers to converge after every ack (so every acked write is
//!    provably replicated before the lights go out);
//! 2. trips the partition with one more write — applied on the
//!    primary, but the ack is black-holed, so the client treats it as
//!    unacked and will resubmit it to the new primary;
//! 3. promotes follower 1 via `Promote` (epoch floor 0 → the node
//!    durably bumps to its own term + 1 and fsyncs it into the WAL
//!    headers *before* going writable), passing its own endpoints and
//!    the sibling list — follower 2 plus the zombie itself;
//! 4. keeps driving writes at both nodes: the new primary acks them,
//!    the zombie black-holes them (and must never ack);
//! 5. waits for follower 2 to re-subscribe to the new primary — the
//!    `Announce` carried the reconnect target, no operator re-pointing
//!    — and converge on the post-promotion writes;
//! 6. waits out the heal: the promoted node's announce-retry thread
//!    finally reaches the zombie, which fences itself (scraped from
//!    its `fenced epoch=` stdout line) and starts refusing writes with
//!    the typed `fenced` error;
//! 7. follows the refusal's `(primary=HOST:PORT)` redirect with the
//!    same batch seq (dedupe-protected) and gets it acked by the real
//!    primary;
//! 8. proves the new primary (and the re-subscribed follower) answer
//!    all 25 BI queries identically to an oracle that applied every
//!    batch exactly once.
//!
//! Hard gates: `zombie_acks_after_promotion == 0`,
//! `lost_acked_writes == 0`, `mismatches == 0`. Results land in a
//! `"failover"` block of `BENCH_service.json` with the
//! partition→promote→re-subscribe→first-ack timings; `ci.sh` greps the
//! gates.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use snb_params::ParamGen;
use snb_server::{replication, retry, ErrorKind};

use crate::harness::{self, submit, wait_min_seq, Node, Unacked, ACK_TIMEOUT};
use crate::Args;

/// Read timeout on connections to the (possibly black-holed) zombie: a
/// partitioned node answers nothing, so probes must give up fast.
const ZOMBIE_TIMEOUT: Duration = Duration::from_millis(1000);
/// Partition window: long enough to promote, re-subscribe and drive
/// split-brain traffic inside it; short enough that waiting out the
/// heal keeps the experiment snappy.
const PARTITION_MS: u64 = 6_000;
/// How long the harness waits for the zombie to get fenced after the
/// heal (the announce retry cadence is 200ms, so this is generous).
const FENCE_DEADLINE: Duration = Duration::from_secs(40);

/// Submits batch `seq`, which must be acknowledged; returns the flavor.
fn submit_acked(stream: &mut TcpStream, seq: u64, ops: &snb_server::WriteOps) -> &'static str {
    submit(stream, seq, ops).unwrap_or_else(|e| panic!("write seq {seq} not acked: {e:?}")).0
}

pub fn run(args: &Args) {
    let base_dir = std::env::temp_dir().join(format!("snb_splitbrain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base_dir);
    let wal_dir = |name: &str| base_dir.join(name);

    eprintln!(
        "# split-brain: carving write batches (scale {}, seed {})",
        args.scale, args.config.seed
    );
    let (base_store, stream) = snb_store::bulk_store_and_stream(&args.config);
    let batches = harness::carve_stream(&stream, 16);
    let total = batches.len() as u64;
    assert!(total >= 8, "need at least 8 batches for the phases, got {total}");
    let seq_ops = |seq: u64| &batches[(seq - 1) as usize];
    let gen = ParamGen::new(&base_store, args.config.seed);
    let probe = gen.bi_params(1, 1).pop().expect("one BI 1 binding");

    // The partition trips on the primary's (pre+1)-th submitted batch:
    // pre acked-and-replicated writes, then one applied-but-unacked
    // trigger the client must resubmit to the new primary.
    let pre = total / 2;
    let partitioned_at = pre + 1;
    // The last batch is reserved for the redirect-follow leg (step 7);
    // the new primary drives partitioned_at..=total-1 itself.
    let driven_to = total - 1;
    let fault_spec = format!("net.partition=partition:{PARTITION_MS}@h{partitioned_at}");

    // ---- Phase 1: cluster up, pre-partition convergence ladder.
    eprintln!("# split-brain phase 1: primary (fault: {fault_spec}) + 2 followers");
    let spawn = |name: &str, primary: Option<&str>, faults: Option<&str>| {
        Node::spawn_replicating(args, name, &wal_dir(name), primary, faults)
    };
    let primary = spawn("primary", None, Some(&fault_spec));
    let f1 = spawn("follower1", Some(&primary.repl_addr), None);
    let f2 = spawn("follower2", Some(&primary.repl_addr), None);
    let mut pconn = primary.connect();
    let mut f1conn = f1.connect();
    let mut f2conn = f2.connect();
    eprintln!("# split-brain: driving {pre} pre-partition batches with per-ack convergence");
    for seq in 1..=pre {
        assert_eq!(submit_acked(&mut pconn, seq, seq_ops(seq)), "ok");
        // Every acked write is on both followers before the partition
        // can possibly fire — that is what makes lost_acked_writes a
        // deterministic zero, not a race.
        wait_min_seq(&mut f1conn, seq, &probe, "follower1 pre-partition");
        wait_min_seq(&mut f2conn, seq, &probe, "follower2 pre-partition");
    }

    // ---- Phase 2: trip the partition.
    eprintln!("# split-brain phase 2: tripping net.partition at seq {partitioned_at}");
    let mut trigger_conn = primary.connect_with(ZOMBIE_TIMEOUT);
    let t_partition = Instant::now();
    match submit(&mut trigger_conn, partitioned_at, seq_ops(partitioned_at)) {
        Err(Unacked::Silent(_)) => {} // applied, ack black-holed — as designed
        Ok((f, _)) => {
            panic!("partition never fired: seq {partitioned_at} acked ({f})")
        }
        Err(Unacked::Refused(kind, detail)) => {
            panic!("trigger write refused: {}: {detail}", kind.name())
        }
    }
    drop(pconn);

    // ---- Phase 3: promote follower 1, siblings = follower 2 + zombie.
    eprintln!("# split-brain phase 3: promoting follower1 (announce to sibling + zombie)");
    let siblings = vec![f2.repl_addr.clone(), primary.repl_addr.clone()];
    let promotion = replication::promote_with(&f1.repl_addr, 0, &f1.repl_addr, &f1.addr, &siblings)
        .expect("promote follower1");
    let promote_ms = t_partition.elapsed().as_millis() as u64;
    let t_promoted = Instant::now();
    assert_eq!(
        promotion.writable_from, pre,
        "promotion frontier must be the replicated prefix, not the unacked trigger"
    );
    assert!(promotion.epoch >= 1, "promotion must bump the epoch: {promotion:?}");
    eprintln!(
        "# split-brain: follower1 writable from seq {} at epoch {} ({promote_ms} ms)",
        promotion.writable_from, promotion.epoch
    );

    // ---- Phase 4: drive writes at both nodes while partitioned.
    // New primary: resubmit the unacked trigger, then the live tail.
    let mut first_ack_ms = 0u64;
    let mut resubmitted = 0u64;
    let mut rededuped = 0u64;
    for seq in promotion.writable_from + 1..=driven_to {
        let flavor = submit_acked(&mut f1conn, seq, seq_ops(seq));
        if first_ack_ms == 0 {
            first_ack_ms = t_partition.elapsed().as_millis() as u64;
        }
        resubmitted += 1;
        if flavor == "deduped" {
            rededuped += 1;
        }
    }
    eprintln!(
        "# split-brain phase 4: new primary acked {resubmitted} writes \
         ({rededuped} deduped, first ack {first_ack_ms} ms after partition)"
    );

    // Follower 2 must re-point itself at the announced primary and
    // converge on writes the zombie never shipped.
    let resubscribe_ms = (t_promoted.elapsed()
        + wait_min_seq(&mut f2conn, driven_to, &probe, "follower2 failover").0)
        .as_millis() as u64;
    eprintln!("# split-brain: follower2 re-subscribed and converged in {resubscribe_ms} ms");

    // Zombie traffic, leg 1: keep throwing writes at the black-holed
    // primary while the partition window is provably open (stop a
    // safety margin before the heal — the in-flight send must land
    // inside the window). Every one must vanish; a single ack is
    // split-brain and fails the run. Each pass also re-acks a write on
    // the new primary, so both nodes see client traffic the whole
    // time.
    let mut zombie_attempts = 0u64;
    let mut zombie_acks = 0u64;
    let mut zombie_silent = 0u64;
    let silent_until = t_partition + Duration::from_millis(PARTITION_MS.saturating_sub(1500));
    while Instant::now() < silent_until {
        let mut zconn = primary.connect_with(ZOMBIE_TIMEOUT);
        zombie_attempts += 1;
        match submit(&mut zconn, driven_to + 1, seq_ops(driven_to + 1)) {
            Ok((flavor, _)) => {
                zombie_acks += 1;
                eprintln!("SPLIT-BRAIN: zombie acked seq {} ({flavor})", driven_to + 1);
            }
            Err(Unacked::Refused(ErrorKind::Fenced, _)) => break, // fenced early: fine
            Err(Unacked::Refused(kind, detail)) => {
                panic!("zombie refused with {} (want silence or fenced): {detail}", kind.name())
            }
            Err(Unacked::Silent(_)) => zombie_silent += 1,
        }
        assert_eq!(submit_acked(&mut f1conn, driven_to, seq_ops(driven_to)), "deduped");
    }
    eprintln!(
        "# split-brain: {zombie_attempts} zombie writes inside the window \
         ({zombie_silent} black-holed, {zombie_acks} acked)"
    );

    // Leg 2: wait out the heal. The promoted node's announce-retry
    // thread finally gets through and the zombie fences itself — the
    // typed stdout line is the signal. No client write is risked in
    // the brief healed-but-not-yet-fenced gap: the harness only
    // resumes zombie traffic once the fence is confirmed, because the
    // announce is best-effort delivery, not a lease — the gap is
    // closed by the fence landing, not by wall-clock.
    let fence_deadline = Instant::now() + FENCE_DEADLINE;
    while primary.fenced_epoch.load(Ordering::Acquire) == 0 {
        assert!(
            Instant::now() < fence_deadline,
            "zombie never fenced after the heal ({zombie_attempts} in-window attempts)"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let zombie_epoch = primary.fenced_epoch.load(Ordering::Acquire);
    assert_eq!(
        zombie_epoch, promotion.epoch,
        "zombie fenced at a different epoch than the promotion"
    );
    let fenced_after_ms = t_partition.elapsed().as_millis() as u64;
    eprintln!(
        "# split-brain: zombie fenced at epoch {zombie_epoch}, \
         {fenced_after_ms} ms after the partition opened"
    );

    // Leg 3: the fenced zombie must now refuse with the typed terminal
    // error, carrying the new primary's address.
    let mut fenced_rejects = 0u64;
    let fenced_detail;
    let mut zconn = primary.connect_with(ACK_TIMEOUT);
    zombie_attempts += 1;
    match submit(&mut zconn, driven_to + 1, seq_ops(driven_to + 1)) {
        Err(Unacked::Refused(ErrorKind::Fenced, detail)) => {
            fenced_rejects += 1;
            fenced_detail = detail;
        }
        Ok((flavor, _)) => {
            panic!("fenced zombie acked seq {} ({flavor})", driven_to + 1)
        }
        Err(Unacked::Refused(kind, detail)) => {
            panic!("fenced zombie refused with {} (want fenced): {detail}", kind.name())
        }
        Err(Unacked::Silent(detail)) => panic!("fenced zombie went silent: {detail}"),
    }

    // ---- Phase 5: follow the fenced redirect with the same batch seq.
    let redirect = retry::redirect_target(&fenced_detail)
        .unwrap_or_else(|| panic!("fenced refusal carries no redirect: {fenced_detail}"))
        .to_string();
    assert_eq!(redirect, f1.addr, "redirect must point at the new primary");
    let mut redirected = TcpStream::connect(&redirect).expect("follow redirect");
    let _ = redirected.set_nodelay(true);
    let _ = redirected.set_read_timeout(Some(ACK_TIMEOUT));
    assert_eq!(
        submit_acked(&mut redirected, driven_to + 1, seq_ops(driven_to + 1)),
        "ok",
        "redirected resubmit must apply fresh on the new primary"
    );
    let redirect_followed = 1u64;
    eprintln!("# split-brain phase 5: fenced redirect followed to {redirect}, seq {} acked", total);

    // Every acked write must live on the new primary: the pre-partition
    // prefix was under the promotion frontier, everything after was
    // acked by the new primary itself.
    let acked_frontier = total;
    wait_min_seq(&mut f1conn, acked_frontier, &probe, "new primary frontier");
    let lost_acked_writes = pre.saturating_sub(promotion.writable_from);

    // ---- Phase 6: 25-query oracle equality on the new primary AND the
    // re-subscribed follower (sibling convergence is only proven if the
    // follower answers from the same history).
    wait_min_seq(&mut f2conn, acked_frontier, &probe, "follower2 final");
    eprintln!("# split-brain phase 6: verifying 25 BI queries on both survivors");
    let (verified, mismatches) = harness::verify_every_batch(
        base_store,
        &batches,
        args.config.seed,
        &mut [("new-primary", &mut f1conn), ("follower2", &mut f2conn)],
        acked_frontier,
        "SPLIT-BRAIN",
    );

    drop((f1conn, f2conn, redirected, trigger_conn));
    primary.terminate();
    f1.terminate();
    f2.terminate();
    let _ = std::fs::remove_dir_all(&base_dir);

    assert_eq!(zombie_acks, 0, "the fenced ex-primary acked post-promotion writes");
    assert_eq!(lost_acked_writes, 0, "acked writes missing from the new primary");
    assert_eq!(mismatches, 0, "survivors diverge from the every-batch oracle");

    // ---- Report.
    snb_bench::print_table(
        "E18: split-brain",
        &[
            "batches",
            "partition@",
            "epoch",
            "promote",
            "first ack",
            "resubscribe",
            "zombie acks",
            "lost acked",
            "verified",
        ],
        &[vec![
            total.to_string(),
            partitioned_at.to_string(),
            promotion.epoch.to_string(),
            format!("{promote_ms} ms"),
            format!("{first_ack_ms} ms"),
            format!("{resubscribe_ms} ms"),
            zombie_acks.to_string(),
            lost_acked_writes.to_string(),
            verified.to_string(),
        ]],
    );

    let body = format!(
        "{{\"meta\": {}, \"total_batches\": {total}, \"partitioned_at_seq\": {partitioned_at}, \
         \"partition_ms\": {PARTITION_MS}, \"writable_from\": {}, \"epoch\": {}, \
         \"promote_ms\": {promote_ms}, \"first_ack_ms\": {first_ack_ms}, \
         \"resubscribe_ms\": {resubscribe_ms}, \"fenced_after_ms\": {fenced_after_ms}, \
         \"resubmitted\": {resubmitted}, \
         \"rededuped\": {rededuped}, \"zombie_write_attempts\": {zombie_attempts}, \
         \"zombie_silent\": {zombie_silent}, \"zombie_acks_after_promotion\": {zombie_acks}, \
         \"fenced_rejects_observed\": {fenced_rejects}, \"redirect_followed\": {redirect_followed}, \
         \"lost_acked_writes\": {lost_acked_writes}, \"queries_verified\": {verified}, \
         \"mismatches\": {mismatches}}}",
        snb_bench::meta_json(&args.config),
        promotion.writable_from,
        promotion.epoch,
    );
    harness::write_block(&args.out, "failover", &body);
    eprintln!(
        "# split-brain: PASS (epoch {}, {zombie_attempts} zombie attempts all refused or \
         black-holed, {verified} queries verified)",
        promotion.epoch
    );
}
