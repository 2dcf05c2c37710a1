//! The service test: open loop over loopback TCP against an
//! in-process, read-only server. One pipelined connection, one sender
//! thread on a fixed absolute schedule and one receiver thread; mostly
//! IS 1–7 short reads with a minority of mid-weight BI 2/5/13.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snb_bi::QuerySummary;
use snb_core::Rng;
use snb_engine::QueryContext;
use snb_interactive::IsParams;
use snb_server::proto::{self, Request};
use snb_server::{Lane, Response, Server, ServiceParams};
use snb_store::{PartitionedStore, StoreHandle};

use crate::setup::Curation;
use crate::throughput::server_config;
use crate::trace::Tracer;

/// Offered load in requests per second: about a quarter of the
/// ~4500 req/s one connection sustains closed-loop with this mix at
/// SF 1 on a 2-core host, so queues stay short.
pub const RATE: f64 = 1000.0;
/// Requests per run at the minimum size.
pub const MIN_REQUESTS: usize = 10000;
/// One request in `HEAVY_EVERY` is a BI read, the rest are IS reads.
/// On a 2-core host a larger BI share makes the short-read tail track
/// BI execution instead of the service layers.
pub const HEAVY_EVERY: usize = 50;
/// Short reads per latency window: each short-read percentile is the
/// median over consecutive windows of that window's percentile. Each
/// window's p99 has ten samples beyond it.
pub const TAIL_WINDOW: usize = 1000;
pub const HEAVY_QUERIES: [usize; 3] = [2, 5, 13];
/// Per-lane latency limits (from the scheduled send time) for
/// `svc_good_ratio`.
pub const SHORT_LIMIT_MS: f64 = 5.0;
pub const HEAVY_LIMIT_MS: f64 = 200.0;
/// A run whose sender is later than this (p99) is invalid.
pub const SENDER_LATE_BOUND_MS: f64 = 50.0;
/// Time allowed for the last responses after the last send.
const DRAIN: Duration = Duration::from_secs(10);

enum Expect {
    Heavy(QuerySummary),
    Short(usize),
}

#[derive(Default)]
pub struct ServiceOut {
    pub requests: usize,
    pub ok: usize,
    pub good: usize,
    /// Short-read latency from the due time, µs.
    pub short_us: Vec<f64>,
    /// Heavy-read latency from the due time, ms.
    pub heavy_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub short_queue_us: Vec<f64>,
    pub short_exec_us: Vec<f64>,
    pub short_wire_us: Vec<f64>,
    pub heavy_exec_ms: Vec<f64>,
    /// In-process `run_short` time of every short request, µs.
    pub is_exec_us: Vec<f64>,
    pub served: [u64; 2],
    pub shed: [u64; 2],
    pub server_start_s: f64,
    pub errors: Vec<String>,
}

/// A running service test: the server, its connection, and the answers
/// collected so far. Requests are sent in slices, so a run can spread
/// them over its whole length.
pub struct ServiceTest<'a> {
    post: &'a PartitionedStore,
    cur: &'a Curation,
    heavy: Vec<(&'a snb_bi::BiParams, QuerySummary)>,
    rng: Rng,
    server: Server,
    conn: TcpStream,
    rx: TcpStream,
    sent_so_far: usize,
    before: snb_server::ServiceReport,
    pub out: ServiceOut,
}

impl<'a> ServiceTest<'a> {
    /// Starts the read-only server over `post` and connects to it.
    pub fn start(
        post: &'a PartitionedStore,
        cur: &'a Curation,
        seed: u64,
        threads: usize,
        profiling: bool,
    ) -> ServiceTest<'a> {
        let mut out = ServiceOut::default();
        if cur.person_keys.is_empty() || cur.message_keys.is_empty() {
            out.errors.push("empty short-read key pool".to_string());
        }
        let ctx = QueryContext::new(threads);
        let heavy = HEAVY_QUERIES
            .iter()
            .flat_map(|&q| cur.bindings[q - 1].iter())
            .map(|b| (b, snb_bi::run_with(post, &ctx, b)))
            .collect();
        let started = Instant::now();
        let mut server = Server::start_shared(
            Arc::new(StoreHandle::new(post.clone())),
            server_config(threads, profiling),
        );
        let addr = server.listen("127.0.0.1:0").expect("bind a loopback port");
        out.server_start_s = started.elapsed().as_secs_f64();
        let before = server.report_now();
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).expect("set TCP_NODELAY");
        let rx = conn.try_clone().expect("clone the connection for the receiver");
        rx.set_read_timeout(Some(DRAIN)).expect("set a read timeout");
        ServiceTest {
            post,
            cur,
            heavy,
            rng: Rng::derive(seed, 0x5e7c, 4),
            server,
            conn,
            rx,
            sent_so_far: 0,
            before,
            out,
        }
    }

    /// Sends `n` requests on the open-loop schedule and checks every
    /// answer.
    pub fn slice(&mut self, n: usize, tracer: &Tracer) {
        if self.cur.person_keys.is_empty() || self.cur.message_keys.is_empty() {
            return;
        }
        // The request schedule and each request's expected answer, built
        // before the slice starts.
        let first_id = self.sent_so_far as u64 + 1;
        let mut frames = Vec::with_capacity(n);
        let mut expect = Vec::with_capacity(n);
        for i in 0..n {
            let k = self.sent_so_far + i;
            let params = if k % HEAVY_EVERY == HEAVY_EVERY - 1 {
                let (b, want) = self.heavy[(k / HEAVY_EVERY) % self.heavy.len()];
                expect.push(Expect::Heavy(want));
                ServiceParams::Bi(b.clone())
            } else {
                let q = 1 + self.rng.index(7) as u8;
                let pool = if q <= 3 { &self.cur.person_keys } else { &self.cur.message_keys };
                let p = IsParams::from_parts(q, pool[self.rng.index(pool.len())]).expect("IS 1-7");
                let t = Instant::now();
                let rows = snb_interactive::run_short(self.post, std::hint::black_box(&p));
                self.out.is_exec_us.push(t.elapsed().as_secs_f64() * 1e6);
                expect.push(Expect::Short(rows));
                ServiceParams::Is(p)
            };
            let mut frame = Vec::new();
            let req = Request { id: k as u64 + 1, deadline_us: 0, min_seq: 0, params };
            proto::write_frame(&mut frame, &proto::encode_request(&req))
                .expect("frame into memory");
            frames.push(frame);
        }
        self.sent_so_far += n;
        self.out.requests += n;

        let t0 = Instant::now() + Duration::from_millis(20);
        let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / RATE);
        let (conn, rx) = (&mut self.conn, &mut self.rx);
        let (sent, answers) = std::thread::scope(|scope| {
            let receiver = scope.spawn(move || {
                let mut answers: Vec<(Instant, Response)> = Vec::with_capacity(n);
                while answers.len() < n {
                    let Ok(payload) = proto::read_frame(rx) else { break };
                    let at = Instant::now();
                    match proto::decode_response(&payload) {
                        Ok(resp) => answers.push((at, resp)),
                        Err(_) => break,
                    }
                }
                answers
            });
            let mut sent = Vec::with_capacity(n);
            for (i, frame) in frames.iter().enumerate() {
                let d = due(i);
                let now = Instant::now();
                if d > now {
                    std::thread::sleep(d - now);
                }
                sent.push(Instant::now());
                if std::io::Write::write_all(conn, frame).is_err() {
                    break;
                }
            }
            (sent, receiver.join().expect("receiver thread"))
        });

        let out = &mut self.out;
        out.late_ms.extend(sent.iter().enumerate().map(|(i, s)| (*s - due(i)).as_secs_f64() * 1e3));
        for (at, resp) in &answers {
            let Some(i) = resp.id.checked_sub(first_id).map(|i| i as usize) else { continue };
            let Some(&sent_at) = sent.get(i) else { continue };
            let from_due = *at - due(i);
            let from_send = *at - sent_at;
            tracer.record("svc.request", 0, resp.id, sent_at, *at);
            let Ok(body) = &resp.body else { continue };
            out.ok += 1;
            let (matches, limit_ms) = match expect[i] {
                Expect::Heavy(want) => {
                    let got =
                        QuerySummary { rows: body.rows as usize, fingerprint: body.fingerprint };
                    out.heavy_ms.push(from_due.as_secs_f64() * 1e3);
                    out.heavy_exec_ms.push(body.exec_us as f64 / 1e3);
                    (got == want, HEAVY_LIMIT_MS)
                }
                Expect::Short(rows) => {
                    let client_us = from_send.as_secs_f64() * 1e6;
                    let wire = client_us - (body.queue_us + body.exec_us) as f64;
                    if wire < 0.0 {
                        out.errors.push(format!(
                            "request {}: queue + exec exceed client latency",
                            resp.id
                        ));
                    }
                    out.short_us.push(from_due.as_secs_f64() * 1e6);
                    out.short_queue_us.push(body.queue_us as f64);
                    out.short_exec_us.push(body.exec_us as f64);
                    out.short_wire_us.push(wire);
                    (body.rows as usize == rows, SHORT_LIMIT_MS)
                }
            };
            if !matches {
                out.errors
                    .push(format!("request {} disagrees with the in-process oracle", resp.id));
            } else if from_due.as_secs_f64() * 1e3 <= limit_ms {
                out.good += 1;
            }
        }
    }

    /// Stops the server and returns everything measured.
    pub fn finish(self) -> ServiceOut {
        let mut out = self.out;
        let after = self.server.report_now();
        drop((self.conn, self.rx));
        self.server.shutdown();
        for lane in [Lane::Short, Lane::Heavy] {
            let l = lane.index();
            out.served[l] = after.served_by_lane[l] - self.before.served_by_lane[l];
            out.shed[l] = after.shed_by_lane[l] - self.before.shed_by_lane[l];
        }
        out
    }
}
