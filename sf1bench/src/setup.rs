//! Set-up: datagen → ingest of the pre-cut bulk store, and parameter
//! curation (BI bindings and the short-read key pools).

use std::time::{Duration, Instant};

use snb_bi::BiParams;
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::graph::{RawForum, RawLike, RawMembership, RawMessage};
use snb_datagen::stream::TimedEvent;
use snb_datagen::{ActivitySink, GeneratorConfig};
use snb_store::{Ix, Store, StreamBuilder};

use crate::trace::Tracer;

/// Scale factor name and value of every workload.
pub const SCALE: &str = "1";
pub const SF: f64 = 1.0;
/// Curated bindings per BI query in the power stream.
pub const BINDINGS_PER_QUERY: usize = 4;
/// Size of each short-read key pool (persons for IS 1–3, messages for
/// IS 4–7).
pub const KEY_POOL: usize = 256;
/// Person chunk size of the streaming generator (the store does not
/// depend on it).
const PERSON_CHUNK: usize = 4096;

/// The SF 1 network: one fixed dataset, the generator's default seed,
/// as LDBC runs fix one dataset per scale factor. The run's `--seed`
/// drives the workload instead (see `main.rs`). Curated bindings are a
/// function of the dataset, and at other datagen seeds the date
/// curation can pick windows where BI 12 and BI 18 do almost no work.
pub fn config() -> GeneratorConfig {
    GeneratorConfig::for_scale_name(SCALE).expect("scale factor 1 is defined")
}

/// Per-layer times of one traced build.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestTimes {
    pub persons_s: f64,
    pub knows_s: f64,
    /// Activity generation minus the time spent inside the sink.
    pub activity_s: f64,
    /// Time inside the `StreamBuilder` calls (persons, knows, sink).
    pub ingest_s: f64,
    pub finish_s: f64,
}

/// Forwards every record to the builder and adds up the time spent in
/// it, so activity generation can be split into self and sink time.
struct TimedSink<'b, 'w> {
    inner: &'b mut StreamBuilder<'w>,
    busy: Duration,
}

impl TimedSink<'_, '_> {
    fn timed(&mut self, f: impl FnOnce(&mut StreamBuilder<'_>)) {
        let t = Instant::now();
        f(self.inner);
        self.busy += t.elapsed();
    }
}

impl ActivitySink for TimedSink<'_, '_> {
    fn forum(&mut self, f: RawForum) {
        self.timed(|b| b.forum(f));
    }
    fn membership(&mut self, m: RawMembership) {
        self.timed(|b| b.membership(m));
    }
    fn message(&mut self, m: RawMessage) {
        self.timed(|b| b.message(m));
    }
    fn like(&mut self, l: RawLike) {
        self.timed(|b| b.like(l));
    }
}

/// The traced build: the same public calls the library's streaming
/// build makes, each inside a span.
pub fn build_traced(
    config: &GeneratorConfig,
    tracer: &Tracer,
    parent: u64,
) -> (Store, Vec<TimedEvent>, IngestTimes) {
    let mut times = IngestTimes::default();
    let open = tracer.begin("datagen.world", parent, 0);
    let world = StaticWorld::build(config.seed);
    times.persons_s += tracer.end(open).as_secs_f64();
    let mut builder = StreamBuilder::new(&world, Some(config.stream_cut()));

    let mut persons = Vec::with_capacity(config.persons as usize);
    let mut chunks = snb_datagen::person_chunks(config, &world, PERSON_CHUNK);
    loop {
        let open = tracer.begin("datagen.persons", parent, 0);
        let next = chunks.next();
        times.persons_s += tracer.end(open).as_secs_f64();
        let Some(chunk) = next else { break };
        let (_, took) = tracer.time("store.add_persons", parent, 0, || builder.add_persons(&chunk));
        times.ingest_s += took.as_secs_f64();
        persons.extend(chunk);
    }
    let (knows, took) = tracer
        .time("datagen.knows", parent, 0, || snb_datagen::knows::generate_knows(config, &persons));
    times.knows_s = took.as_secs_f64();
    let (_, took) = tracer.time("store.add_knows", parent, 0, || builder.add_knows(&knows));
    times.ingest_s += took.as_secs_f64();

    let mut sink = TimedSink { inner: &mut builder, busy: Duration::ZERO };
    let (_, took) = tracer.time("datagen.activity", parent, 0, || {
        snb_datagen::generate_activity_into(config, &world, &persons, &knows, &mut sink)
    });
    times.activity_s = (took - sink.busy).as_secs_f64();
    times.ingest_s += sink.busy.as_secs_f64();
    drop((persons, knows));

    let ((store, tail), took) = tracer.time("store.finish", parent, 0, || builder.finish());
    times.finish_s = took.as_secs_f64();
    (store, tail, times)
}

/// Parameters curated from the bulk store.
pub struct Curation {
    /// `BINDINGS_PER_QUERY` curated bindings for each of BI 1–25.
    pub bindings: Vec<Vec<BiParams>>,
    /// Curated person ids (IS 1–3 keys).
    pub person_keys: Vec<u64>,
    /// Curated message ids (IS 4–7 keys).
    pub message_keys: Vec<u64>,
}

impl Curation {
    /// Person ids the curated bindings and key pools name, which the
    /// refresh deletes must leave alone.
    pub fn protected_persons(&self) -> Vec<u64> {
        let mut out = self.person_keys.clone();
        for b in self.bindings.iter().flatten() {
            if let BiParams::Q25(p) = b {
                out.extend([p.person1_id, p.person2_id]);
            }
        }
        out
    }
}

pub fn curate(store: &Store, seed: u64) -> Curation {
    let gen = snb_params::ParamGen::new(store, seed);
    let bindings = (1..=25u8).map(|q| gen.bi_params(q, BINDINGS_PER_QUERY)).collect();
    // Short reads cost in proportion to the rows they touch: curate
    // persons by friends + messages and messages by replies + likes,
    // so every key in a pool costs about the same.
    let persons: Vec<(Ix, u64)> = (0..store.persons.len() as Ix)
        .map(|p| (p, store.knows.degree(p) as u64 + store.person_messages.degree(p) as u64))
        .filter(|&(_, f)| f > 0)
        .collect();
    let messages: Vec<(Ix, u64)> = (0..store.messages.len() as Ix)
        .map(|m| (m, store.message_replies.degree(m) as u64 + store.message_likes.degree(m) as u64))
        .filter(|&(_, f)| f > 0)
        .collect();
    let person_keys = snb_params::curate(&persons, KEY_POOL)
        .into_iter()
        .map(|p| store.persons.id[p as usize])
        .collect();
    let message_keys = snb_params::curate(&messages, KEY_POOL)
        .into_iter()
        .map(|m| store.messages.id[m as usize])
        .collect();
    Curation { bindings, person_keys, message_keys }
}
