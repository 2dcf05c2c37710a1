//! Streaming datagen→ingest: build a [`Store`] directly from the
//! generator's record stream without materialising the full
//! [`RawGraph`].
//!
//! The classic path ([`crate::build::store_for_config`]) holds every raw
//! record — dominated by message content `String`s — *and* the columnar
//! store at the same time, roughly doubling peak memory. The streaming
//! path keeps only what later passes genuinely need:
//!
//! * persons and `knows` edges (both O(persons), a sliver of the data)
//!   because the activity pass draws repliers/likers from the whole
//!   friendship graph;
//! * compact edge-index accumulators (`(u32, u32, payload)` triples) for
//!   the CSR builds at the end;
//! * three dense creation-date ledgers (a few bytes per entity) so the
//!   update-stream tail can compute dependant timestamps without the
//!   bulk records.
//!
//! Every forum/membership/message/like flows straight from
//! [`ActivitySink`] into columnar form and is dropped. Emission order is
//! dependency-safe (see the sink contract), so ingestion is single-pass:
//! a comment's parent and a post's forum are always already resolved.
//! The result is bit-identical to the bulk path — pinned by
//! `streaming_build_matches_bulk` below.

use snb_core::datetime::DateTime;
use snb_core::model::MessageKind;

use snb_datagen::dictionaries::{StaticWorld, BROWSERS};
use snb_datagen::graph::{
    RawForum, RawGraph, RawKnows, RawLike, RawMembership, RawMessage, RawPerson,
};
use snb_datagen::stream::TimedEvent;
use snb_datagen::{ActivitySink, GeneratorConfig};

use crate::adj::Adj;
use crate::columns::{Ix, NONE};
use crate::store::Store;

/// How many persons each generation chunk holds. Small enough that a
/// chunk is a rounding error next to the store, large enough that the
/// per-chunk overhead vanishes.
const PERSON_CHUNK: usize = 4096;

/// Incremental store builder fed by the generator's record stream.
///
/// Records must arrive in the generator's dependency order: all persons,
/// then all `knows` edges, then activity via the [`ActivitySink`] impl.
/// [`StreamBuilder::finish`] assembles the CSR adjacencies and returns
/// the store plus (when a cut was given) the update-event tail.
pub struct StreamBuilder<'w> {
    world: &'w StaticWorld,
    /// Records at/after this instant are withheld from the store and
    /// (if set) captured for the update streams.
    cut: Option<DateTime>,
    s: Store,

    // Dense creation-date ledgers over ALL generated entities (ids are
    // sequential), bulk and tail alike — tail events may depend on bulk
    // entities.
    person_created: Vec<DateTime>,
    forum_created: Vec<DateTime>,
    message_created: Vec<(DateTime, MessageKind)>,
    /// Tail records (at/after `cut`) kept for update-stream synthesis;
    /// stays empty when no cut is configured.
    tail: RawGraph,

    // Edge accumulators, in exactly the order the bulk path produces
    // them so the stable CSR counting sort yields identical adjacency.
    interest_edges: Vec<(Ix, Ix, ())>,
    study_edges: Vec<(Ix, Ix, i32)>,
    work_edges: Vec<(Ix, Ix, i32)>,
    city_edges: Vec<(Ix, Ix, ())>,
    knows_edges: Vec<(Ix, Ix, DateTime)>,
    forum_tag_edges: Vec<(Ix, Ix, ())>,
    moderates: Vec<(Ix, Ix, ())>,
    member_edges: Vec<(Ix, Ix, DateTime)>,
    tag_edges: Vec<(Ix, Ix, ())>,
    creator_edges: Vec<(Ix, Ix, ())>,
    forum_post_edges: Vec<(Ix, Ix, ())>,
    reply_edges: Vec<(Ix, Ix, ())>,
    like_edges: Vec<(Ix, Ix, DateTime)>,
}

impl<'w> StreamBuilder<'w> {
    /// A builder with the static world loaded. Pass `Some(cut)` to
    /// withhold the stream tail (records at/after the cut) from the
    /// store and capture it for [`StreamBuilder::finish`] to turn into
    /// update events.
    pub fn new(world: &'w StaticWorld, cut: Option<DateTime>) -> Self {
        let mut s = Store::default();
        crate::build::load_static(&mut s, world);
        StreamBuilder {
            world,
            cut,
            s,
            person_created: Vec::new(),
            forum_created: Vec::new(),
            message_created: Vec::new(),
            tail: RawGraph::default(),
            interest_edges: Vec::new(),
            study_edges: Vec::new(),
            work_edges: Vec::new(),
            city_edges: Vec::new(),
            knows_edges: Vec::new(),
            forum_tag_edges: Vec::new(),
            moderates: Vec::new(),
            member_edges: Vec::new(),
            tag_edges: Vec::new(),
            creator_edges: Vec::new(),
            forum_post_edges: Vec::new(),
            reply_edges: Vec::new(),
            like_edges: Vec::new(),
        }
    }

    fn keep(&self, t: DateTime) -> bool {
        self.cut.is_none_or(|c| t < c)
    }

    /// Ingests one chunk of persons (columns + static edges).
    pub fn add_persons(&mut self, chunk: &[RawPerson]) {
        let cut = self.cut;
        let keep = |t: DateTime| cut.is_none_or(|c| t < c);
        let s = &mut self.s;
        for p in chunk {
            self.person_created.push(p.creation_date);
            if !keep(p.creation_date) {
                if cut.is_some() {
                    self.tail.persons.push(p.clone());
                }
                continue;
            }
            let ix = s.persons.len() as Ix;
            s.person_ix.insert(p.id.0, ix);
            s.persons.id.push(p.id.0);
            s.persons.first_name.push(p.first_name);
            s.persons.last_name.push(p.last_name);
            s.persons.gender.push(p.gender);
            s.persons.birthday.push(p.birthday);
            s.persons.creation_date.push(p.creation_date);
            s.persons.location_ip.push(&p.location_ip);
            s.persons.browser.push(BROWSERS[p.browser as usize].0);
            let city = s.place_ix[&p.city.0];
            s.persons.city.push(city);
            s.persons.emails.push_row(&p.emails);
            s.persons
                .speaks
                .push_row(p.languages.iter().map(|&l| self.world.languages[l as usize]));
            for t in &p.interests {
                self.interest_edges.push((ix, s.tag_ix[&t.0], ()));
            }
            if let Some((org, year)) = p.study_at {
                self.study_edges.push((ix, s.org_ix[&org.0], year));
            }
            for &(org, from) in &p.work_at {
                self.work_edges.push((ix, s.org_ix[&org.0], from));
            }
            self.city_edges.push((city, ix, ()));
        }
    }

    /// Ingests the `knows` edges (call after all persons).
    pub fn add_knows(&mut self, knows: &[RawKnows]) {
        for k in knows {
            if !self.keep(k.creation_date) {
                if self.cut.is_some() {
                    self.tail.knows.push(*k);
                }
                continue;
            }
            let (Some(&a), Some(&b)) = (self.s.person_ix.get(&k.a.0), self.s.person_ix.get(&k.b.0))
            else {
                continue;
            };
            self.knows_edges.push((a, b, k.creation_date));
            self.knows_edges.push((b, a, k.creation_date));
        }
    }

    /// Assembles adjacency, rebuilds the date index and returns the
    /// store plus the update-event tail (empty without a cut).
    pub fn finish(mut self) -> (Store, Vec<TimedEvent>) {
        {
            let s = &mut self.s;
            let np = s.persons.len();
            let nt = s.tags.len();
            let nf = s.forums.len();
            let nm = s.messages.len();

            let (pi, ip) = crate::adj::forward_reverse(np, nt, &self.interest_edges);
            *s.person_interest = pi;
            *s.interest_person = ip;
            *s.person_study = Adj::from_edges(np, &self.study_edges);
            *s.person_work = Adj::from_edges(np, &self.work_edges);
            *s.city_person = Adj::from_edges(s.places.len(), &self.city_edges);
            *s.knows = Adj::from_edges(np, &self.knows_edges);

            let (ft, tf) = crate::adj::forward_reverse(nf, nt, &self.forum_tag_edges);
            *s.forum_tag = ft;
            *s.tag_forum = tf;
            *s.person_moderates = Adj::from_edges(np, &self.moderates);
            *s.forum_member = Adj::from_edges(nf, &self.member_edges);
            let rev: Vec<(u32, u32, DateTime)> =
                self.member_edges.iter().map(|&(f, p, d)| (p, f, d)).collect();
            *s.member_forum = Adj::from_edges(np, &rev);

            let (mt, tm) = crate::adj::forward_reverse(nm, nt, &self.tag_edges);
            *s.message_tag = mt;
            *s.tag_message = tm;
            *s.person_messages = Adj::from_edges(np, &self.creator_edges);
            *s.forum_posts = Adj::from_edges(nf, &self.forum_post_edges);
            *s.message_replies = Adj::from_edges(nm, &self.reply_edges);

            *s.person_likes = Adj::from_edges(np, &self.like_edges);
            let rev: Vec<(u32, u32, DateTime)> =
                self.like_edges.iter().map(|&(p, m, d)| (m, p, d)).collect();
            *s.message_likes = Adj::from_edges(nm, &rev);

            s.rebuild_date_index();
            s.shrink_columns();
        }
        let events = match self.cut {
            Some(cut) => snb_datagen::stream::build_update_streams_dense(
                &self.tail,
                &self.person_created,
                &self.forum_created,
                &self.message_created,
                cut,
            ),
            None => Vec::new(),
        };
        (self.s, events)
    }
}

impl ActivitySink for StreamBuilder<'_> {
    fn forum(&mut self, f: RawForum) {
        self.forum_created.push(f.creation_date);
        if !self.keep(f.creation_date) {
            if self.cut.is_some() {
                self.tail.forums.push(f);
            }
            return;
        }
        let s = &mut self.s;
        let Some(&moderator) = s.person_ix.get(&f.moderator.0) else { return };
        let ix = s.forums.len() as Ix;
        s.forum_ix.insert(f.id.0, ix);
        s.forums.id.push(f.id.0);
        s.forums.title.push(&f.title);
        s.forums.creation_date.push(f.creation_date);
        s.forums.moderator.push(moderator);
        for t in &f.tags {
            self.forum_tag_edges.push((ix, s.tag_ix[&t.0], ()));
        }
        self.moderates.push((moderator, ix, ()));
    }

    fn membership(&mut self, m: RawMembership) {
        if !self.keep(m.join_date) {
            if self.cut.is_some() {
                self.tail.memberships.push(m);
            }
            return;
        }
        let (Some(&f), Some(&p)) =
            (self.s.forum_ix.get(&m.forum.0), self.s.person_ix.get(&m.person.0))
        else {
            return;
        };
        self.member_edges.push((f, p, m.join_date));
    }

    fn message(&mut self, m: RawMessage) {
        self.message_created.push((m.creation_date, m.kind));
        if !self.keep(m.creation_date) {
            if self.cut.is_some() {
                self.tail.messages.push(m);
            }
            return;
        }
        let s = &mut self.s;
        let ix = s.messages.len() as Ix;
        s.message_ix.insert(m.id.0, ix);
        s.messages.id.push(m.id.0);
        s.messages.kind.push(m.kind);
        s.messages.creation_date.push(m.creation_date);
        let creator = s.person_ix[&m.creator.0];
        s.messages.creator.push(creator);
        s.messages.country.push(s.place_ix[&m.country.0]);
        s.messages.browser.push(BROWSERS[m.browser as usize].0);
        s.messages.location_ip.push(&m.location_ip);
        s.messages.content.push(&m.content);
        s.messages.length.push(m.length);
        s.messages.image_file.push(m.image_file.as_deref().unwrap_or_default());
        s.messages
            .language
            .push(m.language.map(|l| self.world.languages[l as usize]).unwrap_or_default());
        let forum_ix = match m.forum {
            Some(f) => s.forum_ix[&f.0],
            None => NONE,
        };
        s.messages.forum.push(forum_ix);
        // Dependency-safe emission order: a parent/root always has a
        // smaller id and was ingested first, so single-pass resolution
        // replaces the bulk path's second pass.
        let parent_ix = match m.reply_of {
            Some(parent) => {
                let p = s.message_ix[&parent.0];
                self.reply_edges.push((p, ix, ()));
                p
            }
            None => NONE,
        };
        s.messages.reply_of.push(parent_ix);
        s.messages.root_post.push(s.message_ix[&m.root_post.0]);
        for t in &m.tags {
            self.tag_edges.push((ix, s.tag_ix[&t.0], ()));
        }
        self.creator_edges.push((creator, ix, ()));
        if m.kind == MessageKind::Post {
            self.forum_post_edges.push((forum_ix, ix, ()));
        }
    }

    fn like(&mut self, l: RawLike) {
        if !self.keep(l.creation_date) {
            if self.cut.is_some() {
                self.tail.likes.push(l);
            }
            return;
        }
        let (Some(&p), Some(&m)) =
            (self.s.person_ix.get(&l.person.0), self.s.message_ix.get(&l.message.0))
        else {
            return;
        };
        self.like_edges.push((p, m, l.creation_date));
    }
}

/// Runs the generation pipeline chunk-at-a-time, ingesting into the
/// store as records appear. Returns the store plus the update-event
/// tail when `cut` is set.
fn streaming_build(config: &GeneratorConfig, cut: Option<DateTime>) -> (Store, Vec<TimedEvent>) {
    let world = StaticWorld::build(config.seed);
    let mut builder = StreamBuilder::new(&world, cut);

    // Persons arrive in chunks; they stay resident (the knows and
    // activity passes sample the whole population) but that is
    // O(persons) — the message volume that dominates the raw graph
    // streams straight through.
    let mut persons: Vec<RawPerson> = Vec::with_capacity(config.persons as usize);
    for chunk in snb_datagen::person_chunks(config, &world, PERSON_CHUNK) {
        builder.add_persons(&chunk);
        persons.extend(chunk);
    }
    let knows = snb_datagen::knows::generate_knows(config, &persons);
    builder.add_knows(&knows);
    snb_datagen::generate_activity_into(config, &world, &persons, &knows, &mut builder);
    builder.finish()
}

/// Streaming twin of [`crate::build::store_for_config`]: the identical
/// store, built without materialising the raw activity.
pub fn streaming_store_for_config(config: &GeneratorConfig) -> Store {
    streaming_build(config, None).0
}

/// Streaming twin of [`crate::build::bulk_store_and_stream`]: the bulk
/// store plus the sorted update-event tail, with only the tail records
/// (~10%) ever materialised in raw form.
pub fn streaming_bulk_store_and_stream(config: &GeneratorConfig) -> (Store, Vec<TimedEvent>) {
    streaming_build(config, Some(config.stream_cut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{bulk_store_and_stream, store_for_config};
    use snb_core::scale::ScaleFactor;

    fn config(n: u64) -> GeneratorConfig {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = n;
        c
    }

    /// Exhaustive equality between two stores built from the same
    /// config: every column and every adjacency list.
    fn assert_stores_equal(a: &Store, b: &Store) {
        assert_eq!(*a.persons.id, *b.persons.id);
        assert_eq!(*a.forums.id, *b.forums.id);
        assert_eq!(*a.messages.id, *b.messages.id);
        assert_eq!(*a.persons.creation_date, *b.persons.creation_date);
        assert_eq!(*a.messages.creation_date, *b.messages.creation_date);
        assert_eq!(*a.messages.reply_of, *b.messages.reply_of);
        assert_eq!(*a.messages.root_post, *b.messages.root_post);
        assert_eq!(*a.messages.forum, *b.messages.forum);
        assert_eq!(*a.messages.creator, *b.messages.creator);
        assert_eq!(*a.messages.length, *b.messages.length);
        assert_eq!(*a.persons.city, *b.persons.city);
        assert_eq!(*a.message_by_date, *b.message_by_date);
        for i in 0..a.persons.len() {
            assert_eq!(&a.persons.first_name[i], &b.persons.first_name[i]);
            assert_eq!(&a.persons.location_ip[i], &b.persons.location_ip[i]);
            assert_eq!(a.persons.emails.row_vec(i), b.persons.emails.row_vec(i));
            assert_eq!(a.persons.speaks.row_vec(i), b.persons.speaks.row_vec(i));
        }
        for i in 0..a.messages.len() {
            assert_eq!(&a.messages.content[i], &b.messages.content[i]);
            assert_eq!(&a.messages.image_file[i], &b.messages.image_file[i]);
            assert_eq!(&a.messages.language[i], &b.messages.language[i]);
            assert_eq!(&a.messages.browser[i], &b.messages.browser[i]);
        }
        for i in 0..a.forums.len() {
            assert_eq!(&a.forums.title[i], &b.forums.title[i]);
        }
        // Adjacency: identical neighbour sequences everywhere.
        macro_rules! adj_eq {
            ($field:ident, $n:expr) => {
                assert_eq!(a.$field.edge_count(), b.$field.edge_count(), stringify!($field));
                for src in 0..$n as Ix {
                    let an: Vec<_> = a.$field.neighbors(src).collect();
                    let bn: Vec<_> = b.$field.neighbors(src).collect();
                    assert_eq!(an, bn, "{} of {}", stringify!($field), src);
                }
            };
        }
        adj_eq!(knows, a.persons.len());
        adj_eq!(person_interest, a.persons.len());
        adj_eq!(interest_person, a.tags.len());
        adj_eq!(person_study, a.persons.len());
        adj_eq!(person_work, a.persons.len());
        adj_eq!(city_person, a.places.len());
        adj_eq!(forum_tag, a.forums.len());
        adj_eq!(tag_forum, a.tags.len());
        adj_eq!(person_moderates, a.persons.len());
        adj_eq!(forum_member, a.forums.len());
        adj_eq!(member_forum, a.persons.len());
        adj_eq!(message_tag, a.messages.len());
        adj_eq!(tag_message, a.tags.len());
        adj_eq!(person_messages, a.persons.len());
        adj_eq!(forum_posts, a.forums.len());
        adj_eq!(message_replies, a.messages.len());
        adj_eq!(person_likes, a.persons.len());
        adj_eq!(message_likes, a.messages.len());
    }

    #[test]
    fn streaming_build_matches_bulk() {
        let c = config(150);
        let bulk = store_for_config(&c);
        let streamed = streaming_store_for_config(&c);
        streamed.validate_invariants().unwrap();
        assert_stores_equal(&bulk, &streamed);
    }

    #[test]
    fn streaming_split_matches_bulk_split() {
        let c = config(150);
        let (bulk, bulk_events) = bulk_store_and_stream(&c);
        let (streamed, stream_events) = streaming_bulk_store_and_stream(&c);
        streamed.validate_invariants().unwrap();
        assert_stores_equal(&bulk, &streamed);
        // The update-event tails agree event for event.
        assert_eq!(bulk_events.len(), stream_events.len());
        for (x, y) in bulk_events.iter().zip(&stream_events) {
            assert_eq!(x.timestamp, y.timestamp);
            assert_eq!(x.dependent, y.dependent);
            assert_eq!(x.event.operation_id(), y.event.operation_id());
        }
    }

    #[test]
    fn streaming_chunk_boundary_has_no_effect() {
        // Chunked person generation is index-derived, so chunk size is
        // invisible; drive the builder manually with a tiny chunk.
        let c = config(90);
        let world = StaticWorld::build(c.seed);
        let mut b = StreamBuilder::new(&world, None);
        let mut persons = Vec::new();
        for chunk in snb_datagen::person_chunks(&c, &world, 7) {
            b.add_persons(&chunk);
            persons.extend(chunk);
        }
        let knows = snb_datagen::knows::generate_knows(&c, &persons);
        b.add_knows(&knows);
        snb_datagen::generate_activity_into(&c, &world, &persons, &knows, &mut b);
        let (s, events) = b.finish();
        assert!(events.is_empty());
        assert_stores_equal(&store_for_config(&c), &s);
    }
}
