//! Refresh batches: the stream tail's inserts in order, plus seeded
//! deep-delete batches (DEL 1–8).
//!
//! Deletes are drawn only from bulk entities whose whole cascade no
//! event anywhere in the stream tail references, and that no curated
//! binding or key names. A refresh therefore never orphans a later
//! insert, cascades touch bulk data only, and the counts each batch
//! removes depend on the seed alone, not on how many batches a run
//! replays.

use std::collections::HashSet;

use snb_core::{DateTime, Rng};
use snb_datagen::stream::{TimedEvent, UpdateEvent};
use snb_store::{DeleteOp, DeleteStats, Ix, Store};

use crate::setup::Curation;

/// Insert events per write batch of the throughput test.
pub const INSERT_BATCH: usize = 1024;
/// Every `DELETE_EVERY`-th write batch is a deep-delete batch. With
/// one in ten, delete batches and the batches queued behind them are
/// clearly more than a tenth of all acks, so `refresh_ack_p90_ms`
/// measures the delete path instead of flipping between it and the
/// insert tail from run to run.
pub const DELETE_EVERY: u64 = 10;
/// Cascades larger than this many messages are skipped, so one batch
/// cannot swallow a whole group forum.
const MAX_CASCADE_MESSAGES: usize = 2000;
/// Draws per requested operation before giving up on it.
const ATTEMPTS: usize = 500;
const DAY_MS: i64 = 86_400_000;

/// What every refresh of one run applies, fixed by the seed.
pub struct RefreshPlan {
    /// `tail[..day_one]` is the power test's simulated day of inserts.
    pub day_one: usize,
    /// The power test's delete batch.
    pub power_deletes: Vec<DeleteOp>,
    /// The throughput test's delete batches, in order.
    pub delete_batches: Vec<Vec<DeleteOp>>,
}

/// A write batch of the throughput test.
pub enum Batch<'t> {
    Inserts(&'t [TimedEvent]),
    Deletes(&'t [DeleteOp]),
}

impl RefreshPlan {
    /// The `n` write batches of the throughput test: insert chunks
    /// continue the tail after the power test's day, and every
    /// `DELETE_EVERY`-th batch deletes.
    pub fn batches<'t>(&'t self, tail: &'t [TimedEvent], n: usize) -> Vec<Batch<'t>> {
        let mut chunks = tail[self.day_one..].chunks(INSERT_BATCH);
        (1..=n as u64)
            .map(|seq| {
                if seq % DELETE_EVERY == 0 && !self.delete_batches.is_empty() {
                    Batch::Deletes(&self.delete_batches[(seq / DELETE_EVERY - 1) as usize])
                } else {
                    Batch::Inserts(chunks.next().expect("stream tail holds enough insert batches"))
                }
            })
            .collect()
    }

    /// Delete batches needed by `n` write batches.
    pub fn deletes_for(n: usize) -> usize {
        n / DELETE_EVERY as usize
    }
}

/// Raw ids the stream tail references.
#[derive(Default)]
struct Refs {
    persons: HashSet<u64>,
    forums: HashSet<u64>,
    messages: HashSet<u64>,
}

fn tail_refs(tail: &[TimedEvent]) -> Refs {
    let mut r = Refs::default();
    for ev in tail {
        match &ev.event {
            UpdateEvent::AddPerson(_) => {}
            UpdateEvent::AddLikePost(l) | UpdateEvent::AddLikeComment(l) => {
                r.persons.insert(l.person.0);
                r.messages.insert(l.message.0);
            }
            UpdateEvent::AddForum(f) => {
                r.persons.insert(f.moderator.0);
            }
            UpdateEvent::AddMembership(m) => {
                r.persons.insert(m.person.0);
                r.forums.insert(m.forum.0);
            }
            UpdateEvent::AddPost(m) | UpdateEvent::AddComment(m) => {
                r.persons.insert(m.creator.0);
                r.forums.extend(m.forum.map(|f| f.0));
                r.messages.extend(m.reply_of.map(|p| p.0));
                r.messages.insert(m.root_post.0);
            }
            UpdateEvent::AddKnows(k) => {
                r.persons.insert(k.a.0);
                r.persons.insert(k.b.0);
            }
        }
    }
    r
}

/// Dense ids a delete removes, mirroring the store's cascade rules:
/// a person takes the forums they moderate and the messages they
/// wrote, a forum takes its posts, a message takes its reply subtree.
#[derive(Default)]
struct Closure {
    persons: Vec<Ix>,
    forums: Vec<Ix>,
    messages: Vec<Ix>,
}

fn closure(s: &Store, persons: &[Ix], forums: &[Ix], messages: &[Ix]) -> Closure {
    let mut c =
        Closure { persons: persons.to_vec(), forums: forums.to_vec(), messages: Vec::new() };
    for &p in persons {
        c.forums.extend(s.person_moderates.targets_of(p));
    }
    let mut seen: HashSet<Ix> = HashSet::new();
    let mut stack: Vec<Ix> = messages.to_vec();
    for &f in &c.forums {
        stack.extend(s.forum_posts.targets_of(f));
    }
    for &p in persons {
        stack.extend(s.person_messages.targets_of(p));
    }
    while let Some(m) = stack.pop() {
        if seen.insert(m) {
            c.messages.push(m);
            if c.messages.len() > MAX_CASCADE_MESSAGES {
                break;
            }
            stack.extend(s.message_replies.targets_of(m));
        }
    }
    c
}

/// Selection state shared by every batch of one plan.
struct Picker<'s> {
    s: &'s Store,
    refs: Refs,
    rng: Rng,
    /// Entities some chosen delete removes.
    doomed: [HashSet<Ix>; 3],
    /// Endpoints of chosen edge deletes and protected entities: no
    /// cascade may remove them.
    kept: [HashSet<Ix>; 3],
    edges: HashSet<(u8, Ix, Ix)>,
}

const P: usize = 0;
const F: usize = 1;
const M: usize = 2;

impl Picker<'_> {
    fn free(&self, kind: usize, ix: Ix) -> bool {
        !self.doomed[kind].contains(&ix)
    }

    /// Accepts `c` if nothing in it is referenced, protected or
    /// already claimed by another delete.
    fn take(&mut self, c: Closure) -> bool {
        if c.messages.len() > MAX_CASCADE_MESSAGES {
            return false;
        }
        let s = self.s;
        let clash = |kind: usize, ix: &Ix, refs: &HashSet<u64>, id: u64| {
            self.doomed[kind].contains(ix) || self.kept[kind].contains(ix) || refs.contains(&id)
        };
        if c.persons.iter().any(|p| clash(P, p, &self.refs.persons, s.persons.id[*p as usize]))
            || c.forums.iter().any(|f| clash(F, f, &self.refs.forums, s.forums.id[*f as usize]))
            || c.messages
                .iter()
                .any(|m| clash(M, m, &self.refs.messages, s.messages.id[*m as usize]))
        {
            return false;
        }
        self.doomed[P].extend(c.persons);
        self.doomed[F].extend(c.forums);
        self.doomed[M].extend(c.messages);
        true
    }

    fn person(&mut self) -> Option<DeleteOp> {
        for _ in 0..ATTEMPTS {
            let p = self.rng.index(self.s.persons.len()) as Ix;
            if self.take(closure(self.s, &[p], &[], &[])) {
                return Some(DeleteOp::Person(self.s.persons.id[p as usize]));
            }
        }
        None
    }

    fn forum(&mut self) -> Option<DeleteOp> {
        for _ in 0..ATTEMPTS {
            let f = self.rng.index(self.s.forums.len()) as Ix;
            if self.take(closure(self.s, &[], &[f], &[])) {
                return Some(DeleteOp::Forum(self.s.forums.id[f as usize]));
            }
        }
        None
    }

    fn message(&mut self, post: bool) -> Option<DeleteOp> {
        for _ in 0..ATTEMPTS {
            let m = self.rng.index(self.s.messages.len()) as Ix;
            if self.s.messages.is_post(m) == post && self.take(closure(self.s, &[], &[], &[m])) {
                return Some(DeleteOp::Message(self.s.messages.id[m as usize]));
            }
        }
        None
    }

    /// An edge delete: `pick` draws an edge `(person, other)` next to a
    /// random person, and the edge is taken if neither end is doomed.
    fn edge(
        &mut self,
        tag: u8,
        other_kind: usize,
        pick: impl Fn(&Store, Ix, &mut Rng) -> Option<Ix>,
        op: impl Fn(&Store, Ix, Ix) -> DeleteOp,
    ) -> Option<DeleteOp> {
        for _ in 0..ATTEMPTS {
            let p = self.rng.index(self.s.persons.len()) as Ix;
            let Some(x) = pick(self.s, p, &mut self.rng) else { continue };
            let key = if other_kind == P { (tag, p.min(x), p.max(x)) } else { (tag, p, x) };
            if self.free(P, p) && self.free(other_kind, x) && self.edges.insert(key) {
                self.kept[P].insert(p);
                self.kept[other_kind].insert(x);
                return Some(op(self.s, p, x));
            }
        }
        None
    }

    fn like(&mut self, on_post: bool) -> Option<DeleteOp> {
        self.edge(
            if on_post { 2 } else { 3 },
            M,
            |s, p, rng| {
                let likes: Vec<Ix> = s
                    .person_likes
                    .targets_of(p)
                    .filter(|&m| s.messages.is_post(m) == on_post)
                    .collect();
                (!likes.is_empty()).then(|| likes[rng.index(likes.len())])
            },
            |s, p, m| DeleteOp::Like(s.persons.id[p as usize], s.messages.id[m as usize]),
        )
    }

    fn membership(&mut self) -> Option<DeleteOp> {
        self.edge(
            5,
            F,
            |s, p, rng| {
                let forums: Vec<Ix> = s.member_forum.targets_of(p).collect();
                (!forums.is_empty()).then(|| forums[rng.index(forums.len())])
            },
            |s, p, f| DeleteOp::Membership(s.persons.id[p as usize], s.forums.id[f as usize]),
        )
    }

    fn knows(&mut self) -> Option<DeleteOp> {
        self.edge(
            8,
            P,
            |s, p, rng| {
                let friends: Vec<Ix> = s.knows.targets_of(p).collect();
                (!friends.is_empty()).then(|| friends[rng.index(friends.len())])
            },
            |s, a, b| DeleteOp::Knows(s.persons.id[a as usize], s.persons.id[b as usize]),
        )
    }

    /// One batch: DEL 1 ×2, DEL 4, DEL 6, DEL 7, then the edge deletes
    /// DEL 2 ×2, DEL 3 ×2, DEL 5 ×2, DEL 8 ×2.
    fn batch(&mut self) -> Vec<DeleteOp> {
        let mut ops = Vec::new();
        ops.extend(self.person());
        ops.extend(self.person());
        ops.extend(self.forum());
        ops.extend(self.message(true));
        ops.extend(self.message(false));
        for _ in 0..2 {
            ops.extend(self.like(true));
            ops.extend(self.like(false));
            ops.extend(self.membership());
            ops.extend(self.knows());
        }
        ops
    }
}

/// Plans the refreshes of the store built from the datagen seed:
/// with `Some(n)` deletes, the power test's delete batch and `n`
/// throughput delete batches; with `None`, inserts only.
pub fn plan(
    s: &Store,
    tail: &[TimedEvent],
    cut: DateTime,
    seed: u64,
    cur: &Curation,
    delete_batches: Option<usize>,
) -> RefreshPlan {
    let end_of_day = cut.plus_millis(DAY_MS);
    let day_one = tail.partition_point(|e| e.timestamp < end_of_day);
    let Some(delete_batches) = delete_batches else {
        return RefreshPlan { day_one, power_deletes: Vec::new(), delete_batches: Vec::new() };
    };
    let mut kept: [HashSet<Ix>; 3] = Default::default();
    kept[P].extend(cur.protected_persons().iter().filter_map(|&id| s.person(id).ok()));
    kept[M].extend(cur.message_keys.iter().filter_map(|&id| s.message(id).ok()));
    let mut picker = Picker {
        s,
        refs: tail_refs(tail),
        rng: Rng::derive(seed, 0xde1e7e, 1),
        doomed: Default::default(),
        kept,
        edges: HashSet::new(),
    };
    let power_deletes = picker.batch();
    let delete_batches = (0..delete_batches).map(|_| picker.batch()).collect();
    RefreshPlan { day_one, power_deletes, delete_batches }
}

/// All rows a delete batch removed, cascades included.
pub fn removed_rows(st: &DeleteStats) -> u64 {
    (st.persons + st.forums + st.messages + st.likes + st.memberships + st.knows) as u64
}
