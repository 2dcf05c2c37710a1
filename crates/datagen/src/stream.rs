//! Update streams (spec §2.3.4.3).
//!
//! Records created at or after the bulk/stream cut (the last ~10% of
//! simulated time) are not serialized into the dataset; they become
//! *insert events* IU 1–8, each carrying the event's timestamp `t` and a
//! *dependant timestamp* `t_d` — the latest creation time of any dynamic
//! entity the event references. The driver must not schedule an event
//! before its dependency has been applied.
//!
//! Two stream files are emitted per spec: `updateStream_0_0_person.csv`
//! (IU 1 only) and `updateStream_0_0_forum.csv` (IU 2–8).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use snb_core::datetime::DateTime;
use snb_core::model::MessageKind;
use snb_core::SnbResult;

use crate::dictionaries::{StaticWorld, BROWSERS};
use crate::graph::{RawForum, RawGraph, RawKnows, RawLike, RawMembership, RawMessage, RawPerson};

/// One insert operation (IU 1–8).
#[derive(Clone, Debug)]
pub enum UpdateEvent {
    /// IU 1 — add Person node with its static edges.
    AddPerson(RawPerson),
    /// IU 2 — add like to Post.
    AddLikePost(RawLike),
    /// IU 3 — add like to Comment.
    AddLikeComment(RawLike),
    /// IU 4 — add Forum node.
    AddForum(RawForum),
    /// IU 5 — add Forum membership.
    AddMembership(RawMembership),
    /// IU 6 — add Post node.
    AddPost(RawMessage),
    /// IU 7 — add Comment node.
    AddComment(RawMessage),
    /// IU 8 — add friendship.
    AddKnows(RawKnows),
}

impl UpdateEvent {
    /// The spec's operation id (Table 2.18).
    pub fn operation_id(&self) -> u8 {
        match self {
            UpdateEvent::AddPerson(_) => 1,
            UpdateEvent::AddLikePost(_) => 2,
            UpdateEvent::AddLikeComment(_) => 3,
            UpdateEvent::AddForum(_) => 4,
            UpdateEvent::AddMembership(_) => 5,
            UpdateEvent::AddPost(_) => 6,
            UpdateEvent::AddComment(_) => 7,
            UpdateEvent::AddKnows(_) => 8,
        }
    }
}

/// An event with its schedule metadata (spec Table 2.17).
#[derive(Clone, Debug)]
pub struct TimedEvent {
    /// Event time `t` (the simulated time the action happened).
    pub timestamp: DateTime,
    /// Dependant time `t_d`: latest creation time among referenced
    /// dynamic entities.
    pub dependent: DateTime,
    /// The operation payload.
    pub event: UpdateEvent,
}

/// Builds the sorted update-event streams for everything at/after `cut`.
pub fn build_update_streams(graph: &RawGraph, cut: DateTime) -> Vec<TimedEvent> {
    let person_created: Vec<DateTime> = graph.persons.iter().map(|p| p.creation_date).collect();
    let forum_created: Vec<DateTime> = graph.forums.iter().map(|f| f.creation_date).collect();
    let message_created: Vec<(DateTime, MessageKind)> =
        graph.messages.iter().map(|m| (m.creation_date, m.kind)).collect();
    build_update_streams_dense(graph, &person_created, &forum_created, &message_created, cut)
}

/// [`build_update_streams`] with the creation-date lookups passed in as
/// dense id-indexed slices (generator ids are sequential, so `id.0` is
/// the index).
///
/// This is the streaming-ingest entry point: the caller materialises
/// only the *tail* records (the ~10% at/after `cut`) in `tail`, plus the
/// three creation-date vectors covering **all** entities — a dependant
/// timestamp may reference a bulk entity the tail graph doesn't hold.
/// The vectors cost a few bytes per entity instead of a full
/// [`RawMessage`] per message.
pub fn build_update_streams_dense(
    tail: &RawGraph,
    person_created: &[DateTime],
    forum_created: &[DateTime],
    message_created: &[(DateTime, MessageKind)],
    cut: DateTime,
) -> Vec<TimedEvent> {
    let zero = DateTime(0);

    let mut events = Vec::new();
    for p in tail.persons.iter().filter(|p| p.creation_date >= cut) {
        events.push(TimedEvent {
            timestamp: p.creation_date,
            dependent: zero,
            event: UpdateEvent::AddPerson(p.clone()),
        });
    }
    for k in tail.knows.iter().filter(|k| k.creation_date >= cut) {
        events.push(TimedEvent {
            timestamp: k.creation_date,
            dependent: person_created[k.a.0 as usize].max(person_created[k.b.0 as usize]),
            event: UpdateEvent::AddKnows(*k),
        });
    }
    for f in tail.forums.iter().filter(|f| f.creation_date >= cut) {
        events.push(TimedEvent {
            timestamp: f.creation_date,
            dependent: person_created[f.moderator.0 as usize],
            event: UpdateEvent::AddForum(f.clone()),
        });
    }
    for m in tail.memberships.iter().filter(|m| m.join_date >= cut) {
        events.push(TimedEvent {
            timestamp: m.join_date,
            dependent: person_created[m.person.0 as usize].max(forum_created[m.forum.0 as usize]),
            event: UpdateEvent::AddMembership(*m),
        });
    }
    for m in tail.messages.iter().filter(|m| m.creation_date >= cut) {
        let (dependent, event) = match m.kind {
            MessageKind::Post => {
                let dep = person_created[m.creator.0 as usize]
                    .max(forum_created[m.forum.expect("post has forum").0 as usize]);
                (dep, UpdateEvent::AddPost(m.clone()))
            }
            MessageKind::Comment => {
                let parent = m.reply_of.expect("comment has parent");
                let dep =
                    person_created[m.creator.0 as usize].max(message_created[parent.0 as usize].0);
                (dep, UpdateEvent::AddComment(m.clone()))
            }
        };
        events.push(TimedEvent { timestamp: m.creation_date, dependent, event });
    }
    for l in tail.likes.iter().filter(|l| l.creation_date >= cut) {
        let (msg_created, kind) = message_created[l.message.0 as usize];
        let dependent = person_created[l.person.0 as usize].max(msg_created);
        let event = match kind {
            MessageKind::Post => UpdateEvent::AddLikePost(*l),
            MessageKind::Comment => UpdateEvent::AddLikeComment(*l),
        };
        events.push(TimedEvent { timestamp: l.creation_date, dependent, event });
    }
    // Sort by time; ties are broken so dependencies apply first: node
    // inserts before edge inserts, posts before comments, and comments
    // by ascending id (a comment's parent always has a smaller id, so id
    // order respects reply order at equal timestamps).
    events.sort_by_key(|e| {
        let (priority, entity): (u8, u64) = match &e.event {
            UpdateEvent::AddPerson(p) => (0, p.id.0),
            UpdateEvent::AddForum(f) => (1, f.id.0),
            UpdateEvent::AddPost(m) => (2, m.id.0),
            UpdateEvent::AddComment(m) => (3, m.id.0),
            UpdateEvent::AddMembership(m) => (4, m.person.0),
            UpdateEvent::AddKnows(k) => (4, k.a.0),
            UpdateEvent::AddLikePost(l) | UpdateEvent::AddLikeComment(l) => (5, l.message.0),
        };
        (e.timestamp, priority, entity)
    });
    events
}

/// Writes the two update-stream CSVs under `root` (spec layout:
/// `social_network/updateStream_0_0_{person,forum}.csv`). Timestamps are
/// epoch milliseconds like the official streams.
pub fn write_update_streams(
    events: &[TimedEvent],
    world: &StaticWorld,
    graph: &RawGraph,
    root: &Path,
) -> SnbResult<()> {
    let base = root.join("social_network");
    std::fs::create_dir_all(&base)?;
    let mut person_w = BufWriter::new(File::create(base.join("updateStream_0_0_person.csv"))?);
    let mut forum_w = BufWriter::new(File::create(base.join("updateStream_0_0_forum.csv"))?);

    for ev in events {
        let prefix = format!("{}|{}|{}", ev.timestamp.0, ev.dependent.0, ev.event.operation_id());
        match &ev.event {
            UpdateEvent::AddPerson(p) => {
                let langs: Vec<&str> =
                    p.languages.iter().map(|&l| world.languages[l as usize]).collect();
                let tag_ids: Vec<String> = p.interests.iter().map(|t| t.0.to_string()).collect();
                let study = p.study_at.map(|(o, y)| format!("{},{y}", o.0)).unwrap_or_default();
                let work: Vec<String> =
                    p.work_at.iter().map(|(o, y)| format!("{},{y}", o.0)).collect();
                writeln!(
                    person_w,
                    "{prefix}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
                    p.id.0,
                    p.first_name,
                    p.last_name,
                    p.gender.as_str(),
                    p.birthday,
                    p.creation_date.0,
                    p.location_ip,
                    BROWSERS[p.browser as usize].0,
                    p.city.0,
                    langs.join(";"),
                    p.emails.join(";"),
                    tag_ids.join(";"),
                    study,
                    work.join(";"),
                )?;
            }
            UpdateEvent::AddLikePost(l) | UpdateEvent::AddLikeComment(l) => {
                writeln!(forum_w, "{prefix}|{}|{}|{}", l.person.0, l.message.0, l.creation_date.0)?;
            }
            UpdateEvent::AddForum(f) => {
                let tags: Vec<String> = f.tags.iter().map(|t| t.0.to_string()).collect();
                writeln!(
                    forum_w,
                    "{prefix}|{}|{}|{}|{}|{}",
                    f.id.0,
                    f.title,
                    f.creation_date.0,
                    f.moderator.0,
                    tags.join(";"),
                )?;
            }
            UpdateEvent::AddMembership(m) => {
                writeln!(forum_w, "{prefix}|{}|{}|{}", m.person.0, m.forum.0, m.join_date.0)?;
            }
            UpdateEvent::AddPost(m) => {
                let tags: Vec<String> = m.tags.iter().map(|t| t.0.to_string()).collect();
                let lang =
                    m.language.map(|l| world.languages[l as usize].to_string()).unwrap_or_default();
                writeln!(
                    forum_w,
                    "{prefix}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
                    m.id.0,
                    m.image_file.clone().unwrap_or_default(),
                    m.creation_date.0,
                    m.location_ip,
                    BROWSERS[m.browser as usize].0,
                    lang,
                    m.content,
                    m.length,
                    m.creator.0,
                    m.forum.expect("post has forum").0,
                    m.country.0,
                    tags.join(";"),
                )?;
            }
            UpdateEvent::AddComment(m) => {
                let tags: Vec<String> = m.tags.iter().map(|t| t.0.to_string()).collect();
                let parent = m.reply_of.expect("comment has parent");
                let parent_is_post = graph.messages[parent.0 as usize].kind == MessageKind::Post;
                let (reply_post, reply_comment) =
                    if parent_is_post { (parent.0 as i64, -1) } else { (-1, parent.0 as i64) };
                writeln!(
                    forum_w,
                    "{prefix}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
                    m.id.0,
                    m.creation_date.0,
                    m.location_ip,
                    BROWSERS[m.browser as usize].0,
                    m.content,
                    m.length,
                    m.creator.0,
                    m.country.0,
                    reply_post,
                    reply_comment,
                    tags.join(";"),
                )?;
            }
            UpdateEvent::AddKnows(k) => {
                writeln!(forum_w, "{prefix}|{}|{}|{}", k.a.0, k.b.0, k.creation_date.0)?;
            }
        }
    }
    person_w.flush()?;
    forum_w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneratorConfig;
    use snb_core::scale::ScaleFactor;

    fn gen() -> (GeneratorConfig, RawGraph) {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = 100;
        let g = crate::generate(&c);
        (c, g)
    }

    #[test]
    fn events_are_sorted_and_after_cut() {
        let (c, g) = gen();
        let cut = c.stream_cut();
        let events = build_update_streams(&g, cut);
        assert!(!events.is_empty(), "no tail events at all");
        for w in events.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
        for e in &events {
            assert!(e.timestamp >= cut);
        }
    }

    #[test]
    fn dependencies_precede_events() {
        let (c, g) = gen();
        let events = build_update_streams(&g, c.stream_cut());
        for e in &events {
            assert!(e.dependent <= e.timestamp, "dependency after event: {e:?}");
        }
    }

    #[test]
    fn bulk_plus_stream_covers_everything() {
        let (c, g) = gen();
        let cut = c.stream_cut();
        let events = build_update_streams(&g, cut);
        let streamed_persons =
            events.iter().filter(|e| matches!(e.event, UpdateEvent::AddPerson(_))).count();
        let bulk_persons = g.persons.iter().filter(|p| p.creation_date < cut).count();
        assert_eq!(streamed_persons + bulk_persons, g.persons.len());
        let streamed_msgs = events
            .iter()
            .filter(|e| matches!(e.event, UpdateEvent::AddPost(_) | UpdateEvent::AddComment(_)))
            .count();
        let bulk_msgs = g.messages.iter().filter(|m| m.creation_date < cut).count();
        assert_eq!(streamed_msgs + bulk_msgs, g.messages.len());
    }

    #[test]
    fn stream_files_have_spec_prefix() {
        let (c, g) = gen();
        let w = StaticWorld::build(c.seed);
        let events = build_update_streams(&g, c.stream_cut());
        let dir = std::env::temp_dir().join(format!("snb_stream_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_update_streams(&events, &w, &g, &dir).unwrap();
        let forum =
            std::fs::read_to_string(dir.join("social_network/updateStream_0_0_forum.csv")).unwrap();
        for line in forum.lines().take(50) {
            let fields: Vec<&str> = line.split('|').collect();
            assert!(fields.len() >= 4);
            let t: i64 = fields[0].parse().unwrap();
            let td: i64 = fields[1].parse().unwrap();
            let op: u8 = fields[2].parse().unwrap();
            assert!(td <= t);
            assert!((2..=8).contains(&op), "person op in forum stream");
        }
        let person =
            std::fs::read_to_string(dir.join("social_network/updateStream_0_0_person.csv"))
                .unwrap();
        for line in person.lines() {
            let op: u8 = line.split('|').nth(2).unwrap().parse().unwrap();
            assert_eq!(op, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
