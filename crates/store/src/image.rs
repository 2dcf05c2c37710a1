//! Store-image codec: the full [`Store`] ⇄ a compact checksummed byte
//! image.
//!
//! This is the payload format of the on-disk store-image snapshot (the
//! file framing — magic, header, fsync/rename discipline — lives in the
//! server crate next to the WAL). The codec's job is to make recovery
//! and follower bootstrap cost proportional to *live data*, not to
//! history length: a recovered process decodes this image and replays
//! only the WAL tail written after it.
//!
//! Layout: a fixed sequence of tagged sections, each
//! `[u8 tag][u32 len][u64 fnv64(body)][body]`. Sections cover the seven
//! entity column groups and all 21 adjacencies. Hash indexes, the
//! name→index maps, and the date permutation index are *not* stored —
//! they are deterministic functions of the columns and are rebuilt at
//! decode time (same insert order as the bulk loader, so lookups behave
//! identically).
//!
//! Within sections everything is varints: sorted id and timestamp
//! columns are zigzag-delta packed (~1–2 bytes/row), `Ix` references are
//! plain varints, interned string columns are written as a per-column
//! local dictionary plus per-row dictionary indices and re-interned into
//! the process-global dictionary at load (symbols are process-local and
//! must never cross a process boundary). Any length/checksum mismatch,
//! unknown tag, or trailing bytes decodes to a hard
//! [`SnbError::Parse`] — a corrupt image is refused, never half-loaded.

use rustc_hash::FxHashMap;
use snb_core::datetime::{Date, DateTime};
use snb_core::model::{Gender, MessageKind, OrganisationKind, PlaceKind};
use snb_core::{SnbError, SnbResult};

use crate::adj::Adj;
use crate::columns::{
    ForumCols, Ix, MessageCols, OrganisationCols, PersonCols, PlaceCols, TagClassCols, TagCols,
};
use crate::intern::{
    get_varint, interner, pack_deltas, put_varint, unpack_deltas, PackCol, PackListCol, SymCol,
    SymListCol,
};
use crate::store::Store;

/// FNV-1a 64-bit — the same checksum the WAL uses for its records, so
/// one corruption-detection story covers both durability artifacts.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// Section tags, in the exact order they appear in the image. Decode
// enforces this order: a permuted or truncated image is corrupt.
const SECT_PERSONS: u8 = 1;
const SECT_FORUMS: u8 = 2;
const SECT_MESSAGES: u8 = 3;
const SECT_PLACES: u8 = 4;
const SECT_TAGS: u8 = 5;
const SECT_TAG_CLASSES: u8 = 6;
const SECT_ORGANISATIONS: u8 = 7;
const SECT_ADJ_BASE: u8 = 10; // 10..=30: the 21 adjacencies in Store field order.
const ADJ_COUNT: u8 = 21;

fn corrupt(detail: impl Into<String>) -> SnbError {
    SnbError::Parse { context: "store image".into(), detail: detail.into() }
}

/// A bounds-checked read cursor over one section body.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn varint(&mut self) -> SnbResult<u64> {
        get_varint(self.buf, &mut self.pos).ok_or_else(|| corrupt("truncated varint"))
    }

    fn len(&mut self) -> SnbResult<usize> {
        usize::try_from(self.varint()?).map_err(|_| corrupt("length overflow"))
    }

    fn ix(&mut self) -> SnbResult<Ix> {
        u32::try_from(self.varint()?).map_err(|_| corrupt("u32 overflow"))
    }

    fn bytes(&mut self, n: usize) -> SnbResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| corrupt("truncated byte run"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn str(&mut self) -> SnbResult<&'a str> {
        let n = self.len()?;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| corrupt("invalid UTF-8 in string"))
    }

    fn deltas(&mut self, n: usize) -> SnbResult<Vec<i64>> {
        unpack_deltas(self.buf, &mut self.pos, n).ok_or_else(|| corrupt("truncated delta run"))
    }

    fn finish(&self) -> SnbResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing bytes in section", self.buf.len() - self.pos)))
        }
    }
}

// ---- scalar column helpers -------------------------------------------------

fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    put_varint(out, values.len() as u64);
    pack_deltas(values.iter().map(|&v| v as i64), out);
}

fn get_u64s(cur: &mut Cur<'_>) -> SnbResult<Vec<u64>> {
    let n = cur.len()?;
    Ok(cur.deltas(n)?.into_iter().map(|v| v as u64).collect())
}

fn put_ixs(out: &mut Vec<u8>, values: &[Ix]) {
    put_varint(out, values.len() as u64);
    for &v in values {
        put_varint(out, u64::from(v));
    }
}

fn get_ixs(cur: &mut Cur<'_>) -> SnbResult<Vec<Ix>> {
    let n = cur.len()?;
    (0..n).map(|_| cur.ix()).collect()
}

fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    put_ixs(out, values);
}

fn get_u32s(cur: &mut Cur<'_>) -> SnbResult<Vec<u32>> {
    get_ixs(cur)
}

fn put_dates(out: &mut Vec<u8>, values: &[Date]) {
    put_varint(out, values.len() as u64);
    pack_deltas(values.iter().map(|d| i64::from(d.0)), out);
}

fn get_dates(cur: &mut Cur<'_>) -> SnbResult<Vec<Date>> {
    let n = cur.len()?;
    cur.deltas(n)?
        .into_iter()
        .map(|v| i32::try_from(v).map(Date).map_err(|_| corrupt("date out of range")))
        .collect()
}

fn put_datetimes(out: &mut Vec<u8>, values: &[DateTime]) {
    put_varint(out, values.len() as u64);
    pack_deltas(values.iter().map(|d| d.0), out);
}

fn get_datetimes(cur: &mut Cur<'_>) -> SnbResult<Vec<DateTime>> {
    let n = cur.len()?;
    Ok(cur.deltas(n)?.into_iter().map(DateTime).collect())
}

fn put_enums<T: Copy>(out: &mut Vec<u8>, values: &[T], enc: impl Fn(T) -> u8) {
    put_varint(out, values.len() as u64);
    out.extend(values.iter().map(|&v| enc(v)));
}

fn get_enums<T>(cur: &mut Cur<'_>, dec: impl Fn(u8) -> Option<T>) -> SnbResult<Vec<T>> {
    let n = cur.len()?;
    cur.bytes(n)?
        .iter()
        .map(|&b| dec(b).ok_or_else(|| corrupt(format!("invalid enum byte {b}"))))
        .collect()
}

// ---- string column helpers -------------------------------------------------

/// Builds a local dictionary over an iterator of symbols and writes
/// `dict_len, dict strings..., rows..., per-row local index`.
fn put_symcol(out: &mut Vec<u8>, col: &SymCol) {
    let (dict, locals) = localize(col.syms().iter().copied());
    put_varint(out, col.len() as u64);
    put_dict(out, &dict);
    for local in locals {
        put_varint(out, u64::from(local));
    }
}

fn localize(syms: impl Iterator<Item = u32>) -> (Vec<&'static str>, Vec<u32>) {
    let mut map: FxHashMap<u32, u32> = FxHashMap::default();
    let mut dict = Vec::new();
    let mut locals = Vec::new();
    for sym in syms {
        let local = *map.entry(sym).or_insert_with(|| {
            dict.push(interner().resolve(sym));
            (dict.len() - 1) as u32
        });
        locals.push(local);
    }
    (dict, locals)
}

fn put_dict(out: &mut Vec<u8>, dict: &[&str]) {
    put_varint(out, dict.len() as u64);
    for s in dict {
        put_varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
}

fn get_dict(cur: &mut Cur<'_>) -> SnbResult<Vec<u32>> {
    let n = cur.len()?;
    (0..n).map(|_| cur.str().map(|s| interner().intern(s))).collect()
}

fn get_symcol(cur: &mut Cur<'_>) -> SnbResult<SymCol> {
    let rows = cur.len()?;
    let dict = get_dict(cur)?;
    let mut col = SymCol::default();
    for _ in 0..rows {
        let local = cur.len()?;
        let sym = *dict.get(local).ok_or_else(|| corrupt("dictionary index out of range"))?;
        col.push_sym(sym);
    }
    Ok(col)
}

fn put_packcol(out: &mut Vec<u8>, col: &PackCol) {
    put_varint(out, col.len() as u64);
    for s in col.iter() {
        put_varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
}

fn get_packcol(cur: &mut Cur<'_>) -> SnbResult<PackCol> {
    let rows = cur.len()?;
    let mut col = PackCol::default();
    for _ in 0..rows {
        col.push(cur.str()?);
    }
    Ok(col)
}

fn put_symlist(out: &mut Vec<u8>, col: &SymListCol) {
    put_varint(out, col.len() as u64);
    for i in 0..col.len() {
        put_varint(out, col.row_len(i) as u64);
        for s in col.row(i) {
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn get_symlist(cur: &mut Cur<'_>) -> SnbResult<SymListCol> {
    let rows = cur.len()?;
    let mut col = SymListCol::default();
    let mut row: Vec<&str> = Vec::new();
    for _ in 0..rows {
        let k = cur.len()?;
        row.clear();
        for _ in 0..k {
            row.push(cur.str()?);
        }
        col.push_row(&row);
    }
    Ok(col)
}

fn put_packlist(out: &mut Vec<u8>, col: &PackListCol) {
    put_varint(out, col.len() as u64);
    for i in 0..col.len() {
        put_varint(out, col.row_len(i) as u64);
        for s in col.row(i) {
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn get_packlist(cur: &mut Cur<'_>) -> SnbResult<PackListCol> {
    let rows = cur.len()?;
    let mut col = PackListCol::default();
    let mut row: Vec<&str> = Vec::new();
    for _ in 0..rows {
        let k = cur.len()?;
        row.clear();
        for _ in 0..k {
            row.push(cur.str()?);
        }
        col.push_row(&row);
    }
    Ok(col)
}

// ---- adjacency helpers -----------------------------------------------------

/// Writes one adjacency: source count, per-source degrees, targets, then
/// the payload run (payload encoding differs per type). Adjacencies with
/// insert overflow are compacted into a clone first — the image always
/// holds pure CSR.
fn put_adj<P: Copy>(
    out: &mut Vec<u8>,
    adj: &Adj<P>,
    put_payloads: impl FnOnce(&mut Vec<u8>, &[P]),
) {
    let compacted;
    let adj = if adj.has_overflow() {
        let mut c = adj.clone();
        c.compact();
        compacted = c;
        &compacted
    } else {
        adj
    };
    let (offsets, targets, payloads) = adj.csr_parts();
    put_varint(out, (offsets.len() - 1) as u64);
    for w in offsets.windows(2) {
        put_varint(out, u64::from(w[1] - w[0]));
    }
    put_varint(out, targets.len() as u64);
    for &t in targets {
        put_varint(out, u64::from(t));
    }
    put_payloads(out, payloads);
}

fn get_adj<P: Copy>(
    cur: &mut Cur<'_>,
    get_payloads: impl FnOnce(&mut Cur<'_>, usize) -> SnbResult<Vec<P>>,
) -> SnbResult<Adj<P>> {
    let sources = cur.len()?;
    let mut offsets = Vec::with_capacity(sources + 1);
    offsets.push(0u32);
    let mut total = 0u64;
    for _ in 0..sources {
        total += cur.varint()?;
        let off = u32::try_from(total).map_err(|_| corrupt("adjacency edge count overflow"))?;
        offsets.push(off);
    }
    let edge_count = cur.len()?;
    if edge_count != total as usize {
        return Err(corrupt(format!("adjacency degrees sum {total} != edge count {edge_count}")));
    }
    let targets: Vec<u32> = (0..edge_count).map(|_| cur.ix()).collect::<SnbResult<_>>()?;
    let payloads = get_payloads(cur, edge_count)?;
    if payloads.len() != edge_count {
        return Err(corrupt("adjacency payload count mismatch"));
    }
    Ok(Adj::from_csr_parts(offsets, targets, payloads))
}

fn put_adj_unit(out: &mut Vec<u8>, adj: &Adj<()>) {
    put_adj(out, adj, |_, _| {});
}

fn get_adj_unit(cur: &mut Cur<'_>) -> SnbResult<Adj<()>> {
    get_adj(cur, |_, n| Ok(vec![(); n]))
}

fn put_adj_datetime(out: &mut Vec<u8>, adj: &Adj<DateTime>) {
    put_adj(out, adj, |out, p| {
        pack_deltas(p.iter().map(|d| d.0), out);
    });
}

fn get_adj_datetime(cur: &mut Cur<'_>) -> SnbResult<Adj<DateTime>> {
    get_adj(cur, |cur, n| Ok(cur.deltas(n)?.into_iter().map(DateTime).collect()))
}

fn put_adj_i32(out: &mut Vec<u8>, adj: &Adj<i32>) {
    put_adj(out, adj, |out, p| {
        pack_deltas(p.iter().map(|&v| i64::from(v)), out);
    });
}

fn get_adj_i32(cur: &mut Cur<'_>) -> SnbResult<Adj<i32>> {
    get_adj(cur, |cur, n| {
        cur.deltas(n)?
            .into_iter()
            .map(|v| i32::try_from(v).map_err(|_| corrupt("i32 payload out of range")))
            .collect()
    })
}

// ---- enum byte maps --------------------------------------------------------

fn gender_enc(g: Gender) -> u8 {
    match g {
        Gender::Male => 0,
        Gender::Female => 1,
    }
}

fn gender_dec(b: u8) -> Option<Gender> {
    match b {
        0 => Some(Gender::Male),
        1 => Some(Gender::Female),
        _ => None,
    }
}

fn msg_kind_enc(k: MessageKind) -> u8 {
    match k {
        MessageKind::Post => 0,
        MessageKind::Comment => 1,
    }
}

fn msg_kind_dec(b: u8) -> Option<MessageKind> {
    match b {
        0 => Some(MessageKind::Post),
        1 => Some(MessageKind::Comment),
        _ => None,
    }
}

fn place_kind_enc(k: PlaceKind) -> u8 {
    match k {
        PlaceKind::City => 0,
        PlaceKind::Country => 1,
        PlaceKind::Continent => 2,
    }
}

fn place_kind_dec(b: u8) -> Option<PlaceKind> {
    match b {
        0 => Some(PlaceKind::City),
        1 => Some(PlaceKind::Country),
        2 => Some(PlaceKind::Continent),
        _ => None,
    }
}

fn org_kind_enc(k: OrganisationKind) -> u8 {
    match k {
        OrganisationKind::University => 0,
        OrganisationKind::Company => 1,
    }
}

fn org_kind_dec(b: u8) -> Option<OrganisationKind> {
    match b {
        0 => Some(OrganisationKind::University),
        1 => Some(OrganisationKind::Company),
        _ => None,
    }
}

// ---- sections --------------------------------------------------------------

fn section(out: &mut Vec<u8>, tag: u8, body: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(u32::try_from(body.len()).expect("section over 4 GiB")).to_le_bytes());
    out.extend_from_slice(&fnv64(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Reads the next section, enforcing the expected tag and verifying the
/// body checksum.
fn read_section<'a>(buf: &'a [u8], pos: &mut usize, want_tag: u8) -> SnbResult<Cur<'a>> {
    let head_end = pos.checked_add(13).filter(|&e| e <= buf.len());
    let head_end = head_end.ok_or_else(|| corrupt("truncated section header"))?;
    let tag = buf[*pos];
    if tag != want_tag {
        return Err(corrupt(format!("expected section {want_tag}, found {tag}")));
    }
    let len = u32::from_le_bytes(buf[*pos + 1..*pos + 5].try_into().expect("4 bytes")) as usize;
    let sum = u64::from_le_bytes(buf[*pos + 5..*pos + 13].try_into().expect("8 bytes"));
    let body_end = head_end.checked_add(len).filter(|&e| e <= buf.len());
    let body_end = body_end.ok_or_else(|| corrupt(format!("section {tag} body truncated")))?;
    let body = &buf[head_end..body_end];
    if fnv64(body) != sum {
        return Err(corrupt(format!("section {tag} checksum mismatch")));
    }
    *pos = body_end;
    Ok(Cur { buf: body, pos: 0 })
}

fn encode_persons(c: &PersonCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.first_name);
    put_symcol(&mut b, &c.last_name);
    put_enums(&mut b, &c.gender, gender_enc);
    put_dates(&mut b, &c.birthday);
    put_datetimes(&mut b, &c.creation_date);
    put_packcol(&mut b, &c.location_ip);
    put_symcol(&mut b, &c.browser);
    put_ixs(&mut b, &c.city);
    put_packlist(&mut b, &c.emails);
    put_symlist(&mut b, &c.speaks);
    b
}

fn decode_persons(cur: &mut Cur<'_>) -> SnbResult<PersonCols> {
    let c = PersonCols {
        id: get_u64s(cur)?,
        first_name: get_symcol(cur)?,
        last_name: get_symcol(cur)?,
        gender: get_enums(cur, gender_dec)?,
        birthday: get_dates(cur)?,
        creation_date: get_datetimes(cur)?,
        location_ip: get_packcol(cur)?,
        browser: get_symcol(cur)?,
        city: get_ixs(cur)?,
        emails: get_packlist(cur)?,
        speaks: get_symlist(cur)?,
    };
    cur.finish()?;
    Ok(c)
}

fn encode_forums(c: &ForumCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_packcol(&mut b, &c.title);
    put_datetimes(&mut b, &c.creation_date);
    put_ixs(&mut b, &c.moderator);
    b
}

fn decode_forums(cur: &mut Cur<'_>) -> SnbResult<ForumCols> {
    let c = ForumCols {
        id: get_u64s(cur)?,
        title: get_packcol(cur)?,
        creation_date: get_datetimes(cur)?,
        moderator: get_ixs(cur)?,
    };
    cur.finish()?;
    Ok(c)
}

fn encode_messages(c: &MessageCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_enums(&mut b, &c.kind, msg_kind_enc);
    put_datetimes(&mut b, &c.creation_date);
    put_ixs(&mut b, &c.creator);
    put_ixs(&mut b, &c.country);
    put_symcol(&mut b, &c.browser);
    put_packcol(&mut b, &c.location_ip);
    put_packcol(&mut b, &c.content);
    put_u32s(&mut b, &c.length);
    put_packcol(&mut b, &c.image_file);
    put_symcol(&mut b, &c.language);
    put_ixs(&mut b, &c.forum);
    put_ixs(&mut b, &c.reply_of);
    put_ixs(&mut b, &c.root_post);
    b
}

fn decode_messages(cur: &mut Cur<'_>) -> SnbResult<MessageCols> {
    let c = MessageCols {
        id: get_u64s(cur)?,
        kind: get_enums(cur, msg_kind_dec)?,
        creation_date: get_datetimes(cur)?,
        creator: get_ixs(cur)?,
        country: get_ixs(cur)?,
        browser: get_symcol(cur)?,
        location_ip: get_packcol(cur)?,
        content: get_packcol(cur)?,
        length: get_u32s(cur)?,
        image_file: get_packcol(cur)?,
        language: get_symcol(cur)?,
        forum: get_ixs(cur)?,
        reply_of: get_ixs(cur)?,
        root_post: get_ixs(cur)?,
    };
    cur.finish()?;
    Ok(c)
}

fn encode_places(c: &PlaceCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.name);
    put_enums(&mut b, &c.kind, place_kind_enc);
    put_ixs(&mut b, &c.part_of);
    b
}

fn decode_places(cur: &mut Cur<'_>) -> SnbResult<PlaceCols> {
    let c = PlaceCols {
        id: get_u64s(cur)?,
        name: get_symcol(cur)?,
        kind: get_enums(cur, place_kind_dec)?,
        part_of: get_ixs(cur)?,
    };
    cur.finish()?;
    Ok(c)
}

fn encode_tags(c: &TagCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.name);
    put_ixs(&mut b, &c.class);
    b
}

fn decode_tags(cur: &mut Cur<'_>) -> SnbResult<TagCols> {
    let c = TagCols { id: get_u64s(cur)?, name: get_symcol(cur)?, class: get_ixs(cur)? };
    cur.finish()?;
    Ok(c)
}

fn encode_tag_classes(c: &TagClassCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.name);
    put_ixs(&mut b, &c.parent);
    b
}

fn decode_tag_classes(cur: &mut Cur<'_>) -> SnbResult<TagClassCols> {
    let c = TagClassCols { id: get_u64s(cur)?, name: get_symcol(cur)?, parent: get_ixs(cur)? };
    cur.finish()?;
    Ok(c)
}

fn encode_organisations(c: &OrganisationCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.name);
    put_enums(&mut b, &c.kind, org_kind_enc);
    put_ixs(&mut b, &c.place);
    b
}

fn decode_organisations(cur: &mut Cur<'_>) -> SnbResult<OrganisationCols> {
    let c = OrganisationCols {
        id: get_u64s(cur)?,
        name: get_symcol(cur)?,
        kind: get_enums(cur, org_kind_dec)?,
        place: get_ixs(cur)?,
    };
    cur.finish()?;
    Ok(c)
}

// ---- top level -------------------------------------------------------------

/// Serialises the full store into the tagged-section image payload.
pub fn encode_store(s: &Store) -> Vec<u8> {
    let mut out = Vec::new();
    section(&mut out, SECT_PERSONS, &encode_persons(&s.persons));
    section(&mut out, SECT_FORUMS, &encode_forums(&s.forums));
    section(&mut out, SECT_MESSAGES, &encode_messages(&s.messages));
    section(&mut out, SECT_PLACES, &encode_places(&s.places));
    section(&mut out, SECT_TAGS, &encode_tags(&s.tags));
    section(&mut out, SECT_TAG_CLASSES, &encode_tag_classes(&s.tag_classes));
    section(&mut out, SECT_ORGANISATIONS, &encode_organisations(&s.organisations));
    let mut body = Vec::new();
    let mut adj_section = |out: &mut Vec<u8>, i: u8, write: &mut dyn FnMut(&mut Vec<u8>)| {
        body.clear();
        write(&mut body);
        section(out, SECT_ADJ_BASE + i, &body);
    };
    adj_section(&mut out, 0, &mut |b| put_adj_datetime(b, &s.knows));
    adj_section(&mut out, 1, &mut |b| put_adj_unit(b, &s.person_interest));
    adj_section(&mut out, 2, &mut |b| put_adj_unit(b, &s.interest_person));
    adj_section(&mut out, 3, &mut |b| put_adj_i32(b, &s.person_study));
    adj_section(&mut out, 4, &mut |b| put_adj_i32(b, &s.person_work));
    adj_section(&mut out, 5, &mut |b| put_adj_datetime(b, &s.forum_member));
    adj_section(&mut out, 6, &mut |b| put_adj_datetime(b, &s.member_forum));
    adj_section(&mut out, 7, &mut |b| put_adj_unit(b, &s.forum_tag));
    adj_section(&mut out, 8, &mut |b| put_adj_unit(b, &s.tag_forum));
    adj_section(&mut out, 9, &mut |b| put_adj_unit(b, &s.message_tag));
    adj_section(&mut out, 10, &mut |b| put_adj_unit(b, &s.tag_message));
    adj_section(&mut out, 11, &mut |b| put_adj_unit(b, &s.person_messages));
    adj_section(&mut out, 12, &mut |b| put_adj_unit(b, &s.forum_posts));
    adj_section(&mut out, 13, &mut |b| put_adj_unit(b, &s.message_replies));
    adj_section(&mut out, 14, &mut |b| put_adj_datetime(b, &s.person_likes));
    adj_section(&mut out, 15, &mut |b| put_adj_datetime(b, &s.message_likes));
    adj_section(&mut out, 16, &mut |b| put_adj_unit(b, &s.place_children));
    adj_section(&mut out, 17, &mut |b| put_adj_unit(b, &s.city_person));
    adj_section(&mut out, 18, &mut |b| put_adj_unit(b, &s.tagclass_children));
    adj_section(&mut out, 19, &mut |b| put_adj_unit(b, &s.tagclass_tags));
    adj_section(&mut out, 20, &mut |b| put_adj_unit(b, &s.person_moderates));
    out
}

/// Decodes an image payload back into a full store, rebuilding the
/// derived structures (id hash indexes, name→index maps, date
/// permutation index) the image deliberately omits. Refuses — with a
/// hard error, never a partial store — any checksum mismatch,
/// truncation, or layout violation.
pub fn decode_store(buf: &[u8]) -> SnbResult<Store> {
    let mut pos = 0usize;
    let mut s = Store::default();

    let mut cur = read_section(buf, &mut pos, SECT_PERSONS)?;
    s.persons.set(decode_persons(&mut cur)?);
    let mut cur = read_section(buf, &mut pos, SECT_FORUMS)?;
    s.forums.set(decode_forums(&mut cur)?);
    let mut cur = read_section(buf, &mut pos, SECT_MESSAGES)?;
    s.messages.set(decode_messages(&mut cur)?);
    let mut cur = read_section(buf, &mut pos, SECT_PLACES)?;
    s.places.set(decode_places(&mut cur)?);
    let mut cur = read_section(buf, &mut pos, SECT_TAGS)?;
    s.tags.set(decode_tags(&mut cur)?);
    let mut cur = read_section(buf, &mut pos, SECT_TAG_CLASSES)?;
    s.tag_classes.set(decode_tag_classes(&mut cur)?);
    let mut cur = read_section(buf, &mut pos, SECT_ORGANISATIONS)?;
    s.organisations.set(decode_organisations(&mut cur)?);

    fn adj_sect<P: Copy>(
        buf: &[u8],
        pos: &mut usize,
        i: u8,
        get: impl FnOnce(&mut Cur<'_>) -> SnbResult<Adj<P>>,
    ) -> SnbResult<Adj<P>> {
        let mut cur = read_section(buf, pos, SECT_ADJ_BASE + i)?;
        let adj = get(&mut cur)?;
        cur.finish()?;
        Ok(adj)
    }
    debug_assert_eq!(SECT_ADJ_BASE + ADJ_COUNT - 1, 30);
    s.knows.set(adj_sect(buf, &mut pos, 0, get_adj_datetime)?);
    s.person_interest.set(adj_sect(buf, &mut pos, 1, get_adj_unit)?);
    s.interest_person.set(adj_sect(buf, &mut pos, 2, get_adj_unit)?);
    s.person_study.set(adj_sect(buf, &mut pos, 3, get_adj_i32)?);
    s.person_work.set(adj_sect(buf, &mut pos, 4, get_adj_i32)?);
    s.forum_member.set(adj_sect(buf, &mut pos, 5, get_adj_datetime)?);
    s.member_forum.set(adj_sect(buf, &mut pos, 6, get_adj_datetime)?);
    s.forum_tag.set(adj_sect(buf, &mut pos, 7, get_adj_unit)?);
    s.tag_forum.set(adj_sect(buf, &mut pos, 8, get_adj_unit)?);
    s.message_tag.set(adj_sect(buf, &mut pos, 9, get_adj_unit)?);
    s.tag_message.set(adj_sect(buf, &mut pos, 10, get_adj_unit)?);
    s.person_messages.set(adj_sect(buf, &mut pos, 11, get_adj_unit)?);
    s.forum_posts.set(adj_sect(buf, &mut pos, 12, get_adj_unit)?);
    s.message_replies.set(adj_sect(buf, &mut pos, 13, get_adj_unit)?);
    s.person_likes.set(adj_sect(buf, &mut pos, 14, get_adj_datetime)?);
    s.message_likes.set(adj_sect(buf, &mut pos, 15, get_adj_datetime)?);
    s.place_children.set(adj_sect(buf, &mut pos, 16, get_adj_unit)?);
    s.city_person.set(adj_sect(buf, &mut pos, 17, get_adj_unit)?);
    s.tagclass_children.set(adj_sect(buf, &mut pos, 18, get_adj_unit)?);
    s.tagclass_tags.set(adj_sect(buf, &mut pos, 19, get_adj_unit)?);
    s.person_moderates.set(adj_sect(buf, &mut pos, 20, get_adj_unit)?);

    if pos != buf.len() {
        return Err(corrupt(format!("{} trailing bytes after last section", buf.len() - pos)));
    }

    rebuild_derived(&mut s);
    Ok(s)
}

/// Rebuilds everything the image omits, in the same insert order as the
/// bulk loader so id/name lookups behave identically.
fn rebuild_derived(s: &mut Store) {
    fn index(ids: &[u64]) -> FxHashMap<u64, Ix> {
        ids.iter().enumerate().map(|(i, &id)| (id, i as Ix)).collect()
    }
    s.person_ix.set(index(&s.persons.id));
    s.forum_ix.set(index(&s.forums.id));
    s.message_ix.set(index(&s.messages.id));
    s.place_ix.set(index(&s.places.id));
    s.tag_ix.set(index(&s.tags.id));
    s.tag_class_ix.set(index(&s.tag_classes.id));
    s.org_ix.set(index(&s.organisations.id));

    fn by_name(names: &SymCol) -> FxHashMap<String, Ix> {
        names.iter().enumerate().map(|(i, n)| (n.to_string(), i as Ix)).collect()
    }
    s.place_by_name.set(by_name(&s.places.name));
    s.tag_by_name.set(by_name(&s.tags.name));
    s.tag_class_by_name.set(by_name(&s.tag_classes.name));

    s.rebuild_date_index();
    s.shrink_columns();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::store_for_config;
    use snb_datagen::GeneratorConfig;

    fn small_store() -> Store {
        let mut c = GeneratorConfig::for_scale_name("0.001").expect("scale");
        c.persons = 60;
        store_for_config(&c)
    }

    #[test]
    fn image_round_trips_bit_identically() {
        let store = small_store();
        let image = encode_store(&store);
        let decoded = decode_store(&image).expect("decode");
        // Re-encoding the decoded store must reproduce the image byte
        // for byte — the strongest whole-store equality check available
        // without a field-by-field walk (the codec covers every column
        // and adjacency, so any drift shows up here).
        assert_eq!(encode_store(&decoded), image, "decode→encode must be the identity");
        decoded.validate_invariants().expect("decoded store invariants");
        assert!(decoded.date_index_fresh(), "date index must be rebuilt");
        // Derived indexes answer like the originals.
        let id = store.persons.id[3];
        assert_eq!(decoded.person(id).unwrap(), store.person(id).unwrap());
        let place = store.places.name.iter().next().unwrap();
        assert_eq!(
            decoded.place_by_name.get(place).copied(),
            store.place_by_name.get(place).copied()
        );
    }

    #[test]
    fn image_round_trips_overflow_adjacencies() {
        let mut store = small_store();
        // Simulate streamed inserts: overflow edges must survive the
        // image (compacted into CSR form) even though the live store
        // has not compacted yet.
        store.knows.insert(0, 1, snb_core::datetime::DateTime(42));
        store.knows.insert(1, 0, snb_core::datetime::DateTime(42));
        let decoded = decode_store(&encode_store(&store)).expect("decode");
        assert_eq!(decoded.knows.edge_count(), store.knows.edge_count());
        assert!(decoded.knows.neighbors(0).any(|(t, d)| t == 1 && d.0 == 42));
    }

    #[test]
    fn every_corrupted_byte_is_refused() {
        let store = small_store();
        let image = encode_store(&store);
        // Flip one byte at a spread of positions (covering headers,
        // checksums, and bodies of several sections) — decode must
        // refuse every time, never yield a store.
        for pos in (0..image.len()).step_by(image.len() / 97 + 1) {
            let mut bad = image.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_store(&bad).is_err(),
                "flipped byte at {pos}/{} must be refused",
                image.len()
            );
        }
    }

    #[test]
    fn truncation_is_refused_at_every_section_boundary() {
        let image = encode_store(&small_store());
        for cut in [0, 1, 12, 13, image.len() / 2, image.len() - 1] {
            assert!(decode_store(&image[..cut]).is_err(), "truncation at {cut} must be refused");
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let store = Store::default();
        let decoded = decode_store(&encode_store(&store)).expect("decode empty");
        assert_eq!(decoded.persons.len(), 0);
        assert_eq!(decoded.messages.len(), 0);
        decoded.validate_invariants().expect("empty invariants");
    }
}
