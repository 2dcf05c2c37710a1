//! Person generation (first pass of Figure 2.2).
//!
//! Each person is generated from an independent derived PRNG stream, so
//! the pass parallelises trivially without affecting determinism.

use snb_core::datetime::{Date, DateTime, MILLIS_PER_DAY};
use snb_core::model::{Gender, OrganisationId, PersonId, TagId};
use snb_core::rng::Rng;

use crate::dictionaries::{
    StaticWorld, COUNTRIES, EMAIL_PROVIDERS, FEMALE_NAMES, MALE_NAMES, SURNAMES,
};
use crate::graph::RawPerson;
use crate::GeneratorConfig;

/// RNG stream tags for the person pass.
const TAG_PERSON: u64 = 1;

/// Generates all persons.
pub fn generate_persons(config: &GeneratorConfig, world: &StaticWorld) -> Vec<RawPerson> {
    (0..config.persons).map(|i| generate_person(config, world, i)).collect()
}

/// Iterator over persons in fixed-size chunks.
///
/// Every person is an independent function of `(seed, index)`, so chunked
/// generation is bit-identical to [`generate_persons`] while letting an
/// ingester (e.g. `snb-store`'s streaming builder) consume one chunk at
/// a time instead of materialising the whole vector.
pub fn person_chunks<'a>(
    config: &'a GeneratorConfig,
    world: &'a StaticWorld,
    chunk: usize,
) -> impl Iterator<Item = Vec<RawPerson>> + 'a {
    let chunk = chunk.max(1) as u64;
    let n = config.persons;
    (0..n.div_ceil(chunk)).map(move |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        (lo..hi).map(|i| generate_person(config, world, i)).collect()
    })
}

/// Generates person `i` deterministically from `(seed, i)`.
pub fn generate_person(config: &GeneratorConfig, world: &StaticWorld, i: u64) -> RawPerson {
    let mut rng = Rng::derive(config.seed, i, TAG_PERSON);
    let id = PersonId(i);

    let country = world.country_sampler.sample(&mut rng);
    let spec = &COUNTRIES[country];
    let city = *rng.pick(&world.city_places[country]);

    let gender = if rng.chance(0.5) { Gender::Male } else { Gender::Female };
    let (pool, ranks) = match gender {
        Gender::Male => (MALE_NAMES, &world.male_name_ranks[country]),
        Gender::Female => (FEMALE_NAMES, &world.female_name_ranks[country]),
    };
    let first_name = pool[ranks[world.name_rank_sampler.sample(&mut rng)] as usize];
    let last_name =
        SURNAMES[world.surname_ranks[country][world.name_rank_sampler.sample(&mut rng)] as usize];

    // Birthday: uniform over 1980-01-01 .. 1995-12-31.
    let bday_lo = Date::from_ymd(1980, 1, 1).0;
    let bday_hi = Date::from_ymd(1995, 12, 31).0;
    let birthday = Date(rng.range_i64(bday_lo as i64, bday_hi as i64) as i32);

    // Join date: skewed toward the start of the window so most persons
    // can accumulate activity; leave the last 5% of the window free so
    // dependent activity stays representable.
    let window_days = (config.end.0 - config.start.0) as i64;
    let join_frac = rng.next_f64().powf(2.2); // front-loaded
    let join_day = (join_frac * (window_days as f64 * 0.95)) as i64;
    let creation_date = DateTime(
        config.start.at_midnight().0
            + join_day * MILLIS_PER_DAY
            + rng.range_i64(0, MILLIS_PER_DAY - 1),
    );

    let location_ip = random_ip(spec.ip_prefix, &mut rng);
    let browser = world.browser_sampler.sample(&mut rng) as u8;

    // Languages: the country's languages, plus English with probability
    // 0.4 if not already spoken.
    let mut languages: Vec<u8> = spec
        .languages
        .iter()
        .map(|l| world.languages.iter().position(|x| x == l).expect("language in dictionary") as u8)
        .collect();
    let en = world.languages.iter().position(|&x| x == "en").expect("en in dictionary") as u8;
    if !languages.contains(&en) && rng.chance(0.4) {
        languages.push(en);
    }

    // Emails: 1..=3 addresses over distinct providers.
    let email_count = 1 + rng.geometric(0.6).min(2) as usize;
    let providers = rng.sample_indices(EMAIL_PROVIDERS.len(), email_count);
    let emails: Vec<String> = providers
        .iter()
        .map(|&p| {
            format!(
                "{}.{}{}@{}",
                first_name.to_lowercase(),
                last_name.to_lowercase(),
                i,
                EMAIL_PROVIDERS[p]
            )
        })
        .collect();

    // Interests: country-correlated tags, Zipf-many.
    let interest_count = 1 + rng.geometric(0.22).min(23) as usize;
    let mut interests: Vec<TagId> = Vec::with_capacity(interest_count);
    let mut guard = 0;
    while interests.len() < interest_count && guard < interest_count * 10 {
        let t = world.sample_tag_for_country(country, &mut rng);
        if !interests.contains(&t) {
            interests.push(t);
        }
        guard += 1;
    }

    // University: 80% studied in their home country; class year is
    // birthday + 18 .. birthday + 24.
    let study_at = if rng.chance(0.8) && !world.universities_by_country[country].is_empty() {
        let u = *rng.pick(&world.universities_by_country[country]);
        let class_year = birthday.year() + rng.range_i64(18, 24) as i32;
        Some((OrganisationId(u as u64), class_year))
    } else {
        None
    };

    // Work: 0..=2 companies, mostly in the home country.
    let job_count = rng.geometric(0.55).min(2) as usize;
    let mut work_at = Vec::with_capacity(job_count);
    for _ in 0..job_count {
        let work_country = if rng.chance(0.9) { country } else { rng.index(COUNTRIES.len()) };
        if world.companies_by_country[work_country].is_empty() {
            continue;
        }
        let c = *rng.pick(&world.companies_by_country[work_country]);
        let cid = OrganisationId((world.universities.len() + c) as u64);
        if work_at.iter().any(|&(existing, _)| existing == cid) {
            continue;
        }
        let work_from = birthday.year() + rng.range_i64(20, 30) as i32;
        work_at.push((cid, work_from));
    }

    RawPerson {
        id,
        first_name,
        last_name,
        gender,
        birthday,
        creation_date,
        location_ip,
        browser,
        city,
        country,
        languages,
        emails,
        interests,
        study_at,
        work_at,
    }
}

/// An IPv4 address inside a country's synthetic `/8` block.
fn random_ip(prefix: u8, rng: &mut Rng) -> String {
    format!(
        "{}.{}.{}.{}",
        prefix,
        rng.next_bounded(256),
        rng.next_bounded(256),
        rng.next_bounded(254) + 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::scale::ScaleFactor;

    fn small_world() -> (GeneratorConfig, StaticWorld) {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = 300;
        let w = StaticWorld::build(c.seed);
        (c, w)
    }

    #[test]
    fn persons_have_sequential_ids() {
        let (c, w) = small_world();
        let ps = generate_persons(&c, &w);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(p.id, PersonId(i as u64));
        }
    }

    #[test]
    fn attributes_are_in_range() {
        let (c, w) = small_world();
        for p in generate_persons(&c, &w) {
            assert!(!p.first_name.is_empty() && !p.last_name.is_empty());
            assert!((1980..=1995).contains(&p.birthday.year()));
            assert!(p.creation_date >= c.start.at_midnight());
            assert!(p.creation_date < c.end.at_midnight());
            assert!(!p.emails.is_empty() && p.emails.len() <= 3);
            assert!(!p.languages.is_empty());
            assert!(!p.interests.is_empty());
            assert!(p.country < COUNTRIES.len());
            // IP prefix matches the home country block.
            let prefix: u8 = p.location_ip.split('.').next().unwrap().parse().unwrap();
            assert_eq!(prefix, COUNTRIES[p.country].ip_prefix);
            // Class year is plausible.
            if let Some((_, y)) = p.study_at {
                assert!((p.birthday.year() + 18..=p.birthday.year() + 24).contains(&y));
            }
            // No duplicate interests.
            let mut ints = p.interests.clone();
            ints.sort_unstable();
            ints.dedup();
            assert_eq!(ints.len(), p.interests.len());
        }
    }

    #[test]
    fn country_distribution_is_skewed() {
        let (mut c, w) = small_world();
        c.persons = 2000;
        let ps = generate_persons(&c, &w);
        let mut counts = vec![0usize; COUNTRIES.len()];
        for p in &ps {
            counts[p.country] += 1;
        }
        // China + India together should clearly dominate the tail.
        assert!(counts[0] + counts[1] > counts[COUNTRIES.len() - 1] * 10);
    }

    #[test]
    fn names_correlate_with_country() {
        // Persons of the same country share top-ranked names more often
        // than persons of different countries — the correlation the
        // dictionary model exists to produce.
        let (mut c, w) = small_world();
        c.persons = 3000;
        let ps = generate_persons(&c, &w);
        let top_name = |country: usize| -> String {
            use std::collections::HashMap;
            let mut freq: HashMap<&str, usize> = HashMap::new();
            for p in ps.iter().filter(|p| p.country == country) {
                *freq.entry(p.first_name).or_default() += 1;
            }
            freq.into_iter().max_by_key(|&(_, c)| c).map(|(n, _)| n.to_string()).unwrap_or_default()
        };
        // Compare the two most populous countries: their modal names
        // should differ (independent rank permutations).
        let a = top_name(0);
        let b = top_name(1);
        assert!(!a.is_empty() && !b.is_empty());
        assert_ne!(a, b, "both countries share modal name {a}");
    }
}
