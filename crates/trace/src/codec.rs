//! The per-event byte codec: one tag byte plus varint/delta fields.
//!
//! Every event is encoded as its [`EventKind`] discriminant followed by
//! its [`EventKind::fields`], one rule per [`FieldKind`]. Thread and object
//! ids, counts, digests and flags are plain LEB128 varints. Logical clocks
//! and version ids are zigzag deltas against a running [`CodecState`],
//! which the writer resets at every page boundary — so a page decodes
//! independently of all earlier pages and a corrupt page cannot poison its
//! successors' decoding.
//!
//! `Option<Tid>` is biased by one: `0` is `None`, `n` is `Tid(n - 1)`.
//!
//! # Token domains
//!
//! Sharded traces interleave events from several token domains. Rather
//! than pay a per-event domain field, the codec keeps a *current domain*
//! in [`CodecState`] (reset to [`DomainId::ROOT`] at each page boundary)
//! and emits a [`DOMAIN_MARKER`] byte plus a varint domain id only when
//! an event's domain differs from the current one. Single-domain traces
//! therefore encode byte-identically to the pre-domain format, and the
//! marker tag (`0x7F`) can never collide with an [`EventKind`]
//! discriminant, so a pre-domain reader rejects a sharded trace as
//! corrupt instead of silently mis-decoding it.

use dmt_api::trace::{Event, EventKind, FieldKind, MAX_FIELDS};
use dmt_api::DomainId;

use crate::format::TraceError;
use crate::varint::{get_delta, get_u64, put_delta, put_u64};

/// Tag byte announcing a token-domain switch; followed by the new domain
/// id as a varint.
pub const DOMAIN_MARKER: u8 = 0x7F;
// Outside the tag range, so a pre-domain reader rejects the marker.
const _: () = assert!(DOMAIN_MARKER as usize >= EventKind::ALL.len());

/// Rolling delta bases, reset at each page boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecState {
    /// Base for clock-valued fields.
    pub prev_clock: u64,
    /// Base for version-valued fields.
    pub prev_version: u64,
    /// Current token domain; events encode without a domain field until
    /// a [`DOMAIN_MARKER`] switches it.
    pub domain: DomainId,
}

impl CodecState {
    /// The running base a delta-coded field is written against.
    fn base(&mut self, class: FieldKind) -> Option<&mut u64> {
        match class {
            FieldKind::Clock => Some(&mut self.prev_clock),
            FieldKind::Version => Some(&mut self.prev_version),
            _ => None,
        }
    }
}

/// Encodes one event into `out`, updating the delta state.
pub fn encode(ev: &Event, st: &mut CodecState, out: &mut Vec<u8>) {
    out.push(ev.kind() as u8);
    ev.for_each_value(|class, v| {
        if let Some(base) = st.base(class) {
            put_delta(out, std::mem::replace(base, v), v);
        } else if class == FieldKind::OptTid {
            // `None` is `u64::MAX`, so the bias wraps it to 0.
            put_u64(out, v.wrapping_add(1));
        } else {
            put_u64(out, v);
        }
    });
}

/// Encodes one event stamped with its token domain, emitting a
/// [`DOMAIN_MARKER`] first whenever the domain differs from the codec
/// state's current one. Root-domain-only streams never emit a marker.
pub fn encode_in_domain(ev: &Event, domain: DomainId, st: &mut CodecState, out: &mut Vec<u8>) {
    if domain != st.domain {
        out.push(DOMAIN_MARKER);
        put_u64(out, domain.0 as u64);
        st.domain = domain;
    }
    encode(ev, st, out);
}

fn corrupt(what: &'static str) -> TraceError {
    TraceError::Corrupt { what }
}

/// Decodes one event from `buf` at `*pos`, advancing it and the state.
pub fn decode(buf: &[u8], pos: &mut usize, st: &mut CodecState) -> Result<Event, TraceError> {
    let tag = *buf.get(*pos).ok_or(TraceError::Truncated {
        what: "event record",
    })?;
    *pos += 1;
    let kind = *EventKind::ALL
        .get(tag as usize)
        .ok_or(corrupt("event tag"))?;
    let mut values = [0; MAX_FIELDS];
    for (v, &(name, class)) in values.iter_mut().zip(kind.fields()) {
        if let Some(base) = st.base(class) {
            *base = get_delta(buf, pos, *base).ok_or(corrupt(name))?;
            *v = *base;
            continue;
        }
        let raw = get_u64(buf, pos).ok_or(corrupt(name))?;
        *v = match class {
            FieldKind::Tid | FieldKind::U32 if raw > u32::MAX.into() => return Err(corrupt(name)),
            FieldKind::OptTid if raw > 1 << 32 => return Err(corrupt(name)),
            FieldKind::OptTid => raw.wrapping_sub(1),
            _ => raw,
        };
    }
    Ok(Event::from_values(kind, values))
}

/// Decodes one event plus its token domain, consuming any
/// [`DOMAIN_MARKER`] prefix first.
pub fn decode_in_domain(
    buf: &[u8],
    pos: &mut usize,
    st: &mut CodecState,
) -> Result<(DomainId, Event), TraceError> {
    while buf.get(*pos) == Some(&DOMAIN_MARKER) {
        *pos += 1;
        let id = get_u64(buf, pos).ok_or(corrupt("domain id"))?;
        st.domain = DomainId(u32::try_from(id).map_err(|_| corrupt("domain id"))?);
    }
    Ok((st.domain, decode(buf, pos, st)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so the property test needs no external crates.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    /// An event of `kind` drawn from its field list: each class draws its
    /// edge values — `u32::MAX` ids, `None` and `Some(Tid(u32::MAX))`,
    /// clocks and versions that run backwards — as well as small ones.
    fn arbitrary_event(r: &mut Lcg, kind: EventKind) -> Event {
        let mut values = [0; MAX_FIELDS];
        for (v, &(_, class)) in values.iter_mut().zip(kind.fields()) {
            let (edge, small) = (r.next().is_multiple_of(4), r.next() % 64);
            *v = match class {
                FieldKind::Tid | FieldKind::U32 if edge => u32::MAX.into(),
                FieldKind::OptTid if edge => u32::MAX.into(),
                FieldKind::OptTid if r.next().is_multiple_of(3) => u64::MAX,
                FieldKind::Tid | FieldKind::U32 | FieldKind::OptTid => small,
                FieldKind::Flag => small & 1,
                _ if edge => u64::MAX,
                _ => r.next(),
            };
        }
        Event::from_values(kind, values)
    }

    /// A token grant to thread `tid` at `clock`.
    fn grant(tid: u64, clock: u64) -> Event {
        Event::from_values(EventKind::TokenAcquire, [tid, clock, 0, 0, 0])
    }

    /// `n` events cycling through every kind.
    fn arbitrary_events(seed: u64, n: usize) -> Vec<Event> {
        let mut r = Lcg(seed);
        let kinds = EventKind::ALL.iter().cycle().take(n);
        kinds.map(|&k| arbitrary_event(&mut r, k)).collect()
    }

    #[test]
    fn every_kind_roundtrips() {
        // Property test: 4 000 random events across all 22 kinds encode
        // and decode to identical values under a shared delta state.
        let events = arbitrary_events(0x5EED, 4000);
        let mut buf = Vec::new();
        let mut enc = CodecState::default();
        for ev in &events {
            encode(ev, &mut enc, &mut buf);
        }
        let mut dec = CodecState::default();
        let mut pos = 0;
        for (i, ev) in events.iter().enumerate() {
            let got = decode(&buf, &mut pos, &mut dec).unwrap_or_else(|e| panic!("event {i}: {e}"));
            assert_eq!(&got, ev, "event {i}");
        }
        assert_eq!(pos, buf.len(), "decoder must consume exactly the buffer");
    }

    #[test]
    fn domain_markers_roundtrip_and_root_streams_emit_none() {
        let events: Vec<(DomainId, Event)> = arbitrary_events(0xD011A1, 1000)
            .into_iter()
            .enumerate()
            .map(|(i, ev)| (DomainId((i % 3) as u32), ev))
            .collect();
        let mut buf = Vec::new();
        let mut enc = CodecState::default();
        for (d, ev) in &events {
            encode_in_domain(ev, *d, &mut enc, &mut buf);
        }
        let mut dec = CodecState::default();
        let mut pos = 0;
        for (i, want) in events.iter().enumerate() {
            let got = decode_in_domain(&buf, &mut pos, &mut dec)
                .unwrap_or_else(|e| panic!("event {i}: {e}"));
            assert_eq!(&got, want, "event {i}");
        }
        assert_eq!(pos, buf.len());

        // A root-only stream must encode byte-identically to plain
        // `encode` — no marker anywhere.
        let mut plain = Vec::new();
        let mut rooted = Vec::new();
        let mut st_a = CodecState::default();
        let mut st_b = CodecState::default();
        for (_, ev) in &events {
            encode(ev, &mut st_a, &mut plain);
            encode_in_domain(ev, DomainId::ROOT, &mut st_b, &mut rooted);
        }
        assert_eq!(plain, rooted);
    }

    #[test]
    fn domain_marker_is_corrupt_to_the_plain_decoder() {
        // A pre-domain reader must reject a sharded stream, not
        // mis-decode it: DOMAIN_MARKER is out of EventKind range.
        let mut buf = Vec::new();
        let mut st = CodecState::default();
        encode_in_domain(&grant(1, 7), DomainId(2), &mut st, &mut buf);
        assert_eq!(buf[0], DOMAIN_MARKER);
        let mut pos = 0;
        let mut st = CodecState::default();
        assert!(matches!(
            decode(&buf, &mut pos, &mut st),
            Err(TraceError::Corrupt { what: "event tag" })
        ));
    }

    #[test]
    fn unknown_tag_is_corrupt_not_panic() {
        let buf = [99u8, 0, 0];
        let mut pos = 0;
        let mut st = CodecState::default();
        assert!(matches!(
            decode(&buf, &mut pos, &mut st),
            Err(TraceError::Corrupt { what: "event tag" })
        ));
    }

    #[test]
    fn an_id_wider_than_u32_is_corrupt_in_every_kind() {
        for kind in EventKind::ALL {
            for (i, &(name, class)) in kind.fields().iter().enumerate() {
                let too_wide = match class {
                    FieldKind::Tid | FieldKind::U32 => u64::from(u32::MAX) + 1,
                    FieldKind::OptTid => (1 << 32) + 1,
                    _ => continue,
                };
                // Every other field is a 0 byte: a zero delta, `None`, 0.
                let mut buf = vec![kind as u8];
                for j in 0..kind.fields().len() {
                    put_u64(&mut buf, if j == i { too_wide } else { 0 });
                }
                let got = decode(&buf, &mut 0, &mut CodecState::default());
                assert!(
                    matches!(got, Err(TraceError::Corrupt { what }) if what == name),
                    "{kind:?}.{name}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn the_spec_table_is_the_field_list() {
        // docs/TRACE_FORMAT.md's event table, row by row: the tag is the
        // kind's index in `EventKind::ALL`, and each field has its name
        // and its class's mark (Δ for a clock or version, opt-tid, flag).
        let spec = include_str!("../../../docs/TRACE_FORMAT.md");
        let (_, section) = spec.split_once("### Event encoding").unwrap();
        let rows: Vec<Vec<&str>> = section
            .lines()
            .take_while(|l| !l.starts_with("### "))
            .filter_map(|l| l.strip_prefix('|'))
            .map(|l| l.split('|').map(str::trim).collect::<Vec<_>>())
            .filter(|cells| cells[0].parse::<usize>().is_ok())
            .collect();
        assert_eq!(rows.len(), EventKind::ALL.len());
        for row in rows {
            let tag: usize = row[0].parse().unwrap();
            let kind = EventKind::ALL[tag];
            assert_eq!((kind as usize, format!("{kind:?}").as_str()), (tag, row[1]));
            let fields: Vec<&str> = row[2].split(", ").collect();
            assert_eq!(fields.len(), kind.fields().len(), "{kind:?}: {fields:?}");
            for (cell, &(name, class)) in fields.iter().zip(kind.fields()) {
                let (got, mark) = cell.split_once(' ').unwrap_or((cell, ""));
                let want = match class {
                    FieldKind::Clock | FieldKind::Version => "Δ",
                    FieldKind::OptTid => "(opt-tid)",
                    FieldKind::Flag => "(flag)",
                    _ => "",
                };
                assert_eq!((got, mark), (name, want), "{kind:?}");
            }
        }
    }

    #[test]
    fn truncated_record_is_reported() {
        let mut buf = Vec::new();
        let mut st = CodecState::default();
        encode(&grant(3, 1_000_000), &mut st, &mut buf);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        let mut st = CodecState::default();
        assert!(decode(&buf, &mut pos, &mut st).is_err());
    }

    #[test]
    fn delta_encoding_keeps_monotone_clocks_small() {
        // Consecutive token grants ~1000 clocks apart must cost only a
        // few bytes each, not 8+ for a raw u64 clock.
        let mut st = CodecState::default();
        let mut buf = Vec::new();
        for i in 0..100u64 {
            encode(&grant(i % 4, 1_000_000 + i * 1000), &mut st, &mut buf);
        }
        // First event pays the full offset; the rest are ~4 bytes
        // (tag + tid + 2-byte delta).
        assert!(buf.len() < 100 * 6, "got {} bytes", buf.len());
    }
}
