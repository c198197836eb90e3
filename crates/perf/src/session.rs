//! Session recording, the on-disk container, and its one decoder.

use crate::codec::{self, kind, CodecError, IndexEntry, SessionIndex, FILE_MAGIC, INDEX_MAGIC};
use crate::schema::{RoundSample, SessionMeta, SessionSummary};

/// Accumulates [`RoundSample`]s during a run.
#[derive(Debug, Clone)]
pub struct SessionRecorder {
    meta: SessionMeta,
    rounds: Vec<RoundSample>,
}

impl SessionRecorder {
    /// A recorder for a run described by `meta`.
    pub fn new(meta: SessionMeta) -> Self {
        Self {
            meta,
            rounds: Vec::new(),
        }
    }

    /// Appends one round's sample.
    pub fn push(&mut self, sample: RoundSample) {
        self.rounds.push(sample);
    }

    /// Rounds recorded so far.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Closes the recorder with the end-of-run aggregate.
    pub fn finish(self, summary: SessionSummary) -> PerfSession {
        PerfSession {
            meta: self.meta,
            rounds: self.rounds,
            summary,
        }
    }
}

/// A complete recorded session: meta, per-round samples, and summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSession {
    /// Session-wide context.
    pub meta: SessionMeta,
    /// One sample per scheduling round, in round order.
    pub rounds: Vec<RoundSample>,
    /// End-of-run aggregate.
    pub summary: SessionSummary,
}

impl PerfSession {
    /// Serializes the session into the framed on-disk format (see
    /// [`crate::codec`]). Deterministic: equal sessions yield equal
    /// bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(FILE_MAGIC);
        codec::put_u32(&mut buf, codec::FORMAT_VERSION);
        let meta_offset = codec::put_frame(&mut buf, kind::META, &codec::encode_meta(&self.meta));
        let mut entries = Vec::with_capacity(self.rounds.len());
        for r in &self.rounds {
            let payload = codec::encode_round(r);
            let offset = codec::put_frame(&mut buf, kind::ROUND, &payload);
            entries.push(IndexEntry {
                round: r.round,
                offset,
                len: payload.len() as u32,
            });
        }
        let summary_offset = codec::put_frame(
            &mut buf,
            kind::SUMMARY,
            &codec::encode_summary(&self.summary),
        );
        let index = SessionIndex {
            meta_offset,
            summary_offset,
            rounds: entries,
        };
        let index_offset = codec::put_frame(&mut buf, kind::INDEX, &codec::encode_index(&index));
        codec::put_u64(&mut buf, index_offset);
        buf.extend_from_slice(INDEX_MAGIC);
        buf
    }

    /// Decodes a session: the only reader of the format. It walks the
    /// frames in order (meta, rounds, summary, index, nothing after)
    /// and requires the footer to describe exactly what it read: the
    /// trailer must point at the index frame, and the index's meta and
    /// summary offsets and every round entry (ordinal, offset, length)
    /// must match the frames themselves.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]: bad magic/version, truncation, frames out of
    /// order, malformed frames, or a footer that disagrees with the
    /// frame stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let (body, trailer_offset) = split_envelope(bytes)?;
        let mut r = codec::Reader::new(body);
        let mut next = || -> Result<(u64, u8, &[u8]), CodecError> {
            let offset = (HEADER_LEN + r.pos()) as u64;
            let (k, payload) = r.frame()?;
            Ok((offset, k, payload))
        };
        let (meta_offset, k, payload) = next()?;
        if k != kind::META {
            return Err(CodecError::BadKind(k));
        }
        let meta = codec::decode_meta(payload)?;
        let mut rounds = Vec::new();
        let mut entries = Vec::new();
        let (summary_offset, summary) = loop {
            let (offset, k, payload) = next()?;
            match k {
                kind::ROUND => {
                    let round = codec::decode_round(payload)?;
                    entries.push(IndexEntry {
                        round: round.round,
                        offset,
                        len: payload.len() as u32,
                    });
                    rounds.push(round);
                }
                kind::SUMMARY => break (offset, codec::decode_summary(payload)?),
                other => return Err(CodecError::BadKind(other)),
            }
        };
        let (index_offset, k, payload) = next()?;
        if k != kind::INDEX {
            return Err(CodecError::BadKind(k));
        }
        let index = codec::decode_index(payload)?;
        if !r.is_done() {
            return Err(CodecError::TrailingBytes);
        }
        if trailer_offset != index_offset {
            return Err(CodecError::BadIndex("trailer does not point at the index"));
        }
        let read = SessionIndex {
            meta_offset,
            summary_offset,
            rounds: entries,
        };
        if index != read {
            return Err(CodecError::BadIndex("index disagrees with the frames"));
        }
        Ok(Self {
            meta,
            rounds,
            summary,
        })
    }

    /// Renders the session as JSONL: one `meta` line, one line per
    /// round, one `summary` line. Stable field order; byte-identical for
    /// equal sessions, so two exports diff cleanly.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        jsonl_meta(&mut out, &self.meta);
        for r in &self.rounds {
            jsonl_round(&mut out, r);
        }
        jsonl_summary(&mut out, &self.summary);
        out
    }
}

const HEADER_LEN: usize = FILE_MAGIC.len() + 4;
const TRAILER_LEN: usize = 8 + INDEX_MAGIC.len();

/// Checks the magics and the version, returning the frame region and
/// the index offset the trailer records.
fn split_envelope(bytes: &[u8]) -> Result<(&[u8], u64), CodecError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(CodecError::Truncated);
    }
    let (header, rest) = bytes.split_at(HEADER_LEN);
    let (body, trailer) = rest.split_at(rest.len() - TRAILER_LEN);
    if &header[..FILE_MAGIC.len()] != FILE_MAGIC || &trailer[8..] != INDEX_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u32::from_le_bytes(header[FILE_MAGIC.len()..].try_into().expect("len 4"));
    if version != codec::FORMAT_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let index_offset = u64::from_le_bytes(trailer[..8].try_into().expect("len 8"));
    Ok((body, index_offset))
}

/// The name perfbench decodes a session through: a forward to
/// [`PerfSession::from_bytes`].
#[derive(Debug, Clone)]
pub struct SessionFile(PerfSession);

impl SessionFile {
    /// Decodes `bytes` with [`PerfSession::from_bytes`].
    ///
    /// # Errors
    ///
    /// As [`PerfSession::from_bytes`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CodecError> {
        PerfSession::from_bytes(&bytes).map(Self)
    }

    /// The decoded session; always `Ok`, since
    /// [`SessionFile::from_bytes`] decoded it.
    pub fn into_session(self) -> Result<PerfSession, CodecError> {
        Ok(self.0)
    }
}

// ------------------------------------------------------------------ jsonl

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn jsonl_meta(out: &mut String, m: &SessionMeta) {
    out.push_str("{\"type\":\"meta\",\"label\":\"");
    json_escape(out, &m.label);
    out.push_str(&format!(
        "\",\"seed\":{},\"olat\":{},\"quantum\":{},\"initial_shards\":{},\"stage_units\":{},\"pipeline\":\"{}\",\"capacity\":\"{}\",\"scheduler\":\"{}\"}}\n",
        m.seed, m.olat, m.quantum, m.initial_shards, m.stage_units, m.pipeline, m.capacity, m.scheduler
    ));
}

fn jsonl_round(out: &mut String, r: &RoundSample) {
    out.push_str(&format!(
        "{{\"type\":\"round\",\"round\":{},\"clock\":{},\"denied\":{},\"retired_accesses\":{},\"capacity_share\":{:.6},\"calendar\":{{\"entries\":{},\"occupied\":{},\"max_bucket\":{}}},\"shards\":[",
        r.round,
        r.clock,
        r.admissions_denied,
        r.retired_accesses,
        r.fleet_capacity_share,
        r.calendar.entries,
        r.calendar.occupied_buckets,
        r.calendar.max_bucket_len
    ));
    for (i, s) in r.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"accesses\":{},\"queue\":{},\"stash\":{},\"stage_busy\":[",
            s.accesses, s.queue_depth, s.stash_len
        ));
        for (j, b) in s.stage_busy.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&b.to_string());
        }
        out.push_str("]}");
    }
    out.push_str("],\"tenants\":[");
    for (i, t) in r.tenants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"active\":{},\"slots\":{},\"real\":{},\"queued_cycles\":{},\"denied\":{},\"traffic\":\"{}\"}}",
            t.id,
            t.active,
            t.slots,
            t.real,
            t.queued_cycles,
            t.denied,
            t.traffic_label()
        ));
    }
    out.push_str("]}\n");
}

fn jsonl_summary(out: &mut String, s: &SessionSummary) {
    out.push_str(&format!(
        "{{\"type\":\"summary\",\"rounds\":{},\"clock\":{},\"accesses\":{},\"service_cycles\":{},\"queueing_cycles\":{},\"eviction_drains\":{},\"p50\":{},\"p99\":{},\"hist\":{{\"width\":{},\"buckets\":{},\"nonzero\":[",
        s.rounds,
        s.clock,
        s.accesses,
        s.service_cycles,
        s.queueing_cycles,
        s.eviction_drains,
        s.service_hist.percentile(50),
        s.service_hist.percentile(99),
        s.service_hist.width(),
        s.service_hist.counts().len()
    ));
    let mut first = true;
    for (b, &c) in s.service_hist.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("[{b},{c}]"));
    }
    out.push_str("]}}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::schema::{CalendarSample, ShardSample, TenantSample};

    fn session(rounds: usize) -> PerfSession {
        let meta = SessionMeta {
            label: "test \"quoted\" label".into(),
            seed: 7,
            olat: 1248,
            quantum: 65_536,
            initial_shards: 2,
            stage_units: 3,
            pipeline: "staged".into(),
            capacity: "cadence".into(),
            scheduler: "calendar".into(),
        };
        let mut rec = SessionRecorder::new(meta);
        for i in 0..rounds as u64 {
            rec.push(RoundSample {
                round: i + 1,
                clock: (i + 1) * 65_536,
                admissions_denied: i / 3,
                retired_accesses: 0,
                fleet_capacity_share: 0.25 * (i % 4) as f64,
                calendar: CalendarSample {
                    entries: (i % 5) as u32,
                    occupied_buckets: (i % 3) as u32,
                    max_bucket_len: (i % 2 + 1) as u32,
                },
                shards: (0..2)
                    .map(|s| ShardSample {
                        accesses: i * 10 + s,
                        queue_depth: (s % 2) as u32,
                        stash_len: (i % 7) as u32,
                        stage_busy: vec![i * 100, i * 90, i * 80],
                    })
                    .collect(),
                tenants: (0..3)
                    .map(|t| TenantSample {
                        id: t,
                        active: t != 2 || i < 4,
                        slots: i * 5 + u64::from(t),
                        real: i * 3,
                        queued_cycles: i * 40,
                        denied: u64::from(t == 2 && i >= 4),
                        traffic: (t % 3) as u8,
                    })
                    .collect(),
            });
        }
        let mut hist = Histogram::new(78, 32);
        for v in [100u64, 200, 1500, 2400] {
            hist.record(v);
        }
        rec.finish(SessionSummary {
            rounds: rounds as u64,
            clock: rounds as u64 * 65_536,
            accesses: 4,
            service_cycles: 4200,
            queueing_cycles: 120,
            eviction_drains: 2,
            service_hist: hist,
        })
    }

    #[test]
    fn full_round_trip_preserves_every_record() {
        let s = session(9);
        let bytes = s.to_bytes();
        assert_eq!(PerfSession::from_bytes(&bytes).expect("decodes"), s);
        let file = SessionFile::from_bytes(bytes).expect("decodes");
        assert_eq!(file.into_session().expect("decoded"), s);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(session(6).to_bytes(), session(6).to_bytes());
    }

    #[test]
    fn jsonl_exports_agree_between_memory_and_file_paths() {
        let s = session(5);
        let direct = s.export_jsonl();
        let via_file = PerfSession::from_bytes(&s.to_bytes())
            .expect("decodes")
            .export_jsonl();
        assert_eq!(direct, via_file);
        assert_eq!(direct.lines().count(), 1 + 5 + 1);
        assert!(direct.starts_with("{\"type\":\"meta\""));
        assert!(direct.contains("\\\"quoted\\\""));
        assert!(direct.ends_with("]}}\n"));
    }

    #[test]
    fn corrupt_envelopes_are_rejected() {
        let bytes = session(2).to_bytes();
        assert_eq!(
            PerfSession::from_bytes(&bytes[..10]),
            Err(CodecError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            PerfSession::from_bytes(&bad_magic),
            Err(CodecError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert_eq!(
            PerfSession::from_bytes(&bad_version),
            Err(CodecError::BadVersion(99))
        );
        let mut bad_trailer = bytes.clone();
        let n = bad_trailer.len();
        bad_trailer[n - 1] = 0;
        assert_eq!(
            PerfSession::from_bytes(&bad_trailer),
            Err(CodecError::BadMagic)
        );
    }

    #[test]
    fn footers_that_disagree_with_the_frames_are_rejected() {
        // Every row leaves each frame well-formed and changes only where
        // the footer says a frame is, or what a round frame holds, so
        // only the cross-check of footer against frames can refuse it.
        let bytes = session(4).to_bytes();
        let n = bytes.len();
        let trailer = n - TRAILER_LEN;
        let index_offset = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap());
        let payload = index_offset as usize + 5; // past the kind byte and length
        let index = codec::decode_index(&bytes[payload..trailer]).expect("decodes");
        let round = |i: usize| index.rounds[i].offset;
        // Entry i of the index: round u64, then offset u64 and len u32.
        let location = |i: usize| {
            let at = payload + 24 + 20 * i + 8;
            (at, bytes[at..at + 12].to_vec())
        };
        let le = |v: u64| v.to_le_bytes().to_vec();
        let (first, second) = (location(1), location(2));
        let rows = [
            (
                "trailer offset one byte early",
                vec![(trailer, le(index_offset - 1))],
            ),
            (
                "trailer points at a round frame",
                vec![(trailer, le(round(1)))],
            ),
            (
                "index meta offset +1",
                vec![(payload, le(index.meta_offset + 1))],
            ),
            (
                "index summary offset points at a round frame",
                vec![(payload + 8, le(round(2)))],
            ),
            (
                // The ordinals stay sorted, so the index alone looks valid.
                "round entries 1 and 2 swapped",
                vec![(first.0, second.1), (second.0, first.1)],
            ),
            (
                "last round's ordinal rewritten 4 -> 99",
                vec![(round(3) as usize + 5, le(99))],
            ),
        ];
        for (what, patches) in rows {
            let mut bad = bytes.clone();
            for (at, patch) in patches {
                bad[at..at + patch.len()].copy_from_slice(&patch);
            }
            assert_ne!(bad, bytes, "{what}: the corruption changed nothing");
            let got = PerfSession::from_bytes(&bad);
            assert!(
                matches!(got, Err(CodecError::BadIndex(_))),
                "{what}: {got:?}"
            );
        }
    }
}
