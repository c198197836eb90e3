//! The recorded session, its on-disk container, and its one decoder.

use crate::codec::{self, kind, CodecError, FILE_MAGIC};
use crate::schema::{RoundSample, SessionMeta, SessionSummary};

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
        codec::put_frame(&mut buf, kind::META, &codec::encode_meta(&self.meta));
        for r in &self.rounds {
            codec::put_frame(&mut buf, kind::ROUND, &codec::encode_round(r));
        }
        codec::put_frame(
            &mut buf,
            kind::SUMMARY,
            &codec::encode_summary(&self.summary),
        );
        buf
    }

    /// Decodes a session: the only reader of the format. It walks the
    /// frames in order (meta, rounds, summary, nothing after) and
    /// requires each round's ordinal to be the previous one's plus 1
    /// and the last to be the summary's round count. The first ordinal
    /// is free: a session started mid-run starts past round 1.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]: bad magic/version, truncation, frames out of
    /// order, malformed frames, round ordinals out of sequence, or bytes
    /// after the summary.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = codec::Reader::new(bytes);
        if r.take(FILE_MAGIC.len())? != FILE_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u32()?;
        if version != codec::FORMAT_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let meta = match r.frame()? {
            (kind::META, payload) => codec::decode_meta(payload)?,
            (other, _) => return Err(CodecError::BadKind(other)),
        };
        let mut rounds = Vec::new();
        let summary = loop {
            match r.frame()? {
                (kind::ROUND, payload) => rounds.push(codec::decode_round(payload)?),
                (kind::SUMMARY, payload) => break codec::decode_summary(payload)?,
                (other, _) => return Err(CodecError::BadKind(other)),
            }
        };
        if !r.is_done() {
            return Err(CodecError::TrailingBytes);
        }
        let consecutive = rounds
            .windows(2)
            .all(|w| w[0].round.checked_add(1) == Some(w[1].round));
        if !consecutive || rounds.last().is_some_and(|l| l.round != summary.rounds) {
            return Err(CodecError::BadFrame("round ordinals out of sequence"));
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
        "\",\"seed\":{},\"olat\":{},\"quantum\":{},\"initial_shards\":{},\"stage_units\":{},\"pipeline\":\"",
        m.seed, m.olat, m.quantum, m.initial_shards, m.stage_units
    ));
    json_escape(out, &m.pipeline);
    out.push_str("\",\"capacity\":\"");
    json_escape(out, &m.capacity);
    out.push_str("\"}\n");
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
        };
        let samples = (0..rounds as u64)
            .map(|i| RoundSample {
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
            })
            .collect();
        let mut hist = Histogram::new(78, 32);
        for v in [100u64, 200, 1500, 2400] {
            hist.record(v);
        }
        PerfSession {
            meta,
            rounds: samples,
            summary: SessionSummary {
                rounds: rounds as u64,
                clock: rounds as u64 * 65_536,
                accesses: 4,
                service_cycles: 4200,
                queueing_cycles: 120,
                eviction_drains: 2,
                service_hist: hist,
            },
        }
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
        let mut appended = bytes.clone();
        appended.push(0);
        assert_eq!(
            PerfSession::from_bytes(&appended),
            Err(CodecError::TrailingBytes)
        );
    }

    #[test]
    fn rounds_out_of_sequence_are_rejected() {
        // Every row leaves each frame well-formed and changes only which
        // round frames the file holds, or the ordinal one of them
        // carries, so only the sequence check can refuse it.
        type Corruption = fn(&mut PerfSession);
        let rows: [(&str, Corruption); 8] = [
            ("rounds 2 and 3 swapped", |s| s.rounds.swap(1, 2)),
            ("round 2 dropped", |s| {
                s.rounds.remove(1);
            }),
            ("round 2 repeated", |s| {
                let twin = s.rounds[1].clone();
                s.rounds.insert(2, twin);
            }),
            ("round 2 renumbered 2 -> 5", |s| s.rounds[1].round = 5),
            ("last round renumbered 4 -> 99", |s| s.rounds[3].round = 99),
            ("round 3 renumbered 3 -> u64::MAX", |s| {
                s.rounds[2].round = u64::MAX
            }),
            ("last round dropped", |s| {
                s.rounds.pop();
            }),
            ("every ordinal one past the summary", |s| {
                s.rounds.iter_mut().for_each(|r| r.round += 1)
            }),
        ];
        let good = session(4);
        for (what, corrupt) in rows {
            let mut bad = good.clone();
            corrupt(&mut bad);
            assert_ne!(bad, good, "{what}: the corruption changed nothing");
            assert_eq!(
                PerfSession::from_bytes(&bad.to_bytes()),
                Err(CodecError::BadFrame("round ordinals out of sequence")),
                "{what}"
            );
        }
        // A session started mid-run starts past round 1: the sequence
        // only has to count up to the summary's round count.
        let mut late = good;
        late.rounds.iter_mut().for_each(|r| r.round += 10);
        late.summary.rounds += 10;
        assert_eq!(PerfSession::from_bytes(&late.to_bytes()), Ok(late));
    }
}
