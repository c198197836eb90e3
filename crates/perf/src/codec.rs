//! The on-disk session format: framed, length-prefixed little-endian
//! records behind a versioned header.
//!
//! ```text
//! offset 0   magic  b"OTCPERF\x01"                  (8 bytes)
//! offset 8   format version u32 LE (currently 3)
//! offset 12  frames: [kind u8][payload_len u32 LE][payload]
//!              kind 1  meta     (exactly one, first)
//!              kind 2  round    (one per scheduling round, in order)
//!              kind 3  summary  (exactly one, last)
//! ```
//!
//! [`PerfSession::from_bytes`](crate::PerfSession::from_bytes), the only
//! decoder, reads the frames in order and requires every payload to be
//! consumed, nothing to follow the summary, and the round ordinals to
//! count up by one to the summary's round count. Strings are `u16`
//! length-prefixed UTF-8; `f64`s are stored as IEEE-754 bit patterns;
//! `bool`s as one byte. Nothing in the layout depends on platform
//! endianness or map iteration order, so equal sessions serialize to
//! equal bytes.

use crate::hist::Histogram;
use crate::schema::{
    CalendarSample, RoundSample, SessionMeta, SessionSummary, ShardSample, TenantSample,
};

/// Leading file magic (the trailing byte doubles as a layout epoch).
pub const FILE_MAGIC: &[u8; 8] = b"OTCPERF\x01";
/// Format version written after the magic. Version 2 added the
/// per-tenant `traffic` tag to round frames; version 3 dropped the
/// footer index, the trailer and the meta's scheduler name. Other
/// versions are rejected cleanly with [`CodecError::BadVersion`]
/// instead of misinterpreting frames.
pub const FORMAT_VERSION: u32 = 3;

/// Frame kind tags.
pub mod kind {
    /// Session meta frame.
    pub const META: u8 = 1;
    /// Round-sample frame.
    pub const ROUND: u8 = 2;
    /// Summary frame.
    pub const SUMMARY: u8 = 3;
}

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a field did.
    Truncated,
    /// The leading magic did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Unexpected frame kind tag.
    BadKind(u8),
    /// A string field held invalid UTF-8.
    BadString,
    /// A frame's fields decoded but describe no valid value.
    BadFrame(&'static str),
    /// A frame decoded without consuming its whole payload, or bytes
    /// follow the summary frame.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "session file truncated"),
            CodecError::BadMagic => write!(f, "not a perf session file (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported session format version {v}"),
            CodecError::BadKind(k) => write!(f, "unexpected frame kind {k}"),
            CodecError::BadString => write!(f, "invalid UTF-8 in session string"),
            CodecError::BadFrame(what) => write!(f, "corrupt session frame: {what}"),
            CodecError::TrailingBytes => {
                write!(f, "trailing bytes in a frame or after the summary")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------- encode

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len()).expect("session strings fit in u16");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Appends one `[kind][len][payload]` frame.
pub(crate) fn put_frame(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    put_u8(buf, kind);
    put_u32(
        buf,
        u32::try_from(payload.len()).expect("frame payloads fit in u32"),
    );
    buf.extend_from_slice(payload);
}

pub(crate) fn encode_meta(m: &SessionMeta) -> Vec<u8> {
    let mut p = Vec::new();
    put_str(&mut p, &m.label);
    put_u64(&mut p, m.seed);
    put_u64(&mut p, m.olat);
    put_u64(&mut p, m.quantum);
    put_u32(&mut p, m.initial_shards);
    put_u32(&mut p, m.stage_units);
    put_str(&mut p, &m.pipeline);
    put_str(&mut p, &m.capacity);
    p
}

pub(crate) fn encode_round(r: &RoundSample) -> Vec<u8> {
    let mut p = Vec::new();
    put_u64(&mut p, r.round);
    put_u64(&mut p, r.clock);
    put_u64(&mut p, r.admissions_denied);
    put_u64(&mut p, r.retired_accesses);
    put_f64(&mut p, r.fleet_capacity_share);
    put_u32(&mut p, r.calendar.entries);
    put_u32(&mut p, r.calendar.occupied_buckets);
    put_u32(&mut p, r.calendar.max_bucket_len);
    put_u32(&mut p, r.shards.len() as u32);
    for s in &r.shards {
        put_u64(&mut p, s.accesses);
        put_u32(&mut p, s.queue_depth);
        put_u32(&mut p, s.stash_len);
        put_u32(&mut p, s.stage_busy.len() as u32);
        for &b in &s.stage_busy {
            put_u64(&mut p, b);
        }
    }
    put_u32(&mut p, r.tenants.len() as u32);
    for t in &r.tenants {
        put_u32(&mut p, t.id);
        put_u8(&mut p, u8::from(t.active));
        put_u64(&mut p, t.slots);
        put_u64(&mut p, t.real);
        put_u64(&mut p, t.queued_cycles);
        put_u64(&mut p, t.denied);
        put_u8(&mut p, t.traffic);
    }
    p
}

pub(crate) fn encode_summary(s: &SessionSummary) -> Vec<u8> {
    let mut p = Vec::new();
    put_u64(&mut p, s.rounds);
    put_u64(&mut p, s.clock);
    put_u64(&mut p, s.accesses);
    put_u64(&mut p, s.service_cycles);
    put_u64(&mut p, s.queueing_cycles);
    put_u64(&mut p, s.eviction_drains);
    put_u64(&mut p, s.service_hist.width());
    let counts = s.service_hist.counts();
    put_u32(&mut p, counts.len() as u32);
    for &c in counts {
        put_u64(&mut p, c);
    }
    p
}

// ---------------------------------------------------------------- decode

/// Bounds-checked little-endian reader over a byte slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadString)
    }

    /// Reads a frame header, returning `(kind, payload)`.
    pub(crate) fn frame(&mut self) -> Result<(u8, &'a [u8]), CodecError> {
        let kind = self.u8()?;
        let len = self.u32()? as usize;
        Ok((kind, self.take(len)?))
    }
}

fn finish<T>(r: &Reader<'_>, value: T) -> Result<T, CodecError> {
    if r.is_done() {
        Ok(value)
    } else {
        Err(CodecError::TrailingBytes)
    }
}

pub(crate) fn decode_meta(payload: &[u8]) -> Result<SessionMeta, CodecError> {
    let mut r = Reader::new(payload);
    let m = SessionMeta {
        label: r.string()?,
        seed: r.u64()?,
        olat: r.u64()?,
        quantum: r.u64()?,
        initial_shards: r.u32()?,
        stage_units: r.u32()?,
        pipeline: r.string()?,
        capacity: r.string()?,
    };
    finish(&r, m)
}

pub(crate) fn decode_round(payload: &[u8]) -> Result<RoundSample, CodecError> {
    let mut r = Reader::new(payload);
    let round = r.u64()?;
    let clock = r.u64()?;
    let admissions_denied = r.u64()?;
    let retired_accesses = r.u64()?;
    let fleet_capacity_share = r.f64()?;
    if !fleet_capacity_share.is_finite() {
        return Err(CodecError::BadFrame("non-finite capacity share"));
    }
    let calendar = CalendarSample {
        entries: r.u32()?,
        occupied_buckets: r.u32()?,
        max_bucket_len: r.u32()?,
    };
    let n_shards = r.u32()? as usize;
    let mut shards = Vec::with_capacity(n_shards.min(1024));
    for _ in 0..n_shards {
        let accesses = r.u64()?;
        let queue_depth = r.u32()?;
        let stash_len = r.u32()?;
        let n_units = r.u32()? as usize;
        let mut stage_busy = Vec::with_capacity(n_units.min(1024));
        for _ in 0..n_units {
            stage_busy.push(r.u64()?);
        }
        shards.push(ShardSample {
            accesses,
            queue_depth,
            stash_len,
            stage_busy,
        });
    }
    let n_tenants = r.u32()? as usize;
    let mut tenants = Vec::with_capacity(n_tenants.min(1024));
    for _ in 0..n_tenants {
        tenants.push(TenantSample {
            id: r.u32()?,
            active: r.u8()? != 0,
            slots: r.u64()?,
            real: r.u64()?,
            queued_cycles: r.u64()?,
            denied: r.u64()?,
            traffic: r.u8()?,
        });
    }
    finish(
        &r,
        RoundSample {
            round,
            clock,
            admissions_denied,
            retired_accesses,
            fleet_capacity_share,
            calendar,
            shards,
            tenants,
        },
    )
}

pub(crate) fn decode_summary(payload: &[u8]) -> Result<SessionSummary, CodecError> {
    let mut r = Reader::new(payload);
    let rounds = r.u64()?;
    let clock = r.u64()?;
    let accesses = r.u64()?;
    let service_cycles = r.u64()?;
    let queueing_cycles = r.u64()?;
    let eviction_drains = r.u64()?;
    let width = r.u64()?;
    let n = r.u32()? as usize;
    if width == 0 || n == 0 {
        return Err(CodecError::BadFrame("summary histogram shape"));
    }
    let mut counts = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        counts.push(r.u64()?);
    }
    finish(
        &r,
        SessionSummary {
            rounds,
            clock,
            accesses,
            service_cycles,
            queueing_cycles,
            eviction_drains,
            service_hist: Histogram::from_parts(width, counts),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoundSample {
        RoundSample {
            round: 3,
            clock: 196_608,
            admissions_denied: 1,
            retired_accesses: 7,
            fleet_capacity_share: 1.625,
            calendar: CalendarSample {
                entries: 5,
                occupied_buckets: 3,
                max_bucket_len: 2,
            },
            shards: vec![
                ShardSample {
                    accesses: 40,
                    queue_depth: 2,
                    stash_len: 11,
                    stage_busy: vec![100, 220, 330],
                },
                ShardSample {
                    accesses: 38,
                    queue_depth: 0,
                    stash_len: 6,
                    stage_busy: vec![90, 210, 300],
                },
            ],
            tenants: vec![
                TenantSample {
                    id: 0,
                    active: true,
                    slots: 50,
                    real: 33,
                    queued_cycles: 1200,
                    denied: 0,
                    traffic: 0,
                },
                TenantSample {
                    id: 1,
                    active: false,
                    slots: 28,
                    real: 20,
                    queued_cycles: 0,
                    denied: 2,
                    traffic: 4,
                },
            ],
        }
    }

    #[test]
    fn round_frame_round_trips() {
        let r = sample();
        assert_eq!(decode_round(&encode_round(&r)).expect("decodes"), r);
    }

    #[test]
    fn meta_frame_round_trips() {
        let m = SessionMeta {
            label: "churn seed=9 oram=small".into(),
            seed: 9,
            olat: 1248,
            quantum: 65_536,
            initial_shards: 4,
            stage_units: 3,
            pipeline: "staged".into(),
            capacity: "cadence".into(),
        };
        assert_eq!(decode_meta(&encode_meta(&m)).expect("decodes"), m);
    }

    #[test]
    fn summary_frame_round_trips() {
        let mut hist = Histogram::new(78, 64);
        for v in [100u64, 100, 2400, 5000] {
            hist.record(v);
        }
        let s = SessionSummary {
            rounds: 12,
            clock: 786_432,
            accesses: 4,
            service_cycles: 7600,
            queueing_cycles: 600,
            eviction_drains: 3,
            service_hist: hist,
        };
        assert_eq!(decode_summary(&encode_summary(&s)).expect("decodes"), s);
    }

    #[test]
    fn summary_with_an_empty_histogram_is_a_bad_frame() {
        let s = SessionSummary {
            rounds: 1,
            clock: 64,
            accesses: 1,
            service_cycles: 100,
            queueing_cycles: 0,
            eviction_drains: 0,
            service_hist: Histogram::new(78, 4),
        };
        let good = encode_summary(&s);
        // Six u64 counters, then the width (u64) and bucket count (u32).
        for (field, range) in [("width", 48..56), ("bucket count", 56..60)] {
            let mut bad = good.clone();
            bad[range].fill(0);
            let err = decode_summary(&bad).expect_err(field);
            assert_eq!(
                err,
                CodecError::BadFrame("summary histogram shape"),
                "{field}"
            );
            assert_eq!(
                err.to_string(),
                "corrupt session frame: summary histogram shape"
            );
        }
    }

    #[test]
    fn truncated_payload_errors_cleanly() {
        let full = encode_round(&sample());
        for cut in [0, 1, 7, full.len() / 2, full.len() - 1] {
            assert_eq!(decode_round(&full[..cut]), Err(CodecError::Truncated));
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut p = encode_round(&sample());
        p.push(0);
        assert_eq!(decode_round(&p), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn non_finite_capacity_shares_are_bad_frames() {
        for share in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = RoundSample {
                fleet_capacity_share: share,
                ..sample()
            };
            assert_eq!(
                decode_round(&encode_round(&r)),
                Err(CodecError::BadFrame("non-finite capacity share")),
                "{share}"
            );
        }
    }
}
