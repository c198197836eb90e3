//! Human-readable session rendering: per-shard stage-occupancy and
//! queue-depth timelines, utilization, and a per-tenant SLO table.
//!
//! Timelines compress the recorded rounds into at most `width` columns;
//! each column shows one digit `0..=9`. Occupancy digits are tenths of
//! busy fraction over the column's wall-clock span (`7` ≈ 70% busy);
//! queue-depth and calendar digits are the column's maximum, saturating
//! at `9`. A blank column means the shard did not exist then (pool
//! resize).

use crate::schema::RoundSample;
use crate::session::PerfSession;

/// Renders the full report for a recorded session.
///
/// `width` bounds the timeline columns; `slo_cycles` is the per-access
/// service SLO the tenant table scores attainment against (mean wait
/// plus OLAT within `slo_cycles` for every round a tenant was served).
pub fn render_session(s: &PerfSession, width: usize, slo_cycles: u64) -> String {
    let mut out = String::new();
    let m = &s.meta;
    out.push_str(&format!("perf session: {}\n", m.label));
    out.push_str(&format!(
        "  seed {} | olat {} | quantum {} | pipeline {} | capacity {}\n",
        m.seed, m.olat, m.quantum, m.pipeline, m.capacity
    ));
    out.push_str(&format!(
        "  rounds {} | horizon {} cycles | shards {} | stage units {}\n\n",
        s.summary.rounds, s.summary.clock, m.initial_shards, m.stage_units
    ));
    out.push_str(&format!(
        "service distribution: mean {:.1} | p50 {} | p99 {} | accesses {} | queueing {} | drains {}\n\n",
        s.summary.mean_service_cycles(),
        s.summary.service_hist.percentile(50),
        s.summary.service_hist.percentile(99),
        s.summary.accesses,
        s.summary.queueing_cycles,
        s.summary.eviction_drains
    ));
    if s.rounds.is_empty() {
        out.push_str("(no rounds recorded)\n");
        return out;
    }
    let cols = columns(s.rounds.len(), width);
    render_timelines(&mut out, s, &cols);
    render_tenant_table(&mut out, s, slo_cycles);
    out
}

/// Column boundaries: `cols[c] = (start_round_idx, end_round_idx)`,
/// end-exclusive, covering every recorded round exactly once.
fn columns(n: usize, width: usize) -> Vec<(usize, usize)> {
    let ncols = width.clamp(1, 160).min(n);
    (0..ncols)
        .map(|c| (c * n / ncols, (c + 1) * n / ncols))
        .filter(|(a, b)| a < b)
        .collect()
}

/// Wall-clock span of one column (cumulative clock delta).
fn clock_delta(s: &PerfSession, start: usize, end: usize) -> u64 {
    let before = if start == 0 {
        s.rounds[0].clock.saturating_sub(s.meta.quantum)
    } else {
        s.rounds[start - 1].clock
    };
    s.rounds[end - 1].clock.saturating_sub(before)
}

/// Delta of a cumulative per-round counter over one column; `f` returns
/// `None` for rounds where the tracked object did not exist.
fn counter_delta(
    rounds: &[RoundSample],
    start: usize,
    end: usize,
    f: impl Fn(&RoundSample) -> Option<u64>,
) -> Option<u64> {
    let after = f(&rounds[end - 1])?;
    let before = if start == 0 {
        0
    } else {
        f(&rounds[start - 1]).unwrap_or(0)
    };
    Some(after.saturating_sub(before))
}

fn occupancy_digit(busy: u64, span: u64) -> char {
    if span == 0 {
        return '0';
    }
    // In u128: a decoded session's counters can be anywhere in u64.
    let tenths = (u128::from(busy) * 10 / u128::from(span)).min(9);
    char::from(b'0' + tenths as u8)
}

fn level_digit(v: u64) -> char {
    char::from(b'0' + v.min(9) as u8)
}

fn render_timelines(out: &mut String, s: &PerfSession, cols: &[(usize, usize)]) {
    let n_shards = s.rounds.iter().map(|r| r.shards.len()).max().unwrap_or(0);
    let units = s
        .rounds
        .iter()
        .flat_map(|r| r.shards.iter().map(|sh| sh.stage_busy.len()))
        .max()
        .unwrap_or(0);
    out.push_str(&format!(
        "stage occupancy (busy tenths per column; {} columns over {} rounds):\n",
        cols.len(),
        s.rounds.len()
    ));
    for shard in 0..n_shards {
        for unit in 0..units {
            let row: String = cols
                .iter()
                .map(|&(a, b)| {
                    let span = clock_delta(s, a, b);
                    match counter_delta(&s.rounds, a, b, |r| {
                        r.shards
                            .get(shard)
                            .and_then(|sh| sh.stage_busy.get(unit))
                            .copied()
                    }) {
                        Some(busy) => occupancy_digit(busy, span),
                        None => ' ',
                    }
                })
                .collect();
            out.push_str(&format!("  shard {shard} unit {unit} |{row}|\n"));
        }
    }
    out.push_str("\neviction queue depth (column max, saturating at 9):\n");
    for shard in 0..n_shards {
        let row: String = cols
            .iter()
            .map(|&(a, b)| {
                let depths: Vec<u64> = s.rounds[a..b]
                    .iter()
                    .filter_map(|r| r.shards.get(shard).map(|sh| u64::from(sh.queue_depth)))
                    .collect();
                if depths.is_empty() {
                    ' '
                } else {
                    level_digit(depths.into_iter().max().unwrap_or(0))
                }
            })
            .collect();
        out.push_str(&format!("  shard {shard}        |{row}|\n"));
    }
    let cal_row: String = cols
        .iter()
        .map(|&(a, b)| {
            level_digit(
                s.rounds[a..b]
                    .iter()
                    .map(|r| u64::from(r.calendar.entries))
                    .max()
                    .unwrap_or(0),
            )
        })
        .collect();
    out.push_str(&format!("\ncalendar entries  |{cal_row}|\n"));
    out.push_str("\nutilization (bottleneck unit over the recorded window):\n");
    let n = s.rounds.len();
    for shard in 0..n_shards {
        let span = clock_delta(s, 0, n);
        let busy = (0..units)
            .filter_map(|unit| {
                counter_delta(&s.rounds, 0, n, |r| {
                    r.shards
                        .get(shard)
                        .and_then(|sh| sh.stage_busy.get(unit))
                        .copied()
                })
            })
            .max()
            .unwrap_or(0);
        let pct = if span == 0 {
            0.0
        } else {
            100.0 * busy as f64 / span as f64
        };
        out.push_str(&format!("  shard {shard}  {pct:6.1}%\n"));
    }
}

fn render_tenant_table(out: &mut String, s: &PerfSession, slo_cycles: u64) {
    let last = match s.rounds.last() {
        Some(r) => r,
        None => return,
    };
    out.push_str(&format!(
        "\ntenant SLO attainment (slo = {} cycles per access, mean wait + olat per round):\n",
        slo_cycles
    ));
    out.push_str("  id  state    slots    real    wait/slot  slo-ok%\n");
    for t in &last.tenants {
        let series: Vec<(u64, u64)> = s
            .rounds
            .iter()
            .filter_map(|r| {
                r.tenants
                    .iter()
                    .find(|row| row.id == t.id)
                    .map(|row| (row.slots, row.queued_cycles))
            })
            .collect();
        let mut considered = 0u64;
        let mut attained = 0u64;
        let mut prev = (0u64, 0u64);
        let headroom = slo_cycles.saturating_sub(s.meta.olat);
        for &(slots, queued) in &series {
            let ds = slots.saturating_sub(prev.0);
            let dq = queued.saturating_sub(prev.1);
            prev = (slots, queued);
            if ds == 0 {
                continue;
            }
            considered += 1;
            if u128::from(dq) <= u128::from(ds) * u128::from(headroom) {
                attained += 1;
            }
        }
        let pct = if considered == 0 {
            100.0
        } else {
            100.0 * attained as f64 / considered as f64
        };
        let wait = if t.slots == 0 {
            0.0
        } else {
            t.queued_cycles as f64 / t.slots as f64
        };
        out.push_str(&format!(
            "  {:<3} {:<8} {:>7} {:>7} {:>10.1} {:>8.1}\n",
            t.id,
            if t.active { "active" } else { "evicted" },
            t.slots,
            t.real,
            wait,
            pct
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::schema::{CalendarSample, SessionMeta, SessionSummary, ShardSample, TenantSample};
    use crate::session::SessionRecorder;

    fn synthetic() -> PerfSession {
        let quantum = 1000u64;
        let meta = SessionMeta {
            label: "render test".into(),
            seed: 1,
            olat: 100,
            quantum,
            initial_shards: 2,
            stage_units: 2,
            pipeline: "staged".into(),
            capacity: "cadence".into(),
        };
        let mut rec = SessionRecorder::new(meta);
        for i in 1..=8u64 {
            rec.push(RoundSample {
                round: i,
                clock: i * quantum,
                admissions_denied: 0,
                retired_accesses: 0,
                fleet_capacity_share: 1.0,
                calendar: CalendarSample {
                    entries: 12,
                    occupied_buckets: 4,
                    max_bucket_len: 5,
                },
                shards: vec![
                    ShardSample {
                        // Unit 0 fully busy, unit 1 30% busy.
                        accesses: i * 10,
                        queue_depth: 3,
                        stash_len: 8,
                        stage_busy: vec![i * quantum, i * 300],
                    },
                    ShardSample {
                        accesses: i * 2,
                        queue_depth: 0,
                        stash_len: 2,
                        stage_busy: vec![i * 100, i * 50],
                    },
                ],
                tenants: vec![
                    TenantSample {
                        id: 0,
                        active: true,
                        slots: i * 6,
                        real: i * 4,
                        queued_cycles: 0,
                        denied: 0,
                        traffic: 0,
                    },
                    TenantSample {
                        id: 1,
                        active: true,
                        slots: i * 6,
                        real: i * 3,
                        // 500 wait cycles per slot: blows a 200-cycle SLO.
                        queued_cycles: i * 3000,
                        denied: 0,
                        traffic: 1,
                    },
                ],
            });
        }
        let mut hist = Histogram::new(10, 64);
        for v in [100u64, 100, 100, 400] {
            hist.record(v);
        }
        rec.finish(SessionSummary {
            rounds: 8,
            clock: 8000,
            accesses: 96,
            service_cycles: 9600,
            queueing_cycles: 24_000,
            eviction_drains: 5,
            service_hist: hist,
        })
    }

    #[test]
    fn render_includes_timelines_and_slo_table() {
        let text = render_session(&synthetic(), 8, 200);
        assert!(text.contains("perf session: render test"));
        assert!(text.contains("stage occupancy"));
        // Unit 0 of shard 0 is saturated: all columns show 9.
        assert!(text.contains("shard 0 unit 0 |99999999|"));
        // Unit 1 of shard 0 runs at 30%: all columns show 3.
        assert!(text.contains("shard 0 unit 1 |33333333|"));
        assert!(text.contains("eviction queue depth"));
        assert!(text.contains("shard 0        |33333333|"));
        assert!(text.contains("shard 1        |00000000|"));
        // 12 calendar entries saturate the digit at 9.
        assert!(text.contains("calendar entries  |99999999|"));
        assert!(text.contains("utilization"));
        assert!(text.contains("shard 0   100.0%"));
        assert!(text.contains("tenant SLO attainment"));
        // Tenant 0 never waits; tenant 1 blows the SLO every round.
        assert!(text.contains("  0   active        48      32        0.0    100.0"));
        assert!(text.contains("  1   active        48      24      500.0      0.0"));
    }

    #[test]
    fn large_counters_render_without_overflow() {
        // The decoder checks a session's structure, not its values, so a
        // decodable session can carry counters whose products overflow.
        // Busy counters a quarter of u64 past the synthetic ones: every
        // column is still saturated.
        let mut busy = synthetic();
        for r in &mut busy.rounds {
            r.shards[0].stage_busy[0] += u64::MAX / 4;
        }
        let text = render_session(&busy, 8, 200);
        assert!(text.contains("shard 0 unit 0 |99999999|"), "{text}");
        // An SLO of u64::MAX cycles: every served round attains it.
        let text = render_session(&synthetic(), 8, u64::MAX);
        assert!(text.contains("  0   active        48      32        0.0    100.0"));
        assert!(text.contains("  1   active        48      24      500.0    100.0"));
        // Service-histogram buckets wider than half of u64, counts that
        // sum past it: the percentiles saturate at the top edge.
        let mut wide = synthetic();
        wide.summary.service_hist = Histogram::from_parts(u64::MAX / 2 + 1, vec![1, u64::MAX]);
        let text = render_session(&wide, 8, 200);
        assert!(
            text.contains(&format!("p50 {0} | p99 {0} |", u64::MAX)),
            "{text}"
        );
    }

    #[test]
    fn columns_cover_all_rounds_without_overlap() {
        for n in [1usize, 2, 7, 64, 1000] {
            for width in [1usize, 8, 64, 200] {
                let cols = columns(n, width);
                assert_eq!(cols[0].0, 0);
                assert_eq!(cols.last().expect("nonempty").1, n);
                for w in cols.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn empty_session_renders_header_only() {
        let meta = SessionMeta::default();
        let s = SessionRecorder::new(meta).finish(SessionSummary::default());
        let text = render_session(&s, 64, 1000);
        assert!(text.contains("(no rounds recorded)"));
    }
}
