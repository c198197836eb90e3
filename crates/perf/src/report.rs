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
use std::collections::HashMap;

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
    // Each shard's own stage-unit count: the most it had in any round.
    let mut units: Vec<usize> = Vec::new();
    for r in &s.rounds {
        if units.len() < r.shards.len() {
            units.resize(r.shards.len(), 0);
        }
        for (n, sh) in units.iter_mut().zip(&r.shards) {
            *n = (*n).max(sh.stage_busy.len());
        }
    }
    out.push_str(&format!(
        "stage occupancy (busy tenths per column; {} columns over {} rounds):\n",
        cols.len(),
        s.rounds.len()
    ));
    for (shard, &n_units) in units.iter().enumerate() {
        for unit in 0..n_units {
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
    // Shard-major digit grid, filled in one pass over each column's
    // rounds. A blank sorts below every digit, so `max` keeps the
    // column's deepest queue and leaves absent shards blank.
    let mut depth = vec![b' '; units.len() * cols.len()];
    for (c, &(a, b)) in cols.iter().enumerate() {
        for r in &s.rounds[a..b] {
            for (shard, sh) in r.shards.iter().enumerate() {
                let cell = &mut depth[shard * cols.len() + c];
                *cell = (*cell).max(level_digit(u64::from(sh.queue_depth)) as u8);
            }
        }
    }
    for (shard, row) in depth.chunks(cols.len()).enumerate() {
        let row: String = row.iter().map(|&d| char::from(d)).collect();
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
    for (shard, &n_units) in units.iter().enumerate() {
        let span = clock_delta(s, 0, n);
        let busy = (0..n_units)
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

/// One last-round tenant's SLO tally, accumulated round by round.
#[derive(Clone, Copy, Default)]
struct Attainment {
    /// Cumulative `(slots, queued_cycles)` at the previous round seen.
    prev: (u64, u64),
    /// Rounds in which the tenant was served.
    considered: u64,
    /// Of those, rounds whose mean wait plus OLAT met the SLO.
    attained: u64,
    /// 1 + index of the last round counted (a round counts its first
    /// row for an id only).
    seen: usize,
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
    // One tally per id the last round names, filled in one pass over
    // the rounds.
    let mut index: HashMap<u32, usize> = HashMap::with_capacity(last.tenants.len());
    for t in &last.tenants {
        let next = index.len();
        index.entry(t.id).or_insert(next);
    }
    let mut tally = vec![Attainment::default(); index.len()];
    let headroom = slo_cycles.saturating_sub(s.meta.olat);
    for (i, r) in s.rounds.iter().enumerate() {
        for row in &r.tenants {
            let Some(&k) = index.get(&row.id) else {
                continue;
            };
            let a = &mut tally[k];
            if a.seen == i + 1 {
                continue;
            }
            a.seen = i + 1;
            let ds = row.slots.saturating_sub(a.prev.0);
            let dq = row.queued_cycles.saturating_sub(a.prev.1);
            a.prev = (row.slots, row.queued_cycles);
            if ds == 0 {
                continue;
            }
            a.considered += 1;
            if u128::from(dq) <= u128::from(ds) * u128::from(headroom) {
                a.attained += 1;
            }
        }
    }
    for t in &last.tenants {
        let a = tally[index[&t.id]];
        let pct = if a.considered == 0 {
            100.0
        } else {
            100.0 * a.attained as f64 / a.considered as f64
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
        let rounds = (1..=8u64)
            .map(|i| RoundSample {
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
            })
            .collect();
        let mut hist = Histogram::new(10, 64);
        for v in [100u64, 100, 100, 400] {
            hist.record(v);
        }
        PerfSession {
            meta,
            rounds,
            summary: SessionSummary {
                rounds: 8,
                clock: 8000,
                accesses: 96,
                service_cycles: 9600,
                queueing_cycles: 24_000,
                eviction_drains: 5,
                service_hist: hist,
            },
        }
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
        let s = PerfSession {
            meta: SessionMeta::default(),
            rounds: Vec::new(),
            summary: SessionSummary::default(),
        };
        let text = render_session(&s, 64, 1000);
        assert!(text.contains("(no rounds recorded)"));
    }

    #[test]
    fn each_shard_renders_only_its_own_stage_units() {
        // One round with one 4,000-unit shard, then one with 4,000
        // zero-unit shards: a row per shard for every unit of the
        // widest shard would be 16 M rows; each shard's own units are
        // 4,000.
        let wide = ShardSample {
            stage_busy: vec![0; 4_000],
            ..ShardSample::default()
        };
        let s = PerfSession {
            meta: SessionMeta {
                quantum: 1000,
                ..SessionMeta::default()
            },
            rounds: vec![
                RoundSample {
                    round: 1,
                    clock: 1000,
                    shards: vec![wide],
                    ..RoundSample::default()
                },
                RoundSample {
                    round: 2,
                    clock: 2000,
                    shards: vec![ShardSample::default(); 4_000],
                    ..RoundSample::default()
                },
            ],
            summary: SessionSummary {
                rounds: 2,
                ..SessionSummary::default()
            },
        };
        let text = render_session(&s, 64, 1000);
        let stage_rows: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("  shard ") && l.contains(" unit "))
            .collect();
        assert_eq!(stage_rows.len(), 4_000);
        assert!(stage_rows.iter().all(|l| l.starts_with("  shard 0 unit ")));
        // Every shard still gets its queue-depth and utilization rows.
        assert!(
            text.contains("  shard 3999        | 0|"),
            "{}",
            &text[..200]
        );
        assert!(text.contains("  shard 3999     0.0%"));
    }

    #[test]
    fn slo_table_counts_the_first_row_per_id_each_round() {
        // A decodable session can name one id twice in a round; only
        // the first row counts, and both last-round rows print the
        // same attainment. Tenant 0 waits 500 cycles per slot in round
        // 2 only: one of its two served rounds meets a 200-cycle SLO.
        // Counting the never-waiting duplicates too would read 100%.
        let mut s = synthetic();
        s.rounds.truncate(2);
        s.summary.rounds = 2;
        for r in &mut s.rounds {
            r.tenants.truncate(1);
            let dup = TenantSample {
                slots: r.tenants[0].slots + 1000,
                ..r.tenants[0].clone()
            };
            r.tenants.push(dup);
        }
        s.rounds[1].tenants[0].queued_cycles = 3000;
        let text = render_session(&s, 8, 200);
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("  0 ")).collect();
        assert_eq!(rows.len(), 2, "{text}");
        assert!(rows.iter().all(|l| l.ends_with("50.0")), "{text}");
    }
}
