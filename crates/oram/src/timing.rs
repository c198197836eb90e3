//! Derived timing of one ORAM access.
//!
//! Combines the ORAM geometry ([`crate::OramConfig`]) with the DRAM
//! channel model ([`otc_dram::DdrConfig`]) to produce the access latency
//! the rest of the stack uses. With both at their defaults this reproduces
//! §9.1.2 exactly: 24.2 KB per access, 1984 DRAM cycles, 1488 CPU cycles.
//!
//! Two views of the same access exist:
//!
//! * [`OramTiming`] — the access as one opaque latency (`OLAT`), the unit
//!   a serial controller charges per slot.
//! * [`AccessPlan`] — the access decomposed into its pipelineable stages:
//!   one stage per recursive posmap lookup (smallest tree first, the
//!   order the recursion actually runs), a data-tree path read, and the
//!   data-tree path write-back (eviction). The stage costs sum to `OLAT`
//!   *exactly*, so a serial replay of the plan reproduces [`OramTiming`]
//!   bit for bit while a pipelined controller can overlap stages of
//!   consecutive accesses.

use crate::config::OramConfig;
use crate::geometry::TreeGeometry;
use otc_dram::{dram_to_cpu_cycles, Cycle, DdrConfig, TransferSpec};

/// The timing profile of one (real or dummy) ORAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OramTiming {
    /// The pin-level transfer one access performs.
    pub transfer: TransferSpec,
    /// DRAM cycles the memory system is busy per access.
    pub dram_cycles: u64,
    /// CPU-cycle latency of one access (`OLAT` in the paper's notation).
    pub latency: Cycle,
}

impl OramTiming {
    /// Derives the timing of one access of `oram` over `ddr`.
    ///
    /// # Example
    ///
    /// ```
    /// use otc_oram::{OramConfig, OramTiming};
    /// use otc_dram::DdrConfig;
    ///
    /// let t = OramTiming::derive(&OramConfig::paper(), &DdrConfig::default());
    /// assert_eq!(t.latency, 1488);          // §9.1.2
    /// assert_eq!(t.transfer.bytes, 24_256); // 24.2 KB
    /// ```
    pub fn derive(oram: &OramConfig, ddr: &DdrConfig) -> Self {
        let transfer = TransferSpec {
            bytes: oram.bytes_per_access(),
            // One row activation per bucket: the row stays open across the
            // bucket's read and its write-back.
            row_activations: oram.total_path_buckets(),
            // Read phase -> write phase -> back to reads.
            direction_switches: 2,
        };
        let dram_cycles = ddr.busy_dram_cycles(&transfer);
        Self {
            transfer,
            dram_cycles,
            latency: ddr.busy_cpu_cycles(&transfer),
        }
    }

    /// Sixteen-byte chunks moved per access (the unit of AES and stash
    /// energy in Table 2).
    pub fn chunks_per_access(&self) -> u64 {
        self.transfer.bytes / 16
    }
}

/// One ORAM access decomposed into its pipelineable stages.
///
/// Stage costs are CPU cycles and sum to [`OramTiming::latency`]
/// **exactly** (the derivation converts cumulative DRAM-cycle prefix
/// sums, so per-stage rounding telescopes away). A serial controller
/// charging `total()` per access is therefore bit-identical to the
/// opaque-OLAT model; a pipelined controller may overlap the posmap
/// stages of one access with the data-path/eviction stages of the
/// previous one, because the stages touch disjoint trees.
///
/// # Example
///
/// ```
/// use otc_oram::{AccessPlan, OramConfig, OramTiming};
/// use otc_dram::DdrConfig;
///
/// let cfg = OramConfig::paper();
/// let ddr = DdrConfig::default();
/// let plan = AccessPlan::derive(&cfg, &ddr);
/// assert_eq!(plan.total(), OramTiming::derive(&cfg, &ddr).latency);
/// assert_eq!(plan.posmap_levels.len(), 3);
/// assert!(plan.critical_path() < plan.total());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    /// Cost of each recursive posmap lookup (path read + write-back of
    /// that posmap tree), in recursion order: smallest tree first, ending
    /// at the tree that holds the data ORAM's positions.
    pub posmap_levels: Vec<Cycle>,
    /// Cost of reading the data tree's path — the stage whose completion
    /// returns the requested block to the tenant.
    pub data_read: Cycle,
    /// Cost of the data tree's path write-back (the eviction stage). A
    /// pipelined shard may defer this into a bounded background queue.
    pub eviction: Cycle,
}

impl AccessPlan {
    /// Decomposes one access of `oram` over `ddr` into stage costs.
    ///
    /// Accounting choices (mirroring [`OramTiming::derive`]'s aggregate
    /// transfer): each tree's row activations are charged to the stage
    /// that first opens its rows (posmap stages carry both directions of
    /// their small trees; the data tree's rows are charged to the read,
    /// which leaves them open for the write-back), and both bus
    /// turnarounds are charged to the eviction stage that causes them.
    pub fn derive(oram: &OramConfig, ddr: &DdrConfig) -> Self {
        // Cumulative transfer after each stage; stage costs are
        // differences of the converted CPU-cycle prefix sums.
        let mut cum = TransferSpec {
            bytes: 0,
            row_activations: 0,
            direction_switches: 0,
        };
        let mut last_cpu: Cycle = 0;
        let mut stage = |cum: &mut TransferSpec, bytes: u64, rows: u64, switches: u64| -> Cycle {
            cum.bytes += bytes;
            cum.row_activations += rows;
            cum.direction_switches += switches;
            let cpu = dram_to_cpu_cycles(ddr.busy_dram_cycles(cum));
            let cost = cpu - last_cpu;
            last_cpu = cpu;
            cost
        };
        // Recursion order: smallest posmap first (posmaps is stored
        // largest-first, so walk it in reverse).
        let posmap_levels = oram
            .posmaps
            .iter()
            .rev()
            .map(|g: &TreeGeometry| stage(&mut cum, 2 * g.path_bytes(), u64::from(g.levels()), 0))
            .collect();
        let data_read = stage(
            &mut cum,
            oram.data.path_bytes(),
            u64::from(oram.data.levels()),
            0,
        );
        let eviction = stage(&mut cum, oram.data.path_bytes(), 0, 2);
        Self {
            posmap_levels,
            data_read,
            eviction,
        }
    }

    /// Sum of all stage costs — equals [`OramTiming::latency`] exactly.
    pub fn total(&self) -> Cycle {
        self.posmap_cycles() + self.data_read + self.eviction
    }

    /// Sum of the posmap-stage costs (the recursion prefix of an access).
    pub fn posmap_cycles(&self) -> Cycle {
        self.posmap_levels.iter().sum()
    }

    /// Uncontended cycles until the requested block is available: the
    /// posmap recursion plus the data-path read. The eviction stage is
    /// off the tenant's critical path once it can be deferred.
    pub fn critical_path(&self) -> Cycle {
        self.posmap_cycles() + self.data_read
    }

    /// The most expensive single stage — the sustained per-access cadence
    /// of a fully pipelined shard (its throughput bound is `1 /
    /// bottleneck` accesses per cycle instead of `1 / total`).
    pub fn bottleneck(&self) -> Cycle {
        self.posmap_levels
            .iter()
            .copied()
            .chain([self.data_read, self.eviction])
            .max()
            .unwrap_or(0)
    }

    /// Steady-state initiation interval of a staged shard pipeline: the
    /// [`AccessPlan::bottleneck`] stage, surcharged by the eviction
    /// drain the data port must eventually absorb for every access.
    /// The background queue is *bounded*, so deferral shifts each drain
    /// into a later idle window but never cancels it — in steady state
    /// the data port pays `data_read + eviction` per access, and a
    /// posmap unit can only set the cadence if a single posmap stage
    /// exceeds even that combined port load.
    ///
    /// Always within `[bottleneck(), total()]`: the surcharge never
    /// prices a pipelined shard better than its busiest stage or worse
    /// than a serial one.
    pub fn staged_cadence(&self) -> Cycle {
        let port = self.data_read + self.eviction;
        self.posmap_levels
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(port)
    }
}

/// Which per-slot service figure admission control prices capacity at.
///
/// The observable slot grid is untouched by this choice — a slot's
/// period is always `rate + OLAT` — only the *internal* service cost a
/// slot is assumed to occupy changes, and with it how many tenants fit
/// a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapacityKind {
    /// One full `OLAT` per slot, regardless of the pipeline discipline —
    /// the pre-cadence reference pricing. Under-admits a staged pool
    /// (stages of consecutive accesses overlap, so a slot does not
    /// occupy a shard for a full `OLAT`), but reproduces the historical
    /// admission decisions bit for bit.
    #[default]
    Olat,
    /// The pipeline's steady-state initiation interval: `total()` (=
    /// `OLAT`) for a serial shard, [`AccessPlan::staged_cadence`] for a
    /// staged one. Prices admission at the bandwidth the pipeline
    /// actually sustains.
    Cadence,
}

impl std::fmt::Display for CapacityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityKind::Olat => write!(f, "olat"),
            CapacityKind::Cadence => write!(f, "cadence"),
        }
    }
}

/// Unified capacity model: converts an [`AccessPlan`] plus a pipeline
/// discipline into the per-slot service figure admission control,
/// utilization accounting, and the scheduler's capacity math all price
/// against.
///
/// Two figures coexist because they answer different questions: `OLAT`
/// is what one access *costs end to end* (and what the observable slot
/// grid is built from), while the pipeline cadence is how often a shard
/// can *start* an access at steady state. A serial shard's cadence is
/// exactly `OLAT`, so the two pricings coincide there; a staged shard's
/// cadence is lower, which is precisely the admission headroom the
/// pipeline buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityModel {
    kind: CapacityKind,
    olat: Cycle,
    pipeline_cadence: Cycle,
}

impl CapacityModel {
    /// Model from its figures: `olat` is the end-to-end cost of one
    /// access, `pipeline_cadence` how often a shard can start one —
    /// `plan.total()` for a serial shard (accesses run strictly back to
    /// back, so both [`CapacityKind`]s price identically),
    /// [`AccessPlan::staged_cadence`] for a staged one. A heterogeneous
    /// pool supplies the maxima over its shard classes, so pricing stays
    /// conservative for whichever shard a slot lands on.
    pub fn from_parts(kind: CapacityKind, olat: Cycle, pipeline_cadence: Cycle) -> Self {
        Self {
            kind,
            olat,
            pipeline_cadence,
        }
    }

    /// The pricing in force.
    pub fn kind(&self) -> CapacityKind {
        self.kind
    }

    /// End-to-end cost of one access (`OLAT`) — the figure slot grids
    /// are built from, whatever the pricing.
    pub fn olat(&self) -> Cycle {
        self.olat
    }

    /// The pipeline's steady-state initiation interval (== `OLAT` for a
    /// serial shard), independent of the pricing in force.
    pub fn pipeline_cadence(&self) -> Cycle {
        self.pipeline_cadence
    }

    /// The per-slot service figure admission prices against under the
    /// model's [`CapacityKind`].
    pub fn effective_cadence(&self) -> Cycle {
        match self.kind {
            CapacityKind::Olat => self.olat,
            CapacityKind::Cadence => self.pipeline_cadence,
        }
    }

    /// Worst-case fraction of one shard a tenant slotting at `rate`
    /// demands: one slot per `rate + OLAT` cycles (the grid period is a
    /// property of the observable stream and never moves with the
    /// pricing), each occupying [`CapacityModel::effective_cadence`]
    /// service cycles.
    pub fn slot_utilization(&self, rate: Cycle) -> f64 {
        self.effective_cadence() as f64 / (rate + self.olat) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let t = OramTiming::derive(&OramConfig::paper(), &DdrConfig::default());
        assert_eq!(t.transfer.bytes, 24_256);
        assert_eq!(t.chunks_per_access(), 1516); // 2 * 758
        assert_eq!(t.dram_cycles, 1984);
        assert_eq!(t.latency, 1488);
    }

    #[test]
    fn small_config_is_faster() {
        let paper = OramTiming::derive(&OramConfig::paper(), &DdrConfig::default());
        let small = OramTiming::derive(&OramConfig::small(), &DdrConfig::default());
        assert!(small.latency < paper.latency);
        assert!(small.latency > 0);
    }

    #[test]
    fn plan_stages_sum_to_olat_exactly() {
        for cfg in [OramConfig::paper(), OramConfig::small()] {
            let ddr = DdrConfig::default();
            let t = OramTiming::derive(&cfg, &ddr);
            let plan = AccessPlan::derive(&cfg, &ddr);
            assert_eq!(plan.total(), t.latency, "{cfg:?}");
            assert_eq!(plan.posmap_levels.len(), cfg.posmaps.len());
            assert!(plan.posmap_levels.iter().all(|&c| c > 0));
            assert!(plan.data_read > 0 && plan.eviction > 0);
        }
    }

    #[test]
    fn plan_paper_shape() {
        let plan = AccessPlan::derive(&OramConfig::paper(), &DdrConfig::default());
        // Recursion order: smallest posmap (17 levels) first, so stage
        // costs grow monotonically along the recursion.
        assert!(plan.posmap_levels.windows(2).all(|w| w[0] < w[1]));
        // The data read dominates any single posmap stage; the critical
        // path (posmaps + data read) is meaningfully below full OLAT.
        assert!(plan.data_read > *plan.posmap_levels.last().expect("non-empty"));
        assert!(plan.critical_path() < plan.total());
        assert_eq!(plan.bottleneck(), plan.data_read);
        // A fully pipelined shard sustains better than 2 accesses per
        // OLAT at the paper geometry.
        assert!(2 * plan.bottleneck() < plan.total());
    }

    #[test]
    fn plan_total_tracks_olat_across_geometries() {
        // The exact-sum property must hold for odd geometries where
        // per-stage DRAM->CPU rounding would otherwise drift.
        for levels in [9u32, 13, 21] {
            let mut c = OramConfig::small();
            c.data = crate::geometry::TreeGeometry::new(levels, 3, 64, 16);
            let ddr = DdrConfig::default();
            assert_eq!(
                AccessPlan::derive(&c, &ddr).total(),
                OramTiming::derive(&c, &ddr).latency,
                "levels={levels}"
            );
        }
    }

    #[test]
    fn staged_cadence_sits_between_bottleneck_and_olat() {
        for cfg in [OramConfig::paper(), OramConfig::small()] {
            let plan = AccessPlan::derive(&cfg, &DdrConfig::default());
            let cadence = plan.staged_cadence();
            assert!(plan.bottleneck() <= cadence, "{cfg:?}");
            assert!(cadence <= plan.total(), "{cfg:?}");
            // At both stock geometries the data port (read + drain) is
            // the cadence, and it beats serial by well over the 1.5×
            // admission headroom the staged pools are sized for.
            assert_eq!(cadence, plan.data_read + plan.eviction, "{cfg:?}");
            assert!(plan.total() as f64 / cadence as f64 >= 1.5, "{cfg:?}");
        }
    }

    #[test]
    fn capacity_model_pricing() {
        let plan = AccessPlan::derive(&OramConfig::paper(), &DdrConfig::default());
        let olat = plan.total();
        // Serial: both pricings coincide at OLAT.
        for kind in [CapacityKind::Olat, CapacityKind::Cadence] {
            let m = CapacityModel::from_parts(kind, olat, olat);
            assert_eq!(m.kind(), kind);
            assert_eq!(m.effective_cadence(), olat);
            assert_eq!(m.pipeline_cadence(), olat);
            assert_eq!(m.olat(), olat);
        }
        // Staged: olat pricing still charges OLAT; cadence pricing
        // charges the steady-state initiation interval.
        let m_olat = CapacityModel::from_parts(CapacityKind::Olat, olat, plan.staged_cadence());
        assert_eq!(m_olat.effective_cadence(), olat);
        assert_eq!(m_olat.pipeline_cadence(), plan.staged_cadence());
        let m = CapacityModel::from_parts(CapacityKind::Cadence, olat, plan.staged_cadence());
        assert_eq!(m.effective_cadence(), plan.staged_cadence());
        // The utilization formula keeps the grid period at rate + OLAT
        // under both pricings.
        let rate = 2_000u64;
        assert_eq!(
            m_olat.slot_utilization(rate),
            olat as f64 / (rate + olat) as f64
        );
        assert_eq!(
            m.slot_utilization(rate),
            plan.staged_cadence() as f64 / (rate + olat) as f64
        );
        assert!(m.slot_utilization(rate) < m_olat.slot_utilization(rate));
        // A heterogeneous mix: olat from the slowest class, cadence
        // likewise.
        let m = CapacityModel::from_parts(CapacityKind::Cadence, 1_488, 700);
        assert_eq!(m.olat(), 1_488);
        assert_eq!(m.pipeline_cadence(), 700);
        assert_eq!(m.effective_cadence(), 700);
        // The grid period stays rate + OLAT whatever the cadence.
        assert_eq!(m.slot_utilization(512), 700.0 / 2_000.0);
    }

    #[test]
    fn capacity_kind_display_is_the_cli_token() {
        assert_eq!(CapacityKind::Olat.to_string(), "olat");
        assert_eq!(CapacityKind::Cadence.to_string(), "cadence");
        assert_eq!(CapacityKind::default(), CapacityKind::Olat);
    }

    #[test]
    fn latency_scales_with_levels() {
        let mut c = OramConfig::paper();
        let base = OramTiming::derive(&c, &DdrConfig::default()).latency;
        c.data = crate::geometry::TreeGeometry::new(28, 3, 64, 16);
        let deeper = OramTiming::derive(&c, &DdrConfig::default()).latency;
        assert!(deeper > base);
    }
}
