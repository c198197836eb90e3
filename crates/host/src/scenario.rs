//! Declarative scenarios: the typed front door for fleet runs.
//!
//! A scenario file describes a whole appliance run — the host
//! configuration, the initial tenant roster (each with its own traffic
//! model or adversary role), and the churn events that fire at round
//! marks while the fleet serves — in a line-oriented text format:
//!
//! ```text
//! # one optional host line (defaults = HostConfig::default())
//! host shards=3 oram=small pipeline=serial capacity=cadence threads=4 slots=400
//!
//! # initial tenants, admitted in file order before the first round
//! tenant alice bench=mcf scheme=dynamic_R4_E4 traffic=bursty:on=40000,off=120000,seed=9
//! tenant bob   bench=hmmer scheme=static_1300 closed
//! tenant eve   bench=libq scheme=static_1000 adversary=probe
//!
//! # churn events, anchored at scheduling rounds (same grammar as the
//! # otc --churn-script flag, which parses through this event parser)
//! @8  admit gobmk dynamic_R4_E4
//! @16 evict 1
//! @24 shards 5
//! ```
//!
//! Grammar notes:
//!
//! * `#` starts a comment (whole line or trailing); blank lines are
//!   skipped.
//! * `host` keys: `shards`, `oram` (`small|paper`), `pipeline`
//!   (`serial|staged`), `capacity` (`olat|cadence`), `scheduler`
//!   (only `calendar`), `threads` (0 = serial), `quantum`, `limit`
//!   (leakage bits), `seed`, `slots` (serve target per tenant), `mix`
//!   (comma list of `<small|paper>:<serial|staged>` shard classes).
//! * `tenant NAME` keys: `bench`, `scheme`, `traffic`, `adversary`
//!   (`probe|distinguisher`), `instructions`; the bare word `closed`
//!   selects the closed-loop frontend.
//! * Schemes (§9 of the paper, parsed by [`parse_scheme`]):
//!   `static_<rate>` with `1 ≤ rate ≤ 2^32`
//!   ([`MAX_STATIC_RATE`](crate::MAX_STATIC_RATE)), or
//!   `dynamic_R<n>_E<g>` with `2 ≤ n ≤ 1245` candidate rates (the most
//!   `R`'s 256..=32768 span holds as distinct lg-spaced whole cycle
//!   counts) and an epoch growth `g` that is a power of two ≥ 2 — the
//!   parameters for which the `|E|·lg|R|` leakage bound is defined —
//!   each number in its canonical spelling (no leading `0` or `+`), so
//!   a scheme is served under the name it was given.
//! * Traffic syntax: `workload`,
//!   `bursty:on=<cycles>,off=<cycles>,seed=<n>`,
//!   `diurnal:period=<cycles>,amplitude=<ppm>,phase=<ppm>`,
//!   `replay:gaps=<c1+c2+..>,repeat=<n>`.
//!
//! Every parse failure carries the line and column of the offending
//! token ([`ScenarioError`]), parsing never panics on garbage or
//! truncated input, and [`ScenarioSpec::render`] emits a canonical form
//! that reparses to an equal spec (`tests/scenario_props.rs` holds both
//! properties over generated inputs).
//!
//! [`ScenarioSpec::admit_roster`] and [`ScenarioSpec::serve`] run a
//! spec on a host built from [`ScenarioSpec::host_config`]: the one
//! driver behind every serving `otc` subcommand, whose flags compile to
//! an in-memory spec.

use crate::adversary::AdversaryKind;
use crate::host::{HostConfig, HostError, MultiTenantHost, SchedulerKind, TenantSpec};
use crate::shard::{PipelineKind, ShardClass};
use crate::traffic::{LoopMode, TrafficModel};
use otc_core::{parse_scheme, RatePolicy};
use otc_dram::Cycle;
use otc_oram::{CapacityKind, OramConfig};
use otc_workloads::SpecBenchmark;

/// A parse failure, located at a line and column of the input (both
/// 1-based; for `--churn-script` input the "line" is the 1-based
/// ordinal of the `;`-separated event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line (or churn-script event ordinal).
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ScenarioError {}

/// ORAM geometry choice a scenario can name (the two stock geometries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OramChoice {
    /// [`OramConfig::small`] — the test geometry.
    Small,
    /// [`OramConfig::paper`] — the HPCA'14 geometry.
    Paper,
}

impl OramChoice {
    /// The scenario keyword for this geometry.
    pub fn label(&self) -> &'static str {
        label(&ORAMS, *self)
    }

    /// Materializes the geometry.
    pub fn config(&self) -> OramConfig {
        match self {
            OramChoice::Small => OramConfig::small(),
            OramChoice::Paper => OramConfig::paper(),
        }
    }
}

// Keyword tables of the `host` line, read both ways: to parse a value
// and to render the canonical form.
const ORAMS: [(&str, OramChoice); 2] = [("small", OramChoice::Small), ("paper", OramChoice::Paper)];
const PIPELINES: [(&str, PipelineKind); 2] = [
    ("serial", PipelineKind::Serial),
    ("staged", PipelineKind::Staged),
];
const CAPACITIES: [(&str, CapacityKind); 2] = [
    ("olat", CapacityKind::Olat),
    ("cadence", CapacityKind::Cadence),
];
const SCHEDULERS: [(&str, SchedulerKind); 1] = [("calendar", SchedulerKind::Calendar)];
const ADVERSARIES: [(&str, AdversaryKind); 2] = [
    ("probe", AdversaryKind::Probe),
    ("distinguisher", AdversaryKind::Distinguisher),
];

/// The host half of a scenario: everything `HostConfig` needs plus the
/// per-tenant serve target. Shard classes are stored as
/// `(geometry, pipeline)` pairs rather than [`ShardClass`] values so the
/// spec stays comparable ([`ShardClass`] holds full configs without
/// `PartialEq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioHost {
    /// Number of ORAM shards.
    pub shards: usize,
    /// Base geometry for a homogeneous pool.
    pub oram: OramChoice,
    /// Pipeline discipline for a homogeneous pool.
    pub pipeline: PipelineKind,
    /// Admission pricing.
    pub capacity: CapacityKind,
    /// Due-slot finder: always the calendar queue, the only one.
    pub scheduler: SchedulerKind,
    /// Worker threads (0 = every shard access inline).
    pub threads: usize,
    /// Round quantum in cycles.
    pub quantum: Cycle,
    /// Per-tenant leakage limit in bits.
    pub limit_bits: u64,
    /// Protocol/ORAM seed.
    pub seed: u64,
    /// Slots each tenant must serve before the run completes.
    pub slots: u64,
    /// Heterogeneous shard-class pattern (empty = homogeneous pool).
    pub mix: Vec<(OramChoice, PipelineKind)>,
}

impl Default for ScenarioHost {
    fn default() -> Self {
        let d = HostConfig::default();
        Self {
            shards: d.n_shards,
            oram: OramChoice::Paper,
            pipeline: PipelineKind::Serial,
            capacity: d.capacity,
            scheduler: SchedulerKind::Calendar,
            threads: 0,
            quantum: d.quantum,
            limit_bits: d.leakage_limit_bits,
            seed: d.seed,
            slots: 20_000,
            mix: Vec::new(),
        }
    }
}

impl ScenarioHost {
    /// The shard mix as its `mix=` value (empty for a homogeneous pool).
    pub fn mix_label(&self) -> String {
        let classes: Vec<String> = self
            .mix
            .iter()
            .map(|(o, p)| format!("{}:{}", o.label(), label(&PIPELINES, *p)))
            .collect();
        classes.join(",")
    }

    /// Sets one `host`-line key from its text, as a `key=value` token
    /// of a scenario file does. The `otc` host flags parse through
    /// here too, so a flag and its key share one grammar.
    ///
    /// # Errors
    ///
    /// What is wrong with the key or the value.
    pub fn set(&mut self, key: &str, val: &str) -> Result<(), String> {
        match key {
            "shards" => self.shards = number(val, "shard count")?,
            "oram" => self.oram = keyword(&ORAMS, "oram geometry", val)?,
            "pipeline" => self.pipeline = keyword(&PIPELINES, "pipeline", val)?,
            "capacity" => self.capacity = keyword(&CAPACITIES, "capacity pricing", val)?,
            "scheduler" => self.scheduler = keyword(&SCHEDULERS, "scheduler", val)?,
            "threads" => self.threads = number(val, "thread count")?,
            "quantum" => self.quantum = number(val, "quantum")?,
            "limit" => self.limit_bits = number(val, "leakage limit")?,
            "seed" => self.seed = number(val, "seed")?,
            "slots" => self.slots = number(val, "slot target")?,
            "mix" => {
                self.mix = val
                    .split(',')
                    .map(|pair| {
                        let (geom, pipe) = pair.trim().split_once(':').ok_or_else(|| {
                            format!("shard-mix entry {pair:?} is not <geometry>:<pipeline>")
                        })?;
                        Ok((
                            keyword(&ORAMS, "mix geometry", geom)?,
                            keyword(&PIPELINES, "mix pipeline", pipe)?,
                        ))
                    })
                    .collect::<Result<_, String>>()?
            }
            _ => return Err(format!("unknown host option {key:?}")),
        }
        Ok(())
    }
}

/// One tenant row of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioTenant {
    /// Display name (no whitespace, `=`, or leading `@`/`#`).
    pub name: String,
    /// Traffic source.
    pub bench: SpecBenchmark,
    /// Rate scheme, validated at parse (`dynamic_R<n>_E<g>` /
    /// `static_<rate>`). Stored as the string so the spec stays
    /// comparable and renders canonically.
    pub scheme: String,
    /// Whether the tenant runs a closed-loop frontend.
    pub closed: bool,
    /// Arrival-process model shaping the frontend.
    pub traffic: TrafficModel,
    /// `Some` when this seat runs an attacks-crate adversary (its
    /// traffic is pinned by the host at admission).
    pub adversary: Option<AdversaryKind>,
    /// Per-tenant instruction budget; `None` = the driver's default
    /// (serve-target × 50).
    pub instructions: Option<u64>,
}

impl ScenarioTenant {
    /// The parsed rate policy, or `None` for a scheme string this crate
    /// does not recognize (impossible for parser-produced specs).
    pub fn policy(&self) -> Option<RatePolicy> {
        parse_scheme(&self.scheme)
    }
}

/// What a fired churn event did (see [`ScenarioSpec::serve`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EventOutcome {
    /// `admit`: the new tenant joined.
    Admitted {
        /// Its auto-assigned name, `c<N>` after the host's tenant count.
        name: String,
        /// Its id.
        id: usize,
    },
    /// `evict`: the tenant left.
    Evicted,
    /// `shards`: the pool now has the event's shard count.
    Resized,
    /// The host refused the event (saturation, an unknown or already
    /// evicted id, a pool too small for the fleet); the run goes on
    /// without it.
    Rejected(HostError),
}

/// How [`ScenarioSpec::serve`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEnd {
    /// Every event fired and every active tenant served the slot target.
    Complete,
    /// The bound stopped the run first.
    CutShort {
        /// Rounds served.
        rounds: u64,
        /// Events that never fired.
        unfired: usize,
        /// Whether some active tenant was still under the slot target.
        under_target: bool,
    },
}

/// A churn action fired at a round mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioAction {
    /// Splice a new open/closed-loop tenant in.
    Admit {
        /// Traffic source of the new tenant.
        bench: SpecBenchmark,
        /// Rate scheme (validated at parse).
        scheme: String,
        /// Closed-loop frontend?
        closed: bool,
    },
    /// Retire a tenant online.
    Evict {
        /// Tenant id to retire.
        id: usize,
    },
    /// Resize the shard pool.
    Shards {
        /// New pool size.
        n: usize,
    },
}

/// One round-anchored churn event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioEvent {
    /// Scheduling round the event fires at the start of.
    pub round: u64,
    /// What happens.
    pub action: ScenarioAction,
}

/// A fully parsed scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Host configuration and serve target.
    pub host: ScenarioHost,
    /// Initial tenants, admitted in order before the first round.
    pub tenants: Vec<ScenarioTenant>,
    /// Churn events, sorted by round (stable: same-round events keep
    /// file order).
    pub events: Vec<ScenarioEvent>,
}

impl ScenarioSpec {
    /// Builds the [`HostConfig`] this scenario describes, through the
    /// validating builder.
    ///
    /// # Errors
    ///
    /// [`HostError::Build`] from [`crate::HostConfigBuilder::build`].
    pub fn host_config(&self) -> Result<HostConfig, HostError> {
        let h = &self.host;
        let mut b = HostConfig::builder()
            .oram(h.oram.config())
            .shards(h.shards)
            .quantum(h.quantum)
            .leakage_limit_bits(h.limit_bits)
            .seed(h.seed)
            .pipeline(h.pipeline)
            .capacity(h.capacity)
            .threads(h.threads);
        if !h.mix.is_empty() {
            b = b.shard_mix(
                h.mix
                    .iter()
                    .map(|&(o, pipeline)| ShardClass {
                        oram: o.config(),
                        pipeline,
                    })
                    .collect(),
            );
        }
        b.build()
    }

    /// Admits the roster into `host` in order: adversary seats through
    /// [`MultiTenantHost::admit_adversary`], every other seat through
    /// [`MultiTenantHost::admit_with_traffic`] with its traffic model
    /// and loop mode. A seat without its own `instructions` gets
    /// `default_instructions`. Seats take consecutive ids from the
    /// host's tenant count.
    ///
    /// # Errors
    ///
    /// The index of the first seat the host refused, and why; the seats
    /// before it stay admitted.
    pub fn admit_roster(
        &self,
        host: &mut MultiTenantHost,
        default_instructions: u64,
    ) -> Result<(), (usize, HostError)> {
        for (seat, t) in self.tenants.iter().enumerate() {
            let Some(policy) = t.policy() else {
                return Err((seat, unknown_scheme(&t.scheme)));
            };
            let spec = TenantSpec {
                name: t.name.clone(),
                benchmark: t.bench,
                policy,
                instructions: t.instructions.unwrap_or(default_instructions),
            };
            match t.adversary {
                Some(kind) => host.admit_adversary(&spec, kind),
                None => host.admit_with_traffic(&spec, loop_mode(t.closed), t.traffic.clone()),
            }
            .map_err(|e| (seat, e))?;
        }
        Ok(())
    }

    /// Serves `host` round by round, firing each event at the start of
    /// its round (counted from this call) and reporting it to
    /// `on_event` with the host clock and its outcome. An `@admit`
    /// tenant gets `default_instructions`.
    ///
    /// The run stops when every event has fired and every active tenant
    /// has served `slots`. A run that never gets there stops at a bound
    /// — at least 2^14 rounds, and at least the cycles
    /// [`MultiTenantHost::run_until_slots`] would serve — and says so.
    pub fn serve(
        &self,
        host: &mut MultiTenantHost,
        default_instructions: u64,
        mut on_event: impl FnMut(&ScenarioEvent, Cycle, EventOutcome),
    ) -> ServeEnd {
        const MIN_ROUNDS: u64 = 1 << 14;
        let target = self.host.slots;
        let horizon = host.clock().saturating_add(host.slot_horizon(target));
        let mut round = 0;
        let mut next = 0;
        loop {
            while let Some(ev) = self.events.get(next).filter(|e| e.round <= round) {
                next += 1;
                let clock = host.clock();
                on_event(ev, clock, fire(host, &ev.action, default_instructions));
            }
            let served = host.all_served(target);
            if next == self.events.len() && served {
                return ServeEnd::Complete;
            }
            if round >= MIN_ROUNDS && host.clock() >= horizon {
                return ServeEnd::CutShort {
                    rounds: round,
                    unfired: self.events.len() - next,
                    under_target: !served,
                };
            }
            host.step_round();
            round += 1;
        }
    }

    /// The candidate rates an adversary seat ranks: every victim seat's
    /// fastest rate, ascending and deduplicated.
    pub fn victim_rates(&self) -> Vec<Cycle> {
        let mut rates: Vec<Cycle> = self
            .tenants
            .iter()
            .filter(|t| t.adversary.is_none())
            .filter_map(|t| t.policy())
            .map(|p| p.fastest_rate())
            .collect();
        rates.sort_unstable();
        rates.dedup();
        rates
    }

    /// Renders the canonical text form: one `host` line with every key
    /// explicit, one line per tenant, one line per event. Guaranteed to
    /// reparse to an equal spec.
    pub fn render(&self) -> String {
        let h = &self.host;
        let mut out = format!(
            "host shards={} oram={} pipeline={} capacity={} scheduler={} threads={} \
             quantum={} limit={} seed={} slots={}",
            h.shards,
            h.oram.label(),
            label(&PIPELINES, h.pipeline),
            label(&CAPACITIES, h.capacity),
            label(&SCHEDULERS, h.scheduler),
            h.threads,
            h.quantum,
            h.limit_bits,
            h.seed,
            h.slots,
        );
        if !h.mix.is_empty() {
            out.push_str(" mix=");
            out.push_str(&h.mix_label());
        }
        out.push('\n');
        for t in &self.tenants {
            out.push_str(&format!(
                "tenant {} bench={} scheme={}",
                t.name,
                t.bench.full_name(),
                t.scheme,
            ));
            if let Some(kind) = t.adversary {
                // Adversary seats pin their own traffic at admission, so
                // the canonical form omits the (rejected) traffic key.
                out.push_str(" adversary=");
                out.push_str(kind.label());
            } else {
                out.push_str(" traffic=");
                out.push_str(&render_traffic(&t.traffic));
            }
            if let Some(instr) = t.instructions {
                out.push_str(&format!(" instructions={instr}"));
            }
            if t.closed {
                out.push_str(" closed");
            }
            out.push('\n');
        }
        for e in &self.events {
            match &e.action {
                ScenarioAction::Admit {
                    bench,
                    scheme,
                    closed,
                } => {
                    out.push_str(&format!(
                        "@{} admit {} {}{}\n",
                        e.round,
                        bench.full_name(),
                        scheme,
                        if *closed { " closed" } else { "" }
                    ));
                }
                ScenarioAction::Evict { id } => {
                    out.push_str(&format!("@{} evict {}\n", e.round, id));
                }
                ScenarioAction::Shards { n } => {
                    out.push_str(&format!("@{} shards {}\n", e.round, n));
                }
            }
        }
        out
    }
}

/// Looks a benchmark up by full or short name (the one bench parser
/// shared by the CLI flags, churn scripts, and scenario files).
pub fn parse_bench(name: &str) -> Option<SpecBenchmark> {
    SpecBenchmark::figure6_lineup()
        .into_iter()
        .chain([
            SpecBenchmark::AstarRivers,
            SpecBenchmark::PerlbenchSplitmail,
        ])
        .find(|b| b.full_name() == name || b.short_name() == name)
}

/// Parses a whole scenario file.
///
/// # Errors
///
/// [`ScenarioError`] at the first offending line/column. Never panics,
/// whatever the input.
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let mut spec = ScenarioSpec::default();
    let mut saw_host = false;
    for (lno, raw) in text.lines().enumerate() {
        let line = lno + 1;
        let body = raw.split('#').next().unwrap_or("");
        let toks = tokens(body);
        let Some(&(col0, first)) = toks.first() else {
            continue;
        };
        if first == "host" {
            if saw_host {
                return Err(err(line, col0, "duplicate host line"));
            }
            saw_host = true;
            parse_host_line(&toks[1..], line, &mut spec.host)?;
        } else if first == "tenant" {
            let t = parse_tenant_line(&toks[1..], line, col0)?;
            if spec.tenants.iter().any(|x| x.name == t.name) {
                return Err(err(
                    line,
                    col0,
                    format!("duplicate tenant name {:?}", t.name),
                ));
            }
            spec.tenants.push(t);
        } else if first.starts_with('@') {
            spec.events.push(parse_event_tokens(&toks, line)?);
        } else {
            return Err(err(
                line,
                col0,
                format!("unknown directive {first:?} (want host, tenant, or @<round>)"),
            ));
        }
    }
    spec.events.sort_by_key(|e| e.round);
    Ok(spec)
}

/// Parses a legacy `--churn-script` string — a `;`-separated event list
/// — through the scenario event parser (one grammar, one set of
/// diagnostics; the reported "line" is the 1-based event ordinal).
///
/// # Errors
///
/// [`ScenarioError`] at the first offending event.
pub fn parse_churn_script(s: &str) -> Result<Vec<ScenarioEvent>, ScenarioError> {
    let mut events = Vec::new();
    for (i, piece) in s.split(';').enumerate() {
        let toks = tokens(piece);
        if toks.is_empty() {
            continue;
        }
        events.push(parse_event_tokens(&toks, i + 1)?);
    }
    events.sort_by_key(|e| e.round);
    Ok(events)
}

// ------------------------------------------------------------- internals

fn err(line: usize, col: usize, msg: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        col,
        msg: msg.into(),
    }
}

/// Whitespace-splits `line` into `(1-based byte column, token)` pairs.
fn tokens(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in line.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                out.push((s + 1, &line[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push((s + 1, &line[s..]));
    }
    out
}

fn number<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what}: {v:?}"))
}

fn parse_num<T: std::str::FromStr>(
    v: &str,
    line: usize,
    col: usize,
    what: &str,
) -> Result<T, ScenarioError> {
    number(v, what).map_err(|m| err(line, col, m))
}

/// Looks `word` up in a keyword table.
fn keyword<T: Copy>(table: &[(&str, T)], what: &str, word: &str) -> Result<T, String> {
    match table.iter().find(|(k, _)| *k == word) {
        Some(&(_, v)) => Ok(v),
        None => {
            let want: Vec<&str> = table.iter().map(|(k, _)| *k).collect();
            Err(format!("unknown {what} {word:?} (want {})", want.join("|")))
        }
    }
}

/// The keyword a table gives `value`.
fn label<T: PartialEq>(table: &[(&'static str, T)], value: T) -> &'static str {
    table
        .iter()
        .find(|(_, v)| *v == value)
        .map(|&(k, _)| k)
        .expect("every keyword table covers its whole enum")
}

/// `scheme`, if [`parse_scheme`] accepts it.
fn checked_scheme(scheme: &str, line: usize, col: usize) -> Result<String, ScenarioError> {
    match parse_scheme(scheme) {
        Some(_) => Ok(scheme.to_string()),
        None => Err(err(
            line,
            col,
            format!(
                "bad scheme {scheme:?} (want static_<1..=2^32> or \
                 dynamic_R<2..=1245>_E<power of two ≥ 2>)"
            ),
        )),
    }
}

fn unknown_scheme(scheme: &str) -> HostError {
    HostError::Build(format!("unknown scheme {scheme:?}"))
}

fn loop_mode(closed: bool) -> LoopMode {
    if closed {
        LoopMode::Closed
    } else {
        LoopMode::Open
    }
}

/// Applies one churn action to `host` at its current round boundary.
fn fire(host: &mut MultiTenantHost, action: &ScenarioAction, instructions: u64) -> EventOutcome {
    let applied = match action {
        ScenarioAction::Admit {
            bench,
            scheme,
            closed,
        } => match parse_scheme(scheme) {
            None => Err(unknown_scheme(scheme)),
            Some(policy) => {
                let name = format!("c{}", host.tenant_count());
                let spec = TenantSpec {
                    name: name.clone(),
                    benchmark: *bench,
                    policy,
                    instructions,
                };
                host.admit(&spec, loop_mode(*closed))
                    .map(|id| EventOutcome::Admitted { name, id })
            }
        },
        ScenarioAction::Evict { id } => host.evict(*id).map(|()| EventOutcome::Evicted),
        ScenarioAction::Shards { n } => host.resize_shards(*n).map(|()| EventOutcome::Resized),
    };
    applied.unwrap_or_else(EventOutcome::Rejected)
}

fn parse_host_line(
    toks: &[(usize, &str)],
    line: usize,
    host: &mut ScenarioHost,
) -> Result<(), ScenarioError> {
    for &(col, tok) in toks {
        let Some((key, val)) = tok.split_once('=') else {
            return Err(err(
                line,
                col,
                format!("host option {tok:?} is not key=value"),
            ));
        };
        host.set(key, val).map_err(|m| err(line, col, m))?;
    }
    Ok(())
}

fn parse_tenant_line(
    toks: &[(usize, &str)],
    line: usize,
    col0: usize,
) -> Result<ScenarioTenant, ScenarioError> {
    let Some(&(name_col, name)) = toks.first() else {
        return Err(err(line, col0, "tenant needs a name"));
    };
    if name.contains('=') || name.starts_with('@') || name.starts_with('#') {
        return Err(err(line, name_col, format!("invalid tenant name {name:?}")));
    }
    let mut bench = None;
    let mut scheme = None;
    let mut closed = false;
    let mut traffic = TrafficModel::Workload;
    let mut traffic_set = false;
    let mut adversary = None;
    let mut instructions = None;
    for &(col, tok) in &toks[1..] {
        if tok == "closed" {
            closed = true;
            continue;
        }
        let Some((key, val)) = tok.split_once('=') else {
            return Err(err(
                line,
                col,
                format!("tenant option {tok:?} is not key=value (or the bare word `closed`)"),
            ));
        };
        match key {
            "bench" => {
                bench = Some(
                    parse_bench(val)
                        .ok_or_else(|| err(line, col, format!("unknown benchmark {val:?}")))?,
                )
            }
            "scheme" => scheme = Some(checked_scheme(val, line, col)?),
            "traffic" => {
                traffic = parse_traffic(val).map_err(|m| err(line, col, m))?;
                traffic_set = true;
            }
            "adversary" => {
                adversary =
                    Some(keyword(&ADVERSARIES, "adversary", val).map_err(|m| err(line, col, m))?)
            }
            "instructions" => instructions = Some(parse_num(val, line, col, "instruction budget")?),
            _ => return Err(err(line, col, format!("unknown tenant option {key:?}"))),
        }
    }
    let bench = bench.ok_or_else(|| err(line, col0, format!("tenant {name:?} needs bench=")))?;
    let scheme = scheme.ok_or_else(|| err(line, col0, format!("tenant {name:?} needs scheme=")))?;
    if adversary.is_some() {
        if traffic_set {
            return Err(err(
                line,
                col0,
                "adversary seats pin their own saturating traffic; drop traffic=",
            ));
        }
        if closed {
            return Err(err(
                line,
                col0,
                "adversary seats run open-loop; drop `closed`",
            ));
        }
    }
    if traffic.requires_open_loop() && closed {
        return Err(err(
            line,
            col0,
            format!(
                "{} traffic replaces program timing and must run open-loop",
                traffic.label()
            ),
        ));
    }
    Ok(ScenarioTenant {
        name: name.to_string(),
        bench,
        scheme,
        closed,
        traffic,
        adversary,
        instructions,
    })
}

fn parse_event_tokens(toks: &[(usize, &str)], line: usize) -> Result<ScenarioEvent, ScenarioError> {
    let &(col0, first) = toks.first().expect("caller checked non-empty");
    let round: u64 = first
        .strip_prefix('@')
        .ok_or_else(|| err(line, col0, "event must start with @<round>"))
        .and_then(|r| parse_num(r, line, col0, "round number"))?;
    let &(acol, action) = toks
        .get(1)
        .ok_or_else(|| err(line, col0, "event needs an action (admit|evict|shards)"))?;
    let take = |i: usize, what: &str| -> Result<(usize, &str), ScenarioError> {
        toks.get(i)
            .copied()
            .ok_or_else(|| err(line, acol, format!("{action} needs {what}")))
    };
    let no_extra = |from: usize| -> Result<(), ScenarioError> {
        match toks.get(from) {
            Some(&(c, t)) => Err(err(line, c, format!("unexpected token {t:?}"))),
            None => Ok(()),
        }
    };
    let act = match action {
        "admit" => {
            let (bcol, bench_name) = take(2, "<bench>")?;
            let (scol, scheme) = take(3, "<scheme>")?;
            let closed = match toks.get(4) {
                None => false,
                Some(&(_, "closed")) => true,
                Some(&(c, x)) => return Err(err(line, c, format!("unknown admit flag {x:?}"))),
            };
            no_extra(5)?;
            let bench = parse_bench(bench_name)
                .ok_or_else(|| err(line, bcol, format!("unknown benchmark {bench_name:?}")))?;
            ScenarioAction::Admit {
                bench,
                scheme: checked_scheme(scheme, line, scol)?,
                closed,
            }
        }
        "evict" => {
            let (icol, id) = take(2, "<tenant-id>")?;
            no_extra(3)?;
            ScenarioAction::Evict {
                id: parse_num(id, line, icol, "tenant id")?,
            }
        }
        "shards" => {
            let (ncol, n) = take(2, "<n>")?;
            no_extra(3)?;
            ScenarioAction::Shards {
                n: parse_num(n, line, ncol, "shard count")?,
            }
        }
        _ => {
            return Err(err(
                line,
                acol,
                format!("action must be admit|evict|shards, got {action:?}"),
            ))
        }
    };
    Ok(ScenarioEvent { round, action: act })
}

/// Renders a traffic model in the scenario syntax (canonical: every
/// field explicit).
fn render_traffic(model: &TrafficModel) -> String {
    match model {
        TrafficModel::Workload => "workload".into(),
        TrafficModel::Bursty {
            mean_on,
            mean_off,
            seed,
        } => format!("bursty:on={mean_on},off={mean_off},seed={seed}"),
        TrafficModel::Diurnal {
            period,
            amplitude_ppm,
            phase_ppm,
        } => format!("diurnal:period={period},amplitude={amplitude_ppm},phase={phase_ppm}"),
        TrafficModel::Replay { gaps, repeat } => {
            let gaps: Vec<String> = gaps.iter().map(|g| g.to_string()).collect();
            format!("replay:gaps={},repeat={repeat}", gaps.join("+"))
        }
    }
}

/// Parses the scenario traffic syntax (see the module docs). Errors are
/// plain strings; the caller attaches the line/column.
fn parse_traffic(s: &str) -> Result<TrafficModel, String> {
    if s == "workload" {
        return Ok(TrafficModel::Workload);
    }
    let (kind, params) = s.split_once(':').ok_or_else(|| {
        format!("bad traffic {s:?} (want workload|bursty:..|diurnal:..|replay:..)")
    })?;
    let mut kv = Vec::new();
    for pair in params.split(',') {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("traffic parameter {pair:?} is not key=value"))?;
        kv.push((k, v));
    }
    let get = |key: &str| kv.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
    let num = |key: &str, v: &str| -> Result<u64, String> {
        v.parse().map_err(|_| format!("bad traffic {key}: {v:?}"))
    };
    let require = |key: &str| -> Result<u64, String> {
        let v = get(key).ok_or_else(|| format!("{kind} traffic needs {key}="))?;
        num(key, v)
    };
    let known = |keys: &[&str]| -> Result<(), String> {
        for (k, _) in &kv {
            if !keys.contains(k) {
                return Err(format!("unknown {kind} traffic parameter {k:?}"));
            }
        }
        Ok(())
    };
    let model = match kind {
        "bursty" => {
            known(&["on", "off", "seed"])?;
            TrafficModel::Bursty {
                mean_on: require("on")?,
                mean_off: require("off")?,
                seed: match get("seed") {
                    Some(v) => num("seed", v)?,
                    None => 0,
                },
            }
        }
        "diurnal" => {
            known(&["period", "amplitude", "phase"])?;
            let ppm = |key: &str, v: u64| -> Result<u32, String> {
                u32::try_from(v).map_err(|_| format!("traffic {key} out of range: {v}"))
            };
            TrafficModel::Diurnal {
                period: require("period")?,
                amplitude_ppm: ppm("amplitude", require("amplitude")?)?,
                phase_ppm: match get("phase") {
                    Some(v) => ppm("phase", num("phase", v)?)?,
                    None => 0,
                },
            }
        }
        "replay" => {
            known(&["gaps", "repeat"])?;
            let gaps_str = get("gaps").ok_or("replay traffic needs gaps=")?;
            let mut gaps = Vec::new();
            for g in gaps_str.split('+') {
                gaps.push(num("gap", g)?);
            }
            TrafficModel::Replay {
                gaps,
                repeat: match get("repeat") {
                    Some(v) => u32::try_from(num("repeat", v)?)
                        .map_err(|_| format!("traffic repeat out of range: {v:?}"))?,
                    None => 1,
                },
            }
        }
        _ => {
            return Err(format!(
                "unknown traffic model {kind:?} (want workload|bursty|diurnal|replay)"
            ))
        }
    };
    model
        .validate()
        .map_err(|e| format!("invalid {kind} traffic: {e}"))?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render;

    const EXAMPLE: &str = "\
        # demo scenario\n\
        host shards=3 oram=small capacity=cadence threads=4 slots=400 mix=small:serial,small:staged\n\
        tenant alice bench=mcf scheme=dynamic_R4_E4 traffic=bursty:on=40000,off=120000,seed=9\n\
        tenant bob bench=hmmer scheme=static_1300 closed # trailing comment\n\
        tenant eve bench=libquantum scheme=static_1000 adversary=probe\n\
        @8 admit gobmk dynamic_R4_E4\n\
        @16 evict 1\n\
        @4 shards 5\n";

    #[test]
    fn parses_the_example_scenario() {
        let spec = parse_scenario(EXAMPLE).expect("parses");
        assert_eq!(spec.host.shards, 3);
        assert_eq!(spec.host.oram, OramChoice::Small);
        assert_eq!(spec.host.capacity, CapacityKind::Cadence);
        assert_eq!(spec.host.threads, 4);
        assert_eq!(spec.host.slots, 400);
        assert_eq!(spec.host.mix.len(), 2);
        assert_eq!(spec.tenants.len(), 3);
        assert_eq!(spec.tenants[0].name, "alice");
        assert!(matches!(
            spec.tenants[0].traffic,
            TrafficModel::Bursty {
                mean_on: 40_000,
                mean_off: 120_000,
                seed: 9
            }
        ));
        assert!(spec.tenants[1].closed);
        assert_eq!(spec.tenants[2].adversary, Some(AdversaryKind::Probe));
        // Events come back round-sorted.
        assert_eq!(
            spec.events.iter().map(|e| e.round).collect::<Vec<_>>(),
            [4, 8, 16]
        );
        spec.host_config().expect("valid host config");
    }

    #[test]
    fn render_round_trips() {
        let spec = parse_scenario(EXAMPLE).expect("parses");
        let rendered = spec.render();
        assert!(rendered.contains(" scheduler=calendar "), "{rendered}");
        let again = parse_scenario(&rendered).expect("canonical form reparses");
        assert_eq!(again, spec);
        // And the canonical form is a fixed point.
        assert_eq!(again.render(), rendered);
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = parse_scenario("host shards=3\ntenant bad bench=nosuch scheme=static_900\n")
            .expect_err("unknown bench");
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 12, "column of the bench= token");
        assert!(e.msg.contains("nosuch"), "{e}");

        let e = parse_scenario("@x admit mcf static_900\n").expect_err("bad round");
        assert_eq!((e.line, e.col), (1, 1));

        let e = parse_scenario("host shards=3\nhost shards=4\n").expect_err("dup host");
        assert_eq!(e.line, 2);

        // The calendar queue is the only due-slot finder.
        let e = parse_scenario("host shards=3 scheduler=merge\n").expect_err("no merge");
        assert_eq!((e.line, e.col), (1, 15));
        assert_eq!(e.msg, "unknown scheduler \"merge\" (want calendar)");
    }

    #[test]
    fn rejects_contradictory_tenants() {
        for bad in [
            "tenant a bench=mcf scheme=static_900 adversary=probe closed\n",
            "tenant a bench=mcf scheme=static_900 adversary=probe traffic=workload\n",
            "tenant a bench=mcf scheme=static_900 traffic=replay:gaps=100,repeat=2 closed\n",
            "tenant a bench=mcf scheme=static_900\ntenant a bench=mcf scheme=static_900\n",
        ] {
            assert!(parse_scenario(bad).is_err(), "accepted {bad:?}");
        }
        // Schemes whose |E|·lg|R| bound is undefined are refused at the
        // scheme= token, not left to panic at admission.
        for scheme in DEGENERATE_SCHEMES {
            let e =
                parse_scenario(&format!("tenant a bench=mcf scheme={scheme}\n")).expect_err(scheme);
            assert_eq!((e.line, e.col), (1, 20), "{scheme}: {e}");
        }
        // ...while the grammar's edges still parse.
        for scheme in [
            "static_1",
            "static_4294967296",
            "dynamic_R2_E2",
            "dynamic_R1245_E2147483648",
        ] {
            parse_scenario(&format!("tenant a bench=mcf scheme={scheme}\n")).expect(scheme);
        }
    }

    /// Schemes outside the paper's grammar that the parser once accepted
    /// and otc-core then rejected with a panic (or, for the huge |R|, an
    /// aborting allocation), static rates past [`MAX_STATIC_RATE`],
    /// which overflowed admission pricing or stalled the serve bound,
    /// an |R| whose paper set holds fewer rates than it names, and
    /// spellings other than the scheme's label, once served under that
    /// label.
    const DEGENERATE_SCHEMES: [&str; 14] = [
        "static_0",
        "static_4294967297",
        "static_10000000000000000000",
        "static_18446744073709551615",
        "dynamic_R0_E4",
        "dynamic_R1_E4",
        "dynamic_R4_E0",
        "dynamic_R4_E3",
        "dynamic_R4_E99",
        "dynamic_R1246_E4",
        "dynamic_R32514_E4",
        "dynamic_R100000000000_E4",
        "dynamic_R04_E4",
        "static_+300",
    ];

    #[test]
    fn churn_script_shim_matches_event_grammar() {
        let via_script =
            parse_churn_script("@8 admit mcf dynamic_R4_E4; @24 shards 8; @16 evict 0")
                .expect("ok");
        let via_file =
            parse_scenario("@8 admit mcf dynamic_R4_E4\n@24 shards 8\n@16 evict 0\n").expect("ok");
        assert_eq!(via_script, via_file.events);
        // Round-sorted, stable within a round: the two @8 admits keep
        // their script order, and `closed` sticks to the second.
        let script = parse_churn_script(
            "@8 admit mcf dynamic_R4_E4; @24 shards 8; @16 evict 0; @8 admit hmmer static_900 closed",
        )
        .expect("ok");
        assert_eq!(
            script.iter().map(|e| e.round).collect::<Vec<_>>(),
            [8, 8, 16, 24]
        );
        assert!(matches!(
            &script[0].action,
            ScenarioAction::Admit { closed: false, .. }
        ));
        assert!(matches!(
            &script[1].action,
            ScenarioAction::Admit { closed: true, .. }
        ));
        // Errors carry the event ordinal as the line.
        let e = parse_churn_script("@1 evict 0; @2 retire 1").expect_err("bad action");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("retire"), "{e}");
        for bad in [
            "admit mcf dynamic_R4_E4",       // missing @round
            "@x admit mcf dynamic_R4_E4",    // bad round
            "@1 admit nosuch dynamic_R4_E4", // unknown bench
            "@1 admit mcf bogus",            // bad scheme
            "@1 evict",                      // missing id
            "@1 shards many",                // bad count
            "@1 retire 0",                   // unknown action
            "@1 admit mcf static_900 turbo", // unknown flag
        ] {
            assert!(parse_churn_script(bad).is_err(), "accepted {bad:?}");
        }
        for scheme in DEGENERATE_SCHEMES {
            let e = parse_churn_script(&format!("@1 admit mcf {scheme}")).expect_err(scheme);
            assert_eq!((e.line, e.col), (1, 14), "{scheme}: {e}");
        }
        assert!(parse_churn_script(" ; ;").expect("empty ok").is_empty());
    }

    fn small_host(spec: &ScenarioSpec) -> MultiTenantHost {
        MultiTenantHost::new(spec.host_config().expect("valid")).expect("builds")
    }

    #[test]
    fn serve_without_events_stops_where_run_until_slots_does() {
        let spec = parse_scenario(
            "host shards=2 oram=small slots=300\n\
             tenant a bench=mcf scheme=dynamic_R4_E4\n\
             tenant b bench=hmmer scheme=static_1300 closed\n",
        )
        .expect("parses");
        let mut driven = small_host(&spec);
        let mut reference = small_host(&spec);
        for host in [&mut driven, &mut reference] {
            spec.admit_roster(host, 15_000).expect("fits");
        }
        let end = spec.serve(&mut driven, 15_000, |ev, _, _| panic!("no events: {ev:?}"));
        assert_eq!(end, ServeEnd::Complete);
        let report = reference.run_until_slots(spec.host.slots);
        assert_eq!(
            (driven.clock(), driven.rounds()),
            (reference.clock(), reference.rounds())
        );
        assert_eq!(render(&driven.report()), render(&report));
    }

    #[test]
    fn serve_reports_refused_events_and_a_cut_short_run() {
        // One glacial seat (a slot every 2^30 cycles) and a zero slot
        // target: only the never-reached @99999 event keeps the run
        // going, so the bound ends it after its 2^14 rounds.
        let spec = parse_scenario(
            "host shards=2 oram=small slots=0\n\
             tenant a bench=mcf scheme=static_1073741824\n\
             @0 evict 9\n\
             @0 shards 0\n\
             @1 admit hmmer static_1073741824 closed\n\
             @2 evict 0\n\
             @3 shards 3\n\
             @99999 evict 1\n",
        )
        .expect("parses");
        let mut host = small_host(&spec);
        spec.admit_roster(&mut host, 1_000).expect("fits");
        let mut fired = Vec::new();
        let end = spec.serve(&mut host, 1_000, |ev, clock, outcome| {
            fired.push((ev.round, clock, outcome))
        });
        assert_eq!(
            end,
            ServeEnd::CutShort {
                rounds: 1 << 14,
                unfired: 1,
                under_target: false
            }
        );
        let quantum = spec.host.quantum;
        assert!(
            matches!(
                &fired[..],
                [
                    (0, 0, EventOutcome::Rejected(HostError::UnknownTenant { id: 9 })),
                    (0, 0, EventOutcome::Rejected(HostError::Build(_))),
                    (1, q1, EventOutcome::Admitted { name, id: 1 }),
                    (2, _, EventOutcome::Evicted),
                    (3, _, EventOutcome::Resized),
                ] if *q1 == quantum && name == "c1"
            ),
            "{fired:?}"
        );
    }

    #[test]
    fn traffic_syntax_round_trips_and_validates() {
        for (text, ok) in [
            ("workload", true),
            ("bursty:on=1000,off=2000,seed=7", true),
            ("bursty:on=0,off=2000", false), // validate(): mean >= 1
            ("diurnal:period=250000,amplitude=600000,phase=250000", true),
            ("diurnal:period=0,amplitude=1", false),
            ("diurnal:period=10,amplitude=2000000", false), // > 1e6 ppm
            ("replay:gaps=100+250+300,repeat=2", true),
            ("replay:gaps=,repeat=2", false),
            ("fractal:x=1", false),
            ("bursty:on=1000,off=2000,typo=1", false),
        ] {
            let parsed = parse_traffic(text);
            assert_eq!(parsed.is_ok(), ok, "{text:?} -> {parsed:?}");
            if let Ok(model) = parsed {
                assert_eq!(parse_traffic(&render_traffic(&model)), Ok(model));
            }
        }
    }

    #[test]
    fn garbage_never_panics() {
        for garbage in [
            "\u{0}\u{1}\u{2}",
            "host host host",
            "host =",
            "host mix=",
            "tenant",
            "tenant x",
            "@",
            "@@@@",
            "@1",
            "@1 admit",
            "@1 admit mcf",
            "@99999999999999999999 evict 0",
            "tenant a bench=mcf scheme=static_900 traffic=bursty:",
            "tenant a bench=mcf scheme=static_900 traffic=replay:gaps=+,repeat=1",
        ] {
            let _ = parse_scenario(garbage);
            let _ = parse_churn_script(garbage);
        }
    }
}
