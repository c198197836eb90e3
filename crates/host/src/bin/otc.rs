//! `otc` — drive the multi-tenant ORAM appliance from the command line.
//!
//! ```text
//! otc run     [opts]   drive a workload mix through the full stack;
//!                      --scenario FILE runs a declarative scenario
//!                      (typed tenants, traffic models, adversary
//!                      seats, churn events) instead of the flag soup
//! otc tenants [opts]   K-tenant saturation sweep (throughput/waste per K)
//! otc churn   [opts]   drive a fleet through a churn script (admit/evict/
//!                      resize online) and report the outcome
//! otc bench   [opts]   seeded pipeline-vs-serial closed-loop sweep;
//!                      --json emits the machine-readable record the CI
//!                      perf gate checks, --gate PCT enforces the floor;
//!                      --wallclock instead times the same seeded fleet
//!                      serial vs threaded (real elapsed ms) and gates
//!                      on the speedup; --fairness instead fills a
//!                      (typically heterogeneous) pool to saturation
//!                      with unequal-rate tenants and gates on the WDRR
//!                      arbiter's worst served-vs-weight share deviation;
//!                      --spine instead times the single-threaded serving
//!                      spine itself (rounds/sec at K in {64,256,1024})
//!                      and gates on improvement over the recorded
//!                      pre-optimization baseline
//! otc report  [opts]   render a recorded perf session: stage-occupancy
//!                      and queue-depth timelines, shard utilization,
//!                      per-tenant SLO attainment (--session FILE;
//!                      --jsonl for the line-delimited export)
//! otc leakage [opts]   leakage budget report (no simulation)
//! ```
//!
//! Common options:
//!
//! ```text
//! --tenants N        fleet size (default 4)
//! --accesses N       slots to serve per tenant (default 20000)
//! --shards N         ORAM shards (default 4)
//! --shard-mix M      heterogeneous pool: comma list of
//!                    <small|paper>:<serial|staged> shard classes;
//!                    shard i takes class i mod len (e.g.
//!                    small:serial,small:staged). Omitted = every
//!                    shard uses --oram/--pipeline
//! --scheme S         static_<rate ≥ 1> | dynamic_R<n>_E<g> with
//!                    2 ≤ n ≤ 32513 and g a power of two ≥ 2 (default
//!                    dynamic_R4_E4); anything else exits 2
//! --oram G           small | paper (default paper)
//! --instructions N   instruction budget of every tenant without its
//!                    own (flag fleets, scenario rows without
//!                    instructions=, @admit events); default 50 × the
//!                    slot target (--accesses, or a scenario's slots=).
//!                    otc bench --spine serves a fixed round count, not
//!                    a slot target: its default is 20000
//! --limit BITS       processor leakage limit L (default 64)
//! --bench a,b,..     explicit benchmark list (default: the tenant mix)
//! --seed N           protocol/ORAM seed (default fixed)
//! --closed-loop      closed-loop tenant frontends (full stepped cores;
//!                    shard service + queueing cycles fed back into each
//!                    tenant's clock)
//! --pipeline P       shard pipeline: serial (pre-pipeline reference,
//!                    default) | staged (overlapped posmap/data stages +
//!                    background eviction)
//! --capacity C       admission pricing: olat (one full OLAT per slot,
//!                    the pre-cadence reference, default) | cadence
//!                    (the pipeline's steady-state initiation interval
//!                    — staged pools admit up to their real bandwidth;
//!                    slot grids identical under both)
//! --admission        otc bench only: run the admission sweep instead
//!                    of the pipeline sweep — fill serial/olat and
//!                    staged/cadence pools to their admission ceilings
//!                    and compare tenants admitted at the same p99
//!                    service-time SLO
//! --fairness         otc bench only: run the fairness sweep instead —
//!                    fill the pool (honouring --shard-mix) to its
//!                    admission ceiling with open-loop tenants of
//!                    deliberately unequal static rates, serve, and
//!                    compare every tenant's served-slot share against
//!                    its admitted weight share
//! --gate X           otc bench only: exit nonzero unless the staged
//!                    mean service time is ≥ X% below serial (pipeline
//!                    sweep) / the staged pool admits ≥ X× the tenants
//!                    within the SLO (admission sweep) / no tenant's
//!                    share deviates by more than X scheduling quanta
//!                    of its own slots (fairness sweep)
//! --json             otc bench only: emit the JSON record
//!                    (BENCH_pipeline.json / BENCH_admission.json /
//!                    BENCH_fairness.json in CI) instead of a table
//! --threads N        execute shard work on N worker threads
//!                    (ParallelKind::Threads); 0 or omitted = the serial
//!                    reference. Deterministic: any thread count
//!                    produces byte-identical output to serial
//! --wallclock        otc bench only: the wall-clock K-sweep — the same
//!                    seeded fleet serial vs --threads N, timed in real
//!                    elapsed ms, digests cross-checked; --gate X holds
//!                    the speedup floor at the largest K
//! --spine            otc bench only: the single-threaded spine sweep —
//!                    a seeded open-loop fleet of static-rate tenants at
//!                    K in {64, 256, 1024} serves a fixed round count on
//!                    the serial spine, timed in real elapsed ms;
//!                    --gate PCT holds measured rounds/sec at K=1024 at
//!                    least PCT% above the recorded pre-optimization
//!                    baseline
//! --trace N          print the first N observable slot records per
//!                    tenant (otc run only; used by the CI determinism
//!                    diff — ignored with a warning elsewhere)
//! --churn-script S   online churn events applied at round boundaries
//!                    while the fleet serves (otc run, otc churn and
//!                    otc tenants; ignored with a warning elsewhere and
//!                    with --scenario, whose @-lines are its events)
//! --scenario FILE    otc run only: load a declarative scenario file —
//!                    host line, tenant roster (per-tenant traffic
//!                    models and adversary seats), churn events — and
//!                    drive it; most flags are taken from the file
//!                    (--threads/--trace/--perf-session/--instructions
//!                    still apply, --threads overriding the file's
//!                    `threads=` so CI can diff serial vs threaded runs
//!                    of one file)
//! --perf-session F   record a structured perf session (per-round
//!                    samples + summary, framed binary format) to F
//!                    (otc run/tenants/churn/bench; tenants keeps the
//!                    largest fleet's session, bench the staged run's)
//! --session F        otc report only: the session file to render
//! --jsonl            otc report only: emit the JSONL export instead of
//!                    the timeline report
//! --width N          otc report only: timeline width in columns
//!                    (default 64)
//! ```
//!
//! # One front door
//!
//! Every serving subcommand runs a scenario. The host flags are the
//! scenario `host` keys under other names (`--shards`, `--oram`,
//! `--pipeline`, `--capacity`, `--shard-mix`, `--limit`, `--seed`,
//! `--accesses` = `slots`) and parse through the same keyword tables;
//! `run`, `churn`, `tenants` (once per K) and the `bench` sweeps compile
//! them to an in-memory [`ScenarioSpec`] whose seats `t0..` cycle the
//! benchmark list on `--scheme`, and hand it to the one driver:
//! [`ScenarioSpec::admit_roster`], then [`ScenarioSpec::serve`]. This
//! binary only prints — headers, event lines, the report, traces and
//! adversary estimates. A run stops when every event has fired and
//! every active tenant has served its slots; a run the driver's bound
//! cuts short says so in a `NOTE:` line.
//!
//! # Churn scripts
//!
//! A script is a `;`-separated list of events, each anchored at a
//! scheduling round (one round = one quantum of virtual time):
//!
//! ```text
//! @<round> admit <bench> <scheme> [closed]   splice a new tenant in
//! @<round> evict <tenant-id>                 retire a tenant online
//! @<round> shards <n>                        resize the backend pool
//! ```
//!
//! Example: `--churn-script '@8 admit mcf dynamic_R4_E4; @16 evict 0;
//! @24 shards 8'`. Events apply at the *start* of their round — a public
//! time boundary — and rejected events (saturation, unknown ids) are
//! reported and skipped deterministically, so seeded re-runs emit
//! byte-identical output (the CI churn-determinism job diffs exactly
//! that). The flag parses through the scenario event parser
//! (`otc_host::parse_churn_script`) — same grammar, same diagnostics as
//! `@`-lines in a scenario file.
//!
//! # Scenario files
//!
//! `otc run --scenario FILE` drives a whole fleet from one declarative
//! file: a `host` line (shards, geometry, pipeline, capacity,
//! scheduler, threads, serve target, shard mix), `tenant` lines (each
//! with a benchmark, rate scheme, loop mode, and its own traffic model
//! — `workload`, `bursty:..`, `diurnal:..`, `replay:..` — or an
//! `adversary=probe|distinguisher` seat), and `@round` churn events.
//! See `otc_host::scenario` for the grammar; `examples/` in the repo
//! has a commented example. Adversary seats are admitted as real
//! tenants: they saturate their own slot grid, observe only their own
//! queueing, and the run ends with each adversary's rate/phase estimate
//! of the victims, printed deterministically.

use otc_core::{EpochSchedule, LeakageModel, RatePolicy};
use otc_dram::DdrConfig;
use otc_host::{
    parse_bench, parse_churn_script, parse_scenario, parse_scheme, render, CapacityKind,
    EventOutcome, HostError, HostReport, MultiTenantHost, PerfSession, PipelineKind,
    ScenarioAction, ScenarioEvent, ScenarioHost, ScenarioSpec, ScenarioTenant, ServeEnd,
    SessionFile, TrafficModel,
};
use otc_oram::OramTiming;
use otc_workloads::SpecBenchmark;

/// The p99 service-time SLO shared by `otc bench --admission` and the
/// `otc report` per-tenant attainment table, in OLATs: generous enough
/// that a pool correctly admitted to ~90% of its *real* bandwidth meets
/// it, so a miss means the pricing let in tenants the shards cannot
/// carry.
const SLO_OLATS: u64 = 8;

/// Seats the admission and fairness sweeps offer: a runaway guard (a
/// pricing bug could otherwise admit forever), generous — stock
/// geometries saturate in dozens.
const MAX_FILL: usize = 4_096;

fn usage() -> ! {
    eprint!(
        "otc — multi-tenant ORAM serving appliance (HPCA'14 reproduction)\n\
         \n\
         subcommands:\n\
         \x20 otc run      drive a workload mix through the full stack\n\
         \x20 otc tenants  K-tenant saturation sweep with per-tenant throughput/waste\n\
         \x20 otc churn    drive a fleet through an online churn script\n\
         \x20 otc bench    seeded pipeline-vs-serial sweep (--json / --gate PCT)\n\
         \x20 otc report   render a recorded perf session (--session FILE [--jsonl])\n\
         \x20 otc leakage  leakage budget report\n\
         \n\
         run, churn, tenants and bench compile their flags to one scenario and\n\
         serve it with one driver; every tenant without its own budget gets\n\
         --instructions, else 50 per slot of the slot target.\n\
         \n\
         options: --tenants N --accesses N --shards N --scheme S --oram small|paper\n\
         \x20        --shard-mix small:serial,small:staged,.. --instructions N\n\
         \x20        --limit BITS --bench a,b,.. --seed N\n\
         \x20        --closed-loop --trace N --pipeline serial|staged --threads N\n\
         \x20        --capacity olat|cadence --admission --wallclock --fairness --spine\n\
         \x20        --json --gate X\n\
         \x20        --perf-session FILE --session FILE --jsonl --width N\n\
         \x20        --churn-script '@R admit <bench> <scheme> [closed]; @R evict <id>;\n\
         \x20                        @R shards <n>; ...' (otc run, churn, tenants)\n\
         \x20        --scenario FILE (otc run: drive a declarative scenario file)\n\
         schemes: static_<rate ≥ 1> | dynamic_R<2..=32513>_E<power of two ≥ 2>\n"
    );
    std::process::exit(2);
}

/// The host flags, each spelling the scenario `host` key it sets.
const HOST_FLAGS: [(&str, &str); 8] = [
    ("--shards", "shards"),
    ("--oram", "oram"),
    ("--pipeline", "pipeline"),
    ("--capacity", "capacity"),
    ("--shard-mix", "mix"),
    ("--limit", "limit"),
    ("--seed", "seed"),
    ("--accesses", "slots"),
];

#[derive(Debug, Clone)]
struct Opts {
    /// The [`HOST_FLAGS`] in scenario form; `slots` is `--accesses`.
    host: ScenarioHost,
    tenants: usize,
    scheme: String,
    instructions: Option<u64>,
    bench: Option<Vec<SpecBenchmark>>,
    closed_loop: bool,
    trace: usize,
    churn_script: Option<Vec<ScenarioEvent>>,
    scenario: Option<String>,
    admission: bool,
    fairness: bool,
    threads: Option<usize>,
    wallclock: bool,
    spine: bool,
    json: bool,
    gate: Option<f64>,
    perf_session: Option<String>,
    session: Option<String>,
    jsonl: bool,
    width: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            host: ScenarioHost::default(),
            tenants: 4,
            scheme: "dynamic_R4_E4".into(),
            instructions: None,
            bench: None,
            closed_loop: false,
            trace: 0,
            churn_script: None,
            scenario: None,
            admission: false,
            fairness: false,
            threads: None,
            wallclock: false,
            spine: false,
            json: false,
            gate: None,
            perf_session: None,
            session: None,
            jsonl: false,
            width: 64,
        }
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .clone()
        };
        if let Some(&(_, key)) = HOST_FLAGS.iter().find(|(f, _)| *f == flag.as_str()) {
            if let Err(e) = o.host.set(key, &val(flag)) {
                eprintln!("otc: {flag}: {e}");
                usage()
            }
            continue;
        }
        match flag.as_str() {
            "--tenants" => o.tenants = val("--tenants").parse().unwrap_or_else(|_| usage()),
            "--scheme" => {
                o.scheme = val("--scheme");
                if parse_scheme(&o.scheme).is_none() {
                    eprintln!("bad --scheme {:?}", o.scheme);
                    usage()
                }
            }
            "--instructions" => {
                o.instructions = Some(val("--instructions").parse().unwrap_or_else(|_| usage()))
            }
            "--bench" => {
                o.bench = Some(
                    val("--bench")
                        .split(',')
                        .map(|n| {
                            parse_bench(n).unwrap_or_else(|| {
                                eprintln!("unknown benchmark: {n}");
                                usage()
                            })
                        })
                        .collect(),
                )
            }
            "--closed-loop" => o.closed_loop = true,
            "--trace" => o.trace = val("--trace").parse().unwrap_or_else(|_| usage()),
            "--churn-script" => {
                let events = parse_churn_script(&val("--churn-script")).unwrap_or_else(|e| {
                    eprintln!("otc: --churn-script event {}: {}", e.line, e.msg);
                    std::process::exit(2);
                });
                o.churn_script = Some(events);
            }
            "--scenario" => o.scenario = Some(val("--scenario")),
            "--admission" => o.admission = true,
            "--fairness" => o.fairness = true,
            "--threads" => o.threads = Some(val("--threads").parse().unwrap_or_else(|_| usage())),
            "--wallclock" => o.wallclock = true,
            "--spine" => o.spine = true,
            "--json" => o.json = true,
            "--gate" => o.gate = Some(val("--gate").parse().unwrap_or_else(|_| usage())),
            "--perf-session" => o.perf_session = Some(val("--perf-session")),
            "--session" => o.session = Some(val("--session")),
            "--jsonl" => o.jsonl = true,
            "--width" => o.width = val("--width").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage()
            }
        }
    }
    o
}

/// The one instruction-budget rule: a tenant without its own budget,
/// and every `@admit`, gets `--instructions` if given, else 50 per slot
/// of the serve target.
fn instructions(o: &Opts, spec: &ScenarioSpec) -> u64 {
    o.instructions.unwrap_or(spec.host.slots.saturating_mul(50))
}

/// Compiles the serving flags to the scenario they spell: `k` seats
/// `t0..` cycling `--bench` (default: the tenant mix), each on
/// `--scheme` in the `--closed-loop` mode with the `--instructions`
/// budget, and the `--churn-script` events.
fn flag_spec(o: &Opts, k: usize) -> ScenarioSpec {
    let benches = o
        .bench
        .clone()
        .unwrap_or_else(|| SpecBenchmark::tenant_mix(o.tenants));
    ScenarioSpec {
        host: ScenarioHost {
            threads: o.threads.unwrap_or(0),
            ..o.host.clone()
        },
        tenants: (0..k)
            .map(|i| ScenarioTenant {
                name: format!("t{i}"),
                bench: benches[i % benches.len()],
                scheme: o.scheme.clone(),
                closed: o.closed_loop,
                traffic: TrafficModel::Workload,
                adversary: None,
                instructions: o.instructions,
            })
            .collect(),
        events: o.churn_script.clone().unwrap_or_default(),
    }
}

/// Builds the host `spec` describes, recording traces for `--trace`. A
/// configuration the builder refuses is a usage error (exit 2); a host
/// that fails to come up is a runtime one (exit 1).
fn build_host(spec: &ScenarioSpec, o: &Opts, who: &str) -> MultiTenantHost {
    let mut cfg = spec.host_config().unwrap_or_else(|e| {
        eprintln!("{who}: {e}");
        std::process::exit(2);
    });
    cfg.record_traces = o.trace > 0;
    MultiTenantHost::new(cfg).unwrap_or_else(|e| {
        eprintln!("{who}: {e}");
        std::process::exit(1);
    })
}

/// [`build_host`] with the whole roster admitted; a refused seat ends
/// the run (exit 1).
fn fleet(spec: &ScenarioSpec, o: &Opts, who: &str) -> MultiTenantHost {
    let mut host = build_host(spec, o, who);
    if let Err((_, e)) = spec.admit_roster(&mut host, instructions(o, spec)) {
        eprintln!("{who}: {e}");
        std::process::exit(1);
    }
    host
}

/// Offers `spec`'s seats in order until the pool refuses one as
/// saturated (the fill sweeps offer [`MAX_FILL`] seats), keeping only
/// the admitted seats in `spec`. Returns the host and the denial.
fn fill_to_saturation(spec: &mut ScenarioSpec, o: &Opts) -> (MultiTenantHost, String) {
    let mut host = build_host(spec, o, "otc bench");
    match spec.admit_roster(&mut host, instructions(o, spec)) {
        Err((seat, e @ HostError::Saturated { .. })) => {
            spec.tenants.truncate(seat);
            (host, e.to_string())
        }
        Err((_, e)) => {
            eprintln!("otc bench: {e}");
            std::process::exit(1);
        }
        Ok(()) => {
            eprintln!(
                "otc bench: admission never saturated after {} tenants",
                spec.tenants.len()
            );
            std::process::exit(1);
        }
    }
}

/// Serves `spec` on `host` to the driver's stop rule, printing one line
/// per fired event (the CI churn-determinism job diffs them), and a
/// `NOTE:` when the bound cut the run short, so a truncated report
/// can't pass for a completed one (on stderr under `--json`, whose
/// stdout is the record).
fn serve(o: &Opts, spec: &ScenarioSpec, host: &mut MultiTenantHost) -> HostReport {
    let end = spec.serve(host, instructions(o, spec), |ev, clock, outcome| {
        println!(
            "@{} clock {clock}: {}",
            ev.round,
            describe(&ev.action, outcome)
        );
    });
    if let ServeEnd::CutShort {
        rounds,
        unfired,
        under_target,
    } = end
    {
        let note = format!(
            "NOTE: stopped at the safety bound after {rounds} rounds: {unfired} unfired \
             event(s){}",
            if under_target {
                format!(", some tenants under the {}-slot target", spec.host.slots)
            } else {
                String::new()
            }
        );
        if o.json {
            eprintln!("{note}");
        } else {
            println!("{note}");
        }
    }
    host.report()
}

/// A fired event's outcome as its event line prints it.
fn describe(action: &ScenarioAction, outcome: EventOutcome) -> String {
    use {EventOutcome as Did, ScenarioAction as Act};
    match (action, outcome) {
        (
            Act::Admit {
                bench,
                scheme,
                closed,
            },
            Did::Admitted { name, id },
        ) => format!(
            "admitted {name} ({}, {scheme}, {} loop) as id {id}",
            bench.full_name(),
            loop_label(*closed)
        ),
        (Act::Evict { id }, Did::Evicted(retired)) => {
            format!("evicted tenant {id} ({retired} due slots retired as dummies)")
        }
        (Act::Shards { n }, Did::Resized) => format!("resized shard pool to {n}"),
        (Act::Admit { .. }, Did::Rejected(e)) => format!("admit REJECTED: {e}"),
        (Act::Evict { .. }, Did::Rejected(e)) => format!("evict REJECTED: {e}"),
        (Act::Shards { .. }, Did::Rejected(e)) => format!("resize REJECTED: {e}"),
        (_, outcome) => unreachable!("{outcome:?} does not answer its own action"),
    }
}

fn loop_label(closed: bool) -> &'static str {
    if closed {
        "closed"
    } else {
        "open"
    }
}

/// Serves a built fleet, recording a perf session labelled `label` when
/// `--perf-session` asks for one, then prints the report and the traces
/// `--trace` asks for.
fn serve_and_report(
    o: &Opts,
    spec: &ScenarioSpec,
    host: &mut MultiTenantHost,
    label: &str,
) -> HostReport {
    if o.perf_session.is_some() {
        host.record_perf_session(label);
    }
    let report = serve(o, spec, host);
    if let Some(path) = &o.perf_session {
        let session = host.take_perf_session().expect("recording was enabled");
        write_session(path, &session);
    }
    print!("{}", render(&report));
    if o.trace > 0 {
        print_traces(host, &report, o.trace);
    }
    report
}

fn cmd_churn(o: &Opts) {
    require_tenants(o);
    let Some(script) = &o.churn_script else {
        eprintln!("otc churn needs --churn-script (see --help for the grammar)");
        std::process::exit(2);
    };
    let spec = flag_spec(o, o.tenants);
    let mut host = fleet(&spec, o, "otc churn");
    println!(
        "otc churn: {} initial tenants, {} shards, scheme {}, {} slots/tenant, {} loop, {} events",
        o.tenants,
        o.host.shards,
        o.scheme,
        o.host.slots,
        loop_label(o.closed_loop),
        script.len()
    );
    let label = format!(
        "churn tenants={} scheme={} accesses={} events={}",
        o.tenants,
        o.scheme,
        o.host.slots,
        script.len()
    );
    serve_and_report(o, &spec, &mut host, &label);
}

/// Writes a recorded perf session to `path` in the framed binary
/// format (`otc report --session <path>` reads it back). The notice
/// goes to stderr so stdout stays byte-stable for the CI determinism
/// diffs.
fn write_session(path: &str, session: &PerfSession) {
    if let Err(e) = std::fs::write(path, session.to_bytes()) {
        eprintln!("otc: failed to write perf session {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "perf session: {} round sample(s) written to {path}",
        session.rounds.len()
    );
}

fn require_tenants(o: &Opts) {
    if o.tenants == 0 {
        eprintln!("--tenants must be at least 1");
        std::process::exit(2);
    }
}

/// `otc run --scenario FILE`: parse the scenario, admit its roster
/// (printing each seat), serve it while firing its churn events, and
/// report — ending with each adversary's rate/phase estimate of the
/// victim fleet. Everything on stdout is deterministic, so the CI
/// scenario-smoke job can diff a doubled run and a serial-vs-threaded
/// pair byte for byte.
fn cmd_run_scenario(o: &Opts, path: &str) {
    let who = format!("otc run: {path}");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("otc run: cannot read scenario {path}: {e}");
        std::process::exit(1);
    });
    let mut spec = parse_scenario(&text).unwrap_or_else(|e| {
        eprintln!("{who}: {e}");
        std::process::exit(2);
    });
    if spec.tenants.is_empty() {
        eprintln!("{who}: scenario has no tenants");
        std::process::exit(2);
    }
    // --threads on the command line overrides the file's `threads=`, so
    // CI can pit serial against threaded runs of one scenario file.
    if let Some(n) = o.threads {
        spec.host.threads = n;
    }
    let mut host = build_host(&spec, o, &who);
    println!(
        "otc run: scenario {path}: {} tenants, {} shards, {} slots/tenant, {} events",
        spec.tenants.len(),
        spec.host.shards,
        spec.host.slots,
        spec.events.len()
    );
    let admitted = spec.admit_roster(&mut host, instructions(o, &spec));
    let seated = admitted.as_ref().err().map_or(spec.tenants.len(), |r| r.0);
    // A fresh host numbers its tenants from 0 in admission order.
    for (id, t) in spec.tenants[..seated].iter().enumerate() {
        let role = match t.adversary {
            Some(kind) => format!("adversary: {}", kind.label()),
            None => format!("{}, {} loop", t.traffic.label(), loop_label(t.closed)),
        };
        println!(
            "  admitted {} ({}, {}, {role}) as id {id}",
            t.name,
            t.bench.full_name(),
            t.scheme
        );
    }
    if let Err((seat, e)) = admitted {
        eprintln!("{who}: admitting {}: {e}", spec.tenants[seat].name);
        std::process::exit(1);
    }
    let label = format!(
        "scenario tenants={} slots={} events={}",
        spec.tenants.len(),
        spec.host.slots,
        spec.events.len()
    );
    let report = serve_and_report(o, &spec, &mut host, &label);
    let candidates = spec.victim_rates();
    for t in &report.tenants {
        let Some(kind) = host.adversary_kind(t.id) else {
            continue;
        };
        let observed = host.adversary_observations(t.id).len();
        match host.adversary_estimate(t.id, &candidates) {
            Some(est) => println!(
                "adversary {} ({}): {observed} observed slots -> victim rate estimate {} \
                 (phase bin {}, score {:.3})",
                t.name,
                kind.label(),
                est.rate,
                est.phase,
                est.score
            ),
            None => println!(
                "adversary {} ({}): {observed} observed slots -> no estimate",
                t.name,
                kind.label()
            ),
        }
    }
}

/// Prints the first `n` observable slot records per tenant (the CI
/// determinism diff pins these byte for byte across thread counts).
fn print_traces(host: &MultiTenantHost, report: &HostReport, n: usize) {
    println!("\nobservable slot traces (first {n} slots per tenant):");
    for t in &report.tenants {
        let trace = host.tenant_trace(t.id);
        let slots: Vec<String> = trace
            .iter()
            .take(n)
            .map(|s| format!("{}{}", s.start, if s.real { "R" } else { "d" }))
            .collect();
        println!("{}: {}", t.name, slots.join(" "));
    }
}

fn cmd_run(o: &Opts) {
    if let Some(path) = o.scenario.as_deref() {
        return cmd_run_scenario(o, path);
    }
    require_tenants(o);
    let spec = flag_spec(o, o.tenants);
    let mut host = fleet(&spec, o, "otc run");
    println!(
        "otc run: {} tenants, {} shards, scheme {}, {} slots/tenant, {} loop",
        o.tenants,
        o.host.shards,
        o.scheme,
        o.host.slots,
        loop_label(o.closed_loop)
    );
    let label = format!(
        "run tenants={} scheme={} accesses={}",
        o.tenants, o.scheme, o.host.slots
    );
    serve_and_report(o, &spec, &mut host, &label);
}

fn cmd_tenants(o: &Opts) {
    require_tenants(o);
    let events = o.churn_script.as_ref().map_or(0, Vec::len);
    println!(
        "otc tenants: saturation sweep K=1..={} | {} shards | scheme {} | {} slots/tenant | {} loop{}",
        o.tenants,
        o.host.shards,
        o.scheme,
        o.host.slots,
        loop_label(o.closed_loop),
        if events == 0 {
            String::new()
        } else {
            format!(" | churn script ({events} events)")
        }
    );
    println!(
        "{:<4}{:>14}{:>14}{:>14}{:>14}{:>16}{:>16}",
        "K",
        "fleet acc/Mc",
        "mean waste",
        "max util%",
        "queue cyc",
        "mean fb cyc",
        "fleet leak bits"
    );
    let mut last = None;
    let mut last_session = None;
    for k in 1..=o.tenants {
        let spec = flag_spec(o, k);
        let mut host = build_host(&spec, o, "otc tenants");
        match spec.admit_roster(&mut host, instructions(o, &spec)) {
            Ok(()) => {}
            Err((
                _,
                HostError::Saturated {
                    demanded,
                    available,
                    cadence,
                    pricing,
                },
            )) => {
                println!(
                    "{k:<4}  SATURATED: demands {demanded:.2} shard-equivalents, \
                     {available:.2} available ({:.2} short; {pricing} pricing at \
                     {cadence} cycles/slot) — stop",
                    demanded - available
                );
                break;
            }
            Err((_, e)) => {
                eprintln!("otc tenants: {e}");
                std::process::exit(1);
            }
        }
        if o.perf_session.is_some() {
            host.record_perf_session(&format!(
                "tenants k={k} scheme={} accesses={}",
                o.scheme, o.host.slots
            ));
        }
        if events > 0 {
            println!("-- K={k} churn log --");
        }
        let report = serve(o, &spec, &mut host);
        if o.perf_session.is_some() {
            last_session = host.take_perf_session();
        }
        // Fleet columns cover the *active* fleet: frozen eviction
        // rows (possible under a churn script) would otherwise
        // keep their lifetime rates in the sums forever.
        let active = || report.tenants.iter().filter(|t| t.is_active());
        let n_active = report.active_tenants().max(1) as f64;
        // `+ 0.0` normalizes the -0.0 an empty sum yields (a
        // fully evicted fleet) so the table prints 0.0 — IEEE
        // 754 fixes the sign of `-0.0 + +0.0`, unlike `max`,
        // whose sign on equal zeros is platform-defined.
        let fleet_tp: f64 = active().map(|t| t.throughput_per_mcycle).sum::<f64>() + 0.0;
        let mean_waste: f64 = active().map(|t| t.waste_per_real).sum::<f64>() / n_active + 0.0;
        let max_util = report
            .shard_utilization
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        // Per-tenant queueing feedback: in closed-loop mode these
        // backend cycles were actually felt by the tenants' cores.
        let mean_fb: f64 = active().map(|t| t.feedback_cycles).sum::<u64>() as f64 / n_active;
        println!(
            "{:<4}{:>14.1}{:>14.1}{:>14.1}{:>14}{:>16.0}{:>16.1}",
            k,
            fleet_tp,
            mean_waste,
            max_util * 100.0,
            report.shard_queueing_cycles,
            mean_fb,
            report.fleet_spent_bits
        );
        last = Some(report);
    }
    if let Some(report) = last {
        println!("\nfinal fleet detail:");
        print!("{}", render(&report));
    }
    if let (Some(path), Some(session)) = (&o.perf_session, &last_session) {
        write_session(path, session);
    }
}

/// `otc bench --admission`: the capacity-model sweep behind the CI
/// admission gate. Two pools of identical shards are filled to their
/// admission ceilings with identical tenants — serial shards priced at
/// one `OLAT` per slot (the pre-cadence reference) against staged
/// shards priced at their pipeline cadence — then each admitted fleet
/// serves closed-loop and reports its p99 per-access service time
/// against the SLO. The payoff on record: the cadence-priced staged
/// pool admits ≥1.5× the tenants (`--gate` floor) while both pools
/// meet the same p99 SLO. Deterministic: admission is arithmetic over
/// the capacity model and the serve is over simulated cycles.
fn cmd_bench_admission(o: &Opts) {
    let slo_cycles =
        SLO_OLATS * OramTiming::derive(&o.host.oram.config(), &DdrConfig::default()).latency;
    let fill = |pipeline: PipelineKind,
                capacity: CapacityKind|
     -> (usize, String, HostReport, PerfSession) {
        let mut opts = o.clone();
        opts.host.pipeline = pipeline;
        opts.host.capacity = capacity;
        opts.closed_loop = true;
        let mut spec = flag_spec(&opts, MAX_FILL);
        let (mut host, denial) = fill_to_saturation(&mut spec, &opts);
        host.record_perf_session(&format!(
            "bench admission {:?}/{:?} accesses={}",
            pipeline, capacity, o.host.slots
        ));
        let report = serve(&opts, &spec, &mut host);
        let session = host.take_perf_session().expect("recording was enabled");
        (spec.tenants.len(), denial, report, session)
    };
    let (serial_k, serial_denial, serial, serial_session) =
        fill(PipelineKind::Serial, CapacityKind::Olat);
    let (staged_k, staged_denial, staged, staged_session) =
        fill(PipelineKind::Staged, CapacityKind::Cadence);
    if let Some(path) = &o.perf_session {
        write_session(path, &staged_session);
    }
    let ratio = staged_k as f64 / serial_k.max(1) as f64;
    // The SLO check and the JSON percentiles come from the session
    // distribution (the merged fleet histogram in the summary), the
    // same source `otc report` renders.
    let serial_p99 = serial_session.summary.service_hist.percentile(99);
    let staged_p99 = staged_session.summary.service_hist.percentile(99);
    let slo_met = serial_p99 <= slo_cycles && staged_p99 <= slo_cycles;
    let passed = slo_met && o.gate.is_none_or(|g| ratio >= g);
    let mode_json = |k: usize, report: &HostReport, session: &PerfSession| -> String {
        format!(
            "{{\"tenants_admitted\": {k}, \"capacity_pricing\": \"{}\", \
             \"effective_cadence\": {}, \"fleet_demand\": {:.4}, \"fleet_capacity\": {:.4}, \
             \"p50_service_cycles\": {}, \"p99_service_cycles\": {}, \
             \"mean_service_cycles\": {:.3}, \"queueing_cycles\": {}}}",
            report.capacity,
            report.effective_cadence,
            report.fleet_demand,
            report.fleet_capacity,
            session.summary.service_hist.percentile(50),
            session.summary.service_hist.percentile(99),
            report.mean_service_cycles,
            report.shard_queueing_cycles
        )
    };
    if o.json {
        println!("{{");
        println!("  \"bench\": \"admission_sweep\",");
        println!(
            "  \"config\": {{\"seed\": {}, \"shards\": {}, \"oram\": \"{}\", \
             \"scheme\": \"{}\", \"slots_per_tenant\": {}, \"closed_loop\": true, \
             \"slo_cycles\": {slo_cycles}}},",
            o.host.seed,
            o.host.shards,
            o.host.oram.label(),
            o.scheme,
            o.host.slots
        );
        println!(
            "  \"serial_olat\": {},",
            mode_json(serial_k, &serial, &serial_session)
        );
        println!(
            "  \"staged_cadence\": {},",
            mode_json(staged_k, &staged, &staged_session)
        );
        println!("  \"admission_ratio\": {ratio:.3},");
        println!("  \"slo_met\": {slo_met},");
        println!(
            "  \"gate_ratio\": {},",
            o.gate.map_or("null".into(), |g| format!("{g:.2}"))
        );
        println!("  \"gate_passed\": {passed}");
        println!("}}");
    } else {
        println!(
            "otc bench: admission sweep | {} shards, oram {}, scheme {}, {} slots/tenant, \
             closed loop, seed {} | p99 SLO {slo_cycles} cycles",
            o.host.shards,
            o.host.oram.label(),
            o.scheme,
            o.host.slots,
            o.host.seed
        );
        for (label, k, denial, report) in [
            ("serial/olat", serial_k, &serial_denial, &serial),
            ("staged/cadence", staged_k, &staged_denial, &staged),
        ] {
            println!(
                "  {label:<15} admitted {k:>3} tenants | p99 service {:>8} cycles | \
                 mean {:>8.1} | demand {:.2}/{:.2} shard-equivalents",
                report.p99_service_cycles,
                report.mean_service_cycles,
                report.fleet_demand,
                report.fleet_capacity
            );
            println!("  {label:<15} denial: {denial}");
        }
        println!(
            "  cadence pricing admits {ratio:.2}x the tenants; SLO {}",
            if slo_met {
                "met by both pools"
            } else {
                "MISSED"
            }
        );
    }
    if let Some(g) = o.gate {
        if !passed {
            eprintln!(
                "ADMISSION GATE FAILED: ratio {ratio:.2} (floor {g:.2}), p99 serial \
                 {serial_p99} / staged {staged_p99} vs SLO {slo_cycles}"
            );
            std::process::exit(1);
        }
        eprintln!("admission gate passed: {ratio:.2}x >= {g:.2}x floor, both pools within SLO");
    }
}

/// `otc bench --fairness`: the WDRR fairness sweep behind the CI
/// fairness gate. The pool (heterogeneous when `--shard-mix` is given)
/// is filled to its admission ceiling with open-loop tenants whose
/// static rates cycle a deliberately spread list — fast and slow grids
/// price differently, so the arbiter carries genuinely unequal weights —
/// then the fleet serves and every tenant's served-slot share is
/// compared against its admitted weight share. The figure on record is
/// the worst deviation measured in scheduling quanta of that tenant's
/// own slots (one quantum is the structural slack of a deficit
/// round-robin; the property suite in `tests/fairness_replay.rs` holds
/// the same bound over 64 random fleets). `--gate X` fails the run if
/// any tenant deviates by more than X quanta. The serve is over
/// simulated cycles, so every field except `elapsed_ms` is
/// bit-deterministic — the CI diff filters that one line.
fn cmd_bench_fairness(o: &Opts) {
    /// The admitted rate pattern: spread wide enough that weight shares
    /// differ by an order of magnitude across the fleet.
    const RATES: [u64; 4] = [500, 900, 1_600, 2_800];
    let mut opts = o.clone();
    opts.closed_loop = false;
    let mut spec = flag_spec(&opts, MAX_FILL);
    for (i, t) in spec.tenants.iter_mut().enumerate() {
        t.scheme = format!("static_{}", RATES[i % RATES.len()]);
    }
    let quantum = spec.host.quantum;
    let (mut host, denial) = fill_to_saturation(&mut spec, &opts);
    let admitted = spec.tenants.len();
    if admitted < 2 {
        eprintln!(
            "otc bench: fairness needs >= 2 admitted tenants (got {admitted}); grow the pool"
        );
        std::process::exit(1);
    }
    if o.perf_session.is_some() {
        host.record_perf_session(&format!(
            "bench fairness tenants={admitted} accesses={}",
            o.host.slots
        ));
    }
    let start = std::time::Instant::now();
    let report = serve(&opts, &spec, &mut host);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(path) = &o.perf_session {
        let session = host.take_perf_session().expect("recording was enabled");
        write_session(path, &session);
    }
    let olat = host.capacity_model().olat();
    // `+ 0.0` normalizes the -0.0 an empty f64 sum yields (unreachable
    // here after the >= 2 check, but the idiom is uniform repo-wide).
    let total_weight: f64 = report.tenants.iter().map(|t| t.capacity_share).sum::<f64>() + 0.0;
    let total_slots: u64 = report.tenants.iter().map(|t| t.slots_served).sum();
    // Per tenant: how far its served-slot count sits from its weight's
    // entitlement, in units of one scheduling quantum of its own slots
    // (plus the grid's ±1 quantization) — the same slack the property
    // suite asserts.
    let rows: Vec<(String, u64, f64, f64, u64, f64)> = report
        .tenants
        .iter()
        .map(|t| {
            let weight_share = t.capacity_share / total_weight;
            let slot_share = t.slots_served as f64 / total_slots as f64;
            let expected = weight_share * total_slots as f64;
            let quantum_slots = quantum as f64 / (t.final_rate + olat) as f64 + 1.0;
            let deviation_quanta = (t.slots_served as f64 - expected).abs() / quantum_slots;
            (
                t.name.clone(),
                t.final_rate,
                weight_share,
                slot_share,
                t.slots_served,
                deviation_quanta,
            )
        })
        .collect();
    let max_deviation = rows.iter().map(|r| r.5).fold(0.0f64, f64::max);
    let passed = o.gate.is_none_or(|g| max_deviation <= g);
    if o.json {
        println!("{{");
        println!("  \"bench\": \"fairness_sweep\",");
        println!(
            "  \"config\": {{\"seed\": {}, \"shards\": {}, \"oram\": \"{}\", \
             \"shard_mix\": \"{}\", \"capacity_pricing\": \"{}\", \"quantum\": {quantum}, \
             \"slots_per_tenant\": {}}},",
            o.host.seed,
            o.host.shards,
            o.host.oram.label(),
            o.host.mix_label(),
            report.capacity,
            o.host.slots
        );
        println!("  \"pipeline\": \"{}\",", report.pipeline_label);
        println!("  \"tenants_admitted\": {admitted},");
        println!("  \"total_slots\": {total_slots},");
        println!("  \"tenants\": [");
        for (i, (name, rate, weight_share, slot_share, slots, dev)) in rows.iter().enumerate() {
            println!(
                "    {{\"name\": \"{name}\", \"rate\": {rate}, \"weight_share\": \
                 {weight_share:.6}, \"slot_share\": {slot_share:.6}, \"slots\": {slots}, \
                 \"deviation_quanta\": {dev:.4}}}{}",
                if i + 1 < rows.len() { "," } else { "" }
            );
        }
        println!("  ],");
        println!("  \"max_deviation_quanta\": {max_deviation:.4},");
        println!("  \"elapsed_ms\": {elapsed_ms:.1},");
        println!(
            "  \"gate_quanta\": {},",
            o.gate.map_or("null".into(), |g| format!("{g:.2}"))
        );
        println!("  \"gate_passed\": {passed}");
        println!("}}");
    } else {
        println!(
            "otc bench: fairness sweep | {} shards ({} pipeline), mix \"{}\", {} pricing, \
             {} slots/tenant, seed {} | {admitted} tenants admitted to saturation",
            o.host.shards,
            report.pipeline_label,
            o.host.mix_label(),
            report.capacity,
            o.host.slots,
            o.host.seed
        );
        println!("  denial: {denial}");
        println!(
            "  {:<8}{:>8}{:>14}{:>14}{:>10}{:>12}",
            "tenant", "rate", "weight share", "slot share", "slots", "dev quanta"
        );
        for (name, rate, weight_share, slot_share, slots, dev) in &rows {
            println!(
                "  {name:<8}{rate:>8}{:>14.4}{:>14.4}{slots:>10}{dev:>12.3}",
                weight_share, slot_share
            );
        }
        println!(
            "  worst deviation {max_deviation:.3} scheduling quanta across {} tenants",
            rows.len()
        );
    }
    if let Some(g) = o.gate {
        if !passed {
            eprintln!(
                "FAIRNESS GATE FAILED: worst served-vs-weight share deviation \
                 {max_deviation:.3} quanta exceeds the {g:.2}-quantum floor"
            );
            std::process::exit(1);
        }
        eprintln!(
            "fairness gate passed: worst deviation {max_deviation:.3} <= {g:.2} scheduling quanta"
        );
    }
}

/// `otc bench --spine`: the single-threaded serving-spine sweep behind
/// the CI spine gate. A seeded open-loop fleet of static-rate tenants —
/// rates cycle a fixed spread of OLAT multiples so the config scales
/// with the geometry — serves exactly [`SPINE_ROUNDS`] scheduling
/// rounds on the serial spine (`ParallelKind::Serial`, calendar
/// scheduler) at each K in [`SPINE_KS`], and the real elapsed time of
/// the round loop is measured. Unlike `--wallclock` (which degrades to
/// a no-regression check on the single-core CI host, where a threading
/// speedup is physically unavailable), rounds/sec of the serial spine
/// is a real single-core figure: `--gate PCT` holds the measured
/// rounds/sec at K=1024 at least PCT% above
/// [`SPINE_BASELINE_K1024_ROUNDS_PER_SEC`], the pre-optimization
/// baseline recorded with this same harness. All simulated fields
/// (slots, clock, ledger bits) are bit-deterministic — the CI diff
/// filters only the timing-derived lines.
fn cmd_bench_spine(o: &Opts) {
    /// Fleet sizes swept; the gate holds at the largest.
    const SPINE_KS: [usize; 3] = [64, 256, 1024];
    /// Scheduling rounds served (and timed) per fleet size.
    const SPINE_ROUNDS: u64 = 256;
    /// Static tenant rates as OLAT multiples, cycled across the fleet:
    /// slow enough that K=1024 fits a 16-shard pool's admission
    /// ceiling, spread so calendar buckets stay unevenly loaded.
    const SPINE_RATE_OLATS: [u64; 4] = [64, 96, 128, 192];
    /// Shard pool size: fixed (not `--shards`) so the swept config is
    /// identical everywhere the gate runs.
    const SPINE_SHARDS: usize = 16;
    /// Pre-optimization rounds/sec at K=1024 on the single-core CI
    /// container class: the best min-of-reps figure observed for the
    /// commit just before the zero-allocation spine landed, measured
    /// with this exact harness (same fleet, rounds, and repetition
    /// policy) interleaved with post-optimization runs so both sides
    /// saw the same machine conditions. The `--gate` floor is relative
    /// to this figure.
    const SPINE_BASELINE_K1024_ROUNDS_PER_SEC: f64 = 40.2;
    /// Repetitions per fleet size, each on a fresh host; the reported
    /// time is the minimum. Shared-container noise only ever *adds*
    /// time, so min-of-reps converges on the code's real cost while a
    /// single sample can be off by 2x either way. The digest must be
    /// identical across reps — a free determinism check on every run.
    const SPINE_REPS: usize = 3;
    let mut opts = o.clone();
    opts.host.shards = SPINE_SHARDS;
    opts.threads = None; // the spine bench times the serial spine only
    opts.closed_loop = false;
    // A short instruction burst, then the all-dummy steady state: every
    // slot is a full recursive path access either way, but arrival
    // ingestion (which scales with K x benchmark miss rate, not with
    // the spine) stays a bounded prefix of the run.
    opts.instructions = Some(o.instructions.unwrap_or(20_000));
    let olat = OramTiming::derive(&opts.host.oram.config(), &DdrConfig::default()).latency;
    let quantum = opts.host.quantum;
    let mut roster = flag_spec(&opts, SPINE_KS[SPINE_KS.len() - 1]);
    for (i, t) in roster.tenants.iter_mut().enumerate() {
        t.scheme = format!(
            "static_{}",
            SPINE_RATE_OLATS[i % SPINE_RATE_OLATS.len()] * olat
        );
    }
    let run_once = |k: usize| -> (u64, u64, u64, u64, f64) {
        let mut spec = roster.clone();
        spec.tenants.truncate(k);
        let mut host = fleet(&spec, &opts, &format!("otc bench: K={k}"));
        let start = std::time::Instant::now();
        for _ in 0..SPINE_ROUNDS {
            host.step_round();
        }
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let report = host.report();
        let slots: u64 = report.tenants.iter().map(|t| t.slots_served).sum();
        let real: u64 = report.tenants.iter().map(|t| t.real_served).sum();
        let bits_milli = (report.fleet_spent_bits * 1000.0).round() as u64;
        (slots, real, report.horizon, bits_milli, elapsed_ms)
    };
    let run = |k: usize| -> (u64, u64, u64, u64, f64) {
        let mut best: Option<(u64, u64, u64, u64, f64)> = None;
        for _ in 0..SPINE_REPS {
            let rep = run_once(k);
            if let Some(prev) = best {
                if (rep.0, rep.1, rep.2, rep.3) != (prev.0, prev.1, prev.2, prev.3) {
                    eprintln!(
                        "otc bench: K={k}: digest diverged across repetitions \
                         ({:?} vs {:?}) — the seeded spine must be deterministic",
                        (rep.0, rep.1, rep.2, rep.3),
                        (prev.0, prev.1, prev.2, prev.3)
                    );
                    std::process::exit(1);
                }
                if rep.4 < prev.4 {
                    best = Some(rep);
                }
            } else {
                best = Some(rep);
            }
        }
        best.expect("SPINE_REPS >= 1")
    };
    let sweep: Vec<(usize, u64, u64, u64, u64, f64)> = SPINE_KS
        .iter()
        .map(|&k| {
            let (slots, real, clock, bits_milli, elapsed_ms) = run(k);
            (k, slots, real, clock, bits_milli, elapsed_ms)
        })
        .collect();
    let rps = |elapsed_ms: f64| -> f64 {
        if elapsed_ms > 0.0 {
            SPINE_ROUNDS as f64 / (elapsed_ms / 1e3)
        } else {
            0.0
        }
    };
    let gate_run = sweep.last().expect("sweep is nonempty");
    let gate_rps = rps(gate_run.5);
    let improvement = (gate_rps / SPINE_BASELINE_K1024_ROUNDS_PER_SEC - 1.0) * 100.0;
    let passed = o.gate.is_none_or(|g| improvement >= g);
    if o.json {
        println!("{{");
        println!("  \"bench\": \"spine_sweep\",");
        println!(
            "  \"config\": {{\"seed\": {}, \"shards\": {SPINE_SHARDS}, \"oram\": \"{}\", \
             \"olat\": {olat}, \"quantum\": {quantum}, \"rounds\": {SPINE_ROUNDS}, \
             \"reps\": {SPINE_REPS}, \"rate_olats\": [64, 96, 128, 192], \
             \"open_loop\": true, \"threads\": 0}},",
            o.host.seed,
            o.host.oram.label()
        );
        println!("  \"sweep\": [");
        for (i, (k, slots, real, clock, bits_milli, elapsed_ms)) in sweep.iter().enumerate() {
            println!("    {{");
            println!("      \"tenants\": {k},");
            println!(
                "      \"digest\": {{\"slots\": {slots}, \"real\": {real}, \"clock\": {clock}, \
                 \"spent_bits_milli\": {bits_milli}}},"
            );
            println!("      \"elapsed_ms\": {elapsed_ms:.1},");
            println!("      \"rounds_per_sec\": {:.1},", rps(*elapsed_ms));
            println!(
                "      \"slots_per_sec\": {:.0}",
                *slots as f64 / (elapsed_ms / 1e3).max(1e-9)
            );
            println!("    }}{}", if i + 1 < sweep.len() { "," } else { "" });
        }
        println!("  ],");
        println!("  \"baseline_rounds_per_sec\": {SPINE_BASELINE_K1024_ROUNDS_PER_SEC:.1},");
        println!("  \"improvement_pct\": {improvement:.1},");
        println!(
            "  \"gate_pct\": {},",
            o.gate.map_or("null".into(), |g| format!("{g:.1}"))
        );
        println!("  \"gate_passed\": {passed}");
        println!("}}");
    } else {
        println!(
            "otc bench: spine sweep | {SPINE_SHARDS} shards, oram {} (OLAT {olat}), \
             {SPINE_ROUNDS} rounds, static rates {{64,96,128,192}}xOLAT, open loop, seed {} | \
             single-threaded serial spine",
            o.host.oram.label(),
            o.host.seed
        );
        println!(
            "{:<8}{:>14}{:>16}{:>16}{:>12}{:>14}",
            "K", "elapsed ms", "rounds/sec", "slots/sec", "slots", "clock"
        );
        for (k, slots, _real, clock, _bits, elapsed_ms) in &sweep {
            println!(
                "{k:<8}{elapsed_ms:>14.1}{:>16.1}{:>16.0}{slots:>12}{clock:>14}",
                rps(*elapsed_ms),
                *slots as f64 / (elapsed_ms / 1e3).max(1e-9)
            );
        }
        println!(
            "  K=1024 spine at {gate_rps:.1} rounds/sec vs {SPINE_BASELINE_K1024_ROUNDS_PER_SEC:.1} \
             pre-optimization baseline: {improvement:+.1}%"
        );
    }
    if let Some(g) = o.gate {
        if !passed {
            eprintln!(
                "SPINE GATE FAILED: {gate_rps:.1} rounds/sec at K=1024 is {improvement:.1}% over \
                 the {SPINE_BASELINE_K1024_ROUNDS_PER_SEC:.1} baseline (floor {g:.0}%)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "spine gate passed: {gate_rps:.1} rounds/sec at K=1024, {improvement:.1}% >= {g:.0}% \
             over the pre-optimization baseline"
        );
    }
}

/// One run's deterministic outcome in the wall-clock sweep: the serial
/// and threaded executions must agree on every field here or the sweep
/// aborts — a speedup bought by divergence is not a speedup.
#[derive(Debug, PartialEq, Eq)]
struct WallclockDigest {
    slots: u64,
    real: u64,
    clock: u64,
    queueing_cycles: u64,
    p99_service_cycles: u64,
    spent_bits_milli: u64,
}

/// `otc bench --wallclock`: the seeded K-sweep behind the CI wall-clock
/// gate. Each fleet size runs twice — `ParallelKind::Serial` against
/// `ParallelKind::Threads(--threads, default 4)` — with identical
/// seeds, and the *real elapsed time* of the serve loop is measured
/// (host construction excluded). Simulated results are cross-checked
/// field by field ([`WallclockDigest`]); `--gate X` holds a speedup
/// floor at the largest K. Unlike every other bench, the timing fields
/// here are genuinely nondeterministic — the CI diff filters the
/// `elapsed_ms`/`speedup`/`host_parallelism`/`applied_gate`/
/// `gate_passed` lines and pins the rest.
///
/// The gate is parallelism-aware: a wall-clock speedup requires the
/// host to actually run threads concurrently, so on a single-core
/// machine (`available_parallelism() == 1`) the `--gate` floor degrades
/// to [`SINGLE_CORE_FLOOR`] — a no-regression check that the threaded
/// path's synchronization overhead stays bounded. The JSON records
/// which floor applied, so a single-core run can never masquerade as a
/// multi-core speedup measurement.
fn cmd_bench_wallclock(o: &Opts) {
    /// Floor applied instead of `--gate` when only one CPU is visible:
    /// threaded must finish within 2x of serial (speedup >= 0.5).
    const SINGLE_CORE_FLOOR: f64 = 0.5;
    require_tenants(o);
    let threads = match o.threads {
        None | Some(0) => 4,
        Some(n) => n,
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ks = vec![(o.tenants / 4).max(1), o.tenants];
    ks.dedup();
    let run = |k: usize, threads: Option<usize>| -> (WallclockDigest, f64) {
        let mut opts = o.clone();
        opts.threads = threads;
        let spec = flag_spec(&opts, k);
        let mut host = fleet(&spec, &opts, &format!("otc bench: K={k}"));
        let start = std::time::Instant::now();
        let report = serve(&opts, &spec, &mut host);
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let digest = WallclockDigest {
            slots: report.tenants.iter().map(|t| t.slots_served).sum(),
            real: report.tenants.iter().map(|t| t.real_served).sum(),
            clock: report.horizon,
            queueing_cycles: report.shard_queueing_cycles,
            p99_service_cycles: report.p99_service_cycles,
            spent_bits_milli: (report.fleet_spent_bits * 1000.0).round() as u64,
        };
        (digest, elapsed_ms)
    };
    let sweep: Vec<(usize, WallclockDigest, f64, f64)> = ks
        .iter()
        .map(|&k| {
            let (digest, serial_ms) = run(k, None);
            let (threaded_digest, threaded_ms) = run(k, Some(threads));
            if digest != threaded_digest {
                eprintln!(
                    "WALLCLOCK BENCH ABORTED: Threads({threads}) diverged from Serial at \
                     K={k}:\n  serial   {digest:?}\n  threaded {threaded_digest:?}"
                );
                std::process::exit(1);
            }
            (k, digest, serial_ms, threaded_ms)
        })
        .collect();
    let speedup_at = |serial_ms: f64, threaded_ms: f64| -> f64 {
        if threaded_ms > 0.0 {
            serial_ms / threaded_ms
        } else {
            0.0
        }
    };
    let (_, _, gate_serial, gate_threaded) = sweep.last().expect("sweep is nonempty");
    let gate_speedup = speedup_at(*gate_serial, *gate_threaded);
    let applied_gate = o.gate.map(|g| {
        if host_parallelism >= 2 {
            g
        } else {
            g.min(SINGLE_CORE_FLOOR)
        }
    });
    let passed = applied_gate.is_none_or(|g| gate_speedup >= g);
    if o.json {
        println!("{{");
        println!("  \"bench\": \"wallclock_sweep\",");
        println!(
            "  \"config\": {{\"seed\": {}, \"shards\": {}, \"oram\": \"{}\", \
             \"scheme\": \"{}\", \"slots_per_tenant\": {}, \"threads\": {threads}, \
             \"closed_loop\": {}}},",
            o.host.seed,
            o.host.shards,
            o.host.oram.label(),
            o.scheme,
            o.host.slots,
            o.closed_loop
        );
        println!("  \"sweep\": [");
        for (i, (k, digest, serial_ms, threaded_ms)) in sweep.iter().enumerate() {
            println!("    {{");
            println!("      \"tenants\": {k},");
            println!(
                "      \"digest\": {{\"slots\": {}, \"real\": {}, \"clock\": {}, \
                 \"queueing_cycles\": {}, \"p99_service_cycles\": {}, \
                 \"spent_bits_milli\": {}}},",
                digest.slots,
                digest.real,
                digest.clock,
                digest.queueing_cycles,
                digest.p99_service_cycles,
                digest.spent_bits_milli
            );
            println!("      \"elapsed_ms_serial\": {serial_ms:.1},");
            println!("      \"elapsed_ms_threads\": {threaded_ms:.1},");
            println!(
                "      \"speedup\": {:.2}",
                speedup_at(*serial_ms, *threaded_ms)
            );
            println!("    }}{}", if i + 1 < sweep.len() { "," } else { "" });
        }
        println!("  ],");
        println!("  \"host_parallelism\": {host_parallelism},");
        println!(
            "  \"gate_speedup\": {},",
            o.gate.map_or("null".into(), |g| format!("{g:.2}"))
        );
        println!(
            "  \"applied_gate\": {},",
            applied_gate.map_or("null".into(), |g| format!("{g:.2}"))
        );
        println!("  \"gate_passed\": {passed}");
        println!("}}");
    } else {
        println!(
            "otc bench: wall-clock sweep | {} shards, oram {}, scheme {}, {} slots/tenant, \
             {} loop, seed {} | serial vs {threads} worker thread(s) on {host_parallelism} \
             host core(s)",
            o.host.shards,
            o.host.oram.label(),
            o.scheme,
            o.host.slots,
            loop_label(o.closed_loop),
            o.host.seed
        );
        println!(
            "{:<8}{:>14}{:>16}{:>10}{:>14}{:>12}",
            "K", "serial ms", "threads ms", "speedup", "slots", "clock"
        );
        for (k, digest, serial_ms, threaded_ms) in &sweep {
            println!(
                "{k:<8}{serial_ms:>14.1}{threaded_ms:>16.1}{:>10.2}{:>14}{:>12}",
                speedup_at(*serial_ms, *threaded_ms),
                digest.slots,
                digest.clock
            );
        }
    }
    if let Some(g) = applied_gate {
        let requested = o.gate.expect("applied_gate implies --gate");
        let floor = if (g - requested).abs() > f64::EPSILON {
            format!("{g:.2}x single-core no-regression floor (requested {requested:.2}x)")
        } else {
            format!("{g:.2}x floor")
        };
        if !passed {
            eprintln!(
                "WALLCLOCK GATE FAILED: Threads({threads}) speedup {gate_speedup:.2}x at \
                 K={} is under the {floor}",
                ks.last().expect("nonempty")
            );
            std::process::exit(1);
        }
        eprintln!(
            "wallclock gate passed: {gate_speedup:.2}x >= {floor} at K={}",
            ks.last().expect("nonempty")
        );
    }
}

/// `otc bench`: the seeded pipeline-vs-serial sweep behind the CI perf
/// gate (or, with `--admission` / `--fairness`, the capacity and
/// arbiter sweeps above). The same
/// closed-loop fleet (identical seeds, benchmarks and rate policy) runs
/// once per pipeline discipline; the comparison is over simulated
/// cycles, so the result is bit-deterministic — the `--gate` floor
/// exists to catch real regressions, not wall-clock noise.
fn cmd_bench(o: &Opts) {
    require_tenants(o);
    if o.wallclock {
        return cmd_bench_wallclock(o);
    }
    if o.spine {
        return cmd_bench_spine(o);
    }
    if o.admission {
        return cmd_bench_admission(o);
    }
    if o.fairness {
        return cmd_bench_fairness(o);
    }
    let run = |kind: PipelineKind| -> (HostReport, PerfSession) {
        let mut opts = o.clone();
        opts.host.pipeline = kind;
        opts.closed_loop = true; // the gate measures fed-back service time
        let spec = flag_spec(&opts, opts.tenants);
        let mut host = fleet(&spec, &opts, "otc bench");
        host.record_perf_session(&format!(
            "bench pipeline {kind:?} tenants={} accesses={}",
            opts.tenants, opts.host.slots
        ));
        let report = serve(&opts, &spec, &mut host);
        let session = host.take_perf_session().expect("recording was enabled");
        (report, session)
    };
    let (serial, serial_session) = run(PipelineKind::Serial);
    let (staged, staged_session) = run(PipelineKind::Staged);
    if let Some(path) = &o.perf_session {
        write_session(path, &staged_session);
    }
    let improvement = if serial.mean_service_cycles > 0.0 {
        (1.0 - staged.mean_service_cycles / serial.mean_service_cycles) * 100.0
    } else {
        0.0
    };
    // The percentiles come from the sessions' merged fleet service-time
    // histograms — the same distribution `otc report` renders. The gate
    // holds the floor on the p99 tail as well as the mean, so a staged
    // pipeline that wins on average but regresses its worst percentile
    // still fails.
    let serial_p99 = serial_session.summary.service_hist.percentile(99);
    let staged_p99 = staged_session.summary.service_hist.percentile(99);
    let p99_improvement = if serial_p99 > 0 {
        (1.0 - staged_p99 as f64 / serial_p99 as f64) * 100.0
    } else {
        0.0
    };
    let passed = o
        .gate
        .is_none_or(|g| improvement >= g && p99_improvement >= g);
    let mode_json = |report: &HostReport, session: &PerfSession| -> String {
        let tp: f64 = report
            .tenants
            .iter()
            .filter(|t| t.is_active())
            .map(|t| t.throughput_per_mcycle)
            .sum();
        format!(
            "{{\"mean_service_cycles\": {:.3}, \"p50_service_cycles\": {}, \
             \"p99_service_cycles\": {}, \"queueing_cycles\": {}, \
             \"service_cycles\": {}, \"fleet_throughput_per_mcycle\": {:.3}, \
             \"background_eviction_drains\": {}}}",
            report.mean_service_cycles,
            session.summary.service_hist.percentile(50),
            session.summary.service_hist.percentile(99),
            report.shard_queueing_cycles,
            report.shard_service_cycles,
            tp,
            report.background_eviction_drains
        )
    };
    if o.json {
        println!("{{");
        println!("  \"bench\": \"pipeline_sweep\",");
        println!(
            "  \"config\": {{\"seed\": {}, \"tenants\": {}, \"shards\": {}, \
             \"oram\": \"{}\", \"scheme\": \"{}\", \"slots_per_tenant\": {}, \
             \"closed_loop\": true}},",
            o.host.seed,
            o.tenants,
            o.host.shards,
            o.host.oram.label(),
            o.scheme,
            o.host.slots
        );
        println!("  \"serial\": {},", mode_json(&serial, &serial_session));
        println!("  \"staged\": {},", mode_json(&staged, &staged_session));
        println!("  \"improvement_pct\": {improvement:.3},");
        println!("  \"p99_improvement_pct\": {p99_improvement:.3},");
        println!(
            "  \"gate_pct\": {},",
            o.gate.map_or("null".into(), |g| format!("{g:.1}"))
        );
        println!("  \"gate_passed\": {passed}");
        println!("}}");
    } else {
        println!(
            "otc bench: pipeline sweep | {} tenants, {} shards, scheme {}, {} slots/tenant, \
             closed loop, seed {}",
            o.tenants, o.host.shards, o.scheme, o.host.slots, o.host.seed
        );
        for (label, report, session) in [
            ("serial", &serial, &serial_session),
            ("staged", &staged, &staged_session),
        ] {
            println!(
                "  {label:<7} mean service {:>8.1} cycles | p99 {:>8} | queueing {:>12} | \
                 drains {:>8}",
                report.mean_service_cycles,
                session.summary.service_hist.percentile(99),
                report.shard_queueing_cycles,
                report.background_eviction_drains
            );
        }
        println!(
            "  staged mean service time is {improvement:.1}% below serial \
             (p99 {p99_improvement:.1}% below)"
        );
    }
    if let Some(g) = o.gate {
        if !passed {
            eprintln!(
                "PERF GATE FAILED: staged mean {:.1} cycles is {improvement:.1}% below serial \
                 {:.1}, staged p99 {staged_p99} is {p99_improvement:.1}% below serial p99 \
                 {serial_p99} (floor {g:.0}% on both)",
                staged.mean_service_cycles, serial.mean_service_cycles
            );
            std::process::exit(1);
        }
        eprintln!(
            "perf gate passed: mean {improvement:.1}% and p99 {p99_improvement:.1}% >= \
             {g:.0}% floor"
        );
    }
}

/// `otc report`: render a perf session recorded with `--perf-session`.
/// The default view is the timeline report (stage occupancy, eviction
/// queue depth, calendar entries, shard utilization, per-tenant SLO
/// attainment); `--jsonl` emits the line-delimited export instead. Both
/// read through [`SessionFile`], exercising the on-disk index the same
/// way an external consumer would.
fn cmd_report(o: &Opts) {
    let Some(path) = &o.session else {
        eprintln!("otc report needs --session FILE (record one with --perf-session)");
        std::process::exit(2);
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("otc report: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let file = SessionFile::from_bytes(bytes).unwrap_or_else(|e| {
        eprintln!("otc report: {path}: {e}");
        std::process::exit(1);
    });
    if o.jsonl {
        match file.export_jsonl() {
            Ok(jsonl) => print!("{jsonl}"),
            Err(e) => {
                eprintln!("otc report: {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let session = match file.into_session() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("otc report: {path}: {e}");
            std::process::exit(1);
        }
    };
    let slo_cycles = SLO_OLATS * session.meta.olat;
    print!(
        "{}",
        otc_perf::report::render_session(&session, o.width, slo_cycles)
    );
}

fn cmd_leakage(o: &Opts) {
    let policy = parse_scheme(&o.scheme).expect("--scheme is checked when the flags parse");
    let (rate_count, schedule) = match &policy {
        RatePolicy::Static { .. } => (1, EpochSchedule::scaled(4)),
        RatePolicy::Dynamic {
            rates, schedule, ..
        } => (rates.len(), *schedule),
    };
    let model = LeakageModel::new(rate_count, schedule);
    println!("otc leakage: scheme {} × {} tenants", o.scheme, o.tenants);
    println!(
        "  per-tenant ORAM-timing budget : {:>8.1} bits (|E|={} epochs × lg|R|={:.1})",
        model.oram_timing_bits(),
        schedule.total_epochs(),
        (rate_count as f64).log2()
    );
    println!(
        "  per-tenant termination channel: {:>8.1} bits (lg Tmax)",
        model.termination_bits()
    );
    println!(
        "  per-tenant total              : {:>8.1} bits",
        model.total_bits()
    );
    println!(
        "  fleet ORAM-timing budget      : {:>8.1} bits ({} tenants, channels additive)",
        model.oram_timing_bits() * o.tenants as f64,
        o.tenants
    );
    println!(
        "  processor limit L             : {:>8} bits per tenant ({})",
        o.host.limit_bits,
        if model.oram_timing_bits().ceil() as u64 <= o.host.limit_bits {
            "admissible"
        } else {
            "would be REJECTED at admission"
        }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    let mut opts = parse_opts(rest);
    // Only `otc run` prints traces; recording them elsewhere would just
    // grow per-tenant SlotRecord vectors nobody reads.
    if opts.trace > 0 && cmd != "run" {
        eprintln!("--trace only applies to `otc run`; ignoring");
        opts.trace = 0;
    }
    // Sessions are sampled round by round while a fleet serves; the
    // non-simulating subcommands have no rounds to sample.
    if opts.perf_session.is_some() && matches!(cmd.as_str(), "leakage" | "report") {
        eprintln!("--perf-session does not apply to `otc {cmd}`; ignoring");
        opts.perf_session = None;
    }
    if opts.scenario.is_some() && cmd != "run" {
        eprintln!("--scenario only applies to `otc run`; ignoring");
        opts.scenario = None;
    }
    if opts.churn_script.is_some() && !matches!(cmd.as_str(), "run" | "churn" | "tenants") {
        eprintln!(
            "--churn-script only applies to `otc run`, `otc churn` and `otc tenants`; ignoring"
        );
        opts.churn_script = None;
    }
    if opts.churn_script.is_some() && opts.scenario.is_some() {
        eprintln!(
            "--churn-script does not apply with --scenario (its @-lines are the events); ignoring"
        );
        opts.churn_script = None;
    }
    match cmd.as_str() {
        "run" => cmd_run(&opts),
        "tenants" => cmd_tenants(&opts),
        "churn" => cmd_churn(&opts),
        "bench" => cmd_bench(&opts),
        "report" => cmd_report(&opts),
        "leakage" => cmd_leakage(&opts),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each flag set compiles to the spec its equivalent scenario text
    /// parses to, and that spec survives a render round trip.
    #[test]
    fn flags_compile_to_their_scenario() {
        let cases: [(&[&str], &str); 3] = [
            (
                &["--tenants", "2"],
                "tenant t0 bench=mcf scheme=dynamic_R4_E4\n\
                 tenant t1 bench=hmmer scheme=dynamic_R4_E4\n",
            ),
            (
                &[
                    "--tenants", "3", "--accesses", "300", "--shards", "2", "--oram", "small",
                    "--pipeline", "staged", "--capacity", "cadence", "--seed", "7", "--limit",
                    "32", "--threads", "2", "--scheme", "static_900", "--bench", "libq,gobmk",
                    "--closed-loop", "--instructions", "5000",
                ],
                "host shards=2 oram=small pipeline=staged capacity=cadence seed=7 limit=32 \
                 threads=2 slots=300\n\
                 tenant t0 bench=libquantum scheme=static_900 instructions=5000 closed\n\
                 tenant t1 bench=gobmk scheme=static_900 instructions=5000 closed\n\
                 tenant t2 bench=libquantum scheme=static_900 instructions=5000 closed\n",
            ),
            (
                &[
                    "--tenants", "1", "--oram", "small", "--shard-mix",
                    "small:serial,paper:staged", "--churn-script",
                    "@8 admit mcf dynamic_R4_E4; @24 shards 8; @16 evict 0; @8 admit hmmer static_900 closed",
                ],
                "host oram=small mix=small:serial,paper:staged\n\
                 tenant t0 bench=mcf scheme=dynamic_R4_E4\n\
                 @8 admit mcf dynamic_R4_E4\n\
                 @24 shards 8\n\
                 @16 evict 0\n\
                 @8 admit hmmer static_900 closed\n",
            ),
        ];
        for (flags, text) in cases {
            let args: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
            let o = parse_opts(&args);
            let spec = flag_spec(&o, o.tenants);
            assert_eq!(Ok(&spec), parse_scenario(text).as_ref(), "{flags:?}");
            assert_eq!(parse_scenario(&spec.render()), Ok(spec), "{flags:?}");
        }
    }

    #[test]
    fn churn_script_rejects_malformed_events() {
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
        assert!(parse_churn_script(" ; ;").expect("empty ok").is_empty());
    }
}
