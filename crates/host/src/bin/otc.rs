//! `otc` — drive the multi-tenant ORAM appliance from the command line.
//!
//! ```text
//! otc run     [opts]   serve one scenario through the full stack: the
//!                      fleet the flags spell, or --scenario FILE
//!                      (typed tenants, traffic models, adversary
//!                      seats, churn events); --churn-script adds
//!                      online admit/evict/resize events to a flag run
//! otc tenants [opts]   K-tenant saturation sweep (throughput/waste per K)
//! otc bench   [opts]   one wall-clock sweep, --spine or --wallclock
//!                      (below), printed as its JSON record
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
//! --scheme S         static_<rate> with 1 ≤ rate ≤ 2^32 |
//!                    dynamic_R<n>_E<g> with 2 ≤ n ≤ 1245 and g a
//!                    power of two ≥ 2 (default dynamic_R4_E4),
//!                    numbers without a leading 0 or +;
//!                    anything else exits 2
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
//! --pipeline P       shard pipeline: serial (the paper's controller,
//!                    default) | staged (overlapped posmap/data stages +
//!                    background eviction)
//! --capacity C       admission pricing: olat (one full OLAT per slot,
//!                    the pre-cadence reference, default) | cadence
//!                    (the pipeline's steady-state initiation interval
//!                    — staged pools admit up to their real bandwidth;
//!                    slot grids identical under both)
//! --gate X           otc bench only: exit 1 unless the spine's K=1024
//!                    rounds/sec is ≥ X% above the recorded baseline
//!                    (--spine) / the threaded speedup at the largest K
//!                    is ≥ X× (--wallclock); X is a finite number ≥ 0
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
//!                    while the fleet serves (otc run and otc tenants;
//!                    ignored with a warning elsewhere and with
//!                    --scenario, whose @-lines are its events)
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
//!                    (otc run/tenants; tenants keeps the largest
//!                    fleet's session, and exits 1 if none served)
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
//! `run` without `--scenario`, `tenants` (once per K) and the `bench`
//! sweeps compile them to an in-memory [`ScenarioSpec`] whose seats
//! `t0..` cycle the benchmark list on `--scheme`, and hand it to the one
//! driver: [`ScenarioSpec::admit_roster`], then [`ScenarioSpec::serve`].
//! This binary only prints, and `otc run` prints a flag-built scenario
//! exactly as it prints a file: a header, one `admitted` line per seat,
//! the event lines, the report, traces and adversary estimates. A run
//! stops when every event has fired and every active tenant has served
//! its slots; a run the driver's bound cuts short says so in a `NOTE:`
//! line.
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
//! Example: `otc run --churn-script '@8 admit mcf dynamic_R4_E4; @16
//! evict 0; @24 shards 8'`. Events apply at the *start* of their round —
//! a public time boundary — and rejected events (saturation, unknown
//! ids) are reported and skipped deterministically, so seeded re-runs
//! emit byte-identical output (the CI churn-determinism job diffs
//! exactly that). The flag parses through the scenario event parser
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
//!
//! # Wall-clock sweeps
//!
//! `otc bench --spine` and `--wallclock` share one measurement loop and
//! one record printer. Each run builds a fresh host and times only the
//! serve; every run of a fleet size, across repetitions and executors,
//! must reach the same seeded digest (exit 1 otherwise), and the
//! fastest run is the one recorded.

use std::time::Instant;

use otc_core::{LeakageModel, SecureProcessor};
use otc_crypto::SplitMix64;
use otc_dram::DdrConfig;
use otc_host::{
    parse_bench, parse_churn_script, parse_scenario, parse_scheme, render, EventOutcome, HostError,
    HostReport, MultiTenantHost, PerfSession, ScenarioAction, ScenarioEvent, ScenarioHost,
    ScenarioSpec, ScenarioTenant, ServeEnd, TrafficModel,
};
use otc_oram::OramTiming;
use otc_workloads::SpecBenchmark;

/// The p99 service-time SLO of the `otc report` per-tenant attainment
/// table, in OLATs: generous enough that a pool correctly admitted to
/// ~90% of its *real* bandwidth meets it, so a miss means the pricing
/// let in tenants the shards cannot carry. `capacity_replay` holds the
/// admission record to the same SLO.
const SLO_OLATS: u64 = 8;

fn usage() -> ! {
    eprint!(
        "otc — multi-tenant ORAM serving appliance (HPCA'14 reproduction)\n\
         \n\
         subcommands:\n\
         \x20 otc run      serve a workload mix (the flags, or --scenario FILE)\n\
         \x20 otc tenants  K-tenant saturation sweep with per-tenant throughput/waste\n\
         \x20 otc bench    wall-clock sweep as a JSON record (--spine | --wallclock)\n\
         \x20 otc report   render a recorded perf session (--session FILE [--jsonl])\n\
         \x20 otc leakage  leakage budget report\n\
         \n\
         run, tenants and bench compile their flags to one scenario and serve\n\
         it with one driver; every tenant without its own budget gets\n\
         --instructions, else 50 per slot of the slot target.\n\
         \n\
         options: --tenants N --accesses N --shards N --scheme S --oram small|paper\n\
         \x20        --shard-mix small:serial,small:staged,.. --instructions N\n\
         \x20        --limit BITS --bench a,b,.. --seed N\n\
         \x20        --closed-loop --trace N --pipeline serial|staged --threads N\n\
         \x20        --capacity olat|cadence --spine --wallclock --gate X (finite, >= 0)\n\
         \x20        --perf-session FILE --session FILE --jsonl --width N\n\
         \x20        --churn-script '@R admit <bench> <scheme> [closed]; @R evict <id>;\n\
         \x20                        @R shards <n>; ...' (otc run, tenants)\n\
         \x20        --scenario FILE (otc run: drive a declarative scenario file)\n\
         schemes: static_<1..=2^32> | dynamic_R<2..=1245>_E<power of two ≥ 2>\n\
         \x20        (numbers without a leading 0 or +)\n"
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
    threads: Option<usize>,
    wallclock: bool,
    spine: bool,
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
            threads: None,
            wallclock: false,
            spine: false,
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
            "--threads" => o.threads = Some(val("--threads").parse().unwrap_or_else(|_| usage())),
            "--wallclock" => o.wallclock = true,
            "--spine" => o.spine = true,
            "--gate" => {
                let text = val("--gate");
                match text.parse::<f64>() {
                    Ok(g) if g.is_finite() && g >= 0.0 => o.gate = Some(g),
                    _ => {
                        eprintln!("otc: --gate {text:?} is not a finite number >= 0");
                        usage()
                    }
                }
            }
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

/// Serves `spec` on `host` to the driver's stop rule, printing one line
/// per fired event (the CI churn-determinism job diffs them), and a
/// `NOTE:` when the bound cut the run short, so a truncated report
/// can't pass for a completed one (on stderr when `stdout_is_record`,
/// as under `otc bench`, whose stdout is the JSON record).
fn serve(o: &Opts, spec: &ScenarioSpec, host: &mut MultiTenantHost, stdout_is_record: bool) {
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
        if stdout_is_record {
            eprintln!("{note}");
        } else {
            println!("{note}");
        }
    }
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
        (Act::Evict { id }, Did::Evicted) => format!("evicted tenant {id}"),
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

/// Reads and parses `otc run --scenario FILE`: an unreadable file is a
/// runtime error (exit 1), a malformed or empty one a usage error
/// (exit 2). `--threads` overrides the file's `threads=`, so CI can pit
/// serial against threaded runs of one scenario file.
fn load_scenario(o: &Opts, path: &str) -> ScenarioSpec {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("otc run: cannot read scenario {path}: {e}");
        std::process::exit(1);
    });
    let mut spec = parse_scenario(&text).unwrap_or_else(|e| {
        eprintln!("otc run: {path}: {e}");
        std::process::exit(2);
    });
    if spec.tenants.is_empty() {
        eprintln!("otc run: {path}: scenario has no tenants");
        std::process::exit(2);
    }
    if let Some(n) = o.threads {
        spec.host.threads = n;
    }
    spec
}

/// `otc run`: serves one scenario, the `--scenario` file's or the one
/// the flags spell, and prints it: a header naming the source, one
/// line per seat admitted, one per fired event, the report (recording
/// a perf session on the way when `--perf-session` asks), the traces
/// `--trace` asks for, and each adversary seat's rate/phase estimate of
/// the victims. Everything on stdout is deterministic, so CI diffs a
/// doubled run and a serial-vs-threaded pair byte for byte.
fn cmd_run(o: &Opts) {
    let (spec, source) = match &o.scenario {
        Some(path) => (load_scenario(o, path), format!("scenario {path}")),
        None => {
            require_tenants(o);
            (flag_spec(o, o.tenants), "flags".into())
        }
    };
    let who = format!("otc run: {source}");
    let mut host = build_host(&spec, o, &who);
    println!(
        "otc run: {source}: {} tenants, {} shards, {} slots/tenant, {} events",
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
    if o.perf_session.is_some() {
        host.record_perf_session(&format!(
            "scenario tenants={} slots={} events={}",
            spec.tenants.len(),
            spec.host.slots,
            spec.events.len()
        ));
    }
    serve(o, &spec, &mut host, false);
    if let Some(path) = &o.perf_session {
        let session = host.take_perf_session().expect("recording was enabled");
        write_session(path, &session);
    }
    let report = host.report();
    print!("{}", render(&report));
    if o.trace > 0 {
        print_traces(&host, &report, o.trace);
    }
    let candidates = spec.victim_rates();
    for t in &report.tenants {
        let Some(kind) = host.adversary_kind(t.id) else {
            continue;
        };
        let observed = host.adversary_observations(t.id).len();
        let reading = match host.adversary_estimate(t.id, &candidates) {
            Some(est) => format!(
                "victim rate estimate {} (phase bin {}, score {:.3})",
                est.rate, est.phase, est.score
            ),
            None => "no estimate".into(),
        };
        println!(
            "adversary {} ({}): {observed} observed slots -> {reading}",
            t.name,
            kind.label()
        );
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
        serve(o, &spec, &mut host, false);
        let report = host.report();
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
    if let Some(path) = &o.perf_session {
        let Some(session) = &last_session else {
            // K=1 saturated, so no fleet served and nothing was sampled:
            // a missing file must not pass for a written one.
            eprintln!("otc: failed to write perf session {path}: K=1 saturated, no fleet served");
            std::process::exit(1);
        };
        write_session(path, session);
    }
}

/// A timed run's seeded outcome, field by field in record order. Every
/// run of one fleet size, across repetitions and executors, must reach
/// the same digest: a time bought by divergence measures nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest([(&'static str, u64); 6]);

impl Digest {
    fn of(report: &HostReport) -> Self {
        let spent_bits_milli = (report.fleet_spent_bits * 1000.0).round() as u64;
        Self([
            ("slots", report.tenants.iter().map(|t| t.slots_served).sum()),
            ("real", report.tenants.iter().map(|t| t.real_served).sum()),
            ("clock", report.horizon),
            ("queueing_cycles", report.shard_queueing_cycles),
            ("p99_service_cycles", report.p99_service_cycles),
            ("spent_bits_milli", spent_bits_milli),
        ])
    }

    fn slots(&self) -> u64 {
        self.0[0].1
    }

    /// The record's `digest` object; the spine record predates the two
    /// service-time fields and leaves them out.
    fn json(&self, service_times: bool) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .filter(|(k, _)| {
                service_times || !matches!(*k, "queueing_cycles" | "p99_service_cycles")
            })
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The one measurement loop of `otc bench`: serves each of `specs` (one
/// fleet of `k` tenants under different executors) `reps` times, each
/// run on a fresh host with only `serve` timed. Exits 1 when a run's
/// digest differs from the first run's; returns that digest and each
/// spec's fastest time in ms. Shared-host noise only ever adds time, so
/// the fastest of several runs converges on the code's real cost.
fn measure(
    o: &Opts,
    k: usize,
    specs: &[ScenarioSpec],
    reps: usize,
    serve: impl Fn(&ScenarioSpec, &mut MultiTenantHost),
) -> (Digest, Vec<f64>) {
    let who = format!("otc bench: K={k}");
    let mut first = None;
    let mut fastest = vec![f64::INFINITY; specs.len()];
    for (spec, best) in specs.iter().zip(&mut fastest) {
        for _ in 0..reps {
            let mut host = build_host(spec, o, &who);
            if let Err((_, e)) = spec.admit_roster(&mut host, instructions(o, spec)) {
                eprintln!("{who}: {e}");
                std::process::exit(1);
            }
            let start = Instant::now();
            serve(spec, &mut host);
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
            let digest = Digest::of(&host.report());
            let want = *first.get_or_insert(digest);
            if digest != want {
                eprintln!(
                    "{who}: threads={} diverged from the first run — the seeded sweep \
                     must be deterministic:\n  first {want:?}\n  this  {digest:?}",
                    spec.host.threads
                );
                std::process::exit(1);
            }
        }
    }
    (first.expect("a sweep point runs at least once"), fastest)
}

/// The body of a JSON object: one `"key": value` line per field at
/// `indent`, the values already formatted.
fn json_lines(indent: &str, fields: &[(&str, String)]) -> String {
    let lines: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{indent}\"{k}\": {v}"))
        .collect();
    lines.join(",\n")
}

/// A record's `sweep` array: one object per fleet size.
fn json_rows(rows: &[Vec<(&str, String)>]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| format!("    {{\n{}\n    }}", json_lines("      ", row)))
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// Prints a sweep's JSON record, one top-level field per line.
fn print_record(fields: &[(&str, String)]) {
    println!("{{\n{}\n}}", json_lines("  ", fields));
}

/// `value` to `decimals` places, or `null` when absent.
fn json_opt(value: Option<f64>, decimals: usize) -> String {
    value.map_or("null".into(), |v| format!("{v:.decimals$}"))
}

/// `otc bench --spine`: the single-threaded serving-spine sweep behind
/// the CI spine gate. A seeded open-loop fleet of static-rate tenants —
/// rates cycle a fixed spread of OLAT multiples so the config scales
/// with the geometry — serves exactly `SPINE_ROUNDS` scheduling
/// rounds on the serial spine (`ParallelKind::Serial`, calendar
/// scheduler) at each K in `SPINE_KS`, timed by [`measure`]. Unlike
/// `--wallclock` (which degrades to a no-regression check on a
/// single-core host, where a threading speedup is physically
/// unavailable), rounds/sec of the serial spine is a real single-core
/// figure: `--gate PCT` holds the measured rounds/sec at K=1024 at
/// least PCT% above `SPINE_BASELINE_RPS`, the pre-optimization
/// baseline recorded with this same harness. All simulated fields
/// (slots, clock, ledger bits) are bit-deterministic — the CI diff
/// filters only the timing-derived lines. Returns whether the gate
/// passed, with the measurement it judged.
fn bench_spine(o: &Opts) -> Option<(bool, String)> {
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
    const SPINE_BASELINE_RPS: f64 = 40.2;
    /// Repetitions per fleet size, each on a fresh host; the fastest is
    /// recorded, and the digest must be identical across reps — a free
    /// determinism check on every run.
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
    let mut roster = flag_spec(&opts, SPINE_KS[SPINE_KS.len() - 1]);
    for (i, t) in roster.tenants.iter_mut().enumerate() {
        t.scheme = format!(
            "static_{}",
            SPINE_RATE_OLATS[i % SPINE_RATE_OLATS.len()] * olat
        );
    }
    let mut gate_rps = 0.0;
    let rows: Vec<_> = SPINE_KS
        .iter()
        .map(|&k| {
            let mut spec = roster.clone();
            spec.tenants.truncate(k);
            let (digest, ms) = measure(&opts, k, &[spec], SPINE_REPS, |_, host| {
                for _ in 0..SPINE_ROUNDS {
                    host.step_round();
                }
            });
            let secs = (ms[0] / 1e3).max(1e-9);
            gate_rps = SPINE_ROUNDS as f64 / secs; // K=1024, the last row, is gated
            let slots_per_sec = digest.slots() as f64 / secs;
            vec![
                ("tenants", k.to_string()),
                ("digest", digest.json(false)),
                ("elapsed_ms", format!("{:.1}", ms[0])),
                ("rounds_per_sec", format!("{gate_rps:.1}")),
                ("slots_per_sec", format!("{slots_per_sec:.0}")),
            ]
        })
        .collect();
    let improvement = (gate_rps / SPINE_BASELINE_RPS - 1.0) * 100.0;
    let passed = o.gate.is_none_or(|g| improvement >= g);
    let config = format!(
        "{{\"seed\": {}, \"shards\": {SPINE_SHARDS}, \"oram\": \"{}\", \"olat\": {olat}, \
         \"quantum\": {}, \"rounds\": {SPINE_ROUNDS}, \"reps\": {SPINE_REPS}, \
         \"rate_olats\": [64, 96, 128, 192], \"open_loop\": true, \"threads\": 0}}",
        o.host.seed,
        o.host.oram.label(),
        opts.host.quantum
    );
    print_record(&[
        ("bench", "\"spine_sweep\"".into()),
        ("config", config),
        ("sweep", json_rows(&rows)),
        (
            "baseline_rounds_per_sec",
            format!("{SPINE_BASELINE_RPS:.1}"),
        ),
        ("improvement_pct", format!("{improvement:.1}")),
        ("gate_pct", json_opt(o.gate, 1)),
        ("gate_passed", passed.to_string()),
    ]);
    o.gate.map(|g| {
        let judged = format!(
            "{gate_rps:.1} rounds/sec at K=1024 is {improvement:.1}% over the \
             {SPINE_BASELINE_RPS:.1} baseline (floor {g:.0}%)"
        );
        (passed, judged)
    })
}

/// `otc bench --wallclock`: the seeded K-sweep behind the CI wall-clock
/// gate. Each fleet size is served once under `ParallelKind::Serial`
/// and once under `ParallelKind::Threads(--threads, default 4)` with
/// identical seeds, timed by [`measure`], which cross-checks the
/// [`Digest`] field by field; `--gate X` holds a speedup floor at the
/// largest K. The timing fields are nondeterministic — the CI diff
/// filters the `elapsed_ms`/`speedup`/`host_parallelism`/
/// `applied_gate`/`gate_passed` lines and pins the rest.
///
/// The gate is parallelism-aware: a wall-clock speedup requires the
/// host to actually run threads concurrently, so on a single-core
/// machine (`available_parallelism() == 1`) the `--gate` floor degrades
/// to `SINGLE_CORE_FLOOR` — a no-regression check that the threaded
/// path's synchronization overhead stays bounded. The JSON records
/// which floor applied, so a single-core run can never masquerade as a
/// multi-core speedup measurement. Returns whether the gate passed,
/// with the measurement it judged.
fn bench_wallclock(o: &Opts) -> Option<(bool, String)> {
    /// Floor applied instead of `--gate` when only one CPU is visible:
    /// threaded must finish within 2x of serial (speedup >= 0.5).
    const SINGLE_CORE_FLOOR: f64 = 0.5;
    let threads = o.threads.filter(|&n| n > 0).unwrap_or(4);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ks = vec![(o.tenants / 4).max(1), o.tenants];
    ks.dedup();
    let mut gate_speedup = 0.0;
    let rows: Vec<_> = ks
        .iter()
        .map(|&k| {
            let mut serial = flag_spec(o, k);
            serial.host.threads = 0;
            let mut threaded = serial.clone();
            threaded.host.threads = threads;
            let (digest, ms) = measure(o, k, &[serial, threaded], 1, |spec, host| {
                serve(o, spec, host, true)
            });
            // The last row, the largest K, is gated.
            gate_speedup = if ms[1] > 0.0 { ms[0] / ms[1] } else { 0.0 };
            vec![
                ("tenants", k.to_string()),
                ("digest", digest.json(true)),
                ("elapsed_ms_serial", format!("{:.1}", ms[0])),
                ("elapsed_ms_threads", format!("{:.1}", ms[1])),
                ("speedup", format!("{gate_speedup:.2}")),
            ]
        })
        .collect();
    let floor_cap = if host_parallelism >= 2 {
        f64::INFINITY
    } else {
        SINGLE_CORE_FLOOR
    };
    let applied_gate = o.gate.map(|g| g.min(floor_cap));
    let passed = applied_gate.is_none_or(|g| gate_speedup >= g);
    let config = format!(
        "{{\"seed\": {}, \"shards\": {}, \"oram\": \"{}\", \"scheme\": \"{}\", \
         \"slots_per_tenant\": {}, \"threads\": {threads}, \"closed_loop\": {}}}",
        o.host.seed,
        o.host.shards,
        o.host.oram.label(),
        o.scheme,
        o.host.slots,
        o.closed_loop
    );
    print_record(&[
        ("bench", "\"wallclock_sweep\"".into()),
        ("config", config),
        ("sweep", json_rows(&rows)),
        ("host_parallelism", host_parallelism.to_string()),
        ("gate_speedup", json_opt(o.gate, 2)),
        ("applied_gate", json_opt(applied_gate, 2)),
        ("gate_passed", passed.to_string()),
    ]);
    o.gate.zip(applied_gate).map(|(requested, g)| {
        let judged = format!(
            "Threads({threads}) speedup {gate_speedup:.2}x at K={} against a {g:.2}x floor \
             (--gate {requested:.2}, {host_parallelism} CPU(s) visible)",
            ks[ks.len() - 1]
        );
        (passed, judged)
    })
}

/// `otc bench`: one of the two wall-clock sweeps, `--spine` or
/// `--wallclock`. Each prints its JSON record on stdout; under `--gate`
/// the verdict goes to stderr, and a run below the floor exits 1. The
/// seeded pipeline, admission and fairness gates count simulated
/// cycles, so tier-1 tests hold them against their records
/// (`pipeline_equivalence`, `capacity_replay`, `fairness_replay`).
fn cmd_bench(o: &Opts) {
    require_tenants(o);
    let verdict = match (o.spine, o.wallclock) {
        (true, false) => bench_spine(o),
        (false, true) => bench_wallclock(o),
        _ => {
            eprintln!("otc bench needs exactly one of --spine and --wallclock");
            std::process::exit(2);
        }
    };
    if let Some((passed, judged)) = verdict {
        let word = if passed { "passed" } else { "FAILED" };
        eprintln!("otc bench: gate {word}: {judged}");
        if !passed {
            std::process::exit(1);
        }
    }
}

/// `otc report`: render a perf session recorded with `--perf-session`.
/// The default view is the timeline report (stage occupancy, eviction
/// queue depth, calendar entries, shard utilization, per-tenant SLO
/// attainment); `--jsonl` emits the line-delimited export instead. Both
/// decode through [`PerfSession::from_bytes`], so a malformed file,
/// including one whose round frames are out of sequence, exits 1 with
/// one line on stderr and prints nothing.
fn cmd_report(o: &Opts) {
    let Some(path) = &o.session else {
        eprintln!("otc report needs --session FILE (record one with --perf-session)");
        std::process::exit(2);
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("otc report: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let session = PerfSession::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("otc report: {path}: {e}");
        std::process::exit(1);
    });
    if o.jsonl {
        print!("{}", session.export_jsonl());
        return;
    }
    let slo_cycles = SLO_OLATS.saturating_mul(session.meta.olat);
    print!(
        "{}",
        otc_perf::report::render_session(&session, o.width, slo_cycles)
    );
}

/// `otc leakage`: the budget `--scheme` implies, read from the same
/// policy-to-parameters mapping admission authorizes, and the verdict
/// admission would reach: [`SecureProcessor::authorize`] on a processor
/// built at `--limit`, as the host builds its own.
fn cmd_leakage(o: &Opts) {
    let policy = parse_scheme(&o.scheme).expect("--scheme is checked when the flags parse");
    let params = policy.leakage_params();
    let processor =
        SecureProcessor::manufacture(&mut SplitMix64::new(o.host.seed), o.host.limit_bits);
    let model = LeakageModel::new(params.rate_count, params.schedule);
    println!("otc leakage: scheme {} × {} tenants", o.scheme, o.tenants);
    println!(
        "  per-tenant ORAM-timing budget : {:>8.1} bits (|E|={} epochs × lg|R|={:.1})",
        model.oram_timing_bits(),
        params.schedule.total_epochs(),
        (params.rate_count as f64).log2()
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
        if processor.authorize(&params).is_ok() {
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
    let command: fn(&Opts) = match cmd.as_str() {
        "run" => cmd_run,
        "tenants" => cmd_tenants,
        "bench" => cmd_bench,
        "report" => cmd_report,
        "leakage" => cmd_leakage,
        "--help" | "-h" => usage(),
        other => {
            eprintln!("otc: unknown subcommand {other:?}");
            usage()
        }
    };
    let mut opts = parse_opts(rest);
    // Only `otc run` prints traces; recording them elsewhere would just
    // grow per-tenant SlotRecord vectors nobody reads.
    if opts.trace > 0 && cmd != "run" {
        eprintln!("--trace only applies to `otc run`; ignoring");
        opts.trace = 0;
    }
    // Sessions are sampled round by round while a fleet serves; the
    // non-simulating subcommands have no rounds to sample, and `otc
    // bench` times its fleets, so it records none.
    if opts.perf_session.is_some() && matches!(cmd.as_str(), "leakage" | "report" | "bench") {
        eprintln!("--perf-session does not apply to `otc {cmd}`; ignoring");
        opts.perf_session = None;
    }
    if opts.scenario.is_some() && cmd != "run" {
        eprintln!("--scenario only applies to `otc run`; ignoring");
        opts.scenario = None;
    }
    if opts.churn_script.is_some()
        && (opts.scenario.is_some() || !matches!(cmd.as_str(), "run" | "tenants"))
    {
        eprintln!(
            "--churn-script only applies to `otc run` without --scenario (whose @-lines are \
             the events) and `otc tenants`; ignoring"
        );
        opts.churn_script = None;
    }
    command(&opts);
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
