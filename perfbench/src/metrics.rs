//! The metric registry (names and units, in the order they are printed),
//! the value map a workload fills in, and the correctness-check ledger.
//! `BENCHMARK.json` at the repo root lists the same names and units; a
//! unit test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("slots_per_s", "slots/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MiB"),
    ("real_per_mcycle", "accesses/Mcycle"),
    ("real_fraction", "ratio"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload never calls reads 0 in its count and share metrics;
/// every metric in a time unit is measured on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Spans around the calls the benchmark makes.
    ("setup_ms.p50", "ms"),
    ("step_ms.p50", "ms"),
    ("step_ms.tail", "ms"),
    ("step_ms.tail_pct", "pct"),
    ("step_ms.n", "count"),
    ("step_ms.first16_ratio", "ratio"),
    ("self.host.new", "share"),
    ("self.host.admit", "share"),
    ("self.host.step_round", "share"),
    ("self.host.churn", "share"),
    ("self.perf.finish", "share"),
    ("self.perf.open", "share"),
    ("self.sim.build_backend", "share"),
    ("self.sim.warm", "share"),
    ("self.sim.run_base_dram", "share"),
    ("self.sim.run_oram", "share"),
    ("self.power.model", "share"),
    ("self.bench", "share"),
    // Probes: standalone calls replayed at the workload's shape.
    ("oram.dummy_ns", "ns"),
    ("oram.read_ns", "ns"),
    ("oram.write_ns", "ns"),
    ("shard.access_ns", "ns"),
    ("calendar.op_ns", "ns"),
    ("stream.serve_ns", "ns"),
    ("traffic.open_ns", "ns"),
    ("traffic.closed_ns", "ns"),
    ("ledger.record_ns", "ns"),
    ("timeq.op_ns", "ns"),
    // Exact counts.
    ("host.rounds", "count"),
    ("host.slots", "count"),
    ("host.real", "count"),
    ("host.slots_per_round.p50", "count"),
    ("host.slots_per_round.max", "count"),
    ("host.admissions_denied", "count"),
    ("host.tenants_admitted", "count"),
    ("shard.accesses.max_share", "ratio"),
    ("shard.util.max", "ratio"),
    ("shard.queueing_cycles", "cycles"),
    ("shard.mean_service_cycles", "cycles"),
    ("shard.p50_service_cycles", "cycles"),
    ("shard.p99_service_cycles", "cycles"),
    ("shard.queue_depth.max", "count"),
    ("shard.background_drains", "count"),
    ("oram.stash.max", "blocks"),
    ("calendar.entries.max", "count"),
    ("calendar.max_bucket_len.max", "count"),
    ("ledger.spent_bits", "bits"),
    ("ledger.budget_bits", "bits"),
    ("core.transitions", "count"),
    ("traffic.instr_retired", "count"),
    ("traffic.feedback_cycles", "cycles"),
    ("sim.oram_accesses", "count"),
    ("perf.session_kb", "KiB"),
    ("paper.dyn_vs_oram_perf_pct", "pct"),
    ("paper.dyn_vs_oram_power_pct", "pct"),
    ("paper.static500_power_pct", "pct"),
    ("paper.static1300_perf_pct", "pct"),
    ("paper.static300_power_pct", "pct"),
    ("paper.dummy_pct", "pct"),
    ("paper.leak_bits", "bits"),
    ("paper.err_pp", "pp"),
    // Attribution of the step spans to layers, from the probes.
    ("attrib.shard", "share"),
    ("attrib.calendar", "share"),
    ("attrib.stream", "share"),
    ("attrib.traffic", "share"),
    ("attrib.ledger", "share"),
    ("attrib.timeq", "share"),
    ("attrib.unexplained", "share"),
    ("trace.overhead_pct", "pct"),
];

/// Metric values by name. Per-layer metrics a workload never touches
/// are pre-filled with 0 by [`Values::per_layer_defaults`].
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Every per-layer count and share at 0, ready to be overwritten by
    /// what the workload measures. Time-unit metrics are left unset so a
    /// workload that forgets one fails loudly instead of printing 0.
    pub fn per_layer_defaults() -> Self {
        let mut v = Self::default();
        for (name, unit) in PER_LAYER {
            if !matches!(*unit, "ms" | "ns" | "s") {
                v.set(name, 0.0);
            }
        }
        v
    }

    /// Sets `name` (must be a registered metric).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, …}` over `registry`,
    /// in registry order. Errors name any metric that is missing or not
    /// a finite number.
    pub fn to_json(&self, registry: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(registry.len());
        for (name, unit) in registry {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Formats a finite float with every digit Rust's shortest round-trip
/// representation carries, always as a JSON number.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Operations and correctness checks attempted, and those that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those whose outcome was wrong.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation or check; records `what()` if `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `(name, unit)` pairs for one section out of BENCHMARK.json
    /// without a JSON dependency: the file is small and flat.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &obj[at + f.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = rest[open..].find('"').expect("value closes") + open;
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let want = |reg: &[(&str, &str)]| -> Vec<(String, String)> {
            reg.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(&json, "end_to_end"), want(END_TO_END));
        assert_eq!(section(&json, "per_layer"), want(PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn json_rendering_keeps_digits_and_rejects_gaps() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1234567891), "0.1234567891");
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        assert!(v
            .to_json(&END_TO_END[..1])
            .unwrap()
            .contains("\"value\": 0.5"));
        assert!(v.to_json(END_TO_END).is_err());
        v.set("slots_per_s", f64::NAN);
        assert!(v.to_json(&END_TO_END[..2]).is_err());
    }

    #[test]
    fn defaults_leave_time_metrics_unset() {
        let v = Values::per_layer_defaults();
        assert_eq!(v.get("host.rounds"), Some(0.0));
        assert_eq!(v.get("oram.read_ns"), None);
        assert_eq!(v.get("step_ms.p50"), None);
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || "fine".into());
        c.check(false, || "broken".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failures, vec!["broken".to_string()]);
    }
}
