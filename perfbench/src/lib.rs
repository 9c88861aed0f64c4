//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one of the paper's applications (see [`workload::WORKLOADS`])
//! through the public `Machine` / `MgsApp::execute` API.
//!
//! * `--trace 0` is the end-to-end run ([`end_to_end`]): untraced,
//!   verified executions for `--seconds`, reduced to host time per
//!   execution, simulated cycles and accesses per host second, set-up
//!   time and peak memory.
//! * `--trace 1` is the attribution run ([`layers::run`]): observed
//!   executions for per-layer counts, probes that time each crate's
//!   public entry points, counts × probe cost per layer, and a span file
//!   of every benchmark call.
//!
//! Both print a table and, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

pub mod layers;
pub mod spans;
pub mod stats;
pub mod workload;

use mgs_core::{Machine, Metric, MetricsReport};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workload::{execute, process_cpu_s, Execution, Workload};

/// Seed kept out of every tuning and sizing run, for later claims.
pub const HELD_OUT_SEED: u64 = 1009;

/// Set-up samples per end-to-end run (the first one is cold).
pub const SETUP_SAMPLES: usize = 5;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct MetricValue {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was measured (sample counts); printed, not in the JSON.
    pub note: String,
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Executions and probe machine runs attempted.
    pub attempted: u64,
    /// Of those, how many panicked (failed verification or poisoned).
    pub failed: u64,
    /// Reported metrics, in print order.
    pub metrics: Vec<MetricValue>,
}

impl Outcome {
    /// Counts one attempted execution or probe machine run; a failed
    /// one is reported on standard error and yields no sample.
    pub fn check<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(e) => Some(e),
            Err(msg) => {
                self.failed += 1;
                eprintln!("perfbench: execution failed: {msg}");
                None
            }
        }
    }

    /// Records a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(MetricValue {
            name,
            value,
            unit,
            note,
        });
    }

    /// Every attempted execution verified, and every value finite.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            writeln!(
                s,
                "  {:<28} {:>18.6} {:<10} {}",
                m.name, m.value, m.unit, m.note
            )
            .unwrap();
        }
        s
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every metric as `{"value", "unit"}`. Non-finite values are
    /// written as 0 (and make the run incorrect).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .unwrap();
        }
        s.push_str("}}");
        s
    }
}

/// Shared accesses (loads + stores) counted by the metrics registry.
pub fn accesses(metrics: &MetricsReport) -> u64 {
    metrics.get(Metric::Loads) + metrics.get(Metric::Stores)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end run: [`SETUP_SAMPLES`] cold starts (`Machine::new`
/// plus a first execution), then untraced executions on fresh machines
/// for `seconds`, timing `MgsApp::execute` alone. The access count comes
/// from one extra observed execution unless every report already
/// carries metrics (the adaptive strategy forces observation).
pub fn end_to_end(wl: &Workload, seed: u64, seconds: f64) -> Outcome {
    let app = wl.app(seed);
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let cpu0 = process_cpu_s();
        let machine = Machine::new(wl.config(seed, false));
        if out.check(execute(&machine, &*app)).is_some() {
            setup.push(process_cpu_s() - cpu0);
        }
    }
    let mut runs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let machine = Machine::new(wl.config(seed, false));
        runs.extend(out.check(execute(&machine, &*app)));
    }
    let observed = if runs.iter().all(|e| e.report.metrics.is_some()) {
        None
    } else {
        let machine = Machine::new(wl.config(seed, true));
        out.check(execute(&machine, &*app))
            .and_then(|e| e.report.metrics.as_ref().map(accesses))
    };
    let access_count = |e: &Execution| {
        e.report
            .metrics
            .as_ref()
            .map(accesses)
            .or(observed)
            .unwrap_or(0) as f64
    };

    let n = runs.len();
    let per_run = |f: &dyn Fn(&Execution) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let host = per_run(&|e| e.host_s);
    let wall = per_run(&|e| e.wall_s);
    let mcycles = per_run(&|e| e.report.duration.raw() as f64 / 1e6);
    let (tail, pct) = stats::tail(&host);
    let (wall_tail, _) = stats::tail(&wall);
    out.push(
        "setup_s",
        stats::median(&setup),
        "s",
        format!(
            "median of {} cold starts (Machine::new + execute)",
            setup.len()
        ),
    );
    out.push(
        "host_s_p50",
        stats::median(&host),
        "s",
        format!(
            "median of {n} executions; wall {:.6} s",
            stats::median(&wall)
        ),
    );
    out.push(
        "host_s_tail",
        tail,
        "s",
        format!("p{pct:.1} of {n} executions; wall {wall_tail:.6} s"),
    );
    out.push(
        "sim_mcycles_per_host_s",
        stats::median(&per_run(&|e| {
            e.report.duration.raw() as f64 / 1e6 / e.host_s
        })),
        "Mcycles/s",
        format!("median of {n} executions"),
    );
    out.push(
        "accesses_per_host_s",
        stats::median(&per_run(&|e| access_count(e) / e.host_s)),
        "1/s",
        format!(
            "median of {n}; {} accesses an execution",
            runs.first().map_or(0.0, access_count)
        ),
    );
    out.push(
        "sim_mcycles",
        stats::median(&mcycles),
        "Mcycles",
        format!(
            "median of {n}; (max-min)/median {:.6}",
            stats::relative_range(&mcycles)
        ),
    );
    out.push(
        "peak_rss_mib",
        peak_rss_mib(),
        "MiB",
        "VmHWM of the run".to_string(),
    );
    out.push(
        "verified_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        "ratio",
        format!(
            "{} of {} executions verified",
            out.attempted - out.failed,
            out.attempted
        ),
    );
    out
}
