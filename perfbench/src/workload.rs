//! The benchmark's workloads: paper applications at fixed machine
//! shapes, run through the public `Machine` / `MgsApp::execute` API on
//! the virtual engine.

use mgs_apps::jacobi::Jacobi;
use mgs_apps::tsp::Tsp;
use mgs_apps::water::Water;
use mgs_apps::MgsApp;
use mgs_core::{DssmpConfig, Machine, ProtocolKind, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Which application a workload runs, at which problem size.
#[derive(Debug, Clone, Copy)]
pub enum AppSpec {
    /// Jacobi on an `n × n` grid for `iters` iterations.
    Jacobi { n: usize, iters: usize },
    /// TSP over `n` cities. The distance matrix is the paper's
    /// (`Tsp::paper().seed`): branch-and-bound work differs by more than
    /// 20x between random matrices, so a per-run matrix would turn every
    /// TSP figure into a property of the matrix (see NOTES.md).
    Tsp { n: usize },
    /// Water with `n` molecules for the paper's two iterations; the
    /// molecule placement comes from the run seed.
    Water { n: usize },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Total processors `P`.
    pub procs: usize,
    /// Cluster size `C`.
    pub cluster: usize,
    /// Virtual-engine worker budget `W`; `None` is the engine default
    /// (host parallelism, at least 2).
    pub workers: Option<usize>,
    /// Coherence strategy.
    pub protocol: ProtocolKind,
    /// The application and its size.
    pub app: AppSpec,
}

/// Every workload, in the order `BENCHMARK.json` lists them (NOTES.md
/// says why each is in the benchmark).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "jacobi-tight",
        procs: 32,
        cluster: 32,
        workers: Some(1),
        protocol: ProtocolKind::Eager,
        app: AppSpec::Jacobi { n: 128, iters: 10 },
    },
    Workload {
        name: "tsp-eager",
        procs: 32,
        cluster: 4,
        workers: Some(1),
        protocol: ProtocolKind::Eager,
        app: AppSpec::Tsp { n: 10 },
    },
    Workload {
        name: "water-adaptive",
        procs: 32,
        cluster: 8,
        workers: Some(1),
        protocol: ProtocolKind::Adaptive,
        app: AppSpec::Water { n: 80 },
    },
    Workload {
        name: "jacobi-p512",
        procs: 512,
        cluster: 32,
        workers: None,
        protocol: ProtocolKind::Eager,
        app: AppSpec::Jacobi { n: 512, iters: 1 },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The machine configuration: the paper's 1 KB pages and 1000-cycle
    /// LAN, the virtual engine at its recommended window, and the run
    /// seed for per-processor RNGs.
    pub fn config(&self, seed: u64, observe: bool) -> DssmpConfig {
        let mut cfg = DssmpConfig::new(self.procs, self.cluster)
            .with_virtual_engine(self.workers)
            .with_protocol(self.protocol);
        cfg.seed = seed;
        cfg.observe = observe;
        cfg
    }

    /// The worker budget this workload's machines run with.
    pub fn effective_workers(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1)
                .max(2)
        })
    }

    /// The application instance for a run seed.
    pub fn app(&self, seed: u64) -> Box<dyn MgsApp> {
        match self.app {
            AppSpec::Jacobi { n, iters } => Box::new(Jacobi {
                n,
                iters,
                ..Jacobi::paper()
            }),
            AppSpec::Tsp { n } => Box::new(Tsp { n, ..Tsp::paper() }),
            AppSpec::Water { n } => Box::new(Water {
                n,
                seed,
                ..Water::paper()
            }),
        }
    }
}

/// One verified execution.
#[derive(Debug)]
pub struct Execution {
    /// The application's run report.
    pub report: RunReport,
    /// Host seconds spent in `MgsApp::execute`: CPU seconds of every
    /// thread of the process (see [`process_cpu_s`]).
    pub host_s: f64,
    /// Wall-clock seconds spent in `MgsApp::execute`.
    pub wall_s: f64,
    /// Scheduler suspensions during the execution.
    pub suspensions: u64,
}

/// Runs `f`, returning its panic message as an error: a failed result
/// check in an application, or a virtual-engine poison after a
/// simulated processor panicked.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// CPU time consumed by every thread of this process so far, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`). The benchmark's host seconds
/// are CPU seconds: on a shared virtual host, vCPU steal and wake-up
/// latency move wall-clock medians of handoff-heavy runs far more than
/// they move CPU time (see NOTES.md).
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Runs `app` on `machine` once, timing `MgsApp::execute`.
pub fn execute(machine: &Arc<Machine>, app: &dyn MgsApp) -> Result<Execution, String> {
    let start = Instant::now();
    let cpu0 = process_cpu_s();
    let report = catch(|| app.execute(machine))?;
    let host_s = process_cpu_s() - cpu0;
    let wall_s = start.elapsed().as_secs_f64();
    let suspensions = machine.governor_waits().map_or(0, |w| w.total_gates());
    Ok(Execution {
        report,
        host_s,
        wall_s,
        suspensions,
    })
}
