//! The attribution run (`--trace 1`): per-layer counts from observed
//! executions, probes that time each layer's public entry points, and
//! host time attributed to layers as count × probe cost.
//!
//! Everything is measured from outside the simulator. Each benchmark
//! call gets a span (see [`SpanLog`]); each probe's timed calls are
//! children of the probe's span, so the probe's own set-up shows as the
//! probe span's self time.

use crate::spans::SpanLog;
use crate::workload::{catch, execute, process_cpu_s, Workload};
use crate::{accesses, stats, Outcome};
use mgs_cache::{CacheConfig, ProcCache, SsmpCacheSystem};
use mgs_core::{
    AccessKind, CostCategory, CostModel, DssmpConfig, Machine, Metric, MetricsReport, RunReport,
};
use mgs_proto::SpanDiff;
use mgs_sim::XorShift64;
use mgs_vm::{FrameAllocator, PageGeometry, Tlb, TlbEntry};
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent on traced/untraced execution pairs; the
/// rest is split evenly over the probes.
const EXECUTION_SHARE: f64 = 0.5;
/// Execution pairs run even when the budget is already spent.
const MIN_PAIRS: usize = 2;
/// Probes sharing the remaining budget.
const PROBES: u32 = 7;
/// Timed batches each batched probe takes at least.
const MIN_BATCHES: usize = 5;
/// Calls a batched probe times per sample (about a millisecond).
const BATCH: u64 = 16_384;
/// Remote pages the write-fault probe stores to per probe machine.
const FAULT_PAGES: u64 = 2048;
/// Most probe machines the fault probe builds (each call is a span).
const FAULT_MACHINES: usize = 4;
/// Pages dirtied between the fault probe's releases.
const PAGES_PER_RELEASE: u64 = 16;
/// Lock acquire+release pairs per timed batch.
const LOCK_BATCH: u64 = 4096;
/// Lines in the cache probe's working set.
const CACHE_LINES: u64 = 8192;

/// A probe's result: median host nanoseconds per call.
#[derive(Debug, Clone, Copy)]
struct Probe {
    ns: f64,
    samples: usize,
}

impl Probe {
    fn from_samples(ns: &[f64]) -> Probe {
        Probe {
            ns: stats::median(ns),
            samples: ns.len(),
        }
    }
}

/// Counts from the first observed execution.
struct Counts {
    report: RunReport,
    metrics: MetricsReport,
    suspensions: u64,
}

impl Counts {
    fn get(&self, m: Metric) -> f64 {
        self.metrics.get(m) as f64
    }

    /// Hardware cache accesses, every latency class.
    fn cache_accesses(&self) -> f64 {
        [
            Metric::HwHit,
            Metric::HwLocalMiss,
            Metric::HwRemoteClean,
            Metric::HwTwoParty,
            Metric::HwThreeParty,
            Metric::HwSwDirectory,
        ]
        .into_iter()
        .map(|m| self.get(m))
        .sum()
    }

    fn ratio(num: f64, den: f64) -> f64 {
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    fn write_share(&self) -> f64 {
        Counts::ratio(self.get(Metric::Stores), accesses(&self.metrics) as f64)
    }
}

/// Runs the attribution run for `wl` and writes the span file to
/// `trace_path`.
pub fn run(wl: &Workload, seed: u64, seconds: f64, trace_path: &Path) -> Outcome {
    let mut log = SpanLog::new();
    let mut out = Outcome::default();
    let root = log.begin(format!("perfbench.{}", wl.name));
    let app = wl.app(seed);

    // Untraced/traced execution pairs: counts, observation overhead,
    // and the spread of simulated durations.
    let mut machine_new = Vec::new();
    let mut host = [Vec::new(), Vec::new()];
    let mut durations = Vec::new();
    let mut counts: Option<Counts> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * EXECUTION_SHARE);
    let mut pairs = 0;
    while pairs < MIN_PAIRS || Instant::now() < deadline {
        for observe in [false, true] {
            let t = Instant::now();
            let machine = log.span("core.machine_new", |_| {
                Machine::new(wl.config(seed, observe))
            });
            machine_new.push(t.elapsed().as_secs_f64());
            let id = log.begin("core.execute");
            log.arg(id, "observe", observe as u64);
            let result = execute(&machine, &*app);
            log.end(id);
            let Some(e) = out.check(result) else { continue };
            host[observe as usize].push(e.host_s);
            durations.push(e.report.duration.raw() as f64);
            if observe && counts.is_none() {
                counts = Some(Counts {
                    metrics: e.report.metrics.clone().expect("observed run has metrics"),
                    suspensions: e.suspensions,
                    report: e.report,
                });
            }
        }
        pairs += 1;
    }
    let Some(c) = counts else {
        return out;
    };
    let untraced_p50 = stats::median(&host[0]);

    let budget = Duration::from_secs_f64(seconds * (1.0 - EXECUTION_SHARE) / f64::from(PROBES));
    let tlb_pages = (c.get(Metric::TlbFills) as u64 / wl.procs as u64).clamp(1, 4096);
    let tlb = log.span("probe.vm.tlb_lookup", |log| {
        probe_tlb(log, budget, tlb_pages, c.write_share(), seed)
    });
    let cache = log.span("probe.cache.access", |log| {
        probe_cache(log, budget, wl.cluster, c.write_share(), seed)
    });
    let dirty = Counts::ratio(c.get(Metric::DiffWords), c.get(Metric::DiffsSent));
    let diff = log.span("probe.proto.diff", |log| {
        probe_diff(log, budget, dirty.round() as usize, seed)
    });
    let (fault, release) = log.span("probe.proto.fault_release", |log| {
        probe_fault_release(log, &mut out, budget, wl, seed)
    });
    let lock = log.span("probe.sync.acquire_release", |log| {
        probe_acquire_release(log, &mut out, budget, wl, seed)
    });
    let workers = wl.effective_workers();
    let p32 = log.span("probe.sched.handoff_p32", |log| {
        probe_handoff(log, &mut out, budget, 32, 400, workers)
    });
    let p512 = log.span("probe.sched.handoff_p512", |log| {
        probe_handoff(log, &mut out, budget, 512, 40, workers)
    });
    log.end(root);

    let r = &c.report;
    let frac = |cat| r.fraction(cat);
    let n_exec = host[1].len();
    let counted = format!("first of {n_exec} observed executions");
    let probed = |p: Probe, what: &str| format!("median of {} {what}", p.samples);
    out.push(
        "core.machine_new_s",
        stats::median(&machine_new),
        "s",
        format!("median of {} Machine::new calls", machine_new.len()),
    );
    out.push(
        "core.user_frac",
        frac(CostCategory::User),
        "frac",
        counted.clone(),
    );
    out.push(
        "core.lock_frac",
        frac(CostCategory::Lock),
        "frac",
        counted.clone(),
    );
    out.push(
        "core.barrier_frac",
        frac(CostCategory::Barrier),
        "frac",
        counted.clone(),
    );
    out.push(
        "core.mgs_frac",
        frac(CostCategory::Mgs),
        "frac",
        counted.clone(),
    );
    out.push(
        "vm.tlb_fills",
        c.get(Metric::TlbFills),
        "count",
        counted.clone(),
    );
    out.push(
        "vm.tlb_lookup_ns",
        tlb.ns,
        "ns",
        probed(
            tlb,
            &format!("batches of {BATCH} Tlb::lookup, {tlb_pages} mapped pages"),
        ),
    );
    let cache_accesses = c.cache_accesses();
    out.push("cache.accesses", cache_accesses, "count", counted.clone());
    out.push(
        "cache.hit_ratio",
        Counts::ratio(c.get(Metric::HwHit), cache_accesses),
        "frac",
        counted.clone(),
    );
    out.push(
        "cache.access_ns",
        cache.ns,
        "ns",
        probed(
            cache,
            &format!("batches of {BATCH} SsmpCacheSystem::access"),
        ),
    );
    for (name, m) in [
        ("proto.read_misses", Metric::ReadMisses),
        ("proto.write_misses", Metric::WriteMisses),
        ("proto.upgrades", Metric::Upgrades),
        ("proto.twins", Metric::TwinCreates),
        ("proto.diffs", Metric::DiffsSent),
    ] {
        out.push(name, c.get(m), "count", counted.clone());
    }
    out.push("proto.diff_words_per_diff", dirty, "words", counted.clone());
    for (name, m) in [
        ("proto.invalidations", Metric::Invalidations),
        ("proto.update_pushes", Metric::UpdatePushes),
        ("proto.policy_switches", Metric::PolicySwitches),
    ] {
        out.push(name, c.get(m), "count", counted.clone());
    }
    out.push(
        "proto.write_fault_ns",
        fault.ns,
        "ns",
        probed(fault, "Env::store calls to a remote-homed page"),
    );
    out.push(
        "proto.release_ns_per_page",
        release.ns,
        "ns",
        probed(
            release,
            &format!("Env::flush calls of {PAGES_PER_RELEASE} dirty pages"),
        ),
    );
    out.push(
        "proto.diff_ns_per_page",
        diff.ns,
        "ns",
        probed(
            diff,
            &format!(
                "batches of {BATCH} SpanDiff build+apply, {} dirty words",
                dirty.round()
            ),
        ),
    );
    out.push(
        "net.lan_messages",
        r.lan_messages as f64,
        "count",
        counted.clone(),
    );
    out.push(
        "net.lan_kib",
        r.lan_bytes as f64 / 1024.0,
        "KiB",
        counted.clone(),
    );
    out.push(
        "sync.lock_acquires",
        r.lock_acquires as f64,
        "count",
        counted.clone(),
    );
    out.push(
        "sync.lock_hit_ratio",
        r.lock_hit_ratio(),
        "frac",
        counted.clone(),
    );
    out.push(
        "sync.barrier_arrivals",
        c.get(Metric::BarrierArrivals),
        "count",
        counted.clone(),
    );
    out.push(
        "sync.acquire_release_ns",
        lock.ns,
        "ns",
        probed(
            lock,
            &format!("batches of {LOCK_BATCH} Env::acquire+release, local token"),
        ),
    );
    out.push(
        "sched.suspensions",
        c.suspensions as f64,
        "count",
        counted.clone(),
    );
    out.push(
        "sched.handoff_ns_p32",
        p32.ns,
        "ns",
        probed(
            p32,
            &format!("P=32 W={workers} machines, Env::compute(window) only"),
        ),
    );
    out.push(
        "sched.handoff_ns_p512",
        p512.ns,
        "ns",
        probed(
            p512,
            &format!("P=512 W={workers} machines, Env::compute(window) only"),
        ),
    );
    out.push(
        "sim.duration_spread",
        stats::relative_range(&durations),
        "frac",
        format!("(max-min)/median over {} executions", durations.len()),
    );
    out.push(
        "obs.overhead_frac",
        stats::median(&host[1]) / untraced_p50 - 1.0,
        "frac",
        format!("median observed / median unobserved host s - 1, {n_exec} of each"),
    );

    let handoff = if wl.procs <= 32 { p32 } else { p512 };
    let faults = c.get(Metric::ReadMisses) + c.get(Metric::WriteMisses) + c.get(Metric::Upgrades);
    let attr = [
        ("attr.sched_s", c.suspensions as f64 * handoff.ns),
        (
            "attr.proto_s",
            faults * fault.ns + c.get(Metric::PagesReleased) * release.ns,
        ),
        (
            "attr.mem_s",
            cache_accesses * cache.ns + c.get(Metric::TlbFills) * tlb.ns,
        ),
        ("attr.sync_s", r.lock_acquires as f64 * lock.ns),
    ];
    let mut attributed = 0.0;
    for (name, ns) in attr {
        attributed += ns * 1e-9;
        out.push(name, ns * 1e-9, "s", "count x probe cost".to_string());
    }
    out.push(
        "attr.unattributed_frac",
        1.0 - attributed / untraced_p50,
        "frac",
        format!("1 - attributed / unobserved host_s p50 ({untraced_p50:.4} s)"),
    );

    println!("spans (count, total s, self s):");
    for (name, (n, total, own)) in log.by_name() {
        println!("  {name:<34} {n:>7} {total:>10.4} {own:>10.4}");
    }
    let title = format!("perfbench {} seed {seed}", wl.name);
    let written = trace_path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(trace_path, log.to_perfetto(&title)));
    match written {
        Ok(()) => println!("span file: {}", trace_path.display()),
        Err(e) => {
            out.check::<()>(Err(format!("writing {}: {e}", trace_path.display())));
        }
    }
    out
}

/// Times `batch` calls of `op` per sample until `budget` has passed
/// (at least [`MIN_BATCHES`] samples), logging each sample as a child
/// of the open span.
fn timed_batches(
    log: &mut SpanLog,
    name: &str,
    budget: Duration,
    batch: u64,
    mut op: impl FnMut(u64),
) -> Probe {
    let parent = log.current();
    let end = Instant::now() + budget;
    let mut ns = Vec::new();
    let mut i = 0;
    while ns.len() < MIN_BATCHES || Instant::now() < end {
        let t0 = log.now_ns();
        for _ in 0..batch {
            op(i);
            i += 1;
        }
        let t1 = log.now_ns();
        log.child(parent, name, t0, t1);
        ns.push((t1 - t0) as f64 / batch as f64);
    }
    Probe::from_samples(&ns)
}

/// `Tlb::lookup` over `pages` mapped pages, a `write_share` of the
/// lookups needing write privilege.
fn probe_tlb(
    log: &mut SpanLog,
    budget: Duration,
    pages: u64,
    write_share: f64,
    seed: u64,
) -> Probe {
    let frame = FrameAllocator::new(PageGeometry::default()).alloc(0);
    let tlb = Tlb::new();
    for page in 0..pages {
        let entry = TlbEntry {
            gen: frame.generation(),
            frame: frame.clone(),
            writable: true,
        };
        tlb.insert(page, entry);
    }
    let mut rng = XorShift64::new(seed);
    let keys: Vec<(u64, bool)> = (0..4096)
        .map(|_| (rng.next_below(pages), rng.next_f64() < write_share))
        .collect();
    timed_batches(log, "vm.tlb_lookup batch", budget, BATCH, |i| {
        let (page, write) = keys[i as usize % keys.len()];
        black_box(tlb.lookup(page, write));
    })
}

/// `SsmpCacheSystem::access` from one processor over a fixed working
/// set, with lines homed across the workload's cluster and its share of
/// writes.
fn probe_cache(
    log: &mut SpanLog,
    budget: Duration,
    cluster: usize,
    write_share: f64,
    seed: u64,
) -> Probe {
    let sys = SsmpCacheSystem::new(CostModel::alewife().dir_hw_pointers);
    let mut cache = ProcCache::new(CacheConfig::alewife());
    let mut rng = XorShift64::new(seed);
    let keys: Vec<(u64, usize, bool)> = (0..4096)
        .map(|_| {
            (
                rng.next_below(CACHE_LINES),
                rng.next_below(cluster as u64) as usize,
                rng.next_f64() < write_share,
            )
        })
        .collect();
    timed_batches(log, "cache.access batch", budget, BATCH, |i| {
        let (line, home, write) = keys[i as usize % keys.len()];
        black_box(sys.access(&mut cache, 0, line, home, write));
    })
}

/// One release-path data cycle, `SpanDiff` build against the twin plus
/// apply to the home copy, at `dirty` changed words a page.
fn probe_diff(log: &mut SpanLog, budget: Duration, dirty: usize, seed: u64) -> Probe {
    let words = (PageGeometry::default().page_bytes() / 8) as usize;
    let dirty = dirty.min(words);
    let mut rng = XorShift64::new(seed);
    let twin: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
    let mut current = twin.clone();
    for j in 0..dirty {
        current[j * words / dirty] ^= 1;
    }
    let mut home = twin.clone();
    let mut scratch = SpanDiff::new();
    timed_batches(log, "proto.diff batch", budget, BATCH, |_| {
        scratch.compute_into(&current, &twin);
        scratch.apply_to_slice(&mut home);
        black_box(&home);
    })
}

/// A two-SSMP machine (P = 2, C = 1) where processor 1 stores once to
/// each of [`FAULT_PAGES`] pages homed at processor 0 — every store a
/// write fault — and releases after every [`PAGES_PER_RELEASE`] pages;
/// at most [`FAULT_MACHINES`] machines, fewer if the budget runs out.
/// Returns the per-store and per-released-page costs. Each machine's
/// result is checked: every store faulted and reached the home copy.
fn probe_fault_release(
    log: &mut SpanLog,
    out: &mut Outcome,
    budget: Duration,
    wl: &Workload,
    seed: u64,
) -> (Probe, Probe) {
    let parent = log.current();
    let words = PageGeometry::default().page_bytes() / 8;
    let end = Instant::now() + budget;
    let (mut fault_ns, mut release_ns) = (Vec::new(), Vec::new());
    for _ in 0..FAULT_MACHINES {
        if !fault_ns.is_empty() && Instant::now() >= end {
            break;
        }
        let mut cfg = DssmpConfig::new(2, 1)
            .with_virtual_engine(Some(1))
            .with_protocol(wl.protocol);
        cfg.seed = seed;
        let machine = Machine::new(cfg);
        let arr =
            machine.alloc_array_homed::<u64>(FAULT_PAGES * words, AccessKind::DistArray, |_| 0);
        let calls = Mutex::new(Vec::new());
        let epoch = log.epoch();
        let ns = || epoch.elapsed().as_nanos() as u64;
        let ran = catch(|| {
            machine.run(|env| {
                if env.pid() != 1 {
                    return;
                }
                let mut mine = Vec::with_capacity((FAULT_PAGES * 2) as usize);
                for page in 0..FAULT_PAGES {
                    let t0 = ns();
                    arr.write(env, page * words, page + 1);
                    mine.push(("proto.write_fault", t0, ns()));
                    if (page + 1) % PAGES_PER_RELEASE == 0 {
                        let t0 = ns();
                        env.flush();
                        mine.push(("proto.release", t0, ns()));
                    }
                }
                *calls.lock().expect("no other task holds the sample lock") = mine;
            })
        })
        .and_then(|_| {
            let misses = machine.proto_stats().write_misses.get();
            let lost = (0..FAULT_PAGES).find(|&p| machine.peek(&arr, p * words) != p + 1);
            match (misses >= FAULT_PAGES, lost) {
                (true, None) => Ok(()),
                (false, _) => Err(format!(
                    "fault probe: {misses} write misses for {FAULT_PAGES} stores"
                )),
                (_, Some(p)) => Err(format!("fault probe: page {p} lost its store")),
            }
        });
        if out.check(ran).is_none() {
            break;
        }
        for (name, t0, t1) in calls.into_inner().expect("probe run finished") {
            log.child(parent, name, t0, t1);
            let d = (t1 - t0) as f64;
            if name == "proto.release" {
                release_ns.push(d / PAGES_PER_RELEASE as f64);
            } else {
                fault_ns.push(d);
            }
        }
    }
    (
        Probe::from_samples(&fault_ns),
        Probe::from_samples(&release_ns),
    )
}

/// Batches of `Env::acquire` + `Env::release` of one lock by processor
/// 0 of a two-SSMP machine, so the token stays local.
fn probe_acquire_release(
    log: &mut SpanLog,
    out: &mut Outcome,
    budget: Duration,
    wl: &Workload,
    seed: u64,
) -> Probe {
    const BATCHES: u64 = 16;
    let parent = log.current();
    let end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.is_empty() || Instant::now() < end {
        let mut cfg = DssmpConfig::new(2, 1)
            .with_virtual_engine(Some(1))
            .with_protocol(wl.protocol);
        cfg.seed = seed;
        let machine = Machine::new(cfg);
        let lock = machine.new_lock();
        let batches = Mutex::new(Vec::new());
        let epoch = log.epoch();
        let ns = || epoch.elapsed().as_nanos() as u64;
        let ran = catch(|| {
            machine.run(|env| {
                if env.pid() != 0 {
                    return;
                }
                let mut mine = Vec::with_capacity(BATCHES as usize);
                for _ in 0..BATCHES {
                    let t0 = ns();
                    for _ in 0..LOCK_BATCH {
                        env.acquire(&lock);
                        env.release(&lock);
                    }
                    mine.push((t0, ns()));
                }
                *batches.lock().expect("no other task holds the sample lock") = mine;
            })
        })
        .and_then(|_| match machine.lock_totals() {
            (a, h) if a == BATCHES * LOCK_BATCH && h == a => Ok(()),
            (a, h) => Err(format!("lock probe: {a} acquires, {h} local")),
        });
        if out.check(ran).is_none() {
            break;
        }
        for (t0, t1) in batches.into_inner().expect("probe run finished") {
            log.child(parent, "sync.acquire_release batch", t0, t1);
            samples.push((t1 - t0) as f64 / LOCK_BATCH as f64);
        }
    }
    Probe::from_samples(&samples)
}

/// Host CPU nanoseconds per scheduler suspension on a `procs`-processor
/// machine (C = 32, `workers` workers) whose only work is
/// `Env::compute(window)`, `calls` times a processor: every call crosses
/// a pacing window, so every call suspends.
fn probe_handoff(
    log: &mut SpanLog,
    out: &mut Outcome,
    budget: Duration,
    procs: usize,
    calls: u64,
    workers: usize,
) -> Probe {
    let parent = log.current();
    let end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.is_empty() || Instant::now() < end {
        let cfg = DssmpConfig::new(procs, procs.min(32)).with_virtual_engine(Some(workers));
        let window = cfg
            .governor_window
            .expect("virtual engine has a window")
            .raw();
        let machine = Machine::new(cfg);
        let t0 = log.now_ns();
        let cpu0 = process_cpu_s();
        let ran = catch(|| {
            machine.run(|env| {
                for _ in 0..calls {
                    env.compute(window);
                }
            })
        });
        let cpu_ns = (process_cpu_s() - cpu0) * 1e9;
        let t1 = log.now_ns();
        let gates = machine.governor_waits().map_or(0, |w| w.total_gates());
        let ran = ran.and_then(|_| match gates {
            0 => Err("handoff probe: no suspensions".to_string()),
            _ => Ok(()),
        });
        if out.check(ran).is_none() {
            break;
        }
        log.child(parent, "sched.machine_run", t0, t1);
        samples.push(cpu_ns / gates as f64);
    }
    Probe::from_samples(&samples)
}
