//! Command-line entry point of the repository benchmark; see the
//! library documentation and `NOTES.md`.

use mgs_perfbench::{end_to_end, layers, workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next();
        let slot = match flag.as_str() {
            "--workload" => &mut name,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return fail(&format!("unknown argument {flag}")),
        };
        *slot = value;
    }
    let Some(wl) = name.as_deref().and_then(workload::find) else {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        return fail(&format!("--workload must be one of {names:?}"));
    };
    let (Some(seed), Some(seconds), Some(trace)) = (
        seed.and_then(|s| s.parse::<u64>().ok()),
        seconds
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0),
        trace.filter(|t| t == "0" || t == "1"),
    ) else {
        return fail("--seed, --seconds and --trace need values");
    };
    // The workload fixes the worker budget; the engine's environment
    // override would silently change it.
    std::env::remove_var(mgs_sim::VWORKERS_ENV);

    println!(
        "perfbench {} seed {seed}: P={} C={} W={} {:?}, {} s, trace {trace}",
        wl.name,
        wl.procs,
        wl.cluster,
        wl.effective_workers(),
        wl.protocol,
        seconds
    );
    let outcome = if trace == "1" {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{seed}.trace.json", wl.name));
        layers::run(wl, seed, seconds, &path)
    } else {
        end_to_end(wl, seed, seconds)
    };
    print!("{}", outcome.table());
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}
