//! `tsj-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload in this process, prints every metric by name with its
//! unit, and ends with the one-line JSON result the driver reads. Exits 0
//! only if every checked output agreed with its oracle.

use std::path::PathBuf;
use std::process::ExitCode;
use tsj_benchmark::harness::{self, RunArgs, Scale};
use tsj_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use tsj_benchmark::workloads;

const USAGE: &str =
    "usage: tsj-benchmark --workload <join_flat|join_bigtree|serve_tcp|stream_window> \
[--seed N] [--seconds S] [--trace 0|1] [--corrupt-oracle]";

fn value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|raw| raw.parse().ok())
            .ok_or_else(|| format!("{flag} wants a value\n{USAGE}")),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let workload: String = value(args, "--workload", String::new())?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    let seconds: f64 = value(args, "--seconds", 28.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    let trace = match value(args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}\n{USAGE}")),
    };
    let run_args = RunArgs {
        seed: value(args, "--seed", 2015)?,
        seconds,
        trace,
        corrupt_oracle: args.iter().any(|a| a == "--corrupt-oracle"),
        scale: Scale::Full,
        trace_dir: Some(PathBuf::from("benchmark/out")),
    };

    // `available_parallelism` honours the affinity mask `run.sh` sets, so
    // the machine's CPU count and the CPUs this process may use are both
    // read from the kernel.
    let cpus_allowed =
        harness::proc_status("Cpus_allowed_list").unwrap_or_else(|| "unknown".into());
    let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |text| {
        text.lines().filter(|l| l.starts_with("processor")).count()
    });
    println!(
        "host: nproc={nproc} cpus_allowed={cpus_allowed} rustc={:?} profile=release(lto=thin,cgu=1,debug) seed={} seconds={} trace={}",
        std::env::var("TSJ_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        run_args.seed,
        seconds,
        u8::from(trace),
    );
    let report = workloads::run(&workload, &run_args).expect("workload name was checked");
    let decls: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
    for (decl, value) in report.resolve(decls, trace) {
        println!(
            "{workload:<14} {:<36} {value:>16.4} {}",
            decl.name, decl.unit
        );
    }
    println!(
        "{workload:<14} {:<36} {:>16.6} ratio ({} failed of {} attempted)",
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    // The bands inside which the staged replay accounts for the one-call
    // path. Outside them the per-layer times are not to be trusted; the
    // outputs still are, so this warns and does not fail the run.
    for (name, low, high) in [
        ("core.replay_coverage", 0.85, 1.15),
        ("catalogd.waterfall_coverage", 0.8, 1.2),
    ] {
        if let Some(coverage) = report.get(name).filter(|c| !(low..=high).contains(c)) {
            eprintln!("benchmark: WARNING {name} = {coverage:.3} is outside [{low}, {high}]");
        }
    }
    for failure in &report.failures {
        eprintln!("benchmark: FAILED {failure}");
    }
    println!("{}", report.result_line(trace));
    Ok(report.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
