//! Command line of the benchmark; `run.sh` builds and calls it.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//! and prints its result object as the last line of standard output.
//! Without `--workload` every workload runs in a child process of its
//! own, so peak memory and allocator state are per workload.
//! `--manifest` prints `BENCHMARK.json` from the registry.

use std::process::{Command, ExitCode};

use stategen_benchmark::alloc::CountingAlloc;
use stategen_benchmark::report::{self, RUN_SECONDS};
use stategen_benchmark::trace::{calibrate_timer_ns, Tracer};
use stategen_benchmark::workloads::{self, RunArgs};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Where a traced run leaves its span file, relative to the repository
/// root (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] | --manifest";

struct Cli {
    workload: Option<String>,
    args: RunArgs,
    manifest: bool,
}

fn parse(argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut argv = argv.peekable();
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
        },
        manifest: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                cli.args.seconds = s;
            }
            // `--trace 0|1` as the driver passes it, bare `--trace` by hand.
            "--trace" => {
                cli.args.trace = argv.next_if(|v| v == "0" || v == "1").as_deref() != Some("0");
            }
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process.
fn run_one(name: &str, args: &RunArgs) -> ExitCode {
    let mut tracer = Tracer::new(args.trace);
    let Some(mut outcome) = workloads::run(name, args, &mut tracer) else {
        let known: Vec<&str> = report::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(" "));
        return ExitCode::from(2);
    };
    if args.trace {
        outcome.set("trace.timer_ns", calibrate_timer_ns());
        outcome.set("trace.spans", tracer.spans().len() as f64);
        outcome.set(
            "check.failed_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
        outcome.set(
            "check.checksum_low32",
            (outcome.checksum & 0xFFFF_FFFF) as f64,
        );
        let path = format!("{OUT_DIR}/trace_{name}.json");
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tracer.write_json(name, args.seed)));
        match written {
            Ok(()) => println!("# trace: {} spans -> {path}", tracer.spans().len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "# {name} seed {} checksum {:016x}: {} attempted, {} failed",
        args.seed, outcome.checksum, outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in report::metrics_for(args.trace) {
        if let Some(v) = outcome.metrics.get(m.name) {
            println!("{name} {} {v} {}", m.name, m.unit);
        }
    }
    println!("{}", report::result_line(&outcome, args.trace));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to re-run it: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for name in report::WORKLOADS.iter().map(|w| w.name) {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => failed.push(format!("{name} ({s})")),
            Err(e) => failed.push(format!("{name} ({e})")),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    match &cli.workload {
        Some(name) => run_one(name, &cli.args),
        None => run_all(&cli.args),
    }
}
