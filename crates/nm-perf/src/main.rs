//! `nm-perf` — runs the benchmark's workloads and prints every metric by
//! name with its unit, then one JSON result line:
//!
//! ```text
//! nm-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Without `--workload` all four workloads run; without `--trace` both
//! phases run and both metric tables are reported. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics. The
//! `nmcdr` binary must sit next to this one (see `run.sh`).

use nm_perf::{result_json, RunConfig, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: nm-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2023,
        seconds: None,
        trace: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                args.workload = Some(Workload::parse(&v).ok_or_else(|| {
                    format!("unknown workload '{v}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|e| format!("invalid --seed '{v}': {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|e| format!("invalid --seconds '{v}': {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                });
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate nm-perf: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("nm-perf has no parent directory")?
        .to_path_buf();
    let out_dir = bin_dir.parent().unwrap_or(&bin_dir).join("nm-perf");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 0.5 } else { 25.0 }),
        traced: args.trace != Some(false),
        smoke: args.smoke,
        bin_dir,
        out_dir,
    };
    let phases: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let prefixed = workloads.len() > 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in workloads {
        let mut o = w.run(&cfg)?;
        for name in o.undefined_metrics() {
            o.problems
                .push(format!("metric {name} is not in the metric tables"));
        }
        println!("== {} (seed {}, {} s) ==", w.name(), cfg.seed, cfg.seconds);
        for note in &o.notes {
            println!("  # {note}");
        }
        for p in &o.problems {
            println!("  ! {p}");
        }
        println!("  ops: {} attempted, {} failed", o.attempted, o.failed);
        for &traced in phases {
            for (def, value) in o.metrics(traced) {
                println!("  {:<44} {value:>14.4} {}", def.name, def.unit);
                let name = if prefixed {
                    format!("{}/{}", w.name(), def.name)
                } else {
                    def.name.to_string()
                };
                metrics.push((name, value, def.unit));
            }
        }
        correct &= o.correct();
        attempted += o.attempted;
        failed += o.failed;
    }
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nm-perf: {e}");
            ExitCode::from(2)
        }
    }
}
