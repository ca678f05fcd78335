//! `nmcdr` — command-line interface to the NMCDR reproduction.
//!
//! ```text
//! nmcdr generate --scenario cloth-sport --scale 0.004 --out data/
//! nmcdr train    --scenario cloth-sport --model NMCDR --overlap 0.1 \
//!                --checkpoint model.nmck
//! nmcdr train    --domain-a data/cloth.txt --domain-b data/sport.txt \
//!                --model NMCDR
//! nmcdr evaluate --scenario cloth-sport --model NMCDR --checkpoint model.nmck
//! nmcdr stats    --scenario loan-fund
//! nmcdr snapshot --scenario cloth-sport --model NMCDR \
//!                --checkpoint model.nmck --out model.nmss
//! nmcdr stream   --scenario cloth-sport --model HeroGraph --out results/stream \
//!                --rounds 12 --shift-at 6 --require-swaps 2 --require-rollbacks 1
//! nmcdr serve    --snapshot model.nmss --bind 127.0.0.1:7878
//! nmcdr chaos    --seed 7 --requests 120 --require-breaker-opens 1 \
//!                --require-degraded 1 --trace-out chaos.jsonl \
//!                --series-out chaos-series.jsonl
//! nmcdr query    --addr 127.0.0.1:7878 --op topk --user 3 --domain a --k 10
//! nmcdr train    --scenario cloth-sport --trace-out results/trace/run.jsonl
//! nmcdr train    --scenario cloth-sport --trace-out run.jsonl \
//!                --profile-out profile.jsonl
//! nmcdr obs profile  --profile profile.jsonl --trace run.jsonl
//! nmcdr obs profile  --profile new-profile.jsonl --compare old-profile.jsonl
//! nmcdr obs report   --trace results/trace/run.jsonl
//! nmcdr obs validate --trace results/trace/run.jsonl
//! nmcdr obs flame    --in results/trace/run.jsonl --out flame.svg
//! nmcdr obs tail     --series chaos-series.jsonl --window 20
//! nmcdr obs slo      --series chaos-series.jsonl --require-alerts 1
//! nmcdr query    --addr 127.0.0.1:7878 --op trace > exemplars.jsonl
//! ```
//!
//! Argument parsing is deliberately dependency-free (`--key value`
//! pairs); see `nmcdr help`.

mod args;
mod chaos;
mod check;
mod commands;
mod obs;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        commands::print_help();
        return ExitCode::FAILURE;
    };
    // `obs` takes a positional action word (`obs report --trace f`),
    // which the --key parser would reject; split it off first.
    let (action, rest) = if cmd == "obs" {
        match rest.split_first() {
            Some((a, r)) if !a.starts_with("--") => (Some(a.clone()), r),
            _ => {
                eprintln!(
                    "error: usage: nmcdr obs <report|validate|flame|tail|slo|profile> \
                     --trace <file> (flame: --in <file> --out <svg>; tail/slo: \
                     --series <file>; profile: --profile <dump> [--compare <old>])"
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        (None, rest)
    };
    let parsed = match args::Args::parse(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(&parsed),
        "train" => commands::train(&parsed),
        "evaluate" => commands::evaluate(&parsed),
        "stats" => commands::stats(&parsed),
        "snapshot" => commands::snapshot(&parsed),
        "stream" => commands::stream(&parsed),
        "serve" => commands::serve(&parsed),
        "query" => commands::query(&parsed),
        "obs" => commands::obs(action.as_deref().unwrap_or(""), &parsed),
        "check" => check::check(&parsed),
        "chaos" => chaos::chaos(&parsed),
        "help" | "--help" | "-h" => {
            commands::print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; try `nmcdr help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
