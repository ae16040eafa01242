//! `unp-hostbench` — the host-time ledger. See `benchmark/README.md`.

use std::process::ExitCode;

use unp_hostbench::workloads::Workload;
use unp_hostbench::{ledger, round, traced};

const USAGE: &str = "usage: unp-hostbench [--workload bulk|rr|churn|fanin_lossy|bulk_observed] \
[--seed N] [--seconds S] [--trace 0|1]";

/// What the command line asked for.
struct Args {
    /// The workloads to run; all five when none is named.
    workloads: Vec<Workload>,
    /// Seed of every generated input.
    seed: u64,
    /// How long each workload measures for.
    seconds: f64,
    /// Report the per-layer metrics from a traced run, not the end-to-end
    /// metrics from an untraced one.
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1993,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                parsed.workloads = vec![w];
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for &workload in &args.workloads {
        let report = if args.trace {
            traced::run(workload, args.seed, args.seconds)
        } else {
            let rounds = round::run_for(workload, args.seed, args.seconds);
            ledger::end_to_end(workload, &rounds)
        };
        print!("{}", report.to_text());
        println!("{}", report.to_json());
    }
    ExitCode::SUCCESS
}
