//! `a3-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--rate <req/s>]`
//!
//! `--rate` overrides `tenant-qa`'s offered rate; `capacity.py` sweeps it.
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate: f64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut rate = a3_perfbench::tenant_qa::RATE_PER_S;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            "--rate" => rate = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("--rate must be positive, got {rate}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rate,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "usage: a3-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rate <req/s>]\n{e}"
            );
            return ExitCode::from(2);
        }
    };
    let workload = a.workload;
    match a3_perfbench::run(&workload, a.seed, a.seconds, a.trace, a.rate) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("{workload}: output verification failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
