//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one benchmark workload and prints its metrics; the last line of
//! standard output is the JSON result. `perfbench --pin` re-pins the
//! reference digests in `references.txt` (after a change that is meant to
//! alter simulated output).

use irs_perfbench::run;
use irs_perfbench::workloads::{Kind, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper-grid|serving-open-loop|fleet-churn> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --pin";

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

fn main() -> ExitCode {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/references.txt");
            return match run::pin(jobs)
                .and_then(|text| std::fs::write(path, text).map_err(|e| e.to_string()))
            {
                Ok(()) => {
                    eprintln!("wrote {path}; rebuild to compile it in");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench --pin: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = Workload {
        kind: args.kind,
        slot: args.seed % args.kind.slots(),
        jobs,
    };
    let report = if args.trace {
        run::traced(&w, args.seed, args.seconds)
    } else {
        run::measured(&w, args.seed, args.seconds)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} (seed {}, {} jobs): {}",
        w.kind.name(),
        args.seed,
        jobs,
        report.headline
    );
    for (name, unit, value) in &report.metrics {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    println!("  ops {} failed {}", report.attempted, report.failed);
    println!("{}", report.meta_json());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
