//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric as `name value unit`, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits nonzero on any failed search, wrong answer or
//! metric that could not be measured.

use perfbench::{RunOpts, Scale, Workload, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
workloads: search-poisson, search-rmat-dirop, serve-rmat-bursty";

fn parse(args: &[String]) -> Result<(Workload, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut seen = 0;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("seconds"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        seen += 1;
    }
    match workload {
        Some(w) if seen == 4 => Ok((w, opts)),
        _ => Err("all four flags are required, once each".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# {} seed {} seconds {} trace {}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let report = workload.run(Scale::Full, &opts);
    print!("{}", report.render_lines());
    for f in &report.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    if let Err(e) = report.check_complete(table) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.render_json(table));
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
