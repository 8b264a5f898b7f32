//! Command-line entry point of the GRASP benchmark.
//!
//! ```text
//! grasp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints one line per metric, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.  Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! report the per-layer metrics and write a Chrome trace-event file to
//! `<out>/trace-<workload>-<seed>.json`.  Exits 1 on a wrong output, 2 on
//! bad arguments, 3 when the run itself cannot proceed.

use grasp_benchmark::trace::SpanBuf;
use grasp_benchmark::{end_to_end_of, RunConfig, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> String {
    format!(
        "usage: grasp-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--out" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("grasp-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("grasp-benchmark: {}: {e}", cfg.out_dir.display());
        return ExitCode::from(3);
    }
    let mut trace = SpanBuf::new(Instant::now(), 0, "benchmark", cfg.traced);
    let report = match grasp_benchmark::run(&cfg, &mut trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("grasp-benchmark: {}: {e}", cfg.workload);
            return ExitCode::from(3);
        }
    };
    let wanted = if cfg.traced {
        PER_LAYER.to_vec()
    } else {
        end_to_end_of(&cfg.workload)
    };
    let mut json = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let Some((value, samples)) = report.metrics.entry(name) else {
            eprintln!(
                "grasp-benchmark: {}: metric {name} was not measured",
                cfg.workload
            );
            return ExitCode::from(3);
        };
        if !value.is_finite() {
            eprintln!(
                "grasp-benchmark: {}: metric {name} is {value}",
                cfg.workload
            );
            return ExitCode::from(3);
        }
        println!("{name:<34} {value:>16.6} {unit:<6} (n={samples})");
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    let tally = &report.tally;
    println!(
        "{:<34} {:>16.6} ratio  ({} failed of {} attempted)",
        "error_rate",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    for why in &tally.wrong {
        eprintln!("grasp-benchmark: {}: wrong output: {why}", cfg.workload);
    }
    if cfg.traced {
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
        match trace.write_chrome(&path) {
            Ok(()) => println!("trace: {} ({} events)", path.display(), trace.len()),
            Err(e) => {
                eprintln!("grasp-benchmark: writing {}: {e}", path.display());
                return ExitCode::from(3);
            }
        }
    }
    let correct = tally.wrong.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        tally.attempted, tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
