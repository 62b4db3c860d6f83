//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human summary, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). A traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl` (see `--spans`).
//!
//! Exits 1 without a result line when set-up fails.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::inputs::Sizes;
use perfbench::sys::{build_profile, git_rev, nproc, CpuTicks};
use perfbench::trace::Tracer;
use perfbench::workloads::{self, RunConfig, Workload};

const USAGE: &str =
    "usage: perfbench --workload <serve-mix|anchored-6k|treelike-sweep|update-mix> \
                     --seed <n> --seconds <s> --trace <0|1> [--spans <dir>]";

struct Args {
    cfg: RunConfig,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--spans" => spans = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        cfg: RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            sizes: Sizes::full(),
        },
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = &args.cfg;
    let ticks = CpuTicks::now();
    let mut tracer = Tracer::default();
    let result = match workloads::run(cfg, &mut tracer) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let env = format!(
        "{{\"nproc\":{},\"profile\":\"{}\",\"git\":\"{}\",\"steal_share\":{:.6}}}",
        nproc(),
        build_profile(),
        git_rev(),
        ticks.steal_share_until(&CpuTicks::now())
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("env {env}");
    for line in &result.summary {
        println!("{line}");
    }
    for m in &result.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "ops attempted {}, failed {}, wrong {}; error_rate {}",
        result.tally.attempted,
        result.tally.failed,
        result.tally.wrong,
        result.tally.error_rate()
    );
    for note in &result.tally.notes {
        println!("  failure: {note}");
    }
    if cfg.trace {
        let path = args
            .spans
            .join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"env\":{env}}}",
            cfg.workload.name(),
            cfg.seed
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => println!(
                "spans {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    match result.json() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
