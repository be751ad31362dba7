//! End-to-end and per-layer benchmark of the confidential inference
//! stack, driven from outside through the crates' public functions.
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload chat_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `chat_stream`, `batch_offline`, `fleet_sim` (see
//! `NOTES.md`). All load comes from this one thread. The run prints every
//! metric with its unit and sample count, the operations attempted,
//! succeeded and failed, and last a one-line JSON result: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run also writes its spans as Chrome trace-event JSON under
//! `stackbench/out/`. The exit code is non-zero when an output check
//! fails.

mod batch;
mod chat;
mod deploy;
mod fleet;
mod host;
mod report;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["chat_stream", "batch_offline", "fleet_sim"];

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Self time and span count per layer, and the share of operation time
/// no layer span covers.
#[allow(clippy::cast_precision_loss)]
fn span_metrics(t: &trace::Tracer, report: &mut Report) {
    for (layer, (self_ns, calls)) in trace::layer_totals(t.spans()) {
        let names = match layer {
            "crypto" => ("crypto.self_s", "crypto.calls"),
            "core" => ("core.self_s", "core.calls"),
            "tee" => ("tee.self_s", "tee.calls"),
            "infer" => ("infer.self_s", "infer.calls"),
            "serve" => ("serve.self_s", "serve.calls"),
            _ => continue,
        };
        report.set(names.0, self_ns as f64 / 1e9, "s", calls as usize);
        report.set(names.1, calls as f64, "count", 1);
    }
    let frac = trace::unattributed_frac(t.spans());
    report.set("trace.unattributed_frac", frac, "fraction", 1);
}

fn run(args: &Args, report: &mut Report) -> Result<trace::Tracer, String> {
    let copy = host::copy_gb_per_s();
    report.set("host.copy_gb_per_s", copy, "GB/s", 1);
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    // Owner-side preparation is not set-up: it happens before the
    // peak-RSS mark is reset and before any timed step.
    let mut owner = match args.workload.as_str() {
        "fleet_sim" => None,
        _ => Some(deploy::prepare(&deploy::model_config())?),
    };
    if !host::reset_peak_rss() {
        eprintln!("stackbench: cannot reset the peak-RSS mark; peak_rss_mb includes preparation");
    }
    match (args.workload.as_str(), owner.as_mut()) {
        ("chat_stream", Some(o)) => chat::run(seed, secs, traced, o, report),
        ("batch_offline", Some(o)) => batch::run(seed, secs, traced, o, report),
        _ => fleet::run(seed, secs, traced, report),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let tracer = match run(&args, &mut report) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("stackbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.set("peak_rss_mb", host::peak_rss_mb(), "MiB", 1);
    report.set(
        "error_rate",
        report.error_rate(),
        "fraction",
        report.attempted as usize,
    );
    if args.trace {
        span_metrics(&tracer, &mut report);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(tracer.spans())));
        match written {
            Ok(()) => println!(
                "trace: {} spans -> {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("stackbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{}", report.table());
    let line = if args.trace {
        report.result_line(&PER_LAYER, true)
    } else {
        report.result_line(&END_TO_END, false)
    };
    match line {
        Ok(l) => println!("{l}"),
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::from(report.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_str("--workload fleet_sim --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "fleet_sim");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_str("--workload nope").is_err());
        assert!(parse_str("--workload chat_stream --trace 2").is_err());
        assert!(parse_str("--workload chat_stream --seconds 0").is_err());
        assert!(parse_str("--workload chat_stream --seed").is_err());
    }

    #[test]
    fn same_seed_gives_same_prompts() {
        let a: Vec<_> = chat::Requests::new(5).take(20).collect();
        let b: Vec<_> = chat::Requests::new(5).take(20).collect();
        let c: Vec<_> = chat::Requests::new(6).take(20).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for r in &a {
            assert!((8..=160).contains(&r.prompt.len()), "{}", r.prompt.len());
            assert!((4..=96).contains(&r.max_new));
            assert!(r.prompt.len() + r.max_new <= deploy::model_config().max_seq);
        }
        let x: Vec<_> = batch::Batches::new(5).take(3).collect();
        let y: Vec<_> = batch::Batches::new(5).take(3).collect();
        assert_eq!(x, y);
        assert!(x.iter().flatten().all(|p| (32..=160).contains(&p.len())));
    }
}
