//! perfbench: runs one workload and prints its metrics.
//!
//! `perfbench/run.py` builds this binary twice — the shipping build
//! (telemetry compiled out) for the end-to-end metrics and the `traced`
//! build for the per-layer ones — and calls it as
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s>
//!           [--revision <r>] [--spans-out <path>] [--baseline-pass-ms <ms>]
//! ```
//!
//! The last line of standard output is the JSON result. The exit code
//! is 1 when any output failed the correctness gate, 2 on a usage error.

use perfbench::{fingerprint, layer_metrics, Opts, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    revision: String,
    spans_out: Option<String>,
    baseline_pass_ms: Option<f64>,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        revision: "unknown".into(),
        spans_out: None,
        baseline_pass_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => cli.workload = val()?,
            "--seed" => cli.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--revision" => cli.revision = val()?,
            "--spans-out" => cli.spans_out = Some(val()?),
            "--baseline-pass-ms" => {
                cli.baseline_pass_ms = Some(
                    val()?
                        .parse()
                        .map_err(|e| format!("--baseline-pass-ms: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
        return Err("--seconds must lie in [0, 600]".into());
    }
    Ok(cli)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let traced = rlibm_obs::enabled();
    assert_eq!(
        traced,
        cfg!(feature = "traced"),
        "telemetry is on exactly in the traced build"
    );
    let fp = fingerprint::json(&cli.workload, cli.seed, &cli.revision);
    println!("fingerprint {fp}");
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds,
        traced,
        setup: WORKLOADS
            .iter()
            .copied()
            .find(|w| !traced && *w == cli.workload),
    };
    let mut rep = match perfbench::run(&cli.workload, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tally = rep.tally;
    for l in &rep.lines {
        println!("{l}");
    }
    println!(
        "gate: {} of {} checked operations failed (failed_share {})",
        tally.failed,
        tally.attempted,
        tally.failed_share()
    );

    let mut metrics: BTreeMap<String, (f64, &str)> = BTreeMap::new();
    if traced {
        if let (Some(base), Some(&ms)) = (cli.baseline_pass_ms, rep.e2e.get("pass_ms")) {
            rep.layer("trace.overhead_share", ms / base - 1.0);
        }
        for (name, unit) in layer_metrics() {
            let v = rep.layer.get(&name).copied().unwrap_or(0.0);
            metrics.insert(name, (v, unit));
        }
        if let (Some(path), Some(sp)) = (&cli.spans_out, &rep.spans) {
            if let Err(e) = sp.write_jsonl(path, &fp) {
                eprintln!("perfbench: writing spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("spans: {} written to {path}", sp.all().len());
        }
    } else {
        for &(name, unit) in END_TO_END {
            let v = rep.e2e.get(name).copied().unwrap_or(0.0);
            metrics.insert(name.to_string(), (v, unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
