//! `ibis-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`serve_mixed`, `analytic_large`, `ingest_durable`,
//! or `all`, which runs each in a fresh child process) from the seed,
//! prints every metric by name and unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! traced run replays the same inputs into each layer and reports the
//! per-layer ones. Any wrong answer, lost acknowledged write or exact
//! count that fails to repeat makes the run exit non-zero.
//! See `perfbench/NOTES.md`.

mod layers;
mod model;
mod serve;
mod stats;
mod trace;
mod workloads;

use stats::{json_number, json_string, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Args, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: ibis-perfbench --workload <{}|all> --seed N --seconds N --trace 0|1 [--data-dir DIR]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        data_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn print_report(workload: &str, report: &Report) {
    for m in report.metrics.iter().chain(&report.printed) {
        println!("{} {} {}  [{}]", m.name, m.value, m.unit, m.note);
    }
    for p in &report.problems {
        eprintln!("perfbench {workload}: {p}");
    }
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench {workload}: a metric is not a finite number");
    }
}

/// Runs every workload in its own child process (so each starts with the
/// program's own recorder state and its own peak RSS) and sums them up in
/// one result line whose metric names carry the workload as a prefix.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(d) = &args.data_dir {
            cmd.arg("--data-dir").arg(d);
        }
        let out = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        println!("== {w}");
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
            // Human-readable lines are `name value unit  [note]`.
            let mut f = l.split_whitespace();
            if let (Some(n), Some(v), Some(u)) = (f.next(), f.next(), f.next()) {
                if let Ok(v) = v.parse::<f64>() {
                    metrics.push((format!("{w}.{n}"), v, u.to_string()));
                }
            }
        }
        let field = |k: &str| {
            last.split(&format!("\"{k}\": "))
                .nth(1)
                .and_then(|r| r.split([',', '}']).next())
                .map(str::to_string)
        };
        correct &= out.status.success() && field("correct").as_deref() == Some("true");
        attempted += field("attempted").and_then(|v| v.parse().ok()).unwrap_or(0);
        failed += field("failed").and_then(|v| v.parse().ok()).unwrap_or(0);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(n),
                json_number(*v),
                json_string(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let report = workloads::run(&args);
    print_report(&args.workload, &report);
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    println!("{}", report.json());
    if report.correct() && finite {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
