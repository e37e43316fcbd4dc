//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 --srank PATH
//! perfbench plan
//! perfbench spread < result-lines
//! ```
//!
//! `run` measures one workload (see [`plan::WORKLOADS`]), or each in
//! turn with `--workload all`, and ends each report with one JSON line: with `--trace 0` the end-to-end
//! metrics of untraced runs, with `--trace 1` the per-layer metrics of a
//! traced run. `perfbench/run.py` builds the program and this benchmark
//! and runs it from the repository root.

mod consumer;
mod kernel;
mod layers;
mod plan;
mod probe;
mod producer;
mod report;
mod sched;
mod server;
mod stats;
mod trace;

use serde_json::Value;
use srank_service::Client;
use std::path::PathBuf;
use std::process::ExitCode;

/// A 53-bit seed derived from the workload seed and a tag (splitmix64),
/// so every input is a function of `--seed` and survives JSON exactly.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

/// A JSON array of numbers.
pub fn num_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Parses a request the benchmark wrote itself.
pub fn request(text: &str) -> Value {
    serde_json::from_str(text).expect("the benchmark writes valid request JSON")
}

pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// One request; the `result` of an `ok` answer, else the error.
pub fn call(client: &mut Client, req: &Value) -> Result<Value, String> {
    client.call_ok(req).map_err(|e| e.to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    srank: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: plan::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        srank: PathBuf::from("target/release/srank"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--srank" => out.srank = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload != "all" && !plan::WORKLOADS.iter().any(|w| w.name == out.workload) {
        let names: Vec<&str> = plan::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be all or one of {}",
            names.join(", ")
        ));
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    Ok(out)
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    if args.trace {
        return layers::run(&args.srank, &args.workload, args.seed, args.seconds);
    }
    match args.workload.as_str() {
        "mc-kernel" => kernel::run(args.seed, args.seconds),
        "producer-topk" => producer::run(&args.srank, args.seed, args.seconds),
        _ => consumer::run(&args.srank, args.seed, args.seconds),
    }
}

/// Reads result lines (the last line of several runs) and prints, per
/// metric, the median and the spread between runs: the distance between
/// the first and third quartile as a share of the median.
fn spread(input: impl std::io::BufRead) -> Result<String, String> {
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for line in input.lines() {
        let line = line.map_err(|e| e.to_string())?;
        let Ok(v) = serde_json::from_str(line.trim()) else {
            continue;
        };
        let Some(metrics) = v.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, vs)) => vs.push(value),
                None => values.push((name.clone(), unit, vec![value])),
            }
        }
    }
    let mut out = String::new();
    for (name, unit, vs) in &values {
        let q = stats::quartiles(vs)
            .map_or("-".to_string(), |[a, b, c]| format!("{a:.6} {b:.6} {c:.6}"));
        let s = stats::spread(vs).map_or("-".to_string(), |s| format!("{s:.4}"));
        out.push_str(&format!(
            "{name:<30} {unit:<6} n={:<3} quartiles {q:<40} spread {s}\n",
            vs.len()
        ));
    }
    Ok(out)
}

/// Runs one workload and prints its report, ending with the JSON line.
fn report(args: &Args) -> Result<(), String> {
    let outcome = run(args)?;
    let w = plan::WORKLOADS.iter().position(|w| w.name == args.workload);
    let meaning = |name: &str| -> String {
        let e2e = plan::END_TO_END.iter().find(|m| m.name == name);
        let layer = plan::LAYERS.iter().find(|l| l.name == name);
        match (e2e, layer, w) {
            (Some(m), _, Some(w)) => m.meaning[w].to_string(),
            (_, Some(l), _) => format!("[{}] moves {}", l.module, l.moves),
            _ => String::new(),
        }
    };
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "perfbench {mode} run, seed {}, {} s",
        args.seed, args.seconds
    );
    print!("{}", outcome.table(&args.workload, meaning));
    let line = outcome
        .json()
        .map_err(|missing| format!("the run could not support: {}", missing.join(", ")))?;
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("plan") => {
            println!("{}", plan::to_json());
            Ok(())
        }
        Some("spread") => spread(std::io::stdin().lock()).map(|table| print!("{table}")),
        Some("kernel-phase") if argv.len() == 4 => {
            let parsed = (argv[2].parse::<u64>(), argv[3].parse::<u64>());
            match parsed {
                (Ok(seed), Ok(round)) => kernel::child(&argv[1], seed, round),
                _ => Err("kernel-phase PHASE SEED ROUND".into()),
            }
        }
        Some("kernel-arena") if argv.len() == 2 => argv[1]
            .parse::<u64>()
            .map_err(|_| "kernel-arena SEED".to_string())
            .and_then(layers::arena_child),
        Some("run") => parse(&argv[1..]).and_then(|args| {
            if args.workload != "all" {
                return report(&args);
            }
            // Every workload in turn, each with its own report and line.
            plan::WORKLOADS.iter().try_for_each(|w| {
                report(&Args {
                    workload: w.name.to_string(),
                    srank: args.srank.clone(),
                    ..args
                })
            })
        }),
        _ => Err("usage: perfbench run --workload NAME --seed N --seconds S --trace 0|1 --srank PATH | plan | spread".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_deterministic_and_json_exact() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert!(mix(u64::MAX, u64::MAX) < 1 << 53);
    }

    #[test]
    fn run_flags_parse_and_validate() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload mc-kernel --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload mc-kernel --seconds 0")).is_err());
        assert!(parse(&argv("--workload mc-kernel --seed")).is_err());
    }

    #[test]
    fn spread_reads_result_lines() {
        let lines = (1..=10)
            .map(|i| format!("noise\n{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"p50_ms\":{{\"value\":{i},\"unit\":\"ms\"}}}}}}\n"))
            .collect::<String>();
        let table = spread(lines.as_bytes()).unwrap();
        assert!(
            table.contains("p50_ms") && table.contains("n=10"),
            "{table}"
        );
        assert!(
            table.contains("quartiles 2.750000 5.500000 8.250000"),
            "{table}"
        );
        assert!(table.contains("spread 1.0000"), "{table}");
    }
}
