#![forbid(unsafe_code)]
//! `beas_benchmark` — command line.
//!
//! ```text
//! beas_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! beas_benchmark --all [--seed <n>] [--seconds <s>] [--quick]
//! beas_benchmark --compare <base.jsonl> <new.jsonl>
//! beas_benchmark --breakdown <trace-workload.jsonl>
//! ```
//!
//! The first form runs one workload in this process and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The
//! second runs every workload both ways, each in a child process so that
//! memory and set-up time are per workload, and prints one record per
//! workload with the runner's fingerprint.  Run it from the repository root.

use beas_benchmark::compare;
use beas_benchmark::fingerprint::fingerprint;
use beas_benchmark::json::Json;
use beas_benchmark::metrics::{END_TO_END, PER_LAYER};
use beas_benchmark::run::{run, RunConfig};
use beas_benchmark::script::{build_script, script_hash, Workload, WORKLOADS};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The measured seconds of a run when `--seconds` is absent; the value
/// `BENCHMARK.json` gives the driver.
const DEFAULT_SECONDS: f64 = 10.0;
const BENCHMARK_JSON: &str = "BENCHMARK.json";
const HISTORY: &str = "beas_benchmark/history/BENCH_history.jsonl";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    all: bool,
    compare: Option<(PathBuf, PathBuf)>,
    breakdown: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        all: false,
        compare: None,
        breakdown: None,
    };
    let value = |flag: &str, argv: &mut dyn Iterator<Item = String>| {
        argv.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut argv)?),
            "--seed" => {
                args.seed = value(&flag, &mut argv)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&flag, &mut argv)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value(&flag, &mut argv)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--all" => args.all = true,
            "--compare" => {
                let base = value(&flag, &mut argv)?;
                let new = value(&flag, &mut argv)?;
                args.compare = Some((base.into(), new.into()));
            }
            "--breakdown" => args.breakdown = Some(value(&flag, &mut argv)?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `{name: {"value": v, "unit": u}}` for every declared metric; one the run
/// did not produce prints 0.
fn metrics_json(declared: &[(&str, &str)], values: &beas_benchmark::metrics::Metrics) -> Json {
    Json::obj(declared.iter().map(|(name, unit)| {
        let value = values.get(name).unwrap_or(0.0);
        (
            *name,
            Json::obj([("value", value.into()), ("unit", (*unit).into())]),
        )
    }))
}

/// Where cargo builds, which nothing commits.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("beas_benchmark")
}

fn run_one(workload: Workload, args: &Args) -> Result<ExitCode, String> {
    let config = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        trace_dir: trace_dir(),
    };
    let report = run(&config)?;
    eprintln!(
        "{} seed {} scale {} script {:#018x}: {} attempted, {} failed",
        workload.name,
        config.seed,
        report.scale,
        report.script_hash,
        report.attempted,
        report.failed
    );
    for why in &report.failures {
        eprintln!("  failed: {why}");
    }
    let declared: &[(&str, &str)] = if config.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(report.failed == 0)),
            ("attempted", report.attempted.into()),
            ("failed", report.failed.into()),
            ("metrics", metrics_json(declared, &report.metrics)),
        ])
    );
    Ok(ExitCode::SUCCESS)
}

/// Run this executable on one workload and parse the last line it prints.
fn child(workload: &Workload, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(last)
}

fn value_of(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let print = fingerprint(args.seed, args.seconds, args.quick);
    let mut lines = Vec::new();
    let mut failed = 0.0;
    let mut point: Vec<(&str, Option<f64>, Option<f64>)> = Vec::new();
    for workload in &WORKLOADS {
        let untraced = child(workload, args, false)?;
        let traced = child(workload, args, true)?;
        let count = |key: &str| {
            [&untraced, &traced]
                .iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum::<f64>()
        };
        failed += count("failed");
        point.push((
            workload.name,
            value_of(&traced, "read.point_p50_us"),
            value_of(&traced, "read.point_tuples_per_op"),
        ));
        let scale = workload.scale(args.quick);
        let hash = script_hash(&build_script(workload, args.seed, scale));
        let record = Json::obj([
            ("workload", workload.name.into()),
            ("scale", u64::from(scale).into()),
            ("script_hash", format!("{hash:#018x}").into()),
            ("fingerprint", print.clone()),
            ("correct", Json::Bool(count("failed") == 0.0)),
            ("attempted", count("attempted").into()),
            ("failed", count("failed").into()),
            (
                "end_to_end",
                untraced.get("metrics").cloned().unwrap_or(Json::Null),
            ),
            (
                "per_layer",
                traced.get("metrics").cloned().unwrap_or(Json::Null),
            ),
        ]);
        println!("{record}");
        lines.push(record.to_string());
    }

    // The scale comparison: point lookups must cost the same at both scales.
    let of = |name: &str| point.iter().find(|(w, _, _)| *w == name);
    if let (Some((_, Some(hot), Some(hot_t))), Some((_, Some(small), Some(small_t)))) =
        (of("covered_hot"), of("covered_small"))
    {
        if *small > 0.0 && *small_t > 0.0 {
            let derived = Json::obj([(
                "derived",
                Json::obj([
                    ("scale.point_lat_ratio", (hot / small).into()),
                    ("scale.point_tuples_ratio", (hot_t / small_t).into()),
                ]),
            )]);
            println!("{derived}");
            lines.push(derived.to_string());
        }
    }

    // One line per record, appended: the history keeps every run.
    if !args.quick && Path::new(HISTORY).parent().is_some_and(Path::is_dir) {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(HISTORY)
            .map_err(|e| format!("{HISTORY}: {e}"))?;
        for line in &lines {
            writeln!(file, "{line}").map_err(|e| format!("{HISTORY}: {e}"))?;
        }
    }
    Ok(if failed > 0.0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run_compare(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = compare::bounds_of(&Json::parse(&read(Path::new(BENCHMARK_JSON))?)?)?;
    let rows = compare::compare(
        &bounds,
        &compare::parse_results(&read(base)?),
        &compare::parse_results(&read(new)?),
    );
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".to_string());
    }
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if let Some((base, new)) = &args.compare {
            run_compare(base, new)
        } else if let Some(trace) = &args.breakdown {
            let text =
                std::fs::read_to_string(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
            print!("{}", beas_benchmark::trace::breakdown(&text)?);
            Ok(ExitCode::SUCCESS)
        } else if args.all {
            run_all(&args)
        } else {
            let name = args
                .workload
                .as_deref()
                .ok_or("give --workload <name>, --all, --compare <a> <b> or --breakdown <trace>")?;
            let workload = Workload::by_name(name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; known: {}", known.join(", "))
            })?;
            run_one(workload, &args)
        }
    });
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("beas_benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
