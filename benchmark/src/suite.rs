//! The whole suite: every workload in a child process of its own (so
//! set-up time and peak memory are per workload), untraced then traced;
//! `out/results.json`; and `--selfcheck`, which runs it twice and compares.

use crate::json::{self, Json};
use crate::metrics::{self, Better};
use crate::stats::{median, quartile_spread};
use crate::{hw_threads, out_dir, Args};
use std::process::{Command, Stdio};

/// One workload's numbers, as its two child runs reported them.
pub struct WorkloadResult {
    pub name: &'static str,
    pub end_to_end: Vec<(String, f64)>,
    pub per_layer: Vec<(String, f64)>,
    attempted: f64,
    failed: f64,
}

pub struct Results {
    pub workloads: Vec<WorkloadResult>,
    /// Every child exited cleanly with every answer right.
    pub passed: bool,
}

/// Runs one child and returns its result object.
fn child(workload: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--ops-scale", &args.ops_scale.to_string()])
        .stdout(Stdio::piped());
    if args.corrupt_expected {
        cmd.arg("--corrupt-expected");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("the child printed nothing")?;
    for line in lines {
        println!("{line}");
    }
    let result = json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    if !output.status.success() {
        eprintln!(
            "roadbench: {workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        );
    }
    Ok(result)
}

fn metric_values(result: &Json) -> Vec<(String, f64)> {
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or_default();
    metrics.iter().filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?))).collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn run(args: &Args) -> Option<Results> {
    let mut results = Results { workloads: Vec::new(), passed: true };
    for w in &metrics::WORKLOADS {
        let mut result = WorkloadResult {
            name: w.name,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0.0,
            failed: 0.0,
        };
        for trace in [false, true] {
            let reported = match child(w.name, args, trace) {
                Ok(reported) => reported,
                Err(e) => {
                    eprintln!("roadbench: {} (trace {}): {e}", w.name, u8::from(trace));
                    return None;
                }
            };
            results.passed &= reported.get("correct").and_then(Json::as_bool) == Some(true);
            result.attempted += reported.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            result.failed += reported.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let values = metric_values(&reported);
            if trace {
                result.per_layer = values;
            } else {
                result.end_to_end = values;
            }
        }
        results.workloads.push(result);
    }
    let path = out_dir().join("results.json");
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, to_json(args, &results).pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("roadbench: {}: {e}", path.display()),
    }
    println!("suite {}", if results.passed { "passed" } else { "FAILED: a run was not correct" });
    Some(results)
}

fn to_json(args: &Args, results: &Results) -> Json {
    let unit_of = |name: &str| {
        let e2e = metrics::END_TO_END.iter().map(|m| (m.name, m.unit));
        let layer = metrics::PER_LAYER.iter().map(|m| (m.name, m.unit));
        e2e.chain(layer).find(|m| m.0 == name).map_or("", |m| m.1)
    };
    let table = |values: &[(String, f64)]| {
        Json::obj(values.iter().map(|(name, value)| {
            let cell =
                Json::obj([("value", Json::num(*value)), ("unit", Json::str(unit_of(name)))]);
            (name.clone(), cell)
        }))
    };
    Json::obj([
        (
            "host",
            Json::obj([
                ("hw_threads", Json::Num(hw_threads() as f64)),
                ("rustc", Json::str(command_line("rustc", &["-V"]))),
                ("commit", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
                ("os", Json::str(std::env::consts::OS)),
                ("arch", Json::str(std::env::consts::ARCH)),
            ]),
        ),
        (
            "settings",
            Json::obj([
                ("seed", Json::str(format!("{:#x}", args.seed))),
                // Equal fingerprints mean byte-identical worlds and streams.
                (
                    "inputs_fingerprint",
                    Json::str(format!("{:#018x}", crate::world::fingerprint(args.seed))),
                ),
                ("seconds", Json::num(args.seconds)),
                ("ops_scale", Json::num(args.ops_scale)),
                ("setups_per_run", Json::Num(crate::workloads::SETUPS as f64)),
                ("stream_ops", Json::Num(crate::world::STREAM_LEN as f64)),
                ("probe_mem_ops", Json::Num(crate::probes::MEM_OPS as f64)),
                ("probe_paged_ops", Json::Num(crate::probes::PAGED_OPS as f64)),
                ("probe_live_ticks", Json::Num(crate::probes::LIVE_TICKS as f64)),
                ("probe_build_cycles", Json::Num(crate::probes::BUILD_CYCLES as f64)),
            ]),
        ),
        (
            "workloads",
            Json::obj(results.workloads.iter().map(|w| {
                let body = Json::obj([
                    ("attempted", Json::Num(w.attempted)),
                    ("failed", Json::Num(w.failed)),
                    ("end_to_end", table(&w.end_to_end)),
                    ("per_layer", table(&w.per_layer)),
                ]);
                (w.name, body)
            })),
        ),
    ])
}

/// Whether a metric is a count that the same seed must reproduce exactly:
/// it comes from a fixed op sequence with one client.
fn is_exact(name: &str) -> bool {
    name == metrics::INDEX_MB
        || metrics::PER_LAYER.iter().any(|m| m.name == name && matches!(m.unit, "count" | "MB"))
}

/// Runs the suite twice on the same binary. Passes when every answer was
/// right, every end-to-end metric of the second set is within its bound
/// of the first, and every exact count is identical.
pub fn selfcheck(args: &Args) -> bool {
    let (Some(a), Some(b)) = (run(args), run(args)) else { return false };
    let mut ok = a.passed && b.passed;
    println!("\nselfcheck: second run against the first");
    println!(
        "{:<14} {:<40} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "change", "bound"
    );
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        for ((name, x), (_, y)) in wa.end_to_end.iter().zip(&wb.end_to_end) {
            let Some(m) = metrics::END_TO_END.iter().find(|m| m.name == name) else { continue };
            // Positive when the second run is worse.
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let verdict = if is_exact(name) && x != y {
                "DIFFERS"
            } else if worse.abs() > m.bound {
                "BEYOND"
            } else {
                ""
            };
            ok &= verdict.is_empty();
            println!(
                "{:<14} {:<40} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {verdict}",
                wa.name,
                name,
                x,
                y,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        for ((name, x), (_, y)) in wa.per_layer.iter().zip(&wb.per_layer) {
            if is_exact(name) && x != y {
                ok = false;
                println!(
                    "{:<14} {:<40} {:>14.4} {:>14.4} DIFFERS (exact count)",
                    wa.name, name, x, y
                );
            }
        }
    }
    let exact = metrics::PER_LAYER.iter().filter(|m| is_exact(m.name)).count();
    println!("{exact} exact per-layer counts compared on each workload");
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}

/// Runs every workload `runs` times, each with another seed, and prints
/// for each end-to-end metric the distance between the first and third
/// quartile as a share of the median: the spread the driver accepts the
/// benchmark on. Passes when every spread but `setup_s`'s is within the
/// metric's bound; the aim is a third of it.
pub fn spread(args: &Args, runs: usize) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>9} {:>7}   values",
        "workload", "metric", "median", "spread", "bound"
    );
    let asked = |name: &str| args.workload.as_deref().is_none_or(|w| w == name);
    for w in metrics::WORKLOADS.iter().filter(|w| asked(w.name)) {
        let mut samples: Vec<Vec<(String, f64)>> = Vec::new();
        for i in 0..runs {
            let seeded = Args { seed: args.seed.wrapping_add(i as u64), ..args.clone() };
            match child(w.name, &seeded, false) {
                Ok(result) if result.get("correct").and_then(Json::as_bool) == Some(true) => {
                    samples.push(metric_values(&result));
                }
                Ok(_) => {
                    eprintln!("roadbench: {} with seed {:#x} was not correct", w.name, seeded.seed);
                    return false;
                }
                Err(e) => {
                    eprintln!("roadbench: {}: {e}", w.name);
                    return false;
                }
            }
        }
        for m in &metrics::END_TO_END {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|run| run.iter().find(|v| v.0 == m.name).map(|v| v.1))
                .collect();
            let spread = quartile_spread(&values).unwrap_or(f64::NAN);
            let verdict = if m.name == metrics::SETUP_S {
                "(not held to its bound)"
            } else if spread.is_nan() || spread > m.bound {
                ok = false;
                "BEYOND THE BOUND"
            } else if spread > m.bound / 3.0 {
                "above a third of the bound"
            } else {
                ""
            };
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<14} {:<14} {:>14.4} {:>8.2}% {:>6.1}%   {} {verdict}",
                w.name,
                m.name,
                median(&values),
                spread * 100.0,
                m.bound * 100.0,
                listed.join(" ")
            );
        }
    }
    println!("spread {}", if ok { "within every bound" } else { "BEYOND A BOUND" });
    ok
}
