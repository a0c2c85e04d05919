//! roadbench — the repo's benchmark.
//!
//! ```text
//! roadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     object `BENCHMARK.json` describes
//! roadbench [--seed <n>] [--seconds <s>] [--ops-scale <f>]
//!     the whole suite, each workload in a child process, untraced then
//!     traced; writes out/results.json and out/trace.<workload>.json
//! roadbench --selfcheck [...]
//!     the suite twice; fails unless the two sets of results agree
//! roadbench --spread <runs> [--workload <name>] [...]
//!     every workload (or the one named) <runs> times on consecutive
//!     seeds; prints each end-to-end metric's quartile spread beside its
//!     bound
//! ```
//!
//! See README.md in this directory for what is measured and why.

mod json;
mod metrics;
mod oracle;
mod probes;
mod reference;
mod stats;
mod suite;
mod trace;
mod workloads;
mod world;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Budget, Run};

/// The seed the suite uses when none is given (EDBT 2009).
const DEFAULT_SEED: u64 = 0xEDB7_2009;
/// Ops whose spans are written to the trace file; aggregates in it cover
/// every span recorded.
const TRACE_FILE_OPS: u32 = 2_000;

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Scales every fixed op count of the traced run (tests use 0.01).
    ops_scale: f64,
    selfcheck: bool,
    /// Runs per workload of the seed-to-seed spread table; 0 = not asked.
    spread: usize,
    /// Damages one expected answer: the run must then fail.
    corrupt_expected: bool,
    print_manifest: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        ops_scale: 1.0,
        selfcheck: false,
        spread: 0,
        corrupt_expected: false,
        print_manifest: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--ops-scale" => {
                let v = value()?;
                args.ops_scale = v.parse().map_err(|e| format!("--ops-scale {v}: {e}"))?;
            }
            "--selfcheck" => args.selfcheck = true,
            "--spread" => {
                let v = value()?;
                args.spread = v.parse().map_err(|e| format!("--spread {v}: {e}"))?;
            }
            "--corrupt-expected" => args.corrupt_expected = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {}: expected 0 < s <= 60", args.seconds));
    }
    if !(args.ops_scale > 0.0 && args.ops_scale <= 1.0) {
        return Err(format!("--ops-scale {}: expected 0 < f <= 1", args.ops_scale));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("roadbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", metrics::manifest().pretty());
        return ExitCode::SUCCESS;
    }
    let passed = match &args.workload {
        Some(name) if !metrics::WORKLOADS.iter().any(|w| w.name == name) => {
            eprintln!("roadbench: unknown workload {name}");
            return ExitCode::from(2);
        }
        _ if args.spread > 0 => suite::spread(&args, args.spread),
        Some(name) => run_one(name, &args),
        None if args.selfcheck => suite::selfcheck(&args),
        None => suite::run(&args).is_some_and(|r| r.passed),
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where results and traces go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process in MB: the most memory it ever held.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// A fixed arithmetic kernel, timed before and after the windows: if the
/// host slowed down in between, someone else was using it.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

struct Row {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Runs one workload once and prints the result object as the last line.
fn run_one(name: &str, args: &Args) -> bool {
    println!(
        "roadbench {name}: seed {:#x}, {} s, trace {}, {} hardware thread(s)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hw_threads()
    );
    let (rows, attempted, failed) =
        if args.trace { traced(name, args) } else { end_to_end(name, args) };
    for row in &rows {
        println!("  {:<46} {:>16.6} {:<6} {}", row.name, row.value, row.unit, row.note);
    }
    println!("  answers checked: {attempted}, wrong or failed: {failed}");
    let unmeasured: Vec<&str> =
        rows.iter().filter(|r| !r.value.is_finite()).map(|r| r.name).collect();
    if !unmeasured.is_empty() {
        eprintln!("roadbench: no value for {unmeasured:?}");
    }
    let correct = failed == 0 && unmeasured.is_empty();
    let metrics = rows
        .iter()
        .map(|r| (r.name, Json::obj([("value", Json::num(r.value)), ("unit", Json::str(r.unit))])));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    correct
}

fn window(args: &Args, share: f64) -> Budget {
    Budget::Time(Duration::from_secs_f64(args.seconds * share))
}

fn end_to_end(name: &str, args: &Args) -> (Vec<Row>, usize, usize) {
    let mut ready = workloads::prepare(name, args.seed, workloads::SETUPS, args.corrupt_expected)
        .expect("the workload name was checked");
    ready.workload.warm();
    let run = ready.workload.run(window(args, 1.0), false);
    let index_mb = ready.workload.index_bytes() as f64 / 1e6;
    let s = run.summary();
    let value = |metric: &str| match metric {
        metrics::SETUP_S => (
            ready.setup_s,
            format!("median of {} set-ups; raw {:.6}", workloads::SETUPS, ready.raw_setup_s),
        ),
        metrics::OPS_PER_S => (
            s.ops_per_s,
            format!(
                "{} ops in {:.3} s, host slowdown {:.4} over {} slices; raw {:.6}",
                run.ops(),
                run.window_s,
                s.host_slowdown,
                s.slices,
                s.raw_ops_per_s
            ),
        ),
        metrics::OP_P50_US => (s.p50_us, format!("n = {}; raw {:.3}", s.p50_samples, s.raw_p50_us)),
        metrics::OP_TAIL_US => {
            let (n, p) = (s.tail_samples, run.tail_percentile);
            let beyond = stats::samples_beyond(n, p);
            let weak = if stats::tail_supported(n, p) { "" } else { " (fewer than ten)" };
            (s.tail_us, format!("p{p}, n = {n}, {beyond} beyond{weak}; raw {:.3}", s.raw_tail_us))
        }
        metrics::INDEX_MB => (index_mb, String::new()),
        metrics::PEAK_RSS_MB => (peak_rss_mb().unwrap_or(f64::NAN), "VmHWM".into()),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let rows = metrics::END_TO_END
        .iter()
        .map(|m| {
            let (value, note) = value(m.name);
            Row { name: m.name, value, unit: m.unit, note }
        })
        .collect();
    (rows, run.attempted, run.failed)
}

fn traced(name: &str, args: &Args) -> (Vec<Row>, usize, usize) {
    let mut ready = workloads::prepare(name, args.seed, 1, args.corrupt_expected)
        .expect("the workload name was checked");
    ready.workload.warm();
    // Tracing off, then on, a quarter of the run each: their difference
    // is what tracing costs. The rest of the run goes to the layer probes.
    let calib_before = calibrate();
    let plain = ready.workload.run(window(args, 0.25), false);
    let run = ready.workload.run(window(args, 0.25), true);
    let calib_after = calibrate();
    let rate = |r: &Run| r.summary().ops_per_s;
    let oracle_s = ready.oracle_s;
    drop(ready);

    let probes = probes::run_all(args.seed, args.ops_scale);
    let mut values = probes.values;
    values.push(("trace.overhead_share", 1.0 - rate(&run) / rate(&plain)));
    values.push(("trace.child_cover_share", trace::child_cover_share(&run.spans)));
    values.push(("harness.oracle_s", oracle_s));
    values.push(("harness.calib_drift", (calib_after - calib_before).abs() / calib_before));
    values.push(("harness.host_slowdown", run.summary().host_slowdown));
    values.push(("harness.ops_traced", run.ops() as f64));

    if let Err(e) = write_trace(name, args, &run) {
        eprintln!("roadbench: trace file not written: {e}");
    }
    let rows = metrics::PER_LAYER
        .iter()
        .map(|m| {
            let value = values.iter().find(|v| v.0 == m.name).map_or(f64::NAN, |v| v.1);
            Row { name: m.name, value, unit: m.unit, note: format!("-> {}", m.moves) }
        })
        .collect();
    (
        rows,
        plain.attempted + run.attempted + probes.attempted,
        plain.failed + run.failed + probes.failed,
    )
}

fn write_trace(name: &str, args: &Args, run: &Run) -> std::io::Result<()> {
    let by_name = trace::by_name(&run.spans)
        .into_iter()
        .map(|(name, spans, total_ns, self_ns)| {
            Json::obj([
                ("name", Json::str(name)),
                ("spans", Json::Num(spans as f64)),
                ("total_ns", Json::Num(total_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
            ])
        })
        .collect();
    let head: Vec<&trace::Span> = run.spans.iter().filter(|s| s.op < TRACE_FILE_OPS).collect();
    let doc = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::str(format!("{:#x}", args.seed))),
        ("window_s", Json::num(run.window_s)),
        ("ops", Json::Num(run.ops() as f64)),
        ("spans_recorded", Json::Num(run.spans.len() as f64)),
        ("spans_written", Json::Num(head.len() as f64)),
        ("by_name", Json::Arr(by_name)),
        ("spans", trace::to_json(&head)),
    ]);
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join(format!("trace.{name}.json")), doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short windows and a hundredth of every fixed op count: the worlds
    /// are full size, so set-up is what these tests spend their time on.
    fn smoke(trace: bool) -> Args {
        let argv = ["--seed", "3", "--seconds", "0.4", "--ops-scale", "0.01"];
        Args { trace, ..parse_args(argv.iter().map(|s| s.to_string())).unwrap() }
    }

    /// The workload runs untraced and traced with every answer right and
    /// reports exactly the declared metrics, each with a usable value.
    fn reports_every_declared_metric(name: &str) -> Vec<Row> {
        let (rows, attempted, failed) = end_to_end(name, &smoke(false));
        assert!(attempted >= 1 && failed == 0, "{name}: {failed} of {attempted} failed");
        let declared: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(rows.iter().map(|r| r.name).collect::<Vec<_>>(), declared);
        for (row, m) in rows.iter().zip(&metrics::END_TO_END) {
            assert!(
                row.value.is_finite() && row.value > 0.0,
                "{name}: {} = {}",
                row.name,
                row.value
            );
            assert_eq!(row.unit, m.unit);
        }

        let (rows, attempted, failed) = traced(name, &smoke(true));
        assert!(attempted >= 1 && failed == 0, "{name}: {failed} of {attempted} failed");
        let declared: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(rows.iter().map(|r| r.name).collect::<Vec<_>>(), declared);
        for (row, m) in rows.iter().zip(&metrics::PER_LAYER) {
            assert!(row.value.is_finite(), "{name}: {} has no value", row.name);
            assert_eq!(row.unit, m.unit);
        }

        let file = out_dir().join(format!("trace.{name}.json"));
        let doc = json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some(name));
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert!(!spans.is_empty());
        assert!(spans.iter().any(|s| s.get("parent") == Some(&Json::Null)), "a root span");
        assert!(spans.iter().any(|s| s.get("parent").and_then(Json::as_f64).is_some()), "a child");
        rows
    }

    #[test]
    fn mem_serve_reports_every_declared_metric() {
        reports_every_declared_metric(metrics::MEM_SERVE);
    }

    #[test]
    fn paged_serve_reports_every_declared_metric() {
        reports_every_declared_metric(metrics::PAGED_SERVE);
    }

    #[test]
    fn live_mixed_reports_every_declared_metric() {
        reports_every_declared_metric(metrics::LIVE_MIXED);
    }

    #[test]
    fn live_update_reports_every_declared_metric() {
        reports_every_declared_metric(metrics::LIVE_UPDATE);
    }

    /// The spans of a build cycle leave almost none of it unexplained.
    #[test]
    fn build_reopen_reports_every_declared_metric() {
        let rows = reports_every_declared_metric(metrics::BUILD_REOPEN);
        let cover = rows.iter().find(|r| r.name == "trace.child_cover_share").unwrap();
        assert!(cover.value >= 0.95, "children cover {} of a cycle", cover.value);
    }

    #[test]
    fn seeds_parse_as_decimal_and_hex() {
        let seed =
            |s: &str| parse_args(["--seed", s].iter().map(|s| s.to_string())).map(|a| a.seed);
        assert_eq!(seed("0xEDB72009"), Ok(0xEDB7_2009));
        assert_eq!(seed("42"), Ok(42));
        assert!(seed("forty-two").is_err());
    }
}
