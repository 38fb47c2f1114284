//! The repository benchmark.
//!
//! ```text
//! artisan-perfbench --workload <table3-slice|design-corners|serve-overlap>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) sets its workload up several times,
//! measures for `--seconds`, checks every op and prints the end-to-end
//! metrics; a traced run (`--trace 1`) wraps each layer's public entry
//! points in bench-owned spans and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! is the digest of the run's deterministic outputs.

mod corners;
mod report;
mod serve;
mod table3;
mod trace;
mod training;

use report::{Kind, RunReport};

/// Workload scale: the benchmark itself, or a seconds-long version the
/// self-tests drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

pub const WORKLOADS: [&str; 3] = ["table3-slice", "design-corners", "serve-overlap"];

/// Worker threads, connections and trials per cell: the host's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64 of `seed` and a stream index: the per-pass, per-session
/// and per-wave seeds every workload derives its inputs from.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pins the program's environment: no kill switch, snapshot or journal
/// directory leaks in, and the thread pool uses every core.
pub fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ARTISAN_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("ARTISAN_THREADS", nproc().to_string());
}

/// Runs one workload and returns its report.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> RunReport {
    let mut report = match (workload, traced) {
        ("table3-slice", false) => table3::run(seed, seconds, size),
        ("table3-slice", true) => table3::run_traced(seed, size),
        ("design-corners", false) => corners::run(seed, seconds, size),
        ("design-corners", true) => corners::run_traced(seed, seconds, size),
        ("serve-overlap", false) => serve::run(seed, seconds, size),
        ("serve-overlap", true) => serve::run_traced(seed, seconds, size),
        _ => unreachable!("workload validated by the caller"),
    };
    if !traced {
        report.set("peak_rss_mb", report::peak_rss_mb());
    }
    report
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or(format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let traced = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    pin_environment();
    let report = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        Size::Full,
    );
    for why in report.check_failures.iter().take(20) {
        eprintln!("perfbench: check failed: {why}");
    }
    if args.traced {
        match trace::write_spans(&args.workload, &report.spans) {
            Ok(path) => eprintln!("perfbench: {} spans written to {path}", report.spans.len()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let digest = report.digest.map_or(0, |d| d.value());
    println!("digest {} seed={} {digest:016x}", args.workload, args.seed);
    let kind = if args.traced {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    println!("{}", report.json_line(kind));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(report: &RunReport) -> u64 {
        report.digest.map_or(0, |d| d.value())
    }

    #[test]
    fn tiny_runs_pass_their_checks_and_repeat_their_digest() {
        for workload in WORKLOADS {
            let a = run_workload(workload, 5, 0.01, false, Size::Tiny);
            let b = run_workload(workload, 5, 0.01, false, Size::Tiny);
            assert!(a.correct(), "{workload}: {:?}", a.check_failures);
            assert!(b.correct(), "{workload}: {:?}", b.check_failures);
            assert_eq!(digest(&a), digest(&b), "{workload}");
            let other = run_workload(workload, 6, 0.01, false, Size::Tiny);
            assert_ne!(digest(&a), digest(&other), "{workload}: seed must matter");
        }
    }

    #[test]
    fn traced_tiny_runs_print_the_untraced_digest_and_every_layer_metric() {
        for workload in WORKLOADS {
            let plain = run_workload(workload, 9, 0.01, false, Size::Tiny);
            let traced = run_workload(workload, 9, 0.01, true, Size::Tiny);
            assert!(traced.correct(), "{workload}: {:?}", traced.check_failures);
            assert_eq!(digest(&plain), digest(&traced), "{workload}");
            let line = traced.json_line(Kind::Layer);
            for d in report::CATALOGUE.iter().filter(|d| d.kind == Kind::Layer) {
                assert!(
                    line.contains(&format!("\"{}\"", d.name)),
                    "{workload}: {}",
                    d.name
                );
            }
        }
    }

    /// Every catalogue metric appears in `BENCHMARK.json` with its unit
    /// and direction, in the section of its kind.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        let per_layer = compact.find("\"per_layer\"").expect("per_layer section");
        for d in report::CATALOGUE {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                d.name, d.unit
            );
            let at = compact
                .find(&entry)
                .unwrap_or_else(|| panic!("{} missing from BENCHMARK.json", d.name));
            assert_eq!(
                at > per_layer,
                d.kind == Kind::Layer,
                "{} in the wrong section",
                d.name
            );
        }
        let names = compact.matches("\"name\":").count();
        assert_eq!(names, report::CATALOGUE.len() + WORKLOADS.len());
    }
}
