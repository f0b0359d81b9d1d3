//! The repository benchmark: three closed-loop workloads against the
//! real NRMI stack over loopback TCP, one client thread and one
//! connection each.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-tree|warm-large|echo-pipelined --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with span recording off.
//! `--trace 1` alternates untraced and traced blocks of operations and
//! reports per-layer self times and counts, the share of operation time
//! the layers account for, and the tracing overhead. Every output is
//! checked; the last line of standard output is one JSON object, and a
//! run with any failed check exits non-zero.

mod probe;
mod runner;
mod stats;
mod trace;
mod workloads;

use runner::{run, RunConfig, RunResult, P99_CHUNK};
use stats::{median, median_f64};
use workloads::cold_tree::ColdTree;
use workloads::echo_pipelined::EchoPipelined;
use workloads::warm_large::WarmLarge;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Layer self times must account for at least this share of the traced
/// operation time.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
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
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // JSON has no NaN or infinity; an unmeasurable figure reads as 0.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit }
}

fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let calls = r.calls.max(1) as f64;
    vec![
        metric("calls_per_s", r.calls_per_s(), "calls/s"),
        metric("p50_us", r.p50_us(), "us"),
        metric("cpu_us_per_call", r.cpu_us_per_call(), "us"),
        metric(
            "wire_bytes_per_call",
            (r.outcome.request_bytes + r.outcome.reply_bytes) as f64 / calls,
            "B",
        ),
        metric("rss_peak_mb", r.peak_rss_kb as f64 / 1024.0, "MB"),
        metric("setup_s", median_f64(r.setup_s.clone()), "s"),
    ]
}

fn per_layer(r: &RunResult) -> Vec<Metric> {
    let l = &r.layers;
    // Span-derived figures are per traced call; counters run over every
    // call of the measured phase.
    let traced = r.traced_calls.max(1) as f64;
    let calls = r.calls.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / traced;
    let per_call = |n: u64| n as f64 / calls;
    let (cold_req, cold_rep, warm_req, warm_rep) = if r.warm {
        (0, 0, r.outcome.request_bytes, r.outcome.reply_bytes)
    } else {
        (r.outcome.request_bytes, r.outcome.reply_bytes, 0, 0)
    };
    let traced_p50 = median(&r.traced_latencies_ns) / 1e3;
    vec![
        metric("protocol.marshal_us", us(l.marshal_ns), "us"),
        metric(
            "protocol.marshal_allocs",
            l.marshal_allocs as f64 / traced,
            "count",
        ),
        metric("protocol.apply_us", us(l.apply_ns), "us"),
        metric(
            "protocol.apply_allocs",
            l.apply_allocs as f64 / traced,
            "count",
        ),
        metric("protocol.request_bytes", per_call(cold_req), "B"),
        metric("protocol.reply_bytes", per_call(cold_rep), "B"),
        metric(
            "restore.restored_objects",
            per_call(r.outcome.restored_objects),
            "count",
        ),
        metric(
            "restore.new_objects",
            per_call(r.outcome.new_objects),
            "count",
        ),
        metric("warm.client_us", us(l.warm_ns), "us"),
        metric("warm.client_allocs", l.warm_allocs as f64 / traced, "count"),
        metric("warm.request_bytes", per_call(warm_req), "B"),
        metric("warm.reply_bytes", per_call(warm_rep), "B"),
        metric(
            "warm.stale_patches",
            per_call(r.outcome.stale_patches),
            "count",
        ),
        metric("reliable.self_us", us(l.reliable_ns), "us"),
        metric("reliable.retries", per_call(r.retries), "count"),
        metric("reliable.replays", per_call(r.replays), "count"),
        metric("transport.send_us", us(l.send_ns), "us"),
        metric("transport.recv_wait_us", us(l.recv_wait_ns), "us"),
        metric(
            "transport.write_syscalls",
            per_call(r.write_syscalls),
            "count",
        ),
        metric(
            "transport.read_syscalls",
            per_call(r.read_syscalls),
            "count",
        ),
        metric("transport.bytes_copied", per_call(r.bytes_copied), "B"),
        metric("server.execute_us", us(l.execute_ns), "us"),
        metric(
            "server.other_us",
            (l.recv_wait_ns as f64 - l.execute_ns as f64) / 1e3 / traced,
            "us",
        ),
        metric("server.allocs", per_call(r.server_allocs), "count"),
        metric(
            "heap.rss_growth_kb_per_call",
            r.rss_growth_kb_per_call,
            "KB",
        ),
        metric(
            "heap.client_live_objects",
            r.client_live_objects as f64,
            "count",
        ),
        metric("latency.p99_us", r.p99_us(), "us"),
        metric("trace.coverage", l.coverage(), "ratio"),
        metric("trace.unattributed_us", us(l.unattributed_ns), "us"),
        metric(
            "trace.overhead_frac",
            traced_p50 / r.p50_us() - 1.0,
            "ratio",
        ),
    ]
}

fn print_result(workload: &str, trace: bool, r: &RunResult, metrics: &[Metric], correct: bool) {
    eprintln!("workload {workload} (trace {})", u8::from(trace));
    for m in metrics {
        eprintln!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  {:<28} {:>16.4} ratio  ({} of {} operations)",
        "failed_frac",
        r.failed_frac(),
        r.failed,
        r.attempted
    );
    eprintln!("  {:<28} {:>16.4} us", "p99_us", r.p99_us());
    eprintln!(
        "  p99 is the median over {} chunks of {P99_CHUNK} operations ({} samples){}",
        r.p99_chunks(),
        r.latencies_ns.len(),
        if r.p99_chunks() < 3 {
            " -- too few chunks: the run is too short for a steady p99"
        } else {
            ""
        }
    );
    let q = |p: f64| stats::quantile(&r.latencies_ns, p) / 1e3;
    eprintln!(
        "  latency us over the whole run: p50 {:.0}  p90 {:.0}  p99 {:.0}  p99.9 {:.0}  max {:.0}",
        q(0.5),
        q(0.9),
        q(0.99),
        q(0.999),
        q(1.0)
    );
    if let Some(e) = &r.first_error {
        eprintln!("  first failure: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cold-tree|warm-large|echo-pipelined \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let cfg = args.config;
    let result = match args.workload.as_str() {
        "cold-tree" => run::<ColdTree>(cfg),
        "warm-large" => run::<WarmLarge>(cfg),
        "echo-pipelined" => run::<EchoPipelined>(cfg),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut correct = result.failed == 0;
    let metrics = if cfg.trace {
        let coverage = result.layers.coverage();
        if coverage < MIN_COVERAGE {
            eprintln!(
                "perfbench: layer self times cover {:.1}% of traced operation time, \
                 below the {:.0}% the coverage check requires",
                coverage * 100.0,
                MIN_COVERAGE * 100.0
            );
            correct = false;
        }
        per_layer(&result)
    } else {
        end_to_end(&result)
    };
    print_result(&args.workload, cfg.trace, &result, &metrics, correct);
    if !correct {
        std::process::exit(1);
    }
}
