//! `serve_load` — deterministic load generator for the serving daemon.
//!
//! ```text
//! serve_load --addr unix:PATH|tcp:HOST:PORT --requests N
//!            [--clients K] [--mix put|get|query|mixed] [--seed S]
//!            [--shutdown]
//! ```
//!
//! Drives `--requests` framed requests across `--clients` connections
//! with a seed-derived schedule (see `smokescreen_bench::serve_client`)
//! and prints counts, throughput, latency percentiles and retry
//! counters. Every op goes through the fault-tolerant client —
//! idempotent puts, hedged gets, reconnects — so the same run works
//! against a healthy daemon and one running armed fault plans. With
//! `--shutdown`, sends a graceful `shutdown` after the load completes —
//! the daemon flushes and compacts before exiting. Exit codes: 0 ok,
//! 1 an op failed past its retry budget or on a fatal error response,
//! 2 usage errors.

use std::process::ExitCode;

use smokescreen_bench::serve_client::{run_load, LoadConfig, LoadMix};
use smokescreen_serve::{Request, Response, ServeAddr};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_addr(spec: &str) -> Result<ServeAddr, String> {
    if let Some(path) = spec.strip_prefix("unix:") {
        Ok(ServeAddr::Unix(path.into()))
    } else if let Some(addr) = spec.strip_prefix("tcp:") {
        Ok(ServeAddr::Tcp(addr.into()))
    } else {
        Err(format!("--addr {spec:?} must be unix:PATH or tcp:HOST:PORT"))
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = parse_addr(
        &flag_value(&args, "--addr").ok_or("missing --addr unix:PATH|tcp:HOST:PORT")?,
    )?;
    let requests: usize = flag_value(&args, "--requests")
        .ok_or("missing --requests N")?
        .parse()
        .map_err(|_| "--requests must be an integer")?;
    let mut config = LoadConfig::new(addr.clone(), requests);
    if let Some(raw) = flag_value(&args, "--clients") {
        config.clients = raw.parse().map_err(|_| "--clients must be an integer")?;
    }
    if let Some(raw) = flag_value(&args, "--mix") {
        config.mix = LoadMix::parse(&raw)?;
    }
    if let Some(raw) = flag_value(&args, "--seed") {
        config.seed = raw.parse().map_err(|_| "--seed must be an integer")?;
    }

    let report = match run_load(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve_load: load failed: {e}");
            return Ok(ExitCode::from(1));
        }
    };
    println!(
        "serve_load: {} requests over {} clients in {:.1} ms ({:.0} req/s)",
        report.requests,
        config.clients,
        report.wall_ms,
        report.throughput_per_s()
    );
    println!(
        "serve_load: puts {} gets {} queries {} not_found {} errors {}",
        report.puts, report.gets, report.queries, report.not_found, report.errors
    );
    println!(
        "serve_load: latency p50 {:.0} us p95 {:.0} us p99 {:.0} us max {:.0} us",
        report.p50_us, report.p95_us, report.p99_us, report.max_us
    );
    println!(
        "serve_load: retries {} reconnects {} hedged_gets {} sim_backoff {:.1} ms",
        report.retries, report.reconnects, report.hedged_gets, report.sim_backoff_ms
    );

    if args.iter().any(|a| a == "--shutdown") {
        let mut conn = addr.connect().map_err(|e| format!("shutdown connect: {e}"))?;
        match conn.request(&Request::Shutdown)? {
            Response::Bye => println!("serve_load: daemon acknowledged shutdown"),
            other => return Err(format!("shutdown: expected bye, got {other:?}")),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("serve_load: {e}");
            ExitCode::from(2)
        }
    }
}
