//! The `afg-serve` daemon binary.
//!
//! ```text
//! cargo run --release -p afg-service --bin afg-serve -- [--addr HOST:PORT] [--threads N]
//! ```
//!
//! Runs until killed.  See the crate docs (or the README's "Grading
//! service" section) for the endpoint reference and curl examples.

use afg_service::ServiceConfig;

fn usage() -> String {
    "usage: afg-serve [--addr HOST:PORT] [--threads N]\n\
     \x20                [--idle-timeout-ms N] [--header-timeout-ms N]\n\
     \x20                [--queue-depth N] [--max-connections N] [--no-tracing]\n\
     \x20                [--slow-grade-ms N] [--trace-ring N]\n\
     \n\
     --addr HOST:PORT  bind address (default 127.0.0.1:8080; port 0 = ephemeral)\n\
     --threads N       CPU worker threads executing requests (default 16);\n\
     \x20                connections are multiplexed by one epoll reactor\n\
     --idle-timeout-ms N    close idle keep-alive connections after N ms\n\
     \x20                (default 5000)\n\
     --header-timeout-ms N  close connections that dribble a request for more\n\
     \x20                than N ms — slow-loris guard (default 10000)\n\
     --queue-depth N   parsed-request queue bound before 503 shedding\n\
     \x20                (default 1024)\n\
     --max-connections N    open-connection cap before 503 shedding\n\
     \x20                (default 16384)\n\
     --no-tracing      disable per-request span traces (/debug/traces, X-Afg-Trace-Id)\n\
     --slow-grade-ms N log the span tree of grades slower than N ms to stderr\n\
     \x20                (default 1000; 0 disables the slow-grade log)\n\
     --trace-ring N    recent traces retained for /debug/traces (default 64)"
        .to_string()
}

fn main() {
    let mut config = ServiceConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServiceConfig::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next() {
                Some(addr) => config.addr = addr.clone(),
                None => exit_usage("option '--addr' requires a value"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(threads) if threads > 0 => config.threads = threads,
                _ => exit_usage("option '--threads' expects a positive integer"),
            },
            "--idle-timeout-ms" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => {
                    config.keep_alive_timeout = std::time::Duration::from_millis(ms)
                }
                _ => exit_usage("option '--idle-timeout-ms' expects a positive integer"),
            },
            "--header-timeout-ms" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => config.header_timeout = std::time::Duration::from_millis(ms),
                _ => exit_usage("option '--header-timeout-ms' expects a positive integer"),
            },
            "--queue-depth" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(depth) if depth > 0 => config.queue_depth = depth,
                _ => exit_usage("option '--queue-depth' expects a positive integer"),
            },
            "--max-connections" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(cap) if cap > 0 => config.max_connections = cap,
                _ => exit_usage("option '--max-connections' expects a positive integer"),
            },
            "--no-tracing" => config.tracing = false,
            "--slow-grade-ms" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(0) => config.slow_grade = None,
                Some(ms) => config.slow_grade = Some(std::time::Duration::from_millis(ms)),
                None => exit_usage("option '--slow-grade-ms' expects a non-negative integer"),
            },
            "--trace-ring" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(cap) if cap > 0 => config.trace_ring = cap,
                _ => exit_usage("option '--trace-ring' expects a positive integer"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other => exit_usage(&format!("unknown option '{other}'")),
        }
    }

    match afg_service::start(config) {
        Ok(handle) => {
            println!(
                "afg-serve listening on http://{} (POST /problems to register an assignment)",
                handle.addr()
            );
            handle.wait();
        }
        Err(err) => {
            eprintln!("failed to start: {err}");
            std::process::exit(1);
        }
    }
}

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}\n\n{}", usage());
    std::process::exit(2)
}
