//! `sdlo-service` — the tile-advisor daemon.
//!
//! ```text
//! sdlo-service [--addr HOST:PORT] [--workers N] [--queue N]
//!              [--cache-capacity N] [--max-line BYTES] [--cache-dir DIR]
//!              [--slow-micros N]
//! ```
//!
//! Speaks newline-delimited JSON; see the crate docs and the repository
//! README for the wire protocol. Runs until it receives `{"op":"shutdown"}`.
//!
//! Setting `SDLO_TRACE=1` installs the engine's flight recorder as the
//! process trace collector: request spans stream into its bounded span
//! ring, `{"op":"debug"}` dumps them, and requests slower than
//! `--slow-micros` capture their full span tree.

use sdlo_service::server::LineHandler;
use sdlo_service::{serve, EngineConfig, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: sdlo-service [--addr HOST:PORT] [--workers N] [--queue N]\n\
         \x20                   [--cache-capacity N] [--max-line BYTES]\n\
         \x20                   [--cache-dir DIR] [--slow-micros N]\n\
         \n\
         Tile-advisor daemon: newline-delimited JSON over TCP.\n\
         Requests: analyze | predict | advise | batch | lint | stats |\n\
         \x20         metrics | debug | shutdown ({{\"op\":\"metrics\",\"raw\":true}}\n\
         \x20         for a plain-text Prometheus scrape).\n\
         --cache-dir enables the persistent model-cache tier: built models\n\
         are stored there and reloaded after a restart (safe to share\n\
         between backends).\n\
         --slow-micros sets the flight recorder's slow-request capture\n\
         threshold (0 disables captures). SDLO_TRACE=1 enables span\n\
         recording into the flight recorder; SDLO_LOG=error|warn|info|debug\n\
         sets the structured-log level (default info).\n\
         Defaults: --addr 127.0.0.1:7464 --queue 64 --cache-capacity 256\n\
         \x20         --max-line 1048576 --slow-micros 100000, and --workers\n\
         \x20         = the number of CPUs this process may run on."
    );
    std::process::exit(2);
}

fn parse_args() -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7464".to_string(),
        engine: EngineConfig::default(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value_of = |flag: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("error: {flag} requires a value\n");
                usage();
            }
        };
        match flag.as_str() {
            "--addr" => config.addr = value_of("--addr"),
            "--workers" => match value_of("--workers").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--queue" => match value_of("--queue").parse() {
                Ok(n) if n > 0 => config.queue = n,
                _ => usage(),
            },
            "--cache-capacity" => match value_of("--cache-capacity").parse() {
                Ok(n) if n > 0 => config.engine.cache_capacity = n,
                _ => usage(),
            },
            "--max-line" => match value_of("--max-line").parse() {
                Ok(n) if n > 0 => config.max_line_bytes = n,
                _ => usage(),
            },
            "--cache-dir" => {
                config.engine.cache_dir = Some(value_of("--cache-dir").into());
            }
            "--slow-micros" => match value_of("--slow-micros").parse() {
                Ok(n) => config.engine.slow_threshold_micros = n,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag `{other}`\n");
                usage();
            }
        }
    }
    config
}

fn main() {
    let config = parse_args();
    match serve(config) {
        Ok(handle) => {
            if std::env::var("SDLO_TRACE")
                .map(|v| v == "1")
                .unwrap_or(false)
            {
                sdlo_trace::install(handle.engine().flight());
            }
            println!("sdlo-service listening on {}", handle.addr());
            handle.run_until_shutdown();
            println!("sdlo-service stopped");
        }
        Err(e) => {
            eprintln!("error: failed to bind: {e}");
            std::process::exit(1);
        }
    }
}
