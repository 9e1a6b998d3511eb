//! `perilsd` — the TCB-as-a-service query daemon.
//!
//! ```text
//! perilsd [--world tiny|default|paper|fbi|cornell|tripwire] [--seed N]
//!         [--addr HOST:PORT] [--threads N] [--queue-cap N] [--no-figures]
//!         [--snapshot PATH] [--save-snapshot PATH]
//!         [--snapshot-backend heap|paged] [--page-cache-mb N]
//! ```
//!
//! Builds the world once (or restores one from a `.psa` archive in
//! milliseconds with `--snapshot`), then serves it warm:
//!
//! * data plane — `GET /name/<name>`, `GET /zone/<zone>`, `GET /names`,
//!   `GET /figures`
//! * control plane — `POST /reload` (optional body `{"seed":N}` or
//!   `{"snapshot":"PATH"}`), `POST /shutdown` (drain and exit)
//! * observability — `GET /healthz`, `GET /metrics`
//!
//! Exit codes: **0** — clean drain after `POST /shutdown`; **1** — bind
//! or transport failure; **2** — usage error.

use perils_service::{Daemon, ServiceConfig, WorldSpec};
use std::net::TcpListener;

const USAGE: &str = "usage: perilsd [--world tiny|default|paper|fbi|cornell|tripwire] [--seed N]
               [--addr HOST:PORT] [--threads N] [--queue-cap N] [--no-figures]
               [--snapshot PATH] [--save-snapshot PATH]
               [--snapshot-backend heap|paged] [--page-cache-mb N]

  --world WORLD   universe to serve: a seeded synthetic survey at tiny
                  (default), default, or paper scale; or the fbi.gov,
                  cornell Figure 1, or lint tripwire scenario
  --seed N        synthetic seed (default 20040722)
  --addr ADDR     listen address (default 127.0.0.1:8053; port 0 picks one)
  --threads N     worker threads, also used for snapshot builds
                  (default: available parallelism, max 16); data-plane
                  responses are byte-identical for every choice
  --queue-cap N   pending-connection cap; beyond it new connections get
                  503 (default 1024)
  --no-figures    skip the figure sweep at build time (GET /figures -> 404)
  --snapshot PATH       boot from a .psa archive instead of building
                        (--world/--seed still name the world plain
                        POST /reload rebuilds)
  --save-snapshot PATH  write the booted world to a .psa archive, then
                        keep serving
  --snapshot-backend B  byte store behind --snapshot boots and snapshot
                        reloads: heap (default; one resident buffer the
                        index views into) or paged (bounded page cache
                        over the file)
  --page-cache-mb N     paged backend's cache budget in MiB (default 16;
                        only valid with --snapshot-backend paged)

endpoints: GET /name/<n> /zone/<z> /names /figures /healthz /metrics
           POST /reload /shutdown

exit codes: 0 = clean drain; 1 = bind/transport failure; 2 = usage error";

/// Prints a usage error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    world: String,
    seed: u64,
    addr: String,
    config: ServiceConfig,
    snapshot: Option<String>,
    save_snapshot: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        world: "tiny".to_string(),
        seed: 20040722,
        addr: "127.0.0.1:8053".to_string(),
        config: ServiceConfig::default(),
        snapshot: None,
        save_snapshot: None,
    };
    let mut backend: Option<String> = None;
    let mut page_cache_mb: Option<u64> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value_of = |flag: &str| {
            argv.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--world" => args.world = value_of("--world"),
            "--seed" => {
                args.seed = value_of("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs an unsigned integer"))
            }
            "--addr" => args.addr = value_of("--addr"),
            "--threads" => {
                args.config.threads = value_of("--threads")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--threads needs an unsigned integer"))
            }
            "--queue-cap" => {
                args.config.queue_cap = value_of("--queue-cap")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--queue-cap needs an unsigned integer"))
            }
            "--no-figures" => args.config.figures = false,
            "--snapshot" => args.snapshot = Some(value_of("--snapshot")),
            "--save-snapshot" => args.save_snapshot = Some(value_of("--save-snapshot")),
            "--snapshot-backend" => backend = Some(value_of("--snapshot-backend")),
            "--page-cache-mb" => {
                page_cache_mb = Some(
                    value_of("--page-cache-mb")
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage_error("--page-cache-mb needs an integer >= 1")),
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    if args.config.queue_cap == 0 {
        usage_error("--queue-cap must be at least 1");
    }
    use perils_survey::SnapshotBackend;
    args.config.backend = match backend.as_deref() {
        None | Some("heap") => {
            if page_cache_mb.is_some() {
                usage_error("--page-cache-mb is only valid with --snapshot-backend paged");
            }
            SnapshotBackend::Heap
        }
        Some("paged") => SnapshotBackend::paged(page_cache_mb.unwrap_or(16) * 1024 * 1024),
        Some(other) => usage_error(&format!("unknown snapshot backend {other:?} (heap|paged)")),
    };
    args
}

fn main() {
    let args = parse_args();
    let spec = match WorldSpec::parse(&args.world, args.seed) {
        Ok(spec) => spec,
        Err(message) => usage_error(&message),
    };

    let daemon = match &args.snapshot {
        Some(path) => {
            eprintln!(
                "perilsd: loading snapshot {path} ({} backend) ...",
                args.config.backend.kind()
            );
            match Daemon::boot_from_archive(spec, args.config, path) {
                Ok(daemon) => daemon,
                Err(e) => {
                    eprintln!("perilsd: cannot load snapshot {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            eprintln!("perilsd: building {} ...", spec.describe());
            Daemon::boot(spec, args.config)
        }
    };
    let snap = daemon.store().current();
    eprintln!(
        "perilsd: epoch {} ready ({}) in {:.2}s: {} names, {} zones, {} servers, {} figures{}",
        snap.epoch,
        snap.stats.source.kind(),
        snap.stats.build.as_secs_f64(),
        snap.stats.names,
        snap.stats.zones,
        snap.stats.servers,
        snap.stats.figures,
        perils_util::peak_rss_mb()
            .map(|mb| format!(", peak RSS {mb:.0} MiB"))
            .unwrap_or_default(),
    );
    if let Some(path) = &args.save_snapshot {
        match snap.save_archive(path) {
            Ok(bytes) => eprintln!("perilsd: snapshot saved to {path} ({bytes} bytes)"),
            Err(e) => {
                eprintln!("perilsd: cannot save snapshot to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    drop(snap);

    let listener = match TcpListener::bind(&args.addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("perilsd: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.addr.clone());
    // The one stdout line, for scripts that want the resolved port.
    println!(
        "perilsd listening on http://{local} ({} workers)",
        daemon.config().threads
    );

    match daemon.serve(listener) {
        Ok(summary) => {
            eprintln!(
                "perilsd: drained cleanly: {} connections, {} requests, {} reloads",
                summary.connections, summary.requests, summary.reloads
            );
        }
        Err(e) => {
            eprintln!("perilsd: transport failure: {e}");
            std::process::exit(1);
        }
    }
}
