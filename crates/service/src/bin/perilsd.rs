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
use perils_survey::SnapshotBackend;
use perils_util::cli::{usage_exit, Argv};
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

struct Args {
    world: String,
    seed: u64,
    addr: String,
    config: ServiceConfig,
    snapshot: Option<String>,
    save_snapshot: Option<String>,
}

/// Reads the command line; usage errors exit 2.
fn read_args() -> Args {
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
    let mut argv = Argv::from_env(USAGE);
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--world" => args.world = argv.value("--world"),
            "--seed" => args.seed = argv.parse("--seed"),
            "--addr" => args.addr = argv.value("--addr"),
            "--threads" => args.config.threads = argv.parse("--threads"),
            "--queue-cap" => args.config.queue_cap = argv.parse("--queue-cap"),
            "--no-figures" => args.config.figures = false,
            "--snapshot" => args.snapshot = Some(argv.value("--snapshot")),
            "--save-snapshot" => args.save_snapshot = Some(argv.value("--save-snapshot")),
            "--snapshot-backend" => backend = Some(argv.value("--snapshot-backend")),
            "--page-cache-mb" => {
                let mb: u64 = argv.parse("--page-cache-mb");
                if mb == 0 {
                    argv.fail("--page-cache-mb needs an integer >= 1");
                }
                page_cache_mb = Some(mb);
            }
            other => argv.unknown(other),
        }
    }
    if args.config.queue_cap == 0 {
        argv.fail("--queue-cap must be at least 1");
    }
    args.config.backend = match backend.as_deref() {
        None | Some("heap") => {
            if page_cache_mb.is_some() {
                argv.fail("--page-cache-mb is only valid with --snapshot-backend paged");
            }
            SnapshotBackend::Heap
        }
        Some("paged") => {
            let mb = page_cache_mb.unwrap_or(16);
            let bytes = mb.checked_mul(1024 * 1024).unwrap_or_else(|| {
                argv.fail(&format!(
                    "--page-cache-mb {mb} overflows a 64-bit byte budget"
                ))
            });
            SnapshotBackend::paged(bytes)
        }
        Some(other) => argv.fail(&format!("unknown snapshot backend {other:?} (heap|paged)")),
    };
    args
}

fn main() {
    let args = read_args();
    let spec = WorldSpec::parse(&args.world, args.seed)
        .unwrap_or_else(|message| usage_exit(USAGE, &message));

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
