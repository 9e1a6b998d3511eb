//! End-to-end daemon tests over real sockets: the determinism contract
//! on the wire, snapshot swaps racing live queries, and clean drain.

#![forbid(unsafe_code)]

use perils_service::{Daemon, ServeSummary, ServiceConfig, WorldSpec};
use perils_util::json::{self, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Boots a tiny-world daemon with `threads` workers.
fn tiny_daemon(threads: usize, figures: bool) -> Daemon {
    Daemon::boot(
        WorldSpec::parse("tiny", 20040722).expect("tiny parses"),
        ServiceConfig {
            threads,
            queue_cap: 64,
            figures,
            ..ServiceConfig::default()
        },
    )
}

/// Runs `client` against a serving daemon, then drains it and returns
/// both results. The daemon serves on an ephemeral port; everything is
/// joined before returning.
fn with_daemon<R: Send>(
    daemon: &Daemon,
    client: impl FnOnce(SocketAddr) -> R + Send,
) -> (R, ServeSummary) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let mut summary = None;
    let mut result = None;
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| daemon.serve(listener).expect("serve exits cleanly"));
        result = Some(client(addr));
        // Drain: ask over the wire like a real operator would.
        let mut shutdown = Client::connect(addr);
        let (status, _, _) = shutdown.request("POST", "/shutdown", None);
        assert_eq!(status, 200);
        summary = Some(serving.join().expect("serve thread"));
    });
    (result.expect("client ran"), summary.expect("summary"))
}

/// A hand-rolled keep-alive HTTP client.
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request and reads one response. Returns the status,
    /// the raw response bytes, and the body.
    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, Vec<u8>, String) {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.reader
            .get_mut()
            .write_all(request.as_bytes())
            .expect("send");

        let mut raw = Vec::new();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_ascii_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        raw.extend_from_slice(line.as_bytes());
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("header line");
            raw.extend_from_slice(header.as_bytes());
            let trimmed = header.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(value) = trimmed.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = value.trim().parse().expect("content length");
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        raw.extend_from_slice(&body);
        (status, raw, String::from_utf8(body).expect("utf8 body"))
    }

    /// Sends a `HEAD` request and reads only what a HEAD exchange
    /// leaves on the wire: status line + headers, no body. Returns the
    /// status and the advertised `Content-Length`.
    fn head(&mut self, path: &str) -> (u16, usize) {
        let request =
            format!("HEAD {path} HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n");
        self.reader
            .get_mut()
            .write_all(request.as_bytes())
            .expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_ascii_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("header line");
            let trimmed = header.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(value) = trimmed.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = value.trim().parse().expect("content length");
            }
        }
        (status, content_length)
    }

    /// A request whose body must parse as JSON; returns (status, value).
    fn json(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
        let (status, _, text) = self.request(method, path, body);
        let value = json::parse(&text)
            .unwrap_or_else(|e| panic!("{method} {path}: invalid JSON ({e}): {text}"));
        (status, value)
    }
}

fn epoch_of(value: &Value) -> u64 {
    value
        .get("epoch")
        .and_then(|v| v.as_u64())
        .expect("epoch field")
}

#[test]
fn data_plane_is_byte_identical_across_thread_counts() {
    let mut transcripts: Vec<Vec<Vec<u8>>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let daemon = tiny_daemon(threads, true);
        let (transcript, _) = with_daemon(&daemon, |addr| {
            let mut client = Client::connect(addr);
            let mut raws = Vec::new();
            let (status, raw, names) = client.request("GET", "/names?limit=3", None);
            assert_eq!(status, 200);
            raws.push(raw);
            let names = json::parse(&names).expect("names JSON");
            let names: Vec<String> = names
                .get("names")
                .and_then(|v| v.as_array())
                .expect("names array")
                .iter()
                .map(|v| v.as_str().expect("name string").to_string())
                .collect();
            assert!(!names.is_empty());
            for name in &names {
                let (status, raw, body) = client.request("GET", &format!("/name/{name}"), None);
                assert_eq!(status, 200, "{body}");
                raws.push(raw);
                // Follow the answer to its zone, like a client drilling down.
                let zone = json::parse(&body)
                    .expect("name JSON")
                    .get("zone")
                    .and_then(|v| v.as_str())
                    .expect("zone field")
                    .to_string();
                let (status, raw, _) = client.request("GET", &format!("/zone/{zone}"), None);
                assert_eq!(status, 200);
                raws.push(raw);
            }
            let (status, raw, _) = client.request("GET", "/figures", None);
            assert_eq!(status, 200);
            raws.push(raw);
            raws
        });
        transcripts.push(transcript);
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "1-thread and 2-thread responses differ"
    );
    assert_eq!(
        transcripts[1], transcripts[2],
        "2-thread and 8-thread responses differ"
    );
}

#[test]
fn reload_under_load_keeps_epochs_monotonic_per_connection() {
    const RELOADS: u64 = 3;
    const QUERY_CLIENTS: usize = 3;

    let daemon = tiny_daemon(4, false);
    let done = AtomicBool::new(false);
    let ((), summary) = with_daemon(&daemon, |addr| {
        std::thread::scope(|scope| {
            for _ in 0..QUERY_CLIENTS {
                scope.spawn(|| {
                    let mut client = Client::connect(addr);
                    let (status, names) = client.json("GET", "/names?limit=1", None);
                    assert_eq!(status, 200);
                    let name = names
                        .get("names")
                        .and_then(|v| v.as_array())
                        .and_then(|a| a.first())
                        .and_then(|v| v.as_str())
                        .expect("first name")
                        .to_string();
                    let path = format!("/name/{name}");
                    let mut last_epoch = 0u64;
                    let mut queries = 0u64;
                    while !done.load(Ordering::SeqCst) || queries < 5 {
                        let (status, value) = client.json("GET", &path, None);
                        assert_eq!(status, 200);
                        let epoch = epoch_of(&value);
                        assert!(
                            epoch >= last_epoch,
                            "epoch went backwards on one connection: {last_epoch} -> {epoch}"
                        );
                        last_epoch = epoch;
                        queries += 1;
                    }
                });
            }

            // The control client: drive RELOADS generation bumps while
            // the query clients hammer the data plane.
            let mut control = Client::connect(addr);
            for round in 0..RELOADS {
                let (status, value) = control.json("POST", "/reload", None);
                assert_eq!(status, 202, "reload must never fail");
                assert_eq!(
                    value.get("status").and_then(|v| v.as_str()),
                    Some("scheduled")
                );
                let target = round + 2;
                loop {
                    let (status, health) = control.json("GET", "/healthz", None);
                    assert_eq!(status, 200);
                    if epoch_of(&health) >= target {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            done.store(true, Ordering::SeqCst);
        });
    });
    assert_eq!(summary.reloads, RELOADS);
    assert_eq!(daemon.store().epoch(), 1 + RELOADS);
    assert!(summary.requests > RELOADS * 2);
}

#[test]
fn head_on_keep_alive_does_not_desync_the_connection() {
    let daemon = tiny_daemon(1, false);
    let ((), _) = with_daemon(&daemon, |addr| {
        let mut client = Client::connect(addr);
        let (status, content_length) = client.head("/healthz");
        assert_eq!(status, 200);
        assert!(content_length > 0, "HEAD still advertises the body length");
        // Had the daemon written body bytes for the HEAD, this next
        // exchange on the same connection would read them as its status
        // line and fail.
        let (status, health) = client.json("GET", "/healthz", None);
        assert_eq!(status, 200);
        assert_eq!(epoch_of(&health), 1);
    });
}

#[test]
fn shutdown_drains_cleanly_and_counts_work() {
    let daemon = tiny_daemon(2, false);
    let (queries, summary) = with_daemon(&daemon, |addr| {
        let mut client = Client::connect(addr);
        let mut queries = 0u64;
        let (status, _) = client.json("GET", "/healthz", None);
        assert_eq!(status, 200);
        queries += 1;
        let (status, metrics, _) = client.request("GET", "/metrics", None);
        assert_eq!(status, 200);
        let text = String::from_utf8(metrics).expect("metrics utf8");
        assert!(text.contains("perilsd_snapshot_epoch 1"));
        assert!(text.contains("perilsd_requests_total{endpoint=\"healthz\"} 1"));
        queries += 1;
        queries
    });
    // Strictly greater: the shutdown request itself is counted too.
    assert!(summary.requests > queries, "summary: {summary:?}");
    assert!(daemon.is_shutting_down());
    assert_eq!(summary.reloads, 0);
}

/// Strips every `"epoch":N` occurrence so data-plane bodies can be
/// compared across generations.
fn strip_epochs(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find("\"epoch\":") {
        let after = at + "\"epoch\":".len();
        out.push_str(&rest[..after]);
        out.push('E');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Every data-plane answer for a connection: all `/name/<n>` bodies (in
/// `/names` order), plus `/names` and `/figures` themselves.
fn transcript(client: &mut Client) -> String {
    let (status, names) = client.json("GET", "/names", None);
    assert_eq!(status, 200);
    let list: Vec<String> = names
        .get("names")
        .and_then(|v| v.as_array())
        .expect("names array")
        .iter()
        .map(|v| v.as_str().expect("name string").to_string())
        .collect();
    assert!(!list.is_empty());
    let mut out = String::new();
    for name in &list {
        let (status, _, body) = client.request("GET", &format!("/name/{name}"), None);
        assert_eq!(status, 200, "{name}");
        out.push_str(&body);
        out.push('\n');
    }
    let (_, _, names_body) = client.request("GET", "/names", None);
    out.push_str(&names_body);
    let (status, _, figures) = client.request("GET", "/figures", None);
    assert_eq!(status, 200);
    out.push_str(&figures);
    out
}

/// The tentpole contract on the wire: a daemon that saved its world to a
/// `.psa` archive serves byte-identical data-plane answers (modulo the
/// epoch stamp) after a snapshot-served `POST /reload`, and a second
/// daemon cold-booted from the same archive matches too.
#[test]
fn snapshot_reload_and_cold_boot_serve_identical_answers() {
    let archive = std::env::temp_dir().join(format!("perilsd_http_{}.psa", std::process::id()));
    let daemon = tiny_daemon(2, true);
    daemon
        .store()
        .current()
        .save(&archive)
        .expect("save archive");

    let ((before, after), summary) = with_daemon(&daemon, |addr| {
        let mut client = Client::connect(addr);
        let before = transcript(&mut client);

        let body = format!("{{\"snapshot\":{:?}}}", archive.display().to_string());
        let (status, reply) = client.json("POST", "/reload", Some(&body));
        assert_eq!(status, 202, "{reply:?}");
        // Wait for the swap: the epoch advances when the archive is live.
        for _ in 0..200 {
            let (_, health) = client.json("GET", "/healthz", None);
            if epoch_of(&health) == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let (_, health) = client.json("GET", "/healthz", None);
        assert_eq!(epoch_of(&health), 2, "snapshot reload never landed");
        let (_, _, metrics) = client.request("GET", "/metrics", None);
        assert!(metrics.contains("perilsd_snapshot_source{kind=\"loaded\"} 1"));
        assert!(metrics.contains("perilsd_reloads_failed_total 0"));

        (before, transcript(&mut client))
    });
    assert_eq!(summary.reloads, 1);
    assert_eq!(strip_epochs(&before), strip_epochs(&after));

    let cold = Daemon::boot_from_archive(
        WorldSpec::parse("tiny", 20040722).expect("tiny parses"),
        ServiceConfig {
            threads: 2,
            queue_cap: 64,
            figures: true,
            ..ServiceConfig::default()
        },
        archive.to_str().expect("utf8 path"),
    )
    .expect("cold boot from archive");
    let (cold_transcript, _) = with_daemon(&cold, |addr| transcript(&mut Client::connect(addr)));
    assert_eq!(strip_epochs(&before), strip_epochs(&cold_transcript));

    // A paged boot over the same archive, squeezed to a two-page cache,
    // serves the same data-plane bytes as the heap boot above.
    let paged = Daemon::boot_from_archive(
        WorldSpec::parse("tiny", 20040722).expect("tiny parses"),
        ServiceConfig {
            threads: 2,
            queue_cap: 64,
            figures: true,
            backend: perils_survey::SnapshotBackend::paged(8192),
        },
        archive.to_str().expect("utf8 path"),
    )
    .expect("paged boot from archive");
    let (paged_transcript, _) = with_daemon(&paged, |addr| {
        let mut client = Client::connect(addr);
        let t = transcript(&mut client);
        let (_, _, metrics) = client.request("GET", "/metrics", None);
        assert!(metrics.contains("perilsd_snapshot_backend{kind=\"paged\"} 1"));
        t
    });
    assert_eq!(strip_epochs(&before), strip_epochs(&paged_transcript));

    // A reload pointing at garbage keeps the old generation serving.
    let ((), _) = with_daemon(&tiny_daemon(1, false), |addr| {
        let mut client = Client::connect(addr);
        let (status, _) = client.json(
            "POST",
            "/reload",
            Some("{\"snapshot\":\"/nonexistent/world.psa\"}"),
        );
        assert_eq!(status, 202);
        std::thread::sleep(Duration::from_millis(200));
        let (_, health) = client.json("GET", "/healthz", None);
        assert_eq!(epoch_of(&health), 1, "failed reload must not swap");
        let (_, _, metrics) = client.request("GET", "/metrics", None);
        assert!(metrics.contains("perilsd_reloads_failed_total 1"));
        assert!(metrics.contains("perilsd_snapshot_source{kind=\"built\"} 1"));
    });

    std::fs::remove_file(&archive).ok();
}

/// A panicking handler fails its request, not its worker: with the
/// archive truncated under a paged daemon, `/name` faults a page past
/// the new end of file and answers `500`, and the daemon's only worker
/// goes on answering `/healthz` and `/metrics`.
#[test]
fn truncated_paged_archive_fails_requests_not_the_worker() {
    let archive = std::env::temp_dir().join(format!("perilsd_panic_{}.psa", std::process::id()));
    tiny_daemon(1, false)
        .store()
        .current()
        .save(&archive)
        .expect("save archive");
    let paged = Daemon::boot_from_archive(
        WorldSpec::parse("tiny", 20040722).expect("tiny parses"),
        ServiceConfig {
            threads: 1,
            queue_cap: 64,
            figures: false,
            // Two 4 KiB pages: nearly every read faults from the file.
            backend: perils_survey::SnapshotBackend::paged(8192),
        },
        archive.to_str().expect("utf8 path"),
    )
    .expect("paged boot from archive");
    let name = paged.store().current().names.get(0).name.to_string();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&archive)
        .expect("reopen archive")
        .set_len(0)
        .expect("truncate archive");

    let ((), summary) = with_daemon(&paged, |addr| {
        let mut client = Client::connect(addr);
        for _ in 0..2 {
            let (status, _, body) = client.request("GET", &format!("/name/{name}"), None);
            assert_eq!(status, 500, "{body}");
        }
        let (status, health) = client.json("GET", "/healthz", None);
        assert_eq!(status, 200);
        assert_eq!(epoch_of(&health), 1);
        let (status, _, metrics) = client.request("GET", "/metrics", None);
        assert_eq!(status, 200);
        let panics: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("perilsd_worker_panics_total "))
            .expect("panic counter exported")
            .parse()
            .expect("numeric counter");
        assert!(panics >= 1, "panics counted: {panics}");
    });
    assert!(summary.requests >= 4, "summary: {summary:?}");
    std::fs::remove_file(&archive).ok();
}

/// A built world is a loaded one: a daemon that built its world (no
/// `.psa` boot) serves from its in-memory archive — a heap store holding
/// exactly the bytes its own `--save-snapshot` writes.
#[test]
fn built_daemon_serves_from_its_own_heap_archive() {
    let archive = std::env::temp_dir().join(format!("perilsd_built_{}.psa", std::process::id()));
    let daemon = tiny_daemon(1, true);
    let saved = daemon
        .store()
        .current()
        .save(&archive)
        .expect("save archive");
    let on_disk = std::fs::metadata(&archive).expect("archive written").len();
    std::fs::remove_file(&archive).ok();
    assert_eq!(saved, on_disk);

    let (metrics, _) = with_daemon(&daemon, |addr| {
        let (status, _, metrics) = Client::connect(addr).request("GET", "/metrics", None);
        assert_eq!(status, 200);
        metrics
    });
    assert!(metrics.contains("perilsd_snapshot_source{kind=\"built\"} 1"));
    assert!(metrics.contains("perilsd_snapshot_backend{kind=\"heap\"} 1"));
    assert!(!metrics.contains("kind=\"none\""), "{metrics}");
    let resident: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("perilsd_snapshot_resident_bytes "))
        .expect("resident bytes exported")
        .parse()
        .expect("numeric gauge");
    assert_eq!(resident, on_disk, "resident archive = saved archive");
}
