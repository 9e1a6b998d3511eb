//! The serving phases: a real `perilsd` process over loopback, driven by
//! a closed-loop load generator.
//!
//! Closed loop, two keep-alive connections: the daemon's callers are
//! tools that wait for each answer before asking the next question, and
//! a `perilsd` worker stays with its connection, so with `--threads 2` a
//! third connection would starve. Control requests (`/reload`,
//! `/metrics`, `/shutdown`) therefore travel over the two data
//! connections.

use crate::util::{median, percentile_sorted};
use crate::world::{Inputs, Target};
use perils_util::json::Value;
use perils_util::snapshot::ChecksumFold;
use perils_util::{Rng, ZipfTable};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Daemon workers = load-generator connections = batch threads.
pub const CLIENTS: usize = 2;
/// The service contract: a `/name` answer inside 5 ms.
const SLO_MS: f64 = 5.0;
/// Fixed probe transcript length.
const PROBES: usize = 64;

/// Which byte store the daemon serves from, and how targets are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePhase {
    /// Resident heap buffer; `/name` targets Zipf(0.95) by popularity:
    /// the hot head fits every cache, transport and serialization
    /// dominate.
    Heap,
    /// 1 MiB page cache over the archive; targets uniform over all
    /// names: working set far larger than the cache, so `bytestore`
    /// works.
    Paged,
}

impl ServePhase {
    pub fn name(self) -> &'static str {
        match self {
            ServePhase::Heap => "serve-heap",
            ServePhase::Paged => "serve-paged",
        }
    }

    fn daemon_args(self) -> &'static [&'static str] {
        match self {
            ServePhase::Heap => &["--snapshot-backend", "heap"],
            ServePhase::Paged => &["--snapshot-backend", "paged", "--page-cache-mb", "1"],
        }
    }

    pub fn backend(self) -> perils_survey::SnapshotBackend {
        match self {
            ServePhase::Heap => perils_survey::SnapshotBackend::Heap,
            ServePhase::Paged => perils_survey::SnapshotBackend::paged(1024 * 1024),
        }
    }
}

/// Phase lengths for one serving session.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    pub boots: usize,
    pub warmup: Duration,
    /// Total steady time, measured in `slices` equal stretches.
    pub steady: Duration,
    /// 1 for an end-to-end run; the traced pass cuts the steady phase up
    /// and replays requests in-process before each slice.
    pub slices: u32,
    pub reloads: usize,
}

/// The request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Name,
    Zone,
    Unknown,
}

/// The seeded request sequence of one client: `/name/<n>` 90 %,
/// `/zone/<z>` 8 %, unknown-name `404` 2 %.
pub struct Mix<'a> {
    targets: &'a [Target],
    zipf: Option<ZipfTable>,
    rng: Rng,
    unknown: u64,
}

impl<'a> Mix<'a> {
    pub fn new(phase: ServePhase, targets: &'a [Target], seed: u64, client: usize) -> Mix<'a> {
        Mix {
            targets,
            zipf: (phase == ServePhase::Heap).then(|| ZipfTable::new(targets.len(), 0.95)),
            rng: Rng::new(seed).fork(1000 + client as u64),
            unknown: 0,
        }
    }

    fn target(&mut self) -> &'a Target {
        let i = match &mut self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.below_usize(self.targets.len()),
        };
        &self.targets[i]
    }

    /// The next request: its class, path and expected status.
    pub fn next_request(&mut self) -> (Kind, String, u16) {
        match self.rng.below(100) {
            0..=89 => (Kind::Name, format!("/name/{}", self.target().name), 200),
            90..=97 => (Kind::Zone, format!("/zone/{}", self.target().zone), 200),
            _ => {
                self.unknown += 1;
                (
                    Kind::Unknown,
                    format!("/name/www.nx{}.invalid", self.unknown),
                    404,
                )
            }
        }
    }
}

/// The bytes of one keep-alive request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection, with the per-connection checks.
pub struct Conn {
    reader: BufReader<TcpStream>,
    /// Completed requests.
    pub requests: u64,
    last_epoch: u64,
    /// Bodies that did not parse, wrong statuses, epoch regressions.
    pub failures: Vec<String>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            requests: 0,
            last_epoch: 0,
            failures: Vec::new(),
        })
    }

    /// Sends one request and reads the whole response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        self.reader
            .get_mut()
            .write_all(&request_bytes(method, path, body))?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("eof in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((key, value)) = header.split_once(':') {
                if key.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut body = vec![0u8; length.ok_or_else(|| bad("no content-length"))?];
        self.reader.read_exact(&mut body)?;
        self.requests += 1;
        String::from_utf8(body)
            .map(|body| (status, body))
            .map_err(|_| bad("non-utf8 body"))
    }

    /// A data-plane request: times it, then (off the clock) checks the
    /// status, parses the body and checks the epoch never goes back on
    /// this connection. Returns the latency in ms, or `None` on failure.
    pub fn query(&mut self, path: &str, expect: u16) -> Option<f64> {
        let start = Instant::now();
        let answer = self.request("GET", path, "");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let (status, body) = match answer {
            Ok(answer) => answer,
            Err(e) => {
                self.failures.push(format!("{path}: {e}"));
                return None;
            }
        };
        if status != expect {
            self.failures
                .push(format!("{path}: status {status}, expected {expect}"));
            return None;
        }
        let Ok(value) = perils_util::json::parse(&body) else {
            self.failures.push(format!("{path}: body is not JSON"));
            return None;
        };
        if status == 200 {
            let epoch = value.get("epoch").and_then(Value::as_u64).unwrap_or(0);
            if epoch < self.last_epoch || epoch == 0 {
                self.failures
                    .push(format!("{path}: epoch {epoch} after {}", self.last_epoch));
                return None;
            }
            self.last_epoch = epoch;
        }
        Some(ms)
    }

    /// A control-plane request that must answer `expect`.
    fn control(&mut self, method: &str, path: &str, body: &str, expect: u16) -> Option<String> {
        match self.request(method, path, body) {
            Ok((status, text)) if status == expect => Some(text),
            Ok((status, _)) => {
                self.failures.push(format!(
                    "{method} {path}: status {status}, expected {expect}"
                ));
                None
            }
            Err(e) => {
                self.failures.push(format!("{method} {path}: {e}"));
                None
            }
        }
    }

    fn healthz_epoch(&mut self) -> Option<u64> {
        let body = self.control("GET", "/healthz", "", 200)?;
        perils_util::json::parse(&body)
            .ok()?
            .get("epoch")
            .and_then(Value::as_u64)
    }

    /// Scrapes `/metrics` into `name{labels}` → value.
    fn scrape(&mut self) -> BTreeMap<String, f64> {
        let text = self.control("GET", "/metrics", "", 200).unwrap_or_default();
        text.lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (key, value) = line.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect()
    }
}

/// A spawned `perilsd`.
pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Spawn → first `200 /healthz`.
    pub ready_ms: f64,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port and waits until it answers
    /// `/healthz`. The returned connection is the one that asked.
    pub fn boot(perilsd: &Path, phase: ServePhase, psa: &Path) -> Result<(Daemon, Conn), String> {
        let start = Instant::now();
        let child = Command::new(perilsd)
            .arg("--snapshot")
            .arg(psa)
            .args(phase.daemon_args())
            .args(["--threads", &CLIENTS.to_string()])
            .args(["--no-figures", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", perilsd.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            ready_ms: 0.0,
        };
        // The one stdout line carries the resolved address; the listener
        // is bound only after the world is loaded.
        let mut line = String::new();
        let stdout = daemon.child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        daemon.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or(format!("perilsd printed no address: {line:?}"))?
            .to_string();
        let mut conn = Conn::connect(&daemon.addr).map_err(|e| e.to_string())?;
        match conn.healthz_epoch() {
            Some(1) => {
                daemon.ready_ms = start.elapsed().as_secs_f64() * 1e3;
                Ok((daemon, conn))
            }
            other => Err(format!("first /healthz answered epoch {other:?}")),
        }
    }

    /// The daemon's `VmHWM`, in MiB.
    fn peak_rss_mib(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// `POST /shutdown`, then waits for a clean exit (code 0).
    pub fn shut_down(mut self, mut conn: Conn) -> Result<(), String> {
        let answered = conn.control("POST", "/shutdown", "", 200).is_some();
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(15);
        while answered && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("perilsd exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("perilsd did not drain after /shutdown".into())
    }
}

/// No path — an error, a daemon that will not drain, a panic in the
/// harness — leaves a daemon behind. On a process that has already
/// exited both calls are no-ops.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One answered request: how long the client waited, and its class.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub kind: Kind,
}

/// What one client saw during one timed phase.
#[derive(Debug, Default, Clone)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
}

fn drive(conn: &mut Conn, mix: &mut Mix<'_>, log: &mut ClientLog) {
    let (kind, path, expect) = mix.next_request();
    log.attempted += 1;
    if let Some(ms) = conn.query(&path, expect) {
        log.samples.push(Sample { ms, kind });
    }
}

/// Both clients query until `length` has passed.
fn closed_loop(
    conns: &mut [Conn],
    mixes: &mut [Mix<'_>],
    length: Duration,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let deadline = start + length;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(mixes.iter_mut())
            .map(|(conn, mix)| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    while Instant::now() < deadline {
                        drive(conn, mix, &mut log);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// Everything one serving session measured.
#[derive(Debug, Default)]
pub struct ServeResult {
    pub ready_ms: Vec<f64>,
    pub steady: Vec<ClientLog>,
    pub steady_s: f64,
    pub reload_ms: Vec<f64>,
    pub archive_load_ms: Vec<f64>,
    /// `/name` latencies during the reload phase.
    pub reload_name_ms: Vec<f64>,
    /// The daemon's `VmHWM` after the steady phase: one world resident.
    pub rss_mib: f64,
    /// Its `VmHWM` before shutdown: reloads hold two worlds at a time.
    pub reload_rss_mib: f64,
    /// `/metrics` just before and just after the steady phase.
    pub before: BTreeMap<String, f64>,
    pub after: BTreeMap<String, f64>,
    /// Requests the clients completed against the serving daemon, and
    /// the daemon's own count at the final scrape.
    pub client_requests: u64,
    pub daemon_requests: u64,
    /// `None` when the final scrape lacks the counter.
    pub queue_rejects: Option<f64>,
    /// Checksum over the probe answers, epoch stamp removed.
    pub probe_checksum: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

fn sorted_ms(samples: impl Iterator<Item = Sample>, kind: Kind) -> Vec<f64> {
    let mut ms: Vec<f64> = samples.filter(|s| s.kind == kind).map(|s| s.ms).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

impl ServeResult {
    fn steady_samples(&self) -> impl Iterator<Item = Sample> + '_ {
        self.steady
            .iter()
            .flat_map(|log| log.samples.iter().copied())
    }

    /// Steady `/name` latencies (ms), ascending.
    pub fn name_sorted(&self) -> Vec<f64> {
        sorted_ms(self.steady_samples(), Kind::Name)
    }

    /// Steady `/zone` latencies (ms), ascending.
    pub fn zone_sorted(&self) -> Vec<f64> {
        sorted_ms(self.steady_samples(), Kind::Zone)
    }

    /// Requests of every class completed in the steady phase.
    pub fn steady_completed(&self) -> usize {
        self.steady_samples().count()
    }

    /// Change of a daemon counter over the steady phase; `None` when a
    /// scrape lacks it.
    fn delta(&self, key: &str) -> Option<f64> {
        Some(self.after.get(key)? - self.before.get(key)?)
    }

    /// The per-layer metrics of this session: the daemon's own counters
    /// and the client-side numbers that are too noisy for a bound. A
    /// counter the daemon does not export leaves its metrics out, which
    /// fails the run (`report::conform`); it is never read as 0.
    pub fn layers(&self, out: &mut BTreeMap<String, f64>) {
        let mut daemon_side = || -> Option<()> {
            let requests = self
                .delta("perilsd_request_duration_seconds_count")?
                .max(1.0);
            let hits = self.delta("perilsd_page_cache_hits_total")?;
            let misses = self.delta("perilsd_page_cache_misses_total")?;
            let accesses = hits + misses;
            out.insert(
                "bytestore.page_accesses_per_req".into(),
                accesses / requests,
            );
            out.insert("bytestore.page_misses_per_req".into(), misses / requests);
            out.insert(
                "bytestore.hit_ratio".into(),
                if accesses > 0.0 { hits / accesses } else { 0.0 },
            );
            out.insert(
                "bytestore.evictions_per_req".into(),
                self.delta("perilsd_page_cache_evictions_total")? / requests,
            );
            out.insert(
                "daemon.handler_mean_us".into(),
                self.delta("perilsd_request_duration_seconds_sum")? / requests * 1e6,
            );
            out.insert(
                "snapshot.resident_bytes".into(),
                *self.after.get("perilsd_snapshot_resident_bytes")?,
            );
            out.insert("daemon.queue_rejects".into(), self.queue_rejects?);
            Some(())
        };
        daemon_side();
        out.insert("daemon.requests".into(), self.daemon_requests as f64);
        let names = self.name_sorted();
        let slow = names.iter().filter(|&&ms| ms > SLO_MS).count();
        out.insert(
            "daemon.slo_miss_frac".into(),
            slow as f64 / names.len().max(1) as f64,
        );
        out.insert("wire.name_p999_ms".into(), percentile_sorted(&names, 0.999));
        if self.archive_load_ms.len() == self.reload_ms.len() {
            let load = median(&self.archive_load_ms);
            out.insert("reload.archive_load_ms".into(), load);
            out.insert(
                "reload.publish_wait_ms".into(),
                median(&self.reload_ms) - load,
            );
        }
        let mut during = self.reload_name_ms.clone();
        during.sort_by(f64::total_cmp);
        out.insert(
            "reload.name_p99_ms".into(),
            percentile_sorted(&during, 0.99),
        );
        out.insert("reload.peak_rss_mib".into(), self.reload_rss_mib);
    }
}

/// The fixed probe transcript: evenly spaced popularity positions.
fn probe_paths(targets: &[Target]) -> Vec<String> {
    let probes = PROBES.min(targets.len());
    (0..probes)
        .map(|i| format!("/name/{}", targets[i * targets.len() / probes].name))
        .collect()
}

/// A probe answer without its epoch stamp.
fn without_epoch(body: &str) -> &str {
    body.strip_prefix("{\"epoch\":")
        .and_then(|rest| rest.split_once(','))
        .map_or(body, |(_, rest)| rest)
}

/// One serving session: cold boots, probe transcript, warm-up, steady
/// closed loop, reloads beside reads, scrape, shutdown. `before_slice`
/// runs before each slice of the steady phase, while the daemon idles.
pub fn run_session(
    perilsd: &Path,
    phase: ServePhase,
    inputs: &Inputs,
    seed: u64,
    plan: ServePlan,
    before_slice: &mut dyn FnMut(),
) -> ServeResult {
    let mut result = ServeResult::default();
    let psa = inputs.psa.canonicalize().expect("archive path");

    // Cold boots; the last daemon stays up and serves the rest.
    let mut serving = None;
    for boot in 0..plan.boots {
        result.attempted += 1;
        match Daemon::boot(perilsd, phase, &psa) {
            Ok((daemon, conn)) => {
                result.ready_ms.push(daemon.ready_ms);
                if boot + 1 == plan.boots {
                    serving = Some((daemon, conn));
                } else if let Err(e) = daemon.shut_down(conn) {
                    result.failures.push(e);
                }
            }
            Err(e) => result.failures.push(e),
        }
    }
    let Some((daemon, conn0)) = serving else {
        return result;
    };
    let mut conns = vec![conn0];
    for _ in 1..CLIENTS {
        match Conn::connect(&daemon.addr) {
            Ok(conn) => conns.push(conn),
            Err(e) => {
                result.failures.push(format!("connect: {e}"));
                return result;
            }
        }
    }
    let mut mixes: Vec<Mix<'_>> = (0..CLIENTS)
        .map(|c| Mix::new(phase, &inputs.by_popularity, seed, c))
        .collect();

    // Probe transcript at epoch 1.
    let mut transcript = ChecksumFold::new();
    for path in probe_paths(&inputs.by_popularity) {
        result.attempted += 1;
        match conns[0].request("GET", &path, "") {
            Ok((200, body)) => transcript.update(without_epoch(&body).as_bytes()),
            other => result.failures.push(format!("probe {path}: {other:?}")),
        }
    }
    result.probe_checksum = transcript.finish();

    let (warm, _) = closed_loop(&mut conns, &mut mixes, plan.warmup);
    result.attempted += warm.iter().map(|log| log.attempted).sum::<u64>();

    result.before = conns[0].scrape();
    for _ in 0..plan.slices {
        before_slice();
        let (logs, slice_s) = closed_loop(&mut conns, &mut mixes, plan.steady / plan.slices);
        result.attempted += logs.iter().map(|log| log.attempted).sum::<u64>();
        result.steady.extend(logs);
        result.steady_s += slice_s;
    }
    result.after = conns[0].scrape();
    result.rss_mib = daemon.peak_rss_mib();

    // Reloads issued inline on connection 0 while the other connection
    // keeps querying (writes beside reads). Connection 0 only polls
    // `/healthz`, a millisecond apart: with two cores, a third busy
    // client-worker pair would make publish time a measure of the
    // scheduler, not of the reload.
    let reload_body = {
        let mut body = String::from("{\"snapshot\":");
        perils_util::push_json_string(&mut body, &psa.to_string_lossy());
        body.push('}');
        body
    };
    let done = AtomicBool::new(false);
    let (first, rest) = conns.split_at_mut(1);
    let side_logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .zip(mixes[1..].iter_mut())
            .map(|(conn, mix)| {
                let done = &done;
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    while !done.load(Ordering::SeqCst) {
                        drive(conn, mix, &mut log);
                    }
                    log
                })
            })
            .collect();
        let conn = &mut first[0];
        let mut epoch = conn.healthz_epoch().unwrap_or(0);
        for _ in 0..plan.reloads {
            result.attempted += 1;
            if conn.control("POST", "/reload", &reload_body, 202).is_none() {
                continue;
            }
            let accepted = Instant::now();
            loop {
                match conn.healthz_epoch() {
                    Some(now) if now > epoch => {
                        result
                            .reload_ms
                            .push(accepted.elapsed().as_secs_f64() * 1e3);
                        epoch = now;
                        break;
                    }
                    Some(_) if accepted.elapsed() < Duration::from_secs(20) => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    _ => {
                        conn.failures.push("reload never published".into());
                        break;
                    }
                }
            }
            if let Some(&ms) = conn.scrape().get("perilsd_snapshot_archive_load_ms") {
                result.archive_load_ms.push(ms);
            }
        }
        done.store(true, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for log in &side_logs {
        result.attempted += log.attempted;
        result
            .reload_name_ms
            .extend(sorted_ms(log.samples.iter().copied(), Kind::Name));
    }

    result.reload_rss_mib = daemon.peak_rss_mib();
    // A scrape answers before it counts itself. A worker counts a request
    // after writing the answer, so the other connection's last request
    // may still be uncounted for a moment: look again before judging.
    for _ in 0..5 {
        let last = conns[0].scrape();
        result.daemon_requests = last
            .get("perilsd_request_duration_seconds_count")
            .copied()
            .unwrap_or(-1.0) as u64;
        result.queue_rejects = last.get("perilsd_queue_rejected_total").copied();
        result.client_requests = conns.iter().map(|c| c.requests).sum::<u64>() - 1;
        if result.client_requests == result.daemon_requests {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    if result.client_requests != result.daemon_requests {
        result.failures.push(format!(
            "daemon counted {} requests, clients completed {}",
            result.daemon_requests, result.client_requests
        ));
    }
    for conn in &mut conns {
        result.failures.append(&mut conn.failures);
    }
    let control = conns.remove(0);
    drop(conns);
    result.attempted += 1;
    if let Err(e) = daemon.shut_down(control) {
        result.failures.push(e);
    }
    result
}
