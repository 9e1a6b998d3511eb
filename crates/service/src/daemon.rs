//! The daemon: acceptor, worker pool, reloader — all scoped threads,
//! no async runtime.
//!
//! ```text
//!             accept()              ConnQueue (bounded)
//!  clients ──────────────▶ acceptor ───────────────────▶ workers (N)
//!                              │                            │ each owns a cached
//!                              │ POST /shutdown sets        │ (epoch, ClosureWorkspace)
//!                              ▼ the drain flag             ▼
//!                         stops accepting          route → query plane
//!                                                           │ POST /reload
//!                                                           ▼
//!                                                  reloader thread: build
//!                                                  next snapshot, swap
//! ```
//!
//! Everything runs inside one `std::thread::scope`, so threads
//! borrow the daemon directly — no `'static` gymnastics, no leaked
//! handles. Shutdown is cooperative: `POST /shutdown` (or
//! [`Daemon::trigger_shutdown`]) flips a flag; the acceptor stops
//! accepting and closes the queue; workers drain what was already
//! queued, answer in-flight keep-alive requests with
//! `Connection: close`, and exit; the reloader exits when the last
//! worker drops its channel sender.

use crate::http::{read_request, Request, RequestError, Response};
use crate::metrics::{Endpoint, Metrics};
use crate::query;
use crate::snapshot::{SnapshotStore, WorldSnapshot};
use perils_core::closure::ClosureWorkspace;
use perils_core::lint::RuleRegistry;
use perils_survey::WorldSpec;
use perils_util::json;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex as SpecMutex;

/// How long the acceptor sleeps when `accept` has nothing for it.
const ACCEPT_POLL: Duration = Duration::from_millis(1);
/// Per-connection socket read timeout: an idle keep-alive peer is
/// dropped after this long so a worker is never parked forever.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration (the `perilsd` flags).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads; also the thread count snapshot builds use.
    /// Clamped to `1..=16` like the survey engine.
    pub threads: usize,
    /// Pending-connection queue cap; beyond it the acceptor answers
    /// `503` immediately instead of queueing.
    pub queue_cap: usize,
    /// Whether snapshot builds run the full figure sweep (serving
    /// `GET /figures`); disable for pure query serving.
    pub figures: bool,
    /// Byte-store backend for `.psa` archive boots and snapshot-served
    /// reloads (`--snapshot-backend`): `Heap` keeps one resident buffer
    /// the flat sections view into, `Paged` bounds residency with a
    /// page cache.
    pub backend: perils_survey::SnapshotBackend,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            threads: perils_util::par::threads(None),
            queue_cap: 1024,
            figures: true,
            backend: perils_survey::SnapshotBackend::Heap,
        }
    }
}

/// What `serve` reports after a clean drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Requests served over the daemon's lifetime.
    pub requests: u64,
    /// Snapshot reloads completed.
    pub reloads: u64,
}

/// A reload order from the control plane.
struct ReloadRequest {
    /// Reseed the (synthetic) spec before rebuilding.
    seed: Option<u64>,
    /// Swap in a prebuilt `.psa` archive instead of rebuilding —
    /// O(read) instead of O(rebuild).
    snapshot: Option<String>,
}

/// The bounded hand-off between the acceptor and the workers.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Queues a connection, or hands it back when the queue is at cap
    /// (the acceptor answers `503` itself).
    fn push(&self, conn: TcpStream, metrics: &Metrics) -> Result<(), TcpStream> {
        let mut state = self.state.lock().expect("queue lock");
        if state.conns.len() >= self.cap {
            return Err(conn);
        }
        state.conns.push_back(conn);
        metrics.set_queue_depth(state.conns.len());
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once the queue is closed
    /// *and* drained — the worker exit condition.
    fn pop(&self, metrics: &Metrics) -> Option<TcpStream> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(conn) = state.conns.pop_front() {
                metrics.set_queue_depth(state.conns.len());
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue wait");
        }
    }

    /// Closes the queue: workers drain the backlog, then exit.
    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// The long-running service: one warm snapshot store, shared counters,
/// and the serving loop.
pub struct Daemon {
    spec: SpecMutex<WorldSpec>,
    store: SnapshotStore,
    rules: RuleRegistry,
    metrics: Metrics,
    config: ServiceConfig,
    shutdown: AtomicBool,
    reloading: AtomicBool,
    requests_served: AtomicU64,
}

impl Daemon {
    /// Builds the boot snapshot (epoch 1) and wraps it in a daemon
    /// ready to `serve`.
    pub fn boot(spec: WorldSpec, config: ServiceConfig) -> Daemon {
        Daemon::new(spec, config, |spec, config| {
            WorldSnapshot::build(spec, 1, config.threads, config.figures)
        })
    }

    /// Boots epoch 1 from a `.psa` snapshot archive instead of building
    /// — the instant-restart path. `spec` is kept for later plain
    /// `POST /reload`s (which rebuild from scratch); snapshot-served
    /// reloads never touch it.
    pub fn boot_from_archive(
        spec: WorldSpec,
        config: ServiceConfig,
        path: &str,
    ) -> Result<Daemon, perils_util::snapshot::SnapshotError> {
        let snapshot = WorldSnapshot::load_archive(path, 1, config.backend)?;
        Ok(Daemon::new(spec, config, |_, _| snapshot))
    }

    /// Clamps the worker count, then wraps the epoch-1 snapshot that
    /// `first` makes under the clamped configuration.
    fn new(
        spec: WorldSpec,
        mut config: ServiceConfig,
        first: impl FnOnce(&WorldSpec, &ServiceConfig) -> WorldSnapshot,
    ) -> Daemon {
        config.threads = config.threads.clamp(1, 16);
        let snapshot = first(&spec, &config);
        Daemon {
            spec: SpecMutex::new(spec),
            store: SnapshotStore::new(snapshot),
            rules: RuleRegistry::builtin(),
            metrics: Metrics::new(),
            config,
            shutdown: AtomicBool::new(false),
            reloading: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
        }
    }

    /// The snapshot store (tests and the bench read epochs directly).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The shared counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The effective configuration (after clamping).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Asks the serving loop to drain and exit (what `POST /shutdown`
    /// calls; exposed for embedding).
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Serves until shutdown, then drains and returns. The calling
    /// thread becomes the acceptor; workers and the reloader are scoped
    /// threads, so everything is joined before this returns.
    pub fn serve(&self, listener: TcpListener) -> io::Result<ServeSummary> {
        listener.set_nonblocking(true)?;
        let queue = ConnQueue::new(self.config.queue_cap);
        let (reload_tx, reload_rx) = mpsc::channel::<ReloadRequest>();

        std::thread::scope(|scope| {
            scope.spawn(|| self.reload_loop(reload_rx));
            for _ in 0..self.config.threads {
                let worker_tx = reload_tx.clone();
                let queue = &queue;
                scope.spawn(move || self.worker_loop(queue, worker_tx));
            }
            // Workers hold the only senders now: when the last worker
            // exits, the reloader's `recv` fails and it exits too.
            drop(reload_tx);

            while !self.is_shutting_down() {
                match listener.accept() {
                    Ok((conn, _peer)) => {
                        self.metrics.connection_opened();
                        if let Err(conn) = queue.push(conn, &self.metrics) {
                            self.metrics.queue_rejected();
                            let mut conn = conn;
                            let _ = Response::error(503, "connection queue full")
                                .write_to(&mut conn, false, true);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        queue.close();
                        return Err(e);
                    }
                }
            }
            queue.close();
            Ok(())
        })?;

        Ok(ServeSummary {
            connections: self.metrics.connections(),
            requests: self.requests_served.load(Ordering::Relaxed),
            reloads: self.metrics.reloads(),
        })
    }

    /// The reloader: builds the next generation and swaps it in.
    /// Queries keep being answered from the old snapshot for the whole
    /// build; the swap itself is O(1) under a write lock.
    fn reload_loop(&self, rx: mpsc::Receiver<ReloadRequest>) {
        while let Ok(request) = rx.recv() {
            let epoch = self.store.epoch() + 1;
            let next = if let Some(path) = &request.snapshot {
                // Snapshot-served reload: O(read) archive load instead of
                // O(rebuild). A bad archive fails the reload without
                // touching the current generation — queries keep being
                // answered from the old world.
                match WorldSnapshot::load_archive(path, epoch, self.config.backend) {
                    Ok(next) => next,
                    Err(e) => {
                        eprintln!("perilsd: snapshot reload from {path:?} failed: {e}");
                        self.metrics.reload_failed();
                        self.reloading.store(false, Ordering::SeqCst);
                        continue;
                    }
                }
            } else {
                let spec = {
                    let mut spec = self.spec.lock();
                    if let Some(seed) = request.seed {
                        spec.reseed(seed);
                    }
                    spec.clone()
                };
                WorldSnapshot::build(&spec, epoch, self.config.threads, self.config.figures)
            };
            // Clear the gate *before* the swap publishes the new epoch:
            // a client that polls `/healthz` until the epoch bumps and
            // then posts the next reload must never bounce off a flag
            // that is only cleared after the swap it already observed.
            self.reloading.store(false, Ordering::SeqCst);
            self.store.swap(next);
            self.metrics.reload_completed();
        }
    }

    /// One worker: pull connections until the queue closes, caching a
    /// `ClosureWorkspace` per snapshot epoch so warm queries allocate
    /// nothing.
    fn worker_loop(&self, queue: &ConnQueue, reload_tx: mpsc::Sender<ReloadRequest>) {
        let mut workspace: Option<(u64, ClosureWorkspace)> = None;
        while let Some(conn) = queue.pop(&self.metrics) {
            let _ = self.handle_connection(conn, &mut workspace, &reload_tx);
        }
    }

    /// Serves one (possibly keep-alive) connection.
    fn handle_connection(
        &self,
        conn: TcpStream,
        workspace: &mut Option<(u64, ClosureWorkspace)>,
        reload_tx: &mpsc::Sender<ReloadRequest>,
    ) -> io::Result<()> {
        conn.set_read_timeout(Some(READ_TIMEOUT))?;
        conn.set_nodelay(true)?;
        let mut writer = conn.try_clone()?;
        let mut reader = BufReader::new(conn);
        loop {
            let request = match read_request(&mut reader) {
                Ok(request) => request,
                Err(RequestError::Eof) => return Ok(()),
                Err(RequestError::Malformed(why)) => {
                    let response = Response::error(400, why);
                    self.metrics.record(Endpoint::Other, 400, Duration::ZERO);
                    let _ = response.write_to(&mut writer, false, true);
                    return Ok(());
                }
                Err(RequestError::Io(e)) => return Err(e),
            };
            let started = Instant::now();
            // A panicking handler (e.g. a paged archive truncated under
            // the daemon) fails its one request, not the worker: an
            // unwound worker thread would leave the queue with nobody
            // to serve it until shutdown rethrows the panic.
            let routed = panic::catch_unwind(AssertUnwindSafe(|| {
                self.route(&request, workspace, reload_tx)
            }));
            let (endpoint, response, shutdown_after) = routed.unwrap_or_else(|_| {
                // The workspace may have been left mid-update.
                *workspace = None;
                self.metrics.worker_panicked();
                (
                    Endpoint::Other,
                    Response::error(500, "internal error: the request handler panicked"),
                    false,
                )
            });
            let keep_alive = request.keep_alive && !shutdown_after && !self.is_shutting_down();
            // HEAD answers carry the head (real Content-Length included)
            // but no body bytes.
            let include_body = request.method != "HEAD";
            response.write_to(&mut writer, keep_alive, include_body)?;
            self.metrics
                .record(endpoint, response.status, started.elapsed());
            self.requests_served.fetch_add(1, Ordering::Relaxed);
            if shutdown_after {
                self.trigger_shutdown();
            }
            if !keep_alive {
                return Ok(());
            }
        }
    }

    /// Routes one request to its plane. Returns the endpoint label, the
    /// response, and whether to start draining after the response is
    /// written.
    fn route(
        &self,
        request: &Request,
        workspace: &mut Option<(u64, ClosureWorkspace)>,
        reload_tx: &mpsc::Sender<ReloadRequest>,
    ) -> (Endpoint, Response, bool) {
        let path = request.path.as_str();
        let get = request.method == "GET" || request.method == "HEAD";
        let post = request.method == "POST";

        if let Some(raw) = path.strip_prefix("/name/") {
            if !get {
                return (Endpoint::Name, method_not_allowed("GET"), false);
            }
            let snap = self.store.current();
            let ws = self.workspace_for(&snap, workspace);
            return (
                Endpoint::Name,
                query::name_response(&snap, &self.rules, ws, raw),
                false,
            );
        }
        if let Some(raw) = path.strip_prefix("/zone/") {
            if !get {
                return (Endpoint::Zone, method_not_allowed("GET"), false);
            }
            let snap = self.store.current();
            return (
                Endpoint::Zone,
                query::zone_response(&snap, &self.rules, raw),
                false,
            );
        }
        match path {
            "/figures" => {
                if !get {
                    return (Endpoint::Figures, method_not_allowed("GET"), false);
                }
                let snap = self.store.current();
                (Endpoint::Figures, query::figures_response(&snap), false)
            }
            "/names" => {
                if !get {
                    return (Endpoint::Names, method_not_allowed("GET"), false);
                }
                let snap = self.store.current();
                (
                    Endpoint::Names,
                    query::names_response(&snap, request.query.as_deref()),
                    false,
                )
            }
            "/healthz" => {
                if !get {
                    return (Endpoint::Healthz, method_not_allowed("GET"), false);
                }
                let snap = self.store.current();
                let body = format!(
                    "{{\"status\":\"ok\",\"epoch\":{},\"age_s\":{},\"reloading\":{},\"names\":{}}}",
                    snap.epoch,
                    snap.age().as_secs_f64(),
                    self.reloading.load(Ordering::SeqCst),
                    snap.names.len(),
                );
                (Endpoint::Healthz, Response::json(200, body), false)
            }
            "/metrics" => {
                if !get {
                    return (Endpoint::Metrics, method_not_allowed("GET"), false);
                }
                let snap = self.store.current();
                let text = self.metrics.render(
                    snap.epoch,
                    snap.age(),
                    self.reloading.load(Ordering::SeqCst),
                    self.config.threads,
                    snap.stats.source.kind(),
                    snap.stats.load_ms(),
                    snap.store.kind(),
                    snap.store.resident_bytes(),
                    snap.store.cache_counters(),
                );
                (Endpoint::Metrics, Response::text(200, text), false)
            }
            "/reload" => {
                if !post {
                    return (Endpoint::Reload, method_not_allowed("POST"), false);
                }
                (
                    Endpoint::Reload,
                    self.schedule_reload(&request.body, reload_tx),
                    false,
                )
            }
            "/shutdown" => {
                if !post {
                    return (Endpoint::Shutdown, method_not_allowed("POST"), false);
                }
                let body = format!(
                    "{{\"status\":\"draining\",\"epoch\":{}}}",
                    self.store.epoch()
                );
                (Endpoint::Shutdown, Response::json(200, body), true)
            }
            _ => (
                Endpoint::Other,
                Response::error(404, &format!("no route for {path}")),
                false,
            ),
        }
    }

    /// Parses an optional `{"seed":N}` or `{"snapshot":"PATH"}` body and
    /// queues a rebuild (or an archive swap-in).
    ///
    /// At most one reload is pending at a time: the `reloading` flag is
    /// the admission gate, so a burst of `POST /reload` queues one
    /// rebuild and answers `409` to the rest instead of stacking
    /// multi-second builds back-to-back (retry once the epoch bumps).
    fn schedule_reload(&self, body: &[u8], reload_tx: &mpsc::Sender<ReloadRequest>) -> Response {
        let mut seed = None;
        let mut snapshot = None;
        if !body.is_empty() {
            let text = match std::str::from_utf8(body) {
                Ok(text) => text,
                Err(_) => return Response::error(400, "reload body is not utf-8"),
            };
            let value = match json::parse(text) {
                Ok(value) => value,
                Err(e) => return Response::error(400, &format!("reload body is not JSON: {e}")),
            };
            if let Some(v) = value.get("seed") {
                match v.as_u64() {
                    Some(n) => seed = Some(n),
                    None => {
                        return Response::error(
                            400,
                            "reload \"seed\" must be a non-negative integer",
                        )
                    }
                }
            }
            if let Some(v) = value.get("snapshot") {
                match v.as_str() {
                    Some(path) if !path.is_empty() => snapshot = Some(path.to_string()),
                    _ => {
                        return Response::error(
                            400,
                            "reload \"snapshot\" must be a non-empty path string",
                        )
                    }
                }
            }
            if seed.is_some() && snapshot.is_some() {
                return Response::error(
                    400,
                    "reload takes \"seed\" or \"snapshot\", not both (a snapshot is already seeded)",
                );
            }
            let recognized = usize::from(seed.is_some()) + usize::from(snapshot.is_some());
            let keys = value.as_object().map(|o| o.len()).unwrap_or(usize::MAX);
            if keys != recognized {
                return Response::error(400, "reload body supports only \"seed\" or \"snapshot\"");
            }
        }
        if self.reloading.swap(true, Ordering::SeqCst) {
            return Response::error(
                409,
                "a reload is already pending; retry after the epoch bumps",
            );
        }
        if reload_tx.send(ReloadRequest { seed, snapshot }).is_err() {
            self.reloading.store(false, Ordering::SeqCst);
            return Response::error(503, "daemon is draining");
        }
        Response::json(
            202,
            format!(
                "{{\"status\":\"scheduled\",\"epoch\":{}}}",
                self.store.epoch()
            ),
        )
    }

    /// The worker's per-epoch workspace: rebuilt only when the snapshot
    /// generation changed since this worker's last query.
    fn workspace_for<'ws>(
        &self,
        snap: &WorldSnapshot,
        cache: &'ws mut Option<(u64, ClosureWorkspace)>,
    ) -> &'ws mut ClosureWorkspace {
        let stale = !matches!(cache, Some((epoch, _)) if *epoch == snap.epoch);
        if stale {
            *cache = Some((snap.epoch, snap.index.workspace()));
        }
        &mut cache.as_mut().expect("just ensured").1
    }
}

/// A `405` with the allowed method spelled out.
fn method_not_allowed(allowed: &str) -> Response {
    Response::error(405, &format!("method not allowed (use {allowed})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_daemon(threads: usize) -> Daemon {
        Daemon::boot(
            WorldSpec::parse("tiny", 11).expect("tiny parses"),
            ServiceConfig {
                threads,
                queue_cap: 8,
                figures: false,
                ..ServiceConfig::default()
            },
        )
    }

    fn request(method: &str, path: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: None,
            keep_alive: true,
            body: Vec::new(),
        }
    }

    fn route_status(daemon: &Daemon, method: &str, path: &str) -> u16 {
        let (tx, _rx) = mpsc::channel();
        let mut ws = None;
        daemon.route(&request(method, path), &mut ws, &tx).1.status
    }

    #[test]
    fn routes_cover_all_three_planes() {
        let daemon = tiny_daemon(1);
        assert_eq!(route_status(&daemon, "GET", "/healthz"), 200);
        assert_eq!(route_status(&daemon, "GET", "/metrics"), 200);
        assert_eq!(route_status(&daemon, "GET", "/names"), 200);
        assert_eq!(route_status(&daemon, "GET", "/figures"), 404); // figures disabled
        assert_eq!(route_status(&daemon, "GET", "/nope"), 404);
        assert_eq!(route_status(&daemon, "POST", "/healthz"), 405);
        assert_eq!(route_status(&daemon, "GET", "/reload"), 405);
    }

    #[test]
    fn name_route_reuses_the_worker_workspace() {
        let daemon = tiny_daemon(1);
        let first = daemon.store().current().names.get(0).name.to_string();
        let (tx, _rx) = mpsc::channel();
        let mut ws = None;
        let path = format!("/name/{first}");
        let a = daemon.route(&request("GET", &path), &mut ws, &tx).1;
        let b = daemon.route(&request("GET", &path), &mut ws, &tx).1;
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body, "same snapshot, same bytes");
        assert!(ws.is_some(), "workspace cached after first query");
    }

    #[test]
    fn shutdown_route_marks_drain() {
        let daemon = tiny_daemon(1);
        let (tx, _rx) = mpsc::channel();
        let mut ws = None;
        let (endpoint, response, drain) = daemon.route(&request("POST", "/shutdown"), &mut ws, &tx);
        assert_eq!(endpoint, Endpoint::Shutdown);
        assert_eq!(response.status, 200);
        assert!(drain);
    }

    #[test]
    fn concurrent_reloads_are_gated_to_one_pending() {
        let daemon = tiny_daemon(1);
        let (tx, rx) = mpsc::channel();
        assert_eq!(daemon.schedule_reload(b"", &tx).status, 202);
        // While one is pending, further reloads bounce instead of
        // stacking full rebuilds, and queue nothing.
        assert_eq!(daemon.schedule_reload(b"{\"seed\":7}", &tx).status, 409);
        assert!(rx.try_recv().is_ok(), "exactly one rebuild queued");
        assert!(rx.try_recv().is_err(), "the 409 queued nothing");
        // Once the reloader clears the gate, scheduling works again.
        daemon.reloading.store(false, Ordering::SeqCst);
        assert_eq!(daemon.schedule_reload(b"", &tx).status, 202);
    }

    #[test]
    fn reload_with_bad_bodies_is_a_400() {
        let daemon = tiny_daemon(1);
        let (tx, _rx) = mpsc::channel();
        let bad = [
            b"not json".to_vec(),
            b"{\"other\":1}".to_vec(),
            b"{\"seed\":-1}".to_vec(),
        ];
        for body in bad {
            let response = daemon.schedule_reload(&body, &tx);
            assert_eq!(response.status, 400, "body: {}", response.body);
        }
    }
}
