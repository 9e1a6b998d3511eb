//! The observability plane: lock-free counters rendered as Prometheus
//! text exposition.
//!
//! Every counter is a relaxed atomic — recording a request on the hot
//! path is a handful of uncontended `fetch_add`s, never a lock. The
//! exposition format (and the meaning of every field) is documented in
//! `OBSERVABILITY.md`; the renderer here is the single source of truth
//! the doc describes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// The endpoints the daemon distinguishes in its per-endpoint counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /name/<name>`
    Name,
    /// `GET /zone/<zone>`
    Zone,
    /// `GET /figures`
    Figures,
    /// `GET /names`
    Names,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /reload`
    Reload,
    /// `POST /shutdown`
    Shutdown,
    /// Anything else (404s, bad methods, parse failures).
    Other,
}

/// All endpoints, in exposition order.
pub const ENDPOINTS: [Endpoint; 9] = [
    Endpoint::Name,
    Endpoint::Zone,
    Endpoint::Figures,
    Endpoint::Names,
    Endpoint::Healthz,
    Endpoint::Metrics,
    Endpoint::Reload,
    Endpoint::Shutdown,
    Endpoint::Other,
];

impl Endpoint {
    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Name => "name",
            Endpoint::Zone => "zone",
            Endpoint::Figures => "figures",
            Endpoint::Names => "names",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Reload => "reload",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        ENDPOINTS.iter().position(|e| *e == self).expect("listed")
    }
}

/// Histogram bucket upper bounds, in microseconds. Chosen around the
/// service contract (warm query < 5 ms p50): enough resolution below
/// 5 ms to see the p50 move, a long tail above it to catch stalls.
const BUCKET_BOUNDS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// A fixed-bucket latency histogram (cumulative on render, like
/// Prometheus expects).
#[derive(Debug, Default)]
struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len()],
    overflow: AtomicU64,
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        match BUCKET_BOUNDS_US.iter().position(|&bound| us <= bound) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// The daemon's counters. One instance lives as long as the daemon;
/// workers and the acceptor record into it without coordination.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; ENDPOINTS.len()],
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    latency: LatencyHistogram,
    connections: AtomicU64,
    queue_depth: AtomicUsize,
    queue_rejected: AtomicU64,
    reloads: AtomicU64,
    reloads_failed: AtomicU64,
    worker_panics: AtomicU64,
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one served request: endpoint counter, status class,
    /// latency histogram.
    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        self.requests[endpoint.index()].fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.latency.record(elapsed);
    }

    /// Counts an accepted connection.
    pub fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the pending-connection queue depth (the queue owns the
    /// authoritative value; this mirrors it for scraping).
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Counts a connection turned away with `503` because the queue hit
    /// its cap.
    pub fn queue_rejected(&self) {
        self.queue_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a completed snapshot reload.
    pub fn reload_completed(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a reload that failed (archive unreadable or corrupt); the
    /// old generation keeps serving.
    pub fn reload_failed(&self) {
        self.reloads_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request whose handler panicked; it was answered `500`
    /// and its worker kept serving.
    pub fn worker_panicked(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed reloads so far.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Failed reloads so far.
    pub fn reloads_failed(&self) -> u64 {
        self.reloads_failed.load(Ordering::Relaxed)
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition. Snapshot identity (epoch,
    /// age, provenance) and daemon state (reloading, worker count) come
    /// from the caller — they live outside the counter block.
    /// `source_kind` is `"built"` or `"loaded"`; `archive_load_ms` is the
    /// `.psa` decode wall-clock when the snapshot was loaded from one
    /// (0 when built in-process). `backend_kind` is the archive
    /// byte-store behind the serving world (`"heap"` or `"paged"`; a
    /// built world serves from its in-memory archive, a heap store);
    /// `resident_bytes` is how much of the archive is in memory right
    /// now (the whole buffer for heap, cached pages for paged); `cache`
    /// carries the paged backend's hit/miss/eviction totals (all zero
    /// for heap).
    #[allow(clippy::too_many_arguments)]
    pub fn render(
        &self,
        epoch: u64,
        age: Duration,
        reloading: bool,
        workers: usize,
        source_kind: &str,
        archive_load_ms: f64,
        backend_kind: &str,
        resident_bytes: u64,
        cache: perils_util::CacheCounters,
    ) -> String {
        let mut out = String::with_capacity(2048);

        out.push_str("# HELP perilsd_requests_total Requests served, by endpoint.\n");
        out.push_str("# TYPE perilsd_requests_total counter\n");
        for (i, endpoint) in ENDPOINTS.iter().enumerate() {
            let count = self.requests[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "perilsd_requests_total{{endpoint=\"{}\"}} {}\n",
                endpoint.label(),
                count
            ));
        }

        out.push_str("# HELP perilsd_responses_total Responses, by status class.\n");
        out.push_str("# TYPE perilsd_responses_total counter\n");
        for (class, counter) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ] {
            out.push_str(&format!(
                "perilsd_responses_total{{class=\"{class}\"}} {}\n",
                counter.load(Ordering::Relaxed)
            ));
        }

        out.push_str(
            "# HELP perilsd_request_duration_seconds Request latency (route to last byte written).\n",
        );
        out.push_str("# TYPE perilsd_request_duration_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, bound_us) in BUCKET_BOUNDS_US.iter().enumerate() {
            cumulative += self.latency.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "perilsd_request_duration_seconds_bucket{{le=\"{}\"}} {}\n",
                (*bound_us as f64) / 1e6,
                cumulative
            ));
        }
        cumulative += self.latency.overflow.load(Ordering::Relaxed);
        out.push_str(&format!(
            "perilsd_request_duration_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "perilsd_request_duration_seconds_sum {}\n",
            self.latency.sum_us.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!(
            "perilsd_request_duration_seconds_count {}\n",
            self.latency.count.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP perilsd_snapshot_epoch Current snapshot generation.\n");
        out.push_str("# TYPE perilsd_snapshot_epoch gauge\n");
        out.push_str(&format!("perilsd_snapshot_epoch {epoch}\n"));

        out.push_str("# HELP perilsd_snapshot_age_seconds Seconds since the snapshot was built.\n");
        out.push_str("# TYPE perilsd_snapshot_age_seconds gauge\n");
        out.push_str(&format!(
            "perilsd_snapshot_age_seconds {}\n",
            age.as_secs_f64()
        ));

        out.push_str("# HELP perilsd_snapshot_reloading 1 while a reload is queued or building.\n");
        out.push_str("# TYPE perilsd_snapshot_reloading gauge\n");
        out.push_str(&format!(
            "perilsd_snapshot_reloading {}\n",
            u8::from(reloading)
        ));

        out.push_str(
            "# HELP perilsd_snapshot_source How the serving snapshot came to be (1 on its kind).\n",
        );
        out.push_str("# TYPE perilsd_snapshot_source gauge\n");
        for kind in ["built", "loaded"] {
            out.push_str(&format!(
                "perilsd_snapshot_source{{kind=\"{kind}\"}} {}\n",
                u8::from(kind == source_kind)
            ));
        }

        out.push_str(
            "# HELP perilsd_snapshot_archive_load_ms Archive decode time for a loaded snapshot (0 when built in-process).\n",
        );
        out.push_str("# TYPE perilsd_snapshot_archive_load_ms gauge\n");
        out.push_str(&format!(
            "perilsd_snapshot_archive_load_ms {archive_load_ms}\n"
        ));

        out.push_str(
            "# HELP perilsd_snapshot_backend Archive byte-store behind the serving world (1 on its kind).\n",
        );
        out.push_str("# TYPE perilsd_snapshot_backend gauge\n");
        for kind in ["heap", "paged"] {
            out.push_str(&format!(
                "perilsd_snapshot_backend{{kind=\"{kind}\"}} {}\n",
                u8::from(kind == backend_kind)
            ));
        }

        out.push_str(
            "# HELP perilsd_snapshot_resident_bytes Archive bytes resident in memory (whole buffer for heap, cached pages for paged).\n",
        );
        out.push_str("# TYPE perilsd_snapshot_resident_bytes gauge\n");
        out.push_str(&format!(
            "perilsd_snapshot_resident_bytes {resident_bytes}\n"
        ));

        out.push_str(
            "# HELP perilsd_page_cache_hits_total Page-cache hits (paged backend only).\n",
        );
        out.push_str("# TYPE perilsd_page_cache_hits_total counter\n");
        out.push_str(&format!("perilsd_page_cache_hits_total {}\n", cache.hits));

        out.push_str(
            "# HELP perilsd_page_cache_misses_total Page-cache misses, i.e. disk reads (paged backend only).\n",
        );
        out.push_str("# TYPE perilsd_page_cache_misses_total counter\n");
        out.push_str(&format!(
            "perilsd_page_cache_misses_total {}\n",
            cache.misses
        ));

        out.push_str(
            "# HELP perilsd_page_cache_evictions_total Pages evicted to stay under the --page-cache-mb budget.\n",
        );
        out.push_str("# TYPE perilsd_page_cache_evictions_total counter\n");
        out.push_str(&format!(
            "perilsd_page_cache_evictions_total {}\n",
            cache.evictions
        ));

        out.push_str("# HELP perilsd_reloads_total Completed snapshot reloads.\n");
        out.push_str("# TYPE perilsd_reloads_total counter\n");
        out.push_str(&format!(
            "perilsd_reloads_total {}\n",
            self.reloads.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP perilsd_reloads_failed_total Reloads rejected (unreadable or corrupt archive); the old generation kept serving.\n",
        );
        out.push_str("# TYPE perilsd_reloads_failed_total counter\n");
        out.push_str(&format!(
            "perilsd_reloads_failed_total {}\n",
            self.reloads_failed.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP perilsd_queue_depth Connections waiting for a worker.\n");
        out.push_str("# TYPE perilsd_queue_depth gauge\n");
        out.push_str(&format!(
            "perilsd_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP perilsd_queue_rejected_total Connections turned away at the cap.\n");
        out.push_str("# TYPE perilsd_queue_rejected_total counter\n");
        out.push_str(&format!(
            "perilsd_queue_rejected_total {}\n",
            self.queue_rejected.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP perilsd_connections_total Connections accepted.\n");
        out.push_str("# TYPE perilsd_connections_total counter\n");
        out.push_str(&format!(
            "perilsd_connections_total {}\n",
            self.connections.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP perilsd_worker_panics_total Requests whose handler panicked (answered 500; the worker kept serving).\n",
        );
        out.push_str("# TYPE perilsd_worker_panics_total counter\n");
        out.push_str(&format!(
            "perilsd_worker_panics_total {}\n",
            self.worker_panics.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP perilsd_workers Worker threads serving requests.\n");
        out.push_str("# TYPE perilsd_workers gauge\n");
        out.push_str(&format!("perilsd_workers {workers}\n"));

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_right_bucket_and_class() {
        let m = Metrics::new();
        m.record(Endpoint::Name, 200, Duration::from_micros(300));
        m.record(Endpoint::Name, 404, Duration::from_micros(300_000));
        m.record(Endpoint::Reload, 202, Duration::from_micros(50));
        m.reload_failed();
        m.worker_panicked();
        let text = m.render(
            3,
            Duration::from_secs(2),
            true,
            4,
            "loaded",
            41.5,
            "paged",
            128 * 1024,
            perils_util::CacheCounters {
                hits: 10,
                misses: 4,
                evictions: 2,
            },
        );
        assert!(text.contains("perilsd_requests_total{endpoint=\"name\"} 2"));
        assert!(text.contains("perilsd_snapshot_source{kind=\"built\"} 0"));
        assert!(text.contains("perilsd_snapshot_source{kind=\"loaded\"} 1"));
        assert!(text.contains("perilsd_snapshot_archive_load_ms 41.5"));
        assert!(text.contains("perilsd_snapshot_backend{kind=\"paged\"} 1"));
        assert!(text.contains("perilsd_snapshot_backend{kind=\"heap\"} 0"));
        assert!(!text.contains("kind=\"none\""));
        assert!(text.contains("perilsd_snapshot_resident_bytes 131072"));
        assert!(text.contains("perilsd_page_cache_hits_total 10"));
        assert!(text.contains("perilsd_page_cache_misses_total 4"));
        assert!(text.contains("perilsd_page_cache_evictions_total 2"));
        assert!(text.contains("perilsd_reloads_failed_total 1"));
        assert!(text.contains("perilsd_worker_panics_total 1"));
        assert!(text.contains("perilsd_requests_total{endpoint=\"reload\"} 1"));
        assert!(text.contains("perilsd_responses_total{class=\"2xx\"} 2"));
        assert!(text.contains("perilsd_responses_total{class=\"4xx\"} 1"));
        assert!(text.contains("perilsd_request_duration_seconds_count 3"));
        assert!(text.contains("perilsd_snapshot_epoch 3"));
        assert!(text.contains("perilsd_snapshot_reloading 1"));
        assert!(text.contains("perilsd_workers 4"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.record(Endpoint::Name, 200, Duration::from_micros(80)); // <= 100us
        m.record(Endpoint::Name, 200, Duration::from_micros(400)); // <= 500us
        m.record(Endpoint::Name, 200, Duration::from_secs(10)); // overflow
        let text = m.render(
            1,
            Duration::ZERO,
            false,
            1,
            "built",
            0.0,
            "heap",
            4096,
            perils_util::CacheCounters::default(),
        );
        assert!(text.contains("perilsd_request_duration_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("perilsd_request_duration_seconds_bucket{le=\"0.0005\"} 2"));
        assert!(text.contains("perilsd_request_duration_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("perilsd_request_duration_seconds_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn every_endpoint_appears_even_when_unused() {
        let text = Metrics::new().render(
            1,
            Duration::ZERO,
            false,
            1,
            "built",
            0.0,
            "heap",
            4096,
            perils_util::CacheCounters::default(),
        );
        assert!(text.contains("perilsd_snapshot_source{kind=\"built\"} 1"));
        assert!(text.contains("perilsd_snapshot_source{kind=\"loaded\"} 0"));
        assert!(text.contains("perilsd_snapshot_archive_load_ms 0"));
        assert!(text.contains("perilsd_snapshot_backend{kind=\"heap\"} 1"));
        assert!(text.contains("perilsd_snapshot_resident_bytes 4096"));
        assert!(text.contains("perilsd_page_cache_hits_total 0"));
        for endpoint in ENDPOINTS {
            assert!(
                text.contains(&format!("endpoint=\"{}\"", endpoint.label())),
                "missing endpoint label {}",
                endpoint.label()
            );
        }
    }
}
