//! Lock-free service observability: per-request-kind counters, log₂ latency
//! histograms, cache hit rates and queue depth, all plain atomics so the hot
//! path never blocks on a metrics lock.
//!
//! Two exposition surfaces share these counters:
//!
//! * [`Metrics::snapshot`] — the JSON body of the `stats` op;
//! * [`Metrics::prometheus`] — Prometheus text exposition format (the
//!   `metrics` op), so a scraper can poll the daemon without parsing JSON.

use sdlo_wire::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Request kinds tracked separately. `Other` covers unknown ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Analyze,
    Predict,
    Advise,
    Batch,
    Lint,
    Stats,
    Metrics,
    Debug,
    Revise,
    Sleep,
    Other,
}

impl Kind {
    pub const ALL: [Kind; 11] = [
        Kind::Analyze,
        Kind::Predict,
        Kind::Advise,
        Kind::Batch,
        Kind::Lint,
        Kind::Stats,
        Kind::Metrics,
        Kind::Debug,
        Kind::Revise,
        Kind::Sleep,
        Kind::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Analyze => "analyze",
            Kind::Predict => "predict",
            Kind::Advise => "advise",
            Kind::Batch => "batch",
            Kind::Lint => "lint",
            Kind::Stats => "stats",
            Kind::Metrics => "metrics",
            Kind::Debug => "debug",
            Kind::Revise => "revise",
            Kind::Sleep => "sleep",
            Kind::Other => "other",
        }
    }

    pub fn from_op(op: &str) -> Kind {
        match op {
            "analyze" => Kind::Analyze,
            "predict" => Kind::Predict,
            "advise" => Kind::Advise,
            "batch" => Kind::Batch,
            "lint" => Kind::Lint,
            "stats" => Kind::Stats,
            "metrics" => Kind::Metrics,
            "debug" => Kind::Debug,
            "revise" => Kind::Revise,
            "sleep" => Kind::Sleep,
            _ => Kind::Other,
        }
    }
}

const BUCKETS: usize = 32;

/// Log₂ microsecond histogram: bucket `i` counts observations in
/// `[2^i, 2^(i+1))` µs (bucket 0 also takes sub-microsecond samples).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Total observed microseconds (Prometheus `_sum`).
    sum_micros: AtomicU64,
}

impl Histogram {
    pub fn observe_micros(&self, micros: u64) {
        let idx = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    fn counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper bucket bound (µs) below which `q` of the observations fall.
    /// `q` above 1.0 (or rounding at the top) clamps to the bound of the
    /// highest non-empty bucket — never a sentinel like `u64::MAX`.
    fn quantile_micros(counts: &[u64; BUCKETS], q: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil() as u64;
        let mut seen = 0;
        let mut last_nonempty = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if *c > 0 {
                last_nonempty = i;
            }
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << (last_nonempty + 1).min(63)
    }

    fn snapshot(&self) -> Value {
        let counts = self.counts();
        let nonzero: Vec<Value> = counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                Value::obj(vec![
                    ("le_micros", Value::from(1u64 << (i + 1).min(63))),
                    ("count", Value::from(*c)),
                ])
            })
            .collect();
        Value::obj(vec![
            (
                "p50_le_micros",
                Value::from(Self::quantile_micros(&counts, 0.50)),
            ),
            (
                "p90_le_micros",
                Value::from(Self::quantile_micros(&counts, 0.90)),
            ),
            (
                "p99_le_micros",
                Value::from(Self::quantile_micros(&counts, 0.99)),
            ),
            ("buckets", Value::Array(nonzero)),
        ])
    }
}

#[derive(Debug, Default)]
pub struct KindStats {
    pub requests: AtomicU64,
    pub errors: AtomicU64,
    /// Requests of this kind currently being handled (gauge).
    pub in_flight: AtomicU64,
    pub latency: Histogram,
}

/// All service counters. Shared as `Arc<Metrics>` between the engine, the
/// server and tests.
#[derive(Debug)]
pub struct Metrics {
    per_kind: [KindStats; Kind::ALL.len()],
    /// Memoized model served from the canonical-shape cache.
    pub cache_hits: AtomicU64,
    /// Model had to be built (partitioning + symbolic analysis ran).
    pub cache_misses: AtomicU64,
    /// Models actually built from scratch. Differs from `cache_misses` when
    /// a disk-cache tier is configured: an in-memory miss satisfied from
    /// disk counts as a miss but not a build. A warm-restarted backend
    /// serving only previously-seen shapes reports 0 here.
    pub models_built: AtomicU64,
    /// In-memory misses satisfied from the disk-cache tier.
    pub disk_hits: AtomicU64,
    /// Models persisted to the disk-cache tier.
    pub disk_writes: AtomicU64,
    /// Disk-cache entries rejected (corrupt/stale/unreadable) or failed
    /// writes; every rejection is followed by a rebuild, never a crash.
    pub disk_errors: AtomicU64,
    /// Lines that failed to parse as JSON.
    pub malformed: AtomicU64,
    /// Requests rejected by backpressure (queue full).
    pub rejected: AtomicU64,
    /// Requests rejected for exceeding a size limit.
    pub oversized: AtomicU64,
    /// Connections accepted over the lifetime of the server.
    pub connections: AtomicU64,
    /// Connections currently open (gauge): incremented on accept,
    /// decremented when the reactor retires the connection.
    pub connections_active: AtomicU64,
    /// Jobs currently queued or executing in the worker pool.
    pub queue_depth: AtomicU64,
    /// Requests whose handling panicked; each was answered with the
    /// `internal` error and its worker kept serving.
    pub worker_panics: AtomicU64,
    /// Returns from the reactor's `poll` wait. An idle server adds none; a
    /// request costs about two (its line arrives, its reply is ready).
    pub reactor_wakeups: AtomicU64,
    /// Tile searches cut short by their budget (`advise` replies with
    /// `completed:false`).
    pub searches_cancelled: AtomicU64,
    /// `error`-severity diagnostics returned by `lint` requests.
    pub lint_diag_errors: AtomicU64,
    /// `warning`-severity diagnostics returned by `lint` requests.
    pub lint_diag_warnings: AtomicU64,
    /// `info`-severity diagnostics returned by `lint` requests.
    pub lint_diag_infos: AtomicU64,
    /// `revise` requests whose base canon hash had no live DAG session
    /// (answered by falling back toward a full build).
    pub revise_base_misses: AtomicU64,
    /// `revise` requests that built a model DAG from scratch (cold start
    /// or evicted session).
    pub revise_full_builds: AtomicU64,
    /// Dirty expression nodes re-evaluated across all `revise` deltas.
    pub revise_nodes_reevaluated: AtomicU64,
    /// Expression nodes proven clean (fingerprint or dependency check) and
    /// reused across all `revise` deltas.
    pub revise_nodes_reused: AtomicU64,
    /// Live DAG sessions held by the engine (gauge).
    pub revise_sessions: AtomicU64,
    /// Per-phase attribution, all ops pooled: microseconds a request spent
    /// queued before a worker picked it up.
    pub queue_wait: Histogram,
    /// Microseconds executing in the engine (parse → dispatch → encode).
    pub exec: Histogram,
    /// Microseconds between engine completion and the reply flush (reorder
    /// wait + socket write).
    pub write: Histogram,
    /// Process start, for `uptime_seconds`.
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            per_kind: Default::default(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            models_built: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            disk_errors: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            searches_cancelled: AtomicU64::new(0),
            lint_diag_errors: AtomicU64::new(0),
            lint_diag_warnings: AtomicU64::new(0),
            lint_diag_infos: AtomicU64::new(0),
            revise_base_misses: AtomicU64::new(0),
            revise_full_builds: AtomicU64::new(0),
            revise_nodes_reevaluated: AtomicU64::new(0),
            revise_nodes_reused: AtomicU64::new(0),
            revise_sessions: AtomicU64::new(0),
            queue_wait: Histogram::default(),
            exec: Histogram::default(),
            write: Histogram::default(),
            started: Instant::now(),
        }
    }
}

impl Metrics {
    pub fn kind(&self, k: Kind) -> &KindStats {
        &self.per_kind[Kind::ALL.iter().position(|x| *x == k).expect("kind listed")]
    }

    pub fn record(&self, k: Kind, micros: u64, ok: bool) {
        let s = self.kind(k);
        s.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            s.errors.fetch_add(1, Ordering::Relaxed);
        }
        s.latency.observe_micros(micros);
    }

    /// Seconds since this `Metrics` (≈ the service) was created.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Everything as one JSON object (the `stats` response body).
    pub fn snapshot(&self) -> Value {
        let load = |a: &AtomicU64| Value::from(a.load(Ordering::Relaxed));
        let requests = Kind::ALL
            .iter()
            .map(|k| {
                let s = self.kind(*k);
                (
                    k.name().to_string(),
                    Value::obj(vec![
                        ("requests", load(&s.requests)),
                        ("errors", load(&s.errors)),
                        ("in_flight", load(&s.in_flight)),
                        ("latency", s.latency.snapshot()),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("version", Value::from(env!("CARGO_PKG_VERSION"))),
            ("uptime_seconds", Value::from(self.uptime_seconds())),
            ("requests", Value::Object(requests)),
            (
                "cache",
                Value::obj(vec![
                    ("hits", load(&self.cache_hits)),
                    ("misses", load(&self.cache_misses)),
                    ("built", load(&self.models_built)),
                    ("disk_hits", load(&self.disk_hits)),
                    ("disk_writes", load(&self.disk_writes)),
                    ("disk_errors", load(&self.disk_errors)),
                ]),
            ),
            (
                "lint",
                Value::obj(vec![(
                    "diagnostics",
                    Value::obj(vec![
                        ("error", load(&self.lint_diag_errors)),
                        ("warning", load(&self.lint_diag_warnings)),
                        ("info", load(&self.lint_diag_infos)),
                    ]),
                )]),
            ),
            (
                "revise",
                Value::obj(vec![
                    ("sessions", load(&self.revise_sessions)),
                    ("base_misses", load(&self.revise_base_misses)),
                    ("full_builds", load(&self.revise_full_builds)),
                    ("nodes_reevaluated", load(&self.revise_nodes_reevaluated)),
                    ("nodes_reused", load(&self.revise_nodes_reused)),
                ]),
            ),
            (
                "phases",
                Value::obj(vec![
                    ("queue", self.queue_wait.snapshot()),
                    ("exec", self.exec.snapshot()),
                    ("write", self.write.snapshot()),
                ]),
            ),
            ("searches_cancelled", load(&self.searches_cancelled)),
            ("malformed", load(&self.malformed)),
            ("rejected", load(&self.rejected)),
            ("oversized", load(&self.oversized)),
            ("connections", load(&self.connections)),
            ("connections_active", load(&self.connections_active)),
            ("queue_depth", load(&self.queue_depth)),
        ])
    }

    /// Prometheus text exposition (version 0.0.4) of every counter that
    /// [`Metrics::snapshot`] reports. Histogram buckets are rendered
    /// cumulatively as the format requires (our internal log₂ buckets are
    /// per-bucket). `cached_shapes` is the current model-cache size, which
    /// lives outside `Metrics`.
    pub fn prometheus(&self, cached_shapes: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);

        out.push_str("# TYPE sdlo_requests_total counter\n");
        for k in Kind::ALL {
            let _ = writeln!(
                out,
                "sdlo_requests_total{{op=\"{}\"}} {}",
                k.name(),
                load(&self.kind(k).requests)
            );
        }
        out.push_str("# TYPE sdlo_request_errors_total counter\n");
        for k in Kind::ALL {
            let _ = writeln!(
                out,
                "sdlo_request_errors_total{{op=\"{}\"}} {}",
                k.name(),
                load(&self.kind(k).errors)
            );
        }
        out.push_str("# TYPE sdlo_inflight gauge\n");
        for k in Kind::ALL {
            let _ = writeln!(
                out,
                "sdlo_inflight{{op=\"{}\"}} {}",
                k.name(),
                load(&self.kind(k).in_flight)
            );
        }
        out.push_str("# TYPE sdlo_request_latency_micros histogram\n");
        for k in Kind::ALL {
            let h = &self.kind(k).latency;
            let counts = h.counts();
            let mut cum = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cum += c;
                if *c > 0 || i + 1 == BUCKETS {
                    let _ = writeln!(
                        out,
                        "sdlo_request_latency_micros_bucket{{op=\"{}\",le=\"{}\"}} {}",
                        k.name(),
                        1u64 << (i + 1).min(63),
                        cum
                    );
                }
            }
            let _ = writeln!(
                out,
                "sdlo_request_latency_micros_bucket{{op=\"{}\",le=\"+Inf\"}} {}",
                k.name(),
                cum
            );
            let _ = writeln!(
                out,
                "sdlo_request_latency_micros_count{{op=\"{}\"}} {}",
                k.name(),
                cum
            );
            let _ = writeln!(
                out,
                "sdlo_request_latency_micros_sum{{op=\"{}\"}} {}",
                k.name(),
                h.sum_micros.load(Ordering::Relaxed)
            );
        }
        for (name, h) in [
            ("sdlo_request_queue_micros", &self.queue_wait),
            ("sdlo_request_exec_micros", &self.exec),
            ("sdlo_request_write_micros", &self.write),
        ] {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let counts = h.counts();
            let mut cum = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cum += c;
                if *c > 0 || i + 1 == BUCKETS {
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{le=\"{}\"}} {cum}",
                        1u64 << (i + 1).min(63)
                    );
                }
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
            let _ = writeln!(out, "{name}_count {cum}");
            let _ = writeln!(out, "{name}_sum {}", h.sum_micros.load(Ordering::Relaxed));
        }
        let singles: [(&str, &str, u64); 21] = [
            (
                "sdlo_model_cache_hits_total",
                "counter",
                load(&self.cache_hits),
            ),
            (
                "sdlo_searches_cancelled_total",
                "counter",
                load(&self.searches_cancelled),
            ),
            (
                "sdlo_model_cache_misses_total",
                "counter",
                load(&self.cache_misses),
            ),
            (
                "sdlo_models_built_total",
                "counter",
                load(&self.models_built),
            ),
            (
                "sdlo_model_cache_disk_hits_total",
                "counter",
                load(&self.disk_hits),
            ),
            (
                "sdlo_model_cache_disk_writes_total",
                "counter",
                load(&self.disk_writes),
            ),
            (
                "sdlo_model_cache_disk_errors_total",
                "counter",
                load(&self.disk_errors),
            ),
            ("sdlo_cached_shapes", "gauge", cached_shapes),
            (
                "sdlo_malformed_lines_total",
                "counter",
                load(&self.malformed),
            ),
            (
                "sdlo_rejected_requests_total",
                "counter",
                load(&self.rejected),
            ),
            (
                "sdlo_oversized_requests_total",
                "counter",
                load(&self.oversized),
            ),
            ("sdlo_connections_total", "counter", load(&self.connections)),
            (
                "sdlo_connections_active",
                "gauge",
                load(&self.connections_active),
            ),
            ("sdlo_queue_depth", "gauge", load(&self.queue_depth)),
            (
                "sdlo_worker_panics_total",
                "counter",
                load(&self.worker_panics),
            ),
            (
                "sdlo_reactor_wakeups_total",
                "counter",
                load(&self.reactor_wakeups),
            ),
            (
                "sdlo_revise_base_misses_total",
                "counter",
                load(&self.revise_base_misses),
            ),
            (
                "sdlo_revise_full_builds_total",
                "counter",
                load(&self.revise_full_builds),
            ),
            (
                "sdlo_revise_nodes_reevaluated_total",
                "counter",
                load(&self.revise_nodes_reevaluated),
            ),
            (
                "sdlo_revise_nodes_reused_total",
                "counter",
                load(&self.revise_nodes_reused),
            ),
            ("sdlo_revise_sessions", "gauge", load(&self.revise_sessions)),
        ];
        for (name, ty, v) in singles {
            let _ = writeln!(out, "# TYPE {name} {ty}");
            let _ = writeln!(out, "{name} {v}");
        }
        out.push_str("# TYPE sdlo_lint_diagnostics_total counter\n");
        for (sev, a) in [
            ("error", &self.lint_diag_errors),
            ("warning", &self.lint_diag_warnings),
            ("info", &self.lint_diag_infos),
        ] {
            let _ = writeln!(
                out,
                "sdlo_lint_diagnostics_total{{severity=\"{sev}\"}} {}",
                load(a)
            );
        }
        out.push_str("# TYPE sdlo_uptime_seconds gauge\n");
        let _ = writeln!(out, "sdlo_uptime_seconds {:.3}", self.uptime_seconds());
        out.push_str("# TYPE sdlo_build_info gauge\n");
        let _ = writeln!(
            out,
            "sdlo_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe_micros(3); // bucket 1: [2,4)
        }
        for _ in 0..10 {
            h.observe_micros(1000); // bucket 9: [512,1024)
        }
        let counts = h.counts();
        assert_eq!(counts[1], 90);
        assert_eq!(counts[9], 10);
        assert_eq!(Histogram::quantile_micros(&counts, 0.5), 4);
        assert_eq!(Histogram::quantile_micros(&counts, 0.99), 1024);
        assert_eq!(h.sum_micros.load(Ordering::Relaxed), 90 * 3 + 10 * 1000);
    }

    #[test]
    fn quantile_clamps_to_highest_nonempty_bucket() {
        let h = Histogram::default();
        h.observe_micros(3); // bucket 1, bound 4
        h.observe_micros(1000); // bucket 9, bound 1024
        let counts = h.counts();
        // A quantile beyond 1.0 must clamp to the top non-empty bucket's
        // bound, not fall through to u64::MAX.
        assert_eq!(Histogram::quantile_micros(&counts, 1.5), 1024);
        assert_eq!(Histogram::quantile_micros(&counts, 1.0), 1024);
    }

    #[test]
    fn record_tracks_errors_per_kind() {
        let m = Metrics::default();
        m.record(Kind::Predict, 10, true);
        m.record(Kind::Predict, 20, false);
        m.record(Kind::Analyze, 5, true);
        assert_eq!(m.kind(Kind::Predict).requests.load(Ordering::Relaxed), 2);
        assert_eq!(m.kind(Kind::Predict).errors.load(Ordering::Relaxed), 1);
        assert_eq!(m.kind(Kind::Analyze).errors.load(Ordering::Relaxed), 0);
        let snap = m.snapshot();
        let predict = snap.get("requests").unwrap().get("predict").unwrap();
        assert_eq!(predict.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(
            snap.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(snap.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn zero_micros_lands_in_first_bucket() {
        let h = Histogram::default();
        h.observe_micros(0);
        assert_eq!(h.counts()[0], 1);
    }

    #[test]
    fn prometheus_text_matches_counters() {
        let m = Metrics::default();
        m.record(Kind::Predict, 10, true);
        m.record(Kind::Predict, 20, false);
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        let text = m.prometheus(7);
        assert!(text.contains("sdlo_requests_total{op=\"predict\"} 2"));
        assert!(text.contains("sdlo_request_errors_total{op=\"predict\"} 1"));
        assert!(text.contains("sdlo_model_cache_hits_total 3"));
        assert!(text.contains("sdlo_cached_shapes 7"));
        assert!(text.contains("sdlo_build_info{version="));
        // Histogram buckets must be cumulative and end with +Inf == _count.
        assert!(text.contains("sdlo_request_latency_micros_bucket{op=\"predict\",le=\"+Inf\"} 2"));
        assert!(text.contains("sdlo_request_latency_micros_count{op=\"predict\"} 2"));
        assert!(text.contains("sdlo_request_latency_micros_sum{op=\"predict\"} 30"));
    }

    #[test]
    fn phase_histograms_expose_unlabeled_series() {
        let m = Metrics::default();
        m.queue_wait.observe_micros(3); // bucket bound 4
        m.queue_wait.observe_micros(1000); // bucket bound 1024
        m.exec.observe_micros(100); // bucket bound 128
        let text = m.prometheus(0);
        assert!(text.contains("# TYPE sdlo_request_queue_micros histogram"));
        assert!(text.contains("sdlo_request_queue_micros_bucket{le=\"4\"} 1"));
        assert!(text.contains("sdlo_request_queue_micros_bucket{le=\"1024\"} 2"));
        assert!(text.contains("sdlo_request_queue_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sdlo_request_queue_micros_count 2"));
        assert!(text.contains("sdlo_request_queue_micros_sum 1003"));
        assert!(text.contains("sdlo_request_exec_micros_bucket{le=\"128\"} 1"));
        assert!(text.contains("sdlo_request_write_micros_count 0"));
        // The queue-depth gauge rides along for the loadgen cross-check.
        assert!(text.contains("# TYPE sdlo_queue_depth gauge"));
        let snap = m.snapshot();
        let phases = snap.get("phases").unwrap();
        assert_eq!(
            phases
                .get("queue")
                .unwrap()
                .get("p99_le_micros")
                .unwrap()
                .as_u64(),
            Some(1024)
        );
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let m = Metrics::default();
        m.record(Kind::Analyze, 3, true); // bucket bound 4
        m.record(Kind::Analyze, 1000, true); // bucket bound 1024
        let text = m.prometheus(0);
        assert!(text.contains("sdlo_request_latency_micros_bucket{op=\"analyze\",le=\"4\"} 1"));
        assert!(text.contains("sdlo_request_latency_micros_bucket{op=\"analyze\",le=\"1024\"} 2"));
    }
}
