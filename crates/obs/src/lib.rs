//! # tsj-obs
//!
//! Zero-dependency observability for the tree-similarity-join stack:
//! a lock-free [`MetricsRegistry`] of named counters, gauges and
//! log-scale latency histograms; structured trace [`Span`]s stamped on
//! an injectable [`Clock`] and collected in a bounded ring; and two
//! exporters — Prometheus text and a stable JSON snapshot
//! ([`export`]).
//!
//! The crate follows the repo's fold discipline: per-worker code
//! records into a local registry (or straight into the global one —
//! recording is a relaxed atomic op either way) and merges by metric
//! name on gather, exactly like `JoinStats`'s stage counters. The
//! [`Clock`] abstraction is promoted here from `tsj-cluster`, so trace
//! spans and the router's retry/backoff accounting share one notion of
//! time and virtual-clock tests can assert exact durations.
//!
//! ## The global layer
//!
//! Instrumented crates use the process-global registry/tracer through
//! [`global`], [`tracer`], [`span`] and [`instant`], governed by one
//! [`ObsConfig`] via [`configure`] — default **on**, with per-stage
//! verify timings off (see [`ObsConfig`]). Disabling observability
//! can never change join results: the same instrumented code runs
//! against shared sink cells.
//!
//! ```
//! use tsj_obs::{configure, global, span, ObsConfig};
//!
//! configure(&ObsConfig::default());
//! let work = span("demo.step", "demo");
//! global().counter("demo_steps_total").inc();
//! global().histogram("demo_latency_ms").record(3);
//! work.end();
//!
//! let snapshot = global().snapshot();
//! assert!(snapshot.counter("demo_steps_total") >= Some(1));
//! println!("{}", tsj_obs::export::to_prometheus(&snapshot));
//! ```

#![warn(missing_docs)]

mod clock;
mod config;
pub mod export;
mod metrics;
mod trace;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use config::ObsConfig;
pub use metrics::{
    bucket_bound, bucket_index, labeled, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot, MAX_TRACKED, NUM_BUCKETS,
};
pub use trace::{EventKind, Span, TraceBuffer, TraceEvent};

use config::TRACE_CAPACITY;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::export::{to_json, to_prometheus, validate_prometheus};
    pub use crate::{
        configure, global, instant, labeled, span, tracer, Clock, Counter, Gauge, Histogram,
        HistogramSnapshot, MetricsRegistry, MetricsSnapshot, ObsConfig, Span, SystemClock,
        TraceBuffer, TraceEvent, VirtualClock,
    };
}

fn stage_timings_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| AtomicBool::new(false))
}

fn global_clock_cell() -> &'static RwLock<Arc<dyn Clock>> {
    static CLOCK: OnceLock<RwLock<Arc<dyn Clock>>> = OnceLock::new();
    CLOCK.get_or_init(|| RwLock::new(Arc::new(SystemClock::new())))
}

/// The process-global metrics registry every instrumented crate records
/// into.
pub fn global() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// The process-global trace ring buffer.
pub fn tracer() -> &'static Arc<TraceBuffer> {
    static TRACER: OnceLock<Arc<TraceBuffer>> = OnceLock::new();
    TRACER.get_or_init(|| Arc::new(TraceBuffer::new(TRACE_CAPACITY)))
}

/// The clock global spans are stamped on — [`SystemClock`] unless
/// [`set_clock`] swapped it.
pub fn clock() -> Arc<dyn Clock> {
    global_clock_cell().read().expect("clock lock").clone()
}

/// Swaps the clock global spans are stamped on (e.g. a shared
/// [`VirtualClock`] a test inspects).
pub fn set_clock(clock: Arc<dyn Clock>) {
    *global_clock_cell().write().expect("clock lock") = clock;
}

/// Applies `config` to the global registry, tracer and stage-timing
/// flag. Callable any number of times; instrumented code observes the
/// new state on its next recording.
pub fn configure(config: &ObsConfig) {
    global().set_enabled(config.metrics);
    tracer().set_enabled(config.trace);
    tracer().set_capacity(if config.trace { TRACE_CAPACITY } else { 1 });
    stage_timings_flag().store(config.stage_timings, Ordering::Relaxed);
}

/// Whether verify-chain per-stage timing stamps are on (see
/// [`ObsConfig::stage_timings`]).
pub fn stage_timings_enabled() -> bool {
    stage_timings_flag().load(Ordering::Relaxed)
}

/// Begins a span on the global tracer and clock; the event is recorded
/// when the guard drops (inert while tracing is disabled).
pub fn span(name: impl Into<String>, cat: &'static str) -> Span {
    tracer().span(&clock(), name, cat)
}

/// Records a zero-duration marker on the global tracer and clock.
pub fn instant(name: impl Into<String>, cat: &'static str) {
    tracer().instant(&*clock(), name, cat);
}
