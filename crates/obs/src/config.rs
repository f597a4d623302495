//! The observability switchboard.
//!
//! One [`ObsConfig`] governs the process-global registry and tracer
//! (see [`crate::configure`]). The default is **on**: metrics and trace
//! recording cost one relaxed atomic op per event, cheap enough to
//! leave running. `stage_timings` is the exception — it wraps every
//! verify-chain stage call in wall-clock stamps, which would dominate
//! the cheapest filters, so it defaults **off** and exists for targeted
//! profiling runs.
//!
//! Toggling any of these can never change join results: the disabled
//! paths run the same instrumented code against shared sink cells
//! (see [`crate::MetricsRegistry::disabled`]) — a contract the root
//! `obs_equivalence` suite property-tests across every entry point.

/// What the global observability layer records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Retain metric recordings in the global registry.
    pub metrics: bool,
    /// Retain trace events in the global ring buffer, which then holds
    /// the last 4 096 of them (one while tracing is off).
    pub trace: bool,
    /// Stamp per-stage wall-clock timings inside the verify chain
    /// (profiling only: the stamps cost more than the cheap stages).
    pub stage_timings: bool,
}

/// Events the global trace ring buffer holds while tracing is on; it
/// holds one while tracing is off.
pub(crate) const TRACE_CAPACITY: usize = 4096;

impl ObsConfig {
    /// Everything a production run wants: metrics and trace on,
    /// per-stage timing stamps off.
    pub const ON: ObsConfig = ObsConfig {
        metrics: true,
        trace: true,
        stage_timings: false,
    };

    /// Everything off: recordings land in shared sinks, snapshots are
    /// empty, spans are inert.
    pub const DISABLED: ObsConfig = ObsConfig {
        metrics: false,
        trace: false,
        stage_timings: false,
    };

    /// Everything on, including per-stage verify-chain timings.
    pub const PROFILE: ObsConfig = ObsConfig {
        metrics: true,
        trace: true,
        stage_timings: true,
    };
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::ON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_on_with_stage_timings_off() {
        let config = ObsConfig::default();
        assert!(config.metrics && config.trace);
        assert!(!config.stage_timings);
        assert_eq!(config, ObsConfig::ON);
        let (disabled, profile) = (ObsConfig::DISABLED, ObsConfig::PROFILE);
        assert_eq!((disabled.metrics, disabled.trace), (false, false));
        assert_eq!(
            (profile.metrics, profile.stage_timings),
            (true, true),
            "profiling keeps metrics on and adds stage stamps"
        );
    }
}
