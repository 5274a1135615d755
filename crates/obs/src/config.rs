//! Observability configuration.

use swgpu_types::{ensure, ConfigError};

/// Knobs for the observability layer. Disabled by default: a default
/// `ObsConfig` arms nothing, records nothing, and leaves simulation
/// byte-identical to a build without the layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. When false every other knob is ignored.
    pub enabled: bool,
    /// Cycles between occupancy samples (gauge → time-series).
    pub sample_interval: u64,
    /// Ring capacity of each sampled time-series.
    pub series_capacity: usize,
    /// Maximum retained spans; further spans are counted as dropped.
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            sample_interval: 1024,
            series_capacity: 4096,
            span_capacity: 65_536,
        }
    }
}

impl ObsConfig {
    /// An enabled configuration with the default knobs — what the figure
    /// harnesses use.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Rejects an enabled configuration with a zero sample interval,
    /// series capacity or span capacity. A disabled configuration is
    /// always valid (its knobs are ignored).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.enabled {
            return Ok(());
        }
        ensure!(self.sample_interval > 0, "obs sample interval must be > 0");
        ensure!(self.series_capacity > 0, "obs series capacity must be > 0");
        ensure!(self.span_capacity > 0, "obs span capacity must be > 0");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let c = ObsConfig::default();
        assert!(!c.enabled);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn disabled_config_ignores_bad_knobs() {
        let c = ObsConfig {
            enabled: false,
            sample_interval: 0,
            series_capacity: 0,
            span_capacity: 0,
        };
        assert!(c.validate().is_ok());
    }
}
