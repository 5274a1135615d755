//! On-disk JSON artifacts for completed simulation runs.
//!
//! Every cell the experiment runner executes is persisted under the run
//! cache directory (default `target/swgpu-runs/`) as one JSON file named
//! `<cell key>.json`. The file doubles as the cross-binary baseline
//! cache — running `fig16` then `fig18` re-simulates nothing — and as a
//! machine-readable artifact for external plotting/analysis tooling.
//!
//! Schema (version 8, flat except for the nested stats object and the
//! trailing observability payload):
//!
//! ```json
//! {
//!   "schema": 8,
//!   "key": "bfs-fp100-a1b2c3d4e5f60718",
//!   "workload": "bfs-fp100",
//!   "config": "a1b2c3d4e5f60718",
//!   "stats": { ...SimStats::to_json()... },
//!   "obs": { ...swgpu_obs::ObsReport::to_json()... }
//! }
//! ```
//!
//! `config` is [`swgpu_sim::GpuConfig::fingerprint`]; `stats` round-trips
//! through [`swgpu_sim::SimStats::from_json`]. `obs` is the
//! [`swgpu_sim::ObsReport`] of an observability-enabled run and is
//! present exactly when the run armed [`swgpu_sim::ObsConfig`]; the
//! Figure 9 timeline is rebuilt from its spans. Reading parses the file
//! once with [`swgpu_obs::json::parse`] and hands the `stats` and `obs`
//! members to their owners' `from_value`. Unknown top-level keys are
//! ignored on read so the schema can grow.
//!
//! Migration: artifacts with any other schema version (v7 from before
//! Figure 9 drew its timeline from the obs spans, with a walk-trace cap
//! and payload, v6 from before the multi-tenant address spaces'
//! `tenant*` / `fairness_index` stats keys, v5 from before the streaming trace pipeline's
//! `spans_dropped_by_kind` / `spans_flushed` obs keys, v4 from before
//! the demand-paged memory manager's `mm_*` / silent-corruption stats
//! keys, v3 from before the event-scheduled kernel's `kernel_steps` /
//! `kernel_cycles_skipped` stats counters, v2 from before the
//! observability layer, v1 from before persisted traces) probe as
//! [`LoadOutcome::Stale`] — the runner silently re-simulates and
//! overwrites them; they are *not* quarantined like corrupt files. The
//! probe reads the version from the fixed `{"schema":N,` prefix every
//! artifact starts with, so even a torn old-schema file probes stale.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use swgpu_obs::json;
use swgpu_sim::{ObsReport, SimStats};

/// Current artifact schema version. Readers report other versions as
/// stale (the runner then just re-simulates and overwrites).
pub const SCHEMA_VERSION: u32 = 8;

/// One persisted run: identity plus the full statistics object.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// The runner's cache key (`<workload>-<config fingerprint>`).
    pub key: String,
    /// Human-readable workload component of the key.
    pub workload: String,
    /// The `GpuConfig::fingerprint` the run used.
    pub config: String,
    /// The simulation result.
    pub stats: SimStats,
}

impl RunArtifact {
    /// Whether the serialized form carries the observability payload:
    /// present exactly when the run attached an [`ObsReport`].
    pub fn has_obs_payload(&self) -> bool {
        self.stats.obs.is_some()
    }

    /// Whether the observability payload (if any) holds the *complete*
    /// span set. A run that streamed spans to an SWTB sink keeps only
    /// the staged tail in memory (`spans_flushed > 0`); persisting or
    /// serving such a report from the cache would silently hand later
    /// consumers a truncated timeline, so the runner treats incomplete
    /// payloads as uncacheable.
    pub fn obs_payload_complete(&self) -> bool {
        self.stats
            .obs
            .as_deref()
            .is_none_or(ObsReport::spans_complete)
    }

    /// Serializes the artifact (schema version 8), starting with the
    /// fixed `{"schema":8,` prefix [`RunArtifact::probe`] reads. The
    /// observability payload goes last.
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\"schema\":{},\"key\":\"{}\",\"workload\":\"{}\",\"config\":\"{}\",\"stats\":{}",
            SCHEMA_VERSION,
            self.key,
            self.workload,
            self.config,
            self.stats.to_json()
        );
        if let Some(obs) = self.stats.obs.as_deref() {
            json.push_str(",\"obs\":");
            json.push_str(&obs.to_json());
        }
        json.push('}');
        json
    }

    /// Parses an artifact written by [`RunArtifact::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for malformed input or a
    /// schema version mismatch (use [`RunArtifact::probe`] to tell stale
    /// schemas apart from corruption).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let field = |name: &str| {
            root.get(name)
                .ok_or_else(|| format!("missing key {name:?}"))
        };
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| format!("{name:?} is not an unsigned integer"))
        };
        let string = |name: &str| {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{name:?} is not a string"))
        };
        let schema = uint("schema")?;
        if schema != u64::from(SCHEMA_VERSION) {
            return Err(format!(
                "artifact schema {schema} != supported {SCHEMA_VERSION}"
            ));
        }
        let mut stats = SimStats::from_value(field("stats")?)?;
        if let Some(obs) = root.get("obs") {
            let report =
                ObsReport::from_value(obs).ok_or_else(|| "malformed obs payload".to_string())?;
            stats.obs = Some(Box::new(report));
        }
        Ok(RunArtifact {
            key: string("key")?,
            workload: string("workload")?,
            config: string("config")?,
            stats,
        })
    }

    /// The artifact's path inside `dir`.
    pub fn path_in(dir: &Path, key: &str) -> PathBuf {
        dir.join(format!("{key}.json"))
    }

    /// Writes the artifact into `dir` (created on demand), atomically:
    /// a temporary file is renamed into place so concurrent runner
    /// processes never observe torn JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let final_path = Self::path_in(dir, &self.key);
        let tmp_path = dir.join(format!(".{}.{}.tmp", self.key, std::process::id()));
        fs::write(&tmp_path, self.to_json())?;
        fs::rename(&tmp_path, &final_path)?;
        Ok(final_path)
    }

    /// Probes the disk cache for `key`, distinguishing a missing entry
    /// from a stale (old-schema) one and from a present-but-unreadable
    /// one, so the caller can quarantine corrupt files instead of
    /// silently re-simulating over them forever while letting old-schema
    /// artifacts be rebuilt without drama.
    pub fn probe(dir: &Path, key: &str) -> LoadOutcome {
        let text = match fs::read_to_string(Self::path_in(dir, key)) {
            Ok(text) => text,
            Err(_) => return LoadOutcome::Missing,
        };
        // Check the schema version before attempting a full parse: an
        // artifact written by an older (or newer) binary is an expected
        // migration case, not corruption, even when it is torn.
        if let Some(schema) = schema_prefix(&text) {
            if schema != u64::from(SCHEMA_VERSION) {
                return LoadOutcome::Stale(format!(
                    "artifact schema {schema}, current {SCHEMA_VERSION}"
                ));
            }
        }
        match Self::from_json(&text) {
            // A key collision between different runs would silently serve
            // the wrong stats; treat mismatched content as corruption.
            Ok(a) if a.key == key => LoadOutcome::Loaded(Box::new(a)),
            Ok(a) => {
                LoadOutcome::Corrupt(format!("artifact claims key {:?}, expected {key:?}", a.key))
            }
            Err(e) => LoadOutcome::Corrupt(e),
        }
    }
}

/// Outcome of [`RunArtifact::probe`].
#[derive(Debug)]
pub enum LoadOutcome {
    /// No artifact on disk for this key.
    Missing,
    /// An intact artifact from a different schema version. The caller
    /// re-simulates and overwrites; no quarantine. Carries the versions.
    Stale(String),
    /// A file exists but cannot be trusted (parse failure or embedded-key
    /// mismatch). Carries the reason.
    Corrupt(String),
    /// The artifact parsed and matches the requested key (boxed to keep
    /// the enum small — `SimStats` is hundreds of bytes).
    Loaded(Box<RunArtifact>),
}

/// The version in the fixed `{"schema":N,` prefix that
/// [`RunArtifact::to_json`] always writes, read without parsing the rest
/// (which may be torn).
fn schema_prefix(text: &str) -> Option<u64> {
    let rest = text.strip_prefix("{\"schema\":")?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunArtifact {
        let mut stats = SimStats {
            cycles: 4242,
            instructions: 99,
            ..SimStats::default()
        };
        stats.walk.record(10, 20);
        RunArtifact {
            key: "bfs-fp100-0123456789abcdef".into(),
            workload: "bfs-fp100".into(),
            config: "0123456789abcdef".into(),
            stats,
        }
    }

    #[test]
    fn artifact_round_trips() {
        let a = sample();
        let parsed = RunArtifact::from_json(&a.to_json()).expect("parse");
        assert_eq!(parsed.key, a.key);
        assert_eq!(parsed.workload, a.workload);
        assert_eq!(parsed.config, a.config);
        assert_eq!(parsed.stats.to_json(), a.stats.to_json());
        assert!(!parsed.has_obs_payload());
    }

    fn sample_with_obs() -> RunArtifact {
        use swgpu_obs::{Registry, SpanKind, SpanRecorder};
        let mut a = sample();
        let mut reg = Registry::new(128, 16);
        let h = reg.hist("walk_total_cycles");
        reg.observe(h, 30);
        let s = reg.series("softpwb_occupancy");
        reg.sample(s, 3);
        let mut rec = SpanRecorder::new(64);
        rec.instant(SpanKind::Dispatch, 0, 42, 7, 1);
        a.stats.obs = Some(Box::new(ObsReport::from_instruments(reg, rec)));
        a
    }

    #[test]
    fn obs_payload_round_trips() {
        let a = sample_with_obs();
        let json = a.to_json();
        assert!(json.contains(",\"obs\":{"));
        let parsed = RunArtifact::from_json(&json).expect("parse");
        assert!(parsed.has_obs_payload());
        assert_eq!(parsed.stats.obs, a.stats.obs);
        assert_eq!(parsed.to_json(), json, "round trip is byte-identical");
    }

    #[test]
    fn obs_off_artifact_is_identity_then_stats() {
        // An obs-off, single-tenant artifact is its identity and the flat
        // stats object, nothing else: the keys that later schemas added
        // (demand-paging, obs-payload and tenant keys) appear only for
        // runs that arm the feature.
        let a = sample();
        let json = a.to_json();
        assert_eq!(
            json,
            format!(
                "{{\"schema\":8,\"key\":\"{}\",\"workload\":\"{}\",\"config\":\"{}\",\"stats\":{}}}",
                a.key,
                a.workload,
                a.config,
                a.stats.to_json()
            )
        );
        assert!(!json.contains("tenant"));
    }

    #[test]
    fn tenant_stats_round_trip_through_artifact() {
        use swgpu_sim::TenantStats;
        let mut a = sample();
        a.stats.l2_tlb.shared_joins = 3;
        a.stats.tenants.push(TenantStats {
            instructions: 640,
            loads: 128,
            cycles: 4242,
            fresh_l2_misses: 40,
            walks: 33,
        });
        a.stats.tenants.push(TenantStats {
            instructions: 320,
            loads: 64,
            cycles: 4000,
            fresh_l2_misses: 80,
            walks: 61,
        });
        let json = a.to_json();
        assert!(json.contains("\"tenant_count\":2"));
        let parsed = RunArtifact::from_json(&json).expect("parse");
        assert_eq!(parsed.stats.tenants, a.stats.tenants);
        assert_eq!(parsed.stats.l2_tlb.shared_joins, 3);
        assert_eq!(parsed.to_json(), json, "round trip is byte-identical");
    }

    #[test]
    fn streamed_obs_payload_is_flagged_incomplete() {
        let mut a = sample_with_obs();
        assert!(a.obs_payload_complete());
        a.stats.obs.as_mut().unwrap().spans_flushed = 12;
        assert!(!a.obs_payload_complete());
        // Obs-off artifacts are trivially complete.
        assert!(sample().obs_payload_complete());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let bad = sample()
            .to_json()
            .replacen("\"schema\":8", "\"schema\":7", 1);
        assert!(RunArtifact::from_json(&bad).is_err());
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-artifacts")
            .join(format!("{tag}-{}", std::process::id()))
    }

    #[test]
    fn write_and_load_round_trip() {
        let dir = test_dir("round-trip");
        let a = sample();
        let path = a.write_to(&dir).expect("write");
        assert!(path.ends_with("bfs-fp100-0123456789abcdef.json"));
        let LoadOutcome::Loaded(loaded) = RunArtifact::probe(&dir, &a.key) else {
            panic!("written artifact must load");
        };
        assert_eq!(loaded.stats.cycles, 4242);
        // A different key misses.
        assert!(matches!(
            RunArtifact::probe(&dir, "other-key"),
            LoadOutcome::Missing
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_is_a_miss() {
        let dir = test_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(RunArtifact::path_in(&dir, "bad"), "{not json").unwrap();
        assert!(matches!(
            RunArtifact::probe(&dir, "bad"),
            LoadOutcome::Corrupt(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_counter_probes_corrupt() {
        // A counter the stats reader rejects (here a negative one) makes
        // the whole artifact corrupt, so the runner quarantines it.
        let dir = test_dir("bad-counter");
        std::fs::create_dir_all(&dir).unwrap();
        let a = sample();
        let bad = a
            .to_json()
            .replacen("\"cycles\":4242", "\"cycles\":-4242", 1);
        std::fs::write(RunArtifact::path_in(&dir, &a.key), bad).unwrap();
        match RunArtifact::probe(&dir, &a.key) {
            LoadOutcome::Corrupt(why) => assert!(why.contains("cycles"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_distinguishes_missing_from_corrupt() {
        let dir = test_dir("probe");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            RunArtifact::probe(&dir, "absent"),
            LoadOutcome::Missing
        ));
        // A truncated write (e.g. the process died mid-write before the
        // atomic rename existed) must read as corrupt, not missing.
        let a = sample();
        let full = a.to_json();
        std::fs::write(RunArtifact::path_in(&dir, &a.key), &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            RunArtifact::probe(&dir, &a.key),
            LoadOutcome::Corrupt(_)
        ));
        // An artifact whose embedded key disagrees with its filename is
        // corrupt too (it would serve the wrong run's stats).
        a.write_to(&dir).expect("write");
        std::fs::rename(
            RunArtifact::path_in(&dir, &a.key),
            RunArtifact::path_in(&dir, "imposter"),
        )
        .unwrap();
        assert!(matches!(
            RunArtifact::probe(&dir, "imposter"),
            LoadOutcome::Corrupt(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_schema_probes_stale_not_corrupt() {
        let dir = test_dir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        let a = sample();
        // Every older generation must migrate the same way: a v7
        // artifact (walk-trace payload), a v6 artifact
        // (pre-multi-tenant), a v5 artifact (pre-streaming-trace), a v4
        // artifact (pre-demand-paging), a v3 artifact
        // (pre-kernel-counters), a v2 artifact (pre-observability) and a
        // v1 artifact (pre-trace).
        for old in [7u32, 6, 5, 4, 3, 2, 1] {
            let stale = a
                .to_json()
                .replacen("\"schema\":8", &format!("\"schema\":{old}"), 1);
            std::fs::write(RunArtifact::path_in(&dir, &a.key), stale).unwrap();
            assert!(matches!(
                RunArtifact::probe(&dir, &a.key),
                LoadOutcome::Stale(_)
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
