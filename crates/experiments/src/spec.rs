//! The serializable scenario-sweep IR.
//!
//! A [`ScenarioSpec`] is the declarative front end of the experiment stack:
//! a JSON-serializable description of a sweep — platform axes, workload
//! sources, QoS axes, manager variants and simulation options — that
//! *lowers* to the executable [`ScenarioGrid`] of [`crate::sweep`]. The
//! E-modules build their paper grids as lowered specs (so the paper tables
//! and ad-hoc spec files share one pipeline), and the `qosrm-experiments`
//! CLI loads spec files for streaming sweeps (`crate::stream`).
//!
//! The key difference from a grid is the [`WorkloadSource`]: instead of
//! materialized mix lists, a spec names where the mixes come from — the
//! paper's hand-built families, an explicit inline list, or a seeded
//! [`SynthSpec`] population — so "200 mixes drawn from a streaming-heavy
//! distribution on 8 cores" is a few lines of JSON rather than an
//! unreachable hand enumeration.
//!
//! ```
//! use experiments::spec::{PlatformAxisSpec, PlatformSpec, ScenarioSpec, WorkloadSource};
//! use experiments::sweep::{QosAxis, RmaVariant};
//! use qosrm_types::QosSpec;
//! use workload::{MixPopulation, SynthSpec};
//!
//! let spec = ScenarioSpec {
//!     name: "streaming-tail".to_string(),
//!     platforms: vec![PlatformAxisSpec {
//!         label: "paper2-4c".to_string(),
//!         platform: PlatformSpec::Paper2 { num_cores: 4 },
//!         workloads: WorkloadSource::Synth(SynthSpec {
//!             seed: 42,
//!             count: 16,
//!             num_cores: 4,
//!             population: MixPopulation::StreamingHeavy,
//!             name_prefix: "syn-".to_string(),
//!         }),
//!     }],
//!     qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
//!     variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
//!     options: None,
//! };
//! let grid = spec.lower().unwrap();
//! assert_eq!(grid.len(), 16 * 1 * 2);
//! ```

use crate::sweep::{PlatformAxis, QosAxis, RmaVariant, ScenarioGrid};
use qosrm_types::{PlatformConfig, QosrmError};
use rma_sim::SimulationOptions;
use serde::{Deserialize, Serialize};
use workload::{SynthSpec, WorkloadMix};

/// Which platform a spec axis runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlatformSpec {
    /// The Paper I evaluation platform (`PlatformConfig::paper1`).
    Paper1 {
        /// Number of cores.
        num_cores: usize,
    },
    /// The Paper II evaluation platform (`PlatformConfig::paper2`).
    Paper2 {
        /// Number of cores.
        num_cores: usize,
    },
    /// A fully explicit platform description.
    Custom(PlatformConfig),
}

impl PlatformSpec {
    /// Materializes the platform configuration.
    pub fn resolve(&self) -> PlatformConfig {
        match self {
            PlatformSpec::Paper1 { num_cores } => PlatformConfig::paper1(*num_cores),
            PlatformSpec::Paper2 { num_cores } => PlatformConfig::paper2(*num_cores),
            PlatformSpec::Custom(config) => config.clone(),
        }
    }
}

/// Trims a source's mix list: `step` keeps every `step`-th mix (0 and 1
/// keep all), then `limit` truncates (0 keeps all). Mirrors the selection
/// idioms of the E-modules (quick-mode prefixes, every-other-workload
/// studies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixSelection {
    /// Keep every `step`-th mix of the source order (0 / 1 = keep all).
    pub step: usize,
    /// Keep at most this many mixes after stepping (0 = no limit).
    pub limit: usize,
}

impl MixSelection {
    /// Keeps the whole source.
    pub const ALL: MixSelection = MixSelection { step: 0, limit: 0 };

    /// Keeps at most `limit` mixes (0 = no limit).
    pub fn limit(limit: usize) -> Self {
        MixSelection { step: 0, limit }
    }

    /// Applies the selection.
    fn apply(&self, mixes: Vec<WorkloadMix>) -> Vec<WorkloadMix> {
        let step = self.step.max(1);
        let selected = mixes.into_iter().step_by(step);
        if self.limit == 0 {
            selected.collect()
        } else {
            selected.take(self.limit).collect()
        }
    }
}

/// Where a platform axis draws its workload mixes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSource {
    /// An explicit inline mix list.
    Explicit(Vec<WorkloadMix>),
    /// The Paper I workloads for the axis platform's core count (4 or 8).
    Paper1(MixSelection),
    /// The Paper II scenario workloads for the axis platform's core count
    /// (4 or 8).
    Paper2Scenarios(MixSelection),
    /// The sixteen pairwise category mixes of the Paper II trade-off
    /// analysis (4-core only).
    Paper2Sixteen(MixSelection),
    /// Seeded synthetic mixes (see [`workload::synth`]).
    Synth(SynthSpec),
}

impl WorkloadSource {
    /// Materializes the mix list for a platform.
    pub fn resolve(&self, platform: &PlatformConfig) -> Result<Vec<WorkloadMix>, QosrmError> {
        let cores = platform.num_cores;
        let require_paper_cores = |family: &str| -> Result<(), QosrmError> {
            if cores == 4 || cores == 8 {
                Ok(())
            } else {
                Err(QosrmError::InvalidWorkload(format!(
                    "the {family} workload family exists for 4- and 8-core platforms, \
                     not {cores} cores"
                )))
            }
        };
        match self {
            WorkloadSource::Explicit(mixes) => Ok(mixes.clone()),
            WorkloadSource::Paper1(selection) => {
                require_paper_cores("Paper I")?;
                Ok(selection.apply(workload::paper1_workloads(cores)))
            }
            WorkloadSource::Paper2Scenarios(selection) => {
                require_paper_cores("Paper II scenario")?;
                Ok(selection.apply(
                    workload::paper2_scenario_workloads(cores)
                        .into_iter()
                        .map(|(_, m)| m)
                        .collect(),
                ))
            }
            WorkloadSource::Paper2Sixteen(selection) => {
                if cores != 4 {
                    return Err(QosrmError::InvalidWorkload(format!(
                        "the sixteen pairwise category mixes are 4-core workloads, \
                         the platform has {cores} cores"
                    )));
                }
                Ok(selection.apply(
                    workload::paper2_sixteen_mixes()
                        .into_iter()
                        .map(|(_, _, m)| m)
                        .collect(),
                ))
            }
            WorkloadSource::Synth(synth) => {
                if synth.num_cores != cores {
                    return Err(QosrmError::InvalidWorkload(format!(
                        "synthetic mixes have {} applications but the platform has \
                         {cores} cores",
                        synth.num_cores
                    )));
                }
                synth.mixes()
            }
        }
    }
}

/// One platform axis of a spec: a label, the platform, and where its mixes
/// come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformAxisSpec {
    /// Label used in scenario keys.
    pub label: String,
    /// The platform.
    pub platform: PlatformSpec,
    /// The workload source.
    pub workloads: WorkloadSource,
}

/// A declarative, serializable scenario sweep.
///
/// Lowering ([`ScenarioSpec::lower`]) materializes platforms and workload
/// sources into a validated [`ScenarioGrid`]; the QoS axes, variants and
/// simulation options carry over verbatim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Name of the sweep (used in logs and artifact directories).
    pub name: String,
    /// Platform axes.
    pub platforms: Vec<PlatformAxisSpec>,
    /// QoS axes.
    pub qos: Vec<QosAxis>,
    /// Manager variants.
    pub variants: Vec<RmaVariant>,
    /// Simulation options (`null` in JSON = defaults).
    pub options: Option<SimulationOptions>,
}

impl ScenarioSpec {
    /// Lowers the spec to an executable, validated [`ScenarioGrid`].
    pub fn lower(&self) -> Result<ScenarioGrid, QosrmError> {
        let platforms = self
            .platforms
            .iter()
            .map(|axis| {
                let platform = axis.platform.resolve();
                let mixes = axis.workloads.resolve(&platform).map_err(|e| {
                    QosrmError::InvalidWorkload(format!("axis {}: {e}", axis.label))
                })?;
                Ok(PlatformAxis::new(axis.label.clone(), platform, mixes))
            })
            .collect::<Result<Vec<_>, QosrmError>>()?;
        let grid = ScenarioGrid {
            platforms,
            qos: self.qos.clone(),
            variants: self.variants.clone(),
            options: self.options.clone().unwrap_or_default(),
        };
        grid.validate()?;
        Ok(grid)
    }

    /// Loads a spec from a JSON file.
    pub fn load(path: &std::path::Path) -> Result<Self, QosrmError> {
        simdb::persist::load_json(path)
    }

    /// Saves the spec as pretty-printed JSON (atomic write).
    pub fn save(&self, path: &std::path::Path) -> Result<(), QosrmError> {
        let json = serde_json::to_string_pretty(self).map_err(|e| QosrmError::Io(e.to_string()))?;
        simdb::persist::write_atomic(path, json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosrm_types::QosSpec;
    use workload::MixPopulation;

    fn synth_axis(num_cores: usize, count: usize) -> PlatformAxisSpec {
        PlatformAxisSpec {
            label: format!("paper2-{num_cores}c"),
            platform: PlatformSpec::Paper2 { num_cores },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed: 11,
                count,
                num_cores,
                population: MixPopulation::Mixed,
                name_prefix: format!("syn{num_cores}-"),
            }),
        }
    }

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".to_string(),
            platforms: vec![synth_axis(4, 3)],
            qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
            variants: vec![RmaVariant::Paper1, RmaVariant::Paper2],
            options: None,
        }
    }

    #[test]
    fn lowering_materializes_the_grid() {
        let grid = tiny_spec().lower().unwrap();
        assert_eq!(grid.len(), 6); // 3 mixes x 1 QoS x 2 variants
        assert_eq!(grid.platforms[0].mixes[0].name, "syn4-0000");
        assert_eq!(grid.options, rma_sim::SimulationOptions::default());
    }

    #[test]
    fn paper_sources_match_the_hand_built_grids() {
        let paper1 = WorkloadSource::Paper1(MixSelection::limit(4))
            .resolve(&PlatformConfig::paper1(4))
            .unwrap();
        let expected: Vec<_> = workload::paper1_workloads(4).into_iter().take(4).collect();
        assert_eq!(paper1, expected);

        let stepped = WorkloadSource::Paper1(MixSelection { step: 2, limit: 0 })
            .resolve(&PlatformConfig::paper1(4))
            .unwrap();
        let expected: Vec<_> = workload::paper1_workloads(4)
            .into_iter()
            .step_by(2)
            .collect();
        assert_eq!(stepped, expected);

        let sixteen = WorkloadSource::Paper2Sixteen(MixSelection::ALL)
            .resolve(&PlatformConfig::paper2(4))
            .unwrap();
        assert_eq!(sixteen.len(), 16);
    }

    /// A custom LLC with fewer sets than the scaled replay (16 against
    /// quick mode's 32) is simulated whole; it used to reach the
    /// characterizer with a zero scale and panic the shard. The interval is
    /// shortened only to keep the unscaled replay cheap.
    #[test]
    fn custom_platform_with_a_tiny_llc_sweeps() {
        let mut platform = PlatformConfig::paper1(4);
        platform.llc.num_sets = 16;
        platform.interval_instructions = 2_000_000;
        let spec = ScenarioSpec {
            name: "tiny-llc".to_string(),
            platforms: vec![PlatformAxisSpec {
                label: "tiny-llc".to_string(),
                platform: PlatformSpec::Custom(platform),
                workloads: WorkloadSource::Paper1(MixSelection::limit(1)),
            }],
            qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
            variants: vec![RmaVariant::Paper1],
            options: None,
        };
        let grid = spec.lower().unwrap();
        let result = crate::sweep::run(&grid, &crate::ExperimentContext::new(true));
        assert_eq!(result.scenarios.len(), 1);
    }

    #[test]
    fn lowering_rejects_mismatched_sources() {
        // Synthetic width must match the platform.
        let mut spec = tiny_spec();
        spec.platforms = vec![PlatformAxisSpec {
            label: "mismatch".to_string(),
            platform: PlatformSpec::Paper2 { num_cores: 8 },
            workloads: WorkloadSource::Synth(SynthSpec {
                seed: 1,
                count: 2,
                num_cores: 4,
                population: MixPopulation::Mixed,
                name_prefix: "m-".to_string(),
            }),
        }];
        assert!(spec.lower().is_err());

        // Paper families only exist for 4 and 8 cores.
        assert!(WorkloadSource::Paper1(MixSelection::ALL)
            .resolve(&PlatformConfig::paper2(16))
            .is_err());
        assert!(WorkloadSource::Paper2Sixteen(MixSelection::ALL)
            .resolve(&PlatformConfig::paper2(8))
            .is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec {
            platforms: vec![synth_axis(4, 3), synth_axis(8, 2)],
            qos: vec![
                QosAxis::uniform("strict", QosSpec::STRICT),
                QosAxis::per_core("one relaxed", vec![QosSpec::relaxed_by(0.4)]),
            ],
            variants: vec![
                RmaVariant::Paper1,
                RmaVariant::WithModel {
                    model: qosrm_core::ModelKind::Perfect,
                    control_core_size: false,
                    name: "CombinedRMA-Perfect".to_string(),
                },
            ],
            options: Some(rma_sim::SimulationOptions {
                provide_mlp_profiles: false,
                ..Default::default()
            }),
            ..tiny_spec()
        };
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Lowered grids of equal specs are equal scenario-for-scenario.
        assert_eq!(
            back.lower().unwrap().platforms[0].mixes,
            spec.lower().unwrap().platforms[0].mixes
        );
    }

    #[test]
    fn save_load_roundtrip() {
        let spec = tiny_spec();
        let path = std::env::temp_dir().join("qosrm_spec_roundtrip.json");
        spec.save(&path).unwrap();
        let loaded = ScenarioSpec::load(&path).unwrap();
        assert_eq!(loaded, spec);
        std::fs::remove_file(&path).ok();
    }
}
