//! Base-run golden: committed fingerprints of every algorithm's
//! un-partitioned run on a handful of worlds.
//!
//! The DS1 golden ([`crate::golden`]) pins evaluation metrics and TD-AC
//! outcomes, which a change to confidence or trust bits can leave
//! untouched. This golden pins the runs themselves: for each world and
//! each algorithm of [`all_algorithms`] (plus DART with the world's
//! domains) it records the [`ResultFingerprint`] digest — every
//! prediction, confidence bit, trust bit and the iteration count — and,
//! readable on their own, the iteration count and the trust bits.
//!
//! The worlds cover the shapes the iterative engines branch on:
//!
//! * `ds1`, `ds2`, `ds3` — the synthetic presets at
//!   [`DS1_GOLDEN_OBJECTS`] objects, full coverage;
//! * `ds1_ragged` — DS1 at 5 % coverage: cells of every size, and source
//!   pairs that never meet in a cell (zero overlap in copy detection);
//! * `copier_clique` — four independent sources beside a clique of three
//!   sources sharing identical wrong answers;
//! * `exam62` — the Exam simulator's 62-question slice (248 sources).
//!
//! Blessing rides the existing flow: `cargo run -p td-verify -- --bless`
//! (or `TDAC_BLESS=1`) rewrites `goldens/base_runs.json` beside the DS1
//! goldens; review the diff like any code change.

use std::fs;
use std::path::PathBuf;

use datagen::{generate_exam, generate_synthetic, ExamConfig, SyntheticConfig};
use serde::{Deserialize, Serialize};
use td_algorithms::registry::all_algorithms;
use td_algorithms::{Dart, TruthDiscovery};
use td_model::{AttributeId, Dataset, DatasetBuilder, Value};

use crate::fingerprint::ResultFingerprint;
use crate::golden::{BLESS_ENV, DS1_GOLDEN_OBJECTS};

/// Coverage of the `ds1_ragged` world.
pub(crate) const RAGGED_COVERAGE: f64 = 0.05;

/// One algorithm's run on one world.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaseRun {
    /// Paper-style algorithm name.
    pub algorithm: String,
    /// [`ResultFingerprint::digest`] of the run, as 16 hex digits.
    pub digest: String,
    /// Outer iteration count.
    pub iterations: u32,
    /// Per-source trust, as 16-hex-digit bit patterns.
    pub trust_bits: Vec<String>,
}

impl BaseRun {
    fn of(algorithm: &str, fingerprint: &ResultFingerprint) -> Self {
        Self {
            algorithm: algorithm.to_string(),
            digest: format!("{:016x}", fingerprint.digest()),
            iterations: fingerprint.iterations,
            trust_bits: fingerprint
                .source_trust
                .iter()
                .map(|t| format!("{t:016x}"))
                .collect(),
        }
    }
}

/// Every pinned run on one world.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorldRuns {
    /// World name (see the module docs).
    pub world: String,
    /// Non-empty cells in the world.
    pub cells: usize,
    /// One run per algorithm, in [`all_algorithms`] order, then DART.
    pub runs: Vec<BaseRun>,
}

/// The committed snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaseRunsGolden {
    /// One entry per world, in the order the module docs list them.
    pub worlds: Vec<WorldRuns>,
}

/// A world of the golden: its name, its claims and the attribute
/// domains DART is told.
pub(crate) struct BaseRunWorld {
    /// World name.
    pub name: &'static str,
    /// The claims.
    pub dataset: Dataset,
    /// Attribute domains for [`Dart::with_domains`].
    pub domains: Vec<Vec<AttributeId>>,
}

/// The worlds the golden pins, in order.
pub(crate) fn base_run_worlds() -> Vec<BaseRunWorld> {
    let synthetic = |name, config: SyntheticConfig| {
        let world = generate_synthetic(&config.scaled(DS1_GOLDEN_OBJECTS));
        BaseRunWorld {
            name,
            dataset: world.dataset,
            domains: world.planted.groups,
        }
    };
    let halves = |name, dataset: Dataset| {
        let attrs: Vec<AttributeId> = dataset.attribute_ids().collect();
        let (a, b) = attrs.split_at(attrs.len() / 2);
        let domains = vec![a.to_vec(), b.to_vec()];
        BaseRunWorld {
            name,
            dataset,
            domains,
        }
    };
    vec![
        synthetic("ds1", SyntheticConfig::ds1()),
        synthetic("ds2", SyntheticConfig::ds2()),
        synthetic("ds3", SyntheticConfig::ds3()),
        synthetic(
            "ds1_ragged",
            SyntheticConfig {
                coverage: RAGGED_COVERAGE,
                ..SyntheticConfig::ds1()
            },
        ),
        halves("copier_clique", copier_clique()),
        halves("exam62", generate_exam(&ExamConfig::new(62, 100)).0),
    ]
}

/// Four independent mostly-right sources (each with one distinct error)
/// and a clique of three sources claiming identical wrong values on all
/// eight cells: without copy detection the clique ties the majority.
pub(crate) fn copier_clique() -> Dataset {
    let mut b = DatasetBuilder::new();
    for cell in 0..8i64 {
        let a = format!("a{cell}");
        for ind in 0..4 {
            let v = if cell == ind {
                Value::int(900 + ind)
            } else {
                Value::int(cell)
            };
            b.claim(&format!("ind{ind}"), "o", &a, v)
                .expect("one claim per cell");
        }
        for cp in 0..3 {
            b.claim(&format!("cp{cp}"), "o", &a, Value::int(500 + cell))
                .expect("one claim per cell");
        }
    }
    b.build()
}

/// Where the committed snapshot lives (next to `ds1.json`).
pub fn base_runs_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/goldens/base_runs.json"
    ))
}

/// Runs every algorithm on every world.
pub fn compute_base_runs() -> BaseRunsGolden {
    let worlds = base_run_worlds()
        .into_iter()
        .map(|w| {
            let view = w.dataset.view_all();
            let dart = Dart::with_domains(&w.domains);
            let mut algorithms: Vec<&dyn TruthDiscovery> = Vec::new();
            let registered = all_algorithms();
            algorithms.extend(registered.iter().map(|a| a.as_ref() as &dyn TruthDiscovery));
            algorithms.push(&dart);
            let runs = algorithms
                .into_iter()
                .map(|a| BaseRun::of(a.name(), &ResultFingerprint::of(&a.discover(&view))))
                .collect();
            WorldRuns {
                world: w.name.to_string(),
                cells: view.n_cells(),
                runs,
            }
        })
        .collect();
    BaseRunsGolden { worlds }
}

/// Writes the freshly computed snapshot to [`base_runs_path`],
/// returning the path.
pub fn bless_base_runs() -> std::io::Result<PathBuf> {
    let path = base_runs_path();
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let json =
        serde_json::to_string_pretty(&compute_base_runs()).expect("golden serializes infallibly");
    fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Checks the committed snapshot against a fresh computation. With
/// `TDAC_BLESS=1` the snapshot is rewritten instead and the check
/// passes.
pub fn check_base_runs() -> Result<(), String> {
    if std::env::var(BLESS_ENV).is_ok_and(|v| v == "1") {
        let path = bless_base_runs().map_err(|e| format!("blessing failed: {e}"))?;
        eprintln!("blessed {}", path.display());
        return Ok(());
    }
    let path = base_runs_path();
    let committed = fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read golden {}: {e}\nrun `cargo run -p td-verify -- --bless` to create it",
            path.display()
        )
    })?;
    let committed: BaseRunsGolden = serde_json::from_str(&committed)
        .map_err(|e| format!("golden {} is not valid JSON: {e:?}", path.display()))?;
    match diff_base_runs(&committed, &compute_base_runs()) {
        None => Ok(()),
        Some(diff) => Err(format!(
            "base runs diverged from the committed golden:\n  {diff}\n\
             If the change is intentional, regenerate with \
             `cargo run -p td-verify -- --bless` (or TDAC_BLESS=1) and commit the diff.",
        )),
    }
}

/// First difference between two snapshots, as `world/algorithm: field`,
/// or `None`.
pub fn diff_base_runs(committed: &BaseRunsGolden, fresh: &BaseRunsGolden) -> Option<String> {
    if committed == fresh {
        return None;
    }
    if committed.worlds.len() != fresh.worlds.len() {
        return Some(format!(
            "world counts: {} vs {}",
            committed.worlds.len(),
            fresh.worlds.len()
        ));
    }
    for (c, f) in committed.worlds.iter().zip(&fresh.worlds) {
        if c.world != f.world || c.cells != f.cells || c.runs.len() != f.runs.len() {
            return Some(format!(
                "world {} ({} cells, {} runs) vs {} ({} cells, {} runs)",
                c.world,
                c.cells,
                c.runs.len(),
                f.world,
                f.cells,
                f.runs.len()
            ));
        }
        for (a, b) in c.runs.iter().zip(&f.runs) {
            let at = format!("{}/{}", c.world, a.algorithm);
            if a.algorithm != b.algorithm {
                return Some(format!(
                    "{}: algorithm order: {} vs {}",
                    c.world, a.algorithm, b.algorithm
                ));
            }
            if a.iterations != b.iterations {
                return Some(format!(
                    "{at}: iterations {} vs {}",
                    a.iterations, b.iterations
                ));
            }
            if let Some(i) = (0..a.trust_bits.len().max(b.trust_bits.len()))
                .find(|&i| a.trust_bits.get(i) != b.trust_bits.get(i))
            {
                return Some(format!(
                    "{at}: trust [{i}] {:?} vs {:?}",
                    a.trust_bits.get(i),
                    b.trust_bits.get(i)
                ));
            }
            if a.digest != b.digest {
                return Some(format!(
                    "{at}: digest {} vs {} (predictions or confidence bits)",
                    a.digest, b.digest
                ));
            }
        }
    }
    Some("snapshots differ (unlocated field)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_is_deterministic_and_round_trips() {
        let a = compute_base_runs();
        let json = serde_json::to_string_pretty(&a).unwrap();
        let back: BaseRunsGolden = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
        assert!(diff_base_runs(&a, &compute_base_runs()).is_none());
    }

    #[test]
    fn every_algorithm_and_dart_runs_on_every_world() {
        let golden = compute_base_runs();
        let names: Vec<String> = base_run_worlds()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(
            golden
                .worlds
                .iter()
                .map(|w| w.world.clone())
                .collect::<Vec<_>>(),
            names
        );
        for w in &golden.worlds {
            assert_eq!(w.runs.len(), all_algorithms().len() + 1, "{}", w.world);
            assert_eq!(w.runs.last().unwrap().algorithm, "DART");
            assert!(w.cells > 0);
        }
    }

    #[test]
    fn ragged_world_has_uneven_cells_and_disjoint_source_pairs() {
        let world = base_run_worlds()
            .into_iter()
            .find(|w| w.name == "ds1_ragged")
            .unwrap();
        let d = &world.dataset;
        let view = d.view_all();
        let sizes: Vec<usize> = view.cells().map(|c| view.cell_claims(c).len()).collect();
        assert!(
            sizes.contains(&1) && sizes.iter().any(|&m| m >= 3),
            "{sizes:?}"
        );
        let n = d.n_sources();
        let mut overlap = vec![0u32; n * n];
        for cell in view.cells() {
            let claims = view.cell_claims(cell);
            for (i, x) in claims.iter().enumerate() {
                for y in &claims[i + 1..] {
                    overlap[x.source.index() * n + y.source.index()] += 1;
                }
            }
        }
        let disjoint = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .filter(|&(a, b)| overlap[a * n + b] + overlap[b * n + a] == 0)
            .count();
        assert!(disjoint > 0, "every source pair meets somewhere");
    }

    #[test]
    fn diff_locates_a_perturbed_run() {
        let golden = compute_base_runs();
        let mut tweaked = golden.clone();
        tweaked.worlds[3].runs[3].trust_bits[2] = "0".to_string();
        let diff = diff_base_runs(&golden, &tweaked).expect("must detect the tweak");
        assert!(diff.contains("ds1_ragged/Accu: trust [2]"), "{diff}");
        let mut tweaked = golden.clone();
        tweaked.worlds[5].runs[4].digest = "0".to_string();
        let diff = diff_base_runs(&golden, &tweaked).expect("must detect the tweak");
        assert!(diff.contains("exam62/AccuSim: digest"), "{diff}");
    }
}
