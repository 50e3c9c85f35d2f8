//! Input generation and the files the measuring process reads.
//!
//! Generation runs in its own process (`perfbench gen`) before anything
//! is timed, so neither its time nor its memory reaches the measured
//! process: the program under test sees only the generated `.tds`
//! stores. The workload seed is passed to `datagen` as the generator
//! seed (world `j` of a workload with `n` worlds gets `seed · n + j`);
//! the same seed always gives the same files.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use datagen::{generate_exam, generate_synthetic, ExamConfig, SyntheticConfig};
use td_model::{AttributeId, Dataset, DatasetBuilder, GroundTruth, ObjectId, Value};
use td_serve::WireClaim;
use td_store::DatasetStore;
use tdac_core::{Tdac, TdacConfig};

use crate::workloads::{served_objects, Kind, Scale, Workload, World, BATCH_OBJECTS};

/// The files of one generated workload.
pub struct InputFiles {
    dir: PathBuf,
}

impl InputFiles {
    /// Files under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        InputFiles { dir: dir.into() }
    }

    /// World `world`'s store, the one the program loads (the served
    /// store on `serve_stream`).
    pub fn input(&self, world: usize) -> PathBuf {
        self.dir.join(format!("input-{world}.tds"))
    }

    /// `serve_stream`'s held-out objects, in batch order.
    pub fn held_out(&self) -> PathBuf {
        self.dir.join("held_out.tds")
    }

    /// World `world`'s ground truth as a one-source store: source
    /// `truth` claims the true value of every cell.
    pub fn truth(&self, world: usize) -> PathBuf {
        self.dir.join(format!("truth-{world}.tds"))
    }
}

/// Generates `workload`'s inputs for `seed` into `files`.
pub fn generate(
    workload: &Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    files: &InputFiles,
) -> Result<(), String> {
    for world in 0..workload.worlds {
        let world_seed = seed
            .wrapping_mul(workload.worlds as u64)
            .wrapping_add(world as u64);
        generate_world(workload, world_seed, scale, seconds, files, world)?;
    }
    Ok(())
}

fn generate_world(
    workload: &Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    files: &InputFiles,
    world: usize,
) -> Result<(), String> {
    let (dataset, truth) = match workload.world {
        World::Exam62 => {
            let (questions, students) = scale.exam_shape();
            let mut config = ExamConfig::new(questions, 100);
            config.n_students = students;
            config.seed = seed;
            generate_exam(&config)
        }
        World::Ds1 => {
            let objects = match workload.kind {
                Kind::Serve => scale.serve_world(),
                Kind::Batch | Kind::Sharded => scale.ds1_objects(),
            };
            let config = SyntheticConfig {
                seed,
                ..SyntheticConfig::ds1().scaled(objects)
            };
            let generated = generate_synthetic(&config);
            (generated.dataset, generated.truth)
        }
    };
    save(&truth_store(&dataset, &truth), &files.truth(world))?;
    if workload.kind != Kind::Serve {
        return save(&DatasetStore::new(dataset), &files.input(world));
    }
    // Objects below the cut are packed with a truth page and served;
    // the rest arrive later as ingest batches.
    let served = served_objects(scale, seconds)
        .ok_or("--seconds is too long: the ingest stream would exceed half the world")?;
    let held_out = rebuild(&dataset, |o| o.index() >= served);
    let served = rebuild(&dataset, |o| o.index() < served);
    let base = td_algorithms::algorithm_by_name(workload.algorithm)
        .ok_or_else(|| format!("unknown algorithm {}", workload.algorithm))?;
    save(
        &Tdac::new(TdacConfig::default()).pack(base.as_ref(), &served),
        &files.input(world),
    )?;
    save(&DatasetStore::new(held_out), &files.held_out())
}

fn save(store: &DatasetStore, path: &Path) -> Result<(), String> {
    store
        .save(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// A fresh dataset holding the claims of the objects `keep` selects,
/// interned by name so that object ids follow the parent's order.
fn rebuild(dataset: &Dataset, keep: impl Fn(ObjectId) -> bool) -> Dataset {
    let mut b = DatasetBuilder::new();
    for o in dataset.object_ids().filter(|&o| keep(o)) {
        b.object(dataset.object_name(o));
    }
    for c in dataset.claims().iter().filter(|c| keep(c.object)) {
        b.claim(
            dataset.source_name(c.source),
            dataset.object_name(c.object),
            dataset.attribute_name(c.attribute),
            dataset.value(c.value).clone(),
        )
        .expect("claims copied from a valid dataset are consistent");
    }
    b.build()
}

fn truth_store(dataset: &Dataset, truth: &GroundTruth) -> DatasetStore {
    let mut b = DatasetBuilder::new();
    for (o, a, v) in truth.iter() {
        b.claim(
            "truth",
            dataset.object_name(o),
            dataset.attribute_name(a),
            dataset.value(v).clone(),
        )
        .expect("one truth per cell");
    }
    DatasetStore::new(b.build())
}

/// Ground truth by name: `(object, attribute)` → true value.
pub struct NamedTruth(HashMap<(String, String), Value>);

impl NamedTruth {
    /// Reads world `world`'s truth store written by [`generate`].
    pub fn load(files: &InputFiles, world: usize) -> Result<Self, String> {
        let store =
            DatasetStore::load(files.truth(world)).map_err(|e| format!("truth store: {e}"))?;
        let d = &store.dataset;
        Ok(NamedTruth(
            d.claims()
                .iter()
                .map(|c| {
                    (
                        (
                            d.object_name(c.object).to_string(),
                            d.attribute_name(c.attribute).to_string(),
                        ),
                        d.value(c.value).clone(),
                    )
                })
                .collect(),
        ))
    }

    /// Cells of `dataset` with a known truth that `predict` gets right,
    /// and cells with a known truth, scored by `td-metrics`. A true value
    /// that no claim in `dataset` carries cannot be predicted and counts
    /// as a miss.
    pub fn score(
        &self,
        dataset: &Dataset,
        predict: impl Fn(ObjectId, AttributeId) -> Option<td_model::ValueId>,
    ) -> Score {
        let mut truth = GroundTruth::new();
        let mut unclaimed = 0u64;
        for cell in dataset.cells() {
            let key = (
                dataset.object_name(cell.object).to_string(),
                dataset.attribute_name(cell.attribute).to_string(),
            );
            let Some(value) = self.0.get(&key) else {
                continue;
            };
            match dataset.value_id(value) {
                Some(v) => truth.set(cell.object, cell.attribute, v),
                None => unclaimed += 1,
            }
        }
        let report = td_metrics::evaluate_fn(dataset, &truth, predict);
        Score {
            correct: report.n_correct,
            cells: report.n_cells + unclaimed,
        }
    }
}

/// Ground-truth cells predicted right, pooled over a run's worlds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Score {
    /// Cells predicted right.
    pub correct: u64,
    /// Cells with a known truth.
    pub cells: u64,
}

impl Score {
    /// Adds another world's score.
    pub fn add(&mut self, other: Score) {
        self.correct += other.correct;
        self.cells += other.cells;
    }

    /// Share of cells predicted right (0 with no cells).
    pub fn accuracy(&self) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        self.correct as f64 / self.cells as f64
    }
}

/// `serve_stream`'s ingest batches, converted to wire claims one batch
/// at a time so the load generator holds only the compact store.
pub struct HeldOut {
    store: DatasetStore,
}

impl HeldOut {
    /// Reads the held-out store written by [`generate`].
    pub fn load(files: &InputFiles) -> Result<Self, String> {
        Ok(HeldOut {
            store: DatasetStore::load(files.held_out())
                .map_err(|e| format!("held-out store: {e}"))?,
        })
    }

    /// Number of whole batches available.
    pub fn batches(&self) -> usize {
        self.store.dataset.n_objects() / BATCH_OBJECTS
    }

    /// Batch `i`: every claim about held-out objects
    /// `i·BATCH_OBJECTS .. (i+1)·BATCH_OBJECTS`.
    pub fn batch(&self, i: usize) -> Vec<WireClaim> {
        let d = &self.store.dataset;
        let range = i * BATCH_OBJECTS..(i + 1) * BATCH_OBJECTS;
        d.claims()
            .iter()
            .filter(|c| range.contains(&c.object.index()))
            .map(|c| WireClaim {
                source: d.source_name(c.source).to_string(),
                object: d.object_name(c.object).to_string(),
                attribute: d.attribute_name(c.attribute).to_string(),
                value: d.value(c.value).clone(),
            })
            .collect()
    }
}
