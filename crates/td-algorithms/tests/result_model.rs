//! `TruthResult` held to a plain model: a `BTreeMap` from cell to
//! `(value, confidence bits)`, plus the trust vector and iteration
//! count the documented merge rules produce.
//!
//! Random programs build results through `for_view` and `with_sources`,
//! write cells inside and outside the grid's shape, overwrite them,
//! `absorb` and `merge_all` other results (disjoint, colliding and
//! empty), clone, and round-trip through serde. After every step the
//! result must agree with the model on `len`, every lookup in and
//! around the written range, confidence and trust bits, the iteration
//! count, and `iter()` yielding exactly the model's cells in ascending
//! `(object, attribute)` order.

use std::collections::BTreeMap;

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use td_algorithms::TruthResult;
use td_model::{AttributeId, Dataset, DatasetBuilder, ObjectId, Value, ValueId};

/// Ids up to here are written; lookups probe a little past them.
const OBJECTS: u32 = 24;
const ATTRIBUTES: u32 = 8;

#[derive(Debug, Clone, Default)]
struct Model {
    cells: BTreeMap<(ObjectId, AttributeId), (ValueId, u64)>,
    trust: Vec<f64>,
    iterations: u32,
}

impl Model {
    fn set(&mut self, o: ObjectId, a: AttributeId, v: ValueId, c: f64) {
        self.cells.insert((o, a), (v, c.to_bits()));
    }

    /// `TruthResult::absorb`'s documented rules.
    fn absorb(&mut self, other: &Model) {
        for (&cell, &slot) in &other.cells {
            self.cells.insert(cell, slot);
        }
        if self.trust.len() == other.trust.len() {
            for (t, &u) in self.trust.iter_mut().zip(&other.trust) {
                *t = (*t + u) / 2.0;
            }
        } else if self.trust.is_empty() {
            self.trust = other.trust.clone();
        }
        self.iterations = self.iterations.max(other.iterations);
    }

    /// `TruthResult::merge_all`'s documented rules.
    fn merge_all(parts: &[Model]) -> Model {
        let mut merged = Model::default();
        for p in parts {
            for (&cell, &slot) in &p.cells {
                merged.cells.insert(cell, slot);
            }
            merged.iterations = merged.iterations.max(p.iterations);
        }
        let len = parts
            .iter()
            .map(|p| p.trust.len())
            .find(|&l| l > 0)
            .unwrap_or(0);
        let counted: Vec<&Model> = parts
            .iter()
            .filter(|p| len > 0 && p.trust.len() == len)
            .collect();
        if !counted.is_empty() {
            merged.trust = (0..len)
                .map(|i| {
                    counted.iter().map(|p| p.trust[i]).fold(0.0, |s, t| s + t)
                        / counted.len() as f64
                })
                .collect();
        }
        merged
    }
}

fn check(r: &TruthResult, m: &Model, step: usize) {
    assert_eq!(r.len(), m.cells.len(), "step {step}: len");
    assert_eq!(r.is_empty(), m.cells.is_empty(), "step {step}: is_empty");
    let rows: Vec<_> = r
        .iter()
        .map(|(o, a, v, c)| ((o, a), (v, c.to_bits())))
        .collect();
    let want: Vec<_> = m.cells.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(
        rows, want,
        "step {step}: iter must yield the model's cells, ascending"
    );
    for o in 0..OBJECTS + 3 {
        for a in 0..ATTRIBUTES + 2 {
            let (o, a) = (ObjectId::new(o), AttributeId::new(a));
            let slot = m.cells.get(&(o, a));
            assert_eq!(
                r.prediction(o, a),
                slot.map(|s| s.0),
                "step {step}: ({o}, {a})"
            );
            assert_eq!(
                r.confidence(o, a).map(f64::to_bits),
                slot.map(|s| s.1),
                "step {step}: confidence of ({o}, {a})"
            );
        }
    }
    let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r.source_trust), bits(&m.trust), "step {step}: trust");
    assert_eq!(r.iterations, m.iterations, "step {step}: iterations");
}

/// `objects × attributes` cells claimed by `sources` sources, interned
/// in id order.
fn dataset(objects: u32, attributes: u32, sources: u32) -> Dataset {
    let mut b = DatasetBuilder::new();
    for o in 0..objects {
        for a in 0..attributes {
            for s in 0..sources {
                b.claim(
                    &format!("s{s}"),
                    &format!("o{o}"),
                    &format!("a{a}"),
                    Value::int(1),
                )
                .unwrap();
            }
        }
    }
    b.build()
}

/// A second result and its model: two cells derived from `(o, a, v)`
/// (which may collide with the first result's), `n_trust` sources at
/// `trust`, and `iterations`.
fn other(
    o: u32,
    a: u32,
    v: u32,
    n_trust: usize,
    trust: f64,
    iterations: u32,
) -> (TruthResult, Model) {
    let mut r = TruthResult::with_sources(n_trust, trust);
    r.iterations = iterations;
    let mut m = Model {
        trust: vec![trust; n_trust],
        iterations,
        ..Model::default()
    };
    for (o, a, v, c) in [
        (o, a, v, 0.25),
        ((o * 7 + 3) % OBJECTS, (a + 5) % ATTRIBUTES, v + 1, 0.5),
    ] {
        let (o, a, v) = (ObjectId::new(o), AttributeId::new(a), ValueId::new(v));
        r.set_prediction(o, a, v, c);
        m.set(o, a, v, c);
    }
    (r, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truth_result_matches_its_model(
        shape in (0u32..4, 1u32..12, 1u32..6, 0u32..64),
        ops in proptest::collection::vec((0u32..10, 0u32..OBJECTS, 0u32..ATTRIBUTES, 0u32..30, 0u32..1000), 0..48),
    ) {
        let (kind, objects, attributes, mask) = shape;
        let d = dataset(objects, attributes, 2);
        let (mut r, mut m) = if kind == 0 {
            (TruthResult::with_sources(2, 0.5), Model { trust: vec![0.5; 2], ..Model::default() })
        } else {
            // A view of the attributes `mask` selects: in-shape writes land
            // in its grid, the others grow it.
            let picked: Vec<AttributeId> = d
                .attribute_ids()
                .filter(|a| mask >> (a.index() % 6) & 1 == 1)
                .collect();
            (
                TruthResult::for_view(&d.view_of(&picked), 0.8),
                Model { trust: vec![0.8; 2], ..Model::default() },
            )
        };
        check(&r, &m, 0);
        for (step, &(op, o, a, v, c)) in ops.iter().enumerate() {
            let (oid, aid, vid) = (ObjectId::new(o), AttributeId::new(a), ValueId::new(v));
            let conf = f64::from(c) / 7.0;
            match op {
                // Writes, in or out of the grid's shape; repeats overwrite.
                0..=3 => {
                    r.set_prediction(oid, aid, vid, conf);
                    m.set(oid, aid, vid, conf);
                }
                4 => {
                    let (x, xm) = other(o, a, v, if c % 3 == 0 { 3 } else { 2 }, conf, c % 5);
                    r.absorb(&x);
                    m.absorb(&xm);
                }
                // A merge with a colliding-or-disjoint partial, an empty
                // one, and one whose trust length differs.
                5 | 6 => {
                    let (x, xm) = other(o, a, v, 2, conf, c % 5);
                    let (y, ym) = other((o + 11) % OBJECTS, a, v + 2, 3, 0.125, 1);
                    let (parts, models) = if op == 5 {
                        (vec![r, x, TruthResult::default(), y], vec![m, xm, Model::default(), ym])
                    } else {
                        (vec![TruthResult::default(), x, r], vec![Model::default(), xm, m])
                    };
                    r = TruthResult::merge_all(&parts);
                    m = Model::merge_all(&models);
                }
                7 => {
                    r = TruthResult::merge_all(&[]);
                    m = Model::default();
                }
                8 => {
                    let copy = r.clone();
                    check(&copy, &m, step + 1);
                    r = copy;
                }
                _ => {
                    let value = r.to_value();
                    r = TruthResult::from_value(&value).expect("a result round-trips");
                    prop_assert_eq!(r.to_value(), value);
                }
            }
            check(&r, &m, step + 1);
        }
    }
}
