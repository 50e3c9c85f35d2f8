//! Property test for `Dataset::apply_batch`: a chain of batches yields
//! the dataset `Dataset::from_interned_parts` builds from scratch over
//! the accumulated parts, and a conflicting batch changes nothing.

use std::collections::HashMap;

use proptest::prelude::*;

use td_model::{
    AttributeId, Claim, ClaimBatch, Dataset, DatasetBuilder, Interner, ModelError, ObjectId,
    SourceId, Value, ValueId,
};

/// `(source, object, attribute, twist)` indexes into small name pools.
type Row = (u32, u32, u32, u32);

/// The value a row asserts: a function of its cell and source, so
/// repeated rows are exact duplicates, except that a `twist` of 0 asserts
/// a different value and conflicts with any earlier claim of the triple.
fn value_of(&(s, o, a, twist): &Row) -> Value {
    let canonical = (s * 7 + o * 3 + a) % 4;
    Value::int(i64::from(canonical + u32::from(twist == 0)))
}

fn names(&(s, o, a, _): &Row) -> (String, String, String) {
    (format!("s{s}"), format!("o{o}"), format!("a{a}"))
}

/// The base uses the low end of each pool, so batches bring new
/// sources, objects and attributes as well as claims on known cells.
fn arb_base_row() -> impl Strategy<Value = Row> {
    (0..3u32, 0..4u32, 0..3u32, 1..12u32)
}

fn arb_batch_row() -> impl Strategy<Value = Row> {
    (0..5u32, 0..7u32, 0..5u32, 0..12u32)
}

/// The accumulated parts, interned in the order `apply_batch` promises:
/// each row interns its source, object, attribute and value in turn.
#[derive(Clone, Default)]
struct Model {
    sources: Interner,
    objects: Interner,
    attributes: Interner,
    values: Vec<Value>,
    claims: HashMap<(u32, u32, u32), ValueId>,
    /// Claims in acceptance order (not sorted).
    order: Vec<Claim>,
}

impl Model {
    fn value(&mut self, v: &Value) -> ValueId {
        match self.values.iter().position(|x| x == v) {
            Some(i) => ValueId::new(i as u32),
            None => {
                self.values.push(v.clone());
                ValueId::new(self.values.len() as u32 - 1)
            }
        }
    }

    /// Adds a batch's rows; `Err` if one of them conflicts.
    fn add(&mut self, rows: &[Row]) -> Result<Vec<Claim>, ()> {
        let mut appended = Vec::new();
        for row in rows {
            let (s, o, a) = names(row);
            let s = SourceId::new(self.sources.intern(&s));
            let o = ObjectId::new(self.objects.intern(&o));
            let a = AttributeId::new(self.attributes.intern(&a));
            let v = self.value(&value_of(row));
            match self.claims.insert((s.0, o.0, a.0), v) {
                None => appended.push(Claim::new(s, o, a, v)),
                Some(prev) if prev == v => {}
                Some(_) => return Err(()),
            }
        }
        self.order.extend(&appended);
        Ok(appended)
    }

    fn build(&self) -> Dataset {
        Dataset::from_interned_parts(
            self.sources.clone(),
            self.objects.clone(),
            self.attributes.clone(),
            self.values.clone(),
            self.order.clone(),
        )
        .expect("the model holds consistent claims")
    }
}

fn assert_same(d: &Dataset, expected: &Dataset, model: &Model) {
    assert_eq!(d.claims(), expected.claims());
    assert_eq!(d.cells(), expected.cells());
    assert_eq!(d.n_attributes(), expected.n_attributes());
    for a in expected.attribute_ids() {
        assert_eq!(d.cells_of_attribute(a), expected.cells_of_attribute(a));
    }
    assert_eq!(d.n_sources(), model.sources.len());
    assert_eq!(d.n_objects(), model.objects.len());
    assert_eq!(d.n_values(), model.values.len());
    for (id, name) in model.sources.iter() {
        assert_eq!(d.source_id(name), Some(SourceId::new(id)));
    }
    for (id, name) in model.objects.iter() {
        assert_eq!(d.object_id(name), Some(ObjectId::new(id)));
    }
    for (id, name) in model.attributes.iter() {
        assert_eq!(d.attribute_id(name), Some(AttributeId::new(id)));
    }
    for (i, v) in model.values.iter().enumerate() {
        assert_eq!(d.value(ValueId::new(i as u32)), v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn apply_batch_equals_a_from_scratch_build(
        base in proptest::collection::vec(arb_base_row(), 1..16),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_batch_row(), 0..12),
            1..6,
        ),
    ) {
        let mut model = Model::default();
        let mut b = DatasetBuilder::new();
        for row in &base {
            let (s, o, a) = names(row);
            b.claim(&s, &o, &a, value_of(row)).expect("base rows never conflict");
        }
        model.add(&base).expect("base rows never conflict");
        let mut d = b.build();
        assert_same(&d, &model.build(), &model);

        for rows in &batches {
            let mut batch = ClaimBatch::new();
            for row in rows {
                let (s, o, a) = names(row);
                batch.claim(s, o, a, value_of(row));
            }
            let mut next_model = model.clone();
            match (d.apply_batch(&batch), next_model.add(rows)) {
                (Ok((next, summary)), Ok(appended)) => {
                    let mut dirty: Vec<_> = appended.iter().map(|c| c.attribute).collect();
                    dirty.sort_unstable();
                    dirty.dedup();
                    prop_assert_eq!(&summary.dirty_attributes, &dirty);
                    prop_assert_eq!(summary.appended_claims, appended.len());
                    prop_assert_eq!(summary.new_objects, next_model.objects.len() - model.objects.len());
                    assert_same(&next, &next_model.build(), &next_model);
                    d = next;
                    model = next_model;
                }
                (Err(e), Err(())) => {
                    prop_assert!(matches!(e, ModelError::ConflictingClaim { .. }), "{e}");
                    // The input dataset is untouched.
                    assert_same(&d, &model.build(), &model);
                }
                (got, _) => panic!("apply_batch and the model disagree: {:?}", got.map(|r| r.1)),
            }
        }
    }
}
