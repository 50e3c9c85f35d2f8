//! Zero-copy restriction of a dataset to a subset of attributes.

use crate::claim::Claim;
use crate::dataset::{Cell, Dataset};
use crate::ids::{AttributeId, ValueId};
use crate::value::Value;

/// A borrowed view of a [`Dataset`] restricted to an attribute subset.
///
/// This is the execution unit of TD-AC: the base truth-discovery
/// algorithm is run once per attribute cluster, each run seeing only the
/// claims whose attribute belongs to the cluster. Because the underlying
/// claim vector is sorted by attribute, a view iterates contiguous slices
/// and copies nothing.
///
/// Entity ids are *global*: a view keeps the parent dataset's source /
/// object / attribute / value id spaces so results from different
/// partitions can be merged without translation.
#[derive(Debug, Clone)]
pub struct DatasetView<'a> {
    dataset: &'a Dataset,
    /// `dataset.claims()`, borrowed once so a cell's claims are one
    /// slice index away.
    claims: &'a [Claim],
    /// Selected attributes, ascending.
    attrs: Vec<AttributeId>,
    /// `attribute.index() -> selected?`, length `dataset.n_attributes()`.
    mask: Vec<bool>,
}

impl<'a> DatasetView<'a> {
    /// View over every attribute of `dataset`.
    pub fn all(dataset: &'a Dataset) -> Self {
        let attrs: Vec<AttributeId> = dataset.attribute_ids().collect();
        let mask = vec![true; dataset.n_attributes()];
        Self {
            dataset,
            claims: dataset.claims(),
            attrs,
            mask,
        }
    }

    /// View restricted to `attributes` (deduplicated, sorted).
    ///
    /// Attribute ids outside the dataset are ignored.
    pub fn of(dataset: &'a Dataset, attributes: &[AttributeId]) -> Self {
        let mut mask = vec![false; dataset.n_attributes()];
        for a in attributes {
            if a.index() < mask.len() {
                mask[a.index()] = true;
            }
        }
        let attrs: Vec<AttributeId> = dataset
            .attribute_ids()
            .filter(|a| mask[a.index()])
            .collect();
        Self {
            dataset,
            claims: dataset.claims(),
            attrs,
            mask,
        }
    }

    /// The parent dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The selected attributes, ascending.
    pub fn attributes(&self) -> &[AttributeId] {
        &self.attrs
    }

    /// Whether `attribute` is part of this view.
    #[inline]
    pub fn contains_attribute(&self, attribute: AttributeId) -> bool {
        attribute.index() < self.mask.len() && self.mask[attribute.index()]
    }

    /// Number of sources in the *global* id space (sources without claims
    /// in this view are still addressable; algorithms give them default
    /// trust).
    pub fn n_sources(&self) -> usize {
        self.dataset.n_sources()
    }

    /// Number of selected attributes.
    pub fn n_attributes(&self) -> usize {
        self.attrs.len()
    }

    /// Iterates the non-empty cells of the selected attributes.
    pub fn cells(&self) -> impl Iterator<Item = &'a Cell> + '_ {
        self.attrs
            .iter()
            .flat_map(move |&a| self.dataset.cells_of_attribute(a).iter())
    }

    /// Number of cells in the view.
    pub fn n_cells(&self) -> usize {
        self.attrs
            .iter()
            .map(|&a| self.dataset.cells_of_attribute(a).len())
            .sum()
    }

    /// Number of claims in the view.
    pub fn n_claims(&self) -> usize {
        self.cells().map(Cell::n_claims).sum()
    }

    /// The claims of a cell.
    pub fn cell_claims(&self, cell: &Cell) -> &'a [Claim] {
        &self.claims[cell.claim_range()]
    }

    /// Resolves a value id.
    pub fn value(&self, id: ValueId) -> &'a Value {
        self.dataset.value(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        for s in ["s1", "s2"] {
            for o in ["o1", "o2", "o3"] {
                for a in ["a1", "a2", "a3", "a4"] {
                    b.claim(s, o, a, Value::text(format!("{s}-{o}-{a}"))).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn all_view_covers_everything() {
        let d = dataset();
        let v = d.view_all();
        assert_eq!(v.n_attributes(), 4);
        assert_eq!(v.n_cells(), 12);
        assert_eq!(v.n_claims(), 24);
        assert_eq!(v.n_sources(), 2);
    }

    #[test]
    fn restricted_view_filters_cells_and_claims() {
        let d = dataset();
        let a1 = d.attribute_id("a1").unwrap();
        let a3 = d.attribute_id("a3").unwrap();
        let v = d.view_of(&[a3, a1]); // order & dedup handled
        assert_eq!(v.attributes(), &[a1, a3]);
        assert_eq!(v.n_cells(), 6);
        assert_eq!(v.n_claims(), 12);
        assert!(v.cells().all(|c| c.attribute == a1 || c.attribute == a3));
    }

    #[test]
    fn duplicate_and_unknown_attributes_are_tolerated() {
        let d = dataset();
        let a1 = d.attribute_id("a1").unwrap();
        let v = d.view_of(&[a1, a1, AttributeId::new(999)]);
        assert_eq!(v.n_attributes(), 1);
        assert!(!v.contains_attribute(AttributeId::new(999)));
    }

    #[test]
    fn empty_view_is_well_formed() {
        let d = dataset();
        let v = d.view_of(&[]);
        assert_eq!(v.n_attributes(), 0);
        assert_eq!(v.n_cells(), 0);
        assert_eq!(v.n_claims(), 0);
        assert_eq!(v.cells().count(), 0);
    }
}
