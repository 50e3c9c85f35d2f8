//! JSON (de)serialization of datasets and ground truth.
//!
//! A dataset is serialized as its interner names, values and claims.
//! Loading rebuilds every index and validates the claims through
//! [`Dataset::from_interned_parts`], so a hostile file is a
//! [`ModelError`], never a malformed dataset. Index fields that older
//! files carry are ignored. The format is a stable, versioned envelope so
//! experiment inputs and generated workloads can be archived and
//! replayed.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::ModelError;
use crate::truth::GroundTruth;

/// Current envelope version; bump on breaking layout changes.
pub const FORMAT_VERSION: u32 = 1;

/// Serialized bundle of a dataset plus optional ground truth.
#[derive(Debug, Serialize, Deserialize)]
pub struct DatasetBundle {
    /// Envelope version ([`FORMAT_VERSION`] at write time).
    pub version: u32,
    /// The dataset proper.
    pub dataset: Dataset,
    /// Ground truth, when known.
    pub truth: Option<GroundTruth>,
}

/// Serializes `dataset` (and `truth` if given) to a JSON string.
pub fn to_json(dataset: &Dataset, truth: Option<&GroundTruth>) -> String {
    let bundle = DatasetBundle {
        version: FORMAT_VERSION,
        dataset: dataset.clone(),
        truth: truth.cloned(),
    };
    serde_json::to_string(&bundle).expect("dataset serialization cannot fail")
}

/// Parses a bundle previously produced by [`to_json`], rebuilding and
/// validating the dataset's indexes.
pub fn from_json(json: &str) -> Result<(Dataset, Option<GroundTruth>), ModelError> {
    let bundle: DatasetBundle =
        serde_json::from_str(json).map_err(|e| ModelError::Parse(e.to_string()))?;
    if bundle.version != FORMAT_VERSION {
        return Err(ModelError::Parse(format!(
            "unsupported dataset format version {} (expected {FORMAT_VERSION})",
            bundle.version
        )));
    }
    Ok((bundle.dataset, bundle.truth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::value::Value;

    fn sample() -> (Dataset, GroundTruth) {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::text("x")).unwrap();
        b.claim("s2", "o", "a", Value::text("y")).unwrap();
        b.claim("s1", "o", "b", Value::int(3)).unwrap();
        b.truth("o", "a", Value::text("x"));
        b.build_with_truth()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let (d, t) = sample();
        let json = to_json(&d, Some(&t));
        let (d2, t2) = from_json(&json).unwrap();
        let t2 = t2.unwrap();
        assert_eq!(d2.n_sources(), d.n_sources());
        assert_eq!(d2.n_claims(), d.n_claims());
        assert_eq!(d2.n_cells(), d.n_cells());
        assert_eq!(t2.len(), t.len());
        // Interner lookups must work after rebuild.
        let s1 = d2.source_id("s1").unwrap();
        assert_eq!(d2.source_name(s1), "s1");
        let o = d2.object_id("o").unwrap();
        let a = d2.attribute_id("a").unwrap();
        let v = t2.get(o, a).unwrap();
        assert_eq!(d2.value(v), &Value::text("x"));
    }

    #[test]
    fn roundtrip_without_truth() {
        let (d, _) = sample();
        let json = to_json(&d, None);
        let (_, t) = from_json(&json).unwrap();
        assert!(t.is_none());
    }

    #[test]
    fn rejects_wrong_version() {
        let (d, _) = sample();
        let json = to_json(&d, None).replace("\"version\":1", "\"version\":999");
        let err = from_json(&json).unwrap_err();
        assert!(matches!(err, ModelError::Parse(_)));
        assert!(err.to_string().contains("version"));
    }

    /// A two-claim file in the layout that also carried the derived
    /// indexes (cells, per-attribute ranges, per-source claim lists).
    const INDEXED_FILE: &str = concat!(
        r#"{"version":1,"dataset":{"sources":{"names":["s1","s2"]},"#,
        r#""objects":{"names":["o"]},"attributes":{"names":["a"]},"#,
        r#""values":[{"t":"Int","v":1},{"t":"Int","v":2}],"#,
        r#""claims":[{"source":0,"object":0,"attribute":0,"value":0},"#,
        r#"{"source":1,"object":0,"attribute":0,"value":1}],"#,
        r#""cells":[{"object":0,"attribute":0,"claims_start":0,"claims_end":2}],"#,
        r#""cells_by_attr":[[0,1]],"by_source":[[0],[1]]},"truth":null}"#
    );

    #[test]
    fn loads_files_that_carry_index_fields() {
        let (d, t) = from_json(INDEXED_FILE).unwrap();
        assert!(t.is_none());
        assert_eq!((d.n_sources(), d.n_claims(), d.n_cells()), (2, 2, 1));
        assert_eq!(d.source_id("s2"), Some(crate::SourceId::new(1)));
        assert_eq!(d.cell_claims(&d.cells()[0]).len(), 2);
    }

    #[test]
    fn hostile_index_fields_cannot_reach_the_dataset() {
        // A cell range past the claim vector: the indexes are rebuilt
        // from the claims, so the file's cells are never trusted.
        let file = INDEXED_FILE.replace(r#""claims_end":2"#, r#""claims_end":99"#);
        let (d, _) = from_json(&file).unwrap();
        assert_eq!(d.n_cells(), 1);
        for cell in d.cells() {
            assert!(cell.claim_range().end <= d.n_claims());
            assert_eq!(d.cell_claims(cell).len(), 2);
        }

        // A claim naming source 7 of 2 is an error, not a dataset.
        let file = INDEXED_FILE.replace(r#"{"source":1,"#, r#"{"source":7,"#);
        let err = from_json(&file).unwrap_err();
        assert!(
            matches!(&err, ModelError::Parse(m) if m.contains("#7")),
            "{err}"
        );

        // So is a claim repeated for one (source, object, attribute).
        let file = INDEXED_FILE.replace(r#"{"source":1,"#, r#"{"source":0,"#);
        assert!(matches!(from_json(&file), Err(ModelError::Parse(_))));
    }

    #[test]
    fn writes_no_index_fields() {
        let (d, t) = sample();
        let json = to_json(&d, Some(&t));
        for key in ["cells", "cells_by_attr", "by_source"] {
            assert!(!json.contains(&format!("\"{key}\"")), "{key} in {json}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(from_json("not json"), Err(ModelError::Parse(_))));
    }
}
