//! Dense integer identifiers and string interning.
//!
//! All entities of a [`crate::Dataset`] — sources, objects, attributes and
//! values — are identified by dense `u32` newtypes allocated in insertion
//! order. Dense ids let every algorithm replace hash maps with flat
//! `Vec`-indexed state (source trust vectors, per-cell confidence tables),
//! which is the single most important layout decision for performance on
//! datasets with tens of thousands of observations.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an id from a raw dense index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw dense index, suitable for `Vec` indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }
    };
}

define_id!(
    /// Identifier of a data source (a website, a crowd worker, a student…).
    SourceId,
    "s"
);
define_id!(
    /// Identifier of a real-world object (entity) described by the data.
    ObjectId,
    "o"
);
define_id!(
    /// Identifier of a data attribute (a property / question about objects).
    AttributeId,
    "a"
);
define_id!(
    /// Identifier of an interned claim value.
    ValueId,
    "v"
);

/// An insertion-ordered string interner mapping names to dense `u32` ids.
///
/// Used by [`crate::DatasetBuilder`] for source, object and attribute
/// names. Lookup is `O(1)` amortized; `name(id)` is a direct `Vec` index.
///
/// Serializes as its names only. Deserializing re-interns them, so the
/// lookup index is rebuilt and a repeated name is an error.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Interner {
    names: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its dense id (existing or freshly
    /// allocated).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow: more than 2^32 names");
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Returns the id of `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Returns the name behind `id`, or `None` if out of range.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }
}

impl Deserialize for Interner {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let names: Vec<String> = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for Interner"))
            .and_then(|obj| {
                Deserialize::from_value(obj.get("names").unwrap_or(&serde::Value::Null))
            })
            .map_err(|e| e.context("Interner.names"))?;
        let mut interner = Interner::new();
        for name in &names {
            if interner.get(name).is_some() {
                return Err(serde::Error::custom(format!("duplicate name {name:?}"))
                    .context("Interner.names"));
            }
            interner.intern(name);
        }
        Ok(interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.intern("beta"), b);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_insertion_ordered() {
        let mut i = Interner::new();
        for (expect, name) in ["x", "y", "z"].iter().enumerate() {
            assert_eq!(i.intern(name), expect as u32);
        }
        assert_eq!(i.name(1), Some("y"));
        assert_eq!(i.get("z"), Some(2));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.name(99), None);
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let pairs: Vec<_> = i.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b")]);
    }

    #[test]
    fn deserialization_restores_lookup() {
        let mut i = Interner::new();
        i.intern("p");
        i.intern("q");
        let json = serde_json::to_string(&i).unwrap();
        assert_eq!(json, r#"{"names":["p","q"]}"#);
        let back: Interner = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("p"), Some(0));
        assert_eq!(back.get("q"), Some(1));
        assert_eq!(back.name(1), Some("q"));
    }

    #[test]
    fn deserialization_rejects_repeated_names() {
        let err = serde_json::from_str::<Interner>(r#"{"names":["p","q","p"]}"#).unwrap_err();
        assert!(err.to_string().contains("duplicate name \"p\""), "{err}");
    }

    #[test]
    fn id_display_uses_prefix() {
        assert_eq!(SourceId::new(3).to_string(), "s3");
        assert_eq!(ObjectId::new(0).to_string(), "o0");
        assert_eq!(AttributeId::new(7).to_string(), "a7");
        assert_eq!(ValueId::new(12).to_string(), "v12");
    }

    #[test]
    fn id_index_roundtrip() {
        let id = AttributeId::from(5u32);
        assert_eq!(id.index(), 5);
        assert_eq!(AttributeId::new(5), id);
    }
}
