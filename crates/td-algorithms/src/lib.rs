#![warn(missing_docs)]
// Numeric kernels index several parallel arrays in lockstep; iterator
// rewrites obscure them without gain.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::vec_init_then_push)]

//! # td-algorithms — the standard truth-discovery algorithm family
//!
//! From-scratch Rust implementations of every *base* and *baseline*
//! algorithm the TD-AC paper uses (§4.1), plus the extended set its
//! conclusion names as future comparison targets:
//!
//! | Algorithm | Paper | Module |
//! |---|---|---|
//! | MajorityVote | folklore | [`majority`] |
//! | TruthFinder | Yin, Han & Yu, TKDE 2008 | [`truthfinder`] |
//! | Depen / Accu / AccuSim | Dong, Berti-Équille & Srivastava, VLDB 2009 | [`accu`] |
//! | Sums, AverageLog, Investment, PooledInvestment | Pasternack & Roth, COLING 2010 | [`fixpoint`] |
//! | 2-Estimates, 3-Estimates | Galland et al., WSDM 2010 | [`estimates`] |
//! | CRH | Li et al., SIGMOD 2014 | [`crh`] |
//! | DART (domain-aware, one-truth adaptation) | Lin & Chen, VLDB 2018 | [`dart`] |
//! | Ensemble (VERA-style combiner) | Ba et al., WWW 2016 | [`ensemble`] |
//!
//! Every algorithm implements the [`TruthDiscovery`] trait over a
//! [`td_model::DatasetView`], which is what lets TD-AC (crate
//! `tdac-core`) run *any* of them per attribute cluster — the
//! composability requirement at the heart of the paper.
//!
//! All algorithms are deterministic: ties break toward the smallest
//! interned [`td_model::ValueId`], iteration orders are fixed by the
//! dataset's sorted claim layout, and no randomness is used anywhere.
//!
//! ```
//! use td_model::{DatasetBuilder, Value};
//! use td_algorithms::{MajorityVote, TruthDiscovery};
//!
//! let mut b = DatasetBuilder::new();
//! b.claim("s1", "match", "winner", Value::text("Algeria")).unwrap();
//! b.claim("s2", "match", "winner", Value::text("Senegal")).unwrap();
//! b.claim("s3", "match", "winner", Value::text("Algeria")).unwrap();
//! let d = b.build();
//!
//! let result = MajorityVote::default().discover(&d.view_all());
//! let o = d.object_id("match").unwrap();
//! let a = d.attribute_id("winner").unwrap();
//! let winner = result.prediction(o, a).unwrap();
//! assert_eq!(d.value(winner), &Value::text("Algeria"));
//! ```

pub mod accu;
pub mod common;
pub mod crh;
pub mod dart;
pub mod ensemble;
pub mod estimates;
pub mod fixpoint;
pub mod majority;
pub mod registry;
pub mod result;
pub mod traits;
pub mod truthfinder;

pub use accu::{Accu, AccuConfig, AccuSim, Depen};
pub use crh::{Crh, CrhConfig};
pub use dart::{Dart, DartConfig};
pub use ensemble::Ensemble;
pub use estimates::{ThreeEstimates, TwoEstimates};
pub use fixpoint::{AverageLog, Investment, PooledInvestment, Sums};
pub use majority::MajorityVote;
pub use registry::{algorithm_by_name, standard_algorithms};
pub use result::{TruthResult, TruthResultRepr};
pub use traits::TruthDiscovery;
pub use truthfinder::{TruthFinder, TruthFinderConfig};
