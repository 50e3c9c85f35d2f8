#![warn(missing_docs)]
// Numeric kernels index several parallel arrays in lockstep; iterator
// rewrites obscure them without gain.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::vec_init_then_push)]

//! # tdac-clustering — hand-written clustering stack
//!
//! The Rust clustering ecosystem is thin, and the TD-AC paper's method is
//! specific enough (k-means over binary attribute truth vectors, model
//! selection by the silhouette index with macro-averaging over clusters,
//! Eqs. 3–7) that everything here is implemented from scratch:
//!
//! * [`matrix::Matrix`] — a dense row-major `f64` matrix (the attribute
//!   truth-vector matrix of the paper's §3.1);
//! * [`bitmatrix::BitMatrix`] — the same rows packed into `u64` words
//!   (plus an optional validity mask), feeding the XOR+popcount kernels;
//! * [`distance`] — the metric zoo (Euclidean, squared Euclidean,
//!   Manhattan, Hamming — the paper's Eq. 2 — cosine), each with an
//!   exact count form on 0/1 rows, and the representation-aware pairwise
//!   kernel ([`distance::Rows`], [`distance::DistanceOptions`],
//!   [`bitmatrix::KernelPolicy`]);
//! * [`kmeans`] — Lloyd's algorithm with k-means++ or random
//!   initialization, multiple seeded restarts and empty-cluster repair,
//!   plus an exact packed path for 0/1 rows that returns the dense
//!   loop's bits, and [`kmeans::KMeansSweep`], which fits every k of a
//!   sweep from pair counts and seeds shared across k;
//! * [`silhouette`] — per-sample, per-cluster and partition-level
//!   silhouette coefficients, in both the standard (global mean) and the
//!   paper's macro-averaged form (Eqs. 5–7);
//! * [`kselect`] — elbow-method selection of k, the ablation baseline
//!   for TD-AC's silhouette sweep (which lives in `tdac-core`);
//! * [`pam`] — k-medoids (PAM), the natural ablation for clustering
//!   binary vectors under a true Hamming metric;
//! * [`hierarchical`] — agglomerative clustering (single / complete /
//!   average linkage), a second ablation.
//!
//! Everything is deterministic given a seed, and all entry points return
//! typed errors instead of panicking on degenerate input.

pub mod bitmatrix;
pub mod distance;
pub mod error;
pub mod hierarchical;
pub mod kmeans;
pub mod kselect;
pub mod matrix;
pub mod pam;
pub mod silhouette;

pub use bitmatrix::{BitMatrix, KernelPolicy};
pub use distance::{
    pairwise_distances, CountForm, Cosine, DistanceOptions, DistanceOptionsBuilder, Euclidean,
    Hamming, Manhattan, Metric, Rows, SqEuclidean,
};
pub use error::ClusterError;
pub use hierarchical::{Agglomerative, Linkage};
pub use kmeans::{Init, KMeans, KMeansConfig, KMeansResult, KMeansSweep};
pub use kselect::{select_k_elbow, ElbowSelection};
pub use matrix::Matrix;
pub use pam::{Pam, PamConfig, PamResult};
pub use silhouette::{
    silhouette_paper, silhouette_paper_dist, silhouette_samples, silhouette_samples_dist,
    silhouette_score,
};
