//! Plugging a custom base algorithm into TD-AC.
//!
//! TD-AC is generic over the `TruthDiscovery` trait — the paper's `F`
//! parameter. This example implements a small confidence-weighted voter
//! from scratch and runs it both standalone and wrapped by TD-AC on a
//! structured synthetic workload.
//!
//! ```sh
//! cargo run --release --example custom_algorithm
//! ```

use td_ac::algorithms::{TruthDiscovery, TruthResult};
use td_ac::core::{Tdac, TdacConfig};
use td_ac::data::{generate_synthetic, SyntheticConfig};
use td_ac::metrics::evaluate_fn;
use td_ac::model::DatasetView;

/// A two-pass weighted voter: pass 1 scores each source by how often it
/// agrees with the per-cell plurality; pass 2 revotes with those scores
/// as weights. Simpler than TruthFinder, smarter than a plain vote.
struct AgreementWeightedVote;

impl TruthDiscovery for AgreementWeightedVote {
    fn name(&self) -> &'static str {
        "AgreementWeightedVote"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        let n = view.n_sources();
        let mut result = TruthResult::for_view(view, 0.5);
        result.iterations = 2;

        // Pass 1: plurality agreement rate per source.
        let mut agree = vec![0u32; n];
        let mut total = vec![0u32; n];
        for cell in view.cells() {
            let claims = view.cell_claims(cell);
            // Plurality value of this cell.
            let mut counts: Vec<(td_ac::model::ValueId, u32)> = Vec::new();
            for c in claims {
                match counts.iter_mut().find(|(v, _)| *v == c.value) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((c.value, 1)),
                }
            }
            let plurality = counts
                .iter()
                .max_by_key(|&&(v, n)| (n, std::cmp::Reverse(v)))
                .map(|&(v, _)| v)
                .expect("non-empty cell");
            for c in claims {
                total[c.source.index()] += 1;
                agree[c.source.index()] += u32::from(c.value == plurality);
            }
        }
        let weight: Vec<f64> = (0..n)
            .map(|s| {
                if total[s] == 0 {
                    0.5
                } else {
                    agree[s] as f64 / total[s] as f64
                }
            })
            .collect();

        // Pass 2: weighted revote.
        for cell in view.cells() {
            let claims = view.cell_claims(cell);
            let mut scores: Vec<(td_ac::model::ValueId, f64)> = Vec::new();
            let mut mass = 0.0;
            for c in claims {
                let w = weight[c.source.index()];
                mass += w;
                match scores.iter_mut().find(|(v, _)| *v == c.value) {
                    Some((_, s)) => *s += w,
                    None => scores.push((c.value, w)),
                }
            }
            let &(winner, score) = scores
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
                .expect("non-empty cell");
            let conf = if mass > 0.0 { score / mass } else { 0.0 };
            result.set_prediction(cell.object, cell.attribute, winner, conf);
        }
        result.source_trust = weight;
        result
    }
}

fn main() {
    // A structured workload: DS1 scaled down.
    let data = generate_synthetic(&SyntheticConfig::ds1().scaled(200));

    let algo = AgreementWeightedVote;
    let alone = algo.discover(&data.dataset.view_all());
    let alone_report = evaluate_fn(&data.dataset, &data.truth, |o, a| alone.prediction(o, a));
    println!("{} alone   : {alone_report}", algo.name());

    // The builder rejects impossible sweeps (k_min < 2, empty restart
    // budget, …) before any work happens.
    let config = TdacConfig::builder()
        .n_init(10)
        .seed(42)
        .build()
        .expect("k range and restarts are valid");
    let outcome = Tdac::new(config)
        .run(&algo, &data.dataset)
        .expect("TD-AC run");
    let wrapped_report =
        evaluate_fn(&data.dataset, &data.truth, |o, a| outcome.result.prediction(o, a));
    println!("TD-AC(custom F)         : {wrapped_report}");
    println!(
        "partition {} vs planted {}",
        outcome.partition,
        td_ac::core::AttributePartition::new(data.planted.groups.clone())
    );
}
