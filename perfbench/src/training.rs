//! Training decomposition for the traced run.
//!
//! `TicketPredictor::fit` is one call; to see its layers from outside, the
//! traced run repeats, after the fit and on the same inputs, the public
//! calls the fit is documented to make (see `nevermind::predictor`):
//! `BaseEncoder::encode` on the training and selection-eval Saturdays,
//! `score_features` over the base features and over the `derive`d
//! quadratic and product chunks, `BStump::fit` on the assembled training
//! window and `PlattScale::fit` on the eval margins. The replay is timed in
//! spans of its own root and is checked against the fitted predictor.
//!
//! The selection subsamples are private to the predictor, so they are
//! rebuilt here from their documented protocol (every positive plus a
//! seeded shuffle of negatives for training, a seeded uniform sample for
//! evaluation); whether the replayed selection matches is reported, not
//! assumed.

use crate::trace::Tracer;
use nevermind::pipeline::{ExperimentData, SplitSpec};
use nevermind::predictor::{PredictorConfig, TicketPredictor};
use nevermind_features::encode::{all_products, all_quadratics, derive, EncodedDataset};
use nevermind_features::DerivedFeature;
use nevermind_ml::boost::{BStump, BoostConfig};
use nevermind_ml::calibrate::PlattScale;
use nevermind_ml::select::{score_features, SelectConfig, SelectionCriterion};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Derived features are materialised and scored this many at a time, as
/// the predictor does.
const DERIVED_CHUNK: usize = 256;

/// What the replay found.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Rows `BaseEncoder::encode` produced over both windows.
    pub rows_encoded: usize,
    /// Single-feature models scored during selection.
    pub features_scored: usize,
    /// Features the fitted predictor kept.
    pub features_kept: usize,
    /// The replayed selection equals the predictor's selected set.
    pub selection_matches: bool,
    /// The replayed boosting run equals the predictor's stumps.
    pub boost_matches: bool,
    /// The replayed Platt fit equals the predictor's calibration.
    pub calibration_matches: bool,
}

/// Replays the fit of `predictor` (fitted on `data`/`split` with `config`)
/// inside a `predictor.replay` root span.
pub fn replay_fit(
    t: &mut Tracer,
    data: &ExperimentData,
    split: &SplitSpec,
    config: &PredictorConfig,
    predictor: &TicketPredictor,
) -> Replay {
    t.span("predictor.replay", |t| {
        let encoder = data.encoder(config.encoder.clone());
        let base_train = t.span("features.encode", |_| encoder.encode(&split.train_days));
        let base_eval = t.span("features.encode", |_| encoder.encode(&split.selection_eval_days));

        let train_sub =
            subsample_keep_positives(&base_train, config.selection_row_cap, config.seed);
        let eval_sub = subsample_uniform(&base_eval, config.selection_row_cap, config.seed ^ 1);
        let criterion = SelectionCriterion::TopNAp { n: config.budget(eval_sub.data.len()) };
        let select_cfg = SelectConfig {
            model_iterations: config.selection_iterations,
            n_bins: config.n_bins,
            threads: 0,
        };

        let base_scores: Vec<f64> = t.span("ml.select", |_| {
            score_features(&train_sub.data, &eval_sub.data, criterion, &select_cfg)
                .into_iter()
                .map(|s| s.score)
                .collect()
        });
        let mut features_scored = base_scores.len();
        let selected_base = top_indices(&base_scores, config.n_base);
        let mut selected_derived: Vec<DerivedFeature> = Vec::new();
        if config.use_derived {
            for (candidates, keep) in [
                (all_quadratics(&base_train), config.n_quadratic),
                (all_products(&base_train), config.n_product),
            ] {
                let mut scores = Vec::with_capacity(candidates.len());
                for chunk in candidates.chunks(DERIVED_CHUNK) {
                    let (train_d, eval_d) = t.span("features.derive", |_| {
                        (derive(&train_sub, chunk), derive(&eval_sub, chunk))
                    });
                    scores.extend(t.span("ml.select", |_| {
                        score_features(&train_d.data, &eval_d.data, criterion, &select_cfg)
                            .into_iter()
                            .map(|s| s.score)
                    }));
                }
                features_scored += candidates.len();
                selected_derived
                    .extend(top_indices(&scores, keep).into_iter().map(|i| candidates[i]));
            }
        }
        let selection_matches = selected_base == predictor.selected_base()
            && selected_derived == predictor.selected_derived();

        let train_assembled = t.span("features.assemble", |_| predictor.assemble(&base_train));
        let boost_cfg = BoostConfig {
            iterations: config.iterations,
            n_bins: config.n_bins,
            smoothing: None,
            parallel: true,
        };
        let model = t.span("ml.boost", |_| BStump::fit(&train_assembled, &boost_cfg));
        let boost_matches = model.stumps() == predictor.model().stumps()
            && model.n_features() == predictor.model().n_features();

        let eval_assembled = t.span("features.assemble", |_| predictor.assemble(&base_eval));
        let calibration = t.span("ml.calibrate", |_| {
            let margins = predictor.model().margins(&eval_assembled.x);
            PlattScale::fit(&margins, &eval_assembled.y)
        });
        let calibration_matches = calibration.is_ok_and(|c| &c == predictor.calibration());

        Replay {
            rows_encoded: base_train.rows.len() + base_eval.rows.len(),
            features_scored,
            features_kept: predictor.selected_base().len() + predictor.selected_derived().len(),
            selection_matches,
            boost_matches,
            calibration_matches,
        }
    })
}

/// Indices of the `k` highest positive scores, ties by index — the
/// predictor's documented selection rule.
fn top_indices(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).filter(|&i| scores[i] > 0.0).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Every positive row plus a seeded shuffle of the negatives, up to `cap`
/// rows, in row order.
fn subsample_keep_positives(ds: &EncodedDataset, cap: usize, seed: u64) -> EncodedDataset {
    if ds.data.len() <= cap {
        return ds.clone();
    }
    let (mut rows, mut negatives): (Vec<usize>, Vec<usize>) =
        (0..ds.data.len()).partition(|&i| ds.data.y[i]);
    negatives.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let room = cap.saturating_sub(rows.len());
    rows.extend(negatives.into_iter().take(room));
    rows.sort_unstable();
    take_rows(ds, &rows)
}

/// A seeded uniform sample of `cap` rows, in row order.
fn subsample_uniform(ds: &EncodedDataset, cap: usize, seed: u64) -> EncodedDataset {
    if ds.data.len() <= cap {
        return ds.clone();
    }
    let mut rows: Vec<usize> = (0..ds.data.len()).collect();
    rows.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    rows.truncate(cap);
    rows.sort_unstable();
    take_rows(ds, &rows)
}

fn take_rows(ds: &EncodedDataset, rows: &[usize]) -> EncodedDataset {
    EncodedDataset {
        data: ds.data.select_rows(rows),
        rows: rows.iter().map(|&r| ds.rows[r]).collect(),
        classes: ds.classes.clone(),
    }
}
