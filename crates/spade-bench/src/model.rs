//! A fitted cost model for millisecond plan selection (the default
//! `advise` path).
//!
//! `find_opt` answers "which plan is best?" by simulating the whole
//! Table-3 space — seconds to minutes per matrix. This module learns the
//! answer instead: a std-only least-squares fit from cache-dataset rows
//! (matrix structure features × plan knobs × system config → cycles),
//! with optional per-RU-class segment weights (a segmented-linear model).
//! Predictions are O(features); ranking a candidate list is microseconds.
//!
//! The model predicts `ln(cycles)` from a transformed regressor vector:
//! log-scaled matrix counts, plan knobs (log₂ panel sizes, policy
//! dummies, barriers), log₂ K and log₂ PEs, plus plan×structure
//! interaction terms so the *ordering* of plans can differ between
//! matrices (a purely additive model would rank plans identically for
//! every matrix).
//!
//! On disk a model is framed and written by the cache's own routines —
//! magic, format version, length-prefixed JSON payload, trailing length +
//! FNV-1a checksum, committed with fsync and rename — so a truncated or
//! bit-flipped file is detected at load time and the daemon falls back to
//! the heuristic tier instead of serving garbage predictions.

use std::path::Path;

use spade_core::advisor::PlanRanker;
use spade_core::{ExecutionPlan, JsonValue, RMatrixPolicy};
use spade_matrix::analysis::{MatrixFeatures, FEATURE_NAMES, FEATURE_VECTOR_VERSION};

use crate::cache::{decode_framed, encode_framed, fnv1a, write_durable};

/// Magic bytes opening a model file.
pub const MODEL_MAGIC: &[u8; 8] = b"SPADEML\0";

/// On-disk model format version; bump on any layout change.
pub const MODEL_FORMAT_VERSION: u32 = 1;

/// Ridge regularization strength for the normal equations. Small enough
/// not to bias well-determined fits, large enough to keep the solve
/// stable when regressors are collinear (e.g. a suite where every matrix
/// is square, making the row/col features identical).
const RIDGE_LAMBDA: f64 = 1e-3;

/// A segment needs at least this many training rows per regressor
/// dimension before it gets its own weights; otherwise it shares the
/// global fit.
const SEGMENT_ROWS_PER_DIM: usize = 2;

/// Confidence gate: minimum holdout rows.
const MIN_HOLDOUT_ROWS: usize = 8;

/// Confidence gate: maximum holdout mean absolute relative error.
const MAX_HOLDOUT_MARE: f64 = 0.5;

/// One `(matrix, plan, system) → cycles` observation, as exported from
/// the daemon's cache dataset or produced by a local sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRow {
    /// Benchmark short name (used for per-benchmark accuracy and the
    /// train/holdout split).
    pub benchmark: String,
    /// Structural features in [`FEATURE_NAMES`] order.
    pub features: Vec<f64>,
    /// Plan row panel size.
    pub row_panel: usize,
    /// Plan column panel size (already clamped to the matrix width).
    pub col_panel: usize,
    /// Plan rMatrix policy.
    pub r_policy: RMatrixPolicy,
    /// Whether the plan inserts scheduling barriers.
    pub barriers: bool,
    /// Dense row size K.
    pub k: usize,
    /// Number of PEs.
    pub pes: usize,
    /// Observed cycle count.
    pub cycles: u64,
}

impl TrainingRow {
    /// A stable identity for the observation, used for the deterministic
    /// train/holdout split (same row → same side, across processes).
    fn split_key(&self) -> u64 {
        let s = format!(
            "{}/{}/{}/{:?}/{}/{}/{}",
            self.benchmark,
            self.row_panel,
            self.col_panel,
            self.r_policy,
            self.barriers,
            self.k,
            self.pes
        );
        fnv1a(s.as_bytes())
    }

    /// `true` when the row lands in the holdout fifth.
    fn is_holdout(&self) -> bool {
        self.split_key().is_multiple_of(5)
    }
}

/// Per-benchmark and overall accuracy of a fitted model, measured as
/// mean absolute relative error (MARE) in cycle space:
/// `|predicted − observed| / observed`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Rows the weights were fitted on.
    pub train_rows: usize,
    /// Rows held out of the fit.
    pub holdout_rows: usize,
    /// MARE over the holdout rows (the confidence-gate metric).
    pub holdout_mare: f64,
    /// `(benchmark, rows, mare)` over all rows, per benchmark.
    pub per_benchmark: Vec<(String, usize, f64)>,
}

impl AccuracyReport {
    /// The report as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("train_rows", (self.train_rows as u64).into()),
            ("holdout_rows", (self.holdout_rows as u64).into()),
            ("holdout_mare", self.holdout_mare.into()),
            (
                "per_benchmark",
                JsonValue::Array(
                    self.per_benchmark
                        .iter()
                        .map(|(b, n, mare)| {
                            JsonValue::object([
                                ("benchmark", b.as_str().into()),
                                ("rows", (*n as u64).into()),
                                ("mare", (*mare).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing {k:?}"));
        let mut per_benchmark = Vec::new();
        for row in field("per_benchmark")?
            .as_array()
            .ok_or("per_benchmark must be an array")?
        {
            per_benchmark.push((
                row.get("benchmark")
                    .and_then(JsonValue::as_str)
                    .ok_or("per_benchmark entry missing benchmark")?
                    .to_string(),
                row.get("rows")
                    .and_then(JsonValue::as_u64)
                    .ok_or("per_benchmark entry missing rows")? as usize,
                row.get("mare")
                    .and_then(JsonValue::as_f64)
                    .ok_or("per_benchmark entry missing mare")?,
            ));
        }
        Ok(AccuracyReport {
            train_rows: field("train_rows")?.as_u64().ok_or("bad train_rows")? as usize,
            holdout_rows: field("holdout_rows")?.as_u64().ok_or("bad holdout_rows")? as usize,
            holdout_mare: field("holdout_mare")?.as_f64().ok_or("bad holdout_mare")?,
            per_benchmark,
        })
    }
}

/// A fitted, versioned cost model: global least-squares weights plus
/// optional per-RU-class segment weights.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// [`FEATURE_VECTOR_VERSION`] the model was fitted against.
    pub feature_version: u32,
    /// Global regression weights over [`regressor_names`] terms.
    pub weights: Vec<f64>,
    /// `(ru_class, weights)` for segments with enough rows to stand alone.
    pub segments: Vec<(u32, Vec<f64>)>,
    /// Accuracy measured at fit time.
    pub accuracy: AccuracyReport,
}

/// Names of the regressor terms, in weight order. Length defines the
/// regression dimension.
pub fn regressor_names() -> Vec<String> {
    let mut names = vec!["bias".to_string()];
    names.extend(FEATURE_NAMES.iter().map(|n| format!("m_{n}")));
    for p in PLAN_TERMS {
        names.push(format!("p_{p}"));
    }
    names.push("log2_k".to_string());
    names.push("log2_pes".to_string());
    for p in PLAN_TERMS {
        for m in INTERACTION_FEATURES {
            names.push(format!("x_{p}*{m}"));
        }
    }
    names
}

const PLAN_TERMS: [&str; 6] = [
    "log2_row_panel",
    "log2_col_panel",
    "col_coverage",
    "bypass",
    "bypass_victim",
    "barriers",
];

const INTERACTION_FEATURES: [&str; 3] = ["ru_class", "log1p_avg_degree", "local_column_reuse"];

/// The regression dimension (length of one regressor vector).
pub fn regressor_dim() -> usize {
    1 + FEATURE_NAMES.len() + PLAN_TERMS.len() + 2 + PLAN_TERMS.len() * INTERACTION_FEATURES.len()
}

/// Builds the transformed regressor vector for one observation.
fn regressors(
    features: &[f64],
    row_panel: usize,
    col_panel: usize,
    r_policy: RMatrixPolicy,
    barriers: bool,
    k: usize,
    pes: usize,
) -> Vec<f64> {
    let mut x = Vec::with_capacity(regressor_dim());
    x.push(1.0);
    // Matrix features: log1p the unbounded counts, keep ratios raw.
    // Indices follow FEATURE_NAMES: 0 nnz, 1 rows, 2 cols, 3 density,
    // 4 avg_degree, 5 skew, 6 cov, 7 max_degree, 8 ru, 9 bandwidth,
    // 10 reuse, 11 panel_mean, 12 panel_cov, 13 panel_max_ratio.
    const LOG_SCALED: [bool; 14] = [
        true, true, true, false, true, true, false, true, false, false, false, true, false, true,
    ];
    for (i, &f) in features.iter().enumerate() {
        let scaled = if LOG_SCALED.get(i).copied().unwrap_or(false) {
            f.max(0.0).ln_1p()
        } else {
            f
        };
        x.push(if scaled.is_finite() { scaled } else { 0.0 });
    }
    let num_cols = features[2].max(1.0);
    let plan_terms = [
        (row_panel.max(1) as f64).log2(),
        (col_panel.max(1) as f64).log2(),
        (col_panel as f64 / num_cols).min(1.0),
        f64::from(r_policy == RMatrixPolicy::Bypass),
        f64::from(r_policy == RMatrixPolicy::BypassVictim),
        f64::from(barriers),
    ];
    x.extend(plan_terms);
    x.push((k.max(1) as f64).log2());
    x.push((pes.max(1) as f64).log2());
    // Interactions: plan knobs × structure, so plan ordering can differ
    // between matrices.
    let inter = [features[8], features[4].max(0.0).ln_1p(), features[10]];
    for p in plan_terms {
        for m in inter {
            x.push(p * m);
        }
    }
    x
}

fn ru_class_of(features: &[f64]) -> u32 {
    features.get(8).map(|&r| r as u32).unwrap_or(0)
}

/// Solves `(XᵀX + λI) w = Xᵀy` by Gaussian elimination with partial
/// pivoting. `rows` are regressor vectors, `ys` the targets.
// Index-based loops: the elimination reads and writes different rows of
// `ata` in the same step, which iterator adapters cannot express.
#[allow(clippy::needless_range_loop)]
fn ridge_solve(rows: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<Vec<f64>, String> {
    let dim = rows.first().map(Vec::len).ok_or("no training rows")?;
    let mut ata = vec![vec![0.0; dim]; dim];
    let mut aty = vec![0.0; dim];
    for (x, &y) in rows.iter().zip(ys) {
        for i in 0..dim {
            aty[i] += x[i] * y;
            for j in i..dim {
                ata[i][j] += x[i] * x[j];
            }
        }
    }
    for i in 0..dim {
        for j in 0..i {
            ata[i][j] = ata[j][i];
        }
        ata[i][i] += lambda;
    }
    // Gaussian elimination with partial pivoting on [ata | aty].
    for col in 0..dim {
        let pivot = (col..dim)
            .max_by(|&a, &b| {
                ata[a][col]
                    .abs()
                    .partial_cmp(&ata[b][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap();
        if ata[pivot][col].abs() < 1e-12 {
            return Err(format!("singular normal matrix at column {col}"));
        }
        ata.swap(col, pivot);
        aty.swap(col, pivot);
        for row in col + 1..dim {
            let factor = ata[row][col] / ata[col][col];
            if factor == 0.0 {
                continue;
            }
            for j in col..dim {
                ata[row][j] -= factor * ata[col][j];
            }
            aty[row] -= factor * aty[col];
        }
    }
    let mut w = vec![0.0; dim];
    for row in (0..dim).rev() {
        let mut sum = aty[row];
        for j in row + 1..dim {
            sum -= ata[row][j] * w[j];
        }
        w[row] = sum / ata[row][row];
    }
    Ok(w)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl CostModel {
    /// Fits a model from `rows` with a deterministic 80/20 train/holdout
    /// split and a per-benchmark accuracy report.
    ///
    /// # Errors
    ///
    /// Returns an error when there are no usable rows (zero-cycle
    /// observations are skipped) or the normal equations are singular
    /// even after ridge regularization.
    pub fn fit(rows: &[TrainingRow]) -> Result<Self, String> {
        let usable: Vec<&TrainingRow> = rows
            .iter()
            .filter(|r| r.cycles > 0 && r.features.len() == FEATURE_NAMES.len())
            .collect();
        if usable.is_empty() {
            return Err("no usable training rows (need cycles > 0 and a \
                 current-version feature vector)"
                .to_string());
        }
        let (train, holdout): (Vec<&&TrainingRow>, Vec<&&TrainingRow>) =
            usable.iter().partition(|r| !r.is_holdout());
        // A degenerate split (everything held out) falls back to fitting
        // on all rows; confidence gating handles the rest.
        let fit_rows: Vec<&&TrainingRow> = if train.is_empty() {
            usable.iter().collect()
        } else {
            train
        };
        let design: Vec<Vec<f64>> = fit_rows.iter().map(|r| row_regressors(r)).collect();
        let targets: Vec<f64> = fit_rows.iter().map(|r| (r.cycles as f64).ln()).collect();
        let weights = ridge_solve(&design, &targets, RIDGE_LAMBDA)?;

        // Per-RU-class segments, when a class has enough rows to carry
        // its own fit.
        let dim = weights.len();
        let mut segments = Vec::new();
        for class in 0u32..3 {
            let idx: Vec<usize> = fit_rows
                .iter()
                .enumerate()
                .filter(|(_, r)| ru_class_of(&r.features) == class)
                .map(|(i, _)| i)
                .collect();
            if idx.len() >= SEGMENT_ROWS_PER_DIM * dim {
                let seg_design: Vec<Vec<f64>> = idx.iter().map(|&i| design[i].clone()).collect();
                let seg_targets: Vec<f64> = idx.iter().map(|&i| targets[i]).collect();
                if let Ok(w) = ridge_solve(&seg_design, &seg_targets, RIDGE_LAMBDA) {
                    segments.push((class, w));
                }
            }
        }

        let mut model = CostModel {
            feature_version: FEATURE_VECTOR_VERSION,
            weights,
            segments,
            accuracy: AccuracyReport {
                train_rows: fit_rows.len(),
                holdout_rows: holdout.len(),
                holdout_mare: 0.0,
                per_benchmark: Vec::new(),
            },
        };

        fn mare(model: &CostModel, set: &[&&TrainingRow]) -> f64 {
            if set.is_empty() {
                return 0.0;
            }
            set.iter()
                .map(|r| {
                    let predicted = model.predict_row(r);
                    (predicted - r.cycles as f64).abs() / r.cycles as f64
                })
                .sum::<f64>()
                / set.len() as f64
        }
        model.accuracy.holdout_mare = mare(&model, &holdout);
        let mut benchmarks: Vec<&str> = usable.iter().map(|r| r.benchmark.as_str()).collect();
        benchmarks.sort_unstable();
        benchmarks.dedup();
        for b in benchmarks {
            let set: Vec<&&TrainingRow> = usable.iter().filter(|r| r.benchmark == b).collect();
            let err = mare(&model, &set);
            model
                .accuracy
                .per_benchmark
                .push((b.to_string(), set.len(), err));
        }
        Ok(model)
    }

    fn weights_for(&self, ru_class: u32) -> &[f64] {
        self.segments
            .iter()
            .find(|(c, _)| *c == ru_class)
            .map(|(_, w)| w.as_slice())
            .unwrap_or(&self.weights)
    }

    /// Predicted cycles for one plan on a matrix with `features`.
    pub fn predict(
        &self,
        features: &MatrixFeatures,
        plan: &ExecutionPlan,
        k: usize,
        pes: usize,
    ) -> f64 {
        let f = features.as_vec();
        let x = regressors(
            &f,
            plan.tiling.row_panel_size,
            plan.tiling.col_panel_size,
            plan.r_policy,
            plan.barriers.is_enabled(),
            k,
            pes,
        );
        dot(&x, self.weights_for(ru_class_of(&f))).exp()
    }

    fn predict_row(&self, r: &TrainingRow) -> f64 {
        dot(
            &row_regressors(r),
            self.weights_for(ru_class_of(&r.features)),
        )
        .exp()
    }

    /// Serializes the model payload as JSON (without the file framing).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("format_version", u64::from(MODEL_FORMAT_VERSION).into()),
            ("feature_version", u64::from(self.feature_version).into()),
            (
                "regressors",
                JsonValue::Array(regressor_names().into_iter().map(JsonValue::from).collect()),
            ),
            (
                "weights",
                JsonValue::Array(self.weights.iter().map(|&w| w.into()).collect()),
            ),
            (
                "segments",
                JsonValue::Array(
                    self.segments
                        .iter()
                        .map(|(class, w)| {
                            JsonValue::object([
                                ("ru_class", u64::from(*class).into()),
                                (
                                    "weights",
                                    JsonValue::Array(w.iter().map(|&x| x.into()).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("accuracy", self.accuracy.to_json()),
        ])
    }

    /// Rebuilds a model from its JSON payload.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let format = doc
            .get("format_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing format_version")?;
        if format != u64::from(MODEL_FORMAT_VERSION) {
            return Err(format!(
                "model format v{format} is not the supported v{MODEL_FORMAT_VERSION}"
            ));
        }
        let feature_version = doc
            .get("feature_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing feature_version")? as u32;
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("missing {key:?} array"))?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| format!("non-numeric {key:?}")))
                .collect()
        };
        let weights = floats("weights")?;
        if weights.len() != regressor_dim() {
            return Err(format!(
                "weight vector has {} terms, expected {}",
                weights.len(),
                regressor_dim()
            ));
        }
        let mut segments = Vec::new();
        for seg in doc
            .get("segments")
            .and_then(JsonValue::as_array)
            .ok_or("missing segments array")?
        {
            let class = seg
                .get("ru_class")
                .and_then(JsonValue::as_u64)
                .ok_or("segment missing ru_class")? as u32;
            let w: Vec<f64> = seg
                .get("weights")
                .and_then(JsonValue::as_array)
                .ok_or("segment missing weights")?
                .iter()
                .map(|v| v.as_f64().ok_or("non-numeric segment weight"))
                .collect::<Result<_, _>>()?;
            if w.len() != weights.len() {
                return Err("segment weight length mismatch".to_string());
            }
            segments.push((class, w));
        }
        let accuracy = AccuracyReport::from_json(doc.get("accuracy").ok_or("missing accuracy")?)?;
        Ok(CostModel {
            feature_version,
            weights,
            segments,
            accuracy,
        })
    }

    /// Writes the model to `path` durably (temp file, fsync, rename — the
    /// cache's writer) in the checksummed `SPADEML` framing.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error, tagged with the path.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let bytes = encode_framed(
            MODEL_MAGIC,
            MODEL_FORMAT_VERSION,
            self.to_json().render().as_bytes(),
        );
        write_durable(path, &bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Loads a model from `path`, verifying magic, version, framing and
    /// checksum.
    ///
    /// # Errors
    ///
    /// Returns a description of the corruption or version mismatch; the
    /// caller decides whether that is fatal (the daemon treats it as
    /// "no model" and falls back to the heuristic tier).
    pub fn load(path: &Path) -> Result<Self, String> {
        let err = |m: &str| format!("{}: {m}", path.display());
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let payload =
            decode_framed(MODEL_MAGIC, MODEL_FORMAT_VERSION, &bytes).map_err(|e| err(&e))?;
        let text = std::str::from_utf8(payload).map_err(|_| err("payload is not UTF-8"))?;
        let doc = JsonValue::parse(text).map_err(|e| err(&e))?;
        Self::from_json(&doc).map_err(|e| err(&e))
    }
}

fn row_regressors(r: &TrainingRow) -> Vec<f64> {
    regressors(
        &r.features,
        r.row_panel,
        r.col_panel,
        r.r_policy,
        r.barriers,
        r.k,
        r.pes,
    )
}

impl PlanRanker for CostModel {
    fn confident(&self) -> bool {
        self.feature_version == FEATURE_VECTOR_VERSION
            && self.accuracy.holdout_rows >= MIN_HOLDOUT_ROWS
            && self.accuracy.holdout_mare.is_finite()
            && self.accuracy.holdout_mare <= MAX_HOLDOUT_MARE
    }

    fn rank(
        &self,
        features: &MatrixFeatures,
        k: usize,
        pes: usize,
        plans: &[ExecutionPlan],
    ) -> Option<Vec<(usize, f64)>> {
        if self.feature_version != FEATURE_VECTOR_VERSION {
            return None;
        }
        let mut scored: Vec<(usize, f64)> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| (i, self.predict(features, p, k, pes)))
            .collect();
        if scored.iter().any(|(_, s)| !s.is_finite()) {
            return None;
        }
        scored.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        Some(scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_core::advisor::advise_candidates;
    use spade_core::SystemConfig;
    use spade_matrix::generators::{Benchmark, Scale};

    /// Synthetic rows from a known log-linear law, over enough distinct
    /// matrices and plans that the fit is well determined.
    fn synthetic_rows() -> Vec<TrainingRow> {
        let mut rows = Vec::new();
        for b in Benchmark::ALL {
            let a = b.generate(Scale::Tiny);
            let f = MatrixFeatures::compute(&a).as_vec();
            for rp in [64usize, 256, 1024] {
                for (cp, barriers) in [(a.num_cols().max(1), false), (512, true), (512, false)] {
                    for r_policy in [RMatrixPolicy::Cache, RMatrixPolicy::BypassVictim] {
                        let x = super::regressors(&f, rp, cp, r_policy, barriers, 32, 8);
                        // ln(cycles) = 10 + 0.3·log2(rp) − 0.2·barriers
                        //            + 0.05·nnz-term
                        let ln = 10.0 + 0.3 * x[15] + -0.2 * x[20] + 0.05 * x[1];
                        rows.push(TrainingRow {
                            benchmark: b.short_name().to_string(),
                            features: f.clone(),
                            row_panel: rp,
                            col_panel: cp,
                            r_policy,
                            barriers,
                            k: 32,
                            pes: 8,
                            cycles: ln.exp() as u64,
                        });
                    }
                }
            }
        }
        rows
    }

    #[test]
    fn fit_recovers_a_log_linear_law() {
        let rows = synthetic_rows();
        let model = CostModel::fit(&rows).unwrap();
        assert!(model.accuracy.holdout_rows > 0);
        assert!(
            model.accuracy.holdout_mare < 0.05,
            "holdout mare {}",
            model.accuracy.holdout_mare
        );
        assert!(model.confident());
        assert_eq!(model.accuracy.per_benchmark.len(), Benchmark::ALL.len());
    }

    #[test]
    fn fit_rejects_empty_and_degenerate_input() {
        assert!(CostModel::fit(&[]).is_err());
        let mut row = synthetic_rows().remove(0);
        row.cycles = 0;
        assert!(CostModel::fit(std::slice::from_ref(&row)).is_err());
    }

    #[test]
    fn save_load_roundtrips_bit_exact() {
        let model = CostModel::fit(&synthetic_rows()).unwrap();
        let path = std::env::temp_dir().join("spade_model_roundtrip.spademl");
        model.save(&path).unwrap();
        let loaded = CostModel::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(model, loaded);
    }

    #[test]
    fn load_rejects_corruption() {
        let model = CostModel::fit(&synthetic_rows()).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join("spade_model_corrupt.spademl");
        model.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit: the checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let e = CostModel::load(&path).unwrap_err();
        assert!(
            e.contains("checksum") || e.contains("byte") || e.contains("missing"),
            "{e}"
        );
        // Truncation is caught by the framing.
        bytes[mid] ^= 0x40;
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        let e = CostModel::load(&path).unwrap_err();
        assert!(e.contains("length"), "{e}");
        // Not a model file at all.
        std::fs::write(&path, b"hello world, definitely not a model").unwrap();
        let e = CostModel::load(&path).unwrap_err();
        assert!(e.contains("magic") || e.contains("truncated"), "{e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ranking_is_deterministic_and_complete() {
        let model = CostModel::fit(&synthetic_rows()).unwrap();
        let a = Benchmark::Kro.generate(Scale::Tiny);
        let features = MatrixFeatures::compute(&a);
        let candidates = advise_candidates(&a, 32, &SystemConfig::scaled(8)).unwrap();
        let ranked = model.rank(&features, 32, 8, &candidates).unwrap();
        assert_eq!(ranked.len(), candidates.len());
        let mut seen: Vec<usize> = ranked.iter().map(|(i, _)| *i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..candidates.len()).collect::<Vec<_>>());
        for pair in ranked.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(model.rank(&features, 32, 8, &candidates), Some(ranked));
    }

    #[test]
    fn version_mismatch_disables_the_ranker() {
        let mut model = CostModel::fit(&synthetic_rows()).unwrap();
        model.feature_version += 1;
        assert!(!model.confident());
        let a = Benchmark::Kro.generate(Scale::Tiny);
        let features = MatrixFeatures::compute(&a);
        let candidates = advise_candidates(&a, 32, &SystemConfig::scaled(8)).unwrap();
        assert_eq!(model.rank(&features, 32, 8, &candidates), None);
    }

    #[test]
    fn segments_activate_with_enough_rows() {
        // Inflate the row count so at least one RU class crosses the
        // segment threshold.
        let base = synthetic_rows();
        let mut rows = Vec::new();
        for _ in 0..(SEGMENT_ROWS_PER_DIM * regressor_dim()) {
            rows.extend(base.iter().cloned());
        }
        let model = CostModel::fit(&rows).unwrap();
        assert!(
            !model.segments.is_empty(),
            "no segment crossed the threshold with {} rows",
            rows.len()
        );
        // Segmented models still roundtrip.
        let path = std::env::temp_dir().join("spade_model_segments.spademl");
        model.save(&path).unwrap();
        assert_eq!(CostModel::load(&path).unwrap(), model);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn regressor_names_match_dim() {
        assert_eq!(regressor_names().len(), regressor_dim());
        let f = MatrixFeatures::compute(&Benchmark::Myc.generate(Scale::Tiny)).as_vec();
        assert_eq!(
            super::regressors(&f, 64, 512, RMatrixPolicy::Cache, false, 32, 8).len(),
            regressor_dim()
        );
    }
}
