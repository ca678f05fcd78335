//! # nm-bench
//!
//! The experiment harness: one binary per paper table/figure (see
//! DESIGN.md's per-experiment index). Performance is measured by
//! `nm-perf`, not here.
//!
//! All experiment binaries share [`ExpProfile`] (scaled-down defaults,
//! overridable through `NMCDR_*` environment variables), the
//! [`ModelKind`] registry covering the paper's full comparison suite,
//! and the [`run_model`] driver. Results print as aligned text tables
//! mirroring the paper's layout and are also emitted as JSON rows under
//! `results/` for EXPERIMENTS.md bookkeeping.

use nm_data::{generate::generate, CdrDataset, Scenario};
use nm_models::{
    train_joint, BprModel, CdrModel, CdrTask, CoNetModel, DmlModel, GaDtcdrModel, HeroGraphModel,
    LrModel, MiNetModel, MmoeModel, NeuMfModel, PleModel, PtupcdrModel, TaskConfig, TrainConfig,
    TrainStats,
};
use nmcdr_core::{Ablation, NmcdrConfig, NmcdrModel};
use std::rc::Rc;

/// Scaled experiment profile. Values follow the paper's protocol
/// relatively (Adam, 1 train negative, 199 eval negatives, K_head = 7)
/// at a CPU-budget scale; see DESIGN.md "Substitutions".
#[derive(Debug, Clone)]
pub struct ExpProfile {
    /// Fraction of the paper's user counts (default 0.004).
    pub scale: f64,
    pub dim: usize,
    pub epochs: usize,
    pub lr: f32,
    pub batch_size: usize,
    pub match_neighbors: usize,
    pub eval_negatives: usize,
    pub k_head: usize,
    pub seed: u64,
}

impl Default for ExpProfile {
    fn default() -> Self {
        Self {
            scale: 0.008,
            dim: 16,
            epochs: 6,
            lr: 1e-2,
            batch_size: 512,
            match_neighbors: 64,
            eval_negatives: 99,
            k_head: 7,
            seed: 2023,
        }
    }
}

impl ExpProfile {
    /// Reads `NMCDR_SCALE`, `NMCDR_DIM`, `NMCDR_EPOCHS`, `NMCDR_LR`,
    /// `NMCDR_NEIGHBORS`, `NMCDR_EVAL_NEGS`, `NMCDR_SEED` overrides.
    pub fn from_env() -> Self {
        let mut p = Self::default();
        let get = |k: &str| std::env::var(k).ok();
        if let Some(v) = get("NMCDR_SCALE").and_then(|v| v.parse().ok()) {
            p.scale = v;
        }
        if let Some(v) = get("NMCDR_DIM").and_then(|v| v.parse().ok()) {
            p.dim = v;
        }
        if let Some(v) = get("NMCDR_EPOCHS").and_then(|v| v.parse().ok()) {
            p.epochs = v;
        }
        if let Some(v) = get("NMCDR_LR").and_then(|v| v.parse().ok()) {
            p.lr = v;
        }
        if let Some(v) = get("NMCDR_NEIGHBORS").and_then(|v| v.parse().ok()) {
            p.match_neighbors = v;
        }
        if let Some(v) = get("NMCDR_EVAL_NEGS").and_then(|v| v.parse().ok()) {
            p.eval_negatives = v;
        }
        if let Some(v) = get("NMCDR_SEED").and_then(|v| v.parse().ok()) {
            p.seed = v;
        }
        p
    }

    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            neg_per_pos: 1,
            grad_clip: 5.0,
            seed: self.seed,
            eval_every: 0,
            top_k: 10,
            early_stop_patience: 0,
            profile: false,
        }
    }

    pub fn task_config(&self) -> TaskConfig {
        TaskConfig {
            eval_negatives: self.eval_negatives,
            k_head: self.k_head,
            min_train: 2,
            validation: false,
            seed: self.seed,
        }
    }

    /// Generates the base dataset for a scenario at this profile's
    /// scale (full true overlap; restrict with
    /// [`CdrDataset::with_overlap_ratio`] afterwards).
    pub fn dataset(&self, scenario: Scenario) -> CdrDataset {
        let mut cfg = scenario.config(self.scale);
        cfg.seed ^= self.seed;
        generate(&cfg)
    }

    /// Builds a task from a (possibly K_u/D_s-restricted) dataset.
    pub fn task(&self, dataset: CdrDataset) -> Rc<CdrTask> {
        CdrTask::build(dataset, self.task_config())
    }
}

/// Every model of the paper's comparison (§III-A-3) plus NMCDR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    Lr,
    Bpr,
    NeuMf,
    Mmoe,
    Ple,
    CoNet,
    MiNet,
    GaDtcdr,
    Dml,
    HeroGraph,
    Ptupcdr,
    Nmcdr,
}

impl ModelKind {
    pub const ALL: [ModelKind; 12] = [
        ModelKind::Lr,
        ModelKind::Bpr,
        ModelKind::NeuMf,
        ModelKind::Mmoe,
        ModelKind::Ple,
        ModelKind::CoNet,
        ModelKind::MiNet,
        ModelKind::GaDtcdr,
        ModelKind::Dml,
        ModelKind::HeroGraph,
        ModelKind::Ptupcdr,
        ModelKind::Nmcdr,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Lr => "LR",
            ModelKind::Bpr => "BPR",
            ModelKind::NeuMf => "NeuMF",
            ModelKind::Mmoe => "MMoE",
            ModelKind::Ple => "PLE",
            ModelKind::CoNet => "CoNet",
            ModelKind::MiNet => "MiNet",
            ModelKind::GaDtcdr => "GA-DTCDR",
            ModelKind::Dml => "DML",
            ModelKind::HeroGraph => "HeroGraph",
            ModelKind::Ptupcdr => "PTUPCDR",
            ModelKind::Nmcdr => "NMCDR",
        }
    }

    pub fn parse(s: &str) -> Option<ModelKind> {
        Self::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(s))
    }

    /// Instantiates the model on a task.
    pub fn build(self, task: Rc<CdrTask>, profile: &ExpProfile) -> Box<dyn CdrModel> {
        let d = profile.dim;
        let s = profile.seed;
        match self {
            ModelKind::Lr => Box::new(LrModel::new(task, d, s)),
            ModelKind::Bpr => Box::new(BprModel::new(task, d, s)),
            ModelKind::NeuMf => Box::new(NeuMfModel::new(task, d, s)),
            ModelKind::Mmoe => Box::new(MmoeModel::new(task, d, 3, s)),
            ModelKind::Ple => Box::new(PleModel::new(task, d, 2, s)),
            ModelKind::CoNet => Box::new(CoNetModel::new(task, d, s)),
            ModelKind::MiNet => Box::new(MiNetModel::new(task, d, s)),
            ModelKind::GaDtcdr => Box::new(GaDtcdrModel::new(task, d, s)),
            ModelKind::Dml => Box::new(DmlModel::new(task, d, s)),
            ModelKind::HeroGraph => Box::new(HeroGraphModel::new(task, d, s)),
            ModelKind::Ptupcdr => Box::new(PtupcdrModel::new(task, d, s)),
            ModelKind::Nmcdr => Box::new(NmcdrModel::new(
                task,
                nmcdr_config(profile, Ablation::none()),
            )),
        }
    }
}

/// NMCDR config matching an experiment profile.
pub fn nmcdr_config(profile: &ExpProfile, ablation: Ablation) -> NmcdrConfig {
    NmcdrConfig {
        dim: profile.dim,
        k_head: profile.k_head,
        match_neighbors: profile.match_neighbors,
        ablation,
        seed: profile.seed,
        ..Default::default()
    }
}

/// Model subset selected via `NMCDR_MODELS` (comma-separated names), or
/// the full suite.
pub fn selected_models() -> Vec<ModelKind> {
    match std::env::var("NMCDR_MODELS") {
        Ok(list) if !list.trim().is_empty() => list
            .split(',')
            .filter_map(|s| {
                let k = ModelKind::parse(s.trim());
                if k.is_none() {
                    eprintln!("warning: unknown model '{s}' ignored");
                }
                k
            })
            .collect(),
        _ => ModelKind::ALL.to_vec(),
    }
}

/// One experiment result row.
#[derive(Debug, Clone)]
pub struct ResultRow {
    pub experiment: String,
    pub scenario: String,
    pub model: String,
    /// Overlap ratio K_u (1.0 when not swept).
    pub overlap: f64,
    /// Density D_s (1.0 when not swept).
    pub density: f64,
    pub ndcg_a: f64,
    pub hr_a: f64,
    pub ndcg_b: f64,
    pub hr_b: f64,
    pub secs_per_step: f64,
    pub params: usize,
}

impl ResultRow {
    /// Encodes the row as one JSON object (flat schema, hand-rolled so
    /// the workspace stays dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"experiment\":{},\"scenario\":{},\"model\":{},",
                "\"overlap\":{},\"density\":{},",
                "\"ndcg_a\":{},\"hr_a\":{},\"ndcg_b\":{},\"hr_b\":{},",
                "\"secs_per_step\":{},\"params\":{}}}"
            ),
            nm_obs::json::escape(&self.experiment),
            nm_obs::json::escape(&self.scenario),
            nm_obs::json::escape(&self.model),
            json_num(self.overlap),
            json_num(self.density),
            json_num(self.ndcg_a),
            json_num(self.hr_a),
            json_num(self.ndcg_b),
            json_num(self.hr_b),
            json_num(self.secs_per_step),
            self.params,
        )
    }
}

/// JSON-safe float formatting (JSON has no NaN/Inf literals).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Trains `kind` on `task` and returns its row.
pub fn run_model(
    experiment: &str,
    scenario: Scenario,
    kind: ModelKind,
    task: Rc<CdrTask>,
    profile: &ExpProfile,
    overlap: f64,
    density: f64,
) -> (ResultRow, TrainStats) {
    let mut model = kind.build(task, profile);
    let stats = train_joint(&mut *model, &profile.train_config()).expect("training");
    (
        ResultRow {
            experiment: experiment.to_string(),
            scenario: scenario.name().to_string(),
            model: kind.name().to_string(),
            overlap,
            density,
            ndcg_a: stats.final_a.ndcg,
            hr_a: stats.final_a.hr,
            ndcg_b: stats.final_b.ndcg,
            hr_b: stats.final_b.hr,
            secs_per_step: stats.secs_per_step,
            params: stats.param_count,
        },
        stats,
    )
}

/// Appends rows as JSON lines under `results/<experiment>.jsonl`.
pub fn save_rows(experiment: &str, rows: &[ResultRow]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{experiment}.jsonl"));
    let mut out = String::new();
    for r in rows {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("\n[rows saved to {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_env_overrides() {
        std::env::set_var("NMCDR_DIM", "8");
        std::env::set_var("NMCDR_EPOCHS", "2");
        let p = ExpProfile::from_env();
        assert_eq!(p.dim, 8);
        assert_eq!(p.epochs, 2);
        std::env::remove_var("NMCDR_DIM");
        std::env::remove_var("NMCDR_EPOCHS");
    }

    #[test]
    fn model_kind_registry_is_complete() {
        assert_eq!(ModelKind::ALL.len(), 12);
        for k in ModelKind::ALL {
            assert_eq!(ModelKind::parse(k.name()), Some(k));
        }
        assert_eq!(ModelKind::parse("nmcdr"), Some(ModelKind::Nmcdr));
        assert_eq!(ModelKind::parse("nope"), None);
    }

    #[test]
    fn run_model_smoke() {
        let profile = ExpProfile {
            scale: 0.0015,
            dim: 8,
            epochs: 1,
            eval_negatives: 20,
            match_neighbors: 8,
            ..Default::default()
        };
        let data = profile.dataset(Scenario::PhoneElec);
        let task = profile.task(data.with_overlap_ratio(0.5, 1));
        let (row, stats) = run_model(
            "smoke",
            Scenario::PhoneElec,
            ModelKind::Bpr,
            task,
            &profile,
            0.5,
            1.0,
        );
        assert_eq!(row.model, "BPR");
        assert!(stats.param_count > 0);
        assert!(row.hr_a >= 0.0 && row.hr_a <= 100.0);
    }
}
