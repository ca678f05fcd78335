//! End-to-end parity: train briefly, save an NMCK checkpoint, reload it
//! into a fresh model, export an NMSS snapshot, and assert the serving
//! engine scores **bit-for-bit identically** to the model's own offline
//! `eval_scores` path — for NMCDR and two baselines with different head
//! kinds (BPR: dot, HeroGraph: MLP).

use nm_eval::{evaluate_ranking, Scorer};
use nm_models::{BprModel, CdrModel, CdrTask, Domain, HeroGraphModel, TaskConfig};
use nm_nn::Module;
use nm_serve::{Engine, EngineConfig, FrozenModel, Snapshot};
use nm_tensor::rng::{Rng, SeedableRng, StdRng};
use nmcdr_core::{NmcdrConfig, NmcdrModel};
use std::rc::Rc;

fn tiny_task() -> Rc<CdrTask> {
    let mut cfg = nm_data::Scenario::ClothSport.config(0.002);
    cfg.n_users_a = 60;
    cfg.n_users_b = 55;
    cfg.n_items_a = 30;
    cfg.n_items_b = 28;
    cfg.n_overlap = 20;
    let data = nm_data::generate::generate(&cfg);
    let t = TaskConfig {
        eval_negatives: 20,
        ..Default::default()
    };
    CdrTask::build(data, t)
}

fn nmcdr_cfg() -> NmcdrConfig {
    NmcdrConfig {
        dim: 8,
        match_neighbors: 8,
        ..Default::default()
    }
}

/// Jitter the params so the round-trip is not a trivial all-init check,
/// without paying for real training epochs in a unit test.
fn perturb(params: &[&nm_nn::Param], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for p in params {
        p.update(|v, _| {
            for x in v.data_mut() {
                *x += 0.1 * (rng.gen::<f32>() - 0.5);
            }
        });
    }
}

/// The common checkpoint → fresh model → snapshot → engine pipeline.
/// `make` builds an untrained model; returns (model's own eval scores,
/// engine scores, engine) for caller-side comparison.
fn roundtrip_parity<M: CdrModel + FrozenModel + Module>(tag: &str, mut trained: M, mut fresh: M) {
    let dir = std::env::temp_dir().join(format!("nm_parity_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("model.nmck");
    let nmss = dir.join("model.nmss");

    perturb(&trained.params(), 0xFEED);
    nm_nn::checkpoint::save_to_file(&trained.params(), &ckpt).unwrap();
    nm_nn::checkpoint::load_from_file(&fresh.params(), &ckpt).unwrap();

    // snapshot through disk, like the CLI does
    fresh.export_frozen().save_to_file(&nmss).unwrap();
    let snap = Snapshot::load_from_file(&nmss).unwrap();
    let engine = Engine::new(
        snap,
        EngineConfig {
            n_workers: 3,
            shard_items: 7, // deliberately uneven shards
            ..Default::default()
        },
    )
    .expect("valid exported snapshot");

    trained.prepare_eval();
    for (z, domain) in [(0usize, Domain::A), (1usize, Domain::B)] {
        let n_items = engine.snapshot().n_items(z) as u32;
        let users: Vec<u32> = (0..6u32).flat_map(|u| std::iter::repeat_n(u, 4)).collect();
        let items: Vec<u32> = (0..users.len() as u32).map(|i| i % n_items).collect();
        let offline = trained.eval_scores(domain, &users, &items);
        let online = engine.score(z, &users, &items);
        assert_eq!(
            offline, online,
            "{tag}: domain {z} pairwise scores must be bit-identical"
        );

        // the ranking metrics agree too, scored through the Scorer trait
        let cands = match domain {
            Domain::A => &trained.task().eval_a,
            Domain::B => &trained.task().eval_b,
        };
        let offline_sum = evaluate_ranking(
            &|u: &[u32], i: &[u32]| trained.eval_scores(domain, u, i),
            cands,
            10,
        );
        let scorer = engine.scorer(z);
        let online_sum = evaluate_ranking(&scorer, cands, 10);
        assert_eq!(offline_sum, online_sum, "{tag}: domain {z} ranking summary");

        // and the engine's threaded top-K matches a brute-force ranking
        // of the engine's own scores
        let all_items: Vec<u32> = (0..n_items).collect();
        for user in [0u32, 3] {
            let scores = engine.score(z, &vec![user; all_items.len()], &all_items);
            let pairs: Vec<(u32, f32)> = all_items.iter().copied().zip(scores).collect();
            let want = nm_eval::top_k(&pairs, 10);
            let (got, _) = engine.topk_traced(z, user, 10);
            assert_eq!(*got, want, "{tag}: topk for user {user} domain {z}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nmcdr_checkpoint_snapshot_engine_parity() {
    let task = tiny_task();
    roundtrip_parity(
        "nmcdr",
        NmcdrModel::new(task.clone(), nmcdr_cfg()),
        NmcdrModel::new(task, nmcdr_cfg()),
    );
}

#[test]
fn bpr_checkpoint_snapshot_engine_parity() {
    let task = tiny_task();
    roundtrip_parity(
        "bpr",
        BprModel::new(task.clone(), 8, 3),
        BprModel::new(task, 8, 3),
    );
}

#[test]
fn herograph_checkpoint_snapshot_engine_parity() {
    let task = tiny_task();
    roundtrip_parity(
        "herograph",
        HeroGraphModel::new(task.clone(), 8, 4),
        HeroGraphModel::new(task, 8, 4),
    );
}

/// The Scorer blanket impl and the EngineScorer must satisfy the same
/// trait object interface.
#[test]
fn engine_scorer_is_a_dyn_scorer() {
    let task = tiny_task();
    let mut m = BprModel::new(task, 8, 5);
    let engine =
        Engine::new(m.export_frozen(), EngineConfig::default()).expect("valid exported snapshot");
    let scorer = engine.scorer(0);
    let as_dyn: &dyn Scorer = &scorer;
    let s = as_dyn.score(&[0, 1], &[0, 1]);
    assert_eq!(s.len(), 2);
    assert!(s.iter().all(|x| x.is_finite()));
}
