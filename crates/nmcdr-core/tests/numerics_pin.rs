//! Pins NMCDR's training numerics bit for bit across commits.
//!
//! Kernel rewrites (matmul tiling, the backward sweep) must not move a
//! single output bit: checkpoints, snapshots, golden logs and the
//! EXPERIMENTS.md tables all depend on it. This test trains NMCDR at
//! dim 16 — wide enough to reach the 16-column kernel tiles, with ReLU
//! zeros in the MLP activations and the 1-column prediction head — and
//! compares every epoch's mean-loss bits, both domains' final HR@10
//! bits and an FNV-1a64 hash of every trained parameter against
//! constants captured before any kernel changed.
//!
//! If a deliberate numerics change lands, recapture all four constants
//! in the same commit and rerun the EXPERIMENTS.md tables it affects.

use nm_data::generate::generate;
use nm_data::Scenario;
use nm_models::{train_joint, CdrTask, TaskConfig, TrainConfig};
use nm_nn::checkpoint::fnv1a64;
use nm_nn::Module;
use nmcdr_core::{NmcdrConfig, NmcdrModel};

const EPOCH_LOSS_BITS: [u32; 2] = [0x40d7_bb19, 0x40c6_41c1];
const HR_A_BITS: u64 = 0x404d_8000_0000_0000;
const HR_B_BITS: u64 = 0x4049_2c8c_2d24_3b66;
const PARAM_HASH: u64 = 0x0a0c_acfe_cad6_72bb;

#[test]
fn nmcdr_dim16_training_bits_are_pinned() {
    let data = generate(&Scenario::ClothSport.config(0.004));
    let task = CdrTask::build(
        data,
        TaskConfig {
            eval_negatives: 49,
            ..TaskConfig::default()
        },
    );
    let mut model = NmcdrModel::new(
        task,
        NmcdrConfig {
            dim: 16,
            match_neighbors: 32,
            seed: 2023,
            ..NmcdrConfig::default()
        },
    );
    let cfg = TrainConfig {
        epochs: 2,
        lr: 1e-2,
        seed: 2023,
        ..TrainConfig::default()
    };
    let stats = train_joint(&mut model, &cfg).expect("NMCDR training");

    let loss_bits: Vec<u32> = stats.logs.iter().map(|l| l.mean_loss.to_bits()).collect();
    let mut bytes = Vec::new();
    for p in model.params() {
        for x in p.value().data() {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
    }
    let got = (
        loss_bits,
        stats.final_a.hr.to_bits(),
        stats.final_b.hr.to_bits(),
        fnv1a64(&bytes),
    );
    let want = (EPOCH_LOSS_BITS.to_vec(), HR_A_BITS, HR_B_BITS, PARAM_HASH);
    assert_eq!(
        got, want,
        "NMCDR training numerics moved: (epoch loss bits, HR@10 A bits, HR@10 B bits, \
         parameter hash) = {got:#x?}"
    );
}
