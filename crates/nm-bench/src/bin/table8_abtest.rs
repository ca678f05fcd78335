//! Tables VII & VIII — the simulated online A/B test.
//!
//! The paper ran a 15-day production A/B test on MYbank's Loan, Fund
//! and Account domains. We reproduce its *shape* (DESIGN.md,
//! "Substitutions"): three simulated serving domains whose hidden
//! conversion model comes from the generator's ground truth; arms are a
//! popularity Control plus offline-trained MMoE, PLE, DML and NMCDR —
//! the paper's Table VIII line-up — each serving the same paired
//! request stream.

use nm_bench::{ExpProfile, ModelKind};
use nm_data::generate::{generate_with_truth, GroundTruth};
use nm_data::Scenario;
use nm_eval::abtest::{run_ab_test, AbDomain, ArmResult};
use nm_models::{train_joint, CdrModel, CdrTask, Domain};
use std::rc::Rc;

/// Trains one arm's model on the task and freezes its eval state.
fn trained(kind: ModelKind, task: Rc<CdrTask>, profile: &ExpProfile) -> Box<dyn CdrModel> {
    let mut model = kind.build(task, profile);
    let stats = train_joint(&mut *model, &profile.train_config()).expect("training");
    println!(
        "  trained {:<9} (HR@10 A/B: {:>5.2}/{:>5.2})",
        model.name(),
        stats.final_a.hr,
        stats.final_b.hr
    );
    model.prepare_eval();
    model
}

/// Simulates one serving domain with a Control arm plus the trained
/// model arms; returns one [`ArmResult`] per arm (Control first).
fn simulate(
    display: &str,
    domain: Domain,
    truth: &GroundTruth,
    task: &Rc<CdrTask>,
    models: &[Box<dyn CdrModel>],
    profile: &ExpProfile,
    requests: usize,
) -> Vec<ArmResult> {
    let (n_users, n_items, graph) = match domain {
        Domain::A => (task.split_a.n_users, task.split_a.n_items, &task.graph_a),
        Domain::B => (task.split_b.n_users, task.split_b.n_items, &task.graph_b),
    };
    let env = AbDomain {
        name: display.to_string(),
        n_users,
        n_items,
        affinity: Box::new(move |u, i| match domain {
            Domain::A => truth.affinity_a(u, i),
            Domain::B => truth.affinity_b(u, i),
        }),
        // calibrated toward the paper's ~10% Loan / ~6% Fund / ~2% Account
        bias: match display {
            "Loan" => -2.0,
            "Fund" => -2.6,
            _ => -3.6,
        },
        slope: 6.0,
    };
    let pop: Vec<f32> = graph.item_degrees().iter().map(|&d| d as f32).collect();
    let control = move |_users: &[u32], items: &[u32]| -> Vec<f32> {
        items.iter().map(|&i| pop[i as usize]).collect()
    };
    let scorers: Vec<_> = models
        .iter()
        .map(|m| move |users: &[u32], items: &[u32]| m.eval_scores(domain, users, items))
        .collect();
    let mut arms: Vec<(&str, &dyn nm_eval::Scorer)> = vec![("Control", &control)];
    for (m, s) in models.iter().zip(&scorers) {
        arms.push((m.name(), s));
    }
    run_ab_test(&env, &arms, requests, 20, profile.seed)
}

fn main() {
    let mut profile = ExpProfile::from_env();
    // keep the A/B offline training cheap; the experiment is about serving
    profile.scale = profile.scale.min(0.004);
    let requests: usize = std::env::var("NMCDR_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000);
    let arm_kinds = [
        ModelKind::Mmoe,
        ModelKind::Ple,
        ModelKind::Dml,
        ModelKind::Nmcdr,
    ];

    // Loan-Fund pair (Table I scenario) and a Loan-Account pair
    // (synthesized in the same financial regime, more items / lower CVR).
    let mut lf_cfg = Scenario::LoanFund.config(profile.scale);
    lf_cfg.seed ^= profile.seed;
    let (lf_data, lf_truth) = generate_with_truth(&lf_cfg);
    let mut la_cfg = Scenario::LoanFund.config(profile.scale);
    la_cfg.seed ^= profile.seed.rotate_left(13);
    la_cfg.n_items_b = (la_cfg.n_items_b * 3) / 2;
    la_cfg.mean_degree_b = (la_cfg.mean_degree_b * 0.8).max(5.5);
    let (la_data, la_truth) = generate_with_truth(&la_cfg);

    println!("Table VII: average statistics of the simulated online traffic");
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "Domain", "Users", "Items", "Ratings", "#Overlap", "Density"
    );
    for (name, d, ov) in [
        ("Loan", &lf_data.domain_a, lf_data.true_overlap.len()),
        ("Fund", &lf_data.domain_b, lf_data.true_overlap.len()),
        ("Account", &la_data.domain_b, la_data.true_overlap.len()),
    ] {
        let s = d.stats();
        println!(
            "{:<10} {:>8} {:>8} {:>10} {:>10} {:>8.3}%",
            name,
            s.users,
            s.items,
            s.ratings,
            ov,
            s.density * 100.0
        );
    }

    println!("\nTraining arms on Loan-Fund:");
    let lf_task = profile.task(lf_data);
    let lf_models: Vec<Box<dyn CdrModel>> = arm_kinds
        .iter()
        .map(|&k| trained(k, lf_task.clone(), &profile))
        .collect();
    println!("Training arms on Loan-Account:");
    let la_task = profile.task(la_data);
    let la_models: Vec<Box<dyn CdrModel>> = arm_kinds
        .iter()
        .map(|&k| trained(k, la_task.clone(), &profile))
        .collect();

    let loan = simulate(
        "Loan",
        Domain::A,
        &lf_truth,
        &lf_task,
        &lf_models,
        &profile,
        requests,
    );
    let fund = simulate(
        "Fund",
        Domain::B,
        &lf_truth,
        &lf_task,
        &lf_models,
        &profile,
        requests,
    );
    let account = simulate(
        "Account",
        Domain::B,
        &la_truth,
        &la_task,
        &la_models,
        &profile,
        requests,
    );

    println!("\nTable VIII: simulated A/B CVR ({requests} paired requests per arm)");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "Arm", "Loan", "Fund", "Account"
    );
    for i in 0..loan.len() {
        println!(
            "{:<14} {:>9.2}% {:>9.2}% {:>9.2}%",
            loan[i].name,
            loan[i].cvr() * 100.0,
            fund[i].cvr() * 100.0,
            account[i].cvr() * 100.0
        );
    }
    print!("{:<14}", "Improvement");
    for col in [&loan, &fund, &account] {
        let nm = col.last().expect("arms").cvr();
        let best = col[..col.len() - 1]
            .iter()
            .map(|r| r.cvr())
            .fold(0.0f64, f64::max);
        if best > 0.0 {
            print!(" {:>9.2}%", (nm / best - 1.0) * 100.0);
        } else {
            print!(" {:>10}", "n/a");
        }
    }
    println!();
}
