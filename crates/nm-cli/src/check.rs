//! `nmcdr check` — the static-analysis gate.
//!
//! Four stages, each independent, all findings aggregated:
//!
//! 1. **Shape & graph verification**: every registered model (NMCDR +
//!    the 11 baselines) has a full optimizer step traced on probe
//!    batches at two batch-size pairs — forward (`nm-check` re-derives
//!    all shapes, verifies broadcast legality and topological order,
//!    checks every parameter is reachable from the loss, and diffs the
//!    two traces to prove batch dims propagate symbolically), then
//!    backward and a real Adam update, with the serialized optimizer
//!    state checked moment-by-moment against the parameter shapes.
//! 2. **NMCDR stage invariants**: the gate/residual/attention shape
//!    contracts of Eq. 5–19 via `NmcdrModel::check_stage_invariants`.
//! 3. **Workspace lint** against the checked-in allowlist
//!    (`scripts/lint_allowlist.tsv`); `--fix-allowlist` regenerates it.
//! 4. **Concurrency model checking**, requiring >= 1000 distinct
//!    schedules per core. The five `nm-sync` cores (coalescer,
//!    connection gate, exemplar ring, sampler ring, breaker) are
//!    checked directly: the production generic code instantiated with
//!    `VirtualBackend`, every blocking/atomic op a scheduling point.
//!
//! Flags: `--root <dir>` (workspace root, default `.`), `--json <file>`
//! (machine-readable findings report), `--fix-allowlist`,
//! `--allowlist <file>`, `--skip <shape,lint,sched>`.

use crate::args::Args;
use nm_autograd::TraceNode;
use nm_bench::{ExpProfile, ModelKind};
use nm_check::sched::virt::{explore_virtual, VirtSpec};
use nm_check::sched::{cores, ExploreOpts};
use nm_check::shape::{compare_symbolic, verify_reachability, verify_trace};
use nm_check::{diagnostics_to_json, lint, Diagnostic, Pass};
use nm_data::batch::Batch;
use nm_data::Scenario;
use nm_models::CdrModel;
use nm_nn::checkpoint::{read_tensor, read_u32};
use nm_optim::{Adam, Optimizer};
use nm_sync::{BreakerBug, CoalesceBug, DeltaBug, GateBug, RingBug};
use nmcdr_core::NmcdrModel;
use std::collections::BTreeSet;
use std::rc::Rc;

pub fn check(args: &Args) -> Result<(), String> {
    let root = args.get("root").unwrap_or(".").to_string();
    let allowlist_path = args
        .get("allowlist")
        .unwrap_or("scripts/lint_allowlist.tsv")
        .to_string();
    let skip: BTreeSet<String> = args
        .get("skip")
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
        .unwrap_or_default();
    let fix_allowlist = args.flag("fix-allowlist");
    let json_path = args.get("json");
    args.reject_unread()?;

    let mut diags: Vec<Diagnostic> = Vec::new();

    if !skip.contains("shape") {
        diags.extend(shape_stage()?);
    }
    if !skip.contains("lint") {
        diags.extend(lint_stage(&root, &allowlist_path, fix_allowlist)?);
    }
    if !skip.contains("sched") {
        diags.extend(sched_stage());
    }

    if let Some(json_path) = json_path {
        std::fs::write(json_path, diagnostics_to_json(&diags))
            .map_err(|e| format!("writing {json_path}: {e}"))?;
        println!("[check] findings report written to {json_path}");
    }

    if diags.is_empty() {
        println!("check: all passes green");
        Ok(())
    } else {
        for d in &diags {
            eprintln!("  {}", d.render());
        }
        Err(format!("check failed: {} finding(s)", diags.len()))
    }
}

// ---------------------------------------------------------------------
// stage 1+2: shape/graph/reachability over the full model registry
// ---------------------------------------------------------------------

/// Probe profile: smallest configuration every model accepts. The
/// verification is shape-level, so scale only affects trace-recording
/// time, not coverage.
fn probe_profile() -> ExpProfile {
    ExpProfile {
        scale: 0.002,
        dim: 8,
        epochs: 1,
        batch_size: 64,
        match_neighbors: 8,
        eval_negatives: 10,
        k_head: 6,
        seed: 2023,
        ..Default::default()
    }
}

/// Picks four distinct probe batch sizes that collide with no fixed
/// dimension of the models (parameter extents, user/item counts, config
/// constants). A collision would make the symbolic comparison unable to
/// tell "fixed dim" from "batch dim that failed to vary".
fn pick_batch_sizes(forbidden: &BTreeSet<usize>, max: usize) -> Result<[usize; 4], String> {
    let picks: Vec<usize> = (3..=max)
        .filter(|b| !forbidden.contains(b) && !forbidden.contains(&(b * 2)))
        .take(4)
        .collect();
    picks
        .try_into()
        .map_err(|_| "probe task too small to pick 4 distinct batch sizes".to_string())
}

fn shape_stage() -> Result<Vec<Diagnostic>, String> {
    let profile = probe_profile();
    let data = profile.dataset(Scenario::PhoneElec);
    let task = profile.task(data);

    // Fixed dims the batch sizes must avoid: model parameter extents
    // (covers hidden sizes, vocab sizes), raw user/item counts, and the
    // config constants that show up as group sizes.
    let mut forbidden: BTreeSet<usize> = BTreeSet::new();
    for d in [
        task.split_a.n_users,
        task.split_b.n_users,
        task.split_a.n_items,
        task.split_b.n_items,
        task.n_overlap(),
        profile.dim,
        2 * profile.dim,
        profile.k_head,
        profile.match_neighbors,
    ] {
        forbidden.insert(d);
    }
    for kind in ModelKind::ALL {
        let model = kind.build(Rc::clone(&task), &profile);
        for p in model.params() {
            let (r, c) = p.shape();
            forbidden.insert(r);
            forbidden.insert(c);
        }
    }
    let cap = task
        .split_a
        .n_users
        .min(task.split_b.n_users)
        .min(task.split_a.n_items)
        .min(task.split_b.n_items);
    let [ba1, bb1, ba2, bb2] = pick_batch_sizes(&forbidden, cap)?;
    println!("[check] shape: probe batches ({ba1},{bb1}) vs ({ba2},{bb2}), 12 models");

    let mut diags = Vec::new();
    for kind in ModelKind::ALL {
        let mut model = kind.build(Rc::clone(&task), &profile);
        model.begin_epoch(0);
        let mut opt = Adam::new(1e-4);
        let (trace1, reach) = trace_optimizer_step(&*model, ba1, bb1, &mut opt);
        let prefix = |d: Diagnostic| Diagnostic {
            location: format!("{}:{}", kind.name(), d.location),
            ..d
        };
        diags.extend(verify_trace(&trace1).into_iter().map(prefix));
        let loss_index = trace1.len() - 1;
        diags.extend(
            verify_reachability(&trace1, loss_index, &reach)
                .into_iter()
                .map(prefix),
        );
        let (trace2, _) = trace_optimizer_step(&*model, ba2, bb2, &mut opt);
        diags.extend(
            compare_symbolic(&trace1, &trace2, &[ba1, bb1], &[ba2, bb2])
                .into_iter()
                .map(prefix),
        );
        // Two Adam steps at two different batch sizes have now run; the
        // moments were allocated on the first and must still be
        // congruent with the parameter shapes after the second.
        diags.extend(
            verify_adam_state(&opt, &model.params(), 2)
                .into_iter()
                .map(prefix),
        );
    }

    // NMCDR-specific stage contracts (Eq. 5-19).
    let nmcdr = NmcdrModel::new(
        Rc::clone(&task),
        nm_bench::nmcdr_config(&profile, nmcdr_core::Ablation::none()),
    );
    for msg in nmcdr.check_stage_invariants() {
        diags.push(Diagnostic::new(
            Pass::Shape,
            "shape/stage-invariant",
            "NMCDR",
            msg,
        ));
    }

    // Profiler cost-model sweep: every registry op kind must carry an
    // analytic FLOP/byte rule, or `obs profile` would lie by omission.
    diags.extend(nm_check::shape::verify_op_coverage(
        nm_autograd::OP_KINDS,
        &nm_autograd::has_rule,
    ));

    let n = diags.len();
    println!(
        "[check] shape: {} model traces verified, {n} finding(s)",
        ModelKind::ALL.len() * 2
    );
    Ok(diags)
}

/// Traces one *full optimizer step* at the given per-domain batch
/// sizes: forward (the exported trace feeds the shape verifier),
/// parameter-reachability probe, backward, gradient absorption, and a
/// real Adam update. The trace is exported *before* the probe binds so
/// a never-bound parameter's fresh leaf cannot mask itself; the probe
/// binds before backward, so even loss-unreachable parameters carry a
/// (zero) gradient and the optimizer allocates a moment pair for every
/// parameter.
fn trace_optimizer_step(
    model: &dyn CdrModel,
    batch_a: usize,
    batch_b: usize,
    opt: &mut Adam,
) -> (Vec<TraceNode>, Vec<(String, Option<usize>)>) {
    let mut tape = nm_autograd::Tape::new();
    let ba = probe_batch(batch_a);
    let bb = probe_batch(batch_b);
    let loss = model.loss(&mut tape, &ba, &bb, 0);
    let trace = tape.export_trace();
    let params = model.params();
    let reach = params
        .iter()
        .map(|p| {
            let before = tape.len();
            let var = p.bind(&mut tape);
            let bound = tape.len() == before;
            (p.name().to_string(), bound.then(|| var.index()))
        })
        .collect();
    tape.backward(loss);
    for p in &params {
        p.absorb_grad(&tape);
    }
    opt.step(&params);
    (trace, reach)
}

/// Serializes the optimizer state and checks it field by field against
/// the live parameter set: step counter, moment-pair count, and the
/// shape of every first/second moment tensor. A drifted moment would
/// silently mis-scale updates after a checkpoint restore; this proves
/// the exported state is congruent before it can ever be imported.
fn verify_adam_state(opt: &Adam, params: &[&nm_nn::Param], steps: u32) -> Vec<Diagnostic> {
    let mut buf = Vec::new();
    if let Err(e) = opt.export_state(&mut buf) {
        return vec![Diagnostic::new(
            Pass::Shape,
            "optim/state-export",
            "Adam",
            format!("optimizer state failed to serialize: {e}"),
        )];
    }
    let expected: Vec<(String, usize, usize)> = params
        .iter()
        .map(|p| {
            let (r, c) = p.shape();
            (p.name().to_string(), r, c)
        })
        .collect();
    verify_adam_export(&buf, &expected, steps)
}

/// Pure verifier over the serialized Adam state bytes — separated from
/// [`verify_adam_state`] so the negative test can feed it a
/// deliberately shape-drifted export.
fn verify_adam_export(
    buf: &[u8],
    expected: &[(String, usize, usize)],
    steps: u32,
) -> Vec<Diagnostic> {
    const RULE: &str = "optim/moment-shape";
    let diag = |loc: &str, msg: String| Diagnostic::new(Pass::Shape, RULE, loc.to_string(), msg);
    let r = &mut &buf[..];
    let t = match read_u32(r) {
        Ok(t) => t,
        Err(e) => return vec![diag("Adam", format!("unreadable step counter: {e}"))],
    };
    let mut diags = Vec::new();
    if t != steps {
        diags.push(diag(
            "Adam",
            format!("state records {t} optimizer steps, trace ran {steps}"),
        ));
    }
    let n = match read_u32(r) {
        Ok(n) => n as usize,
        Err(e) => {
            diags.push(diag("Adam", format!("unreadable moment count: {e}")));
            return diags;
        }
    };
    if n != expected.len() {
        diags.push(diag(
            "Adam",
            format!(
                "state holds {n} moment pairs, model has {} parameters",
                expected.len()
            ),
        ));
        return diags;
    }
    for (name, rows, cols) in expected {
        let pair = read_tensor(r).and_then(|m| read_tensor(r).map(|v| (m, v)));
        let (m, v) = match pair {
            Ok(p) => p,
            Err(e) => {
                diags.push(diag(name, format!("unreadable moment tensors: {e}")));
                return diags;
            }
        };
        for (which, t) in [("first", &m), ("second", &v)] {
            let (mr, mc) = t.shape();
            if (mr, mc) != (*rows, *cols) {
                diags.push(diag(
                    name,
                    format!(
                        "{which} moment is {mr}x{mc}, parameter is {rows}x{cols} \
                         (shape-drifted optimizer state)"
                    ),
                ));
            }
        }
    }
    diags
}

/// Distinct in-range users/items, all labeled positive. All-positive
/// matters: pairwise losses (BPR, DML) keep only the positive subset,
/// and the symbolic comparison needs every derived row count to stay
/// proportional to the batch size.
fn probe_batch(n: usize) -> Batch {
    Batch {
        users: (0..n as u32).collect(),
        items: (0..n as u32).collect(),
        labels: vec![1.0; n],
    }
}

// ---------------------------------------------------------------------
// stage 3: workspace lint + allowlist
// ---------------------------------------------------------------------

fn lint_stage(root: &str, allowlist_path: &str, fix: bool) -> Result<Vec<Diagnostic>, String> {
    let root_path = std::path::Path::new(root);
    let hits = lint::lint_workspace(root_path).map_err(|e| format!("lint walk: {e}"))?;

    if fix {
        let text = lint::render_allowlist(&lint::counts(&hits));
        let path = root_path.join(allowlist_path);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "[check] lint: baseline regenerated at {} ({} hits)",
            path.display(),
            hits.len()
        );
        return Ok(Vec::new());
    }

    let path = root_path.join(allowlist_path);
    let (baseline, mut diags) = match std::fs::read_to_string(&path) {
        Ok(text) => lint::parse_allowlist(&text),
        Err(e) => {
            return Err(format!(
                "allowlist {} unreadable ({e}); run `nmcdr check --fix-allowlist` once to \
                 create the baseline",
                path.display()
            ))
        }
    };
    let report = lint::compare(&hits, &baseline);
    for (rule, file, now, allowed) in &report.burned_down {
        println!(
            "[check] lint: {rule} {file} burned down {allowed} -> {now}; tighten with \
             --fix-allowlist"
        );
    }
    println!(
        "[check] lint: {} hit(s) total, {} above baseline",
        hits.len(),
        report.new_violations.len()
    );
    diags.extend(report.new_violations);
    Ok(diags)
}

// ---------------------------------------------------------------------
// stage 4: concurrency model checking
// ---------------------------------------------------------------------

fn sched_stage() -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // The *production* nm-sync generics under VirtualBackend — the code
    // nm-serve/nm-obs actually run, with each seeded-bug knob off.
    // Preemption bounds are tuned so every core clears the
    // 1000-schedule bar without open-ended exploration.
    run_sched(
        &mut diags,
        "serve.coalescer",
        Some(2),
        cores::coalescer(3, 2, CoalesceBug::None),
    );
    run_sched(
        &mut diags,
        "serve.conn-slots",
        Some(3),
        cores::conn_gate(3, 2, GateBug::None),
    );
    run_sched(
        &mut diags,
        "serve.exemplar-ring",
        None,
        cores::exemplar_ring(3, 2, RingBug::None),
    );
    run_sched(
        &mut diags,
        "obs.sampler-ring",
        Some(3),
        cores::sampler_ring(2, 2, 2, DeltaBug::None),
    );
    run_sched(
        &mut diags,
        "serve.breaker",
        Some(2),
        cores::breaker(4, BreakerBug::None),
    );
    diags
}

fn run_sched(
    diags: &mut Vec<Diagnostic>,
    name: &str,
    bound: Option<u32>,
    mk: impl Fn() -> VirtSpec,
) {
    let opts = ExploreOpts {
        preemption_bound: bound,
        ..Default::default()
    };
    let r = explore_virtual(mk, &opts);
    println!(
        "[check] sched: {name}: {} schedules explored (real core, virtualized)",
        r.schedules
    );
    if let Some(d) = r.to_diagnostic(name) {
        diags.push(d);
    }
    if r.schedules < 1000 {
        diags.push(Diagnostic::new(
            Pass::Sched,
            "sched/coverage",
            name.to_string(),
            format!(
                "only {} schedules explored; the acceptance bar is 1000 per invariant",
                r.schedules
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_nn::Param;
    use nm_tensor::Tensor;

    /// One gradient + Adam step on a single (2x3) parameter, state
    /// exported for verification.
    fn stepped_adam_export() -> (Adam, Vec<u8>) {
        let p = Param::new("w", Tensor::zeros(2, 3));
        let mut tape = nm_autograd::Tape::new();
        let w = p.bind(&mut tape);
        let l = tape.sum_all(w);
        tape.backward(l);
        p.absorb_grad(&tape);
        let mut opt = Adam::new(0.1);
        opt.step(&[&p]);
        let mut buf = Vec::new();
        opt.export_state(&mut buf).expect("export");
        (opt, buf)
    }

    #[test]
    fn congruent_adam_state_is_clean() {
        let (_, buf) = stepped_adam_export();
        let diags = verify_adam_export(&buf, &[("w".into(), 2, 3)], 1);
        assert!(diags.is_empty(), "{:?}", diags);
    }

    #[test]
    fn shape_drifted_moment_is_rejected() {
        // The exported moments are 2x3; claim the parameter is 4x3 — as
        // if the moment tensors drifted from the weights they scale.
        let (_, buf) = stepped_adam_export();
        let diags = verify_adam_export(&buf, &[("w".into(), 4, 3)], 1);
        assert_eq!(diags.len(), 2, "{:?}", diags); // first AND second moment
        for d in &diags {
            assert_eq!(d.rule, "optim/moment-shape");
            assert!(d.render().contains("shape-drifted"), "{}", d.render());
        }
    }

    #[test]
    fn wrong_step_count_is_rejected() {
        let (_, buf) = stepped_adam_export();
        let diags = verify_adam_export(&buf, &[("w".into(), 2, 3)], 2);
        assert_eq!(diags.len(), 1, "{:?}", diags);
        assert!(
            diags[0].render().contains("optimizer steps"),
            "{}",
            diags[0].render()
        );
    }

    #[test]
    fn wrong_moment_count_is_rejected() {
        let (_, buf) = stepped_adam_export();
        let diags = verify_adam_export(&buf, &[("w".into(), 2, 3), ("b".into(), 1, 3)], 1);
        assert_eq!(diags.len(), 1, "{:?}", diags);
        assert!(
            diags[0].render().contains("moment pairs"),
            "{}",
            diags[0].render()
        );
    }
}
