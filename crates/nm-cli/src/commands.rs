//! The CLI subcommands.

use crate::args::Args;
use nm_bench::{nmcdr_config, ExpProfile, ModelKind};
use nm_data::generate::generate as generate_dataset;
use nm_data::{CdrDataset, Scenario};
use nm_models::{train_joint_ft, CdrModel, CdrTask, FtConfig, TaskConfig};
use nm_obs::json::Json;
use nmcdr_core::{Ablation, NmcdrModel};
use std::path::{Path, PathBuf};

pub fn print_help() {
    println!(
        "nmcdr — Neural Node Matching for Multi-Target Cross Domain Recommendation

USAGE:
  nmcdr <command> [--key value ...]

COMMANDS:
  generate   synthesize a two-domain dataset and write interaction logs
             --scenario <name> [--scale 0.004] [--seed N] --out <dir>
  train      train a model and report leave-one-out HR@10 / NDCG@10
             (--scenario <name> | --domain-a <file> --domain-b <file>
              [--alignment <file>])
             [--model NMCDR] [--overlap 1.0] [--density 1.0]
             [--dim 16] [--epochs 6] [--lr 0.01] [--seed N]
             [--checkpoint <file>] [--checkpoint-every 1] [--resume]
             [--max-rollbacks 3] [--early-stop] [--trace-out <file.jsonl>]
             [--profile-out <dump.jsonl>] per-op kernel profile: call
             counts, modeled FLOPs/bytes, alloc traffic (deterministic
             dump; measured self-times go into --trace-out)
             with --checkpoint, training state is saved atomically at
             epoch boundaries; --resume continues a killed run from the
             checkpoint and reproduces the uninterrupted result exactly
  evaluate   load a checkpoint and evaluate without training
             (same data options as train) --model <name> --checkpoint <file>
  stats      print Table-I style statistics for a scenario
             --scenario <name> [--scale 0.004]
  snapshot   export a frozen serving snapshot (.nmss) from a model
             (same data options as train) [--model NMCDR]
             [--checkpoint <file>] --out <file.nmss>
             (supported models: NMCDR, BPR, HeroGraph)
  stream     online serve-while-train loop: simulated event stream, delta
             fine-tuning, snapshot hot-swaps, drift-triggered rollback
             (same data options as train) [--model HeroGraph] --out <dir>
             [--rounds 12] [--events-per-round 64] [--publish-every 2]
             [--shift-at N [--shift-duration 3] [--shift-magnitude 1.0]]
             [--loss-factor 2.0] [--warmup 3] [--cooldown 4] [--hr-drop 0]
             [--max-rollbacks 2] [--ring 4096] [--microbatch 256]
             [--slate 8] [--slope 3.0] [--domain-mix 0.5] [--workers 2]
             [--warm-epochs 0] [--seed N] [--trace-out <file.jsonl>]
             [--profile-out <dump.jsonl>] (per-op profile summed over
             the rounds this process trains)
             [--require-swaps N] [--require-rollbacks N]
             re-running the same --out resumes/verifies bit-identically;
             --require-* make the exit code a CI gate
  serve      serve top-K recommendations over TCP (newline-delimited JSON)
             --snapshot <file.nmss> [--bind 127.0.0.1:7878]
             [--workers N] [--shard-items 256] [--batch-max 8]
             [--cache 4096] [--sample-ms 1000] (telemetry sampler
             interval; 0 disables the flight recorder tick thread)
             [--chaos-seed N] enables fault injection (permille knobs:
             [--chaos-panic 100] [--chaos-stall 100] [--chaos-torn-write 50]
             [--chaos-torn-read 50] [--chaos-reload-fail 100]
             [--chaos-deadline 50])
  chaos      deterministic chaos drill: chaos-enabled server + fixed
             workload (queries, reloads, hostile frames), run twice and
             byte-compared; prints an injection/breaker/degraded report
             [--seed N] [--requests 80] [--snapshot <file.nmss>]
             [--panic 250] [--stall 250] [--torn-write 100]
             [--torn-read 100] [--reload-fail 500] [--deadline-expire 150]
             [--workers 2] [--shard-items 32] [--retries 1]
             [--breaker-threshold 2] [--breaker-cooldown 4]
             [--trace-out <file.jsonl>] [--series-out <file.jsonl>]
             [--sample-every 8] [--series-capacity 64] [--clean]
             [--require-injections N]
             [--require-breaker-opens N] [--require-degraded N]
             --require-* make the exit code a CI gate; --clean zeroes
             every fault rate (the SLO smoke control run); --series-out
             dumps the telemetry flight recorder for obs tail/slo
  query      one-shot client against a running server
             [--addr 127.0.0.1:7878]
             [--op topk|stats|obs|series|trace|shutdown]
             [--user 0] [--domain a] [--k 10] [--n 5] [--window 30]
             --op trace prints the server's slowest-request exemplars
             as a raw schema-v1 trace (pipe to a file for obs flame);
             --op series prints windowed rates/quantiles + SLO budgets
  obs        offline trace tooling for --trace-out files
             report   --trace <file>   self-time profile per span
             validate --trace <file>   strict schema + monotonicity check
             flame    --in <file> --out <flame.svg> [--collapsed <txt>]
                      collapsed-stack fold + SVG flamegraph +
                      critical-path report
             profile  --profile <dump.jsonl> [--trace <file.jsonl>]
                      per-op roofline report from a --profile-out dump:
                      self time, achieved GFLOP/s and GB/s, arithmetic
                      intensity, memory- vs compute-bound class
                      [--compare <old-dump> [--compare-trace <old>]]
                      [--rel-tol 0.5] [--abs-floor-us 200]
                      differential gate: deterministic counters diffed
                      strictly, timings under noise-aware thresholds;
                      exits non-zero on regression (a CI gate)
             tail     --series <file> [--window 20]
                      per-tick rates + latency quantiles from a
                      flight-recorder dump (chaos --series-out)
             slo      --series <file> [--require-alerts N]
                      [--require-clean]
                      burn-rate replay: error-budget table and alert
                      transitions; --require-* gate the exit code
  check      static analysis: symbolic shape/graph verification over all
             models, workspace invariant lints, schedule-exploring
             concurrency checks
             [--root .] [--allowlist scripts/lint_allowlist.tsv]
             [--skip shape,lint,sched] [--json <report.json>]
             [--fix-allowlist]
  help       this text

TRACING:
  train [--trace-out <file.jsonl>] records per-stage spans (forward/
  backward/optimizer, encoder/intra/inter/complementing), per-epoch
  telemetry events, and companion-loss components as line JSON;
  inspect with `nmcdr obs report --trace <file>`

SCENARIOS: music-movie, cloth-sport, phone-elec, loan-fund
MODELS:    LR BPR NeuMF MMoE PLE CoNet MiNet GA-DTCDR DML HeroGraph PTUPCDR NMCDR"
    );
}

/// Converts the trainer's per-op aggregates plus the frozen alloc
/// counters into the deterministic profile dump and writes it. The
/// measured `*_ns` fields stay out on purpose: the dump must be
/// byte-identical across same-seed runs (timings travel in the trace
/// as `obs.profile.time` events instead).
fn write_profile_dump(
    path: &Path,
    table: &[(&'static str, nm_models::OpAgg)],
    alloc: Option<nm_tensor::alloc::AllocStats>,
) -> Result<(), String> {
    let ops: Vec<nm_obs::OpCounters> = table
        .iter()
        .map(|(kind, a)| nm_obs::OpCounters {
            kind: (*kind).to_string(),
            fwd_calls: a.fwd_calls,
            bwd_calls: a.bwd_calls,
            fwd_flops: a.fwd_flops,
            bwd_flops: a.bwd_flops,
            fwd_bytes: a.fwd_bytes,
            bwd_bytes: a.bwd_bytes,
            alloc_b: a.alloc_b,
            freed_b: a.freed_b,
        })
        .collect();
    let alloc = alloc.map_or(
        nm_obs::AllocSummary {
            allocated_b: 0,
            freed_b: 0,
            peak_b: 0,
        },
        |a| nm_obs::AllocSummary {
            allocated_b: a.allocated_b,
            freed_b: a.freed_b,
            peak_b: a.peak_b,
        },
    );
    if ops.is_empty() {
        return Err(
            "profiler recorded no ops (did this run train anything in this process?)".into(),
        );
    }
    std::fs::write(path, nm_obs::render_dump(&ops, &alloc))
        .map_err(|e| format!("cannot write profile dump '{}': {e}", path.display()))
}

fn profile_from(args: &Args) -> Result<ExpProfile, String> {
    let mut p = ExpProfile::from_env();
    p.scale = args.parse_or("scale", p.scale)?;
    p.dim = args.parse_or("dim", p.dim)?;
    p.epochs = args.parse_or("epochs", p.epochs)?;
    p.lr = args.parse_or("lr", p.lr)?;
    p.seed = args.parse_or("seed", p.seed)?;
    p.eval_negatives = args.parse_or("eval-negatives", p.eval_negatives)?;
    p.match_neighbors = args.parse_or("neighbors", p.match_neighbors)?;
    Ok(p)
}

fn scenario_from(args: &Args) -> Result<Scenario, String> {
    let name = args.required("scenario")?;
    Scenario::parse(name).ok_or_else(|| format!("unknown scenario '{name}'"))
}

type DatasetLoader = Box<dyn FnOnce() -> Result<CdrDataset, String>>;

/// Reads the dataset options. The returned loader generates the
/// scenario or loads the log files, so a command can check all its
/// options before that work.
fn dataset_from(args: &Args, profile: &ExpProfile) -> Result<DatasetLoader, String> {
    let load: DatasetLoader = match (args.get("domain-a"), args.get("domain-b")) {
        (Some(pa), Some(pb)) => {
            let (pa, pb) = (pa.to_string(), pb.to_string());
            let alignment = args.get("alignment").map(PathBuf::from);
            Box::new(move || {
                nm_data::io::load_cdr_dataset(
                    "A",
                    Path::new(&pa),
                    "B",
                    Path::new(&pb),
                    alignment.as_deref(),
                )
                .map_err(|e| format!("cannot load interaction logs '{pa}' / '{pb}': {e}"))
            })
        }
        _ => {
            let mut cfg = scenario_from(args)?.config(profile.scale);
            cfg.seed ^= profile.seed;
            Box::new(move || Ok(generate_dataset(&cfg)))
        }
    };
    let overlap: f64 = args.parse_or("overlap", 1.0)?;
    let density: f64 = args.parse_or("density", 1.0)?;
    let seed = profile.seed;
    Ok(Box::new(move || {
        let mut data = load()?;
        if overlap < 1.0 {
            data = data.with_overlap_ratio(overlap, seed);
        }
        if density < 1.0 {
            data = data.with_density(density, 2, seed);
        }
        Ok(data)
    }))
}

/// The `--model` option, `default` when absent.
fn model_kind(args: &Args, default: &str) -> Result<ModelKind, String> {
    let name = args.get("model").unwrap_or(default);
    ModelKind::parse(name).ok_or_else(|| format!("unknown model '{name}'"))
}

pub fn generate(args: &Args) -> Result<(), String> {
    let profile = profile_from(args)?;
    let scenario = scenario_from(args)?;
    let out = PathBuf::from(args.required("out")?);
    args.reject_unread()?;
    std::fs::create_dir_all(&out)
        .map_err(|e| format!("cannot create output directory '{}': {e}", out.display()))?;
    let mut cfg = scenario.config(profile.scale);
    cfg.seed ^= profile.seed;
    let data = generate_dataset(&cfg);
    let (na, nb) = scenario.domains();
    let write_domain = |d: &nm_data::DomainData, name: &str| -> Result<PathBuf, String> {
        let path = out.join(format!("{}.txt", name.to_lowercase()));
        let mut s = String::with_capacity(d.interactions.len() * 12);
        for (ord, &(u, i)) in d.interactions.iter().enumerate() {
            s.push_str(&format!("u{u} i{i} {ord}\n"));
        }
        std::fs::write(&path, s).map_err(|e| format!("cannot write '{}': {e}", path.display()))?;
        Ok(path)
    };
    let pa = write_domain(&data.domain_a, na)?;
    let pb = write_domain(&data.domain_b, nb)?;
    let align_path = out.join("alignment.txt");
    let mut s = String::new();
    for &(a, b) in &data.true_overlap {
        s.push_str(&format!("u{a} u{b}\n"));
    }
    std::fs::write(&align_path, s)
        .map_err(|e| format!("cannot write '{}': {e}", align_path.display()))?;
    println!(
        "wrote {} ({} interactions), {} ({}), {} ({} pairs)",
        pa.display(),
        data.domain_a.interactions.len(),
        pb.display(),
        data.domain_b.interactions.len(),
        align_path.display(),
        data.true_overlap.len()
    );
    Ok(())
}

pub fn train(args: &Args) -> Result<(), String> {
    let profile = profile_from(args)?;
    let data = dataset_from(args, &profile)?;
    let kind = model_kind(args, "NMCDR")?;
    // --early-stop enables a validation split + patience-2 early stopping
    let early_stop = args.flag("early-stop");
    let profile_out = args.get("profile-out").map(PathBuf::from);
    let ft = FtConfig {
        checkpoint: args.get("checkpoint").map(PathBuf::from),
        checkpoint_every: args.parse_or("checkpoint-every", 1)?,
        resume: args.flag("resume"),
        max_rollbacks: args.parse_or("max-rollbacks", 3)?,
        ..Default::default()
    };
    let trace_out = args.get("trace-out").map(PathBuf::from);
    args.reject_unread()?;
    if ft.resume && ft.checkpoint.is_none() {
        return Err(
            "--resume needs --checkpoint <file> pointing at the checkpoint to resume from".into(),
        );
    }
    let mut tc = task_config(&profile);
    tc.validation = early_stop;
    let task = CdrTask::build(data()?, tc);
    let mut model = kind.build(task, &profile);
    println!(
        "training {} ({} epochs, dim {}, lr {})",
        model.name(),
        profile.epochs,
        profile.dim,
        profile.lr
    );
    let mut train_cfg = profile.train_config();
    if early_stop {
        train_cfg.early_stop_patience = 2;
    }
    train_cfg.profile = profile_out.is_some();
    if let Some(path) = &trace_out {
        nm_obs::trace::init_file(path)
            .map_err(|e| format!("cannot open trace sink '{}': {e}", path.display()))?;
    }
    let trained = train_joint_ft(&mut *model, &train_cfg, &ft);
    if trace_out.is_some() {
        nm_obs::trace::shutdown();
    }
    let stats = trained.map_err(|e| format!("training {} failed: {e}", model.name()))?;
    if let Some(epoch) = stats.resumed_from {
        println!("  resumed from checkpoint at epoch {epoch}");
    }
    for log in &stats.logs {
        println!("  epoch {}: mean loss {:.4}", log.epoch, log.mean_loss);
    }
    if stats.rollbacks > 0 {
        println!(
            "  recovered from divergence {} time(s) via rollback",
            stats.rollbacks
        );
    }
    println!(
        "domain A: HR@10 {:>6.2}%  NDCG@10 {:>6.2}%  AUC {:.3}  ({} users)",
        stats.final_a.hr, stats.final_a.ndcg, stats.final_a.auc, stats.final_a.n_users
    );
    println!(
        "domain B: HR@10 {:>6.2}%  NDCG@10 {:>6.2}%  AUC {:.3}  ({} users)",
        stats.final_b.hr, stats.final_b.ndcg, stats.final_b.auc, stats.final_b.n_users
    );
    println!(
        "{} parameters, {:.4}s/step",
        stats.param_count, stats.secs_per_step
    );
    if let Some(path) = &ft.checkpoint {
        println!("checkpoint saved to {}", path.display());
    }
    if let Some(path) = &trace_out {
        println!(
            "trace written to {} (inspect with `nmcdr obs report --trace {}`)",
            path.display(),
            path.display()
        );
    }
    if let Some(path) = &profile_out {
        write_profile_dump(path, stats.profile.as_deref().unwrap_or(&[]), stats.alloc)?;
        match &trace_out {
            Some(t) => println!(
                "profile dump written to {} (inspect with `nmcdr obs profile --profile {} \
                 --trace {}`)",
                path.display(),
                path.display(),
                t.display()
            ),
            None => println!(
                "profile dump written to {} (inspect with `nmcdr obs profile --profile {}`; \
                 add --trace-out for measured self-times)",
                path.display(),
                path.display()
            ),
        }
    }
    Ok(())
}

pub fn evaluate(args: &Args) -> Result<(), String> {
    let profile = profile_from(args)?;
    let data = dataset_from(args, &profile)?;
    let kind = model_kind(args, "NMCDR")?;
    let ckpt = args.required("checkpoint")?;
    args.reject_unread()?;
    let task = CdrTask::build(data()?, task_config(&profile));
    let mut model = kind.build(task, &profile);
    nm_nn::checkpoint::load_from_file(&model.params(), Path::new(ckpt)).map_err(|e| {
        format!(
            "cannot load checkpoint '{ckpt}' for {}: {e} \
             (was it written by 'train --checkpoint' with the same --model/--dim?)",
            model.name()
        )
    })?;
    let (a, b) = nm_models::train::evaluate_model(&mut *model, 10);
    println!(
        "domain A: HR@10 {:>6.2}%  NDCG@10 {:>6.2}%  AUC {:.3}  ({} users)",
        a.hr, a.ndcg, a.auc, a.n_users
    );
    println!(
        "domain B: HR@10 {:>6.2}%  NDCG@10 {:>6.2}%  AUC {:.3}  ({} users)",
        b.hr, b.ndcg, b.auc, b.n_users
    );
    Ok(())
}

pub fn stats(args: &Args) -> Result<(), String> {
    let profile = profile_from(args)?;
    let scenario = scenario_from(args)?;
    args.reject_unread()?;
    let mut cfg = scenario.config(profile.scale);
    cfg.seed ^= profile.seed;
    let data = generate_dataset(&cfg);
    for d in [&data.domain_a, &data.domain_b] {
        let s = d.stats();
        println!(
            "{:<8} {:>7} users {:>7} items {:>9} ratings  density {:.3}%  avg item deg {:.2}",
            s.name,
            s.users,
            s.items,
            s.ratings,
            s.density * 100.0,
            d.avg_item_interactions()
        );
    }
    println!("{} aligned user pairs", data.true_overlap.len());
    Ok(())
}

fn task_config(profile: &ExpProfile) -> TaskConfig {
    profile.task_config()
}

/// Builds a serving snapshot: rebuild the model on the same data/seed,
/// optionally load a trained checkpoint, then freeze the eval tables.
pub fn snapshot(args: &Args) -> Result<(), String> {
    use nm_nn::Module;
    use nm_serve::FrozenModel;
    let profile = profile_from(args)?;
    let data = dataset_from(args, &profile)?;
    let out = PathBuf::from(args.required("out")?);
    let kind = model_kind(args, "NMCDR")?;
    let checkpoint = args.get("checkpoint");
    args.reject_unread()?;
    let task = CdrTask::build(data()?, task_config(&profile));
    let load = |params: &[&nm_nn::Param]| -> Result<(), String> {
        if let Some(path) = checkpoint {
            nm_nn::checkpoint::load_from_file(params, Path::new(path)).map_err(|e| {
                format!(
                    "cannot load checkpoint '{path}': {e} \
                     (must match the --model/--dim used for training)"
                )
            })?;
        }
        Ok(())
    };
    let snap = match kind {
        ModelKind::Nmcdr => {
            let mut m = NmcdrModel::new(task, nmcdr_config(&profile, Ablation::none()));
            load(&m.params())?;
            m.export_frozen()
        }
        ModelKind::Bpr => {
            let mut m = nm_models::BprModel::new(task, profile.dim, profile.seed);
            load(&m.params())?;
            m.export_frozen()
        }
        ModelKind::HeroGraph => {
            let mut m = nm_models::HeroGraphModel::new(task, profile.dim, profile.seed);
            load(&m.params())?;
            m.export_frozen()
        }
        other => {
            return Err(format!(
                "model '{}' does not support snapshot export (supported: NMCDR, BPR, HeroGraph)",
                other.name()
            ))
        }
    };
    snap.save_to_file(&out)
        .map_err(|e| format!("cannot write snapshot '{}': {e}", out.display()))?;
    println!(
        "snapshot of {} saved to {} ({}+{} users, {}+{} items)",
        snap.model,
        out.display(),
        snap.n_users(0),
        snap.n_users(1),
        snap.n_items(0),
        snap.n_items(1)
    );
    Ok(())
}

/// `nmcdr stream` — the online serve-while-train loop: replay a
/// simulated interaction stream against the serving snapshot, delta
/// fine-tune on each round, hot-swap snapshots on cadence, and roll
/// back automatically when the drift monitor trips. All artifacts land
/// in `--out`; re-running with the same arguments resumes (or verifies)
/// the directory bit-identically.
pub fn stream(args: &Args) -> Result<(), String> {
    use nm_serve::FrozenModel;
    use nm_stream::{DriftConfig, ShiftSchedule, SourceConfig, StreamConfig};
    let profile = profile_from(args)?;
    let data = dataset_from(args, &profile)?;
    let out = PathBuf::from(args.required("out")?);

    let shift = match args.get("shift-at") {
        Some(at) => Some(ShiftSchedule {
            at_round: at
                .parse()
                .map_err(|e| format!("invalid --shift-at '{at}': {e}"))?,
            duration: args.parse_or("shift-duration", 3)?,
            magnitude: args.parse_or("shift-magnitude", 1.0)?,
        }),
        None => None,
    };
    let src_defaults = SourceConfig::default();
    let drift_defaults = DriftConfig::default();
    let cfg = StreamConfig {
        rounds: args.parse_or("rounds", 12)?,
        source: SourceConfig {
            seed: profile.seed,
            events_per_round: args.parse_or("events-per-round", src_defaults.events_per_round)?,
            slate_size: args.parse_or("slate", src_defaults.slate_size)?,
            slope: args.parse_or("slope", src_defaults.slope)?,
            domain_mix: args.parse_or("domain-mix", src_defaults.domain_mix)?,
            shift,
            ..src_defaults
        },
        ring_capacity: args.parse_or("ring", 4096)?,
        microbatch_max: args.parse_or("microbatch", 256)?,
        publish_every: args.parse_or("publish-every", 2)?,
        drift: DriftConfig {
            loss_factor: args.parse_or("loss-factor", drift_defaults.loss_factor)?,
            warmup_rounds: args.parse_or("warmup", drift_defaults.warmup_rounds)?,
            cooldown_rounds: args.parse_or("cooldown", drift_defaults.cooldown_rounds)?,
            hr_drop: args.parse_or("hr-drop", drift_defaults.hr_drop)?,
            max_rollbacks: args.parse_or("max-rollbacks", drift_defaults.max_rollbacks)?,
            ..drift_defaults
        },
        engine: nm_serve::EngineConfig {
            n_workers: args.parse_or("workers", 2)?,
            ..Default::default()
        },
        ..StreamConfig::new(out)
    };
    let warm: usize = args.parse_or("warm-epochs", 0)?;
    let profile_out = args.get("profile-out").map(PathBuf::from);
    let trace_out = args.get("trace-out").map(PathBuf::from);
    let kind = model_kind(args, "HeroGraph")?;
    let want_swaps: u64 = args.parse_or("require-swaps", 0)?;
    let want_rollbacks: u64 = args.parse_or("require-rollbacks", 0)?;
    args.reject_unread()?;
    let task = CdrTask::build(data()?, task_config(&profile));
    let mut train_cfg = profile.train_config();
    // The trainer resets its table on every call, so the dump covers
    // exactly the streaming rounds (a --warm-epochs call's drains are
    // returned to drive() and discarded, not accumulated).
    train_cfg.profile = profile_out.is_some();

    if let Some(path) = &trace_out {
        nm_obs::trace::init_file(path)
            .map_err(|e| format!("cannot open trace sink '{}': {e}", path.display()))?;
    }
    fn drive<M: CdrModel + FrozenModel>(
        mut model: M,
        tc: &nm_models::TrainConfig,
        warm: usize,
        cfg: &nm_stream::StreamConfig,
    ) -> Result<nm_stream::StreamReport, String> {
        if warm > 0 {
            let mut wtc = tc.clone();
            wtc.epochs = warm;
            nm_models::train_joint(&mut model, &wtc)
                .map_err(|e| format!("warm-up training failed: {e}"))?;
        }
        nm_stream::run_stream(&mut model, tc, cfg).map_err(|e| format!("stream run failed: {e}"))
    }
    let report = match kind {
        ModelKind::Nmcdr => drive(
            NmcdrModel::new(task, nmcdr_config(&profile, Ablation::none())),
            &train_cfg,
            warm,
            &cfg,
        ),
        ModelKind::Bpr => drive(
            nm_models::BprModel::new(task, profile.dim, profile.seed),
            &train_cfg,
            warm,
            &cfg,
        ),
        ModelKind::HeroGraph => drive(
            nm_models::HeroGraphModel::new(task, profile.dim, profile.seed),
            &train_cfg,
            warm,
            &cfg,
        ),
        other => Err(format!(
            "model '{}' does not support streaming (needs snapshot export; \
             supported: NMCDR, BPR, HeroGraph)",
            other.name()
        )),
    };
    if trace_out.is_some() {
        nm_obs::trace::shutdown();
    }
    let report = report?;

    for d in &report.decisions {
        println!(
            "  iter {:>3} round {:>3} {:<8} {:<8} loss {:.4} hr {:>6.2}%",
            d.iter,
            d.round,
            d.verdict.as_str(),
            d.action.as_str(),
            d.mean_loss,
            d.hr
        );
    }
    let (pushed, dropped, drained) = report.ring_counters;
    println!(
        "stream complete: {} rounds trained, {} events logged \
         (ring: {pushed} pushed, {dropped} dropped, {drained} drained)",
        report.rounds_trained, report.events_logged
    );
    println!(
        "  {} publishes, {} hot-swaps, {} rollbacks, {} parity checks{}",
        report.publishes,
        report.swaps,
        report.rollbacks,
        report.parity_checks,
        if report.halted {
            " — HALTED (rollback budget exhausted)"
        } else {
            ""
        }
    );
    if let Some(path) = &trace_out {
        println!(
            "trace written to {} (inspect with `nmcdr obs validate --trace {}`)",
            path.display(),
            path.display()
        );
    }
    if let Some(path) = &profile_out {
        write_profile_dump(path, report.profile.as_deref().unwrap_or(&[]), report.alloc)?;
        println!(
            "profile dump written to {} (inspect with `nmcdr obs profile --profile {}`)",
            path.display(),
            path.display()
        );
    }
    if report.swaps < want_swaps {
        return Err(format!(
            "only {} hot-swaps, --require-swaps {want_swaps} not met",
            report.swaps
        ));
    }
    if report.rollbacks < want_rollbacks {
        return Err(format!(
            "only {} rollbacks, --require-rollbacks {want_rollbacks} not met",
            report.rollbacks
        ));
    }
    Ok(())
}

/// Serves a snapshot over TCP until a `shutdown` request arrives.
pub fn serve(args: &Args) -> Result<(), String> {
    use std::sync::Arc;
    let path = args.required("snapshot")?;
    // Fault injection is off unless a chaos seed is given (the rates are
    // read either way); the knob defaults are mild enough for
    // interactive poking.
    let chaos = nm_serve::ChaosConfig {
        seed: args.parse_or("chaos-seed", 0)?,
        worker_panic_permille: args.parse_or("chaos-panic", 100)?,
        shard_stall_permille: args.parse_or("chaos-stall", 100)?,
        torn_write_permille: args.parse_or("chaos-torn-write", 50)?,
        torn_read_permille: args.parse_or("chaos-torn-read", 50)?,
        reload_fail_permille: args.parse_or("chaos-reload-fail", 100)?,
        deadline_expire_permille: args.parse_or("chaos-deadline", 50)?,
    };
    let chaos = args.get("chaos-seed").is_some().then_some(chaos);
    let cfg = nm_serve::EngineConfig {
        n_workers: args.parse_or("workers", nm_serve::EngineConfig::default().n_workers)?,
        shard_items: args.parse_or("shard-items", 256)?,
        batch_max: args.parse_or("batch-max", 8)?,
        cache_capacity: args.parse_or("cache", 4096)?,
        chaos,
        ..Default::default()
    };
    let bind = args.get("bind").unwrap_or("127.0.0.1:7878");
    // Production telemetry tick source: a clock-driven sampler (default
    // 1s) keeps the flight recorder and SLO burn rates live for
    // `nmcdr query --op series`; --sample-ms 0 disables it.
    let sample_ms: u64 = args.parse_or("sample-ms", 1000)?;
    args.reject_unread()?;
    let snap = nm_serve::Snapshot::load_from_file(Path::new(path)).map_err(|e| {
        format!("cannot load snapshot '{path}': {e} (export one with 'nmcdr snapshot --out ...')")
    })?;
    let model = snap.model.clone();
    if cfg.chaos.is_some() {
        println!("WARNING: chaos fault injection is ENABLED on this server");
    }
    let engine =
        Arc::new(nm_serve::Engine::new(snap, cfg).map_err(|e| format!("invalid snapshot: {e}"))?);
    let server_cfg = nm_serve::ServerConfig {
        sample_interval: (sample_ms > 0).then(|| std::time::Duration::from_millis(sample_ms)),
        ..Default::default()
    };
    let n_workers = engine.worker_threads();
    let mut server = nm_serve::Server::start(engine, bind, server_cfg)
        .map_err(|e| format!("cannot bind '{bind}': {e} (is the port already in use?)"))?;
    println!(
        "serving {model} on {} ({n_workers} workers); send {{\"op\":\"shutdown\"}} to stop",
        server.local_addr()
    );
    server.wait();
    println!("server stopped");
    Ok(())
}

/// One-shot client: send a single request line and print the response.
pub fn query(args: &Args) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let op = args.get("op").unwrap_or("topk");
    let line = match op {
        "topk" => {
            let user: u32 = args.parse_or("user", 0)?;
            let k: usize = args.parse_or("k", 10)?;
            let domain = args.get("domain").unwrap_or("a");
            format!(r#"{{"op":"topk","user":{user},"domain":"{domain}","k":{k}}}"#)
        }
        "stats" => r#"{"op":"stats"}"#.to_string(),
        "obs" => r#"{"op":"obs"}"#.to_string(),
        "series" => {
            let window: usize = args.parse_or("window", 0)?;
            if window > 0 {
                format!(r#"{{"op":"series","window":{window}}}"#)
            } else {
                r#"{"op":"series"}"#.to_string()
            }
        }
        "trace" => {
            let n: usize = args.parse_or("n", 0)?;
            if n > 0 {
                format!(r#"{{"op":"trace","n":{n}}}"#)
            } else {
                r#"{"op":"trace"}"#.to_string()
            }
        }
        "shutdown" => r#"{"op":"shutdown"}"#.to_string(),
        other => {
            return Err(format!(
                "unknown op '{other}' (topk, stats, obs, series, trace, shutdown)"
            ))
        }
    };
    args.reject_unread()?;
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to '{addr}': {e} (is 'nmcdr serve' running?)"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|_| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut resp = String::new();
    BufReader::new(stream)
        .read_line(&mut resp)
        .map_err(|e| e.to_string())?;
    if op == "trace" {
        // Print the embedded trace document raw, so the output can be
        // piped straight into a file and fed to `obs flame`/`validate`.
        let v = Json::parse(resp.trim()).map_err(|e| format!("malformed server response: {e}"))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("server error: {}", resp.trim_end()));
        }
        let text = v
            .get("trace")
            .and_then(Json::as_str)
            .ok_or("server response missing 'trace' field")?;
        print!("{text}");
        return Ok(());
    }
    println!("{}", resp.trim_end());
    Ok(())
}

/// `nmcdr obs <report|validate|flame|tail|slo|profile>` — see
/// [`crate::obs`].
pub fn obs(action: &str, args: &Args) -> Result<(), String> {
    crate::obs::run(action, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misspelled_option_fails_before_any_work() {
        let argv = ["--scenario", "cloth-sport", "--scael", "0.001"].map(String::from);
        let args = Args::parse(&argv).expect("well-formed argv");
        assert_eq!(
            stats(&args).unwrap_err(),
            "option --scael is not used by this command with these options"
        );
    }

    #[test]
    fn serve_reads_chaos_rates_without_a_chaos_seed() {
        let argv = ["--snapshot", "no-such.nmss", "--chaos-panic", "100"].map(String::from);
        let args = Args::parse(&argv).expect("well-formed argv");
        let err = serve(&args).unwrap_err();
        assert!(err.starts_with("cannot load snapshot"), "{err}");
    }
}
