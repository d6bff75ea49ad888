//! The `train` workload: the `cold train` recipe on `cold generate`-default
//! worlds of 1000 users, each read from its JSON file. The traced runner
//! also runs the recipe's sharded chain from here.

use crate::report::Outcome;
use crate::stats::median;
use crate::tracer::Tracer;
use crate::SHARDS;
use cold_bench::tasks::{perplexity_task, post_split};
use cold_core::predict::post_log_likelihood;
use cold_core::{ColdConfig, ColdModel, GibbsSampler, Metrics};
use cold_data::{SocialDataset, WorldConfig};
use cold_engine::ParallelGibbs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Users of the training world. At 1000, `train_s` repeated about twice as
/// closely across runs as at 3000 on the host the benchmark was defined on,
/// whose shared caches other tenants use too (see README.md).
pub const USERS: u32 = 1000;
pub const COMMUNITIES: usize = 6;
pub const TOPICS: usize = 6;
/// Fixed sweep budget of one training run.
pub const SWEEPS: usize = 80;
/// The monitor runs after every `LL_EVERY` sweeps; its cost counts.
pub const LL_EVERY: usize = 1;
/// Complete-data log-likelihood per training token that counts as reached.
/// Set once from the sequential curves of the benchmark's defining commit:
/// random initialization sits at -6.0 to -6.4 after sweep 1 and every
/// chain passes -5.55 at sweep 2, far below the -5.22 plateau. Later
/// targets are not steady across seeds (see README.md).
pub const LL_TARGET: f64 = -5.7;
/// Cycles over the worlds per thread and benchmark run, at least.
const MIN_CYCLES: usize = 1;

/// The world `cold generate --users 1000` writes (its other defaults).
pub fn world_config() -> WorldConfig {
    WorldConfig {
        num_users: USERS,
        num_communities: 6,
        num_topics: 6,
        num_time_slices: 24,
        vocab_size: 900,
        ..WorldConfig::default()
    }
}

/// Worlds of one benchmark run, each from its own seed: the training runs
/// take turns on them, so how large one seed's world came out decides less.
pub const WORLDS: usize = 4;

/// The directory of world `w`, holding `train.json` and `test.json`.
pub fn world_dir(dir: &Path, w: usize) -> PathBuf {
    dir.join(format!("world{w}"))
}

/// Untimed preparation: for each of the `WORLDS` worlds, generate it, split
/// its posts 80/20, and write the training world and the held-out posts as
/// world JSON files.
pub fn prep(dir: &Path, seed: u64) -> Result<(), String> {
    for w in 0..WORLDS {
        let world_seed = seed.wrapping_mul(WORLDS as u64).wrapping_add(w as u64);
        let data = cold_data::generate(&world_config(), world_seed);
        let split = post_split(&data, world_seed);
        let mut train = data.clone();
        train.corpus = data.corpus.restrict(&split.train);
        let mut test = data;
        test.corpus = test.corpus.restrict(&split.test);
        let wdir = world_dir(dir, w);
        std::fs::create_dir_all(&wdir).map_err(|e| format!("creating {}: {e}", wdir.display()))?;
        write_json(&wdir.join("train.json"), &train)?;
        write_json(&wdir.join("test.json"), &test)?;
    }
    Ok(())
}

fn write_json(path: &Path, data: &SocialDataset) -> Result<(), String> {
    let json = serde_json::to_string(data).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Read and parse a world JSON file, as `cold train --data` does.
pub fn load_world(path: &Path) -> Result<SocialDataset, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// The `cold train` recipe for the fixed sweep budget. `metrics` is only
/// attached by the traced runner.
pub fn config(data: &SocialDataset, metrics: Option<&Metrics>) -> ColdConfig {
    let mut builder = ColdConfig::builder(COMMUNITIES, TOPICS)
        .iterations(SWEEPS)
        .burn_in(SWEEPS.saturating_sub(20).max(1))
        .sample_lag(4)
        .small_data_defaults();
    if let Some(m) = metrics {
        builder = builder.metrics(m.clone());
    }
    builder.build(&data.corpus, &data.graph)
}

/// A sequential or sharded chain behind the calls both expose.
// One chain exists at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Sampler {
    Seq(GibbsSampler),
    Sharded(ParallelGibbs),
}

/// A chain and the number of sweeps it has completed.
pub struct Chain {
    pub sampler: Sampler,
    done: usize,
}

impl Chain {
    pub fn new(data: &SocialDataset, config: ColdConfig, shards: usize, seed: u64) -> Self {
        let sampler = if shards == 1 {
            Sampler::Seq(GibbsSampler::new(&data.corpus, &data.graph, config, seed))
        } else {
            Sampler::Sharded(ParallelGibbs::new(
                &data.corpus,
                &data.graph,
                config,
                shards,
                seed,
            ))
        };
        Self { sampler, done: 0 }
    }

    pub fn sweeps_done(&self) -> usize {
        self.done
    }

    /// Advance to sweep `upto` (capped at the budget).
    pub fn run_to(&mut self, upto: usize) {
        let upto = upto.min(SWEEPS);
        let r = match &mut self.sampler {
            Sampler::Seq(s) => s.run_sweeps(upto, None),
            Sampler::Sharded(p) => p.run_sweeps(upto, None),
        };
        r.expect("a run without checkpoints cannot fail");
        self.done = upto;
    }

    pub fn log_likelihood(&self) -> f64 {
        match &self.sampler {
            Sampler::Seq(s) => s.log_likelihood(),
            Sampler::Sharded(p) => p.log_likelihood(),
        }
    }

    pub fn finish(self) -> ColdModel {
        match self.sampler {
            Sampler::Seq(s) => s.finish(),
            Sampler::Sharded(p) => p.finish(),
        }
    }
}

/// What one training run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub setup_s: f64,
    /// `None` when the target was never reached within the budget.
    pub time_to_target_s: Option<f64>,
    pub sweeps_to_target: Option<usize>,
    pub train_s: f64,
    /// Milliseconds of each step: one sweep and its monitor call.
    pub step_ms: Vec<f64>,
    pub final_ll_per_token: f64,
    pub heldout_ppl: f64,
}

/// Load the world and build a ready chain, timed as `setup_s`.
pub fn setup(
    dir: &Path,
    shards: usize,
    seed: u64,
    metrics: Option<&Metrics>,
    tracer: &Tracer,
    parent: u64,
    request: u64,
) -> Result<(SocialDataset, Chain, f64), String> {
    let t0 = Instant::now();
    let data = tracer.span("data.load", parent, request, |_| {
        load_world(&dir.join("train.json"))
    })?;
    let config = config(&data, metrics);
    let chain = tracer.span("core.state.init", parent, request, |_| {
        Chain::new(&data, config, shards, seed)
    });
    Ok((data, chain, t0.elapsed().as_secs_f64()))
}

/// One training run: setup, the sweep budget with the monitor after every
/// `LL_EVERY` sweeps, `finish()`, then (untimed) held-out perplexity.
/// `inspect` sees the chain just before `finish()` (the traced runner reads
/// its gauges there).
#[allow(clippy::too_many_arguments)]
pub fn run_once(
    dir: &Path,
    shards: usize,
    seed: u64,
    test: &SocialDataset,
    metrics: Option<&Metrics>,
    tracer: &Tracer,
    request: u64,
    inspect: &mut dyn FnMut(&Chain),
) -> Result<RunResult, String> {
    tracer.span("train.run", 0, request, |root| {
        run_traced(
            dir, shards, seed, test, metrics, tracer, root, request, inspect,
        )
    })
}

#[allow(clippy::too_many_arguments)]
fn run_traced(
    dir: &Path,
    shards: usize,
    seed: u64,
    test: &SocialDataset,
    metrics: Option<&Metrics>,
    tracer: &Tracer,
    root: u64,
    request: u64,
    inspect: &mut dyn FnMut(&Chain),
) -> Result<RunResult, String> {
    let (data, mut chain, setup_s) = setup(dir, shards, seed, metrics, tracer, root, request)?;
    let tokens = data.corpus.num_tokens() as f64;
    let mut reached = None;
    let mut ll = f64::NAN;
    let mut step_ms = Vec::with_capacity(SWEEPS / LL_EVERY);
    let t0 = Instant::now();
    while chain.sweeps_done() < SWEEPS {
        let upto = chain.sweeps_done() + LL_EVERY;
        let step = Instant::now();
        tracer.span("core.sampler.sweeps", root, request, |_| chain.run_to(upto));
        ll = tracer.span("core.sampler.ll", root, request, |_| chain.log_likelihood()) / tokens;
        step_ms.push(step.elapsed().as_secs_f64() * 1e3);
        if reached.is_none() && ll >= LL_TARGET {
            reached = Some((t0.elapsed().as_secs_f64(), chain.sweeps_done()));
        }
    }
    inspect(&chain);
    let model = tracer.span("core.estimates.finish", root, request, |_| chain.finish());
    let train_s = t0.elapsed().as_secs_f64();
    drop(data);
    let ids: Vec<u32> = (0..test.corpus.num_posts() as u32).collect();
    let heldout_ppl = perplexity_task(test, &ids, |author, words| {
        post_log_likelihood(&model, author, words)
    });
    Ok(RunResult {
        setup_s,
        time_to_target_s: reached.map(|r| r.0),
        sweeps_to_target: reached.map(|r| r.1),
        train_s,
        step_ms,
        final_ll_per_token: ll,
        heldout_ppl,
    })
}

/// Run `f` while a companion sequential chain trains on another thread, so
/// that a sequential chain is measured with every core busy, as `bench`
/// runs it.
pub fn with_companion<T>(
    dir: &Path,
    seed: u64,
    test: &SocialDataset,
    f: impl FnOnce() -> T,
) -> Result<T, String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let companion = scope.spawn(|| -> Result<(), String> {
            let tracer = Tracer::new(false);
            let mut k = 0;
            while !stop.load(Ordering::Relaxed) {
                let chain = seed.wrapping_add(1000 + k);
                run_once(dir, 1, chain, test, None, &tracer, 0, &mut |_| {})?;
                k += 1;
            }
            Ok(())
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        companion.join().expect("the companion chain panicked")?;
        Ok(out)
    })
}

/// Check one full run's outputs; returns the reason it is wrong, if it is.
pub fn check(r: &RunResult, vocab: usize) -> Option<String> {
    if !r.final_ll_per_token.is_finite() {
        return Some(format!("final log-likelihood is {}", r.final_ll_per_token));
    }
    if r.time_to_target_s.is_none() {
        return Some(format!(
            "log-likelihood per token {:.4} never reached the target {LL_TARGET} in {SWEEPS} sweeps",
            r.final_ll_per_token
        ));
    }
    if !(r.heldout_ppl.is_finite() && r.heldout_ppl < vocab as f64) {
        return Some(format!(
            "held-out perplexity {} is not below V={vocab}",
            r.heldout_ppl
        ));
    }
    None
}

/// The end-to-end training workload: training runs, each with its own
/// chain seed, taking turns on the `WORLDS` worlds, for `seconds`. Each
/// metric is a mean over the worlds of one value per world. Sequential
/// chains run `SHARDS` at a time, one per thread, so that they train with
/// every core busy.
pub fn bench(dir: &Path, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let tests: Vec<SocialDataset> = (0..WORLDS)
        .map(|w| load_world(&world_dir(dir, w).join("test.json")))
        .collect::<Result<_, _>>()?;
    let lanes = SHARDS;
    // Lane `l` trains on worlds l, l + lanes, ...; it ends only after a
    // whole cycle over them, so every world gets the same number of runs.
    let cycle = WORLDS / lanes;
    let started = Instant::now();
    let lane = |l: usize| -> Result<Vec<(usize, RunResult)>, String> {
        let tracer = Tracer::new(false);
        let mut runs = Vec::new();
        // Another cycle starts when, at the mean run time so far, it ends
        // within `seconds`.
        let mean_run = |runs: &Vec<_>| started.elapsed().as_secs_f64() / runs.len().max(1) as f64;
        while runs.len() < MIN_CYCLES * cycle
            || started.elapsed().as_secs_f64() + mean_run(&runs) * cycle as f64 <= seconds
        {
            for _ in 0..cycle {
                let k = runs.len() * lanes + l;
                let w = k % WORLDS;
                let r = run_once(
                    &world_dir(dir, w),
                    1,
                    seed.wrapping_add(k as u64),
                    &tests[w],
                    None,
                    &tracer,
                    k as u64 + 1,
                    &mut |_| {},
                )?;
                runs.push((w, r));
            }
        }
        Ok(runs)
    };
    let per_lane: Vec<Result<Vec<(usize, RunResult)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes).map(|l| scope.spawn(move || lane(l))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a training thread panicked"))
            .collect()
    });
    let mut runs: Vec<Vec<RunResult>> = vec![Vec::new(); WORLDS];
    for (l, lane_runs) in per_lane.into_iter().enumerate() {
        for (i, (w, r)) in lane_runs?.into_iter().enumerate() {
            out.op(check(&r, tests[w].corpus.vocab_size()));
            println!(
                "thread {l} run {} (world {w}): setup {:.4}s, target at sweep {:?} after {:.4}s, train {:.4}s, ll/token {:.5}, held-out ppl {:.4}",
                i + 1,
                r.setup_s,
                r.sweeps_to_target,
                r.time_to_target_s.unwrap_or(f64::NAN),
                r.train_s,
                r.final_ll_per_token,
                r.heldout_ppl
            );
            runs[w].push(r);
        }
    }
    let rss = crate::vm_hwm_mb("self")?;
    let mean_over_worlds =
        |f: &dyn Fn(&[RunResult]) -> f64| runs.iter().map(|r| f(r)).sum::<f64>() / WORLDS as f64;
    let setup_s = mean_over_worlds(&|r| median(&r.iter().map(|r| r.setup_s).collect::<Vec<_>>()));
    // A run takes one of two speeds on a shared host, switching every few
    // seconds; the mean moves smoothly with the mix where a median jumps
    // between the two (see README.md).
    let work_s = mean_over_worlds(&|r| r.iter().map(|r| r.train_s).sum::<f64>() / r.len() as f64);
    let p50_ms = mean_over_worlds(&|r| {
        median(
            &r.iter()
                .flat_map(|r| r.step_ms.iter().copied())
                .collect::<Vec<_>>(),
        )
    });
    // On each world, the held-out score of the chain with the best final
    // training log-likelihood, the restart selection
    // `workloads::fit_cold_best` uses: a chain still stuck in a
    // merged-community mode loses it.
    let heldout_ppl = mean_over_worlds(&|r| {
        r.iter()
            .max_by(|a, b| a.final_ll_per_token.total_cmp(&b.final_ll_per_token))
            .expect("every world has runs")
            .heldout_ppl
    });
    let ttt: Vec<f64> = runs
        .iter()
        .flatten()
        .map(|r| r.time_to_target_s.unwrap_or(f64::INFINITY))
        .collect();
    println!(
        "{} runs on {WORLDS} worlds in {:.1}s; median time to target {:.4}s (not gated, see README.md)",
        ttt.len(),
        started.elapsed().as_secs_f64(),
        median(&ttt)
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("heldout_ppl", heldout_ppl, "perplexity");
    out.metric("p50_ms", p50_ms, "ms");
    out.metric("work_s", work_s, "s");
    Ok(())
}
