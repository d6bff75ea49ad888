//! Traced per-layer runner: `perfbench-trace --workload W --seed N --seconds
//! S --trace 1 --cold <cold binary> --work <work root>`.
//!
//! Every per-layer metric is reported on every workload. The workload's own
//! layers run under its own load, once untraced and once with the
//! benchmark's spans on (the ratio is the tracing overhead); the other
//! layers run on inputs made from the same seed (`train` serves a short
//! `serve_predict` load; a serving workload trains the `train` world), so a
//! layer's bypass workload still gives its numbers. The engine is measured
//! on every workload by a sharded chain beside the sequential one. The
//! calls into each layer are timed, and the program's own cold-obs snapshot
//! is read: `Metrics::enabled()` in-process for training, `GET /metrics`
//! from the `cold serve` child for serving. Only counters, gauges and
//! histogram `sum`/`count` are read, never the histogram's bucketed
//! quantiles. This binary calls layer-internal API; keeping it apart from
//! `perfbench` means an API change here cannot stop the end-to-end runs
//! from building.

use cold_core::predict::DEFAULT_TOP_COMM;
use cold_core::{DiffusionPredictor, Metrics, ModelView};
use cold_obs::MetricsSnapshot;
use cold_serve::{App, AppSlot};
use perfbench::args::Args;
use perfbench::report::Outcome;
use perfbench::serve::{self, Kind};
use perfbench::stats::{median, quantile_sorted};
use perfbench::tracer::{self_times, SpanRecord, Tracer};
use perfbench::train::{self, Chain, Sampler};
use perfbench::{chain_seed, prep_in_child, prep_main, vm_rss_mb, WorkDir, Workload, SHARDS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Setup spans timed per traced training run.
const SETUP_SAMPLES: u64 = 5;
/// Repetitions of each in-process serving measurement.
const REPS: usize = 3;
/// Seconds of `serve_predict` load in the training workload's serving layers.
const PROBE_SECONDS: f64 = 4.0;
/// Seconds of back-to-back reloads on a workload whose load sends none.
const RELOAD_PROBE_SECONDS: f64 = 3.0;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("prep") {
        if let Err(e) = prep_main(&argv[1..]) {
            eprintln!("perfbench-trace prep: {e}");
            std::process::exit(2);
        }
        return;
    }
    match Args::parse(&argv).and_then(|args| run(&args)) {
        Ok(out) => std::process::exit(out.emit()),
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create(&args.work, args.workload, args.seed)
        .map_err(|e| format!("creating the work directory: {e}"))?;
    let dir = work.path();
    let training = args.workload.is_training();
    let (serve_kind, serve_seconds) = if training {
        (Workload::ServePredict, PROBE_SECONDS)
    } else {
        (args.workload, args.seconds)
    };
    prep_in_child(Workload::Train, args.seed, args.seconds, dir)?;
    prep_in_child(serve_kind, args.seed, serve_seconds, dir)?;
    let tracer = Tracer::new(true);
    let mut out = Outcome::default();
    // The training layers are timed on the first of the run's worlds.
    let world = train::world_dir(dir, 0);
    let train_overhead = trace_train(&world, args.seed, &tracer, &mut out)?;
    let serve_overhead = trace_serve(
        &args.cold,
        dir,
        serve_kind,
        serve_seconds,
        &tracer,
        &mut out,
    )?;
    out.metric(
        "trace.overhead_ratio",
        if training {
            train_overhead
        } else {
            serve_overhead
        },
        "ratio",
    );
    let spans = tracer.spans();
    let path = args.work.join(format!(
        "{}-s{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{} spans -> {}", spans.len(), path.display());
    println!("span self times (count, total s, self s):");
    for (name, (n, total, own)) in self_times(&spans) {
        println!("  {name:28} {n:8} {total:12.6} {own:12.6}");
    }
    Ok(out)
}

fn hist_sum(snap: &MetricsSnapshot, name: &str) -> (f64, u64) {
    snap.histogram(name).map_or((0.0, 0), |h| (h.sum, h.count))
}

/// `sum / count` of a histogram, if it recorded anything.
fn hist_mean(snap: &MetricsSnapshot, name: &str) -> Option<f64> {
    let (sum, count) = hist_sum(snap, name);
    (count > 0).then(|| sum / count as f64)
}

/// Sum of the `kernel.<kernel>.<field>` counters over kernels.
fn kernel_counter(snap: &MetricsSnapshot, field: &str) -> u64 {
    let suffix = format!(".{field}");
    snap.counters
        .iter()
        .filter(|(k, _)| k.starts_with("kernel.") && k.ends_with(&suffix))
        .map(|(_, v)| v)
        .sum()
}

fn kernel_draws(snap: &MetricsSnapshot) -> u64 {
    ["comm_draws", "topic_draws", "link_draws", "neg_link_draws"]
        .iter()
        .map(|f| kernel_counter(snap, f))
        .sum()
}

/// Seconds spent in the three sequential sweep phases.
fn phase_seconds(snap: &MetricsSnapshot) -> f64 {
    ["posts", "links", "neg_links"]
        .iter()
        .map(|p| hist_sum(snap, &format!("span.sweep/{p}")).0)
        .sum()
}

fn durations(spans: &[SpanRecord], name: &str, request: Option<u64>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && request.is_none_or(|r| s.request == r))
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect()
}

/// Publish the chain's end-of-run gauges into its metrics registry.
fn publish(chain: &Chain, metrics: &Metrics) {
    match &chain.sampler {
        Sampler::Seq(s) => s.state().publish_storage_gauges(metrics),
        // Also publishes the partition gauges (`parallel.shard_imbalance`);
        // the wall-time gauge it sets is not read here.
        Sampler::Sharded(p) => p.publish_final_gauges(0.0),
    }
}

/// The training layers: `train`'s sequential chain untraced and traced,
/// then the same chain on `SHARDS` shards with its own metrics, so both the
/// sampler's and the engine's layers are measured. Returns the tracing
/// overhead, traced over untraced training time.
fn trace_train(dir: &Path, seed: u64, tracer: &Tracer, out: &mut Outcome) -> Result<f64, String> {
    let test = train::load_world(&dir.join("test.json"))?;
    let vocab = test.corpus.vocab_size();
    let seed = chain_seed(seed);
    let off = Tracer::new(false);
    let pass = |shards: usize, metrics: Option<&Metrics>, tracer: &Tracer, request: u64| {
        let go = || {
            train::run_once(
                dir,
                shards,
                seed,
                &test,
                metrics,
                tracer,
                request,
                &mut |c| {
                    if let Some(m) = metrics {
                        publish(c, m);
                    }
                },
            )
        };
        // A sequential chain trains beside a companion, as in the
        // end-to-end run.
        if shards == 1 {
            train::with_companion(dir, seed, &test, go)?
        } else {
            go()
        }
    };
    let seq_metrics = Metrics::enabled();
    let par_metrics = Metrics::enabled();
    let plain = pass(1, None, &off, 0)?;
    let traced = pass(1, Some(&seq_metrics), tracer, 1)?;
    let sharded = pass(SHARDS, Some(&par_metrics), &off, 2)?;
    for r in [&plain, &traced, &sharded] {
        out.op(train::check(r, vocab));
    }
    if traced.sweeps_to_target != plain.sweeps_to_target
        || traced.heldout_ppl.to_bits() != plain.heldout_ppl.to_bits()
    {
        out.fail("the traced run took a different chain than the untraced one".into());
    }
    for i in 0..SETUP_SAMPLES {
        train::setup(dir, 1, seed, None, tracer, 0, 100 + i)?;
    }
    let seq = seq_metrics.snapshot();
    let par = par_metrics.snapshot();
    let spans = tracer.spans();
    let sweeps = durations(&spans, "core.sampler.sweeps", Some(1));
    println!(
        "untraced train {:.4}s, traced train {:.4}s, {} one-sweep calls; {SHARDS}-shard chain {:.4}s",
        plain.train_s,
        traced.train_s,
        sweeps.len(),
        sharded.train_s
    );
    out.metric(
        "data.load_s",
        median(&durations(&spans, "data.load", None)),
        "s",
    );
    out.metric(
        "core.state.init_s",
        median(&durations(&spans, "core.state.init", None)),
        "s",
    );
    out.metric("core.sampler.sweep_ms", median(&sweeps) * 1e3, "ms");
    out.metric(
        "core.sampler.ll_ms",
        median(&durations(&spans, "core.sampler.ll", Some(1))) * 1e3,
        "ms",
    );
    out.metric(
        "core.sampler.sweeps_to_target",
        traced.sweeps_to_target.map_or(f64::INFINITY, |n| n as f64),
        "count",
    );
    out.metric(
        "core.estimates.finish_s",
        median(&durations(&spans, "core.estimates.finish", None)),
        "s",
    );

    for (metric, phase) in [
        ("core.sampler.posts_ms", "posts"),
        ("core.sampler.links_ms", "links"),
        ("core.sampler.neg_links_ms", "neg_links"),
    ] {
        let mean = hist_mean(&seq, &format!("span.sweep/{phase}"));
        layer(out, metric, mean.map(|m| m * 1e3), "ms");
    }
    let seq_draws = kernel_draws(&seq) as f64;
    layer(
        out,
        "core.conditionals.draws_per_sweep",
        Some(seq_draws / train::SWEEPS as f64),
        "count",
    );
    layer(
        out,
        "core.conditionals.ns_per_draw",
        Some(phase_seconds(&seq) / seq_draws * 1e9),
        "ns",
    );
    layer(
        out,
        "core.conditionals.logcache_miss_ratio",
        Some(
            kernel_counter(&seq, "logcache_misses") as f64
                / kernel_counter(&seq, "logcache_lookups") as f64,
        ),
        "ratio",
    );
    layer(
        out,
        "core.storage.state_bytes",
        seq.gauge("state.bytes.total"),
        "bytes",
    );

    // The engine.
    let supersteps = par.counter("parallel.supersteps") as f64;
    let apply = hist_sum(&par, "parallel.apply_seconds").0;
    layer(
        out,
        "engine.superstep_ms",
        hist_mean(&par, "parallel.superstep_seconds").map(|m| m * 1e3),
        "ms",
    );
    out.metric("engine.shard_sample_s", apply, "s");
    out.metric(
        "engine.merge_s",
        hist_sum(&par, "parallel.merge_seconds").0,
        "s",
    );
    out.metric(
        "engine.broadcast_s",
        hist_sum(&par, "parallel.merge.broadcast_seconds").0,
        "s",
    );
    out.metric(
        "engine.sync_bytes",
        par.counter("parallel.sync_bytes") as f64 / supersteps,
        "bytes",
    );
    layer(
        out,
        "engine.shard_imbalance",
        par.gauge("parallel.shard_imbalance"),
        "ratio",
    );
    // CPU per draw against the sequential sampler on the same chain
    // budget: summed shard-sampling time over sequential phase time, each
    // divided by its own draw count.
    let sharded_per_draw = apply / kernel_draws(&par) as f64;
    let seq_per_draw = phase_seconds(&seq) / seq_draws;
    layer(
        out,
        "engine.cpu_per_draw_ratio",
        Some(sharded_per_draw / seq_per_draw),
        "ratio",
    );
    Ok(traced.train_s / plain.train_s)
}

/// Histogram `(sum, count)` summed over `/metrics` snapshots.
#[derive(Default)]
struct Scraped {
    hist: BTreeMap<String, (f64, u64)>,
}

impl Scraped {
    fn add(&mut self, jsonl: &str) -> Result<(), String> {
        for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
            let v: serde::Value =
                serde_json::from_str(line).map_err(|e| format!("/metrics line {line:?}: {e}"))?;
            let text = |k: &str| match v.get(k) {
                Some(serde::Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            let num = |k: &str| match v.get(k) {
                Some(serde::Value::Int(n)) => Some(*n as f64),
                Some(serde::Value::UInt(n)) => Some(*n as f64),
                Some(serde::Value::Float(x)) => Some(*x),
                _ => None,
            };
            if text("type").as_deref() == Some("histogram") {
                let name = text("name").ok_or("histogram without a name")?;
                let e = self.hist.entry(name).or_default();
                e.0 += num("sum").ok_or("histogram without a sum")?;
                e.1 += num("count").ok_or("histogram without a count")? as u64;
            }
        }
        Ok(())
    }

    fn mean(&self, name: &str) -> Option<f64> {
        match self.hist.get(name) {
            Some(&(sum, count)) if count > 0 => Some(sum / count as f64),
            _ => None,
        }
    }
}

/// Report a per-layer value the program's snapshot may no longer provide
/// (a removed metric or mechanism): absent or non-finite values are left
/// out with a note instead of failing the run.
fn layer(out: &mut Outcome, name: &str, value: Option<f64>, unit: &str) {
    match value.filter(|v| v.is_finite()) {
        Some(v) => out.metric(name, v, unit),
        None => println!("note: {name} left out: the program recorded no value for it"),
    }
}

/// Median seconds of `f` over `REPS` calls.
fn time_reps<T>(mut f: impl FnMut() -> T) -> f64 {
    let t: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&t)
}

/// The serving layers under `kind`'s load (`seconds` of it): in-process
/// timings of the model-load and request-path calls, then the load itself
/// untraced and traced with `GET /metrics` scraped from the server. Returns
/// the tracing overhead, traced over untraced open-loop p50.
fn trace_serve(
    cold: &Path,
    dir: &Path,
    kind: Workload,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    let a = serve::artifact(dir, 0);
    let b = serve::artifact(dir, 1);
    let open = serve::read_requests(&dir.join("open.tsv"))?;
    let predicts: Vec<(u32, u32, Vec<u32>, f64, &str)> = open
        .iter()
        .filter_map(|r| match r.kind {
            Kind::Predict { expect } => Some((r, expect[0])),
            _ => None,
        })
        .map(|(r, e)| {
            serve::parse_predict_body(&r.body).map(|(p, c, w)| (p, c, w, e, r.body.as_str()))
        })
        .collect::<Result<_, _>>()?;

    // In-process layer timings, before any server runs, so the benchmark
    // and a server never hold a 1M-user model at the same time.
    let open_s =
        time_reps(|| ModelView::open(&a).expect("the artifact was verified at preparation"));
    out.metric("core.view.open_s", open_s, "s");
    let mut pre_s = Vec::new();
    let mut pre_mb = Vec::new();
    for _ in 0..REPS {
        let view = Arc::new(ModelView::open(&a).map_err(|e| e.to_string())?);
        let before = vm_rss_mb()?;
        let t0 = Instant::now();
        let predictor =
            DiffusionPredictor::new(view, DEFAULT_TOP_COMM).map_err(|e| e.to_string())?;
        pre_s.push(t0.elapsed().as_secs_f64());
        pre_mb.push(vm_rss_mb()? - before);
        drop(predictor);
    }
    out.metric("core.predict.precompute_s", median(&pre_s), "s");
    out.metric("core.predict.precompute_mb", median(&pre_mb), "MB");

    let app_metrics = Metrics::enabled();
    // `cold serve`'s defaults: `--top-comm` DEFAULT_TOP_COMM, `--rank-depth` 100.
    let app = App::load(&a, DEFAULT_TOP_COMM, 100, None, app_metrics.clone())
        .map_err(|e| e.to_string())?;
    let snap = app_metrics.snapshot();
    out.metric(
        "serve.app.rank_s",
        hist_sum(&snap, "serve.rank_precompute_seconds").0,
        "s",
    );

    let score_s = time_reps(|| {
        for (p, c, w, _, _) in &predicts {
            black_box(
                app.predictor()
                    .diffusion_score(*p, *c, w)
                    .expect("valid ids"),
            );
        }
    });
    out.metric(
        "core.predict.score_us",
        score_s / predicts.len() as f64 * 1e6,
        "us",
    );
    for (p, c, w, expect, _) in &predicts {
        let got = app
            .predictor()
            .diffusion_score(*p, *c, w)
            .map_err(|e| e.to_string())?;
        if got.to_bits() != expect.to_bits() {
            out.fail(format!(
                "in-process score {got:e} differs from the expected {expect:e}"
            ));
        }
    }

    let raw: Vec<Vec<u8>> = predicts
        .iter()
        .map(|(.., body)| {
            format!(
                "POST /predict HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let n = predicts.len() as f64;
    let parse_http = time_reps(|| {
        for r in &raw {
            black_box(cold_serve::http::try_parse(r, 1 << 20).expect("well-formed request"));
        }
    });
    let parse_app = time_reps(|| {
        for (.., body) in &predicts {
            black_box(
                app.parse_predict(body.as_bytes())
                    .expect("well-formed body"),
            );
        }
    });
    let bodies: Vec<String> = predicts
        .iter()
        .map(|(p, c, _, e, _)| app.predict_response(*p, *c, Ok(*e)).1)
        .collect();
    let format = time_reps(|| {
        for b in &bodies {
            black_box(cold_serve::http::format_response(
                200,
                "application/json",
                b.as_bytes(),
                true,
                None,
            ));
        }
    });
    out.metric("serve.http.parse_us", parse_http / n * 1e6, "us");
    out.metric("serve.app.parse_us", parse_app / n * 1e6, "us");
    out.metric("serve.http.format_us", format / n * 1e6, "us");

    let slot = AppSlot::new(app);
    let mut took = Vec::new();
    for i in 0..REPS + 1 {
        let target = if i % 2 == 0 { &b } else { &a };
        let t0 = Instant::now();
        slot.reload(Some(&target.display().to_string()))?;
        took.push(t0.elapsed().as_secs_f64());
    }
    out.metric("serve.app.reload_s", median(&took), "s");
    drop(slot);

    // The same load as the end-to-end run, half the time untraced and
    // half traced.
    let half = seconds / 2.0;
    let off = Tracer::new(false);
    let plain = serve::run(cold, dir, kind, half, &off, out)?;
    let traced = serve::run(cold, dir, kind, half, tracer, out)?;
    let p50 = |r: &serve::ServeRun| {
        let mut l: Vec<f64> = r.open.iter().map(serve::Sample::latency_ms).collect();
        l.sort_by(f64::total_cmp);
        quantile_sorted(&l, 0.5)
    };
    serve::latency_summary("traced open loop at lo", &traced.open);
    let mut scraped = Scraped::default();
    for m in &traced.metrics {
        scraped.add(m)?;
    }
    let predict_ms = scraped.mean("serve.predict_seconds").map(|m| m * 1e3);
    layer(out, "serve.server.predict_ms", predict_ms, "ms");
    layer(
        out,
        "serve.server.batch_size",
        scraped.mean("serve.batch_size"),
        "count",
    );
    // Mean client time of the answered `/predict`, from send to reply,
    // minus the server's mean: the time between the socket and the handler.
    let client: Vec<f64> = traced
        .open
        .iter()
        .filter(|s| s.score.is_some())
        .map(|s| (s.done - s.sent).as_secs_f64() * 1e3)
        .collect();
    let client_ms = client.iter().sum::<f64>() / client.len() as f64;
    layer(
        out,
        "serve.residual_ms",
        predict_ms.map(|p| client_ms - p),
        "ms",
    );
    if kind != Workload::ServeReload {
        scraped.add(&reload_probe(cold, dir, out)?)?;
    }
    layer(
        out,
        "serve.server.reload_s",
        scraped.mean("serve.reload_seconds"),
        "s",
    );
    Ok(p50(&traced) / p50(&plain))
}

/// Reload a fresh `cold serve` back to back for `RELOAD_PROBE_SECONDS`,
/// alternating B and A; returns its `GET /metrics`.
fn reload_probe(cold: &Path, dir: &Path, out: &mut Outcome) -> Result<String, String> {
    let (server, _) =
        serve::ServerChild::spawn(cold, &serve::artifact(dir, 0), &dir.join("serve.log"))?;
    let end = Instant::now() + Duration::from_secs_f64(RELOAD_PROBE_SECONDS);
    for r in serve::reload_loop(&server.addr, dir, end) {
        out.op(r.error);
    }
    let metrics = serve::scrape(&server.addr)?;
    server.shutdown()?;
    Ok(metrics)
}
