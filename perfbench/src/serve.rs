//! The `serve_predict` and `serve_reload` workloads: `cold serve` as a child
//! process given only `--model` and `--addr`, driven over HTTP.

use crate::http::{get_once, Conn};
use crate::report::Outcome;
use crate::stats::{beyond, median, quantile_sorted};
use crate::tracer::Tracer;
use crate::Workload;
use cold_bench::tasks::{perplexity_task, post_split};
use cold_core::predict::{post_log_likelihood, DEFAULT_TOP_COMM};
use cold_core::{ColdConfig, ColdModel, DiffusionPredictor, GibbsSampler, ModelFormat, ModelView};
use cold_data::{SocialDataset, WorldConfig};
use cold_math::rng::seeded_rng;
use rand::Rng;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Users each served artifact is tiled to.
pub const USERS: u32 = 1_000_000;
pub const COMMUNITIES: usize = 6;
pub const TOPICS: usize = 16;
/// The open-loop rate `lo`, requests per second on one connection: about a
/// fifth of what one closed-loop connection completes at the defining commit.
pub const RATE_LO: f64 = 300.0;
/// Zipf exponent of the `serve_predict` user draw.
pub const ZIPF_S: f64 = 1.1;
/// Word ids per `/predict` post.
pub const WORDS: usize = 8;
/// Untimed (but checked) requests sent before the timed phases.
pub const WARMUP: usize = 300;
/// Share of `--seconds` given to the open-loop phase of `serve_predict`;
/// the closed-loop phase gets the rest.
pub const OPEN_SHARE: f64 = 0.5;
/// Distinct `/predict` requests the closed loop cycles through.
const CLOSED_POOL: usize = 20_000;
/// Closed-loop throughput is counted in windows of this many seconds; the
/// median window is reported, so a short stall of the host moves it little.
const RATE_WINDOW: f64 = 0.25;
/// Server lifetimes per run; each is one set-up sample.
const SEGMENTS: usize = 3;
/// Sweeps of the small models that are tiled into the artifacts.
const MODEL_SWEEPS: usize = 40;
/// Artifacts A and B; both are made for either workload, since the traced
/// run reloads on `serve_predict` too.
const MODELS: usize = 2;
/// Worlds whose model, trained as artifact A's was, is scored on held-out
/// posts for `heldout_ppl`; the first is A's own. One world's perplexity
/// depends mostly on how that world came out (see README.md).
const HELDOUT_WORLDS: usize = 8;
/// Seed distance between those worlds, so the sets of nearby seeds differ.
const WORLD_STRIDE: u64 = 1_000_003;
/// Where preparation leaves the mean held-out perplexity.
const HELDOUT_FILE: &str = "heldout_ppl.txt";
/// `work_s` of `serve_predict` is the time the closed loop takes for this
/// many `/predict`.
const WORK_REQUESTS: f64 = 1000.0;

/// The small world the served models are trained on (`bench_serve`'s).
pub fn world_config() -> WorldConfig {
    WorldConfig {
        num_users: 240,
        num_communities: COMMUNITIES,
        num_topics: TOPICS,
        num_time_slices: 24,
        vocab_size: 6000,
        posts_per_user: 12.0,
        words_per_post: 10.0,
        ..WorldConfig::default()
    }
}

pub fn artifact(dir: &Path, which: usize) -> PathBuf {
    dir.join(if which == 0 { "A.cold" } else { "B.cold" })
}

/// What a request asks for; `/predict` carries its expected score under
/// artifact A and artifact B.
#[derive(Debug, Clone)]
pub enum Kind {
    Predict { expect: [f64; 2] },
    Communities { user: u32 },
    Rank { topic: usize },
}

#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    pub path: String,
    pub body: String,
}

impl Req {
    pub fn method(&self) -> &'static str {
        match self.kind {
            Kind::Communities { .. } => "GET",
            _ => "POST",
        }
    }

    /// Tab-separated line for the request file.
    fn to_line(&self) -> String {
        match &self.kind {
            Kind::Predict { expect } => format!(
                "P\t{}\t{:016x}\t{:016x}",
                self.body,
                expect[0].to_bits(),
                expect[1].to_bits()
            ),
            Kind::Communities { user } => format!("C\t{user}"),
            Kind::Rank { topic } => format!("R\t{topic}"),
        }
    }

    fn from_line(line: &str) -> Result<Self, String> {
        let f: Vec<&str> = line.split('\t').collect();
        let bits = |s: &str| {
            u64::from_str_radix(s, 16)
                .map(f64::from_bits)
                .map_err(|e| e.to_string())
        };
        match f.as_slice() {
            ["P", body, a, b] => Ok(Req {
                kind: Kind::Predict {
                    expect: [bits(a)?, bits(b)?],
                },
                path: "/predict".into(),
                body: (*body).to_owned(),
            }),
            ["C", user] => Ok(communities(user.parse().map_err(|e| format!("{e}"))?)),
            ["R", topic] => Ok(rank(topic.parse().map_err(|e| format!("{e}"))?)),
            _ => Err(format!("bad request line {line:?}")),
        }
    }
}

fn predict(publisher: u32, consumer: u32, words: &[u32]) -> Req {
    let mut body = format!("{{\"publisher\":{publisher},\"consumer\":{consumer},\"words\":[");
    for (i, w) in words.iter().enumerate() {
        let _ = write!(body, "{}{w}", if i == 0 { "" } else { "," });
    }
    body.push_str("]}");
    Req {
        kind: Kind::Predict {
            expect: [f64::NAN; 2],
        },
        path: "/predict".into(),
        body,
    }
}

fn communities(user: u32) -> Req {
    Req {
        kind: Kind::Communities { user },
        path: format!("/communities/{user}"),
        body: String::new(),
    }
}

fn rank(topic: usize) -> Req {
    Req {
        kind: Kind::Rank { topic },
        path: "/rank-influencers".into(),
        body: format!("{{\"topic\":{topic},\"limit\":10}}"),
    }
}

/// Zipf(`s`) over `n` ranks, mapped to users by a fixed bijection so hot
/// users are spread over the id space.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u32, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        Self { cdf }
    }

    fn sample(&self, rng: &mut impl Rng) -> u32 {
        let total = *self.cdf.last().expect("non-empty");
        let u = rng.gen::<f64>() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64;
        // 999_983 is prime and coprime to 10^6: a bijection on 0..USERS.
        ((rank * 999_983) % self.cdf.len() as u64) as u32
    }
}

/// Number of open-loop requests a run of `seconds` sends (after warm-up).
pub fn open_requests(workload: Workload, seconds: f64) -> usize {
    let open = match workload {
        Workload::ServePredict => seconds * OPEN_SHARE,
        _ => seconds,
    };
    (open * RATE_LO).ceil() as usize
}

/// Untimed preparation: train the small models, score them on held-out
/// posts, tile the served ones to `USERS`, save the `cold-model/v1`
/// artifacts, and write the seeded request streams with their expected
/// scores.
pub fn prep(dir: &Path, workload: Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let data = cold_data::generate(&world_config(), seed);
    let mut ppl = 0.0;
    for w in 0..HELDOUT_WORLDS {
        let world = if w == 0 {
            data.clone()
        } else {
            cold_data::generate(&world_config(), seed.wrapping_add(w as u64 * WORLD_STRIDE))
        };
        // Each model trains on 80% of its world's posts; the rest scores it.
        let split = post_split(&world, seed);
        let mut train = world.clone();
        train.corpus = world.corpus.restrict(&split.train);
        let models = if w == 0 { MODELS } else { 1 };
        for which in 0..models {
            let model = train_model(&train, seed.wrapping_mul(2).wrapping_add(which as u64 + 1));
            if which == 0 {
                ppl += perplexity_task(&world, &split.test, |author, words| {
                    post_log_likelihood(&model, author, words)
                }) / HELDOUT_WORLDS as f64;
            }
            if w == 0 {
                let path = artifact(dir, which);
                model
                    .tile_users(USERS)
                    .save_as(&path, ModelFormat::Binary)
                    .map_err(|e| format!("saving {}: {e}", path.display()))?;
            }
        }
    }
    std::fs::write(dir.join(HELDOUT_FILE), format!("{ppl:?}"))
        .map_err(|e| format!("writing {HELDOUT_FILE}: {e}"))?;
    let vocab = data.corpus.vocab_size() as u32;
    let mut rng = seeded_rng(seed ^ 0x5e7e_0001);
    let n_open = WARMUP + open_requests(workload, seconds);
    let (mut open, mut closed) = (Vec::new(), Vec::new());
    let words = |rng: &mut cold_math::rng::Rng| -> Vec<u32> {
        (0..WORDS).map(|_| rng.gen_range(0..vocab)).collect()
    };
    if workload == Workload::ServePredict {
        let zipf = Zipf::new(USERS, ZIPF_S);
        for i in 0..n_open + CLOSED_POOL {
            let (p, c) = (zipf.sample(&mut rng), zipf.sample(&mut rng));
            let req = predict(p, c, &words(&mut rng));
            if i < n_open {
                open.push(req)
            } else {
                closed.push(req)
            }
        }
    } else {
        for _ in 0..n_open {
            let x: f64 = rng.gen();
            open.push(if x < 0.7 {
                let (p, c) = (rng.gen_range(0..USERS), rng.gen_range(0..USERS));
                predict(p, c, &words(&mut rng))
            } else if x < 0.9 {
                communities(rng.gen_range(0..USERS))
            } else {
                rank(rng.gen_range(0..TOPICS))
            });
        }
    }
    for which in 0..MODELS {
        let view = ModelView::open(artifact(dir, which)).map_err(|e| e.to_string())?;
        let predictor =
            DiffusionPredictor::new(view, DEFAULT_TOP_COMM).map_err(|e| e.to_string())?;
        for req in open.iter_mut().chain(closed.iter_mut()) {
            if let Kind::Predict { expect } = &mut req.kind {
                let (p, c, w) = parse_predict_body(&req.body)?;
                expect[which] = predictor
                    .diffusion_score(p, c, &w)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    // The first WARMUP requests of the stream are the warm-up.
    let timed = open.split_off(WARMUP);
    write_requests(&dir.join("warm.tsv"), &open)?;
    write_requests(&dir.join("open.tsv"), &timed)?;
    write_requests(&dir.join("closed.tsv"), &closed)
}

fn train_model(data: &SocialDataset, seed: u64) -> ColdModel {
    let config = ColdConfig::builder(COMMUNITIES, TOPICS)
        .iterations(MODEL_SWEEPS)
        .burn_in(MODEL_SWEEPS - 20)
        .sample_lag(4)
        .small_data_defaults()
        .build(&data.corpus, &data.graph);
    GibbsSampler::new(&data.corpus, &data.graph, config, seed).run()
}

/// Mean held-out perplexity of artifact A's model and the models of the
/// other held-out worlds, as preparation measured it; an error when it is
/// not finite or not below the vocabulary size.
pub fn heldout_ppl(dir: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(dir.join(HELDOUT_FILE))
        .map_err(|e| format!("reading {HELDOUT_FILE}: {e}"))?;
    let ppl: f64 = text
        .trim()
        .parse()
        .map_err(|e| format!("{HELDOUT_FILE}: {e}"))?;
    let vocab = world_config().vocab_size;
    if ppl.is_finite() && ppl < vocab as f64 {
        Ok(ppl)
    } else {
        Err(format!(
            "served model's held-out perplexity {ppl} is not below V={vocab}"
        ))
    }
}

/// `(publisher, consumer, words)` of a body this module rendered.
pub fn parse_predict_body(body: &str) -> Result<(u32, u32, Vec<u32>), String> {
    let v: serde::Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let num = |k: &str| match v.get(k) {
        Some(serde::Value::Int(n)) => Ok(*n as u32),
        _ => Err(format!("no {k} in {body}")),
    };
    let words = v
        .get("words")
        .and_then(|w| w.as_array())
        .ok_or("no words")?
        .iter()
        .map(|w| match w {
            serde::Value::Int(n) => Ok(*n as u32),
            _ => Err("bad word".to_owned()),
        })
        .collect::<Result<_, _>>()?;
    Ok((num("publisher")?, num("consumer")?, words))
}

fn write_requests(path: &Path, reqs: &[Req]) -> Result<(), String> {
    let mut text = String::new();
    for r in reqs {
        text.push_str(&r.to_line());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

pub fn read_requests(path: &Path) -> Result<Vec<Req>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines().map(Req::from_line).collect()
}

/// A running `cold serve`. Dropping it kills and reaps the process.
pub struct ServerChild {
    child: Child,
    pub addr: String,
    exited: bool,
}

impl ServerChild {
    /// Start `cold serve --model M --addr A`; returns the server and the
    /// seconds from spawn until the first `200` from `/healthz`.
    pub fn spawn(cold: &Path, model: &Path, log: &Path) -> Result<(Self, f64), String> {
        let mut last_err = String::new();
        // A port picked free can be taken before the child binds it; the
        // child then exits at once and a new port is tried.
        for _ in 0..3 {
            let port = std::net::TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("picking a port: {e}"))?
                .port();
            let addr = format!("127.0.0.1:{port}");
            let log = std::fs::File::create(log).map_err(|e| e.to_string())?;
            let log2 = log.try_clone().map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let child = Command::new(cold)
                .arg("serve")
                .arg("--model")
                .arg(model)
                .arg("--addr")
                .arg(&addr)
                .stdin(Stdio::null())
                .stdout(log)
                .stderr(log2)
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", cold.display()))?;
            let mut server = Self {
                child,
                addr,
                exited: false,
            };
            loop {
                if let Ok(Some(status)) = server.child.try_wait() {
                    server.exited = true;
                    last_err = format!("cold serve exited with {status} before answering /healthz");
                    break;
                }
                if let Ok((200, _)) = get_once(&server.addr, "/healthz") {
                    return Ok((server, t0.elapsed().as_secs_f64()));
                }
                if t0.elapsed() > Duration::from_secs(120) {
                    return Err("cold serve did not answer /healthz within 120 s".into());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Err(last_err)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `POST /shutdown` and wait for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = Conn::connect(&self.addr).and_then(|mut c| c.call("POST", "/shutdown", ""));
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.exited = true;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("cold serve exited with {status} after /shutdown"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("cold serve did not exit within 30 s of /shutdown".into())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// `0` when the request failed at the socket.
    pub status: u16,
    /// The `/predict` score, if the body carried one.
    pub score: Option<f64>,
    /// What was wrong with the response apart from the score.
    pub error: Option<String>,
}

impl Sample {
    /// Client-observed latency from the due time, in ms; a failed request
    /// misses every limit.
    pub fn latency_ms(&self) -> f64 {
        if self.status == 200 && self.error.is_none() {
            (self.done - self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// Send `req` on `conn` (reconnecting after a socket failure) and check
/// the shape of the answer.
pub fn issue(
    conn: &mut Option<Conn>,
    addr: &str,
    req: &Req,
    index: usize,
    due: Instant,
    tracer: &Tracer,
) -> Sample {
    let span = tracer.reserve();
    let sent = Instant::now();
    let result = (|| {
        if conn.is_none() {
            *conn = Some(Conn::connect(addr)?);
        }
        let c = conn.as_mut().expect("connected above");
        c.send(req.method(), &req.path, &req.body)?;
        let written = Instant::now();
        tracer.record("client.send", span, index as u64, sent, written);
        let r = c.recv();
        tracer.record("client.wait", span, index as u64, written, Instant::now());
        r
    })();
    let done = Instant::now();
    tracer.record_as(span, "client.request", 0, index as u64, due, done);
    let mut s = Sample {
        index,
        due,
        sent,
        done,
        status: 0,
        score: None,
        error: None,
    };
    match result {
        Ok((status, body)) => {
            s.status = status;
            if status != 200 {
                s.error = Some(format!("{} {} -> {status}: {body}", req.method(), req.path));
            } else {
                match check_body(req, &body) {
                    Ok(score) => s.score = score,
                    Err(e) => s.error = Some(format!("{} {}: {e}: {body}", req.method(), req.path)),
                }
            }
        }
        Err(e) => {
            *conn = None;
            s.error = Some(format!("{} {}: {e}", req.method(), req.path));
        }
    }
    s
}

/// Check a `200` body is well formed for its endpoint; returns the
/// `/predict` score.
fn check_body(req: &Req, body: &str) -> Result<Option<f64>, String> {
    let v: serde::Value =
        serde_json::from_str(body).map_err(|e| format!("malformed JSON ({e})"))?;
    let int = |k: &str| match v.get(k) {
        Some(serde::Value::Int(n)) => Ok(*n),
        _ => Err(format!("no integer `{k}`")),
    };
    let array_len = |k: &str| {
        v.get(k)
            .and_then(|a| a.as_array())
            .map(|a| a.len())
            .ok_or(format!("no array `{k}`"))
    };
    match &req.kind {
        Kind::Predict { .. } => {
            // Parse the number's own text: the server prints the shortest
            // string that round-trips, so the bits must match exactly.
            let at = body.find("\"score\":").ok_or("no `score`")? + "\"score\":".len();
            let end = body[at..].find(['}', ',']).ok_or("unterminated score")? + at;
            body[at..end]
                .trim()
                .parse::<f64>()
                .map(Some)
                .map_err(|e| format!("score: {e}"))
        }
        Kind::Communities { user } => {
            if int("user")? != i64::from(*user) {
                return Err("wrong user".into());
            }
            if array_len("memberships")? != COMMUNITIES
                || array_len("top_communities")? != DEFAULT_TOP_COMM.min(COMMUNITIES)
            {
                return Err("wrong community count".into());
            }
            Ok(None)
        }
        Kind::Rank { topic } => {
            if int("topic")? != *topic as i64 || array_len("influencers")? != 10 {
                return Err("wrong ranking shape".into());
            }
            Ok(None)
        }
    }
}

/// Wait until `t`: sleep most of the way, then spin for precision.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop on one connection: request `i` is due at `start + i / rate`
/// and is sent then, or as soon as the previous reply is in.
pub fn open_loop(addr: &str, reqs: &[Req], rate: f64, tracer: &Tracer) -> Vec<Sample> {
    let mut conn = Conn::connect(addr).ok();
    let start = Instant::now() + Duration::from_millis(5);
    reqs.iter()
        .enumerate()
        .map(|(i, req)| {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            wait_until(due);
            issue(&mut conn, addr, req, i, due, tracer)
        })
        .collect()
}

/// Closed loop: `clients` connections, each sending its next request as
/// soon as the previous reply is in, until `end`. Returns every sample.
pub fn closed_loop(addr: &str, reqs: &[Req], clients: usize, end: Instant) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                scope.spawn(move || {
                    let tracer = Tracer::new(false);
                    let mut conn = Conn::connect(addr).ok();
                    let mut out = Vec::new();
                    let mut i = t * reqs.len() / clients;
                    while Instant::now() < end {
                        out.push(issue(
                            &mut conn,
                            addr,
                            &reqs[i % reqs.len()],
                            i % reqs.len(),
                            Instant::now(),
                            &tracer,
                        ));
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    })
}

/// One `POST /reload` as the client saw it.
#[derive(Debug, Clone)]
pub struct Reload {
    pub target: usize,
    pub sent: Instant,
    pub done: Instant,
    pub error: Option<String>,
}

/// Reload back to back on one connection until `end`, alternating B and A.
pub fn reload_loop(addr: &str, dir: &Path, end: Instant) -> Vec<Reload> {
    let mut out = Vec::new();
    let mut conn: Option<Conn> = None;
    let mut serving = 0;
    while Instant::now() < end {
        let target = 1 - serving;
        let body = format!("{{\"model\":\"{}\"}}", artifact(dir, target).display());
        let sent = Instant::now();
        let r = (|| {
            if conn.is_none() {
                conn = Some(Conn::connect(addr)?);
            }
            conn.as_mut()
                .expect("connected above")
                .call("POST", "/reload", &body)
        })();
        let done = Instant::now();
        let error = match r {
            Ok((200, _)) => {
                serving = target;
                None
            }
            Ok((status, body)) => Some(format!("POST /reload -> {status}: {body}")),
            Err(e) => {
                conn = None;
                Some(format!("POST /reload: {e}"))
            }
        };
        out.push(Reload {
            target,
            sent,
            done,
            error,
        });
    }
    out
}

/// Check every `/predict` score against the artifact that was serving: the
/// one the last acknowledged reload installed before the request was sent,
/// or the target of a reload in flight while the request was.
pub fn check_scores(reqs: &[Req], samples: &[Sample], reloads: &[Reload]) -> Vec<String> {
    let mut errors = Vec::new();
    let ok: Vec<&Reload> = reloads.iter().filter(|r| r.error.is_none()).collect();
    for s in samples {
        let (Some(score), Kind::Predict { expect }) = (s.score, &reqs[s.index].kind) else {
            continue;
        };
        let before = ok
            .iter()
            .rev()
            .find(|r| r.done <= s.sent)
            .map_or(0, |r| r.target);
        let mut allowed = vec![before];
        allowed.extend(
            ok.iter()
                .filter(|r| r.sent < s.done && r.done > s.sent)
                .map(|r| r.target),
        );
        if !allowed
            .iter()
            .any(|&m| expect[m].to_bits() == score.to_bits())
        {
            errors.push(format!(
                "request {}: score {score:e} is not the expected {:e} (A) / {:e} (B) of models {allowed:?}",
                s.index, expect[0], expect[1]
            ));
        }
    }
    errors
}

fn account(out: &mut Outcome, samples: &[Sample]) {
    for s in samples {
        out.op(s.error.clone());
    }
}

/// Sorted client latencies (ms) of `samples`, with a detail line giving
/// the tail and the generator's own lateness.
pub fn latency_summary(label: &str, samples: &[Sample]) -> Vec<f64> {
    let mut lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    let mut late: Vec<f64> = samples
        .iter()
        .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
        .collect();
    late.sort_by(f64::total_cmp);
    println!(
        "{label}: {} requests, p50 {:.4} ms, p90 {:.4} ms ({} beyond), p99 {:.4} ms ({} beyond), max {:.4} ms; generator lateness p99 {:.4} ms, max {:.4} ms",
        lat.len(),
        quantile_sorted(&lat, 0.5),
        quantile_sorted(&lat, 0.9),
        beyond(&lat, 0.9),
        quantile_sorted(&lat, 0.99),
        beyond(&lat, 0.99),
        lat[lat.len() - 1],
        quantile_sorted(&late, 0.99),
        late[late.len() - 1],
    );
    lat
}

/// Everything one serving run observed.
#[derive(Default)]
pub struct ServeRun {
    /// Spawn until the first `200` from `/healthz`, per server start.
    pub setups: Vec<f64>,
    /// `VmHWM` of each server, MiB, read before its shutdown.
    pub rss_mb: Vec<f64>,
    /// Open-loop samples of every segment.
    pub open: Vec<Sample>,
    /// Closed-loop completions per second, per `RATE_WINDOW` window.
    pub rps: Vec<f64>,
    pub reloads: Vec<Reload>,
    /// `GET /metrics` of each server (traced runs only), taken after the
    /// open-loop phase of `serve_predict` and at the end of `serve_reload`.
    pub metrics: Vec<String>,
}

/// Drive `SEGMENTS` server lifetimes: each starts `cold serve` on artifact
/// A (timed as set-up), warms it up, runs its share of the timed phases
/// and shuts it down. Medians over segments keep one slow server start or
/// one slow phase from deciding a run.
pub fn run(
    cold: &Path,
    dir: &Path,
    workload: Workload,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<ServeRun, String> {
    let warm = read_requests(&dir.join("warm.tsv"))?;
    let mut open = read_requests(&dir.join("open.tsv"))?;
    open.truncate(open_requests(workload, seconds));
    let closed = read_requests(&dir.join("closed.tsv"))?;
    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    let per_segment = open.len().div_ceil(SEGMENTS);
    let mut run = ServeRun::default();
    for seg in 0..SEGMENTS {
        let (server, setup) = ServerChild::spawn(cold, &artifact(dir, 0), &dir.join("serve.log"))?;
        run.setups.push(setup);
        let addr = server.addr.clone();
        let mut conn = None;
        let warmed: Vec<Sample> = warm
            .iter()
            .enumerate()
            .map(|(i, r)| issue(&mut conn, &addr, r, i, Instant::now(), &Tracer::new(false)))
            .collect();
        drop(conn);
        account(out, &warmed);
        let errors = check_scores(&warm, &warmed, &[]);
        let lo = (seg * per_segment).min(open.len());
        let slice = &open[lo..(lo + per_segment).min(open.len())];
        let mut errors = errors;
        let (samples, reloads) = match workload {
            Workload::ServePredict => {
                let samples = open_loop(&addr, slice, RATE_LO, tracer);
                if tracer.enabled() {
                    run.metrics.push(scrape(&addr)?);
                }
                let t0 = Instant::now();
                let end =
                    t0 + Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE) / SEGMENTS as f64);
                let cl = closed_loop(&addr, &closed, clients, end);
                account(out, &cl);
                errors.extend(check_scores(&closed, &cl, &[]));
                run.rps.extend(window_rates(&cl, t0, end));
                (samples, Vec::new())
            }
            Workload::ServeReload => {
                let end = Instant::now() + Duration::from_secs_f64(seconds / SEGMENTS as f64);
                let (samples, reloads) = std::thread::scope(|scope| {
                    let r = scope.spawn(|| reload_loop(&addr, dir, end));
                    let s = open_loop(&addr, slice, RATE_LO, tracer);
                    (s, r.join().expect("reload client panicked"))
                });
                for r in &reloads {
                    out.op(r.error.clone());
                }
                (samples, reloads)
            }
            _ => unreachable!("serving workloads only"),
        };
        account(out, &samples);
        errors.extend(check_scores(slice, &samples, &reloads));
        for e in errors {
            out.fail(e);
        }
        if tracer.enabled() && workload == Workload::ServeReload {
            run.metrics.push(scrape(&addr)?);
        }
        run.rss_mb.push(crate::vm_hwm_mb(&server.pid())?);
        server.shutdown()?;
        run.open.extend(samples);
        run.reloads.extend(reloads);
    }
    Ok(run)
}

/// Successful completions per second in each whole `RATE_WINDOW` window
/// of `[t0, end)`.
fn window_rates(samples: &[Sample], t0: Instant, end: Instant) -> Vec<f64> {
    let windows = ((end - t0).as_secs_f64() / RATE_WINDOW).floor() as usize;
    let mut counts = vec![0u32; windows];
    for s in samples
        .iter()
        .filter(|s| s.status == 200 && s.error.is_none())
    {
        let k = ((s.done - t0).as_secs_f64() / RATE_WINDOW) as usize;
        if let Some(c) = counts.get_mut(k) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| f64::from(c) / RATE_WINDOW).collect()
}

/// `GET /metrics`: the server's cold-obs snapshot as JSON lines.
pub fn scrape(addr: &str) -> Result<String, String> {
    match get_once(addr, "/metrics") {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(format!("GET /metrics -> {status}")),
        Err(e) => Err(format!("GET /metrics: {e}")),
    }
}

/// The end-to-end serving workloads.
pub fn bench(
    cold: &Path,
    dir: &Path,
    workload: Workload,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    // Preparation trained the served model: one training run, checked.
    let ppl = heldout_ppl(dir);
    out.op(ppl.as_ref().err().cloned());
    let run = run(cold, dir, workload, seconds, &Tracer::new(false), out)?;
    let lat = latency_summary("open loop at lo", &run.open);
    println!(
        "server starts to the first /healthz 200 (s): {:.4?}",
        run.setups
    );
    out.metric("setup_s", median(&run.setups), "s");
    out.metric("peak_rss_mb", median(&run.rss_mb), "MB");
    out.metric("heldout_ppl", ppl.unwrap_or(f64::INFINITY), "perplexity");
    out.metric("p50_ms", quantile_sorted(&lat, 0.5), "ms");
    let work_s = match workload {
        Workload::ServePredict => {
            let mut rates = run.rps.clone();
            rates.sort_by(f64::total_cmp);
            println!(
                "closed loop: {} windows of {RATE_WINDOW} s, completions per second min {:.1}, quartiles {:.1} / {:.1} / {:.1}, max {:.1}",
                rates.len(),
                rates[0],
                quantile_sorted(&rates, 0.25),
                quantile_sorted(&rates, 0.5),
                quantile_sorted(&rates, 0.75),
                rates[rates.len() - 1]
            );
            WORK_REQUESTS / median(&run.rps)
        }
        _ => {
            let took: Vec<f64> = run
                .reloads
                .iter()
                .filter(|r| r.error.is_none())
                .map(|r| (r.done - r.sent).as_secs_f64())
                .collect();
            println!("reloads: {} sent, {} ok", run.reloads.len(), took.len());
            if took.is_empty() {
                f64::INFINITY
            } else {
                median(&took)
            }
        }
    };
    out.metric("work_s", work_s, "s");
    Ok(())
}
