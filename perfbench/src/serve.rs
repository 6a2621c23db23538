//! `serve_predict`: `POST /v1/predict` over loopback to the `irf-serve`
//! binary, closed loop, one connection per client thread.
//!
//! Each body carries an inline netlist (`irf_spice::write` of a demo
//! design). Even-numbered requests cycle through [`HOT`] designs that
//! stay in the server's stage store; odd-numbered ones cycle through
//! [`FRESH`] designs, more than the store's default capacity holds, so
//! about half the traffic hits the stack cache. Every response is
//! checked against a library analysis of the same design with the same
//! checkpoint and configuration, computed after set-up.

use crate::layers::{self, timed};
use crate::stats::{mean, median, ms, LayerSamples, Metric};
use crate::{repeated_setup, sys, Ctx, Outcome};
use ir_fusion::{design_fingerprint, FusionConfig, IrFusionPipeline, TrainedModel};
use irf_data::synth::{synthesize, SynthSpec};
use irf_models::ModelKind;
use irf_pg::PowerGrid;
use irf_runtime::Xoshiro256pp;
use irf_serve::json::{self, Json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Designs requested by every other request; they stay cached.
const HOT: usize = 2;
/// Designs cycled through by the other requests: far more than the
/// stage store holds, so they miss.
const FRESH: usize = 36;
/// Stage-store capacity, in designs per stage: 8 shards of 2 entries.
/// The store is full a third of the way into a run, so the peak RSS
/// covers a full store however many requests a run completes, and the
/// hot designs, touched every fourth request, stay in it.
const STORE: usize = 16;
/// Client connections (and threads) at most; fewer on smaller hosts.
const CONNECTIONS: usize = 2;
/// Tail percentile: leaves at least ten samples beyond it down to 67
/// requests; a 25-second run completes ~100.
const TAIL_PCT: u32 = 85;
/// Designs whose layers a traced run times in-process: two hot, two
/// fresh, matching the traffic mix.
const PROBES: [usize; 4] = [0, 1, HOT, HOT + 1];

/// The server configuration `irf-serve` runs without `--full`.
fn config() -> FusionConfig {
    FusionConfig::tiny()
}

/// What a correct response for one design contains.
struct Expected {
    design: String,
    max_drop: f64,
    mean_drop: f64,
    hotspot_count: f64,
}

/// A running `irf-serve` child; killed and reaped on drop.
struct ServerProcess {
    child: Child,
    addr: String,
    /// Kept open so a later write to stdout cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProcess {
    fn start(bin: &Path, checkpoint: &Path, log: &Path) -> Self {
        let log = std::fs::File::create(log).expect("create server log");
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--cache",
                &STORE.to_string(),
                "--model",
            ])
            .arg(checkpoint)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        stdout.read_line(&mut line).expect("read server banner");
        let Some(addr) = line.trim().strip_prefix("listening on http://") else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("server did not report its address (got {line:?})");
        };
        ServerProcess {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: &str) -> Self {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(std::io::Error::other)?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut bytes = vec![0; length];
        reader.read_exact(&mut bytes)?;
        if close {
            self.stream = None;
        }
        Ok((status, String::from_utf8_lossy(&bytes).into_owned()))
    }

    fn get(&mut self, path: &str) -> String {
        match self.send("GET", path, "") {
            Ok((200, body)) => body,
            other => panic!("GET {path} failed: {other:?}"),
        }
    }
}

struct Setup {
    texts: Vec<String>,
    bodies: Vec<String>,
    checkpoint: PathBuf,
    server: ServerProcess,
}

/// Design pool, checkpoint, and a listening server.
fn setup(ctx: &Ctx) -> Setup {
    let dir = ctx.work_dir.join("serve_predict");
    std::fs::create_dir_all(&dir).expect("create serve_predict work dir");
    let mut rng = Xoshiro256pp::seed_from_u64(ctx.seed);
    let texts: Vec<String> = (0..HOT + FRESH)
        .map(|i| {
            let seed = rng.next_u64();
            let spec = if i % 2 == 0 {
                irf_data::fake::fake_spec(seed)
            } else {
                irf_data::real_like::real_like_spec(seed)
            };
            // One size for every design (1,848 nodes, ~140 KB bodies):
            // request cost grows with body size, so a fixed size keeps
            // the latency distribution the same from seed to seed.
            let spec = SynthSpec {
                m1_stripes: 28,
                m2_stripes: 28,
                m4_stripes: 5,
                ..spec
            };
            irf_spice::write(&synthesize(&spec))
        })
        .collect();
    let bodies: Vec<String> = texts
        .iter()
        .map(|text| json::obj(vec![("netlist", Json::Str(text.clone()))]).render())
        .collect();

    let cfg = config();
    let dataset = irf_data::Dataset::generate(1, 1, 0, rng.next_u64());
    let model = ir_fusion::train(ModelKind::IrFusion, &dataset, &cfg);
    let n_layers = PowerGrid::from_netlist(&irf_spice::parse(&texts[0]).expect("demo parses"))
        .expect("demo grid")
        .layers()
        .len();
    let mut model_cfg = cfg.model;
    model_cfg.in_channels = cfg.feature_channels(n_layers);
    model_cfg.linear_head = model.residual;
    let checkpoint = dir.join("model.bin");
    let file = std::fs::File::create(&checkpoint).expect("create checkpoint");
    ir_fusion::save_model(&model, ModelKind::IrFusion, model_cfg, file).expect("save checkpoint");

    let server = ServerProcess::start(&ctx.serve_bin, &checkpoint, &dir.join("server.log"));
    Setup {
        texts,
        bodies,
        checkpoint,
        server,
    }
}

fn load_checkpoint(path: &Path) -> TrainedModel {
    let file = std::fs::File::open(path).expect("open checkpoint");
    ir_fusion::load_model(BufReader::new(file)).expect("load checkpoint")
}

/// The library's answer for one design, as `/v1/predict` reports it.
fn expected(pipeline: &IrFusionPipeline, model: &TrainedModel, text: &str) -> Expected {
    let grid =
        PowerGrid::from_netlist(&irf_spice::parse(text).expect("demo parses")).expect("demo grid");
    let stack = pipeline
        .stack_builder()
        .prepare(&grid)
        .expect("demo has pads");
    let map = pipeline.predict(model, &stack);
    let max_drop = f64::from(map.max());
    let threshold = max_drop * 0.9;
    Expected {
        design: format!("{:016x}", design_fingerprint(&grid, pipeline.config())),
        max_drop,
        mean_drop: f64::from(map.mean()),
        hotspot_count: map
            .data()
            .iter()
            .filter(|&&v| f64::from(v) >= threshold && v > 0.0)
            .count() as f64,
    }
}

/// The design request `k` carries.
fn design_of(k: usize) -> usize {
    if k.is_multiple_of(2) {
        (k / 2) % HOT
    } else {
        HOT + (k / 2) % FRESH
    }
}

/// Compares one response body with the expected analysis.
fn response_matches(body: &str, want: &Expected) -> Result<(), String> {
    let got = json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    let num = |key: &str| got.get(key).and_then(Json::as_f64);
    let fields = [
        ("max_drop", num("max_drop"), want.max_drop),
        ("mean_drop", num("mean_drop"), want.mean_drop),
        ("hotspot_count", num("hotspot_count"), want.hotspot_count),
    ];
    if got.get("design").and_then(Json::as_str) != Some(want.design.as_str()) {
        return Err(format!("design {:?} != {}", got.get("design"), want.design));
    }
    for (key, value, want) in fields {
        if value.map(f64::to_bits) != Some(want.to_bits()) {
            return Err(format!("{key} {value:?} != {want}"));
        }
    }
    Ok(())
}

struct Reply {
    k: usize,
    seconds: f64,
    status: u16,
    body: String,
}

/// Closed loop for `seconds`: each client thread sends its next
/// request as soon as the previous reply is read. Returns the replies
/// and the loop's wall seconds.
fn load(addr: &str, bodies: &[String], next: &AtomicUsize, seconds: f64) -> (Vec<Reply>, f64) {
    let clients = CONNECTIONS.min(sys::nproc());
    let start = Instant::now();
    let replies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let mut replies = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let (status, body) = conn
                            .send("POST", "/v1/predict", &bodies[design_of(k)])
                            .unwrap_or_else(|e| (0, e.to_string()));
                        replies.push(Reply {
                            k,
                            seconds: t0.elapsed().as_secs_f64(),
                            status,
                            body,
                        });
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (replies, start.elapsed().as_secs_f64())
}

/// Checks every reply and returns the latencies (ms) of the good ones.
fn check_replies(outcome: &mut Outcome, replies: &[Reply], want: &[Expected]) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(replies.len());
    for reply in replies {
        outcome.begin();
        let design = design_of(reply.k);
        let verdict = if reply.status == 200 {
            response_matches(&reply.body, &want[design])
        } else {
            Err(format!("status {}: {}", reply.status, reply.body))
        };
        match verdict {
            Ok(()) => latencies.push(ms(reply.seconds)),
            Err(e) => outcome.check(false, || {
                format!("request {} (design {design}): {e}", reply.k)
            }),
        }
    }
    latencies
}

/// Prometheus text exposition as `series → value`.
fn scrape(conn: &mut Conn) -> HashMap<String, f64> {
    conn.get("/v1/metrics")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Highest flight-recorder sequence number so far.
fn last_seq(conn: &mut Conn) -> f64 {
    recorder_predicts(conn, -1.0)
        .iter()
        .map(|(seq, _)| *seq)
        .fold(-1.0, f64::max)
}

/// `(seq, queue_seconds)` of recorded predict requests after `after`.
fn recorder_predicts(conn: &mut Conn, after: f64) -> Vec<(f64, f64)> {
    let body = conn.get("/v1/debug/requests");
    let parsed = json::parse(&body).expect("recorder JSON");
    let Some(Json::Arr(records)) = parsed.get("requests") else {
        panic!("recorder answer has no requests array");
    };
    records
        .iter()
        .filter_map(|r| {
            let seq = r.get("seq")?.as_f64()?;
            let endpoint = r.get("endpoint")?.as_str()?;
            let queue = r.get("queue_seconds")?.as_f64()?;
            (endpoint == "predict" && seq > after).then_some((seq, queue))
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (setup, setup_times) = repeated_setup(|| setup(ctx));
    let cfg = config();
    let pipeline = IrFusionPipeline::new(cfg);
    let model = load_checkpoint(&setup.checkpoint);
    let want: Vec<Expected> = setup
        .texts
        .iter()
        .map(|text| expected(&pipeline, &model, text))
        .collect();
    let mut outcome = Outcome::default();
    let addr = setup.server.addr.clone();

    // Warm-up: the hot designs enter the store.
    let mut admin = Conn::new(&addr);
    for (design, (request, expected)) in setup.bodies.iter().zip(&want).take(HOT).enumerate() {
        outcome.begin();
        let (status, body) = admin
            .send("POST", "/v1/predict", request)
            .expect("warm-up request");
        outcome.check(
            status == 200 && response_matches(&body, expected).is_ok(),
            || format!("warm-up design {design}: status {status}: {body}"),
        );
    }
    let next = AtomicUsize::new(0);

    if !ctx.trace {
        let pid = setup.server.child.id().to_string();
        let rss_reset = sys::reset_peak_rss(&pid);
        let cpu0 = sys::cpu_seconds(&pid);
        let (replies, wall) = load(&addr, &setup.bodies, &next, ctx.seconds);
        let cpu = sys::cpu_seconds(&pid) - cpu0;
        let latencies = check_replies(&mut outcome, &replies, &want);
        let peak = sys::peak_rss_mb(&pid).unwrap_or(0.0);
        // Server CPU over every request sent: a refused request still
        // cost the server its share.
        let n = replies.len() as f64;
        outcome.metrics = vec![
            Metric::new("setup_s", "s", median(&setup_times), setup_times.len()),
            Metric::new("peak_rss_mb", "MB", peak, 1),
            Metric::new("op_cpu_ms", "ms", ms(cpu) / n, replies.len()),
            Metric::new("ops_per_cpu_s", "1/s", n / cpu, replies.len()),
        ];
        outcome.row = vec![
            Metric::new(
                "requests_per_s",
                "1/s",
                latencies.len() as f64 / wall,
                latencies.len(),
            ),
            Metric::percentile("latency_p50_ms", "ms", &latencies, 50),
            Metric::percentile("latency_tail_ms", "ms", &latencies, TAIL_PCT),
            Metric::new(
                "peak_rss_load_only",
                "bool",
                f64::from(u8::from(rss_reset)),
                1,
            ),
        ];
        return outcome;
    }

    // Traced: an untraced half, then a half bracketed by scrapes of the
    // server's metrics and flight recorder, then in-process probes.
    let (replies, _) = load(&addr, &setup.bodies, &next, ctx.seconds / 2.0);
    let untraced = check_replies(&mut outcome, &replies, &want);
    let before = scrape(&mut admin);
    let seq = last_seq(&mut admin);
    let (replies, _) = load(&addr, &setup.bodies, &next, ctx.seconds / 2.0);
    let traced = check_replies(&mut outcome, &replies, &want);
    let after = scrape(&mut admin);
    let queue: Vec<f64> = recorder_predicts(&mut admin, seq)
        .iter()
        .map(|(_, q)| ms(*q))
        .collect();
    let delta = |key: &str| {
        after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
    };

    let mut layers = LayerSamples::default();
    let requests = delta("irf_http_request_seconds_count{endpoint=\"predict\"}");
    let per_request = |key: &str| ms(delta(key)) / requests.max(1.0);
    let handler = per_request("irf_http_request_seconds_sum{endpoint=\"predict\"}");
    let stages: f64 = ["parse", "prepare", "infer"]
        .iter()
        .map(|s| per_request(&format!("irf_stage_seconds_total{{stage=\"{s}\"}}")))
        .sum();
    let client = mean(&traced);
    layers.push("serve.handler_ms", "ms", handler);
    layers.push("serve.transport_ms", "ms", client - handler);
    layers.push("serve.queue_wait_ms", "ms", mean(&queue));
    layers.push(
        "serve.batch_size_mean",
        "count",
        delta("irf_batch_size_sum") / delta("irf_batch_size_count").max(1.0),
    );
    let hits = delta("irf_stage_cache_events_total{stage=\"stack\",event=\"hit\"}");
    let misses = delta("irf_stage_cache_events_total{stage=\"stack\",event=\"miss\"}");
    layers.push(
        "core.cache_hit_rate",
        "ratio",
        hits / (hits + misses).max(1.0),
    );
    layers.push("core.cache_hits", "count", delta("irf_cache_hits_total"));
    layers.push(
        "core.cache_misses",
        "count",
        delta("irf_cache_misses_total"),
    );
    layers.push(
        "trace.overhead_pct",
        "%",
        100.0 * (median(&traced) - median(&untraced)) / median(&untraced),
    );

    for &design in &PROBES {
        probe(
            &mut outcome,
            &pipeline,
            &model,
            &setup,
            design,
            &want[design],
            &mut layers,
        );
    }
    let json_parse = median(layers.values("serve.json_parse_ms"));
    layers.push(
        "trace.coverage",
        "ratio",
        (client - handler + json_parse + stages) / client,
    );
    outcome.row = vec![Metric::new(
        "serve.json_parse_loopback_ms",
        "ms",
        handler - stages,
        traced.len(),
    )];
    outcome.metrics = layers.into_metrics();
    outcome
}

/// Times the request path's layers in-process on one design: JSON
/// body parse, SPICE parse, grid build, the cold stage walk, and the
/// forward pass; the walk's prediction must match the server's.
fn probe(
    outcome: &mut Outcome,
    pipeline: &IrFusionPipeline,
    model: &TrainedModel,
    setup: &Setup,
    design: usize,
    want: &Expected,
    layers: &mut LayerSamples,
) {
    outcome.begin();
    // The parse is quadratic in the body and bound by memory traffic,
    // so one untimed parse warms the allocator and caches first.
    let parse = || json::parse(&setup.bodies[design]).expect("body parses");
    let body = parse();
    for _ in 0..2 {
        let (_, s) = timed(parse);
        layers.push("serve.json_parse_ms", "ms", ms(s));
    }
    let text = body.get("netlist").and_then(Json::as_str).expect("netlist");
    let (netlist, s) = timed(|| irf_spice::parse(text).expect("demo parses"));
    layers.push("spice.parse_ms", "ms", ms(s));
    let (grid, s) = timed(|| PowerGrid::from_netlist(&netlist).expect("demo grid"));
    layers.push("pg.from_netlist_ms", "ms", ms(s));
    let cfg = *pipeline.config();
    let (stack, drops, _) = layers::cold_walk(&cfg, &grid, layers);
    let (map, s) = timed(|| pipeline.predict(model, &stack));
    layers.push("models.forward_ms", "ms", ms(s));
    outcome.check(
        f64::from(map.max()).to_bits() == want.max_drop.to_bits()
            && f64::from(map.mean()).to_bits() == want.mean_drop.to_bits(),
        || format!("design {design}: decomposed walk disagrees with the pipeline"),
    );
    layers::feature_families(&cfg, &grid, &drops, layers);
    layers::forward_batches(pipeline, model, &stack, layers);
    let structure = irf_pg::PgStructure::build(&grid);
    layers.push(
        "sparse.amg_levels",
        "count",
        layers::amg_levels(&cfg, &structure.matrix) as f64,
    );
}
