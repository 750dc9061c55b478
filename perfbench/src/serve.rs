//! `serve-mixed`: an in-process `qla_serve::serve` on a loopback ephemeral
//! port, driven by a closed loop of two client connections.
//!
//! Request keys (experiment × profile × seed) come from a seeded Zipf draw
//! over a universe of 576 keys, more than the service's default cache
//! capacity of 256, so entries are evicted and re-evaluated. Ranks are
//! dealt in blocks of eight — one key of each of the seven analytic
//! experiments and one sim-backed key — so every seed sees the same mix;
//! the seed decides which profile and request seed sit at each rank and
//! where in each block the sim-backed key sits. Formats rotate through
//! text, json and csv.
//!
//! The benchmark supplies the service's experiment lookup: it looks the name
//! up in the `qla-bench` registry and wraps the experiment so that an
//! evaluation marks the connection's in-flight request as a miss. Each
//! connection is served by its own server thread; the lookup learns which
//! thread serves which client from the order of their first requests.

use crate::clock::{Spent, Stopwatch};
use crate::spans::Tracer;
use crate::stats::{supported_percentile, supported_percentile_sorted};
use crate::{
    median_or_zero, phase_budget, repeated_setup, set_end_to_end, set_self_times, set_setup_layers,
    tracing_overhead_s, Args, Outcome,
};
use qla_core::stats::percentile_f64;
use qla_core::{fnv1a64, DynExperiment, ExperimentContext, MachineSpec, BUILTIN_PROFILES};
use qla_report::Report;
use qla_serve::{serve, Json, ServeConfig, Service};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// Client connections (closed loop: each waits for its reply).
pub const CLIENTS: usize = 2;
/// Sub-millisecond analytic experiments.
pub const ANALYTIC: [&str; 7] = [
    "table1",
    "channel-bandwidth",
    "ecc-latency",
    "recursion-analysis",
    "fig9-connection",
    "table2-shor",
    "factor128-walkthrough",
];
/// Experiments that run the discrete-event simulator.
pub const SIM_BACKED: [&str; 2] = ["sim-tail-latency", "sensitivity"];
/// Ranks are dealt in blocks: one key of every analytic experiment and one
/// sim-backed key per block.
pub const BLOCK_KEYS: usize = ANALYTIC.len() + 1;
/// Blocks in the key universe.
pub const BLOCKS: usize = 72;
/// Key universe: 72 blocks of 8 keys (504 analytic, 72 sim-backed).
pub const UNIVERSE: usize = BLOCKS * BLOCK_KEYS;
/// Zipf exponent of the key draw.
pub const ZIPF_EXPONENT: f64 = 1.2;
/// Response formats, rotated per request.
pub const FORMATS: [&str; 3] = ["text", "json", "csv"];
/// Set-up fills the cache with the hottest keys: the first this many
/// ranks (the cache capacity), dealt alternately to the clients, so every
/// seed warms the same mix of experiments.
pub const WARMUP_KEYS: usize = 256;
/// Completed requests per timed block (the `cpu_s` unit of work).
pub const BLOCK: usize = 1_000;
/// Hit latencies are kept in one buffer that set-up allocates and writes
/// once, with this many slots per client per second of `--seconds`, so the
/// process's peak memory does not grow with the requests a run completes.
/// A client stops early if its share fills up; that takes over three times
/// the request rate of a 2-vCPU 2.0 GHz Xeon host.
pub const HIT_SLOTS_PER_CLIENT_S: usize = 20_000;
/// Fewest hits and misses a run needs for its latency tails.
pub const MIN_HITS: usize = 1_000;
/// See [`MIN_HITS`].
pub const MIN_MISSES: usize = 100;

/// The seeded key universe and its rank distribution.
struct Keys {
    lines: Vec<[String; 3]>,
    cdf: Vec<f64>,
}

impl Keys {
    fn new(seed: u64) -> Keys {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Where the sim-backed key sits inside each block.
        let sim_slot = rng.random_range(0..BLOCK_KEYS);
        let base: u64 = rng.random_range(0..1_000_000);
        // (profile, request seed) pairs in seeded orders: 72 per analytic
        // experiment, 36 per sim-backed one.
        let mut pairs = |count: usize| {
            let mut pairs: Vec<(&str, u64)> = (0..count)
                .map(|i| {
                    (
                        BUILTIN_PROFILES[i % BUILTIN_PROFILES.len()],
                        base + i as u64,
                    )
                })
                .collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.random_range(0..=i));
            }
            pairs
        };
        let analytic = pairs(BLOCKS);
        let sim = pairs(BLOCKS / SIM_BACKED.len());
        let lines = (0..UNIVERSE)
            .map(|rank| {
                let (block, slot) = (rank / BLOCK_KEYS, rank % BLOCK_KEYS);
                let (experiment, (profile, seed)) = if slot == sim_slot {
                    (
                        SIM_BACKED[block % SIM_BACKED.len()],
                        sim[block / SIM_BACKED.len()],
                    )
                } else {
                    let index = (slot + BLOCK_KEYS - sim_slot - 1) % BLOCK_KEYS;
                    (ANALYTIC[index], analytic[block])
                };
                FORMATS.map(|format| {
                    format!(
                        "{{\"experiment\": \"{experiment}\", \"profile\": \"{profile}\", \"seed\": {seed}, \"format\": \"{format}\"}}\n"
                    )
                })
            })
            .collect();
        let weights: Vec<f64> = (1..=UNIVERSE)
            .map(|r| (r as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Keys { lines, cdf }
    }

    /// Draw one rank.
    fn draw(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(UNIVERSE - 1)
    }
}

/// State the lookup closure and the clients share.
struct Probe {
    tracer: Tracer,
    /// Server threads in order of their first lookup: index = client.
    threads: Mutex<Vec<ThreadId>>,
    /// The span id (and group) of each client's in-flight request.
    inflight: [AtomicU64; CLIENTS],
    /// Whether the in-flight request evaluated an experiment, and for how long.
    eval_ns: [AtomicU64; CLIENTS],
    evaluated: [AtomicBool; CLIENTS],
    lookups: AtomicU64,
    lookup_ns: AtomicU64,
}

impl Probe {
    fn client(&self) -> usize {
        let me = std::thread::current().id();
        let mut threads = self.threads.lock().expect("thread map poisoned");
        let index = threads.iter().position(|&t| t == me).unwrap_or_else(|| {
            threads.push(me);
            threads.len() - 1
        });
        assert!(index < CLIENTS, "more serving threads than clients");
        index
    }

    /// Record a server-side span under the client's in-flight request;
    /// request id 0 means the request is not traced.
    fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if request != 0 {
            let id = self.tracer.reserve_id();
            self.tracer
                .record(id, name, Some(request), request, start, end);
        }
    }

    fn lookup(self: &Arc<Self>, name: &str) -> Option<Box<dyn DynExperiment>> {
        let client = self.client();
        let request = self.inflight[client].load(Ordering::SeqCst);
        let start = Instant::now();
        let found = qla_bench::registry::find(name);
        let end = Instant::now();
        self.lookups.fetch_add(1, Ordering::SeqCst);
        self.lookup_ns
            .fetch_add(nanos(end - start), Ordering::SeqCst);
        self.record("serve.lookup", request, start, end);
        found.map(|inner| {
            Box::new(Probed {
                inner,
                probe: Arc::clone(self),
                client,
            }) as Box<dyn DynExperiment>
        })
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A looked-up experiment whose evaluation is timed and marks a miss.
struct Probed {
    inner: Box<dyn DynExperiment>,
    probe: Arc<Probe>,
    client: usize,
}

impl DynExperiment for Probed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn title(&self) -> &'static str {
        self.inner.title()
    }
    fn description(&self) -> &'static str {
        self.inner.description()
    }
    fn default_trials(&self) -> usize {
        self.inner.default_trials()
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        self.inner.spec_fields()
    }
    fn run_report(&self, ctx: &ExperimentContext) -> Report {
        let probe = &self.probe;
        let request = probe.inflight[self.client].load(Ordering::SeqCst);
        let start = Instant::now();
        let report = self.inner.run_report(ctx);
        let end = Instant::now();
        probe.eval_ns[self.client].store(nanos(end - start), Ordering::SeqCst);
        probe.evaluated[self.client].store(true, Ordering::SeqCst);
        probe.record("core.run_report", request, start, end);
        report
    }
}

/// One client connection.
struct Client {
    index: usize,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    rng: ChaCha8Rng,
    sent: usize,
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Answer {
    latency_s: f64,
    miss: bool,
    /// Evaluation time of a miss; 0 for a hit.
    eval_s: f64,
    ok: bool,
    /// The connection failed; the client stops.
    broken: bool,
}

/// A correctly answered miss.
#[derive(Debug, Clone, Copy)]
struct Miss {
    latency_s: f64,
    eval_s: f64,
}

impl Client {
    fn connect(addr: SocketAddr, index: usize, seed: u64) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            index,
            reader,
            writer: stream,
            rng: ChaCha8Rng::seed_from_u64(qla_core::mix64(seed ^ (index as u64 + 1))),
            sent: 0,
        })
    }

    /// Send one line and read one response line.
    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Send and check one request for the key at `rank`.
    fn send(&mut self, rank: usize, keys: &Keys, shared: &Shared, tracer: &Tracer) -> Answer {
        let format = self.sent % FORMATS.len();
        self.sent += 1;
        let probe = &shared.probe;
        let id = tracer.reserve_id();
        probe.inflight[self.index].store(id, Ordering::SeqCst);
        let start = Instant::now();
        let response = self.round_trip(&keys.lines[rank][format]);
        let done = Instant::now();
        tracer.record(id, "serve.request", None, id, start, done);
        let miss = probe.evaluated[self.index].swap(false, Ordering::SeqCst);
        let eval_s = probe.eval_ns[self.index].swap(0, Ordering::SeqCst) as f64 / 1e9;
        let broken = response.is_err();
        let ok = match response {
            Ok(body) => {
                body.starts_with("{\"status\":\"ok\"") && shared.same_as_first(rank, format, body)
            }
            Err(e) => {
                shared.note_error(e);
                false
            }
        };
        Answer {
            latency_s: (done - start).as_secs_f64(),
            miss,
            eval_s,
            ok,
            broken,
        }
    }
}

/// The live server plus what its clients share.
struct Shared {
    probe: Arc<Probe>,
    /// Length and FNV-1a 64 digest of the first response per (rank,
    /// format); later ones must match it. Digests, not bodies, so that
    /// memory does not grow with the number of distinct keys a run reaches.
    first: Mutex<HashMap<(usize, usize), (usize, u64)>>,
    errors: Mutex<Vec<String>>,
}

impl Shared {
    fn same_as_first(&self, rank: usize, format: usize, body: String) -> bool {
        let digest = (body.len(), fnv1a64(body.as_bytes()));
        let mut first = self.first.lock().expect("response map poisoned");
        *first.entry((rank, format)).or_insert(digest) == digest
    }

    fn note_error(&self, e: String) {
        self.errors.lock().expect("error log poisoned").push(e);
    }
}

/// A running server, its two clients and the warm-up tallies.
struct Setup {
    shared: Arc<Shared>,
    clients: Vec<Client>,
    addr: SocketAddr,
    server: Option<JoinHandle<std::io::Result<u64>>>,
    keys: Arc<Keys>,
    /// Hit latencies (s): one equal share per client while a drive runs;
    /// afterwards its first `Driven::hits` slots hold them all, sorted.
    hit_latencies: Vec<f64>,
    /// Client-side hits, misses and failures so far (all phases).
    tally: Tally,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    hits: u64,
    misses: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, driven: &Driven) {
        self.hits += driven.hits as u64;
        self.misses += driven.misses.len() as u64;
        self.failed += driven.failed as u64;
    }
}

impl Setup {
    fn new(
        tracer: &Tracer,
        group: u64,
        seed: u64,
        hit_slots_per_client: usize,
    ) -> Result<Setup, String> {
        // Every request names a built-in profile; the server parses and
        // builds it per request. Set-up parses and builds the default one
        // once, as the other workloads do.
        let text = MachineSpec::expected().render();
        let spec = tracer
            .span("core.spec_parse", None, group, |_| {
                MachineSpec::parse(&text)
            })
            .map_err(|e| format!("spec parse: {e}"))?;
        tracer
            .span("core.machine_build", None, group, |_| spec.machine())
            .map_err(|e| format!("machine build: {e}"))?;

        let keys = Arc::new(Keys::new(seed));
        let probe = Arc::new(Probe {
            tracer: tracer.clone(),
            threads: Mutex::new(Vec::new()),
            inflight: Default::default(),
            eval_ns: Default::default(),
            evaluated: Default::default(),
            lookups: AtomicU64::new(0),
            lookup_ns: AtomicU64::new(0),
        });
        let lookup_probe = Arc::clone(&probe);
        let service = Service::new(
            Box::new(move |name| lookup_probe.lookup(name)),
            ServeConfig::default(),
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server = std::thread::spawn(move || serve(&service, &listener));
        let shared = Arc::new(Shared {
            probe,
            first: Mutex::new(HashMap::new()),
            errors: Mutex::new(Vec::new()),
        });
        let mut setup = Setup {
            shared,
            clients: Vec::new(),
            addr,
            server: Some(server),
            keys,
            // Written (not just reserved) so its pages are resident from
            // the start; NaN rather than 0 so the allocation cannot become
            // an untouched zeroed one.
            hit_latencies: vec![f64::NAN; CLIENTS * hit_slots_per_client.max(1)],
            tally: Tally::default(),
        };
        // Connect one client at a time and let each send its first request
        // (rank = its index) before the next connects, so server threads
        // map to clients in order. The warm-up then requests the remaining
        // hottest ranks from both clients at once.
        let untraced = Tracer::new(false);
        for index in 0..CLIENTS {
            let mut client = Client::connect(addr, index, seed)?;
            let answer = client.send(index, &setup.keys, &setup.shared, &untraced);
            let mut first = Driven::default();
            first.add(answer, &mut []);
            setup.tally.add(&first);
            setup.clients.push(client);
        }
        let warmup = setup.drive(&untraced, |client, _, answered| {
            let rank = client.index + CLIENTS * (answered + 1);
            (rank < WARMUP_KEYS).then_some(rank)
        });
        setup.tally.add(&warmup);
        Ok(setup)
    }

    /// Run every client in its own thread, each sending the ranks
    /// `next(client, elapsed, answered so far)` yields until it yields
    /// `None`, a connection breaks or its share of the hit-latency buffer
    /// is full. Leaves the hit latencies sorted at the front of
    /// [`Setup::hit_latencies`].
    fn drive(
        &mut self,
        tracer: &Tracer,
        next: impl Fn(&mut Client, Duration, usize) -> Option<usize> + Sync,
    ) -> Driven {
        let start = Instant::now();
        let keys = &self.keys;
        let shared = &self.shared;
        let next = &next;
        let completed = AtomicUsize::new(0);
        // Block boundaries, taken under the lock so they stay in time order.
        let marks = Mutex::new(vec![Stopwatch::start()]);
        let (completed, marks) = (&completed, &marks);
        let slots = self.hit_latencies.len() / CLIENTS;
        let runs: Vec<Driven> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.hit_latencies.chunks_mut(slots))
                .map(|(client, share)| {
                    scope.spawn(move || {
                        let mut run = Driven::default();
                        while run.hits < share.len() {
                            let Some(rank) = next(client, start.elapsed(), run.sent) else {
                                break;
                            };
                            let answer = client.send(rank, keys, shared, tracer);
                            run.add(answer, share);
                            if (completed.fetch_add(1, Ordering::SeqCst) + 1) % BLOCK == 0 {
                                let mut marks = marks.lock().expect("block marks poisoned");
                                marks.push(Stopwatch::start());
                            }
                            if answer.broken {
                                break;
                            }
                        }
                        run
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        // Gather the clients' hit latencies at the front, in place.
        let mut driven = Driven::default();
        for (index, run) in runs.into_iter().enumerate() {
            let from = index * slots;
            self.hit_latencies
                .copy_within(from..from + run.hits, driven.hits);
            driven.sent += run.sent;
            driven.hits += run.hits;
            driven.misses.extend(run.misses);
            driven.failed += run.failed;
        }
        self.hit_latencies[..driven.hits].sort_unstable_by(f64::total_cmp);
        let marks = marks.lock().expect("block marks poisoned");
        driven.blocks = marks.windows(2).map(|w| w[0].until(&w[1])).collect();
        driven
    }

    /// The service counters, read through the protocol.
    fn stats(&mut self) -> Result<Json, String> {
        let line = self.clients[0].round_trip("{\"cmd\": \"stats\"}\n")?;
        Json::parse(line.trim_end()).map_err(|e| format!("stats response: {e}"))
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        // Close the clients so their server threads see end of input, then
        // stop the accept loop and wait for the server to finish.
        self.clients.clear();
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let _ = stream.write_all(b"{\"cmd\": \"shutdown\"}\n");
            let mut ack = String::new();
            let _ = BufReader::new(stream).read_line(&mut ack);
        }
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

fn counter(stats: &Json, key: &str) -> u64 {
    stats.field(key).and_then(Json::as_u64).unwrap_or(0)
}

/// What one [`Setup::drive`] (or one of its clients) produced.
#[derive(Debug, Default)]
struct Driven {
    /// Requests answered or broken.
    sent: usize,
    /// Correctly answered hits; their latencies are in the hit buffer.
    hits: usize,
    /// Correctly answered misses.
    misses: Vec<Miss>,
    /// Requests that failed, were refused or differed from their first
    /// answer.
    failed: usize,
    /// Each block of [`BLOCK`] completed requests (a trailing partial block
    /// is left out).
    blocks: Vec<Spent>,
}

impl Driven {
    /// Count one answer, writing a hit's latency to `hit_latencies`.
    fn add(&mut self, answer: Answer, hit_latencies: &mut [f64]) {
        self.sent += 1;
        if !answer.ok {
            self.failed += 1;
        } else if answer.miss {
            self.misses.push(Miss {
                latency_s: answer.latency_s,
                eval_s: answer.eval_s,
            });
        } else {
            if let Some(slot) = hit_latencies.get_mut(self.hits) {
                *slot = answer.latency_s;
            }
            self.hits += 1;
        }
    }
}

/// Run the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let untraced = Tracer::new(false);
    let slots = args.seconds.ceil() as usize * HIT_SLOTS_PER_CLIENT_S;
    let (mut setup, setup_s) = repeated_setup(|group| Setup::new(tracer, group, args.seed, slots))?;

    let keys = Arc::clone(&setup.keys);
    let timed = |client: &mut Client, t: Duration, _| {
        (t < phase_budget(args)).then(|| keys.draw(&mut client.rng))
    };
    let plain = setup.drive(&untraced, timed);
    setup.tally.add(&plain);
    let blocks = &plain.blocks;
    let passes: Vec<(Spent, f64)> = blocks.iter().map(|b| (*b, BLOCK as f64)).collect();
    set_end_to_end(
        &mut outcome,
        tracer.enabled(),
        &setup_s,
        &passes,
        "serve_requests",
    );
    let hits = &setup.hit_latencies[..plain.hits];
    let misses: Vec<f64> = plain.misses.iter().map(|m| m.latency_s).collect();
    // Client-side latency figures, from the untraced phase. A tail without
    // ten samples beyond it is NaN here: "too few" in the printed block and
    // 0 as a per-layer metric.
    let latency = [
        (
            "hit_latency_p50_us",
            if hits.is_empty() {
                0.0
            } else {
                percentile_f64(hits, 50.0) * 1e6
            },
            "us",
            hits.len(),
        ),
        (
            "hit_latency_p99_us",
            supported_percentile_sorted(hits, 99.0).unwrap_or(f64::NAN) * 1e6,
            "us",
            hits.len(),
        ),
        (
            "miss_latency_p50_ms",
            median_or_zero(&misses) * 1e3,
            "ms",
            misses.len(),
        ),
        (
            "miss_latency_p90_ms",
            supported_percentile(&misses, 90.0).unwrap_or(f64::NAN) * 1e3,
            "ms",
            misses.len(),
        ),
    ];

    let (hit_count, miss_count) = (hits.len(), misses.len());
    let mut traced = Driven::default();
    if tracer.enabled() {
        let lookups = setup.shared.probe.lookups.load(Ordering::SeqCst);
        let lookup_ns = setup.shared.probe.lookup_ns.load(Ordering::SeqCst);
        let mid = setup.stats()?;
        traced = setup.drive(tracer, timed);
        setup.tally.add(&traced);
        let after = setup.stats()?;
        let delta = |key| (counter(&after, key) - counter(&mid, key)) as f64;
        let probe = &setup.shared.probe;
        outcome.set(
            "serve.lookups",
            (probe.lookups.load(Ordering::SeqCst) - lookups) as f64,
        );
        outcome.set(
            "serve.lookup_s",
            (probe.lookup_ns.load(Ordering::SeqCst) - lookup_ns) as f64 / 1e9,
        );
        for (metric, key) in [
            ("serve.hits", "hits"),
            ("serve.misses", "misses"),
            ("serve.evictions", "evictions"),
            ("serve.shed", "shed"),
            ("serve.errors", "errors"),
        ] {
            outcome.set(metric, delta(key));
        }
        outcome.set(
            "serve.peak_in_flight",
            counter(&after, "peak_in_flight") as f64,
        );
        outcome.set(
            "serve.hit_ratio",
            delta("hits") / delta("requests").max(1.0),
        );
        let evals: Vec<f64> = traced.misses.iter().map(|m| m.eval_s).collect();
        let overheads: Vec<f64> = traced
            .misses
            .iter()
            .map(|m| m.latency_s - m.eval_s)
            .collect();
        outcome.set(
            "serve.client_hit_share",
            traced.hits as f64 / traced.sent.max(1) as f64,
        );
        outcome.set("serve.eval_s", evals.iter().sum());
        outcome.set("serve.eval_p50_ms", median_or_zero(&evals) * 1e3);
        outcome.set(
            "serve.miss_overhead_p50_ms",
            median_or_zero(&overheads) * 1e3,
        );
        for (metric, (_, value, _, _)) in [
            "serve.hit_latency_p50_us",
            "serve.hit_latency_p99_us",
            "serve.miss_latency_p50_ms",
            "serve.miss_latency_p90_ms",
        ]
        .into_iter()
        .zip(latency)
        {
            outcome.set(metric, if value.is_nan() { 0.0 } else { value });
        }
        outcome.set(
            "bench.tracing_overhead_s",
            tracing_overhead_s(&traced.blocks, blocks),
        );
        let spans = tracer.spans();
        set_setup_layers(&mut outcome, &spans);
        set_self_times(&mut outcome, &spans, traced.blocks.len());
    }

    // Correctness: every request answered `ok` with the bytes of the first
    // answer for its key and format, and the client-side tallies equal the
    // service's own counters.
    let after = setup.stats()?;
    let answered = plain.sent + traced.sent;
    let failed_requests = plain.failed + traced.failed;
    outcome.attempted += answered as u64;
    outcome.failed += failed_requests as u64;
    if failed_requests > 0 {
        outcome.failures.push(format!(
            "{failed_requests} requests failed, refused or differed from their first answer; {:?}",
            setup
                .shared
                .errors
                .lock()
                .expect("error log poisoned")
                .first()
        ));
    }
    let tally = setup.tally;
    let server = Tally {
        hits: counter(&after, "hits"),
        misses: counter(&after, "misses"),
        failed: counter(&after, "shed") + counter(&after, "errors"),
    };
    outcome.check(1, tally == server, || {
        format!("client tallies {tally:?} != stats endpoint {server:?}")
    });
    outcome.check(1, hit_count >= MIN_HITS && miss_count >= MIN_MISSES, || {
        format!(
            "{hit_count} hits and {miss_count} misses; \
                 the latency tails need at least {MIN_HITS} and {MIN_MISSES}"
        )
    });

    for (name, value, unit, samples) in latency {
        outcome.named(name, value, unit, samples);
    }
    outcome.notes.push(format!(
        "client tallies hits {} misses {} failed {}; stats endpoint hits {} misses {} shed+errors {} \
         evictions {} peak_in_flight {}",
        tally.hits,
        tally.misses,
        tally.failed,
        server.hits,
        server.misses,
        server.failed,
        counter(&after, "evictions"),
        counter(&after, "peak_in_flight")
    ));
    Ok(outcome)
}
