//! End-to-end benchmark of the file-driven HEP pipeline (see `README.md`
//! next to this package for the workloads and what every metric means).
//!
//! One invocation runs one workload. Set-up generates the workload's Table-3
//! analog, relabels its vertices by `--seed` and writes it as a HEPB v2
//! file. The timed region is one call to `Hep::partition_file_with_report`
//! on that file, repeated for `--seconds`; every run's output is checked
//! outside the timed region. With `--trace 1` the same pipeline is also
//! composed from the outside, layer by layer, and each layer call is
//! recorded as an in-memory span.
//!
//! Usage: `hep-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--commit <sha>] [--work-dir <dir>]`. A provenance report is printed
//! first; the last line of stdout is the result object.

use hep_bench::report::{Json, Report};
use hep_core::nepp::run_nepp;
use hep_core::{
    estimate_stream_overhead_bytes, plan_ingest, plan_stream_batch, stream_h2h, Hep, HepConfig,
    IngestPlan,
};
use hep_ds::{Hasher64, SplitMix64};
use hep_graph::partitioner::{CollectedAssignment, TeeSink};
use hep_graph::{
    AssignSink, BinaryEdgeFile, DegreeStats, EdgeList, GraphError, IoMode, PartitionId, PrunedCsr,
    VertexId,
};
use hep_metrics::{alloc_track, validate_assignment, PartitionMetrics};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

/// Set-ups per untraced invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Fewest timed runs per measured loop, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// The balance cap α every workload runs with (the paper's default).
const ALPHA: f64 = 1.05;

/// Vertex ids per block of the seeded relabeling (see [`relabel`]).
const RELABEL_BLOCK: u32 = 4096;

/// One named benchmark input: a Table-3 analog plus the HEP configuration
/// and host settings it is partitioned with.
struct Workload {
    name: &'static str,
    dataset: &'static str,
    scale: u32,
    tau: f64,
    k: u32,
    threads: usize,
    io_mode: IoMode,
    budget_bytes: Option<u64>,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "social-stream",
        dataset: "TW",
        scale: 8,
        tau: 1.0,
        k: 128,
        threads: 1,
        io_mode: IoMode::Buffered,
        budget_bytes: None,
    },
    Workload {
        name: "web-budget",
        dataset: "WDC",
        scale: 8,
        tau: 10.0,
        k: 32,
        threads: 1,
        io_mode: IoMode::Mmap,
        budget_bytes: Some(200 << 20),
    },
];

impl Workload {
    /// The HEP configuration of this workload. Everything not set here is
    /// the library default (the caller clears `HEP_*` knobs from the
    /// environment, so defaults are the paper's serial path).
    fn config(&self) -> HepConfig {
        let mut config = HepConfig::with_tau(self.tau);
        config.alpha = ALPHA;
        config.memory_budget_bytes = self.budget_bytes;
        config.io_mode = self.io_mode;
        config
    }
}

struct Args {
    workload: &'static Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    commit: String,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut commit = "unknown".to_string();
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("want a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--commit" => commit = value,
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, commit, work_dir })
}

fn dataset(w: &Workload) -> hep_gen::Dataset {
    hep_gen::dataset(w.dataset, w.scale).expect("every workload names a Table-3 analog")
}

/// Streaming output check fed by the partitioner: partition metrics plus an
/// XXH64 fingerprint of the `(u, v, p)` emission sequence. Its memory is
/// allocated up front (k vertex bitsets and a fixed staging buffer), so it
/// adds nothing to a run's measured peak.
struct CheckSink {
    metrics: PartitionMetrics,
    hasher: Hasher64,
    staged: Vec<u8>,
}

/// Staging buffer size: whole 12-byte records, hashed in ~4 KiB blocks.
const STAGE_BYTES: usize = 12 * 341;

impl CheckSink {
    fn new(k: u32, num_vertices: u32) -> CheckSink {
        CheckSink {
            metrics: PartitionMetrics::new(k, num_vertices),
            hasher: Hasher64::with_seed(0),
            staged: Vec::with_capacity(STAGE_BYTES),
        }
    }

    fn fingerprint(&mut self) -> u64 {
        self.hasher.write(&self.staged);
        self.staged.clear();
        self.hasher.finish()
    }
}

impl AssignSink for CheckSink {
    fn assign(&mut self, u: VertexId, v: VertexId, p: PartitionId) {
        self.metrics.assign(u, v, p);
        if self.staged.len() == STAGE_BYTES {
            self.hasher.write(&self.staged);
            self.staged.clear();
        }
        self.staged.extend_from_slice(&u.to_le_bytes());
        self.staged.extend_from_slice(&v.to_le_bytes());
        self.staged.extend_from_slice(&p.to_le_bytes());
    }
}

/// What one checked run produced.
struct Checked {
    fingerprint: u64,
    replication_factor: f64,
    edge_balance: f64,
}

/// The per-run output check: every edge assigned, balance within α (up to
/// the one-edge rounding of the cap), and — once a reference exists — the
/// same assignment fingerprint as the validated run.
fn check(
    sink: &mut CheckSink,
    num_edges: u64,
    k: u32,
    reference: Option<u64>,
) -> Result<Checked, String> {
    let assigned = sink.metrics.total_edges();
    if assigned != num_edges {
        return Err(format!("assigned {assigned} of {num_edges} edges"));
    }
    let edge_balance = sink.metrics.balance_factor();
    if edge_balance > ALPHA + k as f64 / num_edges as f64 {
        return Err(format!("edge balance {edge_balance} exceeds alpha {ALPHA}"));
    }
    let fingerprint = sink.fingerprint();
    if let Some(expected) = reference {
        if fingerprint != expected {
            return Err(format!("fingerprint {fingerprint:016x} != reference {expected:016x}"));
        }
    }
    Ok(Checked { fingerprint, replication_factor: sink.metrics.replication_factor(), edge_balance })
}

/// Relabels `graph` by a seeded permutation of whole blocks of
/// [`RELABEL_BLOCK`] vertex ids (ids in the last, partial block keep their
/// labels), then restores source order. Every seed yields an isomorphic
/// copy of the same analog: the degree sequence, hubs and community
/// structure are fixed, and locality inside a block survives, while the
/// vertex and edge order the partitioner sees change with the seed.
fn relabel(graph: &mut EdgeList, seed: u64) {
    let blocks = graph.num_vertices / RELABEL_BLOCK;
    let mut perm: Vec<u32> = (0..blocks).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let map = |v: VertexId| match perm.get((v / RELABEL_BLOCK) as usize) {
        Some(&b) => b * RELABEL_BLOCK + v % RELABEL_BLOCK,
        None => v,
    };
    for e in &mut graph.edges {
        (e.src, e.dst) = (map(e.src), map(e.dst));
    }
    graph.edges.sort_unstable();
}

/// Set-up: generate the analog (at its Table-3 seed), relabel it by
/// `seed` when one is given, and write its HEPB v2 file.
fn setup(
    w: &Workload,
    seed: Option<u64>,
    path: &Path,
) -> Result<(BinaryEdgeFile, f64), GraphError> {
    let start = Instant::now();
    let mut graph = dataset(w).generate();
    if let Some(seed) = seed {
        relabel(&mut graph, seed);
    }
    let file = BinaryEdgeFile::write(path, &graph)?;
    drop(graph);
    Ok((file, start.elapsed().as_secs_f64()))
}

/// One untraced, timed driver run.
struct TimedRun {
    seconds: f64,
    peak_bytes: u64,
    plan: Option<IngestPlan>,
}

/// Times one driver run, then checks its output (and, under a memory
/// budget, its measured peak) outside the timed region.
fn timed_run(
    hep: &Hep,
    file: &BinaryEdgeFile,
    w: &Workload,
    reference: u64,
) -> (TimedRun, Result<Checked, String>) {
    let mut sink = CheckSink::new(w.k, file.num_vertices());
    let baseline = alloc_track::current_bytes();
    alloc_track::reset_peak();
    let start = Instant::now();
    let result = hep.partition_file_with_report(file, w.k, &mut sink);
    let seconds = start.elapsed().as_secs_f64();
    let peak_bytes = alloc_track::peak_bytes().saturating_sub(baseline) as u64;
    let plan = result.as_ref().ok().and_then(|report| report.ingest);
    let checked = match (result, w.budget_bytes) {
        (Err(e), _) => Err(format!("partition_file_with_report: {e}")),
        (Ok(_), Some(budget)) if peak_bytes > budget => {
            Err(format!("peak {peak_bytes} B above the {budget} B budget"))
        }
        (Ok(_), _) => check(&mut sink, file.num_edges(), w.k, Some(reference)),
    };
    (TimedRun { seconds, peak_bytes, plan }, checked)
}

/// The untimed validation run: the full exactly-once check of
/// `hep_metrics::validate_assignment` against the file's edges. Its
/// fingerprint is the reference every later run must reproduce.
fn validation_run(hep: &Hep, file: &BinaryEdgeFile, k: u32) -> Result<Checked, String> {
    let mut sink = CheckSink::new(k, file.num_vertices());
    let mut collected = CollectedAssignment::default();
    let mut tee = TeeSink { first: &mut sink, second: &mut collected };
    hep.partition_file_with_report(file, k, &mut tee)
        .map_err(|e| format!("partition_file_with_report: {e}"))?;
    let graph = file.load().map_err(|e| format!("reloading the input: {e}"))?;
    validate_assignment(&graph, &collected, k)?;
    check(&mut sink, graph.num_edges(), k, None)
}

/// One in-memory span: a layer call made by the traced run.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
    /// Peak live heap while the span was open, above the run's baseline.
    peak_bytes: usize,
}

/// Records spans around layer calls. Per-span peaks come from the
/// counting allocator: at every span boundary the peak since the previous
/// boundary is folded into each open span and the counter is restarted.
struct Tracer {
    origin: Instant,
    baseline: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        let spans = Vec::with_capacity(16);
        let open = Vec::with_capacity(4);
        let baseline = alloc_track::current_bytes();
        alloc_track::reset_peak();
        Tracer { origin: Instant::now(), baseline, spans, open }
    }

    fn fold_peak(&mut self) {
        let peak = alloc_track::peak_bytes().saturating_sub(self.baseline);
        for &i in &self.open {
            self.spans[i].peak_bytes = self.spans[i].peak_bytes.max(peak);
        }
        alloc_track::reset_peak();
    }

    fn open(&mut self, name: &'static str) -> usize {
        self.fold_peak();
        let now = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, start: now, end: now, peak_bytes: 0 });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.fold_peak();
        assert_eq!(self.open.pop(), Some(span), "spans close in reverse order of opening");
        self.spans[span].end = self.origin.elapsed().as_secs_f64();
    }

    fn span(&self, name: &str) -> &Span {
        self.spans.iter().find(|s| s.name == name).expect("the traced run opens every span")
    }

    fn seconds(&self, name: &str) -> f64 {
        let s = self.span(name);
        s.end - s.start
    }

    fn peak_mib(&self, name: &str) -> f64 {
        self.span(name).peak_bytes as f64 / MIB
    }

    fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::object([
                        ("name", s.name.into()),
                        ("parent", s.parent.map(|p| self.spans[p].name).into()),
                        ("start_s", s.start.into()),
                        ("end_s", s.end.into()),
                        ("peak_mib", (s.peak_bytes as f64 / MIB).into()),
                    ])
                })
                .collect(),
        )
    }
}

/// A traced run: the driver's pipeline composed from the outside, in the
/// driver's order, with the counters each layer exposes.
struct TracedRun {
    tracer: Tracer,
    plan: IngestPlan,
    file_passes: u64,
    column_entries: u64,
    h2h_edges: u64,
    inmem_edges: u64,
    csr_heap_bytes: usize,
    initializations: u64,
    cleanup_fraction: f64,
    cleanup_s: f64,
    streamed_edges: u64,
    /// Wall seconds of a separate drain of the spill reader.
    read_s: f64,
    checked: Result<(), String>,
}

/// Runs degree pass → planner → budgeted CSR build (h2h spilled to a file)
/// → NE++ → informed streaming, mirroring `Hep::partition_file_with_report`
/// step for step so the assignment is bit-identical to the driver's.
fn traced_run(
    config: &HepConfig,
    file: &BinaryEdgeFile,
    k: u32,
    spill: &Path,
    reference: u64,
) -> Result<TracedRun, GraphError> {
    let n = file.num_vertices();
    let mut sink = CheckSink::new(k, n);
    let mut tracer = Tracer::new();
    let root = tracer.open("partition");
    let file = file.clone().with_io_mode(config.io_mode);

    let span = tracer.open("ingest.degree_pass");
    let stats = file.degree_stats(config.tau)?;
    tracer.close(span);

    let span = tracer.open("planner.plan_ingest");
    let batch = plan_stream_batch(k, config.memory_budget_bytes);
    let phase2 = estimate_stream_overhead_bytes(&stats.degrees, k, batch);
    let plan = plan_ingest(
        &stats.degrees,
        stats.mean_degree,
        config.tau,
        config.memory_budget_bytes,
        phase2,
    )?;
    let stats = if plan.tau == config.tau {
        stats
    } else {
        DegreeStats::from_degrees(stats.degrees, stats.mean_degree, plan.tau)
    };
    tracer.close(span);

    let span = tracer.open("ingest.csr_build");
    let mut file_passes = 1; // the degree pass
    let mut writer = std::io::BufWriter::new(std::fs::File::create(spill)?);
    let mut write_err: Option<std::io::Error> = None;
    let csr = PrunedCsr::build_from_passes_budgeted(
        stats,
        || {
            file_passes += 1;
            file.pass()
        },
        |e| {
            let r = writer
                .write_all(&e.src.to_le_bytes())
                .and_then(|_| writer.write_all(&e.dst.to_le_bytes()));
            if let Err(err) = r {
                write_err.get_or_insert(err);
            }
        },
        plan.column_passes,
    )?;
    writer.flush()?;
    drop(writer);
    if let Some(err) = write_err {
        return Err(err.into());
    }
    tracer.close(span);

    let degrees = csr.stats().degrees.clone();
    let total_edges = csr.num_edges_total();
    let (column_entries, h2h_edges, inmem_edges) =
        (csr.column_entries(), csr.num_h2h_edges(), csr.num_inmem_edges());
    let csr_heap_bytes = csr.heap_bytes();

    let span = tracer.open("nepp");
    let nepp = run_nepp(csr, k, config, &mut sink);
    tracer.close(span);

    let span = tracer.open("stream");
    let mut streamed_edges = 0u64;
    let mut read_err: Option<GraphError> = None;
    let reader = EdgeList::stream_binary(spill)?.with_vertex_bound(n).map_while(|r| match r {
        Ok(e) => {
            streamed_edges += 1;
            Some(e)
        }
        Err(e) => {
            read_err.get_or_insert(e);
            None
        }
    });
    let state = stream_h2h(
        reader,
        &degrees,
        nepp.s_sets,
        nepp.sizes,
        total_edges,
        config.lambda,
        config.alpha,
        batch,
        &mut sink,
    );
    if let Some(err) = read_err {
        return Err(err);
    }
    state?;
    tracer.close(span);
    tracer.close(root);

    // `stream.read_s`: the spill reader alone, drained outside the run.
    let start = Instant::now();
    let mut drained = 0u64;
    for e in EdgeList::stream_binary(spill)?.with_vertex_bound(n) {
        std::hint::black_box(e?);
        drained += 1;
    }
    let read_s = start.elapsed().as_secs_f64();
    std::fs::remove_file(spill).ok();

    let checked = if drained != streamed_edges || streamed_edges != h2h_edges {
        Err(format!("spilled {h2h_edges} h2h edges, streamed {streamed_edges}, drained {drained}"))
    } else {
        check(&mut sink, file.num_edges(), k, Some(reference)).map(|_| ())
    };
    Ok(TracedRun {
        tracer,
        plan,
        file_passes,
        column_entries,
        h2h_edges,
        inmem_edges,
        csr_heap_bytes,
        initializations: nepp.stats.initializations,
        cleanup_fraction: nepp.stats.cleanup_fraction(),
        cleanup_s: nepp.cleanup_seconds,
        streamed_edges,
        read_s,
        checked,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Counts the partition runs of one invocation and keeps their errors.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("{what} failed: {e}");
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn plan_json(plan: &IngestPlan) -> Json {
    Json::object([
        ("tau", plan.tau.into()),
        ("column_passes", plan.column_passes.into()),
        ("estimated_peak_mib", (plan.estimated_peak_bytes as f64 / MIB).into()),
        ("resident_mib", (plan.resident_bytes as f64 / MIB).into()),
    ])
}

/// Runs one invocation; returns the provenance report and the result line.
fn run(args: &Args) -> Result<(Json, String), String> {
    let w = args.workload;
    let io = |e: std::io::Error| format!("work dir {}: {e}", args.work_dir.display());
    std::fs::create_dir_all(&args.work_dir).map_err(io)?;
    let input = args.work_dir.join(format!("{}.hepb", w.name));
    let spill = args.work_dir.join(format!("{}-h2h.bin", w.name));

    let mut setup_s = Vec::new();
    let mut file = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPEATS } {
        let (f, seconds) = setup(w, args.seed, &input).map_err(|e| format!("set-up: {e}"))?;
        // Untimed: flush the file to disk now, so its write-back does not
        // land inside the timed runs.
        std::fs::File::open(f.path()).and_then(|f| f.sync_all()).map_err(io)?;
        setup_s.push(seconds);
        file = Some(f);
    }
    let file = file.expect("set-up ran at least once");
    let hep = Hep { config: w.config() };
    let mut tally = Tally::default();

    let validated = tally.record("validation run", validation_run(&hep, &file, w.k));
    let reference = validated.as_ref().map_or(0, |c| c.fingerprint);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut last_iteration = Duration::ZERO;
    let mut runs = Vec::new();
    let mut traced = Vec::new();
    // With tracing, untraced and traced runs alternate, so the overhead
    // compares runs made under the same machine conditions. The loop stops
    // before an iteration that would overrun the budget, judged by the
    // length of the last one.
    while runs.len() < MIN_RUNS || start.elapsed() + last_iteration <= budget {
        let iteration = Instant::now();
        let (run, checked) = timed_run(&hep, &file, w, reference);
        runs.push((run, tally.record("timed run", checked)));
        if args.trace {
            let run = traced_run(&hep.config, &file, w.k, &spill, reference)
                .map_err(|e| e.to_string())
                .and_then(|run| run.checked.clone().map(|()| run));
            traced.extend(tally.record("traced run", run));
        }
        last_iteration = iteration.elapsed();
    }
    let partition_s = median(&runs.iter().map(|(r, _)| r.seconds).collect::<Vec<_>>());
    std::fs::remove_file(&input).ok();
    let correct = tally.failed == 0;

    let metrics = if args.trace {
        per_layer_metrics(&traced, partition_s, file.num_edges())
    } else {
        let last = runs.iter().rev().find_map(|(_, c)| c.as_ref());
        vec![
            metric("partition_s", partition_s, "s"),
            metric(
                "peak_heap_mib",
                median(&runs.iter().map(|(r, _)| r.peak_bytes as f64 / MIB).collect::<Vec<_>>()),
                "MiB",
            ),
            metric("replication_factor", last.map_or(0.0, |c| c.replication_factor), "ratio"),
            metric("edge_balance", last.map_or(0.0, |c| c.edge_balance), "ratio"),
            metric("setup_s", median(&setup_s), "s"),
            metric(
                "success_rate",
                (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
                "ratio",
            ),
        ]
    };

    let mut report = Report::new("perfbench");
    report
        .set("workload", w.name)
        .set("seed", args.seed)
        .set("commit", args.commit.as_str())
        .set("dataset", w.dataset)
        .set("generator_seed", dataset(w).seed)
        .set("scale", w.scale)
        .set("num_vertices", file.num_vertices())
        .set("num_edges", file.num_edges())
        .set("k", w.k)
        .set("tau", w.tau)
        .set("io_mode", format!("{:?}", w.io_mode))
        .set("memory_budget_bytes", w.budget_bytes)
        .set("plan", runs.iter().find_map(|(r, _)| r.plan.as_ref()).map_or(Json::Null, plan_json))
        .set("fingerprint", format!("{reference:016x}"))
        .set("setup_s", setup_s)
        .set("partition_s", runs.iter().map(|(r, _)| r.seconds).collect::<Vec<_>>())
        .set("peak_mib", runs.iter().map(|(r, _)| r.peak_bytes as f64 / MIB).collect::<Vec<_>>())
        .set("errors", tally.errors.clone());
    if let Some(last) = traced.last() {
        report.set("spans", last.tracer.to_json());
    }
    Ok((report.to_json(), result_line(correct, &tally, &metrics)))
}

/// The per-layer metrics of the traced runs: times are medians over the
/// traced runs, counters come from the last one (they are deterministic).
fn per_layer_metrics(traced: &[TracedRun], partition_s: f64, num_edges: u64) -> Vec<Metric> {
    let Some(last) = traced.last() else { return Vec::new() };
    let med = |f: &dyn Fn(&TracedRun) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let file_mib = (num_edges * 8) as f64 / MIB;
    let degree_s = med(&|t| t.tracer.seconds("ingest.degree_pass"));
    let nepp_s = med(&|t| t.tracer.seconds("nepp"));
    let stream_s = med(&|t| t.tracer.seconds("stream"));
    let total_s = med(&|t| t.tracer.seconds("partition"));
    let run_peak = last.tracer.peak_mib("partition");
    vec![
        metric("ingest.degree_pass_s", degree_s, "s"),
        metric("ingest.degree_pass_mib_per_s", file_mib / degree_s, "MiB/s"),
        metric("ingest.csr_build_s", med(&|t| t.tracer.seconds("ingest.csr_build")), "s"),
        metric("ingest.file_passes", last.file_passes as f64, "count"),
        metric("ingest.column_entries", last.column_entries as f64, "count"),
        metric("ingest.h2h_edges", last.h2h_edges as f64, "count"),
        metric("ingest.csr_heap_mib", last.csr_heap_bytes as f64 / MIB, "MiB"),
        metric("ingest.csr_build_peak_mib", last.tracer.peak_mib("ingest.csr_build"), "MiB"),
        metric("planner.plan_s", med(&|t| t.tracer.seconds("planner.plan_ingest")), "s"),
        metric("planner.tau_run", last.plan.tau, "tau"),
        metric("planner.column_passes", last.plan.column_passes as f64, "count"),
        metric("planner.estimate_mib", last.plan.estimated_peak_bytes as f64 / MIB, "MiB"),
        metric(
            "planner.peak_over_estimate",
            run_peak * MIB / last.plan.estimated_peak_bytes as f64,
            "ratio",
        ),
        metric("nepp.run_s", nepp_s, "s"),
        metric("nepp.cleanup_s", med(&|t| t.cleanup_s), "s"),
        metric("nepp.expand_s", med(&|t| t.tracer.seconds("nepp") - t.cleanup_s), "s"),
        metric("nepp.edges_per_s", last.inmem_edges as f64 / nepp_s, "edges/s"),
        metric("nepp.initializations", last.initializations as f64, "count"),
        metric("nepp.cleanup_fraction", last.cleanup_fraction, "ratio"),
        metric("nepp.peak_mib", last.tracer.peak_mib("nepp"), "MiB"),
        metric("stream.run_s", stream_s, "s"),
        metric("stream.read_s", med(&|t| t.read_s), "s"),
        metric("stream.score_s", med(&|t| t.tracer.seconds("stream") - t.read_s), "s"),
        metric("stream.edges", last.streamed_edges as f64, "count"),
        metric("stream.edges_per_s", last.streamed_edges as f64 / stream_s, "edges/s"),
        metric("stream.peak_mib", last.tracer.peak_mib("stream"), "MiB"),
        metric("trace.total_s", total_s, "s"),
        metric("trace.overhead_s", total_s - partition_s, "s"),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("hep-perfbench: {msg}");
            std::process::exit(2);
        }
    };
    match hep_par::with_threads(args.workload.threads, || run(&args)) {
        Ok((report, line)) => {
            print!("{}", report.render());
            println!("{line}");
        }
        Err(msg) => {
            eprintln!("hep-perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
