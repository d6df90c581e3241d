//! `mad-benchmark`: the wall-clock cost of the madeleine library over its
//! real transports (in-process shm queues, TCP loopback) through 0, 1 and
//! 2 gateways, with every slice of traffic timed against an in-run
//! reference so that the shared machine's slow minutes cancel.
//!
//! See `benchmark/README.md` for the workloads, the metrics and the
//! predictions; `benchmark/run.sh` builds and runs this binary.

mod agree;
mod json;
mod probes;
mod refkernel;
mod report;
mod session;
mod spans;
mod stats;
mod sys;
mod workload;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use refkernel::RefKernel;
use report::{Metric, Report, RunData, SessionRec};
use session::{Plan, MIN_ROUND_TRIPS};
use workload::{Payload, Topology, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Shape of a run, the same on every commit.
const TRAFFIC_SESSIONS: usize = 8;
const SETUPS_PER_TRAFFIC: usize = 4;
const ROUNDS: usize = 8;
const BASELINE_ROUNDS: usize = 4;
/// What the probes of a traced run take together.
const PROBES_NOMINAL: Duration = Duration::from_secs(1);
/// A slice is `--seconds` ÷ this.
const SLICES_PER_RUN_SECONDS: f64 = 200.0;

const EXIT_INCORRECT: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_HUNG: i32 = 3;

const USAGE: &str =
    "usage: mad-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out DIR] [--sha SHA]\n       mad-benchmark --agree DIR\n\
                     Without --workload every workload runs, and without --trace both modes.";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    out: PathBuf,
    sha: String,
    agree: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 30,
        trace: None,
        out: PathBuf::from("benchmark/out"),
        sha: "unknown".into(),
        agree: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(workload::find(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => a.out = value()?.into(),
            "--sha" => a.sha = value()?,
            "--agree" => a.agree = Some(value()?.into()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

/// Ends the process with its own exit code when a session overruns, so a
/// hang is a failed run and not a stuck pipeline.
struct Watchdog {
    epoch: Instant,
    /// Milliseconds since `epoch` at which the armed session is overdue; 0
    /// when disarmed.
    deadline_ms: AtomicU64,
    stop: AtomicBool,
}

impl Watchdog {
    fn start() -> (Arc<Watchdog>, std::thread::JoinHandle<()>) {
        let w = Arc::new(Watchdog {
            epoch: Instant::now(),
            deadline_ms: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let me = w.clone();
        let handle = std::thread::Builder::new()
            .name("watchdog".into())
            .spawn(move || {
                while !me.stop.load(Ordering::SeqCst) {
                    std::thread::park_timeout(Duration::from_millis(500));
                    let deadline = me.deadline_ms.load(Ordering::SeqCst);
                    if deadline != 0 && me.epoch.elapsed().as_millis() as u64 > deadline {
                        eprintln!("mad-benchmark: a session overran its deadline; giving up");
                        std::process::exit(EXIT_HUNG);
                    }
                }
            })
            .expect("spawning the watchdog thread");
        (w, handle)
    }

    /// A session of nominal length `nominal` starts now: it may take four
    /// times that plus 15 s.
    fn arm(&self, nominal: Duration) {
        let allowed = nominal * 4 + Duration::from_secs(15);
        let at = (self.epoch.elapsed() + allowed).as_millis() as u64;
        self.deadline_ms.store(at.max(1), Ordering::SeqCst);
    }

    fn disarm(&self) {
        self.deadline_ms.store(0, Ordering::SeqCst);
    }
}

struct Machine {
    nproc: usize,
    cpu_model: String,
    kernel: String,
    pinned_cpu: usize,
}

impl Machine {
    /// Read before pinning, so `nproc` is the machine's.
    fn read(nproc: usize, pinned_cpu: usize) -> Machine {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|k| k.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Machine {
            nproc,
            cpu_model,
            kernel,
            pinned_cpu,
        }
    }
}

struct RunResult {
    workload: &'static Workload,
    trace: bool,
    seed: u64,
    seconds: u64,
    wall_s: f64,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Traced runs: spans recorded, and spans that did not fit the buffers.
    spans: (usize, u64),
    report: Report,
}

fn run_one(
    w: &'static Workload,
    args: &Args,
    trace: bool,
    refk: &Arc<RefKernel>,
    watchdog: &Watchdog,
) -> RunResult {
    let began = Instant::now();
    let slice = Duration::from_secs_f64(args.seconds as f64 / SLICES_PER_RUN_SECONDS);
    let payload = Arc::new(Payload::new(args.seed, 1 << 20));
    let plan = |rounds: usize, traced: bool| Plan {
        topology: w.topology,
        traffic: w.traffic,
        seed: args.seed,
        slice,
        rounds,
        traced,
    };
    let run_session = |plan: Plan| {
        watchdog.arm(plan.nominal());
        let outcome = session::run(plan, refk, &payload);
        watchdog.disarm();
        outcome
    };

    let first_sample = refk.sample();
    let mut last = first_sample;
    let mut sessions: Vec<SessionRec> = Vec::new();
    for t in 0..TRAFFIC_SESSIONS {
        // Traced and untraced sessions alternate, so drift falls on both
        // sides of the tracing overhead.
        let traced = trace && t % 2 == 1;
        for k in 0..=SETUPS_PER_TRAFFIC {
            let traffic = k == 0;
            let p = plan(if traffic { ROUNDS } else { 0 }, traffic && traced);
            let outcome = run_session(p);
            let after = refk.sample();
            sessions.push(SessionRec {
                outcome,
                traffic,
                traced: p.traced,
                before: last,
                after,
            });
            last = after;
        }
    }
    let (baseline, probes) = if trace {
        let baseline = (w.topology != Topology::Direct).then(|| {
            run_session(Plan {
                topology: Topology::Direct,
                rounds: BASELINE_ROUNDS,
                ..plan(0, false)
            })
        });
        // The probes block on raw conduits: a hang there is a failed run too.
        watchdog.arm(PROBES_NOMINAL);
        let probes = probes::run(w);
        watchdog.disarm();
        (baseline, probes)
    } else {
        (None, Vec::new())
    };

    let report = report::compute(&RunData {
        workload: w,
        first_sample,
        sessions: &sessions,
        baseline: baseline.as_ref(),
        probes: &probes,
        maxrss_kib: sys::Rusage::now().maxrss_kib,
    });

    let outcomes = || sessions.iter().map(|r| &r.outcome).chain(baseline.as_ref());
    let attempted: u64 = outcomes().map(|o| o.attempted).sum();
    let failed: u64 = outcomes().map(|o| o.failed).sum();
    let complete = report.end_to_end.iter().all(|m| m.value.is_some());

    if trace {
        if let Err(e) = write_spans(&args.out, w, &sessions) {
            eprintln!("mad-benchmark: writing spans failed: {e}");
        }
    }
    let all_spans = || sessions.iter().flat_map(|r| r.outcome.spans.iter());
    let spans = (
        all_spans().map(|(_, b)| b.spans().len()).sum(),
        all_spans().map(|(_, b)| b.dropped()).sum(),
    );
    RunResult {
        workload: w,
        trace,
        spans,
        seed: args.seed,
        seconds: args.seconds,
        wall_s: began.elapsed().as_secs_f64(),
        correct: failed == 0 && complete && attempted > 0,
        attempted: attempted.max(1),
        failed,
        report,
    }
}

fn write_spans(out: &Path, w: &Workload, sessions: &[SessionRec]) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let file = std::fs::File::create(out.join(format!("{}.spans.jsonl", w.name)))?;
    let mut file = std::io::BufWriter::new(file);
    for (i, rec) in sessions.iter().enumerate() {
        for (thread, buf) in &rec.outcome.spans {
            spans::write_jsonl(&mut file, i, thread, buf.spans())?;
        }
    }
    file.flush()
}

fn fmt_value(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.1}"),
        a if a >= 10.0 => format!("{v:.2}"),
        a if a >= 0.1 => format!("{v:.4}"),
        _ => format!("{v:.6}"),
    }
}

fn print_metric(m: &Metric) {
    match m.value {
        None => println!("  {:<38} absent", m.def.name),
        Some(v) => {
            let spread = match m.quartiles {
                Some([q1, _, q3]) => {
                    format!(
                        "  (n={}, quartiles {} .. {})",
                        m.n,
                        fmt_value(q1),
                        fmt_value(q3)
                    )
                }
                None => String::new(),
            };
            println!(
                "  {:<38} {:>14} {}{spread}",
                m.def.name,
                fmt_value(v),
                m.def.unit
            );
        }
    }
}

fn print_run(r: &RunResult) {
    let w = r.workload;
    println!(
        "\n== {} · trace {} · seed {} · --seconds {} · control `{}` ==",
        w.name,
        u8::from(r.trace),
        r.seed,
        r.seconds,
        w.control.name()
    );
    println!("   {}", w.why);
    println!("end-to-end (at reference speed; n = samples behind each median):");
    r.report.end_to_end.iter().for_each(print_metric);
    println!("per-layer:");
    r.report.per_layer.iter().for_each(print_metric);
    let per_layer = |name: &str| {
        r.report
            .per_layer
            .iter()
            .find(|m| m.def.name == name)
            .and_then(|m| m.value)
    };
    if let Some(s) = per_layer("ref.slowness_p50") {
        if !(0.5..=3.0).contains(&s) {
            println!(
                "WARNING: ref.slowness_p50 = {s:.3} is outside [0.5, 3]: the nominal constants do \
                 not fit this machine (the run is still valid - both sides of a comparison share them)"
            );
        }
    }
    if let Some(n) = r.report.min_round_trips {
        if (n as u64) < MIN_ROUND_TRIPS {
            println!(
                "WARNING: a ping-pong slice held only {n} round trips (< {MIN_ROUND_TRIPS}): \
                 fewer than ten lie beyond its 90th percentile"
            );
        }
    }
    if r.trace {
        for m in &r.report.per_layer {
            if m.value.is_none() && !report::absent_by_design(w, m.def.name) {
                println!(
                    "WARNING: {} is absent although `{}` exercises it: the library no longer \
                     exposes it (it reads 0 in the result line only because that line must \
                     carry a number for every name)",
                    m.def.name, w.name
                );
            }
        }
        println!(
            "span medians by load thread and phase (every {}th message, after the warm-up):",
            session::SPAN_STRIDE
        );
        for p in &r.report.span_phases {
            println!(
                "  {:<4} {:<20} {:<9} {:>14} ns  (n={})",
                p.thread,
                p.name,
                p.phase,
                fmt_value(p.p50_ns),
                p.n
            );
        }
        println!(
            "spans: {} recorded in benchmark/out/{}.spans.jsonl, {} beyond a slice's quota dropped",
            r.spans.0, w.name, r.spans.1
        );
    }
    println!(
        "run: {:.1} s wall ({:.2} x --seconds), {} attempted, {} failed, {}",
        r.wall_s,
        r.wall_s / r.seconds as f64,
        r.attempted,
        r.failed,
        if r.correct { "correct" } else { "INCORRECT" }
    );
}

/// The pipeline's result line: end-to-end metrics untraced, per-layer
/// metrics traced. Its contract wants a number for every name on every
/// run, so an absent metric reads 0 here and only here: the text above and
/// `result.json` say `absent`, and `print_run` warns when a metric is
/// absent that the workload exercises.
fn result_line(r: &RunResult) -> String {
    let metrics = if r.trace {
        &r.report.per_layer
    } else {
        &r.report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.def.name),
                m.value.unwrap_or(0.0),
                json::quote(m.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

fn metric_json(m: &Metric) -> String {
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    let quartiles = m.quartiles.map_or("null".to_string(), |q| {
        format!("[{}, {}, {}]", q[0], q[1], q[2])
    });
    let samples: Vec<String> = m
        .samples
        .iter()
        .map(|(v, [s, c, h])| format!("[{v}, {s}, {c}, {h}]"))
        .collect();
    format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"value\": {}, \"median\": {}, \
         \"quartiles\": {quartiles}, \"n\": {}, \"samples\": [{}]}}",
        json::quote(m.def.name),
        json::quote(m.def.unit),
        json::quote(m.def.better),
        opt(m.value),
        opt(m.value),
        m.n,
        samples.join(", ")
    )
}

fn write_result(
    out: &Path,
    sha: &str,
    machine: &Machine,
    runs: &[RunResult],
) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let runs: Vec<String> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .report
                .end_to_end
                .iter()
                .chain(&r.report.per_layer)
                .map(metric_json)
                .collect();
            format!(
                "{{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"control\": {}, \
                 \"wall_s\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},\n  \"metrics\": [\n    {}\n  ]}}",
                json::quote(r.workload.name),
                u8::from(r.trace),
                r.seed,
                r.seconds,
                json::quote(r.workload.control.name()),
                r.wall_s,
                r.correct,
                r.attempted,
                r.failed,
                metrics.join(",\n    ")
            )
        })
        .collect();
    let text = format!(
        "{{\"schema_version\": 1, \"sha\": {}, \"machine\": {{\"nproc\": {}, \"cpu_model\": {}, \
         \"kernel\": {}, \"pinned_cpu\": {}}},\n \"runs\": [\n{}\n]}}\n",
        json::quote(sha),
        machine.nproc,
        json::quote(&machine.cpu_model),
        json::quote(&machine.kernel),
        machine.pinned_cpu,
        runs.join(",\n")
    );
    std::fs::write(out.join("result.json"), text)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mad-benchmark: {e}\n{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };
    if let Some(dir) = &args.agree {
        std::process::exit(agree::report(dir));
    }

    // Before any thread exists: one CPU for everything. A cross-vCPU
    // wake-up on this VM costs more, and varies more, than the library's
    // own work.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = match sys::pin_to_last_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("mad-benchmark: cannot pin to one CPU: {e}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let machine = Machine::read(nproc, cpu);
    println!("mad-benchmark: wall-clock only - modeled virtual-time results stay in results/*.csv");
    println!("traffic: in-process shm queues and the host's TCP loopback; no real link is crossed");
    println!(
        "placement: pinned to CPU {cpu} ({} available), two load threads; {} / Linux {}",
        machine.nproc, machine.cpu_model, machine.kernel
    );

    let refk = RefKernel::start();
    let (watchdog, watchdog_thread) = Watchdog::start();
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let modes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut runs = Vec::new();
    for w in selected {
        for &trace in modes {
            let r = run_one(w, &args, trace, &refk, &watchdog);
            print_run(&r);
            runs.push(r);
        }
    }
    watchdog.stop.store(true, Ordering::SeqCst);
    watchdog_thread.thread().unpark();
    watchdog_thread.join().expect("watchdog thread panicked");
    refk.stop();

    if let Err(e) = write_result(&args.out, &args.sha, &machine, &runs) {
        eprintln!("mad-benchmark: writing result.json failed: {e}");
        std::process::exit(EXIT_INCORRECT);
    }
    let correct = runs.iter().all(|r| r.correct);
    // The result line of the last run is the last line of standard output.
    let mut stdout = std::io::stdout().lock();
    for r in &runs {
        writeln!(stdout, "{}", result_line(r)).expect("stdout");
    }
    stdout.flush().expect("stdout");
    std::process::exit(if correct { 0 } else { EXIT_INCORRECT });
}
