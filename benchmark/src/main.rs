//! The repo benchmark. See `README.md` in this directory for what each
//! workload and metric means; `BENCHMARK.json` at the repository root
//! declares them and is the only place their names, units, directions
//! and bounds are written down.
//!
//! ```text
//! rdfmesh-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick]
//! rdfmesh-benchmark compare A.json B.json
//! ```

mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod load;
mod mesh;
mod report;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use inputs::{Inputs, Workload, WORKLOADS};
use json::{obj, Value};
use report::Report;

/// The declaration the driver checks the benchmark against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const CAVEATS: &str = "traffic is loopback TCP, storage is the OS page cache, fsync is cheap, \
                       and the container has 2 cores: the numbers measure the program, not a network or a disk";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None`: both, one after the other.
    trace: Option<bool>,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 2013,
        seconds: None,
        trace: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

extern "C" {
    /// glibc's wrapper of the Linux system call; `std` links libc.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this thread — and with it every thread and child process started
/// afterwards, which inherit the mask — to CPU 0.
///
/// Left to the scheduler, the five processes wander over the two virtual
/// CPUs and latency switches between modes a third apart from one second
/// to the next (cross-CPU wake-ups cost a VM exit each). On one CPU the
/// same runs repeat within a few percent, and a closed loop loses little:
/// the client sleeps while the mesh works.
fn pin_to_one_cpu() -> Result<(), String> {
    let mask = [1u64; 1];
    // SAFETY: `mask` is a live, initialised buffer of exactly the
    // `cpusetsize` bytes passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Removes the scratch directory (store directories, set-up leftovers)
/// on every exit path, panics included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn declared_names(declaration: &Value, section: &str) -> Vec<String> {
    declaration
        .get(section)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str).map(str::to_string))
        .collect()
}

fn run_workload(
    bin: &Path,
    workload: Workload,
    args: &Args,
    seconds: u64,
    out_root: &Path,
    scratch: &Path,
) -> Result<Report, String> {
    let inputs = Inputs::generate(workload, args.seed, args.quick, out_root)?;
    eprintln!(
        "# {}: {} triples in {} files, {} queries per cycle ({} distinct), {} client(s), {}",
        workload.name,
        inputs.triples,
        inputs.files.len(),
        inputs.pool.len(),
        inputs.distinct().count(),
        workload.clients,
        if workload.durable {
            "--store-dir"
        } else {
            "in-memory stores"
        },
    );
    let mut report = Report::default();
    let total = Duration::from_secs(seconds);
    if args.trace != Some(true) {
        // Tracing off: five windows, every figure the median of the five.
        let windows = if args.quick { 2 } else { 5 };
        let plan = load::Plan {
            setups: if args.quick { 1 } else { 3 },
            windows,
            window: total / windows as u32,
            restart: false,
        };
        load::run(bin, &inputs, scratch, &plan, &mut report)?;
    }
    if args.trace != Some(false) {
        // The per-layer pass: a short load on the real processes for the
        // counters only they have, then the traced in-process mesh, then
        // the layers priced one public call at a time.
        let mut layer = Report::default();
        let plan = load::Plan {
            setups: 1,
            windows: 2,
            window: total.mul_f64(0.15),
            restart: true,
        };
        load::run(bin, &inputs, scratch, &plan, &mut layer)?;
        let echo = layers::tcp_echo(&mut layer)?;
        trace::run(&inputs, scratch, total, &echo, &mut layer)?;
        layers::stores(&inputs, scratch, &mut layer)?;
        if args.trace == Some(true) {
            report = layer;
        } else {
            // Both passes in one run: the end-to-end names keep the
            // values of the untraced pass.
            report.attempted += layer.attempted;
            report.failed += layer.failed;
            for (name, metric) in layer.metrics {
                report.metrics.entry(name).or_insert(metric);
            }
        }
    }
    Ok(report)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let declaration = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = match (args.seconds, args.quick) {
        (Some(s), _) => s,
        (None, true) => 4,
        (None, false) => declaration
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")? as u64,
    };
    let selected: Vec<Workload> = match &args.workload {
        None => WORKLOADS.to_vec(),
        Some(name) => vec![*WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?],
    };
    let out_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = Scratch(out_root.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let bin = mesh::build_serve_binary()?;
    pin_to_one_cpu()?;

    eprintln!("# {CAVEATS}");
    if args.quick {
        println!("# --quick: a smoke run, not comparable with any other run");
    }
    let mut names = Vec::new();
    if args.trace != Some(true) {
        names.extend(declared_names(&declaration, "end_to_end"));
    }
    if args.trace != Some(false) {
        names.extend(declared_names(&declaration, "per_layer"));
    }
    let mut results = Vec::new();
    let mut last_line = String::new();
    for workload in selected {
        let report = run_workload(&bin, workload, args, seconds, &out_root, &scratch.0)?;
        report.print(workload.name);
        let mut metrics = Vec::new();
        for name in &names {
            let m = report.metrics.get(name).ok_or_else(|| {
                format!("{}: declared metric {name} was not measured", workload.name)
            })?;
            metrics.push((
                name.clone(),
                obj([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]),
            ));
        }
        last_line = obj([
            ("correct", Value::Bool(report.failed == 0)),
            ("attempted", Value::Num(report.attempted as f64)),
            ("failed", Value::Num(report.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_json();
        results.push((workload.name.to_string(), report.to_value()));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let document = obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
        ("quick", Value::Bool(args.quick)),
        ("nproc", Value::Num(nproc as f64)),
        ("caveats", Value::Str(CAVEATS.into())),
        ("workloads", Value::Obj(results)),
    ]);
    let path = out_root.join("results.json");
    std::fs::write(&path, document.to_json() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{last_line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_args(rest).and_then(|a| run(&a)),
        Some((cmd, rest)) if cmd == "compare" => compare::run(rest),
        _ => Err(
            "usage: rdfmesh-benchmark run [--workload NAME] [--seed N] [--seconds N] \
                  [--trace 0|1] [--quick] | compare A.json B.json"
                .into(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
