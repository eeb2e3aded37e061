//! End-to-end and per-layer benchmark of the p3d serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline-f32-pruned|offline-sim-pruned> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one workload runs untraced and the result carries its
//! end-to-end metrics. With `--trace 1` the run traces every layer of
//! both workloads and of the HTTP server, and the result carries the
//! per-layer metrics; the spans go to `<target dir>/perfbench-traces/`.
//! The last line of standard output is the JSON result; see
//! `perfbench/README.md`.

mod host;
mod inputs;
mod layers;
mod offline;
mod report;
mod serve;
mod trace;
mod workloads;

use host::{provenance_json, CpuSample};
use p3d_tensor::parallel::set_thread_override;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <offline-f32-pruned|offline-sim-pruned> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The untraced workloads. The HTTP server has none of its own: it is
/// measured in the traced run only (see `perfbench/README.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OfflineF32,
    OfflineSim,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::OfflineF32, Workload::OfflineSim];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineF32 => "offline-f32-pruned",
            Workload::OfflineSim => "offline-sim-pruned",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("not a whole number"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("outside (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // One compute thread, and the whole process on one CPU, so no
    // handoff waits for an idle vCPU of a shared host to be woken: in
    // the traced HTTP loop, client and server threads pass each request
    // between them on that CPU.
    set_thread_override(Some(1));
    let nproc = host::nproc();
    let pinned = host::pin_to_current_cpu();
    let cpu0 = CpuSample::now();
    let t0 = Instant::now();
    let (metrics, tally) = if args.trace {
        workloads::run_traced(&args)
    } else {
        match args.workload {
            Workload::OfflineF32 => workloads::run_offline(offline::Backend::F32, &args),
            Workload::OfflineSim => workloads::run_offline(offline::Backend::Sim, &args),
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    println!(
        "{}",
        provenance_json(
            args.workload.name(),
            args.seed,
            nproc,
            pinned,
            cpu0,
            CpuSample::now(),
            wall_s
        )
    );
    eprint!(
        "{} seed {} trace {}:\n{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        metrics.table()
    );
    println!("{}", metrics.result_json(tally));
}
