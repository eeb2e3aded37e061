//! The offline workloads: the pruned R(2+1)D-lite model served in
//! process through `BatchScheduler::drain`, closed loop, in batches of
//! eight, on the block-sparse f32 engine or on the Q7.8 simulator.

use crate::inputs::{clip_pool, ModelArtifact, BATCH, OFFLINE_POOL};
use crate::report::{bits, Tally};
use crate::trace::{Tracer, ROOT};
use p3d_fpga::QuantizedNetwork;
use p3d_infer::{BatchScheduler, ClipResult, F32Engine, InferenceEngine, SimEngine, StreamRun};
use p3d_tensor::Tensor;
use std::time::Instant;

/// Which engine serves the pruned model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `F32Engine::new_pruned`: block-CSR GEMM over the pruned blocks.
    F32,
    /// `SimEngine`: the functional Q7.8 accelerator with block-enable maps.
    Sim,
}

impl Backend {
    /// Span around each engine batch.
    pub fn engine_span(self) -> &'static str {
        match self {
            Backend::F32 => "engine.f32.batch",
            Backend::Sim => "engine.sim.batch",
        }
    }

    /// Span around each `BatchScheduler::drain`.
    pub fn drain_span(self) -> &'static str {
        match self {
            Backend::F32 => "scheduler.drain",
            Backend::Sim => "scheduler.drain_sim",
        }
    }

    /// Span around the first batch of a bring-up.
    pub fn first_batch_span(self) -> &'static str {
        match self {
            Backend::F32 => "setup.first_batch",
            Backend::Sim => "setup.sim_first_batch",
        }
    }
}

/// The engine a bring-up produced, kept concrete so the f32 arena
/// counters stay reachable.
pub enum Engine {
    F32(F32Engine),
    Sim(Box<SimEngine>),
}

impl Engine {
    pub fn as_dyn(&mut self) -> &mut dyn InferenceEngine {
        match self {
            Engine::F32(e) => e,
            Engine::Sim(e) => e.as_mut(),
        }
    }

    /// Arena grow and fallback events of the f32 engine; 0 for the sim.
    pub fn arena_grow_events(&self) -> usize {
        match self {
            Engine::F32(e) => e.arena_grow_events(),
            Engine::Sim(_) => 0,
        }
    }
}

/// A workload's inputs: the model artifact, the clip pool, and the
/// reference logits of every pool clip.
pub struct OfflineInputs {
    pub backend: Backend,
    pub art: ModelArtifact,
    pub pool: Vec<Tensor>,
}

impl OfflineInputs {
    pub fn new(backend: Backend, seed: u64) -> OfflineInputs {
        let art = ModelArtifact::pruned_lite(seed);
        let pool = clip_pool(seed, OFFLINE_POOL, art.input_shape());
        OfflineInputs { backend, art, pool }
    }

    /// The reference logits of every pool clip, computed off the path
    /// under test: a dense `F32Engine` on the same masked weights for
    /// the f32 backend, sequential `forward_functional` for the sim.
    pub fn reference(&self, engine: &Engine) -> Vec<Vec<u32>> {
        match engine {
            Engine::F32(_) => {
                let ckpt = self.art.parse();
                let mut dense = F32Engine::new(1, || self.art.build(&ckpt));
                self.pool
                    .iter()
                    .map(|c| bits(&dense.infer_batch(std::slice::from_ref(c))[0].logits))
                    .collect()
            }
            Engine::Sim(sim) => self
                .pool
                .iter()
                .map(|c| bits(&sim.network().forward_functional(c, &self.art.pruned).logits))
                .collect(),
        }
    }

    /// Brings the engine up from the checkpoint bytes in memory to the
    /// first batch answered, recording each step as a span when traced.
    /// Returns the engine and the bring-up time in seconds.
    pub fn bring_up(&self, tr: &mut Tracer) -> (Engine, f64) {
        let t0 = Instant::now();
        let root = tr.open("setup", ROOT, 0);
        let ckpt = tr.time("setup.ckpt_parse", root, 0, || self.art.parse());
        let mut engine = match self.backend {
            Backend::F32 => {
                // The engine span's self time is the block-CSR compile:
                // new_pruned builds the replica, then installs the maps.
                let id = tr.open("setup.new_pruned", root, 0);
                let e = F32Engine::new_pruned(
                    1,
                    || tr.time("setup.build_restore", id, 0, || self.art.build(&ckpt)),
                    &self.art.pruned,
                );
                tr.close(id);
                Engine::F32(e)
            }
            Backend::Sim => {
                let mut net = tr.time("setup.build_restore", root, 0, || self.art.build(&ckpt));
                let q = tr.time("setup.quantize", root, 0, || {
                    QuantizedNetwork::from_network(
                        &self.art.spec,
                        &mut net,
                        crate::inputs::accel_config(),
                    )
                });
                Engine::Sim(Box::new(SimEngine::new(q, self.art.pruned.clone())))
            }
        };
        let mut sched = BatchScheduler::new(BATCH);
        tr.time(self.backend.first_batch_span(), root, 0, || {
            self.pool[..BATCH]
                .iter()
                .for_each(|c| sched.submit(c.clone()));
            sched.drain(engine.as_dyn())
        });
        tr.close(root);
        (engine, t0.elapsed().as_secs_f64())
    }
}

/// What one closed loop measured.
#[derive(Default)]
pub struct LoopStats {
    /// Batches completed.
    pub batches: usize,
    /// Per-clip latency, submission to batch completion, milliseconds.
    pub clip_ms: Vec<f64>,
    pub tally: Tally,
}

/// An engine wrapper recording each batch as a span.
struct TracedEngine<'a> {
    inner: &'a mut dyn InferenceEngine,
    tr: &'a mut Tracer,
    name: &'static str,
    parent: usize,
    request: u64,
}

impl InferenceEngine for TracedEngine<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn infer_batch_into(&mut self, clips: &[Tensor], out: &mut [ClipResult]) {
        let t0 = Instant::now();
        self.inner.infer_batch_into(clips, out);
        self.tr
            .record(self.name, self.parent, self.request, t0, Instant::now());
    }
}

/// Runs batches until `until`, cycling through the pool from `*next`,
/// and checks every clip against `want` between batches.
pub fn run_loop(
    inputs: &OfflineInputs,
    engine: &mut Engine,
    want: &[Vec<u32>],
    until: Instant,
    next: &mut usize,
    tr: &mut Tracer,
    stats: &mut LoopStats,
) {
    let mut sched = BatchScheduler::new(BATCH);
    while Instant::now() < until {
        let first = *next;
        for _ in 0..BATCH {
            sched.submit(inputs.pool[*next % inputs.pool.len()].clone());
            *next += 1;
        }
        let run: StreamRun = if tr.is_on() {
            let request = (first / BATCH) as u64;
            let drain = tr.open(inputs.backend.drain_span(), ROOT, request);
            let mut traced = TracedEngine {
                inner: engine.as_dyn(),
                tr,
                name: inputs.backend.engine_span(),
                parent: drain,
                request,
            };
            let run = sched.drain(&mut traced);
            tr.close(drain);
            run
        } else {
            sched.drain(engine.as_dyn())
        };
        stats.batches += 1;
        stats.clip_ms.extend_from_slice(&run.latencies_ms);
        for (k, r) in run.results.iter().enumerate() {
            stats
                .tally
                .check(&r.logits, &want[(first + k) % want.len()]);
        }
    }
}
