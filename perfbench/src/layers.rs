//! Per-conv-layer probes of the pruned R(2+1)D-lite model: each layer
//! alone on the f32 block-CSR path and on the Q7.8 functional sim, next
//! to the paper's analytic cycle count (Eqs. 19-25).

use crate::inputs::{accel_config, ModelArtifact};
use crate::report::median;
use crate::trace::{Tracer, ROOT};
use p3d_fpga::sim::run_conv_functional_with_scratch;
use p3d_fpga::{conv_latency, DoubleBuffering};
use p3d_nn::{Conv3d, EvalArena, Layer};
use p3d_tensor::{FixedTensor, Shape, Tensor, TensorRng};
use std::time::{Duration, Instant};

/// One conv layer's figures.
pub struct LayerProbe {
    pub name: String,
    /// Median wall time of one `Conv3d::eval_into` with the layer's
    /// block pattern, milliseconds.
    pub f32_ms: f64,
    /// Multiply-accumulates the block-CSR GEMM runs.
    pub macs_run: u64,
    /// Median wall time of one `run_conv_functional_with_scratch` with
    /// the layer's block-enable map, milliseconds.
    pub q78_ms: f64,
    /// Simulated accelerator cycles (`ConvStats::cycles`).
    pub sim_cycles: u64,
    /// Weight blocks the block-enable map skipped (`ConvStats`).
    pub blocks_skipped: u64,
    /// Analytic cycles of `latency::conv_latency`.
    pub model_cycles: u64,
}

/// Times each call until `per_call` has passed (at least five calls)
/// and returns the median call time in milliseconds, each call a span.
fn time_calls(
    tr: &mut Tracer,
    name: &'static str,
    layer: u64,
    per_call: Duration,
    mut f: impl FnMut(),
) -> f64 {
    let t_end = Instant::now() + per_call;
    let mut ms = Vec::new();
    while ms.len() < 5 || Instant::now() < t_end {
        let t0 = Instant::now();
        f();
        let t1 = Instant::now();
        tr.record(name, ROOT, layer, t0, t1);
        ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
    }
    median(&ms)
}

/// Probes every conv layer of `art`, spending about `per_call` on each
/// engine of each layer.
pub fn probe(
    art: &ModelArtifact,
    seed: u64,
    per_call: Duration,
    tr: &mut Tracer,
) -> Vec<LayerProbe> {
    let ckpt = art.parse();
    let config = accel_config();
    let mut rng = TensorRng::seed(seed ^ 0x1a7e);
    let mut acc64 = Vec::new();
    let mut arena = EvalArena::new();
    let instances = art.spec.conv_instances().expect("spec shape-checks");
    let mut out = Vec::with_capacity(instances.len());
    for (li, inst) in instances.iter().enumerate() {
        let spec = &inst.spec;
        let weight = ckpt.tensors[&format!("{}.weight", spec.name)].clone();
        let mask = art.pruned.mask(&spec.name);
        let (n, d, h, w) = inst.input;
        let x = rng.uniform_tensor([n, d, h, w], 0.0, 1.0);

        let mut conv = Conv3d::new(
            &spec.name,
            spec.out_channels,
            n,
            spec.kernel,
            spec.stride,
            spec.pad,
            spec.bias,
            &mut rng,
        );
        conv.weight.value = weight.clone();
        if let Some(b) = conv.bias.as_mut() {
            b.value = ckpt.tensors[&format!("{}.bias", spec.name)].clone();
        }
        conv.install_block_patterns(&mut |_| mask.map(|m| m.to_block_pattern()));
        let x5 = Tensor::from_vec(Shape::d5(1, n, d, h, w), x.data().to_vec());
        let f32_ms = time_calls(tr, "nn.conv_eval", li as u64, per_call, || {
            arena.reset();
            let id = arena.load_clip(&x5);
            std::hint::black_box(conv.eval_into(&mut arena, id));
        });
        let kernel_volume = spec.kernel.0 * spec.kernel.1 * spec.kernel.2;
        let weights_run = mask.map_or(spec.out_channels * n * kernel_volume, |m| m.kept_params());

        let qw = FixedTensor::quantize(&weight);
        let qx = FixedTensor::quantize(&x);
        let mut stats = Default::default();
        let q78_ms = time_calls(tr, "fpga.conv_functional", li as u64, per_call, || {
            let (y, s) =
                run_conv_functional_with_scratch(inst, &qw, &qx, mask, &config, &mut acc64);
            std::hint::black_box(y);
            stats = s;
        });
        let model = conv_latency(inst, &config, mask, DoubleBuffering::On);
        out.push(LayerProbe {
            name: spec.name.clone(),
            f32_ms,
            macs_run: (weights_run * inst.out_volume()) as u64,
            q78_ms,
            sim_cycles: stats.cycles,
            blocks_skipped: stats.blocks_skipped,
            model_cycles: model.cycles,
        });
    }
    out
}
