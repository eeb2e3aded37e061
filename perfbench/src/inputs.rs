//! Seeded input synthesis. Everything a run feeds the program — model
//! checkpoints, block-enable maps, clips and HTTP request bytes — is made
//! here from the `--seed` argument, before any timer starts.

use p3d_core::{magnitude_block_prune, targets_for_stages, KeepRule, PrunedModel};
use p3d_fpga::{AcceleratorConfig, Ports, Tiling};
use p3d_infer::wire::{
    encode_clip_f32, encode_clip_q78, CONTENT_TYPE_F32, CONTENT_TYPE_Q78, CONTENT_TYPE_VID,
};
use p3d_models::{build_network, r2plus1d_lite, r2plus1d_micro, NetworkSpec};
use p3d_nn::{Checkpoint, Sequential};
use p3d_tensor::{Tensor, TensorRng};
use p3d_video_data::io::{VidHeader, VidWriter};

/// Classifier width of both served models.
pub const NUM_CLASSES: usize = 10;
/// Clips per offline batch.
pub const BATCH: usize = 8;
/// Distinct clips cycled through by the offline loops.
pub const OFFLINE_POOL: usize = 64;
/// Requests in each HTTP connection's stream before it wraps around.
pub const HTTP_STREAM_LEN: usize = 768;
/// Shape of the micro model's input clip, `[C, D, H, W]`.
pub const MICRO_SHAPE: [usize; 4] = [1, 6, 16, 16];
/// Side of the gray frames carried by `x-p3d-vid` bodies.
pub const VID_SIDE: u32 = 64;
/// Share of HTTP requests that resend an earlier request byte for byte.
pub const REPEAT_SHARE: f32 = 0.25;

/// Weight-initialisation seed of `build_network` before a restore; the
/// restore overwrites every parameter, so any fixed value serves.
const BUILD_SEED: u64 = 0;

/// The `(Tm, Tn) = (8, 4)` accelerator the pruned model is blocked for.
pub fn accel_config() -> AcceleratorConfig {
    AcceleratorConfig {
        tiling: Tiling::new(8, 4, 2, 8, 8),
        ports: Ports::new(2, 2, 2),
        freq_mhz: 150.0,
        data_bits: 16,
    }
}

/// A model as it reaches a server: checkpoint bytes in memory plus the
/// block-enable artifact that goes with them.
pub struct ModelArtifact {
    pub spec: NetworkSpec,
    pub ckpt: Vec<u8>,
    pub pruned: PrunedModel,
}

impl ModelArtifact {
    /// R(2+1)D-lite pruned with the paper's ratios — eta = 0.9 on
    /// `conv2_x`, 0.8 on `conv3_x` — in 8x4 blocks by block magnitude.
    pub fn pruned_lite(seed: u64) -> ModelArtifact {
        let spec = r2plus1d_lite(NUM_CLASSES);
        let mut net = build_network(&spec, seed ^ 0x11fe);
        let targets = targets_for_stages(&spec, &[("conv2_x", 0.9), ("conv3_x", 0.8)]);
        let pruned = magnitude_block_prune(
            &mut net,
            accel_config().tiling.block_shape(),
            &targets,
            KeepRule::Round,
        );
        ModelArtifact::capture(spec, &mut net, pruned)
    }

    /// The dense R(2+1)D-micro model served over HTTP.
    pub fn dense_micro(seed: u64) -> ModelArtifact {
        let spec = r2plus1d_micro(NUM_CLASSES);
        let mut net = build_network(&spec, seed ^ 0x3c70);
        ModelArtifact::capture(spec, &mut net, PrunedModel::dense())
    }

    fn capture(spec: NetworkSpec, net: &mut Sequential, pruned: PrunedModel) -> ModelArtifact {
        let mut ckpt = Vec::new();
        Checkpoint::capture(net)
            .write_to(&mut ckpt)
            .expect("writing to memory cannot fail");
        ModelArtifact { spec, ckpt, pruned }
    }

    /// `Checkpoint::read_from` over the in-memory bytes.
    pub fn parse(&self) -> Checkpoint {
        Checkpoint::read_from(&mut self.ckpt.as_slice()).expect("checkpoint made by this run")
    }

    /// `build_network` plus a restore of every tensor of `ckpt`.
    pub fn build(&self, ckpt: &Checkpoint) -> Sequential {
        let mut net = build_network(&self.spec, BUILD_SEED);
        let report = ckpt.restore(&mut net);
        assert!(report.missing.is_empty() && report.mismatched.is_empty());
        net
    }

    /// The model's input shape as `[C, D, H, W]`.
    pub fn input_shape(&self) -> [usize; 4] {
        let (c, d, h, w) = self.spec.input;
        [c, d, h, w]
    }
}

/// `n` seeded clips of `shape`, uniform in `[0, 1)`.
pub fn clip_pool(seed: u64, n: usize, shape: [usize; 4]) -> Vec<Tensor> {
    let mut rng = TensorRng::seed(seed ^ 0xc11b);
    (0..n)
        .map(|_| rng.uniform_tensor(shape, 0.0, 1.0))
        .collect()
}

/// The payload encoding of one HTTP request body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyKind {
    F32,
    Q78,
    Vid,
}

impl BodyKind {
    pub fn content_type(self) -> &'static str {
        match self {
            BodyKind::F32 => CONTENT_TYPE_F32,
            BodyKind::Q78 => CONTENT_TYPE_Q78,
            BodyKind::Vid => CONTENT_TYPE_VID,
        }
    }
}

/// One complete `POST /v1/infer` request, head and body.
#[derive(Clone, Debug)]
pub struct WireRequest {
    pub kind: BodyKind,
    pub bytes: Vec<u8>,
    /// Index of the earlier request in the same stream whose bytes this
    /// one repeats, if any.
    pub repeat_of: Option<usize>,
}

/// The request stream of HTTP connection `conn`: a seeded third each of
/// f32, Q7.8 and P3DVID1 bodies, with about a quarter of the requests
/// resending a request 2 to 16 places earlier in the same stream, so a
/// repeat always follows the completion of its original.
pub fn http_stream(seed: u64, conn: usize, len: usize) -> Vec<WireRequest> {
    let mut rng = TensorRng::seed(seed ^ 0x477b ^ ((conn as u64) << 32));
    let mut out: Vec<WireRequest> = Vec::with_capacity(len);
    for i in 0..len {
        if i >= 16 && rng.uniform(0.0, 1.0) < REPEAT_SHARE {
            let back = 2 + rng.below(15);
            let src = &out[i - back];
            let root = src.repeat_of.unwrap_or(i - back);
            out.push(WireRequest {
                kind: src.kind,
                bytes: src.bytes.clone(),
                repeat_of: Some(root),
            });
            continue;
        }
        let kind = [BodyKind::F32, BodyKind::Q78, BodyKind::Vid][rng.below(3)];
        let body = match kind {
            BodyKind::F32 => encode_clip_f32(&rng.uniform_tensor(MICRO_SHAPE, 0.0, 1.0)),
            BodyKind::Q78 => encode_clip_q78(&rng.uniform_tensor(MICRO_SHAPE, 0.0, 1.0)),
            BodyKind::Vid => vid_container(&mut rng),
        };
        out.push(WireRequest {
            kind,
            bytes: request_bytes(kind, &body),
            repeat_of: None,
        });
    }
    out
}

/// A P3DVID1 container of `D` seeded `VID_SIDE x VID_SIDE` gray frames.
fn vid_container(rng: &mut TensorRng) -> Vec<u8> {
    let frames = MICRO_SHAPE[1];
    let header = VidHeader::gray8(VID_SIDE, VID_SIDE, frames as u32, 30_000);
    let mut w = VidWriter::new(Vec::new(), header).expect("valid header");
    let mut frame = vec![0u8; (VID_SIDE * VID_SIDE) as usize];
    for _ in 0..frames {
        frame.iter_mut().for_each(|p| *p = rng.below(256) as u8);
        w.write_frame(&frame).expect("frame matches header");
    }
    w.finish().expect("writing to memory cannot fail")
}

fn request_bytes(kind: BodyKind, body: &[u8]) -> Vec<u8> {
    let [c, d, h, w] = MICRO_SHAPE;
    let mut bytes = format!(
        "POST /v1/infer HTTP/1.1\r\nHost: perfbench\r\nContent-Type: {}\r\n\
         X-P3D-Shape: {c},{d},{h},{w}\r\nContent-Length: {}\r\n\r\n",
        kind.content_type(),
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Every byte a workload's run feeds the program for `seed`, in order:
/// checkpoint, block maps and clips offline; request bytes over HTTP.
#[cfg(test)]
pub fn stream_fingerprint(workload: &str, seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    let push_model = |out: &mut Vec<u8>, art: &ModelArtifact| {
        out.extend_from_slice(&art.ckpt);
        for (name, mask) in &art.pruned.layers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&mask.to_bitmap());
        }
    };
    if workload == "http-mixed" {
        push_model(&mut out, &ModelArtifact::dense_micro(seed));
        for conn in 0..2 {
            for r in http_stream(seed, conn, HTTP_STREAM_LEN) {
                out.extend_from_slice(&r.bytes);
            }
        }
    } else {
        let art = ModelArtifact::pruned_lite(seed);
        push_model(&mut out, &art);
        for clip in clip_pool(seed, OFFLINE_POOL, art.input_shape()) {
            for v in clip.data() {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in ["offline-f32-pruned", "offline-sim-pruned", "http-mixed"] {
            let a = stream_fingerprint(workload, 7);
            assert_eq!(
                a,
                stream_fingerprint(workload, 7),
                "{workload}: not reproducible"
            );
            assert_ne!(
                a,
                stream_fingerprint(workload, 8),
                "{workload}: seed ignored"
            );
        }
    }

    #[test]
    fn http_stream_mixes_kinds_and_repeats() {
        let s = http_stream(3, 0, HTTP_STREAM_LEN);
        let count = |k: BodyKind| {
            s.iter()
                .filter(|r| r.kind == k && r.repeat_of.is_none())
                .count()
        };
        let fresh = s.iter().filter(|r| r.repeat_of.is_none()).count();
        for k in [BodyKind::F32, BodyKind::Q78, BodyKind::Vid] {
            let share = count(k) as f64 / fresh as f64;
            assert!((0.25..0.42).contains(&share), "{k:?} share {share}");
        }
        let repeats = s.len() - fresh;
        let share = repeats as f64 / s.len() as f64;
        assert!((0.18..0.30).contains(&share), "repeat share {share}");
        for (i, r) in s.iter().enumerate() {
            if let Some(root) = r.repeat_of {
                assert!(root + 2 <= i);
                assert_eq!(r.bytes, s[root].bytes);
            }
        }
    }

    #[test]
    fn pruned_lite_prunes_both_stages() {
        let art = ModelArtifact::pruned_lite(1);
        assert!(art.pruned.layers.keys().any(|k| k.starts_with("conv2_")));
        assert!(art.pruned.layers.keys().any(|k| k.starts_with("conv3_")));
        assert!(
            art.pruned.kept_fraction() < 0.3,
            "{}",
            art.pruned.kept_fraction()
        );
    }
}
