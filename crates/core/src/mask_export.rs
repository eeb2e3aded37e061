//! Block-enable masks: the bridge between the pruner and the FPGA.
//!
//! The accelerator (Fig. 2) consumes, per convolution layer, a bitmap
//! with one bit per `Tm x Tn` weight block — the *block enable signal*
//! "fetched from a pre-stored array generated for the pruned model". This
//! module defines that artifact and its serialisation.

use crate::blocks::{BlockGrid, BlockShape};
use p3d_nn::Layer;
use p3d_tensor::BlockPattern;
use std::collections::BTreeMap;

/// The block-enable map of one convolution layer.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerBlockMask {
    /// The layer's block grid.
    pub grid: BlockGrid,
    /// Keep flags in flat block order (row-major over `(bi, bj)`).
    pub keep: Vec<bool>,
}

impl LayerBlockMask {
    /// Creates a mask.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != grid.num_blocks()`.
    pub fn new(grid: BlockGrid, keep: Vec<bool>) -> Self {
        assert_eq!(keep.len(), grid.num_blocks(), "keep length mismatch");
        LayerBlockMask { grid, keep }
    }

    /// A fully-enabled mask (unpruned layer).
    pub fn dense(grid: BlockGrid) -> Self {
        LayerBlockMask {
            keep: vec![true; grid.num_blocks()],
            grid,
        }
    }

    /// Number of enabled blocks.
    pub fn enabled_blocks(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Fraction of enabled blocks.
    pub fn enabled_fraction(&self) -> f64 {
        self.enabled_blocks() as f64 / self.keep.len() as f64
    }

    /// Whether block `(bi, bj)` is enabled.
    pub fn is_enabled(&self, bi: usize, bj: usize) -> bool {
        self.keep[self.grid.block_index(bi, bj)]
    }

    /// Enabled blocks within block row `bi` (the inner `L3` loop trip
    /// count of the tiled convolution for output tile row `bi`).
    pub fn enabled_in_row(&self, bi: usize) -> usize {
        (0..self.grid.cols())
            .filter(|&bj| self.is_enabled(bi, bj))
            .count()
    }

    /// Weights surviving under this mask.
    pub fn kept_params(&self) -> usize {
        self.grid.kept_params(&self.keep)
    }

    /// Kernel (m, n) pairs surviving — proportional to the surviving MACs.
    pub fn kept_kernels(&self) -> usize {
        self.kept_params() / self.grid.kernel_volume
    }

    /// Packs the keep flags into an LSB-first bitmap, 8 blocks per byte
    /// with a trailing partial byte — the "pre-stored array" format the
    /// simulator loads.
    pub fn to_bitmap(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.keep.len().div_ceil(8));
        let mut byte = 0u8;
        for (i, &k) in self.keep.iter().enumerate() {
            if k {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                buf.push(byte);
                byte = 0;
            }
        }
        if !self.keep.len().is_multiple_of(8) {
            buf.push(byte);
        }
        buf
    }

    /// Lowers this mask to the matrix-coordinate [`BlockPattern`] the
    /// CPU block-sparse GEMM consumes.
    ///
    /// The weight tensor `[M, N, Kd, Kr, Kc]`, viewed row-major as the
    /// `[M, N * kv]` GEMM left operand, maps a `Tm x Tn` channel block
    /// onto a `tm = Tm` by `tk = Tn * kv` matrix block: the `Tn` input
    /// channels of block column `bj` own the contiguous column range
    /// `[bj*Tn*kv, min((bj+1)*Tn, N)*kv)`. Block coordinates and the
    /// row-major keep bitmap carry over one-to-one, so the same enable
    /// bits gate the FPGA simulator's tile skip and the CPU kernel's
    /// block skip.
    pub fn to_block_pattern(&self) -> BlockPattern {
        let kv = self.grid.kernel_volume;
        BlockPattern {
            m: self.grid.m,
            k: self.grid.n * kv,
            tm: self.grid.shape.tm,
            tk: self.grid.shape.tn * kv,
            keep: self.keep.clone(),
        }
    }

    /// Unpacks a bitmap produced by [`LayerBlockMask::to_bitmap`].
    ///
    /// # Panics
    ///
    /// Panics if the bitmap is too short for the grid.
    pub fn from_bitmap(grid: BlockGrid, bitmap: &[u8]) -> Self {
        let n = grid.num_blocks();
        assert!(bitmap.len() * 8 >= n, "bitmap too short");
        let keep = (0..n)
            .map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
            .collect();
        LayerBlockMask { grid, keep }
    }
}

/// The pruned model artifact: a block-enable map per (spec) layer name.
///
/// Layers absent from the map are unpruned (all blocks enabled).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrunedModel {
    /// The block shape shared with the FPGA tiling.
    pub block_shape: Option<BlockShape>,
    /// Per-layer masks keyed by spec layer name (e.g.
    /// `"conv2_1a.spatial"`).
    pub layers: BTreeMap<String, LayerBlockMask>,
}

impl PrunedModel {
    /// An empty (fully dense) model description.
    pub fn dense() -> Self {
        PrunedModel::default()
    }

    /// Inserts a layer mask.
    pub fn insert(&mut self, layer: impl Into<String>, mask: LayerBlockMask) {
        if self.block_shape.is_none() {
            self.block_shape = Some(mask.grid.shape);
        }
        self.layers.insert(layer.into(), mask);
    }

    /// The mask for `layer`, if pruned.
    pub fn mask(&self, layer: &str) -> Option<&LayerBlockMask> {
        self.layers.get(layer)
    }

    /// Installs this model's block-enable maps as block-sparse execution
    /// patterns on `network`: every conv layer named in the map compiles
    /// its (masked) weights to block-CSR and runs `forward`/`eval_into`
    /// through the block-skipping GEMM from then on. Layers absent from
    /// the map keep the dense path. Outputs are bitwise identical either
    /// way (the skipped blocks are exactly zero); the sparse path is
    /// just proportionally faster — the CPU analogue of the
    /// accelerator's block-enable gating.
    pub fn install_block_sparse(&self, network: &mut dyn Layer) {
        network.install_block_patterns(&mut |param_name| {
            let layer = param_name.strip_suffix(".weight")?;
            self.layers.get(layer).map(LayerBlockMask::to_block_pattern)
        });
    }

    /// Overall kept fraction of the masked layers' parameters.
    pub fn kept_fraction(&self) -> f64 {
        let (kept, total) = self.layers.values().fold((0usize, 0usize), |(k, t), m| {
            (k + m.kept_params(), t + m.grid.total_params())
        });
        if total == 0 {
            1.0
        } else {
            kept as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_mask() -> LayerBlockMask {
        let grid = BlockGrid::new(4, 6, 2, BlockShape::new(2, 2));
        // 2x3 grid of blocks.
        LayerBlockMask::new(grid, vec![true, false, true, false, false, true])
    }

    #[test]
    fn enabled_counts() {
        let m = demo_mask();
        assert_eq!(m.enabled_blocks(), 3);
        assert!((m.enabled_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(m.enabled_in_row(0), 2);
        assert_eq!(m.enabled_in_row(1), 1);
        assert!(m.is_enabled(0, 0));
        assert!(!m.is_enabled(0, 1));
    }

    #[test]
    fn kept_params_counts_block_sizes() {
        let m = demo_mask();
        // All blocks are 2x2 kernels x volume 2 = 8 weights.
        assert_eq!(m.kept_params(), 3 * 8);
        assert_eq!(m.kept_kernels(), 3 * 4);
    }

    #[test]
    fn bitmap_roundtrip() {
        let m = demo_mask();
        let bits = m.to_bitmap();
        assert_eq!(bits.len(), 1);
        // Blocks 0, 2 and 5 enabled, LSB first, partial trailing byte.
        assert_eq!(bits, [0b0010_0101]);
        let back = LayerBlockMask::from_bitmap(m.grid, &bits);
        assert_eq!(back, m);
    }

    #[test]
    fn bitmap_roundtrip_long() {
        let grid = BlockGrid::new(16, 16, 1, BlockShape::new(2, 2));
        let keep: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let m = LayerBlockMask::new(grid, keep);
        let back = LayerBlockMask::from_bitmap(grid, &m.to_bitmap());
        assert_eq!(back, m);
    }

    #[test]
    fn dense_mask_everything_enabled() {
        let grid = BlockGrid::new(8, 8, 3, BlockShape::new(4, 4));
        let m = LayerBlockMask::dense(grid);
        assert_eq!(m.enabled_fraction(), 1.0);
        assert_eq!(m.kept_params(), grid.total_params());
    }

    #[test]
    fn pruned_model_kept_fraction() {
        let mut pm = PrunedModel::dense();
        assert_eq!(pm.kept_fraction(), 1.0);
        pm.insert("a", demo_mask());
        assert!((pm.kept_fraction() - 0.5).abs() < 1e-12);
        assert!(pm.mask("a").is_some());
        assert!(pm.mask("b").is_none());
        assert_eq!(pm.block_shape, Some(BlockShape::new(2, 2)));
    }
}
