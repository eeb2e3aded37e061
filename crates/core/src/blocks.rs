//! Blockwise partitioning of 5-D convolution weight tensors.
//!
//! The paper's pruning unit (Fig. 1): a weight tensor
//! `W in R^{M x N x Kd x Kr x Kc}` is viewed as an `M x N` grid of 3D
//! kernels and divided into blocks of `Tm x Tn` kernels — precisely the
//! granularity of the FPGA weight buffer — giving
//! `ceil(M/Tm) x ceil(N/Tn)` blocks. Edge blocks are smaller when `Tm`/`Tn`
//! do not divide `M`/`N`.

use p3d_tensor::Tensor;

/// The block size `(Tm, Tn)` shared by the pruner and the FPGA design.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockShape {
    /// Output-channel tile `Tm`.
    pub tm: usize,
    /// Input-channel tile `Tn`.
    pub tn: usize,
}

impl BlockShape {
    /// Creates a block shape.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new(tm: usize, tn: usize) -> Self {
        assert!(tm > 0 && tn > 0, "block shape must be positive");
        BlockShape { tm, tn }
    }
}

/// The block grid of one conv weight tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockGrid {
    /// Output channels `M`.
    pub m: usize,
    /// Input channels `N`.
    pub n: usize,
    /// Kernel volume `Kd * Kr * Kc`.
    pub kernel_volume: usize,
    /// Block shape.
    pub shape: BlockShape,
}

impl BlockGrid {
    /// Builds the grid for a `[M, N, Kd, Kr, Kc]` weight tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-5.
    pub fn for_weight(weight: &Tensor, shape: BlockShape) -> Self {
        let s = weight.shape();
        assert_eq!(s.rank(), 5, "expected [M, N, Kd, Kr, Kc], got {s}");
        BlockGrid {
            m: s.dim(0),
            n: s.dim(1),
            kernel_volume: s.dim(2) * s.dim(3) * s.dim(4),
            shape,
        }
    }

    /// Builds a grid from raw dimensions.
    pub fn new(m: usize, n: usize, kernel_volume: usize, shape: BlockShape) -> Self {
        assert!(m > 0 && n > 0 && kernel_volume > 0, "degenerate grid");
        BlockGrid {
            m,
            n,
            kernel_volume,
            shape,
        }
    }

    /// Block rows `ceil(M/Tm)`.
    pub fn rows(&self) -> usize {
        self.m.div_ceil(self.shape.tm)
    }

    /// Block columns `ceil(N/Tn)`.
    pub fn cols(&self) -> usize {
        self.n.div_ceil(self.shape.tn)
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.rows() * self.cols()
    }

    /// The output-channel range `[start, end)` of block row `bi`.
    pub fn row_range(&self, bi: usize) -> (usize, usize) {
        assert!(bi < self.rows(), "block row {bi} out of range");
        let start = bi * self.shape.tm;
        (start, (start + self.shape.tm).min(self.m))
    }

    /// The input-channel range `[start, end)` of block column `bj`.
    pub fn col_range(&self, bj: usize) -> (usize, usize) {
        assert!(bj < self.cols(), "block column {bj} out of range");
        let start = bj * self.shape.tn;
        (start, (start + self.shape.tn).min(self.n))
    }

    /// Number of weights in block `(bi, bj)` — smaller for edge blocks.
    pub fn block_len(&self, bi: usize, bj: usize) -> usize {
        let (m0, m1) = self.row_range(bi);
        let (n0, n1) = self.col_range(bj);
        (m1 - m0) * (n1 - n0) * self.kernel_volume
    }

    /// Flat block index of `(bi, bj)` in row-major block order.
    pub fn block_index(&self, bi: usize, bj: usize) -> usize {
        bi * self.cols() + bj
    }

    /// Inverse of [`BlockGrid::block_index`].
    pub fn block_coords(&self, idx: usize) -> (usize, usize) {
        assert!(idx < self.num_blocks(), "block index out of range");
        (idx / self.cols(), idx % self.cols())
    }

    /// Calls `f` with the flat tensor offset of every weight in block
    /// `(bi, bj)`.
    pub fn for_each_offset(&self, bi: usize, bj: usize, mut f: impl FnMut(usize)) {
        let (m0, m1) = self.row_range(bi);
        let (n0, n1) = self.col_range(bj);
        let kv = self.kernel_volume;
        for m in m0..m1 {
            for n in n0..n1 {
                let base = (m * self.n + n) * kv;
                for off in base..base + kv {
                    f(off);
                }
            }
        }
    }

    /// The squared L2 norm of every block, in flat block order.
    pub fn block_norms_sq(&self, weight: &Tensor) -> Vec<f64> {
        assert_eq!(
            weight.len(),
            self.m * self.n * self.kernel_volume,
            "weight length does not match grid"
        );
        let data = weight.data();
        let kv = self.kernel_volume;
        // Per-kernel squared norms first, then aggregate per block.
        let mut kernel_sq = vec![0.0f64; self.m * self.n];
        for (k, sq) in kernel_sq.iter_mut().enumerate() {
            let base = k * kv;
            *sq = data[base..base + kv]
                .iter()
                .map(|&x| (x as f64) * (x as f64))
                .sum();
        }
        let mut out = vec![0.0f64; self.num_blocks()];
        for bi in 0..self.rows() {
            let (m0, m1) = self.row_range(bi);
            for bj in 0..self.cols() {
                let (n0, n1) = self.col_range(bj);
                let mut sum = 0.0f64;
                for m in m0..m1 {
                    for n in n0..n1 {
                        sum += kernel_sq[m * self.n + n];
                    }
                }
                out[self.block_index(bi, bj)] = sum;
            }
        }
        out
    }

    /// Zeroes every weight of block `(bi, bj)` in place.
    pub fn zero_block(&self, weight: &mut Tensor, bi: usize, bj: usize) {
        let data = weight.data_mut();
        self.for_each_offset(bi, bj, |off| data[off] = 0.0);
    }

    /// Builds a 0/1 elementwise mask from a per-block keep vector.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != num_blocks()`.
    pub fn mask_from_blocks(&self, keep: &[bool]) -> Tensor {
        assert_eq!(keep.len(), self.num_blocks(), "keep vector length mismatch");
        let mut mask = Tensor::zeros([self.m, self.n, self.kernel_volume, 1, 1]);
        let data = mask.data_mut();
        for bi in 0..self.rows() {
            for bj in 0..self.cols() {
                if keep[self.block_index(bi, bj)] {
                    self.for_each_offset(bi, bj, |off| data[off] = 1.0);
                }
            }
        }
        mask
    }

    /// Number of weights covered by kept blocks.
    pub fn kept_params(&self, keep: &[bool]) -> usize {
        assert_eq!(keep.len(), self.num_blocks(), "keep vector length mismatch");
        let mut total = 0;
        for bi in 0..self.rows() {
            for bj in 0..self.cols() {
                if keep[self.block_index(bi, bj)] {
                    total += self.block_len(bi, bj);
                }
            }
        }
        total
    }

    /// Total weight count `M * N * kernel_volume`.
    pub fn total_params(&self) -> usize {
        self.m * self.n * self.kernel_volume
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_tensor::TensorRng;

    fn grid_4x6() -> BlockGrid {
        // M=4, N=6, kernel 2; blocks of 2x4 -> 2x2 grid with edge cols.
        BlockGrid::new(4, 6, 2, BlockShape::new(2, 4))
    }

    #[test]
    fn grid_dimensions() {
        let g = grid_4x6();
        assert_eq!(g.rows(), 2);
        assert_eq!(g.cols(), 2);
        assert_eq!(g.num_blocks(), 4);
        assert_eq!(g.row_range(0), (0, 2));
        assert_eq!(g.col_range(1), (4, 6)); // edge block: 2 wide, not 4
        assert_eq!(g.block_len(0, 0), 2 * 4 * 2);
        assert_eq!(g.block_len(0, 1), 2 * 2 * 2);
        assert_eq!(g.total_params(), 48);
    }

    #[test]
    fn paper_block_counts() {
        // conv2 spatial layer: M=144, N=64 with (Tm,Tn)=(64,8):
        // ceil(144/64) x ceil(64/8) = 3 x 8 = 24 blocks (Section III-A).
        let g = BlockGrid::new(144, 64, 9, BlockShape::new(64, 8));
        assert_eq!(g.num_blocks(), 24);
        // Edge row covers channels 128..144.
        assert_eq!(g.row_range(2), (128, 144));
    }

    #[test]
    fn offsets_cover_tensor_exactly_once() {
        let g = grid_4x6();
        let mut seen = vec![0usize; g.total_params()];
        for bi in 0..g.rows() {
            for bj in 0..g.cols() {
                g.for_each_offset(bi, bj, |off| seen[off] += 1);
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "offsets not a partition");
    }

    #[test]
    fn block_norms_known_values() {
        let g = BlockGrid::new(2, 2, 1, BlockShape::new(1, 1));
        let w = Tensor::from_vec([2, 2, 1, 1, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let norms = g.block_norms_sq(&w);
        assert_eq!(norms, vec![1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    fn block_norms_sum_to_frobenius() {
        let mut rng = TensorRng::seed(5);
        let w = rng.uniform_tensor([6, 5, 2, 3, 3], -1.0, 1.0);
        let g = BlockGrid::for_weight(&w, BlockShape::new(4, 2));
        let total: f64 = g.block_norms_sq(&w).iter().sum();
        assert!((total - w.frobenius_norm_sq() as f64).abs() < 1e-3);
    }

    #[test]
    fn zero_block_zeroes_only_that_block() {
        let g = grid_4x6();
        let mut w = Tensor::ones([4, 6, 2, 1, 1]);
        g.zero_block(&mut w, 1, 1);
        assert_eq!(w.count_zeros(), g.block_len(1, 1));
        // Norm of the zeroed block is 0, others positive.
        let norms = g.block_norms_sq(&w);
        assert_eq!(norms[g.block_index(1, 1)], 0.0);
        assert!(norms[0] > 0.0);
    }

    #[test]
    fn mask_matches_kept_params() {
        let g = grid_4x6();
        let keep = vec![true, false, false, true];
        let mask = g.mask_from_blocks(&keep);
        let ones = mask.data().iter().filter(|&&x| x == 1.0).count();
        assert_eq!(ones, g.kept_params(&keep));
        assert_eq!(ones, g.block_len(0, 0) + g.block_len(1, 1));
    }

    #[test]
    fn coords_roundtrip() {
        let g = grid_4x6();
        for idx in 0..g.num_blocks() {
            let (bi, bj) = g.block_coords(idx);
            assert_eq!(g.block_index(bi, bj), idx);
        }
    }
}
