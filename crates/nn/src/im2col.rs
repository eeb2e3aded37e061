//! im2col / col2im lowering for 3D convolution.
//!
//! A 3D convolution over a `[N, Di, Hi, Wi]` volume with kernel
//! `(Kd, Kr, Kc)` is lowered to a matrix multiply: the input is unfolded
//! into a `[N*Kd*Kr*Kc, Do*Ho*Wo]` column matrix, the weights are viewed
//! as `[M, N*Kd*Kr*Kc]`, and the product is the `[M, Do*Ho*Wo]` output.
//! `col2im` is the adjoint (scatter-add) used by the backward pass.

use p3d_tensor::{Shape, Tensor};

/// Geometry of one 3D convolution, shared by forward and backward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub channels: usize,
    /// Input extents (depth, height, width).
    pub input: (usize, usize, usize),
    /// Kernel extents.
    pub kernel: (usize, usize, usize),
    /// Strides.
    pub stride: (usize, usize, usize),
    /// Symmetric zero padding per side.
    pub pad: (usize, usize, usize),
}

impl ConvGeometry {
    /// Output extents (depth, height, width).
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel in any axis.
    pub fn output(&self) -> (usize, usize, usize) {
        let o = |i: usize, k: usize, s: usize, p: usize| {
            p3d_tensor::shape::conv_out(i, k, s, p)
        };
        (
            o(self.input.0, self.kernel.0, self.stride.0, self.pad.0),
            o(self.input.1, self.kernel.1, self.stride.1, self.pad.1),
            o(self.input.2, self.kernel.2, self.stride.2, self.pad.2),
        )
    }

    /// Rows of the column matrix: `N * Kd * Kr * Kc`.
    pub fn col_rows(&self) -> usize {
        self.channels * self.kernel.0 * self.kernel.1 * self.kernel.2
    }

    /// Columns of the column matrix: `Do * Ho * Wo`.
    pub fn col_cols(&self) -> usize {
        let (d, h, w) = self.output();
        d * h * w
    }
}

/// Unfolds one `[N, Di, Hi, Wi]` volume (flat slice) into a column matrix
/// `[N*Kd*Kr*Kc, Do*Ho*Wo]`. Out-of-bounds (padding) positions read zero.
pub fn im2col(input: &[f32], geom: &ConvGeometry) -> Tensor {
    let rows = geom.col_rows();
    let cols = geom.col_cols();
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(input, geom, &[(0, rows)], &mut out);
    Tensor::from_vec(Shape::d2(rows, cols), out)
}

/// Allocation-free [`im2col`] of the column-matrix rows in `rows`
/// (ascending `[r0, r1)` ranges) into a caller-provided buffer of
/// length `col_rows() * col_cols()`.
///
/// Every position of a listed row is written — padding positions get an
/// **explicit** zero rather than relying on a pre-zeroed buffer — so a
/// scratch buffer reused across forwards (the inference arena's steady
/// state) needs no clearing between calls. Rows outside `rows` are left
/// untouched: a block-sparse conv passes its live k-ranges
/// (`BlockSparseWeights::live_k_ranges`), whose GEMM never reads the
/// others. The full matrix is `&[(0, geom.col_rows())]`.
///
/// # Panics
///
/// Panics if `out` has the wrong length or a range ends past
/// `col_rows()`.
pub fn im2col_into(input: &[f32], geom: &ConvGeometry, rows: &[(usize, usize)], out: &mut [f32]) {
    let (n, (di, hi, wi)) = (geom.channels, geom.input);
    let (kd, kr, kc) = geom.kernel;
    let (sd, sr, sc) = geom.stride;
    let (pd, pr, pc) = geom.pad;
    let (_, oh, ow) = geom.output();
    debug_assert_eq!(input.len(), n * di * hi * wi);

    let cols = geom.col_cols();
    assert_eq!(
        out.len(),
        geom.col_rows() * cols,
        "im2col_into: out buffer length mismatch"
    );

    let kvol = kd * kr * kc;
    for &(r0, r1) in rows {
        assert!(
            r1 <= geom.col_rows(),
            "im2col_into: row range past col_rows"
        );
        for row in r0..r1 {
            // Row `row` is input channel `ch` at kernel offset
            // `(kd_i, kr_i, kc_i)`, row-major over `[N, Kd, Kr, Kc]`.
            let (ch, tap) = (row / kvol, row % kvol);
            let (kd_i, kr_i, kc_i) = (tap / (kr * kc), (tap / kc) % kr, tap % kc);
            let ch_base = ch * di * hi * wi;
            // Output columns `w_lo..w_hi` read input column
            // `ow_i * sc + kc_i - pc` inside `[0, wi)`; the rest are padding.
            let w_lo = pc.saturating_sub(kc_i).div_ceil(sc).min(ow);
            let w_hi = (pc + wi).saturating_sub(kc_i).div_ceil(sc).clamp(w_lo, ow);
            let out_row = &mut out[row * cols..(row + 1) * cols];
            for (od_i, out_plane) in out_row.chunks_exact_mut(oh * ow).enumerate() {
                let d = (od_i * sd + kd_i) as isize - pd as isize;
                let d_ok = d >= 0 && (d as usize) < di;
                for (oh_i, seg) in out_plane.chunks_exact_mut(ow).enumerate() {
                    let h = (oh_i * sr + kr_i) as isize - pr as isize;
                    if !(d_ok && h >= 0 && (h as usize) < hi) || w_lo == w_hi {
                        seg.fill(0.0);
                        continue;
                    }
                    let plane = ch_base + d as usize * hi * wi + h as usize * wi;
                    let src = &input[plane + w_lo * sc + kc_i - pc..plane + wi];
                    seg[..w_lo].fill(0.0);
                    if sc == 1 {
                        seg[w_lo..w_hi].copy_from_slice(&src[..w_hi - w_lo]);
                    } else {
                        for (o, &v) in seg[w_lo..w_hi].iter_mut().zip(src.iter().step_by(sc)) {
                            *o = v;
                        }
                    }
                    seg[w_hi..].fill(0.0);
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a column-matrix gradient back into
/// an input-shaped gradient buffer (flat `[N, Di, Hi, Wi]`).
pub fn col2im(cols_grad: &Tensor, geom: &ConvGeometry, input_grad: &mut [f32]) {
    let (n, (di, hi, wi)) = (geom.channels, geom.input);
    let (kd, kr, kc) = geom.kernel;
    let (sd, sr, sc) = geom.stride;
    let (pd, pr, pc) = geom.pad;
    let (od, oh, ow) = geom.output();
    let cols = geom.col_cols();
    debug_assert_eq!(cols_grad.shape().dims(), &[geom.col_rows(), cols]);
    debug_assert_eq!(input_grad.len(), n * di * hi * wi);
    let data = cols_grad.data();

    let mut row = 0usize;
    for ch in 0..n {
        let ch_base = ch * di * hi * wi;
        for kd_i in 0..kd {
            for kr_i in 0..kr {
                for kc_i in 0..kc {
                    let row_base = row * cols;
                    let mut col = 0usize;
                    for od_i in 0..od {
                        let d = (od_i * sd + kd_i) as isize - pd as isize;
                        let d_ok = d >= 0 && (d as usize) < di;
                        for oh_i in 0..oh {
                            let h = (oh_i * sr + kr_i) as isize - pr as isize;
                            let h_ok = h >= 0 && (h as usize) < hi;
                            if !(d_ok && h_ok) {
                                col += ow;
                                continue;
                            }
                            let plane = ch_base + d as usize * hi * wi + h as usize * wi;
                            for ow_i in 0..ow {
                                let w = (ow_i * sc + kc_i) as isize - pc as isize;
                                if w >= 0 && (w as usize) < wi {
                                    input_grad[plane + w as usize] += data[row_base + col];
                                }
                                col += 1;
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_1ch() -> ConvGeometry {
        ConvGeometry {
            channels: 1,
            input: (1, 3, 3),
            kernel: (1, 2, 2),
            stride: (1, 1, 1),
            pad: (0, 0, 0),
        }
    }

    #[test]
    fn output_shape() {
        let g = ConvGeometry {
            channels: 3,
            input: (16, 112, 112),
            kernel: (1, 7, 7),
            stride: (1, 2, 2),
            pad: (0, 3, 3),
        };
        assert_eq!(g.output(), (16, 56, 56));
        assert_eq!(g.col_rows(), 3 * 49);
        assert_eq!(g.col_cols(), 16 * 56 * 56);
    }

    #[test]
    fn im2col_2x2_window() {
        // 3x3 single-channel image, 2x2 kernel, no pad: 4 output positions.
        let input: Vec<f32> = (1..=9).map(|x| x as f32).collect();
        let cols = im2col(&input, &geom_1ch());
        assert_eq!(cols.shape().dims(), &[4, 4]);
        // Row 0 is kernel offset (0,0,0): top-left of each window.
        assert_eq!(&cols.data()[0..4], &[1., 2., 4., 5.]);
        // Row 3 is offset (0,1,1): bottom-right of each window.
        assert_eq!(&cols.data()[12..16], &[5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let g = ConvGeometry {
            channels: 1,
            input: (1, 2, 2),
            kernel: (1, 3, 3),
            stride: (1, 1, 1),
            pad: (0, 1, 1),
        };
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let cols = im2col(&input, &g);
        assert_eq!(cols.shape().dims(), &[9, 4]);
        // Kernel offset (0,0,0) with pad 1: only the bottom-right output
        // position (1,1) maps inside, to input (0,0).
        assert_eq!(&cols.data()[0..4], &[0., 0., 0., 1.]);
        // Centre tap (0,1,1) is the identity.
        let centre = 4 * 4;
        assert_eq!(&cols.data()[centre..centre + 4], &[1., 2., 3., 4.]);
    }

    #[test]
    fn im2col_temporal_axis() {
        // Two frames, 1x1 spatial, temporal kernel 2.
        let g = ConvGeometry {
            channels: 1,
            input: (3, 1, 1),
            kernel: (2, 1, 1),
            stride: (1, 1, 1),
            pad: (0, 0, 0),
        };
        let input = vec![10.0, 20.0, 30.0];
        let cols = im2col(&input, &g);
        assert_eq!(cols.shape().dims(), &[2, 2]);
        assert_eq!(cols.data(), &[10., 20., 20., 30.]);
    }

    #[test]
    fn im2col_into_overwrites_stale_buffer() {
        // A reused (dirty) buffer must produce exactly the same matrix as
        // a fresh allocation — padding positions are written explicitly.
        let g = ConvGeometry {
            channels: 2,
            input: (2, 3, 3),
            kernel: (2, 2, 2),
            stride: (1, 1, 1),
            pad: (1, 1, 1),
        };
        let input: Vec<f32> = (0..2 * 2 * 3 * 3).map(|x| x as f32 - 7.0).collect();
        let fresh = im2col(&input, &g);
        let mut dirty = vec![f32::NAN; g.col_rows() * g.col_cols()];
        im2col_into(&input, &g, &[(0, g.col_rows())], &mut dirty);
        assert_eq!(dirty.as_slice(), fresh.data());
    }

    #[test]
    fn im2col_matches_per_element_definition() {
        // Every entry against the definition, over strides and pads that
        // put whole output columns in the padding on either side.
        for (k, s, p) in [
            (1, 1, 0),
            (3, 1, 1),
            (5, 2, 2),
            (3, 3, 2),
            (2, 2, 1),
            (1, 2, 1),
        ] {
            let g = ConvGeometry {
                channels: 2,
                input: (3, 4, 5),
                kernel: (k.min(3), k, k),
                stride: (1, s, s),
                pad: (p.min(1), p, p),
            };
            let (di, hi, wi) = g.input;
            let input: Vec<f32> = (0..2 * di * hi * wi).map(|x| x as f32 + 1.0).collect();
            let cols = im2col(&input, &g);
            let (od, oh, ow) = g.output();
            let (kd, kr, kc) = g.kernel;
            for row in 0..g.col_rows() {
                let (ch, tap) = (row / (kd * kr * kc), row % (kd * kr * kc));
                let (a, b, c) = (tap / (kr * kc), (tap / kc) % kr, tap % kc);
                for col in 0..od * oh * ow {
                    let (x, y, z) = (col / (oh * ow), (col / ow) % oh, col % ow);
                    let d = (x * g.stride.0 + a) as isize - g.pad.0 as isize;
                    let h = (y * s + b) as isize - p as isize;
                    let w = (z * s + c) as isize - p as isize;
                    let inside = (0..di as isize).contains(&d)
                        && (0..hi as isize).contains(&h)
                        && (0..wi as isize).contains(&w);
                    let want = if inside {
                        input[((ch * di + d as usize) * hi + h as usize) * wi + w as usize]
                    } else {
                        0.0
                    };
                    assert_eq!(
                        cols.data()[row * od * oh * ow + col],
                        want,
                        "kernel {k} stride {s} pad {p}: row {row} col {col}"
                    );
                }
            }
        }
    }

    #[test]
    fn im2col_into_writes_only_the_listed_rows() {
        // Live rows match the full unfold bit for bit; a sentinel in every
        // other row survives untouched.
        let g = ConvGeometry {
            channels: 3,
            input: (3, 4, 5),
            kernel: (2, 3, 2),
            stride: (1, 2, 1),
            pad: (1, 1, 0),
        };
        let input: Vec<f32> = (0..3 * 3 * 4 * 5).map(|x| x as f32 * 0.25 - 9.0).collect();
        let full = im2col(&input, &g);
        let cols = g.col_cols();
        // Rows straddle channel boundaries (12 rows per channel).
        let live = [(0, 1), (5, 14), (30, 36)];
        let sentinel = f32::from_bits(0x7fc0_dead);
        let mut out = vec![sentinel; g.col_rows() * cols];
        im2col_into(&input, &g, &live, &mut out);
        for row in 0..g.col_rows() {
            let got = &out[row * cols..(row + 1) * cols];
            if live.iter().any(|&(r0, r1)| (r0..r1).contains(&row)) {
                let want = &full.data()[row * cols..(row + 1) * cols];
                assert!(
                    got.iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "live row {row} differs from im2col"
                );
            } else {
                assert!(
                    got.iter().all(|v| v.to_bits() == sentinel.to_bits()),
                    "dead row {row} was written"
                );
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the adjoint, checked on a small random case.
        use p3d_tensor::TensorRng;
        let g = ConvGeometry {
            channels: 2,
            input: (3, 4, 4),
            kernel: (2, 2, 2),
            stride: (1, 2, 2),
            pad: (1, 0, 1),
        };
        let mut rng = TensorRng::seed(11);
        let x = rng.uniform_tensor([2 * 3 * 4 * 4], -1.0, 1.0);
        let y = rng.uniform_tensor([g.col_rows() * g.col_cols()], -1.0, 1.0);
        let cols = im2col(x.data(), &g);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let y_mat = y.reshape([g.col_rows(), g.col_cols()]);
        let mut back = vec![0.0f32; x.len()];
        col2im(&y_mat, &g, &mut back);
        let rhs: f32 = back.iter().zip(x.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
