//! Arena-based evaluation must match `forward(Mode::Eval)` bitwise and
//! stop growing once the per-layer buffers are warm.

use p3d_nn::{
    BatchNorm3d, Conv3d, EvalArena, Flatten, GlobalAvgPool, Layer, Linear, MaxPool3d, Mode, Relu,
    ResidualBlock, Sequential,
};
use p3d_tensor::{BlockPattern, Tensor, TensorRng};

/// A small network exercising every layer kind that overrides
/// `eval_into`: conv, batch norm, relu, max pool, residual (identity and
/// projected), global average pool, flatten, and linear.
fn build_net(rng: &mut TensorRng) -> Sequential {
    let stem = Sequential::new()
        .push(Conv3d::new("stem", 4, 1, (1, 3, 3), (1, 1, 1), (0, 1, 1), true, rng))
        .push(BatchNorm3d::new("stem_bn", 4))
        .push(Relu::new())
        .push(MaxPool3d::new((1, 2, 2), (1, 2, 2)));
    let id_block = ResidualBlock::identity(
        Sequential::new()
            .push(Conv3d::new("r1a", 4, 4, (3, 1, 1), (1, 1, 1), (1, 0, 0), false, rng))
            .push(BatchNorm3d::new("r1a_bn", 4))
            .push(Relu::new())
            .push(Conv3d::new("r1b", 4, 4, (1, 3, 3), (1, 1, 1), (0, 1, 1), false, rng))
            .push(BatchNorm3d::new("r1b_bn", 4)),
    );
    let proj_block = ResidualBlock::projected(
        Sequential::new()
            .push(Conv3d::new("r2a", 6, 4, (1, 3, 3), (2, 2, 2), (0, 1, 1), false, rng))
            .push(BatchNorm3d::new("r2a_bn", 6)),
        Sequential::new()
            .push(Conv3d::new("r2s", 6, 4, (1, 1, 1), (2, 2, 2), (0, 0, 0), false, rng))
            .push(BatchNorm3d::new("r2s_bn", 6)),
    );
    stem.push(id_block)
        .push(proj_block)
        .push(GlobalAvgPool::new())
        .push(Flatten::new())
        .push(Linear::new("fc", 5, 6, true, rng))
}

/// Randomises batch-norm statistics so the eval path exercises
/// non-trivial running means/variances rather than the 0/1 defaults.
fn warm_bn(net: &mut Sequential, rng: &mut TensorRng, shape: [usize; 5]) {
    for _ in 0..2 {
        let x = rng.uniform_tensor(shape, -1.0, 1.0);
        let _ = net.forward(&x, Mode::Train);
    }
}

#[test]
fn arena_eval_bitwise_matches_forward() {
    let mut rng = TensorRng::seed(42);
    let mut net = build_net(&mut rng);
    warm_bn(&mut net, &mut rng, [2, 1, 4, 8, 8]);

    let mut arena = EvalArena::new();
    for trial in 0..3 {
        let x = rng.uniform_tensor([2, 1, 4, 8, 8], -1.0, 1.0);
        let want = net.forward(&x, Mode::Eval);

        arena.reset();
        let input = arena.load_clip(&x);
        let out = net.eval_into(&mut arena, input);
        assert_eq!(arena.shape(out).dims(), want.shape().dims());
        // Bitwise, not approximate: the arena path must replay the same
        // f32 expressions in the same order.
        assert_eq!(arena.buf(out), want.data(), "trial {trial} diverged");
    }
}

#[test]
fn arena_stops_growing_after_first_clip() {
    let mut rng = TensorRng::seed(7);
    let mut net = build_net(&mut rng);
    warm_bn(&mut net, &mut rng, [1, 1, 4, 8, 8]);

    let mut arena = EvalArena::new();
    // Warm-up clip sizes every buffer.
    let x = rng.uniform_tensor([1, 1, 4, 8, 8], -1.0, 1.0);
    arena.reset();
    let input = arena.load_clip(&x);
    let _ = net.eval_into(&mut arena, input);
    let warm = arena.stats();
    assert!(warm.grow_events > 0, "warm-up should allocate");
    // No layer in this net should hit the copy-out fallback.
    assert_eq!(warm.fallback_events, 0, "unexpected eval_into fallback");

    // Steady state: same-shaped clips must reuse the warm buffers.
    for _ in 0..5 {
        let x = rng.uniform_tensor([1, 1, 4, 8, 8], -1.0, 1.0);
        arena.reset();
        let input = arena.load_clip(&x);
        let _ = net.eval_into(&mut arena, input);
    }
    let steady = arena.stats();
    assert_eq!(
        steady.grow_events, warm.grow_events,
        "steady-state eval grew the arena"
    );
    assert_eq!(steady.buffers, warm.buffers);
}

#[test]
fn default_eval_into_fallback_matches_forward() {
    /// A layer that does not override `eval_into`; exercises the
    /// copy-out default path end to end.
    struct Scale(f32);
    impl Layer for Scale {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.map(|x| x * self.0)
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.map(|g| g * self.0)
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut p3d_nn::Param)) {}
        fn describe(&self) -> String {
            "scale".to_string()
        }
    }

    let mut rng = TensorRng::seed(9);
    let mut net = Sequential::new().push(Scale(0.5)).push(Relu::new());
    let x = rng.uniform_tensor([2, 3], -1.0, 1.0);
    let want = net.forward(&x, Mode::Eval);

    let mut arena = EvalArena::new();
    let input = arena.load_clip(&x);
    let out = net.eval_into(&mut arena, input);
    assert_eq!(arena.buf(out), want.data());
    assert_eq!(arena.stats().fallback_events, 1);
}

#[test]
fn dead_block_columns_ignore_stale_scratch() {
    // A block-sparse conv unfolds only its live im2col rows, so the dead
    // rows of the shared arena scratch keep what an earlier layer left.
    // Fill them with NaN through a wider layer first: the pruned conv
    // must still match its dense forward bit for bit.
    let mut rng = TensorRng::seed(17);
    let mut wide = Conv3d::new("wide", 2, 8, (1, 3, 3), (1, 1, 1), (0, 1, 1), false, &mut rng);
    let mut conv = Conv3d::new("pruned", 8, 4, (1, 3, 3), (1, 1, 1), (0, 1, 1), true, &mut rng);

    // k = 4 channels x 9 taps; one block column per input channel.
    // Columns 1 and 3 are dead in both block rows.
    let (tm, tk) = (4, 9);
    #[rustfmt::skip]
    let keep = vec![
        false, false, true, false,
        true,  false, true, false,
    ];
    let pattern = BlockPattern { m: 8, k: 36, tm, tk, keep };
    for (i, v) in conv.weight.value.data_mut().iter_mut().enumerate() {
        let (r, c) = (i / 36, i % 36);
        if !pattern.keep[(r / tm) * 4 + c / tk] {
            *v = 0.0;
        }
    }
    conv.install_block_patterns(&mut |_| Some(pattern.clone()));
    let live = conv.block_sparse().expect("pattern installed").live_k_ranges().to_vec();
    assert_eq!(live, vec![(0, 9), (18, 27)], "test needs dead block columns");

    let x = rng.uniform_tensor([2, 4, 3, 6, 6], -1.0, 1.0);
    let mut arena = EvalArena::new();
    let poison = Tensor::full([2, 8, 3, 6, 6], f32::NAN);
    arena.reset();
    let id = arena.load_clip(&poison);
    let _ = wide.eval_into(&mut arena, id);
    arena.reset();
    let id = arena.load_clip(&x);
    let out = conv.eval_into(&mut arena, id);
    let sparse = arena.buf(out).to_vec();

    conv.install_block_patterns(&mut |_| None);
    let dense = conv.forward(&x, Mode::Eval);
    assert!(sparse.iter().all(|v| v.is_finite()), "stale scratch leaked");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&sparse), bits(dense.data()));
}
