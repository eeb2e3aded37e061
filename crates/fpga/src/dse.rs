//! Design-space exploration over the tiling parameters (Section IV-B:
//! "the tiling size parameters need to be chosen delicately for
//! efficient resource utilization").

use crate::config::{AcceleratorConfig, Board, Ports, Tiling};
use crate::latency::{network_latency, DoubleBuffering};
use crate::resources::{estimate_resources, fits, ResourceEstimate};
use p3d_core::PrunedModel;
use p3d_models::NetworkSpec;

/// The search space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchSpace {
    /// Candidate `Tm` values.
    pub tm: Vec<usize>,
    /// Candidate `Tn` values.
    pub tn: Vec<usize>,
    /// Candidate `Td` values.
    pub td: Vec<usize>,
    /// Candidate `Tr` values.
    pub tr: Vec<usize>,
    /// Candidate `Tc` values.
    pub tc: Vec<usize>,
}

impl SearchSpace {
    /// The space explored in the reproduction, a superset of the paper's
    /// two published points.
    pub fn standard() -> Self {
        SearchSpace {
            tm: vec![16, 32, 64, 128],
            tn: vec![4, 8, 16, 32],
            td: vec![2, 4, 8],
            tr: vec![7, 14, 28],
            tc: vec![7, 14, 28],
        }
    }

    /// Total number of candidate tilings.
    pub fn len(&self) -> usize {
        self.tm.len() * self.tn.len() * self.td.len() * self.tr.len() * self.tc.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn candidates(&self) -> Vec<Tiling> {
        let mut out = Vec::with_capacity(self.len());
        for &tm in &self.tm {
            for &tn in &self.tn {
                for &td in &self.td {
                    for &tr in &self.tr {
                        for &tc in &self.tc {
                            out.push(Tiling::new(tm, tn, td, tr, tc));
                        }
                    }
                }
            }
        }
        out
    }
}

/// One evaluated design point.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignPoint {
    /// The tiling.
    pub tiling: Tiling,
    /// Resource estimate.
    pub resources: ResourceEstimate,
    /// End-to-end cycles for the evaluated network.
    pub cycles: u64,
    /// Latency in milliseconds at the evaluated clock.
    pub ms: f64,
}

/// Exhaustively evaluates every feasible tiling for `spec` (with block
/// masks from `pruned`), returning design points sorted by latency.
/// Evaluation is parallelised across candidates via the workspace-wide
/// [`p3d_tensor::parallel`] layer (`P3D_THREADS` applies here too).
///
/// An empty search space — any axis with no candidates — returns an
/// empty result immediately. (Previously the chunking arithmetic
/// degenerated on an empty candidate list.)
pub fn explore(
    spec: &NetworkSpec,
    pruned: &PrunedModel,
    space: &SearchSpace,
    board: &Board,
    freq_mhz: f64,
) -> Vec<DesignPoint> {
    if space.is_empty() {
        return Vec::new();
    }
    let instances = spec.conv_instances().expect("spec must shape-check");
    let candidates = space.candidates();

    // One candidate per task; results come back in candidate order, so
    // the final sort (stable) is deterministic run-to-run.
    let evaluated: Vec<Option<DesignPoint>> =
        p3d_tensor::parallel::parallel_map(candidates.len(), |i| {
            let tiling = candidates[i];
            // Pruned block masks only apply when the tiling's (Tm, Tn)
            // equals the pruning block shape — the co-design constraint
            // of the paper.
            let mask_applicable = pruned
                .block_shape
                .map(|b| b.tm == tiling.tm && b.tn == tiling.tn)
                .unwrap_or(false);
            let effective = if mask_applicable {
                pruned.clone()
            } else {
                PrunedModel::dense()
            };
            let config = AcceleratorConfig {
                ports: Ports::for_tiling(&tiling),
                tiling,
                freq_mhz,
                data_bits: 16,
            };
            let est = estimate_resources(&instances, &config);
            if !fits(&est, board) {
                return None;
            }
            let lat = network_latency(spec, &config, &effective, DoubleBuffering::On);
            Some(DesignPoint {
                tiling,
                ms: config.cycles_to_ms(lat.total_cycles),
                cycles: lat.total_cycles,
                resources: est,
            })
        });

    let mut results: Vec<DesignPoint> = evaluated.into_iter().flatten().collect();
    results.sort_by_key(|a| a.cycles);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_models::r2plus1d::r2plus1d_18;

    fn tiny_space() -> SearchSpace {
        SearchSpace {
            tm: vec![32, 64],
            tn: vec![8, 16],
            td: vec![4],
            tr: vec![14],
            tc: vec![14],
        }
    }

    #[test]
    fn space_enumeration() {
        let s = SearchSpace::standard();
        assert_eq!(s.len(), 4 * 4 * 3 * 3 * 3);
        assert!(!s.is_empty());
        assert_eq!(tiny_space().candidates().len(), 4);
    }

    #[test]
    fn explore_returns_sorted_feasible_points() {
        let spec = r2plus1d_18(101);
        let points = explore(
            &spec,
            &PrunedModel::dense(),
            &tiny_space(),
            &Board::zcu102(),
            150.0,
        );
        assert!(!points.is_empty(), "no feasible designs found");
        for w in points.windows(2) {
            assert!(w[0].cycles <= w[1].cycles, "not sorted by latency");
        }
        for p in &points {
            assert!(p.resources.dsps <= Board::zcu102().dsps);
        }
    }

    #[test]
    fn more_parallelism_is_faster_when_feasible() {
        let spec = r2plus1d_18(101);
        let points = explore(
            &spec,
            &PrunedModel::dense(),
            &tiny_space(),
            &Board::zcu102(),
            150.0,
        );
        let find = |tm: usize, tn: usize| {
            points
                .iter()
                .find(|p| p.tiling.tm == tm && p.tiling.tn == tn)
                .map(|p| p.cycles)
        };
        if let (Some(c8), Some(c16)) = (find(64, 8), find(64, 16)) {
            assert!(c16 < c8, "Tn=16 should beat Tn=8");
        } else {
            panic!("expected both paper points to be feasible");
        }
    }

    #[test]
    fn empty_search_space_returns_no_points() {
        // Regression: an empty candidate list used to degenerate the
        // chunking arithmetic; now it early-returns.
        let spec = r2plus1d_18(101);
        let empty = SearchSpace {
            tm: vec![],
            tn: vec![8],
            td: vec![4],
            tr: vec![14],
            tc: vec![14],
        };
        assert!(empty.is_empty());
        let points = explore(
            &spec,
            &PrunedModel::dense(),
            &empty,
            &Board::zcu102(),
            150.0,
        );
        assert!(points.is_empty());
    }

    #[test]
    fn infeasible_board_yields_nothing() {
        let spec = r2plus1d_18(101);
        let tiny_board = Board {
            name: "tiny".into(),
            dsps: 10,
            bram36: 4,
            luts: 1000,
            ffs: 1000,
        };
        let points = explore(
            &spec,
            &PrunedModel::dense(),
            &tiny_space(),
            &tiny_board,
            150.0,
        );
        assert!(points.is_empty());
    }
}
