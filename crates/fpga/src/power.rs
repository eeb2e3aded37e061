//! Power and energy estimation.
//!
//! Simulation cannot measure board power, but the paper gives two
//! calibration points for the same accelerator family on the same board
//! at the same clock: 5.4 W at the (64,8) design (699 modelled DSPs) and
//! 6.7 W at (64,16) (1211 DSPs). A standard FPGA power decomposition —
//! a static + infrastructure term plus a dynamic term proportional to
//! active DSP count — fits both points exactly and extrapolates to other
//! design points of the *same family and clock*; that is the only use
//! made of it.

use crate::config::AcceleratorConfig;
use crate::resources::ResourceEstimate;

/// A two-term power model: `P = static_w + per_dsp_w * dsps`, scaled
/// linearly with clock frequency relative to the calibration clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    /// Static + infrastructure power in watts (PS, DRAM, clocking).
    pub static_w: f64,
    /// Dynamic watts per active DSP slice (includes the BRAM and routing
    /// activity that scales with the MAC array).
    pub per_dsp_w: f64,
    /// Clock at which the model was calibrated, MHz.
    pub calibration_mhz: f64,
}

impl PowerModel {
    /// The model calibrated on the paper's two ZCU102 design points
    /// (5.4 W @ 699 DSPs, 6.7 W @ 1211 DSPs, both 150 MHz).
    pub fn paper_zcu102() -> Self {
        // Solve the 2x2 system: 5.4 = s + 699 d; 6.7 = s + 1211 d.
        let per_dsp_w = (6.7 - 5.4) / (1211.0 - 699.0);
        PowerModel {
            static_w: 5.4 - 699.0 * per_dsp_w,
            per_dsp_w,
            calibration_mhz: 150.0,
        }
    }

    /// Estimated board power for a design point.
    pub fn power_w(&self, est: &ResourceEstimate, config: &AcceleratorConfig) -> f64 {
        let dynamic = self.per_dsp_w * est.dsps as f64 * (config.freq_mhz / self.calibration_mhz);
        self.static_w + dynamic
    }

    /// Energy in joules for a run of `cycles` at the configured clock.
    pub fn energy_j(&self, est: &ResourceEstimate, config: &AcceleratorConfig, cycles: u64) -> f64 {
        self.power_w(est, config) * cycles as f64 / (config.freq_mhz * 1e6)
    }

    /// Power efficiency in GOPS/W for a given op count and latency.
    pub fn gops_per_watt(
        &self,
        est: &ResourceEstimate,
        config: &AcceleratorConfig,
        total_ops: f64,
        cycles: u64,
    ) -> f64 {
        let seconds = cycles as f64 / (config.freq_mhz * 1e6);
        (total_ops / 1e9 / seconds) / self.power_w(est, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::estimate_resources;
    use p3d_models::r2plus1d::r2plus1d_18;

    fn estimates() -> (ResourceEstimate, ResourceEstimate) {
        let insts = r2plus1d_18(101).conv_instances().unwrap();
        (
            estimate_resources(&insts, &AcceleratorConfig::paper_tn8()),
            estimate_resources(&insts, &AcceleratorConfig::paper_tn16()),
        )
    }

    #[test]
    fn reproduces_calibration_points() {
        let m = PowerModel::paper_zcu102();
        let (e8, e16) = estimates();
        let p8 = m.power_w(&e8, &AcceleratorConfig::paper_tn8());
        let p16 = m.power_w(&e16, &AcceleratorConfig::paper_tn16());
        assert!((p8 - 5.4).abs() < 0.01, "{p8}");
        assert!((p16 - 6.7).abs() < 0.01, "{p16}");
    }

    #[test]
    fn static_share_is_plausible() {
        // Zynq UltraScale+ PS + DDR idle draw is several watts; the fit
        // must land there rather than at zero.
        let m = PowerModel::paper_zcu102();
        assert!(m.static_w > 2.0 && m.static_w < 5.0, "{}", m.static_w);
        assert!(m.per_dsp_w > 0.0);
    }

    #[test]
    fn power_scales_with_clock() {
        let m = PowerModel::paper_zcu102();
        let (e8, _) = estimates();
        let mut fast = AcceleratorConfig::paper_tn8();
        fast.freq_mhz = 300.0;
        let p_fast = m.power_w(&e8, &fast);
        let p_slow = m.power_w(&e8, &AcceleratorConfig::paper_tn8());
        assert!(p_fast > p_slow);
        // Static part does not scale.
        assert!(p_fast < 2.0 * p_slow);
    }

    #[test]
    fn energy_consistent_with_power_times_time() {
        let m = PowerModel::paper_zcu102();
        let (e8, _) = estimates();
        let cfg = AcceleratorConfig::paper_tn8();
        let cycles = 150_000_000; // exactly 1 s
        let e = m.energy_j(&e8, &cfg, cycles);
        assert!((e - m.power_w(&e8, &cfg)).abs() < 1e-9);
    }

    #[test]
    fn gops_per_watt_matches_table4_convention() {
        // Pruned R(2+1)D Tn=16: paper 16.7 GOPS/W at 234 ms / 26.13 Gop.
        let m = PowerModel::paper_zcu102();
        let (_, e16) = estimates();
        let cfg = AcceleratorConfig::paper_tn16();
        let cycles = (0.234 * cfg.freq_mhz * 1e6) as u64;
        let eff = m.gops_per_watt(&e16, &cfg, 26.13e9, cycles);
        assert!((eff - 16.7).abs() < 0.3, "{eff}");
    }
}
