//! Emission-grid kernel throughput: the row kernels behind the
//! decoder's Δθ emission tables against the per-cell loop they
//! replaced, so the speedups are measured, not asserted.
//!
//! One row family (`scripts/bench.sh --suite channel` regenerates the
//! committed `BENCH_channel.json` and gates the floors):
//!
//! * `channel/emission/…` — building the decoder's Δθ emission table
//!   at paper fidelity (the default board at 2.5 mm, the exact grid
//!   every accuracy trial decodes against) plus the 5 mm rung of the
//!   matrix. `per_link` is the honest pre-batch baseline: one
//!   `expected_dtheta21(grid.center(idx))` per cell, exactly the loop
//!   `EmissionTable::build` used to run. `batch` is the bitwise row
//!   kernel; `batch_f32` is the tolerance-tier direct build
//!   (`EmissionTableF32::build_direct`).
//!
//! Per-link forward-model cost (`ChannelModel::evaluate`) is measured by
//! the `channel/evaluate_one_link*` rows of the components suite.

use polardraw_bench::harness::Bench;
use polardraw_core::distance::expected_dtheta21;
use polardraw_core::hmm::{EmissionTable, EmissionTableF32, Grid};
use polardraw_core::PolarDrawConfig;
use rf_core::Vec3;

/// The pre-batch emission build, verbatim: one forward-model call per
/// grid cell through the scalar per-cell API.
fn per_link_emission(grid: &Grid, antennas: [Vec3; 2], wavelength_m: f64) -> Vec<f64> {
    let mut values = vec![0.0; grid.len()];
    for (idx, v) in values.iter_mut().enumerate() {
        *v = expected_dtheta21(grid.center(idx), antennas, wavelength_m);
    }
    values
}

fn main() {
    let mut bench = Bench::from_args("channel");
    let cfg = PolarDrawConfig::default();
    let lambda = cfg.hmm.wavelength_m;

    // Emission-table build matrix: paper fidelity first (the headline
    // rows the gates track), then the coarser rung.
    for (cell_label, cell_m) in [("cell2.5mm", 0.0025), ("cell5mm", 0.005)] {
        let grid = Grid::covering(cfg.board_min, cfg.board_max, cell_m);
        bench.bench(&format!("channel/emission/per_link/{cell_label}"), || {
            per_link_emission(&grid, cfg.antennas, lambda)
        });
        bench.bench(&format!("channel/emission/batch/{cell_label}"), || {
            EmissionTable::build(&grid, cfg.antennas, lambda, 1)
        });
        bench.bench(&format!("channel/emission/batch_f32/{cell_label}"), || {
            EmissionTableF32::build_direct(&grid, cfg.antennas, lambda, 1)
        });
    }

    {
        let grid = Grid::covering(cfg.board_min, cfg.board_max, 0.0025);
        bench.note(format!(
            "emission workload: grid {}x{} = {} cells at 2.5 mm; board {:?}..{:?}, lambda {:.4} m",
            grid.nx,
            grid.ny,
            grid.len(),
            cfg.board_min,
            cfg.board_max,
            lambda,
        ));
    }

    bench.finish();
}
