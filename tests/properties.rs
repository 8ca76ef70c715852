//! Property-based tests on the core invariants, spanning crates.

use proptest::prelude::*;
use witrack_repro::dsp::{fft::dft_naive, Complex, Fft, RangeTransform};
use witrack_repro::fmcw::SweepConfig;
use witrack_repro::geom::multilateration::{solve_least_squares, GaussNewtonConfig};
use witrack_repro::geom::{Ellipsoid, Plane, TArray, Vec3};
use witrack_repro::mtt::{solve_assignment, solve_assignment_greedy, Assignment, CostMatrix};

fn in_room() -> impl Strategy<Value = Vec3> {
    (-2.5f64..2.5, 3.0f64..9.0, 0.2f64..2.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Random small association problems: up to 4×4, each cell feasible with
/// probability ~½ and cost in [0, 100).
fn small_cost_matrix() -> impl Strategy<Value = CostMatrix> {
    (
        0usize..5,
        0usize..5,
        proptest::collection::vec((0.0f64..1.0, 0.0f64..100.0), 16..17),
    )
        .prop_map(|(rows, cols, cells)| {
            let mut m = CostMatrix::new(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    let (gate, cost) = cells[i * cols + j];
                    if gate < 0.5 {
                        m.set(i, j, cost);
                    }
                }
            }
            m
        })
}

/// Exhaustive best matching by the solver's objective: maximum cardinality
/// first, then minimum total cost. Returns `(matches, total_cost)`.
fn brute_force_best(cost: &CostMatrix) -> (usize, f64) {
    fn rec(cost: &CostMatrix, row: usize, used: &mut Vec<bool>) -> (usize, f64) {
        if row == cost.rows() {
            return (0, 0.0);
        }
        // Leave this row unmatched...
        let mut best = rec(cost, row + 1, used);
        // ...or match it to any free feasible column.
        for col in 0..cost.cols() {
            if used[col] || !cost.is_feasible(row, col) {
                continue;
            }
            used[col] = true;
            let (m, c) = rec(cost, row + 1, used);
            used[col] = false;
            let cand = (m + 1, c + cost.get(row, col));
            if cand.0 > best.0 || (cand.0 == best.0 && cand.1 < best.1) {
                best = cand;
            }
        }
        best
    }
    rec(cost, 0, &mut vec![false; cost.cols()])
}

/// The matrix with rows and columns reversed.
fn reversed(cost: &CostMatrix) -> CostMatrix {
    let (r, c) = (cost.rows(), cost.cols());
    let mut out = CostMatrix::new(r, c);
    for i in 0..r {
        for j in 0..c {
            let x = cost.get(i, j);
            if x.is_finite() {
                out.set(r - 1 - i, c - 1 - j, x);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The closed-form T-array solver inverts its own forward model
    /// everywhere in the room, for any plausible geometry.
    #[test]
    fn tarray_solve_inverts_forward(
        p in in_room(),
        sep in 0.25f64..2.0,
        origin_z in 0.5f64..1.5,
    ) {
        let t = TArray::symmetric(Vec3::new(0.0, 0.0, origin_z), sep);
        let hat = t.solve(t.round_trips(p)).expect("exact inputs must solve");
        prop_assert!(hat.distance(p) < 1e-6, "{} vs {}", hat, p);
    }

    /// Gauss–Newton agrees with the closed form on exact inputs.
    #[test]
    fn gauss_newton_matches_closed_form(p in in_room(), sep in 0.3f64..2.0) {
        let t = TArray::symmetric(Vec3::new(0.0, 0.0, 1.0), sep);
        let arr = t.antenna_array();
        let rts = t.round_trips(p).to_vec();
        let gn = solve_least_squares(&arr, &rts, &GaussNewtonConfig::default())
            .expect("solvable");
        prop_assert!(gn.position.distance(p) < 1e-4);
        prop_assert!(gn.residual_rms < 1e-6);
    }

    /// Round-trip distances always define valid (non-degenerate) ellipsoids
    /// whose surface contains the reflector.
    #[test]
    fn round_trips_define_containing_ellipsoids(p in in_room(), sep in 0.25f64..2.0) {
        let t = TArray::symmetric(Vec3::new(0.0, 0.0, 1.0), sep);
        let arr = t.antenna_array();
        for k in 0..3 {
            let e = Ellipsoid::new(
                arr.tx.position,
                arr.rx[k].position,
                arr.round_trip(p, k),
            ).expect("physical round trip");
            prop_assert!(e.contains(p, 1e-9));
        }
    }

    /// A wall bounce is never shorter than the direct path — the invariant
    /// the bottom-contour tracker relies on (§4.3).
    #[test]
    fn bounce_paths_never_shorter(
        a in in_room(),
        b in in_room(),
        wall_x in 3.0f64..6.0,
    ) {
        let wall = Plane::wall_at_x(wall_x);
        if let Some(len) = wall.bounce_path_length(a, b) {
            prop_assert!(len >= a.distance(b) - 1e-9);
        }
    }

    /// FFT/inverse round trip is the identity for arbitrary signals and
    /// lengths (mixed-radix and Bluestein plans).
    #[test]
    fn fft_round_trips(
        n in 2usize..200,
        seed in 0u64..1000,
    ) {
        let data: Vec<Complex> = (0..n)
            .map(|i| {
                let x = ((i as u64 + 1) * (seed + 3)) as f64;
                Complex::new((x * 0.01).sin(), (x * 0.007).cos())
            })
            .collect();
        let mut buf = data.clone();
        let plan = Fft::new(n);
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (x, y) in buf.iter().zip(&data) {
            prop_assert!((*x - *y).abs() < 1e-8 * n as f64);
        }
    }

    /// Fast FFT matches the quadratic reference DFT at awkward lengths.
    #[test]
    fn fft_matches_naive(n in 2usize..64, seed in 0u64..100) {
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new(((i as u64 * 7 + seed) % 13) as f64 - 6.0, 0.0))
            .collect();
        let mut fast = data.clone();
        Fft::new(n).forward(&mut fast);
        let slow = dft_naive(&data);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-7 * n as f64);
        }
    }

    /// The range transform agrees with the reference DFT over the kept
    /// band for arbitrary lengths and band widths (this sweeps the packed
    /// half-length path, the full-length fallback, and every FFT plan).
    #[test]
    fn range_transform_matches_naive_band(n in 2usize..96, keep_seed in 0u64..1000) {
        let keep = 1 + (keep_seed as usize) % n;
        let signal: Vec<f64> = (0..n)
            .map(|i| (((i as u64 + 2) * (keep_seed + 5)) as f64 * 0.013).sin())
            .collect();
        let mut band = vec![Complex::ZERO; keep];
        RangeTransform::new(n, keep).transform_into(&signal, &mut band);
        let data: Vec<Complex> = signal.iter().map(|&x| Complex::real(x)).collect();
        let slow = dft_naive(&data);
        for (k, (a, b)) in band.iter().zip(&slow).enumerate() {
            prop_assert!((*a - *b).abs() < 1e-8 * n as f64, "bin {k}: {a} vs {b}");
        }
    }

    /// Beat-frequency ↔ distance mappings invert each other for any
    /// physical sweep configuration.
    #[test]
    fn sweep_mappings_invert(
        bw_ghz in 0.1f64..4.0,
        dur_ms in 0.5f64..10.0,
        dist in 0.5f64..100.0,
    ) {
        let cfg = SweepConfig {
            start_freq_hz: 5.56e9,
            bandwidth_hz: bw_ghz * 1e9,
            sweep_duration_s: dur_ms * 1e-3,
            sample_rate_hz: 1e6,
            sweeps_per_frame: 5,
            transmit_power_w: 1e-3,
        };
        let beat = cfg.beat_for_round_trip(dist);
        prop_assert!((cfg.round_trip_for_beat(beat) - dist).abs() < 1e-9 * dist);
        let bin = cfg.bin_for_round_trip(dist);
        prop_assert!((cfg.round_trip_for_bin(bin) - dist).abs() < 1e-9 * dist);
    }

    /// The Hungarian association solver is exactly optimal on small
    /// problems: same cardinality and total cost as exhaustive search.
    #[test]
    fn assignment_matches_brute_force(m in small_cost_matrix()) {
        let a = solve_assignment(&m);
        let (best_matches, best_cost) = brute_force_best(&m);
        prop_assert_eq!(a.matches(), best_matches);
        prop_assert!(
            (a.total_cost - best_cost).abs() < 1e-6,
            "solver cost {} vs brute force {}", a.total_cost, best_cost
        );
    }

    /// Relabeling tracks/detections (reversing rows and columns) cannot
    /// change the objective the solver achieves.
    #[test]
    fn assignment_is_permutation_invariant(m in small_cost_matrix()) {
        let a = solve_assignment(&m);
        let b = solve_assignment(&reversed(&m));
        prop_assert_eq!(a.matches(), b.matches());
        prop_assert!(
            (a.total_cost - b.total_cost).abs() < 1e-6,
            "cost {} vs reversed {}", a.total_cost, b.total_cost
        );
    }

    /// Gating is respected: only cells explicitly made feasible are ever
    /// matched, the two direction maps agree, and the reported total is the
    /// sum of the matched cells.
    #[test]
    fn assignment_respects_gates(m in small_cost_matrix()) {
        for a in [solve_assignment(&m), solve_assignment_greedy(&m)] {
            let mut total = 0.0;
            for (row, col) in a.row_to_col.iter().enumerate() {
                if let Some(col) = *col {
                    prop_assert!(m.is_feasible(row, col), "matched gated pair ({row},{col})");
                    prop_assert_eq!(a.col_to_row[col], Some(row));
                    total += m.get(row, col);
                }
            }
            let matched_cols = a.col_to_row.iter().flatten().count();
            prop_assert_eq!(matched_cols, a.matches());
            prop_assert!((total - a.total_cost).abs() < 1e-9);
        }
    }

    /// The greedy fallback never beats the exact solver (sanity that the
    /// two solve the same objective), and matches it on cardinality-1
    /// problems.
    #[test]
    fn greedy_never_beats_hungarian(m in small_cost_matrix()) {
        let h: Assignment = solve_assignment(&m);
        let g = solve_assignment_greedy(&m);
        prop_assert!(g.matches() <= h.matches());
        if g.matches() == h.matches() {
            prop_assert!(g.total_cost >= h.total_cost - 1e-9);
        }
    }

    /// The empirical CDF's percentile and fraction_below are consistent
    /// inverses on random samples.
    #[test]
    fn cdf_consistency(mut xs in proptest::collection::vec(-100.0f64..100.0, 2..200)) {
        use witrack_repro::dsp::stats::EmpiricalCdf;
        xs.dedup();
        let cdf = EmpiricalCdf::new(xs);
        let n = cdf.len() as f64;
        for p in [10.0, 50.0, 90.0] {
            let v = cdf.percentile(p);
            let f = cdf.fraction_below(v);
            // Percentiles interpolate between order statistics, so the
            // empirical fraction below can undershoot by up to one sample.
            prop_assert!(f >= p / 100.0 - 1.0 / n - 0.02, "p{p}: value {v} fraction {f} n {n}");
        }
    }
}
