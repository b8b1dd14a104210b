//! Golden of the mapping search on its default settings, recorded before
//! the surrogate pre-screen, the transfer seeds and the annealing-start
//! setting were removed from [`SearchSettings`]: with the surrogate and
//! transfer off those paths were identity steps, so the search must still
//! pick the same winners with the same evaluation counts.
//!
//! Each case runs [`MappingSearch::run`] with [`SearchSettings::default`],
//! refresh off and 4,000 bursts, on the three presets whose committed
//! `BENCH_dse.json` winners span the searchable families: a free tile on
//! DDR3-800 and DDR4-3200, an xorfold mimic of the paper's tiling on
//! LPDDR4-4266.  Rates are pinned through `f64::to_bits`.

use tbi_dram::{ControllerConfig, DramConfig, DramStandard, RefreshMode};
use tbi_exp::search::{round_trip_row_hit_rate, MappingSearch, SearchSettings};
use tbi_interleaver::InterleaverSpec;

/// One preset's pinned outcome.
struct Golden {
    standard: DramStandard,
    rate: u32,
    mapping: &'static str,
    evaluations: u32,
    accepted_moves: u32,
    permutation: &'static str,
    fold: &'static str,
    /// `to_bits()` of the discovered, optimized and row-major round-trip
    /// row-hit rates.
    rates: [u64; 3],
}

const GOLDENS: [Golden; 3] = [
    Golden {
        standard: DramStandard::Ddr3,
        rate: 800,
        mapping: "tiled:11x11",
        evaluations: 80,
        accepted_moves: 9,
        permutation: "",
        fold: "",
        rates: [
            0x3fef_a911_93f9_9ba5,
            0x3fef_4e0b_e39e_95f4,
            0x3fe8_2e88_a942_ab2e,
        ],
    },
    Golden {
        standard: DramStandard::Ddr4,
        rate: 3200,
        mapping: "tiled:14x9",
        evaluations: 80,
        accepted_moves: 9,
        permutation: "",
        fold: "",
        rates: [
            0x3fef_b868_d436_f8a6,
            0x3fee_4734_fd61_183a,
            0x3fe8_edc8_63b7_218f,
        ],
    },
    Golden {
        standard: DramStandard::Lpddr4,
        rate: 4266,
        mapping: "xorfold:RRRRRRRRRRRRRRRRCCCRBBBCCC|B+R1",
        evaluations: 80,
        accepted_moves: 9,
        permutation: "RRRRRRRRRRRRRRRRCCCRBBBCCC",
        fold: "B+R1",
        rates: [
            0x3fee_b08c_1ce4_5296,
            0x3fee_b08c_1ce4_5296,
            0x3fe4_d478_6ceb_7b4d,
        ],
    },
];

#[test]
fn default_search_winners_match_the_recorded_golden() {
    let controller = ControllerConfig {
        refresh_mode: Some(RefreshMode::Disabled),
        ..ControllerConfig::default()
    };
    for golden in &GOLDENS {
        let dram = DramConfig::preset(golden.standard, golden.rate).unwrap();
        let label = dram.label();
        let record = MappingSearch::new(
            dram,
            InterleaverSpec::from_burst_count(4_000),
            SearchSettings::default(),
        )
        .with_controller(controller)
        .run()
        .unwrap();
        assert_eq!(record.best.mapping, golden.mapping, "{label}");
        assert_eq!(record.evaluations, golden.evaluations, "{label}");
        assert_eq!(record.accepted_moves, golden.accepted_moves, "{label}");
        assert_eq!(record.permutation, golden.permutation, "{label}");
        assert_eq!(record.fold, golden.fold, "{label}");
        let rates = [
            record.discovered_row_hit_rate(),
            record.optimized_row_hit_rate(),
            round_trip_row_hit_rate(&record.row_major),
        ];
        assert_eq!(rates.map(f64::to_bits), golden.rates, "{label}: {rates:?}");
    }
}
